//! Multiple host CPUs sharing one coprocessor (paper Figure 1.1).
//!
//! "The main purpose of the presented framework is to facilitate the
//! development of FPGA based coprocessors by providing a common interface
//! to hardware accelerators **accessible by one or more host CPUs**
//! running standard software." The figure shows CPU #1 … CPU #m attached
//! to the single generic interface.
//!
//! [`MultiHostSystem`] gives each host its own link pair and merges the
//! inbound streams at **message granularity** with a round-robin arbiter
//! (frames of one message are never interleaved with another host's — the
//! receiver-side arbiter a real multi-port transceiver needs). Responses
//! are routed by tag: the top [`MultiHostSystem::host_bits`] bits of every
//! tag carry the issuing host's index, a convention the per-host drivers
//! enforce. Error responses carry no tag and are delivered to host 0,
//! which acts as the management CPU — a documented design decision.
//!
//! Each host attaches through the same host port as [`crate::System`]:
//! its link pair, the host's and the device edge's bare-or-reliable ends
//! of that pair (`LinkEnd` in [`crate::link`]) and its response
//! deframer. The link pump — transmit, receive, the idle-skip event set,
//! idleness and statistics — is therefore written once for both host
//! types. Per host, the multi-port transceiver adds the reassembly of
//! that host's messages.

use std::collections::VecDeque;

use crate::link::{FaultModel, HostPort, LinkModel, LinkStats};
use fu_isa::msg::{DevDeframer, ErrorCode, HostDeframer};
use fu_isa::transport::TransportConfig;
use fu_isa::{DevMsg, HostMsg, Tag};
use fu_rtm::{ActivityMode, CoprocConfig, Coprocessor, FunctionalUnit};
use rtl_sim::area::log2_ceil;
use rtl_sim::{LinkDir, SimError, SimStats};

/// One attached host: its [`HostPort`] plus the device-side state the
/// multi-port transceiver keeps for it. The port's device edge sits at
/// the multi-port transceiver, so the shared coprocessor stays bare.
struct Host {
    port: HostPort,
    /// Device-edge reassembly of this host's messages.
    deframer: HostDeframer,
    /// Complete messages awaiting injection into the coprocessor.
    inject: VecDeque<HostMsg>,
    /// Fully received responses.
    responses: VecDeque<DevMsg>,
    /// The port's next event as of its last touch (a pump or a send);
    /// nothing else changes the port, so it stays exact until then.
    wake: Option<u64>,
    /// Pump this host's port in the current step.
    pump: bool,
}

/// `m` host CPUs sharing one coprocessor.
pub struct MultiHostSystem {
    coproc: Coprocessor,
    hosts: Vec<Host>,
    /// Transmit-side demultiplexer: reassembles device messages so they
    /// can be routed whole to the owning host's link.
    route: DevDeframer,
    /// Frames of the message currently being injected.
    injecting: VecDeque<u32>,
    rr: usize,
    cycle: u64,
    word_bits: u32,
    host_bits: u32,
}

impl MultiHostSystem {
    /// Assemble a system with `n_hosts` identical links.
    ///
    /// # Errors
    /// Propagates configuration errors; rejects `n_hosts == 0` and hosts
    /// beyond the tag space.
    pub fn new(
        mut cfg: CoprocConfig,
        units: Vec<Box<dyn FunctionalUnit>>,
        link: LinkModel,
        n_hosts: usize,
    ) -> Result<MultiHostSystem, SimError> {
        if n_hosts == 0 {
            return Err(SimError::Config("at least one host required".into()));
        }
        let host_bits = log2_ceil(n_hosts.max(2) as u64) as u32;
        if host_bits > 8 {
            return Err(SimError::Config("too many hosts for the tag space".into()));
        }
        cfg.rx_frames_per_cycle = link.port_frames_per_cycle;
        cfg.tx_frames_per_cycle = link.port_frames_per_cycle;
        let word_bits = cfg.word_bits;
        let port = HostPort::new(link, word_bits, None)?;
        let hosts = (0..n_hosts)
            .map(|_| Host {
                port: port.clone(),
                deframer: HostDeframer::new(word_bits),
                inject: VecDeque::new(),
                responses: VecDeque::new(),
                wake: None,
                pump: false,
            })
            .collect();
        Ok(MultiHostSystem {
            coproc: Coprocessor::new(cfg, units)?,
            hosts,
            route: DevDeframer::new(word_bits),
            injecting: VecDeque::new(),
            rr: 0,
            cycle: 0,
            word_bits,
            host_bits,
        })
    }

    /// Assemble a system with the reliable transport on every host port,
    /// optionally with per-direction fault injection. Each port's two
    /// directions derive distinct PRNG seeds from the model's seed, so
    /// fault streams are independent across ports and directions. The
    /// device-side endpoints sit at the multi-port transceiver edge; the
    /// shared coprocessor keeps its bare frame port.
    ///
    /// # Errors
    /// Same conditions as [`MultiHostSystem::new`], and
    /// [`SimError::Config`] for a transport configuration an endpoint
    /// cannot run.
    pub fn new_reliable(
        cfg: CoprocConfig,
        units: Vec<Box<dyn FunctionalUnit>>,
        link: LinkModel,
        n_hosts: usize,
        transport: TransportConfig,
        faults: Option<FaultModel>,
    ) -> Result<MultiHostSystem, SimError> {
        let mut sys = MultiHostSystem::new(cfg, units, link, n_hosts)?;
        let port = HostPort::new(link, sys.word_bits, Some(transport))?;
        for (i, h) in sys.hosts.iter_mut().enumerate() {
            h.port = port.clone();
            if let Some(m) = faults {
                let stream = |k: u64| {
                    m.with_seed(m.seed ^ (2 * i as u64 + k).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                };
                h.port.to_dev.install_faults(stream(1));
                h.port.to_host.install_faults(stream(2));
            }
        }
        Ok(sys)
    }

    /// Number of attached hosts.
    pub fn n_hosts(&self) -> usize {
        self.hosts.len()
    }

    /// Tag bits reserved for the host index.
    pub fn host_bits(&self) -> u32 {
        self.host_bits
    }

    /// Elapsed FPGA cycles.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The shared coprocessor.
    pub fn coproc(&self) -> &Coprocessor {
        &self.coproc
    }

    /// Brand a host-local tag with the host index (drivers use this for
    /// every tagged request).
    ///
    /// # Panics
    /// When `host` is not an attached host or `local` overflows the
    /// per-host tag space.
    pub fn brand_tag(&self, host: usize, local: Tag) -> Tag {
        assert!(host < self.hosts.len(), "no host {host}");
        let shift = 16 - self.host_bits;
        assert!(
            local < (1 << shift),
            "local tag overflows the per-host space"
        );
        ((host as Tag) << shift) | local
    }

    /// Which host does a branded tag belong to?
    fn tag_host(&self, tag: Tag) -> usize {
        (tag >> (16 - self.host_bits)) as usize % self.hosts.len()
    }

    /// Queue a message from `host`. Tagged messages must already carry a
    /// branded tag (see [`MultiHostSystem::brand_tag`]); this method
    /// checks the brand to catch routing bugs early.
    ///
    /// # Panics
    /// When a tag's host field is not exactly `host`.
    pub fn send(&mut self, host: usize, msg: &HostMsg) {
        let tag = match msg {
            HostMsg::ReadReg { tag, .. }
            | HostMsg::ReadFlags { tag, .. }
            | HostMsg::Sync { tag } => Some(*tag),
            _ => None,
        };
        if let Some(t) = tag {
            // The unreduced field: routing reduces it modulo the host
            // count, which would let a field past the last host alias one.
            assert_eq!(
                usize::from(t >> (16 - self.host_bits)),
                host,
                "tag {t:#x} is not branded for host {host}"
            );
        }
        let h = &mut self.hosts[host];
        h.port.end.send(msg.frames(self.word_bits));
        h.wake = h.port.next_event(self.cycle, true);
    }

    /// Select the coprocessor's scheduling mode (see [`ActivityMode`]).
    /// `Exhaustive` pumps every port every cycle and keeps no wakes, so
    /// they are recomputed here.
    pub fn set_activity_mode(&mut self, mode: ActivityMode) {
        self.coproc.set_activity_mode(mode);
        for h in &mut self.hosts {
            h.wake = h.port.next_event(self.cycle, true);
        }
    }

    /// Scheduler statistics for the shared coprocessor.
    pub fn sim_stats(&self) -> SimStats {
        self.coproc.sim_stats()
    }

    /// Take the next response for `host`.
    pub fn recv(&mut self, host: usize) -> Option<DevMsg> {
        self.hosts[host].responses.pop_front()
    }

    /// Advance one FPGA clock cycle. Under `Scheduled` only the ports
    /// whose cached wake is due, and those the router hands a response
    /// this cycle, are pumped: every other port would do nothing, since
    /// its wake is its earliest event. `Exhaustive` pumps every port, so
    /// it stays the per-cycle reference the cache is checked against.
    pub fn step(&mut self) {
        let now = self.cycle;
        let all = self.coproc.activity_mode() == ActivityMode::Exhaustive;
        for h in &mut self.hosts {
            h.pump = all || h.wake.is_some_and(|t| t <= now);
        }
        // Host side: each host end paces its frames onto its link.
        for h in self.hosts.iter_mut().filter(|h| h.pump) {
            h.port.transmit(now);
        }
        // Device edge: reassemble per-host messages. A malformed frame is
        // answered to its host with an in-band `BadFrame` error carrying
        // the header, as the device's message buffer answers one.
        for h in self.hosts.iter_mut().filter(|h| h.pump) {
            let (deframer, inject) = (&mut h.deframer, &mut h.inject);
            let mut bad = Vec::new();
            let port = &mut h.port;
            port.edge.poll(now);
            let on_frame = |f: u32| match deframer.push(f) {
                Ok(Some(msg)) => inject.push_back(msg),
                Ok(None) => {}
                Err(e) => bad.push(e.header),
            };
            let dir = LinkDir::ToDevice;
            port.edge
                .receive(now, &mut port.to_dev, &mut port.trace, dir, on_frame);
            for info in bad {
                let err = DevMsg::Error {
                    code: ErrorCode::BadFrame,
                    info,
                };
                port.edge.send(err.frames(self.word_bits));
            }
        }
        // Message-granular round-robin injection into the coprocessor.
        if self.injecting.is_empty() {
            let n = self.hosts.len();
            for i in 0..n {
                let idx = (self.rr + i) % n;
                if let Some(msg) = self.hosts[idx].inject.pop_front() {
                    // `injecting` is empty here; extend reuses its buffer
                    // instead of allocating a fresh Vec per message.
                    self.injecting.extend(msg.frames(self.word_bits));
                    self.rr = (idx + 1) % n;
                    break;
                }
            }
        }
        while let Some(&f) = self.injecting.front() {
            if self.coproc.push_frame(f) {
                self.injecting.pop_front();
            } else {
                break;
            }
        }
        // Clock the FPGA.
        self.coproc.step();
        // Route outbound frames: responses are deframed at the device
        // edge and re-serialised onto the owning host's link (the
        // transmit-side demultiplexer).
        while let Some(f) = self.coproc.pop_frame() {
            // A shared deframer at the device edge rebuilds the message
            // so it can be routed whole.
            if let Some(msg) = self.route.push(f).expect("device frames well-formed") {
                let host = match &msg {
                    DevMsg::Data { tag, .. }
                    | DevMsg::Flags { tag, .. }
                    | DevMsg::SyncAck { tag } => self.tag_host(*tag),
                    DevMsg::Error { .. } => 0, // management CPU
                };
                // Device-side per-host serialisation is modelled as
                // instantaneous; the per-host link applies its own
                // latency/bandwidth below.
                let h = &mut self.hosts[host];
                h.port.edge.send(msg.frames(self.word_bits));
                h.pump = true;
            }
        }
        for h in self.hosts.iter_mut().filter(|h| h.pump) {
            let port = &mut h.port;
            let dir = LinkDir::ToHost;
            port.edge
                .transmit(now, &mut port.to_host, &mut port.trace, dir);
            let responses = &mut h.responses;
            port.receive(now, |msg| responses.push_back(msg));
            if !all {
                h.wake = port.next_event(now + 1, true);
            }
        }
        self.cycle += 1;
    }

    /// Step until `host` has a response, with a cycle budget.
    ///
    /// # Errors
    /// [`SimError::Timeout`] when the budget runs out.
    pub fn recv_blocking(&mut self, host: usize, max_cycles: u64) -> Result<DevMsg, SimError> {
        let start = self.cycle;
        while self.hosts[host].responses.is_empty() {
            let elapsed = self.cycle - start;
            if elapsed >= max_cycles {
                return Err(SimError::Timeout {
                    cycles: max_cycles,
                    waiting_for: format!("response for host {host}"),
                });
            }
            if self.idle_skip(max_cycles - elapsed) == 0 {
                self.step();
            }
        }
        Ok(self.hosts[host].responses.pop_front().expect("non-empty"))
    }

    /// Jump over cycles in which nothing can happen (see
    /// [`crate::System`] — same idea, with each host's port as an event
    /// source, read from its cached wake). Returns the number of cycles
    /// skipped (0 means: step normally).
    fn idle_skip(&mut self, budget: u64) -> u64 {
        let now = self.cycle;
        let (hosts, injecting) = (&self.hosts, &self.injecting);
        let skip = self.coproc.skip_to_next_event(budget, || {
            // Pending injection work means the device edge does something
            // every cycle — never skip over it.
            if !injecting.is_empty() || hosts.iter().any(|h| !h.inject.is_empty()) {
                return Some(now);
            }
            hosts.iter().filter_map(|h| h.wake).min()
        });
        self.cycle += skip;
        skip
    }

    /// True when no work remains anywhere. Reliable ports must also be
    /// quiescent (all traffic delivered and acknowledged) or dead.
    pub fn is_idle(&self) -> bool {
        self.injecting.is_empty()
            && self.coproc.is_idle()
            && self
                .hosts
                .iter()
                .all(|h| h.port.is_quiet() && h.port.edge.is_quiet() && h.inject.is_empty())
    }

    /// Aggregate reliability statistics for one port: injected faults on
    /// both link directions plus transport counters from both endpoints.
    pub fn link_stats(&self, host: usize) -> LinkStats {
        self.hosts[host].port.link_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fu_rtm::testing::LatencyFu;

    #[test]
    fn malformed_host_frames_are_answered_in_band_to_their_host() {
        let units: Vec<Box<dyn FunctionalUnit>> = vec![Box::new(LatencyFu::new("add", 1, 1))];
        let link = LinkModel::tightly_coupled();
        let mut s = MultiHostSystem::new(CoprocConfig::default(), units, link, 2).unwrap();
        s.hosts[1].port.to_dev.send(0, 0xee00_0000); // no host message has type 0xee
        let tag = s.brand_tag(1, 5);
        s.send(1, &HostMsg::Sync { tag });
        let bad = DevMsg::Error {
            code: ErrorCode::BadFrame,
            info: 0xee00_0000,
        };
        assert_eq!(s.recv_blocking(1, 10_000).unwrap(), bad);
        assert_eq!(s.recv_blocking(1, 10_000).unwrap(), DevMsg::SyncAck { tag });
        while !s.is_idle() {
            s.step();
        }
        assert_eq!(s.recv(0), None, "only the sending host hears of it");
    }
}
