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

use std::collections::VecDeque;

use crate::link::{FaultModel, Link, LinkModel, LinkStats};
use fu_isa::msg::{DevDeframer, HostDeframer};
use fu_isa::transport::{Endpoint, TransportConfig};
use fu_isa::{DevMsg, HostMsg, Tag};
use fu_rtm::{ActivityMode, CoprocConfig, Coprocessor, FunctionalUnit};
use rtl_sim::area::log2_ceil;
use rtl_sim::{SimError, SimStats};

struct HostPort {
    to_dev: Link,
    to_host: Link,
    /// Frames queued on the host, awaiting link bandwidth.
    tx: VecDeque<u32>,
    /// Device-edge reassembly of this host's messages.
    edge: HostDeframer,
    /// Complete messages awaiting injection into the coprocessor.
    inject: VecDeque<HostMsg>,
    /// Host-side response reassembly.
    rx: DevDeframer,
    /// Fully received responses.
    responses: VecDeque<DevMsg>,
    /// Frames routed to this host, awaiting link bandwidth on the
    /// device side.
    pending_out: VecDeque<u32>,
    /// Reliable endpoints at either end of this port's link pair, `None`
    /// for the bare link. The device-side endpoint lives at the
    /// multi-port transceiver edge — the shared coprocessor stays bare.
    host_ep: Option<Endpoint>,
    dev_ep: Option<Endpoint>,
}

/// `m` host CPUs sharing one coprocessor.
pub struct MultiHostSystem {
    coproc: Coprocessor,
    ports: Vec<HostPort>,
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
        let ports = (0..n_hosts)
            .map(|_| HostPort {
                to_dev: Link::new(link),
                to_host: Link::new(link),
                tx: VecDeque::new(),
                edge: HostDeframer::new(word_bits),
                inject: VecDeque::new(),
                rx: DevDeframer::new(word_bits),
                responses: VecDeque::new(),
                pending_out: VecDeque::new(),
                host_ep: None,
                dev_ep: None,
            })
            .collect();
        Ok(MultiHostSystem {
            coproc: Coprocessor::new(cfg, units)?,
            ports,
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
    /// Same conditions as [`MultiHostSystem::new`].
    pub fn new_reliable(
        cfg: CoprocConfig,
        units: Vec<Box<dyn FunctionalUnit>>,
        link: LinkModel,
        n_hosts: usize,
        transport: TransportConfig,
        faults: Option<FaultModel>,
    ) -> Result<MultiHostSystem, SimError> {
        let mut sys = MultiHostSystem::new(cfg, units, link, n_hosts)?;
        for (i, p) in sys.ports.iter_mut().enumerate() {
            if let Some(m) = faults {
                let stream = |k: u64| {
                    m.with_seed(m.seed ^ (2 * i as u64 + k).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                };
                p.to_dev.install_faults(stream(1));
                p.to_host.install_faults(stream(2));
            }
            p.host_ep = Some(Endpoint::new(transport));
            p.dev_ep = Some(Endpoint::new(transport));
        }
        Ok(sys)
    }

    /// Number of attached hosts.
    pub fn n_hosts(&self) -> usize {
        self.ports.len()
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
    pub fn brand_tag(&self, host: usize, local: Tag) -> Tag {
        let shift = 16 - self.host_bits;
        assert!(
            local < (1 << shift),
            "local tag overflows the per-host space"
        );
        ((host as Tag) << shift) | local
    }

    /// Which host does a branded tag belong to?
    fn tag_host(&self, tag: Tag) -> usize {
        (tag >> (16 - self.host_bits)) as usize % self.ports.len()
    }

    /// Queue a message from `host`. Tagged messages must already carry a
    /// branded tag (see [`MultiHostSystem::brand_tag`]); this method
    /// checks the brand to catch routing bugs early.
    pub fn send(&mut self, host: usize, msg: &HostMsg) {
        let tag = match msg {
            HostMsg::ReadReg { tag, .. }
            | HostMsg::ReadFlags { tag, .. }
            | HostMsg::Sync { tag } => Some(*tag),
            _ => None,
        };
        if let Some(t) = tag {
            assert_eq!(
                self.tag_host(t),
                host,
                "tag {t:#x} is not branded for host {host}"
            );
        }
        self.ports[host].tx.extend(msg.frames(self.word_bits));
    }

    /// Select the coprocessor's scheduling mode (see [`ActivityMode`]).
    pub fn set_activity_mode(&mut self, mode: ActivityMode) {
        self.coproc.set_activity_mode(mode);
    }

    /// Scheduler statistics for the shared coprocessor.
    pub fn sim_stats(&self) -> SimStats {
        self.coproc.sim_stats()
    }

    /// Take the next response for `host`.
    pub fn recv(&mut self, host: usize) -> Option<DevMsg> {
        self.ports[host].responses.pop_front()
    }

    /// Advance one FPGA clock cycle.
    pub fn step(&mut self) {
        let now = self.cycle;
        // Host side: inject queued frames into each host's link. A
        // reliable port feeds its endpoint, which paces the wire.
        for p in &mut self.ports {
            if let Some(ep) = p.host_ep.as_mut() {
                ep.poll(now);
                while let Some(f) = p.tx.pop_front() {
                    ep.send(f);
                }
                while p.to_dev.can_send(now) {
                    let Some(f) = ep.pull_frame(now) else {
                        break;
                    };
                    p.to_dev.send(now, f);
                }
            } else {
                while !p.tx.is_empty() && p.to_dev.can_send(now) {
                    let f = p.tx.pop_front().expect("checked non-empty");
                    p.to_dev.send(now, f);
                }
            }
        }
        // Device edge: reassemble per-host messages (through the
        // device-side endpoint when the port is reliable).
        for p in &mut self.ports {
            if let Some(ep) = p.dev_ep.as_mut() {
                ep.poll(now);
                while let Some(f) = p.to_dev.recv(now) {
                    ep.on_frame(now, f);
                }
                while let Some(payload) = ep.deliver() {
                    if let Some(msg) = p.edge.push(payload).expect("host frames well-formed") {
                        p.inject.push_back(msg);
                    }
                }
            } else {
                while let Some(f) = p.to_dev.recv(now) {
                    if let Some(msg) = p.edge.push(f).expect("host frames well-formed") {
                        p.inject.push_back(msg);
                    }
                }
            }
        }
        // Message-granular round-robin injection into the coprocessor.
        if self.injecting.is_empty() {
            let n = self.ports.len();
            for i in 0..n {
                let idx = (self.rr + i) % n;
                if let Some(msg) = self.ports[idx].inject.pop_front() {
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
                for frame in msg.frames(self.word_bits) {
                    // Device-side per-host serialisation is modelled as
                    // instantaneous; the per-host link applies its own
                    // latency/bandwidth below.
                    self.ports[host].pending_out.push_back(frame);
                }
            }
        }
        for p in &mut self.ports {
            if let Some(ep) = p.dev_ep.as_mut() {
                while let Some(f) = p.pending_out.pop_front() {
                    ep.send(f);
                }
                while p.to_host.can_send(now) {
                    let Some(f) = ep.pull_frame(now) else {
                        break;
                    };
                    p.to_host.send(now, f);
                }
            } else {
                while !p.pending_out.is_empty() && p.to_host.can_send(now) {
                    let f = p.pending_out.pop_front().expect("checked non-empty");
                    p.to_host.send(now, f);
                }
            }
            if let Some(ep) = p.host_ep.as_mut() {
                while let Some(f) = p.to_host.recv(now) {
                    ep.on_frame(now, f);
                }
                while let Some(payload) = ep.deliver() {
                    if let Some(msg) = p.rx.push(payload).expect("device frames well-formed") {
                        p.responses.push_back(msg);
                    }
                }
            } else {
                while let Some(f) = p.to_host.recv(now) {
                    if let Some(msg) = p.rx.push(f).expect("device frames well-formed") {
                        p.responses.push_back(msg);
                    }
                }
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
        while self.ports[host].responses.is_empty() {
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
        Ok(self.ports[host].responses.pop_front().expect("non-empty"))
    }

    /// Jump over cycles in which nothing can happen (see
    /// [`crate::System`] — same idea, with per-port event sources).
    /// Returns the number of cycles skipped (0 means: step normally).
    fn idle_skip(&mut self, budget: u64) -> u64 {
        // Pending injection work means the device edge does something
        // every cycle — never skip over it.
        if !self.injecting.is_empty() || self.ports.iter().any(|p| !p.inject.is_empty()) {
            return 0;
        }
        let now = self.cycle;
        let skip = self.coproc.skip_to_next_event(budget, || {
            let mut next = None;
            for p in &self.ports {
                match p.next_event(now) {
                    // Work this cycle: no later port can change that.
                    Some(t) if t <= now => return Some(t),
                    Some(t) => next = Some(next.map_or(t, |n: u64| n.min(t))),
                    None => {}
                }
            }
            next
        });
        self.cycle += skip;
        skip
    }

    /// True when no work remains anywhere. Reliable ports must also be
    /// quiescent (all traffic delivered and acknowledged) or dead.
    pub fn is_idle(&self) -> bool {
        self.injecting.is_empty()
            && self.coproc.is_idle()
            && self.ports.iter().all(|p| {
                p.tx.is_empty()
                    && p.inject.is_empty()
                    && p.to_dev.in_flight() == 0
                    && p.to_host.in_flight() == 0
                    && p.pending_out.is_empty()
                    && p.endpoints().all(|ep| ep.is_quiescent() || ep.is_dead())
            })
    }

    /// Aggregate reliability statistics for one port: injected faults on
    /// both link directions plus transport counters from both endpoints.
    pub fn link_stats(&self, host: usize) -> LinkStats {
        let p = &self.ports[host];
        let mut s = LinkStats::default();
        s.add_faults(&p.to_dev.fault_stats());
        s.add_faults(&p.to_host.fault_stats());
        for ep in p.endpoints() {
            s.add_transport(ep.stats());
        }
        s
    }
}

impl HostPort {
    fn endpoints(&self) -> impl Iterator<Item = &Endpoint> {
        [self.host_ep.as_ref(), self.dev_ep.as_ref()]
            .into_iter()
            .flatten()
    }

    /// This port's earliest pending event: a frame arriving on either
    /// link, a bandwidth gate reopening with frames queued behind it, or
    /// an endpoint's retransmit deadline. An endpoint with frames to push
    /// or deliver has work this cycle, which is an event at `now`.
    fn next_event(&self, now: u64) -> Option<u64> {
        // Plain branches rather than an iterator chain: this runs on every
        // scheduling decision of an idle multi-host system.
        let mut next = None;
        let mut consider = |t: u64| next = Some(next.map_or(t, |n: u64| n.min(t)));
        for ep in self.endpoints() {
            if ep.has_tx_work() || ep.has_deliverable() {
                return Some(now);
            }
            if let Some(t) = ep.next_event_cycle() {
                consider(t);
            }
        }
        if !self.tx.is_empty() {
            consider(self.to_dev.next_send_cycle());
        }
        if let Some(t) = self.to_dev.next_event_cycle(now) {
            consider(t);
        }
        if !self.pending_out.is_empty() {
            consider(self.to_host.next_send_cycle());
        }
        if let Some(t) = self.to_host.next_event_cycle(now) {
            consider(t);
        }
        next
    }
}
