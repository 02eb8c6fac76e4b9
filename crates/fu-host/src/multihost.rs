//! Multiple host CPUs sharing one coprocessor (paper Figure 1.1).
//!
//! "The main purpose of the presented framework is to facilitate the
//! development of FPGA based coprocessors by providing a common interface
//! to hardware accelerators **accessible by one or more host CPUs**
//! running standard software." The figure shows CPU #1 … CPU #m attached
//! to the single generic interface.
//!
//! [`MultiHostSystem`] is a [`System`] with `m` host ports and a call per
//! host; it dereferences to the [`System`] for everything else. Responses
//! are routed by tag: the top [`MultiHostSystem::host_bits`] bits of
//! every tag carry the issuing host's index, a convention the per-host
//! drivers enforce. Error responses carry no tag and go to host 0, the
//! management CPU, except the answer to a malformed header frame, which
//! goes back to the host that sent it.

use std::ops::{Deref, DerefMut};

use crate::link::{FaultModel, LinkModel, LinkStats};
use crate::System;
use fu_isa::transport::TransportConfig;
use fu_isa::{DevMsg, HostMsg, Tag};
use fu_rtm::{CoprocConfig, FunctionalUnit};
use rtl_sim::{SimError, TraceBuffer};

/// `m` host CPUs sharing one coprocessor.
pub struct MultiHostSystem(System);

impl MultiHostSystem {
    /// Assemble a system with `n_hosts` identical links.
    ///
    /// # Errors
    /// Propagates configuration errors; rejects `n_hosts == 0` and hosts
    /// beyond the tag space.
    pub fn new(
        cfg: CoprocConfig,
        units: Vec<Box<dyn FunctionalUnit>>,
        link: LinkModel,
        n_hosts: usize,
    ) -> Result<MultiHostSystem, SimError> {
        System::assemble(cfg, units, link, n_hosts, None, None).map(MultiHostSystem)
    }

    /// Assemble a system with the reliable transport on every host port,
    /// optionally with fault injection: every port and direction draws its
    /// own fault stream from the model's seed, host 0 a one-host
    /// [`System`]'s.
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
        System::assemble(cfg, units, link, n_hosts, Some(transport), faults).map(MultiHostSystem)
    }

    /// Tag bits reserved for the host index.
    pub fn host_bits(&self) -> u32 {
        self.0.host_bits
    }

    /// Brand a host-local tag with the host index (drivers use this for
    /// every tagged request).
    ///
    /// # Panics
    /// When `host` is not an attached host or `local` overflows the
    /// per-host tag space.
    pub fn brand_tag(&self, host: usize, local: Tag) -> Tag {
        assert!(host < self.0.hosts.len(), "no host {host}");
        let shift = 16 - self.host_bits();
        assert!(
            local < (1 << shift),
            "local tag overflows the per-host space"
        );
        ((host as Tag) << shift) | local
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
                usize::from(t >> (16 - self.host_bits())),
                host,
                "tag {t:#x} is not branded for host {host}"
            );
        }
        self.0.send_from(host, msg);
    }

    /// Take the next response for `host`.
    pub fn recv(&mut self, host: usize) -> Option<DevMsg> {
        self.0.take(host)
    }

    /// Step until `host` has a response, with a cycle budget.
    ///
    /// # Errors
    /// [`SimError::Timeout`] when the budget runs out.
    pub fn recv_blocking(&mut self, host: usize, max_cycles: u64) -> Result<DevMsg, SimError> {
        self.run_until(max_cycles, |s| !s.hosts[host].responses.is_empty())?;
        Ok(self.recv(host).expect("predicate guaranteed"))
    }

    /// Aggregate reliability statistics for one port: injected faults on
    /// both link directions plus transport counters from both endpoints.
    pub fn link_stats(&self, host: usize) -> LinkStats {
        self.0.hosts[host].port.link_stats()
    }

    /// `host`'s link trace (host 0's also holds the rollbacks).
    pub fn link_trace(&self, host: usize) -> &TraceBuffer {
        &self.0.traces[host]
    }
}

/// The whole-system calls (`step`, `run_until`, `is_idle`, recovery, …).
impl Deref for MultiHostSystem {
    type Target = System;

    fn deref(&self) -> &System {
        &self.0
    }
}

impl DerefMut for MultiHostSystem {
    fn deref_mut(&mut self) -> &mut System {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fu_isa::msg::ErrorCode;
    use fu_rtm::testing::LatencyFu;

    #[test]
    fn malformed_host_frames_are_answered_in_band_to_their_host() {
        let units: Vec<Box<dyn FunctionalUnit>> = vec![Box::new(LatencyFu::new("add", 1, 1))];
        let link = LinkModel::tightly_coupled();
        let mut s = MultiHostSystem::new(CoprocConfig::default(), units, link, 2).unwrap();
        s.0.hosts[1].port.to_dev.send(0, 0xee00_0000); // no host message has type 0xee
        let tag = s.brand_tag(1, 5);
        s.send(1, &HostMsg::Sync { tag });
        let bad = DevMsg::Error {
            code: ErrorCode::BadFrame,
            info: 0xee00_0000,
        };
        assert_eq!(s.recv_blocking(1, 10_000).unwrap(), bad);
        assert_eq!(s.recv_blocking(1, 10_000).unwrap(), DevMsg::SyncAck { tag });
        s.run_until(10_000, |s| s.is_idle()).unwrap();
        assert_eq!(s.recv(0), None, "only the sending host hears of it");
    }
}
