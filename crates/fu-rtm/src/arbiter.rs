//! The write arbiter.
//!
//! Figure 4 shows the *Write Arbiter* between the functional units and the
//! register files: units assert `data_ready` with their results and
//! destination register numbers; the arbiter grants acknowledgements,
//! writes the results, and releases the corresponding locks. Because units
//! finish in their own time, completions — and hence register-file
//! writes — happen **out of order**; the lock manager keeps that invisible
//! to the architectural state.
//!
//! The arbiter grants in round-robin order, up to the configured number of
//! completions per cycle, with a total data-write budget equal to the
//! register file's write ports ("up to two results may be loaded into the
//! register file"). Lock releases are registered: a lock drops one cycle
//! after the write is staged, so a consumer dispatched in the release
//! cycle reads the committed value. (The execution stage's high-priority
//! write port lives in [`crate::execute`]; it targets registers the lock
//! manager guarantees are disjoint from the arbiter's.)

use crate::flagfile::FlagFile;
use crate::lock::LockManager;
use crate::protocol::{FunctionalUnit, LockTicket};
use crate::regfile::RegFile;
use rtl_sim::{SatCounter, StallCause, TraceBuffer, TraceEventKind};

/// The write-arbiter stage.
#[derive(Debug, Clone)]
pub struct WriteArbiter {
    data_ports: u8,
    rr_ptr: usize,
    pending_release: Vec<LockTicket>,
    /// `(unit index, ticket, dispatch seq)` of each grant made by the
    /// most recent `eval` — consumed by the dispatch watchdog to retire
    /// outstanding work and by the latency profiler. Cleared at the start
    /// of every `eval`.
    acked: Vec<(usize, LockTicket, u64)>,
    completions: SatCounter,
    data_writes: SatCounter,
    flag_writes: SatCounter,
    contended_cycles: SatCounter,
}

impl WriteArbiter {
    /// An arbiter with `data_ports` register-file write ports per cycle.
    pub fn new(data_ports: u8) -> WriteArbiter {
        assert!(data_ports >= 1, "arbiter needs at least one write port");
        WriteArbiter {
            data_ports,
            rr_ptr: 0,
            pending_release: Vec::with_capacity(4),
            acked: Vec::with_capacity(4),
            completions: SatCounter::default(),
            data_writes: SatCounter::default(),
            flag_writes: SatCounter::default(),
            contended_cycles: SatCounter::default(),
        }
    }

    /// One evaluate phase: release last cycle's locks, then grant
    /// acknowledgements round-robin while port budget remains.
    ///
    /// `active`, when given, marks the units that may hold work; units
    /// outside the mask are skipped without touching them. Skipping is
    /// behaviour-identical to scanning, because an inactive unit is idle
    /// and an idle unit has no output to grant — the mask only saves the
    /// virtual `peek_output` calls on a large, mostly-idle unit roster.
    #[allow(clippy::too_many_arguments)] // the stage's port list, as in hardware
    pub fn eval(
        &mut self,
        fus: &mut [Box<dyn FunctionalUnit>],
        regfile: &mut RegFile,
        flagfile: &mut FlagFile,
        lock: &mut LockManager,
        active: Option<&[bool]>,
        cycle: u64,
        trace: &mut TraceBuffer,
    ) {
        for t in self.pending_release.drain(..) {
            trace.record(
                cycle,
                TraceEventKind::LockRelease {
                    data: t.data,
                    flag: t.flag,
                },
            );
            lock.release(&t);
        }
        self.acked.clear();
        let n = fus.len();
        if n == 0 {
            return;
        }
        let mut budget = self.data_ports as i32;
        let mut granted_any = false;
        let mut denied_any = false;
        let mut next_ptr = self.rr_ptr;
        // Round robin from the pointer to the end, then wrap: no division
        // per unit. (A pointer past a shorter roster wraps as `%` would.)
        let start = if self.rr_ptr < n {
            self.rr_ptr
        } else {
            self.rr_ptr % n
        };
        for idx in (start..n).chain(0..start) {
            if active.is_some_and(|a| !a[idx]) {
                debug_assert!(
                    fus[idx].peek_output().is_none(),
                    "inactive unit held output"
                );
                continue;
            }
            let Some(out) = fus[idx].peek_output() else {
                continue;
            };
            let cost = out.data.is_some() as i32 + out.data2.is_some() as i32;
            if budget <= 0 || cost > budget {
                denied_any = true;
                continue;
            }
            budget -= cost.max(1); // even a flag-only completion occupies a grant slot
            let out = fus[idx].ack_output();
            trace.record(
                cycle,
                TraceEventKind::ArbGrant {
                    unit: idx as u8,
                    data_writes: cost as u8,
                },
            );
            trace.record(
                cycle,
                TraceEventKind::FuRetire {
                    unit: idx as u8,
                    seq: out.seq,
                },
            );
            if let Some((r, v)) = out.data {
                regfile.write(r, v);
                self.data_writes.bump();
            }
            if let Some((r, v)) = out.data2 {
                regfile.write(r, v);
                self.data_writes.bump();
            }
            if let Some((r, f)) = out.flags {
                flagfile.write(r, f);
                self.flag_writes.bump();
            }
            self.pending_release.push(out.ticket);
            self.acked.push((idx, out.ticket, out.seq));
            self.completions.bump();
            granted_any = true;
            next_ptr = if idx + 1 == n { 0 } else { idx + 1 };
        }
        if granted_any {
            self.rr_ptr = next_ptr;
        }
        if denied_any {
            self.contended_cycles.bump();
            trace.record(
                cycle,
                TraceEventKind::StageStall {
                    stage: "arbiter",
                    cause: StallCause::WritePort,
                },
            );
        }
    }

    /// True when no lock release is still pending.
    pub fn is_idle(&self) -> bool {
        self.pending_release.is_empty()
    }

    /// Grants made by the most recent `eval`: `(unit index, ticket,
    /// dispatch seq)`. Only meaningful immediately after an `eval` — the
    /// list is rebuilt each evaluation.
    pub fn acked(&self) -> &[(usize, LockTicket, u64)] {
        &self.acked
    }

    /// `(completions, data writes, flag writes, contended cycles)` since
    /// reset.
    pub fn counters(&self) -> (u64, u64, u64, u64) {
        (
            self.completions.get(),
            self.data_writes.get(),
            self.flag_writes.get(),
            self.contended_cycles.get(),
        )
    }

    /// Return to the power-on state.
    pub fn reset(&mut self) {
        self.rr_ptr = 0;
        self.pending_release.clear();
        self.acked.clear();
        self.completions = SatCounter::default();
        self.data_writes = SatCounter::default();
        self.flag_writes = SatCounter::default();
        self.contended_cycles = SatCounter::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{AuxRole, DispatchPacket, FuOutput};
    use fu_isa::{Flags, Word};
    use rtl_sim::{AreaEstimate, Clocked, CriticalPath};

    /// A unit whose output queue is scripted by the test.
    struct Scripted {
        out: std::collections::VecDeque<FuOutput>,
    }

    impl Scripted {
        fn boxed(outs: Vec<FuOutput>) -> Box<dyn FunctionalUnit> {
            Box::new(Scripted { out: outs.into() })
        }
    }

    impl Clocked for Scripted {
        fn commit(&mut self) {}
        fn reset(&mut self) {}
    }

    impl FunctionalUnit for Scripted {
        fn name(&self) -> &'static str {
            "scripted"
        }
        fn func_code(&self) -> u8 {
            0
        }
        fn aux_role(&self) -> AuxRole {
            AuxRole::Unused
        }
        fn can_dispatch(&self) -> bool {
            false
        }
        fn dispatch(&mut self, _p: DispatchPacket) {
            unreachable!()
        }
        fn peek_output(&self) -> Option<&FuOutput> {
            self.out.front()
        }
        fn ack_output(&mut self) -> FuOutput {
            self.out.pop_front().expect("ack without output")
        }
        fn is_idle(&self) -> bool {
            self.out.is_empty()
        }
        fn area(&self) -> AreaEstimate {
            AreaEstimate::ZERO
        }
        fn critical_path(&self) -> CriticalPath {
            CriticalPath::of(0)
        }
    }

    fn out(reg: u8, val: u64, flag: Option<u8>) -> FuOutput {
        FuOutput {
            data: Some((reg, Word::from_u64(val, 32))),
            data2: None,
            flags: flag.map(|f| (f, Flags::CARRY)),
            ticket: LockTicket::new(Some(reg), None, flag),
            seq: 0,
        }
    }

    fn setup(n_regs: u16) -> (RegFile, FlagFile, LockManager) {
        (
            RegFile::new(n_regs, 32),
            FlagFile::new(8),
            LockManager::new(n_regs, 8),
        )
    }

    #[test]
    fn completion_writes_and_releases_one_cycle_later() {
        let (mut rf, mut ff, mut lm) = setup(8);
        let ticket = LockTicket::new(Some(3), None, Some(1));
        lm.acquire(&ticket);
        let mut fus = vec![Scripted::boxed(vec![out(3, 99, Some(1))])];
        let mut arb = WriteArbiter::new(2);

        arb.eval(
            &mut fus,
            &mut rf,
            &mut ff,
            &mut lm,
            None,
            0,
            &mut TraceBuffer::disabled(),
        );
        assert!(
            lm.data_locked(3),
            "release must be registered, not combinational"
        );
        rf.commit();
        ff.commit();
        assert_eq!(rf.peek(3).as_u64(), 99);
        assert_eq!(ff.peek(1), Flags::CARRY);

        arb.eval(
            &mut fus,
            &mut rf,
            &mut ff,
            &mut lm,
            None,
            0,
            &mut TraceBuffer::disabled(),
        );
        assert!(
            !lm.data_locked(3),
            "lock drops the cycle after the write commits"
        );
        assert!(lm.quiescent());
        assert_eq!(arb.counters().0, 1);
    }

    #[test]
    fn round_robin_is_fair_under_contention() {
        let (mut rf, mut ff, mut lm) = setup(16);
        // Three units, each with two completions; one grant per cycle.
        let mut fus: Vec<Box<dyn FunctionalUnit>> = (0..3u8)
            .map(|u| {
                let r1 = 2 * u + 1;
                let r2 = 2 * u + 2;
                lm.acquire(&LockTicket::new(Some(r1), None, None));
                lm.acquire(&LockTicket::new(Some(r2), None, None));
                Scripted::boxed(vec![out(r1, u as u64, None), out(r2, u as u64, None)])
            })
            .collect();
        let mut arb = WriteArbiter::new(1);
        // After three single-grant cycles, round-robin must have served
        // each unit exactly once (one completion left per unit).
        for _ in 0..3 {
            arb.eval(
                &mut fus,
                &mut rf,
                &mut ff,
                &mut lm,
                None,
                0,
                &mut TraceBuffer::disabled(),
            );
            rf.commit();
        }
        for f in &fus {
            assert!(
                f.peek_output().is_some() && !f.is_idle(),
                "each unit should have exactly its second completion left"
            );
        }
        for _ in 0..3 {
            arb.eval(
                &mut fus,
                &mut rf,
                &mut ff,
                &mut lm,
                None,
                0,
                &mut TraceBuffer::disabled(),
            );
            rf.commit();
        }
        assert_eq!(arb.counters().0, 6, "all completions eventually drain");
        assert!(fus.iter().all(|f| f.is_idle()));
    }

    #[test]
    fn port_budget_limits_completions_per_cycle() {
        let (mut rf, mut ff, mut lm) = setup(16);
        let mut fus: Vec<Box<dyn FunctionalUnit>> = (0..4u8)
            .map(|u| {
                lm.acquire(&LockTicket::new(Some(u + 1), None, None));
                Scripted::boxed(vec![out(u + 1, 7, None)])
            })
            .collect();
        let mut arb = WriteArbiter::new(2);
        arb.eval(
            &mut fus,
            &mut rf,
            &mut ff,
            &mut lm,
            None,
            0,
            &mut TraceBuffer::disabled(),
        );
        assert_eq!(arb.counters().0, 2, "only two grants fit the port budget");
        assert_eq!(arb.counters().3, 1, "contention recorded");
        arb.eval(
            &mut fus,
            &mut rf,
            &mut ff,
            &mut lm,
            None,
            0,
            &mut TraceBuffer::disabled(),
        );
        assert_eq!(arb.counters().0, 4);
    }

    #[test]
    fn dual_result_completion_consumes_two_ports() {
        let (mut rf, mut ff, mut lm) = setup(16);
        let dual = FuOutput {
            data: Some((1, Word::from_u64(1, 32))),
            data2: Some((2, Word::from_u64(2, 32))),
            flags: None,
            ticket: LockTicket::new(Some(1), Some(2), None),
            seq: 0,
        };
        lm.acquire(&dual.ticket);
        lm.acquire(&LockTicket::new(Some(3), None, None));
        let mut fus = vec![
            Scripted::boxed(vec![dual]),
            Scripted::boxed(vec![out(3, 3, None)]),
        ];
        let mut arb = WriteArbiter::new(2);
        arb.eval(
            &mut fus,
            &mut rf,
            &mut ff,
            &mut lm,
            None,
            0,
            &mut TraceBuffer::disabled(),
        );
        // The dual-result completion uses both ports; the second unit waits.
        assert_eq!(arb.counters().0, 1);
        assert_eq!(arb.counters().1, 2);
        arb.eval(
            &mut fus,
            &mut rf,
            &mut ff,
            &mut lm,
            None,
            0,
            &mut TraceBuffer::disabled(),
        );
        assert_eq!(arb.counters().0, 2);
        rf.commit();
        assert_eq!(rf.peek(1).as_u64(), 1);
        assert_eq!(rf.peek(2).as_u64(), 2);
        assert_eq!(rf.peek(3).as_u64(), 3);
    }

    #[test]
    fn flag_only_completion_unlocks_destinations() {
        // A compare writes no data register but must still release its
        // (flag) lock.
        let (mut rf, mut ff, mut lm) = setup(8);
        let cmp = FuOutput {
            data: None,
            data2: None,
            flags: Some((2, Flags::ZERO)),
            ticket: LockTicket::new(None, None, Some(2)),
            seq: 0,
        };
        lm.acquire(&cmp.ticket);
        let mut fus = vec![Scripted::boxed(vec![cmp])];
        let mut arb = WriteArbiter::new(2);
        arb.eval(
            &mut fus,
            &mut rf,
            &mut ff,
            &mut lm,
            None,
            0,
            &mut TraceBuffer::disabled(),
        );
        ff.commit();
        arb.eval(
            &mut fus,
            &mut rf,
            &mut ff,
            &mut lm,
            None,
            0,
            &mut TraceBuffer::disabled(),
        );
        assert!(lm.quiescent());
        assert_eq!(ff.peek(2), Flags::ZERO);
        assert_eq!(arb.counters(), (1, 0, 1, 0));
    }

    #[test]
    fn empty_unit_list_is_a_noop() {
        let (mut rf, mut ff, mut lm) = setup(8);
        let mut arb = WriteArbiter::new(2);
        let mut fus: Vec<Box<dyn FunctionalUnit>> = vec![];
        arb.eval(
            &mut fus,
            &mut rf,
            &mut ff,
            &mut lm,
            None,
            0,
            &mut TraceBuffer::disabled(),
        );
        assert!(arb.is_idle());
    }
}
