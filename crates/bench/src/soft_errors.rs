//! Soft-error resilience sweep (experiment E16): what each protection
//! tier costs, and what it buys, as device-state upsets get more frequent.
//!
//! The wire sweep (E12, `faults.rs`) measures the reliable transport
//! against link faults; this is its device-state counterpart. The same
//! dependent-add batch runs while the seeded SEU model flips bits in
//! register files, result latches and scoreboard tickets, under four
//! protection tiers — no protection, parity-only detection, DMR with
//! checkpoint rollback, and TMR with rollback — across a grid of strike
//! rates and checkpoint intervals. A run *completes* when its response
//! stream is bit-identical to the fault-free reference of the same
//! machine; everything else (silent corruption, in-band `SoftError`s,
//! a blown cycle budget) counts as a miss. The smoke's deterministic
//! counters, from one protected run and one farm-failover run, head
//! `BENCH_soft_errors.json`.

use fu_host::{Farm, FarmConfig, Job, LinkModel, System};
use fu_isa::{DevMsg, HostMsg, InstrWord, UserInstr, Word};
use fu_rtm::testing::{LatencyFu, PoisonFu};
use fu_rtm::{CoprocConfig, FunctionalUnit, Redundancy, SeuConfig};
use rtl_sim::RecoveryStats;

use crate::report::Obj;

/// Cycle budget for one sweep point; an expiry is scored as a miss, not
/// a panic — an unprotected machine is allowed to wedge.
const POINT_BUDGET: u64 = 20_000_000;

/// The protection tiers E16 compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protection {
    /// Bare machine: strikes land silently.
    None,
    /// Parity on the register/flag files; upsets are detected on read
    /// and surfaced as in-band `SoftError`s, but nothing recovers.
    ParityOnly,
    /// Parity + dual modular redundancy + checkpoint rollback: every
    /// detected upset triggers a deterministic replay.
    DmrRollback,
    /// Parity + triple modular redundancy + checkpoint rollback: latch
    /// upsets are outvoted in place, rollback covers the rest.
    TmrRollback,
}

impl Protection {
    /// Sweep order, weakest first.
    pub const ALL: [Protection; 4] = [
        Protection::None,
        Protection::ParityOnly,
        Protection::DmrRollback,
        Protection::TmrRollback,
    ];

    /// Stable label for tables and JSON.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Protection::None => "none",
            Protection::ParityOnly => "parity",
            Protection::DmrRollback => "dmr+rollback",
            Protection::TmrRollback => "tmr+rollback",
        }
    }

    /// Whether this tier arms checkpoint/rollback recovery.
    #[must_use]
    pub fn recovers(self) -> bool {
        matches!(self, Protection::DmrRollback | Protection::TmrRollback)
    }

    fn apply(self, cfg: CoprocConfig) -> CoprocConfig {
        match self {
            Protection::None => cfg,
            Protection::ParityOnly => cfg.with_parity(),
            Protection::DmrRollback => cfg.with_parity().with_redundancy(Redundancy::Dmr),
            Protection::TmrRollback => cfg.with_parity().with_redundancy(Redundancy::Tmr),
        }
    }
}

/// One sweep point's outcome.
#[derive(Debug, Clone)]
pub struct SoftRun {
    /// Whether the system drained to idle within the cycle budget.
    pub drained: bool,
    /// FPGA cycles until idle (the budget, when `!drained`).
    pub cycles: u64,
    /// Every response the host received, in order.
    pub responses: Vec<DevMsg>,
    /// SEU / rollback accounting for the run.
    pub recovery: RecoveryStats,
}

fn dependent_add() -> HostMsg {
    HostMsg::Instr(InstrWord::user(UserInstr {
        func: 1,
        variety: 0,
        dst_flag: 1,
        dst_reg: 2,
        aux_reg: 0,
        src1: 2,
        src2: 1,
        src3: 0,
    }))
}

/// Run the E16 workload — `n_adds` dependent adds with a read-back every
/// eight, then a final read and sync — on a machine with the given
/// protection tier and optional SEU schedule.
///
/// `ckpt_interval` is the checkpoint cadence in retired instructions;
/// ignored by tiers without recovery. The fault-free reference for a
/// tier is the same call with `seu: None`.
///
/// # Panics
/// On an invalid machine configuration (a harness bug, not a measured
/// outcome).
#[must_use]
pub fn resilience_run(
    protection: Protection,
    seu: Option<SeuConfig>,
    ckpt_interval: u64,
    n_adds: usize,
) -> SoftRun {
    let mut cfg = protection.apply(CoprocConfig::default());
    if let Some(seu) = seu {
        cfg = cfg.with_seu(seu);
    }
    let units: Vec<Box<dyn FunctionalUnit>> = vec![Box::new(LatencyFu::new("add", 1, 3))];
    let mut sys = System::new(cfg, units, LinkModel::pcie_like()).expect("valid E16 config");
    if protection.recovers() {
        sys.enable_recovery(ckpt_interval)
            .expect("LatencyFu is clone-capable");
    }

    sys.send(&HostMsg::WriteReg {
        reg: 1,
        value: Word::from_u64(3, 32),
    });
    sys.send(&HostMsg::WriteReg {
        reg: 2,
        value: Word::from_u64(0, 32),
    });
    let mut tag = 0u16;
    for i in 0..n_adds {
        sys.send(&dependent_add());
        if i % 8 == 7 {
            sys.send(&HostMsg::ReadReg { reg: 2, tag });
            tag += 1;
        }
    }
    sys.send(&HostMsg::ReadReg { reg: 2, tag });
    sys.send(&HostMsg::Sync { tag: tag + 1 });

    let drained = sys.run_until(POINT_BUDGET, System::is_idle).is_ok();
    SoftRun {
        drained,
        cycles: sys.cycle(),
        responses: std::iter::from_fn(|| sys.recv()).collect(),
        recovery: sys.recovery_stats(),
    }
}

/// Fixed seed for the CI soft-error smoke.
pub const SMOKE_SEED: u64 = 0x0E16_5EED;
/// Strike interval for the smoke: hot enough to force several strikes
/// and at least one rollback in a short run.
pub const SMOKE_INTERVAL: u64 = 50;
/// Checkpoint cadence (instructions) for the smoke.
pub const SMOKE_CKPT: u64 = 8;
/// Adds in the smoke workload.
pub const SMOKE_ADDS: usize = 192;

/// Run the CI soft-error smoke and distil its deterministic counters: a
/// protected `System` run's strikes, detections, corrections and
/// rollbacks, and the jobs a farm failed over from a poisoned shard.
///
/// # Panics
/// When the protected run diverges from its fault-free reference, or a
/// failed-over job still errors — either is a resilience regression that
/// must fail the build outright, not just drift a counter.
pub fn soft_error_smoke() -> Obj {
    // Protected System run: DMR + rollback must reproduce the fault-free
    // stream bit for bit.
    let clean = resilience_run(Protection::DmrRollback, None, SMOKE_CKPT, SMOKE_ADDS);
    let faulty = resilience_run(
        Protection::DmrRollback,
        Some(SeuConfig::all(SMOKE_SEED, SMOKE_INTERVAL)),
        SMOKE_CKPT,
        SMOKE_ADDS,
    );
    assert!(clean.drained && faulty.drained, "E16 smoke failed to drain");
    assert_eq!(
        clean.responses, faulty.responses,
        "E16 smoke: protected run diverged from the fault-free reference"
    );

    // Farm failover run: one poisoned shard, jobs retried elsewhere.
    let mut farm = Farm::new(
        FarmConfig {
            shards: 3,
            seed: SMOKE_SEED,
            max_job_retries: 2,
            ..FarmConfig::default()
        },
        |ctx| {
            let trigger = (ctx.index == 1).then_some(0xDEAD);
            System::new(
                CoprocConfig::default(),
                vec![Box::new(PoisonFu::new("poison", 1, 1, trigger))],
                LinkModel::ideal(),
            )
        },
    );
    let jobs: Vec<Job> = (0..9)
        .map(|i| {
            Job::Requests(vec![
                HostMsg::WriteReg {
                    reg: 1,
                    value: Word::from_u64(0xDEAD, 32),
                },
                HostMsg::Instr(InstrWord::user(UserInstr {
                    func: 1,
                    variety: 0,
                    dst_flag: 1,
                    dst_reg: 3,
                    aux_reg: 0,
                    src1: 1,
                    src2: 1,
                    src3: 0,
                })),
                HostMsg::ReadReg {
                    reg: 3,
                    tag: i as u16,
                },
            ])
        })
        .collect();
    // The poison panics are the point of this run; keep their backtraces
    // out of the CI log (the farm catches and converts every one).
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let results = farm.run_serial(&jobs);
    std::panic::set_hook(hook);
    let results = results.expect("farm smoke run");
    for r in &results {
        assert!(
            r.output.is_ok(),
            "E16 smoke: job {} still failed after failover: {:?}",
            r.job,
            r.output
        );
    }
    let farm_stats = farm.sim_stats();

    let r = &faulty.recovery;
    Obj::default()
        .val("seus_injected", r.seus_injected)
        .val("seus_detected", r.seus_detected)
        .val("seus_corrected", r.seus_corrected)
        .val("rollbacks", r.rollbacks)
        .val("jobs_failed_over", farm_stats.recovery.jobs_failed_over)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protected_tiers_reproduce_the_fault_free_stream() {
        let seu = SeuConfig::all(0xE16, 120);
        for p in [Protection::DmrRollback, Protection::TmrRollback] {
            let clean = resilience_run(p, None, 8, 128);
            let faulty = resilience_run(p, Some(seu), 8, 128);
            assert!(clean.drained && faulty.drained);
            assert_eq!(clean.responses, faulty.responses, "{} diverged", p.label());
            assert!(faulty.recovery.seus_injected > 0, "no strikes landed");
        }
    }

    #[test]
    fn smoke_counters_are_deterministic() {
        assert_eq!(soft_error_smoke().render(0), soft_error_smoke().render(0));
    }
}
