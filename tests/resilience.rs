//! Acceptance properties for the soft-error resilience layer: under
//! random seeds, survivable strike rates and every activity mode, a
//! protected machine (parity + redundant execution + checkpoint
//! rollback) must be indistinguishable from a fault-free one — same
//! responses, same cycle count, same link statistics, same latency
//! percentiles — and a farm whose shard panics must finish every job on
//! the healthy shards with `run_parallel` bit-identical to `run_serial`.

mod util;

use fu_host::{Farm, FarmConfig, Job, JobOutput, LinkModel, System};
use fu_isa::{DevMsg, HostMsg, InstrWord, UserInstr, Word};
use fu_rtm::testing::{LatencyFu, PoisonFu};
use fu_rtm::{ActivityMode, CoprocConfig, FunctionalUnit, Redundancy, SeuConfig};
use proptest::prelude::*;

const MODES: [ActivityMode; 2] = [ActivityMode::Scheduled, ActivityMode::Exhaustive];

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

/// Everything an application could observe about a finished run.
#[derive(Debug, PartialEq)]
struct Observation {
    responses: Vec<DevMsg>,
    cycles: u64,
    link: fu_host::LinkStats,
    latency: rtl_sim::LatencySnapshot,
}

/// Run the dependent-add workload on a protected machine and capture
/// every application-visible observable.
fn protected_run(
    redundancy: Redundancy,
    seu: Option<SeuConfig>,
    ckpt_interval: u64,
    mode: ActivityMode,
    n_adds: usize,
) -> Observation {
    let mut cfg = CoprocConfig::default()
        .with_parity()
        .with_redundancy(redundancy);
    if let Some(seu) = seu {
        cfg = cfg.with_seu(seu);
    }
    let units: Vec<Box<dyn FunctionalUnit>> = vec![Box::new(LatencyFu::new("add", 1, 3))];
    let mut sys = System::new(cfg, units, LinkModel::pcie_like()).expect("valid config");
    sys.set_activity_mode(mode);
    sys.enable_recovery(ckpt_interval)
        .expect("LatencyFu is clone-capable");

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
    util::settle(&mut sys, 40_000_000);
    Observation {
        responses: std::iter::from_fn(|| sys.recv()).collect(),
        cycles: sys.cycle(),
        link: sys.link_stats(),
        latency: sys.sim_stats().latency_snapshot(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The resilience contract: at survivable strike rates, a protected
    /// run is bit-identical to the fault-free run — responses, final
    /// cycle count (rollback rewinds the clock it replays), link stats
    /// and latency percentiles — in both activity modes.
    #[test]
    fn protected_run_is_bit_identical_to_fault_free(
        seed in any::<u64>(),
        mean in 60u64..=600,
        ckpt in 2u64..=32,
        n in 8usize..=48,
        tmr in any::<bool>(),
    ) {
        let red = if tmr { Redundancy::Tmr } else { Redundancy::Dmr };
        let clean = protected_run(red, None, ckpt, ActivityMode::Scheduled, n);
        for mode in MODES {
            let faulty = protected_run(red, Some(SeuConfig::all(seed, mean)), ckpt, mode, n);
            prop_assert_eq!(
                &clean, &faulty,
                "protected {:?} run diverged from fault-free (seed {:#x}, mean {})",
                mode, seed, mean
            );
        }
    }
}

/// Jobs whose arithmetic trips the poison trigger on the armed shard.
fn poison_jobs(n: usize) -> Vec<Job> {
    (0..n)
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
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Shard failover extends the farm determinism property: with one
    /// shard armed to panic mid-job, every job still completes (retried
    /// on a healthy shard), the parallel run is bit-identical to the
    /// serial one, and the failover accounting matches the number of
    /// jobs that were homed on the poisoned shard.
    #[test]
    fn poisoned_shard_jobs_complete_on_healthy_shards(
        shards in 2usize..=5,
        poison_pick in 0usize..=4,
        n_jobs in 4usize..=16,
        mode_idx in 0usize..2,
    ) {
        let poison = poison_pick % shards;
        let cfg = FarmConfig {
            shards,
            max_job_retries: 2,
            activity_mode: MODES[mode_idx],
            ..FarmConfig::default()
        };
        let build = move |ctx: &fu_host::ShardCtx| {
            let trigger = (ctx.index == poison).then_some(0xDEAD);
            System::new(
                CoprocConfig::default(),
                vec![Box::new(PoisonFu::new("poison", 1, 1, trigger)) as Box<dyn FunctionalUnit>],
                LinkModel::ideal(),
            )
        };
        let jobs = poison_jobs(n_jobs);

        let mut farm = Farm::new(cfg, build);
        let serial = farm.run_serial(&jobs).expect("serial run");
        let serial_stats = farm.sim_stats();
        let parallel = farm.run_parallel(&jobs).expect("parallel run");
        let parallel_stats = farm.sim_stats();

        prop_assert_eq!(&serial, &parallel, "failover broke serial/parallel identity");
        prop_assert_eq!(
            serial_stats.recovery.jobs_failed_over,
            parallel_stats.recovery.jobs_failed_over
        );

        let homed_on_poison = (0..n_jobs).filter(|j| j % shards == poison).count() as u64;
        prop_assert_eq!(serial_stats.recovery.jobs_failed_over, homed_on_poison);
        for r in &serial {
            let out = r.output.as_ref().expect("every job completes after failover");
            prop_assert_eq!(
                out,
                &JobOutput::Msgs(vec![DevMsg::Data {
                    tag: r.job as u16,
                    value: Word::from_u64(2 * 0xDEAD, 32),
                }]),
                "job {} produced the wrong answer", r.job
            );
            if r.job % shards == poison {
                prop_assert_ne!(r.shard, poison, "retry landed back on the poisoned shard");
            }
        }
    }
}
