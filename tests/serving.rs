//! The serving layer's contract battery (experiment E17's correctness
//! side): the multi-tenant front-end over the farm must be
//!
//! 1. **deterministic** — the completion stream is a pure function of the
//!    submission sequence: threading (`run_parallel` vs `run_serial`),
//!    activity mode (scheduled / exhaustive) and poll cadence
//!    must all be unobservable, and per-job *results* must not even
//!    depend on the shard count;
//! 2. **fair** — under saturation, each backlogged tenant's dispatched
//!    work share converges to its deficit-round-robin weight share;
//! 3. **shed-safe** — every submitted job is either completed exactly
//!    once, rejected in-band at admission, or cancelled by an explicit
//!    disconnect; nothing is lost or duplicated, even when a poisoned
//!    shard forces failover retries (cross-checked against the farm's
//!    `RecoveryStats`).

use std::collections::HashSet;

use fu_host::serve::workload::{client_job, open_loop, WorkloadSpec};
use fu_host::{
    Admission, Completion, Farm, FarmConfig, JobOutput, LinkModel, Placement, ServeConfig, Service,
    System, TenantSpec,
};
use fu_isa::{DevMsg, HostMsg, InstrWord, UserInstr, Word};
use fu_rtm::testing::PoisonFu;
use fu_rtm::{ActivityMode, CoprocConfig};
use proptest::prelude::*;

fn standard_service(
    shards: usize,
    mode: ActivityMode,
    weights: &[u32],
    cfg: ServeConfig,
) -> Service {
    let farm = Farm::standard(
        FarmConfig {
            shards,
            seed: 0xE17,
            activity_mode: mode,
            placement: Placement::LeastLoaded,
            ..FarmConfig::default()
        },
        CoprocConfig::default(),
        LinkModel::pcie_like(),
    );
    let specs = weights
        .iter()
        .enumerate()
        .map(|(i, &w)| TenantSpec::new(format!("t{i}"), w))
        .collect();
    Service::new(cfg, specs, farm).expect("valid service")
}

/// Feed a workload through a service, polling every `poll_every`
/// submissions (0 = only at the end), and return the full observable
/// outcome: completions in dispatch order plus the shed submission
/// indices.
fn feed(
    svc: &mut Service,
    arrivals: &[fu_host::serve::workload::Arrival],
    poll_every: usize,
) -> (Vec<Completion>, Vec<usize>) {
    let mut done = Vec::new();
    let mut shed = Vec::new();
    for (i, a) in arrivals.iter().enumerate() {
        match svc
            .submit(a.tenant, a.tick, a.job.clone())
            .expect("submit never errors on a healthy farm")
        {
            Admission::Admitted { .. } => {}
            Admission::Overloaded { .. } => shed.push(i),
        }
        if poll_every > 0 && i % poll_every == 0 {
            done.extend(svc.poll());
        }
    }
    done.extend(svc.drain().expect("drain"));
    (done, shed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// At a fixed shard count, the COMPLETE observable outcome —
    /// completion stream (seqs, timestamps, shards, cycles, payloads),
    /// shed decisions, final clock and tenant statistics — is identical
    /// across threading, both activity modes and any poll cadence.
    #[test]
    fn outcome_is_identical_across_modes_threading_and_polling(
        seed: u64,
        shards in 1usize..4,
        poll_every in 0usize..6,
    ) {
        let arrivals = open_loop(&WorkloadSpec {
            clients: 30,
            tenants: 3,
            jobs_per_client: 2,
            mean_gap: 2_500,
            seed,
        });
        let cfg = ServeConfig {
            queue_depth: 6, // small: shedding is part of the outcome
            quantum: 8,
            round_jobs: 16,
            parallel: false,
        };
        let run = |mode: ActivityMode, parallel: bool, poll: usize| {
            let mut svc =
                standard_service(shards, mode, &[1, 2, 4], ServeConfig { parallel, ..cfg });
            let out = feed(&mut svc, &arrivals, poll);
            (out, svc.clock(), svc.stats().clone())
        };
        let reference = run(ActivityMode::Scheduled, false, 0);
        prop_assert_eq!(
            &reference, &run(ActivityMode::Scheduled, true, poll_every),
            "threading leaked into the serving outcome"
        );
        prop_assert_eq!(
            &reference, &run(ActivityMode::Scheduled, false, poll_every),
            "poll cadence leaked into the serving outcome"
        );
        prop_assert_eq!(
            &reference, &run(ActivityMode::Exhaustive, false, poll_every),
            "exhaustive mode diverged"
        );
    }

    /// Shard count changes timing (clock, completion times) but never
    /// *results*: with shed-free admission, every sequence number
    /// completes with the same payload on 1, 2 or 3 shards.
    #[test]
    fn per_job_results_are_invariant_across_shard_counts(seed: u64) {
        let arrivals = open_loop(&WorkloadSpec {
            clients: 24,
            tenants: 2,
            jobs_per_client: 2,
            mean_gap: 1_500,
            seed,
        });
        let outputs = |shards: usize| {
            let mut svc = standard_service(
                shards,
                ActivityMode::Scheduled,
                &[1, 2],
                ServeConfig {
                    queue_depth: usize::MAX, // shed-free: admission cannot depend on timing
                    ..ServeConfig::default()
                },
            );
            let (done, shed) = feed(&mut svc, &arrivals, 3);
            prop_assert!(shed.is_empty());
            let mut by_seq: Vec<_> = done
                .into_iter()
                .map(|c| (c.seq, c.tenant, c.output))
                .collect();
            by_seq.sort_by_key(|(seq, ..)| *seq);
            by_seq
        };
        let one = outputs(1);
        prop_assert_eq!(&one, &outputs(2), "2-shard results diverged from 1-shard");
        prop_assert_eq!(&one, &outputs(3), "3-shard results diverged from 1-shard");
    }

    /// Saturated tenants receive dispatched-work shares that track their
    /// DRR weights, whatever the weights are.
    #[test]
    fn drr_shares_converge_to_weights_under_saturation(
        w in proptest::collection::vec(1u32..5, 3),
        shards in 1usize..3,
    ) {
        let mut svc = standard_service(
            shards,
            ActivityMode::Scheduled,
            &w,
            ServeConfig {
                queue_depth: 700,
                quantum: 4,
                round_jobs: 16,
                parallel: false,
            },
        );
        // Everyone fully backlogged at tick 0 with equal-cost jobs.
        for i in 0..220u32 {
            for t in 0..w.len() as u32 {
                let (job, _) = client_job(i, t, (i % 64) as u16);
                svc.submit(t, 0, job).expect("submit");
            }
        }
        while svc.stats().dispatched < 12 * 16 {
            let clock = svc.clock();
            svc.advance_to(clock + 1).expect("one round");
        }
        prop_assert!(svc.queued() > 0, "backlog drained — not a saturation test");
        let total_w: f64 = w.iter().map(|&x| f64::from(x)).sum();
        let dispatched: u64 = (0..w.len() as u32)
            .map(|t| svc.stats().tenant(t).map_or(0, |c| c.work_cost))
            .sum();
        for (t, &wt) in w.iter().enumerate() {
            let got = svc.stats().tenant(t as u32).map_or(0, |c| c.work_cost);
            let share = got as f64 / dispatched as f64;
            let ideal = f64::from(wt) / total_w;
            prop_assert!(
                (share - ideal).abs() < 0.10,
                "tenant {} (weight {}): share {:.3} vs ideal {:.3}",
                t, wt, share, ideal
            );
        }
    }

    /// Conservation under arbitrary load, shedding and mid-session
    /// disconnects: submitted = admitted + shed, every admitted job is
    /// completed exactly once or cancelled, and sequence numbers are
    /// unique.
    #[test]
    fn every_job_completes_exactly_once_or_is_rejected_in_band(
        seed: u64,
        queue_depth in 2usize..8,
        disconnect_at in 10usize..60,
    ) {
        let arrivals = open_loop(&WorkloadSpec {
            clients: 40,
            tenants: 4,
            jobs_per_client: 2,
            mean_gap: 800, // hot: force queue-full rejections
            seed,
        });
        let mut svc = standard_service(
            2,
            ActivityMode::Scheduled,
            &[1, 1, 2, 4],
            ServeConfig {
                queue_depth,
                ..ServeConfig::default()
            },
        );
        let mut admitted: HashSet<u64> = HashSet::new();
        let mut shed = 0u64;
        let mut done: Vec<Completion> = Vec::new();
        for (i, a) in arrivals.iter().enumerate() {
            match svc.submit(a.tenant, a.tick, a.job.clone()).expect("submit") {
                Admission::Admitted { seq } => {
                    prop_assert!(admitted.insert(seq), "seq {} handed out twice", seq);
                }
                Admission::Overloaded { tenant, .. } => {
                    prop_assert_eq!(tenant, a.tenant);
                    shed += 1;
                }
            }
            if i == disconnect_at {
                svc.disconnect(a.tenant); // a client vanishes mid-session
            }
            done.extend(svc.poll());
        }
        done.extend(svc.drain().expect("drain"));
        prop_assert!(svc.is_idle());
        prop_assert_eq!(svc.pending_completions(), 0);

        let seqs: HashSet<u64> = done.iter().map(|c| c.seq).collect();
        prop_assert_eq!(seqs.len(), done.len(), "a completion was duplicated");
        prop_assert!(seqs.is_subset(&admitted), "completed a job never admitted");

        let t = svc.stats().totals();
        prop_assert_eq!(t.submitted, arrivals.len() as u64);
        prop_assert_eq!(t.shed, shed);
        prop_assert_eq!(t.admitted, admitted.len() as u64);
        prop_assert_eq!(t.completed + t.failed, done.len() as u64);
        prop_assert_eq!(t.admitted, t.completed + t.failed + t.cancelled);
        prop_assert_eq!(t.in_queue(), 0);
        prop_assert_eq!(t.failed, 0, "healthy farm must not fail jobs");
        prop_assert_eq!(
            (admitted.len() - seqs.len()) as u64,
            t.cancelled,
            "every admitted-but-incomplete job must be an accounted cancellation"
        );
    }
}

/// Shed-safety under *failures*: one poisoned shard panics whenever a job
/// carries the trigger operand; with failover retries armed, every such
/// job must still complete exactly once — on another shard — and the
/// service's accumulated `RecoveryStats` must record exactly the retries
/// the farm performed.
#[test]
fn poisoned_shard_jobs_complete_via_failover_and_recovery_stats_agree() {
    let farm = Farm::new(
        FarmConfig {
            shards: 3,
            seed: 0xE17,
            max_job_retries: 3,
            // Round-robin so the poison jobs land on every shard in turn,
            // including the poisoned one, regardless of cost.
            placement: Placement::RoundRobin,
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
    let mut svc = Service::new(
        ServeConfig {
            queue_depth: 64,
            parallel: false,
            ..ServeConfig::default()
        },
        vec![TenantSpec::new("a", 1), TenantSpec::new("b", 2)],
        farm,
    )
    .expect("valid service");

    let poison_job = |tag: u16| {
        fu_host::Job::Requests(vec![
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
            HostMsg::ReadReg { reg: 3, tag },
        ])
    };
    let n = 12u64;
    for i in 0..n {
        svc.submit((i % 2) as u32, 0, poison_job(i as u16))
            .expect("submit");
    }
    // The poison panics are the point; keep backtraces out of test logs
    // (the farm catches and converts every one).
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let done = svc.drain();
    std::panic::set_hook(hook);
    let done = done.expect("drain");

    assert_eq!(done.len(), n as usize);
    let seqs: HashSet<u64> = done.iter().map(|c| c.seq).collect();
    assert_eq!(seqs.len(), done.len(), "failover duplicated a completion");
    for c in &done {
        match &c.output {
            Ok(JobOutput::Msgs(msgs)) => {
                assert!(
                    matches!(msgs[..], [DevMsg::Data { .. }]),
                    "seq {}: unexpected responses {msgs:?}",
                    c.seq
                );
            }
            other => panic!("seq {} not recovered by failover: {other:?}", c.seq),
        }
        assert_ne!(c.shard, 1, "a completion came from the poisoned shard");
    }
    let t = svc.stats().totals();
    assert_eq!((t.completed, t.failed), (n, 0));
    let rec = &svc.sim_stats().recovery;
    // Round-robin over 3 shards puts a third of the jobs on the poisoned
    // one; each needs exactly one retry to land on a healthy shard.
    assert_eq!(rec.jobs_failed_over, n / 3, "failover count mismatch");
    assert_eq!(rec.job_retries, n / 3, "one retry per poisoned placement");
}

/// The completion stream carries enough to audit latency: completion
/// times are round-start plus shard-local prefix sums, so they are
/// non-decreasing per shard within a round and always at least
/// `submitted_at + cycles`.
#[test]
fn completion_timestamps_are_causally_consistent() {
    let arrivals = open_loop(&WorkloadSpec {
        clients: 50,
        tenants: 3,
        jobs_per_client: 2,
        mean_gap: 2_000,
        seed: 0xCAFE,
    });
    let mut svc = standard_service(
        2,
        ActivityMode::Scheduled,
        &[1, 2, 4],
        ServeConfig::default(),
    );
    let (done, _) = feed(&mut svc, &arrivals, 1);
    assert!(!done.is_empty());
    for c in &done {
        assert!(c.cycles > 0, "seq {}: zero-cycle completion", c.seq);
        assert!(
            c.completed_at >= c.submitted_at + c.cycles,
            "seq {}: completed before its own execution finished",
            c.seq
        );
    }
    // Latency histogram totals must cover every completion.
    let t = svc.stats().totals();
    assert_eq!(t.latency.count(), done.len() as u64);
}
