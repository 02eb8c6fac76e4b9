//! Backpressure fuzzing of the whole machine: the paper's local-handshake
//! design must tolerate *any* pattern of stalls without losing,
//! duplicating or reordering work. The host randomly withholds frame
//! delivery and randomly refuses to drain the transmit FIFO; tiny FIFOs
//! make the backpressure propagate all the way up the pipeline.
//!
//! The second half fuzzes the *serving front-end* the same way: random
//! bursts into bounded tenant queues (admission shedding), one shard an
//! order of magnitude slower than the rest (a stalled shard must convoy
//! jobs, never lose them), random poll cadence, and random mid-session
//! disconnects — after which the service must settle to idle with every
//! job accounted for, and replay bit-identically from the same seed.

use fu_isa::msg::DevDeframer;
use fu_isa::{DevMsg, HostMsg, InstrWord, UserInstr, Word};
use fu_rtm::{CoprocConfig, Coprocessor};
use fu_units::standard_units;
use rtl_sim::StallFuzzer;

/// Run a compute-and-readback workload under random host stalls.
fn fuzz_run(seed: u64, stall_p: f64, n_ops: u32) {
    let cfg = CoprocConfig {
        rx_fifo_depth: 2,
        tx_fifo_depth: 2,
        rx_frames_per_cycle: 1,
        tx_frames_per_cycle: 1,
        ..CoprocConfig::default()
    };
    let mut coproc = Coprocessor::new(cfg, standard_units(32)).unwrap();
    let mut rx_fuzz = StallFuzzer::new(seed, stall_p);
    let mut tx_fuzz = StallFuzzer::new(seed ^ 0xabcdef, stall_p);
    let mut workload = StallFuzzer::new(seed ^ 0x55, 0.0);

    // Build the message stream and the expected responses.
    let mut msgs: Vec<HostMsg> = Vec::new();
    let mut expected: Vec<DevMsg> = Vec::new();
    let mut a = 1u64;
    let mut b = 2u64;
    msgs.push(HostMsg::WriteReg {
        reg: 1,
        value: Word::from_u64(a, 32),
    });
    msgs.push(HostMsg::WriteReg {
        reg: 2,
        value: Word::from_u64(b, 32),
    });
    for i in 0..n_ops {
        // Alternate ADD and XOR over r1/r2 into r3, read it back.
        let (func, variety, expect) = if workload.below(2) == 0 {
            (
                fu_isa::funit_codes::ARITH,
                fu_isa::ArithOp::Add.variety().0,
                (a + b) & 0xffff_ffff,
            )
        } else {
            (
                fu_isa::funit_codes::LOGIC,
                fu_isa::LogicOp::Xor.variety().0,
                a ^ b,
            )
        };
        msgs.push(HostMsg::Instr(InstrWord::user(UserInstr {
            func,
            variety,
            dst_flag: 1,
            dst_reg: 3,
            aux_reg: 0,
            src1: 1,
            src2: 2,
            src3: 0,
        })));
        msgs.push(HostMsg::ReadReg {
            reg: 3,
            tag: i as u16,
        });
        expected.push(DevMsg::Data {
            tag: i as u16,
            value: Word::from_u64(expect, 32),
        });
        // Rotate operands through writes.
        a = expect;
        msgs.push(HostMsg::WriteReg {
            reg: 1,
            value: Word::from_u64(a, 32),
        });
        b = (b * 7 + 3) & 0xffff_ffff;
        msgs.push(HostMsg::WriteReg {
            reg: 2,
            value: Word::from_u64(b, 32),
        });
    }

    let mut frames: std::collections::VecDeque<u32> =
        msgs.iter().flat_map(|m| m.to_frames(32)).collect();
    let mut deframer = DevDeframer::new(32);
    let mut got: Vec<DevMsg> = Vec::new();
    let mut budget: u64 = 4_000_000;
    while got.len() < expected.len() {
        // Host sometimes refuses to feed…
        if !rx_fuzz.stall() {
            while let Some(&f) = frames.front() {
                if coproc.push_frame(f) {
                    frames.pop_front();
                } else {
                    break;
                }
            }
        }
        coproc.step();
        // …and sometimes refuses to drain.
        if !tx_fuzz.stall() {
            while let Some(f) = coproc.pop_frame() {
                if let Some(m) = deframer.push(f).unwrap() {
                    got.push(m);
                }
            }
        }
        budget -= 1;
        assert!(budget > 0, "fuzz run wedged (seed {seed}, p {stall_p})");
    }
    assert_eq!(got, expected, "response stream corrupted (seed {seed})");
}

#[test]
fn light_backpressure() {
    for seed in 0..4 {
        fuzz_run(seed, 0.2, 40);
    }
}

#[test]
fn heavy_backpressure() {
    for seed in 10..13 {
        fuzz_run(seed, 0.8, 25);
    }
}

#[test]
fn pathological_backpressure() {
    // 97% stall probability: the machine crawls but must stay correct.
    fuzz_run(42, 0.97, 8);
}

#[test]
fn no_backpressure_baseline() {
    fuzz_run(7, 0.0, 60);
}

// ---------------------------------------------------------------------
// Serving front-end fuzz: the same philosophy one layer up. Queue-full
// shedding, a crawling shard, disconnects, clock advances behind and
// ahead of the arrivals and a mid-stream flush are all "stalls" the
// front-end must absorb without losing or duplicating work.
// ---------------------------------------------------------------------

use fu_host::serve::workload::client_job;
use fu_host::{
    Admission, Completion, Farm, FarmConfig, JobOutput, LinkModel, Placement, ServeConfig, Service,
    System, TenantSpec,
};
/// A farm whose shard 0 runs over the paper's slow prototyping link
/// while the others get the ideal link: the serving layer's version of a
/// stalled pipeline stage.
fn lopsided_farm(shards: usize, seed: u64) -> Farm {
    Farm::new(
        FarmConfig {
            shards,
            seed,
            placement: Placement::LeastLoaded,
            ..FarmConfig::default()
        },
        |ctx| {
            let link = if ctx.index == 0 {
                LinkModel::prototyping()
            } else {
                LinkModel::ideal()
            };
            System::new(CoprocConfig::default(), standard_units(32), link)
        },
    )
}

/// One fuzzed serving session. Returns the full observable outcome so
/// the caller can check determinism by replaying the seed.
fn serve_fuzz(seed: u64) -> (Vec<Completion>, rtl_sim::ServeStats, u64) {
    let tenants = 3u32;
    let mut svc = Service::new(
        ServeConfig {
            queue_depth: 4, // tiny: admission shedding fires constantly
            quantum: 8,
            round_jobs: 8,
            parallel: true,
        },
        (0..tenants)
            .map(|t| TenantSpec::new(format!("t{t}"), t + 1))
            .collect(),
        lopsided_farm(3, seed),
    )
    .expect("valid service");

    let mut fz = StallFuzzer::new(seed ^ 0x5EB_F00D, 0.0);
    let mut tick = 0u64;
    // The latest tick the service has been told about, by a submit or an
    // `advance_to`; later submits are clamped to it.
    let mut horizon = 0u64;
    // `advance_to` calls that landed behind the clock / past the horizon.
    let (mut behind, mut ahead) = (0u64, 0u64);
    let mut admitted = 0u64;
    let mut shed = 0u64;
    let mut unknown = 0u64;
    let mut expected: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    let mut done: Vec<Completion> = Vec::new();
    for i in 0..250u32 {
        // Bursty arrivals: usually a tiny gap, sometimes a long pause.
        tick += if fz.below(8) == 0 {
            2_000 + fz.below(4_000)
        } else {
            fz.below(120)
        };
        // Ids `tenants` and `tenants + 1` name no tenant: both calls must
        // answer them in band instead of panicking.
        let tenant = (fz.below(u64::from(tenants) + 2)) as u32;
        let (job, want) = client_job((i * 3) % 1000, (fz.below(512)) as u32, (i % 200) as u16);
        horizon = horizon.max(tick);
        match svc.submit(tenant, tick, job).expect("submit") {
            Admission::Admitted { seq } => {
                admitted += 1;
                expected.insert(seq, want);
            }
            Admission::Overloaded { .. } => shed += 1,
            Admission::UnknownTenant { tenant: t } => {
                assert!(t == tenant && t >= tenants, "tenant {tenant} answered {t}");
                unknown += 1;
            }
        }
        // A client occasionally hangs up mid-session…
        if fz.below(60) == 0 {
            assert_eq!(svc.disconnect(tenant).is_none(), tenant >= tenants);
        }
        // …and the front-end polls on its own erratic schedule.
        if fz.below(3) == 0 {
            done.extend(svc.poll());
        }
        // It also moves the clock on, to ticks behind and ahead of it.
        if fz.below(10) == 0 {
            let t = if fz.below(2) == 0 {
                svc.clock().saturating_sub(fz.below(3_000))
            } else {
                tick + fz.below(3_000)
            };
            let (clock, queued) = (svc.clock(), svc.queued());
            svc.advance_to(t).expect("advance_to");
            if t <= clock {
                // No round can start before the clock: nothing moves.
                assert_eq!((svc.clock(), svc.queued()), (clock, queued));
                behind += 1;
            } else if t > horizon {
                ahead += 1;
                // Every queued job arrived before `t`, so each round that
                // starts before `t` has run.
                assert!(svc.queued() == 0 || svc.clock() >= t, "seed {seed}");
            }
            horizon = horizon.max(t);
        }
        // Halfway through, one mid-stream flush.
        if i == 125 {
            done.extend(svc.drain().expect("mid-stream drain"));
            assert!(svc.is_idle(), "mid-stream drain left work (seed {seed})");
            assert_eq!(svc.pending_completions(), 0);
        }
    }
    done.extend(svc.drain().expect("drain"));

    // Settle check — the serving analogue of `assert_parks_clean`: no
    // queued work, no unclaimed completions, every admitted job resolved.
    assert!(svc.is_idle(), "service failed to settle (seed {seed})");
    assert!(
        behind > 0 && ahead > 0,
        "advances {behind} behind, {ahead} ahead (seed {seed})"
    );
    assert_eq!(svc.pending_completions(), 0);
    let t = svc.stats().totals();
    assert!(unknown > 0, "no unknown tenant id drawn (seed {seed})");
    assert_eq!(t.submitted + unknown, 250);
    assert!(
        svc.stats().tenants.iter().all(|&(id, _)| id < tenants),
        "counters created for an unknown tenant id (seed {seed})"
    );
    assert_eq!((t.admitted, t.shed), (admitted, shed));
    assert!(t.shed > 0, "queue-full shedding never fired (seed {seed})");
    assert!(
        t.cancelled > 0,
        "disconnects never caught queued work (seed {seed})"
    );
    assert_eq!(t.in_queue(), 0, "jobs left in limbo (seed {seed})");
    assert_eq!(
        t.failed, 0,
        "a slow shard must convoy, not fail (seed {seed})"
    );
    assert_eq!(t.completed, done.len() as u64);
    assert_eq!(t.completed + t.cancelled, admitted);

    // Every delivered completion is unique, was admitted, and carries
    // the bit-exact expected payload.
    for c in &done {
        let want = expected
            .remove(&c.seq)
            .expect("completion for an unadmitted or duplicated seq");
        match &c.output {
            Ok(JobOutput::Msgs(msgs)) => match &msgs[..] {
                [DevMsg::Data { value, .. }] => {
                    assert_eq!(value.as_u64(), want, "seq {} corrupted", c.seq)
                }
                other => panic!("seq {}: unexpected responses {other:?}", c.seq),
            },
            other => panic!("seq {}: failed: {other:?}", c.seq),
        }
    }
    assert_eq!(
        expected.len() as u64,
        t.cancelled,
        "every unresolved seq must be an accounted cancellation (seed {seed})"
    );
    (done, svc.stats().clone(), svc.clock())
}

#[test]
fn serving_front_end_absorbs_fuzzed_load() {
    for seed in 0..3 {
        serve_fuzz(seed);
    }
}

#[test]
fn serving_fuzz_replays_bit_identically() {
    assert_eq!(serve_fuzz(11), serve_fuzz(11));
}
