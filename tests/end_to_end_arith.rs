//! End-to-end randomized differential test: full system (host → link →
//! RTM → arithmetic/logic/shift units → back) against the independent
//! golden register-file model of the shared `golden` module.

mod golden;
mod util;

use fu_host::{Driver, LinkModel, System};
use fu_isa::variety::{ArithOp, LogicOp};
use fu_isa::Flags;
use fu_rtm::CoprocConfig;
use fu_units::standard_units;
use golden::Golden;
use rtl_sim::StallFuzzer;

fn random_system(link: LinkModel) -> Driver {
    let cfg = CoprocConfig {
        data_regs: 16,
        flag_regs: 4,
        ..CoprocConfig::default()
    };
    Driver::new(
        System::new(cfg, standard_units(32), link).unwrap(),
        util::DRIVER_TIMEOUT,
    )
}

fn run_differential(seed: u64, n_instrs: usize, link: LinkModel) {
    let mut rng = StallFuzzer::new(seed, 0.0);
    let mut d = random_system(link);
    let mut g = Golden::new(16, 4);

    // Seed registers with random values.
    for r in 0..16u8 {
        let v = rng.next_u64() as u32;
        d.write_reg(r, v as u64);
        g.regs[r as usize] = v;
    }

    for _ in 0..n_instrs {
        let d1 = (rng.below(16)) as u8;
        let s1 = (rng.below(16)) as u8;
        let s2 = (rng.below(16)) as u8;
        let fd = (rng.below(4)) as u8;
        let fs = (rng.below(4)) as u8;
        match rng.below(3) {
            0 => {
                let op = ArithOp::ALL[rng.below(9) as usize];
                let line = match op {
                    ArithOp::Inc | ArithOp::Dec => {
                        format!("{} r{d1}, r{s1}, f{fd}", op.mnemonic())
                    }
                    ArithOp::Neg => format!("{} r{d1}, r{s2}, f{fd}", op.mnemonic()),
                    ArithOp::Cmp | ArithOp::Cmpb => {
                        format!("{} r{s1}, r{s2}, f{fd}, f{fs}", op.mnemonic())
                    }
                    _ => format!("{} r{d1}, r{s1}, r{s2}, f{fd}, f{fs}", op.mnemonic()),
                };
                d.exec_asm(&line).unwrap();
                g.arith(
                    op,
                    d1 as usize,
                    s1 as usize,
                    s2 as usize,
                    fd as usize,
                    fs as usize,
                );
            }
            1 => {
                let op = LogicOp::ALL[rng.below(10) as usize];
                let line = match op {
                    LogicOp::Not | LogicOp::Copy => {
                        format!("{} r{d1}, r{s1}, f{fd}", op.mnemonic())
                    }
                    LogicOp::Test => format!("TEST r{s1}, r{s2}, f{fd}"),
                    _ => format!("{} r{d1}, r{s1}, r{s2}, f{fd}", op.mnemonic()),
                };
                d.exec_asm(&line).unwrap();
                g.logic(op, d1 as usize, s1 as usize, s2 as usize, fd as usize);
            }
            _ => {
                // Management copy, exercising the in-pipeline path.
                d.exec_asm(&format!("COPY r{d1}, r{s1}")).unwrap();
                g.regs[d1 as usize] = g.regs[s1 as usize];
            }
        }
    }

    d.sync().unwrap();
    for r in 0..16u8 {
        let got = d.read_reg(r).unwrap().as_u64() as u32;
        assert_eq!(
            got, g.regs[r as usize],
            "register r{r} diverged (seed {seed})"
        );
    }
    for f in 0..4u8 {
        let got = d.read_flags(f).unwrap();
        let (c, z, n, v) = g.flags[f as usize];
        assert_eq!(
            got & Flags(0b1111),
            Flags::from_parts(c, z, n, v),
            "flag register f{f} diverged (seed {seed})"
        );
    }
    util::assert_parks_clean(d);
}

#[test]
fn differential_against_golden_model_ideal_link() {
    for seed in 0..8 {
        run_differential(seed, 300, LinkModel::ideal());
    }
}

#[test]
fn differential_against_golden_model_slow_link() {
    // The slow link changes timing drastically but must not change
    // results.
    run_differential(99, 60, LinkModel::prototyping());
}

#[test]
fn differential_against_golden_model_pcie() {
    for seed in 200..203 {
        run_differential(seed, 200, LinkModel::pcie_like());
    }
}

#[test]
fn long_dependent_chain() {
    // r1 <- 1; then 100 dependent INCs; forces a full interlock chain.
    let mut d = random_system(LinkModel::tightly_coupled());
    d.write_reg(1, 1);
    for _ in 0..100 {
        d.exec_asm("INC r1, r1, f0").unwrap();
    }
    assert_eq!(d.read_reg(1).unwrap().as_u64(), 101);
    let stats = d.system().coproc().stats();
    assert_eq!(stats.dispatch.user_dispatched, 100);
    // Over a frame-serial link the 3-frame instruction delivery hides
    // most of the dependency latency; at least one stall must still be
    // observable (the deeper CPI measurements drive the coprocessor's
    // frame port directly — see E3 in bench exp_paper).
    assert!(
        stats.dispatch.stall_lock >= 1,
        "a dependent chain must stall on locks at least once"
    );
}

#[test]
fn independent_stream_overlaps() {
    // Independent instructions on distinct registers/flags should run
    // much closer to 1 CPI than the dependent chain.
    let mut d = random_system(LinkModel::tightly_coupled());
    for r in 0..8u8 {
        d.write_reg(r, r as u64);
    }
    let start = d.cycles();
    for i in 0..96u32 {
        let r = (i % 4) * 2;
        let f = i % 4;
        d.exec_asm(&format!("ADD r{}, r{}, r{}, f{}", r + 8 - 7, r, r, f))
            .unwrap();
    }
    d.sync().unwrap();
    let cycles = d.cycles() - start;
    // 96 instructions, 4-way rotation over one 2-cycle arithmetic unit:
    // bounded by the unit's occupancy, not by hazards.
    assert!(
        cycles < 96 * 6,
        "independent stream took {cycles} cycles for 96 instructions"
    );
    util::assert_parks_clean(d);
}

#[test]
fn pipelined_batch_issue_matches_one_at_a_time() {
    // The same program must leave the machine in the same state whether
    // each instruction waits for a sync (exec_asm) or the whole batch is
    // streamed into the link back-to-back (submit_program) — pipelining
    // changes timing only.
    let program = "ADD r3, r1, r2, f1\n\
                   SUB r4, r3, r1, f2\n\
                   XOR r5, r4, r2, f3\n\
                   INC r6, r5, f0\n\
                   OR r7, r6, r3, f1";

    let mut serial = random_system(LinkModel::pcie_like());
    serial.write_reg(1, 40);
    serial.write_reg(2, 2);
    for line in program.lines() {
        serial.exec_asm(line.trim()).unwrap();
    }

    let mut batched = random_system(LinkModel::pcie_like());
    batched.write_reg(1, 40);
    batched.write_reg(2, 2);
    assert_eq!(batched.submit_program(program).unwrap(), 5);
    batched.sync().unwrap();

    for r in 0..16u8 {
        assert_eq!(
            serial.read_reg(r).unwrap(),
            batched.read_reg(r).unwrap(),
            "register r{r} diverged between serial and batched issue"
        );
    }
    util::assert_parks_clean(serial);
    util::assert_parks_clean(batched);
}
