//! Error-path tests: malformed frames, unknown opcodes, unknown units and
//! out-of-range registers must each produce an in-band error response *in
//! stream order* and leave the machine fully operational.
//!
//! Every case runs under both scheduler activity modes and asserts the
//! response streams are bit-identical: error handling is architectural
//! behaviour, and the activity gating is a pure simulation optimisation
//! that must never show through — least of all on the weird paths.

mod util;

use fu_host::{LinkModel, System};
use fu_isa::msg::ErrorCode;
use fu_isa::{DevMsg, HostMsg, InstrWord, UserInstr, Word};
use fu_rtm::testing::LatencyFu;
use fu_rtm::{ActivityMode, CoprocConfig, FunctionalUnit};

fn sys() -> System {
    let units: Vec<Box<dyn FunctionalUnit>> = vec![Box::new(LatencyFu::new("add", 1, 1))];
    System::new(CoprocConfig::default(), units, LinkModel::ideal()).unwrap()
}

/// Run `msgs` to `n` responses under both activity modes, assert the two
/// response streams are identical, and return one of them.
fn run_both_modes(mk: impl Fn() -> System, msgs: &[HostMsg], n: usize) -> Vec<DevMsg> {
    let mut first: Option<Vec<DevMsg>> = None;
    for mode in [ActivityMode::Scheduled, ActivityMode::Exhaustive] {
        let mut s = mk();
        s.set_activity_mode(mode);
        for m in msgs {
            s.send(m);
        }
        let out = util::drain_responses(&mut s, n, 1_000_000);
        match &first {
            Some(f) => assert_eq!(
                f, &out,
                "error responses must not depend on the activity mode"
            ),
            None => first = Some(out),
        }
    }
    first.expect("both modes ran")
}

#[test]
fn unknown_mgmt_opcode() {
    let out = run_both_modes(sys, &[HostMsg::Instr(InstrWord::mgmt(0x55, 0, 0, 0))], 1);
    assert_eq!(
        out[0],
        DevMsg::Error {
            code: ErrorCode::BadOpcode,
            info: 0x55
        }
    );
}

#[test]
fn unknown_functional_unit() {
    let msgs = [HostMsg::Instr(InstrWord::user(UserInstr {
        func: 0x33,
        variety: 0,
        dst_flag: 0,
        dst_reg: 0,
        aux_reg: 0,
        src1: 0,
        src2: 0,
        src3: 0,
    }))];
    let out = run_both_modes(sys, &msgs, 1);
    assert_eq!(
        out[0],
        DevMsg::Error {
            code: ErrorCode::NoSuchUnit,
            info: 0x33
        }
    );
}

#[test]
fn out_of_range_registers_everywhere() {
    let msgs = [
        HostMsg::WriteReg {
            reg: 250,
            value: Word::from_u64(1, 32),
        },
        HostMsg::ReadFlags { reg: 99, tag: 1 },
    ];
    let out = run_both_modes(sys, &msgs, 2);
    assert!(matches!(
        out[0],
        DevMsg::Error {
            code: ErrorCode::BadRegister,
            info: 250
        }
    ));
    assert!(matches!(
        out[1],
        DevMsg::Error {
            code: ErrorCode::BadRegister,
            info: 99
        }
    ));
}

#[test]
fn errors_interleave_with_successes_in_order() {
    let msgs = [
        HostMsg::WriteReg {
            reg: 1,
            value: Word::from_u64(5, 32),
        },
        HostMsg::ReadReg { reg: 1, tag: 0 },            // ok
        HostMsg::Instr(InstrWord::mgmt(0x70, 0, 0, 0)), // error
        HostMsg::ReadReg { reg: 1, tag: 1 },            // ok
        HostMsg::Sync { tag: 2 },                       // ack
    ];
    let out = run_both_modes(sys, &msgs, 4);
    assert!(matches!(out[0], DevMsg::Data { tag: 0, .. }));
    assert!(matches!(
        out[1],
        DevMsg::Error {
            code: ErrorCode::BadOpcode,
            ..
        }
    ));
    assert!(matches!(out[2], DevMsg::Data { tag: 1, .. }));
    assert_eq!(out[3], DevMsg::SyncAck { tag: 2 });
}

#[test]
fn machine_survives_a_burst_of_garbage() {
    let keepalives: Vec<HostMsg> = (0..3).map(|_| HostMsg::Sync { tag: 7 }).collect();
    let out = run_both_modes(sys, &keepalives, 3);
    assert!(out.iter().all(|m| *m == DevMsg::SyncAck { tag: 7 }));
    // Real work after the burst still completes on a fresh machine.
    let msgs = [
        HostMsg::WriteReg {
            reg: 1,
            value: Word::from_u64(42, 32),
        },
        HostMsg::ReadReg { reg: 1, tag: 9 },
    ];
    let out = run_both_modes(sys, &msgs, 1);
    assert_eq!(
        out[0],
        DevMsg::Data {
            tag: 9,
            value: Word::from_u64(42, 32)
        }
    );
}

#[test]
fn dual_destination_collision_is_reported() {
    // A MUL-style unit writing both halves to the same register is a
    // programming error the dispatcher reports rather than deadlocks.
    let mk = || {
        let units: Vec<Box<dyn FunctionalUnit>> = fu_units::standard_units(32);
        System::new(CoprocConfig::default(), units, LinkModel::ideal()).unwrap()
    };
    let msgs = [
        HostMsg::Instr(InstrWord::user(UserInstr {
            func: fu_isa::funit_codes::MUL,
            variety: 0,
            dst_flag: 0,
            dst_reg: 3,
            aux_reg: 3, // same as dst_reg — illegal
            src1: 1,
            src2: 2,
            src3: 0,
        })),
        HostMsg::Sync { tag: 1 },
    ];
    let out = run_both_modes(mk, &msgs, 2);
    assert!(matches!(
        out[0],
        DevMsg::Error {
            code: ErrorCode::BadRegister,
            info: 3
        }
    ));
    assert_eq!(out[1], DevMsg::SyncAck { tag: 1 });
}
