//! Multi-host tests (paper Figure 1.1: CPU #1 … CPU #m sharing one
//! interface): response routing, message-granular arbitration, fairness
//! and isolation.

mod util;

use fu_host::{LinkModel, MultiHostSystem};
use fu_isa::{DevMsg, HostMsg, Word};
use fu_rtm::testing::LatencyFu;
use fu_rtm::{CoprocConfig, FunctionalUnit};

fn sys(n_hosts: usize) -> MultiHostSystem {
    let units: Vec<Box<dyn FunctionalUnit>> = vec![Box::new(LatencyFu::new("add", 1, 1))];
    MultiHostSystem::new(
        CoprocConfig::default(),
        units,
        LinkModel::tightly_coupled(),
        n_hosts,
    )
    .unwrap()
}

#[test]
fn responses_route_to_the_issuing_host() {
    let mut s = sys(3);
    // Each host writes its own register and reads it back.
    for host in 0..3usize {
        s.send(
            host,
            &HostMsg::WriteReg {
                reg: host as u8 + 1,
                value: Word::from_u64(100 + host as u64, 32),
            },
        );
        let tag = s.brand_tag(host, 7);
        s.send(
            host,
            &HostMsg::ReadReg {
                reg: host as u8 + 1,
                tag,
            },
        );
    }
    for host in 0..3usize {
        let resp = s.recv_blocking(host, 1_000_000).unwrap();
        assert_eq!(
            resp,
            DevMsg::Data {
                tag: s.brand_tag(host, 7),
                value: Word::from_u64(100 + host as u64, 32)
            },
            "host {host}"
        );
        assert!(s.recv(host).is_none(), "exactly one response per host");
    }
}

#[test]
fn hosts_share_architectural_state() {
    // The register file is shared (the paper's model: multiple CPUs, one
    // coprocessor): host 1 can read what host 0 wrote once ordering is
    // established with a sync.
    let mut s = sys(2);
    s.send(
        0,
        &HostMsg::WriteReg {
            reg: 5,
            value: Word::from_u64(777, 32),
        },
    );
    let sync_tag = s.brand_tag(0, 1);
    s.send(0, &HostMsg::Sync { tag: sync_tag });
    assert_eq!(
        s.recv_blocking(0, 1_000_000).unwrap(),
        DevMsg::SyncAck { tag: sync_tag }
    );
    let read_tag = s.brand_tag(1, 2);
    s.send(
        1,
        &HostMsg::ReadReg {
            reg: 5,
            tag: read_tag,
        },
    );
    assert_eq!(
        s.recv_blocking(1, 1_000_000).unwrap(),
        DevMsg::Data {
            tag: read_tag,
            value: Word::from_u64(777, 32)
        }
    );
}

#[test]
fn arbitration_is_message_granular_and_fair() {
    // Two hosts blast interleaved writes+reads; every response must be
    // intact and correctly routed (frame interleaving inside a message
    // would corrupt the stream).
    let mut s = sys(2);
    let rounds = 40u64;
    for i in 0..rounds {
        for host in 0..2usize {
            let reg = (host * 4 + (i % 4) as usize) as u8 + 1;
            s.send(
                host,
                &HostMsg::WriteReg {
                    reg,
                    value: Word::from_u64(i * 2 + host as u64, 32),
                },
            );
            s.send(
                host,
                &HostMsg::ReadReg {
                    reg,
                    tag: s.brand_tag(host, i as u16),
                },
            );
        }
    }
    for host in 0..2usize {
        for i in 0..rounds {
            let resp = s.recv_blocking(host, 5_000_000).unwrap();
            assert_eq!(
                resp,
                DevMsg::Data {
                    tag: s.brand_tag(host, i as u16),
                    value: Word::from_u64(i * 2 + host as u64, 32)
                },
                "host {host} round {i}"
            );
        }
    }
}

#[test]
fn errors_route_to_the_management_host() {
    let mut s = sys(2);
    // Host 1 sends a bad read; the error report goes to host 0 (the
    // documented management-CPU convention).
    s.send(
        1,
        &HostMsg::ReadReg {
            reg: 200,
            tag: s.brand_tag(1, 0),
        },
    );
    let resp = s.recv_blocking(0, 1_000_000).unwrap();
    assert!(matches!(resp, DevMsg::Error { .. }));
}

#[test]
fn mis_branded_tag_is_rejected_early() {
    let mut s = sys(2);
    let foreign = s.brand_tag(1, 3);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        s.send(
            0,
            &HostMsg::ReadReg {
                reg: 1,
                tag: foreign,
            },
        );
    }));
    assert!(
        result.is_err(),
        "sending host 1's tag from host 0 must panic"
    );
}

#[test]
fn single_host_degenerates_to_plain_system() {
    let mut s = sys(1);
    s.send(
        0,
        &HostMsg::WriteReg {
            reg: 1,
            value: Word::from_u64(42, 32),
        },
    );
    s.send(
        0,
        &HostMsg::ReadReg {
            reg: 1,
            tag: s.brand_tag(0, 9),
        },
    );
    let resp = s.recv_blocking(0, 1_000_000).unwrap();
    assert!(matches!(resp, DevMsg::Data { .. }));
    util::settle_multihost(&mut s, 10_000);
}

#[test]
fn zero_hosts_rejected() {
    let r = MultiHostSystem::new(CoprocConfig::default(), vec![], LinkModel::ideal(), 0);
    assert!(r.is_err());
}

#[test]
fn reliable_ports_mask_faults_per_host() {
    use fu_host::FaultModel;
    use fu_isa::transport::TransportConfig;

    let link = LinkModel::tightly_coupled();
    let tcfg = TransportConfig::for_link(link.latency_cycles, link.cycles_per_frame);
    let run = |faults: Option<FaultModel>| {
        let units: Vec<Box<dyn FunctionalUnit>> = vec![Box::new(LatencyFu::new("add", 1, 1))];
        let mut s =
            MultiHostSystem::new_reliable(CoprocConfig::default(), units, link, 2, tcfg, faults)
                .unwrap();
        // Each host owns one register and reads it back twice.
        let mut streams: Vec<Vec<DevMsg>> = vec![Vec::new(); 2];
        for host in 0..2usize {
            s.send(
                host,
                &HostMsg::WriteReg {
                    reg: host as u8 + 1,
                    value: Word::from_u64(500 + host as u64, 32),
                },
            );
            for t in 0..2u16 {
                s.send(
                    host,
                    &HostMsg::ReadReg {
                        reg: host as u8 + 1,
                        tag: s.brand_tag(host, t),
                    },
                );
            }
        }
        for _ in 0..20_000_000u64 {
            if s.is_idle() {
                break;
            }
            s.step();
        }
        assert!(s.is_idle(), "reliable multi-host system must drain");
        for (host, stream) in streams.iter_mut().enumerate() {
            while let Some(m) = s.recv(host) {
                stream.push(m);
            }
        }
        let stats: Vec<_> = (0..2).map(|h| s.link_stats(h)).collect();
        (streams, stats)
    };

    let (clean, _) = run(None);
    let (faulty, stats) = run(Some(FaultModel::uniform(0xBEEF, 60)));
    assert_eq!(
        clean, faulty,
        "reliable ports must hide faults from every host"
    );
    for (host, st) in stats.iter().enumerate() {
        assert!(
            st.frames_dropped + st.frames_corrupted + st.frames_duplicated > 0,
            "host {host} port saw no faults at 60 permille: {st:?}"
        );
        assert!(!st.gave_up, "host {host} port gave up: {st:?}");
    }
}

#[test]
fn activity_modes_agree_on_a_multihost_burn() {
    // Two hosts over the slow prototyping link sharing one long-latency
    // unit: host 0 runs synchronous burn round trips (the coprocessor is
    // quiet but busy for 800 cycles per instruction), host 1 interleaves
    // plain register round trips. Both scheduling modes must agree on
    // every observable; the scheduled kernel must do strictly less
    // stepping work than the exhaustive reference.
    use fu_rtm::ActivityMode;
    let run = |mode: ActivityMode| {
        let units: Vec<Box<dyn FunctionalUnit>> = vec![Box::new(LatencyFu::new("burn", 1, 800))];
        let mut s =
            MultiHostSystem::new(CoprocConfig::default(), units, LinkModel::prototyping(), 2)
                .unwrap();
        s.set_activity_mode(mode);
        let mut responses = Vec::new();
        for round in 0..3u16 {
            s.send(
                0,
                &HostMsg::WriteReg {
                    reg: 1,
                    value: Word::from_u64(u64::from(round) + 1, 32),
                },
            );
            s.send(
                0,
                &HostMsg::Instr(fu_isa::InstrWord::user(fu_isa::UserInstr {
                    func: 1,
                    variety: 0,
                    dst_flag: 1,
                    dst_reg: 2,
                    aux_reg: 0,
                    src1: 1,
                    src2: 1,
                    src3: 0,
                })),
            );
            s.send(
                0,
                &HostMsg::ReadReg {
                    reg: 2,
                    tag: s.brand_tag(0, round),
                },
            );
            s.send(
                1,
                &HostMsg::WriteReg {
                    reg: 3,
                    value: Word::from_u64(u64::from(round), 32),
                },
            );
            s.send(
                1,
                &HostMsg::ReadReg {
                    reg: 3,
                    tag: s.brand_tag(1, round),
                },
            );
            responses.push(s.recv_blocking(0, 10_000_000).unwrap());
            responses.push(s.recv_blocking(1, 10_000_000).unwrap());
        }
        (responses, s.cycle(), s.sim_stats())
    };
    let e = run(ActivityMode::Exhaustive);
    let w = run(ActivityMode::Scheduled);
    assert_eq!(e.0, w.0, "exhaustive vs scheduled responses diverged");
    assert_eq!(e.1, w.1, "exhaustive vs scheduled cycle counts diverged");
    assert_eq!(e.2.cycles_simulated, w.2.cycles_simulated);
    assert_eq!(e.2.stage_busy, w.2.stage_busy, "busy accounting diverged");
    assert!(
        w.2.cycles_stepped < e.2.cycles_stepped,
        "scheduled stepped {} vs exhaustive {}",
        w.2.cycles_stepped,
        e.2.cycles_stepped
    );
    assert!(w.2.wheel.wakes_fired > 0, "no deadline reached");
}
