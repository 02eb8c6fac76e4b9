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
fn host_field_past_the_last_host_is_rejected() {
    // Three hosts take two tag bits, so field 3 exists but names no host;
    // reduced modulo the host count it would alias host 0.
    let mut s = sys(3);
    let stray = (3 << (16 - s.host_bits())) | 5;
    let panics =
        |f: &mut dyn FnMut()| std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err();
    assert!(panics(&mut || {
        s.brand_tag(3, 5);
    }));
    assert!(
        panics(&mut || s.send(0, &HostMsg::Sync { tag: stray })),
        "a tag for host 3 must not be accepted from host 0"
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
    util::settle(&mut s, 10_000);
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
    // plain register round trips. The burn runs over bare ports and over
    // reliable ports with faults injected on every link. For each, both
    // scheduling modes must agree on every observable; the scheduled
    // kernel must do strictly less stepping work than the exhaustive
    // reference.
    use fu_host::FaultModel;
    use fu_isa::transport::TransportConfig;
    use fu_rtm::ActivityMode;
    let link = LinkModel::prototyping();
    let tcfg = TransportConfig::for_link(link.latency_cycles, link.cycles_per_frame);
    let run = |mode: ActivityMode, reliable: bool| {
        let units: Vec<Box<dyn FunctionalUnit>> = vec![Box::new(LatencyFu::new("burn", 1, 800))];
        let cfg = CoprocConfig::default();
        let mut s = if reliable {
            let faults = Some(FaultModel::uniform(0x00F4_0175, 30));
            MultiHostSystem::new_reliable(cfg, units, link, 2, tcfg, faults)
        } else {
            MultiHostSystem::new(cfg, units, link, 2)
        }
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
        let links: Vec<_> = (0..2).map(|h| s.link_stats(h)).collect();
        (responses, s.cycle(), s.sim_stats(), links)
    };
    let mut streams = Vec::new();
    for reliable in [false, true] {
        let e = run(ActivityMode::Exhaustive, reliable);
        let w = run(ActivityMode::Scheduled, reliable);
        let what = if reliable { "reliable" } else { "bare" };
        assert_eq!(
            e.0, w.0,
            "{what}: exhaustive vs scheduled responses diverged"
        );
        assert_eq!(
            e.1, w.1,
            "{what}: exhaustive vs scheduled cycle counts diverged"
        );
        assert_eq!(e.2.cycles_simulated, w.2.cycles_simulated, "{what}");
        assert_eq!(
            e.2.stage_busy, w.2.stage_busy,
            "{what}: busy accounting diverged"
        );
        assert_eq!(e.3, w.3, "{what}: per-host link stats diverged");
        assert!(
            w.2.cycles_stepped < e.2.cycles_stepped,
            "{what}: scheduled stepped {} vs exhaustive {}",
            w.2.cycles_stepped,
            e.2.cycles_stepped
        );
        assert!(w.2.wheel.wakes_fired > 0, "{what}: no deadline reached");
        let faults: u64 =
            w.3.iter()
                .map(|st| st.frames_dropped + st.frames_corrupted)
                .sum();
        assert_eq!(reliable, faults > 0, "{what}: {:?}", w.3);
        streams.push(w.0);
    }
    assert_eq!(streams[0], streams[1], "reliable ports changed the answers");
}

#[test]
fn reliable_ports_resync_past_magic_looking_operands() {
    // Dropped frames, with every operand's top byte the data-segment magic
    // (0xD5) and its length byte 1: a receiver knocked out of frame
    // alignment takes the operand for a one-word segment's header, which
    // swallows the next segment's header. One-word segments (window 2)
    // keep every go-back-N resend framed as the last one, so the same
    // misframing recurs at each resend unless a failed check resyncs
    // frame by frame. At these seeds, frame-by-frame resync gets every
    // reply within 1 500 cycles; dropping the whole buffer after a failed
    // check instead stalls some reply behind backed-off timeouts for over
    // 100 000 cycles on each.
    use fu_host::FaultModel;
    use fu_isa::transport::{TransportConfig, DATA_MAGIC};

    const HOSTS: usize = 4;
    const TRIPS: u16 = 150;
    const REPLY_BUDGET: u64 = 20_000;
    let link = LinkModel::tightly_coupled();
    let tcfg = TransportConfig {
        window: 2,
        ..TransportConfig::for_link(link.latency_cycles, link.cycles_per_frame)
    };
    for seed in [0u64, 3, 7] {
        let units: Vec<Box<dyn FunctionalUnit>> = vec![Box::new(LatencyFu::new("add", 1, 1))];
        let faults = FaultModel {
            drop_permille: 20,
            ..FaultModel::none(seed)
        };
        let mut s = MultiHostSystem::new_reliable(
            CoprocConfig::default(),
            units,
            link,
            HOSTS,
            tcfg,
            Some(faults),
        )
        .unwrap();
        for trip in 0..TRIPS {
            for host in 0..HOSTS {
                let value = DATA_MAGIC << 24 | 1 << 16 | u32::from(trip) << 2 | host as u32;
                let reg = host as u8 + 1;
                s.send(
                    host,
                    &HostMsg::WriteReg {
                        reg,
                        value: Word::from_u64(value.into(), 32),
                    },
                );
                let tag = s.brand_tag(host, trip);
                s.send(host, &HostMsg::ReadReg { reg, tag });
                let reply = s.recv_blocking(host, REPLY_BUDGET).unwrap_or_else(|e| {
                    panic!("seed {seed}: host {host} stalled on trip {trip}: {e:?}")
                });
                assert_eq!(
                    reply,
                    DevMsg::Data {
                        tag,
                        value: Word::from_u64(value.into(), 32)
                    },
                    "seed {seed}, host {host}, trip {trip}"
                );
            }
        }
        // Each drop misframes a segment, which the receiver rejects
        // before it resyncs onto the next header.
        let stats: Vec<_> = (0..HOSTS).map(|h| s.link_stats(h)).collect();
        let dropped: u64 = stats.iter().map(|l| l.frames_dropped).sum();
        let rejected: u64 = stats.iter().map(|l| l.rejected).sum();
        assert!(dropped > 0, "seed {seed}: no frame was dropped");
        assert!(rejected >= dropped, "seed {seed}: {stats:?}");
    }
}

#[test]
fn reliable_closed_loop_skips_to_each_transmit_event() {
    // Four closed-loop hosts on fault-free reliable prototyping-link
    // ports (the CI smoke). A reliable end puts a whole segment on the
    // wire at once and a receiver wakes only at the frame that completes
    // one, so the scheduled kernel steps for its hosts at most once per
    // segment or ack sent — and stays bit-identical to the exhaustive
    // reference.
    use bench::profile::reliable_smoke;
    use fu_rtm::ActivityMode;
    let e = reliable_smoke(ActivityMode::Exhaustive);
    let w = reliable_smoke(ActivityMode::Scheduled);
    assert_eq!(e.replies, w.replies, "replies diverged");
    assert_eq!(e.cycle, w.cycle, "cycle counts diverged");
    assert_eq!(e.links, w.links, "per-host link stats diverged");
    assert_eq!(
        e.sim.stage_busy, w.sim.stage_busy,
        "busy accounting diverged"
    );
    for s in [&e.sim, &w.sim] {
        assert_eq!(
            s.step_reasons.total(),
            s.cycles_stepped,
            "{:?}",
            s.step_reasons
        );
    }
    let ls: fu_host::LinkStats = w.links.iter().copied().sum();
    assert_eq!(ls.retransmits, 0, "a fault-free link retransmitted");
    let segments = ls.segments_sent + ls.acks_sent;
    assert!(
        w.sim.step_reasons.host <= segments,
        "stepped {} cycles for host events over {segments} segments and acks",
        w.sim.step_reasons.host
    );
}

#[test]
fn reliable_send_behind_a_closed_gate_skips_to_its_reopening() {
    // A send made while the host's bandwidth gate is closed and its
    // endpoint has nothing else to send must jump straight to the gate's
    // reopening rather than stepping every cycle up to it.
    use fu_isa::transport::{TransportConfig, DATA_SEGMENT_FRAMES};
    use fu_rtm::ActivityMode;
    let link = LinkModel::prototyping();
    let tcfg = TransportConfig::for_link(link.latency_cycles, link.cycles_per_frame);
    let run = |mode: ActivityMode| {
        let units: Vec<Box<dyn FunctionalUnit>> = vec![Box::new(LatencyFu::new("add", 1, 1))];
        let mut s =
            MultiHostSystem::new_reliable(CoprocConfig::default(), units, link, 1, tcfg, None)
                .unwrap();
        s.set_activity_mode(mode);
        let write = HostMsg::WriteReg {
            reg: 1,
            value: Word::from_u64(7, 32),
        };
        // The write travels as one data segment, one wire frame every 50
        // cycles from cycle 0: the last one goes out at `last`, and the
        // gate stays closed until `last + 50`.
        let wire = (write.frame_len(32) + DATA_SEGMENT_FRAMES - 1) as u64;
        let last = (wire - 1) * link.cycles_per_frame;
        s.send(0, &write);
        assert!(
            s.recv_blocking(0, last + 1).is_err(),
            "nothing to receive yet"
        );
        assert_eq!(s.cycle(), last + 1);
        let stepped = s.sim_stats().cycles_stepped;
        s.send(
            0,
            &HostMsg::ReadReg {
                reg: 1,
                tag: s.brand_tag(0, 0),
            },
        );
        let gap = link.cycles_per_frame - 1;
        assert!(s.recv_blocking(0, gap).is_err(), "nothing to receive yet");
        assert_eq!(s.cycle(), last + link.cycles_per_frame);
        let waited = s.sim_stats().cycles_stepped - stepped;
        let reply = s.recv_blocking(0, 1_000_000).unwrap();
        (waited, reply, s.cycle(), s.link_stats(0))
    };
    let (waited, reply, cycle, links) = run(ActivityMode::Scheduled);
    assert_eq!(waited, 0, "stepped {waited} cycles waiting for the gate");
    assert!(matches!(reply, DevMsg::Data { ref value, .. } if value.as_u64() == 7));
    let (stepped_all, e_reply, e_cycle, e_links) = run(ActivityMode::Exhaustive);
    assert_eq!(stepped_all, link.cycles_per_frame - 1);
    assert_eq!((reply, cycle, links), (e_reply, e_cycle, e_links));
}

#[test]
fn a_reliable_host_wakes_once_per_segment() {
    // One host on a reliable prototyping-link port sends k writes and a
    // sync. Their payload fits one segment (half the 16-word window), so
    // the host end stages it once and each receiver wakes at the frame
    // that completes a segment: the host-event steps must not grow with
    // k, though every write adds two wire frames. A one-host `System` and
    // a one-host `MultiHostSystem` are one drive loop, so both must step
    // alike.
    use fu_host::System;
    use fu_isa::transport::TransportConfig;
    let link = LinkModel::prototyping();
    let tcfg = TransportConfig::for_link(link.latency_cycles, link.cycles_per_frame);
    let writes = |k: u64| {
        (0..k).map(|i| HostMsg::WriteReg {
            reg: 1,
            value: Word::from_u64(i, 32),
        })
    };
    let units = || -> Vec<Box<dyn FunctionalUnit>> { vec![Box::new(LatencyFu::new("add", 1, 1))] };
    let multi_steps = |k: u64| {
        let mut s =
            MultiHostSystem::new_reliable(CoprocConfig::default(), units(), link, 1, tcfg, None)
                .unwrap();
        writes(k).for_each(|w| s.send(0, &w));
        let tag = s.brand_tag(0, 1);
        s.send(0, &HostMsg::Sync { tag });
        let reply = s.recv_blocking(0, 1_000_000).unwrap();
        assert_eq!(reply, DevMsg::SyncAck { tag });
        (s.link_stats(0), s.cycle(), s.sim_stats())
    };
    let single_steps = |k: u64| {
        let mut s =
            System::new_reliable(CoprocConfig::default(), units(), link, tcfg, None).unwrap();
        writes(k).for_each(|w| s.send(&w));
        let tag = 1;
        s.send(&HostMsg::Sync { tag });
        let reply = s.recv_blocking(1_000_000).unwrap();
        assert_eq!(reply, DevMsg::SyncAck { tag });
        (s.link_stats(), s.cycle(), s.sim_stats())
    };
    let mut steps = Vec::new();
    for k in 1..=3 {
        let (multi, single) = (multi_steps(k), single_steps(k));
        assert_eq!((multi.0, multi.1), (single.0, single.1), "k = {k}");
        assert_eq!(multi.2.step_reasons, single.2.step_reasons, "k = {k}");
        let st = multi.0;
        assert_eq!((st.segments_sent, st.retransmits), (2, 0), "k = {k}");
        steps.push(multi.2.step_reasons.host);
    }
    assert!(steps.iter().all(|&n| n == steps[0]), "{steps:?}");
}

/// What a mode change must leave untouched: every host's replies, the
/// cycle the system parked at, per-host link statistics, stage busy-ness
/// and every host's link trace sorted by cycle.
type Observed = (
    Vec<Vec<DevMsg>>,
    u64,
    Vec<fu_host::LinkStats>,
    Vec<(&'static str, u64)>,
    Vec<Vec<rtl_sim::TraceEvent>>,
);

/// One multi-host run of `ops` under `mode`. Each op is (host, kind,
/// value, wait, gap): the system first runs `gap` cycles, so a send may
/// land while its host's earlier frames are still on the wire; then
/// kind 0 writes the host's register, 1 reads it back, 2 syncs and 3
/// runs an add on it; a read or sync with `wait` set blocks until every
/// reply its host is owed has arrived, so the hosts mix closed- and
/// open-loop traffic.
fn run_traffic(
    mode: fu_rtm::ActivityMode,
    n_hosts: usize,
    link: LinkModel,
    reliable: Option<u32>,
    seed: u64,
    ops: &[(usize, u8, u32, bool, u8)],
) -> Observed {
    use fu_host::FaultModel;
    use fu_isa::transport::TransportConfig;
    const BUDGET: u64 = 5_000_000;
    let units: Vec<Box<dyn FunctionalUnit>> = vec![Box::new(LatencyFu::new("add", 1, 3))];
    let cfg = CoprocConfig::default();
    let mut s = match reliable {
        Some(permille) => {
            let tcfg = TransportConfig::for_link(link.latency_cycles, link.cycles_per_frame);
            let faults = FaultModel::uniform(seed, permille);
            MultiHostSystem::new_reliable(cfg, units, link, n_hosts, tcfg, Some(faults))
        }
        None => MultiHostSystem::new(cfg, units, link, n_hosts),
    }
    .unwrap();
    s.set_activity_mode(mode);
    s.set_trace_depth(1 << 16);
    let mut replies = vec![Vec::new(); n_hosts];
    let mut owed = vec![0usize; n_hosts];
    for (i, &(pick, kind, value, wait, gap)) in ops.iter().enumerate() {
        // Runs out its budget by design: `gap` cycles, skipped or stepped.
        let _ = s.run_until(gap.into(), |_| false);
        let host = pick % n_hosts;
        let reg = host as u8 + 1;
        let tag = s.brand_tag(host, i as u16);
        let msg = match kind {
            0 => HostMsg::WriteReg {
                reg,
                value: Word::from_u64(value.into(), 32),
            },
            1 => HostMsg::ReadReg { reg, tag },
            2 => HostMsg::Sync { tag },
            _ => HostMsg::Instr(fu_isa::InstrWord::user(fu_isa::UserInstr {
                func: 1,
                variety: 0,
                dst_flag: 1,
                dst_reg: reg,
                aux_reg: 0,
                src1: reg,
                src2: reg,
                src3: 0,
            })),
        };
        s.send(host, &msg);
        if matches!(kind, 1 | 2) {
            owed[host] += 1;
            while wait && owed[host] > 0 {
                replies[host].push(s.recv_blocking(host, BUDGET).unwrap());
                owed[host] -= 1;
            }
        }
    }
    for (host, n) in owed.into_iter().enumerate() {
        for _ in 0..n {
            replies[host].push(s.recv_blocking(host, BUDGET).unwrap());
        }
    }
    util::settle(&mut s, BUDGET);
    for (host, r) in replies.iter_mut().enumerate() {
        r.extend(std::iter::from_fn(|| s.recv(host)));
    }
    let sim = s.sim_stats();
    assert_eq!(sim.step_reasons.total(), sim.cycles_stepped, "{mode:?}");
    let links = (0..n_hosts).map(|h| s.link_stats(h)).collect();
    let traces = (0..n_hosts)
        .map(|h| {
            let trace = s.link_trace(h);
            assert_eq!(trace.dropped(), 0, "the trace ring overflowed");
            let mut events: Vec<_> = trace.events().copied().collect();
            events.sort_by_key(|e| e.cycle);
            events
        })
        .collect();
    (replies, s.cycle(), links, sim.stage_busy, traces)
}

proptest::proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(16))]

    /// The scheduled kernel pumps only the ports whose cached wake is
    /// due, or that the router just handed a response, and feeds only
    /// once a port is ready; the exhaustive reference pumps every port
    /// and feeds every cycle. Over any host count, port kind, fault rate
    /// and traffic mix, sends landing mid-message included, and on every
    /// link preset (the ideal one too, where a port is ready on most
    /// cycles), the two must agree on every reply, the final cycle, every
    /// port's link statistics, stage busy-ness and every port's link
    /// trace.
    #[test]
    fn wake_cache_matches_per_cycle_pumping(
        seed in proptest::prelude::any::<u64>(),
        n_hosts in 1usize..=5,
        reliable in proptest::prelude::any::<bool>(),
        permille in 0u32..=150,
        ops in proptest::collection::vec(
            (
                0usize..5,
                0u8..4,
                proptest::prelude::any::<u32>(),
                proptest::prelude::any::<bool>(),
                proptest::prelude::any::<u8>(),
            ),
            1..16,
        ),
    ) {
        use fu_rtm::ActivityMode;
        let reliable = reliable.then_some(permille);
        for link in LinkModel::presets() {
            let run = |mode| run_traffic(mode, n_hosts, link, reliable, seed, &ops);
            let (e, w) = (run(ActivityMode::Exhaustive), run(ActivityMode::Scheduled));
            let what = format!("{} hosts, {}, {reliable:?}, seed {seed:#x}", n_hosts, link.name);
            proptest::prop_assert_eq!(&e.0, &w.0, "replies diverged: {}", what);
            proptest::prop_assert_eq!(e.1, w.1, "final cycle diverged: {}", what);
            proptest::prop_assert_eq!(&e.2, &w.2, "link statistics diverged: {}", what);
            proptest::prop_assert_eq!(&e.3, &w.3, "stage busy-ness diverged: {}", what);
            proptest::prop_assert!(e.4 == w.4, "link traces diverged: {}", what);
        }
    }
}

#[test]
fn rollback_recovery_masks_device_and_link_faults_on_two_hosts() {
    // Two reliable hosts on pcie-like ports with link faults, a machine
    // with parity, DMR and SEU strikes, and rollback recovery, driven only
    // through blocking receives. Every host's reply stream must be the
    // fault-free one, and some rollback must land inside a blocking
    // receive and rewind the clock below the cycle that receive began at.
    //
    // Strikes hit flag files, result latches and scoreboard tickets, not
    // stored registers: a `ReadReg` whose own read trips parity still
    // answers with the corrupt word, and its `SoftError` leaves after it,
    // so a reply taken before a split segment brings the error escapes
    // the rollback. That device-side ordering fails a one-host system in
    // the same way.
    use fu_host::FaultModel;
    use fu_isa::transport::TransportConfig;
    use fu_rtm::{Redundancy, SeuConfig};
    use rtl_sim::TraceEventKind;
    const TRIPS: u16 = 60;
    let link = LinkModel::pcie_like();
    let tcfg = TransportConfig::for_link(link.latency_cycles, link.cycles_per_frame);
    let base = CoprocConfig::default()
        .with_parity()
        .with_redundancy(Redundancy::Dmr);
    let word = |v: u64| Word::from_u64(v, 32);
    let add = |dst: u8, src: u8| {
        HostMsg::Instr(fu_isa::InstrWord::user(fu_isa::UserInstr {
            func: 1,
            variety: 0,
            dst_flag: 1,
            dst_reg: dst,
            aux_reg: 0,
            src1: dst,
            src2: src,
            src3: 0,
        }))
    };
    let run = |cfg: CoprocConfig, faults: Option<FaultModel>| {
        let units: Vec<Box<dyn FunctionalUnit>> = vec![Box::new(LatencyFu::new("add", 1, 3))];
        let mut s = MultiHostSystem::new_reliable(cfg, units, link, 2, tcfg, faults).unwrap();
        s.set_trace_depth(1 << 16);
        s.enable_recovery(16).unwrap();
        let mut streams = vec![Vec::new(); 2];
        let mut rewound_below_start = false;
        for t in 0..TRIPS {
            for host in 0..2usize {
                // Host h adds r(2h+2) to r(2h+1).
                let (ra, rb) = (2 * host as u8 + 1, 2 * host as u8 + 2);
                let (a, b) = (u64::from(t), 1000 * host as u64 + u64::from(t % 7));
                s.send(
                    host,
                    &HostMsg::WriteReg {
                        reg: ra,
                        value: word(a),
                    },
                );
                s.send(
                    host,
                    &HostMsg::WriteReg {
                        reg: rb,
                        value: word(b),
                    },
                );
                s.send(host, &add(ra, rb));
                let tag = s.brand_tag(host, t);
                s.send(host, &HostMsg::ReadReg { reg: ra, tag });
            }
            for (host, stream) in streams.iter_mut().enumerate() {
                let (start, before) = (s.cycle(), s.recovery_stats().rollbacks);
                stream.push(s.recv_blocking(host, 50_000_000).unwrap());
                // The link trace keeps every rollback, so the newest
                // rollback event is the last rollback this receive took.
                let last = s.link_trace(0).events().fold(None, |last, e| match e.kind {
                    TraceEventKind::Rollback { to_cycle, .. } => Some(to_cycle),
                    _ => last,
                });
                let rolled_back = s.recovery_stats().rollbacks > before;
                rewound_below_start |= rolled_back && last.is_some_and(|c| c < start);
            }
        }
        util::settle(&mut s, 50_000_000);
        let trace = s.link_trace(0);
        assert_eq!(trace.dropped(), 0, "the trace ring overflowed");
        let rollback_events = trace
            .events()
            .filter(|e| matches!(e.kind, TraceEventKind::Rollback { .. }))
            .count() as u64;
        let r = s.recovery_stats();
        assert_eq!(
            rollback_events, r.rollbacks,
            "a rollback event went missing"
        );
        let links: fu_host::LinkStats = (0..2).map(|h| s.link_stats(h)).sum();
        (streams, r, rewound_below_start, links)
    };
    let (clean, ..) = run(base.clone(), None);
    let faults = FaultModel::uniform(0xFA_175, 40);
    let seu = SeuConfig {
        regfile: false,
        ..SeuConfig::all(0xD00D, 300)
    };
    let (faulty, r, rewound, links) = run(base.with_seu(seu), Some(faults));
    assert_eq!(faulty, clean, "a host's reply stream diverged: {r:?}");
    assert!(r.rollbacks > 0, "no rollback happened: {r:?}");
    assert!(
        rewound,
        "no rollback rewound below a blocking receive's start: {r:?}"
    );
    assert!(
        links.frames_dropped + links.frames_corrupted > 0,
        "no link fault fired: {links:?}"
    );
}
