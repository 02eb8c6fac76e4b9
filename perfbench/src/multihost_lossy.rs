//! `multihost_lossy`: closed-loop hosts sharing one coprocessor over the
//! prototyping link and the reliable transport.
//!
//! `MultiHostSystem::new_reliable` with four hosts and the paper's slow
//! prototyping link, stepped on one thread in the default activity mode.
//! Each host writes an operand, adds it to a constant it loaded once,
//! reads the sum back and waits for the reply before sending its next
//! request. Simulated time is link latency and transport pacing; host
//! time is idle fast-forward and transport.
//!
//! The fault model is installed but injects nothing by default. With any
//! injected fault class, some seeds livelock the transport: once a lost
//! or skipped frame misaligns a receiver, a segment whose CRC frame (or
//! payload) starts with a segment magic byte (0xD5 data, 0xAC ack) is
//! framed from that frame on every resend, so it is never delivered and
//! its host never gets a reply. A benchmark workload must not fail, so
//! the rate stays 0 until the transport resynchronises.
//!
//! Closed loop: a host's next request leaves only after its reply has
//! been observed, so a slower system receives less load. Replies are
//! observed by blocking on the host that has waited longest, then
//! collecting any other host's reply that has already arrived; a reply's
//! latency runs from its request's send cycle to the cycle it was
//! observed.

use std::collections::VecDeque;
use std::sync::Arc;

use fu_host::{FaultModel, LinkModel, LinkStats, MultiHostSystem};
use fu_isa::transport::{TransportConfig, ACK_SEGMENT_FRAMES, DATA_SEGMENT_FRAMES};
use fu_isa::{funit_codes, ArithOp, DevMsg, HostMsg, InstrWord, UserInstr, Word};
use fu_rtm::{CoprocConfig, FunctionalUnit};

use crate::reference::Rng;
use crate::trace::{self, wrap_units, Tracer};
use crate::workload::{sim_layer, standard_units_32, Outcome, Workload};

/// Cycle budget for one blocking receive.
const RECV_BUDGET: u64 = 5_000_000;

/// The `multihost_lossy` shape.
#[derive(Debug, Clone, Copy)]
pub struct MultihostLossy {
    /// Host CPUs sharing the coprocessor.
    pub hosts: usize,
    /// Round trips each host makes.
    pub trips_per_host: usize,
    /// Frames corrupted, in permille (0 by default; see the module docs).
    pub corrupt_permille: u32,
    /// Send → reply latency limit, in cycles.
    pub slo_limit: u64,
    /// The functional units every system is built with.
    pub units: fn() -> Vec<Box<dyn FunctionalUnit>>,
}

impl Default for MultihostLossy {
    fn default() -> MultihostLossy {
        MultihostLossy {
            hosts: 4,
            trips_per_host: 900,
            corrupt_permille: 0,
            slo_limit: 20_000,
            units: standard_units_32,
        }
    }
}

/// Generated operands for one seed.
#[derive(Debug, Clone)]
pub struct Input {
    /// Fault-model seed.
    pub fault_seed: u64,
    /// The constant each host loads once.
    pub bias: Vec<u32>,
    /// Each host's operand per round trip.
    pub operands: Vec<Vec<u32>>,
}

/// `(operand, constant, sum)` registers host `h` uses.
fn regs(h: usize) -> (u8, u8, u8) {
    let base = 4 + 3 * h as u8;
    (base, base + 1, base + 2)
}

fn write(reg: u8, v: u32) -> HostMsg {
    HostMsg::WriteReg {
        reg,
        value: Word::from_u64(u64::from(v), 32),
    }
}

/// Per-host closed-loop state.
struct Host {
    next: usize,
    sent_at: u64,
    tag: u16,
    expect: u32,
}

impl Workload for MultihostLossy {
    type Input = Input;
    type Sys = MultiHostSystem;

    fn prepare(&self, seed: u64) -> Input {
        let mut rng = Rng::new(seed, 0x4057);
        let fault_seed = rng.next_u64();
        // Operands stay below 2^23, so no value frame's top byte looks like
        // a segment magic (see the module docs).
        let mut operand = || rng.next_u32() >> 9;
        let bias = (0..self.hosts).map(|_| operand()).collect();
        let operands = (0..self.hosts)
            .map(|_| (0..self.trips_per_host).map(|_| operand()).collect())
            .collect();
        Input {
            fault_seed,
            bias,
            operands,
        }
    }

    fn build(&self, input: &Input, tracer: Option<&Arc<Tracer>>) -> MultiHostSystem {
        let link = LinkModel::prototyping();
        let units = match tracer {
            None => (self.units)(),
            Some(t) => wrap_units((self.units)(), t),
        };
        MultiHostSystem::new_reliable(
            CoprocConfig::default(),
            units,
            link,
            self.hosts,
            TransportConfig::for_link(link.latency_cycles, link.cycles_per_frame),
            Some(FaultModel {
                corrupt_permille: self.corrupt_permille,
                ..FaultModel::none(input.fault_seed)
            }),
        )
        .expect("four hosts fit the tag space")
    }

    fn run(&self, input: &Input, mut sys: MultiHostSystem, tracer: Option<&Tracer>) -> Outcome {
        let mut out = Outcome {
            offered: (self.hosts * self.trips_per_host) as u64,
            slo_limit: self.slo_limit,
            ..Outcome::default()
        };
        let (mut frames_to_dev, mut frames_to_host) = (0u64, 0u64);
        let mut send = |sys: &mut MultiHostSystem, h: usize, msg: HostMsg| {
            frames_to_dev += msg.frame_len(32) as u64;
            trace::span(tracer, "multihost.send", || sys.send(h, &msg));
        };
        let mut hosts: Vec<Host> = (0..self.hosts)
            .map(|_| Host {
                next: 0,
                sent_at: 0,
                tag: 0,
                expect: 0,
            })
            .collect();
        let mut request = |sys: &mut MultiHostSystem, h: usize, host: &mut Host| {
            let (ra, rb, rd) = regs(h);
            let x = input.operands[h][host.next];
            host.tag = sys.brand_tag(h, (host.next % 1024) as u16);
            host.expect = x.wrapping_add(input.bias[h]);
            host.sent_at = sys.cycle();
            if host.next == 0 {
                // The constant, loaded once ahead of the first add.
                send(sys, h, write(rb, input.bias[h]));
            }
            host.next += 1;
            send(sys, h, write(ra, x));
            send(
                sys,
                h,
                HostMsg::Instr(InstrWord::user(UserInstr {
                    func: funit_codes::ARITH,
                    variety: ArithOp::Add.variety().0,
                    dst_flag: h as u8,
                    dst_reg: rd,
                    aux_reg: 0,
                    src1: ra,
                    src2: rb,
                    src3: 0,
                })),
            );
            send(
                sys,
                h,
                HostMsg::ReadReg {
                    reg: rd,
                    tag: host.tag,
                },
            );
        };

        // Oldest outstanding request first.
        let mut waiting: VecDeque<usize> = VecDeque::new();
        if self.trips_per_host > 0 {
            for (h, host) in hosts.iter_mut().enumerate() {
                request(&mut sys, h, host);
                waiting.push_back(h);
            }
        }
        while let Some(h) = waiting.pop_front() {
            let got = trace::span(tracer, "multihost.recv_blocking", || {
                sys.recv_blocking(h, RECV_BUDGET)
            });
            let mut ready = vec![(h, got.ok())];
            for &g in &waiting {
                if let Some(m) = sys.recv(g) {
                    ready.push((g, Some(m)));
                }
            }
            waiting.retain(|g| !ready.iter().any(|(r, _)| r == g));
            for (g, msg) in ready {
                let host = &mut hosts[g];
                match msg {
                    Some(m) => {
                        frames_to_host += m.frames(32).count() as u64;
                        let ok = matches!(
                            m,
                            DevMsg::Data { tag, value }
                                if tag == host.tag && value.as_u64() == u64::from(host.expect)
                        );
                        if ok {
                            out.verified += 1;
                            out.latencies.push(sys.cycle() - host.sent_at);
                        } else {
                            out.errors += 1;
                        }
                    }
                    None => {
                        // The host timed out: its remaining trips fail.
                        out.errors += (self.trips_per_host - host.next + 1) as u64;
                        continue;
                    }
                }
                if host.next < self.trips_per_host {
                    request(&mut sys, g, host);
                    waiting.push_back(g);
                }
            }
        }
        out.makespan = sys.cycle();

        sim_layer(&mut out, &sys.sim_stats());
        let ls: LinkStats = (0..self.hosts).map(|h| sys.link_stats(h)).sum();
        let wire = DATA_SEGMENT_FRAMES as u64 * (ls.segments_sent + ls.retransmits)
            + ACK_SEGMENT_FRAMES as u64 * ls.acks_sent;
        let l = &mut out.layer;
        l.insert("link.frames_to_dev", frames_to_dev as f64);
        l.insert("link.frames_to_host", frames_to_host as f64);
        l.insert("link.segments_sent", ls.segments_sent as f64);
        l.insert("link.retransmits", ls.retransmits as f64);
        l.insert("link.acks_sent", ls.acks_sent as f64);
        l.insert("link.frames_dropped", ls.frames_dropped as f64);
        l.insert("link.frames_corrupted", ls.frames_corrupted as f64);
        l.insert(
            "link.goodput",
            if wire == 0 {
                0.0
            } else {
                (frames_to_dev + frames_to_host) as f64 / wire as f64
            },
        );
        out
    }
}
