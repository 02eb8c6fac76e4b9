//! Property tests for the simulation-kernel primitives: the handshake
//! and FIFO invariants the whole reproduction rests on, under arbitrary
//! operation sequences.

use std::collections::VecDeque;

use proptest::prelude::*;
use rtl_sim::{Clocked, Fifo, HandshakeSlot, StallFuzzer};

proptest! {
    /// A HandshakeSlot never loses, duplicates or reorders items under
    /// any pattern of producer/consumer activity.
    #[test]
    fn handshake_slot_is_a_faithful_channel(
        seed: u64,
        p_produce in 0.1f64..1.0,
        p_consume in 0.1f64..1.0,
        cycles in 10usize..400,
    ) {
        let mut produce = StallFuzzer::new(seed, 1.0 - p_produce);
        let mut consume = StallFuzzer::new(seed ^ 0x9e37, 1.0 - p_consume);
        let mut slot = HandshakeSlot::new();
        let mut next = 0u64;
        let mut got = Vec::new();
        for _ in 0..cycles {
            // sink first (full-throughput convention)
            if !consume.stall() {
                if let Some(v) = slot.take() {
                    got.push(v);
                }
            }
            if !produce.stall() && slot.can_push() {
                slot.push(next);
                next += 1;
            }
            slot.commit();
        }
        // Drain.
        while let Some(v) = slot.take() {
            got.push(v);
            slot.commit();
        }
        let n_got = got.len() as u64;
        prop_assert_eq!(got, (0..n_got).collect::<Vec<_>>());
        prop_assert!(n_got <= next);
        prop_assert!(next - n_got <= 1, "at most one item may remain staged");
    }

    /// A FIFO of any depth behaves as a perfect queue under arbitrary
    /// push/pop interleavings.
    #[test]
    fn fifo_is_a_faithful_queue(
        seed: u64,
        depth in 1usize..16,
        cycles in 10usize..400,
        p_produce in 0.1f64..1.0,
        p_consume in 0.1f64..1.0,
    ) {
        let mut produce = StallFuzzer::new(seed, 1.0 - p_produce);
        let mut consume = StallFuzzer::new(seed ^ 0x1234, 1.0 - p_consume);
        let mut fifo = Fifo::new(depth);
        let mut next = 0u64;
        let mut got = Vec::new();
        for _ in 0..cycles {
            if !consume.stall() {
                if let Some(v) = fifo.pop() {
                    got.push(v);
                }
            }
            if !produce.stall() && fifo.can_push() {
                fifo.push(next);
                next += 1;
            }
            fifo.commit();
            prop_assert!(fifo.len() <= depth, "occupancy bound violated");
        }
        while let Some(v) = fifo.pop() {
            got.push(v);
            fifo.commit();
        }
        let n_got = got.len() as u64;
        prop_assert_eq!(got, (0..n_got).collect::<Vec<_>>());
        prop_assert_eq!(n_got, next, "a drained FIFO returns everything");
    }

    /// Burst pushes never exceed capacity and preserve order.
    #[test]
    fn fifo_burst_discipline(depth in 1usize..12, bursts in 1usize..40, seed: u64) {
        let mut rng = StallFuzzer::new(seed, 0.0);
        let mut fifo = Fifo::new(depth);
        let mut next = 0u64;
        let mut got = Vec::new();
        for _ in 0..bursts {
            let burst = rng.below(depth as u64 + 2);
            for _ in 0..burst {
                if fifo.can_push() {
                    fifo.push(next);
                    next += 1;
                }
            }
            fifo.commit();
            let drain = rng.below(depth as u64 + 2);
            for _ in 0..drain {
                if let Some(v) = fifo.pop() {
                    got.push(v);
                }
            }
            fifo.commit();
        }
        got.extend(fifo.drain_all());
        prop_assert_eq!(got, (0..next).collect::<Vec<_>>());
    }

    /// The commit fast paths keep staged pushes invisible until the clock
    /// edge. Under an arbitrary push / burst / take / commit sequence, a
    /// slot's and a FIFO's items match a naive model whose every edge
    /// moves its staged items; after every operation the slot's
    /// occupancy and the FIFO's `len`, `space`, `can_push`, `peek`,
    /// `is_empty` and `is_idle` match the model too.
    #[test]
    fn commit_fast_paths_match_a_naive_model(
        depth in 1usize..6,
        ops in proptest::collection::vec((0u8..5, 1usize..7), 0..300),
    ) {
        let mut slot = HandshakeSlot::new();
        let mut fifo = Fifo::new(depth);
        // Model: (held, staged) for the slot and for the FIFO.
        let (mut s_cur, mut s_in) = (None, None);
        let (mut f_cur, mut f_in) = (VecDeque::new(), Vec::new());
        let mut next = 0usize;
        for (op, burst) in ops {
            match op {
                0 | 1 => {
                    // One push, or a burst of up to the full depth in one
                    // cycle (a wide link delivering several frames).
                    let n = if op == 0 { 1 } else { burst.min(depth) };
                    if s_cur.is_none() && s_in.is_none() {
                        slot.push(next);
                        s_in = Some(next);
                    }
                    for _ in 0..n {
                        if f_cur.len() + f_in.len() < depth {
                            fifo.push(next);
                            f_in.push(next);
                        }
                        next += 1;
                    }
                }
                2 => {
                    prop_assert_eq!(slot.take(), s_cur.take());
                    prop_assert_eq!(fifo.pop(), f_cur.pop_front());
                }
                _ => {
                    slot.commit();
                    if s_cur.is_none() {
                        s_cur = s_in.take();
                    }
                    fifo.commit();
                    f_cur.extend(f_in.drain(..));
                }
            }
            prop_assert_eq!(slot.occupancy(), (s_cur.is_some(), s_in.is_some()));
            let held = f_cur.len() + f_in.len();
            prop_assert_eq!(fifo.len(), f_cur.len());
            prop_assert_eq!(fifo.space(), depth - held);
            prop_assert_eq!(fifo.can_push(), held < depth);
            prop_assert_eq!(fifo.peek(), f_cur.front());
            prop_assert_eq!(fifo.is_empty(), f_cur.is_empty());
            prop_assert_eq!(fifo.is_idle(), held == 0);
        }
    }
}
