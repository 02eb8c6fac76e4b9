//! A fixed reference computation that measures how fast the host is
//! right now.
//!
//! On a virtual machine shared with other tenants the same code runs up
//! to a third slower for minutes at a time: a neighbour on the sibling
//! hyperthread or in the shared cache slows every instruction, and CPU
//! time grows with it as much as wall time does. So a raw time says as
//! much about the neighbours as about the program. The benchmark times
//! this yardstick right before and after every timed section and divides:
//! the quotient moves with the program and not with the machine. The
//! yardstick is the benchmark's own code, so no change to the program
//! under test can change it.
//!
//! Its work is the kind the simulator's host loop does: small branchy
//! interpreters, text formatting, a priority queue of timed events, short
//! sorts and allocation, all on inputs of one fixed seed.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;

use crate::clock::process_cpu_s;
use crate::reference::{ArithProgram, Rng};

/// CPU seconds the yardstick takes on the reference host. Host times are
/// reported as the CPU time the same work would take there: a measured
/// CPU time is scaled by this over the yardstick time around it.
pub const REFERENCE_S: f64 = 0.025;

const PROGRAMS: usize = 640;
const EVENTS: u64 = 64_000;
const SORTS: usize = 960;

/// One pass of the reference work; returns a checksum so none of it can
/// be optimised away.
fn work() -> u64 {
    let mut rng = Rng::new(0x5EED, 0x7A5D);
    let mut sum = 0u64;
    for _ in 0..PROGRAMS {
        let p = ArithProgram::random(&mut rng, 64);
        sum = sum.wrapping_add(p.source().len() as u64);
        sum = sum.wrapping_add(p.expected().iter().map(|&r| u64::from(r)).sum::<u64>());
    }
    let mut events = BinaryHeap::new();
    for i in 0..EVENTS {
        events.push(Reverse((rng.below(1 << 20), i)));
        if i % 2 == 1 {
            let Reverse((t, _)) = events.pop().expect("pushed two, popped one");
            sum = sum.wrapping_add(t);
        }
    }
    for _ in 0..SORTS {
        let mut v: Vec<u32> = (0..64).map(|_| rng.next_u32()).collect();
        v.sort_unstable();
        sum = sum.wrapping_add(u64::from(v[32]));
    }
    sum
}

/// CPU seconds for one pass of the reference work, on the calling
/// thread while no other thread of the process runs.
#[must_use]
pub fn measure() -> f64 {
    let c0 = process_cpu_s();
    black_box(work());
    process_cpu_s() - c0
}

/// `seconds` of CPU time measured between two yardstick timings `before`
/// and `after`, expressed as CPU seconds on the reference host.
#[must_use]
pub fn scale(seconds: f64, before: f64, after: f64) -> f64 {
    seconds * REFERENCE_S / ((before + after) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_is_fixed() {
        assert_eq!(work(), work());
        assert!(measure() > 0.0);
    }

    #[test]
    fn scale_is_relative_to_the_reference() {
        let r = REFERENCE_S;
        assert!((scale(1.0, r, r) - 1.0).abs() < 1e-12);
        // A host running everything twice as slowly.
        assert!((scale(2.0, 2.0 * r, 2.0 * r) - 1.0).abs() < 1e-12);
    }
}
