//! Synchronous FIFOs, modelling the on-chip SRAM buffers of the
//! performance-optimised functional-unit skeleton.
//!
//! The paper's pipelined skeleton "uses a lot of FPGA resources and
//! especially on-chip SRAM blocks consumed by the FIFO buffers"; a unit
//! "becomes only busy towards the dispatcher if the FIFO buffers contained
//! in the functional unit are full", and it is "recommended to configure
//! the FIFO buffers to be able to hold more data elements than there are
//! pipeline stages in the functional unit pipeline."
//!
//! [`Fifo`] follows the same two-phase discipline as
//! [`crate::HandshakeSlot`]: pops are visible immediately within the
//! evaluate phase (fall-through for consumers evaluated earlier in the
//! sink-to-source order), pushes become visible at the next commit.

use std::collections::VecDeque;

use crate::component::Clocked;

/// A bounded synchronous FIFO.
#[derive(Debug, Clone)]
pub struct Fifo<T> {
    depth: usize,
    /// Visible elements, then the `staged` ones a commit makes visible.
    items: VecDeque<T>,
    staged: usize,
}

impl<T> Fifo<T> {
    /// Create a FIFO holding at most `depth` elements.
    ///
    /// # Panics
    /// Panics when `depth == 0`; a zero-depth FIFO cannot exist in hardware
    /// (use a plain wire instead).
    pub fn new(depth: usize) -> Self {
        assert!(depth > 0, "Fifo depth must be at least 1");
        Fifo {
            depth,
            items: VecDeque::with_capacity(depth),
            staged: 0,
        }
    }

    /// Configured capacity.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Number of elements currently poppable.
    pub fn len(&self) -> usize {
        self.items.len() - self.staged
    }

    /// True when no element is poppable this cycle.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when neither current nor staged elements exist.
    pub fn is_idle(&self) -> bool {
        self.items.is_empty()
    }

    /// Head element, if any (consumer side).
    pub fn peek(&self) -> Option<&T> {
        self.items.front().filter(|_| !self.is_empty())
    }

    /// Pop the head element (consumer side). Visible immediately to later
    /// evaluations this cycle.
    pub fn pop(&mut self) -> Option<T> {
        if self.is_empty() {
            return None;
        }
        self.items.pop_front()
    }

    /// True if a `push` this cycle will be accepted (producer side).
    ///
    /// Occupancy counts elements already staged this cycle, so a producer
    /// can never overflow the FIFO even if it pushes several items per
    /// cycle (the message buffer does this when a link delivers a burst).
    pub fn can_push(&self) -> bool {
        self.items.len() < self.depth
    }

    /// Free slots available for pushes this cycle.
    pub fn space(&self) -> usize {
        self.depth - self.items.len()
    }

    /// Stage an element for insertion at the next commit (producer side).
    ///
    /// # Panics
    /// Panics when the FIFO is full — see [`Fifo::can_push`].
    pub fn push(&mut self, v: T) {
        assert!(
            self.can_push(),
            "Fifo::push while full (missing can_push check)"
        );
        self.items.push_back(v);
        self.staged += 1;
    }

    /// Drain every element (current and staged) into a vector, in order.
    /// Test helper; hardware has no such operation.
    pub fn drain_all(&mut self) -> Vec<T> {
        self.staged = 0;
        self.items.drain(..).collect()
    }
}

impl<T> Clocked for Fifo<T> {
    fn commit(&mut self) {
        debug_assert!(self.items.len() <= self.depth);
        self.staged = 0;
    }

    fn reset(&mut self) {
        self.items.clear();
        self.staged = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "depth must be at least 1")]
    fn zero_depth_rejected() {
        let _f: Fifo<u8> = Fifo::new(0);
    }

    #[test]
    fn fifo_orders_elements() {
        let mut f = Fifo::new(4);
        f.push(1u32);
        f.push(2);
        assert!(f.is_empty(), "staged pushes invisible before commit");
        f.commit();
        assert_eq!(f.len(), 2);
        assert_eq!(f.pop(), Some(1));
        assert_eq!(f.pop(), Some(2));
        assert_eq!(f.pop(), None);
    }

    #[test]
    fn capacity_counts_staged_elements() {
        let mut f = Fifo::new(2);
        f.push(1u32);
        f.push(2);
        assert!(!f.can_push(), "two staged items fill a depth-2 FIFO");
        assert_eq!(f.space(), 0);
        f.commit();
        assert!(!f.can_push());
        f.pop();
        assert!(
            f.can_push(),
            "fall-through pop frees space within the cycle"
        );
        f.push(3);
        f.commit();
        assert_eq!(f.drain_all(), vec![2, 3]);
    }

    #[test]
    fn sustains_one_per_cycle_when_sink_first() {
        let mut f = Fifo::new(2);
        let mut next = 0u32;
        let mut got = Vec::new();
        for _ in 0..20 {
            if let Some(v) = f.pop() {
                got.push(v);
            }
            if f.can_push() {
                f.push(next);
                next += 1;
            }
            f.commit();
        }
        assert_eq!(got, (0..19).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "Fifo::push")]
    fn overflow_panics() {
        let mut f = Fifo::new(1);
        f.push(1u8);
        f.push(2u8);
    }

    #[test]
    fn reset_restores_empty_state() {
        let mut f = Fifo::new(3);
        f.push(1u8);
        f.commit();
        f.push(2u8);
        f.reset();
        assert!(f.is_idle());
    }

    #[test]
    fn burst_push_within_capacity() {
        let mut f = Fifo::new(4);
        // A producer may push several items in one cycle (e.g. a wide link
        // delivering a burst) as long as capacity allows.
        while f.can_push() {
            f.push(0u8);
        }
        assert_eq!(f.space(), 0);
        f.commit();
        assert_eq!(f.len(), 4);
    }
}
