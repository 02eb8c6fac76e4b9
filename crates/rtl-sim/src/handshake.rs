//! Elastic pipeline registers with local valid/ready handshaking.
//!
//! The RTM pipeline in the paper "was designed with most registers at the
//! end of the pipeline stages" and "handshaking is used to control
//! transmission of data between pipeline stages. This allows local control
//! to stall the transmission when necessary; there is no global control for
//! stalling the pipeline."
//!
//! [`HandshakeSlot`] is exactly one such register: a single-entry elastic
//! buffer sitting between a producer stage and a consumer stage.
//!
//! # Evaluation order and throughput
//!
//! Within one evaluate phase:
//!
//! * the **consumer** calls [`HandshakeSlot::peek`] / [`HandshakeSlot::take`];
//! * the **producer** calls [`HandshakeSlot::can_push`] / [`HandshakeSlot::push`].
//!
//! If the consumer is evaluated *before* the producer (sink-to-source order,
//! the convention used throughout this reproduction), a slot freed in cycle
//! *t* accepts new data in the same cycle, so a linear pipeline sustains one
//! item per cycle — this models the combinational ready chain of the VHDL
//! design. If the producer happens to be evaluated first, the slot behaves
//! like a conservatively registered ready (half throughput under continuous
//! pressure), which is also a legal hardware implementation; designs pick
//! the order they intend and document it.

use crate::component::Clocked;

/// A single-entry elastic buffer between two pipeline stages.
///
/// ```
/// use rtl_sim::{Clocked, HandshakeSlot};
///
/// let mut slot = HandshakeSlot::new();
/// slot.push(42u32);              // producer stage, cycle t
/// assert!(slot.peek().is_none()); // not yet visible: the register
/// slot.commit();                  // clock edge
/// assert_eq!(slot.take(), Some(42)); // consumer stage, cycle t+1
/// ```
#[derive(Debug, Clone, Default)]
pub struct HandshakeSlot<T> {
    cur: Option<T>,
    incoming: Option<T>,
}

impl<T> HandshakeSlot<T> {
    /// An empty slot.
    pub fn new() -> Self {
        HandshakeSlot {
            cur: None,
            incoming: None,
        }
    }

    /// The item currently held, if any (consumer side).
    pub fn peek(&self) -> Option<&T> {
        self.cur.as_ref()
    }

    /// True if the slot holds an item the consumer could take this cycle.
    pub fn has_data(&self) -> bool {
        self.cur.is_some()
    }

    /// Remove and return the held item (consumer side). Returns `None` when
    /// the slot is empty; a stage that polls an empty slot simply idles.
    pub fn take(&mut self) -> Option<T> {
        self.cur.take()
    }

    /// Remove the held item only when `pred` accepts it (consumer side).
    /// Useful for stages that must inspect the head before committing to
    /// consume it (e.g. the dispatcher refusing an op whose registers are
    /// locked).
    pub fn take_if(&mut self, pred: impl FnOnce(&T) -> bool) -> Option<T> {
        if self.cur.as_ref().is_some_and(pred) {
            self.take()
        } else {
            None
        }
    }

    /// True if a `push` this cycle will be accepted (producer side).
    pub fn can_push(&self) -> bool {
        self.cur.is_none() && self.incoming.is_none()
    }

    /// Hand an item to the slot (producer side). The item becomes visible
    /// to the consumer after the next [`Clocked::commit`], modelling the
    /// register at the end of the producing stage.
    ///
    /// # Panics
    /// Panics if [`HandshakeSlot::can_push`] is false — pushing into an
    /// occupied register is a design bug, not a runtime condition.
    pub fn push(&mut self, v: T) {
        assert!(
            self.can_push(),
            "HandshakeSlot::push while occupied (missing can_push check)"
        );
        self.incoming = Some(v);
    }

    /// Occupancy snapshot: `(held, staged)`.
    pub fn occupancy(&self) -> (bool, bool) {
        (self.cur.is_some(), self.incoming.is_some())
    }

    /// True when neither a held nor a staged item exists — the slot holds
    /// no work at all. A pipeline is drained when every slot is idle.
    pub fn is_idle(&self) -> bool {
        self.cur.is_none() && self.incoming.is_none()
    }
}

impl<T> Clocked for HandshakeSlot<T> {
    fn commit(&mut self) {
        // Only a staged item moves; a push required `can_push`, so `cur`
        // is necessarily empty then. Most edges stage nothing and move
        // nothing.
        if self.incoming.is_some() {
            debug_assert!(self.cur.is_none());
            self.cur = self.incoming.take();
        }
    }

    fn reset(&mut self) {
        self.cur = None;
        self.incoming = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_empty() {
        let s: HandshakeSlot<u32> = HandshakeSlot::new();
        assert!(s.can_push());
        assert!(!s.has_data());
        assert!(s.is_idle());
        assert_eq!(s.peek(), None);
    }

    #[test]
    fn push_becomes_visible_after_commit() {
        let mut s = HandshakeSlot::new();
        s.push(7u32);
        assert!(
            !s.has_data(),
            "pushed value must not be combinationally visible"
        );
        assert!(
            !s.is_idle(),
            "a staged value still counts as work in flight"
        );
        s.commit();
        assert_eq!(s.peek(), Some(&7));
        assert_eq!(s.take(), Some(7));
        assert!(s.take().is_none());
    }

    #[test]
    fn sink_first_order_gives_full_throughput() {
        // Consumer evaluated before producer: one item per cycle.
        let mut s = HandshakeSlot::new();
        let mut produced = 0u32;
        let mut consumed = Vec::new();
        for _cycle in 0..10 {
            // consumer
            if let Some(v) = s.take() {
                consumed.push(v);
            }
            // producer
            if s.can_push() {
                s.push(produced);
                produced += 1;
            }
            s.commit();
        }
        // After the 1-cycle fill latency the pipeline moves 1 item/cycle.
        assert_eq!(consumed, (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn source_first_order_gives_half_throughput() {
        let mut s = HandshakeSlot::new();
        let mut produced = 0u32;
        let mut consumed = Vec::new();
        for _cycle in 0..10 {
            // producer evaluated first: sees the un-taken value from the
            // previous cycle and stalls.
            if s.can_push() {
                s.push(produced);
                produced += 1;
            }
            if let Some(v) = s.take() {
                consumed.push(v);
            }
            s.commit();
        }
        assert_eq!(consumed.len(), 5, "registered-ready slot halves throughput");
        assert_eq!(consumed, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn stalled_consumer_blocks_producer() {
        let mut s = HandshakeSlot::new();
        s.push(1u32);
        s.commit();
        // Consumer never takes; producer must see a full slot.
        assert!(!s.can_push());
        s.commit();
        assert!(!s.can_push());
        assert_eq!(s.peek(), Some(&1));
    }

    #[test]
    #[should_panic(expected = "HandshakeSlot::push")]
    fn double_push_panics() {
        let mut s = HandshakeSlot::new();
        s.push(1u32);
        s.push(2u32);
    }

    #[test]
    fn take_if_only_consumes_on_predicate() {
        let mut s = HandshakeSlot::new();
        s.push(10u32);
        s.commit();
        assert_eq!(s.take_if(|v| *v > 100), None);
        assert!(s.has_data(), "rejected head must stay in the slot");
        assert_eq!(s.take_if(|v| *v == 10), Some(10));
        assert!(!s.has_data());
    }

    #[test]
    fn reset_clears_everything() {
        let mut s = HandshakeSlot::new();
        s.push(1u32);
        s.commit();
        s.take();
        s.push(2u32);
        s.reset();
        assert!(s.is_idle());
    }
}
