//! The simulator's event queue: one FIFO bucket per pending instant.
//!
//! Virtual time is integral and only a handful of instants are pending at
//! once (link delays span a few ticks; timers and chaos holds open a few
//! later ones), while one instant can hold tens of thousands of deliveries
//! — an n² echo flood falls due tick by tick. So the queue is a small
//! ordered map from instant to a FIFO of that instant's deliveries: a push
//! appends to its instant's bucket, a pop takes the front of the earliest
//! bucket, and both cost the same whether ten or a hundred thousand
//! deliveries are pending.
//!
//! Pop order is `(deliver_at, push order)`: buckets are visited in time
//! order and each is first-in-first-out, so a push for the instant being
//! drained lands behind everything already queued there. That is exactly
//! the order a priority queue keyed by `(deliver_at, sequence number)`
//! yields — the sequence number is the position in the bucket — which the
//! property test below checks against that key as its oracle.

use crate::time::Time;
use dex_types::ProcessId;
use std::collections::{BTreeMap, VecDeque};

/// One pending delivery: the payload's slab slot and the recipient.
type Entry = (u32, ProcessId);

#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    /// Pending instants in time order. No bucket in the map is empty.
    buckets: BTreeMap<Time, VecDeque<Entry>>,
    /// Drained buckets, kept for their capacity: opening an instant reuses
    /// one, so a steady-state run allocates nothing per instant.
    spare: Vec<VecDeque<Entry>>,
}

impl EventQueue {
    /// Queues one delivery of `slot` to `to` at `at`, behind everything
    /// already queued for that instant.
    pub(crate) fn push(&mut self, at: Time, slot: u32, to: ProcessId) {
        let spare = &mut self.spare;
        self.buckets
            .entry(at)
            .or_insert_with(|| spare.pop().unwrap_or_default())
            .push_back((slot, to));
    }

    /// The instant of the next delivery, if any is pending.
    pub(crate) fn next_at(&self) -> Option<Time> {
        self.buckets.first_key_value().map(|(&at, _)| at)
    }

    /// Removes and returns the next delivery as `(deliver_at, slot, to)`.
    pub(crate) fn pop(&mut self) -> Option<(Time, u32, ProcessId)> {
        let mut bucket = self.buckets.first_entry()?;
        let at = *bucket.key();
        let (slot, to) = bucket
            .get_mut()
            .pop_front()
            .expect("no bucket in the map is empty");
        if bucket.get().is_empty() {
            self.spare.push(bucket.remove());
        }
        Some((at, slot, to))
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn emptied_buckets_are_reused() {
        let mut q = EventQueue::default();
        for slot in 0..1_000 {
            q.push(Time::new(1), slot, p(0));
        }
        while q.pop().is_some() {}
        assert_eq!(q.spare.len(), 1, "the drained bucket was kept");
        let kept = q.spare[0].capacity();
        assert!(kept >= 1_000);
        // Opening the next instant takes the kept bucket, capacity and all,
        // instead of allocating.
        q.push(Time::new(2), 0, p(0));
        assert!(q.spare.is_empty());
        assert_eq!(q.buckets[&Time::new(2)].capacity(), kept);
        // A sliding window of instants settles on a fixed set of buckets.
        for t in 3..1_000u64 {
            for ahead in 0..4 {
                q.push(Time::new(t + ahead), 0, p(0));
            }
            while q.next_at().is_some_and(|at| at <= Time::new(t)) {
                q.pop();
            }
            assert!(q.buckets.len() + q.spare.len() <= 5);
        }
    }

    /// One step of a random push/pop interleaving.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        /// Push this far past the instant of the latest pop: 0 is the
        /// bucket being drained, a few ticks a link delay, a million a
        /// timer or a chaos hold.
        Ahead(u64),
        /// Push for the previous push's instant again (a chaos duplicate).
        Again,
        Pop,
    }

    fn op() -> impl Strategy<Value = Op> {
        (0u8..10, 0u64..12).prop_map(|(kind, x)| match kind {
            0..=3 => Op::Ahead(x),
            4 => Op::Ahead(1_000_000 + x * 997),
            5 => Op::Ahead(0),
            6 => Op::Again,
            _ => Op::Pop,
        })
    }

    proptest! {
        /// Pop order equals a stable sort of push order by `deliver_at`: the
        /// oracle is a plain list popped by minimum `(deliver_at, seq)`, the
        /// key the binary heap this queue replaced was ordered by.
        #[test]
        fn pop_order_is_deliver_at_then_push_order(ops in prop::collection::vec(op(), 1..400)) {
            let mut q = EventQueue::default();
            let mut oracle: Vec<(Time, u32)> = Vec::new();
            let mut seq = 0u32;
            let mut now = Time::ZERO;
            let mut last_push = Time::ZERO;
            // The trailing pops drain whatever the random prefix left.
            let drain = std::iter::repeat_n(Op::Pop, ops.len());
            for op in ops.into_iter().chain(drain) {
                let at = match op {
                    Op::Ahead(d) => now + d,
                    Op::Again => last_push,
                    Op::Pop => {
                        let expected = oracle.iter().copied().min();
                        oracle.retain(|e| Some(*e) != expected);
                        let got = q.pop().map(|(at, slot, _)| (at, slot));
                        prop_assert_eq!(got, expected);
                        now = got.map_or(now, |(at, _)| at);
                        continue;
                    }
                };
                q.push(at, seq, p(0));
                oracle.push((at, seq));
                seq += 1;
                last_push = at;
                prop_assert_eq!(q.next_at(), oracle.iter().map(|e| e.0).min());
            }
            prop_assert!(q.is_empty() && oracle.is_empty());
        }
    }
}
