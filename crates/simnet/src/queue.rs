//! The simulator's event queue: one FIFO bucket per pending instant, kept
//! as a calendar.
//!
//! Only a handful of integral instants are pending at once, while one can
//! hold tens of thousands of deliveries (an n² echo flood). Instants within
//! 64 of `base`, the latest pop's, sit in a ring indexed by `at % 64` and
//! found through one occupancy word, with no search. Later ones (chaos
//! holds, backoff, a saturated clock) sit in an ordered map, each moving
//! whole into its ring slot once `base` brings it within reach, before any
//! push can land there. 64 is the word's width, not a knob: it decides where
//! a bucket lives, never the pop order. A ring slot holds a bucket only
//! while occupied, lent from and returned to the `spare` pool.
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

/// Slots in the ring: the bits of the occupancy word.
const RING: u64 = u64::BITS as u64;

/// One pending delivery: the payload's slab slot and the recipient's index.
type Entry = (u32, u32);
type Bucket = VecDeque<Entry>;

#[derive(Debug)]
pub(crate) struct EventQueue {
    /// The instant of the latest pop; no pending instant is earlier.
    base: u64,
    /// Bit `i` set: `ring[i]` holds the one instant in `[base, base + RING)`
    /// that is `i` modulo `RING`. An unset slot holds no capacity.
    occupied: u64,
    ring: [Bucket; RING as usize],
    /// Instants at or past `base + RING`; no bucket here is empty.
    far: BTreeMap<Time, Bucket>,
    /// `far`'s first instant (`u64::MAX` if none), so moving `base` within
    /// the ring never looks into the map.
    far_first: u64,
    /// Drained buckets, kept for their capacity: opening an instant reuses
    /// one, so a steady-state run allocates nothing per instant.
    spare: Vec<Bucket>,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue {
            base: 0,
            occupied: 0,
            ring: [const { Bucket::new() }; RING as usize],
            far: BTreeMap::new(),
            far_first: u64::MAX,
            spare: Vec::new(),
        }
    }
}

impl EventQueue {
    /// Queues one delivery of `slot` to `to` at `at`, behind everything
    /// already queued for that instant.
    pub(crate) fn push(&mut self, at: Time, slot: u32, to: ProcessId) {
        let at = at.as_units();
        assert!(
            at >= self.base,
            "push at t={at} before the latest pop: sends land at now + delay ≥ now ≥ base"
        );
        let entry = (slot, u32::try_from(to.index()).expect("n fits in u32"));
        if at - self.base < RING {
            let i = (at % RING) as usize;
            if self.occupied & (1 << i) == 0 {
                self.occupied |= 1 << i;
                self.ring[i] = self.spare.pop().unwrap_or_default();
            }
            self.ring[i].push_back(entry);
        } else {
            self.far_first = self.far_first.min(at);
            let spare = &mut self.spare;
            self.far
                .entry(Time::new(at))
                .or_insert_with(|| spare.pop().unwrap_or_default())
                .push_back(entry);
        }
    }

    /// The instant of the next delivery, if any is pending.
    pub(crate) fn next_at(&self) -> Option<Time> {
        if self.occupied == 0 {
            return self.far.first_key_value().map(|(&at, _)| at);
        }
        let ahead = self.occupied.rotate_right((self.base % RING) as u32);
        Some(Time::new(self.base + u64::from(ahead.trailing_zeros())))
    }

    /// Removes and returns the next delivery as `(deliver_at, slot, to)`.
    pub(crate) fn pop(&mut self) -> Option<(Time, u32, ProcessId)> {
        let at = self.next_at()?;
        self.base = at.as_units();
        // Migrate what `base` now reaches. Its slot is free: the instant
        // `RING` earlier is before `base`, hence drained.
        while self.far_first - self.base < RING {
            let Some((t, bucket)) = self.far.pop_first() else {
                break;
            };
            let i = (t.as_units() % RING) as usize;
            self.ring[i] = bucket;
            self.occupied |= 1 << i;
            self.far_first = self
                .far
                .first_key_value()
                .map_or(u64::MAX, |(t, _)| t.as_units());
        }
        let i = (self.base % RING) as usize;
        let bucket = &mut self.ring[i];
        let (slot, to) = bucket.pop_front().expect("occupied slots are non-empty");
        if bucket.is_empty() {
            self.occupied &= !(1 << i);
            self.spare.push(std::mem::take(bucket));
        }
        Some((at, slot, ProcessId::new(to as usize)))
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.occupied == 0 && self.far.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    /// Buckets with capacity: the occupied ring slots and the far map's.
    fn holding(q: &EventQueue) -> usize {
        q.ring.iter().filter(|b| b.capacity() > 0).count() + q.far.len()
    }

    #[test]
    fn emptied_buckets_are_reused() {
        let mut q = EventQueue::default();
        for slot in 0..1_000 {
            q.push(Time::new(1), slot, p(0));
        }
        while q.pop().is_some() {}
        assert_eq!(q.spare.len(), 1, "the drained bucket was kept");
        assert_eq!(holding(&q), 0, "a drained ring slot keeps no capacity");
        let kept = q.spare[0].capacity();
        assert!(kept >= 1_000);
        // Opening the next instant takes the kept bucket, capacity and all,
        // instead of allocating.
        q.push(Time::new(2), 0, p(0));
        assert!(q.spare.is_empty());
        assert_eq!(q.ring[2].capacity(), kept);
        // A sliding window of instants, near and far, settles on a fixed set
        // of buckets, and only pending instants hold one outside the pool.
        for t in 3..1_000u64 {
            for ahead in [0, 1, 2, RING + t % 3] {
                q.push(Time::new(t + ahead), 0, p(0));
            }
            while q.next_at().is_some_and(|at| at <= Time::new(t)) {
                q.pop();
            }
            let pending = q.occupied.count_ones() as usize + q.far.len();
            assert_eq!(holding(&q), pending);
            assert!(pending + q.spare.len() <= RING as usize + 3);
        }
    }

    #[test]
    fn a_far_instant_migrates_whole_and_stays_fifo() {
        let mut q = EventQueue::default();
        let far = Time::new(100);
        q.push(far, 0, p(0));
        q.push(Time::new(40), 1, p(1));
        assert_eq!(q.far.len(), 1, "100 is past the ring while base is 0");
        assert_eq!(q.pop(), Some((Time::new(40), 1, p(1))));
        assert!(q.far.is_empty(), "base 40 brings 100 into the ring");
        q.push(far, 2, p(2));
        assert!(q.far.is_empty(), "the second push lands in the ring");
        assert_eq!(q.pop(), Some((far, 0, p(0))));
        assert_eq!(q.pop(), Some((far, 2, p(2))));
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "before the latest pop")]
    fn a_push_before_the_latest_pop_panics() {
        let mut q = EventQueue::default();
        q.push(Time::new(5), 0, p(0));
        q.pop();
        q.push(Time::new(4), 1, p(0));
    }

    /// One step of a random push/pop interleaving.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        /// Push this far past the instant of the latest pop: 0 is the
        /// bucket being drained, a few ticks a link delay, 63 and 64 the
        /// ring's last slot and the first far instant, a million a timer or
        /// a chaos hold.
        Ahead(u64),
        /// Push for the previous push's instant again (a chaos duplicate),
        /// or for the latest pop's if that instant has passed.
        Again,
        Pop,
    }

    fn op() -> impl Strategy<Value = Op> {
        (0u8..12, 0u64..12).prop_map(|(kind, x)| match kind {
            0..=3 => Op::Ahead(x),
            4 => Op::Ahead(1_000_000 + x * 997),
            5 => Op::Ahead(0),
            6 => Op::Again,
            7 => Op::Ahead(RING - 1),
            8 => Op::Ahead(RING),
            _ => Op::Pop,
        })
    }

    proptest! {
        /// Pop order equals a stable sort of push order by `deliver_at`: the
        /// oracle is a plain list popped by minimum `(deliver_at, seq)`, the
        /// key the binary heap this queue replaced was ordered by. Like the
        /// simulator, it pushes only at or after the latest pop.
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
                    Op::Again => last_push.max(now),
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
