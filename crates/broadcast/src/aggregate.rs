//! Echo aggregation: coalesces the per-instance `(echo, m, j)` flood into
//! batched multicasts.
//!
//! IDB costs n² point-to-point echoes per step: every process reacts to an
//! `init` with one `Dest::All` echo per broadcast instance, and in pipelined
//! runs a single delivery tick can open a whole window of instances at
//! once. The [`EchoAggregator`] sits between the broadcast state machines
//! and the outbox: instead of multicasting each echo as its own message, a
//! process *offers* the echo to the aggregator and arms a 1-tick flush
//! timer. When the timer fires, everything offered since the last flush
//! leaves as one `EchoBatch { entries }` multicast riding the same
//! `Dest::All` zero-clone slab path the individual echoes would have used.
//! Receivers unbatch in entry order, so the delivered-echo *multiset* — and
//! therefore every witness table, threshold crossing, and decision — is
//! exactly what the unbatched protocol produces.
//!
//! **No dedup.** Each instance key is offered at most once: the first-echo
//! guard of [`IdenticalBroadcast`](crate::IdenticalBroadcast) emits one
//! echo per instance, retired slots never reopen, and a restart resets the
//! instances and the aggregator together.
//!
//! **Depth buckets.** The paper measures cost in causal communication
//! steps, and the trace checker pins the step scheme exactly (a two-step
//! decision must arrive at depth 2, not "at least 2"). A local flush timer
//! is not a communication step, so batching must not inflate the causal
//! depth of the echoes it carries. Entries are therefore bucketed by the
//! depth at which the unbatched echo would have been sent; the flush emits
//! one batch per depth bucket (buckets in ascending depth order, entries in
//! offer order within a bucket), and the runtime dispatches each batch at
//! its bucket's exact depth. Every batched echo arrives at precisely the
//! depth its unbatched counterpart would have had.
//!
//! The aggregator is transport-agnostic plumbing like the broadcast state
//! machines themselves: it never sends anything, it only buffers and hands
//! back `(depth, entries)` batches for the actor layer to multicast.

use dex_types::StepDepth;

/// How many pooled entry buffers a recycled aggregator may retain. Long
/// pipelined campaigns recycle aggregator state with the slot instance
/// pool; bounding retained capacity keeps memory from ratcheting
/// monotonically with campaign length (same discipline as
/// [`IdenticalBroadcast::reset`](crate::IdenticalBroadcast::reset)).
pub const RETAINED_CAPACITY: usize = 1024;

/// Buffers echoes offered within one delivery tick and flushes them as
/// depth-bucketed batches (see the module docs).
///
/// `K` is the broadcast instance key, `V` the echoed value — the same pair
/// the underlying `Echo { key, value }` message carries.
#[derive(Clone, Debug, Default)]
pub struct EchoAggregator<K, V> {
    /// Pending entries, bucketed by would-be send depth. Tiny in practice:
    /// one delivery tick rarely spans more than two distinct depths.
    pending: Vec<(StepDepth, Vec<(K, V)>)>,
    /// Whether a flush tick is already in flight.
    armed: bool,
}

impl<K, V> EchoAggregator<K, V> {
    /// Creates an empty aggregator.
    pub fn new() -> Self {
        EchoAggregator {
            pending: Vec::new(),
            armed: false,
        }
    }

    /// Offers an echo for batching at the depth it would have been sent
    /// unbatched.
    pub fn offer(&mut self, key: K, value: V, depth: StepDepth) {
        match self.pending.iter_mut().find(|(d, _)| *d == depth) {
            Some((_, bucket)) => bucket.push((key, value)),
            None => self.pending.push((depth, vec![(key, value)])),
        }
    }

    /// Arms the flush tick. Returns `true` when the caller should schedule
    /// a flush timer — i.e. there is pending work and no tick in flight.
    pub fn try_arm(&mut self) -> bool {
        if self.armed || self.pending.is_empty() {
            return false;
        }
        self.armed = true;
        true
    }

    /// Takes every pending batch, one per depth bucket, sorted ascending by
    /// depth (entries keep offer order within their bucket) and disarms the
    /// flush tick. Deterministic: depends only on the offer sequence.
    pub fn take_batches(&mut self) -> Vec<(StepDepth, Vec<(K, V)>)> {
        self.armed = false;
        let mut batches = std::mem::take(&mut self.pending);
        batches.sort_by_key(|(depth, _)| *depth);
        batches
    }

    /// Clears all state for reuse, bounding retained capacity so recycling
    /// across many slots cannot ratchet memory (see [`RETAINED_CAPACITY`]).
    pub fn reset(&mut self) {
        self.pending.clear();
        self.pending.shrink_to(RETAINED_CAPACITY); // no-op at or below the bound
        self.armed = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(steps: u32) -> StepDepth {
        StepDepth::new(steps)
    }

    #[test]
    fn batches_sort_by_depth_and_keep_offer_order() {
        let mut agg: EchoAggregator<u32, u64> = EchoAggregator::new();
        agg.offer(3, 30, d(4));
        agg.offer(1, 10, d(2));
        agg.offer(2, 20, d(4));
        agg.offer(4, 40, d(2));
        let batches = agg.take_batches();
        assert_eq!(
            batches,
            vec![
                (d(2), vec![(1, 10), (4, 40)]),
                (d(4), vec![(3, 30), (2, 20)]),
            ]
        );
        assert!(agg.take_batches().is_empty());
    }

    #[test]
    fn arms_once_per_flush_cycle() {
        let mut agg: EchoAggregator<u32, u64> = EchoAggregator::new();
        assert!(!agg.try_arm(), "nothing pending: no tick");
        agg.offer(1, 10, d(2));
        assert!(agg.try_arm());
        agg.offer(2, 20, d(2));
        assert!(!agg.try_arm(), "tick already in flight");
        let _ = agg.take_batches();
        agg.offer(3, 30, d(2));
        assert!(agg.try_arm(), "flush disarms");
    }

    #[test]
    fn reset_bounds_retained_capacity() {
        let mut agg: EchoAggregator<u64, u64> = EchoAggregator::new();
        // Ratchet the depth buckets past the retention bound, then reset
        // with a tick in flight (a restart racing the flush timer).
        for k in 0..(2 * RETAINED_CAPACITY as u32) {
            agg.offer(k.into(), 0, d(k));
        }
        assert!(agg.try_arm());
        assert!(agg.pending.capacity() > RETAINED_CAPACITY);
        agg.reset();
        assert!(agg.pending.capacity() <= RETAINED_CAPACITY);
        assert!(!agg.armed && agg.pending.is_empty());
    }
}
