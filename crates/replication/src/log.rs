//! The slot-indexed replicated log.

use dex_types::Value;

/// What [`ReplicatedLog::commit`] did with the offered decision.
///
/// Re-commits happen legitimately — a restarted replica replays its WAL
/// into a log that partially overlaps what catch-up already adopted — so
/// duplicates must be distinguishable from first-time commits, and a
/// *conflicting* re-commit (an agreement violation) must never be silently
/// papered over.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[must_use = "a Conflict outcome is an agreement violation and must be handled"]
pub enum CommitOutcome {
    /// The slot was empty and now holds the value.
    Committed,
    /// The slot already held exactly this value; nothing changed.
    Duplicate,
    /// The slot already held a **different** value. The original value is
    /// kept; debug builds panic at the commit site instead of returning
    /// this.
    Conflict,
}

impl CommitOutcome {
    /// Whether the slot's value changed (first-time commit).
    pub fn is_new(self) -> bool {
        self == CommitOutcome::Committed
    }
}

/// A commit log: slot `s` holds the command consensus instance `s` decided.
/// Slots may commit out of order (instances run concurrently); commands are
/// *applied* strictly in order via [`next_applicable`](Self::next_applicable).
///
/// # Examples
///
/// ```
/// use dex_replication::{CommitOutcome, ReplicatedLog};
/// let mut log: ReplicatedLog<u64> = ReplicatedLog::new();
/// // Slot 1 decides before slot 0.
/// assert_eq!(log.commit(1, 20), CommitOutcome::Committed);
/// assert_eq!(log.next_applicable(), None);
/// assert_eq!(log.commit(0, 10), CommitOutcome::Committed);
/// assert_eq!(log.next_applicable(), Some(&10));
/// assert_eq!(log.commit(0, 10), CommitOutcome::Duplicate);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ReplicatedLog<V> {
    slots: Vec<Option<V>>,
    applied: usize,
    /// Cached length of the contiguous committed prefix. The pipelined
    /// proposer reads the floor after every commit, so this is maintained
    /// incrementally instead of rescanned.
    prefix: usize,
}

impl<V: Value> Default for ReplicatedLog<V> {
    fn default() -> Self {
        ReplicatedLog {
            slots: Vec::new(),
            applied: 0,
            prefix: 0,
        }
    }
}

impl<V: Value> ReplicatedLog<V> {
    /// Creates an empty log.
    pub fn new() -> Self {
        ReplicatedLog::default()
    }

    /// Records the decision of slot `slot` and reports what happened.
    ///
    /// A matching re-commit is a harmless [`CommitOutcome::Duplicate`]; a
    /// conflicting one keeps the original value and returns
    /// [`CommitOutcome::Conflict`] — in debug builds it panics instead,
    /// because a conflict is an agreement violation and the blast site is
    /// the most useful place to stop.
    pub fn commit(&mut self, slot: usize, value: V) -> CommitOutcome {
        if self.slots.len() <= slot {
            self.slots.resize(slot + 1, None);
        }
        match &self.slots[slot] {
            Some(existing) if *existing == value => CommitOutcome::Duplicate,
            Some(existing) => {
                debug_assert_eq!(
                    existing, &value,
                    "slot {slot} double-committed with different values"
                );
                CommitOutcome::Conflict
            }
            None => {
                self.slots[slot] = Some(value);
                while self.prefix < self.slots.len() && self.slots[self.prefix].is_some() {
                    self.prefix += 1;
                }
                CommitOutcome::Committed
            }
        }
    }

    /// Whether `slot` has committed.
    pub fn is_committed(&self, slot: usize) -> bool {
        self.slots.get(slot).is_some_and(Option::is_some)
    }

    /// The committed value of `slot`, if any.
    pub fn get(&self, slot: usize) -> Option<&V> {
        self.slots.get(slot).and_then(Option::as_ref)
    }

    /// Number of committed slots in the contiguous prefix. O(1) — the
    /// cursor is advanced incrementally on commit.
    pub fn committed_prefix(&self) -> usize {
        debug_assert_eq!(
            self.prefix,
            self.slots.iter().take_while(|s| s.is_some()).count()
        );
        self.prefix
    }

    /// Number of slots applied to the state machine so far.
    pub fn applied(&self) -> usize {
        self.applied
    }

    /// The next command ready to apply in order, if its slot committed.
    /// Call [`mark_applied`](Self::mark_applied) after applying it.
    pub fn next_applicable(&self) -> Option<&V> {
        self.slots.get(self.applied).and_then(Option::as_ref)
    }

    /// Advances the applied cursor.
    ///
    /// # Panics
    ///
    /// Panics if the current slot has not committed yet.
    pub fn mark_applied(&mut self) {
        assert!(
            self.is_committed(self.applied),
            "cannot apply an uncommitted slot"
        );
        self.applied += 1;
    }

    /// Whether some slot of the contiguous committed prefix holds `value`.
    /// Borrows: the proposer asks this once per queued command, so it must
    /// not copy the log the way [`prefix`](Self::prefix) does.
    pub fn prefix_contains(&self, value: &V) -> bool {
        self.slots[..self.prefix]
            .iter()
            .any(|s| s.as_ref() == Some(value))
    }

    /// The contiguous committed prefix as a vector (for cross-replica
    /// comparison).
    pub fn prefix(&self) -> Vec<V> {
        self.slots
            .iter()
            .take_while(|s| s.is_some())
            .map(|s| s.clone().expect("prefix is committed"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_of_order_commit_in_order_apply() {
        let mut log: ReplicatedLog<u64> = ReplicatedLog::new();
        assert_eq!(log.commit(2, 30), CommitOutcome::Committed);
        assert_eq!(log.committed_prefix(), 0);
        assert!(!log.prefix_contains(&30), "slot 2 is above the prefix");
        assert_eq!(log.next_applicable(), None);
        assert_eq!(log.commit(0, 10), CommitOutcome::Committed);
        assert_eq!(log.commit(1, 20), CommitOutcome::Committed);
        assert_eq!(log.committed_prefix(), 3);
        assert!(log.prefix_contains(&30) && !log.prefix_contains(&40));
        assert_eq!(log.next_applicable(), Some(&10));
        log.mark_applied();
        assert_eq!(log.next_applicable(), Some(&20));
        log.mark_applied();
        log.mark_applied();
        assert_eq!(log.applied(), 3);
        assert_eq!(log.next_applicable(), None);
        assert_eq!(log.prefix(), vec![10, 20, 30]);
    }

    #[test]
    fn idempotent_recommit_is_fine() {
        let mut log: ReplicatedLog<u64> = ReplicatedLog::new();
        assert!(log.commit(0, 5).is_new());
        assert_eq!(log.commit(0, 5), CommitOutcome::Duplicate);
        assert_eq!(log.get(0), Some(&5));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "double-committed")]
    fn conflicting_recommit_panics() {
        let mut log: ReplicatedLog<u64> = ReplicatedLog::new();
        let _ = log.commit(0, 5);
        let _ = log.commit(0, 6);
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn conflicting_recommit_keeps_the_original_and_reports_it() {
        let mut log: ReplicatedLog<u64> = ReplicatedLog::new();
        let _ = log.commit(0, 5);
        assert_eq!(log.commit(0, 6), CommitOutcome::Conflict);
        assert_eq!(log.get(0), Some(&5), "original value wins");
    }

    #[test]
    #[should_panic(expected = "uncommitted")]
    fn premature_apply_panics() {
        let mut log: ReplicatedLog<u64> = ReplicatedLog::new();
        log.mark_applied();
    }
}
