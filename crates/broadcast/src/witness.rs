//! Witness counting shared by Identical Broadcast and Reliable Broadcast.

use crate::key::InstanceKey;
use dex_types::{ProcessId, SystemConfig, Value};

/// Whether an echo or ready from `from` for instance `key` may touch state:
/// both the sender and the instance's origin must be processes of the
/// configuration. Anything else is Byzantine noise, and an instance with
/// such an origin can never reach a threshold — correct processes vouch
/// only after the origin's own init or after more than `t` others did — so
/// it must not cost memory either.
pub(crate) fn admissible<K: InstanceKey>(config: &SystemConfig, from: ProcessId, key: &K) -> bool {
    from.index() < config.n() && key.origin().index() < config.n()
}

/// The distinct senders that vouched for each value of one broadcast
/// instance: "`n − t` matching echoes" is a count read from here.
///
/// A correct process echoes one value per instance, so the table holds one
/// entry plus whatever distinct values Byzantine witnesses sent. Entries are
/// therefore found by a linear `==` scan — no hashing of the value, which on
/// the log workloads is a whole command batch — and each entry records its
/// senders as a bitset indexed by process id. An insert costs O(distinct
/// values in the instance); every extra value costs the adversary one
/// delivered message.
#[derive(Clone, Debug)]
pub(crate) struct WitnessTable<V> {
    entries: Vec<Entry<V>>,
}

#[derive(Clone, Debug)]
struct Entry<V> {
    value: V,
    /// Bit `i % 64` of word `i / 64` is set once process `i` vouched for
    /// `value`; grown on demand to the highest sender seen.
    senders: Vec<u64>,
    /// Number of set bits in `senders`.
    count: usize,
}

impl<V> Default for WitnessTable<V> {
    fn default() -> Self {
        WitnessTable {
            entries: Vec::new(),
        }
    }
}

impl<V: Value> WitnessTable<V> {
    /// Records `from` as a witness for `value` and returns the resulting
    /// number of distinct witnesses. A sender counts once per value, and
    /// for every value it vouches for. Clones the value only the first time
    /// it is seen, so the all-to-all flood only sets sender bits.
    pub(crate) fn insert(&mut self, value: &V, from: ProcessId) -> usize {
        let at = match self.entries.iter().position(|e| e.value == *value) {
            Some(at) => at,
            None => {
                self.entries.push(Entry {
                    value: value.clone(),
                    senders: Vec::new(),
                    count: 0,
                });
                self.entries.len() - 1
            }
        };
        let entry = &mut self.entries[at];
        let (word, bit) = (from.index() / 64, 1u64 << (from.index() % 64));
        if entry.senders.len() <= word {
            entry.senders.resize(word + 1, 0);
        }
        if entry.senders[word] & bit == 0 {
            entry.senders[word] |= bit;
            entry.count += 1;
        }
        entry.count
    }

    /// Number of distinct witnesses recorded for `value`.
    pub(crate) fn count(&self, value: &V) -> usize {
        self.entries
            .iter()
            .find(|e| e.value == *value)
            .map_or(0, |e| e.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{HashMap, HashSet};

    #[test]
    fn senders_around_a_word_boundary_count_once_each() {
        let mut table = WitnessTable::default();
        for (seen, i) in [63usize, 64, 0, 129, 127, 128].into_iter().enumerate() {
            assert_eq!(table.insert(&7u64, ProcessId::new(i)), seen + 1);
            assert_eq!(table.insert(&7u64, ProcessId::new(i)), seen + 1);
        }
        // The same senders vouching for a second value count for it too.
        assert_eq!(table.insert(&8u64, ProcessId::new(64)), 1);
        assert_eq!(
            (table.count(&7), table.count(&8), table.count(&9)),
            (6, 1, 0)
        );
    }

    proptest! {
        /// Model-based: after every step the table agrees with the structure
        /// it replaced, a hash map from value to the hash set of its senders,
        /// on streams with repeated senders and conflicting values — at
        /// one-word (5, 64), word-boundary (65) and multi-word (130) sizes.
        #[test]
        fn counts_match_a_hash_map_of_hash_sets(
            stream in proptest::collection::vec((0u64..4, any::<prop::sample::Index>()), 0..400),
        ) {
            for n in [5usize, 64, 65, 130] {
                let mut table = WitnessTable::default();
                let mut oracle: HashMap<Vec<u64>, HashSet<usize>> = HashMap::new();
                for (v, sender) in &stream {
                    let value = vec![*v; 3];
                    let from = sender.index(n);
                    let set = oracle.entry(value.clone()).or_default();
                    set.insert(from);
                    prop_assert_eq!(table.insert(&value, ProcessId::new(from)), set.len());
                    for (value, set) in &oracle {
                        prop_assert_eq!(table.count(value), set.len());
                    }
                }
                prop_assert_eq!(table.count(&vec![4; 3]), 0);
            }
        }
    }
}
