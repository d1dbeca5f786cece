//! Witness counting shared by Identical Broadcast and Reliable Broadcast.

use crate::key::InstanceKey;
use crate::RETAINED_CAPACITY;
use dex_types::{ProcessId, SystemConfig, Value};

/// Whether a message from `from` for instance `key` may touch state — the
/// origin guard in front of every instance-table access: both the sender
/// and the instance's origin must be processes of the configuration.
/// Anything else is Byzantine noise, and an instance with such an origin
/// can never reach a threshold — correct processes vouch only after the
/// origin's own init or after more than `t` others did — so it must not
/// cost memory either (nor, with a dense table, index past it).
pub(crate) fn admissible<K: InstanceKey>(config: &SystemConfig, from: ProcessId, key: &K) -> bool {
    from.index() < config.n() && key.origin().index() < config.n()
}

/// End of a chain, and the empty chain.
const NIL: u32 = u32::MAX;

/// One broadcast instance's (or, in RB, one phase's) handle into its
/// machine's [`WitnessTable`]: the first entry of its chain. All an
/// instance keeps of its witnesses.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Chain(u32);

impl Default for Chain {
    fn default() -> Self {
        Chain(NIL)
    }
}

/// The distinct senders that vouched for each value of every broadcast
/// instance of one machine: "`n − t` matching echoes" is a count read from
/// here.
///
/// One arena per machine, three flat vectors. `values` holds every distinct
/// value the machine stores, once — the origins of a log slot all broadcast
/// the same command batch, so their instances share one copy. An entry is a
/// (value, count) pair of one instance, linked to the instance's next entry
/// in arrival order; entry `e` owns the `words` sender words starting at
/// `e * words`, bit `i % 64` of word `i / 64` set once process `i` vouched.
///
/// A correct process echoes one value per instance, so a chain holds one
/// entry plus whatever distinct values Byzantine witnesses sent. Lookup
/// walks the chain first, comparing `==` — no hashing of the value, which
/// on the log workloads is a whole command batch — so a legitimate echo
/// costs O(distinct values in its instance). Only a *new* (instance, value)
/// pair scans `values`, O(distinct values in the machine), once; each such
/// pair costs the adversary one delivered message.
#[derive(Clone, Debug)]
pub(crate) struct WitnessTable<V> {
    /// `⌈n / 64⌉`: sender words per entry.
    words: usize,
    values: Vec<V>,
    entries: Vec<Entry>,
    senders: Vec<u64>,
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    /// Index into `values`.
    value: u32,
    /// Number of set bits in this entry's sender words.
    count: u32,
    /// The instance's next entry, or [`NIL`].
    next: u32,
}

impl<V: Value> WitnessTable<V> {
    /// An empty table for senders `0..n`.
    pub(crate) fn new(n: usize) -> Self {
        WitnessTable {
            words: n.div_ceil(64),
            values: Vec::new(),
            entries: Vec::new(),
            senders: Vec::new(),
        }
    }

    /// Records `from` (which must be [`admissible`]) as a witness for
    /// `value` on `chain` and returns the resulting number of distinct
    /// witnesses. A sender counts once per value, and for every value it
    /// vouches for. Clones the value only the first time the machine sees
    /// it, so the all-to-all flood only sets sender bits.
    pub(crate) fn insert(&mut self, chain: &mut Chain, value: &V, from: ProcessId) -> usize {
        debug_assert!(from.index() < 64 * self.words);
        let (mut at, mut last) = (chain.0, NIL);
        while at != NIL && self.values[self.entries[at as usize].value as usize] != *value {
            (last, at) = (at, self.entries[at as usize].next);
        }
        if at == NIL {
            let interned = self.values.iter().position(|v| v == value);
            let value = interned.unwrap_or_else(|| {
                self.values.push(value.clone());
                self.values.len() - 1
            }) as u32;
            assert!(self.entries.len() < NIL as usize, "witness table full");
            at = self.entries.len() as u32;
            self.entries.push(Entry {
                value,
                count: 0,
                next: NIL,
            });
            self.senders.resize(self.senders.len() + self.words, 0);
            match last {
                NIL => chain.0 = at,
                last => self.entries[last as usize].next = at,
            }
        }
        let word = &mut self.senders[at as usize * self.words + from.index() / 64];
        let entry = &mut self.entries[at as usize];
        let bit = 1u64 << (from.index() % 64);
        if *word & bit == 0 {
            *word |= bit;
            entry.count += 1;
        }
        entry.count as usize
    }

    /// Number of distinct witnesses recorded for `value` on `chain`.
    pub(crate) fn count(&self, chain: Chain, value: &V) -> usize {
        self.chain(chain)
            .find(|e| self.values[e.value as usize] == *value)
            .map_or(0, |e| e.count as usize)
    }

    fn chain(&self, chain: Chain) -> impl Iterator<Item = &Entry> {
        let mut at = chain.0;
        std::iter::from_fn(move || {
            let entry = self.entries.get(at as usize)?;
            at = entry.next;
            Some(entry)
        })
    }

    /// Forgets every entry — all handles into the table must be dropped
    /// with it — in place, keeping capacity for at most
    /// [`RETAINED_CAPACITY`] entries.
    pub(crate) fn reset(&mut self) {
        self.values.clear();
        self.entries.clear();
        self.senders.clear();
        // No-ops at or below the bound.
        self.values.shrink_to(RETAINED_CAPACITY);
        self.entries.shrink_to(RETAINED_CAPACITY);
        self.senders.shrink_to(RETAINED_CAPACITY * self.words);
    }

    /// Largest capacity, in entries, of the three vectors.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        let senders = self.senders.capacity() / self.words;
        senders.max(self.values.capacity().max(self.entries.capacity()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{HashMap, HashSet};

    #[test]
    fn senders_around_a_word_boundary_count_once_each() {
        let mut table = WitnessTable::new(130);
        let (mut a, mut b) = (Chain::default(), Chain::default());
        for (seen, i) in [63usize, 64, 0, 129, 127, 128].into_iter().enumerate() {
            assert_eq!(table.insert(&mut a, &7u64, ProcessId::new(i)), seen + 1);
            assert_eq!(table.insert(&mut a, &7u64, ProcessId::new(i)), seen + 1);
        }
        // The same senders vouching for a second value count for it too,
        // and another chain counts the same value on its own.
        assert_eq!(table.insert(&mut a, &8u64, ProcessId::new(64)), 1);
        assert_eq!(table.insert(&mut b, &7u64, ProcessId::new(64)), 1);
        assert_eq!(
            (table.count(a, &7), table.count(a, &8), table.count(a, &9)),
            (6, 1, 0)
        );
        assert_eq!((table.count(b, &7), table.count(b, &8)), (1, 0));
        assert_eq!(table.values, [7, 8], "values are stored once per machine");
    }

    /// One step of the model-based streams.
    #[derive(Clone, Debug)]
    enum Step {
        /// `sender` vouches on `chain` for `value`, then for `flood` more
        /// values nobody else sends.
        Insert {
            chain: usize,
            value: u64,
            sender: prop::sample::Index,
            flood: u64,
        },
        Reset,
    }

    fn step_strategy() -> impl Strategy<Value = Step> {
        (0usize..4, 0u64..4, any::<prop::sample::Index>(), 0u8..100).prop_map(
            |(chain, value, sender, kind)| match kind {
                0 => Step::Reset,
                _ => Step::Insert {
                    chain,
                    value,
                    sender,
                    flood: if kind <= 4 { 12 } else { 0 },
                },
            },
        )
    }

    proptest! {
        /// Model-based: after every step the table agrees with the structure
        /// it replaced — per instance, a hash map from value to the hash set
        /// of its senders — on streams where chains share values, senders
        /// repeat themselves and vouch for several values, one chain is
        /// flooded with values, and the table is reset and reused; at
        /// one-word (5, 64), word-boundary (65) and multi-word (130) sizes.
        /// Whatever happens on one chain, the others keep their counts and
        /// their entries' arrival order.
        #[test]
        fn counts_match_hash_maps_of_hash_sets(
            stream in proptest::collection::vec(step_strategy(), 0..300),
        ) {
            type Oracle = HashMap<usize, HashMap<Vec<u64>, HashSet<usize>>>;
            for n in [5usize, 64, 65, 130] {
                let mut table = WitnessTable::new(n);
                let mut chains = [Chain::default(); 4];
                let mut oracle = Oracle::new();
                let mut order: [Vec<Vec<u64>>; 4] = Default::default();
                for step in &stream {
                    let Step::Insert { chain, value, sender, flood } = step else {
                        table.reset();
                        chains = Default::default();
                        oracle.clear();
                        order = Default::default();
                        continue;
                    };
                    let from = sender.index(n);
                    for v in std::iter::once(*value).chain(100..100 + flood) {
                        let value = vec![v; 3];
                        let set = oracle.entry(*chain).or_default().entry(value.clone()).or_default();
                        if set.is_empty() {
                            order[*chain].push(value.clone());
                        }
                        set.insert(from);
                        let num = table.insert(&mut chains[*chain], &value, ProcessId::new(from));
                        prop_assert_eq!(num, set.len());
                    }
                    for (chain, handle) in chains.iter().enumerate() {
                        for (value, set) in oracle.get(&chain).into_iter().flatten() {
                            prop_assert_eq!(table.count(*handle, value), set.len());
                        }
                        let stored: Vec<_> = table
                            .chain(*handle)
                            .map(|e| table.values[e.value as usize].clone())
                            .collect();
                        prop_assert_eq!(&stored, &order[chain]);
                        prop_assert_eq!(table.count(*handle, &vec![4; 3]), 0);
                    }
                }
            }
        }
    }
}
