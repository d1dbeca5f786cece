//! Broadcast instance keys, and the per-instance state table each key type
//! picks.

use core::fmt::Debug;
use core::hash::Hash;
use dex_types::ProcessId;
use std::collections::HashMap;

/// Identifies one broadcast instance and names its originating process.
///
/// The paper's Identical Broadcast is *single-shot per sender*: the
/// `first-echo(j)` / `first-accept(j)` guards are indexed by the sender `j`
/// alone, which is exactly what Algorithm DEX needs (each process broadcasts
/// one proposal). Round-based protocols reuse the primitive by extending the
/// key with a tag — `(sender, round)` — giving one independent single-shot
/// instance per tag.
///
/// The origin matters for safety: a correct process only honours an `init`
/// message whose *network sender* equals the key's origin, so a Byzantine
/// process cannot open a broadcast instance on someone else's behalf.
///
/// The key type also picks, at compile time, where a machine keeps its
/// instances' state ([`Table`](Self::Table)): a `ProcessId` key names one
/// of `n` instances, so its table is a dense `Vec` indexed by origin; a
/// tagged key's tags are unbounded (rounds), so its table is a `HashMap`.
///
/// # Examples
///
/// ```
/// use dex_broadcast::InstanceKey;
/// use dex_types::ProcessId;
///
/// let plain: ProcessId = ProcessId::new(2);
/// assert_eq!(plain.origin(), ProcessId::new(2));
///
/// let tagged = (ProcessId::new(2), 7u32);
/// assert_eq!(tagged.origin(), ProcessId::new(2));
/// ```
pub trait InstanceKey: Clone + Eq + Hash + Debug + Send + 'static {
    /// The per-instance state table of a machine keyed by `Self`.
    type Table<S: Copy + Default + Debug + Send>: InstanceTable<Self, S>;

    /// The process this broadcast instance originates from.
    fn origin(&self) -> ProcessId;
}

/// Per-instance state of one broadcast machine, `S` per instance key `K`.
///
/// Every key handed to [`open`](Self::open) must have an origin `< n`:
/// the machines check that first (the origin guard, `admissible`).
pub trait InstanceTable<K, S>: Clone + Debug + Send {
    /// An empty table for instances with origins `0..n`.
    fn with_origins(n: usize) -> Self;

    /// The state of `key`'s instance; `None` (or the default state) if it
    /// was never opened.
    fn lookup(&self, key: &K) -> Option<&S>;

    /// The state of `key`'s instance, opened at `S::default()` on first
    /// use.
    fn open(&mut self, key: &K) -> &mut S;

    /// Forgets every instance in place, keeping bounded capacity.
    fn reset(&mut self);
}

/// One state per origin, reset in place.
impl<S: Copy + Default + Debug + Send> InstanceTable<ProcessId, S> for Vec<S> {
    fn with_origins(n: usize) -> Self {
        vec![S::default(); n]
    }

    fn lookup(&self, key: &ProcessId) -> Option<&S> {
        self.as_slice().get(key.index())
    }

    fn open(&mut self, key: &ProcessId) -> &mut S {
        &mut self[key.index()]
    }

    fn reset(&mut self) {
        self.fill(S::default());
    }
}

/// Instances opened on demand; capacity past
/// [`RETAINED_CAPACITY`](crate::RETAINED_CAPACITY) is released on reset,
/// so a slot that opened unusually many instances (a long round tail) does
/// not pin that high-water mark.
impl<K: InstanceKey, S: Copy + Default + Debug + Send> InstanceTable<K, S> for HashMap<K, S> {
    fn with_origins(_: usize) -> Self {
        HashMap::new()
    }

    fn lookup(&self, key: &K) -> Option<&S> {
        self.get(key)
    }

    fn open(&mut self, key: &K) -> &mut S {
        self.entry(key.clone()).or_default()
    }

    fn reset(&mut self) {
        self.clear();
        self.shrink_to(crate::RETAINED_CAPACITY); // no-op at or below the bound
    }
}

impl InstanceKey for ProcessId {
    type Table<S: Copy + Default + Debug + Send> = Vec<S>;

    fn origin(&self) -> ProcessId {
        *self
    }
}

impl<T> InstanceKey for (ProcessId, T)
where
    T: Clone + Eq + Hash + Debug + Send + 'static,
{
    type Table<S: Copy + Default + Debug + Send> = HashMap<Self, S>;

    fn origin(&self) -> ProcessId {
        self.0
    }
}

impl<T, U> InstanceKey for (ProcessId, T, U)
where
    T: Clone + Eq + Hash + Debug + Send + 'static,
    U: Clone + Eq + Hash + Debug + Send + 'static,
{
    type Table<S: Copy + Default + Debug + Send> = HashMap<Self, S>;

    fn origin(&self) -> ProcessId {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn origins_are_extracted() {
        assert_eq!(ProcessId::new(4).origin(), ProcessId::new(4));
        assert_eq!((ProcessId::new(4), "tag").origin(), ProcessId::new(4));
        assert_eq!((ProcessId::new(4), 1u8, 2u8).origin(), ProcessId::new(4));
    }
}
