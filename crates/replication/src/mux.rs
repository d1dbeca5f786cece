//! `SlotMux` — the slot-demultiplexing and instance-recycling layer of the
//! pipelined replica.
//!
//! A replica runs one DEX instance per log slot and keeps a *window* of
//! `W` in-flight slots (`W = 1` is sequential replication), which the mux
//! turns into a recycling pool, so a replica holds a handful of instances
//! however long its log grows:
//!
//! * **Demux**: slot-tagged wire traffic (`ReplicaMsg::Slot { slot, .. }`)
//!   is routed to the per-slot [`DexProcess`], created on demand. Live
//!   instances sit in a ring indexed by `slot − retire_floor`, so routing
//!   is an offset, not a hash probe; each ring entry is an 8-byte handle
//!   (an `Option<Box<_>>`), so a message for a far slot costs a handle per
//!   skipped slot, never an instance-sized hole. Routing never touches the
//!   payload — messages arrive by reference from the simulator's
//!   shared-payload slab, so the `Dest::All` zero-clone fast path is
//!   preserved end to end.
//! * **Recycle**: once the committed floor has slid a full window past a
//!   decided slot ([`SlotMux::retire_line`]; the log's last two windows
//!   stay live), that slot's instance is retired into a free pool and its
//!   allocations — the `J1`/`J2` [`View`](dex_types::View) tally buffers,
//!   the IDB instance table (one entry per origin) and its one witness
//!   table (three flat vectors per machine, not a heap block per origin),
//!   the UC forwarding outbox — are reset in place (see
//!   [`DexProcess::recycle`]), freeing and reallocating nothing, and handed
//!   to the next slot that opens. Retiring pops the ring's front, which is
//!   ascending slot order. Decided slots keep participating until they
//!   retire: the lag of one full window preserves the paper's "keep
//!   echoing after deciding" obligation for every peer still inside the
//!   window.
//! * **Retired traffic**: a message for a retired slot is, by construction,
//!   a message for a slot in this replica's committed prefix. The mux
//!   reports it as such ([`SlotMux::is_retired`]) so the replica can answer
//!   with a targeted catch-up reply; checking such a slot out is a bug, and
//!   panics.

use dex_conditions::FrequencyPair;
use dex_core::DexProcess;
use dex_types::{ProcessId, SystemConfig, Value};
use dex_underlying::OracleConsensus;
use std::collections::VecDeque;

/// One slot's consensus machine: DEX over the frequency-based condition
/// with the oracle underlying consensus.
pub type SlotInstance<C> = DexProcess<C, FrequencyPair, OracleConsensus<C>>;

/// What [`SlotMux::checkout`] did to produce the instance.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Checkout {
    /// The slot was already live.
    Live,
    /// A fresh instance was allocated.
    Allocated,
    /// A retired instance was recycled; carries the slot it last served.
    Recycled(u64),
}

/// The slot-routing and instance-recycling layer (see the module docs).
pub struct SlotMux<C: Value> {
    config: SystemConfig,
    me: ProcessId,
    coordinator: ProcessId,
    /// Pipeline window `W`: how many slots may be in flight past the
    /// committed floor. `1` is sequential replication.
    window: u64,
    /// Live instances: entry `i` serves slot `retire_floor + i`, `None`
    /// until that slot is checked out.
    ring: VecDeque<Option<Box<SlotInstance<C>>>>,
    /// Reset instances ready for reuse, tagged with the slot they served.
    pool: Vec<(u64, Box<SlotInstance<C>>)>,
    /// Slots below this line are retired: committed locally and no longer
    /// served by a live instance.
    retire_floor: u64,
    /// How many checkouts were served from the pool (diagnostics/bench).
    recycled: u64,
    /// How many instances were ever allocated (diagnostics/bench).
    allocated: u64,
}

impl<C: Value> SlotMux<C> {
    /// Creates a sequential (`window = 1`) mux.
    pub fn new(config: SystemConfig, me: ProcessId, coordinator: ProcessId) -> Self {
        SlotMux {
            config,
            me,
            coordinator,
            window: 1,
            ring: VecDeque::new(),
            pool: Vec::new(),
            retire_floor: 0,
            recycled: 0,
            allocated: 0,
        }
    }

    /// Sets the pipeline window (`≥ 1`): the replica opens slots inside
    /// it, and it sets how far behind the committed floor slots retire
    /// ([`retire_line`](Self::retire_line)).
    pub fn set_window(&mut self, window: u64) {
        assert!(window >= 1, "pipeline window must be at least 1");
        self.window = window;
    }

    /// The configured window.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Slots below this line are retired (committed and recycled).
    pub fn retire_floor(&self) -> u64 {
        self.retire_floor
    }

    /// Whether `slot` has been retired into the pool.
    pub fn is_retired(&self, slot: u64) -> bool {
        slot < self.retire_floor
    }

    /// Instances recycled from the pool so far.
    pub fn recycled(&self) -> u64 {
        self.recycled
    }

    /// Instances allocated from scratch so far.
    pub fn allocated(&self) -> u64 {
        self.allocated
    }

    /// Number of currently live instances.
    pub fn live(&self) -> usize {
        self.ring.iter().flatten().count()
    }

    /// Routes `slot` to its instance, creating one on demand — from the
    /// recycling pool when possible, freshly allocated otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is retired: retired slots are committed, the
    /// replica drops their traffic ([`is_retired`](Self::is_retired)) and
    /// never proposes a committed slot, so reopening one is a bug.
    pub fn checkout(&mut self, slot: u64) -> (&mut SlotInstance<C>, Checkout) {
        assert!(
            slot >= self.retire_floor,
            "checkout of slot {slot} below the retirement line {}: retired slots are \
             committed, their traffic is dropped and they are never proposed",
            self.retire_floor
        );
        let at = (slot - self.retire_floor) as usize;
        if at >= self.ring.len() {
            self.ring.resize_with(at + 1, || None);
        }
        let (config, me, coordinator) = (self.config, self.me, self.coordinator);
        let mut how = Checkout::Live;
        let instance = self.ring[at].get_or_insert_with(|| {
            if let Some((freed, mut instance)) = self.pool.pop() {
                self.recycled += 1;
                how = Checkout::Recycled(freed);
                // The UC machine is small; recycling swaps in a fresh one
                // while every tally/witness allocation is reset in place.
                let _ = instance.recycle(OracleConsensus::new(config, me, coordinator));
                instance
            } else {
                self.allocated += 1;
                how = Checkout::Allocated;
                Box::new(DexProcess::new(
                    config,
                    me,
                    FrequencyPair::new(config).expect("n > 6t checked by cluster builder"),
                    OracleConsensus::new(config, me, coordinator),
                ))
            }
        });
        (instance, how)
    }

    /// Where the retirement line of a replica stands once its committed
    /// floor is `committed`, in a log of `horizon` slots: a full window
    /// behind the floor, so a decided slot keeps echoing for every peer
    /// still inside the window, and never into the log's last two
    /// windows. A replica stuck on a retired slot learns so from a peer's
    /// proposal two windows past it; no proposal lies two windows past a
    /// slot in the last two, so those stay live until the run ends.
    pub fn retire_line(&self, committed: u64, horizon: u64) -> u64 {
        let tail = horizon.saturating_sub(2 * self.window);
        committed.saturating_sub(self.window).min(tail)
    }

    /// Slides the retirement line up to `floor` (the replica passes its
    /// [`retire_line`](Self::retire_line)): every live instance strictly
    /// below it is reset and returned to the pool.
    pub fn retire_below(&mut self, floor: u64) {
        if floor <= self.retire_floor {
            return;
        }
        // The ring's front is the lowest slot, so instances enter the pool
        // in ascending slot order. That order matters: the pool is a stack,
        // so it decides which slot each later checkout reports as freed —
        // and that reaches the trace. A floor past every live slot empties
        // the ring.
        let retiring = (floor - self.retire_floor).min(self.ring.len() as u64) as usize;
        for (slot, entry) in (self.retire_floor..).zip(self.ring.drain(..retiring)) {
            if let Some(instance) = entry {
                self.pool.push((slot, instance));
            }
        }
        self.retire_floor = floor;
    }

    /// Forgets all live and pooled instances (restart-with-amnesia).
    pub fn clear(&mut self) {
        self.ring.clear();
        self.pool.clear();
        self.retire_floor = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_types::Dest;
    use dex_underlying::Outbox;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use std::collections::HashMap;

    fn cfg() -> SystemConfig {
        SystemConfig::new(7, 1).unwrap()
    }

    fn mux() -> SlotMux<u64> {
        SlotMux::new(cfg(), ProcessId::new(1), ProcessId::new(0))
    }

    #[test]
    fn sequential_mux_retires_and_recycles_like_any_window() {
        let mut m = mux();
        assert_eq!(m.window(), 1);
        for slot in 0..10 {
            let (_, how) = m.checkout(slot);
            assert_eq!(how, Checkout::Allocated);
        }
        m.retire_below(8);
        assert_eq!(m.retire_floor(), 8);
        assert!(m.is_retired(7) && !m.is_retired(8));
        assert_eq!(m.live(), 2);
        // Retired in ascending slot order, handed out newest first.
        for (slot, freed) in (10..18).zip((0..8).rev()) {
            let (_, how) = m.checkout(slot);
            assert_eq!(how, Checkout::Recycled(freed));
        }
        assert_eq!(m.checkout(18).1, Checkout::Allocated);
        assert_eq!((m.recycled(), m.allocated()), (8, 11));
    }

    #[test]
    fn the_retirement_line_trails_by_a_window_and_spares_the_last_two() {
        let mut m = mux();
        // A 100-slot log at W = 1: floor 50 retires below 49, and the
        // line stops at 98 however far the floor goes.
        assert_eq!(m.retire_line(50, 100), 49);
        assert_eq!(m.retire_line(99, 100), 98);
        assert_eq!(m.retire_line(100, 100), 98);
        assert_eq!(m.retire_line(0, 100), 0);
        m.set_window(8);
        assert_eq!(m.retire_line(50, 100), 42);
        assert_eq!(m.retire_line(100, 100), 84);
        // A log of two windows or less never retires.
        assert_eq!(m.retire_line(16, 16), 0);
        assert_eq!(m.retire_line(10, 10), 0);
    }

    #[test]
    fn windowed_mux_recycles_retired_instances() {
        let mut m = mux();
        m.set_window(4);
        for slot in 0..4 {
            let (_, how) = m.checkout(slot);
            assert_eq!(how, Checkout::Allocated);
        }
        m.retire_below(2);
        assert!(m.is_retired(0) && m.is_retired(1));
        assert_eq!(m.live(), 2);
        // The next two checkouts drain the pool before allocating: retired
        // in ascending slot order, handed out newest first.
        let (_, how) = m.checkout(4);
        assert_eq!(how, Checkout::Recycled(1));
        let (_, how) = m.checkout(5);
        assert_eq!(how, Checkout::Recycled(0));
        let (_, how) = m.checkout(6);
        assert_eq!(how, Checkout::Allocated);
        assert_eq!(m.recycled(), 2);
        assert_eq!(m.allocated(), 5);
    }

    #[test]
    fn recycled_instance_state_is_fresh() {
        let mut m = mux();
        m.set_window(2);
        let mut rng = StdRng::seed_from_u64(7);
        let mut out = Outbox::new();
        {
            let (instance, _) = m.checkout(0);
            instance.propose(41, &mut rng, &mut out);
            assert!(instance.decision().is_none());
        }
        m.retire_below(1);
        let (instance, how) = m.checkout(1);
        assert_eq!(how, Checkout::Recycled(0));
        // A recycled machine accepts a fresh proposal: its `proposed` flag,
        // views and gates were all reset.
        let mut out2 = Outbox::new();
        instance.propose(42, &mut rng, &mut out2);
        let sends = out2.drain();
        assert!(
            sends.iter().any(|(d, _)| *d == Dest::All),
            "recycled instance must re-broadcast"
        );
    }

    #[test]
    fn far_checkout_at_window_one_allocates_one_instance_and_handles_only() {
        let mut m = mux();
        let (_, how) = m.checkout(1000);
        assert_eq!(how, Checkout::Allocated);
        assert_eq!((m.allocated(), m.live()), (1, 1));
        // The thousand slots skipped cost one 8-byte handle each.
        assert_eq!(m.ring.len(), 1001);
        assert!(std::mem::size_of_val(&m.ring[0]) <= 8);
        assert!(std::mem::size_of::<SlotInstance<u64>>() > 8);
        assert_eq!(m.checkout(1000).1, Checkout::Live);
    }

    #[test]
    #[should_panic(expected = "below the retirement line")]
    fn checkout_below_the_retirement_line_panics() {
        let mut m = mux();
        m.set_window(2);
        for slot in 0..3 {
            m.checkout(slot);
        }
        m.retire_below(2);
        m.checkout(1);
    }

    /// The mux as it was spelled over a `HashMap` keyed by slot, kept as
    /// the reference: the map's values stand in for the instances.
    struct Reference {
        active: HashMap<u64, ()>,
        pool: Vec<u64>,
        retire_floor: u64,
        recycled: u64,
        allocated: u64,
    }

    impl Reference {
        fn checkout(&mut self, slot: u64) -> Checkout {
            let mut how = Checkout::Live;
            self.active.entry(slot).or_insert_with(|| {
                if let Some(freed) = self.pool.pop() {
                    self.recycled += 1;
                    how = Checkout::Recycled(freed);
                } else {
                    self.allocated += 1;
                    how = Checkout::Allocated;
                }
            });
            how
        }

        fn retire_below(&mut self, floor: u64) {
            if floor <= self.retire_floor {
                return;
            }
            let mut below: Vec<u64> = self.active.keys().copied().filter(|s| *s < floor).collect();
            below.sort_unstable();
            for slot in below {
                self.active.remove(&slot);
                self.pool.push(slot);
            }
            self.retire_floor = floor;
        }

        fn clear(&mut self) {
            self.active.clear();
            self.pool.clear();
            self.retire_floor = 0;
        }
    }

    #[derive(Clone, Debug)]
    enum Op {
        Window(u64),
        /// Checks out the slot this far above the retirement line.
        Checkout(u64),
        /// Retires below the retirement line moved up by this much (`0`
        /// repeats the current floor).
        Retire(u64),
        Clear,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        (0u8..100, 0u64..16, 0u64..400).prop_map(|(kind, near, far)| match kind {
            0..=4 => Op::Window(1 + near % 8),
            5..=54 => Op::Checkout(near),
            55..=59 => Op::Checkout(far),
            60..=84 => Op::Retire(near % 4),
            85..=97 => Op::Retire(far),
            _ => Op::Clear,
        })
    }

    proptest! {
        /// Differential: the ring and the `HashMap` mux it replaced, driven
        /// by the same stream of window changes, checkouts near and far
        /// above the retirement line, floors that repeat, creep and jump,
        /// and restarts, hand out the same `Checkout` (the slot every
        /// recycled instance last served included) and agree on every
        /// counter and on the retirement line after every step.
        #[test]
        fn ring_acts_like_the_hash_map_reference(ops in proptest::collection::vec(op_strategy(), 1..200)) {
            let mut m = mux();
            let mut reference = Reference {
                active: HashMap::new(),
                pool: Vec::new(),
                retire_floor: 0,
                recycled: 0,
                allocated: 0,
            };
            for op in &ops {
                match *op {
                    Op::Window(w) => {
                        m.set_window(w);
                    }
                    Op::Checkout(above) => {
                        let slot = reference.retire_floor + above;
                        prop_assert_eq!(m.checkout(slot).1, reference.checkout(slot));
                    }
                    Op::Retire(by) => {
                        m.retire_below(reference.retire_floor + by);
                        reference.retire_below(reference.retire_floor + by);
                    }
                    Op::Clear => {
                        m.clear();
                        reference.clear();
                    }
                }
                prop_assert_eq!(m.live(), reference.active.len());
                prop_assert_eq!(m.recycled(), reference.recycled);
                prop_assert_eq!(m.allocated(), reference.allocated);
                prop_assert_eq!(m.retire_floor(), reference.retire_floor);
                for slot in reference.retire_floor.saturating_sub(2)..reference.retire_floor + 2 {
                    prop_assert_eq!(m.is_retired(slot), slot < reference.retire_floor);
                }
            }
        }
    }
}
