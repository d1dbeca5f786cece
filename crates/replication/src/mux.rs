//! `SlotMux` — the slot-demultiplexing and instance-recycling layer of the
//! pipelined replica.
//!
//! A replica runs one DEX instance per log slot. Sequential replication
//! (`window = 1`) only ever grows the instance map; the pipelined engine
//! keeps a *window* of `W` in-flight slots and turns the map into a
//! recycling pool:
//!
//! * **Demux**: slot-tagged wire traffic (`ReplicaMsg::Slot { slot, .. }`)
//!   is routed to the per-slot [`DexProcess`], created on demand. Routing
//!   never touches the payload — messages arrive by reference from the
//!   simulator's shared-payload slab, so the `Dest::All` zero-clone fast
//!   path is preserved end to end.
//! * **Recycle**: once the committed floor has slid a full window past a
//!   decided slot, that slot's instance is retired into a free pool and its
//!   allocations — the `J1`/`J2` [`View`](dex_types::View) tally buffers,
//!   the IDB instance map and its one witness table (three flat vectors
//!   per machine, not a heap block per origin), the UC forwarding outbox —
//!   are reset in place (see [`DexProcess::recycle`]), freeing and
//!   reallocating nothing, and handed to the next slot that opens.
//!   Decided slots keep participating until they retire: the lag of one
//!   full window preserves the paper's "keep echoing after deciding"
//!   obligation for every peer still inside the window.
//! * **Retired traffic**: a message for a retired slot is, by construction,
//!   a message for a slot in this replica's committed prefix. The mux
//!   reports it as such so the replica can answer with a targeted
//!   catch-up reply instead of resurrecting the instance.

use dex_conditions::FrequencyPair;
use dex_core::DexProcess;
use dex_types::{ProcessId, SystemConfig, Value};
use dex_underlying::OracleConsensus;
use std::collections::HashMap;

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
    /// committed floor. `1` reproduces sequential replication exactly.
    window: u64,
    /// Live instances, keyed by slot.
    active: HashMap<u64, SlotInstance<C>>,
    /// Reset instances ready for reuse, tagged with the slot they served.
    pool: Vec<(u64, SlotInstance<C>)>,
    /// Slots below this line are retired: committed locally and no longer
    /// served by a live instance. Always `0` when `window == 1`.
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
            active: HashMap::new(),
            pool: Vec::new(),
            retire_floor: 0,
            recycled: 0,
            allocated: 0,
        }
    }

    /// Sets the pipeline window (`≥ 1`). With `window == 1` the mux
    /// never retires instances — byte-for-byte the pre-pipeline engine.
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
        self.active.len()
    }

    /// Routes `slot` to its instance, creating one on demand — from the
    /// recycling pool when possible, freshly allocated otherwise.
    pub fn checkout(&mut self, slot: u64) -> (&mut SlotInstance<C>, Checkout) {
        let (config, me, coordinator) = (self.config, self.me, self.coordinator);
        let mut how = Checkout::Live;
        let instance = self.active.entry(slot).or_insert_with(|| {
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
                DexProcess::new(
                    config,
                    me,
                    FrequencyPair::new(config).expect("n > 6t checked by cluster builder"),
                    OracleConsensus::new(config, me, coordinator),
                )
            }
        });
        (instance, how)
    }

    /// Slides the retirement line up to `floor` (callers pass the committed
    /// floor minus the window): every live instance strictly below it is
    /// reset and returned to the pool. No-op while `window == 1`.
    pub fn retire_below(&mut self, floor: u64) {
        if self.window <= 1 || floor <= self.retire_floor {
            return;
        }
        // Bounded scan: the live set holds at most a couple of windows.
        // Ascending slot order, not the map's: the pool is a stack, so the
        // order instances enter it decides which slot each later checkout
        // reports as freed — and that reaches the trace.
        let mut retiring: Vec<u64> = self.active.keys().copied().filter(|s| *s < floor).collect();
        retiring.sort_unstable();
        for slot in retiring {
            let instance = self.active.remove(&slot).expect("listed above");
            self.pool.push((slot, instance));
        }
        self.retire_floor = floor;
    }

    /// Forgets all live and pooled instances (restart-with-amnesia).
    pub fn clear(&mut self) {
        self.active.clear();
        self.pool.clear();
        self.retire_floor = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_types::Dest;
    use dex_underlying::Outbox;
    use rand::rngs::StdRng;

    fn cfg() -> SystemConfig {
        SystemConfig::new(7, 1).unwrap()
    }

    fn mux() -> SlotMux<u64> {
        SlotMux::new(cfg(), ProcessId::new(1), ProcessId::new(0))
    }

    #[test]
    fn sequential_mux_never_retires() {
        let mut m = mux();
        for slot in 0..10 {
            let (_, how) = m.checkout(slot);
            assert_eq!(how, Checkout::Allocated);
        }
        m.retire_below(8);
        assert_eq!(m.retire_floor(), 0, "window 1 keeps every instance live");
        assert_eq!(m.live(), 10);
        assert_eq!(m.recycled(), 0);
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
        // The next two checkouts drain the pool before allocating, in an
        // order that does not depend on the live map's hashing: retired in
        // ascending slot order, handed out newest first.
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
}
