//! Algorithm IDB — Identical Broadcast (paper appendix, Fig. 3).

use crate::key::{InstanceKey, InstanceTable};
use crate::witness::{admissible, Chain, WitnessTable};
use crate::Action;
use dex_types::{ProcessId, SystemConfig, Value};

/// A protocol message of the Identical Broadcast algorithm.
///
/// `Init` corresponds to the `(init, m)` flood sent by `Id-Send`; `Echo`
/// corresponds to `(echo, m, j)`, where the broadcast instance (and thus its
/// origin `j`) is carried in `key`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum IdbMessage<K, V> {
    /// `(init, m)` — the sender starts broadcasting `m`.
    Init {
        /// The broadcast instance.
        key: K,
        /// The broadcast value.
        value: V,
    },
    /// `(echo, m, j)` — the sender acts as a witness for instance `key`.
    Echo {
        /// The broadcast instance being witnessed.
        key: K,
        /// The witnessed value.
        value: V,
    },
}

/// Per-instance state: 8 bytes, one per origin with a `ProcessId` key.
#[derive(Clone, Copy, Default, Debug)]
struct InstanceState {
    /// `first-echo(j)`: set once this process has sent its (single) echo.
    echoed: bool,
    /// `first-accept(j)`: set once `Id-Receive` has fired.
    accepted: bool,
    /// Distinct witnesses per value, in the machine's witness table.
    witnesses: Chain,
}

/// What one reception asks of the caller, about the received key and
/// value: `Copy` and value-free, so reporting it clones nothing.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct IdbVerdict {
    /// Broadcast `(echo, m, j)` to every process: `first-echo(j)` was just
    /// set.
    pub echo: bool,
    /// `Id-Receive(m)` for the instance: `first-accept(j)` was just set.
    pub accept: bool,
}

/// The Identical Broadcast state machine of one process (Fig. 3).
///
/// To broadcast, call [`id_send`](Self::id_send) and transmit the returned
/// `Init` to every process (including yourself). Feed every received
/// [`IdbMessage`] into [`on_message`](Self::on_message) and execute the
/// returned [`Action`]s:
///
/// * on first `(init, m)` from the instance's origin → echo `(echo, m, j)`,
/// * on `n − 2t` matching echoes → echo too (witness amplification; this is
///   what lets echoes complete even when the faulty origin sends its `init`
///   to only part of the system),
/// * on `n − t` matching echoes → `Id-Receive(m)` (at most once per
///   instance).
///
/// Callers that send the echo and consume the `Id-Receive` themselves
/// (Algorithm DEX, on every delivery of the n² echo flood) call
/// [`on_init`](Self::on_init) / [`on_echo`](Self::on_echo) instead: the
/// same decisions on a borrowed key and value, as an [`IdbVerdict`], with
/// no allocation. `on_message` is the one adapter from verdicts to actions.
///
/// Instance state lives in the table the key type picks
/// ([`InstanceKey::Table`]): dense by origin for `ProcessId` keys, a map
/// for tagged ones. Every access to it sits behind the origin guard — a
/// message whose sender or instance origin is not a process of the
/// configuration is dropped before it can open state.
///
/// Requires `n > 4t` (Theorem 4).
#[derive(Clone, Debug)]
pub struct IdenticalBroadcast<K: InstanceKey, V> {
    config: SystemConfig,
    instances: K::Table<InstanceState>,
    /// Every instance's witnesses (see [`WitnessTable`]).
    witnesses: WitnessTable<V>,
}

impl<K: InstanceKey, V: Value> IdenticalBroadcast<K, V> {
    /// Creates the state machine.
    ///
    /// # Panics
    ///
    /// Panics unless `n > 4t` — running IDB below its resilience bound would
    /// silently forfeit the agreement property, so this is rejected loudly.
    pub fn new(config: SystemConfig) -> Self {
        assert!(
            config.supports_identical_broadcast(),
            "identical broadcast requires n > 4t, got {config}"
        );
        IdenticalBroadcast {
            config,
            instances: InstanceTable::with_origins(config.n()),
            witnesses: WitnessTable::new(config.n()),
        }
    }

    /// `Id-Send(m)`: builds the `Init` message the caller must broadcast to
    /// all processes (including itself).
    pub fn id_send(key: K, value: V) -> IdbMessage<K, V> {
        IdbMessage::Init { key, value }
    }

    /// Handles one received protocol message, returning the actions to
    /// perform. `from` must be the authenticated network-level sender. The
    /// message is borrowed (multicast payloads are shared by the network
    /// layer); each action clones the key and value it carries.
    pub fn on_message(
        &mut self,
        from: ProcessId,
        msg: &IdbMessage<K, V>,
    ) -> Vec<Action<K, IdbMessage<K, V>, V>> {
        let (key, value, verdict) = match msg {
            IdbMessage::Init { key, value } => (key, value, self.on_init(from, key)),
            IdbMessage::Echo { key, value } => (key, value, self.on_echo(from, key, value)),
        };
        let mut actions = Vec::new();
        if verdict.echo {
            actions.push(Action::Broadcast(IdbMessage::Echo {
                key: key.clone(),
                value: value.clone(),
            }));
        }
        if verdict.accept {
            actions.push(Action::Deliver {
                key: key.clone(),
                value: value.clone(),
            });
        }
        actions
    }

    /// Forgets all broadcast instances, keeping bounded capacity.
    ///
    /// This is the recycling hook for pipelined replication: one IDB state
    /// machine is reused across many consecutive log slots, so the
    /// instance table and the witness table are cleared in place — nothing
    /// is freed or reallocated per slot. Retained capacity is bounded by
    /// [`RETAINED_CAPACITY`](crate::RETAINED_CAPACITY): a slot that opened
    /// unusually many tagged instances (e.g. a long UC round tail) or
    /// stored unusually many witnessed values must not pin that high-water
    /// mark for the rest of a long pipelined campaign.
    pub fn reset(&mut self) {
        self.instances.reset();
        self.witnesses.reset();
    }

    /// Whether this process has already accepted (Id-Received) for `key`.
    pub fn has_accepted(&self, key: &K) -> bool {
        self.instances.lookup(key).is_some_and(|s| s.accepted)
    }

    /// Number of distinct witnesses counted for `(key, value)`. Counting
    /// stops once the instance has accepted: later echoes change nothing.
    pub fn witness_count(&self, key: &K, value: &V) -> usize {
        self.instances
            .lookup(key)
            .map_or(0, |s| self.witnesses.count(s.witnesses, value))
    }

    /// Handles one received `(init, m)` for `key`: what
    /// [`on_message`](Self::on_message) does for an [`IdbMessage::Init`].
    /// The verdict's `echo` asks the caller to broadcast `(echo, m, j)`
    /// with the init's key and value; an init never accepts.
    pub fn on_init(&mut self, from: ProcessId, key: &K) -> IdbVerdict {
        // Only the instance's origin may open it; anything else is a forgery
        // (possible only from Byzantine processes) and is ignored, as is an
        // origin outside the configuration.
        if from != key.origin() || !admissible(&self.config, from, key) {
            return IdbVerdict::default();
        }
        let state = self.instances.open(key);
        // first-echo(j) guard.
        let echo = !state.echoed;
        state.echoed = true;
        IdbVerdict {
            echo,
            accept: false,
        }
    }

    /// Handles one received `(echo, value, key)` by reference: what
    /// [`on_message`](Self::on_message) does for an [`IdbMessage::Echo`].
    /// The verdict refers to this key and value; the machine clones the
    /// value only if its witness table has never stored it.
    pub fn on_echo(&mut self, from: ProcessId, key: &K, value: &V) -> IdbVerdict {
        let mut verdict = IdbVerdict::default();
        if !admissible(&self.config, from, key) {
            return verdict;
        }
        let state = self.instances.open(key);
        if state.accepted {
            // Accepted implies echoed (n − t ≥ n − 2t on the same count):
            // no later echo can act, so none may cost time or memory.
            return verdict;
        }
        let num = self.witnesses.insert(&mut state.witnesses, value, from);
        if num >= self.config.echo_threshold() && !state.echoed {
            // Witness amplification: enough echoes convince us even without
            // having seen the init directly.
            state.echoed = true;
            verdict.echo = true;
        }
        if num >= self.config.quorum() && !state.accepted {
            // first-accept(j) guard.
            state.accepted = true;
            verdict.accept = true;
        }
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Idb = IdenticalBroadcast<ProcessId, u64>;
    type Act = Action<ProcessId, IdbMessage<ProcessId, u64>, u64>;

    fn cfg(n: usize, t: usize) -> SystemConfig {
        SystemConfig::new(n, t).unwrap()
    }

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn echo(key: usize, value: u64) -> IdbMessage<ProcessId, u64> {
        IdbMessage::Echo { key: p(key), value }
    }

    #[test]
    #[should_panic(expected = "n > 4t")]
    fn rejects_insufficient_resilience() {
        let _ = Idb::new(cfg(4, 1));
    }

    #[test]
    fn init_from_origin_triggers_single_echo() {
        let mut idb = Idb::new(cfg(5, 1));
        let init = Idb::id_send(p(0), 7);
        let a1 = idb.on_message(p(0), &init);
        assert_eq!(a1, vec![Act::Broadcast(echo(0, 7))]);
        // Duplicate init: first-echo guard suppresses a second echo.
        let a2 = idb.on_message(p(0), &init);
        assert!(a2.is_empty());
    }

    #[test]
    fn init_forgery_is_ignored() {
        let mut idb = Idb::new(cfg(5, 1));
        // p3 claims to open p0's instance — rejected.
        let forged = IdbMessage::Init {
            key: p(0),
            value: 9,
        };
        assert!(idb.on_message(p(3), &forged).is_empty());
        assert_eq!(idb.witness_count(&p(0), &9), 0);
    }

    #[test]
    fn amplification_at_n_minus_2t() {
        // n = 5, t = 1: n − 2t = 3 echoes make us echo without an init.
        let mut idb = Idb::new(cfg(5, 1));
        assert!(idb.on_message(p(1), &echo(0, 7)).is_empty());
        assert!(idb.on_message(p(2), &echo(0, 7)).is_empty());
        let a = idb.on_message(p(3), &echo(0, 7));
        assert_eq!(a, vec![Act::Broadcast(echo(0, 7))]);
    }

    #[test]
    fn acceptance_at_n_minus_t_exactly_once() {
        // n = 5, t = 1: n − t = 4 echoes accept.
        let mut idb = Idb::new(cfg(5, 1));
        for i in 1..4 {
            idb.on_message(p(i), &echo(0, 7));
        }
        let a = idb.on_message(p(4), &echo(0, 7));
        assert!(a.contains(&Act::Deliver {
            key: p(0),
            value: 7
        }));
        assert!(idb.has_accepted(&p(0)));
        // A fifth echo changes nothing: first-accept guard.
        let a2 = idb.on_message(p(0), &echo(0, 7));
        assert!(a2.is_empty());
    }

    #[test]
    fn duplicate_echoes_from_same_witness_count_once() {
        let mut idb = Idb::new(cfg(5, 1));
        for _ in 0..10 {
            idb.on_message(p(1), &echo(0, 7));
        }
        assert_eq!(idb.witness_count(&p(0), &7), 1);
        assert!(!idb.has_accepted(&p(0)));
    }

    #[test]
    fn conflicting_echo_values_are_tracked_separately() {
        let mut idb = Idb::new(cfg(9, 2));
        idb.on_message(p(1), &echo(0, 7));
        idb.on_message(p(2), &echo(0, 8));
        assert_eq!(idb.witness_count(&p(0), &7), 1);
        assert_eq!(idb.witness_count(&p(0), &8), 1);
    }

    #[test]
    fn echo_after_amplified_echo_is_suppressed() {
        // Once we echoed (via init), amplification must not echo again.
        let mut idb = Idb::new(cfg(5, 1));
        idb.on_message(p(0), &Idb::id_send(p(0), 7));
        for i in 1..4 {
            let a = idb.on_message(p(i), &echo(0, 7));
            for act in &a {
                assert!(!matches!(act, Act::Broadcast(_)), "unexpected re-echo");
            }
        }
    }

    #[test]
    fn echoes_outside_the_configuration_leave_no_state() {
        let mut idb: IdenticalBroadcast<(ProcessId, u64), u64> = IdenticalBroadcast::new(cfg(5, 1));
        for tag in 0..1000 {
            // A Byzantine member echoes for origins that do not exist…
            let forged = IdbMessage::Echo {
                key: (p(5 + tag as usize), tag),
                value: 7,
            };
            assert!(idb.on_message(p(1), &forged).is_empty());
            // …and a sender that is no member vouches for a real origin.
            let alien = IdbMessage::Echo {
                key: (p(0), tag),
                value: 7,
            };
            assert!(idb.on_message(p(5), &alien).is_empty());
            assert!(idb.on_message(p(usize::MAX), &alien).is_empty());
        }
        assert!(idb.instances.is_empty());
    }

    #[test]
    fn inits_from_origins_outside_the_configuration_leave_no_state() {
        // The dense table holds one state per process of the configuration:
        // an init (or echo) from beyond it is dropped, not an index past it.
        let mut dense = Idb::new(cfg(5, 1));
        let mut tagged: IdenticalBroadcast<(ProcessId, u64), u64> =
            IdenticalBroadcast::new(cfg(5, 1));
        for origin in [5, 6, 64, usize::MAX] {
            assert!(dense
                .on_message(p(origin), &Idb::id_send(p(origin), 7))
                .is_empty());
            assert!(dense.on_message(p(1), &echo(origin, 7)).is_empty());
            let init = IdbMessage::Init {
                key: (p(origin), 0),
                value: 7,
            };
            assert!(tagged.on_message(p(origin), &init).is_empty());
        }
        assert_eq!(dense.instances.len(), 5);
        assert!(dense.instances.iter().all(|s| !s.echoed && !s.accepted));
        assert!(tagged.instances.is_empty());
    }

    #[test]
    fn queries_for_origins_outside_the_configuration_answer_nothing() {
        let mut dense = Idb::new(cfg(5, 1));
        let mut tagged: IdenticalBroadcast<(ProcessId, u64), u64> =
            IdenticalBroadcast::new(cfg(5, 1));
        for i in 1..=4 {
            dense.on_message(p(i), &echo(0, 7));
            tagged.on_message(
                p(i),
                &IdbMessage::Echo {
                    key: (p(0), 0),
                    value: 7,
                },
            );
        }
        assert!(dense.has_accepted(&p(0)) && tagged.has_accepted(&(p(0), 0)));
        for origin in [5, 64, usize::MAX] {
            assert!(!dense.has_accepted(&p(origin)));
            assert_eq!(dense.witness_count(&p(origin), &7), 0);
            assert!(!tagged.has_accepted(&(p(origin), 0)));
            assert_eq!(tagged.witness_count(&(p(origin), 0), &7), 0);
        }
    }

    #[test]
    fn tagged_instances_are_independent() {
        let mut idb: IdenticalBroadcast<(ProcessId, u32), u64> = IdenticalBroadcast::new(cfg(5, 1));
        let k1 = (p(0), 1u32);
        let k2 = (p(0), 2u32);
        for i in 1..=4 {
            idb.on_message(p(i), &IdbMessage::Echo { key: k1, value: 7 });
        }
        assert!(idb.has_accepted(&k1));
        assert!(!idb.has_accepted(&k2));
    }

    #[test]
    fn reset_pins_retained_capacity() {
        // One pathological slot opens far more tagged instances than the
        // retention bound (a long UC round tail), each witnessing a value
        // of its own; recycling must not pin that high-water mark.
        let mut idb: IdenticalBroadcast<(ProcessId, u64), u64> = IdenticalBroadcast::new(cfg(5, 1));
        for tag in 0..(8 * crate::RETAINED_CAPACITY as u64) {
            idb.on_message(
                p(1),
                &IdbMessage::Echo {
                    key: (p(0), tag),
                    value: tag,
                },
            );
        }
        assert!(idb.instances.capacity() > crate::RETAINED_CAPACITY);
        assert!(idb.witnesses.capacity() > crate::RETAINED_CAPACITY);
        idb.reset();
        for kept in [idb.instances.capacity(), idb.witnesses.capacity()] {
            assert!(
                kept <= 2 * crate::RETAINED_CAPACITY,
                "reset must bound retained capacity, kept {kept}"
            );
        }
        assert!(idb.instances.is_empty());
        // Still fully usable after the bounded reset.
        for i in 1..=4 {
            idb.on_message(
                p(i),
                &IdbMessage::Echo {
                    key: (p(0), 0),
                    value: 9,
                },
            );
        }
        assert!(idb.has_accepted(&(p(0), 0)));
    }

    #[test]
    fn accepts_even_when_origin_never_contacted_us() {
        // A faulty origin sends init to only n − 2t others; their echoes and
        // the amplification still reach acceptance everywhere. Here we just
        // check the local machine accepts from echoes alone.
        let mut idb = Idb::new(cfg(9, 2));
        let mut delivered = false;
        for i in 1..=7 {
            for act in idb.on_message(p(i), &echo(0, 3)) {
                if matches!(act, Act::Deliver { .. }) {
                    delivered = true;
                }
            }
        }
        assert!(delivered);
    }
}
