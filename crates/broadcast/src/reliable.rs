//! Bracha-style Reliable Broadcast (init / echo / ready).
//!
//! Not part of the DEX paper itself, but a classic sibling of Identical
//! Broadcast used by the randomized underlying consensus in
//! `dex-underlying`, and a useful comparison point: RB tolerates `n > 3t`
//! (better than IDB's `n > 4t`) at the cost of **three** point-to-point
//! steps per broadcast instead of two. RB additionally guarantees
//! *totality*: if any correct process delivers, every correct process
//! eventually delivers, even for a faulty sender.

use crate::key::{InstanceKey, InstanceTable};
use crate::witness::{admissible, Chain, WitnessTable};
use crate::Action;
use dex_types::{ProcessId, SystemConfig, Value};

/// A protocol message of Reliable Broadcast.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RbMessage<K, V> {
    /// The sender starts broadcasting `value`.
    Init {
        /// The broadcast instance.
        key: K,
        /// The broadcast value.
        value: V,
    },
    /// First-round witness.
    Echo {
        /// The broadcast instance.
        key: K,
        /// The witnessed value.
        value: V,
    },
    /// Second-round commitment: the sender has seen enough echoes or enough
    /// readies to be sure the value is locked.
    Ready {
        /// The broadcast instance.
        key: K,
        /// The locked value.
        value: V,
    },
}

#[derive(Clone, Copy, Default, Debug)]
struct InstanceState {
    echoed: bool,
    readied: bool,
    delivered: bool,
    /// Echo and ready witnesses per value: two chains in the machine's one
    /// witness table.
    echoes: Chain,
    readies: Chain,
}

/// Bracha's reliable broadcast state machine (one per process).
///
/// Thresholds for `n` processes and `t` faults:
///
/// * echo on first `init` from the origin;
/// * `ready` on `> (n + t) / 2` matching echoes, or on `t + 1` matching
///   readies (amplification);
/// * deliver on `2t + 1` matching readies.
///
/// Instance state lives in the table the key type picks, behind the same
/// origin guard as [`crate::IdenticalBroadcast`]'s.
///
/// Requires `n > 3t`.
#[derive(Clone, Debug)]
pub struct ReliableBroadcast<K: InstanceKey, V> {
    config: SystemConfig,
    instances: K::Table<InstanceState>,
    /// Every instance's echo and ready witnesses (see [`WitnessTable`]).
    witnesses: WitnessTable<V>,
}

impl<K: InstanceKey, V: Value> ReliableBroadcast<K, V> {
    /// Creates the state machine.
    ///
    /// # Panics
    ///
    /// Panics unless `n > 3t` (guaranteed by [`SystemConfig`]'s own
    /// invariant, asserted here for symmetry with
    /// [`crate::IdenticalBroadcast`]).
    pub fn new(config: SystemConfig) -> Self {
        assert!(
            config.n() > 3 * config.t(),
            "reliable broadcast requires n > 3t, got {config}"
        );
        ReliableBroadcast {
            config,
            instances: InstanceTable::with_origins(config.n()),
            witnesses: WitnessTable::new(config.n()),
        }
    }

    /// `RB-Send`: builds the `Init` message the caller must broadcast to all
    /// processes (including itself).
    pub fn rb_send(key: K, value: V) -> RbMessage<K, V> {
        RbMessage::Init { key, value }
    }

    /// Forgets all broadcast instances, keeping bounded capacity — the RB
    /// counterpart of [`IdenticalBroadcast::reset`](crate::IdenticalBroadcast::reset)
    /// for machines recycled across many slots.
    pub fn reset(&mut self) {
        self.instances.reset();
        self.witnesses.reset();
    }

    /// Whether `key` has been delivered locally.
    pub fn has_delivered(&self, key: &K) -> bool {
        self.instances.lookup(key).is_some_and(|s| s.delivered)
    }

    fn echo_quorum(&self) -> usize {
        // > (n + t) / 2, i.e. floor((n + t) / 2) + 1.
        (self.config.n() + self.config.t()) / 2 + 1
    }

    /// Handles one received protocol message. `from` must be the
    /// authenticated network-level sender. The message is borrowed
    /// (multicast payloads are shared by the network layer); the machine
    /// clones only what it stores.
    pub fn on_message(
        &mut self,
        from: ProcessId,
        msg: &RbMessage<K, V>,
    ) -> Vec<Action<K, RbMessage<K, V>, V>> {
        match msg {
            RbMessage::Init { key, value } => {
                if from != key.origin() || !admissible(&self.config, from, key) {
                    return Vec::new();
                }
                let state = self.instances.open(key);
                if state.echoed {
                    return Vec::new();
                }
                state.echoed = true;
                vec![Action::Broadcast(RbMessage::Echo {
                    key: key.clone(),
                    value: value.clone(),
                })]
            }
            RbMessage::Echo { key, .. } | RbMessage::Ready { key, .. }
                if !admissible(&self.config, from, key) =>
            {
                Vec::new()
            }
            RbMessage::Echo { key, value } => {
                let echo_quorum = self.echo_quorum();
                let state = self.instances.open(key);
                if state.delivered {
                    // Delivered implies readied (2t + 1 ≥ t + 1 on the same
                    // count): no later echo or ready can act, so none may
                    // cost time or memory.
                    return Vec::new();
                }
                let num = self.witnesses.insert(&mut state.echoes, value, from);
                if num >= echo_quorum && !state.readied {
                    state.readied = true;
                    return vec![Action::Broadcast(RbMessage::Ready {
                        key: key.clone(),
                        value: value.clone(),
                    })];
                }
                Vec::new()
            }
            RbMessage::Ready { key, value } => {
                let state = self.instances.open(key);
                if state.delivered {
                    return Vec::new();
                }
                let num = self.witnesses.insert(&mut state.readies, value, from);
                let mut actions = Vec::new();
                // Thresholds written as in the literature (t + 1, 2t + 1).
                #[allow(clippy::int_plus_one)]
                if num >= self.config.t() + 1 && !state.readied {
                    state.readied = true;
                    actions.push(Action::Broadcast(RbMessage::Ready {
                        key: key.clone(),
                        value: value.clone(),
                    }));
                }
                if num >= 2 * self.config.t() + 1 && !state.delivered {
                    state.delivered = true;
                    actions.push(Action::Deliver {
                        key: key.clone(),
                        value: value.clone(),
                    });
                }
                actions
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Rb = ReliableBroadcast<ProcessId, u64>;
    type Act = Action<ProcessId, RbMessage<ProcessId, u64>, u64>;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn rb(n: usize, t: usize) -> Rb {
        ReliableBroadcast::new(SystemConfig::new(n, t).unwrap())
    }

    fn echo(value: u64) -> RbMessage<ProcessId, u64> {
        RbMessage::Echo { key: p(0), value }
    }

    fn ready(value: u64) -> RbMessage<ProcessId, u64> {
        RbMessage::Ready { key: p(0), value }
    }

    #[test]
    fn init_triggers_echo_once() {
        let mut m = rb(4, 1);
        let a = m.on_message(p(0), &Rb::rb_send(p(0), 5));
        assert_eq!(a, vec![Act::Broadcast(echo(5))]);
        assert!(m.on_message(p(0), &Rb::rb_send(p(0), 5)).is_empty());
    }

    #[test]
    fn forged_init_is_ignored() {
        let mut m = rb(4, 1);
        assert!(m
            .on_message(
                p(2),
                &RbMessage::Init {
                    key: p(0),
                    value: 5
                }
            )
            .is_empty());
    }

    #[test]
    fn ready_after_echo_quorum() {
        // n = 4, t = 1: echo quorum = (4+1)/2 + 1 = 3.
        let mut m = rb(4, 1);
        assert!(m.on_message(p(1), &echo(5)).is_empty());
        assert!(m.on_message(p(2), &echo(5)).is_empty());
        let a = m.on_message(p(3), &echo(5));
        assert_eq!(a, vec![Act::Broadcast(ready(5))]);
    }

    #[test]
    fn ready_amplification_at_t_plus_one() {
        let mut m = rb(4, 1);
        assert!(m.on_message(p(1), &ready(5)).is_empty());
        let a = m.on_message(p(2), &ready(5));
        assert_eq!(a, vec![Act::Broadcast(ready(5))]);
    }

    #[test]
    fn delivery_at_2t_plus_one_readies_once() {
        let mut m = rb(4, 1);
        m.on_message(p(1), &ready(5));
        m.on_message(p(2), &ready(5));
        let a = m.on_message(p(3), &ready(5));
        assert!(a.contains(&Act::Deliver {
            key: p(0),
            value: 5
        }));
        assert!(m.has_delivered(&p(0)));
        assert!(m.on_message(p(0), &ready(5)).is_empty());
    }

    #[test]
    fn reset_pins_retained_capacity() {
        let mut m: ReliableBroadcast<(ProcessId, u64), u64> =
            ReliableBroadcast::new(SystemConfig::new(4, 1).unwrap());
        for tag in 0..(8 * crate::RETAINED_CAPACITY as u64) {
            m.on_message(
                p(1),
                &RbMessage::Echo {
                    key: (p(0), tag),
                    value: tag,
                },
            );
        }
        assert!(m.instances.capacity() > crate::RETAINED_CAPACITY);
        assert!(m.witnesses.capacity() > crate::RETAINED_CAPACITY);
        m.reset();
        for kept in [m.instances.capacity(), m.witnesses.capacity()] {
            assert!(
                kept <= 2 * crate::RETAINED_CAPACITY,
                "reset must bound retained capacity, kept {kept}"
            );
        }
        assert!(m.instances.is_empty());
        // Still fully usable after the bounded reset.
        let a = m.on_message(p(0), &ReliableBroadcast::rb_send((p(0), 0u64), 5));
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn echoes_and_readies_outside_the_configuration_leave_no_state() {
        let mut m: ReliableBroadcast<(ProcessId, u64), u64> =
            ReliableBroadcast::new(SystemConfig::new(4, 1).unwrap());
        for tag in 0..1000 {
            // A Byzantine member vouches for origins that do not exist, and
            // a sender that is no member vouches for a real origin.
            let forged = (p(4 + tag as usize), tag);
            let real = (p(0), tag);
            for (from, key) in [(p(1), forged), (p(4), real), (p(usize::MAX), real)] {
                assert!(m
                    .on_message(from, &RbMessage::Echo { key, value: 5 })
                    .is_empty());
                assert!(m
                    .on_message(from, &RbMessage::Ready { key, value: 5 })
                    .is_empty());
            }
        }
        assert!(m.instances.is_empty());
    }

    #[test]
    fn messages_for_origins_outside_the_configuration_leave_no_state() {
        // The dense table holds one state per process of the configuration:
        // an init, echo or ready from beyond it is dropped, not an index
        // past it, and a query for such an origin answers "not delivered".
        let mut dense = rb(4, 1);
        let mut tagged: ReliableBroadcast<(ProcessId, u64), u64> =
            ReliableBroadcast::new(SystemConfig::new(4, 1).unwrap());
        for origin in [4, 5, 64, usize::MAX] {
            let key = p(origin);
            assert!(dense.on_message(key, &Rb::rb_send(key, 5)).is_empty());
            for from in [1, 2, 3] {
                assert!(dense
                    .on_message(p(from), &RbMessage::Echo { key, value: 5 })
                    .is_empty());
                assert!(dense
                    .on_message(p(from), &RbMessage::Ready { key, value: 5 })
                    .is_empty());
            }
            assert!(!dense.has_delivered(&key));
            let init = ReliableBroadcast::rb_send((key, 0u64), 5);
            assert!(tagged.on_message(key, &init).is_empty());
            assert!(!tagged.has_delivered(&(key, 0)));
        }
        assert_eq!(dense.instances.len(), 4);
        assert!(dense.instances.iter().all(|s| !s.echoed && !s.readied));
        assert!(tagged.instances.is_empty());
    }

    #[test]
    fn conflicting_values_do_not_mix_counts() {
        let mut m = rb(7, 2);
        m.on_message(p(1), &ready(5));
        m.on_message(p(2), &ready(6));
        m.on_message(p(3), &ready(5));
        // 2 readies for 5 and 1 for 6: amplification threshold is t+1 = 3,
        // so nothing fires yet.
        assert!(!m.has_delivered(&p(0)));
    }
}
