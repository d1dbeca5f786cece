//! Property-based tests of the broadcast state machines: arbitrary
//! (adversarial) message sequences can never forge deliveries, duplicate
//! them, or make one machine emit unboundedly — and the machines act, step
//! for step, like a reference that counts witnesses in hash sets.

use dex_broadcast::{
    Action, IdbMessage, IdenticalBroadcast, InstanceKey, RbMessage, ReliableBroadcast,
};
use dex_types::{ProcessId, SystemConfig};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

const N: usize = 9;
const T: usize = 2;

#[derive(Clone, Debug)]
enum Input {
    Init {
        from: usize,
        origin: usize,
        value: u64,
    },
    Echo {
        from: usize,
        origin: usize,
        value: u64,
    },
    Ready {
        from: usize,
        origin: usize,
        value: u64,
    },
}

fn input_strategy() -> impl Strategy<Value = Input> {
    (0usize..N, 0usize..N, 0u64..3, 0u8..3).prop_map(|(from, origin, value, kind)| match kind {
        0 => Input::Init {
            from,
            origin,
            value,
        },
        1 => Input::Echo {
            from,
            origin,
            value,
        },
        _ => Input::Ready {
            from,
            origin,
            value,
        },
    })
}

#[derive(Clone, Copy, Debug)]
enum Kind {
    Init,
    Echo,
    Ready,
}

type Key = (ProcessId, u8);

/// The instance keys the differential streams run over: a tagged key, whose
/// machines keep instances in a map, and a bare `ProcessId`, whose machines
/// keep one dense entry per origin (the tag is dropped, so the stream's two
/// tags share an instance).
trait StreamKey: InstanceKey + Copy {
    fn of(origin: ProcessId, tag: u8) -> Self;
}

impl StreamKey for Key {
    fn of(origin: ProcessId, tag: u8) -> Self {
        (origin, tag)
    }
}

impl StreamKey for ProcessId {
    fn of(origin: ProcessId, _: u8) -> Self {
        origin
    }
}

/// The systems the differential streams run at: senders in one bitset
/// word, just across a word boundary, and in three words.
const SYSTEMS: [(usize, usize); 3] = [(9, 2), (65, 10), (130, 21)];

/// Processes outside a system of `n`: the first ones past it, one a word
/// past it, and the largest id there is.
fn outside(n: usize) -> [usize; 4] {
    [n, n + 1, n + 64, usize::MAX]
}

/// A process of a system whose size the stream does not know yet: half the
/// draws sit on the edges of the 64-bit words a sender bitset is made of,
/// and a few are no process of the system at all.
#[derive(Clone, Copy, Debug)]
struct Pick {
    edge: bool,
    alien: bool,
    at: prop::sample::Index,
}

impl Pick {
    fn of(self, n: usize) -> usize {
        const EDGES: [usize; 9] = [0, 1, 62, 63, 64, 65, 127, 128, 129];
        if self.alien {
            *self.at.get(&outside(n))
        } else if self.edge {
            EDGES[self.at.index(EDGES.iter().filter(|&&e| e < n).count())]
        } else {
            self.at.index(n)
        }
    }
}

/// One step of the differential streams. Few origins and values, so that
/// thresholds are crossed often; every sender may be Byzantine (repeat
/// itself, vouch for several values, forge inits).
#[derive(Clone, Debug)]
enum Step {
    Send(Burst),
    /// The machine is recycled for the next slot.
    Reset,
}

/// `from` — the instance's origin itself if `own` — and, in a sweep, the
/// `sweep.index(n)` processes after it, wrapping — send these messages on
/// instance `(origin, tag)`: one, or — a value flood — an echo and a ready
/// for each of `k` further values. `origin` is process 0 or 1, or (`None`)
/// one outside the system.
#[derive(Clone, Debug)]
struct Burst {
    from: Pick,
    own: bool,
    sweep: Option<prop::sample::Index>,
    origin: Option<usize>,
    tag: u8,
    msgs: Vec<(Kind, u64)>,
}

impl Burst {
    fn origin(&self, n: usize) -> usize {
        self.origin.unwrap_or(outside(n)[self.tag as usize])
    }

    /// The instance key in a system of `n`.
    fn key<K: StreamKey>(&self, n: usize) -> K {
        K::of(ProcessId::new(self.origin(n)), self.tag)
    }

    /// The `(sender, kind, value)` messages in a system of `n`. A sender
    /// outside the system sends alone.
    fn sends(&self, n: usize) -> impl Iterator<Item = (ProcessId, Kind, u64)> + '_ {
        let from = if self.own {
            self.origin(n)
        } else {
            self.from.of(n)
        };
        let more = match self.sweep {
            Some(more) if from < n => more.index(n),
            _ => 0,
        };
        (0..=more).flat_map(move |k| {
            let sender = if k == 0 { from } else { (from + k) % n };
            self.msgs
                .iter()
                .map(move |&(kind, value)| (ProcessId::new(sender), kind, value))
        })
    }
}

fn step_strategy() -> impl Strategy<Value = Step> {
    let from = (0u8..40, any::<prop::sample::Index>());
    let sweep = (0u8..100, any::<prop::sample::Index>());
    (from, sweep, 0usize..40, 0u8..2, 0u64..2, 0u8..100).prop_map(
        |((pick, at), (swept, more), origin, tag, value, kind)| {
            let mut sweep = (swept < 15).then_some(more);
            let msgs = match kind {
                0..=9 => vec![(Kind::Init, value)],
                10..=54 => vec![(Kind::Echo, value)],
                55..=94 => vec![(Kind::Ready, value)],
                95..=98 => {
                    sweep = None;
                    (10..18 + 8 * value)
                        .flat_map(|v| [(Kind::Echo, v), (Kind::Ready, v)])
                        .collect()
                }
                _ => return Step::Reset,
            };
            Step::Send(Burst {
                from: Pick {
                    edge: pick % 2 == 0,
                    alien: pick == 1,
                    at,
                },
                own: pick % 8 == 3,
                sweep,
                origin: (origin < 36).then_some(origin % 2),
                tag,
                msgs,
            })
        },
    )
}

/// Witness counting as both machines spelled it before `WitnessTable`.
type Witnesses = HashMap<u64, HashSet<ProcessId>>;

fn witness(map: &mut Witnesses, value: u64, from: ProcessId) -> usize {
    let set = map.entry(value).or_default();
    set.insert(from);
    set.len()
}

#[derive(Default)]
struct RefInstance {
    echoed: bool,
    readied: bool,
    done: bool,
    echoes: Witnesses,
    readies: Witnesses,
}

/// The reference: Fig. 3 and Bracha's thresholds over hash-set witnesses,
/// for messages whose sender and instance origin are both processes of the
/// system; anything else is dropped.
struct Reference<K>(HashMap<K, RefInstance>);

impl<K> Default for Reference<K> {
    fn default() -> Self {
        Reference(HashMap::new())
    }
}

fn admissible<K: InstanceKey>(cfg: SystemConfig, from: ProcessId, key: &K) -> bool {
    from.index() < cfg.n() && key.origin().index() < cfg.n()
}

impl<K: StreamKey> Reference<K> {
    fn idb(
        &mut self,
        cfg: SystemConfig,
        from: ProcessId,
        msg: &IdbMessage<K, u64>,
    ) -> Vec<Action<K, IdbMessage<K, u64>, u64>> {
        let mut actions = Vec::new();
        match *msg {
            IdbMessage::Init { key, .. } | IdbMessage::Echo { key, .. }
                if !admissible(cfg, from, &key) => {}
            IdbMessage::Init { key, value } if from == key.origin() => {
                let s = self.0.entry(key).or_default();
                if !std::mem::replace(&mut s.echoed, true) {
                    actions.push(Action::Broadcast(IdbMessage::Echo { key, value }));
                }
            }
            IdbMessage::Init { .. } => {}
            IdbMessage::Echo { key, value } => {
                let s = self.0.entry(key).or_default();
                let num = witness(&mut s.echoes, value, from);
                if num >= cfg.echo_threshold() && !std::mem::replace(&mut s.echoed, true) {
                    actions.push(Action::Broadcast(IdbMessage::Echo { key, value }));
                }
                if num >= cfg.quorum() && !std::mem::replace(&mut s.done, true) {
                    actions.push(Action::Deliver { key, value });
                }
            }
        }
        actions
    }

    fn rb(
        &mut self,
        cfg: SystemConfig,
        from: ProcessId,
        msg: &RbMessage<K, u64>,
    ) -> Vec<Action<K, RbMessage<K, u64>, u64>> {
        let mut actions = Vec::new();
        match *msg {
            RbMessage::Init { key, .. }
            | RbMessage::Echo { key, .. }
            | RbMessage::Ready { key, .. }
                if !admissible(cfg, from, &key) => {}
            RbMessage::Init { key, value } if from == key.origin() => {
                let s = self.0.entry(key).or_default();
                if !std::mem::replace(&mut s.echoed, true) {
                    actions.push(Action::Broadcast(RbMessage::Echo { key, value }));
                }
            }
            RbMessage::Init { .. } => {}
            RbMessage::Echo { key, value } => {
                let s = self.0.entry(key).or_default();
                let num = witness(&mut s.echoes, value, from);
                if num > (cfg.n() + cfg.t()) / 2 && !std::mem::replace(&mut s.readied, true) {
                    actions.push(Action::Broadcast(RbMessage::Ready { key, value }));
                }
            }
            RbMessage::Ready { key, value } => {
                let s = self.0.entry(key).or_default();
                let num = witness(&mut s.readies, value, from);
                if num > cfg.t() && !std::mem::replace(&mut s.readied, true) {
                    actions.push(Action::Broadcast(RbMessage::Ready { key, value }));
                }
                if num > 2 * cfg.t() && !std::mem::replace(&mut s.done, true) {
                    actions.push(Action::Deliver { key, value });
                }
            }
        }
        actions
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Differential: at every system size, over tagged keys (an instance
    /// map) and bare `ProcessId` keys (a dense table), IDB emits the
    /// reference's actions at every step, and ends with the reference's
    /// acceptances and — where it has not accepted, which is where
    /// counting stops — the reference's counts. Readies are fed as echoes,
    /// as in `idb_machine_invariants`.
    #[test]
    fn idb_acts_like_the_hash_set_reference(steps in proptest::collection::vec(step_strategy(), 1..300)) {
        idb_differential::<Key>(&steps)?;
        idb_differential::<ProcessId>(&steps)?;
    }

    /// Differential: at every system size, over tagged and bare keys, RB
    /// emits the reference's actions at every step and ends with the
    /// reference's deliveries.
    #[test]
    fn rb_acts_like_the_hash_set_reference(steps in proptest::collection::vec(step_strategy(), 1..300)) {
        rb_differential::<Key>(&steps)?;
        rb_differential::<ProcessId>(&steps)?;
    }

    /// Feed an arbitrary message soup into one IDB machine; invariants:
    /// at most one delivery per instance, every delivered value had at
    /// least `n − t` distinct witnesses, at most one *broadcast* action per
    /// instance (the single echo), and inits from non-origins do nothing.
    #[test]
    fn idb_machine_invariants(inputs in proptest::collection::vec(input_strategy(), 1..200)) {
        let cfg = SystemConfig::new(N, T).unwrap();
        let mut idb: IdenticalBroadcast<ProcessId, u64> = IdenticalBroadcast::new(cfg);
        let mut deliveries: Vec<(ProcessId, u64)> = Vec::new();
        let mut echoes_sent: Vec<ProcessId> = Vec::new();
        for input in &inputs {
            let (from, msg) = match *input {
                Input::Init { from, origin, value } => (
                    ProcessId::new(from),
                    IdbMessage::Init { key: ProcessId::new(origin), value },
                ),
                Input::Echo { from, origin, value } | Input::Ready { from, origin, value } => (
                    ProcessId::new(from),
                    IdbMessage::Echo { key: ProcessId::new(origin), value },
                ),
            };
            for action in idb.on_message(from, &msg) {
                match action {
                    Action::Broadcast(IdbMessage::Echo { key, .. }) => echoes_sent.push(key),
                    Action::Broadcast(IdbMessage::Init { .. }) => {
                        prop_assert!(false, "the machine never emits inits");
                    }
                    Action::Deliver { key, value } => {
                        prop_assert!(
                            idb.witness_count(&key, &value) >= cfg.quorum(),
                            "delivery without a quorum of witnesses"
                        );
                        deliveries.push((key, value));
                    }
                }
            }
        }
        // At most one delivery and one echo per instance.
        let mut keys: Vec<ProcessId> = deliveries.iter().map(|(k, _)| *k).collect();
        keys.sort_unstable();
        let before = keys.len();
        keys.dedup();
        prop_assert_eq!(before, keys.len(), "double delivery");
        let mut es = echoes_sent.clone();
        es.sort_unstable();
        let before = es.len();
        es.dedup();
        prop_assert_eq!(before, es.len(), "double echo for one instance");
    }

    /// Same soup against the reliable-broadcast machine.
    #[test]
    fn rb_machine_invariants(inputs in proptest::collection::vec(input_strategy(), 1..200)) {
        let cfg = SystemConfig::new(N, T).unwrap();
        let mut rb: ReliableBroadcast<ProcessId, u64> = ReliableBroadcast::new(cfg);
        let mut delivered: Vec<ProcessId> = Vec::new();
        let mut readies: Vec<ProcessId> = Vec::new();
        for input in &inputs {
            let (from, msg) = match *input {
                Input::Init { from, origin, value } => (
                    ProcessId::new(from),
                    RbMessage::Init { key: ProcessId::new(origin), value },
                ),
                Input::Echo { from, origin, value } => (
                    ProcessId::new(from),
                    RbMessage::Echo { key: ProcessId::new(origin), value },
                ),
                Input::Ready { from, origin, value } => (
                    ProcessId::new(from),
                    RbMessage::Ready { key: ProcessId::new(origin), value },
                ),
            };
            for action in rb.on_message(from, &msg) {
                match action {
                    Action::Broadcast(RbMessage::Ready { key, .. }) => readies.push(key),
                    Action::Broadcast(RbMessage::Echo { .. }) => {}
                    Action::Broadcast(RbMessage::Init { .. }) => {
                        prop_assert!(false, "the machine never emits inits");
                    }
                    Action::Deliver { key, .. } => delivered.push(key),
                }
            }
        }
        delivered.sort_unstable();
        let before = delivered.len();
        delivered.dedup();
        prop_assert_eq!(before, delivered.len(), "double delivery");
        readies.sort_unstable();
        let before = readies.len();
        readies.dedup();
        prop_assert_eq!(before, readies.len(), "double ready per instance");
    }

    /// Cross-machine agreement: two correct IDB machines fed (possibly
    /// different interleavings of) the same global message pool never
    /// deliver different values for the same instance.
    #[test]
    fn idb_agreement_across_machines(
        inputs in proptest::collection::vec(input_strategy(), 1..150),
        order in proptest::collection::vec(any::<prop::sample::Index>(), 0..150),
    ) {
        let cfg = SystemConfig::new(N, T).unwrap();
        let to_msg = |input: &Input| match *input {
            Input::Init { from, origin, value } => (
                ProcessId::new(from),
                IdbMessage::Init { key: ProcessId::new(origin), value },
            ),
            Input::Echo { from, origin, value } | Input::Ready { from, origin, value } => (
                ProcessId::new(from),
                IdbMessage::Echo { key: ProcessId::new(origin), value },
            ),
        };
        let mut a: IdenticalBroadcast<ProcessId, u64> = IdenticalBroadcast::new(cfg);
        let mut b: IdenticalBroadcast<ProcessId, u64> = IdenticalBroadcast::new(cfg);
        let mut da = std::collections::HashMap::new();
        let mut db = std::collections::HashMap::new();
        for input in &inputs {
            let (from, msg) = to_msg(input);
            for action in a.on_message(from, &msg) {
                if let Action::Deliver { key, value } = action {
                    da.insert(key, value);
                }
            }
        }
        // b sees a permuted sub-multiset of the same pool.
        for idx in &order {
            let input = idx.get(&inputs);
            let (from, msg) = to_msg(input);
            for action in b.on_message(from, &msg) {
                if let Action::Deliver { key, value } = action {
                    db.insert(key, value);
                }
            }
        }
        // NOTE: raw message soups can contain equivocated echo sets that no
        // run with ≤ t Byzantine processes produces, so cross-machine
        // agreement is only guaranteed when each sender echoes one value —
        // enforce that precondition by filtering.
        let mut seen: std::collections::HashMap<(ProcessId, ProcessId), u64> =
            std::collections::HashMap::new();
        let honest = inputs.iter().all(|i| match *i {
            Input::Echo { from, origin, value } | Input::Ready { from, origin, value } => {
                *seen.entry((ProcessId::new(from), ProcessId::new(origin))).or_insert(value)
                    == value
            }
            Input::Init { .. } => true,
        });
        if honest {
            for (key, va) in &da {
                if let Some(vb) = db.get(key) {
                    prop_assert_eq!(va, vb, "agreement violated on {:?}", key);
                }
            }
        }
    }
}

fn idb_differential<K: StreamKey>(steps: &[Step]) -> Result<(), TestCaseError> {
    for (n, t) in SYSTEMS {
        let cfg = SystemConfig::new(n, t).unwrap();
        let mut idb: IdenticalBroadcast<K, u64> = IdenticalBroadcast::new(cfg);
        let mut reference = Reference::default();
        let mut accepted: HashMap<K, u64> = HashMap::new();
        let mut outsiders = HashSet::new();
        for step in steps {
            let Step::Send(send) = step else {
                idb.reset();
                reference = Reference::default();
                accepted.clear();
                continue;
            };
            let key: K = send.key(n);
            if key.origin().index() >= n {
                outsiders.insert(key);
            }
            for (from, kind, value) in send.sends(n) {
                let msg = match kind {
                    Kind::Init => IdbMessage::Init { key, value },
                    Kind::Echo | Kind::Ready => IdbMessage::Echo { key, value },
                };
                let actions = idb.on_message(from, &msg);
                if let Some(Action::Deliver { value, .. }) = actions.last() {
                    accepted.insert(key, *value);
                }
                prop_assert_eq!(actions, reference.idb(cfg, from, &msg));
            }
        }
        for (key, state) in &reference.0 {
            prop_assert_eq!(idb.has_accepted(key), state.done);
            if let Some(value) = accepted.get(key) {
                prop_assert!(idb.witness_count(key, value) >= cfg.quorum());
                continue;
            }
            for (value, senders) in &state.echoes {
                prop_assert_eq!(idb.witness_count(key, value), senders.len());
            }
        }
        for key in &outsiders {
            prop_assert!(!idb.has_accepted(key));
            prop_assert_eq!(idb.witness_count(key, &0), 0);
        }
    }
    Ok(())
}

fn rb_differential<K: StreamKey>(steps: &[Step]) -> Result<(), TestCaseError> {
    for (n, t) in SYSTEMS {
        let cfg = SystemConfig::new(n, t).unwrap();
        let mut rb: ReliableBroadcast<K, u64> = ReliableBroadcast::new(cfg);
        let mut reference = Reference::default();
        let mut outsiders = HashSet::new();
        for step in steps {
            let Step::Send(send) = step else {
                rb.reset();
                reference = Reference::default();
                continue;
            };
            let key: K = send.key(n);
            if key.origin().index() >= n {
                outsiders.insert(key);
            }
            for (from, kind, value) in send.sends(n) {
                let msg = match kind {
                    Kind::Init => RbMessage::Init { key, value },
                    Kind::Echo => RbMessage::Echo { key, value },
                    Kind::Ready => RbMessage::Ready { key, value },
                };
                prop_assert_eq!(rb.on_message(from, &msg), reference.rb(cfg, from, &msg));
            }
        }
        for (key, state) in &reference.0 {
            prop_assert_eq!(rb.has_delivered(key), state.done);
        }
        for key in &outsiders {
            prop_assert!(!rb.has_delivered(key));
        }
    }
    Ok(())
}
