//! Network-level statistics.

use crate::actor::{Actor, MsgClass};
use dex_types::{Dest, StepDepth};

/// Counters maintained by the simulator across one run.
///
/// # Examples
///
/// ```
/// use dex_simnet::NetStats;
/// let stats = NetStats::default();
/// assert_eq!(stats.sent, 0);
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct NetStats {
    /// Messages handed to the network.
    pub sent: u64,
    /// Messages delivered to actors.
    pub delivered: u64,
    /// `Dest::All` multicasts dispatched. Each one stores its payload once
    /// in the simulator's slab, shared by all `n` deliveries.
    pub multicasts: u64,
    /// Payload clones performed by the network layer. `Dest::All` traffic
    /// contributes **zero**; only the per-recipient
    /// `Context::broadcast_others` expansion clones (`n − 1` per call).
    pub payload_clones: u64,
    /// Messages destroyed by the fault schedule: probabilistic link drops
    /// plus deliveries to permanently crashed processes.
    pub dropped: u64,
    /// Extra deliveries injected by probabilistic link duplication (each
    /// shares the original payload — no clone).
    pub duplicated: u64,
    /// Deliveries deferred past a partition heal.
    pub held_partition: u64,
    /// Deliveries deferred past a crash recovery.
    pub held_crash: u64,
    /// Payload bytes carried by the network: each scheduled delivery adds
    /// the size of the payload it carries (see [`Actor::msg_bytes`]), so a
    /// `Dest::All` multicast to `n` processes counts `n × size` — the slab
    /// stores the payload once, but the wire still carries every copy.
    /// Self-addressed timers are local and contribute nothing.
    ///
    /// [`Actor::msg_bytes`]: crate::Actor::msg_bytes
    pub bytes_on_wire: u64,
    /// Sent messages classified [`MsgClass::Init`] — broadcast openers
    /// (IDB/RB inits, proposals, votes). The four `sent_*` class counters
    /// partition [`sent`](Self::sent) exactly.
    pub sent_init: u64,
    /// Sent messages classified [`MsgClass::Echo`] — individually-sent
    /// echoes (the n² flood the aggregation layer exists to compress).
    pub sent_echo: u64,
    /// Sent messages classified [`MsgClass::Batch`] — aggregated echo
    /// batches on the wire (each counts once here however many entries it
    /// carries; the entries land in [`echoes_batched`](Self::echoes_batched)).
    pub sent_batch: u64,
    /// Sent messages in no other class (UC traffic, catch-up, timers).
    pub sent_other: u64,
    /// Echo entries carried inside batch messages: the echoes that *would*
    /// have been individual `sent_echo` messages without aggregation.
    /// Counted once per multicast (not per recipient), mirroring how
    /// [`multicasts`](Self::multicasts) counts.
    pub echoes_batched: u64,
    /// The deepest causal step observed on any message.
    pub max_depth: StepDepth,
    /// Delivered-message count per causal depth (index = depth − 1).
    pub per_depth: Vec<u64>,
}

impl NetStats {
    pub(crate) fn record_send(&mut self, depth: StepDepth, class: MsgClass) {
        self.sent += 1;
        match class {
            MsgClass::Init => self.sent_init += 1,
            MsgClass::Echo => self.sent_echo += 1,
            MsgClass::Batch(_) => self.sent_batch += 1,
            MsgClass::Other => self.sent_other += 1,
        }
        if depth > self.max_depth {
            self.max_depth = depth;
        }
    }

    pub(crate) fn record_delivery(&mut self, depth: StepDepth) {
        self.delivered += 1;
        let idx = depth.get().saturating_sub(1) as usize;
        if self.per_depth.len() <= idx {
            self.per_depth.resize(idx + 1, 0);
        }
        self.per_depth[idx] += 1;
    }

    /// Counts one logical send against the ledger, the way the simulator's
    /// own dispatcher does: class and size are computed **once** per
    /// logical send, batch entries land in
    /// [`echoes_batched`](Self::echoes_batched) once (not per recipient),
    /// and a `Dest::All` multicast counts one multicast plus `n` recipient
    /// copies in [`sent`](Self::sent) and
    /// [`bytes_on_wire`](Self::bytes_on_wire).
    ///
    /// `fanout_clones` is what the runtime's transport actually clones per
    /// multicast: `0` for the simulator's shared slab and for `dex-netd`
    /// (one encoded frame shared across sockets), `n − 1` for the threaded
    /// runtime's per-channel payload expansion. External runtimes
    /// (`dex-threadnet`, `dex-netd`) call this so their wire ledgers stay
    /// comparable with the simulator's line for line.
    pub fn note_send<A: Actor>(
        &mut self,
        n: usize,
        dest: &Dest,
        payload: &A::Msg,
        depth: StepDepth,
        fanout_clones: u64,
    ) {
        let class = A::msg_class(payload);
        let bytes = A::msg_bytes(payload) as u64;
        if let MsgClass::Batch(entries) = class {
            self.echoes_batched += u64::from(entries);
        }
        let copies = match dest {
            Dest::To(_) => 1,
            Dest::All => {
                self.multicasts += 1;
                self.payload_clones += fanout_clones;
                n as u64
            }
        };
        self.sent += copies;
        self.bytes_on_wire += bytes * copies;
        match class {
            MsgClass::Init => self.sent_init += copies,
            MsgClass::Echo => self.sent_echo += copies,
            MsgClass::Batch(_) => self.sent_batch += copies,
            MsgClass::Other => self.sent_other += copies,
        }
        if depth > self.max_depth {
            self.max_depth = depth;
        }
    }

    /// Counts one armed timer: the simulator records each timer as a send
    /// of its payload's class with **no** wire bytes (self-delivery stays
    /// local). External runtimes call this when an actor arms a timer.
    pub fn note_timer<A: Actor>(&mut self, payload: &A::Msg, depth: StepDepth) {
        self.record_send(depth, A::msg_class(payload));
    }

    /// Counts one handled delivery (network envelope or fired timer) at
    /// causal depth `depth`. External runtimes call this where the
    /// simulator would call its internal delivery hook.
    pub fn note_delivery(&mut self, depth: StepDepth) {
        self.record_delivery(depth);
    }

    /// Delivered messages at a given causal depth.
    pub fn delivered_at_depth(&self, depth: StepDepth) -> u64 {
        let idx = depth.get().saturating_sub(1) as usize;
        self.per_depth.get(idx).copied().unwrap_or(0)
    }

    /// Folds another run's counters into this one — batch runners use this
    /// to aggregate wire statistics across runs (sums everywhere except
    /// `max_depth`, which takes the maximum).
    pub fn merge(&mut self, other: &NetStats) {
        self.sent += other.sent;
        self.delivered += other.delivered;
        self.multicasts += other.multicasts;
        self.payload_clones += other.payload_clones;
        self.dropped += other.dropped;
        self.duplicated += other.duplicated;
        self.held_partition += other.held_partition;
        self.held_crash += other.held_crash;
        self.bytes_on_wire += other.bytes_on_wire;
        self.sent_init += other.sent_init;
        self.sent_echo += other.sent_echo;
        self.sent_batch += other.sent_batch;
        self.sent_other += other.sent_other;
        self.echoes_batched += other.echoes_batched;
        if other.max_depth > self.max_depth {
            self.max_depth = other.max_depth;
        }
        if self.per_depth.len() < other.per_depth.len() {
            self.per_depth.resize(other.per_depth.len(), 0);
        }
        for (mine, theirs) in self.per_depth.iter_mut().zip(&other.per_depth) {
            *mine += theirs;
        }
    }

    /// The `--stats` breakdown line, printed by `dex-sim` and `dex-netd`
    /// alike, so a diff between runtimes is a wire difference, never a
    /// formatting one: the four class counters partition `sent` exactly,
    /// `echoes batched` is what the aggregation layer absorbed.
    pub fn breakdown_line(&self) -> String {
        format!(
            "wire classes: init {}  echo {}  batch {}  other {}  | echoes batched {}  bytes {}",
            self.sent_init,
            self.sent_echo,
            self.sent_batch,
            self.sent_other,
            self.echoes_batched,
            self.bytes_on_wire,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = NetStats::default();
        s.record_send(StepDepth::new(1), MsgClass::Init);
        s.record_send(StepDepth::new(3), MsgClass::Other);
        s.record_delivery(StepDepth::new(1));
        s.record_delivery(StepDepth::new(1));
        s.record_delivery(StepDepth::new(3));
        assert_eq!(s.sent, 2);
        assert_eq!(s.delivered, 3);
        assert_eq!(s.max_depth, StepDepth::new(3));
        assert_eq!(s.delivered_at_depth(StepDepth::new(1)), 2);
        assert_eq!(s.delivered_at_depth(StepDepth::new(2)), 0);
        assert_eq!(s.delivered_at_depth(StepDepth::new(3)), 1);
    }

    #[test]
    fn merge_sums_counters_and_maxes_depth() {
        let mut a = NetStats::default();
        a.record_send(StepDepth::new(1), MsgClass::Init);
        a.record_delivery(StepDepth::new(1));
        let mut b = NetStats::default();
        b.record_send(StepDepth::new(3), MsgClass::Batch(4));
        b.echoes_batched = 4;
        b.record_delivery(StepDepth::new(3));
        a.merge(&b);
        assert_eq!(a.sent, 2);
        assert_eq!(a.sent_init, 1);
        assert_eq!(a.sent_batch, 1);
        assert_eq!(a.echoes_batched, 4);
        assert_eq!(a.max_depth, StepDepth::new(3));
        assert_eq!(a.delivered_at_depth(StepDepth::new(1)), 1);
        assert_eq!(a.delivered_at_depth(StepDepth::new(3)), 1);
    }

    #[test]
    fn class_counters_partition_sent() {
        let mut s = NetStats::default();
        s.record_send(StepDepth::new(1), MsgClass::Init);
        s.record_send(StepDepth::new(2), MsgClass::Echo);
        s.record_send(StepDepth::new(2), MsgClass::Echo);
        s.record_send(StepDepth::new(2), MsgClass::Batch(5));
        s.record_send(StepDepth::new(3), MsgClass::Other);
        assert_eq!(s.sent_init, 1);
        assert_eq!(s.sent_echo, 2);
        assert_eq!(s.sent_batch, 1);
        assert_eq!(s.sent_other, 1);
        assert_eq!(
            s.sent_init + s.sent_echo + s.sent_batch + s.sent_other,
            s.sent,
            "class counters must partition sent exactly"
        );
    }

    #[test]
    fn breakdown_line_spells_the_class_counters() {
        let net = NetStats {
            sent_init: 7,
            sent_echo: 42,
            sent_batch: 6,
            sent_other: 14,
            echoes_batched: 36,
            bytes_on_wire: 1234,
            ..NetStats::default()
        };
        assert_eq!(
            net.breakdown_line(),
            "wire classes: init 7  echo 42  batch 6  other 14  | echoes batched 36  bytes 1234"
        );
    }
}
