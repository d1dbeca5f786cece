//! Compact, copyable event records.
//!
//! Events are plain-old-data: every value is reduced to a stable 64-bit
//! [`code`](crate::obs_code) at record time, so an [`Event`](Event) never
//! owns heap memory and pushing one onto the log never allocates.

use core::hash::{Hash, Hasher};

/// Which protocol view a [`EventKind::ViewSet`] mutated.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ViewTag {
    /// The one-step view `J1` (for non-DEX protocols: the first-round
    /// vote/value view).
    J1,
    /// The two-step view `J2` (IDB-delivered entries).
    J2,
}

impl ViewTag {
    /// Stable label used in the JSON artifact.
    pub fn label(self) -> &'static str {
        match self {
            ViewTag::J1 => "J1",
            ViewTag::J2 => "J2",
        }
    }
}

/// Which legality predicate a [`EventKind::Predicate`] evaluated.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PredTag {
    /// `P1(J1)` — the one-step predicate.
    P1,
    /// `P2(J2)` — the two-step predicate.
    P2,
}

impl PredTag {
    /// Stable label used in the JSON artifact.
    pub fn label(self) -> &'static str {
        match self {
            PredTag::P1 => "P1",
            PredTag::P2 => "P2",
        }
    }
}

/// Which mechanism produced a recorded decision.
///
/// Mirrors `dex_core::DecisionPath` without depending on it (the core crate
/// depends on this one, not vice versa).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scheme {
    /// One-step expedited decision (`P1` fired).
    OneStep,
    /// Two-step expedited decision (`P2` fired).
    TwoStep,
    /// Adopted from the underlying consensus.
    Fallback,
}

impl Scheme {
    /// Stable label used in the JSON artifact (matches
    /// `DecisionPath::label`).
    pub fn label(self) -> &'static str {
        match self {
            Scheme::OneStep => "1-step",
            Scheme::TwoStep => "2-step",
            Scheme::Fallback => "fallback",
        }
    }
}

/// The payload of one recorded event.
///
/// Process ids are stored as `u16` and values as 64-bit [`obs_code`]s to
/// keep the record small and `Copy`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EventKind {
    /// A message left this process for `to` (stamped by the network
    /// runtime; the event's depth is the causal depth the message carries).
    Send {
        /// Recipient process index.
        to: u16,
    },
    /// A message from `from` was delivered to this process.
    Deliver {
        /// Sender process index.
        from: u16,
    },
    /// A view entry was written (first-value-wins: recorded only when the
    /// entry actually changed from `⊥`).
    ViewSet {
        /// Which view was mutated.
        view: ViewTag,
        /// The entry's origin process.
        origin: u16,
        /// Code of the recorded value.
        code: u64,
    },
    /// A legality predicate was evaluated on a quorate view; carries the
    /// tally snapshot the evaluation saw.
    Predicate {
        /// Which predicate.
        pred: PredTag,
        /// Whether the predicate held.
        held: bool,
        /// `|J|` at evaluation time.
        len: u16,
        /// Occurrences of the most frequent value.
        top_count: u16,
        /// Occurrences of the runner-up value (0 if none).
        second_count: u16,
        /// Code of the most frequent value.
        top_code: u64,
    },
    /// This process decided.
    Decide {
        /// The mechanism that produced the decision.
        scheme: Scheme,
        /// Code of the decided value.
        code: u64,
    },
    /// An IDB `(init, m)` was issued or received for `origin`'s instance.
    IdbInit {
        /// The broadcast instance's origin.
        origin: u16,
        /// Code of the broadcast value.
        code: u64,
    },
    /// An IDB `(echo, m, j)` was received for `origin`'s instance.
    IdbEcho {
        /// The broadcast instance's origin.
        origin: u16,
        /// Code of the witnessed value.
        code: u64,
    },
    /// IDB `Id-Receive` fired: this process accepted `origin`'s broadcast.
    IdbAccept {
        /// The broadcast instance's origin.
        origin: u16,
        /// Code of the accepted value.
        code: u64,
    },
    /// The fallback path was entered: this process proposed to the
    /// underlying consensus.
    Fallback {
        /// Code of the proposed value.
        code: u64,
    },
    /// A replicated-log slot committed (replication layer only).
    Commit {
        /// The log slot.
        slot: u32,
        /// Code of the committed command.
        code: u64,
    },
    /// The fault schedule destroyed a message this process had sent
    /// (probabilistic link drop, or the recipient never recovers).
    LinkDrop {
        /// The recipient that will never see the message.
        to: u16,
    },
    /// The fault schedule duplicated a message this process sent — the
    /// recipient will deliver it twice.
    LinkDup {
        /// The recipient that will see the message twice.
        to: u16,
    },
    /// A network partition opened; messages crossing the cut are held
    /// until it heals (recorded on every process).
    PartitionOpen {
        /// Index of the partition window in the fault schedule.
        id: u16,
    },
    /// A network partition healed; held messages are released (recorded on
    /// every process).
    PartitionHeal {
        /// Index of the partition window in the fault schedule.
        id: u16,
    },
    /// This process crashed: deliveries to it are deferred to its recovery
    /// (or dropped, if it never recovers).
    Crash,
    /// This process recovered; deferred deliveries resume from now.
    Recover,
    /// A recovering/lagging replica adopted `slot` through the catch-up
    /// protocol (quorum-validated replies or WAL replay, replication layer
    /// only).
    CatchUp {
        /// The adopted log slot.
        slot: u32,
        /// Code of the adopted command.
        code: u64,
    },
    /// The resend layer retransmitted an unacknowledged message to `to`.
    Resend {
        /// The recipient of the retransmission.
        to: u16,
    },
    /// A replica opened `slot` for proposing while its committed floor
    /// stood at `floor` (replication layer). In pipelined mode up to `W`
    /// slots may be open past the floor; the checker's `window-bound`
    /// invariant audits exactly that.
    SlotPropose {
        /// The slot being proposed.
        slot: u32,
        /// The contiguous committed prefix length at that moment.
        floor: u32,
    },
    /// A retired slot instance was recycled from the pool to serve `slot`
    /// (pipelined replication only): its tallies, witness tables and gates
    /// were reset in place. `freed` is the committed slot it last served —
    /// the checker's `slot-reuse-isolation` invariant verifies no state
    /// bleeds across the reuse.
    SlotReuse {
        /// The slot the recycled instance now serves.
        slot: u32,
        /// The committed slot whose instance was recycled.
        freed: u32,
    },
}

/// One recorded event: a timestamp, the causal depth of the message being
/// handled when the event fired, and the payload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Event {
    /// Virtual time (simnet) or per-process delivery sequence (threadnet).
    pub at: u64,
    /// Causal step depth of the handled message (0 during `on_start`).
    pub depth: u32,
    /// The payload.
    pub kind: EventKind,
}

/// Reduces any hashable value to a stable 64-bit code.
///
/// Codes are compared for *equality only* — the checker never orders them —
/// so a fixed-key hash is sufficient. `DefaultHasher::new()` uses fixed
/// keys, making codes deterministic across runs of the same binary (which
/// is what the byte-identical-artifact guarantee needs).
#[inline]
pub fn obs_code<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_deterministic_and_discriminating() {
        assert_eq!(obs_code(&42u64), obs_code(&42u64));
        assert_ne!(obs_code(&42u64), obs_code(&43u64));
        assert_eq!(obs_code("abc"), obs_code("abc"));
    }

    #[test]
    fn events_are_copy_and_small() {
        let e = Event {
            at: 1,
            depth: 2,
            kind: EventKind::Decide {
                scheme: Scheme::OneStep,
                code: 9,
            },
        };
        let f = e; // Copy
        assert_eq!(e, f);
        // The whole point of code-based records: no heap, bounded size.
        assert!(std::mem::size_of::<Event>() <= 40);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Scheme::OneStep.label(), "1-step");
        assert_eq!(Scheme::TwoStep.label(), "2-step");
        assert_eq!(Scheme::Fallback.label(), "fallback");
        assert_eq!(ViewTag::J1.label(), "J1");
        assert_eq!(PredTag::P2.label(), "P2");
    }
}
