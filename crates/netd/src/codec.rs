//! Binary wire codec for the first-party message types.
//!
//! The simulator and the threaded runtime move messages as Rust values;
//! `dex-netd` has to put them on a TCP socket. [`WireCodec`] is the
//! minimal self-describing binary encoding used for that: fixed-width
//! little-endian integers, one tag byte per enum variant, `u32` length
//! prefixes for sequences. No serde in the dependency tree (vendored-deps
//! constraint), and the format must stay greppable in a hexdump — the
//! same philosophy as the replication crate's line-oriented `FileWal`
//! codec, binary here because consensus traffic is hot-path.
//!
//! [`decode`](WireCodec::decode) consumes from the front of a borrowed
//! slice and returns `None` on any malformation (unknown tag, truncated
//! field, oversized length prefix), never panicking on attacker-supplied
//! bytes: a Byzantine peer can corrupt its own link, not the process.

use dex_broadcast::IdbMessage;
use dex_core::{DexMsg, ReliableMsg};
use dex_replication::{ReplicaMsg, SlotMsg};
use dex_types::ProcessId;
use dex_underlying::OracleMsg;

/// Sanity bound on decoded sequence lengths: no legitimate batch or
/// catch-up reply carries more entries than this, so a forged length
/// prefix fails fast instead of attempting a huge allocation.
const MAX_SEQ: u32 = 1 << 20;

/// A type that can cross the netd wire.
pub trait WireCodec: Sized {
    /// Appends the encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes one value from the front of `input`, advancing it past the
    /// consumed bytes. `None` means malformed input; how much of `input`
    /// was consumed is then unspecified and the frame should be dropped.
    fn decode(input: &mut &[u8]) -> Option<Self>;

    /// Convenience: the encoding as a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Convenience: decodes a value that must consume `input` exactly.
    fn from_bytes(mut input: &[u8]) -> Option<Self> {
        let v = Self::decode(&mut input)?;
        input.is_empty().then_some(v)
    }
}

fn get_u8(input: &mut &[u8]) -> Option<u8> {
    let (&b, rest) = input.split_first()?;
    *input = rest;
    Some(b)
}

fn get_u32(input: &mut &[u8]) -> Option<u32> {
    if input.len() < 4 {
        return None;
    }
    let (head, rest) = input.split_at(4);
    *input = rest;
    Some(u32::from_le_bytes(head.try_into().expect("4 bytes")))
}

fn get_u64(input: &mut &[u8]) -> Option<u64> {
    if input.len() < 8 {
        return None;
    }
    let (head, rest) = input.split_at(8);
    *input = rest;
    Some(u64::from_le_bytes(head.try_into().expect("8 bytes")))
}

fn get_seq_len(input: &mut &[u8]) -> Option<usize> {
    let len = get_u32(input)?;
    (len <= MAX_SEQ).then_some(len as usize)
}

impl WireCodec for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        get_u64(input)
    }
}

impl WireCodec for ProcessId {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.index() as u32).to_le_bytes());
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(ProcessId::new(get_u32(input)? as usize))
    }
}

impl<V: WireCodec> WireCodec for OracleMsg<V> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            OracleMsg::Propose(v) => {
                out.push(0);
                v.encode(out);
            }
            OracleMsg::Decide(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        match get_u8(input)? {
            0 => Some(OracleMsg::Propose(V::decode(input)?)),
            1 => Some(OracleMsg::Decide(V::decode(input)?)),
            _ => None,
        }
    }
}

impl<K: WireCodec, V: WireCodec> WireCodec for IdbMessage<K, V> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            IdbMessage::Init { key, value } => {
                out.push(0);
                key.encode(out);
                value.encode(out);
            }
            IdbMessage::Echo { key, value } => {
                out.push(1);
                key.encode(out);
                value.encode(out);
            }
        }
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        let tag = get_u8(input)?;
        let key = K::decode(input)?;
        let value = V::decode(input)?;
        match tag {
            0 => Some(IdbMessage::Init { key, value }),
            1 => Some(IdbMessage::Echo { key, value }),
            _ => None,
        }
    }
}

impl<V: WireCodec, U: WireCodec> WireCodec for DexMsg<V, U> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            DexMsg::Proposal(v) => {
                out.push(0);
                v.encode(out);
            }
            DexMsg::Idb(m) => {
                out.push(1);
                m.encode(out);
            }
            DexMsg::Uc(u) => {
                out.push(2);
                u.encode(out);
            }
            DexMsg::EchoBatch(entries) => {
                out.push(3);
                out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
                for (origin, value) in entries {
                    origin.encode(out);
                    value.encode(out);
                }
            }
            DexMsg::EchoFlushTick => out.push(4),
        }
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        match get_u8(input)? {
            0 => Some(DexMsg::Proposal(V::decode(input)?)),
            1 => Some(DexMsg::Idb(IdbMessage::decode(input)?)),
            2 => Some(DexMsg::Uc(U::decode(input)?)),
            3 => {
                let len = get_seq_len(input)?;
                let mut entries = Vec::with_capacity(len.min(1024));
                for _ in 0..len {
                    let origin = ProcessId::decode(input)?;
                    let value = V::decode(input)?;
                    entries.push((origin, value));
                }
                Some(DexMsg::EchoBatch(entries))
            }
            4 => Some(DexMsg::EchoFlushTick),
            _ => None,
        }
    }
}

impl<C: WireCodec> WireCodec for ReplicaMsg<C> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ReplicaMsg::Slot { slot, inner } => {
                out.push(0);
                slot.encode(out);
                inner.encode(out);
            }
            ReplicaMsg::CatchUpRequest { from_slot } => {
                out.push(1);
                from_slot.encode(out);
            }
            ReplicaMsg::CatchUpReply { slots } => {
                out.push(2);
                out.extend_from_slice(&(slots.len() as u32).to_le_bytes());
                for (slot, value) in slots {
                    slot.encode(out);
                    value.encode(out);
                }
            }
            ReplicaMsg::CatchUpTick => out.push(3),
            ReplicaMsg::UcBatch { entries } => {
                out.push(4);
                out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
                for (slot, msg) in entries {
                    slot.encode(out);
                    msg.encode(out);
                }
            }
            ReplicaMsg::UcFlushTick => out.push(5),
            ReplicaMsg::EchoBatch { entries } => {
                out.push(6);
                out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
                for (slot, origin, value) in entries {
                    slot.encode(out);
                    origin.encode(out);
                    value.encode(out);
                }
            }
            ReplicaMsg::EchoFlushTick => out.push(7),
        }
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        match get_u8(input)? {
            0 => {
                let slot = u64::decode(input)?;
                let inner = SlotMsg::<C>::decode(input)?;
                Some(ReplicaMsg::Slot { slot, inner })
            }
            1 => Some(ReplicaMsg::CatchUpRequest {
                from_slot: u64::decode(input)?,
            }),
            2 => {
                let len = get_seq_len(input)?;
                let mut slots = Vec::with_capacity(len.min(1024));
                for _ in 0..len {
                    let slot = u64::decode(input)?;
                    let value = C::decode(input)?;
                    slots.push((slot, value));
                }
                Some(ReplicaMsg::CatchUpReply { slots })
            }
            3 => Some(ReplicaMsg::CatchUpTick),
            4 => {
                let len = get_seq_len(input)?;
                let mut entries = Vec::with_capacity(len.min(1024));
                for _ in 0..len {
                    let slot = u64::decode(input)?;
                    let msg = OracleMsg::<C>::decode(input)?;
                    entries.push((slot, msg));
                }
                Some(ReplicaMsg::UcBatch { entries })
            }
            5 => Some(ReplicaMsg::UcFlushTick),
            6 => {
                let len = get_seq_len(input)?;
                let mut entries = Vec::with_capacity(len.min(1024));
                for _ in 0..len {
                    let slot = u64::decode(input)?;
                    let origin = ProcessId::decode(input)?;
                    let value = C::decode(input)?;
                    entries.push((slot, origin, value));
                }
                Some(ReplicaMsg::EchoBatch { entries })
            }
            7 => Some(ReplicaMsg::EchoFlushTick),
            _ => None,
        }
    }
}

impl<M: WireCodec> WireCodec for ReliableMsg<M> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ReliableMsg::Data { seq, msg } => {
                out.push(0);
                seq.encode(out);
                msg.encode(out);
            }
            ReliableMsg::Ack { seq } => {
                out.push(1);
                seq.encode(out);
            }
            ReliableMsg::Timer(msg) => {
                out.push(2);
                msg.encode(out);
            }
            ReliableMsg::RetryTick => out.push(3),
        }
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        match get_u8(input)? {
            0 => {
                let seq = u64::decode(input)?;
                let msg = M::decode(input)?;
                Some(ReliableMsg::Data { seq, msg })
            }
            1 => Some(ReliableMsg::Ack {
                seq: u64::decode(input)?,
            }),
            2 => Some(ReliableMsg::Timer(M::decode(input)?)),
            3 => Some(ReliableMsg::RetryTick),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{encode_frame, write_frame};

    #[test]
    fn primitives_round_trip() {
        for v in [0u64, 1, u64::MAX, 0xDEAD_BEEF] {
            assert_eq!(u64::from_bytes(&v.to_bytes()), Some(v));
        }
        let p = ProcessId::new(6);
        assert_eq!(ProcessId::from_bytes(&p.to_bytes()), Some(p));
    }

    #[test]
    fn dex_msg_round_trips_every_variant() {
        let msgs: Vec<DexMsg<u64, OracleMsg<u64>>> = vec![
            DexMsg::Proposal(42),
            DexMsg::Idb(IdbMessage::Init {
                key: ProcessId::new(2),
                value: 7,
            }),
            DexMsg::Idb(IdbMessage::Echo {
                key: ProcessId::new(0),
                value: 9,
            }),
            DexMsg::Uc(OracleMsg::Propose(3)),
            DexMsg::Uc(OracleMsg::Decide(4)),
            DexMsg::EchoBatch(vec![(ProcessId::new(1), 5), (ProcessId::new(3), 6)]),
            DexMsg::EchoFlushTick,
        ];
        for msg in msgs {
            let bytes = msg.to_bytes();
            assert_eq!(DexMsg::from_bytes(&bytes), Some(msg));
        }
    }

    fn replica_msgs() -> Vec<ReplicaMsg<u64>> {
        vec![
            ReplicaMsg::Slot {
                slot: 9,
                inner: DexMsg::Proposal(1),
            },
            ReplicaMsg::CatchUpRequest { from_slot: 3 },
            ReplicaMsg::CatchUpReply {
                slots: vec![(0, 10), (1, 20)],
            },
            ReplicaMsg::CatchUpTick,
            ReplicaMsg::UcBatch {
                entries: vec![(2, OracleMsg::Propose(5))],
            },
            ReplicaMsg::UcFlushTick,
            ReplicaMsg::EchoBatch {
                entries: vec![(4, ProcessId::new(2), 8)],
            },
            ReplicaMsg::EchoFlushTick,
        ]
    }

    #[test]
    fn replica_msg_round_trips_every_variant() {
        for msg in replica_msgs() {
            let bytes = msg.to_bytes();
            assert_eq!(ReplicaMsg::from_bytes(&bytes), Some(msg));
        }
    }

    /// The endpoint encodes header and payload into one buffer; tests and
    /// probes frame a finished payload. Same bytes either way.
    #[test]
    fn framing_in_place_equals_framing_a_finished_payload() {
        let mut scratch = vec![0xEE; 3]; // appended to, never overwritten
        for (depth, msg) in replica_msgs().iter().enumerate() {
            scratch.truncate(3);
            write_frame(&mut scratch, 2, depth as u32, |out| msg.encode(out));
            assert_eq!(scratch[..3], [0xEE; 3]);
            assert_eq!(scratch[3..], encode_frame(2, depth as u32, &msg.to_bytes()));
        }
    }

    #[test]
    fn reliable_msg_round_trips_every_variant() {
        let msgs: Vec<ReliableMsg<ReplicaMsg<u64>>> = vec![
            ReliableMsg::Data {
                seq: 12,
                msg: ReplicaMsg::Slot {
                    slot: 1,
                    inner: DexMsg::Proposal(7),
                },
            },
            ReliableMsg::Ack { seq: 12 },
            ReliableMsg::Timer(ReplicaMsg::CatchUpTick),
            ReliableMsg::RetryTick,
        ];
        for msg in msgs {
            let bytes = msg.to_bytes();
            assert_eq!(ReliableMsg::from_bytes(&bytes), Some(msg));
        }
    }

    #[test]
    fn malformed_input_is_rejected_not_panicked() {
        // Unknown tag.
        assert_eq!(DexMsg::<u64, OracleMsg<u64>>::from_bytes(&[9]), None);
        // Truncated payload.
        assert_eq!(DexMsg::<u64, OracleMsg<u64>>::from_bytes(&[0, 1, 2]), None);
        // Oversized length prefix fails before allocating.
        let mut forged = vec![3u8];
        forged.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(DexMsg::<u64, OracleMsg<u64>>::from_bytes(&forged), None);
        // Trailing garbage after a valid message.
        let mut bytes = DexMsg::<u64, OracleMsg<u64>>::EchoFlushTick.to_bytes();
        bytes.push(0xFF);
        assert_eq!(DexMsg::<u64, OracleMsg<u64>>::from_bytes(&bytes), None);
    }
}
