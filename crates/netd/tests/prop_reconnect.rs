//! Property-based reconnect-robustness tests: connections torn at
//! arbitrary byte offsets mid-frame must never lose or duplicate
//! traffic.
//!
//! [`ChaosRuntime::with_tears`] schedules surgical tears — (link, frame
//! attempt, byte offset) triples — that the mesh's I/O thread executes as a
//! strict-prefix write (behind the whole frames batched ahead of it)
//! followed by a hard socket shutdown, requeueing the condemned frame and
//! the rest of its batch at the head of the FIFO. The victim of the torn
//! bytes sees a partial frame die with the connection (the `FrameBuf`
//! "wait for more" contract from `prop_codec`), the dialer backs off and
//! re-hellos, and the requeued frame crosses the fresh connection. Two
//! properties follow and are checked here under arbitrary schedules:
//!
//! 1. a raw mesh delivers every frame exactly once — no loss (the tear
//!    requeues before any byte is acknowledged delivered) and no
//!    duplication (the torn prefix is never completed by the peer);
//! 2. a 3-replica replicated log over torn links still commits every
//!    slot with one digest — a tear's `shutdown(Both)` also condemns
//!    in-flight frames from the *opposite* direction (their sender saw
//!    the doomed socket accept them before the RST landed), so the
//!    paper's reliable-links assumption (§2.1) is restored the way a
//!    real deployment restores it: the [`Reliable`] retransmission layer
//!    riding over TCP, acked and resent until every gap closes.

use dex_core::{Reliable, ResendPolicy};
use dex_netd::frame::encode_frame;
use dex_netd::listener::free_loopback_addrs;
use dex_netd::{ChaosRuntime, Endpoint, Mesh, TearPoint};
use dex_replication::{Replica, StateMachine, TotalOrder};
use dex_types::{ProcessId, SystemConfig};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A tear schedule for one directed link: which offered frames to cut,
/// and where. Offsets are clamped to `1..frame_len` at tear
/// time, so any generated value exercises a genuine mid-frame cut.
fn tears(to: usize) -> impl Strategy<Value = Vec<TearPoint>> {
    proptest::collection::vec((0u64..8, 1usize..4096), 1..4).prop_map(move |points| {
        points
            .into_iter()
            .map(|(attempt, offset)| TearPoint {
                to,
                attempt,
                offset,
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        .. ProptestConfig::default()
    })]

    /// No matter where the link is cut, a raw two-process mesh delivers
    /// every frame exactly once. The sender may sit on either side of
    /// the dial (higher id dials lower), so both healing paths run: the
    /// dialer tearing its own socket and redialing, and the acceptor
    /// tearing so the remote dialer must notice the dead socket. The
    /// sender queues its whole burst before the receiver exists, so the
    /// first write on the link coalesces many frames into one and
    /// the tears — drawn inside the burst — land in the middle of a
    /// batch: the whole frames ahead of the cut must not be resent, the
    /// torn frame and everything behind it must be.
    #[test]
    fn torn_connections_deliver_every_frame_exactly_once(
        sender in 0usize..2,
        frames in 4u64..64,
        schedule in proptest::collection::vec((0u64..64, 1usize..4096), 1..4),
    ) {
        let n = 2;
        // Fresh addresses per case: torn-and-reconnecting listeners from one
        // case can never collide with the next.
        let addrs = free_loopback_addrs(n).expect("free ports");
        let receiver = 1 - sender;
        let tears: Vec<TearPoint> = schedule
            .into_iter()
            .map(|(attempt, offset)| TearPoint { to: receiver, attempt: attempt % frames, offset })
            .collect();

        let chaos = Arc::new(ChaosRuntime::with_tears(n, ProcessId::new(sender), tears));
        let mesh = Mesh::with_net(ProcessId::new(sender), addrs.clone(), Some(chaos))
            .expect("bind sender");
        for seq in 0..frames {
            // Varying payload sizes put the clamped tear offsets at
            // different positions relative to each frame boundary.
            let mut payload = seq.to_le_bytes().to_vec();
            payload.resize(8 + (seq as usize * 37) % 480, 0xA5);
            mesh.send(ProcessId::new(receiver), encode_frame(7, 0, &payload).into());
        }

        let rx_thread = std::thread::spawn(move || {
            let mesh = Mesh::with_net(ProcessId::new(receiver), addrs, None)
                .expect("bind receiver");
            let mut seqs = Vec::new();
            let deadline = Instant::now() + Duration::from_secs(20);
            while (seqs.len() as u64) < frames && Instant::now() < deadline {
                if let Some(d) = mesh.recv_timeout(Duration::from_millis(50)) {
                    let bytes: [u8; 8] = d.payload[..8].try_into().expect("seq prefix");
                    seqs.push(u64::from_le_bytes(bytes));
                }
            }
            // Linger briefly: a duplicate would arrive right behind the
            // final expected frame, on the same healed connection.
            let linger = Instant::now() + Duration::from_millis(250);
            while Instant::now() < linger {
                if let Some(d) = mesh.recv_timeout(Duration::from_millis(50)) {
                    let bytes: [u8; 8] = d.payload[..8].try_into().expect("seq prefix");
                    seqs.push(u64::from_le_bytes(bytes));
                }
            }
            mesh.shutdown();
            seqs
        });

        let mut seqs = rx_thread.join().expect("receiver thread");
        mesh.shutdown();
        let expected: Vec<u64> = (0..frames).collect();
        if receiver > sender {
            // The receiver dials: it redials only once the condemned
            // socket has ended, so arrival order is queue order — which a
            // requeue that reversed or skipped the unsent tail would
            // break. (When the receiver accepts, the condemned connection
            // and its replacement are two sockets, read as each becomes
            // readable; only the multiset is defined.)
            prop_assert_eq!(&seqs, &expected);
        }
        seqs.sort_unstable();
        // Exactly once: the sorted multiset is 0..frames with no gap
        // (a lost tear victim) and no repeat (a completed torn prefix, or
        // a whole frame ahead of the cut sent again).
        prop_assert_eq!(seqs, expected);
    }

    /// A 3-replica replicated log (n = 3, t = 0, contested per-replica
    /// pending streams) commits every slot to one digest even when every
    /// replica carries its own arbitrary tear schedule. Tears lose more
    /// than the torn frame — opposite-direction frames in flight on the
    /// condemned socket die too — so the replicas run under the
    /// [`Reliable`] resend layer, which re-sends unacked messages until
    /// the healed connection carries them. Exactly-once at the decision
    /// level: a lost decision would leave a committed prefix short of
    /// `slots`, a duplicated or reordered one would fork the digests.
    #[test]
    fn replicated_log_converges_under_arbitrary_mid_frame_tears(
        seed in 0u64..1 << 32,
        link_tears in proptest::collection::vec(tears(0), 3..4),
    ) {
        let n = 3;
        let slots = 4u64;
        let addrs = free_loopback_addrs(n).expect("free ports");
        let done = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for (i, mut tears) in link_tears.into_iter().enumerate() {
            // Retarget each process's schedule at its two real peers.
            for (k, t) in tears.iter_mut().enumerate() {
                t.to = (i + 1 + k % (n - 1)) % n;
            }
            let done = done.clone();
            let addrs = addrs.clone();
            handles.push(std::thread::spawn(move || {
                let cfg = SystemConfig::new(n, 0).expect("n=3 t=0");
                let me = ProcessId::new(i);
                // Contested slots: each replica pushes its own pending
                // stream, so commits ride the coordinator fallback and a
                // lost frame cannot be recomputed locally.
                let pending: Vec<u64> =
                    (0..slots).map(|s| seed ^ ((i as u64) << 32) ^ s).collect();
                let replica: Replica<TotalOrder<u64>> =
                    Replica::new(cfg, me, ProcessId::new(0), pending, slots);
                // Virtual units are microseconds on netd: a 10 ms RTO
                // rides out the mesh's reconnect backoff (20 ms min)
                // within the retry budget.
                let reliable = Reliable::new(
                    replica,
                    ResendPolicy {
                        rto: 10_000,
                        backoff_cap: 4,
                        max_attempts: 12,
                    },
                );
                let chaos = Arc::new(ChaosRuntime::with_tears(n, me, tears));
                let mut ep = Endpoint::with_net(reliable, me, addrs, seed, Some(chaos))
                    .expect("bind endpoint");
                ep.boot();
                let deadline = Instant::now() + Duration::from_secs(30);
                let mut counted = false;
                // Keep serving until everyone commits the full prefix:
                // a finished replica still answers catch-up requests.
                while done.load(Ordering::Acquire) < n && Instant::now() < deadline {
                    ep.pump(Duration::from_millis(10));
                    if !counted && ep.actor().inner().log().committed_prefix() as u64 >= slots {
                        counted = true;
                        done.fetch_add(1, Ordering::AcqRel);
                    }
                }
                let prefix = ep.actor().inner().log().committed_prefix() as u64;
                if prefix < slots {
                    eprintln!(
                        "replica {} stuck: prefix={} connected={} decode_failures={} \
                         resends={} abandoned={} unacked={}",
                        i,
                        prefix,
                        ep.connected(),
                        ep.decode_failures,
                        ep.actor().resends(),
                        ep.actor().abandoned(),
                        ep.actor().unacked(),
                    );
                }
                (prefix, ep.actor().inner().machine().digest())
            }));
        }
        let results: Vec<(u64, u64)> =
            handles.into_iter().map(|h| h.join().expect("replica thread")).collect();
        for (i, (prefix, _)) in results.iter().enumerate() {
            prop_assert_eq!(
                *prefix, slots,
                "replica {} committed {} of {} slots", i, prefix, slots
            );
        }
        prop_assert_eq!(results[0].1, results[1].1);
        prop_assert_eq!(results[1].1, results[2].1);
    }
}
