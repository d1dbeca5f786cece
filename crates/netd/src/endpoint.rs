//! The per-process event loop: one [`Actor`] plugged onto a [`Mesh`].
//!
//! Everything a wall-clock runtime owes the actor — context clock and
//! depths, the outbox → stamped-outbox → timers drain, the local timer
//! list, the [`NetStats`] ledger, recorder events — is the shared
//! [`ActorHost`] (see [`dex_simnet::host`]); simulator actors run
//! unmodified. This module is only what is netd:
//!
//! * a `Dest::All` multicast is encoded **once** and the frame allocation
//!   is shared across peer sockets, so the host is told `0` fan-out
//!   clones and `payload_clones` honestly reports zero on this runtime;
//! * outbound frames are staged for a whole [`Endpoint::pump`] turn and
//!   handed to the mesh in one [`Mesh::send_all`], so the mesh's I/O
//!   thread is woken at most once per turn, and only when it polls;
//! * inbound frames arrive in chunks, all the frames one socket read
//!   completed: the loop takes the next frame from the chunk in hand, or
//!   else the next chunk from the mesh channel, and decodes its payload
//!   in place ([`WireCodec::from_bytes`] on a slice of the chunk) — no
//!   per-frame allocation, channel operation or wake. A turn can end
//!   inside a chunk; the next turn goes on from there;
//! * self-addressed traffic (a multicast's own copy, explicit self-sends)
//!   never touches a socket: it loops through a local queue, preserving
//!   the simulator's semantics that a process always hears itself;
//! * a process inside its own chaos crash-silence window stalls its loop;
//! * frames whose payload does not decode are counted, not delivered.

use crate::chaos::ChaosRuntime;
use crate::codec::WireCodec;
use crate::conn::{Mesh, MeshCounters};
use crate::frame::{class_byte, write_frame};
use dex_harness::spec::AddressTable;
use dex_simnet::{Actor, ActorHost, Context, NetStats, Recoverable};
use dex_types::{Dest, ProcessId, StepDepth};
use std::collections::VecDeque;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Self-addressed messages waiting for their turn in the event loop.
type LocalQueue<M> = VecDeque<(StepDepth, M)>;

/// Encoded frames a turn has sent, in send order, waiting for the mesh.
type Staged = Vec<(ProcessId, Arc<[u8]>)>;

/// Most deliveries one [`Endpoint::pump`] turn handles before it flushes
/// its sends, so a busy loop still hands frames to the mesh often.
const MAX_TURN: usize = 64;

/// One consensus process: actor + host + mesh.
pub struct Endpoint<A: Actor>
where
    A::Msg: WireCodec + Clone,
{
    actor: A,
    host: ActorHost<A>,
    mesh: Mesh,
    local: LocalQueue<A::Msg>,
    /// This turn's outbound frames; empty between calls.
    staged: Staged,
    /// Encode buffer, reused across sends.
    scratch: Vec<u8>,
    chaos: Option<Arc<ChaosRuntime>>,
    /// Frames whose payload failed to decode (hostile or torn peer).
    pub decode_failures: u64,
}

/// The host's send sink on this runtime: encode once — header and payload
/// straight into `scratch`, one allocation for the shared frame — share
/// that allocation across the fan-out, stage it for the mesh, keep
/// self-addressed copies local.
fn wire_sink<'a, A: Actor>(
    staged: &'a mut Staged,
    local: &'a mut LocalQueue<A::Msg>,
    scratch: &'a mut Vec<u8>,
    me: ProcessId,
    n: usize,
) -> impl FnMut(Dest, A::Msg, StepDepth) + 'a
where
    A::Msg: WireCodec,
{
    move |dest, payload, depth| {
        if dest == Dest::To(me) {
            local.push_back((depth, payload));
            return;
        }
        scratch.clear();
        let class = class_byte(A::msg_class(&payload));
        write_frame(scratch, class, depth.get(), |out| payload.encode(out));
        let frame: Arc<[u8]> = Arc::from(&scratch[..]);
        match dest {
            Dest::To(to) => staged.push((to, frame)),
            Dest::All => {
                for to in (0..n).map(ProcessId::new).filter(|to| *to != me) {
                    staged.push((to, Arc::clone(&frame)));
                }
                local.push_back((depth, payload));
            }
        }
    }
}

impl<A: Actor> Endpoint<A>
where
    A::Msg: WireCodec + Clone,
{
    /// Binds the mesh for process `me` against the address table
    /// (`n = addrs.len()`) and wraps `actor` around it, optionally routing
    /// all outbound traffic through a [`ChaosRuntime`]. No protocol traffic
    /// flows until [`Self::boot`] or [`Self::boot_restart`]. The chaos
    /// runtime is shared with the mesh: the endpoint consults it only for
    /// the local process's crash-silence windows
    /// ([`ChaosRuntime::self_resume_at`]), the mesh for everything
    /// link-level.
    pub fn with_net(
        actor: A,
        me: ProcessId,
        addrs: AddressTable,
        seed: u64,
        chaos: Option<Arc<ChaosRuntime>>,
    ) -> std::io::Result<Self> {
        let n = addrs.len();
        Ok(Endpoint {
            actor,
            mesh: Mesh::with_net(me, addrs, chaos.clone())?,
            host: ActorHost::new(me, n, seed, Instant::now(), 0),
            local: VecDeque::new(),
            staged: Vec::new(),
            scratch: Vec::new(),
            chaos,
            decode_failures: 0,
        })
    }

    /// Runs the actor's `on_start` and flushes its opening traffic.
    pub fn boot(&mut self) {
        self.boot_with(|actor, ctx| actor.on_start(ctx));
    }

    /// Boots through the crash-recovery path instead of `on_start`: the
    /// respawned incarnation of a killed process restores durable state
    /// and emits its recovery traffic (WAL-replayed proposals, catch-up
    /// requests).
    pub fn boot_restart(&mut self)
    where
        A: Recoverable,
    {
        self.boot_with(|actor, ctx| actor.restart(ctx));
    }

    fn boot_with(&mut self, hook: impl FnOnce(&mut A, &mut Context<'_, A::Msg>)) {
        let (me, n) = (self.host.me(), self.host.n());
        let sink = wire_sink::<A>(&mut self.staged, &mut self.local, &mut self.scratch, me, n);
        self.host.boot(&mut self.actor, hook, sink);
        self.flush();
    }

    /// Hands the staged frames to the mesh, one batch for the turn.
    fn flush(&mut self) {
        if !self.staged.is_empty() {
            self.mesh.send_all(self.staged.drain(..));
        }
    }

    fn deliver(&mut self, from: ProcessId, depth: StepDepth, msg: &A::Msg) {
        let (me, n) = (self.host.me(), self.host.n());
        let sink = wire_sink::<A>(&mut self.staged, &mut self.local, &mut self.scratch, me, n);
        self.host.deliver(&mut self.actor, from, depth, msg, sink);
    }

    /// Decodes the next frame from the mesh in place, straight from the
    /// chunk it arrived in, and handles it; `wait` as in
    /// [`Mesh::next_frame`]. Returns whether there was one.
    fn receive(&mut self, wait: Option<Duration>) -> bool {
        let Some((from, depth, msg)) = self.mesh.next_frame(wait, |from, frame| {
            let depth = StepDepth::new(frame.depth);
            (from, depth, A::Msg::from_bytes(frame.payload))
        }) else {
            return false;
        };
        match msg {
            Some(msg) => self.deliver(from, depth, &msg),
            None => self.decode_failures += 1,
        }
        true
    }

    /// Handles one unit of work without blocking — a due timer (earliest
    /// first), else a queued self-delivery, else a frame already received
    /// (the rest of the chunk in hand, else the next in the mesh channel).
    /// Returns whether there was one.
    fn step(&mut self) -> bool {
        let (me, n) = (self.host.me(), self.host.n());
        let sink = wire_sink::<A>(&mut self.staged, &mut self.local, &mut self.scratch, me, n);
        if self.host.fire_due(&mut self.actor, sink) {
            return true;
        }
        if let Some((depth, msg)) = self.local.pop_front() {
            self.deliver(me, depth, &msg);
            return true;
        }
        self.receive(None)
    }

    /// Runs one turn of the event loop and returns whether it handled
    /// anything. A turn takes units of work — a due timer, a
    /// self-delivery or a received frame — until none is left or
    /// `MAX_TURN` (64) are done, then hands every frame they sent to the
    /// mesh in one [`Mesh::send_all`], so the mesh's I/O thread is woken
    /// at most once per turn, not once per frame. A turn can end inside a
    /// chunk of received frames; the next turn goes on from there. Only a
    /// turn that found nothing blocks, up to `idle` but never past the
    /// next timer, for one frame, which it handles and flushes. Nothing
    /// stays staged between calls.
    pub fn pump(&mut self, idle: Duration) -> bool {
        // A process inside its own crash-silence window is not scheduled:
        // stall (bounded by `idle`) without handling timers, local
        // traffic, or sockets. Inbound frames queue in the mesh channel
        // and flush after recovery — the simulator's deferred in-window
        // delivery, on real sockets.
        if let Some(resume) = self.chaos.as_ref().and_then(|c| c.self_resume_at()) {
            let nap = resume
                .saturating_duration_since(Instant::now())
                .min(idle)
                .max(Duration::from_millis(1));
            thread::sleep(nap);
            return false;
        }
        let mut handled = 0;
        while handled < MAX_TURN && self.step() {
            handled += 1;
        }
        if handled == 0 && !self.receive(Some(self.host.next_wait(idle))) {
            return false;
        }
        self.flush();
        true
    }

    /// The wrapped actor.
    pub fn actor(&self) -> &A {
        &self.actor
    }

    /// The wire ledger so far.
    pub fn stats(&self) -> &NetStats {
        self.host.stats()
    }

    /// Deliveries handled so far (timer firings included).
    pub fn delivered(&self) -> u64 {
        self.host.stats().delivered
    }

    /// Live peer connections (diagnostic).
    pub fn connected(&self) -> usize {
        self.mesh.connected()
    }

    /// The peers with no live connection (see [`Mesh::unconnected`]).
    pub fn unconnected(&self) -> Vec<ProcessId> {
        self.mesh.unconnected()
    }

    /// What the mesh's I/O thread and queues have done so far.
    pub fn mesh_counters(&self) -> MeshCounters {
        self.mesh.counters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_obs::{EventKind, Recorder};

    /// The threadnet doc-example actor, now crossing real sockets.
    struct Counter {
        got: usize,
        armed: bool,
        rec: Recorder,
    }

    impl Actor for Counter {
        type Msg = u64;

        fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
            ctx.broadcast(1);
        }

        fn on_message(&mut self, _from: ProcessId, msg: &u64, ctx: &mut Context<'_, u64>) {
            self.got += 1;
            if *msg == 1 && ctx.me() == ProcessId::new(0) && !self.armed {
                self.armed = true;
                ctx.send_self_after(500, 99); // exercise the timer path
            }
        }

        fn recorder_mut(&mut self) -> Option<&mut Recorder> {
            self.rec.active_mut()
        }
    }

    #[test]
    fn endpoints_run_a_broadcast_round_over_tcp() {
        let n = 3;
        let addrs = crate::listener::free_loopback_addrs(n).expect("free ports");
        let mut handles = Vec::new();
        for i in 0..n {
            let addrs = addrs.clone();
            handles.push(std::thread::spawn(move || {
                let mut ep = Endpoint::with_net(
                    Counter {
                        got: 0,
                        armed: false,
                        rec: Recorder::new(i as u16),
                    },
                    ProcessId::new(i),
                    addrs,
                    7,
                    None,
                )
                .expect("bind");
                ep.boot();
                let deadline = Instant::now() + Duration::from_secs(10);
                // Everyone hears all three broadcasts (self included);
                // p0 additionally hears its own timer.
                let want = if i == 0 { 4 } else { 3 };
                while ep.actor().got < want && Instant::now() < deadline {
                    ep.pump(Duration::from_millis(20));
                }
                if ep.actor().got < want {
                    eprintln!(
                        "p{i}: got={} connected={} decode_failures={} stats={:?}",
                        ep.actor().got,
                        ep.connected(),
                        ep.decode_failures,
                        ep.stats()
                    );
                }
                let events = ep.actor().rec.trace().events;
                (
                    i,
                    ep.actor().got,
                    ep.stats().clone(),
                    ep.delivered(),
                    events,
                )
            }));
        }
        for h in handles {
            let (i, got, stats, delivered, events) = h.join().expect("endpoint thread");
            let want = if i == 0 { 4 } else { 3 };
            assert_eq!(got, want, "process {i} heard the round");
            assert_eq!(delivered, want as u64);
            // One logical broadcast = one multicast, n recipient copies,
            // zero fan-out clones (the frame allocation is shared).
            assert_eq!(stats.multicasts, 1);
            assert_eq!(stats.payload_clones, 0);
            let timer_sends = if i == 0 { 1 } else { 0 };
            assert_eq!(stats.sent, 3 + timer_sends);
            // The shared host clocks the recorder here as on threadnet:
            // one `Send` per recipient of the boot broadcast, one
            // `Deliver` per handled delivery.
            let sends: Vec<u16> = events
                .iter()
                .filter_map(|e| match e.kind {
                    EventKind::Send { to } => Some(to),
                    _ => None,
                })
                .collect();
            assert_eq!(sends, vec![0, 1, 2]);
            let delivers = events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::Deliver { .. }))
                .count();
            assert_eq!(delivers as u64, delivered);
        }
    }
}
