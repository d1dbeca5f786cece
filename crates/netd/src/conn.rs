//! Per-peer TCP connection management for a netd process.
//!
//! A [`Mesh`] gives one process a full-duplex link to every peer in the
//! cluster, built from plain blocking sockets and threads (no async
//! runtime in the vendored dependency tree):
//!
//! * **Connect/accept race resolution by process id** — for each pair the
//!   *higher* id dials and the *lower* id accepts, so there is no
//!   simultaneous-open glare. The dialer identifies itself with a hello
//!   frame before any protocol traffic.
//! * **Bounded reconnect backoff** — a dialer whose peer is down (not yet
//!   spawned, or `kill -9`ed) retries with exponential backoff between
//!   [`BACKOFF_MIN`] and [`BACKOFF_MAX`], forever, so a respawned peer is
//!   re-adopted without any coordination.
//! * **Outbound buffering while a peer is down** — sends enqueue encoded
//!   frames per peer ([`MAX_QUEUE`] cap, oldest dropped beyond it); a
//!   dedicated writer thread per peer drains the queue whenever a live
//!   stream is installed, handing the kernel every releasable frame at
//!   the head of the queue in one coalesced write. Frames share one
//!   allocation across the fan-out (`Arc<[u8]>`), so a multicast clones
//!   nothing.
//! * **One wake per batch, and only for a parked writer** — the writer
//!   marks itself `parked` (under the peer lock) around its condvar
//!   waits, and only an enqueue that finds it parked signals it; a busy
//!   writer finds the new frames on its next pass. [`Mesh::send_all`]
//!   appends a whole batch (one event-loop turn's sends) to each peer
//!   under one lock, so a turn costs each peer at most one wake however
//!   many frames it carries. [`Mesh::send`] is the one-frame batch.
//! * **One reader per link, one channel message per read** — the reader
//!   of each connection reads straight into its [`FrameBuf`] and, after
//!   each read, sends the event loop every frame that read completed as
//!   one chunk ([`FrameBuf::take_run`]: one allocation, one channel send),
//!   leaving a torn tail for the next read. The event loop takes frames
//!   from the chunk in hand in place, and frees it with its last frame;
//!   [`Mesh::recv_timeout`] and [`Mesh::try_recv`] hand out owned copies.
//!   A corrupt length prefix condemns the connection once the frames
//!   ahead of it are sent.
//!
//! Frames that were handed to a connection that later died are *lost*,
//! not retried: netd offers the same at-most-once delivery the simulator
//! models, and the consensus/replication layers own retransmission
//! semantics (catch-up, flush ticks).

use crate::chaos::ChaosRuntime;
use crate::frame::{hello_sender, FrameBuf, FrameRef, FrameRun};
use dex_harness::spec::AddressTable;
use dex_simnet::Verdict;
use dex_types::{ProcessId, StepDepth};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::{ErrorKind, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

/// Initial dial-retry backoff.
pub const BACKOFF_MIN: Duration = Duration::from_millis(20);
/// Backoff ceiling: a downed peer is probed at least this often.
pub const BACKOFF_MAX: Duration = Duration::from_secs(1);
/// Per-peer outbound queue cap, in frames. Beyond it the *oldest* frames
/// are dropped first: fresher consensus traffic supersedes stale.
pub const MAX_QUEUE: usize = 1 << 16;
/// Most bytes one coalesced write carries, so one peer's backlog cannot
/// grow an unbounded write buffer. A batch always takes at least its head
/// frame, however large.
const MAX_BATCH_BYTES: usize = 64 * 1024;

/// What a [`Mesh`] has done so far, summed over its peers.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct MeshCounters {
    /// `write` calls that handed bytes to a socket.
    pub socket_writes: u64,
    /// Whole frames handed to a socket (a torn or failed frame counts
    /// when its retry goes through).
    pub frames_written: u64,
    /// Frames dropped, oldest first, from a peer queue past [`MAX_QUEUE`].
    pub queue_dropped: u64,
    /// Condvar signals sent to a parked writer (each one a futex wake).
    pub writer_wakes: u64,
    /// Runs of frames the readers handed the event loop: one channel
    /// message per socket read that completed a frame.
    pub chunks_received: u64,
    /// Frames in those runs.
    pub frames_received: u64,
}

/// The live form of [`MeshCounters`]: statistics only, so relaxed.
#[derive(Default)]
struct Counters {
    socket_writes: AtomicU64,
    frames_written: AtomicU64,
    queue_dropped: AtomicU64,
    writer_wakes: AtomicU64,
    chunks_received: AtomicU64,
    frames_received: AtomicU64,
}

/// One message received from a peer, as an owned copy
/// ([`Mesh::recv_timeout`], [`Mesh::try_recv`]).
#[derive(Debug)]
pub struct Delivery {
    /// The peer the connection authenticated at hello time.
    pub from: ProcessId,
    /// Causal step depth carried in the frame header.
    pub depth: StepDepth,
    /// Class tag byte (informational; the payload is authoritative).
    pub class: u8,
    /// `WireCodec`-encoded message bytes.
    pub payload: Vec<u8>,
}

impl Delivery {
    fn new(from: ProcessId, frame: FrameRef<'_>) -> Delivery {
        Delivery {
            from,
            depth: StepDepth::new(frame.depth),
            class: frame.class,
            payload: frame.payload.to_vec(),
        }
    }
}

/// What a reader sends the event loop: the whole frames one socket read
/// completed on the link from `from`.
struct Chunk {
    from: ProcessId,
    run: FrameRun,
}

/// One queued outbound frame, with its earliest-release instant when the
/// chaos layer held it (partition or crash window). The queue stays FIFO
/// — a held head blocks later frames, which is exactly what a real TCP
/// connection through a partitioned network does.
struct QueuedFrame {
    bytes: Arc<[u8]>,
    not_before: Option<Instant>,
}

impl QueuedFrame {
    /// How much longer the chaos layer holds this frame, if it still does.
    fn held_for(&self) -> Option<Duration> {
        let wait = self.not_before?.saturating_duration_since(Instant::now());
        (!wait.is_zero()).then_some(wait)
    }
}

/// Outbound state for one peer.
struct PeerState {
    queue: VecDeque<QueuedFrame>,
    stream: Option<TcpStream>,
    /// Bumped on every (re)install, so a stale reader/writer error cannot
    /// tear down a newer connection.
    generation: u64,
    /// Accept-order stamp of the newest *accepted* connection installed
    /// for this peer (see [`Peer::install_accepted`]); dialed connections
    /// are sequential in one thread and never need it.
    accept_seq: u64,
    shutdown: bool,
    /// The writer is waiting on the condvar: the next state change must
    /// signal it. Cleared by whoever signals, so a burst wakes it once.
    parked: bool,
}

struct Peer {
    state: Mutex<PeerState>,
    cv: Condvar,
    counters: Arc<Counters>,
}

impl Peer {
    fn new(counters: Arc<Counters>) -> Arc<Peer> {
        Arc::new(Peer {
            counters,
            state: Mutex::new(PeerState {
                queue: VecDeque::new(),
                stream: None,
                generation: 0,
                accept_seq: 0,
                shutdown: false,
                parked: false,
            }),
            cv: Condvar::new(),
        })
    }

    /// Installs a fresh connection, superseding any previous one.
    fn install(&self, stream: TcpStream) -> u64 {
        let mut st = self.state.lock().expect("peer lock");
        st.generation += 1;
        st.stream = Some(stream);
        let generation = st.generation;
        self.wake(st);
        generation
    }

    /// Installs an *accepted* connection, but only if it is newer (in
    /// accept order) than the newest accepted connection already
    /// installed for this peer. Identify threads run concurrently, so a
    /// stale connection — torn while its replacement was already in the
    /// accept queue — can finish identifying *after* the live one; letting
    /// it install would clobber the live stream, and its instant EOF
    /// would then clear the slot for good while the live reader keeps
    /// delivering: a one-way ghost link. Returns `None` when refused; the
    /// caller must still drain the stale connection's buffered frames.
    fn install_accepted(&self, stream: TcpStream, accept_seq: u64) -> Option<u64> {
        let mut st = self.state.lock().expect("peer lock");
        if accept_seq <= st.accept_seq {
            return None;
        }
        st.accept_seq = accept_seq;
        st.generation += 1;
        st.stream = Some(stream);
        let generation = st.generation;
        self.wake(st);
        Some(generation)
    }

    /// Clears the stream if `generation` still names the live connection,
    /// and wakes the writer so it lets go of its handle on that stream —
    /// the socket closes, and the remote end learns the link is dead, only
    /// when the last handle drops. After shutdown the stream stays: a
    /// reader stops at the shutdown, and clearing the stream then would
    /// make the writer drop the frames it is still draining. A connection
    /// that really died fails the writer's next write instead.
    fn uninstall(&self, generation: u64) {
        let mut st = self.state.lock().expect("peer lock");
        if st.generation == generation && !st.shutdown {
            st.stream = None;
            self.wake(st);
        }
    }

    /// Appends one frame to a queue the caller has locked; the caller
    /// wakes the writer once its whole batch is in.
    fn push(&self, st: &mut PeerState, frame: Arc<[u8]>, not_before: Option<Instant>) {
        // `while`: a failed batch requeued at the head can leave the queue
        // over the cap by more than one.
        while st.queue.len() >= MAX_QUEUE {
            st.queue.pop_front();
            self.counters.queue_dropped.fetch_add(1, Ordering::Relaxed);
        }
        st.queue.push_back(QueuedFrame {
            bytes: frame,
            not_before,
        });
    }

    /// Releases the lock after a state change and signals the writer if
    /// it is parked. A writer that is not parked re-reads the state under
    /// the lock before it next waits, so skipping the signal loses
    /// nothing; clearing `parked` here makes a burst of changes cost one
    /// signal. The signal goes out after the unlock, so the woken writer
    /// does not block straight away on the lock the waker still holds.
    fn wake(&self, mut st: MutexGuard<'_, PeerState>) {
        let parked = std::mem::replace(&mut st.parked, false);
        drop(st);
        if parked {
            self.counters.writer_wakes.fetch_add(1, Ordering::Relaxed);
            // The writer is the condvar's only waiter.
            self.cv.notify_one();
        }
    }

    /// Begins teardown. The stream is left installed so the writer can
    /// drain frames already accepted by `send` — dropping them here
    /// would lose traffic that raced a graceful exit.
    fn shutdown(&self) {
        let mut st = self.state.lock().expect("peer lock");
        st.shutdown = true;
        self.wake(st);
    }
}

/// The full-duplex link set of one process. See the module docs.
pub struct Mesh {
    me: ProcessId,
    peers: Vec<Option<Arc<Peer>>>,
    rx: Receiver<Chunk>,
    /// The chunk being handed out, frame by frame; dropped once its last
    /// frame is taken.
    held: RefCell<Option<Chunk>>,
    shutdown: Arc<AtomicBool>,
    chaos: Option<Arc<ChaosRuntime>>,
    counters: Arc<Counters>,
}

impl Mesh {
    /// Builds the mesh for process `me` against an explicit address table
    /// (`n = addrs.len()`), with optional fault injection: binds the
    /// listen socket (`addrs[me]`, loopback-bound when the table says
    /// `127.0.0.1`, all-interfaces otherwise so remote peers can reach
    /// it), spawns the acceptor, one dialer per lower-id peer, and one
    /// writer per peer. Returns as soon as the local socket is bound —
    /// connections to peers establish (and re-establish) in the
    /// background. When `chaos` is `None` the fault path is never
    /// consulted and the mesh behaves byte-identically to a chaos-free
    /// build.
    pub fn with_net(
        me: ProcessId,
        addrs: AddressTable,
        chaos: Option<Arc<ChaosRuntime>>,
    ) -> std::io::Result<Mesh> {
        let n = addrs.len();
        let local_host = addrs.host(me.index());
        let loopback = local_host == "127.0.0.1" || local_host == "localhost";
        let listener = crate::listener::bind_reusable_on(addrs.port(me.index()), loopback)?;
        listener.set_nonblocking(true)?;
        let (tx, rx) = mpsc::channel();
        let shutdown = Arc::new(AtomicBool::new(false));
        let addrs = Arc::new(addrs);
        let counters = Arc::new(Counters::default());
        let mut peers: Vec<Option<Arc<Peer>>> = Vec::with_capacity(n);
        for j in 0..n {
            if j == me.index() {
                peers.push(None);
                continue;
            }
            let peer = Peer::new(Arc::clone(&counters));
            spawn_writer(ProcessId::new(j), Arc::clone(&peer), chaos.clone());
            if j < me.index() {
                spawn_dialer(
                    me,
                    ProcessId::new(j),
                    Arc::clone(&addrs),
                    Arc::clone(&peer),
                    tx.clone(),
                    Arc::clone(&shutdown),
                );
            }
            peers.push(Some(peer));
        }
        spawn_acceptor(me, n, listener, peers.clone(), tx, Arc::clone(&shutdown));
        Ok(Mesh {
            me,
            peers,
            rx,
            held: RefCell::new(None),
            shutdown,
            chaos,
            counters,
        })
    }

    /// Queues an encoded frame for `to`: a one-frame [`Self::send_all`].
    pub fn send(&self, to: ProcessId, frame: Arc<[u8]>) {
        self.send_all([(to, frame)]);
    }

    /// Queues a batch of encoded frames, each for its own peer. Sending to
    /// a downed peer buffers (bounded); sending to self is a caller bug —
    /// the event loop keeps self-traffic local and never encodes it. With
    /// a chaos runtime installed each frame is routed through its verdict
    /// first, drawn in batch order (so each link's stream sees the same
    /// sequence as one-by-one sends): it may be dropped outright, held
    /// until a partition heals or the recipient's crash window ends, or
    /// duplicated with forward jitter. Each peer's share of the batch is
    /// appended under one lock, taken at its first frame and held to the
    /// end of the batch, and its writer is woken at most once, after.
    pub fn send_all(&self, frames: impl IntoIterator<Item = (ProcessId, Arc<[u8]>)>) {
        // The mesh is not `Sync`, so no other batch can take these locks
        // in another order; writers and connection threads hold one at a
        // time.
        let mut locked: Vec<Option<MutexGuard<'_, PeerState>>> =
            self.peers.iter().map(|_| None).collect();
        for (to, frame) in frames {
            assert_ne!(to, self.me, "self-sends never reach the mesh");
            let Some(peer) = &self.peers[to.index()] else {
                continue;
            };
            let (not_before, dup) = match &self.chaos {
                None => (None, None),
                Some(chaos) => match chaos.outbound(to) {
                    Verdict::Drop { .. } => continue,
                    Verdict::Deliver {
                        at,
                        held_partition,
                        held_crash,
                        dup_at,
                    } => (
                        (held_partition || held_crash).then(|| chaos.instant_of(at)),
                        dup_at.map(|dup| chaos.instant_of(dup)),
                    ),
                },
            };
            let st =
                locked[to.index()].get_or_insert_with(|| peer.state.lock().expect("peer lock"));
            match dup {
                None => peer.push(st, frame, not_before),
                Some(dup) => {
                    peer.push(st, Arc::clone(&frame), not_before);
                    peer.push(st, frame, Some(dup));
                }
            }
        }
        for (peer, st) in self.peers.iter().zip(locked) {
            if let (Some(peer), Some(st)) = (peer, st) {
                peer.wake(st);
            }
        }
    }

    /// Hands the next received frame, borrowed in place from its chunk,
    /// to `f` together with its sender, and returns what `f` returns. The
    /// frame comes from the chunk in hand, else from the next chunk in
    /// the channel: one already waiting when `wait` is `None`, else the
    /// first to arrive within `wait`. `None` when there is none.
    pub(crate) fn next_frame<R>(
        &self,
        wait: Option<Duration>,
        f: impl FnOnce(ProcessId, FrameRef<'_>) -> R,
    ) -> Option<R> {
        let mut held = self.held.borrow_mut();
        if held.is_none() {
            *held = Some(match wait {
                None => self.rx.try_recv().ok()?,
                Some(wait) => self.rx.recv_timeout(wait).ok()?,
            });
        }
        let chunk = held.as_mut().expect("a chunk in hand");
        let frame = chunk.run.next_frame().expect("a held chunk has a frame");
        let out = f(chunk.from, frame);
        if chunk.run.is_empty() {
            *held = None;
        }
        Some(out)
    }

    /// Waits up to `timeout` for the next frame, as an owned [`Delivery`].
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Delivery> {
        self.next_frame(Some(timeout), Delivery::new)
    }

    /// The next frame, as an owned [`Delivery`], if one is already waiting.
    pub fn try_recv(&self) -> Option<Delivery> {
        self.next_frame(None, Delivery::new)
    }

    /// How many peers currently have a live connection installed.
    pub fn connected(&self) -> usize {
        self.peers.iter().flatten().count() - self.unconnected().len()
    }

    /// The peers with no live connection installed, in id order.
    pub fn unconnected(&self) -> Vec<ProcessId> {
        let down = |peer: &Arc<Peer>| peer.state.lock().expect("peer lock").stream.is_none();
        (0..self.peers.len())
            .filter(|&j| self.peers[j].as_ref().is_some_and(down))
            .map(ProcessId::new)
            .collect()
    }

    /// What the writers and queues have done so far.
    pub fn counters(&self) -> MeshCounters {
        MeshCounters {
            socket_writes: self.counters.socket_writes.load(Ordering::Relaxed),
            frames_written: self.counters.frames_written.load(Ordering::Relaxed),
            queue_dropped: self.counters.queue_dropped.load(Ordering::Relaxed),
            writer_wakes: self.counters.writer_wakes.load(Ordering::Relaxed),
            chunks_received: self.counters.chunks_received.load(Ordering::Relaxed),
            frames_received: self.counters.frames_received.load(Ordering::Relaxed),
        }
    }

    /// Signals every mesh thread to wind down. Threads are detached: the
    /// readers stop at once, writers once they have drained their queue,
    /// the rest within one poll interval; sockets close with the process.
    pub fn shutdown(&self) {
        // Peers first: a reader that stops at the flag must find its peer
        // shut down, or its `uninstall` would cut off the writer's drain.
        for peer in self.peers.iter().flatten() {
            peer.shutdown();
        }
        self.shutdown.store(true, Ordering::Release);
        // Then wake the readers blocked in `read`, which would otherwise
        // linger for their poll timeout; the flag is up, so none redials.
        // Writes are unaffected, so the drain goes on.
        for peer in self.peers.iter().flatten() {
            if let Some(stream) = &peer.state.lock().expect("peer lock").stream {
                let _ = stream.shutdown(Shutdown::Read);
            }
        }
    }
}

impl Drop for Mesh {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Writer thread: whenever a stream is live, drains the releasable run at
/// the head of one peer's queue — every frame up to the first one whose
/// chaos release time is still ahead, or [`MAX_BATCH_BYTES`] — under one
/// lock, concatenates it and hands it to the kernel in one write loop,
/// through a stream handle cloned once per connection generation. What
/// the per-frame guarantees rest on:
///
/// * **FIFO through a hold.** A held frame ends the batch; at the head it
///   blocks the queue until its release instant, like real TCP through a
///   partition.
/// * **At-most-once after hand-off.** The write loop counts the bytes the
///   kernel accepted. When the connection dies, exactly the frames not
///   fully written go back to the head of the queue, in order, for the
///   next incarnation; a frame the peer may already have parsed is never
///   resent. The peer's partial frame dies with the socket, so there is
///   no resync issue.
/// * **Tears.** Under a chaos runtime every frame is offered to
///   [`ChaosRuntime::tear_len`] once, in queue order. A torn frame ends
///   the batch: the whole frames before it go out, then a strict prefix
///   of it, then the socket is killed — and the byte accounting requeues
///   the *full* frame and everything behind it, so the reconnect path
///   (not the chaos layer) is what restores delivery.
/// * **Generations.** The handle is dropped when the peer's generation
///   moves, when the slot is cleared, or when a write fails; a stale
///   writer error cannot clear a newer connection.
/// * **No lost wake-up.** Every condition the writer waits on is read
///   under the peer lock, and it sets `parked` under that lock before it
///   waits; whoever changes the state under the lock and finds `parked`
///   signals it ([`Peer::wake`]). A writer that is not parked sees the
///   change on its next pass.
fn spawn_writer(to: ProcessId, peer: Arc<Peer>, chaos: Option<Arc<ChaosRuntime>>) {
    thread::spawn(move || {
        // All three grow on demand: most links never see a large batch.
        let mut handle: Option<(u64, TcpStream)> = None;
        let mut batch: Vec<QueuedFrame> = Vec::new();
        let mut wire: Vec<u8> = Vec::new();
        loop {
            {
                let mut st = peer.state.lock().expect("peer lock");
                loop {
                    // Let go of a superseded or cleared connection: the
                    // socket closes when its last handle drops.
                    handle = handle.filter(|(g, _)| *g == st.generation && st.stream.is_some());
                    // On shutdown, drain what a live stream can still take;
                    // exit once the queue is empty or the connection is gone.
                    if st.shutdown && (st.queue.is_empty() || st.stream.is_none()) {
                        return;
                    }
                    if st.stream.is_some() && !st.queue.is_empty() {
                        // A held head blocks the queue until its release
                        // instant (FIFO, like real TCP through a partition).
                        let Some(wait) = st.queue.front().and_then(QueuedFrame::held_for) else {
                            break;
                        };
                        st.parked = true;
                        let (next, _) = peer.cv.wait_timeout(st, wait).expect("peer lock");
                        st = next;
                        st.parked = false;
                        continue;
                    }
                    st.parked = true;
                    st = peer.cv.wait(st).expect("peer lock");
                    st.parked = false;
                }
                if handle.is_none() {
                    match st.stream.as_ref().expect("checked some").try_clone() {
                        Ok(s) => handle = Some((st.generation, s)),
                        Err(_) => {
                            // No handle, no connection: wait for the next.
                            st.stream = None;
                            continue;
                        }
                    }
                }
                let mut bytes = 0;
                while let Some(head) = st.queue.front() {
                    let full = bytes + head.bytes.len() > MAX_BATCH_BYTES;
                    if !batch.is_empty() && (full || head.held_for().is_some()) {
                        break;
                    }
                    bytes += head.bytes.len();
                    batch.push(st.queue.pop_front().expect("checked non-empty"));
                }
            }
            let (generation, stream) = handle.as_mut().expect("cloned above");
            let mut torn = false;
            for frame in &batch {
                match chaos
                    .as_ref()
                    .and_then(|c| c.tear_len(to, frame.bytes.len()))
                {
                    None => wire.extend_from_slice(&frame.bytes),
                    Some(cut) => {
                        wire.extend_from_slice(&frame.bytes[..cut]);
                        torn = true;
                        break;
                    }
                }
            }
            let mut written = 0;
            while written < wire.len() {
                match stream.write(&wire[written..]) {
                    Ok(0) => break,
                    Ok(k) => {
                        written += k;
                        peer.counters.socket_writes.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => break,
                }
            }
            let dead = torn || written < wire.len();
            if torn {
                // Deliberate mid-frame tear: the strict prefix is out,
                // now condemn the connection.
                let _ = stream.flush();
                let _ = stream.shutdown(Shutdown::Both);
            }
            // The frames the kernel took whole are gone for good; the rest
            // of the batch (if the connection died) is the unsent tail.
            let mut end = 0;
            let sent = batch
                .iter()
                .take_while(|frame| {
                    end += frame.bytes.len();
                    end <= written
                })
                .count();
            peer.counters
                .frames_written
                .fetch_add(sent as u64, Ordering::Relaxed);
            if dead {
                let mut st = peer.state.lock().expect("peer lock");
                if st.generation == *generation {
                    st.stream = None;
                }
                for frame in batch.drain(sent..).rev() {
                    st.queue.push_front(frame);
                }
                handle = None;
            }
            batch.clear();
            if wire.len() > MAX_BATCH_BYTES {
                // An oversized head frame: don't keep its buffer around.
                wire = Vec::new();
            } else {
                wire.clear();
            }
        }
    });
}

/// Dialer thread: maintains the outbound connection to one lower-id peer,
/// redialing with bounded backoff, and runs the reader inline while the
/// connection lives (one thread per peer link, however often it heals).
fn spawn_dialer(
    me: ProcessId,
    to: ProcessId,
    addrs: Arc<AddressTable>,
    peer: Arc<Peer>,
    tx: Sender<Chunk>,
    shutdown: Arc<AtomicBool>,
) {
    thread::spawn(move || {
        let mut backoff = BACKOFF_MIN;
        while !shutdown.load(Ordering::Acquire) {
            let addr = (addrs.host(to.index()), addrs.port(to.index()));
            let stream = match TcpStream::connect(addr) {
                Ok(s) => s,
                Err(_) => {
                    thread::sleep(backoff);
                    backoff = (backoff * 2).min(BACKOFF_MAX);
                    continue;
                }
            };
            backoff = BACKOFF_MIN;
            let _ = stream.set_nodelay(true);
            if stream
                .try_clone()
                .and_then(|mut s| s.write_all(&crate::frame::hello_frame(me.index())))
                .is_err()
            {
                continue;
            }
            let generation = peer.install(stream.try_clone().expect("clone dialed stream"));
            read_frames(stream, to, &tx, &peer.counters, &shutdown, FrameBuf::new());
            peer.uninstall(generation);
        }
    });
}

/// Acceptor thread: admits connections from higher-id peers, identifies
/// each by its hello frame, installs the stream and hands it to a reader.
/// Each connection is stamped with its accept order before the identify
/// thread spawns, so concurrently-identifying connections from the same
/// (rapidly reconnecting) peer install newest-wins regardless of which
/// identify finishes first.
fn spawn_acceptor(
    me: ProcessId,
    n: usize,
    listener: TcpListener,
    peers: Vec<Option<Arc<Peer>>>,
    tx: Sender<Chunk>,
    shutdown: Arc<AtomicBool>,
) {
    thread::spawn(move || {
        // Starts at 1: seq 0 is the "nothing accepted yet" floor.
        let mut accept_seq = 0u64;
        while !shutdown.load(Ordering::Acquire) {
            let stream = match listener.accept() {
                Ok((s, _)) => s,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(10));
                    continue;
                }
                Err(_) => {
                    // Transient per-connection failures (e.g. a dial
                    // reset while queued) must not kill the acceptor —
                    // with it dies every future reconnection.
                    thread::sleep(Duration::from_millis(10));
                    continue;
                }
            };
            accept_seq += 1;
            let _ = stream.set_nodelay(true);
            let peers = peers.clone();
            let tx = tx.clone();
            let shutdown = Arc::clone(&shutdown);
            thread::spawn(move || {
                let Some((from, leftover)) = identify(&stream) else {
                    return; // bogus hello: refuse the connection
                };
                // Only higher ids dial us, and only cluster members.
                if from <= me.index() || from >= n {
                    return;
                }
                let from = ProcessId::new(from);
                let peer = peers[from.index()].as_ref().expect("peer slot").clone();
                match peer.install_accepted(
                    stream.try_clone().expect("clone accepted stream"),
                    accept_seq,
                ) {
                    Some(generation) => {
                        read_frames(stream, from, &tx, &peer.counters, &shutdown, leftover);
                        peer.uninstall(generation);
                    }
                    None => {
                        // Superseded by a newer accepted connection: never
                        // touch the slot, but drain whatever frames this
                        // stale (already torn) connection still buffers.
                        read_frames(stream, from, &tx, &peer.counters, &shutdown, leftover);
                    }
                }
            });
        }
    });
}

/// Blocks until the dialer's hello frame arrives (bounded by a read
/// timeout) and returns the claimed sender id, plus whatever bytes were
/// read past the hello. Protocol frames routinely ride the same packet
/// as the hello, so the leftover buffer MUST flow into [`read_frames`] —
/// dropping it would silently eat the dialer's opening messages.
fn identify(stream: &TcpStream) -> Option<(usize, FrameBuf)> {
    let mut s = stream.try_clone().ok()?;
    let _ = s.set_read_timeout(Some(Duration::from_secs(5)));
    // A *total* deadline, not just per-read: a peer streaming bytes that
    // never frame a hello (hostile, or torn mid-handshake) would
    // otherwise defeat the read timeout indefinitely.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut buf = FrameBuf::new();
    loop {
        if let Ok(Some(frame)) = buf.next_frame() {
            let sender = hello_sender(&frame)?;
            let _ = s.set_read_timeout(None);
            return Some((sender, buf));
        }
        if Instant::now() >= deadline {
            return None;
        }
        match buf.read_from(&mut s) {
            Ok(0) | Err(_) => return None,
            Ok(_) => {}
        }
    }
}

/// Reads frames off an established connection until it dies (or
/// shutdown). After each read, every frame the read completed goes to the
/// event loop as one [`Chunk`] — one allocation and one channel send per
/// read, not per frame — and the torn tail stays for the next read. A
/// corrupt frame prefix condemns the connection once the whole frames
/// ahead of it are sent — framing resynchronizes by reconnecting, never
/// in-stream.
fn read_frames(
    mut stream: TcpStream,
    from: ProcessId,
    tx: &Sender<Chunk>,
    counters: &Counters,
    shutdown: &AtomicBool,
    mut buf: FrameBuf,
) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    // Drain frames the identify step may already have buffered, then the
    // socket.
    loop {
        loop {
            match buf.take_run() {
                Ok(Some(run)) => {
                    counters.chunks_received.fetch_add(1, Ordering::Relaxed);
                    counters
                        .frames_received
                        .fetch_add(run.len() as u64, Ordering::Relaxed);
                    if tx.send(Chunk { from, run }).is_err() {
                        return; // event loop gone
                    }
                }
                Ok(None) => break, // torn tail: read more
                Err(_) => return,  // corrupt: drop connection
            }
        }
        if shutdown.load(Ordering::Acquire) {
            return;
        }
        match buf.read_from(&mut stream) {
            Ok(0) => return, // orderly close
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::encode_frame;
    use crate::listener::free_loopback_addrs;
    use std::io::Read;

    #[test]
    fn three_process_mesh_delivers_both_directions() {
        let n = 3;
        let addrs = free_loopback_addrs(n).expect("free ports");
        let meshes: Vec<Mesh> = (0..n)
            .map(|i| Mesh::with_net(ProcessId::new(i), addrs.clone(), None).expect("bind"))
            .collect();
        // Every process sends one frame to every other.
        for (i, mesh) in meshes.iter().enumerate() {
            let payload = vec![i as u8; 3];
            let frame: Arc<[u8]> = encode_frame(3, 1, &payload).into();
            for j in 0..n {
                if j != i {
                    mesh.send(ProcessId::new(j), Arc::clone(&frame));
                }
            }
        }
        for (i, mesh) in meshes.iter().enumerate() {
            let mut got = Vec::new();
            while got.len() < n - 1 {
                let d = mesh
                    .recv_timeout(Duration::from_secs(10))
                    .expect("delivery within deadline");
                assert_eq!(d.depth, StepDepth::ONE);
                assert_eq!(d.payload, vec![d.from.index() as u8; 3]);
                got.push(d.from.index());
            }
            got.sort_unstable();
            let expected: Vec<usize> = (0..n).filter(|j| *j != i).collect();
            assert_eq!(got, expected, "process {i} heard every peer once");
        }
    }

    #[test]
    fn frames_buffered_while_peer_down_flush_on_connect() {
        let addrs = free_loopback_addrs(2).expect("free ports");
        // Process 1 comes up first and sends to 0 before 0 exists: the
        // frame must wait in the outbound queue, then flush on dial.
        let m1 = Mesh::with_net(ProcessId::new(1), addrs.clone(), None).expect("bind 1");
        let frame: Arc<[u8]> = encode_frame(0, 2, b"early").into();
        m1.send(ProcessId::new(0), frame);
        thread::sleep(Duration::from_millis(50));
        let m0 = Mesh::with_net(ProcessId::new(0), addrs, None).expect("bind 0");
        let d = m0
            .recv_timeout(Duration::from_secs(10))
            .expect("buffered frame arrives after the peer comes up");
        assert_eq!(d.from, ProcessId::new(1));
        assert_eq!(d.payload, b"early");
        assert_eq!(d.depth, StepDepth::new(2));
    }

    /// Receives `count` frames from `mesh`, asserting they carry the
    /// depths `0..count` in order, and returns when each arrived.
    fn recv_in_order(mesh: &Mesh, count: u32) -> Vec<Instant> {
        (0..count)
            .map(|i| {
                let d = mesh
                    .recv_timeout(Duration::from_secs(10))
                    .expect("delivery within deadline");
                assert_eq!(d.depth, StepDepth::new(i), "frames arrive in queue order");
                Instant::now()
            })
            .collect()
    }

    /// Polls until the writers have accounted for `frames` frames (the
    /// receiver can see the last bytes before the writer's counter moves).
    fn counters_at(mesh: &Mesh, frames: u64) -> MeshCounters {
        let deadline = Instant::now() + Duration::from_secs(10);
        while mesh.counters().frames_written < frames && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(1));
        }
        mesh.counters()
    }

    #[test]
    fn a_backlog_goes_out_in_few_bounded_writes() {
        let addrs = free_loopback_addrs(2).expect("free ports");
        // 1 000 frames queue up before the peer exists, so the writer
        // finds them all at its first wake-up.
        let m1 = Mesh::with_net(ProcessId::new(1), addrs.clone(), None).expect("bind 1");
        let mut bytes = 0;
        for i in 0..1000 {
            let frame = encode_frame(1, i, &[i as u8; 100]);
            bytes += frame.len();
            m1.send(ProcessId::new(0), frame.into());
        }
        let m0 = Mesh::with_net(ProcessId::new(0), addrs, None).expect("bind 0");
        recv_in_order(&m0, 1000);
        let counters = counters_at(&m1, 1000);
        assert_eq!(counters.frames_written, 1000);
        assert_eq!(counters.queue_dropped, 0);
        // At least one write per MAX_BATCH_BYTES; short writes may add a
        // few, but nowhere near one per frame.
        let batches = bytes.div_ceil(MAX_BATCH_BYTES) as u64;
        assert!(batches >= 2, "the backlog spans more than one batch");
        assert!(
            (batches..100).contains(&counters.socket_writes),
            "{counters:?} for {batches} batches"
        );
    }

    #[test]
    fn frames_larger_than_the_batch_cap_still_go_out() {
        let addrs = free_loopback_addrs(2).expect("free ports");
        let m1 = Mesh::with_net(ProcessId::new(1), addrs.clone(), None).expect("bind 1");
        let sizes = [
            10,
            2 * MAX_BATCH_BYTES,
            10,
            MAX_BATCH_BYTES + 1,
            MAX_BATCH_BYTES,
        ];
        for (i, size) in sizes.iter().enumerate() {
            let frame = encode_frame(1, i as u32, &vec![i as u8; *size]);
            m1.send(ProcessId::new(0), frame.into());
        }
        let m0 = Mesh::with_net(ProcessId::new(0), addrs, None).expect("bind 0");
        for (i, size) in sizes.iter().enumerate() {
            let d = m0
                .recv_timeout(Duration::from_secs(10))
                .expect("delivery within deadline");
            assert_eq!(d.depth, StepDepth::new(i as u32));
            assert_eq!(d.payload, vec![i as u8; *size]);
        }
        assert_eq!(counters_at(&m1, 5).frames_written, 5);
    }

    #[test]
    fn the_oldest_frames_past_the_queue_cap_are_dropped_and_counted() {
        let addrs = free_loopback_addrs(2).expect("free ports");
        let m1 = Mesh::with_net(ProcessId::new(1), addrs.clone(), None).expect("bind 1");
        let extra = 5;
        for i in 0..(MAX_QUEUE + extra) as u32 {
            m1.send(ProcessId::new(0), encode_frame(1, i, &[]).into());
        }
        assert_eq!(m1.counters().queue_dropped, extra as u64);
        let m0 = Mesh::with_net(ProcessId::new(0), addrs, None).expect("bind 0");
        let first = m0
            .recv_timeout(Duration::from_secs(10))
            .expect("delivery within deadline");
        assert_eq!(first.depth, StepDepth::new(extra as u32));
    }

    #[test]
    fn a_held_frame_is_not_overtaken_and_delays_nothing_ahead_of_it() {
        let addrs = free_loopback_addrs(2).expect("free ports");
        let m1 = Mesh::with_net(ProcessId::new(1), addrs.clone(), None).expect("bind 1");
        let m0 = Mesh::with_net(ProcessId::new(0), addrs, None).expect("bind 0");
        let deadline = Instant::now() + Duration::from_secs(10);
        while m0.connected() + m1.connected() < 2 {
            assert!(Instant::now() < deadline, "the link never came up");
            thread::sleep(Duration::from_millis(1));
        }
        // Frames 0 and 1 are free, 2 is held (as a partition or a crash
        // window would hold it), 3 and 4 queue up behind it. The hold is
        // long enough that a loaded machine still delivers 0 and 1 inside it.
        let release = Instant::now() + Duration::from_millis(200);
        let peer = m1.peers[0].as_ref().expect("peer slot");
        let mut st = peer.state.lock().expect("peer lock");
        for i in 0..5 {
            let frame = encode_frame(1, i, b"x").into();
            peer.push(&mut st, frame, (i == 2).then_some(release));
        }
        peer.wake(st);
        let at = recv_in_order(&m0, 5);
        assert!(at[1] < release, "frames ahead of the hold are not delayed");
        assert!(at[2] >= release, "the held frame waits for its instant");
    }

    #[test]
    fn shutdown_drains_a_queued_frame_after_the_readers_stop() {
        // Once for the dialing side's reader, once for the accepting side's.
        for sender in [1, 0] {
            let (m0, m1) = parked_pair();
            let (from, to) = if sender == 1 { (&m1, &m0) } else { (&m0, &m1) };
            // Held past the readers' 200 ms poll, so they see the shutdown
            // and stop while the frame still waits in the queue.
            let release = Instant::now() + Duration::from_millis(500);
            let peer = from.peers[1 - sender].as_ref().expect("peer slot");
            let mut st = peer.state.lock().expect("peer lock");
            peer.push(&mut st, encode_frame(1, 7, b"last").into(), Some(release));
            peer.wake(st);
            from.shutdown();
            let d = to
                .recv_timeout(Duration::from_secs(10))
                .unwrap_or_else(|| panic!("process {sender}'s frame died with its readers"));
            assert_eq!((d.depth, &d.payload[..]), (StepDepth::new(7), &b"last"[..]));
        }
    }

    /// Builds a connected pair (process 1 dials process 0) and waits
    /// until `m1`'s writer for process 0 has parked on an empty queue.
    fn parked_pair() -> (Mesh, Mesh) {
        let addrs = free_loopback_addrs(2).expect("free ports");
        let m1 = Mesh::with_net(ProcessId::new(1), addrs.clone(), None).expect("bind 1");
        let m0 = Mesh::with_net(ProcessId::new(0), addrs, None).expect("bind 0");
        let deadline = Instant::now() + Duration::from_secs(10);
        let peer = m1.peers[0].as_ref().expect("peer slot");
        loop {
            let parked = {
                let st = peer.state.lock().expect("peer lock");
                st.parked && st.stream.is_some() && st.queue.is_empty()
            };
            if parked && m0.connected() == 1 {
                return (m0, m1);
            }
            assert!(Instant::now() < deadline, "the link never came up");
            thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn one_batch_to_a_parked_writer_is_one_wake_and_a_few_writes() {
        let (m0, m1) = parked_pair();
        let before = m1.counters();
        let frames = (0..500).map(|i| (ProcessId::new(0), encode_frame(1, i, &[7; 20]).into()));
        m1.send_all(frames);
        recv_in_order(&m0, 500);
        let after = counters_at(&m1, before.frames_written + 500);
        assert_eq!(after.frames_written - before.frames_written, 500);
        assert_eq!(after.writer_wakes - before.writer_wakes, 1, "{after:?}");
        // 500 × 29 bytes fit one MAX_BATCH_BYTES batch; short writes may
        // split it, but not per frame.
        let writes = after.socket_writes - before.socket_writes;
        assert!((1..=4).contains(&writes), "{writes} writes: {after:?}");
    }

    #[test]
    fn one_batch_reaches_the_event_loop_in_a_few_chunks() {
        let (m0, m1) = parked_pair();
        let before = m0.counters();
        let frames = (0..500).map(|i| (ProcessId::new(0), encode_frame(1, i, &[7; 20]).into()));
        m1.send_all(frames);
        recv_in_order(&m0, 500);
        let after = m0.counters();
        assert_eq!(after.frames_received - before.frames_received, 500);
        // One chunk per socket read that completed a frame: the batch
        // goes out in a few writes, so it comes in a few reads.
        let chunks = after.chunks_received - before.chunks_received;
        assert!((1..=50).contains(&chunks), "{chunks} chunks: {after:?}");
        assert!(m0.try_recv().is_none(), "every run was handed out whole");
    }

    #[test]
    fn bursts_against_a_parking_writer_lose_no_wake_up() {
        const FRAMES: u32 = 20_000;
        let (m0, m1) = parked_pair();
        let before = m1.counters();
        // Bursts of 1–64 frames; after each, at random, no pause, a pause
        // of up to 255 µs, or a wait until everything sent so far has
        // arrived. The writer is caught parked, mid-write and about to
        // park, in every order; a wake-up lost behind a wait is a hang,
        // since nothing else would wake the writer.
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut received = 0;
        let mut receive_to = |target: u32| {
            while received < target {
                let left = deadline.saturating_duration_since(Instant::now());
                let d = m0.recv_timeout(left).unwrap_or_else(|| {
                    panic!("frame {received} of {target} sent never arrived: lost wake-up")
                });
                assert_eq!(d.depth, StepDepth::new(received), "frames arrive in order");
                assert_eq!(d.payload, received.to_le_bytes());
                received += 1;
            }
        };
        let mut rng = 0x5EED_u64;
        let (mut sent, mut bursts) = (0, 0u64);
        while sent < FRAMES {
            rng = crate::chaos::splitmix64(rng);
            let burst = (1 + rng % 64).min(u64::from(FRAMES - sent)) as u32;
            let frames = (sent..sent + burst).map(|i| {
                (
                    ProcessId::new(0),
                    encode_frame(1, i, &i.to_le_bytes()).into(),
                )
            });
            m1.send_all(frames);
            sent += burst;
            bursts += 1;
            match (rng >> 32) % 3 {
                0 => {}
                1 => thread::sleep(Duration::from_micros((rng >> 40) % 256)),
                _ => receive_to(sent),
            }
        }
        receive_to(FRAMES);
        let wakes = counters_at(&m1, before.frames_written + u64::from(FRAMES)).writer_wakes
            - before.writer_wakes;
        assert!(wakes <= bursts, "{wakes} wakes for {bursts} bursts");
        assert!(
            wakes * 10 < u64::from(FRAMES),
            "{wakes} wakes for {FRAMES} frames"
        );
    }

    /// Each peer's queued frame bytes, in queue order.
    fn queued_bytes(mesh: &Mesh) -> Vec<Vec<Arc<[u8]>>> {
        mesh.peers
            .iter()
            .flatten()
            .map(|peer| {
                let st = peer.state.lock().expect("peer lock");
                st.queue.iter().map(|f| Arc::clone(&f.bytes)).collect()
            })
            .collect()
    }

    #[test]
    fn a_batch_draws_the_same_chaos_verdicts_as_one_by_one_sends() {
        use dex_harness::runner::Placement;
        use dex_harness::spec::{ChaosSpec, RunSpec};
        // Process 6 is the f = 1 budget process, so its links drop; every
        // link duplicates. No peer is up, so the queues keep everything.
        let me = ProcessId::new(6);
        for spec in [
            ChaosSpec::DropHeavy { p: 0.4 },
            ChaosSpec::DupHeavy { p: 0.5 },
        ] {
            let faults = RunSpec {
                f: 1,
                chaos: spec.clone(),
                placement: Placement::LastK,
                ..RunSpec::default()
            }
            .instance(0)
            .expect("7-process spec")
            .faults;
            let mesh = || {
                let chaos = ChaosRuntime::new(faults.clone(), 7, me, 42);
                let addrs = free_loopback_addrs(7).expect("free ports");
                Mesh::with_net(me, addrs, Some(Arc::new(chaos))).expect("bind")
            };
            let (batched, single) = (mesh(), mesh());
            let mut rng = 0xC4A05_u64;
            let frames: Vec<(ProcessId, Arc<[u8]>)> = (0..300)
                .map(|i| {
                    rng = crate::chaos::splitmix64(rng);
                    let to = ProcessId::new((rng % 6) as usize);
                    (to, encode_frame(1, i, b"v").into())
                })
                .collect();
            batched.send_all(frames.iter().cloned());
            for (to, frame) in frames {
                single.send(to, frame);
            }
            let reports = |m: &Mesh| m.chaos.as_ref().expect("chaos").reports();
            let drawn = reports(&batched);
            assert!(drawn.iter().any(|r| r.drops + r.dups > 0), "{drawn:?}");
            assert_eq!(drawn, reports(&single), "{spec:?}");
            assert_eq!(queued_bytes(&batched), queued_bytes(&single), "{spec:?}");
        }
    }

    #[test]
    fn frames_ahead_of_a_corrupt_prefix_are_delivered_before_the_link_drops() {
        // Once with the hello in the same write (the frames reach the
        // reader through identify's leftover bytes), once after it.
        for hello_alone in [false, true] {
            let addrs = free_loopback_addrs(2).expect("free ports");
            let m0 = Mesh::with_net(ProcessId::new(0), addrs.clone(), None).expect("bind 0");
            let mut raw = TcpStream::connect((addrs.host(0), addrs.port(0))).expect("dial");
            let mut wire = crate::frame::hello_frame(1);
            if hello_alone {
                raw.write_all(&wire).expect("hello");
                wire.clear();
                let deadline = Instant::now() + Duration::from_secs(10);
                while m0.connected() == 0 {
                    assert!(Instant::now() < deadline, "the link never came up");
                    thread::sleep(Duration::from_millis(1));
                }
            }
            wire.extend_from_slice(&encode_frame(1, 0, b"first"));
            wire.extend_from_slice(&encode_frame(2, 1, b"second"));
            wire.extend_from_slice(&0u32.to_le_bytes());
            raw.write_all(&wire)
                .expect("two frames and a corrupt prefix");
            for (depth, payload) in [(0, &b"first"[..]), (1, &b"second"[..])] {
                let d = m0
                    .recv_timeout(Duration::from_secs(10))
                    .expect("a frame ahead of the corrupt prefix");
                assert_eq!(d.from, ProcessId::new(1));
                assert_eq!((d.depth, &d.payload[..]), (StepDepth::new(depth), payload));
            }
            raw.set_read_timeout(Some(Duration::from_secs(10)))
                .expect("read timeout");
            match raw.read(&mut [0; 1]) {
                Ok(0) => {}
                Err(e) if e.kind() == ErrorKind::ConnectionReset => {}
                other => panic!("the connection stayed open: {other:?}"),
            }
            assert!(m0.try_recv().is_none(), "nothing past the corrupt prefix");
        }
    }

    #[test]
    fn a_condemned_connection_closes_although_the_writer_holds_a_handle() {
        let addrs = free_loopback_addrs(2).expect("free ports");
        let m0 = Mesh::with_net(ProcessId::new(0), addrs.clone(), None).expect("bind 0");
        // Process 1 by hand: dial, say hello, and take one frame, so that
        // m0's writer has cloned its handle on this connection.
        let mut raw = TcpStream::connect((addrs.host(0), addrs.port(0))).expect("dial");
        raw.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        raw.write_all(&crate::frame::hello_frame(1)).expect("hello");
        let frame = encode_frame(1, 0, b"x");
        m0.send(ProcessId::new(1), frame.clone().into());
        let mut got = vec![0; frame.len()];
        raw.read_exact(&mut got).expect("the frame arrives");
        assert_eq!(got, frame);
        // An impossible length prefix makes m0's reader condemn the
        // connection. The dialer must see it close — and redial — rather
        // than wait on a socket the idle writer keeps open.
        raw.write_all(&0u32.to_le_bytes()).expect("corrupt prefix");
        match raw.read(&mut [0; 1]) {
            Ok(0) => {}
            Err(e) if e.kind() == ErrorKind::ConnectionReset => {}
            other => panic!("the connection stayed open: {other:?}"),
        }
    }
}
