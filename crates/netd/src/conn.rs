//! Per-peer TCP connection management for a netd process.
//!
//! A [`Mesh`] gives one process a full-duplex link to every peer in the
//! cluster. One I/O thread owns all of its sockets — the listener and
//! every connection, dialed or accepted — as non-blocking sockets, and
//! waits on them in `poll(2)` (no async runtime in the vendored
//! dependency tree):
//!
//! * **Connect/accept race resolution by process id** — for each pair the
//!   *higher* id dials and the *lower* id accepts, so there is no
//!   simultaneous-open glare. The dialer identifies itself with a hello
//!   frame before any protocol traffic; the accepting side parses it from
//!   the connection's own receive buffer, so frames behind it are kept.
//! * **Bounded reconnect backoff** — a dial whose peer is down (not yet
//!   spawned, or `kill -9`ed) is retried with exponential backoff between
//!   [`BACKOFF_MIN`] and [`BACKOFF_MAX`], forever, so a respawned peer is
//!   re-adopted without any coordination. A dial never blocks the thread:
//!   it is a non-blocking `connect` whose end shows as writability.
//! * **Outbound buffering while a peer is down** — sends enqueue encoded
//!   frames per peer ([`MAX_QUEUE`] cap, oldest dropped beyond it); while
//!   a peer has a live connection, the I/O thread hands the kernel the
//!   releasable run at the head of its queue in one coalesced
//!   non-blocking write. Frames share one allocation across the fan-out
//!   (`Arc<[u8]>`), so a multicast clones nothing.
//! * **One wake per batch, and only for a polling thread** — the queues
//!   sit under one lock. [`Mesh::send_all`] appends a whole batch (one
//!   event-loop turn's sends) under it, and writes one byte to the I/O
//!   thread's wake socket only if the thread has said, under that lock,
//!   that it is about to poll; a busy thread finds the new frames on its
//!   next pass. [`Mesh::send`] is the one-frame batch.
//! * **One channel message per read** — after each read of a connection
//!   into its [`FrameBuf`], the I/O thread sends the event loop every
//!   frame that read completed as one chunk ([`FrameBuf::take_run`]: one
//!   allocation, one channel send), leaving a torn tail for the next
//!   read. The event loop takes frames from the chunk in hand in place,
//!   and frees it with its last frame; [`Mesh::recv_timeout`] and
//!   [`Mesh::try_recv`] hand out owned copies. A corrupt length prefix
//!   condemns the connection once the frames ahead of it are sent.
//!
//! Frames that were handed to a connection that later died are *lost*,
//! not retried: netd offers the same at-most-once delivery the simulator
//! models, and the consensus/replication layers own retransmission
//! semantics (catch-up, flush ticks).

use crate::chaos::ChaosRuntime;
use crate::frame::{hello_frame, hello_sender, FrameBuf, FrameRef, FrameRun};
use crate::listener::{self, PollFd, POLLERR, POLLHUP, POLLIN, POLLOUT};
use dex_harness::spec::AddressTable;
use dex_simnet::Verdict;
use dex_types::{ProcessId, StepDepth};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
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
    /// Wake bytes written to the I/O thread while it polled: at most one
    /// per [`Mesh::send_all`], and none while the thread is busy.
    pub io_wakes: u64,
    /// Runs of frames the I/O thread handed the event loop: one channel
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
    io_wakes: AtomicU64,
    chunks_received: AtomicU64,
    frames_received: AtomicU64,
}

impl Counters {
    fn add(counter: &AtomicU64, k: usize) {
        counter.fetch_add(k as u64, Ordering::Relaxed);
    }
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

/// What the I/O thread sends the event loop: the whole frames one socket
/// read completed on the link from `from`.
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

/// What the event loop and the I/O thread share, under one lock.
struct State {
    /// Outbound frames per peer (`me`'s stays empty).
    queues: Vec<VecDeque<QueuedFrame>>,
    /// Which peers have a live connection installed.
    up: Vec<bool>,
    /// The I/O thread is about to wait in `poll`: the next change must
    /// write it a wake byte. Cleared by whoever writes it, so a burst of
    /// changes wakes it once.
    polling: bool,
    shutdown: bool,
}

impl State {
    /// Appends one frame to `to`'s queue; the caller wakes the I/O thread
    /// once its whole batch is in.
    fn push(&mut self, to: usize, frame: Arc<[u8]>, not_before: Option<Instant>, c: &Counters) {
        let queue = &mut self.queues[to];
        // `while`: a dead connection's unsent frames requeued at the head
        // can leave the queue over the cap by more than one.
        while queue.len() >= MAX_QUEUE {
            queue.pop_front();
            Counters::add(&c.queue_dropped, 1);
        }
        queue.push_back(QueuedFrame {
            bytes: frame,
            not_before,
        });
    }
}

struct Shared {
    state: Mutex<State>,
    /// The sending end of the I/O thread's wake socket.
    waker: UnixStream,
    counters: Counters,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("mesh lock")
    }

    /// Releases the lock after a change and wakes the I/O thread if it is
    /// polling. A thread that is not polling re-reads the state under the
    /// lock before it next polls, so skipping the byte loses nothing;
    /// clearing `polling` here makes a burst of changes cost one byte. The
    /// byte goes out after the unlock, so the woken thread does not block
    /// straight away on the lock the waker still holds.
    fn wake(&self, mut st: MutexGuard<'_, State>) {
        let polling = std::mem::replace(&mut st.polling, false);
        drop(st);
        if polling {
            Counters::add(&self.counters.io_wakes, 1);
            // A full socket already holds an unread byte: nothing is lost.
            let _ = (&self.waker).write(&[1]);
        }
    }
}

/// The full-duplex link set of one process. See the module docs.
pub struct Mesh {
    me: ProcessId,
    shared: Arc<Shared>,
    rx: Receiver<Chunk>,
    /// The chunk being handed out, frame by frame; dropped once its last
    /// frame is taken.
    held: RefCell<Option<Chunk>>,
    chaos: Option<Arc<ChaosRuntime>>,
}

impl Mesh {
    /// Builds the mesh for process `me` against an explicit address table
    /// (`n = addrs.len()`), with optional fault injection: binds the
    /// listen socket (`addrs[me]`, loopback-bound when the table says
    /// `127.0.0.1`, all-interfaces otherwise so remote peers can reach
    /// it) and starts the mesh's I/O thread, which dials every lower-id
    /// peer and accepts the higher ones. Returns as soon as the local
    /// socket is bound — connections to peers establish (and
    /// re-establish) in the background. When `chaos` is `None` the fault
    /// path is never consulted and the mesh behaves byte-identically to a
    /// chaos-free build.
    pub fn with_net(
        me: ProcessId,
        addrs: AddressTable,
        chaos: Option<Arc<ChaosRuntime>>,
    ) -> io::Result<Mesh> {
        let n = addrs.len();
        let local_host = addrs.host(me.index());
        let loopback = local_host == "127.0.0.1" || local_host == "localhost";
        let listener = listener::bind_reusable_on(addrs.port(me.index()), loopback)?;
        listener.set_nonblocking(true)?;
        let (waker, wake) = UnixStream::pair()?;
        waker.set_nonblocking(true)?;
        wake.set_nonblocking(true)?;
        let (tx, rx) = mpsc::channel();
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queues: (0..n).map(|_| VecDeque::new()).collect(),
                up: vec![false; n],
                polling: false,
                shutdown: false,
            }),
            waker,
            counters: Counters::default(),
        });
        let now = Instant::now();
        let io = Reactor {
            me: me.index(),
            addrs,
            shared: Arc::clone(&shared),
            chaos: chaos.clone(),
            tx,
            listener: Some(listener),
            accept_rest: None,
            wake,
            conns: Vec::new(),
            dials: (0..me.index())
                .map(|_| Dial {
                    at: Some(now),
                    backoff: BACKOFF_MIN,
                })
                .collect(),
            installed_seq: vec![0; n],
            accepted: 0,
            stopping: false,
        };
        // Detached: a drain waits on chaos holds and on peers' windows,
        // which dropping a mesh must not.
        thread::Builder::new()
            .name(format!("netd-io-{}", me.index()))
            .spawn(move || io.run())?;
        Ok(Mesh {
            me,
            shared,
            rx,
            held: RefCell::new(None),
            chaos,
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
    /// duplicated with forward jitter. The batch is appended under one
    /// lock, taken at its first queued frame and held to the end of the
    /// batch, and the I/O thread is woken at most once, after.
    pub fn send_all(&self, frames: impl IntoIterator<Item = (ProcessId, Arc<[u8]>)>) {
        let counters = &self.shared.counters;
        let mut locked: Option<MutexGuard<'_, State>> = None;
        for (to, frame) in frames {
            assert_ne!(to, self.me, "self-sends never reach the mesh");
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
            let st = locked.get_or_insert_with(|| self.shared.lock());
            match dup {
                None => st.push(to.index(), frame, not_before, counters),
                Some(dup) => {
                    st.push(to.index(), Arc::clone(&frame), not_before, counters);
                    st.push(to.index(), frame, Some(dup), counters);
                }
            }
        }
        if let Some(st) = locked {
            self.shared.wake(st);
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
        self.shared.lock().up.iter().filter(|up| **up).count()
    }

    /// The peers with no live connection installed, in id order.
    pub fn unconnected(&self) -> Vec<ProcessId> {
        let st = self.shared.lock();
        (0..st.up.len())
            .filter(|&j| j != self.me.index() && !st.up[j])
            .map(ProcessId::new)
            .collect()
    }

    /// What the I/O thread and the queues have done so far.
    pub fn counters(&self) -> MeshCounters {
        let c = &self.shared.counters;
        MeshCounters {
            socket_writes: c.socket_writes.load(Ordering::Relaxed),
            frames_written: c.frames_written.load(Ordering::Relaxed),
            queue_dropped: c.queue_dropped.load(Ordering::Relaxed),
            io_wakes: c.io_wakes.load(Ordering::Relaxed),
            chunks_received: c.chunks_received.load(Ordering::Relaxed),
            frames_received: c.frames_received.load(Ordering::Relaxed),
        }
    }

    /// Tells the I/O thread to wind down, and returns at once: the thread
    /// stops reading, accepting and dialing, drains each live
    /// connection's queue (chaos holds respected), then exits, and the
    /// sockets close with it.
    pub fn shutdown(&self) {
        let mut st = self.shared.lock();
        st.shutdown = true;
        self.shared.wake(st);
    }
}

impl Drop for Mesh {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Moves the releasable run at the head of `queue` into `batch`: every
/// frame up to the first one whose chaos release instant is still ahead,
/// or [`MAX_BATCH_BYTES`] — at least the head frame, unless it is held.
fn take_run(queue: &mut VecDeque<QueuedFrame>, batch: &mut Vec<QueuedFrame>) {
    let mut bytes = 0;
    while let Some(head) = queue.front() {
        let full = !batch.is_empty() && bytes + head.bytes.len() > MAX_BATCH_BYTES;
        if full || head.held_for().is_some() {
            break;
        }
        bytes += head.bytes.len();
        batch.push(queue.pop_front().expect("checked non-empty"));
    }
}

/// What one of the I/O thread's connections is for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Role {
    /// This process's dial to the peer, not yet connected.
    Dialing(usize),
    /// Accepted, waiting for its hello until `deadline`; `seq` is its
    /// accept order.
    Hello { seq: u64, deadline: Instant },
    /// The peer's installed connection: read, and written from its queue.
    Live(usize),
    /// An accepted connection that a newer one from the same peer
    /// superseded: read until it closes — the frames it still carries are
    /// real — but never written.
    Stale(usize),
}

/// One socket of the I/O thread, with its read buffer and, on a live
/// link, the batch in flight. What the per-frame guarantees rest on:
///
/// * **FIFO through a hold.** A batch ends before a held frame; at the
///   head of the queue it blocks the queue until its release instant
///   (which bounds the `poll` wait), like real TCP through a partition.
/// * **At-most-once after hand-off.** `written` counts the bytes the
///   kernel accepted. When the connection dies, exactly the frames not
///   fully written go back to the head of the queue, in order, for the
///   next connection; a frame the peer may already have parsed is never
///   resent. The peer's partial frame dies with the socket, so there is
///   no resync issue.
/// * **Tears.** Under a chaos runtime every frame is offered to
///   [`ChaosRuntime::tear_len`] once, in queue order, as its batch is
///   assembled. A torn frame ends the batch: the whole frames before it
///   go out, then a strict prefix of it, then the socket is shut — and
///   the byte accounting requeues the *full* frame and everything behind
///   it, so the reconnect path (not the chaos layer) restores delivery.
struct Conn {
    stream: TcpStream,
    role: Role,
    /// Bytes read and not yet handed out.
    buf: FrameBuf,
    /// The batch in flight, in queue order (empty when idle) ...
    batch: Vec<QueuedFrame>,
    /// ... its wire bytes, cut short by a tear ...
    wire: Vec<u8>,
    /// ... and how many of them the kernel has taken.
    written: usize,
    /// The batch ends in a torn frame: once `wire` is out, the connection
    /// is shut.
    torn: bool,
    /// The last write fell short: wait for writability.
    blocked: bool,
    /// Found dead this pass; removed at its end.
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream, role: Role) -> Conn {
        Conn {
            stream,
            role,
            buf: FrameBuf::new(),
            batch: Vec::new(),
            wire: Vec::new(),
            written: 0,
            torn: false,
            blocked: false,
            dead: false,
        }
    }

    /// The `poll` events this connection waits for.
    fn interest(&self, stopping: bool) -> i16 {
        match self.role {
            Role::Dialing(_) => POLLOUT,
            Role::Live(_) => {
                let read = if stopping { 0 } else { POLLIN };
                read | if self.blocked { POLLOUT } else { 0 }
            }
            Role::Hello { .. } | Role::Stale(_) => POLLIN,
        }
    }

    /// Gives the batch in flight on the link to `to` one non-blocking
    /// write, concatenating it first if it is new. A write that falls
    /// short waits for writability; a failed one, and a torn batch once
    /// it is out, leave the connection dead.
    fn write(&mut self, to: usize, chaos: Option<&ChaosRuntime>, counters: &Counters) {
        if self.wire.is_empty() {
            for frame in &self.batch {
                match chaos.and_then(|c| c.tear_len(ProcessId::new(to), frame.bytes.len())) {
                    None => self.wire.extend_from_slice(&frame.bytes),
                    Some(cut) => {
                        self.wire.extend_from_slice(&frame.bytes[..cut]);
                        self.torn = true;
                        break;
                    }
                }
            }
        }
        match self.stream.write(&self.wire[self.written..]) {
            Ok(0) => self.dead = true,
            Ok(k) => {
                self.written += k;
                Counters::add(&counters.socket_writes, 1);
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
            Err(_) => self.dead = true,
        }
        if self.dead || self.written < self.wire.len() {
            self.blocked = !self.dead;
        } else if self.torn {
            // Deliberate mid-frame tear: the strict prefix is out, now
            // condemn the connection.
            let _ = self.stream.shutdown(Shutdown::Both);
            self.dead = true;
        } else {
            Counters::add(&counters.frames_written, self.batch.len());
            self.batch.clear();
            self.written = 0;
            if self.wire.len() > MAX_BATCH_BYTES {
                // An oversized head frame: don't keep its buffer around.
                self.wire = Vec::new();
            } else {
                self.wire.clear();
            }
        }
    }

    /// Ends the batch in flight: the frames the kernel took whole are
    /// gone for good, and the rest go back to the head of `queue`, in
    /// order.
    fn requeue(&mut self, queue: &mut VecDeque<QueuedFrame>, counters: &Counters) {
        let mut end = 0;
        let sent = self
            .batch
            .iter()
            .take_while(|frame| {
                end += frame.bytes.len();
                end <= self.written
            })
            .count();
        Counters::add(&counters.frames_written, sent);
        for frame in self.batch.drain(sent..).rev() {
            queue.push_front(frame);
        }
        self.batch.clear();
        self.wire.clear();
        (self.written, self.torn, self.blocked) = (0, false, false);
    }
}

/// The dial schedule of one lower-id peer.
struct Dial {
    /// When to dial next; `None` while a dial is pending or its link lives.
    at: Option<Instant>,
    backoff: Duration,
}

/// The mesh's I/O thread: every socket of the mesh, and the loop that
/// polls them.
struct Reactor {
    me: usize,
    addrs: AddressTable,
    shared: Arc<Shared>,
    chaos: Option<Arc<ChaosRuntime>>,
    tx: Sender<Chunk>,
    /// Dropped at shutdown: nothing more is accepted.
    listener: Option<TcpListener>,
    /// After an accept fails for a reason other than an empty queue (out
    /// of fds, say) the listener rests until then, so a lasting error
    /// cannot spin the loop, and a passing one cannot end accepting.
    accept_rest: Option<Instant>,
    /// The receiving end of the wake socket.
    wake: UnixStream,
    conns: Vec<Conn>,
    /// Indexed by peer id; only the lower ids are dialed.
    dials: Vec<Dial>,
    /// Per peer, the accept order of the newest accepted connection
    /// installed (see [`Reactor::identify`]).
    installed_seq: Vec<u64>,
    /// Connections accepted so far: the next one's accept order. Starts
    /// at 0, the "nothing installed yet" floor.
    accepted: u64,
    /// Shut down: only the live links are left, draining.
    stopping: bool,
}

impl Reactor {
    /// The loop: handle what the last `poll` reported, start due dials,
    /// write, then wait in `poll` — unless a live link still has frames to
    /// take, or the mesh is shut down and drained, when the thread exits.
    fn run(mut self) {
        // The wake socket, the listener (a negative fd, which `poll` skips,
        // once it is gone or resting), then the connections in order.
        let mut fds: Vec<PollFd> = Vec::new();
        loop {
            let shutdown = {
                let mut st = self.shared.lock();
                st.polling = false;
                st.shutdown
            };
            if shutdown && !self.stopping {
                self.stopping = true;
                self.listener = None;
                self.conns.retain(|c| matches!(c.role, Role::Live(_)));
            } else if !fds.is_empty() {
                self.handle(&fds);
            }
            let now = Instant::now();
            self.dial_due(now);
            for c in &mut self.conns {
                c.dead |= matches!(c.role, Role::Hello { deadline, .. } if deadline <= now);
            }
            self.flush();
            // After the writes, not only before them: a drain can end here.
            let Some(timeout) = self.before_poll() else {
                return;
            };
            let listen = match &self.listener {
                Some(l) if self.accept_rest.is_none_or(|at| at <= Instant::now()) => l.as_raw_fd(),
                _ => -1,
            };
            let socket = |fd, events| PollFd {
                fd,
                events,
                revents: 0,
            };
            fds.clear();
            fds.push(socket(self.wake.as_raw_fd(), POLLIN));
            fds.push(socket(listen, POLLIN));
            fds.extend(
                self.conns
                    .iter()
                    .map(|c| socket(c.stream.as_raw_fd(), c.interest(self.stopping))),
            );
            listener::wait(&mut fds, timeout).expect("poll on the mesh's sockets");
        }
    }

    /// Acts on what `poll` reported: reads, finished dials, writability,
    /// new connections and wake bytes. Then removes the dead connections.
    fn handle(&mut self, fds: &[PollFd]) {
        for (i, fd) in fds[2..].iter().enumerate() {
            let ready = fd.revents;
            if ready == 0 {
                continue;
            }
            if ready & POLLOUT != 0 {
                self.conns[i].blocked = false;
            }
            match self.conns[i].role {
                Role::Dialing(peer) => self.dialed(i, peer),
                // A shut-down mesh reads no more, but a hung-up link
                // would report itself on every poll.
                Role::Live(_) if self.stopping => {
                    self.conns[i].dead |= ready & (POLLERR | POLLHUP) != 0
                }
                _ if ready & (POLLIN | POLLERR | POLLHUP) != 0 => self.read(i),
                _ => {}
            }
        }
        if fds[1].revents != 0 {
            self.accept();
        }
        if fds[0].revents != 0 {
            while matches!((&self.wake).read(&mut [0; 64]), Ok(k) if k > 0) {}
        }
        self.reap();
    }

    /// Starts every dial that is due.
    fn dial_due(&mut self, now: Instant) {
        if self.stopping {
            return;
        }
        for peer in 0..self.dials.len() {
            if self.dials[peer].at.is_some_and(|at| at <= now) {
                self.dials[peer].at = None;
                match self.dial(peer) {
                    Ok(stream) => self.conns.push(Conn::new(stream, Role::Dialing(peer))),
                    Err(_) => self.dial_failed(peer, now),
                }
            }
        }
    }

    /// A non-blocking dial to `peer`'s listener (its first IPv4 address:
    /// listeners bind IPv4). A host name is resolved here, on the I/O
    /// thread; an address literal resolves without a lookup.
    fn dial(&self, peer: usize) -> io::Result<TcpStream> {
        let addr = (self.addrs.host(peer), self.addrs.port(peer))
            .to_socket_addrs()?
            .find_map(|addr| match addr {
                SocketAddr::V4(v4) => Some(v4),
                SocketAddr::V6(_) => None,
            })
            .ok_or_else(|| io::Error::new(ErrorKind::AddrNotAvailable, "no IPv4 address"))?;
        listener::connect_nonblocking(addr)
    }

    /// Schedules the next dial to `peer` one backoff from `now`, and
    /// doubles the backoff (up to [`BACKOFF_MAX`]).
    fn dial_failed(&mut self, peer: usize, now: Instant) {
        let dial = &mut self.dials[peer];
        dial.at = Some(now + dial.backoff);
        dial.backoff = (dial.backoff * 2).min(BACKOFF_MAX);
    }

    /// A dial has ended: once the hello is out the connection is `peer`'s
    /// link, else it is dead.
    fn dialed(&mut self, i: usize, peer: usize) {
        let c = &mut self.conns[i];
        let hello = hello_frame(self.me);
        let _ = c.stream.set_nodelay(true);
        let up = matches!(c.stream.take_error(), Ok(None))
            && matches!(c.stream.write(&hello), Ok(k) if k == hello.len());
        if !up {
            c.dead = true;
            return;
        }
        c.role = Role::Live(peer);
        self.dials[peer].backoff = BACKOFF_MIN;
        self.shared.lock().up[peer] = true;
    }

    /// Admits every connection waiting on the listener, stamped with its
    /// accept order; each waits for its hello.
    fn accept(&mut self) {
        let Some(listener) = &self.listener else {
            return;
        };
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    self.accepted += 1;
                    let role = Role::Hello {
                        seq: self.accepted,
                        deadline: Instant::now() + Duration::from_secs(5),
                    };
                    self.conns.push(Conn::new(stream, role));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.accept_rest = Some(Instant::now() + BACKOFF_MIN);
                    return;
                }
            }
        }
    }

    /// One read of connection `i`, then: an accepted connection's hello,
    /// if this read completed it; every whole frame the read completed on
    /// a peer's link, to the event loop as one chunk. End of stream, a
    /// failed read and a corrupt length prefix (once the frames ahead of
    /// it are sent) leave the connection dead: framing resynchronizes by
    /// reconnecting, never in-stream.
    fn read(&mut self, i: usize) {
        let c = &mut self.conns[i];
        match c.buf.read_from(&mut c.stream) {
            Ok(0) => c.dead = true,
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
            Err(_) => c.dead = true,
        }
        if let Role::Hello { seq, .. } = c.role {
            self.identify(i, seq);
        }
        let c = &mut self.conns[i];
        let (Role::Live(from) | Role::Stale(from)) = c.role else {
            return;
        };
        let counters = &self.shared.counters;
        loop {
            match c.buf.take_run() {
                Ok(Some(run)) => {
                    Counters::add(&counters.chunks_received, 1);
                    Counters::add(&counters.frames_received, run.len());
                    // A dropped mesh takes the frames with it.
                    let from = ProcessId::new(from);
                    let _ = self.tx.send(Chunk { from, run });
                }
                Ok(None) => return, // torn tail: read more
                Err(_) => {
                    c.dead = true;
                    return;
                }
            }
        }
    }

    /// Parses accepted connection `i`'s hello from its own buffer (the
    /// frames behind it stay there) and installs the connection as the
    /// sender's link — unless a connection accepted after it already is.
    /// Hellos can complete out of accept order, and a stale connection
    /// (torn while its replacement was already in the accept queue) that
    /// installed last would clobber the live link, then leave the peer
    /// with no link when its end came: a one-way ghost link. So the newest
    /// in accept order wins; a refused connection is still read to its
    /// end, and an installed one's predecessor is superseded, with its
    /// unsent frames back in the queue. A bogus hello, or one from an id
    /// that does not dial this process, condemns the connection.
    fn identify(&mut self, i: usize, seq: u64) {
        let c = &mut self.conns[i];
        let from = match c.buf.next_frame() {
            Ok(None) => return, // wait for more bytes
            Ok(Some(frame)) => hello_sender(&frame),
            Err(_) => None,
        };
        // Only higher ids dial this process, and only cluster members.
        let Some(from) = from.filter(|from| (self.me + 1..self.addrs.len()).contains(from)) else {
            c.dead = true;
            return;
        };
        if seq <= self.installed_seq[from] {
            c.role = Role::Stale(from);
            return;
        }
        self.installed_seq[from] = seq;
        let mut st = self.shared.lock();
        st.up[from] = true;
        if let Some(old) = self.conns.iter_mut().find(|c| c.role == Role::Live(from)) {
            old.requeue(&mut st.queues[from], &self.shared.counters);
            old.role = Role::Stale(from);
        }
        self.conns[i].role = Role::Live(from);
    }

    /// Takes a run for every idle live link, then gives every live link
    /// with a batch in flight one write ([`Conn::write`]).
    fn flush(&mut self) {
        {
            let mut st = self.shared.lock();
            for c in &mut self.conns {
                if let Role::Live(peer) = c.role {
                    if c.batch.is_empty() && !c.dead {
                        take_run(&mut st.queues[peer], &mut c.batch);
                    }
                }
            }
        }
        let chaos = self.chaos.as_deref();
        for c in &mut self.conns {
            if let Role::Live(peer) = c.role {
                if !c.batch.is_empty() && !c.blocked && !c.dead {
                    c.write(peer, chaos, &self.shared.counters);
                }
            }
        }
        self.reap();
    }

    /// Removes the dead connections. A live link's unsent frames go back
    /// to the head of its queue and its peer is down; a lower-id peer is
    /// redialed at once after a live link dies, one backoff later after a
    /// dial fails.
    fn reap(&mut self) {
        let mut i = 0;
        while i < self.conns.len() {
            if !self.conns[i].dead {
                i += 1;
                continue;
            }
            let mut c = self.conns.swap_remove(i);
            match c.role {
                Role::Live(peer) => {
                    let mut st = self.shared.lock();
                    c.requeue(&mut st.queues[peer], &self.shared.counters);
                    st.up[peer] = false;
                    drop(st);
                    if let Some(dial) = self.dials.get_mut(peer) {
                        dial.at = Some(Instant::now());
                    }
                }
                Role::Dialing(peer) => self.dial_failed(peer, Instant::now()),
                Role::Hello { .. } | Role::Stale(_) => {}
            }
        }
    }

    /// Under the lock, what to do next: `None` once the mesh is shut down
    /// and every live link has drained (the thread exits); else how long
    /// `poll` may wait (`None`: until something happens). The wait is zero
    /// while a live link has a releasable frame it has not taken, and
    /// bounded by the first chaos hold, dial and hello deadline; for any
    /// longer wait `polling` is set under the same lock, so a `send_all`
    /// from here on writes a wake byte.
    fn before_poll(&mut self) -> Option<Option<Duration>> {
        let now = Instant::now();
        let mut wait: Option<Duration> = None;
        let mut until = |at: Instant| {
            let left = at.saturating_duration_since(now);
            wait = Some(wait.map_or(left, |w| w.min(left)));
        };
        if !self.stopping {
            self.dials.iter().filter_map(|d| d.at).for_each(&mut until);
        }
        self.accept_rest.filter(|at| *at > now).map(&mut until);
        let mut st = self.shared.lock();
        let mut drained = true;
        for c in &self.conns {
            match c.role {
                Role::Hello { deadline, .. } => until(deadline),
                Role::Live(_) if !c.batch.is_empty() => drained = false,
                Role::Live(peer) => match st.queues[peer].front().map(QueuedFrame::held_for) {
                    None => {}
                    Some(None) => return Some(Some(Duration::ZERO)),
                    Some(Some(hold)) => {
                        drained = false;
                        until(now + hold);
                    }
                },
                Role::Dialing(_) | Role::Stale(_) => {}
            }
        }
        if self.stopping && drained {
            return None;
        }
        if st.shutdown && !self.stopping {
            return Some(Some(Duration::ZERO));
        }
        st.polling = true;
        Some(wait)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::encode_frame;
    use crate::listener::free_loopback_addrs;

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

    /// Polls until the I/O thread has accounted for `frames` frames (the
    /// receiver can see the last bytes before the counter moves).
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
        // 1 000 frames queue up before the peer exists, so the I/O thread
        // finds them all once the link is up.
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
        let frames = (0..5).map(|i| (encode_frame(1, i, b"x").into(), (i == 2).then_some(release)));
        queue_by_hand(&m1, 0, frames);
        let at = recv_in_order(&m0, 5);
        assert!(at[1] < release, "frames ahead of the hold are not delayed");
        assert!(at[2] >= release, "the held frame waits for its instant");
    }

    #[test]
    fn shutdown_drains_a_queued_frame_after_the_readers_stop() {
        // Once from the dialing side, once from the accepting side.
        for sender in [1, 0] {
            let (m0, m1) = polling_pair();
            let (from, to) = if sender == 1 { (&m1, &m0) } else { (&m0, &m1) };
            // Held for 500 ms, so the shutdown stops all reading while
            // the frame still waits in the queue.
            let release = Instant::now() + Duration::from_millis(500);
            let frame = encode_frame(1, 7, b"last").into();
            queue_by_hand(from, 1 - sender, [(frame, Some(release))]);
            from.shutdown();
            let d = to
                .recv_timeout(Duration::from_secs(10))
                .unwrap_or_else(|| panic!("process {sender}'s frame died with its readers"));
            assert_eq!((d.depth, &d.payload[..]), (StepDepth::new(7), &b"last"[..]));
        }
    }

    /// Appends frames with their release instants straight to `mesh`'s
    /// queue for `to`, as `send_all` does after a chaos verdict holds
    /// them, and wakes the I/O thread once.
    fn queue_by_hand(
        mesh: &Mesh,
        to: usize,
        frames: impl IntoIterator<Item = (Arc<[u8]>, Option<Instant>)>,
    ) {
        let mut st = mesh.shared.lock();
        for (frame, not_before) in frames {
            st.push(to, frame, not_before, &mesh.shared.counters);
        }
        mesh.shared.wake(st);
    }

    /// Builds a connected pair (process 1 dials process 0) and waits
    /// until `m1`'s I/O thread polls with an empty queue for process 0.
    fn polling_pair() -> (Mesh, Mesh) {
        let addrs = free_loopback_addrs(2).expect("free ports");
        let m1 = Mesh::with_net(ProcessId::new(1), addrs.clone(), None).expect("bind 1");
        let m0 = Mesh::with_net(ProcessId::new(0), addrs, None).expect("bind 0");
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let polling = {
                let st = m1.shared.lock();
                st.polling && st.up[0] && st.queues[0].is_empty()
            };
            if polling && m0.connected() == 1 {
                return (m0, m1);
            }
            assert!(Instant::now() < deadline, "the link never came up");
            thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn one_batch_to_a_polling_io_thread_is_one_wake_and_a_few_writes() {
        let (m0, m1) = polling_pair();
        let before = m1.counters();
        let frames = (0..500).map(|i| (ProcessId::new(0), encode_frame(1, i, &[7; 20]).into()));
        m1.send_all(frames);
        recv_in_order(&m0, 500);
        let after = counters_at(&m1, before.frames_written + 500);
        assert_eq!(after.frames_written - before.frames_written, 500);
        assert_eq!(after.io_wakes - before.io_wakes, 1, "{after:?}");
        // 500 × 29 bytes fit one MAX_BATCH_BYTES batch; short writes may
        // split it, but not per frame.
        let writes = after.socket_writes - before.socket_writes;
        assert!((1..=4).contains(&writes), "{writes} writes: {after:?}");
    }

    #[test]
    fn one_batch_reaches_the_event_loop_in_a_few_chunks() {
        let (m0, m1) = polling_pair();
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
    fn bursts_against_a_polling_io_thread_lose_no_wake_up() {
        const FRAMES: u32 = 20_000;
        let (m0, m1) = polling_pair();
        let before = m1.counters();
        // Bursts of 1–64 frames; after each, at random, no pause, a pause
        // of up to 255 µs, or a wait until everything sent so far has
        // arrived. The I/O thread is caught polling, mid-write and about
        // to poll, in every order; a wake-up lost behind a wait is a
        // hang, since nothing else would wake the thread.
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
        let wakes =
            counters_at(&m1, before.frames_written + u64::from(FRAMES)).io_wakes - before.io_wakes;
        assert!(wakes <= bursts, "{wakes} wakes for {bursts} bursts");
        assert!(
            wakes * 10 < u64::from(FRAMES),
            "{wakes} wakes for {FRAMES} frames"
        );
    }

    /// Each peer's queued frame bytes, in queue order.
    fn queued_bytes(mesh: &Mesh) -> Vec<Vec<Arc<[u8]>>> {
        let st = mesh.shared.lock();
        (0..st.queues.len())
            .filter(|&j| j != mesh.me.index())
            .map(|j| st.queues[j].iter().map(|f| Arc::clone(&f.bytes)).collect())
            .collect()
    }

    #[test]
    fn a_batch_draws_the_same_chaos_verdicts_as_one_by_one_sends() {
        use dex_harness::runner::Placement;
        use dex_harness::spec::{ChaosSpec, RunSpec};
        // Process 6 is the f = 1 budget process, so its links drop; every
        // link duplicates. No peer is up, so the queues keep everything:
        // the peers' port is 0, which refuses every dial, so no listener
        // of a test running alongside can take their frames.
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
                let port = free_loopback_addrs(1).expect("a free port").port(0);
                let table = format!("{}127.0.0.1:{port}", "127.0.0.1:0,".repeat(6));
                let addrs = AddressTable::parse(&table).expect("address table");
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
        // Once with the hello in the same write (the frames are parsed
        // from the buffer the hello came in), once after it.
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
        // m0 has written on this connection.
        let mut raw = TcpStream::connect((addrs.host(0), addrs.port(0))).expect("dial");
        raw.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        raw.write_all(&crate::frame::hello_frame(1)).expect("hello");
        let frame = encode_frame(1, 0, b"x");
        m0.send(ProcessId::new(1), frame.clone().into());
        let mut got = vec![0; frame.len()];
        raw.read_exact(&mut got).expect("the frame arrives");
        assert_eq!(got, frame);
        // An impossible length prefix makes m0 condemn the connection. The
        // dialer must see it close — and redial — rather than wait on a
        // socket the idle write side keeps open.
        raw.write_all(&0u32.to_le_bytes()).expect("corrupt prefix");
        match raw.read(&mut [0; 1]) {
            Ok(0) => {}
            Err(e) if e.kind() == ErrorKind::ConnectionReset => {}
            other => panic!("the connection stayed open: {other:?}"),
        }
    }

    #[test]
    fn a_dial_that_cannot_complete_does_not_stall_the_endpoint() {
        // Process 0's address is a listener nobody accepts on, its accept
        // queue filled with connections, so it drops further SYNs: a dial
        // to it stays pending, and a blocking `connect` would hang.
        let addrs = free_loopback_addrs(3).expect("free ports");
        let stuck = crate::listener::bind_reusable(addrs.port(0)).expect("bind 0");
        let target = stuck.local_addr().expect("local addr");
        let mut queued = Vec::new();
        loop {
            match TcpStream::connect_timeout(&target, Duration::from_millis(200)) {
                Ok(s) => queued.push(s),
                Err(e) => {
                    assert_eq!(e.kind(), ErrorKind::TimedOut, "{e}");
                    break;
                }
            }
            assert!(queued.len() <= 1 << 16, "the accept queue never filled");
        }
        // Processes 1 and 2 both dial 0 first; between them, 2 dials 1.
        let m1 = Mesh::with_net(ProcessId::new(1), addrs.clone(), None).expect("bind 1");
        let m2 = Mesh::with_net(ProcessId::new(2), addrs, None).expect("bind 2");
        for (from, to) in [(&m1, &m2), (&m2, &m1)] {
            let me = if std::ptr::eq(from, &m1) { 1 } else { 2 };
            let frame = encode_frame(1, me, b"past the stuck dial");
            from.send(ProcessId::new(3 - me as usize), frame.into());
            let d = to
                .recv_timeout(Duration::from_secs(10))
                .expect("frames flow while a dial is pending");
            assert_eq!(
                (d.from, d.depth),
                (ProcessId::new(me as usize), StepDepth::new(me))
            );
        }
        assert_eq!(m1.unconnected(), vec![ProcessId::new(0)]);
        assert_eq!(m2.unconnected(), vec![ProcessId::new(0)]);
        drop(queued);
    }
}
