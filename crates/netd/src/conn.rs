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
//!   dedicated writer thread per peer flushes the queue whenever a live
//!   stream is installed. Frames share one allocation across the fan-out
//!   (`Arc<[u8]>`), so a multicast clones nothing.
//!
//! Frames that were handed to a connection that later died are *lost*,
//! not retried: netd offers the same at-most-once delivery the simulator
//! models, and the consensus/replication layers own retransmission
//! semantics (catch-up, flush ticks).

use crate::chaos::ChaosRuntime;
use crate::frame::{hello_sender, FrameBuf};
use dex_harness::spec::AddressTable;
use dex_simnet::Verdict;
use dex_types::{ProcessId, StepDepth};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Initial dial-retry backoff.
pub const BACKOFF_MIN: Duration = Duration::from_millis(20);
/// Backoff ceiling: a downed peer is probed at least this often.
pub const BACKOFF_MAX: Duration = Duration::from_secs(1);
/// Per-peer outbound queue cap, in frames. Beyond it the *oldest* frames
/// are dropped first: fresher consensus traffic supersedes stale.
pub const MAX_QUEUE: usize = 1 << 16;

/// One message received from a peer, as the event loop consumes it.
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

/// One queued outbound frame, with its earliest-release instant when the
/// chaos layer held it (partition or crash window). The queue stays FIFO
/// — a held head blocks later frames, which is exactly what a real TCP
/// connection through a partitioned network does.
struct QueuedFrame {
    bytes: Arc<[u8]>,
    not_before: Option<Instant>,
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
}

struct Peer {
    state: Mutex<PeerState>,
    cv: Condvar,
}

impl Peer {
    fn new() -> Arc<Peer> {
        Arc::new(Peer {
            state: Mutex::new(PeerState {
                queue: VecDeque::new(),
                stream: None,
                generation: 0,
                accept_seq: 0,
                shutdown: false,
            }),
            cv: Condvar::new(),
        })
    }

    /// Installs a fresh connection, superseding any previous one.
    fn install(&self, stream: TcpStream) -> u64 {
        let mut st = self.state.lock().expect("peer lock");
        st.generation += 1;
        st.stream = Some(stream);
        self.cv.notify_all();
        st.generation
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
        self.cv.notify_all();
        Some(st.generation)
    }

    /// Clears the stream if `generation` still names the live connection.
    fn uninstall(&self, generation: u64) {
        let mut st = self.state.lock().expect("peer lock");
        if st.generation == generation {
            st.stream = None;
        }
    }

    fn enqueue(&self, frame: Arc<[u8]>, not_before: Option<Instant>) {
        let mut st = self.state.lock().expect("peer lock");
        if st.queue.len() >= MAX_QUEUE {
            st.queue.pop_front();
        }
        st.queue.push_back(QueuedFrame {
            bytes: frame,
            not_before,
        });
        self.cv.notify_all();
    }

    /// Begins teardown. The stream is left installed so the writer can
    /// drain frames already accepted by `send` — dropping them here
    /// would lose traffic that raced a graceful exit.
    fn shutdown(&self) {
        let mut st = self.state.lock().expect("peer lock");
        st.shutdown = true;
        self.cv.notify_all();
    }
}

/// The full-duplex link set of one process. See the module docs.
pub struct Mesh {
    me: ProcessId,
    peers: Vec<Option<Arc<Peer>>>,
    rx: Receiver<Delivery>,
    shutdown: Arc<AtomicBool>,
    chaos: Option<Arc<ChaosRuntime>>,
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
        let mut peers: Vec<Option<Arc<Peer>>> = Vec::with_capacity(n);
        for j in 0..n {
            if j == me.index() {
                peers.push(None);
                continue;
            }
            let peer = Peer::new();
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
            shutdown,
            chaos,
        })
    }

    /// Queues an encoded frame for `to`. Sending to a downed peer buffers
    /// (bounded); sending to self is a caller bug — the event loop keeps
    /// self-traffic local and never encodes it. With a chaos runtime
    /// installed the frame is routed through its verdict first: it may be
    /// dropped outright, held until a partition heals or the recipient's
    /// crash window ends, or duplicated with forward jitter.
    pub fn send(&self, to: ProcessId, frame: Arc<[u8]>) {
        assert_ne!(to, self.me, "self-sends never reach the mesh");
        let Some(peer) = &self.peers[to.index()] else {
            return;
        };
        let Some(chaos) = &self.chaos else {
            return peer.enqueue(frame, None);
        };
        if let Verdict::Deliver {
            at,
            held_partition,
            held_crash,
            dup_at,
        } = chaos.outbound(to)
        {
            let not_before = (held_partition || held_crash).then(|| chaos.instant_of(at));
            peer.enqueue(Arc::clone(&frame), not_before);
            if let Some(dup) = dup_at {
                peer.enqueue(frame, Some(chaos.instant_of(dup)));
            }
        }
    }

    /// Waits up to `timeout` for the next delivery.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Delivery> {
        self.rx.recv_timeout(timeout).ok()
    }

    /// How many peers currently have a live connection installed.
    pub fn connected(&self) -> usize {
        self.peers
            .iter()
            .flatten()
            .filter(|p| p.state.lock().expect("peer lock").stream.is_some())
            .count()
    }

    /// Signals every mesh thread to wind down. Threads are detached and
    /// exit within one poll interval; sockets close with the process.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        for peer in self.peers.iter().flatten() {
            peer.shutdown();
        }
    }
}

impl Drop for Mesh {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Writer thread: flushes one peer's queue whenever a stream is live and
/// the head frame's chaos release time (if any) has been reached. Under a
/// chaos runtime it also executes scheduled mid-frame connection tears —
/// writing a strict prefix of the frame, killing the socket, and
/// requeueing the *full* frame at the head, so the reconnect path (not
/// the chaos layer) is what restores delivery: no frame is lost, and the
/// peer's torn prefix dies with the condemned connection, so none is
/// duplicated either.
fn spawn_writer(to: ProcessId, peer: Arc<Peer>, chaos: Option<Arc<ChaosRuntime>>) {
    thread::spawn(move || loop {
        let (frame, release, stream, generation) = {
            let mut st = peer.state.lock().expect("peer lock");
            loop {
                // On shutdown, drain what a live stream can still take;
                // exit once the queue is empty or the connection is gone.
                if st.shutdown && (st.queue.is_empty() || st.stream.is_none()) {
                    return;
                }
                if st.stream.is_some() && !st.queue.is_empty() {
                    // A held head blocks the queue until its release
                    // instant (FIFO, like real TCP through a partition).
                    let hold = st.queue.front().and_then(|f| {
                        f.not_before
                            .map(|at| at.saturating_duration_since(Instant::now()))
                    });
                    match hold {
                        Some(wait) if !wait.is_zero() => {
                            let (next, _) = peer.cv.wait_timeout(st, wait).expect("peer lock");
                            st = next;
                            continue;
                        }
                        _ => break,
                    }
                }
                st = peer.cv.wait(st).expect("peer lock");
            }
            let frame = st.queue.pop_front().expect("checked non-empty");
            let stream = st.stream.as_ref().expect("checked some").try_clone();
            (frame.bytes, frame.not_before, stream, st.generation)
        };
        let tear = chaos.as_ref().and_then(|c| c.tear_len(to, frame.len()));
        let ok = match (stream, tear) {
            (Ok(mut s), None) => s.write_all(&frame).is_ok(),
            (Ok(mut s), Some(cut)) => {
                // Deliberate mid-frame tear: send a strict prefix, then
                // condemn the connection. Counts as a write failure below,
                // so the full frame is requeued for the next incarnation.
                let _ = s.write_all(&frame[..cut]);
                let _ = s.flush();
                let _ = s.shutdown(Shutdown::Both);
                false
            }
            (Err(_), _) => false,
        };
        if !ok {
            // The connection died mid-frame: drop it (the peer's frame
            // buffer dies with the socket, so no resync issue) and put
            // the unsent frame back for the next incarnation.
            let mut st = peer.state.lock().expect("peer lock");
            if st.generation == generation {
                st.stream = None;
            }
            st.queue.push_front(QueuedFrame {
                bytes: frame,
                not_before: release,
            });
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
    tx: Sender<Delivery>,
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
            read_frames(stream, to, &tx, &shutdown, FrameBuf::new());
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
    tx: Sender<Delivery>,
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
                        read_frames(stream, from, &tx, &shutdown, leftover);
                        peer.uninstall(generation);
                    }
                    None => {
                        // Superseded by a newer accepted connection: never
                        // touch the slot, but drain whatever frames this
                        // stale (already torn) connection still buffers.
                        read_frames(stream, from, &tx, &shutdown, leftover);
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
    let mut chunk = [0u8; 256];
    loop {
        if let Ok(Some(frame)) = buf.next_frame() {
            let sender = hello_sender(&frame)?;
            let _ = s.set_read_timeout(None);
            return Some((sender, buf));
        }
        if Instant::now() >= deadline {
            return None;
        }
        match s.read(&mut chunk) {
            Ok(0) | Err(_) => return None,
            Ok(k) => buf.extend(&chunk[..k]),
        }
    }
}

/// Reads frames off an established connection until it dies (or shutdown),
/// forwarding each as a [`Delivery`]. A corrupt frame prefix condemns the
/// connection — framing resynchronizes by reconnecting, never in-stream.
fn read_frames(
    mut stream: TcpStream,
    from: ProcessId,
    tx: &Sender<Delivery>,
    shutdown: &AtomicBool,
    mut buf: FrameBuf,
) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut chunk = [0u8; 64 * 1024];
    // Drain frames the identify step may already have buffered, then the
    // socket.
    loop {
        loop {
            match buf.next_frame() {
                Ok(Some(frame)) => {
                    let delivery = Delivery {
                        from,
                        depth: StepDepth::new(frame.depth),
                        class: frame.class,
                        payload: frame.payload,
                    };
                    if tx.send(delivery).is_err() {
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
        match stream.read(&mut chunk) {
            Ok(0) => return, // orderly close
            Ok(k) => buf.extend(&chunk[..k]),
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
}
