//! Sockets the standard library cannot build: a listener with
//! `SO_REUSEADDR`, a non-blocking dial, and `poll(2)`.
//!
//! The kill-9 schedule respawns a child that must rebind the port its
//! previous incarnation owned. Connections accepted on a listening port
//! share that port as their local endpoint, and whichever side closes
//! first leaves a kernel `TIME_WAIT` entry that survives the process —
//! so a plain `TcpListener::bind` by the respawned child can fail with
//! `EADDRINUSE` for a minute. `SO_REUSEADDR` is the standard fix, but the
//! standard library does not expose it, so on Linux the socket is built
//! through a minimal `libc`-free FFI shim (the workspace vendors no libc
//! crate) and handed to [`TcpListener`] as a raw fd. Everywhere else the
//! plain bind is used and a fast respawn may have to retry.
//!
//! The mesh's one I/O thread (see [`crate::conn`]) must never block, so
//! it dials through the same shim: a `SOCK_NONBLOCK` socket whose
//! `connect` returns at once, completing later as writability. It waits
//! in `poll(2)`, declared here the same way.

use dex_harness::spec::AddressTable;
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};
use std::io;
use std::net::{SocketAddrV4, TcpListener, TcpStream};
use std::os::fd::RawFd;
use std::time::Duration;

/// Picks `n` loopback listen addresses that are free right now — the one
/// way single-host clusters (the `--cluster` parent, the benchmark-style
/// in-process tests) obtain the [`AddressTable`] their meshes bind.
///
/// Ports are probed upward from a random start inside `10000..32000`,
/// deliberately *below* the kernel's ephemeral range (32768+): while a
/// process is down (kill -9, a torn listener between proptest cases) its
/// peers keep redialling, and an outbound socket — theirs or anybody's —
/// auto-bound to an ephemeral port equal to the dead listener's would make
/// the respawn's bind fail with `AddrInUse`. Nothing auto-binds down here,
/// so a reserved port is only ever lost to another explicit binder, and
/// the random start keeps concurrent harnesses (parallel `cargo test`
/// binaries) out of each other's blocks without any shared state.
///
/// The probe listeners are dropped on return; callers re-bind through
/// [`bind_reusable_on`], which tolerates the `TIME_WAIT` a probe leaves.
pub fn free_loopback_addrs(n: usize) -> io::Result<AddressTable> {
    const LOW: u16 = 10_000;
    const SPAN: u16 = 22_000;
    let start = RandomState::new().build_hasher().finish() % u64::from(SPAN);
    let peers: Vec<String> = (0..SPAN)
        .map(|k| LOW + ((start + u64::from(k)) % u64::from(SPAN)) as u16)
        .filter(|port| bind_reusable(*port).is_ok())
        .take(n)
        .map(|port| format!("127.0.0.1:{port}"))
        .collect();
    if peers.len() < n {
        return Err(io::Error::new(
            io::ErrorKind::AddrInUse,
            format!("only {} of {n} loopback ports free", peers.len()),
        ));
    }
    AddressTable::parse(&peers.join(",")).map_err(io::Error::other)
}

/// Binds `127.0.0.1:port` for listening, with `SO_REUSEADDR` where the
/// platform shim supports it.
pub fn bind_reusable(port: u16) -> io::Result<TcpListener> {
    bind_reusable_on(port, true)
}

/// Binds `port` for listening on either the loopback interface
/// (`loopback = true`, the single-host default) or all interfaces
/// (`0.0.0.0`, required when an explicit address table spans hosts),
/// with `SO_REUSEADDR` where the platform shim supports it.
pub fn bind_reusable_on(port: u16, loopback: bool) -> io::Result<TcpListener> {
    let ip: [u8; 4] = if loopback {
        [127, 0, 0, 1]
    } else {
        [0, 0, 0, 0]
    };
    #[cfg(target_os = "linux")]
    {
        linux::bind_reuseaddr(port, ip)
    }
    #[cfg(not(target_os = "linux"))]
    {
        TcpListener::bind((std::net::Ipv4Addr::from(ip), port))
    }
}

/// Starts a TCP connection to `addr` without waiting for it: the stream
/// comes back at once, and the connection completes (or fails) later,
/// which `poll` reports as writability ([`POLLOUT`]); the outcome is then
/// [`TcpStream::take_error`]. Off Linux the dial blocks for at most
/// [`BACKOFF_MIN`](crate::conn::BACKOFF_MIN).
pub(crate) fn connect_nonblocking(addr: SocketAddrV4) -> io::Result<TcpStream> {
    #[cfg(target_os = "linux")]
    {
        linux::connect_nonblocking(addr)
    }
    #[cfg(not(target_os = "linux"))]
    {
        let stream = TcpStream::connect_timeout(&addr.into(), crate::conn::BACKOFF_MIN)?;
        stream.set_nonblocking(true)?;
        Ok(stream)
    }
}

/// `poll` event: readable (or, on a listener, a connection to accept).
pub(crate) const POLLIN: i16 = 0x1;
/// `poll` event: writable (or, on a dialing socket, the dial has ended).
pub(crate) const POLLOUT: i16 = 0x4;
/// `poll` event, always reported: an error is pending.
pub(crate) const POLLERR: i16 = 0x8;
/// `poll` event, always reported: both directions are shut.
pub(crate) const POLLHUP: i16 = 0x10;

/// `struct pollfd`.
#[repr(C)]
pub(crate) struct PollFd {
    pub fd: RawFd,
    pub events: i16,
    pub revents: i16,
}

#[cfg(target_os = "linux")]
type NfdsT = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type NfdsT = std::ffi::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: i32) -> i32;
}

/// Waits until one of `fds` is ready or `timeout` passes (`None`: no
/// timeout), and fills in each `revents`. A timeout is rounded up to
/// whole milliseconds, so a wait for an instant never returns before it.
/// A signal ends the wait early with no events, not an error.
pub(crate) fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<()> {
    let ms = timeout.map_or(-1, |t| {
        t.as_micros().div_ceil(1000).min(i32::MAX as u128) as i32
    });
    // SAFETY: `fds` is a live, exclusively borrowed slice of `pollfd`s and
    // `poll` writes only their `revents`, within its length.
    if unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, ms) } < 0 {
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
        fds.iter_mut().for_each(|fd| fd.revents = 0);
    }
    Ok(())
}

#[cfg(target_os = "linux")]
mod linux {
    use std::io;
    use std::net::{SocketAddrV4, TcpListener, TcpStream};
    use std::os::fd::{FromRawFd, RawFd};

    const AF_INET: i32 = 2;
    const SOCK_STREAM: i32 = 1;
    const SOCK_NONBLOCK: i32 = 0o4000;
    /// Close-on-exec at creation, so cluster children never inherit each
    /// other's listening sockets through `Command::spawn`.
    const SOCK_CLOEXEC: i32 = 0o2000000;
    const SOL_SOCKET: i32 = 1;
    const SO_REUSEADDR: i32 = 2;
    /// `connect` on a non-blocking socket: the dial goes on in the kernel.
    const EINPROGRESS: i32 = 115;

    /// `struct sockaddr_in` (fields in network byte order where the ABI
    /// says so).
    #[repr(C)]
    struct SockAddrIn {
        sin_family: u16,
        sin_port: u16,
        sin_addr: u32,
        sin_zero: [u8; 8],
    }

    impl SockAddrIn {
        fn new(ip: [u8; 4], port: u16) -> SockAddrIn {
            SockAddrIn {
                sin_family: AF_INET as u16,
                sin_port: port.to_be(),
                sin_addr: u32::from_be_bytes(ip).to_be(),
                sin_zero: [0; 8],
            }
        }
    }

    extern "C" {
        fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
        fn bind(fd: i32, addr: *const SockAddrIn, len: u32) -> i32;
        fn connect(fd: i32, addr: *const SockAddrIn, len: u32) -> i32;
        fn listen(fd: i32, backlog: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    fn last_error(fd: Option<RawFd>) -> io::Error {
        let err = io::Error::last_os_error();
        if let Some(fd) = fd {
            // SAFETY: `fd` came from a successful `socket` call above and
            // has not been handed to any owning wrapper yet.
            unsafe { close(fd) };
        }
        err
    }

    pub fn bind_reuseaddr(port: u16, ip: [u8; 4]) -> io::Result<TcpListener> {
        // SAFETY: plain syscall wrappers on owned values; the fd's
        // ownership moves linearly from `socket` either into
        // `TcpListener::from_raw_fd` or into `close` on the error paths.
        unsafe {
            let fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
            if fd < 0 {
                return Err(last_error(None));
            }
            let one: i32 = 1;
            if setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, 4) < 0 {
                return Err(last_error(Some(fd)));
            }
            let addr = SockAddrIn::new(ip, port);
            if bind(fd, &addr, core::mem::size_of::<SockAddrIn>() as u32) < 0 {
                return Err(last_error(Some(fd)));
            }
            if listen(fd, 128) < 0 {
                return Err(last_error(Some(fd)));
            }
            Ok(TcpListener::from_raw_fd(fd))
        }
    }

    pub fn connect_nonblocking(addr: SocketAddrV4) -> io::Result<TcpStream> {
        // SAFETY: as in `bind_reuseaddr`: the fd moves from `socket` into
        // `TcpStream::from_raw_fd` or into `close` on the error paths.
        unsafe {
            let fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
            if fd < 0 {
                return Err(last_error(None));
            }
            let sa = SockAddrIn::new(addr.ip().octets(), addr.port());
            if connect(fd, &sa, core::mem::size_of::<SockAddrIn>() as u32) < 0
                && io::Error::last_os_error().raw_os_error() != Some(EINPROGRESS)
            {
                return Err(last_error(Some(fd)));
            }
            Ok(TcpStream::from_raw_fd(fd))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    #[test]
    fn rebinding_after_drop_succeeds_immediately() {
        let port = free_loopback_addrs(1).expect("a free port").port(0);
        let first = bind_reusable(port).expect("first bind");
        // Open (and abruptly drop) a connection so the port has seen
        // traffic — the TIME_WAIT scenario a respawned child faces.
        let client = TcpStream::connect(("127.0.0.1", port)).expect("connect");
        let (mut accepted, _) = first.accept().expect("accept");
        accepted.write_all(b"x").expect("write");
        drop(accepted);
        let mut byte = [0u8; 1];
        let _ = client.try_clone().and_then(|mut c| c.read(&mut byte));
        drop(client);
        drop(first);
        let again = bind_reusable(port).expect("rebind with SO_REUSEADDR");
        assert_eq!(
            again.local_addr().expect("addr").port(),
            port,
            "same port reacquired"
        );
    }

    #[test]
    fn free_addrs_are_distinct_bindable_and_below_the_ephemeral_range() {
        let table = free_loopback_addrs(5).expect("five free ports");
        assert_eq!(table.len(), 5);
        let mut ports: Vec<u16> = (0..5).map(|i| table.port(i)).collect();
        let held: Vec<TcpListener> = ports
            .iter()
            .map(|p| bind_reusable(*p).expect("reserved port binds"))
            .collect();
        assert!(ports.iter().all(|p| (10_000..32_000).contains(p)));
        assert!((0..5).all(|i| table.host(i) == "127.0.0.1"));
        // A port somebody listens on is never handed out again.
        let more = free_loopback_addrs(5).expect("five more");
        assert!((0..5).all(|i| !ports.contains(&more.port(i))));
        drop(held);
        ports.sort_unstable();
        ports.dedup();
        assert_eq!(ports.len(), 5, "no port handed out twice");
    }
}
