//! Length-prefixed framing for the netd TCP links.
//!
//! One frame per logical message:
//!
//! ```text
//! [u32 LE total_len][u8 class][u32 LE depth][payload …]
//!                   └──────── total_len bytes ────────┘
//! ```
//!
//! `class` tags the payload's [`MsgClass`] (plus the out-of-band `0xFF`
//! hello used during connection setup), `depth` carries the causal step
//! depth on the wire — exactly as the simulator and the threaded runtime
//! stamp their envelopes — and `payload` is the
//! [`WireCodec`](crate::codec::WireCodec) encoding of the message.
//!
//! [`FrameBuf`] is the receive-side accumulator. Like the replication
//! crate's WAL codec it is **torn-tail tolerant**: a partial frame at the
//! end of the buffered bytes is not an error, just "wait for more". Only
//! a structurally impossible prefix (zero/oversized length) is
//! [`FrameError::Corrupt`], which condemns the connection — framing never
//! resynchronizes inside a stream, it reconnects. A reader takes every
//! complete frame at once ([`FrameBuf::take_run`]) as a [`FrameRun`],
//! whose frames are then parsed in place ([`FrameRef`]).

use dex_simnet::MsgClass;
use std::io::{self, Read};

/// Frames larger than this are rejected as corrupt: no legitimate DEX or
/// replication message gets anywhere near 16 MiB, so an insane length
/// prefix is a torn/hostile stream, not a big batch.
pub const MAX_FRAME: u32 = 16 << 20;

/// Frame header size on the wire: the `u32` length prefix itself.
const LEN_PREFIX: usize = 4;
/// Bytes of the length-counted region before the payload: class + depth.
const FRAME_OVERHEAD: usize = 1 + 4;

/// Class byte for the connection-setup hello frame (never a message).
pub const CLASS_HELLO: u8 = 0xFF;
/// Magic payload of a hello frame.
pub const HELLO_MAGIC: &[u8; 4] = b"DEXD";

/// Maps a payload's [`MsgClass`] to its wire tag byte. The batch entry
/// count is not carried — receivers recover it from the decoded payload.
pub fn class_byte(class: MsgClass) -> u8 {
    match class {
        MsgClass::Init => 0,
        MsgClass::Echo => 1,
        MsgClass::Batch(_) => 2,
        MsgClass::Other => 3,
    }
}

/// One decoded frame.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Frame {
    /// The class tag byte ([`class_byte`] output, or [`CLASS_HELLO`]).
    pub class: u8,
    /// Causal step depth (sender id for hello frames).
    pub depth: u32,
    /// The [`WireCodec`](crate::codec::WireCodec)-encoded message.
    pub payload: Vec<u8>,
}

/// Why a stream stopped yielding frames.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FrameError {
    /// Structurally impossible bytes: a length prefix of zero, shorter
    /// than the fixed header, or beyond [`MAX_FRAME`]. The connection is
    /// beyond recovery and must be dropped.
    Corrupt,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "corrupt frame prefix")
    }
}

/// Appends one frame to `out`, the payload written in place by `body`:
/// the header goes down with a length placeholder, `body` encodes
/// straight after it, and the length is patched once the payload's size
/// is known. The one definition of the wire layout — [`encode_frame`] and
/// the endpoint's send path both come through here.
pub(crate) fn write_frame(
    out: &mut Vec<u8>,
    class: u8,
    depth: u32,
    body: impl FnOnce(&mut Vec<u8>),
) {
    let start = out.len();
    out.extend_from_slice(&[0; LEN_PREFIX]);
    out.push(class);
    out.extend_from_slice(&depth.to_le_bytes());
    body(out);
    let total = out.len() - start - LEN_PREFIX;
    debug_assert!(total <= MAX_FRAME as usize);
    out[start..start + LEN_PREFIX].copy_from_slice(&(total as u32).to_le_bytes());
}

/// Encodes one frame around an already-encoded payload.
pub fn encode_frame(class: u8, depth: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(LEN_PREFIX + FRAME_OVERHEAD + payload.len());
    write_frame(&mut out, class, depth, |out| out.extend_from_slice(payload));
    out
}

/// The hello frame process `me` sends right after connecting, so the
/// accepting side learns who dialed before any protocol traffic flows.
pub fn hello_frame(me: usize) -> Vec<u8> {
    encode_frame(CLASS_HELLO, me as u32, HELLO_MAGIC)
}

/// Checks a decoded frame is a well-formed hello and returns the sender.
pub fn hello_sender(frame: &Frame) -> Option<usize> {
    (frame.class == CLASS_HELLO && frame.payload == HELLO_MAGIC).then_some(frame.depth as usize)
}

/// Receive-side frame accumulator: push raw socket bytes in, pull whole
/// frames out. A torn tail (anything short of a complete frame) yields
/// `Ok(None)` and is retried once more bytes arrive.
///
/// # Examples
///
/// ```
/// use dex_netd::frame::{encode_frame, FrameBuf};
///
/// let wire = encode_frame(3, 2, b"hi");
/// let mut buf = FrameBuf::new();
/// buf.extend(&wire[..5]); // torn mid-header
/// assert_eq!(buf.next_frame().unwrap(), None);
/// buf.extend(&wire[5..]);
/// let frame = buf.next_frame().unwrap().unwrap();
/// assert_eq!((frame.class, frame.depth, &frame.payload[..]), (3, 2, &b"hi"[..]));
/// ```
#[derive(Default, Debug)]
pub struct FrameBuf {
    /// Storage, zero-initialised up to its length so a socket can read
    /// straight into the part past `end`.
    buf: Vec<u8>,
    /// Start of the bytes not yet parsed into a frame.
    pos: usize,
    /// End of the bytes received so far.
    end: usize,
}

/// Smallest spare room [`FrameBuf::read_from`] offers a read.
const READ_MIN: usize = 4096;
/// Largest: a read that fills its room doubles the storage up to this.
const READ_MAX: usize = 64 * 1024;

impl FrameBuf {
    /// An empty accumulator.
    pub fn new() -> Self {
        FrameBuf::default()
    }

    /// Makes room for `want` more bytes past `end`: reclaims the consumed
    /// prefix first, so a long-lived connection doesn't accrete every
    /// frame it ever parsed, and grows the storage only when the unparsed
    /// tail itself leaves too little.
    fn make_room(&mut self, want: usize) {
        if self.pos == self.end {
            self.pos = 0;
            self.end = 0;
        }
        if self.buf.len() - self.end < want && self.pos > 0 {
            self.buf.copy_within(self.pos..self.end, 0);
            self.end -= self.pos;
            self.pos = 0;
        }
        if self.buf.len() - self.end < want {
            let len = (self.end + want).max(self.buf.len() * 2);
            self.buf.resize(len, 0);
        }
    }

    /// Appends raw bytes read from the socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.make_room(bytes.len());
        self.buf[self.end..self.end + bytes.len()].copy_from_slice(bytes);
        self.end += bytes.len();
    }

    /// Does one `read` from `src` straight into the accumulator's own
    /// spare room — no intermediate chunk, no copy — and returns what the
    /// read returned (`Ok(0)` is end of stream). The room starts at 4 KiB
    /// and doubles, up to 64 KiB, each time a read fills it, so an idle
    /// link holds a page and a busy one still drains its socket in large
    /// reads.
    pub fn read_from(&mut self, src: &mut impl Read) -> io::Result<usize> {
        self.make_room(READ_MIN);
        let room = self.buf.len() - self.end;
        let k = src.read(&mut self.buf[self.end..])?;
        self.end += k;
        if k == room && self.buf.len() < READ_MAX {
            self.buf.resize((self.buf.len() * 2).min(READ_MAX), 0);
        }
        Ok(k)
    }

    /// Bytes buffered but not yet parsed into a frame.
    pub fn pending(&self) -> usize {
        self.end - self.pos
    }

    /// Parses the next complete frame, `Ok(None)` when the tail is torn.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        let Some((frame, len)) = parse(&self.buf[self.pos..self.end])? else {
            return Ok(None); // torn tail — wait for more bytes
        };
        let frame = frame.to_frame();
        self.pos += len;
        Ok(Some(frame))
    }

    /// Takes every complete frame buffered, as one run of wire bytes in
    /// one allocation, and leaves the torn tail behind. Each length
    /// prefix is checked as [`Self::next_frame`] checks it; a corrupt one
    /// ends the run, so the frames ahead of it are still handed out and
    /// the next call returns the error. `Ok(None)` when no frame is
    /// complete.
    pub fn take_run(&mut self) -> Result<Option<FrameRun>, FrameError> {
        let avail = &self.buf[self.pos..self.end];
        let (mut len, mut frames) = (0, 0);
        loop {
            match parse(&avail[len..]) {
                Ok(Some((_, k))) => (len, frames) = (len + k, frames + 1),
                Ok(None) => break,
                Err(e) if frames == 0 => return Err(e),
                Err(_) => break,
            }
        }
        if frames == 0 {
            return Ok(None);
        }
        // Power-of-two capacities, so runs fall into a handful of
        // allocator size classes. Runs are freed on the event loop's
        // thread, and glibc parks up to seven freed blocks of each size
        // class in the freeing thread's cache: exact-length runs, one
        // class per length, kept ≈ 1.5 MB parked in a seven-replica
        // process (`netlog-n7-w8` peak RSS 11.5 → 9.5–10 MB).
        let mut bytes = Vec::with_capacity(len.next_power_of_two());
        bytes.extend_from_slice(&avail[..len]);
        let run = FrameRun {
            bytes,
            pos: 0,
            frames,
        };
        self.pos += len;
        Ok(Some(run))
    }
}

/// One frame read in place: the payload borrows the bytes it arrived in.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FrameRef<'a> {
    /// The class tag byte ([`class_byte`] output, or [`CLASS_HELLO`]).
    pub class: u8,
    /// Causal step depth (sender id for hello frames).
    pub depth: u32,
    /// The [`WireCodec`](crate::codec::WireCodec)-encoded message.
    pub payload: &'a [u8],
}

impl FrameRef<'_> {
    /// An owned copy of the frame.
    pub fn to_frame(self) -> Frame {
        Frame {
            class: self.class,
            depth: self.depth,
            payload: self.payload.to_vec(),
        }
    }
}

/// Parses the frame at the start of `bytes` and returns it with its wire
/// length; `Ok(None)` when the bytes end inside it.
fn parse(bytes: &[u8]) -> Result<Option<(FrameRef<'_>, usize)>, FrameError> {
    if bytes.len() < LEN_PREFIX {
        return Ok(None);
    }
    let total = u32::from_le_bytes(bytes[..LEN_PREFIX].try_into().expect("4 bytes"));
    if total < FRAME_OVERHEAD as u32 || total > MAX_FRAME {
        return Err(FrameError::Corrupt);
    }
    let len = LEN_PREFIX + total as usize;
    if bytes.len() < len {
        return Ok(None);
    }
    let body = &bytes[LEN_PREFIX..len];
    let frame = FrameRef {
        class: body[0],
        depth: u32::from_le_bytes(body[1..FRAME_OVERHEAD].try_into().expect("4 bytes")),
        payload: &body[FRAME_OVERHEAD..],
    };
    Ok(Some((frame, len)))
}

/// The whole frames one socket read completed, as [`FrameBuf::take_run`]
/// hands them out: taken front to back, each decoded in place.
#[derive(Debug)]
pub struct FrameRun {
    bytes: Vec<u8>,
    /// Start of the first frame not yet taken.
    pos: usize,
    /// Frames not yet taken.
    frames: usize,
}

impl FrameRun {
    /// The next frame, borrowed from the run; `None` once all are taken.
    pub fn next_frame(&mut self) -> Option<FrameRef<'_>> {
        let (frame, len) = parse(&self.bytes[self.pos..]).expect("a run holds checked prefixes")?;
        self.pos += len;
        self.frames -= 1;
        Some(frame)
    }

    /// Frames not yet taken.
    pub fn len(&self) -> usize {
        self.frames
    }

    /// Whether every frame has been taken.
    pub fn is_empty(&self) -> bool {
        self.frames == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_through_byte_dribble() {
        let frames = [
            encode_frame(0, 1, b"alpha"),
            encode_frame(2, 7, &[]),
            encode_frame(3, 2, &[0xAB; 300]),
        ];
        let wire: Vec<u8> = frames.iter().flatten().copied().collect();
        // Feed one byte at a time: every prefix short of a full frame is
        // a torn tail, never an error.
        let mut buf = FrameBuf::new();
        let mut got = Vec::new();
        for b in wire {
            buf.extend(&[b]);
            while let Some(f) = buf.next_frame().expect("no corruption") {
                got.push(f);
            }
        }
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].payload, b"alpha");
        assert_eq!(
            got[1],
            Frame {
                class: 2,
                depth: 7,
                payload: vec![]
            }
        );
        assert_eq!(got[2].payload.len(), 300);
        assert_eq!(buf.pending(), 0);
    }

    #[test]
    fn garbage_length_prefix_is_corrupt() {
        // Length below the fixed header.
        let mut buf = FrameBuf::new();
        buf.extend(&2u32.to_le_bytes());
        assert_eq!(buf.next_frame(), Err(FrameError::Corrupt));
        // Length beyond the sanity bound.
        let mut buf = FrameBuf::new();
        buf.extend(&(MAX_FRAME + 1).to_le_bytes());
        assert_eq!(buf.next_frame(), Err(FrameError::Corrupt));
    }

    #[test]
    fn a_run_hands_out_the_frames_ahead_of_a_corrupt_prefix() {
        let mut buf = FrameBuf::new();
        buf.extend(&encode_frame(1, 0, b"first"));
        buf.extend(&encode_frame(2, 1, b"second"));
        buf.extend(&0u32.to_le_bytes());
        let mut run = buf.take_run().expect("whole frames first").expect("a run");
        assert_eq!(run.len(), 2);
        let first = run.next_frame().expect("first").to_frame();
        assert_eq!((first.depth, &first.payload[..]), (0, &b"first"[..]));
        let second = run.next_frame().expect("second");
        assert_eq!((second.depth, second.payload), (1, &b"second"[..]));
        assert_eq!(run.next_frame(), None);
        assert_eq!(buf.take_run().map(|_| ()), Err(FrameError::Corrupt));
    }

    #[test]
    fn short_read_then_completion_yields_the_frame() {
        let wire = encode_frame(1, 9, b"payload");
        let mut buf = FrameBuf::new();
        buf.extend(&wire[..wire.len() - 1]);
        assert_eq!(buf.next_frame(), Ok(None));
        buf.extend(&wire[wire.len() - 1..]);
        let f = buf.next_frame().unwrap().unwrap();
        assert_eq!((f.class, f.depth), (1, 9));
        assert_eq!(f.payload, b"payload");
    }

    /// Drains `src` through `read_from`, parsing as it goes.
    fn read_all(buf: &mut FrameBuf, mut src: impl Read, got: &mut Vec<Frame>) {
        while buf.read_from(&mut src).expect("in-memory read") > 0 {
            while let Some(f) = buf.next_frame().expect("no corruption") {
                got.push(f);
            }
        }
    }

    /// A reader that hands out at most `step` bytes per `read`.
    struct Dribble<'a>(&'a [u8], usize);

    impl Read for Dribble<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let k = self.1.min(out.len()).min(self.0.len());
            out[..k].copy_from_slice(&self.0[..k]);
            self.0 = &self.0[k..];
            Ok(k)
        }
    }

    #[test]
    fn read_from_yields_the_same_frames_at_every_split() {
        let payloads: [&[u8]; 3] = [b"alpha", &[], &[0xAB; 300]];
        let wire: Vec<u8> = payloads
            .iter()
            .enumerate()
            .flat_map(|(i, p)| encode_frame(i as u8, 7 + i as u32, p))
            .collect();
        let check = |got: &[Frame]| {
            assert_eq!(got.len(), payloads.len());
            for (i, f) in got.iter().enumerate() {
                assert_eq!((f.class, f.depth), (i as u8, 7 + i as u32));
                assert_eq!(f.payload, payloads[i]);
            }
        };
        // Two reads, the stream torn at every byte offset between them.
        for cut in 0..=wire.len() {
            let (head, tail) = wire.split_at(cut);
            let (mut buf, mut got) = (FrameBuf::new(), Vec::new());
            read_all(&mut buf, head, &mut got);
            assert!(got.len() < payloads.len() || cut == wire.len());
            read_all(&mut buf, tail, &mut got);
            check(&got);
            assert_eq!(buf.pending(), 0);
        }
        // One byte per read: every prefix is a torn tail, never an error.
        let (mut buf, mut got) = (FrameBuf::new(), Vec::new());
        read_all(&mut buf, Dribble(&wire, 1), &mut got);
        check(&got);
    }

    /// What a reader hands the event loop after one read: every frame the
    /// read completed, in order, as one run.
    fn take_run(buf: &mut FrameBuf) -> Vec<Frame> {
        let Some(mut run) = buf.take_run().expect("no corruption") else {
            return Vec::new();
        };
        let mut frames = Vec::new();
        while let Some(f) = run.next_frame() {
            frames.push(f.to_frame());
        }
        // Nothing torn is left behind the last frame.
        assert_eq!(run.pos, run.bytes.len());
        assert!(!frames.is_empty() && run.is_empty());
        frames
    }

    #[test]
    fn runs_hand_out_the_next_frame_sequence_at_every_split() {
        let payloads: [&[u8]; 4] = [b"alpha", &[], &[0xAB; 300], b"omega"];
        let wire: Vec<u8> = payloads
            .iter()
            .enumerate()
            .flat_map(|(i, p)| encode_frame(i as u8, 7 + i as u32, p))
            .collect();
        let expected = {
            let mut buf = FrameBuf::new();
            buf.extend(&wire);
            take_run(&mut buf)
        };
        assert_eq!(expected.len(), payloads.len());
        // Three reads, the stream torn at every pair of byte offsets.
        for first in 0..=wire.len() {
            for second in first..=wire.len() {
                let (mut buf, mut got, mut fed) = (FrameBuf::new(), Vec::new(), 0);
                for cut in [first, second, wire.len()] {
                    let k = buf.read_from(&mut &wire[fed..cut]).expect("in-memory read");
                    assert_eq!(k, cut - fed);
                    fed = cut;
                    got.extend(take_run(&mut buf));
                    // A run takes every frame the reads completed and
                    // nothing torn: what it left is short of a frame.
                    let handed: usize = got
                        .iter()
                        .map(|f| LEN_PREFIX + FRAME_OVERHEAD + f.payload.len())
                        .sum();
                    assert_eq!(handed + buf.pending(), fed, "cut at {first}, {second}");
                    assert_eq!(buf.next_frame(), Ok(None), "cut at {first}, {second}");
                }
                assert_eq!(got, expected, "cut at {first}, {second}");
                assert_eq!(buf.pending(), 0);
            }
        }
    }

    #[test]
    fn read_from_grows_for_busy_links_and_oversized_frames() {
        // A frame larger than the largest read room, small frames around
        // it, and a source that always fills whatever room it is offered.
        let big = vec![0x5A; 3 * READ_MAX];
        let mut wire = Vec::new();
        for i in 0..200u32 {
            wire.extend_from_slice(&encode_frame(1, i, &i.to_le_bytes()));
        }
        wire.extend_from_slice(&encode_frame(2, 200, &big));
        wire.extend_from_slice(&encode_frame(1, 201, b"tail"));
        let (mut buf, mut got) = (FrameBuf::new(), Vec::new());
        read_all(&mut buf, &wire[..], &mut got);
        assert_eq!(got.len(), 202);
        assert!(got.iter().enumerate().all(|(i, f)| f.depth == i as u32));
        assert_eq!(got[200].payload, big);
        assert_eq!(got[201].payload, b"tail");
        assert_eq!(buf.pending(), 0);
    }

    #[test]
    fn hello_frames_identify_the_dialer() {
        let wire = hello_frame(4);
        let mut buf = FrameBuf::new();
        buf.extend(&wire);
        let f = buf.next_frame().unwrap().unwrap();
        assert_eq!(hello_sender(&f), Some(4));
        // A protocol frame is not a hello.
        let mut buf = FrameBuf::new();
        buf.extend(&encode_frame(0, 4, HELLO_MAGIC));
        assert_eq!(hello_sender(&buf.next_frame().unwrap().unwrap()), None);
    }
}
