//! Length-prefixed binary framing.
//!
//! Every message on the wire is one frame:
//!
//! ```text
//! +----------------+-----------+--------+----------------+
//! | len: u32 LE    | ver: u8   | ty: u8 | payload        |
//! +----------------+-----------+--------+----------------+
//! ```
//!
//! `len` counts everything after itself (version + type + payload), so a
//! reader can skip unknown frames wholesale. The version byte is checked
//! on every frame: a mismatch is a hard protocol error, which keeps the
//! format honestly versioned instead of accidentally frozen.

use std::io::{self, Read, Write};

/// Wire-format version. Bump on any incompatible frame or payload change.
/// v2: multiplexed subscriptions — the `Attach` frame joins an existing
/// subscription's fan-out group over any connection.
pub const PROTOCOL_VERSION: u8 = 2;

/// Upper bound on a single frame's length field. Anything larger is
/// treated as a malformed (or hostile) frame rather than an allocation.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// Frame discriminator. The numeric values are the wire encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameType {
    /// Client → server: one SQL statement (snapshot or continuous).
    Query = 1,
    /// Server → client: a relation (snapshot results, statement acks).
    Rows = 2,
    /// Server → client: a continuous query was registered.
    Subscribed = 3,
    /// Server → client, unsolicited: a window closed for a subscription.
    WindowResult = 4,
    /// Client → server: a batch of tuples for one stream.
    Ingest = 5,
    /// Client → server: advance a stream's event time; echoed as the ack.
    Heartbeat = 6,
    /// Server → client: the request failed (payload: message).
    Error = 7,
    /// Either direction: orderly end of the connection.
    Goodbye = 8,
    /// Client → server: join an existing subscription's fan-out group
    /// (payload: the primary's `u64` id). Answered with `Subscribed`
    /// carrying a fresh id; window results for both ids are encoded from
    /// the same CQ output, serialized once.
    Attach = 11,
    /// Client → server: subscribe to a derived stream's window results,
    /// replaying archived windows with close strictly greater than the
    /// given position first (payload: `str` stream, `i64` from; `from ==
    /// i64::MIN` means live-only). The federation bridge's resume frame:
    /// answered with `Subscribed`, then the replayed `WindowResult`s in
    /// close order, then live windows. Additive — v2 peers that predate
    /// it never send it, so the version byte stays at 2.
    SubscribeFrom = 12,
}

impl FrameType {
    /// Decode a wire byte.
    pub fn from_u8(b: u8) -> Option<FrameType> {
        Some(match b {
            1 => FrameType::Query,
            2 => FrameType::Rows,
            3 => FrameType::Subscribed,
            4 => FrameType::WindowResult,
            5 => FrameType::Ingest,
            6 => FrameType::Heartbeat,
            7 => FrameType::Error,
            8 => FrameType::Goodbye,
            11 => FrameType::Attach,
            12 => FrameType::SubscribeFrom,
            _ => return None,
        })
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What the payload means.
    pub ty: FrameType,
    /// Opaque payload; see [`crate::wire`] for the per-type encodings.
    pub payload: Vec<u8>,
}

impl Frame {
    /// Frame with a payload.
    pub fn new(ty: FrameType, payload: Vec<u8>) -> Frame {
        Frame { ty, payload }
    }

    /// Payload-less frame (Goodbye).
    pub fn bare(ty: FrameType) -> Frame {
        Frame::new(ty, Vec::new())
    }

    /// Serialize onto `w`. Does not flush.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let len = self.payload.len() as u64 + 2;
        if len > MAX_FRAME_LEN as u64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("frame of {len} bytes exceeds MAX_FRAME_LEN"),
            ));
        }
        w.write_all(&(len as u32).to_le_bytes())?;
        w.write_all(&[PROTOCOL_VERSION, self.ty as u8])?;
        w.write_all(&self.payload)
    }

    /// Read one frame. Returns `Ok(None)` on clean EOF at a frame
    /// boundary; mid-frame EOF, a bad version byte, an unknown type, or
    /// an implausible length are `InvalidData` errors.
    pub fn read_from<R: Read>(r: &mut R) -> io::Result<Option<Frame>> {
        let mut len_buf = [0u8; 4];
        if !read_exact_or_eof(r, &mut len_buf)? {
            return Ok(None);
        }
        let len = u32::from_le_bytes(len_buf);
        if !(2..=MAX_FRAME_LEN).contains(&len) {
            return Err(malformed(format!("implausible frame length {len}")));
        }
        let mut header = [0u8; 2];
        r.read_exact(&mut header)?;
        if header[0] != PROTOCOL_VERSION {
            return Err(malformed(format!(
                "protocol version {} (this build speaks {PROTOCOL_VERSION})",
                header[0]
            )));
        }
        let ty = FrameType::from_u8(header[1])
            .ok_or_else(|| malformed(format!("unknown frame type {}", header[1])))?;
        let mut payload = vec![0u8; len as usize - 2];
        r.read_exact(&mut payload)?;
        Ok(Some(Frame { ty, payload }))
    }
}

/// Incremental, resumable frame decoder.
///
/// [`Frame::read_from`] assumes it owns the stream until a frame
/// completes: any `WouldBlock`/`TimedOut` mid-frame loses the bytes
/// already consumed and permanently desyncs the connection. This decoder
/// is the fix — bytes are buffered as they arrive ([`FrameDecoder::extend`]
/// or [`FrameDecoder::read_frame`]) and a frame is produced only once it
/// is complete, so a read that dies with a timeout (or `WouldBlock`, on
/// the nonblocking reactor path) resumes exactly where it stopped.
///
/// Validation is eager: an implausible length, wrong version byte, or
/// unknown frame type is reported as soon as those bytes are buffered,
/// before the (possibly enormous) payload is waited for.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted opportunistically.
    start: usize,
}

impl FrameDecoder {
    /// Empty decoder.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Buffer freshly received bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact before growing: everything before `start` is dead.
        if self.start > 0 && (self.start == self.buf.len() || self.start >= 4096) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet decoded into a frame.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// True when a frame is partially buffered — the peer has sent a
    /// length prefix (or part of one) whose frame has not completed yet.
    pub fn mid_frame(&self) -> bool {
        self.buffered() > 0
    }

    /// Decode the next complete frame out of the buffer. `Ok(None)`
    /// means more bytes are needed; errors mean the stream is corrupt
    /// (same taxonomy as [`Frame::read_from`]).
    pub fn next_frame(&mut self) -> io::Result<Option<Frame>> {
        let avail = self.buffered();
        if avail < 4 {
            return Ok(None);
        }
        let at = |i: usize| self.buf[self.start + i];
        let len = u32::from_le_bytes([at(0), at(1), at(2), at(3)]);
        if !(2..=MAX_FRAME_LEN).contains(&len) {
            return Err(malformed(format!("implausible frame length {len}")));
        }
        if avail >= 5 && at(4) != PROTOCOL_VERSION {
            return Err(malformed(format!(
                "protocol version {} (this build speaks {PROTOCOL_VERSION})",
                at(4)
            )));
        }
        if avail >= 6 {
            FrameType::from_u8(at(5))
                .ok_or_else(|| malformed(format!("unknown frame type {}", at(5))))?;
        }
        let total = 4 + len as usize;
        if avail < total {
            return Ok(None);
        }
        // `len >= 2` puts the type byte inside a complete frame, so this
        // re-parse cannot fail where the eager check above passed.
        let ty = FrameType::from_u8(at(5))
            .ok_or_else(|| malformed(format!("unknown frame type {}", at(5))))?;
        let payload = self.buf[self.start + 6..self.start + total].to_vec();
        self.start += total;
        Ok(Some(Frame { ty, payload }))
    }

    /// Read from `r` until one frame completes. `Ok(None)` is a clean
    /// EOF at a frame boundary; EOF mid-frame is an error. A
    /// `WouldBlock`/`TimedOut`/`Interrupted`-free error propagates, and —
    /// the point of this type — so do `WouldBlock` and `TimedOut`, with
    /// every byte already received still buffered: call again to resume.
    pub fn read_frame<R: Read>(&mut self, r: &mut R) -> io::Result<Option<Frame>> {
        loop {
            if let Some(frame) = self.next_frame()? {
                return Ok(Some(frame));
            }
            let mut chunk = [0u8; 8192];
            match r.read(&mut chunk) {
                Ok(0) if self.mid_frame() => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "eof mid-frame",
                    ))
                }
                Ok(0) => return Ok(None),
                Ok(n) => self.extend(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

fn malformed(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// `read_exact`, except a clean EOF before the first byte yields
/// `Ok(false)` instead of an error.
fn read_exact_or_eof<R: Read>(r: &mut R, buf: &mut [u8]) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof mid-frame",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut buf = Vec::new();
        Frame::new(FrameType::Query, b"select 1".to_vec())
            .write_to(&mut buf)
            .unwrap();
        Frame::bare(FrameType::Goodbye).write_to(&mut buf).unwrap();
        let mut r = &buf[..];
        let f1 = Frame::read_from(&mut r).unwrap().unwrap();
        assert_eq!(f1.ty, FrameType::Query);
        assert_eq!(f1.payload, b"select 1");
        let f2 = Frame::read_from(&mut r).unwrap().unwrap();
        assert_eq!(f2.ty, FrameType::Goodbye);
        assert!(f2.payload.is_empty());
        assert!(Frame::read_from(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn rejects_wrong_version() {
        let buf = [2u8, 0, 0, 0, 99, 1];
        let err = Frame::read_from(&mut &buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("version 99"), "{err}");
    }

    #[test]
    fn rejects_unknown_type_and_huge_length() {
        // 9 and 10 were the retired metrics request and reply.
        for ty in [9, 10, 200] {
            let buf = [2u8, 0, 0, 0, PROTOCOL_VERSION, ty];
            assert!(Frame::read_from(&mut &buf[..]).is_err(), "type {ty}");
        }
        let buf = u32::MAX.to_le_bytes();
        assert!(Frame::read_from(&mut &buf[..]).is_err());
    }

    #[test]
    fn mid_frame_eof_is_an_error() {
        let mut buf = Vec::new();
        Frame::new(FrameType::Rows, vec![7; 32])
            .write_to(&mut buf)
            .unwrap();
        buf.truncate(10);
        assert!(Frame::read_from(&mut &buf[..]).is_err());
    }

    #[test]
    fn decoder_assembles_frames_fed_one_byte_at_a_time() {
        let mut bytes = Vec::new();
        Frame::new(FrameType::Query, b"select 1".to_vec())
            .write_to(&mut bytes)
            .unwrap();
        Frame::bare(FrameType::Goodbye)
            .write_to(&mut bytes)
            .unwrap();
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for b in bytes {
            dec.extend(&[b]);
            while let Some(f) = dec.next_frame().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].ty, FrameType::Query);
        assert_eq!(got[0].payload, b"select 1");
        assert_eq!(got[1].ty, FrameType::Goodbye);
        assert!(!dec.mid_frame(), "no bytes left over");
    }

    #[test]
    fn decoder_rejects_bad_header_before_payload_arrives() {
        let mut dec = FrameDecoder::new();
        // Length says 1 MiB payload follows, but the version byte is
        // already wrong: reject now, not a megabyte from now.
        let len = (1024 * 1024u32).to_le_bytes();
        dec.extend(&[len[0], len[1], len[2], len[3], 99]);
        let err = dec.next_frame().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("version 99"), "{err}");

        let mut dec = FrameDecoder::new();
        dec.extend(&u32::MAX.to_le_bytes());
        assert!(dec.next_frame().is_err(), "implausible length");

        let mut dec = FrameDecoder::new();
        dec.extend(&[8, 0, 0, 0, PROTOCOL_VERSION, 200]);
        assert!(dec.next_frame().is_err(), "unknown type");
    }

    /// A reader that yields one byte, then `WouldBlock`, alternately —
    /// the shape of a slow writer dribbling into a socket with a read
    /// timeout. The old `Frame::read_from` restarts from scratch after
    /// every timeout and desyncs; the decoder must resume.
    struct Dribble<'a> {
        bytes: &'a [u8],
        pos: usize,
        starve: bool,
    }

    impl Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.starve = !self.starve;
            if self.starve {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "timeout tick"));
            }
            if self.pos == self.bytes.len() {
                return Ok(0);
            }
            buf[0] = self.bytes[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    #[test]
    fn decoder_resumes_across_read_timeouts_without_desync() {
        let mut bytes = Vec::new();
        Frame::new(FrameType::Query, b"select 42".to_vec())
            .write_to(&mut bytes)
            .unwrap();
        Frame::new(FrameType::Heartbeat, vec![3; 16])
            .write_to(&mut bytes)
            .unwrap();
        let mut r = Dribble {
            bytes: &bytes,
            pos: 0,
            starve: false,
        };
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        let mut timeouts = 0;
        while got.len() < 2 {
            match dec.read_frame(&mut r) {
                Ok(Some(f)) => got.push(f),
                Ok(None) => panic!("unexpected EOF"),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => timeouts += 1,
                Err(e) => panic!("{e}"),
            }
        }
        assert!(timeouts >= bytes.len(), "every byte cost one timeout tick");
        assert_eq!(got[0].payload, b"select 42");
        assert_eq!(got[1].ty, FrameType::Heartbeat);
        assert_eq!(got[1].payload, vec![3; 16]);
        // Clean EOF at the boundary after both frames.
        loop {
            match dec.read_frame(&mut r) {
                Ok(None) => break,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                other => panic!("expected clean EOF, got {other:?}"),
            }
        }
    }
}
