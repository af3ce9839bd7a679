//! CRC-checked framing with deadlines.
//!
//! [`FramedStream`] is the one place frames touch the socket, for both the
//! client and the server. Protocol version 3 frames are
//! `u32 LE length | payload | u32 LE crc32(payload)` (the layout itself is
//! written and checked by [`crate::protocol`]; a frame leaves in one
//! vectored write); because the length field is validated before the
//! payload is read, a corrupted payload leaves framing synchronized — the
//! receiver consumes exactly one frame, reports [`CrcMismatch`](crate::protocol::CrcMismatch), and the
//! connection stays usable (the server answers a typed `BadFrame`, the
//! client re-sends the idempotent request).
//!
//! Server reads go through [`FramedStream::read_frame_deadline`], which
//! layers an idle timeout (no frame started — the reaper's trigger), a
//! mid-frame deadline (the slowloris stall killer), and drain polling over
//! the same loop.

use crate::net::Stream;
use crate::protocol::{verify_crc, write_frame, MAX_FRAME_BYTES};
use std::io::{self, Read};
use std::time::{Duration, Instant};

/// A [`Stream`] that speaks whole CRC-checked frames.
pub struct FramedStream {
    inner: Stream,
}

impl FramedStream {
    pub fn new(inner: Stream) -> Self {
        FramedStream { inner }
    }

    /// The underlying stream (timeout configuration).
    pub fn get_ref(&self) -> &Stream {
        &self.inner
    }

    /// Writes one frame (header, payload, CRC).
    pub fn write_frame(&mut self, payload: &[u8]) -> io::Result<()> {
        write_frame(&mut self.inner, payload)
    }

    /// Reads one frame, blocking without deadlines (client side: the
    /// daemon always answers or closes). `Ok(None)` = clean EOF at a
    /// frame boundary.
    pub fn read_frame(&mut self) -> io::Result<Option<Vec<u8>>> {
        self.read_frame_deadline(None, None, &|| true)
    }

    /// Reads one frame under the server's deadline regime. The underlying
    /// stream must have a short read timeout set (the poll tick); each
    /// tick re-checks:
    ///
    /// * `keep_waiting` false and no frame started → `Ok(None)` (drain);
    /// * `idle` elapsed with no frame started → `TimedOut` (reaper);
    /// * `mid` elapsed with a frame underway → `TimedOut` (stall killer —
    ///   a slowloris peer dribbling a frame cannot hold the slot).
    ///
    /// A frame in progress ignores `keep_waiting`: committed bytes are
    /// read to completion (or the mid-frame deadline) even during drain.
    pub fn read_frame_deadline(
        &mut self,
        idle: Option<Duration>,
        mid: Option<Duration>,
        keep_waiting: &dyn Fn() -> bool,
    ) -> io::Result<Option<Vec<u8>>> {
        let start = Instant::now();
        let mut hdr = [0u8; 4];
        let mut got = 0usize;
        while got < 4 {
            match self.inner.read(&mut hdr[got..]) {
                Ok(0) if got == 0 => return Ok(None),
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => got += n,
                Err(e) if is_poll_tick(&e) && got > 0 => stalled(mid, start)?,
                Err(e) if is_poll_tick(&e) => {
                    if !keep_waiting() {
                        return Ok(None);
                    }
                    if idle.is_some_and(|limit| start.elapsed() >= limit) {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "idle connection reaped",
                        ));
                    }
                }
                Err(e) => return Err(e),
            }
        }
        let len = u32::from_le_bytes(hdr);
        if len > MAX_FRAME_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame header declares {len} bytes (max {MAX_FRAME_BYTES})"),
            ));
        }
        let frame_start = Instant::now();
        let mut payload = vec![0u8; len as usize + 4];
        let mut got = 0usize;
        while got < payload.len() {
            match self.inner.read(&mut payload[got..]) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => got += n,
                Err(e) if is_poll_tick(&e) => stalled(mid, frame_start)?,
                Err(e) => return Err(e),
            }
        }
        let wire_crc = u32::from_le_bytes(payload[len as usize..].try_into().unwrap());
        payload.truncate(len as usize);
        verify_crc(&payload, wire_crc)?;
        Ok(Some(payload))
    }
}

/// `TimedOut` once a frame begun at `since` has outlived `mid`.
fn stalled(mid: Option<Duration>, since: Instant) -> io::Result<()> {
    match mid {
        Some(limit) if since.elapsed() >= limit => Err(io::Error::new(
            io::ErrorKind::TimedOut,
            "mid-frame stall deadline exceeded",
        )),
        _ => Ok(()),
    }
}

fn is_poll_tick(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{Addr, Listener};
    use crate::protocol::is_crc_mismatch;
    use std::io::Write;

    /// A connected loopback pair: the raw client socket, the framed server.
    fn pair() -> (Stream, FramedStream) {
        let (listener, bound) = Listener::bind(&Addr::parse("tcp:127.0.0.1:0").unwrap()).unwrap();
        let client = crate::net::connect(&bound).unwrap();
        let server = loop {
            if let Some(s) = listener.accept().unwrap() {
                break s;
            }
        };
        (client, FramedStream::new(server))
    }

    /// The bytes of one frame as it travels.
    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut wire = Vec::new();
        write_frame(&mut wire, payload).unwrap();
        wire
    }

    #[test]
    fn frames_roundtrip_and_crc_detects_tamper() {
        let (mut c, mut s) = pair();
        write_frame(&mut c, b"hello frames").unwrap();
        write_frame(&mut c, b"").unwrap();
        assert_eq!(
            s.read_frame().unwrap().as_deref(),
            Some(&b"hello frames"[..])
        );
        assert_eq!(s.read_frame().unwrap().as_deref(), Some(&b""[..]));

        // One payload byte flipped on the wire, the CRC untouched: the read
        // surfaces a CrcMismatch, not a garbled decode, and framing stays
        // in sync.
        let mut poisoned = frame(b"poisoned payload");
        poisoned[4 + 3] ^= 0x10;
        c.write_all(&poisoned).unwrap();
        let err = s.read_frame().unwrap_err();
        assert!(is_crc_mismatch(&err), "expected CrcMismatch, got {err}");
        write_frame(&mut c, b"clean again").unwrap();
        assert_eq!(
            s.read_frame().unwrap().as_deref(),
            Some(&b"clean again"[..])
        );
    }

    #[test]
    fn split_frames_reassemble() {
        let (mut c, mut s) = pair();
        let big = vec![0xabu8; 10_000];
        let wire = [frame(&big), frame(b"tail")].concat();
        // Dribbled in flushed chunks that cut headers, payloads and CRCs.
        let writer = std::thread::spawn(move || {
            for piece in wire.chunks(7) {
                c.write_all(piece).unwrap();
                c.flush().unwrap();
            }
        });
        assert_eq!(s.read_frame().unwrap().as_deref(), Some(&big[..]));
        assert_eq!(s.read_frame().unwrap().as_deref(), Some(&b"tail"[..]));
        writer.join().unwrap();
    }

    #[test]
    fn a_peer_vanishing_mid_frame_is_an_error() {
        let wire = frame(b"doomed");
        // Mid-header and mid-payload: the reader sees a short frame, never
        // a hang or a whole frame.
        for cut in [2, 4 + 3] {
            let (mut c, mut s) = pair();
            c.write_all(&wire[..cut]).unwrap();
            c.shutdown().unwrap();
            let err = s.read_frame().unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
    }

    #[test]
    fn mid_frame_deadline_times_out_a_stalled_peer() {
        let (mut c, mut s) = pair();
        s.get_ref()
            .set_read_timeout(Some(Duration::from_millis(5)))
            .unwrap();
        // Dribble a header and then stall: only the stall killer ends it.
        c.write_all(&8u32.to_le_bytes()).unwrap();
        c.write_all(b"ab").unwrap();
        c.flush().unwrap();
        let start = Instant::now();
        let err = s
            .read_frame_deadline(None, Some(Duration::from_millis(60)), &|| true)
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert!(
            start.elapsed() >= Duration::from_millis(55),
            "deadline fired early"
        );
        // Idle timeout: nothing sent at all.
        let err = s
            .read_frame_deadline(Some(Duration::from_millis(40)), None, &|| true)
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
    }
}
