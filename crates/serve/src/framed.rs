//! CRC-checked framing with deadlines and injected transport faults.
//!
//! [`FramedStream`] is the one place frames touch the socket, for both the
//! client and the server. Protocol version 3 frames are
//! `u32 LE length | payload | u32 LE crc32(payload)` (the layout itself is
//! written and checked by [`crate::protocol`]; a clean frame leaves in one
//! vectored write); because the length field is validated before the
//! payload is read, a corrupted payload leaves framing synchronized — the
//! receiver consumes exactly one frame, reports [`CrcMismatch`], and the
//! connection stays usable (the server answers a typed `BadFrame`, the
//! client re-sends the idempotent request).
//!
//! All injected transport faults ([`crate::netfault`]) are applied here,
//! one poll of the calling thread's context's wire schedule per frame
//! operation, so the rest of the crate never
//! sees the flaky layer — it sees the *consequences*: short reads, torn
//! connections, bad checksums, stalls. Server reads go through
//! [`FramedStream::read_frame_deadline`], which layers an idle timeout
//! (no frame started — the reaper's trigger), a mid-frame deadline (the
//! slowloris stall killer), and drain polling over the same loop.

use crate::net::Stream;
use crate::netfault::{self, NetFault, NetSite};
use crate::protocol::{frame_len, verify_crc, write_frame_with_crc, MAX_FRAME_BYTES};
use g80_sim::wire::crc32;
use std::io::{self, Read, Write};
use std::time::{Duration, Instant};

pub use crate::protocol::{is_crc_mismatch, CrcMismatch};

/// Which end of the connection this stream is, selecting the fault sites
/// its reads and writes poll.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Side {
    Client,
    Server,
}

/// A [`Stream`] that speaks whole CRC-checked frames, with the
/// transport-fault schedule applied per operation.
pub struct FramedStream {
    inner: Stream,
    side: Side,
    /// Coalescing readahead (the `split` fault's read flavor): bytes read
    /// past what the current operation needed, served to later reads.
    buf: Vec<u8>,
    pos: usize,
}

impl FramedStream {
    pub fn new(inner: Stream, side: Side) -> Self {
        FramedStream {
            inner,
            side,
            buf: Vec::new(),
            pos: 0,
        }
    }

    /// The underlying stream (timeout configuration).
    pub fn get_ref(&self) -> &Stream {
        &self.inner
    }

    fn write_site(&self) -> NetSite {
        match self.side {
            Side::Client => NetSite::ClientWrite,
            Side::Server => NetSite::ServerWrite,
        }
    }

    fn read_site(&self) -> NetSite {
        match self.side {
            Side::Client => NetSite::ClientRead,
            Side::Server => NetSite::ServerRead,
        }
    }

    // ---- writing -----------------------------------------------------------

    /// Writes one frame (header, payload, CRC). An injected fault may tear
    /// the connection (error returned, socket shut down so the peer sees
    /// it too) or corrupt/fragment/delay the bytes (no error — the damage
    /// is the peer's to detect).
    pub fn write_frame(&mut self, payload: &[u8]) -> io::Result<()> {
        let len = frame_len(payload)?;
        let crc = crc32(payload);
        match netfault::poll(self.write_site()) {
            None => write_frame_with_crc(&mut self.inner, payload, crc),
            Some(NetFault::Stall { ms }) => {
                std::thread::sleep(Duration::from_millis(ms));
                write_frame_with_crc(&mut self.inner, payload, crc)
            }
            Some(NetFault::DisconnectPre) => {
                let _ = self.inner.shutdown();
                Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "injected disconnect before frame",
                ))
            }
            Some(NetFault::DisconnectMid) => {
                // Tear mid-header: the peer sees a short read where a
                // length field should be.
                let _ = self.inner.write_all(&len.to_le_bytes()[..2]);
                let _ = self.inner.shutdown();
                Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "injected disconnect mid-frame",
                ))
            }
            Some(NetFault::Truncate) => {
                // Full header, half the payload, then gone: the peer is
                // left waiting mid-frame (EOF or its stall deadline).
                let _ = self
                    .inner
                    .write_all(&len.to_le_bytes())
                    .and_then(|_| self.inner.write_all(&payload[..payload.len() / 2]))
                    .and_then(|_| self.inner.flush());
                let _ = self.inner.shutdown();
                Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "injected frame truncation",
                ))
            }
            Some(NetFault::Corrupt { byte, bit }) => {
                // On-wire bit rot: payload altered, CRC still covering the
                // original — the receiver's check must catch it. The
                // sender sees a successful write.
                let mut tampered = payload.to_vec();
                if tampered.is_empty() {
                    // Nothing to flip; damage the CRC instead.
                    return write_frame_with_crc(&mut self.inner, payload, crc ^ 1);
                }
                let i = (byte % tampered.len() as u64) as usize;
                tampered[i] ^= 1 << (bit & 7);
                write_frame_with_crc(&mut self.inner, &tampered, crc)
            }
            Some(NetFault::Split) => {
                // Dribble the frame in small flushed chunks; correctness
                // must not depend on write boundaries.
                let mut wire = Vec::with_capacity(payload.len() + 8);
                write_frame_with_crc(&mut wire, payload, crc)?;
                let chunk = (wire.len() / 7).max(1);
                for piece in wire.chunks(chunk) {
                    self.inner.write_all(piece)?;
                    self.inner.flush()?;
                }
                Ok(())
            }
        }
    }

    // ---- reading -----------------------------------------------------------

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
        let fault = netfault::poll(self.read_site());
        match fault {
            Some(NetFault::DisconnectPre) => {
                let _ = self.inner.shutdown();
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "injected disconnect before frame",
                ));
            }
            Some(NetFault::Stall { ms }) => std::thread::sleep(Duration::from_millis(ms)),
            _ => {}
        }
        // The split fault's read flavors: byte-at-a-time reads, or a
        // greedy readahead that coalesces frames into one buffer.
        let byte_reads = matches!(fault, Some(NetFault::Split));
        if byte_reads && self.buf.len() > self.pos {
            // Already coalesced: keep serving the buffer.
        } else if byte_reads {
            self.coalesce()?;
        }

        let start = Instant::now();
        let mut hdr = [0u8; 4];
        let mut got = 0usize;
        while got < 4 {
            match self.read_some(&mut hdr[got..], byte_reads) {
                Ok(0) => {
                    return if got == 0 {
                        Ok(None)
                    } else {
                        Err(io::ErrorKind::UnexpectedEof.into())
                    }
                }
                Ok(n) => got += n,
                Err(e) if is_poll_tick(&e) => {
                    if got == 0 {
                        if !keep_waiting() {
                            return Ok(None);
                        }
                        if let Some(limit) = idle {
                            if start.elapsed() >= limit {
                                return Err(io::Error::new(
                                    io::ErrorKind::TimedOut,
                                    "idle connection reaped",
                                ));
                            }
                        }
                    } else if let Some(limit) = mid {
                        if start.elapsed() >= limit {
                            return Err(io::Error::new(
                                io::ErrorKind::TimedOut,
                                "mid-frame stall deadline exceeded",
                            ));
                        }
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
        if matches!(fault, Some(NetFault::DisconnectMid | NetFault::Truncate)) {
            // The peer vanishes with the frame half-transferred.
            let _ = self.inner.shutdown();
            return Err(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "injected disconnect mid-frame",
            ));
        }
        let frame_start = Instant::now();
        let mut payload = vec![0u8; len as usize + 4];
        let mut got = 0usize;
        while got < payload.len() {
            match self.read_some(&mut payload[got..], byte_reads) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => got += n,
                Err(e) if is_poll_tick(&e) => {
                    if let Some(limit) = mid {
                        if frame_start.elapsed() >= limit {
                            return Err(io::Error::new(
                                io::ErrorKind::TimedOut,
                                "mid-frame stall deadline exceeded",
                            ));
                        }
                    }
                }
                Err(e) => return Err(e),
            }
        }
        let mut wire_crc = u32::from_le_bytes(payload[len as usize..].try_into().unwrap());
        payload.truncate(len as usize);
        if let Some(NetFault::Corrupt { byte, bit }) = fault {
            // Received-side bit rot: damage what arrived, before the
            // integrity check sees it (the CRC when there is no payload).
            if payload.is_empty() {
                wire_crc ^= 1;
            } else {
                let i = (byte % payload.len() as u64) as usize;
                payload[i] ^= 1 << (bit & 7);
            }
        }
        verify_crc(&payload, wire_crc)?;
        Ok(Some(payload))
    }

    /// Reads into `out` through the readahead buffer; `byte_reads` caps
    /// socket reads at one byte (the split fault).
    fn read_some(&mut self, out: &mut [u8], byte_reads: bool) -> io::Result<usize> {
        if self.pos < self.buf.len() {
            let take = out.len().min(self.buf.len() - self.pos);
            out[..take].copy_from_slice(&self.buf[self.pos..self.pos + take]);
            self.pos += take;
            if self.pos == self.buf.len() {
                self.buf.clear();
                self.pos = 0;
            }
            return Ok(take);
        }
        if byte_reads {
            self.inner.read(&mut out[..1])
        } else {
            self.inner.read(out)
        }
    }

    /// Greedy readahead: pulls whatever the socket has (up to 64 KiB)
    /// into the buffer in one gulp, coalescing frame boundaries.
    fn coalesce(&mut self) -> io::Result<()> {
        debug_assert!(self.pos >= self.buf.len());
        let mut chunk = [0u8; 65536];
        match self.inner.read(&mut chunk) {
            Ok(n) => {
                self.buf.clear();
                self.buf.extend_from_slice(&chunk[..n]);
                self.pos = 0;
                Ok(())
            }
            // Nothing buffered yet; the main loop will read normally.
            Err(e) if is_poll_tick(&e) => Ok(()),
            Err(e) => Err(e),
        }
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
    use crate::netfault::{NetFaultConfig, NetFaultKind};
    use g80_sim::{SimConfig, SimContext};

    /// A connected loopback pair (client framed, server framed).
    fn pair() -> (FramedStream, FramedStream) {
        let (listener, bound) = Listener::bind(&Addr::parse("tcp:127.0.0.1:0").unwrap()).unwrap();
        let client = crate::net::connect(&bound).unwrap();
        let server = loop {
            if let Some(s) = listener.accept().unwrap() {
                break s;
            }
        };
        (
            FramedStream::new(client, Side::Client),
            FramedStream::new(server, Side::Server),
        )
    }

    /// Runs `test` in a fresh context whose wire schedule is armed with
    /// `faults` (disarmed by default, whatever the environment says); the
    /// test re-arms it in place.
    fn in_context(faults: Option<NetFaultConfig>, test: impl FnOnce(&SimContext)) {
        let ctx = SimContext::new(SimConfig {
            net_faults: faults,
            ..SimConfig::default()
        });
        ctx.enter(|| test(&ctx));
    }

    #[test]
    fn frames_roundtrip_and_crc_detects_tamper() {
        in_context(None, |ctx| {
            let (mut c, mut s) = pair();
            c.write_frame(b"hello frames").unwrap();
            c.write_frame(b"").unwrap();
            assert_eq!(
                s.read_frame().unwrap().as_deref(),
                Some(&b"hello frames"[..])
            );
            assert_eq!(s.read_frame().unwrap().as_deref(), Some(&b""[..]));

            // Corrupt every client write: the server's read must surface a
            // CrcMismatch, not a garbled decode, and framing stays in sync.
            let corrupt = NetFaultConfig::only(3, 1.0, NetFaultKind::Corrupt);
            ctx.net_faults().arm(Some(corrupt));
            c.write_frame(b"poisoned payload").unwrap();
            ctx.net_faults().arm(None);
            let err = s.read_frame().unwrap_err();
            assert!(is_crc_mismatch(&err), "expected CrcMismatch, got {err}");
            // The connection survives the bad frame.
            c.write_frame(b"clean again").unwrap();
            assert_eq!(
                s.read_frame().unwrap().as_deref(),
                Some(&b"clean again"[..])
            );
        });
    }

    #[test]
    fn split_frames_reassemble() {
        let split = NetFaultConfig::only(5, 1.0, NetFaultKind::Split);
        in_context(Some(split), |_| {
            let (mut c, mut s) = pair();
            let big = vec![0xabu8; 10_000];
            c.write_frame(&big).unwrap();
            c.write_frame(b"tail").unwrap();
            assert_eq!(s.read_frame().unwrap().as_deref(), Some(&big[..]));
            assert_eq!(s.read_frame().unwrap().as_deref(), Some(&b"tail"[..]));
        });
    }

    #[test]
    fn injected_disconnect_errors_both_ends() {
        in_context(None, |ctx| {
            let (mut c, mut s) = pair();
            let disconnect = NetFaultConfig::only(11, 1.0, NetFaultKind::Disconnect);
            ctx.net_faults().arm(Some(disconnect));
            let werr = c.write_frame(b"doomed").unwrap_err();
            ctx.net_faults().arm(None);
            assert_eq!(werr.kind(), io::ErrorKind::ConnectionReset);
            // The peer observes the tear as EOF or a short frame, never a hang.
            match s.read_frame() {
                Ok(None) => {}
                Err(_) => {}
                Ok(Some(f)) => panic!("read a whole frame {f:?} through a disconnect"),
            }
        });
    }

    #[test]
    fn mid_frame_deadline_times_out_a_stalled_peer() {
        in_context(None, |_| {
            let (mut c, mut s) = pair();
            s.get_ref()
                .set_read_timeout(Some(Duration::from_millis(5)))
                .unwrap();
            // Dribble a header and then stall: only the stall killer ends it.
            {
                use std::io::Write;
                let inner = &mut c.inner;
                inner.write_all(&8u32.to_le_bytes()).unwrap();
                inner.write_all(b"ab").unwrap();
                inner.flush().unwrap();
            }
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
        });
    }
}
