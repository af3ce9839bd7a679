//! Blocking client for the `g80-serve` daemon.
//!
//! A [`Client`] wraps one connection and one tenant identity. The typed
//! request methods mirror the protocol: [`Client::launch`] for a single
//! spec (returns the report plus the sparse memory delta),
//! [`Client::batch`] / [`Client::sweep`] for streamed multi-spec requests,
//! and [`Client::shutdown`] to drain the daemon.
//!
//! Every request, the Hello exchange included, is one round trip: write
//! the request frame, read responses until the terminal one (anything but
//! an `Item`). When an attempt fails, the round trip picks one of two
//! recoveries (DESIGN §16), each bounded per request:
//!
//! - **Resend in place** when the daemon answers `BadFrame` before any
//!   response of this request, or a lone response frame fails its CRC: the
//!   bad frame was consumed whole, so the connection is still synchronized.
//! - **Reconnect and replay** when the connection is gone (reset, EOF,
//!   pipe, timeout), or a frame of a streamed reply fails its CRC: items
//!   from the broken attempt may still be in flight, and only a fresh
//!   connection keeps two streams from mixing. The reconnect backs off
//!   (jittered, exponential) and handshakes before the replay; a
//!   handshake that loses its connection there is one more reconnect of
//!   the same request. A refused connect ends the request.
//!
//! Replays are sound because every request is idempotent: launches are
//! content-hash keyed, so a re-executed spec hits the memo and returns
//! the same bits. Every recovery is tallied through the calling thread's
//! context's [`g80_sim::net_counters`]; streamed requests return the delta
//! so `SweepResult`/bench summaries can report what the transport survived.

use crate::framed::{is_crc_mismatch, FramedStream};
use crate::net::{connect, Addr};
use crate::protocol::{Request, Response, Specs, WireError, WireLaunch, PROTOCOL_VERSION};
use g80_sim::digest::splitmix64;
use g80_sim::{
    net_counters, note_net_disconnect, note_net_frame_retried, note_net_reconnect, LaunchReport,
    MemoCounters, NetCounters,
};
use std::io;
use std::time::{Duration, Instant};

/// A single launch's answer: the report plus the sparse `(byte_addr,
/// word)` delta of device memory, or the daemon's typed error.
type Launched = Result<(LaunchReport, Vec<(u32, u32)>), WireError>;

/// One streamed item's answer.
type Item = Result<LaunchReport, WireError>;

/// A batch or sweep's answer: per-item results, the daemon's cache-counter
/// delta for the request, and the transport-fault tally it survived — or
/// a request-level typed error.
type Streamed = Result<(Vec<Item>, MemoCounters, NetCounters), WireError>;

/// First backoff step; doubles per attempt up to [`BACKOFF_CAP_MS`].
const BACKOFF_BASE_MS: u64 = 10;

/// Ceiling on one backoff sleep.
const BACKOFF_CAP_MS: u64 = 500;

/// What the round trip needs to know of a request beyond its bytes: a
/// handshake's lost connection is final, and a streamed reply's broken
/// attempt needs a fresh connection.
#[derive(Copy, Clone, PartialEq)]
enum Kind {
    Hello,
    Single,
    Streamed,
}

/// How a failed attempt of a request is recovered.
#[derive(Copy, Clone)]
enum Recovery {
    Resend,
    Reconnect,
}

impl Recovery {
    /// Recoveries of this kind one request may take. At the chaos legs'
    /// fault rates a request needs one or two; reaching a bound means
    /// something real is wrong, and the last failure is returned.
    fn budget(self) -> u32 {
        match self {
            Recovery::Resend => 8,
            Recovery::Reconnect => 16,
        }
    }
}

/// True for error kinds that mean "the connection is gone" rather than
/// "the peer said something malformed" — the cue to reconnect and replay
/// instead of giving up.
fn is_transport(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::UnexpectedEof
            | io::ErrorKind::WriteZero
            | io::ErrorKind::ConnectionRefused
            | io::ErrorKind::NotConnected
            | io::ErrorKind::TimedOut
    )
}

/// Jittered exponential backoff: uniform in `[cap/2, cap]` where `cap =
/// min(base << attempt, BACKOFF_CAP_MS)`. Full determinism is not the goal
/// here (sleep lengths never affect results), de-synchronising a fleet of
/// retrying tenants is — hence per-client jitter streams seeded from the
/// tenant name.
fn backoff(rng: &mut u64, attempt: u32) -> Duration {
    let cap = BACKOFF_BASE_MS
        .saturating_mul(1u64 << attempt.min(6))
        .min(BACKOFF_CAP_MS);
    *rng = splitmix64(*rng);
    Duration::from_millis(cap / 2 + *rng % (cap / 2 + 1))
}

fn seed_from_tenant(tenant: &str) -> u64 {
    let mut seed = 0x9E37_79B9_7F4A_7C15u64;
    for &b in tenant.as_bytes() {
        seed = splitmix64(seed ^ u64::from(b));
    }
    seed
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// The item sink of a request whose reply is a single frame.
fn no_items(_: u32, _: Item) -> io::Result<()> {
    Err(invalid("unexpected Item outside a streamed reply"))
}

/// One connection to a daemon, speaking for one tenant. Survives the
/// daemon's connection dying mid-request: see the module docs for the
/// recovery policy.
pub struct Client {
    framed: FramedStream,
    addr: Addr,
    tenant: String,
    rng: u64,
}

impl Client {
    /// Connects and performs the Hello handshake.
    ///
    /// This fails fast: a refused connection, a rejected handshake, or a
    /// connection the daemon ends before answering (it sheds or drains on
    /// purpose) surfaces immediately; only a corrupted frame is resent.
    /// [`Client::connect_retry`] retries the whole connect.
    pub fn connect(addr: &Addr, tenant: &str) -> io::Result<Client> {
        let mut client = Client {
            framed: FramedStream::new(connect(addr)?),
            addr: addr.clone(),
            tenant: tenant.to_string(),
            rng: seed_from_tenant(tenant),
        };
        client.hello()?;
        Ok(client)
    }

    /// [`Client::connect`], retried with jittered exponential backoff
    /// until `timeout` — covers the race between starting a daemon
    /// process and its socket existing (CI scripts, benches), and rides
    /// out a shedding daemon (a typed `Overloaded` refusal is just
    /// another retryable connect failure here).
    pub fn connect_retry(addr: &Addr, tenant: &str, timeout: Duration) -> io::Result<Client> {
        let deadline = Instant::now() + timeout;
        let mut rng = seed_from_tenant(tenant) ^ 0x5EED;
        let mut attempt = 0u32;
        loop {
            match Client::connect(addr, tenant) {
                Ok(c) => return Ok(c),
                Err(e) if Instant::now() >= deadline => return Err(e),
                Err(_) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    std::thread::sleep(backoff(&mut rng, attempt).min(left));
                    attempt += 1;
                }
            }
        }
    }

    /// The Hello exchange on the current connection.
    fn hello(&mut self) -> io::Result<()> {
        let hello = Request::Hello {
            version: PROTOCOL_VERSION,
            tenant: self.tenant.clone(),
        };
        match self.round_trip(&hello.encode(), Kind::Hello, &mut no_items)? {
            Response::HelloOk { .. } => Ok(()),
            Response::Error(WireError::Overloaded { retry_after_ms }) => Err(io::Error::new(
                io::ErrorKind::WouldBlock,
                format!("daemon overloaded; retry after {retry_after_ms} ms"),
            )),
            Response::Error(e) => Err(invalid(format!("handshake rejected: {e}"))),
            _ => Err(invalid("unexpected handshake response")),
        }
    }

    /// Sends one request frame and returns the raw response, with no
    /// recovery of any kind — chaos tests use this to observe typed
    /// faults, CRC failures, and dead connections directly.
    pub fn request_raw(&mut self, req: &Request) -> io::Result<Response> {
        self.framed.write_frame(&req.encode())?;
        self.read_response()
    }

    /// Writes the request `frame` and reads responses until the terminal
    /// one, which it returns; each `Item` before it goes to `on_item`. The
    /// one place a failed attempt is recovered (see the module docs): the
    /// decision below, a budget per kind, and the tallies.
    fn round_trip(
        &mut self,
        frame: &[u8],
        kind: Kind,
        on_item: &mut dyn FnMut(u32, Item) -> io::Result<()>,
    ) -> io::Result<Response> {
        let len = frame.len() as u64;
        let is_hello = kind == Kind::Hello;
        let streamed = kind == Kind::Streamed;
        let mut tries = [0u32; 2];
        let mut reconnected = false;
        loop {
            let mut answered = false;
            // A reconnect's handshake belongs to the attempt: when it
            // fails, the request's budget decides again.
            let handshake = if reconnected {
                self.hello().map(|()| note_net_reconnect(len))
            } else {
                Ok(())
            };
            let outcome = handshake
                .and_then(|()| self.framed.write_frame(frame))
                .and_then(|()| loop {
                    let resp = self.read_response()?;
                    let Response::Item { index, result } = resp else {
                        break Ok(resp);
                    };
                    answered = true;
                    on_item(index, result)?;
                });
            let crc = outcome.as_ref().is_err_and(is_crc_mismatch);
            let recovery = match &outcome {
                Ok(Response::Error(WireError::BadFrame(_))) if !answered => Some(Recovery::Resend),
                Err(_) if crc && !streamed => Some(Recovery::Resend),
                Err(_) if crc => Some(Recovery::Reconnect),
                // A daemon that sheds or drains ends a connection before
                // its handshake on purpose, so a Hello's lost connection
                // is final; inside a reconnect, the request it belongs to
                // retries it.
                Err(e) if is_transport(e) && !is_hello => Some(Recovery::Reconnect),
                _ => None,
            };
            let Some(recovery) = recovery.filter(|&r| tries[r as usize] < r.budget()) else {
                return outcome;
            };
            tries[recovery as usize] += 1;
            reconnected = matches!(recovery, Recovery::Reconnect);
            match recovery {
                Recovery::Resend => note_net_frame_retried(len),
                Recovery::Reconnect => {
                    if crc {
                        note_net_frame_retried(len);
                    } else {
                        note_net_disconnect();
                    }
                    let attempt = tries[Recovery::Reconnect as usize];
                    std::thread::sleep(backoff(&mut self.rng, attempt));
                    // A refused connect is final: the listener is closed.
                    let _ = self.framed.get_ref().shutdown();
                    self.framed = FramedStream::new(connect(&self.addr)?);
                }
            }
        }
    }

    /// Runs one launch. The outer `Err` is unrecoverable transport
    /// failure; the inner `Err` is a typed daemon-side error. On success:
    /// the report plus the sparse `(byte_addr, word)` delta of device
    /// memory.
    pub fn launch(&mut self, spec: &WireLaunch) -> io::Result<Launched> {
        let frame = Specs::Launch(spec).encode();
        match self.round_trip(&frame, Kind::Single, &mut no_items)? {
            Response::Launch { result } => Ok(result),
            Response::Error(e) => Ok(Err(e)),
            _ => Err(invalid("unexpected response to Launch")),
        }
    }

    /// Runs a batch: every spec executed in order, results streamed back.
    /// Returns per-item results, the daemon's cache-counter delta for the
    /// whole request, and the transport-fault tally the request survived.
    pub fn batch(&mut self, specs: &[WireLaunch]) -> io::Result<Streamed> {
        self.streamed(Specs::Batch(specs), specs.len())
    }

    /// Runs a sweep (same execution as a batch in protocol v1; the
    /// distinct tag lets sweep-aware scheduling evolve without a version
    /// bump). Pair with `SweepResult::from_parts` to reassemble
    /// a tuner result from the streamed rows plus the fault tally.
    pub fn sweep(&mut self, specs: &[WireLaunch]) -> io::Result<Streamed> {
        self.streamed(Specs::Sweep(specs), specs.len())
    }

    fn streamed(&mut self, req: Specs, n: usize) -> io::Result<Streamed> {
        let net_before = net_counters();
        // A replay rewrites every slot: the daemon streams each index
        // before its `Done`.
        let mut items: Vec<Item> = (0..n).map(|_| Err(WireError::Shutdown)).collect();
        let terminal = self.round_trip(&req.encode(), Kind::Streamed, &mut |index, result| {
            let slot = items
                .get_mut(index as usize)
                .ok_or_else(|| invalid(format!("item index {index} out of range")))?;
            *slot = result;
            Ok(())
        })?;
        match terminal {
            Response::Done { counters, net } => {
                let local = net_counters().since(&net_before);
                Ok(Ok((items, counters, local.saturating_add(&net))))
            }
            Response::Error(e) => Ok(Err(e)),
            _ => Err(invalid("unexpected response in batch stream")),
        }
    }

    /// Asks the daemon to drain and exit. A reply lost to a dead connection
    /// is replayed on a fresh one; if the daemon then refuses the
    /// connection, its listener is closed — the drain already started.
    pub fn shutdown(&mut self) -> io::Result<()> {
        let frame = Request::Shutdown.encode();
        match self.round_trip(&frame, Kind::Single, &mut no_items) {
            Ok(Response::ShutdownOk) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => Ok(()),
            Ok(Response::Error(e)) => Err(invalid(format!("shutdown rejected: {e}"))),
            Ok(_) => Err(invalid("unexpected response to Shutdown")),
            Err(e) => Err(e),
        }
    }

    fn read_response(&mut self) -> io::Result<Response> {
        let Some(frame) = self.framed.read_frame()? else {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        };
        Response::decode(&frame).ok_or_else(|| invalid("undecodable response frame"))
    }
}
