//! Blocking client for the `g80-serve` daemon.
//!
//! A [`Client`] wraps one connection and one tenant identity. The typed
//! request methods mirror the protocol: [`Client::launch`] for a single
//! spec (returns the report plus the sparse memory delta),
//! [`Client::batch`] / [`Client::sweep`] for streamed multi-spec requests,
//! and [`Client::shutdown`] to drain the daemon.
//!
//! Two recovery layers sit under the typed methods:
//!
//! - **Injected-fault retries** (a daemon whose context has its simulator
//!   faults armed): typed fault errors are resent transparently by
//!   default — the serve-layer analogue of the in-process
//!   absorb-and-retry policy, which is what keeps results bit-identical
//!   under chaos. Disable with [`Client::set_retry_injected`].
//! - **Transport recovery** (wire faults armed in either end's context):
//!   a response frame failing its CRC is
//!   re-requested in place (the connection stays synchronized — the bad
//!   frame was fully consumed); a dead connection is re-established with
//!   jittered exponential backoff and the in-flight request replayed.
//!   Replay is idempotent because launches are content-hash keyed — a
//!   re-executed spec hits the memo and returns the same bits. Mid-stream
//!   failures of a batch/sweep always reconnect before replaying: items
//!   from the broken stream could still be in flight, and a fresh
//!   connection is the only way to guarantee the two streams cannot mix.
//!
//! Every recovery action is tallied through the calling thread's context's
//! [`g80_sim::net_counters`]; streamed requests return the delta so
//! `SweepResult`/bench summaries can report what the transport survived.

use crate::framed::{is_crc_mismatch, FramedStream, Side};
use crate::net::{connect, Addr};
use crate::protocol::{Request, Response, WireError, WireLaunch, PROTOCOL_VERSION};
use g80_sim::fault::splitmix64;
use g80_sim::{
    net_counters, note_net_disconnect, note_net_frame_retried, note_net_reconnect, LaunchReport,
    MemoCounters, NetCounters, SimContext,
};
use std::io;
use std::time::{Duration, Instant};

/// Bound on transparent retries of injected faults; at the chaos CI's
/// fault rates the expected retry count is single digits, so hitting this
/// means something real is wrong.
const MAX_INJECTED_RETRIES: u32 = 64;

/// Bound on reconnect-and-replay cycles for one request. At the network
/// chaos CI's rates a request rarely needs more than one or two.
const MAX_TRANSPORT_RETRIES: u32 = 16;

/// Bound on in-place re-requests after a CRC failure (ours or theirs) on
/// a still-live connection.
const MAX_FRAME_RETRIES: u32 = 8;

/// First backoff step; doubles per attempt up to [`BACKOFF_CAP_MS`].
const BACKOFF_BASE_MS: u64 = 10;

/// Ceiling on one backoff sleep.
const BACKOFF_CAP_MS: u64 = 500;

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

/// Jittered exponential backoff: sleeps uniformly in `[cap/2, cap]` where
/// `cap = min(base << attempt, BACKOFF_CAP_MS)`. Full determinism is not
/// the goal here (sleep lengths never affect results), de-synchronising a
/// fleet of retrying tenants is — hence per-client jitter streams seeded
/// from the tenant name.
fn backoff_ms(rng: &mut u64, attempt: u32) -> u64 {
    let cap = BACKOFF_BASE_MS
        .saturating_mul(1u64 << attempt.min(6))
        .min(BACKOFF_CAP_MS);
    *rng = splitmix64(*rng);
    cap / 2 + *rng % (cap / 2 + 1)
}

fn seed_from_tenant(tenant: &str) -> u64 {
    let mut seed = 0x9E37_79B9_7F4A_7C15u64;
    for &b in tenant.as_bytes() {
        seed = splitmix64(seed ^ u64::from(b));
    }
    seed
}

/// One connection to a daemon, speaking for one tenant. Survives the
/// daemon's connection dying mid-request: see the module docs for the
/// recovery policy.
pub struct Client {
    framed: FramedStream,
    addr: Addr,
    tenant: String,
    retry_injected: bool,
    rng: u64,
}

impl Client {
    /// Connects and performs the Hello handshake.
    ///
    /// With the calling context's wire faults disarmed this fails fast — a
    /// refused connection or rejected handshake surfaces immediately. With
    /// them armed, an injected fault can kill the handshake itself (a
    /// disconnect before HelloOk lands); that is transport chaos like any
    /// other, so it is absorbed with bounded backed-off retries instead of
    /// failing the connect.
    pub fn connect(addr: &Addr, tenant: &str) -> io::Result<Client> {
        let mut rng = seed_from_tenant(tenant) ^ 0x00C0_11EC;
        let mut attempt = 0u32;
        loop {
            match Client::connect_once(addr, tenant) {
                Ok(client) => return Ok(client),
                Err(e)
                    if SimContext::with_current(|ctx| ctx.net_faults().is_armed())
                        && is_transport(&e)
                        && attempt < MAX_TRANSPORT_RETRIES =>
                {
                    note_net_disconnect();
                    attempt += 1;
                    let ms = backoff_ms(&mut rng, attempt);
                    std::thread::sleep(Duration::from_millis(ms));
                    note_net_reconnect(0);
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn connect_once(addr: &Addr, tenant: &str) -> io::Result<Client> {
        let stream = connect(addr)?;
        let mut client = Client {
            framed: FramedStream::new(stream, Side::Client),
            addr: addr.clone(),
            tenant: tenant.to_string(),
            retry_injected: true,
            rng: seed_from_tenant(tenant),
        };
        client.handshake()?;
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
                    let ms = backoff_ms(&mut rng, attempt);
                    let left = deadline.saturating_duration_since(Instant::now());
                    std::thread::sleep(Duration::from_millis(ms).min(left));
                    attempt += 1;
                }
            }
        }
    }

    /// When set (the default), requests failing with an injected-fault
    /// error are resent transparently.
    pub fn set_retry_injected(&mut self, on: bool) {
        self.retry_injected = on;
    }

    /// Performs the Hello exchange on the current connection. A corrupted
    /// HelloOk (CRC failure) or a daemon-side `BadFrame` (our Hello got
    /// corrupted) is retried in place — the daemon re-acks Hello
    /// idempotently.
    fn handshake(&mut self) -> io::Result<()> {
        let hello = Request::Hello {
            version: PROTOCOL_VERSION,
            tenant: self.tenant.clone(),
        }
        .encode();
        let mut tries = 0u32;
        loop {
            self.framed.write_frame(&hello)?;
            match self.read_response() {
                Ok(Response::HelloOk { .. }) => return Ok(()),
                Ok(Response::Error(WireError::BadFrame(_))) if tries < MAX_FRAME_RETRIES => {
                    note_net_frame_retried(hello.len() as u64);
                    tries += 1;
                }
                Ok(Response::Error(WireError::Overloaded { retry_after_ms })) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WouldBlock,
                        format!("daemon overloaded; retry after {retry_after_ms} ms"),
                    ))
                }
                Ok(Response::Error(e)) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("handshake rejected: {e}"),
                    ))
                }
                Ok(_) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "unexpected handshake response",
                    ))
                }
                Err(e) if is_crc_mismatch(&e) && tries < MAX_FRAME_RETRIES => {
                    note_net_frame_retried(hello.len() as u64);
                    tries += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Re-establishes the connection and handshake after a transport
    /// failure, backing off between attempts. The caller replays its
    /// in-flight request afterwards.
    fn reconnect(&mut self) -> io::Result<()> {
        let _ = self.framed.get_ref().shutdown();
        let mut attempt = 0u32;
        loop {
            let outcome = connect(&self.addr).and_then(|stream| {
                self.framed = FramedStream::new(stream, Side::Client);
                self.handshake()
            });
            match outcome {
                Ok(()) => return Ok(()),
                Err(e) if attempt >= MAX_TRANSPORT_RETRIES => return Err(e),
                Err(_) => {
                    attempt += 1;
                    let ms = backoff_ms(&mut self.rng, attempt);
                    std::thread::sleep(Duration::from_millis(ms));
                }
            }
        }
    }

    /// Sends one request frame and returns the raw response, with no
    /// recovery of any kind — chaos tests use this to observe typed
    /// faults, CRC failures, and dead connections directly.
    pub fn request_raw(&mut self, req: &Request) -> io::Result<Response> {
        self.framed.write_frame(&req.encode())?;
        self.read_response()
    }

    /// One request/response exchange with transport recovery: in-place
    /// re-request on CRC failure (either direction), reconnect-and-replay
    /// on a dead connection. Only sound for idempotent requests — which
    /// all v3 requests are.
    fn exchange(&mut self, req: &Request) -> io::Result<Response> {
        let frame = req.encode();
        let mut frame_tries = 0u32;
        let mut transport_tries = 0u32;
        loop {
            let sent = self.framed.write_frame(&frame);
            let resp = match sent {
                Ok(()) => self.read_response(),
                Err(e) => Err(e),
            };
            match resp {
                Ok(Response::Error(WireError::BadFrame(_))) if frame_tries < MAX_FRAME_RETRIES => {
                    // Our request frame arrived corrupted; the daemon
                    // consumed it and stayed synchronized. Resend.
                    note_net_frame_retried(frame.len() as u64);
                    frame_tries += 1;
                }
                Ok(resp) => return Ok(resp),
                Err(e) if is_crc_mismatch(&e) && frame_tries < MAX_FRAME_RETRIES => {
                    // The response frame arrived corrupted but was fully
                    // consumed; re-request on the same connection.
                    note_net_frame_retried(frame.len() as u64);
                    frame_tries += 1;
                }
                Err(e) if is_transport(&e) && transport_tries < MAX_TRANSPORT_RETRIES => {
                    note_net_disconnect();
                    transport_tries += 1;
                    let ms = backoff_ms(&mut self.rng, transport_tries);
                    std::thread::sleep(Duration::from_millis(ms));
                    self.reconnect()?;
                    note_net_reconnect(frame.len() as u64);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Runs one launch. The outer `Err` is unrecoverable transport
    /// failure; the inner `Err` is a typed daemon-side error. On success:
    /// the report plus the sparse `(byte_addr, word)` delta of device
    /// memory.
    #[allow(clippy::type_complexity)]
    pub fn launch(
        &mut self,
        spec: &WireLaunch,
    ) -> io::Result<Result<(LaunchReport, Vec<(u32, u32)>), WireError>> {
        let req = Request::Launch(spec.clone());
        let mut tries = 0;
        loop {
            let resp = self.exchange(&req)?;
            let result = match resp {
                Response::Launch { result } => result,
                Response::Error(e) => Err(e),
                _ => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "unexpected response to Launch",
                    ))
                }
            };
            match result {
                Err(e)
                    if self.retry_injected && e.is_injected() && tries < MAX_INJECTED_RETRIES =>
                {
                    tries += 1;
                }
                other => return Ok(other),
            }
        }
    }

    /// Runs a batch: every spec executed in order, results streamed back.
    /// Returns per-item results, the daemon's cache-counter delta for the
    /// whole request, and the transport-fault tally the request survived.
    #[allow(clippy::type_complexity)]
    pub fn batch(
        &mut self,
        specs: &[WireLaunch],
    ) -> io::Result<
        Result<
            (
                Vec<Result<LaunchReport, WireError>>,
                MemoCounters,
                NetCounters,
            ),
            WireError,
        >,
    > {
        self.multi(Request::Batch(specs.to_vec()), specs.len())
    }

    /// Runs a sweep (same execution as a batch in protocol v1; the
    /// distinct tag lets sweep-aware scheduling evolve without a version
    /// bump). Pair with `SweepResult::from_parts_with_net` to reassemble
    /// a tuner result from the streamed rows plus the fault tally.
    #[allow(clippy::type_complexity)]
    pub fn sweep(
        &mut self,
        specs: &[WireLaunch],
    ) -> io::Result<
        Result<
            (
                Vec<Result<LaunchReport, WireError>>,
                MemoCounters,
                NetCounters,
            ),
            WireError,
        >,
    > {
        self.multi(Request::Sweep(specs.to_vec()), specs.len())
    }

    #[allow(clippy::type_complexity)]
    fn multi(
        &mut self,
        req: Request,
        n: usize,
    ) -> io::Result<
        Result<
            (
                Vec<Result<LaunchReport, WireError>>,
                MemoCounters,
                NetCounters,
            ),
            WireError,
        >,
    > {
        let frame = req.encode();
        let net_before = net_counters();
        let mut injected_tries = 0u32;
        let mut frame_tries = 0u32;
        let mut transport_tries = 0u32;
        'retry: loop {
            if let Err(e) = self.framed.write_frame(&frame) {
                if is_transport(&e) && transport_tries < MAX_TRANSPORT_RETRIES {
                    note_net_disconnect();
                    transport_tries += 1;
                    let ms = backoff_ms(&mut self.rng, transport_tries);
                    std::thread::sleep(Duration::from_millis(ms));
                    self.reconnect()?;
                    note_net_reconnect(frame.len() as u64);
                    continue 'retry;
                }
                return Err(e);
            }
            let mut items: Vec<Result<LaunchReport, WireError>> =
                (0..n).map(|_| Err(WireError::Shutdown)).collect();
            let mut streamed = false;
            loop {
                match self.read_response() {
                    Ok(Response::Item { index, result }) => {
                        streamed = true;
                        let slot = items.get_mut(index as usize).ok_or_else(|| {
                            io::Error::new(
                                io::ErrorKind::InvalidData,
                                format!("item index {index} out of range"),
                            )
                        })?;
                        *slot = result;
                    }
                    Ok(Response::Done { counters, net }) => {
                        let injected = items
                            .iter()
                            .any(|r| r.as_ref().is_err_and(WireError::is_injected));
                        if injected && self.retry_injected && injected_tries < MAX_INJECTED_RETRIES
                        {
                            injected_tries += 1;
                            continue 'retry;
                        }
                        let local = net_counters().since(&net_before);
                        return Ok(Ok((items, counters, local.saturating_add(&net))));
                    }
                    Ok(Response::Error(WireError::BadFrame(_)))
                        if !streamed && frame_tries < MAX_FRAME_RETRIES =>
                    {
                        // Our request frame got corrupted before the
                        // stream started; the daemon never began
                        // executing, so an in-place resend is safe.
                        note_net_frame_retried(frame.len() as u64);
                        frame_tries += 1;
                        continue 'retry;
                    }
                    Ok(Response::Error(e)) => {
                        // Request-level error: no Item/Done stream follows.
                        if self.retry_injected
                            && e.is_injected()
                            && injected_tries < MAX_INJECTED_RETRIES
                        {
                            injected_tries += 1;
                            continue 'retry;
                        }
                        return Ok(Err(e));
                    }
                    Ok(_) => {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            "unexpected response in batch stream",
                        ))
                    }
                    Err(e)
                        if (is_crc_mismatch(&e) || is_transport(&e))
                            && transport_tries < MAX_TRANSPORT_RETRIES =>
                    {
                        // Mid-stream failure. Even for a CRC mismatch
                        // (connection technically alive) the daemon may
                        // still be streaming items from the broken
                        // attempt; replaying on the same connection would
                        // interleave two streams. Reconnect, then replay.
                        if is_crc_mismatch(&e) {
                            note_net_frame_retried(frame.len() as u64);
                        } else {
                            note_net_disconnect();
                        }
                        transport_tries += 1;
                        let ms = backoff_ms(&mut self.rng, transport_tries);
                        std::thread::sleep(Duration::from_millis(ms));
                        self.reconnect()?;
                        note_net_reconnect(frame.len() as u64);
                        continue 'retry;
                    }
                    Err(e) => return Err(e),
                }
            }
        }
    }

    /// Asks the daemon to drain and exit. A reply lost to a dead connection
    /// is replayed on a fresh one; if the daemon then refuses the
    /// connection, its listener is closed — the drain already started.
    pub fn shutdown(&mut self) -> io::Result<()> {
        let mut tries = 0;
        loop {
            let resp = match self.exchange(&Request::Shutdown) {
                Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => return Ok(()),
                resp => resp?,
            };
            match resp {
                Response::ShutdownOk => return Ok(()),
                Response::Error(e)
                    if self.retry_injected && e.is_injected() && tries < MAX_INJECTED_RETRIES =>
                {
                    tries += 1;
                }
                Response::Error(e) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("shutdown rejected: {e}"),
                    ))
                }
                _ => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "unexpected response to Shutdown",
                    ))
                }
            }
        }
    }

    fn read_response(&mut self) -> io::Result<Response> {
        let Some(frame) = self.framed.read_frame()? else {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        };
        Response::decode(&frame)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "undecodable response frame"))
    }
}
