//! The daemon: accept loop, per-connection handlers, request execution.
//!
//! One daemon hosts the shared substrate — the work-stealing pool and one
//! [`SimContext`] (the one current where [`serve`] was called; the global,
//! environment-configured one for the `g80-serve` binary): its launch memo
//! LRU, its disk tier when configured, its counters — and every
//! connection's launches run through it, so tenants warm each other's
//! caches. Each connection is one thread; each request is admitted by the
//! [`crate::admission`] controller before it touches the pool.
//!
//! Failure behaviour (the hardened paths `tests/serve_chaos.rs` exercises
//! through a fault-injecting frame proxy):
//!
//! * every per-request step runs under `catch_unwind`, so a handler
//!   panic becomes a typed [`Response::Error`], never a dropped
//!   connection;
//! * a frame failing its CRC ([`crate::framed`]) yields a typed
//!   [`WireError::BadFrame`] on the still-synchronized connection — the
//!   client re-sends the idempotent request;
//! * a connection dribbling a frame past the mid-frame deadline
//!   (`G80_SERVE_READ_TIMEOUT_MS`) or idling past the idle timeout
//!   (`G80_SERVE_IDLE_TIMEOUT_MS`, off by default) is *reaped*: closed,
//!   counted, slot freed — a slowloris client cannot pin a thread;
//! * when [`ServeConfig::max_conns`] connections are open, further
//!   accepts are *shed* with a typed [`WireError::Overloaded`] carrying a
//!   retry hint, then closed — overload degrades into fast typed refusals
//!   instead of unbounded thread growth;
//! * only a failed handshake, an oversized frame header (framing desync)
//!   or a transport error closes a connection.
//!
//! Shutdown is a protocol request, not a signal: [`Request::Shutdown`]
//! flips the drain flag, the accept loop stops, idle connections close at
//! their next poll tick, in-flight requests finish, and [`Server::join`]
//! returns once the last handler exits.

use crate::admission::{Admission, Quota, Verdict};
use crate::framed::{is_crc_mismatch, FramedStream};
use crate::net::{Addr, Listener, Stream};
use crate::protocol::{Request, Response, WireError, WireLaunch, MAX_MEM_BYTES, PROTOCOL_VERSION};
use g80_sim::fault;
use g80_sim::{
    launch_reported, memo_counters, net_counters, note_net_disconnect, DeviceMemory, GpuConfig,
    LaunchReport, SimContext,
};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

/// Daemon configuration. Construct directly in tests; [`from_env`] reads
/// the `G80_SERVE_*` toggles.
///
/// [`from_env`]: ServeConfig::from_env
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address.
    pub addr: Addr,
    /// Per-tenant admission quotas.
    pub quota: Quota,
    /// The simulated machine every request runs on.
    pub gpu: GpuConfig,
    /// Mid-frame stall killer: a connection that starts a frame but does
    /// not finish it within this window is reaped. `None` disables (a
    /// slowloris peer then holds its thread forever — only for tests).
    pub read_timeout: Option<Duration>,
    /// Idle-connection reaper: a connection with no frame in progress for
    /// this long is closed. `None` (the default) lets idle connections
    /// persist — clients legitimately hold connections between bursts.
    pub idle_timeout: Option<Duration>,
    /// Connection cap: accepts beyond this many open connections are shed
    /// with a typed [`WireError::Overloaded`] instead of spawning
    /// unbounded handler threads.
    pub max_conns: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: Addr::Tcp("127.0.0.1:7808".into()),
            quota: Quota::default(),
            gpu: GpuConfig::geforce_8800_gtx(),
            read_timeout: Some(Duration::from_millis(5000)),
            idle_timeout: None,
            max_conns: 256,
        }
    }
}

impl ServeConfig {
    /// Reads `G80_SERVE_ADDR` (default `tcp:127.0.0.1:7808`),
    /// `G80_SERVE_TENANT_BLOCKS` (per-tenant in-flight block budget, which
    /// is also the per-launch cap), `G80_SERVE_TENANT_QUEUE` (waiting
    /// requests per tenant), `G80_SERVE_MAX_BLOCKS` (global in-flight
    /// budget), `G80_SERVE_READ_TIMEOUT_MS` (mid-frame stall killer,
    /// default 5000, 0 disables), `G80_SERVE_IDLE_TIMEOUT_MS` (idle
    /// reaper, default 0 = disabled), and `G80_SERVE_MAX_CONNS`
    /// (connection cap, default 256). Unset or unparsable values keep the
    /// defaults.
    pub fn from_env() -> io::Result<Self> {
        let mut cfg = ServeConfig::default();
        if let Ok(v) = std::env::var("G80_SERVE_ADDR") {
            cfg.addr = Addr::parse(&v)?;
        }
        if let Some(v) = env_u64("G80_SERVE_TENANT_BLOCKS") {
            cfg.quota.max_inflight_blocks = v;
            cfg.quota.max_blocks_per_launch = v;
        }
        if let Some(v) = env_u64("G80_SERVE_TENANT_QUEUE") {
            cfg.quota.max_queued = v as usize;
        }
        if let Some(v) = env_u64("G80_SERVE_MAX_BLOCKS") {
            cfg.quota.max_total_blocks = v;
        }
        if let Some(v) = env_u64("G80_SERVE_READ_TIMEOUT_MS") {
            cfg.read_timeout = (v > 0).then(|| Duration::from_millis(v));
        }
        if let Some(v) = env_u64("G80_SERVE_IDLE_TIMEOUT_MS") {
            cfg.idle_timeout = (v > 0).then(|| Duration::from_millis(v));
        }
        if let Some(v) = env_u64("G80_SERVE_MAX_CONNS") {
            cfg.max_conns = v.max(1);
        }
        Ok(cfg)
    }
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// How often idle waits (accept loop, idle connections, drain) poll the
/// shutdown flag.
const POLL_TICK: Duration = Duration::from_millis(20);

/// Shed responses carry this retry hint: a couple of poll ticks, long
/// enough for a slot to free under normal churn.
const SHED_RETRY_AFTER_MS: u64 = 50;

struct Shared {
    /// The context every accept and handler thread of this daemon enters.
    ctx: Arc<SimContext>,
    admission: Arc<Admission>,
    gpu: GpuConfig,
    shutting_down: AtomicBool,
    /// Open connections; drain completes when this reaches zero.
    active: Mutex<u64>,
    idle_cv: Condvar,
    /// Served-request counter (metrics; exposed for tests).
    requests: AtomicU64,
    read_timeout: Option<Duration>,
    idle_timeout: Option<Duration>,
    max_conns: u64,
    /// Connections closed by the stall killer / idle reaper.
    reaped: AtomicU64,
    /// Connections refused at the cap with a typed Overloaded.
    shed: AtomicU64,
}

impl Shared {
    fn shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }
}

/// A running daemon. Dropping the handle does NOT stop it; send a
/// [`Request::Shutdown`] (or call [`Server::trigger_shutdown`]) and then
/// [`Server::join`].
pub struct Server {
    shared: Arc<Shared>,
    bound: Addr,
    accept_thread: thread::JoinHandle<io::Result<()>>,
}

impl Server {
    /// The concrete bound address (ephemeral TCP ports resolved).
    pub fn local_addr(&self) -> &Addr {
        &self.bound
    }

    /// Flips the drain flag without a client connection (tests, signal
    /// bridges). Idempotent.
    pub fn trigger_shutdown(&self) {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
    }

    /// Requests served so far (any response counts, including typed
    /// errors).
    pub fn requests_served(&self) -> u64 {
        self.shared.requests.load(Ordering::SeqCst)
    }

    /// Connections closed by the mid-frame stall killer or idle reaper.
    pub fn reaped(&self) -> u64 {
        self.shared.reaped.load(Ordering::SeqCst)
    }

    /// Connections shed at the cap with a typed `Overloaded`.
    pub fn shed(&self) -> u64 {
        self.shared.shed.load(Ordering::SeqCst)
    }

    /// Blocks until the daemon has drained: shutdown triggered, accept
    /// loop exited, and every connection handler finished.
    pub fn join(self) -> io::Result<()> {
        let r = self
            .accept_thread
            .join()
            .unwrap_or_else(|_| Err(io::Error::other("accept loop panicked")));
        let mut active = fault::lock_recover(&self.shared.active);
        while *active > 0 {
            let (g, _) = self
                .shared
                .idle_cv
                .wait_timeout(active, POLL_TICK)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            active = g;
        }
        r
    }
}

/// Binds the configured address and starts serving in the caller's current
/// [`SimContext`]. Returns immediately; the daemon runs on background
/// threads until a shutdown request drains it.
pub fn serve(cfg: ServeConfig) -> io::Result<Server> {
    let (listener, bound) = Listener::bind(&cfg.addr)?;
    let shared = Arc::new(Shared {
        ctx: SimContext::current(),
        admission: Admission::new(cfg.quota),
        gpu: cfg.gpu,
        shutting_down: AtomicBool::new(false),
        active: Mutex::new(0),
        idle_cv: Condvar::new(),
        requests: AtomicU64::new(0),
        read_timeout: cfg.read_timeout,
        idle_timeout: cfg.idle_timeout,
        max_conns: cfg.max_conns.max(1),
        reaped: AtomicU64::new(0),
        shed: AtomicU64::new(0),
    });
    let accept_shared = Arc::clone(&shared);
    let accept_thread = thread::Builder::new()
        .name("g80-serve-accept".into())
        .spawn(move || {
            Arc::clone(&accept_shared.ctx).enter(|| accept_loop(listener, accept_shared))
        })
        .map_err(io::Error::other)?;
    Ok(Server {
        shared,
        bound,
        accept_thread,
    })
}

fn accept_loop(listener: Listener, shared: Arc<Shared>) -> io::Result<()> {
    loop {
        if shared.shutting_down() {
            return Ok(());
        }
        match listener.accept() {
            Ok(Some(stream)) => {
                {
                    let mut active = fault::lock_recover(&shared.active);
                    if *active >= shared.max_conns {
                        // Load shedding: refuse with a typed Overloaded
                        // and a retry hint instead of spawning a thread.
                        drop(active);
                        shared.shed.fetch_add(1, Ordering::SeqCst);
                        shed_connection(stream);
                        continue;
                    }
                    *active += 1;
                }
                let conn_shared = Arc::clone(&shared);
                let spawned =
                    thread::Builder::new()
                        .name("g80-serve-conn".into())
                        .spawn(move || {
                            // Connection-level transport errors are expected
                            // (peers vanish); they end the connection, not the
                            // daemon.
                            conn_shared.ctx.enter(|| {
                                if handle_connection(stream, &conn_shared).is_err() {
                                    note_net_disconnect();
                                }
                            });
                            let mut active = fault::lock_recover(&conn_shared.active);
                            *active -= 1;
                            drop(active);
                            conn_shared.idle_cv.notify_all();
                        });
                if spawned.is_err() {
                    let mut active = fault::lock_recover(&shared.active);
                    *active -= 1;
                    drop(active);
                    shared.idle_cv.notify_all();
                }
            }
            Ok(None) => thread::sleep(POLL_TICK),
            Err(_) => thread::sleep(POLL_TICK),
        }
    }
}

/// Best-effort typed refusal on the accept thread. The write timeout is
/// tight: a shed peer that will not even read 50-odd bytes gets dropped
/// without blocking further accepts.
fn shed_connection(stream: Stream) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
    let mut framed = FramedStream::new(stream);
    let _ = framed.write_frame(
        &Response::Error(WireError::Overloaded {
            retry_after_ms: SHED_RETRY_AFTER_MS,
        })
        .encode(),
    );
}

/// One received event on a connection.
enum Recv {
    Frame(Vec<u8>),
    /// Peer closed at a frame boundary, or drain with no frame started.
    Closed,
    /// Deadline exceeded: the stall killer or idle reaper fired.
    Reaped,
    /// CRC failure: frame consumed, connection synchronized, payload lost.
    BadFrame(String),
}

fn recv_frame(framed: &mut FramedStream, shared: &Shared) -> io::Result<Recv> {
    match framed.read_frame_deadline(shared.idle_timeout, shared.read_timeout, &|| {
        !shared.shutting_down()
    }) {
        Ok(Some(frame)) => Ok(Recv::Frame(frame)),
        Ok(None) => Ok(Recv::Closed),
        Err(e) if e.kind() == io::ErrorKind::TimedOut => {
            shared.reaped.fetch_add(1, Ordering::SeqCst);
            Ok(Recv::Reaped)
        }
        Err(e) if is_crc_mismatch(&e) => Ok(Recv::BadFrame(e.to_string())),
        Err(e) => Err(e),
    }
}

fn send(framed: &mut FramedStream, resp: &Response) -> io::Result<()> {
    framed.write_frame(&resp.encode())
}

fn handle_connection(stream: Stream, shared: &Shared) -> io::Result<()> {
    stream.set_read_timeout(Some(POLL_TICK))?;
    // A write stalling as long as the read deadline means the peer has
    // stopped draining its socket; the failed write ends the connection.
    stream.set_write_timeout(shared.read_timeout)?;
    let mut framed = FramedStream::new(stream);
    // Set by the handshake: the first frame must be a version-matched Hello.
    let mut tenant = None;
    loop {
        let frame = match recv_frame(&mut framed, shared)? {
            Recv::Frame(f) => f,
            Recv::Closed | Recv::Reaped => return Ok(()),
            // A corrupted frame (a Hello too) gets a typed BadFrame and
            // another chance: the client resends on the same connection.
            Recv::BadFrame(msg) => {
                send(&mut framed, &Response::Error(WireError::BadFrame(msg)))?;
                continue;
            }
        };
        if tenant.is_some() {
            shared.requests.fetch_add(1, Ordering::SeqCst);
        }
        // The whole decode+execute path is unwind-safe: a panic becomes a
        // typed response on the still-synchronized connection. The device memory a panicking
        // request may have touched is request-local, so no shared state is
        // left inconsistent.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            handle_request(&frame, tenant.as_deref(), shared, &mut framed)
        }));
        match outcome {
            Ok(Ok(ControlFlow::Continue)) => {}
            Ok(Ok(ControlFlow::Greeted(who))) => {
                tenant.get_or_insert(who);
            }
            Ok(Ok(ControlFlow::Close)) => return Ok(()),
            Ok(Err(e)) => return Err(e),
            Err(payload) => {
                let msg = fault::payload_str(payload.as_ref())
                    .unwrap_or("non-string panic payload")
                    .to_string();
                send(&mut framed, &Response::Error(WireError::Panic(msg)))?;
            }
        }
    }
}

enum ControlFlow {
    Continue,
    Close,
    /// A version-matched Hello from this tenant was acknowledged.
    Greeted(String),
}

/// Answers `msg` as `Malformed`, then carries on as `then` says.
fn refuse(
    stream: &mut FramedStream,
    msg: impl Into<String>,
    then: ControlFlow,
) -> io::Result<ControlFlow> {
    send(stream, &Response::Error(WireError::Malformed(msg.into())))?;
    Ok(then)
}

/// Answers one frame for the connection's `tenant`, which is `None` until
/// the handshake: then only a version-matched Hello is accepted, and
/// anything else is refused and closes the connection.
fn handle_request(
    frame: &[u8],
    tenant: Option<&str>,
    shared: &Shared,
    stream: &mut FramedStream,
) -> io::Result<ControlFlow> {
    match (Request::decode(frame), tenant) {
        (Some(Request::Hello { version, tenant }), _) if version == PROTOCOL_VERSION => {
            // The handshake, or an idempotent re-ack: a client whose
            // HelloOk was corrupted in flight re-sends Hello on the same
            // connection and must be able to recover without reconnecting.
            send(
                stream,
                &Response::HelloOk {
                    version: PROTOCOL_VERSION,
                },
            )?;
            Ok(ControlFlow::Greeted(tenant))
        }
        (Some(Request::Hello { version, .. }), None) => refuse(
            stream,
            format!("protocol version mismatch: client {version}, daemon {PROTOCOL_VERSION}"),
            ControlFlow::Close,
        ),
        (_, None) => refuse(
            stream,
            "expected Hello as the first request",
            ControlFlow::Close,
        ),
        (None, Some(_)) => refuse(stream, "undecodable request frame", ControlFlow::Continue),
        (Some(Request::Hello { .. }), Some(_)) => {
            refuse(stream, "duplicate Hello", ControlFlow::Continue)
        }
        (Some(Request::Shutdown), Some(_)) => {
            shared.shutting_down.store(true, Ordering::SeqCst);
            send(stream, &Response::ShutdownOk)?;
            Ok(ControlFlow::Close)
        }
        (Some(Request::Launch(spec)), Some(tenant)) => {
            if shared.shutting_down() {
                send(stream, &Response::Error(WireError::Shutdown))?;
                return Ok(ControlFlow::Continue);
            }
            let result = run_spec(shared, tenant, spec, true).map(|(r, d)| (r, d.unwrap()));
            send(stream, &Response::Launch { result })?;
            Ok(ControlFlow::Continue)
        }
        (Some(Request::Batch(specs) | Request::Sweep(specs)), Some(tenant)) => {
            if shared.shutting_down() {
                send(stream, &Response::Error(WireError::Shutdown))?;
                return Ok(ControlFlow::Continue);
            }
            let before = memo_counters();
            let net_before = net_counters();
            for (i, spec) in specs.into_iter().enumerate() {
                let result = run_spec(shared, tenant, spec, false).map(|(r, _)| r);
                send(
                    stream,
                    &Response::Item {
                        index: i as u32,
                        result,
                    },
                )?;
            }
            send(
                stream,
                &Response::Done {
                    counters: memo_counters().since(&before),
                    net: net_counters().since(&net_before),
                },
            )?;
            Ok(ControlFlow::Continue)
        }
    }
}

/// Validates, admits, and runs one spec. `want_delta` controls whether
/// device memory is diffed around the launch (single launches return
/// results; batch/sweep items are measurement-only).
///
/// Every word-carrying step is one pass: the writes are checked without an
/// early exit (the first offender is looked up only when there is one),
/// become the pre-launch image in one `Vec` (the last write to an address
/// wins), reach device memory in one bulk copy, and the delta is the live
/// memory diffed against that image.
#[allow(clippy::type_complexity)]
fn run_spec(
    shared: &Shared,
    tenant: &str,
    spec: WireLaunch,
    want_delta: bool,
) -> Result<(LaunchReport, Option<Vec<(u32, u32)>>), WireError> {
    if spec.mem_bytes > MAX_MEM_BYTES {
        return Err(WireError::Malformed(format!(
            "mem_bytes {} exceeds the {MAX_MEM_BYTES}-byte cap",
            spec.mem_bytes
        )));
    }
    spec.kernel
        .validate()
        .map_err(|e| WireError::Malformed(format!("kernel {}: {e}", spec.kernel.name)))?;
    let words = spec.mem_bytes.div_ceil(4);
    let bad = |&(addr, _): &(u32, u32)| (addr % 4 != 0) | (addr / 4 >= words);
    if spec.writes.iter().fold(false, |any, w| any | bad(w)) {
        let (addr, _) = spec.writes.iter().find(|w| bad(w)).unwrap();
        return Err(WireError::Malformed(format!(
            "initial write at {addr:#x} is unaligned or out of bounds"
        )));
    }
    if let Some((base, len)) = spec.tex_binding {
        if (base as u64) + (len as u64) > spec.mem_bytes as u64 {
            return Err(WireError::Malformed(format!(
                "texture binding {base:#x}+{len:#x} exceeds device memory"
            )));
        }
    }

    let permit = match shared.admission.admit(tenant, spec.dims.total_blocks()) {
        Verdict::Admitted(p) => p,
        Verdict::Rejected(reason) => return Err(WireError::Rejected(reason)),
        Verdict::Throttled(reason) => return Err(WireError::Throttled(reason)),
    };

    let mut image = vec![0u32; words as usize];
    for &(addr, word) in &spec.writes {
        image[(addr / 4) as usize] = word;
    }
    drop(spec.writes);
    let mut mem = DeviceMemory::new(spec.mem_bytes);
    mem.write_slice(0, image.iter().copied());
    mem.const_bank = spec.const_bank;
    mem.tex_binding = spec.tex_binding;
    let report = launch_reported(&shared.gpu, &spec.kernel, spec.dims, &spec.params, &mem)
        .map_err(|e| WireError::from(&e))?;
    drop(permit);
    let delta = want_delta.then(|| {
        image
            .iter()
            .zip(mem.read_slice(0, image.len()))
            .enumerate()
            .filter(|(_, (&b, a))| b != *a)
            .map(|(i, (_, a))| ((i * 4) as u32, a))
            .collect()
    });
    Ok((report, delta))
}
