//! A fault-injecting frame proxy for the serve wire, and the wire chaos
//! legs that arm it.
//!
//! [`Proxy`] listens on loopback and, per accepted connection, dials the
//! daemon and forwards whole frames (`u32 LE len | payload | u32 crc`) in
//! each direction. Frames are numbered per [`Dir`] from the last
//! [`Proxy::plan`], across connections, and the [`Plan`] decides each
//! frame's [`Fault`] from (direction, index) alone, so a plan replays
//! exactly for a sequential client. A fire does one of five things:
//!
//! * `disconnect` — tear both connections down before the frame (pre) or
//!   after two of its header bytes (mid);
//! * `truncate` — forward the header and half the payload, then tear down;
//! * `corrupt` — flip one payload bit (the CRC when the payload is empty)
//!   and forward it under the original CRC, so the receiver's check must
//!   catch it;
//! * `split` — forward the frame in small flushed chunks;
//! * `stall` — wait 20–150 ms, then forward it.
//!
//! The daemon and the client see only the consequences: torn connections,
//! short frames, CRC mismatches, partial reads, delays. Uses std and the
//! simulator's `splitmix64` only.

use g80_sim::splitmix64;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// A frame's direction through the proxy.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Dir {
    /// Client to daemon: requests.
    Up = 0,
    /// Daemon to client: responses.
    Down = 1,
}

/// What a fire may do; a plan draws from a set of these.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Kind {
    Disconnect,
    Truncate,
    Corrupt,
    Split,
    Stall,
}

impl Kind {
    pub const ALL: [Kind; 5] = [
        Kind::Disconnect,
        Kind::Truncate,
        Kind::Corrupt,
        Kind::Split,
        Kind::Stall,
    ];
}

/// One frame's fault, every parameter fixed by the plan.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Fault {
    DisconnectPre,
    DisconnectMid,
    Truncate,
    /// Flip bit `bit` of payload byte `byte % len`.
    Corrupt {
        byte: u64,
        bit: u8,
    },
    Split,
    Stall {
        ms: u64,
    },
}

impl Fault {
    /// `kind` with its parameters taken from the hash bits `sub`.
    fn new(kind: Kind, sub: u64) -> Fault {
        match kind {
            Kind::Disconnect if sub & (1 << 8) == 0 => Fault::DisconnectPre,
            Kind::Disconnect => Fault::DisconnectMid,
            Kind::Truncate => Fault::Truncate,
            Kind::Corrupt => Fault::Corrupt {
                byte: sub >> 16,
                bit: ((sub >> 9) & 7) as u8,
            },
            Kind::Split => Fault::Split,
            Kind::Stall => Fault::Stall {
                ms: 20 + (sub >> 16) % 131,
            },
        }
    }
}

/// Which frames fault, and how.
#[derive(Clone, Debug, PartialEq)]
pub enum Plan {
    /// Every frame forwarded intact.
    Clean,
    /// Each frame fires with probability `rate`, its kind one of `kinds`:
    /// a pure function of (`seed`, direction, index).
    Seeded {
        seed: u64,
        rate: f64,
        kinds: Vec<Kind>,
    },
    /// Exactly frame `index` of `dir` fires, as `kind`.
    Exact { dir: Dir, index: u64, kind: Kind },
}

impl Plan {
    /// A seeded plan over every kind.
    pub fn seeded(seed: u64, rate: f64) -> Plan {
        Plan::only(seed, rate, &Kind::ALL)
    }

    /// A seeded plan over `kinds`.
    pub fn only(seed: u64, rate: f64, kinds: &[Kind]) -> Plan {
        let kinds = kinds.to_vec();
        Plan::Seeded { seed, rate, kinds }
    }

    /// The fault of frame `index` of `dir`, if it fires.
    pub fn decide(&self, dir: Dir, index: u64) -> Option<Fault> {
        let h = splitmix64(splitmix64(((dir as u64) << 56) ^ index));
        match self {
            Plan::Clean => None,
            Plan::Seeded { seed, rate, kinds } => {
                let h = splitmix64(seed ^ h);
                if ((h >> 11) as f64) / ((1u64 << 53) as f64) >= *rate {
                    return None;
                }
                let sub = splitmix64(h);
                Some(Fault::new(kinds[(sub % kinds.len() as u64) as usize], sub))
            }
            Plan::Exact {
                dir: d,
                index: i,
                kind,
            } => (*d == dir && *i == index).then(|| Fault::new(*kind, h)),
        }
    }
}

/// The plan and the per-direction frame and fire counts, shared by every
/// pump thread.
struct State {
    plan: Mutex<Plan>,
    frames: [AtomicU64; 2],
    fired: [AtomicU64; 2],
    /// Every fire as (direction, frame index), in order.
    log: Mutex<Vec<(Dir, u64)>>,
}

/// A running proxy; stops accepting when dropped (open connections run
/// until their peers close them).
pub struct Proxy {
    addr: String,
    state: Arc<State>,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl Proxy {
    /// Starts a proxy in front of the TCP daemon at `upstream`
    /// (`tcp:HOST:PORT` or `HOST:PORT`), faulting frames as `plan` says.
    pub fn start(upstream: &str, plan: Plan) -> Proxy {
        let upstream = upstream.trim_start_matches("tcp:").to_string();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
        listener.set_nonblocking(true).expect("nonblocking proxy");
        let addr = format!("tcp:{}", listener.local_addr().unwrap());
        let state = Arc::new(State {
            plan: Mutex::new(plan),
            frames: Default::default(),
            fired: Default::default(),
            log: Mutex::default(),
        });
        let stop = Arc::new(AtomicBool::new(false));
        let (st, stopped) = (Arc::clone(&state), Arc::clone(&stop));
        let accept = thread::spawn(move || {
            while !stopped.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((client, _)) => connect(client, &upstream, &st),
                    Err(_) => thread::sleep(Duration::from_millis(2)),
                }
            }
        });
        Proxy {
            addr,
            state,
            stop,
            accept: Some(accept),
        }
    }

    /// The address clients dial, `tcp:127.0.0.1:PORT`.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Replaces the plan and restarts frame numbering and fire counts.
    pub fn plan(&self, plan: Plan) {
        *self.state.plan.lock().unwrap() = plan;
        for n in self.state.frames.iter().chain(&self.state.fired) {
            n.store(0, Ordering::SeqCst);
        }
        self.state.log.lock().unwrap().clear();
    }

    /// Fires in `dir` since the last [`Proxy::plan`].
    pub fn fired(&self, dir: Dir) -> u64 {
        self.state.fired[dir as usize].load(Ordering::SeqCst)
    }

    /// Fires in both directions since the last [`Proxy::plan`].
    pub fn fired_total(&self) -> u64 {
        self.fired(Dir::Up) + self.fired(Dir::Down)
    }

    /// Every fire since the last [`Proxy::plan`] as (direction, index).
    pub fn log(&self) -> Vec<(Dir, u64)> {
        self.state.log.lock().unwrap().clone()
    }
}

impl Drop for Proxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

/// Dials the daemon for `client` and pumps frames both ways; a client the
/// daemon will not take is closed.
fn connect(client: TcpStream, upstream: &str, state: &Arc<State>) {
    let _ = client.set_nonblocking(false);
    let Ok(daemon) = TcpStream::connect(upstream) else {
        return;
    };
    for s in [&client, &daemon] {
        let _ = s.set_nodelay(true);
    }
    let (c2, d2) = (client.try_clone().unwrap(), daemon.try_clone().unwrap());
    let (up, down) = (Arc::clone(state), Arc::clone(state));
    thread::spawn(move || pump(Dir::Up, client, daemon, &up));
    thread::spawn(move || pump(Dir::Down, d2, c2, &down));
}

/// Forwards frames from `src` to `dst` until either side closes or a fault
/// tears the connection. A clean close is passed on as a half-close.
fn pump(dir: Dir, mut src: TcpStream, mut dst: TcpStream, state: &State) {
    let torn = loop {
        let mut frame = vec![0u8; 4];
        if src.read_exact(&mut frame).is_err() {
            break false;
        }
        let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
        frame.resize(4 + len + 4, 0);
        if src.read_exact(&mut frame[4..]).is_err() {
            break false;
        }
        let index = state.frames[dir as usize].fetch_add(1, Ordering::SeqCst);
        let fault = state.plan.lock().unwrap().decide(dir, index);
        if fault.is_some() {
            state.fired[dir as usize].fetch_add(1, Ordering::SeqCst);
            state.log.lock().unwrap().push((dir, index));
        }
        match forward(&mut dst, &mut frame, fault) {
            Ok(true) => {}
            Ok(false) => break true,
            Err(_) => break true,
        }
    };
    if torn {
        let _ = src.shutdown(Shutdown::Both);
        let _ = dst.shutdown(Shutdown::Both);
    } else {
        let _ = dst.shutdown(Shutdown::Write);
    }
}

/// Sends one whole `frame` to `dst` as `fault` says; `Ok(false)` when the
/// fault tears the connection down.
fn forward(dst: &mut TcpStream, frame: &mut [u8], fault: Option<Fault>) -> io::Result<bool> {
    let len = frame.len() - 8;
    match fault {
        None => dst.write_all(frame)?,
        Some(Fault::DisconnectPre) => return Ok(false),
        Some(Fault::DisconnectMid) => {
            dst.write_all(&frame[..2])?;
            return Ok(false);
        }
        Some(Fault::Truncate) => {
            dst.write_all(&frame[..4 + len / 2])?;
            return Ok(false);
        }
        Some(Fault::Corrupt { byte, bit }) => {
            // The payload, or the CRC when there is none.
            let i = if len == 0 {
                4
            } else {
                4 + (byte % len as u64) as usize
            };
            frame[i] ^= 1 << bit;
            dst.write_all(frame)?;
        }
        Some(Fault::Split) => {
            for piece in frame.chunks(frame.len().div_ceil(7)) {
                dst.write_all(piece)?;
                dst.flush()?;
                thread::sleep(Duration::from_millis(1));
            }
        }
        Some(Fault::Stall { ms }) => {
            thread::sleep(Duration::from_millis(ms));
            dst.write_all(frame)?;
        }
    }
    Ok(true)
}

/// The wire halves of the former CI chaos legs, by the values their
/// variables held: the plan each leg's proxy runs.
pub fn wire_legs() -> Vec<(&'static str, Plan)> {
    vec![
        ("net 7:0.02", Plan::seeded(7, 0.02)),
        ("net 9:0.01", Plan::seeded(9, 0.01)),
    ]
}
