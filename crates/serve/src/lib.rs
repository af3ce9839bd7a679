//! # g80-serve: simulation-as-a-service over the shared substrate
//!
//! One simulator process has expensive warm state: a work-stealing pool
//! sized to the host, a launch-memo LRU, and optionally a persistent disk
//! cache. This crate turns that process into a daemon so many clients —
//! tuning sweeps, CI probes, batch experiments — share the warmth instead
//! of each paying cold-start and duplicating identical launches.
//!
//! The pieces:
//!
//! * [`protocol`] — versioned wire format, each message's layout declared
//!   once with `g80_sim::wire_layout!`: length-prefixed frames carrying
//!   typed [`Request`]/[`Response`] values. Kernels,
//!   launch dims, params, and initial memory travel in a [`WireLaunch`];
//!   results come back as serialized `LaunchReport`s with [`Served`]
//!   provenance and cache counters, so a client can tell *how* its answer
//!   was produced (simulated here, memo hit, disk hit).
//! * [`admission`] — per-tenant quotas (blocks per launch, in-flight
//!   blocks, queue depth) with round-robin fairness, so a tenant sweeping
//!   matmul-4096 cannot starve a probe fleet.
//! * [`server`] — the daemon: accept loop, per-connection threads, typed
//!   error responses for every failure (malformed frames, injected
//!   faults, panics, quota rejections, drain), never a dropped
//!   connection.
//! * [`client`] — blocking typed client with transparent retry of
//!   injected-fault errors, in-place re-request on frame corruption, and
//!   reconnect-and-replay (jittered exponential backoff) when the
//!   connection dies mid-request.
//! * [`framed`] — CRC-guarded framing over a [`net::Stream`]: every frame
//!   carries a CRC32 trailer, reads enforce idle/mid-frame deadlines, and
//!   the seeded [`netfault`] layer injects transport chaos at four sites
//!   (client/server × read/write) when the context's wire schedule is armed.
//! * [`netfault`] — what a fire of a context's wire schedule does:
//!   disconnects, truncation, bit corruption, frame splitting, stalls —
//!   bit-identical across reruns of the same seed.
//!
//! Every launch runs through `g80_sim::launch_reported` on the process-wide
//! pool and in the daemon's `SimContext`, so stats are bit-identical to an
//! in-process `launch` with the same `GpuConfig` — the golden cross-check
//! in `tests/serve_daemon.rs` asserts exactly that.
//!
//! [`Served`]: g80_sim::Served

pub mod admission;
pub mod client;
pub mod framed;
pub mod net;
pub mod netfault;
pub mod protocol;
pub mod server;

pub use admission::{Admission, Quota, Verdict};
pub use client::Client;
pub use framed::{is_crc_mismatch, FramedStream, Side};
pub use net::Addr;
pub use netfault::{NetFault, NetFaultConfig, NetFaultKind, NetSite};
pub use protocol::{Request, Response, WireError, WireLaunch, PROTOCOL_VERSION};
pub use server::{serve, ServeConfig, Server};
