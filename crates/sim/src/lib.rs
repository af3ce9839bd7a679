//! # g80-sim — a cycle-approximate GeForce 8800 GTX performance simulator
//!
//! The machine substrate for the reproduction of Ryoo et al. (PPoPP 2008).
//! Executes [`g80_isa::Kernel`]s functionally (bit-accurate integer ops,
//! host-f32 floating point) while modeling the G80 timing mechanisms the
//! paper's optimization principles hinge on:
//!
//! * one instruction-issue port per SM, 4 cycles per warp instruction
//!   (16 for SFU transcendentals and 32-bit integer multiplies);
//! * a per-warp scoreboard — memory latency hides only when other warps or
//!   independent instructions are available (principle 1);
//! * CC 1.0 half-warp coalescing rules and a bandwidth-limited DRAM channel
//!   (86.4 GB/s chip-wide, partitioned per SM);
//! * 16-bank shared memory with conflict serialization and broadcast
//!   (principle 3);
//! * per-SM constant and texture caches;
//! * SIMD divergence via a reconvergence stack (principle 3);
//! * occupancy limits — 768 threads / 24 warps / 8 blocks / 8192 registers /
//!   16 KB shared memory per SM (principle 2).
//!
//! ```
//! use g80_isa::builder::KernelBuilder;
//! use g80_sim::{launch, DeviceMemory, GpuConfig, LaunchDims};
//! use g80_isa::Value;
//!
//! // Doubles 1024 floats in place.
//! let mut b = KernelBuilder::new("double");
//! let buf = b.param();
//! let tid = b.tid_x();
//! let ntid = b.ntid_x();
//! let cta = b.ctaid_x();
//! let i = b.imad(cta, ntid, tid);
//! let byte = b.shl(i, 2u32);
//! let a = b.iadd(byte, buf);
//! let v = b.ld_global(a, 0);
//! let d = b.fadd(v, v);
//! b.st_global(a, 0, d);
//! let k = b.build();
//!
//! let cfg = GpuConfig::geforce_8800_gtx();
//! let mem = DeviceMemory::new(4096);
//! for i in 0..1024u32 {
//!     mem.write(i * 4, Value::from_f32(i as f32));
//! }
//! let stats = launch(
//!     &cfg,
//!     &k,
//!     LaunchDims { grid: (8, 1), block: (128, 1, 1) },
//!     &[Value::from_u32(0)],
//!     &mem,
//! )
//! .unwrap();
//! assert_eq!(mem.read(40).as_f32(), 20.0);
//! assert!(stats.cycles > 0);
//! assert_eq!(stats.coalesced_half_warps, 2 * 64); // 1 ld + 1 st per half-warp
//! ```

#![warn(clippy::too_many_lines)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod config;
pub mod context;
pub mod cost;
pub mod counters;
pub mod digest;
pub mod disk;
pub mod fault;
pub mod launch;
pub mod memo;
pub mod memory;
pub mod pool;
pub mod report;
pub mod sm;
mod step;
pub mod warp;
pub mod wire;
mod witness;

pub use config::{BlockLimits, GpuConfig};
pub use context::{SimConfig, SimContext};
pub use counters::{
    memo_counters, net_counters, note_net_disconnect, note_net_frame_retried, note_net_reconnect,
    row_counters, work_counters, KernelStats, MemoCounters, NetCounters, RowCounters, StallReason,
    WorkCounters,
};
pub use launch::{
    launch, launch_batch, launch_batch_traced, launch_traced, LaunchError, LaunchSpec,
};
pub use memo::{clear_memo_cache, kernel_info, KernelInfo, Served};
pub use memory::DeviceMemory;
pub use report::{launch_reported, LaunchReport, REPORT_VERSION};
pub use sm::LaunchDims;
