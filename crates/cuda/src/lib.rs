//! # g80-cuda — the host runtime of the reproduction
//!
//! Plays the role of the CUDA runtime API on top of the `g80-sim` machine:
//! [`Device`] owns the simulated GPU, allocates [`DeviceBuffer`]s, performs
//! host↔device copies through a PCIe model, uploads constant memory, binds
//! textures, and launches kernels while accumulating a [`Timeline`] of
//! kernel vs transfer time (the Table 3 columns).
//!
//! It also hosts the [`cpu::CpuModel`] — the calibrated Opteron 248 roofline
//! against which all paper-style speedups are computed.
//!
//! ```
//! use g80_cuda::{Device, CpuModel, CpuTuning, CpuWork};
//! use g80_isa::builder::KernelBuilder;
//!
//! let mut dev = Device::new(1 << 16);
//! let buf = dev.alloc::<f32>(256);
//! dev.copy_to_device(&buf, &vec![2.0f32; 256]);
//!
//! let mut b = KernelBuilder::new("square");
//! let p = b.param();
//! let tid = b.tid_x();
//! let byte = b.shl(tid, 2u32);
//! let a = b.iadd(byte, p);
//! let v = b.ld_global(a, 0);
//! let sq = b.fmul(v, v);
//! b.st_global(a, 0, sq);
//! let k = b.build();
//!
//! dev.launch(&k, (1, 1), (256, 1, 1), &[buf.as_param()]).unwrap();
//! assert!(dev.copy_from_device(&buf).iter().all(|&x| x == 4.0));
//!
//! // Speedup vs the 2008 CPU baseline:
//! let cpu = CpuModel::opteron_248();
//! let cpu_time = cpu.time(&CpuWork { flops: 256.0, bytes: 2048.0, ..Default::default() },
//!                         CpuTuning::SimdFastMath);
//! assert!(cpu_time > 0.0);
//! ```

#![warn(clippy::too_many_lines)]
#![warn(unreachable_pub)]

mod cpu;
mod device;
mod transfer;

pub use cpu::{CpuModel, CpuTuning, CpuWork};
pub use device::{launch_batch, BatchLaunch, Device, DeviceBuffer, Timeline, Word32};
