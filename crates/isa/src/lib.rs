//! # g80-isa — a PTX-like virtual ISA for the G80 reproduction
//!
//! This crate plays the role of CUDA C, nvcc, and PTX in the reproduction of
//! Ryoo et al. (PPoPP 2008). Kernels are written against the
//! [`builder::KernelBuilder`] DSL (structured control flow, `#pragma
//! unroll`-style loop unrolling), optimized by classical compiler passes
//! ([`passes`]: constant folding, copy propagation, CSE, strength reduction,
//! dead-code elimination), and register-allocated ([`regalloc`]) to produce a
//! flat [`kernel::Kernel`] that the `g80-sim` crate executes.
//!
//! The observables the paper's methodology needs all come out of this crate:
//!
//! * **instruction mix** (FMA fraction, global-access fraction) via
//!   [`kernel::InstMix`] — the input to Section 4's potential-throughput
//!   estimates;
//! * **registers per thread** via the allocator — the input to the occupancy
//!   calculation;
//! * **shared memory per block** via the builder's static allocator.
//!
//! ```
//! use g80_isa::builder::KernelBuilder;
//!
//! // y[i] = a * x[i] + y[i]
//! let mut b = KernelBuilder::new("saxpy");
//! let (x, y, a) = (b.param(), b.param(), b.param());
//! let tid = b.tid_x();
//! let ntid = b.ntid_x();
//! let cta = b.ctaid_x();
//! let i = b.imad(cta, ntid, tid);
//! let byte = b.shl(i, 2u32);
//! let xa = b.iadd(byte, x);
//! let ya = b.iadd(byte, y);
//! let xv = b.ld_global(xa, 0);
//! let yv = b.ld_global(ya, 0);
//! let r = b.ffma(a, xv, yv);
//! b.st_global(ya, 0, r);
//! let kernel = b.build();
//! assert!(kernel.regs_per_thread <= 8);
//! ```

#![warn(clippy::too_many_lines)]

pub mod builder;
pub mod compile;
pub mod dataflow;
pub mod decode;
pub mod disasm;
pub mod exec;
pub mod inst;
pub mod kernel;
pub mod liveness;
pub mod passes;
pub mod regalloc;
pub mod row;

mod value;

pub use builder::{BuildOptions, KernelBuilder, Unroll};
pub use compile::CompiledKernel;
pub use dataflow::TaintSummary;
pub use decode::{DecodedKernel, IssueClass, MemKind, MicroOp};
pub use inst::{
    AluOp, AtomOp, CmpOp, Inst, InstClass, Label, Operand, Pred, Reg, Scalar, SfuOp, Space,
    SpecialReg, UnOp,
};
pub use kernel::{InstMix, Kernel};
pub use passes::OptLevel;
pub use row::LaneRow;
pub use value::Value;
