//! # g80-isa — a PTX-like virtual ISA for the G80 reproduction
//!
//! This crate plays the role of CUDA C, nvcc, and PTX in the reproduction of
//! Ryoo et al. (PPoPP 2008). Kernels are written against the
//! [`builder::KernelBuilder`] DSL (structured control flow, `#pragma
//! unroll`-style loop unrolling), optimized by classical compiler passes
//! (`passes`: constant folding, copy propagation, CSE, strength reduction,
//! dead-code elimination), and register-allocated (`regalloc`) to produce a
//! flat [`Kernel`] that the `g80-sim` crate executes.
//!
//! The observables the paper's methodology needs all come out of this crate:
//!
//! * **instruction mix** (FMA fraction, global-access fraction) via
//!   [`InstMix`] — the input to Section 4's potential-throughput
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
#![warn(unreachable_pub)]

pub mod builder;
mod compile;
mod dataflow;
mod decode;
mod disasm;
mod exec;
mod inst;
mod kernel;
mod liveness;
mod passes;
mod regalloc;
mod row;
mod value;

pub use builder::{BuildOptions, KernelBuilder, Unroll};
pub use compile::CompiledKernel;
pub use dataflow::TaintSummary;
pub use decode::{DecodedKernel, IssueClass, MemKind, MicroOp};
pub use disasm::disassemble;
pub use inst::{
    AluOp, AtomOp, CmpOp, Inst, InstClass, Label, Operand, Pred, Reg, Scalar, SfuOp, Space,
    SpecialReg, UnOp,
};
pub use kernel::{InstMix, Kernel};
pub use passes::OptLevel;
pub use row::LaneRow;
pub use value::Value;

// The seam `g80-sim`, the reference engine and the property tests build on:
// each instruction's semantics (per lane and per row), the shaped-row folds,
// and the compiler's analyses and passes run on their own.
#[doc(hidden)]
pub use dataflow::analyze as analyze_taint;
#[doc(hidden)]
pub use exec::{
    eval_alu, eval_alu_row, eval_atom, eval_cmp, eval_cmp_row, eval_ffma, eval_ffma_row, eval_imad,
    eval_imad_row, eval_sel_row, eval_sfu, eval_sfu_row, eval_un, eval_un_row, true_mask, Row,
};
#[doc(hidden)]
pub use liveness::num_regs;
#[doc(hidden)]
pub use passes::run as optimize;
#[doc(hidden)]
pub use regalloc::allocate as allocate_registers;
#[doc(hidden)]
pub use row::{
    fold_alu, fold_cmp, fold_ffma, fold_imad, fold_sel, fold_sfu, fold_un, for_each_affine_lane,
    AffineTerms,
};
