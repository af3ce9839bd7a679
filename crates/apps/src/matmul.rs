//! Dense single-precision matrix multiplication — the paper's Section 4
//! worked example and Figure 4 sweep.
//!
//! Variants:
//! * [`Variant::Naive`] — Figure 3(a): one global load per input element per
//!   use; eight instructions per loop iteration, one FMA among them.
//! * [`Variant::Tiled`] — Figure 3(b): t×t shared-memory tiles, cooperative
//!   coalesced loading, optional full unrolling of the dot-product loop
//!   (Section 4.3's "59 instructions, 16 of them FMAs").
//! * [`Variant::Prefetch`] — Section 4.4: next-tile global loads overlap the
//!   current tile's computation, at the price of two more registers.

use crate::common;
use g80_cuda::{BatchLaunch, CpuWork, Device, DeviceBuffer, Timeline};
use g80_isa::builder::{KernelBuilder, Unroll};
use g80_isa::inst::{CmpOp, Operand, Pred, Scalar};
use g80_isa::{Kernel, Reg, Value};
use g80_sim::KernelStats;
use std::collections::HashMap;
use std::sync::{Arc, LazyLock, Mutex, PoisonError};

/// Which matmul kernel to build.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Variant {
    /// Figure 3(a): no data reuse.
    Naive,
    /// Figure 3(b): shared-memory tiling with tile size `tile`
    /// (4, 8, 12, or 16), dot-product loop optionally fully unrolled.
    Tiled { tile: u32, unroll: bool },
    /// Tiled 16×16 + unrolled + next-tile register prefetch.
    Prefetch { tile: u32 },
    /// Register tiling on top of 16×16 shared tiles: each thread computes
    /// two C rows, so every Bs value loaded from shared memory feeds two
    /// FMAs (2 FMAs per 5 instructions instead of 1 per ~3.7). The
    /// optimization from the authors' companion study (\[22\] in the paper)
    /// that pushed SGEMM past the 91-GFLOPS endpoint of Section 4.
    RegTiled { tile: u32 },
}

impl Variant {
    /// The auto-tuner's search space (Section 6): naive, tiled 4/8/16 rolled
    /// and unrolled, prefetch, register tiling — nine kernels.
    pub fn tuner_sweep() -> Vec<Variant> {
        let mut v = vec![Variant::Naive];
        for tile in [4, 8, 16] {
            for unroll in [false, true] {
                v.push(Variant::Tiled { tile, unroll });
            }
        }
        v.push(Variant::Prefetch { tile: 16 });
        v.push(Variant::RegTiled { tile: 16 });
        v
    }

    /// Block shape (x, y). Register tiling halves the y extent: each
    /// thread covers two C rows.
    pub fn block_shape(&self) -> (u32, u32) {
        match *self {
            Variant::Naive => (16, 16),
            Variant::Tiled { tile, .. } | Variant::Prefetch { tile } => (tile, tile),
            Variant::RegTiled { tile } => (tile, tile / 2),
        }
    }

    /// Block edge (tile size; 16 for the naive version).
    pub fn block_edge(&self) -> u32 {
        match *self {
            Variant::Naive => 16,
            Variant::Tiled { tile, .. }
            | Variant::Prefetch { tile }
            | Variant::RegTiled { tile } => tile,
        }
    }

    /// Display name for reports.
    pub fn label(&self) -> String {
        match *self {
            Variant::Naive => "not tiled".into(),
            Variant::Tiled {
                tile,
                unroll: false,
            } => format!("{tile}x{tile} tiled"),
            Variant::Tiled { tile, unroll: true } => format!("{tile}x{tile} tiled+unrolled"),
            Variant::Prefetch { tile } => format!("{tile}x{tile} tiled+unrolled+prefetch"),
            Variant::RegTiled { tile } => format!("{tile}x{tile} tiled+register tiling"),
        }
    }
}

/// The matrix-multiplication workload: C = A × B, square n×n.
#[derive(Copy, Clone, Debug)]
pub struct MatMul {
    pub n: u32,
}

/// Built kernels by `(n, variant)`; see [`MatMul::shared_kernel`].
type BuiltKernels = HashMap<(u32, Variant), Arc<Kernel>>;
static BUILT: LazyLock<Mutex<BuiltKernels>> = LazyLock::new(Mutex::default);
/// Bound on [`BUILT`] (a sweep family at a few sizes is a few dozen kernels
/// of a few KB each).
const BUILT_CAP: usize = 64;

impl MatMul {
    /// Generates the two input matrices.
    pub fn generate(&self, seed: u64) -> (Vec<f32>, Vec<f32>) {
        let n = (self.n * self.n) as usize;
        (
            common::random_f32(seed, n, 0.0, 1.0),
            common::random_f32(seed ^ 0x9e37_79b9, n, 0.0, 1.0),
        )
    }

    /// Sequential reference (same k-order as the kernels, so results match
    /// bit-for-bit).
    pub fn cpu_reference(&self, a: &[f32], b: &[f32]) -> Vec<f32> {
        let n = self.n as usize;
        let mut c = vec![0.0f32; n * n];
        for i in 0..n {
            for j in 0..n {
                let mut acc = 0.0f32;
                for k in 0..n {
                    acc += a[i * n + k] * b[k * n + j];
                }
                c[i * n + j] = acc;
            }
        }
        c
    }

    /// CPU work description for the paper-style baseline (a tuned SSE2
    /// library is compute-bound at 2n³ FLOPs).
    pub fn cpu_work(&self) -> CpuWork {
        let n = self.n as f64;
        CpuWork {
            flops: 2.0 * n * n * n,
            bytes: 3.0 * n * n * 4.0,
            int_ops: n * n * n * 0.25, // blocked-loop addressing overhead
            ..Default::default()
        }
    }

    /// The kernel for a variant (an owned copy of the shared build).
    pub fn kernel(&self, variant: Variant) -> Kernel {
        Kernel::clone(&self.shared_kernel(variant))
    }

    /// The kernel for a variant, built on first request and shared after:
    /// the build is a pure function of `(n, variant)` and the paper's method
    /// — walks, sweeps, the tuner — asks for the same handful of kernels
    /// thousands of times (a rebuild was a third of a revisit sweep). The
    /// map holds no configuration and nothing observable but time; when
    /// full it is simply emptied, and a later request rebuilds.
    fn shared_kernel(&self, variant: Variant) -> Arc<Kernel> {
        let key = (self.n, variant);
        // Every update leaves the map valid, so a poisoned lock is usable.
        let built = || BUILT.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(kernel) = built().get(&key) {
            return Arc::clone(kernel);
        }
        // Built outside the lock: a build can panic (a size the tile does
        // not divide) and two threads racing here build equal kernels.
        let kernel = Arc::new(self.build(variant));
        let mut built = built();
        if built.len() >= BUILT_CAP {
            built.clear();
        }
        built.insert(key, Arc::clone(&kernel));
        kernel
    }

    /// Builds the kernel for a variant.
    fn build(&self, variant: Variant) -> Kernel {
        match variant {
            Variant::Naive => self.naive_kernel(),
            Variant::Tiled { tile, unroll } => self.tiled_kernel(tile, unroll, false),
            Variant::Prefetch { tile } => self.tiled_kernel(tile, true, true),
            Variant::RegTiled { tile } => self.regtiled_kernel(tile),
        }
    }

    /// Register-tiled kernel: a t×t C tile per block of t×(t/2) threads;
    /// thread (tx, ty) computes C rows 2ty and 2ty+1 of column tx, so each
    /// Bs[k][tx] load is shared by two accumulators.
    fn regtiled_kernel(&self, t: u32) -> Kernel {
        let n = self.n;
        assert!(n.is_multiple_of(t) && t.is_multiple_of(2));
        let ntiles = n / t;
        let mut b = KernelBuilder::new(&format!("mmul_regtiled{t}"));
        let (pa, pb, pc) = (b.param(), b.param(), b.param());
        let smem_a = b.shared_alloc(t * t);
        let smem_b = b.shared_alloc(t * t);
        debug_assert_eq!(smem_a, 0);
        let bs_off = smem_b as i32;

        let tx = b.tid_x();
        let ty = b.tid_y();
        let bx = b.ctaid_x();
        let by = b.ctaid_y();
        // My two C rows and one column.
        let ty2 = b.shl(ty, 1u32);
        let row0 = b.imad(by, t, ty2);
        let col = b.imad(bx, t, tx);

        // Cooperative loads: each thread loads two elements of each tile,
        // rows 2ty and 2ty+1, column tx — both coalesced.
        // A[row][m*t + tx]:
        let an = b.imad(row0, n, tx);
        let ab = b.shl(an, 2u32);
        let a_addr = b.iadd(ab, pa); // row0's element; row1 at +n*4
                                     // B[m*t + 2ty..][col]:
        let bn = b.imad(ty2, n, col);
        let bb = b.shl(bn, 2u32);
        let b_addr = b.iadd(bb, pb);

        // Shared store slots (2ty*t + tx) and (2ty+1)*t + tx.
        let so = b.imad(ty2, t, tx);
        let s_st = b.shl(so, 2u32);
        // Read bases: As rows 2ty, 2ty+1; Bs column tx.
        let tyt = b.imul(ty2, t * 4);
        let tx4 = b.shl(tx, 2u32);

        let cn = b.imad(row0, n, col);
        let cb = b.shl(cn, 2u32);
        let c_addr = b.iadd(cb, pc);

        let acc0 = b.mov(Operand::imm_f(0.0));
        let acc1 = b.mov(Operand::imm_f(0.0));
        let m = b.mov(Operand::imm_u(0));
        b.do_while(|b| {
            let av0 = b.ld_global(a_addr, 0);
            let av1 = b.ld_global(a_addr, (n * 4) as i32);
            let bv0 = b.ld_global(b_addr, 0);
            let bv1 = b.ld_global(b_addr, (n * 4) as i32);
            b.st_shared(s_st, 0, av0);
            b.st_shared(s_st, (t * 4) as i32, av1);
            b.st_shared(s_st, bs_off, bv0);
            b.st_shared(s_st, bs_off + (t * 4) as i32, bv1);
            b.bar();
            b.for_range(0u32, t, 1, Unroll::Full, |b, kk| {
                let kki = kk.as_imm().unwrap().as_u32() as i32;
                let bv = b.ld_shared(tx4, bs_off + kki * t as i32 * 4);
                let a0 = b.ld_shared(tyt, kki * 4);
                b.ffma_to(acc0, a0, bv, acc0);
                let a1 = b.ld_shared(tyt, (t as i32) * 4 + kki * 4);
                b.ffma_to(acc1, a1, bv, acc1);
            });
            b.bar();
            b.iadd_to(a_addr, a_addr, t * 4);
            b.iadd_to(b_addr, b_addr, t * n * 4);
            b.iadd_to(m, m, 1u32);
            let p = b.setp(CmpOp::Lt, Scalar::U32, m, ntiles);
            Pred::if_true(p)
        });
        b.st_global(c_addr, 0, acc0);
        b.st_global(c_addr, (n * 4) as i32, acc1);
        b.build()
    }

    fn naive_kernel(&self) -> Kernel {
        let n = self.n;
        let mut b = KernelBuilder::new("mmul_naive");
        let (pa, pb, pc) = (b.param(), b.param(), b.param());
        let tx = b.tid_x();
        let ty = b.tid_y();
        let bx = b.ctaid_x();
        let by = b.ctaid_y();
        let row = b.imad(by, 16u32, ty);
        let col = b.imad(bx, 16u32, tx);

        // indexA walks a row of A (stride 4 B), indexB a column of B
        // (stride 4n B) — exactly Figure 3(a).
        let rn = b.imul(row, n * 4);
        let a_addr = b.iadd(rn, pa);
        let c4 = b.shl(col, 2u32);
        let b_addr = b.iadd(c4, pb);
        // C address precomputed so `row`/`col` die before the loop.
        let cn = b.imad(row, n, col);
        let cb = b.shl(cn, 2u32);
        let c_addr = b.iadd(cb, pc);

        let acc = b.mov(Operand::imm_f(0.0));
        let k = b.mov(Operand::imm_u(0));
        b.do_while(|b| {
            let av = b.ld_global(a_addr, 0);
            let bv = b.ld_global(b_addr, 0);
            b.ffma_to(acc, av, bv, acc);
            b.iadd_to(a_addr, a_addr, 4u32);
            b.iadd_to(b_addr, b_addr, n * 4);
            b.iadd_to(k, k, 1u32);
            let p = b.setp(CmpOp::Lt, Scalar::U32, k, n);
            Pred::if_true(p)
        });
        b.st_global(c_addr, 0, acc);
        b.build()
    }

    /// Emits the cooperative tile load + inner product; shared layout is
    /// As[t][t] at byte 0 and Bs[t][t] at byte t*t*4.
    fn tiled_kernel(&self, t: u32, unroll: bool, prefetch: bool) -> Kernel {
        let n = self.n;
        assert!(
            n.is_multiple_of(t),
            "matrix size {n} not divisible by tile {t}"
        );
        let ntiles = n / t;
        let name = match (unroll, prefetch) {
            (false, _) => format!("mmul_tiled{t}"),
            (true, false) => format!("mmul_tiled{t}_unrolled"),
            (true, true) => format!("mmul_tiled{t}_prefetch"),
        };
        let mut b = KernelBuilder::new(&name);
        let (pa, pb, pc) = (b.param(), b.param(), b.param());
        let smem_a = b.shared_alloc(t * t);
        let smem_b = b.shared_alloc(t * t);
        debug_assert_eq!(smem_a, 0);
        let bs_off = smem_b as i32;

        let tx = b.tid_x();
        let ty = b.tid_y();
        let bx = b.ctaid_x();
        let by = b.ctaid_y();
        let row = b.imad(by, t, ty);
        let col = b.imad(bx, t, tx);

        // Global pointers: A[row][m*t + tx], B[m*t + ty][col].
        let an = b.imad(row, n, tx);
        let ab = b.shl(an, 2u32);
        let a_addr = b.iadd(ab, pa);
        let bn = b.imad(ty, n, col);
        let bb = b.shl(bn, 2u32);
        let b_addr = b.iadd(bb, pb);

        // Shared store slot (ty*t + tx) and read bases.
        let so = b.imad(ty, t, tx);
        let s_st = b.shl(so, 2u32); // store address for both tiles (B at +bs_off)
        let tyt = b.imul(ty, t * 4); // As row base
        let tx4 = b.shl(tx, 2u32); // Bs column base (at +bs_off)

        let cn = b.imad(row, n, col);
        let cb = b.shl(cn, 2u32);
        let c_addr = b.iadd(cb, pc);

        let acc = b.mov(Operand::imm_f(0.0));

        let inner = |b: &mut KernelBuilder, acc: Reg| {
            if unroll {
                b.for_range(0u32, t, 1, Unroll::Full, |b, kk| {
                    let kki = kk.as_imm().unwrap().as_u32() as i32;
                    let av = b.ld_shared(tyt, kki * 4);
                    let bv = b.ld_shared(tx4, bs_off + kki * t as i32 * 4);
                    b.ffma_to(acc, av, bv, acc);
                });
            } else {
                let ka = b.mov(tyt);
                let kb = b.mov(tx4);
                let k = b.mov(Operand::imm_u(0));
                b.do_while(|b| {
                    let av = b.ld_shared(ka, 0);
                    let bv = b.ld_shared(kb, bs_off);
                    b.ffma_to(acc, av, bv, acc);
                    b.iadd_to(ka, ka, 4u32);
                    b.iadd_to(kb, kb, t * 4);
                    b.iadd_to(k, k, 1u32);
                    let p = b.setp(CmpOp::Lt, Scalar::U32, k, t);
                    Pred::if_true(p)
                });
            }
        };

        if prefetch {
            // Software pipeline: fetch tile m+1 while computing tile m.
            let av = b.ld_global(a_addr, 0);
            let bv = b.ld_global(b_addr, 0);
            let m = b.mov(Operand::imm_u(1));
            if ntiles > 1 {
                b.do_while(|b| {
                    b.st_shared(s_st, 0, av);
                    b.st_shared(s_st, bs_off, bv);
                    b.bar();
                    b.iadd_to(a_addr, a_addr, t * 4);
                    b.iadd_to(b_addr, b_addr, t * n * 4);
                    b.ld_to(g80_isa::Space::Global, av, a_addr, 0);
                    b.ld_to(g80_isa::Space::Global, bv, b_addr, 0);
                    inner(b, acc);
                    b.bar();
                    b.iadd_to(m, m, 1u32);
                    let p = b.setp(CmpOp::Lt, Scalar::U32, m, ntiles);
                    Pred::if_true(p)
                });
            }
            // Epilogue tile (no prefetch beyond the end).
            b.st_shared(s_st, 0, av);
            b.st_shared(s_st, bs_off, bv);
            b.bar();
            inner(&mut b, acc);
        } else {
            let m = b.mov(Operand::imm_u(0));
            b.do_while(|b| {
                let av = b.ld_global(a_addr, 0);
                let bv = b.ld_global(b_addr, 0);
                b.st_shared(s_st, 0, av);
                b.st_shared(s_st, bs_off, bv);
                b.bar();
                inner(b, acc);
                b.bar();
                b.iadd_to(a_addr, a_addr, t * 4);
                b.iadd_to(b_addr, b_addr, t * n * 4);
                b.iadd_to(m, m, 1u32);
                let p = b.setp(CmpOp::Lt, Scalar::U32, m, ntiles);
                Pred::if_true(p)
            });
        }
        b.st_global(c_addr, 0, acc);
        b.build()
    }

    /// Runs a variant on a fresh device; returns (C, kernel stats, timeline).
    pub fn run(
        &self,
        variant: Variant,
        a: &[f32],
        bm: &[f32],
    ) -> (Vec<f32>, KernelStats, Timeline) {
        let n = self.n;
        let elems = (n * n) as usize;
        assert_eq!(a.len(), elems);
        assert_eq!(bm.len(), elems);
        let mut dev = Device::new(3 * n * n * 4 + 4096);
        let da = dev.alloc::<f32>(elems);
        let db = dev.alloc::<f32>(elems);
        let dc = dev.alloc::<f32>(elems);
        dev.copy_to_device(&da, a);
        dev.copy_to_device(&db, bm);

        let kernel = self.shared_kernel(variant);
        let t = variant.block_edge();
        let (bx, by) = variant.block_shape();
        let stats = dev
            .launch(
                &kernel,
                (n / t, n / t),
                (bx, by, 1),
                &[da.as_param(), db.as_param(), dc.as_param()],
            )
            .unwrap_or_else(|e| panic!("matmul launch failed: {e}"));
        let c = dev.copy_from_device(&dc);
        (c, stats, dev.timeline())
    }

    /// Runs many variants as **one batched launch** — each variant on its
    /// own fresh device, all launches sharing the simulator's predecode
    /// cache and worker pool (see [`g80_cuda::launch_batch`]). Results are
    /// in `variants` order and bit-identical to per-variant [`MatMul::run`]
    /// calls.
    pub fn run_batch(
        &self,
        variants: &[Variant],
        a: &[f32],
        bm: &[f32],
    ) -> Vec<(Vec<f32>, KernelStats, Timeline)> {
        let n = self.n;
        let elems = (n * n) as usize;
        assert_eq!(a.len(), elems);
        assert_eq!(bm.len(), elems);

        struct Prep {
            dev: Device,
            kernel: Arc<Kernel>,
            params: [Value; 3],
            dc: DeviceBuffer<f32>,
        }
        let preps: Vec<Prep> = variants
            .iter()
            .map(|&v| {
                let mut dev = Device::new(3 * n * n * 4 + 4096);
                let da = dev.alloc::<f32>(elems);
                let db = dev.alloc::<f32>(elems);
                let dc = dev.alloc::<f32>(elems);
                dev.copy_to_device(&da, a);
                dev.copy_to_device(&db, bm);
                Prep {
                    kernel: self.shared_kernel(v),
                    params: [da.as_param(), db.as_param(), dc.as_param()],
                    dc,
                    dev,
                }
            })
            .collect();
        let entries: Vec<BatchLaunch> = variants
            .iter()
            .zip(&preps)
            .map(|(&v, p)| {
                let t = v.block_edge();
                let (bx, by) = v.block_shape();
                BatchLaunch {
                    device: &p.dev,
                    kernel: &p.kernel,
                    grid: (n / t, n / t),
                    block: (bx, by, 1),
                    params: &p.params,
                }
            })
            .collect();
        let results = g80_cuda::launch_batch(&entries);
        variants
            .iter()
            .zip(&preps)
            .zip(results)
            .map(|((v, p), r)| {
                let stats =
                    r.unwrap_or_else(|e| panic!("matmul launch failed ({}): {e}", v.label()));
                (p.dev.copy_from_device(&p.dc), stats, p.dev.timeline())
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::max_rel_error;
    use g80_isa::InstClass;

    fn check_variant(n: u32, v: Variant) {
        let mm = MatMul { n };
        let (a, b) = mm.generate(42);
        let want = mm.cpu_reference(&a, &b);
        let (got, stats, _) = mm.run(v, &a, &b);
        let err = max_rel_error(&got, &want);
        assert!(err < 1e-5, "{}: max rel error {err}", v.label());
        assert!(stats.flops >= 2 * (n as u64).pow(3));
    }

    #[test]
    fn naive_matches_reference() {
        check_variant(64, Variant::Naive);
    }

    #[test]
    fn tiled_matches_reference_all_tile_sizes() {
        for tile in [4u32, 8, 16] {
            check_variant(
                64,
                Variant::Tiled {
                    tile,
                    unroll: false,
                },
            );
            check_variant(64, Variant::Tiled { tile, unroll: true });
        }
        // 12x12 tiles need a 12-divisible size.
        check_variant(
            96,
            Variant::Tiled {
                tile: 12,
                unroll: true,
            },
        );
    }

    #[test]
    fn prefetch_matches_reference() {
        check_variant(64, Variant::Prefetch { tile: 16 });
    }

    #[test]
    fn register_tiling_matches_reference_and_wins() {
        check_variant(64, Variant::RegTiled { tile: 16 });
        // The companion-study optimization beats the Section 4 endpoint:
        // 2 FMAs per Bs load raises the issue-bound roofline.
        let mm = MatMul { n: 128 };
        let (a, b) = mm.generate(9);
        let (_, unrolled, _) = mm.run(
            Variant::Tiled {
                tile: 16,
                unroll: true,
            },
            &a,
            &b,
        );
        let (_, regtiled, _) = mm.run(Variant::RegTiled { tile: 16 }, &a, &b);
        assert!(
            regtiled.gflops() > 1.05 * unrolled.gflops(),
            "register tiling {} vs unrolled {}",
            regtiled.gflops(),
            unrolled.gflops()
        );
    }

    #[test]
    fn batched_run_matches_per_variant_runs_bit_for_bit() {
        let mm = MatMul { n: 64 };
        let (a, b) = mm.generate(7);
        let variants = [
            Variant::Naive,
            Variant::Tiled {
                tile: 8,
                unroll: false,
            },
            Variant::Tiled {
                tile: 16,
                unroll: true,
            },
            Variant::RegTiled { tile: 16 },
        ];
        let batched = mm.run_batch(&variants, &a, &b);
        assert_eq!(batched.len(), variants.len());
        for (&v, (c, stats, timeline)) in variants.iter().zip(&batched) {
            let (want_c, want_stats, _) = mm.run(v, &a, &b);
            assert_eq!(c, &want_c, "{}", v.label());
            assert_eq!(stats.cycles, want_stats.cycles, "{}", v.label());
            assert_eq!(stats.flops, want_stats.flops, "{}", v.label());
            assert_eq!(timeline.launches, 1);
        }
    }

    fn assert_same_kernel(what: &str, got: &Kernel, want: &Kernel) {
        assert_eq!(got.name, want.name, "{what}: name");
        assert_eq!(got.code, want.code, "{what}: code");
        assert_eq!(got.regs_per_thread, want.regs_per_thread, "{what}: regs");
        assert_eq!(got.smem_bytes, want.smem_bytes, "{what}: smem");
        assert_eq!(got.num_params, want.num_params, "{what}: params");
    }

    #[test]
    fn shared_kernels_equal_fresh_builds() {
        for n in [16, 48] {
            let mm = MatMul { n };
            for v in Variant::tuner_sweep() {
                let what = format!("n={n} {}", v.label());
                let fresh = mm.build(v);
                // Twice: the build that fills the map and the copy out of it.
                assert_same_kernel(&what, &mm.kernel(v), &fresh);
                assert_same_kernel(&what, &mm.kernel(v), &fresh);
                // A caller's edit to its copy stays the caller's.
                let forced = mm.kernel(v).with_forced_regs(63);
                assert_eq!(forced.regs_per_thread, 63);
                assert_same_kernel(&what, &mm.kernel(v), &fresh);
            }
        }
    }

    #[test]
    fn shared_kernels_agree_across_threads_and_past_the_bound() {
        let mm = MatMul { n: 80 };
        let v = Variant::Tiled {
            tile: 16,
            unroll: true,
        };
        let fresh = mm.build(v);
        // Eight threads released together onto a key no other test uses.
        let gate = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            let asked: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        gate.wait();
                        mm.kernel(v)
                    })
                })
                .collect();
            for (i, h) in asked.into_iter().enumerate() {
                let got = h.join().expect("kernel() panicked");
                assert_same_kernel(&format!("thread {i}"), &got, &fresh);
            }
        });
        // More distinct keys than the map holds: it empties itself on the
        // way and every answer, old key or new, is still the fresh build.
        for n in (16..).step_by(16).take(BUILT_CAP + 16) {
            let mm = MatMul { n };
            assert_same_kernel(
                &format!("naive n={n}"),
                &mm.kernel(Variant::Naive),
                &mm.build(Variant::Naive),
            );
        }
        assert_same_kernel("after the map rolled over", &mm.kernel(v), &fresh);
    }

    #[test]
    fn naive_loop_is_eight_instructions_with_one_fma() {
        // Section 4.1: "approximately one fused multiply-add out of eight
        // operations in the inner loop".
        let k = MatMul { n: 256 }.kernel(Variant::Naive);
        // The inner loop: ld, ld, fma, iadd, iadd, iadd, setp, bra.
        let mix = k.static_mix();
        assert_eq!(mix.get(InstClass::LdGlobal), 2);
        assert_eq!(mix.get(InstClass::Fma), 1);
        // Loop body: 8 instructions (the preamble adds a handful more).
        assert!(k.regs_per_thread <= 10, "regs = {}", k.regs_per_thread);
    }

    #[test]
    fn unrolled_16_tile_mix_matches_paper() {
        // Section 4.3: "approximately 16 out of 59 instructions, slightly
        // higher than 1/4, are fused multiply-adds".
        let k = MatMul { n: 256 }.kernel(Variant::Tiled {
            tile: 16,
            unroll: true,
        });
        let mix = k.static_mix();
        assert_eq!(mix.get(InstClass::Fma), 16);
        // 21-instruction preamble + loop body + st.global + exit: the
        // dynamic per-tile iteration is 59 instructions, as in the paper.
        let per_tile = mix.total() - 23;
        assert_eq!(per_tile, 59, "per-tile instruction count");
        assert_eq!(mix.get(InstClass::LdShared), 32);
    }

    #[test]
    fn prefetch_uses_more_registers_than_tiled() {
        // Section 4.4: prefetching "increases the number of registers
        // required by each thread by two".
        let mm = MatMul { n: 256 };
        let tiled = mm.kernel(Variant::Tiled {
            tile: 16,
            unroll: true,
        });
        let pre = mm.kernel(Variant::Prefetch { tile: 16 });
        assert!(
            pre.regs_per_thread >= tiled.regs_per_thread + 2,
            "prefetch {} vs tiled {}",
            pre.regs_per_thread,
            tiled.regs_per_thread
        );
    }

    #[test]
    fn tiled_reduces_global_traffic_by_tile_factor() {
        let mm = MatMul { n: 128 };
        let (a, b) = mm.generate(1);
        let (_, naive, _) = mm.run(Variant::Naive, &a, &b);
        let (_, tiled, _) = mm.run(
            Variant::Tiled {
                tile: 16,
                unroll: false,
            },
            &a,
            &b,
        );
        // 16x16 tiling cuts global *load requests* by 16x (Section 4.2).
        let naive_lds = naive.by_class[&InstClass::LdGlobal];
        let tiled_lds = tiled.by_class[&InstClass::LdGlobal];
        assert_eq!(naive_lds, 16 * tiled_lds);
        assert!(tiled.global_bytes < naive.global_bytes);
    }
}
