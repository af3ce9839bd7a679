//! Golden-stats equivalence: the product engine must be a pure host-side
//! optimization. Every workload here runs on the frozen reference engine
//! (`g80_oracle`, the oracle: instruction-at-a-time, eager warps,
//! definitional access costs) and on the product engine (`g80_sim::sm`:
//! predecoded micro-ops, tracked row shapes, pooled SM tasks) — and the
//! resulting [`KernelStats`] must match **field for field, bit for bit**:
//! cycles, stall attribution, traffic counters, everything. A single
//! diverging counter means the optimization changed simulated timing and is
//! a bug.
//!
//! The same contract covers the product's cache layers: block-class dedup,
//! the launch memo (cold and warm, roomy and evicting) and the disk tier
//! must reproduce the oracle's stats — every workload runs under every
//! configuration of [`common::contexts`],
//! one `#[test]` per workload.

use g80::apps::cp::CoulombicPotential;
use g80::apps::matmul::{MatMul, Variant};
use g80::apps::mriq::MriQ;
use g80::apps::rc5::Rc5;
use g80::apps::sad::SadApp;
use g80::apps::saxpy::Saxpy;
use g80::apps::tpacf::Tpacf;
use g80::isa::builder::KernelBuilder;
use g80::isa::Value;
use g80::sim::{
    launch, memo_counters, DeviceMemory, GpuConfig, KernelStats, LaunchDims, SimConfig, SimContext,
};

mod common;
use common::assert_stats_identical;

/// Runs the workload on the reference engine with every cache layer off —
/// the oracle — then twice (cold, warm) in each context of the matrix, and
/// once more in a second context on the disk context's directory (a cold
/// LRU over warm files, as a fresh process sees them). The stats must be
/// bit-identical to the oracle's at every step.
fn check(label: &str, run: impl Fn() -> KernelStats) {
    let oracle = g80_oracle::context(SimConfig {
        memo: false,
        dedup: false,
        ..SimConfig::default()
    });
    let reference = oracle.enter(&run);
    for (name, ctx) in common::contexts().iter() {
        for pass in ["cold", "warm"] {
            let stats = ctx.enter(&run);
            assert_stats_identical(&format!("{label} [{name}, {pass}]"), &reference, &stats);
        }
        if ctx.config().disk_dir.is_some() {
            let fresh = SimContext::new(ctx.config().clone());
            let (replayed, counts) = fresh.enter(|| (run(), memo_counters()));
            assert_stats_identical(&format!("{label} [{name}, fresh]"), &reference, &replayed);
            assert!(counts.disk_hits > 0, "{label}: {counts:?}");
            assert_eq!(counts.misses, 0, "{label}: {counts:?}");
        }
    }
}

// Matrix multiplication across the paper's Figure-8 tiling space: the
// scheduler shapes differ enormously between these variants (occupancy,
// barrier traffic, unrolled instruction mix).
fn matmul(v: Variant) {
    let mm = MatMul { n: 64 };
    let (a, b) = mm.generate(7);
    check(&format!("matmul {}", v.label()), || mm.run(v, &a, &b).1);
}

#[test]
fn matmul_naive() {
    matmul(Variant::Naive);
}

// Tiles narrower than a half-warp: `tid.x`/`tid.y` are affine per run of 4
// or 8 lanes, and a 4×4 block is a single warp with only its lo half live.
#[test]
fn matmul_tiled_4() {
    matmul(Variant::Tiled {
        tile: 4,
        unroll: false,
    });
}

#[test]
fn matmul_tiled_4_unrolled() {
    matmul(Variant::Tiled {
        tile: 4,
        unroll: true,
    });
}

#[test]
fn matmul_tiled_8() {
    matmul(Variant::Tiled {
        tile: 8,
        unroll: false,
    });
}

#[test]
fn matmul_tiled_8_unrolled() {
    matmul(Variant::Tiled {
        tile: 8,
        unroll: true,
    });
}

#[test]
fn matmul_tiled_16() {
    matmul(Variant::Tiled {
        tile: 16,
        unroll: false,
    });
}

#[test]
fn matmul_tiled_16_unrolled() {
    matmul(Variant::Tiled {
        tile: 16,
        unroll: true,
    });
}

#[test]
fn matmul_prefetch() {
    matmul(Variant::Prefetch { tile: 16 });
}

#[test]
fn matmul_reg_tiled() {
    matmul(Variant::RegTiled { tile: 16 });
}

/// A 1-D kernel in 40-thread blocks: every block ends in a warp with eight
/// live lanes, whose half-warp is only partly live (folds apply, the memory
/// degrees come from the scan over the live lanes) and whose hi half is
/// dead. `y[i] = x[block·40 + 39 − tid]` through shared memory: a forward
/// store, a barrier, a reversed (negative-stride) load.
#[test]
fn partial_last_warp() {
    const TPB: u32 = 40;
    const BLOCKS: u32 = 320;
    let n = TPB * BLOCKS;
    let mut b = KernelBuilder::new("reverse_in_block_40");
    let (xs, ys) = (b.param(), b.param());
    let tile = b.shared_alloc(TPB) as i32;
    let tid = b.tid_x();
    let ntid = b.ntid_x();
    let cta = b.ctaid_x();
    let i = b.imad(cta, ntid, tid);
    let byte = b.shl(i, 2u32);
    let xa = b.iadd(byte, xs);
    let v = b.ld_global(xa, 0);
    let slot = b.shl(tid, 2u32);
    b.st_shared(slot, tile, v);
    b.bar();
    let mirror = b.isub((TPB - 1) * 4, slot);
    let w = b.ld_shared(mirror, tile);
    let ya = b.iadd(byte, ys);
    b.st_global(ya, 0, w);
    let kernel = b.build();

    let gpu = GpuConfig::geforce_8800_gtx();
    let dims = LaunchDims {
        grid: (BLOCKS, 1),
        block: (TPB, 1, 1),
    };
    check("partial last warp", || {
        let mem = DeviceMemory::new(2 * n * 4);
        mem.write_slice(0, (0..n).map(|i| i.wrapping_mul(2654435761)));
        let params = [Value::from_u32(0), Value::from_u32(n * 4)];
        let stats = launch(&gpu, &kernel, dims, &params, &mem).expect("launch");
        for i in [0, 7, 39, 40, n - 1] {
            let src = i / TPB * TPB + (TPB - 1 - i % TPB);
            assert_eq!(
                mem.read((n + i) * 4).0,
                src.wrapping_mul(2654435761),
                "y[{i}]"
            );
        }
        stats
    });
}

// Section-5 applications, chosen to cover every engine path: coalesced and
// uncoalesced global traffic, shared memory with bank conflicts, constant
// and texture caches, SFU ops, atomics, and divergence.

/// Streaming coalesced loads/stores.
#[test]
fn saxpy() {
    let sx = Saxpy {
        n: 1 << 14,
        alpha: 2.5,
    };
    let (x, y) = sx.generate(11);
    check("saxpy", || sx.run(&x, &y).1);
}

/// Integer-heavy, shared memory, emulated rotates.
#[test]
fn rc5() {
    let rc5 = Rc5 {
        n_keys: 1 << 10,
        ..Rc5::default()
    };
    check("rc5", || rc5.run(false).1);
}

/// Shared-memory histogram with atomics and divergence.
#[test]
fn tpacf() {
    let tp = Tpacf { n: 512 };
    let sky = tp.generate(13);
    check("tpacf", || tp.run(&sky).1);
}

/// Constant memory + SFU trigonometry.
#[test]
fn mri_q() {
    let mq = MriQ {
        n_voxels: 1024,
        n_k: 256,
    };
    let mdata = mq.generate(17);
    check("mri-q", || mq.run(&mdata, true).2);
}

/// Constant-memory atom data, FMA-dense.
#[test]
fn cp() {
    let cp = CoulombicPotential {
        grid: 64,
        n_atoms: 64,
        spacing: 0.5,
    };
    let atoms = cp.generate(19);
    check("cp", || cp.run(&atoms, true).1);
}

/// Texture-cache reference frame.
#[test]
fn sad() {
    let sad = SadApp {
        width: 64,
        height: 48,
    };
    let (cur, reff) = sad.generate(23);
    check("sad", || sad.run(&cur, &reff, true).1);
}
