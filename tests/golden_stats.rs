//! Golden-stats equivalence: the product engine must be a pure host-side
//! optimization. Every workload here runs on the frozen reference engine
//! (`g80_sim::reference`, the oracle: instruction-at-a-time, eager warps,
//! allocating coalescer) and on the product engine (`g80_sim::sm`:
//! predecoded micro-ops, tracked row shapes, pooled SM tasks) — and the
//! resulting [`KernelStats`] must match **field for field, bit for bit**:
//! cycles, stall attribution, traffic counters, everything. A single
//! diverging counter means the optimization changed simulated timing and is
//! a bug.
//!
//! The same contract covers the product's cache layers: block-class dedup
//! and the launch memo (cold and warm) must reproduce the oracle's stats.
//!
//! The engine/dedup/memo selectors are process-global, so all workloads run
//! inside one `#[test]` (the default parallel test runner would otherwise
//! race the toggles).

use g80::apps::cp::CoulombicPotential;
use g80::apps::matmul::{MatMul, Variant};
use g80::apps::mriq::MriQ;
use g80::apps::rc5::Rc5;
use g80::apps::sad::SadApp;
use g80::apps::saxpy::Saxpy;
use g80::apps::tpacf::Tpacf;
use g80::sim::{
    clear_memo_cache, set_dedup, set_engine, set_memo, Dedup, Engine, KernelStats, Memo,
};

/// Asserts the named fields equal between the two runs.
macro_rules! assert_fields_eq {
    ($label:expr, $a:expr, $b:expr, [$($f:ident),+ $(,)?]) => {
        $(assert_eq!(
            $a.$f, $b.$f,
            "{}: KernelStats field `{}` differs between engines",
            $label, stringify!($f)
        );)+
    };
}

fn assert_stats_identical(label: &str, a: &KernelStats, b: &KernelStats) {
    assert_fields_eq!(
        label,
        a,
        b,
        [
            name,
            cycles,
            elapsed,
            warp_instructions,
            thread_instructions,
            flops,
            by_class,
            global_ld_transactions,
            global_st_transactions,
            global_bytes,
            coalesced_half_warps,
            uncoalesced_half_warps,
            smem_conflict_extra_cycles,
            divergent_branches,
            tex_hits,
            tex_misses,
            const_hits,
            const_misses,
            atomic_transactions,
            stall_cycles,
            blocks_executed,
            regs_per_thread,
            smem_per_block,
            threads_per_block,
            blocks_per_sm,
            max_simultaneous_threads,
            total_threads,
        ]
    );
}

/// Runs the workload on the reference engine and on the product engine with
/// every cache layer off, then adds block-class dedup and the launch memo
/// (cold, warm) to the product — the stats must be bit-identical to the
/// oracle's at every step.
fn check(label: &str, mut run: impl FnMut() -> KernelStats) {
    // The oracle comparison is between real simulations, not cache replays.
    set_memo(Memo::Off);
    set_dedup(Dedup::Off);

    set_engine(Engine::Reference);
    let reference = run();
    set_engine(Engine::Predecoded);
    let product = run();
    assert_stats_identical(label, &reference, &product);

    // Dedup axis: block-class dedup (and donor-SM reuse) engages only where
    // the witness machinery proves equivalence, so on *every* workload the
    // stats must be bit-identical to the plain run.
    set_dedup(Dedup::On);
    let deduped = run();
    assert_stats_identical(&format!("{label} [dedup]"), &reference, &deduped);

    // Memo axis: a cold run records, a warm run replays from the cache —
    // both must match the uncached stats bit for bit.
    set_memo(Memo::On);
    clear_memo_cache();
    let cold = run();
    assert_stats_identical(&format!("{label} [memo cold]"), &reference, &cold);
    let warm = run();
    assert_stats_identical(&format!("{label} [memo warm]"), &reference, &warm);
}

#[test]
fn stats_bit_identical_across_engines() {
    // Matrix multiplication across the paper's Figure-8 tiling space: the
    // scheduler shapes differ enormously between these variants (occupancy,
    // barrier traffic, unrolled instruction mix).
    let mm = MatMul { n: 64 };
    let (a, b) = mm.generate(7);
    for v in [
        Variant::Naive,
        Variant::Tiled {
            tile: 8,
            unroll: false,
        },
        Variant::Tiled {
            tile: 16,
            unroll: false,
        },
        Variant::Tiled {
            tile: 16,
            unroll: true,
        },
        Variant::Prefetch { tile: 16 },
        Variant::RegTiled { tile: 16 },
    ] {
        check(&format!("matmul {}", v.label()), || mm.run(v, &a, &b).1);
    }

    // Section-5 applications, chosen to cover every engine path: coalesced
    // and uncoalesced global traffic, shared memory with bank conflicts,
    // constant and texture caches, SFU ops, atomics, and divergence.

    // SAXPY: streaming coalesced loads/stores.
    let sx = Saxpy {
        n: 1 << 14,
        alpha: 2.5,
    };
    let (x, y) = sx.generate(11);
    check("saxpy", || sx.run(&x, &y).1);

    // RC5: integer-heavy, shared memory, emulated rotates.
    let rc5 = Rc5 {
        n_keys: 1 << 10,
        ..Rc5::default()
    };
    check("rc5", || rc5.run(false).1);

    // TPACF: shared-memory histogram with atomics and divergence.
    let tp = Tpacf { n: 512 };
    let sky = tp.generate(13);
    check("tpacf", || tp.run(&sky).1);

    // MRI-Q: constant memory + SFU trigonometry.
    let mq = MriQ {
        n_voxels: 1024,
        n_k: 256,
    };
    let mdata = mq.generate(17);
    check("mri-q", || mq.run(&mdata, true).2);

    // CP: constant-memory atom data, FMA-dense.
    let cp = CoulombicPotential {
        grid: 64,
        n_atoms: 64,
        spacing: 0.5,
    };
    let atoms = cp.generate(19);
    check("cp", || cp.run(&atoms, true).1);

    // SAD: texture-cache reference frame.
    let sad = SadApp {
        width: 64,
        height: 48,
    };
    let (cur, reff) = sad.generate(23);
    check("sad", || sad.run(&cur, &reff, true).1);
}
