//! Host-performance benchmark of the simulator's execution strategies.
//!
//! Every row runs identical workloads on both sides of its comparison, each
//! side in a `SimContext` of its own (cold caches, zero counters, exactly
//! the configuration the row names), with bit-identical simulated
//! `KernelStats` asserted along the way. The first
//! group times the frozen reference interpreter (the oracle) against the
//! product engine on single launches; the rest A/B the product's cache,
//! dedup, hardening and serving layers.
//!
//! Writes a JSON report to the path given as the last argument
//! (default `BENCH_sim.json`). The committed copy at the repo root is
//! regenerated with:
//!
//! ```text
//! cargo run --release -p g80-bench --bin bench_sim -- BENCH_sim.json
//! ```
//!
//! `--check` runs fewer repetitions and is what CI's benchmark-floor job
//! uses; the speedup floors are asserted in every mode.
//!
//! Exit codes: `0` all floors met, `2` a performance floor was missed,
//! `3` the harness itself failed (an A/B bit-identity mismatch, a
//! nondeterministic fleet, an unwritable report path).

use g80_apps::cp::CoulombicPotential;
use g80_apps::matmul::{MatMul, Variant};
use g80_apps::mrifhd::MriFhd;
use g80_apps::mriq::MriQ;
use g80_apps::saxpy::Saxpy;
use g80_apps::tpacf::Tpacf;
use g80_isa::exec;
use g80_isa::inst::SfuOp;
use g80_isa::Value;
use g80_sim::{
    clear_memo_cache, memo_counters, net_counters, row_counters, Engine, FaultConfig, KernelStats,
    MemoCounters, NetFaultConfig, SimConfig, SimContext,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// A fresh context with the memo and dedup layers as given and everything
/// else the product default, whatever the environment says.
fn context(memo: bool, dedup: bool) -> Arc<SimContext> {
    SimContext::new(SimConfig {
        memo,
        dedup,
        ..SimConfig::default()
    })
}

/// Canonical bytes of `stats`: equal bytes means every counter agrees.
fn stats_bytes(stats: &KernelStats) -> Vec<u8> {
    g80_sim::wire::to_bytes(stats, 512)
}

struct Row {
    name: &'static str,
    reference_s: f64,
    predecoded_s: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.reference_s / self.predecoded_s
    }
}

/// Minimum wall-clock over `runs` timed executions (min is the standard
/// low-noise estimator for a deterministic workload).
fn time_engine(
    engine: Engine,
    runs: usize,
    run: &mut dyn FnMut() -> KernelStats,
) -> (f64, KernelStats) {
    // The engine rows measure *simulation* strategies, so the
    // redundancy-elimination layers stay out of them: a warm memo cache
    // would replace every timed repetition with a cache replay.
    let ctx = SimContext::new(SimConfig {
        engine,
        memo: false,
        dedup: false,
        ..SimConfig::default()
    });
    ctx.enter(|| {
        let stats = run(); // warm-up; also the stats sample for the A/B check
        let mut best = f64::INFINITY;
        for _ in 0..runs {
            let t0 = Instant::now();
            run();
            best = best.min(t0.elapsed().as_secs_f64());
        }
        (best, stats)
    })
}

fn bench(name: &'static str, runs: usize, mut run: impl FnMut() -> KernelStats) -> Row {
    let (reference_s, ref_stats) = time_engine(Engine::Reference, runs, &mut run);
    let (predecoded_s, pre_stats) = time_engine(Engine::Predecoded, runs, &mut run);
    assert_eq!(
        stats_bytes(&ref_stats),
        stats_bytes(&pre_stats),
        "{name}: reference and predecoded engines disagree on the canonical KernelStats bytes"
    );
    let row = Row {
        name,
        reference_s,
        predecoded_s,
    };
    eprintln!(
        "{:<24} reference {:>8.4}s  predecoded {:>8.4}s ({:>5.2}x)",
        row.name,
        row.reference_s,
        row.predecoded_s,
        row.speedup()
    );
    row
}

/// A redundancy-elimination A/B row: the optimization off vs on, on
/// bit-identical simulated results.
struct RedundancyRow {
    name: &'static str,
    baseline_s: f64,
    optimized_s: f64,
    /// What the optimized arm's context counted over its timed runs.
    counters: MemoCounters,
    /// Process CPU time of the two arms (0 where the row does not measure
    /// it, or the host has no `/proc`).
    baseline_cpu_s: f64,
    optimized_cpu_s: f64,
}

impl RedundancyRow {
    fn speedup(&self) -> f64 {
        self.baseline_s / self.optimized_s
    }

    /// The ratio of CPU time, falling back to wall clock where unmeasured.
    /// Dedup's donor SM runs alone before the other fifteen replay, so its
    /// wall-clock ratio depends on the host's core count (MRI-Q: 1.9x on
    /// one core, 1.6x on two, ~1.3x on four); the work removed does not.
    fn cpu_speedup(&self) -> f64 {
        if self.baseline_cpu_s > 0.0 && self.optimized_cpu_s > 0.0 {
            self.baseline_cpu_s / self.optimized_cpu_s
        } else {
            self.speedup()
        }
    }
}

/// User + system CPU seconds of this process so far (all threads), from
/// `/proc/self/stat`; 0 where that does not exist. Ticks are taken as
/// 10 ms (Linux's `USER_HZ`; only ratios of these values gate anything):
/// fine for the second-scale arms it is used on.
fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name: state is the 1st, utime
    // and stime the 12th and 13th.
    let after_comm = stat.rsplit(')').next().unwrap_or("");
    let ticks: u64 = after_comm
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

/// Block-class dedup off vs on over `runs` timed launches of one workload.
///
/// The arm's own counters, not literals: the row must report what the run
/// actually did. The memo is *on* but cleared before every
/// timed run, so each launch probes cold, records a genuine miss, and is
/// never replayed — both arms pay the identical lookup/record cost and the
/// ratio measures dedup alone. (A zero miss count here would flag a harness
/// bug: real launches were timed, so the cache must have seen them.) The
/// predecode registry is process-wide, so neither arm pays a first-run
/// penalty worth warming away. The arms alternate run by run, so machine
/// drift lands on both alike: a millisecond workload's arm otherwise fits
/// inside one burst of a neighbour's load.
fn dedup_ab(
    name: &'static str,
    runs: usize,
    run: &mut dyn FnMut() -> KernelStats,
) -> RedundancyRow {
    let arms = [context(true, false), context(true, true)];
    let mut best = [(f64::INFINITY, f64::INFINITY); 2];
    let mut stats = [Vec::new(), Vec::new()];
    for _ in 0..runs {
        for ((ctx, best), stats) in arms.iter().zip(&mut best).zip(&mut stats) {
            ctx.enter(|| {
                clear_memo_cache();
                let (t0, c0) = (Instant::now(), process_cpu_s());
                let s = run();
                best.0 = best.0.min(t0.elapsed().as_secs_f64());
                best.1 = best.1.min(process_cpu_s() - c0);
                *stats = stats_bytes(&s);
            });
        }
    }
    let [(baseline_s, baseline_cpu_s), (optimized_s, optimized_cpu_s)] = best;
    let on = arms[1].enter(memo_counters);
    assert_eq!(
        stats[0], stats[1],
        "{name}: dedup changed the canonical KernelStats bytes"
    );
    assert!(
        on.misses >= runs as u64,
        "{name}: every timed launch must record a memo miss (got {} over {runs} runs)",
        on.misses
    );
    let row = RedundancyRow {
        name,
        baseline_s,
        optimized_s,
        counters: on,
        baseline_cpu_s,
        optimized_cpu_s,
    };
    eprintln!(
        "{:<24} dedup off {:>8.4}s  dedup on   {:>8.4}s  speedup {:>5.2}x  cpu {:>5.2}x  ({} replayed / {} simulated / {} fallbacks)",
        name,
        baseline_s,
        optimized_s,
        row.speedup(),
        row.cpu_speedup(),
        on.dedup_fast_blocks,
        on.dedup_sim_blocks,
        on.dedup_fallbacks
    );
    row
}

fn redundancy_json(rows: &[RedundancyRow]) -> String {
    let mut json = String::new();
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"baseline_s\": {:.6}, \"optimized_s\": {:.6}, \"speedup\": {:.3}, \"memo_hits\": {}, \"memo_misses\": {}, \"dedup_fast_blocks\": {}, \"dedup_sim_blocks\": {}, \"dedup_fallbacks\": {}, \"baseline_cpu_s\": {:.2}, \"optimized_cpu_s\": {:.2}}}{}\n",
            r.name,
            r.baseline_s,
            r.optimized_s,
            r.speedup(),
            r.counters.hits,
            r.counters.misses,
            r.counters.dedup_fast_blocks,
            r.counters.dedup_sim_blocks,
            r.counters.dedup_fallbacks,
            r.baseline_cpu_s,
            r.optimized_cpu_s,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json
}

/// One mechanism: what `g80_sim::wire::crc32` (slicing-by-8) costs per KB
/// of frame payload against CRC-32/IEEE computed one bit at a time from
/// the polynomial — ns/KB on 64 KB, min over rounds. Every served payload
/// byte is summed four times per round trip, so this rate is most of a
/// memo-hit request's wire cost. Returns `(bitwise, sliced)`.
fn wire_crc32_row() -> (f64, f64) {
    fn bitwise(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c ^= b as u32;
            for _ in 0..8 {
                c = (c >> 1) ^ (0xEDB8_8320 & (c & 1).wrapping_neg());
            }
        }
        !c
    }
    const KB: usize = 64;
    let block: Vec<u8> = (0..KB * 1024)
        .map(|i| (i as u32).wrapping_mul(2_654_435_761).to_le_bytes()[3])
        .collect();
    assert_eq!(
        g80_sim::wire::crc32(&block),
        bitwise(&block),
        "wire_crc32: the sliced CRC disagrees with the bit-at-a-time reference"
    );
    let min_ns_per_kb = |sum: fn(&[u8]) -> u32| {
        (0..20)
            .map(|_| {
                let t0 = Instant::now();
                black_box(sum(black_box(&block)));
                t0.elapsed().as_nanos() as f64 / KB as f64
            })
            .fold(f64::INFINITY, f64::min)
    };
    let (bitwise_ns, sliced_ns) = (min_ns_per_kb(bitwise), min_ns_per_kb(g80_sim::wire::crc32));
    eprintln!(
        "{:<24} bitwise  {bitwise_ns:>8.1}ns/KB  sliced   {sliced_ns:>8.1}ns/KB  speedup {:>6.2}x",
        "wire_crc32",
        bitwise_ns / sliced_ns
    );
    (bitwise_ns, sliced_ns)
}

fn main() {
    // Floor misses and harness breakage must be distinguishable to CI:
    // a missed floor is a performance regression (exit 2), while a panic
    // anywhere in the harness — bit-identity mismatch, nondeterministic
    // fleet, unwritable report — is a correctness failure (exit 3).
    match std::panic::catch_unwind(run) {
        Ok(0) => {}
        Ok(code) => std::process::exit(code),
        Err(_) => {
            eprintln!("bench_sim: harness error (see panic above)");
            std::process::exit(3);
        }
    }
}

fn run() -> i32 {
    let mut check = false;
    let mut out_path = String::from("BENCH_sim.json");
    for arg in std::env::args().skip(1) {
        if arg == "--check" {
            check = true;
        } else {
            out_path = arg;
        }
    }
    // --check (CI) repeats less; floors are asserted either way.
    let runs = if check { 2 } else { 5 };

    // ---- engine A/B (single launches) ----
    let mut rows = Vec::new();

    // The headline workload: the paper's best matmul configuration
    // (16x16 tiled, fully unrolled) at a production-ish size.
    let mm = MatMul { n: 256 };
    let (a, b) = mm.generate(42);
    let tiled = Variant::Tiled {
        tile: 16,
        unroll: true,
    };
    rows.push(bench("matmul_256_tiled16u", runs, move || {
        mm.run(tiled, &a, &b).1
    }));

    // Streaming memory-bound kernel: little arithmetic, scheduler- and
    // coalescing-path dominated.
    let sx = Saxpy {
        n: 1 << 18,
        alpha: 2.0,
    };
    let (x, y) = sx.generate(42);
    rows.push(bench("saxpy_262144", runs, move || sx.run(&x, &y).1));

    // Divergent, atomic-heavy kernel: stresses the settle/retire paths.
    let tp = Tpacf { n: 1024 };
    let sky = tp.generate(42);
    rows.push(bench("tpacf_1024", runs, move || tp.run(&sky).1));

    // ---- row structure (lane-row shape mix of the product's warps) ----
    // Uniform/affine shapes fold arithmetic to O(1) per warp and memory
    // degrees to closed form; each row reports the tracked wall clock and
    // how much of the workload's register traffic stayed shaped. (The
    // timing is bit-identical to the reference engine's eager warps:
    // `tests/golden_stats.rs`.)
    struct RowStructRow {
        name: &'static str,
        tracked_s: f64,
        uniform: u64,
        affine: u64,
        full_ops: u64,
    }
    impl RowStructRow {
        fn shaped_fraction(&self) -> f64 {
            let total = self.uniform + self.affine + self.full_ops;
            if total == 0 {
                0.0
            } else {
                (self.uniform + self.affine) as f64 / total as f64
            }
        }
    }
    let mut row_structure = Vec::new();
    let mut bench_row_structure =
        |name: &'static str, runs: usize, run: &mut dyn FnMut() -> KernelStats| {
            let (shapes, tracked_s) = context(false, false).enter(|| {
                run(); // warm-up + shape mix
                let shapes = row_counters();
                let mut tracked_s = f64::INFINITY;
                for _ in 0..runs {
                    let t0 = Instant::now();
                    run();
                    tracked_s = tracked_s.min(t0.elapsed().as_secs_f64());
                }
                (shapes, tracked_s)
            });
            let row = RowStructRow {
                name,
                tracked_s,
                uniform: shapes.uniform,
                affine: shapes.affine,
                full_ops: shapes.full,
            };
            eprintln!(
                "{:<24} tracked   {:>8.4}s  ({:.0}% shaped)",
                row.name,
                row.tracked_s,
                row.shaped_fraction() * 100.0
            );
            row_structure.push(row);
        };
    {
        let sx = Saxpy {
            n: 1 << 18,
            alpha: 2.0,
        };
        let (x, y) = sx.generate(42);
        bench_row_structure("saxpy_rows", runs, &mut || sx.run(&x, &y).1);
        let tp = Tpacf { n: 1024 };
        let sky = tp.generate(42);
        bench_row_structure("tpacf_rows", runs, &mut || tp.run(&sky).1);
        let mm = MatMul { n: 256 };
        let (a, b) = mm.generate(42);
        let tiled = Variant::Tiled {
            tile: 16,
            unroll: true,
        };
        bench_row_structure("matmul_rows", runs, &mut || mm.run(tiled, &a, &b).1);
        let tiled8 = Variant::Tiled {
            tile: 8,
            unroll: true,
        };
        bench_row_structure("matmul_rows_8x8", runs, &mut || mm.run(tiled8, &a, &b).1);
    }

    // The large uniform-grid workload the dedup and hardening rows share.
    let big = MatMul { n: 1024 };
    let (big_a, big_b) = big.generate(42);
    let tiled16u = Variant::Tiled {
        tile: 16,
        unroll: true,
    };

    // ---- redundancy elimination A/B (memo cache + block-class dedup) ----
    let mut redundancy = Vec::new();

    // Block-class dedup on a large uniform grid: matmul 1024² is 4096
    // blocks that differ only by base address, so after the donor SM's
    // transient the remaining blocks replay functionally instead of
    // re-simulating (memo handling: see `dedup_ab`).
    // One timed run per arm under --check: at several seconds a run the
    // workload is far above the timer noise floor.
    let dedup_runs = if check { 1 } else { 2 };
    redundancy.push(dedup_ab("matmul_1024_dedup", dedup_runs, &mut || {
        big.run(tiled16u, &big_a, &big_b).1
    }));

    // Donor-SM reuse on the tuner's small grids: one cold n=32 sweep of the
    // nine Figure-4 variants as a `run_batch`, its launches' stats summed.
    // No SM there holds more than four blocks, all resident at once, so only
    // a donor per queue length keeps the sweep out of the timed engine: 15
    // of its 180 blocks simulate. A sweep takes milliseconds, so each arm
    // runs 200 in every mode: a min over a window that short (30 sweeps,
    // ≈ 60 ms) read 1.3x instead of 1.6x when a neighbour's burst covered it.
    let tuner = MatMul { n: 32 };
    let (tuner_a, tuner_b) = tuner.generate(42);
    let tuner_sweep = Variant::tuner_sweep();
    let tuner_runs = 200;
    redundancy.push(dedup_ab("tuner_cold_dedup", tuner_runs, &mut || {
        let mut stats = tuner.run_batch(&tuner_sweep, &tuner_a, &tuner_b);
        let (_, mut total, _) = stats.remove(0);
        for (_, s, _) in &stats {
            total.accumulate(s);
        }
        total
    }));

    // Launch memoization on a tuner fleet that *revisits* configurations:
    // the Figure-4 variant family at n=64, re-evaluated round after round
    // on prebuilt devices. With the cache warm every launch is a replay;
    // dedup stays off so this row measures the memo cache alone.
    let rev = MatMul { n: 64 };
    let (rev_a, rev_b) = rev.generate(42);
    let rev_variants = [
        Variant::Tiled {
            tile: 8,
            unroll: false,
        },
        Variant::Tiled {
            tile: 8,
            unroll: true,
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
    ];
    let rev_preps: Vec<_> = rev_variants
        .iter()
        .map(|&v| {
            let n = rev.n;
            let mut dev = g80_cuda::Device::new(3 * n * n * 4 + 4096);
            let da = dev.alloc::<f32>((n * n) as usize);
            let db = dev.alloc::<f32>((n * n) as usize);
            let dc = dev.alloc::<f32>((n * n) as usize);
            dev.copy_to_device(&da, &rev_a);
            dev.copy_to_device(&db, &rev_b);
            let params = [da.as_param(), db.as_param(), dc.as_param()];
            (rev.kernel(v), dev, params)
        })
        .collect();
    let revisit_round = || -> u64 {
        let mut fp = 0u64;
        for (v, (k, dev, params)) in rev_variants.iter().zip(&rev_preps) {
            let t = v.block_edge();
            let (bx, by) = v.block_shape();
            let stats = dev
                .launch(k, (rev.n / t, rev.n / t), (bx, by, 1), params)
                .unwrap();
            fp = fp.wrapping_add(stats.cycles);
        }
        fp
    };
    // Each device's C region reaches its fixed point after the first round
    // (every round computes the same product), so run one round before
    // timing either arm: from here on the pre-launch memory image — and
    // with it the memo key — is identical for every revisit.
    context(false, false).enter(revisit_round);
    let revisit_rounds = if check { 2 } else { 5 };
    let time_revisit = |memo: bool| {
        context(memo, false).enter(|| {
            let fp = revisit_round(); // memo-on: the recording round
            let before = memo_counters();
            let mut best = f64::INFINITY;
            for _ in 0..revisit_rounds {
                let t0 = Instant::now();
                assert_eq!(revisit_round(), fp, "revisit fleet is not deterministic");
                best = best.min(t0.elapsed().as_secs_f64());
            }
            (best, fp, memo_counters().since(&before))
        })
    };
    let (revisit_off_s, off_fp, _) = time_revisit(false);
    let (revisit_on_s, on_fp, revisits) = time_revisit(true);
    let (rev_hits, rev_misses) = (revisits.hits, revisits.misses);
    assert_eq!(off_fp, on_fp, "memo cache changed simulated results");
    assert_eq!(
        rev_hits,
        (revisit_rounds * rev_variants.len()) as u64,
        "every revisit launch must be served from the warm cache ({rev_misses} misses)"
    );
    redundancy.push(RedundancyRow {
        name: "tuner_fleet_revisit",
        baseline_s: revisit_off_s,
        optimized_s: revisit_on_s,
        counters: revisits,  // dedup is off for this row: its fields stay 0
        baseline_cpu_s: 0.0, // millisecond rounds: below the tick
        optimized_cpu_s: 0.0,
    });
    eprintln!(
        "{:<24} memo off  {:>8.4}s  memo on    {:>8.4}s  speedup {:>5.2}x  ({} hits / {} misses)",
        "tuner_fleet_revisit",
        revisit_off_s,
        revisit_on_s,
        revisit_off_s / revisit_on_s,
        rev_hits,
        rev_misses
    );

    // ---- constant-cache kernels under dedup (suite scale) ----
    // The paper's top speedup tier keeps its inputs in constant memory, read
    // as warp-wide broadcasts at block-invariant addresses. Such kernels are
    // dedup-eligible: one donor SM runs the timed engine (its constant-cache
    // tags part of the period snapshot), the other fifteen replay its
    // witness streams. Each arm is a whole `run` — device set-up and copies
    // included, as the suite pays them.
    let mut const_dedup = Vec::new();
    {
        let mriq = MriQ::default();
        let d = mriq.generate(17);
        // Sub-second arms: three repetitions even under --check.
        let runs = runs.max(3);
        const_dedup.push(dedup_ab("mriq_dedup", runs, &mut || mriq.run(&d, true).2));
        let fhd = MriFhd::default();
        let d = fhd.generate(23);
        const_dedup.push(dedup_ab("mrifhd_dedup", runs, &mut || fhd.run(&d).2));
        let cp = CoulombicPotential::default();
        let atoms = cp.generate(5);
        const_dedup.push(dedup_ab("cp_dedup", runs, &mut || cp.run(&atoms, true).1));
    }

    // ---- SFU row kernels (one mechanism: `eval_sfu_row` vs 32 lane calls) ----
    // What every SFU warp instruction costs the host in the timed engine and
    // in witness replay (the row form) against what the reference engine
    // pays (32 scalar evaluations): ns per full-mask row, min over rounds,
    // on arguments spread over [-50, 50] like MRI's phase terms (moved to
    // [0.5, 50.5] for the root). The two forms are asserted bit-identical on
    // the timed rows.
    struct SfuRow {
        name: &'static str,
        lanes_ns: f64,
        row_ns: f64,
        /// Asserted `lanes_ns / row_ns` minimum on an AVX2 host, if any.
        floor: Option<f64>,
    }
    let sfu_avx2 = {
        #[cfg(target_arch = "x86_64")]
        let has = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let has = false;
        has
    };
    // Rsqrt is reported, not gated: `vdivps`/`vsqrtps` throughput per lane
    // is close to the scalar forms' on many cores.
    let sfu_rows: Vec<SfuRow> = [
        ("sfu_rows_sin", SfuOp::Sin, Some(3.0)),
        ("sfu_rows_cos", SfuOp::Cos, Some(3.0)),
        ("sfu_rows_rsqrt", SfuOp::Rsqrt, None),
    ]
    .into_iter()
    .map(|(name, op, floor)| {
        const ROWS: usize = 4096;
        let input: Vec<exec::Row> = (0..ROWS)
            .map(|r| {
                std::array::from_fn(|l| {
                    let x = ((r * 32 + l) as f32 * 0.618_034).fract() * 100.0 - 50.0;
                    Value::from_f32(if op == SfuOp::Rsqrt { x.abs() + 0.5 } else { x })
                })
            })
            .collect();
        let mut by_lane = vec![[Value::ZERO; 32]; ROWS];
        let mut by_row = by_lane.clone();
        let (mut lanes_ns, mut row_ns) = (f64::INFINITY, f64::INFINITY);
        // ~1 ms a round: fifty even under --check, so the min sees the core
        // after its 256-bit units have warmed up.
        for _ in 0..50 {
            let t0 = Instant::now();
            for (a, d) in black_box(&input).iter().zip(by_lane.iter_mut()) {
                for l in 0..32 {
                    d[l] = exec::eval_sfu(op, a[l]);
                }
            }
            lanes_ns = lanes_ns.min(t0.elapsed().as_nanos() as f64 / ROWS as f64);
            let t0 = Instant::now();
            for (a, d) in black_box(&input).iter().zip(by_row.iter_mut()) {
                exec::eval_sfu_row(op, a, d, u32::MAX);
            }
            row_ns = row_ns.min(t0.elapsed().as_nanos() as f64 / ROWS as f64);
            black_box((&by_lane, &by_row));
        }
        assert!(
            by_lane == by_row,
            "{name}: eval_sfu_row is not bit-identical to 32 eval_sfu calls"
        );
        eprintln!(
            "{name:<24} 32 lanes  {lanes_ns:>8.1}ns  row      {row_ns:>8.1}ns  speedup {:>6.2}x  avx2 {sfu_avx2}",
            lanes_ns / row_ns
        );
        SfuRow {
            name,
            lanes_ns,
            row_ns,
            floor,
        }
    })
    .collect();

    let (crc_bitwise_ns, crc_sliced_ns) = wire_crc32_row();
    let crc_speedup = crc_bitwise_ns / crc_sliced_ns;

    // ---- disk tier (persistent cache, cold process vs warm directory) ----
    // The same revisit fleet, but served across the process boundary: the
    // cold arm runs against an empty cache directory with a cold LRU (every
    // launch simulates and spills to disk); the warm arm builds a new
    // context on the directory for every round, so each launch must come
    // back from the disk files alone — exactly what a fresh tuner process
    // sees against a warm shared directory. The content-addressed key is derived from kernel content,
    // config, params, and the memory image, so replaying here proves a
    // restarted fleet would replay too.
    let disk_dir = std::env::temp_dir().join(format!("g80-bench-disk-{}", std::process::id()));
    let disk_rounds = if check { 2 } else { 5 };
    // One timed round in a fresh context on the directory: seconds, the
    // fleet's fingerprint and what the disk tier did.
    let disk_round = || {
        let ctx = SimContext::new(SimConfig {
            dedup: false,
            disk_dir: Some(disk_dir.clone()),
            ..SimConfig::default()
        });
        ctx.enter(|| {
            let t0 = Instant::now();
            let fp = revisit_round();
            (t0.elapsed().as_secs_f64(), fp, memo_counters())
        })
    };
    let mut disk_cold_s = f64::INFINITY;
    let mut disk_fp = 0u64;
    let (mut disk_hits, mut disk_misses, mut disk_evictions) = (0, 0, 0);
    for _ in 0..disk_rounds {
        // A truly cold start every repetition: empty directory, empty LRU.
        let _ = std::fs::remove_dir_all(&disk_dir);
        let (s, fp, c) = disk_round();
        disk_fp = fp;
        disk_cold_s = disk_cold_s.min(s);
        disk_misses += c.disk_misses;
        disk_evictions += c.disk_evictions;
    }
    let mut disk_warm_s = f64::INFINITY;
    for _ in 0..disk_rounds {
        let (s, fp, c) = disk_round();
        assert_eq!(fp, disk_fp, "disk replay changed simulated results");
        disk_warm_s = disk_warm_s.min(s);
        disk_hits += c.disk_hits;
        disk_misses += c.disk_misses;
        disk_evictions += c.disk_evictions;
    }
    let _ = std::fs::remove_dir_all(&disk_dir);
    assert_eq!(
        disk_hits,
        (disk_rounds * rev_variants.len()) as u64,
        "every warm-arm launch must be served from disk"
    );
    assert_eq!(disk_evictions, 0, "no bench entry may be corrupt");
    let disk_speedup = disk_cold_s / disk_warm_s;
    eprintln!(
        "{:<24} cold      {:>8.4}s  disk warm  {:>8.4}s  speedup {:>5.2}x  ({disk_hits} disk hits)",
        "disk_tuner_fleet", disk_cold_s, disk_warm_s, disk_speedup
    );

    // ---- hardening overhead (fault sites + watchdog armed but silent) ----
    // The fault-injection sites and the watchdog are compiled in
    // unconditionally, so their disarmed fast path must stay free and the
    // armed-but-silent path must stay cheap. Baseline: injector disarmed,
    // watchdog off. Hardened: every site armed at rate 0.0 (each poll runs
    // its full decision path but never fires, and each launch snapshots
    // device memory for the retry contract) with the watchdog counting
    // every cycle against an unreachable budget. The arms interleave so
    // machine drift lands on both equally. Dedup stays on to match the
    // hot configuration this repo actually ships.
    let disarmed = context(false, true);
    let hardened = SimContext::new(SimConfig {
        memo: false,
        watchdog_cycles: Some(u64::MAX / 2),
        faults: Some(FaultConfig::new(1, 0.0, None)),
        ..SimConfig::default()
    });
    // Three arms even under --check: the row compares two ~7 s runs against
    // a 2% ceiling, and a min-of-2 flaps on container timing noise alone.
    // The ratio is the min over *paired* iterations (armed/disarmed measured
    // back-to-back), not a ratio of independent mins: machine drift between
    // iterations is larger than the overhead being measured, and pairing
    // cancels it while a polluted pair is simply out-voted.
    let hard_runs = 3;
    let mut hardening_base_s = f64::INFINITY;
    let mut hardening_on_s = f64::INFINITY;
    let mut hardening_ratio = f64::INFINITY;
    let mut hardening_stats: Option<(KernelStats, KernelStats)> = None;
    for _ in 0..hard_runs {
        let t0 = Instant::now();
        let base_stats = disarmed.enter(|| big.run(tiled16u, &big_a, &big_b).1);
        let base_s = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let on_stats = hardened.enter(|| big.run(tiled16u, &big_a, &big_b).1);
        let on_s = t0.elapsed().as_secs_f64();
        if on_s / base_s < hardening_ratio {
            hardening_ratio = on_s / base_s;
            hardening_base_s = base_s;
            hardening_on_s = on_s;
        }
        hardening_stats = Some((base_stats, on_stats));
    }
    let (hb, ho) = hardening_stats.unwrap();
    assert_eq!(
        stats_bytes(&hb),
        stats_bytes(&ho),
        "hardening_matmul_1024: an armed-but-silent injector changed the canonical KernelStats bytes"
    );
    eprintln!(
        "{:<24} disarmed  {:>8.4}s  armed+wdog {:>8.4}s  overhead {:>5.3}x",
        "hardening_matmul_1024", hardening_base_s, hardening_on_s, hardening_ratio
    );

    // ---- serving tier (daemon + 8-tenant probe fleet over loopback) ----
    // The g80-serve daemon shares this process's pool and serves in the
    // context it is started in, so this row measures pure serving overhead: framing, admission, and the
    // per-connection threads, on top of launches the warm memo answers.
    // Eight tenants each fire a stream of probe requests (distinct kernel
    // content per tenant; repeats within a tenant hit the memo, as a
    // service's steady state would) and the row reports aggregate
    // throughput and tail latency.
    let serve_tenants = 8u32;
    let serve_requests = if check { 16u32 } else { 64 };
    let (serve_req_per_s, serve_p50_ms, serve_p99_ms, serve_cache_hits) = {
        use g80_serve::{serve, Addr, Client, Quota, ServeConfig, WireLaunch};
        let server = context(true, false)
            .enter(|| {
                serve(ServeConfig {
                    addr: Addr::parse("tcp:127.0.0.1:0").expect("addr"),
                    quota: Quota::default(),
                    gpu: g80_sim::GpuConfig::geforce_8800_gtx(),
                    ..ServeConfig::default()
                })
            })
            .expect("bind serve daemon");
        let addr = server.local_addr().clone();
        let probe_spec = |tenant: u32| {
            use g80_isa::builder::KernelBuilder;
            let mut b = KernelBuilder::new(&format!("bench_serve_probe_{tenant}"));
            let p = b.param();
            let tid = b.tid_x();
            let byte = b.shl(tid, 2u32);
            let a = b.iadd(byte, p);
            let v = b.ld_global(a, 0);
            let w = b.imul(v, 3 + tenant);
            b.st_global(a, 0, w);
            let mut spec = WireLaunch::new(
                b.build(),
                g80_sim::LaunchDims {
                    grid: (8, 1),
                    block: (128, 1, 1),
                },
                vec![g80_isa::Value::from_u32(0)],
                8 * 128 * 4,
            );
            spec.writes = (0..8 * 128).map(|i| (i * 4, i ^ tenant)).collect();
            spec
        };
        let wall0 = Instant::now();
        let workers: Vec<_> = (0..serve_tenants)
            .map(|t| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    let mut client =
                        Client::connect(&addr, &format!("bench-{t}")).expect("connect");
                    let spec = probe_spec(t);
                    let mut lat = Vec::with_capacity(serve_requests as usize);
                    let mut hits = 0u64;
                    for _ in 0..serve_requests {
                        let t0 = Instant::now();
                        let (report, _) = client
                            .launch(&spec)
                            .expect("transport")
                            .expect("probe launch");
                        lat.push(t0.elapsed().as_secs_f64());
                        if report.served.from_cache() {
                            hits += 1;
                        }
                    }
                    (lat, hits)
                })
            })
            .collect();
        let mut lat = Vec::new();
        let mut hits = 0u64;
        for w in workers {
            let (l, h) = w.join().expect("serve bench tenant");
            lat.extend(l);
            hits += h;
        }
        let wall = wall0.elapsed().as_secs_f64();
        let mut admin = Client::connect(&addr, "bench-admin").expect("admin connect");
        admin.shutdown().expect("daemon shutdown");
        server.join().expect("daemon drain");
        lat.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
        let pct = |p: f64| lat[((lat.len() - 1) as f64 * p) as usize] * 1e3;
        (lat.len() as f64 / wall, pct(0.50), pct(0.99), hits)
    };
    assert!(
        serve_cache_hits > 0,
        "steady-state probe repeats must hit the shared memo through the daemon"
    );
    eprintln!(
        "{:<24} {serve_tenants} tenants  {:>8.1} req/s  p50 {:>7.3}ms  p99 {:>7.3}ms  ({serve_cache_hits} cache hits)",
        "serve_probe_fleet", serve_req_per_s, serve_p50_ms, serve_p99_ms
    );

    // ---- serve chaos fleet (same daemon, seeded transport faults) ----
    // The fleet runs twice: once clean, once with its context's wire faults
    // armed at rate 0.02 — disconnects, corrupt frames, splits, stalls at
    // all four wire sites. The chaos arm must (a) complete, (b) produce
    // aggregate KernelStats bit-identical to the clean arm (reconnect and
    // replay are invisible to results), and (c) stay within 2x of clean
    // throughput. Each request carries a unique loop kernel param so every
    // launch simulates real work (~milliseconds); on memo-hit probes the
    // 0.4 ms round-trips would be dwarfed by any injected stall and the
    // ratio would measure the fault schedule, not the recovery cost.
    fn serve_chaos_spec(tenant: u32, req: u32) -> g80_serve::WireLaunch {
        use g80_isa::builder::{KernelBuilder, Unroll};
        let mut b = KernelBuilder::new("bench_serve_chaos_probe");
        let p = b.param();
        let tid = b.tid_x();
        let acc0 = b.iadd(tid, p);
        let acc = b.mov(acc0);
        b.for_range(0u32, 256u32, 1, Unroll::None, |b, _| {
            let t = b.imul(acc, 1664525u32);
            let t2 = b.iadd(t, 1013904223u32);
            b.mov_to(acc, t2);
        });
        let byte = b.shl(tid, 2u32);
        b.st_global(byte, 0, acc);
        g80_serve::WireLaunch::new(
            b.build(),
            g80_sim::LaunchDims {
                grid: (8, 1),
                block: (128, 1, 1),
            },
            vec![g80_isa::Value::from_u32(tenant * 100_000 + req)],
            8 * 128 * 4,
        )
    }
    let chaos_requests = if check { 8u32 } else { 32 };
    // One fleet run in a context of its own — daemon and clients alike, so
    // its net counters are both ends' view of this run and nothing else.
    let run_chaos_fleet = |net_faults: Option<NetFaultConfig>| {
        use g80_serve::{serve, Addr, Client, ServeConfig};
        let ctx = SimContext::new(SimConfig {
            dedup: false,
            net_faults,
            ..SimConfig::default()
        });
        let server = ctx
            .enter(|| {
                serve(ServeConfig {
                    addr: Addr::parse("tcp:127.0.0.1:0").expect("addr"),
                    ..ServeConfig::default()
                })
            })
            .expect("bind serve daemon");
        let addr = server.local_addr().clone();
        let wall0 = Instant::now();
        let workers: Vec<_> = (0..serve_tenants)
            .map(|t| {
                let (addr, ctx) = (addr.clone(), Arc::clone(&ctx));
                std::thread::spawn(move || {
                    ctx.enter(|| {
                        let mut client = Client::connect_retry(
                            &addr,
                            &format!("chaos-{t}"),
                            std::time::Duration::from_secs(10),
                        )
                        .expect("connect");
                        let mut agg = (0u64, 0u64, 0u64);
                        for i in 0..chaos_requests {
                            let (report, _) = client
                                .launch(&serve_chaos_spec(t, i))
                                .expect("transport")
                                .expect("chaos launch");
                            agg.0 += report.stats.cycles;
                            agg.1 += report.stats.warp_instructions;
                            agg.2 += report.stats.thread_instructions;
                        }
                        agg
                    })
                })
            })
            .collect();
        let mut agg = (0u64, 0u64, 0u64);
        for w in workers {
            let (c, wi, s) = w.join().expect("chaos fleet tenant");
            agg.0 += c;
            agg.1 += wi;
            agg.2 += s;
        }
        let wall = wall0.elapsed().as_secs_f64();
        // Shut down disarmed: the admin exchange should not have to ride
        // out injected faults after the measurement window closed.
        ctx.net_faults().arm(None);
        let mut admin =
            Client::connect_retry(&addr, "chaos-admin", std::time::Duration::from_secs(10))
                .expect("admin connect");
        admin.shutdown().expect("daemon shutdown");
        server.join().expect("daemon drain");
        let rps = f64::from(serve_tenants * chaos_requests) / wall;
        (rps, agg, ctx.enter(net_counters))
    };
    let (chaos_clean_rps, chaos_clean_agg, _) = run_chaos_fleet(None);
    let (chaos_armed_rps, chaos_armed_agg, chaos_net) =
        run_chaos_fleet(Some(NetFaultConfig::new(0xC0FF_EE00, 0.02)));
    assert_eq!(
        chaos_clean_agg, chaos_armed_agg,
        "serve_chaos_fleet: transport chaos changed aggregate KernelStats \
         (reconnect-and-replay must be invisible to results)"
    );
    let chaos_ratio = chaos_clean_rps / chaos_armed_rps;
    eprintln!(
        "{:<24} {serve_tenants} tenants  clean {:>8.1} req/s  chaos {:>8.1} req/s  ratio {:>5.3}x  \
         ({} disconnects, {} frame retries, {} reconnects)",
        "serve_chaos_fleet",
        chaos_clean_rps,
        chaos_armed_rps,
        chaos_ratio,
        chaos_net.disconnects,
        chaos_net.frames_retried,
        chaos_net.reconnects
    );

    // ---- report ----
    let mut json = String::from("{\n  \"benchmark\": \"g80-sim engine wall-clock\",\n");
    json.push_str(&format!(
        "  \"runs_per_engine\": {runs},\n  \"workloads\": [\n"
    ));
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"reference_s\": {:.6}, \"predecoded_s\": {:.6}, \"speedup\": {:.3}}}{}\n",
            r.name,
            r.reference_s,
            r.predecoded_s,
            r.speedup(),
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n  \"row_structure\": [\n");
    for (i, r) in row_structure.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"tracked_s\": {:.6}, \"uniform\": {}, \"affine\": {}, \"full\": {}, \"shaped_fraction\": {:.4}}}{}\n",
            r.name,
            r.tracked_s,
            r.uniform,
            r.affine,
            r.full_ops,
            r.shaped_fraction(),
            if i + 1 < row_structure.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"redundancy\": [\n");
    json.push_str(&redundancy_json(&redundancy));
    json.push_str("  ],\n  \"const_dedup\": [\n");
    json.push_str(&redundancy_json(&const_dedup));
    json.push_str("  ],\n  \"sfu_rows\": [\n");
    for (i, r) in sfu_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"lanes_ns_per_row\": {:.1}, \"row_ns_per_row\": {:.1}, \"speedup\": {:.2}, \"avx2\": {sfu_avx2}}}{}\n",
            r.name,
            r.lanes_ns,
            r.row_ns,
            r.lanes_ns / r.row_ns,
            if i + 1 < sfu_rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"wire_crc32\": {{\"name\": \"wire_crc32\", \"block_kb\": 64, \"bitwise_ns_per_kb\": {crc_bitwise_ns:.1}, \"sliced_ns_per_kb\": {crc_sliced_ns:.1}, \"speedup\": {crc_speedup:.2}}},\n"
    ));
    json.push_str(&format!(
        "  \"disk\": {{\"name\": \"disk_tuner_fleet\", \"cold_s\": {:.6}, \"warm_s\": {:.6}, \"speedup\": {:.3}, \"disk_hits\": {disk_hits}, \"disk_misses\": {disk_misses}, \"disk_evictions\": {disk_evictions}}},\n",
        disk_cold_s, disk_warm_s, disk_speedup
    ));
    json.push_str(&format!(
        "  \"hardening\": {{\"name\": \"hardening_matmul_1024\", \"disarmed_s\": {:.6}, \"armed_s\": {:.6}, \"overhead_ratio\": {:.4}}},\n",
        hardening_base_s, hardening_on_s, hardening_ratio
    ));
    json.push_str(&format!(
        "  \"serve\": {{\"name\": \"serve_probe_fleet\", \"tenants\": {serve_tenants}, \"requests_per_tenant\": {serve_requests}, \"req_per_s\": {serve_req_per_s:.1}, \"p50_ms\": {serve_p50_ms:.4}, \"p99_ms\": {serve_p99_ms:.4}, \"cache_hit_responses\": {serve_cache_hits}}},\n"
    ));
    json.push_str(&format!(
        "  \"serve_chaos\": {{\"name\": \"serve_chaos_fleet\", \"tenants\": {serve_tenants}, \"requests_per_tenant\": {chaos_requests}, \"clean_req_per_s\": {chaos_clean_rps:.1}, \"chaos_req_per_s\": {chaos_armed_rps:.1}, \"chaos_ratio\": {chaos_ratio:.4}, \"disconnects\": {}, \"frames_retried\": {}, \"reconnects\": {}, \"bytes_resent\": {}}}\n",
        chaos_net.disconnects, chaos_net.frames_retried, chaos_net.reconnects, chaos_net.bytes_resent
    ));
    json.push_str("}\n");
    std::fs::write(&out_path, &json).expect("write benchmark report");
    eprintln!("wrote {out_path}");

    // ---- performance floors (exit 2 on a miss, after reporting all) ----
    let mut missed: Vec<String> = Vec::new();
    let headline = rows[0].speedup();
    if headline < 2.0 {
        missed.push(format!(
            "headline matmul speedup {headline:.2}x is below the 2x floor"
        ));
    }
    let mut red_floor = |name: &str, floor: f64| {
        let s = redundancy
            .iter()
            .find(|r| r.name == name)
            .unwrap()
            .speedup();
        if s < floor {
            missed.push(format!(
                "{name} speedup {s:.2}x is below the {floor}x floor"
            ));
        }
    };
    // The dedup floor tracks its baseline: 3x → 2.5x when row-shape
    // tracking landed (the dedup-OFF arm folded 1-D rows, ~30% faster),
    // → 1.1x with half-warp-affine rows: on this 16x16-block kernel the
    // dedup-OFF arm got ~3x faster and the replay-bound dedup-ON arm
    // ~1.6x, so both now spend their time in the same per-lane loads and
    // FMAs and the ratio measures 1.3–1.5x. The floor guards the
    // *remaining* benefit of skipping the scheduler for 8004 of 8192
    // blocks; absolute times for both arms are in BENCH_sim.json.
    red_floor("matmul_1024_dedup", 1.1);
    red_floor("tuner_fleet_revisit", 5.0);
    // A cold n=32 sweep measures ≈ 1.6x (2-core box) with a donor per queue
    // length and 0.8–1.0x when only SMs whose queue refills recorded a
    // witness (none replay at n=32): 1.4x says the tuner's fully resident
    // grids still replay.
    red_floor("tuner_cold_dedup", 1.4);
    let c = redundancy
        .iter()
        .find(|r| r.name == "tuner_cold_dedup")
        .unwrap()
        .counters;
    let sweeps = tuner_runs as u64;
    if (c.dedup_fast_blocks, c.dedup_sim_blocks, c.dedup_fallbacks)
        != (165 * sweeps, 15 * sweeps, 0)
    {
        missed.push(format!(
            "tuner_cold_dedup replayed / simulated / fell back {} / {} / {} over {tuner_runs} \
             sweeps (want 165 / 15 / 0 per sweep)",
            c.dedup_fast_blocks, c.dedup_sim_blocks, c.dedup_fallbacks
        ));
    }
    // Constant-cache kernels: MRI-Q measures 2.5x in CPU time (8 of 128
    // blocks go through the scheduler; it was 1.5-1.8x while both arms
    // spent most of their time in host sinf/cosf); 1.5x says the replay
    // path kept engaging and kept its broadcast closed form. Every row must
    // actually replay — 120 of MRI-Q's and MRI-FHD's 128 blocks, 246 of
    // CP's 256, per launch — and never fall back: a fallback here means a
    // witness check that used to pass stopped passing.
    let mriq_speedup = const_dedup[0].cpu_speedup();
    if mriq_speedup < 1.5 {
        missed.push(format!(
            "mriq_dedup CPU-time speedup {mriq_speedup:.2}x is below the 1.5x floor"
        ));
    }
    for r in &const_dedup {
        if r.counters.dedup_fast_blocks < 100 || r.counters.dedup_fallbacks != 0 {
            missed.push(format!(
                "{} replayed {} blocks with {} fallbacks (floor: >= 100 replayed, 0 fallbacks)",
                r.name, r.counters.dedup_fast_blocks, r.counters.dedup_fallbacks
            ));
        }
    }
    // The SFU rows only have a floor where the 8-wide kernel exists; the
    // portable twin is the same scalar code on both sides of the ratio.
    if sfu_avx2 {
        for r in &sfu_rows {
            let s = r.lanes_ns / r.row_ns;
            if r.floor.is_some_and(|floor| s < floor) {
                missed.push(format!("{} row speedup {s:.2}x is below its floor", r.name));
            }
        }
    }
    // Slicing-by-8 measures ≈ 8x over the bitwise loop; 3x says the frame
    // path did not go back to a byte (or bit) at a time.
    if crc_speedup < 3.0 {
        missed.push(format!(
            "wire_crc32 speedup {crc_speedup:.2}x is below the 3x floor"
        ));
    }
    if disk_speedup < 10.0 {
        missed.push(format!(
            "disk_tuner_fleet warm speedup {disk_speedup:.2}x is below the 10x floor"
        ));
    }
    // Row-structure floors: the shape algebra must keep engaging where the
    // workload's rows are uniform/affine by construction.
    for (name, floor, lost) in [
        // Saxpy's arithmetic is entirely uniform/affine and its global
        // accesses take the closed-form degree path.
        ("saxpy_rows", 0.5, "uniform/affine folding stopped engaging"),
        // The paper's own kernel shape: 16×16 thread blocks, where tid.x/tid.y
        // are affine per half-warp. Its whole address chain must stay shaped
        // (the warp-affine shape of PR 9 left it 96% `Full`).
        (
            "matmul_rows",
            0.6,
            "half-warp-affine rows stopped carrying the 16x16 address chain",
        ),
        // Figure 4's 8×8 tile: tid.x/tid.y are affine per run of 8 lanes.
        // Before rows carried a period this variant read 0.07 (at n=48).
        (
            "matmul_rows_8x8",
            0.6,
            "rows of period 8 stopped carrying the 8x8 address chain",
        ),
    ] {
        let row = row_structure.iter().find(|r| r.name == name).unwrap();
        if row.shaped_fraction() < floor {
            missed.push(format!(
                "{name} shaped fraction {:.2} is below the {floor} floor ({lost})",
                row.shaped_fraction()
            ));
        }
    }
    // Paired-min overhead measures 1.00x–1.03x depending on container
    // load; 1.05x asserts "armed-but-silent costs noise, not a tax"
    // without flapping on a loaded runner.
    if hardening_ratio > 1.05 {
        missed.push(format!(
            "hardening_matmul_1024 overhead {hardening_ratio:.3}x exceeds the 1.05x ceiling"
        ));
    }
    // The serving tier: 8 loopback tenants on warm probes must clear a
    // conservative throughput floor with a bounded tail — a regression here
    // means framing, admission, or the per-connection threads got slow.
    if serve_req_per_s < 200.0 {
        missed.push(format!(
            "serve_probe_fleet {serve_req_per_s:.1} req/s is below the 200 req/s floor"
        ));
    }
    if serve_p99_ms > 250.0 {
        missed.push(format!(
            "serve_probe_fleet p99 {serve_p99_ms:.3}ms exceeds the 250ms ceiling"
        ));
    }
    // The chaos arm: seeded transport faults at rate 0.02 may slow the
    // fleet but not stall it (each fault costs one bounded stall or one
    // reconnect-and-replay) and may never change results — the
    // bit-identity assert above already enforced the latter. The disarmed
    // cost of the CRC/deadline hardening itself is covered by the
    // serve_probe_fleet floor, which runs entirely disarmed.
    if chaos_armed_rps < 100.0 {
        missed.push(format!(
            "serve_chaos_fleet {chaos_armed_rps:.1} req/s under chaos is below the 100 req/s floor"
        ));
    }
    if chaos_ratio > 2.0 {
        missed.push(format!(
            "serve_chaos_fleet chaos-vs-clean ratio {chaos_ratio:.3}x exceeds the 2.0x ceiling"
        ));
    }
    if !missed.is_empty() {
        for m in &missed {
            eprintln!("floor missed: {m}");
        }
        return 2;
    }
    0
}
