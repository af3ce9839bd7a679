//! Host-performance A/B benchmark of the simulator's execution strategies.
//!
//! Every row compares two arms on identical work, each arm in a
//! `SimContext` of its own (cold caches, zero counters, exactly the
//! configuration the row names), with bit-identical results asserted along
//! the way. All rows share one method: [`interleave`] runs the arms
//! back-to-back, pair after pair, so machine drift lands on both alike; a
//! [`Row`] holds what the row reports and the bounds `--check` holds it to;
//! one writer turns the rows into the JSON report. The rows A/B the
//! product's cache, dedup, hardening, kernel-row and serving layers; the
//! product engine against the oracle is the `g80-oracle` crate's
//! `engine_speedup` test.
//!
//! Writes the report to the path given as the last argument (default
//! `BENCH_sim.json`). The committed copy at the repo root is regenerated
//! with:
//!
//! ```text
//! cargo run --release -p g80-bench --bin bench_sim -- BENCH_sim.json
//! ```
//!
//! `--check` runs fewer repetitions and is what CI's benchmark-floor job
//! uses; the bounds are enforced in every mode.
//!
//! Exit codes: `0` all bounds met, `2` a performance bound was missed,
//! `3` the harness itself failed (an A/B bit-identity mismatch, a
//! nondeterministic fleet, an unwritable report path).

#![warn(clippy::too_many_lines)]

use g80_apps::cp::CoulombicPotential;
use g80_apps::matmul::{MatMul, Variant};
use g80_apps::mrifhd::MriFhd;
use g80_apps::mriq::MriQ;
use g80_bench::matmul_study::{revisit_fleet, REVISIT_LAUNCHES};
use g80_isa::builder::{KernelBuilder, Unroll};
use g80_isa::exec;
use g80_isa::inst::SfuOp;
use g80_isa::Value;
use g80_serve::fleet::{self, probe_spec, run_fleet, FleetReport};
use g80_serve::{serve, Addr, ServeConfig, WireLaunch};
use g80_sim::{
    clear_memo_cache, memo_counters, net_counters, FaultConfig, KernelStats, LaunchDims,
    MemoCounters, NetFaultConfig, SimConfig, SimContext, Site,
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

/// What one arm cost in one pair: wall-clock and process CPU seconds.
#[derive(Clone, Copy)]
struct Sample {
    wall: f64,
    cpu: f64,
}

/// The one timer. `pairs` times, arm 0 then arm 1, except that odd pairs run
/// arm 1 first so neither arm always runs second: `setup(arm)` prepares the
/// arm outside the timed window (a context, an empty directory) and `run`
/// does the timed work. Returns every pair's samples and results, arm 0
/// first.
fn interleave<S, T>(
    pairs: usize,
    mut setup: impl FnMut(usize) -> S,
    mut run: impl FnMut(S) -> T,
) -> Vec<[(Sample, T); 2]> {
    let mut arm = |i| {
        let s = setup(i);
        let c0 = process_cpu_s();
        let t0 = Instant::now();
        let out = run(s);
        let wall = t0.elapsed().as_secs_f64();
        let cpu = process_cpu_s() - c0;
        (Sample { wall, cpu }, out)
    };
    (0..pairs)
        .map(|p| {
            if p % 2 == 0 {
                [arm(0), arm(1)]
            } else {
                let one = arm(1);
                [arm(0), one]
            }
        })
        .collect()
}

/// Each arm's minimum of `f` over the pairs (min is the low-noise estimator
/// for a deterministic workload).
fn best<T>(pairs: &[[(Sample, T); 2]], f: impl Fn(&Sample) -> f64) -> [f64; 2] {
    let min = |arm: usize| {
        pairs
            .iter()
            .map(|p| f(&p[arm].0))
            .fold(f64::INFINITY, f64::min)
    };
    [min(0), min(1)]
}

/// Asserts every pair's two results equal.
fn assert_arms_agree<T: PartialEq>(what: &str, pairs: &[[(Sample, T); 2]]) {
    for [(_, a), (_, b)] in pairs {
        assert!(a == b, "{what}");
    }
}

#[derive(Clone, Copy)]
enum Bound {
    Floor(f64),
    Ceiling(f64),
    Exact(f64),
}

impl Bound {
    fn holds(self, v: f64) -> bool {
        match self {
            Bound::Floor(b) => v >= b,
            Bound::Ceiling(b) => v <= b,
            Bound::Exact(b) => v == b,
        }
    }

    fn describe(self) -> String {
        match self {
            Bound::Floor(b) => format!(">= {b}"),
            Bound::Ceiling(b) => format!("<= {b}"),
            Bound::Exact(b) => format!("== {b}"),
        }
    }
}

/// One row of the report: its fields in report order (the arms' statistics
/// first) and the bounds `--check` holds some of them to.
struct Row {
    name: &'static str,
    group: &'static str,
    fields: Vec<(&'static str, f64)>,
    bounds: Vec<(&'static str, Bound)>,
}

impl Row {
    fn new(name: &'static str, group: &'static str) -> Row {
        Row {
            name,
            group,
            fields: Vec::new(),
            bounds: Vec::new(),
        }
    }

    /// A two-arm row whose statistic is each arm's min wall-clock seconds:
    /// the arms under `labels`, then `speedup` = arm 0 / arm 1.
    fn min_wall<T>(
        name: &'static str,
        group: &'static str,
        labels: [&'static str; 2],
        pairs: &[[(Sample, T); 2]],
    ) -> Row {
        let [a, b] = best(pairs, |s| s.wall);
        Row::new(name, group)
            .field(labels[0], a)
            .field(labels[1], b)
            .field("speedup", a / b)
    }

    fn field(mut self, key: &'static str, value: f64) -> Row {
        self.fields.push((key, value));
        self
    }

    fn bound(mut self, key: &'static str, bound: Bound) -> Row {
        self.bounds.push((key, bound));
        self
    }

    fn get(&self, key: &str) -> f64 {
        let field = self.fields.iter().find(|(k, _)| *k == key);
        field.expect("a bound names a field of its row").1
    }

    /// One line per bound the row misses.
    fn missed(&self) -> impl Iterator<Item = String> + '_ {
        self.bounds.iter().filter_map(|&(key, bound)| {
            let v = self.get(key);
            let miss = format!("{} {key} = {v:.3}, want {}", self.name, bound.describe());
            (!bound.holds(v)).then_some(miss)
        })
    }

    fn json(&self) -> String {
        let fields: String = self
            .fields
            .iter()
            .map(|&(k, v)| format!(", \"{k}\": {}", number(v, 6)))
            .collect();
        let bounds: Vec<String> = self
            .bounds
            .iter()
            .map(|(k, b)| format!("\"{k}\": \"{}\"", b.describe()))
            .collect();
        format!(
            "{{\"name\": \"{}\", \"group\": \"{}\"{fields}, \"bounds\": {{{}}}}}",
            self.name,
            self.group,
            bounds.join(", ")
        )
    }

    fn print(&self) {
        let fields = self
            .fields
            .iter()
            .map(|&(k, v)| format!("  {k} {}", number(v, 4)));
        eprintln!("{:<24}{}", self.name, fields.collect::<String>());
    }
}

/// `v` with `decimals` places, or none for a count.
fn number(v: f64, decimals: usize) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.decimals$}")
    }
}

/// Block-class dedup off vs on, over `runs` launches of one workload.
///
/// The memo is *on* but cleared before every timed run, so each launch
/// probes cold, records a genuine miss, and is never replayed — both arms
/// pay the identical lookup/record cost and the ratio measures dedup alone.
/// The row reports the dedup-on arm's own counters, not literals. Besides
/// wall clock it reports CPU time: dedup's donor SM runs alone before the
/// other fifteen replay, so its wall-clock ratio depends on the host's core
/// count (MRI-Q: 1.9x on one core, 1.6x on two, ~1.3x on four); the work
/// removed does not.
fn dedup_row(
    name: &'static str,
    group: &'static str,
    runs: usize,
    run: &mut dyn FnMut() -> KernelStats,
) -> Row {
    let arms = [context(true, false), context(true, true)];
    let setup = |arm: usize| {
        arms[arm].enter(clear_memo_cache);
        &arms[arm]
    };
    let pairs = interleave(runs, setup, |ctx| ctx.enter(|| stats_bytes(&run())));
    let what = format!("{name}: dedup changed the canonical KernelStats bytes");
    assert_arms_agree(&what, &pairs);
    let on = arms[1].enter(memo_counters);
    // Zero misses would flag a harness bug: real launches were timed.
    assert!(
        on.misses >= runs as u64,
        "{name}: every timed launch must record a memo miss (got {} over {runs} runs)",
        on.misses
    );
    let [base_cpu, on_cpu] = best(&pairs, |s| s.cpu);
    let row = Row::min_wall(name, group, ["baseline_s", "optimized_s"], &pairs);
    // The CPU ratio falls back to wall clock below the 10 ms tick.
    let cpu_speedup = if base_cpu > 0.0 && on_cpu > 0.0 {
        base_cpu / on_cpu
    } else {
        row.get("speedup")
    };
    row.field("memo_hits", on.hits as f64)
        .field("memo_misses", on.misses as f64)
        .field("dedup_fast_blocks", on.dedup_fast_blocks as f64)
        .field("dedup_sim_blocks", on.dedup_sim_blocks as f64)
        .field("dedup_fallbacks", on.dedup_fallbacks as f64)
        .field("baseline_cpu_s", base_cpu)
        .field("optimized_cpu_s", on_cpu)
        .field("cpu_speedup", cpu_speedup)
}

/// One mechanism: what `eval_sfu_row` costs per full-mask row against the
/// 32 scalar `eval_sfu` calls the reference engine pays, on arguments spread
/// over [-50, 50] like MRI's phase terms (moved to [0.5, 50.5] for the
/// root), asserted bit-identical. ~1 ms a round: fifty rounds even under
/// `--check`, so the min sees the core after its 256-bit units warmed up.
fn sfu_row(name: &'static str, op: SfuOp) -> Row {
    const ROWS: usize = 4096;
    let input: Vec<exec::Row> = (0..ROWS)
        .map(|r| {
            std::array::from_fn(|l| {
                let x = ((r * 32 + l) as f32 * 0.618_034).fract() * 100.0 - 50.0;
                Value::from_f32(if op == SfuOp::Rsqrt { x.abs() + 0.5 } else { x })
            })
        })
        .collect();
    let mut out = [vec![[Value::ZERO; 32]; ROWS], vec![[Value::ZERO; 32]; ROWS]];
    let pairs = interleave(
        50,
        |arm| arm,
        |arm| {
            let rows = black_box(&input).iter().zip(out[arm].iter_mut());
            if arm == 0 {
                for (a, d) in rows {
                    for l in 0..32 {
                        d[l] = exec::eval_sfu(op, a[l]);
                    }
                }
            } else {
                for (a, d) in rows {
                    exec::eval_sfu_row(op, a, d, u32::MAX);
                }
            }
            black_box(&out[arm]);
        },
    );
    assert!(
        out[0] == out[1],
        "{name}: eval_sfu_row is not bit-identical to 32 eval_sfu calls"
    );
    let [lanes, row] = best(&pairs, |s| s.wall * 1e9 / ROWS as f64);
    Row::new(name, "sfu_rows")
        .field("lanes_ns_per_row", lanes)
        .field("row_ns_per_row", row)
        .field("speedup", lanes / row)
}

/// One mechanism: what `g80_sim::wire::crc32` (slicing-by-8) costs per KB of
/// frame payload against CRC-32/IEEE computed one bit at a time from the
/// polynomial — ns/KB on 64 KB, min over 20 pairs. Every served payload
/// byte is summed four times per round trip, so this rate is most of a
/// memo-hit request's wire cost.
fn crc_row() -> Row {
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
    let sums: [fn(&[u8]) -> u32; 2] = [bitwise, g80_sim::wire::crc32];
    let pairs = interleave(20, |arm| sums[arm], |sum| sum(black_box(&block)));
    assert_arms_agree(
        "wire_crc32: the sliced CRC disagrees with the bit-at-a-time reference",
        &pairs,
    );
    let [bitwise_ns, sliced_ns] = best(&pairs, |s| s.wall * 1e9 / KB as f64);
    Row::new("wire_crc32", "wire")
        .field("bitwise_ns_per_kb", bitwise_ns)
        .field("sliced_ns_per_kb", sliced_ns)
        .field("speedup", bitwise_ns / sliced_ns)
        .bound("speedup", Bound::Floor(3.0))
}

/// Loopback tenants in the serving rows.
const TENANTS: usize = 8;

/// Starts a daemon in `ctx` on a loopback port, runs the fleet against it
/// from the same context, and drains it — disarmed, so the admin exchange
/// does not ride out injected faults after the measurement closed.
fn serve_fleet(
    ctx: &Arc<SimContext>,
    requests: usize,
    spec: impl Fn(usize, usize) -> WireLaunch + Sync,
) -> FleetReport {
    ctx.enter(|| {
        let server = serve(ServeConfig {
            addr: Addr::parse("tcp:127.0.0.1:0").expect("addr"),
            ..ServeConfig::default()
        })
        .expect("bind serve daemon");
        let addr = server.local_addr().clone();
        let report = run_fleet(&addr, TENANTS, requests, spec).expect("serve fleet");
        ctx.net_faults().arm(None);
        fleet::shutdown(&addr).expect("daemon shutdown");
        server.join().expect("daemon drain");
        report
    })
}

/// A chaos request: a loop kernel with a param unique to (tenant, request),
/// so every launch simulates real work (~milliseconds). On memo-hit probes
/// the 0.4 ms round trips would be dwarfed by any injected stall and the
/// ratio would measure the fault schedule, not the recovery cost.
fn chaos_spec(tenant: usize, req: usize) -> WireLaunch {
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
    let dims = LaunchDims {
        grid: (8, 1),
        block: (128, 1, 1),
    };
    let param = Value::from_u32((tenant * 100_000 + req) as u32);
    WireLaunch::new(b.build(), dims, vec![param], 8 * 128 * 4)
}

fn main() {
    // Bound misses and harness breakage must be distinguishable to CI: a
    // missed bound is a performance regression (exit 2), while a panic
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
    let mut rows = Vec::new();
    let mut add = |row: Row| {
        row.print();
        rows.push(row);
    };
    // Matmul 1024², the dedup and hardening rows' shared workload.
    let big = MatMul { n: 1024 };
    let (big_a, big_b) = big.generate(42);
    let mut big_run = || big.run(TILED16U, &big_a, &big_b).1;
    dedup_rows(&mut add, check, &mut big_run);
    cache_rows(&mut add, check);
    add(hardening_row(&mut big_run));
    host_rows(&mut add);
    serve_rows(&mut add, check);
    report(&rows, check, &out_path)
}

/// The paper's best matmul configuration: 16x16 tiles, fully unrolled.
const TILED16U: Variant = Variant::Tiled {
    tile: 16,
    unroll: true,
};

/// Repetitions per row: `--check` (CI) repeats less, as `(runs, quick)`;
/// bounds are enforced either way.
fn repetitions(check: bool) -> (usize, usize) {
    if check {
        (2, 1)
    } else {
        (5, 2)
    }
}

/// Every dedup row holds its replayed and simulated block counts exact over
/// its `runs` launches, with no fallback: a recorder that silently stopped
/// on some SMs would move them.
fn exact_blocks(row: Row, runs: usize, fast: u64, sim: u64) -> Row {
    let exact = |per_launch: u64| Bound::Exact((per_launch * runs as u64) as f64);
    row.bound("dedup_fast_blocks", exact(fast))
        .bound("dedup_sim_blocks", exact(sim))
        .bound("dedup_fallbacks", Bound::Exact(0.0))
}

fn dedup_rows(add: &mut impl FnMut(Row), check: bool, big_run: &mut dyn FnMut() -> KernelStats) {
    // ---- block-class dedup ----
    // Matmul 1024² is 4096 blocks that differ only by base address: after
    // the donor SM's transient the rest replay functionally. Several
    // seconds a run, so one pair under --check. Both arms now spend most of
    // their time in the same per-lane loads and FMAs (half-warp-affine
    // rows made dedup-off ~3x faster), so the ratio measures 1.3–1.5x and
    // the floor guards the remaining benefit of skipping the scheduler for
    // 4002 of 4096 blocks a launch.
    let (runs, quick) = repetitions(check);
    let row = dedup_row("matmul_1024_dedup", "dedup", quick, big_run);
    let row = row.bound("speedup", Bound::Floor(1.1));
    add(exact_blocks(row, quick, 4002, 94));
    // A cold n=32 sweep of the nine Figure-4 variants as one `run_batch`:
    // no SM holds more than four blocks, all resident at once, so only a
    // donor per queue length keeps it out of the timed engine (15 of 180
    // blocks simulate). It measures ≈ 1.6x on a 2-core box, 0.8–1.0x
    // without donor reuse. A sweep takes milliseconds, so 200 in every
    // mode: a min over a window that short read 1.3x when a neighbour's
    // burst covered it.
    let tuner = MatMul { n: 32 };
    let (tuner_a, tuner_b) = tuner.generate(42);
    let sweep = Variant::tuner_sweep();
    let sweeps = 200;
    let row = dedup_row("tuner_cold_dedup", "dedup", sweeps, &mut || {
        let stats = tuner.run_batch(&sweep, &tuner_a, &tuner_b);
        let mut total = stats[0].1.clone();
        stats[1..].iter().for_each(|(_, s, _)| total.accumulate(s));
        total
    });
    let row = row.bound("speedup", Bound::Floor(1.4));
    add(exact_blocks(row, sweeps, 165, 15));

    // ---- constant-cache kernels under dedup (suite scale) ----
    // The paper's top speedup tier reads constant memory as warp-wide
    // broadcasts at block-invariant addresses, so one donor SM runs the
    // timed engine (its constant-cache tags in the period snapshot) and
    // the other fifteen replay. Each arm is a whole `run`, set-up and
    // copies included. Every row must replay 120 of MRI-Q's and MRI-FHD's
    // 128 blocks and 246 of CP's 256 per launch and never fall back: a
    // fallback means a witness check that used to pass stopped passing.
    // MRI-Q measures 2.5x in CPU time; 1.5x says replay kept engaging and
    // kept its broadcast closed form. Sub-second arms: three pairs even
    // under --check.
    let const_runs = runs.max(3);
    let mriq = MriQ::default();
    let d = mriq.generate(17);
    let row = dedup_row("mriq_dedup", "const_dedup", const_runs, &mut || {
        mriq.run(&d, true).2
    });
    let fhd = MriFhd::default();
    let fhd_data = fhd.generate(23);
    let cp = CoulombicPotential::default();
    let atoms = cp.generate(5);
    let row = row.bound("cpu_speedup", Bound::Floor(1.5));
    add(exact_blocks(row, const_runs, 120, 8));
    let row = dedup_row("mrifhd_dedup", "const_dedup", const_runs, &mut || {
        fhd.run(&fhd_data).2
    });
    add(exact_blocks(row, const_runs, 120, 8));
    let row = dedup_row("cp_dedup", "const_dedup", const_runs, &mut || {
        cp.run(&atoms, true).1
    });
    add(exact_blocks(row, const_runs, 246, 10));
}

fn cache_rows(add: &mut impl FnMut(Row), check: bool) {
    // ---- launch memo on a revisiting tuner fleet ----
    // With the cache warm every launch is a replay; dedup stays off so the
    // row measures the memo alone. One round first brings each device's C
    // region to its fixed point, so every timed launch sees one pre-launch
    // image (one memo key); each arm then runs an untimed round (memo on:
    // the recording round).
    let round = revisit_fleet();
    let rounds = if check { 2 } else { 5 };
    context(false, false).enter(&round);
    let arms = [context(false, false), context(true, false)];
    let fp = arms.each_ref().map(|ctx| ctx.enter(&round));
    assert_eq!(fp[0], fp[1], "memo cache changed simulated results");
    let before = arms[1].enter(memo_counters);
    let pairs = interleave(rounds, |arm| &arms[arm], |ctx| ctx.enter(&round));
    assert!(
        pairs.iter().flatten().all(|(_, f)| *f == fp[0]),
        "revisit fleet is not deterministic"
    );
    let revisits = arms[1].enter(memo_counters).since(&before);
    assert_eq!(
        revisits.hits,
        rounds as u64 * REVISIT_LAUNCHES,
        "every revisit launch must be served from the warm cache ({revisits:?})"
    );
    add(Row::min_wall(
        "tuner_fleet_revisit",
        "memo",
        ["memo_off_s", "memo_on_s"],
        &pairs,
    )
    .field("memo_hits", revisits.hits as f64)
    .field("memo_misses", revisits.misses as f64)
    .bound("speedup", Bound::Floor(5.0)));

    // ---- disk tier: cold process vs warm directory ----
    // The same fleet across the process boundary. Cold: an empty directory
    // and a cold LRU, so every launch simulates and spills. Warm: a new
    // context on the directory the last cold arm filled (pair 0 runs cold
    // first), so each launch comes back from the files alone — what a
    // fresh tuner process sees.
    // The keys derive from kernel content, config, params and memory
    // image, so replaying here proves a restarted fleet would replay too.
    let disk_dir = std::env::temp_dir().join(format!("g80-bench-disk-{}", std::process::id()));
    let disk_setup = |arm: usize| {
        if arm == 0 {
            let _ = std::fs::remove_dir_all(&disk_dir);
        }
        SimContext::new(SimConfig {
            dedup: false,
            disk_dir: Some(disk_dir.clone()),
            ..SimConfig::default()
        })
    };
    let pairs = interleave(rounds, disk_setup, |ctx| {
        ctx.enter(|| (round(), memo_counters()))
    });
    let _ = std::fs::remove_dir_all(&disk_dir);
    assert!(
        pairs.iter().flatten().all(|(_, (f, _))| *f == fp[0]),
        "disk replay changed simulated results"
    );
    let tally = |arm: usize, f: fn(&MemoCounters) -> u64| {
        pairs.iter().map(|p| f(&p[arm].1 .1)).sum::<u64>()
    };
    let disk_hits = tally(1, |c| c.disk_hits);
    assert_eq!(
        disk_hits,
        rounds as u64 * REVISIT_LAUNCHES,
        "every warm-arm launch must be served from disk"
    );
    let evictions = tally(0, |c| c.disk_evictions) + tally(1, |c| c.disk_evictions);
    assert_eq!(evictions, 0, "no bench entry may be corrupt");
    add(
        Row::min_wall("disk_tuner_fleet", "disk", ["cold_s", "warm_s"], &pairs)
            .field("disk_hits", disk_hits as f64)
            .field(
                "disk_misses",
                (tally(0, |c| c.disk_misses) + tally(1, |c| c.disk_misses)) as f64,
            )
            .bound("speedup", Bound::Floor(10.0)),
    );
}

/// The distribution-free 90 % interval on the median of `n >= 5` `ratios`
/// (sorted in place), 95 % on each side: the order statistics
/// `[r_(k), r_(n+1-k)]` for the largest `k` with P(Binomial(n, 1/2) < k) <= 5 %.
fn median_interval(ratios: &mut [f64]) -> [f64; 2] {
    ratios.sort_by(f64::total_cmp);
    let n = ratios.len();
    let (mut k, mut choose, mut below) = (0, 1.0, 0.0);
    while k < n {
        below += choose / 2f64.powi(n as i32);
        if below > 0.05 {
            break;
        }
        choose *= (n - k) as f64 / (k + 1) as f64;
        k += 1;
    }
    [ratios[k - 1], ratios[n - k]]
}

/// Each fault site's `polls_*` field in the hardening row: its polls in one
/// warm armed launch, held `==` where the count is fixed. `pool.worker` is
/// polled by each worker that wakes for a task, so it varies with the run
/// and the worker count.
const POLLS: [(Site, &str, Option<f64>); 9] = [
    (Site::DeviceAlloc, "polls_device_alloc", Some(3.0)),
    (Site::DeviceCopy, "polls_device_copy", Some(3.0)),
    (Site::Decode, "polls_isa_decode", Some(0.0)),
    (Site::SmStep, "polls_sm_step", Some(1.0)),
    (Site::MemoStore, "polls_memo_store", Some(0.0)),
    (Site::MemoLoad, "polls_memo_load", Some(0.0)),
    (Site::PoolWorker, "polls_pool_worker", None),
    (Site::DiskCache, "polls_memo_disk", Some(0.0)),
    (Site::ServeDecode, "polls_serve_decode", Some(0.0)),
];

fn hardening_row(big_run: &mut dyn FnMut() -> KernelStats) -> Row {
    // ---- hardening overhead (fault sites + watchdog armed but silent) ----
    // The fault sites and the watchdog are compiled in unconditionally, so
    // the armed-but-silent path must stay cheap. Baseline: injector
    // disarmed, watchdog off. Hardened: every site armed at rate 0.0 with
    // the watchdog counting against an unreachable budget. Memo off and
    // dedup on in both. A launch polls its sites a handful of times (the
    // `polls_*` fields, pinned exactly), far too few to show in a launch
    // of ~4 CPU seconds, and the watchdog compare runs in both arms (an
    // unset budget is `u64::MAX`): what the ratio measures is the snapshot
    // of device memory every armed launch takes for absorb-and-retry. The
    // statistic is the median over *pairs* of hardened/baseline process
    // CPU seconds: drift between pairs is larger than the overhead, pairing
    // cancels it, and polluted pairs are out-voted in either direction. CPU
    // seconds leave out the time a loaded host runs someone else; the
    // wall-clock median is reported beside it. Pairs are added while the
    // median's 90 % interval straddles the ceiling, up to 21, where the
    // truncated test decides by the median.
    const CEILING: f64 = 1.05;
    const MAX_PAIRS: usize = 21;
    let arms = [
        context(false, true),
        SimContext::new(SimConfig {
            memo: false,
            watchdog_cycles: Some(u64::MAX / 2),
            faults: Some(FaultConfig::new(1, 0.0, None)),
            ..SimConfig::default()
        }),
    ];
    let mut pairs = Vec::new();
    let [lo, hi] = loop {
        // Seven, then two at a time so each arm runs first in half the pairs.
        let more = if pairs.is_empty() { 7 } else { 2 };
        let run = |ctx: &Arc<SimContext>| ctx.enter(|| stats_bytes(&big_run()));
        pairs.extend(interleave(more, |arm| &arms[arm], run));
        let mut cpu: Vec<f64> = pairs.iter().map(|[(b, _), (a, _)]| a.cpu / b.cpu).collect();
        let [lo, hi] = median_interval(&mut cpu);
        if !(lo <= CEILING && CEILING < hi) || pairs.len() >= MAX_PAIRS {
            break [lo, hi];
        }
    };
    assert_arms_agree(
        "hardening_matmul_1024: an armed-but-silent injector changed the canonical KernelStats bytes",
        &pairs,
    );
    // The median pair by armed/disarmed ratio of `f`.
    let median_pair = |f: fn(&Sample) -> f64| {
        let mut arms: Vec<[f64; 2]> = pairs.iter().map(|[(b, _), (a, _)]| [f(b), f(a)]).collect();
        arms.sort_by(|x, y| (x[1] / x[0]).total_cmp(&(y[1] / y[0])));
        arms[arms.len() / 2]
    };
    let [base, armed] = median_pair(|s| s.cpu);
    let [base_wall, armed_wall] = median_pair(|s| s.wall);
    let mut row = Row::new("hardening_matmul_1024", "hardening")
        .field("pairs", pairs.len() as f64)
        .field("disarmed_cpu_s", base)
        .field("armed_cpu_s", armed)
        .field("overhead_ratio", armed / base)
        .field("overhead_lo", lo)
        .field("overhead_hi", hi)
        .field("wall_ratio", armed_wall / base_wall)
        .bound("overhead_ratio", Bound::Ceiling(CEILING));
    // Re-arming restarts the call indices, so each count is one warm
    // launch's polls alone.
    let ctx = &arms[1];
    ctx.faults().arm(ctx.config().faults);
    ctx.enter(big_run);
    for (site, key, exact) in POLLS {
        row = row.field(key, ctx.faults().polls(site) as f64);
        if let Some(n) = exact {
            row = row.bound(key, Bound::Exact(n));
        }
    }
    row
}

fn host_rows(add: &mut impl FnMut(Row)) {
    // ---- SFU rows and wire CRC (one host mechanism each) ----
    // The SFU floors hold only where the 8-wide kernel exists; elsewhere
    // both sides run the same scalar code. Rsqrt is reported, not gated:
    // `vdivps`/`vsqrtps` throughput per lane is close to the scalar forms'
    // on many cores.
    #[cfg(target_arch = "x86_64")]
    let avx2 = std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let avx2 = false;
    for (name, op, gated) in [
        ("sfu_rows_sin", SfuOp::Sin, true),
        ("sfu_rows_cos", SfuOp::Cos, true),
        ("sfu_rows_rsqrt", SfuOp::Rsqrt, false),
    ] {
        let row = sfu_row(name, op).field("avx2", f64::from(u8::from(avx2)));
        add(if gated && avx2 {
            row.bound("speedup", Bound::Floor(3.0))
        } else {
            row
        });
    }
    // Slicing-by-8 measures ≈ 8x; 3x says the frame path did not go back
    // to a byte (or bit) at a time.
    add(crc_row());
}

fn serve_rows(add: &mut impl FnMut(Row), check: bool) {
    // ---- serving tier (daemon + 8-tenant fleets over loopback) ----
    // Probe fleet: the daemon shares this process's pool and serves warm
    // probes from the memo, so the row measures pure serving overhead —
    // framing, admission, per-connection threads.
    let requests = if check { 16 } else { 64 };
    let probes = serve_fleet(&context(true, false), requests, |t, _| probe_spec(t));
    assert!(
        probes.cache_hits > 0,
        "steady-state probe repeats must hit the shared memo through the daemon"
    );
    add(Row::new("serve_probe_fleet", "serve")
        .field("tenants", TENANTS as f64)
        .field("requests_per_tenant", requests as f64)
        .field("req_per_s", probes.req_per_s())
        .field("p50_ms", probes.percentile_ms(0.50))
        .field("p99_ms", probes.percentile_ms(0.99))
        .field("cache_hit_responses", probes.cache_hits as f64)
        .bound("req_per_s", Bound::Floor(200.0))
        .bound("p99_ms", Bound::Ceiling(250.0)));
    // Chaos fleet: clean, then with the context's wire faults armed at rate
    // 0.02 — disconnects, corrupt frames, splits, stalls at all four wire
    // sites. The chaos arm must complete with results bit-identical to the
    // clean arm (reconnect and replay are invisible) and within 2x of its
    // throughput. The disarmed cost of the CRC/deadline hardening is the
    // probe fleet's floor.
    let requests = if check { 8 } else { 32 };
    let chaos_setup = |arm: usize| {
        SimContext::new(SimConfig {
            dedup: false,
            net_faults: (arm == 1).then(|| NetFaultConfig::new(0xC0FF_EE00, 0.02)),
            ..SimConfig::default()
        })
    };
    let pairs = interleave(1, chaos_setup, |ctx| {
        let fleet = serve_fleet(&ctx, requests, chaos_spec);
        (fleet.req_per_s(), fleet.totals, ctx.enter(net_counters))
    });
    let [(_, (clean_rps, clean, _)), (_, (chaos_rps, chaos, net))] = &pairs[0];
    assert_eq!(
        clean, chaos,
        "serve_chaos_fleet: transport chaos changed aggregate KernelStats \
         (reconnect-and-replay must be invisible to results)"
    );
    add(Row::new("serve_chaos_fleet", "serve")
        .field("tenants", TENANTS as f64)
        .field("requests_per_tenant", requests as f64)
        .field("clean_req_per_s", *clean_rps)
        .field("chaos_req_per_s", *chaos_rps)
        .field("chaos_ratio", clean_rps / chaos_rps)
        .field("disconnects", net.disconnects as f64)
        .field("frames_retried", net.frames_retried as f64)
        .field("reconnects", net.reconnects as f64)
        .field("bytes_resent", net.bytes_resent as f64)
        .bound("chaos_req_per_s", Bound::Floor(100.0))
        .bound("chaos_ratio", Bound::Ceiling(2.0)));
}

/// Writes the report, then checks the bounds: exit 2 on a miss, after
/// reporting all.
fn report(rows: &[Row], check: bool, out_path: &str) -> i32 {
    let body: Vec<String> = rows.iter().map(Row::json).collect();
    let mode = if check { "check" } else { "full" };
    let json = format!(
        "{{\n  \"benchmark\": \"g80-sim host A/B\",\n  \"mode\": \"{mode}\",\n  \"rows\": [\n    {}\n  ]\n}}\n",
        body.join(",\n    ")
    );
    std::fs::write(out_path, json).expect("write benchmark report");
    eprintln!("wrote {out_path}");
    let missed: Vec<String> = rows.iter().flat_map(Row::missed).collect();
    for m in &missed {
        eprintln!("bound missed: {m}");
    }
    if missed.is_empty() {
        0
    } else {
        2
    }
}

#[cfg(test)]
mod tests {
    use super::median_interval;

    /// The ranks of the 90 % sign-test interval on the median, as tabled:
    /// n = 7 takes the extremes, n = 21 the 7th and 15th order statistics.
    #[test]
    fn median_interval_ranks_match_the_binomial_table() {
        let ranks = [6, 7, 9, 11, 13, 15, 17, 19, 21].map(|n| {
            let mut ratios: Vec<f64> = (1..=n).rev().map(f64::from).collect();
            let [lo, hi] = median_interval(&mut ratios);
            assert_eq!(lo + hi, f64::from(n + 1), "n = {n}");
            lo
        });
        assert_eq!(ranks, [1, 1, 2, 3, 4, 4, 5, 6, 7].map(f64::from));
    }
}
