//! The benchmark's contract in one place: workloads, end-to-end metrics
//! with their regression bounds, and per-layer metrics. `BENCHMARK.json`
//! at the repo root is `g80-benchmark spec` printed from these tables, so
//! the names a run prints and the names the driver expects cannot drift.

use crate::json::Json;

/// How long one run measures; the driver passes it back as `--seconds`.
pub const RUN_SECONDS: u64 = 20;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "matmul_walk",
        why: "Section 4 matmul walk at n=256, fresh inputs per generation: the engine hot loop does the work, every launch a memo miss, serve unused",
    },
    Workload {
        name: "suite_table3",
        why: "Passes of the 12-app Table 3 suite at full scale: kernel diversity (divergence, SFU, const/texture caches, bandwidth-bound) with nested pool tasks",
    },
    Workload {
        name: "tuner_fleet",
        why: "Nine-variant run_batch sweeps at n=16/32/48, 1 cold + 15 revisits: per-launch fixed costs and the memo tier (insert, hit, LRU eviction) dominate",
    },
    Workload {
        name: "serve_mix",
        why: "In-process daemon, 2 closed-loop clients, 87% 4KB memo-hit probes / 10% 64KB bulk / 3% always-simulate: codec, CRC framing, admission, handlers",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "op_tail_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "sim_mwips",
        unit: "1e6/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "paper_err_pct",
        unit: "%",
        better: "lower",
        bound: 0.01,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Simulated quantity or event count over the fixed count window:
    /// must be identical between two runs of one commit with one seed.
    pub exact: bool,
}

const fn t(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: "lower",
        exact: false,
    }
}

const fn count(name: &'static str, better: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "count",
        better,
        exact: true,
    }
}

const fn ratio(name: &'static str, better: &'static str, exact: bool) -> PerLayer {
    PerLayer {
        name,
        unit: "ratio",
        better,
        exact,
    }
}

/// Table 3 apps in `run_suite` order, as metric-name slugs.
pub const APP_SLUGS: [&str; 12] = [
    "sad", "lbm", "rc5", "fem", "rpes", "pns", "saxpy", "tpacf", "fdtd", "mriq", "mrifhd", "cp",
];

pub const LAYERS: [&str; 7] = ["isa", "sim", "cuda", "core", "apps", "bench", "serve"];

pub const PER_LAYER: &[PerLayer] = &[
    // ---- isa ----
    t("isa.build_us", "us"),
    t("isa.decode_us", "us"),
    t("isa.compile_us", "us"),
    count("isa.static_insts", "lower"),
    count("isa.regs_sum", "lower"),
    // ---- cuda ----
    t("cuda.alloc_h2d_us", "us"),
    t("cuda.d2h_us", "us"),
    PerLayer {
        name: "cuda.sim_transfer_s",
        unit: "s",
        better: "lower",
        exact: true,
    },
    // ---- sim: engine ----
    t("sim.launch_ms.naive", "ms"),
    t("sim.launch_ms.tiled", "ms"),
    t("sim.launch_ms.unrolled", "ms"),
    t("sim.launch_ms.prefetch", "ms"),
    t("sim.ns_per_warp_inst", "ns"),
    count("sim.warp_insts", "lower"),
    count("sim.cycles", "lower"),
    count("sim.blocks_simulated", "lower"),
    count("sim.blocks_replayed", "higher"),
    count("sim.dedup_fallbacks", "lower"),
    ratio("sim.replay_ratio", "higher", true),
    count("sim.rows_uniform", "higher"),
    count("sim.rows_affine", "higher"),
    count("sim.rows_full", "lower"),
    ratio("sim.rows_shaped_ratio", "higher", true),
    ratio("sim.coalesced_ratio", "higher", true),
    count("sim.smem_conflict_cycles", "lower"),
    count("sim.divergent_branches", "lower"),
    ratio("sim.const_hit_ratio", "higher", true),
    ratio("sim.tex_hit_ratio", "higher", true),
    count("sim.stall_cycles.memory", "lower"),
    count("sim.stall_cycles.alu", "lower"),
    count("sim.stall_cycles.barrier", "lower"),
    count("sim.stall_cycles.issue_busy", "lower"),
    count("sim.stall_cycles.drain", "lower"),
    // ---- sim: caches, pool, codec ----
    t("sim.memo_hit_us", "us"),
    t("sim.memo_miss_us", "us"),
    count("sim.memo_hits", "higher"),
    count("sim.memo_misses", "lower"),
    ratio("sim.memo_hit_ratio", "higher", true),
    t("sim.pool_task_us", "us"),
    PerLayer {
        name: "sim.pool_workers",
        unit: "count",
        better: "higher",
        exact: false,
    },
    t("sim.report_encode_us", "us"),
    t("sim.report_decode_us", "us"),
    t("sim.crc_ns_per_kb", "ns"),
    // ---- core ----
    t("core.analyze_us", "us"),
    PerLayer {
        name: "core.best_gflops",
        unit: "gflops",
        better: "higher",
        exact: true,
    },
    // ---- apps ----
    t("apps.generate_ms", "ms"),
    t("apps.cpu_reference_ms", "ms"),
    t("apps.validate_ms", "ms"),
    t("apps.pipeline_ms.sad", "ms"),
    t("apps.pipeline_ms.lbm", "ms"),
    t("apps.pipeline_ms.rc5", "ms"),
    t("apps.pipeline_ms.fem", "ms"),
    t("apps.pipeline_ms.rpes", "ms"),
    t("apps.pipeline_ms.pns", "ms"),
    t("apps.pipeline_ms.saxpy", "ms"),
    t("apps.pipeline_ms.tpacf", "ms"),
    t("apps.pipeline_ms.fdtd", "ms"),
    t("apps.pipeline_ms.mriq", "ms"),
    t("apps.pipeline_ms.mrifhd", "ms"),
    t("apps.pipeline_ms.cp", "ms"),
    ratio("apps.max_rel_error", "lower", true),
    // ---- bench ----
    t("bench.suite_pass_ms", "ms"),
    ratio("bench.suite_parallel_gain", "higher", false),
    // ---- serve ----
    t("serve.probe_p50_ms", "ms"),
    t("serve.probe_p99_ms", "ms"),
    t("serve.bulk_p50_ms", "ms"),
    t("serve.bulk_p99_ms", "ms"),
    t("serve.sim_p50_ms", "ms"),
    t("serve.sim_p99_ms", "ms"),
    t("serve.op_p99_ms", "ms"),
    t("serve.req_encode_us.probe", "us"),
    t("serve.req_encode_us.bulk", "us"),
    t("serve.req_decode_us.probe", "us"),
    t("serve.req_decode_us.bulk", "us"),
    t("serve.resp_encode_us", "us"),
    t("serve.resp_decode_us", "us"),
    PerLayer {
        name: "serve.req_bytes.probe",
        unit: "bytes",
        better: "lower",
        exact: true,
    },
    PerLayer {
        name: "serve.req_bytes.bulk",
        unit: "bytes",
        better: "lower",
        exact: true,
    },
    PerLayer {
        name: "serve.resp_bytes",
        unit: "bytes",
        better: "lower",
        exact: true,
    },
    t("serve.admit_us", "us"),
    t("serve.inproc_us.probe", "us"),
    t("serve.inproc_us.bulk", "us"),
    t("serve.inproc_us.sim", "us"),
    t("serve.wire_overhead_us.probe", "us"),
    t("serve.wire_overhead_us.bulk", "us"),
    t("serve.wire_overhead_us.sim", "us"),
    t("serve.connect_ms", "ms"),
    count("serve.served_memo", "higher"),
    count("serve.served_simulated", "lower"),
    count("serve.rejected", "lower"),
    count("serve.throttled", "lower"),
    count("serve.net_retries", "lower"),
    // ---- the trace itself ----
    ratio("trace.self_share.isa", "lower", false),
    ratio("trace.self_share.sim", "lower", false),
    ratio("trace.self_share.cuda", "lower", false),
    ratio("trace.self_share.core", "lower", false),
    ratio("trace.self_share.apps", "lower", false),
    ratio("trace.self_share.bench", "lower", false),
    ratio("trace.self_share.serve", "lower", false),
    PerLayer {
        name: "trace.self_cover_pct",
        unit: "%",
        better: "higher",
        exact: false,
    },
    PerLayer {
        name: "trace.overhead_pct",
        unit: "%",
        better: "lower",
        exact: false,
    },
    PerLayer {
        name: "trace.window_ops",
        unit: "count",
        better: "higher",
        exact: true,
    },
];

/// `BENCHMARK.json`, exactly the keys the driver's contract names.
pub fn benchmark_json() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
    ];
    Json::obj([
        (
            "command",
            Json::Arr(command.iter().map(|s| Json::str(*s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better)),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}
