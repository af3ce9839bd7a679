//! The repo benchmark: four seeded workloads run against the product
//! exactly as shipped (default engine, tracked rows, memo + dedup on, pool
//! sized by the host), measured from outside through the crates' public
//! functions. See `README.md` beside this crate for why each workload and
//! metric exists; `spec.rs` holds the contract `BENCHMARK.json` is
//! printed from.
//!
//! ```text
//! g80-benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--sets K]
//! g80-benchmark compare <a-dir> <b-dir>
//! g80-benchmark spec
//! ```

mod compare;
mod json;
mod layers;
mod probes;
mod spec;
mod stats;
mod trace;
mod workloads;

use json::Json;
use stats::Outcome;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage:
  g80-benchmark run [--workload <name>] [--seed <u64>] [--seconds <n>] [--trace [0|1]] [--sets <k>]
  g80-benchmark compare <a-dir> <b-dir>
  g80-benchmark spec";

/// Exit code when the product's defaults are overridden from outside.
const EXIT_NOT_DEFAULTS: u8 = 3;

struct RunArgs {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    /// `None`: both the end-to-end run and the traced run.
    trace: Option<bool>,
    sets: usize,
    /// Result directory; `benchmark/out` unless a parent run names one.
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workloads: spec::WORKLOADS.iter().map(|w| w.name).collect(),
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: None,
        sets: 1,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let known = spec::WORKLOADS
                    .iter()
                    .find(|w| w.name == name)
                    .ok_or_else(|| format!("unknown workload {name:?}"))?;
                parsed.workloads = vec![known.name];
            }
            "--seed" => {
                parsed.seed = value("a u64")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                parsed.seconds = value("a number of seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--sets" => {
                parsed.sets = value("a count")?
                    .parse()
                    .map_err(|e| format!("--sets: {e}"))?;
                if parsed.sets == 0 {
                    return Err("--sets must be at least 1".into());
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value("a directory")?)),
            // `--trace 0|1` as the driver passes it; a bare `--trace`
            // means 1.
            "--trace" => {
                parsed.trace = Some(match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                });
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

/// The benchmark measures what a default user gets: any `G80_SIM_*` or
/// `G80_SERVE_*` variable would silently select another product.
fn overridden_defaults() -> Vec<String> {
    std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("G80_SIM_") || k.starts_with("G80_SERVE_"))
        .collect()
}

fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The checked-out commit, read from `.git` beside the benchmark when the
/// checkout has one (the driver's does not).
fn git_commit() -> String {
    let git = bench_dir().join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn loadavg_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

fn environment(clients: usize) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        (
            "pool_workers",
            Json::Num(g80_sim::pool::worker_count() as f64),
        ),
        ("clients", Json::Num(clients as f64)),
        ("rustc", Json::str(rustc_version())),
        ("git_commit", Json::str(git_commit())),
        ("loadavg_1m", Json::Num(loadavg_1m())),
    ])
}

/// Name → (value, unit) for exactly the metrics the spec lists for this
/// mode. A per-layer metric the workload never touches reads 0: the layer
/// did no work there.
fn listed_metrics(outcome: &Outcome, trace: bool) -> BTreeMap<String, (f64, String)> {
    let value = |name: &str| outcome.metrics.get(name).copied();
    if trace {
        spec::PER_LAYER
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    (value(m.name).unwrap_or(0.0), m.unit.into()),
                )
            })
            .collect()
    } else {
        spec::END_TO_END
            .iter()
            .map(|m| {
                let v = value(m.name).unwrap_or_else(|| {
                    panic!("workload did not report end-to-end metric {}", m.name)
                });
                (m.name.to_string(), (v, m.unit.into()))
            })
            .collect()
    }
}

/// Runs one workload in one mode, prints its metrics, writes its result
/// file, and prints the driver's JSON line last. Returns whether every op
/// verified.
fn run_one(workload: &str, args: &RunArgs, trace: bool, out_dir: &Path) -> bool {
    let ctx = workloads::Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace,
        out_dir: out_dir.to_path_buf(),
    };
    let outcome = workloads::run(workload, &ctx).expect("workload names come from the spec");
    let metrics = listed_metrics(&outcome, trace);
    let correct = outcome.failed == 0;

    println!(
        "# {workload} seed={} seconds={} mode={} attempted={} failed={}",
        args.seed,
        args.seconds,
        if trace {
            "per_layer (traced)"
        } else {
            "end_to_end"
        },
        outcome.attempted,
        outcome.failed
    );
    for (name, (value, unit)) in &metrics {
        println!("{name:<32} {value:>18.6} {unit}");
    }
    for f in &outcome.failures {
        println!("FAILED: {f}");
    }

    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", json::metrics_object(&metrics)),
    ]);
    let file = Json::obj([
        ("workload", Json::str(workload)),
        (
            "mode",
            Json::str(if trace { "per_layer" } else { "end_to_end" }),
        ),
        ("seed", Json::str(args.seed.to_string())),
        (
            "input_digest",
            Json::str(format!("{:016x}", outcome.input_digest)),
        ),
        ("seconds", Json::Num(args.seconds)),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        (
            "failures",
            Json::Arr(outcome.failures.iter().map(Json::str).collect()),
        ),
        ("env", environment(outcome.clients)),
        ("metrics", json::metrics_object(&metrics)),
    ]);
    let path = out_dir.join(if trace {
        format!("{workload}.layers.json")
    } else {
        format!("{workload}.json")
    });
    if let Err(e) = std::fs::write(&path, file.render_pretty()) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
    println!("{}", line.render());
    correct
}

/// One run as a process of its own, the way the driver makes it: a cold
/// memo cache, pool and allocator, and a resident-set peak that owes
/// nothing to the runs before it. The child prints as `run_one` does.
fn run_in_child(workload: &str, args: &RunArgs, trace: bool, out_dir: &Path) -> bool {
    let child = std::env::current_exe().and_then(|exe| {
        std::process::Command::new(exe)
            .args(["run", "--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .arg("--out")
            .arg(out_dir)
            .status()
    });
    match child {
        Ok(status) => status.success(),
        Err(e) => {
            eprintln!("cannot run {workload} in a child process: {e}");
            false
        }
    }
}

fn run(args: &RunArgs) -> ExitCode {
    let overridden = overridden_defaults();
    if !overridden.is_empty() {
        eprintln!(
            "refusing to run: the benchmark measures the product's defaults, but {} set",
            overridden.join(", ")
        );
        return ExitCode::from(EXIT_NOT_DEFAULTS);
    }
    let out = args.out.clone().unwrap_or_else(|| bench_dir().join("out"));
    let set_dirs: Vec<PathBuf> = if args.sets == 1 {
        vec![out.clone()]
    } else {
        (1..=args.sets)
            .map(|i| out.join(format!("set{i}")))
            .collect()
    };
    let runs: Vec<(&Path, &str, bool)> = set_dirs
        .iter()
        .flat_map(|dir| {
            args.workloads.iter().flat_map(move |&workload| {
                [false, true]
                    .into_iter()
                    .filter(|&trace| args.trace.is_none_or(|t| t == trace))
                    .map(move |trace| (dir.as_path(), workload, trace))
            })
        })
        .collect();
    let mut all_correct = true;
    for &(dir, workload, trace) in &runs {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
        all_correct &= if runs.len() == 1 {
            run_one(workload, args, trace, dir)
        } else {
            run_in_child(workload, args, trace, dir)
        };
    }
    // The stability self-check: the same code, run twice, must agree
    // within the benchmark's own bounds.
    let mut stable = true;
    for pair in set_dirs.windows(2) {
        println!("# compare {} {}", pair[0].display(), pair[1].display());
        stable &= compare::compare(&pair[0], &pair[1]);
    }
    if all_correct && stable {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => match parse_run(&args[1..]) {
            Ok(parsed) => run(&parsed),
            Err(e) => {
                eprintln!("{e}\n{USAGE}");
                ExitCode::from(2)
            }
        },
        Some("compare") if args.len() == 3 => {
            if compare::compare(Path::new(&args[1]), Path::new(&args[2])) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Some("spec") if args.len() == 1 => {
            print!("{}", spec::benchmark_json().render_pretty());
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
