//! `compare <a-dir> <b-dir>`: per workload and metric, both values, the
//! ratio with its base, the bound, and a verdict. A directory holds one
//! run (`<workload>.json`, `<workload>.layers.json`) or several
//! (`set*/` subdirectories); with several, values are medians and the
//! run-to-run spread decides between `worse` and `unresolved`.

use crate::json::Json;
use crate::spec::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::median;
use std::path::Path;

/// The runs of one result file found in a directory: the file itself and
/// its namesakes under `set*/`.
fn load_runs(dir: &Path, file: &str) -> Vec<Json> {
    let mut files = vec![dir.join(file)];
    if let Ok(entries) = std::fs::read_dir(dir) {
        let mut sets: Vec<_> = entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.is_dir()
                    && p.file_name()
                        .is_some_and(|n| n.to_string_lossy().starts_with("set"))
            })
            .collect();
        sets.sort();
        files.extend(sets.into_iter().map(|p| p.join(file)));
    }
    files
        .iter()
        .filter_map(|f| std::fs::read_to_string(f).ok())
        .filter_map(|text| Json::parse(&text).ok())
        .collect()
}

/// Values of one metric over runs.
fn values(runs: &[Json], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|run| run.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them.
fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median; `None` with one run.
fn spread(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    let mid = median(&mut v);
    let (q1, q3) = quartiles(&v);
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

#[derive(PartialEq)]
enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// The rule of the choosing-metrics guide: worse when the median moved
/// past the bound in the bad direction; where the run-to-run spread is
/// wider than the bound, unresolved unless every run of one side beats
/// every run of the other.
fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> (f64, f64, f64, Verdict) {
    let (ma, mb) = (median(&mut a.to_vec()), median(&mut b.to_vec()));
    let worse_by = if ma == 0.0 {
        0.0
    } else if lower_is_better {
        (mb - ma) / ma.abs()
    } else {
        (ma - mb) / ma.abs()
    };
    let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let noisy = [spread(a), spread(b)]
        .into_iter()
        .flatten()
        .any(|s| s > bound);
    let verdict = if noisy {
        let b_wins = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
        let a_wins = a.iter().all(|&x| b.iter().all(|&y| better(x, y)));
        if b_wins {
            Verdict::Ok
        } else if a_wins && worse_by > bound {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (ma, mb, worse_by, verdict)
}

/// Prints the comparison; returns false when any end-to-end metric is
/// worse or unresolved, or any exact count differs.
pub fn compare(a_dir: &Path, b_dir: &Path) -> bool {
    let mut clean = true;
    for w in WORKLOADS {
        let end_file = format!("{}.json", w.name);
        let layer_file = format!("{}.layers.json", w.name);
        let end_runs = (load_runs(a_dir, &end_file), load_runs(b_dir, &end_file));
        let layer_runs = (load_runs(a_dir, &layer_file), load_runs(b_dir, &layer_file));
        println!("== {} ==", w.name);
        println!(
            "{:<32} {:>14} {:>14} {:>9} {:>6}  verdict",
            "metric", "a", "b", "b/a", "bound"
        );
        for m in END_TO_END {
            let (a, b) = (values(&end_runs.0, m.name), values(&end_runs.1, m.name));
            // Neither side made an end-to-end run of this workload.
            if a.is_empty() && b.is_empty() {
                continue;
            }
            if a.is_empty() || b.is_empty() {
                println!("{:<32} missing on one side", m.name);
                clean = false;
                continue;
            }
            let (ma, mb, worse_by, verdict) = judge(&a, &b, m.better == "lower", m.bound);
            let word = match verdict {
                Verdict::Ok => "ok",
                Verdict::Worse => "worse",
                Verdict::Unresolved => "unresolved",
            };
            clean &= verdict == Verdict::Ok;
            println!(
                "{:<32} {:>14.6} {:>14.6} {:>8.4}x {:>6.2}  {word} ({:+.1}% worse than a, n={}/{})",
                m.name,
                ma,
                mb,
                if ma == 0.0 { 1.0 } else { mb / ma },
                m.bound,
                worse_by * 100.0,
                a.len(),
                b.len()
            );
        }
        for m in PER_LAYER {
            let (a, b) = (values(&layer_runs.0, m.name), values(&layer_runs.1, m.name));
            if a.is_empty() || b.is_empty() {
                continue;
            }
            let (ma, mb) = (median(&mut a.clone()), median(&mut b.clone()));
            // The workload never touches this layer.
            if a.iter().chain(&b).all(|&v| v == 0.0) {
                continue;
            }
            let word = if !m.exact {
                "-"
            } else if a.iter().chain(&b).all(|&v| v == a[0]) {
                "same"
            } else {
                clean = false;
                "DIFFERS"
            };
            println!(
                "{:<32} {:>14.6} {:>14.6} {:>8.4}x {:>6}  {word}",
                m.name,
                ma,
                mb,
                if ma == 0.0 { 1.0 } else { mb / ma },
                if m.exact { "exact" } else { "" }
            );
        }
    }
    clean
}
