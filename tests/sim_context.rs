//! `SimContext` as the unit of host-side state: two contexts with different
//! configurations run side by side in one process without seeing each
//! other's caches or counters, and the configuration axes that are part of a
//! cache key keep entries of different contexts apart on a shared disk tier.

use g80::apps::matmul::{MatMul, Variant};
use g80::sim::{memo_counters, row_counters, MemoCounters, RowCounters, SimConfig, SimContext};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::Barrier;

mod common;
use common::{bits, stats_bytes};

/// What one pass of [`workload`] produced and left in its context.
struct Outcome {
    /// Output bits and canonical stats bytes of every run.
    runs: Vec<(Vec<u32>, Vec<u8>)>,
    memo: MemoCounters,
    rows: RowCounters,
}

/// Two passes over the tuner's nine matmul variants at n=48 in the current
/// context.
fn workload() -> Outcome {
    let mm = MatMul { n: 48 };
    let (a, b) = mm.generate(3);
    let runs = (0..2)
        .flat_map(|_| Variant::tuner_sweep())
        .map(|v| {
            let (c, stats, _) = mm.run(v, &a, &b);
            (bits(&c).collect(), stats_bytes(&stats))
        })
        .collect();
    Outcome {
        runs,
        memo: memo_counters(),
        rows: row_counters(),
    }
}

#[test]
fn two_contexts_run_side_by_side() {
    let roomy = SimConfig::default();
    let uncached = SimConfig {
        memo: false,
        memo_cap: 1,
        ..SimConfig::default()
    };
    // What each configuration does with the workload when it runs alone.
    let alone = [&roomy, &uncached].map(|cfg| SimContext::new(cfg.clone()).enter(workload));

    // The same, at the same time: each thread enters its own context (a
    // spawned thread does not inherit one) and both start together.
    let contexts = [&roomy, &uncached].map(|cfg| SimContext::new(cfg.clone()));
    let start = Barrier::new(2);
    let together = std::thread::scope(|s| {
        let threads = contexts.each_ref().map(|ctx| {
            s.spawn(|| {
                ctx.enter(|| {
                    start.wait();
                    workload()
                })
            })
        });
        threads.map(|t| t.join().expect("context thread"))
    });

    // Bit-identical results, across configurations and against the solo runs.
    for outcome in alone.iter().chain(&together) {
        assert!(outcome.runs == alone[0].runs, "stats or memory differ");
    }
    // Each context counted exactly what it did alone: nothing of the other's
    // traffic, cache or row tallies leaked in.
    for (i, (solo, side_by_side)) in alone.iter().zip(&together).enumerate() {
        assert_eq!(solo.memo, side_by_side.memo, "context {i}: memo counters");
        assert_eq!(solo.rows, side_by_side.rows, "context {i}: row counters");
    }
    let (cached, plain) = (together[0].memo, together[1].memo);
    assert_eq!((cached.hits, cached.misses), (9, 9));
    assert_eq!((plain.hits, plain.misses), (0, 0));
    assert_eq!(contexts[0].enter(memo_counters), cached);
    // A third context starts cold however warm the first one is.
    let late = SimContext::new(roomy).enter(workload).memo;
    assert_eq!((late.hits, late.misses), (9, 9));
}

/// Engine and dedup mode are part of the memo key (its frozen mode byte),
/// and the context's configuration is what feeds it: on one shared disk
/// directory every mode finds the tier cold for itself, whatever the modes
/// before it published, and warm on its second visit in a fresh context.
#[test]
fn disk_entries_are_keyed_by_the_recording_contexts_mode() {
    let dir = common::scratch_dir("mode-byte");
    let visit = |new: common::NewContext, dedup| {
        let ctx = new(SimConfig {
            dedup,
            disk_dir: Some(dir.clone()),
            ..SimConfig::default()
        });
        let memo = ctx.enter(workload).memo;
        (memo.disk_hits, memo.misses)
    };
    for expected in [(0, 9), (9, 0)] {
        for (engine, new) in common::ENGINES {
            for dedup in [true, false] {
                assert_eq!(visit(new, dedup), expected, "{engine}, dedup {dedup}");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// CI's environment leg must not pass vacuously: an unparsable value is
/// ignored (a thread count falls back to the host's), so the leg would run
/// a plain test pass. Each variable the leg sets must take effect:
/// `G80_SIM_DISK_CACHE` is the global context's disk directory and
/// `G80_SIM_THREADS` the pool's worker count (`0` is clamped to one).
#[test]
fn set_variables_configure_the_global_context() {
    let set = |var| std::env::var(var).ok().filter(|v| !v.trim().is_empty());
    let global = SimContext::global();
    if let Some(v) = set("G80_SIM_DISK_CACHE") {
        let dir = Some(std::path::PathBuf::from(v.trim()));
        assert_eq!(global.config().disk_dir, dir, "G80_SIM_DISK_CACHE={v:?}");
    }
    if let Some(v) = set("G80_SIM_THREADS") {
        assert_eq!(
            v.trim().parse::<usize>().ok().map(|n| n.max(1)),
            Some(g80::sim::pool::worker_count()),
            "G80_SIM_THREADS={v:?} does not size the pool"
        );
    }
}

/// Every variable the product reads is a row of README's "Runtime toggles"
/// table, and every row is a variable it reads: one added or removed
/// without its row fails here. The product's variables are the
/// `"G80_SIM_…"` / `"G80_SERVE_…"` string literals in `crates/*/src`, each
/// file read up to its first `#[cfg(test)]`.
#[test]
fn runtime_toggles_table_lists_every_variable() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/") {
        let src = krate.expect("crate dir").path().join("src");
        if src.is_dir() {
            files_with(&src, "rs", &mut files);
        }
    }
    let mut code = BTreeSet::new();
    for file in files {
        let text = std::fs::read_to_string(&file).expect("read source");
        let product = text.split("#[cfg(test)]").next().unwrap_or_default();
        for prefix in ["\"G80_SIM_", "\"G80_SERVE_"] {
            for (at, _) in product.match_indices(prefix) {
                let rest = &product[at + 1..];
                let len = rest
                    .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
                    .unwrap_or(rest.len());
                if rest[len..].starts_with('"') {
                    code.insert(rest[..len].to_string());
                }
            }
        }
    }
    let readme = std::fs::read_to_string(root.join("README.md")).expect("README.md");
    let table = readme
        .split("### Runtime toggles")
        .nth(1)
        .expect("a Runtime toggles section");
    let rows: BTreeSet<String> = table
        .lines()
        .skip_while(|l| !l.starts_with('|'))
        .take_while(|l| l.starts_with('|'))
        .filter_map(|l| l.strip_prefix("| `")?.split('`').next().map(str::to_string))
        .collect();
    assert_eq!(code, rows, "variables in crates/*/src vs README's table");
    assert_eq!(rows.len(), 11, "{rows:?}");
}

/// Every file under `dir` with extension `ext`, recursively, outside build
/// output.
fn files_with(dir: &Path, ext: &str, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("read source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            if !path.ends_with("target") {
                files_with(&path, ext, out);
            }
        } else if path.extension().is_some_and(|e| e == ext) {
            out.push(path);
        }
    }
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// `DESIGN.md §N` and `DESIGN §N` (the file name possibly backticked) in
/// the sources, the tests, README.md, EXPERIMENTS.md and the verify skill
/// each name a `## N.` heading of DESIGN.md.
#[test]
fn design_sections_cited_elsewhere_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let sections: BTreeSet<u32> = read(&root.join("DESIGN.md"))
        .lines()
        .filter_map(|l| l.strip_prefix("## ")?.split('.').next()?.parse().ok())
        .collect();
    let mut files = vec![root.join("README.md"), root.join("EXPERIMENTS.md")];
    files_with(&root.join("crates"), "rs", &mut files);
    files_with(&root.join("tests"), "rs", &mut files);
    files_with(&root.join(".claude/skills"), "md", &mut files);
    let (mut cited, mut dangling) = (0, Vec::new());
    for file in &files {
        let text = read(file);
        for (at, _) in text.match_indices("DESIGN") {
            let rest = &text[at + "DESIGN".len()..];
            let rest = rest.strip_prefix(".md").unwrap_or(rest);
            let rest = rest.strip_prefix('`').unwrap_or(rest).trim_start();
            let Some(rest) = rest.strip_prefix('§') else {
                continue;
            };
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            let Ok(n) = digits.parse::<u32>() else {
                continue;
            };
            cited += 1;
            if !sections.contains(&n) {
                dangling.push(format!(
                    "{}: §{n}",
                    file.strip_prefix(root).unwrap().display()
                ));
            }
        }
    }
    assert!(
        dangling.is_empty(),
        "no such DESIGN.md section: {dangling:?}"
    );
    assert!(
        cited >= 10,
        "only {cited} DESIGN.md section references found"
    );
}

/// Every backticked path in DESIGN.md whose first segment is the stem of a
/// workspace `.rs` file (`memo::tests::x`, `memo.rs::x`) names an item that
/// file defines or imports: a pinning test renamed away, or an item deleted,
/// fails here instead of leaving the design citing nothing.
#[test]
fn design_item_paths_name_defined_items() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["crates", "tests", "src", "examples"] {
        files_with(&root.join(dir), "rs", &mut files);
    }
    let mut by_stem: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for file in &files {
        let stem = file.file_stem().unwrap().to_string_lossy().into_owned();
        by_stem.entry(stem).or_default().push(read(file));
    }
    let design = read(&root.join("DESIGN.md"));
    let (mut checked, mut missing) = (0, Vec::new());
    for span in design.split('`').skip(1).step_by(2) {
        let Some((first, rest)) = span.split_once("::") else {
            continue;
        };
        let first = first.rsplit('/').next().unwrap();
        let Some(texts) = by_stem.get(first.strip_suffix(".rs").unwrap_or(first)) else {
            continue;
        };
        let last = rest.rsplit("::").next().unwrap();
        let names: Vec<&str> = match last.strip_prefix('{') {
            Some(list) => list
                .trim_end_matches('}')
                .split(',')
                .map(str::trim)
                .collect(),
            None if span.contains(char::is_whitespace) => continue,
            None => vec![last.trim_end_matches("()")],
        };
        for name in names {
            checked += 1;
            if !texts.iter().any(|t| defines(t, name)) {
                missing.push(span);
            }
        }
    }
    assert!(
        missing.is_empty(),
        "DESIGN.md names items no file defines: {missing:?}"
    );
    assert!(checked >= 20, "only {checked} item paths checked");
}

/// Whether `text` defines `name` (an item, a field or an enum variant at
/// the start of a line) or imports it in a `use`; a trailing `*` matches a
/// prefix.
fn defines(text: &str, name: &str) -> bool {
    let (name, prefix) = match name.strip_suffix('*') {
        Some(stem) => (stem, true),
        None => (name, false),
    };
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let ends = |rest: &str| prefix || !rest.starts_with(ident);
    let word = |s: &str| {
        s.match_indices(name)
            .any(|(at, _)| ends(&s[at + name.len()..]) && !s[..at].ends_with(ident))
    };
    let member = |rest: &str| {
        (rest.starts_with(':') && !rest.starts_with("::"))
            || [",", "(", " {", " ="].iter().any(|p| rest.starts_with(p))
    };
    let keywords = [
        "fn ",
        "const fn ",
        "unsafe fn ",
        "struct ",
        "enum ",
        "trait ",
        "type ",
        "const ",
        "static ",
        "mod ",
        "macro_rules! ",
    ];
    let mut importing = false;
    for line in text.lines() {
        let l = line.trim_start();
        let l = l
            .strip_prefix("pub(crate) ")
            .or_else(|| l.strip_prefix("pub "))
            .unwrap_or(l);
        importing |= l.starts_with("use ");
        let item = keywords.iter().any(|kw| {
            l.strip_prefix(kw)
                .and_then(|r| r.strip_prefix(name))
                .is_some_and(ends)
        });
        let field_or_variant = l.strip_prefix(name).is_some_and(|r| ends(r) && member(r));
        if item || field_or_variant || (importing && word(line)) {
            return true;
        }
        importing &= !line.contains(';');
    }
    false
}
