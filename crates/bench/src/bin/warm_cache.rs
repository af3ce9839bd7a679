//! Cross-process warm-cache probe for the persistent disk tier.
//!
//! Runs one round of `g80_bench::matmul_study::revisit_fleet` (the Figure 4
//! matmul variant family at n=64) against the cache directory given as the
//! first argument, then prints its context's cache counters. The round is deterministic — fixed seed,
//! fixed allocation order, fixed kernel content — so every invocation
//! computes identical content-addressed keys, and a second invocation
//! against the same directory must be served from the files the first one
//! published.
//!
//! `--expect-warm` asserts that at least one launch was served from disk
//! (exit 2 otherwise); CI runs the binary twice against one directory to
//! prove the cache survives the process boundary.

#![warn(clippy::too_many_lines)]

use g80_bench::matmul_study::revisit_fleet;
use g80_sim::{memo_counters, SimConfig, SimContext};
use std::path::PathBuf;

fn main() {
    let mut expect_warm = false;
    let mut dir: Option<PathBuf> = None;
    for arg in std::env::args().skip(1) {
        if arg == "--expect-warm" {
            expect_warm = true;
        } else {
            dir = Some(PathBuf::from(arg));
        }
    }
    let Some(dir) = dir else {
        eprintln!("usage: warm_cache <cache-dir> [--expect-warm]");
        std::process::exit(3);
    };
    // Pin the memo switch and the one environment-settable axis of the memo
    // key's mode byte, so invocations agree on keys regardless of ambient
    // G80_SIM_* variables.
    let ctx = SimContext::new(SimConfig {
        memo: true,
        dedup: false,
        disk_dir: Some(dir),
        ..SimConfig::from_env()
    });
    ctx.enter(|| run(expect_warm));
}

fn run(expect_warm: bool) {
    let fp = revisit_fleet()();
    let c = memo_counters();
    println!(
        "fingerprint={fp} memo_hits={} memo_misses={} disk_hits={} disk_misses={} disk_evictions={}",
        c.hits, c.misses, c.disk_hits, c.disk_misses, c.disk_evictions
    );
    if expect_warm && c.disk_hits == 0 {
        eprintln!("warm_cache: expected disk hits on a warm directory, got none");
        std::process::exit(2);
    }
}
