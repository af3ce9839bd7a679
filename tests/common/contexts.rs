//! The in-process configuration matrix: what used to be extra CI passes of
//! the whole suite, each run only to set a variable, as values a test
//! iterates.
//!
//! * [`contexts`]: five contexts, the former `G80_SIM_MEMO=off`,
//!   `G80_SIM_MEMO_CAP=1 G80_SIM_DEDUP=off` and `G80_SIM_DISK_CACHE=<dir>`
//!   passes beside the default and one armed member. Only the armed one
//!   perturbs exact counts: a test asks `ctx.faults().is_armed()`.
//! * [`chaos_legs`]: the simulator halves of the six former `chaos` passes
//!   (`G80_SIM_FAULTS`, `G80_SIM_DISK_CACHE`), each a fresh configuration,
//!   which `fault_injection.rs` runs; each must match a clean context bit
//!   for bit and fire at least one fault. The wire halves are plans of the
//!   test-side frame proxy (`proxy::wire_legs`), which `serve_chaos.rs`
//!   runs.
//!
//! CI keeps one environment leg, which sets every variable the global
//! context and the pool read. Depends on `g80_sim` alone, so
//! `crates/sim/tests` includes this file too.

use g80_sim::{FaultConfig, FaultKind, SimConfig, SimContext};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A fresh, empty directory path under the system temp dir (not created).
pub fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("g80-test-{tag}-{}-{seq}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Named members; removes the disk directories they use when dropped.
pub struct Matrix<T> {
    members: Vec<(&'static str, T)>,
    dirs: Vec<PathBuf>,
}

impl<T> Matrix<T> {
    fn new(members: Vec<(&'static str, T)>, config: fn(&T) -> &SimConfig) -> Self {
        let dirs = members
            .iter()
            .filter_map(|(_, m)| config(m).disk_dir.clone())
            .collect();
        Matrix { members, dirs }
    }
}

/// The matrix, each context fresh (cold caches, zero counters).
pub fn contexts() -> Matrix<Arc<SimContext>> {
    let with = |name, edit: fn(&mut SimConfig)| {
        let mut cfg = SimConfig::default();
        edit(&mut cfg);
        (name, SimContext::new(cfg))
    };
    let members = vec![
        with("default", |_| {}),
        with("memo off", |c| c.memo = false),
        with("memo cap 1, dedup off", |c| {
            (c.memo_cap, c.dedup) = (1, false)
        }),
        with("disk tier", |c| c.disk_dir = Some(scratch_dir("matrix"))),
        // Mixed typed and panic faults at every site, absorbed: results must
        // stay bit-identical under injected faults.
        with("faults armed", |c| {
            c.faults = Some(FaultConfig::new(0xc4a0, 0.01, None))
        }),
    ];
    Matrix::new(members, |ctx| ctx.config())
}

/// The former chaos legs that armed simulator sites, named by the values
/// their variables held (`8:0.01` also ran beside the wire's `9:0.01`).
/// Simulator faults are absorbed, as the variable arms them; the disk leg's
/// directory is fresh, so a second context on it reads what the first
/// published.
pub fn chaos_legs() -> Matrix<SimConfig> {
    let sim = |seed, rate, kind| SimConfig {
        faults: Some(FaultConfig::new(seed, rate, kind)),
        ..SimConfig::default()
    };
    let legs = vec![
        ("1:0.02:typed", sim(1, 0.02, Some(FaultKind::Typed))),
        ("2:0.02:panic", sim(2, 0.02, Some(FaultKind::Panic))),
        ("3:0.01", sim(3, 0.01, None)),
        (
            "5:0.02, disk tier",
            SimConfig {
                disk_dir: Some(scratch_dir("chaos-disk")),
                ..sim(5, 0.02, None)
            },
        ),
        ("8:0.01", sim(8, 0.01, None)),
    ];
    Matrix::new(legs, |cfg| cfg)
}

impl<T> std::ops::Deref for Matrix<T> {
    type Target = [(&'static str, T)];
    fn deref(&self) -> &Self::Target {
        &self.members
    }
}

impl<T> Drop for Matrix<T> {
    fn drop(&mut self) {
        for dir in &self.dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
