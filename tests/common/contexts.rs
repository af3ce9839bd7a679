//! The in-process configuration matrix: what used to be extra CI passes of
//! the whole suite, each run only to set a variable, as values a test
//! iterates.
//!
//! [`contexts`] holds four contexts: the former `G80_SIM_MEMO=off`,
//! `G80_SIM_MEMO_CAP=1 G80_SIM_DEDUP=off` and `G80_SIM_DISK_CACHE=<dir>`
//! passes beside the default. `fault_injection.rs` runs real faults in
//! each of them; the wire chaos legs are plans of the test-side frame
//! proxy (`proxy::wire_legs`), which `serve_chaos.rs` runs.
//!
//! CI keeps one environment leg, which sets every variable the global
//! context and the pool read. Depends on `g80_sim` alone, so
//! `crates/sim/tests` includes this file too.

use g80_sim::{SimConfig, SimContext};
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

/// Named contexts; removes the disk directories they use when dropped.
pub struct Matrix(Vec<(&'static str, Arc<SimContext>)>);

/// The matrix, each context fresh (cold caches, zero counters).
pub fn contexts() -> Matrix {
    let with = |name, edit: fn(&mut SimConfig)| {
        let mut cfg = SimConfig::default();
        edit(&mut cfg);
        (name, SimContext::new(cfg))
    };
    Matrix(vec![
        with("default", |_| {}),
        with("memo off", |c| c.memo = false),
        with("memo cap 1, dedup off", |c| {
            (c.memo_cap, c.dedup) = (1, false)
        }),
        with("disk tier", |c| c.disk_dir = Some(scratch_dir("matrix"))),
    ])
}

impl std::ops::Deref for Matrix {
    type Target = [(&'static str, Arc<SimContext>)];
    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl Drop for Matrix {
    fn drop(&mut self) {
        for (_, ctx) in &self.0 {
            if let Some(dir) = &ctx.config().disk_dir {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
    }
}
