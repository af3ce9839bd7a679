//! The in-process configuration matrix: what used to be three extra CI
//! passes of the whole suite (`G80_SIM_MEMO=off`, `G80_SIM_MEMO_CAP=1
//! G80_SIM_DEDUP=off`, `G80_SIM_DISK_CACHE=<dir>`) as four contexts a test
//! iterates. Depends on `g80_sim` alone, so `crates/sim/tests` includes this
//! file too.

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

/// The matrix, each context fresh (cold caches, zero counters); removes the
/// disk context's directory when dropped.
pub struct Contexts(Vec<(&'static str, Arc<SimContext>)>);

pub fn contexts() -> Contexts {
    let with = |name, edit: fn(&mut SimConfig)| {
        let mut cfg = SimConfig::default();
        edit(&mut cfg);
        (name, SimContext::new(cfg))
    };
    Contexts(vec![
        with("default", |_| {}),
        with("memo off", |c| c.memo = false),
        with("memo cap 1, dedup off", |c| {
            (c.memo_cap, c.dedup) = (1, false)
        }),
        with("disk tier", |c| c.disk_dir = Some(scratch_dir("matrix"))),
    ])
}

impl std::ops::Deref for Contexts {
    type Target = [(&'static str, Arc<SimContext>)];
    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl Drop for Contexts {
    fn drop(&mut self) {
        for dir in self
            .0
            .iter()
            .filter_map(|(_, c)| c.config().disk_dir.as_ref())
        {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
