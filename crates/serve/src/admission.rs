//! Per-tenant admission control: bounded in-flight blocks per tenant plus
//! a round-robin fairness queue across tenants.
//!
//! The unit of accounting is the *thread block*, the same unit the
//! simulator's block scheduler distributes over the worker pool — one
//! matmul-4096 launch is ~65k blocks of pool pressure, a probe launch a
//! handful. Three verdicts:
//!
//! * a launch larger than `max_blocks_per_launch` can never run →
//!   [`Verdict::Rejected`] (typed, immediate);
//! * a launch that would exceed the tenant's queue depth while waiting →
//!   [`Verdict::Throttled`] (typed, immediate — the client retries later);
//! * otherwise the request waits its turn: per-tenant FIFO, and when
//!   capacity frees the grant pass walks tenants round-robin, so a tenant
//!   with a deep backlog cannot lock out a tenant with a shallow one.
//!
//! Two capacity limits gate a grant: the tenant's own in-flight budget
//! (`max_inflight_blocks`) and a global budget (`max_total_blocks`)
//! bounding total pool pressure. A launch bigger than either budget (but
//! within `max_blocks_per_launch`) is still admissible — it waits until
//! the relevant scope is *idle* and then runs alone, so a legal heavyweight
//! launch cannot deadlock against a budget smaller than itself.
//!
//! Fairness toward probe fleets does not come from this queue alone: the
//! pool's caller-runs heuristic executes small launches entirely on the
//! connection thread, so a probe never queues behind a heavyweight's
//! blocks inside the pool. The admission queue governs the heavyweights.

use g80_sim::{lock_recover, wait_recover};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};

/// Per-tenant quota limits.
#[derive(Copy, Clone, Debug)]
pub struct Quota {
    /// Hard cap on one launch's block count; above it the request is
    /// rejected outright.
    pub max_blocks_per_launch: u64,
    /// In-flight block budget per tenant.
    pub max_inflight_blocks: u64,
    /// Waiting requests allowed per tenant before throttling.
    pub max_queued: usize,
    /// Global in-flight block budget across all tenants.
    pub max_total_blocks: u64,
}

impl Default for Quota {
    fn default() -> Self {
        Quota {
            // A 4096x4096 matmul at 16x16 blocks is 65536 blocks: the
            // defaults admit the paper's largest workload as one launch.
            max_blocks_per_launch: 1 << 16,
            max_inflight_blocks: 1 << 16,
            max_queued: 64,
            max_total_blocks: 1 << 18,
        }
    }
}

/// Outcome of an admission request.
#[derive(Debug)]
pub enum Verdict {
    /// Admitted; drop the permit when the launch finishes.
    Admitted(Permit),
    /// Over `max_blocks_per_launch`; the request can never run.
    Rejected(String),
    /// The tenant's queue is full; retry later.
    Throttled(String),
}

#[derive(Default)]
struct TenantState {
    inflight_blocks: u64,
    /// Waiting request tickets, FIFO.
    queue: VecDeque<u64>,
    /// Tickets granted but not yet observed by their waiter.
    granted: Vec<u64>,
}

struct State {
    tenants: HashMap<String, TenantState>,
    /// Tenant names in first-seen order; the round-robin grant cursor
    /// walks this ring.
    ring: Vec<String>,
    rr_cursor: usize,
    total_inflight_blocks: u64,
    next_ticket: u64,
    /// Block count of each waiting ticket (the grant pass needs it).
    ticket_blocks: HashMap<u64, u64>,
}

/// The admission controller. Shared by every connection handler; cheap to
/// clone an `Arc` of.
pub struct Admission {
    quota: Quota,
    state: Mutex<State>,
    cv: Condvar,
}

/// An admitted launch's reservation; releases its blocks (and wakes
/// waiters) on drop.
pub struct Permit {
    admission: Arc<Admission>,
    tenant: String,
    blocks: u64,
}

impl std::fmt::Debug for Permit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Permit")
            .field("tenant", &self.tenant)
            .field("blocks", &self.blocks)
            .finish()
    }
}

impl Drop for Permit {
    fn drop(&mut self) {
        let mut st = lock_recover(&self.admission.state);
        let t = st
            .tenants
            .get_mut(&self.tenant)
            .expect("permit for unknown tenant");
        t.inflight_blocks = t.inflight_blocks.saturating_sub(self.blocks);
        st.total_inflight_blocks = st.total_inflight_blocks.saturating_sub(self.blocks);
        self.admission.grant_pass(&mut st);
        drop(st);
        self.admission.cv.notify_all();
    }
}

impl Admission {
    pub fn new(quota: Quota) -> Arc<Self> {
        Arc::new(Admission {
            quota,
            state: Mutex::new(State {
                tenants: HashMap::new(),
                ring: Vec::new(),
                rr_cursor: 0,
                total_inflight_blocks: 0,
                next_ticket: 0,
                ticket_blocks: HashMap::new(),
            }),
            cv: Condvar::new(),
        })
    }

    /// Requests admission of `blocks` blocks for `tenant`, blocking until
    /// granted (or returning a typed verdict immediately).
    pub fn admit(self: &Arc<Self>, tenant: &str, blocks: u64) -> Verdict {
        if blocks > self.quota.max_blocks_per_launch {
            return Verdict::Rejected(format!(
                "launch of {blocks} blocks exceeds the per-launch quota of {} blocks",
                self.quota.max_blocks_per_launch
            ));
        }
        let mut st = lock_recover(&self.state);
        if !st.tenants.contains_key(tenant) {
            st.tenants
                .insert(tenant.to_string(), TenantState::default());
            st.ring.push(tenant.to_string());
        }
        let t = st.tenants.get_mut(tenant).unwrap();
        if t.queue.len() >= self.quota.max_queued {
            return Verdict::Throttled(format!(
                "tenant {tenant} already has {} queued requests (limit {})",
                t.queue.len(),
                self.quota.max_queued
            ));
        }
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.tenants.get_mut(tenant).unwrap().queue.push_back(ticket);
        st.ticket_blocks.insert(ticket, blocks);
        self.grant_pass(&mut st);
        while !st
            .tenants
            .get(tenant)
            .is_some_and(|t| t.granted.contains(&ticket))
        {
            st = wait_recover(&self.cv, st);
        }
        let t = st.tenants.get_mut(tenant).unwrap();
        t.granted.retain(|&g| g != ticket);
        Verdict::Admitted(Permit {
            admission: Arc::clone(self),
            tenant: tenant.to_string(),
            blocks,
        })
    }

    /// Grants as many queued tickets as capacity allows, walking tenants
    /// round-robin from the cursor. Called with the state lock held.
    fn grant_pass(&self, st: &mut State) {
        let n = st.ring.len();
        if n == 0 {
            return;
        }
        let mut granted_any = true;
        while granted_any {
            granted_any = false;
            for step in 0..n {
                let idx = (st.rr_cursor + step) % n;
                let name = st.ring[idx].clone();
                let Some((ticket, blocks, inflight)) = st.tenants.get(&name).and_then(|t| {
                    let &ticket = t.queue.front()?;
                    Some((ticket, st.ticket_blocks[&ticket], t.inflight_blocks))
                }) else {
                    continue;
                };
                // A budget smaller than the launch admits it only when the
                // scope is idle — oversize-but-legal launches run alone
                // rather than deadlocking.
                let tenant_ok =
                    inflight + blocks <= self.quota.max_inflight_blocks || inflight == 0;
                let global_ok = st.total_inflight_blocks + blocks <= self.quota.max_total_blocks
                    || st.total_inflight_blocks == 0;
                if !(tenant_ok && global_ok) {
                    continue;
                }
                let t = st.tenants.get_mut(&name).unwrap();
                t.queue.pop_front();
                t.granted.push(ticket);
                t.inflight_blocks += blocks;
                st.total_inflight_blocks += blocks;
                st.ticket_blocks.remove(&ticket);
                st.rr_cursor = (idx + 1) % n;
                granted_any = true;
            }
        }
        self.cv.notify_all();
    }

    /// In-flight blocks currently charged to `tenant`.
    #[cfg(test)]
    fn inflight_blocks(&self, tenant: &str) -> u64 {
        let st = lock_recover(&self.state);
        st.tenants
            .get(tenant)
            .map(|t| t.inflight_blocks)
            .unwrap_or(0)
    }

    /// Requests currently waiting in `tenant`'s queue.
    #[cfg(test)]
    fn queued_requests(&self, tenant: &str) -> usize {
        let st = lock_recover(&self.state);
        st.tenants.get(tenant).map(|t| t.queue.len()).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread;
    use std::time::Duration;

    fn quota(per_launch: u64, inflight: u64, queued: usize, total: u64) -> Quota {
        Quota {
            max_blocks_per_launch: per_launch,
            max_inflight_blocks: inflight,
            max_queued: queued,
            max_total_blocks: total,
        }
    }

    #[test]
    fn oversize_launch_is_rejected() {
        let a = Admission::new(quota(10, 100, 4, 100));
        assert!(matches!(a.admit("t", 11), Verdict::Rejected(_)));
        assert!(matches!(a.admit("t", 10), Verdict::Admitted(_)));
    }

    #[test]
    fn queue_overflow_is_throttled() {
        let a = Admission::new(quota(100, 4, 1, 100));
        let _held = match a.admit("t", 4) {
            Verdict::Admitted(p) => p,
            v => panic!("expected admit, got {v:?}"),
        };
        // Tenant budget is full; the next request queues (depth 1)…
        let a2 = Arc::clone(&a);
        let waiter = thread::spawn(move || match a2.admit("t", 4) {
            Verdict::Admitted(p) => drop(p),
            v => panic!("queued request should eventually admit, got {v:?}"),
        });
        // …wait until it is actually queued, then the queue is at its
        // depth limit and a further request throttles.
        for _ in 0..1000 {
            if a.queued_requests("t") == 1 {
                break;
            }
            thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(a.queued_requests("t"), 1, "waiter never queued");
        assert!(matches!(a.admit("t", 4), Verdict::Throttled(_)));
        drop(_held);
        waiter.join().unwrap();
    }

    #[test]
    fn release_unblocks_waiter() {
        let a = Admission::new(quota(100, 8, 8, 100));
        let p = match a.admit("t", 8) {
            Verdict::Admitted(p) => p,
            v => panic!("{v:?}"),
        };
        let a2 = Arc::clone(&a);
        let done = Arc::new(AtomicUsize::new(0));
        let done2 = Arc::clone(&done);
        let h = thread::spawn(move || {
            match a2.admit("t", 8) {
                Verdict::Admitted(p) => drop(p),
                v => panic!("{v:?}"),
            }
            done2.store(1, Ordering::SeqCst);
        });
        thread::sleep(Duration::from_millis(20));
        assert_eq!(done.load(Ordering::SeqCst), 0, "waiter admitted too early");
        drop(p);
        h.join().unwrap();
        assert_eq!(done.load(Ordering::SeqCst), 1);
        assert_eq!(a.inflight_blocks("t"), 0);
    }

    #[test]
    fn oversize_budget_launch_runs_alone_instead_of_deadlocking() {
        // Global budget 10, launch of 8 + launch of 8: second waits, runs
        // after first releases even though 8+8 > 10.
        let a = Admission::new(quota(64, 64, 8, 10));
        let p = match a.admit("t1", 8) {
            Verdict::Admitted(p) => p,
            v => panic!("{v:?}"),
        };
        let a2 = Arc::clone(&a);
        let h = thread::spawn(move || match a2.admit("t2", 8) {
            Verdict::Admitted(p) => drop(p),
            v => panic!("{v:?}"),
        });
        thread::sleep(Duration::from_millis(10));
        drop(p);
        h.join().unwrap();
    }

    #[test]
    fn round_robin_interleaves_tenants() {
        // Tenant A floods the queue; tenant B's single request must not
        // wait for all of A's backlog. Capacity admits one launch at a
        // time, so grants serialize and the order is observable.
        let a = Admission::new(quota(4, 4, 16, 4));
        let first = match a.admit("a", 4) {
            Verdict::Admitted(p) => p,
            v => panic!("{v:?}"),
        };
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for i in 0..3 {
            let a2 = Arc::clone(&a);
            let order2 = Arc::clone(&order);
            handles.push(thread::spawn(move || match a2.admit("a", 4) {
                Verdict::Admitted(p) => {
                    order2.lock().unwrap().push(format!("a{i}"));
                    thread::sleep(Duration::from_millis(5));
                    drop(p);
                }
                v => panic!("{v:?}"),
            }));
            // Stagger so tenant a's queue order is deterministic.
            thread::sleep(Duration::from_millis(10));
        }
        let a2 = Arc::clone(&a);
        let order2 = Arc::clone(&order);
        handles.push(thread::spawn(move || match a2.admit("b", 4) {
            Verdict::Admitted(p) => {
                order2.lock().unwrap().push("b".to_string());
                drop(p);
            }
            v => panic!("{v:?}"),
        }));
        thread::sleep(Duration::from_millis(10));
        drop(first);
        for h in handles {
            h.join().unwrap();
        }
        let order = order.lock().unwrap();
        let b_pos = order.iter().position(|s| s == "b").expect("b admitted");
        assert!(
            b_pos < order.len() - 1,
            "tenant b should not be last behind all of a's backlog: {order:?}"
        );
    }
}
