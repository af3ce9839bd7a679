//! A closed-loop client fleet: `tenants` connections to one daemon, each
//! sending its launches back-to-back, and what they saw. `g80-bench-serve`
//! drives a running daemon with it; `bench_sim`'s serving row and the
//! proxied fleets of `tests/serve_chaos.rs` drive one they start
//! in-process.

use crate::{Addr, Client, WireLaunch};
use g80_isa::builder::KernelBuilder;
use g80_isa::Value;
use g80_sim::{LaunchDims, NetCounters, RowCounters, SimContext};
use std::io;
use std::time::{Duration, Instant};

/// How long a tenant (or [`shutdown`]) keeps retrying its connect.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

/// What one fleet run saw.
#[derive(Debug, Default)]
pub struct FleetReport {
    /// Every request's round trip, sorted ascending.
    pub latencies: Vec<Duration>,
    /// From the first connect to the last reply.
    pub wall: Duration,
    /// Responses a cache tier answered.
    pub cache_hits: u64,
    /// Cycles, warp instructions and thread instructions, summed over every
    /// report: transport faults that reconnect and replay must leave them
    /// unchanged.
    pub totals: [u64; 3],
    /// The daemon's row-shape totals, field-wise max over the reports (each
    /// snapshots the daemon's totals, so this is the latest state any
    /// tenant saw).
    pub rows: RowCounters,
    /// The daemon's transport-fault totals, likewise.
    pub daemon_net: NetCounters,
}

impl FleetReport {
    pub fn req_per_s(&self) -> f64 {
        self.latencies.len() as f64 / self.wall.as_secs_f64()
    }

    /// The `p`-quantile round trip (`p` in 0..=1, nearest rank below) in
    /// milliseconds.
    pub fn percentile_ms(&self, p: f64) -> f64 {
        let l = &self.latencies;
        l[((l.len() - 1) as f64 * p) as usize].as_secs_f64() * 1e3
    }

    fn absorb(&mut self, other: FleetReport) {
        self.latencies.extend(other.latencies);
        self.cache_hits += other.cache_hits;
        for (t, o) in self.totals.iter_mut().zip(other.totals) {
            *t += o;
        }
        self.rows.uniform = self.rows.uniform.max(other.rows.uniform);
        self.rows.affine = self.rows.affine.max(other.rows.affine);
        self.rows.full = self.rows.full.max(other.rows.full);
        let (n, o) = (&mut self.daemon_net, other.daemon_net);
        n.disconnects = n.disconnects.max(o.disconnects);
        n.frames_retried = n.frames_retried.max(o.frames_retried);
        n.bytes_resent = n.bytes_resent.max(o.bytes_resent);
        n.reconnects = n.reconnects.max(o.reconnects);
    }
}

/// Runs `tenants` connections to `addr` at once, tenant `t` sending
/// `spec(t, 0..requests)` in order and timing each round trip from send to
/// reply (building the spec is outside the window). Tenant threads run in
/// the caller's [`SimContext`], so their recovery tallies land in its
/// counters. An empty fleet is refused with `InvalidInput`
/// before anything connects; a transport failure, a typed daemon error or a
/// panicking tenant fails the run with its error.
pub fn run_fleet(
    addr: &Addr,
    tenants: usize,
    requests: usize,
    spec: impl Fn(usize, usize) -> WireLaunch + Sync,
) -> io::Result<FleetReport> {
    if tenants == 0 || requests == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "a fleet needs at least one tenant and one request",
        ));
    }
    let ctx = SimContext::current();
    let tenant = |t: usize| -> io::Result<FleetReport> {
        let mut client = Client::connect_retry(addr, &format!("bench-{t}"), CONNECT_TIMEOUT)?;
        let mut seen = FleetReport::default();
        for i in 0..requests {
            let spec = spec(t, i);
            let t0 = Instant::now();
            let result = client.launch(&spec)?;
            seen.latencies.push(t0.elapsed());
            let (report, _) =
                result.map_err(|e| io::Error::other(format!("typed error from daemon: {e}")))?;
            let s = &report.stats;
            seen.absorb(FleetReport {
                cache_hits: u64::from(report.served.from_cache()),
                totals: [s.cycles, s.warp_instructions, s.thread_instructions],
                rows: report.rows,
                daemon_net: report.net,
                ..FleetReport::default()
            });
        }
        Ok(seen)
    };
    let (tenant, ctx) = (&tenant, &ctx);
    let started = Instant::now();
    let mut fleet = std::thread::scope(|s| {
        let workers: Vec<_> = (0..tenants)
            .map(|t| s.spawn(move || ctx.enter(|| tenant(t))))
            .collect();
        let mut joined = workers.into_iter().map(|w| {
            w.join()
                .unwrap_or_else(|_| Err(io::Error::other("tenant thread panicked")))
        });
        let first = joined.next().expect("nonempty fleet")?;
        joined.try_fold(first, |mut all, r| {
            all.absorb(r?);
            Ok::<_, io::Error>(all)
        })
    })?;
    fleet.wall = started.elapsed();
    fleet.latencies.sort_unstable();
    Ok(fleet)
}

/// Asks the daemon at `addr` to drain and exit, and waits for its answer.
pub fn shutdown(addr: &Addr) -> io::Result<()> {
    Client::connect_retry(addr, "bench-admin", CONNECT_TIMEOUT)?.shutdown()
}

/// The probe request: a small streaming kernel over 1024 words, with
/// distinct code per tenant (the scale constant), so tenants do not collapse
/// into one memo entry: cache hits come from a tenant's own repeats or from
/// the disk tier.
pub fn probe_spec(tenant: usize) -> WireLaunch {
    let mut b = KernelBuilder::new(&format!("serve_probe_{tenant}"));
    let p = b.param();
    let tid = b.tid_x();
    let byte = b.shl(tid, 2u32);
    let addr = b.iadd(byte, p);
    let v = b.ld_global(addr, 0);
    let w = b.fmul(v, 1.0 + tenant as f32);
    b.st_global(addr, 0, w);
    let dims = LaunchDims {
        grid: (8, 1),
        block: (128, 1, 1),
    };
    let mut spec = WireLaunch::new(b.build(), dims, vec![Value::from_u32(0)], 8 * 128 * 4);
    spec.writes = (0..8 * 128).map(|i| (i * 4, i)).collect();
    spec
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{serve, ServeConfig};
    use g80_sim::SimConfig;

    #[test]
    fn an_empty_fleet_is_refused_before_connecting() {
        // Nothing listens here: the refusal must come first.
        let addr = Addr::parse("unix:/nonexistent/g80-fleet.sock").unwrap();
        for (tenants, requests) in [(0, 4), (4, 0), (0, 0)] {
            let err = run_fleet(&addr, tenants, requests, |t, _| probe_spec(t)).unwrap_err();
            assert_eq!(
                err.kind(),
                io::ErrorKind::InvalidInput,
                "{tenants}x{requests}"
            );
        }
    }

    #[test]
    fn a_probe_fleet_hits_its_own_repeats() {
        // Daemon and tenants in one fresh context, whatever the environment.
        let fleet = SimContext::new(SimConfig::default()).enter(|| {
            let server = serve(ServeConfig {
                addr: Addr::parse("tcp:127.0.0.1:0").unwrap(),
                ..ServeConfig::default()
            })
            .unwrap();
            let addr = server.local_addr().clone();
            let fleet = run_fleet(&addr, 2, 3, |t, _| probe_spec(t)).unwrap();
            shutdown(&addr).unwrap();
            server.join().unwrap();
            fleet
        });
        assert_eq!(fleet.latencies.len(), 6);
        assert!(fleet.latencies.windows(2).all(|w| w[0] <= w[1]));
        assert!(fleet.cache_hits >= 4, "{fleet:?}");
        assert!(fleet.percentile_ms(0.5) <= fleet.percentile_ms(0.99));
    }
}
