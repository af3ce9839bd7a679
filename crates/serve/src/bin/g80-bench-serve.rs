//! `g80-bench-serve`: load generator for a running `g80-serve` daemon.
//!
//! Spawns N tenant connections, each firing M probe launches
//! back-to-back, and reports aggregate throughput, latency percentiles,
//! and how many responses were served from a cache tier (the `Served`
//! provenance in each report). Used by the CI smoke job to prove the
//! cross-process disk tier works: a second daemon on the same
//! `G80_SIM_DISK_CACHE` directory must answer `--expect-warm` traffic
//! from cache.
//!
//! ```text
//! g80-bench-serve --addr tcp:127.0.0.1:7808 --tenants 8 --requests 32 \
//!                 [--p99-ms 500] [--expect-warm] [--shutdown]
//! ```
//!
//! The fleet is `g80_serve::fleet`: each tenant sends the same probe
//! kernel (`fleet::probe_spec`) `M` times.
//!
//! Exit codes: 0 ok, 1 transport failure or bad arguments (an empty fleet,
//! `--tenants 0` or `--requests 0`, included), 2 assertion breached
//! (`--p99-ms` ceiling or `--expect-warm` with zero cache hits).

use g80_serve::{probe_spec, run_fleet, shutdown, Addr};
use g80_sim::net_counters;
use std::process::ExitCode;

const USAGE: &str = "usage: g80-bench-serve [--addr ADDR] [--tenants N] [--requests M] \
                     [--p99-ms MS] [--expect-warm] [--shutdown]";

struct Args {
    addr: Addr,
    tenants: usize,
    requests: usize,
    p99_ms: Option<f64>,
    expect_warm: bool,
    shutdown: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: Addr::Tcp("127.0.0.1:7808".into()),
        tenants: 8,
        requests: 32,
        p99_ms: None,
        expect_warm: false,
        shutdown: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--addr" => args.addr = Addr::parse(&value()?).map_err(|e| e.to_string())?,
            "--tenants" => args.tenants = value()?.parse().map_err(|_| "bad --tenants")?,
            "--requests" => args.requests = value()?.parse().map_err(|_| "bad --requests")?,
            "--p99-ms" => args.p99_ms = Some(value()?.parse().map_err(|_| "bad --p99-ms")?),
            "--expect-warm" => args.expect_warm = true,
            "--shutdown" => args.shutdown = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// Exit 1 with what went wrong and how the binary is called.
fn usage_error(e: &dyn std::fmt::Display) -> ExitCode {
    eprintln!("g80-bench-serve: {e}\n{USAGE}");
    ExitCode::from(1)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => return usage_error(&e),
    };

    let net_before = net_counters();
    let fleet = match run_fleet(&args.addr, args.tenants, args.requests, |t, _| {
        probe_spec(t)
    }) {
        Ok(fleet) => fleet,
        Err(e) if e.kind() == std::io::ErrorKind::InvalidInput => return usage_error(&e),
        Err(e) => {
            eprintln!("g80-bench-serve: tenant failed: {e}");
            return ExitCode::from(1);
        }
    };
    let total = fleet.latencies.len();
    println!(
        "g80-bench-serve: {} tenants x {} requests in {:.3}s  ({:.1} req/s)",
        args.tenants,
        args.requests,
        fleet.wall.as_secs_f64(),
        fleet.req_per_s()
    );
    println!(
        "g80-bench-serve: latency p50 {:.3}ms  p99 {:.3}ms  max {:.3}ms",
        fleet.percentile_ms(0.50),
        fleet.percentile_ms(0.99),
        fleet.percentile_ms(1.0)
    );
    println!(
        "g80-bench-serve: {}/{total} responses served from a cache tier",
        fleet.cache_hits
    );
    let rows = &fleet.rows;
    println!(
        "g80-bench-serve: daemon row shapes: {} uniform, {} affine, {} full",
        rows.uniform, rows.affine, rows.full
    );
    // Two views of transport chaos: what THIS process's clients survived
    // (recovery actions taken here) and the daemon's process-wide totals
    // as snapshotted in the last report each tenant saw.
    let client_net = net_counters().since(&net_before);
    println!(
        "g80-bench-serve: transport faults survived: client {} disconnects, {} frame retries, \
         {} reconnects, {} bytes resent; daemon totals {} disconnects, {} reconnects",
        client_net.disconnects,
        client_net.frames_retried,
        client_net.reconnects,
        client_net.bytes_resent,
        fleet.daemon_net.disconnects,
        fleet.daemon_net.reconnects
    );

    let mut failed = false;
    if let Some(ceiling) = args.p99_ms {
        let p99 = fleet.percentile_ms(0.99);
        if p99 > ceiling {
            eprintln!("g80-bench-serve: p99 {p99:.3}ms exceeds the {ceiling}ms ceiling");
            failed = true;
        }
    }
    if args.expect_warm && fleet.cache_hits == 0 {
        eprintln!("g80-bench-serve: --expect-warm but no response came from a cache tier");
        failed = true;
    }

    if args.shutdown {
        if let Err(e) = shutdown(&args.addr) {
            eprintln!("g80-bench-serve: shutdown failed: {e}");
            return ExitCode::from(1);
        }
        println!("g80-bench-serve: daemon acknowledged shutdown");
    }

    if failed {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}
