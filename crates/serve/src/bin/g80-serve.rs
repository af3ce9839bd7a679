//! The `g80-serve` daemon binary.
//!
//! Reads its configuration from the environment (`G80_SERVE_ADDR`,
//! `G80_SERVE_TENANT_BLOCKS`, `G80_SERVE_TENANT_QUEUE`,
//! `G80_SERVE_MAX_BLOCKS`, `G80_SERVE_READ_TIMEOUT_MS`,
//! `G80_SERVE_IDLE_TIMEOUT_MS`, `G80_SERVE_MAX_CONNS`, plus every variable
//! the simulator honors: disk cache and watchdog, which configure the
//! *global* `SimContext` it serves in; the pool size is
//! process-wide), binds, and serves until a client sends a Shutdown
//! request. Exits 0 after a clean drain.

use g80_serve::{serve, ServeConfig};
use std::process::ExitCode;

fn main() -> ExitCode {
    let cfg = match ServeConfig::from_env() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("g80-serve: bad configuration: {e}");
            return ExitCode::from(2);
        }
    };
    let server = match serve(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("g80-serve: failed to bind: {e}");
            return ExitCode::from(2);
        }
    };
    // CI scripts and the load generator parse this line for the resolved
    // address (ephemeral TCP ports).
    println!("g80-serve listening on {}", server.local_addr());
    let sim = g80_sim::SimContext::global();
    println!("g80-serve simulator config: {:?}", sim.config());
    match server.join() {
        Ok(()) => {
            println!("g80-serve drained cleanly");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("g80-serve: accept loop failed: {e}");
            ExitCode::from(1)
        }
    }
}
