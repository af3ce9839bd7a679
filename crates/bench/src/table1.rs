//! Table 1 — properties of the GeForce 8800 memory spaces, measured by
//! microbenchmark instead of transcribed from the datasheet.
//!
//! For each space we run two microkernels on the simulated machine:
//!
//! * **latency**: a single warp executing a dependent chain of loads
//!   (each address comes from the previous value), so no parallelism can
//!   hide anything — cycles/load is the exposed round-trip;
//! * **bandwidth**: a full-occupancy streaming kernel, reporting achieved
//!   GB/s.

use g80_isa::builder::{KernelBuilder, Unroll};
use g80_isa::Value;
use g80_isa::{Operand, Space};
use g80_sim::{launch, DeviceMemory, GpuConfig, LaunchDims};

/// One measured row of Table 1.
#[derive(Clone, Debug)]
pub struct MemoryRow {
    pub space: &'static str,
    pub location: &'static str,
    pub size: &'static str,
    pub access: &'static str,
    pub scope: &'static str,
    /// Exposed dependent-load latency in cycles.
    pub latency_cycles: f64,
    /// Achieved streaming bandwidth in GB/s (None where streaming is not
    /// the intended use).
    pub bandwidth_gbps: Option<f64>,
}

const CHAIN: u32 = 256;

/// Dependent pointer-chase through `space`. Returns cycles per load.
fn measure_latency(cfg: &GpuConfig, space: Space) -> f64 {
    let mut b = KernelBuilder::new("chase");
    let out = b.param();
    match space {
        Space::Shared => {
            // Build the chain in shared memory first (single warp).
            let smem = b.shared_alloc(CHAIN);
            let tid = b.tid_x();
            let tb = b.shl(tid, 2u32);
            // chain[i] = ((i + 1) % CHAIN) * 4
            let next = b.iadd(tb, 4u32);
            let wrapped = b.and(next, (CHAIN * 4) - 1);
            b.st_shared(tb, smem as i32, wrapped);
            b.bar();
            let p = b.mov(Operand::imm_u(0));
            b.for_range(0u32, CHAIN, 1, Unroll::None, |b, _| {
                let v = b.ld_shared(p, smem as i32);
                b.mov_to(p, v);
            });
            b.st_global(out, 0, p);
        }
        Space::Global | Space::Tex | Space::Const => {
            let p = b.mov(Operand::imm_u(0));
            b.for_range(0u32, CHAIN, 1, Unroll::None, |b, _| {
                let v = b.ld(space, p, 0);
                b.mov_to(p, v);
            });
            b.st_global(out, 0, p);
        }
        Space::Local => {
            // Seed local memory with the chain, then chase it.
            let tid = b.tid_x();
            let _ = tid;
            b.for_range(0u32, CHAIN, 1, Unroll::None, |b, i| {
                let ib = b.shl(i, 2u32);
                let next = b.iadd(ib, 4u32);
                let wrapped = b.and(next, (CHAIN * 4) - 1);
                b.st(Space::Local, ib, 0, wrapped);
            });
            let p = b.mov(Operand::imm_u(0));
            b.for_range(0u32, CHAIN, 1, Unroll::None, |b, _| {
                let v = b.ld(Space::Local, p, 0);
                b.mov_to(p, v);
            });
            b.st_global(out, 0, p);
        }
    }
    let k = b.build();

    let mem = DeviceMemory::new(CHAIN * 4 + 64);
    // Chain in global words: mem[i] = (i+1)%CHAIN * 4.
    for i in 0..CHAIN {
        mem.write(i * 4, Value::from_u32(((i + 1) % CHAIN) * 4));
    }
    let mut m = mem;
    m.const_bank = (0..CHAIN).map(|i| ((i + 1) % CHAIN) * 4).collect();
    m.tex_binding = Some((0, CHAIN * 4));

    let stats = launch(
        cfg,
        &k,
        LaunchDims {
            grid: (1, 1),
            block: (1, 1, 1),
        },
        &[Value::from_u32(CHAIN * 4)],
        &m,
    )
    .expect("latency kernel");
    // Subtract the loop overhead measured instruction count: ~4 insts per
    // iteration at 4 cycles each plus the chase itself; report cycles/load
    // minus the non-load issue cost.
    let per_iter = stats.cycles as f64 / CHAIN as f64;
    let overhead = 5.0 * 4.0; // mov + iadd + setp + 2 bra issue slots
    (per_iter - overhead).max(1.0)
}

/// Full-occupancy streaming read bandwidth through `space` in GB/s.
fn measure_bandwidth(cfg: &GpuConfig, space: Space) -> f64 {
    let n: u32 = 1 << 20;
    let mut b = KernelBuilder::new("stream");
    let (inp, outp) = (b.param(), b.param());
    let tid = b.tid_x();
    let ntid = b.ntid_x();
    let cta = b.ctaid_x();
    let i = b.imad(cta, ntid, tid);
    let byte = b.shl(i, 2u32);
    // Four loads per thread (grid-stride) so bandwidth, not instruction
    // issue, is the limit.
    let quarter = (n / 4 * 4) as i32;
    let mut vals = Vec::new();
    for k in 0..4i32 {
        vals.push(match space {
            Space::Global => {
                let a = b.iadd(byte, inp);
                b.ld_global(a, k * quarter)
            }
            Space::Tex => b.ld_tex(byte, k * quarter),
            _ => unreachable!("bandwidth measured for global/texture only"),
        });
    }
    let mut d = b.fadd(vals[0], 1.0f32);
    for &v in &vals[1..] {
        d = b.fadd(d, v);
    }
    // One output word per block to avoid write traffic swamping the read
    // measurement: thread 0 writes.
    let p0 = b.setp(g80_isa::CmpOp::Eq, g80_isa::Scalar::U32, tid, 0u32);
    b.if_(g80_isa::Pred::if_true(p0), |b| {
        let ob = b.shl(cta, 2u32);
        let oa = b.iadd(ob, outp);
        b.st_global(oa, 0, d);
    });
    let k = b.build();

    let mut mem = DeviceMemory::new(n * 4 + (n / 256) * 4 + 64);
    mem.tex_binding = Some((0, n * 4));
    let stats = launch(
        cfg,
        &k,
        LaunchDims {
            grid: (n / 4 / 256, 1),
            block: (256, 1, 1),
        },
        &[Value::from_u32(0), Value::from_u32(n * 4)],
        &mem,
    )
    .expect("bandwidth kernel");
    // Useful (requested) bytes over elapsed time.
    n as f64 * 4.0 / stats.elapsed / 1e9
}

/// Measures every row of Table 1.
pub fn run(cfg: &GpuConfig) -> Vec<MemoryRow> {
    vec![
        MemoryRow {
            space: "Global",
            location: "off-chip",
            size: "768 MB total",
            access: "read/write",
            scope: "all threads",
            latency_cycles: measure_latency(cfg, Space::Global),
            bandwidth_gbps: Some(measure_bandwidth(cfg, Space::Global)),
        },
        MemoryRow {
            space: "Shared",
            location: "on-chip",
            size: "16 KB per SM",
            access: "read/write",
            scope: "thread block",
            latency_cycles: measure_latency(cfg, Space::Shared),
            bandwidth_gbps: None,
        },
        MemoryRow {
            space: "Constant",
            location: "off-chip, cached",
            size: "64 KB (8 KB cache/SM)",
            access: "read-only",
            scope: "all threads",
            latency_cycles: measure_latency(cfg, Space::Const),
            bandwidth_gbps: None,
        },
        MemoryRow {
            space: "Texture",
            location: "off-chip, cached",
            size: "up to global (8 KB cache/SM)",
            access: "read-only",
            scope: "all threads",
            latency_cycles: measure_latency(cfg, Space::Tex),
            bandwidth_gbps: Some(measure_bandwidth(cfg, Space::Tex)),
        },
        MemoryRow {
            space: "Local",
            location: "off-chip (DRAM)",
            size: "per-thread spill",
            access: "read/write",
            scope: "one thread",
            latency_cycles: measure_latency(cfg, Space::Local),
            bandwidth_gbps: None,
        },
    ]
}

/// Renders the table.
pub fn render(rows: &[MemoryRow]) -> String {
    let mut s = String::new();
    s.push_str("Table 1: memory spaces of the simulated GeForce 8800 (measured)\n");
    s.push_str(&format!(
        "{:<10} {:<18} {:<26} {:<11} {:<13} {:>9} {:>10}\n",
        "Memory", "Location", "Size", "Access", "Scope", "Lat (cyc)", "BW (GB/s)"
    ));
    for r in rows {
        s.push_str(&format!(
            "{:<10} {:<18} {:<26} {:<11} {:<13} {:>9.0} {:>10}\n",
            r.space,
            r.location,
            r.size,
            r.access,
            r.scope,
            r.latency_cycles,
            r.bandwidth_gbps
                .map(|b| format!("{b:.1}"))
                .unwrap_or_else(|| "-".into()),
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latencies_have_the_right_ordering() {
        let cfg = GpuConfig::geforce_8800_gtx();
        let rows = run(&cfg);
        let get = |name: &str| {
            rows.iter()
                .find(|r| r.space == name)
                .unwrap()
                .latency_cycles
        };
        // Shared is far faster than global; caches sit in between or below;
        // local is as slow as global.
        assert!(get("Shared") < 60.0, "shared {}", get("Shared"));
        assert!(get("Global") > 300.0, "global {}", get("Global"));
        assert!(get("Local") > 300.0);
        assert!(get("Constant") < get("Global") / 3.0);
        assert!(get("Texture") < get("Global"));
    }

    #[test]
    fn global_streaming_bandwidth_near_peak() {
        let cfg = GpuConfig::geforce_8800_gtx();
        let bw = measure_bandwidth(&cfg, Space::Global);
        assert!(bw > 0.7 * cfg.dram_gbps, "bw {bw}");
        assert!(bw <= cfg.dram_gbps * 1.01);
    }

    #[test]
    fn render_is_complete() {
        let cfg = GpuConfig::geforce_8800_gtx();
        let text = render(&run(&cfg));
        for name in ["Global", "Shared", "Constant", "Texture", "Local"] {
            assert!(text.contains(name));
        }
    }
}
