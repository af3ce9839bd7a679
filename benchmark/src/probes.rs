//! One-mechanism probes, in the style of the Volta microbenchmark
//! dissection: each isolates one mechanism of one layer on a fixed input,
//! so a moved end-to-end number can be pinned to a layer without reading
//! the trace. They run in every traced run's set-up and take well under
//! two seconds together.

use crate::layers::{put, Metrics};
use crate::stats::median;
use crate::workloads::serve_mix::{
    image_spec, run_inproc, sim_kernel, sim_spec, BULK_WORDS, PROBE_WORDS,
};
use g80_apps::matmul::{MatMul, Variant};
use g80_isa::{CompiledKernel, DecodedKernel};
use g80_serve::{Admission, Quota, Request, Response, Verdict};
use g80_sim::{pool, wire, GpuConfig, LaunchReport};
use std::hint::black_box;
use std::time::Instant;

/// Median of `reps` timings of `f`, in ns.
fn median_ns<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    median(&mut samples)
}

/// Fixed data seed of the probe inputs: probes compare commits, not seeds.
const PROBE_DATA: u64 = 0x6738_305f_7072_6f62;

pub fn run_all() -> Metrics {
    let mut m = Metrics::new();

    // ---- isa: predecode and region compilation of one kernel ----
    let kernel = MatMul { n: 256 }.kernel(Variant::Tiled {
        tile: 16,
        unroll: true,
    });
    put(
        &mut m,
        "isa.decode_us",
        median_ns(200, || DecodedKernel::new(&kernel)) / 1e3,
    );
    put(
        &mut m,
        "isa.compile_us",
        median_ns(200, || CompiledKernel::new(&kernel)) / 1e3,
    );

    // ---- sim: pool hand-off, CRC, report codec ----
    put(&mut m, "sim.pool_workers", pool::worker_count() as f64);
    put(
        &mut m,
        "sim.pool_task_us",
        median_ns(100, || pool::run_tasks((0..256).map(|_| || ()).collect())) / 256.0 / 1e3,
    );
    let block = vec![0xa5u8; 64 << 10];
    put(
        &mut m,
        "sim.crc_ns_per_kb",
        median_ns(200, || wire::crc32(black_box(&block))) / 64.0,
    );

    // ---- sim: one small launch served by the memo vs simulated ----
    let cfg = GpuConfig::geforce_8800_gtx();
    let probe = image_spec(0, PROBE_WORDS, PROBE_DATA);
    let bulk = image_spec(0, BULK_WORDS, PROBE_DATA);
    let sim_kernel = sim_kernel();
    let mut param = 0xf000_0000u32;
    put(
        &mut m,
        "sim.memo_miss_us",
        median_ns(32, || {
            param += 1;
            run_inproc(&cfg, &sim_spec(&sim_kernel, param))
        }) / 1e3,
    );
    let (report, delta) = run_inproc(&cfg, &probe);
    put(
        &mut m,
        "sim.memo_hit_us",
        median_ns(512, || run_inproc(&cfg, &probe)) / 1e3,
    );
    let report_bytes = report.encode();
    put(
        &mut m,
        "sim.report_encode_us",
        median_ns(2000, || report.encode()) / 1e3,
    );
    put(
        &mut m,
        "sim.report_decode_us",
        median_ns(2000, || LaunchReport::decode(black_box(&report_bytes))) / 1e3,
    );

    // ---- serve: request/response codec at both payload sizes ----
    for (name, spec) in [("probe", probe), ("bulk", bulk)] {
        let request = Request::Launch(spec);
        let bytes = request.encode();
        put(
            &mut m,
            &format!("serve.req_bytes.{name}"),
            bytes.len() as f64,
        );
        put(
            &mut m,
            &format!("serve.req_encode_us.{name}"),
            median_ns(200, || request.encode()) / 1e3,
        );
        put(
            &mut m,
            &format!("serve.req_decode_us.{name}"),
            median_ns(200, || Request::decode(black_box(&bytes))) / 1e3,
        );
    }
    let response = Response::Launch {
        result: Ok((report, delta)),
    };
    let bytes = response.encode();
    put(&mut m, "serve.resp_bytes", bytes.len() as f64);
    put(
        &mut m,
        "serve.resp_encode_us",
        median_ns(1000, || response.encode()) / 1e3,
    );
    put(
        &mut m,
        "serve.resp_decode_us",
        median_ns(1000, || Response::decode(black_box(&bytes))) / 1e3,
    );

    // ---- serve: admission of an uncontended probe-sized launch ----
    let admission = Admission::new(Quota::default());
    put(
        &mut m,
        "serve.admit_us",
        median_ns(2000, || match admission.admit("probe", 8) {
            Verdict::Admitted(permit) => drop(permit),
            verdict => panic!("uncontended admit refused: {verdict:?}"),
        }) / 1e3,
    );
    m
}
