//! Quickstart: write a kernel, run it on the simulated GeForce 8800, read
//! the performance counters.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use g80::cuda::Device;
use g80::isa::builder::KernelBuilder;
use g80::tune::explain;

fn main() {
    // A device with 1 MB of global memory (the real card had 768 MB).
    let mut dev = Device::new(1 << 20);

    // Host data: a vector to scale.
    let n = 65_536u32;
    let host: Vec<f32> = (0..n).map(|i| i as f32).collect();
    let buf = dev.alloc::<f32>(n as usize);
    dev.copy_to_device(&buf, &host);

    // The kernel: y[i] = y[i] * 3 + 1, one element per thread. The builder
    // plays the role of CUDA C + nvcc: structured code in, optimized
    // machine code + register count out.
    let mut b = KernelBuilder::new("scale_bias");
    let data = b.param();
    let tid = b.tid_x();
    let ntid = b.ntid_x();
    let cta = b.ctaid_x();
    let i = b.imad(cta, ntid, tid);
    let byte = b.shl(i, 2u32);
    let addr = b.iadd(byte, data);
    let v = b.ld_global(addr, 0);
    let r = b.ffma(v, 3.0f32, 1.0f32);
    b.st_global(addr, 0, r);
    let kernel = b.build();

    println!(
        "compiled kernel:\n{}",
        g80::isa::disasm::disassemble(&kernel)
    );

    // Launch: 256 blocks of 256 threads.
    let stats = dev
        .launch(&kernel, (n / 256, 1), (256, 1, 1), &[buf.as_param()])
        .expect("launch failed");

    // Verify.
    let out = dev.copy_from_device(&buf);
    assert!(out
        .iter()
        .enumerate()
        .all(|(i, &v)| v == i as f32 * 3.0 + 1.0));
    println!("result verified: y[i] = 3*i + 1 for {n} elements\n");

    // What the counters say.
    println!(
        "cycles: {}   elapsed: {:.1} µs   GFLOPS: {:.1}   bandwidth: {:.1} GB/s",
        stats.cycles,
        stats.elapsed * 1e6,
        stats.gflops(),
        stats.bandwidth_gbps()
    );

    // The paper's methodology, as a library: estimate the roofline, name
    // the bottleneck and what limits residency, and say what to try.
    println!("{}", explain(dev.config(), &stats));
}
