//! Reusable kernel primitives a downstream user would reach for: grid-wide
//! reduction, elementwise map, and an exclusive block scan — each built with
//! the paper's recipes (shared-memory trees with conflict-free strides,
//! coalesced streaming, kernel-relaunch for global synchronization).

use g80_cuda::{Device, DeviceBuffer};
use g80_isa::builder::{KernelBuilder, Unroll};
use g80_isa::inst::{CmpOp, Operand, Pred, Scalar};
use g80_isa::Kernel;

const TPB: u32 = 256;

/// Builds the block-sum kernel: each 256-thread block reduces its segment to
/// one partial sum via a shared-memory tree (sequential-addressing variant —
/// conflict-free and divergence-light).
fn block_sum_kernel() -> Kernel {
    let mut b = KernelBuilder::new("block_sum");
    let (inp, outp, n) = (b.param(), b.param(), b.param());
    let smem = b.shared_alloc(TPB);
    let tid = b.tid_x();
    let gtid = crate::common::global_tid_x(&mut b);

    // Load (0.0 past the end), store to shared.
    let byte = b.shl(gtid, 2u32);
    let ia = b.iadd(byte, inp);
    let inbounds = b.setp(CmpOp::Lt, Scalar::U32, gtid, n);
    let v = b.vreg();
    b.mov_to(v, Operand::imm_f(0.0));
    b.if_(Pred::if_true(inbounds), |b| {
        let x = b.ld_global(ia, 0);
        b.mov_to(v, x);
    });
    let tb = b.shl(tid, 2u32);
    b.st_shared(tb, smem as i32, v);
    b.bar();

    // Tree reduction with sequential addressing: stride halves each round;
    // active threads read [tid] and [tid+stride] — no bank conflicts, and
    // the active threads stay packed in the low warps. The stride loop is a
    // *runtime* loop (branch + induction variable each round) — the
    // unrolled variant below removes that overhead.
    let stride = b.mov(Operand::imm_u(TPB / 2));
    b.do_while(|b| {
        let p = b.setp(CmpOp::Lt, Scalar::U32, tid, stride);
        b.if_(Pred::if_true(p), |b| {
            let mine = b.ld_shared(tb, smem as i32);
            let sb = b.shl(stride, 2u32);
            let ob = b.iadd(tb, sb);
            let other = b.ld_shared(ob, smem as i32);
            let sum = b.fadd(mine, other);
            b.st_shared(tb, smem as i32, sum);
        });
        b.bar();
        let ns = b.shr(stride, 1u32);
        b.mov_to(stride, ns);
        let more = b.setp(CmpOp::Ge, Scalar::U32, stride, 1u32);
        Pred::if_true(more)
    });

    let p0 = b.setp(CmpOp::Eq, Scalar::U32, tid, 0u32);
    let cta = b.ctaid_x();
    b.if_(Pred::if_true(p0), |b| {
        let total = b.ld_shared(Operand::imm_u(smem), 0);
        let ob = b.shl(cta, 2u32);
        let oa = b.iadd(ob, outp);
        b.st_global(oa, 0, total);
    });
    b.build()
}

/// Grid-wide sum of a device buffer: repeated block reduction until one
/// value remains (the kernel-relaunch global-sync pattern). Returns the sum.
pub fn reduce_sum(dev: &mut Device, data: &DeviceBuffer<f32>) -> f32 {
    let kernel = block_sum_kernel();
    let mut len = data.len() as u32;
    let mut cur = data.addr();
    // Ping-pong scratch buffers sized for the first round of partials.
    let scratch_a = dev.alloc::<f32>((len as usize).div_ceil(TPB as usize).max(1));
    let scratch_b = dev.alloc::<f32>((len as usize).div_ceil(TPB as usize).max(1));
    let mut dst = [scratch_a.addr(), scratch_b.addr()];

    while len > 1 {
        let blocks = len.div_ceil(TPB);
        dev.launch(
            &kernel,
            (blocks, 1),
            (TPB, 1, 1),
            &[
                g80_isa::Value::from_u32(cur),
                g80_isa::Value::from_u32(dst[0]),
                g80_isa::Value::from_u32(len),
            ],
        )
        .expect("reduce launch");
        cur = dst[0];
        dst.swap(0, 1);
        len = blocks;
    }
    f32::from_bits(dev.memory().read(cur).0)
}

/// Builds a map kernel `y[i] = a*x[i]*x[i] + b*x[i] + c` (an arbitrary but
/// representative elementwise transform).
fn quadratic_map_kernel() -> Kernel {
    let mut b = KernelBuilder::new("quadratic_map");
    let (xp, yp, n, ca, cb, cc) = (
        b.param(),
        b.param(),
        b.param(),
        b.param(),
        b.param(),
        b.param(),
    );
    let gtid = crate::common::global_tid_x(&mut b);
    let inbounds = b.setp(CmpOp::Lt, Scalar::U32, gtid, n);
    b.if_(Pred::if_true(inbounds), |b| {
        let byte = b.shl(gtid, 2u32);
        let xa = b.iadd(byte, xp);
        let x = b.ld_global(xa, 0);
        let t = b.ffma(ca, x, cb);
        let y = b.ffma(t, x, cc);
        let ya = b.iadd(byte, yp);
        b.st_global(ya, 0, y);
    });
    b.build()
}

/// Elementwise `y = a·x² + b·x + c` on device buffers.
pub fn map_quadratic(
    dev: &mut Device,
    x: &DeviceBuffer<f32>,
    y: &DeviceBuffer<f32>,
    (a, b, c): (f32, f32, f32),
) {
    assert!(y.len() >= x.len());
    let k = quadratic_map_kernel();
    let n = x.len() as u32;
    dev.launch(
        &k,
        (n.div_ceil(TPB), 1),
        (TPB, 1, 1),
        &[
            x.as_param(),
            y.as_param(),
            g80_isa::Value::from_u32(n),
            g80_isa::Value::from_f32(a),
            g80_isa::Value::from_f32(b),
            g80_isa::Value::from_f32(c),
        ],
    )
    .expect("map launch");
}

/// Builds an exclusive prefix-sum kernel over one 256-element block
/// (Hillis–Steele in shared memory — simple, barrier-per-step).
fn block_scan_kernel() -> Kernel {
    let mut b = KernelBuilder::new("block_scan");
    let (inp, outp) = (b.param(), b.param());
    let smem = b.shared_alloc(TPB);
    let tid = b.tid_x();
    let byte = b.shl(tid, 2u32);
    let ia = b.iadd(byte, inp);
    let v = b.ld_global(ia, 0);
    b.st_shared(byte, smem as i32, v);
    b.bar();

    let mut offset = 1u32;
    while offset < TPB {
        // read (before any write this round), barrier inside if_ not allowed:
        // read into a register, barrier, then conditional write.
        let has = b.setp(CmpOp::Ge, Scalar::U32, tid, offset);
        let partner = b.vreg();
        b.mov_to(partner, Operand::imm_f(0.0));
        b.if_(Pred::if_true(has), |b| {
            let pv = b.ld_shared(byte, smem as i32 - (offset * 4) as i32);
            b.mov_to(partner, pv);
        });
        b.bar();
        b.if_(Pred::if_true(has), |b| {
            let mine = b.ld_shared(byte, smem as i32);
            let sum = b.fadd(mine, partner);
            b.st_shared(byte, smem as i32, sum);
        });
        b.bar();
        offset *= 2;
    }

    // Exclusive result: shift right by one (thread 0 writes 0).
    let p0 = b.setp(CmpOp::Eq, Scalar::U32, tid, 0u32);
    let oa = b.iadd(byte, outp);
    b.if_else(
        Pred::if_true(p0),
        |b| b.st_global(oa, 0, Operand::imm_f(0.0)),
        |b| {
            let left = b.ld_shared(byte, smem as i32 - 4);
            b.st_global(oa, 0, left);
        },
    );
    b.build()
}

/// Exclusive prefix sum of exactly 256 elements (one block).
pub fn block_exclusive_scan(dev: &mut Device, x: &DeviceBuffer<f32>, y: &DeviceBuffer<f32>) {
    assert_eq!(x.len(), TPB as usize);
    assert!(y.len() >= TPB as usize);
    let k = block_scan_kernel();
    dev.launch(&k, (1, 1), (TPB, 1, 1), &[x.as_param(), y.as_param()])
        .expect("scan launch");
}

/// Unrolled variant of the block-sum tree (the paper's Section 4.3 recipe
/// applied to a primitive): identical results, fewer instructions.
pub fn block_sum_kernel_unrolled() -> Kernel {
    let mut b = KernelBuilder::new("block_sum_unrolled");
    let (inp, outp, n) = (b.param(), b.param(), b.param());
    let smem = b.shared_alloc(TPB);
    let tid = b.tid_x();
    let gtid = crate::common::global_tid_x(&mut b);
    let byte = b.shl(gtid, 2u32);
    let ia = b.iadd(byte, inp);
    let inbounds = b.setp(CmpOp::Lt, Scalar::U32, gtid, n);
    let v = b.vreg();
    b.mov_to(v, Operand::imm_f(0.0));
    b.if_(Pred::if_true(inbounds), |b| {
        let x = b.ld_global(ia, 0);
        b.mov_to(v, x);
    });
    let tb = b.shl(tid, 2u32);
    b.st_shared(tb, smem as i32, v);
    b.bar();
    // The tree fully unrolled via a compile-time loop over strides.
    b.for_range(1u32, 9u32, 1, Unroll::Full, |b, level| {
        let stride = TPB >> level.as_imm().unwrap().as_u32();
        let p = b.setp(CmpOp::Lt, Scalar::U32, tid, stride);
        b.if_(Pred::if_true(p), |b| {
            let mine = b.ld_shared(tb, smem as i32);
            let other = b.ld_shared(tb, smem as i32 + (stride * 4) as i32);
            let sum = b.fadd(mine, other);
            b.st_shared(tb, smem as i32, sum);
        });
        b.bar();
    });
    let p0 = b.setp(CmpOp::Eq, Scalar::U32, tid, 0u32);
    let cta = b.ctaid_x();
    b.if_(Pred::if_true(p0), |b| {
        let total = b.ld_shared(Operand::imm_u(smem), 0);
        let ob = b.shl(cta, 2u32);
        let oa = b.iadd(ob, outp);
        b.st_global(oa, 0, total);
    });
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduce_matches_host_sum() {
        let n = 100_000usize;
        let data = crate::common::random_f32(3, n, -1.0, 1.0);
        let want: f64 = data.iter().map(|&v| v as f64).sum();
        let mut dev = Device::new(1 << 20);
        let buf = dev.alloc::<f32>(n);
        dev.copy_to_device(&buf, &data);
        let got = reduce_sum(&mut dev, &buf) as f64;
        assert!((got - want).abs() < 0.05, "reduce {got} vs host {want}");
    }

    #[test]
    fn reduce_handles_non_multiple_lengths() {
        for n in [1usize, 255, 256, 257, 1000] {
            let data = vec![1.0f32; n];
            let mut dev = Device::new(1 << 18);
            let buf = dev.alloc::<f32>(n);
            dev.copy_to_device(&buf, &data);
            let got = reduce_sum(&mut dev, &buf);
            assert_eq!(got, n as f32, "n={n}");
        }
    }

    #[test]
    fn map_quadratic_matches_host() {
        let n = 4096usize;
        let x = crate::common::random_f32(4, n, -2.0, 2.0);
        let mut dev = Device::new(1 << 18);
        let dx = dev.alloc::<f32>(n);
        let dy = dev.alloc::<f32>(n);
        dev.copy_to_device(&dx, &x);
        map_quadratic(&mut dev, &dx, &dy, (1.5, -0.5, 2.0));
        let y = dev.copy_from_device(&dy);
        for (xi, yi) in x.iter().zip(&y) {
            let want = (1.5 * xi - 0.5) * xi + 2.0;
            assert_eq!(*yi, want);
        }
    }

    #[test]
    fn scan_matches_host_prefix_sum() {
        let x = crate::common::random_f32(5, 256, 0.0, 1.0);
        let mut dev = Device::new(1 << 16);
        let dx = dev.alloc::<f32>(256);
        let dy = dev.alloc::<f32>(256);
        dev.copy_to_device(&dx, &x);
        block_exclusive_scan(&mut dev, &dx, &dy);
        let y = dev.copy_from_device(&dy);
        let mut acc = 0.0f64;
        for (i, &got) in y.iter().enumerate() {
            assert!((got as f64 - acc).abs() < 1e-3, "scan[{i}] {got} vs {acc}");
            acc += x[i] as f64;
        }
    }

    #[test]
    fn unrolled_reduction_agrees_and_is_leaner() {
        let n = 2048u32;
        let data = crate::common::random_f32(6, n as usize, -1.0, 1.0);
        let run = |k: &Kernel| {
            let mut dev = Device::new(1 << 16);
            let buf = dev.alloc::<f32>(n as usize);
            let out = dev.alloc::<f32>((n / TPB) as usize);
            dev.copy_to_device(&buf, &data);
            let stats = dev
                .launch(
                    k,
                    (n / TPB, 1),
                    (TPB, 1, 1),
                    &[buf.as_param(), out.as_param(), g80_isa::Value::from_u32(n)],
                )
                .unwrap();
            (dev.copy_from_device(&out), stats)
        };
        let (a, rolled) = run(&block_sum_kernel());
        let (b, unrolled) = run(&block_sum_kernel_unrolled());
        assert_eq!(a, b);
        assert!(unrolled.warp_instructions < rolled.warp_instructions);
    }
}
