//! Cross-crate integration tests: kernels built with `g80-isa`, launched
//! through `g80-cuda` onto `g80-sim`, analysed with `g80-core`, covering
//! the paper's end-to-end claims.

use g80::apps::matmul::{MatMul, Variant};
use g80::cuda::Device;
use g80::isa::builder::{KernelBuilder, Unroll};
use g80::isa::inst::Operand;
use g80::sim::GpuConfig;
use g80::tune::{estimate, kernel_occupancy, Bottleneck, LimitingResource};
use g80_bench::fidelity;
use g80_bench::suite::Scale;

#[test]
fn matmul_all_variants_agree_with_reference() {
    let mm = MatMul { n: 96 };
    let (a, b) = mm.generate(1);
    let want = mm.cpu_reference(&a, &b);
    for v in [
        Variant::Naive,
        Variant::Tiled {
            tile: 8,
            unroll: false,
        },
        Variant::Tiled {
            tile: 16,
            unroll: true,
        },
        Variant::Prefetch { tile: 16 },
    ] {
        let (got, _, _) = mm.run(v, &a, &b);
        let err = g80::apps::common::max_rel_error(&got, &want);
        assert!(err < 1e-5, "{}: err {err}", v.label());
    }
}

#[test]
fn section4_ordering_holds_end_to_end() {
    // The Section 4 steps launched through the `g80` facade, held to the
    // fidelity rows `repro sec4` is checked against.
    let mm = MatMul {
        n: Scale::Small.sec4_n(),
    };
    let (a, b) = mm.generate(2);
    let gflops = |v| mm.run(v, &a, &b).1.gflops();
    let naive = gflops(Variant::Naive);
    let tiled = gflops(Variant::Tiled {
        tile: 16,
        unroll: false,
    });
    let unrolled = gflops(Variant::Tiled {
        tile: 16,
        unroll: true,
    });
    for (id, ratio) in [
        ("sec4.tiling_ratio", tiled / naive),
        ("sec4.unroll_ratio", unrolled / tiled),
    ] {
        let (text, held) = fidelity::check_value(Scale::Small, id, ratio);
        assert!(held, "{text}");
    }
}

#[test]
fn occupancy_calculator_matches_launch_reality() {
    // Whatever the calculator predicts, the launcher must schedule.
    let cfg = GpuConfig::geforce_8800_gtx();
    let mm = MatMul { n: 64 };
    let (a, b) = mm.generate(3);
    for v in [
        Variant::Naive,
        Variant::Tiled {
            tile: 8,
            unroll: true,
        },
        Variant::Tiled {
            tile: 16,
            unroll: false,
        },
    ] {
        let k = mm.kernel(v);
        let edge = v.block_edge();
        let predicted = kernel_occupancy(&cfg, &k, edge * edge);
        let (_, stats, _) = mm.run(v, &a, &b);
        assert_eq!(
            predicted.blocks_per_sm,
            stats.blocks_per_sm,
            "{}: calculator vs scheduler",
            v.label()
        );
    }
}

#[test]
fn the_four_principles_in_one_kernel_family() {
    // Principle 1 (latency hiding), 2 (on-chip reuse), 3 (coalescing +
    // conflicts), 4 (no global sync) — all visible from one tiled matmul
    // run's counters.
    let mm = MatMul { n: 128 };
    let (a, b) = mm.generate(4);
    let (_, stats, _) = mm.run(
        Variant::Tiled {
            tile: 16,
            unroll: true,
        },
        &a,
        &b,
    );

    // P1: full occupancy was reachable and latency mostly hidden.
    assert_eq!(stats.blocks_per_sm, 3);
    // P2: shared memory cut DRAM traffic ~16x below the naive version.
    let (_, naive, _) = mm.run(Variant::Naive, &a, &b);
    assert!(naive.global_bytes > 8 * stats.global_bytes);
    // P3: the cooperative tile loads coalesce; the tile reads are
    // broadcast/conflict-free.
    assert_eq!(stats.uncoalesced_half_warps, 0);
    assert_eq!(stats.smem_conflict_extra_cycles, 0);
    // P4: a single kernel launch suffices — barriers only inside blocks.
    assert!(stats.by_class[&g80::isa::InstClass::Barrier] > 0);
}

#[test]
fn device_roundtrip_and_occupancy_limits() {
    let mut dev = Device::new(1 << 16);
    let buf = dev.alloc::<f32>(512);
    dev.copy_to_device(&buf, &vec![1.5f32; 512]);

    // A deliberately register-hungry kernel must be rejected at 512
    // threads/block and accepted at 128.
    let build = || {
        let mut b = KernelBuilder::new("hungry");
        let p = b.param();
        let tid = b.tid_x();
        let byte = b.shl(tid, 2u32);
        let a = b.iadd(byte, p);
        let vals: Vec<_> = (0..20).map(|i| b.ld_global(a, i * 4)).collect();
        let mut acc = vals[0];
        for &v in &vals[1..] {
            acc = b.fadd(acc, v);
        }
        b.st_global(a, 0, acc);
        b.build()
    };
    let k = build();
    assert!(k.regs_per_thread > 16);
    assert!(dev
        .launch(&k, (1, 1), (512, 1, 1), &[buf.as_param()])
        .is_err());
    assert!(dev
        .launch(&k, (1, 1), (128, 1, 1), &[buf.as_param()])
        .is_ok());
}

#[test]
fn analytical_model_brackets_measured_performance() {
    // The Section 4 estimate must bound what the simulator delivers.
    let cfg = GpuConfig::geforce_8800_gtx();
    let mm = MatMul { n: 128 };
    let (a, b) = mm.generate(5);
    for v in [
        Variant::Naive,
        Variant::Tiled {
            tile: 16,
            unroll: true,
        },
    ] {
        let (_, stats, _) = mm.run(v, &a, &b);
        let est = estimate(&cfg, &stats);
        assert!(
            stats.gflops() <= est.potential_gflops * 1.05,
            "{}: measured {} above potential {}",
            v.label(),
            stats.gflops(),
            est.potential_gflops
        );
        assert!(
            est.efficiency > 0.15,
            "{}: eff {}",
            v.label(),
            est.efficiency
        );
    }
    let (_, naive, _) = mm.run(Variant::Naive, &a, &b);
    assert_eq!(
        estimate(&cfg, &naive).bottleneck,
        Bottleneck::MemoryBandwidth
    );
}

#[test]
fn occupancy_limiters_cover_all_resources() {
    let cfg = GpuConfig::geforce_8800_gtx();
    use g80::tune::occupancy;
    assert_eq!(
        occupancy(&cfg, 10, 0, 256).limiter,
        LimitingResource::ThreadContexts
    );
    assert_eq!(
        occupancy(&cfg, 11, 0, 256).limiter,
        LimitingResource::Registers
    );
    assert_eq!(
        occupancy(&cfg, 8, 6 * 1024, 128).limiter,
        LimitingResource::SharedMemory
    );
    assert_eq!(
        occupancy(&cfg, 8, 0, 32).limiter,
        LimitingResource::BlockSlots
    );
}

#[test]
fn compiler_optimization_levels_are_consistent() {
    // O0 / O1 / O2 builds of the same kernel must agree functionally and
    // get monotonically leaner.
    use g80::isa::{BuildOptions, OptLevel};
    let build = |opt| {
        let mut b = KernelBuilder::new("levels");
        let p = b.param();
        let tid = b.tid_x();
        let byte = b.shl(tid, 2u32);
        let a = b.iadd(byte, p);
        let acc = b.mov(Operand::imm_f(0.0));
        b.for_range(0u32, 16u32, 1, Unroll::Full, |b, i| {
            let scaled = b.imul(i, 4u32); // folds to a constant
            let v = b.ld_global(a, 0);
            let f = b.un(g80::isa::UnOp::CvtU2F, scaled);
            let t = b.fadd(v, f);
            b.ffma_to(acc, t, 0.5f32, acc);
        });
        b.st_global(a, 0, acc);
        b.build_with(BuildOptions {
            opt,
            max_regs: None,
        })
    };
    let k0 = build(OptLevel::O0);
    let k2 = build(OptLevel::O2);
    assert!(k2.code.len() < k0.code.len());
    assert!(k2.regs_per_thread <= k0.regs_per_thread);

    let run = |k: &g80::isa::Kernel| {
        let mut d = Device::new(4096);
        let buf = d.alloc::<f32>(64);
        d.copy_to_device(&buf, &(0..64).map(|i| i as f32).collect::<Vec<_>>());
        d.launch(k, (1, 1), (64, 1, 1), &[buf.as_param()]).unwrap();
        d.copy_from_device(&buf)
    };
    assert_eq!(run(&k0), run(&k2));
}

#[test]
fn deterministic_across_repeated_launches() {
    let mm = MatMul { n: 96 };
    let (a, b) = mm.generate(6);
    let v = Variant::Tiled {
        tile: 16,
        unroll: true,
    };
    let (o1, s1, _) = mm.run(v, &a, &b);
    let (o2, s2, _) = mm.run(v, &a, &b);
    assert_eq!(o1, o2);
    assert_eq!(s1.cycles, s2.cycles);
    assert_eq!(s1.warp_instructions, s2.warp_instructions);
    assert_eq!(s1.global_bytes, s2.global_bytes);
}
