//! Property tests over *structured* random kernels (loops, divergent
//! branches, accumulators, a shared-memory stage, 1-D and narrow 2-D
//! blocks): the same program must produce identical global
//! memory output no matter how it was compiled (O0 vs O2, register-capped
//! and spilled vs not) or which machine ran it (16 SMs vs 1 SM, with or
//! without SM-level host parallelism) or which engine and dedup mode
//! simulated it (reference oracle, product with every block simulated,
//! product with witness replay) — under every host-side configuration of
//! the in-process matrix (`tests/common/contexts.rs` at the repo root).
//!
//! This is the harness that would have caught the branch-into-spill-reload
//! bug fixed in `g80-isa::regalloc` (targets must land on the first reload).

use g80_isa::builder::{BuildOptions, KernelBuilder, Unroll};
use g80_isa::inst::{AluOp, CmpOp, Inst, Operand, Pred, Scalar, SfuOp, UnOp};
use g80_isa::{Kernel, OptLevel, Value};
use g80_sim::{
    launch, memo_counters, DeviceMemory, Engine, GpuConfig, LaunchDims, SimConfig, SimContext,
};
use proptest::prelude::*;

#[allow(dead_code)]
#[path = "../../../tests/common/contexts.rs"]
mod contexts;
use contexts::contexts;

/// A recipe for one random structured kernel.
#[derive(Clone, Debug)]
struct Recipe {
    /// Straight-line op selectors for the loop body.
    body_ops: Vec<u8>,
    /// Loop trip count (0 = no loop).
    trips: u32,
    /// Unroll directive selector.
    unroll_sel: u8,
    /// Number of live accumulators.
    accs: usize,
    /// Whether to include a tid-divergent if/else.
    diverge: bool,
    /// Threshold for the divergent branch.
    threshold: u32,
    /// Shared-memory staging of the input: each thread stores its word to
    /// `s[tid]`, waits at the barrier, and adds the word it then loads — at
    /// its own `tid` (0), word 0 (1), the first word of its block row (2)
    /// or its column `tid.x` (3). `None` skips the stage.
    stage: Option<u8>,
    /// Block width: 64 is a 1-D block, 4 / 8 / 16 a 2-D block of 64 threads
    /// whose rows are runs of that period.
    width: u32,
}

fn arb_recipe() -> impl Strategy<Value = Recipe> {
    (
        prop::collection::vec(0u8..18, 1..10),
        0u32..6,
        0u8..3,
        1usize..5,
        any::<bool>(),
        0u32..64,
        prop::option::of(0u8..4),
        prop::sample::select(vec![64u32, 16, 8, 4]),
    )
        .prop_map(
            |(body_ops, trips, unroll_sel, accs, diverge, threshold, stage, width)| Recipe {
                body_ops,
                trips,
                unroll_sel,
                accs,
                diverge,
                threshold,
                stage,
                width,
            },
        )
}

/// Builds the kernel for a recipe. Every thread reads one input word and
/// writes one output word; all arithmetic flows through the accumulators so
/// nothing is dead. Beside the float accumulators runs one integer
/// accumulator, the only value a 32-bit multiply (`IMul`, `Imad`: the
/// multi-cycle issue class) feeds in a loop body: an affine row until a
/// data-dependent addend or a divergent write makes it structureless. The
/// optional shared stage moves the input through a row of every shape the
/// run form of a warp access distinguishes: consecutive words, a broadcast,
/// a broadcast per block row and consecutive words per block row.
fn build(recipe: &Recipe, opt: OptLevel, max_regs: Option<u32>) -> Kernel {
    let mut b = KernelBuilder::new("prop");
    let (inp, outp) = (b.param(), b.param());
    let tid_x = b.tid_x();
    let tid_y = b.tid_y();
    let ntid = b.ntid_x();
    let tid = b.imad(tid_y, ntid, tid_x);
    let cta = b.ctaid_x();
    let gtid = b.imad(cta, THREADS, tid);
    let byte = b.shl(gtid, 2u32);
    let ia = b.iadd(byte, inp);
    let mut x = b.ld_global(ia, 0);

    if let Some(kind) = recipe.stage {
        let s = b.shared_alloc(THREADS);
        let word = |b: &mut KernelBuilder, w: Operand| {
            let wb = b.shl(w, 2u32);
            b.iadd(wb, s)
        };
        let sa = word(&mut b, tid.into());
        b.st_shared(sa, 0, x);
        b.bar();
        let w: Operand = match kind {
            0 => tid.into(),
            1 => Operand::imm_u(0),
            2 => b.imul(tid_y, ntid).into(),
            _ => tid_x.into(),
        };
        let la = word(&mut b, w);
        let staged = b.ld_shared(la, 0);
        x = b.fadd(x, staged);
    }

    let accs: Vec<_> = (0..recipe.accs)
        .map(|k| {
            let f = b.un(UnOp::CvtU2F, gtid);
            b.fadd(f, Operand::imm_f(k as f32 * 0.25 + 0.5))
        })
        .collect();

    let iacc = b.iadd(gtid, 1u32);
    let xi = b.un(UnOp::CvtF2I, x);

    let emit_body = |b: &mut KernelBuilder, i: Operand| {
        let fi = b.un(UnOp::CvtU2F, i);
        for (j, &op) in recipe.body_ops.iter().enumerate() {
            let acc = accs[j % accs.len()];
            let other = accs[(j + 1) % accs.len()];
            match op {
                0 => b.ffma_to(acc, x, Operand::imm_f(0.5), acc),
                1 => b.ffma_to(acc, fi, Operand::imm_f(0.25), acc),
                2 => b.alu_to(AluOp::FAdd, acc, acc, other),
                3 => b.alu_to(AluOp::FSub, acc, acc, Operand::imm_f(0.125)),
                4 => b.alu_to(AluOp::FMul, acc, acc, Operand::imm_f(0.75)),
                5 => {
                    let t = b.sfu(SfuOp::Rcp, other);
                    let c = b.alu(AluOp::FMin, t, Operand::imm_f(8.0));
                    let c = b.alu(AluOp::FMax, c, Operand::imm_f(-8.0));
                    b.alu_to(AluOp::FAdd, acc, acc, c);
                }
                6 => b.alu_to(AluOp::FMax, acc, acc, other),
                7 => b.alu_to(AluOp::FMin, acc, acc, Operand::Reg(fi)),
                8 => {
                    let t = b.fmul(other, Operand::imm_f(0.5));
                    b.alu_to(AluOp::FAdd, acc, acc, t);
                }
                9 => {
                    let p = b.setp(CmpOp::Lt, Scalar::F32, acc, other);
                    let s = b.sel(p, Operand::imm_f(0.25), Operand::imm_f(0.5));
                    b.alu_to(AluOp::FAdd, acc, acc, s);
                }
                10 => b.ffma_to(acc, acc, Operand::imm_f(0.875), Operand::Reg(x)),
                11 => {
                    let t = b.un(UnOp::FAbs, acc);
                    b.mov_to(acc, t);
                }
                // Trig takes the accumulator as it is (any finite size);
                // the roots take |other| + 0.5 so no NaN is ever produced —
                // NaN payloads are not part of the evaluator contract.
                12 | 13 => {
                    let t = b.sfu(if op == 12 { SfuOp::Sin } else { SfuOp::Cos }, other);
                    b.alu_to(AluOp::FAdd, acc, acc, t);
                }
                14 | 15 => {
                    let t = b.un(UnOp::FAbs, other);
                    let t = b.fadd(t, Operand::imm_f(0.5));
                    let t = b.sfu(if op == 14 { SfuOp::Rsqrt } else { SfuOp::Sqrt }, t);
                    b.alu_to(AluOp::FAdd, acc, acc, t);
                }
                // 3 is not a power of two, so O2 keeps the multiply.
                16 => b.alu_to(AluOp::IMul, iacc, iacc, 3u32),
                _ => b.emit(Inst::Imad {
                    dst: iacc,
                    a: iacc.into(),
                    b: 5u32.into(),
                    c: if j % 2 == 0 { xi.into() } else { i },
                }),
            }
        }
    };

    let do_loop = |b: &mut KernelBuilder| {
        if recipe.trips == 0 {
            emit_body(b, Operand::imm_u(0));
        } else {
            let unroll = match recipe.unroll_sel {
                0 => Unroll::None,
                1 => Unroll::Full,
                _ if recipe.trips.is_multiple_of(2) => Unroll::By(2),
                _ => Unroll::None,
            };
            b.for_range(0u32, recipe.trips, 1, unroll, |b, i| emit_body(b, i));
        }
    };

    if recipe.diverge {
        let lane = b.and(tid, 31u32);
        let p = b.setp(CmpOp::Lt, Scalar::U32, lane, recipe.threshold);
        let pr = Pred::if_true(p);
        b.if_else(
            pr,
            |b| do_loop(b),
            |b| {
                for &acc in &accs {
                    b.alu_to(AluOp::FMul, acc, acc, Operand::imm_f(1.5));
                }
            },
        );
    } else {
        do_loop(&mut b);
    }

    let mut total = accs[0];
    for &a in &accs[1..] {
        total = b.fadd(total, a);
    }
    let low = b.and(iacc, 1023u32);
    let fi = b.un(UnOp::CvtU2F, low);
    total = b.fadd(total, fi);
    let oa = b.iadd(byte, outp);
    b.st_global(oa, 0, total);
    b.build_with(BuildOptions { opt, max_regs })
}

/// Threads per block, whatever its width.
const THREADS: u32 = 64;
const N: u32 = 256;
/// Enough 64-thread blocks (512) that most of them arrive after the first
/// resident cohort and are witness-replayed when dedup is on.
const N_REPLAY: u32 = THREADS * 512;

/// The kernel's output under every context of the matrix, which must agree
/// among themselves: cold in each, and again on what the first pass cached.
fn run(k: &Kernel, cfg: &GpuConfig, width: u32) -> Vec<u32> {
    let first = run_n(k, cfg, N, width);
    for (name, ctx) in contexts().iter() {
        for pass in ["cold", "warm"] {
            assert_eq!(
                first,
                ctx.enter(|| run_n(k, cfg, N, width)),
                "{name}, {pass}"
            );
        }
    }
    first
}

/// Runs `n` threads in blocks `width` threads wide and `THREADS / width`
/// rows high.
fn run_n(k: &Kernel, cfg: &GpuConfig, n: u32, width: u32) -> Vec<u32> {
    let mem = DeviceMemory::new(2 * n * 4 + 64);
    for i in 0..n {
        mem.write(i * 4, Value::from_f32((i % 17) as f32 * 0.3 - 2.0));
    }
    launch(
        cfg,
        k,
        LaunchDims {
            grid: (n / THREADS, 1),
            block: (width, THREADS / width, 1),
        },
        &[Value::from_u32(0), Value::from_u32(n * 4)],
        &mem,
    )
    .expect("launch");
    mem.read_slice(n * 4, n as usize).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// O0 and O2 builds of the same structured kernel agree bit-for-bit.
    #[test]
    fn optimization_levels_agree(recipe in arb_recipe()) {
        let cfg = GpuConfig::geforce_8800_gtx();
        let k0 = build(&recipe, OptLevel::O0, None);
        let k2 = build(&recipe, OptLevel::O2, None);
        prop_assert_eq!(run(&k0, &cfg, recipe.width), run(&k2, &cfg, recipe.width));
    }

    /// Register-capped (spilled) builds agree with unconstrained builds,
    /// including through loops and divergence.
    #[test]
    fn spilling_preserves_semantics(recipe in arb_recipe(), cap in 4u32..8) {
        let cfg = GpuConfig::geforce_8800_gtx();
        let free = build(&recipe, OptLevel::O2, None);
        let capped = build(&recipe, OptLevel::O2, Some(cap));
        prop_assert!(capped.regs_per_thread <= free.regs_per_thread.max(cap));
        prop_assert_eq!(run(&free, &cfg, recipe.width), run(&capped, &cfg, recipe.width));
    }

    /// The machine shape (1 SM vs 16 SMs, different block residency) never
    /// changes functional results.
    #[test]
    fn machine_shape_is_functionally_invisible(recipe in arb_recipe()) {
        let k = build(&recipe, OptLevel::O2, None);
        let gtx = GpuConfig::geforce_8800_gtx();
        let mut single = GpuConfig::geforce_8800_gtx();
        single.num_sms = 1;
        single.max_blocks_per_sm = 2;
        prop_assert_eq!(run(&k, &gtx, recipe.width), run(&k, &single, recipe.width));
    }

    /// The reference oracle (per-lane scalar evaluators), the product
    /// engine simulating every block, and the product engine replaying
    /// blocks from a witness write the same words — through SFU rows under
    /// the partial masks of the divergent branch too, and through shared
    /// rows of every run period.
    #[test]
    fn engines_and_dedup_modes_agree(recipe in arb_recipe()) {
        let cfg = GpuConfig::geforce_8800_gtx();
        let k = build(&recipe, OptLevel::O2, None);
        let run_in = |engine, dedup| {
            let config = SimConfig { engine, dedup, memo: false, ..SimConfig::default() };
            SimContext::new(config).enter(|| {
                let out = run_n(&k, &cfg, N_REPLAY, recipe.width);
                (out, memo_counters().dedup_fast_blocks)
            })
        };
        let (oracle, _) = run_in(Engine::Reference, false);
        let (simulated, _) = run_in(Engine::Predecoded, false);
        let (replayed, fast) = run_in(Engine::Predecoded, true);
        prop_assert!(fast > 0, "no block was replayed: the dedup arm tested nothing");
        prop_assert_eq!(&oracle, &simulated);
        prop_assert_eq!(&simulated, &replayed);
    }
}
