//! The reproduction harness: `repro <experiment>` regenerates a table or
//! figure of Ryoo et al. (PPoPP 2008) on the simulated GeForce 8800, and
//! `repro fidelity` checks every claim against the paper.

#![warn(clippy::too_many_lines)]

use g80_bench::suite::{self, Scale};
use g80_bench::{ablations, arch_study, fidelity, matmul_study, regcap_study, table1};
use g80_sim::GpuConfig;

fn usage() -> ! {
    eprintln!(
        "usage: repro <experiment> [--small]\n\
         experiments:\n\
           table1      memory-space latency/bandwidth microbenchmarks\n\
           fig3        disassemble the Figure 3 matmul kernels\n\
           fig4        matmul tile-size / unrolling sweep\n\
           sec4        Section 4 optimization walk + register cliff + tuner\n\
           table2      application suite inventory\n\
           table3      optimized application characteristics and speedups\n\
           fig5        LBM access-pattern study\n\
           sad-texture SAD texture-vs-global ablation\n\
           mri-sfu     MRI-Q SFU-vs-polynomial trig ablation\n\
           rc5-rotate  RC5 native-vs-emulated rotate ablation\n\
           arch        architecture-shift study (8800 GTS / GTX / GT200)\n\
           regcap      register-cap (occupancy vs spill) study\n\
           fidelity    check every paper claim; exits 1 if one fails\n\
           all         everything above"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = if args.iter().any(|a| a == "--small") {
        Scale::Small
    } else {
        Scale::Full
    };
    let what = args.first().map(String::as_str).unwrap_or_else(|| usage());
    let cfg = GpuConfig::geforce_8800_gtx();

    // Runs one experiment; false when a fidelity row failed.
    let run = |name: &str| {
        match name {
            "table1" => print!("{}", table1::render(&table1::run(&cfg))),
            "fig3" => {
                let mm = g80_apps::matmul::MatMul { n: 256 };
                for v in [
                    g80_apps::matmul::Variant::Naive,
                    g80_apps::matmul::Variant::Tiled {
                        tile: 16,
                        unroll: false,
                    },
                ] {
                    println!("{}", g80_isa::disasm::disassemble(&mm.kernel(v)));
                }
            }
            "fig4" => {
                let rows = matmul_study::figure4(scale.fig4_n());
                print!("{}", matmul_study::render_figure4(&rows));
            }
            "sec4" => {
                let n = scale.sec4_n();
                let steps = matmul_study::section4(n);
                let cliff = matmul_study::register_cliff(n);
                print!("{}", matmul_study::render_section4(&steps, &cliff));
                let (label, gflops) = matmul_study::tuner_search(scale.fig4_n());
                println!(
                    "\nAuto-tuner optimum over the config space: {label} at {gflops:.2} GFLOPS"
                );
                let (sl, sg, bl, bg) = matmul_study::local_maximum_demo(scale.fig4_n());
                println!(
                    "Local-maximum demo (tile-only strategy): stuck at {sl} ({sg:.2} GFLOPS) \
                     vs global best {bl} ({bg:.2} GFLOPS) — Section 6's warning, quantified"
                );
            }
            "table2" | "table3" => {
                let mut reports = suite::run_suite(scale);
                reports.push(suite::matmul_row(scale.sec4_n()));
                if name == "table2" {
                    print!("{}", suite::render_table2(&reports));
                } else {
                    print!("{}", suite::render_table3(&reports));
                }
            }
            "fig5" => {
                let (n, steps) = scale.fig5();
                print!(
                    "{}",
                    ablations::render_figure5(&ablations::figure5(n, steps))
                );
            }
            "sad-texture" => {
                let (g, t, gain) = ablations::sad_texture();
                println!("SAD: global {g:.3} ms, texture {t:.3} ms -> {gain:.2}x (paper: 2.8x)");
            }
            "mri-sfu" => {
                let (s, p, gain) = ablations::mri_sfu();
                println!("MRI-Q: SFU {s:.3} ms, polynomial {p:.3} ms -> {gain:.2}x");
            }
            "rc5-rotate" => {
                let (e, nv, gain) = ablations::rc5_rotate();
                println!("RC5: emulated {e:.3} ms, native {nv:.3} ms -> {gain:.2}x");
            }
            "arch" => print!("{}", arch_study::render(&arch_study::run(scale.fig4_n()))),
            "regcap" => print!("{}", regcap_study::render(&regcap_study::run())),
            "fidelity" => {
                let (report, passed) = fidelity::evaluate(scale);
                print!("{report}");
                return passed;
            }
            other => {
                eprintln!("unknown experiment: {other}");
                usage();
            }
        }
        true
    };

    let passed = if what == "all" {
        let mut passed = true;
        for name in [
            "table1",
            "fig4",
            "sec4",
            "table2",
            "table3",
            "fig5",
            "sad-texture",
            "mri-sfu",
            "rc5-rotate",
            "arch",
            "regcap",
            "fidelity",
        ] {
            println!("==================================================================");
            println!("== {name}");
            println!("==================================================================");
            passed &= run(name);
            println!();
        }
        passed
    } else {
        run(what)
    };
    if !passed {
        std::process::exit(1);
    }
}
