//! Tables 2 and 3 — the application-suite characterization.
//!
//! Every row runs the application's optimized kernel(s) on its default
//! workload, validates against the CPU reference, and derives the paper's
//! columns from the measured counters. Paper comparison values are listed
//! in EXPERIMENTS.md (several are reconstructed — the supplied paper text
//! has the table bodies garbled; see DESIGN.md §4).

use g80_apps::common::AppReport;
use g80_apps::{cp, fdtd, fem, lbm, matmul, mrifhd, mriq, pns, rc5, rpes, sad, saxpy, tpacf};
use g80_core::{explain, Bottleneck};
use g80_cuda::{CpuModel, CpuTuning};
use g80_sim::GpuConfig;

/// Scale of every study: `Small` for tier-1 and `repro --small`, `Full` for
/// the paper's sizes. The suite's per-app sizes are in [`run_suite`]; the
/// matmul and LBM studies read theirs here.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Scale {
    Small,
    Full,
}

impl Scale {
    fn pick<T>(self, small: T, full: T) -> T {
        match self {
            Scale::Small => small,
            Scale::Full => full,
        }
    }

    /// Matrix edge of Figure 4, the tuner and the architecture study.
    pub fn fig4_n(self) -> u32 {
        self.pick(96, 192)
    }

    /// Matrix edge of the Section 4 walk, the register cliff and Table 3's
    /// MatMul row.
    pub fn sec4_n(self) -> u32 {
        self.pick(128, 256)
    }

    /// Figure 5's lattice edge and time steps.
    pub fn fig5(self) -> (u32, u32) {
        self.pick((64, 2), (128, 8))
    }
}

/// Runs every application and returns its report, in the paper's Table 2
/// ordering. Each application's whole setup→launch→validate pipeline is
/// one task on the shared simulation pool; the inner kernel launches fan
/// out on the same pool (scope owners execute tasks while they wait, so
/// the nesting cannot deadlock) and results come back in submission order.
pub fn run_suite(scale: Scale) -> Vec<AppReport> {
    g80_sim::pool::run_tasks(suite_jobs(scale))
}

/// One application's whole pipeline, as a pool task.
pub type SuiteJob = Box<dyn FnOnce() -> AppReport + Send>;

/// The tasks [`run_suite`] runs, in its order.
pub fn suite_jobs(scale: Scale) -> Vec<SuiteJob> {
    let full = scale == Scale::Full;
    vec![
        // H.264 motion estimation.
        Box::new(move || {
            if full {
                sad::SadApp::default()
            } else {
                sad::SadApp {
                    width: 64,
                    height: 48,
                }
            }
            .report()
        }),
        // LBM.
        Box::new(move || {
            if full {
                lbm::Lbm { n: 128, steps: 8 }
            } else {
                lbm::Lbm { n: 64, steps: 2 }
            }
            .report()
        }),
        // RC5-72.
        Box::new(move || {
            rc5::Rc5 {
                n_keys: if full { 1 << 16 } else { 1 << 12 },
                ..Default::default()
            }
            .report()
        }),
        // FEM.
        Box::new(move || {
            fem::Fem {
                n_nodes: if full { 1 << 15 } else { 1 << 13 },
                sweeps: if full { 8 } else { 2 },
            }
            .report()
        }),
        // RPES.
        Box::new(move || {
            rpes::Rpes {
                n: if full { 1 << 15 } else { 1 << 13 },
            }
            .report()
        }),
        // PNS.
        Box::new(move || {
            pns::Pns {
                n_threads: if full { 1 << 14 } else { 1 << 12 },
                steps: if full { 256 } else { 64 },
                snap_every: 32,
            }
            .report()
        }),
        // SAXPY.
        Box::new(move || {
            saxpy::Saxpy {
                n: if full { 1 << 20 } else { 1 << 17 },
                alpha: 2.5,
            }
            .report()
        }),
        // TPACF.
        Box::new(move || {
            tpacf::Tpacf {
                n: if full { 2048 } else { 512 },
            }
            .report()
        }),
        // FDTD.
        Box::new(move || {
            fdtd::Fdtd {
                n: if full { 256 } else { 128 },
                steps: if full { 8 } else { 2 },
            }
            .report()
        }),
        // MRI-Q.
        Box::new(move || {
            mriq::MriQ {
                n_voxels: if full { 1 << 15 } else { 1 << 12 },
                n_k: if full { 1024 } else { 256 },
            }
            .report()
        }),
        // MRI-FHD.
        Box::new(move || {
            mrifhd::MriFhd {
                n_voxels: if full { 1 << 15 } else { 1 << 12 },
                n_k: if full { 1024 } else { 256 },
            }
            .report()
        }),
        // CP.
        Box::new(move || {
            cp::CoulombicPotential {
                grid: if full { 256 } else { 64 },
                n_atoms: if full { 128 } else { 64 },
                spacing: 0.5,
            }
            .report()
        }),
    ]
}

/// The matrix-multiplication row the paper lists "for comparison".
pub fn matmul_row(n: u32) -> AppReport {
    let mm = matmul::MatMul { n };
    let (a, b) = mm.generate(42);
    let v = matmul::Variant::Tiled {
        tile: 16,
        unroll: true,
    };
    let want = mm.cpu_reference(&a, &b);
    let (got, stats, timeline) = mm.run(v, &a, &b);
    AppReport {
        name: "MatMul",
        description: "Dense single-precision matrix multiplication",
        stats,
        timeline,
        cpu_kernel_s: CpuModel::opteron_248().time(&mm.cpu_work(), CpuTuning::SimdFastMath),
        kernel_cpu_fraction: 0.99,
        max_rel_error: g80_apps::common::max_rel_error(&got, &want),
    }
}

/// Renders Table 2 (application inventory).
pub fn render_table2(reports: &[AppReport]) -> String {
    let mut s = String::new();
    s.push_str("Table 2: application suite\n");
    s.push_str(&format!(
        "{:<12} {:<52} {:>12}\n",
        "Application", "Description", "% CPU in krn"
    ));
    for r in reports {
        s.push_str(&format!(
            "{:<12} {:<52} {:>11.1}%\n",
            r.name,
            r.description,
            r.kernel_cpu_fraction * 100.0
        ));
    }
    s
}

/// Renders Table 3 (optimized implementation characteristics + speedups),
/// then the suite grouped by verdict.
pub fn render_table3(reports: &[AppReport]) -> String {
    let verdicts = verdicts(reports);
    let mut s = String::new();
    s.push_str("Table 3: optimized application implementations\n");
    s.push_str(&format!(
        "{:<12} {:>8} {:>5} {:>7} {:>9} {:>7} {:>9} {:<18} {:>8} {:>8} {:>7}\n",
        "Application",
        "maxthr",
        "regs",
        "smem/B",
        "mem:comp",
        "GPU%",
        "xfer(ms)",
        "bottleneck",
        "krn spd",
        "app spd",
        "err"
    ));
    for (r, b) in reports.iter().zip(&verdicts) {
        s.push_str(&format!(
            "{:<12} {:>8} {:>5} {:>7} {:>9.2} {:>6.0}% {:>9.3} {:<18} {:>7.1}x {:>7.2}x {:>7.0e}\n",
            r.name,
            r.stats.max_simultaneous_threads,
            r.stats.regs_per_thread,
            r.stats.smem_per_block,
            r.stats.global_to_compute_ratio(),
            r.gpu_exec_fraction() * 100.0,
            r.timeline.transfer_s() * 1e3,
            format!("{b:?}"),
            r.kernel_speedup(),
            r.app_speedup(),
            r.max_rel_error,
        ));
    }
    s.push_str("\nBottleneck groups (Section 5.1):\n");
    for (b, apps) in group(reports, &verdicts) {
        s.push_str(&format!("  {b:?}: {}\n", apps.join(", ")));
    }
    s
}

/// Each report's verdict, from its run's diagnosis.
fn verdicts(reports: &[AppReport]) -> Vec<Bottleneck> {
    let cfg = GpuConfig::geforce_8800_gtx();
    let verdict = |r: &AppReport| explain(&cfg, &r.stats).estimate.bottleneck;
    reports.iter().map(verdict).collect()
}

/// Groups the suite by measured bottleneck — the paper's Section 5.1
/// discussion ("memory-related bottlenecks appeared in LBM, FEM, PNS,
/// SAXPY, and FDTD").
pub fn bottleneck_groups(reports: &[AppReport]) -> Vec<(Bottleneck, Vec<&'static str>)> {
    group(reports, &verdicts(reports))
}

fn group(reports: &[AppReport], verdicts: &[Bottleneck]) -> Vec<(Bottleneck, Vec<&'static str>)> {
    let mut groups: Vec<(Bottleneck, Vec<&'static str>)> = Vec::new();
    for (r, &b) in reports.iter().zip(verdicts) {
        match groups.iter_mut().find(|(g, _)| *g == b) {
            Some((_, v)) => v.push(r.name),
            None => groups.push((b, vec![r.name])),
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fidelity::{assert_rows, Studies};

    #[test]
    fn small_suite_runs_and_validates() {
        // A launch that counted no cycles reads an infinite speedup, which
        // the fastest-kernel band rejects.
        assert_rows(&[
            "table2.apps",
            "table3.max_rel_error",
            "table3.slowest_kernel",
            "table3.fastest_kernel",
        ]);
    }

    #[test]
    fn speedup_grouping_matches_paper_tiers() {
        assert_rows(&["table3.tier_gap", "table3.fdtd_app"]);
    }

    #[test]
    fn tables_render() {
        let reports = run_suite(Scale::Small);
        let t2 = render_table2(&reports);
        let t3 = render_table3(&reports);
        for name in [
            "H.264", "LBM", "RC5-72", "FEM", "RPES", "PNS", "SAXPY", "TPACF", "FDTD", "MRI-Q",
            "MRI-FHD", "CP",
        ] {
            assert!(t2.contains(name), "table2 missing {name}");
            assert!(t3.contains(name), "table3 missing {name}");
        }
        assert!(!bottleneck_groups(&reports).is_empty());
    }

    #[test]
    fn verdicts_agree_with_the_dominant_stall() {
        use g80_sim::StallReason::{AluDependency, Barrier, Memory};
        let studies = Studies::at(Scale::Small);
        let cfg = GpuConfig::geforce_8800_gtx();
        let apps = studies
            .table3()
            .iter()
            .map(|r| (r.name, explain(&cfg, &r.stats)));
        let steps = studies
            .sec4()
            .iter()
            .map(|st| (st.name.as_str(), st.diagnosis.clone()));
        for (name, d) in steps.chain(apps) {
            let stall = d.dominant_stall.map(|(r, _)| r);
            let agrees = match d.estimate.bottleneck {
                Bottleneck::MemoryBandwidth => stall == Some(Memory),
                // Exposed latency includes too-serial dependence chains.
                Bottleneck::MemoryLatency => matches!(stall, Some(Memory | AluDependency)),
                Bottleneck::Synchronization => stall == Some(Barrier),
                Bottleneck::InstructionIssue | Bottleneck::BankConflicts => true,
            };
            assert!(agrees, "{name}: verdict and dominant stall disagree\n{d}");
        }
    }
}
