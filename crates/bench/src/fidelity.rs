//! The reproduction's claims as data. Every shape EXPERIMENTS.md reports —
//! who wins, by what factor, where the crossovers fall — and every
//! documented deviation is one row of [`ROWS`]. [`evaluate`] runs each study
//! once and checks every row: tier-1 at [`Scale::Small`], `repro fidelity`
//! at the paper's sizes.

use std::sync::OnceLock;

use g80_apps::common::AppReport;

use crate::ablations::{self, Fig5Row};
use crate::arch_study::{self, ArchResult};
use crate::matmul_study::{self, Fig4Row, Sec4Step};
use crate::suite::{self, Scale};
use Bound::*;
use Measured::*;
use Paper::*;
use Small::*;

/// A paper value: quoted, reconstructed (DESIGN.md §4), or a claim in words.
#[derive(Clone, Copy, Debug)]
pub enum Paper {
    Value(f64),
    Recon(f64),
    Says(&'static str),
}

/// What a measured quantity must satisfy; `Within` is inclusive.
#[derive(Clone, Copy, Debug)]
pub enum Bound {
    Above(f64),
    Below(f64),
    Within(f64, f64),
    Equals(f64),
    Is(&'static str),
}

/// How a row reads at `Scale::Small`: with its paper-size bound, with
/// another bound, or not at all because the reduced size cannot show it.
#[derive(Clone, Copy, Debug)]
pub enum Small {
    Same,
    At(Bound),
    FullOnly,
}

/// A measured quantity.
#[derive(Clone, Debug)]
pub enum Measured {
    Num(f64),
    Text(String),
}

/// One claim; `bound` is its bound at paper size.
pub struct Row {
    pub id: &'static str,
    pub paper: Paper,
    pub bound: Bound,
    pub small: Small,
    measure: fn(&Studies) -> Measured,
}

const fn row(
    id: &'static str,
    paper: Paper,
    bound: Bound,
    small: Small,
    measure: fn(&Studies) -> Measured,
) -> Row {
    Row {
        id,
        paper,
        bound,
        small,
        measure,
    }
}

/// Every claim, by study. The sizes are [`Scale`]'s; the Section 5
/// ablations have one size.
#[rustfmt::skip]
pub static ROWS: &[Row] = &[
    // Figure 4, at `fig4_n`.
    row("fig4.unroll_helps", Says("unrolling helps at every tile size"), Above(1.0), Same,
        |s| Num(min([4, 8, 12, 16].map(|t| s.tile(t, "+unrolled") / s.tile(t, ""))))),
    row("fig4.unrolled_rises", Says("monotone rise to 16x16"), Above(1.0), Same,
        |s| Num(min([(4, 8), (8, 12), (12, 16)].map(|(a, b)| s.tile(b, "+unrolled") / s.tile(a, "+unrolled"))))),
    row("fig4.optimum_16x16", Says("16x16 unrolled beats the other configurations"), Above(1.0), Same,
        |s| Num(s.tile(16, "+unrolled") / max(s.fig4_rows().iter().filter(|r| !r.label.starts_with("16x16 tiled+")).map(|r| r.gflops)))),
    row("fig4.optimum_over_naive", Value(8.61), Within(9.0, 11.5), At(Above(3.0)),
        |s| Num(s.tile(16, "+unrolled") / s.fig4("not tiled"))),
    row("fig4.register_tiling", Recon(1.2), Within(1.1, 1.3), Same,
        |s| Num(s.tile(16, "+register tiling") / s.tile(16, "+unrolled"))),
    row("fig4.4x4_slowest_tiling", Says("4x4 is the slowest tile"), Below(1.0), Same,
        |s| Num(s.tile(4, "") / min([8, 12, 16].map(|t| s.tile(t, ""))))),
    row("fig4.dip_12x12", Says("12x12 rolled dips below 8x8 rolled"), Below(1.0), FullOnly,
        |s| Num(s.tile(12, "") / s.tile(8, ""))),
    // Deviation: strict CC 1.0 coalescing charges the naive kernel's broadcast loads per lane.
    row("fig4.deviation_4x4_over_naive", Recon(0.8), Within(1.5, 1.9), At(Within(1.9, 2.3)), |s| Num(s.tile(4, "") / s.fig4("not tiled"))),

    // Section 4: the walk and the register cliff at `sec4_n`, the tuner at `fig4_n`.
    row("sec4.naive", Value(10.58), Within(8.0, 9.5), Same, |s| Num(s.sec4()[0].gflops)),
    row("sec4.tiled", Value(46.49), Within(36.0, 40.0), Same, |s| Num(s.sec4()[1].gflops)),
    row("sec4.unrolled", Value(91.14), Within(84.0, 91.0), At(Within(74.0, 81.0)), |s| Num(s.sec4()[2].gflops)),
    row("sec4.prefetch", Value(87.10), Within(86.0, 94.0), At(Within(82.0, 89.0)), |s| Num(s.sec4()[3].gflops)),
    row("sec4.naive_bottleneck", Says("bandwidth-bound"), Is("MemoryBandwidth"), Same,
        |s| Text(format!("{:?}", s.sec4()[0].bottleneck))),
    row("sec4.naive_required_gbps", Value(173.0), Above(86.4), Same, |s| Num(s.sec4()[0].required_bw)),
    row("sec4.tiling_ratio", Value(4.39), Within(4.0, 5.0), At(Above(2.5)), |s| Num(s.sec4()[1].gflops / s.sec4()[0].gflops)),
    row("sec4.tiled_issue_bound", Value(43.2), Within(37.0, 40.0), Same, |s| Num(s.sec4()[1].issue_bound)),
    row("sec4.unroll_ratio", Value(1.96), Within(2.1, 2.5), At(Above(1.7)), |s| Num(s.sec4()[2].gflops / s.sec4()[1].gflops)),
    row("sec4.unrolled_issue_bound", Value(93.72), Within(89.0, 94.0), Same, |s| Num(s.sec4()[2].issue_bound)),
    row("sec4.unrolled_bottleneck", Says("issue-bound"), Is("InstructionIssue"), Same,
        |s| Text(format!("{:?}", s.sec4()[2].bottleneck))),
    // Deviation: the sign of the prefetch delta (the paper's prefetch step loses 4.4 %).
    row("sec4.deviation_prefetch", Value(0.956), Within(1.0, 1.05), At(Within(0.9, 1.15)),
        |s| Num(s.sec4()[3].gflops / s.sec4()[2].gflops)),
    row("sec4.cliff_10_regs", Value(3.0), Equals(3.0), Same, |s| Num(s.cliff().0.blocks_per_sm as f64)),
    row("sec4.cliff_11_regs", Value(2.0), Equals(2.0), Same, |s| Num(s.cliff().1.blocks_per_sm as f64)),
    // Deviation: the lost block costs this issue-bound kernel little.
    row("sec4.deviation_cliff_cost", Says("two blocks reduce performance"), Within(0.95, 1.02), Same,
        |s| Num(s.cliff().0.gflops / s.cliff().1.gflops)),
    row("sec6.tuner_optimum", Says("16x16 register tiling, as in [22]"), Is("16x16 tiled+register tiling"), Same,
        |s| Text(s.local_max().2.clone())),
    row("sec6.tuner_gflops", Recon(110.0), Within(95.0, 110.0), At(Above(50.0)), |s| Num(s.local_max().3)),
    row("sec6.local_max_gap", Says("local maxima significantly lower"), Below(0.5), At(Below(0.7)),
        |s| Num(s.local_max().1 / s.local_max().3)),
    row("sec6.local_max_rolled", Says("a tile-only strategy stalls"), Is("8x8 tiled"), At(Is("12x12 tiled")),
        |s| Text(s.local_max().0.clone())),

    // Tables 2 and 3: the suite at its scale, then MatMul at `sec4_n`.
    row("table2.apps", Value(13.0), Equals(13.0), Same, |s| Num(s.table3().len() as f64)),
    row("table3.max_rel_error", Says("GPU output matches the CPU"), Below(1e-2), Same,
        |s| Num(max(s.table3().iter().map(|r| f64::from(r.max_rel_error))))),
    row("table3.slowest_kernel", Value(10.5), Within(8.0, 12.0), At(Above(1.0)),
        |s| Num(min(s.table3().iter().map(AppReport::kernel_speedup)))),
    row("table3.fastest_kernel", Value(457.0), Within(250.0, 400.0), Same,
        |s| Num(max(s.table3().iter().map(AppReport::kernel_speedup)))),
    row("table3.tier_gap", Recon(8.2), Within(5.0, 9.0), At(Above(2.0)),
        |s| Num(min(["MRI-Q", "MRI-FHD", "CP", "RPES"].map(|a| s.speedup(a))) / max(["LBM", "FEM", "FDTD"].map(|a| s.speedup(a))))),
    row("table3.mriq_over_mrifhd", Recon(1.45), Above(1.0), Same, |s| Num(s.speedup("MRI-Q") / s.speedup("MRI-FHD"))),
    row("table3.fdtd_slowest", Says("FDTD's kernel speedup is the lowest"), Below(1.0), FullOnly,
        |s| Num(s.speedup("FDTD") / min(s.table3()[..12].iter().filter(|r| r.name != "FDTD").map(AppReport::kernel_speedup)))),
    row("table3.fdtd_app", Value(1.16), Within(1.0, 1.25), At(Below(1.25)), |s| Num(s.app("FDTD").app_speedup())),
    row("table3.h264_app", Recon(1.47), Within(1.3, 1.6), Same, |s| Num(s.app("H.264 (SAD)").app_speedup())),
    // Our PNS keeps its state in registers, so it is not memory-bound (DESIGN.md §2).
    row("table3.memory_bound", Says("LBM, FEM, PNS, SAXPY, FDTD"), Is("LBM, FEM, SAXPY, FDTD"), FullOnly,
        |s| Text(s.memory_bound())),
    // Deviations: TPACF's binning and fast-math trig favour the model CPU; CP's value is the least certain.
    row("table3.deviation_tpacf", Recon(60.2), Within(12.0, 18.0), FullOnly, |s| Num(s.speedup("TPACF"))),
    row("table3.deviation_cp", Recon(102.0), Within(200.0, 300.0), Same, |s| Num(s.speedup("CP"))),
    row("table3.deviation_rpes_app", Recon(79.0), Within(10.0, 16.0), Same, |s| Num(s.app("RPES").app_speedup())),
    row("table3.deviation_mriq_app", Recon(431.0), Within(140.0, 210.0), At(Below(431.0)), |s| Num(s.app("MRI-Q").app_speedup())),
    row("table3.deviation_mrifhd_app", Recon(263.0), Within(85.0, 130.0), At(Below(263.0)), |s| Num(s.app("MRI-FHD").app_speedup())),

    // Figure 5 at `fig5`: growth factors from AoS to SoA to staged SoA.
    row("fig5.coalesced_rises", Says("coalesced accesses replace scattered ones"), Above(1.0), Same,
        |s| Num(min(s.fig5_steps(|r| r.coalesced_half_warps)))),
    row("fig5.uncoalesced_falls", Says("AoS loads scatter per lane"), Below(1.0), Same,
        |s| Num(max(s.fig5_steps(|r| r.uncoalesced_half_warps)))),
    row("fig5.dram_falls", Says("coalescing cuts traffic"), Below(1.0), Same, |s| Num(max(s.fig5_steps(|r| r.dram_bytes)))),
    row("fig5.cycles_fall", Says("and time"), Below(1.0), Same, |s| Num(max(s.fig5_steps(|r| r.cycles)))),

    // Section 5 ablations. Deviations: one-word pixels coalesce better than the original's
    // byte-packed frames, and only the rotate instructions are counted.
    row("sec5.sad_texture", Value(2.8), Within(1.5, 1.9), Same, |s| Num(s.ablations()[0])),
    row("sec5.mri_sfu_share", Value(0.3), Within(0.2, 0.35), Same, |s| Num(1.0 - 1.0 / s.ablations()[1])),
    row("sec5.rc5_rotate", Says("several times higher"), Within(1.4, 3.0), Same, |s| Num(s.ablations()[2])),

    // Architecture shift (Section 6 future work) at `fig4_n`: 8800 GTX, GTS, GT200-class.
    row("arch.optimum_stays", Says("preserve performance across shifts"), Equals(3.0), Same,
        |s| Num(s.arch().iter().filter(|r| r.best.contains("16x16")).count() as f64)),
    row("arch.naive_recovers", Says("assumptions drift"), Above(1.5), Same, |s| Num(s.naive_share(2) / s.naive_share(0))),
    row("arch.gts_slower", Says("12 SMs at 1.2 GHz"), Below(1.0), Same, |s| Num(s.best(1) / s.best(0))),
    row("arch.gt200_faster", Says("30 SMs at 1.296 GHz"), Above(1.0), Same, |s| Num(s.best(2) / s.best(0))),
];

/// Every study's output at one scale. Each study runs on first use and is
/// kept for the life of the process, so rows (and tests) that read the same
/// study share one run.
struct Studies {
    scale: Scale,
    fig4: OnceLock<Vec<Fig4Row>>,
    sec4: OnceLock<Vec<Sec4Step>>,
    cliff: OnceLock<(Sec4Step, Sec4Step)>,
    /// Stuck-at label and GFLOPS, then the tuner's optimum.
    local_max: OnceLock<(String, f64, String, f64)>,
    table3: OnceLock<Vec<AppReport>>,
    fig5: OnceLock<Vec<Fig5Row>>,
    /// SAD texture, MRI-Q SFU and RC5 rotate gains.
    ablations: OnceLock<[f64; 3]>,
    arch: OnceLock<Vec<ArchResult>>,
}

impl Studies {
    const fn new(scale: Scale) -> Studies {
        Studies {
            scale,
            fig4: OnceLock::new(),
            sec4: OnceLock::new(),
            cliff: OnceLock::new(),
            local_max: OnceLock::new(),
            table3: OnceLock::new(),
            fig5: OnceLock::new(),
            ablations: OnceLock::new(),
            arch: OnceLock::new(),
        }
    }

    /// The process's studies at `scale`.
    fn at(scale: Scale) -> &'static Studies {
        static SMALL: Studies = Studies::new(Scale::Small);
        static FULL: Studies = Studies::new(Scale::Full);
        match scale {
            Scale::Small => &SMALL,
            Scale::Full => &FULL,
        }
    }

    fn fig4_rows(&self) -> &[Fig4Row] {
        let n = self.scale.fig4_n();
        self.fig4.get_or_init(|| matmul_study::figure4(n))
    }

    fn sec4(&self) -> &[Sec4Step] {
        let n = self.scale.sec4_n();
        self.sec4.get_or_init(|| matmul_study::section4(n))
    }

    fn cliff(&self) -> &(Sec4Step, Sec4Step) {
        let n = self.scale.sec4_n();
        self.cliff.get_or_init(|| matmul_study::register_cliff(n))
    }

    fn local_max(&self) -> &(String, f64, String, f64) {
        let n = self.scale.fig4_n();
        self.local_max
            .get_or_init(|| matmul_study::local_maximum_demo(n))
    }

    /// The suite, then MatMul at `sec4_n`.
    fn table3(&self) -> &[AppReport] {
        self.table3.get_or_init(|| {
            let mut table3 = suite::run_suite(self.scale);
            table3.push(suite::matmul_row(self.scale.sec4_n()));
            table3
        })
    }

    fn fig5(&self) -> &[Fig5Row] {
        let (n, steps) = self.scale.fig5();
        self.fig5.get_or_init(|| ablations::figure5(n, steps))
    }

    fn ablations(&self) -> &[f64; 3] {
        self.ablations.get_or_init(|| {
            let gains = [
                ablations::sad_texture(),
                ablations::mri_sfu(),
                ablations::rc5_rotate(),
            ];
            gains.map(|(_, _, gain)| gain)
        })
    }

    fn arch(&self) -> &[ArchResult] {
        let n = self.scale.fig4_n();
        self.arch.get_or_init(|| arch_study::run(n))
    }

    fn fig4(&self, label: &str) -> f64 {
        let row = self.fig4_rows().iter().find(|r| r.label == label);
        row.unwrap_or_else(|| panic!("no Figure 4 row {label}"))
            .gflops
    }

    fn tile(&self, t: u32, suffix: &str) -> f64 {
        self.fig4(&format!("{t}x{t} tiled{suffix}"))
    }

    fn app(&self, name: &str) -> &AppReport {
        let app = self.table3().iter().find(|r| r.name == name);
        app.unwrap_or_else(|| panic!("no Table 3 row {name}"))
    }

    fn speedup(&self, name: &str) -> f64 {
        self.app(name).kernel_speedup()
    }

    /// The apps `repro table3` groups under a memory bottleneck.
    fn memory_bound(&self) -> String {
        let groups = suite::bottleneck_groups(self.table3()).into_iter();
        let memory = groups.filter(|(b, _)| b.starts_with("Memory"));
        memory
            .flat_map(|(_, apps)| apps)
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// How `count` grows from each Figure 5 layout to the next.
    fn fig5_steps(&self, count: fn(&Fig5Row) -> u64) -> [f64; 2] {
        [0, 1].map(|i| count(&self.fig5()[i + 1]) as f64 / count(&self.fig5()[i]) as f64)
    }

    fn best(&self, arch: usize) -> f64 {
        max(self.arch()[arch].results.iter().map(|r| r.1))
    }

    /// The naive kernel's share of the best configuration on one machine.
    fn naive_share(&self, arch: usize) -> f64 {
        let naive = self.arch()[arch]
            .results
            .iter()
            .find(|r| r.0 == "not tiled");
        naive.expect("the naive kernel is swept").1 / self.best(arch)
    }
}

fn min(xs: impl IntoIterator<Item = f64>) -> f64 {
    xs.into_iter().fold(f64::INFINITY, f64::min)
}

fn max(xs: impl IntoIterator<Item = f64>) -> f64 {
    xs.into_iter().fold(f64::NEG_INFINITY, f64::max)
}

/// The paper value of row `id`, for the renderers' paper columns.
pub fn paper(id: &str) -> f64 {
    match row_by_id(id).paper {
        Value(v) | Recon(v) => v,
        other => panic!("fidelity row {id} has no paper number: {other:?}"),
    }
}

impl Bound {
    fn holds(&self, m: &Measured) -> bool {
        match (*self, m) {
            (Above(b), Num(x)) => *x > b,
            (Below(b), Num(x)) => *x < b,
            (Within(lo, hi), Num(x)) => (lo..=hi).contains(x),
            (Equals(b), Num(x)) => *x == b,
            (Is(b), Text(t)) => t == b,
            _ => false,
        }
    }
}

/// The report line for `row` and whether it held; `checked` is the measured
/// value and the bound it was held to, `None` for a Full-only row in a
/// `Scale::Small` run (skipped).
fn line(row: &Row, checked: Option<(Measured, Bound)>) -> (String, Option<bool>) {
    let (id, paper) = (row.id, format!("{:?}", row.paper));
    let Some((m, bound)) = checked else {
        return (
            format!("- {id:<30} paper {paper:<50} skipped: Full only"),
            None,
        );
    };
    let held = bound.holds(&m);
    let mark = if held { "✓" } else { "✗" };
    let m = match m {
        Num(x) if x != 0.0 && x.abs() < 1e-2 => format!("{x:.1e}"),
        Num(x) => format!("{x:.3}"),
        Text(t) => t,
    };
    let text = format!("{mark} {id:<30} paper {paper:<50} measured {m:<28} bound {bound:?}");
    (text, Some(held))
}

impl Row {
    /// The bound the row is held to at `scale`; `None` when it is Full only
    /// and `scale` is Small.
    fn bound_at(&self, scale: Scale) -> Option<Bound> {
        match (scale, self.small) {
            (Scale::Full, _) | (_, Same) => Some(self.bound),
            (_, At(b)) => Some(b),
            (_, FullOnly) => None,
        }
    }
}

fn row_by_id(id: &str) -> &'static Row {
    let row = ROWS.iter().find(|r| r.id == id);
    row.unwrap_or_else(|| panic!("no fidelity row {id}"))
}

/// Runs every study once at `scale` and checks every row. Returns one line
/// per row plus a tally, and whether every checked row held: `repro
/// fidelity` exits 1 when one did not.
pub fn evaluate(scale: Scale) -> (String, bool) {
    check(scale, ROWS)
}

/// Checks only the rows `ids` at `scale`, running only the studies they
/// read. Panics on an unknown id.
pub fn evaluate_rows(scale: Scale, ids: &[&str]) -> (String, bool) {
    check(scale, ids.iter().map(|id| row_by_id(id)))
}

/// Holds `x`, the quantity of row `id` measured outside the studies, to the
/// row's bound at `scale`.
pub fn check_value(scale: Scale, id: &str, x: f64) -> (String, bool) {
    let row = row_by_id(id);
    report(&[line(row, row.bound_at(scale).map(|b| (Num(x), b)))])
}

fn check<'a>(scale: Scale, rows: impl IntoIterator<Item = &'a Row>) -> (String, bool) {
    let studies = Studies::at(scale);
    let check = |r: &Row| line(r, r.bound_at(scale).map(|b| ((r.measure)(studies), b)));
    report(&rows.into_iter().map(check).collect::<Vec<_>>())
}

/// Asserts rows `ids` at `Scale::Small`: how each study's own tests read the
/// table.
#[cfg(test)]
pub(crate) fn assert_rows(ids: &[&str]) {
    let (text, passed) = evaluate_rows(Scale::Small, ids);
    assert!(passed, "fidelity rows failed at Scale::Small:\n{text}");
}

fn report(lines: &[(String, Option<bool>)]) -> (String, bool) {
    let mut s: String = lines.iter().map(|(text, _)| format!("{text}\n")).collect();
    let failed = lines.iter().filter(|l| l.1 == Some(false)).count();
    let skipped = lines.iter().filter(|l| l.1.is_none()).count();
    let n = lines.len();
    s.push_str(&format!(
        "{n} rows: {failed} failed, {skipped} skipped (Full only)\n"
    ));
    (s, failed == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_row_holds_at_small_scale() {
        let (text, passed) = evaluate(Scale::Small);
        assert!(passed, "fidelity rows failed at Scale::Small:\n{text}");
    }

    #[test]
    fn a_row_outside_its_bound_fails_loudly() {
        let row = ROWS.iter().find(|r| r.id == "sec4.tiling_ratio").unwrap();
        let (text, passed) = report(&[line(row, Some((Num(4.4), row.bound))), line(row, None)]);
        assert!(passed, "{text}");
        let (text, passed) = report(&[line(row, Some((Num(1.25), row.bound)))]);
        assert!(!passed);
        let parts = [
            "✗ sec4.tiling_ratio",
            "Value(4.39)",
            "measured 1.250",
            "Within(4.0, 5.0)",
            "1 failed",
        ];
        for part in parts {
            assert!(text.contains(part), "{part:?} missing from\n{text}");
        }
    }
}
