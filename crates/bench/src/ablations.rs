//! Figure 5 and the Section 5 ablation experiments: LBM access patterns,
//! SAD texture vs global, MRI SFU vs polynomial trig, RC5 native vs
//! emulated rotate.

use g80_apps::lbm::{Layout, Lbm};
use g80_apps::mriq::MriQ;
use g80_apps::rc5::Rc5;
use g80_apps::sad::SadApp;

/// One bar of the Figure 5 comparison.
#[derive(Clone, Debug)]
pub struct Fig5Row {
    pub label: &'static str,
    pub coalesced_half_warps: u64,
    pub uncoalesced_half_warps: u64,
    pub dram_bytes: u64,
    pub cycles: u64,
    pub mlups: f64,
}

/// Runs the LBM layout study (Figure 5: "LBM global load access patterns").
pub fn figure5(n: u32, steps: u32) -> Vec<Fig5Row> {
    let l = Lbm { n, steps };
    let f0 = l.initial_state();
    let layouts = [Layout::Aos, Layout::Soa, Layout::SoaStaged];
    // The three layout runs are independent; evaluate them as pool tasks.
    let runs = g80_sim::pool::run_tasks(
        layouts
            .iter()
            .map(|&layout| {
                let (l, f0) = (&l, &f0);
                move || l.run(f0, layout).1
            })
            .collect(),
    );
    layouts
        .into_iter()
        .zip(runs)
        .map(|(layout, s)| Fig5Row {
            label: layout.label(),
            coalesced_half_warps: s.coalesced_half_warps,
            uncoalesced_half_warps: s.uncoalesced_half_warps,
            dram_bytes: s.global_bytes,
            cycles: s.cycles,
            mlups: (n as f64 * n as f64 * steps as f64) / (s.elapsed * 1e6),
        })
        .collect()
}

pub fn render_figure5(rows: &[Fig5Row]) -> String {
    let mut s = String::new();
    s.push_str("Figure 5: LBM global load/store access patterns\n");
    s.push_str(&format!(
        "{:<34} {:>10} {:>12} {:>12} {:>10} {:>8}\n",
        "layout", "coalesced", "uncoalesced", "DRAM bytes", "cycles", "MLUP/s"
    ));
    for r in rows {
        s.push_str(&format!(
            "{:<34} {:>10} {:>12} {:>12} {:>10} {:>8.1}\n",
            r.label,
            r.coalesced_half_warps,
            r.uncoalesced_half_warps,
            r.dram_bytes,
            r.cycles,
            r.mlups
        ));
    }
    s
}

/// SAD: texture vs global reference-frame reads (paper: 2.8×).
pub fn sad_texture() -> (f64, f64, f64) {
    let app = SadApp::default();
    let (cur, reff) = app.generate(3);
    let (_, g, _) = app.run(&cur, &reff, false);
    let (_, t, _) = app.run(&cur, &reff, true);
    let gain = g.cycles as f64 / t.cycles as f64;
    (g.elapsed * 1e3, t.elapsed * 1e3, gain)
}

/// MRI-Q: SFU trig vs polynomial trig on the SPs (paper: SFUs are ~30% of
/// the speedup). Returns (sfu_ms, poly_ms, gain).
pub fn mri_sfu() -> (f64, f64, f64) {
    let m = MriQ {
        n_voxels: 1 << 13,
        n_k: 512,
    };
    let d = m.generate(4);
    let (_, _, sfu, _) = m.run(&d, true);
    let (_, _, poly, _) = m.run(&d, false);
    (
        sfu.elapsed * 1e3,
        poly.elapsed * 1e3,
        poly.cycles as f64 / sfu.cycles as f64,
    )
}

/// RC5: emulated vs native rotate (Section 5.1's missing modulus-shift).
/// Returns (emulated_ms, native_ms, gain).
pub fn rc5_rotate() -> (f64, f64, f64) {
    let r = Rc5 {
        n_keys: 1 << 14,
        ..Default::default()
    };
    let (_, emu, _) = r.run(false);
    let (_, nat, _) = r.run(true);
    (
        emu.elapsed * 1e3,
        nat.elapsed * 1e3,
        emu.cycles as f64 / nat.cycles as f64,
    )
}

#[cfg(test)]
mod tests {
    use crate::fidelity::assert_rows;

    #[test]
    fn figure5_gradient() {
        assert_rows(&[
            "fig5.coalesced_rises",
            "fig5.uncoalesced_falls",
            "fig5.dram_falls",
            "fig5.cycles_fall",
        ]);
    }

    #[test]
    fn ablation_gains_in_range() {
        assert_rows(&["sec5.sad_texture", "sec5.mri_sfu_share", "sec5.rc5_rotate"]);
    }
}
