//! The CPU baseline cost model.
//!
//! The paper's speedups compare CUDA kernels on the GeForce 8800 against
//! tuned single-thread code on an **Opteron 248 (2.2 GHz, 1 GB memory)** —
//! 2008-era silicon. Running the references natively on a 2026 host would
//! distort every ratio, so speedups are computed against a calibrated
//! roofline model of that CPU instead: time is the maximum of the
//! floating-point, integer-issue, transcendental, and memory-bandwidth
//! components. Reference implementations still run natively for
//! *correctness* checking (see `g80-apps`).
//!
//! Calibration notes (documented in EXPERIMENTS.md): the Opteron 248
//! sustains ~1 f32 FLOP/cycle scalar and ~4 FLOPs/cycle with hand-tuned
//! SSE2; DDR333 dual-channel delivers ~4.5 GB/s streaming; `sinf`/`cosf`
//! via libm cost roughly 110 cycles (≈40 with fast-math approximations —
//! the paper applied "SIMD instructions and fast math libraries" to keep
//! comparisons fair).

/// Work performed by a CPU implementation, counted over the whole problem.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuWork {
    /// f32 arithmetic operations (FMA counts as 2).
    pub flops: f64,
    /// Transcendental calls (sin/cos/exp/sqrt-class).
    pub trig_ops: f64,
    /// Bytes that must move through the memory hierarchy (beyond cache).
    pub bytes: f64,
    /// Non-FP instructions (addressing, control).
    pub int_ops: f64,
}

/// Roofline model of a single-core CPU.
#[derive(Clone, Debug)]
pub struct CpuModel {
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// Sustained f32 FLOPs per cycle, scalar code.
    pub flops_per_cycle_scalar: f64,
    /// Sustained f32 FLOPs per cycle with SSE2 (the paper's tuned baselines).
    pub flops_per_cycle_simd: f64,
    /// Streaming memory bandwidth in GB/s.
    pub mem_gbps: f64,
    /// Cycles per libm transcendental call.
    pub trig_cycles_libm: f64,
    /// Cycles per fast-math transcendental.
    pub trig_cycles_fast: f64,
    /// Sustained non-FP instructions per cycle.
    pub int_ipc: f64,
}

/// Baseline tuning levels the paper used for CPU comparisons.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum CpuTuning {
    /// Plain scalar code, libm math.
    Scalar,
    /// SSE2 vectorization + fast math ("we applied optimizations such as
    /// SIMD instructions and fast math libraries to the CPU-only versions").
    SimdFastMath,
}

impl CpuModel {
    /// The paper's baseline: Opteron 248, 2.2 GHz, 1 GB memory.
    pub fn opteron_248() -> Self {
        CpuModel {
            clock_ghz: 2.2,
            flops_per_cycle_scalar: 1.0,
            flops_per_cycle_simd: 4.0,
            mem_gbps: 4.5,
            trig_cycles_libm: 110.0,
            trig_cycles_fast: 40.0,
            int_ipc: 2.0,
        }
    }

    /// Predicted single-thread execution time for `work` at the given tuning
    /// level.
    pub fn time(&self, work: &CpuWork, tuning: CpuTuning) -> f64 {
        let hz = self.clock_ghz * 1e9;
        let (fpc, trig_cycles) = match tuning {
            CpuTuning::Scalar => (self.flops_per_cycle_scalar, self.trig_cycles_libm),
            CpuTuning::SimdFastMath => (self.flops_per_cycle_simd, self.trig_cycles_fast),
        };
        let t_flop = work.flops / (fpc * hz);
        let t_trig = work.trig_ops * trig_cycles / hz;
        let t_mem = work.bytes / (self.mem_gbps * 1e9);
        let t_int = work.int_ops / (self.int_ipc * hz);
        // FP and trig share the FP pipes (additive); memory and integer issue
        // overlap with them (roofline max).
        (t_flop + t_trig).max(t_mem).max(t_int)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_numbers() {
        let m = CpuModel::opteron_248();
        // Peak GFLOPS per tuning level: 2.2 scalar, 8.8 with SSE2.
        assert!((m.flops_per_cycle_scalar * m.clock_ghz - 2.2).abs() < 1e-9);
        assert!((m.flops_per_cycle_simd * m.clock_ghz - 8.8).abs() < 1e-9);
    }

    #[test]
    fn compute_bound_work_scales_with_flops() {
        let m = CpuModel::opteron_248();
        let w = CpuWork {
            flops: 8.8e9,
            ..Default::default()
        };
        // 8.8 GFLOP at 8.8 GFLOPS = 1 s.
        assert!((m.time(&w, CpuTuning::SimdFastMath) - 1.0).abs() < 1e-9);
        // Scalar is 4x slower.
        assert!((m.time(&w, CpuTuning::Scalar) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn memory_bound_work_hits_bandwidth_roof() {
        let m = CpuModel::opteron_248();
        let w = CpuWork {
            flops: 1e6,
            bytes: 4.5e9,
            ..Default::default()
        };
        assert!((m.time(&w, CpuTuning::SimdFastMath) - 1.0).abs() < 1e-3);
    }

    #[test]
    fn trig_dominates_mri_like_work() {
        let m = CpuModel::opteron_248();
        let w = CpuWork {
            flops: 1e8,
            trig_ops: 1e8,
            ..Default::default()
        };
        let libm = m.time(&w, CpuTuning::Scalar);
        let fast = m.time(&w, CpuTuning::SimdFastMath);
        // fast-math helps a lot, but trig still dominates raw flops.
        assert!(libm > 2.0 * fast);
        assert!(fast > 1e8 / (8.8e9));
    }
}
