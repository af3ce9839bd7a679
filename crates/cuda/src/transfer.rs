//! The PCI-Express transfer model.
//!
//! CUDA 0.8-era measurements on PCIe x16 (Gen 1) put effective pageable
//! host↔device throughput near 1.35 GB/s with a per-call overhead of some
//! tens of microseconds. The paper's Table 3 contrasts kernel time with
//! transfer time — H.264 famously "spends more time in data transfer than
//! GPU execution" — so the model has to charge both terms.

/// PCIe link model.
#[derive(Clone, Debug)]
pub(crate) struct PcieModel {
    /// Effective throughput in GB/s.
    pub gbps: f64,
    /// Fixed per-transfer overhead in seconds (driver + DMA setup).
    pub overhead_s: f64,
}

impl Default for PcieModel {
    fn default() -> Self {
        PcieModel {
            gbps: 1.35,
            overhead_s: 20e-6,
        }
    }
}

impl PcieModel {
    /// Time to move `bytes` across the link.
    pub(crate) fn transfer_time(&self, bytes: u64) -> f64 {
        self.overhead_s + bytes as f64 / (self.gbps * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_dominates_small_transfers() {
        let p = PcieModel::default();
        let small = p.transfer_time(64);
        assert!(small < 21e-6 && small > 20e-6);
    }

    #[test]
    fn bandwidth_dominates_large_transfers() {
        let p = PcieModel::default();
        // 64 MB at 1.35 GB/s ≈ 47 ms.
        let t = p.transfer_time(64 << 20);
        assert!((t - 0.0497).abs() < 0.003, "got {t}");
    }

    #[test]
    fn monotone_in_size() {
        let p = PcieModel::default();
        assert!(p.transfer_time(1000) < p.transfer_time(2000));
    }
}
