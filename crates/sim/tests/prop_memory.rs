//! Property tests over the memory-system models (DESIGN.md §7): the
//! coalescer's transaction accounting and the bank-conflict model.

use g80_sim::cost::{coalesce_half_warp, smem_conflict_degree};
use g80_sim::GpuConfig;
use proptest::prelude::*;

fn lanes(addrs: &[Option<u32>]) -> [Option<u32>; 16] {
    let mut a = [None; 16];
    for (i, &x) in addrs.iter().enumerate().take(16) {
        a[i] = x;
    }
    a
}

fn arb_half_warp() -> impl Strategy<Value = [Option<u32>; 16]> {
    prop::collection::vec(
        prop::option::weighted(0.8, (0u32..1 << 20).prop_map(|w| w * 4)),
        16,
    )
    .prop_map(|v| lanes(&v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// A coalesced access never moves more bytes than the same addresses
    /// accessed uncoalesced would: coalescing is always worth it.
    #[test]
    fn coalesced_bytes_never_exceed_uncoalesced(hw in arb_half_warp()) {
        let cfg = GpuConfig::geforce_8800_gtx();
        let acc = coalesce_half_warp(&cfg, &hw);
        let active = hw.iter().flatten().count() as u64;
        if acc.coalesced {
            prop_assert!(acc.bytes <= active.max(1) * cfg.uncoalesced_txn_bytes as u64 * 4);
            prop_assert_eq!(acc.transactions, 1);
        } else {
            // One transaction per active lane (strict CC 1.0, no combining).
            prop_assert_eq!(acc.transactions as u64, active);
            prop_assert_eq!(acc.bytes, active * cfg.uncoalesced_txn_bytes as u64);
        }
    }

    /// Transaction count is zero iff no lane is active, and bytes are always
    /// a multiple of the transaction granularity.
    #[test]
    fn accounting_is_consistent(hw in arb_half_warp()) {
        let cfg = GpuConfig::geforce_8800_gtx();
        let acc = coalesce_half_warp(&cfg, &hw);
        let active = hw.iter().flatten().count();
        prop_assert_eq!(acc.transactions == 0, active == 0);
        if acc.transactions > 0 {
            let gran = if acc.coalesced {
                cfg.coalesced_txn_bytes
            } else {
                cfg.uncoalesced_txn_bytes
            } as u64;
            prop_assert_eq!(acc.bytes % gran, 0);
        } else {
            prop_assert_eq!(acc.bytes, 0);
        }
    }

    /// The duplicate-combining option can only reduce transactions/bytes.
    #[test]
    fn combining_never_costs(hw in arb_half_warp()) {
        let strict = GpuConfig::geforce_8800_gtx();
        let mut combining = GpuConfig::geforce_8800_gtx();
        combining.combine_duplicates = true;
        let a = coalesce_half_warp(&strict, &hw);
        let b = coalesce_half_warp(&combining, &hw);
        prop_assert!(b.transactions <= a.transactions);
        prop_assert!(b.bytes <= a.bytes);
        prop_assert_eq!(a.coalesced, b.coalesced);
    }

    /// Bank-conflict degree is bounded by the active-lane count and by the
    /// number of distinct addresses, and a broadcast (all lanes, one
    /// address) is always degree 1.
    #[test]
    fn conflict_degree_bounds(hw in arb_half_warp()) {
        let cfg = GpuConfig::geforce_8800_gtx();
        let d = smem_conflict_degree(&cfg, &hw);
        let active = hw.iter().flatten().count() as u32;
        let distinct = {
            let mut v: Vec<u32> = hw.iter().flatten().copied().collect();
            v.sort_unstable();
            v.dedup();
            v.len() as u32
        };
        prop_assert!(d >= 1);
        prop_assert!(d <= active.max(1));
        prop_assert!(d <= distinct.max(1));
    }

    #[test]
    fn broadcast_is_conflict_free(addr in (0u32..1 << 18).prop_map(|w| w * 4)) {
        let cfg = GpuConfig::geforce_8800_gtx();
        let hw = lanes(&[Some(addr); 16]);
        prop_assert_eq!(smem_conflict_degree(&cfg, &hw), 1);
    }

    /// Identity access (lane k -> word k of an aligned segment) always
    /// coalesces, for any aligned base.
    #[test]
    fn identity_pattern_always_coalesces(base in (0u32..1 << 16).prop_map(|s| s * 64)) {
        let cfg = GpuConfig::geforce_8800_gtx();
        let addrs: Vec<Option<u32>> = (0..16).map(|k| Some(base + k * 4)).collect();
        let acc = coalesce_half_warp(&cfg, &lanes(&addrs));
        prop_assert!(acc.coalesced);
    }
}
