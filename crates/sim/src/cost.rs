//! What each kind of memory access costs (the paper's Principle 3), one rule
//! per kind, stated once: coalescing and bank conflicts by a definitional
//! form over one half-warp, with the lane and shaped-row forms that shortcut
//! it beside it; constant broadcast, the constant and texture line caches,
//! per-lane spills and atomics, and the per-SM DRAM channel.

use crate::config::GpuConfig;
use g80_isa::row::{for_each_affine_lane, AffineTerms};

/// Result of analysing one half-warp's global access.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HalfWarpAccess {
    /// Whether the access met the CC 1.0 coalescing rules.
    pub coalesced: bool,
    /// Number of memory transactions issued.
    pub transactions: u32,
    /// Total bytes moved.
    pub bytes: u64,
}

/// Applies the GeForce 8800 (compute capability 1.0) coalescing rules to one
/// half-warp of byte addresses (`None` = inactive lane).
///
/// The access coalesces into a single transaction iff every active lane `k`
/// accesses word `k` of one aligned 16-word (64 B) segment. Anything else —
/// permuted, misaligned, strided, or broadcast — issues a separate
/// transaction per distinct address (duplicates optionally combined,
/// paper footnote 4) at DRAM burst granularity.
pub fn coalesce_half_warp(cfg: &GpuConfig, addrs: &[Option<u32>; 16]) -> HalfWarpAccess {
    let mut lanes = [0u32; 16];
    let mut act = [0u32; 16];
    let mut n = 0usize;
    for (i, a) in addrs.iter().enumerate() {
        if let Some(a) = *a {
            lanes[n] = i as u32;
            act[n] = a;
            n += 1;
        }
    }
    if n == 0 {
        return HalfWarpAccess {
            coalesced: true,
            transactions: 0,
            bytes: 0,
        };
    }

    // Segment base from any active lane: lane k at word k of the segment.
    let base = act[0].wrapping_sub(lanes[0] * 4);
    let aligned = base % (cfg.coalesced_txn_bytes) == 0;
    let coalesced = aligned && (0..n).all(|k| act[k] == base + lanes[k] * 4);

    if coalesced {
        HalfWarpAccess {
            coalesced: true,
            transactions: 1,
            bytes: cfg.coalesced_txn_bytes as u64,
        }
    } else {
        let mut distinct = n as u32;
        if cfg.combine_duplicates {
            let s = &mut act[..n];
            s.sort_unstable();
            distinct = 1;
            for k in 1..n {
                if s[k] != s[k - 1] {
                    distinct += 1;
                }
            }
        }
        HalfWarpAccess {
            coalesced: false,
            transactions: distinct,
            bytes: distinct as u64 * cfg.uncoalesced_txn_bytes as u64,
        }
    }
}

/// The shared-memory bank of byte address `a` (by mask for a power-of-two
/// bank count, every preset's).
#[inline]
fn bank(cfg: &GpuConfig, a: u32) -> u32 {
    match cfg.smem_banks {
        n if n.is_power_of_two() => (a / 4) & (n - 1),
        n => (a / 4) % n,
    }
}

/// Computes the bank-conflict degree of one half-warp of shared-memory byte
/// addresses: the maximum number of *distinct* addresses mapping to one bank
/// (identical addresses broadcast for free on G80).
pub fn smem_conflict_degree(cfg: &GpuConfig, addrs: &[Option<u32>; 16]) -> u32 {
    // The bank of each distinct address, taken at its first lane.
    let (mut banks, mut n) = ([0u32; 16], 0);
    for (l, &a) in addrs.iter().enumerate() {
        if let Some(a) = a.filter(|&a| !addrs[..l].contains(&Some(a))) {
            banks[n] = bank(cfg, a);
            n += 1;
        }
    }
    let banks = &banks[..n];
    let sharing = |b: &u32| banks.iter().filter(|&x| x == b).count() as u32;
    banks.iter().map(sharing).max().unwrap_or(0).max(1)
}

/// The active lanes of half-warp `h` (0 or 1) of a warp's address row, as
/// the definitional forms take them.
#[inline]
pub(crate) fn half_warp(addrs: &[u32; 32], mask: u32, h: usize) -> [Option<u32>; 16] {
    std::array::from_fn(|l| (mask >> (16 * h + l) & 1 == 1).then_some(addrs[16 * h + l]))
}

/// Bank-conflict degree of a warp's shared access given lane by lane: the
/// worse of its two half-warps, each equal to [`smem_conflict_degree`] on
/// the active lanes of `addrs` under `mask`. A half whose active lanes all
/// hit different banks — the conflict-free case: no lane's bank bit is
/// already in the OR of those before it — has degree 1 without the
/// distinct-address scan. Past 64 banks the bits fold (`bank mod 64`), so a
/// shared bit only sends the half to the scan.
#[inline]
pub fn smem_degree_lanes(cfg: &GpuConfig, addrs: &[u32; 32], mask: u32) -> u32 {
    let degree = |h: usize| {
        let (mut banks, mut live) = (0u64, mask >> (16 * h) & 0xffff);
        while live != 0 {
            let bit = 1u64 << (bank(cfg, addrs[16 * h + live.trailing_zeros() as usize]) % 64);
            if banks & bit != 0 {
                return smem_conflict_degree(cfg, &half_warp(addrs, mask, h));
            }
            banks |= bit;
            live &= live - 1;
        }
        1
    };
    degree(0).max(degree(1))
}

/// The two terms that vary *within* one half-warp of a shaped address row,
/// as `(stride, lanes per run, step, runs per half)`: a half-warp is `16/p`
/// runs of `p` lanes, so at `p = 16` the step (which separates the halves)
/// drops out.
#[inline]
fn half_lattice(t: &AffineTerms) -> (u32, u32, u32, u32) {
    debug_assert!(
        t.log2p == 4 || t.step != t.stride << t.log2p,
        "1-D row below p = 16: not canonical"
    );
    let (p, runs) = (1u32 << t.log2p, 16u32 >> t.log2p);
    (t.stride, p, if runs == 1 { 0 } else { t.step }, runs)
}

/// Whether `term·d ≠ 0 (mod 2^32)` for every `1 ≤ d ≤ 15`: lanes stepping by
/// `term` then never wrap onto each other within a half-warp. True iff the
/// term's 2-adic valuation is below 29.
#[inline]
fn steps_stay_distinct(term: u32) -> bool {
    term.trailing_zeros() < 29
}

/// The number of distinct addresses in one half-warp of the lattice
/// `stride·j + step·r` (`j < p`, `r < runs`), or `None` when that is not
/// evident without looking at them. One zero term leaves the other term's
/// `p` or `runs` points; with both nonzero the 16 points are distinct when
/// the runs — or, transposed, the columns — are disjoint intervals that do
/// not wrap (every row-major or column-major tile walk).
#[inline]
fn lattice_distinct(stride: u32, p: u32, step: u32, runs: u32) -> Option<u32> {
    match (stride, step) {
        (0, 0) => Some(1),
        (0, term) => steps_stay_distinct(term).then_some(runs),
        (term, 0) => steps_stay_distinct(term).then_some(p),
        _ => {
            let (along, across) = (
                stride as u64 * (p - 1) as u64,
                step as u64 * (runs - 1) as u64,
            );
            let disjoint = along < step as u64 || across < stride as u64;
            (disjoint && along + across <= u32::MAX as u64).then_some(16)
        }
    }
}

/// Closed-form CC 1.0 coalescing for one *full* half-warp (`half` 0 or 1) of
/// a warp whose address row has the canonical shape `t` (see
/// [`g80_isa::LaneRow::affine`]): `16/p` runs of `p` lanes, the half
/// starting at `base + step·(16/p)·half`. Returns `None` when no closed form
/// applies (the caller falls back to the per-lane scan); `Some(acc)` is
/// bit-identical to [`coalesce_half_warp`] on the expanded addresses.
///
/// Derivation (DESIGN.md §15): the coalesced pattern requires
/// `addr_k = seg + 4k` with `seg` aligned, and matching lane 1 already
/// forces `stride == 4`; lane `p` then forces `step == 4p`, a 1-D row, which
/// the canonical form holds at `p = 16` — so the access coalesces iff
/// `p == 16`, `stride == 4` and the half's base is a multiple of
/// `coalesced_txn_bytes`. Anything else issues one transaction per lane, or
/// per distinct address ([`lattice_distinct`]) when duplicates combine.
#[inline]
pub fn coalesce_affine_half(cfg: &GpuConfig, t: &AffineTerms, half: u32) -> Option<HalfWarpAccess> {
    let (stride, p, step, runs) = half_lattice(t);
    let base = t.base.wrapping_add(t.step.wrapping_mul(runs * half));
    if p == 16 && stride == 4 && base.is_multiple_of(cfg.coalesced_txn_bytes) {
        return Some(HalfWarpAccess {
            coalesced: true,
            transactions: 1,
            bytes: cfg.coalesced_txn_bytes as u64,
        });
    }
    let distinct = if cfg.combine_duplicates {
        lattice_distinct(stride, p, step, runs)?
    } else {
        16
    };
    Some(HalfWarpAccess {
        coalesced: false,
        transactions: distinct,
        bytes: distinct as u64 * cfg.uncoalesced_txn_bytes as u64,
    })
}

/// The first `live` lanes of a shaped row, expanded, and their mask.
fn affine_lanes(t: &AffineTerms, live: u32) -> ([u32; 32], u32) {
    let mut addrs = [0; 32];
    for_each_affine_lane(*t, live as usize, |l, a| addrs[l] = a);
    (addrs, ((1u64 << live) - 1) as u32)
}

/// Coalescing of both half-warps of an undiverged warp whose address row
/// has the shape `t` and whose first `live` lanes exist: equal to
/// [`coalesce_half_warp`] on each half's expanded addresses. Whole
/// half-warps take the closed form ([`coalesce_affine_half`]) and a wholly
/// dead hi half (a 16-thread block) issues nothing; where no closed form
/// applies, or the last half-warp is only partly live, the addresses are
/// generated from the terms and scanned.
///
/// The terms go by reference all the way down: copying the four fields
/// out of wherever the caller assembled them is the slow step of an
/// otherwise constant-time answer.
#[inline]
pub fn coalesce_affine_warp(cfg: &GpuConfig, t: &AffineTerms, live: u32) -> [HalfWarpAccess; 2] {
    #[inline(never)]
    fn scan(cfg: &GpuConfig, t: &AffineTerms, live: u32) -> [HalfWarpAccess; 2] {
        let (addrs, mask) = affine_lanes(t, live);
        [0, 1].map(|h| coalesce_half_warp(cfg, &half_warp(&addrs, mask, h)))
    }
    if live.is_multiple_of(16) {
        let hi = match live {
            16 => Some(coalesce_half_warp(cfg, &[None; 16])),
            _ => coalesce_affine_half(cfg, t, 1),
        };
        if let (Some(lo), Some(hi)) = (coalesce_affine_half(cfg, t, 0), hi) {
            return [lo, hi];
        }
    }
    scan(cfg, t, live)
}

/// Closed-form shared-memory bank-conflict degree for a *full* half-warp of
/// a canonical shaped address row. `None` means no closed form applies (the
/// caller falls back to the scan); `Some(d)` is bit-identical to
/// [`smem_conflict_degree`] on the expanded addresses, for *any*
/// base — so one evaluation covers both halves of a warp.
///
/// With 16 banks and word-multiple terms `4v`, `4w`, lane `(j, r)` of the
/// half hits bank `(base/4 + v·j + w·r) mod 16`. Once the addresses are
/// pairwise distinct ([`lattice_distinct`]) the degree is the fullest bank.
/// One nonzero term `4w` over `n` lanes (`n = 16` at `p = 16`; `p` or `16/p`
/// below it, the other term broadcasting) spreads them over
/// `min(n, 16/gcd(w, 16))` banks: degree `max(1, n·gcd(w mod 16, 16)/16)`,
/// with `w ≡ 0 (mod 16)` putting all `n` in one bank. `As[ty][k]` of a
/// `p`-wide tile is `{·, 0, 4·pitch}` — `16/p` broadcasts — and `Bs[k][tx]`
/// is `{·, 4, 0}` — `p` words each read `16/p` times: degree 1 both. Two
/// nonzero terms are counted over the `p × 16/p` lattice, sixteen bank
/// increments. Non-word terms fall back.
#[inline]
pub fn smem_degree_affine(cfg: &GpuConfig, t: &AffineTerms) -> Option<u32> {
    let (stride, p, step, runs) = half_lattice(t);
    if cfg.smem_banks != 16 || !stride.is_multiple_of(4) || !step.is_multiple_of(4) {
        return None;
    }
    // The counts below take pairwise-distinct addresses for granted.
    lattice_distinct(stride, p, step, runs)?;
    let words = |term: u32| term / 4 % 16;
    // gcd(w, 16) is 2 to the number of trailing zeros of w, at most 4.
    let one_term = |term: u32, n: u32| ((n << (term / 4).trailing_zeros().min(4)) / 16).max(1);
    Some(match (stride, step) {
        (0, 0) => 1,
        (0, term) => one_term(term, runs),
        (term, 0) => one_term(term, p),
        _ => {
            let mut per_bank = [0u32; 16];
            for r in 0..runs {
                for j in 0..p {
                    per_bank[((words(stride) * j + words(step) * r) % 16) as usize] += 1;
                }
            }
            per_bank.into_iter().max().unwrap_or(1)
        }
    })
}

/// Bank-conflict degree of an undiverged warp's shared access whose address
/// row has the shape `t` over its first `live` lanes: the worse of the two
/// half-warps, equal to [`smem_conflict_degree`] on each half's
/// expanded addresses. Whole half-warps share one closed form
/// ([`smem_degree_affine`]); otherwise the addresses are generated from the
/// terms and scanned (out of line, as in [`coalesce_affine_warp`]).
#[inline]
pub fn smem_degree_affine_warp(cfg: &GpuConfig, t: &AffineTerms, live: u32) -> u32 {
    #[inline(never)]
    fn scan(cfg: &GpuConfig, t: &AffineTerms, live: u32) -> u32 {
        let (addrs, mask) = affine_lanes(t, live);
        smem_degree_lanes(cfg, &addrs, mask)
    }
    if live.is_multiple_of(16) {
        if let Some(degree) = smem_degree_affine(cfg, t) {
            return degree;
        }
    }
    scan(cfg, t, live)
}

/// The bytes a warp local (spill) access or global atomic moves: one
/// uncoalesced transaction per active lane.
#[inline]
pub(crate) fn lane_bytes(cfg: &GpuConfig, mask: u32) -> u32 {
    mask.count_ones() * cfg.uncoalesced_txn_bytes
}

/// Issue cycles beyond the first that `n` serialized accesses of one warp
/// hold the port: a constant load's distinct addresses, an atomic's lanes.
#[inline]
pub(crate) fn serialized_cycles(n: usize) -> u64 {
    2 * n.saturating_sub(1) as u64
}

/// A request of `bytes` at `cycle` through an SM's slice of the DRAM channel
/// (an even share of the bandwidth, next free at `*chan_free`): the cycle it
/// completes, one global latency after the slice takes it.
#[inline]
pub(crate) fn dram_request(cfg: &GpuConfig, cycle: u64, chan_free: &mut u64, bytes: u64) -> u64 {
    let start = cycle.max(*chan_free);
    let service = (bytes as f64 / cfg.dram_bytes_per_cycle_per_sm()).ceil() as u64;
    *chan_free = start + service;
    start + cfg.global_latency
}

/// The first byte address of the texture-cache line holding global byte
/// address `addr`: a warp fetch looks each distinct line up once.
#[inline]
pub(crate) fn tex_line(cfg: &GpuConfig, addr: u32) -> u32 {
    addr - addr % cfg.tex_line_bytes
}

/// A direct-mapped per-SM cache model (tags only — data comes from the
/// backing store functionally). Used for both the constant and texture
/// caches.
pub struct TagCache {
    line_bytes: u32,
    tags: Vec<u64>,
}

impl TagCache {
    /// A cache of `size_bytes` capacity with `line_bytes` lines.
    pub fn new(size_bytes: u32, line_bytes: u32) -> Self {
        let lines = (size_bytes / line_bytes).max(1) as usize;
        TagCache {
            line_bytes,
            tags: vec![u64::MAX; lines],
        }
    }

    /// An SM's constant cache: 64 B lines.
    pub(crate) fn constant(cfg: &GpuConfig) -> Self {
        TagCache::new(cfg.const_cache_bytes, 64)
    }

    /// An SM's texture cache.
    pub(crate) fn texture(cfg: &GpuConfig) -> Self {
        TagCache::new(cfg.tex_cache_bytes, cfg.tex_line_bytes)
    }

    /// Looks up the line containing `addr`, filling on miss. Returns true on
    /// hit.
    pub fn access(&mut self, addr: u32) -> bool {
        let line = (addr / self.line_bytes) as u64;
        let set = (line as usize) % self.tags.len();
        if self.tags[set] == line {
            true
        } else {
            self.tags[set] = line;
            false
        }
    }

    /// One warp's lookups of `addrs`, in order, each filling its line on a
    /// miss: the hits, the misses, and the bytes the fills move from DRAM.
    pub(crate) fn lookup(&mut self, addrs: &[u32]) -> (u64, u64, u64) {
        let hits = addrs.iter().filter(|&&a| self.access(a)).count() as u64;
        let misses = addrs.len() as u64 - hits;
        (hits, misses, misses * self.line_bytes as u64)
    }

    /// The resident line tag of every set (`u64::MAX` = never filled): the
    /// cache's complete state, for callers that must tell whether two
    /// instants see the same cache ([`crate::sm`]'s period detector).
    pub fn tags(&self) -> &[u64] {
        &self.tags
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;

    fn cfg() -> GpuConfig {
        GpuConfig::geforce_8800_gtx()
    }

    fn lanes(addrs: &[u32]) -> [Option<u32>; 16] {
        let mut a = [None; 16];
        for (i, &x) in addrs.iter().enumerate() {
            a[i] = Some(x);
        }
        a
    }

    /// Two half-warps as the engine holds a warp's addresses: one row and
    /// the mask of its active lanes.
    fn warp_of(lo: &[Option<u32>; 16], hi: &[Option<u32>; 16]) -> ([u32; 32], u32) {
        let lane = |l: usize| if l < 16 { lo[l] } else { hi[l - 16] };
        let addrs = std::array::from_fn(|l| lane(l).unwrap_or(0xdead_beef));
        let mask = (0..32)
            .filter(|&l| lane(l).is_some())
            .fold(0, |m, l| m | 1 << l);
        (addrs, mask)
    }

    /// One purpose-built address pattern per closed form, each checked
    /// against the scan it replaces: every period, both halves, every live
    /// prefix a block shape can produce.
    #[test]
    fn affine_closed_forms_match_scans() {
        // Deterministic LCG sweep over (base, stride, step, p) rows, plus
        // targeted edges. Bases and steps stay below 2^30 / (32/p) so the
        // scan's non-wrapping coalesced check cannot overflow in debug
        // builds on any run (the closed form is specified against the
        // release-mode wrapping scan).
        let mut configs = vec![cfg()];
        let mut alt = cfg();
        alt.combine_duplicates = !alt.combine_duplicates;
        configs.push(alt);
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        let mut cases: Vec<(u32, u32, u32, u8)> = Vec::new();
        for _ in 0..6000 {
            let log2p = 1 + (next() >> 33) as u8 % 4;
            // Mix aligned bases (so the coalesced verdict is reachable on
            // either half) with arbitrary ones.
            let r = next();
            let base = ((r >> 33) as u32 & 0x3fff_ffff) & if r & 1 == 0 { !63 } else { !0 };
            // Mix small strides (the interesting regime: zero, words, the
            // bank-aliasing multiples of 64) with arbitrary ones.
            let r = next();
            let stride = match r & 3 {
                0 => ((r >> 40) as u32) & 0xff,
                1 => ((r >> 40) as u32 & 0x1f) * 4,
                2 => ((r >> 40) as u32 & 3) * 64,
                _ => (r >> 32) as u32 & 0x7fff_ffff,
            };
            // The step relations real kernels produce: the 1-D continuation,
            // a run restart, a tile or row pitch in words, a pitch that
            // aliases banks, an arbitrary offset.
            let r = next();
            let step = match r & 7 {
                0 => (stride << log2p) & 0x03ff_ffff,
                1 => 0,
                2 | 3 => ((r >> 40) as u32 & 0x3f) * 4,
                4 => ((r >> 40) as u32 & 0xfff) * 64,
                5 => ((r >> 40) as u32 & 0xff) * 4 + 4 * stride,
                _ => (r >> 32) as u32 & 0x03ff_ffff,
            };
            cases.push((base, stride, step, log2p));
        }
        for s in [
            0,
            4,
            8,
            12,
            16,
            64,
            1,
            2,
            3,
            60,
            68,
            1 << 29,
            1 << 30,
            3 << 28,
        ] {
            for b in [0, 4, 64, 60, 0x1000, 0x1004, 0x3fff_0000] {
                for log2p in 1..=4u8 {
                    for step in [0, 4, 16, 20, 64, 1024, 1028, 1 << 29, s << log2p] {
                        cases.push((b, s, step & 0x03ff_ffff, log2p));
                    }
                }
            }
        }
        let (mut global_closed, mut smem_closed, mut narrow_closed) = (0, 0, 0);
        for c in &configs {
            for &(base, stride, step, log2p) in &cases {
                // Through the canonicalizing constructor, as every address
                // row the engine sees is.
                let t = g80_isa::LaneRow::affine(base, stride, step, log2p)
                    .terms()
                    .unwrap();
                // Each lane from its terms, independently of the shared walk.
                let lanes: [u32; 32] = std::array::from_fn(|l| t.lane(l as u32));
                let label = format!("{t:?} combine={}", c.combine_duplicates);
                for live in [4usize, 8, 16, 24, 32] {
                    let halves: [[Option<u32>; 16]; 2] = std::array::from_fn(|h| {
                        std::array::from_fn(|k| (16 * h + k < live).then(|| lanes[16 * h + k]))
                    });
                    let (addrs, mask) = affine_lanes(&t, live as u32);
                    let split = [0, 1].map(|h| half_warp(&addrs, mask, h));
                    assert_eq!(halves, split, "{label}");
                    let scans = halves.map(|half| coalesce_half_warp(c, &half));
                    let got = coalesce_affine_warp(c, &t, live as u32);
                    assert_eq!(got, scans, "global live={live} {label}");
                    let want = halves
                        .map(|half| smem_conflict_degree(c, &half))
                        .into_iter()
                        .max()
                        .unwrap();
                    let got = smem_degree_affine_warp(c, &t, live as u32);
                    assert_eq!(got, want, "smem live={live} {label}");
                }
                // The closed forms themselves, on whole half-warps.
                let (addrs, mask) = affine_lanes(&t, 32);
                let halves = [0, 1].map(|h| half_warp(&addrs, mask, h));
                for (h, half) in halves.iter().enumerate() {
                    if let Some(got) = coalesce_affine_half(c, &t, h as u32) {
                        let want = coalesce_half_warp(c, half);
                        assert_eq!(got, want, "global half {h} {label}");
                        global_closed += 1;
                        narrow_closed += (t.log2p < 4) as u32;
                    }
                    if let Some(got) = smem_degree_affine(c, &t) {
                        let want = smem_conflict_degree(c, half);
                        assert_eq!(got, want, "smem half {h} {label}");
                        smem_closed += 1;
                    }
                }
            }
        }
        // The sweep must exercise the forms, not only their refusals.
        let total = 4 * cases.len() as u32;
        assert!(global_closed > total / 2, "{global_closed} of {total}");
        assert!(smem_closed > total / 8, "{smem_closed} of {total}");
        assert!(narrow_closed > total / 4, "{narrow_closed} of {total}");
    }

    #[test]
    fn affine_closed_form_known_answers() {
        let c = cfg();
        let mut combining = cfg();
        combining.combine_duplicates = true;
        let row = |base, stride, step, p: u32| {
            g80_isa::LaneRow::affine(base, stride, step, p.trailing_zeros() as u8)
                .terms()
                .unwrap()
        };
        let linear = AffineTerms::linear;
        // Unit word stride, aligned: the coalesced fast case.
        let r = coalesce_affine_half(&c, &linear(0x1000, 4), 0).unwrap();
        assert!(r.coalesced);
        assert_eq!(r.transactions, 1);
        // Unit word stride, misaligned: 16 transactions.
        let r = coalesce_affine_half(&c, &linear(0x1004, 4), 1).unwrap();
        assert!(!r.coalesced);
        assert_eq!(r.transactions, 16);
        // The hi half of a 16-wide tile row starts one pitch further on.
        let tile = row(0x1000, 4, 1024 + 4, 16);
        assert!(coalesce_affine_half(&c, &tile, 0).unwrap().coalesced);
        assert!(!coalesce_affine_half(&c, &tile, 1).unwrap().coalesced);
        // Broadcast: one combined transaction where duplicates combine.
        let r = coalesce_affine_half(&c, &linear(0x1000, 0), 0).unwrap();
        assert_eq!(r.transactions, 16);
        let r = coalesce_affine_half(&combining, &linear(0x1000, 0), 0).unwrap();
        assert_eq!(r.transactions, 1);
        // Collision-prone stride falls back where duplicates matter.
        assert!(coalesce_affine_half(&combining, &linear(0, 1 << 29), 0).is_none());
        assert!(coalesce_affine_half(&combining, &linear(0, 1 << 31), 0).is_none());
        // An 8-wide tile's rows A[ty][tx]: two runs of eight words, a pitch
        // apart — never coalesced, sixteen transactions; a row broadcast
        // A[ty][k] is two addresses, a column B[k][tx] eight.
        let a = row(0x1000, 4, 1024, 8);
        for (cfg, want) in [(&c, [16, 16, 16]), (&combining, [16, 2, 8])] {
            for (t, want) in [a, row(0x1000, 0, 1024, 8), row(0x1000, 4, 0, 8)]
                .into_iter()
                .zip(want)
            {
                let r = coalesce_affine_half(cfg, &t, 1).unwrap();
                assert!(!r.coalesced);
                assert_eq!(r.transactions, want, "{t:?}");
            }
        }
        // Overlapping runs (pitch shorter than a run) need the scan.
        assert!(coalesce_affine_half(&combining, &row(0, 4, 8, 8), 0).is_none());
        // A 4x4 block is one half-warp: the hi half issues nothing.
        let [lo, hi] = coalesce_affine_warp(&c, &row(0x1000, 4, 256, 4), 16);
        assert_eq!((lo.transactions, hi.transactions, hi.bytes), (16, 0, 0));
        // Shared: broadcast 1, word stride 1, 2-word stride 2, 16-word 16.
        assert_eq!(smem_degree_affine(&c, &linear(0, 0)), Some(1));
        assert_eq!(smem_degree_affine(&c, &linear(0, 4)), Some(1));
        assert_eq!(smem_degree_affine(&c, &linear(0, 8)), Some(2));
        assert_eq!(smem_degree_affine(&c, &linear(0, 64)), Some(16));
        assert_eq!(smem_degree_affine(&c, &linear(0, 2)), None); // sub-word stride
                                                                 // The tiled matmul's reads at p = 4 and 8: As[ty][k] broadcasts per
                                                                 // row, Bs[k][tx] reads p words — conflict-free both.
        for p in [4, 8] {
            assert_eq!(smem_degree_affine(&c, &row(8, 0, 4 * p, p)), Some(1));
            assert_eq!(smem_degree_affine(&c, &row(8, 4, 0, p)), Some(1));
        }
        // Rows a bank-aliasing pitch apart collide run against run...
        assert_eq!(smem_degree_affine(&c, &row(0, 0, 64, 4)), Some(4));
        assert_eq!(smem_degree_affine(&c, &row(0, 0, 32, 4)), Some(2));
        assert_eq!(smem_degree_affine(&c, &row(0, 4, 64, 4)), Some(4));
        assert_eq!(smem_degree_affine(&c, &row(0, 4, 64, 8)), Some(2));
        // ...and a pitch of 4 (mod 16) words tiles the banks exactly.
        assert_eq!(smem_degree_affine(&c, &row(0, 4, 80, 4)), Some(1));
        assert_eq!(smem_degree_affine(&c, &row(0, 4, 20, 4)), Some(2));
    }

    #[test]
    fn contiguous_aligned_coalesces() {
        let a: Vec<u32> = (0..16).map(|i| 0x1000 + i * 4).collect();
        let r = coalesce_half_warp(&cfg(), &lanes(&a));
        assert!(r.coalesced);
        assert_eq!(r.transactions, 1);
        assert_eq!(r.bytes, 64);
    }

    #[test]
    fn partial_half_warp_still_coalesces() {
        // Only 8 active lanes, but each at its own word slot.
        let mut a = [None; 16];
        for i in 0..8 {
            a[i] = Some(0x2000 + (i as u32) * 4);
        }
        let r = coalesce_half_warp(&cfg(), &a);
        assert!(r.coalesced);
        assert_eq!(r.transactions, 1);
    }

    #[test]
    fn misaligned_contiguous_does_not_coalesce() {
        // Contiguous but shifted by one word: 16 separate transactions on
        // CC 1.0 — the classic 16x penalty.
        let a: Vec<u32> = (0..16).map(|i| 0x1004 + i * 4).collect();
        let r = coalesce_half_warp(&cfg(), &lanes(&a));
        assert!(!r.coalesced);
        assert_eq!(r.transactions, 16);
        assert_eq!(r.bytes, 16 * cfg().uncoalesced_txn_bytes as u64);
    }

    #[test]
    fn permuted_does_not_coalesce() {
        let mut a: Vec<u32> = (0..16).map(|i| 0x1000 + i * 4).collect();
        a.swap(0, 1);
        let r = coalesce_half_warp(&cfg(), &lanes(&a));
        assert!(!r.coalesced);
        assert_eq!(r.transactions, 16);
    }

    #[test]
    fn strided_pays_per_lane() {
        // Stride-2 words: every active lane its own transaction.
        let a: Vec<u32> = (0..16).map(|i| 0x1000 + i * 8).collect();
        let r = coalesce_half_warp(&cfg(), &lanes(&a));
        assert!(!r.coalesced);
        assert_eq!(r.transactions, 16);
    }

    #[test]
    fn broadcast_combines_when_enabled() {
        // Footnote-4 combining is available as a model option…
        let mut c = cfg();
        c.combine_duplicates = true;
        let a = vec![0x1000u32; 16];
        let r = coalesce_half_warp(&c, &lanes(&a));
        assert!(!r.coalesced);
        assert_eq!(r.transactions, 1);
        assert_eq!(r.bytes, c.uncoalesced_txn_bytes as u64);
    }

    #[test]
    fn broadcast_serializes_by_default() {
        // …but the calibrated CC 1.0 default issues one transaction per
        // active lane, duplicates included.
        let a = vec![0x1000u32; 16];
        let r = coalesce_half_warp(&cfg(), &lanes(&a));
        assert_eq!(r.transactions, 16);
    }

    #[test]
    fn inactive_half_warp_is_free() {
        let r = coalesce_half_warp(&cfg(), &[None; 16]);
        assert_eq!(r.transactions, 0);
        assert_eq!(r.bytes, 0);
    }

    #[test]
    fn bank_conflicts() {
        let c = cfg();
        // All 16 lanes hit distinct banks: degree 1.
        let a: Vec<u32> = (0..16).map(|i| i * 4).collect();
        assert_eq!(smem_conflict_degree(&c, &lanes(&a)), 1);
        // Stride-2 words: 8 banks each hit by 2 distinct addrs: degree 2.
        let a: Vec<u32> = (0..16).map(|i| i * 8).collect();
        assert_eq!(smem_conflict_degree(&c, &lanes(&a)), 2);
        // Stride-16 words: all in bank 0: degree 16.
        let a: Vec<u32> = (0..16).map(|i| i * 64).collect();
        assert_eq!(smem_conflict_degree(&c, &lanes(&a)), 16);
        // Same address everywhere: broadcast, degree 1.
        let a = vec![128u32; 16];
        assert_eq!(smem_conflict_degree(&c, &lanes(&a)), 1);
    }

    #[test]
    fn mixed_half_warp_scattered_lanes_coalesce_at_their_slots() {
        // Active lanes 1, 5, 12 each at word k of the segment: coalesces.
        let mut a = [None; 16];
        for lane in [1usize, 5, 12] {
            a[lane] = Some(0x4000 + (lane as u32) * 4);
        }
        let r = coalesce_half_warp(&cfg(), &a);
        assert!(r.coalesced);
        assert_eq!(r.transactions, 1);

        // One of them off its slot breaks the whole half-warp.
        a[5] = Some(0x4000 + 6 * 4);
        let r = coalesce_half_warp(&cfg(), &a);
        assert!(!r.coalesced);
        assert_eq!(r.transactions, 3);
    }

    #[test]
    fn unaligned_segment_base_never_coalesces() {
        // A single active lane whose implied segment base is not 64 B
        // aligned: lane 0 at 0x1010 puts the base mid-segment.
        let mut a = [None; 16];
        a[0] = Some(0x1010);
        let r = coalesce_half_warp(&cfg(), &a);
        assert!(!r.coalesced);
        assert_eq!(r.transactions, 1);
        assert_eq!(r.bytes, cfg().uncoalesced_txn_bytes as u64);
    }

    /// The bank rule by its definition, one list of distinct addresses per
    /// bank: what the allocation-free [`smem_conflict_degree`] is held to.
    fn degree_by_bank_lists(cfg: &GpuConfig, addrs: &[Option<u32>; 16]) -> u32 {
        let nbanks = cfg.smem_banks as usize;
        let mut per_bank: Vec<Vec<u32>> = vec![Vec::new(); nbanks];
        for a in addrs.iter().flatten() {
            let bank = ((a / 4) as usize) % nbanks;
            if !per_bank[bank].contains(a) {
                per_bank[bank].push(*a);
            }
        }
        per_bank
            .iter()
            .map(|v| v.len() as u32)
            .max()
            .unwrap_or(0)
            .max(1)
    }

    /// `smem_degree_lanes` (its conflict-free fast path and its fallback) is
    /// the definitional per-half degree, and that is the count by bank
    /// lists: on random half-warps and on broadcast, duplicate, 2- to
    /// 16-way-conflict and partly inactive ones, for 16, 32, a
    /// non-power-of-two and a beyond-64 bank count.
    #[test]
    fn lanes_degree_matches_the_definitional_form() {
        let mut state = 0x9e37_79b9u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for nbanks in [16u32, 32, 24, 96] {
            let c = GpuConfig {
                smem_banks: nbanks,
                ..cfg()
            };
            let stride = 4 * nbanks;
            let mut halves: Vec<[Option<u32>; 16]> = vec![
                [None; 16],
                [Some(0x40); 16],
                lanes(&(0..16).map(|i| 0x100 + i * 4).collect::<Vec<_>>()),
                lanes(&(0..16).map(|i| 0x100 + (i / 2) * 4).collect::<Vec<_>>()),
            ];
            // k lanes in one bank at distinct addresses, the rest spread
            // over the other banks; then each with a duplicate folded in.
            for k in 2..=16u32 {
                let h: Vec<u32> = (0..16)
                    .map(|i| if i < k { i * stride } else { 4 * (i - k + 1) })
                    .collect();
                halves.push(lanes(&h));
                let mut dup = lanes(&h);
                dup[15] = dup[0];
                halves.push(dup);
            }
            for _ in 0..400 {
                let window = [nbanks, 4 * nbanks, 1 << 20][next() as usize % 3];
                halves.push(std::array::from_fn(|_| {
                    let a = (next() % window) * 4 + [0, 1, 2][next() as usize % 3];
                    (next() % 4 != 0).then_some(a)
                }));
            }
            // Every half, with random lanes switched off, in either slot.
            for (i, half) in halves.iter().enumerate() {
                let off = next() & next();
                let thinned: [Option<u32>; 16] =
                    std::array::from_fn(|l| half[l].filter(|_| off >> l & 1 == 0));
                let other = &halves[(i * 7 + 3) % halves.len()];
                for (lo, hi) in [(half, other), (other, half), (&thinned, half)] {
                    let (addrs, mask) = warp_of(lo, hi);
                    let [lo_degree, hi_degree] = [lo, hi].map(|h| smem_conflict_degree(&c, h));
                    for (h, degree) in [(lo, lo_degree), (hi, hi_degree)] {
                        assert_eq!(degree, degree_by_bank_lists(&c, h), "{nbanks} banks: {h:?}");
                    }
                    let want = lo_degree.max(hi_degree);
                    assert_eq!(
                        smem_degree_lanes(&c, &addrs, mask),
                        want,
                        "{nbanks} banks: {lo:?} {hi:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn tag_cache_eviction_is_per_set() {
        let mut c = TagCache::new(128, 32); // 4 direct-mapped lines
        assert!(!c.access(0)); // set 0 cold
        assert!(!c.access(32)); // set 1 cold
        assert!(!c.access(128)); // set 0 conflict, evicts line 0
        assert!(c.access(128 + 28)); // line 4 now resident in set 0
        assert!(c.access(32)); // set 1 untouched by set 0 eviction
        assert!(!c.access(0)); // line 0 was indeed evicted
    }

    #[test]
    fn tag_cache_behaviour() {
        let mut c = TagCache::new(128, 32); // 4 lines
        assert!(!c.access(0)); // cold miss
        assert!(c.access(4)); // same line
        assert!(!c.access(128)); // maps to set 0, evicts
        assert!(!c.access(0)); // conflict miss
    }
}
