//! Canonical little-endian binary encoding shared by everything that
//! serializes simulator state: the persistent disk tier ([`crate::disk`]),
//! the serializable [`crate::LaunchReport`], and the `g80-serve` wire
//! protocol.
//!
//! The encoding rules are the disk tier's (PR 7), promoted to a shared
//! module so three serializers cannot drift apart:
//!
//! * all integers little-endian; `f64` as its IEEE bit pattern;
//! * strings length-prefixed (u64) UTF-8;
//! * HashMap-backed fields written sorted by their dense key index, so
//!   equal values serialize to equal bytes regardless of iteration order
//!   (canonical form — re-encoding a decoded value reproduces the input
//!   bytes exactly);
//! * decoding is strict: short input, an unknown enum tag, or non-UTF-8
//!   string bytes all return `None` rather than a best-effort value.
//!
//! [`encode_stats`]/[`decode_stats`] carry a full [`KernelStats`]
//! (including the `pub(crate)` machine-constant fields, which is why this
//! codec must live inside `g80-sim`). Any change to that encoding must
//! bump [`crate::disk`]'s `FORMAT_VERSION` *and* the serve protocol
//! version — both formats embed these bytes.

use crate::counters::{KernelStats, StallReason};
use g80_isa::InstClass;
use std::collections::HashMap;

/// Byte-appending encoder over a plain `Vec<u8>`.
pub struct Enc(pub Vec<u8>);

impl Enc {
    /// A fresh encoder with `cap` bytes preallocated.
    pub fn with_capacity(cap: usize) -> Self {
        Enc(Vec::with_capacity(cap))
    }
    pub fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    pub fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    pub fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    pub fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    pub fn i32(&mut self, v: i32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.0.extend_from_slice(s.as_bytes());
    }
    pub fn bytes(&mut self, b: &[u8]) {
        self.0.extend_from_slice(b);
    }
}

/// Strict slice-consuming decoder; every accessor returns `None` on short
/// or malformed input and consumes nothing it did not validate.
pub struct Dec<'a>(pub &'a [u8]);

impl<'a> Dec<'a> {
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.0.len() < n {
            return None;
        }
        let (head, tail) = self.0.split_at(n);
        self.0 = tail;
        Some(head)
    }
    pub fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }
    pub fn u16(&mut self) -> Option<u16> {
        self.take(2)
            .map(|b| u16::from_le_bytes(b.try_into().unwrap()))
    }
    pub fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    }
    pub fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }
    pub fn i32(&mut self) -> Option<i32> {
        self.take(4)
            .map(|b| i32::from_le_bytes(b.try_into().unwrap()))
    }
    pub fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }
    pub fn str(&mut self) -> Option<String> {
        let len = self.u64()?;
        let bytes = self.take(usize::try_from(len).ok()?)?;
        String::from_utf8(bytes.to_vec()).ok()
    }
    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.0.len()
    }
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `bytes` —
/// the checksum the `g80-serve` framed protocol appends to every frame
/// payload so a corrupted frame is detected before it reaches the strict
/// decoders above (which would otherwise report corruption as `Malformed`
/// only when a length field happens to go out of range). Slicing-by-8:
/// eight input bytes per step through eight compile-time tables, so the
/// serial dependency is one table-lookup latency per eight bytes instead
/// of per byte (every payload byte is summed four times per served round
/// trip). Portable, no dependencies.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !0u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ c;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

/// `CRC_TABLES[0]` is the classic bytewise table of the reflected
/// polynomial; `CRC_TABLES[k][i]` is the CRC state after byte `i` is
/// followed by `k` zero bytes, which is what lets [`crc32`] fold eight
/// bytes with eight independent lookups.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xff) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
}

fn stall_from_u8(v: u8) -> Option<StallReason> {
    use StallReason::*;
    Some(match v {
        0 => Memory,
        1 => AluDependency,
        2 => Barrier,
        3 => IssueBusy,
        4 => Drain,
        _ => return None,
    })
}

/// Serializes a full [`KernelStats`] in the canonical field order. The
/// disk tier appends its sparse write-delta after these bytes; other
/// consumers embed them as-is.
pub fn encode_stats(e: &mut Enc, stats: &KernelStats) {
    e.str(&stats.name);
    e.u64(stats.cycles);
    e.f64(stats.elapsed);
    e.u64(stats.warp_instructions);
    e.u64(stats.thread_instructions);
    e.u64(stats.flops);
    e.u64(stats.global_ld_transactions);
    e.u64(stats.global_st_transactions);
    e.u64(stats.global_bytes);
    e.u64(stats.coalesced_half_warps);
    e.u64(stats.uncoalesced_half_warps);
    e.u64(stats.smem_conflict_extra_cycles);
    e.u64(stats.divergent_branches);
    e.u64(stats.tex_hits);
    e.u64(stats.tex_misses);
    e.u64(stats.const_hits);
    e.u64(stats.const_misses);
    e.u64(stats.atomic_transactions);
    e.u64(stats.blocks_executed);
    e.u32(stats.regs_per_thread);
    e.u32(stats.smem_per_block);
    e.u32(stats.threads_per_block);
    e.u32(stats.blocks_per_sm);
    e.u32(stats.max_simultaneous_threads);
    e.u64(stats.total_threads);
    e.f64(stats.clock_ghz);
    e.f64(stats.dram_bytes_per_cycle);
    e.u32(stats.num_sms);
    e.u32(stats.max_warps_per_sm);
    e.u32(stats.warp_size);
    let mut classes: Vec<(usize, u64)> = stats
        .by_class
        .iter()
        .map(|(k, v)| (k.index(), *v))
        .collect();
    classes.sort_unstable();
    e.u32(classes.len() as u32);
    for (k, v) in classes {
        e.u32(k as u32);
        e.u64(v);
    }
    let mut stalls: Vec<(u8, u64)> = stats
        .stall_cycles
        .iter()
        .map(|(k, v)| (*k as u8, *v))
        .collect();
    stalls.sort_unstable();
    e.u32(stalls.len() as u32);
    for (k, v) in stalls {
        e.u32(k as u32);
        e.u64(v);
    }
}

/// Decodes a [`KernelStats`] written by [`encode_stats`], leaving any
/// trailing bytes (a disk delta, the rest of a protocol frame) in `d`.
pub fn decode_stats(d: &mut Dec) -> Option<KernelStats> {
    let mut stats = KernelStats {
        name: d.str()?,
        cycles: d.u64()?,
        elapsed: d.f64()?,
        warp_instructions: d.u64()?,
        thread_instructions: d.u64()?,
        flops: d.u64()?,
        by_class: HashMap::new(),
        global_ld_transactions: d.u64()?,
        global_st_transactions: d.u64()?,
        global_bytes: d.u64()?,
        coalesced_half_warps: d.u64()?,
        uncoalesced_half_warps: d.u64()?,
        smem_conflict_extra_cycles: d.u64()?,
        divergent_branches: d.u64()?,
        tex_hits: d.u64()?,
        tex_misses: d.u64()?,
        const_hits: d.u64()?,
        const_misses: d.u64()?,
        atomic_transactions: d.u64()?,
        stall_cycles: HashMap::new(),
        blocks_executed: d.u64()?,
        regs_per_thread: d.u32()?,
        smem_per_block: d.u32()?,
        threads_per_block: d.u32()?,
        blocks_per_sm: d.u32()?,
        max_simultaneous_threads: d.u32()?,
        total_threads: d.u64()?,
        clock_ghz: d.f64()?,
        dram_bytes_per_cycle: d.f64()?,
        num_sms: d.u32()?,
        max_warps_per_sm: d.u32()?,
        warp_size: d.u32()?,
    };
    let n_classes = d.u32()?;
    for _ in 0..n_classes {
        let idx = d.u32()?;
        let v = d.u64()?;
        let class = *InstClass::ALL.get(idx as usize)?;
        stats.by_class.insert(class, v);
    }
    let n_stalls = d.u32()?;
    for _ in 0..n_stalls {
        let idx = d.u32()?;
        let v = d.u64()?;
        let reason = stall_from_u8(u8::try_from(idx).ok()?)?;
        stats.stall_cycles.insert(reason, v);
    }
    Some(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;
    use crate::counters::SmStats;

    fn sample_stats() -> KernelStats {
        let cfg = GpuConfig::geforce_8800_gtx();
        let mut sm = SmStats {
            cycles: 4242,
            warp_instructions: 17,
            thread_instructions: 544,
            flops: 12,
            global_bytes: 1024,
            ..Default::default()
        };
        sm.by_class.insert(InstClass::Fma, 3);
        sm.by_class.insert(InstClass::LdGlobal, 2);
        sm.stall_cycles.insert(StallReason::Memory, 9);
        KernelStats::merge("wire", &cfg, vec![sm], 12, 512, 64, 2, 4)
    }

    #[test]
    fn stats_roundtrip_is_canonical() {
        let stats = sample_stats();
        let mut e = Enc::with_capacity(512);
        encode_stats(&mut e, &stats);
        let mut d = Dec(&e.0);
        let back = decode_stats(&mut d).expect("roundtrip");
        assert!(d.is_empty());
        assert_eq!(stats.name, back.name);
        assert_eq!(stats.cycles, back.cycles);
        assert_eq!(stats.by_class, back.by_class);
        assert_eq!(stats.stall_cycles, back.stall_cycles);
        assert_eq!(stats.clock_ghz.to_bits(), back.clock_ghz.to_bits());
        let mut e2 = Enc::with_capacity(512);
        encode_stats(&mut e2, &back);
        assert_eq!(e.0, e2.0, "re-encoding must reproduce the same bytes");
    }

    #[test]
    fn truncated_stats_decode_to_none() {
        let stats = sample_stats();
        let mut e = Enc::with_capacity(512);
        encode_stats(&mut e, &stats);
        for cut in [0, 1, 8, e.0.len() / 2, e.0.len() - 1] {
            assert!(
                decode_stats(&mut Dec(&e.0[..cut])).is_none(),
                "decode must reject a {cut}-byte prefix"
            );
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check values for CRC-32/IEEE.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        // Single-bit sensitivity: flipping any one bit changes the sum.
        let base = crc32(b"g80-serve frame");
        let mut buf = b"g80-serve frame".to_vec();
        buf[3] ^= 0x01;
        assert_ne!(crc32(&buf), base);
    }

    /// CRC-32/IEEE one bit at a time, written from the polynomial alone
    /// (no tables): the oracle the sliced product is held against.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c ^= b as u32;
            for _ in 0..8 {
                c = (c >> 1) ^ (0xEDB8_8320 & (c & 1).wrapping_neg());
            }
        }
        !c
    }

    fn seeded_bytes(n: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_matches_bitwise_reference_at_every_length_and_offset() {
        let buf = seeded_bytes((1 << 20) + 3 + 8);
        // Every head/tail combination of the 8-byte stride, at every start
        // alignment, then the benchmark's frame sizes and one long input.
        for off in 0..8 {
            for len in 0..=1024 {
                let s = &buf[off..off + len];
                assert_eq!(crc32(s), crc32_bitwise(s), "len {len} at offset {off}");
            }
        }
        for len in [8411, 131_291, (1 << 20) + 3] {
            assert_eq!(crc32(&buf[..len]), crc32_bitwise(&buf[..len]), "len {len}");
        }
    }

    #[test]
    fn crc32_changes_on_every_single_bit_flip() {
        let mut buf = seeded_bytes(512);
        let base = crc32(&buf);
        for i in 0..buf.len() {
            for bit in 0..8 {
                buf[i] ^= 1 << bit;
                assert_ne!(crc32(&buf), base, "byte {i} bit {bit}");
                buf[i] ^= 1 << bit;
            }
        }
        assert_eq!(crc32(&buf), base);
    }

    #[test]
    fn scalar_roundtrips() {
        let mut e = Enc::with_capacity(64);
        e.u8(0xab);
        e.u16(0xbeef);
        e.u32(0xdead_beef);
        e.u64(u64::MAX - 1);
        e.i32(-12345);
        e.f64(-0.5);
        e.str("tenant-π");
        let mut d = Dec(&e.0);
        assert_eq!(d.u8(), Some(0xab));
        assert_eq!(d.u16(), Some(0xbeef));
        assert_eq!(d.u32(), Some(0xdead_beef));
        assert_eq!(d.u64(), Some(u64::MAX - 1));
        assert_eq!(d.i32(), Some(-12345));
        assert_eq!(d.f64(), Some(-0.5));
        assert_eq!(d.str().as_deref(), Some("tenant-π"));
        assert!(d.is_empty());
        assert_eq!(d.u8(), None);
    }
}
