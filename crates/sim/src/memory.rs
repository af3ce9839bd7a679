//! Device memory — global words, the read-only constant bank, the texture
//! binding — and the `Words` view a warp memory row moves through.
//!
//! Global memory is stored as `AtomicU32` words so the 16 SM simulation
//! threads can execute concurrently in safe Rust; kernels that follow the
//! CUDA consistency rules (no data races between blocks except via atomics)
//! observe exactly the values they would on hardware. All accesses are
//! 4-byte words at byte addresses.

use crate::digest::{word_digest, Mix128};
use g80_isa::Value;
use std::hash::Hasher;
use std::sync::atomic::{AtomicU32, Ordering};

/// Device global memory plus the read-only constant bank and an optional
/// texture binding.
pub struct DeviceMemory {
    words: Vec<AtomicU32>,
    /// Constant bank contents (read-only during kernels).
    pub const_bank: Vec<u32>,
    /// Texture binding: (base byte address, length in bytes) into global
    /// memory. Texture fetches address this window.
    pub tex_binding: Option<(u32, u32)>,
}

impl DeviceMemory {
    /// Creates a device memory of `bytes` bytes (rounded up to a word).
    pub fn new(bytes: u32) -> Self {
        let words = (bytes as usize).div_ceil(4);
        let mut v = Vec::with_capacity(words);
        v.resize_with(words, || AtomicU32::new(0));
        DeviceMemory {
            words: v,
            const_bank: Vec::new(),
            tex_binding: None,
        }
    }

    /// Size in bytes.
    pub fn len_bytes(&self) -> u32 {
        (self.words.len() * 4) as u32
    }

    /// Reads the word at a byte address.
    #[inline]
    pub fn read(&self, addr: u32) -> Value {
        self.try_read(addr)
            .unwrap_or_else(|| global_out_of_bounds("read", addr))
    }

    /// Writes the word at a byte address.
    #[inline]
    pub fn write(&self, addr: u32, v: Value) {
        if !self.try_write(addr, v) {
            global_out_of_bounds("write", addr)
        }
    }

    /// [`Self::read`] for callers that report the address themselves:
    /// `None` outside memory.
    #[inline]
    pub(crate) fn try_read(&self, addr: u32) -> Option<Value> {
        let cell = self.words.get((addr / 4) as usize)?;
        Some(Value(cell.load(Ordering::Relaxed)))
    }

    /// [`Self::write`] for callers that report the address themselves:
    /// `false`, writing nothing, outside memory.
    #[inline]
    pub(crate) fn try_write(&self, addr: u32, v: Value) -> bool {
        match self.words.get((addr / 4) as usize) {
            Some(cell) => cell.store(v.0, Ordering::Relaxed),
            None => return false,
        }
        true
    }

    /// Whether the `len` words from word index `word` on all lie in memory.
    #[inline]
    pub(crate) fn holds(&self, word: u32, len: usize) -> bool {
        self.cells(word as usize, len).is_some()
    }

    /// The `len` words from word index `word` on into `dst`, with one range
    /// check for the run; `false`, reading nothing, when it leaves memory.
    #[inline]
    pub(crate) fn read_run(&self, word: u32, dst: &mut [Value]) -> bool {
        let Some(cells) = self.cells(word as usize, dst.len()) else {
            return false;
        };
        for (d, cell) in dst.iter_mut().zip(cells) {
            *d = Value(cell.load(Ordering::Relaxed));
        }
        true
    }

    /// `src` to consecutive words from word index `word` on, with one range
    /// check for the run; `false`, writing nothing, when it leaves memory.
    #[inline]
    pub(crate) fn write_run(&self, word: u32, src: &[Value]) -> bool {
        let Some(cells) = self.cells(word as usize, src.len()) else {
            return false;
        };
        for (cell, v) in cells.iter().zip(src) {
            cell.store(v.0, Ordering::Relaxed);
        }
        true
    }

    /// Atomic read-modify-write; returns the old value. Uses a CAS loop so
    /// every [`g80_isa::AtomOp`] works uniformly.
    pub fn atomic(&self, op: g80_isa::AtomOp, addr: u32, src: Value) -> Value {
        let idx = (addr / 4) as usize;
        assert!(
            idx < self.words.len(),
            "atomic out of bounds: addr {addr:#x}"
        );
        let cell = &self.words[idx];
        let mut old = cell.load(Ordering::Relaxed);
        loop {
            let (new, _) = g80_isa::exec::eval_atom(op, Value(old), src);
            match cell.compare_exchange_weak(old, new.0, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return Value(old),
                Err(cur) => old = cur,
            }
        }
    }

    /// The `len` cells from word index `start` on, bounds-checked once for
    /// the whole range (what the bulk copies and the warp row runs pay
    /// instead of one check per word).
    #[inline]
    fn cells(&self, start: usize, len: usize) -> Option<&[AtomicU32]> {
        self.words.get(start..start + len)
    }

    /// [`Self::cells`] from a byte address, for the host-side copies.
    fn host_cells(&self, byte_addr: u32, len: usize, what: &str) -> &[AtomicU32] {
        match self.cells((byte_addr / 4) as usize, len) {
            Some(cells) => cells,
            None => panic!("global {what} out of bounds: {len} words at addr {byte_addr:#x}"),
        }
    }

    /// Host-side bulk write (cudaMemcpy host-to-device): `data`'s words land
    /// at consecutive word addresses from `byte_addr`.
    pub fn write_slice(&self, byte_addr: u32, data: impl ExactSizeIterator<Item = u32>) {
        for (cell, w) in self
            .host_cells(byte_addr, data.len(), "write")
            .iter()
            .zip(data)
        {
            cell.store(w, Ordering::Relaxed);
        }
    }

    /// Host-side bulk read (cudaMemcpy device-to-host): the `len` words from
    /// `byte_addr` on.
    pub fn read_slice(
        &self,
        byte_addr: u32,
        len: usize,
    ) -> impl ExactSizeIterator<Item = u32> + '_ {
        self.host_cells(byte_addr, len, "read")
            .iter()
            .map(|cell| cell.load(Ordering::Relaxed))
    }

    /// 128-bit digest of everything a kernel can read: the global words
    /// (hashed in one pass straight from the atomics — no snapshot), their
    /// count, the constant bank and the texture binding. The launch memo's
    /// key for "which input".
    ///
    /// Inlined into the memo probe, whose hit it dominates: left a call, a
    /// hit measured 4 % slower once the crate's code-unit split moved.
    #[inline]
    pub(crate) fn image_digest(&self) -> (u64, u64) {
        let mut h = Mix128::new();
        for half in [
            word_digest(&self.words, |w| w.load(Ordering::Relaxed)),
            word_digest(&self.const_bank, |&w| w),
        ] {
            h.write_u64(half.0);
            h.write_u64(half.1);
        }
        match self.tex_binding {
            Some((base, len)) => {
                h.write_u32(1);
                h.write_u32(base);
                h.write_u32(len);
            }
            None => h.write_u32(0),
        }
        h.finish128()
    }

    /// Copies the entire word array out (memo-miss pre-images, retry
    /// snapshots).
    pub fn snapshot_words(&self) -> Vec<u32> {
        self.words
            .iter()
            .map(|w| w.load(Ordering::Relaxed))
            .collect()
    }

    /// Restores a [`snapshot_words`](Self::snapshot_words) image, undoing
    /// every global write since the snapshot. The launch layer uses this to
    /// retry a launch whose partial writes would otherwise double-apply
    /// (kernels cannot write the constant bank or rebind textures, so the
    /// word image is the whole mutable state).
    pub fn restore_words(&self, snapshot: &[u32]) {
        assert_eq!(snapshot.len(), self.words.len(), "snapshot size mismatch");
        for (cell, &w) in self.words.iter().zip(snapshot) {
            cell.store(w, Ordering::Relaxed);
        }
    }

    /// Reads a constant-bank word at a byte address.
    #[inline]
    pub fn read_const(&self, addr: u32) -> Value {
        self.try_read_const(addr)
            .unwrap_or_else(|| const_out_of_bounds(addr))
    }

    /// [`Self::read_const`] for callers that must not unwind (witness
    /// replay): `None` when the address lies outside the constant bank.
    #[inline]
    pub fn try_read_const(&self, addr: u32) -> Option<Value> {
        self.const_bank.get((addr / 4) as usize).map(|&w| Value(w))
    }

    /// Resolves a texture fetch (byte offset into the bound window) to a
    /// global byte address.
    #[inline]
    pub fn tex_to_global(&self, addr: u32) -> u32 {
        let (base, len) = self
            .tex_binding
            .expect("texture fetch without a bound texture");
        assert!(addr < len, "texture fetch out of bounds: addr {addr:#x}");
        base + addr
    }
}

/// How a timed engine reports a constant address outside the bank (witness
/// replay fails instead and leaves the report to the timed fallback).
#[cold]
pub(crate) fn const_out_of_bounds(addr: u32) -> ! {
    panic!("const read out of bounds: addr {addr:#x}")
}

/// How a timed engine reports a global `read` or `write` outside memory.
#[cold]
pub(crate) fn global_out_of_bounds(what: &str, addr: u32) -> ! {
    panic!("global {what} out of bounds: addr {addr:#x}")
}

/// Word storage a warp memory row moves through: a block's shared memory,
/// device memory, or a replayed period's write buffer over device memory
/// ([`crate::witness::WriteBuf`]). `addr` is a lane's byte address, `word` a
/// word index. A `false` or `None` touches nothing: the caller then reports
/// the address (timed engine) or fails (witness replay).
pub(crate) trait Words {
    /// The word one lane reads; `None` outside the storage.
    fn read_word(&mut self, addr: u32) -> Option<Value>;
    /// One lane's write; `false` outside the storage.
    fn write_word(&mut self, addr: u32, v: Value) -> bool;
    /// The `dst.len()` words from `word` on, checked once for the run;
    /// `false` where the run leaves the storage (or, buffered, may read a
    /// buffered write) and the caller must walk its lanes instead.
    fn read_run(&mut self, word: u32, dst: &mut [Value]) -> bool;
    /// `src` to the words from `word` on, checked once for the run; `false`
    /// where the run leaves the storage.
    fn write_run(&mut self, word: u32, src: &[Value]) -> bool;
}

impl Words for [Value] {
    #[inline]
    fn read_word(&mut self, addr: u32) -> Option<Value> {
        self.get((addr / 4) as usize).copied()
    }

    #[inline]
    fn write_word(&mut self, addr: u32, v: Value) -> bool {
        match self.get_mut((addr / 4) as usize) {
            Some(w) => *w = v,
            None => return false,
        }
        true
    }

    #[inline]
    fn read_run(&mut self, word: u32, dst: &mut [Value]) -> bool {
        let start = word as usize;
        match self.get(start..start + dst.len()) {
            Some(run) => dst.copy_from_slice(run),
            None => return false,
        }
        true
    }

    #[inline]
    fn write_run(&mut self, word: u32, src: &[Value]) -> bool {
        let start = word as usize;
        match self.get_mut(start..start + src.len()) {
            Some(run) => run.copy_from_slice(src),
            None => return false,
        }
        true
    }
}

impl Words for &DeviceMemory {
    #[inline]
    fn read_word(&mut self, addr: u32) -> Option<Value> {
        self.try_read(addr)
    }

    #[inline]
    fn write_word(&mut self, addr: u32, v: Value) -> bool {
        self.try_write(addr, v)
    }

    #[inline]
    fn read_run(&mut self, word: u32, dst: &mut [Value]) -> bool {
        DeviceMemory::read_run(self, word, dst)
    }

    #[inline]
    fn write_run(&mut self, word: u32, src: &[Value]) -> bool {
        DeviceMemory::write_run(self, word, src)
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)]
mod tests {
    use super::*;
    use g80_isa::exec::Row;
    use g80_isa::row::AffineTerms;

    /// A seeded image (LCG words, high half of each state).
    fn seeded_memory(words: usize, seed: u64) -> DeviceMemory {
        let mem = DeviceMemory::new(words as u32 * 4);
        let mut x = seed;
        for i in 0..words {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            mem.write(i as u32 * 4, Value((x >> 32) as u32));
        }
        mem
    }

    fn slice_digest(words: &[u32]) -> (u64, u64) {
        word_digest(words, |&w| w)
    }

    fn assert_both_halves_differ(what: &str, a: (u64, u64), b: (u64, u64)) {
        assert_ne!(a.0, b.0, "{what}: first half unchanged");
        assert_ne!(a.1, b.1, "{what}: second half unchanged");
    }

    #[test]
    fn digest_read_from_the_atomics_equals_the_digest_of_a_snapshot() {
        // 0..=67 words covers every remainder of the 8-word round, odd
        // lengths (a half-filled chunk) and the empty image; 7 936 words is
        // the n=48 matmul device.
        for words in (0..=67).chain([7936]) {
            let mem = seeded_memory(words, words as u64);
            let live = word_digest(&mem.words, |w| w.load(Ordering::Relaxed));
            assert_eq!(live, slice_digest(&mem.snapshot_words()), "{words} words");
        }
    }

    #[test]
    fn digest_changes_in_both_halves_for_any_flip_swap_or_append() {
        let small = seeded_memory(67, 1).snapshot_words();
        let base = slice_digest(&small);
        for word in 0..small.len() {
            for bit in 0..32 {
                let mut flipped = small.clone();
                flipped[word] ^= 1 << bit;
                let what = format!("word {word} bit {bit}");
                assert_both_halves_differ(&what, base, slice_digest(&flipped));
            }
        }
        // The full-size image: one bit in each of a spread of words (every
        // lane, both chunk halves, first and last round).
        let large = seeded_memory(7936, 2).snapshot_words();
        let base = slice_digest(&large);
        for word in (0..7936).step_by(61).chain(7928..7936) {
            let mut flipped = large.clone();
            flipped[word] ^= 1 << (word % 32);
            assert_both_halves_differ(&format!("word {word}"), base, slice_digest(&flipped));
        }
        // Word w sits in chunk w/2, and chunk c in lane c mod 4: words 0 and
        // 8 share a lane, 0 and 2 do not, 0 and 1 share a chunk.
        for (i, j) in [(0, 8), (0, 2), (0, 1), (7000, 7008), (7000, 7003)] {
            let mut swapped = large.clone();
            swapped.swap(i, j);
            let what = format!("swap {i}<->{j}");
            assert_both_halves_differ(&what, base, slice_digest(&swapped));
        }
        for len in (0..=67).chain([7936]) {
            let mut longer = large[..len].to_vec();
            longer.push(0);
            let what = format!("{len} words + one zero word");
            assert_both_halves_differ(&what, slice_digest(&large[..len]), slice_digest(&longer));
        }
    }

    /// Differences spread over consecutive chunks of one lane must not
    /// cancel. Under an xor-linear lane step such as `rotl32((s ^ c)·K)` the
    /// top bit of a chunk reaches the lane's next chunk as one known bit, in
    /// both halves at once: negating f32 elements 1 and 8 of any image
    /// leaves the whole 128-bit digest unchanged (see `digest::lane_step`).
    #[test]
    fn digest_differences_in_one_lane_do_not_cancel() {
        let large = seeded_memory(7936, 4).snapshot_words();
        let base = slice_digest(&large);
        // Sign bits of words 2i+1 (bit 63 of chunk i) and 2i+8 (bit 31 of
        // chunk i+4, the lane's next chunk), first to last round.
        for i in [0, 1, 2, 3, 4, 1983, 3959, 3963] {
            let mut negated = large.clone();
            negated[2 * i + 1] ^= 1 << 31;
            negated[2 * i + 8] ^= 1 << 31;
            let what = format!("sign bits of words {} and {}", 2 * i + 1, 2 * i + 8);
            assert_both_halves_differ(&what, base, slice_digest(&negated));
        }
        // Every bit of chunk i against every bit of chunk i+4, alone and
        // together with the top bit (what a step that only shifts the
        // product down by a fixed amount would let through).
        let small = seeded_memory(67, 5).snapshot_words();
        let base = slice_digest(&small);
        let flip = |words: &mut [u32], chunk: usize, bits: u64| {
            words[2 * chunk] ^= bits as u32;
            words[2 * chunk + 1] ^= (bits >> 32) as u32;
        };
        for i in [0, 3, 17] {
            for p in 0..64 {
                for q in 0..64 {
                    for extra in [0, 1 << 63] {
                        let mut flipped = small.clone();
                        flip(&mut flipped, i, 1 << p);
                        flip(&mut flipped, i + 4, 1 << q | extra);
                        let what = format!("chunk {i} bit {p}, chunk {} bit {q}", i + 4);
                        assert_both_halves_differ(&what, base, slice_digest(&flipped));
                    }
                }
            }
        }
        // Seeded random differences in three consecutive chunks of a lane.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..2000 {
            let mut flipped = small.clone();
            let i = (next() % 20) as usize;
            for step in 0..3 {
                flip(&mut flipped, i + 4 * step, next() & next());
            }
            if flipped != small {
                assert_both_halves_differ("random lane difference", base, slice_digest(&flipped));
            }
        }
    }

    /// Two memories with equal content digest equal; a one-bit change to
    /// anything a kernel can read — a global word, a constant-bank word,
    /// the texture binding — does not.
    #[test]
    fn image_digest_covers_words_constants_and_texture_binding() {
        let image = || {
            let mut mem = seeded_memory(300, 3);
            mem.const_bank = vec![7, 8, 9];
            mem.tex_binding = Some((256, 512));
            mem
        };
        let base = image().image_digest();
        assert_eq!(base, image().image_digest(), "distinct objects, same image");

        let mem = image();
        mem.write(4 * 299, Value(mem.read(4 * 299).0 ^ 1));
        assert_both_halves_differ("global word", base, mem.image_digest());
        let mut mem = image();
        mem.const_bank[1] ^= 1 << 31;
        assert_both_halves_differ("constant word", base, mem.image_digest());
        let mut mem = image();
        mem.const_bank.push(0);
        assert_both_halves_differ("constant bank length", base, mem.image_digest());
        for binding in [None, Some((257, 512)), Some((256, 513))] {
            let mut mem = image();
            mem.tex_binding = binding;
            let what = format!("texture binding {binding:?}");
            assert_both_halves_differ(&what, base, mem.image_digest());
        }
        // Same words, one more (zero) word of memory.
        let longer = DeviceMemory::new(301 * 4);
        longer.restore_words(&[image().snapshot_words(), vec![0]].concat());
        let mut longer = longer;
        longer.const_bank = vec![7, 8, 9];
        longer.tex_binding = Some((256, 512));
        assert_both_halves_differ("image length", base, longer.image_digest());
    }

    /// How a warp access resolves its lanes: the per-lane walk over the
    /// row's terms, `LaneAddrs`' run form, or its expanded lanes.
    #[derive(Copy, Clone, Debug)]
    enum Form {
        Walk,
        Runs,
        Lanes,
    }

    /// One warp load (into `row`) or store (from `row`) of the first `live`
    /// lanes of the row `t`, resolved as `form` says.
    fn access<W: Words + ?Sized>(
        form: Form,
        t: &AffineTerms,
        live: u32,
        words: &mut W,
        row: &mut Row,
        store: bool,
    ) -> Result<(), u32> {
        use crate::step::LaneAddrs;
        let addrs = match form {
            Form::Walk => {
                for l in 0..live as usize {
                    let a = t.lane(l as u32);
                    let done = if store {
                        words.write_word(a, row[l])
                    } else {
                        words.read_word(a).map(|v| row[l] = v).is_some()
                    };
                    if !done {
                        return Err(a);
                    }
                }
                return Ok(());
            }
            Form::Runs => LaneAddrs::Shaped(*t, live),
            Form::Lanes => {
                let mask = (u64::MAX >> (64 - live)) as u32;
                LaneAddrs::Lanes(std::array::from_fn(|l| t.lane(l as u32)), mask)
            }
        };
        if store {
            addrs.store(words, row)
        } else {
            addrs.load(words, row)
        }
    }

    /// A random shaped row for [`affine_runs_match_the_lane_walk`]: periods
    /// 1 to 16; strides 0, 4 and others; aligned, unaligned and wrapping
    /// bases; any step.
    fn random_terms(next: &mut impl FnMut() -> u32) -> AffineTerms {
        let log2p = (next() % 5) as u8;
        let stride = match next() % 4 {
            0 => 0,
            1 => 4,
            2 => [1, 2, 3, 8, 12, 64, 4u32.wrapping_neg()][next() as usize % 7],
            _ => next(),
        };
        let base = match next() % 3 {
            0 => next() % 512 * 4,
            1 => next() % 512 * 4 + 1 + next() % 3,
            _ => u32::MAX - next() % 128,
        };
        let step = match next() % 5 {
            0 => 0,
            1 => stride << log2p,
            2 => next() % 64 * 4,
            3 => next() % 256,
            _ => next(),
        };
        AffineTerms {
            base,
            stride,
            step,
            log2p,
        }
    }

    /// The run form of a warp load or store (`step::LaneAddrs`: a broadcast
    /// or a contiguous copy per run of `p` lanes) against the per-lane walk
    /// it replaces, on random rows — periods 1 to 16; strides 0, 4 and
    /// others; aligned, unaligned and wrapping bases; any step; every live
    /// prefix — over shared memory, device memory, and a replay write buffer
    /// holding writes of its own, each ending inside, exactly at, or past
    /// the access. Every form must leave the same row and the same memory
    /// and fail at the same address; the expanded-lanes form too.
    #[test]
    fn affine_runs_match_the_lane_walk() {
        use crate::witness::WriteBuf;
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 32) as u32
        };
        let seeded = |words: u32| -> Vec<Value> {
            (0..words)
                .map(|w| Value(w.wrapping_mul(0x9e37_79b9) ^ 0x5bd1_e995))
                .collect()
        };
        let (mut runs_done, mut runs_failed) = (0, 0);
        for _ in 0..2000 {
            let t = random_terms(&mut next);
            let stride = t.stride;
            let live = 1 + next() % 32;
            let lane_words: Vec<u32> = (0..live).map(|l| t.lane(l) / 4).collect();
            let (lo, hi) = (lane_words.iter().min(), lane_words.iter().max());
            let (lo, hi) = (*lo.unwrap(), *hi.unwrap());
            // Memory ending inside the access, just past its last word, or
            // further on; a far-flung access meets a small memory.
            let words = if hi < 1024 {
                match next() % 3 {
                    0 => lo + next() % (hi - lo + 1),
                    1 => hi + 1,
                    _ => hi + 2 + next() % 16,
                }
            } else {
                64 + next() % 64
            };
            // The write buffer's own writes, some of them where the access
            // reads, and maybe a read-back that builds its map first.
            let prior: Vec<(u32, u32)> = (0..next() % 4)
                .map(|k| {
                    let near = lane_words[next() as usize % lane_words.len()];
                    let w = if near < words && next() % 2 == 0 {
                        near
                    } else {
                        next() % words.max(1)
                    };
                    (w, 0x5000_0000 + k)
                })
                .filter(|&(w, _)| w < words)
                .collect();
            let read_back = next() % 2 == 0;
            let label = format!("{t:?} live={live} words={words} prior={prior:?}");

            for store in [false, true] {
                let start: Row = std::array::from_fn(|l| Value(0xa000_0000 + l as u32));
                // (outcome, row, every word the storage then shows) per
                // storage kind.
                let observe = |form: Form| {
                    let mut seen = Vec::new();
                    let mut smem = seeded(words);
                    let mut row = start;
                    let r = access(form, &t, live, &mut smem[..], &mut row, store);
                    seen.push((r, row, smem));

                    let image = |mem: &DeviceMemory| -> Vec<Value> {
                        mem.snapshot_words().into_iter().map(Value).collect()
                    };
                    let seeded_memory = || {
                        let mem = DeviceMemory::new(4 * words);
                        mem.restore_words(&seeded(words).iter().map(|v| v.0).collect::<Vec<_>>());
                        mem
                    };
                    let mem = seeded_memory();
                    let mut row = start;
                    let r = access(form, &t, live, &mut &mem, &mut row, store);
                    seen.push((r, row, image(&mem)));

                    let mem = seeded_memory();
                    let mut buf = WriteBuf::new(&mem);
                    for &(w, v) in &prior {
                        assert!(buf.write_word(4 * w, Value(v)));
                    }
                    if read_back {
                        if let Some(&(w, _)) = prior.first() {
                            buf.read_word(4 * w);
                        }
                    }
                    let mut row = start;
                    let r = access(form, &t, live, &mut buf, &mut row, store);
                    let shown: Vec<_> = (0..live).map(|l| buf.read_word(t.lane(l))).collect();
                    buf.commit();
                    // Read-your-own-writes: the buffer shows what its commit
                    // leaves behind.
                    let committed: Vec<_> = (0..live).map(|l| mem.try_read(t.lane(l))).collect();
                    assert_eq!(shown, committed, "{form:?} buffered store={store} {label}");
                    seen.push((r, row, image(&mem)));
                    seen
                };
                let want = observe(Form::Walk);
                for form in [Form::Runs, Form::Lanes] {
                    let got = observe(form);
                    for (kind, (got, want)) in ["shared", "global", "buffered"]
                        .iter()
                        .zip(got.iter().zip(&want))
                    {
                        let lane = (0..32).find(|&l| got.1[l] != want.1[l]);
                        let word = (0..want.2.len()).find(|&w| got.2[w] != want.2[w]);
                        assert!(
                            got == want,
                            "{form:?} {kind} store={store} {label}: outcome {:?}, walk {:?}; \
                             first differing lane {lane:?}, word {word:?}",
                            got.0,
                            want.0,
                        );
                    }
                }
                if stride == 0 || stride == 4 {
                    match want[0].0 {
                        Ok(()) => runs_done += 1,
                        Err(_) => runs_failed += 1,
                    }
                }
            }
        }
        // The sweep must reach the run form both ways, not only the walk.
        assert!(
            runs_done > 400 && runs_failed > 400,
            "{runs_done} / {runs_failed}"
        );
    }

    #[test]
    fn device_memory_rw_and_atomics() {
        let m = DeviceMemory::new(1024);
        m.write(0, Value::from_f32(1.5));
        assert_eq!(m.read(0).as_f32(), 1.5);
        m.write_slice(16, [1, 2, 3].into_iter());
        assert_eq!(m.read_slice(16, 3).collect::<Vec<_>>(), [1, 2, 3]);
        // The last words of memory are in range; one past them is not.
        m.write_slice(1024 - 8, [7, 8].into_iter());
        assert_eq!(m.read_slice(1024 - 8, 2).collect::<Vec<_>>(), [7, 8]);
        assert_eq!(m.read_slice(1024, 0).count(), 0);

        let old = m.atomic(g80_isa::AtomOp::Add, 16, Value::from_u32(10));
        assert_eq!(old.as_u32(), 1);
        assert_eq!(m.read(16).as_u32(), 11);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_read_panics() {
        let m = DeviceMemory::new(64);
        m.read(64);
    }

    /// A bulk copy that runs off the end is refused whole: nothing lands.
    #[test]
    fn oob_slices_panic_before_touching_memory() {
        let m = DeviceMemory::new(64);
        let write = std::panic::catch_unwind(|| m.write_slice(56, [1, 2, 3].into_iter()));
        assert!(write.is_err());
        assert_eq!(m.read_slice(56, 2).collect::<Vec<_>>(), [0, 0]);
        assert!(std::panic::catch_unwind(|| m.read_slice(60, 2).count()).is_err());
    }
}
