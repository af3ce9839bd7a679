//! Canonical little-endian binary encoding shared by everything that
//! serializes simulator state: the persistent disk tier ([`crate::disk`]),
//! the serializable [`crate::LaunchReport`], and the `g80-serve` wire
//! protocol.
//!
//! A type's layout is declared once, as its [`Wire`] impl: `put` appends
//! the encoding, `get` reads it back, and `MIN_LEN` is the fewest bytes any
//! encoding of the type takes. Structs and tagged enums declare theirs with
//! [`wire_layout!`](crate::wire_layout), which lists the fields in wire
//! order and derives both directions; [`KernelStats`](crate::KernelStats)
//! takes its list from the one declaration of the simulated counters in
//! [`crate::counters`]. The rules:
//!
//! * integers little-endian; `f64` as its IEEE bit pattern; `bool` as one
//!   byte, 0 or 1;
//! * strings length-prefixed (u64) UTF-8;
//! * an enum as a `u8` tag and then its fields; `Option` tagged 0 (`None`) /
//!   1, `Result` tagged 0 (`Err`) / 1 (`Ok`); tuples and struct fields in
//!   order;
//! * `Vec` as a u32 count and then the elements. A count whose elements
//!   could not fit in the bytes left (`count × MIN_LEN`) is rejected before
//!   anything is allocated ([`Dec::items`]);
//! * a tally map (keyed by a [`TallyKey`]) as a u32 count and `(u32 key
//!   index, u64 value)` pairs sorted by index, decoded only in strictly
//!   increasing key order;
//! * decoding is strict: short input, an unknown tag, an out-of-order key or
//!   non-UTF-8 string bytes all return `None`. Every accepted input is the
//!   canonical encoding of the value it decodes to, so re-encoding a decoded
//!   value reproduces the input bytes exactly ([`assert_mutations_rejected`]
//!   checks this per layout).
//!
//! A layout change changes bytes: it must bump [`crate::disk`]'s
//! `FORMAT_VERSION` when the stats move, [`crate::REPORT_VERSION`] when a
//! report does, and the serve protocol version for anything it carries.

use crate::counters::TallyKey;
use crate::sm::LaunchDims;
use g80_isa::{
    AluOp, AtomOp, CmpOp, Inst, Kernel, Label, Operand, Pred, Reg, Scalar, SfuOp, Space,
    SpecialReg, UnOp, Value,
};
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
}

/// Strict slice-consuming decoder; every accessor returns `None` on short
/// or malformed input and consumes nothing it did not validate.
pub struct Dec<'a>(pub &'a [u8]);

// The accessors are `#[inline]` because layouts instantiated in other
// crates call them once per field: out of line, a `Response::Launch` with
// a 1 K-pair delta decoded about 2.4× slower.
impl<'a> Dec<'a> {
    #[inline]
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.0.len() < n {
            return None;
        }
        let (head, tail) = self.0.split_at(n);
        self.0 = tail;
        Some(head)
    }
    #[inline]
    pub fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }
    #[inline]
    pub fn u16(&mut self) -> Option<u16> {
        self.take(2)
            .map(|b| u16::from_le_bytes(b.try_into().unwrap()))
    }
    #[inline]
    pub fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    }
    #[inline]
    pub fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }
    #[inline]
    pub fn i32(&mut self) -> Option<i32> {
        self.take(4)
            .map(|b| i32::from_le_bytes(b.try_into().unwrap()))
    }
    #[inline]
    pub fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }
    #[inline]
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
    /// `n` values of `T` in a row. `None`, before allocating, when `n` of
    /// them could not fit in the bytes left: a forged count cannot make the
    /// decoder reserve more than the input could hold.
    pub fn items<T: Wire>(&mut self, n: u64) -> Option<Vec<T>> {
        const { assert!(T::MIN_LEN > 0, "the count guard needs a nonzero MIN_LEN") };
        let n = usize::try_from(n).ok()?;
        if n.checked_mul(T::MIN_LEN)? > self.remaining() {
            return None;
        }
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(T::get(self)?);
        }
        Some(v)
    }
}

/// A type with one canonical byte layout.
pub trait Wire: Sized {
    /// The fewest bytes any value's encoding takes: the lower bound that
    /// [`Dec::items`] holds a count against.
    const MIN_LEN: usize;
    /// Appends the encoding.
    fn put(&self, e: &mut Enc);
    /// Reads one value, leaving any trailing bytes in `d`; `None` on
    /// malformed or short input.
    fn get(d: &mut Dec) -> Option<Self>;
}

/// `v`'s encoding, in a buffer of `cap` bytes to start.
pub fn to_bytes<T: Wire>(v: &T, cap: usize) -> Vec<u8> {
    let mut e = Enc::with_capacity(cap);
    v.put(&mut e);
    e.0
}

/// The one `T` that `bytes` encode; `None` if they hold less or more.
pub fn from_bytes<T: Wire>(bytes: &[u8]) -> Option<T> {
    let mut d = Dec(bytes);
    let v = T::get(&mut d)?;
    d.is_empty().then_some(v)
}

/// The smallest of `lens` (an enum's `MIN_LEN` is its tag plus the
/// smallest variant). Used by [`wire_layout!`](crate::wire_layout).
#[doc(hidden)]
pub const fn min_len(lens: &[usize]) -> usize {
    let (mut i, mut min) = (0, usize::MAX);
    while i < lens.len() {
        if lens[i] < min {
            min = lens[i];
        }
        i += 1;
    }
    min
}

/// Declares a type's [`Wire`] layout; both directions and `MIN_LEN` derive
/// from the one list.
///
/// * `struct Name(T)` — a newtype, encoded as its field;
/// * `struct Name { field: T, .. }` — the fields in the order listed, which
///   is the wire order. `struct Name [VERSION: T] { .. }` first writes the
///   constant `VERSION` and rejects any other value on decode;
/// * `enum Name { tag => Variant { field: T, .. }, tag => Variant(x: T),
///   tag => Variant, .. }` — a `u8` tag, then the variant's fields. A tuple
///   variant names its one field (`x`) for the derived code.
///
/// A listed type that differs from the field's declared type, or a
/// variant left out, fails to compile.
#[macro_export]
macro_rules! wire_layout {
    (struct $name:ident ( $t:ty )) => {
        impl $crate::wire::Wire for $name {
            const MIN_LEN: usize = <$t as $crate::wire::Wire>::MIN_LEN;
            fn put(&self, e: &mut $crate::wire::Enc) {
                <$t as $crate::wire::Wire>::put(&self.0, e)
            }
            fn get(d: &mut $crate::wire::Dec) -> Option<Self> {
                Some($name(<$t as $crate::wire::Wire>::get(d)?))
            }
        }
    };
    (struct $name:ident $([$ver:ident: $vt:ty])? { $($f:ident: $t:ty),* $(,)? }) => {
        impl $crate::wire::Wire for $name {
            const MIN_LEN: usize =
                0 $(+ <$vt as $crate::wire::Wire>::MIN_LEN)? $(+ <$t as $crate::wire::Wire>::MIN_LEN)*;
            fn put(&self, e: &mut $crate::wire::Enc) {
                $(<$vt as $crate::wire::Wire>::put(&$ver, e);)?
                $(<$t as $crate::wire::Wire>::put(&self.$f, e);)*
            }
            fn get(d: &mut $crate::wire::Dec) -> Option<Self> {
                $(if <$vt as $crate::wire::Wire>::get(d)? != $ver {
                    return None;
                })?
                Some($name { $($f: <$t as $crate::wire::Wire>::get(d)?),* })
            }
        }
    };
    (enum $name:ident {
        $($tag:literal => $v:ident $({ $($f:ident: $t:ty),* $(,)? })? $(($x:ident: $xt:ty))?),* $(,)?
    }) => {
        impl $crate::wire::Wire for $name {
            const MIN_LEN: usize = 1 + $crate::wire::min_len(&[$(
                0 $($(+ <$t as $crate::wire::Wire>::MIN_LEN)*)? $(+ <$xt as $crate::wire::Wire>::MIN_LEN)?
            ),*]);
            fn put(&self, e: &mut $crate::wire::Enc) {
                match self {
                    $(Self::$v $({ $($f),* })? $(($x))? => {
                        e.u8($tag);
                        $($(<$t as $crate::wire::Wire>::put($f, e);)*)?
                        $(<$xt as $crate::wire::Wire>::put($x, e);)?
                    })*
                }
            }
            fn get(d: &mut $crate::wire::Dec) -> Option<Self> {
                Some(match d.u8()? {
                    $($tag => Self::$v
                        $({ $($f: <$t as $crate::wire::Wire>::get(d)?),* })?
                        $(({
                            let $x = <$xt as $crate::wire::Wire>::get(d)?;
                            $x
                        }))?,)*
                    _ => return None,
                })
            }
        }
    };
}

macro_rules! scalars {
    ($($t:ident),*) => {$(
        impl Wire for $t {
            const MIN_LEN: usize = std::mem::size_of::<$t>();
            #[inline]
            fn put(&self, e: &mut Enc) {
                e.$t(*self)
            }
            #[inline]
            fn get(d: &mut Dec) -> Option<Self> {
                d.$t()
            }
        }
    )*};
}

scalars!(u8, u16, u32, u64, i32, f64);

impl Wire for bool {
    const MIN_LEN: usize = 1;
    fn put(&self, e: &mut Enc) {
        e.u8(*self as u8)
    }
    fn get(d: &mut Dec) -> Option<Self> {
        match d.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

impl Wire for String {
    const MIN_LEN: usize = 8;
    fn put(&self, e: &mut Enc) {
        e.str(self)
    }
    fn get(d: &mut Dec) -> Option<Self> {
        d.str()
    }
}

impl<T: Wire> Wire for Option<T> {
    const MIN_LEN: usize = 1;
    fn put(&self, e: &mut Enc) {
        match self {
            None => e.u8(0),
            Some(v) => {
                e.u8(1);
                v.put(e);
            }
        }
    }
    fn get(d: &mut Dec) -> Option<Self> {
        match d.u8()? {
            0 => Some(None),
            1 => Some(Some(T::get(d)?)),
            _ => None,
        }
    }
}

impl<T: Wire, E: Wire> Wire for Result<T, E> {
    const MIN_LEN: usize = 1 + min_len(&[T::MIN_LEN, E::MIN_LEN]);
    fn put(&self, e: &mut Enc) {
        match self {
            Err(err) => {
                e.u8(0);
                err.put(e);
            }
            Ok(v) => {
                e.u8(1);
                v.put(e);
            }
        }
    }
    fn get(d: &mut Dec) -> Option<Self> {
        match d.u8()? {
            0 => Some(Err(E::get(d)?)),
            1 => Some(Ok(T::get(d)?)),
            _ => None,
        }
    }
}

macro_rules! tuples {
    ($(($($t:ident . $i:tt),+)),*) => {$(
        impl<$($t: Wire),+> Wire for ($($t,)+) {
            const MIN_LEN: usize = 0 $(+ $t::MIN_LEN)+;
            fn put(&self, e: &mut Enc) {
                $(self.$i.put(e);)+
            }
            fn get(d: &mut Dec) -> Option<Self> {
                Some(($($t::get(d)?,)+))
            }
        }
    )*};
}

tuples!((A.0, B.1), (A.0, B.1, C.2));

impl<T: Wire> Wire for Vec<T> {
    const MIN_LEN: usize = 4;
    fn put(&self, e: &mut Enc) {
        e.u32(self.len() as u32);
        for v in self {
            v.put(e);
        }
    }
    fn get(d: &mut Dec) -> Option<Self> {
        let n = d.u32()?;
        d.items(n.into())
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

// ---- layouts -------------------------------------------------------------
//
// The ISA's layouts live here because the trait does. Its C-like enums are
// tagged by declaration index: `x as u8` writes, `ALL` reads back.

macro_rules! index_enums {
    ($($t:ident),*) => {$(
        impl Wire for $t {
            const MIN_LEN: usize = 1;
            fn put(&self, e: &mut Enc) {
                e.u8(*self as u8)
            }
            fn get(d: &mut Dec) -> Option<Self> {
                $t::ALL.get(d.u8()? as usize).copied()
            }
        }
    )*};
}

index_enums!(AluOp, UnOp, SfuOp, CmpOp, Scalar, Space, AtomOp, SpecialReg);

crate::wire_layout!(struct Value(u32));
crate::wire_layout!(struct Reg(u32));
crate::wire_layout!(struct Label(u32));

crate::wire_layout! {
    enum Operand {
        0 => Reg(r: Reg),
        1 => Imm(v: Value),
        2 => Param(p: u16),
        3 => Special(s: SpecialReg),
    }
}

crate::wire_layout! {
    struct Pred { reg: Reg, negate: bool }
}

crate::wire_layout! {
    enum Inst {
        0 => Alu { op: AluOp, dst: Reg, a: Operand, b: Operand },
        1 => Ffma { dst: Reg, a: Operand, b: Operand, c: Operand },
        2 => Imad { dst: Reg, a: Operand, b: Operand, c: Operand },
        3 => Un { op: UnOp, dst: Reg, a: Operand },
        4 => Sfu { op: SfuOp, dst: Reg, a: Operand },
        5 => SetP { op: CmpOp, ty: Scalar, dst: Reg, a: Operand, b: Operand },
        6 => Sel { dst: Reg, c: Operand, a: Operand, b: Operand },
        7 => Ld { space: Space, dst: Reg, addr: Operand, off: i32 },
        8 => St { space: Space, addr: Operand, off: i32, src: Operand },
        9 => Atom { op: AtomOp, space: Space, dst: Option<Reg>, addr: Operand, off: i32, src: Operand },
        10 => Bra { target: Label, reconv: Label, pred: Option<Pred> },
        11 => Bar,
        12 => Exit,
    }
}

crate::wire_layout! {
    struct Kernel {
        name: String,
        regs_per_thread: u32,
        smem_bytes: u32,
        num_params: u16,
        code: Vec<Inst>,
    }
}

crate::wire_layout! {
    struct LaunchDims { grid: (u32, u32), block: (u32, u32, u32) }
}

/// A tally map: a u32 count, then `(u32 key index, u64 value)` pairs in
/// strictly increasing key order. A repeated or out-of-order key is bytes the
/// encoder never writes, so decoding rejects it.
impl<K: TallyKey> Wire for HashMap<K, u64> {
    const MIN_LEN: usize = 4;
    fn put(&self, e: &mut Enc) {
        // Sorting the entries, not probing the map once per variant: the
        // memo verifies every hit through this encoding.
        let mut pairs: Vec<(u32, u64)> = self.iter().map(|(k, &v)| (k.index() as u32, v)).collect();
        pairs.sort_unstable();
        pairs.put(e);
    }
    fn get(d: &mut Dec) -> Option<Self> {
        let mut map = HashMap::new();
        let mut next = 0;
        for _ in 0..d.u32()? {
            let (idx, v) = <(u32, u64)>::get(d)?;
            let idx = idx as usize;
            if idx < next {
                return None;
            }
            next = idx + 1;
            map.insert(*K::ALL.get(idx)?, v);
        }
        Some(map)
    }
}

/// Checks the strict-decoding contract on `bytes`, the encoding of one
/// value, and panics on the first breach:
///
/// * every strict prefix, and `bytes` plus one trailing byte, is rejected;
/// * every single-bit flip, and every 4-byte window overwritten with
///   `u32::MAX`, is rejected or decodes to a value that re-encodes to
///   exactly the mutated bytes.
///
/// A count set to `u32::MAX` can only be rejected, since its elements
/// cannot fit; a decoder that reserved room for them first would ask the
/// allocator for gigabytes and abort the test. A decoder that panics fails
/// it too.
#[doc(hidden)]
pub fn assert_mutations_rejected<T>(
    bytes: &[u8],
    decode: impl Fn(&[u8]) -> Option<T>,
    encode: impl Fn(&T) -> Vec<u8>,
) {
    let check = |bent: &[u8], at: usize| {
        if let Some(v) = decode(bent) {
            let again = encode(&v);
            assert_eq!(again, bent, "mutation at byte {at} re-encodes differently");
        }
    };
    for len in 0..bytes.len() {
        assert!(decode(&bytes[..len]).is_none(), "{len}-byte prefix decoded");
    }
    let mut longer = bytes.to_vec();
    longer.push(0);
    assert!(decode(&longer).is_none(), "a trailing byte was accepted");
    let mut bent = bytes.to_vec();
    for i in 0..bytes.len() {
        for bit in 0..8 {
            bent[i] ^= 1 << bit;
            check(&bent, i);
            bent[i] ^= 1 << bit;
        }
    }
    for i in 0..bytes.len().saturating_sub(3) {
        bent[i..i + 4].fill(0xff);
        check(&bent, i);
        bent[i..i + 4].copy_from_slice(&bytes[i..i + 4]);
    }
}

/// [`assert_mutations_rejected`] on `v`'s [`Wire`] encoding, after checking
/// that it round-trips and is no shorter than `MIN_LEN`.
#[doc(hidden)]
pub fn assert_wire_mutations_rejected<T: Wire>(v: &T) {
    let bytes = to_bytes(v, 256);
    assert!(bytes.len() >= T::MIN_LEN, "encoding shorter than MIN_LEN");
    let back = from_bytes::<T>(&bytes).expect("the encoding decodes");
    assert_eq!(to_bytes(&back, 256), bytes, "re-encoding differs");
    assert_mutations_rejected(&bytes, from_bytes::<T>, |v| to_bytes(v, 256));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;
    use crate::counters::{KernelStats, SmStats, StallReason};
    use g80_isa::InstClass;

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
        sm.by_class[InstClass::Fma.index()] = 3;
        sm.by_class[InstClass::LdGlobal.index()] = 2;
        sm.stall_cycles[StallReason::Memory.index()] = 9;
        KernelStats::merge("wire", &cfg, vec![sm], 12, 512, 64, 2, 4)
    }

    #[test]
    fn stats_roundtrip_is_canonical() {
        let stats = sample_stats();
        let bytes = to_bytes(&stats, 512);
        let back = from_bytes::<KernelStats>(&bytes).expect("roundtrip");
        assert_eq!(stats.name, back.name);
        assert_eq!(stats.cycles, back.cycles);
        assert_eq!(stats.by_class, back.by_class);
        assert_eq!(stats.stall_cycles, back.stall_cycles);
        assert_eq!(stats.clock_ghz.to_bits(), back.clock_ghz.to_bits());
        assert_eq!(
            bytes,
            to_bytes(&back, 512),
            "re-encoding must reproduce the same bytes"
        );
        assert_eq!(to_bytes(&empty_stats(), 0).len(), KernelStats::MIN_LEN);
    }

    fn empty_stats() -> KernelStats {
        KernelStats::merge("", &GpuConfig::geforce_8800_gtx(), vec![], 0, 0, 0, 0, 0)
    }

    /// Stats bytes whose two maps carry exactly `classes` and `stalls`, in
    /// the order given.
    fn stats_with_maps(classes: &[(u32, u64)], stalls: &[(u32, u64)]) -> Vec<u8> {
        let mut bytes = to_bytes(&empty_stats(), 0);
        bytes.truncate(bytes.len() - 8);
        let mut e = Enc(bytes);
        classes.to_vec().put(&mut e);
        stalls.to_vec().put(&mut e);
        e.0
    }

    #[test]
    fn stats_map_keys_must_strictly_increase() {
        let decodes = |c: &[(u32, u64)], s: &[(u32, u64)]| {
            from_bytes::<KernelStats>(&stats_with_maps(c, s)).is_some()
        };
        assert!(decodes(&[(0, 3), (4, 2)], &[(0, 9), (4, 1)]));
        assert!(!decodes(&[(0, 3), (0, 2)], &[]), "duplicated class");
        assert!(!decodes(&[(4, 2), (0, 3)], &[]), "swapped classes");
        assert!(!decodes(&[], &[(1, 3), (1, 2)]), "duplicated stall reason");
        assert!(!decodes(&[], &[(4, 1), (0, 9)]), "swapped stall reasons");
    }

    /// Every variant of `$t`: listed in `ALL` in declaration order, tagged
    /// by that index, and round-tripped. The exhaustive match stops
    /// compiling when the enum gains a variant this list lacks, and the
    /// array comparison when `ALL` lacks it.
    macro_rules! check_all {
        ($t:ident: $($v:ident),+) => {{
            let _exhaustive = |x: $t| match x {
                $($t::$v => ()),+
            };
            assert_eq!($t::ALL, [$($t::$v),+]);
            for (i, x) in $t::ALL.into_iter().enumerate() {
                assert_eq!(x as u8 as usize, i, "{x:?}");
                assert_eq!(from_bytes::<$t>(&to_bytes(&x, 1)), Some(x));
            }
        }};
    }

    #[test]
    fn every_isa_enum_variant_roundtrips() {
        check_all!(AluOp: FAdd, FSub, FMul, FMin, FMax, IAdd, ISub, IMul, UMin, UMax, IMin, IMax,
            And, Or, Xor, Shl, ShrU, ShrS, Rotl);
        check_all!(UnOp: Mov, FNeg, FAbs, Not, CvtF2I, CvtI2F, CvtF2U, CvtU2F, FFloor);
        check_all!(SfuOp: Rcp, Rsqrt, Sqrt, Sin, Cos, Ex2, Lg2);
        check_all!(CmpOp: Eq, Ne, Lt, Le, Gt, Ge);
        check_all!(Scalar: F32, U32, I32);
        check_all!(Space: Global, Shared, Const, Local, Tex);
        check_all!(AtomOp: Add, Min, Max, Exch);
        check_all!(SpecialReg: TidX, TidY, TidZ, NtidX, NtidY, NtidZ, CtaidX, CtaidY, NctaidX,
            NctaidY);
        assert!(from_bytes::<AluOp>(&[AluOp::ALL.len() as u8]).is_none());
    }

    #[test]
    fn a_count_is_held_against_the_bytes_left() {
        // 24 bytes after the count: three eight-byte pairs fit, four do not.
        let bytes = to_bytes(&vec![(1u32, 2u32); 3], 0);
        let items = |n| Dec(&bytes[4..]).items::<(u32, u32)>(n);
        assert_eq!(items(3), Some(vec![(1, 2); 3]));
        assert_eq!(items(4), None);
        assert_eq!(items(u64::MAX), None);
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
