//! The `g80-serve` wire protocol: versioned, typed, length-prefixed frames
//! carrying launch requests and streamed responses.
//!
//! Every message is one frame: a little-endian `u32` payload length,
//! that many payload bytes, then a little-endian `u32` CRC-32 of the
//! payload ([`g80_sim::wire::crc32`], added in protocol version 3 so
//! on-wire corruption is caught by an integrity check instead of
//! surfacing as a confusing decode failure — or worse, not at all).
//! Payloads are encoded with the canonical [`g80_sim::wire`] codec (same
//! rules as the disk cache tier: LE integers, u64-length-prefixed UTF-8
//! strings, strict decoding). The first payload byte is a message tag. A
//! connection opens with
//! [`Request::Hello`] / [`Response::HelloOk`] agreeing on
//! [`PROTOCOL_VERSION`]; afterwards each request produces one response,
//! except [`Request::Batch`] / [`Request::Sweep`], which stream one
//! [`Response::Item`] per spec followed by a [`Response::Done`] carrying
//! the daemon's cache-counter delta for the whole stream.
//!
//! Errors are *values*, not connection state: a malformed frame, a
//! failed CRC, a quota rejection, an overload shed, or a fault-injected
//! decode tamper all come back as [`Response::Error`] with a typed
//! [`WireError`], and the connection stays usable (a CRC failure
//! consumes exactly one frame — the length field was validated first, so
//! framing stays synchronized). Only a frame whose declared length
//! exceeds [`MAX_FRAME_BYTES`] closes the connection, because framing
//! itself can no longer be trusted.

use g80_isa::{
    AluOp, AtomOp, CmpOp, Inst, Kernel, Label, Operand, Pred, Reg, Scalar, SfuOp, Space,
    SpecialReg, UnOp, Value,
};
use g80_sim::wire::{crc32, Dec, Enc};
use g80_sim::{LaunchDims, LaunchError, LaunchReport, MemoCounters, NetCounters};
use std::io::{self, IoSlice, Read, Write};

/// Bumped on any incompatible change to the framing, the message tags, or
/// any embedded encoding (including [`g80_sim::wire::encode_stats`]).
/// Version 2 tracks the [`g80_sim::LaunchReport`] layout change that added
/// the row-shape counters. Version 3 appends a CRC-32 to every frame,
/// adds the `BadFrame`/`Overloaded` errors, the transport-fault counters
/// on [`Response::Done`], and the net-counter block in `LaunchReport`.
pub const PROTOCOL_VERSION: u16 = 3;

/// Upper bound on one frame's payload. A header above this is treated as a
/// framing desync and the connection is dropped.
pub const MAX_FRAME_BYTES: u32 = 64 << 20;

/// Upper bound on the device memory one request may ask the daemon to
/// allocate (words are materialized server-side).
pub const MAX_MEM_BYTES: u32 = 256 << 20;

// ---- framing ---------------------------------------------------------------
//
// The v3 frame layout over any Read/Write. `write_frame_with_crc` is the one
// place `len | payload | crc` is put on a wire and `verify_crc` the one
// integrity check: live connections (`crate::framed`) send and check
// through them and add deadlines and the injected transport-fault
// schedule; `read_frame` is the plain blocking reader for tests and
// simple tooling.

/// Payload checksum failure: the frame was consumed whole (framing is
/// still synchronized) but its bytes are not what the peer sent. Carried
/// inside an [`io::Error`] of kind `InvalidData`; test with
/// [`is_crc_mismatch`].
#[derive(Debug)]
pub struct CrcMismatch {
    /// The CRC the frame carried.
    pub expected: u32,
    /// The CRC of the payload as received.
    pub got: u32,
}

impl std::fmt::Display for CrcMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "frame CRC mismatch: expected {:#010x}, got {:#010x}",
            self.expected, self.got
        )
    }
}

impl std::error::Error for CrcMismatch {}

/// True when `e` wraps a [`CrcMismatch`] — the one transport error that
/// does NOT poison the connection.
pub fn is_crc_mismatch(e: &io::Error) -> bool {
    e.get_ref().is_some_and(|inner| inner.is::<CrcMismatch>())
}

/// Checks a received payload against the CRC its frame carried.
pub(crate) fn verify_crc(payload: &[u8], wire_crc: u32) -> io::Result<()> {
    let computed = crc32(payload);
    if computed == wire_crc {
        return Ok(());
    }
    Err(io::Error::new(
        io::ErrorKind::InvalidData,
        CrcMismatch {
            expected: wire_crc,
            got: computed,
        },
    ))
}

/// The header value for `payload`, or `InvalidInput` when it exceeds
/// [`MAX_FRAME_BYTES`].
pub(crate) fn frame_len(payload: &[u8]) -> io::Result<u32> {
    u32::try_from(payload.len())
        .ok()
        .filter(|&l| l <= MAX_FRAME_BYTES)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))
}

/// Writes one CRC-trailed length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    write_frame_with_crc(w, payload, crc32(payload))
}

/// Puts `len | payload | crc` on the wire as ONE vectored write (resumed
/// if the sink takes only part), then flushes. On a `TCP_NODELAY` socket
/// three separate writes are three syscalls and three segments, and the
/// peer is woken by a 4-byte header before its payload is even queued.
/// `crc` is an argument so the injected `corrupt` fault can send a
/// payload under a checksum that does not cover it.
pub(crate) fn write_frame_with_crc(w: &mut impl Write, payload: &[u8], crc: u32) -> io::Result<()> {
    let (head, tail) = (frame_len(payload)?.to_le_bytes(), crc.to_le_bytes());
    let mut parts = [
        IoSlice::new(&head),
        IoSlice::new(payload),
        IoSlice::new(&tail),
    ];
    let mut rest = &mut parts[..];
    while !rest.is_empty() {
        match w.write_vectored(rest) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// Reads one frame and verifies its CRC. `Ok(None)` means the peer closed
/// the connection cleanly at a frame boundary; an oversized header is an
/// error (framing desync — the caller must drop the connection); a CRC
/// mismatch is an `InvalidData` error wrapping [`CrcMismatch`] with the
/// frame fully consumed, so framing stays synchronized.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut hdr = [0u8; 4];
    match r.read_exact(&mut hdr) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(hdr);
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame header declares {len} bytes (max {MAX_FRAME_BYTES})"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    let mut crc = [0u8; 4];
    r.read_exact(&mut crc)?;
    verify_crc(&payload, u32::from_le_bytes(crc))?;
    Ok(Some(payload))
}

// ---- enum codecs -----------------------------------------------------------
//
// The ISA enums are C-like (no explicit discriminants), so `as u8` yields
// the declaration-order index; decoding indexes a declaration-order table.

macro_rules! enum_table {
    ($fn_name:ident, $t:ty, [$($v:ident),* $(,)?]) => {
        fn $fn_name(tag: u8) -> Option<$t> {
            const ALL: &[$t] = &[$(<$t>::$v),*];
            ALL.get(tag as usize).copied()
        }
    };
}

enum_table!(
    alu_from,
    AluOp,
    [
        FAdd, FSub, FMul, FMin, FMax, IAdd, ISub, IMul, UMin, UMax, IMin, IMax, And, Or, Xor, Shl,
        ShrU, ShrS, Rotl,
    ]
);
enum_table!(
    un_from,
    UnOp,
    [Mov, FNeg, FAbs, Not, CvtF2I, CvtI2F, CvtF2U, CvtU2F, FFloor]
);
enum_table!(sfu_from, SfuOp, [Rcp, Rsqrt, Sqrt, Sin, Cos, Ex2, Lg2]);
enum_table!(cmp_from, CmpOp, [Eq, Ne, Lt, Le, Gt, Ge]);
enum_table!(scalar_from, Scalar, [F32, U32, I32]);
enum_table!(space_from, Space, [Global, Shared, Const, Local, Tex]);
enum_table!(atom_from, AtomOp, [Add, Min, Max, Exch]);
enum_table!(
    special_from,
    SpecialReg,
    [TidX, TidY, TidZ, NtidX, NtidY, NtidZ, CtaidX, CtaidY, NctaidX, NctaidY]
);

fn enc_operand(e: &mut Enc, op: &Operand) {
    match op {
        Operand::Reg(r) => {
            e.u8(0);
            e.u32(r.0);
        }
        Operand::Imm(v) => {
            e.u8(1);
            e.u32(v.0);
        }
        Operand::Param(p) => {
            e.u8(2);
            e.u16(*p);
        }
        Operand::Special(s) => {
            e.u8(3);
            e.u8(*s as u8);
        }
    }
}

fn dec_operand(d: &mut Dec) -> Option<Operand> {
    Some(match d.u8()? {
        0 => Operand::Reg(Reg(d.u32()?)),
        1 => Operand::Imm(Value(d.u32()?)),
        2 => Operand::Param(d.u16()?),
        3 => Operand::Special(special_from(d.u8()?)?),
        _ => return None,
    })
}

fn enc_inst(e: &mut Enc, inst: &Inst) {
    match inst {
        Inst::Alu { op, dst, a, b } => {
            e.u8(0);
            e.u8(*op as u8);
            e.u32(dst.0);
            enc_operand(e, a);
            enc_operand(e, b);
        }
        Inst::Ffma { dst, a, b, c } => {
            e.u8(1);
            e.u32(dst.0);
            enc_operand(e, a);
            enc_operand(e, b);
            enc_operand(e, c);
        }
        Inst::Imad { dst, a, b, c } => {
            e.u8(2);
            e.u32(dst.0);
            enc_operand(e, a);
            enc_operand(e, b);
            enc_operand(e, c);
        }
        Inst::Un { op, dst, a } => {
            e.u8(3);
            e.u8(*op as u8);
            e.u32(dst.0);
            enc_operand(e, a);
        }
        Inst::Sfu { op, dst, a } => {
            e.u8(4);
            e.u8(*op as u8);
            e.u32(dst.0);
            enc_operand(e, a);
        }
        Inst::SetP { op, ty, dst, a, b } => {
            e.u8(5);
            e.u8(*op as u8);
            e.u8(*ty as u8);
            e.u32(dst.0);
            enc_operand(e, a);
            enc_operand(e, b);
        }
        Inst::Sel { dst, c, a, b } => {
            e.u8(6);
            e.u32(dst.0);
            enc_operand(e, c);
            enc_operand(e, a);
            enc_operand(e, b);
        }
        Inst::Ld {
            space,
            dst,
            addr,
            off,
        } => {
            e.u8(7);
            e.u8(*space as u8);
            e.u32(dst.0);
            enc_operand(e, addr);
            e.i32(*off);
        }
        Inst::St {
            space,
            addr,
            off,
            src,
        } => {
            e.u8(8);
            e.u8(*space as u8);
            enc_operand(e, addr);
            e.i32(*off);
            enc_operand(e, src);
        }
        Inst::Atom {
            op,
            space,
            dst,
            addr,
            off,
            src,
        } => {
            e.u8(9);
            e.u8(*op as u8);
            e.u8(*space as u8);
            match dst {
                Some(r) => {
                    e.u8(1);
                    e.u32(r.0);
                }
                None => e.u8(0),
            }
            enc_operand(e, addr);
            e.i32(*off);
            enc_operand(e, src);
        }
        Inst::Bra {
            target,
            reconv,
            pred,
        } => {
            e.u8(10);
            e.u32(target.0);
            e.u32(reconv.0);
            match pred {
                Some(p) => {
                    e.u8(1);
                    e.u32(p.reg.0);
                    e.u8(p.negate as u8);
                }
                None => e.u8(0),
            }
        }
        Inst::Bar => e.u8(11),
        Inst::Exit => e.u8(12),
    }
}

fn dec_inst(d: &mut Dec) -> Option<Inst> {
    Some(match d.u8()? {
        0 => Inst::Alu {
            op: alu_from(d.u8()?)?,
            dst: Reg(d.u32()?),
            a: dec_operand(d)?,
            b: dec_operand(d)?,
        },
        1 => Inst::Ffma {
            dst: Reg(d.u32()?),
            a: dec_operand(d)?,
            b: dec_operand(d)?,
            c: dec_operand(d)?,
        },
        2 => Inst::Imad {
            dst: Reg(d.u32()?),
            a: dec_operand(d)?,
            b: dec_operand(d)?,
            c: dec_operand(d)?,
        },
        3 => Inst::Un {
            op: un_from(d.u8()?)?,
            dst: Reg(d.u32()?),
            a: dec_operand(d)?,
        },
        4 => Inst::Sfu {
            op: sfu_from(d.u8()?)?,
            dst: Reg(d.u32()?),
            a: dec_operand(d)?,
        },
        5 => Inst::SetP {
            op: cmp_from(d.u8()?)?,
            ty: scalar_from(d.u8()?)?,
            dst: Reg(d.u32()?),
            a: dec_operand(d)?,
            b: dec_operand(d)?,
        },
        6 => Inst::Sel {
            dst: Reg(d.u32()?),
            c: dec_operand(d)?,
            a: dec_operand(d)?,
            b: dec_operand(d)?,
        },
        7 => Inst::Ld {
            space: space_from(d.u8()?)?,
            dst: Reg(d.u32()?),
            addr: dec_operand(d)?,
            off: d.i32()?,
        },
        8 => Inst::St {
            space: space_from(d.u8()?)?,
            addr: dec_operand(d)?,
            off: d.i32()?,
            src: dec_operand(d)?,
        },
        9 => Inst::Atom {
            op: atom_from(d.u8()?)?,
            space: space_from(d.u8()?)?,
            dst: match d.u8()? {
                0 => None,
                1 => Some(Reg(d.u32()?)),
                _ => return None,
            },
            addr: dec_operand(d)?,
            off: d.i32()?,
            src: dec_operand(d)?,
        },
        10 => Inst::Bra {
            target: Label(d.u32()?),
            reconv: Label(d.u32()?),
            pred: match d.u8()? {
                0 => None,
                1 => Some(Pred {
                    reg: Reg(d.u32()?),
                    negate: match d.u8()? {
                        0 => false,
                        1 => true,
                        _ => return None,
                    },
                }),
                _ => return None,
            },
        },
        11 => Inst::Bar,
        12 => Inst::Exit,
        _ => return None,
    })
}

fn enc_kernel(e: &mut Enc, k: &Kernel) {
    e.str(&k.name);
    e.u32(k.regs_per_thread);
    e.u32(k.smem_bytes);
    e.u16(k.num_params);
    e.u32(k.code.len() as u32);
    for inst in &k.code {
        enc_inst(e, inst);
    }
}

fn dec_kernel(d: &mut Dec) -> Option<Kernel> {
    let name = d.str()?;
    let regs_per_thread = d.u32()?;
    let smem_bytes = d.u32()?;
    let num_params = d.u16()?;
    let n = d.u32()?;
    // Each instruction is at least one tag byte, so `n` can never exceed
    // the bytes left — a cheap guard against allocation-bomb headers.
    if n as usize > d.remaining() {
        return None;
    }
    let mut code = Vec::with_capacity(n as usize);
    for _ in 0..n {
        code.push(dec_inst(d)?);
    }
    Some(Kernel {
        name,
        code,
        regs_per_thread,
        smem_bytes,
        num_params,
    })
}

// ---- launch specs ----------------------------------------------------------

/// A self-contained launch: the kernel, its launch geometry, and the full
/// initial device state, everything the daemon needs to reproduce
/// [`g80_sim::launch`] bit-for-bit. Initial memory contents travel as a
/// sparse `(byte address, word)` list; results come back the same way (the
/// daemon diffs device memory around the launch).
#[derive(Clone, Debug)]
pub struct WireLaunch {
    pub kernel: Kernel,
    pub dims: LaunchDims,
    pub params: Vec<Value>,
    /// Device memory size in bytes (capped at [`MAX_MEM_BYTES`]).
    pub mem_bytes: u32,
    /// Sparse initial writes: word values at word-aligned byte addresses.
    pub writes: Vec<(u32, u32)>,
    /// Constant-bank contents.
    pub const_bank: Vec<u32>,
    /// Texture binding (base byte address, length in bytes), if any.
    pub tex_binding: Option<(u32, u32)>,
}

impl WireLaunch {
    /// A spec with empty memory contents; populate `writes` / `const_bank`
    /// / `tex_binding` as needed.
    pub fn new(kernel: Kernel, dims: LaunchDims, params: Vec<Value>, mem_bytes: u32) -> Self {
        WireLaunch {
            kernel,
            dims,
            params,
            mem_bytes,
            writes: Vec::new(),
            const_bank: Vec::new(),
            tex_binding: None,
        }
    }

    fn encode_into(&self, e: &mut Enc) {
        enc_kernel(e, &self.kernel);
        e.u32(self.dims.grid.0);
        e.u32(self.dims.grid.1);
        e.u32(self.dims.block.0);
        e.u32(self.dims.block.1);
        e.u32(self.dims.block.2);
        e.u32(self.params.len() as u32);
        for p in &self.params {
            e.u32(p.0);
        }
        e.u32(self.mem_bytes);
        e.u32(self.writes.len() as u32);
        for &(a, w) in &self.writes {
            e.u32(a);
            e.u32(w);
        }
        e.u32(self.const_bank.len() as u32);
        for &w in &self.const_bank {
            e.u32(w);
        }
        match self.tex_binding {
            Some((base, len)) => {
                e.u8(1);
                e.u32(base);
                e.u32(len);
            }
            None => e.u8(0),
        }
    }

    fn decode_from(d: &mut Dec) -> Option<Self> {
        let kernel = dec_kernel(d)?;
        let dims = LaunchDims {
            grid: (d.u32()?, d.u32()?),
            block: (d.u32()?, d.u32()?, d.u32()?),
        };
        let n_params = d.u32()?;
        if n_params as usize > d.remaining() / 4 {
            return None;
        }
        let params = (0..n_params)
            .map(|_| d.u32().map(Value))
            .collect::<Option<Vec<_>>>()?;
        let mem_bytes = d.u32()?;
        let n_writes = d.u32()?;
        if n_writes as usize > d.remaining() / 8 {
            return None;
        }
        let mut writes = Vec::with_capacity(n_writes as usize);
        for _ in 0..n_writes {
            writes.push((d.u32()?, d.u32()?));
        }
        let n_const = d.u32()?;
        if n_const as usize > d.remaining() / 4 {
            return None;
        }
        let const_bank = (0..n_const).map(|_| d.u32()).collect::<Option<Vec<_>>>()?;
        let tex_binding = match d.u8()? {
            0 => None,
            1 => Some((d.u32()?, d.u32()?)),
            _ => return None,
        };
        Some(WireLaunch {
            kernel,
            dims,
            params,
            mem_bytes,
            writes,
            const_bank,
            tex_binding,
        })
    }
}

// ---- errors ----------------------------------------------------------------

/// A typed error response. [`g80_sim::LaunchError`]'s variants plus the
/// serve-layer conditions (malformed requests, admission-control verdicts,
/// drain). `Fault` over the wire carries an owned site-name string because
/// the client cannot reconstruct the `&'static str` the daemon saw.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    BadBlockDims(String),
    BadGridDims(String),
    BlockDoesNotFit(String),
    BadParams(String),
    Watchdog {
        kernel: String,
        budget: u64,
        cycles: u64,
        warp_instructions: u64,
    },
    /// An injected fault surfaced as a typed response. `site` is the
    /// [`g80_sim::Site`] name — `"serve.decode"` for request-decode
    /// tampers; launch-layer sites only appear when absorb-and-retry is
    /// disabled daemon-side.
    Fault {
        site: String,
    },
    Panic(String),
    /// The request could not be decoded or fails static validation. The
    /// connection stays open; framing is still synchronized.
    Malformed(String),
    /// The request exceeds a hard per-tenant quota and can never run.
    Rejected(String),
    /// The tenant's admission queue is full; retry later.
    Throttled(String),
    /// The daemon is draining and accepts no further work.
    Shutdown,
    /// The request frame arrived with a failed CRC (on-wire corruption).
    /// The frame was consumed whole, so the connection stays synchronized
    /// and the client re-sends — launches are content-hash keyed, so the
    /// replay is idempotent.
    BadFrame(String),
    /// The daemon is at its connection cap and shed this connection
    /// before the handshake. Reconnect after `retry_after_ms`.
    Overloaded {
        retry_after_ms: u64,
    },
}

impl WireError {
    /// True when this error was manufactured by the fault injector (the
    /// serve-layer analogue of [`g80_sim::LaunchError::is_injected`]):
    /// clients absorb these by resending, mirroring the launch layer's
    /// absorb-and-retry.
    pub fn is_injected(&self) -> bool {
        match self {
            WireError::Fault { .. } => true,
            WireError::Panic(msg) => msg.starts_with("injected panic at "),
            _ => false,
        }
    }

    fn encode_into(&self, e: &mut Enc) {
        match self {
            WireError::BadBlockDims(s) => {
                e.u8(0);
                e.str(s);
            }
            WireError::BadGridDims(s) => {
                e.u8(1);
                e.str(s);
            }
            WireError::BlockDoesNotFit(s) => {
                e.u8(2);
                e.str(s);
            }
            WireError::BadParams(s) => {
                e.u8(3);
                e.str(s);
            }
            WireError::Watchdog {
                kernel,
                budget,
                cycles,
                warp_instructions,
            } => {
                e.u8(4);
                e.str(kernel);
                e.u64(*budget);
                e.u64(*cycles);
                e.u64(*warp_instructions);
            }
            WireError::Fault { site } => {
                e.u8(5);
                e.str(site);
            }
            WireError::Panic(s) => {
                e.u8(6);
                e.str(s);
            }
            WireError::Malformed(s) => {
                e.u8(7);
                e.str(s);
            }
            WireError::Rejected(s) => {
                e.u8(8);
                e.str(s);
            }
            WireError::Throttled(s) => {
                e.u8(9);
                e.str(s);
            }
            WireError::Shutdown => e.u8(10),
            WireError::BadFrame(s) => {
                e.u8(11);
                e.str(s);
            }
            WireError::Overloaded { retry_after_ms } => {
                e.u8(12);
                e.u64(*retry_after_ms);
            }
        }
    }

    fn decode_from(d: &mut Dec) -> Option<Self> {
        Some(match d.u8()? {
            0 => WireError::BadBlockDims(d.str()?),
            1 => WireError::BadGridDims(d.str()?),
            2 => WireError::BlockDoesNotFit(d.str()?),
            3 => WireError::BadParams(d.str()?),
            4 => WireError::Watchdog {
                kernel: d.str()?,
                budget: d.u64()?,
                cycles: d.u64()?,
                warp_instructions: d.u64()?,
            },
            5 => WireError::Fault { site: d.str()? },
            6 => WireError::Panic(d.str()?),
            7 => WireError::Malformed(d.str()?),
            8 => WireError::Rejected(d.str()?),
            9 => WireError::Throttled(d.str()?),
            10 => WireError::Shutdown,
            11 => WireError::BadFrame(d.str()?),
            12 => WireError::Overloaded {
                retry_after_ms: d.u64()?,
            },
            _ => return None,
        })
    }
}

impl From<&LaunchError> for WireError {
    fn from(e: &LaunchError) -> Self {
        match e {
            LaunchError::BadBlockDims(s) => WireError::BadBlockDims(s.clone()),
            LaunchError::BadGridDims(s) => WireError::BadGridDims(s.clone()),
            LaunchError::BlockDoesNotFit(s) => WireError::BlockDoesNotFit(s.clone()),
            LaunchError::BadParams(s) => WireError::BadParams(s.clone()),
            LaunchError::Watchdog {
                kernel,
                budget,
                cycles,
                warp_instructions,
            } => WireError::Watchdog {
                kernel: kernel.clone(),
                budget: *budget,
                cycles: *cycles,
                warp_instructions: *warp_instructions,
            },
            LaunchError::Fault { site } => WireError::Fault {
                site: (*site).to_string(),
            },
            LaunchError::Panic(s) => WireError::Panic(s.clone()),
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadBlockDims(s) => write!(f, "BadBlockDims: {s}"),
            WireError::BadGridDims(s) => write!(f, "BadGridDims: {s}"),
            WireError::BlockDoesNotFit(s) => write!(f, "BlockDoesNotFit: {s}"),
            WireError::BadParams(s) => write!(f, "BadParams: {s}"),
            WireError::Watchdog {
                kernel,
                budget,
                cycles,
                ..
            } => write!(
                f,
                "Watchdog: kernel {kernel} exceeded {budget} cycles (at {cycles})"
            ),
            WireError::Fault { site } => write!(f, "Fault: injected fault at {site}"),
            WireError::Panic(s) => write!(f, "Panic: {s}"),
            WireError::Malformed(s) => write!(f, "Malformed: {s}"),
            WireError::Rejected(s) => write!(f, "Rejected: {s}"),
            WireError::Throttled(s) => write!(f, "Throttled: {s}"),
            WireError::Shutdown => write!(f, "Shutdown: daemon is draining"),
            WireError::BadFrame(s) => write!(f, "BadFrame: {s}"),
            WireError::Overloaded { retry_after_ms } => {
                write!(
                    f,
                    "Overloaded: connection shed, retry after {retry_after_ms} ms"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

// ---- messages --------------------------------------------------------------

/// A client-to-daemon message (one per frame).
#[derive(Clone, Debug)]
pub enum Request {
    /// Opens the conversation: protocol version check plus the tenant name
    /// the admission controller accounts this connection to.
    Hello { version: u16, tenant: String },
    /// One launch; responds [`Response::Launch`] with the report and the
    /// sparse memory delta.
    Launch(WireLaunch),
    /// Independent specs, each on its own device memory; streams
    /// [`Response::Item`] per spec (in order) then [`Response::Done`].
    /// Results carry reports only, no memory deltas.
    Batch(Vec<WireLaunch>),
    /// A tuning sweep: identical execution to `Batch`, tagged separately
    /// so the daemon may order/schedule sweeps differently in future
    /// versions. [`Response::Done`]'s counter delta is what a client feeds
    /// `SweepResult::from_parts`.
    Sweep(Vec<WireLaunch>),
    /// Asks the daemon to drain and exit; responds [`Response::ShutdownOk`].
    Shutdown,
}

fn enc_specs(e: &mut Enc, specs: &[WireLaunch]) {
    e.u32(specs.len() as u32);
    for s in specs {
        s.encode_into(e);
    }
}

fn dec_specs(d: &mut Dec) -> Option<Vec<WireLaunch>> {
    let n = d.u32()?;
    if n as usize > d.remaining() {
        return None;
    }
    (0..n).map(|_| WireLaunch::decode_from(d)).collect()
}

impl Request {
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::with_capacity(256);
        match self {
            Request::Hello { version, tenant } => {
                e.u8(0);
                e.u16(*version);
                e.str(tenant);
            }
            Request::Launch(spec) => {
                e.u8(1);
                spec.encode_into(&mut e);
            }
            Request::Batch(specs) => {
                e.u8(2);
                enc_specs(&mut e, specs);
            }
            Request::Sweep(specs) => {
                e.u8(3);
                enc_specs(&mut e, specs);
            }
            Request::Shutdown => e.u8(4),
        }
        e.0
    }

    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let mut d = Dec(bytes);
        let req = match d.u8()? {
            0 => Request::Hello {
                version: d.u16()?,
                tenant: d.str()?,
            },
            1 => Request::Launch(WireLaunch::decode_from(&mut d)?),
            2 => Request::Batch(dec_specs(&mut d)?),
            3 => Request::Sweep(dec_specs(&mut d)?),
            4 => Request::Shutdown,
            _ => return None,
        };
        if !d.is_empty() {
            return None;
        }
        Some(req)
    }
}

/// A daemon-to-client message (one per frame).
#[derive(Clone, Debug)]
pub enum Response {
    /// Handshake accepted; `version` echoes the daemon's protocol version.
    HelloOk { version: u16 },
    /// Result of a [`Request::Launch`]: the report plus the sparse
    /// `(byte address, word)` delta of device memory across the launch.
    Launch {
        result: Result<(LaunchReport, Vec<(u32, u32)>), WireError>,
    },
    /// One spec's result within a `Batch`/`Sweep` stream.
    Item {
        index: u32,
        result: Result<LaunchReport, WireError>,
    },
    /// Terminates a `Batch`/`Sweep` stream; `counters` is the delta of the
    /// daemon's context's cache counters across the stream (shared by
    /// all tenants — cross-client provenance, see EXPERIMENTS.md), and
    /// `net` the matching delta of its transport-fault counters — the
    /// disconnects/retries/replays the daemon survived while the stream
    /// ran.
    Done {
        counters: MemoCounters,
        net: NetCounters,
    },
    /// Request-level typed failure (decode error, admission verdict,
    /// drain). The connection remains usable.
    Error(WireError),
    /// Drain acknowledged; the daemon exits once in-flight work completes.
    ShutdownOk,
}

fn enc_report_result(e: &mut Enc, r: &Result<LaunchReport, WireError>) {
    match r {
        Ok(report) => {
            e.u8(1);
            report.encode_into(e);
        }
        Err(err) => {
            e.u8(0);
            err.encode_into(e);
        }
    }
}

fn dec_report_result(d: &mut Dec) -> Option<Result<LaunchReport, WireError>> {
    Some(match d.u8()? {
        1 => Ok(LaunchReport::decode_from(d)?),
        0 => Err(WireError::decode_from(d)?),
        _ => return None,
    })
}

impl Response {
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::with_capacity(256);
        match self {
            Response::HelloOk { version } => {
                e.u8(0);
                e.u16(*version);
            }
            Response::Launch { result } => {
                e.u8(1);
                match result {
                    Ok((report, delta)) => {
                        e.u8(1);
                        report.encode_into(&mut e);
                        e.u32(delta.len() as u32);
                        for &(a, w) in delta {
                            e.u32(a);
                            e.u32(w);
                        }
                    }
                    Err(err) => {
                        e.u8(0);
                        err.encode_into(&mut e);
                    }
                }
            }
            Response::Item { index, result } => {
                e.u8(2);
                e.u32(*index);
                enc_report_result(&mut e, result);
            }
            Response::Done { counters, net } => {
                e.u8(3);
                counters.encode_into(&mut e);
                net.encode_into(&mut e);
            }
            Response::Error(err) => {
                e.u8(4);
                err.encode_into(&mut e);
            }
            Response::ShutdownOk => e.u8(5),
        }
        e.0
    }

    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let mut d = Dec(bytes);
        let resp = match d.u8()? {
            0 => Response::HelloOk { version: d.u16()? },
            1 => Response::Launch {
                result: match d.u8()? {
                    1 => {
                        let report = LaunchReport::decode_from(&mut d)?;
                        let n = d.u32()?;
                        if n as usize > d.remaining() / 8 {
                            return None;
                        }
                        let mut delta = Vec::with_capacity(n as usize);
                        for _ in 0..n {
                            delta.push((d.u32()?, d.u32()?));
                        }
                        Ok((report, delta))
                    }
                    0 => Err(WireError::decode_from(&mut d)?),
                    _ => return None,
                },
            },
            2 => Response::Item {
                index: d.u32()?,
                result: dec_report_result(&mut d)?,
            },
            3 => Response::Done {
                counters: MemoCounters::decode_from(&mut d)?,
                net: NetCounters::decode_from(&mut d)?,
            },
            4 => Response::Error(WireError::decode_from(&mut d)?),
            5 => Response::ShutdownOk,
            _ => return None,
        };
        if !d.is_empty() {
            return None;
        }
        Some(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use g80_isa::builder::KernelBuilder;

    fn sample_kernel() -> Kernel {
        let mut b = KernelBuilder::new("proto_saxpy");
        let (x, y, a) = (b.param(), b.param(), b.param());
        let tid = b.tid_x();
        let byte = b.shl(tid, 2u32);
        let xa = b.iadd(byte, x);
        let ya = b.iadd(byte, y);
        let xv = b.ld_global(xa, 0);
        let yv = b.ld_global(ya, 0);
        let r = b.ffma(a, xv, yv);
        b.st_global(ya, 0, r);
        b.build()
    }

    fn sample_spec() -> WireLaunch {
        let mut spec = WireLaunch::new(
            sample_kernel(),
            LaunchDims {
                grid: (2, 1),
                block: (64, 1, 1),
            },
            vec![
                Value::from_u32(0),
                Value::from_u32(512),
                Value::from_f32(2.0),
            ],
            4096,
        );
        spec.writes = vec![(0, 0x3f80_0000), (512, 0x4000_0000)];
        spec.const_bank = vec![7, 8, 9];
        spec.tex_binding = Some((0, 1024));
        spec
    }

    #[test]
    fn kernel_roundtrips_bit_exact() {
        let k = sample_kernel();
        let mut e = Enc::with_capacity(256);
        enc_kernel(&mut e, &k);
        let mut d = Dec(&e.0);
        let back = dec_kernel(&mut d).expect("kernel decodes");
        assert!(d.is_empty());
        assert_eq!(k.name, back.name);
        assert_eq!(k.code, back.code);
        assert_eq!(k.regs_per_thread, back.regs_per_thread);
        assert_eq!(k.smem_bytes, back.smem_bytes);
        assert_eq!(k.num_params, back.num_params);
    }

    #[test]
    fn every_inst_shape_roundtrips() {
        use g80_isa::{AluOp, AtomOp, CmpOp, Scalar, SfuOp, Space, SpecialReg, UnOp};
        let insts = vec![
            Inst::Alu {
                op: AluOp::Rotl,
                dst: Reg(1),
                a: Operand::Special(SpecialReg::NctaidY),
                b: Operand::imm_i(-3),
            },
            Inst::Ffma {
                dst: Reg(2),
                a: Operand::imm_f(1.5),
                b: Reg(3).into(),
                c: Operand::Param(2),
            },
            Inst::Imad {
                dst: Reg(4),
                a: Reg(5).into(),
                b: Reg(6).into(),
                c: Operand::imm_u(9),
            },
            Inst::Un {
                op: UnOp::FFloor,
                dst: Reg(7),
                a: Reg(8).into(),
            },
            Inst::Sfu {
                op: SfuOp::Lg2,
                dst: Reg(9),
                a: Operand::imm_f(8.0),
            },
            Inst::SetP {
                op: CmpOp::Ge,
                ty: Scalar::I32,
                dst: Reg(10),
                a: Reg(11).into(),
                b: Operand::imm_i(-1),
            },
            Inst::Sel {
                dst: Reg(12),
                c: Reg(10).into(),
                a: Reg(11).into(),
                b: Reg(4).into(),
            },
            Inst::Ld {
                space: Space::Tex,
                dst: Reg(13),
                addr: Reg(1).into(),
                off: -8,
            },
            Inst::St {
                space: Space::Shared,
                addr: Reg(1).into(),
                off: 4,
                src: Reg(13).into(),
            },
            Inst::Atom {
                op: AtomOp::Exch,
                space: Space::Global,
                dst: Some(Reg(14)),
                addr: Reg(1).into(),
                off: 0,
                src: Reg(2).into(),
            },
            Inst::Atom {
                op: AtomOp::Add,
                space: Space::Shared,
                dst: None,
                addr: Reg(1).into(),
                off: 0,
                src: Reg(2).into(),
            },
            Inst::Bra {
                target: Label(3),
                reconv: Label(5),
                pred: Some(Pred::if_false(Reg(10))),
            },
            Inst::Bra {
                target: Label(0),
                reconv: Label(0),
                pred: None,
            },
            Inst::Bar,
            Inst::Exit,
        ];
        for inst in insts {
            let mut e = Enc::with_capacity(32);
            enc_inst(&mut e, &inst);
            let mut d = Dec(&e.0);
            assert_eq!(dec_inst(&mut d), Some(inst), "roundtrip of {inst:?}");
            assert!(d.is_empty());
        }
    }

    #[test]
    fn requests_roundtrip() {
        let reqs = vec![
            Request::Hello {
                version: PROTOCOL_VERSION,
                tenant: "probe-fleet".into(),
            },
            Request::Launch(sample_spec()),
            Request::Batch(vec![sample_spec(), sample_spec()]),
            Request::Sweep(vec![sample_spec()]),
            Request::Shutdown,
        ];
        for req in reqs {
            let bytes = req.encode();
            let back = Request::decode(&bytes).expect("request decodes");
            assert_eq!(bytes, back.encode(), "canonical re-encoding");
            match (&req, &back) {
                (Request::Launch(a), Request::Launch(b)) => {
                    assert_eq!(a.kernel.code, b.kernel.code);
                    assert_eq!(a.dims.grid, b.dims.grid);
                    assert_eq!(a.writes, b.writes);
                    assert_eq!(a.const_bank, b.const_bank);
                    assert_eq!(a.tex_binding, b.tex_binding);
                }
                (Request::Hello { tenant: a, .. }, Request::Hello { tenant: b, .. }) => {
                    assert_eq!(a, b)
                }
                _ => {}
            }
        }
    }

    #[test]
    fn error_responses_roundtrip() {
        let errs = vec![
            WireError::BadBlockDims("x".into()),
            WireError::BadGridDims("x".into()),
            WireError::BlockDoesNotFit("x".into()),
            WireError::BadParams("x".into()),
            WireError::Watchdog {
                kernel: "k".into(),
                budget: 1,
                cycles: 2,
                warp_instructions: 3,
            },
            WireError::Fault {
                site: "serve.decode".into(),
            },
            WireError::Panic("boom".into()),
            WireError::Malformed("bad tag".into()),
            WireError::Rejected("too big".into()),
            WireError::Throttled("queue full".into()),
            WireError::Shutdown,
            WireError::BadFrame("crc mismatch".into()),
            WireError::Overloaded { retry_after_ms: 50 },
        ];
        for err in errs {
            let bytes = Response::Error(err.clone()).encode();
            match Response::decode(&bytes) {
                Some(Response::Error(back)) => assert_eq!(err, back),
                other => panic!("expected Error response, got {other:?}"),
            }
        }
    }

    #[test]
    fn truncated_and_trailing_bytes_rejected() {
        let bytes = Request::Launch(sample_spec()).encode();
        assert!(Request::decode(&bytes[..bytes.len() - 1]).is_none());
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(Request::decode(&extended).is_none());
        assert!(Request::decode(&[99]).is_none(), "unknown tag");
    }

    #[test]
    fn frame_roundtrip_and_oversize_header() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b"hello"[..]));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b""[..]));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");

        let bad = (MAX_FRAME_BYTES + 1).to_le_bytes();
        assert!(read_frame(&mut &bad[..]).is_err(), "oversize header");
    }

    #[test]
    fn frame_crc_rejects_any_flipped_bit() {
        let mut clean = Vec::new();
        write_frame(&mut clean, b"integrity").unwrap();
        // Flip each payload byte in turn: every corruption must be caught,
        // and the error must leave the reader at the next frame boundary.
        for i in 4..4 + b"integrity".len() {
            let mut bent = clean.clone();
            bent[i] ^= 0x40;
            let mut r = &bent[..];
            let err = read_frame(&mut r).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "byte {i}");
            assert!(is_crc_mismatch(&err), "byte {i}: untyped error {err}");
            assert!(r.is_empty(), "frame must be fully consumed on CRC failure");
        }
        // A flipped CRC trailer byte is also caught, and the error names
        // what the wire carried as `expected`.
        let n = clean.len();
        let mut bent = clean.clone();
        bent[n - 1] ^= 1;
        let err = read_frame(&mut &bent[..]).unwrap_err();
        let mismatch = err.get_ref().unwrap().downcast_ref::<CrcMismatch>();
        let mismatch = mismatch.expect("typed CrcMismatch");
        assert_eq!(mismatch.got, crc32(b"integrity"));
        assert_eq!(mismatch.expected, crc32(b"integrity") ^ (1 << 24));
    }

    /// An in-memory wire that takes at most `cap` bytes per write call and
    /// counts the calls.
    struct Sink {
        cap: usize,
        calls: usize,
        bytes: Vec<u8>,
    }

    impl Sink {
        fn accepting(cap: usize) -> Self {
            Sink {
                cap,
                calls: 0,
                bytes: Vec::new(),
            }
        }
    }

    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let mut room = self.cap;
            for b in bufs {
                let n = b.len().min(room);
                self.bytes.extend_from_slice(&b[..n]);
                room -= n;
            }
            Ok(self.cap - room)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn hello_frame_bytes_are_pinned() {
        // Length, payload and CRC (zlib's value) of one real message: the
        // layout, the polynomial, init, final xor and both endiannesses
        // cannot drift without this test changing.
        let hello = Request::Hello {
            version: 3,
            tenant: "probe".into(),
        };
        let mut wire = Vec::new();
        write_frame(&mut wire, &hello.encode()).unwrap();
        let hex: String = wire.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, "10000000000300050000000000000070726f6265080a95f1");
    }

    /// One `Done` frame, bytes taken from the commit before the counter
    /// codec moved into `g80-sim`: tag, eight memo counters, four net
    /// counters, in that order, little-endian.
    #[test]
    fn done_frame_bytes_are_pinned() {
        let done = Response::Done {
            counters: MemoCounters {
                hits: 1,
                misses: 2,
                disk_hits: 3,
                disk_misses: 4,
                disk_evictions: 5,
                dedup_fast_blocks: 6,
                dedup_sim_blocks: 7,
                dedup_fallbacks: 8,
            },
            net: NetCounters {
                disconnects: 9,
                frames_retried: 10,
                bytes_resent: 11,
                reconnects: 12,
            },
        };
        let mut wire = Vec::new();
        write_frame(&mut wire, &done.encode()).unwrap();
        let hex: String = wire.iter().map(|b| format!("{b:02x}")).collect();
        let counters: String = (1..=12u64)
            .map(|v| format!("{v:02x}00000000000000"))
            .collect();
        assert_eq!(hex, format!("6100000003{counters}ce8ab4b1"));
    }

    #[test]
    fn clean_frame_is_one_write_call() {
        let payload = vec![0x5au8; 8411];
        let mut sink = Sink::accepting(usize::MAX);
        write_frame(&mut sink, &payload).unwrap();
        write_frame(&mut sink, b"").unwrap();
        assert_eq!(sink.calls, 2, "one write per frame, empty payload included");
        let mut expect = Vec::new();
        expect.extend_from_slice(&8411u32.to_le_bytes());
        expect.extend_from_slice(&payload);
        expect.extend_from_slice(&crc32(&payload).to_le_bytes());
        // An empty payload still frames as `0 | | crc32("")`.
        expect.extend_from_slice(&[0; 8]);
        assert_eq!(sink.bytes, expect);
    }

    #[test]
    fn partial_writes_resume_to_the_exact_frame() {
        let payload: Vec<u8> = (0..1000u32).map(|i| (i * 7) as u8).collect();
        let mut whole = Vec::new();
        write_frame(&mut whole, &payload).unwrap();
        for cap in 1..=7 {
            let mut sink = Sink::accepting(cap);
            write_frame(&mut sink, &payload).unwrap();
            assert_eq!(sink.bytes, whole, "cap {cap}");
            assert_eq!(sink.calls, whole.len().div_ceil(cap), "cap {cap}");
        }
        let mut r = &whole[..];
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&payload[..]));
    }

    #[test]
    fn a_sink_that_accepts_nothing_is_write_zero_not_a_spin() {
        let err = write_frame(&mut Sink::accepting(0), b"stuck").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
    }

    #[test]
    fn injected_classification() {
        assert!(WireError::Fault {
            site: "serve.decode".into()
        }
        .is_injected());
        assert!(WireError::Panic("injected panic at serve.decode".into()).is_injected());
        assert!(!WireError::Panic("genuine bug".into()).is_injected());
        assert!(!WireError::Malformed("bad".into()).is_injected());
    }
}
