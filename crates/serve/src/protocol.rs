//! The `g80-serve` wire protocol: versioned, typed, length-prefixed frames
//! carrying launch requests and streamed responses.
//!
//! Every message is one frame: a little-endian `u32` payload length,
//! that many payload bytes, then a little-endian `u32` CRC-32 of the
//! payload ([`g80_sim::digest::crc32`], added in protocol version 3 so
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
//! failed CRC, a quota rejection or an overload shed all come back as
//! [`Response::Error`] with a typed
//! [`WireError`], and the connection stays usable (a CRC failure
//! consumes exactly one frame — the length field was validated first, so
//! framing stays synchronized). Only a frame whose declared length
//! exceeds [`MAX_FRAME_BYTES`] closes the connection, because framing
//! itself can no longer be trusted.

use g80_isa::{Kernel, Value};
use g80_sim::digest::crc32;
use g80_sim::wire::{self, Enc, Wire};
use g80_sim::{wire_layout, LaunchDims, LaunchError, LaunchReport, MemoCounters, NetCounters};
use std::io::{self, IoSlice, Write};

/// Bumped on any incompatible change to the framing, the message tags, or
/// any embedded layout (including [`g80_sim::KernelStats`]'s).
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
// The v3 frame layout over any Read/Write. `write_frame` is the one place
// `len | payload | crc` is put on a wire and `verify_crc` the one integrity
// check: live connections (`crate::framed`) send and check through them and
// add deadlines. `read_frame` is the plain blocking reader the tests below
// pin the layout with.

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

/// Puts `len | payload | crc32(payload)` on the wire as ONE vectored write
/// (resumed if the sink takes only part), then flushes. On a `TCP_NODELAY`
/// socket three separate writes are three syscalls and three segments, and
/// the peer is woken by a 4-byte header before its payload is even queued.
/// A payload over [`MAX_FRAME_BYTES`] is refused with `InvalidInput`.
pub(crate) fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&l| l <= MAX_FRAME_BYTES)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    let (head, tail) = (len.to_le_bytes(), crc32(payload).to_le_bytes());
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
#[cfg(test)]
fn read_frame(r: &mut impl std::io::Read) -> io::Result<Option<Vec<u8>>> {
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
}

wire_layout! {
    struct WireLaunch {
        kernel: Kernel,
        dims: LaunchDims,
        params: Vec<Value>,
        mem_bytes: u32,
        writes: Vec<(u32, u32)>,
        const_bank: Vec<u32>,
        tex_binding: Option<(u32, u32)>,
    }
}

// ---- errors ----------------------------------------------------------------

/// A typed error response. [`g80_sim::LaunchError`]'s variants plus the
/// serve-layer conditions (malformed requests, admission-control verdicts,
/// drain).
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

// Tag 5 is retired: it carried an injected simulator fault, which no
// daemon raises any more. It is never reused, so a frame that carries it
// does not decode.
wire_layout! {
    enum WireError {
        0 => BadBlockDims(s: String),
        1 => BadGridDims(s: String),
        2 => BlockDoesNotFit(s: String),
        3 => BadParams(s: String),
        4 => Watchdog { kernel: String, budget: u64, cycles: u64, warp_instructions: u64 },
        6 => Panic(s: String),
        7 => Malformed(s: String),
        8 => Rejected(s: String),
        9 => Throttled(s: String),
        10 => Shutdown,
        11 => BadFrame(s: String),
        12 => Overloaded { retry_after_ms: u64 },
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

wire_layout! {
    enum Request {
        0 => Hello { version: u16, tenant: String },
        1 => Launch(spec: WireLaunch),
        2 => Batch(specs: Vec<WireLaunch>),
        3 => Sweep(specs: Vec<WireLaunch>),
        4 => Shutdown,
    }
}

impl Request {
    pub fn encode(&self) -> Vec<u8> {
        wire::to_bytes(self, 256)
    }

    pub fn decode(bytes: &[u8]) -> Option<Self> {
        wire::from_bytes(bytes)
    }
}

/// A `Launch`, `Batch` or `Sweep` request over borrowed specs: what the
/// client sends, so that no spec is copied into a [`Request`] first.
#[derive(Clone, Copy)]
pub(crate) enum Specs<'a> {
    Launch(&'a WireLaunch),
    Batch(&'a [WireLaunch]),
    Sweep(&'a [WireLaunch]),
}

impl Specs<'_> {
    /// Tag and body: the bytes [`Request::encode`] gives for the owned
    /// request, exactly.
    pub(crate) fn encode(self) -> Vec<u8> {
        let mut e = Enc::with_capacity(256);
        match self {
            Specs::Launch(spec) => {
                e.u8(1);
                spec.put(&mut e);
            }
            Specs::Batch(specs) => {
                e.u8(2);
                wire::put_slice(specs, &mut e);
            }
            Specs::Sweep(specs) => {
                e.u8(3);
                wire::put_slice(specs, &mut e);
            }
        }
        e.0
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

wire_layout! {
    enum Response {
        0 => HelloOk { version: u16 },
        1 => Launch { result: Result<(LaunchReport, Vec<(u32, u32)>), WireError> },
        2 => Item { index: u32, result: Result<LaunchReport, WireError> },
        3 => Done { counters: MemoCounters, net: NetCounters },
        4 => Error(err: WireError),
        5 => ShutdownOk,
    }
}

impl Response {
    pub fn encode(&self) -> Vec<u8> {
        wire::to_bytes(self, 256)
    }

    pub fn decode(bytes: &[u8]) -> Option<Self> {
        wire::from_bytes(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use g80_isa::builder::KernelBuilder;
    use g80_isa::{
        AluOp, AtomOp, CmpOp, Inst, Label, Operand, Pred, Reg, Scalar, SfuOp, Space, SpecialReg,
        UnOp,
    };
    use g80_sim::wire::{assert_wire_mutations_rejected, from_bytes, to_bytes};

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

    /// `sample_spec` carrying `n` initial writes.
    fn spec_with_writes(n: u32) -> WireLaunch {
        let mut spec = sample_spec();
        spec.writes = (0..n)
            .map(|i| (i * 4, i.wrapping_mul(0x9E37_79B9)))
            .collect();
        spec
    }

    #[test]
    fn kernel_roundtrips_bit_exact() {
        let k = sample_kernel();
        let back = from_bytes::<Kernel>(&to_bytes(&k, 256)).expect("kernel decodes");
        assert_eq!(k.name, back.name);
        assert_eq!(k.code, back.code);
        assert_eq!(k.regs_per_thread, back.regs_per_thread);
        assert_eq!(k.smem_bytes, back.smem_bytes);
        assert_eq!(k.num_params, back.num_params);
    }

    /// One instruction of every shape the codec distinguishes.
    fn every_inst_shape() -> Vec<Inst> {
        vec![
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
        ]
    }

    #[test]
    fn every_inst_shape_roundtrips() {
        for inst in every_inst_shape() {
            let back = from_bytes::<Inst>(&to_bytes(&inst, 32));
            assert_eq!(back, Some(inst), "roundtrip of {inst:?}");
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
    fn every_message_mutation_is_rejected_or_canonical() {
        let requests = [
            Request::Hello {
                version: PROTOCOL_VERSION,
                tenant: "probe".into(),
            },
            Request::Launch(every_shape_spec()),
            Request::Launch(spec_with_writes(64)),
            Request::Batch(vec![every_shape_spec(), bare_spec()]),
            Request::Sweep(vec![bare_spec()]),
            Request::Shutdown,
        ];
        for req in &requests {
            assert_wire_mutations_rejected(req);
        }
        let err = || WireError::Panic("serve.decode".into());
        let responses = [
            Response::HelloOk { version: 3 },
            Response::Launch {
                result: Ok((pinned_report(), vec![(0, 1), (4, 2)])),
            },
            Response::Launch {
                result: Ok((pinned_report(), (0..64).map(|i| (i * 4, !i)).collect())),
            },
            Response::Launch { result: Err(err()) },
            Response::Item {
                index: 1,
                result: Ok(pinned_report()),
            },
            Response::Item {
                index: 2,
                result: Err(err()),
            },
            Response::Done {
                counters: MemoCounters::default(),
                net: NetCounters::default(),
            },
            Response::Error(WireError::Shutdown),
            Response::ShutdownOk,
        ];
        for resp in &responses {
            assert_wire_mutations_rejected(resp);
        }
    }

    #[test]
    fn borrowed_specs_encode_as_the_owned_request() {
        let specs = vec![every_shape_spec(), bare_spec(), spec_with_writes(1024)];
        for spec in &specs {
            let owned = Request::Launch(spec.clone()).encode();
            assert_eq!(Specs::Launch(spec).encode(), owned);
        }
        for n in [0, 1, specs.len()] {
            let specs = &specs[..n];
            let owned = Request::Batch(specs.to_vec()).encode();
            assert_eq!(Specs::Batch(specs).encode(), owned, "{n} specs");
            let owned = Request::Sweep(specs.to_vec()).encode();
            assert_eq!(Specs::Sweep(specs).encode(), owned, "{n} specs");
        }
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

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The report `report::tests::report_bytes_are_pinned` pins, as hex.
    /// Built from bytes because `KernelStats` has crate-private fields.
    fn pinned_report_hex() -> String {
        let counters: String = (1..=15u64)
            .map(|v| format!("{v:02x}00000000000000"))
            .collect();
        format!(
            "030002{counters}0100000000000000724d00000000000000491d7e551c9f6e3e0500000000000000{}{}",
            "00".repeat(120),
            "040000000000000020000000010000002000000020000000000000009a9999999999f53f\
             0000000000005040100000001800000020000000010000000f000000010000000000000000000000"
        )
    }

    fn pinned_report() -> LaunchReport {
        let s = pinned_report_hex();
        let bytes: Vec<u8> = (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect();
        LaunchReport::decode(&bytes).expect("pinned report decodes")
    }

    /// A spec whose kernel holds one instruction of every shape, with
    /// writes, a const bank and a texture binding.
    fn every_shape_spec() -> WireLaunch {
        let kernel = Kernel {
            name: "every_shape".into(),
            code: every_inst_shape(),
            regs_per_thread: 15,
            smem_bytes: 256,
            num_params: 3,
        };
        let mut spec = sample_spec();
        spec.kernel = kernel;
        spec
    }

    /// The smallest spec: one `Exit`, no params, memory or binding.
    fn bare_spec() -> WireLaunch {
        let kernel = Kernel {
            name: "bare".into(),
            code: vec![Inst::Exit],
            regs_per_thread: 1,
            smem_bytes: 0,
            num_params: 0,
        };
        let dims = LaunchDims {
            grid: (1, 1),
            block: (32, 1, 1),
        };
        WireLaunch::new(kernel, dims, Vec::new(), 64)
    }

    /// The every-shape spec's bytes, as `Request::Launch` and `Batch` carry
    /// them after their tags.
    const EVERY_SHAPE_SPEC: &str = "\
        0b0000000000000065766572795f73686170650f0000000001000003000f0000\
        00001201000000030901fdffffff0102000000010000c03f0003000000020200\
        0204000000000500000000060000000109000000030807000000000800000004\
        060900000001000000410505020a000000000b00000001ffffffff060c000000\
        000a000000000b000000000400000007040d0000000001000000f8ffffff0801\
        000100000004000000000d000000090300010e00000000010000000000000000\
        020000000900010000010000000000000000020000000a030000000500000001\
        0a000000010a0000000000000000000b0c020000000100000040000000010000\
        0001000000030000000000000000020000000000400010000002000000000000\
        000000803f000200000000004003000000070000000800000009000000010000\
        000000040000";

    #[test]
    fn launch_request_bytes_are_pinned() {
        let launch = Request::Launch(every_shape_spec());
        assert_eq!(hex(&launch.encode()), format!("01{EVERY_SHAPE_SPEC}"));
    }

    #[test]
    fn batch_request_bytes_are_pinned() {
        let batch = Request::Batch(vec![every_shape_spec(), bare_spec()]);
        let bare = "04000000000000006261726501000000000000000000010000000c01000000\
                    0100000020000000010000000100000000000000400000000000000000000000\
                    00";
        assert_eq!(
            hex(&batch.encode()),
            format!("0202000000{EVERY_SHAPE_SPEC}{bare}")
        );
    }

    #[test]
    fn launch_response_bytes_are_pinned() {
        let ok = Response::Launch {
            result: Ok((pinned_report(), vec![(0, 1), (4, 0xdead_beef)])),
        };
        let err = Response::Launch {
            result: Err(WireError::Watchdog {
                kernel: "spin".into(),
                budget: 1000,
                cycles: 1004,
                warp_instructions: 251,
            }),
        };
        let report = pinned_report_hex();
        let delta = "02000000000000000100000004000000efbeadde";
        assert_eq!(hex(&ok.encode()), format!("0101{report}{delta}"));
        assert_eq!(
            hex(&err.encode()),
            "01000404000000000000007370696ee803000000000000ec03000000000000fb00000000000000"
        );
    }

    #[test]
    fn item_response_bytes_are_pinned() {
        let ok = Response::Item {
            index: 7,
            result: Ok(pinned_report()),
        };
        let err = Response::Item {
            index: 8,
            result: Err(WireError::Panic("serve.decode".into())),
        };
        let report = pinned_report_hex();
        assert_eq!(hex(&ok.encode()), format!("020700000001{report}"));
        assert_eq!(
            hex(&err.encode()),
            "020800000000060c0000000000000073657276652e6465636f6465"
        );
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

    /// Tag 5 once carried an injected fault's site. It is retired, not
    /// reused: the item above with its error tag set to 5, framed whole,
    /// reads as no response.
    #[test]
    fn retired_fault_tag_does_not_decode() {
        let mut payload = Response::Item {
            index: 8,
            result: Err(WireError::Panic("serve.decode".into())),
        }
        .encode();
        assert_eq!(payload[6], 6, "the error tag follows the Item header");
        payload[6] = 5;
        let mut frame = Vec::new();
        write_frame(&mut frame, &payload).unwrap();
        let got = read_frame(&mut &frame[..]).unwrap().expect("one frame");
        assert!(Response::decode(&got).is_none(), "tag 5 decoded");
    }
}
