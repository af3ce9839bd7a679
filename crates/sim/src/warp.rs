//! Warp state: the SIMD reconvergence stack, per-lane registers, and the
//! per-warp scoreboard.
//!
//! The GeForce 8800 executes 32-thread warps in SIMD fashion with a
//! divergence stack: when a branch splits a warp, one path runs to the
//! reconvergence point, then the other, then the full warp resumes
//! (Section 3.2 / optimization principle 3). The scoreboard tracks when each
//! architectural register's pending write completes, which is what lets
//! independent instructions (and other warps) cover memory latency.

use g80_isa::{
    eval_alu_row, eval_cmp_row, eval_ffma_row, eval_imad_row, eval_sel_row, eval_sfu_row,
    eval_un_row, fold_alu, fold_cmp, fold_ffma, fold_imad, fold_sel, fold_sfu, fold_un, true_mask,
    Row,
};
use g80_isa::{Inst, LaneRow, Operand, SpecialReg, Value};

/// Sentinel "no reconvergence point".
pub(crate) const NO_RPC: u32 = u32::MAX;

/// One entry of the divergence stack.
#[derive(Clone, Debug)]
pub struct Frame {
    /// Next instruction index for this path.
    pub pc: u32,
    /// Reconvergence PC: when `pc == rpc`, the path has finished and pops.
    pub rpc: u32,
    /// Lanes executing this path.
    pub mask: u32,
}

/// What produced a register's pending value (for stall attribution).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum RegSource {
    Alu,
    Memory,
}

/// Per-warp execution state.
pub struct Warp {
    /// Divergence stack; the top entry is the executing path.
    pub frames: Vec<Frame>,
    /// Register file backing store: `regs[r]` is register `r`'s 32-lane row.
    /// Only valid for a register whose shape is [`LaneRow::Full`]; a
    /// `Uniform`/`Affine` shape supersedes the backing row (which may hold
    /// stale lanes) until [`Warp::materialize`] expands it.
    pub regs: Vec<Row>,
    /// Row-shape tag per register (see [`LaneRow`]). In an eager warp
    /// ([`Warp::new_eager`]) every entry stays `Full` forever and the
    /// register file is a plain materialized array.
    pub shapes: Vec<LaneRow>,
    /// Whether this warp tracks row shapes: a constant fixed by the
    /// constructor, read again only by [`Warp::reset`].
    rows_enabled: bool,
    /// Shapes of the per-lane tid.{x,y,z} rows, classified once at
    /// construction (`Full` placeholders in an eager warp).
    pub(crate) tid_shape: [LaneRow; 3],
    /// Scoreboard: cycle at which each register's pending write lands.
    pub reg_ready: Vec<u64>,
    /// What kind of instruction produced each pending write.
    pub reg_source: Vec<RegSource>,
    /// Per-lane local (spill) memory, lazily grown, word-indexed.
    pub local: Vec<Vec<Value>>,
    /// Lanes that exist (partial warps at the end of a block have fewer):
    /// always a prefix `0..n` of the warp. An active mask equal to it means
    /// "no divergence", the condition every shaped fast path runs under.
    pub init_mask: u32,
    /// Parked at a barrier, waiting for the rest of the block.
    pub at_barrier: bool,
    /// Earliest cycle this warp may issue again (barrier pipeline drain).
    pub resume_at: u64,
    /// All lanes exited.
    pub done: bool,
    /// Per-lane (tid.x, tid.y, tid.z).
    pub tids: Vec<(u32, u32, u32)>,
    /// Block coordinates (ctaid.x, ctaid.y).
    pub ctaid: (u32, u32),
    /// Block dimensions.
    pub ntid: (u32, u32, u32),
    /// Grid dimensions.
    pub nctaid: (u32, u32),
}

impl Warp {
    /// Creates warp `warp_idx` of a block, tracking row shapes: the warp the
    /// product engine and witness replay run on.
    pub fn new(
        warp_idx: u32,
        nregs: u32,
        block_dim: (u32, u32, u32),
        ctaid: (u32, u32),
        nctaid: (u32, u32),
    ) -> Self {
        Self::build(warp_idx, nregs, block_dim, ctaid, nctaid, true)
    }

    /// Creates warp `warp_idx` of a block with every register row eagerly
    /// materialized: shapes start and stay all-`Full`, so every shape-aware
    /// accessor reduces to a backing-store read. The reference engine runs
    /// on these, which keeps it independent of the shape algebra it checks.
    pub fn new_eager(
        warp_idx: u32,
        nregs: u32,
        block_dim: (u32, u32, u32),
        ctaid: (u32, u32),
        nctaid: (u32, u32),
    ) -> Self {
        Self::build(warp_idx, nregs, block_dim, ctaid, nctaid, false)
    }

    fn build(
        warp_idx: u32,
        nregs: u32,
        block_dim: (u32, u32, u32),
        ctaid: (u32, u32),
        nctaid: (u32, u32),
        rows_enabled: bool,
    ) -> Self {
        let threads_per_block = block_dim.0 * block_dim.1 * block_dim.2;
        let base = warp_idx * 32;
        let mut mask = 0u32;
        let mut tids = Vec::with_capacity(32);
        for lane in 0..32 {
            let lin = base + lane;
            if lin < threads_per_block {
                mask |= 1 << lane;
                let tx = lin % block_dim.0;
                let ty = (lin / block_dim.0) % block_dim.1;
                let tz = lin / (block_dim.0 * block_dim.1);
                tids.push((tx, ty, tz));
            } else {
                tids.push((0, 0, 0));
            }
        }
        let tid_shape = if rows_enabled {
            // Over the lanes that exist: the dead tail of a partial warp is
            // never read, so it must not break the row.
            let live = mask.count_ones() as usize;
            let classify_dim = |pick: fn(&(u32, u32, u32)) -> u32| {
                let mut row = [Value::ZERO; 32];
                for (lane, t) in tids.iter().enumerate() {
                    row[lane] = Value::from_u32(pick(t));
                }
                LaneRow::classify(&row, live)
            };
            [
                classify_dim(|t| t.0),
                classify_dim(|t| t.1),
                classify_dim(|t| t.2),
            ]
        } else {
            [LaneRow::Full; 3]
        };
        let init_shape = if rows_enabled {
            LaneRow::Uniform(Value::ZERO)
        } else {
            LaneRow::Full
        };
        Warp {
            frames: vec![Frame {
                pc: 0,
                rpc: NO_RPC,
                mask,
            }],
            regs: vec![[Value::ZERO; 32]; nregs as usize],
            shapes: vec![init_shape; nregs as usize],
            rows_enabled,
            tid_shape,
            reg_ready: vec![0; nregs as usize],
            reg_source: vec![RegSource::Alu; nregs as usize],
            local: vec![Vec::new(); 32],
            init_mask: mask,
            at_barrier: false,
            resume_at: 0,
            done: mask == 0,
            tids,
            ctaid,
            ntid: block_dim,
            nctaid,
        }
    }

    /// Reinitializes this warp for a new block of the same launch, reusing
    /// the register file, scoreboard, and local-memory allocations.
    /// Equivalent to `Warp::new` with the same geometry (block dimensions
    /// and warp index are launch constants, so `tids` and `init_mask` carry
    /// over) but allocation-free.
    pub fn reset(&mut self, ctaid: (u32, u32)) {
        self.frames.clear();
        self.frames.push(Frame {
            pc: 0,
            rpc: NO_RPC,
            mask: self.init_mask,
        });
        if self.rows_enabled {
            // All-zero registers are one Uniform tag each; the backing rows
            // go stale and are re-expanded on demand, so the O(nregs * 32)
            // fill disappears from the per-block reset path.
            self.shapes.fill(LaneRow::Uniform(Value::ZERO));
        } else {
            self.regs.fill([Value::ZERO; 32]);
        }
        self.reg_ready.fill(0);
        self.reg_source.fill(RegSource::Alu);
        for lane in &mut self.local {
            lane.clear(); // reads lazily re-zero (local_read resizes with ZERO)
        }
        self.at_barrier = false;
        self.resume_at = 0;
        self.done = self.init_mask == 0;
        self.ctaid = ctaid;
    }

    /// Pops finished paths; afterwards the top frame (if any) is executable.
    /// Returns false if the warp has fully retired.
    pub fn settle(&mut self) -> bool {
        while let Some(top) = self.frames.last() {
            if top.mask == 0 || (top.rpc != NO_RPC && top.pc == top.rpc) {
                self.frames.pop();
            } else {
                return true;
            }
        }
        self.done = true;
        false
    }

    /// Current PC (top frame). Call only after a successful [`Warp::settle`].
    pub fn pc(&self) -> u32 {
        self.frames.last().expect("retired warp has no pc").pc
    }

    /// Currently active lanes.
    pub fn active_mask(&self) -> u32 {
        self.frames.last().map_or(0, |f| f.mask)
    }

    /// Advances the top frame to the next sequential instruction.
    pub fn advance(&mut self) {
        self.frames.last_mut().unwrap().pc += 1;
    }

    /// Reads a register lane through its shape.
    #[inline]
    pub fn reg(&self, r: u32, lane: usize) -> Value {
        self.shapes[r as usize]
            .lane(lane)
            .unwrap_or_else(|| self.regs[r as usize][lane])
    }

    /// Expands a register's shape into the backing row (no-op when already
    /// `Full`). After this, `regs[r]` is valid and the shape is `Full`.
    #[inline]
    pub fn materialize(&mut self, r: u32) {
        if self.shapes[r as usize] != LaneRow::Full {
            self.expand_reg(r);
        }
    }

    /// [`Warp::materialize`]'s expansion, out of line: the check stays in
    /// every caller, the affine walk in one place.
    #[inline(never)]
    fn expand_reg(&mut self, r: u32) {
        let shape = std::mem::replace(&mut self.shapes[r as usize], LaneRow::Full);
        shape.expand_into(&mut self.regs[r as usize]);
    }

    /// Writes a register lane (materializing the row first so the other
    /// lanes keep their shape-implied values).
    #[inline]
    pub fn set_reg(&mut self, r: u32, lane: usize, v: Value) {
        self.materialize(r);
        self.regs[r as usize][lane] = v;
    }

    /// Records a folded whole-row write: `r` becomes `shape` without
    /// touching the backing store. Only valid when every live lane is
    /// active (`mask == init_mask`; dead lanes hold nothing anyone reads) —
    /// a partial write must go through `Warp::dst_row`/[`Warp::set_reg`]
    /// so inactive lanes keep their prior values.
    #[inline]
    pub fn set_shape(&mut self, r: u32, shape: LaneRow) {
        debug_assert_ne!(shape, LaneRow::Full);
        self.shapes[r as usize] = shape;
    }

    /// A register's full 32-lane row, mutably (materializing it first): how
    /// tests load a row; instructions write through [`Warp::dst_row`].
    #[cfg(test)]
    pub(crate) fn reg_row_mut(&mut self, r: u32) -> &mut Row {
        self.materialize(r);
        &mut self.regs[r as usize]
    }

    /// Register `r`'s row, tagged `Full`, for an instruction to write the
    /// lanes of `mask` into. When that is every live lane (`mask ==
    /// init_mask`) the old shape is dead and is not materialized: the row is
    /// overwritten, and the dead tail of a partial warp, which nothing reads,
    /// keeps whatever it held. A partial write expands the old shape first,
    /// so the inactive lanes keep their values.
    #[inline(always)]
    pub(crate) fn dst_row(&mut self, r: u32, mask: u32) -> &mut Row {
        if mask != self.init_mask {
            self.materialize(r);
        }
        self.shapes[r as usize] = LaneRow::Full;
        &mut self.regs[r as usize]
    }

    /// The shape of an operand row. `Full` means "no structure known"; the
    /// fold fast paths fall back to the operand's rows in that case.
    #[inline]
    pub fn operand_shape(&self, op: Operand, params: &[Value]) -> LaneRow {
        match op {
            Operand::Reg(r) => self.shapes[r.0 as usize],
            Operand::Imm(v) => LaneRow::Uniform(v),
            Operand::Param(i) => LaneRow::Uniform(params[i as usize]),
            Operand::Special(s) => self.special_shape(s),
        }
    }

    /// The shape of a special-register row. Block/grid geometry registers
    /// are uniform across the warp by definition; tid rows were classified
    /// at construction.
    #[inline]
    pub fn special_shape(&self, s: SpecialReg) -> LaneRow {
        match s {
            SpecialReg::TidX => self.tid_shape[0],
            SpecialReg::TidY => self.tid_shape[1],
            SpecialReg::TidZ => self.tid_shape[2],
            SpecialReg::NtidX => LaneRow::Uniform(Value::from_u32(self.ntid.0)),
            SpecialReg::NtidY => LaneRow::Uniform(Value::from_u32(self.ntid.1)),
            SpecialReg::NtidZ => LaneRow::Uniform(Value::from_u32(self.ntid.2)),
            SpecialReg::CtaidX => LaneRow::Uniform(Value::from_u32(self.ctaid.0)),
            SpecialReg::CtaidY => LaneRow::Uniform(Value::from_u32(self.ctaid.1)),
            SpecialReg::NctaidX => LaneRow::Uniform(Value::from_u32(self.nctaid.0)),
            SpecialReg::NctaidY => LaneRow::Uniform(Value::from_u32(self.nctaid.1)),
        }
    }

    /// The taken-lane mask of a predicated branch: active lanes whose
    /// predicate register (xor `negate`) is true. O(1) for a uniform
    /// predicate row, one pass over the backing row for a `Full` one, and
    /// bit-identical to the per-lane scan always.
    pub fn taken_mask(&self, r: u32, negate: bool, mask: u32) -> u32 {
        match self.shapes[r as usize] {
            LaneRow::Uniform(v) => {
                if v.as_bool() != negate {
                    mask
                } else {
                    0
                }
            }
            LaneRow::Full => {
                let taken = true_mask(&self.regs[r as usize]);
                (if negate { !taken } else { taken }) & mask
            }
            shape => {
                let mut taken = 0u32;
                for lane in 0..32 {
                    if (mask >> lane) & 1 == 1 {
                        let pv = shape
                            .lane(lane)
                            .unwrap_or_else(|| self.regs[r as usize][lane]);
                        if pv.as_bool() != negate {
                            taken |= 1 << lane;
                        }
                    }
                }
                taken
            }
        }
    }

    /// An operand's 32 lanes, read where they live: a `Full` register's
    /// row is borrowed from the register file; any other operand (a shaped
    /// register, an immediate, a parameter, a special register) is expanded
    /// into `tmp`, which the caller owns. The kind is resolved once per
    /// instruction, not per lane, and no row is returned by value.
    #[inline(always)]
    pub(crate) fn operand_row<'a>(
        &'a self,
        op: Operand,
        params: &[Value],
        tmp: &'a mut Row,
    ) -> &'a Row {
        match self.expand_operand(op, params, tmp) {
            Some(r) => &self.regs[r],
            None => tmp,
        }
    }

    /// The one resolution of a whole-row operand read: `Some(r)` when `op`
    /// is register `r` held `Full` (read its row in place), else `None`
    /// with the operand's lanes in `tmp`. Operand reads are pure, so
    /// expanding lanes that are inactive is harmless.
    #[inline(always)]
    fn expand_operand(&self, op: Operand, params: &[Value], tmp: &mut Row) -> Option<usize> {
        match op {
            Operand::Reg(r) if self.shapes[r.0 as usize] == LaneRow::Full => {
                return Some(r.0 as usize)
            }
            Operand::Imm(v) => tmp.fill(v),
            Operand::Param(i) => tmp.fill(params[i as usize]),
            _ => self.expand_shaped(op, tmp),
        }
        None
    }

    /// Expands a shaped register or a special register into `tmp`. Out of
    /// line: inlined at every operand, its affine walk grew the timed
    /// engine's and replay's code by half and cost `suite_table3` ≈ 5 %.
    #[inline(never)]
    fn expand_shaped(&self, op: Operand, tmp: &mut Row) {
        let shape = match op {
            Operand::Reg(r) => self.shapes[r.0 as usize],
            Operand::Special(s) => self.special_shape(s),
            Operand::Imm(_) | Operand::Param(_) => unreachable!("expanded inline"),
        };
        if !shape.expand_into(tmp) {
            for (lane, v) in tmp.iter_mut().enumerate() {
                *v = self.operand(op, lane, &[]);
            }
        }
    }

    /// A register-only instruction's rows: its destination `dst`, to be
    /// written under `mask` by [`Warp::dst_row`]'s rule (the old shape is
    /// expanded for a partial write only), and its sources `ops` beside it;
    /// slots past `ops` read `tmp`. A `Full` source register is borrowed
    /// from the register file, on either side of the destination
    /// (`split_at_mut`); a source that *is* the destination is copied into
    /// its `tmp` row, and any other operand is expanded into its `tmp` row,
    /// all before the destination is retagged.
    #[inline(always)]
    fn reg_only_rows<'a>(
        &'a mut self,
        dst: u32,
        ops: &[Operand],
        mask: u32,
        params: &[Value],
        tmp: &'a mut [Row; 3],
    ) -> (&'a mut Row, [&'a Row; 3]) {
        let d = dst as usize;
        if mask != self.init_mask {
            self.materialize(dst);
        }
        let mut borrowed = [None; 3];
        for (i, &op) in ops.iter().enumerate() {
            match self.expand_operand(op, params, &mut tmp[i]) {
                Some(r) if r == d => tmp[i] = self.regs[d],
                r => borrowed[i] = r,
            }
        }
        self.shapes[d] = LaneRow::Full;
        let (below, rest) = self.regs.split_at_mut(d);
        let (dst_row, above) = rest
            .split_first_mut()
            .expect("destination in the register file");
        let tmp: &'a [Row; 3] = tmp;
        let srcs = std::array::from_fn(|i| match borrowed[i] {
            None => &tmp[i],
            Some(r) if r < d => &below[r],
            Some(r) => &above[r - d - 1],
        });
        (dst_row, srcs)
    }

    /// Evaluates an operand for one lane.
    pub fn operand(&self, op: Operand, lane: usize, params: &[Value]) -> Value {
        match op {
            Operand::Reg(r) => self.reg(r.0, lane),
            Operand::Imm(v) => v,
            Operand::Param(i) => params[i as usize],
            Operand::Special(s) => {
                let (tx, ty, tz) = self.tids[lane];
                Value::from_u32(match s {
                    SpecialReg::TidX => tx,
                    SpecialReg::TidY => ty,
                    SpecialReg::TidZ => tz,
                    SpecialReg::NtidX => self.ntid.0,
                    SpecialReg::NtidY => self.ntid.1,
                    SpecialReg::NtidZ => self.ntid.2,
                    SpecialReg::CtaidX => self.ctaid.0,
                    SpecialReg::CtaidY => self.ctaid.1,
                    SpecialReg::NctaidX => self.nctaid.0,
                    SpecialReg::NctaidY => self.nctaid.1,
                })
            }
        }
    }

    /// What a register-only instruction (`Alu`, `Ffma`, `Imad`, `Un`, `Sfu`,
    /// `SetP`, `Sel`) does to this warp under the active `mask` — the one
    /// statement of it outside the oracle; the timed engine and witness
    /// replay only add *when* and *whether it matched*. With every lane that
    /// exists active (no divergence; the dead tail of a partial warp is never
    /// read) and operand shapes that fold, the whole result row is one
    /// [`LaneRow`] tag — no lane evaluation, no backing-store write; folds
    /// are bit-exact by construction (`g80_isa::row` tests). Otherwise the
    /// row is evaluated under `mask` over operand rows read in place
    /// ([`Warp::reg_only_rows`]), inactive lanes keeping their values.
    /// Either way the warp advances and `shapes[dst]` says which happened
    /// (`Full` = evaluated). Returns `false`, with nothing touched, for any
    /// other instruction.
    ///
    /// Inlined into both callers, returning one bit, with no operand row in
    /// a closure, tuple or return value and none copied but a source that is
    /// the destination: a row-returning closure here cost witness replay
    /// ≈ 20 % on `matmul_walk`, and by-value operand rows plus the
    /// destination's dead materialize ≈ 14 % of `suite_table3`'s samples.
    /// A fold leaves before the operand list is built: carried through the
    /// fold path, it cost a loop that only folds (`serve_mix`'s `sim`
    /// kernel) ≈ 6 %.
    #[inline(always)]
    pub(crate) fn exec_reg_only(
        &mut self,
        inst: &Inst,
        mask: u32,
        params: &[Value],
        tmp: &mut [Row; 3],
    ) -> bool {
        // A diverged warp folds nothing: its operands count as `Full`.
        let fold = mask == self.init_mask;
        let shape = |w: &Warp, op| {
            if fold {
                w.operand_shape(op, params)
            } else {
                LaneRow::Full
            }
        };
        let (dst, folded) = match *inst {
            Inst::Alu { op, dst, a, b } => (dst, fold_alu(op, shape(self, a), shape(self, b))),
            Inst::Ffma { dst, a, b, c } => (
                dst,
                fold_ffma(shape(self, a), shape(self, b), shape(self, c)),
            ),
            Inst::Imad { dst, a, b, c } => (
                dst,
                fold_imad(shape(self, a), shape(self, b), shape(self, c)),
            ),
            Inst::Un { op, dst, a } => (dst, fold_un(op, shape(self, a))),
            Inst::Sfu { op, dst, a } => (dst, fold_sfu(op, shape(self, a))),
            Inst::SetP { op, ty, dst, a, b } => {
                (dst, fold_cmp(op, ty, shape(self, a), shape(self, b)))
            }
            Inst::Sel { dst, c, a, b } => (
                dst,
                fold_sel(shape(self, c), shape(self, a), shape(self, b)),
            ),
            _ => return false,
        };
        if let Some(tag) = folded {
            self.set_shape(dst.0, tag);
        } else {
            // What an unused operand slot holds; `n` keeps it unread.
            let none = Operand::Imm(Value::ZERO);
            let (ops, n) = match *inst {
                Inst::Alu { a, b, .. } | Inst::SetP { a, b, .. } => ([a, b, none], 2),
                Inst::Ffma { a, b, c, .. } | Inst::Imad { a, b, c, .. } => ([a, b, c], 3),
                Inst::Sel { c, a, b, .. } => ([c, a, b], 3),
                Inst::Un { a, .. } | Inst::Sfu { a, .. } => ([a, none, none], 1),
                _ => unreachable!("register-only kinds only"),
            };
            let (d, [a, b, c]) = self.reg_only_rows(dst.0, &ops[..n], mask, params, tmp);
            match *inst {
                Inst::Alu { op, .. } => eval_alu_row(op, a, b, d, mask),
                Inst::Ffma { .. } => eval_ffma_row(a, b, c, d, mask),
                Inst::Imad { .. } => eval_imad_row(a, b, c, d, mask),
                Inst::Un { op, .. } => eval_un_row(op, a, d, mask),
                Inst::Sfu { op, .. } => eval_sfu_row(op, a, d, mask),
                Inst::SetP { op, ty, .. } => eval_cmp_row(op, ty, a, b, d, mask),
                Inst::Sel { .. } => eval_sel_row(a, b, c, d, mask),
                _ => unreachable!("register-only kinds only"),
            }
        }
        self.advance();
        true
    }

    /// Applies a branch. `taken` must be a subset of the active mask.
    /// Returns true if the warp diverged.
    pub fn take_branch(&mut self, taken: u32, target: u32, reconv: u32, next_pc: u32) -> bool {
        let top = self.frames.last_mut().unwrap();
        let active = top.mask;
        debug_assert_eq!(taken & !active, 0);
        if taken == active {
            top.pc = target;
            false
        } else if taken == 0 {
            top.pc = next_pc;
            false
        } else {
            // Divergence: the current frame becomes the reconvergence entry;
            // the not-taken path runs after the taken path completes.
            top.pc = reconv;
            let not_taken = active & !taken;
            self.frames.push(Frame {
                pc: next_pc,
                rpc: reconv,
                mask: not_taken,
            });
            self.frames.push(Frame {
                pc: target,
                rpc: reconv,
                mask: taken,
            });
            true
        }
    }

    /// Retires `mask` lanes (they executed Exit): removes them from every
    /// frame in the stack.
    pub fn exit_lanes(&mut self, mask: u32) {
        for f in &mut self.frames {
            f.mask &= !mask;
        }
    }

    /// Reads a local (per-thread) word, growing the backing store lazily.
    pub fn local_read(&mut self, lane: usize, addr: u32) -> Value {
        let idx = (addr / 4) as usize;
        let mem = &mut self.local[lane];
        if idx >= mem.len() {
            mem.resize(idx + 1, Value::ZERO);
        }
        mem[idx]
    }

    /// Writes a local (per-thread) word.
    pub fn local_write(&mut self, lane: usize, addr: u32, v: Value) {
        let idx = (addr / 4) as usize;
        let mem = &mut self.local[lane];
        if idx >= mem.len() {
            mem.resize(idx + 1, Value::ZERO);
        }
        mem[idx] = v;
    }

    /// A warp load from local (spill) memory: every lane of `mask` reads its
    /// own word at `addrs[lane]` into `dst`.
    pub(crate) fn load_local(&mut self, mask: u32, dst: u32, addrs: &[u32; 32]) {
        for (lane, &a) in addrs.iter().enumerate() {
            if mask >> lane & 1 == 1 {
                let v = self.local_read(lane, a);
                self.set_reg(dst, lane, v);
            }
        }
    }

    /// A warp store to local memory: every lane of `mask` writes
    /// `srcs[lane]` to its own word at `addrs[lane]`.
    pub(crate) fn store_local(&mut self, mask: u32, addrs: &[u32; 32], srcs: &[Value; 32]) {
        for lane in 0..32 {
            if mask >> lane & 1 == 1 {
                self.local_write(lane, addrs[lane], srcs[lane]);
            }
        }
    }

    /// Iterates active lanes of the current frame.
    pub fn active_lanes(&self) -> impl Iterator<Item = usize> + '_ {
        let mask = self.active_mask();
        (0..32).filter(move |l| (mask >> l) & 1 != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_warp() -> Warp {
        Warp::new(0, 8, (32, 1, 1), (0, 0), (1, 1))
    }

    #[test]
    fn partial_warp_mask() {
        // 40-thread block: warp 1 has 8 active lanes.
        let w = Warp::new(1, 4, (40, 1, 1), (0, 0), (1, 1));
        assert_eq!(w.init_mask, 0xff);
        assert!(!w.done);
        // warp 1 lane 0 is thread 32.
        assert_eq!(w.tids[0], (32, 0, 0));
    }

    #[test]
    fn empty_warp_is_done() {
        let w = Warp::new(2, 4, (40, 1, 1), (0, 0), (1, 1));
        assert!(w.done);
    }

    #[test]
    fn tid_decomposition_2d() {
        let w = Warp::new(0, 4, (16, 16, 1), (3, 5), (8, 8));
        // lane 17 = thread 17 = (1, 1, 0) in a 16-wide block.
        assert_eq!(w.tids[17], (1, 1, 0));
        assert_eq!(w.ctaid, (3, 5));
    }

    #[test]
    fn uniform_branch_no_divergence() {
        let mut w = full_warp();
        let all = w.active_mask();
        assert!(!w.take_branch(all, 10, 20, 1));
        assert_eq!(w.pc(), 10);
        assert_eq!(w.frames.len(), 1);

        assert!(!w.take_branch(0, 30, 40, 11));
        assert_eq!(w.pc(), 11);
    }

    #[test]
    fn divergent_branch_runs_taken_then_fallthrough_then_reconverges() {
        let mut w = full_warp();
        let taken = 0x0000ffff;
        assert!(w.take_branch(taken, 10, 50, 1));
        // Taken path on top.
        assert!(w.settle());
        assert_eq!(w.pc(), 10);
        assert_eq!(w.active_mask(), taken);
        // Taken path reaches the reconvergence point.
        w.frames.last_mut().unwrap().pc = 50;
        assert!(w.settle());
        assert_eq!(w.pc(), 1); // fallthrough path
        assert_eq!(w.active_mask(), 0xffff0000);
        // Fallthrough path reaches reconvergence.
        w.frames.last_mut().unwrap().pc = 50;
        assert!(w.settle());
        assert_eq!(w.pc(), 50);
        assert_eq!(w.active_mask(), 0xffffffffu32);
        assert_eq!(w.frames.len(), 1);
    }

    #[test]
    fn nested_divergence() {
        let mut w = full_warp();
        w.take_branch(0x0000ffff, 10, 100, 1);
        w.settle();
        // Inner divergence within the taken path.
        assert!(w.take_branch(0x000000ff, 20, 90, 11));
        w.settle();
        assert_eq!(w.active_mask(), 0x000000ff);
        w.frames.last_mut().unwrap().pc = 90;
        w.settle();
        assert_eq!(w.active_mask(), 0x0000ff00);
        w.frames.last_mut().unwrap().pc = 90;
        w.settle();
        // Inner reconverged: the outer taken path resumes at the inner
        // reconvergence point with its full mask.
        assert_eq!(w.active_mask(), 0x0000ffff);
        assert_eq!(w.pc(), 90);
        assert_eq!(w.frames.last().unwrap().rpc, 100);
    }

    #[test]
    fn exit_retires_lanes_everywhere() {
        let mut w = full_warp();
        w.take_branch(0x0000ffff, 10, 50, 1);
        w.settle();
        // Taken lanes exit inside the divergent region.
        w.exit_lanes(0x0000ffff);
        assert!(w.settle());
        // Fallthrough path still runs.
        assert_eq!(w.active_mask(), 0xffff0000);
        w.exit_lanes(0xffff0000);
        assert!(!w.settle());
        assert!(w.done);
    }

    #[test]
    fn local_memory_is_per_lane() {
        let mut w = full_warp();
        w.local_write(3, 8, Value::from_u32(42));
        assert_eq!(w.local_read(3, 8).as_u32(), 42);
        assert_eq!(w.local_read(4, 8).as_u32(), 0);
    }

    #[test]
    fn shapes_read_through_and_materialize_on_lane_write() {
        let mut w = full_warp();
        // Fresh registers read as zero through the Uniform(0) shape.
        assert_eq!(w.reg(2, 31).as_u32(), 0);
        w.set_shape(3, LaneRow::affine(100, 8, 1000, 4));
        assert_eq!(w.reg(3, 0).as_u32(), 100);
        assert_eq!(w.reg(3, 5).as_u32(), 140);
        assert_eq!(w.reg(3, 18).as_u32(), 1116);
        let row = *w.operand_row(Operand::Reg(g80_isa::Reg(3)), &[], &mut [Value::ZERO; 32]);
        assert_eq!(row[7].as_u32(), 156);
        assert_eq!(row[16].as_u32(), 1100);
        // A lane write materializes: the other lanes keep their affine values.
        w.set_reg(3, 2, Value::from_u32(7));
        assert_eq!(w.shapes[3], LaneRow::Full);
        assert_eq!(w.reg(3, 2).as_u32(), 7);
        assert_eq!(w.reg(3, 3).as_u32(), 124);
        assert_eq!(w.reg(3, 31).as_u32(), 1220);
    }

    #[test]
    fn tid_shapes_classified_at_construction() {
        let w = full_warp(); // 32x1x1 block: tid.x = lane, tid.y = tid.z = 0
        let affine = |base, stride, step, p: u32| {
            LaneRow::affine(base, stride, step, p.trailing_zeros() as u8)
        };
        assert_eq!(w.tid_shape[0], affine(0, 1, 16, 16));
        assert_eq!(w.tid_shape[1], LaneRow::Uniform(Value::ZERO));
        // Partial warp: the 8 live lanes continue the block's 1-D run; the
        // dead tail (tid 0) is not looked at.
        let p = Warp::new(1, 4, (40, 1, 1), (0, 0), (1, 1));
        assert_eq!(p.tid_shape[0], affine(32, 1, 16, 16));
        // p-wide 2-D block: tid.x restarts every p lanes, tid.y steps by one
        // from run to run (warp w covers rows (32/p)·w onwards).
        for p in [16, 8, 4] {
            for wi in [0, 3, 7] {
                let w2 = Warp::new(wi, 4, (p, 64, 1), (0, 0), (1, 1));
                assert_eq!(w2.init_mask, u32::MAX);
                assert_eq!(w2.tid_shape[0], affine(0, 1, 0, p));
                assert_eq!(w2.tid_shape[1], affine(32 / p * wi, 0, 1, p));
                assert_eq!(w2.tid_shape[2], LaneRow::Uniform(Value::ZERO));
            }
        }
        // 4x4 block: one warp of 16 live lanes, shaped over those.
        let w3 = Warp::new(0, 4, (4, 4, 1), (0, 0), (1, 1));
        assert_eq!(w3.init_mask, 0xffff);
        assert_eq!(w3.tid_shape[0], affine(0, 1, 0, 4));
        assert_eq!(w3.tid_shape[1], affine(0, 0, 1, 4));
        // 12-wide block (Figure 4's 12x12): 12 does not divide a half-warp.
        let w4 = Warp::new(0, 4, (12, 12, 1), (0, 0), (1, 1));
        assert_eq!(w4.tid_shape[0], LaneRow::Full);
        assert_eq!(w4.tid_shape[1], LaneRow::Full);
    }

    fn eager_warp() -> Warp {
        Warp::new_eager(0, 8, (32, 1, 1), (0, 0), (1, 1))
    }

    #[test]
    fn taken_mask_matches_per_lane_scan() {
        let mask = 0x0f0f_0f0fu32;
        for (shape, label) in [
            (LaneRow::Uniform(Value::from_u32(1)), "uniform-true"),
            (LaneRow::Uniform(Value::ZERO), "uniform-false"),
            (LaneRow::affine(0, 1, 0, 4), "affine"),
            (LaneRow::affine(0, 1, 0, 3), "affine, 8 wide"),
        ] {
            // The same predicate row, as a tag on a tracked warp and as
            // materialized lanes on an eager one.
            let mut tracked = full_warp();
            tracked.set_shape(1, shape);
            let mut eager = eager_warp();
            shape.expand_into(eager.reg_row_mut(1));
            for w in [&tracked, &eager] {
                for negate in [false, true] {
                    let mut want = 0u32;
                    for lane in 0..32 {
                        if (mask >> lane) & 1 == 1 && (w.reg(1, lane).as_bool() != negate) {
                            want |= 1 << lane;
                        }
                    }
                    assert_eq!(w.taken_mask(1, negate, mask), want, "{label} neg={negate}");
                }
            }
        }
    }

    #[test]
    fn reset_restores_zero_registers() {
        let mut tracked = full_warp();
        tracked.set_shape(5, LaneRow::affine(1, 2, 32, 4));
        for mut w in [tracked, eager_warp()] {
            w.set_reg(0, 4, Value::from_u32(99));
            w.reset((0, 0));
            for r in 0..8 {
                for lane in 0..32 {
                    assert_eq!(w.reg(r, lane), Value::ZERO);
                }
            }
        }
    }

    /// The oracle's warps never carry a shape tag: the reference engine
    /// reads and writes plain lanes whatever the tracked paths do.
    #[test]
    fn eager_warp_shapes_stay_full() {
        let all_full = |w: &Warp| w.shapes.iter().all(|s| *s == LaneRow::Full);
        let mut w = eager_warp();
        assert!(all_full(&w));
        assert_eq!(w.tid_shape, [LaneRow::Full; 3]);
        w.reset((1, 0));
        assert!(all_full(&w));
        // A partial-mask write: lanes 0..16 of r2, through both write paths.
        w.take_branch(0x0000_ffff, 10, 20, 1);
        for lane in w.active_lanes().collect::<Vec<_>>() {
            w.set_reg(2, lane, Value::from_u32(7));
        }
        w.reg_row_mut(3)[5] = Value::from_u32(9);
        assert!(all_full(&w));
        assert_eq!(w.reg(2, 15).as_u32(), 7);
        assert_eq!(w.reg(2, 16).as_u32(), 0);
    }

    /// The operand rows every register-only kind is tried on: one of each
    /// shape (floats near 1.0 when read as `f32`, so no op makes a NaN) and
    /// one with no structure.
    fn operand_rows() -> Vec<(LaneRow, [Value; 32])> {
        let mut rows: Vec<_> = [
            LaneRow::Uniform(Value::from_f32(1.5)),
            LaneRow::affine(0x3f80_0000, 8, 1000, 2),
            LaneRow::affine(0x3f80_0000, 8, 1000, 3),
            LaneRow::affine(0x3f80_0000, 8, 1000, 4),
        ]
        .into_iter()
        .map(|shape| {
            let mut row = [Value::ZERO; 32];
            shape.expand_into(&mut row);
            (shape, row)
        })
        .collect();
        let scattered = std::array::from_fn(|l| Value(0x3f80_0000 + (l * l * 37 % 1000) as u32));
        rows.push((LaneRow::Full, scattered));
        rows
    }

    type LaneFn = fn(Value, Value, Value) -> Value;

    /// One instruction of each register-only kind (r0 = f(r1, r2, r3)), with
    /// its per-lane meaning stated through the scalar evaluators.
    fn reg_only_insts() -> Vec<(Inst, LaneFn)> {
        reg_only_kinds(0, [1, 2, 3])
    }

    /// [`reg_only_insts`] with register `dst` = f(`srcs`): `f`'s arguments
    /// are the values of `srcs` in order, whichever operand reads them.
    fn reg_only_kinds(dst: u32, srcs: [u32; 3]) -> Vec<(Inst, LaneFn)> {
        use g80_isa::{eval_alu, eval_cmp, eval_ffma, eval_imad, eval_sfu, eval_un};
        use g80_isa::{AluOp, CmpOp, Reg, Scalar, SfuOp, UnOp};
        let [a, b, c] = srcs.map(|r| Operand::Reg(Reg(r)));
        let dst = Reg(dst);
        let alu = |op| Inst::Alu { op, dst, a, b };
        let (lt, ge) = (CmpOp::Lt, CmpOp::Ge);
        vec![
            (alu(AluOp::IAdd), |a, b, _| eval_alu(AluOp::IAdd, a, b)),
            (alu(AluOp::IMul), |a, b, _| eval_alu(AluOp::IMul, a, b)),
            (alu(AluOp::FMul), |a, b, _| eval_alu(AluOp::FMul, a, b)),
            (Inst::Ffma { dst, a, b, c }, eval_ffma),
            (Inst::Imad { dst, a, b, c }, eval_imad),
            (
                Inst::Un {
                    op: UnOp::Not,
                    dst,
                    a,
                },
                |a, _, _| eval_un(UnOp::Not, a),
            ),
            (
                Inst::Un {
                    op: UnOp::FNeg,
                    dst,
                    a,
                },
                |a, _, _| eval_un(UnOp::FNeg, a),
            ),
            (
                Inst::Sfu {
                    op: SfuOp::Rcp,
                    dst,
                    a,
                },
                |a, _, _| eval_sfu(SfuOp::Rcp, a),
            ),
            (
                Inst::Sfu {
                    op: SfuOp::Sin,
                    dst,
                    a,
                },
                |a, _, _| eval_sfu(SfuOp::Sin, a),
            ),
            (
                Inst::SetP {
                    op: lt,
                    ty: Scalar::U32,
                    dst,
                    a,
                    b,
                },
                |a, b, _| eval_cmp(CmpOp::Lt, Scalar::U32, a, b),
            ),
            (
                Inst::SetP {
                    op: ge,
                    ty: Scalar::F32,
                    dst,
                    a,
                    b,
                },
                |a, b, _| eval_cmp(CmpOp::Ge, Scalar::F32, a, b),
            ),
            // The condition is r3: all-true rows, and one false lane in the
            // scattered row (lane 0 of `sel_cond`).
            (
                Inst::Sel { dst, c, a, b },
                |a, b, c| if c.as_bool() { a } else { b },
            ),
        ]
    }

    /// Loads `rows` into r1.. of `w`: as a tag where the warp tracks shapes
    /// and the row has one, as materialized lanes otherwise.
    fn load_operands(w: &mut Warp, rows: &[&(LaneRow, [Value; 32])]) {
        for (r, (shape, row)) in (1u32..).zip(rows) {
            if w.rows_enabled && *shape != LaneRow::Full {
                w.set_shape(r, *shape);
            } else {
                *w.reg_row_mut(r) = *row;
            }
        }
    }

    /// The same instruction on the same operands writes the same lanes
    /// whichever way it runs: folded to a tag, evaluated under a partial
    /// mask (inactive lanes keep what they held), or on an eager warp.
    #[test]
    fn reg_only_fold_eager_and_diverged_agree() {
        const PARTIAL: u32 = 0x0f0f_00ff;
        let rows = operand_rows();
        // A select condition that is not all-true on the structureless row.
        let mut sel_cond = rows.clone();
        sel_cond[4].1[0] = Value::ZERO;
        for (inst, lane_fn) in reg_only_insts() {
            let third = match inst {
                Inst::Sel { .. } => &sel_cond,
                _ => &rows,
            };
            for ra in &rows {
                for rb in &rows {
                    for rc in third {
                        let want: [Value; 32] =
                            std::array::from_fn(|l| lane_fn(ra.1[l], rb.1[l], rc.1[l]));
                        let label = format!("{inst:?} on {:?}, {:?}, {:?}", ra.0, rb.0, rc.0);

                        let mut folded = full_warp();
                        load_operands(&mut folded, &[ra, rb, rc]);
                        assert!(
                            folded.exec_reg_only(&inst, u32::MAX, &[], &mut [[Value::ZERO; 32]; 3]),
                            "{label}"
                        );
                        assert_eq!(folded.pc(), 1, "{label}");
                        let all_uniform = [ra, rb, rc]
                            .iter()
                            .all(|r| matches!(r.0, LaneRow::Uniform(_)));
                        if all_uniform {
                            assert_eq!(folded.shapes[0], LaneRow::Uniform(want[0]), "{label}");
                        }

                        let mut diverged = full_warp();
                        load_operands(&mut diverged, &[ra, rb, rc]);
                        let prior = LaneRow::affine(7, 3, 0, 4);
                        diverged.set_shape(0, prior);
                        diverged.take_branch(PARTIAL, 5, 9, 1);
                        assert!(
                            diverged.exec_reg_only(
                                &inst,
                                PARTIAL,
                                &[],
                                &mut [[Value::ZERO; 32]; 3]
                            ),
                            "{label}"
                        );
                        assert_eq!(diverged.pc(), 6, "{label}");
                        assert_eq!(diverged.shapes[0], LaneRow::Full, "{label}");

                        let mut eager = eager_warp();
                        load_operands(&mut eager, &[ra, rb, rc]);
                        assert!(
                            eager.exec_reg_only(&inst, u32::MAX, &[], &mut [[Value::ZERO; 32]; 3]),
                            "{label}"
                        );

                        for (lane, &v) in want.iter().enumerate() {
                            assert_eq!(folded.reg(0, lane), v, "{label}: fold, lane {lane}");
                            assert_eq!(eager.reg(0, lane), v, "{label}: eager, lane {lane}");
                            let kept = if PARTIAL >> lane & 1 == 1 {
                                v
                            } else {
                                prior.lane(lane).unwrap()
                            };
                            assert_eq!(diverged.reg(0, lane), kept, "{label}: masked, lane {lane}");
                        }
                    }
                }
            }
        }
    }

    /// The borrow rules: a source that is the destination reads its old
    /// row (copied, or expanded from its tag) before the write, on a full,
    /// a 17-lane and a one-lane warp, undiverged and diverged, for every
    /// register-only kind with the destination each source in turn and
    /// with every source one register (`r1 = r1 op r1`). Every live lane
    /// must equal the lane evaluators' answer and the eager warp's.
    #[test]
    fn reg_only_sources_that_are_the_destination_read_their_old_rows() {
        let rows = operand_rows();
        // A select condition that is not all-true on the structureless row.
        let mut cond = rows[4];
        cond.1[0] = Value::ZERO;
        let aliased = [
            (1, [1, 1, 1]),
            (1, [1, 2, 3]),
            (2, [1, 2, 3]),
            (3, [1, 2, 3]),
        ];
        // (block width, active mask): a one-lane warp cannot split, so a
        // full warp with one active lane stands for its diverged case.
        let runs = [
            (32, u32::MAX),
            (32, 0x0f0f_f0f1),
            (32, 1 << 5),
            (17, 0x1_ffff),
            (17, 0x1_f0f1),
            (1, 1),
        ];
        for (dst, srcs) in aliased {
            for (inst, lane_fn) in reg_only_kinds(dst, srcs) {
                for ra in &rows {
                    for (rb, rc) in [(&rows[1], &rows[0]), (&rows[4], &cond)] {
                        for (width, mask) in runs {
                            let label = format!(
                                "{inst:?} on {:?}, {:?}, {:?}; {width} lanes, mask {mask:#x}",
                                ra.0, rb.0, rc.0
                            );
                            let live = (width as usize).min(32);
                            let [mut tracked, mut eager] = [Warp::new, Warp::new_eager]
                                .map(|new| new(0, 4, (width, 1, 1), (0, 0), (1, 1)));
                            for w in [&mut tracked, &mut eager] {
                                load_operands(w, &[ra, rb, rc]);
                                if mask != w.init_mask {
                                    w.take_branch(mask, 5, 9, 1);
                                }
                                let tmp = &mut [[Value::ZERO; 32]; 3];
                                assert!(w.exec_reg_only(&inst, mask, &[], tmp), "{label}");
                            }
                            let before = |r: u32| [ra, rb, rc][r as usize - 1].1;
                            for lane in 0..live {
                                let [a, b, c] = srcs.map(|r| before(r)[lane]);
                                let want = if mask >> lane & 1 == 1 {
                                    lane_fn(a, b, c)
                                } else {
                                    before(dst)[lane]
                                };
                                assert_eq!(tracked.reg(dst, lane), want, "{label}: lane {lane}");
                                for r in 1..4 {
                                    let (t, e) = (tracked.reg(r, lane), eager.reg(r, lane));
                                    assert_eq!(t, e, "{label}: r{r} lane {lane}");
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// A write of every live lane leaves the destination's old tag dead and
    /// unexpanded: the dead tail of a partial warp keeps its stale lanes,
    /// and every reader that looks at the live lanes only — `reg`,
    /// `taken_mask` and `LaneRow::classify` — reads the new row.
    #[test]
    fn a_shaped_destination_written_whole_reads_back_its_new_row() {
        use g80_isa::{AluOp, CmpOp, Reg, Scalar};
        let (r0, r1, r3) = (Reg(0), Reg(1), Reg(3));
        let add = Inst::Alu {
            op: AluOp::IAdd,
            dst: r0,
            a: r1.into(),
            b: Operand::Imm(Value(16)),
        };
        let below = Inst::SetP {
            op: CmpOp::Lt,
            ty: Scalar::U32,
            dst: r3,
            a: r1.into(),
            b: Operand::Imm(Value(44)),
        };
        for width in [32u32, 17, 1] {
            let live = width as usize;
            let mut w = Warp::new(0, 4, (width, 1, 1), (0, 0), (1, 1));
            let mask = w.init_mask;
            // r1 holds 4·lane + 8 untagged; r0 and r3 hold stale words under
            // shaped tags.
            *w.reg_row_mut(1) = std::array::from_fn(|l| Value(4 * l as u32 + 8));
            for (r, prior) in [
                (0, LaneRow::affine(7, 3, 0, 4)),
                (3, LaneRow::Uniform(Value(1))),
            ] {
                *w.reg_row_mut(r) = [Value(0xdead_beef); 32];
                w.set_shape(r, prior);
            }
            let tmp = &mut [[Value::ZERO; 32]; 3];
            assert!(w.exec_reg_only(&add, mask, &[], tmp));
            assert!(w.exec_reg_only(&below, mask, &[], tmp));
            assert_eq!((w.shapes[0], w.shapes[3]), (LaneRow::Full, LaneRow::Full));
            let want: [Value; 32] = std::array::from_fn(|l| Value(4 * l as u32 + 24));
            for (lane, &v) in want.iter().enumerate().take(live) {
                assert_eq!(w.reg(0, lane), v, "{width} lanes: lane {lane}");
                assert_eq!(
                    w.reg(3, lane).as_bool(),
                    lane < 9,
                    "{width} lanes: lane {lane}"
                );
            }
            let shape = LaneRow::classify(&w.regs[0], live);
            assert_eq!(shape, LaneRow::classify(&want, live), "{width} lanes");
            let affine = if live > 1 {
                LaneRow::affine(24, 4, 64, 4)
            } else {
                LaneRow::Uniform(Value(24))
            };
            assert_eq!(shape, affine, "{width} lanes");
            let taken = mask & 0x1ff;
            assert_eq!(w.taken_mask(3, false, mask), taken, "{width} lanes");
            assert_eq!(w.taken_mask(3, true, mask), mask & !taken, "{width} lanes");
        }
    }

    /// Anything that touches memory or control flow is the caller's: the
    /// warp says so and is left exactly as it was.
    #[test]
    fn non_reg_only_instructions_are_left_to_the_caller() {
        use g80_isa::{AtomOp, Label, Pred, Reg, Space};
        let (space, addr, off) = (Space::Global, Operand::Reg(Reg(1)), 4);
        let src = Operand::Reg(Reg(2));
        let (target, reconv) = (Label(3), Label(4));
        for inst in [
            Inst::Ld {
                space,
                dst: Reg(0),
                addr,
                off,
            },
            Inst::St {
                space,
                addr,
                off,
                src,
            },
            Inst::Atom {
                op: AtomOp::Add,
                space,
                dst: Some(Reg(0)),
                addr,
                off,
                src,
            },
            Inst::Bra {
                target,
                reconv,
                pred: Some(Pred::if_true(Reg(1))),
            },
            Inst::Bar,
            Inst::Exit,
        ] {
            let mut w = full_warp();
            w.set_shape(1, LaneRow::affine(64, 4, 64, 4));
            *w.reg_row_mut(2) = operand_rows()[4].1;
            let (shapes, regs) = (w.shapes.clone(), w.regs.clone());
            assert!(
                !w.exec_reg_only(&inst, u32::MAX, &[], &mut [[Value::ZERO; 32]; 3]),
                "{inst:?}"
            );
            assert_eq!(w.pc(), 0, "{inst:?}");
            assert_eq!((&w.shapes, &w.regs), (&shapes, &regs), "{inst:?}");
        }
    }

    /// A local access moves each active lane's own word and nothing else.
    #[test]
    fn local_load_store_round_trip_under_a_mask() {
        let mask = 0x0000_00f0u32;
        let mut w = full_warp();
        let addrs: [u32; 32] = std::array::from_fn(|l| 8 * (l as u32 % 3));
        let srcs: [Value; 32] = std::array::from_fn(|l| Value(100 + l as u32));
        w.store_local(mask, &addrs, &srcs);
        w.set_shape(3, LaneRow::Uniform(Value(9)));
        w.load_local(mask, 3, &addrs);
        for lane in 0..32 {
            let stored = mask >> lane & 1 == 1;
            assert_eq!(w.reg(3, lane).0, if stored { 100 + lane as u32 } else { 9 });
            assert_eq!(w.local[lane].is_empty(), !stored);
        }
    }

    #[test]
    fn operand_specials() {
        let w = Warp::new(0, 4, (16, 4, 1), (2, 7), (10, 20));
        use g80_isa::Operand as O;
        assert_eq!(
            w.operand(O::Special(SpecialReg::CtaidX), 0, &[]).as_u32(),
            2
        );
        assert_eq!(
            w.operand(O::Special(SpecialReg::NctaidY), 0, &[]).as_u32(),
            20
        );
        assert_eq!(w.operand(O::Special(SpecialReg::TidY), 16, &[]).as_u32(), 1);
        assert_eq!(w.operand(O::imm_f(1.5), 0, &[]).as_f32(), 1.5);
        let params = [Value::from_u32(99)];
        assert_eq!(w.operand(O::Param(0), 5, &params).as_u32(), 99);
    }

    #[test]
    fn taken_mask_on_full_rows_matches_the_lane_scan() {
        let mut w = full_warp();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 32) as u32
        };
        for iter in 0..2000 {
            // Predicates as `setp` writes them, mixed with arbitrary words.
            let row: [Value; 32] = std::array::from_fn(|_| {
                let v = next();
                Value::from_u32(if v & 3 == 0 { v } else { v >> 31 })
            });
            *w.reg_row_mut(3) = row;
            assert_eq!(w.shapes[3], LaneRow::Full);
            let mask = [u32::MAX, 0, 1 << (iter % 32), next()][iter % 4];
            for negate in [false, true] {
                let want = (0..32)
                    .filter(|&l| mask >> l & 1 == 1 && w.reg(3, l).as_bool() != negate)
                    .fold(0u32, |m, l| m | 1 << l);
                assert_eq!(
                    w.taken_mask(3, negate, mask),
                    want,
                    "mask {mask:#x} negate {negate}"
                );
            }
        }
    }
}
