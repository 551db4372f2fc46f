//! Register-IR execution engine for compiled mini OpenCL-C kernels.
//!
//! [`compile_kernel`] lowers the stack bytecode of [`super::bytecode`] to a
//! typed-by-construction register IR. The lowering tracks a *symbolic*
//! operand stack per basic block: pushed constants and loads of locals are
//! not copied anywhere — they are remembered as "this stack slot is literal
//! `v`" / "this stack slot aliases local `r`" and folded straight into the
//! operand fields of the consuming instruction. Constants are deduplicated
//! into a per-function constant pool that occupies registers above the
//! operand-stack region, so a loop body re-reads them for free. Adjacent
//! multiply/add pairs fuse into `Mad`/`MadI` superinstructions, compare
//! results feeding a conditional branch fuse into compare-and-branch
//! instructions, and a store to a local patches the destination of the
//! producing instruction instead of emitting a move. Op-budget accounting
//! happens once per basic block instead of once per op.
//!
//! Frame layout (register indices within one frame):
//!
//! ```text
//! 0 .. nlocals            parameters + named locals (Ld/St slots)
//! nlocals .. const_base   canonical operand-stack slots (depth d -> nlocals+d)
//! const_base .. nregs     constant pool (written once per frame)
//! ```
//!
//! The emitted program is checked by `validate` — every register operand
//! in range, every jump target inside its function, every function ending
//! in an unconditional terminator, every call shape consistent — and only a
//! validated program is returned. That proof lets the inner interpreter
//! loop use unchecked register/code accesses (see the SAFETY notes in
//! `step_until_stop`).
//!
//! The lowering is *total* only for depth-consistent bytecode; anything else
//! (a hand-built unit with mismatched stack depths at a join, a device
//! function with both `ret;` and `return x;` paths) makes [`compile_kernel`]
//! return `None` and the dispatcher falls back to the reference stack
//! interpreter in [`super::interp`]. Both engines produce byte-identical
//! buffer contents, identical `group_ops` (block-entry charging sums the
//! same per-op costs the stack engine charges one at a time) and identical
//! trap messages/global-ids — the differential suite pins them together.

use super::ast::Space;
use super::bytecode::{Builtin, Cmp, CompiledUnit, ElemTy, FuncInfo, KernelInfo, Op};
use super::driver::{register_template, Geometry, GroupEngine, Stop};
use super::interp::{checked_offset, oob, MemPool, PtrV, RtArg, Trap, Val, MAX_ITEM_OPS};
use std::collections::{BTreeSet, HashMap};

/// Frame-relative register index.
type R = u16;

/// A raw 16-byte register. Untyped: the compiler proved the producing and
/// consuming ops agree on the interpretation, so the accessors just
/// reinterpret bits (no `unsafe` — everything goes through `to_bits`).
/// Shared with the native engine (`super::native`), which executes the
/// same register file layout.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(super) struct RVal(pub(super) [u64; 2]);

impl RVal {
    #[inline(always)]
    pub(super) fn from_i(v: i64) -> Self {
        RVal([v as u64, 0])
    }
    #[inline(always)]
    pub(super) fn i(self) -> i64 {
        self.0[0] as i64
    }
    #[inline(always)]
    pub(super) fn from_f(v: f64) -> Self {
        RVal([v.to_bits(), 0])
    }
    #[inline(always)]
    pub(super) fn f(self) -> f64 {
        f64::from_bits(self.0[0])
    }
    #[inline(always)]
    pub(super) fn from_f4(v: [f32; 4]) -> Self {
        RVal([
            (v[0].to_bits() as u64) | ((v[1].to_bits() as u64) << 32),
            (v[2].to_bits() as u64) | ((v[3].to_bits() as u64) << 32),
        ])
    }
    #[inline(always)]
    pub(super) fn f4(self) -> [f32; 4] {
        [
            f32::from_bits(self.0[0] as u32),
            f32::from_bits((self.0[0] >> 32) as u32),
            f32::from_bits(self.0[1] as u32),
            f32::from_bits((self.0[1] >> 32) as u32),
        ]
    }
    pub(super) fn from_ptr(p: PtrV) -> Self {
        let space = match p.space {
            Space::Global => 0u64,
            Space::Local => 1,
            Space::Constant => 2,
            Space::Private => 3,
        };
        RVal([space | ((p.slot as u64) << 8) | ((p.base as u64) << 32), 0])
    }
    #[inline(always)]
    pub(super) fn ptr(self) -> PtrV {
        let w = self.0[0];
        PtrV {
            space: match w & 0xff {
                0 => Space::Global,
                1 => Space::Local,
                2 => Space::Constant,
                _ => Space::Private,
            },
            slot: (w >> 8) as u16,
            base: (w >> 32) as u32,
        }
    }
    pub(super) fn from_val(v: Val) -> Self {
        match v {
            Val::I(x) => RVal::from_i(x),
            Val::F(x) => RVal::from_f(x),
            Val::F4(x) => RVal::from_f4(x),
            Val::Ptr(p) => RVal::from_ptr(p),
        }
    }
}

/// One register-IR instruction. Register operands are frame-relative.
/// Shared with the native engine, which lowers this stream further.
#[derive(Debug, Clone, PartialEq)]
pub(super) enum ROp {
    /// Charge `n` abstract ops (the block's summed stack-op costs) and
    /// check the per-item budget. Emitted at every basic-block entry.
    Ops(u64),
    Mov { dst: R, src: R },
    Swap { a: R, b: R },
    AddI { dst: R, a: R, b: R },
    SubI { dst: R, a: R, b: R },
    MulI { dst: R, a: R, b: R },
    DivI { dst: R, a: R, b: R },
    RemI { dst: R, a: R, b: R },
    Shl { dst: R, a: R, b: R },
    Shr { dst: R, a: R, b: R },
    BAnd { dst: R, a: R, b: R },
    BOr { dst: R, a: R, b: R },
    BXor { dst: R, a: R, b: R },
    NegI { dst: R, src: R },
    BNot { dst: R, src: R },
    LNot { dst: R, src: R },
    AddF { dst: R, a: R, b: R },
    SubF { dst: R, a: R, b: R },
    MulF { dst: R, a: R, b: R },
    DivF { dst: R, a: R, b: R },
    NegF { dst: R, src: R },
    I2F { dst: R, src: R },
    F2I { dst: R, src: R },
    AddF4 { dst: R, a: R, b: R },
    SubF4 { dst: R, a: R, b: R },
    MulF4 { dst: R, a: R, b: R },
    DivF4 { dst: R, a: R, b: R },
    SplatF4 { dst: R, src: R },
    MakeF4 { dst: R, src: [R; 4] },
    GetComp { dst: R, src: R, c: u8 },
    SetComp { dst: R, vec: R, scl: R, c: u8 },
    CmpI { cmp: Cmp, dst: R, a: R, b: R },
    CmpF { cmp: Cmp, dst: R, a: R, b: R },
    Jmp { t: u32 },
    Jz { c: R, t: u32 },
    Jnz { c: R, t: u32 },
    /// Fused integer compare-and-branch: jump when `(a cmp b) == when`.
    JcI { cmp: Cmp, a: R, b: R, t: u32, when: bool },
    /// Fused float compare-and-branch: jump when `(a cmp b) == when`.
    JcF { cmp: Cmp, a: R, b: R, t: u32, when: bool },
    Load { ty: ElemTy, dst: R, ptr: R, idx: R },
    Store { ty: ElemTy, ptr: R, idx: R, val: R },
    Call { func: u16, args_at: R },
    Id { b: Builtin, dst: R, src: R },
    Math1 { b: Builtin, dst: R, src: R },
    Math2F { b: Builtin, dst: R, a: R, b2: R },
    Math2I { b: Builtin, dst: R, a: R, b2: R },
    AbsI { dst: R, src: R },
    Clamp { dst: R, v: R, lo: R, hi: R },
    /// `(a * b) + c` — fused multiply-on-the-left add; also `mad(a, b, c)`.
    Mad { dst: R, a: R, b: R, c: R },
    /// `c + (a * b)` — fused multiply-on-the-right add. A separate variant
    /// so the float operand order (and thus NaN payloads / rounding order)
    /// matches the stack engine exactly.
    MadRF { dst: R, c: R, a: R, b: R },
    /// Wrapping `a * b + c` (add commutes bit-exactly, one variant covers
    /// both operand orders).
    MadI { dst: R, a: R, b: R, c: R },
    Dot { dst: R, a: R, b: R },
    Barrier,
    Ret,
    RetV { src: R },
}

/// A lowered device function.
#[derive(Debug, Clone)]
pub(super) struct RFunc {
    pub(super) entry: u32,
    pub(super) nargs: u8,
    pub(super) nlocals: u16,
    /// First constant-pool register; operand stack spans `nlocals..const_base`.
    pub(super) const_base: u16,
    pub(super) nregs: u16,
    /// Constant pool, written into `const_base..nregs` on frame entry.
    pub(super) consts: Vec<RVal>,
    pub(super) compiled: bool,
    /// Code range `[start, end)` of this function inside [`RegProgram::code`]
    /// (zero for uncompiled functions). Retained for the native inliner.
    pub(super) start: u32,
    pub(super) end: u32,
}

/// A kernel lowered to register IR, ready to dispatch any number of times.
///
/// Produced by [`compile_kernel`], executed by
/// [`run_ndrange`](super::run_ndrange) as [`Lowered::Register`](super::Lowered),
/// and lowered further by the native engine
/// ([`super::native::compile_native`]). The program is *validated*: every
/// register operand is inside its frame, every jump target inside its
/// function, every function ends in an unconditional terminator — which is
/// what licenses the unchecked interpreter loop (and the native lowering
/// built on top of it).
#[derive(Debug, Clone)]
pub struct RegProgram {
    pub(super) code: Vec<ROp>,
    pub(super) entry: u32,
    pub(super) nregs: u16,
    /// First constant-pool register of the kernel frame.
    pub(super) const_base: u16,
    /// Kernel-frame constant pool (baked into the dispatch template).
    pub(super) consts: Vec<RVal>,
    pub(super) funcs: Vec<RFunc>,
    /// End of the kernel-main code range (`code[..main_end]` is the kernel
    /// body; device functions follow). Retained for the native inliner.
    pub(super) main_end: u32,
}

impl RegProgram {
    /// Number of register-IR instructions (compiler diagnostics / tests).
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Whether the program is empty (never true for a compiled kernel).
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Compilation: stack bytecode -> register IR
// ---------------------------------------------------------------------------

/// `(pops, pushes)` of one stack op. `None` marks an op whose effect can't
/// be determined (a call to a function with ambiguous return arity).
fn effect(op: &Op, rets: &[Option<bool>]) -> Option<(u16, u16)> {
    Some(match op {
        Op::PushI(_) | Op::PushF(_) | Op::PushPtr { .. } | Op::Ld(_) => (0, 1),
        Op::Pop | Op::St(_) | Op::Jz(_) | Op::Jnz(_) | Op::RetV => (1, 0),
        Op::Dup => (1, 2),
        Op::Dup2 => (2, 4),
        Op::Swap => (2, 2),
        Op::AddI
        | Op::SubI
        | Op::MulI
        | Op::DivI
        | Op::RemI
        | Op::AddF
        | Op::SubF
        | Op::MulF
        | Op::DivF
        | Op::AddF4
        | Op::SubF4
        | Op::MulF4
        | Op::DivF4
        | Op::SetComp(_)
        | Op::Shl
        | Op::Shr
        | Op::BAnd
        | Op::BOr
        | Op::BXor
        | Op::CmpI(_)
        | Op::CmpF(_)
        | Op::LdElem(_) => (2, 1),
        Op::NegI
        | Op::NegF
        | Op::BNot
        | Op::LNot
        | Op::I2F
        | Op::F2I
        | Op::SplatF4
        | Op::GetComp(_) => (1, 1),
        Op::MakeF4 => (4, 1),
        Op::StElem(_) => (3, 0),
        Op::Call { func, nargs } => {
            let returns = (*rets.get(*func as usize)?)?;
            (*nargs as u16, returns as u16)
        }
        Op::CallB(_, argc) => (*argc as u16, 1),
        Op::Jmp(_) | Op::Barrier | Op::Ret => (0, 0),
    })
}

/// Whether the function starting at `entry` returns a value: walks the
/// reachable control flow and checks which of `Ret`/`RetV` terminate it.
/// `None` if both are reachable (ambiguous — the codegen never emits this,
/// so it only appears in hand-built units and triggers stack fallback).
fn func_returns(code: &[Op], entry: u32) -> Option<bool> {
    let mut seen = vec![false; code.len()];
    let mut work = vec![entry as usize];
    let (mut has_ret, mut has_retv) = (false, false);
    while let Some(ip) = work.pop() {
        if ip >= code.len() || seen[ip] {
            continue;
        }
        seen[ip] = true;
        match &code[ip] {
            Op::Jmp(t) => work.push(*t as usize),
            Op::Jz(t) | Op::Jnz(t) => {
                work.push(*t as usize);
                work.push(ip + 1);
            }
            Op::Ret => has_ret = true,
            Op::RetV => has_retv = true,
            _ => work.push(ip + 1),
        }
    }
    match (has_ret, has_retv) {
        (true, true) => None,
        (_, retv) => Some(retv),
    }
}

/// Per-function lowering analysis: the abstract stack depth before every
/// reachable instruction, the basic-block leaders, and the canonical
/// operand-stack registers the frame needs (locals + max depth; constants
/// are allocated above this by the emitter).
struct FnAnalysis {
    depth: HashMap<u32, u16>,
    leaders: BTreeSet<u32>,
    nregs: u16,
    calls: Vec<u16>,
}

fn analyze(code: &[Op], rets: &[Option<bool>], entry: u32, nlocals: u16) -> Option<FnAnalysis> {
    let mut depth: HashMap<u32, u16> = HashMap::new();
    let mut leaders: BTreeSet<u32> = BTreeSet::new();
    let mut calls: Vec<u16> = Vec::new();
    let mut max_depth: u16 = 0;
    leaders.insert(entry);
    let mut work: Vec<(u32, u16)> = vec![(entry, 0)];
    while let Some((ip, d)) = work.pop() {
        match depth.get(&ip) {
            Some(&prev) if prev == d => continue,
            // A control-flow join where the two paths disagree on stack
            // depth: not lowerable to fixed registers. Stack fallback.
            Some(_) => return None,
            None => {}
        }
        let op = code.get(ip as usize)?;
        depth.insert(ip, d);
        let (pops, pushes) = effect(op, rets)?;
        if d < pops {
            return None;
        }
        let after = d - pops + pushes;
        max_depth = max_depth.max(after).max(d);
        match op {
            Op::Jmp(t) => {
                leaders.insert(*t);
                work.push((*t, after));
            }
            Op::Jz(t) | Op::Jnz(t) => {
                leaders.insert(*t);
                leaders.insert(ip + 1);
                work.push((*t, after));
                work.push((ip + 1, after));
            }
            Op::Ret | Op::RetV => {}
            Op::Call { func, .. } => {
                calls.push(*func);
                work.push((ip + 1, after));
            }
            _ => {
                work.push((ip + 1, after));
            }
        }
    }
    let nregs = (nlocals as u32).checked_add(max_depth as u32)?;
    if nregs > u16::MAX as u32 {
        return None;
    }
    Some(FnAnalysis {
        depth,
        leaders,
        nregs: nregs as u16,
        calls,
    })
}

/// How many arguments each builtin takes. Used to reject hand-built units
/// whose `CallB` argc disagrees (the symbolic lowering folds operands into
/// the instruction, so a mismatched arity can't be lowered faithfully).
fn builtin_arity(b: Builtin) -> u8 {
    use Builtin::*;
    match b {
        GetGlobalId | GetLocalId | GetGroupId | GetGlobalSize | GetLocalSize | GetNumGroups
        | Sqrt | Rsqrt | Fabs | Floor | Ceil | Exp | Log | Sin | Cos | AbsI => 1,
        Pow | Fmin | Fmax | MinI | MaxI | Dot => 2,
        Clamp | Mad => 3,
    }
}

/// The register an instruction writes, when that write is its only effect
/// on machine state (no control flow, no memory store, no frame change —
/// traps and op accounting aside). Used to forward a result straight into
/// a local variable: patching `dst` is sound because source operands are
/// always read before `dst` is written.
fn pure_dst(op: &mut ROp) -> Option<&mut R> {
    match op {
        ROp::Mov { dst, .. }
        | ROp::AddI { dst, .. }
        | ROp::SubI { dst, .. }
        | ROp::MulI { dst, .. }
        | ROp::DivI { dst, .. }
        | ROp::RemI { dst, .. }
        | ROp::Shl { dst, .. }
        | ROp::Shr { dst, .. }
        | ROp::BAnd { dst, .. }
        | ROp::BOr { dst, .. }
        | ROp::BXor { dst, .. }
        | ROp::NegI { dst, .. }
        | ROp::BNot { dst, .. }
        | ROp::LNot { dst, .. }
        | ROp::AddF { dst, .. }
        | ROp::SubF { dst, .. }
        | ROp::MulF { dst, .. }
        | ROp::DivF { dst, .. }
        | ROp::NegF { dst, .. }
        | ROp::I2F { dst, .. }
        | ROp::F2I { dst, .. }
        | ROp::AddF4 { dst, .. }
        | ROp::SubF4 { dst, .. }
        | ROp::MulF4 { dst, .. }
        | ROp::DivF4 { dst, .. }
        | ROp::SplatF4 { dst, .. }
        | ROp::MakeF4 { dst, .. }
        | ROp::GetComp { dst, .. }
        | ROp::SetComp { dst, .. }
        | ROp::CmpI { dst, .. }
        | ROp::CmpF { dst, .. }
        | ROp::Load { dst, .. }
        | ROp::Id { dst, .. }
        | ROp::Math1 { dst, .. }
        | ROp::Math2F { dst, .. }
        | ROp::Math2I { dst, .. }
        | ROp::AbsI { dst, .. }
        | ROp::Clamp { dst, .. }
        | ROp::Mad { dst, .. }
        | ROp::MadRF { dst, .. }
        | ROp::MadI { dst, .. }
        | ROp::Dot { dst, .. } => Some(dst),
        _ => None,
    }
}

/// A symbolic operand-stack entry tracked during lowering.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Ent {
    /// The value lives in its canonical stack register `s(depth)`.
    Canon,
    /// The value aliases local register `r` (always `r < nlocals` — a lazy
    /// entry never aliases a canonical stack register, which is what makes
    /// materialisation a plain loop with no move cycles).
    Loc(R),
    /// The value is a literal not yet in any register; consumers read it
    /// from a deduplicated constant-pool register.
    Imm(RVal),
}

/// Per-function emitter: the output stream, the constant pool, and the
/// current block's symbolic stack.
struct Emitter<'a> {
    out: &'a mut Vec<ROp>,
    nlocals: u16,
    /// First constant-pool register (the analysis' canonical `nregs`).
    cbase: u16,
    consts: Vec<RVal>,
    cmap: HashMap<[u64; 2], R>,
    /// Symbolic entries above `lb`; entry `i` sits at abstract depth `lb + i`.
    lazy: Vec<Ent>,
    /// Depth below which every stack slot is canonical.
    lb: u16,
    /// Output index of the current block's first instruction (after the
    /// `Ops` header): fusion and dst-patching never look past it.
    fuse_from: usize,
}

impl Emitter<'_> {
    /// Canonical register of abstract stack depth `x`.
    #[inline]
    fn s(&self, x: u16) -> R {
        self.nlocals + x
    }

    #[inline]
    fn depth(&self) -> u16 {
        self.lb + self.lazy.len() as u16
    }

    fn push(&mut self, e: Ent) {
        self.lazy.push(e);
    }

    /// Pop one symbolic entry; returns it with its abstract depth.
    fn pop(&mut self) -> Option<(Ent, u16)> {
        match self.lazy.pop() {
            Some(e) => Some((e, self.lb + self.lazy.len() as u16)),
            None => {
                self.lb = self.lb.checked_sub(1)?;
                Some((Ent::Canon, self.lb))
            }
        }
    }

    /// Register holding a deduplicated constant (allocating if new).
    fn const_reg(&mut self, v: RVal) -> Option<R> {
        if let Some(&r) = self.cmap.get(&v.0) {
            return Some(r);
        }
        let r = u16::try_from(self.cbase as u32 + self.consts.len() as u32).ok()?;
        self.consts.push(v);
        self.cmap.insert(v.0, r);
        Some(r)
    }

    /// The register an entry's value can be read from right now.
    fn reg_of(&mut self, e: Ent, depth: u16) -> Option<R> {
        match e {
            Ent::Canon => Some(self.s(depth)),
            Ent::Loc(r) => Some(r),
            Ent::Imm(v) => self.const_reg(v),
        }
    }

    /// Force lazy entry `i` into its canonical register.
    fn mat_entry(&mut self, i: usize) -> Option<()> {
        let e = self.lazy[i];
        let dst = self.s(self.lb + i as u16);
        match e {
            Ent::Canon => {}
            Ent::Loc(src) => {
                self.out.push(ROp::Mov { dst, src });
                self.lazy[i] = Ent::Canon;
            }
            Ent::Imm(v) => {
                let src = self.const_reg(v)?;
                self.out.push(ROp::Mov { dst, src });
                self.lazy[i] = Ent::Canon;
            }
        }
        Some(())
    }

    /// Force the whole stack canonical (required before any branch, since
    /// every predecessor of a block must leave the same register state).
    fn mat_all(&mut self) -> Option<()> {
        for i in 0..self.lazy.len() {
            self.mat_entry(i)?;
        }
        self.lb += self.lazy.len() as u16;
        self.lazy.clear();
        Some(())
    }

    /// Force the top `n` entries canonical (call arguments form a
    /// contiguous register window).
    fn mat_top(&mut self, n: u16) -> Option<()> {
        let from = self.lazy.len().saturating_sub(n as usize);
        for i in from..self.lazy.len() {
            self.mat_entry(i)?;
        }
        Some(())
    }

    /// The last emitted instruction, if it belongs to the current block and
    /// is a `MulF`/`MulI`: `(is_float, dst, a, b)`.
    fn last_mul(&self) -> Option<(bool, R, R, R)> {
        if self.out.len() <= self.fuse_from {
            return None;
        }
        match self.out.last() {
            Some(&ROp::MulF { dst, a, b }) => Some((true, dst, a, b)),
            Some(&ROp::MulI { dst, a, b }) => Some((false, dst, a, b)),
            _ => None,
        }
    }

    /// Try to retarget the last instruction's pure destination from `from`
    /// to `to`. Sound because sources are read before the destination is
    /// written, and `from` (a dead canonical slot above the stack top) is
    /// never read afterwards.
    fn try_patch_dst(&mut self, from: R, to: R) -> bool {
        if self.out.len() <= self.fuse_from {
            return false;
        }
        if let Some(op) = self.out.last_mut() {
            if let Some(d) = pure_dst(op) {
                if *d == from {
                    *d = to;
                    return true;
                }
            }
        }
        false
    }

    /// `St(slot)`: store the popped value into local `slot`.
    fn st_local(&mut self, slot: R) -> Option<()> {
        let (e, d) = self.pop()?;
        // Remaining lazy aliases of this local must capture its old value
        // before the overwrite.
        for i in 0..self.lazy.len() {
            if self.lazy[i] == Ent::Loc(slot) {
                self.mat_entry(i)?;
            }
        }
        match e {
            Ent::Loc(r) if r == slot => {}
            Ent::Loc(src) => self.out.push(ROp::Mov { dst: slot, src }),
            Ent::Imm(v) => {
                let src = self.const_reg(v)?;
                self.out.push(ROp::Mov { dst: slot, src });
            }
            Ent::Canon => {
                let sd = self.s(d);
                if !self.try_patch_dst(sd, slot) {
                    self.out.push(ROp::Mov { dst: slot, src: sd });
                }
            }
        }
        Some(())
    }

    fn dup(&mut self) -> Option<()> {
        let (e, d) = self.pop()?;
        match e {
            Ent::Canon => {
                self.push(Ent::Canon);
                self.out.push(ROp::Mov {
                    dst: self.s(d + 1),
                    src: self.s(d),
                });
                self.push(Ent::Canon);
            }
            other => {
                self.push(other);
                self.push(other);
            }
        }
        Some(())
    }

    fn dup2(&mut self) -> Option<()> {
        let (eb, db) = self.pop()?;
        let (ea, da) = self.pop()?;
        self.push(ea);
        self.push(eb);
        for (e, from) in [(ea, da), (eb, db)] {
            match e {
                Ent::Canon => {
                    let dst = self.s(self.depth());
                    self.out.push(ROp::Mov { dst, src: self.s(from) });
                    self.push(Ent::Canon);
                }
                other => self.push(other),
            }
        }
        Some(())
    }

    fn swap(&mut self) -> Option<()> {
        let (eb, db) = self.pop()?;
        let (ea, da) = self.pop()?;
        match (ea, eb) {
            (Ent::Canon, Ent::Canon) => {
                self.out.push(ROp::Swap {
                    a: self.s(da),
                    b: self.s(db),
                });
                self.push(Ent::Canon);
                self.push(Ent::Canon);
            }
            (Ent::Canon, eb) => {
                // `a` moves up into the old top slot; `b` stays lazy below.
                self.out.push(ROp::Mov {
                    dst: self.s(db),
                    src: self.s(da),
                });
                self.push(eb);
                self.push(Ent::Canon);
            }
            (ea, Ent::Canon) => {
                // `b` moves down into the old second slot; `a` stays lazy.
                self.out.push(ROp::Mov {
                    dst: self.s(da),
                    src: self.s(db),
                });
                self.push(Ent::Canon);
                self.push(ea);
            }
            (ea, eb) => {
                self.push(eb);
                self.push(ea);
            }
        }
        Some(())
    }

    /// Float add with multiply fusion (both operand orders, kept distinct
    /// so the evaluation matches the stack engine bit-for-bit).
    fn add_f(&mut self) -> Option<()> {
        let (eb, db) = self.pop()?;
        let (ea, da) = self.pop()?;
        let dst = self.s(da);
        if ea == Ent::Canon {
            if let Some((true, md, ma, mb)) = self.last_mul() {
                if md == self.s(da) {
                    let c = self.reg_of(eb, db)?;
                    *self.out.last_mut()? = ROp::Mad { dst, a: ma, b: mb, c };
                    self.push(Ent::Canon);
                    return Some(());
                }
            }
        }
        if eb == Ent::Canon {
            if let Some((true, md, ma, mb)) = self.last_mul() {
                if md == self.s(db) {
                    let c = self.reg_of(ea, da)?;
                    *self.out.last_mut()? = ROp::MadRF { dst, c, a: ma, b: mb };
                    self.push(Ent::Canon);
                    return Some(());
                }
            }
        }
        let b = self.reg_of(eb, db)?;
        let a = self.reg_of(ea, da)?;
        self.out.push(ROp::AddF { dst, a, b });
        self.push(Ent::Canon);
        Some(())
    }

    /// Integer add with multiply fusion (wrapping add commutes, so one
    /// `MadI` covers both operand orders).
    fn add_i(&mut self) -> Option<()> {
        let (eb, db) = self.pop()?;
        let (ea, da) = self.pop()?;
        let dst = self.s(da);
        for (e, dep, other, odep) in [(ea, da, eb, db), (eb, db, ea, da)] {
            if e == Ent::Canon {
                if let Some((false, md, ma, mb)) = self.last_mul() {
                    if md == self.s(dep) {
                        let c = self.reg_of(other, odep)?;
                        *self.out.last_mut()? = ROp::MadI { dst, a: ma, b: mb, c };
                        self.push(Ent::Canon);
                        return Some(());
                    }
                }
            }
        }
        let b = self.reg_of(eb, db)?;
        let a = self.reg_of(ea, da)?;
        self.out.push(ROp::AddI { dst, a, b });
        self.push(Ent::Canon);
        Some(())
    }
}

/// Lower one builtin call whose operands are already in registers.
fn lower_builtin(b: Builtin, dst: R, a: &[R; 3]) -> ROp {
    use Builtin::*;
    match b {
        GetGlobalId | GetLocalId | GetGroupId | GetGlobalSize | GetLocalSize | GetNumGroups => {
            ROp::Id { b, dst, src: a[0] }
        }
        Sqrt | Rsqrt | Fabs | Floor | Ceil | Exp | Log | Sin | Cos => ROp::Math1 { b, dst, src: a[0] },
        Pow | Fmin | Fmax => ROp::Math2F {
            b,
            dst,
            a: a[0],
            b2: a[1],
        },
        MinI | MaxI => ROp::Math2I {
            b,
            dst,
            a: a[0],
            b2: a[1],
        },
        AbsI => ROp::AbsI { dst, src: a[0] },
        Clamp => ROp::Clamp {
            dst,
            v: a[0],
            lo: a[1],
            hi: a[2],
        },
        Mad => ROp::Mad {
            dst,
            a: a[0],
            b: a[1],
            c: a[2],
        },
        Dot => ROp::Dot {
            dst,
            a: a[0],
            b: a[1],
        },
    }
}

/// Lower one function's blocks into `out` via the symbolic-stack emitter.
/// Jump targets are emitted as *stack* instruction indices and rewritten by
/// the caller once every block's register index is known (`labels`);
/// `jumps` records which emitted instructions need patching. Returns the
/// function's constant pool (its registers start at `an.nregs`).
fn emit_fn(
    code: &[Op],
    an: &FnAnalysis,
    rets: &[Option<bool>],
    nlocals: u16,
    out: &mut Vec<ROp>,
    labels: &mut HashMap<u32, u32>,
    jumps: &mut Vec<usize>,
) -> Option<Vec<RVal>> {
    let mut em = Emitter {
        out,
        nlocals,
        cbase: an.nregs,
        consts: Vec::new(),
        cmap: HashMap::new(),
        lazy: Vec::new(),
        lb: 0,
        fuse_from: 0,
    };
    for &leader in &an.leaders {
        if !an.depth.contains_key(&leader) {
            continue; // unreachable target of an unreachable jump
        }
        labels.insert(leader, em.out.len() as u32);
        // Pass 1: the block's total abstract cost, charged at entry.
        let mut ops = 0u64;
        let mut cip = leader as usize;
        loop {
            let op = &code[cip];
            ops += op.cost();
            if matches!(op, Op::Jmp(_) | Op::Jz(_) | Op::Jnz(_) | Op::Ret | Op::RetV) {
                break;
            }
            cip += 1;
            if an.leaders.contains(&(cip as u32)) {
                break;
            }
        }
        em.out.push(ROp::Ops(ops));
        // Pass 2: lower each op against the symbolic stack.
        em.lazy.clear();
        em.lb = *an.depth.get(&leader)?;
        em.fuse_from = em.out.len();
        let mut ip = leader as usize;
        loop {
            let op = &code[ip];
            let mut terminated = false;
            match op {
                Op::PushI(v) => em.push(Ent::Imm(RVal::from_i(*v))),
                Op::PushF(v) => em.push(Ent::Imm(RVal::from_f(*v))),
                Op::PushPtr { space, slot, base } => em.push(Ent::Imm(RVal::from_ptr(PtrV {
                    space: *space,
                    slot: *slot,
                    base: *base,
                }))),
                Op::Pop => {
                    em.pop()?;
                }
                Op::Dup => em.dup()?,
                Op::Dup2 => em.dup2()?,
                Op::Swap => em.swap()?,
                Op::Ld(slot) => {
                    if *slot >= nlocals {
                        return None; // malformed hand-built unit
                    }
                    em.push(Ent::Loc(*slot));
                }
                Op::St(slot) => {
                    if *slot >= nlocals {
                        return None;
                    }
                    em.st_local(*slot)?;
                }
                Op::AddI => em.add_i()?,
                Op::AddF => em.add_f()?,
                Op::SubI | Op::MulI | Op::DivI | Op::RemI | Op::Shl | Op::Shr | Op::BAnd
                | Op::BOr | Op::BXor | Op::SubF | Op::MulF | Op::DivF | Op::AddF4 | Op::SubF4
                | Op::MulF4 | Op::DivF4 => {
                    let (eb, db) = em.pop()?;
                    let (ea, da) = em.pop()?;
                    let b = em.reg_of(eb, db)?;
                    let a = em.reg_of(ea, da)?;
                    let dst = em.s(da);
                    em.out.push(match op {
                        Op::SubI => ROp::SubI { dst, a, b },
                        Op::MulI => ROp::MulI { dst, a, b },
                        Op::DivI => ROp::DivI { dst, a, b },
                        Op::RemI => ROp::RemI { dst, a, b },
                        Op::Shl => ROp::Shl { dst, a, b },
                        Op::Shr => ROp::Shr { dst, a, b },
                        Op::BAnd => ROp::BAnd { dst, a, b },
                        Op::BOr => ROp::BOr { dst, a, b },
                        Op::BXor => ROp::BXor { dst, a, b },
                        Op::SubF => ROp::SubF { dst, a, b },
                        Op::MulF => ROp::MulF { dst, a, b },
                        Op::DivF => ROp::DivF { dst, a, b },
                        Op::AddF4 => ROp::AddF4 { dst, a, b },
                        Op::SubF4 => ROp::SubF4 { dst, a, b },
                        Op::MulF4 => ROp::MulF4 { dst, a, b },
                        _ => ROp::DivF4 { dst, a, b },
                    });
                    em.push(Ent::Canon);
                }
                Op::NegI | Op::NegF | Op::BNot | Op::LNot | Op::I2F | Op::F2I | Op::SplatF4 => {
                    let (e, d) = em.pop()?;
                    let src = em.reg_of(e, d)?;
                    let dst = em.s(d);
                    em.out.push(match op {
                        Op::NegI => ROp::NegI { dst, src },
                        Op::NegF => ROp::NegF { dst, src },
                        Op::BNot => ROp::BNot { dst, src },
                        Op::LNot => ROp::LNot { dst, src },
                        Op::I2F => ROp::I2F { dst, src },
                        Op::F2I => ROp::F2I { dst, src },
                        _ => ROp::SplatF4 { dst, src },
                    });
                    em.push(Ent::Canon);
                }
                Op::MakeF4 => {
                    let mut src = [0 as R; 4];
                    let mut dd = 0u16;
                    for k in (0..4).rev() {
                        let (e, dep) = em.pop()?;
                        src[k] = em.reg_of(e, dep)?;
                        dd = dep;
                    }
                    em.out.push(ROp::MakeF4 { dst: em.s(dd), src });
                    em.push(Ent::Canon);
                }
                Op::GetComp(c) => {
                    let (e, d) = em.pop()?;
                    let src = em.reg_of(e, d)?;
                    em.out.push(ROp::GetComp {
                        dst: em.s(d),
                        src,
                        c: *c,
                    });
                    em.push(Ent::Canon);
                }
                Op::SetComp(c) => {
                    let (es, ds) = em.pop()?;
                    let (ev, dv) = em.pop()?;
                    let scl = em.reg_of(es, ds)?;
                    let vec = em.reg_of(ev, dv)?;
                    em.out.push(ROp::SetComp {
                        dst: em.s(dv),
                        vec,
                        scl,
                        c: *c,
                    });
                    em.push(Ent::Canon);
                }
                Op::CmpI(cmp) | Op::CmpF(cmp) => {
                    let float = matches!(op, Op::CmpF(_));
                    // Fuse with an immediately following conditional branch
                    // when no jump lands in between (the compare result is
                    // always only consumed by that branch).
                    let next = ip + 1;
                    let fused = if !an.leaders.contains(&(next as u32)) {
                        match code.get(next) {
                            Some(Op::Jz(t)) => Some((*t, false)),
                            Some(Op::Jnz(t)) => Some((*t, true)),
                            _ => None,
                        }
                    } else {
                        None
                    };
                    let (eb, db) = em.pop()?;
                    let (ea, da) = em.pop()?;
                    let b = em.reg_of(eb, db)?;
                    let a = em.reg_of(ea, da)?;
                    if let Some((t, when)) = fused {
                        em.mat_all()?;
                        jumps.push(em.out.len());
                        em.out.push(if float {
                            ROp::JcF { cmp: *cmp, a, b, t, when }
                        } else {
                            ROp::JcI { cmp: *cmp, a, b, t, when }
                        });
                        terminated = true;
                        ip = next; // consumed the branch too
                    } else {
                        let dst = em.s(da);
                        em.out.push(if float {
                            ROp::CmpF { cmp: *cmp, dst, a, b }
                        } else {
                            ROp::CmpI { cmp: *cmp, dst, a, b }
                        });
                        em.push(Ent::Canon);
                    }
                }
                Op::Jmp(t) => {
                    em.mat_all()?;
                    jumps.push(em.out.len());
                    em.out.push(ROp::Jmp { t: *t });
                    terminated = true;
                }
                Op::Jz(t) | Op::Jnz(t) => {
                    let (e, d) = em.pop()?;
                    let c = em.reg_of(e, d)?;
                    em.mat_all()?;
                    jumps.push(em.out.len());
                    em.out.push(if matches!(op, Op::Jz(_)) {
                        ROp::Jz { c, t: *t }
                    } else {
                        ROp::Jnz { c, t: *t }
                    });
                    terminated = true;
                }
                Op::LdElem(ty) => {
                    let (ei, di) = em.pop()?;
                    let (ep, dp) = em.pop()?;
                    let idx = em.reg_of(ei, di)?;
                    let ptr = em.reg_of(ep, dp)?;
                    em.out.push(ROp::Load {
                        ty: *ty,
                        dst: em.s(dp),
                        ptr,
                        idx,
                    });
                    em.push(Ent::Canon);
                }
                Op::StElem(ty) => {
                    let (ev, dv) = em.pop()?;
                    let (ei, di) = em.pop()?;
                    let (ep, dp) = em.pop()?;
                    let val = em.reg_of(ev, dv)?;
                    let idx = em.reg_of(ei, di)?;
                    let ptr = em.reg_of(ep, dp)?;
                    em.out.push(ROp::Store {
                        ty: *ty,
                        ptr,
                        idx,
                        val,
                    });
                }
                Op::Call { func, nargs } => {
                    let n = *nargs as u16;
                    em.mat_top(n)?;
                    for _ in 0..n {
                        em.pop()?;
                    }
                    let d = em.depth();
                    em.out.push(ROp::Call {
                        func: *func,
                        args_at: em.s(d),
                    });
                    if (*rets.get(*func as usize)?)? {
                        em.push(Ent::Canon);
                    }
                }
                Op::CallB(b, argc) => {
                    if *argc != builtin_arity(*b) {
                        return None;
                    }
                    let mut regs = [0 as R; 3];
                    let mut dd = 0u16;
                    for k in (0..*argc as usize).rev() {
                        let (e, dep) = em.pop()?;
                        regs[k] = em.reg_of(e, dep)?;
                        dd = dep;
                    }
                    em.out.push(lower_builtin(*b, em.s(dd), &regs));
                    em.push(Ent::Canon);
                }
                Op::Barrier => em.out.push(ROp::Barrier),
                Op::Ret => {
                    em.out.push(ROp::Ret);
                    terminated = true;
                }
                Op::RetV => {
                    let (e, d) = em.pop()?;
                    let src = em.reg_of(e, d)?;
                    em.out.push(ROp::RetV { src });
                    terminated = true;
                }
            }
            if terminated {
                break;
            }
            ip += 1;
            if an.leaders.contains(&(ip as u32)) {
                // Fall through into the next block: its other predecessors
                // expect the whole stack in canonical registers.
                em.mat_all()?;
                break;
            }
        }
    }
    Some(em.consts)
}

/// Every register operand of `op` is inside the `nregs`-register frame.
fn regs_ok(op: &ROp, nregs: u16) -> bool {
    let ok = |r: R| r < nregs;
    match *op {
        ROp::Ops(_) | ROp::Barrier | ROp::Ret | ROp::Jmp { .. } => true,
        ROp::Mov { dst, src }
        | ROp::NegI { dst, src }
        | ROp::BNot { dst, src }
        | ROp::LNot { dst, src }
        | ROp::NegF { dst, src }
        | ROp::I2F { dst, src }
        | ROp::F2I { dst, src }
        | ROp::SplatF4 { dst, src }
        | ROp::GetComp { dst, src, .. }
        | ROp::Id { dst, src, .. }
        | ROp::Math1 { dst, src, .. }
        | ROp::AbsI { dst, src } => ok(dst) && ok(src),
        ROp::Swap { a, b } => ok(a) && ok(b),
        ROp::AddI { dst, a, b }
        | ROp::SubI { dst, a, b }
        | ROp::MulI { dst, a, b }
        | ROp::DivI { dst, a, b }
        | ROp::RemI { dst, a, b }
        | ROp::Shl { dst, a, b }
        | ROp::Shr { dst, a, b }
        | ROp::BAnd { dst, a, b }
        | ROp::BOr { dst, a, b }
        | ROp::BXor { dst, a, b }
        | ROp::AddF { dst, a, b }
        | ROp::SubF { dst, a, b }
        | ROp::MulF { dst, a, b }
        | ROp::DivF { dst, a, b }
        | ROp::AddF4 { dst, a, b }
        | ROp::SubF4 { dst, a, b }
        | ROp::MulF4 { dst, a, b }
        | ROp::DivF4 { dst, a, b }
        | ROp::Dot { dst, a, b }
        | ROp::CmpI { dst, a, b, .. }
        | ROp::CmpF { dst, a, b, .. }
        | ROp::Math2F { dst, a, b2: b, .. }
        | ROp::Math2I { dst, a, b2: b, .. } => ok(dst) && ok(a) && ok(b),
        ROp::MakeF4 { dst, src } => ok(dst) && src.iter().all(|&r| ok(r)),
        ROp::SetComp { dst, vec, scl, .. } => ok(dst) && ok(vec) && ok(scl),
        ROp::Jz { c, .. } | ROp::Jnz { c, .. } => ok(c),
        ROp::JcI { a, b, .. } | ROp::JcF { a, b, .. } => ok(a) && ok(b),
        ROp::Load { dst, ptr, idx, .. } => ok(dst) && ok(ptr) && ok(idx),
        ROp::Store { ptr, idx, val, .. } => ok(ptr) && ok(idx) && ok(val),
        // args_at == nregs is legal for a 0-arg call (nothing is copied).
        ROp::Call { args_at, .. } => args_at <= nregs,
        ROp::Clamp { dst, v, lo, hi } => ok(dst) && ok(v) && ok(lo) && ok(hi),
        ROp::Mad { dst, a, b, c } | ROp::MadI { dst, a, b, c } | ROp::MadRF { dst, c, a, b } => {
            ok(dst) && ok(a) && ok(b) && ok(c)
        }
        ROp::RetV { src } => ok(src),
    }
}

/// Static check that makes the unchecked interpreter loop sound: every
/// register operand is inside its function's frame, every jump target is
/// inside its function's instruction range, every function range ends in an
/// unconditional terminator (sequential execution can never run off the
/// end), and every call site's argument window and callee metadata are
/// consistent. Returns `None` (→ stack fallback) on any violation.
fn validate(prog: &RegProgram, main_end: usize, franges: &[Option<(usize, usize)>]) -> Option<()> {
    let code = &prog.code;
    if prog.const_base as u32 + prog.consts.len() as u32 != prog.nregs as u32
        || prog.entry as usize >= main_end
    {
        return None;
    }
    let mut ranges: Vec<(usize, usize, u16)> = vec![(0, main_end, prog.nregs)];
    for (fi, f) in prog.funcs.iter().enumerate() {
        if !f.compiled {
            continue;
        }
        let (s, e) = (*franges.get(fi)?)?;
        if (f.nargs as u16) > f.nlocals
            || f.nlocals > f.const_base
            || f.const_base as u32 + f.consts.len() as u32 != f.nregs as u32
            || (f.entry as usize) < s
            || (f.entry as usize) >= e
        {
            return None;
        }
        ranges.push((s, e, f.nregs));
    }
    for &(start, end, nregs) in &ranges {
        if start >= end || end > code.len() {
            return None;
        }
        for op in &code[start..end] {
            if !regs_ok(op, nregs) {
                return None;
            }
            match op {
                ROp::Jmp { t }
                | ROp::Jz { t, .. }
                | ROp::Jnz { t, .. }
                | ROp::JcI { t, .. }
                | ROp::JcF { t, .. } => {
                    let t = *t as usize;
                    if t < start || t >= end {
                        return None;
                    }
                }
                ROp::Call { func, args_at } => {
                    let f = prog.funcs.get(*func as usize)?;
                    if !f.compiled || *args_at as u32 + f.nargs as u32 > nregs as u32 {
                        return None;
                    }
                }
                _ => {}
            }
        }
        if !matches!(code[end - 1], ROp::Jmp { .. } | ROp::Ret | ROp::RetV { .. }) {
            return None;
        }
    }
    Some(())
}

/// Lower one kernel (and every device function it transitively calls) to
/// register IR. `None` means the bytecode uses a shape the lowering does
/// not cover (depth-inconsistent joins, ambiguous function returns, a
/// malformed hand-built unit); the dispatcher then falls back to the stack
/// interpreter.
///
/// ```
/// use oclsim::minicl::{self, regir};
///
/// let unit = minicl::parse(
///     "__kernel void id(__global int* a) { a[get_global_id(0)] = get_global_id(0); }",
/// ).unwrap();
/// let compiled = minicl::compile(&unit).unwrap();
/// let info = compiled.kernels.get("id").unwrap();
/// let prog = regir::compile_kernel(&compiled, info).expect("codegen output always lowers");
/// // The symbolic-stack lowering folds pushes and moves away, so the
/// // register program stays close to the stack bytecode in size.
/// assert!(prog.len() <= compiled.code.len() + 8);
/// ```
///
/// See [`RegProgram`] for a full lower-and-dispatch example.
pub fn compile_kernel(unit: &CompiledUnit, kernel: &KernelInfo) -> Option<RegProgram> {
    let rets: Vec<Option<bool>> = unit
        .funcs
        .iter()
        .map(|f| func_returns(&unit.code, f.entry))
        .collect();

    let kmain = analyze(&unit.code, &rets, kernel.entry, kernel.nlocals)?;

    // Transitively analyze every called device function.
    let mut fn_an: Vec<Option<FnAnalysis>> = unit.funcs.iter().map(|_| None).collect();
    let mut queue: Vec<u16> = kmain.calls.clone();
    while let Some(fi) = queue.pop() {
        let fi = fi as usize;
        if fi >= unit.funcs.len() || fn_an[fi].is_some() {
            continue;
        }
        let f: &FuncInfo = &unit.funcs[fi];
        let an = analyze(&unit.code, &rets, f.entry, f.nlocals)?;
        queue.extend_from_slice(&an.calls);
        fn_an[fi] = Some(an);
    }

    let mut code: Vec<ROp> = Vec::new();
    let mut labels: HashMap<u32, u32> = HashMap::new();
    let mut jumps: Vec<usize> = Vec::new();
    let main_consts = emit_fn(
        &unit.code,
        &kmain,
        &rets,
        kernel.nlocals,
        &mut code,
        &mut labels,
        &mut jumps,
    )?;
    let main_end = code.len();
    let main_nregs = u16::try_from(kmain.nregs as u32 + main_consts.len() as u32).ok()?;

    let mut funcs: Vec<RFunc> = unit
        .funcs
        .iter()
        .map(|f| RFunc {
            entry: 0,
            nargs: f.nargs,
            nlocals: f.nlocals,
            const_base: 0,
            nregs: 0,
            consts: Vec::new(),
            compiled: false,
            start: 0,
            end: 0,
        })
        .collect();
    let mut franges: Vec<Option<(usize, usize)>> = vec![None; unit.funcs.len()];
    for (fi, an) in fn_an.iter().enumerate() {
        if let Some(an) = an {
            let f = &unit.funcs[fi];
            let start = code.len();
            let fconsts = emit_fn(
                &unit.code,
                an,
                &rets,
                f.nlocals,
                &mut code,
                &mut labels,
                &mut jumps,
            )?;
            franges[fi] = Some((start, code.len()));
            funcs[fi].entry = *labels.get(&f.entry)?;
            funcs[fi].const_base = an.nregs;
            funcs[fi].nregs = u16::try_from(an.nregs as u32 + fconsts.len() as u32).ok()?;
            funcs[fi].consts = fconsts;
            funcs[fi].compiled = true;
            funcs[fi].start = u32::try_from(start).ok()?;
            funcs[fi].end = u32::try_from(code.len()).ok()?;
        }
    }
    // Rewrite stack-ip jump targets into register-code indices.
    for &j in &jumps {
        let t = match &code[j] {
            ROp::Jmp { t }
            | ROp::Jz { t, .. }
            | ROp::Jnz { t, .. }
            | ROp::JcI { t, .. }
            | ROp::JcF { t, .. } => *t,
            _ => return None,
        };
        let new_t = *labels.get(&t)?;
        match &mut code[j] {
            ROp::Jmp { t }
            | ROp::Jz { t, .. }
            | ROp::Jnz { t, .. }
            | ROp::JcI { t, .. }
            | ROp::JcF { t, .. } => *t = new_t,
            _ => return None,
        }
    }
    let entry = *labels.get(&kernel.entry)?;
    let prog = RegProgram {
        code,
        entry,
        nregs: main_nregs,
        const_base: kmain.nregs,
        consts: main_consts,
        funcs,
        main_end: u32::try_from(main_end).ok()?,
    };
    validate(&prog, main_end, &franges)?;
    Some(prog)
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

struct RFrame {
    ret_ip: usize,
    prev_base: usize,
    prev_nregs: usize,
    /// Absolute register receiving the callee's return value.
    dst: usize,
}

/// One work-item of the register engine.
pub(super) struct RItem {
    ip: usize,
    base: usize,
    nregs: usize,
    regs: Vec<RVal>,
    frames: Vec<RFrame>,
    priv_mem: Vec<u8>,
    gid: [usize; 3],
    lid: [usize; 3],
    ops: u64,
}

/// The register engine's side of a dispatch.
pub(super) struct RCtx<'a> {
    prog: &'a RegProgram,
    kernel: &'a KernelInfo,
    /// Bound locals, zeroed canonical stack slots, then the kernel's
    /// constant pool: `len == prog.nregs` by construction.
    template: Vec<RVal>,
    pool: &'a mut MemPool,
    local_regions: Vec<Vec<u8>>,
    geo: Geometry,
}

impl<'a> RCtx<'a> {
    pub(super) fn new(
        prog: &'a RegProgram,
        kernel: &'a KernelInfo,
        args: &[RtArg],
        pool: &'a mut MemPool,
        geo: Geometry,
        local_regions: Vec<Vec<u8>>,
    ) -> Self {
        let template = register_template(kernel, args, prog.const_base, &prog.consts);
        debug_assert_eq!(template.len(), prog.nregs as usize);
        RCtx {
            prog,
            kernel,
            template,
            pool,
            local_regions,
            geo,
        }
    }
}

impl GroupEngine for RCtx<'_> {
    type Item = RItem;

    fn geometry(&mut self) -> &mut Geometry {
        &mut self.geo
    }

    fn local_regions(&mut self) -> &mut [Vec<u8>] {
        &mut self.local_regions
    }

    fn arena(&self) -> RItem {
        RItem {
            ip: 0,
            base: 0,
            nregs: 0,
            regs: Vec::new(),
            frames: Vec::new(),
            priv_mem: Vec::new(),
            gid: [0; 3],
            lid: [0; 3],
            ops: 0,
        }
    }

    /// Afterwards `regs.len() == prog.nregs == base + nregs` — the frame
    /// invariant the unchecked interpreter relies on (calls only ever grow
    /// `regs`).
    fn reset(&self, item: &mut RItem, lid: [usize; 3]) {
        item.ip = self.prog.entry as usize;
        item.base = 0;
        item.nregs = self.prog.nregs as usize;
        item.regs.clear();
        item.regs.extend_from_slice(&self.template);
        item.frames.clear();
        item.priv_mem.clear();
        item.priv_mem.resize(self.kernel.priv_bytes, 0);
        item.lid = lid;
        item.gid = self.geo.item_gid(lid);
        item.ops = 0;
    }

    fn step(&mut self, item: &mut RItem) -> Result<Stop, Trap> {
        step_until_stop(item, self)
    }

    fn ops(item: &RItem) -> u64 {
        item.ops
    }

    fn gid(item: &RItem) -> [usize; 3] {
        item.gid
    }
}

#[inline(always)]
pub(super) fn cmp_i(cmp: Cmp, a: i64, b: i64) -> bool {
    match cmp {
        Cmp::Eq => a == b,
        Cmp::Ne => a != b,
        Cmp::Lt => a < b,
        Cmp::Le => a <= b,
        Cmp::Gt => a > b,
        Cmp::Ge => a >= b,
    }
}

#[inline(always)]
pub(super) fn cmp_f(cmp: Cmp, a: f64, b: f64) -> bool {
    match cmp {
        Cmp::Eq => a == b,
        Cmp::Ne => a != b,
        Cmp::Lt => a < b,
        Cmp::Le => a <= b,
        Cmp::Gt => a > b,
        Cmp::Ge => a >= b,
    }
}

fn region_mut<'c>(
    gid: [usize; 3],
    ctx: &'c mut RCtx<'_>,
    ptr: PtrV,
) -> Result<(&'c mut [u8], bool), Trap> {
    match ptr.space {
        Space::Global | Space::Constant => {
            let slot = ptr.slot as usize;
            if slot >= ctx.pool.bufs.len() {
                return Err(Trap {
                    message: format!("pointer to unknown buffer slot {slot}"),
                    global_id: gid,
                });
            }
            let ro = ctx.pool.read_only[slot] || ptr.space == Space::Constant;
            Ok((ctx.pool.bufs[slot].as_mut_slice(), ro))
        }
        Space::Local => {
            let slot = ptr.slot as usize;
            if slot >= ctx.local_regions.len() {
                return Err(Trap {
                    message: format!("pointer to unknown local region {slot}"),
                    global_id: gid,
                });
            }
            Ok((ctx.local_regions[slot].as_mut_slice(), false))
        }
        Space::Private => Err(Trap {
            message: "private pointers are resolved by the caller".to_string(),
            global_id: gid,
        }),
    }
}

#[inline(always)]
pub(super) fn read_reg(bytes: &[u8], at: usize, ty: ElemTy) -> Option<RVal> {
    let slice = bytes.get(at..at + ty.byte_size())?;
    Some(match ty {
        ElemTy::I32 => RVal::from_i(i32::from_le_bytes(slice.try_into().ok()?) as i64),
        ElemTy::I64 => RVal::from_i(i64::from_le_bytes(slice.try_into().ok()?)),
        ElemTy::F32 => RVal::from_f(f32::from_le_bytes(slice.try_into().ok()?) as f64),
        ElemTy::F4 => RVal([
            u64::from_le_bytes(slice[0..8].try_into().ok()?),
            u64::from_le_bytes(slice[8..16].try_into().ok()?),
        ]),
    })
}

#[inline(always)]
pub(super) fn write_reg(bytes: &mut [u8], at: usize, ty: ElemTy, v: RVal) -> Option<()> {
    let slice = bytes.get_mut(at..at + ty.byte_size())?;
    match ty {
        ElemTy::I32 => slice.copy_from_slice(&(v.i() as i32).to_le_bytes()),
        ElemTy::I64 => slice.copy_from_slice(&v.i().to_le_bytes()),
        ElemTy::F32 => slice.copy_from_slice(&(v.f() as f32).to_le_bytes()),
        ElemTy::F4 => {
            slice[0..8].copy_from_slice(&v.0[0].to_le_bytes());
            slice[8..16].copy_from_slice(&v.0[1].to_le_bytes());
        }
    }
    Some(())
}

fn load(
    item: &mut RItem,
    ctx: &mut RCtx<'_>,
    ptr: PtrV,
    idx: i64,
    ty: ElemTy,
) -> Result<RVal, Trap> {
    let size = ty.byte_size();
    let gid = item.gid;
    let byte = checked_offset(gid, ptr.base, idx, size)?;
    if ptr.space == Space::Private {
        let bytes = &item.priv_mem;
        return read_reg(bytes, byte, ty).ok_or_else(|| oob(gid, byte, size, bytes.len()));
    }
    let (bytes, _) = region_mut(gid, ctx, ptr)?;
    let len = bytes.len();
    read_reg(bytes, byte, ty).ok_or_else(|| oob(gid, byte, size, len))
}

fn store(
    item: &mut RItem,
    ctx: &mut RCtx<'_>,
    ptr: PtrV,
    idx: i64,
    ty: ElemTy,
    v: RVal,
) -> Result<(), Trap> {
    let size = ty.byte_size();
    let gid = item.gid;
    let byte = checked_offset(gid, ptr.base, idx, size)?;
    if ptr.space == Space::Private {
        let len = item.priv_mem.len();
        return write_reg(&mut item.priv_mem, byte, ty, v).ok_or_else(|| oob(gid, byte, size, len));
    }
    let (bytes, read_only) = region_mut(gid, ctx, ptr)?;
    if read_only {
        return Err(Trap {
            message: "write through const/__constant pointer".to_string(),
            global_id: gid,
        });
    }
    let len = bytes.len();
    write_reg(bytes, byte, ty, v).ok_or_else(|| oob(gid, byte, size, len))
}

fn step_until_stop(item: &mut RItem, ctx: &mut RCtx<'_>) -> Result<Stop, Trap> {
    let prog = ctx.prog;
    // SAFETY argument for the unchecked accesses below (all of them):
    //
    // * Register reads/writes: `validate` proved every register operand of
    //   every instruction is `< nregs` of the function it belongs to
    //   (`args_at` of a 0-arg call may equal `nregs` but is never
    //   dereferenced then), and the frame invariant
    //   `item.regs.len() >= item.base + item.nregs` always holds:
    //   `RItem::init` sets `len == prog.nregs` with `base == 0`; `Call`
    //   grows `regs` to cover the callee frame *before* switching to it;
    //   `Ret`/`RetV` only restore an older frame (and `regs` never shrinks).
    // * Instruction fetch: `validate` proved every jump target lies inside
    //   its function's range and every range ends in `Jmp`/`Ret`/`RetV`, so
    //   sequential execution cannot run past a range and `item.ip` is
    //   always a valid index into `prog.code` (a call site is never the
    //   last instruction of a range, so its return ip is in range too).
    macro_rules! rg {
        ($x:expr) => {
            // SAFETY: see the frame invariant above.
            unsafe { *item.regs.get_unchecked(item.base + $x as usize) }
        };
    }
    macro_rules! st {
        ($dst:expr, $v:expr) => {{
            let v = $v;
            // SAFETY: see the frame invariant above.
            unsafe { *item.regs.get_unchecked_mut(item.base + $dst as usize) = v };
        }};
    }
    loop {
        // SAFETY: `item.ip` is always in bounds, see above.
        let op = unsafe { prog.code.get_unchecked(item.ip) };
        item.ip += 1;
        match *op {
            ROp::Ops(n) => {
                item.ops += n;
                if item.ops > MAX_ITEM_OPS {
                    return Err(Trap {
                        message: "work-item exceeded the op budget (infinite loop?)".to_string(),
                        global_id: item.gid,
                    });
                }
            }
            ROp::Mov { dst, src } => st!(dst, rg!(src)),
            ROp::Swap { a, b } => item
                .regs
                .swap(item.base + a as usize, item.base + b as usize),
            ROp::AddI { dst, a, b } => st!(dst, RVal::from_i(rg!(a).i().wrapping_add(rg!(b).i()))),
            ROp::SubI { dst, a, b } => st!(dst, RVal::from_i(rg!(a).i().wrapping_sub(rg!(b).i()))),
            ROp::MulI { dst, a, b } => st!(dst, RVal::from_i(rg!(a).i().wrapping_mul(rg!(b).i()))),
            ROp::DivI { dst, a, b } => {
                let (x, y) = (rg!(a).i(), rg!(b).i());
                if y == 0 {
                    return Err(Trap {
                        message: "integer division by zero".to_string(),
                        global_id: item.gid,
                    });
                }
                st!(dst, RVal::from_i(x.wrapping_div(y)));
            }
            ROp::RemI { dst, a, b } => {
                let (x, y) = (rg!(a).i(), rg!(b).i());
                if y == 0 {
                    return Err(Trap {
                        message: "integer remainder by zero".to_string(),
                        global_id: item.gid,
                    });
                }
                st!(dst, RVal::from_i(x.wrapping_rem(y)));
            }
            ROp::Shl { dst, a, b } => {
                st!(dst, RVal::from_i(rg!(a).i().wrapping_shl(rg!(b).i() as u32)))
            }
            ROp::Shr { dst, a, b } => {
                st!(dst, RVal::from_i(rg!(a).i().wrapping_shr(rg!(b).i() as u32)))
            }
            ROp::BAnd { dst, a, b } => st!(dst, RVal::from_i(rg!(a).i() & rg!(b).i())),
            ROp::BOr { dst, a, b } => st!(dst, RVal::from_i(rg!(a).i() | rg!(b).i())),
            ROp::BXor { dst, a, b } => st!(dst, RVal::from_i(rg!(a).i() ^ rg!(b).i())),
            ROp::NegI { dst, src } => st!(dst, RVal::from_i(rg!(src).i().wrapping_neg())),
            ROp::BNot { dst, src } => st!(dst, RVal::from_i(!rg!(src).i())),
            ROp::LNot { dst, src } => st!(dst, RVal::from_i((rg!(src).i() == 0) as i64)),
            ROp::AddF { dst, a, b } => st!(dst, RVal::from_f(rg!(a).f() + rg!(b).f())),
            ROp::SubF { dst, a, b } => st!(dst, RVal::from_f(rg!(a).f() - rg!(b).f())),
            ROp::MulF { dst, a, b } => st!(dst, RVal::from_f(rg!(a).f() * rg!(b).f())),
            ROp::DivF { dst, a, b } => st!(dst, RVal::from_f(rg!(a).f() / rg!(b).f())),
            ROp::NegF { dst, src } => st!(dst, RVal::from_f(-rg!(src).f())),
            ROp::I2F { dst, src } => st!(dst, RVal::from_f(rg!(src).i() as f64)),
            ROp::F2I { dst, src } => {
                let x = rg!(src).f();
                st!(dst, RVal::from_i(if x.is_nan() { 0 } else { x as i64 }));
            }
            ROp::AddF4 { dst, a, b } => {
                let (x, y) = (rg!(a).f4(), rg!(b).f4());
                st!(dst, RVal::from_f4([x[0] + y[0], x[1] + y[1], x[2] + y[2], x[3] + y[3]]));
            }
            ROp::SubF4 { dst, a, b } => {
                let (x, y) = (rg!(a).f4(), rg!(b).f4());
                st!(dst, RVal::from_f4([x[0] - y[0], x[1] - y[1], x[2] - y[2], x[3] - y[3]]));
            }
            ROp::MulF4 { dst, a, b } => {
                let (x, y) = (rg!(a).f4(), rg!(b).f4());
                st!(dst, RVal::from_f4([x[0] * y[0], x[1] * y[1], x[2] * y[2], x[3] * y[3]]));
            }
            ROp::DivF4 { dst, a, b } => {
                let (x, y) = (rg!(a).f4(), rg!(b).f4());
                st!(dst, RVal::from_f4([x[0] / y[0], x[1] / y[1], x[2] / y[2], x[3] / y[3]]));
            }
            ROp::SplatF4 { dst, src } => {
                let x = rg!(src).f() as f32;
                st!(dst, RVal::from_f4([x; 4]));
            }
            ROp::MakeF4 { dst, src } => {
                let v = [
                    rg!(src[0]).f() as f32,
                    rg!(src[1]).f() as f32,
                    rg!(src[2]).f() as f32,
                    rg!(src[3]).f() as f32,
                ];
                st!(dst, RVal::from_f4(v));
            }
            ROp::GetComp { dst, src, c } => {
                st!(dst, RVal::from_f(rg!(src).f4()[c as usize] as f64))
            }
            ROp::SetComp { dst, vec, scl, c } => {
                let mut v = rg!(vec).f4();
                v[c as usize] = rg!(scl).f() as f32;
                st!(dst, RVal::from_f4(v));
            }
            ROp::CmpI { cmp, dst, a, b } => {
                st!(dst, RVal::from_i(cmp_i(cmp, rg!(a).i(), rg!(b).i()) as i64))
            }
            ROp::CmpF { cmp, dst, a, b } => {
                st!(dst, RVal::from_i(cmp_f(cmp, rg!(a).f(), rg!(b).f()) as i64))
            }
            ROp::Jmp { t } => item.ip = t as usize,
            ROp::Jz { c, t } => {
                if rg!(c).i() == 0 {
                    item.ip = t as usize;
                }
            }
            ROp::Jnz { c, t } => {
                if rg!(c).i() != 0 {
                    item.ip = t as usize;
                }
            }
            ROp::JcI { cmp, a, b, t, when } => {
                if cmp_i(cmp, rg!(a).i(), rg!(b).i()) == when {
                    item.ip = t as usize;
                }
            }
            ROp::JcF { cmp, a, b, t, when } => {
                if cmp_f(cmp, rg!(a).f(), rg!(b).f()) == when {
                    item.ip = t as usize;
                }
            }
            ROp::Load { ty, dst, ptr, idx } => {
                let (p, i) = (rg!(ptr).ptr(), rg!(idx).i());
                let v = load(item, ctx, p, i, ty)?;
                st!(dst, v);
            }
            ROp::Store { ty, ptr, idx, val } => {
                let (p, i, v) = (rg!(ptr).ptr(), rg!(idx).i(), rg!(val));
                store(item, ctx, p, i, ty, v)?;
            }
            ROp::Call { func, args_at } => {
                // Cold relative to the arithmetic ops: plain checked
                // indexing throughout.
                let f = &prog.funcs[func as usize];
                debug_assert!(f.compiled);
                if item.frames.len() >= 192 {
                    return Err(Trap {
                        message: "call stack overflow".to_string(),
                        global_id: item.gid,
                    });
                }
                let new_base = item.base + item.nregs;
                let need = new_base + f.nregs as usize;
                if item.regs.len() < need {
                    item.regs.resize(need, RVal::default());
                }
                let src = item.base + args_at as usize;
                for k in 0..f.nargs as usize {
                    item.regs[new_base + k] = item.regs[src + k];
                }
                for k in f.nargs as usize..f.nlocals as usize {
                    item.regs[new_base + k] = RVal::default();
                }
                for (k, c) in f.consts.iter().enumerate() {
                    item.regs[new_base + f.const_base as usize + k] = *c;
                }
                item.frames.push(RFrame {
                    ret_ip: item.ip,
                    prev_base: item.base,
                    prev_nregs: item.nregs,
                    dst: src,
                });
                item.base = new_base;
                item.nregs = f.nregs as usize;
                item.ip = f.entry as usize;
            }
            ROp::Id { b, dst, src } => {
                let v = ctx.geo.query(b, rg!(src).i(), item.gid, item.lid);
                st!(dst, RVal::from_i(v as i64));
            }
            ROp::Math1 { b, dst, src } => {
                let x = rg!(src).f();
                let v = match b {
                    Builtin::Sqrt => x.sqrt(),
                    Builtin::Rsqrt => 1.0 / x.sqrt(),
                    Builtin::Fabs => x.abs(),
                    Builtin::Floor => x.floor(),
                    Builtin::Ceil => x.ceil(),
                    Builtin::Exp => x.exp(),
                    Builtin::Log => x.ln(),
                    Builtin::Sin => x.sin(),
                    Builtin::Cos => x.cos(),
                    _ => x,
                };
                st!(dst, RVal::from_f(v));
            }
            ROp::Math2F { b, dst, a, b2 } => {
                let (x, y) = (rg!(a).f(), rg!(b2).f());
                let v = match b {
                    Builtin::Pow => x.powf(y),
                    Builtin::Fmin => x.min(y),
                    Builtin::Fmax => x.max(y),
                    _ => x,
                };
                st!(dst, RVal::from_f(v));
            }
            ROp::Math2I { b, dst, a, b2 } => {
                let (x, y) = (rg!(a).i(), rg!(b2).i());
                st!(dst, RVal::from_i(if b == Builtin::MinI { x.min(y) } else { x.max(y) }));
            }
            ROp::AbsI { dst, src } => st!(dst, RVal::from_i(rg!(src).i().abs())),
            ROp::Clamp { dst, v, lo, hi } => {
                let (x, l, h) = (rg!(v).f(), rg!(lo).f(), rg!(hi).f());
                st!(dst, RVal::from_f(x.max(l).min(h)));
            }
            ROp::Mad { dst, a, b, c } => {
                st!(dst, RVal::from_f(rg!(a).f() * rg!(b).f() + rg!(c).f()))
            }
            ROp::MadRF { dst, c, a, b } => {
                st!(dst, RVal::from_f(rg!(c).f() + rg!(a).f() * rg!(b).f()))
            }
            ROp::MadI { dst, a, b, c } => st!(
                dst,
                RVal::from_i(rg!(a).i().wrapping_mul(rg!(b).i()).wrapping_add(rg!(c).i()))
            ),
            ROp::Dot { dst, a, b } => {
                let (x, y) = (rg!(a).f4(), rg!(b).f4());
                let mut acc = 0f64;
                for k in 0..4 {
                    acc += x[k] as f64 * y[k] as f64;
                }
                st!(dst, RVal::from_f(acc));
            }
            ROp::Barrier => return Ok(Stop::Barrier),
            ROp::Ret => match item.frames.pop() {
                Some(fr) => {
                    item.base = fr.prev_base;
                    item.nregs = fr.prev_nregs;
                    item.ip = fr.ret_ip;
                }
                None => return Ok(Stop::Done),
            },
            ROp::RetV { src } => {
                let v = rg!(src);
                match item.frames.pop() {
                    Some(fr) => {
                        item.regs[fr.dst] = v;
                        item.base = fr.prev_base;
                        item.nregs = fr.prev_nregs;
                        item.ip = fr.ret_ip;
                    }
                    None => return Ok(Stop::Done),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minicl::codegen::compile;
    use crate::minicl::driver::{all_groups, run_ndrange, Lowered, NdStats};
    use crate::minicl::parser::parse;

    type EngineRun = Result<(NdStats, Vec<Vec<u8>>), Trap>;

    /// Run `kernel` from `src` on both engines with identical pools and
    /// return both results.
    fn both_engines(
        src: &str,
        kernel: &str,
        args: &[RtArg],
        pool_init: (Vec<Vec<u8>>, Vec<bool>),
        global: [usize; 3],
        local: [usize; 3],
    ) -> (EngineRun, EngineRun) {
        let ast = parse(src).expect("parse");
        let unit = compile(&ast).expect("compile");
        let info = unit.kernels.get(kernel).expect("kernel").clone();

        let run = |register: bool| -> EngineRun {
            let mut pool = MemPool {
                bufs: pool_init.0.clone(),
                read_only: pool_init.1.clone(),
            };
            let prog = compile_kernel(&unit, &info).expect("register compile");
            let lowered = if register {
                Lowered::Register(&prog)
            } else {
                Lowered::Stack(&unit)
            };
            let window = all_groups(global, local);
            run_ndrange(lowered, &info, args, &mut pool, global, local, window)
                .map(|stats| (stats, pool.bufs))
        };
        (run(false), run(true))
    }

    fn assert_engines_agree(stack: EngineRun, register: EngineRun) {
        match (stack, register) {
            (Ok((s_stats, s_bufs)), Ok((r_stats, r_bufs))) => {
                assert_eq!(s_bufs, r_bufs, "buffer contents differ");
                assert_eq!(s_stats.group_ops, r_stats.group_ops, "group_ops differ");
                assert_eq!(s_stats.items, r_stats.items, "item counts differ");
            }
            (Err(s), Err(r)) => {
                assert_eq!(s.message, r.message, "trap messages differ");
                assert_eq!(s.global_id, r.global_id, "trap global ids differ");
            }
            (s, r) => panic!("engines disagree on success: stack={s:?} register={r:?}"),
        }
    }

    fn f32_buf(vals: &[f32]) -> Vec<u8> {
        vals.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    #[test]
    fn square_kernel_matches_stack_engine() {
        let src = r#"
            __kernel void square(__global float* in, __global float* out, const int n) {
                int i = get_global_id(0);
                if (i < n) { out[i] = in[i] * in[i]; }
            }
        "#;
        let (s, r) = both_engines(
            src,
            "square",
            &[
                RtArg::Buf { pool_slot: 0 },
                RtArg::Buf { pool_slot: 1 },
                RtArg::Scalar(Val::I(4)),
            ],
            (
                vec![f32_buf(&[1.0, 2.0, 3.0, 4.0]), vec![0u8; 16]],
                vec![false, false],
            ),
            [4, 1, 1],
            [2, 1, 1],
        );
        assert_engines_agree(s, r);
    }

    #[test]
    fn barrier_reduction_matches_stack_engine() {
        let src = r#"
            __kernel void rmin(__global float* in, __global float* out, __local float* s) {
                int l = get_local_id(0);
                s[l] = in[get_global_id(0)];
                barrier(CLK_LOCAL_MEM_FENCE);
                for (int st = get_local_size(0) / 2; st > 0; st = st / 2) {
                    if (l < st) { s[l] = fmin(s[l], s[l + st]); }
                    barrier(CLK_LOCAL_MEM_FENCE);
                }
                if (l == 0) { out[get_group_id(0)] = s[0]; }
            }
        "#;
        let data: Vec<f32> = (0..16).map(|i| (16 - i) as f32).collect();
        let (s, r) = both_engines(
            src,
            "rmin",
            &[
                RtArg::Buf { pool_slot: 0 },
                RtArg::Buf { pool_slot: 1 },
                RtArg::Local { bytes: 32 },
            ],
            (vec![f32_buf(&data), vec![0u8; 8]], vec![false, false]),
            [16, 1, 1],
            [8, 1, 1],
        );
        assert_engines_agree(s, r);
    }

    #[test]
    fn device_function_call_matches() {
        let src = r#"
            float sq(float x) { return x * x; }
            __kernel void k(__global float* a) {
                int i = get_global_id(0);
                a[i] = sq(a[i]) + sq(2.0f);
            }
        "#;
        let (s, r) = both_engines(
            src,
            "k",
            &[RtArg::Buf { pool_slot: 0 }],
            (vec![f32_buf(&[3.0, 5.0])], vec![false]),
            [2, 1, 1],
            [1, 1, 1],
        );
        assert_engines_agree(s, r);
    }

    #[test]
    fn float4_ops_match() {
        let src = r#"
            __kernel void v(__global float4* a, __global float* out) {
                float4 x = a[0];
                float4 y = (float4)(2.0f);
                out[0] = dot(x, y);
                a[1] = x * y;
            }
        "#;
        let (s, r) = both_engines(
            src,
            "v",
            &[RtArg::Buf { pool_slot: 0 }, RtArg::Buf { pool_slot: 1 }],
            (
                vec![
                    f32_buf(&[1.0, 2.0, 3.0, 4.0, 0.0, 0.0, 0.0, 0.0]),
                    vec![0u8; 4],
                ],
                vec![false, false],
            ),
            [1, 1, 1],
            [1, 1, 1],
        );
        assert_engines_agree(s, r);
    }

    #[test]
    fn private_array_matches() {
        let src = r#"
            __kernel void p(__global float* out) {
                int i = get_global_id(0);
                float tmp[4];
                for (int k = 0; k < 4; k++) { tmp[k] = (float)(i * 10 + k); }
                out[i] = tmp[3];
            }
        "#;
        let (s, r) = both_engines(
            src,
            "p",
            &[RtArg::Buf { pool_slot: 0 }],
            (vec![vec![0u8; 8]], vec![false]),
            [2, 1, 1],
            [1, 1, 1],
        );
        assert_engines_agree(s, r);
    }

    #[test]
    fn oob_trap_matches() {
        let src = r#"
            __kernel void w(__global float* a) {
                a[get_global_id(0) + 100] = 1.0f;
            }
        "#;
        let (s, r) = both_engines(
            src,
            "w",
            &[RtArg::Buf { pool_slot: 0 }],
            (vec![vec![0u8; 16]], vec![false]),
            [4, 1, 1],
            [4, 1, 1],
        );
        assert!(s.is_err() && r.is_err(), "both engines must trap");
        assert_engines_agree(s, r);
    }

    #[test]
    fn division_by_zero_trap_matches() {
        let src = r#"
            __kernel void d(__global int* a) {
                a[0] = 1 / a[1];
            }
        "#;
        let (s, r) = both_engines(
            src,
            "d",
            &[RtArg::Buf { pool_slot: 0 }],
            (vec![vec![0u8; 8]], vec![false]),
            [1, 1, 1],
            [1, 1, 1],
        );
        assert!(s.is_err() && r.is_err(), "both engines must trap");
        assert_engines_agree(s, r);
    }

    #[test]
    fn divergent_barrier_trap_matches() {
        let src = r#"
            __kernel void b(__global float* a) {
                if (get_local_id(0) == 0) { barrier(CLK_LOCAL_MEM_FENCE); }
                a[get_global_id(0)] = 1.0f;
            }
        "#;
        let (s, r) = both_engines(
            src,
            "b",
            &[RtArg::Buf { pool_slot: 0 }],
            (vec![vec![0u8; 16]], vec![false]),
            [4, 1, 1],
            [4, 1, 1],
        );
        assert!(s.is_err() && r.is_err(), "both engines must trap");
        assert_engines_agree(s, r);
    }

    #[test]
    fn constant_write_trap_matches() {
        let src = r#"
            __kernel void c(__global float* a) {
                a[0] = 1.0f;
            }
        "#;
        let (s, r) = both_engines(
            src,
            "c",
            &[RtArg::Buf { pool_slot: 0 }],
            (vec![f32_buf(&[5.0])], vec![true]),
            [1, 1, 1],
            [1, 1, 1],
        );
        assert!(s.is_err() && r.is_err(), "both engines must trap");
        assert_engines_agree(s, r);
    }

    #[test]
    fn two_dimensional_ids_match() {
        let src = r#"
            __kernel void t(__global int* out) {
                int x = get_global_id(0);
                int y = get_global_id(1);
                out[y * get_global_size(0) + x] = y * 100 + x;
            }
        "#;
        let (s, r) = both_engines(
            src,
            "t",
            &[RtArg::Buf { pool_slot: 0 }],
            (vec![vec![0u8; 64]], vec![false]),
            [4, 4, 1],
            [2, 2, 1],
        );
        assert_engines_agree(s, r);
    }

    #[test]
    fn mad_fusion_matches_both_operand_orders() {
        // `a*x + b` fuses into Mad, `b + a*x` into MadRF; both must match
        // the stack engine byte for byte (IEEE operand order preserved).
        let src = r#"
            __kernel void saxpy(__global float* a, __global float* b,
                                __global float* out, __global float* out2,
                                const float x) {
                int i = get_global_id(0);
                out[i] = a[i] * x + b[i];
                out2[i] = b[i] + a[i] * x;
            }
        "#;
        let (s, r) = both_engines(
            src,
            "saxpy",
            &[
                RtArg::Buf { pool_slot: 0 },
                RtArg::Buf { pool_slot: 1 },
                RtArg::Buf { pool_slot: 2 },
                RtArg::Buf { pool_slot: 3 },
                RtArg::Scalar(Val::F(1.5)),
            ],
            (
                vec![
                    f32_buf(&[1.0, -2.5, 3.25, 0.0]),
                    f32_buf(&[0.5, 4.0, -1.0, 7.0]),
                    vec![0u8; 16],
                    vec![0u8; 16],
                ],
                vec![false, false, false, false],
            ),
            [4, 1, 1],
            [2, 1, 1],
        );
        assert_engines_agree(s, r);
    }

    #[test]
    fn device_function_constants_match() {
        // Device functions get their own constant pool written on Call.
        let src = r#"
            float poly(float x) { return 2.0f * x + 3.0f; }
            __kernel void k(__global float* a) {
                int i = get_global_id(0);
                float acc = 0.0f;
                for (int j = 0; j < 3; j++) { acc = acc + poly(a[i] + (float)j); }
                a[i] = acc;
            }
        "#;
        let (s, r) = both_engines(
            src,
            "k",
            &[RtArg::Buf { pool_slot: 0 }],
            (vec![f32_buf(&[0.5, -1.5])], vec![false]),
            [2, 1, 1],
            [1, 1, 1],
        );
        assert_engines_agree(s, r);
    }

    #[test]
    fn depth_inconsistent_unit_falls_back() {
        use crate::minicl::bytecode::{CompiledUnit, KernelInfo, Op};
        use std::collections::HashMap;
        // Jump target 4 is reached with depth 1 from ip 1 (after Jnz pops)
        // and depth 1 vs 2 mismatch via the fallthrough — the analyzer must
        // reject it and compile_kernel must return None (stack fallback).
        let unit = CompiledUnit {
            code: vec![
                Op::PushI(1),
                Op::Jnz(4),
                Op::PushI(7),
                Op::Jmp(4),
                Op::Ret,
            ],
            kernels: HashMap::new(),
            funcs: vec![],
        };
        let info = KernelInfo {
            name: "bad".to_string(),
            entry: 0,
            nlocals: 0,
            params: vec![],
            local_decl_bytes: vec![],
            has_barrier: false,
            priv_bytes: 0,
            disjoint_items: false,
        };
        assert!(compile_kernel(&unit, &info).is_none());
    }

    #[test]
    fn compiled_program_is_smaller_than_naive_lowering() {
        let src = r#"
            __kernel void loopy(__global int* a) {
                int acc = 0;
                for (int i = 0; i < 100; i++) { acc = acc + i; }
                a[get_global_id(0)] = acc;
            }
        "#;
        let ast = parse(src).expect("parse");
        let unit = compile(&ast).expect("compile");
        let info = unit.kernels.get("loopy").expect("kernel").clone();
        let prog = compile_kernel(&unit, &info).expect("register compile");
        assert!(!prog.code.is_empty());
        // The symbolic-stack lowering folds pushes/moves away; the register
        // program must not blow up relative to the stack bytecode.
        assert!(
            prog.code.len() <= unit.code.len() + 8,
            "register program ({} ops) much larger than bytecode ({} ops)",
            prog.code.len(),
            unit.code.len()
        );
    }
}
