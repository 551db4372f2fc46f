use super::handlers::*;
use super::regions;
use super::strip::{lanes_agree, settle, strip};
use super::{NCtx, NInstr, NItem, NativeProgram, SiteKind, H, HP, IP_HALT_MIN, SH};
use crate::minicl::bytecode::{Builtin, ElemTy, KernelInfo};
use crate::minicl::regir::{RFunc, ROp, RVal, RegProgram};
use std::collections::HashMap;
use std::ops::Range;

// ---------------------------------------------------------------------------
// Flattening: inline every call, assign absolute register windows
// ---------------------------------------------------------------------------

/// Flattened op: register IR with absolute registers, calls expanded to
/// prologue pseudo-ops plus the callee body, returns rewritten to jumps.
#[derive(Debug, Clone)]
pub(super) enum FOp {
    R(ROp),
    /// Inline-call prologue: copy `n` argument registers `src.. -> dst..`.
    CopyArgs { dst: u16, src: u16, n: u16 },
    /// Inline-call prologue: zero `n` callee locals starting at `at`.
    ZeroLocals { at: u16, n: u16 },
    /// Kernel-main return: halt the work item.
    Done,
}

#[derive(Clone, Copy)]
enum RetCtx {
    /// Returns halt the item.
    Main,
    /// Returns jump past the inlined body; `RetV` first moves the value
    /// into the caller's `args_at` slot (the same absolute register the
    /// register engine's frame machinery writes).
    Inline { dst: u16 },
}

struct Flattener<'p> {
    prog: &'p RegProgram,
    out: Vec<FOp>,
    /// Main frame plus every window allocated so far.
    total_regs: u32,
    /// Static register template for `[prog.nregs, total_regs)`: zeroed
    /// locals/stack then the constant pool, per window in order.
    tail: Vec<RVal>,
    /// `(absolute register, value)` of every constant-pool register.
    known_consts: Vec<(u32, RVal)>,
    /// Absolute `[lo, hi)` ranges that must never be written.
    const_regions: Vec<(u32, u32)>,
}

/// Add `w` to every register operand of a non-control op; returns the
/// op and its original jump target (to be fixed once the range's layout
/// is known). `Call`/`Ret`/`RetV` are handled by the flattener itself.
fn remap(op: ROp, w: u16) -> (ROp, Option<u32>) {
    use ROp::*;
    let op = match op {
        Ops(n) => Ops(n),
        Mov { dst, src } => Mov { dst: dst + w, src: src + w },
        Swap { a, b } => Swap { a: a + w, b: b + w },
        AddI { dst, a, b } => AddI { dst: dst + w, a: a + w, b: b + w },
        SubI { dst, a, b } => SubI { dst: dst + w, a: a + w, b: b + w },
        MulI { dst, a, b } => MulI { dst: dst + w, a: a + w, b: b + w },
        DivI { dst, a, b } => DivI { dst: dst + w, a: a + w, b: b + w },
        RemI { dst, a, b } => RemI { dst: dst + w, a: a + w, b: b + w },
        Shl { dst, a, b } => Shl { dst: dst + w, a: a + w, b: b + w },
        Shr { dst, a, b } => Shr { dst: dst + w, a: a + w, b: b + w },
        BAnd { dst, a, b } => BAnd { dst: dst + w, a: a + w, b: b + w },
        BOr { dst, a, b } => BOr { dst: dst + w, a: a + w, b: b + w },
        BXor { dst, a, b } => BXor { dst: dst + w, a: a + w, b: b + w },
        NegI { dst, src } => NegI { dst: dst + w, src: src + w },
        BNot { dst, src } => BNot { dst: dst + w, src: src + w },
        LNot { dst, src } => LNot { dst: dst + w, src: src + w },
        AddF { dst, a, b } => AddF { dst: dst + w, a: a + w, b: b + w },
        SubF { dst, a, b } => SubF { dst: dst + w, a: a + w, b: b + w },
        MulF { dst, a, b } => MulF { dst: dst + w, a: a + w, b: b + w },
        DivF { dst, a, b } => DivF { dst: dst + w, a: a + w, b: b + w },
        NegF { dst, src } => NegF { dst: dst + w, src: src + w },
        I2F { dst, src } => I2F { dst: dst + w, src: src + w },
        F2I { dst, src } => F2I { dst: dst + w, src: src + w },
        AddF4 { dst, a, b } => AddF4 { dst: dst + w, a: a + w, b: b + w },
        SubF4 { dst, a, b } => SubF4 { dst: dst + w, a: a + w, b: b + w },
        MulF4 { dst, a, b } => MulF4 { dst: dst + w, a: a + w, b: b + w },
        DivF4 { dst, a, b } => DivF4 { dst: dst + w, a: a + w, b: b + w },
        SplatF4 { dst, src } => SplatF4 { dst: dst + w, src: src + w },
        MakeF4 { dst, src } => MakeF4 {
            dst: dst + w,
            src: [src[0] + w, src[1] + w, src[2] + w, src[3] + w],
        },
        GetComp { dst, src, c } => GetComp { dst: dst + w, src: src + w, c },
        SetComp { dst, vec, scl, c } => SetComp {
            dst: dst + w,
            vec: vec + w,
            scl: scl + w,
            c,
        },
        CmpI { cmp, dst, a, b } => CmpI { cmp, dst: dst + w, a: a + w, b: b + w },
        CmpF { cmp, dst, a, b } => CmpF { cmp, dst: dst + w, a: a + w, b: b + w },
        Jmp { t } => return (Jmp { t: 0 }, Some(t)),
        Jz { c, t } => return (Jz { c: c + w, t: 0 }, Some(t)),
        Jnz { c, t } => return (Jnz { c: c + w, t: 0 }, Some(t)),
        JcI { cmp, a, b, t, when } => {
            return (JcI { cmp, a: a + w, b: b + w, t: 0, when }, Some(t))
        }
        JcF { cmp, a, b, t, when } => {
            return (JcF { cmp, a: a + w, b: b + w, t: 0, when }, Some(t))
        }
        Load { ty, dst, ptr, idx } => Load {
            ty,
            dst: dst + w,
            ptr: ptr + w,
            idx: idx + w,
        },
        Store { ty, ptr, idx, val } => Store {
            ty,
            ptr: ptr + w,
            idx: idx + w,
            val: val + w,
        },
        Id { b, dst, src } => Id { b, dst: dst + w, src: src + w },
        Math1 { b, dst, src } => Math1 { b, dst: dst + w, src: src + w },
        Math2F { b, dst, a, b2 } => Math2F { b, dst: dst + w, a: a + w, b2: b2 + w },
        Math2I { b, dst, a, b2 } => Math2I { b, dst: dst + w, a: a + w, b2: b2 + w },
        AbsI { dst, src } => AbsI { dst: dst + w, src: src + w },
        Clamp { dst, v, lo, hi } => Clamp {
            dst: dst + w,
            v: v + w,
            lo: lo + w,
            hi: hi + w,
        },
        Mad { dst, a, b, c } => Mad { dst: dst + w, a: a + w, b: b + w, c: c + w },
        MadRF { dst, c, a, b } => MadRF { dst: dst + w, c: c + w, a: a + w, b: b + w },
        MadI { dst, a, b, c } => MadI { dst: dst + w, a: a + w, b: b + w, c: c + w },
        Dot { dst, a, b } => Dot { dst: dst + w, a: a + w, b: b + w },
        Barrier => Barrier,
        Call { .. } | Ret | RetV { .. } => unreachable!("handled by the flattener"),
    };
    (op, None)
}

/// Rewrite a placeholder jump target.
fn set_target(op: &mut FOp, t: u32) {
    match op {
        FOp::R(ROp::Jmp { t: x })
        | FOp::R(ROp::Jz { t: x, .. })
        | FOp::R(ROp::Jnz { t: x, .. })
        | FOp::R(ROp::JcI { t: x, .. })
        | FOp::R(ROp::JcF { t: x, .. }) => *x = t,
        _ => unreachable!("not a jump"),
    }
}

pub(super) fn target_of(op: &FOp) -> Option<u32> {
    match op {
        FOp::R(ROp::Jmp { t })
        | FOp::R(ROp::Jz { t, .. })
        | FOp::R(ROp::Jnz { t, .. })
        | FOp::R(ROp::JcI { t, .. })
        | FOp::R(ROp::JcF { t, .. }) => Some(*t),
        _ => None,
    }
}

impl Flattener<'_> {
    /// Flatten `prog.code[s..e]` with register window `w`, expanding calls
    /// recursively. Returns the flat index of every original instruction.
    fn emit_range(
        &mut self,
        s: usize,
        e: usize,
        w: u16,
        ret: RetCtx,
        stack: &mut Vec<u16>,
    ) -> Option<Vec<u32>> {
        let mut map = vec![u32::MAX; e - s];
        let mut fixups: Vec<(usize, u32)> = Vec::new();
        let mut ret_jumps: Vec<usize> = Vec::new();
        for k in s..e {
            map[k - s] = u32::try_from(self.out.len()).ok()?;
            if self.out.len() > (1 << 22) {
                return None; // runaway inline expansion
            }
            match self.prog.code.get(k)?.clone() {
                ROp::Call { func, args_at } => {
                    if stack.contains(&func) || stack.len() >= 48 {
                        return None; // recursive or pathologically deep
                    }
                    let f: RFunc = self.prog.funcs.get(func as usize)?.clone();
                    if !f.compiled {
                        return None;
                    }
                    let win = self.total_regs;
                    if win + f.nregs as u32 > u16::MAX as u32 {
                        return None; // register file exhausted
                    }
                    self.total_regs += f.nregs as u32;
                    self.tail
                        .extend(std::iter::repeat_n(RVal::default(), f.const_base as usize));
                    for (ci, c) in f.consts.iter().enumerate() {
                        self.known_consts
                            .push((win + f.const_base as u32 + ci as u32, *c));
                    }
                    self.tail.extend_from_slice(&f.consts);
                    self.const_regions
                        .push((win + f.const_base as u32, win + f.nregs as u32));
                    // The caller's `args_at` slot doubles as the return
                    // destination — the same absolute register the register
                    // engine's frame machinery uses.
                    let dst = w.checked_add(args_at)?;
                    if f.nargs > 0 {
                        self.out.push(FOp::CopyArgs {
                            dst: win as u16,
                            src: dst,
                            n: f.nargs as u16,
                        });
                    }
                    if f.nlocals > f.nargs as u16 {
                        self.out.push(FOp::ZeroLocals {
                            at: (win + f.nargs as u32) as u16,
                            n: f.nlocals - f.nargs as u16,
                        });
                    }
                    let entry_jmp = if f.entry != f.start {
                        self.out.push(FOp::R(ROp::Jmp { t: 0 }));
                        Some(self.out.len() - 1)
                    } else {
                        None
                    };
                    stack.push(func);
                    let cmap = self.emit_range(
                        f.start as usize,
                        f.end as usize,
                        win as u16,
                        RetCtx::Inline { dst },
                        stack,
                    )?;
                    stack.pop();
                    if let Some(j) = entry_jmp {
                        let t = *cmap.get((f.entry - f.start) as usize)?;
                        set_target(&mut self.out[j], t);
                    }
                }
                ROp::Ret => match ret {
                    RetCtx::Main => self.out.push(FOp::Done),
                    RetCtx::Inline { .. } => {
                        self.out.push(FOp::R(ROp::Jmp { t: 0 }));
                        ret_jumps.push(self.out.len() - 1);
                    }
                },
                ROp::RetV { src } => match ret {
                    // A top-level `RetV` discards the value, like the
                    // register engine's frameless return.
                    RetCtx::Main => self.out.push(FOp::Done),
                    RetCtx::Inline { dst } => {
                        self.out.push(FOp::R(ROp::Mov { dst, src: src + w }));
                        self.out.push(FOp::R(ROp::Jmp { t: 0 }));
                        ret_jumps.push(self.out.len() - 1);
                    }
                },
                other => {
                    let (op, target) = remap(other, w);
                    if let Some(t) = target {
                        if (t as usize) < s || (t as usize) >= e {
                            return None; // cross-function jump: malformed
                        }
                        fixups.push((self.out.len(), t));
                    }
                    self.out.push(FOp::R(op));
                }
            }
        }
        for (at, t) in fixups {
            let nt = map[t as usize - s];
            if nt == u32::MAX {
                return None;
            }
            set_target(&mut self.out[at], nt);
        }
        let after = u32::try_from(self.out.len()).ok()?;
        for j in ret_jumps {
            set_target(&mut self.out[j], after);
        }
        Some(map)
    }
}

/// A register range as `(start, len)`.
type RegRange = (u16, u16);

/// The register ranges one op reads and writes, held inline: no op reads
/// more than four ranges or writes more than two.
#[derive(Clone, Copy)]
pub(super) struct OpRegs {
    rd: [RegRange; 4],
    nrd: u8,
    wr: [RegRange; 2],
    nwr: u8,
}

impl OpRegs {
    fn new(rd: &[RegRange], wr: &[RegRange]) -> OpRegs {
        let mut regs = OpRegs {
            rd: [(0, 0); 4],
            nrd: rd.len() as u8,
            wr: [(0, 0); 2],
            nwr: wr.len() as u8,
        };
        regs.rd[..rd.len()].copy_from_slice(rd);
        regs.wr[..wr.len()].copy_from_slice(wr);
        regs
    }

    fn reads(&self) -> &[RegRange] {
        &self.rd[..self.nrd as usize]
    }

    fn writes(&self) -> &[RegRange] {
        &self.wr[..self.nwr as usize]
    }

    /// Every register the op writes, one by one.
    pub(super) fn written(&self) -> impl Iterator<Item = u16> + '_ {
        self.writes().iter().flat_map(|&(r, n)| r..r + n)
    }
}

/// Every register range an op reads and writes; used to bounds-check
/// operands (licensing the unchecked handler accesses), to find
/// never-written registers and for the lowering's dataflow.
pub(super) fn op_regs(op: &FOp) -> OpRegs {
    use ROp::*;
    let one = |r: u16| (r, 1);
    let (rd, wr): (&[RegRange], &[RegRange]) = match op {
        FOp::R(r) => match *r {
            Ops(_) | Barrier | Jmp { .. } => (&[], &[]),
            Mov { dst, src } => (&[one(src)], &[one(dst)]),
            Swap { a, b } => (&[one(a), one(b)], &[one(a), one(b)]),
            AddI { dst, a, b }
            | SubI { dst, a, b }
            | MulI { dst, a, b }
            | DivI { dst, a, b }
            | RemI { dst, a, b }
            | Shl { dst, a, b }
            | Shr { dst, a, b }
            | BAnd { dst, a, b }
            | BOr { dst, a, b }
            | BXor { dst, a, b }
            | AddF { dst, a, b }
            | SubF { dst, a, b }
            | MulF { dst, a, b }
            | DivF { dst, a, b }
            | AddF4 { dst, a, b }
            | SubF4 { dst, a, b }
            | MulF4 { dst, a, b }
            | DivF4 { dst, a, b }
            | Dot { dst, a, b } => (&[one(a), one(b)], &[one(dst)]),
            NegI { dst, src }
            | BNot { dst, src }
            | LNot { dst, src }
            | NegF { dst, src }
            | I2F { dst, src }
            | F2I { dst, src }
            | SplatF4 { dst, src }
            | AbsI { dst, src } => (&[one(src)], &[one(dst)]),
            MakeF4 { dst, src } => (
                &[one(src[0]), one(src[1]), one(src[2]), one(src[3])],
                &[one(dst)],
            ),
            GetComp { dst, src, .. } => (&[one(src)], &[one(dst)]),
            SetComp { dst, vec, scl, .. } => (&[one(vec), one(scl)], &[one(dst)]),
            CmpI { dst, a, b, .. } | CmpF { dst, a, b, .. } => (&[one(a), one(b)], &[one(dst)]),
            Jz { c, .. } | Jnz { c, .. } => (&[one(c)], &[]),
            JcI { a, b, .. } | JcF { a, b, .. } => (&[one(a), one(b)], &[]),
            Load { dst, ptr, idx, .. } => (&[one(ptr), one(idx)], &[one(dst)]),
            Store { ptr, idx, val, .. } => (&[one(ptr), one(idx), one(val)], &[]),
            Id { dst, src, .. } | Math1 { dst, src, .. } => (&[one(src)], &[one(dst)]),
            Math2F { dst, a, b2, .. } | Math2I { dst, a, b2, .. } => {
                (&[one(a), one(b2)], &[one(dst)])
            }
            Clamp { dst, v, lo, hi } => (&[one(v), one(lo), one(hi)], &[one(dst)]),
            Mad { dst, a, b, c } | MadI { dst, a, b, c } => {
                (&[one(a), one(b), one(c)], &[one(dst)])
            }
            MadRF { dst, c, a, b } => (&[one(c), one(a), one(b)], &[one(dst)]),
            Call { .. } | Ret | RetV { .. } => (&[], &[]),
        },
        FOp::CopyArgs { dst, src, n } => (&[(*src, *n)], &[(*dst, *n)]),
        FOp::ZeroLocals { at, n } => (&[], &[(*at, *n)]),
        FOp::Done => (&[], &[]),
    };
    OpRegs::new(rd, wr)
}

// ---------------------------------------------------------------------------
// Lowering to native instructions
// ---------------------------------------------------------------------------

const fn ni(h: HP) -> NInstr {
    NInstr {
        f: h.0,
        sf: h.1,
        imm: 0,
        t: 0,
        a: 0,
        b: 0,
        c: 0,
        d: 0,
        e: 0,
        g: 0,
    }
}

/// Dedupe memory sites by pointer register; returns the site index.
fn site_for(ptr: u16, sites: &mut HashMap<u16, u32>, specs: &mut Vec<u16>) -> u32 {
    *sites.entry(ptr).or_insert_with(|| {
        specs.push(ptr);
        (specs.len() - 1) as u32
    })
}

struct Lower<'a> {
    /// Writes per register over the whole program.
    writes: &'a [u32],
    known: &'a [Option<RVal>],
    sites: HashMap<u16, u32>,
    specs: Vec<u16>,
}

impl Lower<'_> {
    fn stable(&self, ptr: u16) -> bool {
        self.writes[ptr as usize] == 0
    }

    /// Lower one flat op to a single native instruction.
    fn one(&mut self, op: &FOp) -> Option<NInstr> {
        use ROp::*;
        Some(match op {
            FOp::Done => ni(hp!(h_done)),
            FOp::CopyArgs { dst, src, n } => NInstr {
                a: *dst,
                b: *src,
                c: *n,
                ..ni(hp!(h_copyargs))
            },
            FOp::ZeroLocals { at, n } => NInstr {
                a: *at,
                b: *n,
                ..ni(hp!(h_zerolocals))
            },
            FOp::R(r) => match *r {
                Ops(n) => NInstr {
                    imm: n,
                    ..ni(hp!(h_ops))
                },
                Mov { dst, src } => NInstr {
                    a: dst,
                    b: src,
                    ..ni(hp!(h_mov))
                },
                Swap { a, b } => NInstr {
                    a,
                    b,
                    ..ni(hp!(h_swap))
                },
                AddI { dst, a, b } => bin3(hp!(h_addi), dst, a, b),
                SubI { dst, a, b } => bin3(hp!(h_subi), dst, a, b),
                MulI { dst, a, b } => bin3(hp!(h_muli), dst, a, b),
                DivI { dst, a, b } => match self.known[b as usize].map(|v| v.i()) {
                    Some(c) if c > 1 && c.count_ones() == 1 => NInstr {
                        a: dst,
                        b: a,
                        g: c.trailing_zeros() as u16,
                        ..ni(hp!(h_divi_p2))
                    },
                    _ => bin3(hp!(h_divi), dst, a, b),
                },
                RemI { dst, a, b } => bin3(hp!(h_remi), dst, a, b),
                Shl { dst, a, b } => bin3(hp!(h_shl), dst, a, b),
                Shr { dst, a, b } => bin3(hp!(h_shr), dst, a, b),
                BAnd { dst, a, b } => bin3(hp!(h_band), dst, a, b),
                BOr { dst, a, b } => bin3(hp!(h_bor), dst, a, b),
                BXor { dst, a, b } => bin3(hp!(h_bxor), dst, a, b),
                NegI { dst, src } => un2(hp!(h_negi), dst, src),
                BNot { dst, src } => un2(hp!(h_bnot), dst, src),
                LNot { dst, src } => un2(hp!(h_lnot), dst, src),
                AbsI { dst, src } => un2(hp!(h_absi), dst, src),
                AddF { dst, a, b } => bin3(hp!(h_addf), dst, a, b),
                SubF { dst, a, b } => bin3(hp!(h_subf), dst, a, b),
                MulF { dst, a, b } => bin3(hp!(h_mulf), dst, a, b),
                DivF { dst, a, b } => bin3(hp!(h_divf), dst, a, b),
                NegF { dst, src } => un2(hp!(h_negf), dst, src),
                I2F { dst, src } => un2(hp!(h_i2f), dst, src),
                F2I { dst, src } => un2(hp!(h_f2i), dst, src),
                AddF4 { dst, a, b } => bin3(hp!(h_addf4), dst, a, b),
                SubF4 { dst, a, b } => bin3(hp!(h_subf4), dst, a, b),
                MulF4 { dst, a, b } => bin3(hp!(h_mulf4), dst, a, b),
                DivF4 { dst, a, b } => bin3(hp!(h_divf4), dst, a, b),
                SplatF4 { dst, src } => un2(hp!(h_splatf4), dst, src),
                MakeF4 { dst, src } => NInstr {
                    a: dst,
                    b: src[0],
                    c: src[1],
                    d: src[2],
                    e: src[3],
                    ..ni(hp!(h_makef4))
                },
                GetComp { dst, src, c } => NInstr {
                    a: dst,
                    b: src,
                    g: c as u16,
                    ..ni(hp!(h_getcomp))
                },
                SetComp { dst, vec, scl, c } => NInstr {
                    a: dst,
                    b: vec,
                    c: scl,
                    g: c as u16,
                    ..ni(hp!(h_setcomp))
                },
                CmpI { cmp, dst, a, b } => bin3(cmpi_h(cmp), dst, a, b),
                CmpF { cmp, dst, a, b } => bin3(cmpf_h(cmp), dst, a, b),
                Jmp { t } => NInstr {
                    t,
                    ..ni(hp!(h_jmp))
                },
                Jz { c, t } => NInstr {
                    a: c,
                    t,
                    ..ni(hp!(h_jz))
                },
                Jnz { c, t } => NInstr {
                    a: c,
                    t,
                    ..ni(hp!(h_jnz))
                },
                // `when == true` after canonicalisation.
                JcI { cmp, a, b, t, .. } => NInstr {
                    a,
                    b,
                    t,
                    ..ni(jci_h(cmp))
                },
                JcF { cmp, a, b, t, when } => NInstr {
                    a,
                    b,
                    t,
                    ..ni(jcf_h(cmp, when))
                },
                Load { ty, dst, ptr, idx } => {
                    if self.stable(ptr) {
                        NInstr {
                            a: dst,
                            b: idx,
                            imm: site_for(ptr, &mut self.sites, &mut self.specs) as u64,
                            ..ni(ld_h(ty))
                        }
                    } else {
                        NInstr {
                            a: dst,
                            b: idx,
                            c: ptr,
                            g: ty_code(ty) as u16,
                            ..ni(hp!(h_ld_dyn))
                        }
                    }
                }
                Store { ty, ptr, idx, val } => {
                    if self.stable(ptr) {
                        NInstr {
                            b: idx,
                            c: val,
                            imm: site_for(ptr, &mut self.sites, &mut self.specs) as u64,
                            ..ni(st_h(ty))
                        }
                    } else {
                        NInstr {
                            b: idx,
                            c: val,
                            d: ptr,
                            g: ty_code(ty) as u16,
                            ..ni(hp!(h_st_dyn))
                        }
                    }
                }
                Id { b, dst, src } => {
                    let (fc, fd, default): (HP, HP, u64) = match b {
                        Builtin::GetGlobalId => (hp!(h_gid_c), hp!(h_gid_d), 0),
                        Builtin::GetLocalId => (hp!(h_lid_c), hp!(h_lid_d), 0),
                        Builtin::GetGroupId => (hp!(h_grp_c), hp!(h_grp_d), 0),
                        Builtin::GetGlobalSize => (hp!(h_gsz_c), hp!(h_gsz_d), 1),
                        Builtin::GetLocalSize => (hp!(h_lsz_c), hp!(h_lsz_d), 1),
                        Builtin::GetNumGroups => (hp!(h_ngr_c), hp!(h_ngr_d), 1),
                        // The register engine evaluates every other
                        // builtin in `Id` position to 0 for any dimension.
                        _ => {
                            return Some(NInstr {
                                a: dst,
                                imm: 0,
                                ..ni(hp!(h_const_i))
                            })
                        }
                    };
                    match self.known[src as usize] {
                        Some(v) => {
                            let d = v.i();
                            if (0..=2).contains(&d) {
                                NInstr {
                                    a: dst,
                                    imm: d as u64,
                                    ..ni(fc)
                                }
                            } else {
                                NInstr {
                                    a: dst,
                                    imm: default,
                                    ..ni(hp!(h_const_i))
                                }
                            }
                        }
                        None => NInstr {
                            a: dst,
                            b: src,
                            imm: default,
                            ..ni(fd)
                        },
                    }
                }
                Math1 { b, dst, src } => {
                    let f: HP = match b {
                        Builtin::Sqrt => hp!(h_sqrt),
                        Builtin::Rsqrt => hp!(h_rsqrt),
                        Builtin::Fabs => hp!(h_fabs),
                        Builtin::Floor => hp!(h_floor),
                        Builtin::Ceil => hp!(h_ceil),
                        Builtin::Exp => hp!(h_exp),
                        Builtin::Log => hp!(h_log),
                        Builtin::Sin => hp!(h_sin),
                        Builtin::Cos => hp!(h_cos),
                        _ => hp!(h_m1_other),
                    };
                    un2(f, dst, src)
                }
                Math2F { b, dst, a, b2 } => {
                    let f: HP = match b {
                        Builtin::Pow => hp!(h_pow),
                        Builtin::Fmin => hp!(h_fmin),
                        Builtin::Fmax => hp!(h_fmax),
                        _ => hp!(h_m2f_other),
                    };
                    bin3(f, dst, a, b2)
                }
                Math2I { b, dst, a, b2 } => bin3(
                    if b == Builtin::MinI {
                        hp!(h_mini)
                    } else {
                        hp!(h_maxi)
                    },
                    dst,
                    a,
                    b2,
                ),
                Clamp { dst, v, lo, hi } => NInstr {
                    a: dst,
                    b: v,
                    c: lo,
                    d: hi,
                    ..ni(hp!(h_clamp))
                },
                Mad { dst, a, b, c } => NInstr {
                    a: dst,
                    b: a,
                    c: b,
                    d: c,
                    ..ni(hp!(h_mad))
                },
                MadRF { dst, c, a, b } => NInstr {
                    a: dst,
                    b: c,
                    c: a,
                    d: b,
                    ..ni(hp!(h_madrf))
                },
                MadI { dst, a, b, c } => NInstr {
                    a: dst,
                    b: a,
                    c: b,
                    d: c,
                    ..ni(hp!(h_madi))
                },
                Dot { dst, a, b } => bin3(hp!(h_dot), dst, a, b),
                Barrier => ni(hp!(h_barrier)),
                Call { .. } | Ret | RetV { .. } => return None,
            },
        })
    }

    /// Try to fuse two adjacent flat ops into one superinstruction.
    /// `x` executes first; the pair occupies a single compacted slot.
    /// Only attempted when `y`'s slot is not a jump target. Block-entry
    /// `Ops` charges are not fused here — the unit builder in
    /// [`compile_native`] folds them into any successor's charge field.
    fn fuse(&mut self, x: &FOp, y: &FOp) -> Option<NInstr> {
        use ROp::*;
        // Index increment + load.
        if let (FOp::R(AddI { dst, a, b }), FOp::R(Load { ty, dst: d2, ptr, idx })) = (x, y) {
            if *ty == ElemTy::F32 && self.stable(*ptr) {
                let site = site_for(*ptr, &mut self.sites, &mut self.specs);
                return Some(NInstr {
                    a: *dst,
                    b: *a,
                    c: *b,
                    d: *d2,
                    e: *idx,
                    imm: site as u64,
                    ..ni(hp_mem!(h_addi_ld_c))
                });
            }
        }
        // Loop decrement + compare-branch (count-down loop headers).
        if let (FOp::R(SubI { dst, a, b }), FOp::R(JcI { cmp, a: a2, b: b2, t, .. })) = (x, y) {
            return Some(NInstr {
                a: *dst,
                b: *a,
                c: *b,
                d: *a2,
                e: *b2,
                t: *t,
                ..ni(subi_jci_h(*cmp))
            });
        }
        // Address compute + fetch (row/column indexing).
        if let (FOp::R(MadI { dst, a, b, c }), FOp::R(Load { ty, dst: d2, ptr, idx })) = (x, y) {
            if *ty == ElemTy::F32 && self.stable(*ptr) {
                let site = site_for(*ptr, &mut self.sites, &mut self.specs);
                return Some(NInstr {
                    a: *dst,
                    b: *a,
                    c: *b,
                    d: *c,
                    e: *d2,
                    g: *idx,
                    imm: site as u64,
                    ..ni(hp_mem!(h_madi_ld_c))
                });
            }
        }
        // Store + index bump.
        if let (FOp::R(Store { ty, ptr, idx, val }), FOp::R(AddI { dst, a, b })) = (x, y) {
            if *ty == ElemTy::F32 && self.stable(*ptr) {
                let site = site_for(*ptr, &mut self.sites, &mut self.specs);
                return Some(NInstr {
                    a: *dst,
                    b: *idx,
                    c: *val,
                    d: *a,
                    e: *b,
                    imm: site as u64,
                    ..ni(hp_mem!(h_st_addi_c))
                });
            }
        }
        // Register copy + integer add (loop-carried rotation).
        if let (FOp::R(Mov { dst, src }), FOp::R(AddI { dst: d2, a, b })) = (x, y) {
            return Some(NInstr {
                a: *dst,
                b: *src,
                c: *d2,
                d: *a,
                e: *b,
                ..ni(hp!(h_mov_addi))
            });
        }
        // Float load + load / multiply-add / add / multiply.
        if let FOp::R(Load { ty: ElemTy::F32, dst, ptr, idx }) = x {
            if self.stable(*ptr) {
                match y {
                    FOp::R(Load { ty: ElemTy::F32, dst: d2, ptr: p2, idx: i2 })
                        if self.stable(*p2) =>
                    {
                        let s1 = site_for(*ptr, &mut self.sites, &mut self.specs);
                        let s2 = site_for(*p2, &mut self.sites, &mut self.specs);
                        return Some(NInstr {
                            imm: s1 as u64 | (s2 as u64) << 32,
                            a: *dst,
                            b: *idx,
                            c: *d2,
                            d: *i2,
                            ..ni(hp!(h_ld_ld_c))
                        });
                    }
                    FOp::R(Mad { dst: d2, a, b, c }) => {
                        let site = site_for(*ptr, &mut self.sites, &mut self.specs);
                        return Some(NInstr {
                            imm: site as u64,
                            a: *dst,
                            b: *idx,
                            c: *d2,
                            d: *a,
                            e: *b,
                            g: *c,
                            ..ni(hp_mem!(h_ld_mad))
                        });
                    }
                    _ => {
                        if let Some((o2 @ (0 | 2), d2, a2, b2)) = fbin(y) {
                            let site = site_for(*ptr, &mut self.sites, &mut self.specs);
                            let f: HP = if o2 == 0 {
                                hp_mem!(h_ld_fbin_c, 0)
                            } else {
                                hp_mem!(h_ld_fbin_c, 2)
                            };
                            return Some(NInstr {
                                imm: site as u64,
                                a: *dst,
                                b: *idx,
                                c: d2,
                                d: a2,
                                e: b2,
                                ..ni(f)
                            });
                        }
                    }
                }
            }
        }
        // Float multiply feeding a multiply-add (polynomial / dot chains).
        if let FOp::R(MulF { dst, a, b }) = x {
            match y {
                FOp::R(Mad { dst: d2, a: a2, b: b2, c: c2 }) => {
                    return Some(NInstr {
                        a: *dst,
                        b: *a,
                        c: *b,
                        d: *d2,
                        e: *a2,
                        g: *b2,
                        imm: *c2 as u64,
                        ..ni(hp!(h_mulf_madf_c::<true>))
                    });
                }
                FOp::R(MadRF { dst: d2, c: c2, a: a2, b: b2 }) => {
                    return Some(NInstr {
                        a: *dst,
                        b: *a,
                        c: *b,
                        d: *d2,
                        e: *c2,
                        g: *a2,
                        imm: *b2 as u64,
                        ..ni(hp!(h_mulf_madf_c::<false>))
                    });
                }
                _ => {}
            }
        }
        // Multiply-add + loop increment.
        if let (FOp::R(MadRF { dst, c, a, b }), FOp::R(AddI { dst: d2, a: a2, b: b2 })) = (x, y) {
            return Some(NInstr {
                a: *dst,
                b: *c,
                c: *a,
                d: *b,
                e: *d2,
                g: *a2,
                imm: *b2 as u64,
                ..ni(hp!(h_madrf_addi))
            });
        }
        // Adjacent float binary pairs (complex-square and row-update chains).
        if let (Some((o1, d1, a1, b1)), Some((o2, d2, a2, b2))) = (fbin(x), fbin(y)) {
            let f: HP = match (o1, o2) {
                (1, 0) => hp!(h_ff_sa),
                (2, 1) => hp!(h_ff_ms),
                (2, 2) => hp!(h_ff_mm),
                _ => return None,
            };
            return Some(NInstr {
                a: d1,
                b: a1,
                c: b1,
                d: d2,
                e: a2,
                g: b2,
                ..ni(f)
            });
        }
        // Two integer adds (index bumps).
        if let (FOp::R(AddI { dst, a, b }), FOp::R(AddI { dst: d2, a: a2, b: b2 })) = (x, y) {
            return Some(NInstr {
                a: *dst,
                b: *a,
                c: *b,
                d: *d2,
                e: *a2,
                g: *b2,
                ..ni(hp!(h_addi_addi))
            });
        }
        None
    }
}

const fn bin3(f: HP, dst: u16, a: u16, b: u16) -> NInstr {
    NInstr {
        a: dst,
        b: a,
        c: b,
        ..ni(f)
    }
}

const fn un2(f: HP, dst: u16, src: u16) -> NInstr {
    NInstr {
        a: dst,
        b: src,
        ..ni(f)
    }
}

/// Classify a float add/sub/mul (0/1/2) as `(op, dst, a, b)`.
fn fbin(op: &FOp) -> Option<(u8, u16, u16, u16)> {
    match op {
        FOp::R(ROp::AddF { dst, a, b }) => Some((0, *dst, *a, *b)),
        FOp::R(ROp::SubF { dst, a, b }) => Some((1, *dst, *a, *b)),
        FOp::R(ROp::MulF { dst, a, b }) => Some((2, *dst, *a, *b)),
        _ => None,
    }
}

/// Lower a validated register program to the native engine.
///
/// Adjacent pairs fuse into one instruction where the benchmark's kernels
/// select them: address compute + load (`MadI`+`Load`), index increment +
/// load, count-down + compare-branch (`SubI`+`JcI`), store + index bump,
/// register copy + add, load + load, load + multiply-add, load + float
/// add/mul, float multiply + multiply-add, multiply-add (`MadRF`) +
/// index bump, the float pairs sub+add, mul+sub and mul+mul, and add+add.
///
/// Returns `None` — and the dispatcher falls back to the register engine —
/// for programs the inliner cannot flatten: recursive or uncompiled device
/// functions, pathological inline depth or code growth, or a register file
/// larger than the 16-bit operand encoding. Everything the register
/// compiler emits for real kernels lowers.
///
/// ```
/// use oclsim::minicl::{self, native, regir};
/// let unit = minicl::parse(
///     "__kernel void id(__global float* a) { a[get_global_id(0)] = 1.0f; }",
/// ).unwrap();
/// let compiled = minicl::compile(&unit).unwrap();
/// let info = compiled.kernels.get("id").unwrap();
/// let reg = regir::compile_kernel(&compiled, info).unwrap();
/// let native = native::compile_native(&reg, info).expect("lowerable");
/// assert!(native.len() > 0);
/// ```
pub fn compile_native(prog: &RegProgram, kernel: &KernelInfo) -> Option<NativeProgram> {
    // Defensive: the per-item reset span must cover every kernel local.
    if kernel.nlocals > prog.const_base {
        return None;
    }
    let mut fl = Flattener {
        prog,
        out: Vec::new(),
        total_regs: prog.nregs as u32,
        tail: Vec::new(),
        known_consts: prog
            .consts
            .iter()
            .enumerate()
            .map(|(k, c)| (prog.const_base as u32 + k as u32, *c))
            .collect(),
        const_regions: vec![(prog.const_base as u32, prog.nregs as u32)],
    };
    let mut stack = Vec::new();
    let map = fl.emit_range(0, prog.main_end as usize, 0, RetCtx::Main, &mut stack)?;
    let entry = *map.get(prog.entry as usize)?;
    let Flattener {
        mut out,
        total_regs,
        tail,
        known_consts,
        const_regions,
        ..
    } = fl;
    if out.is_empty() || out.len() >= IP_HALT_MIN as usize {
        return None;
    }
    // The last instruction must never fall through (it is a `Done` or an
    // plain `Jmp` — `validate` proved every range ends in one).
    match out.last() {
        Some(FOp::Done) | Some(FOp::R(ROp::Jmp { .. })) => {}
        _ => return None,
    }

    // Canonicalise integer branch polarity: invert the comparison instead
    // of carrying `when` (exact for integers; floats keep both).
    for op in &mut out {
        if let FOp::R(ROp::JcI { cmp, when, .. }) = op {
            if !*when {
                *cmp = cmp_inv(*cmp);
                *when = true;
            }
        }
    }

    // Operand bounds check (licenses the unchecked handler accesses) and
    // never-written analysis (licenses site pre-resolution and the partial
    // per-item reset).
    let mut writes = vec![0u32; total_regs as usize];
    for op in &out {
        let regs = op_regs(op);
        for &(r, n) in regs.reads().iter().chain(regs.writes()) {
            if r as u32 + n as u32 > total_regs {
                return None;
            }
        }
        for r in regs.written() {
            writes[r as usize] += 1;
        }
    }
    // A write into a constant region would break both the known-constant
    // specialisation and the no-reset-needed invariant; `validate` makes
    // this impossible, but the lowering re-checks rather than trusts.
    for &(lo, hi) in &const_regions {
        if writes[lo as usize..hi as usize].iter().any(|&w| w > 0) {
            return None;
        }
    }
    let mut known: Vec<Option<RVal>> = vec![None; total_regs as usize];
    for &(r, v) in &known_consts {
        known[r as usize] = Some(v);
    }

    // Jump targets, for the fusion barrier and the fetch-safety check.
    let mut is_target = vec![false; out.len()];
    for op in &out {
        if let Some(t) = target_of(op) {
            if t as usize >= out.len() {
                return None;
            }
            is_target[t as usize] = true;
        }
    }

    propagate_pointer_copies(&mut out, entry as usize, &writes);

    let mut lo = Lower {
        writes: &writes,
        known: &known,
        sites: HashMap::new(),
        specs: Vec::new(),
    };
    // The entry must start a unit: mark it like a jump target so the unit
    // builder below can never absorb it into a preceding charge or pair.
    is_target[entry as usize] = true;

    // Unit builder: tile the flat op stream with compacted units. Each
    // unit is one native instruction covering 1-3 flat ops: an optional
    // leading block-entry `Ops` charge (folded into the charge field, see
    // `chgt!`/`chgi!`), then either a fused pair or a single op. Every
    // unit falls through to `ip + 1`, so jump targets — which always land
    // on unit starts, enforced by the `is_target` barriers — are remapped
    // through `map` afterwards.
    let mut code: Vec<NInstr> = Vec::with_capacity(out.len());
    let mut old_targets: Vec<Option<u32>> = Vec::with_capacity(out.len());
    let mut map = vec![u32::MAX; out.len()];
    let mut i = 0usize;
    while i < out.len() {
        let start = i;
        let mut charge: u64 = 0;
        if let FOp::R(ROp::Ops(n)) = &out[i] {
            // `t` is a u32, so only charges that fit are absorbed; larger
            // (never seen in practice) stay as standalone `h_ops` units.
            if *n <= u32::MAX as u64 && i + 1 < out.len() && !is_target[i + 1] {
                charge = *n;
                i += 1;
            }
        }
        let fused = if i + 1 < out.len() && !is_target[i + 1] {
            lo.fuse(&out[i], &out[i + 1])
        } else {
            None
        };
        let (mut instr, last) = match fused {
            Some(f) => (f, i + 1),
            None => (lo.one(&out[i])?, i),
        };
        // A fused pair falls through to the next unit, which must exist:
        // `fuse` never takes a terminator (`Done` / `Jmp`) as its second
        // op, and the final flat op is always a terminator.
        debug_assert!(fused.is_none() || last + 1 < out.len());
        let old_t = target_of(&out[last]);
        if charge > 0 {
            // Branch handlers read the folded charge from `imm` (their
            // `t` is the jump target); everything else reads it from `t`.
            if old_t.is_some() {
                instr.imm = charge;
            } else {
                instr.t = charge as u32;
            }
        }
        map[start] = code.len() as u32;
        code.push(instr);
        old_targets.push(old_t);
        i = last + 1;
    }
    // Remap jump targets and the entry from flat-op indices to unit
    // indices. Every target is marked in `is_target`, so it starts a unit
    // and has a valid `map` entry.
    for (u, ot) in old_targets.iter().enumerate() {
        if let Some(t) = ot {
            code[u].t = map[*t as usize];
        }
    }
    let flat_entry = entry as usize;
    let entry = map[flat_entry];

    let mut template_static = prog.consts.clone();
    template_static.extend_from_slice(&tail);
    if prog.const_base as usize + template_static.len() != total_regs as usize {
        return None;
    }

    let Lower {
        sites, specs, ..
    } = lo;
    // A barrier-free kernel is its entry region (codegen counts every
    // barrier a kernel reaches, so it has no other).
    let (regions, forms) = regions::analyse(&out, flat_entry, &sites, &known, &writes);
    let regions: Vec<(u32, regions::Region)> = regions
        .into_iter()
        .take(if kernel.has_barrier { usize::MAX } else { 1 })
        .map(|region| (map[region.entry_flat], region))
        .collect();
    // A work-item start restores the template only where the kernel can
    // observe the previous item's value: a register it writes and may read
    // before writing (live at the entry), or one a barrier region's strips
    // compare across lanes. A never-written register keeps the value its
    // arena was made with; one written before every read is dead there.
    let span = prog.const_base as usize;
    let live = live_at_entry(&out, flat_entry, span);
    let mut restore: Vec<bool> = (0..span).map(|r| writes[r] > 0 && live[r]).collect();
    for (_, region) in &regions {
        for &r in region.checks().iter().filter(|&&r| (r as usize) < span) {
            restore[r as usize] = true;
        }
    }
    let mut reset_runs: Vec<Range<u16>> = Vec::new();
    for r in (0..span as u16).filter(|&r| restore[r as usize]) {
        match reset_runs.last_mut() {
            Some(run) if run.end == r => run.end += 1,
            _ => reset_runs.push(r..r + 1),
        }
    }
    let dead = (0..span as u16)
        .filter(|&r| writes[r as usize] > 0 && !restore[r as usize])
        .collect();
    Some(NativeProgram {
        code,
        entry,
        total_regs,
        main_const_base: prog.const_base,
        reset_runs,
        dead,
        template_static,
        site_ptrs: specs,
        regions,
        forms,
    })
}

/// Pointer copy propagation. The stack compiler binds a private array by
/// moving its constant-pool pointer into a local, and holds a buffer
/// pointer in a stack slot while it evaluates the rest of an expression
/// (`out[d] = c ? 1 : 0` moves `out` into a slot before the branches);
/// accesses through such a written register would all count as dynamic.
/// Where every path from the entry last wrote a load's or store's pointer
/// register with a `Mov` from one never-written register, the access sees
/// that register's dispatch value: redirect it there, which makes it
/// sited. A forward dataflow over the written pointer registers; the
/// entry holds the template, which is no copy.
fn propagate_pointer_copies(out: &mut [FOp], entry: usize, writes: &[u32]) {
    /// A pointer register's value is not a known copy.
    const OTHER: u32 = u32::MAX;
    let mut tracked: Vec<u16> = Vec::new();
    for op in out.iter() {
        if let FOp::R(ROp::Load { ptr, .. } | ROp::Store { ptr, .. }) = op {
            if writes[*ptr as usize] > 0 && !tracked.contains(ptr) {
                tracked.push(*ptr);
            }
        }
    }
    if tracked.is_empty() {
        return;
    }
    let t = tracked.len();
    // Per op, each tracked register's copy source on entry to it.
    let mut at = vec![OTHER; out.len() * t];
    let mut seen = vec![false; out.len()];
    seen[entry] = true;
    let mut work = vec![entry];
    let mut cur = vec![OTHER; t];
    while let Some(k) = work.pop() {
        cur.copy_from_slice(&at[k * t..(k + 1) * t]);
        for r in op_regs(&out[k]).written() {
            if let Some(i) = tracked.iter().position(|&p| p == r) {
                cur[i] = match out[k] {
                    FOp::R(ROp::Mov { src, .. }) if writes[src as usize] == 0 => src as u32,
                    _ => OTHER,
                };
            }
        }
        for (s, _) in regions::successors(out, k, true) {
            let have = &mut at[s * t..(s + 1) * t];
            if !seen[s] {
                seen[s] = true;
                have.copy_from_slice(&cur);
                work.push(s);
            } else if have.iter().zip(&cur).any(|(h, c)| h != c && *h != OTHER) {
                for (h, c) in have.iter_mut().zip(&cur) {
                    if h != c {
                        *h = OTHER;
                    }
                }
                work.push(s);
            }
        }
    }
    for (k, op) in out.iter_mut().enumerate() {
        if let FOp::R(ROp::Load { ptr, .. } | ROp::Store { ptr, .. }) = op {
            if let Some(i) = tracked.iter().position(|p| p == ptr) {
                if seen[k] && at[k * t + i] != OTHER {
                    *ptr = at[k * t + i] as u16;
                }
            }
        }
    }
}

/// Which of the registers `[0, span)` are live at the kernel entry: read
/// on some path from `entry` (barriers are ordinary edges) before any
/// write. Backward liveness over bit sets, on the basic blocks, swept in
/// reverse order until nothing changes.
fn live_at_entry(out: &[FOp], entry: usize, span: usize) -> Vec<bool> {
    let words = span.div_ceil(64).max(1);
    let n = out.len();
    let head = regions::block_heads(out, &[entry]);
    let starts: Vec<usize> = (0..n).filter(|&k| head[k]).collect();
    let block_of = |k: usize| starts.partition_point(|&s| s <= k) - 1;
    // Per block: what it reads before writing, and what it writes.
    let nb = starts.len();
    let mut reads = vec![0u64; nb * words];
    let mut kills = vec![0u64; nb * words];
    for (b, &s) in starts.iter().enumerate() {
        let end = starts.get(b + 1).copied().unwrap_or(n);
        let (rd, kl) = (b * words, b * words);
        for op in &out[s..end] {
            let regs = op_regs(op);
            for &(r, len) in regs.reads() {
                for r in (r..r + len).filter(|&r| (r as usize) < span) {
                    let (w, bit) = (r as usize / 64, 1u64 << (r % 64));
                    reads[rd + w] |= bit & !kills[kl + w];
                }
            }
            for r in regs.written().filter(|&r| (r as usize) < span) {
                kills[kl + r as usize / 64] |= 1u64 << (r % 64);
            }
        }
    }
    // Each block's successor blocks (at most two).
    let succ: Vec<[usize; 2]> = (0..nb)
        .map(|b| {
            let last = starts.get(b + 1).copied().unwrap_or(n) - 1;
            let mut to = [usize::MAX; 2];
            for (slot, (s, _)) in to.iter_mut().zip(regions::successors(out, last, true)) {
                *slot = block_of(s);
            }
            to
        })
        .collect();
    let mut live = vec![0u64; nb * words];
    let mut changed = true;
    while changed {
        changed = false;
        for b in (0..nb).rev() {
            for w in 0..words {
                let to = succ[b].iter().filter(|&&s| s != usize::MAX);
                let after = to.fold(0, |a, &s| a | live[s * words + w]);
                let v = reads[b * words + w] | (after & !kills[b * words + w]);
                if live[b * words + w] != v {
                    live[b * words + w] = v;
                    changed = true;
                }
            }
        }
    }
    let at = block_of(entry) * words;
    (0..span)
        .map(|r| live[at + r / 64] & (1u64 << (r % 64)) != 0)
        .collect()
}
