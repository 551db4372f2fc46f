//! Race analysis of a barrier kernel's *regions*: the stretches of code
//! between two barriers, which strip mode runs as strips (see the parent
//! module, "Strip mode").
//!
//! A region is named by its entry — the kernel entry or the instruction
//! after a barrier — and holds every instruction reachable from there
//! without passing a barrier. One *phase* of a work-group runs each item
//! from its region entry to its next barrier or to completion. The
//! reference semantics runs the items of a phase one after another; a
//! strip interleaves them. The two agree when the phase is **race-free**:
//! no two distinct work-items of the group touch one element of local or
//! global memory with at least one of the accesses a store. Then every
//! item reads only what it wrote itself or what was there before the
//! phase, and every element has at most one writer in the phase, so no
//! interleaving of the items can be told apart from the sweep.
//!
//! The analysis proves race-freedom statically, over the flat op stream
//! (`FOp`), for each region:
//!
//! * **Values.** A forward abstract interpretation from the entry gives
//!   each integer register an affine form `Σ cᵈ·lidᵈ + Σ cₛ·s + k` over
//!   the local ids and *uniform symbols* — values that are the same for
//!   every item of the phase: the dispatch-wide builtins, the register
//!   values at the region entry (checked, see below), and the result of
//!   any non-affine operation on uniform operands at an instruction that
//!   runs at most once per item per phase (off every barrier-free cycle).
//!   A join keeps a form only where all incoming paths agree, so a value
//!   written under a branch that splits the items never stays uniform.
//! * **Facts.** Taken integer compare-branches add `form ≤ 0` or
//!   `form = 0` facts along their edges; a join keeps the facts common to
//!   all incoming paths. Facts speak about symbols, which never change
//!   inside the phase, so no later write invalidates them.
//! * **Accesses.** Every load and store through a pre-resolved site,
//!   with its index form and the facts in force. A load or store through
//!   a written pointer register makes the region unanalysable.
//!
//! Two parts are left to the dispatch, in [`Region::race_free`]: which
//! buffer slot each site resolves to, and the group shape. A pair of
//! accesses to one slot, one of them a store, is race-free when
//!
//! 1. both index forms are equal and map the group's items one-to-one
//!    (every dimension of extent > 1 carries a coefficient, and the
//!    coefficients separate like digits of a mixed radix), or
//! 2. one access is pinned to a single item by `lidᵈ = v` facts on every
//!    dimension of extent > 1, and the other is that same pinned access
//!    or maps items one-to-one and meets it only at the pinned item, or
//! 3. the symbolic ranges of the two indices — local ids bounded by the
//!    group shape and by the facts — are separated by a constant.
//!
//! Everything else — two sites on one slot, a non-affine index, an index
//! two items can share — keeps the region one lane wide.
//!
//! The register values at a region entry are a property of the previous
//! phase. A register every write of which is `get_local_id(d)` (or
//! `get_global_id(d)`) reads as that id when every path to the barrier
//! wrote it. Any other value the forms lean on, directly or through a
//! symbol derived from it, is taken as uniform and checked per strip
//! instead of proven ([`Region::entry_holds`]): only the lanes of one
//! strip interleave, so that is all race-freedom needs. A strip that fails
//! the check runs one lane wide. Uniform branches decided opposite ways on
//! the paths to two accesses keep them apart: such a branch runs at most
//! once per item per phase and goes one way for every item. The forms are
//! exact as long as no index computation overflows `i64`.

use super::{cmp_inv, op_regs, FOp, NItem, Site, SiteKind};
use crate::minicl::bytecode::{Builtin, Cmp, ElemTy};
use crate::minicl::regir::{ROp, RVal};
use std::collections::HashMap;

/// A value every item of the group holds alike during one phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Sym {
    /// The register's value at the region entry.
    Entry(u16),
    /// The result of flat op `k` (run at most once per item per phase).
    Def(u32),
    /// `get_group_id(d) * get_local_size(d)`: `get_global_id(d) - get_local_id(d)`.
    GidBase(u8),
    Grp(u8),
    GSize(u8),
    LSize(u8),
    NGroups(u8),
}

/// `Σ lid[d]·lidᵈ + Σ c·s + k`; symbols sorted, no zero coefficient.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct Aff {
    lid: [i64; 3],
    syms: Vec<(Sym, i64)>,
    k: i64,
}

/// An abstract integer: an affine form, or `None` (unknown).
type AVal = Option<Aff>;

impl Aff {
    fn konst(k: i64) -> Aff {
        Aff {
            k,
            ..Aff::default()
        }
    }

    fn sym(s: Sym) -> Aff {
        Aff {
            syms: vec![(s, 1)],
            ..Aff::default()
        }
    }

    fn lid(d: usize) -> Aff {
        let mut a = Aff::default();
        a.lid[d] = 1;
        a
    }

    fn is_uniform(&self) -> bool {
        self.lid == [0; 3]
    }

    fn as_const(&self) -> Option<i64> {
        (self.is_uniform() && self.syms.is_empty()).then_some(self.k)
    }

    /// `self + sign·o`, or `None` on overflow.
    fn add(&self, o: &Aff, sign: i64) -> AVal {
        let mut lid = self.lid;
        for (l, &m) in lid.iter_mut().zip(&o.lid) {
            *l = l.checked_add(m.checked_mul(sign)?)?;
        }
        let mut syms = self.syms.clone();
        for &(s, c) in &o.syms {
            let c = c.checked_mul(sign)?;
            match syms.binary_search_by_key(&s, |&(t, _)| t) {
                Ok(at) => {
                    syms[at].1 = syms[at].1.checked_add(c)?;
                    if syms[at].1 == 0 {
                        syms.remove(at);
                    }
                }
                Err(at) => syms.insert(at, (s, c)),
            }
        }
        Some(Aff {
            lid,
            syms,
            k: self.k.checked_add(o.k.checked_mul(sign)?)?,
        })
    }

    fn scale(&self, c: i64) -> AVal {
        if c == 0 {
            return Some(Aff::konst(0));
        }
        let mut lid = self.lid;
        for l in &mut lid {
            *l = l.checked_mul(c)?;
        }
        let syms = self
            .syms
            .iter()
            .map(|&(s, v)| Some((s, v.checked_mul(c)?)))
            .collect::<Option<Vec<_>>>()?;
        Some(Aff {
            lid,
            syms,
            k: self.k.checked_mul(c)?,
        })
    }

    /// The one local-id dimension this form carries, with its coefficient.
    fn single_lid(&self) -> Option<(usize, i64)> {
        let mut found = None;
        for (d, &c) in self.lid.iter().enumerate() {
            if c != 0 {
                if found.is_some() {
                    return None;
                }
                found = Some((d, c));
            }
        }
        found
    }

    /// Replace `lidᵈ` by `pins[d]` wherever a pin is given.
    fn pin(&self, pins: &[Option<Aff>; 3]) -> AVal {
        let mut out = Aff {
            lid: [0; 3],
            ..self.clone()
        };
        for (d, &c) in self.lid.iter().enumerate() {
            match &pins[d] {
                Some(v) => out = out.add(&v.scale(c)?, 1)?,
                None => out.lid[d] = c,
            }
        }
        Some(out)
    }
}

/// `f = 0` when `eq`, else `f ≤ 0`; only facts about one local id are
/// kept (the rules below use nothing else).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Fact {
    f: Aff,
    eq: bool,
}

/// What the facts say about `lidᵈ`: upper bounds (`lidᵈ ≤ u`), lower
/// bounds (`lidᵈ ≥ l`) and a pin (`lidᵈ = v`), each a uniform form.
fn lid_bounds(facts: &[Fact], d: usize) -> (Vec<Aff>, Vec<Aff>, Option<Aff>) {
    let (mut ups, mut lows, mut pin) = (Vec::new(), Vec::new(), None);
    for fact in facts {
        let Some((fd, c)) = fact.f.single_lid() else {
            continue;
        };
        if fd != d || c.abs() != 1 {
            continue;
        }
        // c·lid + r (≤ | =) 0, with r the uniform rest.
        let mut r = fact.f.clone();
        r.lid = [0; 3];
        let Some(bound) = r.scale(-c) else { continue };
        if fact.eq {
            pin = Some(bound);
        } else if c > 0 {
            ups.push(bound);
        } else {
            lows.push(bound);
        }
    }
    (ups, lows, pin)
}

/// The abstract machine state at one instruction.
#[derive(Debug, Clone, PartialEq)]
struct State {
    regs: Vec<AVal>,
    facts: Vec<Fact>,
    /// Uniform branches every path here took, and which way: flat op and
    /// `taken`. Such a branch runs at most once per item per phase, and
    /// goes one way for every item, so two accesses whose paths decide it
    /// differently never meet in one phase.
    decided: Vec<(u32, bool)>,
}

impl State {
    /// Keep what `other` agrees with; report whether anything changed.
    fn join(&mut self, other: &State) -> bool {
        let mut changed = false;
        for (r, o) in self.regs.iter_mut().zip(&other.regs) {
            if r.is_some() && r != o {
                *r = None;
                changed = true;
            }
        }
        let before = (self.facts.len(), self.decided.len());
        self.facts.retain(|f| other.facts.contains(f));
        self.decided.retain(|d| other.decided.contains(d));
        changed || (self.facts.len(), self.decided.len()) != before
    }
}

/// How a register's value at a region entry is read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// One value shared by every item ([`Sym::Entry`]), checked per strip.
    Uniform,
    /// Every write to it is `get_local_id(d)`.
    Lid(u8),
    /// Every write to it is `get_global_id(d)`.
    Gid(u8),
}

/// One load or store of a region.
#[derive(Debug, Clone)]
struct Access {
    site: u32,
    store: bool,
    ty: ElemTy,
    idx: AVal,
    facts: Vec<Fact>,
    decided: Vec<(u32, bool)>,
}

/// One region of a barrier kernel and what its accesses are.
#[derive(Debug, Clone)]
pub(super) struct Region {
    /// Entry flat op (a unit start; the parent maps it to an instruction).
    pub(super) entry_flat: usize,
    /// Every access goes through a pre-resolved site.
    analysable: bool,
    accesses: Vec<Access>,
    /// Entry registers the forms take as uniform: checked per strip.
    checks: Vec<u16>,
}

/// Analyse every region of `out`: the one at `entry` and one after each
/// barrier. `sites` maps a pointer register to its site index; `known`
/// and `writes` are the lowering's constant and write-count tables.
pub(super) fn analyse(
    out: &[FOp],
    entry: usize,
    sites: &HashMap<u16, u32>,
    known: &[Option<RVal>],
    writes: &[u32],
) -> Vec<Region> {
    // Ops on a barrier-free cycle may run more than once per phase.
    let n = out.len();
    let on_cycle: Vec<bool> = (0..n)
        .map(|k| {
            let mut seen = vec![false; n];
            let mut stack: Vec<usize> = successors(out, k, false)
                .into_iter()
                .map(|(s, _)| s)
                .collect();
            while let Some(s) = stack.pop() {
                if s == k {
                    return true;
                }
                if s < n && !std::mem::replace(&mut seen[s], true) {
                    stack.extend(successors(out, s, false).into_iter().map(|(t, _)| t));
                }
            }
            false
        })
        .collect();
    let roles = entry_roles(out, known, writes);
    let assigned = assigned_ids(out, entry, &roles);
    let mut entries = vec![(entry, None)];
    for (k, op) in out.iter().enumerate() {
        if matches!(op, FOp::R(ROp::Barrier)) {
            entries.push((k + 1, Some(k)));
        }
    }
    let cx = Cx {
        out,
        on_cycle: &on_cycle,
        entry_deps: std::cell::RefCell::new(Vec::new()),
    };
    entries
        .into_iter()
        .map(|(e, barrier)| {
            let kernel_entry = barrier.is_none();
            let regs = (0..writes.len())
                .map(|r| {
                    if let Some(v) = known[r] {
                        return Some(Aff::konst(v.i()));
                    }
                    // An id role holds where every path to the barrier
                    // wrote the register; the kernel entry is the template.
                    let role = match barrier {
                        Some(b) if writes[r] > 0 && assigned[b][r] => roles[r],
                        _ => Role::Uniform,
                    };
                    Some(match role {
                        Role::Uniform => Aff::sym(Sym::Entry(r as u16)),
                        Role::Lid(d) => Aff::lid(d as usize),
                        Role::Gid(d) => Aff::lid(d as usize).add(&Aff::sym(Sym::GidBase(d)), 1)?,
                    })
                })
                .collect();
            cx.entry_deps.borrow_mut().clear();
            let init = State {
                regs,
                facts: vec![],
                decided: vec![],
            };
            let states = cx.fixpoint(e, init);
            let mut region = Region {
                entry_flat: e,
                analysable: true,
                accesses: Vec::new(),
                checks: Vec::new(),
            };
            for (k, st) in states.iter().enumerate() {
                let Some(st) = st else { continue };
                let (store, ty, ptr, idx) = match out[k] {
                    FOp::R(ROp::Load { ty, ptr, idx, .. }) => (false, ty, ptr, idx),
                    FOp::R(ROp::Store { ty, ptr, idx, .. }) => (true, ty, ptr, idx),
                    _ => continue,
                };
                match sites.get(&ptr) {
                    Some(&site) => region.accesses.push(Access {
                        site,
                        store,
                        ty,
                        idx: st.regs[idx as usize].clone(),
                        facts: st.facts.clone(),
                        decided: st.decided.clone(),
                    }),
                    None => region.analysable = false,
                }
            }
            if !kernel_entry {
                // An entry value taken as uniform is checked where a form
                // leans on it, directly or through a symbol derived from it.
                let mut used = cx.entry_deps.borrow().clone();
                for a in &region.accesses {
                    let forms = a.idx.iter().chain(a.facts.iter().map(|f| &f.f));
                    used.extend(forms.flat_map(|f| &f.syms).filter_map(|(s, _)| match s {
                        Sym::Entry(r) => Some(*r),
                        _ => None,
                    }));
                }
                used.sort_unstable();
                used.dedup();
                region.checks = used
                    .into_iter()
                    .filter(|&r| writes[r as usize] > 0)
                    .collect();
            }
            region
        })
        .collect()
}

/// The successors of flat op `k`, each with whether it is the taken edge
/// of a jump. A barrier ends a region unless `through_barriers`.
fn successors(out: &[FOp], k: usize, through_barriers: bool) -> Vec<(usize, bool)> {
    match &out[k] {
        FOp::Done => vec![],
        FOp::R(ROp::Barrier) if !through_barriers => vec![],
        FOp::R(ROp::Jmp { t }) => vec![(*t as usize, true)],
        FOp::R(
            ROp::Jz { t, .. } | ROp::Jnz { t, .. } | ROp::JcI { t, .. } | ROp::JcF { t, .. },
        ) => {
            vec![(*t as usize, true), (k + 1, false)]
        }
        _ => vec![(k + 1, false)],
    }
}

/// How each register reads at a region entry (see [`Role`]).
fn entry_roles(out: &[FOp], known: &[Option<RVal>], writes: &[u32]) -> Vec<Role> {
    let mut roles: Vec<Option<Role>> = vec![None; writes.len()];
    let mut uniform = vec![false; writes.len()];
    for op in out {
        let id = match op {
            FOp::R(ROp::Id { b, dst, src }) => known[*src as usize]
                .map(|v| v.i())
                .filter(|d| (0..3).contains(d))
                .and_then(|d| match b {
                    Builtin::GetLocalId => Some((*dst, Role::Lid(d as u8))),
                    Builtin::GetGlobalId => Some((*dst, Role::Gid(d as u8))),
                    _ => None,
                }),
            _ => None,
        };
        match id {
            Some((dst, role)) => {
                let r = dst as usize;
                if roles[r].is_some_and(|have| have != role) {
                    uniform[r] = true;
                }
                roles[r] = Some(role);
            }
            None => {
                for (r, len) in op_regs(op).1 {
                    for w in r..r + len {
                        uniform[w as usize] = true;
                    }
                }
            }
        }
    }
    roles
        .into_iter()
        .zip(uniform)
        .map(|(role, u)| {
            if u {
                Role::Uniform
            } else {
                role.unwrap_or(Role::Uniform)
            }
        })
        .collect()
}

/// For every op, which id-role registers every path from the kernel entry
/// to it has written (barriers are ordinary edges here).
fn assigned_ids(out: &[FOp], entry: usize, roles: &[Role]) -> Vec<Vec<bool>> {
    let n = out.len();
    let nregs = roles.len();
    let mut at: Vec<Option<Vec<bool>>> = vec![None; n];
    at[entry] = Some(vec![false; nregs]);
    let mut work = vec![entry];
    while let Some(k) = work.pop() {
        let mut after = at[k].clone().expect("queued ops have a state");
        if let FOp::R(ROp::Id { dst, .. }) = &out[k] {
            if roles[*dst as usize] != Role::Uniform {
                after[*dst as usize] = true;
            }
        }
        for (s, _) in successors(out, k, true).into_iter().filter(|&(s, _)| s < n) {
            match &mut at[s] {
                slot @ None => {
                    *slot = Some(after.clone());
                    work.push(s);
                }
                Some(have) => {
                    let mut changed = false;
                    for (h, a) in have.iter_mut().zip(&after) {
                        if *h && !*a {
                            *h = false;
                            changed = true;
                        }
                    }
                    if changed {
                        work.push(s);
                    }
                }
            }
        }
    }
    at.into_iter()
        .map(|a| a.unwrap_or_else(|| vec![false; nregs]))
        .collect()
}

struct Cx<'a> {
    out: &'a [FOp],
    on_cycle: &'a [bool],
    /// Entry registers a [`Sym::Def`] or a decided branch leans on:
    /// uniform only if they are.
    entry_deps: std::cell::RefCell<Vec<u16>>,
}

impl Cx<'_> {
    /// Record that the analysis takes these values as uniform: the entry
    /// registers among their symbols are checked per strip.
    fn lean_on<'v>(&self, vals: impl Iterator<Item = &'v AVal>) {
        let mut deps = self.entry_deps.borrow_mut();
        for (s, _) in vals.flatten().flat_map(|a| &a.syms) {
            if let Sym::Entry(e) = s {
                deps.push(*e);
            }
        }
    }

    /// Forward fixpoint over the region from `entry`; the in-state of
    /// every op the region reaches.
    fn fixpoint(&self, entry: usize, init: State) -> Vec<Option<State>> {
        let mut states: Vec<Option<State>> = vec![None; self.out.len()];
        states[entry] = Some(init);
        let mut work = vec![entry];
        while let Some(k) = work.pop() {
            let Some(st) = states[k].clone() else {
                continue;
            };
            let mut after = st;
            self.step(k, &mut after);
            for (s, taken) in successors(self.out, k, false) {
                if s >= self.out.len() {
                    continue;
                }
                let mut next = after.clone();
                if let FOp::R(ROp::JcI { cmp, a, b, .. }) = &self.out[k] {
                    let cmp = if taken { *cmp } else { cmp_inv(*cmp) };
                    let (x, y) = (&after.regs[*a as usize], &after.regs[*b as usize]);
                    if let (Some(x), Some(y)) = (x, y) {
                        next.facts.extend(fact(cmp, x, y));
                    }
                }
                let cond: &[u16] = match &self.out[k] {
                    FOp::R(ROp::JcI { a, b, .. } | ROp::JcF { a, b, .. }) => &[*a, *b],
                    FOp::R(ROp::Jz { c, .. } | ROp::Jnz { c, .. }) => std::slice::from_ref(c),
                    _ => &[],
                };
                let uniform = cond
                    .iter()
                    .all(|&x| after.regs[x as usize].as_ref().is_some_and(Aff::is_uniform));
                if !cond.is_empty() && uniform && !self.on_cycle[k] {
                    self.lean_on(cond.iter().map(|&x| &after.regs[x as usize]));
                    next.decided.push((k as u32, taken));
                }
                match &mut states[s] {
                    slot @ None => {
                        *slot = Some(next);
                        work.push(s);
                    }
                    Some(have) => {
                        if have.join(&next) {
                            work.push(s);
                        }
                    }
                }
            }
        }
        states
    }

    /// The effect of flat op `k` on the abstract registers.
    fn step(&self, k: usize, st: &mut State) {
        use ROp::*;
        let op = &self.out[k];
        let r = |st: &State, x: u16| st.regs[x as usize].clone();
        // Uniform operands, off every barrier-free cycle: a fresh symbol.
        let opaque = |st: &State, xs: &[u16]| -> AVal {
            let uniform = xs.iter().all(|&x| r(st, x).is_some_and(|a| a.is_uniform()));
            if !uniform || self.on_cycle[k] {
                return None;
            }
            self.lean_on(xs.iter().map(|&x| &st.regs[x as usize]));
            Some(Aff::sym(Sym::Def(k as u32)))
        };
        let value: Option<(u16, AVal)> = match op {
            FOp::CopyArgs { dst, src, n } => {
                let vals: Vec<AVal> = (0..*n).map(|j| r(st, src + j)).collect();
                for (j, v) in vals.into_iter().enumerate() {
                    st.regs[*dst as usize + j] = v;
                }
                return;
            }
            FOp::ZeroLocals { at, n } => {
                for j in 0..*n {
                    st.regs[(at + j) as usize] = Some(Aff::konst(0));
                }
                return;
            }
            FOp::R(Mov { dst, src }) => Some((*dst, r(st, *src))),
            FOp::R(Swap { a, b }) => {
                st.regs.swap(*a as usize, *b as usize);
                return;
            }
            FOp::R(AddI { dst, a, b }) => Some((
                *dst,
                r(st, *a).zip(r(st, *b)).and_then(|(x, y)| x.add(&y, 1)),
            )),
            FOp::R(SubI { dst, a, b }) => Some((
                *dst,
                r(st, *a).zip(r(st, *b)).and_then(|(x, y)| x.add(&y, -1)),
            )),
            FOp::R(NegI { dst, src }) => Some((*dst, r(st, *src).and_then(|x| x.scale(-1)))),
            FOp::R(MulI { dst, a, b }) => Some((
                *dst,
                mul(&r(st, *a), &r(st, *b)).or_else(|| opaque(st, &[*a, *b])),
            )),
            FOp::R(MadI { dst, a, b, c }) => {
                let v = mul(&r(st, *a), &r(st, *b))
                    .zip(r(st, *c))
                    .and_then(|(p, c)| p.add(&c, 1))
                    .or_else(|| opaque(st, &[*a, *b, *c]));
                Some((*dst, v))
            }
            FOp::R(
                DivI { dst, a, b }
                | RemI { dst, a, b }
                | Shl { dst, a, b }
                | Shr { dst, a, b }
                | BAnd { dst, a, b }
                | BOr { dst, a, b }
                | BXor { dst, a, b }
                | CmpI { dst, a, b, .. },
            ) => Some((*dst, opaque(st, &[*a, *b]))),
            FOp::R(Math2I { dst, a, b2, .. }) => Some((*dst, opaque(st, &[*a, *b2]))),
            FOp::R(BNot { dst, src } | LNot { dst, src } | AbsI { dst, src }) => {
                Some((*dst, opaque(st, &[*src])))
            }
            FOp::R(Id { b, dst, src }) => {
                let dim = r(st, *src).and_then(|a| a.as_const());
                let v = match dim {
                    Some(d) if (0..3).contains(&d) => {
                        let d8 = d as u8;
                        match b {
                            Builtin::GetLocalId => Some(Aff::lid(d as usize)),
                            Builtin::GetGlobalId => {
                                Aff::lid(d as usize).add(&Aff::sym(Sym::GidBase(d8)), 1)
                            }
                            Builtin::GetGroupId => Some(Aff::sym(Sym::Grp(d8))),
                            Builtin::GetGlobalSize => Some(Aff::sym(Sym::GSize(d8))),
                            Builtin::GetLocalSize => Some(Aff::sym(Sym::LSize(d8))),
                            Builtin::GetNumGroups => Some(Aff::sym(Sym::NGroups(d8))),
                            _ => Some(Aff::konst(0)),
                        }
                    }
                    // The lowering's out-of-range reading: ids 0, sizes 1.
                    Some(_) => Some(Aff::konst(matches!(
                        b,
                        Builtin::GetGlobalSize | Builtin::GetLocalSize | Builtin::GetNumGroups
                    ) as i64)),
                    None => match b {
                        Builtin::GetLocalId | Builtin::GetGlobalId => None,
                        _ => opaque(st, &[*src]),
                    },
                };
                Some((*dst, v))
            }
            _ => None,
        };
        match value {
            Some((dst, v)) => st.regs[dst as usize] = v,
            // Anything else (loads, float and vector ops) is unknown.
            None => {
                for (at, len) in op_regs(op).1 {
                    for w in at..at + len {
                        st.regs[w as usize] = None;
                    }
                }
            }
        }
    }
}

/// `x · y` when one side is a constant.
fn mul(x: &AVal, y: &AVal) -> AVal {
    let (x, y) = (x.as_ref()?, y.as_ref()?);
    match (x.as_const(), y.as_const()) {
        (Some(c), _) => y.scale(c),
        (_, Some(c)) => x.scale(c),
        _ => None,
    }
}

/// The fact `x cmp y`, normalised to `f ≤ 0` / `f = 0`, if it is about
/// one local id.
fn fact(cmp: Cmp, x: &Aff, y: &Aff) -> Option<Fact> {
    let d = x.add(y, -1)?;
    let (f, eq) = match cmp {
        Cmp::Lt => (d.add(&Aff::konst(1), 1)?, false),
        Cmp::Le => (d, false),
        Cmp::Gt => (d.scale(-1)?.add(&Aff::konst(1), 1)?, false),
        Cmp::Ge => (d.scale(-1)?, false),
        Cmp::Eq => (d, true),
        Cmp::Ne => return None,
    };
    f.single_lid()
        .filter(|&(_, c)| c.abs() == 1)
        .map(|_| Fact { f, eq })
}

impl Region {
    /// Is every phase that starts here race-free in this dispatch, with
    /// these resolved sites and this group shape?
    pub(super) fn race_free(&self, sites: &[Site], local: [usize; 3]) -> bool {
        if !self.analysable {
            return false;
        }
        let memory = |a: &Access| {
            let s = &sites[a.site as usize];
            matches!(s.kind, SiteKind::Global | SiteKind::Local)
                .then_some((s.kind == SiteKind::Local, s.slot))
        };
        for w in self.accesses.iter().filter(|a| a.store) {
            let Some(mw) = memory(w) else { continue };
            for x in &self.accesses {
                let apart = w.decided.iter().any(|&(b, t)| x.decided.contains(&(b, !t)));
                if memory(x) != Some(mw) || apart {
                    continue;
                }
                let separate = w.site == x.site && w.ty == x.ty && disjoint(w, x, local);
                if !separate {
                    return false;
                }
            }
        }
        true
    }

    /// Do the entry registers the forms take as uniform hold one value in
    /// every lane of a strip? (Strips run one after another, so only the
    /// items of one strip interleave.)
    pub(super) fn entry_holds(&self, lanes: &[NItem]) -> bool {
        let Some(first) = lanes.first() else {
            return true;
        };
        self.checks.iter().all(|&r| {
            let v = first.regs[r as usize].0;
            lanes.iter().all(|st| st.regs[r as usize].0 == v)
        })
    }
}

/// Does the local-id part of a form map the group's items one-to-one?
fn injective(lid: &[i64; 3], local: [usize; 3]) -> bool {
    let mut dims: Vec<(i64, i64)> = Vec::new();
    for d in 0..3 {
        if local[d] > 1 {
            if lid[d] == 0 {
                return false;
            }
            dims.push((lid[d].abs(), local[d] as i64 - 1));
        }
    }
    dims.sort();
    let mut reach = 0i64;
    for (c, span) in dims {
        if c <= reach {
            return false;
        }
        match c.checked_mul(span).and_then(|m| m.checked_add(reach)) {
            Some(r) => reach = r,
            None => return false,
        }
    }
    true
}

/// Can no two distinct items of a group of shape `local` reach `w` and `x`
/// at one element?
fn disjoint(w: &Access, x: &Access, local: [usize; 3]) -> bool {
    if local.iter().all(|&l| l <= 1) {
        return true; // one item
    }
    let (Some(iw), Some(ix)) = (&w.idx, &x.idx) else {
        return false;
    };
    // (1) One form, one element per item.
    if iw == ix && injective(&iw.lid, local) {
        return true;
    }
    // (2) A pinned access is one item's.
    let pins = |a: &Access| -> Option<[Option<Aff>; 3]> {
        let mut pins: [Option<Aff>; 3] = [None, None, None];
        for (d, pin) in pins.iter_mut().enumerate() {
            *pin = Some(if local[d] > 1 {
                lid_bounds(&a.facts, d).2?
            } else {
                Aff::konst(0)
            });
        }
        Some(pins)
    };
    let (pw, px) = (pins(w), pins(x));
    if pw.is_some() && pw == px {
        return true;
    }
    // The free access meets the pinned one only at the pinned item.
    for (pins, pinned, free) in [(&px, ix, iw), (&pw, iw, ix)] {
        let Some(pins) = pins else { continue };
        if injective(&free.lid, local) {
            if let (Some(a), Some(b)) = (free.pin(pins), pinned.pin(pins)) {
                if a == b {
                    return true;
                }
            }
        }
    }
    // (3) Ranges separated by a constant.
    let below = |lo: &Access, ilo: &Aff, hi: &Access, ihi: &Aff| {
        extremes(ilo, &lo.facts, local, true).iter().any(|top| {
            extremes(ihi, &hi.facts, local, false).iter().any(|bot| {
                top.add(bot, -1)
                    .and_then(|d| d.as_const())
                    .is_some_and(|d| d < 0)
            })
        })
    };
    below(w, iw, x, ix) || below(x, ix, w, iw)
}

/// Candidate maxima (`max`) or minima of a form over the items that
/// satisfy `facts`, as uniform forms.
fn extremes(f: &Aff, facts: &[Fact], local: [usize; 3], max: bool) -> Vec<Aff> {
    let mut out = vec![Aff {
        lid: [0; 3],
        ..f.clone()
    }];
    for (d, (&c, &extent)) in f.lid.iter().zip(&local).enumerate() {
        if c == 0 || extent <= 1 {
            continue;
        }
        let (ups, lows, pin) = lid_bounds(facts, d);
        let mut top = ups;
        top.push(Aff::konst(extent as i64 - 1));
        let mut bottom = lows;
        bottom.push(Aff::konst(0));
        if let Some(p) = pin {
            top = vec![p.clone()];
            bottom = vec![p];
        }
        let pick = if (c > 0) == max { top } else { bottom };
        out = out
            .iter()
            .flat_map(|acc| pick.iter().filter_map(move |b| acc.add(&b.scale(c)?, 1)))
            .take(16)
            .collect();
    }
    out
}
