//! The strip rule: race analysis of a kernel's *regions*, the stretches of
//! code between two barriers, which strip mode runs as strips (see the
//! parent module, "Strip mode").
//!
//! A region is named by its entry — the kernel entry or the instruction
//! after a barrier — and holds every instruction reachable from there
//! without passing a barrier; a barrier-free kernel is one region. One
//! *phase* runs each item of a group from its region entry to its next
//! barrier or to completion. The reference semantics runs the items of a
//! phase one after another, in item order; strip mode cuts each dim-0 row
//! into strips of up to `STRIP` consecutive items, runs the strips one
//! after another, and interleaves the items of one strip. So the only
//! items that ever interleave are the lanes of one strip, and they share
//! `lid1`, `lid2`, the group id and every argument: they differ in `lid0`
//! alone, pairwise by 1 to `w − 1` for a strip of `w` lanes.
//!
//! The question asked of a region is therefore per strip: **can two
//! lanes of one strip touch one element of local or global memory, with
//! one of the two accesses a store?** When they cannot, every lane reads
//! only what it wrote itself or what was there before the strip, and each
//! element has at most one writing lane, so the strip leaves the bytes,
//! op counts and first trap of the sweep (the parent module's three
//! points).
//!
//! The analysis answers it from the op stream the engine executes
//! (`FOp`), once per region at build time, and discharges what is left
//! once per dispatch, against the dispatch template:
//!
//! * **Values.** A forward abstract interpretation from the entry gives
//!   each integer register a *form*: a polynomial over `lid0` (at most
//!   linearly) and *strip-uniform symbols* — values every lane of a strip
//!   holds alike: `lid1`, `lid2`, the group ids and bases, the size
//!   builtins, the register values at the region entry (checked, see
//!   below), and the result of any operation the forms do not model on
//!   uniform operands at an instruction that runs at most once per item
//!   per phase (off every barrier-free cycle). Sums and products are
//!   exact, so `i * m_dim1` with `i = get_global_id(0) + step + 1` is
//!   `m_dim1·lid0 + (gidbase0 + step + 1)·m_dim1`. A join keeps a form
//!   only where all incoming paths agree, so a value written under a
//!   branch that splits the lanes never stays uniform.
//! * **Facts.** Taken integer compare-branches add `form ≤ 0` or
//!   `form = 0` facts about `lid0` along their edges; a join keeps the
//!   facts common to all incoming paths. Facts speak about symbols, which
//!   never change inside the phase, so no later write invalidates them.
//! * **Accesses.** Every load and store through a pre-resolved site,
//!   with its index form and the facts in force. A load or store through
//!   a written pointer register makes the region unanalysable.
//!
//! [`Region::race_free`] binds, per dispatch, every symbol the template
//! fixes (arguments, entry values of never-written registers, sizes) to
//! its value, and bounds the rest: ids, group ids and group bases are
//! `≥ 0` and below their extents; checked entry values and modelled-away
//! results are unbounded. A store `w` and an access `x` on one slot, with
//! forms `a·lid0 + A` and `b·lid0 + B` and `a`, `b` concrete, are apart
//! when, for lanes `p ≠ q` of one strip,
//!
//! 1. `a·lidₚ + A = b·lid_q + B` has no solution with `lidₚ − lid_q` in
//!    `±[1, w − 1]`: for `a = b` the difference `A − B` is not such a
//!    multiple of `a`; an access pinned to one lane by a `lid0 = v` fact
//!    turns the other side into the same question; or
//! 2. the ranges of the two indices — `lid0` bounded by the group shape
//!    and by the facts, symbolically, so `lid0 ≤ s − 1` against
//!    `lid0 + s` cancels to a constant — are separated.
//!
//! This is exact index arithmetic over the flat element index, so it needs
//! no assumption about rows: `Sub`'s `m[i*m_dim1 + j]` against
//! `m[step*m_dim1 + j]` differ by `(gid1 + 1)·m_dim1 ≥ m_dim1`, apart
//! whenever `m_dim1 ≥ w`. Everything else — two sites or two element
//! types on one slot, an index the forms do not model, a pair left
//! undischarged — keeps the dispatch (or, in a barrier kernel, the
//! region) one lane wide, and names the pair.
//!
//! The register values at a barrier region's entry are a property of the
//! previous phase. A register every write of which is `get_local_id(d)`
//! (or `get_global_id(d)`) reads as that id when every path to the
//! barrier wrote it. Any other written register the forms lean on,
//! directly or through a symbol derived from it, is taken as uniform and
//! checked per strip instead ([`Region::entry_holds`]); a strip that fails
//! the check runs one lane wide. At the kernel entry every register holds
//! its template value, so a barrier-free kernel's verdict is taken once
//! per dispatch and checks nothing per strip. Uniform branches decided
//! opposite ways on the paths to two accesses keep them apart: such a
//! branch runs at most once per item per phase and goes one way for
//! every lane. The forms are exact as long as no index computation
//! overflows `i64`.

use super::{cmp_inv, op_regs, target_of, FOp, NItem, Site, SiteKind, StripReject};
use crate::minicl::bytecode::{Builtin, Cmp, ElemTy};
use crate::minicl::driver::Geometry;
use crate::minicl::regir::{ROp, RVal};
use std::collections::HashMap;
use std::rc::Rc;

/// A factor of a form's monomial.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Sym {
    /// `get_local_id(d)`. `Lid(0)` is the one value the lanes of a strip
    /// do not share; `Lid(1)` and `Lid(2)` are strip-uniform.
    Lid(u8),
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
    /// The padding of a monomial of lower degree; sorts last.
    One,
}

/// The lane index.
const LANE: Sym = Sym::Lid(0);

/// A product of up to three factors, sorted, padded with [`Sym::One`].
type Mono = [Sym; 3];

const UNIT: Mono = [Sym::One; 3];

/// More terms than this and a form is dropped as unknown.
const MAX_TERMS: usize = 24;

/// `Σ c·m` over monomials `m`, sorted, no zero coefficient; `lid0`
/// appears at most once per monomial.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct Form(Vec<(Mono, i64)>);

/// An abstract integer: a form, or `None` (unknown).
type AVal = Option<Form>;

/// A register of the abstract state: forms are shared between the states
/// of successive instructions, not copied.
type Reg = Option<Rc<Form>>;

/// The product of two monomials, if it stays of degree ≤ 3 and linear in
/// `lid0`.
fn mono_mul(x: &Mono, y: &Mono) -> Option<Mono> {
    let mut m = UNIT;
    for (n, &s) in x.iter().chain(y).filter(|&&s| s != Sym::One).enumerate() {
        *m.get_mut(n)? = s;
    }
    m.sort_unstable();
    (m.iter().filter(|&&s| s == LANE).count() <= 1).then_some(m)
}

impl Form {
    fn konst(k: i64) -> Form {
        Form::norm(vec![(UNIT, k)]).unwrap_or_default()
    }

    fn sym(s: Sym) -> Form {
        Form(vec![([s, Sym::One, Sym::One], 1)])
    }

    /// Sort, merge and drop zero terms; `None` on overflow or blow-up.
    fn norm(mut terms: Vec<(Mono, i64)>) -> AVal {
        terms.sort_unstable_by_key(|t| t.0);
        let mut n = 0;
        for k in 0..terms.len() {
            if n > 0 && terms[n - 1].0 == terms[k].0 {
                terms[n - 1].1 = terms[n - 1].1.checked_add(terms[k].1)?;
            } else {
                terms[n] = terms[k];
                n += 1;
            }
        }
        terms.truncate(n);
        terms.retain(|t| t.1 != 0);
        (terms.len() <= MAX_TERMS).then_some(Form(terms))
    }

    fn is_uniform(&self) -> bool {
        self.0.iter().all(|(m, _)| m[0] != LANE)
    }

    fn as_const(&self) -> Option<i64> {
        match self.0.as_slice() {
            [] => Some(0),
            [(m, k)] if *m == UNIT => Some(*k),
            _ => None,
        }
    }

    /// `self + sign·o`.
    fn add(&self, o: &Form, sign: i64) -> AVal {
        let mut terms = self.0.clone();
        for &(m, c) in &o.0 {
            terms.push((m, c.checked_mul(sign)?));
        }
        Form::norm(terms)
    }

    fn scale(&self, c: i64) -> AVal {
        let terms = self.0.iter().map(|&(m, v)| Some((m, v.checked_mul(c)?)));
        Form::norm(terms.collect::<Option<_>>()?)
    }

    fn mul(&self, o: &Form) -> AVal {
        let mut terms = Vec::with_capacity(self.0.len() * o.0.len());
        for (mx, cx) in &self.0 {
            for (my, cy) in &o.0 {
                terms.push((mono_mul(mx, my)?, cx.checked_mul(*cy)?));
            }
        }
        Form::norm(terms)
    }

    /// `(coefficient of lid0, the rest)`, both uniform.
    fn split(&self) -> (Form, Form) {
        let (mut lane, mut rest) = (Vec::new(), Vec::new());
        for &(m, c) in &self.0 {
            if m[0] == LANE {
                lane.push(([m[1], m[2], Sym::One], c));
            } else {
                rest.push((m, c));
            }
        }
        (Form(lane), Form(rest))
    }
}

/// `f = 0` when `eq`, else `f ≤ 0`, with `f = ±lid0 + r`: only such facts
/// are kept (the rule uses nothing else).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Fact {
    f: Form,
    eq: bool,
}

/// What the facts say about `lid0`: upper bounds (`lid0 ≤ u`), lower
/// bounds (`lid0 ≥ l`) and a pin (`lid0 = v`), each a uniform form.
fn lane_bounds(facts: &[Fact]) -> (Vec<Form>, Vec<Form>, Option<Form>) {
    let (mut ups, mut lows, mut pin) = (Vec::new(), Vec::new(), None);
    for fact in facts {
        // c·lid0 + r (≤ | =) 0.
        let (lane, r) = fact.f.split();
        let Some(c) = lane.as_const() else { continue };
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
    regs: Vec<Reg>,
    facts: Vec<Fact>,
    /// Uniform branches every path here took, and which way: flat op and
    /// `taken`. Such a branch runs at most once per item per phase, and
    /// goes one way for every lane, so two accesses whose paths decide it
    /// differently never meet in one strip.
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

/// How a register's value at a barrier region's entry is read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// One value shared by every lane ([`Sym::Entry`]), checked per strip.
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
    idx: Reg,
    facts: Vec<Fact>,
    decided: Vec<(u32, bool)>,
}

/// One region of a kernel: its store-involving pairs of accesses, with
/// what is left of the strip question for the dispatch to discharge.
#[derive(Debug, Clone)]
pub(super) struct Region {
    /// Entry flat op (a unit start; the parent maps it to an instruction).
    pub(super) entry_flat: usize,
    /// Every access goes through a pre-resolved site.
    analysable: bool,
    /// Every store against every access (itself included) that no uniform
    /// branch keeps apart, in op order.
    pairs: Vec<Pair>,
    /// Entry registers the forms take as uniform: checked per strip.
    checks: Vec<u16>,
}

/// A store and another access of one region.
#[derive(Debug, Clone)]
struct Pair {
    store_site: u32,
    other_site: u32,
    /// The other access is a store too.
    other_store: bool,
    /// How two lanes could be kept apart when both accesses reach one
    /// slot; `None` when nothing can (two sites or element types, an
    /// index the forms do not model).
    check: Option<Check>,
}

/// The strip question for one pair, in forms the dispatch only evaluates.
/// With the store at `a·lid0 + A` and the other access at `b·lid0 + B`,
/// two lanes `p ≠ q` meet where `E = a·lidₚ − b·lid_q + d` is 0.
#[derive(Debug, Clone)]
struct Check {
    a: Form,
    b: Form,
    /// `d = A − B`.
    d: Form,
    /// The two indices are one form with a fixed nonzero `a`: each lane
    /// its own element, whatever the binding.
    own: bool,
    /// Both accesses are pinned to one and the same lane.
    one_lane: bool,
    /// `lid0 = p` facts pinning the store, and the other access.
    pin_store: Option<Form>,
    pin_other: Option<Form>,
    /// Upper and lower bounds on `lidₚ` at the store, and on `lid_q` at
    /// the other access: the facts' and the group's.
    store_ends: (Vec<Form>, Vec<Form>),
    other_ends: (Vec<Form>, Vec<Form>),
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
    let mut entries = vec![(entry, None)];
    for (k, op) in out.iter().enumerate() {
        if matches!(op, FOp::R(ROp::Barrier)) {
            entries.push((k + 1, Some(k)));
        }
    }
    // Only a barrier region's entry values depend on the previous phase.
    let (roles, assigned) = if entries.len() > 1 {
        let roles = entry_roles(out, known, writes);
        let assigned = assigned_ids(out, entry, &roles);
        (roles, assigned)
    } else {
        (Vec::new(), Vec::new())
    };
    let mut head = vec![false; out.len()];
    head[entry] = true;
    for (k, op) in out.iter().enumerate() {
        let jump = target_of(op);
        if let Some(t) = jump {
            head[t as usize] = true;
        }
        if jump.is_some() || matches!(op, FOp::R(ROp::Barrier)) {
            if let Some(next) = head.get_mut(k + 1) {
                *next = true;
            }
        }
    }
    let cx = Cx {
        out,
        on_cycle: &on_cycles(out),
        head,
        entry_deps: std::cell::RefCell::new(Vec::new()),
    };
    entries
        .into_iter()
        .map(|(e, barrier)| {
            let regs = (0..writes.len())
                .map(|r| -> AVal {
                    if let Some(v) = known[r] {
                        return Some(Form::konst(v.i()));
                    }
                    // An id role holds where every path to the barrier
                    // wrote the register; the kernel entry is the template.
                    let role = match barrier {
                        Some(b) if writes[r] > 0 && assigned[b][r] => roles[r],
                        _ => Role::Uniform,
                    };
                    Some(match role {
                        Role::Uniform => Form::sym(Sym::Entry(r as u16)),
                        Role::Lid(d) => Form::sym(Sym::Lid(d)),
                        Role::Gid(d) => {
                            Form::sym(Sym::Lid(d)).add(&Form::sym(Sym::GidBase(d)), 1)?
                        }
                    })
                })
                .map(|v| v.map(Rc::new))
                .collect();
            cx.entry_deps.borrow_mut().clear();
            let init = State {
                regs,
                facts: vec![],
                decided: vec![],
            };
            // Per op, the access it makes, with the last state it was
            // visited with; `None` inside for a dynamic pointer.
            let mut at: Vec<Option<Option<Access>>> = vec![None; out.len()];
            cx.fixpoint(e, init, |k, st| {
                let (store, ty, ptr, idx) = match out[k] {
                    FOp::R(ROp::Load { ty, ptr, idx, .. }) => (false, ty, ptr, idx),
                    FOp::R(ROp::Store { ty, ptr, idx, .. }) => (true, ty, ptr, idx),
                    _ => return,
                };
                at[k] = Some(sites.get(&ptr).map(|&site| Access {
                    site,
                    store,
                    ty,
                    idx: st.regs[idx as usize].clone(),
                    facts: st.facts.clone(),
                    decided: st.decided.clone(),
                }));
            });
            let analysable = at.iter().all(|a| !matches!(a, Some(None)));
            let accesses: Vec<Access> = at.into_iter().flatten().flatten().collect();
            let mut checks = Vec::new();
            if barrier.is_some() {
                // An entry value taken as uniform is checked where a form
                // leans on it, directly or through a symbol derived from it.
                let mut used = cx.entry_deps.borrow().clone();
                for a in &accesses {
                    let forms = (a.idx.iter().map(|f| &**f)).chain(a.facts.iter().map(|f| &f.f));
                    used.extend(forms.flat_map(|f| &f.0).flat_map(|(m, _)| m).filter_map(
                        |s| match s {
                            Sym::Entry(r) => Some(*r),
                            _ => None,
                        },
                    ));
                }
                used.sort_unstable();
                used.dedup();
                checks = used
                    .into_iter()
                    .filter(|&r| writes[r as usize] > 0)
                    .collect();
            }
            let mut pairs = Vec::new();
            for w in accesses.iter().filter(|a| a.store) {
                for x in &accesses {
                    if w.decided.iter().any(|&(b, t)| x.decided.contains(&(b, !t))) {
                        continue;
                    }
                    pairs.push(Pair {
                        store_site: w.site,
                        other_site: x.site,
                        other_store: x.store,
                        check: (w.site == x.site && w.ty == x.ty)
                            .then(|| Check::of(w, x))
                            .flatten(),
                    });
                }
            }
            Region {
                entry_flat: e,
                analysable,
                pairs,
                checks,
            }
        })
        .collect()
}

/// The successors of flat op `k`, each with whether it is the taken edge
/// of a jump. A barrier ends a region unless `through_barriers`.
fn successors(
    out: &[FOp],
    k: usize,
    through_barriers: bool,
) -> impl Iterator<Item = (usize, bool)> {
    let (taken, next) = match &out[k] {
        FOp::Done => (None, None),
        FOp::R(ROp::Barrier) if !through_barriers => (None, None),
        FOp::R(ROp::Jmp { t }) => (Some(*t as usize), None),
        FOp::R(
            ROp::Jz { t, .. } | ROp::Jnz { t, .. } | ROp::JcI { t, .. } | ROp::JcF { t, .. },
        ) => (Some(*t as usize), Some(k + 1)),
        _ => (None, Some(k + 1)),
    };
    let n = out.len();
    let taken = taken.map(|t| (t, true));
    let next = next.map(|s| (s, false));
    taken.into_iter().chain(next).filter(move |&(s, _)| s < n)
}

/// Which ops lie on a barrier-free cycle, and so may run more than once
/// per item per phase: the members of the non-trivial strongly connected
/// components of the flow graph with barrier edges cut (Tarjan's
/// algorithm, one pass, iterative).
fn on_cycles(out: &[FOp]) -> Vec<bool> {
    const UNSEEN: u32 = u32::MAX;
    let n = out.len();
    let (mut index, mut low) = (vec![UNSEEN; n], vec![0u32; n]);
    let mut on_stack = vec![false; n];
    let mut cyclic = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    // The depth-first path: each op with how many successors it has tried.
    let mut path: Vec<(usize, usize)> = Vec::new();
    let mut next = 0u32;
    for root in 0..n {
        if index[root] != UNSEEN {
            continue;
        }
        path.push((root, 0));
        while let Some(&(v, tried)) = path.last() {
            if index[v] == UNSEEN {
                (index[v], low[v]) = (next, next);
                next += 1;
                on_stack[v] = true;
                stack.push(v);
            }
            match successors(out, v, false).nth(tried) {
                Some((s, _)) => {
                    path.last_mut().expect("on the path").1 += 1;
                    if s == v {
                        cyclic[v] = true;
                    } else if index[s] == UNSEEN {
                        path.push((s, 0));
                    } else if on_stack[s] {
                        low[v] = low[v].min(index[s]);
                    }
                }
                None => {
                    path.pop();
                    if let Some(&(u, _)) = path.last() {
                        low[u] = low[u].min(low[v]);
                    }
                    if low[v] == index[v] {
                        let at = stack.iter().rposition(|&s| s == v).expect("on the stack");
                        let scc = stack.split_off(at);
                        for &s in &scc {
                            on_stack[s] = false;
                            cyclic[s] |= scc.len() > 1;
                        }
                    }
                }
            }
        }
    }
    cyclic
}

/// How each register reads at a barrier region's entry (see [`Role`]).
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
        for (s, _) in successors(out, k, true) {
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
    /// Ops that start a block: the kernel entry, every region entry, every
    /// jump target and every op after a jump. The fixpoint keeps states
    /// at these only and walks the straight-line code in between.
    head: Vec<bool>,
    /// Entry registers a [`Sym::Def`] or a decided branch leans on:
    /// uniform only if they are.
    entry_deps: std::cell::RefCell<Vec<u16>>,
}

impl Cx<'_> {
    /// Record that the analysis takes these values as uniform: the entry
    /// registers among their symbols are checked per strip.
    fn lean_on<'v>(&self, vals: impl Iterator<Item = &'v Reg>) {
        let mut deps = self.entry_deps.borrow_mut();
        for s in vals.flatten().flat_map(|f| &f.0).flat_map(|(m, _)| m) {
            if let Sym::Entry(e) = s {
                deps.push(*e);
            }
        }
    }

    /// Does the block that holds op `k` end with it?
    fn ends_block(&self, k: usize) -> bool {
        target_of(&self.out[k]).is_some()
            || matches!(self.out[k], FOp::Done | FOp::R(ROp::Barrier))
            || self.head.get(k + 1).is_none_or(|&h| h)
    }

    /// Forward fixpoint over the region from `entry`, block by block; every
    /// op the region reaches is visited with its in-state each time its
    /// block is walked, the last time with the converged one (a head whose
    /// state changes is walked again).
    fn fixpoint(&self, entry: usize, init: State, mut visit: impl FnMut(usize, &State)) {
        let mut states: Vec<Option<State>> = vec![None; self.out.len()];
        states[entry] = Some(init);
        let mut work = vec![entry];
        while let Some(h) = work.pop() {
            let Some(mut after) = states[h].clone() else {
                continue;
            };
            let mut k = h;
            visit(k, &after);
            self.step(k, &mut after);
            while !self.ends_block(k) {
                k += 1;
                visit(k, &after);
                self.step(k, &mut after);
            }
            for (s, taken) in successors(self.out, k, false) {
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
                let uniform = cond.iter().all(|&x| {
                    after.regs[x as usize]
                        .as_ref()
                        .is_some_and(|f| f.is_uniform())
                });
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
            Some(Form::sym(Sym::Def(k as u32)))
        };
        let mul = |st: &State, x: u16, y: u16| r(st, x).zip(r(st, y)).and_then(|(x, y)| x.mul(&y));
        let value: Option<(u16, AVal)> = match op {
            FOp::CopyArgs { dst, src, n } => {
                let vals: Vec<Reg> = (0..*n).map(|j| r(st, src + j)).collect();
                for (j, v) in vals.into_iter().enumerate() {
                    st.regs[*dst as usize + j] = v;
                }
                return;
            }
            FOp::ZeroLocals { at, n } => {
                let zero = Rc::new(Form::konst(0));
                for j in 0..*n {
                    st.regs[(at + j) as usize] = Some(zero.clone());
                }
                return;
            }
            FOp::R(Mov { dst, src }) => {
                st.regs[*dst as usize] = r(st, *src);
                return;
            }
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
            FOp::R(MulI { dst, a, b }) => {
                Some((*dst, mul(st, *a, *b).or_else(|| opaque(st, &[*a, *b]))))
            }
            FOp::R(MadI { dst, a, b, c }) => {
                let v = mul(st, *a, *b)
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
            // Loads and float arithmetic: unknown.
            FOp::R(
                Load { dst, .. }
                | AddF { dst, .. }
                | SubF { dst, .. }
                | MulF { dst, .. }
                | DivF { dst, .. }
                | Mad { dst, .. }
                | MadRF { dst, .. }
                | Math1 { dst, .. }
                | Math2F { dst, .. }
                | I2F { dst, .. }
                | F2I { dst, .. },
            ) => Some((*dst, None)),
            FOp::R(BNot { dst, src } | LNot { dst, src } | AbsI { dst, src }) => {
                Some((*dst, opaque(st, &[*src])))
            }
            FOp::R(Id { b, dst, src }) => {
                let dim = r(st, *src).and_then(|a| a.as_const());
                let v = match dim {
                    Some(d) if (0..3).contains(&d) => {
                        let d = d as u8;
                        match b {
                            Builtin::GetLocalId => Some(Form::sym(Sym::Lid(d))),
                            Builtin::GetGlobalId => {
                                Form::sym(Sym::Lid(d)).add(&Form::sym(Sym::GidBase(d)), 1)
                            }
                            Builtin::GetGroupId => Some(Form::sym(Sym::Grp(d))),
                            Builtin::GetGlobalSize => Some(Form::sym(Sym::GSize(d))),
                            Builtin::GetLocalSize => Some(Form::sym(Sym::LSize(d))),
                            Builtin::GetNumGroups => Some(Form::sym(Sym::NGroups(d))),
                            _ => Some(Form::konst(0)),
                        }
                    }
                    // The lowering's out-of-range reading: ids 0, sizes 1.
                    Some(_) => Some(Form::konst(matches!(
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
            Some((dst, v)) => st.regs[dst as usize] = v.map(Rc::new),
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

/// The fact `x cmp y`, normalised to `f ≤ 0` / `f = 0`, if it is about
/// `±lid0`.
fn fact(cmp: Cmp, x: &Form, y: &Form) -> Option<Fact> {
    let d = x.add(y, -1)?;
    let (f, eq) = match cmp {
        Cmp::Lt => (d.add(&Form::konst(1), 1)?, false),
        Cmp::Le => (d, false),
        Cmp::Gt => (d.scale(-1)?.add(&Form::konst(1), 1)?, false),
        Cmp::Ge => (d.scale(-1)?, false),
        Cmp::Eq => (d, true),
        Cmp::Ne => return None,
    };
    matches!(f.split().0.as_const(), Some(1 | -1)).then_some(Fact { f, eq })
}

/// An interval bound this large stands for infinity.
const INF: i128 = 1 << 100;

/// What one dispatch fixes about the symbols.
struct Bind<'a> {
    template: &'a [RVal],
    /// Entry registers checked per strip: not fixed by the template.
    checks: &'a [u16],
    geo: &'a Geometry,
}

impl Bind<'_> {
    /// The symbol's value, when the dispatch fixes it.
    fn value(&self, s: Sym) -> Option<i64> {
        let g = self.geo;
        let v = match s {
            Sym::Entry(r) if !self.checks.contains(&r) => {
                return Some(self.template[r as usize].i())
            }
            Sym::GSize(d) => g.global_size[d as usize],
            Sym::LSize(d) => g.local_size[d as usize],
            Sym::NGroups(d) => g.num_groups[d as usize],
            _ => return None,
        };
        i64::try_from(v).ok()
    }

    /// The symbol's range over the strips of the dispatch.
    fn range(&self, s: Sym) -> (i128, i128) {
        let g = self.geo;
        let top = |v: usize| (v as i128).saturating_sub(1).max(0);
        match s {
            Sym::Lid(d) => (0, top(g.local_size[d as usize])),
            Sym::Grp(d) => (0, top(g.num_groups[d as usize])),
            Sym::GidBase(d) => (
                0,
                top(g.num_groups[d as usize]) * g.local_size[d as usize] as i128,
            ),
            _ => (-INF, INF),
        }
    }

    /// The range of `Σ kᵢ·fᵢ` over the strips of the dispatch, for uniform
    /// forms `fᵢ` (at most three), monomial by monomial: like terms of the
    /// parts merge first, so `s − 1` against `−s` cancels. Bounds at
    /// `±INF` stand for unbounded.
    fn interval_of(&self, parts: &[(i128, &Form)]) -> (i128, i128) {
        let clamp = |v: i128| v.clamp(-INF, INF);
        let mut at = [0usize; 3];
        let (mut lo, mut hi) = (0i128, 0i128);
        loop {
            let next = parts
                .iter()
                .zip(&at)
                .filter_map(|((_, f), &i)| f.0.get(i).map(|t| t.0))
                .min();
            let Some(m) = next else { break };
            let mut c = 0i128;
            for ((k, f), i) in parts.iter().zip(at.iter_mut()) {
                if let Some(&(tm, tc)) = f.0.get(*i) {
                    if tm == m {
                        c = clamp(c.saturating_add(k.saturating_mul(tc as i128)));
                        *i += 1;
                    }
                }
            }
            let (mut tlo, mut thi) = (c, c);
            for &s in m.iter().filter(|&&s| s != Sym::One) {
                let (slo, shi) = match self.value(s) {
                    Some(v) => (v as i128, v as i128),
                    None => self.range(s),
                };
                let ends = [
                    tlo.saturating_mul(slo),
                    tlo.saturating_mul(shi),
                    thi.saturating_mul(slo),
                    thi.saturating_mul(shi),
                ];
                tlo = clamp(*ends.iter().min().expect("four ends"));
                thi = clamp(*ends.iter().max().expect("four ends"));
            }
            lo = clamp(lo.saturating_add(tlo));
            hi = clamp(hi.saturating_add(thi));
        }
        (lo, hi)
    }

    /// The value of a uniform form the dispatch fixes.
    fn exact(&self, f: &Form) -> Option<i64> {
        match self.interval_of(&[(1, f)]) {
            (lo, hi) if lo == hi && lo.abs() < INF => i64::try_from(lo).ok(),
            _ => None,
        }
    }
}

/// Can `c·δ + r = 0` hold for some `δ` in `±[1, w1]` and `r` in `range`?
fn may_meet(c: i128, (lo, hi): (i128, i128), w1: i128) -> bool {
    let m = c.abs();
    if m == 0 {
        return lo <= 0 && 0 <= hi;
    }
    if lo == hi && lo.abs() < INF {
        return lo != 0 && lo % m == 0 && (lo / m).abs() <= w1;
    }
    let hits = |a: i128, b: i128| lo <= b && a <= hi;
    hits(m, w1 * m) || hits(-w1 * m, -m)
}

impl Region {
    /// Can no two lanes of one strip of `width` lanes touch one element in
    /// this region, one of the two accesses a store, with these resolved
    /// sites, this template and this group shape? `Err` names the first
    /// thing that could not be discharged.
    pub(super) fn race_free(
        &self,
        sites: &[Site],
        template: &[RVal],
        geo: &Geometry,
        width: usize,
    ) -> Result<(), StripReject> {
        if width <= 1 {
            return Ok(());
        }
        if !self.analysable {
            return Err(StripReject::DynamicPointer);
        }
        let bind = Bind {
            template,
            checks: &self.checks,
            geo,
        };
        let memory = |site: u32| {
            let s = &sites[site as usize];
            matches!(s.kind, SiteKind::Global | SiteKind::Local)
                .then_some((s.kind == SiteKind::Local, s.slot))
        };
        for pair in &self.pairs {
            let Some((local, slot)) = memory(pair.store_site) else {
                continue;
            };
            if memory(pair.other_site) != Some((local, slot)) {
                continue;
            }
            let w1 = width as i128 - 1;
            if !pair.check.as_ref().is_some_and(|c| c.apart(&bind, w1)) {
                return Err(StripReject::Race {
                    local,
                    slot,
                    store: pair.other_store,
                });
            }
        }
        Ok(())
    }

    /// Do the entry registers the forms take as uniform hold one value in
    /// every lane of a strip? (Only the lanes of one strip interleave.)
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

impl Check {
    /// The strip question for store `w` and access `x` of one site and
    /// element type, as far as the forms take it; `None` where an index
    /// is unknown.
    fn of(w: &Access, x: &Access) -> Option<Check> {
        let (a, rw) = w.idx.as_ref()?.split();
        let (b, rx) = x.idx.as_ref()?.split();
        let d = rw.add(&rx, -1)?;
        let own = w.idx == x.idx && a.as_const().is_some_and(|c| c != 0);
        let (ups_w, lows_w, pin_store) = lane_bounds(&w.facts);
        let (ups_x, lows_x, pin_other) = lane_bounds(&x.facts);
        // Every item of a group has `0 ≤ lid0 ≤ get_local_size(0) − 1`.
        let top = Form::sym(Sym::LSize(0)).add(&Form::konst(1), -1)?;
        let ends = |ups: Vec<Form>, lows: Vec<Form>, pin: &Option<Form>| match pin {
            Some(p) => (vec![p.clone()], vec![p.clone()]),
            None => {
                let mut ups: Vec<Form> = ups.into_iter().take(3).collect();
                let mut lows: Vec<Form> = lows.into_iter().take(3).collect();
                ups.push(top.clone());
                lows.push(Form::konst(0));
                (ups, lows)
            }
        };
        Some(Check {
            own,
            one_lane: pin_store.is_some() && pin_store == pin_other,
            store_ends: ends(ups_w, lows_w, &pin_store),
            other_ends: ends(ups_x, lows_x, &pin_other),
            pin_store,
            pin_other,
            a,
            b,
            d,
        })
    }

    /// Are the two accesses apart between any two lanes `p ≠ q` of one
    /// strip, `|lidₚ − lid_q| ≤ w1`, in this dispatch?
    fn apart(&self, bind: &Bind<'_>, w1: i128) -> bool {
        let (Some(a), Some(b)) = (bind.exact(&self.a), bind.exact(&self.b)) else {
            return false;
        };
        if self.own || self.one_lane {
            return true;
        }
        let (a, b) = (a as i128, b as i128);
        let d = &self.d;
        // (1) E as c·δ + r over the lane distance δ: δ = lidₚ − lid_q when
        // a = b; with the store pinned to p, lid_q = p + δ; with the other
        // access pinned to p, lidₚ = p + δ. Then r = (a − b)·p + d.
        let rest = |p: &Form| bind.interval_of(&[(a - b, p), (1, d)]);
        if (a == b && !may_meet(a, bind.interval_of(&[(1, d)]), w1))
            || self
                .pin_store
                .as_ref()
                .is_some_and(|p| !may_meet(-b, rest(p), w1))
            || self
                .pin_other
                .as_ref()
                .is_some_and(|p| !may_meet(a, rest(p), w1))
        {
            return true;
        }
        // (2) The ranges: E over the lanes' bounds, symbolically, with
        // lidₚ at an upper bound and lid_q at a lower one for a maximum
        // (the other way round for a negative a or b), below 0; or a
        // minimum above 0.
        let (w_up, w_low) = &self.store_ends;
        let (x_up, x_low) = &self.other_ends;
        let e = |u: &Form, v: &Form| bind.interval_of(&[(a, u), (-b, v), (1, d)]);
        let pick = |up, lo, hi_side: bool| if hi_side { up } else { lo };
        let max_u = pick(w_up, w_low, a > 0);
        let max_v = pick(x_low, x_up, b > 0);
        let min_u = pick(w_low, w_up, a > 0);
        let min_v = pick(x_up, x_low, b > 0);
        max_u.iter().any(|u| max_v.iter().any(|v| e(u, v).1 < 0))
            || min_u.iter().any(|u| min_v.iter().any(|v| e(u, v).0 > 0))
    }
}
