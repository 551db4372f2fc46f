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
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
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

/// A term `c·m` of a form.
type Term = (Mono, i64);

/// A form, by its place in the [`Forms`] table.
type F = u32;

/// An abstract integer register: a form, or `None` (unknown).
type Reg = Option<F>;

/// Every form one lowering builds. A form is `Σ c·m` over monomials `m`,
/// sorted, no zero coefficient, with `lid0` at most once per monomial.
/// Forms are appended and never changed, so a register, a fact or a check
/// holds a `u32`, and building a form allocates nothing of its own. Two
/// ids may name equal forms: compare them with [`Forms::same`].
#[derive(Debug, Clone, Default)]
pub(super) struct Forms {
    terms: Vec<Term>,
    /// Each form's `start..end` in `terms`.
    spans: Vec<(u32, u32)>,
}

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

impl Forms {
    fn terms(&self, f: F) -> &[Term] {
        let (start, end) = self.spans[f as usize];
        &self.terms[start as usize..end as usize]
    }

    /// Do `f` and `g` name one form?
    fn same(&self, f: F, g: F) -> bool {
        f == g || self.terms(f) == self.terms(g)
    }

    /// The form of the terms `fill` appends: sorted, merged, zero terms
    /// dropped; `None` (and nothing kept) on overflow or blow-up.
    fn build(&mut self, fill: impl FnOnce(&mut Forms) -> Option<()>) -> Option<F> {
        let start = self.terms.len();
        let len = fill(self).and_then(|()| {
            let tail = &mut self.terms[start..];
            tail.sort_unstable_by_key(|t| t.0);
            let mut n = 0;
            for k in 0..tail.len() {
                if n > 0 && tail[n - 1].0 == tail[k].0 {
                    tail[n - 1].1 = tail[n - 1].1.checked_add(tail[k].1)?;
                } else {
                    tail[n] = tail[k];
                    n += 1;
                }
            }
            let mut kept = 0;
            for k in 0..n {
                if tail[k].1 != 0 {
                    tail[kept] = tail[k];
                    kept += 1;
                }
            }
            (kept <= MAX_TERMS).then_some(kept)
        });
        let Some(len) = len else {
            self.terms.truncate(start);
            return None;
        };
        self.terms.truncate(start + len);
        self.spans.push((start as u32, (start + len) as u32));
        Some(self.spans.len() as F - 1)
    }

    /// Append `f`'s terms, each through `map`.
    fn push_from(&mut self, f: F, map: impl Fn(Term) -> Option<Term>) -> Option<()> {
        let (start, end) = self.spans[f as usize];
        for k in start..end {
            let t = map(self.terms[k as usize])?;
            self.terms.push(t);
        }
        Some(())
    }

    fn konst(&mut self, k: i64) -> F {
        self.build(|fs| {
            fs.terms.push((UNIT, k));
            Some(())
        })
        .expect("one term")
    }

    fn sym(&mut self, s: Sym) -> F {
        self.build(|fs| {
            fs.terms.push(([s, Sym::One, Sym::One], 1));
            Some(())
        })
        .expect("one term")
    }

    fn is_uniform(&self, f: F) -> bool {
        self.terms(f).iter().all(|(m, _)| m[0] != LANE)
    }

    fn as_const(&self, f: F) -> Option<i64> {
        match self.terms(f) {
            [] => Some(0),
            [(m, k)] if *m == UNIT => Some(*k),
            _ => None,
        }
    }

    /// `f + sign·g`.
    fn add(&mut self, f: F, g: F, sign: i64) -> Option<F> {
        self.build(|fs| {
            fs.push_from(f, Some)?;
            fs.push_from(g, |(m, c)| Some((m, c.checked_mul(sign)?)))
        })
    }

    fn scale(&mut self, f: F, c: i64) -> Option<F> {
        self.build(|fs| fs.push_from(f, |(m, v)| Some((m, v.checked_mul(c)?))))
    }

    fn mul(&mut self, f: F, g: F) -> Option<F> {
        let ((f0, f1), (g0, g1)) = (self.spans[f as usize], self.spans[g as usize]);
        self.build(|fs| {
            for i in f0..f1 {
                for j in g0..g1 {
                    let ((mx, cx), (my, cy)) = (fs.terms[i as usize], fs.terms[j as usize]);
                    fs.terms.push((mono_mul(&mx, &my)?, cx.checked_mul(cy)?));
                }
            }
            Some(())
        })
    }

    /// `(coefficient of lid0, the rest)`, both uniform.
    fn split(&mut self, f: F) -> (F, F) {
        let lane = self.build(|fs| fs.push_part(f, true));
        let rest = self.build(|fs| fs.push_part(f, false));
        (
            lane.expect("a part of a form"),
            rest.expect("a part of a form"),
        )
    }

    /// Append `f`'s terms in `lid0` with `lid0` divided out (`lane`), or
    /// its terms free of `lid0`.
    fn push_part(&mut self, f: F, lane: bool) -> Option<()> {
        let (start, end) = self.spans[f as usize];
        for k in start..end {
            let (m, c) = self.terms[k as usize];
            match (m[0] == LANE, lane) {
                (true, true) => self.terms.push(([m[1], m[2], Sym::One], c)),
                (false, false) => self.terms.push((m, c)),
                _ => {}
            }
        }
        Some(())
    }

    /// The coefficient of `lid0` in `f`, when it is a constant.
    fn lane_const(&self, f: F) -> Option<i64> {
        let mut lane = self.terms(f).iter().filter(|(m, _)| m[0] == LANE);
        match (lane.next(), lane.next()) {
            (None, _) => Some(0),
            (Some(([_, Sym::One, Sym::One], c)), None) => Some(*c),
            _ => None,
        }
    }

    /// The entry registers among `f`'s symbols.
    fn entries(&self, f: F) -> impl Iterator<Item = u16> + '_ {
        self.terms(f)
            .iter()
            .flat_map(|(m, _)| m)
            .filter_map(|s| match s {
                Sym::Entry(r) => Some(*r),
                _ => None,
            })
    }
}

/// `f = 0` when `eq`, else `f ≤ 0`, with `f = ±lid0 + r`: only such facts
/// are kept (the rule uses nothing else).
#[derive(Debug, Clone, Copy)]
struct Fact {
    f: F,
    eq: bool,
}

/// Does `facts` hold `fact`?
fn has_fact(forms: &Forms, facts: &[Fact], fact: &Fact) -> bool {
    facts
        .iter()
        .any(|g| g.eq == fact.eq && forms.same(g.f, fact.f))
}

/// What the facts say about `lid0`: upper bounds (`lid0 ≤ u`), lower
/// bounds (`lid0 ≥ l`) and a pin (`lid0 = v`), each a uniform form.
fn lane_bounds(forms: &mut Forms, facts: &[Fact]) -> (Vec<F>, Vec<F>, Option<F>) {
    let (mut ups, mut lows, mut pin) = (Vec::new(), Vec::new(), None);
    for fact in facts {
        // c·lid0 + r (≤ | =) 0.
        let Some(c) = forms.lane_const(fact.f) else {
            continue;
        };
        let r = forms
            .build(|fs| fs.push_part(fact.f, false))
            .expect("a part of a form");
        let Some(bound) = forms.scale(r, -c) else {
            continue;
        };
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

/// The abstract machine state at one instruction. Facts and decided
/// branches change only on some edges, so states share them.
#[derive(Debug, Clone)]
struct State {
    regs: Vec<Reg>,
    facts: Rc<Vec<Fact>>,
    /// Uniform branches every path here took, and which way: flat op and
    /// `taken`. Such a branch runs at most once per item per phase, and
    /// goes one way for every lane, so two accesses whose paths decide it
    /// differently never meet in one strip.
    decided: Rc<Vec<(u32, bool)>>,
}

impl State {
    /// Keep what `other` agrees with; report whether anything changed.
    fn join(&mut self, other: &State, forms: &Forms) -> bool {
        let mut changed = false;
        for (r, o) in self.regs.iter_mut().zip(&other.regs) {
            if let Some(f) = *r {
                if !o.is_some_and(|g| forms.same(f, g)) {
                    *r = None;
                    changed = true;
                }
            }
        }
        if self.facts.iter().any(|f| !has_fact(forms, &other.facts, f)) {
            Rc::make_mut(&mut self.facts).retain(|f| has_fact(forms, &other.facts, f));
            changed = true;
        }
        if self.decided.iter().any(|d| !other.decided.contains(d)) {
            Rc::make_mut(&mut self.decided).retain(|d| other.decided.contains(d));
            changed = true;
        }
        changed
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
    facts: Rc<Vec<Fact>>,
    decided: Rc<Vec<(u32, bool)>>,
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
    /// The lane side of each access with a modelled index, which the
    /// pairs' checks refer to by position.
    sides: Vec<Side>,
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

/// One access's index as `a·lid0 + A`, with what its facts and the group
/// say about its lane.
#[derive(Debug, Clone)]
struct Side {
    a: F,
    /// `A`.
    rest: F,
    /// A `lid0 = p` fact pinning the access.
    pin: Option<F>,
    /// Upper and lower bounds on the lane: the facts' and the group's.
    ends: (Vec<F>, Vec<F>),
}

/// The strip question for one pair, in forms the dispatch only evaluates.
/// With the store at `a·lid0 + A` and the other access at `b·lid0 + B`
/// (its two [`Side`]s), two lanes `p ≠ q` meet where
/// `E = a·lidₚ − b·lid_q + d` is 0.
#[derive(Debug, Clone)]
struct Check {
    /// The store's side and the other access's, in the region's `sides`.
    store: u32,
    other: u32,
    /// `d = A − B`.
    d: F,
    /// The two indices are one form with a fixed nonzero `a`: each lane
    /// its own element, whatever the binding.
    own: bool,
    /// Both accesses are pinned to one and the same lane.
    one_lane: bool,
}

/// Analyse every region of `out`: the one at `entry` and one after each
/// barrier, with the forms their checks name. `sites` maps a pointer
/// register to its site index; `known` and `writes` are the lowering's
/// constant and write-count tables.
pub(super) fn analyse(
    out: &[FOp],
    entry: usize,
    sites: &HashMap<u16, u32>,
    known: &[Option<RVal>],
    writes: &[u32],
) -> (Vec<Region>, Forms) {
    let mut entries = vec![(entry, None)];
    for (k, op) in out.iter().enumerate() {
        if matches!(op, FOp::R(ROp::Barrier)) {
            entries.push((k + 1, Some(k)));
        }
    }
    // Only a barrier region's entry values depend on the previous phase.
    let (roles, assigned) = if entries.len() > 1 {
        let roles = entry_roles(out, known, writes);
        let assigned = Assigned::of(out, entry, &roles);
        (roles, assigned)
    } else {
        (Vec::new(), Assigned::default())
    };
    let head = block_heads(out, &[entry]);
    let cx = Cx {
        out,
        on_cycle: &on_cycles(out),
        head,
        entry_deps: std::cell::RefCell::new(Vec::new()),
    };
    let mut site_of = vec![None; writes.len()];
    for (&ptr, &site) in sites {
        site_of[ptr as usize] = Some(site);
    }
    let mut forms = Forms::default();
    // Every register at a region entry: a constant, or its entry value.
    let entry_regs: Vec<Reg> = (0..writes.len())
        .map(|r| {
            Some(match known[r] {
                Some(v) => forms.konst(v.i()),
                None => forms.sym(Sym::Entry(r as u16)),
            })
        })
        .collect();
    // Every item of a group has `0 ≤ lid0 ≤ get_local_size(0) − 1`.
    let (size, one) = (forms.sym(Sym::LSize(0)), forms.konst(1));
    let top = forms.add(size, one, -1);
    let zero = forms.konst(0);
    let mut regions = Vec::with_capacity(entries.len());
    for (e, barrier) in entries {
        let mut regs = entry_regs.clone();
        // An id role holds where every path to the barrier wrote the
        // register; the kernel entry is the template.
        if let Some(b) = barrier {
            for (r, reg) in regs.iter_mut().enumerate() {
                if known[r].is_some() || writes[r] == 0 || !assigned.holds(b, r) {
                    continue;
                }
                *reg = match roles[r] {
                    Role::Uniform => continue,
                    Role::Lid(d) => Some(forms.sym(Sym::Lid(d))),
                    Role::Gid(d) => {
                        let (lid, base) = (forms.sym(Sym::Lid(d)), forms.sym(Sym::GidBase(d)));
                        forms.add(lid, base, 1)
                    }
                };
            }
        }
        cx.entry_deps.borrow_mut().clear();
        let init = State {
            regs,
            facts: Rc::default(),
            decided: Rc::default(),
        };
        // Per op, the access it makes, with the last state it was visited
        // with; `None` inside for a dynamic pointer.
        let mut at: Vec<Option<Option<Access>>> = vec![None; out.len()];
        cx.fixpoint(&mut forms, e, init, |k, st| {
            let (store, ty, ptr, idx) = match out[k] {
                FOp::R(ROp::Load { ty, ptr, idx, .. }) => (false, ty, ptr, idx),
                FOp::R(ROp::Store { ty, ptr, idx, .. }) => (true, ty, ptr, idx),
                _ => return,
            };
            at[k] = Some(site_of[ptr as usize].map(|site| Access {
                site,
                store,
                ty,
                idx: st.regs[idx as usize],
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
                for f in a.idx.iter().chain(a.facts.iter().map(|f| &f.f)) {
                    used.extend(forms.entries(*f));
                }
            }
            used.sort_unstable();
            used.dedup();
            checks = used
                .into_iter()
                .filter(|&r| writes[r as usize] > 0)
                .collect();
        }
        // Every store against every access that no uniform branch keeps
        // apart; only accesses of one site and element type get a check,
        // so only theirs need a side.
        let apart =
            |w: &Access, x: &Access| w.decided.iter().any(|&(b, t)| x.decided.contains(&(b, !t)));
        let mut checked = vec![false; accesses.len()];
        for (i, w) in accesses.iter().enumerate().filter(|(_, a)| a.store) {
            for (j, x) in accesses.iter().enumerate() {
                if !apart(w, x) && w.site == x.site && w.ty == x.ty {
                    (checked[i], checked[j]) = (true, true);
                }
            }
        }
        let mut sides = Vec::new();
        let side_of: Vec<Option<u32>> = accesses
            .iter()
            .zip(&checked)
            .map(|(a, &checked)| {
                let side = Side::of(&mut forms, a, top.filter(|_| checked)?, zero)?;
                sides.push(side);
                Some(sides.len() as u32 - 1)
            })
            .collect();
        let mut pairs = Vec::new();
        for (w, &ws) in accesses.iter().zip(&side_of).filter(|(a, _)| a.store) {
            for (x, &xs) in accesses.iter().zip(&side_of) {
                if apart(w, x) {
                    continue;
                }
                let check = match (ws, xs) {
                    (Some(ws), Some(xs)) if w.site == x.site && w.ty == x.ty => {
                        Check::of(&mut forms, w, ws, x, xs, &sides)
                    }
                    _ => None,
                };
                pairs.push(Pair {
                    store_site: w.site,
                    other_site: x.site,
                    other_store: x.store,
                    check,
                });
            }
        }
        regions.push(Region {
            entry_flat: e,
            analysable,
            pairs,
            sides,
            checks,
        });
    }
    (regions, forms)
}

/// Which ops start a basic block: each of `entries`, every jump target,
/// and every op after a jump, a barrier or a `Done`.
pub(super) fn block_heads(out: &[FOp], entries: &[usize]) -> Vec<bool> {
    let mut head = vec![false; out.len()];
    for &e in entries {
        head[e] = true;
    }
    for (k, op) in out.iter().enumerate() {
        let jump = target_of(op);
        if let Some(t) = jump {
            head[t as usize] = true;
        }
        if jump.is_some() || matches!(op, FOp::Done | FOp::R(ROp::Barrier)) {
            if let Some(next) = head.get_mut(k + 1) {
                *next = true;
            }
        }
    }
    head
}

/// The successors of flat op `k`, each with whether it is the taken edge
/// of a jump. A barrier ends a region unless `through_barriers`.
pub(super) fn successors(
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
                for w in op_regs(op).written() {
                    uniform[w as usize] = true;
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
/// to it has written (barriers are ordinary edges here): one row of flags
/// per op over the id-role registers alone.
#[derive(Default)]
struct Assigned {
    /// Each register's column, if it has an id role.
    col: Vec<Option<usize>>,
    cols: usize,
    rows: Vec<bool>,
}

impl Assigned {
    fn of(out: &[FOp], entry: usize, roles: &[Role]) -> Assigned {
        let mut col = vec![None; roles.len()];
        let mut cols = 0;
        for (r, role) in roles.iter().enumerate() {
            if *role != Role::Uniform {
                col[r] = Some(cols);
                cols += 1;
            }
        }
        let n = out.len();
        let mut rows = vec![false; n * cols];
        let mut seen = vec![false; n];
        seen[entry] = true;
        let mut work = vec![entry];
        let mut after = vec![false; cols];
        while let Some(k) = work.pop() {
            after.copy_from_slice(&rows[k * cols..(k + 1) * cols]);
            if let FOp::R(ROp::Id { dst, .. }) = &out[k] {
                if let Some(c) = col[*dst as usize] {
                    after[c] = true;
                }
            }
            for (s, _) in successors(out, k, true) {
                let have = &mut rows[s * cols..(s + 1) * cols];
                if !seen[s] {
                    seen[s] = true;
                    have.copy_from_slice(&after);
                    work.push(s);
                } else if have.iter().zip(&after).any(|(h, a)| *h && !*a) {
                    for (h, a) in have.iter_mut().zip(&after) {
                        *h &= *a;
                    }
                    work.push(s);
                }
            }
        }
        Assigned { col, cols, rows }
    }

    /// Has every path from the entry to op `k` written register `r`?
    fn holds(&self, k: usize, r: usize) -> bool {
        self.col[r].is_some_and(|c| self.rows[k * self.cols + c])
    }
}

struct Cx<'a> {
    out: &'a [FOp],
    on_cycle: &'a [bool],
    /// Ops that start a block ([`block_heads`]). The fixpoint keeps
    /// states at these only and walks the straight-line code in between.
    head: Vec<bool>,
    /// Entry registers a [`Sym::Def`] or a decided branch leans on:
    /// uniform only if they are.
    entry_deps: std::cell::RefCell<Vec<u16>>,
}

impl Cx<'_> {
    /// Record that the analysis takes these values as uniform: the entry
    /// registers among their symbols are checked per strip.
    fn lean_on(&self, forms: &Forms, vals: impl Iterator<Item = Reg>) {
        let mut deps = self.entry_deps.borrow_mut();
        for f in vals.flatten() {
            deps.extend(forms.entries(f));
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
    fn fixpoint(
        &self,
        forms: &mut Forms,
        entry: usize,
        init: State,
        mut visit: impl FnMut(usize, &State),
    ) {
        let mut states: Vec<Option<State>> = vec![None; self.out.len()];
        states[entry] = Some(init);
        // Heads to walk, lowest first, each queued once: forward code
        // settles before the loops that follow it are walked again.
        let mut queued = vec![false; self.out.len()];
        queued[entry] = true;
        let mut work = BinaryHeap::from([Reverse(entry)]);
        while let Some(Reverse(h)) = work.pop() {
            queued[h] = false;
            let Some(mut after) = states[h].clone() else {
                continue;
            };
            let mut k = h;
            visit(k, &after);
            self.step(forms, k, &mut after);
            while !self.ends_block(k) {
                k += 1;
                visit(k, &after);
                self.step(forms, k, &mut after);
            }
            let mut after = Some(after);
            let mut succ = successors(self.out, k, false).peekable();
            while let Some((s, taken)) = succ.next() {
                let mut next = match succ.peek() {
                    Some(_) => after.clone(),
                    None => after.take(),
                }
                .expect("the block's out-state");
                if let FOp::R(ROp::JcI { cmp, a, b, .. }) = &self.out[k] {
                    let cmp = if taken { *cmp } else { cmp_inv(*cmp) };
                    let (x, y) = (next.regs[*a as usize], next.regs[*b as usize]);
                    if let Some(f) = x.zip(y).and_then(|(x, y)| fact(forms, cmp, x, y)) {
                        Rc::make_mut(&mut next.facts).push(f);
                    }
                }
                let cond: &[u16] = match &self.out[k] {
                    FOp::R(ROp::JcI { a, b, .. } | ROp::JcF { a, b, .. }) => &[*a, *b],
                    FOp::R(ROp::Jz { c, .. } | ROp::Jnz { c, .. }) => std::slice::from_ref(c),
                    _ => &[],
                };
                let uniform = cond
                    .iter()
                    .all(|&x| next.regs[x as usize].is_some_and(|f| forms.is_uniform(f)));
                if !cond.is_empty() && uniform && !self.on_cycle[k] {
                    self.lean_on(forms, cond.iter().map(|&x| next.regs[x as usize]));
                    Rc::make_mut(&mut next.decided).push((k as u32, taken));
                }
                let grew = match &mut states[s] {
                    slot @ None => {
                        *slot = Some(next);
                        true
                    }
                    Some(have) => have.join(&next, forms),
                };
                if grew && !queued[s] {
                    queued[s] = true;
                    work.push(Reverse(s));
                }
            }
        }
    }

    /// Uniform operands, off every barrier-free cycle: a fresh symbol for
    /// the result of op `k`.
    fn opaque(&self, forms: &mut Forms, k: usize, st: &State, xs: &[u16]) -> Reg {
        let reg = |x: &u16| st.regs[*x as usize];
        if !xs
            .iter()
            .all(|x| reg(x).is_some_and(|f| forms.is_uniform(f)))
            || self.on_cycle[k]
        {
            return None;
        }
        self.lean_on(forms, xs.iter().map(reg));
        Some(forms.sym(Sym::Def(k as u32)))
    }

    /// The effect of flat op `k` on the abstract registers.
    fn step(&self, forms: &mut Forms, k: usize, st: &mut State) {
        use ROp::*;
        let op = &self.out[k];
        let r = |st: &State, x: u16| st.regs[x as usize];
        let value: Option<(u16, Reg)> = match op {
            FOp::CopyArgs { dst, src, n } => {
                let (src, dst, n) = (*src as usize, *dst as usize, *n as usize);
                st.regs.copy_within(src..src + n, dst);
                return;
            }
            FOp::ZeroLocals { at, n } => {
                let zero = forms.konst(0);
                for j in 0..*n {
                    st.regs[(at + j) as usize] = Some(zero);
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
                r(st, *a)
                    .zip(r(st, *b))
                    .and_then(|(x, y)| forms.add(x, y, 1)),
            )),
            FOp::R(SubI { dst, a, b }) => Some((
                *dst,
                r(st, *a)
                    .zip(r(st, *b))
                    .and_then(|(x, y)| forms.add(x, y, -1)),
            )),
            FOp::R(NegI { dst, src }) => Some((*dst, r(st, *src).and_then(|x| forms.scale(x, -1)))),
            FOp::R(MulI { dst, a, b }) => {
                let v = r(st, *a).zip(r(st, *b)).and_then(|(x, y)| forms.mul(x, y));
                Some((*dst, v.or_else(|| self.opaque(forms, k, st, &[*a, *b]))))
            }
            FOp::R(MadI { dst, a, b, c }) => {
                let v = r(st, *a)
                    .zip(r(st, *b))
                    .and_then(|(x, y)| forms.mul(x, y))
                    .zip(r(st, *c))
                    .and_then(|(p, c)| forms.add(p, c, 1));
                Some((*dst, v.or_else(|| self.opaque(forms, k, st, &[*a, *b, *c]))))
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
            ) => Some((*dst, self.opaque(forms, k, st, &[*a, *b]))),
            FOp::R(Math2I { dst, a, b2, .. }) => {
                Some((*dst, self.opaque(forms, k, st, &[*a, *b2])))
            }
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
                Some((*dst, self.opaque(forms, k, st, &[*src])))
            }
            FOp::R(Id { b, dst, src }) => {
                let dim = r(st, *src).and_then(|a| forms.as_const(a));
                let v = match dim {
                    Some(d) if (0..3).contains(&d) => {
                        let d = d as u8;
                        match b {
                            Builtin::GetLocalId => Some(forms.sym(Sym::Lid(d))),
                            Builtin::GetGlobalId => {
                                let lid = forms.sym(Sym::Lid(d));
                                let base = forms.sym(Sym::GidBase(d));
                                forms.add(lid, base, 1)
                            }
                            Builtin::GetGroupId => Some(forms.sym(Sym::Grp(d))),
                            Builtin::GetGlobalSize => Some(forms.sym(Sym::GSize(d))),
                            Builtin::GetLocalSize => Some(forms.sym(Sym::LSize(d))),
                            Builtin::GetNumGroups => Some(forms.sym(Sym::NGroups(d))),
                            _ => Some(forms.konst(0)),
                        }
                    }
                    // The lowering's out-of-range reading: ids 0, sizes 1.
                    Some(_) => Some(forms.konst(matches!(
                        b,
                        Builtin::GetGlobalSize | Builtin::GetLocalSize | Builtin::GetNumGroups
                    ) as i64)),
                    None => match b {
                        Builtin::GetLocalId | Builtin::GetGlobalId => None,
                        _ => self.opaque(forms, k, st, &[*src]),
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
                for w in op_regs(op).written() {
                    st.regs[w as usize] = None;
                }
            }
        }
    }
}

/// The fact `x cmp y`, normalised to `f ≤ 0` / `f = 0`, if it is about
/// `±lid0`.
fn fact(forms: &mut Forms, cmp: Cmp, x: F, y: F) -> Option<Fact> {
    let d = forms.add(x, y, -1)?;
    let (f, eq) = match cmp {
        Cmp::Lt => {
            let one = forms.konst(1);
            (forms.add(d, one, 1)?, false)
        }
        Cmp::Le => (d, false),
        Cmp::Gt => {
            let (neg, one) = (forms.scale(d, -1)?, forms.konst(1));
            (forms.add(neg, one, 1)?, false)
        }
        Cmp::Ge => (forms.scale(d, -1)?, false),
        Cmp::Eq => (d, true),
        Cmp::Ne => return None,
    };
    matches!(forms.lane_const(f), Some(1 | -1)).then_some(Fact { f, eq })
}

/// An interval bound this large stands for infinity.
const INF: i128 = 1 << 100;

/// What one dispatch fixes about the symbols.
struct Bind<'a> {
    forms: &'a Forms,
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
    fn interval_of(&self, parts: &[(i128, F)]) -> (i128, i128) {
        let clamp = |v: i128| v.clamp(-INF, INF);
        let terms: [&[Term]; 3] =
            std::array::from_fn(|p| parts.get(p).map_or(&[][..], |&(_, f)| self.forms.terms(f)));
        let mut at = [0usize; 3];
        let (mut lo, mut hi) = (0i128, 0i128);
        loop {
            let next = terms
                .iter()
                .zip(&at)
                .filter_map(|(f, &i)| f.get(i).map(|t| t.0))
                .min();
            let Some(m) = next else { break };
            let mut c = 0i128;
            for ((&(k, _), f), i) in parts.iter().zip(&terms).zip(at.iter_mut()) {
                if let Some(&(tm, tc)) = f.get(*i) {
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
    fn exact(&self, f: F) -> Option<i64> {
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
    /// sites, this template and this group shape? `forms` are the ones the
    /// analysis returned with the region. `Err` names the first thing that
    /// could not be discharged.
    pub(super) fn race_free(
        &self,
        forms: &Forms,
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
            forms,
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
            if !pair
                .check
                .as_ref()
                .is_some_and(|c| c.apart(&self.sides, &bind, w1))
            {
                return Err(StripReject::Race {
                    local,
                    slot,
                    store: pair.other_store,
                });
            }
        }
        Ok(())
    }

    /// The written entry registers this region's strips compare across
    /// lanes ([`Region::entry_holds`]).
    pub(super) fn checks(&self) -> &[u16] {
        &self.checks
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

impl Side {
    /// `a`'s side, where its index is modelled; `top` is the group's
    /// last lane, `get_local_size(0) − 1`, and `zero` its first.
    fn of(forms: &mut Forms, a: &Access, top: F, zero: F) -> Option<Side> {
        let (lane, rest) = forms.split(a.idx?);
        let (ups, lows, pin) = lane_bounds(forms, &a.facts);
        let ends = match pin {
            Some(p) => (vec![p], vec![p]),
            None => {
                let mut ups: Vec<F> = ups.into_iter().take(3).collect();
                let mut lows: Vec<F> = lows.into_iter().take(3).collect();
                ups.push(top);
                lows.push(zero);
                (ups, lows)
            }
        };
        Some(Side {
            a: lane,
            rest,
            pin,
            ends,
        })
    }
}

impl Check {
    /// The strip question for store `w` and access `x` of one site and
    /// element type, whose sides are `ws` and `xs` in `sides`.
    fn of(
        forms: &mut Forms,
        w: &Access,
        ws: u32,
        x: &Access,
        xs: u32,
        sides: &[Side],
    ) -> Option<Check> {
        let (sw, sx) = (&sides[ws as usize], &sides[xs as usize]);
        let same = |f: Option<F>, g: Option<F>| f.zip(g).is_some_and(|(f, g)| forms.same(f, g));
        let own = same(w.idx, x.idx) && forms.as_const(sw.a).is_some_and(|c| c != 0);
        let one_lane = same(sw.pin, sx.pin);
        Some(Check {
            store: ws,
            other: xs,
            d: forms.add(sw.rest, sx.rest, -1)?,
            own,
            one_lane,
        })
    }

    /// Are the two accesses apart between any two lanes `p ≠ q` of one
    /// strip, `|lidₚ − lid_q| ≤ w1`, in this dispatch?
    fn apart(&self, sides: &[Side], bind: &Bind<'_>, w1: i128) -> bool {
        let (sw, sx) = (&sides[self.store as usize], &sides[self.other as usize]);
        let (Some(a), Some(b)) = (bind.exact(sw.a), bind.exact(sx.a)) else {
            return false;
        };
        if self.own || self.one_lane {
            return true;
        }
        let (a, b) = (a as i128, b as i128);
        let d = self.d;
        // (1) E as c·δ + r over the lane distance δ: δ = lidₚ − lid_q when
        // a = b; with the store pinned to p, lid_q = p + δ; with the other
        // access pinned to p, lidₚ = p + δ. Then r = (a − b)·p + d.
        let rest = |p: F| bind.interval_of(&[(a - b, p), (1, d)]);
        if (a == b && !may_meet(a, bind.interval_of(&[(1, d)]), w1))
            || sw.pin.is_some_and(|p| !may_meet(-b, rest(p), w1))
            || sx.pin.is_some_and(|p| !may_meet(a, rest(p), w1))
        {
            return true;
        }
        // (2) The ranges: E over the lanes' bounds, symbolically, with
        // lidₚ at an upper bound and lid_q at a lower one for a maximum
        // (the other way round for a negative a or b), below 0; or a
        // minimum above 0.
        let (w_up, w_low) = &sw.ends;
        let (x_up, x_low) = &sx.ends;
        let e = |u: F, v: F| bind.interval_of(&[(a, u), (-b, v), (1, d)]);
        let pick = |up, lo, hi_side: bool| if hi_side { up } else { lo };
        let max_u: &Vec<F> = pick(w_up, w_low, a > 0);
        let max_v: &Vec<F> = pick(x_low, x_up, b > 0);
        let min_u: &Vec<F> = pick(w_low, w_up, a > 0);
        let min_v: &Vec<F> = pick(x_up, x_low, b > 0);
        max_u.iter().any(|&u| max_v.iter().any(|&v| e(u, v).1 < 0))
            || min_u.iter().any(|&u| min_v.iter().any(|&v| e(u, v).0 > 0))
    }
}
