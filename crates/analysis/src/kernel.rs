//! Kernel race (E001/E002) and bounds (E003) checking.
//!
//! Subscript expressions inside a kernel-actor behaviour are lowered to
//! *affine forms* — linear combinations of symbolic quantities
//! ([`Sym`]): work-item ids, group ids/sizes, settings scalars, loop
//! counters. Anything non-linear becomes an opaque symbol, about which
//! we claim nothing.
//!
//! **Race criterion.** A dispatch is race-free when every work-item
//! writes a distinct set of locations. For each written global buffer we
//! require that every *active* worksize dimension `d` (extent possibly
//! `> 1`) is matched by a distinct subscript position whose only
//! per-work-item content is `get_global_id(d)` (or `get_group_id(d)`
//! under a guard pinning `get_local_id(d)` to a constant). Dimensions
//! pinned by an equality guard (`if gid == 0`) are exempt. Distinct
//! writes to the same buffer must be pairwise identical or provably
//! disjoint. Reads of a written buffer (E002) must be the work-item's
//! own slot (syntactically identical subscripts) or provably disjoint
//! from every write: in some position the write−read difference —
//! uniform symbols cancelling, per-item symbols treated as independent —
//! is strictly positive or strictly negative.
//!
//! **Bounds criterion.** Only *provable* violations are flagged: the
//! subscript's maximum over all symbol ranges (worksize extents, loop
//! bounds, `i < bound` guards) meets or exceeds a known array extent, or
//! its minimum is provably negative.
//!
//! Known holes, deliberate for v1: work-group `local` arrays are not
//! race-checked (their cross-item protocols rely on `barrier()` phases
//! we do not model), and injectivity is only sought position-wise (an
//! injective map smeared across subscripts, e.g. `[gid0+gid1][gid1]`,
//! is flagged as a potential race).

use ensemble_lang::ast::{BinOp, Expr, PathSeg, Stmt};
use ensemble_lang::diag::{codes, Diagnostic};
use ensemble_lang::token::Span;
use std::collections::{BTreeMap, HashMap};

/// A symbolic quantity appearing in an affine form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Sym {
    /// `get_global_id(d)`.
    Gid(u8),
    /// `get_local_id(d)`.
    Lid(u8),
    /// `get_group_id(d)`.
    Grp(u8),
    /// `get_global_size(d)` — uniform.
    GSize(u8),
    /// `get_local_size(d)` — uniform.
    LSize(u8),
    /// `get_num_groups(d)` — uniform.
    NGroups(u8),
    /// A settings scalar (uniform across the dispatch); interned name.
    Scalar(u32),
    /// `lengthof`/dimension length of a buffer (uniform); interned key.
    DimLen(u32),
    /// A `for` loop counter (per-execution, per-item for comparisons).
    Loop(u32),
}

impl Sym {
    /// Uniform symbols have the same value for every work-item of a
    /// dispatch, so they cancel exactly when comparing two items.
    pub(crate) fn is_uniform(self) -> bool {
        matches!(
            self,
            Sym::GSize(_) | Sym::LSize(_) | Sym::NGroups(_) | Sym::Scalar(_) | Sym::DimLen(_)
        )
    }
}

/// An affine form `k + Σ cᵢ·symᵢ` (terms with coefficient 0 are absent).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Affine {
    /// Symbol coefficients.
    pub terms: BTreeMap<Sym, i64>,
    /// Constant part.
    pub k: i64,
}

impl Affine {
    fn konst(k: i64) -> Affine {
        Affine {
            terms: BTreeMap::new(),
            k,
        }
    }

    fn sym(s: Sym) -> Affine {
        let mut terms = BTreeMap::new();
        terms.insert(s, 1);
        Affine { terms, k: 0 }
    }

    fn add(&self, o: &Affine, sign: i64) -> Affine {
        let mut terms = self.terms.clone();
        for (&s, &c) in &o.terms {
            let e = terms.entry(s).or_insert(0);
            *e += sign * c;
            if *e == 0 {
                terms.remove(&s);
            }
        }
        Affine {
            terms,
            k: self.k + sign * o.k,
        }
    }

    fn scale(&self, c: i64) -> Affine {
        if c == 0 {
            return Affine::konst(0);
        }
        Affine {
            terms: self.terms.iter().map(|(&s, &v)| (s, v * c)).collect(),
            k: self.k * c,
        }
    }

    fn as_const(&self) -> Option<i64> {
        self.terms.is_empty().then_some(self.k)
    }

    /// Substitute pinned symbols with their constant values.
    fn subst(&self, pins: &[(Sym, i64)]) -> Affine {
        let mut out = self.clone();
        for &(s, v) in pins {
            if let Some(c) = out.terms.remove(&s) {
                out.k += c * v;
            }
        }
        out
    }
}

/// Where an access lands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Target {
    /// A field of the global data (or the bare data array: empty name).
    Global(String),
    /// A `private` or `local` array; payload is (name, declared len).
    Scratch(String, Option<i64>),
}

/// One recorded array access, guards already substituted/attached.
pub(crate) struct Access {
    pub(crate) target: Target,
    pub(crate) is_write: bool,
    /// Affine form per subscript position (`None` = non-affine).
    pub(crate) idxs: Vec<Option<Affine>>,
    /// Strict upper bounds `a < b` in force at this point.
    pub(crate) uppers: Vec<(Affine, Affine)>,
    /// Dimensions whose `get_global_id` was pinned by an equality guard
    /// (only one work-item per slice reaches this access), with the
    /// pinned value.
    pub(crate) gid_pinned: Vec<(usize, i64)>,
    /// Dimensions whose `get_local_id` was pinned (one item per group).
    pub(crate) lid_pinned: Vec<usize>,
    pub(crate) span: Span,
}

/// Which symbol ranges an argument may lean on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Ranges {
    /// The [`HostFacts`] routed into this kernel: the argument holds for
    /// the dispatches the analysed host makes.
    Routed,
    /// Only what the language guarantees (ids and extents are
    /// non-negative, sizes at least 1): the argument holds for every
    /// ND-range and every buffer extent.
    Any,
}

/// Facts routed in from the host-side abstract interpretation.
#[derive(Debug, Default, Clone)]
pub struct HostFacts {
    /// Global-size extent per dimension, when the worksize construction
    /// was visible (`new integer[len] of fill` → dims `0..len` with
    /// extent `fill`). `None` entries mean "unknown extent".
    pub extent: [Option<i64>; 3],
    /// `true` when at least one routed worksize was seen (otherwise all
    /// three dimensions are assumed active with unknown extent).
    pub ws_known: bool,
    /// How many worksize dimensions are declared (`len` above).
    pub ws_len: Option<i64>,
    /// Work-group size per dimension, when visible.
    pub lsize: [Option<i64>; 3],
    /// Known extents of the data buffers, by field name (empty name for
    /// the bare-array data shape).
    pub dims: HashMap<String, Vec<Option<i64>>>,
}

impl HostFacts {
    /// Is dimension `d` active (extent possibly > 1)?
    pub(crate) fn active(&self, d: usize) -> bool {
        if !self.ws_known {
            return true; // conservative: everything may vary
        }
        match self.ws_len {
            Some(len) if (d as i64) >= len => false,
            _ => self.extent[d] != Some(1) && self.extent[d] != Some(0),
        }
    }
}

/// Per-kernel checking context.
/// Strict `a < b` constraints plus `sym == k` equality pins from a guard.
type Guards = (Vec<(Affine, Affine)>, Vec<(Sym, i64)>);

pub struct KernelCheck {
    pub(crate) facts: HostFacts,
    pub(crate) kernel_name: String,
    pub(crate) data_name: String,
    data_fields: Vec<String>, // empty => bare-array data
    scalars: Vec<String>,
    req_name: String,
    pub(crate) names: Vec<String>,
    name_ids: HashMap<String, u32>,
    dimlen_vals: Vec<Option<i64>>,
    loops: Vec<(Option<i64>, Option<i64>)>,
    env: Vec<HashMap<String, Option<Affine>>>,
    arrays: Vec<HashMap<String, Option<i64>>>,
    pins: Vec<(Sym, i64)>,
    uppers: Vec<(Affine, Affine)>,
    pub(crate) accesses: Vec<Access>,
}

impl KernelCheck {
    /// Build a checker for one kernel.
    pub fn new(
        kernel_name: &str,
        req_name: &str,
        data_name: &str,
        data_fields: Vec<String>,
        scalars: Vec<String>,
        facts: HostFacts,
    ) -> KernelCheck {
        KernelCheck {
            facts,
            kernel_name: kernel_name.to_string(),
            data_name: data_name.to_string(),
            data_fields,
            scalars,
            req_name: req_name.to_string(),
            names: Vec::new(),
            name_ids: HashMap::new(),
            dimlen_vals: Vec::new(),
            loops: Vec::new(),
            env: vec![HashMap::new()],
            arrays: vec![HashMap::new()],
            pins: Vec::new(),
            uppers: Vec::new(),
            accesses: Vec::new(),
        }
    }

    /// Walk the kernel body, recording every array access with its
    /// guards. Call once; then [`Self::diagnostics`] (and the proof
    /// passes) read the recorded accesses.
    pub fn walk(&mut self, body: &[Stmt]) {
        self.block(body);
    }

    /// The race and bounds findings over the recorded accesses.
    pub fn diagnostics(&self) -> Vec<Diagnostic> {
        let mut diags = self.check_bounds();
        diags.extend(self.check_races());
        diags
    }

    fn intern(&mut self, key: String, dim_val: Option<Option<i64>>) -> u32 {
        if let Some(&id) = self.name_ids.get(&key) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(key.clone());
        self.name_ids.insert(key, id);
        self.dimlen_vals.push(dim_val.unwrap_or(None));
        id
    }

    fn lookup(&self, name: &str) -> Option<Option<Affine>> {
        for scope in self.env.iter().rev() {
            if let Some(v) = scope.get(name) {
                return Some(v.clone());
            }
        }
        None
    }

    fn bind(&mut self, name: &str, v: Option<Affine>) {
        self.env
            .last_mut()
            .expect("scope stack")
            .insert(name.to_string(), v);
    }

    fn assign(&mut self, name: &str, v: Option<Affine>) {
        for scope in self.env.iter_mut().rev() {
            if let Some(slot) = scope.get_mut(name) {
                *slot = v;
                return;
            }
        }
    }

    fn array_len(&self, name: &str) -> Option<Option<i64>> {
        for scope in self.arrays.iter().rev() {
            if let Some(&l) = scope.get(name) {
                return Some(l);
            }
        }
        None
    }

    // ---- expression evaluation (pure) --------------------------------

    /// Affine value of an expression, or `None` when non-affine.
    fn eval(&mut self, e: &Expr) -> Option<Affine> {
        match e {
            Expr::Int(v, _) => Some(Affine::konst(*v)),
            Expr::Neg(inner, _) => self.eval(inner).map(|a| a.scale(-1)),
            Expr::Binary(op, l, r, _) => {
                let (a, b) = (self.eval(l)?, self.eval(r)?);
                match op {
                    BinOp::Add => Some(a.add(&b, 1)),
                    BinOp::Sub => Some(a.add(&b, -1)),
                    BinOp::Mul => {
                        if let Some(c) = a.as_const() {
                            Some(b.scale(c))
                        } else {
                            b.as_const().map(|c| a.scale(c))
                        }
                    }
                    BinOp::Div | BinOp::Rem => match (a.as_const(), b.as_const()) {
                        (Some(x), Some(y)) if y != 0 => Some(Affine::konst(match op {
                            BinOp::Div => x / y,
                            _ => x % y,
                        })),
                        _ => None,
                    },
                    _ => None,
                }
            }
            Expr::Call(name, args, _) => {
                let dim = || -> u8 {
                    match args.first() {
                        Some(Expr::Int(d, _)) if (0..3).contains(d) => *d as u8,
                        _ => 0,
                    }
                };
                match name.as_str() {
                    "get_global_id" => Some(Affine::sym(Sym::Gid(dim()))),
                    "get_local_id" => Some(Affine::sym(Sym::Lid(dim()))),
                    "get_group_id" => Some(Affine::sym(Sym::Grp(dim()))),
                    "get_global_size" => Some(Affine::sym(Sym::GSize(dim()))),
                    "get_local_size" => Some(Affine::sym(Sym::LSize(dim()))),
                    "get_num_groups" => Some(Affine::sym(Sym::NGroups(dim()))),
                    "lengthof" => {
                        let key = self.lengthof_key(args.first()?)?;
                        let id = self.intern(key.0, Some(key.1));
                        Some(Affine::sym(Sym::DimLen(id)))
                    }
                    "toInt" | "toReal" => None,
                    _ => None,
                }
            }
            Expr::Path(root, segs, _) => {
                if segs.is_empty() {
                    return self.lookup(root).flatten();
                }
                // `req.scalar` — a uniform settings scalar.
                if root == &self.req_name && segs.len() == 1 {
                    if let PathSeg::Field(f) = &segs[0] {
                        if self.scalars.iter().any(|s| s == f) {
                            let id = self.intern(format!("s:{f}"), None);
                            return Some(Affine::sym(Sym::Scalar(id)));
                        }
                    }
                }
                None
            }
            _ => None,
        }
    }

    /// `(intern key, known value)` for `lengthof(buffer-or-array)`:
    /// uniform per dispatch, with a concrete value when the host routed
    /// the dimension in.
    fn lengthof_key(&mut self, arg: &Expr) -> Option<(String, Option<i64>)> {
        if let Expr::Path(root, segs, _) = arg {
            if let Some((field, _)) = self.global_target(root, segs) {
                let val = self
                    .facts
                    .dims
                    .get(&field)
                    .and_then(|d| d.first().copied())
                    .flatten();
                return Some((format!("d:{field}#0"), val));
            }
            if segs.is_empty() {
                if let Some(len) = self.array_len(root) {
                    return Some((format!("a:{root}"), len));
                }
            }
        }
        None
    }

    /// If `root`+`segs` names the global data (a field of the data
    /// struct, or the bare data array), return the field name and the
    /// subscript expressions.
    fn global_target<'e>(
        &self,
        root: &str,
        segs: &'e [PathSeg],
    ) -> Option<(String, Vec<&'e Expr>)> {
        if root != self.data_name {
            return None;
        }
        let (field, idx_segs) = if self.data_fields.is_empty() {
            (String::new(), segs)
        } else {
            match segs.first() {
                Some(PathSeg::Field(f)) if self.data_fields.iter().any(|df| df == f) => {
                    (f.clone(), &segs[1..])
                }
                _ => return None,
            }
        };
        let mut idxs = Vec::new();
        for s in idx_segs {
            match s {
                PathSeg::Index(e) => idxs.push(e),
                PathSeg::Field(_) => return None,
            }
        }
        Some((field, idxs))
    }

    // ---- access recording --------------------------------------------

    fn record(&mut self, target: Target, is_write: bool, idxs: Vec<Option<Affine>>, span: Span) {
        let pins = self.pins.clone();
        let idxs = idxs
            .into_iter()
            .map(|i| i.map(|a| a.subst(&pins)))
            .collect();
        let uppers = self
            .uppers
            .iter()
            .map(|(a, b)| (a.subst(&pins), b.subst(&pins)))
            .collect();
        let mut gid_pinned = Vec::new();
        let mut lid_pinned = Vec::new();
        for &(s, v) in &pins {
            match s {
                Sym::Gid(d) => gid_pinned.push((d as usize, v)),
                Sym::Lid(d) => lid_pinned.push(d as usize),
                _ => {}
            }
        }
        self.accesses.push(Access {
            target,
            is_write,
            idxs,
            uppers,
            gid_pinned,
            lid_pinned,
            span,
        });
    }

    /// Record every buffer access inside an expression (reads).
    fn scan(&mut self, e: &Expr) {
        match e {
            Expr::Path(root, segs, span) => {
                self.scan_path(root, segs, *span, false);
            }
            Expr::Neg(inner, _) | Expr::Not(inner, _) => self.scan(inner),
            Expr::Binary(_, l, r, _) => {
                self.scan(l);
                self.scan(r);
            }
            Expr::Call(_, args, _) => {
                for a in args {
                    self.scan(a);
                }
            }
            Expr::NewArray { dims, fill, .. } => {
                for d in dims {
                    self.scan(d);
                }
                if let Some(f) = fill {
                    self.scan(f);
                }
            }
            Expr::NewStruct { args, .. } => {
                for a in args {
                    self.scan(a);
                }
            }
            _ => {}
        }
    }

    fn scan_path(&mut self, root: &str, segs: &[PathSeg], span: Span, is_write: bool) {
        // Recurse into subscript expressions first (they are reads).
        for s in segs {
            if let PathSeg::Index(e) = s {
                self.scan(e);
            }
        }
        if let Some((field, idx_exprs)) = self.global_target(root, segs) {
            if idx_exprs.is_empty() {
                return; // whole-buffer reference (e.g. `lengthof(d.m)` arg)
            }
            let idxs: Vec<Option<Affine>> =
                idx_exprs.iter().map(|e| self.eval(e)).collect::<Vec<_>>();
            self.record(Target::Global(field), is_write, idxs, span);
            return;
        }
        // Private/local scratch arrays: single-subscript accesses.
        if let Some(len) = self.array_len(root) {
            if segs.len() == 1 {
                if let PathSeg::Index(e) = &segs[0] {
                    let idx = self.eval(e);
                    self.record(Target::Scratch(root.to_string(), len), is_write, vec![idx], span);
                }
            }
        }
    }

    // ---- guards -------------------------------------------------------

    /// Constraints `a < b` implied by `cond` being true (`negate=false`)
    /// or false (`negate=true`), plus equality pins.
    fn constraints(&mut self, cond: &Expr, negate: bool) -> Guards {
        let mut lts = Vec::new();
        let mut pins = Vec::new();
        self.collect_constraints(cond, negate, &mut lts, &mut pins);
        (lts, pins)
    }

    fn collect_constraints(
        &mut self,
        cond: &Expr,
        negate: bool,
        lts: &mut Vec<(Affine, Affine)>,
        pins: &mut Vec<(Sym, i64)>,
    ) {
        let Expr::Binary(op, l, r, _) = cond else {
            if let Expr::Not(inner, _) = cond {
                self.collect_constraints(inner, !negate, lts, pins);
            }
            return;
        };
        match (op, negate) {
            (BinOp::And, false) | (BinOp::Or, true) => {
                self.collect_constraints(l, negate, lts, pins);
                self.collect_constraints(r, negate, lts, pins);
                return;
            }
            (BinOp::And, true) | (BinOp::Or, false) => return, // disjunction: no single fact
            _ => {}
        }
        let (Some(a), Some(b)) = (self.eval(l), self.eval(r)) else {
            return;
        };
        let one = Affine::konst(1);
        match (op, negate) {
            // a < b
            (BinOp::Lt, false) | (BinOp::Ge, true) => lts.push((a, b)),
            // a <= b  ≡  a < b+1
            (BinOp::Le, false) | (BinOp::Gt, true) => lts.push((a, b.add(&one, 1))),
            // a > b  ≡  b < a
            (BinOp::Gt, false) | (BinOp::Le, true) => lts.push((b, a)),
            // a >= b  ≡  b < a+1
            (BinOp::Ge, false) | (BinOp::Lt, true) => lts.push((b, a.add(&one, 1))),
            (BinOp::Eq, false) | (BinOp::Ne, true) => {
                // Pin a lone per-item symbol: `lid == 0`.
                let d = a.add(&b, -1);
                let per_item: Vec<_> = d.terms.iter().filter(|(s, _)| !s.is_uniform()).collect();
                if let [(&s, &c)] = per_item.as_slice() {
                    if (c == 1 || c == -1) && d.terms.len() == 1 {
                        pins.push((s, -d.k / c));
                    }
                }
            }
            _ => {}
        }
    }

    // ---- statement walk ----------------------------------------------

    fn block(&mut self, stmts: &[Stmt]) {
        self.env.push(HashMap::new());
        self.arrays.push(HashMap::new());
        for s in stmts {
            self.stmt(s);
        }
        self.env.pop();
        self.arrays.pop();
    }

    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Declare { name, value, .. } | Stmt::DeclareLocal { name, value, .. } => {
                self.scan(value);
                if let Expr::NewArray { dims, .. } = value {
                    let len = match dims.first() {
                        Some(d) => self.eval(d).and_then(|a| a.as_const()),
                        None => None,
                    };
                    self.arrays
                        .last_mut()
                        .expect("scope stack")
                        .insert(name.clone(), len);
                    return;
                }
                let v = self.eval(value);
                self.bind(name, v);
            }
            Stmt::Assign {
                name, path, value, ..
            } => {
                self.scan(value);
                if path.is_empty() {
                    let v = self.eval(value);
                    self.assign(name, v);
                } else {
                    self.scan_path(name, path, s_span(s), true);
                }
            }
            Stmt::Send { value, chan, .. } => {
                self.scan(value);
                self.scan(chan);
            }
            Stmt::Receive { name, .. } => self.bind(name, None),
            Stmt::Connect { from, to, .. } => {
                self.scan(from);
                self.scan(to);
            }
            Stmt::For {
                var,
                from,
                to,
                body,
                ..
            } => {
                self.scan(from);
                self.scan(to);
                let lo = self.eval(from);
                let hi = self.eval(to);
                let lo_min = lo.as_ref().and_then(|a| self.min_of(a));
                let hi_max = hi.as_ref().and_then(|a| self.max_of(a));
                let id = self.loops.len() as u32;
                self.loops.push((lo_min, hi_max));
                self.invalidate_assigned(body);
                self.env.push(HashMap::new());
                self.arrays.push(HashMap::new());
                self.bind(var, Some(Affine::sym(Sym::Loop(id))));
                for st in body {
                    self.stmt(st);
                }
                self.env.pop();
                self.arrays.pop();
            }
            Stmt::While { cond, body } => {
                self.invalidate_assigned(body);
                self.scan(cond);
                self.block(body);
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
            } => {
                self.scan(cond);
                let (lts, pins) = self.constraints(cond, false);
                self.with_guards(lts, pins, |cx| cx.block(then_blk));
                let (lts, pins) = self.constraints(cond, true);
                self.with_guards(lts, pins, |cx| cx.block(else_blk));
                self.invalidate_assigned(then_blk);
                self.invalidate_assigned(else_blk);
            }
            Stmt::Print { value, .. } => self.scan(value),
            Stmt::Barrier { .. } | Stmt::Stop { .. } => {}
        }
    }

    fn with_guards(
        &mut self,
        lts: Vec<(Affine, Affine)>,
        pins: Vec<(Sym, i64)>,
        f: impl FnOnce(&mut Self),
    ) {
        let n_lts = lts.len();
        let n_pins = pins.len();
        self.uppers.extend(lts);
        self.pins.extend(pins);
        f(self);
        self.uppers.truncate(self.uppers.len() - n_lts);
        self.pins.truncate(self.pins.len() - n_pins);
    }

    /// Scalar variables assigned anywhere in `body` lose their affine
    /// value before the body is walked (loop-carried values are not
    /// constant across iterations).
    fn invalidate_assigned(&mut self, body: &[Stmt]) {
        let mut names = Vec::new();
        collect_assigned(body, &mut names);
        for n in names {
            self.assign(&n, None);
        }
    }

    // ---- ranges -------------------------------------------------------

    pub(crate) fn sym_range(&self, s: Sym) -> (Option<i64>, Option<i64>) {
        self.sym_range_in(s, Ranges::Routed)
    }

    fn sym_range_in(&self, s: Sym, ranges: Ranges) -> (Option<i64>, Option<i64>) {
        let f = &self.facts;
        let routed = ranges == Ranges::Routed;
        let fact = |of: &[Option<i64>; 3], d: u8| of.get(d as usize).copied().flatten();
        let ext = |d: u8| fact(&f.extent, d).filter(|_| routed);
        let ls = |d: u8| fact(&f.lsize, d).filter(|_| routed);
        match s {
            Sym::Gid(d) => (Some(0), ext(d).map(|e| e - 1)),
            Sym::Lid(d) => (Some(0), ls(d).map(|l| l - 1)),
            Sym::Grp(d) => {
                let hi = match (ext(d), ls(d)) {
                    (Some(e), Some(l)) if l > 0 => Some((e + l - 1) / l - 1),
                    _ => None,
                };
                (Some(0), hi)
            }
            Sym::GSize(d) => (ext(d).or(Some(1)), ext(d)),
            Sym::LSize(d) => (ls(d).or(Some(1)), ls(d)),
            Sym::NGroups(_) => (Some(1), None),
            Sym::Scalar(_) => (None, None),
            Sym::DimLen(id) => {
                let v = self.dimlen_vals.get(id as usize).copied().flatten();
                let v = v.filter(|_| routed);
                (v.or(Some(0)), v)
            }
            // Loop bounds were folded through the routed facts when the
            // loop was walked.
            Sym::Loop(id) if routed => self.loops.get(id as usize).copied().unwrap_or((None, None)),
            Sym::Loop(_) => (None, None),
        }
    }

    fn max_of(&self, a: &Affine) -> Option<i64> {
        let mut acc = a.k;
        for (&s, &c) in &a.terms {
            let (lo, hi) = self.sym_range(s);
            let b = if c > 0 { hi } else { lo };
            acc += c * b?;
        }
        Some(acc)
    }

    fn min_of(&self, a: &Affine) -> Option<i64> {
        let mut acc = a.k;
        for (&s, &c) in &a.terms {
            let (lo, hi) = self.sym_range(s);
            let b = if c > 0 { lo } else { hi };
            acc += c * b?;
        }
        Some(acc)
    }

    /// Tightest provable maximum of a subscript, folding in any active
    /// `idx < bound` guard.
    fn guarded_max(&self, idx: &Affine, uppers: &[(Affine, Affine)]) -> Option<i64> {
        let mut best = self.max_of(idx);
        for (a, b) in uppers {
            if a == idx {
                if let Some(m) = self.max_of(b) {
                    let cand = m - 1;
                    best = Some(best.map_or(cand, |x| x.min(cand)));
                }
            }
        }
        best
    }

    // ---- checks -------------------------------------------------------

    fn check_bounds(&self) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for acc in &self.accesses {
            let dims: Vec<Option<i64>> = match &acc.target {
                Target::Global(field) => self
                    .facts
                    .dims
                    .get(field)
                    .cloned()
                    .unwrap_or_else(|| vec![None; acc.idxs.len()]),
                Target::Scratch(_, len) => vec![*len],
            };
            for (pos, idx) in acc.idxs.iter().enumerate() {
                let Some(idx) = idx else { continue };
                let name = self.target_name(&acc.target);
                if let Some(max) = self.guarded_max(idx, &acc.uppers) {
                    if let Some(Some(extent)) = dims.get(pos) {
                        if max >= *extent {
                            out.push(
                                Diagnostic::error(
                                    codes::KERNEL_BOUNDS,
                                    acc.span,
                                    format!(
                                        "kernel `{}`: subscript {} of `{}` reaches index {max} \
                                         but the array extent is {extent}",
                                        self.kernel_name,
                                        pos + 1,
                                        name,
                                    ),
                                )
                                .with_help(
                                    "shrink the worksize or grow the array so every \
                                     work-item stays in bounds"
                                        .to_string(),
                                ),
                            );
                            break; // one report per access
                        }
                    }
                }
                if let Some(min) = self.min_of(idx) {
                    if min < 0 {
                        out.push(
                            Diagnostic::error(
                                codes::KERNEL_BOUNDS,
                                acc.span,
                                format!(
                                    "kernel `{}`: subscript {} of `{}` reaches negative \
                                     index {min}",
                                    self.kernel_name,
                                    pos + 1,
                                    name,
                                ),
                            )
                            .with_help("indices must stay non-negative".to_string()),
                        );
                        break;
                    }
                }
            }
        }
        out
    }

    /// Human-readable label for a symbol, using the interned names
    /// (`step`, `lengthof(d.m)`) where available.
    pub(crate) fn sym_label(&self, s: Sym) -> String {
        match s {
            Sym::Gid(d) => format!("gid{d}"),
            Sym::Lid(d) => format!("lid{d}"),
            Sym::Grp(d) => format!("group{d}"),
            Sym::GSize(d) => format!("gsize{d}"),
            Sym::LSize(d) => format!("lsize{d}"),
            Sym::NGroups(d) => format!("ngroups{d}"),
            Sym::Scalar(id) => match self.names.get(id as usize) {
                Some(n) => n.strip_prefix("s:").unwrap_or(n).to_string(),
                None => format!("scalar#{id}"),
            },
            Sym::DimLen(id) => {
                let key = self.names.get(id as usize).cloned().unwrap_or_default();
                let inner = if let Some(rest) = key.strip_prefix("d:") {
                    let f = rest.split('#').next().unwrap_or(rest);
                    if f.is_empty() {
                        self.data_name.clone()
                    } else {
                        format!("{}.{f}", self.data_name)
                    }
                } else if let Some(rest) = key.strip_prefix("a:") {
                    rest.to_string()
                } else {
                    key
                };
                format!("lengthof({inner})")
            }
            Sym::Loop(id) => format!("loop#{id}"),
        }
    }

    /// Render an affine form like `gid0 + step + 1`.
    pub(crate) fn render_affine(&self, a: &Affine) -> String {
        let mut out = String::new();
        for (&s, &c) in &a.terms {
            let label = self.sym_label(s);
            if out.is_empty() {
                match c {
                    1 => out.push_str(&label),
                    -1 => out.push_str(&format!("-{label}")),
                    _ => out.push_str(&format!("{c}*{label}")),
                }
            } else {
                match c {
                    1 => out.push_str(&format!(" + {label}")),
                    -1 => out.push_str(&format!(" - {label}")),
                    c if c > 0 => out.push_str(&format!(" + {c}*{label}")),
                    c => out.push_str(&format!(" - {}*{label}", -c)),
                }
            }
        }
        if a.k != 0 || out.is_empty() {
            if out.is_empty() {
                out.push_str(&a.k.to_string());
            } else if a.k > 0 {
                out.push_str(&format!(" + {}", a.k));
            } else {
                out.push_str(&format!(" - {}", -a.k));
            }
        }
        out
    }

    /// Render an access like `d.m[gid0 + step + 1][step]`.
    pub(crate) fn render_access(&self, acc: &Access) -> String {
        let name = self.target_name(&acc.target);
        let subs: Vec<String> = acc
            .idxs
            .iter()
            .map(|i| match i {
                Some(a) => self.render_affine(a),
                None => "?".to_string(),
            })
            .collect();
        if subs.is_empty() {
            name
        } else {
            format!("{name}[{}]", subs.join("]["))
        }
    }

    pub(crate) fn target_name(&self, t: &Target) -> String {
        match t {
            Target::Global(f) if f.is_empty() => self.data_name.clone(),
            Target::Global(f) => format!("{}.{f}", self.data_name),
            Target::Scratch(n, _) => n.clone(),
        }
    }

    fn check_races(&self) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        // Group global accesses by field.
        let mut fields: Vec<String> = Vec::new();
        for a in &self.accesses {
            if let Target::Global(f) = &a.target {
                if !fields.contains(f) {
                    fields.push(f.clone());
                }
            }
        }
        for field in fields {
            let writes: Vec<&Access> = self
                .accesses
                .iter()
                .filter(|a| a.is_write && a.target == Target::Global(field.clone()))
                .collect();
            if writes.is_empty() {
                continue;
            }
            let name = self.target_name(&Target::Global(field.clone()));
            // (1) Each write must be injective over the active dims.
            for w in &writes {
                if let Some(d) = self.uncovered_dim(w) {
                    out.push(
                        Diagnostic::error(
                            codes::KERNEL_RACE,
                            w.span,
                            format!(
                                "kernel `{}`: work-items may write the same element of \
                                 `{name}` — no subscript varies with get_global_id({d})",
                                self.kernel_name,
                            ),
                        )
                        .with_help(format!(
                            "index `{name}` by get_global_id({d}) (or guard the write so \
                             only one work-item in that dimension performs it)"
                        )),
                    );
                }
            }
            // (2) Distinct writes must be identical or pairwise disjoint.
            for (i, w1) in writes.iter().enumerate() {
                for w2 in writes.iter().skip(i + 1) {
                    if !self.same_slot(w1, w2) && !self.disjoint(w1, w2) {
                        out.push(
                            Diagnostic::error(
                                codes::KERNEL_RACE,
                                w2.span,
                                format!(
                                    "kernel `{}`: two writes to `{name}` may target the \
                                     same element",
                                    self.kernel_name,
                                ),
                            )
                            .with_note(w1.span, "the other write is here".to_string()),
                        );
                    }
                }
            }
            // (3) Reads must be own-slot or disjoint from every write.
            for r in self
                .accesses
                .iter()
                .filter(|a| !a.is_write && a.target == Target::Global(field.clone()))
            {
                for w in &writes {
                    if !self.same_slot(r, w) && !self.disjoint(r, w) {
                        out.push(
                            Diagnostic::error(
                                codes::KERNEL_READ_RACE,
                                r.span,
                                format!(
                                    "kernel `{}`: reads an element of `{name}` that another \
                                     work-item may be writing concurrently",
                                    self.kernel_name,
                                ),
                            )
                            .with_note(w.span, "the conflicting write is here".to_string())
                            .with_help(
                                "read only the work-item's own slot, or split the kernel \
                                 so the read happens in a later dispatch"
                                    .to_string(),
                            ),
                        );
                        break; // one report per read
                    }
                }
            }
        }
        out
    }

    /// The lowest active worksize dimension `w` does not cover, if any.
    /// Dimensions whose `get_global_id` was pinned by an equality guard
    /// are exempt (only one slice of work-items reaches the write).
    fn uncovered_dim(&self, w: &Access) -> Option<usize> {
        let needed: Vec<usize> = (0..3)
            .filter(|&d| self.facts.active(d) && !w.gid_pinned.iter().any(|&(p, _)| p == d))
            .collect();
        let mut used = vec![false; w.idxs.len()];
        self.match_dims(&needed, w, &mut used)
    }

    fn match_dims(&self, needed: &[usize], w: &Access, used: &mut [bool]) -> Option<usize> {
        let Some((&d, rest)) = needed.split_first() else {
            return None; // all matched
        };
        for (k, idx) in w.idxs.iter().enumerate() {
            if used[k] {
                continue;
            }
            let Some(idx) = idx else { continue };
            if self.covers_dim(idx, d as u8, w) {
                used[k] = true;
                // `None` = the rest matched too, so the whole set does.
                self.match_dims(rest, w, used)?;
                used[k] = false;
            }
        }
        // No position matched `d` in any completion.
        Some(d)
    }

    /// Does `idx` distinguish work-items along dimension `d`? True when
    /// its per-item content is exactly one symbol of dimension `d`
    /// (gid, or grp with the local id pinned), everything else uniform
    /// or provably zero.
    pub(crate) fn covers_dim(&self, idx: &Affine, d: u8, w: &Access) -> bool {
        let mut d_syms = 0usize;
        let mut ok = true;
        for (&s, &c) in &idx.terms {
            if s.is_uniform() || c == 0 {
                continue;
            }
            match s {
                Sym::Gid(e) if e == d => d_syms += 1,
                Sym::Grp(e) if e == d && w.lid_pinned.contains(&(d as usize)) => d_syms += 1,
                // Per-item symbols of *inactive* dimensions are always 0.
                Sym::Gid(e) | Sym::Lid(e) | Sym::Grp(e) if !self.facts.active(e as usize) => {}
                _ => ok = false,
            }
        }
        ok && d_syms == 1
    }

    pub(crate) fn same_slot(&self, a: &Access, b: &Access) -> bool {
        a.idxs.len() == b.idxs.len()
            && a.idxs
                .iter()
                .zip(&b.idxs)
                .all(|(x, y)| matches!((x, y), (Some(x), Some(y)) if x == y))
    }

    /// Are the two accesses provably disjoint? True when in some
    /// position the difference `b − a` — uniform symbols cancelling,
    /// per-item symbols independent between the two items — is strictly
    /// positive or strictly negative.
    pub(crate) fn disjoint(&self, a: &Access, b: &Access) -> bool {
        self.disjoint_in(a, b, Ranges::Routed)
    }

    /// [`Self::disjoint`] with the symbol intervals taken from `ranges`.
    pub(crate) fn disjoint_in(&self, a: &Access, b: &Access, ranges: Ranges) -> bool {
        for (x, y) in a.idxs.iter().zip(&b.idxs) {
            let (Some(x), Some(y)) = (x, y) else { continue };
            let (mut lo, mut hi) = (Some(0i64), Some(0i64));
            let add = |acc: Option<i64>, v: Option<i64>| -> Option<i64> {
                Some(acc? + v?)
            };
            // Constant parts.
            lo = add(lo, Some(y.k - x.k));
            hi = add(hi, Some(y.k - x.k));
            // Uniform symbols cancel coefficient-wise; what remains
            // ranges over the symbol's interval.
            let mut handled: Vec<Sym> = Vec::new();
            for (&s, &cy) in &y.terms {
                if s.is_uniform() {
                    let cx = x.terms.get(&s).copied().unwrap_or(0);
                    let c = cy - cx;
                    handled.push(s);
                    if c == 0 {
                        continue;
                    }
                    let (slo, shi) = self.sym_range_in(s, ranges);
                    let (a1, b1) = if c > 0 { (slo, shi) } else { (shi, slo) };
                    lo = add(lo, a1.map(|v| c * v));
                    hi = add(hi, b1.map(|v| c * v));
                } else {
                    // Per-item: independent copy for item B.
                    let (slo, shi) = self.sym_range_in(s, ranges);
                    let (a1, b1) = if cy > 0 { (slo, shi) } else { (shi, slo) };
                    lo = add(lo, a1.map(|v| cy * v));
                    hi = add(hi, b1.map(|v| cy * v));
                }
            }
            for (&s, &cx) in &x.terms {
                if s.is_uniform() {
                    if !handled.contains(&s) {
                        // coefficient cy = 0, c = -cx
                        let c = -cx;
                        let (slo, shi) = self.sym_range_in(s, ranges);
                        let (a1, b1) = if c > 0 { (slo, shi) } else { (shi, slo) };
                        lo = add(lo, a1.map(|v| c * v));
                        hi = add(hi, b1.map(|v| c * v));
                    }
                } else {
                    // Independent copy for item A, negated.
                    let c = -cx;
                    let (slo, shi) = self.sym_range_in(s, ranges);
                    let (a1, b1) = if c > 0 { (slo, shi) } else { (shi, slo) };
                    lo = add(lo, a1.map(|v| c * v));
                    hi = add(hi, b1.map(|v| c * v));
                }
            }
            if matches!(lo, Some(v) if v > 0) || matches!(hi, Some(v) if v < 0) {
                return true;
            }
        }
        false
    }
}

/// Scalar names assigned (`:=` with empty path) anywhere under `stmts`.
fn collect_assigned(stmts: &[Stmt], out: &mut Vec<String>) {
    for s in stmts {
        match s {
            Stmt::Assign { name, path, .. } if path.is_empty() && !out.contains(name) => {
                out.push(name.clone());
            }
            Stmt::For { body, .. } | Stmt::While { body, .. } => collect_assigned(body, out),
            Stmt::If {
                then_blk, else_blk, ..
            } => {
                collect_assigned(then_blk, out);
                collect_assigned(else_blk, out);
            }
            _ => {}
        }
    }
}

fn s_span(s: &Stmt) -> Span {
    match s {
        Stmt::Declare { pos, .. }
        | Stmt::DeclareLocal { pos, .. }
        | Stmt::Assign { pos, .. }
        | Stmt::Send { pos, .. }
        | Stmt::Receive { pos, .. }
        | Stmt::Connect { pos, .. }
        | Stmt::For { pos, .. }
        | Stmt::Print { pos, .. }
        | Stmt::Barrier { pos }
        | Stmt::Stop { pos } => *pos,
        Stmt::While { cond, .. } => cond.pos(),
        Stmt::If { cond, .. } => cond.pos(),
    }
}
