//! Dynamic shadow validator: concretely executes kernel bodies and
//! cross-checks the prover's claims against observed access sets.
//!
//! The prover (the `split` and `fusion` passes) reasons symbolically
//! over affine subscripts; this module is its adversary. Given concrete
//! dispatch parameters (NDRange sizes, settings scalars, buffer
//! extents), it runs every work-item of a kernel through a sequential
//! AST interpreter, records which *global* buffer elements each
//! work-group reads and writes, and then checks:
//!
//! - a **Splittable** dimension claim: no work-group slice along that
//!   dimension writes an element another slice reads or writes — a
//!   group-aligned cut really would need no cross-device traffic;
//! - a **Reduction** dimension claim: slices may share reads, but
//!   writes stay disjoint (the per-group combine slots);
//! - a **disjoint items** claim, for every kernel whose proof earns the
//!   `ens_disjoint_items` attribute
//!   ([`SplitProof::proves_disjoint_items`](ensemble_lang::SplitProof::proves_disjoint_items)):
//!   no two work-items that differ in `get_global_id(0)` touch an
//!   element one of them writes — compared on *flattened* element
//!   addresses, the way the generated kernel addresses the buffer, so a
//!   subscript that runs off the end of its row lands where it would on
//!   the device;
//! - a **mergeable** fusion pair: the two dispatches' access sets are
//!   RAW/WAW/WAR-free against each other under the same buffer space.
//!
//! A refutation means the prover claimed something the execution
//! disproves — a soundness bug, and the test suite fails the build on
//! any. The converse (no refutation) is evidence, not proof: the
//! interpreter sees one concrete parameter choice. `barrier()` is a
//! no-op and `local` arrays are per-item here, which does not disturb
//! the check: local/private storage is never recorded, and for the
//! access-set question only subscripts matter, not the values that
//! flow through scratch memory (subscripts in the shipped kernels are
//! id- and scalar-dependent only).

use crate::model::{self, DataModel, KernelModel};
use ensemble_lang::ast::{BinOp, Expr, PathSeg, Stmt};
use ensemble_lang::proof::DimClass;
use ensemble_lang::ParseError;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Concrete dispatch parameters for one kernel.
#[derive(Debug, Clone, Default)]
pub struct DispatchConfig {
    /// Global NDRange sizes (1–3 entries; missing trailing dims are 1).
    pub global: Vec<usize>,
    /// Work-group sizes (defaults to 1 per dimension).
    pub local: Vec<usize>,
    /// Settings scalar values by field name.
    pub scalars: BTreeMap<String, i64>,
    /// Global buffer extents by field name (the empty name is the bare
    /// array payload, e.g. mandelbrot's image).
    pub dims: BTreeMap<String, Vec<usize>>,
}

/// Dispatch parameters for every kernel under validation.
#[derive(Debug, Clone, Default)]
pub struct ShadowConfig {
    /// Kernel-actor name → its dispatch parameters.
    pub kernels: BTreeMap<String, DispatchConfig>,
}

/// One disproved claim: the prover said it, execution contradicts it.
#[derive(Debug, Clone)]
pub struct Refutation {
    /// The kernel (or `from->to` pair) the claim was about.
    pub kernel: String,
    /// The claim, e.g. `splittable dim 0` or `mergeable`.
    pub claim: String,
    /// What the execution observed.
    pub detail: String,
}

impl std::fmt::Display for Refutation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: `{}` refuted — {}", self.kernel, self.claim, self.detail)
    }
}

/// Run the prover, then execute every configured kernel and return all
/// claims the concrete run disproves (empty = all claims validated).
pub fn shadow_validate(src: &str, cfg: &ShadowConfig) -> Result<Vec<Refutation>, ParseError> {
    let module = ensemble_lang::parse(src)?;
    let report = crate::analyze(&module, src, &crate::Options::default());
    let model = model::build(&module);
    let mut refutations = Vec::new();

    // Per-kernel executions, cached for the fusion pair checks.
    let mut logs: HashMap<String, AccessLog> = HashMap::new();
    for k in &model.kernels {
        let Some(dc) = cfg.kernels.get(k.actor.name.as_str()) else {
            continue;
        };
        logs.insert(k.actor.name.clone(), execute(k, dc));
    }

    for sp in &report.proofs.splits {
        let Some(log) = logs.get(&sp.kernel) else {
            continue;
        };
        for dp in &sp.dims {
            match dp.class {
                DimClass::Splittable => {
                    if let Some(detail) = refute_slices(&log.groups, dp.dim, false) {
                        refutations.push(Refutation {
                            kernel: sp.kernel.clone(),
                            claim: format!("splittable dim {}", dp.dim),
                            detail,
                        });
                    }
                }
                DimClass::Reduction => {
                    if let Some(detail) = refute_slices(&log.groups, dp.dim, true) {
                        refutations.push(Refutation {
                            kernel: sp.kernel.clone(),
                            claim: format!("reduction dim {}", dp.dim),
                            detail,
                        });
                    }
                }
                DimClass::Blocked | DimClass::Inactive => {}
            }
        }
        if sp.proves_disjoint_items() {
            if let Some(detail) = refute_slices(&log.lanes, 0, false) {
                refutations.push(Refutation {
                    kernel: sp.kernel.clone(),
                    claim: "disjoint items dim 0".to_string(),
                    detail,
                });
            }
        }
    }

    for fp in &report.proofs.fusion {
        for pair in &fp.pairs {
            if !pair.mergeable {
                continue;
            }
            let (Some(a), Some(b)) = (logs.get(&pair.from), logs.get(&pair.to)) else {
                continue;
            };
            if let Some(detail) = refute_merge(&a.groups, &b.groups) {
                refutations.push(Refutation {
                    kernel: format!("{}->{}", pair.from, pair.to),
                    claim: "mergeable".to_string(),
                    detail,
                });
            }
        }
    }

    Ok(refutations)
}

// ---- claim checks -----------------------------------------------------

type Loc = (String, Vec<i64>);

/// Who touched what: per location, the coordinates that read / wrote it.
#[derive(Default)]
struct Touched {
    readers: HashMap<Loc, BTreeSet<[usize; 3]>>,
    writers: HashMap<Loc, BTreeSet<[usize; 3]>>,
}

impl Touched {
    fn record(&mut self, loc: Loc, by: [usize; 3], is_write: bool) {
        let side = if is_write {
            &mut self.writers
        } else {
            &mut self.readers
        };
        side.entry(loc).or_default().insert(by);
    }
}

/// What one dispatch touched, at the two granularities claims are made
/// at.
#[derive(Default)]
struct AccessLog {
    /// Per global element as subscripted, the work-groups that touched it.
    groups: Touched,
    /// Per *flattened* global element — one subscript, row-major over the
    /// configured extents, as the generated kernel computes it — the
    /// work-items that touched it, told apart by `get_global_id(0)` alone
    /// (`[gid0, 0, 0]`).
    lanes: Touched,
}

/// Seek a location whose writers span ≥ 2 slices along `d`, or (unless
/// `writes_only`) one written in one slice and touched in another.
fn refute_slices(log: &Touched, d: usize, writes_only: bool) -> Option<String> {
    for (loc, wgroups) in &log.writers {
        let mut slices: BTreeSet<usize> = wgroups.iter().map(|g| g[d]).collect();
        if !writes_only {
            if let Some(rgroups) = log.readers.get(loc) {
                slices.extend(rgroups.iter().map(|g| g[d]));
            }
        }
        if slices.len() >= 2 {
            return Some(format!(
                "element `{}` is written in slice {} and touched in slice {} along dim {d}",
                render_loc(loc),
                slices.iter().next().unwrap(),
                slices.iter().next_back().unwrap(),
            ));
        }
    }
    None
}

/// Seek a RAW/WAW/WAR collision between the two dispatches' logs.
fn refute_merge(a: &Touched, b: &Touched) -> Option<String> {
    for loc in a.writers.keys() {
        if b.readers.contains_key(loc) {
            return Some(format!("RAW on element `{}`", render_loc(loc)));
        }
        if b.writers.contains_key(loc) {
            return Some(format!("WAW on element `{}`", render_loc(loc)));
        }
    }
    for loc in a.readers.keys() {
        if b.writers.contains_key(loc) {
            return Some(format!("WAR on element `{}`", render_loc(loc)));
        }
    }
    None
}

fn render_loc((f, idxs): &Loc) -> String {
    let subs: String = idxs.iter().map(|i| format!("[{i}]")).collect();
    if f.is_empty() {
        format!("data{subs}")
    } else {
        format!("{f}{subs}")
    }
}

// ---- the interpreter --------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Value {
    Int(i64),
    Real(f64),
    Bool(bool),
    /// Index into the private/local array arena.
    Arr(usize),
}

impl Value {
    fn as_i64(&self) -> i64 {
        match self {
            Value::Int(v) => *v,
            Value::Real(v) => *v as i64,
            Value::Bool(b) => i64::from(*b),
            Value::Arr(_) => 0,
        }
    }
    fn as_f64(&self) -> f64 {
        match self {
            Value::Int(v) => *v as f64,
            Value::Real(v) => *v,
            Value::Bool(b) => f64::from(u8::from(*b)),
            Value::Arr(_) => 0.0,
        }
    }
    fn truthy(&self) -> bool {
        match self {
            Value::Bool(b) => *b,
            Value::Int(v) => *v != 0,
            Value::Real(v) => *v != 0.0,
            Value::Arr(_) => false,
        }
    }
}

struct Interp<'m, 'c> {
    kernel: &'m KernelModel<'m>,
    cfg: &'c DispatchConfig,
    /// Work-item ids, per dimension.
    gid: [usize; 3],
    env: Vec<HashMap<String, Value>>,
    arena: Vec<Vec<Value>>,
    /// Values previously written to global elements (read-back overlay;
    /// seeded deterministically below it).
    heap: HashMap<Loc, Value>,
    log: AccessLog,
    /// Fuel bounds runaway loops in malformed inputs.
    fuel: u64,
}

/// Execute every work-item of `kernel` under `cfg`, returning the
/// access log. Items run in gid order; `barrier()` is a no-op.
fn execute(kernel: &KernelModel<'_>, cfg: &DispatchConfig) -> AccessLog {
    let dim = |v: &[usize], d: usize| *v.get(d).unwrap_or(&1).max(&1);
    let g = [
        dim(&cfg.global, 0),
        dim(&cfg.global, 1),
        dim(&cfg.global, 2),
    ];
    let mut interp = Interp {
        kernel,
        cfg,
        gid: [0; 3],
        env: Vec::new(),
        arena: Vec::new(),
        heap: HashMap::new(),
        log: AccessLog::default(),
        fuel: 0,
    };
    for z in 0..g[2] {
        for y in 0..g[1] {
            for x in 0..g[0] {
                interp.gid = [x, y, z];
                interp.env = vec![HashMap::new()];
                interp.arena.clear();
                interp.fuel = 1_000_000;
                interp.block(kernel.body);
            }
        }
    }
    interp.log
}

impl Interp<'_, '_> {
    fn lsize(&self, d: usize) -> usize {
        *self.cfg.local.get(d).unwrap_or(&1).max(&1)
    }

    fn group(&self) -> [usize; 3] {
        [
            self.gid[0] / self.lsize(0),
            self.gid[1] / self.lsize(1),
            self.gid[2] / self.lsize(2),
        ]
    }

    fn block(&mut self, body: &[Stmt]) {
        self.env.push(HashMap::new());
        for s in body {
            if self.fuel == 0 {
                break;
            }
            self.stmt(s);
        }
        self.env.pop();
    }

    fn stmt(&mut self, s: &Stmt) {
        self.fuel = self.fuel.saturating_sub(1);
        match s {
            Stmt::Declare { name, value, .. } | Stmt::DeclareLocal { name, value, .. } => {
                let v = self.eval(value);
                self.env
                    .last_mut()
                    .expect("scope")
                    .insert(name.clone(), v);
            }
            Stmt::Assign {
                name, path, value, ..
            } => {
                let v = self.eval(value);
                self.assign(name, path, v);
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
                ..
            } => {
                if self.eval(cond).truthy() {
                    self.block(then_blk);
                } else {
                    self.block(else_blk);
                }
            }
            Stmt::For {
                var,
                from,
                to,
                body,
                ..
            } => {
                let lo = self.eval(from).as_i64();
                let hi = self.eval(to).as_i64();
                for i in lo..=hi {
                    // Charge fuel per iteration, not just per body
                    // statement: an empty body over a huge range must
                    // still hit the backstop.
                    if self.fuel == 0 {
                        break;
                    }
                    self.fuel -= 1;
                    self.env.push(HashMap::new());
                    self.env
                        .last_mut()
                        .expect("scope")
                        .insert(var.clone(), Value::Int(i));
                    for st in body {
                        self.stmt(st);
                    }
                    self.env.pop();
                }
            }
            Stmt::While { cond, body } => {
                // Charge fuel per iteration in the header: a truthy
                // condition over an empty body consumes no statement
                // fuel and would otherwise spin forever.
                while self.fuel > 0 && self.eval(cond).truthy() {
                    self.fuel -= 1;
                    self.block(body);
                }
            }
            // Protocol statements never appear in the modelled body
            // (the model strips them); barriers and prints are no-ops
            // for access recording.
            Stmt::Barrier { .. }
            | Stmt::Print { .. }
            | Stmt::Send { .. }
            | Stmt::Receive { .. }
            | Stmt::Connect { .. }
            | Stmt::Stop { .. } => {}
        }
    }

    fn lookup(&self, name: &str) -> Option<Value> {
        self.env.iter().rev().find_map(|s| s.get(name).cloned())
    }

    fn set_var(&mut self, name: &str, v: Value) {
        for scope in self.env.iter_mut().rev() {
            if let Some(slot) = scope.get_mut(name) {
                *slot = v;
                return;
            }
        }
        self.env
            .last_mut()
            .expect("scope")
            .insert(name.to_string(), v);
    }

    /// Is this path root the kernel's global data payload?
    fn is_data_root(&self, root: &str) -> bool {
        root == self.kernel.data_name
    }

    /// Resolve a data-payload path to a global location: the buffer
    /// field ("" for a bare array) and the concrete subscripts.
    fn global_loc(&mut self, root: &str, segs: &[PathSeg]) -> Option<Loc> {
        if !self.is_data_root(root) {
            return None;
        }
        let (field, rest) = match (&self.kernel.data, segs.first()) {
            (DataModel::Struct(_), Some(PathSeg::Field(f))) => (f.clone(), &segs[1..]),
            (DataModel::Array { .. }, _) => (String::new(), segs),
            _ => return None,
        };
        let mut idxs = Vec::new();
        for seg in rest {
            match seg {
                PathSeg::Index(e) => idxs.push(self.eval(e).as_i64()),
                PathSeg::Field(_) => return None,
            }
        }
        Some((field, idxs))
    }

    fn assign(&mut self, name: &str, path: &[PathSeg], v: Value) {
        if path.is_empty() {
            self.set_var(name, v);
            return;
        }
        if let Some(loc) = self.global_loc(name, path) {
            // A partial write (fewer subscripts than dims) would be a
            // whole-row write; the shipped kernels always write
            // elements. Record as-is either way.
            self.touch(&loc, true);
            self.heap.insert(loc, v);
            return;
        }
        // Private / local array element.
        if let Some(Value::Arr(id)) = self.lookup(name) {
            if let Some(PathSeg::Index(e)) = path.first() {
                let i = self.eval(e).as_i64();
                if let Some(slot) = self
                    .arena
                    .get_mut(id)
                    .and_then(|a| a.get_mut(i.max(0) as usize))
                {
                    *slot = v;
                }
            }
        }
    }

    /// Log one access to a global element at both granularities. The
    /// flattened address needs the field's extents; a field the
    /// configuration gives none for is logged under its first subscript.
    fn touch(&mut self, loc: &Loc, is_write: bool) {
        self.log.groups.record(loc.clone(), self.group(), is_write);
        let extents = self.cfg.dims.get(&loc.0).map_or(&[][..], Vec::as_slice);
        let inner = extents.iter().skip(1).chain(&[1]);
        let flat = loc.1.iter().zip(inner).fold(0i64, |acc, (&i, &inner)| {
            acc.wrapping_add(i).wrapping_mul(inner as i64)
        });
        self.log
            .lanes
            .record((loc.0.clone(), vec![flat]), [self.gid[0], 0, 0], is_write);
    }

    /// Deterministic seed value for an untouched global element, so
    /// data-dependent control flow is stable across dispatches.
    fn seed(loc: &Loc) -> Value {
        let mut h: i64 = 7;
        for b in loc.0.bytes() {
            h = h.wrapping_mul(31).wrapping_add(i64::from(b));
        }
        for i in &loc.1 {
            h = h.wrapping_mul(31).wrapping_add(*i);
        }
        Value::Real(((h % 97).abs()) as f64)
    }

    fn eval(&mut self, e: &Expr) -> Value {
        match e {
            Expr::Int(v, _) => Value::Int(*v),
            Expr::Real(v, _) => Value::Real(*v),
            Expr::Bool(b, _) => Value::Bool(*b),
            Expr::Str(..) => Value::Int(0),
            Expr::Neg(inner, _) => match self.eval(inner) {
                Value::Int(v) => Value::Int(-v),
                Value::Real(v) => Value::Real(-v),
                v => v,
            },
            Expr::Not(inner, _) => Value::Bool(!self.eval(inner).truthy()),
            Expr::Binary(op, l, r, _) => {
                let a = self.eval(l);
                let b = self.eval(r);
                self.binop(*op, a, b)
            }
            Expr::Call(name, args, _) => self.call(name, args),
            Expr::NewArray { dims, fill, .. } => {
                let len = dims
                    .first()
                    .map(|d| self.eval(d).as_i64().max(0) as usize)
                    .unwrap_or(0);
                let init = fill
                    .as_ref()
                    .map(|f| self.eval(f))
                    .unwrap_or(Value::Real(0.0));
                let id = self.arena.len();
                self.arena.push(vec![init; len.min(1 << 20)]);
                Value::Arr(id)
            }
            Expr::NewStruct { .. }
            | Expr::NewActor { .. }
            | Expr::NewChanIn(..)
            | Expr::NewChanOut(..) => Value::Int(0),
            Expr::Path(root, segs, _) => self.eval_path(root, segs),
        }
    }

    fn eval_path(&mut self, root: &str, segs: &[PathSeg]) -> Value {
        // Settings scalars: `req.<field>`.
        if root == self.kernel.req_name {
            if let Some(PathSeg::Field(f)) = segs.first() {
                if let Some(v) = self.cfg.scalars.get(f.as_str()) {
                    return Value::Int(*v);
                }
            }
            return Value::Int(0);
        }
        if let Some(loc) = self.global_loc(root, segs) {
            self.touch(&loc, false);
            return self.heap.get(&loc).cloned().unwrap_or_else(|| Self::seed(&loc));
        }
        let Some(v) = self.lookup(root) else {
            return Value::Int(0);
        };
        if segs.is_empty() {
            return v;
        }
        if let (Value::Arr(id), Some(PathSeg::Index(e))) = (&v, segs.first()) {
            let i = self.eval(e).as_i64();
            return self
                .arena
                .get(*id)
                .and_then(|a| a.get(i.max(0) as usize))
                .cloned()
                .unwrap_or(Value::Real(0.0));
        }
        Value::Int(0)
    }

    fn call(&mut self, name: &str, args: &[Expr]) -> Value {
        let dim_arg = |interp: &mut Self| {
            args.first()
                .map(|a| interp.eval(a).as_i64().clamp(0, 2) as usize)
                .unwrap_or(0)
        };
        match name {
            "get_global_id" => {
                let d = dim_arg(self);
                Value::Int(self.gid[d] as i64)
            }
            "get_local_id" => {
                let d = dim_arg(self);
                Value::Int((self.gid[d] % self.lsize(d)) as i64)
            }
            "get_group_id" => {
                let d = dim_arg(self);
                Value::Int((self.gid[d] / self.lsize(d)) as i64)
            }
            "get_global_size" => {
                let d = dim_arg(self);
                Value::Int(*self.cfg.global.get(d).unwrap_or(&1).max(&1) as i64)
            }
            "get_local_size" => {
                let d = dim_arg(self);
                Value::Int(self.lsize(d) as i64)
            }
            "get_num_groups" => {
                let d = dim_arg(self);
                let g = *self.cfg.global.get(d).unwrap_or(&1).max(&1);
                Value::Int(g.div_ceil(self.lsize(d)) as i64)
            }
            "lengthof" => {
                if let Some(Expr::Path(root, segs, _)) = args.first() {
                    // Depth into the buffer = number of Index segs.
                    if self.is_data_root(root) {
                        let (field, depth) = match segs.first() {
                            Some(PathSeg::Field(f)) => (f.as_str(), segs.len() - 1),
                            _ => ("", segs.len()),
                        };
                        if let Some(dims) = self.cfg.dims.get(field) {
                            return Value::Int(*dims.get(depth).unwrap_or(&1) as i64);
                        }
                        return Value::Int(1);
                    }
                    if let Some(Value::Arr(id)) = self.lookup(root) {
                        return Value::Int(self.arena.get(id).map_or(0, Vec::len) as i64);
                    }
                }
                Value::Int(0)
            }
            "toReal" => Value::Real(args.first().map_or(0.0, |a| self.eval(a).as_f64())),
            "toInt" => Value::Int(args.first().map_or(0, |a| self.eval(a).as_i64())),
            "sqrt" => Value::Real(args.first().map_or(0.0, |a| self.eval(a).as_f64()).sqrt()),
            "fabs" => Value::Real(args.first().map_or(0.0, |a| self.eval(a).as_f64()).abs()),
            _ => Value::Int(0),
        }
    }

    fn binop(&self, op: BinOp, a: Value, b: Value) -> Value {
        use BinOp::*;
        let both_int = matches!((&a, &b), (Value::Int(_), Value::Int(_)))
            || matches!((&a, &b), (Value::Bool(_), Value::Int(_)))
            || matches!((&a, &b), (Value::Int(_), Value::Bool(_)));
        match op {
            Add | Sub | Mul | Div | Rem if both_int => {
                let (x, y) = (a.as_i64(), b.as_i64());
                Value::Int(match op {
                    Add => x.wrapping_add(y),
                    Sub => x.wrapping_sub(y),
                    Mul => x.wrapping_mul(y),
                    Div => {
                        if y == 0 {
                            0
                        } else {
                            x / y
                        }
                    }
                    Rem => {
                        if y == 0 {
                            0
                        } else {
                            x % y
                        }
                    }
                    _ => unreachable!(),
                })
            }
            Add | Sub | Mul | Div | Rem => {
                let (x, y) = (a.as_f64(), b.as_f64());
                Value::Real(match op {
                    Add => x + y,
                    Sub => x - y,
                    Mul => x * y,
                    Div => {
                        if y == 0.0 {
                            0.0
                        } else {
                            x / y
                        }
                    }
                    Rem => {
                        if y == 0.0 {
                            0.0
                        } else {
                            x % y
                        }
                    }
                    _ => unreachable!(),
                })
            }
            Eq => Value::Bool(a.as_f64() == b.as_f64()),
            Ne => Value::Bool(a.as_f64() != b.as_f64()),
            Lt => Value::Bool(a.as_f64() < b.as_f64()),
            Le => Value::Bool(a.as_f64() <= b.as_f64()),
            Gt => Value::Bool(a.as_f64() > b.as_f64()),
            Ge => Value::Bool(a.as_f64() >= b.as_f64()),
            And => Value::Bool(a.truthy() && b.truthy()),
            Or => Value::Bool(a.truthy() || b.truthy()),
        }
    }
}

// Canary tests: drive the refutation machinery directly on kernels that
// genuinely conflict, proving the validator *can* refute. Without these
// a broken interpreter that logs nothing would pass every integration
// test vacuously.
#[cfg(test)]
mod tests {
    use super::*;

    const W003: &str = include_str!("../tests/fixtures/w003.ens");
    const W004: &str = include_str!("../tests/fixtures/w004.ens");
    const FUSION_OK: &str = include_str!("../tests/fixtures/fusion_ok.ens");
    const LANES: &str = include_str!("../tests/fixtures/lanes.ens");

    fn cfg(global: &[usize], local: &[usize], dims: &[(&str, &[usize])]) -> DispatchConfig {
        DispatchConfig {
            global: global.to_vec(),
            local: local.to_vec(),
            scalars: BTreeMap::new(),
            dims: dims
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_vec()))
                .collect(),
        }
    }

    fn log_for(src: &str, kernel: &str, dc: &DispatchConfig) -> AccessLog {
        let module = ensemble_lang::parse(src).expect("fixture parses");
        let model = model::build(&module);
        let k = model
            .kernels
            .iter()
            .find(|k| k.actor.name == kernel)
            .expect("kernel exists");
        execute(k, dc)
    }

    #[test]
    fn cross_slice_traffic_is_refuted() {
        // w003's Broadcast: row 0 writes `out`, every row reads it.
        let dc = cfg(
            &[8, 8],
            &[4, 4],
            &[("inp", &[8]), ("out", &[8]), ("res", &[8, 8])],
        );
        let log = log_for(W003, "Broadcast", &dc);
        // A (bogus) splittable claim along dim 1 must be refuted …
        assert!(refute_slices(&log.groups, 1, false).is_some());
        // … the genuine dim-0 claim must survive …
        assert!(refute_slices(&log.groups, 0, false).is_none());
        // … and a writes-only (reduction-style) check along dim 1 holds
        // too: each element of `out`/`res` has a single writing slice.
        assert!(refute_slices(&log.groups, 1, true).is_none());
        // Item by item the dim-0 claim holds as well (`out[x]`, `res[y][x]`).
        assert!(refute_slices(&log.lanes, 0, false).is_none());
    }

    #[test]
    fn cross_item_traffic_inside_one_group_is_refuted() {
        // One work-group, so no group-level check can see any of it.
        let mut dc = cfg(&[7], &[7], &[("a", &[8]), ("m", &[2, 8])]);
        dc.scalars.insert("w".to_string(), 8);
        // Item x reads the element item x - 1 wrote.
        let log = log_for(LANES, "Shift", &dc);
        assert!(refute_slices(&log.groups, 0, false).is_none());
        let detail = refute_slices(&log.lanes, 0, false).expect("the shift is refuted");
        assert!(detail.contains("a["), "{detail}");
        // `m[0][x + 9]` of an 8-wide row *is* `m[1][x + 1]`: only the
        // flattened address shows it.
        let log = log_for(LANES, "RowOverflow", &dc);
        assert!(refute_slices(&log.lanes, 0, false).is_some());
        // Inside its row the same kernel touches row 0 and row 1 apart.
        let log = log_for(LANES, "InRow", &dc);
        assert!(refute_slices(&log.lanes, 0, false).is_none());
    }

    #[test]
    fn overlapping_dispatches_are_refuted() {
        // w004's Produce and Scale both touch `v[gid]`: a (bogus)
        // mergeable claim must be refuted.
        let dc = cfg(&[8], &[4], &[("v", &[8])]);
        let a = log_for(W004, "Produce", &dc);
        let b = log_for(W004, "Scale", &dc);
        assert!(refute_merge(&a.groups, &b.groups).is_some());

        // fusion_ok's Double and Square write disjoint buffers: the
        // genuine mergeable claim survives.
        let dc = cfg(&[8], &[4], &[("inp", &[8]), ("dbl", &[8]), ("sqr", &[8])]);
        let a = log_for(FUSION_OK, "Double", &dc);
        let b = log_for(FUSION_OK, "Square", &dc);
        assert!(refute_merge(&a.groups, &b.groups).is_none());
    }
}
