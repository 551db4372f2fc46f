//! Module compilation: semantic analysis + VM bytecode + kernel plans.
//!
//! The compiler enforces the paper's structural rules (Figure 1's
//! "Ensemble compiler" box plus the §6.1 extensions):
//!
//! * an `opencl` actor presents an interface with **exactly one** `in`
//!   channel conveying an `opencl struct`;
//! * an `opencl struct` starts with two `integer []` fields (worksize,
//!   groupsize), then an `in` and an `out` channel; trailing scalar
//!   `integer` fields are allowed and become extra kernel arguments;
//! * a kernel behaviour is `receive settings; receive data; <kernel>;
//!   send result` — the kernel region compiles to OpenCL C at *Ensemble*
//!   compile time (errors surface here, not at runtime kernel build);
//! * a value of a `mov` type must not be used again after being sent
//!   until it is reassigned (the use-after-send check of §4).

use crate::ast::*;
use crate::diag::Diagnostic;
use crate::kernelgen::{self, KernelGenInput};
use crate::parser;
use crate::token::{Pos, Span};
use crate::vmops::*;
use std::collections::{BTreeSet, HashMap};

/// A compile failure with position.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileError {
    /// Description.
    pub message: String,
    /// Location in the `.ens` source.
    pub pos: Span,
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: compile error: {}", self.pos, self.message)
    }
}

impl From<kernelgen::KernelGenError> for CompileError {
    fn from(e: kernelgen::KernelGenError) -> CompileError {
        CompileError {
            message: e.diag.message,
            pos: e.diag.span,
        }
    }
}

/// Facts an external analysis pass (see `crates/analysis`) may prove
/// about a module and thread into compilation.
#[derive(Debug, Clone, Default)]
pub struct CompileOptions {
    /// Kernel-actor names whose `mov` data provably never crosses an
    /// OpenCL context (every consumer of the data type runs on one
    /// device). Their [`KernelPlan`]s get `residency_proven = true` and
    /// the VM skips the runtime cross-context residency check (§6.2.3).
    pub residency_proven: BTreeSet<String>,
    /// Per-kernel splittability/fusion proofs keyed by kernel-actor
    /// name; attached to each [`KernelPlan`] so the VM can emit
    /// `proof_splittable`/`proof_fusable` trace instants at dispatch.
    pub kernel_proofs: std::collections::BTreeMap<String, crate::proof::KernelProof>,
    /// The module-level proof inventory, stored whole on the
    /// [`CompiledModule`].
    pub proofs: crate::proof::ProofSet,
}

/// Failure of the analysis-gated compilation pipeline
/// ([`compile_source_gated`]).
#[derive(Debug, Clone)]
pub enum GateError {
    /// The source did not parse.
    Parse(parser::ParseError),
    /// The analysis gate rejected the program (deny-by-default).
    Rejected(Vec<Diagnostic>),
    /// Analysis passed but compilation failed.
    Compile(CompileError),
}

impl std::fmt::Display for GateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GateError::Parse(e) => write!(f, "{e}"),
            GateError::Compile(e) => write!(f, "{e}"),
            GateError::Rejected(diags) => {
                write!(f, "rejected by static analysis:")?;
                for d in diags {
                    write!(f, "\n  {d}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for GateError {}

/// Parse `src`, run `gate` over the AST, and compile with whatever
/// facts the gate proved. This is the deny-by-default hook the static
/// analysis suite (`crates/analysis`) wires into: the gate returns
/// `Err(diagnostics)` to reject the program before codegen, or
/// `Ok(options)` carrying proofs (e.g. residency) into [`KernelPlan`]s.
pub fn compile_source_gated<F>(src: &str, gate: F) -> Result<CompiledModule, GateError>
where
    F: FnOnce(&Module) -> Result<CompileOptions, Vec<Diagnostic>>,
{
    let module = parser::parse(src).map_err(GateError::Parse)?;
    let opts = gate(&module).map_err(GateError::Rejected)?;
    compile_module_with(&module, &opts).map_err(GateError::Compile)
}

/// Parse and compile an Ensemble source to a [`CompiledModule`].
pub fn compile_source(src: &str) -> Result<CompiledModule, CompileError> {
    let module = parser::parse(src).map_err(|e| CompileError {
        message: e.message,
        pos: Span::point(e.pos),
    })?;
    compile_module(&module)
}

/// Static value kinds tracked for code generation.
#[derive(Debug, Clone, PartialEq)]
enum K {
    Int,
    Real,
    Bool,
    Str,
    Arr,
    Struct(u16),
    Chan(Dir, Box<K>),
    Actor(u16),
    Unknown,
}

fn kind_of_type(ty: &TypeExpr, structs: &HashMap<String, u16>) -> K {
    match ty {
        TypeExpr::Integer => K::Int,
        TypeExpr::Real => K::Real,
        TypeExpr::Boolean => K::Bool,
        TypeExpr::StringT => K::Str,
        TypeExpr::Array(..) => K::Arr,
        TypeExpr::Named(n) => structs.get(n).map(|&i| K::Struct(i)).unwrap_or(K::Unknown),
        TypeExpr::ChanIn(t) => K::Chan(Dir::In, Box::new(kind_of_type(t, structs))),
        TypeExpr::ChanOut(t) => K::Chan(Dir::Out, Box::new(kind_of_type(t, structs))),
    }
}

struct StructInfo {
    meta: StructMeta,
    field_types: Vec<TypeExpr>,
    opencl: bool,
}

/// Compile a parsed module (no analysis facts).
pub fn compile_module(module: &Module) -> Result<CompiledModule, CompileError> {
    compile_module_with(module, &CompileOptions::default())
}

/// Compile a parsed module with facts proven by an analysis pass.
pub fn compile_module_with(
    module: &Module,
    opts: &CompileOptions,
) -> Result<CompiledModule, CompileError> {
    if module.stages.len() != 1 {
        let pos = module
            .stages
            .first()
            .map(|s| s.pos)
            .unwrap_or(Span::point(Pos { line: 1, col: 1 }));
        return Err(CompileError {
            message: format!("expected exactly one stage, found {}", module.stages.len()),
            pos,
        });
    }
    let stage = &module.stages[0];

    // Type tables.
    let mut struct_ids: HashMap<String, u16> = HashMap::new();
    let mut structs: Vec<StructInfo> = Vec::new();
    let mut interfaces: HashMap<String, Vec<Port>> = HashMap::new();
    for t in &module.types {
        match t {
            TypeDecl::Struct {
                name,
                fields,
                opencl,
                pos,
            } => {
                if struct_ids.contains_key(name) {
                    return Err(CompileError {
                        message: format!("duplicate type `{name}`"),
                        pos: *pos,
                    });
                }
                let id = structs.len() as u16;
                struct_ids.insert(name.clone(), id);
                let movs: Vec<bool> = fields.iter().map(|f| f.mov).collect();
                structs.push(StructInfo {
                    meta: StructMeta {
                        name: name.clone(),
                        fields: fields.iter().map(|f| f.name.clone()).collect(),
                        any_mov: movs.iter().any(|&m| m),
                        movs,
                    },
                    field_types: fields.iter().map(|f| f.ty.clone()).collect(),
                    opencl: *opencl,
                });
            }
            TypeDecl::Interface { name, ports, pos } => {
                if interfaces.contains_key(name) {
                    return Err(CompileError {
                        message: format!("duplicate interface `{name}`"),
                        pos: *pos,
                    });
                }
                interfaces.insert(name.clone(), ports.clone());
            }
        }
    }
    // Validate opencl structs.
    for s in &structs {
        if s.opencl {
            validate_opencl_struct(s)?;
        }
    }

    let mut cm = CompiledModule {
        strings: Vec::new(),
        structs: structs.iter().map(|s| s.meta.clone()).collect(),
        actors: Vec::new(),
        boot: Chunk::default(),
        stage_name: stage.name.clone(),
        proofs: opts.proofs.clone(),
    };

    let actor_ids: HashMap<String, u16> = stage
        .actors
        .iter()
        .enumerate()
        .map(|(i, a)| (a.name.clone(), i as u16))
        .collect();

    let mut cx = Cx {
        struct_ids: &struct_ids,
        structs: &structs,
        actor_ids: &actor_ids,
        interfaces: &interfaces,
        strings: Vec::new(),
    };

    for actor in &stage.actors {
        let compiled = if actor.opencl.is_some() {
            compile_kernel_actor(&mut cx, actor, opts)?
        } else {
            compile_host_actor(&mut cx, actor)?
        };
        cm.actors.push(compiled);
    }

    // Boot: knows the actors, has no ports/fields of its own.
    let mut f = FnCx::new(&mut cx, &[]);
    f.in_boot = true;
    for s in &stage.boot {
        f.stmt(s)?;
    }
    cm.boot = Chunk {
        code: f.code,
        nslots: f.max_slot,
    };
    cm.strings = cx.strings;
    Ok(cm)
}

fn validate_opencl_struct(s: &StructInfo) -> Result<(), CompileError> {
    let pos = Span::point(Pos { line: 1, col: 1 });
    let fail = |msg: String| {
        Err(CompileError {
            message: format!("opencl struct `{}`: {msg}", s.meta.name),
            pos,
        })
    };
    if s.field_types.len() < 4 {
        return fail("needs worksize, groupsize, in and out channel fields".into());
    }
    let int_arr = TypeExpr::Array(Box::new(TypeExpr::Integer), 1);
    if s.field_types[0] != int_arr || s.field_types[1] != int_arr {
        return fail("the first two fields must be `integer []` worksize and groupsize".into());
    }
    if !matches!(s.field_types[2], TypeExpr::ChanIn(_)) {
        return fail("the third field must be an `in` channel".into());
    }
    if !matches!(s.field_types[3], TypeExpr::ChanOut(_)) {
        return fail("the fourth field must be an `out` channel".into());
    }
    for t in &s.field_types[4..] {
        if !matches!(t, TypeExpr::Integer) {
            return fail(format!(
                "fields after the channels must be `integer` scalars (found `{t}`); \
                 real-typed extra kernel arguments are not supported"
            ));
        }
    }
    Ok(())
}

struct Cx<'a> {
    struct_ids: &'a HashMap<String, u16>,
    structs: &'a [StructInfo],
    actor_ids: &'a HashMap<String, u16>,
    interfaces: &'a HashMap<String, Vec<Port>>,
    strings: Vec<String>,
}

impl<'a> Cx<'a> {
    fn string_id(&mut self, s: &str) -> u16 {
        if let Some(i) = self.strings.iter().position(|x| x == s) {
            return i as u16;
        }
        self.strings.push(s.to_string());
        (self.strings.len() - 1) as u16
    }
}

fn resolve_ports(cx: &Cx<'_>, actor: &ActorDecl) -> Result<Vec<(PortMeta, K)>, CompileError> {
    let ports = cx.interfaces.get(&actor.interface).ok_or(CompileError {
        message: format!(
            "actor `{}` presents unknown interface `{}`",
            actor.name, actor.interface
        ),
        pos: actor.pos,
    })?;
    Ok(ports
        .iter()
        .map(|p| {
            let elem = kind_of_type(&p.ty, cx.struct_ids);
            (
                PortMeta {
                    name: p.name.clone(),
                    dir: p.dir,
                    capacity: 4,
                },
                K::Chan(p.dir, Box::new(elem)),
            )
        })
        .collect())
}

fn compile_host_actor(cx: &mut Cx<'_>, actor: &ActorDecl) -> Result<CompiledActor, CompileError> {
    let ports = resolve_ports(cx, actor)?;

    // Slot layout: ports, then fields, then block temporaries.
    let mut base: Vec<(String, u16, K)> = Vec::new();
    for (i, (p, k)) in ports.iter().enumerate() {
        base.push((p.name.clone(), i as u16, k.clone()));
    }
    let nports = ports.len() as u16;

    // Field initialisers: run once with only the ports in scope, storing
    // into the persistent field slots.
    let mut field_base = base.clone();
    let mut finit = FnCx::new(cx, &base);
    finit.next_slot = nports + actor.fields.len() as u16;
    finit.max_slot = finit.next_slot;
    for (i, (name, value)) in actor.fields.iter().enumerate() {
        let slot = nports + i as u16;
        let k = finit.expr(value)?;
        finit.code.push(VOp::St(slot));
        field_base.push((name.clone(), slot, k));
    }
    let field_init = Chunk {
        code: finit.code,
        nslots: finit.max_slot,
    };
    let nfields = actor.fields.len() as u16;

    let mut cc = FnCx::new(cx, &field_base);
    cc.next_slot = nports + nfields;
    cc.max_slot = cc.next_slot;
    for s in &actor.constructor {
        cc.stmt(s)?;
    }
    let constructor = Chunk {
        code: cc.code,
        nslots: cc.max_slot,
    };

    let mut bc = FnCx::new(cx, &field_base);
    bc.next_slot = nports + nfields;
    bc.max_slot = bc.next_slot;
    for s in &actor.behaviour {
        bc.stmt(s)?;
    }
    let behaviour = Chunk {
        code: bc.code,
        nslots: bc.max_slot,
    };

    Ok(CompiledActor {
        name: actor.name.clone(),
        ports: ports.into_iter().map(|(p, _)| p).collect(),
        nfields,
        field_init,
        code: ActorCode::Host {
            constructor,
            behaviour,
        },
    })
}

fn elem_kind_of(ty: &TypeExpr) -> Option<(ElemKind, usize)> {
    match ty {
        TypeExpr::Array(elem, nd) => match **elem {
            TypeExpr::Integer => Some((ElemKind::Int, *nd)),
            TypeExpr::Real => Some((ElemKind::Real, *nd)),
            TypeExpr::Boolean => Some((ElemKind::Bool, *nd)),
            _ => None,
        },
        _ => None,
    }
}

fn compile_kernel_actor(
    cx: &mut Cx<'_>,
    actor: &ActorDecl,
    opts: &CompileOptions,
) -> Result<CompiledActor, CompileError> {
    let attrs = actor.opencl.clone().expect("kernel actor");
    let ports = resolve_ports(cx, actor)?;
    // §6.1.1: "the actor's interface should only contain a single channel".
    if ports.len() != 1 || ports[0].0.dir != Dir::In {
        return Err(CompileError {
            message: format!(
                "opencl actor `{}` must present exactly one `in` channel",
                actor.name
            ),
            pos: actor.pos,
        });
    }
    let settings_kind = match &ports[0].1 {
        K::Chan(Dir::In, elem) => (**elem).clone(),
        _ => unreachable!("checked above"),
    };
    let K::Struct(settings_id) = settings_kind else {
        return Err(CompileError {
            message: "the kernel channel must convey an opencl struct".into(),
            pos: actor.pos,
        });
    };
    let sinfo = &cx.structs[settings_id as usize];
    if !sinfo.opencl {
        return Err(CompileError {
            message: format!("`{}` is not declared `opencl struct`", sinfo.meta.name),
            pos: actor.pos,
        });
    }
    let settings_scalars: Vec<String> = sinfo.meta.fields[4..].to_vec();
    let data_type = match &sinfo.field_types[2] {
        TypeExpr::ChanIn(t) => (**t).clone(),
        _ => unreachable!("validated"),
    };

    // Behaviour structure: receive settings; receive data; body; send.
    let b = &actor.behaviour;
    if b.len() < 3 {
        return Err(CompileError {
            message: "kernel behaviour must be: receive settings; receive data; ...; send".into(),
            pos: actor.pos,
        });
    }
    let Stmt::Receive {
        name: req_name,
        chan: Expr::Path(chan_root, chan_path, _),
        ..
    } = &b[0]
    else {
        return Err(CompileError {
            message: "the first statement of a kernel behaviour must receive the settings".into(),
            pos: actor.pos,
        });
    };
    if chan_root != &ports[0].0.name || !chan_path.is_empty() {
        return Err(CompileError {
            message: "the settings must be received from the actor's single channel".into(),
            pos: actor.pos,
        });
    }
    let Stmt::Receive {
        name: data_name,
        chan: Expr::Path(r2, p2, _),
        pos: rpos,
    } = &b[1]
    else {
        return Err(CompileError {
            message: "the second statement of a kernel behaviour must receive the data".into(),
            pos: actor.pos,
        });
    };
    let input_ok = r2 == req_name
        && matches!(p2.as_slice(), [PathSeg::Field(f)] if f == &sinfo.meta.fields[2]);
    if !input_ok {
        return Err(CompileError {
            message: format!(
                "the data must be received from `{req_name}.{}`",
                sinfo.meta.fields[2]
            ),
            pos: *rpos,
        });
    }
    let Stmt::Send {
        value: send_value,
        chan: Expr::Path(sr, sp, _),
        pos: spos,
    } = b.last().expect("len checked")
    else {
        return Err(CompileError {
            message: "the last statement of a kernel behaviour must be a send".into(),
            pos: actor.pos,
        });
    };
    let output_ok = sr == req_name
        && matches!(sp.as_slice(), [PathSeg::Field(f)] if f == &sinfo.meta.fields[3]);
    if !output_ok {
        return Err(CompileError {
            message: format!(
                "the result must be sent on `{req_name}.{}`",
                sinfo.meta.fields[3]
            ),
            pos: *spos,
        });
    }

    // Data shape + fields.
    let (data_shape, data_fields, mov) = match &data_type {
        TypeExpr::Named(n) => {
            let id = *cx.struct_ids.get(n).ok_or(CompileError {
                message: format!("unknown data type `{n}`"),
                pos: actor.pos,
            })?;
            let info = &cx.structs[id as usize];
            let mut fields = Vec::new();
            for (fname, fty) in info.meta.fields.iter().zip(&info.field_types) {
                let (elem, ndims) = elem_kind_of(fty).ok_or(CompileError {
                    message: format!("kernel data field `{fname}` must be an integer/real array"),
                    pos: actor.pos,
                })?;
                fields.push(DataField {
                    name: fname.clone(),
                    elem,
                    ndims,
                });
            }
            (DataShape::Struct { type_id: id }, fields, info.meta.any_mov)
        }
        arr @ TypeExpr::Array(..) => {
            let (elem, ndims) = elem_kind_of(arr).expect("array type");
            (
                DataShape::Array { elem, ndims },
                vec![DataField {
                    name: data_name.clone(),
                    elem,
                    ndims,
                }],
                false,
            )
        }
        other => {
            return Err(CompileError {
                message: format!("unsupported kernel data type `{other}`"),
                pos: actor.pos,
            })
        }
    };

    // What is sent onward?
    let out = match send_value {
        Expr::Path(root, path, _) if root == data_name && path.is_empty() => KernelOut::Whole,
        Expr::Path(root, path, pos) if root == data_name => match path.as_slice() {
            [PathSeg::Field(f)] => {
                let idx = data_fields
                    .iter()
                    .position(|df| &df.name == f)
                    .ok_or(CompileError {
                        message: format!("unknown data field `{f}` in send"),
                        pos: *pos,
                    })?;
                KernelOut::Field(idx)
            }
            _ => {
                return Err(CompileError {
                    message: "a kernel may send the data value or one of its fields".into(),
                    pos: *pos,
                })
            }
        },
        other => {
            return Err(CompileError {
                message: "a kernel may send the data value or one of its fields".into(),
                pos: other.pos(),
            })
        }
    };

    if mov && !matches!(out, KernelOut::Whole) {
        return Err(CompileError {
            message: format!(
                "kernel actor `{}`: a mov data value must be sent whole \
                 (`send {data_name} on ...`); sending a single field of a \
                 device-resident value is not supported",
                actor.name
            ),
            pos: actor.pos,
        });
    }

    // Generate the OpenCL C.
    let body = &b[2..b.len() - 1];
    let source = kernelgen::generate(&KernelGenInput {
        name: &actor.name,
        data_fields: &data_fields,
        settings_scalars: &settings_scalars,
        req_name,
        data_name,
        data_is_struct: matches!(data_shape, DataShape::Struct { .. }),
        body,
        disjoint_items: opts
            .kernel_proofs
            .get(&actor.name)
            .is_some_and(|p| p.split.proves_disjoint_items()),
    })?;

    Ok(CompiledActor {
        name: actor.name.clone(),
        ports: ports.into_iter().map(|(p, _)| p).collect(),
        nfields: 0,
        field_init: Chunk::default(),
        code: ActorCode::Kernel(Box::new(KernelPlan {
            source,
            kernel_name: actor.name.clone(),
            device_index: attrs.device_index,
            device_type: attrs.device_type,
            requests_port: 0,
            data_shape,
            data_fields,
            settings_scalars,
            mov,
            out,
            residency_proven: mov && opts.residency_proven.contains(&actor.name),
            proofs: opts.kernel_proofs.get(&actor.name).cloned(),
        })),
    })
}

// ---- statement / expression compilation for host code ----

struct Var {
    slot: u16,
    kind: K,
    /// Set after the variable was sent on a mov channel; cleared by
    /// reassignment (the §4 use-after-send analysis).
    moved_away: bool,
}

struct FnCx<'c, 'a> {
    cx: &'c mut Cx<'a>,
    scopes: Vec<HashMap<String, Var>>,
    next_slot: u16,
    max_slot: u16,
    code: Vec<VOp>,
    in_boot: bool,
}

impl<'c, 'a> FnCx<'c, 'a> {
    fn new(cx: &'c mut Cx<'a>, base: &[(String, u16, K)]) -> Self {
        let mut scope = HashMap::new();
        let mut max = 0;
        for (name, slot, kind) in base {
            scope.insert(
                name.clone(),
                Var {
                    slot: *slot,
                    kind: kind.clone(),
                    moved_away: false,
                },
            );
            max = max.max(*slot + 1);
        }
        FnCx {
            cx,
            scopes: vec![scope],
            next_slot: max,
            max_slot: max,
            code: Vec::new(),
            in_boot: false,
        }
    }

    fn err<T>(&self, pos: Span, message: impl Into<String>) -> Result<T, CompileError> {
        Err(CompileError {
            message: message.into(),
            pos,
        })
    }

    fn alloc(&mut self) -> u16 {
        let s = self.next_slot;
        self.next_slot += 1;
        self.max_slot = self.max_slot.max(self.next_slot);
        s
    }

    fn bind(&mut self, name: &str, slot: u16, kind: K) {
        self.scopes.last_mut().expect("scope").insert(
            name.to_string(),
            Var {
                slot,
                kind,
                moved_away: false,
            },
        );
    }

    fn lookup(&self, name: &str) -> Option<(u16, K, bool)> {
        for s in self.scopes.iter().rev() {
            if let Some(v) = s.get(name) {
                return Some((v.slot, v.kind.clone(), v.moved_away));
            }
        }
        None
    }

    fn set_moved(&mut self, name: &str, moved: bool) {
        for s in self.scopes.iter_mut().rev() {
            if let Some(v) = s.get_mut(name) {
                v.moved_away = moved;
                return;
            }
        }
    }

    fn push_scope(&mut self) -> u16 {
        self.scopes.push(HashMap::new());
        self.next_slot
    }

    fn pop_scope(&mut self, saved: u16) {
        self.scopes.pop();
        self.next_slot = saved;
    }

    fn emit(&mut self, op: VOp) -> usize {
        self.code.push(op);
        self.code.len() - 1
    }

    fn patch(&mut self, at: usize) {
        let target = self.code.len() as u32;
        match &mut self.code[at] {
            VOp::Jmp(t) | VOp::Jz(t) => *t = target,
            other => panic!("patched non-jump {other:?}"),
        }
    }

    fn field_index(&self, struct_id: u16, name: &str, pos: Span) -> Result<(u8, K), CompileError> {
        let info = &self.cx.structs[struct_id as usize];
        match info.meta.fields.iter().position(|f| f == name) {
            Some(i) => {
                let kind = kind_of_type(&info.field_types[i], self.cx.struct_ids);
                Ok((i as u8, kind))
            }
            None => Err(CompileError {
                message: format!("`{}` has no field `{name}`", info.meta.name),
                pos,
            }),
        }
    }

    /// Compile a path READ. Returns the resulting kind.
    fn path(&mut self, root: &str, segs: &[PathSeg], pos: Span) -> Result<K, CompileError> {
        let (slot, mut kind, moved) = match self.lookup(root) {
            Some(v) => v,
            None => return self.err(pos, format!("unknown variable `{root}`")),
        };
        if moved {
            return self.err(
                pos,
                format!("`{root}` was sent on a mov channel and not reassigned (§4)"),
            );
        }
        self.emit(VOp::Ld(slot));
        for seg in segs {
            match seg {
                PathSeg::Field(f) => match kind.clone() {
                    K::Actor(_) => {
                        let id = self.cx.string_id(f);
                        self.emit(VOp::GetPort(id));
                        kind = K::Unknown;
                    }
                    K::Struct(sid) => {
                        let (idx, fk) = self.field_index(sid, f, pos)?;
                        self.emit(VOp::GetField(idx));
                        kind = fk;
                    }
                    K::Unknown => {
                        return self.err(
                            pos,
                            format!("cannot resolve `.{f}` on a value of unknown type"),
                        )
                    }
                    other => return self.err(pos, format!("`.{f}` on non-struct value {other:?}")),
                },
                PathSeg::Index(ie) => {
                    self.expr(ie)?;
                    self.emit(VOp::IdxLd);
                    kind = K::Unknown;
                }
            }
        }
        Ok(kind)
    }

    fn expr(&mut self, e: &Expr) -> Result<K, CompileError> {
        match e {
            Expr::Int(v, _) => {
                self.emit(VOp::PushI(*v));
                Ok(K::Int)
            }
            Expr::Real(v, _) => {
                self.emit(VOp::PushR(*v));
                Ok(K::Real)
            }
            Expr::Bool(b, _) => {
                self.emit(VOp::PushB(*b));
                Ok(K::Bool)
            }
            Expr::Str(s, _) => {
                let id = self.cx.string_id(s);
                self.emit(VOp::PushStr(id));
                Ok(K::Str)
            }
            Expr::Path(root, segs, pos) => self.path(root, segs, *pos),
            Expr::Neg(inner, _) => {
                let k = self.expr(inner)?;
                self.emit(VOp::Neg);
                Ok(k)
            }
            Expr::Not(inner, _) => {
                self.expr(inner)?;
                self.emit(VOp::NotOp);
                Ok(K::Bool)
            }
            Expr::Binary(op, l, r, _) => {
                let lk = self.expr(l)?;
                let rk = self.expr(r)?;
                let (vop, kind) = match op {
                    BinOp::Add => (VOp::Add, numeric(lk, rk)),
                    BinOp::Sub => (VOp::Sub, numeric(lk, rk)),
                    BinOp::Mul => (VOp::Mul, numeric(lk, rk)),
                    BinOp::Div => (VOp::Div, numeric(lk, rk)),
                    BinOp::Rem => (VOp::Rem, K::Int),
                    BinOp::Eq => (VOp::CmpEq, K::Bool),
                    BinOp::Ne => (VOp::CmpNe, K::Bool),
                    BinOp::Lt => (VOp::CmpLt, K::Bool),
                    BinOp::Le => (VOp::CmpLe, K::Bool),
                    BinOp::Gt => (VOp::CmpGt, K::Bool),
                    BinOp::Ge => (VOp::CmpGe, K::Bool),
                    BinOp::And => (VOp::AndOp, K::Bool),
                    BinOp::Or => (VOp::OrOp, K::Bool),
                };
                self.emit(vop);
                Ok(kind)
            }
            Expr::Call(name, args, pos) => match name.as_str() {
                "generate_vector" => {
                    self.n_args(args, 2, *pos, name)?;
                    self.emit(VOp::CallNative(NativeFn::GenerateVector, 2));
                    Ok(K::Arr)
                }
                "generate_matrix" => {
                    self.n_args(args, 3, *pos, name)?;
                    self.emit(VOp::CallNative(NativeFn::GenerateMatrix, 3));
                    Ok(K::Arr)
                }
                "generate_dominant" => {
                    self.n_args(args, 2, *pos, name)?;
                    self.emit(VOp::CallNative(NativeFn::GenerateDominant, 2));
                    Ok(K::Arr)
                }
                "checksum" => {
                    self.n_args(args, 1, *pos, name)?;
                    self.emit(VOp::CallNative(NativeFn::Checksum, 1));
                    Ok(K::Real)
                }
                "toReal" => {
                    self.one_arg(args, *pos, "toReal")?;
                    self.emit(VOp::ToReal);
                    Ok(K::Real)
                }
                "toInt" => {
                    self.one_arg(args, *pos, "toInt")?;
                    self.emit(VOp::ToInt);
                    Ok(K::Int)
                }
                "lengthof" => {
                    self.one_arg(args, *pos, "lengthof")?;
                    self.emit(VOp::LengthOf);
                    Ok(K::Int)
                }
                other => self.err(
                    *pos,
                    format!("`{other}` is only available inside kernel actors"),
                ),
            },
            Expr::NewArray {
                elem,
                dims,
                fill,
                pos: _,
            } => {
                if let Some(f) = fill {
                    self.expr(f)?;
                }
                for d in dims {
                    self.expr(d)?;
                }
                let ek = match elem {
                    TypeExpr::Integer => ElemKind::Int,
                    TypeExpr::Real => ElemKind::Real,
                    _ => ElemKind::Bool,
                };
                self.emit(VOp::NewArr {
                    ndims: dims.len() as u8,
                    elem: ek,
                    has_fill: fill.is_some(),
                });
                Ok(K::Arr)
            }
            Expr::NewStruct { name, args, pos } => {
                let id = match self.cx.struct_ids.get(name) {
                    Some(&i) => i,
                    None => return self.err(*pos, format!("unknown struct type `{name}`")),
                };
                let nfields = self.cx.structs[id as usize].meta.fields.len();
                if args.len() != nfields {
                    return self.err(
                        *pos,
                        format!("`{name}` has {nfields} fields; {} given", args.len()),
                    );
                }
                for a in args {
                    self.expr(a)?;
                }
                self.emit(VOp::NewStructV {
                    type_id: id,
                    nfields: nfields as u8,
                });
                Ok(K::Struct(id))
            }
            Expr::NewActor { name, pos } => {
                if !self.in_boot {
                    return self.err(*pos, "actors can only be created in the boot block");
                }
                let id = match self.cx.actor_ids.get(name) {
                    Some(&i) => i,
                    None => {
                        // Could be a zero-field struct; reject with a hint.
                        return self.err(*pos, format!("unknown actor type `{name}`"));
                    }
                };
                self.emit(VOp::SpawnActor(id));
                Ok(K::Actor(id))
            }
            Expr::NewChanIn(ty, _) => {
                self.emit(VOp::NewChanIn);
                Ok(K::Chan(
                    Dir::In,
                    Box::new(kind_of_type(ty, self.cx.struct_ids)),
                ))
            }
            Expr::NewChanOut(ty, _) => {
                self.emit(VOp::NewChanOut);
                Ok(K::Chan(
                    Dir::Out,
                    Box::new(kind_of_type(ty, self.cx.struct_ids)),
                ))
            }
        }
    }

    fn one_arg(&mut self, args: &[Expr], pos: Span, name: &str) -> Result<(), CompileError> {
        self.n_args(args, 1, pos, name)
    }

    fn n_args(
        &mut self,
        args: &[Expr],
        n: usize,
        pos: Span,
        name: &str,
    ) -> Result<(), CompileError> {
        if args.len() != n {
            return self.err(pos, format!("`{name}` takes {n} argument(s)"));
        }
        for a in args {
            self.expr(a)?;
        }
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> Result<(), CompileError> {
        match s {
            Stmt::Declare { name, value, .. } => {
                let k = self.expr(value)?;
                let slot = self.alloc();
                self.emit(VOp::St(slot));
                self.bind(name, slot, k);
                Ok(())
            }
            Stmt::DeclareLocal { pos, .. } => self.err(
                *pos,
                "`local` declarations are only valid inside kernel actors",
            ),
            Stmt::Assign {
                name,
                path,
                value,
                pos,
            } => {
                if path.is_empty() {
                    let k = self.expr(value)?;
                    let (slot, _, _) = match self.lookup(name) {
                        Some(v) => v,
                        None => return self.err(*pos, format!("unknown variable `{name}`")),
                    };
                    self.emit(VOp::St(slot));
                    // Reassignment revives a moved-away variable (§6.2.3:
                    // "not accessed again until it is assigned to").
                    self.set_moved(name, false);
                    let _ = k;
                    return Ok(());
                }
                // Navigate to the container, then store into the last seg.
                let (last, init) = path.split_last().expect("non-empty");
                let container_kind = self.path(name, init, *pos)?;
                match last {
                    PathSeg::Index(ie) => {
                        self.expr(ie)?;
                        self.expr(value)?;
                        self.emit(VOp::IdxSt);
                    }
                    PathSeg::Field(f) => {
                        let idx = match container_kind {
                            K::Struct(sid) => self.field_index(sid, f, *pos)?.0,
                            _ => {
                                return self.err(
                                    *pos,
                                    format!("cannot assign `.{f}` on a non-struct value"),
                                )
                            }
                        };
                        self.expr(value)?;
                        self.emit(VOp::SetField(idx));
                    }
                }
                Ok(())
            }
            Stmt::Send { value, chan, pos } => {
                let chan_kind = match chan {
                    Expr::Path(root, segs, cpos) => self.path(root, segs, *cpos)?,
                    other => return self.err(other.pos(), "send target must be a channel path"),
                };
                // Determine movability from the value's static kind.
                let vk = self.expr(value)?;
                let mov = match &vk {
                    K::Struct(id) => self.cx.structs[*id as usize].meta.any_mov,
                    _ => false,
                };
                match chan_kind {
                    K::Chan(Dir::Out, _) | K::Unknown => {}
                    other => {
                        return self.err(
                            *pos,
                            format!("send target is not an out channel ({other:?})"),
                        )
                    }
                }
                self.emit(VOp::SendOp { mov });
                // Use-after-send: a moved value must not be read again.
                // Sending any path rooted at a mov variable conservatively
                // moves the whole root (sending `s.inner` moves `s`).
                // Known limitation vs. the paper's inter-procedural
                // analysis: aliases created by `b := a` are not tracked —
                // the runtime still behaves safely (the alias observes the
                // shared mov state), but the compile-time rejection only
                // covers the sent name.
                if mov {
                    if let Expr::Path(root, _, _) = value {
                        self.set_moved(root, true);
                    }
                }
                Ok(())
            }
            Stmt::Receive { name, chan, pos } => {
                let chan_kind = match chan {
                    Expr::Path(root, segs, cpos) => self.path(root, segs, *cpos)?,
                    other => return self.err(other.pos(), "receive source must be a channel path"),
                };
                let elem = match chan_kind {
                    K::Chan(Dir::In, elem) => *elem,
                    K::Unknown => K::Unknown,
                    other => {
                        return self.err(
                            *pos,
                            format!("receive source is not an in channel ({other:?})"),
                        )
                    }
                };
                self.emit(VOp::RecvOp);
                let slot = self.alloc();
                self.emit(VOp::St(slot));
                self.bind(name, slot, elem);
                Ok(())
            }
            Stmt::Connect { from, to, pos } => {
                let fk = match from {
                    Expr::Path(root, segs, cpos) => self.path(root, segs, *cpos)?,
                    other => return self.err(other.pos(), "connect source must be a path"),
                };
                let tk = match to {
                    Expr::Path(root, segs, cpos) => self.path(root, segs, *cpos)?,
                    other => return self.err(other.pos(), "connect target must be a path"),
                };
                if matches!(fk, K::Chan(Dir::In, _)) || matches!(tk, K::Chan(Dir::Out, _)) {
                    return self.err(*pos, "connect goes from an out endpoint to an in endpoint");
                }
                self.emit(VOp::ConnectOp);
                Ok(())
            }
            Stmt::For {
                var,
                from,
                to,
                body,
                ..
            } => {
                let saved = self.push_scope();
                self.expr(from)?;
                let slot = self.alloc();
                self.emit(VOp::St(slot));
                self.bind(var, slot, K::Int);
                let start = self.code.len() as u32;
                self.emit(VOp::Ld(slot));
                self.expr(to)?;
                self.emit(VOp::CmpLe);
                let jz = self.emit(VOp::Jz(0));
                let inner = self.push_scope();
                for s in body {
                    self.stmt(s)?;
                }
                self.pop_scope(inner);
                self.emit(VOp::Ld(slot));
                self.emit(VOp::PushI(1));
                self.emit(VOp::Add);
                self.emit(VOp::St(slot));
                self.emit(VOp::Jmp(start));
                self.patch(jz);
                self.pop_scope(saved);
                Ok(())
            }
            Stmt::While { cond, body } => {
                let start = self.code.len() as u32;
                self.expr(cond)?;
                let jz = self.emit(VOp::Jz(0));
                let saved = self.push_scope();
                for s in body {
                    self.stmt(s)?;
                }
                self.pop_scope(saved);
                self.emit(VOp::Jmp(start));
                self.patch(jz);
                Ok(())
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
            } => {
                self.expr(cond)?;
                let jz = self.emit(VOp::Jz(0));
                let saved = self.push_scope();
                for s in then_blk {
                    self.stmt(s)?;
                }
                self.pop_scope(saved);
                if else_blk.is_empty() {
                    self.patch(jz);
                } else {
                    let jend = self.emit(VOp::Jmp(0));
                    self.patch(jz);
                    let saved = self.push_scope();
                    for s in else_blk {
                        self.stmt(s)?;
                    }
                    self.pop_scope(saved);
                    self.patch(jend);
                }
                Ok(())
            }
            Stmt::Print { kind, value, .. } => {
                self.expr(value)?;
                self.emit(VOp::Print(*kind));
                Ok(())
            }
            Stmt::Barrier { pos } => self.err(*pos, "barrier() is only valid inside kernel actors"),
            Stmt::Stop { .. } => {
                self.emit(VOp::StopOp);
                Ok(())
            }
        }
    }
}

fn numeric(l: K, r: K) -> K {
    if l == K::Real || r == K::Real {
        K::Real
    } else {
        K::Int
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiles_listing2() {
        let src = include_str!("../tests_data/listing2.ens");
        let m = compile_source(src).unwrap();
        assert_eq!(m.actors.len(), 2);
        assert!(matches!(m.actors[0].code, ActorCode::Host { .. }));
        assert_eq!(m.actors[0].nfields, 1);
        assert!(!m.boot.code.is_empty());
    }

    #[test]
    fn compiles_matmul_ocl_with_kernel_plan() {
        let src = include_str!("../../apps/src/assets/matmul/ocl.ens");
        let m = compile_source(src).unwrap();
        let kernel = m
            .actors
            .iter()
            .find(|a| a.name == "Multiply")
            .expect("Multiply actor");
        let ActorCode::Kernel(plan) = &kernel.code else {
            panic!("Multiply should be a kernel actor");
        };
        assert_eq!(plan.kernel_name, "Multiply");
        assert_eq!(plan.data_fields.len(), 3);
        assert_eq!(plan.out, KernelOut::Field(2));
        assert!(!plan.mov);
        assert_eq!(plan.device_type.as_deref(), Some("GPU"));
        assert!(plan.source.contains("__kernel void Multiply"));
        // The generated kernel must itself compile.
        let unit = oclsim::minicl::parse(&plan.source).unwrap();
        oclsim::minicl::compile(&unit).unwrap_or_else(|e| panic!("{e:?}\n{}", plan.source));
    }

    #[test]
    fn compiles_all_ocl_assets() {
        for (name, src) in [
            (
                "matmul",
                include_str!("../../apps/src/assets/matmul/ocl.ens"),
            ),
            (
                "mandelbrot",
                include_str!("../../apps/src/assets/mandelbrot/ocl.ens"),
            ),
            ("lud", include_str!("../../apps/src/assets/lud/ocl.ens")),
            (
                "reduction",
                include_str!("../../apps/src/assets/reduction/ocl.ens"),
            ),
            (
                "docrank",
                include_str!("../../apps/src/assets/docrank/ocl.ens"),
            ),
        ] {
            let m = compile_source(src).unwrap_or_else(|e| panic!("{name}: {e}"));
            for a in &m.actors {
                if let ActorCode::Kernel(plan) = &a.code {
                    let unit = oclsim::minicl::parse(&plan.source)
                        .unwrap_or_else(|e| panic!("{name}/{}: {e}\n{}", a.name, plan.source));
                    oclsim::minicl::compile(&unit)
                        .unwrap_or_else(|e| panic!("{name}/{}: {e:?}\n{}", a.name, plan.source));
                }
            }
        }
    }

    #[test]
    fn compiles_all_seq_assets() {
        for (name, src) in [
            (
                "matmul",
                include_str!("../../apps/src/assets/matmul/seq.ens"),
            ),
            (
                "mandelbrot",
                include_str!("../../apps/src/assets/mandelbrot/seq.ens"),
            ),
            ("lud", include_str!("../../apps/src/assets/lud/seq.ens")),
            (
                "reduction",
                include_str!("../../apps/src/assets/reduction/seq.ens"),
            ),
            (
                "docrank",
                include_str!("../../apps/src/assets/docrank/seq.ens"),
            ),
        ] {
            compile_source(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn lud_kernel_is_mov_and_has_settings_scalar() {
        let src = include_str!("../../apps/src/assets/lud/ocl.ens");
        let m = compile_source(src).unwrap();
        let ActorCode::Kernel(plan) = &m.actors.iter().find(|a| a.name == "Sub").unwrap().code
        else {
            panic!("Sub should be a kernel");
        };
        assert!(plan.mov, "lud_t has mov fields");
        assert_eq!(plan.settings_scalars, vec!["step".to_string()]);
        assert_eq!(plan.out, KernelOut::Whole);
        assert!(plan.source.contains("set_step"));
    }

    #[test]
    fn rejects_kernel_actor_with_two_ports() {
        let src = "
            type s is opencl struct (
                integer [] worksize; integer [] groupsize;
                in real [] input; out real [] output
            )
            type bad is interface(in s requests; in integer extra)
            stage home {
                opencl actor K presents bad {
                    constructor() {}
                    behaviour {
                        receive req from requests;
                        receive d from req.input;
                        send d on req.output;
                    }
                }
                boot {}
            }
        ";
        let err = compile_source(src).unwrap_err();
        assert!(err.message.contains("exactly one"));
    }

    #[test]
    fn rejects_malformed_opencl_struct() {
        let src = "
            type s is opencl struct ( real [] worksize; integer [] groupsize;
                                      in real [] input; out real [] output )
            stage home { boot {} }
        ";
        let err = compile_source(src).unwrap_err();
        assert!(err.message.contains("worksize"));
    }

    #[test]
    fn rejects_kernel_without_protocol() {
        let src = "
            type s is opencl struct (
                integer [] worksize; integer [] groupsize;
                in real [] input; out real [] output
            )
            type i is interface(in s requests)
            stage home {
                opencl actor K presents i {
                    constructor() {}
                    behaviour {
                        x = 1;
                        printInt(x);
                    }
                }
                boot {}
            }
        ";
        let err = compile_source(src).unwrap_err();
        assert!(err.message.contains("receive"));
    }

    #[test]
    fn use_after_mov_send_is_rejected() {
        let src = "
            type d is struct ( mov real [] payload )
            type i is interface(out d output)
            stage home {
                actor a presents i {
                    constructor() {}
                    behaviour {
                        p = new real[4];
                        v = new d(p);
                        send v on output;
                        x = v.payload[0];
                        stop;
                    }
                }
                boot {}
            }
        ";
        let err = compile_source(src).unwrap_err();
        assert!(err.message.contains("mov"), "{err}");
    }

    #[test]
    fn reassignment_revives_moved_variable() {
        let src = "
            type d is struct ( mov real [] payload )
            type i is interface(out d output)
            stage home {
                actor a presents i {
                    constructor() {}
                    behaviour {
                        p = new real[4];
                        v = new d(p);
                        send v on output;
                        q = new real[4];
                        v := new d(q);
                        x = v.payload[0];
                        stop;
                    }
                }
                boot {}
            }
        ";
        compile_source(src).unwrap();
    }

    #[test]
    fn actor_creation_outside_boot_is_rejected() {
        let src = "
            type i is interface(out integer output)
            stage home {
                actor a presents i {
                    constructor() {}
                    behaviour {
                        b = new a();
                        stop;
                    }
                }
                boot {}
            }
        ";
        let err = compile_source(src).unwrap_err();
        assert!(err.message.contains("boot"));
    }
}
