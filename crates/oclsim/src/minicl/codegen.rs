//! Combined semantic analysis and bytecode emission.
//!
//! Compilation is a single pass per function (after a signature-collection
//! pass), accumulating diagnostics instead of bailing at the first error —
//! the build log a real OpenCL driver would hand back. This is also where
//! the paper's compile-time guarantees live: type errors, writes through
//! `const` pointers, and malformed kernels are reported with line/column
//! positions *before* any dispatch happens.

use super::ast::*;
use super::bytecode::*;
use super::token::Pos;
use std::collections::HashMap;

/// One diagnostic in the build log.
#[derive(Debug, Clone, PartialEq)]
pub struct Diag {
    /// Human-readable message.
    pub message: String,
    /// Source position.
    pub pos: Pos,
}

impl std::fmt::Display for Diag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: error: {}", self.pos, self.message)
    }
}

/// Compile a parsed unit to bytecode, or return every diagnostic found.
pub fn compile(unit: &Unit) -> Result<CompiledUnit, Vec<Diag>> {
    let mut cg = Compiler::new(unit);
    cg.run();
    if cg.diags.is_empty() {
        Ok(cg.out)
    } else {
        Err(cg.diags)
    }
}

#[derive(Clone)]
struct Sig {
    index: usize,
    is_kernel: bool,
    ret: Type,
    params: Vec<Type>,
}

#[derive(Clone)]
struct LocalVar {
    slot: u16,
    ty: Type,
    is_const: bool,
}

struct Compiler<'a> {
    unit: &'a Unit,
    sigs: HashMap<String, Sig>,
    out: CompiledUnit,
    diags: Vec<Diag>,
    // Per-function state.
    scopes: Vec<HashMap<String, LocalVar>>,
    next_slot: u16,
    max_slot: u16,
    ret_ty: Type,
    in_kernel: bool,
    // Kernel-only state.
    n_local_param_regions: u16,
    local_decl_bytes: Vec<usize>,
    priv_offset: u32,
    saw_barrier: bool,
    called: Vec<usize>,
}

impl<'a> Compiler<'a> {
    fn new(unit: &'a Unit) -> Self {
        Compiler {
            unit,
            sigs: HashMap::new(),
            out: CompiledUnit::default(),
            diags: Vec::new(),
            scopes: Vec::new(),
            next_slot: 0,
            max_slot: 0,
            ret_ty: Type::Void,
            in_kernel: false,
            n_local_param_regions: 0,
            local_decl_bytes: Vec::new(),
            priv_offset: 0,
            saw_barrier: false,
            called: Vec::new(),
        }
    }

    fn err(&mut self, pos: Pos, message: impl Into<String>) {
        self.diags.push(Diag {
            message: message.into(),
            pos,
        });
    }

    fn run(&mut self) {
        // Pass 1: signatures (enables forward calls between device funcs).
        let mut dev_index = 0usize;
        for f in &self.unit.funcs {
            if self.sigs.contains_key(&f.name) {
                self.err(f.pos, format!("duplicate function `{}`", f.name));
                continue;
            }
            let sig = Sig {
                index: if f.is_kernel { usize::MAX } else { dev_index },
                is_kernel: f.is_kernel,
                ret: f.ret.clone(),
                params: f.params.iter().map(|p| p.ty.clone()).collect(),
            };
            if !f.is_kernel {
                dev_index += 1;
            }
            self.sigs.insert(f.name.clone(), sig);
        }
        if self.unit.funcs.iter().all(|f| !f.is_kernel) {
            self.diags.push(Diag {
                message: "translation unit contains no __kernel function".to_string(),
                pos: Pos { line: 1, col: 1 },
            });
        }
        // Pass 2: compile device functions first, then kernels (order in the
        // code array is irrelevant; entries are recorded).
        let mut fn_barriers: Vec<(bool, Vec<usize>)> = Vec::new();
        for f in &self.unit.funcs {
            if !f.is_kernel {
                let info = self.compile_func(f);
                self.out.funcs.push(info);
                fn_barriers.push((self.saw_barrier, self.called.clone()));
            }
        }
        // Fixpoint barrier propagation through the device-function call graph.
        let mut flags: Vec<bool> = fn_barriers.iter().map(|(b, _)| *b).collect();
        loop {
            let mut changed = false;
            for (i, (_, calls)) in fn_barriers.iter().enumerate() {
                if !flags[i] && calls.iter().any(|&c| flags[c]) {
                    flags[i] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        for f in &self.unit.funcs {
            if f.is_kernel {
                let mut info = self.compile_kernel(f);
                if !info.has_barrier {
                    info.has_barrier = self.called.iter().any(|&c| flags[c]);
                }
                self.out.kernels.insert(f.name.clone(), info);
            }
        }
    }

    fn begin_func(&mut self, f: &Func) {
        self.scopes.clear();
        self.scopes.push(HashMap::new());
        self.next_slot = 0;
        self.max_slot = 0;
        self.ret_ty = f.ret.clone();
        self.in_kernel = f.is_kernel;
        self.n_local_param_regions = 0;
        self.local_decl_bytes.clear();
        self.priv_offset = 0;
        self.saw_barrier = false;
        self.called.clear();
        for p in &f.params {
            if let Type::Ptr(Space::Local, _) = &p.ty {
                if !f.is_kernel {
                    self.err(
                        p.pos,
                        "__local pointer parameters are only allowed on kernels",
                    );
                }
                self.n_local_param_regions += 1;
            }
            let slot = self.alloc_slot();
            self.bind(p.name.clone(), slot, p.ty.clone(), p.is_const, p.pos);
        }
    }

    fn compile_func(&mut self, f: &Func) -> FuncInfo {
        self.begin_func(f);
        let entry = self.out.code.len() as u32;
        self.stmts(&f.body);
        // Implicit return. Non-void functions falling off the end return a
        // zero value of the declared type (C would be UB; we are kinder).
        if f.ret == Type::Void {
            self.emit(Op::Ret);
        } else {
            self.push_zero(&f.ret);
            self.emit(Op::RetV);
        }
        FuncInfo {
            name: f.name.clone(),
            entry,
            nargs: f.params.len() as u8,
            nlocals: self.max_slot,
        }
    }

    fn compile_kernel(&mut self, f: &Func) -> KernelInfo {
        self.begin_func(f);
        let entry = self.out.code.len() as u32;
        self.stmts(&f.body);
        self.emit(Op::Ret);
        let has_barrier = self.saw_barrier;
        let params = f
            .params
            .iter()
            .map(|p| KParam {
                name: p.name.clone(),
                ty: p.ty.clone(),
                is_const: p.is_const,
            })
            .collect();
        KernelInfo {
            name: f.name.clone(),
            entry,
            nlocals: self.max_slot,
            params,
            local_decl_bytes: self.local_decl_bytes.clone(),
            has_barrier,
            priv_bytes: self.priv_offset as usize,
        }
    }

    // ---- helpers ----

    fn emit(&mut self, op: Op) -> usize {
        self.out.code.push(op);
        self.out.code.len() - 1
    }

    fn here(&self) -> u32 {
        self.out.code.len() as u32
    }

    fn patch(&mut self, at: usize, target: u32) {
        match &mut self.out.code[at] {
            Op::Jmp(t) | Op::Jz(t) | Op::Jnz(t) => *t = target,
            other => panic!("patching non-jump {other:?}"),
        }
    }

    fn alloc_slot(&mut self) -> u16 {
        let s = self.next_slot;
        self.next_slot += 1;
        self.max_slot = self.max_slot.max(self.next_slot);
        s
    }

    fn bind(&mut self, name: String, slot: u16, ty: Type, is_const: bool, pos: Pos) {
        let already = self
            .scopes
            .last()
            .map(|s| s.contains_key(&name))
            .unwrap_or(false);
        if already {
            self.err(pos, format!("`{name}` is already defined in this scope"));
        }
        let top = self.scopes.last_mut().expect("scope stack");
        top.insert(name, LocalVar { slot, ty, is_const });
    }

    fn lookup(&self, name: &str) -> Option<LocalVar> {
        for scope in self.scopes.iter().rev() {
            if let Some(v) = scope.get(name) {
                return Some(v.clone());
            }
        }
        None
    }

    fn push_scope(&mut self) -> u16 {
        self.scopes.push(HashMap::new());
        self.next_slot
    }

    fn pop_scope(&mut self, saved: u16) {
        self.scopes.pop();
        self.next_slot = saved;
    }

    fn push_zero(&mut self, ty: &Type) {
        match ty {
            Type::Float => {
                self.emit(Op::PushF(0.0));
            }
            Type::Float4 => {
                self.emit(Op::PushF(0.0));
                self.emit(Op::SplatF4);
            }
            _ => {
                self.emit(Op::PushI(0));
            }
        }
    }

    /// Convert the value on top of the stack from `from` to `to`.
    fn convert(&mut self, from: &Type, to: &Type, pos: Pos) {
        if from == to {
            return;
        }
        match (from, to) {
            (f, t) if f.is_integer() && t.is_integer() => {}
            (f, Type::Float) if f.is_integer() => {
                self.emit(Op::I2F);
            }
            (Type::Float, t) if t.is_integer() => {
                self.emit(Op::F2I);
            }
            (Type::Float, Type::Float4) => {
                self.emit(Op::SplatF4);
            }
            (f, Type::Float4) if f.is_integer() => {
                self.emit(Op::I2F);
                self.emit(Op::SplatF4);
            }
            (Type::Ptr(s1, e1), Type::Ptr(s2, e2)) if s1 == s2 && e1 == e2 => {}
            _ => self.err(pos, format!("cannot convert `{from}` to `{to}`")),
        }
    }

    /// Emit a truthiness test so the top of stack is an int 0/1.
    fn truthify(&mut self, ty: &Type, pos: Pos) {
        match ty {
            Type::Float => {
                self.emit(Op::PushF(0.0));
                self.emit(Op::CmpF(Cmp::Ne));
            }
            t if t.is_integer() => {}
            other => self.err(pos, format!("`{other}` is not usable as a condition")),
        }
    }

    // ---- statements ----

    fn stmts(&mut self, body: &[Stmt]) {
        for s in body {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Block(b) => {
                let saved = self.push_scope();
                self.stmts(b);
                self.pop_scope(saved);
            }
            Stmt::Decl {
                name,
                ty,
                space,
                array_len,
                init,
                pos,
            } => self.decl(name, ty, *space, *array_len, init.as_ref(), *pos),
            Stmt::Assign {
                target,
                op,
                value,
                pos,
            } => self.assign(target, *op, value, *pos),
            Stmt::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let cty = self.expr(cond);
                self.truthify(&cty, cond.pos());
                let jz = self.emit(Op::Jz(0));
                let saved = self.push_scope();
                self.stmts(then_blk);
                self.pop_scope(saved);
                if else_blk.is_empty() {
                    let end = self.here();
                    self.patch(jz, end);
                } else {
                    let jend = self.emit(Op::Jmp(0));
                    let else_at = self.here();
                    self.patch(jz, else_at);
                    let saved = self.push_scope();
                    self.stmts(else_blk);
                    self.pop_scope(saved);
                    let end = self.here();
                    self.patch(jend, end);
                }
            }
            Stmt::While { cond, body } => {
                let start = self.here();
                let cty = self.expr(cond);
                self.truthify(&cty, cond.pos());
                let jz = self.emit(Op::Jz(0));
                let saved = self.push_scope();
                self.stmts(body);
                self.pop_scope(saved);
                self.emit(Op::Jmp(start));
                let end = self.here();
                self.patch(jz, end);
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                let saved = self.push_scope();
                if let Some(i) = init {
                    self.stmt(i);
                }
                let start = self.here();
                let jz = if let Some(c) = cond {
                    let cty = self.expr(c);
                    self.truthify(&cty, c.pos());
                    Some(self.emit(Op::Jz(0)))
                } else {
                    None
                };
                let inner = self.push_scope();
                self.stmts(body);
                self.pop_scope(inner);
                if let Some(st) = step {
                    self.stmt(st);
                }
                self.emit(Op::Jmp(start));
                let end = self.here();
                if let Some(jz) = jz {
                    self.patch(jz, end);
                }
                self.pop_scope(saved);
            }
            Stmt::Return { value, pos } => {
                if self.in_kernel {
                    if value.is_some() {
                        self.err(*pos, "kernels cannot return a value");
                    }
                    self.emit(Op::Ret);
                    return;
                }
                match (value, self.ret_ty.clone()) {
                    (None, Type::Void) => {
                        self.emit(Op::Ret);
                    }
                    (Some(v), Type::Void) => {
                        self.err(v.pos(), "void function cannot return a value");
                    }
                    (Some(v), ret) => {
                        let vt = self.expr(v);
                        self.convert(&vt, &ret, v.pos());
                        self.emit(Op::RetV);
                    }
                    (None, ret) => {
                        self.err(*pos, format!("function must return `{ret}`"));
                    }
                }
            }
            Stmt::Barrier { pos: _ } => {
                self.saw_barrier = true;
                self.emit(Op::Barrier);
            }
            Stmt::ExprStmt(e) => {
                let ty = self.expr(e);
                if ty != Type::Void {
                    self.emit(Op::Pop);
                }
            }
        }
    }

    fn decl(
        &mut self,
        name: &str,
        ty: &Type,
        space: Space,
        array_len: Option<usize>,
        init: Option<&Expr>,
        pos: Pos,
    ) {
        if let Some(len) = array_len {
            let elem = match ElemTy::of(ty) {
                Some(e) => e,
                None => {
                    self.err(pos, format!("`{ty}` cannot be an array element type"));
                    return;
                }
            };
            let bytes = len * elem.byte_size();
            let slot = self.alloc_slot();
            match space {
                Space::Local => {
                    if !self.in_kernel {
                        self.err(pos, "__local arrays may only be declared in kernels");
                        return;
                    }
                    let region = self.n_local_param_regions + self.local_decl_bytes.len() as u16;
                    self.local_decl_bytes.push(bytes);
                    self.emit(Op::PushPtr {
                        space: Space::Local,
                        slot: region,
                        base: 0,
                    });
                    self.emit(Op::St(slot));
                    self.bind(
                        name.to_string(),
                        slot,
                        Type::Ptr(Space::Local, Box::new(ty.clone())),
                        false,
                        pos,
                    );
                }
                Space::Private => {
                    if !self.in_kernel {
                        // A device function would index the calling
                        // kernel's private region with offsets the kernel
                        // never reserved.
                        self.err(pos, "private arrays may only be declared in kernel bodies");
                        return;
                    }
                    // 16-byte align so float4 arrays are well-formed.
                    let base = (self.priv_offset + 15) & !15;
                    self.priv_offset = base + bytes as u32;
                    self.emit(Op::PushPtr {
                        space: Space::Private,
                        slot: 0,
                        base,
                    });
                    self.emit(Op::St(slot));
                    self.bind(
                        name.to_string(),
                        slot,
                        Type::Ptr(Space::Private, Box::new(ty.clone())),
                        false,
                        pos,
                    );
                }
                other => self.err(pos, format!("arrays cannot be declared {other:?}")),
            }
            return;
        }
        if space == Space::Local {
            self.err(pos, "__local scalars are not supported; use an array");
        }
        let slot = self.alloc_slot();
        match init {
            Some(e) => {
                let et = self.expr(e);
                self.convert(&et, ty, e.pos());
            }
            None => self.push_zero(ty),
        }
        self.emit(Op::St(slot));
        self.bind(name.to_string(), slot, ty.clone(), false, pos);
    }

    fn assign(&mut self, target: &LValue, op: AssignOp, value: &Expr, pos: Pos) {
        match target {
            LValue::Var(name, vpos) => {
                let var = match self.lookup(name) {
                    Some(v) => v,
                    None => {
                        self.err(*vpos, format!("unknown variable `{name}`"));
                        return;
                    }
                };
                if var.is_const {
                    self.err(pos, format!("cannot assign to const `{name}`"));
                }
                if op == AssignOp::Set {
                    let vt = self.expr(value);
                    self.convert(&vt, &var.ty, value.pos());
                    self.emit(Op::St(var.slot));
                } else {
                    self.emit(Op::Ld(var.slot));
                    let vt = self.expr(value);
                    self.compound(&var.ty, &vt, op, pos);
                    self.emit(Op::St(var.slot));
                }
            }
            LValue::Index(name, idx, vpos) => {
                let var = match self.lookup(name) {
                    Some(v) => v,
                    None => {
                        self.err(*vpos, format!("unknown variable `{name}`"));
                        return;
                    }
                };
                let (space, elem_ast) = match &var.ty {
                    Type::Ptr(s, e) => (*s, (**e).clone()),
                    other => {
                        self.err(*vpos, format!("`{name}` ({other}) is not indexable"));
                        return;
                    }
                };
                if space == Space::Constant || var.is_const {
                    self.err(pos, format!("cannot write through const pointer `{name}`"));
                }
                let elem = match ElemTy::of(&elem_ast) {
                    Some(e) => e,
                    None => {
                        self.err(*vpos, format!("`{elem_ast}` elements are not storable"));
                        return;
                    }
                };
                self.emit(Op::Ld(var.slot));
                let it = self.expr(idx);
                if !it.is_integer() {
                    self.err(idx.pos(), "array index must be an integer");
                }
                if op == AssignOp::Set {
                    let vt = self.expr(value);
                    self.convert(&vt, &elem_ast, value.pos());
                    self.emit(Op::StElem(elem));
                } else {
                    self.emit(Op::Dup2);
                    self.emit(Op::LdElem(elem));
                    let vt = self.expr(value);
                    self.compound(&elem_ast, &vt, op, pos);
                    self.emit(Op::StElem(elem));
                }
            }
            LValue::Comp(name, c, vpos) => {
                let var = match self.lookup(name) {
                    Some(v) => v,
                    None => {
                        self.err(*vpos, format!("unknown variable `{name}`"));
                        return;
                    }
                };
                if var.ty != Type::Float4 {
                    self.err(*vpos, format!("`{name}` is not a float4"));
                    return;
                }
                self.emit(Op::Ld(var.slot));
                if op == AssignOp::Set {
                    let vt = self.expr(value);
                    self.convert(&vt, &Type::Float, value.pos());
                } else {
                    self.emit(Op::Dup);
                    self.emit(Op::GetComp(*c));
                    let vt = self.expr(value);
                    self.compound(&Type::Float, &vt, op, pos);
                }
                self.emit(Op::SetComp(*c));
                self.emit(Op::St(var.slot));
            }
        }
    }

    /// Emit the arithmetic for a compound assignment. Stack holds
    /// `[current, rhs]`; leaves `[new]`. `lhs_ty` is the target's type.
    fn compound(&mut self, lhs_ty: &Type, rhs_ty: &Type, op: AssignOp, pos: Pos) {
        self.convert(rhs_ty, lhs_ty, pos);
        let o = match (op, lhs_ty) {
            (AssignOp::Add, Type::Float) => Op::AddF,
            (AssignOp::Sub, Type::Float) => Op::SubF,
            (AssignOp::Mul, Type::Float) => Op::MulF,
            (AssignOp::Div, Type::Float) => Op::DivF,
            (AssignOp::Add, Type::Float4) => Op::AddF4,
            (AssignOp::Sub, Type::Float4) => Op::SubF4,
            (AssignOp::Mul, Type::Float4) => Op::MulF4,
            (AssignOp::Div, Type::Float4) => Op::DivF4,
            (AssignOp::Add, t) if t.is_integer() => Op::AddI,
            (AssignOp::Sub, t) if t.is_integer() => Op::SubI,
            (AssignOp::Mul, t) if t.is_integer() => Op::MulI,
            (AssignOp::Div, t) if t.is_integer() => Op::DivI,
            (AssignOp::Shl, t) if t.is_integer() => Op::Shl,
            (AssignOp::Shr, t) if t.is_integer() => Op::Shr,
            (o, t) => {
                self.err(pos, format!("operator {o:?} not defined for `{t}`"));
                Op::Pop
            }
        };
        self.emit(o);
    }

    // ---- expressions ----

    /// Emit code for `e`; returns its static type.
    fn expr(&mut self, e: &Expr) -> Type {
        match e {
            Expr::IntLit(v, _) => {
                self.emit(Op::PushI(*v));
                Type::Int
            }
            Expr::FloatLit(v, _) => {
                self.emit(Op::PushF(*v));
                Type::Float
            }
            Expr::BoolLit(b, _) => {
                self.emit(Op::PushI(*b as i64));
                Type::Bool
            }
            Expr::Var(name, pos) => match self.lookup(name) {
                Some(v) => {
                    self.emit(Op::Ld(v.slot));
                    v.ty
                }
                None => {
                    self.err(*pos, format!("unknown variable `{name}`"));
                    self.emit(Op::PushI(0));
                    Type::Int
                }
            },
            Expr::Unary(op, inner, pos) => {
                let t = self.expr(inner);
                match op {
                    UnOp::Neg => match &t {
                        Type::Float => {
                            self.emit(Op::NegF);
                            Type::Float
                        }
                        Type::Float4 => {
                            self.emit(Op::PushF(-1.0));
                            self.emit(Op::SplatF4);
                            self.emit(Op::MulF4);
                            Type::Float4
                        }
                        x if x.is_integer() => {
                            self.emit(Op::NegI);
                            t
                        }
                        other => {
                            self.err(*pos, format!("cannot negate `{other}`"));
                            t
                        }
                    },
                    UnOp::LNot => {
                        self.truthify(&t, *pos);
                        self.emit(Op::LNot);
                        Type::Bool
                    }
                    UnOp::BNot => {
                        if !t.is_integer() {
                            self.err(*pos, format!("`~` requires an integer, got `{t}`"));
                        }
                        self.emit(Op::BNot);
                        t
                    }
                }
            }
            Expr::Binary(op, l, r, pos) => self.binary(*op, l, r, *pos),
            Expr::Ternary(c, a, b, pos) => {
                let ct = self.expr(c);
                self.truthify(&ct, c.pos());
                let jz = self.emit(Op::Jz(0));
                let at = self.expr(a);
                // Decide the merged type by probing `b`'s type with a dry
                // emit would be complex; instead require numeric operands and
                // promote the `a` side to float if `b` turns out to be float
                // (via a patched conversion slot).
                let conv_slot = self.emit(Op::Pop); // placeholder
                let jend = self.emit(Op::Jmp(0));
                let else_at = self.here();
                self.patch(jz, else_at);
                let bt = self.expr(b);
                let merged = self.merge_types(&at, &bt, *pos);
                self.convert(&bt, &merged, b.pos());
                // Fix up the placeholder on the `a` path.
                self.out.code[conv_slot] = if at == merged {
                    Op::Jmp(conv_slot as u32 + 1) // no-op
                } else if at.is_integer() && merged == Type::Float {
                    Op::I2F
                } else if at == Type::Float && merged.is_integer() {
                    Op::F2I
                } else {
                    // float4-vs-scalar (or other) mixes need a multi-op
                    // conversion that the one-slot placeholder cannot
                    // hold; demand matching branch types instead of
                    // emitting wrong code.
                    self.err(
                        *pos,
                        format!("ternary branches have incompatible types `{at}` and `{bt}`"),
                    );
                    Op::Jmp(conv_slot as u32 + 1)
                };
                let end = self.here();
                self.patch(jend, end);
                merged
            }
            Expr::Index(base, idx, pos) => {
                let bt = self.expr(base);
                let (_space, elem_ast) = match &bt {
                    Type::Ptr(s, e) => (*s, (**e).clone()),
                    other => {
                        self.err(*pos, format!("`{other}` is not indexable"));
                        self.emit(Op::PushI(0));
                        return Type::Int;
                    }
                };
                let it = self.expr(idx);
                if !it.is_integer() {
                    self.err(idx.pos(), "array index must be an integer");
                }
                match ElemTy::of(&elem_ast) {
                    Some(elem) => {
                        self.emit(Op::LdElem(elem));
                        elem_ast
                    }
                    None => {
                        self.err(*pos, format!("`{elem_ast}` elements are not loadable"));
                        Type::Int
                    }
                }
            }
            Expr::Call(name, args, pos) => self.call(name, args, *pos),
            Expr::Cast(ty, inner, pos) => {
                let it = self.expr(inner);
                self.convert(&it, ty, *pos);
                ty.clone()
            }
            Expr::MakeF4(comps, pos) => {
                if comps.len() == 1 {
                    let t = self.expr(&comps[0]);
                    self.convert(&t, &Type::Float, *pos);
                    self.emit(Op::SplatF4);
                } else {
                    for c in comps {
                        let t = self.expr(c);
                        self.convert(&t, &Type::Float, c.pos());
                    }
                    self.emit(Op::MakeF4);
                }
                Type::Float4
            }
            Expr::Comp(base, c, pos) => {
                let bt = self.expr(base);
                if bt != Type::Float4 {
                    self.err(*pos, format!("`.{}` requires a float4, got `{bt}`", c));
                }
                self.emit(Op::GetComp(*c));
                Type::Float
            }
        }
    }

    fn merge_types(&mut self, a: &Type, b: &Type, pos: Pos) -> Type {
        if a == b {
            return a.clone();
        }
        match (a, b) {
            (Type::Float4, _) | (_, Type::Float4) => Type::Float4,
            (Type::Float, x) | (x, Type::Float) if x.is_integer() => Type::Float,
            (x, y) if x.is_integer() && y.is_integer() => {
                if *x == Type::Long || *y == Type::Long {
                    Type::Long
                } else {
                    Type::Int
                }
            }
            _ => {
                self.err(pos, format!("incompatible operand types `{a}` and `{b}`"));
                Type::Int
            }
        }
    }

    fn binary(&mut self, op: BinOp, l: &Expr, r: &Expr, pos: Pos) -> Type {
        // Short-circuit logical operators.
        if op == BinOp::LAnd || op == BinOp::LOr {
            let lt = self.expr(l);
            self.truthify(&lt, l.pos());
            let jshort = if op == BinOp::LAnd {
                self.emit(Op::Jz(0))
            } else {
                self.emit(Op::Jnz(0))
            };
            let rt = self.expr(r);
            self.truthify(&rt, r.pos());
            let jend = self.emit(Op::Jmp(0));
            let short_at = self.here();
            self.patch(jshort, short_at);
            self.emit(Op::PushI(if op == BinOp::LAnd { 0 } else { 1 }));
            let end = self.here();
            self.patch(jend, end);
            return Type::Bool;
        }
        let lt = self.expr(l);
        let rt = self.expr(r);
        let merged = self.merge_types(&lt, &rt, pos);
        // Convert rhs (top of stack) directly; lhs needs a swap dance.
        self.convert(&rt, &merged, r.pos());
        if lt != merged {
            self.emit(Op::Swap);
            self.convert(&lt, &merged, l.pos());
            self.emit(Op::Swap);
        }
        match op {
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem => {
                let o = match (&merged, op) {
                    (Type::Float, BinOp::Add) => Op::AddF,
                    (Type::Float, BinOp::Sub) => Op::SubF,
                    (Type::Float, BinOp::Mul) => Op::MulF,
                    (Type::Float, BinOp::Div) => Op::DivF,
                    (Type::Float4, BinOp::Add) => Op::AddF4,
                    (Type::Float4, BinOp::Sub) => Op::SubF4,
                    (Type::Float4, BinOp::Mul) => Op::MulF4,
                    (Type::Float4, BinOp::Div) => Op::DivF4,
                    (t, BinOp::Add) if t.is_integer() => Op::AddI,
                    (t, BinOp::Sub) if t.is_integer() => Op::SubI,
                    (t, BinOp::Mul) if t.is_integer() => Op::MulI,
                    (t, BinOp::Div) if t.is_integer() => Op::DivI,
                    (t, BinOp::Rem) if t.is_integer() => Op::RemI,
                    (t, o) => {
                        self.err(pos, format!("operator {o:?} not defined for `{t}`"));
                        Op::Pop
                    }
                };
                self.emit(o);
                merged
            }
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                let c = match op {
                    BinOp::Eq => Cmp::Eq,
                    BinOp::Ne => Cmp::Ne,
                    BinOp::Lt => Cmp::Lt,
                    BinOp::Le => Cmp::Le,
                    BinOp::Gt => Cmp::Gt,
                    _ => Cmp::Ge,
                };
                match &merged {
                    Type::Float => {
                        self.emit(Op::CmpF(c));
                    }
                    t if t.is_integer() => {
                        self.emit(Op::CmpI(c));
                    }
                    other => {
                        self.err(pos, format!("cannot compare `{other}` values"));
                    }
                }
                Type::Bool
            }
            BinOp::BAnd | BinOp::BOr | BinOp::BXor | BinOp::Shl | BinOp::Shr => {
                if !merged.is_integer() {
                    self.err(
                        pos,
                        format!("bitwise operator requires integers, got `{merged}`"),
                    );
                }
                let o = match op {
                    BinOp::BAnd => Op::BAnd,
                    BinOp::BOr => Op::BOr,
                    BinOp::BXor => Op::BXor,
                    BinOp::Shl => Op::Shl,
                    _ => Op::Shr,
                };
                self.emit(o);
                merged
            }
            BinOp::LAnd | BinOp::LOr => unreachable!("handled above"),
        }
    }

    fn call(&mut self, name: &str, args: &[Expr], pos: Pos) -> Type {
        if let Some(ret) = self.builtin_call(name, args, pos) {
            return ret;
        }
        let sig = match self.sigs.get(name).cloned() {
            Some(s) => s,
            None => {
                self.err(pos, format!("unknown function `{name}`"));
                self.emit(Op::PushI(0));
                return Type::Int;
            }
        };
        if sig.is_kernel {
            self.err(
                pos,
                format!("kernel `{name}` cannot be called from device code"),
            );
            self.emit(Op::PushI(0));
            return Type::Int;
        }
        if args.len() != sig.params.len() {
            self.err(
                pos,
                format!(
                    "`{name}` expects {} arguments, got {}",
                    sig.params.len(),
                    args.len()
                ),
            );
        }
        for (i, a) in args.iter().enumerate() {
            let at = self.expr(a);
            if let Some(pt) = sig.params.get(i) {
                self.convert(&at, pt, a.pos());
            }
        }
        self.called.push(sig.index);
        self.emit(Op::Call {
            func: sig.index as u16,
            nargs: args.len() as u8,
        });
        sig.ret
    }

    /// Emit a builtin call if `name` names one; returns its result type.
    fn builtin_call(&mut self, name: &str, args: &[Expr], pos: Pos) -> Option<Type> {
        use Builtin::*;
        // Work-item query builtins: one int argument, int result.
        let wi = match name {
            "get_global_id" => Some(GetGlobalId),
            "get_local_id" => Some(GetLocalId),
            "get_group_id" => Some(GetGroupId),
            "get_global_size" => Some(GetGlobalSize),
            "get_local_size" => Some(GetLocalSize),
            "get_num_groups" => Some(GetNumGroups),
            _ => None,
        };
        if let Some(b) = wi {
            self.fixed_args(name, args, &[Type::Int], pos);
            self.emit(Op::CallB(b, 1));
            return Some(Type::Int);
        }
        let fl1 = |b| (b, vec![Type::Float], Type::Float);
        let fl2 = |b| (b, vec![Type::Float, Type::Float], Type::Float);
        let spec: Option<(Builtin, Vec<Type>, Type)> = match name {
            "sqrt" | "native_sqrt" => Some(fl1(Sqrt)),
            "rsqrt" | "native_rsqrt" => Some(fl1(Rsqrt)),
            "fabs" => Some(fl1(Fabs)),
            "floor" => Some(fl1(Floor)),
            "ceil" => Some(fl1(Ceil)),
            "exp" | "native_exp" => Some(fl1(Exp)),
            "log" | "native_log" => Some(fl1(Log)),
            "sin" | "native_sin" => Some(fl1(Sin)),
            "cos" | "native_cos" => Some(fl1(Cos)),
            "pow" => Some(fl2(Pow)),
            "fmin" => Some(fl2(Fmin)),
            "fmax" => Some(fl2(Fmax)),
            "native_divide" => None, // plain division; handled below
            "abs" => Some((AbsI, vec![Type::Int], Type::Int)),
            "clamp" => Some((
                Clamp,
                vec![Type::Float, Type::Float, Type::Float],
                Type::Float,
            )),
            "mad" => Some((
                Mad,
                vec![Type::Float, Type::Float, Type::Float],
                Type::Float,
            )),
            "dot" => Some((Dot, vec![Type::Float4, Type::Float4], Type::Float)),
            _ => None,
        };
        if let Some((b, params, ret)) = spec {
            self.fixed_args(name, args, &params, pos);
            self.emit(Op::CallB(b, params.len() as u8));
            return Some(ret);
        }
        if name == "native_divide" {
            self.fixed_args(name, args, &[Type::Float, Type::Float], pos);
            self.emit(Op::DivF);
            return Some(Type::Float);
        }
        // min/max dispatch on the first argument's type (int vs float).
        if name == "min" || name == "max" {
            if args.len() != 2 {
                self.err(pos, format!("`{name}` expects 2 arguments"));
                self.emit(Op::PushI(0));
                return Some(Type::Int);
            }
            let at = self.expr(&args[0]);
            if at == Type::Float {
                let bt = self.expr(&args[1]);
                self.convert(&bt, &Type::Float, args[1].pos());
                self.emit(Op::CallB(if name == "min" { Fmin } else { Fmax }, 2));
                return Some(Type::Float);
            }
            let bt = self.expr(&args[1]);
            self.convert(&bt, &Type::Int, args[1].pos());
            self.emit(Op::CallB(if name == "min" { MinI } else { MaxI }, 2));
            return Some(Type::Int);
        }
        None
    }

    fn fixed_args(&mut self, name: &str, args: &[Expr], params: &[Type], pos: Pos) {
        if args.len() != params.len() {
            self.err(
                pos,
                format!(
                    "`{name}` expects {} arguments, got {}",
                    params.len(),
                    args.len()
                ),
            );
        }
        for (i, a) in args.iter().enumerate() {
            let at = self.expr(a);
            if let Some(pt) = params.get(i) {
                self.convert(&at, pt, a.pos());
            }
        }
        // Missing args: push zeros so the stack stays balanced.
        for pt in params.iter().skip(args.len()) {
            self.push_zero(pt);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minicl::parser::parse;

    fn build(src: &str) -> Result<CompiledUnit, Vec<Diag>> {
        compile(&parse(src).unwrap())
    }

    #[test]
    fn compiles_square_kernel() {
        let unit = build(
            "__kernel void square(__global float* in, __global float* out, const int n) {
                int i = get_global_id(0);
                if (i < n) { out[i] = in[i] * in[i]; }
            }",
        )
        .unwrap();
        let k = &unit.kernels["square"];
        assert!(!k.has_barrier);
        assert_eq!(k.params.len(), 3);
        assert!(k.params[2].is_const);
    }

    #[test]
    fn detects_barrier() {
        let unit = build(
            "__kernel void k(__global float* a, __local float* s) {
                s[get_local_id(0)] = a[get_global_id(0)];
                barrier(CLK_LOCAL_MEM_FENCE);
                a[get_global_id(0)] = s[0];
            }",
        )
        .unwrap();
        assert!(unit.kernels["k"].has_barrier);
    }

    #[test]
    fn rejects_write_through_const_pointer() {
        let err = build("__kernel void k(__constant float* a) { a[0] = 1.0f; }").unwrap_err();
        assert!(err[0].message.contains("const"));
    }

    #[test]
    fn rejects_unknown_variable_with_position() {
        let err = build("__kernel void k(__global float* a) {\n a[0] = bogus; }").unwrap_err();
        assert_eq!(err[0].pos.line, 2);
        assert!(err[0].message.contains("bogus"));
    }

    #[test]
    fn rejects_unit_without_kernel() {
        assert!(build("float f(float x) { return x; }").is_err());
    }

    #[test]
    fn local_array_declaration_registers_region() {
        let unit = build(
            "__kernel void k(__global float* a) {
                __local float s[64];
                s[get_local_id(0)] = a[get_global_id(0)];
                barrier(CLK_LOCAL_MEM_FENCE);
                a[get_global_id(0)] = s[0];
            }",
        )
        .unwrap();
        assert_eq!(unit.kernels["k"].local_decl_bytes, vec![256]);
    }

    #[test]
    fn private_array_allocates_item_memory() {
        let unit = build(
            "__kernel void k(__global float* a) {
                float tmp[8];
                tmp[0] = a[0];
                a[0] = tmp[0];
            }",
        )
        .unwrap();
        assert_eq!(unit.kernels["k"].priv_bytes, 32);
    }

    #[test]
    fn device_function_calls_compile() {
        let unit = build(
            "float sq(float x) { return x * x; }
             __kernel void k(__global float* a) { a[0] = sq(a[0]); }",
        )
        .unwrap();
        assert_eq!(unit.funcs.len(), 1);
        assert_eq!(unit.funcs[0].name, "sq");
    }

    #[test]
    fn barrier_in_called_function_propagates() {
        let unit = build(
            "void sync2() { barrier(CLK_LOCAL_MEM_FENCE); }
             __kernel void k(__global float* a) { sync2(); a[0] = 1.0f; }",
        )
        .unwrap();
        assert!(unit.kernels["k"].has_barrier);
    }

    #[test]
    fn mixed_arithmetic_promotes_to_float() {
        // Exercises the Swap-based lhs promotion.
        let unit = build(
            "__kernel void k(__global float* a, const int n) {
                a[0] = n + a[0];
                a[1] = a[1] + n;
            }",
        )
        .unwrap();
        assert!(unit.code.contains(&Op::Swap));
    }

    #[test]
    fn collects_multiple_errors() {
        let err = build(
            "__kernel void k(__global float* a) {
                a[0] = bogus1;
                a[1] = bogus2;
            }",
        )
        .unwrap_err();
        assert_eq!(err.len(), 2);
    }
}
