//! Kernel code generation: Ensemble kernel-actor behaviours → OpenCL C.
//!
//! This is §6.1.3 of the paper: "A C representation of the code identified
//! as the kernel is generated, and stored as a string within the actor's
//! bytecode." The statements between the second `receive` and the final
//! `send` are lowered to a mini OpenCL-C kernel; multi-dimensional array
//! indexing is flattened (`d.a[y][i]` → `a[y * a_dim1 + i]`), struct
//! fields become separate buffer parameters, and the dimensions travel as
//! trailing `int` arguments — all invisible to the Ensemble programmer.

use crate::ast as ens;
use crate::diag::{codes, Diagnostic};
use crate::token::{Pos, Span};
use crate::vmops::{DataField, ElemKind};
use oclsim::minicl::ast as cl;
use std::collections::HashMap;

/// A kernel lowering failure (reported at Ensemble compile time — one of
/// the paper's selling points over runtime kernel compilation).
///
/// Carried as a [`Diagnostic`] with code `E008` so kernel lowering and
/// the `crates/analysis` passes share one renderer; `Display` keeps the
/// historical `line:col: kernel error: …` single-line shape.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelGenError {
    /// The underlying diagnostic (code `E008`, error severity).
    pub diag: Diagnostic,
}

impl KernelGenError {
    fn new(message: impl Into<String>, span: Span) -> KernelGenError {
        KernelGenError {
            diag: Diagnostic::error(codes::KERNEL_LOWERING, span, message),
        }
    }
}

impl std::fmt::Display for KernelGenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: kernel error: {}",
            self.diag.span.start, self.diag.message
        )
    }
}

/// Inputs resolved by the module compiler.
pub struct KernelGenInput<'a> {
    /// Kernel (actor) name.
    pub name: &'a str,
    /// Array fields of the data value, in flattening order.
    pub data_fields: &'a [DataField],
    /// Trailing scalar fields of the settings struct.
    pub settings_scalars: &'a [String],
    /// Binding name of the settings value (first receive).
    pub req_name: &'a str,
    /// Binding name of the data value (second receive).
    pub data_name: &'a str,
    /// True when the data value is a struct (fields accessed as
    /// `d.field`); false for a bare array (accessed as `d[i]...`).
    pub data_is_struct: bool,
    /// The kernel region statements.
    pub body: &'a [ens::Stmt],
}

/// Dimension parameter name for `field`'s `k`-th dimension.
pub fn dim_param(field: &str, k: usize) -> String {
    format!("{field}_dim{k}")
}

/// Kernel parameter name for a settings scalar.
pub fn scalar_param(name: &str) -> String {
    format!("set_{name}")
}

/// Generate the kernel source for one opencl actor.
pub fn generate(input: &KernelGenInput<'_>) -> Result<String, KernelGenError> {
    let pos = Span::point(Pos { line: 1, col: 1 });
    let cpos = cl_pos(pos);
    let mut params = Vec::new();
    for f in input.data_fields {
        let elem = match f.elem {
            ElemKind::Int => cl::Type::Int,
            ElemKind::Real => cl::Type::Float,
            other => {
                return Err(KernelGenError::new(
                    format!("field `{}` has unsupported element kind {other:?}", f.name),
                    pos,
                ))
            }
        };
        params.push(cl::Param {
            name: f.name.clone(),
            ty: cl::Type::Ptr(cl::Space::Global, Box::new(elem)),
            is_const: false,
            pos: cpos,
        });
    }
    for f in input.data_fields {
        for k in 0..f.ndims {
            params.push(cl::Param {
                name: dim_param(&f.name, k),
                ty: cl::Type::Int,
                is_const: true,
                pos: cpos,
            });
        }
    }
    for s in input.settings_scalars {
        params.push(cl::Param {
            name: scalar_param(s),
            ty: cl::Type::Int,
            is_const: true,
            pos: cpos,
        });
    }

    let mut lower = Lower {
        input,
        vars: vec![HashMap::new()],
    };
    let mut body = Vec::new();
    for s in input.body {
        body.push(lower.stmt(s)?);
    }

    let func = cl::Func {
        name: input.name.to_string(),
        is_kernel: true,
        ret: cl::Type::Void,
        params,
        body,
        pos: cpos,
    };
    let unit = cl::Unit {
        funcs: vec![func],
        pragmas: vec![],
    };
    Ok(oclsim::minicl::pretty::emit_unit(&unit))
}

fn cl_pos(p: Span) -> oclsim::minicl::token::Pos {
    oclsim::minicl::token::Pos {
        line: p.start.line,
        col: p.start.col,
    }
}

struct Lower<'a> {
    input: &'a KernelGenInput<'a>,
    vars: Vec<HashMap<String, cl::Type>>,
}

impl<'a> Lower<'a> {
    fn err<T>(&self, pos: Span, message: impl Into<String>) -> Result<T, KernelGenError> {
        Err(KernelGenError::new(message, pos))
    }

    fn bind(&mut self, name: &str, ty: cl::Type) {
        self.vars
            .last_mut()
            .expect("scope")
            .insert(name.to_string(), ty);
    }

    fn lookup(&self, name: &str) -> Option<cl::Type> {
        for s in self.vars.iter().rev() {
            if let Some(t) = s.get(name) {
                return Some(t.clone());
            }
        }
        None
    }

    fn field(&self, name: &str) -> Option<&DataField> {
        self.input.data_fields.iter().find(|f| f.name == name)
    }

    /// Flatten an index chain over `field` into a single element index.
    fn flat_index(
        &mut self,
        field: &DataField,
        idxs: &[&ens::Expr],
        pos: Span,
    ) -> Result<cl::Expr, KernelGenError> {
        if idxs.len() != field.ndims {
            return self.err(
                pos,
                format!(
                    "`{}` has {} dimensions; {} indices supplied",
                    field.name,
                    field.ndims,
                    idxs.len()
                ),
            );
        }
        let cpos = cl_pos(pos);
        // idx = ((i0 * d1) + i1) * d2 + i2 ...
        let mut acc = self.expr(idxs[0])?.0;
        for (k, idx) in idxs.iter().enumerate().skip(1) {
            let dim = cl::Expr::Var(dim_param(&field.name, k), cpos);
            let (ie, _) = self.expr(idx)?;
            acc = cl::Expr::Binary(
                cl::BinOp::Add,
                Box::new(cl::Expr::Binary(
                    cl::BinOp::Mul,
                    Box::new(acc),
                    Box::new(dim),
                    cpos,
                )),
                Box::new(ie),
                cpos,
            );
        }
        Ok(acc)
    }

    /// Resolve a path that denotes a buffer element: returns
    /// `(buffer name, flat index, element type)`.
    fn buffer_access(
        &mut self,
        root: &str,
        segs: &[ens::PathSeg],
        pos: Span,
    ) -> Result<Option<(String, cl::Expr, cl::Type)>, KernelGenError> {
        // Struct data: d.field[i]([j])
        if self.input.data_is_struct && root == self.input.data_name {
            let Some(ens::PathSeg::Field(fname)) = segs.first() else {
                return self.err(pos, "expected `.field` access on the kernel data value");
            };
            let field = match self.field(fname) {
                Some(f) => f.clone(),
                None => return self.err(pos, format!("unknown data field `{fname}`")),
            };
            let idxs: Vec<&ens::Expr> = segs[1..]
                .iter()
                .map(|s| match s {
                    ens::PathSeg::Index(e) => Ok(e),
                    ens::PathSeg::Field(f) => Err(f.clone()),
                })
                .collect::<Result<_, _>>()
                .map_err(|f| {
                    KernelGenError::new(format!("unexpected `.{f}` after array field"), pos)
                })?;
            if idxs.is_empty() {
                return self.err(
                    pos,
                    format!("field `{fname}` used without indices inside the kernel"),
                );
            }
            let idx = self.flat_index(&field, &idxs, pos)?;
            let elem = match field.elem {
                ElemKind::Int => cl::Type::Int,
                _ => cl::Type::Float,
            };
            return Ok(Some((field.name.clone(), idx, elem)));
        }
        // Bare-array data: d[i]([j])
        if !self.input.data_is_struct && root == self.input.data_name && !segs.is_empty() {
            let field = self.input.data_fields[0].clone();
            let idxs: Vec<&ens::Expr> = segs
                .iter()
                .map(|s| match s {
                    ens::PathSeg::Index(e) => Ok(e),
                    ens::PathSeg::Field(f) => Err(f.clone()),
                })
                .collect::<Result<_, _>>()
                .map_err(|f| {
                    KernelGenError::new(format!("unexpected `.{f}` on an array value"), pos)
                })?;
            let idx = self.flat_index(&field, &idxs, pos)?;
            let elem = match field.elem {
                ElemKind::Int => cl::Type::Int,
                _ => cl::Type::Float,
            };
            return Ok(Some((field.name.clone(), idx, elem)));
        }
        Ok(None)
    }

    fn expr(&mut self, e: &ens::Expr) -> Result<(cl::Expr, cl::Type), KernelGenError> {
        let cpos = cl_pos(e.pos());
        match e {
            ens::Expr::Int(v, _) => Ok((cl::Expr::IntLit(*v, cpos), cl::Type::Int)),
            ens::Expr::Real(v, _) => Ok((cl::Expr::FloatLit(*v, cpos), cl::Type::Float)),
            ens::Expr::Bool(b, _) => Ok((cl::Expr::BoolLit(*b, cpos), cl::Type::Bool)),
            ens::Expr::Str(_, pos) => self.err(*pos, "strings are not allowed in kernels"),
            ens::Expr::Path(root, segs, pos) => {
                // Settings scalar: req.<name>.
                if root == self.input.req_name {
                    if let [ens::PathSeg::Field(f)] = segs.as_slice() {
                        if self.input.settings_scalars.contains(f) {
                            return Ok((cl::Expr::Var(scalar_param(f), cpos), cl::Type::Int));
                        }
                    }
                    return self.err(
                        *pos,
                        "only trailing scalar settings fields may be read in a kernel",
                    );
                }
                if let Some((buf, idx, elem)) = self.buffer_access(root, segs, *pos)? {
                    return Ok((
                        cl::Expr::Index(Box::new(cl::Expr::Var(buf, cpos)), Box::new(idx), cpos),
                        elem,
                    ));
                }
                // Local variable (possibly indexed: private/local arrays).
                let ty = match self.lookup(root) {
                    Some(t) => t,
                    None => return self.err(*pos, format!("unknown variable `{root}`")),
                };
                if segs.is_empty() {
                    return Ok((cl::Expr::Var(root.clone(), cpos), ty));
                }
                // Indexed local array.
                let cl::Type::Ptr(_, inner) = ty.clone() else {
                    return self.err(*pos, format!("`{root}` is not indexable"));
                };
                let mut out = cl::Expr::Var(root.clone(), cpos);
                for seg in segs {
                    match seg {
                        ens::PathSeg::Index(ie) => {
                            let (idx, _) = self.expr(ie)?;
                            out = cl::Expr::Index(Box::new(out), Box::new(idx), cpos);
                        }
                        ens::PathSeg::Field(f) => {
                            return self.err(*pos, format!("unexpected `.{f}` in kernel"))
                        }
                    }
                }
                Ok((out, (*inner).clone()))
            }
            ens::Expr::Neg(inner, _) => {
                let (ie, t) = self.expr(inner)?;
                Ok((cl::Expr::Unary(cl::UnOp::Neg, Box::new(ie), cpos), t))
            }
            ens::Expr::Not(inner, _) => {
                let (ie, _) = self.expr(inner)?;
                Ok((
                    cl::Expr::Unary(cl::UnOp::LNot, Box::new(ie), cpos),
                    cl::Type::Bool,
                ))
            }
            ens::Expr::Binary(op, l, r, _) => {
                let (le, lt) = self.expr(l)?;
                let (re, rt) = self.expr(r)?;
                let cop = match op {
                    ens::BinOp::Add => cl::BinOp::Add,
                    ens::BinOp::Sub => cl::BinOp::Sub,
                    ens::BinOp::Mul => cl::BinOp::Mul,
                    ens::BinOp::Div => cl::BinOp::Div,
                    ens::BinOp::Rem => cl::BinOp::Rem,
                    ens::BinOp::Eq => cl::BinOp::Eq,
                    ens::BinOp::Ne => cl::BinOp::Ne,
                    ens::BinOp::Lt => cl::BinOp::Lt,
                    ens::BinOp::Le => cl::BinOp::Le,
                    ens::BinOp::Gt => cl::BinOp::Gt,
                    ens::BinOp::Ge => cl::BinOp::Ge,
                    ens::BinOp::And => cl::BinOp::LAnd,
                    ens::BinOp::Or => cl::BinOp::LOr,
                };
                let ty = match op {
                    ens::BinOp::Add
                    | ens::BinOp::Sub
                    | ens::BinOp::Mul
                    | ens::BinOp::Div
                    | ens::BinOp::Rem => {
                        if lt == cl::Type::Float || rt == cl::Type::Float {
                            cl::Type::Float
                        } else {
                            cl::Type::Int
                        }
                    }
                    _ => cl::Type::Bool,
                };
                Ok((cl::Expr::Binary(cop, Box::new(le), Box::new(re), cpos), ty))
            }
            ens::Expr::Call(name, args, pos) => self.call(name, args, *pos),
            ens::Expr::NewArray { pos, .. } => self.err(
                *pos,
                "`new` arrays in kernels must be bound by a declaration",
            ),
            other => self.err(
                other.pos(),
                "this expression form is not allowed inside a kernel",
            ),
        }
    }

    fn call(
        &mut self,
        name: &str,
        args: &[ens::Expr],
        pos: Span,
    ) -> Result<(cl::Expr, cl::Type), KernelGenError> {
        let cpos = cl_pos(pos);
        match name {
            "get_global_id" | "get_local_id" | "get_group_id" | "get_global_size"
            | "get_local_size" | "get_num_groups" => {
                if args.len() != 1 {
                    return self.err(pos, format!("`{name}` takes one argument"));
                }
                let (a, _) = self.expr(&args[0])?;
                Ok((
                    cl::Expr::Call(name.to_string(), vec![a], cpos),
                    cl::Type::Int,
                ))
            }
            "toReal" => {
                let (a, _) = self.expr(&args[0])?;
                Ok((
                    cl::Expr::Cast(cl::Type::Float, Box::new(a), cpos),
                    cl::Type::Float,
                ))
            }
            "toInt" => {
                let (a, _) = self.expr(&args[0])?;
                Ok((
                    cl::Expr::Cast(cl::Type::Int, Box::new(a), cpos),
                    cl::Type::Int,
                ))
            }
            "lengthof" => {
                // lengthof(d.field) → the field's first dimension.
                let Some(ens::Expr::Path(root, segs, _)) = args.first() else {
                    return self.err(pos, "`lengthof` takes an array path");
                };
                let fname = if self.input.data_is_struct && root == self.input.data_name {
                    match segs.first() {
                        Some(ens::PathSeg::Field(f)) => f.clone(),
                        _ => return self.err(pos, "`lengthof` needs a data field"),
                    }
                } else if !self.input.data_is_struct && root == self.input.data_name {
                    self.input.data_fields[0].name.clone()
                } else {
                    return self.err(pos, "`lengthof` in kernels applies to data fields");
                };
                if self.field(&fname).is_none() {
                    return self.err(pos, format!("unknown data field `{fname}`"));
                }
                Ok((cl::Expr::Var(dim_param(&fname, 0), cpos), cl::Type::Int))
            }
            "fmin" | "fmax" | "sqrt" | "fabs" | "exp" | "log" | "pow" | "sin" | "cos" | "floor"
            | "ceil" => {
                let mut out = Vec::new();
                for a in args {
                    out.push(self.expr(a)?.0);
                }
                Ok((cl::Expr::Call(name.to_string(), out, cpos), cl::Type::Float))
            }
            "min" | "max" | "abs" => {
                let mut out = Vec::new();
                let mut ty = cl::Type::Int;
                for a in args {
                    let (e, t) = self.expr(a)?;
                    if t == cl::Type::Float {
                        ty = cl::Type::Float;
                    }
                    out.push(e);
                }
                Ok((cl::Expr::Call(name.to_string(), out, cpos), ty))
            }
            other => self.err(pos, format!("`{other}` is not available inside kernels")),
        }
    }

    fn const_eval(&self, e: &ens::Expr) -> Option<i64> {
        match e {
            ens::Expr::Int(v, _) => Some(*v),
            ens::Expr::Binary(op, l, r, _) => {
                let (a, b) = (self.const_eval(l)?, self.const_eval(r)?);
                match op {
                    ens::BinOp::Add => Some(a + b),
                    ens::BinOp::Sub => Some(a - b),
                    ens::BinOp::Mul => Some(a * b),
                    ens::BinOp::Div if b != 0 => Some(a / b),
                    _ => None,
                }
            }
            _ => None,
        }
    }

    fn stmt(&mut self, s: &ens::Stmt) -> Result<cl::Stmt, KernelGenError> {
        match s {
            ens::Stmt::Declare { name, value, pos } => {
                let cpos = cl_pos(*pos);
                if let ens::Expr::NewArray {
                    elem,
                    dims,
                    pos: apos,
                    ..
                } = value
                {
                    // Private per-item array: dimensions must be constant.
                    if dims.len() != 1 {
                        return self.err(*apos, "kernel-private arrays must be 1-D");
                    }
                    let len = self.const_eval(&dims[0]).ok_or_else(|| {
                        KernelGenError::new(
                            "kernel array lengths must be compile-time constants",
                            *apos,
                        )
                    })? as usize;
                    let ety = match elem {
                        ens::TypeExpr::Integer => cl::Type::Int,
                        ens::TypeExpr::Real => cl::Type::Float,
                        other => {
                            return self.err(*apos, format!("unsupported element type {other}"))
                        }
                    };
                    self.bind(
                        name,
                        cl::Type::Ptr(cl::Space::Private, Box::new(ety.clone())),
                    );
                    return Ok(cl::Stmt::Decl {
                        name: name.clone(),
                        ty: ety,
                        space: cl::Space::Private,
                        array_len: Some(len),
                        init: None,
                        pos: cpos,
                    });
                }
                let (ie, ty) = self.expr(value)?;
                self.bind(name, ty.clone());
                Ok(cl::Stmt::Decl {
                    name: name.clone(),
                    ty,
                    space: cl::Space::Private,
                    array_len: None,
                    init: Some(ie),
                    pos: cpos,
                })
            }
            ens::Stmt::DeclareLocal { name, value, pos } => {
                let cpos = cl_pos(*pos);
                let ens::Expr::NewArray { elem, dims, .. } = value else {
                    return self.err(*pos, "`local` declarations must allocate an array");
                };
                if dims.len() != 1 {
                    return self.err(*pos, "local arrays must be 1-D");
                }
                let len = self.const_eval(&dims[0]).ok_or_else(|| {
                    KernelGenError::new("local array lengths must be compile-time constants", *pos)
                })? as usize;
                let ety = match elem {
                    ens::TypeExpr::Integer => cl::Type::Int,
                    ens::TypeExpr::Real => cl::Type::Float,
                    other => return self.err(*pos, format!("unsupported element type {other}")),
                };
                self.bind(name, cl::Type::Ptr(cl::Space::Local, Box::new(ety.clone())));
                Ok(cl::Stmt::Decl {
                    name: name.clone(),
                    ty: ety,
                    space: cl::Space::Local,
                    array_len: Some(len),
                    init: None,
                    pos: cpos,
                })
            }
            ens::Stmt::Assign {
                name,
                path,
                value,
                pos,
            } => {
                let cpos = cl_pos(*pos);
                let (ve, _) = self.expr(value)?;
                // Buffer element target?
                if let Some((buf, idx, _)) = self.buffer_access(name, path, *pos)? {
                    return Ok(cl::Stmt::Assign {
                        target: cl::LValue::Index(buf, idx, cpos),
                        op: cl::AssignOp::Set,
                        value: ve,
                        pos: cpos,
                    });
                }
                if path.is_empty() {
                    return Ok(cl::Stmt::Assign {
                        target: cl::LValue::Var(name.clone(), cpos),
                        op: cl::AssignOp::Set,
                        value: ve,
                        pos: cpos,
                    });
                }
                // Local array element.
                if path.len() == 1 {
                    if let ens::PathSeg::Index(ie) = &path[0] {
                        let (idx, _) = self.expr(ie)?;
                        return Ok(cl::Stmt::Assign {
                            target: cl::LValue::Index(name.clone(), idx, cpos),
                            op: cl::AssignOp::Set,
                            value: ve,
                            pos: cpos,
                        });
                    }
                }
                self.err(*pos, "unsupported assignment target inside a kernel")
            }
            ens::Stmt::For {
                var,
                from,
                to,
                body,
                pos,
            } => {
                let cpos = cl_pos(*pos);
                let (fe, _) = self.expr(from)?;
                let (te, _) = self.expr(to)?;
                self.vars.push(HashMap::new());
                self.bind(var, cl::Type::Int);
                let mut cbody = Vec::new();
                for s in body {
                    cbody.push(self.stmt(s)?);
                }
                self.vars.pop();
                Ok(cl::Stmt::For {
                    init: Some(Box::new(cl::Stmt::Decl {
                        name: var.clone(),
                        ty: cl::Type::Int,
                        space: cl::Space::Private,
                        array_len: None,
                        init: Some(fe),
                        pos: cpos,
                    })),
                    cond: Some(cl::Expr::Binary(
                        cl::BinOp::Le,
                        Box::new(cl::Expr::Var(var.clone(), cpos)),
                        Box::new(te),
                        cpos,
                    )),
                    step: Some(Box::new(cl::Stmt::Assign {
                        target: cl::LValue::Var(var.clone(), cpos),
                        op: cl::AssignOp::Add,
                        value: cl::Expr::IntLit(1, cpos),
                        pos: cpos,
                    })),
                    body: cbody,
                })
            }
            ens::Stmt::While { cond, body } => {
                let (ce, _) = self.expr(cond)?;
                self.vars.push(HashMap::new());
                let mut cbody = Vec::new();
                for s in body {
                    cbody.push(self.stmt(s)?);
                }
                self.vars.pop();
                Ok(cl::Stmt::While {
                    cond: ce,
                    body: cbody,
                })
            }
            ens::Stmt::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let (ce, _) = self.expr(cond)?;
                self.vars.push(HashMap::new());
                let mut tb = Vec::new();
                for s in then_blk {
                    tb.push(self.stmt(s)?);
                }
                self.vars.pop();
                self.vars.push(HashMap::new());
                let mut eb = Vec::new();
                for s in else_blk {
                    eb.push(self.stmt(s)?);
                }
                self.vars.pop();
                Ok(cl::Stmt::If {
                    cond: ce,
                    then_blk: tb,
                    else_blk: eb,
                })
            }
            ens::Stmt::Barrier { pos } => Ok(cl::Stmt::Barrier { pos: cl_pos(*pos) }),
            ens::Stmt::Print { pos, .. } => self.err(
                *pos,
                "print statements are not allowed in kernels (as in OpenCL)",
            ),
            ens::Stmt::Send { pos, .. }
            | ens::Stmt::Receive { pos, .. }
            | ens::Stmt::Connect { pos, .. }
            | ens::Stmt::Stop { pos } => self.err(
                *pos,
                "channel and lifecycle operations are not allowed inside the kernel region",
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn matmul_kernel_source() -> String {
        let src = include_str!("../../apps/src/assets/matmul/ocl.ens");
        let module = parse(src).unwrap();
        let actor = &module.stages[0].actors[0];
        let fields = vec![
            DataField {
                name: "a".into(),
                elem: ElemKind::Real,
                ndims: 2,
            },
            DataField {
                name: "b".into(),
                elem: ElemKind::Real,
                ndims: 2,
            },
            DataField {
                name: "result".into(),
                elem: ElemKind::Real,
                ndims: 2,
            },
        ];
        // Kernel region: everything between the two receives and the send.
        let body = &actor.behaviour[2..actor.behaviour.len() - 1];
        let input = KernelGenInput {
            name: "Multiply",
            data_fields: &fields,
            settings_scalars: &[],
            req_name: "req",
            data_name: "d",
            data_is_struct: true,
            body,
        };
        generate(&input).unwrap()
    }

    #[test]
    fn matmul_kernel_flattens_2d_indexing() {
        let src = matmul_kernel_source();
        assert!(src.contains("__kernel void Multiply"), "{src}");
        assert!(src.contains("__global float* a"), "{src}");
        assert!(src.contains("a_dim1"), "{src}");
        // d.a[y][i] must have become a flat `a[...a_dim1...]` access.
        assert!(src.contains("a[(("), "{src}");
    }

    #[test]
    fn generated_matmul_kernel_compiles_and_runs() {
        let src = matmul_kernel_source();
        let unit = oclsim::minicl::parse(&src).unwrap_or_else(|e| panic!("{e}\n{src}"));
        let compiled = oclsim::minicl::compile(&unit).unwrap_or_else(|e| panic!("{e:?}\n{src}"));
        assert!(compiled.kernels.contains_key("Multiply"));
    }

    #[test]
    fn print_in_kernel_is_rejected() {
        let src = "
            stage home {
                opencl <device_index=0, device_type=GPU>
                actor K presents I {
                    constructor() {}
                    behaviour {
                        receive req from requests;
                        receive d from req.input;
                        printInt(1);
                        send d on req.output;
                    }
                }
                boot {}
            }
        ";
        let module = parse(src).unwrap();
        let actor = &module.stages[0].actors[0];
        let body = &actor.behaviour[2..actor.behaviour.len() - 1];
        let fields = vec![DataField {
            name: "d".into(),
            elem: ElemKind::Real,
            ndims: 1,
        }];
        let input = KernelGenInput {
            name: "K",
            data_fields: &fields,
            settings_scalars: &[],
            req_name: "req",
            data_name: "d",
            data_is_struct: false,
            body,
        };
        let err = generate(&input).unwrap_err();
        assert!(err.diag.message.contains("print"));
    }
}
