//! Pretty-printer: mini OpenCL-C AST → source text.
//!
//! Both source-to-source consumers need this: the OpenACC-style baseline
//! turns annotated sequential loops into generated `__kernel` functions, and
//! the Ensemble compiler emits a C representation of a kernel actor's
//! behaviour "stored as a string within the actor's bytecode" (§6.1.3).
//! Emitted text re-parses to an equivalent AST (round-trip tested).

use super::ast::*;

/// Render a whole translation unit.
pub fn emit_unit(unit: &Unit) -> String {
    let mut out = String::new();
    for f in &unit.funcs {
        emit_func(&mut out, f);
        out.push('\n');
    }
    out
}

/// Render a single function.
pub fn emit_func(out: &mut String, f: &Func) {
    if f.is_kernel {
        out.push_str("__kernel ");
    }
    out.push_str(&type_name(&f.ret));
    out.push(' ');
    out.push_str(&f.name);
    out.push('(');
    for (i, p) in f.params.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        emit_param(out, p);
    }
    out.push_str(") {\n");
    for s in &f.body {
        emit_stmt(out, s, 1);
    }
    out.push_str("}\n");
}

fn emit_param(out: &mut String, p: &Param) {
    match &p.ty {
        Type::Ptr(space, inner) => {
            out.push_str(space_kw(*space));
            out.push(' ');
            if p.is_const && *space != Space::Constant {
                out.push_str("const ");
            }
            out.push_str(&type_name(inner));
            out.push_str("* ");
            out.push_str(&p.name);
        }
        other => {
            if p.is_const {
                out.push_str("const ");
            }
            out.push_str(&type_name(other));
            out.push(' ');
            out.push_str(&p.name);
        }
    }
}

fn space_kw(s: Space) -> &'static str {
    match s {
        Space::Global => "__global",
        Space::Local => "__local",
        Space::Constant => "__constant",
        Space::Private => "__private",
    }
}

fn type_name(t: &Type) -> String {
    match t {
        Type::Void => "void".into(),
        Type::Bool => "bool".into(),
        Type::Int => "int".into(),
        Type::Uint => "uint".into(),
        Type::Long => "long".into(),
        Type::Float => "float".into(),
        Type::Float4 => "float4".into(),
        Type::Ptr(_, inner) => format!("{}*", type_name(inner)),
    }
}

fn indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("    ");
    }
}

/// Render one statement at the given indent level.
pub fn emit_stmt(out: &mut String, s: &Stmt, level: usize) {
    match s {
        Stmt::Decl {
            name,
            ty,
            space,
            array_len,
            init,
            ..
        } => {
            indent(out, level);
            if *space == Space::Local {
                out.push_str("__local ");
            }
            out.push_str(&type_name(ty));
            out.push(' ');
            out.push_str(name);
            if let Some(n) = array_len {
                out.push_str(&format!("[{n}]"));
            }
            if let Some(e) = init {
                out.push_str(" = ");
                out.push_str(&emit_expr(e));
            }
            out.push_str(";\n");
        }
        Stmt::Assign {
            target, op, value, ..
        } => {
            indent(out, level);
            out.push_str(&emit_assign(target, *op, value));
            out.push_str(";\n");
        }
        Stmt::If {
            cond,
            then_blk,
            else_blk,
        } => {
            indent(out, level);
            out.push_str(&format!("if ({}) {{\n", emit_expr(cond)));
            for s in then_blk {
                emit_stmt(out, s, level + 1);
            }
            indent(out, level);
            out.push('}');
            if !else_blk.is_empty() {
                out.push_str(" else {\n");
                for s in else_blk {
                    emit_stmt(out, s, level + 1);
                }
                indent(out, level);
                out.push('}');
            }
            out.push('\n');
        }
        Stmt::While { cond, body } => {
            indent(out, level);
            out.push_str(&format!("while ({}) {{\n", emit_expr(cond)));
            for s in body {
                emit_stmt(out, s, level + 1);
            }
            indent(out, level);
            out.push_str("}\n");
        }
        Stmt::For {
            init,
            cond,
            step,
            body,
        } => {
            indent(out, level);
            out.push_str("for (");
            if let Some(i) = init {
                out.push_str(emit_stmt_inline(i).trim_end_matches(";\n"));
            }
            out.push_str("; ");
            if let Some(c) = cond {
                out.push_str(&emit_expr(c));
            }
            out.push_str("; ");
            if let Some(st) = step {
                out.push_str(emit_stmt_inline(st).trim_end_matches(";\n"));
            }
            out.push_str(") {\n");
            for s in body {
                emit_stmt(out, s, level + 1);
            }
            indent(out, level);
            out.push_str("}\n");
        }
        Stmt::Return { value, .. } => {
            indent(out, level);
            match value {
                Some(v) => out.push_str(&format!("return {};\n", emit_expr(v))),
                None => out.push_str("return;\n"),
            }
        }
        Stmt::Barrier { .. } => {
            indent(out, level);
            out.push_str("barrier(CLK_LOCAL_MEM_FENCE);\n");
        }
        Stmt::ExprStmt(e) => {
            indent(out, level);
            out.push_str(&emit_expr(e));
            out.push_str(";\n");
        }
        Stmt::Block(b) => {
            indent(out, level);
            out.push_str("{\n");
            for s in b {
                emit_stmt(out, s, level + 1);
            }
            indent(out, level);
            out.push_str("}\n");
        }
    }
}

fn emit_stmt_inline(s: &Stmt) -> String {
    let mut out = String::new();
    emit_stmt(&mut out, s, 0);
    out
}

fn emit_assign(target: &LValue, op: AssignOp, value: &Expr) -> String {
    let t = match target {
        LValue::Var(n, _) => n.clone(),
        LValue::Index(n, idx, _) => format!("{n}[{}]", emit_expr(idx)),
        LValue::Comp(n, c, _) => format!("{n}.{}", comp_name(*c)),
    };
    let o = match op {
        AssignOp::Set => "=",
        AssignOp::Add => "+=",
        AssignOp::Sub => "-=",
        AssignOp::Mul => "*=",
        AssignOp::Div => "/=",
        AssignOp::Shl => "<<=",
        AssignOp::Shr => ">>=",
    };
    format!("{t} {o} {}", emit_expr(value))
}

fn comp_name(c: u8) -> char {
    match c {
        0 => 'x',
        1 => 'y',
        2 => 'z',
        _ => 'w',
    }
}

/// Render an expression (fully parenthesised — correctness over beauty).
pub fn emit_expr(e: &Expr) -> String {
    match e {
        Expr::IntLit(v, _) => v.to_string(),
        Expr::FloatLit(v, _) => {
            if v.fract() == 0.0 && v.abs() < 1e15 {
                format!("{v:.1}f")
            } else {
                format!("{v}f")
            }
        }
        Expr::BoolLit(b, _) => b.to_string(),
        Expr::Var(n, _) => n.clone(),
        Expr::Unary(op, inner, _) => {
            let o = match op {
                UnOp::Neg => "-",
                UnOp::LNot => "!",
                UnOp::BNot => "~",
            };
            format!("({o}{})", emit_expr(inner))
        }
        Expr::Binary(op, l, r, _) => {
            let o = match op {
                BinOp::Add => "+",
                BinOp::Sub => "-",
                BinOp::Mul => "*",
                BinOp::Div => "/",
                BinOp::Rem => "%",
                BinOp::Eq => "==",
                BinOp::Ne => "!=",
                BinOp::Lt => "<",
                BinOp::Le => "<=",
                BinOp::Gt => ">",
                BinOp::Ge => ">=",
                BinOp::LAnd => "&&",
                BinOp::LOr => "||",
                BinOp::BAnd => "&",
                BinOp::BOr => "|",
                BinOp::BXor => "^",
                BinOp::Shl => "<<",
                BinOp::Shr => ">>",
            };
            format!("({} {o} {})", emit_expr(l), emit_expr(r))
        }
        Expr::Ternary(c, a, b, _) => {
            format!("({} ? {} : {})", emit_expr(c), emit_expr(a), emit_expr(b))
        }
        Expr::Index(base, idx, _) => format!("{}[{}]", emit_expr(base), emit_expr(idx)),
        Expr::Call(name, args, _) => {
            let args: Vec<String> = args.iter().map(emit_expr).collect();
            format!("{name}({})", args.join(", "))
        }
        Expr::Cast(ty, inner, _) => format!("(({}){})", type_name(ty), emit_expr(inner)),
        Expr::MakeF4(comps, _) => {
            let parts: Vec<String> = comps.iter().map(emit_expr).collect();
            format!("(float4)({})", parts.join(", "))
        }
        Expr::Comp(base, c, _) => format!("{}.{}", emit_expr(base), comp_name(*c)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minicl::parser::parse;

    fn roundtrip(src: &str) {
        let unit = parse(src).unwrap();
        let emitted = emit_unit(&unit);
        let reparsed = parse(&emitted).unwrap_or_else(|e| {
            panic!("emitted source failed to re-parse: {e}\n--- emitted ---\n{emitted}")
        });
        // Compare shapes (positions differ); a second emit must be stable.
        let emitted2 = emit_unit(&reparsed);
        assert_eq!(emitted, emitted2, "pretty-printing is not a fixpoint");
        assert_eq!(unit.funcs.len(), reparsed.funcs.len());
    }

    #[test]
    fn roundtrips_square() {
        roundtrip(
            "__kernel void square(__global float* in, __global float* out, const int n) {
                int i = get_global_id(0);
                if (i < n) { out[i] = in[i] * in[i]; }
            }",
        );
    }

    #[test]
    fn roundtrips_barrier_reduction() {
        roundtrip(
            "__kernel void r(__global float* a, __global float* o, __local float* s) {
                int l = get_local_id(0);
                s[l] = a[get_global_id(0)];
                barrier(CLK_LOCAL_MEM_FENCE);
                for (int st = get_local_size(0) / 2; st > 0; st >>= 1) {
                    if (l < st) { s[l] = fmin(s[l], s[l + st]); }
                    barrier(CLK_LOCAL_MEM_FENCE);
                }
                if (l == 0) { o[get_group_id(0)] = s[0]; }
            }",
        );
    }

    #[test]
    fn roundtrips_float4_and_casts() {
        roundtrip(
            "__kernel void v(__global float4* a, __global float* o, const int n) {
                float4 t = (float4)(1.0f, 2.0f, 3.0f, 4.0f);
                float s = dot(t, a[0]) + (float)n;
                o[0] = s > 0.0f ? s : -s;
                t.x = t.w;
                a[1] = t;
            }",
        );
    }

    #[test]
    fn roundtrips_device_functions_and_while() {
        roundtrip(
            "float f(float x) { while (x > 1.0f) { x = x / 2.0f; } return x; }
            __kernel void k(__global float* a) { a[0] = f(a[0]); }",
        );
    }

    #[test]
    fn emitted_kernel_compiles() {
        let unit = parse(
            "__kernel void k(__global float* a, const int n) {
                for (int i = 0; i < n; i++) { a[i] = (float)(i * i); }
            }",
        )
        .unwrap();
        let emitted = emit_unit(&unit);
        let re = parse(&emitted).unwrap();
        assert!(crate::minicl::codegen::compile(&re).is_ok());
    }
}
