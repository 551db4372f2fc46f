//! Recursive-descent parser for the mini OpenCL-C dialect.

use super::ast::*;
use super::token::{lex, Pos, Spanned, Tok};

/// A parse error with position information.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// Where the error occurred.
    pub pos: Pos,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: parse error: {}", self.pos, self.message)
    }
}

/// Parse a full translation unit.
pub fn parse(src: &str) -> Result<Unit, ParseError> {
    let (tokens, pragmas) = lex(src).map_err(|e| ParseError {
        message: e.message,
        pos: e.pos,
    })?;
    let mut p = Parser { tokens, i: 0 };
    let mut funcs = Vec::new();
    while !p.at_eof() {
        funcs.push(p.func()?);
    }
    Ok(Unit { funcs, pragmas })
}

/// Parse a single expression (used by the OpenACC pragma engine for clause
/// arguments like `copyin(a[0:n*n])`).
pub fn parse_expr(src: &str) -> Result<Expr, ParseError> {
    let (tokens, _) = lex(src).map_err(|e| ParseError {
        message: e.message,
        pos: e.pos,
    })?;
    let mut p = Parser { tokens, i: 0 };
    let e = p.expr()?;
    p.expect(Tok::Eof)?;
    Ok(e)
}

struct Parser {
    tokens: Vec<Spanned>,
    i: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.tokens[self.i].tok
    }

    fn peek2(&self) -> &Tok {
        if self.i + 1 < self.tokens.len() {
            &self.tokens[self.i + 1].tok
        } else {
            &Tok::Eof
        }
    }

    fn pos(&self) -> Pos {
        self.tokens[self.i].pos
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), Tok::Eof)
    }

    fn bump(&mut self) -> Tok {
        let t = self.tokens[self.i].tok.clone();
        if self.i + 1 < self.tokens.len() {
            self.i += 1;
        }
        t
    }

    fn expect(&mut self, t: Tok) -> Result<(), ParseError> {
        if *self.peek() == t {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected {t}, found {}", self.peek())))
        }
    }

    fn err(&self, message: String) -> ParseError {
        ParseError {
            message,
            pos: self.pos(),
        }
    }

    fn eat_ident(&mut self, kw: &str) -> bool {
        if let Tok::Ident(s) = self.peek() {
            if s == kw {
                self.bump();
                return true;
            }
        }
        false
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(self.err(format!("expected identifier, found {other}"))),
        }
    }

    fn is_type_kw(s: &str) -> bool {
        matches!(
            s,
            "void" | "bool" | "int" | "uint" | "long" | "float" | "float4" | "size_t"
        )
    }

    fn base_type(&mut self) -> Result<Type, ParseError> {
        let name = self.ident()?;
        match name.as_str() {
            "void" => Ok(Type::Void),
            "bool" => Ok(Type::Bool),
            "int" => Ok(Type::Int),
            "uint" | "size_t" | "unsigned" => Ok(Type::Uint),
            "long" => Ok(Type::Long),
            "float" => Ok(Type::Float),
            "float4" => Ok(Type::Float4),
            other => Err(self.err(format!("unknown type `{other}`"))),
        }
    }

    fn space_qualifier(&mut self) -> Option<Space> {
        if let Tok::Ident(s) = self.peek() {
            let sp = match s.as_str() {
                "__global" | "global" => Some(Space::Global),
                "__local" | "local" => Some(Space::Local),
                "__constant" | "constant" => Some(Space::Constant),
                "__private" | "private" => Some(Space::Private),
                _ => None,
            };
            if sp.is_some() {
                self.bump();
            }
            sp
        } else {
            None
        }
    }

    fn func(&mut self) -> Result<Func, ParseError> {
        let pos = self.pos();
        let is_kernel = self.eat_ident("__kernel") || self.eat_ident("kernel");
        let ret = self.base_type()?;
        if is_kernel && ret != Type::Void {
            return Err(self.err("__kernel functions must return void".to_string()));
        }
        let name = self.ident()?;
        self.expect(Tok::LParen)?;
        let mut params = Vec::new();
        if *self.peek() != Tok::RParen {
            loop {
                params.push(self.param()?);
                if *self.peek() == Tok::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.expect(Tok::RParen)?;
        self.expect(Tok::LBrace)?;
        let body = self.block_body()?;
        Ok(Func {
            name,
            is_kernel,
            ret,
            params,
            body,
            pos,
        })
    }

    fn param(&mut self) -> Result<Param, ParseError> {
        let pos = self.pos();
        let mut space = self.space_qualifier();
        let mut is_const = self.eat_ident("const");
        if space.is_none() {
            space = self.space_qualifier();
        }
        let base = self.base_type()?;
        if self.eat_ident("const") {
            is_const = true;
        }
        let ty = if *self.peek() == Tok::Star {
            self.bump();
            let sp = space.unwrap_or(Space::Global);
            if sp == Space::Constant {
                is_const = true;
            }
            Type::Ptr(sp, Box::new(base))
        } else {
            base
        };
        let name = self.ident()?;
        Ok(Param {
            name,
            ty,
            is_const,
            pos,
        })
    }

    fn block_body(&mut self) -> Result<Vec<Stmt>, ParseError> {
        let mut stmts = Vec::new();
        while *self.peek() != Tok::RBrace {
            if self.at_eof() {
                return Err(self.err("unterminated block".to_string()));
            }
            stmts.push(self.stmt()?);
        }
        self.expect(Tok::RBrace)?;
        Ok(stmts)
    }

    fn looks_like_decl(&self) -> bool {
        match self.peek() {
            Tok::Ident(s) => {
                matches!(
                    s.as_str(),
                    "__local" | "local" | "__private" | "private" | "const"
                ) || (Self::is_type_kw(s) && matches!(self.peek2(), Tok::Ident(_)))
            }
            _ => false,
        }
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        let pos = self.pos();
        match self.peek().clone() {
            Tok::LBrace => {
                self.bump();
                Ok(Stmt::Block(self.block_body()?))
            }
            Tok::Ident(kw) if kw == "if" => {
                self.bump();
                self.expect(Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(Tok::RParen)?;
                let then_blk = self.stmt_as_block()?;
                let else_blk = if self.eat_ident("else") {
                    self.stmt_as_block()?
                } else {
                    Vec::new()
                };
                Ok(Stmt::If {
                    cond,
                    then_blk,
                    else_blk,
                })
            }
            Tok::Ident(kw) if kw == "while" => {
                self.bump();
                self.expect(Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(Tok::RParen)?;
                let body = self.stmt_as_block()?;
                Ok(Stmt::While { cond, body })
            }
            Tok::Ident(kw) if kw == "for" => {
                self.bump();
                self.expect(Tok::LParen)?;
                let init = if *self.peek() == Tok::Semi {
                    self.bump();
                    None
                } else {
                    let s = self.simple_stmt_no_semi()?;
                    self.expect(Tok::Semi)?;
                    Some(Box::new(s))
                };
                let cond = if *self.peek() == Tok::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(Tok::Semi)?;
                let step = if *self.peek() == Tok::RParen {
                    None
                } else {
                    Some(Box::new(self.simple_stmt_no_semi()?))
                };
                self.expect(Tok::RParen)?;
                let body = self.stmt_as_block()?;
                Ok(Stmt::For {
                    init,
                    cond,
                    step,
                    body,
                })
            }
            Tok::Ident(kw) if kw == "return" => {
                self.bump();
                let value = if *self.peek() == Tok::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(Tok::Semi)?;
                Ok(Stmt::Return { value, pos })
            }
            Tok::Ident(kw) if kw == "barrier" => {
                self.bump();
                self.expect(Tok::LParen)?;
                // Accept any fence-flag expression: CLK_LOCAL_MEM_FENCE etc.
                while *self.peek() != Tok::RParen {
                    if self.at_eof() {
                        return Err(self.err("unterminated barrier()".to_string()));
                    }
                    self.bump();
                }
                self.expect(Tok::RParen)?;
                self.expect(Tok::Semi)?;
                Ok(Stmt::Barrier { pos })
            }
            _ => {
                if self.looks_like_decl() {
                    let s = self.decl()?;
                    self.expect(Tok::Semi)?;
                    Ok(s)
                } else {
                    let s = self.simple_stmt_no_semi()?;
                    self.expect(Tok::Semi)?;
                    Ok(s)
                }
            }
        }
    }

    fn stmt_as_block(&mut self) -> Result<Vec<Stmt>, ParseError> {
        if *self.peek() == Tok::LBrace {
            self.bump();
            self.block_body()
        } else {
            Ok(vec![self.stmt()?])
        }
    }

    fn decl(&mut self) -> Result<Stmt, ParseError> {
        let pos = self.pos();
        let space = self.space_qualifier().unwrap_or(Space::Private);
        let _ = self.eat_ident("const");
        let ty = self.base_type()?;
        let name = self.ident()?;
        let array_len = if *self.peek() == Tok::LBracket {
            self.bump();
            let n = match self.bump() {
                Tok::IntLit(v) if v > 0 => v as usize,
                other => {
                    return Err(self.err(format!(
                        "array length must be a positive integer literal, found {other}"
                    )))
                }
            };
            self.expect(Tok::RBracket)?;
            Some(n)
        } else {
            None
        };
        let init = if *self.peek() == Tok::Assign {
            self.bump();
            Some(self.expr()?)
        } else {
            None
        };
        if array_len.is_some() && init.is_some() {
            return Err(self.err("array declarations cannot have initialisers".to_string()));
        }
        Ok(Stmt::Decl {
            name,
            ty,
            space,
            array_len,
            init,
            pos,
        })
    }

    /// Assignment, increment, call, or declaration — without the trailing
    /// semicolon (used in `for` headers).
    fn simple_stmt_no_semi(&mut self) -> Result<Stmt, ParseError> {
        if self.looks_like_decl() {
            return self.decl();
        }
        let pos = self.pos();
        let e = self.expr()?;
        // Postfix ++/-- as statements.
        if matches!(self.peek(), Tok::PlusPlus | Tok::MinusMinus) {
            let inc = matches!(self.bump(), Tok::PlusPlus);
            let target = self.expr_to_lvalue(&e)?;
            return Ok(Stmt::Assign {
                target,
                op: if inc { AssignOp::Add } else { AssignOp::Sub },
                value: Expr::IntLit(1, pos),
                pos,
            });
        }
        let op = match self.peek() {
            Tok::Assign => Some(AssignOp::Set),
            Tok::PlusAssign => Some(AssignOp::Add),
            Tok::MinusAssign => Some(AssignOp::Sub),
            Tok::StarAssign => Some(AssignOp::Mul),
            Tok::SlashAssign => Some(AssignOp::Div),
            Tok::ShlAssign => Some(AssignOp::Shl),
            Tok::ShrAssign => Some(AssignOp::Shr),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let value = self.expr()?;
            let target = self.expr_to_lvalue(&e)?;
            Ok(Stmt::Assign {
                target,
                op,
                value,
                pos,
            })
        } else {
            Ok(Stmt::ExprStmt(e))
        }
    }

    fn expr_to_lvalue(&self, e: &Expr) -> Result<LValue, ParseError> {
        match e {
            Expr::Var(n, p) => Ok(LValue::Var(n.clone(), *p)),
            Expr::Index(base, idx, p) => {
                if let Expr::Var(n, _) = base.as_ref() {
                    Ok(LValue::Index(n.clone(), (**idx).clone(), *p))
                } else {
                    Err(ParseError {
                        message: "only `name[index]` may be assigned".to_string(),
                        pos: *p,
                    })
                }
            }
            Expr::Comp(base, c, p) => {
                if let Expr::Var(n, _) = base.as_ref() {
                    Ok(LValue::Comp(n.clone(), *c, *p))
                } else {
                    Err(ParseError {
                        message: "only `name.component` may be assigned".to_string(),
                        pos: *p,
                    })
                }
            }
            other => Err(ParseError {
                message: "expression is not assignable".to_string(),
                pos: other.pos(),
            }),
        }
    }

    // ---- expressions (precedence climbing) ----

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.ternary()
    }

    fn ternary(&mut self) -> Result<Expr, ParseError> {
        let cond = self.binary(0)?;
        if *self.peek() == Tok::Question {
            let pos = self.pos();
            self.bump();
            let a = self.expr()?;
            self.expect(Tok::Colon)?;
            let b = self.ternary()?;
            Ok(Expr::Ternary(Box::new(cond), Box::new(a), Box::new(b), pos))
        } else {
            Ok(cond)
        }
    }

    fn bin_op_prec(t: &Tok) -> Option<(BinOp, u8)> {
        Some(match t {
            Tok::OrOr => (BinOp::LOr, 1),
            Tok::AndAnd => (BinOp::LAnd, 2),
            Tok::Pipe => (BinOp::BOr, 3),
            Tok::Caret => (BinOp::BXor, 4),
            Tok::Amp => (BinOp::BAnd, 5),
            Tok::Eq => (BinOp::Eq, 6),
            Tok::Ne => (BinOp::Ne, 6),
            Tok::Lt => (BinOp::Lt, 7),
            Tok::Le => (BinOp::Le, 7),
            Tok::Gt => (BinOp::Gt, 7),
            Tok::Ge => (BinOp::Ge, 7),
            Tok::Shl => (BinOp::Shl, 8),
            Tok::Shr => (BinOp::Shr, 8),
            Tok::Plus => (BinOp::Add, 9),
            Tok::Minus => (BinOp::Sub, 9),
            Tok::Star => (BinOp::Mul, 10),
            Tok::Slash => (BinOp::Div, 10),
            Tok::Percent => (BinOp::Rem, 10),
            _ => return None,
        })
    }

    fn binary(&mut self, min_prec: u8) -> Result<Expr, ParseError> {
        let mut lhs = self.unary()?;
        while let Some((op, prec)) = Self::bin_op_prec(self.peek()) {
            if prec < min_prec {
                break;
            }
            let pos = self.pos();
            self.bump();
            let rhs = self.binary(prec + 1)?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs), pos);
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        let pos = self.pos();
        match self.peek().clone() {
            Tok::Minus => {
                self.bump();
                Ok(Expr::Unary(UnOp::Neg, Box::new(self.unary()?), pos))
            }
            Tok::Not => {
                self.bump();
                Ok(Expr::Unary(UnOp::LNot, Box::new(self.unary()?), pos))
            }
            Tok::Tilde => {
                self.bump();
                Ok(Expr::Unary(UnOp::BNot, Box::new(self.unary()?), pos))
            }
            Tok::LParen => {
                // Possible cast: `(type) expr` or `(float4)(a,b,c,d)`.
                if let Tok::Ident(s) = self.peek2() {
                    if Self::is_type_kw(s) {
                        self.bump(); // (
                        let ty = self.base_type()?;
                        self.expect(Tok::RParen)?;
                        if ty == Type::Float4 {
                            self.expect(Tok::LParen)?;
                            let mut comps = vec![self.expr()?];
                            while *self.peek() == Tok::Comma {
                                self.bump();
                                comps.push(self.expr()?);
                            }
                            self.expect(Tok::RParen)?;
                            if comps.len() != 1 && comps.len() != 4 {
                                return Err(self.err(
                                    "(float4)(...) takes one (splat) or four components"
                                        .to_string(),
                                ));
                            }
                            return Ok(Expr::MakeF4(comps, pos));
                        }
                        let inner = self.unary()?;
                        return Ok(Expr::Cast(ty, Box::new(inner), pos));
                    }
                }
                self.postfix()
            }
            _ => self.postfix(),
        }
    }

    fn postfix(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.primary()?;
        loop {
            let pos = self.pos();
            match self.peek().clone() {
                Tok::LBracket => {
                    self.bump();
                    let idx = self.expr()?;
                    self.expect(Tok::RBracket)?;
                    e = Expr::Index(Box::new(e), Box::new(idx), pos);
                }
                Tok::Dot => {
                    self.bump();
                    let comp = self.ident()?;
                    let c = match comp.as_str() {
                        "x" | "s0" => 0u8,
                        "y" | "s1" => 1,
                        "z" | "s2" => 2,
                        "w" | "s3" => 3,
                        other => {
                            return Err(self.err(format!("unknown vector component `.{other}`")))
                        }
                    };
                    e = Expr::Comp(Box::new(e), c, pos);
                }
                _ => break,
            }
        }
        Ok(e)
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        let pos = self.pos();
        match self.peek().clone() {
            Tok::IntLit(v) => {
                self.bump();
                Ok(Expr::IntLit(v, pos))
            }
            Tok::FloatLit(v) => {
                self.bump();
                Ok(Expr::FloatLit(v, pos))
            }
            Tok::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            Tok::Ident(name) => {
                if Self::is_type_kw(&name) {
                    return Err(self.err(format!(
                        "type keyword `{name}` is not valid in an expression"
                    )));
                }
                self.bump();
                match name.as_str() {
                    "true" => return Ok(Expr::BoolLit(true, pos)),
                    "false" => return Ok(Expr::BoolLit(false, pos)),
                    _ => {}
                }
                if *self.peek() == Tok::LParen {
                    self.bump();
                    let mut args = Vec::new();
                    if *self.peek() != Tok::RParen {
                        loop {
                            args.push(self.expr()?);
                            if *self.peek() == Tok::Comma {
                                self.bump();
                            } else {
                                break;
                            }
                        }
                    }
                    self.expect(Tok::RParen)?;
                    Ok(Expr::Call(name, args, pos))
                } else {
                    Ok(Expr::Var(name, pos))
                }
            }
            other => Err(self.err(format!("expected expression, found {other}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SQUARE: &str = r#"
        __kernel void square(__global float* input,
                             __global float* output,
                             const int count) {
            int i = get_global_id(0);
            if (i < count) {
                output[i] = input[i] * input[i];
            }
        }
    "#;

    #[test]
    fn parses_listing1_square_kernel() {
        let unit = parse(SQUARE).unwrap();
        assert_eq!(unit.kernel_names(), vec!["square"]);
        let f = &unit.funcs[0];
        assert_eq!(f.params.len(), 3);
        assert_eq!(
            f.params[0].ty,
            Type::Ptr(Space::Global, Box::new(Type::Float))
        );
        assert!(f.params[2].is_const);
    }

    #[test]
    fn parses_for_loop_with_compound_step() {
        let unit = parse(
            "__kernel void k(__global float* a) {
                float c = 0.0f;
                for (int i = 0; i < 10; i++) { c += a[i]; }
                a[0] = c;
            }",
        )
        .unwrap();
        assert_eq!(unit.funcs[0].body.len(), 3);
    }

    #[test]
    fn parses_barrier_and_local() {
        let unit = parse(
            "__kernel void r(__global float* a, __local float* s) {
                int l = get_local_id(0);
                s[l] = a[l];
                barrier(CLK_LOCAL_MEM_FENCE);
                for (uint st = 64; st > 0; st >>= 1) {
                    if (l < st) { s[l] = fmin(s[l], s[l + st]); }
                    barrier(CLK_LOCAL_MEM_FENCE);
                }
            }",
        )
        .unwrap();
        let barriers = count_barriers(&unit.funcs[0].body);
        assert_eq!(barriers, 2);
    }

    fn count_barriers(stmts: &[Stmt]) -> usize {
        stmts
            .iter()
            .map(|s| match s {
                Stmt::Barrier { .. } => 1,
                Stmt::Block(b) => count_barriers(b),
                Stmt::If {
                    then_blk, else_blk, ..
                } => count_barriers(then_blk) + count_barriers(else_blk),
                Stmt::For { body, .. } | Stmt::While { body, .. } => count_barriers(body),
                _ => 0,
            })
            .sum()
    }

    #[test]
    fn parses_float4_constructor_and_swizzle() {
        let unit = parse(
            "__kernel void v(__global float4* a) {
                float4 t = (float4)(1.0f, 2.0f, 3.0f, 4.0f);
                a[0] = t;
                float s = t.x + a[0].w;
                a[1] = (float4)(s);
            }",
        )
        .unwrap();
        assert_eq!(unit.funcs[0].name, "v");
    }

    #[test]
    fn parses_device_function_and_ternary() {
        let unit = parse(
            "float clampf(float v, float lo, float hi) {
                return v < lo ? lo : (v > hi ? hi : v);
            }
            __kernel void k(__global float* a) { a[0] = clampf(a[0], 0.0f, 1.0f); }",
        )
        .unwrap();
        assert_eq!(unit.funcs.len(), 2);
        assert!(!unit.funcs[0].is_kernel);
        assert!(unit.funcs[1].is_kernel);
    }

    #[test]
    fn rejects_non_void_kernel() {
        assert!(parse("__kernel int k() { return 1; }").is_err());
    }

    #[test]
    fn rejects_assignment_to_call() {
        assert!(parse("__kernel void k() { f() = 3; }").is_err());
    }

    #[test]
    fn keeps_pragmas() {
        let unit =
            parse("#pragma acc parallel loop\n__kernel void k(__global float* a) { }").unwrap();
        assert_eq!(unit.pragmas.len(), 1);
    }

    #[test]
    fn parses_local_array_decl() {
        let unit = parse(
            "__kernel void k(__global float* a) {
                __local float scratch[128];
                scratch[get_local_id(0)] = a[get_global_id(0)];
                barrier(CLK_LOCAL_MEM_FENCE);
            }",
        )
        .unwrap();
        match &unit.funcs[0].body[0] {
            Stmt::Decl {
                space, array_len, ..
            } => {
                assert_eq!(*space, Space::Local);
                assert_eq!(*array_len, Some(128));
            }
            other => panic!("expected decl, got {other:?}"),
        }
    }

    #[test]
    fn error_carries_position() {
        let err = parse("__kernel void k() {\n  int = 3;\n}").unwrap_err();
        assert_eq!(err.pos.line, 2);
    }
}
