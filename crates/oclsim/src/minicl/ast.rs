//! Abstract syntax tree for the mini OpenCL-C dialect.

use super::token::Pos;

/// Address spaces, mirroring OpenCL's memory hierarchy (§2.2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Space {
    /// `__global`: visible to every work-item, backed by a device buffer.
    Global,
    /// `__local`: shared by the work-items of one work-group.
    Local,
    /// `__constant`: read-only global memory.
    Constant,
    /// `__private`: per-work-item memory (the default for locals).
    Private,
}

/// Scalar and vector types of the dialect.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Type {
    /// No value (function return only).
    Void,
    /// Boolean (result of comparisons; storable in `int`).
    Bool,
    /// 32-bit signed integer. The simulator evaluates integer arithmetic at
    /// 64-bit width; the paper's applications stay well inside i32 range.
    Int,
    /// 32-bit unsigned integer (alias of `Int` in the simulator; documented
    /// in the crate root).
    Uint,
    /// 64-bit signed integer.
    Long,
    /// 32-bit IEEE float (computed at f64 internally, stored as f32).
    Float,
    /// OpenCL short-vector of four floats, used by the C-OpenCL document
    /// ranking kernel (the Ensemble path lacks it — a paper finding).
    Float4,
    /// Pointer into an address space: `__global float*`.
    Ptr(Space, Box<Type>),
}

impl Type {
    /// True for `Int`, `Uint`, `Long`, `Bool` (integer-register types).
    pub fn is_integer(&self) -> bool {
        matches!(self, Type::Int | Type::Uint | Type::Long | Type::Bool)
    }

    /// True for `Float`.
    pub fn is_float(&self) -> bool {
        matches!(self, Type::Float)
    }

    /// Size of one element of this type in bytes when stored in a buffer.
    pub fn byte_size(&self) -> usize {
        match self {
            Type::Void => 0,
            Type::Bool | Type::Int | Type::Uint | Type::Float => 4,
            Type::Long => 8,
            Type::Float4 => 16,
            Type::Ptr(..) => 8,
        }
    }
}

impl std::fmt::Display for Type {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Type::Void => write!(f, "void"),
            Type::Bool => write!(f, "bool"),
            Type::Int => write!(f, "int"),
            Type::Uint => write!(f, "uint"),
            Type::Long => write!(f, "long"),
            Type::Float => write!(f, "float"),
            Type::Float4 => write!(f, "float4"),
            Type::Ptr(space, inner) => {
                let s = match space {
                    Space::Global => "__global",
                    Space::Local => "__local",
                    Space::Constant => "__constant",
                    Space::Private => "__private",
                };
                write!(f, "{s} {inner}*")
            }
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // operator variants are self-describing
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    LAnd,
    LOr,
    BAnd,
    BOr,
    BXor,
    Shl,
    Shr,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // operator variants are self-describing
pub enum UnOp {
    Neg,
    LNot,
    BNot,
}

/// Compound-assignment operators (`x op= e`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // operator variants are self-describing
pub enum AssignOp {
    Set,
    Add,
    Sub,
    Mul,
    Div,
    Shl,
    Shr,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    IntLit(i64, Pos),
    /// Float literal.
    FloatLit(f64, Pos),
    /// `true` / `false`.
    BoolLit(bool, Pos),
    /// Variable reference.
    Var(String, Pos),
    /// Unary operation.
    Unary(UnOp, Box<Expr>, Pos),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>, Pos),
    /// `cond ? a : b`.
    Ternary(Box<Expr>, Box<Expr>, Box<Expr>, Pos),
    /// `base[index]` (base must be a pointer or array variable).
    Index(Box<Expr>, Box<Expr>, Pos),
    /// Function or builtin call.
    Call(String, Vec<Expr>, Pos),
    /// `(type) expr`.
    Cast(Type, Box<Expr>, Pos),
    /// `(float4)(a, b, c, d)` constructor (or `(float4)(s)` splat).
    MakeF4(Vec<Expr>, Pos),
    /// Vector component read: `v.x` (component 0..3).
    Comp(Box<Expr>, u8, Pos),
}

impl Expr {
    /// Source position of the expression (for diagnostics).
    pub fn pos(&self) -> Pos {
        match self {
            Expr::IntLit(_, p)
            | Expr::FloatLit(_, p)
            | Expr::BoolLit(_, p)
            | Expr::Var(_, p)
            | Expr::Unary(_, _, p)
            | Expr::Binary(_, _, _, p)
            | Expr::Ternary(_, _, _, p)
            | Expr::Index(_, _, p)
            | Expr::Call(_, _, p)
            | Expr::Cast(_, _, p)
            | Expr::MakeF4(_, p)
            | Expr::Comp(_, _, p) => *p,
        }
    }
}

/// Assignment targets.
#[derive(Debug, Clone, PartialEq)]
pub enum LValue {
    /// Plain variable.
    Var(String, Pos),
    /// Element of a pointer/array: `a[i]`.
    Index(String, Expr, Pos),
    /// Vector component: `v.x`.
    Comp(String, u8, Pos),
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Variable declaration, optionally an array, optionally initialised.
    Decl {
        /// Declared name.
        name: String,
        /// Element type.
        ty: Type,
        /// Address space (`Private` unless `__local` was written).
        space: Space,
        /// `Some(n)` when declared as `T name[n]`.
        array_len: Option<usize>,
        /// Optional initialiser expression.
        init: Option<Expr>,
        /// Source position.
        pos: Pos,
    },
    /// Assignment (including compound assignment and `x++`/`x--`).
    Assign {
        /// The target being written.
        target: LValue,
        /// Which compound operator.
        op: AssignOp,
        /// The right-hand side.
        value: Expr,
        /// Source position.
        pos: Pos,
    },
    /// `if (...) {...} else {...}`.
    If {
        /// Condition.
        cond: Expr,
        /// Then-branch.
        then_blk: Vec<Stmt>,
        /// Else-branch (empty if absent).
        else_blk: Vec<Stmt>,
    },
    /// `while (...) {...}`.
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `for (init; cond; step) {...}`.
    For {
        /// Optional init statement.
        init: Option<Box<Stmt>>,
        /// Optional condition (absent means `true`).
        cond: Option<Expr>,
        /// Optional step statement.
        step: Option<Box<Stmt>>,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `return expr?;`
    Return {
        /// Optional return value.
        value: Option<Expr>,
        /// Source position.
        pos: Pos,
    },
    /// `barrier(CLK_LOCAL_MEM_FENCE);` — work-group synchronisation.
    Barrier {
        /// Source position.
        pos: Pos,
    },
    /// Expression evaluated for effect (function call).
    ExprStmt(Expr),
    /// Nested block.
    Block(Vec<Stmt>),
}

/// Function parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Parameter type (pointers carry their address space).
    pub ty: Type,
    /// Declared `const` (constant buffers may only be read).
    pub is_const: bool,
    /// Source position.
    pub pos: Pos,
}

/// A function — either a `__kernel` entry point or a device function.
#[derive(Debug, Clone, PartialEq)]
pub struct Func {
    /// Function name.
    pub name: String,
    /// True for `__kernel void ...`.
    pub is_kernel: bool,
    /// Return type.
    pub ret: Type,
    /// Parameters.
    pub params: Vec<Param>,
    /// Body statements.
    pub body: Vec<Stmt>,
    /// Source position of the definition.
    pub pos: Pos,
}

/// A parsed translation unit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Unit {
    /// All functions (kernels and device functions) in source order.
    pub funcs: Vec<Func>,
    /// `#pragma` lines found in the source (line number, text).
    pub pragmas: Vec<(u32, String)>,
}

impl Unit {
    /// Names of the `__kernel` functions in the unit.
    pub fn kernel_names(&self) -> Vec<&str> {
        self.funcs
            .iter()
            .filter(|f| f.is_kernel)
            .map(|f| f.name.as_str())
            .collect()
    }
}
