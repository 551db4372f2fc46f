//! Flat bytecode for compiled mini OpenCL-C kernels.
//!
//! Kernels are compiled to a stack machine with an explicit [`Op::Barrier`]
//! opcode. The flat encoding is what makes work-group barriers cheap to
//! simulate: a work-item's execution state is just an instruction pointer,
//! an operand stack and a locals array, so the interpreter can suspend every
//! item at a barrier and resume them in lock-step rounds.

use super::ast::{Space, Type};
use std::collections::HashMap;

/// Element types that can live in buffers (global/local/private memory).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElemTy {
    /// 32-bit signed int.
    I32,
    /// 64-bit signed int.
    I64,
    /// 32-bit float.
    F32,
    /// Four packed 32-bit floats.
    F4,
}

impl ElemTy {
    /// Bytes occupied by one element.
    pub fn byte_size(self) -> usize {
        match self {
            ElemTy::I32 | ElemTy::F32 => 4,
            ElemTy::I64 => 8,
            ElemTy::F4 => 16,
        }
    }

    /// The buffer element type corresponding to an AST type, if storable.
    pub fn of(ty: &Type) -> Option<ElemTy> {
        match ty {
            Type::Int | Type::Uint | Type::Bool => Some(ElemTy::I32),
            Type::Long => Some(ElemTy::I64),
            Type::Float => Some(ElemTy::F32),
            Type::Float4 => Some(ElemTy::F4),
            _ => None,
        }
    }
}

/// Comparison kinds for `CmpI`/`CmpF`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // comparison variants are self-describing
pub enum Cmp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// Work-item builtins (OpenCL intrinsics available inside kernels).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Builtin {
    /// `get_global_id(dim)`.
    GetGlobalId,
    /// `get_local_id(dim)`.
    GetLocalId,
    /// `get_group_id(dim)`.
    GetGroupId,
    /// `get_global_size(dim)`.
    GetGlobalSize,
    /// `get_local_size(dim)`.
    GetLocalSize,
    /// `get_num_groups(dim)`.
    GetNumGroups,
    /// `sqrt(x)`.
    Sqrt,
    /// `rsqrt(x)` = 1/sqrt(x).
    Rsqrt,
    /// `fabs(x)`.
    Fabs,
    /// `floor(x)`.
    Floor,
    /// `ceil(x)`.
    Ceil,
    /// `exp(x)`.
    Exp,
    /// `log(x)` (natural).
    Log,
    /// `pow(x, y)`.
    Pow,
    /// `sin(x)`.
    Sin,
    /// `cos(x)`.
    Cos,
    /// `fmin(a, b)` on floats.
    Fmin,
    /// `fmax(a, b)` on floats.
    Fmax,
    /// `min(a, b)` on ints.
    MinI,
    /// `max(a, b)` on ints.
    MaxI,
    /// `abs(a)` on ints.
    AbsI,
    /// `clamp(v, lo, hi)` on floats.
    Clamp,
    /// `mad(a, b, c)` = a*b + c on floats.
    Mad,
    /// `dot(a, b)` on float4.
    Dot,
}

/// One bytecode instruction.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // arithmetic variants are self-describing
pub enum Op {
    /// Push an integer constant.
    PushI(i64),
    /// Push a float constant.
    PushF(f64),
    /// Push a pointer constant (used for local/private array declarations).
    PushPtr {
        /// Address space of the pointer.
        space: Space,
        /// Arg index (global), region index (local) — unused for private.
        slot: u16,
        /// Byte offset of the array base within its region.
        base: u32,
    },
    /// Discard the top of stack.
    Pop,
    /// Duplicate the top of stack.
    Dup,
    /// Duplicate the top two stack values: `[a, b] -> [a, b, a, b]`.
    Dup2,
    /// Exchange the top two stack values.
    Swap,
    /// Push local variable `slot` (frame-relative).
    Ld(u16),
    /// Pop into local variable `slot` (frame-relative).
    St(u16),
    // Integer arithmetic (64-bit two's complement).
    AddI,
    SubI,
    MulI,
    /// Traps on division by zero.
    DivI,
    /// Traps on division by zero.
    RemI,
    NegI,
    // Float arithmetic (f64 internally; stored as f32 in buffers).
    AddF,
    SubF,
    MulF,
    DivF,
    NegF,
    // float4 component-wise arithmetic.
    AddF4,
    SubF4,
    MulF4,
    DivF4,
    /// Broadcast a scalar float to all four lanes.
    SplatF4,
    /// Build a float4 from four scalar floats (stack order x,y,z,w).
    MakeF4,
    /// Extract component `0..=3` of a float4.
    GetComp(u8),
    /// `[vec, scalar] -> vec` with component replaced.
    SetComp(u8),
    // Integer bitwise.
    Shl,
    Shr,
    BAnd,
    BOr,
    BXor,
    BNot,
    /// Integer comparison; pushes 0 or 1.
    CmpI(Cmp),
    /// Float comparison; pushes 0 or 1.
    CmpF(Cmp),
    /// Logical not on an integer truth value.
    LNot,
    /// int → float conversion.
    I2F,
    /// float → int conversion (truncating, like C).
    F2I,
    /// Unconditional jump to absolute instruction index.
    Jmp(u32),
    /// Jump if top of stack (int) is zero.
    Jz(u32),
    /// Jump if top of stack (int) is non-zero.
    Jnz(u32),
    /// `[ptr, idx] -> value`: load an element from memory.
    LdElem(ElemTy),
    /// `[ptr, idx, value] -> ()`: store an element to memory.
    StElem(ElemTy),
    /// Call user function: args are on the stack in declaration order.
    Call {
        /// Index into [`CompiledUnit::funcs`].
        func: u16,
        /// Number of arguments to pop into the new frame.
        nargs: u8,
    },
    /// Call a builtin with `argc` stack arguments.
    CallB(Builtin, u8),
    /// Work-group barrier: suspends the item until every item in the group
    /// reaches the same barrier.
    Barrier,
    /// Return void from the current function (or finish the kernel).
    Ret,
    /// Return a value from the current function.
    RetV,
}

impl Op {
    /// Abstract cost in device "ops" charged to the virtual clock.
    ///
    /// The weights encode the performance folklore the paper's figures rely
    /// on: memory traffic is ~4× ALU cost, transcendental math ~8×, and a
    /// `float4` arithmetic op costs the same as a scalar one (that is the
    /// whole point of short vectors, and the reason the C-OpenCL document
    /// ranking kernel beats the scalar Ensemble one in Figure 3e).
    pub fn cost(&self) -> u64 {
        match self {
            Op::LdElem(_) | Op::StElem(_) => 4,
            Op::DivI | Op::RemI | Op::DivF | Op::DivF4 => 8,
            Op::CallB(b, _) => match b {
                Builtin::Sqrt
                | Builtin::Rsqrt
                | Builtin::Exp
                | Builtin::Log
                | Builtin::Pow
                | Builtin::Sin
                | Builtin::Cos => 8,
                Builtin::Dot | Builtin::Mad | Builtin::Clamp => 2,
                _ => 1,
            },
            Op::Call { .. } => 4,
            Op::Barrier => 2,
            _ => 1,
        }
    }
}

/// Kernel parameter descriptor kept for host-side argument validation.
#[derive(Debug, Clone, PartialEq)]
pub struct KParam {
    /// Parameter name (for error messages).
    pub name: String,
    /// Declared type.
    pub ty: Type,
    /// Declared `const` / `__constant` (writes trap).
    pub is_const: bool,
}

/// Metadata for one compiled `__kernel` entry point.
#[derive(Debug, Clone)]
pub struct KernelInfo {
    /// Kernel name.
    pub name: String,
    /// Entry instruction index.
    pub entry: u32,
    /// Locals-frame size (including parameters).
    pub nlocals: u16,
    /// Parameter descriptors.
    pub params: Vec<KParam>,
    /// Byte sizes of in-body `__local` array declarations, in declaration
    /// order. Region indices for these start after the `__local` params.
    pub local_decl_bytes: Vec<usize>,
    /// Whether the kernel (or anything it calls) contains a barrier; the
    /// interpreter picks the cheap run-to-completion path when false.
    pub has_barrier: bool,
    /// Per-item private array bytes.
    pub priv_bytes: usize,
}

/// Metadata for a device function.
#[derive(Debug, Clone)]
pub struct FuncInfo {
    /// Function name.
    pub name: String,
    /// Entry instruction index.
    pub entry: u32,
    /// Number of parameters.
    pub nargs: u8,
    /// Locals-frame size (including parameters).
    pub nlocals: u16,
}

/// A compiled translation unit: one flat code array plus per-kernel and
/// per-function metadata.
#[derive(Debug, Clone, Default)]
pub struct CompiledUnit {
    /// All instructions (functions concatenated; kernels end with `Ret`).
    pub code: Vec<Op>,
    /// Kernel metadata by name.
    pub kernels: HashMap<String, KernelInfo>,
    /// Device-function table referenced by `Op::Call`.
    pub funcs: Vec<FuncInfo>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elem_sizes() {
        assert_eq!(ElemTy::I32.byte_size(), 4);
        assert_eq!(ElemTy::I64.byte_size(), 8);
        assert_eq!(ElemTy::F32.byte_size(), 4);
        assert_eq!(ElemTy::F4.byte_size(), 16);
    }

    #[test]
    fn elem_of_ast_types() {
        assert_eq!(ElemTy::of(&Type::Float), Some(ElemTy::F32));
        assert_eq!(ElemTy::of(&Type::Float4), Some(ElemTy::F4));
        assert_eq!(ElemTy::of(&Type::Void), None);
    }

    #[test]
    fn memory_ops_cost_more_than_alu() {
        assert!(Op::LdElem(ElemTy::F32).cost() > Op::AddF.cost());
        assert!(Op::CallB(Builtin::Sqrt, 1).cost() > Op::MulF.cost());
    }

    #[test]
    fn vector_arith_costs_like_scalar() {
        assert_eq!(Op::AddF4.cost(), Op::AddF.cost());
    }
}
