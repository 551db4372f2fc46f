//! The mini OpenCL-C kernel language: lexer, parser, compiler, interpreter.
//!
//! Real OpenCL compiles kernel source *at runtime* on whatever device the
//! host selected; `minicl` mirrors that: [`crate::program::Program::build`]
//! parses and compiles a source string when the host calls it, and hands
//! back either kernels or a build log — the same moment a real driver would.
//! Whichever engine a kernel was lowered for, one ND-range driver
//! ([`run_ndrange`], in [`driver`]) runs it.
//!
//! Dialect summary (see the crate root for the full table):
//! * scalars `int`, `uint`, `long`, `float`, `bool`; short-vector `float4`
//! * address spaces `__global`, `__local`, `__constant`, `__private`
//! * work-item builtins (`get_global_id`, ...), math builtins, `barrier()`
//! * device functions callable from kernels
//! * `#pragma` lines are collected (consumed by the OpenACC-style baseline)

pub mod ast;
pub mod bytecode;
pub mod codegen;
pub mod driver;
pub mod interp;
pub mod native;
pub mod parser;
pub mod pretty;
pub mod regir;
pub mod token;

pub use ast::{Space, Type as ClType, Unit};
pub use bytecode::{Builtin, CompiledUnit, ElemTy, KernelInfo, Op};
pub use codegen::{compile, Diag};
pub use driver::{all_groups, num_groups, run_ndrange, Lowered, NdStats};
pub use interp::{MemPool, RtArg, Trap, Val};
pub use native::NativeProgram;
pub use parser::{parse, parse_expr, ParseError};
pub use regir::RegProgram;
pub use pretty::{emit_expr, emit_unit};
