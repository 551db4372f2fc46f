//! # oclsim — an OpenCL-style framework simulator
//!
//! This crate is the hardware-substitution substrate for the reproduction of
//! *Parallel Programming in Actor-Based Applications via OpenCL*
//! (MIDDLEWARE 2015). The paper's evaluation ran on an AMD Radeon R9 290x
//! and an Intel i5-3550 through AMD's OpenCL 1.2 runtime; this environment
//! has neither, so `oclsim` re-implements the OpenCL *programming framework*
//! from scratch:
//!
//! * **Discovery & setup** — [`Platform`] → [`Device`] → [`Context`] →
//!   [`CommandQueue`], the exact object chain §2.1 of the paper describes.
//! * **Runtime kernel compilation** — [`Program::build`] compiles kernels
//!   written in a mini OpenCL-C dialect (module [`minicl`]) at runtime,
//!   returning a build log on failure, just like `clBuildProgram`. A
//!   source is compiled, and each kernel lowered, once per
//!   [`BuildCache`]; the device matrix's contexts share one.
//! * **Execution** — [`CommandQueue::enqueue_nd_range`] runs the kernel for
//!   real (results are bit-checked against references in the test suites)
//!   using a work-group interpreter with full `barrier()` support.
//! * **Timing** — every command is charged *virtual nanoseconds* from an
//!   analytic per-device cost model ([`timing::CostModel`]): affine
//!   transfer costs, launch overheads, and a wave-scheduling compute model
//!   that captures under-utilisation and load imbalance. [`Event`]
//!   profiling exposes these times, which is what the paper's Figures 3a–3e
//!   are built from.
//! * **Fault injection** — a deterministic, seeded [`fault::FaultPlan`]
//!   can make scheduled uploads, read-backs, dispatches, or builds fail
//!   with transient ([`ClError::DeviceBusy`]) or permanent
//!   ([`ClError::DeviceLost`]) errors, on the same virtual clock, so the
//!   recovery layers above the simulator can be tested reproducibly.
//!   Beyond fail-stop, plans can silently flip payload bits
//!   ([`fault::InjectedFault::Corrupt`] — defended by per-buffer
//!   provenance checksums that surface as
//!   [`ClError::IntegrityViolation`]) and stall commands on the wall
//!   clock ([`fault::InjectedFault::Hang`] — defended by the serving
//!   layer's hedged re-dispatch). A device lane's one injector attaches
//!   to its [`Context`] ([`Context::attach_faults`]) and covers the
//!   context's builds and every command of its queue.
//!
//! ## Why simulate instead of binding real OpenCL?
//!
//! The paper's claims are about *relative* cost structure — host↔device
//! copies vs. kernel time vs. runtime overhead, GPU vs. CPU, and which
//! programming model leaves performance on the table. A deterministic
//! virtual clock reproduces those shapes on any machine, makes the figures
//! exactly repeatable, and lets the test suite assert them. Absolute
//! nanosecond values are *not* claimed to match the 2015 testbed.
//!
//! ## Dialect notes
//!
//! * `uint` is evaluated with 64-bit signed arithmetic (the paper's kernels
//!   stay far inside the shared range); `int` likewise.
//! * `float` follows IEEE f32 storage with f64 intermediate arithmetic.
//! * `float4` with component-wise ops, `dot`, and swizzles is supported —
//!   the C-OpenCL document-ranking kernel depends on it (Figure 3e).
//! * Out-of-bounds accesses, divergent barriers, division by zero and
//!   infinite loops *trap* with the faulting global id instead of being
//!   undefined behaviour.
//!
//! ## Quick start
//!
//! ```
//! use oclsim::{Platform, Context, CommandQueue, Program, NdRange, MemFlags, DeviceType};
//!
//! let device = Platform::default_device(DeviceType::Gpu).unwrap();
//! let ctx = Context::new(std::slice::from_ref(&device)).unwrap();
//! let queue = CommandQueue::new(&ctx, &device).unwrap();
//!
//! let program = Program::build(&ctx, r#"
//!     __kernel void square(__global float* input, __global float* output) {
//!         int i = get_global_id(0);
//!         output[i] = input[i] * input[i];
//!     }
//! "#).unwrap();
//! let kernel = program.create_kernel("square").unwrap();
//!
//! let input = ctx.create_buffer(MemFlags::ReadOnly, 4 * 4).unwrap();
//! let output = ctx.create_buffer(MemFlags::ReadWrite, 4 * 4).unwrap();
//! queue.write_f32(&input, &[1.0, 2.0, 3.0, 4.0]).unwrap();
//! kernel.set_arg_buffer(0, &input).unwrap();
//! kernel.set_arg_buffer(1, &output).unwrap();
//! let ev = queue.enqueue_nd_range(&kernel, &NdRange::d1(4, 2)).unwrap();
//! let (result, _) = queue.read_f32(&output).unwrap();
//! assert_eq!(result, vec![1.0, 4.0, 9.0, 16.0]);
//! assert!(ev.duration_ns() > 0.0);
//! ```

#![warn(missing_docs)]

pub mod arbiter;
pub mod buffer;
pub mod cache;
pub mod coexec;
pub mod context;
pub mod device;
pub mod engine;
pub mod error;
pub mod event;
pub mod fault;
pub mod hostmem;
pub mod minicl;
pub mod ndrange;
pub mod platform;
pub mod profile;
pub mod program;
pub mod queue;
pub mod timing;

pub use arbiter::{ArbiterHandle, MemObserver, QueueArbiter};
pub use buffer::{fnv1a64, Buffer, MemFlags};
pub use cache::SourceCache;
pub use coexec::{co_enqueue, CoexecConfig};
pub use context::Context;
pub use device::{Device, DeviceType};
pub use engine::{default_engine, set_default_engine, Engine};
pub use error::{ClError, ClResult};
pub use event::{CommandKind, Event};
pub use fault::{
    silence_kill_panics, FaultConfigError, FaultEffect, FaultInjector, FaultOp, FaultPlan,
    InjectedFault, InjectionRecord, KillMode, KillPanic,
};
pub use ndrange::{NdRange, SubRange};
pub use platform::Platform;
pub use profile::{Profile, ProfileSink};
pub use program::{BuildCache, Kernel, Program};
pub use queue::{CommandQueue, DispatchBatch};
