//! # ensemble-vm — the Ensemble virtual machine
//!
//! Executes [`ensemble_lang`]-compiled modules the way §5–6 of the paper
//! describes the Ensemble VM:
//!
//! * one OS thread per actor, each interpreting its behaviour bytecode in
//!   a loop until told to stop (module [`interp`]);
//! * blocking typed channels between actors (from `ensemble-actors`), so
//!   scheduling is communication-driven;
//! * `opencl` actors run natively (the `invokenative` path): the kernel
//!   source string generated at compile time is built once per actor, and
//!   the settings/data/dispatch/send protocol is driven against `oclsim`
//!   through the device matrix of `ensemble-ocl` (module [`runtime`]);
//! * `mov` data stays resident on the device between kernel actors and is
//!   only read back when host bytecode touches it or it crosses contexts.
//!
//! The interpreter counts every retired opcode; [`VmReport::overhead_ns`]
//! converts that into the virtual-time "overhead" segment of the paper's
//! figures — the cost of interpreting the non-kernel code, which is the
//! paper's explanation for Ensemble's extra height over C-OpenCL.
//!
//! ## Example: Listing 2 end to end
//!
//! ```
//! use ensemble_lang::compile_source;
//! use ensemble_vm::VmRuntime;
//!
//! let src = r#"
//! type Isnd is interface(out integer output)
//! type Ircv is interface(in integer input)
//! stage home {
//!     actor snd presents Isnd {
//!         value = 1;
//!         constructor() {}
//!         behaviour {
//!             send value on output;
//!             value := value + 1;
//!             if value > 3 then { stop; }
//!         }
//!     }
//!     actor rcv presents Ircv {
//!         constructor() {}
//!         behaviour {
//!             receive data from input;
//!             printInt(data);
//!         }
//!     }
//!     boot {
//!         s = new snd();
//!         r = new rcv();
//!         connect s.output to r.input;
//!     }
//! }
//! "#;
//! let module = compile_source(src).unwrap();
//! let report = VmRuntime::new(module).run().unwrap();
//! assert_eq!(report.output, vec!["1", "2", "3"]);
//! assert!(report.vm_ops > 0);
//! ```

#![warn(missing_docs)]

pub mod interp;
pub mod runtime;
pub mod value;

pub use interp::{run_chunk, Exit, RuntimeHooks};
pub use runtime::{ResidentHook, VmReport, VmRuntime, VM_NS_PER_OP};
pub use value::{
    DupStats, ErrorClass, EvictableMov, FlatView, VmArr, VmError, VmVal, DEADLINE_MARK,
};
