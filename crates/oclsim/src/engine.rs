//! Execution-engine selection for kernel dispatches.
//!
//! Every dispatch runs on one rung of a three-rung engine ladder:
//!
//! * [`Engine::Native`] — the work-group native engine
//!   ([`crate::minicl::native`]): the validated register IR lowered once
//!   per kernel to a direct-threaded handler chain with device functions
//!   inlined, memory accesses pre-resolved per dispatch, and the work-item
//!   loop hoisted around barrier-free code. This is the default.
//! * [`Engine::Register`] — the register-IR engine
//!   ([`crate::minicl::regir`]): stack bytecode lowered once per kernel to
//!   typed register code with fused compare-branches and block-level op
//!   accounting. Also the automatic fallback whenever the native lowering
//!   declines a kernel (recursive device functions, frame shapes the
//!   inliner cannot flatten).
//! * [`Engine::Stack`] — the reference stack interpreter
//!   ([`crate::minicl::interp`]). The bottom of the ladder: the fallback
//!   whenever the register lowering declines a kernel
//!   (depth-inconsistent hand-built bytecode, ambiguous device-function
//!   returns).
//!
//! The ladder is walked in one place: a kernel resolves its requested rung
//! to the highest rung at or below it whose lowering accepted the kernel
//! (each lowering is attempted once per kernel object), and the dispatch
//! reports the rung that ran on its [`crate::Event`]. Every rung is then
//! executed by the same ND-range driver ([`crate::minicl::run_ndrange`]);
//! an engine only supplies "run one group".
//!
//! All three engines are deterministic and produce byte-identical buffers,
//! identical `group_ops` and identical traps — the engine choice changes
//! *host wall-clock* only, never virtual time. The process-wide default
//! (native) can be overridden per kernel via [`crate::Kernel::set_engine`]
//! or process-wide via [`set_default_engine`]; the wall-clock benchmark
//! harness uses the latter to time all three rungs.

use std::sync::atomic::{AtomicU8, Ordering};

/// Which execution engine runs a kernel dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Reference stack-bytecode interpreter (bottom of the ladder).
    Stack,
    /// Register-IR engine compiled from the stack bytecode.
    Register,
    /// Work-group native engine compiled from the register IR.
    Native,
}

impl Engine {
    /// Stable lower-case label used in traces and benchmark JSON.
    pub fn label(self) -> &'static str {
        match self {
            Engine::Stack => "stack",
            Engine::Register => "register",
            Engine::Native => "native",
        }
    }
}

/// Encoding for [`DEFAULT_ENGINE`]: 0 = native, 1 = stack, 2 = register.
const ENC_NATIVE: u8 = 0;
const ENC_STACK: u8 = 1;
const ENC_REGISTER: u8 = 2;

/// Process-wide default engine (see the encoding constants above).
static DEFAULT_ENGINE: AtomicU8 = AtomicU8::new(ENC_NATIVE);

fn encode(engine: Engine) -> u8 {
    match engine {
        Engine::Native => ENC_NATIVE,
        Engine::Stack => ENC_STACK,
        Engine::Register => ENC_REGISTER,
    }
}

/// The process-wide default engine for new dispatches (native unless
/// changed). Kernels without a per-kernel override use this.
pub fn default_engine() -> Engine {
    match DEFAULT_ENGINE.load(Ordering::Relaxed) {
        ENC_STACK => Engine::Stack,
        ENC_REGISTER => Engine::Register,
        _ => Engine::Native,
    }
}

/// Set the process-wide default engine. Affects subsequent dispatches of
/// every kernel without a per-kernel override; used by the wall-clock
/// benchmark harness to time all three engines on identical workloads.
pub fn set_default_engine(engine: Engine) {
    DEFAULT_ENGINE.store(encode(engine), Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable() {
        assert_eq!(Engine::Stack.label(), "stack");
        assert_eq!(Engine::Register.label(), "register");
        assert_eq!(Engine::Native.label(), "native");
    }

    #[test]
    fn default_roundtrip() {
        let orig = default_engine();
        set_default_engine(Engine::Stack);
        assert_eq!(default_engine(), Engine::Stack);
        set_default_engine(Engine::Register);
        assert_eq!(default_engine(), Engine::Register);
        set_default_engine(Engine::Native);
        assert_eq!(default_engine(), Engine::Native);
        set_default_engine(orig);
    }
}
