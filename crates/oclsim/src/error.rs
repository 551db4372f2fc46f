//! Error types for the OpenCL simulator.
//!
//! The variants intentionally mirror the error *classes* of the real OpenCL
//! API (`CL_INVALID_*`, `CL_BUILD_PROGRAM_FAILURE`, ...) so that host code
//! written against `oclsim` reads like host code written against OpenCL.

use std::fmt;

/// Errors returned by the simulator API.
///
/// Like the OpenCL C API, almost every entry point can fail; unlike it, the
/// failure is a typed value rather than a negative integer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClError {
    /// No platform matched the requested criteria.
    PlatformNotFound,
    /// No device of the requested type exists on the platform.
    DeviceNotFound {
        /// Human-readable description of what was requested.
        requested: String,
    },
    /// An object (buffer, kernel, queue) was used with a context it does not
    /// belong to. Mirrors `CL_INVALID_CONTEXT`.
    InvalidContext(String),
    /// A buffer was accessed out of bounds or with a mismatched type.
    InvalidBufferAccess(String),
    /// Mirrors `CL_INVALID_KERNEL_ARGS`: an argument was missing or had the
    /// wrong type when the kernel was enqueued.
    InvalidKernelArgs(String),
    /// Mirrors `CL_INVALID_WORK_GROUP_SIZE`: the local size does not divide
    /// the global size, or exceeds the device limit.
    InvalidWorkGroupSize(String),
    /// Mirrors `CL_BUILD_PROGRAM_FAILURE`: the mini OpenCL-C source failed
    /// to compile. Carries the full build log.
    BuildFailure {
        /// Compiler diagnostics, one per line.
        log: String,
    },
    /// The named kernel does not exist in the program.
    KernelNotFound(String),
    /// A kernel trapped at runtime (out-of-bounds access, division by zero,
    /// stack overflow, ...). Real OpenCL would give you undefined behaviour;
    /// the simulator gives you this.
    KernelTrap {
        /// Which kernel trapped.
        kernel: String,
        /// What went wrong.
        message: String,
        /// Global id of the work-item that trapped.
        global_id: [usize; 3],
    },
    /// Memory allocation on the simulated device failed
    /// (mirrors `CL_MEM_OBJECT_ALLOCATION_FAILURE`).
    OutOfDeviceMemory {
        /// Bytes requested.
        requested: usize,
        /// Bytes available on the device.
        available: usize,
    },
    /// Operation attempted on a released object.
    ObjectReleased(String),
    /// The device momentarily refused the command (mirrors
    /// `CL_OUT_OF_RESOURCES` on real hardware — a queue-full / resource
    /// contention condition that a backed-off retry is expected to clear).
    /// Only produced by the fault-injection layer ([`crate::fault`]).
    DeviceBusy {
        /// Device that refused the command.
        device: String,
    },
    /// The device dropped off the platform mid-run (mirrors
    /// `CL_DEVICE_NOT_AVAILABLE` / the `cl_khr_device_uuid` lost-device
    /// class). Permanent: every subsequent upload or dispatch on the
    /// device fails with this error, and recovery requires re-dispatching
    /// on another device. Read-backs are still permitted as a best-effort
    /// *rescue* path so resident data can be evacuated — mirroring
    /// runtimes that keep already-mapped memory readable while the device
    /// is being torn down.
    DeviceLost {
        /// Device that was lost.
        device: String,
    },
    /// The calling actor was killed by the fault-injection layer
    /// ([`crate::fault::InjectedFault::Kill`] in
    /// [`crate::fault::KillMode::Exit`] mode): the operation did not
    /// execute and the actor is expected to exit *abruptly* — without
    /// retrying, without failing over, and without poisoning its
    /// channels — so a supervisor can observe the exit and restart it
    /// from a checkpoint. Neither transient nor a failover condition.
    ActorKilled {
        /// Device whose operation the kill was scheduled on.
        device: String,
    },
    /// Buffer contents failed checksum verification against the recorded
    /// provenance of the last known-good write (silent data corruption —
    /// a bit flip on the wire or in device memory). Real OpenCL has no
    /// such error: SDC is exactly the failure hardware does *not*
    /// report, which is why the integrity layer exists. The queue
    /// restores the buffer from its host shadow before returning this,
    /// so a retry of the same command recomputes from the last
    /// checkpoint and succeeds.
    IntegrityViolation {
        /// Device whose queue detected the mismatch.
        device: String,
        /// Identifier of the offending buffer.
        buffer: u64,
        /// Checksum recorded in the buffer's provenance.
        expected: u64,
        /// Checksum actually observed.
        actual: u64,
    },
    /// Catch-all for violated simulator invariants.
    Internal(String),
}

impl ClError {
    /// Whether a bounded retry (with backoff) is a sensible response.
    ///
    /// Only [`ClError::DeviceBusy`] is transient: every other variant is
    /// either a programming error (bad args, bad worksizes), a permanent
    /// device condition ([`ClError::DeviceLost`], out-of-memory), or a
    /// deterministic kernel bug, where retrying the identical command
    /// would fail identically. The supervised recovery layer in
    /// `ensemble-ocl` retries transient errors and *fails over* to the
    /// next device on everything else.
    ///
    /// [`ClError::IntegrityViolation`] is deliberately *not* transient:
    /// its retry must charge backoff to the queue's repair accounting
    /// (not the main virtual clock) so that recovered runs stay
    /// clock-identical to fault-free ones — see
    /// [`ClError::is_integrity`] and the recovery layer's dedicated
    /// branch.
    pub fn is_transient(&self) -> bool {
        matches!(self, ClError::DeviceBusy { .. })
    }

    /// Whether this error is a detected-and-repaired silent-corruption
    /// event: the queue already restored the buffer from its provenance
    /// shadow, so re-issuing the same command recomputes from the last
    /// checkpoint. The recovery layer retries these like transients but
    /// diverts the backoff to repair accounting, keeping the main
    /// virtual clock byte-identical to a fault-free run.
    pub fn is_integrity(&self) -> bool {
        matches!(self, ClError::IntegrityViolation { .. })
    }

    /// Whether this error is an injected kill: the actor that received it
    /// must exit abruptly for its supervisor to restart — never retry,
    /// fail over, or tear the pipeline down.
    pub fn is_kill(&self) -> bool {
        matches!(self, ClError::ActorKilled { .. })
    }
}

impl fmt::Display for ClError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClError::PlatformNotFound => write!(f, "no OpenCL platform found"),
            ClError::DeviceNotFound { requested } => {
                write!(f, "no device matching request: {requested}")
            }
            ClError::InvalidContext(msg) => write!(f, "invalid context: {msg}"),
            ClError::InvalidBufferAccess(msg) => write!(f, "invalid buffer access: {msg}"),
            ClError::InvalidKernelArgs(msg) => write!(f, "invalid kernel arguments: {msg}"),
            ClError::InvalidWorkGroupSize(msg) => write!(f, "invalid work-group size: {msg}"),
            ClError::BuildFailure { log } => write!(f, "program build failure:\n{log}"),
            ClError::KernelNotFound(name) => write!(f, "kernel not found: {name}"),
            ClError::KernelTrap {
                kernel,
                message,
                global_id,
            } => write!(
                f,
                "kernel `{kernel}` trapped at global id {global_id:?}: {message}"
            ),
            ClError::OutOfDeviceMemory {
                requested,
                available,
            } => write!(
                f,
                "out of device memory: requested {requested} bytes, {available} available"
            ),
            ClError::ObjectReleased(what) => write!(f, "use after release: {what}"),
            ClError::DeviceBusy { device } => {
                write!(
                    f,
                    "device `{device}` is busy (transient; retry may succeed)"
                )
            }
            ClError::DeviceLost { device } => write!(f, "device `{device}` was lost"),
            ClError::ActorKilled { device } => {
                write!(f, "actor killed by injected fault on device `{device}`")
            }
            ClError::IntegrityViolation {
                device,
                buffer,
                expected,
                actual,
            } => write!(
                f,
                "integrity violation on device `{device}`: buffer {buffer} checksum \
                 {actual:#018x} != recorded provenance {expected:#018x} \
                 (restored from shadow; retry recomputes from last checkpoint)"
            ),
            ClError::Internal(msg) => write!(f, "internal simulator error: {msg}"),
        }
    }
}

impl std::error::Error for ClError {}

/// Convenient result alias used across the simulator.
pub type ClResult<T> = Result<T, ClError>;
