//! Events with profiling timestamps, mirroring `cl_event` +
//! `clGetEventProfilingInfo`.
//!
//! Timestamps are *virtual nanoseconds* from the owning queue's clock (see
//! [`crate::timing`]); they are deterministic and machine-independent, which
//! is what lets the figure harness reproduce the paper's stacked bars.

use crate::minicl::native::StripStats;
use std::sync::Arc;
use trace::TraceEvent;

/// What kind of command an event describes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommandKind {
    /// Host→device transfer.
    WriteBuffer,
    /// Device→host transfer.
    ReadBuffer,
    /// Kernel execution; carries the kernel name.
    NdRange(String),
    /// Queue marker (used by `finish`).
    Marker,
}

#[derive(Debug)]
struct EventInner {
    kind: CommandKind,
    queued_ns: f64,
    submit_ns: f64,
    start_ns: f64,
    end_ns: f64,
    bytes: usize,
    items: u64,
    ops: u64,
    engine: Option<&'static str>,
    strip: StripStats,
}

/// A completed command. The simulator executes commands eagerly, so events
/// are always in the "complete" state — `wait()` exists for API fidelity.
#[derive(Debug, Clone)]
pub struct Event {
    inner: Arc<EventInner>,
}

impl Event {
    pub(crate) fn new(
        kind: CommandKind,
        queued_ns: f64,
        start_ns: f64,
        end_ns: f64,
        bytes: usize,
        items: u64,
    ) -> Event {
        Event {
            inner: Arc::new(EventInner {
                kind,
                queued_ns,
                submit_ns: queued_ns,
                start_ns,
                end_ns,
                bytes,
                items,
                ops: 0,
                engine: None,
                strip: StripStats::default(),
            }),
        }
    }

    /// A kernel-launch event carrying execution statistics: retired
    /// abstract ops, the engine that ran the dispatch and, for the native
    /// engine, its strip-mode tallies.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new_kernel(
        name: String,
        queued_ns: f64,
        start_ns: f64,
        end_ns: f64,
        items: u64,
        ops: u64,
        engine: &'static str,
        strip: StripStats,
    ) -> Event {
        Event {
            inner: Arc::new(EventInner {
                kind: CommandKind::NdRange(name),
                queued_ns,
                submit_ns: queued_ns,
                start_ns,
                end_ns,
                bytes: 0,
                items,
                ops,
                engine: Some(engine),
                strip,
            }),
        }
    }

    /// Command kind.
    pub fn kind(&self) -> &CommandKind {
        &self.inner.kind
    }

    /// `CL_PROFILING_COMMAND_QUEUED` in virtual ns.
    pub fn queued_ns(&self) -> f64 {
        self.inner.queued_ns
    }

    /// `CL_PROFILING_COMMAND_SUBMIT` in virtual ns.
    pub fn submit_ns(&self) -> f64 {
        self.inner.submit_ns
    }

    /// `CL_PROFILING_COMMAND_START` in virtual ns.
    pub fn start_ns(&self) -> f64 {
        self.inner.start_ns
    }

    /// `CL_PROFILING_COMMAND_END` in virtual ns.
    pub fn end_ns(&self) -> f64 {
        self.inner.end_ns
    }

    /// Execution duration (`end - start`) in virtual ns.
    pub fn duration_ns(&self) -> f64 {
        self.inner.end_ns - self.inner.start_ns
    }

    /// Bytes moved (transfers) — 0 for kernel launches.
    pub fn bytes(&self) -> usize {
        self.inner.bytes
    }

    /// Work-items executed (kernels) — 0 for transfers.
    pub fn items(&self) -> u64 {
        self.inner.items
    }

    /// Abstract ops retired by the dispatch (kernels) — 0 for transfers.
    /// Identical on all three execution engines for the same dispatch.
    pub fn ops(&self) -> u64 {
        self.inner.ops
    }

    /// Label of the engine that executed the dispatch (`"stack"` /
    /// `"register"` / `"native"`), or `None` for non-kernel commands.
    pub fn engine(&self) -> Option<&'static str> {
        self.inner.engine
    }

    /// Add to a kernel span why the dispatch ran the way it did on the
    /// native engine: how many items ran in strips, how many strips
    /// unzipped, whether it took the source's `ens_disjoint_items`
    /// attribute to run them (`strip_evidence: "proof"`), and the rule
    /// that kept a barrier-free dispatch scalar. Adds nothing for other
    /// commands and engines.
    pub(crate) fn with_strip_args(&self, mut te: TraceEvent) -> TraceEvent {
        let strip = &self.inner.strip;
        if strip.items > 0 {
            te = te
                .with_arg("strip_items", strip.items)
                .with_arg("strip_unzips", strip.unzips);
        }
        if strip.by_proof {
            te = te.with_arg("strip_evidence", "proof");
        }
        if let Some(why) = strip.scalar_why {
            te = te.with_arg("scalar_why", why);
        }
        te
    }

    /// Block until the command completes. Commands execute eagerly in the
    /// simulator, so this returns immediately; it exists so host code reads
    /// like real OpenCL host code.
    pub fn wait(&self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_is_end_minus_start() {
        let e = Event::new(CommandKind::WriteBuffer, 0.0, 10.0, 35.0, 128, 0);
        assert_eq!(e.duration_ns(), 25.0);
        assert_eq!(e.bytes(), 128);
        e.wait();
    }

    #[test]
    fn kind_carries_kernel_name() {
        let e = Event::new(CommandKind::NdRange("mm".into()), 0.0, 0.0, 1.0, 0, 64);
        assert_eq!(e.kind(), &CommandKind::NdRange("mm".into()));
        assert_eq!(e.items(), 64);
    }
}
