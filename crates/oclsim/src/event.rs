//! Events with profiling timestamps, mirroring `cl_event` +
//! `clGetEventProfilingInfo`.
//!
//! Timestamps are *virtual nanoseconds* from the owning queue's clock (see
//! [`crate::timing`]); they are deterministic and machine-independent, which
//! is what lets the figure harness reproduce the paper's stacked bars.

use crate::minicl::native::StripStats;
use std::sync::Arc;
use trace::{SpanKind, TraceEvent};

/// What kind of command an event describes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommandKind {
    /// Host→device transfer.
    WriteBuffer,
    /// Device→host transfer.
    ReadBuffer,
    /// Kernel execution; carries the kernel name.
    NdRange(String),
}

/// What a kernel command executed, summed over every window it ran; all
/// zero for transfers.
#[derive(Debug, Default)]
pub(crate) struct Executed {
    pub(crate) items: u64,
    pub(crate) ops: u64,
    pub(crate) engine: Option<&'static str>,
    pub(crate) strip: StripStats,
}

#[derive(Debug)]
struct EventInner {
    kind: CommandKind,
    start_ns: f64,
    end_ns: f64,
    bytes: usize,
    run: Executed,
}

/// A completed command. The simulator executes commands eagerly, so events
/// are always in the "complete" state — `wait()` exists for API fidelity.
#[derive(Debug, Clone)]
pub struct Event {
    inner: Arc<EventInner>,
}

impl Event {
    /// A command of `kind` over `[start_ns, end_ns)` that moved `bytes`
    /// (transfers) or executed `run` (kernels).
    pub(crate) fn new(
        kind: CommandKind,
        start_ns: f64,
        end_ns: f64,
        bytes: usize,
        run: Executed,
    ) -> Event {
        Event {
            inner: Arc::new(EventInner {
                kind,
                start_ns,
                end_ns,
                bytes,
                run,
            }),
        }
    }

    /// Command kind.
    pub fn kind(&self) -> &CommandKind {
        &self.inner.kind
    }

    /// `CL_PROFILING_COMMAND_QUEUED` in virtual ns. Commands run eagerly
    /// on an in-order queue, so a command is queued, submitted and
    /// started at the same instant.
    pub fn queued_ns(&self) -> f64 {
        self.inner.start_ns
    }

    /// `CL_PROFILING_COMMAND_SUBMIT` in virtual ns (see
    /// [`Event::queued_ns`]).
    pub fn submit_ns(&self) -> f64 {
        self.inner.start_ns
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
        self.inner.run.items
    }

    /// Abstract ops retired by the dispatch (kernels) — 0 for transfers.
    /// Identical on all three execution engines for the same dispatch.
    pub fn ops(&self) -> u64 {
        self.inner.run.ops
    }

    /// Label of the engine that executed the dispatch (`"stack"` /
    /// `"register"` / `"native"`), or `None` for non-kernel commands.
    pub fn engine(&self) -> Option<&'static str> {
        self.inner.run.engine
    }

    /// This command as a span on `device`'s trace track: its kind and
    /// virtual timestamps, the bytes or work-items it moved, and for a
    /// kernel the engine, retired ops and — on the native engine — why it
    /// ran the way it did: how many items ran in strips, how many strips
    /// unzipped, whether it took the source's `ens_disjoint_items`
    /// attribute to run them (`strip_evidence: "proof"`), and the rule
    /// that kept a barrier-free dispatch scalar.
    pub(crate) fn span(&self, device: &str) -> TraceEvent {
        let (kind, name) = match &self.inner.kind {
            CommandKind::WriteBuffer => (SpanKind::ToDevice, "write_buffer"),
            CommandKind::ReadBuffer => (SpanKind::FromDevice, "read_buffer"),
            CommandKind::NdRange(k) => (SpanKind::Kernel, k.as_str()),
        };
        let mut te = TraceEvent::span(kind, name, device, self.start_ns(), self.duration_ns())
            .with_arg("queued_ns", self.queued_ns())
            .with_arg("submit_ns", self.submit_ns());
        if self.bytes() > 0 {
            te = te.with_arg("bytes", self.bytes());
        }
        if self.items() > 0 {
            te = te.with_arg("items", self.items());
        }
        if let Some(engine) = self.engine() {
            te = te.with_arg("engine", engine);
        }
        if self.ops() > 0 {
            te = te.with_arg("ops", self.ops());
        }
        let strip = &self.inner.run.strip;
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
        let e = Event::new(CommandKind::WriteBuffer, 10.0, 35.0, 128, Executed::default());
        assert_eq!(e.duration_ns(), 25.0);
        assert_eq!(e.bytes(), 128);
        assert_eq!(e.queued_ns(), e.start_ns());
        e.wait();
    }

    #[test]
    fn kind_carries_kernel_name() {
        let run = Executed {
            items: 64,
            ..Executed::default()
        };
        let e = Event::new(CommandKind::NdRange("mm".into()), 0.0, 1.0, 0, run);
        assert_eq!(e.kind(), &CommandKind::NdRange("mm".into()));
        assert_eq!(e.items(), 64);
    }
}
