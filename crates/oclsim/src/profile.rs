//! Profiling accumulators for the figure harness.
//!
//! The paper's Figures 3a–3e split each bar into *move data to device*,
//! *move data from device*, *kernel execution*, and *overhead* (total minus
//! the other three). Kernel actors and the baselines both record into a
//! [`Profile`], so the harness can produce identical splits for every
//! approach.
//!
//! A sink can also carry a [`TraceSink`]: [`ProfileSink::record_command`]
//! then both accumulates the scalar totals *and* emits a structured span
//! for the same [`Event`], so a run's trace timeline and its profile
//! numbers cannot diverge — they are two views of the same events.

use crate::event::{CommandKind, Event};
use parking_lot::Mutex;
use std::sync::Arc;
use trace::TraceSink;

/// Accumulated virtual-time costs of one application run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Profile {
    /// Host→device transfer time (virtual ns).
    pub to_device_ns: f64,
    /// Device→host transfer time (virtual ns).
    pub from_device_ns: f64,
    /// Kernel execution time (virtual ns).
    pub kernel_ns: f64,
    /// Number of kernel dispatches.
    pub dispatches: u64,
    /// Abstract ops retired by kernel dispatches (identical on both
    /// execution engines; input to interpreted-ops/sec rates).
    pub ops: u64,
}

impl Profile {
    /// Sum of the OpenCL portions (everything except host overhead).
    pub fn opencl_ns(&self) -> f64 {
        self.to_device_ns + self.from_device_ns + self.kernel_ns
    }

    /// Merge another profile into this one.
    pub fn merge(&mut self, other: &Profile) {
        self.to_device_ns += other.to_device_ns;
        self.from_device_ns += other.from_device_ns;
        self.kernel_ns += other.kernel_ns;
        self.dispatches += other.dispatches;
        self.ops += other.ops;
    }
}

/// Shared, thread-safe profile sink handed to kernel actors.
#[derive(Debug, Clone, Default)]
pub struct ProfileSink {
    inner: Arc<Mutex<Profile>>,
    trace: TraceSink,
}

impl ProfileSink {
    /// Fresh, zeroed sink.
    pub fn new() -> ProfileSink {
        ProfileSink::default()
    }

    /// Attach a trace sink: [`ProfileSink::record_command`] and the
    /// runtime layers that carry this profile will emit structured spans
    /// into it alongside the scalar totals.
    pub fn with_trace(mut self, trace: TraceSink) -> ProfileSink {
        self.trace = trace;
        self
    }

    /// The attached trace sink (disabled by default). Runtime layers use
    /// this to emit spans that have no scalar-profile counterpart, e.g.
    /// VM interpretation chunks and resident-buffer reuse instants.
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// Record a completed device command: accumulate its duration into
    /// the matching profile segment *and*, when a trace is attached, emit
    /// a span on `device`'s track carrying the command's virtual
    /// queued/submit/start/end timestamps.
    pub fn record_command(&self, ev: &Event, device: &str) {
        match ev.kind() {
            CommandKind::WriteBuffer => self.add_to_device(ev.duration_ns()),
            CommandKind::ReadBuffer => self.add_from_device(ev.duration_ns()),
            CommandKind::NdRange(_) => {
                self.add_kernel(ev.duration_ns());
                self.add_ops(ev.ops());
            }
        }
        if self.trace.is_enabled() {
            self.trace.record(ev.span(device));
        }
    }

    /// Add host→device transfer time.
    pub fn add_to_device(&self, ns: f64) {
        self.inner.lock().to_device_ns += ns;
    }

    /// Add device→host transfer time.
    pub fn add_from_device(&self, ns: f64) {
        self.inner.lock().from_device_ns += ns;
    }

    /// Add kernel execution time and count the dispatch.
    pub fn add_kernel(&self, ns: f64) {
        let mut p = self.inner.lock();
        p.kernel_ns += ns;
        p.dispatches += 1;
    }

    /// Add abstract ops retired by a kernel dispatch.
    pub fn add_ops(&self, ops: u64) {
        self.inner.lock().ops += ops;
    }

    /// Snapshot the accumulated profile.
    pub fn snapshot(&self) -> Profile {
        *self.inner.lock()
    }

    /// Reset to zero (between benchmark iterations).
    pub fn reset(&self) {
        *self.inner.lock() = Profile::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_and_resets() {
        let sink = ProfileSink::new();
        sink.add_to_device(10.0);
        sink.add_kernel(100.0);
        sink.add_kernel(50.0);
        sink.add_from_device(5.0);
        let p = sink.snapshot();
        assert_eq!(p.to_device_ns, 10.0);
        assert_eq!(p.kernel_ns, 150.0);
        assert_eq!(p.from_device_ns, 5.0);
        assert_eq!(p.dispatches, 2);
        assert_eq!(p.opencl_ns(), 165.0);
        sink.reset();
        assert_eq!(sink.snapshot(), Profile::default());
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = Profile {
            to_device_ns: 1.0,
            from_device_ns: 2.0,
            kernel_ns: 3.0,
            dispatches: 1,
            ops: 4,
        };
        a.merge(&a.clone());
        assert_eq!(a.dispatches, 2);
        assert_eq!(a.ops, 8);
        assert_eq!(a.opencl_ns(), 12.0);
    }

    #[test]
    fn sink_is_shared_between_clones() {
        let sink = ProfileSink::new();
        let clone = sink.clone();
        clone.add_kernel(7.0);
        assert_eq!(sink.snapshot().kernel_ns, 7.0);
    }

    #[test]
    fn record_command_keeps_profile_and_trace_in_lockstep() {
        let sink = ProfileSink::new().with_trace(TraceSink::new());
        sink.record_command(
            &Event::new(CommandKind::WriteBuffer, 0.0, 10.0, 64, Default::default()),
            "dev",
        );
        sink.record_command(
            &Event::new(CommandKind::NdRange("k".into()), 10.0, 110.0, 0, Default::default()),
            "dev",
        );
        sink.record_command(
            &Event::new(CommandKind::ReadBuffer, 110.0, 115.0, 64, Default::default()),
            "dev",
        );
        let p = sink.snapshot();
        let s = sink.trace().segments();
        assert_eq!(p.to_device_ns, s.to_device_ns);
        assert_eq!(p.from_device_ns, s.from_device_ns);
        assert_eq!(p.kernel_ns, s.kernel_ns);
        assert_eq!(p.dispatches, 1);
        let events = sink.trace().events();
        assert_eq!(events[1].name, "k");
        assert_eq!(events[1].track, "dev");
    }

    #[test]
    fn record_command_without_trace_only_accumulates() {
        let sink = ProfileSink::new();
        sink.record_command(
            &Event::new(CommandKind::ReadBuffer, 0.0, 5.0, 8, Default::default()),
            "dev",
        );
        assert_eq!(sink.snapshot().from_device_ns, 5.0);
        assert!(sink.trace().is_empty());
        assert!(!sink.trace().is_enabled());
    }
}
