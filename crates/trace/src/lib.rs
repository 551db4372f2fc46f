//! Unified tracing for the Ensemble-OpenCL reproduction.
//!
//! The paper's whole evaluation (Figures 3a–3e) is a cost breakdown —
//! to-device copy, from-device copy, kernel time, runtime overhead — and
//! before this crate those segments were scattered across ad-hoc counters
//! in the simulator, the VM op counter, and the figures harness. This
//! crate is the one substrate they all report through: every execution
//! layer records [`TraceEvent`]s into a shared [`TraceSink`], and the
//! sink exports
//!
//! * an aggregated per-segment breakdown ([`Segments`]) that the `bench`
//!   crate's figure bars are built from, and
//! * a Chrome `trace_event` JSON timeline ([`chrome_json`]) that opens
//!   directly in Perfetto / `chrome://tracing`.
//!
//! # Clock domains
//!
//! Device and VM spans carry **virtual-clock** timestamps: device spans
//! use the per-queue virtual nanosecond clock advanced by `oclsim`'s
//! deterministic cost model (`oclsim::timing`), VM spans use per-actor
//! virtual time derived from retired op counts. Runs are therefore
//! bit-identical across machines. Scheduling events (actor spawns,
//! channel blocking) have no virtual time — actors run on real threads —
//! so those events carry **wall-clock** timestamps relative to the sink's
//! creation and are tagged `"clock": "wall"` in their args. Only
//! virtual-clock span kinds contribute to [`Segments`]; wall-clock events
//! are timeline context, never part of a figure.
//!
//! # Cost
//!
//! A disabled sink ([`TraceSink::disabled`]) is a `None` — recording
//! through it is a branch on an `Option`, no allocation, no locking — so
//! instrumented hot paths cost nothing when nobody is tracing.

#![warn(missing_docs)]

use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Instant;

/// What a recorded event represents. The first four kinds are
/// virtual-clock *spans* that aggregate into figure segments; the rest
/// are timeline context (instants or wall-clock waits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// Host→device buffer write (`enqueue_write_buffer`). Segment:
    /// to-device.
    ToDevice,
    /// Device→host buffer read (`enqueue_read_buffer`). Segment:
    /// from-device.
    FromDevice,
    /// An ND-range kernel dispatch. Segment: kernel.
    Kernel,
    /// A chunk of bytecode interpreted on an actor's thread; duration is
    /// retired ops × the VM's per-op cost. Segment: VM overhead.
    VmChunk,
    /// A queue marker (zero-duration ordering point on a device track).
    Marker,
    /// The boundary where a kernel actor accepts a request and enters
    /// native code (`invokenative`). Instant, virtual queue clock.
    InvokeNative,
    /// A device-resident buffer was handed to a dispatch without any
    /// copy — the §6.2.3 `mov` win. Instant, virtual queue clock.
    ResidentReuse,
    /// A message was *moved* through a channel (ownership transfer, no
    /// payload copy). Instant, wall clock.
    MovTransfer,
    /// A message was *duplicated* into a channel (copying send). Instant,
    /// wall clock.
    Duplicate,
    /// Time an actor spent blocked on a channel receive. Wall-clock
    /// duration — real threads, no virtual time.
    ChannelWait,
    /// An actor (or stage worker) thread was spawned. Instant, wall
    /// clock.
    Spawn,
    /// A scheduled fault fired inside the simulator (see
    /// `oclsim::fault`). Instant, virtual queue clock. Never part of a
    /// figure segment: an undisturbed run and a run with an empty fault
    /// plan produce identical segment aggregations.
    FaultInjected,
    /// The recovery layer re-attempted a failed operation after a
    /// virtual-clock backoff. Instant, virtual queue clock.
    Retry,
    /// The recovery layer abandoned a device and re-dispatched on the
    /// next device-matrix entry (e.g. GPU → CPU degradation). Instant,
    /// virtual clock of the abandoned device's queue.
    Failover,
    /// A supervised actor exited abnormally — it panicked or was killed
    /// by an injected fault — and its supervisor observed the exit.
    /// Instant, supervisor virtual clock.
    ActorExit,
    /// A supervisor restarted a child actor within its restart-intensity
    /// budget. Instant, supervisor virtual clock (after the restart's
    /// backoff charge).
    Restart,
    /// A supervisor exhausted its restart budget (or its strategy is
    /// escalate-only) and tore the pipeline down instead of restarting.
    /// Instant, supervisor virtual clock.
    Escalated,
    /// A restarted actor resumed from its checkpoint and redelivered the
    /// in-flight work item. Instant, virtual queue clock of the device
    /// the actor re-derived its state on.
    CheckpointRestore,
    /// The VM skipped its runtime cross-context residency check because
    /// static analysis proved the `mov` data never leaves this device
    /// (see `crates/analysis`, §6.2.3). Instant, virtual queue clock.
    ResidencyProven,
    /// The serving layer admitted a tenant session past admission
    /// control (`crates/serve`). Instant, wall clock.
    Admit,
    /// The serving layer shed a session at admission — the waiting queue
    /// or memory watermark was full. Instant, wall clock.
    Reject,
    /// The device-memory accountant evicted an idle resident `mov`
    /// buffer back to the host under memory pressure; the next touch
    /// re-uploads it transparently. Instant, wall clock.
    Evict,
    /// A per-request deadline expired on the serving path: a blocking
    /// receive gave up and the session shed its load instead of wedging
    /// the pool. Instant, wall clock.
    DeadlineExceeded,
    /// An injected silent-corruption fault flipped a bit at an
    /// upload/enqueue/readback seam (`oclsim::fault`,
    /// `InjectedFault::Corrupt`). Instant, virtual queue clock. Like
    /// `FaultInjected`, never part of a figure segment.
    CorruptionInjected,
    /// The integrity layer verified buffer contents against recorded
    /// provenance checksums and they matched. Emitted only when a
    /// corruption-capable fault plan is armed, so fault-free traces are
    /// unchanged. Instant, virtual queue clock.
    IntegrityCheck,
    /// A provenance checksum mismatch was detected: the buffer was
    /// restored from its host shadow (the last checkpoint) and the
    /// command failed with `ClError::IntegrityViolation` for the
    /// recovery layer to re-issue. Instant, virtual queue clock.
    IntegrityViolation,
    /// The serving layer's hedge timer expired before the primary
    /// session finished: a speculative duplicate was issued on the
    /// failover lanes. Instant, wall clock.
    Hedge,
    /// One side of a hedged pair delivered the first checksum-valid
    /// result and was taken as the response. Instant, wall clock.
    HedgeWon,
    /// The serving layer cancelled the slower side of a hedged pair.
    /// Instant, wall clock.
    StragglerAbandoned,
    /// The static prover certified this dispatch partition-safe along at
    /// least one NDRange dimension (`SplitProof`, `crates/analysis`): a
    /// group-aligned cut could run the pieces on different devices with
    /// no cross-piece traffic. The event name carries the dimensions,
    /// e.g. `Multiply dims=0,1`. Instant, virtual queue clock.
    ProofSplittable,
    /// The static prover placed this dispatch in a multi-dispatch chain
    /// with no host round-trip between enqueues (`FusionProof`): the
    /// chain can batch on one in-order queue. Instant, virtual queue
    /// clock.
    ProofFusable,
    /// The co-execution scheduler split this dispatch across two device
    /// lanes under a `SplitProof` (`oclsim::coexec`). The args carry the
    /// split dimension, per-lane group counts and virtual spans, and any
    /// groups rescued from a lost device. Instant, virtual clock
    /// of the primary queue, at the dispatch's committed end time. Never
    /// part of a figure segment: the composite kernel span carries the
    /// makespan.
    CoexecSplit,
    /// A batched dispatch session closed (`oclsim::CommandQueue::
    /// open_batch`): a proven-fusable chain of enqueues shared one launch
    /// overhead charge and one arbiter grant. The args carry the launch
    /// count and the overhead saved versus unbatched dispatch. Instant,
    /// virtual queue clock. Never part of a figure segment.
    BatchFused,
}

impl SpanKind {
    /// Stable lowercase name used as the Chrome `cat` field.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::ToDevice => "to_device",
            SpanKind::FromDevice => "from_device",
            SpanKind::Kernel => "kernel",
            SpanKind::VmChunk => "vm_chunk",
            SpanKind::Marker => "marker",
            SpanKind::InvokeNative => "invokenative",
            SpanKind::ResidentReuse => "resident_reuse",
            SpanKind::MovTransfer => "mov_transfer",
            SpanKind::Duplicate => "duplicate",
            SpanKind::ChannelWait => "channel_wait",
            SpanKind::Spawn => "spawn",
            SpanKind::FaultInjected => "fault_injected",
            SpanKind::Retry => "retry",
            SpanKind::Failover => "failover",
            SpanKind::ActorExit => "actor_exit",
            SpanKind::Restart => "restart",
            SpanKind::Escalated => "escalated",
            SpanKind::CheckpointRestore => "checkpoint_restore",
            SpanKind::ResidencyProven => "residency_proven",
            SpanKind::Admit => "admit",
            SpanKind::Reject => "reject",
            SpanKind::Evict => "evict",
            SpanKind::DeadlineExceeded => "deadline_exceeded",
            SpanKind::CorruptionInjected => "corruption_injected",
            SpanKind::IntegrityCheck => "integrity_check",
            SpanKind::IntegrityViolation => "integrity_violation",
            SpanKind::Hedge => "hedge",
            SpanKind::HedgeWon => "hedge_won",
            SpanKind::StragglerAbandoned => "straggler_abandoned",
            SpanKind::ProofSplittable => "proof_splittable",
            SpanKind::ProofFusable => "proof_fusable",
            SpanKind::CoexecSplit => "coexec_split",
            SpanKind::BatchFused => "batch_fused",
        }
    }
}

/// One recorded span or instant.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// What happened.
    pub kind: SpanKind,
    /// Human-readable label: kernel name, actor name, channel label…
    pub name: String,
    /// The timeline row this event belongs to: a device name for queue
    /// commands, an actor name for VM chunks. Becomes the Chrome `tid`.
    pub track: String,
    /// Start timestamp in nanoseconds (virtual or wall; see crate docs).
    pub ts_ns: f64,
    /// Duration in nanoseconds; `0.0` renders as an instant event.
    pub dur_ns: f64,
    /// Extra key/value context (byte counts, op counts, `clock` tag…).
    pub args: Vec<(String, String)>,
}

impl TraceEvent {
    /// A span with a duration.
    pub fn span(kind: SpanKind, name: &str, track: &str, ts_ns: f64, dur_ns: f64) -> TraceEvent {
        TraceEvent {
            kind,
            name: name.to_string(),
            track: track.to_string(),
            ts_ns,
            dur_ns,
            args: Vec::new(),
        }
    }

    /// A zero-duration instant.
    pub fn instant(kind: SpanKind, name: &str, track: &str, ts_ns: f64) -> TraceEvent {
        TraceEvent::span(kind, name, track, ts_ns, 0.0)
    }

    /// Attach a key/value argument (builder style).
    pub fn with_arg(mut self, key: &str, value: impl ToString) -> TraceEvent {
        self.args.push((key.to_string(), value.to_string()));
        self
    }
}

struct SinkInner {
    events: Mutex<Vec<TraceEvent>>,
    epoch: Instant,
}

/// A shared, cloneable recorder of [`TraceEvent`]s.
///
/// Cloning is cheap (an `Arc`); every clone records into the same buffer.
/// The disabled sink records nothing and costs nothing.
#[derive(Clone)]
pub struct TraceSink {
    inner: Option<Arc<SinkInner>>,
}

impl TraceSink {
    /// An enabled sink with an empty buffer. The wall-clock epoch for
    /// [`TraceSink::wall_ns`] starts now.
    pub fn new() -> TraceSink {
        TraceSink {
            inner: Some(Arc::new(SinkInner {
                events: Mutex::new(Vec::new()),
                epoch: Instant::now(),
            })),
        }
    }

    /// A sink that drops everything (the default in all hot paths).
    pub fn disabled() -> TraceSink {
        TraceSink { inner: None }
    }

    /// Whether events recorded here are kept.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Record one event (no-op when disabled).
    pub fn record(&self, event: TraceEvent) {
        if let Some(inner) = &self.inner {
            inner.events.lock().push(event);
        }
    }

    /// Append a batch of already-built events (no-op when disabled).
    pub fn extend(&self, events: Vec<TraceEvent>) {
        if let Some(inner) = &self.inner {
            inner.events.lock().extend(events);
        }
    }

    /// Nanoseconds of wall time since this sink was created — the
    /// timestamp base for wall-clock events. Returns 0 when disabled.
    pub fn wall_ns(&self) -> f64 {
        match &self.inner {
            Some(inner) => inner.epoch.elapsed().as_secs_f64() * 1e9,
            None => 0.0,
        }
    }

    /// Snapshot of every event recorded so far (recording order).
    pub fn events(&self) -> Vec<TraceEvent> {
        match &self.inner {
            Some(inner) => inner.events.lock().clone(),
            None => Vec::new(),
        }
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        match &self.inner {
            Some(inner) => inner.events.lock().len(),
            None => 0,
        }
    }

    /// Whether nothing has been recorded (always true when disabled).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all recorded events, keeping the sink enabled.
    pub fn clear(&self) {
        if let Some(inner) = &self.inner {
            inner.events.lock().clear();
        }
    }

    /// Aggregate the virtual-clock spans into figure segments.
    pub fn segments(&self) -> Segments {
        Segments::from_events(&self.events())
    }
}

impl Default for TraceSink {
    fn default() -> TraceSink {
        TraceSink::disabled()
    }
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(_) => write!(f, "TraceSink {{ events: {} }}", self.len()),
            None => f.write_str("TraceSink {{ disabled }}"),
        }
    }
}

/// The paper's four cost segments, in virtual nanoseconds, as summed
/// from a trace. This is the *only* path from spans to figure bars: the
/// `bench` crate builds every Ensemble bar from a `Segments`, so the
/// printed breakdown and an exported Chrome trace agree by construction.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Segments {
    /// Σ duration of [`SpanKind::ToDevice`] spans.
    pub to_device_ns: f64,
    /// Σ duration of [`SpanKind::FromDevice`] spans.
    pub from_device_ns: f64,
    /// Σ duration of [`SpanKind::Kernel`] spans.
    pub kernel_ns: f64,
    /// Σ duration of [`SpanKind::VmChunk`] spans (interpreter overhead).
    pub vm_ns: f64,
}

impl Segments {
    /// Sum the virtual-clock spans of `events` into segments.
    pub fn from_events(events: &[TraceEvent]) -> Segments {
        let mut s = Segments::default();
        for e in events {
            match e.kind {
                SpanKind::ToDevice => s.to_device_ns += e.dur_ns,
                SpanKind::FromDevice => s.from_device_ns += e.dur_ns,
                SpanKind::Kernel => s.kernel_ns += e.dur_ns,
                SpanKind::VmChunk => s.vm_ns += e.dur_ns,
                _ => {}
            }
        }
        s
    }

    /// Total virtual nanoseconds across all four segments.
    pub fn total_ns(&self) -> f64 {
        self.to_device_ns + self.from_device_ns + self.kernel_ns + self.vm_ns
    }
}

/// Escape a string for inclusion inside JSON double quotes.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Format a finite f64 for JSON (no NaN/Inf — callers pass clock values).
fn json_num(x: f64) -> String {
    if x == x.trunc() && x.abs() < 9e15 {
        format!("{}", x as i64)
    } else {
        format!("{x}")
    }
}

/// Serialise events as Chrome `trace_event` JSON (the "JSON object
/// format": a `traceEvents` array plus metadata), loadable in Perfetto
/// and `chrome://tracing`.
///
/// Each distinct [`TraceEvent::track`] becomes a numbered `tid` with a
/// `thread_name` metadata record, so device queues and actors appear as
/// labelled rows. Timestamps are microseconds (the format's unit) with
/// nanosecond precision preserved in the fraction; `displayTimeUnit` is
/// set to `"ns"`.
pub fn chrome_json(events: &[TraceEvent]) -> String {
    let mut tracks: Vec<&str> = Vec::new();
    for e in events {
        if !tracks.contains(&e.track.as_str()) {
            tracks.push(&e.track);
        }
    }
    let tid = |track: &str| tracks.iter().position(|t| *t == track).unwrap_or(0) + 1;

    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    let mut push = |s: String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push_str(&s);
    };
    for (i, track) in tracks.iter().enumerate() {
        push(
            format!(
                "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                i + 1,
                escape_json(track)
            ),
            &mut first,
        );
    }
    for e in events {
        let mut args = format!("\"kind\":\"{}\"", e.kind.name());
        for (k, v) in &e.args {
            args.push_str(&format!(",\"{}\":\"{}\"", escape_json(k), escape_json(v)));
        }
        let common = format!(
            "\"name\":\"{}\",\"cat\":\"{}\",\"pid\":1,\"tid\":{},\"ts\":{}",
            escape_json(&e.name),
            e.kind.name(),
            tid(&e.track),
            json_num(e.ts_ns / 1000.0),
        );
        let ev = if e.dur_ns > 0.0 {
            format!(
                "{{{common},\"ph\":\"X\",\"dur\":{},\"args\":{{{args}}}}}",
                json_num(e.dur_ns / 1000.0)
            )
        } else {
            format!("{{{common},\"ph\":\"i\",\"s\":\"t\",\"args\":{{{args}}}}}")
        };
        push(ev, &mut first);
    }
    out.push_str("]}");
    out
}

pub mod json;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing() {
        let t = TraceSink::disabled();
        t.record(TraceEvent::span(SpanKind::Kernel, "k", "gpu", 0.0, 10.0));
        assert!(t.is_empty());
        assert!(!t.is_enabled());
        assert_eq!(t.segments(), Segments::default());
    }

    #[test]
    fn clones_share_one_buffer() {
        let t = TraceSink::new();
        let t2 = t.clone();
        t.record(TraceEvent::span(SpanKind::ToDevice, "w", "gpu", 0.0, 5.0));
        t2.record(TraceEvent::span(SpanKind::Kernel, "k", "gpu", 5.0, 7.0));
        assert_eq!(t.len(), 2);
        let s = t2.segments();
        assert_eq!(s.to_device_ns, 5.0);
        assert_eq!(s.kernel_ns, 7.0);
        assert_eq!(s.total_ns(), 12.0);
    }

    #[test]
    fn only_segment_kinds_aggregate() {
        let t = TraceSink::new();
        t.record(TraceEvent::span(
            SpanKind::ChannelWait,
            "recv",
            "a",
            0.0,
            1e6,
        ));
        t.record(TraceEvent::instant(SpanKind::Spawn, "a", "stage", 0.0));
        t.record(TraceEvent::span(
            SpanKind::VmChunk,
            "boot",
            "main",
            0.0,
            80.0,
        ));
        let s = t.segments();
        assert_eq!(s.total_ns(), 80.0);
        assert_eq!(s.vm_ns, 80.0);
    }

    #[test]
    fn chrome_export_is_valid_json_with_named_tracks() {
        let t = TraceSink::new();
        t.record(
            TraceEvent::span(SpanKind::Kernel, "mm_kernel", "Virtual GPU", 100.0, 400.0)
                .with_arg("items", 1024),
        );
        t.record(TraceEvent::instant(
            SpanKind::MovTransfer,
            "a->b",
            "actor a",
            500.0,
        ));
        let j = chrome_json(&t.events());
        json::validate(&j).expect("valid JSON");
        assert!(j.contains("\"thread_name\""));
        assert!(j.contains("Virtual GPU"));
        assert!(j.contains("\"ph\":\"X\""));
        assert!(j.contains("\"ph\":\"i\""));
    }

    #[test]
    fn escaping_handles_specials() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        let j = chrome_json(&[TraceEvent::instant(
            SpanKind::Marker,
            "quote\" back\\slash",
            "t\n",
            0.0,
        )]);
        json::validate(&j).expect("escaped output stays valid");
    }
}
