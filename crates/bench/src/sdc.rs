//! Silent-corruption defense and straggler hedging.
//!
//! Two claims are measured here, both "beyond fail-stop" — the failures
//! the fail-stop chaos runners ([`crate::chaos`]) cannot see. The
//! workspace's `tests/chaos.rs` asserts them:
//!
//! 1. **Silent data corruption is detected and repaired, for free on the
//!    virtual clock.** All five applications run on *private* device
//!    lanes ([`DeviceMatrix::private`]: fresh context + queue per matrix
//!    device, so the virtual clock origin is zero and bit patterns are
//!    comparable) under a
//!    seeded [`InjectedFault::Corrupt`] schedule that silently flips
//!    payload bits at the upload, dispatch, and read-back seams. The
//!    per-buffer provenance checksums must catch **every** injected
//!    flip (detections == injections), the recovery layer must recompute
//!    from the last checkpoint, and the corrupted run's outputs *and*
//!    `total_ns` bit pattern must be byte-identical to a fault-free run
//!    — the entire repair cost lands on the queues' separate repair
//!    accounting ([`oclsim::CommandQueue::repair_ns`]), the "recompute
//!    overhead".
//! 2. **Hedged re-dispatch bounds the straggler tail.** A serving
//!    workload with injected [`InjectedFault::Hang`] stalls in half the
//!    tenants runs twice: once without hedging (every hung dispatch
//!    sleeps out its full cap) and once with
//!    [`ensemble_serve::ServeConfig::hedge_after`] set, so the server
//!    speculatively re-issues stragglers on their failover lanes. The
//!    hedged p99 must be finite and strictly below the unhedged p99.

use crate::apps_ens::{self, Sizes};
use crate::chaos::{gpu_apps, CHAOS_LOCK};
use crate::TraceSink;
use ensemble_ocl::{DeviceMatrix, DeviceSel};
use ensemble_serve::{latency_percentile, open_loop, Outcome, Request, ServeConfig, Server};
use ensemble_vm::VmRuntime;
use oclsim::fault::{FaultInjector, FaultOp, FaultPlan, InjectedFault};
use std::sync::Arc;
use std::time::Duration;
use trace::SpanKind;

/// The seeded corruption schedule for one app: roughly one in `period`
/// eligible operations silently flips a payload bit, plus a guaranteed
/// flip on the very first upload so even the smallest schedule injects
/// at least once.
pub fn corrupt_plan(seed: u64, period: u64) -> FaultPlan {
    FaultPlan::new()
        .fail(FaultOp::Upload, 0, InjectedFault::Corrupt)
        .seeded_corrupt(seed, period)
        .expect("sdc harness periods are valid")
}

/// Run one compiled source on fresh private lanes with `injector` on
/// the GPU lane, the device the apps dispatch to. Returns `(output,
/// total_ns bit pattern, repair_ns)`, where `repair_ns` sums the lanes'
/// repair accounting: shadow restores and integrity-retry backoff — work
/// a real system would spend recomputing, kept off the main clocks so
/// recovered runs stay bit-identical.
fn lanes_run(src: &str, injector: &FaultInjector) -> Result<(Vec<String>, u64, f64), String> {
    let module = ensemble_analysis::compile_source(src, &ensemble_analysis::Options::default())
        .map_err(|e| e.to_string())?;
    let lanes = Arc::new(DeviceMatrix::private().map_err(|e| format!("sdc lanes: {e}"))?);
    let gpu = lanes.select(DeviceSel::gpu()).map_err(|e| e.to_string())?;
    gpu.context.attach_faults(injector.clone());
    let vm = VmRuntime::new(module);
    vm.set_env_resolver(Arc::clone(&lanes) as _);
    let report = vm.run().map_err(|e| e.to_string())?;
    let clock = report.total_ns().to_bits();
    let repair_ns = lanes.entries().iter().map(|l| l.queue.repair_ns()).sum();
    Ok((report.output, clock, repair_ns))
}

/// Outcome of one application under the seeded corruption schedule.
#[derive(Debug, Clone)]
pub struct SdcOutcome {
    /// Application name.
    pub app: String,
    /// Corruptions the injector actually fired.
    pub injections: usize,
    /// Corruptions the integrity layer caught (must equal `injections`).
    pub detections: usize,
    /// Repair accounting of the corrupted run, in virtual nanoseconds
    /// (the recompute overhead; must be positive when anything fired).
    pub repair_ns: f64,
    /// Output byte-identical to the fault-free run.
    pub output_identical: bool,
    /// `total_ns` bit pattern identical to the fault-free run.
    pub clock_identical: bool,
}

impl SdcOutcome {
    /// The per-app gate: everything injected was detected, something
    /// was injected, and the run stayed byte-identical.
    pub fn ok(&self) -> bool {
        self.injections > 0
            && self.detections == self.injections
            && self.repair_ns > 0.0
            && self.output_identical
            && self.clock_identical
    }
}

/// All five applications under a seeded corruption schedule, each run
/// clean and corrupted on fresh private lanes and compared bit-for-bit.
pub fn run_sdc_corruption(seed: u64, sizes: &Sizes) -> Result<Vec<SdcOutcome>, String> {
    let _serial = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut outcomes = Vec::with_capacity(5);
    for (i, (app, src)) in gpu_apps(sizes).iter().enumerate() {
        let (reference, ref_clock, _) = lanes_run(src, &FaultInjector::disabled())
            .map_err(|e| format!("{app}: reference run failed: {e}"))?;
        let injector = FaultInjector::new(corrupt_plan(seed.wrapping_add(i as u64), 11));
        let (output, clock, repair_ns) =
            lanes_run(src, &injector).map_err(|e| format!("{app}: sdc run failed: {e}"))?;
        outcomes.push(SdcOutcome {
            app: app.to_string(),
            injections: injector.corrupt_count(),
            detections: injector.detected_count(),
            repair_ns,
            output_identical: output == reference,
            clock_identical: clock == ref_clock,
        });
    }
    Ok(outcomes)
}

/// The straggler-hedging comparison (see module docs).
#[derive(Debug, Clone)]
pub struct StragglerReport {
    /// Tenants in each wave.
    pub tenants: usize,
    /// Unhedged 99th-percentile latency, milliseconds.
    pub unhedged_p99_ms: f64,
    /// Hedged 99th-percentile latency, milliseconds.
    pub hedged_p99_ms: f64,
    /// `Hedge` instants the hedged wave recorded (speculations issued).
    pub hedges: usize,
    /// Hedge races won by the clean secondary.
    pub hedge_wins_secondary: usize,
    /// Completions in the unhedged wave.
    pub completed_unhedged: usize,
    /// Completions in the hedged wave.
    pub completed_hedged: usize,
}

impl StragglerReport {
    /// The straggler gate: both waves completed everything they
    /// offered, speculation actually happened, and the hedged p99 is
    /// strictly below the unhedged p99.
    pub fn ok(&self) -> bool {
        self.completed_unhedged == self.tenants
            && self.completed_hedged == self.tenants
            && self.hedges > 0
            && self.hedge_wins_secondary > 0
            && self.hedged_p99_ms.is_finite()
            && self.hedged_p99_ms < self.unhedged_p99_ms
    }
}

/// One serving wave: `tenants` requests over the same small program,
/// with a capped [`InjectedFault::Hang`] on every odd tenant's first
/// dispatch. Returns the outcomes and the server's trace events.
fn straggler_wave(
    tenants: usize,
    hang_cap_ms: u64,
    hedge_after: Option<Duration>,
) -> (Vec<Outcome>, Vec<trace::TraceEvent>) {
    let server = Arc::new(Server::new(ServeConfig {
        max_active: 2,
        max_waiting: tenants,
        hedge_after,
        ..ServeConfig::default()
    }));
    let sink = TraceSink::new();
    server.set_trace(sink.clone());
    let src = apps_ens::matmul(16, "GPU");
    let requests: Vec<Request> = (0..tenants)
        .map(|t| {
            let mut r = Request::new(t as u64, src.clone());
            if t % 2 == 1 {
                r.chaos = Some(
                    FaultPlan::new()
                        .fail(FaultOp::Enqueue, 0, InjectedFault::Hang)
                        .with_hang_cap_ms(hang_cap_ms),
                );
            }
            r
        })
        .collect();
    let outcomes = open_loop(&server, requests, Duration::from_millis(2));
    (outcomes, sink.events())
}

/// Run the unhedged and hedged waves and compare their tails.
pub fn run_straggler(tenants: usize, hang_cap_ms: u64, hedge_after_ms: u64) -> StragglerReport {
    let _serial = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (unhedged, _) = straggler_wave(tenants, hang_cap_ms, None);
    let (hedged, events) = straggler_wave(
        tenants,
        hang_cap_ms,
        Some(Duration::from_millis(hedge_after_ms)),
    );
    StragglerReport {
        tenants,
        unhedged_p99_ms: latency_percentile(&unhedged, 99.0).as_secs_f64() * 1e3,
        hedged_p99_ms: latency_percentile(&hedged, 99.0).as_secs_f64() * 1e3,
        hedges: events.iter().filter(|e| e.kind == SpanKind::Hedge).count(),
        hedge_wins_secondary: events
            .iter()
            .filter(|e| e.kind == SpanKind::HedgeWon && e.name == "secondary")
            .count(),
        completed_unhedged: unhedged.iter().filter(|o| o.is_completed()).count(),
        completed_hedged: hedged.iter().filter(|o| o.is_completed()).count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupt_plan_always_fires_at_least_once() {
        let plan = corrupt_plan(1, 11);
        assert!(plan.can_corrupt());
    }

    #[test]
    fn matmul_corruption_is_detected_and_byte_identical() {
        let _serial = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let src = apps_ens::matmul(12, "GPU");
        let (reference, ref_clock, clean_repair) =
            lanes_run(&src, &FaultInjector::disabled()).unwrap();
        assert_eq!(clean_repair, 0.0, "clean runs never touch repair accounting");
        let injector = FaultInjector::new(corrupt_plan(3, 7));
        let (output, clock, repair) = lanes_run(&src, &injector).unwrap();
        assert!(injector.corrupt_count() > 0, "schedule must fire");
        assert_eq!(injector.detected_count(), injector.corrupt_count());
        assert_eq!(output, reference);
        assert_eq!(clock, ref_clock, "virtual clock must be bit-identical");
        assert!(repair > 0.0, "repairs must be accounted");
    }
}
