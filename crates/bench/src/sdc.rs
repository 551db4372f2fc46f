//! SDC mode: silent-corruption defense and straggler hedging (`BENCH_8.json`).
//!
//! Two claims are measured and gated here, both "beyond fail-stop" — the
//! failures the fault-stop chaos modes ([`crate::chaos`]) cannot see:
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
//!    accounting ([`oclsim::CommandQueue::repair_ns`]), which is the
//!    "recompute overhead" the report quotes.
//! 2. **Hedged re-dispatch bounds the straggler tail.** A serving
//!    workload with injected [`InjectedFault::Hang`] stalls in half the
//!    tenants runs twice: once without hedging (every hung dispatch
//!    sleeps out its full cap) and once with
//!    [`ensemble_serve::ServeConfig::hedge_after`] set, so the server
//!    speculatively re-issues stragglers on their failover lanes. The
//!    hedged p99 must be finite and strictly below the unhedged p99.

use crate::apps_ens::{self, Sizes};
use crate::chaos::CHAOS_LOCK;
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

    /// One-line summary for the harness output.
    pub fn render(&self) -> String {
        format!(
            "{:<12} injected {:>3}  detected {:>3}  repair {:>12.0} ns  output {}  clock {}",
            self.app,
            self.injections,
            self.detections,
            self.repair_ns,
            if self.output_identical { "ok" } else { "MISMATCH" },
            if self.clock_identical { "ok" } else { "MISMATCH" },
        )
    }

    /// Serialise as a JSON object (hand-rolled; the workspace has no
    /// JSON library).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"app\":\"{}\",\"injections\":{},\"detections\":{},\"repair_ns\":{:.1},\
             \"output_identical\":{},\"clock_identical\":{}}}",
            trace::escape_json(&self.app),
            self.injections,
            self.detections,
            self.repair_ns,
            self.output_identical,
            self.clock_identical,
        )
    }
}

/// All five applications under a seeded corruption schedule, each run
/// clean and corrupted on fresh private lanes and compared bit-for-bit.
pub fn run_sdc_corruption(seed: u64, sizes: &Sizes) -> Result<Vec<SdcOutcome>, String> {
    let _serial = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let apps: [(&str, String); 5] = [
        ("matmul", apps_ens::matmul(sizes.matmul_n, "GPU")),
        (
            "mandelbrot",
            apps_ens::mandelbrot(sizes.mandel_n, sizes.mandel_iters, "GPU"),
        ),
        ("lud", apps_ens::lud(sizes.lud_n, "GPU")),
        ("reduction", apps_ens::reduction(sizes.reduction_n, "GPU")),
        (
            "docrank",
            apps_ens::docrank(sizes.docrank_docs, sizes.docrank_rounds, "GPU"),
        ),
    ];
    let mut outcomes = Vec::with_capacity(apps.len());
    for (i, (app, src)) in apps.iter().enumerate() {
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
    /// Tenants carrying an injected hang.
    pub hang_tenants: usize,
    /// The hang plans' wall-clock cap, milliseconds.
    pub hang_cap_ms: u64,
    /// The hedged wave's `hedge_after`, milliseconds.
    pub hedge_after_ms: u64,
    /// Unhedged median latency, milliseconds.
    pub unhedged_p50_ms: f64,
    /// Unhedged 99th-percentile latency, milliseconds.
    pub unhedged_p99_ms: f64,
    /// Hedged median latency, milliseconds.
    pub hedged_p50_ms: f64,
    /// Hedged 99th-percentile latency, milliseconds.
    pub hedged_p99_ms: f64,
    /// `Hedge` instants the hedged wave recorded (speculations issued).
    pub hedges: usize,
    /// Hedge races won by the clean secondary.
    pub hedge_wins_secondary: usize,
    /// Hedge races the straggling primary still won.
    pub hedge_wins_primary: usize,
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

    /// Multi-line summary for the harness output.
    pub fn render(&self) -> String {
        format!(
            "stragglers   {} tenants ({} hanging, cap {} ms), hedge after {} ms\n\
             {:<12} p50 {:>8.1} ms  p99 {:>8.1} ms  completed {:>2}\n\
             {:<12} p50 {:>8.1} ms  p99 {:>8.1} ms  completed {:>2}  \
             hedges {} (secondary won {}, primary won {})\n",
            self.tenants,
            self.hang_tenants,
            self.hang_cap_ms,
            self.hedge_after_ms,
            "  unhedged",
            self.unhedged_p50_ms,
            self.unhedged_p99_ms,
            self.completed_unhedged,
            "  hedged",
            self.hedged_p50_ms,
            self.hedged_p99_ms,
            self.completed_hedged,
            self.hedges,
            self.hedge_wins_secondary,
            self.hedge_wins_primary,
        )
    }

    /// Serialise as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"tenants\":{},\"hang_tenants\":{},\"hang_cap_ms\":{},\"hedge_after_ms\":{},\
             \"unhedged\":{{\"p50_ms\":{:.3},\"p99_ms\":{:.3},\"completed\":{}}},\
             \"hedged\":{{\"p50_ms\":{:.3},\"p99_ms\":{:.3},\"completed\":{}}},\
             \"hedges\":{},\"hedge_wins_secondary\":{},\"hedge_wins_primary\":{},\
             \"p99_improved\":{}}}",
            self.tenants,
            self.hang_tenants,
            self.hang_cap_ms,
            self.hedge_after_ms,
            self.unhedged_p50_ms,
            self.unhedged_p99_ms,
            self.completed_unhedged,
            self.hedged_p50_ms,
            self.hedged_p99_ms,
            self.completed_hedged,
            self.hedges,
            self.hedge_wins_secondary,
            self.hedge_wins_primary,
            self.hedged_p99_ms < self.unhedged_p99_ms,
        )
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
    let won = |who: &str| {
        events
            .iter()
            .filter(|e| e.kind == SpanKind::HedgeWon && e.name == who)
            .count()
    };
    StragglerReport {
        tenants,
        hang_tenants: tenants / 2,
        hang_cap_ms,
        hedge_after_ms,
        unhedged_p50_ms: latency_percentile(&unhedged, 50.0).as_secs_f64() * 1e3,
        unhedged_p99_ms: latency_percentile(&unhedged, 99.0).as_secs_f64() * 1e3,
        hedged_p50_ms: latency_percentile(&hedged, 50.0).as_secs_f64() * 1e3,
        hedged_p99_ms: latency_percentile(&hedged, 99.0).as_secs_f64() * 1e3,
        hedges: events
            .iter()
            .filter(|e| e.kind == SpanKind::Hedge)
            .count(),
        hedge_wins_secondary: won("secondary"),
        hedge_wins_primary: won("primary"),
        completed_unhedged: unhedged.iter().filter(|o| o.is_completed()).count(),
        completed_hedged: hedged.iter().filter(|o| o.is_completed()).count(),
    }
}

/// The full SDC-mode report (`BENCH_8.json`).
#[derive(Debug, Clone)]
pub struct SdcReport {
    /// Corruption-schedule seed.
    pub seed: u64,
    /// Per-application corruption outcomes.
    pub apps: Vec<SdcOutcome>,
    /// The straggler-hedging comparison.
    pub straggler: StragglerReport,
}

impl SdcReport {
    /// Fraction of injected corruptions that were detected (the gate
    /// requires 1.0).
    pub fn detection_rate(&self) -> f64 {
        let injections: usize = self.apps.iter().map(|a| a.injections).sum();
        let detections: usize = self.apps.iter().map(|a| a.detections).sum();
        if injections == 0 {
            0.0
        } else {
            detections as f64 / injections as f64
        }
    }

    /// Total recompute overhead across the corrupted runs, virtual ns.
    pub fn recompute_overhead_ns(&self) -> f64 {
        self.apps.iter().map(|a| a.repair_ns).sum()
    }

    /// The mode's overall gate: every app's corruption gate plus the
    /// straggler gate.
    pub fn all_consistent(&self) -> bool {
        !self.apps.is_empty() && self.apps.iter().all(SdcOutcome::ok) && self.straggler.ok()
    }

    /// Serialise as the `BENCH_8.json` schema.
    pub fn to_json(&self) -> String {
        let apps: Vec<String> = self.apps.iter().map(SdcOutcome::to_json).collect();
        format!(
            "{{\"schema\":\"bench-sdc-v1\",\"seed\":{},\"detection_rate\":{:.3},\
             \"recompute_overhead_ns\":{:.1},\"all_consistent\":{},\
             \"apps\":[{}],\"straggler\":{}}}",
            self.seed,
            self.detection_rate(),
            self.recompute_overhead_ns(),
            self.all_consistent(),
            apps.join(","),
            self.straggler.to_json(),
        )
    }

    /// Render as a text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("SDC mode (seed {})\n", self.seed));
        for a in &self.apps {
            out.push_str(&a.render());
            out.push('\n');
        }
        out.push_str(&format!(
            "detection rate {:.0}%  recompute overhead {:.0} virtual ns (all off the main clock)\n",
            self.detection_rate() * 100.0,
            self.recompute_overhead_ns(),
        ));
        out.push_str(&self.straggler.render());
        out
    }
}

/// Entry point for `figures --sdc-seed N`: corruption chaos over all
/// five apps plus the straggler-hedging comparison.
pub fn run_sdc(seed: u64, sizes: &Sizes, tenants: usize) -> Result<SdcReport, String> {
    let apps = run_sdc_corruption(seed, sizes)?;
    let straggler = run_straggler(tenants, 500, 60);
    Ok(SdcReport {
        seed,
        apps,
        straggler,
    })
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

    #[test]
    fn report_json_is_valid_and_gated() {
        let report = SdcReport {
            seed: 1,
            apps: vec![SdcOutcome {
                app: "matmul".into(),
                injections: 3,
                detections: 3,
                repair_ns: 100.0,
                output_identical: true,
                clock_identical: true,
            }],
            straggler: StragglerReport {
                tenants: 4,
                hang_tenants: 2,
                hang_cap_ms: 500,
                hedge_after_ms: 60,
                unhedged_p50_ms: 10.0,
                unhedged_p99_ms: 520.0,
                hedged_p50_ms: 10.0,
                hedged_p99_ms: 90.0,
                hedges: 2,
                hedge_wins_secondary: 2,
                hedge_wins_primary: 0,
                completed_unhedged: 4,
                completed_hedged: 4,
            },
        };
        assert!(report.all_consistent());
        assert!((report.detection_rate() - 1.0).abs() < 1e-12);
        trace::json::validate(&report.to_json()).unwrap();
    }
}
