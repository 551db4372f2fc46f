//! Chaos mode: the five applications under seeded fault schedules.
//!
//! The robustness claim the harness checks is *fail-recover-finish*: with
//! a deterministic [`FaultPlan`] attached to the simulated GPU, every
//! application still completes and produces exactly the output of a
//! fault-free run — the recovery layer (bounded retries with virtual-clock
//! backoff, device failover, channel poisoning) absorbs the injected
//! faults instead of surfacing them.
//!
//! Two scenarios are provided:
//!
//! * [`run_chaos`] — all five apps through the compiler + VM with a seeded
//!   transient schedule (plus one guaranteed fault, so every app sees at
//!   least one) on the GPU queue. Outputs must match a fault-free
//!   reference run, and because every transient fault is answered by
//!   exactly one retry, the trace's [`SpanKind::Retry`] count must equal
//!   the injector's fired-fault count.
//! * [`run_failover_chaos`] — the programmatic matmul actor with a
//!   permanent [`InjectedFault::DeviceLost`] on the GPU's first dispatch:
//!   the kernel actor must evacuate its buffers through the rescue
//!   read-back path, fail over to the CPU matrix entry, and still produce
//!   the reference product.
//! * [`run_session_failover_chaos`] — the same loss under the `.ens`
//!   matmul in a serving session: the failover must stay on the
//!   session's private lanes and print the fault-free output.
//! * [`run_kill_chaos`] — all five apps with a seeded **kill** schedule
//!   ([`InjectedFault::Kill`]): actors die mid-protocol (by panic or
//!   abrupt exit) and the VM's supervisor restarts each one from its
//!   checkpoint. Outputs must match the fault-free reference, and every
//!   kill must surface in the trace as an [`SpanKind::ActorExit`] /
//!   [`SpanKind::Restart`] pair.
//!
//! The simulated devices are process-global, so chaos runs serialise on an
//! internal lock and always detach their injector afterwards — even when
//! the run fails.

use crate::apps_ens::{self, Sizes};
use crate::TraceSink;
use ensemble_actors::RestartBudget;
use ensemble_ocl::{device_matrix, DeviceSel, ProfileSink};
use ensemble_serve::{ArbiterPolicy, DevicePool, FairArbiter, TenantSession};
use ensemble_vm::VmRuntime;
use oclsim::fault::{FaultInjector, FaultOp, FaultPlan, InjectedFault, KillMode};
use oclsim::CoexecConfig;
use std::sync::Arc;
use trace::SpanKind;

/// Serialises chaos runs: injectors attach to the process-global device
/// matrix queues, so two concurrent chaos runs would see each other's
/// faults — and so would any *fault-free* run dispatching on those queues
/// meanwhile (its actors absorb the seeded kills, and the chaos run's
/// `exits == kills` no longer adds up). Every runner in this crate that
/// drives the global matrix from a test therefore takes it too: the
/// co-execution sweep. (The SDC harness in [`crate::sdc`] and the serving bench use private
/// lanes; SDC serialises anyway so chaos-mode wall timings are never
/// polluted by a concurrent run.)
pub(crate) static CHAOS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Hold the chaos serialisation lock for as long as the returned guard
/// lives. For callers that dispatch *fault-free* work on the
/// process-global matrix queues in a process that also runs chaos:
/// integration tests sharing a binary with chaos tests. Not re-entrant — never call it around a runner that
/// takes the lock itself (`run_chaos`, `run_app_chaos`, the co-execution
/// and SDC sweeps).
pub fn serialise() -> std::sync::MutexGuard<'static, ()> {
    CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Outcome of one application run under an injected fault schedule.
#[derive(Debug, Clone)]
pub struct ChaosOutcome {
    /// Application name (e.g. `"matmul"`).
    pub app: String,
    /// Faults the injector actually fired.
    pub injected: usize,
    /// [`SpanKind::Retry`] instants the recovery layer recorded.
    pub retries: usize,
    /// [`SpanKind::Failover`] instants the recovery layer recorded.
    pub failovers: usize,
    /// [`InjectedFault::Kill`] faults the injector fired.
    pub kills: usize,
    /// [`SpanKind::ActorExit`] instants the supervisor recorded (abnormal
    /// child exits).
    pub exits: usize,
    /// [`SpanKind::Restart`] instants the supervisor recorded.
    pub restarts: usize,
    /// Whether the run's output matched the fault-free reference.
    pub matches_reference: bool,
}

impl ChaosOutcome {
    /// One-line summary for the harness output.
    pub fn render(&self) -> String {
        format!(
            "{:<12} injected {:>3}  retries {:>3}  failovers {:>2}  kills {:>2}  exits {:>2}  restarts {:>2}  output {}",
            self.app,
            self.injected,
            self.retries,
            self.failovers,
            self.kills,
            self.exits,
            self.restarts,
            if self.matches_reference {
                "ok"
            } else {
                "MISMATCH"
            }
        )
    }
}

/// The transient chaos schedule for one app: roughly one in `period`
/// device operations fails once with `DeviceBusy`, plus a guaranteed
/// fault on the very first upload so even the smallest schedule injects
/// at least one.
pub fn chaos_plan(seed: u64, period: u64) -> FaultPlan {
    FaultPlan::seeded_transient(seed, period)
        .expect("chaos harness periods are valid")
        .fail(FaultOp::Upload, 0, InjectedFault::Transient)
}

/// The kill schedule for one app: the very first dispatch dies by panic
/// (so every app exercises at least one supervised restart — and the
/// panic flavour, the harder of the two kill modes), plus seeded kills on
/// roughly one in `period` eligible operations. `max_kills` caps the
/// total (explicit kill included) so long schedules stay within the
/// supervisor's restart budget.
pub fn kill_plan(seed: u64, period: u64, max_kills: u64) -> FaultPlan {
    FaultPlan::new()
        .fail(FaultOp::Enqueue, 0, InjectedFault::Kill(KillMode::Panic))
        .seeded_kills(seed, period, max_kills)
        .expect("kill harness periods are valid")
}

fn count(events: &[trace::TraceEvent], kind: SpanKind) -> usize {
    events.iter().filter(|e| e.kind == kind).count()
}

/// Run one compiled Ensemble source under `coexec` with `injector`
/// attached to the GPU matrix entry's context (the lane's one fault
/// attachment), recording into a fresh trace sink.
/// Returns the program's print output and the trace events. The injector
/// is detached before returning, on success and on error alike.
///
/// The caller must hold [`CHAOS_LOCK`]; the helper takes it internally in
/// the public entry points.
fn traced_gpu_run(
    src: &str,
    injector: &FaultInjector,
    coexec: &CoexecConfig,
) -> Result<(Vec<String>, Vec<trace::TraceEvent>), String> {
    let module = ensemble_analysis::compile_source(src, &ensemble_analysis::Options::default())
        .map_err(|e| e.to_string())?;
    let sink = TraceSink::new();
    let profile = ProfileSink::new().with_trace(sink.clone());
    injector.attach_trace(sink.clone());
    let entry = device_matrix()
        .select(DeviceSel::gpu())
        .map_err(|e| e.to_string())?;
    entry.context.attach_faults(injector.clone());
    let vm = VmRuntime::with_profile(module, profile);
    vm.set_coexec(coexec.clone());
    let result = vm.run();
    entry.context.attach_faults(FaultInjector::disabled());
    let report = result.map_err(|e| e.to_string())?;
    Ok((report.output, sink.events()))
}

/// Run one `.ens` source clean, then under `plan`, and compare outputs.
/// Both runs co-execute under `coexec`.
pub fn run_app_chaos(
    app: &str,
    src: &str,
    plan: FaultPlan,
    coexec: &CoexecConfig,
) -> Result<ChaosOutcome, String> {
    let _serial = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (reference, _) = traced_gpu_run(src, &FaultInjector::disabled(), coexec)
        .map_err(|e| format!("{app}: reference run failed: {e}"))?;
    let injector = FaultInjector::new(plan);
    let (output, events) = traced_gpu_run(src, &injector, coexec)
        .map_err(|e| format!("{app}: chaos run failed: {e}"))?;
    Ok(ChaosOutcome {
        app: app.to_string(),
        injected: injector.injected_count(),
        retries: count(&events, SpanKind::Retry),
        failovers: count(&events, SpanKind::Failover),
        kills: injector.kill_count(),
        exits: count(&events, SpanKind::ActorExit),
        restarts: count(&events, SpanKind::Restart),
        matches_reference: output == reference,
    })
}

/// All five applications under a seeded transient schedule on the GPU.
///
/// Each app gets its own schedule derived from `seed` (so a fault landing
/// at, say, upload #7 in one app does not force the same index on all),
/// with a fault rate of roughly one in 13 operations.
pub fn run_chaos(seed: u64, sizes: &Sizes) -> Result<Vec<ChaosOutcome>, String> {
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
        let plan = chaos_plan(seed.wrapping_add(i as u64), 13);
        outcomes.push(run_app_chaos(app, src, plan, &CoexecConfig::default())?);
    }
    Ok(outcomes)
}

/// All five applications under a seeded **kill** schedule on the GPU.
///
/// Each app's schedule is derived from `seed` (per-app offset, as in
/// [`run_chaos`]): the first dispatch dies by panic, and roughly one in
/// 17 further upload/dispatch operations kills the issuing actor, capped
/// at 3 kills per app. The VM's supervisor restarts every killed actor
/// from its checkpoint, so the output must be byte-identical to the
/// fault-free reference and every kill must appear in the trace as an
/// `ActorExit`/`Restart` pair.
pub fn run_kill_chaos(seed: u64, sizes: &Sizes) -> Result<Vec<ChaosOutcome>, String> {
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
        let plan = kill_plan(seed.wrapping_add(i as u64), 17, 3);
        outcomes.push(run_app_chaos(app, src, plan, &CoexecConfig::default())?);
    }
    Ok(outcomes)
}

/// Byte-identity probe for the injection layer itself: run the matmul
/// kernel's full command sequence (build, three uploads, dispatch,
/// read-back) against a **private** context + queue whose virtual clock
/// starts at zero, and return the run's Chrome trace JSON. With
/// `with_empty_plan` the context carries a [`FaultInjector`] built from
/// an empty [`FaultPlan`]; without it, the default disabled injector. The two traces must be byte-identical — an empty
/// plan charges no virtual time and records no events.
///
/// (The figure apps themselves run on the process-global device matrix,
/// whose queue clock is monotone across runs — so *absolute* timestamps
/// there can never be compared byte-for-byte between two runs, plan or
/// no plan. A private queue pins the clock origin and makes the
/// byte-level claim testable.)
pub fn empty_plan_trace(with_empty_plan: bool) -> Result<String, String> {
    use ensemble_apps::matmul;
    use oclsim::{CommandQueue, Context, DeviceType, MemFlags, NdRange, Platform, Program};
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let device = Platform::default_device(DeviceType::Gpu).ok_or("no GPU device")?;
    let context = Context::new(std::slice::from_ref(&device)).map_err(|e| err(&e))?;
    let queue = CommandQueue::new(&context, &device).map_err(|e| err(&e))?;
    let sink = TraceSink::new();
    let profile = ProfileSink::new().with_trace(sink.clone());
    if with_empty_plan {
        let injector = FaultInjector::new(FaultPlan::new());
        injector.attach_trace(sink.clone());
        context.attach_faults(injector);
    }
    let n = 16usize;
    let (a, b) = matmul::generate(n);
    let program = Program::build(&context, matmul::KERNEL_SRC).map_err(|e| err(&e))?;
    let kernel = program.create_kernel("multiply").map_err(|e| err(&e))?;
    let bytes = n * n * 4;
    let mut bufs = Vec::new();
    for data in [a.as_slice(), b.as_slice(), &vec![0.0; n * n]] {
        let buf = context
            .create_buffer(MemFlags::ReadWrite, bytes)
            .map_err(|e| err(&e))?;
        let ev = queue.write_f32(&buf, data).map_err(|e| err(&e))?;
        profile.record_command(&ev, device.name());
        bufs.push(buf);
    }
    for (i, buf) in bufs.iter().enumerate() {
        kernel.set_arg_buffer(i, buf).map_err(|e| err(&e))?;
    }
    for i in 0..6 {
        kernel.set_arg_i32(3 + i, n as i32).map_err(|e| err(&e))?;
    }
    let ev = queue
        .enqueue_nd_range(&kernel, &NdRange::d2([n, n], [4, 4]))
        .map_err(|e| err(&e))?;
    profile.record_command(&ev, device.name());
    let (_, ev) = queue.read_f32(&bufs[2]).map_err(|e| err(&e))?;
    profile.record_command(&ev, device.name());
    context.release_bytes(3 * bytes);
    Ok(trace::chrome_json(&sink.events()))
}

/// The permanent-failure scenario: matmul through the programmatic kernel
/// actor, with the GPU declared lost on its first dispatch. The recovery
/// layer must rescue the uploaded buffers over the still-open read-back
/// path, fail over to the CPU matrix entry, and complete with the
/// reference result. `n` must satisfy matmul's work-group constraint
/// (16 divides `n`, or `n` ≤ 16).
pub fn run_failover_chaos(n: usize) -> Result<ChaosOutcome, String> {
    use ensemble_apps::matmul;
    let _serial = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (a, b) = matmul::generate(n);
    let expected = matmul::reference(&a, &b);
    let sink = TraceSink::new();
    let profile = ProfileSink::new().with_trace(sink.clone());
    let injector =
        FaultInjector::new(FaultPlan::new().fail(FaultOp::Enqueue, 0, InjectedFault::DeviceLost));
    injector.attach_trace(sink.clone());
    let entry = device_matrix()
        .select(DeviceSel::gpu())
        .map_err(|e| e.to_string())?;
    entry.context.attach_faults(injector.clone());
    let got = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        matmul::run_ensemble(a, b, DeviceSel::gpu(), profile)
    }));
    entry.context.attach_faults(FaultInjector::disabled());
    let got = got.map_err(|_| "matmul run panicked under DeviceLost".to_string())?;
    let close = got
        .as_slice()
        .iter()
        .zip(expected.as_slice())
        .all(|(x, y)| (x - y).abs() <= 1e-3 * x.abs().max(1.0));
    let events = sink.events();
    Ok(ChaosOutcome {
        app: "matmul/failover".to_string(),
        injected: injector.injected_count(),
        retries: count(&events, SpanKind::Retry),
        failovers: count(&events, SpanKind::Failover),
        kills: injector.kill_count(),
        exits: count(&events, SpanKind::ActorExit),
        restarts: count(&events, SpanKind::Restart),
        matches_reference: close,
    })
}

/// Run `src` in a fresh standalone [`TenantSession`] with `injector` on
/// the session's private GPU lane only, recording into a fresh trace.
/// Returns the printed output, the trace events and the session, whose
/// lanes show where the work ran.
pub fn session_gpu_run(
    src: &str,
    injector: &FaultInjector,
) -> Result<(Vec<String>, Vec<trace::TraceEvent>, TenantSession), String> {
    let sink = TraceSink::new();
    injector.attach_trace(sink.clone());
    let session = TenantSession::new(
        0,
        Arc::new(FairArbiter::new(ArbiterPolicy::RoundRobin)),
        Arc::new(DevicePool::new(usize::MAX)),
        None,
    )
    .map_err(|e| e.to_string())?
    .with_trace(sink.clone());
    let gpu = session
        .lanes()
        .select(DeviceSel::gpu())
        .map_err(|e| e.to_string())?;
    gpu.context.attach_faults(injector.clone());
    let report = session
        .run(src, None, RestartBudget::default())
        .map_err(|e| e.to_string())?;
    Ok((report.output, sink.events(), session))
}

/// The `.ens` twin of [`run_failover_chaos`]: matmul in a serving session
/// whose private GPU lane is lost on its first dispatch. The kernel actor
/// fails over to the session's own CPU lane, never the process-wide
/// matrix's, and must print exactly the fault-free output.
pub fn run_session_failover_chaos(n: usize) -> Result<ChaosOutcome, String> {
    let _serial = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let src = apps_ens::matmul(n, "GPU");
    let (reference, ..) = session_gpu_run(&src, &FaultInjector::disabled())
        .map_err(|e| format!("matmul.ens: reference run failed: {e}"))?;
    let injector =
        FaultInjector::new(FaultPlan::new().fail(FaultOp::Enqueue, 0, InjectedFault::DeviceLost));
    let (output, events, _) = session_gpu_run(&src, &injector)
        .map_err(|e| format!("matmul.ens: failover run failed: {e}"))?;
    Ok(ChaosOutcome {
        app: "matmul.ens/failover".to_string(),
        injected: injector.injected_count(),
        retries: count(&events, SpanKind::Retry),
        failovers: count(&events, SpanKind::Failover),
        kills: injector.kill_count(),
        exits: count(&events, SpanKind::ActorExit),
        restarts: count(&events, SpanKind::Restart),
        matches_reference: output == reference,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Sizes {
        Sizes {
            matmul_n: 16,
            mandel_n: 16,
            mandel_iters: 20,
            lud_n: 16,
            reduction_n: 1 << 10,
            docrank_docs: 128,
            docrank_rounds: 3,
        }
    }

    #[test]
    fn seeded_transients_are_absorbed_in_every_app() {
        for o in run_chaos(0xc4a05, &small()).unwrap() {
            assert!(o.matches_reference, "{}", o.render());
            assert!(o.injected >= 1, "{}", o.render());
            assert_eq!(o.retries, o.injected, "{}", o.render());
            assert_eq!(o.failovers, 0, "{}", o.render());
        }
    }

    #[test]
    fn seeded_kills_are_survived_byte_identically_across_seeds() {
        // The acceptance bar for kill-chaos: for several seeds, every app
        // finishes with output byte-identical to the fault-free
        // reference, and every injected kill shows up in the trace as an
        // ActorExit/Restart pair (no silent kill, no spurious restart).
        for seed in [1u64, 2, 3] {
            for o in run_kill_chaos(seed, &small()).unwrap() {
                assert!(o.matches_reference, "seed {seed}: {}", o.render());
                assert!(o.kills >= 1, "seed {seed}: {}", o.render());
                assert_eq!(o.exits, o.kills, "seed {seed}: {}", o.render());
                assert_eq!(o.restarts, o.kills, "seed {seed}: {}", o.render());
                assert_eq!(o.failovers, 0, "seed {seed}: {}", o.render());
            }
        }
    }

    #[test]
    fn device_lost_fails_over_and_completes() {
        let o = run_failover_chaos(16).unwrap();
        assert!(o.matches_reference, "{}", o.render());
        assert!(o.failovers >= 1, "{}", o.render());
        assert!(o.injected >= 1, "{}", o.render());
    }

    #[test]
    fn empty_plan_leaves_the_trace_byte_identical() {
        let src = apps_ens::matmul(16, "GPU");
        let _serial = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let off = CoexecConfig::default();
        let (out_a, ev_a) = traced_gpu_run(&src, &FaultInjector::disabled(), &off).unwrap();
        let empty = FaultInjector::new(FaultPlan::new());
        let (out_b, ev_b) = traced_gpu_run(&src, &empty, &off).unwrap();
        assert_eq!(out_a, out_b);
        // No fault, retry, or failover instants — and the same events
        // otherwise. (Traces also carry wall-clock channel-wait spans and
        // thread-interleaved recording order, which legitimately differ
        // between any two runs; the byte-stable artefact is the multiset
        // of virtual-clock segment durations per category.)
        assert_eq!(ev_a.len(), ev_b.len());
        for kind in [SpanKind::FaultInjected, SpanKind::Retry, SpanKind::Failover] {
            assert_eq!(count(&ev_b, kind), 0, "{kind:?}");
        }
        // Segment totals agree to clock precision. (The global GPU queue
        // clock is monotone across the two runs, so `start + cost`
        // rounds at different magnitudes — durations can differ by ULPs
        // even between two *uninjected* runs; the byte-level claim is
        // made on a pinned clock in `empty_plan_is_byte_identical`.)
        let (sa, sb) = (
            trace::Segments::from_events(&ev_a),
            trace::Segments::from_events(&ev_b),
        );
        for (a, b) in [
            (sa.to_device_ns, sb.to_device_ns),
            (sa.from_device_ns, sb.from_device_ns),
            (sa.kernel_ns, sb.kernel_ns),
            (sa.vm_ns, sb.vm_ns),
        ] {
            assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn empty_plan_is_byte_identical_on_a_pinned_clock() {
        let without = empty_plan_trace(false).unwrap();
        let with = empty_plan_trace(true).unwrap();
        assert_eq!(without, with);
    }
}
