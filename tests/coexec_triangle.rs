//! Correctness triangle for proof-guided co-execution.
//!
//! The co-execution scheduler may repartition an NDRange across two
//! devices, batch proven-fusable dispatch chains, or decline and fall
//! back to the plain path — but it must never change *what* a program
//! computes or make the virtual clock non-deterministic. These tests pin
//! that triangle for every application, plus the fault edge: a secondary
//! device lost mid-split rescues its piece onto the surviving primary,
//! byte-identically.

use bench::apps_ens;
use ensemble_ocl::{device_matrix, DeviceSel, ProfileSink};
use ensemble_vm::VmRuntime;
use oclsim::fault::{FaultInjector, FaultOp, FaultPlan, InjectedFault};
use oclsim::CoexecConfig;
use trace::{SpanKind, TraceEvent, TraceSink};

/// Fault injectors attach to the process-global device matrix; every
/// test in this binary serialises on one lock so none leaks into a
/// concurrent clean run.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// One traced run with an explicit co-execution config: program output,
/// total virtual-clock time, and the exported trace events.
fn run_with(src: &str, cfg: CoexecConfig) -> (Vec<String>, f64, Vec<TraceEvent>) {
    let module = ensemble_analysis::compile_source(src, &ensemble_analysis::Options::default())
        .expect("app source compiles");
    let sink = TraceSink::new();
    let profile = ProfileSink::new().with_trace(sink.clone());
    let vm = VmRuntime::with_profile(module, profile);
    vm.set_coexec(cfg);
    let report = vm.run().expect("app runs");
    let total_ns = report.total_ns();
    (report.output, total_ns, sink.events())
}

/// The most aggressive co-execution config: splitting on, batching on,
/// and no minimum-size floor, so even the tiny triangle-sized dispatches
/// take the co-execution path whenever their proofs allow.
fn eager() -> CoexecConfig {
    CoexecConfig {
        split: true,
        batch: true,
        min_items: 1,
    }
}

/// All five applications at triangle sizes (small enough for debug-mode
/// test runs, large enough that every kernel actually dispatches).
fn apps() -> [(&'static str, String); 5] {
    [
        ("matmul", apps_ens::matmul(32, "GPU")),
        ("mandelbrot", apps_ens::mandelbrot(32, 20, "GPU")),
        ("lud", apps_ens::lud(32, "GPU")),
        ("reduction", apps_ens::reduction(1 << 10, "GPU")),
        ("docrank", apps_ens::docrank(128, 3, "GPU")),
    ]
}

/// All `CoexecSplit` instants' arguments, in order — the scheduler's
/// complete decision record for a run (split dimension, group
/// assignment per lane).
fn split_decisions(events: &[TraceEvent]) -> Vec<Vec<(String, String)>> {
    events
        .iter()
        .filter(|e| e.kind == SpanKind::CoexecSplit)
        .map(|e| e.args.clone())
        .collect()
}

/// Every app co-executed (with batching on and no size floor):
/// output byte-identical to the plain single-device run, scheduler
/// decisions bit-identical across repeated runs, and the virtual clock
/// equal to float-accumulation tolerance. (The device queues are
/// process-global and their clocks advance monotonically across runs,
/// so span durations — `end − start` at ever-larger magnitudes — can
/// differ in the last ULP between otherwise identical runs; whole-ns
/// divergence would still mean a real scheduling difference.)
#[test]
fn every_app_is_byte_identical_and_deterministic_under_co_execution() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for (app, src) in apps() {
        let (reference, _, _) = run_with(&src, CoexecConfig::default());
        let (out_a, ns_a, ev_a) = run_with(&src, eager());
        let (out_b, ns_b, ev_b) = run_with(&src, eager());
        assert_eq!(
            out_a, reference,
            "{app}: co-executed output diverged from plain run"
        );
        assert_eq!(out_a, out_b, "{app}: output not deterministic");
        assert_eq!(
            split_decisions(&ev_a),
            split_decisions(&ev_b),
            "{app}: split decisions not deterministic"
        );
        assert!(
            (ns_a - ns_b).abs() <= ns_a.abs() * 1e-9,
            "{app}: virtual clock diverged ({ns_a} vs {ns_b})"
        );
    }
}

/// The proof gate holds at the dispatch seam: reduction's kernel (a
/// cross-group reduction, proof-blocked) must never co-execute even
/// under the most eager config, while matmul's proof-splittable kernel
/// engages the scheduler.
#[test]
fn proof_blocked_kernels_never_split() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (_, _, events) = run_with(&apps_ens::reduction(1 << 12, "GPU"), eager());
    assert!(
        !events.iter().any(|e| e.kind == SpanKind::CoexecSplit),
        "reduction is proof-blocked; no split instant may appear"
    );
    let (_, _, events) = run_with(&apps_ens::matmul(32, "GPU"), eager());
    assert!(
        events.iter().any(|e| e.kind == SpanKind::CoexecSplit),
        "matmul is proof-splittable; the scheduler must engage"
    );
}

/// Reads a `u64` argument off the first `CoexecSplit` instant.
fn split_arg(events: &[TraceEvent], key: &str) -> Option<u64> {
    events
        .iter()
        .find(|e| e.kind == SpanKind::CoexecSplit)
        .and_then(|e| e.args.iter().find(|(k, _)| k == key))
        .and_then(|(_, v)| v.parse().ok())
}

/// At a size beyond the sweep's crossover the cut hands the secondary
/// real groups; losing that device mid-split rescues them onto the
/// primary with byte-identical output, and the rescue is visible in the
/// `CoexecSplit` instant.
#[test]
fn lost_secondary_mid_split_rescues_groups_onto_survivor() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let src = apps_ens::matmul(224, "GPU");
    let cfg = CoexecConfig {
        split: true,
        ..CoexecConfig::default()
    };
    let (reference, _, _) = run_with(&src, CoexecConfig::default());

    // Clean split first: the secondary must genuinely take groups here,
    // otherwise the rescue below would be vacuous.
    let (clean_out, _, clean_events) = run_with(&src, cfg.clone());
    let clean_taken = split_arg(&clean_events, "secondary_groups").unwrap_or(0);
    assert!(clean_taken > 0, "secondary lane must take groups at n=224");
    assert_eq!(clean_out, reference, "clean split output diverged");

    // Same run with the secondary (CPU) lost on its first liveness
    // probe: the scheduler reroutes its piece to the primary.
    let entry = device_matrix()
        .select(DeviceSel::cpu())
        .expect("CPU entry in the device matrix");
    let injector = FaultInjector::new(
        FaultPlan::new().fail(FaultOp::Enqueue, 0, InjectedFault::DeviceLost),
    );
    entry.context.attach_faults(injector.clone());
    let result = std::panic::catch_unwind(|| run_with(&src, cfg));
    entry.context.attach_faults(FaultInjector::disabled());
    let (faulted_out, _, faulted_events) = result.expect("faulted run completes");

    assert_eq!(
        faulted_out, reference,
        "device lost mid-split must not change the output"
    );
    let rescued = split_arg(&faulted_events, "rescued_groups").unwrap_or(0);
    assert_eq!(rescued, clean_taken, "lost secondary must rescue its piece whole");
    assert_eq!(
        split_arg(&faulted_events, "secondary_groups"),
        Some(0),
        "a dead secondary lane ends the run with no groups"
    );
}

/// Seeded kill-chaos with co-execution switched on (every dispatch
/// eligible): killed actors restart from their checkpoints and
/// the output still matches the fault-free reference — supervision and
/// NDRange splitting compose.
#[test]
fn kill_chaos_composes_with_co_execution() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let coexec = CoexecConfig {
        split: true,
        min_items: 1,
        ..CoexecConfig::default()
    };
    let outcome = bench::chaos::run_app_chaos(
        "matmul",
        &apps_ens::matmul(32, "GPU"),
        bench::chaos::kill_plan(5, 17, 3),
        &coexec,
    );
    let o = outcome.expect("kill-chaos run completes");
    assert!(o.matches_reference, "{}", o.render());
    assert!(o.kills >= 1, "{}", o.render());
    assert_eq!(o.exits, o.kills, "{}", o.render());
    assert_eq!(o.restarts, o.kills, "{}", o.render());
}
