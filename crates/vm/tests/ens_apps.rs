//! End-to-end tests: the five evaluation applications written in
//! mini-Ensemble, compiled and executed on the VM, with each OpenCL
//! version's printed result compared against its single-threaded Ensemble
//! version (the paper's "all implementations were functionally
//! equivalent" check, at reduced sizes).

use ensemble_vm::VmRuntime;

/// Compile through the static-analysis gate, so every app exercised here
/// is also certified race-free, in-bounds, and deadlock-lint clean on
/// each run — and carries the mov residency proofs into its bytecode.
fn gated(src: &str) -> ensemble_lang::CompiledModule {
    ensemble_analysis::compile_source(src, &ensemble_analysis::Options::default())
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Run a source and return its printed output.
fn run(src: &str) -> Vec<String> {
    VmRuntime::new(gated(src))
        .run()
        .unwrap_or_else(|e| panic!("{e}"))
        .output
}

/// [`run`] for a shipped `ocl.ens`. Every one of them is W005-clean
/// (`crates/analysis/tests/proofs.rs`): the prover predicts that no copy
/// send's payload is written while the other side still holds it, and the
/// copy-on-write runtime is the dynamic cross-check — not one deferred
/// copy may materialise.
fn run_ocl(src: &str) -> Vec<String> {
    let report = VmRuntime::new(gated(src))
        .run()
        .unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(
        report.dup_copied_bytes, 0,
        "a W005-clean app paid for a copy"
    );
    report.output
}

/// Shrink the paper-scale constants embedded in an asset for test speed.
fn shrink(src: &str, subs: &[(&str, &str)]) -> String {
    let mut out = src.to_string();
    for (from, to) in subs {
        assert!(out.contains(from), "substitution `{from}` not found");
        out = out.replace(from, to);
    }
    out
}

#[test]
fn matmul_ocl_matches_seq() {
    let subs = [("1024", "8")];
    let gsubs = [("1024", "8"), ("of 16", "of 2")];
    let seq = run(&shrink(
        include_str!("../../apps/src/assets/matmul/seq.ens"),
        &subs,
    ));
    let ocl = run_ocl(&shrink(
        include_str!("../../apps/src/assets/matmul/ocl.ens"),
        &gsubs,
    ));
    // a=1, b=2 → every result element is 2n → checksum 2n³ = 1024.
    assert_eq!(seq, vec!["checksum: ".to_string(), "1024".to_string()]);
    assert_eq!(ocl, seq);
}

#[test]
fn mandelbrot_ocl_matches_seq() {
    let subs = [("1024", "16"), ("1000", "60")];
    let gsubs = [("1024", "16"), ("1000", "60"), ("of 16", "of 4")];
    let seq = run(&shrink(
        include_str!("../../apps/src/assets/mandelbrot/seq.ens"),
        &subs,
    ));
    let ocl = run_ocl(&shrink(
        include_str!("../../apps/src/assets/mandelbrot/ocl.ens"),
        &gsubs,
    ));
    assert_eq!(seq[0], "total: ");
    assert_eq!(ocl, seq);
    // The total must be meaningful (some pixels escaped, some did not).
    let total: i64 = seq[1].parse().unwrap();
    assert!(total > 16 * 16, "suspicious total {total}");
}

#[test]
fn reduction_ocl_matches_seq() {
    let subs = [("33554432", "4096")];
    let seq = run(&shrink(
        include_str!("../../apps/src/assets/reduction/seq.ens"),
        &subs,
    ));
    let ocl = run_ocl(&shrink(
        include_str!("../../apps/src/assets/reduction/ocl.ens"),
        &subs,
    ));
    assert_eq!(seq, vec!["min: ".to_string(), "-123.5".to_string()]);
    assert_eq!(ocl, seq);
}

#[test]
fn lud_ocl_matches_seq() {
    let subs = [("2048", "16")];
    let gsubs = [("2048", "16"), ("group = 16", "group = 4")];
    let seq = run(&shrink(
        include_str!("../../apps/src/assets/lud/seq.ens"),
        &subs,
    ));
    let ocl = run_ocl(&shrink(
        include_str!("../../apps/src/assets/lud/ocl.ens"),
        &gsubs,
    ));
    assert_eq!(seq[0], "U trace: ");
    // Compare traces numerically (interpreted f32 kernels vs f64 host).
    let a: f64 = seq[1].parse().unwrap();
    let b: f64 = ocl[1].parse().unwrap();
    assert!(
        (a - b).abs() < 1e-2 * a.abs().max(1.0),
        "seq trace {a} vs ocl trace {b}"
    );
}

#[test]
fn docrank_ocl_matches_seq() {
    let subs = [("65536", "128"), ("rounds = 10", "rounds = 3")];
    let seq = run(&shrink(
        include_str!("../../apps/src/assets/docrank/seq.ens"),
        &subs,
    ));
    let ocl = run_ocl(&shrink(
        include_str!("../../apps/src/assets/docrank/ocl.ens"),
        &subs,
    ));
    assert_eq!(seq[0], "wanted: ");
    assert_eq!(ocl, seq);
}

#[test]
fn lud_vm_keeps_matrix_on_device_between_kernels() {
    // The VM-level movability check: 16×16 LUD does 16 steps × 3 kernels =
    // 48 dispatches, but the matrix crosses the bus only twice (up at the
    // first dispatch, down when the controller reads the trace).
    let gsubs = [("2048", "16"), ("group = 16", "group = 4")];
    let module = gated(&shrink(
        include_str!("../../apps/src/assets/lud/ocl.ens"),
        &gsubs,
    ));
    let report = VmRuntime::new(module).run().unwrap();
    assert_eq!(report.profile.dispatches, 48);
    let gpu = ensemble_ocl::device_matrix()
        .select(ensemble_ocl::DeviceSel::gpu())
        .unwrap();
    let matrix_bytes = 16 * 16 * 4;
    let one_up =
        gpu.device.cost_model().transfer_ns(matrix_bytes) + gpu.device.cost_model().transfer_ns(4); // piv
    assert!(
        report.profile.to_device_ns <= one_up + 1.0,
        "expected one upload, got {} (one = {one_up})",
        report.profile.to_device_ns
    );
    assert!(report.vm_ops > 0, "VM overhead must be accounted");
}

#[test]
fn docrank_vm_residency_skips_reupload_between_rounds() {
    let subs = [("65536", "128"), ("rounds = 10", "rounds = 3")];
    let module = gated(&shrink(
        include_str!("../../apps/src/assets/docrank/ocl.ens"),
        &subs,
    ));
    let report = VmRuntime::new(module).run().unwrap();
    assert_eq!(report.profile.dispatches, 3);
    // Three uploads (docs, tpl, flags) for round one; rounds 2-3 reuse.
    let gpu = ensemble_ocl::device_matrix()
        .select(ensemble_ocl::DeviceSel::gpu())
        .unwrap();
    let cost = gpu.device.cost_model();
    let one_round_up =
        cost.transfer_ns(128 * 64 * 4) + cost.transfer_ns(64 * 4) + cost.transfer_ns(128 * 4);
    assert!(
        (report.profile.to_device_ns - one_round_up).abs() < 1.0,
        "expected a single round of uploads: {} vs {one_round_up}",
        report.profile.to_device_ns
    );
}

#[test]
fn lud_residency_proof_skips_runtime_bookkeeping() {
    // The analysis proves every consumer of `lud_t` lives on one device,
    // so the VM's mov path skips the cross-context residency comparison.
    // Each device-resident dispatch after the first upload records a
    // `residency_proven` instant instead of doing the bookkeeping.
    let gsubs = [("2048", "8"), ("group = 16", "group = 4")];
    let module = gated(&shrink(
        include_str!("../../apps/src/assets/lud/ocl.ens"),
        &gsubs,
    ));
    let mut kernels = 0;
    for actor in &module.actors {
        if let ensemble_lang::ActorCode::Kernel(plan) = &actor.code {
            assert!(
                plan.residency_proven,
                "kernel `{}` should carry the residency proof",
                plan.kernel_name
            );
            kernels += 1;
        }
    }
    assert_eq!(kernels, 3, "Diag, Col and Sub must all be kernel actors");
    let sink = trace::TraceSink::new();
    let profile = ensemble_ocl::ProfileSink::new().with_trace(sink.clone());
    VmRuntime::with_profile(module, profile).run().unwrap();
    let proven = sink
        .events()
        .iter()
        .filter(|e| e.kind == trace::SpanKind::ResidencyProven)
        .count();
    // 8 steps × 3 kernels = 24 dispatches; all but the very first find the
    // matrix already device-resident and skip the check under the proof.
    assert_eq!(proven, 23, "expected a proof instant per resident dispatch");
}

#[test]
fn a_write_after_a_copy_send_pays_its_copy_and_stays_invisible() {
    // The W005 fixture mutates `d.inp` right after sending `d` by copy.
    // The kernel must still see the sent 1.0s (8 × 2.0 = 16), and the
    // only copy ever made is that one 8-element leaf — or none, if the
    // kernel actor had already uploaded and dropped its share.
    let module = gated(include_str!("../../analysis/tests/fixtures/w005.ens"));
    let report = VmRuntime::new(module).run().unwrap();
    assert_eq!(report.output, vec!["16"]);
    assert!(report.dup_shared_bytes >= 2 * 8 * 8, "{report:?}");
    assert!(report.dup_copied_bytes <= 64, "{report:?}");
}

#[test]
fn an_integer_array_in_a_real_field_is_a_typed_error() {
    // Nothing in `lang` rejects building `data_t(real [] x; ...)` from an
    // `integer []`; it used to flatten to a zero-length segment and trap
    // inside the kernel as an out-of-bounds access.
    let src = shrink(
        include_str!("../../../benchmark/fixtures/stream_copy.ens"),
        &[
            ("n = 1048576", "n = 2048"),
            ("x = new real[n] of 1.0", "x = new integer[n] of 1"),
        ],
    );
    let err = VmRuntime::new(gated(&src)).run().unwrap_err();
    assert!(
        err.message
            .contains("field `x` is declared Real [] but holds integer []"),
        "{err}"
    );
}
