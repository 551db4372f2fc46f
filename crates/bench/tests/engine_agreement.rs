//! Whole-application agreement of the three kernel engines.
//!
//! The five applications, at tiny sizes, run to completion once per
//! engine rung (stack, register, native). The engines may differ in host
//! speed only: program output, retired kernel ops and interpreted VM ops
//! must be identical, and the virtual-clock segments equal up to float
//! re-association. Each run's kernel spans must name the rung that was
//! asked for, so a silent fall down the ladder fails here too.
//!
//! The test flips the process default engine, so it is the only test in
//! this binary: nothing else dispatches while a rung is forced.

use bench::{apps_ens, Sizes};
use ensemble_vm::VmRuntime;
use oclsim::{set_default_engine, Engine, ProfileSink};
use trace::{SpanKind, TraceSink};

/// What one run of one application on one engine produced.
#[derive(Debug)]
struct Run {
    output: Vec<String>,
    /// `(to_device, from_device, kernel, vm)` virtual ns.
    virtual_ns: [f64; 4],
    ops: u64,
    vm_ops: u64,
    /// The sorted, deduplicated `engine` tags of the run's kernel spans.
    ran: Vec<String>,
}

fn run(module: ensemble_lang::CompiledModule) -> Run {
    let sink = TraceSink::new();
    let profile = ProfileSink::new().with_trace(sink.clone());
    let report = VmRuntime::with_profile(module, profile.clone())
        .run()
        .expect("run");
    let events = sink.events();
    let segs = trace::Segments::from_events(&events);
    let mut ran: Vec<String> = events
        .iter()
        .filter(|e| e.kind == SpanKind::Kernel)
        .flat_map(|e| e.args.iter())
        .filter(|(k, _)| k == "engine")
        .map(|(_, v)| v.clone())
        .collect();
    ran.sort();
    ran.dedup();
    Run {
        output: report.output,
        virtual_ns: [
            segs.to_device_ns,
            segs.from_device_ns,
            segs.kernel_ns,
            segs.vm_ns,
        ],
        ops: profile.snapshot().ops,
        vm_ops: report.vm_ops,
        ran,
    }
}

/// Equal, or apart by no more than float re-association: the segment
/// totals sum identical per-event floats in actor-interleaving order.
fn close(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= 1e-9 * a.abs().max(b.abs())
}

#[test]
fn all_five_apps_agree_on_every_engine() {
    let sizes = Sizes {
        matmul_n: 8,
        mandel_n: 8,
        mandel_iters: 10,
        lud_n: 8,
        reduction_n: 256,
        docrank_docs: 64,
        docrank_rounds: 2,
    };
    let apps = [
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
    for (app, src) in apps {
        let module =
            ensemble_analysis::compile_source(&src, &ensemble_analysis::Options::default())
                .unwrap_or_else(|e| panic!("{app}: {e}"));
        let runs: Vec<(Engine, Run)> = [Engine::Stack, Engine::Register, Engine::Native]
            .into_iter()
            .map(|engine| {
                set_default_engine(engine);
                (engine, run(module.clone()))
            })
            .collect();
        set_default_engine(Engine::Native);
        let stack = &runs[0].1;
        assert!(stack.ops > 0, "{app}: no kernel ops recorded");
        for (engine, r) in &runs {
            let rung = engine.label();
            assert_eq!(r.ran, vec![rung], "{app} {rung}: the engine that ran");
            assert_eq!(r.output, stack.output, "{app} {rung}: output");
            assert_eq!(r.ops, stack.ops, "{app} {rung}: kernel ops");
            assert_eq!(r.vm_ops, stack.vm_ops, "{app} {rung}: vm ops");
            assert!(
                r.virtual_ns
                    .iter()
                    .zip(&stack.virtual_ns)
                    .all(|(&a, &b)| close(a, b)),
                "{app} {rung}: clock {:?} vs stack {:?}",
                r.virtual_ns,
                stack.virtual_ns
            );
        }
    }
}
