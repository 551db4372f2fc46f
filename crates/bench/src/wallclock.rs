//! Wall-clock benchmark trajectory: the five applications on all three
//! execution engines.
//!
//! Everything else in this harness is measured in *virtual* nanoseconds,
//! which by design cannot see how fast the simulator itself runs. This
//! module measures the other axis: real host time for the same five
//! Ensemble applications, once per execution engine — the reference stack
//! interpreter, the register-IR engine, and the native work-group engine
//! (see [`oclsim::engine`] for the ladder).
//!
//! Each app is compiled once; the compiled module is then run to
//! completion `repeats` times per engine and the **minimum** wall time is
//! reported (the usual wall-clock benchmarking convention — the minimum is
//! the run least disturbed by the host). The first run per engine also
//! captures the program's print output, its virtual-clock segment totals,
//! the retired abstract kernel ops, and — from the kernel trace spans'
//! `engine` tag — which engine *actually executed* the dispatches (a rung
//! may decline a kernel and fall down the ladder, so the requested engine
//! is not evidence of what ran). The harness asserts the engines agree on
//! output, ops, and virtual clock: engines may only differ in host speed,
//! never in results or virtual time.
//!
//! Timing uses [`std::time::Instant`] with [`criterion::black_box`] on the
//! run reports, matching the workspace's criterion shim.

use crate::apps_ens::{self, Sizes};
use criterion::black_box;
use ensemble_vm::VmRuntime;
use oclsim::{set_default_engine, Engine, ProfileSink};
use std::time::Instant;
use trace::{SpanKind, TraceSink};

/// What one engine measured for one application.
#[derive(Debug, Clone)]
pub struct EngineMeasure {
    /// Engine label *requested* (`"stack"` / `"register"` / `"native"`).
    pub engine: &'static str,
    /// Best (minimum) wall-clock time over the repeats, in host ns.
    pub wall_ns: u128,
    /// Abstract kernel ops per *host* second at the best wall time.
    pub ops_per_sec: f64,
    /// Captured print output of the first run.
    pub output: Vec<String>,
    /// Virtual-clock totals of the first run:
    /// `(to_device, from_device, kernel, vm)` ns.
    pub virtual_ns: (f64, f64, f64, f64),
    /// Abstract kernel ops retired by the first run.
    pub ops: u64,
    /// Interpreted VM ops of the first run.
    pub vm_ops: u64,
    /// Engine labels that *actually executed* kernel dispatches in the
    /// first run, harvested from the trace spans' `engine` tag — sorted,
    /// deduplicated. `["native"]` means every dispatch ran on the native
    /// rung; a mixed list means some kernels fell down the ladder.
    pub ran: Vec<String>,
}

/// All three engines' measurements for one application.
#[derive(Debug, Clone)]
pub struct AppWallclock {
    /// Application name (e.g. `"matmul"`).
    pub app: String,
    /// Stack-engine measurement (reference, bottom rung).
    pub stack: EngineMeasure,
    /// Register-engine measurement (middle rung).
    pub register: EngineMeasure,
    /// Native-engine measurement (top rung, process default).
    pub native: EngineMeasure,
}

impl AppWallclock {
    /// Wall-clock speedup of the register engine over the stack engine.
    pub fn register_over_stack(&self) -> f64 {
        self.stack.wall_ns as f64 / self.register.wall_ns.max(1) as f64
    }

    /// Wall-clock speedup of the native engine over the register engine.
    pub fn native_over_register(&self) -> f64 {
        self.register.wall_ns as f64 / self.native.wall_ns.max(1) as f64
    }

    /// Wall-clock speedup of the native engine over the stack engine.
    pub fn native_over_stack(&self) -> f64 {
        self.stack.wall_ns as f64 / self.native.wall_ns.max(1) as f64
    }

    fn measures(&self) -> [&EngineMeasure; 3] {
        [&self.stack, &self.register, &self.native]
    }

    /// True when all three engines printed identical output.
    pub fn outputs_match(&self) -> bool {
        self.measures()
            .iter()
            .all(|m| m.output == self.stack.output)
    }

    /// True when all three engines agree on every virtual-clock figure
    /// and on the retired op counts. Op counts are exact integers and
    /// must match exactly; the per-segment ns totals are sums of
    /// identical per-event floats whose summation *order* follows
    /// actor-thread interleaving, so they are compared to within float
    /// re-association noise.
    pub fn virtual_clock_match(&self) -> bool {
        fn close(a: f64, b: f64) -> bool {
            a == b || (a - b).abs() <= 1e-9 * a.abs().max(b.abs())
        }
        let s = &self.stack;
        self.measures().iter().all(|m| {
            close(s.virtual_ns.0, m.virtual_ns.0)
                && close(s.virtual_ns.1, m.virtual_ns.1)
                && close(s.virtual_ns.2, m.virtual_ns.2)
                && close(s.virtual_ns.3, m.virtual_ns.3)
                && s.ops == m.ops
                && s.vm_ops == m.vm_ops
        })
    }

    fn to_json(&self) -> String {
        let eng = |m: &EngineMeasure| {
            let ran: Vec<String> = m
                .ran
                .iter()
                .map(|r| format!("\"{}\"", trace::escape_json(r)))
                .collect();
            format!(
                "{{\"wall_ns\":{},\"ops_per_sec\":{:.1},\"ran\":[{}]}}",
                m.wall_ns,
                m.ops_per_sec,
                ran.join(",")
            )
        };
        format!(
            "{{\"app\":\"{}\",\"ops\":{},\
             \"engines\":{{\"stack\":{},\"register\":{},\"native\":{}}},\
             \"register_over_stack\":{:.4},\"native_over_register\":{:.4},\
             \"native_over_stack\":{:.4},\
             \"outputs_match\":{},\"virtual_clock_match\":{}}}",
            trace::escape_json(&self.app),
            self.stack.ops,
            eng(&self.stack),
            eng(&self.register),
            eng(&self.native),
            self.register_over_stack(),
            self.native_over_register(),
            self.native_over_stack(),
            self.outputs_match(),
            self.virtual_clock_match()
        )
    }
}

/// The full wall-clock report: all five applications, all three engines.
#[derive(Debug, Clone)]
pub struct WallclockReport {
    /// Per-application results, in paper figure order.
    pub apps: Vec<AppWallclock>,
    /// Repeats each (app, engine) pair was run for.
    pub repeats: usize,
    /// `"bench"` or `"paper"`, matching the sizes used.
    pub sizes_label: String,
}

fn geomean(vals: impl Iterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0f64, 0usize);
    for v in vals {
        log_sum += v.ln();
        n += 1;
    }
    if n == 0 {
        1.0
    } else {
        (log_sum / n as f64).exp()
    }
}

impl WallclockReport {
    /// Geometric mean of the per-app register-over-stack speedups.
    pub fn geomean_register_over_stack(&self) -> f64 {
        geomean(self.apps.iter().map(AppWallclock::register_over_stack))
    }

    /// Geometric mean of the per-app native-over-register speedups.
    pub fn geomean_native_over_register(&self) -> f64 {
        geomean(self.apps.iter().map(AppWallclock::native_over_register))
    }

    /// Geometric mean of the per-app native-over-stack speedups.
    pub fn geomean_native_over_stack(&self) -> f64 {
        geomean(self.apps.iter().map(AppWallclock::native_over_stack))
    }

    /// True when every app's engines agreed on output and virtual clock.
    pub fn all_consistent(&self) -> bool {
        self.apps
            .iter()
            .all(|a| a.outputs_match() && a.virtual_clock_match())
    }

    /// Serialise as the `BENCH_*.json` schema (documented in the README).
    pub fn to_json(&self) -> String {
        let apps: Vec<String> = self.apps.iter().map(AppWallclock::to_json).collect();
        format!(
            "{{\"schema\":\"bench-wallclock-v2\",\"sizes\":\"{}\",\"repeats\":{},\
             \"geomean_register_over_stack\":{:.4},\"geomean_native_over_register\":{:.4},\
             \"geomean_native_over_stack\":{:.4},\"all_consistent\":{},\"apps\":[{}]}}",
            trace::escape_json(&self.sizes_label),
            self.repeats,
            self.geomean_register_over_stack(),
            self.geomean_native_over_register(),
            self.geomean_native_over_stack(),
            self.all_consistent(),
            apps.join(",")
        )
    }

    /// Render as a text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Wall-clock engine comparison ({} sizes, best of {} runs)\n",
            self.sizes_label, self.repeats
        ));
        out.push_str(&format!(
            "{:<12} {:>11} {:>11} {:>11} {:>9} {:>9} {:>9}  consistency\n",
            "app", "stack ms", "reg ms", "native ms", "reg/stk", "nat/reg", "nat/stk"
        ));
        for a in &self.apps {
            out.push_str(&format!(
                "{:<12} {:>11.3} {:>11.3} {:>11.3} {:>8.2}x {:>8.2}x {:>8.2}x  {}\n",
                a.app,
                a.stack.wall_ns as f64 / 1e6,
                a.register.wall_ns as f64 / 1e6,
                a.native.wall_ns as f64 / 1e6,
                a.register_over_stack(),
                a.native_over_register(),
                a.native_over_stack(),
                if a.outputs_match() && a.virtual_clock_match() {
                    "ok"
                } else {
                    "MISMATCH"
                }
            ));
        }
        out.push_str(&format!(
            "geomean: register/stack {:.2}x, native/register {:.2}x, native/stack {:.2}x\n",
            self.geomean_register_over_stack(),
            self.geomean_native_over_register(),
            self.geomean_native_over_stack()
        ));
        out
    }
}

/// One timed run of an already-compiled module under the current default
/// engine.
struct RunMeasure {
    wall_ns: u128,
    output: Vec<String>,
    virtual_ns: (f64, f64, f64, f64),
    ops: u64,
    vm_ops: u64,
    ran: Vec<String>,
}

fn run_once(module: ensemble_lang::CompiledModule) -> Result<RunMeasure, String> {
    let sink = TraceSink::new();
    let profile = ProfileSink::new().with_trace(sink.clone());
    let start = Instant::now();
    let report = VmRuntime::with_profile(module, profile.clone())
        .run()
        .map_err(|e| e.to_string())?;
    let wall_ns = start.elapsed().as_nanos();
    black_box(&report);
    let events = sink.events();
    let segs = trace::Segments::from_events(&events);
    // Which engines *actually ran* kernels: the `engine` tag the dispatch
    // path stamps on every kernel span.
    let mut ran: Vec<String> = events
        .iter()
        .filter(|e| e.kind == SpanKind::Kernel)
        .flat_map(|e| e.args.iter())
        .filter(|(k, _)| k == "engine")
        .map(|(_, v)| v.clone())
        .collect();
    ran.sort();
    ran.dedup();
    Ok(RunMeasure {
        wall_ns,
        output: report.output,
        virtual_ns: (
            segs.to_device_ns,
            segs.from_device_ns,
            segs.kernel_ns,
            segs.vm_ns,
        ),
        ops: profile.snapshot().ops,
        vm_ops: report.vm_ops,
        ran,
    })
}

fn measure_engine(
    app: &str,
    module: &ensemble_lang::CompiledModule,
    engine: Engine,
    repeats: usize,
) -> Result<EngineMeasure, String> {
    set_default_engine(engine);
    let mut first: Option<RunMeasure> = None;
    let mut wall_ns = u128::MAX;
    for _ in 0..repeats.max(1) {
        let m = run_once(module.clone()).map_err(|e| format!("{app} ({}): {e}", engine.label()))?;
        wall_ns = wall_ns.min(m.wall_ns);
        if first.is_none() {
            first = Some(m);
        }
    }
    let first = first.expect("repeats >= 1");
    Ok(EngineMeasure {
        engine: engine.label(),
        wall_ns,
        ops_per_sec: first.ops as f64 * 1e9 / wall_ns.max(1) as f64,
        output: first.output,
        virtual_ns: first.virtual_ns,
        ops: first.ops,
        vm_ops: first.vm_ops,
        ran: first.ran,
    })
}

/// The five applications' Ensemble sources at `sizes`, GPU-targeted,
/// in paper figure order.
fn app_sources(sizes: &Sizes) -> Vec<(&'static str, String)> {
    vec![
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
    ]
}

/// Run the full wall-clock comparison: every app, stack engine first,
/// then register, then native, `repeats` runs each. Restores the process
/// default engine (native) before returning, on success and on error
/// alike.
///
/// Holds the chaos lock ([`crate::chaos::serialise`]) throughout: the
/// runs dispatch on the process-global matrix queues, where a concurrent
/// chaos run's injector would otherwise land its seeded kills on these
/// actors.
pub fn run_wallclock(
    sizes: &Sizes,
    sizes_label: &str,
    repeats: usize,
) -> Result<WallclockReport, String> {
    let _serial = crate::chaos::serialise();
    let result = run_wallclock_inner(sizes, sizes_label, repeats);
    set_default_engine(Engine::Native);
    result
}

fn run_wallclock_inner(
    sizes: &Sizes,
    sizes_label: &str,
    repeats: usize,
) -> Result<WallclockReport, String> {
    let mut apps = Vec::new();
    for (app, src) in app_sources(sizes) {
        let module =
            ensemble_analysis::compile_source(&src, &ensemble_analysis::Options::default())
                .map_err(|e| format!("{app}: {e}"))?;
        let stack = measure_engine(app, &module, Engine::Stack, repeats)?;
        let register = measure_engine(app, &module, Engine::Register, repeats)?;
        let native = measure_engine(app, &module, Engine::Native, repeats)?;
        apps.push(AppWallclock {
            app: app.to_string(),
            stack,
            register,
            native,
        });
    }
    Ok(WallclockReport {
        apps,
        repeats,
        sizes_label: sizes_label.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engines_agree_and_report_serialises() {
        // Tiny sizes: this is a consistency test, not a benchmark.
        let sizes = Sizes {
            matmul_n: 8,
            mandel_n: 8,
            mandel_iters: 10,
            lud_n: 8,
            reduction_n: 256,
            docrank_docs: 64,
            docrank_rounds: 2,
        };
        let report = run_wallclock(&sizes, "tiny", 1).unwrap();
        assert_eq!(report.apps.len(), 5);
        for a in &report.apps {
            for m in [&a.register, &a.native] {
                assert_eq!(a.stack.output, m.output, "{} {}: output", a.app, m.engine);
                assert_eq!(a.stack.ops, m.ops, "{} {}: kernel ops", a.app, m.engine);
                assert_eq!(a.stack.vm_ops, m.vm_ops, "{} {}: vm ops", a.app, m.engine);
            }
            assert!(
                a.virtual_clock_match(),
                "{}: clock {:?} vs {:?} vs {:?}",
                a.app,
                a.stack.virtual_ns,
                a.register.virtual_ns,
                a.native.virtual_ns
            );
            assert!(a.stack.ops > 0, "{}: no kernel ops recorded", a.app);
            // The trace tag records what actually ran, not what was asked.
            assert_eq!(a.stack.ran, vec!["stack"], "{}: stack ran", a.app);
            assert_eq!(a.register.ran, vec!["register"], "{}: register ran", a.app);
            assert_eq!(a.native.ran, vec!["native"], "{}: native ran", a.app);
        }
        assert!(report.all_consistent());
        let json = report.to_json();
        assert!(json.contains("\"schema\":\"bench-wallclock-v2\""));
        assert!(json.contains("\"app\":\"docrank\""));
        assert!(json.contains("\"ran\":[\"native\"]"));
        trace::json::validate(&json).unwrap();
        assert!(report.render().contains("geomean:"));
    }
}
