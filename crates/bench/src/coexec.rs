//! Co-execution mode: proof-guided NDRange splitting and fused dispatch
//! batching (`BENCH_9.json`).
//!
//! Two claims are measured and gated here, both consequences of the
//! static proofs the analysis crate attaches to every compiled module:
//!
//! 1. **Co-execution has a crossover point.** For the copy-path apps
//!    whose kernels carry a `Splittable` dimension proof (matmul,
//!    mandelbrot), each sweep size runs single-GPU, single-CPU, and
//!    co-executed ([`oclsim::CoexecConfig::split`]). Every co-executed
//!    run must be **byte-identical** in output to the single-GPU
//!    reference (window execution keeps global ids and range
//!    intrinsics full-size), and beyond some problem size the
//!    co-executed time must beat the best single device — that first
//!    winning size, stable through the end of the sweep, is the
//!    reported crossover.
//! 2. **Batching a proven chain amortises launch overhead.** For the
//!    resident-buffer apps whose dispatches carry a `ChainRole`
//!    fusion proof (lud's Diag→Col→Sub loop, docrank's rank loop),
//!    a run with [`oclsim::CoexecConfig::batch`] on coalesces the
//!    chain into [`oclsim::DispatchBatch`] sessions: each dispatch
//!    after a batch's first is charged its kernel cost *minus* the
//!    device's fixed launch overhead. The gate requires the charged
//!    launch overhead to drop by at least [`BATCH_GATE`]× versus the
//!    unbatched run, with output again byte-identical.
//!
//! Co-execution must also never lose: at every sweep point the
//! co-executed time is at most the better single device's. The cut
//! minimises a makespan that includes "all on the primary", so a split
//! that would cost more than it saves is never taken.

use crate::apps_ens::{self, Sizes};
use crate::chaos::CHAOS_LOCK;
use crate::TraceSink;
use ensemble_vm::VmRuntime;
use oclsim::{CoexecConfig, DeviceType, Platform, ProfileSink};
use trace::{SpanKind, TraceEvent};

/// Batching must cut charged launch overhead by at least this factor.
pub const BATCH_GATE: f64 = 2.0;

/// Everything one measured run yields: captured output, the virtual
/// clock, dispatch count, and the run's trace events.
struct Run {
    output: Vec<String>,
    total_ns: f64,
    dispatches: u64,
    events: Vec<TraceEvent>,
}

/// Compile and run one source under `cfg`, with a private trace sink.
fn run_with(src: &str, cfg: CoexecConfig) -> Result<Run, String> {
    let module = ensemble_analysis::compile_source(src, &ensemble_analysis::Options::default())
        .map_err(|e| e.to_string())?;
    let sink = TraceSink::new();
    let profile = ProfileSink::new().with_trace(sink.clone());
    let vm = VmRuntime::with_profile(module, profile);
    vm.set_coexec(cfg);
    let report = vm.run().map_err(|e| e.to_string())?;
    Ok(Run {
        total_ns: report.total_ns(),
        dispatches: report.profile.dispatches,
        output: report.output,
        events: sink.events(),
    })
}

/// Sum a numeric arg over the run's instants of one kind.
fn sum_arg(events: &[TraceEvent], kind: SpanKind, key: &str) -> f64 {
    events
        .iter()
        .filter(|e| e.kind == kind)
        .map(|e| {
            e.args
                .iter()
                .find(|(k, _)| k == key)
                .and_then(|(_, v)| v.parse::<f64>().ok())
                .unwrap_or(0.0)
        })
        .sum()
}

/// One sweep size for one app: the two single-device baselines and the
/// co-executed run, all on the virtual clock.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Problem size (matrix dimension / image side).
    pub size: usize,
    /// Single-device GPU time, virtual ns.
    pub gpu_ns: f64,
    /// Single-device CPU time, virtual ns.
    pub cpu_ns: f64,
    /// Co-execution time, virtual ns.
    pub coexec_ns: f64,
    /// The secondary lane actually took groups (false below the
    /// `min_items` floor, where dispatch falls back to single-device).
    pub split_fired: bool,
    /// The co-executed run's output was byte-identical to the
    /// single-GPU reference (hard gate).
    pub outputs_identical: bool,
}

impl SweepPoint {
    /// Best single-device time.
    pub fn best_single(&self) -> f64 {
        self.gpu_ns.min(self.cpu_ns)
    }

    /// Co-execution materially beats the best single device here: at
    /// least 0.1% faster, so sub-nanosecond float noise between the
    /// split and plain dispatch paths never reads as a win.
    pub fn wins(&self) -> bool {
        self.coexec_ns < self.best_single() * 0.999
    }

    /// Co-execution is no slower than the best single device here.
    pub fn no_loss(&self) -> bool {
        self.coexec_ns <= self.best_single()
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"size\":{},\"gpu_ns\":{:.1},\"cpu_ns\":{:.1},\"coexec_ns\":{:.1},\
             \"split_fired\":{},\"outputs_identical\":{},\"coexec_wins\":{}}}",
            self.size,
            self.gpu_ns,
            self.cpu_ns,
            self.coexec_ns,
            self.split_fired,
            self.outputs_identical,
            self.wins(),
        )
    }
}

/// A size sweep over one app, with its detected crossover.
#[derive(Debug, Clone)]
pub struct AppSweep {
    /// Application name.
    pub app: String,
    /// One point per sweep size, ascending.
    pub points: Vec<SweepPoint>,
    /// Smallest size from which co-execution wins at *every* larger
    /// sweep size too (`None` when the sweep never stabilises a win).
    pub crossover: Option<usize>,
}

impl AppSweep {
    /// The sweep's gate: every point byte-identical and no slower than
    /// the best single device, and a crossover exists.
    pub fn ok(&self) -> bool {
        !self.points.is_empty()
            && self.points.iter().all(|p| p.outputs_identical && p.no_loss())
            && self.crossover.is_some()
    }

    fn to_json(&self) -> String {
        let pts: Vec<String> = self.points.iter().map(SweepPoint::to_json).collect();
        format!(
            "{{\"app\":\"{}\",\"crossover\":{},\"points\":[{}]}}",
            trace::escape_json(&self.app),
            match self.crossover {
                Some(s) => s.to_string(),
                None => "null".to_string(),
            },
            pts.join(","),
        )
    }

    fn render(&self) -> String {
        let mut out = format!(
            "co-execution sweep: {} (crossover: {})\n\
             {:>6} {:>12} {:>12} {:>12}  {:>6} {:>7}\n",
            self.app,
            match self.crossover {
                Some(s) => format!("n = {s}"),
                None => "none".to_string(),
            },
            "n",
            "gpu",
            "cpu",
            "coexec",
            "wins",
            "output",
        );
        for p in &self.points {
            out.push_str(&format!(
                "{:>6} {:>12.0} {:>12.0} {:>12.0}  {:>6} {:>7}\n",
                p.size,
                p.gpu_ns,
                p.cpu_ns,
                p.coexec_ns,
                if p.wins() { "yes" } else { "no" },
                if p.outputs_identical { "ok" } else { "MISMATCH" },
            ));
        }
        out
    }
}

/// Launch-overhead accounting for one proven dispatch chain, batched
/// versus unbatched.
#[derive(Debug, Clone)]
pub struct BatchChain {
    /// Application name.
    pub app: String,
    /// Kernel dispatches in the unbatched run.
    pub dispatches: u64,
    /// Batch sessions the batched run closed.
    pub batches: u64,
    /// Charged launch overhead without batching, virtual ns
    /// (`dispatches × launch_overhead_ns`).
    pub baseline_launch_ns: f64,
    /// Launch overhead the batch sessions saved, virtual ns.
    pub saved_ns: f64,
    /// Unbatched total time, virtual ns.
    pub unbatched_ns: f64,
    /// Batched total time, virtual ns.
    pub batched_ns: f64,
    /// Output byte-identical between batched and unbatched runs.
    pub outputs_identical: bool,
}

impl BatchChain {
    /// Charged launch overhead with batching, virtual ns.
    pub fn charged_launch_ns(&self) -> f64 {
        (self.baseline_launch_ns - self.saved_ns).max(0.0)
    }

    /// Reduction factor of charged launch overhead (the ≥[`BATCH_GATE`]
    /// gate).
    pub fn reduction_factor(&self) -> f64 {
        let charged = self.charged_launch_ns();
        if charged <= 0.0 {
            f64::INFINITY
        } else {
            self.baseline_launch_ns / charged
        }
    }

    /// The chain's gate: batching actually happened, overhead dropped
    /// by [`BATCH_GATE`]×, the clock got no worse, and output is
    /// byte-identical.
    pub fn ok(&self) -> bool {
        self.batches > 0
            && self.saved_ns > 0.0
            && self.reduction_factor() >= BATCH_GATE
            && self.batched_ns <= self.unbatched_ns
            && self.outputs_identical
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"app\":\"{}\",\"dispatches\":{},\"batches\":{},\
             \"baseline_launch_ns\":{:.1},\"saved_ns\":{:.1},\"charged_launch_ns\":{:.1},\
             \"reduction_factor\":{:.2},\"unbatched_ns\":{:.1},\"batched_ns\":{:.1},\
             \"outputs_identical\":{}}}",
            trace::escape_json(&self.app),
            self.dispatches,
            self.batches,
            self.baseline_launch_ns,
            self.saved_ns,
            self.charged_launch_ns(),
            self.reduction_factor(),
            self.unbatched_ns,
            self.batched_ns,
            self.outputs_identical,
        )
    }

    fn render(&self) -> String {
        format!(
            "{:<12} {:>4} dispatches in {:>3} batches  launch overhead {:>10.0} -> {:>8.0} ns \
             ({:.1}x)  output {}\n",
            self.app,
            self.dispatches,
            self.batches,
            self.baseline_launch_ns,
            self.charged_launch_ns(),
            self.reduction_factor(),
            if self.outputs_identical { "ok" } else { "MISMATCH" },
        )
    }
}

/// The full co-execution report (`BENCH_9.json`).
#[derive(Debug, Clone)]
pub struct CoexecReport {
    /// One size sweep per splittable app.
    pub sweeps: Vec<AppSweep>,
    /// One batching comparison per proven chain app.
    pub chains: Vec<BatchChain>,
}

impl CoexecReport {
    /// The mode's overall gate: every sweep crosses over byte-identical
    /// and never loses to the best single device, and every chain
    /// batches ≥[`BATCH_GATE`]×.
    pub fn all_consistent(&self) -> bool {
        !self.sweeps.is_empty()
            && self.sweeps.iter().all(AppSweep::ok)
            && !self.chains.is_empty()
            && self.chains.iter().all(BatchChain::ok)
    }

    /// Serialise as the `BENCH_9.json` schema.
    pub fn to_json(&self) -> String {
        let sweeps: Vec<String> = self.sweeps.iter().map(AppSweep::to_json).collect();
        let chains: Vec<String> = self.chains.iter().map(BatchChain::to_json).collect();
        format!(
            "{{\"schema\":\"bench-coexec-v2\",\"all_consistent\":{},\
             \"sweeps\":[{}],\"chains\":[{}]}}",
            self.all_consistent(),
            sweeps.join(","),
            chains.join(","),
        )
    }

    /// Render as a text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for s in &self.sweeps {
            out.push_str(&s.render());
            out.push('\n');
        }
        out.push_str("fused dispatch batching over proven chains:\n");
        for c in &self.chains {
            out.push_str(&c.render());
        }
        out
    }
}

/// Measure one sweep point: both single devices plus the co-executed
/// run.
fn sweep_point(size: usize, source: impl Fn(&str) -> String) -> Result<SweepPoint, String> {
    let gpu_src = source("GPU");
    let reference = run_with(&gpu_src, CoexecConfig::default())?;
    let cpu = run_with(&source("CPU"), CoexecConfig::default())?;
    let split = CoexecConfig {
        split: true,
        ..CoexecConfig::default()
    };
    let run = run_with(&gpu_src, split)?;
    Ok(SweepPoint {
        size,
        gpu_ns: reference.total_ns,
        cpu_ns: cpu.total_ns,
        coexec_ns: run.total_ns,
        split_fired: sum_arg(&run.events, SpanKind::CoexecSplit, "secondary_groups") > 0.0,
        outputs_identical: run.output == reference.output,
    })
}

/// Smallest size from which every later point also wins.
fn stable_crossover(points: &[SweepPoint]) -> Option<usize> {
    let mut cross = None;
    for p in points {
        if p.wins() {
            cross.get_or_insert(p.size);
        } else {
            cross = None;
        }
    }
    cross
}

/// Sweep one app over `ns`, producing its [`AppSweep`].
fn sweep(app: &str, ns: &[usize], source: impl Fn(usize, &str) -> String) -> Result<AppSweep, String> {
    let mut points = Vec::with_capacity(ns.len());
    for &n in ns {
        points.push(
            sweep_point(n, |dev| source(n, dev))
                .map_err(|e| format!("{app} n={n}: {e}"))?,
        );
    }
    let crossover = stable_crossover(&points);
    Ok(AppSweep {
        app: app.to_string(),
        points,
        crossover,
    })
}

/// Batch one proven chain app: unbatched reference versus
/// `CoexecConfig { batch: true }`.
fn chain(app: &str, src: &str) -> Result<BatchChain, String> {
    let unbatched = run_with(src, CoexecConfig::default())?;
    let batched = run_with(
        src,
        CoexecConfig {
            batch: true,
            ..CoexecConfig::default()
        },
    )?;
    let launch = Platform::default_device(DeviceType::Gpu)
        .ok_or("no GPU device in the platform matrix")?
        .cost_model()
        .launch_overhead_ns;
    let batches = batched
        .events
        .iter()
        .filter(|e| e.kind == SpanKind::BatchFused)
        .count() as u64;
    Ok(BatchChain {
        app: app.to_string(),
        dispatches: unbatched.dispatches,
        batches,
        baseline_launch_ns: unbatched.dispatches as f64 * launch,
        saved_ns: sum_arg(&batched.events, SpanKind::BatchFused, "saved_ns"),
        unbatched_ns: unbatched.total_ns,
        batched_ns: batched.total_ns,
        outputs_identical: batched.output == unbatched.output,
    })
}

/// Sweep sizes for the full mode (reach past the crossover for both
/// splittable apps; both are 2D with 16×16 groups, so the secondary's
/// slice granularity is `n/16` group-rows).
const MATMUL_SWEEP: [usize; 5] = [96, 128, 160, 224, 288];
const MANDEL_SWEEP: [usize; 5] = [96, 128, 160, 224, 288];

/// Reduced sweep for the CI smoke job: one point below the expected
/// crossover, one beyond it.
const MATMUL_SWEEP_QUICK: [usize; 2] = [96, 288];
const MANDEL_SWEEP_QUICK: [usize; 2] = [96, 288];

/// Entry point for `figures --coexec`: size sweeps over the splittable
/// apps plus batching over the proven chains. `quick` selects the
/// reduced CI sweep.
pub fn run_coexec(sizes: &Sizes, quick: bool) -> Result<CoexecReport, String> {
    let _serial = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (mm, mb): (&[usize], &[usize]) = if quick {
        (&MATMUL_SWEEP_QUICK, &MANDEL_SWEEP_QUICK)
    } else {
        (&MATMUL_SWEEP, &MANDEL_SWEEP)
    };
    let iters = sizes.mandel_iters;
    let sweeps = vec![
        sweep("matmul", mm, apps_ens::matmul)?,
        sweep("mandelbrot", mb, |n, dev| apps_ens::mandelbrot(n, iters, dev))?,
    ];
    let chains = vec![
        chain("lud", &apps_ens::lud(sizes.lud_n, "GPU"))?,
        chain(
            "docrank",
            &apps_ens::docrank(sizes.docrank_docs, sizes.docrank_rounds, "GPU"),
        )?,
    ];
    Ok(CoexecReport { sweeps, chains })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_is_valid_and_gated() {
        let report = CoexecReport {
            sweeps: vec![AppSweep {
                app: "matmul".into(),
                points: vec![
                    SweepPoint {
                        size: 96,
                        gpu_ns: 100.0,
                        cpu_ns: 900.0,
                        coexec_ns: 100.0,
                        split_fired: true,
                        outputs_identical: true,
                    },
                    SweepPoint {
                        size: 288,
                        gpu_ns: 1000.0,
                        cpu_ns: 9000.0,
                        coexec_ns: 900.0,
                        split_fired: true,
                        outputs_identical: true,
                    },
                ],
                crossover: Some(288),
            }],
            chains: vec![BatchChain {
                app: "lud".into(),
                dispatches: 9,
                batches: 1,
                baseline_launch_ns: 81_000.0,
                saved_ns: 72_000.0,
                unbatched_ns: 500_000.0,
                batched_ns: 428_000.0,
                outputs_identical: true,
            }],
        };
        assert!(report.all_consistent());
        assert!((report.chains[0].reduction_factor() - 9.0).abs() < 1e-9);
        trace::json::validate(&report.to_json()).unwrap();
        // A point where co-execution loses to the best single device
        // fails the report.
        let mut lost = report.clone();
        lost.sweeps[0].points[0].coexec_ns = 100.5;
        assert!(!lost.all_consistent());
    }

    #[test]
    fn crossover_requires_a_stable_win() {
        let point = |size, coexec: f64| SweepPoint {
            size,
            gpu_ns: 100.0,
            cpu_ns: 200.0,
            coexec_ns: coexec,
            split_fired: true,
            outputs_identical: true,
        };
        // Win at 64 is transient (lost again at 96): crossover is 128.
        let pts = [point(64, 90.0), point(96, 110.0), point(128, 80.0)];
        assert_eq!(stable_crossover(&pts), Some(128));
        assert_eq!(stable_crossover(&pts[..2]), None);
        assert_eq!(stable_crossover(&[]), None);
    }

    #[test]
    fn matmul_point_beyond_crossover_wins_byte_identically() {
        let _serial = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // 224 is the first stable-crossover size in the full sweep; it
        // keeps this test affordable in debug builds.
        let p = sweep_point(224, |dev| apps_ens::matmul(224, dev)).unwrap();
        assert!(p.outputs_identical, "coexec output must match single-GPU");
        assert!(p.split_fired, "secondary lane must take groups");
        assert!(
            p.wins(),
            "coexec {} must beat best single {}",
            p.coexec_ns,
            p.best_single()
        );
    }

    #[test]
    fn lud_chain_batching_reduces_launch_overhead() {
        let _serial = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let c = chain("lud", &apps_ens::lud(48, "GPU")).unwrap();
        assert!(c.outputs_identical, "batched output must match unbatched");
        assert!(c.batches > 0, "chain proof must open a batch");
        assert!(
            c.reduction_factor() >= BATCH_GATE,
            "launch overhead factor {} below gate",
            c.reduction_factor()
        );
        assert!(c.batched_ns <= c.unbatched_ns);
    }
}
