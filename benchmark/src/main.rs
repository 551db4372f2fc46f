//! The wall-clock ledger: the repository's benchmark.
//!
//! ```text
//! ledger --workload W --seed N --seconds S --trace 0|1   one run, result JSON on the last line
//! ledger [--seed N] [--seconds S] [--repeats R] [--out F] every workload, both modes, one result set
//! ledger --smoke                                          the same code paths in a few seconds
//! ledger --compare A.json B.json                          judge set B against baseline A
//! ```
//!
//! See `README.md` beside this crate for the metrics, the workloads and
//! how they interact.

mod apps;
mod compare;
mod json;
mod layers;
mod metrics;
mod pin;
mod stats;
mod workloads;

use json::{num, Json};
use metrics::{Better, Metric};
use stats::Timed;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workloads::{Runner, Slice, Workload, WORKLOADS};

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;

/// How much repetition a run does: the full amount, or — for `--smoke`,
/// which only has to drive every code path — the least.
#[derive(Clone, Copy)]
struct Effort {
    setup_repeats: usize,
    min_calls: usize,
}

const FULL: Effort = Effort {
    setup_repeats: SETUP_REPEATS,
    min_calls: stats::MIN_CALLS,
};
const QUICK: Effort = Effort {
    setup_repeats: 1,
    min_calls: 1,
};
/// The measurement window of a `--smoke` run.
const SMOKE_SECONDS: f64 = 0.5;

/// One finished run, ready to print.
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    values: BTreeMap<&'static str, Timed>,
}

fn end_to_end(
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    effort: Effort,
) -> Result<RunResult, String> {
    let mut setup_s = Vec::new();
    let mut runner = None;
    for _ in 0..effort.setup_repeats {
        let t = Instant::now();
        runner = Some(Runner::set_up(workload, seed)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let runner = runner.expect("at least one set-up");
    let r = workloads::closed_loop(&runner, seed, seconds);
    if let Some(e) = &r.first_error {
        eprintln!("{}: first failure: {e}", workload.name);
    }
    // Each timing is the quiet quartile over the window's slices of the
    // slice's own value (see `workloads::SLICES`). A slice in which
    // nothing completed counts with the work it did towards throughput
    // and has no latency to report.
    let completed: usize = r.slices.iter().map(|s| s.latencies_ms.len()).sum();
    if completed == 0 {
        return Err(format!(
            "{}: no request completed in {seconds} s",
            workload.name
        ));
    }
    let quiet =
        |better: Better, slices: &mut dyn Iterator<Item = &Slice>, of: &dyn Fn(&Slice) -> f64| {
            let quartile = match better {
                Better::Higher => 75.0,
                Better::Lower => 25.0,
            };
            stats::percentile(&mut slices.map(of).collect::<Vec<_>>(), quartile)
        };
    let busy = || r.slices.iter().filter(|s| !s.latencies_ms.is_empty());
    let percentile = |s: &Slice, p: f64| stats::percentile(&mut s.latencies_ms.clone(), p);
    eprintln!(
        "{}: requests/s by slice: {}",
        workload.name,
        r.slices
            .iter()
            .map(|s| format!("{:.1}", s.work / r.slice_s))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let mut values = BTreeMap::new();
    let mut set = |name: &'static str, value: f64, n: usize| {
        values.insert(name, Timed { value, n });
    };
    set("setup_s", stats::median(&mut setup_s), effort.setup_repeats);
    set(
        "throughput_rps",
        quiet(Better::Higher, &mut r.slices.iter(), &|s| {
            s.work / r.slice_s
        }),
        completed,
    );
    set(
        "latency_ms_p50",
        quiet(Better::Lower, &mut busy(), &|s| percentile(s, 50.0)),
        completed,
    );
    set(
        "latency_ms_p95",
        quiet(Better::Lower, &mut busy(), &|s| percentile(s, 95.0)),
        completed,
    );
    set(
        "cpu_ms_per_req",
        quiet(Better::Lower, &mut busy(), &|s| s.cpu_s * 1e3 / s.work),
        completed,
    );
    set("peak_rss_mb", stats::peak_rss_mb(), 1);
    Ok(RunResult {
        correct: r.failed == 0,
        attempted: r.attempted,
        failed: r.failed,
        values,
    })
}

fn traced(
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    effort: Effort,
) -> Result<RunResult, String> {
    let runner = Runner::set_up(workload, seed)?;
    let trace_file = out_dir().join(format!("trace_{}.json", workload.name));
    let layers = layers::traced_run(&runner, seed, seconds, effort.min_calls, &trace_file)?;
    for problem in &layers.problems {
        eprintln!("{}: SELF-CHECK: {problem}", workload.name);
    }
    eprintln!(
        "{}: spans written to {}",
        workload.name,
        trace_file.display()
    );
    Ok(RunResult {
        correct: layers.failed == 0 && layers.problems.is_empty(),
        attempted: layers.attempted,
        failed: layers.failed,
        values: layers.values,
    })
}

/// Where the harness writes: `out/` beside this crate's manifest when run
/// through cargo, else the current directory's `benchmark/out`.
fn out_dir() -> PathBuf {
    match std::env::var_os("CARGO_MANIFEST_DIR") {
        Some(dir) => Path::new(&dir).join("out"),
        None => PathBuf::from("benchmark/out"),
    }
}

fn print_table(workload: &Workload, registry: &[Metric], values: &BTreeMap<&'static str, Timed>) {
    eprintln!(
        "{} — {}\n  {:<28} {:>16} {:<7} {:<7} {:>6} {:>8}",
        workload.name, workload.why, "metric", "value", "unit", "better", "bound", "n"
    );
    for m in registry {
        let Some(t) = values.get(m.name) else {
            continue;
        };
        eprintln!(
            "  {:<28} {:>16.6} {:<7} {:<7} {:>6} {:>8}",
            m.name,
            t.value,
            m.unit,
            m.better.label(),
            m.bound
                .map_or(String::new(), |b| format!("{:.0}%", b * 100.0)),
            t.n
        );
    }
}

/// The contract's result line, preceded by a line of sample counts.
fn print_result(registry: &[Metric], r: &RunResult) {
    let counts: Vec<String> = registry
        .iter()
        .map(|m| format!("\"{}\": {}", m.name, r.values[m.name].n))
        .collect();
    println!("{{\"n\": {{{}}}}}", counts.join(", "));
    let metrics: Vec<String> = registry
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(r.values[m.name].value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    );
}

fn single(
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    effort: Effort,
) -> ExitCode {
    let (registry, outcome) = if trace {
        (metrics::PER_LAYER, traced(workload, seed, seconds, effort))
    } else {
        (
            metrics::END_TO_END,
            end_to_end(workload, seed, seconds, effort),
        )
    };
    match outcome {
        Ok(r) => {
            for m in registry {
                assert!(
                    r.values.contains_key(m.name),
                    "`{}` was not measured",
                    m.name
                );
            }
            print_table(workload, registry, &r.values);
            print_result(registry, &r);
            if r.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{}: {e}", workload.name);
            ExitCode::FAILURE
        }
    }
}

/// Every value one (workload, metric) pair took over the repeats.
#[derive(Default)]
struct Series {
    values: Vec<f64>,
    n: Vec<f64>,
}

#[derive(Default)]
struct WorkloadSet {
    attempted: Vec<f64>,
    failed: Vec<f64>,
    metrics: BTreeMap<String, Series>,
}

/// Run one (workload, mode) in a child process — so peak RSS and the
/// process-wide engine state are that run's own — and fold its result
/// lines into `set`. Returns whether the child reported `correct`.
fn run_child(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    set: &mut WorkloadSet,
) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(smoke.then_some("--smoke"))
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let (Some(result), Some(counts)) = (lines.next(), lines.next()) else {
        return Err(format!("{}: the run printed no result", workload.name));
    };
    let (result, counts) = (Json::parse(result)?, Json::parse(counts)?);
    let field = |key: &str| result.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    set.attempted.push(field("attempted"));
    set.failed.push(field("failed"));
    for (name, m) in result
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("result line has no metrics")?
    {
        let series = set.metrics.entry(name.clone()).or_default();
        series
            .values
            .push(m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN));
        series.n.push(
            counts
                .get("n")
                .and_then(|n| n.get(name))
                .and_then(Json::as_f64)
                .unwrap_or(0.0),
        );
    }
    Ok(result.get("correct") == Some(&Json::Bool(true)) && output.status.success())
}

fn set_to_json(seed: u64, seconds: f64, sets: &BTreeMap<&str, WorkloadSet>) -> String {
    let list = |v: &[f64]| v.iter().map(|x| num(*x)).collect::<Vec<_>>().join(", ");
    let workloads: Vec<String> = sets
        .iter()
        .map(|(name, set)| {
            let metrics: Vec<String> = set
                .metrics
                .iter()
                .map(|(metric, s)| {
                    let unit = metrics::find(metric).map_or("", |m| m.unit);
                    format!(
                        "      \"{metric}\": {{\"unit\": \"{unit}\", \"values\": [{}], \"n\": [{}]}}",
                        list(&s.values),
                        list(&s.n)
                    )
                })
                .collect();
            format!(
                "    \"{name}\": {{\n     \"attempted\": [{}], \"failed\": [{}], \"metrics\": {{\n{}\n    }}}}",
                list(&set.attempted),
                list(&set.failed),
                metrics.join(",\n")
            )
        })
        .collect();
    format!(
        "{{\n  \"schema\": \"ledger-v1\", \"seed\": {seed}, \"seconds\": {}, \"workloads\": {{\n{}\n  }}\n}}\n",
        num(seconds),
        workloads.join(",\n")
    )
}

/// Every workload, end-to-end then traced, `repeats` times; prints every
/// metric and writes the result set.
fn all(seed: u64, seconds: f64, repeats: usize, smoke: bool, out: &Path) -> ExitCode {
    let mut sets: BTreeMap<&str, WorkloadSet> = BTreeMap::new();
    let mut correct = true;
    for workload in WORKLOADS {
        let set = sets.entry(workload.name).or_default();
        for _ in 0..repeats {
            for trace in [false, true] {
                match run_child(workload, seed, seconds, trace, smoke, set) {
                    Ok(ok) => correct &= ok,
                    Err(e) => {
                        eprintln!("{}: {e}", workload.name);
                        correct = false;
                    }
                }
            }
        }
    }
    println!(
        "{:<14} {:<28} {:>16} {:<7} {:<7} {:>6} {:>8}",
        "workload", "metric", "median", "unit", "better", "bound", "n"
    );
    for (name, set) in &sets {
        let attempted: f64 = set.attempted.iter().sum();
        let failed: f64 = set.failed.iter().sum();
        println!(
            "{name:<14} {:<28} {:>16.6} {:<7} {:<7} {:>6} {:>8}",
            "failed_share",
            failed / attempted.max(1.0),
            "ratio",
            "lower",
            "0",
            attempted
        );
        for m in metrics::END_TO_END.iter().chain(metrics::PER_LAYER) {
            let Some(series) = set.metrics.get(m.name) else {
                continue;
            };
            println!(
                "{name:<14} {:<28} {:>16.6} {:<7} {:<7} {:>6} {:>8}",
                m.name,
                stats::median(&mut series.values.clone()),
                m.unit,
                m.better.label(),
                m.bound
                    .map_or(String::new(), |b| format!("{:.0}%", b * 100.0)),
                stats::median(&mut series.n.clone())
            );
        }
    }
    let written = out
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(out, set_to_json(seed, seconds, &sets)));
    match written {
        Ok(()) => println!("result set written to {}", out.display()),
        Err(e) => {
            eprintln!("write {}: {e}", out.display());
            correct = false;
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("at least one run was incorrect or failed its self-check");
        ExitCode::FAILURE
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: ledger --workload <{}> --seed N --seconds S --trace 0|1\n       \
         ledger [--seed N] [--seconds S] [--repeats R] [--out FILE]\n       \
         ledger --smoke\n       \
         ledger --compare A.json B.json",
        WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    // Pin what the host and the environment could otherwise change: CPU
    // placement and the allocator's mode (see `pin`), the kernel engine and
    // co-execution (the serving path reads `OCLSIM_COEXEC` per VM).
    let cpus = std::thread::available_parallelism().map_or(0, usize::from);
    match pin::pin_process() {
        Some(cpu) => eprintln!("ledger: {cpus} CPU(s) available, pinned to CPU {cpu}"),
        None => {
            eprintln!("ledger: {cpus} CPU(s) available, could not pin: results will be noisier")
        }
    }
    std::env::remove_var("OCLSIM_ENGINE");
    std::env::remove_var("OCLSIM_COEXEC");
    oclsim::set_default_engine(oclsim::Engine::Native);

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 25.0f64;
    let mut trace = false;
    let mut repeats = 1usize;
    let mut smoke = false;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().map(String::as_str);
        let parsed = match flag.as_str() {
            "--compare" => {
                let (Some(a), Some(b)) = (value(), value()) else {
                    return usage();
                };
                return match compare::compare(a, b) {
                    Ok(true) => ExitCode::SUCCESS,
                    Ok(false) => ExitCode::FAILURE,
                    Err(e) => {
                        eprintln!("{e}");
                        ExitCode::from(2)
                    }
                };
            }
            "--smoke" => {
                smoke = true;
                Some(())
            }
            "--workload" => value()
                .and_then(workloads::find)
                .map(|w| workload = Some(w)),
            "--seed" => value().and_then(|v| v.parse().ok()).map(|v| seed = v),
            "--seconds" => value()
                .and_then(|v| v.parse().ok())
                .filter(|s: &f64| s.is_finite() && *s > 0.0)
                .map(|v| seconds = v),
            "--trace" => value()
                .and_then(|v| match v {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                })
                .map(|v| trace = v),
            "--repeats" => value()
                .and_then(|v| v.parse().ok())
                .filter(|r| *r >= 1)
                .map(|v| repeats = v),
            "--out" => value().map(|v| out = Some(PathBuf::from(v))),
            _ => None,
        };
        if parsed.is_none() {
            return usage();
        }
    }
    if smoke {
        seconds = seconds.min(SMOKE_SECONDS);
    }
    match workload {
        Some(w) => single(w, seed, seconds, trace, if smoke { QUICK } else { FULL }),
        None => {
            let out = out.unwrap_or_else(|| out_dir().join(format!("ledger_seed{seed}.json")));
            all(seed, seconds, repeats, smoke, &out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` repeats the registry and the workload list; the
    /// two must not drift apart.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let text = std::fs::read_to_string(
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        )
        .expect("BENCHMARK.json at the repository root");
        let spec = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            spec.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("`{key}` is a list"))
                .iter()
                .map(|e| e.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(
            names("workloads"),
            WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
        );
        for (key, registry) in [
            ("end_to_end", metrics::END_TO_END),
            ("per_layer", metrics::PER_LAYER),
        ] {
            assert_eq!(
                names(key),
                registry.iter().map(|m| m.name).collect::<Vec<_>>(),
                "{key}"
            );
            for (entry, m) in spec
                .get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .zip(registry)
            {
                assert_eq!(
                    entry.get("unit").and_then(Json::as_str),
                    Some(m.unit),
                    "{}",
                    m.name
                );
                assert_eq!(
                    entry.get("better").and_then(Json::as_str),
                    Some(m.better.label()),
                    "{}",
                    m.name
                );
                assert_eq!(
                    entry.get("bound").and_then(Json::as_f64),
                    m.bound,
                    "{}",
                    m.name
                );
            }
        }
        for (entry, w) in spec
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .zip(WORKLOADS)
        {
            assert_eq!(entry.get("why").and_then(Json::as_str), Some(w.why));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }
}
