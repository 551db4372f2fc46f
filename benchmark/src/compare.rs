//! `--compare A.json B.json`: judge result set B against baseline A.
//!
//! One row per (workload, metric). An end-to-end metric is `regressed`
//! when B's median is worse than A's by more than the metric's bound,
//! `unresolved` when the run-to-run spread is wider than the bound (so
//! the sets cannot tell), and `ok` otherwise. A failure share above the
//! baseline's is always a regression. Per-layer metrics have no bound:
//! they are listed with their change, and an exact count that differs is
//! marked `changed`. Only a regression makes the exit code non-zero.

use crate::json::Json;
use crate::metrics::{self, Better, Metric};
use crate::stats;

/// Relative tolerance for counts that must repeat exactly; the virtual
/// clock is a sum of floats whose order follows thread interleaving.
const EXACT_TOL: f64 = 1e-6;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
    Changed,
    Info,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
            Verdict::Changed => "changed",
            Verdict::Info => "",
        }
    }
}

/// (max − min) / median of one side's runs; 0 for a single run.
fn spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    let med = stats::median(&mut v);
    if med == 0.0 {
        return 0.0;
    }
    (v[v.len() - 1] - v[0]) / med.abs()
}

/// How much worse `b` is than `a`, as a share of `a`; negative = better.
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    let delta = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if a == 0.0 {
        if delta == 0.0 {
            0.0
        } else {
            delta.signum() * f64::INFINITY
        }
    } else {
        delta / a.abs()
    }
}

pub fn judge(metric: &Metric, a: &[f64], b: &[f64]) -> (Verdict, f64) {
    let (mut av, mut bv) = (a.to_vec(), b.to_vec());
    let worse = worsening(
        metric.better,
        stats::median(&mut av),
        stats::median(&mut bv),
    );
    let Some(bound) = metric.bound else {
        let verdict = if metric.exact && worse.abs() > EXACT_TOL {
            Verdict::Changed
        } else {
            Verdict::Info
        };
        return (verdict, worse);
    };
    // Sorted above: every run of one side against every run of the other.
    let (b_all_worse, b_all_better) = match metric.better {
        Better::Lower => (bv[0] > av[av.len() - 1], bv[bv.len() - 1] <= av[0]),
        Better::Higher => (bv[bv.len() - 1] < av[0], bv[0] >= av[av.len() - 1]),
    };
    let noisy = spread(a).max(spread(b)) > bound;
    let verdict = if worse > bound {
        if noisy && !b_all_worse {
            Verdict::Unresolved
        } else {
            Verdict::Regressed
        }
    } else if noisy && !b_all_better {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (verdict, worse)
}

fn numbers(j: Option<&Json>) -> Vec<f64> {
    j.and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Print the comparison; `Ok(true)` when nothing regressed.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let workloads = |j: &Json| {
        j.get("workloads")
            .and_then(Json::as_obj)
            .cloned()
            .ok_or("not a result set: no `workloads`")
    };
    let (wa, wb) = (workloads(&a)?, workloads(&b)?);
    let mut regressions = 0;
    println!(
        "{:<14} {:<28} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "change", "bound"
    );
    for (workload, ra) in &wa {
        let Some(rb) = wb.get(workload) else {
            println!("{workload:<14} missing from {path_b}: REGRESSED");
            regressions += 1;
            continue;
        };
        let share = |r: &Json| {
            let failed: f64 = numbers(r.get("failed")).iter().sum();
            let attempted: f64 = numbers(r.get("attempted")).iter().sum();
            failed / attempted.max(1.0)
        };
        let (fa, fb) = (share(ra), share(rb));
        let verdict = if fb > fa {
            regressions += 1;
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
        println!(
            "{workload:<14} {:<28} {fa:>14.6} {fb:>14.6} {:>9} {:>7}  {}",
            "failed_share",
            "",
            "0",
            verdict.label()
        );
        for metric in metrics::END_TO_END.iter().chain(metrics::PER_LAYER) {
            let values = |r: &Json| {
                numbers(
                    r.get("metrics")
                        .and_then(|m| m.get(metric.name))
                        .and_then(|m| m.get("values")),
                )
            };
            let (va, vb) = (values(ra), values(rb));
            if va.is_empty() || vb.is_empty() {
                if metric.bound.is_some() {
                    println!("{workload:<14} {:<28} missing: REGRESSED", metric.name);
                    regressions += 1;
                }
                continue;
            }
            let (verdict, worse) = judge(metric, &va, &vb);
            if verdict == Verdict::Regressed {
                regressions += 1;
            }
            let (mut sa, mut sb) = (va.clone(), vb.clone());
            println!(
                "{workload:<14} {:<28} {:>14.6} {:>14.6} {:>+8.1}% {:>7}  {}",
                metric.name,
                stats::median(&mut sa),
                stats::median(&mut sb),
                // Shown signed by direction: positive is worse.
                worse * 100.0,
                metric
                    .bound
                    .map_or(String::new(), |b| format!("{:.0}%", b * 100.0)),
                verdict.label()
            );
        }
    }
    println!(
        "{regressions} regression(s); `change` is signed by each metric's direction: positive is worse"
    );
    Ok(regressions == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(name: &str) -> &'static Metric {
        metrics::find(name).unwrap()
    }

    #[test]
    fn bounds_follow_each_metric_direction() {
        // throughput: higher is better, bound 15 %.
        let rps = m("throughput_rps");
        assert_eq!(judge(rps, &[100.0], &[90.0]).0, Verdict::Ok);
        assert_eq!(judge(rps, &[100.0], &[80.0]).0, Verdict::Regressed);
        assert_eq!(judge(rps, &[100.0], &[150.0]).0, Verdict::Ok);
        // latency: lower is better, bound 15 %.
        let p50 = m("latency_ms_p50");
        assert_eq!(judge(p50, &[10.0], &[12.0]).0, Verdict::Regressed);
        assert_eq!(judge(p50, &[10.0], &[11.0]).0, Verdict::Ok);
        assert_eq!(judge(p50, &[10.0], &[9.0]).0, Verdict::Ok);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let rps = m("throughput_rps");
        let noisy_a = [85.0, 100.0, 115.0];
        assert_eq!(
            judge(rps, &noisy_a, &[80.0, 84.0, 100.0]).0,
            Verdict::Unresolved
        );
        // … unless every run of B is on one side of every run of A.
        assert_eq!(
            judge(rps, &noisy_a, &[50.0, 55.0, 60.0]).0,
            Verdict::Regressed
        );
        assert_eq!(judge(rps, &noisy_a, &[120.0, 125.0, 130.0]).0, Verdict::Ok);
    }

    #[test]
    fn exact_counts_are_marked_when_they_differ() {
        assert_eq!(
            judge(m("vm.ops_per_req"), &[14000.0], &[14000.0]).0,
            Verdict::Info
        );
        assert_eq!(
            judge(m("vm.ops_per_req"), &[14000.0], &[14001.0]).0,
            Verdict::Changed
        );
        assert_eq!(
            judge(m("serve.rejected"), &[0.0], &[1.0]).0,
            Verdict::Changed
        );
        assert_eq!(judge(m("vm.run_ms"), &[1.0], &[2.0]).0, Verdict::Info);
    }
}
