//! Serving runner: open-loop load over the multi-tenant server.
//!
//! Three mixed-application workloads drive an [`ensemble_serve::Server`]
//! at roughly 2× its admission watermark, with seeded kill-chaos
//! attached to half the tenants:
//!
//! * **mixed-rr** — round-robin arbitration, generous wait queue, and a
//!   deliberately tight pool watermark so the LUD tenants' resident
//!   `mov` buffers get evicted and transparently re-uploaded under
//!   pressure.
//! * **weighted** — weighted arbitration with alternating 1×/3× weights
//!   over the same mix.
//! * **overload-deadline** — a tiny queue and short deadlines, so the
//!   tail of the arrival schedule terminates in `Rejected` /
//!   `DeadlineExceeded` rather than completing.
//!
//! Every chaos-free completion is compared byte-for-byte against a solo
//! reference run of the same program through a fresh single-tenant
//! server: output lines always, and in eviction-free workloads also the
//! `total_ns` bit pattern (an evicted tenant's lazy re-upload is
//! charged to its own profile, so its modeled time moves while its data
//! never does). Any divergence is a cross-tenant isolation failure;
//! the workspace's `tests/chaos.rs` asserts there is none.

use crate::apps_ens;
use crate::chaos::kill_plan;
use ensemble_serve::{
    latency_percentile, open_loop, ArbiterPolicy, Outcome, Request, ServeConfig, Server,
};
use std::sync::Arc;
use std::time::Duration;

/// One workload's aggregated results.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// Workload name (`mixed-rr`, `weighted`, `overload-deadline`).
    pub name: String,
    /// Requests that completed.
    pub completed: usize,
    /// 99th-percentile latency over every terminal outcome, milliseconds.
    pub p99_ms: f64,
    /// Chaos-free completions whose output or virtual clock diverged
    /// from their solo reference. Must be zero.
    pub clean_tenant_mismatches: usize,
}

/// The serving mix: three applications at smoke sizes, cycled over the
/// tenants. LUD is the `mov`-heavy one (its factor matrix stays
/// device-resident between kernel rounds), so it is what the pool
/// evicts under the tight `mixed-rr` watermark.
fn mixed_source(slot: usize) -> (&'static str, String) {
    match slot % 3 {
        0 => ("matmul", apps_ens::matmul(16, "GPU")),
        1 => ("reduction", apps_ens::reduction(1 << 10, "GPU")),
        _ => ("lud", apps_ens::lud(16, "GPU")),
    }
}

/// A solo reference: one request through a fresh single-tenant server
/// (same private-lane determinism, no neighbours, no chaos). Returns
/// `(output, total_ns bit pattern)`.
fn solo_reference(source: &str) -> Result<(Vec<String>, u64), String> {
    let server = Arc::new(Server::new(ServeConfig {
        max_active: 1,
        max_waiting: 1,
        ..ServeConfig::default()
    }));
    let report = server
        .submit(Request::new(0, source))
        .map_err(|e| format!("solo reference run failed: {e}"))?;
    Ok((report.output.clone(), report.total_ns().to_bits()))
}

/// Compare every chaos-free completion against its solo reference.
///
/// Outputs must always match byte-for-byte. The virtual clock
/// (`total_ns` bit pattern) is additionally gated when `strict_clock`
/// is set — i.e. in workloads without eviction pressure. Under a tight
/// watermark an evicted tenant's lazy re-upload is (correctly) charged
/// to its own profile, so its modeled time legitimately moves; its
/// data and outputs never do.
fn count_mismatches(
    outcomes: &[Outcome],
    refs: &[(Vec<String>, u64)],
    chaotic: &dyn Fn(u64) -> bool,
    strict_clock: bool,
) -> usize {
    outcomes
        .iter()
        .enumerate()
        .filter(|(i, o)| {
            if chaotic(o.tenant) {
                return false;
            }
            match &o.result {
                Ok(report) => {
                    let (ref_out, ref_ns) = &refs[i % refs.len()];
                    report.output != *ref_out
                        || (strict_clock && report.total_ns().to_bits() != *ref_ns)
                }
                Err(_) => false,
            }
        })
        .count()
}

/// Run one workload: `tenants` requests on an open-loop schedule against
/// a server admitting `config.max_active` at once.
#[allow(clippy::too_many_arguments)]
fn run_workload(
    name: &str,
    tenants: usize,
    seed: u64,
    config: ServeConfig,
    interval: Duration,
    deadline: Option<Duration>,
    weights: bool,
    chaos_in_odd: bool,
    strict_clock: bool,
    refs: &[(Vec<String>, u64)],
) -> WorkloadResult {
    let server = Arc::new(Server::new(config));
    let is_chaotic = move |tenant: u64| chaos_in_odd && tenant % 2 == 1;
    let requests: Vec<Request> = (0..tenants)
        .map(|i| {
            let (_, source) = mixed_source(i);
            let mut req = Request::new(i as u64, source);
            req.deadline = deadline;
            if weights {
                req.weight = if i % 2 == 0 { 1.0 } else { 3.0 };
            }
            if is_chaotic(i as u64) {
                // Same seeding discipline as `run_kill_chaos`:
                // per-tenant offset, period 17, at most 3 kills.
                req.chaos = Some(kill_plan(seed.wrapping_add(i as u64), 17, 3));
            }
            req
        })
        .collect();
    let outcomes = open_loop(&server, requests, interval);
    WorkloadResult {
        name: name.to_string(),
        completed: server.stats().completed as usize,
        p99_ms: latency_percentile(&outcomes, 99.0).as_secs_f64() * 1e3,
        clean_tenant_mismatches: count_mismatches(&outcomes, refs, &is_chaotic, strict_clock),
    }
}

/// Run the three serving workloads with `tenants` tenants each and the
/// given kill-chaos seed. The offered load is ≥2× the admission
/// watermark by construction (`max_active = tenants / 2`, open-loop
/// arrivals).
pub fn run_serve(tenants: usize, seed: u64) -> Result<Vec<WorkloadResult>, String> {
    let tenants = tenants.max(2);
    let refs: Vec<(Vec<String>, u64)> = (0..3)
        .map(|slot| solo_reference(&mixed_source(slot).1))
        .collect::<Result<_, _>>()?;
    let half = (tenants / 2).max(1);
    Ok(vec![
        run_workload(
            "mixed-rr",
            tenants,
            seed,
            ServeConfig {
                max_active: half,
                max_waiting: tenants,
                // Tight enough that LUD's resident factor matrices
                // (n×n f32) overflow it and force evictions.
                mem_watermark_bytes: 2 << 10,
                policy: ArbiterPolicy::RoundRobin,
                ..ServeConfig::default()
            },
            // Simultaneous arrivals: maximum overlap, so concurrent
            // tenants' allocations push past the tight watermark and
            // exercise eviction.
            Duration::ZERO,
            Some(Duration::from_secs(60)),
            false,
            true,
            // Eviction workload: outputs gated byte-for-byte, virtual
            // clocks exempt (re-uploads are charged to the victim).
            false,
            &refs,
        ),
        run_workload(
            "weighted",
            tenants,
            seed.wrapping_add(100),
            ServeConfig {
                max_active: half,
                max_waiting: tenants,
                policy: ArbiterPolicy::Weighted,
                ..ServeConfig::default()
            },
            Duration::from_millis(2),
            Some(Duration::from_secs(60)),
            true,
            true,
            true,
            &refs,
        ),
        run_workload(
            "overload-deadline",
            tenants,
            seed.wrapping_add(200),
            ServeConfig {
                max_active: 1,
                max_waiting: 1,
                policy: ArbiterPolicy::RoundRobin,
                ..ServeConfig::default()
            },
            Duration::from_millis(1),
            // Short enough that queued requests can miss it, long
            // enough that the head of the schedule completes.
            Some(Duration::from_millis(1500)),
            false,
            false,
            true,
            &refs,
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_sources_cycle_three_apps() {
        assert_eq!(mixed_source(0).0, "matmul");
        assert_eq!(mixed_source(1).0, "reduction");
        assert_eq!(mixed_source(2).0, "lud");
        assert_eq!(mixed_source(3).0, "matmul");
    }
}
