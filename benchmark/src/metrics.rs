//! The metric registry: every name the benchmark reports, with its unit,
//! direction and — for end-to-end metrics — the bound by which it may
//! worsen before a change counts as a regression.
//!
//! `BENCHMARK.json` at the repository root repeats the names, units,
//! directions and bounds; a test in `main.rs` holds the two together.
//! What each metric means, and which end-to-end metric each layer metric
//! is expected to move on which workload, is in `README.md`.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median by which the metric may worsen.
    /// `None` for per-layer metrics, which explain and are not gated.
    pub bound: Option<f64>,
    /// A count that must repeat exactly between runs of one commit on one
    /// seed (`--compare` reports a difference as `changed`).
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound: None,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Measured with tracing off.
pub const END_TO_END: &[Metric] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("throughput_rps", "1/s", Higher, 0.15),
    e2e("latency_ms_p50", "ms", Lower, 0.15),
    e2e("latency_ms_p95", "ms", Lower, 0.24),
    e2e("cpu_ms_per_req", "ms", Lower, 0.24),
    e2e("peak_rss_mb", "MB", Lower, 0.12),
];

/// Single layers, from the traced run. Layer = crate name; `req.*` is the
/// harness's own request ledger.
pub const PER_LAYER: &[Metric] = &[
    // lang
    layer("lang.parse_us", "us", Lower),
    layer("lang.compile_us", "us", Lower),
    count("lang.kernel_src_bytes", "B"),
    count("lang.vm_ops_emitted", "count"),
    // analysis
    layer("analysis.gate_us", "us", Lower),
    layer("analysis.analyze_us", "us", Lower),
    layer("analysis.proofs_us", "us", Lower),
    count("analysis.diagnostics", "count"),
    // vm
    layer("vm.run_ms", "ms", Lower),
    layer("vm.run_floor_ms", "ms", Lower),
    layer("vm.interp_mops_per_s", "Mops/s", Higher),
    layer("vm.flatten_gbps", "GB/s", Higher),
    layer("vm.unflatten_gbps", "GB/s", Higher),
    layer("vm.deep_copy_gbps", "GB/s", Higher),
    layer("vm.over_core_ms", "ms", Lower),
    count("vm.ops_per_req", "count"),
    count("vm.dispatches_per_req", "count"),
    count("vm.bytes_up_per_req", "B"),
    count("vm.bytes_down_per_req", "B"),
    count("vm.virtual_ns_per_req", "vns"),
    // actors
    layer("actors.pingpong_us", "us", Lower),
    layer("actors.rendezvous_us", "us", Lower),
    layer("actors.copy_send_gbps", "GB/s", Higher),
    layer("actors.mov_send_us", "us", Lower),
    layer("actors.close_detect_us", "us", Lower),
    layer("actors.supervise_us", "us", Lower),
    layer("actors.recv_wait_ms_per_req", "ms", Lower),
    // core
    layer("core.flatten_gbps", "GB/s", Higher),
    layer("core.unflatten_gbps", "GB/s", Higher),
    layer("core.env_resolve_us", "us", Lower),
    layer("core.over_copencl_ms", "ms", Lower),
    // oclsim
    layer("oclsim.copencl_ms", "ms", Lower),
    layer("oclsim.build_us", "us", Lower),
    layer("oclsim.dispatch_cold_us", "us", Lower),
    layer("oclsim.dispatch_fixed_us", "us", Lower),
    layer("oclsim.upload_gbps", "GB/s", Higher),
    layer("oclsim.readback_gbps", "GB/s", Higher),
    layer("oclsim.fnv_gbps", "GB/s", Higher),
    layer("oclsim.kernel_ms_per_req", "ms", Lower),
    layer("oclsim.kernel_share", "ratio", Lower),
    layer("oclsim.native_mops_per_s", "Mops/s", Higher),
    layer("oclsim.register_mops_per_s", "Mops/s", Higher),
    layer("oclsim.stack_mops_per_s", "Mops/s", Higher),
    count("oclsim.kernel_ops_per_req", "count"),
    count("oclsim.engine_fallbacks", "count"),
    // serve
    layer("serve.session_build_us", "us", Lower),
    layer("serve.submit_over_solo_ms", "ms", Lower),
    layer("serve.latency_ms_p99", "ms", Lower),
    layer("serve.reject_us", "us", Lower),
    count("serve.completed", "count"),
    count("serve.rejected", "count"),
    count("serve.deadline_exceeded", "count"),
    count("serve.failed", "count"),
    count("serve.evictions", "count"),
    // trace
    layer("trace.record_ns", "ns", Lower),
    layer("trace.disabled_record_ns", "ns", Lower),
    count("trace.events_per_req", "count"),
    layer("trace.overhead_share", "ratio", Lower),
    // request ledger
    layer("req.compile_ms", "ms", Lower),
    layer("req.run_ms", "ms", Lower),
    layer("req.device_path_ms", "ms", Lower),
    layer("req.floor_ms", "ms", Lower),
    layer("req.unattributed_ms", "ms", Lower),
];

pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}
