//! Proof-guided multi-device co-execution: split one kernel dispatch
//! across two device queues and merge completion on the virtual clock.
//!
//! The analysis crate proves per-kernel `SplitProof`s — which NDRange
//! dimensions can be cut into group-aligned pieces with no cross-piece
//! traffic (see `crates/analysis` and [`crate::NdRange::split`]). This
//! module *consumes* those proofs: [`co_enqueue`] cuts a dispatch once
//! along a proven-splittable dimension, at the group count that
//! minimises the predicted makespan of a *primary* and a *secondary*
//! device lane, and commits one composite kernel command whose cost is
//! the **makespan** over lanes plus the secondary's transfer charges —
//! the honest virtual-clock model of two devices working concurrently.
//!
//! Work always *executes* on the primary queue (window execution keeps
//! global ids, `get_global_size` and `get_num_groups` full-range, so
//! output bytes are identical to a single-device run — a hard gate in
//! the test suite); the secondary lane contributes its cost model and
//! its fault surface. A secondary that fails mid-split has its piece
//! rescued onto the primary, mirroring the failover story of the rest
//! of the stack.
//!
//! A VM co-executes under the [`CoexecConfig`] its host sets
//! (`VmRuntime::set_coexec`; off by default), and falls back to plain
//! single-device dispatch whenever the proof says reduction/blocked, the
//! range is under [`CoexecConfig::min_items`], or no second device
//! resolves.

use crate::device::Device;
use crate::error::ClResult;
use crate::event::Event;
use crate::minicl::all_groups;
use crate::ndrange::NdRange;
use crate::program::Kernel;
use crate::queue::{Admit, CommandQueue, Execution, Priced};

/// Per-run co-execution configuration; the default is single-device
/// dispatch with no batching.
#[derive(Debug, Clone, PartialEq)]
pub struct CoexecConfig {
    /// Split proven-splittable dispatches across two device lanes
    /// ([`co_enqueue`]).
    pub split: bool,
    /// Coalesce proven-fusable dispatch chains into batched submissions
    /// ([`CommandQueue::open_batch`]).
    pub batch: bool,
    /// Dispatches smaller than this many work-items are never split
    /// (the secondary's transfer latency would dominate).
    pub min_items: usize,
}

/// Maximum dispatches per batch session before it is closed and a fresh
/// one (with a fresh arbiter grant) is opened — bounds how long one
/// tenant's fused chain can hold a fairness slot.
pub const BATCH_CAP: usize = 64;

impl Default for CoexecConfig {
    fn default() -> CoexecConfig {
        CoexecConfig {
            split: false,
            batch: false,
            min_items: 2048,
        }
    }
}

/// Co-execute one dispatch across `primary` and `secondary` along
/// proven-splittable dimension `dim`.
///
/// The caller (the VM's dispatch seam) is responsible for the proof
/// gate: `dim` must carry a `Splittable` classification in the kernel's
/// `SplitProof`, and the fallback conditions (reduction/blocked proof,
/// range under the configured minimum, no second device) must route to
/// plain [`CommandQueue::enqueue_nd_range`] instead. Given that, this
/// function:
///
/// 1. runs the primary's command stage list once — one arbiter slot, one
///    Enqueue fault draw, the same validation, integrity and provenance
///    stages as an unsplit dispatch;
/// 2. runs the first group-slice along `dim` as a probe and, from its
///    observed op count and both cost models, picks the secondary's
///    slice count `k` with the smallest predicted makespan;
/// 3. executes every piece *functionally* on the primary queue via
///    window execution (full-range ids ⇒ byte-identical output), charging
///    the last `k` slices to the secondary's cost model;
/// 4. probes the secondary's fault surface once, before its piece; a
///    failure rescues the whole piece onto the primary (an injected
///    kill-panic still propagates);
/// 5. commits ONE composite kernel event whose duration is the makespan
///    over lanes — the secondary lane's span includes its input
///    transfers and its share of writable-buffer readback — and records
///    a [`trace::SpanKind::CoexecSplit`] instant with the per-lane
///    breakdown.
///
/// A range with fewer than two groups along `dim` has nothing to split:
/// it runs and is priced exactly like `enqueue_nd_range`, and records no
/// split. Returns the composite event, exactly like `enqueue_nd_range`.
pub fn co_enqueue(
    primary: &CommandQueue,
    secondary: &CommandQueue,
    kernel: &Kernel,
    nd: &NdRange,
    dim: usize,
) -> ClResult<Event> {
    primary.run_kernel(kernel, nd, Admit::Command, |ex| {
        split(ex, primary.device(), secondary, nd, dim)
    })
}

/// The execute and price stages of [`co_enqueue`]: cut `nd` along `dim`
/// between the `primary` device's lane and `secondary`'s, and price the
/// lanes' makespan.
fn split(
    ex: &mut Execution<'_>,
    primary: &Device,
    secondary: &CommandQueue,
    nd: &NdRange,
    dim: usize,
) -> ClResult<Priced> {
    let local = nd.local[dim].max(1);
    let groups = nd.global[dim] / local;
    if groups < 2 {
        return ex.whole(0.0);
    }

    let plan = ex.plan;
    let devs = [primary, secondary.device()];
    let items_per_group = nd.group_size();
    let sec_model = devs[1].cost_model();
    // Every input buffer must reach the secondary before it can start.
    let t_in_secondary: f64 = plan
        .pooled
        .iter()
        .map(|b| sec_model.transfer_ns(b.len()))
        .sum();

    // Deterministic micro-profile: run the first group-slice along `dim`
    // on the primary (its results are needed regardless) and observe the
    // per-group op count; each device's per-group cost then comes
    // straight from its cost model. Deriving the cut from observed ops
    // rather than raw lane counts is what keeps it honest about
    // per-group schedule overhead, which dominates for small groups.
    let mut window = all_groups(nd.global, nd.local);
    window[dim] = 0..1;
    let mut primary_ops = ex.run(window.clone())?;
    let probe_ops = if primary_ops.is_empty() {
        0.0
    } else {
        primary_ops.iter().sum::<u64>() as f64 / primary_ops.len() as f64
    };
    // One unit along the split dimension is one *slice* — every group
    // whose `dim`-coordinate matches. The probe ran slice 0, so its
    // group count is the real groups per slice, and the probe average
    // prices one group on each device's cost model.
    let probe_groups = primary_ops.len();
    let groups_per_slice = probe_groups.max(1);
    let per_group: [f64; 2] = std::array::from_fn(|i| {
        let m = devs[i].cost_model();
        m.kernel_ns(
            &[probe_ops.round().max(0.0) as u64],
            items_per_group,
            devs[i].compute_units(),
            devs[i].simd_width(),
        ) - m.launch_overhead_ns
    });

    // The cut: scan every group-aligned slice count `k` for the
    // secondary and keep the one whose predicted makespan — probe ops
    // priced by each cost model, plus the secondary's transfer charges —
    // is smallest (the first on a tie; `k = 0` keeps the whole range on
    // the primary).
    let t_out = |k: usize| -> f64 {
        plan.pooled
            .iter()
            .zip(plan.read_only.iter())
            .filter(|(_, ro)| !**ro)
            .map(|(b, _)| sec_model.transfer_ns(b.len() * k / groups))
            .sum()
    };
    let lane_time = |i: usize, slices: usize| -> f64 {
        if slices == 0 {
            return 0.0;
        }
        let real = (slices * groups_per_slice) as f64;
        devs[i].cost_model().launch_overhead_ns
            + per_group[i].max(real * per_group[i] / devs[i].compute_units().max(1) as f64)
    };
    let mut best = (0usize, f64::INFINITY);
    for k in 0..groups {
        let p = lane_time(0, groups - k);
        let s = if k == 0 {
            0.0
        } else {
            t_in_secondary + lane_time(1, k) + t_out(k)
        };
        let makespan = p.max(s);
        if makespan < best.1 {
            best = (k, makespan);
        }
    }
    let cut = groups - best.0;

    // The primary's piece follows its probe slice; the secondary's is
    // the range's tail.
    if cut > 1 {
        window[dim] = 1..cut;
        primary_ops.extend(ex.run(window.clone())?);
    }
    let mut secondary_ops = Vec::new();
    let mut rescued = 0;
    if cut < groups {
        window[dim] = cut..groups;
        // The secondary's own fault surface gates its piece: a lost
        // device reroutes the piece to the survivor (the functional
        // result is unaffected — windows run on the primary — only the
        // cost attribution moves).
        if ex.lane_alive(secondary) {
            secondary_ops = ex.run(window)?;
        } else {
            rescued = groups - cut;
            primary_ops.extend(ex.run(window)?);
        }
    }
    let primary_groups = cut + rescued;
    let secondary_groups = groups - primary_groups;
    // Conservation: the probe, primary and secondary pieces ran every
    // group of the range exactly once between them.
    debug_assert_eq!(
        primary_ops.len() + secondary_ops.len(),
        groups * probe_groups,
        "the pieces must run all {groups} slices along dimension {dim}"
    );

    // Per-lane spans: input transfers + pooled compute (+ the secondary
    // lane's share of writable-buffer readback). The composite cost is
    // the makespan — both lanes run concurrently on the virtual clock.
    // Back-to-back pieces on one in-order queue pipeline, so a lane's
    // compute is `kernel_ns` over the union of its pieces' groups.
    let compute_ns = |i: usize, ops: &[u64]| -> f64 {
        if ops.is_empty() {
            return 0.0;
        }
        devs[i].cost_model().kernel_ns(
            ops,
            items_per_group,
            devs[i].compute_units(),
            devs[i].simd_width(),
        )
    };
    let primary_ns = compute_ns(0, &primary_ops);
    let mut secondary_ns = 0.0;
    if cut < groups {
        // A rescued lane still paid for its input transfers.
        secondary_ns = t_in_secondary + compute_ns(1, &secondary_ops);
        if secondary_groups > 0 {
            for (buf, ro) in plan.pooled.iter().zip(&plan.read_only) {
                if !*ro {
                    secondary_ns += sec_model.transfer_ns(buf.len() * secondary_groups / groups);
                }
            }
        }
    }
    Ok(Priced {
        cost_ns: primary_ns.max(secondary_ns),
        split: vec![
            ("dim", dim.to_string()),
            ("groups", groups.to_string()),
            ("primary_groups", primary_groups.to_string()),
            ("secondary_groups", secondary_groups.to_string()),
            ("primary_ns", format!("{primary_ns}")),
            ("secondary_ns", format!("{secondary_ns}")),
            ("secondary_device", devs[1].name().to_string()),
            ("rescued_groups", rescued.to_string()),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::MemFlags;
    use crate::context::Context;
    use crate::device::DeviceType;
    use crate::fault::{FaultInjector, FaultPlan, FaultOp, InjectedFault};
    use crate::platform::Platform;
    use crate::program::Program;
    use trace::SpanKind;

    const SRC: &str = "__kernel void scale(__global float* a, __global const float* b) {
        int i = get_global_id(0);
        int n = get_global_size(0);
        a[i] = a[i] * b[i % 16] + (float)n;
    }";

    fn gpu_setup() -> (Context, CommandQueue, CommandQueue) {
        let gpu = Platform::default_device(DeviceType::Gpu).unwrap();
        let cpu = Platform::default_device(DeviceType::Cpu).unwrap();
        let ctx = Context::new(std::slice::from_ref(&gpu)).unwrap();
        let primary = CommandQueue::new(&ctx, &gpu).unwrap();
        // The secondary queue needs its own context (different device);
        // only its cost model and fault surface are consulted.
        let cpu_ctx = Context::new(std::slice::from_ref(&cpu)).unwrap();
        let secondary = CommandQueue::new(&cpu_ctx, &cpu).unwrap();
        (ctx, primary, secondary)
    }

    /// One `scale` dispatch over `n` items at local size 16: the values
    /// `a` ends with, the kernel event and the primary's trace. `None`
    /// runs it plain on the GPU; `Some(kill)` co-executes it with the CPU
    /// as secondary, lost on its first probe if `kill`.
    fn run_scale(n: usize, coexec: Option<bool>) -> (Vec<f32>, Event, Vec<trace::TraceEvent>) {
        let (ctx, q, sec) = gpu_setup();
        let sink = trace::TraceSink::new();
        q.attach_trace(sink.clone());
        if coexec == Some(true) {
            let inj = FaultInjector::new(FaultPlan::new().fail(
                FaultOp::Enqueue,
                0,
                InjectedFault::DeviceLost,
            ));
            sec.context().attach_faults(inj);
        }
        let program = Program::build(&ctx, SRC).unwrap();
        let k = program.create_kernel("scale").unwrap();
        let a = ctx.create_buffer(MemFlags::ReadWrite, n * 4).unwrap();
        let b = ctx.create_buffer(MemFlags::ReadOnly, 16 * 4).unwrap();
        q.write_f32(&a, &(0..n).map(|i| i as f32).collect::<Vec<_>>())
            .unwrap();
        q.write_f32(&b, &(0..16).map(|i| 1.0 + i as f32 / 16.0).collect::<Vec<_>>())
            .unwrap();
        k.set_arg_buffer(0, &a).unwrap();
        k.set_arg_buffer(1, &b).unwrap();
        let nd = NdRange::d1(n, 16);
        let ev = match coexec {
            None => q.enqueue_nd_range(&k, &nd),
            Some(_) => co_enqueue(&q, &sec, &k, &nd, 0),
        }
        .unwrap();
        let (vals, _) = q.read_f32(&a).unwrap();
        (vals, ev, sink.events())
    }

    fn run_reference(n: usize) -> (Vec<f32>, f64) {
        let (vals, ev, _) = run_scale(n, None);
        (vals, ev.duration_ns())
    }

    fn run_coexec(n: usize, kill_secondary: bool) -> (Vec<f32>, f64, Vec<trace::TraceEvent>) {
        let (vals, ev, events) = run_scale(n, Some(kill_secondary));
        (vals, ev.duration_ns(), events)
    }

    /// A numeric argument of the run's one `CoexecSplit` instant.
    fn split_arg(events: &[trace::TraceEvent], key: &str) -> usize {
        events
            .iter()
            .find(|e| e.kind == SpanKind::CoexecSplit)
            .expect("CoexecSplit instant")
            .args
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.parse().unwrap())
            .unwrap()
    }

    #[test]
    fn a_split_matches_single_device_output() {
        let (reference, _) = run_reference(4096);
        let (vals, _, events) = run_coexec(4096, false);
        assert_eq!(vals, reference, "co-executed output differs");
        // Both lanes took work on a 256-group range.
        for key in ["primary_groups", "secondary_groups"] {
            assert!(split_arg(&events, key) > 0, "{key} assigned no groups");
        }
    }

    #[test]
    fn coexec_clock_is_deterministic_across_runs() {
        let (_, t1, _) = run_coexec(4096, false);
        let (_, t2, _) = run_coexec(4096, false);
        assert_eq!(t1.to_bits(), t2.to_bits());
    }

    #[test]
    fn a_split_retires_the_ops_and_items_of_the_unsplit_dispatch() {
        let (_, whole, _) = run_scale(4096, None);
        for kill_secondary in [false, true] {
            let (_, split, _) = run_scale(4096, Some(kill_secondary));
            assert_eq!(split.ops(), whole.ops(), "ops, secondary lost: {kill_secondary}");
            assert_eq!(split.items(), whole.items(), "items, secondary lost: {kill_secondary}");
        }
    }

    #[test]
    fn lost_secondary_rescues_groups_onto_primary() {
        let (reference, _) = run_reference(4096);
        let (_, _, clean) = run_coexec(4096, false);
        let (vals, _, events) = run_coexec(4096, true);
        assert_eq!(vals, reference, "rescued run must stay byte-identical");
        // The static cut hands the secondary one piece: it is rescued whole.
        assert_eq!(
            split_arg(&events, "rescued_groups"),
            split_arg(&clean, "secondary_groups"),
            "the lost piece must be rescued whole"
        );
        assert_eq!(split_arg(&events, "secondary_groups"), 0, "dead lane must keep no groups");
        assert_eq!(split_arg(&events, "primary_groups"), split_arg(&events, "groups"));
    }

    #[test]
    fn large_ranges_beat_single_device_small_ones_do_not() {
        // The crossover: at 64 Ki items the split pays for the
        // secondary's transfers; at 256 items it cannot.
        let (_, single_large) = run_reference(65536);
        let (_, co_large, _) = run_coexec(65536, false);
        assert!(
            co_large < single_large,
            "co-exec {co_large} !< single {single_large} at 64Ki"
        );
        // Below the crossover the split buys nothing: the primary's
        // launch overhead and longest group still bound the makespan.
        let (_, single_small) = run_reference(256);
        let (_, co_small, _) = run_coexec(256, false);
        assert!(
            co_small >= single_small,
            "co-exec {co_small} must not beat single {single_small} at 256 items"
        );
    }

    #[test]
    fn an_unsplittable_range_draws_one_fault_like_a_plain_dispatch() {
        let (ctx, q, sec) = gpu_setup();
        q.context().attach_faults(FaultInjector::new(FaultPlan::new().fail(
            FaultOp::Enqueue,
            1,
            InjectedFault::DeviceLost,
        )));
        let program = Program::build(&ctx, SRC).unwrap();
        let k = program.create_kernel("scale").unwrap();
        let a = ctx.create_buffer(MemFlags::ReadWrite, 16 * 4).unwrap();
        let b = ctx.create_buffer(MemFlags::ReadOnly, 16 * 4).unwrap();
        k.set_arg_buffer(0, &a).unwrap();
        k.set_arg_buffer(1, &b).unwrap();
        let nd = NdRange::d1(16, 16);
        // One group: nothing to split, one Enqueue fault-op (index 0).
        co_enqueue(&q, &sec, &k, &nd, 0).unwrap();
        // The next dispatch draws index 1, the scheduled loss.
        let err = q.enqueue_nd_range(&k, &nd).unwrap_err();
        assert!(matches!(err, crate::ClError::DeviceLost { .. }), "{err}");
    }
}
