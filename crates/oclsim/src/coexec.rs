//! Proof-guided multi-device co-execution: split one kernel dispatch
//! across two device queues and merge completion on the virtual clock.
//!
//! The analysis crate proves per-kernel `SplitProof`s — which NDRange
//! dimensions can be cut into group-aligned pieces with no cross-piece
//! traffic (see `crates/analysis` and [`crate::NdRange::split`]). This
//! module *consumes* those proofs: [`co_enqueue`] partitions a dispatch
//! along a proven-splittable dimension, assigns group chunks to a
//! *primary* and a *secondary* device lane under a pluggable
//! [`CoexecPolicy`] (EngineCL's static / dynamic-chunked / guided
//! trio), and commits one composite kernel command whose cost is the
//! **makespan** over lanes plus the secondary's transfer charges — the
//! honest virtual-clock model of two devices working concurrently.
//!
//! Work always *executes* on the primary queue (window execution keeps
//! global ids, `get_global_size` and `get_num_groups` full-range, so
//! output bytes are identical to a single-device run — a hard gate in
//! the test suite); the secondary lane contributes its cost model and
//! its fault surface. A secondary that fails mid-split has its groups
//! rescued onto the primary, mirroring the failover story of the rest
//! of the stack.
//!
//! Policy selection is per-run: a VM co-executes under the
//! [`CoexecConfig`] its host sets (`VmRuntime::set_coexec`; off by
//! default), and falls back to plain single-device dispatch whenever the
//! proof says reduction/blocked, the range is under
//! [`CoexecConfig::min_items`], or no second device resolves.

use crate::device::Device;
use crate::error::ClResult;
use crate::event::Event;
use crate::minicl::all_groups;
use crate::ndrange::NdRange;
use crate::program::Kernel;
use crate::queue::{Admit, CommandQueue, Execution, Priced};

/// Which load-balancing policy a run co-executes under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// One cut, proportional to the device cost models' throughput
    /// ratio ([`NdRange::split_weighted`]). No runtime feedback.
    Static,
    /// Fixed-size chunk queue; the lane estimated to finish earliest
    /// pulls the next chunk.
    ChunkedDynamic,
    /// EngineCL-style guided chunks: each chunk is half the remaining
    /// work scaled by the lane's share, re-estimated from *observed*
    /// per-group costs — shrinking chunks that absorb load imbalance.
    Guided,
}

impl PolicyKind {
    /// Stable lowercase name (CLI / JSON spelling).
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::Static => "static",
            PolicyKind::ChunkedDynamic => "chunked",
            PolicyKind::Guided => "guided",
        }
    }

    /// Instantiate the policy object for one dispatch.
    pub fn make(self, cfg: &CoexecConfig) -> Box<dyn CoexecPolicy> {
        match self {
            PolicyKind::Static => Box::new(StaticSplit::default()),
            PolicyKind::ChunkedDynamic => Box::new(ChunkedDynamic {
                chunk_groups: cfg.chunk_groups.max(1),
            }),
            PolicyKind::Guided => Box::new(Guided::default()),
        }
    }
}

/// Per-run co-execution configuration; the default is single-device
/// dispatch with no batching.
#[derive(Debug, Clone, PartialEq)]
pub struct CoexecConfig {
    /// Split policy, or `None` for single-device dispatch.
    pub policy: Option<PolicyKind>,
    /// Coalesce proven-fusable dispatch chains into batched submissions
    /// ([`CommandQueue::open_batch`]).
    pub batch: bool,
    /// Dispatches smaller than this many work-items are never split
    /// (the secondary's transfer latency would dominate).
    pub min_items: usize,
    /// Chunk size, in work-groups, for [`PolicyKind::ChunkedDynamic`].
    pub chunk_groups: usize,
    /// Maximum dispatches per batch session before it is closed and a
    /// fresh one (with a fresh arbiter grant) is opened — bounds how
    /// long one tenant's fused chain can hold a fairness slot.
    pub batch_cap: usize,
}

impl Default for CoexecConfig {
    fn default() -> CoexecConfig {
        CoexecConfig {
            policy: None,
            batch: false,
            min_items: 2048,
            chunk_groups: 8,
            batch_cap: 64,
        }
    }
}

/// One device lane's scheduler-visible state, handed to
/// [`CoexecPolicy::next_chunk`] before every assignment.
#[derive(Debug, Clone, Copy)]
pub struct LaneView {
    /// Estimated virtual completion time of the work assigned to this
    /// lane so far — model-derived for untouched lanes, *observed*
    /// (actual per-group op counts, including transfer charges) for
    /// lanes that have run chunks.
    pub finish_ns: f64,
    /// The lane's fraction of combined device throughput, from the cost
    /// models (`compute_units × occupied_lanes × efficiency / ns_per_op`).
    pub share: f64,
    /// Predicted marginal cost, in virtual ns, of assigning this lane
    /// one more unit along the split dimension (one group-slice): the
    /// *average* marginal over all remaining slices, computed so that
    /// `finish_ns + remaining × unit_ns` equals the lane's exact
    /// cost-model prediction for draining everything that is left.
    /// Averaging matters because `kernel_ns` takes a max of
    /// longest-group and aggregate-throughput terms: a lane below its
    /// saturation point has near-zero true marginal cost, which a
    /// single-slice linearization would miss. Chunk policies weigh
    /// `finish_ns + take × unit_ns` so a chunk is never handed to a
    /// lane that would finish *later* with it.
    pub unit_ns: f64,
    /// Pessimistic marginal cost of one more slice: like `unit_ns` but
    /// priced at the *maximum* observed per-group op count rather than
    /// the mean. Group costs can be heavily skewed (Mandelbrot interior
    /// groups run the full iteration budget while edge groups escape
    /// almost immediately), and a helper lane that commits to a chunk
    /// priced at the mean can blow the makespan when the chunk lands on
    /// expensive slices. Policies use this for the *pulling* side of
    /// the straggler guard; the absorb side keeps the mean-based drain
    /// estimate. For uniform kernels max ≈ mean and the two agree.
    pub unit_hi_ns: f64,
}

/// A co-execution load-balancing policy: decides, chunk by chunk, which
/// lane takes how many work-groups. Implementations are per-dispatch
/// (freshly made via [`PolicyKind::make`]) and deterministic.
pub trait CoexecPolicy: Send {
    /// Stable lowercase policy name, recorded in the `CoexecSplit`
    /// trace instant.
    fn label(&self) -> &'static str;

    /// A one-shot weighted partition, if this policy splits statically:
    /// the scheduler hands the returned weights to
    /// [`NdRange::split_weighted`] and skips the chunk loop. `None`
    /// (the default) means chunked assignment via
    /// [`CoexecPolicy::next_chunk`].
    fn static_weights(&self, _lanes: &[LaneView; 2]) -> Option<[f64; 2]> {
        None
    }

    /// Assign the next chunk: `(lane index, group count)` given
    /// `remaining` unassigned groups along the split dimension. The
    /// scheduler clamps the count to `1..=remaining`.
    fn next_chunk(&mut self, remaining: usize, lanes: &[LaneView; 2]) -> (usize, usize);
}

/// [`PolicyKind::Static`]: profile-ratio split from the device cost
/// models, one contiguous piece per lane.
#[derive(Debug, Default)]
pub struct StaticSplit {
    turn: usize,
}

impl CoexecPolicy for StaticSplit {
    fn label(&self) -> &'static str {
        "static"
    }

    fn static_weights(&self, lanes: &[LaneView; 2]) -> Option<[f64; 2]> {
        Some([lanes[0].share, lanes[1].share])
    }

    fn next_chunk(&mut self, remaining: usize, lanes: &[LaneView; 2]) -> (usize, usize) {
        // Fallback shape if a scheduler ignores `static_weights`: lane 0
        // takes its proportional share in one piece, lane 1 the rest.
        let turn = self.turn;
        self.turn += 1;
        if turn == 0 {
            (0, ((remaining as f64 * lanes[0].share).round() as usize).max(1))
        } else {
            (1, remaining)
        }
    }
}

/// [`PolicyKind::ChunkedDynamic`]: fixed-size chunks pulled by the lane
/// estimated to finish earliest.
#[derive(Debug)]
pub struct ChunkedDynamic {
    /// Groups per chunk.
    pub chunk_groups: usize,
}

impl CoexecPolicy for ChunkedDynamic {
    fn label(&self) -> &'static str {
        "chunked"
    }

    fn next_chunk(&mut self, remaining: usize, lanes: &[LaneView; 2]) -> (usize, usize) {
        let take = self.chunk_groups.min(remaining);
        // Straggler guard: the secondary pulls a chunk only when it
        // would finish that chunk before the primary could absorb the
        // *entire* remaining range — a slow helper that outlives the
        // fast lane extends the makespan instead of shrinking it. The
        // helper's chunk is priced pessimistically (`unit_hi_ns`): a
        // grab that lands on expensive slices must still pay off.
        let absorb = lanes[0].finish_ns + remaining as f64 * lanes[0].unit_ns;
        let helper = lanes[1].finish_ns + take as f64 * lanes[1].unit_hi_ns;
        (usize::from(helper < absorb), take)
    }
}

/// [`PolicyKind::Guided`]: shrinking chunks — half the remaining work
/// scaled by the pulling lane's throughput share — assigned to the
/// earliest-finishing lane, whose finish estimate is *observed*, not
/// modeled. Imbalanced group costs (Mandelbrot's interior rows) shift
/// later chunks toward whichever lane the work actually favours.
#[derive(Debug)]
pub struct Guided {
    /// Cap on the secondary's next grab, doubling after each pull.
    /// Cost estimates before the secondary has run anything come from a
    /// single probe slice, which can be unrepresentative (Mandelbrot's
    /// fast-escape top rows); capping the first grab at one slice keeps
    /// a mispriced commitment cheap, and by the time the cap stops
    /// binding the pooled observations have corrected the estimates.
    sec_cap: usize,
}

impl Default for Guided {
    fn default() -> Self {
        Guided { sec_cap: 1 }
    }
}

impl CoexecPolicy for Guided {
    fn label(&self) -> &'static str {
        "guided"
    }

    fn next_chunk(&mut self, remaining: usize, lanes: &[LaneView; 2]) -> (usize, usize) {
        // Chunks are half the pulling lane's remaining fair share —
        // shrinking as the range drains, EngineCL-style — under the
        // same straggler guard as the chunked policy: the secondary
        // helps only while its chunk completion beats the primary
        // absorbing everything that is left.
        let rem = remaining as f64;
        let chunk = |l: &LaneView| ((rem * l.share / 2.0).round() as usize).clamp(1, remaining);
        let take1 = chunk(&lanes[1]).min(self.sec_cap);
        let absorb = lanes[0].finish_ns + rem * lanes[0].unit_ns;
        let helper = lanes[1].finish_ns + take1 as f64 * lanes[1].unit_hi_ns;
        if helper < absorb {
            self.sec_cap *= 2;
            (1, take1)
        } else {
            (0, chunk(&lanes[0]))
        }
    }
}

/// A lane's accumulating dispatch state inside [`co_enqueue`].
struct LaneState {
    /// Observed per-group op counts of every chunk this lane ran,
    /// pooled: back-to-back chunks on one in-order queue pipeline, so
    /// the lane's compute time is `kernel_ns` over the union (one
    /// launch overhead, waves packed across chunk boundaries).
    group_ops: Vec<u64>,
    /// Fixed input-transfer charge, committed when the lane first takes
    /// work (0 for the primary — its data is already resident).
    t_in_ns: f64,
    /// Whether the lane ever took an assignment (transfers happened).
    touched: bool,
    /// Lane lost mid-split; all further work reroutes to the survivor.
    dead: bool,
    /// Groups this lane was charged for.
    groups: usize,
}

/// Relative throughput share of each device lane for groups of
/// `items_per_group` work-items averaging `ops_per_group` simulated ops,
/// straight from the device cost models: a device retires one group in
/// `ceil(ops / occupied_lanes) × ns_per_op / efficiency +
/// group_schedule_ns` and keeps `compute_units` groups in flight, so its
/// throughput is `compute_units / per_group_ns`. This is the "profile
/// ratio" the static policy cuts by and the guided policy's seed;
/// [`co_enqueue`] feeds it the op count observed on a probe group.
pub fn model_shares(
    primary: &Device,
    secondary: &Device,
    items_per_group: usize,
    ops_per_group: f64,
) -> [f64; 2] {
    let per_group = |d: &Device| {
        let m = d.cost_model();
        let lanes = d.simd_width().min(items_per_group.max(1)) as f64;
        (ops_per_group / lanes).ceil() * m.ns_per_op / m.efficiency + m.group_schedule_ns
    };
    let tp = |d: &Device| d.compute_units() as f64 / per_group(d).max(1e-9);
    let (a, b) = (tp(primary), tp(secondary));
    [a / (a + b), b / (a + b)]
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
/// 2. lets `policy` assign group chunks along `dim` — executing every
///    chunk *functionally* on the primary queue via window execution
///    (full-range ids ⇒ byte-identical output), while charging chunks
///    assigned to the secondary lane to *its* cost model;
/// 3. probes the secondary's fault surface once per chunk it takes; any
///    failure marks the lane dead and rescues its remaining groups onto
///    the primary (an injected kill-panic still propagates);
/// 4. commits ONE composite kernel event whose duration is the makespan
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
    policy: &mut dyn CoexecPolicy,
) -> ClResult<Event> {
    primary.run_kernel(kernel, nd, Admit::Command, |ex| {
        split(ex, primary.device(), secondary, nd, dim, policy)
    })
}

/// The execute and price stages of [`co_enqueue`]: deal group chunks of
/// `nd` along `dim` to the `primary` device's lane and `secondary`'s, and
/// price the lanes' makespan.
fn split(
    ex: &mut Execution<'_>,
    primary: &Device,
    secondary: &CommandQueue,
    nd: &NdRange,
    dim: usize,
    policy: &mut dyn CoexecPolicy,
) -> ClResult<Priced> {
    let local = nd.local[dim].max(1);
    let groups = nd.global[dim] / local;
    if groups < 2 {
        return ex.whole(0.0);
    }

    let plan = ex.plan;
    let devs = [primary, secondary.device()];
    let items_per_group = nd.group_size();
    let sec_model = devs[1].cost_model().clone();
    // Every input buffer must reach the secondary before it can start.
    let t_in_secondary: f64 = plan
        .pooled
        .iter()
        .map(|b| sec_model.transfer_ns(b.len()))
        .sum();
    let new_lane = |t_in_ns| LaneState {
        group_ops: Vec::new(),
        t_in_ns,
        touched: false,
        dead: false,
        groups: 0,
    };
    let mut lanes = [new_lane(0.0), new_lane(t_in_secondary)];

    // Deterministic micro-profile: run the first group-slice along `dim`
    // on the primary (its results are needed regardless) and observe the
    // per-group op count; each device's per-group cost — and from it the
    // profile ratio — then comes straight from its cost model. Deriving
    // the ratio from observed ops rather than raw lane counts is what
    // keeps the static cut honest about per-group schedule overhead,
    // which dominates for small groups.
    let mut probe_window = all_groups(nd.global, nd.local);
    probe_window[dim] = 0..1;
    let probe = ex.run(probe_window)?;
    let probe_ops = if probe.is_empty() {
        0.0
    } else {
        probe.iter().sum::<u64>() as f64 / probe.len() as f64
    };
    let shares = model_shares(devs[0], devs[1], items_per_group, probe_ops);
    // One unit along the split dimension is one *slice* — every group
    // whose `dim`-coordinate matches. The probe ran slice 0, so its
    // group count is the real groups per slice, and the probe average
    // prices one group on each device's cost model.
    let groups_per_slice = probe.len().max(1);
    let group_cost = |i: usize, ops: f64| -> f64 {
        let m = devs[i].cost_model();
        m.kernel_ns(
            &[ops.round().max(0.0) as u64],
            items_per_group,
            devs[i].compute_units(),
            devs[i].simd_width(),
        ) - m.launch_overhead_ns
    };
    let per_group: [f64; 2] = std::array::from_fn(|i| group_cost(i, probe_ops));
    lanes[0].group_ops = probe;
    lanes[0].groups = 1;
    let next_group = 1usize;

    let views = |lanes: &[LaneState; 2], remaining: usize| -> [LaneView; 2] {
        // Re-price from the *observed* ops across everything run so
        // far, not just the probe slice. A biased probe (mandelbrot's
        // fast-escape top rows) would otherwise poison every chunk
        // decision; pooling both lanes' observed groups lets the
        // estimates self-correct as the run progresses.
        let (sum, max, cnt) = lanes.iter().fold((0u64, 0u64, 0usize), |(s, m, c), l| {
            (
                s + l.group_ops.iter().sum::<u64>(),
                m.max(l.group_ops.iter().copied().max().unwrap_or(0)),
                c + l.group_ops.len(),
            )
        });
        let avg_ops = if cnt == 0 {
            probe_ops
        } else {
            sum as f64 / cnt as f64
        };
        let max_ops = if cnt == 0 { probe_ops } else { max as f64 };
        std::array::from_fn(|i| {
            let lane = &lanes[i];
            // A lane's finish always includes its input-transfer charge:
            // even before it takes anything, the transfers are the price
            // of *starting* it, and earliest-completion policies must
            // see that price.
            let lane_ns = |extra_slices: usize, fill_ops: f64| -> f64 {
                let mut pooled = lane.group_ops.clone();
                pooled.resize(
                    pooled.len() + extra_slices * groups_per_slice,
                    fill_ops.round().max(0.0) as u64,
                );
                let mut t = lane.t_in_ns;
                if !pooled.is_empty() {
                    t += devs[i].cost_model().kernel_ns(
                        &pooled,
                        items_per_group,
                        devs[i].compute_units(),
                        devs[i].simd_width(),
                    );
                }
                t
            };
            let finish = lane_ns(0, 0.0);
            // Average marginal over the remaining slices, so that
            // `finish + remaining × unit` is the lane's *exact*
            // drain-everything prediction (kernel_ns saturates — a
            // per-slice linearization would overprice an unsaturated
            // lane's marginal cost).
            let marginal = |fill_ops: f64| {
                if remaining > 0 {
                    (lane_ns(remaining, fill_ops) - finish) / remaining as f64
                } else {
                    0.0
                }
            };
            LaneView {
                finish_ns: if lane.dead { f64::INFINITY } else { finish },
                share: shares[i],
                unit_ns: marginal(avg_ops),
                unit_hi_ns: marginal(max_ops),
            }
        })
    };

    // Static policies cut once, up front; chunked policies are queried
    // per chunk. The policy's weights are advisory (a throughput
    // ratio): rounding them to whole slices can over-allocate the
    // slower lane by most of a slice — a large error when slices are
    // coarse (2D ranges split along one dimension). So the scheduler
    // refines the cut: scan every group-aligned split count for the
    // secondary and keep the one whose predicted makespan — probe ops
    // priced by each cost model, plus the secondary's transfer
    // charges — is smallest. The partition covers groups 0..groups, so
    // the first piece is shaved by one for the already-run probe slice.
    let mut is_static = false;
    let mut static_plan = std::collections::VecDeque::new();
    if policy.static_weights(&views(&lanes, groups - next_group)).is_some() {
        is_static = true;
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
        let w = [(groups - best.0) as f64, best.0 as f64];
        let mut first = true;
        for (lane, piece) in nd.split_weighted(dim, &w)? {
            let mut take = piece.range.global[dim] / local;
            if first && lane == 0 {
                take -= 1;
                first = false;
            }
            if take > 0 {
                static_plan.push_back((lane, take));
            }
        }
    }

    // Two-ended dealing: the primary drains slices from the front, the
    // secondary steals from the back. When slice costs vary smoothly
    // along the split dimension (Mandelbrot's cheap edge rows bracket
    // an expensive interior), the helper's grabs start on the slices a
    // min-makespan static cut would hand it anyway, and a mispriced
    // extra grab lands on the next-cheapest slice, not an interior one.
    let mut rescued = 0usize;
    let mut lo = next_group;
    let mut hi = groups;
    while lo < hi {
        let remaining = hi - lo;
        let (mut lane, take) = match static_plan.pop_front() {
            Some(c) => c,
            None if is_static => (0, remaining),
            None => policy.next_chunk(remaining, &views(&lanes, remaining)),
        };
        let take = take.clamp(1, remaining);
        if lane == 1 && lanes[1].dead {
            lane = 0;
            rescued += take;
        }
        if lane == 1 {
            lanes[1].touched = true;
            // The secondary's own fault surface gates every piece it
            // takes: a lost device reroutes its groups to the survivor
            // (the functional result is unaffected — windows run on the
            // primary — only the cost attribution moves).
            if !ex.lane_alive(secondary) {
                lanes[1].dead = true;
                rescued += take;
                lane = 0;
            }
        }
        let mut window = all_groups(nd.global, nd.local);
        window[dim] = if lane == 1 {
            hi - take..hi
        } else {
            lo..lo + take
        };
        let group_ops = ex.run(window)?;
        lanes[lane].group_ops.extend(group_ops);
        lanes[lane].groups += take;
        if lane == 1 {
            hi -= take;
        } else {
            lo += take;
        }
    }

    // Per-lane spans: input transfers + pooled compute (+ the secondary
    // lane's share of writable-buffer readback). The composite cost is
    // the makespan — both lanes run concurrently on the virtual clock.
    let mut lane_ns = [0.0f64; 2];
    for (i, lane) in lanes.iter().enumerate() {
        if !lane.touched && lane.group_ops.is_empty() {
            continue;
        }
        let mut t = lane.t_in_ns;
        if !lane.group_ops.is_empty() {
            t += devs[i].cost_model().kernel_ns(
                &lane.group_ops,
                items_per_group,
                devs[i].compute_units(),
                devs[i].simd_width(),
            );
        }
        if i == 1 && lane.groups > 0 {
            for (buf, ro) in plan.pooled.iter().zip(&plan.read_only) {
                if !*ro {
                    t += sec_model.transfer_ns(buf.len() * lane.groups / groups);
                }
            }
        }
        lane_ns[i] = t;
    }
    Ok(Priced {
        cost_ns: lane_ns[0].max(lane_ns[1]),
        split: vec![
            ("policy", policy.label().to_string()),
            ("dim", dim.to_string()),
            ("groups", groups.to_string()),
            ("primary_groups", lanes[0].groups.to_string()),
            ("secondary_groups", lanes[1].groups.to_string()),
            ("primary_ns", format!("{}", lane_ns[0])),
            ("secondary_ns", format!("{}", lane_ns[1])),
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

    fn run_reference(n: usize) -> (Vec<f32>, f64) {
        let (ctx, q, _) = gpu_setup();
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
        let ev = q.enqueue_nd_range(&k, &NdRange::d1(n, 16)).unwrap();
        let (vals, _) = q.read_f32(&a).unwrap();
        (vals, ev.duration_ns())
    }

    fn run_coexec(n: usize, kind: PolicyKind, kill_secondary: bool) -> (Vec<f32>, f64, Vec<trace::TraceEvent>) {
        let (ctx, q, sec) = gpu_setup();
        let sink = trace::TraceSink::new();
        q.attach_trace(sink.clone());
        if kill_secondary {
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
        let cfg = CoexecConfig::default();
        let mut policy = kind.make(&cfg);
        let ev = co_enqueue(&q, &sec, &k, &NdRange::d1(n, 16), 0, policy.as_mut()).unwrap();
        let (vals, _) = q.read_f32(&a).unwrap();
        (vals, ev.duration_ns(), sink.events())
    }

    #[test]
    fn all_policies_match_single_device_output() {
        let (reference, _) = run_reference(4096);
        for kind in [PolicyKind::Static, PolicyKind::ChunkedDynamic, PolicyKind::Guided] {
            let (vals, _, events) = run_coexec(4096, kind, false);
            assert_eq!(vals, reference, "{} output differs", kind.label());
            let split = events
                .iter()
                .find(|e| e.kind == SpanKind::CoexecSplit)
                .expect("CoexecSplit instant");
            assert!(split
                .args
                .iter()
                .any(|(k, v)| k == "policy" && v == kind.label()));
            // Both lanes took work on a 256-group range.
            for key in ["primary_groups", "secondary_groups"] {
                let v: usize = split
                    .args
                    .iter()
                    .find(|(k, _)| k == key)
                    .map(|(_, v)| v.parse().unwrap())
                    .unwrap();
                assert!(v > 0, "{} assigned no groups under {}", key, kind.label());
            }
        }
    }

    #[test]
    fn coexec_clock_is_deterministic_across_runs() {
        for kind in [PolicyKind::Static, PolicyKind::ChunkedDynamic, PolicyKind::Guided] {
            let (_, t1, _) = run_coexec(4096, kind, false);
            let (_, t2, _) = run_coexec(4096, kind, false);
            assert_eq!(t1.to_bits(), t2.to_bits(), "{}", kind.label());
        }
    }

    #[test]
    fn lost_secondary_rescues_groups_onto_primary() {
        let (reference, _) = run_reference(4096);
        let (vals, _, events) = run_coexec(4096, PolicyKind::ChunkedDynamic, true);
        assert_eq!(vals, reference, "rescued run must stay byte-identical");
        let split = events
            .iter()
            .find(|e| e.kind == SpanKind::CoexecSplit)
            .unwrap();
        let rescued: usize = split
            .args
            .iter()
            .find(|(k, _)| k == "rescued_groups")
            .map(|(_, v)| v.parse().unwrap())
            .unwrap();
        assert!(rescued > 0, "no groups were rescued: {:?}", split.args);
        let secondary_groups: usize = split
            .args
            .iter()
            .find(|(k, _)| k == "secondary_groups")
            .map(|(_, v)| v.parse().unwrap())
            .unwrap();
        assert_eq!(secondary_groups, 0, "dead lane must keep no groups");
    }

    #[test]
    fn large_ranges_beat_single_device_small_ones_do_not() {
        // The crossover: at 64 Ki items the split pays for the
        // secondary's transfers; at 256 items it cannot.
        let (_, single_large) = run_reference(65536);
        let (_, co_large, _) = run_coexec(65536, PolicyKind::Static, false);
        assert!(
            co_large < single_large,
            "co-exec {co_large} !< single {single_large} at 64Ki"
        );
        // Below the crossover the split buys nothing: the primary's
        // launch overhead and longest group still bound the makespan.
        let (_, single_small) = run_reference(256);
        let (_, co_small, _) = run_coexec(256, PolicyKind::Static, false);
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
        let mut policy = PolicyKind::Guided.make(&CoexecConfig::default());
        // One group: nothing to split, one Enqueue fault-op (index 0).
        co_enqueue(&q, &sec, &k, &nd, 0, policy.as_mut()).unwrap();
        // The next dispatch draws index 1, the scheduled loss.
        let err = q.enqueue_nd_range(&k, &nd).unwrap_err();
        assert!(matches!(err, crate::ClError::DeviceLost { .. }), "{err}");
    }
}
