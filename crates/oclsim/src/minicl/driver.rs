//! The ND-range driver shared by the three kernel engines.
//!
//! A dispatch is an ND-range of work-groups, and every engine walks it the
//! same way, so the walk is written once here — pocl's shape: one
//! work-group function per kernel, and a driver that only iterates groups.
//! The driver owns
//!
//! * the dispatch `Geometry`, which also answers the `get_*_id`,
//!   `get_*_size` and `get_num_groups` queries;
//! * the `__local` regions: their sizes, and zeroing them between groups;
//! * the window of groups that runs (the whole range, or a co-execution
//!   slice of it) and the [`NdStats`] it yields;
//! * the barrier sweep for kernels with barriers: run every item of the
//!   group to its next barrier or to completion (one phase), trap when
//!   only some reached the barrier, repeat.
//!
//! An engine supplies a `GroupEngine`: its work-item arena with reset,
//! "step this item to its next barrier or to completion", its barrier-free
//! group body (the scalar loop unless it has a better one) and its phase
//! body for one row of a group with barriers (each item stepped in turn
//! unless it has a better one). The native engine has both: strips, and
//! strips over the regions between barriers. The driver is generic over
//! it, so each engine's hot loop is monomorphised on its own types.

use super::ast::{Space, Type};
use super::bytecode::{Builtin, CompiledUnit, KernelInfo};
use super::interp::{self, MemPool, PtrV, RtArg, Trap, Val};
use super::native::{self, NativeProgram, StripStats};
use super::regir::{self, RVal, RegProgram};
use crate::engine::Engine;
use std::ops::Range;

/// Per-dispatch statistics feeding the virtual clock.
#[derive(Debug, Clone, Default)]
pub struct NdStats {
    /// Total abstract ops per work-group (input to the cost model).
    pub group_ops: Vec<u64>,
    /// Number of work-items executed.
    pub items: u64,
    /// The native engine's strip-mode tallies; untouched by the others.
    pub strip: StripStats,
}

/// A kernel lowered for one rung of the engine ladder: what
/// [`run_ndrange`] executes.
#[derive(Debug, Clone, Copy)]
pub enum Lowered<'p> {
    /// Stack bytecode, run by the reference interpreter
    /// ([`super::interp`]).
    Stack(&'p CompiledUnit),
    /// Register IR ([`super::regir`]).
    Register(&'p RegProgram),
    /// Native handler chain ([`super::native`]).
    Native(&'p NativeProgram),
}

impl Lowered<'_> {
    /// The engine that runs this program.
    pub fn engine(self) -> Engine {
        match self {
            Lowered::Stack(_) => Engine::Stack,
            Lowered::Register(_) => Engine::Register,
            Lowered::Native(_) => Engine::Native,
        }
    }
}

/// Work-groups per dimension of an ND-range — the one place the division
/// is written (a zero local size divides as one).
pub fn num_groups(global: [usize; 3], local: [usize; 3]) -> [usize; 3] {
    std::array::from_fn(|d| global[d] / local[d].max(1))
}

/// The window covering every group of an ND-range.
pub fn all_groups(global: [usize; 3], local: [usize; 3]) -> [Range<usize>; 3] {
    num_groups(global, local).map(|n| 0..n)
}

/// Execute the work-groups of an ND-range whose per-dimension group index
/// falls inside `window` ([`all_groups`] for the whole range), on the
/// engine `prog` was lowered for. Global ids and the size queries report
/// the full range whatever the window, which is what a co-execution
/// scheduler needs when it hands disjoint slices of one dispatch to
/// different devices. `args` must already be validated against the
/// kernel's parameters (the host layer does this in
/// [`crate::program::Kernel`]).
///
/// All engines leave byte-identical buffers, identical `group_ops` (the
/// virtual clock) and identical trap messages and global ids.
///
/// ```
/// use oclsim::minicl::{self, native, regir, Lowered, MemPool, RtArg};
///
/// // Lower a tiny kernel all the way down the ladder: source -> stack
/// // bytecode -> register IR -> native, then dispatch it on each rung.
/// let unit = minicl::parse("__kernel void dbl(__global float* a) {
///     int i = get_global_id(0);
///     a[i] = a[i] * 2.0f;
/// }").unwrap();
/// let compiled = minicl::compile(&unit).unwrap();
/// let info = compiled.kernels.get("dbl").unwrap().clone();
/// let reg = regir::compile_kernel(&compiled, &info).expect("register-lowerable");
/// let nat = native::compile_native(&reg, &info).expect("native-lowerable");
///
/// let (global, local) = ([4, 1, 1], [2, 1, 1]);
/// for prog in [Lowered::Stack(&compiled), Lowered::Register(&reg), Lowered::Native(&nat)] {
///     let mut pool = MemPool {
///         bufs: vec![[1.0f32, 2.0, 3.0, 4.0].iter().flat_map(|v| v.to_le_bytes()).collect()],
///         read_only: vec![false],
///     };
///     let window = minicl::all_groups(global, local);
///     let args = [RtArg::Buf { pool_slot: 0 }];
///     let stats = minicl::run_ndrange(prog, &info, &args, &mut pool, global, local, window)
///         .unwrap();
///     assert_eq!(stats.items, 4);
///     let out: Vec<f32> = pool.bufs[0].chunks(4)
///         .map(|c| f32::from_le_bytes(c.try_into().unwrap())).collect();
///     assert_eq!(out, vec![2.0, 4.0, 6.0, 8.0]);
/// }
/// ```
pub fn run_ndrange(
    prog: Lowered<'_>,
    kernel: &KernelInfo,
    args: &[RtArg],
    pool: &mut MemPool,
    global: [usize; 3],
    local: [usize; 3],
    window: [Range<usize>; 3],
) -> Result<NdStats, Trap> {
    let regions: Vec<Vec<u8>> = local_region_sizes(kernel, args)?
        .into_iter()
        .map(|b| vec![0u8; b])
        .collect();
    let geo = Geometry {
        group_id: [0; 3],
        global_size: global,
        local_size: local,
        num_groups: num_groups(global, local),
    };
    let mut stats = NdStats::default();
    let group_ops = match prog {
        Lowered::Stack(unit) => {
            let mut cx = interp::GroupCtx::new(unit, kernel, args, pool, geo, regions);
            drive(&mut cx, kernel.has_barrier, &window, 1)
        }
        Lowered::Register(prog) => {
            let mut cx = regir::RCtx::new(prog, kernel, args, pool, geo, regions);
            drive(&mut cx, kernel.has_barrier, &window, 1)
        }
        Lowered::Native(prog) => {
            native::run_window(prog, kernel, args, pool, geo, regions, &window, &mut stats.strip)
        }
    };
    stats.group_ops = group_ops?;
    stats.items = (stats.group_ops.len() * local.iter().product::<usize>()) as u64;
    Ok(stats)
}

/// Byte sizes of the dispatch's `__local` regions: host-set `__local`
/// params (in param order) then in-body declarations.
fn local_region_sizes(kernel: &KernelInfo, args: &[RtArg]) -> Result<Vec<usize>, Trap> {
    let mut region_bytes: Vec<usize> = Vec::new();
    for (param, arg) in kernel.params.iter().zip(args) {
        if matches!(param.ty, Type::Ptr(Space::Local, _)) {
            match arg {
                RtArg::Local { bytes } => region_bytes.push(*bytes),
                _ => {
                    return Err(Trap {
                        message: format!(
                            "__local param `{}` not set via set_arg_local",
                            param.name
                        ),
                        global_id: [0; 3],
                    })
                }
            }
        }
    }
    region_bytes.extend_from_slice(&kernel.local_decl_bytes);
    Ok(region_bytes)
}

/// The dispatch-invariant initial locals frame: parameters bound, every
/// other slot `I(0)`.
pub(super) fn locals_template(kernel: &KernelInfo, args: &[RtArg]) -> Vec<Val> {
    let mut locals = vec![Val::I(0); kernel.nlocals as usize];
    let mut local_region = 0u16;
    for (i, (param, arg)) in kernel.params.iter().zip(args).enumerate() {
        let v = match (&param.ty, arg) {
            (Type::Ptr(Space::Local, _), RtArg::Local { .. }) => {
                let p = Val::Ptr(PtrV {
                    space: Space::Local,
                    slot: local_region,
                    base: 0,
                });
                local_region += 1;
                p
            }
            (Type::Ptr(space, _), RtArg::Buf { pool_slot }) => Val::Ptr(PtrV {
                space: *space,
                slot: *pool_slot as u16,
                base: 0,
            }),
            (_, RtArg::Scalar(v)) => *v,
            // Validated by the host layer; defensive default.
            _ => Val::I(0),
        };
        locals[i] = v;
    }
    locals
}

/// The register engines' dispatch template: the bound locals as raw
/// registers, zeroed canonical stack slots up to `const_base`, then the
/// program's static `tail` (constant pools, inline windows).
pub(super) fn register_template(
    kernel: &KernelInfo,
    args: &[RtArg],
    const_base: u16,
    tail: &[RVal],
) -> Vec<RVal> {
    let mut template: Vec<RVal> = locals_template(kernel, args)
        .into_iter()
        .map(RVal::from_val)
        .collect();
    template.resize(const_base as usize, RVal::default());
    template.extend_from_slice(tail);
    template
}

/// Where the current group sits in the ND-range. Only `group_id` changes
/// during a dispatch.
#[derive(Debug, Clone, Copy)]
pub(super) struct Geometry {
    pub(super) group_id: [usize; 3],
    pub(super) global_size: [usize; 3],
    pub(super) local_size: [usize; 3],
    pub(super) num_groups: [usize; 3],
}

impl Geometry {
    /// Global id of the current group's work-item `lid`.
    #[inline(always)]
    pub(super) fn item_gid(&self, lid: [usize; 3]) -> [usize; 3] {
        std::array::from_fn(|d| self.group_id[d] * self.local_size[d] + lid[d])
    }

    /// The work-item builtin `b` along dimension `d` for the item with
    /// ids `gid` / `lid`. OpenCL semantics for an out-of-range dimension:
    /// the id builtins return 0, the size builtins 1. Any other builtin
    /// reads 0.
    pub(super) fn query(&self, b: Builtin, d: i64, gid: [usize; 3], lid: [usize; 3]) -> usize {
        use Builtin::*;
        let Some(d) = usize::try_from(d).ok().filter(|&d| d < 3) else {
            return matches!(b, GetGlobalSize | GetLocalSize | GetNumGroups) as usize;
        };
        match b {
            GetGlobalId => gid[d],
            GetLocalId => lid[d],
            GetGroupId => self.group_id[d],
            GetGlobalSize => self.global_size[d],
            GetLocalSize => self.local_size[d],
            GetNumGroups => self.num_groups[d],
            _ => 0,
        }
    }

    /// The group's local ids in item order (dimension 0 fastest).
    fn lids(&self) -> impl Iterator<Item = [usize; 3]> {
        let [lx, ly, lz] = self.local_size;
        (0..lz).flat_map(move |z| (0..ly).flat_map(move |y| (0..lx).map(move |x| [x, y, z])))
    }
}

/// Why a work-item stopped.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(super) enum Stop {
    /// It ran to completion.
    Done,
    /// It reached a barrier and waits for the rest of its group.
    Barrier,
}

/// The trap for a barrier in a kernel compiled as barrier-free.
pub(super) fn stray_barrier(global_id: [usize; 3]) -> Trap {
    Trap {
        message: "barrier reached in kernel compiled without barriers".to_string(),
        global_id,
    }
}

/// What an engine supplies to the driver: "run one group".
pub(super) trait GroupEngine {
    /// One work-item's execution state.
    type Item;

    /// The dispatch geometry (the driver moves `group_id`).
    fn geometry(&mut self) -> &mut Geometry;
    /// The `__local` regions (the driver zeroes them between groups).
    fn local_regions(&mut self) -> &mut [Vec<u8>];
    /// A fresh work-item arena.
    fn arena(&self) -> Self::Item;
    /// Prepare `item` to run work-item `lid` of the current group from the
    /// kernel entry, with a zero op count.
    fn reset(&self, item: &mut Self::Item, lid: [usize; 3]);
    /// Run `item` to its next barrier or to completion.
    fn step(&mut self, item: &mut Self::Item) -> Result<Stop, Trap>;
    /// Abstract ops `item` has retired since its reset.
    fn ops(item: &Self::Item) -> u64;
    /// `item`'s global id.
    fn gid(item: &Self::Item) -> [usize; 3];

    /// Run the current group of a barrier-free kernel over the `lanes`
    /// arenas and return its op count. By default each item runs straight
    /// through on the first arena, in item order.
    fn run_free_group(&mut self, lanes: &mut [Self::Item]) -> Result<u64, Trap> {
        let item = &mut lanes[0];
        let mut ops = 0u64;
        for lid in self.geometry().lids() {
            self.reset(item, lid);
            if let Stop::Barrier = self.step(item)? {
                return Err(stray_barrier(Self::gid(item)));
            }
            ops += Self::ops(item);
        }
        Ok(ops)
    }

    /// Run one phase of `lanes`, consecutive items of one dim-0 row of
    /// the current group that all stand at the kernel entry or at a
    /// barrier: each to its next barrier or to completion, recording why
    /// in `stops`. A trap ends the phase; the first in item order is the
    /// one returned. By default each item steps in turn; the native engine
    /// runs strips where the region is race-free.
    fn run_phase(&mut self, lanes: &mut [Self::Item], stops: &mut [Stop]) -> Result<(), Trap> {
        for (item, stop) in lanes.iter_mut().zip(stops) {
            *stop = self.step(item)?;
        }
        Ok(())
    }
}

/// Run `window`'s groups of one dispatch and return each group's op count,
/// in group order (dimension 0 fastest). A barrier-free kernel runs its
/// groups over `lanes` arenas; a kernel with barriers sweeps one arena per
/// item of the group.
pub(super) fn drive<E: GroupEngine>(
    eng: &mut E,
    has_barrier: bool,
    window: &[Range<usize>; 3],
    lanes: usize,
) -> Result<Vec<u64>, Trap> {
    let arenas = if has_barrier {
        eng.geometry().local_size.iter().product()
    } else {
        lanes
    };
    let mut items: Vec<E::Item> = (0..arenas).map(|_| eng.arena()).collect();
    let mut stops = vec![Stop::Done; if has_barrier { arenas } else { 0 }];
    let mut group_ops = Vec::new();
    for gz in window[2].clone() {
        for gy in window[1].clone() {
            for gx in window[0].clone() {
                eng.geometry().group_id = [gx, gy, gz];
                // Zero local memory between groups for determinism. The
                // first group sees freshly allocated (zeroed) regions.
                if !group_ops.is_empty() {
                    for r in eng.local_regions() {
                        r.fill(0);
                    }
                }
                group_ops.push(if has_barrier {
                    barrier_group(eng, &mut items, &mut stops)?
                } else {
                    eng.run_free_group(&mut items)?
                });
            }
        }
    }
    Ok(group_ops)
}

/// One group of a kernel with barriers, one arena and one `stops` entry
/// per item: run a phase over every row, repeat while every item stopped
/// at a barrier. After a phase either every item waits at a barrier,
/// every item finished, or some of each — OpenCL leaves that undefined,
/// and it traps at the first item at a barrier.
fn barrier_group<E: GroupEngine>(
    eng: &mut E,
    items: &mut [E::Item],
    stops: &mut [Stop],
) -> Result<u64, Trap> {
    for (item, lid) in items.iter_mut().zip(eng.geometry().lids()) {
        eng.reset(item, lid);
    }
    let row = eng.geometry().local_size[0].max(1);
    loop {
        for (lanes, stops) in items.chunks_mut(row).zip(stops.chunks_mut(row)) {
            eng.run_phase(lanes, stops)?;
        }
        let at_barrier = stops.iter().filter(|&&stop| stop == Stop::Barrier).count();
        if at_barrier == 0 {
            return Ok(items.iter().map(E::ops).sum());
        }
        if at_barrier != items.len() {
            let first = stops.iter().position(|&stop| stop == Stop::Barrier);
            let first = first.expect("some item stopped at a barrier");
            return Err(Trap {
                message: format!(
                    "divergent barrier: {at_barrier} of {} running items reached barrier",
                    items.len()
                ),
                global_id: E::gid(&items[first]),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minicl::{compile, parse};

    const GLOBAL: [usize; 3] = [16, 8, 1];
    const LOCAL: [usize; 3] = [4, 2, 1];
    /// `GLOBAL / LOCAL`.
    const GROUPS: [usize; 2] = [4, 4];

    /// A tree reduction over `__local` memory: every group sweeps in
    /// lockstep between barriers.
    const REDUCE: &str = "__kernel void reduce(__global float* in, __global float* out, __local float* tmp) {
        int lid = get_local_id(1) * get_local_size(0) + get_local_id(0);
        int n = get_local_size(0) * get_local_size(1);
        tmp[lid] = in[get_global_id(1) * get_global_size(0) + get_global_id(0)];
        barrier(CLK_LOCAL_MEM_FENCE);
        for (int s = n / 2; s > 0; s = s / 2) {
            if (lid < s) { tmp[lid] = tmp[lid] + tmp[lid + s]; }
            barrier(CLK_LOCAL_MEM_FENCE);
        }
        if (lid == 0) { out[get_group_id(1) * get_num_groups(0) + get_group_id(0)] = tmp[0]; }
    }";

    /// Barrier-free, one load and one store slot: the native engine strips it.
    const SCALE: &str = "__kernel void scale(__global float* x, __global float* out, const float a) {
        int i = get_global_id(1) * get_global_size(0) + get_global_id(0);
        out[i] = a * x[i] + 1.0f;
    }";

    /// Runs off `out` at one work-item, global id `[13, 2, 0]` of group `[3, 1]`.
    const TRAP: &str = "__kernel void trap(__global float* out) {
        int i = get_global_id(1) * get_global_size(0) + get_global_id(0);
        out[i] = 1.0f;
        if (i == 45) { out[i + 100000] = 2.0f; }
    }";

    fn f32_buf(n: usize) -> Vec<u8> {
        (0..n).flat_map(|i| (i as f32 * 0.25 - 3.0).to_le_bytes()).collect()
    }

    /// A kernel's name and source, its arguments and initial buffers.
    type Fixture = (&'static str, &'static str, Vec<RtArg>, Vec<Vec<u8>>);

    fn fixtures() -> Vec<Fixture> {
        let bufs = |n: usize| (0..n).map(|_| f32_buf(GLOBAL[0] * GLOBAL[1])).collect();
        let buf = |pool_slot| RtArg::Buf { pool_slot };
        vec![
            ("reduce", REDUCE, vec![buf(0), buf(1), RtArg::Local { bytes: 32 }], bufs(2)),
            ("scale", SCALE, vec![buf(0), buf(1), RtArg::Scalar(Val::F(1.5))], bufs(2)),
            ("trap", TRAP, vec![buf(0)], bufs(1)),
        ]
    }

    /// Run `windows` one after another over one pool; each window's outcome.
    fn run_windows(
        prog: Lowered<'_>,
        kernel: &KernelInfo,
        args: &[RtArg],
        bufs: &[Vec<u8>],
        windows: &[[Range<usize>; 3]],
    ) -> (Vec<Result<NdStats, Trap>>, Vec<Vec<u8>>) {
        let mut pool = MemPool {
            bufs: bufs.to_vec(),
            read_only: vec![false; bufs.len()],
        };
        let outcomes = windows
            .iter()
            .map(|w| run_ndrange(prog, kernel, args, &mut pool, GLOBAL, LOCAL, w.clone()))
            .collect();
        (outcomes, pool.bufs)
    }

    /// Disjoint window sets that each cover every group: split along
    /// dimension 0, along dimension 1, and one group per window.
    fn tilings() -> Vec<Vec<[Range<usize>; 3]>> {
        let [nx, ny] = GROUPS;
        vec![
            vec![[0..1, 0..ny, 0..1], [1..3, 0..ny, 0..1], [3..nx, 0..ny, 0..1]],
            vec![[0..nx, 0..1, 0..1], [0..nx, 1..ny, 0..1]],
            (0..ny)
                .flat_map(|y| (0..nx).map(move |x| [x..x + 1, y..y + 1, 0..1]))
                .collect(),
        ]
    }

    #[test]
    fn windows_tile_the_dispatch_on_every_engine() {
        for (name, src, args, bufs) in fixtures() {
            let unit = compile(&parse(src).unwrap()).unwrap();
            let info = unit.kernels[name].clone();
            let reg = regir::compile_kernel(&unit, &info).expect("register-lowerable");
            let nat = native::compile_native(&reg, &info).expect("native-lowerable");
            for prog in [Lowered::Stack(&unit), Lowered::Register(&reg), Lowered::Native(&nat)] {
                let label = format!("`{name}` on {}", prog.engine().label());
                let all = [all_groups(GLOBAL, LOCAL)];
                let (mut whole, whole_bufs) = run_windows(prog, &info, &args, &bufs, &all);
                let whole = whole.pop().unwrap();
                match (name, &whole) {
                    ("trap", Err(trap)) => assert_eq!(trap.global_id, [13, 2, 0], "{label}"),
                    ("trap", Ok(_)) => panic!("{label}: expected a trap"),
                    (_, Err(trap)) => panic!("{label}: {trap:?}"),
                    (_, Ok(stats)) => {
                        let stripped = stats.strip.items > 0;
                        assert_eq!(stripped, matches!(prog, Lowered::Native(_)) && name == "scale");
                    }
                }

                for windows in tilings() {
                    let (outcomes, tiled_bufs) = run_windows(prog, &info, &args, &bufs, &windows);
                    match &whole {
                        Ok(stats) => {
                            // Each window's groups, put back at their place in the range.
                            let mut group_ops = vec![None; GROUPS[0] * GROUPS[1]];
                            let mut items = 0;
                            for (w, outcome) in windows.iter().zip(outcomes) {
                                let got = outcome.unwrap_or_else(|t| panic!("{label}: {t:?}"));
                                let places = w[1].clone().flat_map(|y| w[0].clone().map(move |x| (x, y)));
                                for ((x, y), ops) in places.zip(&got.group_ops) {
                                    group_ops[y * GROUPS[0] + x] = Some(*ops);
                                }
                                items += got.items;
                            }
                            let group_ops: Vec<u64> = group_ops.into_iter().map(Option::unwrap).collect();
                            assert_eq!(group_ops, stats.group_ops, "{label}: {windows:?}");
                            assert_eq!(items, stats.items, "{label}: {windows:?}");
                            assert_eq!(tiled_bufs, whole_bufs, "{label}: {windows:?}");
                        }
                        // Only the window holding group [3, 1] traps, and
                        // with the whole run's message and global id.
                        Err(trap) => {
                            for (w, outcome) in windows.iter().zip(outcomes) {
                                let holds = w[0].contains(&3) && w[1].contains(&1);
                                match outcome {
                                    Err(t) => assert!(holds && t == *trap, "{label}: {w:?} {t:?}"),
                                    Ok(_) => assert!(!holds, "{label}: {w:?} did not trap"),
                                }
                            }
                        }
                    }
                }

                let empty = [[2..2, 0..GROUPS[1], 0..1]];
                let (mut outcomes, empty_bufs) = run_windows(prog, &info, &args, &bufs, &empty);
                let stats = outcomes.pop().unwrap().expect("an empty window runs nothing");
                assert!(stats.group_ops.is_empty() && stats.items == 0, "{label}");
                assert_eq!(empty_bufs, bufs, "{label}");
            }
        }
    }
}
