//! Programs and kernels, mirroring `cl_program` / `cl_kernel`.

use crate::buffer::{Buffer, MemFlags};
use crate::cache::SourceCache;
use crate::context::Context;
use crate::engine::{default_engine, Engine};
use crate::error::{ClError, ClResult};
use crate::minicl::ast::{Space, Type};
use crate::minicl::native::{self, NativeProgram};
use crate::minicl::regir::{self, RegProgram};
use crate::minicl::{self, CompiledUnit, KernelInfo, Lowered, RtArg, Val};
use crate::queue::CommandQueue;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// An argument bound to a kernel slot.
#[derive(Debug, Clone)]
pub(crate) enum ArgSpec {
    /// A device buffer.
    Buf(Buffer),
    /// Immediate scalar.
    Scalar(Val),
    /// `__local` allocation size (mirrors `clSetKernelArg(size, NULL)`).
    LocalBytes(usize),
}

/// The build cache [`Program::build`] consults: exact mini-CL source →
/// the compiled unit plus every kernel's lowerings, bounded and oldest
/// out ([`SourceCache`]). Lowering is a pure function of the source and
/// the kernel name — no device or cost model enters it — so one entry
/// serves every context sharing the cache. A [`Context::new`] starts
/// with a cache of its own; the device matrix's contexts (and its
/// private copies) share one ([`Context::with_build_cache`]).
#[derive(Debug, Default)]
pub struct BuildCache {
    programs: SourceCache<Built>,
    /// Lowerings run for kernels of this cache's programs.
    lowerings: Arc<AtomicU64>,
}

impl BuildCache {
    /// Front-end runs (parse + compile) this cache has paid for: one per
    /// miss, failed builds included.
    pub fn front_ends(&self) -> u64 {
        self.programs.builds()
    }

    /// Kernel lowerings (register or native) run for this cache's
    /// programs: each at most once per source, kernel name and rung.
    pub fn lowerings(&self) -> u64 {
        self.lowerings.load(Ordering::Relaxed)
    }
}

/// A successful build as the cache keeps it.
#[derive(Debug)]
struct Built {
    source: Arc<str>,
    unit: Arc<CompiledUnit>,
    /// One entry per kernel of `unit`, shared by every [`Kernel`] created
    /// for that name from any program built from `source`.
    lowerings: HashMap<String, Arc<Lowerings>>,
}

impl Built {
    /// The mini-CL front end; on failure the error carries the full build
    /// log (every diagnostic, with line/column positions).
    fn compile(source: &str, runs: &Arc<AtomicU64>) -> ClResult<Built> {
        let unit =
            minicl::parse(source).map_err(|e| ClError::BuildFailure { log: e.to_string() })?;
        let compiled = minicl::compile(&unit).map_err(|diags| ClError::BuildFailure {
            log: diags
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("\n"),
        })?;
        let lowerings = compiled
            .kernels
            .keys()
            .map(|name| {
                let lowering = Lowerings {
                    reg: OnceLock::new(),
                    native: OnceLock::new(),
                    runs: Arc::clone(runs),
                };
                (name.clone(), Arc::new(lowering))
            })
            .collect();
        Ok(Built {
            source: Arc::from(source),
            unit: Arc::new(compiled),
            lowerings,
        })
    }
}

/// The immutable half of a kernel: its register and native lowerings,
/// each attempted at most once per source and kernel name (`None` when
/// it declined the kernel).
#[derive(Debug)]
pub(crate) struct Lowerings {
    reg: OnceLock<Option<RegProgram>>,
    native: OnceLock<Option<NativeProgram>>,
    /// The owning cache's lowering count.
    runs: Arc<AtomicU64>,
}

/// A compiled program: the result of runtime compilation of mini OpenCL-C
/// source, mirroring `clCreateProgramWithSource` + `clBuildProgram`.
#[derive(Debug, Clone)]
pub struct Program {
    ctx_id: u64,
    built: Arc<Built>,
}

impl Program {
    /// Compile `source` for the given context. On failure, the error carries
    /// the full build log (every diagnostic, with line/column positions).
    ///
    /// The context's [`BuildCache`] is consulted first: a source built
    /// before (on any context sharing the cache) skips the front end and
    /// shares its kernels' lowerings. A failed build is never kept. The
    /// lane's fault injector is still consulted once per build, hit or
    /// miss, so a fault schedule draws exactly as without the cache; a
    /// build fault is stamped at virtual time 0 (a context has no clock —
    /// see [`Program::build_on`]).
    pub fn build(ctx: &Context, source: &str) -> ClResult<Program> {
        Program::build_at(ctx, source, 0.0)
    }

    /// [`Program::build`] for the context of `queue`, stamping a build
    /// fault at the queue's virtual clock: how a kernel actor builds on
    /// the lane it opened on.
    pub fn build_on(queue: &CommandQueue, source: &str) -> ClResult<Program> {
        Program::build_at(queue.context(), source, queue.now_ns())
    }

    fn build_at(ctx: &Context, source: &str, now_ns: f64) -> ClResult<Program> {
        ctx.build_fault_check(now_ns)?;
        let cache = ctx.build_cache();
        let built = cache
            .programs
            .get_or_build(source, || Built::compile(source, &cache.lowerings))?;
        Ok(Program {
            ctx_id: ctx.id(),
            built,
        })
    }

    /// The kernel names available in this program.
    pub fn kernel_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.built.unit.kernels.keys().cloned().collect();
        names.sort();
        names
    }

    /// Original source text (what `clGetProgramInfo(CL_PROGRAM_SOURCE)`
    /// would return).
    pub fn source(&self) -> &str {
        &self.built.source
    }

    /// Create a kernel object for entry point `name`, mirroring
    /// `clCreateKernel`. Kernels of one name share their lowerings; each
    /// keeps its own argument bindings, dispatch plan and engine override.
    pub fn create_kernel(&self, name: &str) -> ClResult<Kernel> {
        let (Some(info), Some(lowerings)) = (
            self.built.unit.kernels.get(name),
            self.built.lowerings.get(name),
        ) else {
            return Err(ClError::KernelNotFound(name.to_string()));
        };
        Ok(Kernel {
            ctx_id: self.ctx_id,
            unit: Arc::clone(&self.built.unit),
            info: info.clone(),
            args: Arc::new(Mutex::new(vec![None; info.params.len()])),
            lowerings: Arc::clone(lowerings),
            cache: Arc::new(KernelCache::default()),
        })
    }
}

/// The per-dispatch state that only depends on the kernel's bound
/// arguments: resolved runtime args with deduplicated pool slots, the
/// unique buffers to check out (in slot order), their effective read-only
/// flags, and the total local-memory requirement. Built once per argument
/// binding and reused by every dispatch until an argument changes.
#[derive(Debug)]
pub(crate) struct DispatchPlan {
    /// Argument-binding generation this plan was built from.
    pub(crate) generation: u64,
    /// Resolved runtime arguments (pool slots already assigned).
    pub(crate) rt_args: Vec<RtArg>,
    /// Unique buffers in pool-slot order.
    pub(crate) pooled: Vec<Buffer>,
    /// Per-pool-slot effective read-only flag (const across all bindings).
    pub(crate) read_only: Vec<bool>,
    /// Host-set `__local` args + in-body declarations, in bytes.
    pub(crate) local_bytes: usize,
}

/// The mutable half of a kernel, shared by all clones of one kernel
/// object: the argument generation counter, the cached [`DispatchPlan`]
/// and the engine override. The lowerings are the immutable half
/// ([`Lowerings`]), shared by every kernel of a source.
#[derive(Debug, Default)]
pub(crate) struct KernelCache {
    /// Bumped on every argument rebind; invalidates the plan.
    generation: AtomicU64,
    plan: Mutex<Option<Arc<DispatchPlan>>>,
    engine: Mutex<Option<Engine>>,
}

/// A kernel object: an entry point plus its bound arguments.
#[derive(Debug, Clone)]
pub struct Kernel {
    pub(crate) ctx_id: u64,
    pub(crate) unit: Arc<CompiledUnit>,
    pub(crate) info: KernelInfo,
    pub(crate) args: Arc<Mutex<Vec<Option<ArgSpec>>>>,
    lowerings: Arc<Lowerings>,
    pub(crate) cache: Arc<KernelCache>,
}

impl Kernel {
    /// Kernel name.
    pub fn name(&self) -> &str {
        &self.info.name
    }

    /// Number of declared parameters.
    pub fn num_args(&self) -> usize {
        self.info.params.len()
    }

    /// True when the kernel contains a work-group barrier.
    pub fn has_barrier(&self) -> bool {
        self.info.has_barrier
    }

    fn param(&self, index: usize) -> ClResult<&crate::minicl::bytecode::KParam> {
        self.info.params.get(index).ok_or_else(|| {
            ClError::InvalidKernelArgs(format!(
                "kernel `{}` has {} parameters; index {index} is out of range",
                self.info.name,
                self.info.params.len()
            ))
        })
    }

    /// Bind a buffer to parameter `index` (must be a `__global` or
    /// `__constant` pointer of any element type).
    pub fn set_arg_buffer(&self, index: usize, buf: &Buffer) -> ClResult<()> {
        let p = self.param(index)?;
        match &p.ty {
            Type::Ptr(Space::Global | Space::Constant, _) => {}
            other => {
                return Err(ClError::InvalidKernelArgs(format!(
                    "parameter `{}` is `{other}`, not a global pointer",
                    p.name
                )))
            }
        }
        if buf.context_id() != self.ctx_id {
            return Err(ClError::InvalidContext(format!(
                "buffer {} belongs to a different context than kernel `{}`",
                buf.id(),
                self.info.name
            )));
        }
        self.args.lock()[index] = Some(ArgSpec::Buf(buf.clone()));
        self.cache.generation.fetch_add(1, Ordering::Release);
        Ok(())
    }

    /// Bind a `__local` allocation of `bytes` bytes to parameter `index`.
    pub fn set_arg_local(&self, index: usize, bytes: usize) -> ClResult<()> {
        let p = self.param(index)?;
        if !matches!(p.ty, Type::Ptr(Space::Local, _)) {
            return Err(ClError::InvalidKernelArgs(format!(
                "parameter `{}` is not a __local pointer",
                p.name
            )));
        }
        self.args.lock()[index] = Some(ArgSpec::LocalBytes(bytes));
        self.cache.generation.fetch_add(1, Ordering::Release);
        Ok(())
    }

    fn set_scalar(&self, index: usize, v: Val, want_int: bool) -> ClResult<()> {
        let p = self.param(index)?;
        let ok = match &p.ty {
            t if t.is_integer() => want_int,
            Type::Float => !want_int,
            _ => false,
        };
        if !ok {
            return Err(ClError::InvalidKernelArgs(format!(
                "parameter `{}` has type `{}`; scalar of the wrong kind supplied",
                p.name, p.ty
            )));
        }
        self.args.lock()[index] = Some(ArgSpec::Scalar(v));
        self.cache.generation.fetch_add(1, Ordering::Release);
        Ok(())
    }

    /// Bind an `int`/`uint` scalar.
    pub fn set_arg_i32(&self, index: usize, v: i32) -> ClResult<()> {
        self.set_scalar(index, Val::I(v as i64), true)
    }

    /// Bind a `float` scalar.
    pub fn set_arg_f32(&self, index: usize, v: f32) -> ClResult<()> {
        self.set_scalar(index, Val::F(v as f64), false)
    }

    /// Override the execution engine for this kernel's dispatches, or
    /// `None` to follow the process-wide default
    /// ([`crate::engine::default_engine`]). Shared by all clones of the
    /// kernel. The override selects a rung only when the corresponding
    /// lowering supports the kernel; otherwise dispatch silently falls
    /// down the ladder (native → register → stack), visible in the
    /// event's `engine()`.
    pub fn set_engine(&self, engine: Option<Engine>) {
        *self.cache.engine.lock() = engine;
    }

    /// The engine this kernel's next dispatch will *request* (the dispatch
    /// may still fall down the ladder if a lowering declined the kernel).
    pub fn engine(&self) -> Engine {
        self.cache.engine.lock().unwrap_or_else(default_engine)
    }

    /// The program this kernel's next dispatch runs: the requested rung,
    /// or the first rung below it whose lowering accepted the kernel
    /// (native → register → stack). [`Lowered::engine`] names the rung.
    /// Each lowering is attempted at most once per source and kernel
    /// name — every kernel built from one cached source shares the
    /// result — and only when a rung at or above it is requested.
    pub(crate) fn lowered(&self) -> Lowered<'_> {
        let requested = self.engine();
        let low = &*self.lowerings;
        let reg = || {
            low.reg
                .get_or_init(|| {
                    low.runs.fetch_add(1, Ordering::Relaxed);
                    regir::compile_kernel(&self.unit, &self.info)
                })
                .as_ref()
        };
        if requested == Engine::Native {
            let native = low.native.get_or_init(|| {
                let reg = reg()?;
                low.runs.fetch_add(1, Ordering::Relaxed);
                native::compile_native(reg, &self.info)
            });
            if let Some(prog) = native {
                return Lowered::Native(prog);
            }
        }
        if requested != Engine::Stack {
            if let Some(prog) = reg() {
                return Lowered::Register(prog);
            }
        }
        Lowered::Stack(&self.unit)
    }

    /// The cached dispatch plan for the current argument binding, building
    /// it if no plan exists or an argument changed since the last build.
    pub(crate) fn dispatch_plan(&self) -> ClResult<Arc<DispatchPlan>> {
        let generation = self.cache.generation.load(Ordering::Acquire);
        {
            let plan = self.cache.plan.lock();
            if let Some(p) = plan.as_ref() {
                if p.generation == generation {
                    return Ok(Arc::clone(p));
                }
            }
        }
        let specs = self.collect_args()?;
        // Total local memory: host-set __local args + in-body declarations.
        let local_bytes: usize = specs
            .iter()
            .map(|s| match s {
                ArgSpec::LocalBytes(b) => *b,
                _ => 0,
            })
            .sum::<usize>()
            + self.info.local_decl_bytes.iter().sum::<usize>();
        // A buffer bound to several parameters is writable if *any* of
        // them is writable: decide const-ness across all bindings first.
        let mut writable_ids: Vec<u64> = Vec::new();
        for (i, spec) in specs.iter().enumerate() {
            if let ArgSpec::Buf(b) = spec {
                let via_const = matches!(self.info.params[i].ty, Type::Ptr(Space::Constant, _));
                if !via_const && !matches!(b.flags(), MemFlags::ReadOnly) {
                    writable_ids.push(b.id());
                }
            }
        }
        // Assign pool slots: unique buffers only, so aliased parameters
        // share one checkout. The linear scan happens once per rebind
        // here instead of once per dispatch.
        let mut pooled: Vec<Buffer> = Vec::new();
        let mut read_only: Vec<bool> = Vec::new();
        let mut rt_args: Vec<RtArg> = Vec::with_capacity(specs.len());
        for spec in specs.iter() {
            match spec {
                ArgSpec::Buf(b) => {
                    let slot = match pooled.iter().position(|p| p.id() == b.id()) {
                        Some(s) => s,
                        None => {
                            pooled.push(b.clone());
                            read_only.push(!writable_ids.contains(&b.id()));
                            pooled.len() - 1
                        }
                    };
                    rt_args.push(RtArg::Buf { pool_slot: slot });
                }
                ArgSpec::Scalar(v) => rt_args.push(RtArg::Scalar(*v)),
                ArgSpec::LocalBytes(b) => rt_args.push(RtArg::Local { bytes: *b }),
            }
        }
        let plan = Arc::new(DispatchPlan {
            generation,
            rt_args,
            pooled,
            read_only,
            local_bytes,
        });
        *self.cache.plan.lock() = Some(Arc::clone(&plan));
        Ok(plan)
    }

    /// Validate that every parameter has an argument; returns the specs.
    pub(crate) fn collect_args(&self) -> ClResult<Vec<ArgSpec>> {
        let args = self.args.lock();
        let mut out = Vec::with_capacity(args.len());
        for (i, a) in args.iter().enumerate() {
            match a {
                Some(spec) => out.push(spec.clone()),
                None => {
                    return Err(ClError::InvalidKernelArgs(format!(
                        "parameter {i} (`{}`) of kernel `{}` was never set",
                        self.info.params[i].name, self.info.name
                    )))
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::MemFlags;
    use crate::platform::Platform;

    fn ctx() -> Context {
        Context::new(&Platform::all()[0].devices(None)).unwrap()
    }

    const SRC: &str = "__kernel void k(__global float* a, const int n, __local float* s) {
        s[get_local_id(0)] = a[get_global_id(0)] + (float)n;
        barrier(CLK_LOCAL_MEM_FENCE);
        a[get_global_id(0)] = s[get_local_id(0)];
    }";

    #[test]
    fn build_and_introspect() {
        let c = ctx();
        let p = Program::build(&c, SRC).unwrap();
        assert_eq!(p.kernel_names(), vec!["k".to_string()]);
        let k = p.create_kernel("k").unwrap();
        assert_eq!(k.num_args(), 3);
        assert!(k.has_barrier());
    }

    #[test]
    fn build_failure_carries_log() {
        let c = ctx();
        let err =
            Program::build(&c, "__kernel void k(__global float* a) { a[0] = nope; }").unwrap_err();
        match err {
            ClError::BuildFailure { log } => assert!(log.contains("nope")),
            other => panic!("expected BuildFailure, got {other:?}"),
        }
    }

    #[test]
    fn unknown_kernel_name() {
        let c = ctx();
        let p = Program::build(&c, SRC).unwrap();
        assert!(matches!(
            p.create_kernel("missing"),
            Err(ClError::KernelNotFound(_))
        ));
    }

    #[test]
    fn arg_type_validation() {
        let c = ctx();
        let p = Program::build(&c, SRC).unwrap();
        let k = p.create_kernel("k").unwrap();
        let buf = c.create_buffer(MemFlags::ReadWrite, 64).unwrap();
        assert!(k.set_arg_buffer(0, &buf).is_ok());
        assert!(k.set_arg_buffer(1, &buf).is_err()); // n is an int
        assert!(k.set_arg_i32(1, 5).is_ok());
        assert!(k.set_arg_f32(1, 5.0).is_err());
        assert!(k.set_arg_local(2, 256).is_ok());
        assert!(k.set_arg_local(0, 256).is_err());
    }

    #[test]
    fn cross_context_buffer_is_rejected() {
        let c1 = ctx();
        let c2 = ctx();
        let p = Program::build(&c1, SRC).unwrap();
        let k = p.create_kernel("k").unwrap();
        let foreign = c2.create_buffer(MemFlags::ReadWrite, 64).unwrap();
        assert!(matches!(
            k.set_arg_buffer(0, &foreign),
            Err(ClError::InvalidContext(_))
        ));
    }

    fn distinct(n: usize) -> String {
        format!("__kernel void k(__global float* a) {{ a[get_global_id(0)] = {n}.0f; }}")
    }

    #[test]
    fn a_build_on_a_shared_cache_runs_the_front_end_once() {
        let builds = Arc::new(BuildCache::default());
        let devices = Platform::all()[0].devices(None);
        let c1 = Context::with_build_cache(&devices, Arc::clone(&builds)).unwrap();
        let c2 = Context::with_build_cache(&devices, Arc::clone(&builds)).unwrap();
        let p1 = Program::build(&c1, SRC).unwrap();
        let p2 = Program::build(&c2, SRC).unwrap();
        assert!(Arc::ptr_eq(&p1.built, &p2.built));
        assert_eq!(builds.front_ends(), 1);
        // The program still belongs to the context it was built on.
        let foreign = c1.create_buffer(MemFlags::ReadWrite, 64).unwrap();
        assert!(p2
            .create_kernel("k")
            .unwrap()
            .set_arg_buffer(0, &foreign)
            .is_err());
        // A context of its own starts cold.
        let cold = ctx();
        Program::build(&cold, SRC).unwrap();
        assert_eq!(cold.build_cache().front_ends(), 1);
    }

    #[test]
    fn a_scheduled_build_fault_still_fires_on_a_cached_build() {
        use crate::fault::{FaultInjector, FaultOp, FaultPlan, InjectedFault};
        let c = ctx();
        Program::build(&c, SRC).unwrap();
        let inj =
            FaultInjector::new(FaultPlan::new().fail(FaultOp::Build, 1, InjectedFault::Transient));
        c.attach_faults(inj.clone());
        // Build index 0 draws nothing, index 1 fires, index 2 draws nothing:
        // every build draws once whether or not the cache holds the source.
        assert!(Program::build(&c, SRC).is_ok());
        assert!(matches!(
            Program::build(&c, SRC),
            Err(ClError::DeviceBusy { .. })
        ));
        assert!(Program::build(&c, SRC).is_ok());
        assert_eq!(inj.injected_count(), 1);
        assert_eq!(c.build_cache().front_ends(), 1);
    }

    #[test]
    fn a_failed_build_is_not_kept_and_reports_the_same_log() {
        let c = ctx();
        let bad = "__kernel void k(__global float* a) { a[0] = nope; }";
        let log = |err| match err {
            ClError::BuildFailure { log } => log,
            other => panic!("expected BuildFailure, got {other:?}"),
        };
        let first = log(Program::build(&c, bad).unwrap_err());
        let second = log(Program::build(&c, bad).unwrap_err());
        assert!(first.contains("nope"), "{first}");
        assert_eq!(first, second);
        assert_eq!(
            c.build_cache().front_ends(),
            2,
            "the failure was re-derived"
        );
    }

    #[test]
    fn the_build_cache_drops_its_oldest_source_at_the_bound() {
        let c = ctx();
        let cap = SourceCache::<Built>::CAPACITY;
        for n in 0..=cap {
            Program::build(&c, &distinct(n)).unwrap();
        }
        let builds = c.build_cache();
        assert_eq!(builds.front_ends() as usize, cap + 1);
        Program::build(&c, &distinct(1)).unwrap();
        Program::build(&c, &distinct(cap)).unwrap();
        assert_eq!(builds.front_ends() as usize, cap + 1, "survivors still hit");
        Program::build(&c, &distinct(0)).unwrap();
        assert_eq!(
            builds.front_ends() as usize,
            cap + 2,
            "the oldest was dropped"
        );
    }

    /// Kernels of one cached program share their lowerings and nothing
    /// else: bindings and engine overrides stay per kernel, and every
    /// dispatch matches one of a kernel built on a cold cache.
    #[test]
    fn kernels_of_a_cached_program_keep_their_own_bindings_and_engines() {
        use crate::{CommandQueue, NdRange};
        let src = "__kernel void scale(__global float* a, const float f) {
            int i = get_global_id(0);
            a[i] = a[i] * f + (float)i;
        }";
        let device = Platform::all()[0].devices(None)[0].clone();
        let run = |k: &Kernel, ctx: &Context, q: &CommandQueue, f: f32| {
            let buf = ctx.create_buffer(MemFlags::ReadWrite, 64 * 4).unwrap();
            q.write_f32(&buf, &[1.5; 64]).unwrap();
            k.set_arg_buffer(0, &buf).unwrap();
            k.set_arg_f32(1, f).unwrap();
            let ev = q.enqueue_nd_range(k, &NdRange::d1(64, 16)).unwrap();
            let out = q.read_f32(&buf).unwrap().0;
            let bits: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
            (bits, ev.ops(), ev.duration_ns().to_bits(), ev.engine())
        };
        let warm_ctx = Context::new(std::slice::from_ref(&device)).unwrap();
        Program::build(&warm_ctx, src).unwrap();
        let program = Program::build(&warm_ctx, src).unwrap();
        let (a, b) = (
            program.create_kernel("scale").unwrap(),
            program.create_kernel("scale").unwrap(),
        );
        assert!(Arc::ptr_eq(&a.lowerings, &b.lowerings));
        for (engine, f) in [
            (Engine::Native, 2.0),
            (Engine::Register, 3.0),
            (Engine::Stack, 4.0),
        ] {
            a.set_engine(Some(engine));
            b.set_engine(Some(Engine::Native));
            assert_eq!((a.engine(), b.engine()), (engine, Engine::Native));
            // Fresh queues on both sides, so the clocks line up too.
            let warm_q = CommandQueue::new(&warm_ctx, &device).unwrap();
            let got = run(&a, &warm_ctx, &warm_q, f);
            // `b` keeps its own binding: rebinding `a` never moved it.
            let other = run(&b, &warm_ctx, &warm_q, 5.0);
            let cold_ctx = Context::new(std::slice::from_ref(&device)).unwrap();
            let cold_q = CommandQueue::new(&cold_ctx, &device).unwrap();
            let cold = |e| {
                let k = Program::build(&cold_ctx, src)
                    .unwrap()
                    .create_kernel("scale")
                    .unwrap();
                k.set_engine(Some(e));
                k
            };
            assert_eq!(got, run(&cold(engine), &cold_ctx, &cold_q, f), "{engine:?}");
            assert_eq!(other, run(&cold(Engine::Native), &cold_ctx, &cold_q, 5.0));
        }
        assert_eq!(warm_ctx.build_cache().front_ends(), 1);
        // Register and native, each once, whichever kernel asked first.
        assert_eq!(warm_ctx.build_cache().lowerings(), 2);
    }

    #[test]
    fn missing_arg_detected_at_collect() {
        let c = ctx();
        let p = Program::build(&c, SRC).unwrap();
        let k = p.create_kernel("k").unwrap();
        k.set_arg_i32(1, 1).unwrap();
        assert!(matches!(
            k.collect_args(),
            Err(ClError::InvalidKernelArgs(_))
        ));
    }
}
