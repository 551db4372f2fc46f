//! Programs and kernels, mirroring `cl_program` / `cl_kernel`.

use crate::buffer::{Buffer, MemFlags};
use crate::context::Context;
use crate::engine::{default_engine, Engine};
use crate::error::{ClError, ClResult};
use crate::minicl::ast::{Space, Type};
use crate::minicl::native::{self, NativeProgram};
use crate::minicl::regir::{self, RegProgram};
use crate::minicl::{self, CompiledUnit, KernelInfo, Lowered, RtArg, Val};
use parking_lot::Mutex;
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

/// A compiled program: the result of runtime compilation of mini OpenCL-C
/// source, mirroring `clCreateProgramWithSource` + `clBuildProgram`.
#[derive(Debug, Clone)]
pub struct Program {
    ctx_id: u64,
    unit: Arc<CompiledUnit>,
    source: Arc<String>,
}

impl Program {
    /// Compile `source` for the given context. On failure, the error carries
    /// the full build log (every diagnostic, with line/column positions).
    pub fn build(ctx: &Context, source: &str) -> ClResult<Program> {
        ctx.build_fault_check()?;
        let unit =
            minicl::parse(source).map_err(|e| ClError::BuildFailure { log: e.to_string() })?;
        let compiled = minicl::compile(&unit).map_err(|diags| ClError::BuildFailure {
            log: diags
                .iter()
                .map(|d| d.to_string())
                .collect::<Vec<_>>()
                .join("\n"),
        })?;
        Ok(Program {
            ctx_id: ctx.id(),
            unit: Arc::new(compiled),
            source: Arc::new(source.to_string()),
        })
    }

    /// The kernel names available in this program.
    pub fn kernel_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.unit.kernels.keys().cloned().collect();
        names.sort();
        names
    }

    /// Original source text (what `clGetProgramInfo(CL_PROGRAM_SOURCE)`
    /// would return).
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Create a kernel object for entry point `name`, mirroring
    /// `clCreateKernel`.
    pub fn create_kernel(&self, name: &str) -> ClResult<Kernel> {
        let info = self
            .unit
            .kernels
            .get(name)
            .cloned()
            .ok_or_else(|| ClError::KernelNotFound(name.to_string()))?;
        let nargs = info.params.len();
        Ok(Kernel {
            ctx_id: self.ctx_id,
            unit: Arc::clone(&self.unit),
            info,
            args: Arc::new(Mutex::new(vec![None; nargs])),
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

/// Dispatch-state cache shared by all clones of a kernel: the argument
/// generation counter, the cached [`DispatchPlan`], the register and
/// native lowerings (each attempted at most once; `None` when it declined
/// the kernel) and the per-kernel engine override.
#[derive(Debug, Default)]
pub(crate) struct KernelCache {
    /// Bumped on every argument rebind; invalidates the plan.
    generation: AtomicU64,
    plan: Mutex<Option<Arc<DispatchPlan>>>,
    reg: OnceLock<Option<RegProgram>>,
    native: OnceLock<Option<NativeProgram>>,
    engine: Mutex<Option<Engine>>,
}

/// A kernel object: an entry point plus its bound arguments.
#[derive(Debug, Clone)]
pub struct Kernel {
    pub(crate) ctx_id: u64,
    pub(crate) unit: Arc<CompiledUnit>,
    pub(crate) info: KernelInfo,
    pub(crate) args: Arc<Mutex<Vec<Option<ArgSpec>>>>,
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
    /// Each lowering is attempted at most once per kernel object, and only
    /// when a rung at or above it is requested; all clones share the
    /// result.
    pub(crate) fn lowered(&self) -> Lowered<'_> {
        let requested = self.engine();
        let reg = || {
            self.cache
                .reg
                .get_or_init(|| regir::compile_kernel(&self.unit, &self.info))
                .as_ref()
        };
        if requested == Engine::Native {
            let native = self.cache.native.get_or_init(|| {
                reg().and_then(|reg| native::compile_native(reg, &self.info))
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
