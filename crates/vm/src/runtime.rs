//! The Ensemble VM runtime: thread-per-actor execution of compiled modules.
//!
//! Mirrors §5–6 of the paper: each actor gets an OS thread interpreting its
//! behaviour bytecode (communication-driven scheduling falls out of
//! blocking channel operations); `opencl` actors run a **native** host
//! protocol (Figure 2) — the `invokenative` path of the paper's VM —
//! building their kernel once at actor creation from the source string the
//! compiler stored, then receive-settings / receive-data / dispatch / send
//! until their channel closes.
//!
//! ## Supervision
//!
//! The VM runs its actors under an [`ensemble_actors::Supervisor`]
//! (one-for-one): an actor killed by the fault-injection layer
//! ([`oclsim::fault::InjectedFault::Kill`]) exits abruptly and is
//! restarted within a [`RestartBudget`]. Kernel actors park each accepted
//! request (settings + data values) in a per-actor checkpoint slot until
//! its result has been sent, so a restarted incarnation *redelivers* the
//! in-flight request: because fault checks fire before any device
//! mutation, re-running the native protocol from the parked values
//! reproduces the fault-free result exactly, and end-to-end output stays
//! byte-identical to an unkilled run. Genuine errors (not kills) retire
//! the actor and fail the run as before; budget exhaustion escalates,
//! tearing every actor down via channel poisoning.

use crate::interp::{run_chunk, Exit, RuntimeHooks};
use crate::value::{
    unflatten_fields, DupStats, ErrorClass, EvictableMov, FlatView, MovState, VmError, VmVal,
};
use ensemble_actors::supervisor::panic_message;
use ensemble_actors::{
    ActorCtx, ChannelError, ChildSpec, Control, FnActor, RestartBudget, Strategy, Supervisor,
};
use ensemble_lang::vmops::*;
use ensemble_ocl::{
    Checkpoint, DeviceMatrix, DeviceSel, DispatchMode, KernelHost, KernelSpec, Launch, Profile,
    ProfileSink, RecoveryPolicy, ResolveEnv,
};
use oclsim::{CoexecConfig, CommandQueue, DeviceType, DispatchBatch, KillPanic};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use trace::{SpanKind, TraceEvent, TraceSink};

/// Callback the serving layer registers to learn about every `mov` value
/// that becomes device-resident, so its memory accountant can evict idle
/// buffers under pool pressure (see [`EvictableMov`]).
pub type ResidentHook = Arc<dyn Fn(EvictableMov) + Send + Sync>;

/// Modeled interpreter cost per abstract VM op, in virtual nanoseconds.
///
/// The paper attributes Ensemble's overhead to "the unoptimised VM"
/// interpreting bytecode; this constant (an interpreted-dispatch cost of a
/// few tens of cycles) turns the retired-op count into the same virtual
/// time unit the OpenCL cost model uses, so the figures can stack them.
pub const VM_NS_PER_OP: f64 = 40.0;

/// Result of running a module to completion.
#[derive(Debug, Clone)]
pub struct VmReport {
    /// Total interpreted VM ops (all actors + boot).
    pub vm_ops: u64,
    /// Captured `print*` output, in emission order.
    pub output: Vec<String>,
    /// Accumulated OpenCL costs from kernel actors.
    pub profile: Profile,
    /// Typed-leaf bytes copy-channel sends shared instead of copying.
    pub dup_shared_bytes: u64,
    /// Typed-leaf bytes a write to a still-shared leaf had to copy after
    /// all — 0 for a program that never mutates what it has sent.
    pub dup_copied_bytes: u64,
}

impl VmReport {
    /// The modeled interpreter overhead in virtual nanoseconds.
    pub fn overhead_ns(&self) -> f64 {
        self.vm_ops as f64 * VM_NS_PER_OP
    }

    /// Total modeled application time: OpenCL work + VM overhead.
    pub fn total_ns(&self) -> f64 {
        self.profile.opencl_ns() + self.overhead_ns()
    }
}

/// Build the deadline-miss error for operation `what` in actor `name`,
/// recording a `DeadlineExceeded` trace instant (wall clock) when tracing
/// is enabled.
fn deadline_exceeded(profile: &ProfileSink, name: &str, what: &str) -> VmError {
    let t = profile.trace();
    if t.is_enabled() {
        t.record(
            TraceEvent::instant(SpanKind::DeadlineExceeded, what, "vm", t.wall_ns())
                .with_arg("actor", name)
                .with_arg("clock", "wall"),
        );
    }
    VmError::deadline(&format!(
        "kernel actor `{name}`: {what} passed the run deadline"
    ))
}

/// What a kernel actor parks in its [`Checkpoint`] for each accepted
/// request: the decoded settings and the data value. The slot outlives
/// any single incarnation (it is shared with the supervisor's child
/// factory), so a restarted incarnation redelivers from here. `VmVal`s
/// are `Arc`-backed, making the parked data cheap.
struct VmRequest {
    worksize: Vec<usize>,
    groupsize: Vec<usize>,
    scalars: Vec<i32>,
    data: VmVal,
}

struct Shared {
    /// Shared, never mutated: a serving layer hands the same compiled
    /// module to every request that runs the same source.
    module: Arc<CompiledModule>,
    ops: Arc<AtomicU64>,
    dup: DupStats,
    profile: ProfileSink,
    output: Mutex<Vec<String>>,
    /// Actors created during boot; their threads start only after boot
    /// finishes wiring the topology (otherwise an eager sender could see a
    /// not-yet-connected channel).
    pending: Mutex<Vec<(CompiledActor, Vec<VmVal>)>>,
    /// How kernel actors resolve device selections to environments, and
    /// where their work fails over to. The default is the process-wide
    /// device matrix; a serving layer substitutes a session's private one.
    env: Mutex<Arc<dyn ResolveEnv>>,
    /// Absolute wall-clock deadline for the whole run: every blocking
    /// receive on the serving path gives up with a [`DEADLINE_MARK`]ed
    /// error once it passes. `None` (default) blocks indefinitely.
    ///
    /// [`DEADLINE_MARK`]: crate::value::DEADLINE_MARK
    deadline: Mutex<Option<Instant>>,
    /// Registered by the serving layer's memory accountant; called for
    /// every `mov` value the moment it becomes device-resident.
    resident_hook: Mutex<Option<ResidentHook>>,
    /// Co-execution / dispatch-batching configuration: off by default;
    /// [`VmRuntime::set_coexec`] sets it per VM.
    coexec: Mutex<CoexecConfig>,
    /// Open batched-dispatch sessions, keyed by `chain-host@device-id`
    /// so every kernel actor of one proven chain appends to the same
    /// batch. Drained — closing each session and recording its
    /// `BatchFused` instant — before the run's profile snapshot.
    batches: Mutex<HashMap<String, DispatchBatch>>,
    /// Queues whose instant markers this run's trace receives; detached
    /// when the run ends, so a later run's instants never land in this
    /// run's sink.
    traced: Mutex<Vec<CommandQueue>>,
}

impl RuntimeHooks for Arc<Shared> {
    fn spawn_actor(&self, idx: u16) -> Result<VmVal, VmError> {
        spawn(self, idx)
    }

    fn print(&self, text: String) {
        self.output.lock().push(text);
    }

    fn profile(&self) -> Option<&ProfileSink> {
        Some(&self.profile)
    }

    fn deadline(&self) -> Option<Instant> {
        *self.deadline.lock()
    }

    fn dup_stats(&self) -> Option<&DupStats> {
        Some(&self.dup)
    }
}

/// The VM: owns a compiled module and runs it.
pub struct VmRuntime {
    shared: Arc<Shared>,
    budget: RestartBudget,
}

impl VmRuntime {
    /// Create a VM for `module` — an owned [`CompiledModule`], or an
    /// `Arc` of one that several runs share.
    pub fn new(module: impl Into<Arc<CompiledModule>>) -> VmRuntime {
        VmRuntime::with_profile(module, ProfileSink::new())
    }

    /// Use an external profile sink (so benchmarks can share one).
    pub fn with_profile(
        module: impl Into<Arc<CompiledModule>>,
        profile: ProfileSink,
    ) -> VmRuntime {
        VmRuntime {
            shared: Arc::new(Shared {
                module: module.into(),
                ops: Arc::new(AtomicU64::new(0)),
                dup: DupStats::default(),
                profile,
                output: Mutex::new(Vec::new()),
                pending: Mutex::new(Vec::new()),
                env: Mutex::new(DeviceMatrix::shared()),
                deadline: Mutex::new(None),
                resident_hook: Mutex::new(None),
                coexec: Mutex::new(CoexecConfig::default()),
                batches: Mutex::new(HashMap::new()),
                traced: Mutex::new(Vec::new()),
            }),
            budget: RestartBudget::default(),
        }
    }

    /// Substitute the environment resolver kernel actors use (default:
    /// the process-wide device matrix). A multi-tenant serving layer
    /// installs a per-session resolver here so every kernel actor of this
    /// VM dispatches — and fails over — within that tenant's private
    /// contexts and queues.
    pub fn set_env_resolver(&self, resolver: Arc<dyn ResolveEnv>) {
        *self.shared.env.lock() = resolver;
    }

    /// Set (or clear) the absolute deadline for the next [`VmRuntime::run`]:
    /// once it passes, every blocking receive inside the VM — interpreted
    /// `receive` expressions and the kernel actors' native protocol alike —
    /// gives up with an error marked [`crate::value::DEADLINE_MARK`], and
    /// the run fails with that error instead of blocking forever.
    pub fn set_deadline(&self, deadline: Option<Instant>) {
        *self.shared.deadline.lock() = deadline;
    }

    /// Register a callback observing every `mov` value that becomes
    /// device-resident (`None` clears it). The serving layer's memory
    /// accountant uses this to build its eviction registry.
    pub fn set_resident_hook(&self, hook: Option<ResidentHook>) {
        *self.shared.resident_hook.lock() = hook;
    }

    /// Override the restart-intensity budget the VM's supervisor enforces
    /// (the default allows 8 restarts per 1 ms virtual window).
    pub fn set_restart_budget(&mut self, budget: RestartBudget) {
        self.budget = budget;
    }

    /// Set the co-execution / dispatch-batching configuration for this
    /// VM's kernel actors (see [`oclsim::CoexecConfig`]). A VM starts at
    /// [`CoexecConfig::default`]: single-device dispatch, no batching.
    pub fn set_coexec(&self, cfg: CoexecConfig) {
        *self.shared.coexec.lock() = cfg;
    }

    /// Run boot, supervise every actor until it stops, and report.
    ///
    /// Actors killed by injected faults are restarted (one-for-one) within
    /// the restart budget, resuming from their checkpoint; genuine
    /// failures retire the actor and fail the run; budget exhaustion
    /// escalates, tearing down the remaining actors before returning the
    /// error.
    pub fn run(&self) -> Result<VmReport, VmError> {
        // Injected kill-panics are supervised control flow here — keep
        // them off stderr (genuine panics still print).
        oclsim::silence_kill_panics();
        let shared = Arc::clone(&self.shared);
        let boot = &shared.module.boot;
        let mut slots = vec![VmVal::Unit; boot.nslots as usize];
        let (_, boot_ops) = run_chunk(boot, &shared.module, &mut slots, &shared.ops, &shared)?;
        let mut boot_clock = 0.0;
        trace_chunk(
            &shared.profile,
            "vm/boot",
            "boot",
            &mut boot_clock,
            boot_ops,
        );
        // Drop the boot frame before starting the actors: the actor
        // handles it holds keep clones of the actors' out endpoints alive,
        // and receivers only observe closure once every clone is gone.
        drop(slots);
        // Start every actor under a one-for-one supervisor now that the
        // topology is wired. Each child's factory retains a clone of the
        // actor's port endpoints, keeping its channels open across a
        // restart gap; the supervisor drops the factory when the child
        // retires, so closure still propagates on orderly completion.
        let pending: Vec<_> = std::mem::take(&mut *self.shared.pending.lock());
        let first_error: Arc<Mutex<Option<VmError>>> = Arc::new(Mutex::new(None));
        let mut sup = Supervisor::new("vm", Strategy::OneForOne, self.budget);
        let trace = self.shared.profile.trace();
        if trace.is_enabled() {
            sup.set_trace(trace.clone());
        }
        for (actor, port_slots) in pending {
            let name = actor.name.clone();
            let shared2 = Arc::clone(&self.shared);
            let err_slot = Arc::clone(&first_error);
            let ckpt: Checkpoint<VmRequest, VmVal> = Checkpoint::new();
            // The actor's own In endpoints: poisoned by the supervisor's
            // escalation teardown so a blocked receive wakes, un-poisoned
            // if the child is ever revived.
            let ins: Vec<Arc<ensemble_actors::In<VmVal>>> = port_slots
                .iter()
                .filter_map(|v| match v {
                    VmVal::ChanIn(i) => Some(Arc::clone(i)),
                    _ => None,
                })
                .collect();
            let ins_revive = ins.clone();
            sup.supervise(
                ChildSpec::new(&name, move || {
                    let shared2 = Arc::clone(&shared2);
                    let actor = actor.clone();
                    let port_slots = port_slots.clone();
                    let ckpt = ckpt.clone();
                    let err_slot = Arc::clone(&err_slot);
                    FnActor(move |_ctx: &mut ActorCtx| {
                        let r = std::panic::catch_unwind(AssertUnwindSafe(|| match &actor.code {
                            ActorCode::Host { .. } => {
                                host_actor(&shared2, &actor, port_slots.clone())
                            }
                            ActorCode::Kernel(plan) => {
                                kernel_actor(&shared2, &actor.name, plan, port_slots.clone(), &ckpt)
                            }
                        }));
                        match r {
                            Ok(Ok(())) => Control::Stop,
                            // Injected kill (error form): abrupt exit, the
                            // supervisor restarts from the checkpoint.
                            Ok(Err(e)) if e.class == ErrorClass::Killed => Control::Fail,
                            Ok(Err(e)) => {
                                eprintln!("[vm] actor `{}` failed: {e}", actor.name);
                                record_first(
                                    &err_slot,
                                    e.within(&format!("actor `{}`", actor.name)),
                                );
                                Control::Stop
                            }
                            // Injected kill (panic form).
                            Err(p) if p.downcast_ref::<KillPanic>().is_some() => Control::Fail,
                            Err(p) => {
                                record_first(
                                    &err_slot,
                                    VmError::new(format!(
                                        "actor `{}` panicked: {}",
                                        actor.name,
                                        panic_message(p.as_ref())
                                    )),
                                );
                                Control::Stop
                            }
                        }
                    })
                })
                .on_stop(move || {
                    for i in &ins {
                        i.poison();
                    }
                })
                .on_restart(move || {
                    for i in &ins_revive {
                        i.clear_poison();
                    }
                }),
            );
        }
        if let Err(e) = sup.run() {
            record_first(
                &first_error,
                VmError::new(format!(
                    "restart budget exhausted: child `{}`: {}",
                    e.child, e.reason
                )),
            );
        }
        // Close any batched-dispatch sessions left open by the chain's
        // kernel actors: each drop records its `BatchFused` instant and
        // releases the held arbiter slot, so the snapshot below carries
        // the full batching story.
        self.shared.batches.lock().clear();
        for queue in self.shared.traced.lock().drain(..) {
            queue.attach_trace(TraceSink::disabled());
        }
        if let Some(e) = first_error.lock().take() {
            return Err(e);
        }
        Ok(VmReport {
            vm_ops: self.shared.ops.load(Ordering::Relaxed),
            output: self.shared.output.lock().clone(),
            profile: self.shared.profile.snapshot(),
            dup_shared_bytes: self.shared.dup.shared_bytes(),
            dup_copied_bytes: self.shared.dup.copied_bytes(),
        })
    }
}

/// Record `e` into the run's first-error slot unless one is already there
/// (the first failure is the one reported; later ones are cascade). An
/// error that *says* it is cascade — an actor woken by a failed peer's
/// poison can reach here before the peer does — gives way to the cause.
fn record_first(slot: &Arc<Mutex<Option<VmError>>>, e: VmError) {
    let mut guard = slot.lock();
    let displaces =
        |held: &VmError| held.class == ErrorClass::Cascade && e.class != ErrorClass::Cascade;
    if guard.as_ref().is_none_or(displaces) {
        *guard = Some(e);
    }
}

fn spawn(shared: &Arc<Shared>, idx: u16) -> Result<VmVal, VmError> {
    let actor = shared
        .module
        .actors
        .get(idx as usize)
        .ok_or_else(|| VmError::new(format!("no actor #{idx}")))?
        .clone();
    let trace = shared.profile.trace();
    if trace.is_enabled() {
        trace.record(
            TraceEvent::instant(SpanKind::Spawn, &actor.name, "vm", trace.wall_ns())
                .with_arg("clock", "wall"),
        );
    }
    // Create the interface endpoints; the actor thread and the returned
    // handle share them.
    let mut port_map: HashMap<String, VmVal> = HashMap::new();
    let mut port_slots: Vec<VmVal> = Vec::with_capacity(actor.ports.len());
    for p in &actor.ports {
        let v = match p.dir {
            ensemble_lang::ast::Dir::In => {
                let mut input = ensemble_actors::In::with_buffer(p.capacity);
                if trace.is_enabled() {
                    input.set_trace(trace.clone(), format!("{}.{}", actor.name, p.name));
                }
                VmVal::ChanIn(Arc::new(input))
            }
            ensemble_lang::ast::Dir::Out => VmVal::ChanOut(ensemble_actors::Out::new()),
        };
        port_map.insert(p.name.clone(), v.clone());
        port_slots.push(v);
    }
    shared.pending.lock().push((actor, port_slots));
    Ok(VmVal::ActorRef(Arc::new(port_map)))
}

fn host_actor(
    shared: &Arc<Shared>,
    actor: &CompiledActor,
    port_slots: Vec<VmVal>,
) -> Result<(), VmError> {
    let ActorCode::Host {
        constructor,
        behaviour,
    } = &actor.code
    else {
        unreachable!("host_actor on kernel actor");
    };
    let nslots = actor
        .field_init
        .nslots
        .max(constructor.nslots)
        .max(behaviour.nslots) as usize;
    let mut slots = vec![VmVal::Unit; nslots.max(port_slots.len())];
    for (i, p) in port_slots.into_iter().enumerate() {
        slots[i] = p;
    }
    let module = &shared.module;
    // Per-actor virtual clock: each interpreted chunk advances it by
    // retired-ops × VM_NS_PER_OP, so the actor's timeline track shows
    // where its interpreter time went.
    let track = format!("vm/{}", actor.name);
    let mut clock = 0.0;
    let (_, n) = run_chunk(&actor.field_init, module, &mut slots, &shared.ops, shared)?;
    trace_chunk(&shared.profile, &track, "field_init", &mut clock, n);
    let (_, n) = run_chunk(constructor, module, &mut slots, &shared.ops, shared)?;
    trace_chunk(&shared.profile, &track, "constructor", &mut clock, n);
    loop {
        let (exit, n) = run_chunk(behaviour, module, &mut slots, &shared.ops, shared)?;
        trace_chunk(&shared.profile, &track, "behaviour", &mut clock, n);
        match exit {
            Exit::Done => continue,
            Exit::Stopped | Exit::ChannelClosed => return Ok(()),
        }
    }
}

/// Emit a `VmChunk` span for `ops` retired ops on `track`, advancing the
/// actor's virtual clock. Every `run_chunk` call site must route through
/// here: the trace's VM segment then sums to exactly
/// `VmReport::vm_ops × VM_NS_PER_OP`, the figures' overhead bar.
fn trace_chunk(profile: &ProfileSink, track: &str, name: &str, clock: &mut f64, ops: u64) {
    let dur = ops as f64 * VM_NS_PER_OP;
    let t = profile.trace();
    if ops > 0 && t.is_enabled() {
        t.record(
            TraceEvent::span(SpanKind::VmChunk, name, track, *clock, dur).with_arg("ops", ops),
        );
    }
    *clock += dur;
}

fn parse_device(plan: &KernelPlan) -> DeviceSel {
    let ty = plan.device_type.as_deref().map(|s| match s {
        "CPU" => DeviceType::Cpu,
        "ACCELERATOR" => DeviceType::Accelerator,
        _ => DeviceType::Gpu,
    });
    DeviceSel {
        device_type: ty,
        device_index: plan.device_index,
    }
}

/// The protocol-level description of `plan`'s kernel actor.
fn kernel_spec(plan: &KernelPlan, profile: ProfileSink) -> KernelSpec {
    // What a copy-channel request reads back: every field, or one field
    // alone with its own slice of the flattened dims.
    let ndims = |fields: &[DataField]| fields.iter().map(|f| f.ndims).sum::<usize>();
    let (out_segs, out_dims) = match plan.out {
        KernelOut::Whole => (
            (0..plan.data_fields.len()).collect(),
            (0..ndims(&plan.data_fields)).collect(),
        ),
        KernelOut::Field(fidx) => {
            let offset = ndims(&plan.data_fields[..fidx]);
            (
                vec![fidx],
                (offset..offset + plan.data_fields[fidx].ndims).collect(),
            )
        }
    };
    KernelSpec {
        source: plan.source.clone(),
        kernel_name: plan.kernel_name.clone(),
        device: parse_device(plan),
        out_segs,
        out_dims,
        profile,
        recovery: RecoveryPolicy::default(),
    }
}

fn usize_array(v: &VmVal) -> Result<Vec<usize>, VmError> {
    let VmVal::Arr(a) = v else {
        return Err(VmError::new("worksize is not an array"));
    };
    let guard = a.lock();
    match &*guard {
        crate::value::VmArr::I(vals) => Ok(vals.iter().map(|&x| x as usize).collect()),
        other => Err(VmError::new(format!(
            "worksize must be integer[], got {other:?}"
        ))),
    }
}

/// Compile-time partition/fusion proofs surface as instants so a trace
/// shows, per dispatch, what a co-execution scheduler would be allowed to
/// do with it (split across devices / batch with its chain neighbours).
fn trace_proofs(host: &KernelHost, name: &str, plan: &KernelPlan) {
    let trace = host.spec().profile.trace();
    let Some(proofs) = plan.proofs.as_ref().filter(|_| trace.is_enabled()) else {
        return;
    };
    let env = host.env();
    let dims = proofs.split.splittable_dims();
    if !dims.is_empty() {
        let dims_csv = dims
            .iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join(",");
        trace.record(
            TraceEvent::instant(
                SpanKind::ProofSplittable,
                &format!("{} dims={dims_csv}", plan.kernel_name),
                env.device.name(),
                env.queue.now_ns(),
            )
            .with_arg("actor", name)
            .with_arg("dims", dims_csv),
        );
    }
    if let Some(chain) = &proofs.chain {
        trace.record(
            TraceEvent::instant(
                SpanKind::ProofFusable,
                &plan.kernel_name,
                env.device.name(),
                env.queue.now_ns(),
            )
            .with_arg("actor", name)
            .with_arg("host", chain.host.clone())
            .with_arg("chain_len", chain.len as i64)
            .with_arg("index", chain.index as i64),
        );
    }
}

/// The `.ens` front end of the kernel-actor protocol
/// ([`ensemble_ocl::protocol`]): decodes `VmVal` settings and data,
/// keeps `mov` values resident, honours the run deadline and decides the
/// dispatch mode from the kernel's proofs; uploads, dispatches, recovery
/// and read-backs are the protocol's.
fn kernel_actor(
    shared: &Arc<Shared>,
    name: &str,
    plan: &KernelPlan,
    port_slots: Vec<VmVal>,
    ckpt: &Checkpoint<VmRequest, VmVal>,
) -> Result<(), VmError> {
    let VmVal::ChanIn(requests) = &port_slots[plan.requests_port] else {
        return Err(VmError::new("kernel actor port is not an in channel"));
    };
    // Rebuilt per incarnation: the program/kernel hold no request state,
    // so a restarted actor re-deriving them is free of the kill's effects.
    let resolver = Arc::clone(&*shared.env.lock());
    let profile = shared.profile.clone();
    let mut host = KernelHost::open(kernel_spec(plan, profile.clone()), Arc::clone(&resolver))
        .map_err(|e| match e {
            oclsim::ClError::BuildFailure { .. } => {
                VmError::new(format!("kernel build failed: {e}\n{}", plan.source))
            }
            e => VmError::device("kernel build failed", &e),
        })?;
    let trace = profile.trace();
    // Record the queue's instant markers (co-execution splits, fused
    // batches, integrity checks) in this run's trace until the run ends.
    if trace.is_enabled() {
        let queue = &host.env().queue;
        queue.attach_trace(trace.clone());
        shared.traced.lock().push(queue.clone());
    }

    // The scheduler seam: decide once per incarnation how this actor's
    // dispatches reach the device. Co-execution needs the split flag, a
    // dimension the split proof classifies `Splittable`, the copy path
    // (`mov` chains keep data resident and batch instead), and a second
    // device of the opposite type that actually resolves — anything
    // missing falls back to plain single-device dispatch. All three
    // decisions below (secondary, chain key, the residency proof's skip)
    // are about the lane the host opened on: once it has failed over
    // (`KernelHost::migrated`) they are void, and it dispatches `Single`.
    let coexec_cfg = shared.coexec.lock().clone();
    let split = plan
        .proofs
        .as_ref()
        .filter(|_| coexec_cfg.split && !plan.mov)
        .and_then(|p| p.split.splittable_dims().into_iter().next())
        .and_then(|dim| {
            let other = match host.env().device.device_type() {
                DeviceType::Gpu => DeviceType::Cpu,
                _ => DeviceType::Gpu,
            };
            let secondary = resolver.resolve(DeviceSel::new(other, 0)).ok()?;
            (secondary.device.id() != host.env().device.id()).then_some((dim, secondary))
        });
    // Dispatch batching rides on the fusion proof: membership in a
    // proven chain means no host-side barrier separates this dispatch
    // from its neighbours, so consecutive launches may coalesce into one
    // submission (in-order execution preserves the chain's RAW hazards —
    // only the per-launch overhead is amortised).
    let chain_key = if coexec_cfg.batch {
        plan.proofs
            .as_ref()
            .and_then(|p| p.chain.as_ref())
            .map(|c| (format!("{}@{}", c.host, host.env().device.id()), c.clone()))
    } else {
        None
    };

    loop {
        // Redelivery-first: an item parked in the checkpoint means a
        // previous incarnation was killed before acknowledging it —
        // process it again instead of receiving (the channels already
        // delivered it once and will not again).
        if !ckpt.has_in_flight() {
            // 1. receive the settings struct, 2. receive the data — both
            // bounded by the run's deadline, if one is set (the serving
            // path must never block indefinitely). Copy the deadline out
            // first: the lock must not be held across a blocking receive
            // (the interpreter reads it on every `RecvOp`).
            let deadline = *shared.deadline.lock();
            let settings = match requests.recv_deadline(deadline) {
                Ok(v) => v,
                Err(ChannelError::Poisoned) => {
                    return Err(VmError::cascade(&format!(
                        "kernel actor `{name}`: requests channel"
                    )))
                }
                Err(ChannelError::TimedOut) => {
                    return Err(deadline_exceeded(&profile, name, "settings receive"))
                }
                Err(_) => return Ok(()),
            };
            let VmVal::Struct(_, sfields) = &settings else {
                return Err(VmError::new("settings must be an opencl struct value"));
            };
            let (worksize, groupsize, input, output, scalars) = {
                let f = sfields.lock();
                let VmVal::ChanIn(input) = f[2].clone() else {
                    return Err(VmError::new("settings input is not an in channel"));
                };
                let VmVal::ChanOut(output) = f[3].clone() else {
                    return Err(VmError::new("settings output is not an out channel"));
                };
                let scalars = f[4..]
                    .iter()
                    .map(|s| s.as_i().map(|v| v as i32))
                    .collect::<Result<Vec<i32>, _>>()?;
                (
                    usize_array(&f[0])?,
                    usize_array(&f[1])?,
                    input,
                    output,
                    scalars,
                )
            };
            // A poisoned input means the upstream stage died
            // mid-pipeline: propagate the poison downstream so the whole
            // pipeline tears down instead of deadlocking on a rendezvous.
            let data = match input.recv_deadline(deadline) {
                Ok(v) => v,
                Err(ChannelError::Poisoned) => {
                    output.poison_receivers();
                    return Err(VmError::cascade(&format!(
                        "kernel actor `{name}`: input channel"
                    )));
                }
                // Poison downstream so the rest of the pipeline tears
                // down promptly instead of each stage waiting out its
                // own deadline in sequence.
                Err(ChannelError::TimedOut) => {
                    output.poison_receivers();
                    return Err(deadline_exceeded(&profile, name, "data receive"));
                }
                Err(_) => return Ok(()),
            };
            ckpt.park(
                VmRequest {
                    worksize,
                    groupsize,
                    scalars,
                    data,
                },
                output,
            );
        }

        // 3. prepare buffers (§6.2.3 residency rules), 4. dispatch,
        // 5. send onward and acknowledge.
        let done = ckpt.drive(&mut host, name, |host, req| {
            trace_proofs(host, name, plan);
            let launch = Launch {
                worksize: &req.worksize,
                groupsize: &req.groupsize,
                ints: &req.scalars,
                floats: &[],
            };
            if !plan.mov {
                // Plain channels: copy up, dispatch, copy the output back.
                // The view converts each leaf straight into its device
                // buffer; a retried upload re-fills from it.
                let view = match (&plan.data_shape, &req.data) {
                    (DataShape::Struct { .. }, VmVal::Struct(_, fields)) => {
                        FlatView::of(&fields.lock(), &plan.data_fields)?
                    }
                    (DataShape::Array { .. }, v @ VmVal::Arr(_)) => {
                        FlatView::of(std::slice::from_ref(v), &plan.data_fields)?
                    }
                    (shape, got) => {
                        return Err(VmError::new(format!(
                            "kernel data mismatch: expected {shape:?}, got {got:?}"
                        )))
                    }
                };
                let mode = match split.as_ref().filter(|_| !host.migrated()) {
                    Some((dim, secondary)) => DispatchMode::Coexec {
                        secondary,
                        dim: *dim,
                        cfg: &coexec_cfg,
                    },
                    None => DispatchMode::Single,
                };
                let out = host
                    .request(&view, &launch, mode)
                    .map_err(|e| VmError::device("kernel request failed", &e))?;
                let fields = match plan.out {
                    KernelOut::Whole => &plan.data_fields[..],
                    KernelOut::Field(fidx) => std::slice::from_ref(&plan.data_fields[fidx]),
                };
                let mut vals = unflatten_fields(&out, fields)?;
                return Ok(match (&plan.data_shape, &plan.out) {
                    (DataShape::Struct { type_id }, KernelOut::Whole) => {
                        VmVal::Struct(*type_id, Arc::new(Mutex::new(vals)))
                    }
                    _ => vals.swap_remove(0),
                });
            }
            let VmVal::MovStruct(type_id, state) = &req.data else {
                return Err(VmError::new(
                    "kernel data of a mov type must be a mov struct value",
                ));
            };
            {
                let mut guard = state.lock();
                // Cross-context residency: read back first (the paper's
                // "different context" rule). When static analysis proved
                // every consumer of this data type lives on one device
                // (`residency_proven`), the comparison is skipped
                // entirely — the proof is the bookkeeping, up to a failover
                // it could not foresee.
                let cross = if plan.residency_proven && !host.migrated() {
                    if trace.is_enabled() && matches!(&*guard, MovState::Device { .. }) {
                        trace.record(
                            TraceEvent::instant(
                                SpanKind::ResidencyProven,
                                &plan.kernel_name,
                                host.env().device.name(),
                                host.env().queue.now_ns(),
                            )
                            .with_arg("actor", name),
                        );
                    }
                    false
                } else {
                    matches!(&*guard, MovState::Device { bufs, .. }
                        if bufs.context_id() != host.env().context.id())
                };
                if cross {
                    crate::value::bring_home(&mut guard, Some(&profile), "device")?;
                }
                if let MovState::Host(fields) = &*guard {
                    let view = FlatView::of(fields, &plan.data_fields)?;
                    let bufs = host
                        .upload(&view)
                        .map_err(|e| VmError::device("upload failed", &e))?;
                    *guard = MovState::Device {
                        bufs,
                        fields: plan.data_fields.clone(),
                    };
                }
                let MovState::Device { bufs, .. } = &mut *guard else {
                    unreachable!("uploaded above");
                };
                let dispatched = match chain_key.as_ref().filter(|_| !host.migrated()) {
                    Some((key, role)) => {
                        let mut batches = shared.batches.lock();
                        // A batch closes (recording its BatchFused
                        // instant) at the cap, or when a fresh
                        // traversal starts and the chain does not
                        // loop — a looping chain's site 0 continues
                        // the previous iteration's batch.
                        let stale = batches.get(key).is_some_and(|b| {
                            b.launches() as usize >= coexec_cfg.batch_cap
                                || (role.index == 0 && !role.loops)
                        });
                        if stale {
                            batches.remove(key);
                        }
                        let batch = batches
                            .entry(key.clone())
                            .or_insert_with(|| host.env().queue.open_batch());
                        host.dispatch(bufs, &launch, DispatchMode::Batched(batch))
                    }
                    None => host.dispatch(bufs, &launch, DispatchMode::Single),
                };
                dispatched.map_err(|e| VmError::device("dispatch failed", &e))?;
            }
            // The value is device-resident now: hand the accountant an
            // eviction handle (after releasing the state lock — the
            // hook may inspect residency, which uses `try_lock`).
            if let Some(hook) = shared.resident_hook.lock().clone() {
                hook(EvictableMov::new(Arc::clone(state)));
            }
            Ok(VmVal::MovStruct(*type_id, Arc::clone(state)))
        });
        match done {
            Ok(true) => {}
            Ok(false) => return Ok(()),
            // An injected kill: exit abruptly with the item still parked —
            // the supervisor restarts this actor and the next incarnation
            // redelivers. No poison: downstream just waits out the gap.
            Err(e) if e.class == ErrorClass::Killed => return Err(e),
            // Any other error that survived the retry layer poisons the
            // output channel before this actor exits, so downstream
            // receivers observe a typed failure instead of blocking
            // forever.
            Err(e) => {
                eprintln!("[vm/{name}] unrecoverable error: {e}; tearing down pipeline");
                ckpt.abandon();
                return Err(e);
            }
        }
    }
}
