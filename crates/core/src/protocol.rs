//! The kernel-actor host protocol (§6.1, Figure 2) — once.
//!
//! Every kernel actor, whichever front end built it, plays the same host
//! role: resolve an environment and build the kernel, upload the data,
//! bind and enqueue, recover from faults, read the results back. This
//! module is the only place that does any of it:
//!
//! * [`KernelHost::open`] resolves a [`KernelSpec`]'s device through a
//!   [`ResolveEnv`] and builds its kernel (transient refusals retried,
//!   permanent ones failed over to the lane that resolver names next);
//! * [`KernelHost::upload`] moves a [`FlatSource`] — a [`FlatData`], or a
//!   front end's own view of its values — into [`ResidentBufs`], one
//!   pass per segment straight into the buffer, retrying per segment;
//! * [`KernelHost::dispatch`] binds buffers → dims → `int` scalars →
//!   `float` scalars and enqueues under a [`DispatchMode`], retrying
//!   transients and, on a permanent device error, evacuating the data
//!   through the read-back rescue path, migrating to the resolver's next
//!   lane and re-dispatching there;
//! * [`KernelHost::request`] is the copy-channel round trip: upload,
//!   dispatch, read the spec's output segments back;
//! * [`ResidentBufs`] owns its share of the context's memory accounting
//!   and gives it back on drop, so no error return and no kill-panic
//!   unwinding out of any of the above can leak simulated device memory.
//!
//! The typed Rust API ([`crate::kernel_actor`]) and the Ensemble VM's
//! `opencl` actors are front ends over it: they decode their own settings
//! and data representations and decide the [`DispatchMode`]; everything
//! that touches a queue happens here. [`crate::checkpoint`] is the
//! protocol's restart state machine.

use crate::env::{DeviceSel, OpenClEnvironment, ResolveEnv};
use crate::flatten::{FlatData, FlatSeg, FlatSource, SegTy};
use crate::profile::ProfileSink;
use crate::recovery::{record_failover, should_fail_over, with_retry, RecoveryPolicy};
use crate::settings::nd_from;
use oclsim::{
    co_enqueue, Buffer, ClError, ClResult, CoexecConfig, CommandQueue, Context, DispatchBatch,
    Kernel, MemFlags, Program,
};
use std::sync::Arc;
use trace::{SpanKind, TraceEvent};

/// Static description of a kernel actor: what to compile, where to run it,
/// and how its output maps back onto the input's flattened form.
#[derive(Debug, Clone)]
pub struct KernelSpec {
    /// Mini OpenCL-C source (the string the Ensemble compiler would have
    /// generated from the actor's behaviour clause).
    pub source: String,
    /// `__kernel` entry point name.
    pub kernel_name: String,
    /// Device selection from the actor declaration.
    pub device: DeviceSel,
    /// Indices of the input's flattened segments that form the output
    /// (e.g. matmul sends only the result matrix onward).
    pub out_segs: Vec<usize>,
    /// Indices into the input's `dims` that describe the output's shape.
    pub out_dims: Vec<usize>,
    /// Where transfer/kernel times are recorded.
    pub profile: ProfileSink,
    /// How the actor responds to simulator errors: bounded retry with
    /// virtual-clock backoff for transient faults, device failover for
    /// permanent ones (see [`crate::recovery`]).
    pub recovery: RecoveryPolicy,
}

impl KernelSpec {
    /// Spec with output = the entire input (in-place kernels).
    pub fn in_place(
        source: impl Into<String>,
        kernel_name: impl Into<String>,
        device: DeviceSel,
    ) -> KernelSpec {
        KernelSpec {
            source: source.into(),
            kernel_name: kernel_name.into(),
            device,
            out_segs: Vec::new(),
            out_dims: Vec::new(),
            profile: ProfileSink::new(),
            recovery: RecoveryPolicy::default(),
        }
    }
}

/// Buffers holding a value's flattened segments on one device.
///
/// Owns the bytes its buffers charged to the context's budget: dropping
/// the value — on any path, including a kill-panic unwinding through a
/// half-finished upload or dispatch — releases them. Not `Clone`, so the
/// accounting has exactly one owner.
#[derive(Debug)]
pub struct ResidentBufs {
    /// One buffer per flattened segment, with its element type.
    pub(crate) bufs: Vec<(Buffer, SegTy)>,
    /// The value's shape metadata.
    pub(crate) dims: Vec<i32>,
    /// Context the buffers belong to.
    pub(crate) context: Context,
    /// The device's (single) queue — used for forced read-backs.
    pub(crate) queue: CommandQueue,
}

impl Drop for ResidentBufs {
    fn drop(&mut self) {
        self.context.release_bytes(self.device_bytes());
    }
}

impl ResidentBufs {
    /// Upload `src` into fresh buffers on `env`, charging the transfers
    /// to `profile`. Each segment's write retries transients on its own,
    /// so a refusal on a late segment never re-sends (or re-charges) the
    /// earlier ones. Every buffer joins the value before it is written,
    /// so an error or unwind mid-upload releases what was allocated.
    pub(crate) fn upload(
        env: &OpenClEnvironment,
        src: &dyn FlatSource,
        policy: &RecoveryPolicy,
        profile: &ProfileSink,
    ) -> ClResult<ResidentBufs> {
        let mut rb = ResidentBufs {
            bufs: Vec::with_capacity(src.seg_count()),
            dims: src.dims().to_vec(),
            context: env.context.clone(),
            queue: env.queue.clone(),
        };
        let device = env.device.name();
        for idx in 0..src.seg_count() {
            let (ty, len) = src.seg_shape(idx);
            let buf = env.context.create_buffer(MemFlags::ReadWrite, len * 4)?;
            rb.bufs.push((buf.clone(), ty));
            // The source converts its elements straight into the buffer's
            // storage; a retry runs the fill again.
            let ev = with_retry(policy, &env.queue, device, profile, "upload", || {
                env.queue
                    .write_with(&buf, len * 4, |dst| src.fill(idx, dst))
            })?;
            profile.record_command(&ev, device);
        }
        Ok(rb)
    }

    /// Total bytes held on the device.
    pub fn device_bytes(&self) -> usize {
        self.bufs.iter().map(|(b, _)| b.len()).sum()
    }

    /// Id of the context the buffers belong to (§6.2.3: residency
    /// survives a hop only within one context).
    pub fn context_id(&self) -> u64 {
        self.context.id()
    }

    /// Id of the device holding the buffers.
    pub fn device_id(&self) -> usize {
        self.queue.device().id()
    }

    /// Read the segments named by `which` back to the host, in order —
    /// the one read-back loop. Typed reads convert device bytes to
    /// elements in a single pass under the buffer lock; each read retries
    /// transients under `policy` (named `what` on the trace) and is
    /// charged to `profile`. Read-backs stay available on a lost device,
    /// so this is also the path data is evacuated through.
    fn read_segs(
        &self,
        which: impl IntoIterator<Item = usize>,
        policy: &RecoveryPolicy,
        profile: &ProfileSink,
        what: &str,
    ) -> ClResult<Vec<FlatSeg>> {
        let device = self.queue.device().name();
        which
            .into_iter()
            .map(|idx| {
                let (buf, ty) = &self.bufs[idx];
                let (seg, ev) =
                    with_retry(policy, &self.queue, device, profile, what, || match ty {
                        SegTy::F32 => self
                            .queue
                            .read_f32(buf)
                            .map(|(v, ev)| (FlatSeg::F32(v), ev)),
                        SegTy::I32 => self
                            .queue
                            .read_i32(buf)
                            .map(|(v, ev)| (FlatSeg::I32(v), ev)),
                    })?;
                profile.record_command(&ev, device);
                Ok(seg)
            })
            .collect()
    }

    fn read_all(
        &self,
        policy: &RecoveryPolicy,
        profile: &ProfileSink,
        what: &str,
    ) -> ClResult<FlatData> {
        Ok(FlatData {
            segs: self.read_segs(0..self.bufs.len(), policy, profile, what)?,
            dims: self.dims.clone(),
        })
    }

    /// Read every segment back to the host, charging the transfer to
    /// `profile`. Transient device faults are retried with the default
    /// [`RecoveryPolicy`]. The device memory is released when the value
    /// is dropped — a failed read leaves it intact.
    pub fn read_back(&self, profile: Option<&ProfileSink>) -> ClResult<FlatData> {
        let quiet = ProfileSink::new();
        self.read_all(
            &RecoveryPolicy::default(),
            profile.unwrap_or(&quiet),
            "readback",
        )
    }
}

/// One dispatch's launch geometry and scalar arguments.
#[derive(Debug, Clone, Copy)]
pub struct Launch<'a> {
    /// Global work size per dimension.
    pub worksize: &'a [usize],
    /// Local work size per dimension.
    pub groupsize: &'a [usize],
    /// `int` scalars bound after the buffers and shape dims.
    pub ints: &'a [i32],
    /// `float` scalars bound after the `int` scalars.
    pub floats: &'a [f32],
}

/// How a dispatch reaches the device. The *decision* belongs to the front
/// end (the VM derives it from compile-time proofs and its
/// [`CoexecConfig`]; the Rust API has no proofs and always says
/// [`DispatchMode::Single`]); the protocol only executes it.
#[derive(Debug)]
pub enum DispatchMode<'a> {
    /// Plain single-device enqueue.
    Single,
    /// Co-execution: split the NDRange along `dim` (proven splittable)
    /// across the host's queue and a secondary device lane. Dispatches
    /// under `cfg.min_items` work-items stay on one device, where the
    /// secondary's transfer latency would dominate any split.
    Coexec {
        /// The second device lane.
        secondary: &'a OpenClEnvironment,
        /// The dimension to split along.
        dim: usize,
        /// The configuration whose `min_items` floor applies.
        cfg: &'a CoexecConfig,
    },
    /// Append to an open batched-dispatch session of the kernel's proven
    /// fusion chain (launch overhead charged once per batch).
    Batched(&'a mut DispatchBatch),
}

/// A kernel actor's host role: the environment its [`KernelSpec`]
/// resolved to (possibly migrated since), the kernel built there, and the
/// resolver both came from — which is also where a failed lane's work
/// goes next.
pub struct KernelHost {
    spec: KernelSpec,
    resolver: Arc<dyn ResolveEnv>,
    env: OpenClEnvironment,
    kernel: Kernel,
    /// Context of the lane the host was opened on.
    opened_on: u64,
}

/// Abandon `from` after `error`: record the failover instant and return
/// the lane `resolver` names next — or `error` itself when none follows.
fn next_env(
    spec: &KernelSpec,
    resolver: &dyn ResolveEnv,
    from: &OpenClEnvironment,
    error: &ClError,
) -> ClResult<OpenClEnvironment> {
    let next = resolver.failover(from).ok_or_else(|| error.clone())?;
    record_failover(&spec.profile, from, &next, &spec.kernel_name, error);
    Ok(next)
}

/// Build the spec's kernel on `env`, retrying transient build refusals
/// and walking `resolver`'s failover order while devices refuse
/// permanently.
fn build_from(
    spec: &KernelSpec,
    resolver: &dyn ResolveEnv,
    mut env: OpenClEnvironment,
) -> ClResult<(OpenClEnvironment, Kernel)> {
    loop {
        let built = with_retry(
            &spec.recovery,
            &env.queue,
            env.device.name(),
            &spec.profile,
            "build",
            || Program::build_on(&env.queue, &spec.source),
        )
        .and_then(|program| program.create_kernel(&spec.kernel_name));
        match built {
            Ok(kernel) => return Ok((env, kernel)),
            Err(e) if should_fail_over(&e) => env = next_env(spec, resolver, &env, &e)?,
            Err(e) => return Err(e),
        }
    }
}

impl KernelHost {
    /// Resolve `spec.device` through `resolver` and build the kernel. The
    /// host keeps `resolver`: failover only ever moves to its lanes.
    pub fn open(spec: KernelSpec, resolver: Arc<dyn ResolveEnv>) -> ClResult<KernelHost> {
        let (env, kernel) = build_from(&spec, &*resolver, resolver.resolve(spec.device)?)?;
        let opened_on = env.context.id();
        Ok(KernelHost {
            spec,
            resolver,
            env,
            kernel,
            opened_on,
        })
    }

    /// The spec this host was opened for.
    pub fn spec(&self) -> &KernelSpec {
        &self.spec
    }

    /// The environment dispatches currently go through.
    pub fn env(&self) -> &OpenClEnvironment {
        &self.env
    }

    /// Whether a dispatch or upload failed over since [`KernelHost::open`].
    /// Whatever a front end decided from the opened lane — a co-execution
    /// secondary, a batch session, a residency proof — no longer holds.
    pub fn migrated(&self) -> bool {
        self.env.context.id() != self.opened_on
    }

    /// Record an instant of `kind` for this host's kernel on its device
    /// track, at the device's current virtual time. No-op when the spec's
    /// profile carries no trace.
    fn instant(&self, kind: SpanKind, actor: &str, seq: Option<u64>) {
        let t = self.spec.profile.trace();
        if t.is_enabled() {
            let mut ev = TraceEvent::instant(
                kind,
                &self.spec.kernel_name,
                self.env.device.name(),
                self.env.queue.now_ns(),
            )
            .with_arg("actor", actor);
            if let Some(seq) = seq {
                ev = ev.with_arg("seq", seq);
            }
            t.record(ev);
        }
    }

    /// Mark the `invokenative` boundary: the actor accepted a request and
    /// entered native dispatch code. [`crate::Checkpoint::drive`] marks it
    /// for the requests it runs; call this for one that bypasses it.
    pub fn invoke_native(&self, actor: &str) {
        self.instant(SpanKind::InvokeNative, actor, None);
    }

    /// Mark a redelivery: a restarted actor picked parked item `seq` back
    /// up.
    pub(crate) fn checkpoint_restore(&self, actor: &str, seq: u64) {
        self.instant(SpanKind::CheckpointRestore, actor, Some(seq));
    }

    /// Abandon the current device after `error` and rebuild the kernel on
    /// the resolver's next lane.
    fn fail_over(&mut self, error: &ClError) -> ClResult<()> {
        let next = next_env(&self.spec, &*self.resolver, &self.env, error)?;
        (self.env, self.kernel) = build_from(&self.spec, &*self.resolver, next)?;
        Ok(())
    }

    /// Upload `src` to the current device, failing over (and uploading
    /// there instead) if the device refuses permanently.
    pub fn upload(&mut self, src: &dyn FlatSource) -> ClResult<ResidentBufs> {
        loop {
            match ResidentBufs::upload(&self.env, src, &self.spec.recovery, &self.spec.profile) {
                Err(e) if should_fail_over(&e) => self.fail_over(&e)?,
                done => return done,
            }
        }
    }

    /// Bind `bufs` and the launch's scalars, then enqueue under `mode`
    /// with transient refusals retried.
    fn enqueue(
        &self,
        bufs: &ResidentBufs,
        launch: &Launch<'_>,
        mode: &mut DispatchMode<'_>,
    ) -> ClResult<()> {
        let kernel = &self.kernel;
        let mut arg = 0usize;
        for (buf, _) in &bufs.bufs {
            kernel.set_arg_buffer(arg, buf)?;
            arg += 1;
        }
        for x in bufs.dims.iter().chain(launch.ints) {
            kernel.set_arg_i32(arg, *x)?;
            arg += 1;
        }
        for x in launch.floats {
            kernel.set_arg_f32(arg, *x)?;
            arg += 1;
        }
        let nd = nd_from(launch.worksize, launch.groupsize)?;
        if let DispatchMode::Coexec { cfg, .. } = *mode {
            if launch.worksize.iter().product::<usize>() < cfg.min_items {
                *mode = DispatchMode::Single;
            }
        }
        let queue = &self.env.queue;
        let device = self.env.device.name();
        let spec = &self.spec;
        let ev = with_retry(
            &spec.recovery,
            queue,
            device,
            &spec.profile,
            &spec.kernel_name,
            || match &mut *mode {
                DispatchMode::Single => queue.enqueue_nd_range(kernel, &nd),
                DispatchMode::Coexec { secondary, dim, .. } => {
                    co_enqueue(queue, &secondary.queue, kernel, &nd, *dim)
                }
                DispatchMode::Batched(batch) => batch.enqueue_nd_range(kernel, &nd),
            },
        )?;
        spec.profile.record_command(&ev, device);
        Ok(())
    }

    /// Dispatch the kernel over `bufs` in place. A permanent device error
    /// evacuates the data (and any partial output) through the read-back
    /// rescue path, migrates to the resolver's next lane, re-uploads into
    /// `bufs` and re-dispatches there — plainly: the batch session or
    /// secondary lane of `mode` belonged to the abandoned device. Buffers
    /// of another context (a neighbour failed over after a front end
    /// proved they could not be) move to this one first: no kernel is
    /// handed a foreign buffer. On any error `bufs` is left to its owner.
    pub fn dispatch(
        &mut self,
        bufs: &mut ResidentBufs,
        launch: &Launch<'_>,
        mut mode: DispatchMode<'_>,
    ) -> ClResult<()> {
        if bufs.context_id() != self.env.context.id() {
            let flat = bufs.read_all(&self.spec.recovery, &self.spec.profile, "rescue")?;
            *bufs = self.upload(&flat)?;
        }
        loop {
            match self.enqueue(bufs, launch, &mut mode) {
                Err(e) if should_fail_over(&e) => {
                    let flat = bufs.read_all(&self.spec.recovery, &self.spec.profile, "rescue")?;
                    self.fail_over(&e)?;
                    *bufs = self.upload(&flat)?;
                    mode = DispatchMode::Single;
                }
                done => return done,
            }
        }
    }

    /// The copy-channel round trip: upload `src`, dispatch, and read the
    /// spec's `out_segs` (with the dims named by `out_dims`) back. Nothing
    /// stays on the device: the buffers are released on every exit.
    pub fn request(
        &mut self,
        src: &dyn FlatSource,
        launch: &Launch<'_>,
        mode: DispatchMode<'_>,
    ) -> ClResult<FlatData> {
        let mut bufs = self.upload(src)?;
        self.dispatch(&mut bufs, launch, mode)?;
        let spec = &self.spec;
        Ok(FlatData {
            segs: bufs.read_segs(
                spec.out_segs.iter().copied(),
                &spec.recovery,
                &spec.profile,
                "readback",
            )?,
            dims: spec.out_dims.iter().map(|&i| bufs.dims[i]).collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::private_gpu_env;
    use crate::flatten::Flatten;
    use oclsim::fault::{FaultInjector, FaultOp, FaultPlan, InjectedFault};
    use trace::TraceSink;

    /// Resolves every selection onto one lane; nothing follows it.
    struct OneLane(OpenClEnvironment);

    impl ResolveEnv for OneLane {
        fn resolve(&self, _sel: DeviceSel) -> ClResult<OpenClEnvironment> {
            Ok(self.0.clone())
        }
    }

    #[test]
    fn an_exhausted_failover_reports_the_error_that_caused_it() {
        let env = private_gpu_env();
        env.context
            .attach_faults(FaultInjector::new(FaultPlan::new().fail(
                FaultOp::Enqueue,
                0,
                InjectedFault::DeviceLost,
            )));
        let sink = TraceSink::new();
        let spec = KernelSpec {
            profile: ProfileSink::new().with_trace(sink.clone()),
            ..KernelSpec::in_place(
                "__kernel void k(__global float* a, const int n) {}",
                "k",
                DeviceSel::gpu(),
            )
        };
        let mut host = KernelHost::open(spec, Arc::new(OneLane(env.clone()))).unwrap();
        let launch = Launch {
            worksize: &[4],
            groupsize: &[4],
            ints: &[],
            floats: &[],
        };
        let refused = host.request(&vec![1.0f32; 4].flatten(), &launch, DispatchMode::Single);
        assert!(
            matches!(refused, Err(ClError::DeviceLost { .. })),
            "{refused:?}"
        );
        let failovers = sink
            .events()
            .iter()
            .filter(|e| e.kind == SpanKind::Failover)
            .count();
        assert_eq!(failovers, 0);
        assert!(!host.migrated());
        assert_eq!(env.context.allocated_bytes(), 0);
    }

    #[test]
    fn a_build_fault_is_stamped_at_the_lanes_clock() {
        let env = private_gpu_env();
        let injector =
            FaultInjector::new(FaultPlan::new().fail(FaultOp::Build, 0, InjectedFault::Transient));
        let sink = TraceSink::new();
        injector.attach_trace(sink.clone());
        env.context.attach_faults(injector);
        let flat = vec![1.0f32; 8].flatten();
        let bufs = ResidentBufs::upload(&env, &flat, &RecoveryPolicy::none(), &ProfileSink::new())
            .unwrap();
        let clock = env.queue.now_ns();
        assert!(clock > 0.0);
        let spec = KernelSpec::in_place(
            "__kernel void k(__global float* a) {}",
            "k",
            DeviceSel::gpu(),
        );
        KernelHost::open(spec, Arc::new(OneLane(env.clone()))).unwrap();
        let stamps: Vec<f64> = sink
            .events()
            .iter()
            .filter(|e| e.kind == SpanKind::FaultInjected)
            .map(|e| e.ts_ns)
            .collect();
        assert_eq!(
            stamps,
            [clock],
            "the retried build fault sits at the lane's clock"
        );
        drop(bufs);
    }

    #[test]
    fn resident_bufs_give_their_accounting_back_on_drop() {
        let env = private_gpu_env();
        let flat = (vec![1.0f32; 8], vec![2i32; 4]).flatten();
        let bufs = ResidentBufs::upload(&env, &flat, &RecoveryPolicy::none(), &ProfileSink::new())
            .unwrap();
        assert_eq!(bufs.device_bytes(), 48);
        assert_eq!(env.context.allocated_bytes(), 48);
        drop(bufs);
        assert_eq!(env.context.allocated_bytes(), 0);
    }

    #[test]
    fn a_failed_upload_releases_what_it_had_allocated() {
        let env = private_gpu_env();
        env.context
            .attach_faults(FaultInjector::new(FaultPlan::new().fail(
                FaultOp::Upload,
                1,
                InjectedFault::DeviceLost,
            )));
        let flat = (vec![1.0f32; 8], vec![2i32; 4]).flatten();
        let refused =
            ResidentBufs::upload(&env, &flat, &RecoveryPolicy::none(), &ProfileSink::new());
        assert!(
            matches!(refused, Err(ClError::DeviceLost { .. })),
            "{refused:?}"
        );
        assert_eq!(env.context.allocated_bytes(), 0);
    }
}
