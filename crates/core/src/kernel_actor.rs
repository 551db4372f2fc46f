//! Kernel actors: OpenCL kernels represented as actors (§6).
//!
//! A kernel actor presents a single channel carrying a [`Settings`] struct.
//! Its behaviour is the protocol the Ensemble compiler enforces:
//!
//! 1. `receive req from requests` — the settings (worksizes + channels);
//! 2. `receive d from req.input` — the data;
//! 3. *the kernel body* — here, a mini OpenCL-C kernel dispatched through
//!    [`oclsim`] on the device named in the actor's [`DeviceSel`];
//! 4. `send result on req.output` — the processed data onward.
//!
//! The actor's bytecode-interpreted host role from Figure 2 of the paper is
//! played by the actor thread: it prepares buffers, launches the kernel and
//! collects results, so multiple kernel actors can share one device, and
//! changing the target device is a one-line change to the `DeviceSel`.
//!
//! Two flavours mirror the paper's two channel modes:
//!
//! * [`KernelActor`] — plain channels: data is copied to the device and the
//!   outputs are copied back on every message (shared-nothing semantics).
//! * [`ResidentKernelActor`] — `mov` channels: messages are
//!   [`DeviceData`] values; outputs stay on the device and inputs already
//!   resident in the actor's context are used in place (§6.2.3).

use crate::checkpoint::{Checkpoint, InFlight, MemGuard};
use crate::env::{DeviceSel, OpenClEnvironment};
use crate::flatten::{FlatData, Flatten};
use crate::profile::ProfileSink;
use crate::recovery::{record_failover, with_retry, RecoveryPolicy};
use crate::resident::{DeviceData, Dispatchable, ResidentBufs};
use crate::settings::Settings;
use ensemble_actors::{Actor, ActorCtx, Control, In};
use oclsim::{ClError, ClResult, Kernel, MemFlags, Program};
use std::marker::PhantomData;
use std::sync::Arc;

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

/// Upload a flattened value into fresh device buffers, charging the
/// transfers to `profile`. A [`MemGuard`] holds the memory accounting
/// until every segment has landed, so a failed — or *killed*, i.e.
/// panicked mid-upload — attempt releases whatever it had already
/// charged instead of leaking simulated device memory.
pub(crate) fn upload_flat(
    env: &OpenClEnvironment,
    flat: &FlatData,
    profile: &ProfileSink,
) -> ClResult<ResidentBufs> {
    let mut bufs = Vec::with_capacity(flat.segs.len());
    let mut guard = MemGuard::new(env.context.clone());
    for seg in &flat.segs {
        let buf = env.context.create_buffer(MemFlags::ReadWrite, seg.byte_len())?;
        guard.add(buf.len());
        let ev = seg.upload(&env.queue, &buf)?;
        profile.record_command(&ev, env.device.name());
        bufs.push((buf, seg.ty()));
    }
    guard.disarm();
    Ok(ResidentBufs {
        bufs,
        dims: flat.dims.clone(),
        context: env.context.clone(),
        queue: env.queue.clone(),
    })
}

#[allow(clippy::too_many_arguments)]
fn bind_and_dispatch(
    env: &OpenClEnvironment,
    kernel: &Kernel,
    rb: &ResidentBufs,
    worksize: &[usize],
    groupsize: &[usize],
    extra_args: &[i32],
    extra_f32: &[f32],
    profile: &ProfileSink,
) -> ClResult<()> {
    let mut arg = 0usize;
    for (buf, _) in &rb.bufs {
        kernel.set_arg_buffer(arg, buf)?;
        arg += 1;
    }
    for d in &rb.dims {
        kernel.set_arg_i32(arg, *d)?;
        arg += 1;
    }
    for x in extra_args {
        kernel.set_arg_i32(arg, *x)?;
        arg += 1;
    }
    for x in extra_f32 {
        kernel.set_arg_f32(arg, *x)?;
        arg += 1;
    }
    let nd = crate::settings::nd_from(worksize, groupsize)?;
    let ev = env.queue.enqueue_nd_range(kernel, &nd)?;
    profile.record_command(&ev, env.device.name());
    Ok(())
}

/// Mark the `invokenative` boundary: the instant (on the device's virtual
/// clock) at which a kernel actor accepted a request and entered native
/// dispatch code. No-op when the spec's profile carries no trace.
fn trace_invoke(spec: &KernelSpec, env: &OpenClEnvironment, actor: &str) {
    let t = spec.profile.trace();
    if t.is_enabled() {
        t.record(
            trace::TraceEvent::instant(
                trace::SpanKind::InvokeNative,
                &spec.kernel_name,
                env.device.name(),
                env.queue.now_ns(),
            )
            .with_arg("actor", actor),
        );
    }
}

struct Compiled {
    env: OpenClEnvironment,
    kernel: Kernel,
}

/// Build the spec's program for one specific environment, retrying
/// transient build refusals.
fn compile_on(env: &OpenClEnvironment, spec: &KernelSpec) -> ClResult<Kernel> {
    let program = with_retry(
        &spec.recovery,
        &env.queue,
        env.device.name(),
        &spec.profile,
        "build",
        || Program::build(&env.context, &spec.source),
    )?;
    program.create_kernel(&spec.kernel_name)
}

/// Resolve the declared device and compile, walking the failover chain if
/// the declared device refuses permanently.
fn compile(spec: &KernelSpec) -> ClResult<Compiled> {
    let mut env = OpenClEnvironment::resolve(spec.device)?;
    loop {
        match compile_on(&env, spec) {
            Ok(kernel) => return Ok(Compiled { env, kernel }),
            Err(e) if spec.recovery.should_fail_over(&e) => {
                let next = env.failover()?;
                record_failover(&spec.profile, &env, &next, &spec.kernel_name, &e);
                env = next;
            }
            Err(e) => return Err(e),
        }
    }
}

/// Abandon `c.env`'s device: record the failover instant, move to the next
/// device-matrix entry, and recompile the kernel there.
fn fail_over(c: &mut Compiled, spec: &KernelSpec, error: &ClError) -> ClResult<()> {
    let next = c.env.failover()?;
    record_failover(&spec.profile, &c.env, &next, &spec.kernel_name, error);
    let kernel = compile_on(&next, spec)?;
    *c = Compiled { env: next, kernel };
    Ok(())
}

/// Evacuate `rb` off a (possibly failing) device through the read-back
/// rescue path — [`oclsim`] keeps read-backs working after `DeviceLost`
/// precisely so this can succeed — and release its memory accounting.
fn rescue_read_back(spec: &KernelSpec, rb: &ResidentBufs) -> ClResult<FlatData> {
    let device = rb.queue.device().name().to_string();
    let mut segs = Vec::with_capacity(rb.bufs.len());
    let mut result = Ok(());
    for (buf, ty) in &rb.bufs {
        let read = with_retry(
            &spec.recovery,
            &rb.queue,
            &device,
            &spec.profile,
            "rescue",
            || crate::resident::read_seg(&rb.queue, buf, *ty),
        );
        match read {
            Ok((seg, ev)) => {
                spec.profile.record_command(&ev, &device);
                segs.push(seg);
            }
            Err(e) => {
                result = Err(e);
                break;
            }
        }
    }
    rb.context.release_bytes(rb.device_bytes());
    result?;
    Ok(FlatData {
        segs,
        dims: rb.dims.clone(),
    })
}

/// Upload (when the input is host-side) and dispatch under the spec's
/// recovery policy: transient errors are retried with backoff; permanent
/// device errors evacuate the data, fail over to the next matrix entry
/// (recompiling there), and re-dispatch. On success the returned buffers
/// are resident on `c.env`'s — possibly migrated — device.
#[allow(clippy::too_many_arguments)]
fn dispatch_with_recovery(
    c: &mut Compiled,
    spec: &KernelSpec,
    worksize: &[usize],
    groupsize: &[usize],
    extra_args: &[i32],
    extra_f32: &[f32],
    input: Dispatchable,
) -> ClResult<ResidentBufs> {
    let mut input = input;
    loop {
        let rb = match input {
            Dispatchable::Resident(rb) => rb,
            Dispatchable::Host(flat) => {
                let uploaded = with_retry(
                    &spec.recovery,
                    &c.env.queue,
                    c.env.device.name(),
                    &spec.profile,
                    "upload",
                    || upload_flat(&c.env, &flat, &spec.profile),
                );
                match uploaded {
                    Ok(rb) => rb,
                    Err(e) if spec.recovery.should_fail_over(&e) => {
                        fail_over(c, spec, &e)?;
                        input = Dispatchable::Host(flat);
                        continue;
                    }
                    Err(e) => return Err(e),
                }
            }
        };
        let dispatched = with_retry(
            &spec.recovery,
            &c.env.queue,
            c.env.device.name(),
            &spec.profile,
            &spec.kernel_name,
            || {
                bind_and_dispatch(
                    &c.env,
                    &c.kernel,
                    &rb,
                    worksize,
                    groupsize,
                    extra_args,
                    extra_f32,
                    &spec.profile,
                )
            },
        );
        match dispatched {
            Ok(()) => return Ok(rb),
            Err(e) if spec.recovery.should_fail_over(&e) => {
                // The input (and any partial output) lives on the failing
                // device: evacuate it, then migrate and re-dispatch.
                let flat = rescue_read_back(spec, &rb)?;
                drop(rb);
                fail_over(c, spec, &e)?;
                input = Dispatchable::Host(flat);
            }
            Err(e) => {
                rb.context.release_bytes(rb.device_bytes());
                return Err(e);
            }
        }
    }
}

/// A kernel actor with plain (copying) channels.
///
/// `TIn` is the message type received on the settings' input channel; its
/// flattened segments become the kernel's buffer arguments (followed by the
/// dims and any per-dispatch `extra_args` as `int` scalars). After the
/// dispatch, the segments named by `spec.out_segs` are read back, rebuilt
/// as `TOut`, and sent on the output channel.
pub struct KernelActor<TIn: Flatten, TOut: Flatten> {
    spec: KernelSpec,
    /// Shared so a supervisor's factory can hand the *same* endpoint to
    /// each restarted incarnation (`In` is single-consumer but the
    /// incarnations are sequential, never concurrent).
    requests: Arc<In<Settings<TIn, TOut>>>,
    /// When present, every accepted request is parked here until its
    /// result is sent — the restart checkpoint (see [`crate::checkpoint`]).
    checkpoint: Option<Checkpoint<TIn, TOut>>,
    compiled: Option<ClResult<Compiled>>,
    _marker: PhantomData<fn(TIn) -> TOut>,
}

impl<TIn: Flatten, TOut: Flatten> KernelActor<TIn, TOut> {
    /// Create the actor; `requests` is its single (interface) channel.
    pub fn new(spec: KernelSpec, requests: In<Settings<TIn, TOut>>) -> Self {
        Self::shared(spec, Arc::new(requests))
    }

    /// Like [`KernelActor::new`], but with a shared request endpoint — the
    /// form a supervisor's child factory uses so the channel survives the
    /// actor being killed and rebuilt.
    pub fn shared(spec: KernelSpec, requests: Arc<In<Settings<TIn, TOut>>>) -> Self {
        KernelActor {
            spec,
            requests,
            checkpoint: None,
            compiled: None,
            _marker: PhantomData,
        }
    }

    /// Attach a checkpoint slot: requests are then processed with
    /// at-least-once redelivery across restarts and duplicate-send
    /// suppression (see [`crate::checkpoint`]). Unrecoverable *kill*
    /// errors make the behaviour return [`Control::Fail`] instead of
    /// poisoning the pipeline, so a supervisor can restart the actor.
    pub fn with_checkpoint(mut self, checkpoint: Checkpoint<TIn, TOut>) -> Self {
        self.checkpoint = Some(checkpoint);
        self
    }
}

impl<TIn: Flatten, TOut: Flatten> KernelActor<TIn, TOut> {
    /// One request under the recovery policy: upload, dispatch, read back,
    /// rebuild the output value. Every step retries transients; upload and
    /// dispatch additionally fail over on permanent device errors.
    fn process(
        c: &mut Compiled,
        spec: &KernelSpec,
        settings: &Settings<TIn, TOut>,
        flat: FlatData,
    ) -> ClResult<TOut> {
        let rb = dispatch_with_recovery(
            c,
            spec,
            &settings.worksize,
            &settings.groupsize,
            &settings.extra_args,
            &settings.extra_f32,
            Dispatchable::Host(flat),
        )?;
        // Read back the output segments. Plain channels: nothing stays on
        // the device, so accounting is released whether reads succeed or
        // not.
        let read = (|| {
            let mut out_segs = Vec::with_capacity(spec.out_segs.len());
            for &idx in &spec.out_segs {
                let (buf, ty) = &rb.bufs[idx];
                let (seg, ev) = with_retry(
                    &spec.recovery,
                    &c.env.queue,
                    c.env.device.name(),
                    &spec.profile,
                    "readback",
                    || crate::resident::read_seg(&c.env.queue, buf, *ty),
                )?;
                spec.profile.record_command(&ev, c.env.device.name());
                out_segs.push(seg);
            }
            Ok(out_segs)
        })();
        let out_dims = spec.out_dims.iter().map(|&i| rb.dims[i]).collect();
        rb.context.release_bytes(rb.device_bytes());
        drop(rb);
        TOut::unflatten(FlatData {
            segs: read?,
            dims: out_dims,
        })
        .map_err(|e| ClError::Internal(e.to_string()))
    }
}

/// Whether `e` is an injected kill: the actor must exit abruptly (for a
/// supervisor to observe) rather than retry, fail over, or poison.
fn is_kill(e: &ClError) -> bool {
    matches!(e, ClError::ActorKilled { .. })
}

/// Emit the [`trace::SpanKind::CheckpointRestore`] instant: a restarted
/// actor picked its parked item back up and is redelivering it.
fn trace_restore(spec: &KernelSpec, env: &OpenClEnvironment, actor: &str, seq: u64) {
    let t = spec.profile.trace();
    if t.is_enabled() {
        t.record(
            trace::TraceEvent::instant(
                trace::SpanKind::CheckpointRestore,
                &spec.kernel_name,
                env.device.name(),
                env.queue.now_ns(),
            )
            .with_arg("actor", actor)
            .with_arg("seq", seq.to_string()),
        );
    }
}

impl<TIn: Flatten, TOut: Flatten> KernelActor<TIn, TOut> {
    /// Process the parked in-flight item — the single processing path for
    /// a checkpointed actor, whether the item was just accepted or is
    /// being redelivered after a restart. The item stays parked in the
    /// slot throughout, so a kill (error *or* panic) mid-processing
    /// leaves it intact for the next incarnation.
    fn drive_in_flight(&mut self, ckpt: &Checkpoint<TIn, TOut>, ctx: &ActorCtx) -> Control {
        enum Done {
            Acked,
            Kill,
            Fatal,
            DownstreamGone,
        }
        let c = match self.compiled.as_mut().expect("constructor ran") {
            Ok(c) => c,
            Err(e) => {
                eprintln!("kernel actor `{}`: compile failed: {e}", ctx.name());
                let mut state = ckpt.lock();
                if let Some(item) = state.in_flight.take() {
                    item.settings.output.poison_receivers();
                }
                return Control::Stop;
            }
        };
        let spec = &self.spec;
        let mut state = ckpt.lock();
        let done = {
            let item = state
                .in_flight
                .as_mut()
                .expect("caller checked has_in_flight");
            if item.sent {
                // Died between send and ack: the result is already
                // downstream, so just acknowledge — re-sending here is
                // the duplicate that would break byte-identity.
                Done::Acked
            } else {
                if item.attempted {
                    trace_restore(spec, &c.env, ctx.name(), item.seq);
                }
                item.attempted = true;
                trace_invoke(spec, &c.env, ctx.name());
                match Self::process(c, spec, &item.settings, item.flat.clone()) {
                    Ok(out) => {
                        if item.settings.output.send_moved(out).is_err() {
                            Done::DownstreamGone
                        } else {
                            item.sent = true;
                            Done::Acked
                        }
                    }
                    Err(e) if is_kill(&e) => Done::Kill,
                    Err(e) => {
                        eprintln!(
                            "kernel actor `{}`: unrecoverable error: {e}; tearing down pipeline",
                            ctx.name()
                        );
                        item.settings.output.poison_receivers();
                        Done::Fatal
                    }
                }
            }
        };
        match done {
            Done::Acked => {
                let seq = state.in_flight.as_ref().map(|i| i.seq);
                state.acked = seq;
                state.in_flight = None;
                Control::Continue
            }
            // The item stays parked for the next incarnation.
            Done::Kill => Control::Fail,
            Done::Fatal | Done::DownstreamGone => {
                state.in_flight = None;
                Control::Stop
            }
        }
    }
}

impl<TIn: Flatten, TOut: Flatten> Actor for KernelActor<TIn, TOut> {
    fn constructor(&mut self, _ctx: &mut ActorCtx) {
        self.compiled = Some(compile(&self.spec));
    }

    fn behaviour(&mut self, ctx: &mut ActorCtx) -> Control {
        // A restarted incarnation finds its predecessor's unacknowledged
        // item and finishes it before accepting anything new.
        if let Some(ckpt) = self.checkpoint.clone() {
            if ckpt.has_in_flight() {
                return self.drive_in_flight(&ckpt, ctx);
            }
        }
        let settings = match self.requests.receive() {
            Ok(s) => s,
            Err(_) => return Control::Stop,
        };
        if let Some(ckpt) = self.checkpoint.clone() {
            // Checkpointed accept: receive the data, park the item, then
            // process it through the same path a redelivery takes.
            let data = match settings.input.receive() {
                Ok(d) => d,
                Err(_) => {
                    settings.output.poison_receivers();
                    return Control::Stop;
                }
            };
            let mut state = ckpt.lock();
            let seq = state.next_seq;
            state.next_seq += 1;
            state.in_flight = Some(InFlight {
                seq,
                settings,
                flat: data.flatten(),
                sent: false,
                attempted: false,
            });
            drop(state);
            return self.drive_in_flight(&ckpt, ctx);
        }
        let c = match self.compiled.as_mut().expect("constructor ran") {
            Ok(c) => c,
            Err(e) => {
                eprintln!("kernel actor `{}`: compile failed: {e}", ctx.name());
                settings.output.poison_receivers();
                return Control::Stop;
            }
        };
        // Settings arrived but the data never will: the upstream stage
        // died mid-request, so propagate the teardown downstream.
        let data = match settings.input.receive() {
            Ok(d) => d,
            Err(_) => {
                settings.output.poison_receivers();
                return Control::Stop;
            }
        };
        trace_invoke(&self.spec, &c.env, ctx.name());
        match Self::process(c, &self.spec, &settings, data.flatten()) {
            Ok(out) => {
                if settings.output.send_moved(out).is_err() {
                    return Control::Stop;
                }
                Control::Continue
            }
            // An injected kill without a checkpoint: exit abruptly (no
            // poison) so a supervisor can still observe and restart; the
            // in-flight request is lost, which is exactly what the
            // checkpointed path above exists to prevent.
            Err(e) if is_kill(&e) => Control::Fail,
            Err(e) => {
                eprintln!(
                    "kernel actor `{}`: unrecoverable error: {e}; tearing down pipeline",
                    ctx.name()
                );
                settings.output.poison_receivers();
                Control::Stop
            }
        }
    }
}

/// A kernel actor whose data channels are `mov`: it consumes and produces
/// [`DeviceData`], leaving results on the device (§6.2.3).
///
/// The kernel runs **in place** over all of the value's segments; the same
/// buffers flow onward inside the output `DeviceData`, so a pipeline of
/// these actors (the paper's LUD topology, Figure 4) moves the data to the
/// device once and back once.
pub struct ResidentKernelActor<T: Flatten> {
    spec: KernelSpec,
    requests: In<Settings<DeviceData<T>, DeviceData<T>>>,
    compiled: Option<ClResult<Compiled>>,
}

impl<T: Flatten> ResidentKernelActor<T> {
    /// Create the actor; `requests` is its single (interface) channel.
    pub fn new(spec: KernelSpec, requests: In<Settings<DeviceData<T>, DeviceData<T>>>) -> Self {
        ResidentKernelActor {
            spec,
            requests,
            compiled: None,
        }
    }
}

impl<T: Flatten> Actor for ResidentKernelActor<T> {
    fn constructor(&mut self, _ctx: &mut ActorCtx) {
        self.compiled = Some(compile(&self.spec));
    }

    fn behaviour(&mut self, ctx: &mut ActorCtx) -> Control {
        let settings = match self.requests.receive() {
            Ok(s) => s,
            Err(_) => return Control::Stop,
        };
        let c = match self.compiled.as_mut().expect("constructor ran") {
            Ok(c) => c,
            Err(e) => {
                eprintln!("kernel actor `{}`: compile failed: {e}", ctx.name());
                settings.output.poison_receivers();
                return Control::Stop;
            }
        };
        let data = match settings.input.receive() {
            Ok(d) => d,
            Err(_) => {
                settings.output.poison_receivers();
                return Control::Stop;
            }
        };
        trace_invoke(&self.spec, &c.env, ctx.name());
        // §6.2.3: same context → reuse buffers; host or foreign context →
        // (read back and) upload. `dispatch_with_recovery` handles the
        // upload, retries, and any failover (a migrated value stays
        // resident on the *new* device going forward).
        let result = data
            .for_dispatch(&c.env.context, Some(&self.spec.profile))
            .and_then(|input| {
                dispatch_with_recovery(
                    c,
                    &self.spec,
                    &settings.worksize,
                    &settings.groupsize,
                    &settings.extra_args,
                    &settings.extra_f32,
                    input,
                )
            });
        match result {
            Ok(rb) => {
                if settings
                    .output
                    .send_moved(DeviceData::resident(rb))
                    .is_err()
                {
                    return Control::Stop;
                }
                Control::Continue
            }
            // Injected kill: abrupt exit for the supervisor, no poison.
            Err(e) if is_kill(&e) => Control::Fail,
            Err(e) => {
                eprintln!(
                    "kernel actor `{}`: unrecoverable error: {e}; tearing down pipeline",
                    ctx.name()
                );
                settings.output.poison_receivers();
                Control::Stop
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ensemble_actors::{buffered_channel, Out, Stage};
    use oclsim::DeviceType;

    const SCALE_SRC: &str = "__kernel void scale(__global float* data, const int n) {
        int i = get_global_id(0);
        if (i < n) { data[i] = data[i] * 2.0f; }
    }";

    fn scale_spec(profile: ProfileSink) -> KernelSpec {
        KernelSpec {
            source: SCALE_SRC.to_string(),
            kernel_name: "scale".to_string(),
            device: DeviceSel::gpu(),
            out_segs: vec![0],
            out_dims: vec![0],
            profile,
            recovery: RecoveryPolicy::default(),
        }
    }

    #[test]
    fn kernel_actor_full_protocol() {
        // The complete Listing-3 choreography: dispatch actor + kernel
        // actor connected by a requests channel; data channels created
        // dynamically and sent inside the settings struct.
        let profile = ProfileSink::new();
        let (req_out, req_in) = buffered_channel::<Settings<Vec<f32>, Vec<f32>>>(1);
        let mut stage = Stage::new("home");
        stage.spawn(
            "Multiply",
            KernelActor::new(scale_spec(profile.clone()), req_in),
        );
        let (result_out, result_in) = buffered_channel::<Vec<f32>>(1);
        stage.spawn_once("Dispatch", move |_| {
            let data_in = In::with_buffer(1);
            let data_out = Out::new();
            data_out.connect(&data_in);
            let settings = Settings::new(vec![8], vec![4], data_in, result_out);
            req_out.send_moved(settings).unwrap();
            data_out
                .send(&vec![1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
                .unwrap();
        });
        let result = result_in.receive().unwrap();
        stage.join(); // kernel actor stops when the requests channel closes
        assert_eq!(result, vec![2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0]);
        let p = profile.snapshot();
        assert!(p.to_device_ns > 0.0);
        assert!(p.from_device_ns > 0.0);
        assert!(p.kernel_ns > 0.0);
        assert_eq!(p.dispatches, 1);
    }

    #[test]
    fn resident_pipeline_skips_intermediate_transfers() {
        // Two mov kernel actors in series on the same device: the value
        // crosses the host boundary exactly twice (up once, down once).
        let profile = ProfileSink::new();
        let (req1_out, req1_in) = buffered_channel(1);
        let (req2_out, req2_in) = buffered_channel(1);
        let mut stage = Stage::new("home");
        stage.spawn(
            "k1",
            ResidentKernelActor::<Vec<f32>>::new(
                KernelSpec {
                    out_segs: vec![],
                    out_dims: vec![],
                    ..scale_spec(profile.clone())
                },
                req1_in,
            ),
        );
        stage.spawn(
            "k2",
            ResidentKernelActor::<Vec<f32>>::new(
                KernelSpec {
                    out_segs: vec![],
                    out_dims: vec![],
                    ..scale_spec(profile.clone())
                },
                req2_in,
            ),
        );
        let (final_out, final_in) = buffered_channel::<DeviceData<Vec<f32>>>(1);
        let p2 = profile.clone();
        stage.spawn_once("controller", move |_| {
            // Plumb: controller -> k1 -> k2 -> controller (Figure 4).
            let k1_data = In::with_buffer(1);
            let to_k1 = Out::new();
            to_k1.connect(&k1_data);
            let k2_data = In::with_buffer(1);
            let k1_to_k2 = Out::new();
            k1_to_k2.connect(&k2_data);
            req1_out
                .send_moved(Settings::new(vec![4], vec![4], k1_data, k1_to_k2))
                .unwrap();
            req2_out
                .send_moved(Settings::new(vec![4], vec![4], k2_data, final_out))
                .unwrap();
            to_k1
                .send_moved(DeviceData::host(vec![1.0f32, 2.0, 3.0, 4.0]))
                .unwrap();
        });
        let result = final_in.receive().unwrap();
        assert!(result.is_resident());
        let values = result.into_host_profiled(Some(&p2)).unwrap();
        stage.join();
        assert_eq!(values, vec![4.0, 8.0, 12.0, 16.0]);
        let p = profile.snapshot();
        assert_eq!(p.dispatches, 2);
        // One upload (16 bytes) and one final download — no transfer
        // between the two kernels. Transfer cost is affine, so a second
        // hop would have doubled these figures.
        let gpu = crate::env::device_matrix()
            .select(DeviceSel::gpu())
            .unwrap();
        let one_way = gpu.device.cost_model().transfer_ns(16);
        assert!((p.to_device_ns - one_way).abs() < 1e-6);
        assert!((p.from_device_ns - one_way).abs() < 1e-6);
    }

    #[test]
    fn device_retarget_is_one_line() {
        // "should the user wish to change the device ... the language only
        // requires that the device type be modified in the actor
        // definition" — here: the DeviceSel field.
        for ty in [DeviceType::Gpu, DeviceType::Cpu, DeviceType::Accelerator] {
            let profile = ProfileSink::new();
            let (req_out, req_in) = buffered_channel(1);
            let mut stage = Stage::new("home");
            let spec = KernelSpec {
                device: DeviceSel::new(ty, 0),
                ..scale_spec(profile)
            };
            stage.spawn("k", KernelActor::<Vec<f32>, Vec<f32>>::new(spec, req_in));
            let (result_out, result_in) = buffered_channel::<Vec<f32>>(1);
            stage.spawn_once("d", move |_| {
                let data_in = In::with_buffer(1);
                let data_out = Out::new();
                data_out.connect(&data_in);
                req_out
                    .send_moved(Settings::new(vec![4], vec![2], data_in, result_out))
                    .unwrap();
                data_out.send(&vec![1.0f32, 2.0, 3.0, 4.0]).unwrap();
            });
            assert_eq!(result_in.receive().unwrap(), vec![2.0, 4.0, 6.0, 8.0]);
            stage.join();
        }
    }
}
