//! Kernel actors: OpenCL kernels represented as actors (§6).
//!
//! A kernel actor presents a single channel carrying a [`Settings`] struct.
//! Its behaviour is the protocol the Ensemble compiler enforces:
//!
//! 1. `receive req from requests` — the settings (worksizes + channels);
//! 2. `receive d from req.input` — the data;
//! 3. *the kernel body* — here, a mini OpenCL-C kernel dispatched through
//!    [`oclsim`] on the device named in the actor's
//!    [`DeviceSel`](crate::env::DeviceSel);
//! 4. `send result on req.output` — the processed data onward.
//!
//! The actor's bytecode-interpreted host role from Figure 2 of the paper is
//! played by the actor thread through a [`KernelHost`]: it prepares
//! buffers, launches the kernel and collects results, so multiple kernel
//! actors can share one device, and changing the target device is a
//! one-line change to the `DeviceSel`. This module is the *typed* front
//! end of that protocol ([`crate::protocol`]): it flattens [`Flatten`]
//! values in and rebuilds them out; everything in between is shared with
//! the Ensemble VM's `opencl` actors.
//!
//! Two flavours mirror the paper's two channel modes:
//!
//! * [`KernelActor`] — plain channels: data is copied to the device and the
//!   outputs are copied back on every message (shared-nothing semantics).
//! * [`ResidentKernelActor`] — `mov` channels: messages are
//!   [`DeviceData`] values; outputs stay on the device and inputs already
//!   resident in the actor's context are used in place (§6.2.3).

use crate::checkpoint::Checkpoint;
use crate::env::DeviceMatrix;
use crate::flatten::{FlatData, Flatten};
use crate::protocol::{DispatchMode, KernelHost};
use crate::resident::{DeviceData, Dispatchable};
use crate::settings::Settings;
use ensemble_actors::{Actor, ActorCtx, Control, In};
use oclsim::{ClError, ClResult};
use std::sync::Arc;

pub use crate::protocol::KernelSpec;

/// Report a host that failed to open, or a request that failed for good.
fn report(ctx: &ActorCtx, what: &str, e: &ClError) {
    eprintln!(
        "kernel actor `{}`: {what}: {e}; tearing down pipeline",
        ctx.name()
    );
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
    /// Every accepted request is parked here until its result is sent.
    /// Private to this incarnation unless [`KernelActor::with_checkpoint`]
    /// shares it with the supervisor's factory.
    checkpoint: Checkpoint<(Settings<TIn, TOut>, FlatData), TOut>,
    host: Option<ClResult<KernelHost>>,
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
            checkpoint: Checkpoint::new(),
            host: None,
        }
    }

    /// Attach a checkpoint slot that outlives this incarnation: requests
    /// are then processed with at-least-once redelivery across restarts
    /// and duplicate-send suppression (see [`crate::checkpoint`]). Without
    /// one, a request in flight when the actor is killed is lost. Either
    /// way an injected *kill* makes the behaviour return
    /// [`Control::Fail`] instead of poisoning the pipeline, so a
    /// supervisor can restart the actor.
    pub fn with_checkpoint(
        mut self,
        checkpoint: Checkpoint<(Settings<TIn, TOut>, FlatData), TOut>,
    ) -> Self {
        self.checkpoint = checkpoint;
        self
    }
}

impl<TIn: Flatten, TOut: Flatten> Actor for KernelActor<TIn, TOut> {
    fn constructor(&mut self, _ctx: &mut ActorCtx) {
        self.host = Some(KernelHost::open(self.spec.clone(), DeviceMatrix::shared()));
    }

    fn behaviour(&mut self, ctx: &mut ActorCtx) -> Control {
        let ckpt = &self.checkpoint;
        // A restarted incarnation finds its predecessor's unacknowledged
        // item and finishes it before accepting anything new.
        if !ckpt.has_in_flight() {
            let settings = match self.requests.receive() {
                Ok(s) => s,
                Err(_) => return Control::Stop,
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
            let output = settings.output.clone();
            ckpt.park((settings, data.flatten()), output);
        }
        let host = match self.host.as_mut().expect("constructor ran") {
            Ok(host) => host,
            Err(e) => {
                report(ctx, "compile failed", e);
                ckpt.abandon();
                return Control::Stop;
            }
        };
        let done = ckpt.drive(host, ctx.name(), |host, (settings, flat)| {
            let out = host.request(flat, &settings.launch(), DispatchMode::Single)?;
            TOut::unflatten(out).map_err(|e| ClError::Internal(e.to_string()))
        });
        match done {
            Ok(true) => Control::Continue,
            Ok(false) => Control::Stop,
            // An injected kill: exit abruptly (no poison) with the item
            // still parked, so a supervisor observes, restarts, and the
            // next incarnation redelivers.
            Err(e) if e.is_kill() => Control::Fail,
            Err(e) => {
                report(ctx, "unrecoverable error", &e);
                ckpt.abandon();
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
    host: Option<ClResult<KernelHost>>,
}

impl<T: Flatten> ResidentKernelActor<T> {
    /// Create the actor; `requests` is its single (interface) channel.
    pub fn new(spec: KernelSpec, requests: In<Settings<DeviceData<T>, DeviceData<T>>>) -> Self {
        ResidentKernelActor {
            spec,
            requests,
            host: None,
        }
    }
}

impl<T: Flatten> Actor for ResidentKernelActor<T> {
    fn constructor(&mut self, _ctx: &mut ActorCtx) {
        self.host = Some(KernelHost::open(self.spec.clone(), DeviceMatrix::shared()));
    }

    fn behaviour(&mut self, ctx: &mut ActorCtx) -> Control {
        let settings = match self.requests.receive() {
            Ok(s) => s,
            Err(_) => return Control::Stop,
        };
        let host = match self.host.as_mut().expect("constructor ran") {
            Ok(host) => host,
            Err(e) => {
                report(ctx, "compile failed", e);
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
        host.invoke_native(ctx.name());
        // §6.2.3: same context → reuse buffers; host or foreign context →
        // (read back and) upload. A value migrated by a failover stays
        // resident on the *new* device going forward.
        let profile = Some(&self.spec.profile);
        let result: ClResult<_> = (|| {
            let mut bufs = match data.for_dispatch(&host.env().context, profile)? {
                Dispatchable::Resident(bufs) => bufs,
                Dispatchable::Host(flat) => host.upload(&flat)?,
            };
            host.dispatch(&mut bufs, &settings.launch(), DispatchMode::Single)?;
            Ok(bufs)
        })();
        match result {
            Ok(bufs) => match settings.output.send_moved(DeviceData::resident(bufs)) {
                Ok(()) => Control::Continue,
                Err(_) => Control::Stop,
            },
            // Injected kill: abrupt exit for the supervisor, no poison.
            Err(e) if e.is_kill() => Control::Fail,
            Err(e) => {
                report(ctx, "unrecoverable error", &e);
                settings.output.poison_receivers();
                Control::Stop
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeviceSel, ProfileSink, RecoveryPolicy};
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
