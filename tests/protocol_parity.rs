//! One kernel-actor protocol, two front ends: the typed Rust API
//! (`KernelActor`) and the Ensemble VM's `opencl` actors drive the same
//! `ensemble_ocl::protocol` core, so the same request must leave the same
//! bytes, the same command stream and the same recovery behaviour behind
//! whichever front end carried it.
//!
//! Lanes: every `.ens` run here resolves onto a *private* context + queue
//! (as a serving session's would); the Rust API always resolves through
//! the process-wide matrix, so each test that drives it uses a matrix
//! device no other test in this file touches.

use bench::{apps_ens, chaos};
use ensemble_actors::{buffered_channel, In, Out, Stage};
use ensemble_lang::vmops::ActorCode;
use ensemble_ocl::{
    device_matrix, DeviceMatrix, DeviceSel, KernelActor, KernelSpec, OpenClEnvironment,
    ProfileSink, RecoveryPolicy, ResolveEnv, Settings,
};
use ensemble_vm::{ErrorClass, VmError, VmRuntime};
use oclsim::fault::{FaultInjector, FaultOp, FaultPlan, InjectedFault};
use oclsim::{ClResult, CoexecConfig, CommandQueue, Context, DeviceType, Platform};
use std::sync::Arc;
use trace::{SpanKind, TraceEvent, TraceSink};

const N: usize = 64;
const GROUP: usize = 16;

/// Three buffers up (`x`, `y`, `k`), one dispatch, `y` back.
const SCALE_ENS: &str = r#"
type data_t is struct (
    real [] x;
    real [] y;
    integer [] k
)
type settings_t is opencl struct (
    integer [] worksize;
    integer [] groupsize;
    in data_t input;
    out real [] output
)
type dispatchI is interface (
    out settings_t requests;
    out data_t dout;
    in real [] din
)
type scaleI is interface(
    in settings_t requests
)

stage home {

    opencl <device_index=0, device_type=GPU>
    actor Scale presents scaleI {
        constructor() {}
        behaviour {
            receive req from requests;
            receive d from req.input;
            i = get_global_id(0);
            d.y[i] := d.x[i] * 2.0 + 1.0;
            d.k[i] := i;
            send d.y on req.output;
        }
    }

    actor Dispatch presents dispatchI {
        constructor() {}
        behaviour {
            n = 64;
            x = new real[n];
            v = 0.5;
            for j = 0 .. (n - 1) do {
                x[j] := v;
                v := v + 0.25;
            }
            ws = new integer[1] of n;
            gs = new integer[1] of 16;
            i = new in data_t;
            o = new out real[];
            connect dout to i;
            connect o to din;
            d = new data_t(x, new real[n], new integer[n]);
            send new settings_t(ws, gs, i, o) on requests;
            send d on dout;
            receive back from din;
            for j = 0 .. (n - 1) do {
                printReal(back[j]);
            }
            stop;
        }
    }

    boot {
        d = new Dispatch();
        s = new Scale();
        connect d.requests to s.requests;
    }
}
"#;

fn input() -> (Vec<f32>, Vec<f32>, Vec<i32>) {
    let x = (0..N).map(|j| (0.5 + 0.25 * j as f64) as f32).collect();
    (x, vec![0.0; N], vec![0; N])
}

/// A private context + queue over the first device of `ty`, optionally
/// under a fault injector.
fn private_lane(ty: DeviceType, faults: Option<&FaultInjector>) -> OpenClEnvironment {
    let device = Platform::default_device(ty).expect("simulated device");
    let context = Context::new(std::slice::from_ref(&device)).expect("private context");
    let queue = CommandQueue::new(&context, &device).expect("private queue");
    if let Some(inj) = faults {
        context.attach_faults(inj.clone());
    }
    OpenClEnvironment {
        platform: "private".to_string(),
        device,
        context,
        queue,
    }
}

/// Resolves every selection onto one private lane.
struct Lane(OpenClEnvironment);

impl ResolveEnv for Lane {
    fn resolve(&self, _sel: DeviceSel) -> ClResult<OpenClEnvironment> {
        Ok(self.0.clone())
    }
}

/// What a run leaves behind.
struct Observed {
    /// The result elements, printed the way the VM prints reals.
    output: Result<Vec<String>, VmError>,
    events: Vec<TraceEvent>,
    profile: ensemble_ocl::Profile,
}

impl Observed {
    fn count(&self, kind: SpanKind) -> usize {
        count(&self.events, kind)
    }

    /// The protocol's footprint on the device track: the `invokenative`
    /// boundary and every command, with virtual start/end and byte count.
    fn command_stream(&self, device: &str) -> Vec<(SpanKind, String, u64, u64, Option<String>)> {
        self.events
            .iter()
            .filter(|e| e.track == device)
            .filter(|e| {
                matches!(
                    e.kind,
                    SpanKind::InvokeNative
                        | SpanKind::ToDevice
                        | SpanKind::Kernel
                        | SpanKind::FromDevice
                )
            })
            .map(|e| {
                let bytes = e
                    .args
                    .iter()
                    .find(|(k, _)| k == "bytes")
                    .map(|(_, v)| v.clone());
                (
                    e.kind,
                    e.name.clone(),
                    e.ts_ns.to_bits(),
                    e.dur_ns.to_bits(),
                    bytes,
                )
            })
            .collect()
    }
}

/// The request through the VM front end, on `lane`.
fn via_ens(lane: OpenClEnvironment) -> Observed {
    let sink = TraceSink::new();
    let profile = ProfileSink::new().with_trace(sink.clone());
    let module = ensemble_lang::compile_source(SCALE_ENS).expect("fixture compiles");
    let vm = VmRuntime::with_profile(module, profile.clone());
    vm.set_coexec(oclsim::CoexecConfig::default());
    vm.set_env_resolver(Arc::new(Lane(lane)));
    // A wedged pipeline must fail the test, not hang it.
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = done_tx.send(vm.run());
    });
    let report = done_rx
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("the .ens pipeline wedged");
    Observed {
        output: report.map(|r| r.output),
        events: sink.events(),
        profile: profile.snapshot(),
    }
}

/// The same request through the Rust API, on the matrix entry `device`,
/// running the kernel the Ensemble compiler generated for `Scale`.
fn via_kernel_actor(device: DeviceSel) -> Observed {
    let module = ensemble_lang::compile_source(SCALE_ENS).expect("fixture compiles");
    let plan = module
        .actors
        .iter()
        .find_map(|a| match &a.code {
            ActorCode::Kernel(plan) => Some(plan.clone()),
            ActorCode::Host { .. } => None,
        })
        .expect("the fixture has a kernel actor");
    let sink = TraceSink::new();
    let profile = ProfileSink::new().with_trace(sink.clone());
    let spec = KernelSpec {
        source: plan.source,
        kernel_name: plan.kernel_name,
        device,
        out_segs: vec![1],
        out_dims: vec![1],
        profile: profile.clone(),
        recovery: RecoveryPolicy::default(),
    };
    type Data = (Vec<f32>, Vec<f32>, Vec<i32>);
    let (req_out, req_in) = buffered_channel::<Settings<Data, Vec<f32>>>(1);
    let mut stage = Stage::new("home");
    stage.spawn("Scale", KernelActor::new(spec, req_in));
    let (result_out, result_in) = buffered_channel::<Vec<f32>>(1);
    stage.spawn_once("Dispatch", move |_| {
        let data_in = In::with_buffer(1);
        let data_out = Out::new();
        data_out.connect(&data_in);
        req_out
            .send_moved(Settings::new(vec![N], vec![GROUP], data_in, result_out))
            .unwrap();
        data_out.send(&input()).unwrap();
    });
    let result = result_in.receive().expect("kernel actor result");
    stage.join();
    Observed {
        output: Ok(result.iter().map(|v| format!("{}", *v as f64)).collect()),
        events: sink.events(),
        profile: profile.snapshot(),
    }
}

#[test]
fn both_front_ends_leave_the_same_bytes_and_command_stream() {
    // The accelerator: nothing else in this file touches its matrix
    // entry, so both queues start at virtual time zero.
    let lane = private_lane(DeviceType::Accelerator, None);
    let device = lane.device.name().to_string();
    let ens = via_ens(lane);
    let api = via_kernel_actor(DeviceSel::new(DeviceType::Accelerator, 0));

    let expected: Vec<String> = input()
        .0
        .iter()
        .map(|x| format!("{}", (x * 2.0 + 1.0) as f64))
        .collect();
    assert_eq!(api.output.as_ref().unwrap(), &expected);
    assert_eq!(ens.output.as_ref().unwrap(), &expected);

    let stream = api.command_stream(&device);
    assert_eq!(
        stream.iter().map(|c| c.0).collect::<Vec<_>>(),
        [
            SpanKind::InvokeNative,
            SpanKind::ToDevice,
            SpanKind::ToDevice,
            SpanKind::ToDevice,
            SpanKind::Kernel,
            SpanKind::FromDevice,
        ]
    );
    assert_eq!(ens.command_stream(&device), stream);
    assert_eq!(ens.profile, api.profile);
}

#[test]
fn a_transient_on_one_upload_segment_retries_that_segment_only() {
    // Upload fault-op 1 is the second of the request's three segments.
    let plan = FaultPlan::new().fail(FaultOp::Upload, 1, InjectedFault::Transient);
    let clean = via_ens(private_lane(DeviceType::Gpu, None));

    let inj = FaultInjector::new(plan.clone());
    let ens = via_ens(private_lane(DeviceType::Gpu, Some(&inj)));
    assert_eq!(inj.injected_count(), 1);

    let inj = FaultInjector::new(plan);
    let entry = device_matrix().select(DeviceSel::gpu()).expect("gpu entry");
    entry.context.attach_faults(inj.clone());
    let api = via_kernel_actor(DeviceSel::gpu());
    entry.context.attach_faults(FaultInjector::disabled());
    assert_eq!(inj.injected_count(), 1);

    for (front_end, seen) in [("ens", &ens), ("api", &api)] {
        assert_eq!(seen.output, clean.output, "{front_end}");
        let retries: Vec<&TraceEvent> = seen
            .events
            .iter()
            .filter(|e| e.kind == SpanKind::Retry)
            .collect();
        assert_eq!(retries.len(), 1, "{front_end}");
        assert_eq!(retries[0].name, "upload", "{front_end}");
        // Segments one and three went up once each: three transfers, and
        // not a nanosecond of transfer time beyond the fault-free run's.
        assert_eq!(seen.count(SpanKind::ToDevice), 3, "{front_end}");
        assert_eq!(
            seen.profile.to_device_ns.to_bits(),
            clean.profile.to_device_ns.to_bits(),
            "{front_end}"
        );
    }
}

#[test]
fn a_lost_device_fails_an_ens_run_without_failing_over() {
    let sink = TraceSink::new();
    let inj =
        FaultInjector::new(FaultPlan::new().fail(FaultOp::Enqueue, 0, InjectedFault::DeviceLost));
    inj.attach_trace(sink.clone());
    // `via_ens` returning at all is the poisoning: `Dispatch` holds its
    // own clone of the result channel's sender, so only poison can wake
    // its `receive back from din`.
    let seen = via_ens(private_lane(DeviceType::Gpu, Some(&inj)));
    assert_eq!(inj.injected_count(), 1);
    let err = seen
        .output
        .as_ref()
        .expect_err("a lost device is a typed failure");
    assert_eq!(err.class, ErrorClass::Other);
    assert!(err.message.contains("actor `Scale`"), "{err}");
    assert!(err.message.contains("lost"), "{err}");
    // The private lane shares its device id with the process-wide
    // matrix's GPU entry, but failover asks the lane's own resolver, and
    // nothing follows its one lane: the cause is reported, not a lookup
    // miss, and the work never reaches the shared CPU lane.
    assert_eq!(seen.count(SpanKind::Failover), 0);
    assert_eq!(seen.count(SpanKind::Kernel), 0);
}

fn count(events: &[TraceEvent], kind: SpanKind) -> usize {
    events.iter().filter(|e| e.kind == kind).count()
}

#[test]
fn a_lost_device_in_a_session_fails_over_to_the_sessions_own_cpu_lane() {
    // The process-wide CPU lane must not move: keep chaos runs, which
    // fail over onto it, out while this one is in flight.
    let _serial = chaos::serialise();
    let src = apps_ens::matmul(16, "GPU");
    let (clean, ..) = chaos::session_gpu_run(&src, &FaultInjector::disabled()).unwrap();
    let shared_cpu = device_matrix().select(DeviceSel::cpu()).unwrap();
    let before = (
        shared_cpu.queue.now_ns().to_bits(),
        shared_cpu.context.allocated_bytes(),
    );
    let inj =
        FaultInjector::new(FaultPlan::new().fail(FaultOp::Enqueue, 0, InjectedFault::DeviceLost));
    let (output, events, session) = chaos::session_gpu_run(&src, &inj).unwrap();
    assert_eq!(inj.injected_count(), 1);
    assert_eq!(output, clean);
    assert_eq!(count(&events, SpanKind::Failover), 1);
    assert_eq!(
        (
            shared_cpu.queue.now_ns().to_bits(),
            shared_cpu.context.allocated_bytes()
        ),
        before,
        "the work left the session"
    );
    let own_cpu = session.lanes().select(DeviceSel::cpu()).unwrap();
    assert!(
        own_cpu.queue.now_ns() > 0.0,
        "the session's CPU lane ran it"
    );
}

#[test]
fn a_failover_mid_mov_ring_never_hands_a_kernel_a_foreign_buffer() {
    // LUD's Diag → Col → Sub ring keeps one value resident; its residency
    // proof lets each actor skip the cross-context check. Five transients
    // on one mid-ring dispatch outlast the four retries: that actor fails
    // over to the CPU lane while the GPU stays healthy for the others, so
    // the value crosses contexts twice per step from then on.
    let module = Arc::new(
        ensemble_analysis::compile_source(
            &apps_ens::lud(16, "GPU"),
            &ensemble_analysis::Options::default(),
        )
        .unwrap(),
    );
    let batched = CoexecConfig {
        split: true,
        batch: true,
        min_items: 1,
    };
    let run = |cfg: &CoexecConfig, plan: FaultPlan| {
        let lanes = DeviceMatrix::private().unwrap();
        let gpu = lanes.select(DeviceSel::gpu()).unwrap();
        let inj = FaultInjector::new(plan);
        gpu.context.attach_faults(inj);
        let sink = TraceSink::new();
        let vm = VmRuntime::with_profile(
            Arc::clone(&module),
            ProfileSink::new().with_trace(sink.clone()),
        );
        vm.set_coexec(cfg.clone());
        vm.set_env_resolver(Arc::new(lanes));
        (vm.run().map(|r| r.output), sink.events())
    };
    let transients = (20..25).fold(FaultPlan::new(), |plan, draw| {
        plan.fail(FaultOp::Enqueue, draw, InjectedFault::Transient)
    });
    for cfg in [CoexecConfig::default(), batched] {
        let (clean, _) = run(&cfg, FaultPlan::new());
        let (output, events) = run(&cfg, transients.clone());
        assert_eq!(output.unwrap(), clean.unwrap(), "{cfg:?}");
        assert_eq!(count(&events, SpanKind::Failover), 1, "{cfg:?}");
        assert_eq!(count(&events, SpanKind::Retry), 4, "{cfg:?}");
        let foreign = events
            .iter()
            .flat_map(|e| &e.args)
            .any(|(_, v)| v.contains("invalid context"));
        assert!(!foreign, "{cfg:?}");
    }
}
