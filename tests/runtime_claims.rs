//! Tests for the §6 runtime claims that are not tied to one figure:
//! dynamic retargeting by reconnecting the configuration channel, multiple
//! kernels sharing one device, the multi-queue read race the device
//! matrix exists to prevent, and a traced run's hold on the matrix queue
//! ending with the run.

use ensemble_repro::ensemble_actors::{buffered_channel, In, Out, Stage};
use ensemble_repro::ensemble_ocl::{
    device_matrix, DeviceSel, KernelActor, KernelSpec, ProfileSink, RecoveryPolicy, Settings,
};
use ensemble_repro::ensemble_vm::VmRuntime;
use ensemble_repro::oclsim::{CoexecConfig, CommandQueue, MemFlags, NdRange, Program};
use ensemble_repro::trace::{SpanKind, TraceSink};
use std::time::Duration;

/// The tests below assert on the global device-matrix queue clocks, so
/// they must not interleave with each other.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

const SCALE_SRC: &str = "__kernel void scale(__global float* data, const int n) {
    int i = get_global_id(0);
    if (i < n) { data[i] = data[i] * 2.0f; }
}";

fn scale_spec(device: DeviceSel) -> KernelSpec {
    KernelSpec {
        source: SCALE_SRC.to_string(),
        kernel_name: "scale".to_string(),
        device,
        out_segs: vec![0],
        out_dims: vec![0],
        profile: ProfileSink::new(),
        recovery: RecoveryPolicy::default(),
    }
}

type Req = Settings<Vec<f32>, Vec<f32>>;

fn drive(requests_out: &Out<Req>, input: Vec<f32>) -> Vec<f32> {
    let data_in = In::with_buffer(1);
    let data_out = Out::new();
    data_out.connect(&data_in);
    let (result_out, result_in) = buffered_channel(1);
    let n = input.len();
    requests_out
        .send_moved(Settings::new(vec![n], vec![2], data_in, result_out))
        .unwrap();
    data_out.send(&input).unwrap();
    result_in.receive().unwrap()
}

/// §6.1.1: "should the developer wish to use a different kernel or a
/// different device at runtime, all that is required is to reconnect the
/// configuration channel to an appropriate kernel actor's configuration
/// channel." One dispatcher-side `Out` is disconnected from the GPU actor
/// and reconnected to the CPU actor mid-run; the device-queue clocks show
/// which device actually served each request.
#[test]
fn reconnecting_the_requests_channel_retargets_at_runtime() {
    let _serial = SERIAL.lock().unwrap();
    let gpu_requests = In::with_buffer(1);
    let cpu_requests = In::with_buffer(1);
    let cpu_connector = cpu_requests.connector();
    let requests_out: Out<Req> = Out::new();
    requests_out.connect(&gpu_requests);

    let mut stage = Stage::new("home");
    stage.spawn(
        "gpu_kernel",
        KernelActor::<Vec<f32>, Vec<f32>>::new(scale_spec(DeviceSel::gpu()), gpu_requests),
    );
    stage.spawn(
        "cpu_kernel",
        KernelActor::<Vec<f32>, Vec<f32>>::new(scale_spec(DeviceSel::cpu()), cpu_requests),
    );

    let gpu_clock = || {
        device_matrix()
            .select(DeviceSel::gpu())
            .unwrap()
            .queue
            .now_ns()
    };
    let cpu_clock = || {
        device_matrix()
            .select(DeviceSel::cpu())
            .unwrap()
            .queue
            .now_ns()
    };

    let g0 = gpu_clock();
    assert_eq!(drive(&requests_out, vec![1.0, 2.0]), vec![2.0, 4.0]);
    assert!(gpu_clock() > g0, "first request must run on the GPU");

    // The runtime reconnect: same Out endpoint, new target.
    requests_out.disconnect_all();
    requests_out.connect_via(&cpu_connector);

    let g1 = gpu_clock();
    let c1 = cpu_clock();
    assert_eq!(drive(&requests_out, vec![3.0, 4.0]), vec![6.0, 8.0]);
    assert_eq!(gpu_clock(), g1, "GPU must be idle after the reconnect");
    assert!(cpu_clock() > c1, "second request must run on the CPU");

    drop(requests_out);
    stage.join();
}

/// §6.1.3: "multiple kernels [can] execute on a single device. This
/// includes multiple kernels being scheduled for execution at the same
/// time." Two kernel actors share the GPU through the single matrix queue;
/// both requests complete correctly.
#[test]
fn two_kernel_actors_share_one_device() {
    let _serial = SERIAL.lock().unwrap();
    let mut stage = Stage::new("home");
    let mut outs = Vec::new();
    for name in ["k1", "k2"] {
        let requests = In::with_buffer(1);
        let requests_out: Out<Req> = Out::new();
        requests_out.connect(&requests);
        stage.spawn(
            name,
            KernelActor::<Vec<f32>, Vec<f32>>::new(scale_spec(DeviceSel::gpu()), requests),
        );
        outs.push(requests_out);
    }
    // Issue both requests before collecting either result, so the two
    // kernel actors are in flight on the same device concurrently.
    let mut pending = Vec::new();
    for (i, req) in outs.iter().enumerate() {
        let data_in = In::with_buffer(1);
        let data_out = Out::new();
        data_out.connect(&data_in);
        let (result_out, result_in) = buffered_channel(1);
        req.send_moved(Settings::new(vec![2], vec![2], data_in, result_out))
            .unwrap();
        data_out.send(&vec![i as f32 + 1.0, 0.0]).unwrap();
        pending.push(result_in);
    }
    assert_eq!(pending[0].receive().unwrap()[0], 2.0);
    assert_eq!(pending[1].receive().unwrap()[0], 4.0);
    drop(outs);
    stage.join();
}

/// §6.2.1: the paper adopted one command queue per device after observing
/// races "with multiple command_queues per device when reading data". With
/// raw `oclsim`, a second queue reading a buffer while a dispatch on the
/// first queue holds it fails; the Ensemble device matrix hands every
/// actor the *same* queue, so the hazard cannot arise.
#[test]
fn multi_queue_read_race_is_real_and_the_matrix_prevents_it() {
    let _serial = SERIAL.lock().unwrap();
    let entry = device_matrix().select(DeviceSel::gpu()).unwrap();
    let racing_queue = CommandQueue::new(&entry.context, &entry.device).unwrap();

    // A long-running kernel to hold the buffer checked out for a while.
    let src = "__kernel void spin(__global float* data, const int n) {
        int i = get_global_id(0);
        float x = data[i];
        for (int k = 0; k < 20000; k++) { x = x * 1.0001f + 0.5f; }
        data[i] = x;
    }";
    let program = Program::build(&entry.context, src).unwrap();
    let kernel = program.create_kernel("spin").unwrap();
    let buf = entry
        .context
        .create_buffer(MemFlags::ReadWrite, 256 * 4)
        .unwrap();
    entry.queue.write_f32(&buf, &vec![1.0; 256]).unwrap();
    kernel.set_arg_buffer(0, &buf).unwrap();
    kernel.set_arg_i32(1, 256).unwrap();

    let q1 = entry.queue.clone();
    let buf2 = buf.clone();
    let dispatcher = std::thread::spawn(move || {
        q1.enqueue_nd_range(&kernel, &NdRange::d1(256, 64)).unwrap();
    });

    // Poll from the second queue while the dispatch is in flight.
    let mut saw_race = false;
    while !dispatcher.is_finished() {
        if racing_queue.read_f32(&buf2).is_err() {
            saw_race = true;
            break;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    dispatcher.join().unwrap();
    assert!(
        saw_race,
        "a second command queue must observe the mid-dispatch read race"
    );

    // After the dispatch, single-queue access is consistent again — and
    // the matrix path (same queue everywhere) never raced at all.
    let (vals, _) = entry.queue.read_f32(&buf).unwrap();
    assert!(vals.iter().all(|&v| v > 1.0));
    entry.context.release_bytes(256 * 4);
}

/// A traced `.ens` run records the matrix queue's instant markers (here,
/// fused batches) only while it runs: once it returns, a later untraced
/// run on the same queue leaves the finished run's trace untouched.
#[test]
fn a_finished_runs_trace_receives_no_later_queue_instants() {
    let _serial = SERIAL.lock().unwrap();
    let _chaos = bench::chaos::serialise();
    let module = ensemble_analysis::compile_source(
        &bench::apps_ens::lud(16, "GPU"),
        &ensemble_analysis::Options::default(),
    )
    .expect("lud compiles");
    let run = |profile: ProfileSink| {
        let vm = VmRuntime::with_profile(module.clone(), profile);
        vm.set_coexec(CoexecConfig {
            batch: true,
            ..CoexecConfig::default()
        });
        vm.run().expect("lud runs");
    };
    let sink = TraceSink::new();
    run(ProfileSink::new().with_trace(sink.clone()));
    let recorded = sink.len();
    assert!(sink.events().iter().any(|e| e.kind == SpanKind::BatchFused));
    run(ProfileSink::new());
    assert_eq!(sink.len(), recorded, "a later run recorded into a finished run's trace");
}
