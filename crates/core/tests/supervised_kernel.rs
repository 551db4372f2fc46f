//! One-for-one supervision of a checkpointed kernel actor: kills landing
//! mid-pipeline are absorbed by restart + redelivery, and the pipeline's
//! output is byte-identical to a fault-free run.

use ensemble_actors::{
    buffered_channel, ChildSpec, In, Out, RestartBudget, Strategy, Supervisor,
};
use ensemble_ocl::{
    device_matrix, Array2, Checkpoint, DeviceSel, KernelActor, KernelSpec, ProfileSink,
    RecoveryPolicy, Settings,
};
use oclsim::fault::{FaultInjector, FaultOp, FaultPlan, InjectedFault, KillMode};
use std::sync::Arc;

/// The injector attaches to the process-global GPU matrix entry, so runs
/// in this file serialise.
static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

const MM: &str = r#"
__kernel void multiply(__global float* a, __global float* b,
                       __global float* result,
                       const int ra, const int ca,
                       const int rb, const int cb,
                       const int rr, const int cr) {
    int x = get_global_id(0);
    int y = get_global_id(1);
    int dim = get_global_size(0);
    float c = 0.0f;
    for (int i = 0; i < dim; i++) {
        c = c + a[y * ca + i] * b[i * cb + x];
    }
    result[y * cr + x] = c;
}"#;

type MmIn = (Array2, Array2, Array2);

const N: usize = 8;
const REQUESTS: usize = 3;

/// Drive a three-request matmul pipeline through one supervised,
/// checkpointed kernel actor. Returns each result's raw f32 bits and the
/// restarts the supervisor granted.
fn run_pipeline(injector: &FaultInjector) -> (Vec<Vec<u32>>, u32) {
    let entry = device_matrix().select(DeviceSel::gpu()).expect("gpu entry");
    entry.context.attach_faults(injector.clone());
    let allocated_before = entry.context.allocated_bytes();

    let profile = ProfileSink::new();
    let spec = KernelSpec {
        source: MM.to_string(),
        kernel_name: "multiply".to_string(),
        device: DeviceSel::gpu(),
        out_segs: vec![2],
        out_dims: vec![4, 5],
        profile: profile.clone(),
        recovery: RecoveryPolicy::default(),
    };
    let (req_out, req_in) = buffered_channel::<Settings<MmIn, Array2>>(REQUESTS);
    let req_in = Arc::new(req_in);
    let ckpt = Checkpoint::new();
    let ckpt_probe = ckpt.clone();

    let mut sup = Supervisor::new("mm", Strategy::OneForOne, RestartBudget::default());
    sup.supervise(ChildSpec::new("Multiply", move || {
        KernelActor::<MmIn, Array2>::shared(spec.clone(), Arc::clone(&req_in))
            .with_checkpoint(ckpt.clone())
    }));

    let driver = std::thread::spawn(move || -> Vec<Array2> {
        let mut results = Vec::with_capacity(REQUESTS);
        for k in 0..REQUESTS {
            let i = In::with_buffer(1);
            let o = Out::new();
            o.connect(&i);
            let (res_out, res_in) = buffered_channel::<Array2>(1);
            req_out
                .send_moved(Settings::new(vec![N, N], vec![2, 2], i, res_out))
                .unwrap();
            let a = Array2::from_vec(
                N,
                N,
                (0..N * N).map(|v| ((v + k) % 7) as f32).collect(),
            );
            let b = Array2::from_vec(
                N,
                N,
                (0..N * N).map(|v| ((v * 3 + k) % 5) as f32).collect(),
            );
            o.send(&(a, b, Array2::zeros(N, N))).unwrap();
            results.push(res_in.receive().unwrap());
        }
        results
    });

    let report = sup.run().expect("supervised pipeline failed");
    let results = driver.join().expect("driver panicked");

    entry.context.attach_faults(FaultInjector::disabled());

    // No incarnation — completed, exited or unwound by a kill-panic
    // between upload and read-back — may leak device-memory accounting.
    assert_eq!(entry.context.allocated_bytes(), allocated_before);

    // After a clean run every accepted request was acknowledged.
    assert_eq!(ckpt_probe.acked(), Some(REQUESTS as u64 - 1));
    assert!(!ckpt_probe.has_in_flight());

    let bits = results
        .iter()
        .map(|r| r.as_slice().iter().map(|x| x.to_bits()).collect())
        .collect();
    (bits, report.total_restarts())
}

#[test]
fn mid_pipeline_kills_restart_and_stay_byte_identical() {
    let _serial = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    oclsim::silence_kill_panics();

    let (reference, ref_restarts) = run_pipeline(&FaultInjector::disabled());
    assert_eq!(ref_restarts, 0);

    // Two kills on the first request, one of each flavour: its dispatch
    // dies by panic; the redelivery's second re-upload (uploads 3..=5)
    // then dies by abrupt error exit. The third incarnation completes it.
    let plan = FaultPlan::new()
        .fail(FaultOp::Enqueue, 0, InjectedFault::Kill(KillMode::Panic))
        .fail(FaultOp::Upload, 4, InjectedFault::Kill(KillMode::Exit));
    let injector = FaultInjector::new(plan);
    let (killed, restarts) = run_pipeline(&injector);

    assert_eq!(injector.kill_count(), 2);
    assert_eq!(restarts, 2, "every kill maps to exactly one restart");
    assert_eq!(killed, reference, "output diverged from fault-free run");
}
