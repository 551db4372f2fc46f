//! The fault seams through the VM's upload source: a [`FlatView`] (leaves
//! converted straight into the device buffer) and the [`FlatData`] it
//! materialises to must be indistinguishable to everything downstream of
//! [`KernelHost::upload`] — device contents, transfer accounting, the
//! command stream, the fault scoreboard and the recovery that follows —
//! under a clean, a transient, a corrupting and a killing fault plan.

use ensemble_lang::vmops::{DataField, ElemKind};
use ensemble_ocl::{
    DeviceMatrix, DeviceSel, FlatData, FlatSource, KernelHost, KernelSpec, ProfileSink,
};
use ensemble_vm::{FlatView, VmArr, VmVal};
use oclsim::fault::{FaultInjector, FaultOp, FaultPlan, InjectedFault, KillMode};
use std::sync::Arc;
use trace::TraceSink;

/// Everything an upload leaves behind that a later command, a trace
/// reader or the fault scoreboard could observe.
#[derive(Debug, PartialEq)]
struct Observation {
    /// What reading the buffers back delivers (after any integrity
    /// repair from the shadows), or the upload's error.
    device: Result<FlatData, String>,
    allocated: usize,
    profile: ensemble_ocl::Profile,
    fired: Vec<oclsim::fault::InjectionRecord>,
    trace: Vec<(trace::SpanKind, String, u64, u64)>,
    clock_bits: u64,
}

fn observe(plan: FaultPlan, src: &dyn FlatSource) -> Observation {
    let lanes = DeviceMatrix::private().expect("private lanes");
    let gpu = lanes.select(DeviceSel::gpu()).expect("simulated GPU");
    let (context, queue) = (gpu.context.clone(), gpu.queue.clone());
    let inj = FaultInjector::new(plan);
    context.attach_faults(inj.clone());
    let sink = TraceSink::new();
    let profile = ProfileSink::new().with_trace(sink.clone());
    let mut spec = KernelSpec::in_place(
        "__kernel void nop(__global float* g, __global int* k, __global int* f, int r, int c, int n, int m) {}",
        "nop",
        DeviceSel::gpu(),
    );
    spec.profile = profile.clone();
    let mut host = KernelHost::open(spec, Arc::new(lanes)).expect("kernel builds");
    let uploaded = host.upload(src);
    let allocated = context.allocated_bytes();
    Observation {
        device: uploaded
            .and_then(|bufs| bufs.read_back(Some(&profile)))
            .map_err(|e| e.to_string()),
        allocated,
        profile: profile.snapshot(),
        fired: inj.records(),
        trace: sink
            .events()
            .iter()
            .map(|e| {
                (
                    e.kind,
                    e.name.clone(),
                    e.ts_ns.to_bits(),
                    e.dur_ns.to_bits(),
                )
            })
            .collect(),
        clock_bits: queue.now_ns().to_bits(),
    }
}

#[test]
fn the_view_and_its_flat_data_upload_alike_under_every_fault_plan() {
    let grid = VmVal::arr(VmArr::Cells(
        (0..3)
            .map(|r| {
                let row: Vec<f64> = (0..4).map(|c| 0.1 + r as f64 * 1.75 - c as f64).collect();
                VmVal::arr(VmArr::R(row.into()))
            })
            .collect(),
    ));
    let ints = VmVal::arr(VmArr::I(vec![7, -9, (1 << 33) + 5].into()));
    let flags = VmVal::arr(VmArr::B(vec![true, false].into()));
    let field = |name: &str, elem, ndims| DataField {
        name: name.into(),
        elem,
        ndims,
    };
    let fields = [
        field("grid", ElemKind::Real, 2),
        field("ints", ElemKind::Int, 1),
        field("flags", ElemKind::Bool, 1),
    ];
    let view = FlatView::of(&[grid, ints, flags], &fields).unwrap();
    let flat = view.materialise();

    let plans = [
        FaultPlan::new(),
        // The middle segment is refused once: only it is re-sent, so its
        // fill runs twice.
        FaultPlan::new().fail(FaultOp::Upload, 1, InjectedFault::Transient),
        // A bit of the first segment flips on the bus, under recorded
        // provenance; the read-back notices and repairs from the shadow.
        FaultPlan::new().fail(FaultOp::Upload, 0, InjectedFault::Corrupt),
        // The actor dies at its last segment: the upload's buffers are
        // released on the way out.
        FaultPlan::new().fail(FaultOp::Upload, 2, InjectedFault::Kill(KillMode::Exit)),
    ];
    for plan in plans {
        let from_view = observe(plan.clone(), &view);
        assert_eq!(from_view, observe(plan, &flat));
        match &from_view.device {
            Ok(device) => assert_eq!(device, &flat),
            Err(e) => {
                assert!(e.contains("killed"), "{e}");
                assert_eq!(from_view.allocated, 0);
            }
        }
    }
    // Not vacuous: each faulty plan fired exactly its one fault.
    let seen = observe(
        FaultPlan::new().fail(FaultOp::Upload, 0, InjectedFault::Corrupt),
        &view,
    );
    assert_eq!(seen.fired.len(), 1);
    assert_eq!(seen.device.as_ref(), Ok(&flat));
}
