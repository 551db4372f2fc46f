//! Document ranking (paper: real-world example, one kernel, invoked many
//! times per run).
//!
//! **Data substitution:** the paper's corpus is unavailable, so documents
//! are synthetic Zipf-shaped term-frequency vectors
//! ([`crate::generate::document_matrix`]) scored against a template by
//! weighted sum with a wanted/unwanted threshold — the same kernel shape
//! (per-document scoring, repeated invocations per run) that drives the
//! paper's Figure 3e effects.
//!
//! The two kernel sources are *deliberately different*, mirroring §7.4's
//! three language-level findings:
//!
//! 1. Ensemble has no NULL, so its kernel zero-initialises its two private
//!    arrays in separate loops before use; the C kernel writes before
//!    reading and fuses everything into one loop.
//! 2. Ensemble separates booleans from integers, costing extra control
//!    flow; C uses the comparison result directly.
//! 3. The C kernel uses `float4` short vectors; Ensemble (in 2015) could
//!    not.
//!
//! Hence: **Ensemble kernel time > C kernel time**, but — because the
//! Ensemble path uses `mov` channels and the data never changes between
//! invocations — **Ensemble transfer time < C transfer time**, the
//! "unexpected consequence of movability".

use baselines::acc::{AccError, AccRunner, AccTarget};
use baselines::host_eval::{array_f32, array_i32, HArg, HVal, HostArray};
use ensemble_actors::{buffered_channel, Stage};
use ensemble_ocl::{
    DeviceData, DeviceSel, KernelSpec, ProfileSink, RecoveryPolicy, ResidentKernelActor, Settings,
};
use oclsim::{
    CommandQueue, Context, DeviceType, MemFlags, NdRange, Platform, ProfileSink as Sink, Program,
};
use std::rc::Rc;

/// Terms per document (fixed vocabulary size; multiple of 4 for `float4`).
pub const TERMS: usize = 64;

/// Kernel dispatches per run (the paper runs the kernel "multiple times
/// during each individual run to collect sufficiently large time values").
pub const ROUNDS: usize = 10;

const GROUP: usize = 64;

/// The Ensemble-generated kernel: scalar, mandatory zero-initialisation in
/// separate loops, explicit boolean flag.
pub const ENSEMBLE_KERNEL_SRC: &str = r#"
__kernel void rank(__global float* docs, __global float* tpl,
                   __global int* out,
                   const int total, const int nterms, const int ndocs,
                   const int step, const float threshold) {
    int d = get_global_id(0);
    if (d >= ndocs) { return; }
    float tf[64];
    float wt[64];
    for (int t = 0; t < nterms; t++) {
        tf[t] = 0.0f;
    }
    for (int t = 0; t < nterms; t++) {
        wt[t] = 0.0f;
    }
    for (int t = 0; t < nterms; t++) {
        tf[t] = docs[d * nterms + t];
    }
    for (int t = 0; t < nterms; t++) {
        wt[t] = tf[t] * tpl[t];
    }
    float score = 0.0f;
    for (int t = 0; t < nterms; t++) {
        score = score + wt[t];
    }
    int wanted = 0;
    if (score > threshold) {
        wanted = 1;
    } else {
        wanted = 0;
    }
    out[d] = wanted;
}
"#;

/// The hand-written C kernel: fused single loop, `float4` vectors, no
/// redundant initialisation, int-as-bool.
pub const C_KERNEL_SRC: &str = r#"
__kernel void rank(__global float4* docs, __global float4* tpl,
                   __global int* out,
                   const int nterms4, const int ndocs,
                   const float threshold) {
    int d = get_global_id(0);
    if (d >= ndocs) { return; }
    float4 acc = (float4)(0.0f);
    for (int t = 0; t < nterms4; t++) {
        acc = acc + docs[d * nterms4 + t] * tpl[t];
    }
    float score = acc.x + acc.y + acc.z + acc.w;
    out[d] = score > threshold ? 1 : 0;
}
"#;

/// OpenACC-annotated C — the kernel scoring is factored into a `score()`
/// helper, which is exactly what makes the (modeled) PGI compiler fail:
/// user functions cannot be inlined into compute regions.
pub const ACC_SRC: &str = include_str!("assets/docrank/acc.c");

/// The OpenMP-style CPU fallback the paper actually measured for Fig. 3e
/// ("CPU results were generated from the OpenMP pragmas and the gcc
/// compiler"): same code with the helper manually inlined.
pub const OMP_SRC: &str = include_str!("assets/docrank/omp.c");

/// Deterministic corpus + template.
pub fn generate(docs: usize) -> (Vec<f32>, Vec<f32>) {
    (
        crate::generate::document_matrix(docs, TERMS, 77),
        crate::generate::document_template(TERMS),
    )
}

/// A threshold that splits the corpus meaningfully.
pub fn threshold() -> f32 {
    2.0
}

/// Sequential reference.
pub fn reference(docs: &[f32], tpl: &[f32], threshold: f32) -> Vec<i32> {
    let ndocs = docs.len() / TERMS;
    (0..ndocs)
        .map(|d| {
            let score: f32 = (0..TERMS).map(|t| docs[d * TERMS + t] * tpl[t]).sum();
            (score > threshold) as i32
        })
        .collect()
}

type RankData = (Vec<f32>, Vec<f32>, Vec<i32>);

/// Ensemble-OpenCL: a `mov` kernel actor invoked [`ROUNDS`] times; the
/// corpus stays on the device between rounds.
pub fn run_ensemble(
    docs: Vec<f32>,
    tpl: Vec<f32>,
    threshold: f32,
    device: DeviceSel,
    profile: ProfileSink,
) -> Vec<i32> {
    let ndocs = docs.len() / TERMS;
    let spec = KernelSpec {
        source: ENSEMBLE_KERNEL_SRC.to_string(),
        kernel_name: "rank".to_string(),
        device,
        out_segs: vec![],
        out_dims: vec![],
        profile: profile.clone(),
        recovery: RecoveryPolicy::default(),
    };
    let (req_out, req_in) =
        buffered_channel::<Settings<DeviceData<RankData>, DeviceData<RankData>>>(4);
    let mut stage = Stage::new("home");
    stage.spawn("Rank", ResidentKernelActor::<RankData>::new(spec, req_in));
    let (result_out, result_in) = buffered_channel::<DeviceData<RankData>>(1);
    stage.spawn_once("Dispatch", move |_| {
        let mut data = DeviceData::host((docs, tpl, vec![0i32; ndocs]));
        let global = ndocs.div_ceil(GROUP) * GROUP;
        for _round in 0..ROUNDS {
            let (to_kernel, kernel_in) = buffered_channel::<DeviceData<RankData>>(1);
            let (from_kernel, back_in) = buffered_channel::<DeviceData<RankData>>(1);
            let mut settings = Settings::new(vec![global], vec![GROUP], kernel_in, from_kernel);
            settings.extra_args = vec![0];
            settings.extra_f32 = vec![threshold];
            req_out.send_moved(settings).unwrap();
            to_kernel.send_moved(data).unwrap();
            data = back_in.receive().unwrap();
        }
        result_out.send_moved(data).unwrap();
    });
    let data = result_in.receive().unwrap();
    let (_docs, _tpl, out) = data
        .into_host_profiled(Some(&profile))
        .expect("read back ranking");
    stage.join();
    out
}

/// C-OpenCL: verbose host; copies the corpus to the device and the flags
/// back on **every** round, as the paper's C version did.
pub fn run_copencl(
    docs: Vec<f32>,
    tpl: Vec<f32>,
    threshold: f32,
    device_type: DeviceType,
    profile: Sink,
) -> Vec<i32> {
    let ndocs = docs.len() / TERMS;
    let platforms = Platform::all();
    let device = platforms
        .iter()
        .flat_map(|p| p.devices(Some(device_type)))
        .next()
        .expect("no such device");
    let context = Context::new(std::slice::from_ref(&device)).expect("context");
    let queue = CommandQueue::new(&context, &device).expect("queue");
    let program = Program::build(&context, C_KERNEL_SRC).expect("program build");
    let kernel = program.create_kernel("rank").expect("kernel");

    let buf_docs = context
        .create_buffer(MemFlags::ReadOnly, docs.len() * 4)
        .expect("buf");
    let buf_tpl = context
        .create_buffer(MemFlags::ReadOnly, tpl.len() * 4)
        .expect("buf");
    let buf_out = context
        .create_buffer(MemFlags::ReadWrite, ndocs * 4)
        .expect("buf");

    let mut result = vec![0i32; ndocs];
    for _round in 0..ROUNDS {
        let ev = queue.write_f32(&buf_docs, &docs).expect("write docs");
        profile.record_command(&ev, queue.device().name());
        let ev = queue.write_f32(&buf_tpl, &tpl).expect("write tpl");
        profile.record_command(&ev, queue.device().name());
        kernel.set_arg_buffer(0, &buf_docs).expect("arg");
        kernel.set_arg_buffer(1, &buf_tpl).expect("arg");
        kernel.set_arg_buffer(2, &buf_out).expect("arg");
        kernel.set_arg_i32(3, (TERMS / 4) as i32).expect("arg");
        kernel.set_arg_i32(4, ndocs as i32).expect("arg");
        kernel.set_arg_f32(5, threshold).expect("arg");
        let global = ndocs.div_ceil(GROUP) * GROUP;
        let ev = queue
            .enqueue_nd_range(&kernel, &NdRange::d1(global, GROUP))
            .expect("dispatch");
        profile.record_command(&ev, queue.device().name());
        let (out, ev) = queue.read_i32(&buf_out).expect("read");
        profile.record_command(&ev, queue.device().name());
        result = out;
    }
    context.release_bytes(docs.len() * 4 + tpl.len() * 4 + ndocs * 4);
    result
}

/// C-OpenACC on the GPU: fails to compile (the paper's PGI result), so
/// Figure 3e has no ACC GPU bars.
pub fn run_openacc(
    docs: Vec<f32>,
    tpl: Vec<f32>,
    threshold: f32,
    target: AccTarget,
    profile: Sink,
) -> Result<Vec<i32>, AccError> {
    run_pragma(ACC_SRC, docs, tpl, threshold, target, profile)
}

/// The OpenMP/gcc CPU fallback: the helper is manually inlined, so it
/// compiles; still slower than the explicit kernels, as in the paper.
pub fn run_openmp_cpu(
    docs: Vec<f32>,
    tpl: Vec<f32>,
    threshold: f32,
    profile: Sink,
) -> Result<Vec<i32>, AccError> {
    run_pragma(OMP_SRC, docs, tpl, threshold, AccTarget::cpu(), profile)
}

fn run_pragma(
    src: &str,
    docs: Vec<f32>,
    tpl: Vec<f32>,
    threshold: f32,
    target: AccTarget,
    profile: Sink,
) -> Result<Vec<i32>, AccError> {
    let ndocs = docs.len() / TERMS;
    let runner = AccRunner::new(src, target, profile)?;
    let hdocs = array_f32(docs);
    let htpl = array_f32(tpl);
    let hout = array_i32(vec![0; ndocs]);
    runner.run(
        "rank_all",
        &[
            HArg::Array(Rc::clone(&hdocs)),
            HArg::Array(Rc::clone(&htpl)),
            HArg::Array(Rc::clone(&hout)),
            HArg::Scalar(HVal::I(TERMS as i64)),
            HArg::Scalar(HVal::I(ndocs as i64)),
            HArg::Scalar(HVal::F(threshold as f64)),
            HArg::Scalar(HVal::I(ROUNDS as i64)),
        ],
    )?;
    let out = match &*hout.borrow() {
        HostArray::I32(v) => v.clone(),
        _ => unreachable!("declared i32"),
    };
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOCS: usize = 200;

    #[test]
    fn ensemble_matches_reference() {
        let (docs, tpl) = generate(DOCS);
        let expected = reference(&docs, &tpl, threshold());
        let got = run_ensemble(docs, tpl, threshold(), DeviceSel::gpu(), ProfileSink::new());
        assert_eq!(got, expected);
        // The threshold actually splits the corpus.
        assert!(expected.contains(&1));
        assert!(expected.contains(&0));
    }

    #[test]
    fn copencl_matches_reference() {
        let (docs, tpl) = generate(DOCS);
        let expected = reference(&docs, &tpl, threshold());
        for ty in [DeviceType::Gpu, DeviceType::Cpu] {
            assert_eq!(
                run_copencl(docs.clone(), tpl.clone(), threshold(), ty, Sink::new()),
                expected
            );
        }
    }

    #[test]
    fn openacc_gpu_fails_to_compile_like_pgi() {
        let (docs, tpl) = generate(16);
        let err = run_openacc(docs, tpl, threshold(), AccTarget::gpu(), Sink::new()).unwrap_err();
        assert!(matches!(err, AccError::CompileFail(_)), "got {err:?}");
    }

    #[test]
    fn openmp_cpu_fallback_matches_reference() {
        let (docs, tpl) = generate(DOCS);
        let expected = reference(&docs, &tpl, threshold());
        let got = run_openmp_cpu(docs, tpl, threshold(), Sink::new()).unwrap();
        assert_eq!(got, expected);
    }

    #[test]
    fn figure_3e_shape_holds() {
        // Ensemble kernel slower (init + scalar + bool separation), but
        // Ensemble transfers smaller (mov keeps the corpus on the device).
        let (docs, tpl) = generate(DOCS);
        let p_ens = ProfileSink::new();
        run_ensemble(
            docs.clone(),
            tpl.clone(),
            threshold(),
            DeviceSel::gpu(),
            p_ens.clone(),
        );
        let p_c = Sink::new();
        run_copencl(docs, tpl, threshold(), DeviceType::Gpu, p_c.clone());
        let ens = p_ens.snapshot();
        let c = p_c.snapshot();
        assert_eq!(ens.dispatches as usize, ROUNDS);
        assert_eq!(c.dispatches as usize, ROUNDS);
        assert!(
            ens.kernel_ns > 1.5 * c.kernel_ns,
            "Ensemble kernel {} not slower than C {}",
            ens.kernel_ns,
            c.kernel_ns
        );
        assert!(
            ens.to_device_ns + ens.from_device_ns < (c.to_device_ns + c.from_device_ns) / 2.0,
            "Ensemble transfers {} not ≪ C transfers {}",
            ens.to_device_ns + ens.from_device_ns,
            c.to_device_ns + c.from_device_ns
        );
    }
}
