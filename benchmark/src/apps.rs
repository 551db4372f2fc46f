//! The programs the workloads run, and everything the harness knows about
//! each of them from *outside* the path under test: its generated source,
//! an independent oracle for its output, the native device path and the
//! Rust-API path of the same application, and the kernel dispatches a
//! request makes, so the kernels can be replayed on their own.
//!
//! The five paper applications come from `crates/apps/src/assets/*/ocl.ens`
//! through the existing size substitution (`bench::apps_ens`);
//! `stream_copy` is the benchmark's own fixture.

use bench::apps_ens;
use ensemble_actors::{buffered_channel, In, Out, Stage};
use ensemble_apps::{docrank, lud, mandelbrot, matmul, reduction};
use ensemble_lang::{ActorCode, CompiledModule, KernelPlan};
use ensemble_ocl::{
    DeviceSel, FlatData, FlatSeg, KernelActor, KernelSpec, RecoveryPolicy, Settings,
};
use ensemble_vm::VmRuntime;
use oclsim::{
    CommandQueue, Context, DeviceType, MemFlags, NdRange, Platform, ProfileSink, Program,
};
use std::hint::black_box;

const STREAM_COPY_ENS: &str = include_str!("../fixtures/stream_copy.ens");
const LUD_SEQ_ENS: &str = include_str!("../../crates/apps/src/assets/lud/seq.ens");
const MANDELBROT_SEQ_ENS: &str = include_str!("../../crates/apps/src/assets/mandelbrot/seq.ens");
const DOCRANK_SEQ_ENS: &str = include_str!("../../crates/apps/src/assets/docrank/seq.ens");

/// Reduction's work-group size (`group = 256` in its `.ens` source).
const REDUCTION_GROUP: usize = 256;
/// Docrank's work-group size and term count (`gs … of 64`, `nterms = 64`).
const DOCRANK_GROUP: usize = 64;
/// Rounds are pinned to the Rust-API application's constant so the
/// `.ens`, Rust-API and native paths of docrank do the same work.
const DOCRANK_ROUNDS: usize = docrank::ROUNDS;
const STREAM_GROUP: usize = 64;
/// `x` is this many times longer than `y` (`m = n / 32` in the fixture).
const STREAM_RATIO: usize = 32;

/// One application at one size, with the data parameters drawn from the
/// benchmark seed.
#[derive(Debug, Clone, PartialEq)]
pub enum App {
    /// `a` filled with `fill`, `b` with 2.0.
    Matmul {
        n: usize,
        fill: f64,
    },
    Mandelbrot {
        n: usize,
        iters: usize,
    },
    /// Minimum of `n` values in [0.5, 1.5) with `min` planted.
    Reduction {
        n: usize,
        min: f64,
    },
    Docrank {
        docs: usize,
    },
    /// `generate_dominant(n, data_seed)`.
    Lud {
        n: usize,
        data_seed: u64,
    },
    /// `rounds` sends of `x: real[n]` (filled with `fill`) and
    /// `y: real[n/32]` over copy channels; `y[i] := x[i]*2.0+1.0`.
    StreamCopy {
        n: usize,
        rounds: usize,
        fill: f64,
    },
}

/// One expected output line; `rel_tol == 0.0` demands the exact text.
#[derive(Debug, Clone, PartialEq)]
pub struct Line {
    pub text: String,
    pub rel_tol: f64,
}

pub fn exact(text: impl Into<String>) -> Line {
    Line {
        text: text.into(),
        rel_tol: 0.0,
    }
}

/// A program ready to be submitted: generated source plus its oracle.
#[derive(Debug, Clone)]
pub struct ProgramSpec {
    pub app: App,
    pub label: String,
    pub source: String,
    pub expected: Vec<Line>,
}

impl ProgramSpec {
    pub fn new(app: App) -> Result<ProgramSpec, String> {
        Ok(ProgramSpec {
            label: app.label(),
            source: app.source(),
            expected: app.oracle()?,
            app,
        })
    }

    /// `Ok` if `output` (a run's captured print lines) matches the oracle.
    pub fn verify(&self, output: &[String]) -> Result<(), String> {
        if self.check(output) {
            Ok(())
        } else {
            Err(format!(
                "{}: output {output:?} does not match the expected {:?}",
                self.label, self.expected
            ))
        }
    }

    fn check(&self, output: &[String]) -> bool {
        output.len() == self.expected.len()
            && output.iter().zip(&self.expected).all(|(got, want)| {
                if want.rel_tol == 0.0 {
                    return *got == want.text;
                }
                match (got.parse::<f64>(), want.text.parse::<f64>()) {
                    (Ok(g), Ok(w)) => (g - w).abs() <= want.rel_tol * w.abs(),
                    _ => false,
                }
            })
    }
}

/// Keep a path's result alive to the optimiser without returning it.
fn used<T>(result: T) {
    black_box(result);
}

fn sub(src: &str, from: &str, to: &str) -> String {
    assert!(src.contains(from), "substitution `{from}` not found");
    src.replace(from, to)
}

/// Run a host-only `.ens` program on the interpreter (no kernel actor,
/// no `oclsim`) and return what it printed.
pub fn run_on_host(src: &str) -> Result<Vec<String>, String> {
    let module = ensemble_lang::compile_source(src).map_err(|e| e.to_string())?;
    assert!(
        kernel_plans(&module).is_empty(),
        "a host-only oracle must not contain kernel actors"
    );
    VmRuntime::new(module)
        .run()
        .map(|r| r.output)
        .map_err(|e| e.to_string())
}

/// The module's kernel actors: `(actor name, plan)` in actor-table order.
pub fn kernel_plans(module: &CompiledModule) -> Vec<(&str, &KernelPlan)> {
    module
        .actors
        .iter()
        .filter_map(|a| match &a.code {
            ActorCode::Kernel(plan) => Some((a.name.as_str(), &**plan)),
            ActorCode::Host { .. } => None,
        })
        .collect()
}

impl App {
    pub fn label(&self) -> String {
        match self {
            App::Matmul { n, .. } => format!("matmul-{n}"),
            App::Mandelbrot { n, iters } => format!("mandelbrot-{n}x{iters}"),
            App::Reduction { n, .. } => format!("reduction-{n}"),
            App::Docrank { docs } => format!("docrank-{docs}x{DOCRANK_ROUNDS}"),
            App::Lud { n, .. } => format!("lud-{n}"),
            App::StreamCopy { n, rounds, .. } => format!("stream_copy-{n}x{rounds}"),
        }
    }

    /// The GPU-targeted Ensemble source the program under test receives.
    pub fn source(&self) -> String {
        match *self {
            App::Matmul { n, fill } => sub(
                &apps_ens::matmul(n, "GPU"),
                "of 1.0",
                &format!("of {fill:?}"),
            ),
            App::Mandelbrot { n, iters } => apps_ens::mandelbrot(n, iters, "GPU"),
            App::Reduction { n, min } => sub(
                &apps_ens::reduction(n, "GPU"),
                ":= -123.5",
                &format!(":= {min:?}"),
            ),
            App::Docrank { docs } => apps_ens::docrank(docs, DOCRANK_ROUNDS, "GPU"),
            App::Lud { n, data_seed } => sub(
                &apps_ens::lud(n, "GPU"),
                "(n, 31)",
                &format!("(n, {data_seed})"),
            ),
            App::StreamCopy { n, rounds, fill } => {
                let s = sub(STREAM_COPY_ENS, "n = 1048576;", &format!("n = {n};"));
                let s = sub(&s, "rounds = 8;", &format!("rounds = {rounds};"));
                sub(&s, "of 1.0", &format!("of {fill:?}"))
            }
        }
    }

    /// The expected output, from a source other than the path under test:
    /// a closed form, or the application's sequential `seq.ens` on the
    /// host interpreter.
    pub fn oracle(&self) -> Result<Vec<Line>, String> {
        Ok(match *self {
            App::Matmul { n, fill } => vec![
                exact("checksum: "),
                exact(format!("{}", (n * n * n) as f64 * fill * 2.0)),
            ],
            App::Mandelbrot { n, iters } => {
                // Not `mandelbrot::reference`: that iterates in f32 and the
                // simulated device in f64, so a few boundary pixels differ.
                let seq = sub(MANDELBROT_SEQ_ENS, "1024", &n.to_string());
                let seq = sub(&seq, "1000", &iters.to_string());
                run_on_host(&seq)?.into_iter().map(exact).collect()
            }
            App::Reduction { min, .. } => vec![exact("min: "), exact(format!("{min}"))],
            App::Docrank { docs } => {
                let seq = sub(DOCRANK_SEQ_ENS, "65536", &docs.to_string());
                let seq = sub(&seq, "rounds = 10", &format!("rounds = {DOCRANK_ROUNDS}"));
                run_on_host(&seq)?.into_iter().map(exact).collect()
            }
            App::Lud { n, data_seed } => {
                let seq = sub(LUD_SEQ_ENS, "2048", &n.to_string());
                let seq = sub(&seq, "(n, 31)", &format!("(n, {data_seed})"));
                let out = run_on_host(&seq)?;
                // Close, not equal. The buffers are f32 and the interpreter
                // computes in f64; and the shipped `Sub` kernel guards with
                // `get_global_size(0)` where the matrix edge is meant, so
                // whenever the rounded range is smaller than the matrix the
                // ring leaves rows un-eliminated and its trace of U sits
                // 0.1-0.7 % off the true decomposition (n = 16 agrees to
                // 1e-8). The sequential program therefore catches a wrong
                // matrix, size or step count; bit-level agreement is held
                // by pinning (see `Runner::set_up`).
                out.into_iter()
                    .map(|text| Line {
                        rel_tol: if text.parse::<f64>().is_ok() {
                            2e-2
                        } else {
                            0.0
                        },
                        text,
                    })
                    .collect()
            }
            App::StreamCopy { n, rounds, fill } => vec![
                exact("sum: "),
                exact(format!(
                    "{}",
                    (rounds * (n / STREAM_RATIO)) as f64 * (2.0 * fill + 1.0)
                )),
            ],
        })
    }

    /// The application's two other implementations, inputs prepared: the
    /// native OpenCL host (`run_copencl`) and the Rust-API actor version
    /// (`run_ensemble`). Each call does one whole application run.
    pub fn paths(&self) -> Paths {
        let gpu = DeviceSel::gpu();
        match *self {
            App::Matmul { n, .. } => Paths::of(
                matmul::generate(n),
                |(a, b)| {
                    used(matmul::run_copencl(
                        a,
                        b,
                        DeviceType::Gpu,
                        ProfileSink::new(),
                    ))
                },
                move |(a, b)| used(matmul::run_ensemble(a, b, gpu, ProfileSink::new())),
            ),
            App::Mandelbrot { n, iters } => Paths::of(
                (n, iters as u32),
                |(n, it)| {
                    used(mandelbrot::run_copencl(
                        n,
                        n,
                        it,
                        DeviceType::Gpu,
                        ProfileSink::new(),
                    ))
                },
                move |(n, it)| used(mandelbrot::run_ensemble(n, n, it, gpu, ProfileSink::new())),
            ),
            App::Reduction { n, .. } => Paths::of(
                reduction::generate(n),
                |data| {
                    used(reduction::run_copencl(
                        data,
                        DeviceType::Gpu,
                        ProfileSink::new(),
                    ))
                },
                move |data| used(reduction::run_ensemble(data, gpu, ProfileSink::new())),
            ),
            App::Docrank { docs } => Paths::of(
                docrank::generate(docs),
                |(corpus, tpl)| {
                    used(docrank::run_copencl(
                        corpus,
                        tpl,
                        docrank::threshold(),
                        DeviceType::Gpu,
                        ProfileSink::new(),
                    ))
                },
                move |(corpus, tpl)| {
                    used(docrank::run_ensemble(
                        corpus,
                        tpl,
                        docrank::threshold(),
                        gpu,
                        ProfileSink::new(),
                    ))
                },
            ),
            App::Lud { n, .. } => Paths::of(
                lud::generate(n),
                |m| used(lud::run_copencl(m, DeviceType::Gpu, ProfileSink::new())),
                move |m| used(lud::run_ensemble(m, gpu, ProfileSink::new())),
            ),
            App::StreamCopy { n, rounds, fill } => {
                let module = ensemble_lang::compile_source(&self.source())
                    .expect("the stream_copy fixture compiles");
                Paths::of(
                    kernel_plans(&module)[0].1.clone(),
                    move |plan| stream_copy_copencl(&plan, n, rounds, fill as f32),
                    move |plan| stream_copy_core(&plan, n, rounds, fill as f32),
                )
            }
        }
    }

    /// The kernel dispatches one request makes, with buffers of the
    /// request's shapes, so [`crate::layers`] can replay the kernels alone.
    pub fn replay(&self) -> Replay {
        let f32s = |v: Vec<f32>| FlatSeg::F32(v);
        match *self {
            App::Matmul { n, fill } => Replay {
                data: vec![FlatData {
                    segs: vec![
                        f32s(vec![fill as f32; n * n]),
                        f32s(vec![2.0; n * n]),
                        f32s(vec![0.0; n * n]),
                    ],
                    dims: vec![n as i32; 6],
                }],
                steps: vec![Step::new(
                    "Multiply",
                    0,
                    &[n, n],
                    &[matmul_group(n); 2],
                    &[],
                )],
            },
            App::Mandelbrot { n, .. } => Replay {
                data: vec![FlatData {
                    segs: vec![FlatSeg::I32(vec![0; n * n])],
                    dims: vec![n as i32; 2],
                }],
                steps: vec![Step::new("Mandelbrot", 0, &[n, n], &[16, 16], &[])],
            },
            App::Reduction { n, .. } => {
                let mut replay = Replay::default();
                let mut current = reduction::generate(n);
                while current.len() > 1 {
                    let groups = current.len().div_ceil(REDUCTION_GROUP);
                    let len = current.len();
                    replay.steps.push(Step::new(
                        "Reduce",
                        replay.data.len(),
                        &[groups * REDUCTION_GROUP],
                        &[REDUCTION_GROUP],
                        &[],
                    ));
                    replay.data.push(FlatData {
                        segs: vec![f32s(current), f32s(vec![0.0; groups])],
                        dims: vec![len as i32, groups as i32],
                    });
                    current = vec![1.0; groups];
                }
                replay
            }
            App::Docrank { docs } => {
                let (corpus, tpl) = docrank::generate(docs);
                let terms = docrank::TERMS as i32;
                Replay {
                    data: vec![FlatData {
                        segs: vec![f32s(corpus), f32s(tpl), FlatSeg::I32(vec![0; docs])],
                        dims: vec![docs as i32, terms, terms, docs as i32],
                    }],
                    steps: vec![
                        Step::new("Rank", 0, &[docs], &[DOCRANK_GROUP], &[]);
                        DOCRANK_ROUNDS
                    ],
                }
            }
            App::Lud { n, .. } => {
                let group = if n >= 16 { 16 } else { 4 };
                let mut steps = Vec::with_capacity(3 * n);
                for step in 0..n {
                    let rem = (n - step - 1).max(1);
                    let rounded = rem.div_ceil(group) * group;
                    let s = [step as i32];
                    steps.push(Step::new("Diag", 0, &[1], &[1], &s));
                    steps.push(Step::new("Col", 0, &[rounded], &[group], &s));
                    steps.push(Step::new("Sub", 0, &[rounded; 2], &[group; 2], &s));
                }
                Replay {
                    data: vec![FlatData {
                        segs: vec![f32s(lud::generate(n).into_vec()), f32s(vec![0.0])],
                        dims: vec![n as i32, n as i32, 1],
                    }],
                    steps,
                }
            }
            App::StreamCopy { n, rounds, fill } => Replay {
                data: vec![FlatData {
                    segs: vec![
                        f32s(vec![fill as f32; n]),
                        f32s(vec![0.0; n / STREAM_RATIO]),
                    ],
                    dims: vec![n as i32, (n / STREAM_RATIO) as i32],
                }],
                steps: vec![
                    Step::new("Scale", 0, &[n / STREAM_RATIO], &[STREAM_GROUP], &[]);
                    rounds
                ],
            },
        }
    }
}

/// Matmul's work-group edge, as `bench::apps_ens::matmul` chooses it.
fn matmul_group(n: usize) -> usize {
    if n >= 16 {
        16
    } else {
        2
    }
}

/// See [`App::paths`].
pub struct Paths {
    pub copencl: Box<dyn Fn()>,
    pub core: Box<dyn Fn()>,
}

impl Paths {
    /// Both paths over one prepared `input`, cloned afresh for every call
    /// (the application functions consume their inputs).
    fn of<I: Clone + 'static>(
        input: I,
        copencl: impl Fn(I) + 'static,
        core: impl Fn(I) + 'static,
    ) -> Paths {
        let input2 = input.clone();
        Paths {
            copencl: Box::new(move || copencl(input.clone())),
            core: Box::new(move || core(input2.clone())),
        }
    }
}

/// See [`App::replay`].
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// Buffer sets; a step names the one it binds.
    pub data: Vec<FlatData>,
    pub steps: Vec<Step>,
}

/// One kernel dispatch of a request.
#[derive(Debug, Clone)]
pub struct Step {
    /// Kernel actor name in the `.ens` source.
    pub actor: &'static str,
    /// Index into [`Replay::data`].
    pub data: usize,
    pub nd: NdRange,
    /// Settings scalars, passed after the shape dims.
    pub scalars: Vec<i32>,
}

impl Step {
    fn new(actor: &'static str, data: usize, ws: &[usize], gs: &[usize], scalars: &[i32]) -> Step {
        Step {
            actor,
            data,
            nd: ensemble_ocl::nd_from(ws, gs).expect("replay ranges are well-formed"),
            scalars: scalars.to_vec(),
        }
    }
}

/// `stream_copy` the way a C host would write it: one context, queue,
/// program and pair of buffers, then per round write `x` and `y`,
/// dispatch, read `y` back. The kernel is the source the Ensemble
/// compiler generated, as both paths of the paper applications share one
/// kernel string.
fn stream_copy_copencl(plan: &KernelPlan, n: usize, rounds: usize, fill: f32) {
    let device = Platform::all()
        .iter()
        .flat_map(|p| p.devices(Some(DeviceType::Gpu)))
        .next()
        .expect("a GPU device");
    let context = Context::new(std::slice::from_ref(&device)).expect("context");
    let queue = CommandQueue::new(&context, &device).expect("queue");
    let program = Program::build(&context, &plan.source).expect("program build");
    let kernel = program.create_kernel(&plan.kernel_name).expect("kernel");
    let m = n / STREAM_RATIO;
    let buf_x = context
        .create_buffer(MemFlags::ReadOnly, n * 4)
        .expect("buf x");
    let buf_y = context
        .create_buffer(MemFlags::ReadWrite, m * 4)
        .expect("buf y");
    kernel.set_arg_buffer(0, &buf_x).expect("arg x");
    kernel.set_arg_buffer(1, &buf_y).expect("arg y");
    kernel.set_arg_i32(2, n as i32).expect("dim x");
    kernel.set_arg_i32(3, m as i32).expect("dim y");
    let x = vec![fill; n];
    let mut total = 0.0f64;
    for _ in 0..rounds {
        let y = vec![0.0f32; m];
        queue.write_f32(&buf_x, &x).expect("write x");
        queue.write_f32(&buf_y, &y).expect("write y");
        queue
            .enqueue_nd_range(&kernel, &NdRange::d1(m, STREAM_GROUP))
            .expect("dispatch");
        let (back, _) = queue.read_f32(&buf_y).expect("read y");
        total += back.iter().map(|&v| f64::from(v)).sum::<f64>();
    }
    context.release_bytes((n + m) * 4);
    assert_eq!(total, (rounds * m) as f64 * f64::from(2.0 * fill + 1.0));
}

/// `stream_copy` on the Rust actor API (`ensemble_ocl::KernelActor`): the
/// same choreography as the `.ens` program without the VM.
fn stream_copy_core(plan: &KernelPlan, n: usize, rounds: usize, fill: f32) {
    type Data = (Vec<f32>, Vec<f32>);
    let m = n / STREAM_RATIO;
    let spec = KernelSpec {
        source: plan.source.clone(),
        kernel_name: plan.kernel_name.clone(),
        device: DeviceSel::gpu(),
        out_segs: vec![1],
        out_dims: vec![1],
        profile: ProfileSink::new(),
        recovery: RecoveryPolicy::default(),
    };
    let (req_out, req_in) = buffered_channel::<Settings<Data, Vec<f32>>>(1);
    let mut stage = Stage::new("home");
    stage.spawn("Scale", KernelActor::<Data, Vec<f32>>::new(spec, req_in));
    let (result_out, result_in) = buffered_channel::<f64>(1);
    stage.spawn_once("Dispatch", move |_| {
        let x = vec![fill; n];
        let mut total = 0.0f64;
        for _ in 0..rounds {
            let i = In::with_buffer(1);
            let o = Out::new();
            o.connect(&i);
            let (back_out, back_in) = buffered_channel::<Vec<f32>>(1);
            let settings = Settings::new(vec![m], vec![STREAM_GROUP], i, back_out);
            req_out.send_moved(settings).expect("send settings");
            // A copy channel: the payload is duplicated on send.
            o.send(&(x.clone(), vec![0.0f32; m])).expect("send data");
            let back = back_in.receive().expect("receive y");
            total += back.iter().map(|&v| f64::from(v)).sum::<f64>();
        }
        result_out.send(&total).expect("send total");
    });
    let total = result_in.receive().expect("receive total");
    stage.join();
    assert_eq!(total, (rounds * m) as f64 * f64::from(2.0 * fill + 1.0));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Vec<App> {
        vec![
            App::Matmul { n: 8, fill: 1.5 },
            App::Mandelbrot { n: 16, iters: 20 },
            App::Reduction {
                n: 512,
                min: -107.5,
            },
            App::Docrank { docs: 64 },
            App::Lud { n: 8, data_seed: 5 },
            App::StreamCopy {
                n: 4096,
                rounds: 2,
                fill: 1.25,
            },
        ]
    }

    #[test]
    fn every_program_passes_the_gate_and_matches_its_oracle() {
        for app in tiny() {
            let spec = ProgramSpec::new(app).unwrap();
            let module = ensemble_analysis::compile_source(&spec.source, &Default::default())
                .unwrap_or_else(|e| panic!("{}: {e}", spec.label));
            let report = VmRuntime::new(module).run().unwrap();
            assert!(
                spec.check(&report.output),
                "{}: got {:?}, want {:?}",
                spec.label,
                report.output,
                spec.expected
            );
        }
    }

    #[test]
    fn a_wrong_output_fails_the_check() {
        let spec = ProgramSpec::new(App::Matmul { n: 8, fill: 1.0 }).unwrap();
        assert!(spec.check(&["checksum: ".into(), "1024".into()]));
        assert!(!spec.check(&["checksum: ".into(), "1025".into()]));
        assert!(!spec.check(&["checksum: ".into()]));
        let lud = ProgramSpec::new(App::Lud {
            n: 8,
            data_seed: 31,
        })
        .unwrap();
        let want: f64 = lud.expected[1].text.parse().unwrap();
        assert!(lud.check(&["U trace: ".into(), format!("{}", want * 1.001)]));
        assert!(!lud.check(&["U trace: ".into(), format!("{}", want * 1.05)]));
    }

    #[test]
    fn both_other_paths_of_every_app_run() {
        for app in tiny() {
            let paths = app.paths();
            (paths.copencl)();
            (paths.core)();
        }
    }
}
