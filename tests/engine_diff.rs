//! Differential tests pinning the three kernel execution engines together.
//!
//! Every kernel the repository can produce — the generated OpenCL C of all
//! five Ensemble applications on both device targets, hand-written trap
//! fixtures, and proptest-generated expression and cross-item-conflict
//! kernels — is run through the
//! full public dispatch path (`Program::build` → `set_arg_*` →
//! `enqueue_nd_range`) once per engine, and all three engines must agree
//! **byte for byte** on every output buffer, on the retired abstract op
//! count, and — when a kernel traps — on the exact trap message and
//! work-item.
//!
//! The stack interpreter is the reference; the register-IR engine
//! (`oclsim::minicl::regir`) and the direct-threaded native engine
//! (`oclsim::minicl::native`) are the ones under test. Each is compared
//! against the stack reference, closing the triangle
//! stack ↔ register ↔ native. See `ARCHITECTURE.md` §11–§12.

use ensemble_repro::ensemble_lang::{self, ActorCode};
use ensemble_repro::oclsim::{
    ClError, CommandQueue, Context, DeviceType, Engine, MemFlags, NdRange, Platform, ProfileSink,
    Program,
};
use ensemble_repro::trace::{SpanKind, TraceSink};
use proptest::prelude::*;

/// Elements per synthesized `__global` buffer argument.
const BUF_ELEMS: usize = 4096;
/// Launch geometry used for every harvested kernel.
const GLOBAL: [usize; 3] = [16, 16, 1];
const LOCAL: [usize; 3] = [4, 4, 1];

/// Deterministic, engine-independent fill for buffer argument `arg`:
/// small floats in roughly `[-1.3, 1.3]`, so harvested numeric kernels
/// exercise real arithmetic rather than NaN propagation.
fn arg_fill(arg: usize, elems: usize) -> Vec<u8> {
    (0..elems)
        .flat_map(|i| {
            let v = ((i * 7 + arg * 13) % 97) as f32 / 37.0 - 1.3;
            v.to_le_bytes()
        })
        .collect()
}

/// One engine's observable outcome: every buffer argument's final bytes,
/// the retired abstract op count and the label of the engine that ran it
/// ([`ensemble_repro::oclsim::Event::engine`]), or the trap rendered as a
/// string.
type Outcome = Result<(Vec<Vec<u8>>, u64, &'static str), String>;

/// Kernels whose requested engine declines them, so a lower rung of the
/// ladder runs them instead: `(kernel, requested, ran)`. Empty — every
/// kernel this suite builds, harvested, gated or generated, runs on the
/// rung it asks for. Without this check a silent native → register
/// fallback would turn "native vs stack" into "register vs stack".
const DECLINES: &[(&str, Engine, &str)] = &[];

/// Assert that `outcome` ran on `requested`, or on the rung [`DECLINES`]
/// names for `kernel_name`. A trap carries no event, so it names no rung.
fn assert_ran_on(requested: Engine, kernel_name: &str, outcome: &Outcome) {
    let Ok((_, _, ran)) = outcome else { return };
    let expected = DECLINES
        .iter()
        .find(|(name, engine, _)| *name == kernel_name && *engine == requested)
        .map_or(requested.label(), |(_, _, ran)| ran);
    assert_eq!(
        *ran,
        expected,
        "`{kernel_name}`: requested {} but {ran} ran",
        requested.label()
    );
}

/// Run `kernel_name` from `src` on `engine` with synthesized arguments.
///
/// Argument kinds are discovered by trial through the public setters:
/// buffer first (4096 elements, deterministic fill), then `__local`
/// (16 bytes per work-item in the group), then `int` (16), then
/// `float` (0.5). Any error other than a kernel trap is a panic — the
/// fixtures are expected to build and launch.
fn run_on(engine: Engine, src: &str, kernel_name: &str, global: [usize; 3], local: [usize; 3]) -> Outcome {
    run_traced(
        engine,
        src,
        kernel_name,
        global,
        local,
        TraceSink::disabled(),
    )
}

/// [`run_on`], with the dispatch's command span recorded on `sink`.
fn run_traced(
    engine: Engine,
    src: &str,
    kernel_name: &str,
    global: [usize; 3],
    local: [usize; 3],
    sink: TraceSink,
) -> Outcome {
    run_bound(engine, src, kernel_name, global, local, sink, &[])
}

/// [`run_traced`], with the `int` arguments taken from `ints` in
/// parameter order (16 once they run out).
fn run_bound(
    engine: Engine,
    src: &str,
    kernel_name: &str,
    global: [usize; 3],
    local: [usize; 3],
    sink: TraceSink,
    ints: &[i32],
) -> Outcome {
    let mut ints = ints.iter().copied();
    let device = Platform::default_device(DeviceType::Gpu).expect("device");
    let ctx = Context::new(std::slice::from_ref(&device)).expect("context");
    let queue = CommandQueue::new(&ctx, &device).expect("queue");
    let profile = ProfileSink::new().with_trace(sink);
    let program = Program::build(&ctx, src)
        .unwrap_or_else(|e| panic!("build failure for `{kernel_name}`: {e}\n{src}"));
    let kernel = program.create_kernel(kernel_name).expect("kernel");
    kernel.set_engine(Some(engine));
    let local_items: usize = local.iter().product();
    let mut bufs = Vec::new();
    for i in 0..kernel.num_args() {
        let buf = ctx
            .create_buffer(MemFlags::ReadWrite, BUF_ELEMS * 4)
            .expect("buffer");
        if kernel.set_arg_buffer(i, &buf).is_ok() {
            queue
                .enqueue_write_buffer(&buf, &arg_fill(i, BUF_ELEMS))
                .expect("write");
            bufs.push(buf);
        } else if kernel.set_arg_local(i, local_items * 16).is_err() {
            if kernel.set_arg_i32(i, 16).is_err() {
                kernel
                    .set_arg_f32(i, 0.5)
                    .unwrap_or_else(|e| panic!("arg {i} of `{kernel_name}` unbindable: {e}"));
            } else if let Some(v) = ints.next() {
                kernel.set_arg_i32(i, v).expect("an int argument");
            }
        }
    }
    let (ops, ran) = match queue.enqueue_nd_range(&kernel, &NdRange::d3(global, local)) {
        Ok(ev) => {
            profile.record_command(&ev, device.name());
            (ev.ops(), ev.engine().expect("a kernel event names its engine"))
        }
        Err(ClError::KernelTrap {
            message, global_id, ..
        }) => return Err(format!("{message} @ {global_id:?}")),
        Err(other) => panic!("`{kernel_name}` failed to launch: {other}"),
    };
    let mut out = Vec::new();
    for buf in &bufs {
        let mut bytes = vec![0u8; BUF_ELEMS * 4];
        queue.enqueue_read_buffer(buf, &mut bytes).expect("read");
        out.push(bytes);
    }
    let outcome = Ok((out, ops, ran));
    assert_ran_on(engine, kernel_name, &outcome);
    outcome
}

/// Run on all three engines and assert identical outcomes pairwise
/// against the stack reference (closing the triangle transitively).
fn assert_engines_agree(src: &str, kernel_name: &str, global: [usize; 3], local: [usize; 3]) {
    let _ = assert_engines_agree_bound(src, kernel_name, global, local, &[]);
}

/// [`assert_engines_agree`] with chosen `int` arguments (see [`run_bound`]);
/// returns the agreed outcome.
fn assert_engines_agree_bound(
    src: &str,
    kernel_name: &str,
    global: [usize; 3],
    local: [usize; 3],
    ints: &[i32],
) -> Outcome {
    let run = |engine| {
        let sink = TraceSink::disabled();
        run_bound(engine, src, kernel_name, global, local, sink, ints)
    };
    let stack = run(Engine::Stack);
    for (label, engine) in [("register", Engine::Register), ("native", Engine::Native)] {
        let other = run(engine);
        match (&stack, &other) {
            (Ok((sb, sops, _)), Ok((ob, oops, _))) => {
                assert_eq!(sb, ob, "`{kernel_name}`: {label} output buffers differ from stack");
                assert_eq!(sops, oops, "`{kernel_name}`: {label} retired op count differs from stack");
            }
            (Err(s), Err(o)) => assert_eq!(s, o, "`{kernel_name}`: {label} trap differs from stack"),
            _ => panic!(
                "`{kernel_name}`: engines disagree on success: stack={stack:?} {label}={other:?}"
            ),
        }
    }
    stack
}

/// Harvest every distinct generated kernel from the five applications'
/// Ensemble sources, on both device targets.
fn harvested_kernels() -> Vec<(String, String)> {
    harvest(|src| ensemble_lang::compile_source(src).expect("compile .ens"))
}

/// The same through the analysis gate: what the VM, the serving layer and
/// the benchmark actually build.
fn gated_kernels() -> Vec<(String, String)> {
    harvest(|src| {
        ensemble_analysis::compile_source(src, &Default::default()).expect("passes the gate")
    })
}

fn harvest(front_end: impl Fn(&str) -> ensemble_lang::CompiledModule) -> Vec<(String, String)> {
    let mut found: Vec<(String, String)> = Vec::new();
    for target in ["GPU", "CPU"] {
        let sources = [
            bench::apps_ens::matmul(16, target),
            bench::apps_ens::mandelbrot(16, 8, target),
            bench::apps_ens::lud(16, target),
            bench::apps_ens::reduction(256, target),
            bench::apps_ens::docrank(64, 2, target),
        ];
        for ens_src in sources {
            let module = front_end(&ens_src);
            for actor in &module.actors {
                if let ActorCode::Kernel(plan) = &actor.code {
                    if !found.iter().any(|(_, s)| *s == plan.source) {
                        found.push((plan.kernel_name.clone(), plan.source.clone()));
                    }
                }
            }
        }
    }
    found
}

/// Every kernel the Ensemble compiler generates for the five evaluation
/// applications runs identically on all three engines.
#[test]
fn harvested_app_kernels_agree_on_all_engines() {
    let kernels = harvested_kernels();
    assert!(
        kernels.len() >= 5,
        "expected at least one kernel per application, harvested {}",
        kernels.len()
    );
    for (name, src) in &kernels {
        assert_engines_agree(src, name, GLOBAL, LOCAL);
    }
}

/// The kernel span's arguments for one traced native run of `name`.
fn native_span_args(src: &str, name: &str, global: [usize; 3], local: [usize; 3]) -> Vec<(String, String)> {
    let sink = TraceSink::new();
    run_traced(Engine::Native, src, name, global, local, sink.clone()).expect("runs");
    let events = sink.events();
    let span = events
        .iter()
        .find(|e| e.kind == SpanKind::Kernel)
        .expect("a kernel span");
    span.args.clone()
}

fn span_arg(args: &[(String, String)], key: &str) -> Option<String> {
    args.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone())
}

/// The stripped set of the shipped kernels, from the kernel span: every
/// barrier-free kernel with more than one item per group runs all its
/// items in strips — LUD's in-place `Col` and `Sub` included, on the
/// engine's own proof — and the reduction's regions strip on 2-D groups
/// too. `Diag`'s every item stores `piv[0]`, so it runs one lane wide and
/// the span names the pair. Gated and ungated front ends build one source.
#[test]
fn shipped_kernels_take_the_strip_path() {
    let kernels = gated_kernels();
    assert_eq!(kernels, harvested_kernels());
    let items = (GLOBAL[0] * GLOBAL[1]).to_string();
    for name in ["Multiply", "Mandelbrot", "Rank", "Col", "Sub"] {
        let (_, src) = kernels.iter().find(|(n, _)| n == name).expect("harvested");
        let args = native_span_args(src, name, GLOBAL, LOCAL);
        assert_eq!(span_arg(&args, "strip_items"), Some(items.clone()), "`{name}`: {args:?}");
        assert!(span_arg(&args, "strip_unzips").is_some(), "`{name}`: {args:?}");
        assert_eq!(span_arg(&args, "scalar_why"), None, "`{name}`: {args:?}");
    }
    let (_, src) = kernels.iter().find(|(n, _)| n == "Diag").expect("harvested");
    let args = native_span_args(src, "Diag", GLOBAL, LOCAL);
    assert_eq!(span_arg(&args, "strip_items"), None, "{args:?}");
    assert_eq!(span_arg(&args, "scalar_why").as_deref(), Some("store+store global slot 1"));
    // `Reduce` at [4, 4, 1]: four phases (the opening one, two tree steps,
    // the last one), every item of every row in a strip in each.
    let (_, src) = kernels.iter().find(|(n, _)| n == "Reduce").expect("harvested");
    let args = native_span_args(src, "Reduce", GLOBAL, LOCAL);
    assert_eq!(span_arg(&args, "strip_items"), Some((4 * GLOBAL[0] * GLOBAL[1]).to_string()), "{args:?}");
    assert_eq!(span_arg(&args, "scalar_why"), None, "{args:?}");
}

/// LUD at every size the ledger runs it: each `Col` and `Sub` dispatch of
/// the whole factorisation, through the VM as the benchmark runs it,
/// takes every item in a strip on the native engine (16-wide groups, or
/// 4-wide below n = 16).
#[test]
fn lud_kernels_strip_at_every_ledger_size() {
    for n in [8, 12, 16, 32, 48] {
        let src = bench::apps_ens::lud(n, "GPU");
        let module = ensemble_analysis::compile_source(&src, &Default::default()).expect("gated");
        let sink = TraceSink::new();
        let vm = ensemble_repro::ensemble_vm::VmRuntime::with_profile(
            module,
            ProfileSink::new().with_trace(sink.clone()),
        );
        vm.run().expect("LUD runs");
        let mut seen = 0;
        for span in sink.events().iter().filter(|e| e.kind == SpanKind::Kernel) {
            if !matches!(span.name.as_str(), "Col" | "Sub") {
                continue;
            }
            let arg = |key: &str| span_arg(&span.args, key);
            assert_eq!(arg("engine").as_deref(), Some("native"), "n {n}: {:?}", span.args);
            assert_eq!(arg("strip_items"), arg("items"), "n {n} `{}`: {:?}", span.name, span.args);
            assert_eq!(arg("scalar_why"), None, "n {n} `{}`: {:?}", span.name, span.args);
            seen += 1;
        }
        assert_eq!(seen, 2 * n, "n {n}: one Col and one Sub per step");
    }
}

/// The C-OpenCL docrank `rank`, as its host runs it at 256 documents,
/// takes items in strips on every round. Its flag store goes through a
/// stack slot that holds `out` across the `?:` branches; pointer copy
/// propagation resolves the slot to the parameter, and the race rule
/// decides.
#[test]
fn the_copencl_rank_kernel_strips() {
    use ensemble_repro::ensemble_apps::docrank;
    let sink = TraceSink::new();
    let (docs, tpl) = docrank::generate(256);
    let profile = ProfileSink::new().with_trace(sink.clone());
    docrank::run_copencl(docs, tpl, docrank::threshold(), DeviceType::Gpu, profile);
    let events = sink.events();
    let spans: Vec<_> = events.iter().filter(|e| e.kind == SpanKind::Kernel).collect();
    assert_eq!(spans.len(), docrank::ROUNDS);
    for span in spans {
        let arg = |key: &str| span_arg(&span.args, key);
        assert_eq!(arg("engine").as_deref(), Some("native"), "{:?}", span.args);
        let strip_items: u64 = arg("strip_items").map_or(0, |v| v.parse().expect("a count"));
        assert!(strip_items > 0, "{:?}", span.args);
        assert_eq!(arg("scalar_why"), None, "{:?}", span.args);
    }
}

/// LUD's in-place kernels against the stack and register engines on
/// bytes, op counts and traps, over the strip shapes (`local_size[0]`
/// below, at, and just above the strip width, with remainders) and the
/// factorisation's first, second and last step — where the guards turn
/// away no item, some items, and nearly every item.
#[test]
fn lud_kernels_agree_for_every_strip_shape_and_step() {
    let kernels = gated_kernels();
    // `m` is N x N and fills the synthesized buffer exactly.
    const N: i32 = 64;
    assert_eq!((N * N) as usize, BUF_ELEMS);
    for name in ["Col", "Sub"] {
        let (_, src) = kernels.iter().find(|(n, _)| n == name).expect("harvested");
        for lx in [1usize, 5, 16, 17, 33] {
            // Up to three groups along dimension 0, inside the rows of `m`.
            let global = [lx * (48 / lx).clamp(1, 3), 6, 1];
            let local = [lx, 3, 1];
            for step in [0, 1, N - 2] {
                // m_dim0, m_dim1, piv_dim0, set_step.
                let ints = [N, N, 1, step];
                let outcome = assert_engines_agree_bound(src, name, global, local, &ints);
                assert!(outcome.is_ok(), "`{name}` lx {lx} step {step}: {outcome:?}");
            }
        }
        // Rows declared wider than the buffer is long: the kernels run off
        // its end, and all three engines name the same item and message.
        let ints = [4000, 4000, 1, 0];
        let outcome = assert_engines_agree_bound(src, name, [48, 6, 1], [16, 3, 1], &ints);
        let trap = outcome.expect_err("runs off the buffer");
        assert!(trap.starts_with("out-of-bounds access"), "{trap}");
    }
}

/// Trap fixtures: all three engines must fail identically, through the
/// public dispatch path (not just the minicl unit tests).
#[test]
fn trap_fixtures_agree_on_all_engines() {
    let fixtures: &[(&str, &str)] = &[
        (
            "oob",
            "__kernel void oob(__global float* a) { a[get_global_id(0) + 1000000] = 1.0f; }",
        ),
        (
            "divz",
            "__kernel void divz(__global int* a) { int z = (int)(get_global_id(0) * 0); a[0] = 1 / z; }",
        ),
        (
            "diverge",
            "__kernel void diverge(__global float* a) { \
                if (get_local_id(0) == 0) { barrier(CLK_LOCAL_MEM_FENCE); } \
                a[get_global_id(0)] = 1.0f; }",
        ),
    ];
    for (name, src) in fixtures {
        let stack = run_on(Engine::Stack, src, name, GLOBAL, LOCAL);
        assert!(stack.is_err(), "`{name}` fixture was expected to trap");
        assert_engines_agree(src, name, GLOBAL, LOCAL);
    }
}

/// Build a float expression kernel from a proptest-chosen op/operand
/// script. Each step folds `v = v <op> <operand>` (or a call), covering
/// the register compiler's constant pool, mad fusion in both operand
/// orders, and compare-branch fusion.
fn float_expr_kernel(script: &[(u8, u8)]) -> String {
    let mut body = String::from("float v = a[i];\n");
    for (k, (op, operand)) in script.iter().enumerate() {
        let rhs = match operand % 4 {
            0 => "b[i]".to_string(),
            1 => "x".to_string(),
            2 => format!("{}.0f", (k % 7) + 1),
            _ => "v".to_string(),
        };
        let step = match op % 8 {
            0 => format!("v = v + {rhs};"),
            1 => format!("v = v - {rhs};"),
            2 => format!("v = v * {rhs};"),
            3 => format!("v = v * x + {rhs};"),
            4 => format!("v = {rhs} + v * x;"),
            5 => format!("v = fmin(v, {rhs});"),
            6 => format!("v = fmax(v, {rhs});"),
            _ => format!("if (v > {rhs}) {{ v = v - 0.5f; }}"),
        };
        body.push_str("                ");
        body.push_str(&step);
        body.push('\n');
    }
    format!(
        "__kernel void e(__global float* a, __global float* b, __global float* out, const float x) {{\n\
            int i = get_global_id(1) * get_global_size(0) + get_global_id(0);\n\
            {body}\
            out[i] = v;\n\
        }}"
    )
}

/// Build an integer loop kernel: a bounded accumulation whose body is
/// chosen by proptest — exercises MadI, wrapping arithmetic, guarded
/// division and the fused loop branch.
fn int_loop_kernel(bound: u8, ops: &[u8]) -> String {
    let mut body = String::new();
    for (k, op) in ops.iter().enumerate() {
        let c = (k % 5) as i64 + 2;
        let step = match op % 6 {
            0 => format!("acc = acc + j * {c};"),
            1 => format!("acc = acc * {c} + j;"),
            2 => "acc = acc - j;".to_string(),
            3 => "acc = acc / (j + 1);".to_string(),
            4 => format!("acc = acc % ({c} + j * 0 + 1);"),
            _ => format!("if (acc > {c}) {{ acc = acc - {c}; }}"),
        };
        body.push_str("                ");
        body.push_str(&step);
        body.push('\n');
    }
    format!(
        "__kernel void l(__global int* out) {{\n\
            int i = get_global_id(1) * get_global_size(0) + get_global_id(0);\n\
            int acc = i;\n\
            for (int j = 0; j < {bound}; j++) {{\n\
            {body}\
            }}\n\
            out[i] = acc;\n\
        }}"
    )
}

/// Build a kernel whose work-items get in each other's way on purpose:
/// loads and stores of `out` at overlapping indices, a second store site,
/// a store inside a loop, and loop trip counts that differ from item to
/// item. Any engine that lets items interleave without proving it safe —
/// the native engine's strip mode without its eligibility rule, or
/// without the unzip — leaves different bytes than the sequential sweep.
fn conflict_kernel(load: u8, trip: u8, loop_store: u8, store: u8, second: u8) -> String {
    let index = |k: u8| match k % 5 {
        0 => "i",
        1 => "i + 1",
        2 => "(i * 3) % 64",
        3 => "255 - i",
        _ => "0",
    };
    let load = match load % 4 {
        0 => "a[i]".to_string(),
        1 => "a[(i * 7) % 256]".to_string(),
        k => format!("out[{}]", index(k)),
    };
    let trip = match trip % 4 {
        0 => "3",
        1 => "i % 4",
        2 => "(i * 5) % 7",
        _ => "0",
    };
    let loop_store = match loop_store % 3 {
        0 => String::new(),
        k => format!("out[{} + j] = v;", index(k)),
    };
    let second = match second % 3 {
        0 => String::new(),
        k => format!("out[{}] = v + 1;", index(k + 1)),
    };
    format!(
        "__kernel void c(__global int* a, __global int* out) {{\n\
            int i = get_global_id(1) * get_global_size(0) + get_global_id(0);\n\
            int v = {load};\n\
            for (int j = 0; j < {trip}; j++) {{ v = v * 3 + j; {loop_store} }}\n\
            out[{}] = v;\n\
            {second}\n\
        }}",
        index(store)
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Kernels built to conflict across items agree on all engines: the
    /// native engine may only run in strips what it has proven safe.
    #[test]
    fn cross_item_conflict_kernels_agree(
        load in any::<u8>(),
        trip in any::<u8>(),
        loop_store in any::<u8>(),
        store in any::<u8>(),
        second in any::<u8>(),
    ) {
        let src = conflict_kernel(load, trip, loop_store, store, second);
        assert_engines_agree(&src, "c", GLOBAL, LOCAL);
    }

    /// Arbitrary float expression kernels agree byte for byte on all engines.
    #[test]
    fn random_float_kernels_agree(
        ops in proptest::collection::vec(any::<u8>(), 1..12),
        operands in proptest::collection::vec(any::<u8>(), 1..12),
    ) {
        let script: Vec<(u8, u8)> = ops
            .iter()
            .zip(operands.iter().chain(std::iter::repeat(&0)))
            .map(|(&o, &r)| (o, r))
            .collect();
        let src = float_expr_kernel(&script);
        assert_engines_agree(&src, "e", GLOBAL, LOCAL);
    }

    /// Arbitrary bounded integer loops agree, including op counts.
    #[test]
    fn random_int_loop_kernels_agree(
        bound in 1u8..64,
        ops in proptest::collection::vec(any::<u8>(), 1..6),
    ) {
        let src = int_loop_kernel(bound, &ops);
        assert_engines_agree(&src, "l", GLOBAL, LOCAL);
    }
}

/// The shipped reduction kernel — a `__local` tree under `lid < stride`,
/// between barriers — runs its phases in strips on the native engine, and
/// the span says so with no rule against it.
#[test]
fn the_shipped_reduction_runs_its_barrier_regions_in_strips() {
    let kernels = gated_kernels();
    let (_, src) = kernels.iter().find(|(n, _)| n == "Reduce").expect("harvested");
    let (global, local) = ([256, 1, 1], [64, 1, 1]);
    assert_engines_agree(src, "Reduce", global, local);
    let sink = TraceSink::new();
    run_traced(Engine::Native, src, "Reduce", global, local, sink.clone()).expect("runs");
    let events = sink.events();
    let span = events
        .iter()
        .find(|e| e.kind == SpanKind::Kernel)
        .expect("a kernel span");
    let arg = |key: &str| span.args.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone());
    let strip_items: u64 = arg("strip_items").map_or(0, |v| v.parse().expect("a count"));
    assert!(strip_items > 0, "{:?}", span.args);
    assert_eq!(arg("scalar_why"), None, "{:?}", span.args);
}

use ensemble_repro::oclsim::minicl::{self, native, regir, Lowered, MemPool, RtArg};

/// The native length of every kernel the benchmark's traffic lowers, in
/// order: the gated kernels of the five apps, `stream_copy`'s `Scale`,
/// then the C-OpenCL kernels (each app's `kernel.cl`, as its host builds
/// it), by name.
const TRAFFIC_LENGTHS: &[(&str, usize)] = &[
    ("Multiply", 13),
    ("Mandelbrot", 34),
    ("Diag", 5),
    ("Col", 9),
    ("Sub", 18),
    ("Reduce", 27),
    ("Rank", 37),
    ("Scale", 4),
    ("multiply", 13),
    ("mandelbrot", 37),
    ("lud_col", 8),
    ("lud_diag", 4),
    ("lud_sub", 16),
    ("reduce_min", 25),
    ("rank", 29),
];

/// The traffic's lowered code is pinned: `compile_native` compacts every
/// fused pair into one slot, so a change that loses (or adds) a fusion on
/// a kernel the benchmark runs changes its length here.
#[test]
fn the_traffics_lowered_code_is_pinned() {
    use ensemble_repro::ensemble_apps::{docrank, lud, mandelbrot, matmul, reduction};
    let mut kernels = gated_kernels();
    let fixture = include_str!("../benchmark/fixtures/stream_copy.ens");
    let stream_copy = ensemble_lang::compile_source(fixture).expect("the stream_copy fixture compiles");
    for actor in &stream_copy.actors {
        if let ActorCode::Kernel(plan) = &actor.code {
            kernels.push((plan.kernel_name.clone(), plan.source.clone()));
        }
    }
    let lower = |name: &str, unit: &minicl::CompiledUnit| {
        let info = &unit.kernels[name];
        let reg = regir::compile_kernel(unit, info).expect("register-lowerable");
        native::compile_native(&reg, info).expect("native-lowerable").len()
    };
    let mut lengths: Vec<(String, usize)> = kernels
        .iter()
        .map(|(name, src)| {
            let unit = minicl::compile(&minicl::parse(src).expect("parse")).expect("compile");
            (name.clone(), lower(name, &unit))
        })
        .collect();
    for src in [
        matmul::KERNEL_SRC,
        mandelbrot::KERNEL_SRC,
        lud::KERNEL_SRC,
        reduction::KERNEL_SRC,
        docrank::C_KERNEL_SRC,
    ] {
        let unit = minicl::compile(&minicl::parse(src).expect("parse")).expect("compile");
        let mut names: Vec<&String> = unit.kernels.keys().collect();
        names.sort();
        lengths.extend(names.into_iter().map(|name| (name.clone(), lower(name, &unit))));
    }
    let pinned: Vec<(String, usize)> =
        TRAFFIC_LENGTHS.iter().map(|&(name, len)| (name.to_string(), len)).collect();
    assert_eq!(lengths, pinned);
}

/// Work-group sizes along dimension 0 for the barrier kernels: one item,
/// a short strip, one full strip, a strip plus one, two strips plus one.
const BARRIER_LOCALS: [usize; 5] = [1, 5, 16, 17, 33];
/// Groups per barrier dispatch.
const BARRIER_GROUPS: usize = 3;

/// Build a barrier kernel over a `__local` array: a tree reduction (min or
/// sum, optionally in the shipped compare-then-store shape) whose `lid < s`
/// steps leave items out, rounds of a barrier inside a loop, and an opening
/// region that is race-free, or — `racy` — stores into a neighbour's slot;
/// one `guard` shape traps.
fn barrier_kernel(tree: u8, rounds: u8, racy: bool, guard: u8) -> String {
    let step = match tree % 3 {
        0 => "tmp[lid] = fmin(tmp[lid], tmp[lid + s]);",
        1 => "tmp[lid] = tmp[lid] + tmp[lid + s];",
        _ => "if (tmp[lid + s] < tmp[lid]) { tmp[lid] = tmp[lid + s]; }",
    };
    let open = if racy {
        "tmp[lid] = v; tmp[(lid + 1) % n] = v * 2.0f;"
    } else {
        "tmp[lid] = v; tmp[lid] = tmp[lid] * 2.0f;"
    };
    let rounds = rounds % 3;
    let bound = [1000, 40, 7, 1000][guard as usize % 4];
    // The last shape reads off the end of `in` in a strip.
    let load = if guard % 4 == 3 { "in[gid * 7]" } else { "in[gid]" };
    format!(
        "__kernel void b(__global float* in, __global float* out, __global float* part) {{
            __local float tmp[64];
            int gid = get_global_id(0);
            int lid = get_local_id(0);
            int n = get_local_size(0);
            float v = 3.0e38f;
            if (gid < {bound}) {{ v = {load}; }}
            {open}
            barrier(CLK_LOCAL_MEM_FENCE);
            for (int r = 0; r < {rounds}; r++) {{
                tmp[lid] = tmp[lid] * 0.5f + (float)r;
                barrier(CLK_LOCAL_MEM_FENCE);
            }}
            for (int s = n / 2; s > 0; s = s / 2) {{
                if (lid < s) {{ {step} }}
                barrier(CLK_LOCAL_MEM_FENCE);
            }}
            out[gid] = tmp[lid];
            if (lid == 0) {{ part[get_group_id(0)] = tmp[0]; }}
        }}"
    )
}

/// One engine's run of `windows` over one pool: each window's group op
/// counts (or its trap), the strip tallies, and the final buffers.
type WindowRun = (Vec<Result<Vec<u64>, String>>, u64, Vec<Vec<u8>>);

fn run_windows(
    prog: Lowered<'_>,
    info: &minicl::KernelInfo,
    (global, local): ([usize; 3], [usize; 3]),
    ints: &[i32],
    windows: &[[std::ops::Range<usize>; 3]],
) -> WindowRun {
    let elems = global[0];
    let mut pool = MemPool {
        bufs: (0..3).map(|arg| arg_fill(arg, elems)).collect(),
        read_only: vec![false; 3],
    };
    let bufs = (0..3).map(|pool_slot| RtArg::Buf { pool_slot });
    let scalars = ints.iter().map(|&v| RtArg::Scalar(minicl::Val::I(v as i64)));
    let args: Vec<RtArg> = bufs.chain(scalars).collect();
    let mut strip_items = 0;
    let outcomes = windows
        .iter()
        .map(|w| {
            minicl::run_ndrange(prog, info, &args, &mut pool, global, local, w.clone())
                .map(|stats| {
                    strip_items += stats.strip.items;
                    stats.group_ops
                })
                .map_err(|t| format!("{} @ {:?}", t.message, t.global_id))
        })
        .collect();
    (outcomes, strip_items, pool.bufs)
}

/// Run `src`'s kernel `b` at every [`BARRIER_LOCALS`] size, whole and over
/// split windows, on all three engines: bytes, per-group op counts and
/// traps agree, and through the public path so do op counts, traps and
/// virtual time. Returns the native engine's strip items per local size.
fn assert_barrier_kernel_agrees(src: &str) -> Vec<u64> {
    assert_kernel_b_agrees(src, &[])
}

/// [`assert_barrier_kernel_agrees`] for a kernel `b` whose three buffer
/// parameters are followed by `int` ones, bound to `ints` in order.
fn assert_kernel_b_agrees(src: &str, ints: &[i32]) -> Vec<u64> {
    let unit = minicl::compile(&minicl::parse(src).expect("parse")).expect("compile");
    let info = unit.kernels["b"].clone();
    let reg = regir::compile_kernel(&unit, &info).expect("register-lowerable");
    let nat = native::compile_native(&reg, &info).expect("native-lowerable");
    let mut strips = Vec::new();
    for lx in BARRIER_LOCALS {
        let (global, local) = ([lx * BARRIER_GROUPS, 1, 1], [lx, 1, 1]);
        let tilings: Vec<Vec<[std::ops::Range<usize>; 3]>> = vec![
            vec![minicl::all_groups(global, local)],
            vec![[0..1, 0..1, 0..1], [1..BARRIER_GROUPS, 0..1, 0..1]],
            (0..BARRIER_GROUPS).map(|g| [g..g + 1, 0..1, 0..1]).collect(),
        ];
        for windows in &tilings {
            let shape = (global, local);
            let stack = run_windows(Lowered::Stack(&unit), &info, shape, ints, windows);
            for prog in [Lowered::Register(&reg), Lowered::Native(&nat)] {
                let other = run_windows(prog, &info, shape, ints, windows);
                let label = format!("{} lx {lx} windows {windows:?}\n{src}", prog.engine().label());
                assert_eq!(stack.0, other.0, "{label}: group ops or traps differ");
                assert_eq!(stack.2, other.2, "{label}: bytes differ");
            }
            if windows.len() == 1 {
                strips.push(run_windows(Lowered::Native(&nat), &info, shape, ints, windows).1);
            }
        }
        let public = |engine| {
            let device = Platform::default_device(DeviceType::Gpu).expect("device");
            let ctx = Context::new(std::slice::from_ref(&device)).expect("context");
            let queue = CommandQueue::new(&ctx, &device).expect("queue");
            let program = Program::build(&ctx, src).expect("builds");
            let kernel = program.create_kernel("b").expect("kernel");
            kernel.set_engine(Some(engine));
            for i in 0..3 {
                let buf = ctx.create_buffer(MemFlags::ReadWrite, BUF_ELEMS * 4).expect("buffer");
                queue.enqueue_write_buffer(&buf, &arg_fill(i, BUF_ELEMS)).expect("write");
                kernel.set_arg_buffer(i, &buf).expect("a buffer argument");
            }
            for (i, &v) in ints.iter().enumerate() {
                kernel.set_arg_i32(3 + i, v).expect("an int argument");
            }
            match queue.enqueue_nd_range(&kernel, &NdRange::d3(global, local)) {
                Ok(ev) => Ok((ev.ops(), ev.duration_ns().to_bits())),
                Err(ClError::KernelTrap { message, global_id, .. }) => {
                    Err(format!("{message} @ {global_id:?}"))
                }
                Err(other) => panic!("launch failed: {other}"),
            }
        };
        let reference = public(Engine::Stack);
        for engine in [Engine::Register, Engine::Native] {
            assert_eq!(public(engine), reference, "{} lx {lx}: ops, trap or virtual time", engine.label());
        }
    }
    strips
}

/// Kernels whose work-items could read a register the previous item of
/// their arena left behind, if a work-item start restored less than the
/// registers live at the kernel entry. The compiler zeroes a declared
/// private scalar where it is declared, so what stays live at the entry
/// is a parameter read before it is written. Cases: a private scalar
/// written on some items' paths only; a parameter assigned before it is
/// read beside one assigned on some paths only; a loop-carried
/// accumulator, and a parameter that seeds one; a private value and a
/// parameter live across a barrier. Each agrees on every engine, strip
/// shape and window split (a start that restores nothing fails the last
/// three); debug builds also fill every register dead at the entry with a
/// sentinel at each start.
#[test]
fn work_item_starts_restore_every_register_live_at_the_entry() {
    let partial = "__kernel void b(__global float* in, __global float* out, __global float* part) {
        int gid = get_global_id(0);
        int x;
        if (gid % 3 == 0) { x = gid; }
        out[gid] = (float)x;
    }";
    let params = "__kernel void b(__global float* in, __global float* out, __global float* part, int p, int q) {
        int gid = get_global_id(0);
        p = gid * 3;
        if (gid % 2 == 0) { q = gid; }
        out[gid] = (float)(p + q);
    }";
    let accumulator = "__kernel void b(__global float* in, __global float* out, __global float* part, int a) {
        int gid = get_global_id(0);
        int n = get_global_size(0);
        float acc;
        for (int k = 0; k < gid % 4; k++) { acc = acc + in[(gid + k) % n]; a = a + k; }
        out[gid] = acc + (float)a;
    }";
    let across = "__kernel void b(__global float* in, __global float* out, __global float* part, int c) {
        __local float tmp[64];
        int gid = get_global_id(0);
        int lid = get_local_id(0);
        int n = get_local_size(0);
        float v;
        if (gid % 3 == 0) { v = in[gid]; c = lid; }
        tmp[lid] = v;
        barrier(CLK_LOCAL_MEM_FENCE);
        out[gid] = v + tmp[(lid + 1) % n] + (float)c;
    }";
    let cases: [(&str, &[i32]); 4] = [(partial, &[]), (params, &[7, 11]), (accumulator, &[5]), (across, &[9])];
    for (src, ints) in cases {
        let strips = assert_kernel_b_agrees(src, ints);
        for (lx, items) in BARRIER_LOCALS.iter().zip(strips) {
            assert!(items > 0 || *lx == 1, "lx {lx}: no strips\n{src}");
        }
    }
}

/// Items of a dispatch that start a phase in a strip of two or more lanes,
/// when `phases` of its phases run in strips.
fn expected_strip_items(lx: usize, phases: u64) -> u64 {
    let per_row: usize = (0..lx).step_by(16).map(|x| (lx - x).min(16)).filter(|&w| w > 1).sum();
    (per_row * BARRIER_GROUPS) as u64 * phases
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Generated barrier kernels agree on every engine, for every strip
    /// shape and window split, and their race-free regions run in strips.
    #[test]
    fn barrier_kernels_agree_in_region_strips(
        tree in any::<u8>(),
        rounds in any::<u8>(),
        guard in any::<u8>(),
    ) {
        let strips = assert_barrier_kernel_agrees(&barrier_kernel(tree, rounds, false, guard));
        for (lx, items) in BARRIER_LOCALS.iter().zip(strips) {
            prop_assert!(items > 0 || *lx == 1 || guard % 4 == 3, "lx {}: no strips", lx);
        }
    }
}

/// A region whose items store into a neighbour's slot is racy: it runs one
/// lane wide while the kernel's race-free regions still strip — and all
/// engines agree.
#[test]
fn a_racy_barrier_region_runs_one_lane_wide() {
    for (racy, tree) in [(true, 0), (false, 0), (true, 2)] {
        let src = barrier_kernel(tree, 0, racy, 0);
        let strips = assert_barrier_kernel_agrees(&src);
        for (&lx, items) in BARRIER_LOCALS.iter().zip(strips) {
            // Phases: the opening region, one per tree step, the last one.
            let steps = (1..).take_while(|k| lx >> k > 0).count() as u64;
            let phases = 2 + steps - racy as u64;
            assert_eq!(items, expected_strip_items(lx, phases), "racy {racy} lx {lx}\n{src}");
        }
    }
}

/// Run kernel `name` of `src` on the stack and native engines over one
/// pool — a [`BUF_ELEMS`]-element [`arg_fill`] buffer per pointer
/// parameter, `ints` for the scalar ones in order — and assert that
/// bytes, per-group op counts and traps agree. Returns the native
/// engine's strip items and `scalar_why`.
fn stack_and_native_agree(
    src: &str,
    name: &str,
    ints: &[i64],
    global: [usize; 3],
    local: [usize; 3],
) -> (u64, Option<String>) {
    use minicl::{ClType, Val};
    let unit = minicl::compile(&minicl::parse(src).expect("parse")).expect("compile");
    let info = unit.kernels[name].clone();
    let reg = regir::compile_kernel(&unit, &info).expect("register-lowerable");
    let nat = native::compile_native(&reg, &info).expect("native-lowerable");
    let mut next_int = ints.iter();
    let mut nbufs = 0;
    let args: Vec<RtArg> = info
        .params
        .iter()
        .map(|p| match p.ty {
            ClType::Ptr(..) => {
                nbufs += 1;
                RtArg::Buf { pool_slot: nbufs - 1 }
            }
            _ => RtArg::Scalar(Val::I(*next_int.next().expect("an int argument"))),
        })
        .collect();
    let run = |prog| {
        let mut pool = MemPool {
            bufs: (0..nbufs).map(|arg| arg_fill(arg, BUF_ELEMS)).collect(),
            read_only: vec![false; nbufs],
        };
        let window = minicl::all_groups(global, local);
        let outcome = minicl::run_ndrange(prog, &info, &args, &mut pool, global, local, window)
            .map_err(|t| format!("{} @ {:?}", t.message, t.global_id));
        (outcome, pool.bufs)
    };
    let (stack, stack_bufs) = run(Lowered::Stack(&unit));
    let (native, native_bufs) = run(Lowered::Native(&nat));
    let label = format!("`{name}` ints {ints:?} local {local:?}");
    assert_eq!(stack_bufs, native_bufs, "{label}: bytes differ\n{src}");
    match (stack, native) {
        (Ok(s), Ok(n)) => {
            assert_eq!(s.group_ops, n.group_ops, "{label}: group ops differ\n{src}");
            (n.strip.items, n.strip.scalar_why.map(|why| why.to_string()))
        }
        (Err(s), Err(n)) => {
            assert_eq!(s, n, "{label}: traps differ\n{src}");
            (0, None)
        }
        (s, n) => panic!("{label}: stack {s:?} native {n:?}\n{src}"),
    }
}

/// The work-group shapes along dimension 0 the strip tests sweep.
const STRIP_LOCALS: [usize; 5] = [1, 5, 16, 17, 33];

/// Items that start in a strip of two or more lanes when every row of a
/// dispatch of `rows` rows of `lx`-item groups runs in strips.
fn all_strip_items(lx: usize, rows: usize) -> u64 {
    let per_row: usize = (0..lx).step_by(16).map(|x| (lx - x).min(16)).filter(|&w| w > 1).sum();
    (per_row * rows) as u64
}

/// The item-granularity fixtures of the analysis crate, through the
/// Ensemble compiler: `Shift`'s item x + 1 reads what item x wrote, so it
/// runs one lane wide; `RowOverflow` and `InRow` write row 1 and read row
/// 0 of `m`, which meet a strip's width apart or not depending on the row
/// width. Rows of `w` elements, `w` around the strip width.
#[test]
fn the_lane_fixtures_strip_exactly_where_their_lanes_are_apart() {
    let fixture = include_str!("../crates/analysis/tests/fixtures/lanes.ens");
    let module = ensemble_lang::compile_source(fixture).expect("fixture compiles");
    let source = |name: &str| {
        module
            .actors
            .iter()
            .find_map(|a| match &a.code {
                ActorCode::Kernel(plan) if plan.kernel_name == name => Some(plan.source.clone()),
                _ => None,
            })
            .expect("a kernel actor")
    };
    let shift = source("Shift");
    for lx in STRIP_LOCALS {
        let global = [lx * 3, 1, 1];
        // a_dim0, m_dim0, m_dim1, set_w.
        let (items, why) = stack_and_native_agree(&shift, "Shift", &[4096, 2, 8, 8], global, [lx, 1, 1]);
        assert_eq!(items, 0, "lx {lx}");
        assert_eq!(why.as_deref(), (lx > 1).then_some("store+load global slot 0"), "lx {lx}");
    }
    for name in ["RowOverflow", "InRow"] {
        let src = source(name);
        for w in 0..=40i64 {
            for lx in STRIP_LOCALS {
                let global = [lx * 3, 1, 1];
                let (items, _) = stack_and_native_agree(&src, name, &[4096, 2, w, w], global, [lx, 1, 1]);
                // Row 1's store `m[w + x]` against the load `m[x + w + 1]`
                // (RowOverflow) or `m[x + 1]` (InRow): lanes `d` apart meet.
                let d = if name == "RowOverflow" { 1 } else { w - 1 };
                let width = lx.min(16) as i64;
                let apart = d == 0 || d.abs() >= width;
                let want = if apart { all_strip_items(lx, 3) } else { 0 };
                assert_eq!(items, want, "`{name}` w {w} lx {lx}");
            }
        }
    }
}

/// An in-place 2-D kernel over rows of `W` elements: one access at
/// `m[i*W + j]` and one at `m[(i + dr)*W + j + dc]`, a load and a store
/// either way round (`kind` 0 and 1) or two stores (2). Offsets keep every
/// index inside the buffer.
fn in_place_2d_kernel(kind: u8, dr: i64, dc: i64) -> String {
    let here = "m[i * W + j]";
    let there = format!("m[(i + {dr}) * W + j + {dc}]");
    let body = match kind % 3 {
        0 => format!("{here} = {there} * 3 + 1;"),
        1 => format!("{there} = {here} * 3 + 1;"),
        _ => format!("{here} = i; {there} = j;"),
    };
    format!(
        "__kernel void p(__global int* m, const int W) {{
            int j = get_global_id(0) + 20;
            int i = get_global_id(1) + 4;
            {body}
        }}"
    )
}

/// Run the in-place kernel over 2 x 2 groups of `[lx, 2, 1]` against the
/// stack engine; the strip items, and the items the rule predicts: all of
/// them when the two accesses of lanes `δ` apart in one strip
/// (`0 < |δ| < width`) never meet, that is when `dr·W + dc` is 0 or at
/// least the strip width in magnitude, else none.
fn in_place_2d_case(kind: u8, w: i64, dr: i64, dc: i64, lx: usize) -> (u64, u64) {
    let src = in_place_2d_kernel(kind, dr, dc);
    let (items, _) = stack_and_native_agree(&src, "p", &[w], [2 * lx, 4, 1], [lx, 2, 1]);
    let gap = dr * w + dc;
    let apart = gap == 0 || gap.abs() >= lx.min(16) as i64;
    (items, if apart { all_strip_items(lx, 4 * 2) } else { 0 })
}

/// A few in-place 2-D shapes, with the strip items they must take.
#[test]
fn in_place_2d_kernels_strip_by_the_row_gap() {
    for (kind, w, dr, dc, lx, want) in [
        // Row i+1 is 16 elements away: a 16-lane strip never meets it.
        (0, 16, 1, 0, 16, 128),
        // 8-element rows: lane x + 8 of row i reads what lane x writes.
        (0, 8, 1, 0, 16, 0),
        (1, 8, 1, 0, 16, 0),
        // Five lanes, and the other access five elements along.
        (0, 3, 0, 5, 5, 40),
        (2, 40, -1, 20, 17, 128),
        (2, 1, 3, 0, 33, 0),
        // The same element: each lane's own.
        (0, 7, 0, 0, 33, 256),
    ] {
        let (items, predicted) = in_place_2d_case(kind, w, dr, dc, lx);
        assert_eq!((items, predicted), (want, want), "kind {kind} W {w} dr {dr} dc {dc} lx {lx}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Generated in-place 2-D kernels, row widths around the strip width
    /// (narrower ones included), agree with the stack engine for every
    /// strip shape, and strip exactly where their lanes are apart.
    #[test]
    fn in_place_2d_kernels_agree_and_strip_exactly_where_apart(
        kind in 0u8..3,
        w in 1i64..41,
        dr in -3i64..4,
        dc in -20i64..21,
    ) {
        for lx in STRIP_LOCALS {
            let (items, predicted) = in_place_2d_case(kind, w, dr, dc, lx);
            prop_assert_eq!(items, predicted, "kind {} W {} dr {} dc {} lx {}", kind, w, dr, dc, lx);
        }
    }
}
