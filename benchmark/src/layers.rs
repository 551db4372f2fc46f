//! The traced run: every per-layer metric, measured from outside each
//! crate through its public functions, on the workload's own programs,
//! kernels and payload sizes.
//!
//! It has four parts. A *counting pass* runs each distinct program once
//! with the program's existing `TraceSink`/`ProfileSink` enabled and
//! harvests the counts (they repeat exactly). Three *replays* of the
//! request sequence — untraced, traced with harness spans, and through a
//! `Server` — have fixed request counts derived from `--seconds`, so
//! their counts repeat too. The *probes* then time single calls into
//! each layer; each reports the median of its samples. A final
//! *self-check* fails the run if the workload no longer has the shape its
//! name promises.
//!
//! Harness spans (`request` → `compile`, `run`; one span per probe) are
//! kept in memory and written at exit as Chrome trace JSON. No span is
//! added inside any crate.

use crate::apps::{kernel_plans, Paths, ProgramSpec, Replay, Step};
use crate::stats::{self, median_secs, secs, Timed};
use crate::workloads::{compile_and_run, run_module, serve_config, Runner, Via};
use ensemble_actors::{
    buffered_channel, channel, ActorCtx, ChannelError, ChildSpec, Control, FnActor, RestartBudget,
    Strategy, Supervisor,
};
use ensemble_lang::CompiledModule;
use ensemble_ocl::{Array2, DeviceSel, FlatData, Flatten, OpenClEnvironment};
use ensemble_serve::{Request, ServeError, Server, TenantSession};
use ensemble_vm::value::{flatten_fields, unflatten_fields};
use oclsim::{
    fnv1a64, Buffer, CommandQueue, Context, DeviceType, Engine, Kernel, MemFlags, NdRange,
    Platform, ProfileSink, Program,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;
use trace::{SpanKind, TraceEvent, TraceSink};

const FLOOR_ENS: &str = include_str!("../fixtures/floor.ens");
const INTERP_ENS: &str = include_str!("../fixtures/interp.ens");

/// Payload of the workload-independent channel probes: 4 MiB of `f32`.
const CHANNEL_PAYLOAD: usize = 1 << 20;

/// Share of `--seconds` each fixed-count replay is sized to.
const REPLAY_SHARE: f64 = 0.12;
/// Share of `--seconds` one probe may spend before it stops sampling.
const PROBE_SHARE: f64 = 0.01;

pub struct Layers {
    pub values: BTreeMap<&'static str, Timed>,
    pub attempted: u64,
    pub failed: u64,
    /// Self-check findings; empty when the workload is what it claims.
    pub problems: Vec<String>,
}

/// One distinct program of the workload with everything the probes need.
struct Prepared<'a> {
    spec: &'a ProgramSpec,
    module: CompiledModule,
    paths: Paths,
    kernels: KernelReplay,
}

/// A request's kernels on their own: the generated kernel sources built
/// against a private context, buffers of the request's shapes, and the
/// dispatches in order at their ND ranges.
struct KernelReplay {
    queue: CommandQueue,
    data: Vec<FlatData>,
    bufs: Vec<Vec<Buffer>>,
    kernels: Vec<(String, Kernel)>,
    steps: Vec<Step>,
}

fn gpu_queue() -> (Context, CommandQueue) {
    let device = Platform::all()
        .iter()
        .flat_map(|p| p.devices(Some(DeviceType::Gpu)))
        .next()
        .expect("a GPU device");
    let context = Context::new(std::slice::from_ref(&device)).expect("context");
    let queue = CommandQueue::new(&context, &device).expect("queue");
    (context, queue)
}

impl KernelReplay {
    fn new(module: &CompiledModule, replay: Replay) -> Result<KernelReplay, String> {
        let (context, queue) = gpu_queue();
        let mut kernels = Vec::new();
        for (actor, plan) in kernel_plans(module) {
            let program = Program::build(&context, &plan.source).map_err(|e| e.to_string())?;
            let kernel = program
                .create_kernel(&plan.kernel_name)
                .map_err(|e| e.to_string())?;
            kernels.push((actor.to_string(), kernel));
        }
        let bufs = replay
            .data
            .iter()
            .map(|flat| {
                flat.segs
                    .iter()
                    .map(|seg| context.create_buffer(MemFlags::ReadWrite, seg.byte_len()))
                    .collect::<Result<Vec<_>, _>>()
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        Ok(KernelReplay {
            queue,
            data: replay.data,
            bufs,
            kernels,
            steps: replay.steps,
        })
    }

    fn kernel(&self, actor: &str) -> &Kernel {
        &self
            .kernels
            .iter()
            .find(|(name, _)| name == actor)
            .unwrap_or_else(|| panic!("no kernel actor `{actor}` in the module"))
            .1
    }

    /// Restore the buffers' initial contents (LUD decomposes in place).
    fn upload(&self) {
        for (flat, bufs) in self.data.iter().zip(&self.bufs) {
            for (seg, buf) in flat.segs.iter().zip(bufs) {
                self.queue
                    .enqueue_write_buffer(buf, &seg.to_bytes())
                    .expect("replay upload");
            }
        }
    }

    /// Bind `step`'s arguments in the kernel actor's order: buffers, shape
    /// dims, settings scalars.
    fn bind(&self, step: &Step) -> &Kernel {
        let kernel = self.kernel(step.actor);
        let mut arg = 0;
        for buf in &self.bufs[step.data] {
            kernel.set_arg_buffer(arg, buf).expect("buffer arg");
            arg += 1;
        }
        for &d in self.data[step.data].dims.iter().chain(&step.scalars) {
            kernel.set_arg_i32(arg, d).expect("int arg");
            arg += 1;
        }
        kernel
    }

    /// Dispatch every step; returns (seconds in dispatches, abstract ops).
    fn run(&self) -> (f64, u64) {
        self.upload();
        let mut ops = 0;
        let elapsed = secs(|| {
            for step in &self.steps {
                let ev = self
                    .queue
                    .enqueue_nd_range(self.bind(step), &step.nd)
                    .expect("replay dispatch");
                ops += ev.ops();
            }
        });
        (elapsed, ops)
    }

    fn set_engine(&self, engine: Option<Engine>) {
        for (_, kernel) in &self.kernels {
            kernel.set_engine(engine);
        }
    }

    /// One work-group of the first dispatch.
    fn one_group(&self) -> (&Step, NdRange) {
        let step = &self.steps[0];
        let mut nd = step.nd;
        nd.global = nd.local;
        (step, nd)
    }
}

/// What the counting pass counted, summed over the programs.
#[derive(Debug, Default)]
struct Counts {
    vm_ops: f64,
    dispatches: f64,
    bytes_up: f64,
    bytes_down: f64,
    kernel_ops: f64,
    engine_fallbacks: f64,
    events: f64,
    virtual_ns: f64,
}

fn arg<'e>(e: &'e TraceEvent, key: &str) -> Option<&'e str> {
    e.args
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

/// Run `spec` once with its own sinks on and add what it counted to `total`.
fn counted_run(spec: &ProgramSpec, total: &mut Counts) -> Result<(), String> {
    let sink = TraceSink::new();
    let profile = ProfileSink::new().with_trace(sink.clone());
    let report = compile_and_run(&spec.source, profile.clone())?;
    spec.verify(&report.output)?;
    let events = sink.events();
    let bytes = |kind: SpanKind| -> f64 {
        events
            .iter()
            .filter(|e| e.kind == kind)
            .filter_map(|e| arg(e, "bytes")?.parse::<f64>().ok())
            .sum()
    };
    let snapshot = profile.snapshot();
    total.vm_ops += report.vm_ops as f64;
    total.dispatches += snapshot.dispatches as f64;
    total.bytes_up += bytes(SpanKind::ToDevice);
    total.bytes_down += bytes(SpanKind::FromDevice);
    total.kernel_ops += snapshot.ops as f64;
    total.engine_fallbacks += events
        .iter()
        .filter(|e| e.kind == SpanKind::Kernel)
        .filter(|e| arg(e, "engine") != Some(Engine::Native.label()))
        .count() as f64;
    total.events += events.len() as f64;
    total.virtual_ns += report.total_ns();
    Ok(())
}

/// Record a harness-side span from `start_ns` to now on `sink`'s wall
/// clock. The spans are kept in memory and written as Chrome trace JSON
/// when the run ends.
fn record_span(sink: &TraceSink, name: &str, track: &str, start_ns: f64, args: &[(&str, String)]) {
    let mut e = TraceEvent::span(
        SpanKind::Marker,
        name,
        track,
        start_ns,
        sink.wall_ns() - start_ns,
    )
    .with_arg("clock", "wall");
    for (k, v) in args {
        e = e.with_arg(k, v);
    }
    sink.record(e);
}

/// Collects the metrics, and records one harness span per probe.
struct Ledger<'s> {
    values: BTreeMap<&'static str, Timed>,
    spans: &'s TraceSink,
    probe_budget: Duration,
    min_calls: usize,
}

impl Ledger<'_> {
    fn set(&mut self, name: &'static str, value: f64, n: usize) {
        assert!(
            crate::metrics::find(name).is_some(),
            "`{name}` is not in the metric registry"
        );
        self.values.insert(name, Timed { value, n });
    }

    fn get(&self, name: &str) -> f64 {
        self.values[name].value
    }

    /// Median seconds per call of a probe that times itself.
    fn probe(&mut self, name: &str, f: impl FnMut() -> f64) -> Timed {
        let start = self.spans.wall_ns();
        let t = median_secs(self.probe_budget, self.min_calls, f);
        record_span(self.spans, name, "probes", start, &[("n", t.n.to_string())]);
        t
    }

    /// Mean over the workload's programs of each program's median seconds
    /// per call: what an average request of the workload pays.
    fn per_request<P>(&mut self, name: &str, items: &[P], f: impl Fn(&P) -> f64) -> Timed {
        let start = self.spans.wall_ns();
        let share = self.probe_budget / items.len() as u32;
        let medians: Vec<Timed> = items
            .iter()
            .map(|item| median_secs(share, self.min_calls, || f(item)))
            .collect();
        let t = Timed {
            value: stats::mean(&medians.iter().map(|t| t.value).collect::<Vec<_>>()),
            n: medians.iter().map(|t| t.n).sum(),
        };
        record_span(self.spans, name, "probes", start, &[("n", t.n.to_string())]);
        t
    }
}

/// Samples kept per program, so that a per-request figure is the mean
/// over the workload's programs of each program's median — the same
/// weighting the probes use — and not the median of a mix.
struct PerProgram(Vec<Vec<f64>>);

impl PerProgram {
    fn new(programs: usize) -> PerProgram {
        PerProgram(vec![Vec::new(); programs])
    }

    fn per_request(&mut self) -> f64 {
        let medians: Vec<f64> = self
            .0
            .iter_mut()
            .filter(|v| !v.is_empty())
            .map(|v| stats::median(v))
            .collect();
        stats::mean(&medians)
    }

    fn len(&self) -> usize {
        self.0.iter().map(Vec::len).sum()
    }
}

/// Replay `count` requests of client 0's order with
/// `each(request number, program index, program)`; returns the latencies
/// in ms by program, and the failures.
fn replay(
    runner: &Runner,
    seed: u64,
    count: usize,
    mut each: impl FnMut(usize, usize, &ProgramSpec) -> Result<(), String>,
) -> (PerProgram, Vec<String>) {
    let mut latencies = PerProgram::new(runner.programs.len());
    let mut errors = Vec::new();
    for (i, idx) in runner.order(seed, 0).take(count).enumerate() {
        let mut outcome = Ok(());
        let t = secs(|| outcome = each(i, idx, &runner.programs[idx]));
        match outcome {
            Ok(()) => latencies.0[idx].push(t * 1e3),
            Err(e) => errors.push(e),
        }
    }
    (latencies, errors)
}

pub fn traced_run(
    runner: &Runner,
    seed: u64,
    seconds: f64,
    min_calls: usize,
    trace_file: &Path,
) -> Result<Layers, String> {
    let workload = runner.workload;
    let spans = TraceSink::new();
    let mut led = Ledger {
        values: BTreeMap::new(),
        spans: &spans,
        probe_budget: Duration::from_secs_f64(seconds * PROBE_SHARE),
        min_calls,
    };
    let mut attempted = 0u64;
    let mut failures: Vec<String> = Vec::new();

    let prepared: Vec<Prepared> = runner
        .programs
        .iter()
        .map(|spec| {
            let module = ensemble_analysis::compile_source(&spec.source, &Default::default())
                .map_err(|e| e.to_string())?;
            Ok(Prepared {
                kernels: KernelReplay::new(&module, spec.app.replay())?,
                paths: spec.app.paths(),
                module,
                spec,
            })
        })
        .collect::<Result<_, String>>()?;
    let n_programs = prepared.len();

    // ---- counting pass: each distinct program once, traced ----
    let start = spans.wall_ns();
    let mut total = Counts::default();
    for p in &prepared {
        counted_run(p.spec, &mut total)?;
        attempted += 1;
    }
    record_span(&spans, "counting_pass", "probes", start, &[]);
    let per_req = |sum: f64| sum / n_programs as f64;
    led.set("vm.ops_per_req", per_req(total.vm_ops), n_programs);
    led.set(
        "vm.dispatches_per_req",
        per_req(total.dispatches),
        n_programs,
    );
    led.set("vm.bytes_up_per_req", per_req(total.bytes_up), n_programs);
    led.set(
        "vm.bytes_down_per_req",
        per_req(total.bytes_down),
        n_programs,
    );
    led.set(
        "vm.virtual_ns_per_req",
        per_req(total.virtual_ns),
        n_programs,
    );
    led.set(
        "oclsim.kernel_ops_per_req",
        per_req(total.kernel_ops),
        n_programs,
    );
    led.set(
        "oclsim.engine_fallbacks",
        total.engine_fallbacks,
        n_programs,
    );
    led.set("trace.events_per_req", per_req(total.events), n_programs);

    // ---- replays: fixed counts, whole passes over the programs ----
    let passes = (seconds * REPLAY_SHARE * workload.nominal_rps / n_programs as f64).ceil();
    let count = passes.max(1.0) as usize * n_programs;

    // Untraced, one client, compile and run in the client: the solo latency.
    let start = spans.wall_ns();
    let (mut solo, errors) = replay(runner, seed, count, |_, _, spec| {
        spec.verify(&compile_and_run(&spec.source, ProfileSink::new())?.output)
    });
    record_span(&spans, "replay_untraced", "probes", start, &[]);
    attempted += count as u64;
    failures.extend(errors);

    // Traced: the program's own sinks on, harness spans per request.
    let mut compile_ms = PerProgram::new(n_programs);
    let mut run_ms = PerProgram::new(n_programs);
    let mut recv_wait_ns = 0.0;
    let (mut traced, errors) = replay(runner, seed, count, |i, idx, spec| {
        let req = [("req", i.to_string()), ("program", spec.label.clone())];
        let sink = TraceSink::new();
        let profile = ProfileSink::new().with_trace(sink.clone());
        let t_req = spans.wall_ns();
        let module = ensemble_analysis::compile_source(&spec.source, &Default::default())
            .map_err(|e| e.to_string())?;
        let t_run = spans.wall_ns();
        record_span(&spans, "compile", "client-0", t_req, &req);
        let report = run_module(module, profile)?;
        let t_done = spans.wall_ns();
        record_span(&spans, "run", "client-0", t_run, &req);
        let outcome = spec.verify(&report.output);
        record_span(&spans, "request", "client-0", t_req, &req);
        compile_ms.0[idx].push((t_run - t_req) / 1e6);
        run_ms.0[idx].push((t_done - t_run) / 1e6);
        recv_wait_ns += sink
            .events()
            .iter()
            .filter(|e| e.kind == SpanKind::ChannelWait)
            .map(|e| e.dur_ns)
            .sum::<f64>();
        outcome
    });
    attempted += count as u64;
    failures.extend(errors);

    // Through a server, one client.
    let server = Arc::new(Server::new(serve_config()));
    let start = spans.wall_ns();
    let (mut served, errors) = replay(runner, seed, count, |i, _, spec| {
        let report = server
            .submit(Request::new(1 + (i % 2) as u64, spec.source.as_str()))
            .map_err(|e| e.to_string())?;
        spec.verify(&report.output)
    });
    record_span(&spans, "replay_served", "probes", start, &[]);
    attempted += count as u64;
    failures.extend(errors);

    if solo.len() == 0 || traced.len() == 0 || served.len() == 0 {
        return Err(format!(
            "a replay completed no request: {}",
            failures.first().map_or("no error recorded", String::as_str)
        ));
    }
    let solo_ms = solo.per_request();
    led.set("req.compile_ms", compile_ms.per_request(), count);
    led.set("req.run_ms", run_ms.per_request(), count);
    led.set(
        "actors.recv_wait_ms_per_req",
        recv_wait_ns / 1e6 / traced.len() as f64,
        traced.len(),
    );
    led.set(
        "trace.overhead_share",
        traced.per_request() / solo_ms - 1.0,
        count,
    );
    led.set(
        "serve.submit_over_solo_ms",
        served.per_request() - solo_ms,
        count,
    );
    let mut served_all: Vec<f64> = served.0.concat();
    led.set(
        "serve.latency_ms_p99",
        stats::percentile(&mut served_all, 99.0),
        served_all.len(),
    );
    let stats_now = server.stats();
    led.set("serve.completed", stats_now.completed as f64, count);
    led.set("serve.rejected", stats_now.rejected as f64, count);
    led.set(
        "serve.deadline_exceeded",
        stats_now.deadline_exceeded as f64,
        count,
    );
    led.set("serve.failed", stats_now.failed as f64, count);
    led.set("serve.evictions", server.pool().evictions() as f64, count);

    // ---- probes ----
    probe_front_end(&mut led, &prepared);
    probe_vm(&mut led, &prepared);
    probe_actors(&mut led);
    probe_core(&mut led, &prepared);
    let replay_ops = probe_oclsim(&mut led, &prepared);
    probe_kernel_share(&mut led, &prepared);
    probe_serve(&mut led, &server);
    probe_trace(&mut led);

    // ---- derived: the request ledger ----
    led.set("req.device_path_ms", led.get("oclsim.copencl_ms"), 0);
    led.set("req.floor_ms", led.get("vm.run_floor_ms"), 0);
    led.set(
        "req.unattributed_ms",
        led.get("req.run_ms") - led.get("oclsim.copencl_ms") - led.get("vm.run_floor_ms"),
        0,
    );

    std::fs::create_dir_all(trace_file.parent().expect("trace file has a directory"))
        .and_then(|()| std::fs::write(trace_file, trace::chrome_json(&spans.events())))
        .map_err(|e| format!("write {}: {e}", trace_file.display()))?;

    let mut problems = self_check(runner, &led, &prepared, replay_ops);
    problems.extend(failures.iter().take(3).cloned());
    Ok(Layers {
        values: led.values,
        attempted,
        failed: failures.len() as u64,
        problems,
    })
}

/// Fail loudly when a workload has drifted from what its name promises,
/// so it cannot keep reporting under its old name.
fn self_check(
    runner: &Runner,
    led: &Ledger,
    prepared: &[Prepared],
    replay_ops: u64,
) -> Vec<String> {
    let mut problems = Vec::new();
    let mut require = |ok: bool, what: String| {
        if !ok {
            problems.push(what);
        }
    };
    let workload = runner.workload;
    let share = led.get("oclsim.kernel_share");
    let (lowest, highest) = workload.kernel_share;
    require(
        (lowest..=highest).contains(&share),
        format!("kernel share {share:.3} is outside {lowest}..={highest}"),
    );
    let dispatches = led.get("vm.dispatches_per_req");
    require(
        dispatches >= workload.min_dispatches,
        format!(
            "{dispatches} dispatches per request, fewer than {}",
            workload.min_dispatches
        ),
    );
    if workload.via == Via::Server {
        for name in ["serve.evictions", "serve.rejected"] {
            require(led.get(name) == 0.0, format!("{name} = {}", led.get(name)));
        }
    }
    require(
        led.get("oclsim.engine_fallbacks") == 0.0,
        format!(
            "{} kernel dispatches fell off the native engine",
            led.get("oclsim.engine_fallbacks")
        ),
    );
    // The replayed kernels must be the request's kernels: same dispatch
    // count, and (reduction's compare is data-dependent) ops within 5 %.
    let replay_steps: usize = prepared.iter().map(|p| p.kernels.steps.len()).sum();
    require(
        replay_steps as f64 == dispatches * prepared.len() as f64,
        format!(
            "kernel replay makes {replay_steps} dispatches, the programs {}",
            dispatches * prepared.len() as f64
        ),
    );
    let real_ops = led.get("oclsim.kernel_ops_per_req") * prepared.len() as f64;
    require(
        (replay_ops as f64 - real_ops).abs() <= 0.05 * real_ops,
        format!("kernel replay retires {replay_ops} ops, the programs {real_ops}"),
    );
    problems
}

fn probe_front_end(led: &mut Ledger, prepared: &[Prepared]) {
    let opts = ensemble_analysis::Options::default();
    let parse = led.per_request("lang.parse_us", prepared, |p| {
        secs(|| {
            black_box(ensemble_lang::parse(&p.spec.source).expect("parses"));
        })
    });
    led.set("lang.parse_us", parse.value * 1e6, parse.n);
    let compile = led.per_request("lang.compile_us", prepared, |p| {
        secs(|| {
            black_box(ensemble_lang::compile_source(&p.spec.source).expect("compiles"));
        })
    });
    led.set("lang.compile_us", compile.value * 1e6, compile.n);
    let gated = led.per_request("analysis.gate_us", prepared, |p| {
        secs(|| {
            black_box(
                ensemble_analysis::compile_source(&p.spec.source, &opts).expect("passes the gate"),
            );
        })
    });
    led.set(
        "analysis.gate_us",
        (gated.value - compile.value) * 1e6,
        gated.n,
    );
    let analyze = led.per_request("analysis.analyze_us", prepared, |p| {
        secs(|| {
            black_box(ensemble_analysis::analyze_source(&p.spec.source, &opts).expect("parses"));
        })
    });
    led.set("analysis.analyze_us", analyze.value * 1e6, analyze.n);
    let asts: Vec<_> = prepared
        .iter()
        .map(|p| ensemble_lang::parse(&p.spec.source).expect("parses"))
        .collect();
    let proofs = led.per_request("analysis.proofs_us", &asts, |ast| {
        secs(|| {
            black_box(ensemble_analysis::proofs_for(ast));
        })
    });
    led.set("analysis.proofs_us", proofs.value * 1e6, proofs.n);

    let n = prepared.len();
    let mean_of = |f: &dyn Fn(&Prepared) -> usize| {
        prepared.iter().map(|p| f(p) as f64).sum::<f64>() / n as f64
    };
    led.set(
        "lang.kernel_src_bytes",
        mean_of(&|p| {
            kernel_plans(&p.module)
                .iter()
                .map(|(_, k)| k.source.len())
                .sum()
        }),
        n,
    );
    led.set(
        "lang.vm_ops_emitted",
        mean_of(&|p| {
            use ensemble_lang::ActorCode;
            let m = &p.module;
            m.boot.code.len()
                + m.actors
                    .iter()
                    .map(|a| {
                        a.field_init.code.len()
                            + match &a.code {
                                ActorCode::Host {
                                    constructor,
                                    behaviour,
                                } => constructor.code.len() + behaviour.code.len(),
                                ActorCode::Kernel(_) => 0,
                            }
                    })
                    .sum::<usize>()
        }),
        n,
    );
    led.set(
        "analysis.diagnostics",
        mean_of(&|p| {
            ensemble_analysis::analyze_source(&p.spec.source, &opts)
                .expect("parses")
                .diagnostics
                .len()
        }),
        n,
    );
}

fn compile_fixture(src: &str) -> CompiledModule {
    ensemble_analysis::compile_source(src, &Default::default())
        .expect("the fixture passes the gated front end")
}

/// The program with the largest first payload: the bandwidth probes run
/// at the workload's own largest message size.
fn largest<'p, 'a>(prepared: &'p [Prepared<'a>]) -> &'p Prepared<'a> {
    prepared
        .iter()
        .max_by_key(|p| payload_bytes(&p.kernels.data[0]))
        .expect("a workload has programs")
}

fn payload_bytes(flat: &FlatData) -> usize {
    flat.segs.iter().map(|s| s.byte_len()).sum()
}

fn gbps(bytes: usize, secs: f64) -> f64 {
    bytes as f64 / secs / 1e9
}

fn probe_vm(led: &mut Ledger, prepared: &[Prepared]) {
    let run = led.per_request("vm.run_ms", prepared, |p| {
        let module = p.module.clone();
        secs(|| {
            black_box(run_module(module, ProfileSink::new()).expect("runs"));
        })
    });
    led.set("vm.run_ms", run.value * 1e3, run.n);

    let floor = compile_fixture(FLOOR_ENS);
    let t = led.probe("vm.run_floor_ms", || {
        let module = floor.clone();
        secs(|| {
            black_box(run_module(module, ProfileSink::new()).expect("floor runs"));
        })
    });
    led.set("vm.run_floor_ms", t.value * 1e3, t.n);

    let interp = compile_fixture(INTERP_ENS);
    let mut ops = 0;
    let t = led.probe("vm.interp_mops_per_s", || {
        let module = interp.clone();
        secs(|| {
            ops = run_module(module, ProfileSink::new())
                .expect("interp runs")
                .vm_ops
        })
    });
    led.set("vm.interp_mops_per_s", ops as f64 / t.value / 1e6, t.n);

    // Flatten / unflatten / deep copy of the largest payload, through the
    // kernel plan's own field descriptors.
    let big = largest(prepared);
    let step = &big.kernels.steps[0];
    let plans = kernel_plans(&big.module);
    let fields = &plans
        .iter()
        .find(|(actor, _)| *actor == step.actor)
        .expect("the step's kernel actor")
        .1
        .data_fields;
    let flat = &big.kernels.data[step.data];
    let bytes = payload_bytes(flat);
    let vals = unflatten_fields(flat, fields).expect("unflatten");
    let t = led.probe("vm.flatten_gbps", || {
        secs(|| {
            black_box(flatten_fields(&vals, fields).expect("flatten"));
        })
    });
    led.set("vm.flatten_gbps", gbps(bytes, t.value), t.n);
    let t = led.probe("vm.unflatten_gbps", || {
        secs(|| {
            black_box(unflatten_fields(flat, fields).expect("unflatten"));
        })
    });
    led.set("vm.unflatten_gbps", gbps(bytes, t.value), t.n);
    let t = led.probe("vm.deep_copy_gbps", || {
        secs(|| {
            for v in &vals {
                black_box(v.deep_copy(None).expect("deep copy"));
            }
        })
    });
    // Host arrays hold f64/i64: twice the flattened bytes are copied.
    led.set("vm.deep_copy_gbps", gbps(2 * bytes, t.value), t.n);
}

fn probe_actors(led: &mut Ledger) {
    // Round trips through an echo thread, 100 per sample.
    const TRIPS: usize = 100;
    for (name, capacity) in [("actors.pingpong_us", 1), ("actors.rendezvous_us", 0)] {
        let (to_echo, echo_in) = buffered_channel::<u64>(capacity);
        let (echo_out, from_echo) = buffered_channel::<u64>(capacity);
        let echo = std::thread::spawn(move || {
            while let Ok(v) = echo_in.receive() {
                if echo_out.send_moved(v).is_err() {
                    break;
                }
            }
        });
        let t = led.probe(name, || {
            secs(|| {
                for i in 0..TRIPS as u64 {
                    to_echo.send_moved(i).expect("ping");
                    black_box(from_echo.receive().expect("pong"));
                }
            })
        });
        drop(to_echo);
        echo.join().expect("echo thread");
        led.set(name, t.value / TRIPS as f64 * 1e6, t.n * TRIPS);
    }

    let payload = vec![1.0f32; CHANNEL_PAYLOAD];
    let (out, inp) = buffered_channel::<Vec<f32>>(1);
    let t = led.probe("actors.copy_send_gbps", || {
        let t = secs(|| out.send(&payload).expect("copy send"));
        black_box(inp.receive().expect("drain"));
        t
    });
    led.set(
        "actors.copy_send_gbps",
        gbps(CHANNEL_PAYLOAD * 4, t.value),
        t.n,
    );
    let mut slot = Some(payload);
    let t = led.probe("actors.mov_send_us", || {
        let v = slot.take().expect("payload comes back");
        let t = secs(|| out.send_moved(v).expect("mov send"));
        slot = Some(inp.receive().expect("drain"));
        t
    });
    led.set("actors.mov_send_us", t.value * 1e6, t.n);

    // Closure detection the way a run ends: the receiver has just begun
    // to block when the last sender goes away.
    let t = led.probe("actors.close_detect_us", || {
        let (out, inp) = channel::<u64>();
        let (ready_out, ready_in) = buffered_channel::<()>(1);
        let receiver = std::thread::spawn(move || {
            ready_out.send_moved(()).expect("signal");
            assert_eq!(inp.receive(), Err(ChannelError::Closed));
        });
        ready_in.receive().expect("receiver started");
        std::thread::sleep(Duration::from_micros(100));
        secs(|| {
            drop(out);
            receiver.join().expect("receiver thread");
        })
    });
    led.set("actors.close_detect_us", t.value * 1e6, t.n);

    let t = led.probe("actors.supervise_us", || {
        secs(|| {
            let mut sup = Supervisor::new("probe", Strategy::OneForOne, RestartBudget::default());
            for i in 0..4 {
                sup.supervise(ChildSpec::new(format!("noop-{i}"), || {
                    FnActor(|_: &mut ActorCtx| Control::Stop)
                }));
            }
            sup.run().expect("no-op children stop cleanly");
        })
    });
    led.set("actors.supervise_us", t.value * 1e6, t.n);
}

fn probe_core(led: &mut Ledger, prepared: &[Prepared]) {
    // `Flatten` at the workload's largest segment, with its own shape:
    // `Array2` for a matrix, `Vec<f32>` for a vector.
    let big = largest(prepared);
    let flat = &big.kernels.data[0];
    let len = flat.segs[0].len();
    let bytes = len * 4;
    let rows = flat.dims[0] as usize;
    let data = vec![1.0f32; len];
    let (fl, un) = if len == rows {
        (
            led.probe("core.flatten_gbps", || {
                let v = data.clone();
                secs(|| {
                    black_box(v.flatten());
                })
            }),
            led.probe("core.unflatten_gbps", || {
                let flat = data.clone().flatten();
                secs(|| {
                    black_box(Vec::<f32>::unflatten(flat).expect("unflatten"));
                })
            }),
        )
    } else {
        let matrix = Array2::from_vec(rows, len / rows, data);
        (
            led.probe("core.flatten_gbps", || {
                let m = matrix.clone();
                secs(|| {
                    black_box(m.flatten());
                })
            }),
            led.probe("core.unflatten_gbps", || {
                let flat = matrix.clone().flatten();
                secs(|| {
                    black_box(Array2::unflatten(flat).expect("unflatten"));
                })
            }),
        )
    };
    led.set("core.flatten_gbps", gbps(bytes, fl.value), fl.n);
    led.set("core.unflatten_gbps", gbps(bytes, un.value), un.n);

    let t = led.probe("core.env_resolve_us", || {
        secs(|| {
            black_box(OpenClEnvironment::resolve(DeviceSel::gpu()).expect("a GPU environment"));
        })
    });
    led.set("core.env_resolve_us", t.value * 1e6, t.n);

    // The three implementations of the same application, same size:
    // native host, Rust actor API, `.ens` on the VM.
    let copencl = led.per_request("oclsim.copencl_ms", prepared, |p| secs(&p.paths.copencl));
    led.set("oclsim.copencl_ms", copencl.value * 1e3, copencl.n);
    let core = led.per_request("core.over_copencl_ms", prepared, |p| secs(&p.paths.core));
    led.set(
        "core.over_copencl_ms",
        (core.value - copencl.value) * 1e3,
        core.n,
    );
    led.set(
        "vm.over_core_ms",
        led.get("vm.run_ms") - core.value * 1e3,
        core.n,
    );
}

/// Returns the abstract ops one replay of every program's kernels retires.
fn probe_oclsim(led: &mut Ledger, prepared: &[Prepared]) -> u64 {
    let build = led.per_request("oclsim.build_us", prepared, |p| {
        let (context, _queue) = gpu_queue();
        secs(|| {
            for (_, plan) in kernel_plans(&p.module) {
                let program = Program::build(&context, &plan.source).expect("builds");
                black_box(program.create_kernel(&plan.kernel_name).expect("kernel"));
            }
        })
    });
    led.set("oclsim.build_us", build.value * 1e6, build.n);

    // First enqueue of a freshly built kernel, then the warm fixed cost,
    // both on one work-group of the request's first dispatch.
    let cold = led.per_request("oclsim.dispatch_cold_us", prepared, |p| {
        let (step, nd) = p.kernels.one_group();
        let fresh = KernelReplay::new(&p.module, p.spec.app.replay()).expect("rebuild");
        fresh.upload();
        let kernel = fresh.bind(step);
        secs(|| {
            black_box(fresh.queue.enqueue_nd_range(kernel, &nd).expect("dispatch"));
        })
    });
    led.set("oclsim.dispatch_cold_us", cold.value * 1e6, cold.n);
    let fixed = led.per_request("oclsim.dispatch_fixed_us", prepared, |p| {
        let (step, nd) = p.kernels.one_group();
        let kernel = p.kernels.bind(step);
        secs(|| {
            black_box(
                p.kernels
                    .queue
                    .enqueue_nd_range(kernel, &nd)
                    .expect("dispatch"),
            );
        })
    });
    led.set("oclsim.dispatch_fixed_us", fixed.value * 1e6, fixed.n);

    // Transfers and the integrity hash at the largest segment's size.
    let big = largest(prepared);
    let seg = &big.kernels.data[0].segs[0];
    let bytes = seg.to_bytes();
    let buf = &big.kernels.bufs[0][0];
    let queue = &big.kernels.queue;
    let t = led.probe("oclsim.upload_gbps", || {
        secs(|| {
            black_box(queue.enqueue_write_buffer(buf, &bytes).expect("upload"));
        })
    });
    led.set("oclsim.upload_gbps", gbps(bytes.len(), t.value), t.n);
    let mut back = vec![0u8; bytes.len()];
    let t = led.probe("oclsim.readback_gbps", || {
        secs(|| {
            black_box(queue.enqueue_read_buffer(buf, &mut back).expect("readback"));
        })
    });
    led.set("oclsim.readback_gbps", gbps(bytes.len(), t.value), t.n);
    let t = led.probe("oclsim.fnv_gbps", || {
        secs(|| {
            black_box(fnv1a64(black_box(&bytes)));
        })
    });
    led.set("oclsim.fnv_gbps", gbps(bytes.len(), t.value), t.n);

    // The request's kernels alone, at their ND ranges, on each engine.
    // Abstract ops are the same on every engine, so one pass counts them.
    let replay_ops: u64 = prepared.iter().map(|p| p.kernels.run().1).sum();
    let ops_per_req = replay_ops as f64 / prepared.len() as f64;
    for (name, engine) in [
        ("oclsim.native_mops_per_s", Engine::Native),
        ("oclsim.register_mops_per_s", Engine::Register),
        ("oclsim.stack_mops_per_s", Engine::Stack),
    ] {
        for p in prepared {
            p.kernels.set_engine(Some(engine));
        }
        let t = led.per_request(name, prepared, |p| p.kernels.run().0);
        for p in prepared {
            p.kernels.set_engine(None);
        }
        led.set(name, ops_per_req / t.value / 1e6, t.n);
        if engine == Engine::Native {
            led.set("oclsim.kernel_ms_per_req", t.value * 1e3, t.n);
        }
    }
    replay_ops
}

/// The kernels' share of a request. The self-check rests on it, so the
/// two sides are measured alternately, request then replay: host
/// interference drifts over seconds, and figures taken minutes apart
/// would put that drift into the ratio.
fn probe_kernel_share(led: &mut Ledger, prepared: &[Prepared]) {
    let start = led.spans.wall_ns();
    let share = led.probe_budget * 4 / prepared.len() as u32;
    let (mut kernel_s, mut request_s, mut n) = (0.0, 0.0, 0);
    for p in prepared {
        let (mut kernels, mut requests) = (Vec::new(), Vec::new());
        stats::sample_secs(share, led.min_calls, || {
            requests.push(secs(|| {
                black_box(compile_and_run(&p.spec.source, ProfileSink::new()).expect("runs"));
            }));
            kernels.push(p.kernels.run().0);
            0.0
        });
        kernel_s += stats::median(&mut kernels);
        request_s += stats::median(&mut requests);
        n += kernels.len();
    }
    record_span(
        led.spans,
        "oclsim.kernel_share",
        "probes",
        start,
        &[("n", n.to_string())],
    );
    led.set("oclsim.kernel_share", kernel_s / request_s, n);
}

fn probe_serve(led: &mut Ledger, server: &Arc<Server>) {
    let arbiter = Arc::clone(server.arbiter());
    let pool = Arc::clone(server.pool());
    let t = led.probe("serve.session_build_us", || {
        secs(|| {
            drop(black_box(
                TenantSession::new(9, Arc::clone(&arbiter) as _, Arc::clone(&pool), None)
                    .expect("session"),
            ));
        })
    });
    led.set("serve.session_build_us", t.value * 1e6, t.n);

    // Time to a typed `Rejected` at a full queue: a one-slot server with
    // no queue, its slot held by the interpreter fixture.
    let mut config = serve_config();
    config.max_active = 1;
    config.max_waiting = 0;
    let full = Arc::new(Server::new(config));
    let admitted = TraceSink::new();
    full.set_trace(admitted.clone());
    let t = led.probe("serve.reject_us", || {
        admitted.clear();
        let holder = {
            let full = Arc::clone(&full);
            std::thread::spawn(move || full.submit(Request::new(1, INTERP_ENS)))
        };
        while admitted.is_empty() {
            std::thread::yield_now();
        }
        let mut outcome = None;
        let t = secs(|| outcome = Some(full.submit(Request::new(2, FLOOR_ENS))));
        assert!(
            matches!(outcome, Some(Err(ServeError::Rejected { .. }))),
            "a full server must reject, got {outcome:?}"
        );
        holder
            .join()
            .expect("holder thread")
            .expect("the holder's request completes");
        t
    });
    led.set("serve.reject_us", t.value * 1e6, t.n);
}

fn probe_trace(led: &mut Ledger) {
    const BATCH: usize = 1000;
    let record = |sink: &TraceSink| {
        // The shape instrumented code uses: build the event only when
        // someone is listening.
        for i in 0..BATCH {
            if black_box(sink).is_enabled() {
                sink.record(
                    TraceEvent::span(SpanKind::Kernel, "probe", "device", i as f64, 1.0)
                        .with_arg("ops", i),
                );
            }
        }
    };
    let enabled = TraceSink::new();
    let t = led.probe("trace.record_ns", || {
        enabled.clear();
        secs(|| record(&enabled))
    });
    led.set("trace.record_ns", t.value / BATCH as f64 * 1e9, t.n * BATCH);
    let disabled = TraceSink::disabled();
    let t = led.probe("trace.disabled_record_ns", || secs(|| record(&disabled)));
    led.set(
        "trace.disabled_record_ns",
        t.value / BATCH as f64 * 1e9,
        t.n * BATCH,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_pass_the_gated_front_end() {
        for src in [
            FLOOR_ENS,
            INTERP_ENS,
            include_str!("../fixtures/stream_copy.ens"),
        ] {
            let module = compile_fixture(src);
            let diagnostics = ensemble_analysis::analyze_source(src, &Default::default())
                .unwrap()
                .diagnostics;
            assert!(diagnostics.is_empty(), "not lint-clean: {diagnostics:?}");
            assert!(!module.actors.is_empty());
        }
    }

    #[test]
    fn the_floor_fixture_ends_by_channel_closure() {
        let report = run_module(compile_fixture(FLOOR_ENS), ProfileSink::new()).unwrap();
        assert_eq!(report.output, vec!["1"]);
    }
}
