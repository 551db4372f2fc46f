//! The four workloads, how one request is made, and the closed loop that
//! measures the end-to-end metrics.
//!
//! A *request* compiles an Ensemble source through the analysis-gated
//! front end and runs it on the VM to completion; its output is checked
//! against the program's oracle. Every workload is a closed loop: each
//! client is a program waiting for its result before sending the next.

use crate::apps::{exact, App, ProgramSpec};
use crate::stats;
use ensemble_serve::{ArbiterPolicy, Request, ServeConfig, Server};
use ensemble_vm::{VmReport, VmRuntime};
use oclsim::{CoexecConfig, ProfileSink};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a workload's requests reach the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Via {
    /// The client compiles and runs the program itself.
    Direct,
    /// The clients share one `ensemble_serve::Server`.
    Server,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (also in `BENCHMARK.json`).
    pub why: &'static str,
    pub via: Via,
    pub clients: usize,
    /// Requests per second this workload completes on the two-core
    /// reference box. It only sizes the traced run's fixed-count phases
    /// (so their counts repeat exactly); no metric is derived from it.
    pub nominal_rps: f64,
    /// The workload's distinct programs, sizes fixed, data from the draws.
    programs: fn(&Draws) -> Vec<App>,
    /// What the traced run's self-check holds the workload to: the
    /// kernels' share of a request (lowest, highest) and the fewest
    /// dispatches a request may make.
    pub kernel_share: (f64, f64),
    pub min_dispatches: f64,
}

/// The data parameters a seed draws. Quarter-step fills are exact in f32
/// and f64, so the closed-form oracles hold.
struct Draws {
    fill_a: f64,
    fill_b: f64,
    /// Reduction's planted minimum.
    min: f64,
    /// LUD's `generate_dominant` seed.
    data_seed: u64,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "batch_kernel",
        why: "few large dispatches (matmul, mandelbrot, reduction, docrank): the kernel engine is most of the wall, so engine work shows here and a compile cache must not",
        via: Via::Direct,
        clients: 1,
        nominal_rps: 28.0,
        programs: |d| {
            vec![
                App::Matmul {
                    n: 128,
                    fill: d.fill_a,
                },
                App::Mandelbrot { n: 192, iters: 150 },
                App::Reduction {
                    n: 1 << 17,
                    min: d.min,
                },
                App::Docrank { docs: 512 },
            ]
        },
        kernel_share: (0.70, 1.0),
        min_dispatches: 1.0,
    },
    Workload {
        name: "chain_mov",
        why: "LUD n=48: 144 tiny guard-heavy dispatches over a mov ring, no bulk transfer; per-dispatch fixed cost and channel hops dominate, the opposite use of the same engine and channels",
        via: Via::Direct,
        clients: 1,
        nominal_rps: 125.0,
        programs: |d| {
            vec![App::Lud {
                n: 48,
                data_seed: d.data_seed,
            }]
        },
        kernel_share: (0.0, 0.50),
        min_dispatches: 100.0,
    },
    Workload {
        name: "stream_copy",
        why: "8 rounds of a 4 MiB payload over copy channels to a 3-op kernel: flatten, deep copy and upload/readback memcpy dominate; a zero-copy message plane shows here",
        via: Via::Direct,
        clients: 1,
        nominal_rps: 24.0,
        programs: |d| {
            vec![App::StreamCopy {
                n: 1 << 20,
                rounds: 8,
                fill: d.fill_b,
            }]
        },
        kernel_share: (0.0, 0.25),
        min_dispatches: 1.0,
    },
    Workload {
        name: "serve_small",
        why: "2 clients x 12 tiny programs through one Server: the per-run floor, front end, Program::build and session build dominate and kernels are ~0; a compile cache or teardown fix shows here",
        via: Via::Server,
        clients: 2,
        nominal_rps: 520.0,
        programs: |d| {
            let mut apps = Vec::new();
            for n in [8, 12, 16, 32] {
                apps.push(App::Matmul { n, fill: d.fill_a });
                apps.push(App::Lud {
                    n,
                    data_seed: d.data_seed,
                });
            }
            for n in [256, 512, 1024, 2048] {
                apps.push(App::Reduction { n, min: d.min });
            }
            apps
        },
        kernel_share: (0.0, 1.0),
        min_dispatches: 1.0,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// SplitMix64: the harness's only source of randomness, so a seed fixes
/// every draw on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

impl Workload {
    /// The workload's distinct programs. The seed draws the data
    /// parameters; sizes are fixed, so every seed does the same amount of
    /// work.
    pub fn apps(&self, seed: u64) -> Vec<App> {
        let mut rng = Rng::new(seed ^ 0xA5A5_0000);
        let mut fill = || 1.0 + rng.below(5) as f64 * 0.25;
        (self.programs)(&Draws {
            fill_a: fill(),
            fill_b: fill(),
            min: -(100.5 + rng.below(64) as f64),
            data_seed: 1 + rng.below(1 << 20) as u64,
        })
    }
}

/// Everything set-up builds: the programs with their oracles, and the
/// shared server for a [`Via::Server`] workload.
pub struct Runner {
    pub workload: &'static Workload,
    pub programs: Vec<ProgramSpec>,
    server: Option<Arc<Server>>,
}

/// Admission limits of the shared server: two running, eight queued, and
/// memory limits far above what the tiny programs hold, so a correct run
/// sees no rejection, eviction or overload.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        max_active: 2,
        max_waiting: 8,
        mem_watermark_bytes: 1 << 30,
        mem_overload_bytes: 1 << 31,
        policy: ArbiterPolicy::RoundRobin,
        hedge_after: None,
    }
}

/// Compile `source` through the gated front end and run it to completion.
/// Co-execution is pinned off whatever the environment says.
pub fn compile_and_run(source: &str, profile: ProfileSink) -> Result<VmReport, String> {
    let module = ensemble_analysis::compile_source(source, &Default::default())
        .map_err(|e| e.to_string())?;
    run_module(module, profile)
}

pub fn run_module(
    module: ensemble_lang::CompiledModule,
    profile: ProfileSink,
) -> Result<VmReport, String> {
    let vm = VmRuntime::with_profile(module, profile);
    vm.set_coexec(CoexecConfig::default());
    vm.run().map_err(|e| e.to_string())
}

impl Runner {
    /// Set-up: generate the programs from the seed, compute their
    /// oracles, build the server, and run every program once through the
    /// workload's own submit path. That run is checked against the
    /// oracle and its output is then *pinned*: every later request of the
    /// program must reproduce it to the byte, which is stricter than an
    /// oracle with a tolerance. It also fills the process-wide caches the
    /// first request would otherwise pay for.
    pub fn set_up(workload: &'static Workload, seed: u64) -> Result<Runner, String> {
        let programs = workload
            .apps(seed)
            .into_iter()
            .map(ProgramSpec::new)
            .collect::<Result<Vec<_>, _>>()?;
        let server = match workload.via {
            Via::Direct => None,
            Via::Server => Some(Arc::new(Server::new(serve_config()))),
        };
        let mut runner = Runner {
            workload,
            programs,
            server,
        };
        for idx in 0..runner.programs.len() {
            let output = runner.request(idx, 0)?.output;
            runner.programs[idx].expected = output.into_iter().map(exact).collect();
        }
        Ok(runner)
    }

    /// One request: submit program `idx`, check its output.
    pub fn request(&self, idx: usize, tenant: u64) -> Result<VmReport, String> {
        let program = &self.programs[idx];
        let report = match &self.server {
            None => compile_and_run(&program.source, ProfileSink::new())?,
            Some(server) => server
                .submit(Request::new(tenant, program.source.as_str()))
                .map_err(|e| e.to_string())?,
        };
        program.verify(&report.output)?;
        Ok(report)
    }

    /// Client `client`'s request order: shuffled passes over the
    /// workload's programs, so every pass holds each program once
    /// whatever the seed, and only the order is drawn.
    pub fn order(&self, seed: u64, client: usize) -> impl Iterator<Item = usize> {
        let mut rng = Rng::new(seed.wrapping_mul(0x100_0000_01B3) ^ client as u64);
        let mut pass: Vec<usize> = (0..self.programs.len()).collect();
        let mut at = pass.len();
        std::iter::from_fn(move || {
            if at == pass.len() {
                rng.shuffle(&mut pass);
                at = 0;
            }
            at += 1;
            Some(pass[at - 1])
        })
    }
}

/// One slice of the measurement window.
#[derive(Debug, Default, Clone)]
pub struct Slice {
    /// Latencies of the requests that completed in the slice.
    pub latencies_ms: Vec<f64>,
    /// Requests' worth of work done in the slice: each request counts by
    /// the share of its submit-to-result interval that lies inside. A
    /// whole-request count would quantise a slice's throughput in steps
    /// of one request per slice, 2 % on `stream_copy`.
    pub work: f64,
    /// Process CPU time spent during the slice.
    pub cpu_s: f64,
}

/// What the closed loop measured inside its window.
#[derive(Debug, Default)]
pub struct LoopResult {
    pub slices: Vec<Slice>,
    pub slice_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
}

/// Lead-in before the measurement window opens, as a share of it: the
/// requests completing while the client threads ramp up are discarded.
const LEAD_IN: f64 = 0.05;

/// The window is cut into this many equal slices, and every end-to-end
/// timing is the *quiet quartile* over the slices of the slice's own
/// value: the third-best of ten. Interference from the host's other
/// tenants comes in episodes of seconds to minutes and only ever slows a
/// run down, so the better slices are the ones that measured the program
/// and the worse ones the neighbours; a whole-window figure absorbs every
/// episode, a median over slices any that covers half the window
/// (`stream_copy`, which is memory-bound, wandered 22-29 requests/s over
/// three minutes). The best single slice would be steadier still but is
/// an extreme; the quartile is the compromise.
pub const SLICES: usize = 10;

/// Run the workload's clients for `seconds` (plus the lead-in) and return
/// every request that completed inside the window, by slice.
pub fn closed_loop(runner: &Runner, seed: u64, seconds: f64) -> LoopResult {
    let start = Instant::now();
    let open = start + Duration::from_secs_f64(seconds * LEAD_IN);
    let close = open + Duration::from_secs_f64(seconds);
    let slice_s = seconds / SLICES as f64;
    let mut result = LoopResult {
        slices: vec![Slice::default(); SLICES],
        slice_s,
        ..LoopResult::default()
    };
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..runner.workload.clients)
            .map(|client| {
                scope.spawn(move || {
                    // (submitted, completed), in seconds from the window's opening
                    let mut samples = Vec::new();
                    let mut errors = Vec::new();
                    // Each client alternates between two tenants of its own.
                    let tenants = [2 * client as u64 + 1, 2 * client as u64 + 2];
                    for (i, idx) in runner.order(seed, client).enumerate() {
                        let sent = Instant::now();
                        if sent >= close {
                            break;
                        }
                        let outcome = runner.request(idx, tenants[i % 2]);
                        let done = Instant::now();
                        if done < open || done >= close {
                            continue;
                        }
                        match outcome {
                            Ok(_) => samples.push((
                                (done - open).as_secs_f64() - (done - sent).as_secs_f64(),
                                (done - open).as_secs_f64(),
                            )),
                            Err(e) => errors.push(e),
                        }
                    }
                    (samples, errors)
                })
            })
            .collect();
        // The coordinator reads the process CPU clock at every slice edge.
        let mut cpu_at_edge = Vec::with_capacity(SLICES + 1);
        for edge in 0..=SLICES {
            let at = open + Duration::from_secs_f64(slice_s * edge as f64);
            std::thread::sleep(at.saturating_duration_since(Instant::now()));
            cpu_at_edge.push(stats::cpu_seconds());
        }
        for (slice, cpu) in result.slices.iter_mut().zip(cpu_at_edge.windows(2)) {
            slice.cpu_s = cpu[1] - cpu[0];
        }
        for client in clients {
            let (samples, errors) = client.join().expect("client thread panicked");
            result.attempted += (samples.len() + errors.len()) as u64;
            result.failed += errors.len() as u64;
            for (sent, done) in samples {
                let last = ((done / slice_s) as usize).min(SLICES - 1);
                result.slices[last].latencies_ms.push((done - sent) * 1e3);
                let first = ((sent.max(0.0) / slice_s) as usize).min(last);
                for (k, slice) in result
                    .slices
                    .iter_mut()
                    .enumerate()
                    .take(last + 1)
                    .skip(first)
                {
                    let (lo, hi) = (k as f64 * slice_s, (k + 1) as f64 * slice_s);
                    slice.work += (done.min(hi) - sent.max(lo)).max(0.0) / (done - sent);
                }
            }
            if result.first_error.is_none() {
                result.first_error = errors.into_iter().next();
            }
        }
    });
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_fixes_the_inputs_and_the_order() {
        for w in WORKLOADS {
            assert_eq!(w.apps(7), w.apps(7), "{}", w.name);
        }
        let w = find("batch_kernel").unwrap();
        assert_ne!(
            (1..20).map(|s| w.apps(s)).collect::<Vec<_>>(),
            vec![w.apps(1); 19]
        );
    }

    #[test]
    fn every_pass_of_the_order_holds_each_program_once() {
        let runner = Runner {
            workload: find("serve_small").unwrap(),
            programs: find("serve_small")
                .unwrap()
                .apps(1)
                .into_iter()
                .map(|app| ProgramSpec {
                    label: app.label(),
                    source: String::new(),
                    expected: Vec::new(),
                    app,
                })
                .collect(),
            server: None,
        };
        let order: Vec<usize> = runner.order(3, 0).take(36).collect();
        for pass in order.chunks(12) {
            let mut p = pass.to_vec();
            p.sort_unstable();
            assert_eq!(p, (0..12).collect::<Vec<_>>());
        }
        assert_eq!(order, runner.order(3, 0).take(36).collect::<Vec<_>>());
        assert_ne!(order, runner.order(4, 0).take(36).collect::<Vec<_>>());
    }
}
