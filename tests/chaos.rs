//! Fault injection and supervised recovery, asserted end to end.
//!
//! The bench crate's runners (`bench::chaos`, `bench::sdc`,
//! `bench::serve_bench`) run here at seed 1 on `Sizes::bench()`: seeded
//! transients, seeded actor kills and seeded silent bit flips in all five
//! applications, each pinned to the counts it produces, plus a straggler
//! wave and a multi-tenant serving load whose wall-clock figures are
//! gated but not pinned. Beside them sit the specific recovery claims:
//! one retry per injected transient, a permanently lost GPU failing over
//! to the CPU and still completing, and an *empty* fault plan being
//! byte-for-byte inert.
//!
//! The pins hold the fault draw order: a change to the fault surface
//! (`oclsim::fault`, the queue's or context's fault checks, where an
//! injector attaches) must leave every seeded schedule firing at the
//! same operations, so the tables below pass unedited.

use bench::apps_ens::{self, Sizes};
use bench::chaos::{self, ChaosOutcome};
use proptest::prelude::*;

/// `(app, [injected, retries, failovers, kills, exits, restarts])` of
/// one chaos run.
type ChaosRow = (&'static str, [usize; 6]);

/// Every run matches its fault-free reference and counts exactly `pin`.
fn assert_pinned(outcomes: &[ChaosOutcome], pin: &[ChaosRow]) {
    for o in outcomes {
        assert!(o.matches_reference, "{o:?}");
    }
    let got: Vec<_> = outcomes
        .iter()
        .map(|o| {
            let counts = [
                o.injected,
                o.retries,
                o.failovers,
                o.kills,
                o.exits,
                o.restarts,
            ];
            (o.app.as_str(), counts)
        })
        .collect();
    assert_eq!(got, pin);
}

/// Seed-1 transients in all five applications, then a lost GPU under the
/// typed matmul and under the `.ens` matmul in a serving session. Every
/// transient is answered by exactly one retry, each lost GPU by exactly
/// one failover, and every output is the fault-free one.
#[test]
fn chaos_smoke_all_five_apps_recover() {
    let sizes = Sizes::bench();
    let mut outcomes = chaos::run_chaos(1, &sizes).unwrap();
    outcomes.push(chaos::run_failover_chaos(sizes.matmul_n).unwrap());
    outcomes.push(chaos::run_session_failover_chaos(sizes.matmul_n).unwrap());
    for o in &outcomes[..5] {
        assert_eq!((o.retries, o.failovers), (o.injected, 0), "{o:?}");
    }
    for o in &outcomes[5..] {
        assert_eq!(o.failovers, 1, "{o:?}");
    }
    assert_pinned(
        &outcomes,
        &[
            ("matmul", [2, 2, 0, 0, 0, 0]),
            ("mandelbrot", [1, 1, 0, 0, 0, 0]),
            ("lud", [12, 12, 0, 0, 0, 0]),
            ("reduction", [2, 2, 0, 0, 0, 0]),
            ("docrank", [1, 1, 0, 0, 0, 0]),
            ("matmul/failover", [1, 0, 1, 0, 0, 0]),
            ("matmul.ens/failover", [1, 0, 1, 0, 0, 0]),
        ],
    );
}

/// Seed-1 actor kills in all five applications: the VM's supervisor
/// restarts every killed actor from its checkpoint, each kill shows in
/// the trace as one `ActorExit` and one `Restart`, and every output is
/// the fault-free one.
#[test]
fn kill_chaos_in_all_five_apps_restarts_every_kill() {
    let outcomes = chaos::run_kill_chaos(1, &Sizes::bench()).unwrap();
    for o in &outcomes {
        assert!(o.kills > 0, "{o:?}");
        assert_eq!((o.exits, o.restarts), (o.kills, o.kills), "{o:?}");
    }
    assert_pinned(
        &outcomes,
        &[
            ("matmul", [1, 0, 0, 1, 1, 1]),
            ("mandelbrot", [1, 0, 0, 1, 1, 1]),
            ("lud", [3, 0, 0, 3, 3, 3]),
            ("reduction", [2, 0, 0, 2, 2, 2]),
            ("docrank", [3, 0, 0, 3, 3, 3]),
        ],
    );
}

/// A permanent `DeviceLost` on the GPU's first dispatch: the kernel actor
/// evacuates its buffers through the rescue read-back, fails over to the
/// CPU, and produces the reference product — with the failover recorded
/// as a trace instant.
#[test]
fn device_lost_mid_pipeline_fails_over_to_cpu() {
    let o = chaos::run_failover_chaos(32).unwrap();
    assert!(o.matches_reference, "{o:?}");
    assert!(o.failovers >= 1, "{o:?}");
    assert!(o.injected >= 1, "{o:?}");
}

/// The `.ens` twin on the serving path: a lost GPU lane in a session fails
/// over to the session's own CPU lane and prints the fault-free output.
#[test]
fn device_lost_in_a_session_fails_over_inside_it() {
    let o = chaos::run_session_failover_chaos(16).unwrap();
    assert_eq!(o.app, "matmul.ens/failover");
    assert!(o.matches_reference, "{o:?}");
    assert_eq!((o.injected, o.failovers), (1, 1), "{o:?}");
}

/// An empty `FaultPlan` is inert at the byte level: the same command
/// sequence on a pinned-clock queue produces an identical Chrome trace
/// with and without the (empty) injector attached.
#[test]
fn empty_fault_plan_is_byte_identical() {
    let without = chaos::empty_plan_trace(false).unwrap();
    let with = chaos::empty_plan_trace(true).unwrap();
    assert_eq!(without, with);
}

/// A copy-channel payload of every leaf kind the VM converts on upload —
/// `real [][]` rows, an `integer []` and a `boolean []` — to a kernel
/// that reads all three.
const MIXED_PAYLOAD: &str = r#"
type data_t is struct (
    real [][] grid;
    integer [] ints;
    boolean [] flags;
    real [] out
)
type settings_t is opencl struct (
    integer [] worksize;
    integer [] groupsize;
    in data_t input;
    out real [] output
)
type hostI is interface (
    out settings_t requests;
    out data_t dout;
    in real [] din
)
type mixI is interface(
    in settings_t requests
)

stage home {

    opencl <device_index=0, device_type=GPU>
    actor Mix presents mixI {
        constructor() {}
        behaviour {
            receive req from requests;
            receive d from req.input;
            i = get_global_id(0);
            k = d.ints[i];
            if d.flags[i] then {
                d.out[i] := d.grid[i][1] * 2.0 + k;
            } else {
                d.out[i] := d.grid[i][0] - k;
            }
            send d.out on req.output;
        }
    }

    actor Host presents hostI {
        constructor() {}
        behaviour {
            n = 16;
            grid = new real[n][3];
            ints = new integer[n];
            flags = new boolean[n];
            for r = 0 .. (n - 1) do {
                grid[r][0] := r * 0.5;
                grid[r][1] := 3.25 - r;
                grid[r][2] := 1.0;
                ints[r] := r * 7 - 40;
                flags[r] := r % 3 == 0;
            }
            ws = new integer[1] of n;
            gs = new integer[1] of 4;
            i = new in data_t;
            o = new out real[];
            connect dout to i;
            connect o to din;
            d = new data_t(grid, ints, flags, new real[n]);
            send new settings_t(ws, gs, i, o) on requests;
            send d on dout;
            receive back from din;
            for r = 0 .. (n - 1) do {
                printReal(back[r]);
            }
            stop;
        }
    }

    boot {
        h = new Host();
        m = new Mix();
        connect h.requests to m.requests;
    }
}
"#;

/// The kernel actor uploads a copy-channel payload straight from the VM's
/// view of it. A transient fault on any one of its four segments is
/// retried, the retry fills the buffer from the view again, and the
/// printed output is the fault-free run's.
#[test]
fn a_mixed_copy_payload_survives_a_transient_upload_fault() {
    use oclsim::fault::{FaultOp, FaultPlan, InjectedFault};
    for upload in 0..4 {
        let plan = FaultPlan::new().fail(FaultOp::Upload, upload, InjectedFault::Transient);
        let o = chaos::run_app_chaos("mixed", MIXED_PAYLOAD, plan, &Default::default());
        let o = o.expect("runs");
        assert!(o.matches_reference, "upload {upload}: {o:?}");
        assert_eq!((o.injected, o.retries), (1, 1), "upload {upload}: {o:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For any seeded transient schedule, matmul and reduction complete
    /// with reference-correct output, and the trace records exactly one
    /// retry per injected fault.
    #[test]
    fn seeded_transients_are_retried_exactly_once_each(seed in 0u64..10_000) {
        for (app, src) in [
            ("matmul", apps_ens::matmul(16, "GPU")),
            ("reduction", apps_ens::reduction(1 << 10, "GPU")),
        ] {
            let plan = chaos::chaos_plan(seed, 11);
            let o = chaos::run_app_chaos(app, &src, plan, &Default::default()).unwrap();
            prop_assert!(o.matches_reference, "{o:?}");
            prop_assert!(o.injected >= 1, "{o:?}");
            prop_assert_eq!(o.retries, o.injected, "{o:?}");
        }
    }
}

// ---------------------------------------------------------------------------
// Multi-tenant serving: cross-tenant fault isolation and eviction
// transparency (`crates/serve`).
// ---------------------------------------------------------------------------

use ensemble_serve::{Request, ServeConfig, Server};
use ensemble_vm::VmRuntime;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// One request through a fresh single-tenant server: the serving-path
/// solo reference (private lanes, no neighbours, no chaos).
fn serve_solo(src: &str) -> ensemble_vm::VmReport {
    let server = Server::new(ServeConfig {
        max_active: 1,
        max_waiting: 1,
        ..ServeConfig::default()
    });
    server.submit(Request::new(0, src)).expect("solo run")
}

/// Seeded kill-chaos in tenant A (LUD, its own supervision tree absorbs
/// the kills) while tenant B runs matmul on the same server: B's output
/// *and* virtual clock are byte-identical to its solo run — chaos never
/// leaks across the tenant boundary.
#[test]
fn kill_chaos_in_one_tenant_leaves_neighbour_byte_identical() {
    let matmul_src = apps_ens::matmul(16, "GPU");
    let lud_src = apps_ens::lud(16, "GPU");
    let reference = serve_solo(&matmul_src);
    for seed in [3u64, 11, 29] {
        let server = Arc::new(Server::new(ServeConfig {
            max_active: 2,
            max_waiting: 2,
            ..ServeConfig::default()
        }));
        let a = {
            let server = Arc::clone(&server);
            let src = lud_src.clone();
            std::thread::spawn(move || {
                let mut req = Request::new(1, src);
                req.chaos = Some(chaos::kill_plan(seed, 17, 3));
                server.submit(req)
            })
        };
        let b = {
            let server = Arc::clone(&server);
            let src = matmul_src.clone();
            std::thread::spawn(move || server.submit(Request::new(2, src)))
        };
        let b_report = b
            .join()
            .unwrap()
            .expect("clean tenant must complete despite neighbour chaos");
        let a_result = a.join().unwrap();
        // The chaotic tenant terminates — recovered by its own
        // supervision tree, never wedged.
        assert!(
            a_result.is_ok(),
            "seed {seed}: chaotic tenant failed: {:?}",
            a_result.err()
        );
        assert_eq!(b_report.output, reference.output, "seed {seed}");
        assert_eq!(
            b_report.total_ns().to_bits(),
            reference.total_ns().to_bits(),
            "seed {seed}: neighbour's virtual clock moved"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Forcibly evicting the resident `mov` value after registrations
    /// (every run re-uploads it lazily, byte-identical, on the next
    /// dispatch) never changes the application's output.
    #[test]
    fn eviction_and_reupload_never_change_outputs(seed in 0u64..1000) {
        // Both VMs dispatch on the process-global matrix, where the chaos
        // tests of this binary attach their injectors (one latches the
        // GPU lost): keep them out while these runs are in flight.
        let _serial = chaos::serialise();
        let nth = (seed as usize % 3) + 1;
        let src = apps_ens::lud(16, "GPU");
        let opts = ensemble_analysis::Options::default();
        let reference = VmRuntime::new(
            ensemble_analysis::compile_source(&src, &opts).unwrap(),
        )
        .run()
        .unwrap();
        let vm = VmRuntime::new(
            ensemble_analysis::compile_source(&src, &opts).unwrap(),
        );
        let registrations = Arc::new(AtomicUsize::new(0));
        let evictions = Arc::new(AtomicUsize::new(0));
        {
            let registrations = Arc::clone(&registrations);
            let evictions = Arc::clone(&evictions);
            vm.set_resident_hook(Some(Arc::new(move |handle| {
                // The hook runs on the kernel actor's thread with the
                // value's state lock released, so the evict succeeds.
                if registrations
                    .fetch_add(1, Ordering::SeqCst)
                    .is_multiple_of(nth)
                    && matches!(handle.try_evict(), Ok(Some(_)))
                {
                    evictions.fetch_add(1, Ordering::SeqCst);
                }
            })));
        }
        let report = vm.run().unwrap();
        prop_assert!(evictions.load(Ordering::SeqCst) >= 1);
        prop_assert_eq!(report.output, reference.output);
    }

    /// After every session of a loaded, chaos-seeded server tears down,
    /// the pool accountant's resident-byte counter is exactly zero —
    /// clean and chaotic tenants alike return what they took.
    #[test]
    fn pool_counter_returns_to_zero_after_teardown(seed in 0u64..1000) {
        let server = Arc::new(Server::new(ServeConfig {
            max_active: 2,
            max_waiting: 4,
            // Tight watermark: mid-run evictions happen when the two
            // tenants overlap.
            mem_watermark_bytes: 512,
            ..ServeConfig::default()
        }));
        let lud_src = apps_ens::lud(16, "GPU");
        let reference = serve_solo(&lud_src);
        let clean = {
            let server = Arc::clone(&server);
            let src = lud_src.clone();
            std::thread::spawn(move || server.submit(Request::new(0, src)))
        };
        let chaotic = {
            let server = Arc::clone(&server);
            let src = lud_src.clone();
            std::thread::spawn(move || {
                let mut req = Request::new(1, src);
                req.chaos = Some(chaos::kill_plan(seed, 17, 2));
                server.submit(req)
            })
        };
        let clean_report = clean.join().unwrap().expect("clean tenant completes");
        let chaotic_result = chaotic.join().unwrap();
        prop_assert!(chaotic_result.is_ok());
        // Eviction may move the clean tenant's virtual clock (the lazy
        // re-upload is charged to its profile); its data never moves.
        prop_assert_eq!(clean_report.output, reference.output);
        prop_assert_eq!(server.pool().total_used(), 0);
    }
}

// ---------------------------------------------------------------------------
// Beyond fail-stop: silent corruption, the backoff law, straggler hedging.
// ---------------------------------------------------------------------------

use bench::{sdc, serve_bench};
use ensemble_ocl::recovery::{with_retry, RecoveryPolicy};
use ensemble_ocl::ProfileSink;
use oclsim::{ClError, CommandQueue, Context, DeviceType, Platform};

/// Open-loop load at twice the admission watermark, 8 tenants per
/// workload with seed-1 kill-chaos in half of them: in all three
/// workloads no chaos-free tenant diverges from its solo reference,
/// something completes and the p99 is finite (a wedged session never
/// reaches its deadline). Completions and evictions depend on wall-clock
/// timing and are not pinned.
#[test]
fn serving_under_kill_chaos_keeps_every_clean_tenant_byte_identical() {
    let workloads = serve_bench::run_serve(8, 1).unwrap();
    assert_eq!(workloads.len(), 3);
    for w in &workloads {
        assert_eq!(w.clean_tenant_mismatches, 0, "{w:?}");
        assert!(w.completed > 0, "{w:?}");
        assert!(w.p99_ms.is_finite(), "{w:?}");
    }
}

/// Seed-1 silent bit flips in all five applications: the provenance
/// checksums catch every one, the recovery layer recomputes from the
/// last checkpoint, and the recovered run's outputs *and* virtual clock
/// end byte-identical to the fault-free reference, with the whole repair
/// cost on the separate repair accounting (pinned by bit pattern).
#[test]
fn sdc_corruption_in_all_five_apps_ends_byte_identical() {
    let outcomes = sdc::run_sdc_corruption(1, &Sizes::bench()).unwrap();
    for o in &outcomes {
        assert!(o.ok(), "{o:?}");
    }
    // `(app, injections = detections, repair_ns bit pattern)`: 13392.64,
    // 13392.64, 176268.92, 34282.24 and 48630.40 virtual ns.
    let got: Vec<(&str, usize, u64)> = outcomes
        .iter()
        .map(|o| (o.app.as_str(), o.injections, o.repair_ns.to_bits()))
        .collect();
    assert_eq!(
        got,
        [
            ("matmul", 1, 0x40ca_2851_eb85_1eb8),
            ("mandelbrot", 1, 0x40ca_2851_eb85_1eb8),
            ("lud", 14, 0x4105_8467_5c28_f5c2),
            ("reduction", 1, 0x40e0_bd47_ae14_7ae2),
            ("docrank", 2, 0x40e7_becc_cccc_ccce),
        ]
    );
}

/// Hedged re-dispatch on the serving path: a wave of 6 tenants with a
/// 500 ms hang in every other one, hedged after 60 ms. Both waves
/// complete every request, at least one speculative secondary wins its
/// race, and the hedged p99 is finite and strictly below the unhedged
/// p99. Latencies and hedge counts are wall-clock and not pinned.
#[test]
fn hedged_serving_beats_the_unhedged_straggler_tail() {
    let r = sdc::run_straggler(6, 500, 60);
    assert!(r.ok(), "{r:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The backoff law of `with_retry`, for arbitrary policies: the op
    /// is attempted exactly `max_retries + 1` times, and the virtual
    /// time charged between consecutive attempts is exactly the
    /// exponential series `b, b·f, b·f², ...` — strictly monotonically
    /// increasing, never exceeding the closed-form total.
    #[test]
    fn retry_backoff_is_exponential_monotone_and_bounded(
        backoff_ns in 100.0f64..10_000.0,
        factor in 1.25f64..3.0,
        max_retries in 1u32..6,
    ) {
        // A private queue pins the clock origin at zero, so the stamps
        // recorded inside the op are exactly the charged backoffs.
        let device = Platform::default_device(DeviceType::Gpu).unwrap();
        let context = Context::new(std::slice::from_ref(&device)).unwrap();
        let queue = CommandQueue::new(&context, &device).unwrap();
        let policy = RecoveryPolicy {
            max_retries,
            backoff_ns,
            backoff_factor: factor,
        };
        let profile = ProfileSink::new();
        let mut stamps = Vec::new();
        let r: Result<(), ClError> =
            with_retry(&policy, &queue, "GPU", &profile, "op", || {
                stamps.push(queue.now_ns());
                Err(ClError::DeviceBusy { device: "GPU".into() })
            });
        prop_assert!(matches!(r, Err(ClError::DeviceBusy { .. })));
        prop_assert_eq!(stamps.len(), max_retries as usize + 1, "retry bound violated");
        let deltas: Vec<f64> = stamps.windows(2).map(|w| w[1] - w[0]).collect();
        let mut expected = backoff_ns;
        for (i, d) in deltas.iter().enumerate() {
            prop_assert!(
                (d - expected).abs() <= 1e-9 * expected,
                "delta {}: charged {} expected {}", i, d, expected
            );
            if i > 0 {
                prop_assert!(*d > deltas[i - 1], "backoff not strictly increasing");
            }
            expected *= factor;
        }
        let total: f64 = deltas.iter().sum();
        let bound = backoff_ns * (factor.powi(max_retries as i32) - 1.0) / (factor - 1.0);
        prop_assert!(total <= bound * (1.0 + 1e-9), "total {} exceeds bound {}", total, bound);
    }
}
