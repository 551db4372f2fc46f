//! Regenerate Figures 3a–3e of the paper (plus the movability ablation).
//!
//! ```text
//! cargo run --release -p bench --bin figures            # all, bench sizes
//! cargo run --release -p bench --bin figures -- fig3b   # one figure
//! cargo run --release -p bench --bin figures -- --paper-scale
//! cargo run --release -p bench --bin figures -- --json  # machine-readable
//! cargo run --release -p bench --bin figures -- fig3c --trace lud.json
//! ```
//!
//! `--trace <path>` records every run of the selected figures into one
//! Chrome `trace_event` JSON file — open it in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing` to see the device
//! queues, VM actor timelines, and channel waits of each run. The raw
//! (unnormalised) per-run segment totals are printed to stderr; the bars
//! of each figure are those same totals, normalised.
//!
//! `--chaos-seed <N>` runs chaos mode instead of the figures: the five
//! applications under the seed-`N` deterministic fault schedule plus a
//! permanent device-loss failover scenario. Exits non-zero if any run
//! fails or diverges from its fault-free reference.
//!
//! `--kill-seed <N>` runs kill-chaos mode: the five applications under
//! the seed-`N` deterministic actor-kill schedule. Killed actors are
//! restarted by the VM's supervisor from their checkpoints; the run
//! exits non-zero if any output diverges from its fault-free reference
//! or any kill is not matched by an `ActorExit`/`Restart` pair in the
//! trace.
//!
//! `--sdc-seed <N>` runs SDC mode instead of the figures: the five
//! applications under a seed-`N` silent-corruption schedule on private
//! zero-origin device lanes (gating 100% detection, byte-identical
//! outputs *and* virtual clocks, and positive repair accounting), plus
//! a straggler workload comparing hedged vs unhedged tail latency
//! (`--tenants <N>` tenants, default 6). Writes the machine-readable
//! result to `BENCH_8.json` (`--sdc-out <path>` overrides) and exits
//! non-zero when any gate fails.
//!
//! `--coexec` runs the proof-guided co-execution bench instead of the
//! figures: matmul and mandelbrot problem-size sweeps comparing each
//! single device against the co-executed NDRange split (reporting the
//! crossover size where co-execution starts to win), plus lud and docrank dispatch chains with and without fused
//! dispatch batching (reporting the charged-launch-overhead reduction).
//! Writes the machine-readable result to `BENCH_9.json` (`--coexec-out
//! <path>` overrides; `--coexec-quick` runs a reduced two-point sweep
//! for CI). Exits non-zero when any co-executed or batched run's output
//! diverges from its single-device reference, a co-executed run is
//! slower than the better single device, no crossover is found, or
//! batching saves less than 2× of lud's charged launch overhead.
//!
//! `--serve` runs the multi-tenant serving bench instead of the figures:
//! three mixed-application workloads drive an open-loop load at ~2× the
//! admission watermark with seeded kill-chaos in half the tenants
//! (`--tenants <N>` tenants per workload, default 6; `--serve-seed <N>`
//! kill seed, default 1), writing requests/sec, p50/p99 latency,
//! eviction counts and outcome tallies to `BENCH_7.json`
//! (`--serve-out <path>` overrides). Exits non-zero when any chaos-free
//! tenant's output or virtual clock diverges from its solo reference.
//!
//! Any other `--` argument is an error (exit 2), as is an unknown figure
//! name: a misspelt option never silently runs the figures instead.

use bench::figures::{self, ALL};
use bench::{chaos, coexec, sdc, serve_bench, Sizes, TraceSink};

/// Every option `main` accepts, listed when it meets one it does not.
const OPTIONS: &[&str] = &[
    "--paper-scale",
    "--json",
    "--trace <path>",
    "--chaos-seed <N>",
    "--kill-seed <N>",
    "--sdc-seed <N>",
    "--sdc-out <path>",
    "--coexec",
    "--coexec-quick",
    "--coexec-out <path>",
    "--serve",
    "--tenants <N>",
    "--serve-seed <N>",
    "--serve-out <path>",
];

fn run_coexec_mode(sizes: &Sizes, quick: bool, out_path: &str) -> ! {
    eprintln!(
        "coexec mode: {} sweep",
        if quick { "quick (reduced)" } else { "full" }
    );
    match coexec::run_coexec(sizes, quick) {
        Ok(report) => {
            print!("{}", report.render());
            if let Err(e) = std::fs::write(out_path, report.to_json()) {
                eprintln!("error: writing {out_path}: {e}");
                std::process::exit(1);
            }
            eprintln!("coexec: results written to {out_path}");
            if !report.all_consistent() {
                eprintln!(
                    "error: a co-executed or batched run diverged from its \
                     single-device reference, a sweep found no crossover, a \
                     co-executed run lost to the better single device, or \
                     batching saved less than the required launch overhead"
                );
                std::process::exit(1);
            }
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

fn run_chaos_mode(seed: u64, sizes: &Sizes) -> ! {
    eprintln!("chaos mode: seed {seed}");
    let mut failed = false;
    match chaos::run_chaos(seed, sizes) {
        Ok(outcomes) => {
            for o in outcomes {
                println!("{}", o.render());
                failed |= !o.matches_reference;
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            failed = true;
        }
    }
    for outcome in [
        chaos::run_failover_chaos(sizes.matmul_n),
        chaos::run_session_failover_chaos(sizes.matmul_n),
    ] {
        match outcome {
            Ok(o) => {
                println!("{}", o.render());
                failed |= !o.matches_reference || o.failovers == 0;
            }
            Err(e) => {
                eprintln!("error: {e}");
                failed = true;
            }
        }
    }
    std::process::exit(if failed { 1 } else { 0 });
}

fn run_kill_chaos_mode(seed: u64, sizes: &Sizes) -> ! {
    eprintln!("kill-chaos mode: seed {seed}");
    let mut failed = false;
    match chaos::run_kill_chaos(seed, sizes) {
        Ok(outcomes) => {
            for o in outcomes {
                println!("{}", o.render());
                failed |= !o.matches_reference
                    || o.kills == 0
                    || o.exits != o.kills
                    || o.restarts != o.kills;
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            failed = true;
        }
    }
    std::process::exit(if failed { 1 } else { 0 });
}

fn run_sdc_mode(seed: u64, sizes: &Sizes, tenants: usize, out_path: &str) -> ! {
    eprintln!("sdc mode: seed {seed}, {tenants} straggler tenants");
    match sdc::run_sdc(seed, sizes, tenants) {
        Ok(report) => {
            print!("{}", report.render());
            if let Err(e) = std::fs::write(out_path, report.to_json()) {
                eprintln!("error: writing {out_path}: {e}");
                std::process::exit(1);
            }
            eprintln!("sdc: results written to {out_path}");
            if !report.all_consistent() {
                eprintln!(
                    "error: an injected corruption went undetected, a recovered run \
                     diverged from its fault-free reference, or hedging failed to \
                     improve the straggler p99"
                );
                std::process::exit(1);
            }
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

fn run_serve_mode(tenants: usize, seed: u64, out_path: &str) -> ! {
    eprintln!("serving mode: {tenants} tenants per workload, kill seed {seed}");
    match serve_bench::run_serve(tenants, seed) {
        Ok(report) => {
            print!("{}", report.render());
            if let Err(e) = std::fs::write(out_path, report.to_json()) {
                eprintln!("error: writing {out_path}: {e}");
                std::process::exit(1);
            }
            eprintln!("serve: results written to {out_path}");
            if !report.all_consistent() {
                eprintln!(
                    "error: a chaos-free tenant diverged from its solo reference \
                     (or a workload completed nothing)"
                );
                std::process::exit(1);
            }
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut args: Vec<String> = Vec::new();
    let mut paper = false;
    let mut json = false;
    let mut trace_path: Option<String> = None;
    let mut chaos_seed: Option<u64> = None;
    let mut kill_seed: Option<u64> = None;
    let mut serve_mode = false;
    let mut serve_tenants = 6usize;
    let mut serve_seed = 1u64;
    let mut serve_out = "BENCH_7.json".to_string();
    let mut sdc_seed: Option<u64> = None;
    let mut sdc_out = "BENCH_8.json".to_string();
    let mut coexec_mode = false;
    let mut coexec_quick = false;
    let mut coexec_out = "BENCH_9.json".to_string();
    let mut it = raw.into_iter();
    while let Some(a) = it.next() {
        if a == "--coexec" {
            coexec_mode = true;
        } else if a == "--coexec-quick" {
            coexec_mode = true;
            coexec_quick = true;
        } else if a == "--coexec-out" {
            match it.next() {
                Some(p) => coexec_out = p,
                None => {
                    eprintln!("error: --coexec-out requires an output file path");
                    std::process::exit(2);
                }
            }
        } else if a == "--serve" {
            serve_mode = true;
        } else if a == "--tenants" {
            match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 2 => serve_tenants = n,
                _ => {
                    eprintln!("error: --tenants requires an integer >= 2");
                    std::process::exit(2);
                }
            }
        } else if a == "--serve-seed" {
            match it.next().and_then(|s| s.parse().ok()) {
                Some(s) => serve_seed = s,
                None => {
                    eprintln!("error: --serve-seed requires an integer seed");
                    std::process::exit(2);
                }
            }
        } else if a == "--sdc-seed" {
            match it.next().and_then(|s| s.parse().ok()) {
                Some(s) => sdc_seed = Some(s),
                None => {
                    eprintln!("error: --sdc-seed requires an integer seed");
                    std::process::exit(2);
                }
            }
        } else if a == "--sdc-out" {
            match it.next() {
                Some(p) => sdc_out = p,
                None => {
                    eprintln!("error: --sdc-out requires an output file path");
                    std::process::exit(2);
                }
            }
        } else if a == "--serve-out" {
            match it.next() {
                Some(p) => serve_out = p,
                None => {
                    eprintln!("error: --serve-out requires an output file path");
                    std::process::exit(2);
                }
            }
        } else if a == "--trace" {
            match it.next() {
                Some(p) => trace_path = Some(p),
                None => {
                    eprintln!("error: --trace requires an output file path");
                    std::process::exit(2);
                }
            }
        } else if a == "--chaos-seed" {
            match it.next().and_then(|s| s.parse().ok()) {
                Some(s) => chaos_seed = Some(s),
                None => {
                    eprintln!("error: --chaos-seed requires an integer seed");
                    std::process::exit(2);
                }
            }
        } else if a == "--kill-seed" {
            match it.next().and_then(|s| s.parse().ok()) {
                Some(s) => kill_seed = Some(s),
                None => {
                    eprintln!("error: --kill-seed requires an integer seed");
                    std::process::exit(2);
                }
            }
        } else if a == "--paper-scale" {
            paper = true;
        } else if a == "--json" {
            json = true;
        } else if a.starts_with("--") {
            eprintln!(
                "error: unknown option `{a}`; valid options: {}",
                OPTIONS.join(", ")
            );
            std::process::exit(2);
        } else {
            args.push(a);
        }
    }
    let wanted: Vec<&str> = args.iter().map(|s| s.as_str()).collect();
    let known: Vec<&str> = ALL.iter().map(|(n, _)| *n).chain(["ablation"]).collect();
    if let Some(bad) = wanted.iter().find(|w| !known.contains(w)) {
        eprintln!(
            "error: unknown figure `{bad}`; valid names: {}",
            known.join(", ")
        );
        std::process::exit(2);
    }
    let sizes = if paper {
        Sizes::paper()
    } else {
        Sizes::bench()
    };
    if let Some(seed) = chaos_seed {
        run_chaos_mode(seed, &sizes);
    }
    if let Some(seed) = kill_seed {
        run_kill_chaos_mode(seed, &sizes);
    }
    if let Some(seed) = sdc_seed {
        run_sdc_mode(seed, &sizes, serve_tenants, &sdc_out);
    }
    if coexec_mode {
        run_coexec_mode(&sizes, coexec_quick, &coexec_out);
    }
    if serve_mode {
        run_serve_mode(serve_tenants, serve_seed, &serve_out);
    }
    if paper {
        eprintln!("note: paper-scale inputs run every work-item through an interpreter; expect long runtimes");
    }
    let export = if trace_path.is_some() {
        TraceSink::new()
    } else {
        TraceSink::disabled()
    };
    let mut out = Vec::new();
    for (name, f) in ALL {
        if !wanted.is_empty() && !wanted.contains(&name) {
            continue;
        }
        let fig = f(&sizes, &export);
        if json {
            out.push(fig);
        } else {
            println!("{}", fig.render());
        }
    }
    if wanted.is_empty() || wanted.contains(&"ablation") {
        let fig = figures::ablation_mov(&sizes, &export);
        if json {
            out.push(fig);
        } else {
            println!("{}", fig.render());
        }
    }
    if json {
        let figs: Vec<String> = out.iter().map(bench::Figure::to_json).collect();
        println!("[{}]", figs.join(","));
    }
    if let Some(path) = trace_path {
        let events = export.events();
        if let Err(e) = std::fs::write(&path, trace::chrome_json(&events)) {
            eprintln!("error: writing trace to {path}: {e}");
            std::process::exit(1);
        }
        eprintln!(
            "trace: {} events written to {path} (open in Perfetto)",
            events.len()
        );
        // Raw per-run totals, straight from the exported spans — the same
        // aggregation the figure bars are normalised from.
        let mut runs: Vec<String> = Vec::new();
        for e in &events {
            if let Some((_, v)) = e.args.iter().find(|(k, _)| k == "run") {
                if !runs.contains(v) {
                    runs.push(v.clone());
                }
            }
        }
        for r in &runs {
            let evs: Vec<trace::TraceEvent> = events
                .iter()
                .filter(|e| e.args.iter().any(|(k, v)| k == "run" && v == r))
                .cloned()
                .collect();
            let s = trace::Segments::from_events(&evs);
            eprintln!(
                "  {r}: to-dev {} from-dev {} kernel {} vm {} total {} (virtual ns)",
                s.to_device_ns,
                s.from_device_ns,
                s.kernel_ns,
                s.vm_ns,
                s.total_ns()
            );
        }
    }
}
