//! # bench — the figure and table harness
//!
//! Regenerates every evaluation artefact of the paper:
//!
//! * **Table 1** (`--bin table1`): code-complexity deltas over the real
//!   application sources in `ensemble-apps/src/assets/`.
//! * **Figures 3a–3e** (`--bin figures`): normalised stacked execution
//!   bars — *move data to device / move data from device / kernel /
//!   overhead* — for Ensemble-OpenCL (through the real compiler + VM),
//!   C-OpenCL (verbose host code) and C-OpenACC (the pragma engine), on
//!   the simulated GPU and CPU.
//!
//! Times are virtual nanoseconds from the deterministic cost model, so
//! every figure is exactly reproducible. Bench-scale sizes default to
//! reduced inputs (the kernels are interpreted); `--paper-scale` selects
//! the paper's original sizes.
//!
//! The `figures` binary also has a **chaos mode** (`--chaos-seed N`): all
//! five applications run under a seeded deterministic fault schedule on
//! the simulated GPU — plus a permanent device-loss scenario — and the
//! harness asserts every run still matches its fault-free reference (see
//! [`chaos`]), a **serving mode** (`--serve`): open-loop multi-tenant
//! load with kill-chaos in half the tenants, gating cross-tenant
//! isolation byte-for-byte (see [`serve_bench`]), and an **SDC mode**
//! (`--sdc-seed N`): seeded silent bit flips on all five apps (gating
//! 100% detection and byte-identical recovery) plus a straggler-hedging
//! tail-latency comparison (see [`sdc`]).

#![warn(missing_docs)]

use ensemble_vm::VmRuntime;
use oclsim::ProfileSink;
pub use trace::TraceSink;

pub mod apps_ens;
pub mod chaos;
pub mod coexec;
pub mod figures;
pub mod sdc;
pub mod serve_bench;
pub mod table1;

pub use apps_ens::Sizes;

/// One stacked bar of a figure.
#[derive(Debug, Clone)]
pub struct Bar {
    /// e.g. `"Ensemble GPU"`.
    pub label: String,
    /// Host→device transfer time.
    pub to_device: f64,
    /// Device→host transfer time.
    pub from_device: f64,
    /// Kernel execution time.
    pub kernel: f64,
    /// Everything else (VM interpretation, host API overhead).
    pub overhead: f64,
}

impl Bar {
    /// Total bar height.
    pub fn total(&self) -> f64 {
        self.to_device + self.from_device + self.kernel + self.overhead
    }

    /// Divide every segment by `by`.
    pub fn scale(&mut self, by: f64) {
        self.to_device /= by;
        self.from_device /= by;
        self.kernel /= by;
        self.overhead /= by;
    }

    /// Serialise as a JSON object (the workspace has no JSON library;
    /// [`trace::json::validate`] checks this format in tests).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"label\":\"{}\",\"to_device\":{},\"from_device\":{},\"kernel\":{},\"overhead\":{}}}",
            trace::escape_json(&self.label),
            self.to_device,
            self.from_device,
            self.kernel,
            self.overhead
        )
    }
}

/// A complete figure: bars + caveats.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Figure id, e.g. `"3a"`.
    pub id: String,
    /// Title, e.g. `"Matrix Multiplication"`.
    pub title: String,
    /// Stacked bars in display order.
    pub bars: Vec<Bar>,
    /// Notes (e.g. "C-OpenACC failed to compile — no GPU bars").
    pub notes: Vec<String>,
}

impl Figure {
    /// Normalise all bars to the bar labelled `reference` (the paper
    /// normalises to Ensemble GPU).
    pub fn normalise(&mut self, reference: &str) {
        let total = self
            .bars
            .iter()
            .find(|b| b.label == reference)
            .map(|b| b.total())
            .unwrap_or(1.0);
        if total > 0.0 {
            for b in &mut self.bars {
                b.scale(total);
            }
        }
    }

    /// Find a bar by label.
    pub fn bar(&self, label: &str) -> Option<&Bar> {
        self.bars.iter().find(|b| b.label == label)
    }

    /// Serialise as a JSON object.
    pub fn to_json(&self) -> String {
        let bars: Vec<String> = self.bars.iter().map(Bar::to_json).collect();
        let notes: Vec<String> = self
            .notes
            .iter()
            .map(|n| format!("\"{}\"", trace::escape_json(n)))
            .collect();
        format!(
            "{{\"id\":\"{}\",\"title\":\"{}\",\"bars\":[{}],\"notes\":[{}]}}",
            trace::escape_json(&self.id),
            trace::escape_json(&self.title),
            bars.join(","),
            notes.join(",")
        )
    }

    /// Render the figure as a text table plus ASCII stacked bars.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("Figure {} — {}\n", self.id, self.title));
        out.push_str(&format!(
            "{:<16} {:>8} {:>9} {:>8} {:>9} {:>8}\n",
            "", "to-dev", "from-dev", "kernel", "overhead", "total"
        ));
        for b in &self.bars {
            out.push_str(&format!(
                "{:<16} {:>8.3} {:>9.3} {:>8.3} {:>9.3} {:>8.3}  ",
                b.label,
                b.to_device,
                b.from_device,
                b.kernel,
                b.overhead,
                b.total()
            ));
            // 1.0 (the reference bar) = 40 characters.
            let seg = |v: f64, c: char| -> String {
                std::iter::repeat_n(c, (v * 40.0).round() as usize).collect()
            };
            out.push_str(&seg(b.to_device, '>'));
            out.push_str(&seg(b.kernel, '#'));
            out.push_str(&seg(b.from_device, '<'));
            out.push_str(&seg(b.overhead, '.'));
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("  note: {n}\n"));
        }
        out.push_str("  legend: > to-device   # kernel   < from-device   . overhead\n");
        out
    }
}

/// Modeled host overhead for native (C) host code: a fixed setup cost plus
/// a per-command cost. Tiny compared to the VM's interpretation overhead —
/// which is the paper's point about the Ensemble bars being taller.
pub fn c_host_overhead_ns(dispatches: u64, transfers: u64) -> f64 {
    5_000.0 + 200.0 * (dispatches + transfers) as f64
}

/// Run an Ensemble source through the compiler + VM and produce a bar.
///
/// The run records into a **private** [`TraceSink`] (the process-wide
/// simulated devices are shared by concurrent runs, so events are captured
/// at the profile level, never by attaching to the global queues), and the
/// bar is the trace's per-segment aggregation — so a printed breakdown and
/// an exported timeline of the same run agree by construction.
///
/// When `export` is enabled, the run's events are appended to it with the
/// track prefixed by `label` and a `run` arg added, so several runs
/// coexist in one exported Chrome trace.
pub fn ens_bar(label: &str, src: &str, export: &TraceSink) -> Result<Bar, String> {
    let module = ensemble_analysis::compile_source(src, &ensemble_analysis::Options::default())
        .map_err(|e| e.to_string())?;
    let sink = TraceSink::new();
    let profile = ProfileSink::new().with_trace(sink.clone());
    let report = VmRuntime::with_profile(module, profile)
        .run()
        .map_err(|e| e.to_string())?;
    let segs = sink.segments();
    // The VM segment must agree exactly with the shared op counter: both
    // are (Σ retired ops) × the per-op cost, summed over exact integers.
    debug_assert_eq!(segs.vm_ns, report.overhead_ns());
    export_run(label, &sink, export);
    Ok(Bar {
        label: label.to_string(),
        to_device: segs.to_device_ns,
        from_device: segs.from_device_ns,
        kernel: segs.kernel_ns,
        overhead: segs.vm_ns,
    })
}

/// Append one run's events to a shared export sink, prefixing every track
/// with the run's `label` and adding a `run` arg — so several runs coexist
/// (and stay separable) in a single exported Chrome trace.
pub fn export_run(label: &str, run: &TraceSink, export: &TraceSink) {
    if !export.is_enabled() {
        return;
    }
    export.extend(
        run.events()
            .into_iter()
            .map(|mut e| {
                e.track = format!("{label} \u{00b7} {}", e.track);
                e.args.push(("run".to_string(), label.to_string()));
                e
            })
            .collect(),
    );
}

/// Build a bar from a profile sink filled by a native (C-style) run.
pub fn c_bar(label: &str, profile: &ProfileSink, transfers_per_dispatch: u64) -> Bar {
    let p = profile.snapshot();
    Bar {
        label: label.to_string(),
        to_device: p.to_device_ns,
        from_device: p.from_device_ns,
        kernel: p.kernel_ns,
        overhead: c_host_overhead_ns(p.dispatches, p.dispatches * transfers_per_dispatch),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalisation_scales_to_reference() {
        let mut f = Figure {
            id: "t".into(),
            title: "test".into(),
            bars: vec![
                Bar {
                    label: "ref".into(),
                    to_device: 1.0,
                    from_device: 1.0,
                    kernel: 1.0,
                    overhead: 1.0,
                },
                Bar {
                    label: "double".into(),
                    to_device: 2.0,
                    from_device: 2.0,
                    kernel: 2.0,
                    overhead: 2.0,
                },
            ],
            notes: vec![],
        };
        f.normalise("ref");
        assert!((f.bar("ref").unwrap().total() - 1.0).abs() < 1e-9);
        assert!((f.bar("double").unwrap().total() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn render_contains_all_labels() {
        let f = Figure {
            id: "3x".into(),
            title: "demo".into(),
            bars: vec![Bar {
                label: "Ensemble GPU".into(),
                to_device: 0.1,
                from_device: 0.1,
                kernel: 0.7,
                overhead: 0.1,
            }],
            notes: vec!["hello".into()],
        };
        let r = f.render();
        assert!(r.contains("Figure 3x"));
        assert!(r.contains("Ensemble GPU"));
        assert!(r.contains("note: hello"));
    }

    #[test]
    fn c_host_overhead_is_small() {
        assert!(c_host_overhead_ns(1, 3) < 20_000.0);
    }
}
