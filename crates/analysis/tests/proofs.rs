//! Proof-engine integration tests: pin the exact proofs the shipped
//! applications earn, and cross-check every positive claim with the
//! dynamic shadow validator. A refutation anywhere fails the build —
//! the prover must never claim more than a concrete execution can
//! confirm.

use ensemble_analysis::{
    analyze_source, shadow_validate, DispatchConfig, Options, Report, ShadowConfig,
};
use ensemble_lang::proof::{DimClass, Hazard};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn assets() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../apps/src/assets")
}

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn proofs_opts() -> Options {
    Options {
        proofs: true,
        ..Options::default()
    }
}

fn app_report(app: &str) -> Report {
    let src = std::fs::read_to_string(assets().join(app).join("ocl.ens")).unwrap();
    analyze_source(&src, &proofs_opts()).unwrap()
}

fn dc(
    global: &[usize],
    local: &[usize],
    scalars: &[(&str, i64)],
    dims: &[(&str, &[usize])],
) -> DispatchConfig {
    DispatchConfig {
        global: global.to_vec(),
        local: local.to_vec(),
        scalars: scalars.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        dims: dims
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_vec()))
            .collect(),
    }
}

fn shadow_cfg(kernels: Vec<(&str, DispatchConfig)>) -> ShadowConfig {
    ShadowConfig {
        kernels: kernels
            .into_iter()
            .map(|(k, c)| (k.to_string(), c))
            .collect::<BTreeMap<_, _>>(),
    }
}

fn classes(report: &Report, kernel: &str) -> Vec<DimClass> {
    let sp = report
        .proofs
        .splits
        .iter()
        .find(|s| s.kernel == kernel)
        .unwrap_or_else(|| panic!("no split proof for `{kernel}`"));
    sp.dims.iter().map(|d| d.class).collect()
}

// ---- per-app proof shapes ---------------------------------------------

#[test]
fn matmul_is_splittable_on_both_dims() {
    let r = app_report("matmul");
    assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    assert_eq!(
        classes(&r, "Multiply"),
        vec![DimClass::Splittable, DimClass::Splittable]
    );
    let f = &r.proofs.fusion[0];
    assert_eq!(f.host, "Dispatch");
    assert_eq!(f.sites, vec!["Multiply"]);
    assert_eq!(f.barrier.as_deref(), Some("readback receive"));
    let s = &r.proofs.sends[0];
    assert_eq!((s.actor.as_str(), s.payload.as_str()), ("Dispatch", "d"));
    assert!(s.unmutated, "matmul payload must be provably CoW-safe");
    // Single-site chain: no chain role recorded.
    assert!(r.kernel_proofs["Multiply"].chain.is_none());
}

#[test]
fn mandelbrot_is_splittable_on_both_dims() {
    let r = app_report("mandelbrot");
    assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    assert_eq!(
        classes(&r, "Mandelbrot"),
        vec![DimClass::Splittable, DimClass::Splittable]
    );
    let s = &r.proofs.sends[0];
    assert_eq!(s.payload, "img");
    assert!(s.unmutated);
}

#[test]
fn reduction_tree_dim_is_classified_reduction() {
    let r = app_report("reduction");
    assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    assert_eq!(classes(&r, "Reduce"), vec![DimClass::Reduction]);
    let sp = &r.proofs.splits[0];
    assert!(
        sp.dims[0].evidence.contains("per-group combine slot"),
        "evidence should name the combine slot: {}",
        sp.dims[0].evidence
    );
    // The host mutates `data` only *before* constructing and sending
    // the payload, so the send is still CoW-safe.
    assert!(r.proofs.sends[0].unmutated);
}

#[test]
fn docrank_chain_loops_ten_times_with_waw_wraparound() {
    let r = app_report("docrank");
    assert_eq!(classes(&r, "Rank"), vec![DimClass::Splittable]);
    let f = &r.proofs.fusion[0];
    assert_eq!(f.sites, vec!["Rank"]);
    assert!(f.loops);
    assert_eq!(f.iterations, Some(10));
    // The only pair is Rank against its own next iteration: both write
    // `flags[gid]`, a WAW hazard across the loop back-edge.
    assert_eq!(f.pairs.len(), 1);
    let p = &f.pairs[0];
    assert!(!p.mergeable);
    let (hz, buf) = p.hazard.as_ref().expect("hazard recorded");
    assert_eq!((*hz, buf.as_str()), (Hazard::Waw, "flags"));
    // In proofs mode that surfaces as exactly one W004.
    let w004: Vec<_> = r.diagnostics.iter().filter(|d| d.code == "W004").collect();
    assert_eq!(w004.len(), 1, "{:?}", r.diagnostics);
}

#[test]
fn lud_chain_is_diag_col_sub_with_raw_hazards() {
    let r = app_report("lud");
    assert_eq!(classes(&r, "Diag"), vec![DimClass::Inactive]);
    assert_eq!(classes(&r, "Col"), vec![DimClass::Splittable]);
    assert_eq!(
        classes(&r, "Sub"),
        vec![DimClass::Splittable, DimClass::Splittable]
    );

    let f = &r.proofs.fusion[0];
    assert_eq!(f.host, "Controller");
    assert_eq!(f.sites, vec!["Diag", "Col", "Sub"]);
    assert!(f.loops);
    assert_eq!(f.iterations, Some(2048));
    // Every adjacent pair (including the Sub -> Diag wrap-around)
    // carries a RAW hazard: the factorisation is inherently ordered.
    let got: Vec<(&str, &str, Hazard, &str)> = f
        .pairs
        .iter()
        .map(|p| {
            let (hz, buf) = p.hazard.as_ref().expect("hazard");
            (p.from.as_str(), p.to.as_str(), *hz, buf.as_str())
        })
        .collect();
    assert_eq!(
        got,
        vec![
            ("Diag", "Col", Hazard::Raw, "piv"),
            ("Col", "Sub", Hazard::Raw, "m"),
            ("Sub", "Diag", Hazard::Raw, "m"),
        ]
    );

    // Chain roles thread through to the per-kernel proofs.
    for (k, idx) in [("Diag", 0), ("Col", 1), ("Sub", 2)] {
        let role = r.kernel_proofs[k].chain.as_ref().unwrap();
        assert_eq!((role.host.as_str(), role.len, role.index), ("Controller", 3, idx));
        assert!(!role.mergeable_with_prev);
    }

    let w004: Vec<_> = r.diagnostics.iter().filter(|d| d.code == "W004").collect();
    assert_eq!(w004.len(), 3, "{:?}", r.diagnostics);
}

#[test]
fn every_shipped_kernel_earns_a_split_proof() {
    for app in ["matmul", "mandelbrot", "reduction", "docrank", "lud"] {
        let r = app_report(app);
        assert!(!r.proofs.splits.is_empty(), "{app}: no split proofs");
        for sp in &r.proofs.splits {
            assert!((1..=3).contains(&sp.ndims), "{app}/{}", sp.kernel);
            assert_eq!(sp.dims.len(), sp.ndims, "{app}/{}", sp.kernel);
            for d in &sp.dims {
                assert!(!d.evidence.is_empty(), "{app}/{}", sp.kernel);
            }
            assert!(
                r.kernel_proofs.contains_key(&sp.kernel),
                "{app}/{} missing from kernel_proofs",
                sp.kernel
            );
        }
    }
}

#[test]
fn fusion_ok_pair_is_mergeable_and_shadow_confirms() {
    let src = std::fs::read_to_string(fixtures().join("fusion_ok.ens")).unwrap();
    let r = analyze_source(&src, &proofs_opts()).unwrap();
    assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    let f = &r.proofs.fusion[0];
    assert_eq!(f.sites, vec!["Double", "Square"]);
    let p = &f.pairs[0];
    assert!(p.mergeable, "disjoint-buffer pair must be mergeable: {}", p.detail);
    assert!(p.hazard.is_none());
    let role = r.kernel_proofs["Square"].chain.as_ref().unwrap();
    assert!(role.mergeable_with_prev);

    // The shadow validator executes both dispatches and re-checks the
    // mergeable claim against the concrete access sets.
    let d = dc(&[8], &[4], &[], &[("inp", &[8]), ("dbl", &[8]), ("sqr", &[8])]);
    let refs = shadow_validate(
        &src,
        &shadow_cfg(vec![("Double", d.clone()), ("Square", d)]),
    )
    .unwrap();
    assert!(refs.is_empty(), "{refs:?}");
}

#[test]
fn w003_fixture_blocks_exactly_one_dim() {
    let src = std::fs::read_to_string(fixtures().join("w003.ens")).unwrap();
    let r = analyze_source(&src, &proofs_opts()).unwrap();
    assert_eq!(
        classes(&r, "Broadcast"),
        vec![DimClass::Splittable, DimClass::Blocked]
    );
    // The surviving dim-0 claim holds up under execution.
    let cfg = shadow_cfg(vec![(
        "Broadcast",
        dc(
            &[8, 8],
            &[4, 4],
            &[],
            &[("inp", &[8]), ("out", &[8]), ("res", &[8, 8])],
        ),
    )]);
    let refs = shadow_validate(&src, &cfg).unwrap();
    assert!(refs.is_empty(), "{refs:?}");
}

// ---- shadow validation of every shipped source ------------------------

#[test]
fn shadow_validates_all_shipped_sources() {
    // Concrete (small) dispatch shapes per kernel actor; sequential
    // sources carry no kernels and must validate trivially.
    let mut checked = 0;
    for app in std::fs::read_dir(assets()).unwrap() {
        let app = app.unwrap().path();
        let name = app.file_name().unwrap().to_str().unwrap().to_string();
        for f in std::fs::read_dir(&app).unwrap() {
            let f = f.unwrap().path();
            if f.extension().is_none_or(|e| e != "ens") {
                continue;
            }
            let src = std::fs::read_to_string(&f).unwrap();
            let cfg = shadow_cfg(app_shadow_kernels(&name));
            let refs = shadow_validate(&src, &cfg).unwrap();
            assert!(refs.is_empty(), "{}: {refs:?}", f.display());
            checked += 1;
        }
    }
    assert!(checked >= 10, "expected to shadow-validate all app sources");
}

fn app_shadow_kernels(app: &str) -> Vec<(&'static str, DispatchConfig)> {
    let lud = |g: &[usize], l: &[usize]| {
        dc(g, l, &[("step", 1)], &[("m", &[8, 8]), ("piv", &[8])])
    };
    match app {
        "matmul" => vec![(
            "Multiply",
            dc(
                &[4, 4],
                &[2, 2],
                &[],
                &[("a", &[4, 4]), ("b", &[4, 4]), ("result", &[4, 4])],
            ),
        )],
        "mandelbrot" => vec![("Mandelbrot", dc(&[4, 4], &[2, 2], &[], &[("", &[4, 4])]))],
        "reduction" => vec![(
            "Reduce",
            dc(&[8], &[4], &[], &[("input", &[8]), ("partial", &[2])]),
        )],
        "docrank" => vec![(
            "Rank",
            dc(
                &[4],
                &[2],
                &[],
                &[("docs", &[4, 64]), ("tpl", &[64]), ("flags", &[4])],
            ),
        )],
        // Several items per group, and a worksize rounded past the
        // remaining rows as the controller does it: the item-granularity
        // claim has lanes to compare and the guards have items to turn
        // away.
        "lud" => vec![
            ("Diag", lud(&[1], &[1])),
            ("Col", lud(&[8], &[4])),
            ("Sub", lud(&[8, 8], &[4, 4])),
        ],
        _ => Vec::new(),
    }
}

// ---- proofs that travel with the kernel source -------------------------

/// `(kernel, per-dimension unconditional, earns the attribute)`.
fn travels(report: &Report) -> Vec<(&str, Vec<bool>, bool)> {
    report
        .proofs
        .splits
        .iter()
        .map(|sp| {
            (
                sp.kernel.as_str(),
                sp.dims.iter().map(|d| d.unconditional).collect(),
                sp.proves_disjoint_items(),
            )
        })
        .collect()
}

#[test]
fn shipped_kernels_that_earn_the_disjoint_items_attribute_are_pinned() {
    let got: Vec<_> = ["matmul", "mandelbrot", "reduction", "docrank", "lud"]
        .into_iter()
        .flat_map(|app| {
            travels(&app_report(app))
                .into_iter()
                .map(|(k, u, a)| (k.to_string(), u, a))
                .collect::<Vec<_>>()
        })
        .collect();
    let want = [
        ("Multiply", vec![true, true], true),
        ("Mandelbrot", vec![true, true], true),
        // A group identity separates groups, not items.
        ("Reduce", vec![false], false),
        ("Rank", vec![true], true),
        // One work-item: nothing to interleave, nothing claimed.
        ("Diag", vec![false], false),
        ("Col", vec![true], true),
        ("Sub", vec![true, true], true),
    ]
    .map(|(k, u, a)| (k.to_string(), u, a));
    assert_eq!(got, want);

    // The attribute is in the gated source and nowhere else.
    let src = std::fs::read_to_string(assets().join("lud/ocl.ens")).unwrap();
    let attributed = |module: &ensemble_lang::CompiledModule| -> Vec<String> {
        module
            .actors
            .iter()
            .filter_map(|a| match &a.code {
                ensemble_lang::ActorCode::Kernel(plan)
                    if plan.source.contains("__attribute__((ens_disjoint_items))") =>
                {
                    Some(plan.kernel_name.clone())
                }
                _ => None,
            })
            .collect()
    };
    let gated = ensemble_analysis::compile_source(&src, &Options::default()).unwrap();
    assert_eq!(attributed(&gated), ["Col", "Sub"]);
    let ungated = ensemble_lang::compile_source(&src).unwrap();
    assert!(attributed(&ungated).is_empty());
}

/// One kernel and a host that dispatches it over 8 items in one
/// dimension.
fn one_kernel_source(body: &str) -> String {
    strided_kernel_source(16, 2, 4, 1, 0).replace("d.out[1 * gid + 0] := 2.0 * d.inp[gid];", body)
}

#[test]
fn verdicts_that_lean_on_host_facts_do_not_travel() {
    // Splittable because the routed worksize has one dimension, so
    // `get_global_id(1)` is 0 — for this host.
    let r = analyze_source(
        &one_kernel_source("d.out[gid + get_global_id(1)] := 2.0 * d.inp[gid];"),
        &proofs_opts(),
    )
    .unwrap();
    assert_eq!(classes(&r, "Scale"), vec![DimClass::Splittable]);
    assert_eq!(travels(&r), [("Scale", vec![false], false)]);

    // Splittable because the routed extent is 8, so the write `out[gid + 8]`
    // stays above every read `out[gid]` — for this host; over 16 items,
    // item 8 reads what item 0 wrote.
    let r = analyze_source(
        &one_kernel_source("d.out[gid + 8] := 2.0 * d.out[gid];"),
        &proofs_opts(),
    )
    .unwrap();
    assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    assert_eq!(classes(&r, "Scale"), vec![DimClass::Splittable]);
    assert_eq!(travels(&r), [("Scale", vec![false], false)]);

    // The same shape with nothing to lean on.
    let r = analyze_source(
        &one_kernel_source("d.out[gid] := 2.0 * d.out[gid];"),
        &proofs_opts(),
    )
    .unwrap();
    assert_eq!(travels(&r), [("Scale", vec![true], true)]);
    assert!(
        r.proofs.splits[0].dims[0]
            .evidence
            .contains("inside their rows"),
        "the evidence states the in-row assumption: {}",
        r.proofs.splits[0].dims[0].evidence
    );
}

#[test]
fn a_row_overflow_breaks_the_in_row_assumption_and_the_shadow_says_so() {
    // The prover argues per subscript position: row 1 is not row 0. The
    // generated kernel addresses `m[i * dim1 + j]` under a whole-buffer
    // bounds check, so a `j` past the row's end lands in the next row.
    // The claim is made (no routed extent to refute it with), it is
    // false, and the adversary at item granularity catches it.
    let src = std::fs::read_to_string(fixtures().join("lanes.ens")).unwrap();
    let r = analyze_source(&src, &proofs_opts()).unwrap();
    let claims = |k: &str| r.proofs.split_for(k).unwrap().proves_disjoint_items();
    assert!(!claims("Shift"));
    assert!(claims("RowOverflow") && claims("InRow"));

    let mut d = dc(&[7], &[7], &[("w", 8)], &[("a", &[8]), ("m", &[2, 8])]);
    let cfg =
        |d: &DispatchConfig| shadow_cfg(vec![("RowOverflow", d.clone()), ("InRow", d.clone())]);
    let refs = shadow_validate(&src, &cfg(&d)).unwrap();
    assert_eq!(refs.len(), 1, "{refs:?}");
    assert_eq!(
        (refs[0].kernel.as_str(), refs[0].claim.as_str()),
        ("RowOverflow", "disjoint items dim 0")
    );
    // With rows wide enough for every subscript the claim holds.
    d.dims.insert("m".to_string(), vec![2, 16]);
    let refs = shadow_validate(&src, &cfg(&d)).unwrap();
    assert!(refs.is_empty(), "{refs:?}");
}

// ---- suppression ------------------------------------------------------

#[test]
fn proof_warnings_respect_allow_flags() {
    for (fixture, code) in [("w003.ens", "W003"), ("w004.ens", "W004"), ("w005.ens", "W005")] {
        let src = std::fs::read_to_string(fixtures().join(fixture)).unwrap();
        let mut opts = proofs_opts();
        let r = analyze_source(&src, &opts).unwrap();
        assert!(
            r.diagnostics.iter().any(|d| d.code == code),
            "{fixture}: expected {code} before suppression"
        );
        opts.allow.insert(code.to_string());
        let r = analyze_source(&src, &opts).unwrap();
        assert!(
            r.diagnostics.is_empty(),
            "{fixture}: --allow {code} must suppress: {:?}",
            r.diagnostics
        );
    }
}

#[test]
fn proof_warnings_respect_allow_comments() {
    // Annotating the flagged line with `// allow(W004)` suppresses it
    // the same way it does for the E codes.
    let src = std::fs::read_to_string(fixtures().join("w004.ens")).unwrap();
    let marked = src.replace(
        "send new settings_t(ws, gs, sin, scale_out) on scale_req;",
        "send new settings_t(ws, gs, sin, scale_out) on scale_req; // allow(W004)",
    );
    assert_ne!(src, marked, "anchor line moved — update this test");
    let r = analyze_source(&marked, &proofs_opts()).unwrap();
    assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
}

// ---- CLI --------------------------------------------------------------

#[test]
fn ens_lint_proofs_json_round_trips() {
    let bin = env!("CARGO_BIN_EXE_ens-lint");
    let matmul = assets().join("matmul/ocl.ens");
    let out = std::process::Command::new(bin)
        .args(["--proofs", "--json"])
        .arg(&matmul)
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("\"errors\":0"), "{stdout}");
    assert!(
        stdout.contains("\"class\":\"splittable\",\"unconditional\":true"),
        "{stdout}"
    );
    assert!(stdout.contains("\"unmutated\":true"), "{stdout}");

    // Errors exit 1; usage errors exit 2; warnings-only exits 0.
    let racy = fixtures().join("racy.ens");
    let out = std::process::Command::new(bin).arg(&racy).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let out = std::process::Command::new(bin).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let w004 = fixtures().join("w004.ens");
    let out = std::process::Command::new(bin)
        .arg("--proofs")
        .arg(&w004)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "warnings-only must exit 0");
}

// ---- soundness regressions --------------------------------------------
// Each test pins a prover-soundness fix: claims that once leaked through
// (wrap-around chains across real barriers, scalar unification without
// value equality, conditional loops, re-aliasing rebinds, unbounded
// empty loops) must stay refuted.

/// Two mov kernels and a dispatch loop whose body mutates the sent
/// payload *between* the two enqueues. The mutation is a fusion
/// barrier, so neither chain may close over the loop back-edge.
const MUTATED_IN_LOOP_SRC: &str = r#"
type data_t is struct (
    mov real [] v;
    mov integer [] flags
)
type settings_t is opencl struct (
    integer [] worksize;
    integer [] groupsize;
    in data_t input;
    out data_t output
)
type hostI is interface (
    out settings_t a_req;
    out settings_t b_req
)
type kI is interface(
    in settings_t requests
)

stage home {

    opencl <device_index=0, device_type=GPU>
    actor A presents kI {
        constructor() {}
        behaviour {
            receive req from requests;
            receive d from req.input;
            gid = get_global_id(0);
            d.v[gid] := 1.0;
            send d on req.output;
        }
    }

    opencl <device_index=0, device_type=GPU>
    actor B presents kI {
        constructor() {}
        behaviour {
            receive req from requests;
            receive d from req.input;
            gid = get_global_id(0);
            d.flags[gid] := 1;
            send d on req.output;
        }
    }

    actor Run presents hostI {
        constructor() {}
        behaviour {
            d = new data_t(new real[8], new integer[8]);
            for r = 0 .. 3 do {
                ws = new integer[1] of 8;
                gs = new integer[1] of 4;
                ia = new in data_t;
                ib = new in data_t;
                back = new in data_t;
                to_a = new out data_t;
                a_out = new out data_t;
                b_out = new out data_t;
                connect to_a to ia;
                connect a_out to ib;
                connect b_out to back;
                send new settings_t(ws, gs, ia, a_out) on a_req;
                send d on to_a;
                d.flags[0] := 1;
                send new settings_t(ws, gs, ib, b_out) on b_req;
                receive dn from back;
                d := dn;
            }
            stop;
        }
    }

    boot {
        h = new Run();
        ka = new A();
        kb = new B();
        connect h.a_req to ka.requests;
        connect h.b_req to kb.requests;
    }
}
"#;

#[test]
fn payload_mutation_in_loop_body_blocks_wraparound_chains() {
    let r = analyze_source(MUTATED_IN_LOOP_SRC, &proofs_opts()).unwrap();
    // The host mutation between the two enqueues is a real barrier:
    // nothing may claim a looping chain (no wrap-around pairs), even
    // though the open chain at the end of the body never saw it.
    assert!(
        r.proofs.fusion.iter().all(|f| !f.loops),
        "wrap-around claimed across a payload mutation: {:?}",
        r.proofs.fusion
    );
    let barriers: Vec<&str> = r
        .proofs
        .fusion
        .iter()
        .filter_map(|f| f.barrier.as_deref())
        .collect();
    assert!(
        barriers.contains(&"host mutation of a sent payload"),
        "mutation barrier not recorded: {barriers:?}"
    );
    assert!(
        barriers.contains(&"loop body barrier"),
        "trailing chain must carry the loop-body barrier: {barriers:?}"
    );
}

/// A dispatch loop nested under a conditional: its channel operations
/// cannot be ordered, so no chain — and certainly no *looping* chain —
/// may be extracted from it.
const CONDITIONAL_LOOP_SRC: &str = r#"
type data_t is struct (
    mov real [] v
)
type settings_t is opencl struct (
    integer [] worksize;
    integer [] groupsize;
    in data_t input;
    out data_t output
)
type hostI is interface (
    out settings_t a_req
)
type kI is interface(
    in settings_t requests
)

stage home {

    opencl <device_index=0, device_type=GPU>
    actor A presents kI {
        constructor() {}
        behaviour {
            receive req from requests;
            receive d from req.input;
            gid = get_global_id(0);
            d.v[gid] := 1.0;
            send d on req.output;
        }
    }

    actor Run presents hostI {
        constructor() {}
        behaviour {
            flag = 1;
            d = new data_t(new real[8]);
            if flag > 0 then {
                for r = 0 .. 9 do {
                    ws = new integer[1] of 8;
                    gs = new integer[1] of 4;
                    ia = new in data_t;
                    back = new in data_t;
                    to_a = new out data_t;
                    a_out = new out data_t;
                    connect to_a to ia;
                    connect a_out to back;
                    send new settings_t(ws, gs, ia, a_out) on a_req;
                    send d on to_a;
                    receive dn from back;
                    d := dn;
                }
            }
            stop;
        }
    }

    boot {
        h = new Run();
        ka = new A();
        connect h.a_req to ka.requests;
    }
}
"#;

#[test]
fn conditional_dispatch_loop_yields_no_chain() {
    let r = analyze_source(CONDITIONAL_LOOP_SRC, &proofs_opts()).unwrap();
    assert!(
        r.proofs.fusion.is_empty(),
        "conditional dispatches must not form chains: {:?}",
        r.proofs.fusion
    );
    assert!(r.kernel_proofs["A"].chain.is_none());
}

/// Two single-item kernels subscripting by the settings scalar `n`:
/// A writes `v[n]`, B reads `v[n + 1]`. The pair is mergeable only when
/// both dispatches provably receive the same `n`.
fn scalar_pair_source(na: &str, nb: &str) -> String {
    format!(
        r#"
type data_t is struct (
    mov real [] v;
    mov real [] w
)
type settings_t is opencl struct (
    integer [] worksize;
    integer [] groupsize;
    in data_t input;
    out data_t output;
    integer n
)
type hostI is interface (
    out settings_t a_req;
    out settings_t b_req
)
type kI is interface(
    in settings_t requests
)

stage home {{

    opencl <device_index=0, device_type=GPU>
    actor A presents kI {{
        constructor() {{}}
        behaviour {{
            receive req from requests;
            receive d from req.input;
            n = req.n;
            d.v[n] := 1.0;
            send d on req.output;
        }}
    }}

    opencl <device_index=0, device_type=GPU>
    actor B presents kI {{
        constructor() {{}}
        behaviour {{
            receive req from requests;
            receive d from req.input;
            n = req.n;
            d.w[0] := d.v[n + 1];
            send d on req.output;
        }}
    }}

    actor Run presents hostI {{
        constructor() {{}}
        behaviour {{
            ws = new integer[1] of 1;
            gs = new integer[1] of 1;
            ia = new in data_t;
            ib = new in data_t;
            back = new in data_t;
            to_a = new out data_t;
            a_out = new out data_t;
            b_out = new out data_t;
            connect to_a to ia;
            connect a_out to ib;
            connect b_out to back;
            send new settings_t(ws, gs, ia, a_out, {na}) on a_req;
            send new settings_t(ws, gs, ib, b_out, {nb}) on b_req;
            d = new data_t(new real[16], new real[16]);
            send d on to_a;
            receive dn from back;
            printReal(checksum(dn.w));
            stop;
        }}
    }}

    boot {{
        h = new Run();
        ka = new A();
        kb = new B();
        connect h.a_req to ka.requests;
        connect h.b_req to kb.requests;
    }}
}}
"#
    )
}

#[test]
fn scalars_unify_only_on_proven_equal_values() {
    // Same value to both dispatches: `n` cancels, the write `v[n]` and
    // the read `v[n + 1]` sit a constant 1 apart — mergeable.
    let r = analyze_source(&scalar_pair_source("7", "7"), &proofs_opts()).unwrap();
    let p = &r.proofs.fusion[0].pairs[0];
    assert!(
        p.mergeable,
        "equal-valued scalars must still unify: {}",
        p.detail
    );

    // Different values (A gets 6, B gets 5): both kernels touch v[6],
    // so unifying by field name alone would be unsound. The scalar must
    // range independently, leaving a RAW hazard.
    let r = analyze_source(&scalar_pair_source("6", "5"), &proofs_opts()).unwrap();
    let p = &r.proofs.fusion[0].pairs[0];
    assert!(
        !p.mergeable,
        "distinct scalar values unified by field name: {}",
        p.detail
    );
    let (hz, buf) = p.hazard.as_ref().expect("hazard recorded");
    assert_eq!((*hz, buf.as_str()), (Hazard::Raw, "v"));
}

/// `e = d` inside the loop re-aliases the sent payload; the back-edge
/// scan must keep `e` live across its rebind and catch the mutation.
const REALIAS_REBIND_SRC: &str = r#"
type data_t is struct (
    real [] inp;
    real [] out
)
type settings_t is opencl struct (
    integer [] worksize;
    integer [] groupsize;
    in data_t input;
    out data_t output
)
type dI is interface (
    out settings_t requests;
    out data_t dout;
    in data_t din
)
type kI is interface(
    in settings_t requests
)

stage home {

    opencl <device_index=0, device_type=GPU>
    actor Scale presents kI {
        constructor() {}
        behaviour {
            receive req from requests;
            receive d from req.input;
            gid = get_global_id(0);
            d.out[gid] := 2.0 * d.inp[gid];
            send d on req.output;
        }
    }

    actor Run presents dI {
        constructor() {}
        behaviour {
            d = new data_t(new real[8] of 1.0, new real[8]);
            for r = 0 .. 3 do {
                e = d;
                e.inp[0] := 2.0;
                ws = new integer[1] of 8;
                gs = new integer[1] of 4;
                i = new in data_t;
                o = new out data_t;
                connect dout to i;
                connect o to din;
                send new settings_t(ws, gs, i, o) on requests;
                send d on dout;
                receive res from din;
            }
            stop;
        }
    }

    boot {
        k = new Scale();
        r = new Run();
        connect r.requests to k.requests;
    }
}
"#;

#[test]
fn realiasing_rebind_keeps_sent_payload_mutable() {
    let r = analyze_source(REALIAS_REBIND_SRC, &proofs_opts()).unwrap();
    let s = r
        .proofs
        .sends
        .iter()
        .find(|s| s.payload == "d")
        .expect("send proof for d");
    // `e = d; e.inp[0] := 2.0` runs again after the send on the next
    // iteration: the payload is NOT provably unmutated.
    assert!(
        !s.unmutated,
        "mutation through re-aliasing rebind missed — false CoW-safe verdict"
    );
    assert!(
        r.diagnostics.iter().any(|d| d.code == "W005"),
        "expected W005 at the aliased mutation: {:?}",
        r.diagnostics
    );
}

/// Kernels with empty-bodied loops (truthy `while`, huge `for`): the
/// shadow validator's fuel must bound them — this test hanging means
/// fuel is not charged per iteration.
fn empty_loop_kernel_source(loop_stmt: &str) -> String {
    format!(
        r#"
type data_t is struct (
    real [] inp;
    real [] out
)
type settings_t is opencl struct (
    integer [] worksize;
    integer [] groupsize;
    in data_t input;
    out data_t output
)
type dI is interface (
    out settings_t requests;
    out data_t dout;
    in data_t din
)
type kI is interface(
    in settings_t requests
)

stage home {{

    opencl <device_index=0, device_type=GPU>
    actor Spin presents kI {{
        constructor() {{}}
        behaviour {{
            receive req from requests;
            receive d from req.input;
            {loop_stmt}
            d.out[get_global_id(0)] := 1.0;
            send d on req.output;
        }}
    }}

    actor Run presents dI {{
        constructor() {{}}
        behaviour {{
            ws = new integer[1] of 1;
            gs = new integer[1] of 1;
            i = new in data_t;
            o = new out data_t;
            connect dout to i;
            connect o to din;
            send new settings_t(ws, gs, i, o) on requests;
            d = new data_t(new real[4] of 1.0, new real[4]);
            send d on dout;
            receive res from din;
            stop;
        }}
    }}

    boot {{
        k = new Spin();
        r = new Run();
        connect r.requests to k.requests;
    }}
}}
"#
    )
}

#[test]
fn shadow_fuel_bounds_empty_bodied_loops() {
    for loop_stmt in ["while (0 < 1) { }", "for q = 0 .. 999999999 do { }"] {
        let src = empty_loop_kernel_source(loop_stmt);
        let cfg = shadow_cfg(vec![(
            "Spin",
            dc(&[1], &[1], &[], &[("inp", &[4]), ("out", &[4])]),
        )]);
        // Must terminate (fuel charged per iteration), not hang.
        let refs = shadow_validate(&src, &cfg).unwrap();
        assert!(refs.is_empty(), "{loop_stmt}: {refs:?}");
    }
}

// ---- property-based soundness gate ------------------------------------

fn strided_kernel_source(len: u32, groups: u32, lsize: u32, stride: u32, offset: u32) -> String {
    format!(
        r#"
type data_t is struct (
    real [] inp;
    real [] out
)
type settings_t is opencl struct (
    integer [] worksize;
    integer [] groupsize;
    in data_t input;
    out data_t output
)
type dI is interface (
    out settings_t requests;
    out data_t dout;
    in data_t din
)
type kI is interface(
    in settings_t requests
)

stage home {{

    opencl <device_index=0, device_type=GPU>
    actor Scale presents kI {{
        constructor() {{}}
        behaviour {{
            receive req from requests;
            receive d from req.input;
            gid = get_global_id(0);
            d.out[{stride} * gid + {offset}] := 2.0 * d.inp[gid];
            send d on req.output;
        }}
    }}

    actor Run presents dI {{
        constructor() {{}}
        behaviour {{
            ws = new integer[1] of {ws};
            gs = new integer[1] of {lsize};
            i = new in data_t;
            o = new out data_t;
            connect dout to i;
            connect o to din;
            send new settings_t(ws, gs, i, o) on requests;
            d = new data_t(new real[{ws}] of 1.0, new real[{len}]);
            send d on dout;
            receive r from din;
            printReal(checksum(r.out));
            stop;
        }}
    }}

    boot {{
        k = new Scale();
        r = new Run();
        connect r.requests to k.requests;
    }}
}}
"#,
        ws = groups * lsize,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn shadow_never_refutes_proven_affine_kernels(
        groups in 1u32..5,
        lsize in 1u32..5,
        stride in 1u32..4,
        offset in 0u32..3,
    ) {
        // `out[stride*gid + offset]` is injective in gid, so dimension
        // 0 must be proven splittable — and the concrete execution must
        // agree for every parameter choice.
        let ws = groups * lsize;
        let len = stride * (ws - 1) + offset + 1;
        let src = strided_kernel_source(len, groups, lsize, stride, offset);

        let report = analyze_source(&src, &proofs_opts()).unwrap();
        prop_assert!(
            report.diagnostics.is_empty(),
            "generated kernel flagged: {:?}",
            report.diagnostics.iter().map(|d| d.to_string()).collect::<Vec<_>>()
        );
        let sp = report.proofs.splits.iter().find(|s| s.kernel == "Scale").unwrap();
        let expect = if ws == 1 { DimClass::Inactive } else { DimClass::Splittable };
        prop_assert_eq!(sp.dims[0].class, expect);

        let cfg = shadow_cfg(vec![(
            "Scale",
            dc(
                &[ws as usize],
                &[lsize as usize],
                &[],
                &[("inp", &[ws as usize]), ("out", &[len as usize])],
            ),
        )]);
        let refs = shadow_validate(&src, &cfg).unwrap();
        prop_assert!(refs.is_empty(), "soundness refuted: {:?}", refs);
    }
}
