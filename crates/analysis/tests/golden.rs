//! Golden snapshot tests: each negative fixture must produce exactly
//! its recorded diagnostics, byte for byte.
//!
//! Regenerate the `.expected` files with `BLESS=1 cargo test -p
//! ensemble-analysis --test golden` after verifying the new output by
//! hand.

use ensemble_analysis::{analyze_source, Options};
use std::path::Path;

fn rendered_opts(fixture: &str, opts: &Options) -> String {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let src = std::fs::read_to_string(dir.join(fixture)).unwrap();
    let report = analyze_source(&src, opts).expect("fixture must parse");
    let mut out = String::new();
    for d in &report.diagnostics {
        out.push_str(&d.render(&src, Some(fixture)));
        out.push('\n');
    }
    out
}

fn rendered(fixture: &str) -> String {
    rendered_opts(fixture, &Options::default())
}

fn check_opts(fixture: &str, code: &str, opts: &Options) {
    let got = rendered_opts(fixture, opts);
    assert!(
        got.contains(&format!("[{code}]")),
        "{fixture}: expected a {code} diagnostic, got:\n{got}"
    );
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let expected_path = dir.join(format!("{}.expected", fixture.trim_end_matches(".ens")));
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&expected_path, &got).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&expected_path)
        .unwrap_or_else(|_| panic!("missing golden {}", expected_path.display()));
    assert_eq!(got, expected, "{fixture}: diagnostics drifted from golden");
}

fn check(fixture: &str, code: &str) {
    check_opts(fixture, code, &Options::default());
}

fn check_proofs(fixture: &str, code: &str) {
    let opts = Options {
        proofs: true,
        ..Options::default()
    };
    check_opts(fixture, code, &opts);
}

#[test]
fn racy_kernel_is_e001() {
    check("racy.ens", "E001");
}

#[test]
fn oob_index_is_e003() {
    check("oob.ens", "E003");
}

#[test]
fn use_after_mov_is_e004() {
    check("use_after_mov.ens", "E004");
}

#[test]
fn orphan_channel_is_e005() {
    check("orphan.ens", "E005");
}

#[test]
fn deadlock_cycle_is_e006() {
    check("deadlock.ens", "E006");
}

#[test]
fn blocked_split_dimension_is_w003() {
    check_proofs("w003.ens", "W003");
}

#[test]
fn hazardous_dispatch_pair_is_w004() {
    check_proofs("w004.ens", "W004");
}

#[test]
fn mutation_after_send_is_w005() {
    check_proofs("w005.ens", "W005");
}

#[test]
fn proof_warnings_are_silent_without_proofs_mode() {
    // The proof engine always runs (proofs are part of every report),
    // but its W003/W004/W005 findings only surface as diagnostics under
    // `--proofs` — shipped apps must stay clean by default.
    for fixture in ["w003.ens", "w004.ens", "w005.ens"] {
        let got = rendered(fixture);
        assert!(got.is_empty(), "{fixture}: unexpected diagnostics:\n{got}");
    }
}

#[test]
fn shipped_apps_are_clean() {
    // Every .ens asset that ships with the repo must lint clean; this is
    // the same gate `compile_source` applies, pinned as a test.
    let assets = Path::new(env!("CARGO_MANIFEST_DIR")).join("../apps/src/assets");
    let mut checked = 0;
    for app in std::fs::read_dir(&assets).unwrap() {
        let app = app.unwrap().path();
        for f in std::fs::read_dir(&app).unwrap() {
            let f = f.unwrap().path();
            if f.extension().is_some_and(|e| e == "ens") {
                let src = std::fs::read_to_string(&f).unwrap();
                let report = analyze_source(&src, &Options::default()).unwrap();
                assert!(
                    report.diagnostics.is_empty(),
                    "{} has diagnostics: {:?}",
                    f.display(),
                    report
                        .diagnostics
                        .iter()
                        .map(|d| d.to_string())
                        .collect::<Vec<_>>()
                );
                checked += 1;
            }
        }
    }
    assert!(checked >= 10, "expected to lint all app sources");
}

#[test]
fn mov_residency_is_proven_for_lud() {
    let assets = Path::new(env!("CARGO_MANIFEST_DIR")).join("../apps/src/assets");
    let src = std::fs::read_to_string(assets.join("lud/ocl.ens")).unwrap();
    let report = analyze_source(&src, &Options::default()).unwrap();
    for k in ["Diag", "Col", "Sub"] {
        assert!(
            report.residency_proven.contains(k),
            "expected residency proof for `{k}`, got {:?}",
            report.residency_proven
        );
    }
}

#[test]
fn allow_escape_suppresses_diagnostic() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let src = std::fs::read_to_string(dir.join("orphan.ens")).unwrap();
    let mut opts = Options::default();
    opts.allow.insert("E005".to_string());
    let report = analyze_source(&src, &opts).unwrap();
    assert!(report.diagnostics.is_empty(), "--allow E005 must suppress");
}
