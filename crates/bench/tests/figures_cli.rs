//! The `figures` binary's argument check: an unknown option or figure
//! name exits 2 before anything runs, so a misspelt option can never
//! run the figures in its place and pass.

use std::process::Command;

fn figures(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("run figures");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

#[test]
fn unknown_options_exit_2_and_list_the_valid_ones() {
    for args in [
        &["--bogus"][..],
        &["--chaos-sed", "1"],
        &["fig3a", "--jsno"],
        &["--wallclock"],
        &["--repeats", "1"],
        &["--chaos-seed", "1"],
        &["--kill-seed", "1"],
        &["--sdc-seed", "1"],
        &["--serve"],
        &["--tenants", "8"],
    ] {
        let (code, stderr) = figures(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("unknown option"), "{args:?}: {stderr}");
        assert!(stderr.contains("--coexec-out <path>"), "{args:?}: {stderr}");
    }
}

#[test]
fn unknown_figure_names_exit_2() {
    let (code, stderr) = figures(&["fig9"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("unknown figure `fig9`"), "{stderr}");
}
