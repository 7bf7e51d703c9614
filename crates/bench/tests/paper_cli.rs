//! End-to-end checks of the `paper` binary's command line.

use std::process::{Command, Output};

fn paper(args: &[&str]) -> Output {
    let bin = env!("CARGO_BIN_EXE_paper");
    Command::new(bin)
        .args(args)
        .output()
        .expect("paper launches")
}

#[test]
fn all_smoke_runs_every_section_and_passes_its_gates() {
    let out = paper(&["all", "--smoke"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}\n{stderr}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);
    for section in "table1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 dist_comm ablations".split(' ') {
        let header = format!("########## {section} ##########");
        assert!(stdout.contains(&header), "missing {header}");
    }
}

#[test]
fn an_unknown_section_prints_usage_and_fails_without_panicking() {
    let out = paper(&["fig9"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("usage: paper") && !stderr.contains("panicked"),
        "{stderr}"
    );
}
