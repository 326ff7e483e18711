//! `table1_cases --profile` prints the profiler's aggregated span tree on
//! stderr, with the flow's top-level span in it.

use std::process::Command;

#[test]
fn table1_cases_profile_prints_the_span_tree() {
    let out = Command::new(env!("CARGO_BIN_EXE_table1_cases"))
        .arg("--profile")
        .env("LOSAC_LOG", "off")
        .output()
        .expect("table1_cases starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "exit {}: {stderr}", out.status);
    assert!(stderr.contains("profile (span tree)"), "{stderr}");
    assert!(
        stderr.lines().any(|l| l.starts_with("flow ")),
        "no `flow` line in the tree: {stderr}"
    );
}
