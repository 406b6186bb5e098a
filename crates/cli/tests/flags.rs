//! The `dvh` binary rejects out-of-range numeric flags at parse time:
//! exit code 2 and a message naming the flag, never a panic (exit 101)
//! and never a silent default.

use std::process::Command;

/// Runs `dvh` with `args`; returns (exit code, stderr).
fn dvh(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dvh"))
        .args(args)
        .output()
        .expect("dvh binary runs");
    (
        out.status.code().expect("exited normally"),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_rejected(args: &[&str], flag: &str) {
    let (code, stderr) = dvh(args);
    assert_eq!(code, 2, "{args:?}: {stderr}");
    assert!(
        stderr.starts_with(&format!("error: {flag} must")),
        "{args:?}: {stderr}"
    );
}

#[test]
fn level_zero_is_rejected() {
    assert_rejected(&["micro", "--level", "0"], "--level");
}

#[test]
fn level_above_the_cap_is_rejected() {
    let too_deep = (dvh_hypervisor::MAX_LEVELS + 1).to_string();
    assert_rejected(&["micro", "--level", &too_deep], "--level");
    assert_rejected(&["explain", "--level", &too_deep], "--level");
}

#[test]
fn txns_zero_is_rejected_everywhere() {
    assert_rejected(&["app", "--name", "rr", "--txns", "0"], "--txns");
    assert_rejected(&["apps", "--txns", "0"], "--txns");
    assert_rejected(&["trace", "--app", "rr", "--txns", "0"], "--txns");
    assert_rejected(&["profile", "--app", "rr", "--txns", "0"], "--txns");
    assert_rejected(&["obs", "snapshot", "--app", "rr", "--txns", "0"], "--txns");
}

#[test]
fn iters_zero_is_rejected() {
    assert_rejected(&["micro", "--iters", "0"], "--iters");
}

#[test]
fn runs_zero_is_rejected() {
    assert_rejected(&["app", "--name", "rr", "--runs", "0"], "--runs");
}

#[test]
fn workers_zero_is_rejected() {
    assert_rejected(&["sweep", "--workers", "0"], "--workers");
}

#[test]
fn the_deepest_accepted_level_runs() {
    let level = dvh_hypervisor::MAX_LEVELS.to_string();
    let (code, stderr) = dvh(&["micro", "--level", &level, "--iters", "1"]);
    assert_eq!(code, 0, "{stderr}");
}
