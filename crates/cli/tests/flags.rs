//! The `dvh` binary rejects out-of-range numeric flags and flags a
//! subcommand does not know at parse time: exit code 2 and a message
//! naming the flag, never a panic (exit 101) and never a silent
//! default. `<command> --help` prints usage, and a reader that closes
//! the pipe early ends the command quietly.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

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
fn observed_runs_reject_levels_past_the_observed_cap() {
    let too_deep = (dvh_cli::args::MAX_OBSERVED_LEVEL + 1).to_string();
    for args in [
        &["trace", "--level", &too_deep][..],
        &["profile", "--level", &too_deep],
        &["obs", "snapshot", "--app", "rr", "--level", &too_deep],
    ] {
        assert_rejected(args, "--level");
        let (_, stderr) = dvh(args);
        assert!(
            stderr.contains("bypass exit summaries"),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn truncated_traces_are_refused_not_reported() {
    // An L6 hypercall raises more exits than the trace buffer holds:
    // the trace and everything derived from it must fail loudly,
    // naming the evicted count, instead of printing a partial tree.
    for args in [
        &["trace", "--op", "hypercall", "--level", "6"][..],
        &["profile", "--op", "timer", "--level", "6"],
        &[
            "profile", "--op", "timer", "--level", "6", "--format", "folded",
        ],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_dvh"))
            .args(args)
            .output()
            .expect("dvh binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains("dropped"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a truncated result");
    }
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
fn top_zero_is_rejected() {
    assert_rejected(&["profile", "--top", "0"], "--top");
}

#[test]
fn unknown_flags_are_rejected_by_every_subcommand() {
    for (args, sub) in [
        (&["micro", "--frob", "1"][..], "micro"),
        (&["app", "--name", "rr", "--frob"], "app"),
        (&["apps", "--frob"], "apps"),
        (&["migrate", "--frob"], "migrate"),
        (&["results", "--frob"], "results"),
        (&["explain", "--frob"], "explain"),
        (&["sweep", "--frob"], "sweep"),
        (&["trace", "--frob"], "trace"),
        (&["profile", "--frob"], "profile"),
        (&["obs", "snapshot", "--frob"], "obs snapshot"),
        (&["obs", "diff", "a.json", "b.json", "--frob"], "obs diff"),
        (&["check", "--frob"], "check"),
    ] {
        let (code, stderr) = dvh(args);
        assert_eq!(code, 2, "{args:?}: {stderr}");
        assert!(
            stderr.starts_with(&format!("error: unknown flag '--frob' for {sub}\n")),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn stray_arguments_are_rejected() {
    let (code, stderr) = dvh(&["micro", "3"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.starts_with("error: unexpected argument '3' for micro"));
}

#[test]
fn subcommand_help_prints_usage_without_running() {
    for args in [
        &["sweep", "--help"][..],
        &["micro", "--help"],
        &["check", "-h"],
        &["obs", "snapshot", "--help"],
        &["obs", "--help"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_dvh"))
            .args(args)
            .output()
            .expect("dvh binary runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        assert!(stdout.starts_with("dvh — "), "{args:?}: {stdout}");
        assert!(stdout.contains("USAGE:"), "{args:?}: {stdout}");
    }
}

#[test]
fn closed_stdout_ends_quietly() {
    // Far more output than a pipe buffers, so writes fail once the
    // reader has gone.
    let mut child = Command::new(env!("CARGO_BIN_EXE_dvh"))
        .args(["trace", "--app", "rr", "--txns", "40"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("dvh binary runs");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped"))
        .read_line(&mut first)
        .expect("one line");
    assert!(!first.is_empty());
    let out = child.wait_with_output().expect("dvh exits");
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(String::from_utf8_lossy(&out.stderr), "");
}

#[test]
fn the_deepest_accepted_level_runs() {
    let level = dvh_hypervisor::MAX_LEVELS.to_string();
    let (code, stderr) = dvh(&["micro", "--level", &level, "--iters", "1"]);
    assert_eq!(code, 0, "{stderr}");
}
