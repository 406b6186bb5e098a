//! The `dvh` binary rejects out-of-range numeric flags and flags a
//! subcommand does not know at parse time: exit code 2, a one-line
//! message naming the flag and a one-line hint, never a panic (exit
//! 101) and never a silent default. `<command> --help` prints that
//! command's usage, and a reader that closes the pipe early ends the
//! command quietly.

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

/// Asserts `args` fail to parse: exit 2, and stderr is exactly two
/// lines, the error starting `error: {start}` and the usage hint.
fn assert_parse_error(args: &[&str], start: &str) {
    let (code, stderr) = dvh(args);
    assert_eq!(code, 2, "{args:?}: {stderr}");
    let lines: Vec<&str> = stderr.lines().collect();
    let [error, hint] = lines[..] else {
        panic!("{args:?}: {stderr}")
    };
    assert!(error.starts_with(&format!("error: {start}")), "{stderr}");
    assert!(hint.starts_with("run 'dvh ") && hint.ends_with("' for usage"));
}

fn assert_rejected(args: &[&str], flag: &str) {
    assert_parse_error(args, &format!("{flag} must"));
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
    for spec in dvh_cli::args::COMMANDS {
        let (sub, args) = (spec.name, spec.name.split(' ').chain(["--frob"]));
        let (code, stderr) = dvh(&args.collect::<Vec<_>>());
        assert_eq!(code, 2, "{sub}: {stderr}");
        let hint = format!("run 'dvh {sub} --help' for usage");
        assert_eq!(
            stderr,
            format!("error: unknown flag '--frob' for {sub}\n{hint}\n")
        );
    }
}

#[test]
fn stray_arguments_are_rejected() {
    assert_parse_error(&["micro", "3"], "unexpected argument '3' for micro");
}

#[test]
fn contradictions_and_unknown_words_are_rejected_at_parse_time() {
    for (line, start) in [
        ("explain --op frob", "unknown op 'frob'"),
        ("trace --op frob", "unknown op 'frob'"),
        ("trace --app rr --op timer", "--op and --app exclude"),
        ("trace --op timer --txns 7", "--txns applies only"),
        ("profile --txns 7", "--txns applies only"),
        ("obs snapshot --txns 7", "--txns applies only"),
        ("micro --level 2 --level 3", "--level given twice"),
        ("apps --csv --csv", "--csv given twice"),
        ("check --no-source --source-root /x", "--no-source and"),
        ("results", "results requires at least one file"),
        ("frobnicate", "unknown command 'frobnicate'"),
        ("obs", "obs requires a subcommand"),
        ("sweep --figure 11", "unknown figure '11'"),
        ("repro fig11", "unknown artifact 'fig11'"),
        ("repro", "repro requires an artifact"),
        ("repro fig7 fig8", "unexpected argument 'fig8' for repro"),
    ] {
        assert_parse_error(&line.split(' ').collect::<Vec<_>>(), start);
    }
}

/// The help `args` print: exit 0, on stdout.
fn help_of(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_dvh"))
        .args(args)
        .output()
        .expect("dvh binary runs");
    assert_eq!(out.status.code(), Some(0), "{args:?}");
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn subcommand_help_prints_usage_without_running() {
    for spec in dvh_cli::args::COMMANDS {
        let args: Vec<&str> = spec.name.split(' ').chain(["--help"]).collect();
        let help = help_of(&args);
        // Only this command's section.
        assert!(help.starts_with(&format!("dvh {} ", spec.name)), "{help}");
        assert!(!help.contains("\ndvh "), "{help}");
    }
    let obs = help_of(&["obs", "-h"]);
    assert!(obs.starts_with("dvh obs snapshot ") && obs.contains("\ndvh obs diff "));
    assert!(!obs.contains("dvh micro"), "{obs}");
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

#[test]
fn check_outside_a_checkout_names_the_missing_path() {
    // From a directory with no `crates/`, the default `--source-root .`
    // has nothing to lint: fail naming the path, instead of running
    // every pass and then discarding their results.
    let dir = std::env::temp_dir().join(format!("dvh-no-checkout-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    // The working directory as the binary sees it, symlinks resolved.
    let cwd = std::fs::canonicalize(&dir).expect("temp dir resolves");
    let out = Command::new(env!("CARGO_BIN_EXE_dvh"))
        .arg("check")
        .current_dir(&cwd)
        .output()
        .expect("dvh binary runs");
    std::fs::remove_dir_all(&dir).expect("temp dir removed");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    let [line] = stderr.lines().collect::<Vec<_>>()[..] else {
        panic!("{stderr}")
    };
    assert!(
        line.contains(&cwd.join("crates").display().to_string()),
        "{line}"
    );
    assert!(line.contains("--source-root DIR") && line.contains("--no-source"));
    assert!(out.stdout.is_empty());
}
