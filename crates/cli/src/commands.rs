//! Command implementations for the `dvh` binary.

use crate::args::{Command, Op, ProfileFormat, Target, TraceFormat, Workload};
use crate::results::{to_csv, ResultFile};
use dvh_bench::repro;
use dvh_core::analysis::{attribution, render_table};
use dvh_core::Machine;
use dvh_hypervisor::trace::TRACE_CAPACITY;
use dvh_hypervisor::trace_export;
use dvh_migration::{migrate_nested_vm, MigrationConfig};
use dvh_obs::causal::render_multiplication;
use dvh_obs::percentiles::{exit_percentiles, render_percentiles};
use dvh_workloads::{run_app, run_micro, AppId};
use std::io::{self, Write};

/// Executes a parsed command, writing human or CSV output to `out`.
/// A reader that goes away early (`dvh profile | head -3`) ends the
/// command quietly: the output nobody reads is not an error.
///
/// # Errors
///
/// Returns a message for I/O failures or unusable inputs (e.g. a
/// non-migratable configuration).
pub fn execute(cmd: Command, out: &mut dyn Write) -> Result<(), String> {
    let mut out = PipeWatch {
        inner: out,
        closed: false,
    };
    match run(cmd, &mut out) {
        Err(_) if out.closed => Ok(()),
        result => result,
    }
}

/// Passes writes through and notes whether the reader closed the pipe.
struct PipeWatch<'a> {
    inner: &'a mut dyn Write,
    closed: bool,
}

impl PipeWatch<'_> {
    fn note<T>(&mut self, result: io::Result<T>) -> io::Result<T> {
        if matches!(&result, Err(e) if e.kind() == io::ErrorKind::BrokenPipe) {
            self.closed = true;
        }
        result
    }
}

impl Write for PipeWatch<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let result = self.inner.write(buf);
        self.note(result)
    }

    fn flush(&mut self) -> io::Result<()> {
        let result = self.inner.flush();
        self.note(result)
    }
}

fn run(cmd: Command, out: &mut dyn Write) -> Result<(), String> {
    let w = |out: &mut dyn Write, s: String| out.write_all(s.as_bytes()).map_err(|e| e.to_string());
    match cmd {
        Command::Help(topic) => w(out, crate::args::help(topic)),
        Command::Micro {
            level,
            config,
            iters,
            csv,
        } => {
            let mut m = Machine::build(config.machine_config(level));
            let r = run_micro(&mut m, iters);
            if csv {
                w(
                    out,
                    format!(
                        "benchmark,level,config,cycles\nhypercall,{level},{config},{}\n\
                         devnotify,{level},{config},{}\nprogramtimer,{level},{config},{}\n\
                         sendipi,{level},{config},{}\n",
                        r.hypercall, r.dev_notify, r.program_timer, r.send_ipi
                    ),
                )
            } else {
                w(
                    out,
                    format!(
                        "L{level} {config} microbenchmarks (cycles):\n\
                          Hypercall:    {:>9}\n  DevNotify:    {:>9}\n\
                          ProgramTimer: {:>9}\n  SendIPI:      {:>9}\n",
                        r.hypercall, r.dev_notify, r.program_timer, r.send_ipi
                    ),
                )
            }
        }
        Command::App {
            app,
            level,
            config,
            runs,
            txns,
            csv,
        } => {
            let mix = app.mix();
            // Artifact style: several independent runs, each a column.
            let samples: Vec<Vec<f64>> = (0..3)
                .map(|chunk| {
                    (0..runs)
                        .map(|_| {
                            let mut m = Machine::build(config.machine_config(level));
                            // Different chunks use different txn counts
                            // so per-run variation is visible (the
                            // simulator itself is deterministic).
                            run_app(&mut m, &mix, txns + chunk * 16).overhead
                        })
                        .collect()
                })
                .collect();
            if csv {
                w(out, to_csv(mix.name, &samples))
            } else {
                let flat = samples[0][0];
                w(
                    out,
                    format!(
                        "{} at L{level} ({config}): overhead {:.2}x vs native ({})\n",
                        mix.name,
                        flat,
                        app.native_baseline()
                    ),
                )
            }
        }
        Command::Apps {
            level,
            config,
            txns,
            csv,
        } => {
            if csv {
                w(out, "app,level,config,overhead\n".to_string())?;
            }
            for app in AppId::ALL {
                let mix = app.mix();
                let mut m = Machine::build(config.machine_config(level));
                let r = run_app(&mut m, &mix, txns);
                if csv {
                    w(
                        out,
                        format!("{},{level},{config},{:.4}\n", mix.name, r.overhead),
                    )?;
                } else {
                    w(out, format!("{:<16} {:>6.2}x\n", mix.name, r.overhead))?;
                }
            }
            Ok(())
        }
        Command::Migrate {
            config,
            with_hypervisor,
        } => {
            let mut m = Machine::build(config.machine_config(2));
            for i in 0..32u64 {
                m.world_mut().guest_write_memory(
                    0,
                    dvh_memory::Gpa::from_pfn(dvh_hypervisor::world::LEAF_BUF_BASE_PFN + i % 60),
                    &[i as u8; 128],
                );
            }
            let cfg = MigrationConfig {
                include_guest_hypervisor: with_hypervisor,
                ..MigrationConfig::default()
            };
            match migrate_nested_vm(m.world_mut(), cfg, |_| {}) {
                Ok(r) => w(
                    out,
                    format!(
                        "migrated: {} pages in {:.3} s, downtime {:.2} ms, verified: {}\n",
                        r.total_pages,
                        r.total_time.as_secs_f64(),
                        r.downtime.as_secs_f64() * 1e3,
                        r.verified
                    ),
                ),
                Err(e) => Err(format!("migration failed: {e}")),
            }
        }
        Command::Trace { target, format } => {
            let obs = observe_workload(target);
            if obs.dropped > 0 {
                return Err(truncated(obs.dropped));
            }
            match format {
                TraceFormat::Text => {
                    for e in &obs.events {
                        w(out, format!("{e}\n"))?;
                    }
                    Ok(())
                }
                TraceFormat::Chrome => {
                    w(
                        out,
                        trace_export::chrome_json(&obs.events, obs.num_cpus, target.level),
                    )?;
                    w(out, "\n".to_string())
                }
                TraceFormat::Jsonl => w(out, trace_export::jsonl(&obs.events)),
            }
        }
        Command::Profile {
            target,
            top,
            snapshot,
            format,
        } => {
            let obs = observe_workload(target);
            let forest = obs.forest()?;
            match format {
                ProfileFormat::Folded => {
                    // Pure folded-stack lines, pipeable straight into a
                    // flamegraph renderer — no header, no footer.
                    w(out, forest.folded())
                }
                ProfileFormat::Table => {
                    w(out, obs.header)?;
                    let mut rows = attribution(&obs.stats);
                    rows.truncate(top);
                    w(out, render_table(&rows))?;
                    let rows = exit_percentiles(&obs.reg);
                    if !rows.is_empty() {
                        w(out, "\noutermost-exit latency (cycles):\n".to_string())?;
                        w(out, render_percentiles(&rows))?;
                    }
                    let factors = forest.multiplication_factors();
                    if !factors.is_empty() {
                        w(
                            out,
                            "\nexit multiplication (from the causal tree):\n".to_string(),
                        )?;
                        w(out, render_multiplication(&factors))?;
                    }
                    if snapshot {
                        w(out, "\n".to_string())?;
                        w(out, obs.reg.snapshot())?;
                    }
                    Ok(())
                }
            }
        }
        Command::ObsSnapshot {
            target,
            out: out_path,
            prom,
        } => {
            let obs = observe_workload(target);
            let text = if prom {
                dvh_obs::prom::prometheus(&obs.reg)
            } else {
                let workload = match target.workload {
                    Workload::Op(op) => op.to_string(),
                    Workload::App { app, .. } => app.mix().name.to_string(),
                };
                let workload = format!("{workload}@L{}/{}", target.level, target.config);
                let mut s = dvh_obs::diff::snapshot_json(&obs.reg, &workload);
                s.push('\n');
                s
            };
            match out_path {
                Some(path) => {
                    std::fs::write(&path, &text).map_err(|e| format!("{path}: {e}"))?;
                    w(out, format!("wrote {path}\n"))
                }
                None => w(out, text),
            }
        }
        Command::ObsDiff {
            baseline,
            current,
            threshold,
            json,
        } => {
            let load = |path: &str| -> Result<dvh_obs::json::Value, String> {
                let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                dvh_obs::json::parse(&text).map_err(|e| format!("{path}: {e}"))
            };
            let base = load(&baseline)?;
            let cur = load(&current)?;
            let report = dvh_obs::diff::diff(&base, &cur, dvh_obs::diff::DiffConfig { threshold })?;
            if json {
                let mut s = report.to_json().to_json();
                s.push('\n');
                w(out, s)?;
            } else {
                w(out, report.to_text())?;
            }
            let regressed = report.regressions().len();
            if regressed == 0 {
                Ok(())
            } else {
                Err(format!(
                    "{regressed} metric(s) regressed beyond {:.0}%",
                    threshold * 100.0
                ))
            }
        }
        Command::Explain { op, level, config } => {
            let mut m = Machine::build(config.machine_config(level));
            let cost = run_named_op(&mut m, op);
            w(
                out,
                format!(
                    "{op} at L{level} ({config}): {cost}
{}",
                    dvh_core::analysis::explain(m.world())
                ),
            )
        }
        Command::Sweep { figure, workers } => {
            let workers = if workers == 0 {
                dvh_bench::parallel::available_workers()
            } else {
                workers
            };
            let fig = dvh_bench::harness::figure_with_workers(figure, workers)
                .expect("validated at parse time");
            w(out, fig.to_csv())
        }
        Command::Repro { artifact } => {
            let row = repro::ARTIFACTS.iter().find(|a| a.name == artifact);
            let eval = repro::Evaluation::new(dvh_bench::parallel::available_workers());
            let render = row.expect("validated at parse time").render;
            render(&eval, out).map_err(|e| e.to_string())
        }
        Command::Check { source_root } => {
            check(source_root, dvh_checker::harness::run_invariants, out)
        }
        Command::Results { files } => {
            for path in files {
                let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
                let r = ResultFile::parse(&text).map_err(|e| format!("{path}: {e}"))?;
                let avgs: Vec<String> =
                    r.run_averages().iter().map(|a| format!("{a:.2}")).collect();
                w(
                    out,
                    format!(
                        "{}: {} runs, per-run averages [{}], best(max) {:.2}, best(min) {:.2}\n",
                        r.name,
                        r.runs(),
                        avgs.join(", "),
                        r.best(true),
                        r.best(false)
                    ),
                )?;
            }
            Ok(())
        }
    }
}

/// The error for output derived from a trace the bounded buffer
/// truncated: whatever it printed would silently miss exits.
fn truncated(dropped: u64) -> String {
    format!(
        "the trace buffer ({TRACE_CAPACITY} events) dropped {dropped} events; \
         output derived from the trace would be incomplete"
    )
}

/// A workload run with the full observability stack armed: the trace
/// events and how many of them the buffer dropped, the metrics
/// registry (device metrics exported), the run's ledger, and a
/// one-line header describing what ran.
struct Observed {
    header: String,
    events: Vec<dvh_hypervisor::TraceEvent>,
    dropped: u64,
    num_cpus: usize,
    reg: dvh_obs::MetricsRegistry,
    stats: dvh_core::RunStats,
}

impl Observed {
    /// The causal forest of the run's trace, refused when the trace is
    /// truncated or any exit could not be placed in a tree.
    fn forest(&self) -> Result<dvh_obs::causal::Forest, String> {
        let forest = trace_export::causal_forest(&self.events, self.num_cpus);
        match (self.dropped, forest.incomplete) {
            (0, 0) => Ok(forest),
            (0, n) => Err(format!(
                "{n} trace exits could not be placed in a causal tree"
            )),
            (dropped, _) => Err(truncated(dropped)),
        }
    }
}

/// Runs the trace/profile/obs-snapshot workload (one named op, or a full
/// application benchmark) on a fresh machine with tracing and metrics
/// on. Observability never advances simulated time, so the reported
/// costs and overheads are identical to an unobserved run.
fn observe_workload(target: Target) -> Observed {
    let Target {
        workload,
        level,
        config,
    } = target;
    let mut m = Machine::build(config.machine_config(level));
    m.world_mut().enable_observability(TRACE_CAPACITY);
    let header = match workload {
        Workload::App { app, txns } => {
            let overhead = run_app(&mut m, &app.mix(), txns).overhead;
            format!(
                "{} at L{level} ({config}): overhead {overhead:.2}x vs native\n",
                app.mix().name
            )
        }
        Workload::Op(op) => {
            let cost = run_named_op(&mut m, op);
            format!("{op} at L{level} ({config}): {cost}\n")
        }
    };
    let w = m.world_mut();
    w.export_device_metrics();
    let dropped = w.trace_dropped();
    let events = w.take_trace();
    let num_cpus = w.num_cpus();
    let reg = w.take_metrics().unwrap_or_default();
    Observed {
        header,
        events,
        dropped,
        num_cpus,
        reg,
        stats: w.stats.clone(),
    }
}

/// `dvh check`: the source lint over `source_root`, if given, and the
/// invariant passes `invariants` runs.
fn check(
    source_root: Option<String>,
    invariants: impl FnOnce() -> dvh_checker::Report,
    out: &mut dyn Write,
) -> Result<(), String> {
    let root = source_root.map(std::path::PathBuf::from);
    let report = dvh_checker::harness::run_all(root.as_deref(), invariants).map_err(|e| {
        format!("source lint failed: {e}; pass --source-root DIR (a checkout) or --no-source")
    })?;
    out.write_all(report.to_string().as_bytes())
        .map_err(|e| e.to_string())?;
    if report.is_clean() {
        Ok(())
    } else {
        Err(format!(
            "{} invariant violation(s)",
            report.violations.len()
        ))
    }
}

fn run_named_op(m: &mut Machine, op: Op) -> dvh_core::Cycles {
    match op {
        Op::Hypercall => m.hypercall(0),
        Op::Timer => m.program_timer(0),
        Op::Ipi => m.send_ipi(0, 1),
        Op::Devnotify => m.device_notify(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses and runs one `dvh` command line.
    fn dvh(line: &str) -> Result<String, String> {
        let args: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        let mut out = Vec::new();
        execute(
            crate::args::parse(&args).expect("valid command line"),
            &mut out,
        )?;
        Ok(String::from_utf8(out).expect("UTF-8 output"))
    }

    /// Runs a `dvh check` command line. The invariant passes run once
    /// for every test that calls this.
    fn dvh_check(line: &str) -> Result<String, String> {
        static INVARIANTS: std::sync::OnceLock<dvh_checker::Report> = std::sync::OnceLock::new();
        let args: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        let Ok(Command::Check { source_root }) = crate::args::parse(&args) else {
            panic!("not a valid check command line: {line}");
        };
        let invariants = || {
            INVARIANTS
                .get_or_init(dvh_checker::harness::run_invariants)
                .clone()
        };
        let mut out = Vec::new();
        check(source_root, invariants, &mut out)?;
        Ok(String::from_utf8(out).expect("UTF-8 output"))
    }

    #[test]
    fn check_command_is_clean_without_sources() {
        let out = dvh_check("check --no-source").unwrap();
        assert!(out.contains("all invariants hold"), "{out}");
        assert!(out.contains("fig7/nested-dvh"));
        assert!(!out.contains("source lint"));
    }

    #[test]
    fn check_command_runs_source_lint_on_repo() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let out = dvh_check(&format!("check --source-root {root}")).unwrap();
        assert!(out.contains("all invariants hold"), "{out}");
        assert!(out.contains("fig7/nested-dvh"), "{out}");
        assert!(out.contains("source lint"), "{out}");
    }

    #[test]
    fn micro_command_produces_table() {
        let out = dvh("micro --level 1 --iters 2").unwrap();
        assert!(out.contains("Hypercall"));
        assert!(out.contains("L1 base"));
    }

    #[test]
    fn micro_csv_has_four_rows() {
        let out = dvh("micro --config dvh --iters 1 --csv").unwrap();
        assert_eq!(out.lines().count(), 5); // header + 4 benchmarks
        assert!(out.contains("programtimer,2,dvh,"));
    }

    #[test]
    fn app_csv_round_trips_through_results_parser() {
        let out = dvh("app --name hackbench --runs 2 --txns 40 --csv").unwrap();
        let parsed = ResultFile::parse(&out).unwrap();
        assert_eq!(parsed.name, "Hackbench");
        assert_eq!(parsed.runs(), 2);
        assert!(parsed.best(false) >= 1.0);
    }

    #[test]
    fn apps_lists_all_seven() {
        assert_eq!(dvh("apps --level 1 --txns 40").unwrap().lines().count(), 7);
    }

    #[test]
    fn migrate_passthrough_fails_cleanly() {
        assert!(dvh("migrate --config pt")
            .unwrap_err()
            .contains("passthrough"));
    }

    #[test]
    fn migrate_dvh_succeeds() {
        assert!(dvh("migrate --config dvh")
            .unwrap()
            .contains("verified: true"));
    }

    #[test]
    fn explain_shows_attribution() {
        let out = dvh("explain --op timer").unwrap();
        assert!(out.contains("interventions"));
        assert!(out.contains("MsrWrite"));
    }

    #[test]
    fn explain_reaches_the_deepest_level_unobserved() {
        // Without exit summaries this would take about 24^11 exits; CI
        // greps the same row from the release binary under a timeout.
        let out = dvh("explain --op hypercall --level 11 --config base").unwrap();
        assert!(
            out.lines().any(|l| {
                let mut cols = l.split_whitespace();
                cols.next() == Some("L11") && cols.next() == Some("Vmcall")
            }),
            "{out}"
        );
    }

    #[test]
    fn explain_rows_equal_profile_rows_for_every_op() {
        // `dvh explain` runs unobserved and so replays exit summaries;
        // `dvh profile` observes and so takes the full recursion. At L3
        // the summaries stand in for whole L1 and L2 handlers, so equal
        // rows are a row-level differential of the summary fast path.
        use crate::args::CliConfig;
        for level in [2, 3] {
            for config in [
                CliConfig::Base,
                CliConfig::Passthrough,
                CliConfig::DvhVp,
                CliConfig::Dvh,
            ] {
                for op in [Op::Hypercall, Op::Timer, Op::Ipi, Op::Devnotify] {
                    let mut m = Machine::build(config.machine_config(level));
                    run_named_op(&mut m, op);
                    let explained = dvh_core::analysis::explain(m.world()).rows;
                    let target = Target {
                        workload: Workload::Op(op),
                        level,
                        config,
                    };
                    let profiled = attribution(&observe_workload(target).stats);
                    assert_eq!(explained, profiled, "{op} at L{level} ({config})");
                }
            }
        }
    }

    #[test]
    fn trace_lists_events() {
        let out = dvh("trace").unwrap();
        assert!(out.lines().count() > 10);
        assert!(out.contains("exit L2 MsrWrite"));
    }

    #[test]
    fn trace_chrome_round_trips_through_parser() {
        let out = dvh("trace --format chrome").unwrap();
        let doc = dvh_obs::json::parse(out.trim_end()).expect("chrome export must parse");
        assert_eq!(doc.to_json(), out.trim_end());
        let spans = trace_export::chrome_outermost_totals(&doc);
        assert!(!spans.is_empty());
    }

    #[test]
    fn trace_jsonl_lines_parse() {
        let out = dvh("trace --format jsonl").unwrap();
        assert!(out.lines().count() > 10);
        for line in out.lines() {
            dvh_obs::json::parse(line).expect("every jsonl line must parse");
        }
    }

    #[test]
    fn trace_app_runs_a_benchmark() {
        assert!(dvh("trace --app rr --txns 5").unwrap().lines().count() > 50);
    }

    #[test]
    fn profile_op_shows_attribution_table() {
        let out = dvh("profile --op timer").unwrap();
        assert!(out.contains("timer at L2 (base)"), "{out}");
        assert!(out.contains("MsrWrite"), "{out}");
        assert!(out.contains("total"), "{out}");
        // The table now carries the derived views too: latency
        // percentiles and the emergent multiplication factors.
        assert!(out.contains("p99"), "{out}");
        assert!(out.contains("exit multiplication"), "{out}");
    }

    #[test]
    fn profile_folded_is_flamegraph_ready() {
        let out = dvh("profile --format folded").unwrap();
        assert!(!out.is_empty());
        for line in out.lines() {
            // Every line is `path cycles` with a numeric tail and a
            // root frame naming a level.
            let (path, cycles) = line.rsplit_once(' ').expect("folded line shape");
            assert!(cycles.parse::<u64>().is_ok(), "{line}");
            assert!(path.starts_with('L'), "{line}");
        }
        // Nested config: some stack has depth > 1.
        assert!(out.lines().any(|l| l.contains(';')), "{out}");
    }

    #[test]
    fn obs_snapshot_self_diff_is_clean() {
        let dir = std::env::temp_dir().join("dvh-obs-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json").to_string_lossy().into_owned();
        dvh(&format!("obs snapshot --out {path}")).unwrap();
        let first = std::fs::read_to_string(&path).unwrap();
        dvh(&format!("obs snapshot --out {path}")).unwrap();
        let second = std::fs::read_to_string(&path).unwrap();
        assert_eq!(first, second, "snapshots must be deterministic");
        let out = dvh(&format!("obs diff {path} {path}")).unwrap();
        assert!(out.contains("0 regression(s)"), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn obs_snapshot_prom_exports_histograms() {
        let out = dvh("obs snapshot --prom").unwrap();
        assert!(out.contains("# TYPE dvh_exit_cycles histogram"), "{out}");
        assert!(out.contains("le=\"+Inf\""), "{out}");
    }

    #[test]
    fn obs_diff_flags_missing_file() {
        assert!(dvh("obs diff /nonexistent/base.json /nonexistent/cur.json").is_err());
    }

    #[test]
    fn profile_app_with_snapshot_is_deterministic() {
        let line = "profile --app rr --txns 10 --config dvh --top 5 --snapshot";
        let out = dvh(line).unwrap();
        assert!(out.contains("Netperf RR at L2 (dvh)"), "{out}");
        assert!(out.contains("histogram"), "{out}");
        assert_eq!(
            out,
            dvh(line).unwrap(),
            "profile output must be deterministic"
        );
    }

    /// A reader that has gone away, as `head` does after its lines.
    struct Closed(io::ErrorKind);

    impl Write for Closed {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(self.0.into())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn broken_pipe_ends_quietly_but_other_write_errors_fail() {
        let help = || Command::Help(None);
        assert_eq!(
            execute(help(), &mut Closed(io::ErrorKind::BrokenPipe)),
            Ok(())
        );
        assert!(execute(help(), &mut Closed(io::ErrorKind::PermissionDenied)).is_err());
    }

    #[test]
    fn help_prints_usage() {
        let out = dvh("help").unwrap();
        for spec in crate::args::COMMANDS {
            assert!(
                out.contains(&format!("\ndvh {} ", spec.name)),
                "{}",
                spec.name
            );
        }
        let micro = dvh("micro --help").unwrap();
        assert!(micro.starts_with("dvh micro [flags]\n"), "{micro}");
        assert!(!micro.contains("dvh app"), "{micro}");
    }
}
