//! Argument parsing for the `dvh` binary (dependency-free, artifact
//! style: small fixed vocabulary).

use dvh_core::MachineConfig;
use dvh_hypervisor::MAX_LEVELS;
use dvh_workloads::AppId;
use std::fmt;

/// The VM configuration vocabulary of the paper's artifact
/// (`run-vm.py`'s second option): `base`, `passthrough`, `dvh-vp`,
/// `dvh`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CliConfig {
    /// Paravirtual I/O ("base" in the artifact).
    Base,
    /// Physical device passthrough.
    Passthrough,
    /// DVH virtual-passthrough only.
    DvhVp,
    /// Full DVH.
    Dvh,
}

impl CliConfig {
    /// Parses the artifact vocabulary.
    pub fn parse(s: &str) -> Result<CliConfig, ParseError> {
        match s {
            "base" => Ok(CliConfig::Base),
            "passthrough" | "pt" => Ok(CliConfig::Passthrough),
            "dvh-vp" => Ok(CliConfig::DvhVp),
            "dvh" => Ok(CliConfig::Dvh),
            other => Err(ParseError(format!(
                "unknown config '{other}' (expected base|passthrough|dvh-vp|dvh)"
            ))),
        }
    }

    /// Builds the machine configuration at `level`.
    pub fn machine_config(self, level: usize) -> MachineConfig {
        match self {
            CliConfig::Base => MachineConfig::baseline(level),
            CliConfig::Passthrough => MachineConfig::passthrough(level),
            CliConfig::DvhVp => MachineConfig::dvh_vp(level),
            CliConfig::Dvh => MachineConfig::dvh(level),
        }
    }
}

impl fmt::Display for CliConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CliConfig::Base => "base",
            CliConfig::Passthrough => "passthrough",
            CliConfig::DvhVp => "dvh-vp",
            CliConfig::Dvh => "dvh",
        };
        f.write_str(s)
    }
}

/// Output format for `dvh trace`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceFormat {
    /// One human-readable line per event (the default).
    #[default]
    Text,
    /// A Chrome trace-event JSON document (load in `about:tracing`
    /// or Perfetto; one process per simulated CPU, one thread track
    /// per virtualization level).
    Chrome,
    /// One JSON object per line.
    Jsonl,
}

impl TraceFormat {
    /// Parses `text`, `chrome`, or `jsonl`.
    pub fn parse(s: &str) -> Result<TraceFormat, ParseError> {
        match s {
            "text" => Ok(TraceFormat::Text),
            "chrome" => Ok(TraceFormat::Chrome),
            "jsonl" => Ok(TraceFormat::Jsonl),
            other => Err(ParseError(format!(
                "unknown trace format '{other}' (expected text|chrome|jsonl)"
            ))),
        }
    }
}

/// Output format for `dvh profile`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProfileFormat {
    /// The top-N attribution table plus latency percentiles (the
    /// default).
    #[default]
    Table,
    /// Folded-stack flamegraph lines rebuilt from the causal tree of
    /// every outermost exit (`flamegraph.pl`-compatible).
    Folded,
}

impl ProfileFormat {
    /// Parses `table` or `folded`.
    pub fn parse(s: &str) -> Result<ProfileFormat, ParseError> {
        match s {
            "table" => Ok(ProfileFormat::Table),
            "folded" => Ok(ProfileFormat::Folded),
            other => Err(ParseError(format!(
                "unknown profile format '{other}' (expected table|folded)"
            ))),
        }
    }
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run the Table 1 microbenchmarks.
    Micro {
        /// Virtualization level (1..).
        level: usize,
        /// VM configuration.
        config: CliConfig,
        /// Iterations to average.
        iters: u32,
        /// Emit CSV instead of a table.
        csv: bool,
    },
    /// Run one application benchmark.
    App {
        /// Which application.
        app: AppId,
        /// Virtualization level.
        level: usize,
        /// VM configuration.
        config: CliConfig,
        /// Independent runs (artifact style: take the best average).
        runs: u32,
        /// Transactions per run.
        txns: u32,
        /// Emit CSV.
        csv: bool,
    },
    /// Run all seven application benchmarks.
    Apps {
        /// Virtualization level.
        level: usize,
        /// VM configuration.
        config: CliConfig,
        /// Transactions per benchmark.
        txns: u32,
        /// Emit CSV.
        csv: bool,
    },
    /// Run the migration experiment.
    Migrate {
        /// VM configuration.
        config: CliConfig,
        /// Migrate the guest hypervisor along with the nested VM.
        with_hypervisor: bool,
    },
    /// Aggregate CSV result files (like the artifact's `results.py`).
    Results {
        /// Files to aggregate.
        files: Vec<String>,
    },
    /// Explain where one operation's cycles go (cost attribution).
    Explain {
        /// Operation: hypercall|timer|ipi|devnotify.
        op: String,
        /// Virtualization level.
        level: usize,
        /// VM configuration.
        config: CliConfig,
    },
    /// Regenerate a paper figure as CSV (7, 8, 9, or 10).
    Sweep {
        /// Figure number.
        figure: u32,
        /// Worker threads (0, the default when `--workers` is absent,
        /// means one per host core). The CSV is byte-identical at any
        /// worker count.
        workers: usize,
    },
    /// Dump the full event trace of one operation or application run.
    Trace {
        /// Operation: hypercall|timer|ipi|devnotify (ignored when
        /// `app` is given).
        op: String,
        /// Trace a full application benchmark instead of one
        /// operation.
        app: Option<AppId>,
        /// Transactions when tracing an application.
        txns: u32,
        /// Virtualization level.
        level: usize,
        /// VM configuration.
        config: CliConfig,
        /// Output format.
        format: TraceFormat,
    },
    /// Profile cycle attribution: top-N (level, reason) rows from the
    /// dvh-obs metrics registry.
    Profile {
        /// Operation: hypercall|timer|ipi|devnotify (ignored when
        /// `app` is given).
        op: String,
        /// Profile a full application benchmark instead of one
        /// operation.
        app: Option<AppId>,
        /// Transactions when profiling an application.
        txns: u32,
        /// Virtualization level.
        level: usize,
        /// VM configuration.
        config: CliConfig,
        /// Rows to show.
        top: usize,
        /// Also dump the deterministic full-registry snapshot.
        snapshot: bool,
        /// Output format.
        format: ProfileFormat,
    },
    /// Write (or print) an observability snapshot document for
    /// later differential analysis.
    ObsSnapshot {
        /// Operation: hypercall|timer|ipi|devnotify (ignored when
        /// `app` is given).
        op: String,
        /// Snapshot a full application benchmark instead of one
        /// operation.
        app: Option<AppId>,
        /// Transactions when snapshotting an application.
        txns: u32,
        /// Virtualization level.
        level: usize,
        /// VM configuration.
        config: CliConfig,
        /// Where to write the JSON (`None` = stdout).
        out: Option<String>,
        /// Emit Prometheus text exposition format instead of the
        /// snapshot JSON.
        prom: bool,
    },
    /// Compare two observability snapshots with per-metric relative
    /// thresholds.
    ObsDiff {
        /// Baseline snapshot path.
        baseline: String,
        /// Current snapshot path.
        current: String,
        /// Regression threshold as a fraction (0.25 = 25%).
        threshold: f64,
        /// Emit the JSON report instead of text.
        json: bool,
    },
    /// Run the dvh-checker invariant passes.
    Check {
        /// Repo root for the source-lint pass; `None` skips it.
        source_root: Option<String>,
    },
    /// Print usage.
    Help,
}

/// A command-line parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ParseError {}

fn parse_app(s: &str) -> Result<AppId, ParseError> {
    Ok(match s.to_ascii_lowercase().as_str() {
        "netperf-rr" | "rr" => AppId::NetperfRr,
        "netperf-stream" | "stream" => AppId::NetperfStream,
        "netperf-maerts" | "maerts" => AppId::NetperfMaerts,
        "apache" => AppId::Apache,
        "memcached" => AppId::Memcached,
        "mysql" => AppId::Mysql,
        "hackbench" => AppId::Hackbench,
        other => {
            return Err(ParseError(format!(
                "unknown app '{other}' (expected rr|stream|maerts|apache|memcached|mysql|hackbench)"
            )))
        }
    })
}

/// Deepest `--level` an observed run accepts. Tracing and metrics
/// bypass exit summaries, so an observed run pays the full recursion,
/// about 24x more host time per level: one L6 operation takes about
/// half a second, one L6 netperf-RR transaction about three, and at L7
/// a single transaction takes over a minute.
pub const MAX_OBSERVED_LEVEL: usize = 6;

/// Every subcommand's vocabulary: its name, the flags that take a
/// value, the switches, and whether it takes file arguments. Anything
/// else on its command line is an error, never a silent default.
const SUBCOMMANDS: &[(&str, &[&str], &[&str], bool)] = &[
    (
        "micro",
        &["--level", "--config", "--iters"],
        &["--csv"],
        false,
    ),
    (
        "app",
        &["--name", "--level", "--config", "--runs", "--txns"],
        &["--csv"],
        false,
    ),
    (
        "apps",
        &["--level", "--config", "--txns"],
        &["--csv"],
        false,
    ),
    ("migrate", &["--config"], &["--with-hypervisor"], false),
    ("results", &[], &[], true),
    ("explain", &["--op", "--level", "--config"], &[], false),
    ("sweep", &["--figure", "--workers"], &[], false),
    (
        "trace",
        &["--op", "--app", "--txns", "--level", "--config", "--format"],
        &[],
        false,
    ),
    (
        "profile",
        &[
            "--op", "--app", "--txns", "--level", "--config", "--top", "--format",
        ],
        &["--snapshot"],
        false,
    ),
    (
        "obs snapshot",
        &["--op", "--app", "--txns", "--level", "--config", "--out"],
        &["--prom"],
        false,
    ),
    ("obs diff", &["--threshold"], &["--json"], true),
    ("check", &["--source-root"], &["--no-source"], false),
];

/// One subcommand's arguments, checked against its vocabulary.
struct Opts<'a> {
    values: Vec<(&'a str, &'a str)>,
    switches: Vec<&'a str>,
    files: Vec<&'a str>,
}

impl<'a> Opts<'a> {
    /// Sorts `rest` into flag values, switches and files for subcommand
    /// `sub`. Returns `None` when `--help`/`-h` asks for usage instead.
    fn strict(sub: &str, rest: &'a [String]) -> Result<Option<Opts<'a>>, ParseError> {
        let Some(&(_, values, switches, takes_files)) =
            SUBCOMMANDS.iter().find(|(name, ..)| *name == sub)
        else {
            return Err(ParseError(format!("unknown command '{sub}'")));
        };
        let mut opts = Opts {
            values: Vec::new(),
            switches: Vec::new(),
            files: Vec::new(),
        };
        let mut args = rest.iter().map(String::as_str);
        while let Some(arg) = args.next() {
            if values.contains(&arg) {
                let value = args
                    .next()
                    .ok_or_else(|| ParseError(format!("{arg} expects a value")))?;
                opts.values.push((arg, value));
            } else if switches.contains(&arg) {
                opts.switches.push(arg);
            } else if arg == "--help" || arg == "-h" {
                return Ok(None);
            } else if arg.starts_with('-') {
                return Err(ParseError(format!("unknown flag '{arg}' for {sub}")));
            } else if takes_files {
                opts.files.push(arg);
            } else {
                return Err(ParseError(format!("unexpected argument '{arg}' for {sub}")));
            }
        }
        Ok(Some(opts))
    }

    fn value_of(&self, flag: &str) -> Option<&'a str> {
        self.values
            .iter()
            .find(|(f, _)| *f == flag)
            .map(|(_, v)| *v)
    }

    fn has(&self, flag: &str) -> bool {
        self.switches.contains(&flag)
    }

    fn usize_of(&self, flag: &str, default: usize) -> Result<usize, ParseError> {
        match self.value_of(flag) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ParseError(format!("{flag} expects a number, got '{v}'"))),
        }
    }

    /// A count that must be at least 1 (`--txns`, `--iters`, `--runs`,
    /// `--workers`, `--figure`, `--top`): zero would divide by zero or
    /// silently measure nothing.
    fn count_of(&self, flag: &str, default: u32) -> Result<u32, ParseError> {
        let n = match self.value_of(flag) {
            None => default,
            Some(v) => v.parse().map_err(|_| {
                ParseError(format!(
                    "{flag} expects a number from 1 to {}, got '{v}'",
                    u32::MAX
                ))
            })?,
        };
        if n == 0 {
            return Err(ParseError(format!("{flag} must be at least 1, got 0")));
        }
        Ok(n)
    }

    /// `--level`: 1 up to [`MAX_LEVELS`], the deepest level whose cycle
    /// totals fit in 64 bits.
    fn level(&self) -> Result<usize, ParseError> {
        let level = self.usize_of("--level", 2)?;
        if level == 0 {
            return Err(ParseError("--level must be at least 1, got 0".into()));
        }
        if level > MAX_LEVELS {
            return Err(ParseError(format!(
                "--level must be at most {MAX_LEVELS}, got {level} (deeper \
                 nesting saturates the 64-bit cycle counters)"
            )));
        }
        Ok(level)
    }

    /// `--level` of an observed run (`trace`, `profile`, `obs
    /// snapshot`): at most [`MAX_OBSERVED_LEVEL`].
    fn observed_level(&self, sub: &str) -> Result<usize, ParseError> {
        let level = self.level()?;
        if level > MAX_OBSERVED_LEVEL {
            return Err(ParseError(format!(
                "--level must be at most {MAX_OBSERVED_LEVEL} for {sub}, got {level} \
                 (observed runs bypass exit summaries and run the full exit \
                 recursion, whose cost grows about 24x per level)"
            )));
        }
        Ok(level)
    }

    /// `--workers`: absent means one per host core (0); an explicit
    /// value must be at least 1.
    fn workers(&self) -> Result<usize, ParseError> {
        match self.value_of("--workers") {
            None => Ok(0),
            Some(_) => Ok(self.count_of("--workers", 1)? as usize),
        }
    }

    fn config(&self) -> Result<CliConfig, ParseError> {
        match self.value_of("--config") {
            None => Ok(CliConfig::Base),
            Some(v) => CliConfig::parse(v),
        }
    }

    fn op(&self) -> String {
        self.value_of("--op").unwrap_or("timer").to_string()
    }

    fn app(&self) -> Result<Option<AppId>, ParseError> {
        self.value_of("--app").map(parse_app).transpose()
    }
}

/// Parses a full argument vector (without the program name).
///
/// # Errors
///
/// Returns [`ParseError`] for unknown subcommands, flags, or values.
pub fn parse(args: &[String]) -> Result<Command, ParseError> {
    let Some(cmd) = args.first() else {
        return Ok(Command::Help);
    };
    let (sub, rest) = match cmd.as_str() {
        "help" | "--help" | "-h" => return Ok(Command::Help),
        "obs" => match args.get(1).map(String::as_str) {
            Some("snapshot") => ("obs snapshot", &args[2..]),
            Some("diff") => ("obs diff", &args[2..]),
            Some("--help" | "-h") => return Ok(Command::Help),
            Some(other) => {
                return Err(ParseError(format!(
                    "unknown obs subcommand '{other}' (expected snapshot|diff)"
                )))
            }
            None => {
                return Err(ParseError(
                    "obs requires a subcommand (snapshot|diff)".into(),
                ))
            }
        },
        other => (other, &args[1..]),
    };
    let Some(opts) = Opts::strict(sub, rest)? else {
        return Ok(Command::Help);
    };
    match sub {
        "micro" => Ok(Command::Micro {
            level: opts.level()?,
            config: opts.config()?,
            iters: opts.count_of("--iters", 10)?,
            csv: opts.has("--csv"),
        }),
        "app" => {
            let name = opts
                .value_of("--name")
                .ok_or_else(|| ParseError("app requires --name <benchmark>".into()))?;
            Ok(Command::App {
                app: parse_app(name)?,
                level: opts.level()?,
                config: opts.config()?,
                runs: opts.count_of("--runs", 3)?,
                txns: opts.count_of("--txns", 400)?,
                csv: opts.has("--csv"),
            })
        }
        "apps" => Ok(Command::Apps {
            level: opts.level()?,
            config: opts.config()?,
            txns: opts.count_of("--txns", 400)?,
            csv: opts.has("--csv"),
        }),
        "migrate" => Ok(Command::Migrate {
            config: opts.config()?,
            with_hypervisor: opts.has("--with-hypervisor"),
        }),
        "results" => Ok(Command::Results {
            files: opts.files.iter().map(|f| f.to_string()).collect(),
        }),
        "trace" => Ok(Command::Trace {
            op: opts.op(),
            app: opts.app()?,
            txns: opts.count_of("--txns", 40)?,
            level: opts.observed_level(sub)?,
            config: opts.config()?,
            format: match opts.value_of("--format") {
                None => TraceFormat::Text,
                Some(v) => TraceFormat::parse(v)?,
            },
        }),
        "profile" => Ok(Command::Profile {
            op: opts.op(),
            app: opts.app()?,
            txns: opts.count_of("--txns", 40)?,
            level: opts.observed_level(sub)?,
            config: opts.config()?,
            top: opts.count_of("--top", 10)? as usize,
            snapshot: opts.has("--snapshot"),
            format: match opts.value_of("--format") {
                None => ProfileFormat::Table,
                Some(v) => ProfileFormat::parse(v)?,
            },
        }),
        "obs snapshot" => Ok(Command::ObsSnapshot {
            op: opts.op(),
            app: opts.app()?,
            txns: opts.count_of("--txns", 40)?,
            level: opts.observed_level(sub)?,
            config: opts.config()?,
            out: opts.value_of("--out").map(str::to_string),
            prom: opts.has("--prom"),
        }),
        "obs diff" => {
            let [baseline, current] = opts.files[..] else {
                return Err(ParseError(
                    "obs diff requires exactly two files: <baseline.json> <current.json>".into(),
                ));
            };
            let threshold = match opts.value_of("--threshold") {
                None => 0.25,
                Some(v) => {
                    let pct: f64 = v.parse().map_err(|_| {
                        ParseError(format!("--threshold expects a number, got '{v}'"))
                    })?;
                    if !(0.0..=1000.0).contains(&pct) {
                        return Err(ParseError(format!(
                            "--threshold {pct} out of range (percent, 0..=1000)"
                        )));
                    }
                    pct / 100.0
                }
            };
            Ok(Command::ObsDiff {
                baseline: baseline.to_string(),
                current: current.to_string(),
                threshold,
                json: opts.has("--json"),
            })
        }
        "explain" => Ok(Command::Explain {
            op: opts.op(),
            level: opts.level()?,
            config: opts.config()?,
        }),
        "sweep" => {
            let figure = opts.count_of("--figure", 7)?;
            if ![7, 8, 9, 10].contains(&figure) {
                return Err(ParseError(format!(
                    "no figure {figure} (expected 7|8|9|10)"
                )));
            }
            Ok(Command::Sweep {
                figure,
                workers: opts.workers()?,
            })
        }
        "check" => Ok(Command::Check {
            source_root: if opts.has("--no-source") {
                None
            } else {
                Some(opts.value_of("--source-root").unwrap_or(".").to_string())
            },
        }),
        other => unreachable!("'{other}' is listed in SUBCOMMANDS"),
    }
}

/// The usage text.
pub const USAGE: &str = "\
dvh — DVH nested-virtualization simulator (ASPLOS 2020 reproduction)

USAGE:
  dvh micro   [--level N] [--config base|passthrough|dvh-vp|dvh] [--iters N] [--csv]
  dvh app     --name rr|stream|maerts|apache|memcached|mysql|hackbench
              [--level N] [--config ...] [--runs N] [--txns N] [--csv]
  dvh apps    [--level N] [--config ...] [--txns N] [--csv]
  dvh migrate [--config ...] [--with-hypervisor]
  dvh results <file.csv> ...
  dvh explain [--op hypercall|timer|ipi|devnotify] [--level N] [--config ...]
  dvh sweep   [--figure 7|8|9|10] [--workers N]
  dvh trace   [--op hypercall|timer|ipi|devnotify | --app NAME [--txns N]]
              [--level N] [--config ...] [--format text|chrome|jsonl]
  dvh profile [--op hypercall|timer|ipi|devnotify | --app NAME [--txns N]]
              [--level N] [--config ...] [--top N] [--snapshot]
              [--format table|folded]
  dvh obs snapshot [--op ... | --app NAME [--txns N]] [--level N] [--config ...]
              [--out FILE] [--prom]
  dvh obs diff <baseline.json> <current.json> [--threshold PCT] [--json]
  dvh check   [--source-root DIR] [--no-source]
  dvh help | <command> --help
";

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_micro_defaults() {
        let c = parse(&v(&["micro"])).unwrap();
        assert_eq!(
            c,
            Command::Micro {
                level: 2,
                config: CliConfig::Base,
                iters: 10,
                csv: false
            }
        );
    }

    #[test]
    fn parse_app_with_flags() {
        let c = parse(&v(&[
            "app", "--name", "apache", "--level", "3", "--config", "dvh-vp", "--runs", "5", "--csv",
        ]))
        .unwrap();
        match c {
            Command::App {
                app,
                level,
                config,
                runs,
                csv,
                ..
            } => {
                assert_eq!(app, dvh_workloads::AppId::Apache);
                assert_eq!(level, 3);
                assert_eq!(config, CliConfig::DvhVp);
                assert_eq!(runs, 5);
                assert!(csv);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unknown_command_errors() {
        assert!(parse(&v(&["frobnicate"])).is_err());
    }

    #[test]
    fn app_requires_name() {
        assert!(parse(&v(&["app"])).is_err());
    }

    #[test]
    fn bad_number_errors() {
        assert!(parse(&v(&["micro", "--level", "two"])).is_err());
    }

    #[test]
    fn config_vocabulary_round_trips() {
        for c in [
            CliConfig::Base,
            CliConfig::Passthrough,
            CliConfig::DvhVp,
            CliConfig::Dvh,
        ] {
            assert_eq!(CliConfig::parse(&c.to_string()).unwrap(), c);
        }
        assert!(CliConfig::parse("vmx").is_err());
    }

    #[test]
    fn all_app_aliases_parse() {
        for name in [
            "rr",
            "stream",
            "maerts",
            "apache",
            "memcached",
            "mysql",
            "hackbench",
            "netperf-rr",
        ] {
            assert!(parse_app(name).is_ok(), "{name}");
        }
    }

    #[test]
    fn parse_trace_formats_and_targets() {
        match parse(&v(&["trace", "--format", "chrome", "--app", "rr"])).unwrap() {
            Command::Trace {
                format, app, txns, ..
            } => {
                assert_eq!(format, TraceFormat::Chrome);
                assert_eq!(app, Some(dvh_workloads::AppId::NetperfRr));
                assert_eq!(txns, 40);
            }
            other => panic!("{other:?}"),
        }
        match parse(&v(&["trace"])).unwrap() {
            Command::Trace { format, app, .. } => {
                assert_eq!(format, TraceFormat::Text);
                assert_eq!(app, None);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&v(&["trace", "--format", "svg"])).is_err());
        assert!(parse(&v(&["trace", "--app", "frob"])).is_err());
    }

    #[test]
    fn parse_profile_defaults_and_flags() {
        match parse(&v(&["profile"])).unwrap() {
            Command::Profile {
                op, top, snapshot, ..
            } => {
                assert_eq!(op, "timer");
                assert_eq!(top, 10);
                assert!(!snapshot);
            }
            other => panic!("{other:?}"),
        }
        match parse(&v(&[
            "profile",
            "--app",
            "apache",
            "--top",
            "3",
            "--snapshot",
        ]))
        .unwrap()
        {
            Command::Profile {
                app, top, snapshot, ..
            } => {
                assert_eq!(app, Some(dvh_workloads::AppId::Apache));
                assert_eq!(top, 3);
                assert!(snapshot);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_profile_formats() {
        match parse(&v(&["profile", "--format", "folded", "--app", "rr"])).unwrap() {
            Command::Profile { format, app, .. } => {
                assert_eq!(format, ProfileFormat::Folded);
                assert_eq!(app, Some(dvh_workloads::AppId::NetperfRr));
            }
            other => panic!("{other:?}"),
        }
        match parse(&v(&["profile"])).unwrap() {
            Command::Profile { format, .. } => assert_eq!(format, ProfileFormat::Table),
            other => panic!("{other:?}"),
        }
        assert!(parse(&v(&["profile", "--format", "svg"])).is_err());
    }

    #[test]
    fn parse_obs_snapshot() {
        match parse(&v(&[
            "obs",
            "snapshot",
            "--app",
            "rr",
            "--txns",
            "25",
            "--out",
            "snap.json",
        ]))
        .unwrap()
        {
            Command::ObsSnapshot {
                app,
                txns,
                out,
                prom,
                ..
            } => {
                assert_eq!(app, Some(dvh_workloads::AppId::NetperfRr));
                assert_eq!(txns, 25);
                assert_eq!(out.as_deref(), Some("snap.json"));
                assert!(!prom);
            }
            other => panic!("{other:?}"),
        }
        match parse(&v(&["obs", "snapshot", "--prom"])).unwrap() {
            Command::ObsSnapshot { prom, .. } => assert!(prom),
            other => panic!("{other:?}"),
        }
        assert!(parse(&v(&["obs"])).is_err());
        assert!(parse(&v(&["obs", "frobnicate"])).is_err());
    }

    #[test]
    fn parse_obs_diff_is_strict() {
        assert_eq!(
            parse(&v(&["obs", "diff", "base.json", "cur.json"])).unwrap(),
            Command::ObsDiff {
                baseline: "base.json".into(),
                current: "cur.json".into(),
                threshold: 0.25,
                json: false,
            }
        );
        match parse(&v(&[
            "obs",
            "diff",
            "a.json",
            "b.json",
            "--threshold",
            "10",
            "--json",
        ]))
        .unwrap()
        {
            Command::ObsDiff {
                threshold, json, ..
            } => {
                assert!((threshold - 0.10).abs() < 1e-12);
                assert!(json);
            }
            other => panic!("{other:?}"),
        }
        // A CI gate rejects what it does not understand.
        assert!(parse(&v(&["obs", "diff", "a.json"])).is_err());
        assert!(parse(&v(&["obs", "diff", "a.json", "b.json", "c.json"])).is_err());
        assert!(parse(&v(&["obs", "diff", "a.json", "b.json", "--bogus"])).is_err());
        assert!(parse(&v(&["obs", "diff", "a.json", "b.json", "--threshold"])).is_err());
        assert!(parse(&v(&[
            "obs",
            "diff",
            "a.json",
            "b.json",
            "--threshold",
            "nope"
        ]))
        .is_err());
    }

    #[test]
    fn zero_counts_and_levels_are_rejected() {
        for args in [
            &["micro", "--level", "0"][..],
            &["micro", "--level", "12"],
            &["micro", "--iters", "0"],
            &["app", "--name", "rr", "--runs", "0"],
            &["app", "--name", "rr", "--txns", "0"],
            &["apps", "--txns", "0"],
            &["trace", "--txns", "0"],
            &["profile", "--txns", "0"],
            &["obs", "snapshot", "--txns", "0"],
            &["sweep", "--workers", "0"],
            &["micro", "--iters", "4294967296"],
            &["profile", "--top", "0"],
        ] {
            assert!(parse(&v(args)).is_err(), "{args:?}");
        }
        // Absent --workers still means one per host core.
        assert_eq!(
            parse(&v(&["sweep"])).unwrap(),
            Command::Sweep {
                figure: 7,
                workers: 0
            }
        );
        assert!(matches!(
            parse(&v(&["micro", "--level", "11"])).unwrap(),
            Command::Micro { level: 11, .. }
        ));
    }

    #[test]
    fn empty_args_is_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
    }

    #[test]
    fn parse_check_variants() {
        assert_eq!(
            parse(&v(&["check"])).unwrap(),
            Command::Check {
                source_root: Some(".".into())
            }
        );
        assert_eq!(
            parse(&v(&["check", "--source-root", "/tmp/repo"])).unwrap(),
            Command::Check {
                source_root: Some("/tmp/repo".into())
            }
        );
        assert_eq!(
            parse(&v(&["check", "--no-source"])).unwrap(),
            Command::Check { source_root: None }
        );
        // check is a CI gate: it rejects what it does not understand.
        assert!(parse(&v(&["check", "--bogus"])).is_err());
        assert!(parse(&v(&["check", "--source-root"])).is_err());
    }
}
