//! Argument parsing for the `dvh` binary (dependency-free, artifact
//! style: small fixed vocabulary).
//!
//! One table, [`COMMANDS`], holds every subcommand: its name, summary,
//! file arguments and flags (metavar, default, help), and the function
//! that builds its [`Command`]. Parsing, `dvh help`, `dvh <command>
//! --help` and the parse errors all come from that table, and each
//! closed vocabulary (config, app, op, format, figure) is one [`Vocab`].

use dvh_core::MachineConfig;
use dvh_hypervisor::MAX_LEVELS;
use dvh_workloads::AppId;
use std::fmt;

/// A closed vocabulary: every accepted word with its value, matched
/// ignoring ASCII case. A value's first word is its name; later words
/// for the same value are aliases.
pub struct Vocab<T: 'static> {
    what: &'static str,
    words: &'static [(&'static str, T)],
}

impl<T: Copy + PartialEq> Vocab<T> {
    /// The value `word` names.
    ///
    /// # Errors
    ///
    /// Names the unknown word and the alternatives.
    pub fn parse(&self, word: &str) -> Result<T, ParseError> {
        let found = self
            .words
            .iter()
            .find(|(w, _)| w.eq_ignore_ascii_case(word));
        found.map(|&(_, v)| v).ok_or_else(|| {
            let (what, expected) = (self.what, self.alternatives());
            ParseError::new(format!("unknown {what} '{word}' (expected {expected})"))
        })
    }

    /// The name of `value`.
    pub fn name(&self, value: T) -> &'static str {
        let found = self.words.iter().find(|(_, v)| *v == value);
        found.map_or("", |(w, _)| w)
    }
}

/// A vocabulary without its value type, as a flag's help shows it.
trait Choices {
    /// The names, without aliases: `a|b|c`.
    fn alternatives(&self) -> String;
}

impl<T: Copy + PartialEq> Choices for Vocab<T> {
    fn alternatives(&self) -> String {
        let names = self.words.iter().filter(|&&(w, v)| self.name(v) == w);
        names.map(|(w, _)| *w).collect::<Vec<_>>().join("|")
    }
}

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
    /// The configuration words.
    pub const VOCAB: Vocab<CliConfig> = Vocab {
        what: "config",
        words: &[
            ("base", CliConfig::Base),
            ("passthrough", CliConfig::Passthrough),
            ("dvh-vp", CliConfig::DvhVp),
            ("dvh", CliConfig::Dvh),
            ("pt", CliConfig::Passthrough),
        ],
    };

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

/// One guest operation, as `explain`, `trace`, `profile` and `obs
/// snapshot` run it on vCPU 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// A hypercall.
    Hypercall,
    /// Programming the TSC-deadline timer.
    Timer,
    /// An IPI to vCPU 1.
    Ipi,
    /// A virtio doorbell.
    Devnotify,
}

impl Op {
    /// The operation words.
    pub const VOCAB: Vocab<Op> = Vocab {
        what: "op",
        words: &[
            ("hypercall", Op::Hypercall),
            ("timer", Op::Timer),
            ("ipi", Op::Ipi),
            ("devnotify", Op::Devnotify),
        ],
    };
}

/// Output format for `dvh trace`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// One human-readable line per event.
    Text,
    /// A Chrome trace-event JSON document (load in `about:tracing`
    /// or Perfetto; one process per simulated CPU, one thread track
    /// per virtualization level).
    Chrome,
    /// One JSON object per line.
    Jsonl,
}

impl TraceFormat {
    /// The trace format words.
    pub const VOCAB: Vocab<TraceFormat> = Vocab {
        what: "trace format",
        words: &[
            ("text", TraceFormat::Text),
            ("chrome", TraceFormat::Chrome),
            ("jsonl", TraceFormat::Jsonl),
        ],
    };
}

/// Output format for `dvh profile`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileFormat {
    /// The top-N attribution table plus latency percentiles.
    Table,
    /// Folded-stack flamegraph lines rebuilt from the causal tree of
    /// every outermost exit (`flamegraph.pl`-compatible).
    Folded,
}

impl ProfileFormat {
    /// The profile format words.
    pub const VOCAB: Vocab<ProfileFormat> = Vocab {
        what: "profile format",
        words: &[
            ("table", ProfileFormat::Table),
            ("folded", ProfileFormat::Folded),
        ],
    };
}

macro_rules! display_by_name {
    ($($t:ty),*) => {$(
        impl fmt::Display for $t {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(Self::VOCAB.name(*self))
            }
        }
    )*};
}
display_by_name!(CliConfig, Op, TraceFormat, ProfileFormat);

/// The application benchmarks, by [`AppId::NAMES`].
pub const APPS: Vocab<AppId> = Vocab {
    what: "app",
    words: AppId::NAMES,
};

/// The paper figures `dvh sweep` regenerates.
pub const FIGURES: Vocab<u32> = Vocab {
    what: "figure",
    words: &[("7", 7), ("8", 8), ("9", 9), ("10", 10)],
};

/// What an observed command (`trace`, `profile`, `obs snapshot`) runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One operation.
    Op(Op),
    /// `txns` transactions of an application benchmark.
    App {
        /// Which application.
        app: AppId,
        /// Transactions to run.
        txns: u32,
    },
}

/// An observed command's workload and the machine it runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Target {
    /// What runs.
    pub workload: Workload,
    /// Virtualization level.
    pub level: usize,
    /// VM configuration.
    pub config: CliConfig,
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
        /// Files to aggregate (at least one).
        files: Vec<String>,
    },
    /// Explain where one operation's cycles go (cost attribution).
    Explain {
        /// The operation.
        op: Op,
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
        /// What to trace.
        target: Target,
        /// Output format.
        format: TraceFormat,
    },
    /// Profile cycle attribution of an observed run: top-N (level,
    /// reason) rows from its `RunStats` ledger, then the latency
    /// percentiles and multiplication factors the observation adds.
    Profile {
        /// What to profile.
        target: Target,
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
        /// What to snapshot.
        target: Target,
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
    /// Print the help for one command or group (`obs`), or for all.
    Help(Option<&'static str>),
}

/// A command-line parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What is wrong, in one line.
    pub message: String,
    /// The command (or group, `obs`) whose usage it broke, once known.
    pub command: Option<&'static str>,
}

impl ParseError {
    fn new(message: impl Into<String>) -> ParseError {
        let message = message.into();
        ParseError {
            message,
            command: None,
        }
    }

    /// The line that points at the usage: `run 'dvh <command> --help'
    /// for usage`.
    pub fn hint(&self) -> String {
        match self.command {
            Some(cmd) => format!("run 'dvh {cmd} --help' for usage"),
            None => "run 'dvh help' for usage".to_string(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<String> for ParseError {
    fn from(message: String) -> ParseError {
        ParseError::new(message)
    }
}

/// Deepest `--level` an observed run accepts. Tracing and metrics
/// bypass exit summaries, so an observed run pays the full recursion,
/// about 24x more host time per level: one L6 operation takes about
/// half a second, one L6 netperf-RR transaction about three, and at L7
/// a single transaction takes over a minute.
pub const MAX_OBSERVED_LEVEL: usize = 6;

/// What a flag takes: nothing (a switch), a free value shown as its
/// metavar, or one word of a vocabulary.
enum Value {
    Switch,
    Free(&'static str),
    OneOf(&'static dyn Choices),
}

/// One flag: its name, what it takes, the value it stands for when
/// omitted (`""`: none) and one line of help.
struct Flag {
    name: &'static str,
    value: Value,
    default: &'static str,
    help: &'static str,
}

/// One row of [`COMMANDS`].
pub struct Spec {
    /// The command words, `micro` or `obs snapshot`.
    pub name: &'static str,
    /// The file arguments, as help shows them (`""`: none).
    files: &'static str,
    summary: &'static str,
    flags: &'static [Flag],
    build: fn(&Opts<'_>) -> Result<Command, ParseError>,
}

const fn flag(name: &'static str, value: Value, default: &'static str, help: &'static str) -> Flag {
    Flag {
        name,
        value,
        default,
        help,
    }
}

const N: Value = Value::Free("N");
const SWITCH: Value = Value::Switch;
const OPS: Value = Value::OneOf(&Op::VOCAB);
const CONFIGS: Value = Value::OneOf(&CliConfig::VOCAB);
const APP_NAMES: Value = Value::OneOf(&APPS);
const LEVEL: Flag = flag("--level", N, "2", "virtualization level");
const CONFIG: Flag = flag("--config", CONFIGS, "base", "VM configuration");
const CSV: Flag = flag("--csv", SWITCH, "", "emit CSV");
// An observed command runs --op, or --app with --txns.
const OBS_OP: Flag = flag("--op", OPS, "timer", "the operation, unless --app");
const OBS_APP: Flag = flag("--app", APP_NAMES, "", "a benchmark instead of --op");
const OBS_TXNS: Flag = flag("--txns", N, "40", "transactions of the --app benchmark");
const OBS_LEVEL: Flag = flag("--level", N, "2", "virtualization level, at most 6");

/// Every `dvh` command.
#[rustfmt::skip]
pub const COMMANDS: &[Spec] = &[
    Spec {
        name: "micro", files: "", summary: "Run the Table 1 microbenchmarks.",
        flags: &[LEVEL, CONFIG, flag("--iters", N, "10", "iterations to average"), CSV],
        build: |o| Ok(Command::Micro {
            level: o.level()?, config: o.config()?, iters: o.count("--iters")?, csv: o.on("--csv"),
        }),
    },
    Spec {
        name: "app", files: "", summary: "Run one application benchmark, three columns of runs.",
        flags: &[
            flag("--name", APP_NAMES, "", "the benchmark (required)"),
            LEVEL, CONFIG,
            flag("--runs", N, "3", "independent runs per column"),
            flag("--txns", N, "400", "transactions per run"),
            CSV,
        ],
        build: |o| {
            let name = o.given("--name");
            let name = name.ok_or_else(|| ParseError::new("app requires --name <benchmark>"))?;
            Ok(Command::App {
                app: APPS.parse(name)?, level: o.level()?, config: o.config()?,
                runs: o.count("--runs")?, txns: o.count("--txns")?, csv: o.on("--csv"),
            })
        },
    },
    Spec {
        name: "apps", files: "", summary: "Run all seven application benchmarks.",
        flags: &[LEVEL, CONFIG, flag("--txns", N, "400", "transactions per benchmark"), CSV],
        build: |o| Ok(Command::Apps {
            level: o.level()?, config: o.config()?, txns: o.count("--txns")?, csv: o.on("--csv"),
        }),
    },
    Spec {
        name: "migrate", files: "", summary: "Live-migrate the nested VM (Section 4).",
        flags: &[CONFIG, flag("--with-hypervisor", SWITCH, "", "migrate the guest hypervisor too")],
        build: |o| Ok(Command::Migrate {
            config: o.config()?, with_hypervisor: o.on("--with-hypervisor"),
        }),
    },
    Spec {
        name: "results", files: "<file.csv>...", summary: "Aggregate CSV result files.",
        flags: &[],
        build: |o| match o.files[..] {
            [] => Err(ParseError::new("results requires at least one file")),
            _ => Ok(Command::Results { files: o.files.iter().map(|f| f.to_string()).collect() }),
        },
    },
    Spec {
        name: "explain", files: "", summary: "Explain where one operation's cycles go.",
        flags: &[flag("--op", OPS, "timer", "the operation"), LEVEL, CONFIG],
        build: |o| Ok(Command::Explain {
            op: o.word("--op", &Op::VOCAB)?, level: o.level()?, config: o.config()?,
        }),
    },
    Spec {
        name: "sweep", files: "", summary: "Regenerate a paper figure as CSV.",
        flags: &[
            flag("--figure", Value::OneOf(&FIGURES), "7", "the figure"),
            flag("--workers", N, "", "worker threads (default: one per host core)"),
        ],
        build: |o| Ok(Command::Sweep {
            figure: o.word("--figure", &FIGURES)?,
            workers: if o.on("--workers") { o.count("--workers")? as usize } else { 0 },
        }),
    },
    Spec {
        name: "trace", files: "", summary: "Dump the event trace of one operation or application run.",
        flags: &[
            OBS_OP, OBS_APP, OBS_TXNS, OBS_LEVEL, CONFIG,
            flag("--format", Value::OneOf(&TraceFormat::VOCAB), "text", "output format"),
        ],
        build: |o| Ok(Command::Trace {
            target: o.target()?, format: o.word("--format", &TraceFormat::VOCAB)?,
        }),
    },
    Spec {
        name: "profile", files: "", summary: "Profile where the cycles go, by (level, reason).",
        flags: &[
            OBS_OP, OBS_APP, OBS_TXNS, OBS_LEVEL, CONFIG,
            flag("--top", N, "10", "rows to show"),
            flag("--snapshot", SWITCH, "", "also print the full metrics registry"),
            flag("--format", Value::OneOf(&ProfileFormat::VOCAB), "table", "output format"),
        ],
        build: |o| Ok(Command::Profile {
            target: o.target()?, top: o.count("--top")? as usize, snapshot: o.on("--snapshot"),
            format: o.word("--format", &ProfileFormat::VOCAB)?,
        }),
    },
    Spec {
        name: "obs snapshot", files: "", summary: "Write an observability snapshot for `obs diff`.",
        flags: &[
            OBS_OP, OBS_APP, OBS_TXNS, OBS_LEVEL, CONFIG,
            flag("--out", Value::Free("FILE"), "", "write here instead of stdout"),
            flag("--prom", SWITCH, "", "Prometheus text format instead of JSON"),
        ],
        build: |o| Ok(Command::ObsSnapshot {
            target: o.target()?, out: o.given("--out").map(str::to_string), prom: o.on("--prom"),
        }),
    },
    Spec {
        name: "obs diff", files: "<baseline.json> <current.json>",
        summary: "Compare two snapshots; exit 1 on a regression.",
        flags: &[
            flag("--threshold", Value::Free("PCT"), "25", "regression threshold in percent"),
            flag("--json", SWITCH, "", "emit the JSON report"),
        ],
        build: |o| {
            let [baseline, current] = o.files[..] else {
                return Err(ParseError::new(
                    "obs diff requires exactly two files: <baseline.json> <current.json>",
                ));
            };
            let pct = o.value("--threshold");
            let threshold = match pct.parse::<f64>() {
                Ok(p) if (0.0..=1000.0).contains(&p) => p / 100.0,
                Ok(p) => Err(format!("--threshold {p} out of range (percent, 0..=1000)"))?,
                Err(_) => Err(format!("--threshold expects a number, got '{pct}'"))?,
            };
            let (baseline, current) = (baseline.to_string(), current.to_string());
            Ok(Command::ObsDiff { baseline, current, threshold, json: o.on("--json") })
        },
    },
    Spec {
        name: "check", files: "", summary: "Run the dvh-checker invariant passes.",
        flags: &[
            flag("--source-root", Value::Free("DIR"), ".", "repo root to source-lint"),
            flag("--no-source", SWITCH, "", "skip the source lint"),
        ],
        build: |o| match (o.on("--no-source"), o.on("--source-root")) {
            (true, true) => Err(ParseError::new("--no-source and --source-root exclude each other")),
            (true, false) => Ok(Command::Check { source_root: None }),
            (false, _) => Ok(Command::Check { source_root: Some(o.value("--source-root").into()) }),
        },
    },
];

/// One command's arguments, sorted by its row of [`COMMANDS`].
struct Opts<'a> {
    spec: &'static Spec,
    given: Vec<(&'static str, &'a str)>,
    files: Vec<&'a str>,
}

impl<'a> Opts<'a> {
    /// Sorts `args` by `spec`'s flags; `None` when `--help` asks for
    /// usage instead. Anything the row does not list is an error, never
    /// a silent default.
    fn sort(spec: &'static Spec, args: &'a [String]) -> Result<Option<Opts<'a>>, ParseError> {
        let (mut given, mut files) = (Vec::new(), Vec::new());
        let mut args = args.iter().map(String::as_str);
        while let Some(arg) = args.next() {
            let cmd = spec.name;
            match spec.flags.iter().find(|f| f.name == arg) {
                _ if arg == "--help" || arg == "-h" => return Ok(None),
                Some(f) if given.iter().any(|(g, _)| *g == f.name) => {
                    Err(format!("{arg} given twice"))?
                }
                Some(f) => {
                    let value = match f.value {
                        Value::Switch => "",
                        _ => args.next().ok_or(format!("{arg} expects a value"))?,
                    };
                    given.push((f.name, value));
                }
                None if arg.starts_with('-') => Err(format!("unknown flag '{arg}' for {cmd}"))?,
                None if !spec.files.is_empty() => files.push(arg),
                None => Err(format!("unexpected argument '{arg}' for {cmd}"))?,
            }
        }
        Ok(Some(Opts { spec, given, files }))
    }

    /// The value given for `flag`, if it was.
    fn given(&self, flag: &str) -> Option<&'a str> {
        self.given.iter().find(|(f, _)| *f == flag).map(|(_, v)| *v)
    }

    /// Whether `flag` was given.
    fn on(&self, flag: &str) -> bool {
        self.given(flag).is_some()
    }

    /// The value given for `flag`, else its default from the table.
    fn value(&self, flag: &str) -> &'a str {
        let default = self.spec.flags.iter().find(|f| f.name == flag);
        self.given(flag)
            .unwrap_or(default.map_or("", |f| f.default))
    }

    fn word<T: Copy + PartialEq>(&self, flag: &str, vocab: &Vocab<T>) -> Result<T, ParseError> {
        vocab.parse(self.value(flag))
    }

    fn config(&self) -> Result<CliConfig, ParseError> {
        self.word("--config", &CliConfig::VOCAB)
    }

    /// A count that must be at least 1 (`--txns`, `--iters`, `--runs`,
    /// `--workers`, `--top`, `--level`): zero would divide by zero or
    /// silently measure nothing.
    fn count(&self, flag: &str) -> Result<u32, ParseError> {
        let v = self.value(flag);
        match v.parse::<u32>() {
            Ok(0) => Err(format!("{flag} must be at least 1, got 0"))?,
            Ok(n) => Ok(n),
            Err(_) => Err(format!(
                "{flag} expects a number from 1 to {}, got '{v}'",
                u32::MAX
            ))?,
        }
    }

    /// `--level`: 1 up to [`MAX_LEVELS`], the deepest level whose cycle
    /// totals fit in 64 bits.
    fn level(&self) -> Result<usize, ParseError> {
        let level = self.count("--level")? as usize;
        if level > MAX_LEVELS {
            Err(format!(
                "--level must be at most {MAX_LEVELS}, got {level} (deeper \
                 nesting saturates the 64-bit cycle counters)"
            ))?;
        }
        Ok(level)
    }

    /// An observed command's target: `--op`, or `--app` with its
    /// `--txns`, at a `--level` of at most [`MAX_OBSERVED_LEVEL`].
    fn target(&self) -> Result<Target, ParseError> {
        let workload = match (self.on("--op"), self.given("--app")) {
            (true, Some(_)) => Err("--op and --app exclude each other".to_string())?,
            (_, Some(app)) => Workload::App {
                app: APPS.parse(app)?,
                txns: self.count("--txns")?,
            },
            _ if self.on("--txns") => Err("--txns applies only with --app".to_string())?,
            _ => Workload::Op(self.word("--op", &Op::VOCAB)?),
        };
        let level = self.level()?;
        if level > MAX_OBSERVED_LEVEL {
            Err(format!(
                "--level must be at most {MAX_OBSERVED_LEVEL} for {}, got {level} \
                 (observed runs bypass exit summaries and run the full exit \
                 recursion, whose cost grows about 24x per level)",
                self.spec.name
            ))?;
        }
        let config = self.config()?;
        Ok(Target {
            workload,
            level,
            config,
        })
    }
}

/// Whether command `name` is `topic` or belongs to group `topic` (`obs`).
fn under(name: &str, topic: &str) -> bool {
    let rest = name.strip_prefix(topic);
    rest.is_some_and(|rest| rest.is_empty() || rest.starts_with(' '))
}

/// The command or group named `topic`, as the table spells it.
fn topic(topic: &str) -> Option<&'static str> {
    let spec = COMMANDS.iter().find(|s| under(s.name, topic));
    spec.map(|s| &s.name[..topic.len()])
}

/// Parses a full argument vector (without the program name).
///
/// # Errors
///
/// Returns [`ParseError`] for unknown commands, flags, or values, for
/// a flag given twice, and for flags that exclude each other.
pub fn parse(args: &[String]) -> Result<Command, ParseError> {
    let words: Vec<&str> = args.iter().map(String::as_str).collect();
    let unknown = |t: &str| ParseError::new(format!("unknown command '{t}'"));
    let help = |t: &str| {
        topic(t)
            .map(|t| Command::Help(Some(t)))
            .ok_or_else(|| unknown(t))
    };
    match words[..] {
        [] | ["help" | "--help" | "-h"] => return Ok(Command::Help(None)),
        ["help", ..] => return help(&words[1..].join(" ")),
        [name, "--help" | "-h"] => return help(name),
        _ => {}
    }
    let found = [2, 1].into_iter().find_map(|n| {
        let name = words.get(..n)?.join(" ");
        Some((COMMANDS.iter().find(|s| s.name == name)?, n))
    });
    let Some((spec, n)) = found else {
        let group = topic(words[0]).ok_or_else(|| unknown(words[0]))?;
        let subs = COMMANDS
            .iter()
            .filter_map(|s| s.name.strip_prefix(group)?.strip_prefix(' '));
        let subs = subs.collect::<Vec<_>>().join("|");
        let message = match words.get(1) {
            Some(other) => format!("unknown {group} subcommand '{other}' (expected {subs})"),
            None => format!("{group} requires a subcommand ({subs})"),
        };
        return Err(ParseError {
            message,
            command: Some(group),
        });
    };
    let in_context = |mut e: ParseError| {
        e.command = Some(spec.name);
        e
    };
    match Opts::sort(spec, &args[n..]).map_err(in_context)? {
        None => Ok(Command::Help(Some(spec.name))),
        Some(opts) => (spec.build)(&opts).map_err(in_context),
    }
}

impl Spec {
    /// This command's help section.
    fn help(&self) -> String {
        let flags = if self.flags.is_empty() { "" } else { "[flags]" };
        let usage: Vec<&str> = [self.name, self.files, flags]
            .into_iter()
            .filter(|p| !p.is_empty())
            .collect();
        let mut out = format!("dvh {}\n  {}\n", usage.join(" "), self.summary);
        for f in self.flags {
            let left = match f.value {
                Value::Switch => f.name.to_string(),
                Value::Free(metavar) => format!("{} {metavar}", f.name),
                Value::OneOf(vocab) => format!("{} {}", f.name, vocab.alternatives()),
            };
            let left = match left.len() {
                0..=26 => format!("{left:26}"),
                _ => format!("{left}\n{:30}", ""),
            };
            let default = match f.default {
                "" => String::new(),
                d => format!(" (default: {d})"),
            };
            out += &format!("    {left}  {}{default}\n", f.help);
        }
        out
    }
}

/// The help for `topic` (a command such as `micro`, or a group such as
/// `obs`), or, for `None`, a header and every command.
pub fn help(topic: Option<&str>) -> String {
    let sections = COMMANDS
        .iter()
        .filter(|s| topic.is_none_or(|t| under(s.name, t)));
    let sections: Vec<String> = sections.map(Spec::help).collect();
    let header = match topic {
        None => {
            "dvh — DVH nested-virtualization simulator (ASPLOS 2020 reproduction)\n\n\
                 usage: dvh <command> [flags]; 'dvh <command> --help' shows one command\n\n"
        }
        Some(_) => "",
    };
    format!("{header}{}", sections.join("\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(args: &[&str]) -> Result<Command, ParseError> {
        parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    /// The parsed command line, as its `Debug` text.
    fn parsed(line: &str) -> String {
        let args: Vec<&str> = line.split_whitespace().collect();
        match parse_str(&args) {
            Ok(c) => format!("{c:?}"),
            Err(e) => format!("error: {e}"),
        }
    }

    #[test]
    fn parse_micro_defaults() {
        let micro = "Micro { level: 2, config: Base, iters: 10, csv: false }";
        assert_eq!(parsed("micro"), micro);
    }

    #[test]
    fn parse_app_with_flags() {
        assert_eq!(
            parsed("app --name apache --level 3 --config dvh-vp --runs 5 --csv"),
            "App { app: Apache, level: 3, config: DvhVp, runs: 5, txns: 400, csv: true }"
        );
    }

    #[test]
    fn unknown_command_errors() {
        let e = parse_str(&["frobnicate"]).unwrap_err();
        assert_eq!(e.hint(), "run 'dvh help' for usage");
    }

    #[test]
    fn app_requires_name() {
        let e = parse_str(&["app"]).unwrap_err();
        assert_eq!(e.hint(), "run 'dvh app --help' for usage");
    }

    #[test]
    fn bad_number_errors() {
        assert!(parse_str(&["micro", "--level", "two"]).is_err());
    }

    /// A value `f` accepts: its default, else its first word, else a
    /// number.
    fn sample(f: &Flag) -> String {
        match f.value {
            _ if !f.default.is_empty() => f.default.to_string(),
            Value::Switch => String::new(),
            Value::OneOf(vocab) => vocab.alternatives().split('|').next().unwrap().to_string(),
            Value::Free(_) => "3".to_string(),
        }
    }

    /// What a row needs besides `flag`: its files, `--name`, or `--app`
    /// for an observed command's `--txns`.
    fn needs(spec: &Spec, flag: &str) -> &'static str {
        match (spec.name, flag) {
            ("results", _) => "a.csv",
            ("obs diff", _) => "a.json b.json",
            ("app", "--name") => "",
            ("app", _) => "--name rr",
            (_, "--txns") if spec.flags.iter().any(|f| f.name == "--app") => "--app rr",
            _ => "",
        }
    }

    fn round_trip<T: Copy + PartialEq + fmt::Debug>(vocab: &Vocab<T>, show: fn(T) -> String) {
        for &(word, value) in vocab.words {
            assert_eq!(vocab.parse(word).unwrap(), value);
            assert_eq!(vocab.parse(&word.to_ascii_uppercase()).unwrap(), value);
            assert_eq!(vocab.parse(&show(value)).unwrap(), value, "{word}");
            assert_eq!(show(value), vocab.name(value));
        }
        let e = vocab.parse("no-such-word").unwrap_err().message;
        assert!(
            e.ends_with(&format!("(expected {})", vocab.alternatives())),
            "{e}"
        );
    }

    #[test]
    fn every_table_row_parses_and_has_help() {
        for spec in COMMANDS {
            let section = help(Some(spec.name));
            let asked = parsed(&format!("{} --help", spec.name));
            assert_eq!(asked, format!("Help(Some({:?}))", spec.name));
            for f in spec.flags {
                assert!(section.contains(f.name), "{} --help: {}", spec.name, f.name);
                let base = format!("{} {}", spec.name, needs(spec, f.name));
                let with = format!("{base} {} {}", f.name, sample(f));
                assert!(
                    !parsed(&with).starts_with("error"),
                    "{with}: {}",
                    parsed(&with)
                );
                if !f.default.is_empty() {
                    assert_eq!(parsed(&with), parsed(&base), "{with}: default differs");
                }
            }
        }
        assert!(OBS_LEVEL.help.ends_with(&MAX_OBSERVED_LEVEL.to_string()));
    }

    #[test]
    fn config_vocabulary_round_trips() {
        round_trip(&CliConfig::VOCAB, |c| c.to_string());
        round_trip(&Op::VOCAB, |o| o.to_string());
        round_trip(&TraceFormat::VOCAB, |t| t.to_string());
        round_trip(&ProfileFormat::VOCAB, |p| p.to_string());
        round_trip(&FIGURES, |n| n.to_string());
        assert_eq!(
            CliConfig::VOCAB.alternatives(),
            "base|passthrough|dvh-vp|dvh"
        );
        assert!(CliConfig::VOCAB.parse("vmx").is_err());
    }

    #[test]
    fn all_app_aliases_parse() {
        round_trip(&APPS, |a| a.cli_name().to_string());
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
            assert!(APPS.parse(name).is_ok(), "{name}");
        }
        let apps = "rr|stream|maerts|apache|memcached|mysql|hackbench";
        assert_eq!(APPS.alternatives(), apps);
        assert_eq!(APPS.parse("netperf-maerts").unwrap(), AppId::NetperfMaerts);
    }

    const TIMER_L2: &str = "workload: Op(Timer), level: 2, config: Base";

    #[test]
    fn parse_trace_formats_and_targets() {
        assert_eq!(
            parsed("trace --format chrome --app rr"),
            "Trace { target: Target { workload: App { app: NetperfRr, txns: 40 }, level: 2, \
             config: Base }, format: Chrome }"
        );
        let text = format!("Trace {{ target: Target {{ {TIMER_L2} }}, format: Text }}");
        assert_eq!(parsed("trace"), text);
        assert!(parsed("trace --format svg").starts_with("error: unknown trace format"));
        assert!(parsed("trace --app frob").starts_with("error: unknown app"));
    }

    #[test]
    fn parse_profile_defaults_and_flags() {
        assert_eq!(
            parsed("profile"),
            format!(
                "Profile {{ target: Target {{ {TIMER_L2} }}, top: 10, snapshot: false, \
                 format: Table }}"
            )
        );
        let apache = parsed("profile --app apache --top 3 --snapshot");
        assert!(apache.contains("App { app: Apache, txns: 40 }"), "{apache}");
        assert!(apache.contains("top: 3, snapshot: true"), "{apache}");
    }

    #[test]
    fn parse_profile_formats() {
        assert!(parsed("profile --format folded --app rr").ends_with("format: Folded }"));
        assert!(parse_str(&["profile", "--format", "svg"]).is_err());
    }

    #[test]
    fn parse_obs_snapshot() {
        assert_eq!(
            parsed("obs snapshot --app rr --txns 25 --out snap.json"),
            "ObsSnapshot { target: Target { workload: App { app: NetperfRr, txns: 25 }, \
             level: 2, config: Base }, out: Some(\"snap.json\"), prom: false }"
        );
        assert!(parsed("obs snapshot --prom").ends_with("prom: true }"));
        assert!(parse_str(&["obs"]).is_err());
        assert!(parse_str(&["obs", "frobnicate"]).is_err());
        assert_eq!(parsed("obs --help"), "Help(Some(\"obs\"))");
    }

    #[test]
    fn parse_obs_diff_is_strict() {
        assert_eq!(
            parsed("obs diff base.json cur.json"),
            "ObsDiff { baseline: \"base.json\", current: \"cur.json\", threshold: 0.25, \
             json: false }"
        );
        let c = parsed("obs diff a b --threshold 10 --json");
        assert!(c.ends_with("threshold: 0.1, json: true }"), "{c}");
        // A CI gate rejects what it does not understand.
        for args in [
            "obs diff a.json",
            "obs diff a.json b.json c.json",
            "obs diff a.json b.json --bogus",
            "obs diff a.json b.json --threshold",
            "obs diff a.json b.json --threshold nope",
            "obs diff a.json b.json --threshold 1001",
        ] {
            assert!(parsed(args).starts_with("error"), "{args}");
        }
    }

    #[test]
    fn zero_counts_and_levels_are_rejected() {
        for args in [
            "micro --level 0",
            "micro --level 12",
            "micro --iters 0",
            "app --name rr --runs 0",
            "app --name rr --txns 0",
            "apps --txns 0",
            "trace --app rr --txns 0",
            "profile --app rr --txns 0",
            "obs snapshot --app rr --txns 0",
            "sweep --workers 0",
            "micro --iters 4294967296",
            "profile --top 0",
        ] {
            assert!(parsed(args).starts_with("error"), "{args}");
        }
        // Absent --workers still means one per host core.
        assert_eq!(parsed("sweep"), "Sweep { figure: 7, workers: 0 }");
        assert!(parsed("micro --level 11").starts_with("Micro { level: 11,"));
    }

    #[test]
    fn empty_args_is_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help(None));
        assert_eq!(
            parse_str(&["help", "micro"]).unwrap(),
            Command::Help(Some("micro"))
        );
    }

    #[test]
    fn parse_check_variants() {
        let root = |r: &str| format!("Check {{ source_root: {r} }}");
        assert_eq!(parsed("check"), root("Some(\".\")"));
        assert_eq!(
            parsed("check --source-root /tmp/repo"),
            root("Some(\"/tmp/repo\")")
        );
        assert_eq!(parsed("check --no-source"), root("None"));
        // check is a CI gate: it rejects what it does not understand.
        for args in [
            "check --bogus",
            "check --source-root",
            "check --no-source --source-root /nope",
        ] {
            assert!(parsed(args).starts_with("error"), "{args}");
        }
    }

    #[test]
    fn explain_rejects_unknown_op() {
        assert_eq!(
            parsed("explain --op frob"),
            "error: unknown op 'frob' (expected hypercall|timer|ipi|devnotify)"
        );
    }

    #[test]
    fn profile_rejects_unknown_op() {
        assert!(parsed("profile --op frob").starts_with("error: unknown op"));
    }

    #[test]
    fn results_requires_files() {
        assert_eq!(
            parsed("results"),
            "error: results requires at least one file"
        );
    }
}
