//! Host-time benchmark of the DVH simulator.
//!
//! ```text
//! hostbench --workload <l3_sweep|l2_sweep|observe> --seed <n> --seconds <s> --trace <0|1>
//! hostbench --emit-reference
//! ```
//!
//! A workload is a fixed set of cells (one machine built and run to
//! completion); the seed only permutes the order they run in, anew
//! each repetition. Each repetition runs every cell serially, then through
//! `bench::parallel` at `nproc` workers, and checks every cell's output
//! against `reference.tsv`. Repetitions continue for `--seconds`; the
//! timings reported are medians over them. `--trace 1` runs the traced
//! variant instead and reports per-layer metrics. The last line of
//! standard output is the JSON result. See README.md.

mod cells;
mod layers;
mod spans;

use cells::{Cell, Outcome};
use dvh_bench::parallel::{available_workers, pmap_with_workers};
use dvh_core::RunStats;
use dvh_obs::json::Value;
use spans::Spans;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The committed per-cell reference outputs: `cell id <TAB> output`.
const REFERENCE_TSV: &str = include_str!("../reference.tsv");

/// Cell id → expected output.
pub type Reference = BTreeMap<String, String>;

/// Parses reference text; `#` starts a comment line.
pub fn parse_reference(text: &str) -> Result<Reference, String> {
    let mut reference = Reference::new();
    for (n, line) in text.lines().enumerate() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (id, output) = line
            .split_once('\t')
            .ok_or_else(|| format!("reference line {}: no tab", n + 1))?;
        if reference
            .insert(id.to_string(), output.to_string())
            .is_some()
        {
            return Err(format!("reference line {}: duplicate cell {id}", n + 1));
        }
    }
    Ok(reference)
}

/// One reported metric. `None` is reported as JSON `null`: not
/// applicable on this host.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as in BENCHMARK.json.
    pub name: String,
    /// The measured value.
    pub value: Option<f64>,
    /// Unit.
    pub unit: &'static str,
}

/// The tally of one pass over a workload's cells.
#[derive(Debug, Default)]
pub struct Leg {
    /// Host ns for the whole pass.
    pub wall_ns: u64,
    /// Host ns of set-up (`Machine::build`, arming observability) per
    /// cell id.
    pub setup_ns: BTreeMap<String, u64>,
    /// Cells run.
    pub attempted: u64,
    /// Cells that panicked or whose output differs from the reference.
    pub failed: u64,
    /// Merged simulation ledger of the cells.
    pub stats: RunStats,
    /// Host ns per cell, in traced legs only.
    pub cell_ns: Vec<u64>,
}

impl Leg {
    fn record(&mut self, cell: &Cell, outcome: Option<Outcome>, reference: &Reference) {
        self.attempted += 1;
        let Some(o) = outcome else {
            eprintln!("hostbench: cell {} panicked", cell.id);
            self.failed += 1;
            return;
        };
        if reference.get(&cell.id) != Some(&o.output) {
            eprintln!(
                "hostbench: cell {} output {:?}, reference {:?}",
                cell.id,
                o.output,
                reference.get(&cell.id)
            );
            self.failed += 1;
        }
        self.setup_ns.insert(cell.id.clone(), o.setup_ns);
        self.stats.merge(&o.stats);
    }
}

/// Runs one cell, turning a panic into `None`.
fn guarded(cell: &Cell, spans: Option<&mut Spans>) -> Option<Outcome> {
    catch_unwind(AssertUnwindSafe(|| cells::run_cell(cell, spans))).ok()
}

/// Runs `cells` one after another on this thread. With `spans`, the
/// calls into each layer and each cell are timed.
pub fn serial_leg(cells: &[Cell], reference: &Reference, mut spans: Option<&mut Spans>) -> Leg {
    let mut leg = Leg::default();
    let start = Instant::now();
    for cell in cells {
        let t = spans.is_some().then(Instant::now);
        let outcome = guarded(cell, spans.as_deref_mut());
        if let Some(t) = t {
            leg.cell_ns.push(t.elapsed().as_nanos() as u64);
        }
        leg.record(cell, outcome, reference);
    }
    leg.wall_ns = start.elapsed().as_nanos() as u64;
    leg
}

/// Runs `cells` through `bench::parallel` at `workers` threads. With
/// `traced`, each cell's host time is recorded.
fn parallel_leg(cells: &[Cell], workers: usize, reference: &Reference, traced: bool) -> Leg {
    let start = Instant::now();
    let outcomes = pmap_with_workers(workers, cells, |cell| {
        let t = traced.then(Instant::now);
        let outcome = guarded(cell, None);
        (outcome, t.map(|t| t.elapsed().as_nanos() as u64))
    });
    let mut leg = Leg {
        wall_ns: start.elapsed().as_nanos() as u64,
        ..Leg::default()
    };
    for (cell, (outcome, ns)) in cells.iter().zip(outcomes) {
        leg.cell_ns.extend(ns);
        leg.record(cell, outcome, reference);
    }
    leg
}

/// The median; the mean of the middle two for an even count.
pub fn median(values: &mut [f64]) -> f64 {
    percentile(values, 0.5)
}

/// Linear-interpolated percentile `p` ∈ [0, 1].
fn percentile(values: &mut [f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of nothing");
    values.sort_by(f64::total_cmp);
    let pos = p * (values.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// Host ms for a fixed integer loop: a yardstick for host drift.
fn calibrate() -> f64 {
    let t = Instant::now();
    let mut x = 0x9E37_79B9u64;
    for i in 0..20_000_000u64 {
        x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

/// The process's peak resident set, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak RSS needs /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

enum Mode {
    Run(Args),
    EmitReference,
}

fn parse_args(argv: &[String]) -> Result<Mode, String> {
    if argv == ["--emit-reference"] {
        return Ok(Mode::EmitReference);
    }
    let mut flags = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let name = match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => flag.as_str(),
            other => return Err(format!("unknown argument '{other}'")),
        };
        let value = it.next().ok_or_else(|| format!("{name} needs a value"))?;
        if flags.insert(name, value.as_str()).is_some() {
            return Err(format!("{name} given twice"));
        }
    }
    let get = |name: &str| {
        flags
            .get(name)
            .copied()
            .ok_or(format!("{name} is required"))
    };
    let number = |name: &str| -> Result<u64, String> {
        get(name)?
            .parse()
            .map_err(|_| format!("{name} must be a whole number"))
    };
    let workload = get("--workload")?.to_string();
    if !cells::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (one of {})",
            cells::WORKLOADS.join(", ")
        ));
    }
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok(Mode::Run(Args {
        workload,
        seed: number("--seed")?,
        seconds,
        trace,
    }))
}

/// The end-to-end run: serial and parallel legs, repeated while they
/// fit in the time budget.
fn end_to_end(
    args: &Args,
    cells: &mut [Cell],
    workers: usize,
    reference: &Reference,
) -> Result<Run, String> {
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut rng = args.seed;
    let mut run = Run::default();
    let (mut walls, mut parallel_walls) = (Vec::new(), Vec::new());
    let mut setups: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut peak_rss = None;
    loop {
        let rep = Instant::now();
        cells::permute(cells, &mut rng);
        let serial = serial_leg(cells, reference, None);
        // The serial leg's peak: the first one ends before any parallel
        // leg has run, whose peak depends on which cells overlap.
        if peak_rss.is_none() {
            peak_rss = Some(peak_rss_mb()?);
        }
        let parallel = parallel_leg(cells, workers, reference, false);
        walls.push(serial.wall_ns as f64 / 1e9);
        parallel_walls.push(parallel.wall_ns as f64 / 1e9);
        for (id, &ns) in &serial.setup_ns {
            setups.entry(id.clone()).or_default().push(ns as f64 / 1e9);
        }
        let exits = serial.stats.total_exits() as f64;
        eprintln!(
            "hostbench: rep {}: serial {:.4} s, parallel {:.4} s, setup {:.6} s",
            run.reps + 1,
            walls[walls.len() - 1],
            parallel_walls[parallel_walls.len() - 1],
            serial.setup_ns.values().sum::<u64>() as f64 / 1e9
        );
        run.add(&serial);
        run.add(&parallel);
        run.reps += 1;
        if start.elapsed() + rep.elapsed() > budget {
            let wall_s = median(&mut walls);
            run.metrics = vec![
                Metric::new("wall_s", wall_s, "s"),
                Metric::new("wall_parallel_s", median(&mut parallel_walls), "s"),
                Metric::new("exits_per_s", exits / wall_s, "1/s"),
                // Σ over cells of each cell's median set-up: one slow
                // build (a page-fault burst) does not move it.
                Metric::new("setup_s", setups.values_mut().map(|v| median(v)).sum(), "s"),
                Metric::new(
                    "peak_rss_mb",
                    peak_rss.expect("read after the first serial leg"),
                    "MB",
                ),
            ];
            return Ok(run);
        }
    }
}

/// The traced run: untraced and traced serial legs alternate for half
/// the time budget, then one traced parallel leg and the layer suite,
/// which take about 15 s on a 2-core host.
fn traced(args: &Args, cells: &mut [Cell], workers: usize, reference: &Reference) -> Run {
    let budget = Duration::from_secs(args.seconds) / 2;
    let start = Instant::now();
    let mut rng = args.seed;
    let mut run = Run::default();
    let mut spans = Spans::default();
    let (mut untraced_walls, mut traced_walls, mut cell_ms) = (Vec::new(), Vec::new(), Vec::new());
    let stats = loop {
        let rep = Instant::now();
        cells::permute(cells, &mut rng);
        let untraced = serial_leg(cells, reference, None);
        let traced = serial_leg(cells, reference, Some(&mut spans));
        untraced_walls.push(untraced.wall_ns as f64);
        traced_walls.push(traced.wall_ns as f64);
        cell_ms.extend(traced.cell_ns.iter().map(|&ns| ns as f64 / 1e6));
        run.add(&untraced);
        run.add(&traced);
        run.reps += 1;
        if start.elapsed() + rep.elapsed() > budget {
            break traced.stats;
        }
    };
    let parallel = parallel_leg(cells, workers, reference, true);
    run.add(&parallel);
    let traced_wall = median(&mut traced_walls);
    let legs = run.reps as f64;

    let m = &mut run.metrics;
    m.push(Metric::new(
        "hypervisor.exits",
        stats.total_exits() as f64,
        "count",
    ));
    for level in 1..=3 {
        m.push(Metric::new(
            format!("hypervisor.exits.L{level}"),
            stats.exits_from_level(level) as f64,
            "count",
        ));
    }
    m.push(Metric::new(
        "hypervisor.interventions",
        stats.total_interventions() as f64,
        "count",
    ));
    m.push(Metric::new(
        "hypervisor.dvh_intercepts",
        stats.total_dvh_intercepts() as f64,
        "count",
    ));
    m.push(Metric::new(
        "hypervisor.ns_per_exit",
        spans.ns("run_app") as f64 / spans.total("run_app.exits") as f64,
        "ns",
    ));
    m.push(Metric::new(
        "workloads.run_app_s",
        spans.ns("run_app") as f64 / legs / 1e9,
        "s",
    ));
    m.push(Metric::new(
        "workloads.cell_p50_ms",
        percentile(&mut cell_ms, 0.5),
        "ms",
    ));
    m.push(Metric::new(
        "workloads.cell_p75_ms",
        percentile(&mut cell_ms, 0.75),
        "ms",
    ));
    m.push(Metric::new("workloads.cells", cells.len() as f64, "count"));
    m.push(Metric::new("parallel.workers", workers as f64, "count"));
    m.push(Metric {
        name: "parallel.speedup".into(),
        // A speed-up over one worker measures nothing: n/a, not 1.0.
        value: (workers > 1).then(|| traced_wall / parallel.wall_ns as f64),
        unit: "x",
    });
    let busy: u64 = parallel.cell_ns.iter().sum();
    m.push(Metric::new(
        "parallel.utilization",
        busy as f64 / (workers as f64 * parallel.wall_ns as f64),
        "ratio",
    ));
    m.push(Metric::new(
        "bench.trace_overhead",
        traced_wall / median(&mut untraced_walls),
        "x",
    ));

    let (layer_metrics, layer_leg) = layers::layer_suite(reference);
    run.add(&layer_leg);
    run.metrics.extend(layer_metrics);
    run
}

impl Metric {
    /// A measured metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value: Some(value),
            unit,
        }
    }
}

/// Everything one invocation measured.
#[derive(Debug, Default)]
struct Run {
    attempted: u64,
    failed: u64,
    reps: u64,
    metrics: Vec<Metric>,
}

impl Run {
    fn add(&mut self, leg: &Leg) {
        self.attempted += leg.attempted;
        self.failed += leg.failed;
    }
}

fn emit_reference() -> Result<(), String> {
    println!(
        "# hostbench reference outputs: cell id <TAB> output. Regenerate with --emit-reference."
    );
    for workload in cells::WORKLOADS {
        println!("# {workload}");
        for cell in cells::cells(workload).expect("listed workloads exist") {
            println!("{}\t{}", cell.id, cells::run_cell(&cell, None).output);
        }
    }
    Ok(())
}

fn run(argv: &[String]) -> Result<(), String> {
    let args = match parse_args(argv)? {
        Mode::EmitReference => return emit_reference(),
        Mode::Run(args) => args,
    };
    let reference = parse_reference(REFERENCE_TSV)?;
    let mut cells = cells::cells(&args.workload).expect("validated workload");
    let nproc = available_workers();
    let workers = nproc;
    let calib_ms = calibrate();

    let mut run = if args.trace {
        traced(&args, &mut cells, workers, &reference)
    } else {
        end_to_end(&args, &mut cells, workers, &reference)?
    };
    if args.trace {
        run.metrics
            .push(Metric::new("host.calib_ms", calib_ms, "ms"));
    }

    for m in &run.metrics {
        let value = m.value.map_or("n/a".to_string(), |v| format!("{v:.6}"));
        println!("{:<40} {:>20} {}", m.name, value, m.unit);
    }
    let context = Value::Obj(vec![(
        "host".into(),
        Value::Obj(vec![
            ("workload".into(), Value::Str(args.workload.clone())),
            ("seed".into(), Value::Int(args.seed as i64)),
            ("trace".into(), Value::Bool(args.trace)),
            ("nproc".into(), Value::Int(nproc as i64)),
            ("workers".into(), Value::Int(workers as i64)),
            ("calib_ms".into(), Value::Float(calib_ms)),
            ("reps".into(), Value::Int(run.reps as i64)),
            ("cells".into(), Value::Int(cells.len() as i64)),
        ]),
    )]);
    println!("{}", context.to_json());
    let metrics = run
        .metrics
        .iter()
        .map(|m| {
            let value = m.value.map_or(Value::Null, Value::Float);
            (
                m.name.clone(),
                Value::Obj(vec![
                    ("value".into(), value),
                    ("unit".into(), Value::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    let result = Value::Obj(vec![
        ("correct".into(), Value::Bool(run.failed == 0)),
        ("attempted".into(), Value::Int(run.attempted as i64)),
        ("failed".into(), Value::Int(run.failed as i64)),
        ("metrics".into(), Value::Obj(metrics)),
    ]);
    println!("{}", result.to_json());
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("hostbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference() -> Reference {
        parse_reference(REFERENCE_TSV).expect("the committed reference parses")
    }

    fn workload(name: &str, seed: u64) -> Vec<Cell> {
        let mut cells = cells::cells(name).expect("a workload");
        let mut state = seed;
        cells::permute(&mut cells, &mut state);
        cells
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn reference_names_exactly_the_workload_cells() {
        let mut ids: Vec<String> = cells::WORKLOADS
            .iter()
            .flat_map(|w| cells::cells(w).expect("a workload"))
            .map(|c| c.id)
            .collect();
        ids.sort();
        let n = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), n, "cell ids are unique across workloads");
        assert_eq!(ids, reference().into_keys().collect::<Vec<_>>());
    }

    #[test]
    fn perturbed_reference_fails_only_its_workload() {
        let mut perturbed = reference();
        perturbed
            .get_mut("table3/nested-dvh")
            .expect("a Table 3 cell")
            .push('0');
        for name in cells::WORKLOADS {
            let cells = workload(name, 7);
            let leg = serial_leg(&cells, &perturbed, None);
            assert_eq!(leg.attempted, cells.len() as u64);
            assert_eq!(leg.failed, u64::from(name == "l2_sweep"), "{name}");
        }
    }

    #[test]
    fn seeds_permute_order_but_not_outputs() {
        let (a, b) = (workload("l2_sweep", 1), workload("l2_sweep", 2));
        let order = |cells: &[Cell]| cells.iter().map(|c| c.id.clone()).collect::<Vec<_>>();
        assert_ne!(order(&a), order(&b), "different seeds, different order");
        let outputs = |cells: &[Cell]| {
            cells
                .iter()
                .map(|c| (c.id.clone(), cells::run_cell(c, None).output))
                .collect::<BTreeMap<_, _>>()
        };
        let (out_a, out_b) = (outputs(&a), outputs(&b));
        assert_eq!(out_a, out_b);
        assert_eq!(out_a.len(), a.len());
        assert_eq!(serial_leg(&b, &reference(), None).failed, 0);
        assert_eq!(parallel_leg(&a, 2, &reference(), false).failed, 0);
    }

    #[test]
    fn a_panicking_cell_fails_instead_of_aborting() {
        let bad = Cell {
            id: "fig9/rr/VM".into(),
            kind: cells::Kind::App(
                dvh_workloads::AppId::NetperfRr,
                dvh_core::MachineConfig::baseline(0),
            ),
        };
        let leg = serial_leg(&[bad], &reference(), None);
        assert_eq!((leg.attempted, leg.failed), (1, 1));
    }

    #[test]
    fn arguments_are_parsed_strictly() {
        let ok = args(&[
            "--workload",
            "observe",
            "--seed",
            "3",
            "--seconds",
            "5",
            "--trace",
            "1",
        ]);
        let Ok(Mode::Run(a)) = parse_args(&ok) else {
            panic!("valid arguments rejected");
        };
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("observe", 3, 5, true)
        );
        for bad in [
            &[
                "--workload",
                "nope",
                "--seed",
                "1",
                "--seconds",
                "5",
                "--trace",
                "0",
            ][..],
            &[
                "--workload",
                "observe",
                "--seed",
                "1",
                "--seconds",
                "0",
                "--trace",
                "0",
            ],
            &[
                "--workload",
                "observe",
                "--seed",
                "1",
                "--seconds",
                "5",
                "--trace",
                "2",
            ],
            &[
                "--workload",
                "observe",
                "--seed",
                "-1",
                "--seconds",
                "5",
                "--trace",
                "0",
            ],
            &["--workload", "observe", "--seconds", "5", "--trace", "0"],
            &[
                "--workload",
                "observe",
                "--seed",
                "1",
                "--seconds",
                "5",
                "--trace",
            ],
            &["--bogus"],
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn percentiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut v), 2.5);
        assert_eq!(percentile(&mut v, 0.75), 3.25);
        assert_eq!(median(&mut [7.0]), 7.0);
    }
}
