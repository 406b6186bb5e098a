//! The benchmark's workloads. Each is a fixed list of independent
//! cells: one machine built and run to completion, driven only through
//! the simulator's public API.

use crate::spans::Spans;
use dvh_bench::harness::APP_TXNS;
use dvh_checker::causal_lint::lint_causal;
use dvh_checker::harness::{check_machine, check_pinned_fixture, fig7_configs, TRACE_CAPACITY};
use dvh_checker::metrics_lint::{lint_chrome_export, lint_metrics};
use dvh_checker::trace_lint::{lint_trace, TraceContext};
use dvh_core::{DvhFlags, Machine, MachineConfig, RunStats};
use dvh_hypervisor::trace_export;
use dvh_hypervisor::world::LEAF_BUF_BASE_PFN;
use dvh_memory::Gpa;
use dvh_migration::{migrate_nested_vm, MigrationConfig};
use dvh_obs::diff::{diff, snapshot_json, DiffConfig};
use dvh_workloads::{run_app, run_micro, AppId};
use std::time::Instant;

/// The workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 3] = ["l3_sweep", "l2_sweep", "observe"];

/// Transactions in one observed netperf-RR cell: the length of the CI
/// observability-regression job.
pub const OBS_TXNS: u32 = 25;

/// What one cell runs.
#[derive(Debug, Clone)]
pub enum Kind {
    /// A figure cell: one application on one configuration.
    App(AppId, MachineConfig),
    /// A Table 3 column: the four microbenchmarks, 5 iterations each.
    Micro(MachineConfig),
    /// One §4 migration scenario.
    Migration {
        /// The migrated machine.
        config: MachineConfig,
        /// Whether the guest hypervisor migrates along.
        include_hv: bool,
    },
    /// The §4 negative result: passthrough refuses to migrate.
    MigrationRefused,
    /// `check_machine`: every checker pass over one configuration.
    Check(MachineConfig),
    /// The pinned-ledger fixture pass.
    PinnedFixture,
    /// A netperf-RR cell with observability on, certified by the lint
    /// passes, then exported, snapshotted and self-diffed.
    Observed(MachineConfig),
}

/// One independent unit of work; one operation of the benchmark.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Stable name, the key into the reference outputs.
    pub id: String,
    /// What the cell runs.
    pub kind: Kind,
}

/// What a cell produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// The output checked against the reference.
    pub output: String,
    /// The simulation ledger of the machine the benchmark drove
    /// (empty for checker cells, whose machines live inside the
    /// checker).
    pub stats: RunStats,
    /// Host ns spent in `Machine::build`, plus arming observability.
    pub setup_ns: u64,
}

/// The configuration columns of Figs. 7 to 10, as `dvh-bench`'s
/// harness defines them (its figure specs are private to it).
fn fig_columns(figure: u32) -> Vec<(&'static str, MachineConfig)> {
    match figure {
        7 => vec![
            ("VM", MachineConfig::baseline(1)),
            ("VM+PT", MachineConfig::passthrough(1)),
            ("Nested", MachineConfig::baseline(2)),
            ("Nested+PT", MachineConfig::passthrough(2)),
            ("DVH-VP", MachineConfig::dvh_vp(2)),
            ("DVH", MachineConfig::dvh(2)),
        ],
        8 => {
            let pi = DvhFlags {
                viommu_posted_interrupts: true,
                ..DvhFlags::NONE
            };
            let pi_ipi = DvhFlags {
                virtual_ipis: true,
                ..pi
            };
            let pi_ipi_t = DvhFlags {
                virtual_timers: true,
                ..pi_ipi
            };
            vec![
                ("Nested", MachineConfig::baseline(2)),
                ("DVH-VP", MachineConfig::dvh_vp(2)),
                ("+PI", MachineConfig::dvh_partial(2, pi)),
                ("+vIPI", MachineConfig::dvh_partial(2, pi_ipi)),
                ("+vtimer", MachineConfig::dvh_partial(2, pi_ipi_t)),
                ("+vidle", MachineConfig::dvh(2)),
            ]
        }
        9 => vec![
            ("VM", MachineConfig::baseline(1)),
            ("VM+PT", MachineConfig::passthrough(1)),
            ("L3", MachineConfig::baseline(3)),
            ("L3+PT", MachineConfig::passthrough(3)),
            ("L3+DVH-VP", MachineConfig::dvh_vp(3)),
            ("L3+DVH", MachineConfig::dvh(3)),
        ],
        10 => vec![
            ("VM", MachineConfig::baseline(1)),
            ("VM+PT", MachineConfig::passthrough(1)),
            ("Nested(Xen)", MachineConfig::baseline(2).with_xen_guest()),
            ("Nested+PT", MachineConfig::passthrough(2).with_xen_guest()),
            ("DVH-VP", MachineConfig::dvh_vp(2).with_xen_guest()),
        ],
        _ => unreachable!("figures 7 to 10 only"),
    }
}

fn figure_cells(figure: u32) -> Vec<Cell> {
    let columns = fig_columns(figure);
    AppId::ALL
        .iter()
        .flat_map(|app| {
            columns.iter().map(move |(label, cfg)| Cell {
                id: format!("fig{figure}/{}/{label}", app.cli_name()),
                kind: Kind::App(*app, cfg.clone()),
            })
        })
        .collect()
}

/// The cells of `workload` in canonical order, or `None` for an
/// unknown name.
pub fn cells(workload: &str) -> Option<Vec<Cell>> {
    let cell = |id: &str, kind| Cell {
        id: id.to_string(),
        kind,
    };
    Some(match workload {
        "l3_sweep" => figure_cells(9),
        "l2_sweep" => {
            let mut v = figure_cells(7);
            v.extend(figure_cells(8));
            v.extend(figure_cells(10));
            for (label, cfg) in [
                ("vm", MachineConfig::baseline(1)),
                ("nested", MachineConfig::baseline(2)),
                ("nested-dvh", MachineConfig::dvh(2)),
                ("l3", MachineConfig::baseline(3)),
                ("l3-dvh", MachineConfig::dvh(3)),
            ] {
                v.push(cell(&format!("table3/{label}"), Kind::Micro(cfg)));
            }
            for (label, config, include_hv) in [
                ("pv", MachineConfig::baseline(2), false),
                ("dvh", MachineConfig::dvh(2), false),
                ("dvh+hv", MachineConfig::dvh(2), true),
            ] {
                v.push(cell(
                    &format!("migration/{label}"),
                    Kind::Migration { config, include_hv },
                ));
            }
            v.push(cell("migration/pt-refused", Kind::MigrationRefused));
            v
        }
        "observe" => {
            let mut v: Vec<Cell> = fig7_configs()
                .into_iter()
                .map(|(name, cfg)| cell(&format!("check/{name}"), Kind::Check(cfg)))
                .collect();
            v.push(cell("check/pinned-fixture", Kind::PinnedFixture));
            v.extend(
                fig7_configs()
                    .into_iter()
                    .map(|(name, cfg)| cell(&format!("observe/{name}"), Kind::Observed(cfg))),
            );
            v
        }
        _ => return None,
    })
}

fn build(config: &MachineConfig) -> (Machine, u64) {
    let t = Instant::now();
    let m = Machine::build(config.clone());
    (m, t.elapsed().as_nanos() as u64)
}

/// Builds a machine with tracing and metrics armed and its ledger reset,
/// so stats, trace and metrics cover the same window. Returns the
/// machine and the host ns the set-up took.
pub fn observed_machine(config: &MachineConfig) -> (Machine, u64) {
    let t = Instant::now();
    let mut m = Machine::build(config.clone());
    let w = m.world_mut();
    w.enable_observability(TRACE_CAPACITY);
    w.reset_stats();
    (m, t.elapsed().as_nanos() as u64)
}

fn ledger(stats: &RunStats) -> String {
    format!(
        "exits={} interventions={}",
        stats.total_exits(),
        stats.total_interventions()
    )
}

/// Runs one cell. With `spans`, the calls into each layer are timed
/// into it; without, nothing beyond set-up is timed.
pub fn run_cell(cell: &Cell, mut spans: Option<&mut Spans>) -> Outcome {
    match &cell.kind {
        Kind::App(app, cfg) => {
            let (mut m, setup_ns) = build(cfg);
            let overhead = Spans::time(&mut spans, "run_app", || {
                run_app(&mut m, &app.mix(), APP_TXNS).overhead
            });
            let stats = m.world().stats.clone();
            Spans::count(&mut spans, "run_app.exits", stats.total_exits());
            Outcome {
                output: format!("overhead={overhead:.4} {}", ledger(&stats)),
                stats,
                setup_ns,
            }
        }
        Kind::Micro(cfg) => {
            let (mut m, setup_ns) = build(cfg);
            let r = Spans::time(&mut spans, "run_micro", || run_micro(&mut m, 5));
            let stats = m.world().stats.clone();
            Outcome {
                output: format!(
                    "hypercall={} dev_notify={} program_timer={} send_ipi={} {}",
                    r.hypercall,
                    r.dev_notify,
                    r.program_timer,
                    r.send_ipi,
                    ledger(&stats)
                ),
                stats,
                setup_ns,
            }
        }
        Kind::Migration { config, include_hv } => {
            let (mut m, setup_ns) = build(config);
            // The §4 experiment as `harness::migration_experiment` runs
            // it: a working set, then three rounds in which the guest
            // re-dirties twelve pages.
            for i in 0..64u64 {
                m.world_mut().guest_write_memory(
                    0,
                    Gpa::from_pfn(LEAF_BUF_BASE_PFN + (i % 60)),
                    &[i as u8; 256],
                );
            }
            let mut rounds_left = 3;
            let migration = MigrationConfig {
                include_guest_hypervisor: *include_hv,
                ..MigrationConfig::default()
            };
            let report = Spans::time(&mut spans, "migrate", || {
                migrate_nested_vm(m.world_mut(), migration, |w| {
                    if rounds_left > 0 {
                        rounds_left -= 1;
                        for i in 0..12u64 {
                            w.guest_write_memory(
                                0,
                                Gpa::from_pfn(LEAF_BUF_BASE_PFN + i),
                                &[0x5A; 128],
                            );
                        }
                    }
                })
            });
            let stats = m.world().stats.clone();
            let output = match report {
                Ok(r) => {
                    Spans::count(&mut spans, "migrate.pages", r.total_pages);
                    Spans::count(&mut spans, "migrate.rounds", r.rounds.len() as u64);
                    format!(
                        "pages={} rounds={} total_cycles={} downtime_cycles={} verified={} {}",
                        r.total_pages,
                        r.rounds.len(),
                        r.total_time.as_u64(),
                        r.downtime.as_u64(),
                        r.verified,
                        ledger(&stats)
                    )
                }
                Err(e) => format!("error={e:?}"),
            };
            Outcome {
                output,
                stats,
                setup_ns,
            }
        }
        Kind::MigrationRefused => {
            let (mut m, setup_ns) = build(&MachineConfig::passthrough(2));
            let output = match migrate_nested_vm(m.world_mut(), MigrationConfig::default(), |_| {})
            {
                Ok(_) => "migrated".to_string(),
                Err(e) => format!("refused={e:?}"),
            };
            Outcome {
                output,
                stats: m.world().stats.clone(),
                setup_ns,
            }
        }
        Kind::Check(cfg) => {
            let v = Spans::time(&mut spans, "check_machine", || check_machine(cfg.clone()));
            Spans::count(&mut spans, "violations", v.len() as u64);
            Outcome {
                output: format!("violations={}", v.len()),
                ..Outcome::default()
            }
        }
        Kind::PinnedFixture => {
            let v = Spans::time(&mut spans, "pinned_fixture", check_pinned_fixture);
            Spans::count(&mut spans, "violations", v.len() as u64);
            Outcome {
                output: format!("violations={}", v.len()),
                ..Outcome::default()
            }
        }
        Kind::Observed(cfg) => run_observed(cfg, &cell.id, spans),
    }
}

fn run_observed(cfg: &MachineConfig, name: &str, mut spans: Option<&mut Spans>) -> Outcome {
    let (mut m, setup_ns) = observed_machine(cfg);
    let overhead = Spans::time(&mut spans, "run_app", || {
        run_app(&mut m, &AppId::NetperfRr.mix(), OBS_TXNS).overhead
    });
    let w = m.world_mut();
    Spans::count(&mut spans, "run_app.exits", w.stats.total_exits());
    let mut violations = Spans::time(&mut spans, "lint_trace", || {
        lint_trace(w.trace_events(), &TraceContext::for_world(w))
    })
    .len();
    violations += Spans::time(&mut spans, "lint_metrics", || {
        w.metrics()
            .map_or(1, |reg| lint_metrics(reg, &w.stats).len())
    });
    violations += Spans::time(&mut spans, "lint_chrome_export", || {
        lint_chrome_export(w.trace_events(), w.num_cpus(), w.leaf_level(), &w.stats).len()
    });
    violations += Spans::time(&mut spans, "lint_causal", || {
        lint_causal(w.trace_events(), w.num_cpus(), w.trace_dropped(), &w.stats).len()
    });
    Spans::count(&mut spans, "trace_events", w.trace_events().len() as u64);
    Spans::count(&mut spans, "trace_dropped", w.trace_dropped());

    w.export_device_metrics();
    let reg = w.take_metrics().unwrap_or_default();
    let events = w.take_trace();
    let num_cpus = w.num_cpus();
    let jsonl = Spans::time(&mut spans, "jsonl", || trace_export::jsonl(&events));
    let forest = Spans::time(&mut spans, "causal_forest", || {
        trace_export::causal_forest(&events, num_cpus)
    });
    let folded = Spans::time(&mut spans, "folded", || forest.folded());
    let snapshot = Spans::time(&mut spans, "snapshot", || snapshot_json(&reg, name));
    // A snapshot diffed against itself must report no regression.
    violations += Spans::time(&mut spans, "diff", || {
        match dvh_obs::json::parse(&snapshot) {
            Ok(doc) => diff(&doc, &doc, DiffConfig::default())
                .map_or(1, |report| report.regressions().len()),
            Err(_) => 1,
        }
    });
    // Every export must have produced something.
    violations += [jsonl.is_empty(), folded.is_empty()]
        .iter()
        .filter(|empty| **empty)
        .count();
    Spans::count(&mut spans, "violations", violations as u64);
    let stats = m.world().stats.clone();
    Outcome {
        output: format!(
            "violations={violations} overhead={overhead:.4} {}",
            ledger(&stats)
        ),
        stats,
        setup_ns,
    }
}

/// A SplitMix64 step: the benchmark's seeded generator.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE5_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Shuffles `cells` in place (Fisher–Yates), drawing from the
/// generator `state`. The seed decides only the order cells run in,
/// never what any cell computes.
pub fn permute(cells: &mut [Cell], state: &mut u64) {
    for i in (1..cells.len()).rev() {
        let j = (splitmix64(state) % (i as u64 + 1)) as usize;
        cells.swap(i, j);
    }
}
