//! Experiment definitions shared by `dvh repro`, `dvh sweep` and the
//! `hostbench/` benchmark.

use dvh_arch::Cycles;
use dvh_core::{Machine, MachineConfig};
use dvh_migration::{migrate_nested_vm, MigrationConfig};
use dvh_workloads::figures::{figure_spec, table3_configs};
use dvh_workloads::{run_app, run_micro, AppId, MicroResults};

/// Transactions per application measurement (large enough for the
/// fractional event accumulators to settle).
pub const APP_TXNS: u32 = 400;

/// One row of Table 3.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Configuration label, as in the paper's column headers.
    pub config: &'static str,
    /// Microbenchmark costs in cycles.
    pub hypercall: u64,
    /// DevNotify cost.
    pub dev_notify: u64,
    /// ProgramTimer cost.
    pub program_timer: u64,
    /// SendIPI cost.
    pub send_ipi: u64,
}

/// The paper's Table 3 values, for side-by-side printing.
pub const TABLE3_PAPER: [Table3Row; 5] = [
    Table3Row {
        config: "VM",
        hypercall: 1_575,
        dev_notify: 4_984,
        program_timer: 2_005,
        send_ipi: 3_273,
    },
    Table3Row {
        config: "nested VM",
        hypercall: 37_733,
        dev_notify: 48_390,
        program_timer: 43_359,
        send_ipi: 39_456,
    },
    Table3Row {
        config: "nested VM + DVH",
        hypercall: 38_743,
        dev_notify: 13_815,
        program_timer: 3_247,
        send_ipi: 5_116,
    },
    Table3Row {
        config: "L3 VM",
        hypercall: 857_578,
        dev_notify: 1_008_935,
        program_timer: 1_033_946,
        send_ipi: 787_971,
    },
    Table3Row {
        config: "L3 VM + DVH",
        hypercall: 929_724,
        dev_notify: 15_150,
        program_timer: 3_304,
        send_ipi: 5_228,
    },
];

/// Runs Table 3, the four microbenchmarks in the five configurations,
/// with the configurations fanned out over `workers` OS threads. Each
/// configuration's machine is built and run entirely inside its
/// worker; only the plain-data [`MachineConfig`] crosses the thread
/// boundary, and rows come back in canonical config order, so the
/// result is identical to the serial one.
pub fn table3_with_workers(workers: usize) -> Vec<Table3Row> {
    let configs = table3_configs();
    crate::parallel::pmap_with_workers(workers, &configs, |(name, cfg)| {
        let mut m = Machine::build(cfg.clone());
        let r = run_micro(&mut m, 5);
        Table3Row {
            config: name,
            hypercall: r.hypercall,
            dev_notify: r.dev_notify,
            program_timer: r.program_timer,
            send_ipi: r.send_ipi,
        }
    })
}

/// The exact ledger totals a simulated cell leaves on its machine, in
/// [`Counters::COLUMNS`] order: the totals the checker's pinned
/// fixture compares, then exits from L1 to L3 (the deepest level any
/// artifact runs) and interventions by the guest hypervisors at L1 and
/// L2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counters(pub [u64; 10]);

impl Counters {
    /// The name of each counter; `cycles` are the cycles attributed to
    /// outermost exits and `now0` is CPU 0's simulated clock.
    pub const COLUMNS: [&'static str; 10] = [
        "exits",
        "interventions",
        "dvh",
        "cycles",
        "now0",
        "exits.L1",
        "exits.L2",
        "exits.L3",
        "interventions.L1",
        "interventions.L2",
    ];

    /// What `m`'s run has recorded so far.
    pub fn of(m: &Machine) -> Counters {
        let s = &m.world().stats;
        Counters([
            s.total_exits(),
            s.total_interventions(),
            s.total_dvh_intercepts(),
            s.total_attributed_cycles().as_u64(),
            m.now(0).as_u64(),
            s.exits_from_level(1),
            s.exits_from_level(2),
            s.exits_from_level(3),
            s.interventions.get(1),
            s.interventions.get(2),
        ])
    }
}

impl std::fmt::Display for Counters {
    /// The counters as tab-separated integers.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0.map(|n| n.to_string()).join("\t"))
    }
}

/// A figure row: one application's overhead in each configuration.
#[derive(Debug, Clone)]
pub struct FigRow {
    /// Application name.
    pub app: &'static str,
    /// Overheads, one per configuration column.
    pub overheads: Vec<f64>,
    /// Each cell's machine counters after the run, one per column.
    pub counters: Vec<Counters>,
}

/// A complete figure: column headers plus rows.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Figure label.
    pub title: &'static str,
    /// Configuration column headers.
    pub columns: Vec<&'static str>,
    /// One row per application.
    pub rows: Vec<FigRow>,
}

impl Figure {
    /// Renders the figure as CSV: a header row, then one row per
    /// application with overheads to four decimal places. This is the
    /// canonical byte representation the determinism test compares
    /// across worker counts.
    pub fn to_csv(&self) -> String {
        let mut out = format!("app,{}\n", self.columns.join(","));
        for row in &self.rows {
            let cells: Vec<String> = row.overheads.iter().map(|o| format!("{o:.4}")).collect();
            out.push_str(&format!("{},{}\n", row.app, cells.join(",")));
        }
        out
    }
}

/// Runs `txns` transactions of every application on every one of
/// `configs`, with the (application, configuration) cross product
/// fanned out over `workers` OS threads.
///
/// Every cell is an independent single-threaded simulation — it
/// builds its own [`Machine`] from a cloned config inside the worker
/// and shares nothing — so scheduling order cannot affect any cell's
/// result, and reassembling the flat results in (row, column) order
/// makes the whole figure byte-identical to a serial run.
fn run_figure_with_workers(
    title: &'static str,
    configs: Vec<(&'static str, MachineConfig)>,
    txns: u32,
    workers: usize,
) -> Figure {
    let columns: Vec<&'static str> = configs.iter().map(|(n, _)| *n).collect();
    // Flatten to one work item per cell: cells differ ~30x in cost
    // (VM vs L3), so scheduling cells — not rows — keeps all workers
    // busy until the tail.
    let cells: Vec<(AppId, MachineConfig)> = AppId::ALL
        .iter()
        .flat_map(|app| configs.iter().map(move |(_, cfg)| (*app, cfg.clone())))
        .collect();
    let results = crate::parallel::pmap_with_workers(workers, &cells, |(app, cfg)| {
        let mut m = Machine::build(cfg.clone());
        let overhead = run_app(&mut m, &app.mix(), txns).overhead;
        (overhead, Counters::of(&m))
    });
    let rows = AppId::ALL
        .iter()
        .zip(results.chunks(configs.len()))
        .map(|(app, cells)| FigRow {
            app: app.mix().name,
            overheads: cells.iter().map(|(o, _)| *o).collect(),
            counters: cells.iter().map(|(_, c)| *c).collect(),
        })
        .collect();
    Figure {
        title,
        columns,
        rows,
    }
}

/// Regenerates figure 7, 8, 9, or 10 with its cells fanned out over
/// `workers` threads (`None` for an unknown figure number). The
/// figure is byte-identical at any worker count.
pub fn figure_with_workers(figure: u32, workers: usize) -> Option<Figure> {
    let (title, configs) = figure_spec(figure)?;
    Some(run_figure_with_workers(title, configs, APP_TXNS, workers))
}

/// The ARM experiment the paper ran but omitted for space, with a
/// KVM/ARM guest hypervisor: microbenchmark cycles per configuration,
/// and application overhead under paravirtual I/O, passthrough and
/// DVH-VP, its cells fanned out over `workers` threads.
pub fn arm_experiment(workers: usize) -> ([(&'static str, MicroResults); 3], Figure) {
    let configs = vec![
        ("VM", MachineConfig::arm_baseline(1)),
        ("nested", MachineConfig::arm_baseline(2)),
        ("nested+PT", MachineConfig::arm_passthrough(2)),
        ("DVH-VP", MachineConfig::arm_dvh_vp(2)),
    ];
    let micro = [("VM", 0), ("nested VM", 1), ("nested + DVH-VP", 3)].map(|(name, i)| {
        let mut m = Machine::build(configs[i].1.clone());
        (name, run_micro(&mut m, 3))
    });
    let apps = run_figure_with_workers("Application overhead vs native:", configs, 300, workers);
    (micro, apps)
}

/// One migration experiment result.
#[derive(Debug, Clone)]
pub struct MigrationRow {
    /// Scenario label.
    pub scenario: &'static str,
    /// Total migration time.
    pub total: Cycles,
    /// Downtime.
    pub downtime: Cycles,
    /// Pages transferred.
    pub pages: u64,
    /// Whether the destination verified identical.
    pub verified: bool,
    /// The source machine's counters after the migration.
    pub counters: Counters,
}

/// The §4 migration experiment: nested-VM migration under paravirtual
/// I/O vs DVH, and the L1-VM-with-guest-hypervisor case. Passthrough
/// is reported as unmigratable.
pub fn migration_experiment() -> (Vec<MigrationRow>, &'static str) {
    let dirty_pages = 64u64;
    let scenarios: [(&'static str, MachineConfig, bool); 3] = [
        (
            "nested VM, paravirtual I/O",
            MachineConfig::baseline(2),
            false,
        ),
        ("nested VM, DVH", MachineConfig::dvh(2), false),
        (
            "nested VM + guest hypervisor, DVH",
            MachineConfig::dvh(2),
            true,
        ),
    ];
    let mut rows = Vec::new();
    for (name, cfg, include_hv) in scenarios {
        let mut m = Machine::build(cfg);
        // Give the VM a working set.
        for i in 0..dirty_pages {
            m.world_mut().guest_write_memory(
                0,
                dvh_memory::Gpa::from_pfn(dvh_hypervisor::world::LEAF_BUF_BASE_PFN + (i % 60)),
                &[i as u8; 256],
            );
        }
        let mut rounds_left = 3;
        let report = migrate_nested_vm(
            m.world_mut(),
            MigrationConfig {
                include_guest_hypervisor: include_hv,
                ..MigrationConfig::default()
            },
            |w| {
                if rounds_left > 0 {
                    rounds_left -= 1;
                    for i in 0..12u64 {
                        w.guest_write_memory(
                            0,
                            dvh_memory::Gpa::from_pfn(dvh_hypervisor::world::LEAF_BUF_BASE_PFN + i),
                            &[0x5A; 128],
                        );
                    }
                }
            },
        )
        .expect("migratable configuration");
        rows.push(MigrationRow {
            scenario: name,
            total: report.total_time,
            downtime: report.downtime,
            pages: report.total_pages,
            verified: report.verified,
            counters: Counters::of(&m),
        });
    }
    // And the negative result.
    let mut pt = Machine::build(MachineConfig::passthrough(2));
    let err = migrate_nested_vm(pt.world_mut(), MigrationConfig::default(), |_| {})
        .expect_err("passthrough must refuse");
    debug_assert_eq!(err, dvh_migration::MigrationError::PassthroughNotMigratable);
    (
        rows,
        "nested VM, passthrough: migration not possible (no I/O interposition)",
    )
}

/// One recursion-depth measurement.
#[derive(Debug, Clone)]
pub struct RecursionRow {
    /// Virtualization depth (1 = plain VM).
    pub levels: usize,
    /// Vanilla hypercall cost (cycles).
    pub hypercall: u64,
    /// Vanilla ProgramTimer cost.
    pub timer: u64,
    /// ProgramTimer with recursive DVH.
    pub timer_dvh: u64,
}

/// The §3.5 extension experiment: exit multiplication keeps compounding
/// beyond L3 (where real KVM stops), while recursive DVH stays flat at
/// any depth.
pub fn recursion_experiment(max_levels: usize) -> Vec<RecursionRow> {
    (1..=max_levels)
        .map(|levels| {
            let mut base = Machine::build(MachineConfig::baseline(levels));
            let hypercall = base.hypercall(0).as_u64();
            let timer = base.program_timer(0).as_u64();
            let mut dvh = Machine::build(MachineConfig::dvh(levels));
            let timer_dvh = dvh.program_timer(0).as_u64();
            RecursionRow {
                levels,
                hypercall,
                timer,
                timer_dvh,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_shape_holds() {
        let rows = table3_with_workers(1);
        assert_eq!(rows.len(), 5);
        let vm = &rows[0];
        let nested = &rows[1];
        let dvh = &rows[2];
        assert!(nested.hypercall > 20 * vm.hypercall);
        assert!(dvh.program_timer < nested.program_timer / 10);
        assert!(dvh.send_ipi < nested.send_ipi / 5);
        assert!(dvh.hypercall >= nested.hypercall);
    }

    #[test]
    fn recursion_grows_then_dvh_flattens() {
        let rows = recursion_experiment(8);
        for pair in rows.windows(2) {
            assert!(
                pair[1].hypercall > 10 * pair[0].hypercall,
                "L{}={} vs L{}={}",
                pair[1].levels,
                pair[1].hypercall,
                pair[0].levels,
                pair[0].hypercall
            );
        }
        // DVH timer flat from L2 on.
        let t2 = rows[1].timer_dvh;
        for r in &rows[2..] {
            assert!(r.timer_dvh.abs_diff(t2) * 10 <= t2);
        }
    }

    #[test]
    fn migration_rows_verify() {
        let (rows, note) = migration_experiment();
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.verified));
        assert!(note.contains("not possible"));
        // DVH vs paravirtual roughly equal; +hv roughly double.
        let pv = rows[0].total.as_secs_f64();
        let dvh = rows[1].total.as_secs_f64();
        let both = rows[2].total.as_secs_f64();
        assert!((dvh / pv) < 1.3 && (pv / dvh) < 1.3);
        assert!(both / dvh > 1.5);
    }
}
