//! Experiment definitions shared by the harness binaries, `dvh sweep`
//! and the `hostbench/` benchmark.

use dvh_core::{Machine, MachineConfig};
use dvh_migration::{migrate_nested_vm, MigrationConfig};
use dvh_workloads::figures::{figure_spec, table3_configs};
use dvh_workloads::{run_app, run_micro, AppId};

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

/// Runs Table 3: the four microbenchmarks in the five configurations.
pub fn table3() -> Vec<Table3Row> {
    table3_with_workers(1)
}

/// [`table3`] with the five configurations fanned out over `workers`
/// OS threads. Each configuration's machine is built and run entirely
/// inside its worker; only the plain-data [`MachineConfig`] crosses
/// the thread boundary, and rows come back in canonical config order,
/// so the result is identical to the serial one.
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

/// A figure row: one application's overhead in each configuration.
#[derive(Debug, Clone)]
pub struct FigRow {
    /// Application name.
    pub app: &'static str,
    /// Overheads, one per configuration column.
    pub overheads: Vec<f64>,
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

fn run_figure(title: &'static str, configs: Vec<(&'static str, MachineConfig)>) -> Figure {
    run_figure_with_workers(title, configs, 1)
}

/// Runs one figure with its (application, configuration) cross
/// product fanned out over `workers` OS threads.
///
/// Every cell is an independent single-threaded simulation — it
/// builds its own [`Machine`] from a cloned config inside the worker
/// and shares nothing — so scheduling order cannot affect any cell's
/// result, and reassembling the flat results in (row, column) order
/// makes the whole figure byte-identical to a serial run.
fn run_figure_with_workers(
    title: &'static str,
    configs: Vec<(&'static str, MachineConfig)>,
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
    let overheads = crate::parallel::pmap_with_workers(workers, &cells, |(app, cfg)| {
        let mut m = Machine::build(cfg.clone());
        run_app(&mut m, &app.mix(), APP_TXNS).overhead
    });
    let rows = AppId::ALL
        .iter()
        .enumerate()
        .map(|(i, app)| FigRow {
            app: app.mix().name,
            overheads: overheads[i * configs.len()..(i + 1) * configs.len()].to_vec(),
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
    figure_spec(figure).map(|(title, configs)| run_figure_with_workers(title, configs, workers))
}

/// Fig. 7: application performance at two virtualization levels,
/// six configurations.
pub fn fig7() -> Figure {
    let (title, configs) = figure_spec(7).expect("figure 7 is defined");
    run_figure(title, configs)
}

/// Fig. 8: the incremental DVH technique breakdown.
pub fn fig8() -> Figure {
    let (title, configs) = figure_spec(8).expect("figure 8 is defined");
    run_figure(title, configs)
}

/// Fig. 9: application performance with three levels of
/// virtualization.
pub fn fig9() -> Figure {
    let (title, configs) = figure_spec(9).expect("figure 9 is defined");
    run_figure(title, configs)
}

/// Fig. 10: the Xen guest hypervisor on a KVM host (DVH-VP only — Xen
/// is DVH-unaware, but virtual-passthrough needs no guest hypervisor
/// modifications).
pub fn fig10() -> Figure {
    let (title, configs) = figure_spec(10).expect("figure 10 is defined");
    run_figure(title, configs)
}

/// One migration experiment result.
#[derive(Debug, Clone)]
pub struct MigrationRow {
    /// Scenario label.
    pub scenario: &'static str,
    /// Total migration time in seconds.
    pub total_secs: f64,
    /// Downtime in milliseconds.
    pub downtime_ms: f64,
    /// Pages transferred.
    pub pages: u64,
    /// Whether the destination verified identical.
    pub verified: bool,
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
            total_secs: report.total_time.as_secs_f64(),
            downtime_ms: report.downtime.as_secs_f64() * 1e3,
            pages: report.total_pages,
            verified: report.verified,
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

/// Prints a figure as an aligned text table.
pub fn print_figure(fig: &Figure) {
    println!("{}", fig.title);
    print!("{:<16}", "app");
    for c in &fig.columns {
        print!(" {c:>11}");
    }
    println!();
    for row in &fig.rows {
        print!("{:<16}", row.app);
        for o in &row.overheads {
            print!(" {o:>10.2}x");
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_shape_holds() {
        let rows = table3();
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
        let pv = rows[0].total_secs;
        let dvh = rows[1].total_secs;
        let both = rows[2].total_secs;
        assert!((dvh / pv) < 1.3 && (pv / dvh) < 1.3);
        assert!(both / dvh > 1.5);
    }
}
