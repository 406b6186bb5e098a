//! Every reproduced artifact of the paper's evaluation, as one table.
//!
//! [`ARTIFACTS`] has a row per artifact: its name (the word `dvh repro`
//! takes and the stem of its `tests/golden/` file), a one-line summary
//! and a render function. Render functions read a shared
//! [`Evaluation`], which runs each experiment at most once per process:
//! `summary`, the figures, `recursion` and `exact` all print from the
//! same runs.

use crate::harness::{self, Counters, Figure, MigrationRow, RecursionRow, Table3Row, TABLE3_PAPER};
use dvh_arch::costs::CostModel;
use dvh_core::{Machine, MachineConfig};
use dvh_hypervisor::{World, WorldConfig};
use dvh_workloads::MicroResults;
use std::cell::OnceCell;
use std::io::{self, Write};

/// One reproduced artifact.
pub struct Artifact {
    /// `dvh repro <name>` prints `tests/golden/<name>.txt`.
    pub name: &'static str,
    /// What it reproduces, in one line.
    pub summary: &'static str,
    /// Writes the artifact from `eval`'s shared experiment runs.
    pub render: fn(eval: &Evaluation, out: &mut dyn Write) -> io::Result<()>,
}

/// Every artifact, in the order `dvh repro --help` lists them.
#[rustfmt::skip]
pub const ARTIFACTS: &[Artifact] = &[
    Artifact { name: "summary", summary: "the whole evaluation at once", render: summary },
    Artifact { name: "table3", summary: "Table 3: microbenchmark cycles", render: table3 },
    Artifact { name: "fig7", summary: "Fig. 7: apps, nested VM", render: |e, o| figure(e, 7, o) },
    Artifact { name: "fig8", summary: "Fig. 8: incremental DVH breakdown", render: |e, o| figure(e, 8, o) },
    Artifact { name: "fig9", summary: "Fig. 9: apps, L3 VM", render: |e, o| figure(e, 9, o) },
    Artifact { name: "fig10", summary: "Fig. 10: Xen guest hypervisor", render: |e, o| figure(e, 10, o) },
    Artifact { name: "recursion", summary: "Section 3.5 extension: L1 to L10", render: recursion },
    Artifact { name: "migration", summary: "Section 4 migration experiment", render: migration },
    Artifact { name: "ablations", summary: "design-choice ablations", render: ablations },
    Artifact { name: "arm", summary: "the ARM results Section 4 omits", render: arm },
    Artifact { name: "exact", summary: "exact counters behind every rounded value", render: exact },
];

/// The experiment runs the artifacts print, each run on first use and
/// then shared.
#[derive(Default)]
pub struct Evaluation {
    workers: usize,
    table3: OnceCell<Vec<Table3Row>>,
    /// Figs. 7 to 10.
    figures: [OnceCell<Figure>; 4],
    arm: OnceCell<([(&'static str, MicroResults); 3], Figure)>,
    migration: OnceCell<(Vec<MigrationRow>, &'static str)>,
    recursion: OnceCell<Vec<RecursionRow>>,
}

impl Evaluation {
    /// No experiment run yet; sweeps fan their cells out over
    /// `workers` threads. Every artifact is byte-identical at any
    /// worker count.
    pub fn new(workers: usize) -> Evaluation {
        Evaluation {
            workers,
            ..Evaluation::default()
        }
    }

    fn table3(&self) -> &[Table3Row] {
        let run = || harness::table3_with_workers(self.workers);
        self.table3.get_or_init(run)
    }

    /// Figure `n`, 7 to 10.
    fn figure(&self, n: u32) -> &Figure {
        let run = || harness::figure_with_workers(n, self.workers).expect("figure is defined");
        self.figures[n as usize - 7].get_or_init(run)
    }

    fn arm(&self) -> &([(&'static str, MicroResults); 3], Figure) {
        self.arm
            .get_or_init(|| harness::arm_experiment(self.workers))
    }

    fn migration(&self) -> &(Vec<MigrationRow>, &'static str) {
        self.migration.get_or_init(harness::migration_experiment)
    }

    /// L1 to L10.
    fn recursion(&self) -> &[RecursionRow] {
        self.recursion
            .get_or_init(|| harness::recursion_experiment(10))
    }
}

/// Figure `n`, 7 to 10, as an aligned text table.
fn figure(eval: &Evaluation, n: u32, out: &mut dyn Write) -> io::Result<()> {
    let fig = eval.figure(n);
    write!(out, "{}\n{:<16}", fig.title, "app")?;
    for c in &fig.columns {
        write!(out, " {c:>11}")?;
    }
    for row in &fig.rows {
        write!(out, "\n{:<16}", row.app)?;
        for o in &row.overheads {
            write!(out, " {o:>10.2}x")?;
        }
    }
    writeln!(out)
}

fn summary(eval: &Evaluation, out: &mut dyn Write) -> io::Result<()> {
    let title = "DVH reproduction — full evaluation (deterministic)\n\n\
        Table 3: microbenchmarks (cycles; paper values in parentheses)";
    writeln!(out, "{title}")?;
    for (m, p) in eval.table3().iter().zip(TABLE3_PAPER.iter()) {
        writeln!(
            out,
            "  {:<18} hc {:>9} ({:>9})  dev {:>9} ({:>9})  timer {:>9} ({:>9})  ipi {:>7} ({:>7})",
            m.config,
            m.hypercall,
            p.hypercall,
            m.dev_notify,
            p.dev_notify,
            m.program_timer,
            p.program_timer,
            m.send_ipi,
            p.send_ipi
        )?;
    }
    for n in [7, 8, 9, 10] {
        writeln!(out)?;
        figure(eval, n, out)?;
    }
    writeln!(out, "\nMigration (268 Mb/s):")?;
    let (rows, note) = eval.migration();
    for r in rows {
        let (total, downtime) = (r.total.as_secs_f64(), r.downtime.as_secs_f64() * 1e3);
        writeln!(
            out,
            "  {:<40} {total:.3} s total, {downtime:.2} ms downtime, {} pages, verified={}",
            r.scenario, r.pages, r.verified
        )?;
    }
    let title = "Recursion (hypercall cycles by depth; DVH timer stays flat):";
    writeln!(out, "  {note}\n\n{title}")?;
    // Each level's row is its own machines' run, so the first five
    // rows of the L1–L10 run are the rows an L1–L5 run prints.
    for r in &eval.recursion()[..5] {
        writeln!(
            out,
            "  L{}: hypercall {:>12}  timer {:>12}  timer+DVH {:>6}",
            r.levels, r.hypercall, r.timer, r.timer_dvh
        )?;
    }
    Ok(())
}

fn table3(eval: &Evaluation, out: &mut dyn Write) -> io::Result<()> {
    let row = |out: &mut dyn Write, r: &Table3Row| {
        writeln!(
            out,
            "{:<18} {:>10} {:>10} {:>12} {:>10}",
            r.config, r.hypercall, r.dev_notify, r.program_timer, r.send_ipi
        )
    };
    writeln!(
        out,
        "Table 3: Microbenchmark performance in CPU cycles\n\
         {:<18} {:>10} {:>10} {:>12} {:>10}\n--- measured (this simulator) ---",
        "config", "Hypercall", "DevNotify", "ProgramTimer", "SendIPI"
    )?;
    for r in eval.table3() {
        row(out, r)?;
    }
    writeln!(out, "--- paper (Lim & Nieh, ASPLOS 2020) ---")?;
    for r in &TABLE3_PAPER {
        row(out, r)?;
    }
    writeln!(out, "--- measured / paper ---")?;
    for (m, p) in eval.table3().iter().zip(TABLE3_PAPER.iter()) {
        writeln!(
            out,
            "{:<18} {:>9.2}x {:>9.2}x {:>11.2}x {:>9.2}x",
            m.config,
            m.hypercall as f64 / p.hypercall as f64,
            m.dev_notify as f64 / p.dev_notify as f64,
            m.program_timer as f64 / p.program_timer as f64,
            m.send_ipi as f64 / p.send_ipi as f64,
        )?;
    }
    Ok(())
}

/// Exit multiplication keeps compounding with depth, while recursive
/// DVH stays flat. Real KVM stops at L3; exit summaries make L10 cheap,
/// and the checker certifies them against full recursion up to L6.
fn recursion(eval: &Evaluation, out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "Exit multiplication vs recursive DVH (cycles)\n{:<8} {:>18} {:>18} {:>18} {:>10}",
        "levels", "Hypercall", "ProgramTimer", "Timer+DVH", "growth"
    )?;
    let mut prev = None;
    for r in eval.recursion() {
        let growth = prev
            .map(|p: u64| format!("{:.1}x", r.hypercall as f64 / p as f64))
            .unwrap_or_else(|| "-".into());
        writeln!(
            out,
            "L{:<7} {:>18} {:>18} {:>18} {:>10}",
            r.levels, r.hypercall, r.timer, r.timer_dvh, growth
        )?;
        prev = Some(r.hypercall);
    }
    Ok(())
}

fn migration(eval: &Evaluation, out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "Live migration of nested VMs (268 Mb/s, QEMU default cap)\n\
         {:<40} {:>10} {:>12} {:>8} {:>9}",
        "scenario", "total (s)", "downtime(ms)", "pages", "verified"
    )?;
    let (rows, note) = eval.migration();
    for r in rows {
        let (total, downtime) = (r.total.as_secs_f64(), r.downtime.as_secs_f64() * 1e3);
        writeln!(
            out,
            "{:<40} {total:>10.3} {downtime:>12.2} {:>8} {:>9}",
            r.scenario, r.pages, r.verified
        )?;
    }
    writeln!(out, "{note}")
}

/// Four design choices perturbed one at a time; each section prints
/// its conclusion (shadowing, §5, leaves every intervention in place).
fn ablations(_: &Evaluation, out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "== Ablation 1: VMCS shadowing ==")?;
    for shadowing in [true, false] {
        let mut cfg = MachineConfig::baseline(2);
        cfg.world.vmcs_shadowing = shadowing;
        let mut m = Machine::build(cfg);
        let c = m.hypercall(0).as_u64();
        let iv = m.world().stats.total_interventions();
        writeln!(
            out,
            "  shadowing {shadowing:<5} L2 hypercall = {c:>7} cycles, interventions = {iv}"
        )?;
    }
    writeln!(
        out,
        "  -> shadowing cuts cost but interventions remain (DVH removes them).\n\n\
         == Ablation 2: hardware transition cost sensitivity =="
    )?;
    for scale in [1u64, 2, 4] {
        let mut costs = CostModel::calibrated();
        costs.vmexit_to_root = costs.vmexit_to_root * scale;
        costs.vmentry_from_root = costs.vmentry_from_root * scale;
        let hypercall = |levels| {
            let world = WorldConfig::baseline(levels);
            let costs = costs.clone();
            Machine::build(MachineConfig { world, costs })
                .hypercall(0)
                .as_u64()
        };
        let (l1, l2) = (hypercall(1), hypercall(2));
        writeln!(
            out,
            "  exit/entry x{scale}: L1 = {l1:>6}, L2 = {l2:>7}, ratio = {:.1}x",
            l2 as f64 / l1 as f64
        )?;
    }
    writeln!(
        out,
        "  -> the ~24x blow-up is structural, not a slow-hardware artifact.\n\n\
         == Ablation 3: guest hypervisor world-switch footprint =="
    )?;
    for extra_cold in [0usize, 4, 8] {
        let mut w = World::new(CostModel::calibrated(), WorldConfig::baseline(2));
        let cold_reads = &mut w.profile_mut().cold_reads;
        cold_reads.extend([dvh_arch::vmx::field::HOST_RIP].repeat(extra_cold));
        let c = w.guest_hypercall(0).as_u64();
        writeln!(
            out,
            "  +{extra_cold} cold VMCS reads per exit: L2 hypercall = {c:>7} cycles"
        )?;
    }
    writeln!(
        out,
        "  -> every additional trapping operation in the guest hypervisor's\n     \
         handler costs a full L0 round trip; the footprint IS the overhead.\n\n\
         == Ablation 4: timer interrupt delivery path =="
    )?;
    let delivery = |cfg, posted| {
        let mut m = Machine::build(cfg);
        let t0 = m.now(0);
        m.world_mut().fire_timer(0, posted);
        (m.now(0) - t0).as_u64()
    };
    let posted = delivery(MachineConfig::dvh(2), true);
    let forwarded = delivery(MachineConfig::baseline(2), false);
    writeln!(
        out,
        "  DVH direct (posted) delivery: {posted} cycles | \
         forwarded through the guest hypervisor: {forwarded} cycles ({:.1}x)",
        forwarded as f64 / posted as f64
    )
}

/// The ARM experiment §4 mentions but omits for space ("DVH-VP also
/// significantly improved performance on ARM since I/O models are
/// platform-agnostic"), reconstructed with a KVM/ARM guest hypervisor.
fn arm(eval: &Evaluation, out: &mut dyn Write) -> io::Result<()> {
    let (micro, apps) = eval.arm();
    let title = "ARM64 (KVM/ARM guest hypervisor, GICv4, generic timers)";
    writeln!(out, "{title}\n\nMicrobenchmarks (cycles):")?;
    for (name, r) in micro {
        writeln!(
            out,
            "  {name:<16} hvc={:>7} devnotify={:>7} timer={:>7} sgi={:>7}",
            r.hypercall, r.dev_notify, r.program_timer, r.send_ipi
        )?;
    }
    writeln!(
        out,
        "\n{}\n{:<16} {:>8} {:>8} {:>10} {:>10}",
        apps.title, "app", "VM", "nested", "nested+PT", "DVH-VP"
    )?;
    for row in &apps.rows {
        let o = &row.overheads;
        writeln!(
            out,
            "{:<16} {:>7.2}x {:>7.2}x {:>9.2}x {:>9.2}x",
            row.app, o[0], o[1], o[2], o[3]
        )?;
    }
    writeln!(
        out,
        "\nI/O models are platform-agnostic: virtual-passthrough removes the\n\
         guest hypervisor from the I/O path on ARM exactly as it does on x86."
    )
}

/// The integers behind every value another artifact rounds: each Fig.
/// 7–10 and ARM application cell's machine counters, then each
/// migration scenario's times in cycles and its machine counters.
fn exact(eval: &Evaluation, out: &mut dyn Write) -> io::Result<()> {
    let columns = Counters::COLUMNS.join("\t");
    writeln!(out, "artifact\tapp\tconfig\t{columns}")?;
    let figures = [7, 8, 9, 10].map(|n| (format!("fig{n}"), eval.figure(n)));
    let arm = ("arm".to_string(), &eval.arm().1);
    for (name, fig) in figures.into_iter().chain([arm]) {
        for row in &fig.rows {
            for (config, counters) in fig.columns.iter().zip(&row.counters) {
                writeln!(out, "{name}\t{}\t{config}\t{counters}", row.app)?;
            }
        }
    }
    writeln!(
        out,
        "artifact\tscenario\ttotal_cycles\tdowntime_cycles\t{columns}"
    )?;
    for r in &eval.migration().0 {
        let (total, downtime) = (r.total.as_u64(), r.downtime.as_u64());
        let counters = r.counters;
        writeln!(
            out,
            "migration\t{}\t{total}\t{downtime}\t{counters}",
            r.scenario
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every committed golden output, by artifact name.
    const GOLDEN: &[(&str, &str)] = &[
        ("summary", include_str!("../../../tests/golden/summary.txt")),
        ("table3", include_str!("../../../tests/golden/table3.txt")),
        ("fig7", include_str!("../../../tests/golden/fig7.txt")),
        ("fig8", include_str!("../../../tests/golden/fig8.txt")),
        ("fig9", include_str!("../../../tests/golden/fig9.txt")),
        ("fig10", include_str!("../../../tests/golden/fig10.txt")),
        (
            "recursion",
            include_str!("../../../tests/golden/recursion.txt"),
        ),
        (
            "migration",
            include_str!("../../../tests/golden/migration.txt"),
        ),
        (
            "ablations",
            include_str!("../../../tests/golden/ablations.txt"),
        ),
        ("arm", include_str!("../../../tests/golden/arm.txt")),
        ("exact", include_str!("../../../tests/golden/exact.txt")),
    ];

    #[test]
    fn every_artifact_matches_its_golden_file() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden");
        let mut files: Vec<String> = std::fs::read_dir(dir)
            .expect("tests/golden is readable")
            .map(|e| e.expect("directory entry").file_name())
            .map(|name| name.to_string_lossy().into_owned())
            .collect();
        files.sort();
        let mut rows: Vec<String> = ARTIFACTS
            .iter()
            .map(|a| format!("{}.txt", a.name))
            .collect();
        rows.sort();
        assert_eq!(
            files, rows,
            "every golden file needs a row, every row a file"
        );

        let eval = Evaluation::new(crate::parallel::available_workers());
        for a in ARTIFACTS {
            let (_, golden) = GOLDEN.iter().find(|(n, _)| *n == a.name).expect("golden");
            let mut out = Vec::new();
            (a.render)(&eval, &mut out).expect("rendering into memory cannot fail");
            let out = String::from_utf8(out).expect("artifacts are UTF-8");
            let first_difference = golden
                .lines()
                .zip(out.lines())
                .position(|(g, o)| g != o)
                .unwrap_or(golden.lines().count().min(out.lines().count()));
            assert!(
                out == *golden,
                "{}: line {} differs from tests/golden/{}.txt\n  golden: {:?}\n  now:    {:?}",
                a.name,
                first_difference + 1,
                a.name,
                golden.lines().nth(first_difference),
                out.lines().nth(first_difference),
            );
        }
    }
}
