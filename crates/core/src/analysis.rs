//! Post-run analysis: turn the exit ledger and cycle attribution into
//! the kind of breakdown the paper's discussion sections give ("the
//! root cause of the overhead is exits from the nested VM to the guest
//! hypervisor").
//!
//! [`attribution`] and [`render_table`] are the one (level, reason)
//! attribution table: `dvh explain` prints it under its summary lines,
//! and `dvh profile` prints it for an observed run.

use dvh_arch::vmx::ExitReason;
use dvh_arch::Cycles;
use dvh_hypervisor::{RunStats, World};
use std::fmt::{self, Write as _};

/// One attribution row: the outermost exits of one (level, reason)
/// and the cycles spent handling them, including every nested trap.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribution {
    /// Level the outermost exits came from.
    pub level: usize,
    /// Their reason.
    pub reason: ExitReason,
    /// Number of such exits.
    pub count: u64,
    /// Total cycles attributed to them.
    pub cycles: u64,
    /// Mean cycles per exit.
    pub mean: u64,
    /// Share of all attributed cycles, in percent.
    pub percent: f64,
}

/// The attribution rows of a run's ledger (`cycles_by_reason` and
/// `outermost_exits`), most cycles first; ties keep (level, reason)
/// order, so the table is deterministic.
pub fn attribution(stats: &RunStats) -> Vec<Attribution> {
    let total = stats.total_attributed_cycles().as_u64();
    let mut rows: Vec<Attribution> = stats
        .cycles_by_reason
        .iter()
        .map(|((level, reason), c)| {
            let (count, cycles) = (stats.outermost_exits.get(level, reason), c.as_u64());
            Attribution {
                level,
                reason,
                count,
                cycles,
                mean: cycles.checked_div(count).unwrap_or(0),
                percent: if total == 0 {
                    0.0
                } else {
                    cycles as f64 * 100.0 / total as f64
                },
            }
        })
        .collect();
    // Stable: the ledger yields (level, reason) order, which ties keep.
    rows.sort_by_key(|r| std::cmp::Reverse(r.cycles));
    rows
}

/// Renders rows as an aligned table with a totals footer. The numeric
/// columns are wide enough for any `u64`.
pub fn render_table(rows: &[Attribution]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<6} {:<20} {:>20} {:>20} {:>20} {:>7}",
        "level", "reason", "count", "cycles", "cycles/exit", "%"
    );
    let (mut count, mut cycles, mut percent) = (0u64, 0u64, 0.0f64);
    for r in rows {
        let _ = writeln!(
            out,
            "L{:<5} {:<20} {:>20} {:>20} {:>20} {:>6.1}%",
            r.level,
            r.reason.to_string(),
            r.count,
            r.cycles,
            r.mean,
            r.percent
        );
        count += r.count;
        cycles = cycles.saturating_add(r.cycles);
        percent += r.percent;
    }
    let _ = writeln!(
        out,
        "{:<6} {:<20} {:>20} {:>20} {:>20} {:>6.1}%",
        "total",
        "",
        count,
        cycles,
        cycles.checked_div(count).unwrap_or(0),
        percent
    );
    out
}

/// A digested view of a run's virtualization costs.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Attribution rows, most expensive first.
    pub rows: Vec<Attribution>,
    /// Total attributed cycles.
    pub total: Cycles,
    /// Guest-hypervisor interventions.
    pub interventions: u64,
    /// DVH interceptions.
    pub dvh_intercepts: u64,
    /// Exits per intervention (the multiplication factor actually
    /// observed).
    pub exits_per_intervention: f64,
}

/// Builds a [`Report`] from a world's accumulated statistics.
pub fn explain(w: &World) -> Report {
    let interventions = w.stats.total_interventions();
    Report {
        rows: attribution(&w.stats),
        total: w.stats.total_attributed_cycles(),
        interventions,
        dvh_intercepts: w.stats.total_dvh_intercepts(),
        exits_per_intervention: if interventions == 0 {
            0.0
        } else {
            w.stats.total_exits() as f64 / interventions as f64
        },
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "total virtualization cost: {} across {} cost classes",
            self.total,
            self.rows.len()
        )?;
        writeln!(
            f,
            "guest-hypervisor interventions: {} ({:.1} hardware exits each); DVH handled: {}",
            self.interventions, self.exits_per_intervention, self.dvh_intercepts
        )?;
        f.write_str(&render_table(&self.rows[..self.rows.len().min(8)]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Machine, MachineConfig};

    #[test]
    fn report_ranks_costs_and_accounts_everything() {
        let mut m = Machine::build(MachineConfig::baseline(2));
        m.hypercall(0);
        m.program_timer(0);
        m.send_ipi(0, 1);
        let r = explain(m.world());
        assert!(!r.rows.is_empty());
        // Sorted descending.
        for w in r.rows.windows(2) {
            assert!(w[0].cycles >= w[1].cycles);
        }
        // Every row's count is nonzero and means are sane.
        for l in &r.rows {
            assert!(l.count > 0);
            assert!(l.mean > 0);
        }
        assert_eq!(
            r.total.as_u64(),
            r.rows.iter().map(|l| l.cycles).sum::<u64>(),
            "rows partition the total"
        );
    }

    #[test]
    fn dvh_report_shows_intercepts_and_no_interventions() {
        let mut m = Machine::build(MachineConfig::dvh(2));
        m.program_timer(0);
        m.send_ipi(0, 1);
        let r = explain(m.world());
        assert_eq!(r.interventions, 0);
        assert!(r.dvh_intercepts >= 2);
        assert_eq!(r.exits_per_intervention, 0.0);
    }

    #[test]
    fn vanilla_nested_shows_exit_multiplication_factor() {
        let mut m = Machine::build(MachineConfig::baseline(2));
        m.hypercall(0);
        let r = explain(m.world());
        assert!(
            r.exits_per_intervention > 10.0,
            "one intervention costs many exits: {}",
            r.exits_per_intervention
        );
    }

    #[test]
    fn display_is_informative() {
        let mut m = Machine::build(MachineConfig::baseline(2));
        m.hypercall(0);
        let text = explain(m.world()).to_string();
        assert!(text.contains("interventions"));
        assert!(text.contains("Vmcall"));
    }

    /// Outermost exits of (level, reason) costing each of `spent`.
    fn stats_of(exits: &[(usize, ExitReason, u64)]) -> RunStats {
        let mut s = RunStats::new();
        for &(level, reason, spent) in exits {
            s.outermost_exits.record(level, reason);
            s.cycles_by_reason.add(level, reason, Cycles::new(spent));
        }
        s
    }

    fn sample() -> RunStats {
        stats_of(&[
            (2, ExitReason::Vmcall, 6000),
            (2, ExitReason::Vmcall, 1000),
            (2, ExitReason::MsrWrite, 2000),
            (1, ExitReason::Hlt, 1000),
        ])
    }

    #[test]
    fn rows_sorted_by_cycles_with_percent() {
        let rows = attribution(&sample());
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].reason, ExitReason::Vmcall);
        assert_eq!(rows[0].count, 2);
        assert_eq!(rows[0].cycles, 7000);
        assert_eq!(rows[0].mean, 3500);
        assert!((rows[0].percent - 70.0).abs() < 1e-9);
        assert_eq!(rows[1].reason, ExitReason::MsrWrite);
        assert_eq!(rows[2].level, 1);
    }

    #[test]
    fn top_n_truncates() {
        let mut rows = attribution(&sample());
        rows.truncate(1);
        let text = render_table(&rows);
        assert_eq!(text.lines().count(), 3, "{text}");
        assert!(text.contains("7000"), "{text}");
        assert!(!text.contains("MsrWrite"), "{text}");
    }

    #[test]
    fn render_has_header_and_total() {
        let text = render_table(&attribution(&sample()));
        assert!(text.starts_with("level"), "{text}");
        assert!(text.contains("cycles/exit"), "{text}");
        assert!(text.contains("Vmcall"));
        assert!(text.lines().last().unwrap().starts_with("total"));
        assert!(text.contains("100.0%"), "{text}");
        // Every row lines up, even for cycle counts near `u64::MAX`.
        let huge = render_table(&attribution(&stats_of(&[(
            11,
            ExitReason::Vmcall,
            u64::MAX,
        )])));
        let widths: Vec<usize> = huge.lines().map(str::len).collect();
        assert!(widths.iter().all(|&w| w == widths[0]), "{huge}");
    }

    #[test]
    fn equal_cycle_rows_order_by_key() {
        // Three populations with identical cycle totals: the order must
        // be the ledger's key order (level, then reason's architectural
        // order), run after run, truncation or not.
        let stats = stats_of(&[
            (2, ExitReason::Vmcall, 5_000),
            (1, ExitReason::Hlt, 5_000),
            (2, ExitReason::MsrWrite, 5_000),
        ]);
        let rows = attribution(&stats);
        assert_eq!(rows.len(), 3);
        assert_eq!((rows[0].level, rows[0].reason), (1, ExitReason::Hlt));
        assert!(ExitReason::Vmcall < ExitReason::MsrWrite);
        assert_eq!((rows[1].level, rows[1].reason), (2, ExitReason::Vmcall));
        assert_eq!((rows[2].level, rows[2].reason), (2, ExitReason::MsrWrite));
    }

    #[test]
    fn empty_registry_profiles_cleanly() {
        let rows = attribution(&RunStats::new());
        assert!(rows.is_empty());
        let text = render_table(&rows);
        assert!(text.contains("total"));
    }
}
