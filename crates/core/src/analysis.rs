//! Post-run analysis: turn the exit ledger and cycle attribution into
//! the kind of breakdown the paper's discussion sections give ("the
//! root cause of the overhead is exits from the nested VM to the guest
//! hypervisor").

use dvh_arch::vmx::ExitReason;
use dvh_arch::Cycles;
use dvh_hypervisor::World;
use std::fmt;

/// One attributed cost line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostLine {
    /// Level the outermost exit came from.
    pub level: usize,
    /// Its reason.
    pub reason: ExitReason,
    /// Number of such exits.
    pub count: u64,
    /// Total cycles spent handling them (including all nested traps).
    pub total: Cycles,
}

impl CostLine {
    /// Mean cycles per exit.
    pub fn mean(&self) -> u64 {
        self.total.as_u64().checked_div(self.count).unwrap_or(0)
    }
}

/// A digested view of a run's virtualization costs.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Cost lines, most expensive first.
    pub lines: Vec<CostLine>,
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
    let mut lines: Vec<CostLine> = w
        .stats
        .cycles_by_reason
        .iter()
        .map(|(&(level, reason), &total)| CostLine {
            level,
            reason,
            count: w.stats.outermost_exits.get(level, reason),
            total,
        })
        .collect();
    lines.sort_by_key(|l| std::cmp::Reverse(l.total));
    let interventions = w.stats.total_interventions();
    Report {
        total: w.stats.total_attributed_cycles(),
        interventions,
        dvh_intercepts: w.stats.total_dvh_intercepts(),
        exits_per_intervention: if interventions == 0 {
            0.0
        } else {
            w.stats.total_exits() as f64 / interventions as f64
        },
        lines,
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "total virtualization cost: {} across {} cost classes",
            self.total,
            self.lines.len()
        )?;
        writeln!(
            f,
            "guest-hypervisor interventions: {} ({:.1} hardware exits each); DVH handled: {}",
            self.interventions, self.exits_per_intervention, self.dvh_intercepts
        )?;
        for l in self.lines.iter().take(8) {
            writeln!(
                f,
                "  L{} {:<18} x{:<6} {:>12} cycles total ({:>9}/exit)",
                l.level,
                l.reason.to_string(),
                l.count,
                l.total.as_u64(),
                l.mean()
            )?;
        }
        Ok(())
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
        assert!(!r.lines.is_empty());
        // Sorted descending.
        for w in r.lines.windows(2) {
            assert!(w[0].total >= w[1].total);
        }
        // Every line's count is nonzero and means are sane.
        for l in &r.lines {
            assert!(l.count > 0);
            assert!(l.mean() > 0);
        }
        assert_eq!(
            r.total,
            r.lines.iter().map(|l| l.total).sum::<Cycles>(),
            "lines partition the total"
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
}
