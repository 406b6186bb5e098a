//! The Table 1 microbenchmarks, runnable on any machine
//! configuration; together with the configurations of §4 they
//! regenerate Table 3.

use dvh_core::Machine;

/// Results of one microbenchmark sweep, in CPU cycles (the unit
/// Table 3 reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MicroResults {
    /// Hypercall: VM ↔ hypervisor round trip with no work.
    pub hypercall: u64,
    /// DevNotify: virtio doorbell MMIO write.
    pub dev_notify: u64,
    /// ProgramTimer: LAPIC timer write in TSC-deadline mode.
    pub program_timer: u64,
    /// SendIPI: IPI to an idle destination vCPU, send + receive.
    pub send_ipi: u64,
}

/// Runs the four microbenchmarks on `m`, `iters` iterations each,
/// reporting the mean cost in cycles.
pub fn run_micro(m: &mut Machine, iters: u32) -> MicroResults {
    assert!(iters > 0, "need at least one iteration");
    let mut hypercall = 0u64;
    let mut dev_notify = 0u64;
    let mut program_timer = 0u64;
    let mut send_ipi = 0u64;
    for _ in 0..iters {
        hypercall += m.hypercall(0).as_u64();
        dev_notify += m.device_notify(0).as_u64();
        program_timer += m.program_timer(0).as_u64();
        send_ipi += m.send_ipi(0, 1).as_u64();
    }
    MicroResults {
        hypercall: hypercall / iters as u64,
        dev_notify: dev_notify / iters as u64,
        program_timer: program_timer / iters as u64,
        send_ipi: send_ipi / iters as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvh_core::MachineConfig;

    /// Paper Table 3, for reference in assertions.
    const PAPER_VM: MicroResults = MicroResults {
        hypercall: 1_575,
        dev_notify: 4_984,
        program_timer: 2_005,
        send_ipi: 3_273,
    };

    fn within(measured: u64, paper: u64, pct: u64) -> bool {
        let hi = paper + paper * pct / 100;
        let lo = paper - paper * pct / 100;
        (lo..=hi).contains(&measured)
    }

    #[test]
    fn max_levels_is_the_deepest_unsaturated_default_run() {
        let run = |levels| {
            let mut m = Machine::build(MachineConfig::baseline(levels));
            let r = run_micro(&mut m, 10);
            (r, m.now(0).as_u64())
        };
        let (r, clock) = run(dvh_hypervisor::MAX_LEVELS);
        assert!(clock < u64::MAX, "{r:?}");
        let (_, clock) = run(dvh_hypervisor::MAX_LEVELS + 1);
        assert_eq!(clock, u64::MAX, "one level deeper saturates");
    }

    #[test]
    fn vm_column_matches_paper_within_5_percent() {
        let mut m = Machine::build(MachineConfig::baseline(1));
        let r = run_micro(&mut m, 10);
        assert!(within(r.hypercall, PAPER_VM.hypercall, 5), "{r:?}");
        assert!(within(r.dev_notify, PAPER_VM.dev_notify, 5), "{r:?}");
        assert!(within(r.program_timer, PAPER_VM.program_timer, 5), "{r:?}");
        assert!(within(r.send_ipi, PAPER_VM.send_ipi, 5), "{r:?}");
    }

    #[test]
    fn nested_column_matches_paper_within_15_percent() {
        let mut m = Machine::build(MachineConfig::baseline(2));
        let r = run_micro(&mut m, 5);
        assert!(within(r.hypercall, 37_733, 15), "{r:?}");
        assert!(within(r.dev_notify, 48_390, 15), "{r:?}");
        assert!(within(r.program_timer, 43_359, 15), "{r:?}");
        assert!(within(r.send_ipi, 39_456, 15), "{r:?}");
    }

    #[test]
    fn dvh_column_matches_paper_within_20_percent() {
        let mut m = Machine::build(MachineConfig::dvh(2));
        let r = run_micro(&mut m, 5);
        // DVH does not help hypercalls (paper: 38,743, slightly worse
        // than vanilla nested).
        assert!(r.hypercall >= 35_000, "{r:?}");
        assert!(within(r.dev_notify, 13_815, 20), "{r:?}");
        assert!(within(r.program_timer, 3_247, 20), "{r:?}");
        assert!(within(r.send_ipi, 5_116, 20), "{r:?}");
    }

    #[test]
    fn l3_dvh_stays_flat() {
        // Table 3: DVH at L3 is within a few percent of DVH at L2 —
        // "DVH achieves performance close to non-nested virtualization
        // performance regardless of nested virtualization level."
        let mut l2 = Machine::build(MachineConfig::dvh(2));
        let r2 = run_micro(&mut l2, 3);
        let mut l3 = Machine::build(MachineConfig::dvh(3));
        let r3 = run_micro(&mut l3, 3);
        for (a, b) in [
            (r2.program_timer, r3.program_timer),
            (r2.send_ipi, r3.send_ipi),
            (r2.dev_notify, r3.dev_notify),
        ] {
            assert!(b.abs_diff(a) * 10 <= a, "L2 {a} vs L3 {b}");
        }
    }

    #[test]
    fn repeated_micro_runs_are_stable() {
        let mut m = Machine::build(MachineConfig::baseline(2));
        let a = run_micro(&mut m, 3);
        let b = run_micro(&mut m, 3);
        assert_eq!(a.hypercall, b.hypercall);
        assert_eq!(a.program_timer, b.program_timer);
    }
}
