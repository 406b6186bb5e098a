//! The §3.5 recursion experiment (extension beyond the paper's L3):
//! vanilla exit multiplication keeps compounding with depth, while
//! recursive DVH stays flat. Real KVM cannot run more than three
//! levels; the simulator can, here from L1 to L10.
//!
//! Exit summaries (memoized guest-hypervisor primitives) make the deep
//! rows cheap: the whole table runs in well under a second. The
//! checker's summary pass certifies L1–L6 bit for bit against full
//! recursion; beyond L6, where one hypercall is tens of millions of
//! simulated exits or more, summaries are the only feasible way to run
//! it.

use dvh_bench::harness::recursion_experiment;

fn main() {
    println!("Exit multiplication vs recursive DVH (cycles)");
    println!(
        "{:<8} {:>18} {:>18} {:>18} {:>10}",
        "levels", "Hypercall", "ProgramTimer", "Timer+DVH", "growth"
    );
    let rows = recursion_experiment(10);
    let mut prev = None;
    for r in &rows {
        let growth = prev
            .map(|p: u64| format!("{:.1}x", r.hypercall as f64 / p as f64))
            .unwrap_or_else(|| "-".into());
        println!(
            "L{:<7} {:>18} {:>18} {:>18} {:>10}",
            r.levels, r.hypercall, r.timer, r.timer_dvh, growth
        );
        prev = Some(r.hypercall);
    }
}
