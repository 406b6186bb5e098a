//! The workload runner: drives a [`Machine`] with a transaction mix
//! and reports overhead relative to native execution.

use dvh_core::{Cycles, Machine};
use std::fmt;

/// How a benchmark turns CPU cost into a reported score.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MixKind {
    /// Latency-bound (netperf RR): every extra cycle on the
    /// request path lengthens the measured round trip, so
    /// `overhead = (native_latency - compute + busy) / native_latency`.
    Latency,
    /// Throughput-bound (everything else): the score only degrades
    /// once per-transaction CPU time exceeds the native
    /// inter-transaction budget, so
    /// `overhead = max(1, busy / native_budget)`.
    Throughput,
}

/// A per-transaction mix of virtualization-visible events.
///
/// Event counts may be fractional (e.g. one coalesced RX interrupt
/// per eight operations); the runner uses deterministic accumulators,
/// so results are exactly reproducible.
#[derive(Debug, Clone, PartialEq)]
pub struct TxnMix {
    /// Human-readable benchmark name.
    pub name: &'static str,
    /// Score semantics.
    pub kind: MixKind,
    /// Cycles a native transaction takes end to end (from the paper's
    /// native throughput/runtime numbers at 2.2 GHz): the full round
    /// trip for latency benchmarks, the per-vCPU budget for throughput
    /// benchmarks.
    pub native_cycles: u64,
    /// In-guest compute per transaction (the work itself; identical
    /// under every configuration).
    pub compute: u64,
    /// RX data packets per transaction (copies at each interposing
    /// level).
    pub rx_packets: f64,
    /// RX interrupts per transaction (after NIC/NAPI coalescing).
    pub rx_irqs: f64,
    /// Bytes per RX packet.
    pub rx_bytes: u32,
    /// TX packets per transaction.
    pub tx_packets: f64,
    /// TX doorbell kicks per transaction (virtio batches packets per
    /// kick).
    pub tx_kicks: f64,
    /// Bytes per TX packet.
    pub tx_bytes: u32,
    /// Inter-processor interrupts per transaction (task wakeups).
    pub ipis: f64,
    /// LAPIC timer reprogramming operations per transaction.
    pub timers: f64,
    /// Idle (halt + wake) rounds per transaction.
    pub idles: f64,
    /// Block I/O operations per transaction (log writes, reads).
    pub blk_ops: f64,
    /// Bytes per block operation.
    pub blk_bytes: u32,
}

/// The outcome of running a workload on one configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadResult {
    /// Cycles of guest CPU time consumed per transaction (including
    /// all virtualization overhead, excluding idle waiting).
    pub cycles_per_txn: f64,
    /// Overhead relative to native execution (1.0 = native speed);
    /// this is the y-axis of Figs. 7–10.
    pub overhead: f64,
    /// Transactions simulated.
    pub txns: u32,
}

impl fmt::Display for WorkloadResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.2}x ({:.0} cycles/txn)",
            self.overhead, self.cycles_per_txn
        )
    }
}

/// Deterministic fractional-event accumulator.
#[derive(Debug, Default)]
struct Acc(f64);

impl Acc {
    /// Adds `rate` and returns how many whole events fire this round.
    fn step(&mut self, rate: f64) -> u32 {
        self.0 += rate;
        let n = self.0.floor();
        self.0 -= n;
        n as u32
    }
}

/// Runs `txns` transactions of `mix` on `m`, serialized on vCPU 0
/// (IPIs target vCPU 1). Returns the measured overhead.
pub fn run_app(m: &mut Machine, mix: &TxnMix, txns: u32) -> WorkloadResult {
    assert!(txns > 0, "need at least one transaction");
    let cpu = 0;
    let ipi_dest = 1.min(m.vcpus() - 1);
    let mut rx = Acc::default();
    let mut rxp = Acc::default();
    let mut tx = Acc::default();
    let mut txp = Acc::default();
    let mut ipi = Acc::default();
    let mut tim = Acc::default();
    let mut idl = Acc::default();
    let mut blk = Acc::default();

    let mut busy = Cycles::ZERO;
    for _ in 0..txns {
        let t0 = m.now(cpu);
        m.compute(cpu, Cycles::new(mix.compute));
        // TX side: packets accumulate, kicks flush them.
        let pkts = txp.step(mix.tx_packets);
        let kicks = tx.step(mix.tx_kicks);
        if kicks > 0 {
            let per_kick = (pkts.max(1) / kicks.max(1)).max(1);
            for _ in 0..kicks {
                m.net_tx(cpu, per_kick, mix.tx_bytes);
            }
        } else if pkts > 0 {
            // Packets queued under notification suppression: charge
            // driver-side work only via a zero-kick transmit (the
            // next kick will flush them); approximate with compute.
            m.compute(cpu, Cycles::new(120) * pkts as u64);
        }
        // RX side: coalesced bursts.
        let irqs = rx.step(mix.rx_irqs);
        let rpkts = rxp.step(mix.rx_packets);
        if irqs > 0 {
            let per_irq = (rpkts.max(1) / irqs.max(1)).max(1);
            for _ in 0..irqs {
                m.net_rx_burst(cpu, per_irq, mix.rx_bytes);
            }
        }
        if ipi_dest != cpu {
            for _ in 0..ipi.step(mix.ipis) {
                m.send_ipi(cpu, ipi_dest);
            }
        }
        for _ in 0..tim.step(mix.timers) {
            m.program_timer(cpu);
        }
        for _ in 0..idl.step(mix.idles) {
            m.idle_round(cpu);
        }
        for _ in 0..blk.step(mix.blk_ops) {
            m.blk_io(cpu, mix.blk_bytes, true);
        }
        busy += m.now(cpu) - t0;
    }
    let cycles_per_txn = busy.as_u64() as f64 / txns as f64;
    let native = mix.native_cycles as f64;
    let overhead = match mix.kind {
        MixKind::Latency => (native - mix.compute as f64 + cycles_per_txn) / native,
        MixKind::Throughput => (cycles_per_txn / native).max(1.0),
    };
    WorkloadResult {
        cycles_per_txn,
        overhead,
        txns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvh_core::MachineConfig;

    fn mix() -> TxnMix {
        TxnMix {
            name: "test",
            kind: MixKind::Latency,
            native_cycles: 100_000,
            compute: 40_000,
            rx_packets: 1.0,
            rx_irqs: 1.0,
            rx_bytes: 64,
            tx_packets: 1.0,
            tx_kicks: 1.0,
            tx_bytes: 64,
            ipis: 0.5,
            timers: 1.0,
            idles: 0.5,
            blk_ops: 0.0,
            blk_bytes: 0,
        }
    }

    #[test]
    fn overhead_at_least_one() {
        let mut m = Machine::build(MachineConfig::baseline(1));
        let r = run_app(&mut m, &mix(), 50);
        assert!(r.overhead >= 1.0);
        assert!(
            r.overhead < 2.0,
            "L1 overhead should be modest: {}",
            r.overhead
        );
    }

    #[test]
    fn nested_overhead_exceeds_vm_overhead() {
        let mut l1 = Machine::build(MachineConfig::baseline(1));
        let o1 = run_app(&mut l1, &mix(), 50).overhead;
        let mut l2 = Machine::build(MachineConfig::baseline(2));
        let o2 = run_app(&mut l2, &mix(), 50).overhead;
        assert!(o2 > 1.5 * o1, "L2 {o2} vs L1 {o1}");
    }

    #[test]
    fn dvh_brings_nested_near_vm() {
        let mut l1 = Machine::build(MachineConfig::baseline(1));
        let o1 = run_app(&mut l1, &mix(), 50).overhead;
        let mut dvh = Machine::build(MachineConfig::dvh(2));
        let od = run_app(&mut dvh, &mix(), 50).overhead;
        assert!(od < o1 * 1.6, "DVH L2 ({od}) should approach VM ({o1})");
    }

    #[test]
    fn runs_are_deterministic() {
        let mut a = Machine::build(MachineConfig::baseline(2));
        let ra = run_app(&mut a, &mix(), 30);
        let mut b = Machine::build(MachineConfig::baseline(2));
        let rb = run_app(&mut b, &mix(), 30);
        assert_eq!(ra, rb);
    }

    #[test]
    fn fractional_accumulator_is_exact() {
        let mut a = Acc::default();
        let total: u32 = (0..1000).map(|_| a.step(0.25)).sum();
        assert_eq!(total, 250);
    }

    #[test]
    fn single_vcpu_machine_runs_without_self_ipis() {
        let mut cfg = MachineConfig::baseline(2);
        cfg.world.leaf_vcpus = 1;
        let mut m = Machine::build(cfg);
        let r = run_app(&mut m, &mix(), 30);
        assert!(r.overhead >= 1.0);
        assert!(
            !m.world().is_halted(0),
            "the lone vCPU must still be running"
        );
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_txns_rejected() {
        let mut m = Machine::build(MachineConfig::baseline(1));
        run_app(&mut m, &mix(), 0);
    }
}
