//! The application benchmark catalog (Table 2), as transaction mixes.
//!
//! Native baselines come from §4: "The native execution results were
//! 45,578 trans/s for Netperf RR, 9,413 Mb/s for Netperf STREAM, 9,414
//! Mb/s for Netperf MAERTS, 15,469 trans/s for Apache, 354,132 trans/s
//! for Memcached, 4.45 s for MySQL, and 10.36 s for Hackbench." At the
//! testbed's 2.2 GHz these convert to the `native_cycles` below.
//!
//! Event counts per transaction are behavioural estimates of what each
//! workload's kernel path does (doorbells after virtio batching,
//! interrupts after NIC coalescing, scheduler IPIs, TCP/epoll timer
//! reprogramming, idle transitions on request boundaries); they are
//! identical across configurations — only the per-event *cost* differs.

use crate::runner::{MixKind, TxnMix};

/// Identifies one of the paper's seven application benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppId {
    /// netperf TCP_RR: 1-byte request/response latency.
    NetperfRr,
    /// netperf TCP_STREAM: client-to-server bulk throughput.
    NetperfStream,
    /// netperf TCP_MAERTS: server-to-client bulk throughput.
    NetperfMaerts,
    /// ApacheBench serving the 41 KB GCC manual page.
    Apache,
    /// memcached driven by memtier.
    Memcached,
    /// MySQL with SysBench OLTP, 200 parallel transactions.
    Mysql,
    /// hackbench, 100 process groups over Unix domain sockets.
    Hackbench,
}

impl AppId {
    /// All seven, in the paper's figure order.
    pub const ALL: [AppId; 7] = [
        AppId::NetperfRr,
        AppId::NetperfStream,
        AppId::NetperfMaerts,
        AppId::Apache,
        AppId::Memcached,
        AppId::Mysql,
        AppId::Hackbench,
    ];

    /// The command-line names: each benchmark's short name first, in
    /// figure order, then the `netperf-*` aliases. Matching ignores
    /// case.
    pub const NAMES: &'static [(&'static str, AppId)] = &[
        ("rr", AppId::NetperfRr),
        ("stream", AppId::NetperfStream),
        ("maerts", AppId::NetperfMaerts),
        ("apache", AppId::Apache),
        ("memcached", AppId::Memcached),
        ("mysql", AppId::Mysql),
        ("hackbench", AppId::Hackbench),
        ("netperf-rr", AppId::NetperfRr),
        ("netperf-stream", AppId::NetperfStream),
        ("netperf-maerts", AppId::NetperfMaerts),
    ];

    /// The short command-line name: the first of [`AppId::NAMES`].
    pub fn cli_name(self) -> &'static str {
        AppId::NAMES
            .iter()
            .find(|(_, app)| *app == self)
            .map_or("", |(name, _)| name)
    }

    /// The transaction mix for this benchmark.
    pub fn mix(self) -> TxnMix {
        match self {
            // 45,578 trans/s native -> ~48.3 us -> ~106k cycles; per
            // transaction the server takes one packet, replies with
            // one, reprograms TCP timers, and goes idle waiting for
            // the next request.
            AppId::NetperfRr => TxnMix {
                name: "Netperf RR",
                kind: MixKind::Latency,
                native_cycles: 106_000,
                compute: 30_000,
                rx_packets: 1.0,
                rx_irqs: 1.0,
                rx_bytes: 64,
                tx_packets: 1.0,
                tx_kicks: 1.0,
                tx_bytes: 64,
                ipis: 0.0,
                timers: 4.0,
                idles: 1.5,
                blk_ops: 0.0,
                blk_bytes: 0,
            },
            // One transaction = one 64 KB receive window: ~43 MTU
            // frames, heavily coalesced (2 interrupts), ACKs batched
            // into one kick. Wire time 64KB at 9.4 Gb/s ~ 123k cycles.
            AppId::NetperfStream => TxnMix {
                name: "Netperf STREAM",
                kind: MixKind::Throughput,
                native_cycles: 130_000,
                compute: 55_000,
                rx_packets: 43.0,
                rx_irqs: 1.0,
                rx_bytes: 1500,
                tx_packets: 11.0,
                tx_kicks: 0.5,
                tx_bytes: 64,
                ipis: 0.0,
                timers: 0.3,
                idles: 0.1,
                blk_ops: 0.0,
                blk_bytes: 0,
            },
            // The transmit direction: ~43 frames sent per 64 KB in
            // several kicks (TSO batches), ACK receive coalesced.
            AppId::NetperfMaerts => TxnMix {
                name: "Netperf MAERTS",
                kind: MixKind::Throughput,
                native_cycles: 130_000,
                compute: 55_000,
                rx_packets: 11.0,
                rx_irqs: 1.0,
                rx_bytes: 64,
                tx_packets: 43.0,
                tx_kicks: 6.0,
                tx_bytes: 1500,
                ipis: 0.0,
                timers: 0.5,
                idles: 0.1,
                blk_ops: 0.0,
                blk_bytes: 0,
            },
            // 15,469 trans/s -> ~142k cycles per request; the 41 KB
            // response is ~28 frames in a few kicks; worker wakeups
            // send scheduler IPIs; epoll/TCP timers churn.
            AppId::Apache => TxnMix {
                name: "Apache",
                kind: MixKind::Throughput,
                native_cycles: 142_000,
                compute: 100_000,
                rx_packets: 2.0,
                rx_irqs: 1.0,
                rx_bytes: 300,
                tx_packets: 28.0,
                tx_kicks: 5.0,
                tx_bytes: 1500,
                ipis: 2.0,
                timers: 4.0,
                idles: 0.5,
                blk_ops: 0.1, // access logs, amortized
                blk_bytes: 4096,
            },
            // 354,132 ops/s -> ~6.2k cycles/op; memtier pipelines, so
            // doorbells/interrupts amortize over ~8 operations.
            AppId::Memcached => TxnMix {
                name: "Memcached",
                kind: MixKind::Throughput,
                native_cycles: 6_213,
                compute: 3_800,
                rx_packets: 1.0,
                rx_irqs: 0.3,
                rx_bytes: 200,
                tx_packets: 1.0,
                tx_kicks: 0.3,
                tx_bytes: 300,
                ipis: 0.05,
                timers: 0.1,
                idles: 0.02,
                blk_ops: 0.0,
                blk_bytes: 0,
            },
            // SysBench OLTP: 10k transactions in 4.45 s native ->
            // ~980k cycles each; network round trips to the client,
            // InnoDB log writes (block I/O modelled as large TX),
            // thread wakeup IPIs, timer churn.
            AppId::Mysql => TxnMix {
                name: "MySQL",
                kind: MixKind::Throughput,
                native_cycles: 980_000,
                compute: 700_000,
                rx_packets: 5.0,
                rx_irqs: 3.0,
                rx_bytes: 400,
                tx_packets: 7.0,
                tx_kicks: 3.0,
                tx_bytes: 1200,
                ipis: 12.0,
                timers: 6.0,
                idles: 2.0,
                blk_ops: 2.0, // InnoDB log + data writes
                blk_bytes: 16 * 1024,
            },
            // Pure scheduler workload, no network I/O: sender/receiver
            // pairs ping-ponging over Unix sockets -> IPIs and idle
            // churn only. 10.36 s for 100 groups x 500 loops -> one
            // "transaction" = one group-loop ~ 456k cycles.
            AppId::Hackbench => TxnMix {
                name: "Hackbench",
                kind: MixKind::Throughput,
                native_cycles: 456_000,
                compute: 380_000,
                rx_packets: 0.0,
                rx_irqs: 0.0,
                rx_bytes: 0,
                tx_packets: 0.0,
                tx_kicks: 0.0,
                tx_bytes: 0,
                ipis: 9.0,
                timers: 1.5,
                idles: 2.0,
                blk_ops: 0.0,
                blk_bytes: 0,
            },
        }
    }

    /// The paper's reported native baseline, as a display string.
    pub fn native_baseline(self) -> &'static str {
        match self {
            AppId::NetperfRr => "45,578 trans/s",
            AppId::NetperfStream => "9,413 Mb/s",
            AppId::NetperfMaerts => "9,414 Mb/s",
            AppId::Apache => "15,469 trans/s",
            AppId::Memcached => "354,132 trans/s",
            AppId::Mysql => "4.45 s",
            AppId::Hackbench => "10.36 s",
        }
    }

    /// Whether the benchmark exercises network I/O at all (hackbench
    /// does not, which is why Fig. 7 shows it identical across I/O
    /// models).
    pub fn uses_io(self) -> bool {
        self != AppId::Hackbench
    }
}

/// All application mixes in figure order.
pub fn all_apps() -> Vec<TxnMix> {
    AppId::ALL.iter().map(|a| a.mix()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seven_benchmarks() {
        assert_eq!(all_apps().len(), 7);
    }

    #[test]
    fn cli_names_round_trip() {
        // The short names come first, in figure order...
        for (app, (name, named)) in AppId::ALL.into_iter().zip(AppId::NAMES) {
            assert_eq!((app.cli_name(), app), (*name, *named));
        }
        // ...and every alias ends in one.
        for (name, app) in AppId::NAMES {
            assert!(name.ends_with(app.cli_name()), "{name}");
        }
    }

    #[test]
    fn compute_never_exceeds_native() {
        for app in AppId::ALL {
            let m = app.mix();
            assert!(
                m.compute <= m.native_cycles,
                "{}: compute {} > native {}",
                m.name,
                m.compute,
                m.native_cycles
            );
        }
    }

    #[test]
    fn hackbench_has_no_io() {
        let m = AppId::Hackbench.mix();
        assert_eq!(m.rx_packets, 0.0);
        assert_eq!(m.tx_packets, 0.0);
        assert!(!AppId::Hackbench.uses_io());
        assert!(AppId::Apache.uses_io());
    }

    #[test]
    fn every_mix_has_some_events() {
        for app in AppId::ALL {
            let m = app.mix();
            let events = m.rx_irqs + m.tx_kicks + m.ipis + m.timers + m.idles + m.blk_ops;
            assert!(events > 0.0, "{app:?}");
        }
    }
}
