//! Property-based tests over the simulator's core invariants.
//!
//! The workspace builds offline, so instead of an external
//! property-testing framework these tests drive each property with a
//! small deterministic PRNG ([`prng::Prng`]): every test explores a
//! fixed, reproducible set of random cases and reports the seed of a
//! failing case in its panic message.

use dvh_arch::apic::IcrValue;
use dvh_core::{Machine, MachineConfig};
use dvh_devices::vhost::{dma_read, dma_write};
use dvh_memory::iommu_pt::{IoTable, ShadowIoTable};
use dvh_memory::sparse::SparseMemory;
use dvh_memory::{DirtyBitmap, Gpa, PageTable, Perms};

mod prng {
    /// A tiny deterministic PRNG (splitmix64) — good enough statistical
    /// quality for test-case generation, no dependencies, and fully
    /// reproducible from the seed.
    pub struct Prng(u64);

    impl Prng {
        pub fn new(seed: u64) -> Prng {
            Prng(seed.wrapping_add(0x9E37_79B9_7F4A_7C15))
        }

        pub fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform value in `[lo, hi)`.
        pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
            assert!(lo < hi);
            lo + self.next_u64() % (hi - lo)
        }

        pub fn usize_range(&mut self, lo: usize, hi: usize) -> usize {
            self.range(lo as u64, hi as u64) as usize
        }

        /// A vec of `range(lo, hi)` values with random length in
        /// `[min_len, max_len)`.
        pub fn vec(&mut self, lo: u64, hi: u64, min_len: usize, max_len: usize) -> Vec<u64> {
            let n = self.usize_range(min_len, max_len);
            (0..n).map(|_| self.range(lo, hi)).collect()
        }
    }

    /// Runs `body` for `cases` seeded cases, labelling failures.
    pub fn check(cases: u64, body: impl Fn(&mut Prng)) {
        for seed in 0..cases {
            let mut rng = Prng::new(seed);
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                body(&mut rng);
            }));
            if let Err(e) = result {
                eprintln!("property failed for seed {seed}");
                std::panic::resume_unwind(e);
            }
        }
    }
}

use prng::check;

/// ICR encode/decode round-trips for every vector and destination.
#[test]
fn icr_round_trip() {
    check(64, |rng| {
        let vector = rng.range(0, 256) as u8;
        let dest = rng.range(0, 4096) as u32;
        let icr = IcrValue::fixed(vector, dest);
        assert_eq!(IcrValue::decode(icr.encode()), icr);
    });
}

/// A shadow I/O table lookup equals walking each stage in turn, for
/// arbitrary two-stage mappings.
#[test]
fn shadow_equals_sequential_translation() {
    check(64, |rng| {
        let n = rng.usize_range(1, 40);
        let maps: Vec<(u64, u64, u64)> = (0..n)
            .map(|_| (rng.range(0, 512), rng.range(0, 512), rng.range(0, 512)))
            .collect();
        let mut inner = IoTable::new();
        let mut outer = IoTable::new();
        for (iova, mid, out) in &maps {
            inner.map(*iova, 0x10_000 + *mid, 1, Perms::RW);
            outer.map(0x10_000 + *mid, 0x20_000 + *out, 1, Perms::RW);
        }
        let shadow = ShadowIoTable::build(&[&inner, &outer]);
        for (iova, _, _) in &maps {
            let step1 = inner.table().lookup(*iova).unwrap().pfn;
            let step2 = outer.table().lookup(step1).unwrap().pfn;
            assert_eq!(shadow.lookup(*iova).unwrap().0, step2);
        }
    });
}

/// Page-table translate agrees with lookup, and never invents
/// mappings.
#[test]
fn pagetable_translate_matches_lookup() {
    check(64, |rng| {
        let maps: Vec<(u64, u64)> = (0..rng.usize_range(0, 50))
            .map(|_| (rng.range(0, 10_000), rng.range(0, 10_000)))
            .collect();
        let probes = rng.vec(0, 10_000, 0, 50);
        let mut pt = PageTable::new();
        for (from, to) in &maps {
            pt.map(*from, *to, Perms::RW);
        }
        for p in probes {
            match (pt.lookup(p), pt.translate(p, Perms::RO)) {
                (Some(e), Ok(t)) => assert_eq!(e.pfn, t.pfn),
                (None, Err(_)) => {}
                (l, t) => panic!("disagree: {:?} vs {:?}", l, t),
            }
        }
    });
}

/// Every DMA write is dirty-logged: after arbitrary writes through an
/// IOMMU table, every touched page is in the log.
#[test]
fn dma_dirty_log_is_complete() {
    check(64, |rng| {
        let writes: Vec<(u64, usize)> = (0..rng.usize_range(1, 20))
            .map(|_| (rng.range(0, 32), rng.usize_range(1, 5000)))
            .collect();
        let mut xl = IoTable::new();
        xl.map(0, 0x500, 40, Perms::RW);
        let mut mem = SparseMemory::new();
        let mut dirty = DirtyBitmap::new();
        for (page, len) in &writes {
            let addr = Gpa::from_pfn(*page);
            let data = vec![0xAA; *len];
            let mut mark = |pfn| dirty.mark_pfn(pfn);
            dma_write(&mut mem, &mut xl, addr, &data, Some(&mut mark)).unwrap();
            // Every host page the write touched must be logged.
            let pages_touched = (*len as u64).div_ceil(4096) + 1;
            for k in 0..pages_touched {
                if *page + k < 40 && k * 4096 < *len as u64 {
                    assert!(dirty.is_dirty(0x500 + *page + k));
                }
            }
        }
    });
}

/// DMA read returns exactly what DMA write stored, at any offset and
/// length within the mapped window.
#[test]
fn dma_write_read_round_trip() {
    check(64, |rng| {
        let offset = rng.range(0, 8 * 4096 - 1);
        let len = rng.usize_range(1, 8192);
        let len = len
            .min((16 * 4096 - offset as usize).saturating_sub(1))
            .max(1);
        let mut xl = IoTable::new();
        xl.map(0, 0x900, 32, Perms::RW);
        let mut mem = SparseMemory::new();
        let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        dma_write(&mut mem, &mut xl, Gpa::new(offset), &data, None).unwrap();
        let back = dma_read(&mem, &mut xl, Gpa::new(offset), len).unwrap();
        assert_eq!(back, data);
    });
}

/// Dirty bitmap harvest returns each page exactly once, sorted.
#[test]
fn dirty_harvest_unique_and_sorted() {
    check(64, |rng| {
        let pfns = rng.vec(0, 1000, 0, 200);
        let mut b = DirtyBitmap::new();
        for p in &pfns {
            b.mark_pfn(*p);
        }
        let harvested = b.harvest();
        let mut expect: Vec<u64> = pfns;
        expect.sort_unstable();
        expect.dedup();
        assert_eq!(harvested, expect);
        assert!(b.is_clean());
    });
}

// Machine-level properties are slower; fewer cases.

/// Nested cost strictly dominates non-nested cost for every
/// microbenchmark-like operation, at any depth up to 3.
#[test]
fn cost_is_monotonic_in_depth() {
    for op in 0usize..3 {
        let mut prev = 0u64;
        for levels in 1..=3usize {
            let mut m = Machine::build(MachineConfig::baseline(levels));
            let c = match op {
                0 => m.hypercall(0),
                1 => m.program_timer(0),
                _ => m.send_ipi(0, 1),
            }
            .as_u64();
            assert!(c > prev, "levels={levels} op={op}: {c} <= {prev}");
            prev = c;
        }
    }
}

/// DVH never performs worse than vanilla nested virtualization for the
/// operations it accelerates, at any supported depth.
#[test]
fn dvh_never_slower_for_accelerated_ops() {
    for levels in 2usize..4 {
        let mut vanilla = Machine::build(MachineConfig::baseline(levels));
        let mut dvh = Machine::build(MachineConfig::dvh(levels));
        assert!(dvh.program_timer(0) < vanilla.program_timer(0));
        assert!(dvh.send_ipi(0, 1) < vanilla.send_ipi(0, 1));
        assert!(dvh.device_notify(0) < vanilla.device_notify(0));
        assert!(dvh.idle_round(0) < vanilla.idle_round(0));
    }
}

/// The simulator is deterministic: identical configurations produce
/// identical cycle counts for identical operation sequences.
#[test]
fn determinism() {
    check(12, |rng| {
        let seq = rng.vec(0, 4, 1, 12);
        let run = |seq: &[u64]| {
            let mut m = Machine::build(MachineConfig::dvh(2));
            for &op in seq {
                match op {
                    0 => {
                        m.hypercall(0);
                    }
                    1 => {
                        m.program_timer(0);
                    }
                    2 => {
                        m.send_ipi(0, 1);
                    }
                    _ => {
                        m.net_tx(0, 1, 700);
                    }
                }
            }
            (m.now(0), m.now(1), m.world().stats.total_exits())
        };
        assert_eq!(run(&seq), run(&seq));
    });
}

/// Any random operation sequence, on any configuration, at any depth,
/// leaves the exit engine certified: the VM-entry checker, the trace
/// linter, the metrics pass and the causal pass find zero violations.
#[test]
fn random_workloads_are_certified() {
    use dvh_checker::harness::certify;

    check(12, |rng| {
        let levels = rng.usize_range(1, 4);
        let config = match rng.range(0, 3) {
            0 => MachineConfig::baseline(levels),
            1 => MachineConfig::dvh_vp(levels),
            _ => MachineConfig::dvh(levels),
        };
        let seq = rng.vec(0, 6, 1, 16);
        let violations = certify(&mut Machine::build(config), |m| {
            for &op in &seq {
                match op {
                    0 => {
                        m.hypercall(0);
                    }
                    1 => {
                        m.program_timer(0);
                    }
                    2 => {
                        m.send_ipi(0, 1);
                    }
                    3 => {
                        m.net_tx(0, 1, 700);
                    }
                    4 => {
                        m.device_notify(0);
                    }
                    _ => {
                        m.idle_round(0);
                    }
                }
            }
        });
        assert!(violations.is_empty(), "{violations:#?}");
    });
}

/// The VCIMT really routes: whatever permutation the guest hypervisor
/// programs, IPIs land on the mapped physical CPU.
#[test]
fn vcimt_routes_to_programmed_destination() {
    use dvh_arch::costs::CostModel;
    use dvh_arch::vmx::ctrl;
    use dvh_core::capability::enable_everywhere;
    use dvh_core::vipi::VirtualIpis;
    use dvh_hypervisor::{World, WorldConfig};

    for dest in 1usize..4 {
        let mut w = World::new(CostModel::calibrated(), WorldConfig::baseline(2));
        enable_everywhere(&mut w, ctrl::dvh::VIRTUAL_IPI);
        let mut ext = VirtualIpis::new(0);
        ext.vcimt.set(1, dest as u32); // nested vCPU 1 -> PI desc `dest`
        w.register_extension(Box::new(ext));
        let before = w.now(dest);
        w.guest_send_ipi(0, 1, 0x77);
        assert!(w.now(dest) > before);
    }
}

/// LAPIC conservation: every accepted vector is eventually dispatched
/// exactly once and EOI'd exactly once, in strict priority order
/// within each drain.
#[test]
fn lapic_accept_dispatch_eoi_conservation() {
    check(64, |rng| {
        use dvh_arch::apic::LapicState;
        let vectors: Vec<u8> = rng.vec(16, 256, 1, 40).iter().map(|v| *v as u8).collect();
        let mut l = LapicState::new();
        let mut unique: Vec<u8> = vectors.clone();
        unique.sort_unstable();
        unique.dedup();
        for v in &vectors {
            l.accept(*v);
        }
        let mut seen = Vec::new();
        while let Some(v) = l.dispatch() {
            l.eoi();
            seen.push(v);
        }
        // Highest priority first, each unique vector exactly once.
        let mut expect = unique;
        expect.reverse();
        assert_eq!(seen, expect);
        assert!(!l.has_pending());
        assert!(!l.in_service());
    });
}

/// Interrupt conservation across pause/resume: no vector delivered
/// while paused is ever lost, regardless of how many arrive.
#[test]
fn pause_resume_conserves_interrupts() {
    check(10, |rng| {
        use dvh_hypervisor::IrqPath;
        let vectors: Vec<u8> = rng.vec(32, 201, 1, 12).iter().map(|v| *v as u8).collect();
        let mut m = Machine::build(MachineConfig::dvh(2));
        let base = m.world().lapic[0].accepted_count();
        m.world_mut().pause_vcpu(0);
        let mut unique = vectors.clone();
        unique.sort_unstable();
        unique.dedup();
        for v in &vectors {
            let t = m.now(1);
            m.world_mut()
                .deliver_leaf_interrupt(0, *v, t, IrqPath::PostedDirect);
        }
        assert_eq!(m.world().lapic[0].accepted_count(), base);
        m.world_mut().resume_vcpu(0);
        assert_eq!(
            m.world().lapic[0].accepted_count(),
            base + unique.len() as u64
        );
        assert_eq!(m.world().lapic[0].eoi_count(), base + unique.len() as u64);
    });
}

/// The virtqueue design [`VirtQueue`] replaced, kept as its
/// differential reference: every chain a heap `Vec`, every charge an
/// entry in a map keyed by head.
mod reference_queue {
    use dvh_devices::virtio::queue::{Descriptor, QueueFull, UsedElem};
    use std::collections::{BTreeMap, VecDeque};

    pub struct RefQueue {
        size: u16,
        avail: VecDeque<(u16, Vec<Descriptor>)>,
        used: VecDeque<UsedElem>,
        next_head: u16,
        pub in_flight: u16,
        chain_lens: BTreeMap<u16, u16>,
    }

    impl RefQueue {
        pub fn new(size: u16) -> RefQueue {
            RefQueue {
                size,
                avail: VecDeque::new(),
                used: VecDeque::new(),
                next_head: 0,
                in_flight: 0,
                chain_lens: BTreeMap::new(),
            }
        }

        pub fn add_chain(&mut self, descs: Vec<Descriptor>) -> Result<u16, QueueFull> {
            let needed = match u16::try_from(descs.len()) {
                Ok(n) if n <= self.size => n,
                _ => return Err(QueueFull),
            };
            if needed == 0 || needed > self.size - self.in_flight {
                return Err(QueueFull);
            }
            let head = self.next_head;
            self.next_head = self.next_head.wrapping_add(1);
            self.in_flight += needed;
            self.chain_lens.insert(head, needed);
            self.avail.push_back((head, descs));
            Ok(head)
        }

        pub fn add_reclaiming(&mut self, desc: Descriptor) -> Result<u16, QueueFull> {
            self.add_chain(vec![desc]).or_else(|QueueFull| {
                while self.pop_used().is_some() {}
                self.add_chain(vec![desc])
            })
        }

        pub fn pop_avail(&mut self) -> Option<(u16, Vec<Descriptor>)> {
            self.avail.pop_front()
        }

        pub fn push_used(&mut self, head: u16, written: u32) {
            self.used.push_back(UsedElem { head, written });
        }

        pub fn pop_used(&mut self) -> Option<UsedElem> {
            let e = self.used.pop_front()?;
            let released = self.chain_lens.remove(&e.head).unwrap_or(1);
            self.in_flight = self.in_flight.saturating_sub(released);
            Some(e)
        }

        pub fn lens(&self) -> (usize, usize) {
            (self.avail.len(), self.used.len())
        }
    }
}

/// Drives a [`VirtQueue`] of `size` and the reference design through
/// `ops` random adds (of 0–6 descriptors, by every add method), pops,
/// completions in random order, and harvests, requiring the same
/// heads, errors, chains, used elements and occupancy after every
/// step. Returns how many chains were added.
fn drive_queue_against_reference(rng: &mut prng::Prng, size: u16, ops: usize) -> u64 {
    use dvh_devices::virtio::queue::{Descriptor, VirtQueue};
    fn random_desc(rng: &mut prng::Prng) -> Descriptor {
        Descriptor {
            addr: Gpa::new(rng.range(0, 1 << 30)),
            len: rng.range(1, 9000) as u32,
            device_writes: rng.range(0, 2) == 1,
        }
    }
    let mut q = VirtQueue::new(size);
    let mut r = reference_queue::RefQueue::new(size);
    // Chains the device has popped and not yet completed.
    let mut held: Vec<u16> = Vec::new();
    let mut added = 0;
    for step in 0..ops {
        match rng.range(0, 10) {
            0..=3 => {
                let n = rng.usize_range(0, 7);
                let descs: Vec<Descriptor> = (0..n).map(|_| random_desc(rng)).collect();
                let (got, want) = match (n, rng.range(0, 3)) {
                    (1, 0) => (q.add_one(descs[0]), r.add_chain(descs)),
                    (1, 1) => (q.add_reclaiming(descs[0]), r.add_reclaiming(descs[0])),
                    _ => (q.add_chain(descs.clone()), r.add_chain(descs)),
                };
                assert_eq!(got, want, "step {step}");
                added += u64::from(got.is_ok());
            }
            4 | 5 => match (q.pop_avail(), r.pop_avail()) {
                (Some(c), Some((head, descs))) => {
                    assert_eq!((c.head, c.descs()), (head, &descs[..]), "step {step}");
                    held.push(c.head);
                }
                (c, w) => assert!(c.is_none() && w.is_none(), "step {step}"),
            },
            6 | 7 if !held.is_empty() => {
                let head = held.swap_remove(rng.usize_range(0, held.len()));
                let written = rng.range(0, 9000) as u32;
                q.push_used(head, written);
                r.push_used(head, written);
            }
            _ => assert_eq!(q.pop_used(), r.pop_used(), "step {step}"),
        }
        assert_eq!(q.in_flight(), r.in_flight, "step {step}");
        assert_eq!((q.avail_len(), q.used_len()), r.lens(), "step {step}");
    }
    added
}

/// Differential check of the virtqueue against the design it replaced,
/// with chains of 1–5 descriptors (and invalid lengths), full rings,
/// out-of-order completion, and heads wrapping past `u16::MAX`.
#[test]
fn virtqueue_matches_the_map_and_vec_reference() {
    check(32, |rng| {
        let size = 1 << rng.range(0, 6);
        drive_queue_against_reference(rng, size, 2_000);
    });
    let added = drive_queue_against_reference(&mut prng::Prng::new(7), 8, 1_000_000);
    assert!(
        added > 65_536,
        "heads must wrap past u16::MAX: {added} adds"
    );
}
