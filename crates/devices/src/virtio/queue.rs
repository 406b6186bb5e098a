//! Split virtqueues.
//!
//! A faithful-behaviour (if not bit-layout) model of the virtio 1.0
//! split ring: a descriptor table, an available ring filled by the
//! driver, and a used ring filled by the device. Buffer addresses are
//! guest-physical in the address space of whoever owns the device —
//! which, under virtual-passthrough, is the *nested* VM, with the
//! (v)IOMMU translating on the device side.
//!
//! Steady-state operation allocates nothing: a one-descriptor chain
//! (every chain the datapaths queue) is stored inline, the descriptor
//! count charged to each outstanding head lives in a fixed table of
//! `size` slots, and the used ring is sized for `size` completions up
//! front.

use dvh_memory::Gpa;
use std::collections::VecDeque;
use std::fmt;

/// One buffer descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Descriptor {
    /// Guest-physical address of the buffer.
    pub addr: Gpa,
    /// Buffer length in bytes.
    pub len: u32,
    /// Device writes (true) or reads (false) this buffer.
    pub device_writes: bool,
}

/// The descriptors of one chain: a lone descriptor inline, longer
/// chains on the heap.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Descs {
    One(Descriptor),
    Many(Vec<Descriptor>),
}

/// A chain of descriptors popped from the available ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DescChain {
    /// Head index, echoed back in the used ring.
    pub head: u16,
    descs: Descs,
}

impl DescChain {
    /// The descriptors in chain order.
    pub fn descs(&self) -> &[Descriptor] {
        match &self.descs {
            Descs::One(d) => std::slice::from_ref(d),
            Descs::Many(ds) => ds,
        }
    }

    /// Total bytes across all device-readable descriptors.
    pub fn readable_len(&self) -> u64 {
        self.descs()
            .iter()
            .filter(|d| !d.device_writes)
            .map(|d| d.len as u64)
            .sum()
    }

    /// Total bytes across all device-writable descriptors.
    pub fn writable_len(&self) -> u64 {
        self.descs()
            .iter()
            .filter(|d| d.device_writes)
            .map(|d| d.len as u64)
            .sum()
    }
}

/// A used-ring element: a completed chain and how much was written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UsedElem {
    /// The head index of the completed chain.
    pub head: u16,
    /// Bytes the device wrote into the chain.
    pub written: u32,
}

/// The descriptors charged to one outstanding head; `descs == 0`
/// marks a free slot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Charge {
    head: u16,
    descs: u16,
}

/// A split virtqueue.
///
/// # Example
///
/// ```
/// use dvh_devices::virtio::queue::{Descriptor, VirtQueue};
/// use dvh_memory::Gpa;
///
/// let mut q = VirtQueue::new(256);
/// let head = q
///     .add_one(Descriptor { addr: Gpa::new(0x1000), len: 1500, device_writes: false })
///     .unwrap();
/// assert!(q.needs_kick());
/// let chain = q.pop_avail().unwrap();
/// assert_eq!(chain.head, head);
/// q.push_used(chain.head, 0);
/// assert_eq!(q.pop_used().unwrap().head, head);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VirtQueue {
    size: u16,
    avail: VecDeque<DescChain>,
    used: VecDeque<UsedElem>,
    next_head: u16,
    in_flight: u16,
    /// Descriptors charged to each outstanding head (added, not yet
    /// harvested), in slot `head mod size`, so that completion
    /// releases exactly what was charged. When chains complete in
    /// order, as on every datapath, the outstanding heads are at most
    /// `size` consecutive values and never share a slot.
    charges: Box<[Charge]>,
    /// Charges whose slot an older head still held: only out-of-order
    /// completion leaves a head that far behind.
    spilled: Vec<Charge>,
    /// Driver-side suppression: device should not send interrupts.
    pub no_interrupt: bool,
    /// Device-side suppression: driver need not kick.
    pub no_notify: bool,
    kicks: u64,
    interrupts: u64,
}

/// Error adding a chain to a full queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull;

impl fmt::Display for QueueFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "virtqueue is full")
    }
}

impl std::error::Error for QueueFull {}

impl VirtQueue {
    /// Creates a queue with `size` descriptor slots.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or not a power of two (virtio
    /// requirement).
    pub fn new(size: u16) -> VirtQueue {
        assert!(
            size > 0 && size.is_power_of_two(),
            "queue size must be a power of two"
        );
        VirtQueue {
            size,
            avail: VecDeque::new(),
            // Completions pile up until the driver harvests them, at
            // most one per descriptor: sized once, the ring never grows.
            used: VecDeque::with_capacity(size as usize),
            next_head: 0,
            in_flight: 0,
            charges: vec![Charge::default(); size as usize].into_boxed_slice(),
            spilled: Vec::new(),
            no_interrupt: false,
            no_notify: false,
            kicks: 0,
            interrupts: 0,
        }
    }

    /// Queue size in descriptors.
    pub fn size(&self) -> u16 {
        self.size
    }

    /// Driver side: exposes a chain of buffers to the device.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] when the chain is empty, longer than the
    /// ring (it could never fit, and a bare `as u16` narrowing would
    /// silently wrap huge lengths into a tiny — possibly zero —
    /// descriptor charge), or does not fit next to the chains already
    /// in flight.
    pub fn add_chain(&mut self, descs: Vec<Descriptor>) -> Result<u16, QueueFull> {
        match u16::try_from(descs.len()) {
            Ok(n) if n <= self.size => self.expose(Descs::Many(descs), n),
            _ => Err(QueueFull),
        }
    }

    /// Driver side: exposes the one-descriptor chain `desc`, stored
    /// inline.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] when every descriptor is in flight.
    pub fn add_one(&mut self, desc: Descriptor) -> Result<u16, QueueFull> {
        self.expose(Descs::One(desc), 1)
    }

    /// Driver side: [`VirtQueue::add_one`], first harvesting every
    /// completion when the ring is full, as the datapaths' drivers do.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] when the ring is still full: every
    /// descriptor belongs to a chain the device has not completed, so
    /// the driver must kick and let the device catch up.
    pub fn add_reclaiming(&mut self, desc: Descriptor) -> Result<u16, QueueFull> {
        self.add_one(desc).or_else(|QueueFull| {
            while self.pop_used().is_some() {}
            self.add_one(desc)
        })
    }

    fn expose(&mut self, descs: Descs, needed: u16) -> Result<u16, QueueFull> {
        if needed == 0 || needed > self.size - self.in_flight {
            return Err(QueueFull);
        }
        let head = self.next_head;
        self.next_head = head.wrapping_add(1);
        self.in_flight += needed;
        let charge = Charge {
            head,
            descs: needed,
        };
        let slot = &mut self.charges[usize::from(head & (self.size - 1))];
        if slot.descs == 0 {
            *slot = charge;
        } else {
            self.spilled.push(charge);
        }
        self.avail.push_back(DescChain { head, descs });
        Ok(head)
    }

    /// Takes back the descriptors charged to `head`. Heads completed
    /// via `push_used` without a matching add (not something the
    /// datapaths do) release one descriptor.
    fn release(&mut self, head: u16) -> u16 {
        let slot = &mut self.charges[usize::from(head & (self.size - 1))];
        if slot.descs != 0 && slot.head == head {
            return std::mem::take(slot).descs;
        }
        match self.spilled.iter().position(|c| c.head == head) {
            Some(i) => self.spilled.swap_remove(i).descs,
            None => 1,
        }
    }

    /// Driver side: whether the device needs a doorbell kick (there is
    /// available work and the device has not suppressed notification).
    pub fn needs_kick(&self) -> bool {
        !self.avail.is_empty() && !self.no_notify
    }

    /// Driver side: records a doorbell kick.
    pub fn kick(&mut self) {
        self.kicks += 1;
    }

    /// Device side: pops the next available chain.
    pub fn pop_avail(&mut self) -> Option<DescChain> {
        self.avail.pop_front()
    }

    /// Device side: completes a chain, writing `written` bytes.
    pub fn push_used(&mut self, head: u16, written: u32) {
        self.used.push_back(UsedElem { head, written });
    }

    /// Device side: whether completing work should interrupt the
    /// driver.
    pub fn should_interrupt(&self) -> bool {
        !self.used.is_empty() && !self.no_interrupt
    }

    /// Device side: records that an interrupt was sent.
    pub fn interrupt_sent(&mut self) {
        self.interrupts += 1;
    }

    /// Driver side: harvests one completion, recycling every
    /// descriptor the completed chain was charged for.
    pub fn pop_used(&mut self) -> Option<UsedElem> {
        let e = self.used.pop_front()?;
        let released = self.release(e.head);
        self.in_flight = self.in_flight.saturating_sub(released);
        Some(e)
    }

    /// Descriptors currently charged against the ring (chains exposed
    /// or completed but not yet harvested by the driver).
    pub fn in_flight(&self) -> u16 {
        self.in_flight
    }

    /// Outstanding available chains not yet seen by the device.
    pub fn avail_len(&self) -> usize {
        self.avail.len()
    }

    /// Completions not yet harvested by the driver.
    pub fn used_len(&self) -> usize {
        self.used.len()
    }

    /// Restores the lifetime counters from a migration snapshot.
    /// Only valid on a quiesced queue (no in-flight chains).
    ///
    /// # Panics
    ///
    /// Panics if the queue has in-flight work.
    pub fn restore_counters(&mut self, kicks: u64, interrupts: u64) {
        assert!(
            self.avail.is_empty() && self.used.is_empty(),
            "restore requires a quiesced queue"
        );
        self.kicks = kicks;
        self.interrupts = interrupts;
    }

    /// Lifetime doorbell kicks.
    pub fn kick_count(&self) -> u64 {
        self.kicks
    }

    /// Lifetime interrupts.
    pub fn interrupt_count(&self) -> u64 {
        self.interrupts
    }

    /// Exports the queue's lifetime counters and in-flight gauge into a
    /// metrics registry under `tag` (e.g. `"net-tx"`). Absolute-value
    /// semantics: exporting twice overwrites, never double-counts.
    pub fn export_metrics(&self, reg: &mut dvh_obs::MetricsRegistry, tag: &'static str) {
        use dvh_obs::metrics::names;
        use dvh_obs::MetricKey;
        reg.set_counter(MetricKey::tagged(names::VIRTQUEUE_KICKS, tag), self.kicks);
        reg.set_counter(
            MetricKey::tagged(names::VIRTQUEUE_INTERRUPTS, tag),
            self.interrupts,
        );
        reg.set_gauge(
            MetricKey::tagged(names::VIRTQUEUE_IN_FLIGHT, tag),
            self.in_flight as i64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn desc(addr: u64, len: u32, w: bool) -> Descriptor {
        Descriptor {
            addr: Gpa::new(addr),
            len,
            device_writes: w,
        }
    }

    #[test]
    fn produce_consume_cycle() {
        let mut q = VirtQueue::new(4);
        let h = q.add_chain(vec![desc(0x1000, 100, false)]).unwrap();
        assert_eq!(q.avail_len(), 1);
        let c = q.pop_avail().unwrap();
        assert_eq!(c.head, h);
        assert_eq!(c.readable_len(), 100);
        q.push_used(c.head, 0);
        assert!(q.should_interrupt());
        let u = q.pop_used().unwrap();
        assert_eq!(u.head, h);
        assert_eq!(q.used_len(), 0);
    }

    #[test]
    fn queue_full_when_in_flight() {
        let mut q = VirtQueue::new(2);
        q.add_chain(vec![desc(0, 1, false)]).unwrap();
        q.add_chain(vec![desc(0, 1, false)]).unwrap();
        assert_eq!(q.add_chain(vec![desc(0, 1, false)]), Err(QueueFull));
        // Completing frees a slot.
        let c = q.pop_avail().unwrap();
        q.push_used(c.head, 0);
        q.pop_used().unwrap();
        assert!(q.add_chain(vec![desc(0, 1, false)]).is_ok());
    }

    #[test]
    fn suppression_flags() {
        let mut q = VirtQueue::new(4);
        q.add_chain(vec![desc(0, 1, false)]).unwrap();
        assert!(q.needs_kick());
        q.no_notify = true;
        assert!(!q.needs_kick());
        let c = q.pop_avail().unwrap();
        q.push_used(c.head, 0);
        q.no_interrupt = true;
        assert!(!q.should_interrupt());
    }

    #[test]
    fn readable_writable_split() {
        let mut q = VirtQueue::new(4);
        q.add_chain(vec![
            desc(0, 10, false),
            desc(0, 20, true),
            desc(0, 30, true),
        ])
        .unwrap();
        let c = q.pop_avail().unwrap();
        assert_eq!(c.readable_len(), 10);
        assert_eq!(c.writable_len(), 50);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        VirtQueue::new(3);
    }

    #[test]
    fn empty_chain_rejected() {
        let mut q = VirtQueue::new(4);
        assert_eq!(q.add_chain(vec![]), Err(QueueFull));
    }

    #[test]
    fn multi_descriptor_chain_accounting_is_symmetric() {
        // Regression: add_chain charged descs.len() descriptors but
        // pop_used released only 1 per chain, so every multi-descriptor
        // chain leaked until the queue reported QueueFull forever.
        let mut q = VirtQueue::new(8);
        for _ in 0..64 {
            let h1 = q.add_chain(vec![desc(0, 1, false); 3]).unwrap();
            let h2 = q.add_chain(vec![desc(0, 1, false); 3]).unwrap();
            // 6 of 8 descriptors in flight: a third chain cannot fit.
            assert_eq!(q.add_chain(vec![desc(0, 1, false); 3]), Err(QueueFull));
            for h in [h1, h2] {
                let c = q.pop_avail().unwrap();
                assert_eq!(c.head, h);
                q.push_used(c.head, 0);
            }
            q.pop_used().unwrap();
            q.pop_used().unwrap();
            assert_eq!(q.in_flight(), 0);
        }
    }

    #[test]
    fn out_of_order_completion_releases_correct_lengths() {
        let mut q = VirtQueue::new(8);
        let h_big = q.add_chain(vec![desc(0, 1, false); 5]).unwrap();
        let h_small = q.add_chain(vec![desc(0, 1, false)]).unwrap();
        let big = q.pop_avail().unwrap();
        let small = q.pop_avail().unwrap();
        // Device completes the small chain first.
        q.push_used(small.head, 0);
        q.push_used(big.head, 0);
        assert_eq!(q.pop_used().unwrap().head, h_small);
        assert_eq!(q.in_flight(), 5);
        assert_eq!(q.pop_used().unwrap().head, h_big);
        assert_eq!(q.in_flight(), 0);
    }

    #[test]
    fn oversized_chain_rejected_not_truncated() {
        let mut q = VirtQueue::new(4);
        // Longer than the ring: can never fit.
        assert_eq!(q.add_chain(vec![desc(0, 1, false); 5]), Err(QueueFull));
        // Longer than u16::MAX: the old `as u16` narrowing wrapped
        // 65536 descriptors into a charge of zero.
        assert_eq!(q.add_chain(vec![desc(0, 1, false); 65_536]), Err(QueueFull));
        assert_eq!(q.in_flight(), 0);
        assert!(q.add_chain(vec![desc(0, 1, false); 4]).is_ok());
        assert_eq!(q.in_flight(), 4);
    }

    #[test]
    fn one_descriptor_chains_are_stored_inline() {
        let mut q = VirtQueue::new(4);
        q.add_one(desc(0x1000, 64, true)).unwrap();
        let c = q.pop_avail().unwrap();
        assert!(matches!(c.descs, Descs::One(_)));
        assert_eq!(c.descs(), [desc(0x1000, 64, true)]);
    }

    #[test]
    fn add_reclaiming_harvests_completions_but_not_unserviced_chains() {
        let mut q = VirtQueue::new(2);
        q.add_reclaiming(desc(0, 1, false)).unwrap();
        q.add_reclaiming(desc(0, 1, false)).unwrap();
        // Both slots hold chains the device has not seen.
        assert_eq!(q.add_reclaiming(desc(0, 1, false)), Err(QueueFull));
        while let Some(c) = q.pop_avail() {
            q.push_used(c.head, 0);
        }
        // Completed chains are harvested to make room.
        assert_eq!(q.add_reclaiming(desc(0, 1, false)), Ok(2));
        assert_eq!(q.used_len(), 0);
        assert_eq!(q.in_flight(), 1);
    }

    #[test]
    fn a_head_left_behind_by_out_of_order_completion_keeps_its_charge() {
        let mut q = VirtQueue::new(4);
        let old = q.add_chain(vec![desc(0, 1, false); 2]).unwrap();
        q.pop_avail().unwrap();
        // Heads 1 to 3 complete while head 0 stays with the device...
        for _ in 0..3 {
            q.add_one(desc(0, 1, false)).unwrap();
            let c = q.pop_avail().unwrap();
            q.push_used(c.head, 0);
            q.pop_used().unwrap();
        }
        // ...so head 4 maps to the slot head 0 still holds.
        let new = q.add_one(desc(0, 1, false)).unwrap();
        assert_eq!((old, new), (0, 4));
        assert_eq!(q.spilled.len(), 1);
        assert_eq!(q.in_flight(), 3);
        q.pop_avail().unwrap();
        q.push_used(new, 0);
        q.pop_used().unwrap();
        assert_eq!(q.in_flight(), 2);
        q.push_used(old, 0);
        q.pop_used().unwrap();
        assert_eq!(q.in_flight(), 0);
        assert!(q.spilled.is_empty());
        assert!(q.charges.iter().all(|c| c.descs == 0));
    }

    #[test]
    fn counters_accumulate() {
        let mut q = VirtQueue::new(4);
        q.kick();
        q.kick();
        q.interrupt_sent();
        assert_eq!(q.kick_count(), 2);
        assert_eq!(q.interrupt_count(), 1);
    }
}
