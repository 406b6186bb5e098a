//! Local APIC model: ICR encoding, TSC-deadline timer state, and
//! posted-interrupt descriptors.

use std::fmt;

/// An interrupt vector number (32..=255 are usable).
pub type Vector = u8;

/// IPI delivery modes encoded in the ICR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum DeliveryMode {
    /// Ordinary fixed-vector interrupt.
    Fixed = 0,
    /// Non-maskable interrupt.
    Nmi = 4,
    /// INIT signal.
    Init = 5,
    /// Startup IPI.
    Startup = 6,
}

/// A decoded interrupt command register value.
///
/// Writing the (x2APIC) ICR MSR with an encoded [`IcrValue`] sends an
/// IPI. Hypervisors trap these writes; DVH's virtual IPIs (§3.3) let
/// the *host* hypervisor emulate them for nested VMs directly.
///
/// # Example
///
/// ```
/// use dvh_arch::apic::{IcrValue, DeliveryMode};
///
/// let icr = IcrValue::fixed(0xEC, 3);
/// let raw = icr.encode();
/// assert_eq!(IcrValue::decode(raw), icr);
/// assert_eq!(icr.dest, 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IcrValue {
    /// The interrupt vector to raise at the destination.
    pub vector: Vector,
    /// Delivery mode.
    pub mode: DeliveryMode,
    /// Destination (v)CPU identifier (x2APIC physical destination).
    pub dest: u32,
}

impl IcrValue {
    /// A fixed-mode IPI of `vector` to destination CPU `dest`.
    pub fn fixed(vector: Vector, dest: u32) -> IcrValue {
        IcrValue {
            vector,
            mode: DeliveryMode::Fixed,
            dest,
        }
    }

    /// Encodes to the architectural 64-bit x2APIC ICR layout:
    /// destination in bits 63:32, delivery mode in bits 10:8, vector in
    /// bits 7:0.
    pub fn encode(self) -> u64 {
        (self.dest as u64) << 32 | ((self.mode as u64) << 8) | self.vector as u64
    }

    /// Decodes from the architectural layout.
    ///
    /// Unknown delivery modes decode as [`DeliveryMode::Fixed`]; real
    /// hardware reserves them, and the simulator never produces them.
    pub fn decode(raw: u64) -> IcrValue {
        let mode = match (raw >> 8) & 0x7 {
            4 => DeliveryMode::Nmi,
            5 => DeliveryMode::Init,
            6 => DeliveryMode::Startup,
            _ => DeliveryMode::Fixed,
        };
        IcrValue {
            vector: (raw & 0xFF) as u8,
            mode,
            dest: (raw >> 32) as u32,
        }
    }
}

impl fmt::Display for IcrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "IPI(vec={:#x}, {:?}, dest={})",
            self.vector, self.mode, self.dest
        )
    }
}

/// A posted-interrupt descriptor (PI descriptor).
///
/// Hardware (or a hypervisor emulating it) sets bits in `pir`, sets
/// `on`, and sends the notification vector to the CPU named by
/// `ndst`; the destination CPU then injects the pending vectors into
/// the running guest without a VM exit.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PiDescriptor {
    /// Posted-interrupt requests: a 256-bit vector bitmap.
    pub pir: [u64; 4],
    /// Outstanding notification: a notification has been sent and not
    /// yet processed.
    pub on: bool,
    /// Suppress notification: destination is not in guest mode, send no
    /// notification IPI (software will sync PIR on next entry).
    pub sn: bool,
    /// Notification destination: the physical CPU to notify.
    pub ndst: u32,
    /// Notification vector to use.
    pub nv: Vector,
}

impl PiDescriptor {
    /// Creates an empty descriptor targeting physical CPU `ndst` with
    /// notification vector `nv`.
    pub fn new(ndst: u32, nv: Vector) -> PiDescriptor {
        PiDescriptor {
            ndst,
            nv,
            ..PiDescriptor::default()
        }
    }

    /// Posts `vector`, returning `true` if a notification IPI should be
    /// sent (i.e. `on` transitioned from clear to set and `sn` is
    /// clear) — the same edge-triggered protocol hardware uses.
    pub fn post(&mut self, vector: Vector) -> bool {
        let idx = (vector / 64) as usize;
        self.pir[idx] |= 1u64 << (vector % 64);
        if self.on || self.sn {
            false
        } else {
            self.on = true;
            true
        }
    }

    /// Whether `vector` is pending.
    pub fn is_pending(&self, vector: Vector) -> bool {
        let idx = (vector / 64) as usize;
        self.pir[idx] & (1u64 << (vector % 64)) != 0
    }

    /// Drains all pending vectors in ascending order, clearing the
    /// descriptor, as virtual-interrupt delivery does on VM entry or on
    /// notification receipt. The iterator owns a copy of the PIR, so
    /// the descriptor is free again as soon as this returns.
    pub fn drain(&mut self) -> impl Iterator<Item = Vector> {
        let pir = std::mem::take(&mut self.pir);
        self.on = false;
        (0u32..4).flat_map(move |i| {
            let mut w = pir[i as usize];
            std::iter::from_fn(move || {
                let bit = (w != 0).then(|| w.trailing_zeros())?;
                w &= w - 1;
                Some((i * 64 + bit) as Vector)
            })
        })
    }

    /// Whether any vector is pending.
    pub fn has_pending(&self) -> bool {
        self.pir.iter().any(|w| *w != 0)
    }
}

/// Per-vCPU LAPIC timer state (TSC-deadline mode).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LapicTimer {
    /// Armed deadline in guest-TSC units; `None` when disarmed.
    pub deadline: Option<u64>,
    /// Vector programmed in the LVT timer entry.
    pub vector: Vector,
    /// Whether the LVT entry is masked.
    pub masked: bool,
}

impl LapicTimer {
    /// Arms the timer for `deadline` (guest TSC units).
    pub fn arm(&mut self, deadline: u64) {
        self.deadline = if deadline == 0 { None } else { Some(deadline) };
    }

    /// Disarms the timer.
    pub fn disarm(&mut self) {
        self.deadline = None;
    }

    /// Whether the timer would have fired by guest time `now`.
    pub fn expired(&self, now: u64) -> bool {
        matches!(self.deadline, Some(d) if now >= d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn icr_round_trip() {
        for dest in [0u32, 1, 7, 1000] {
            for vec in [0x20u8, 0xEC, 0xFF] {
                let icr = IcrValue::fixed(vec, dest);
                assert_eq!(IcrValue::decode(icr.encode()), icr);
            }
        }
    }

    #[test]
    fn icr_modes_round_trip() {
        for mode in [
            DeliveryMode::Fixed,
            DeliveryMode::Nmi,
            DeliveryMode::Init,
            DeliveryMode::Startup,
        ] {
            let icr = IcrValue {
                vector: 0x40,
                mode,
                dest: 2,
            };
            assert_eq!(IcrValue::decode(icr.encode()).mode, mode);
        }
    }

    #[test]
    fn pi_post_is_edge_triggered() {
        let mut pi = PiDescriptor::new(1, 0xF2);
        assert!(pi.post(0x30), "first post should notify");
        assert!(!pi.post(0x31), "second post while ON should not notify");
        assert!(pi.is_pending(0x30));
        assert!(pi.is_pending(0x31));
        let drained: Vec<_> = pi.drain().collect();
        assert_eq!(drained, vec![0x30, 0x31]);
        assert!(!pi.has_pending());
        assert!(pi.post(0x32), "after drain, posting notifies again");
    }

    #[test]
    fn pi_suppressed_does_not_notify() {
        let mut pi = PiDescriptor::new(0, 0xF2);
        pi.sn = true;
        assert!(!pi.post(0x55));
        assert!(pi.is_pending(0x55));
    }

    #[test]
    fn timer_arm_expire() {
        let mut t = LapicTimer::default();
        t.arm(1_000);
        assert!(!t.expired(999));
        assert!(t.expired(1_000));
        t.disarm();
        assert!(!t.expired(u64::MAX));
    }

    #[test]
    fn timer_arm_zero_disarms() {
        let mut t = LapicTimer::default();
        t.arm(0);
        assert_eq!(t.deadline, None);
    }

    #[test]
    fn pi_drain_order_is_ascending_across_words() {
        let mut pi = PiDescriptor::new(0, 0xF2);
        pi.post(200);
        pi.post(3);
        pi.post(64);
        assert_eq!(pi.drain().collect::<Vec<_>>(), vec![3, 64, 200]);
    }
}

/// A 256-bit interrupt bitmap (IRR/ISR/TMR style).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VectorBitmap([u64; 4]);

impl VectorBitmap {
    /// Sets `vector`.
    pub fn set(&mut self, vector: Vector) {
        self.0[(vector / 64) as usize] |= 1u64 << (vector % 64);
    }

    /// Clears `vector`.
    pub fn clear(&mut self, vector: Vector) {
        self.0[(vector / 64) as usize] &= !(1u64 << (vector % 64));
    }

    /// Whether `vector` is set.
    pub fn get(&self, vector: Vector) -> bool {
        self.0[(vector / 64) as usize] & (1u64 << (vector % 64)) != 0
    }

    /// The highest set vector, if any (APIC priority order).
    pub fn highest(&self) -> Option<Vector> {
        for (i, w) in self.0.iter().enumerate().rev() {
            if *w != 0 {
                let bit = 63 - w.leading_zeros();
                return Some((i as u32 * 64 + bit) as u8);
            }
        }
        None
    }

    /// Whether no vector is set.
    pub fn is_empty(&self) -> bool {
        self.0.iter().all(|w| *w == 0)
    }
}

/// The local APIC's interrupt acceptance state machine: the IRR
/// (requested), ISR (in service), and the EOI protocol, with TPR-based
/// priority masking — what APICv virtualizes so that interrupt
/// acceptance and EOI never exit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LapicState {
    irr: VectorBitmap,
    isr: VectorBitmap,
    /// Task-priority register (vectors with class <= TPR class are
    /// masked).
    pub tpr: u8,
    accepted: u64,
    eois: u64,
}

impl LapicState {
    /// Creates an idle LAPIC.
    pub fn new() -> LapicState {
        LapicState::default()
    }

    /// A vector arrives (from the PIR drain, an SGI, or an MSI): it is
    /// latched in the IRR.
    pub fn accept(&mut self, vector: Vector) {
        self.irr.set(vector);
        self.accepted += 1;
    }

    /// Whether an interrupt is deliverable right now: something in the
    /// IRR with priority above both the TPR class and any in-service
    /// vector.
    pub fn deliverable(&self) -> Option<Vector> {
        let v = self.irr.highest()?;
        if (v >> 4) <= (self.tpr >> 4) {
            return None;
        }
        if let Some(in_service) = self.isr.highest() {
            if v <= in_service {
                return None;
            }
        }
        Some(v)
    }

    /// The CPU takes the highest deliverable vector: IRR -> ISR.
    pub fn dispatch(&mut self) -> Option<Vector> {
        let v = self.deliverable()?;
        self.irr.clear(v);
        self.isr.set(v);
        Some(v)
    }

    /// End of interrupt: retire the highest in-service vector.
    /// Returns it, or `None` for a spurious EOI.
    pub fn eoi(&mut self) -> Option<Vector> {
        let v = self.isr.highest()?;
        self.isr.clear(v);
        self.eois += 1;
        Some(v)
    }

    /// Pending (requested, not yet dispatched) vector count indicator.
    pub fn has_pending(&self) -> bool {
        !self.irr.is_empty()
    }

    /// Whether any interrupt is in service.
    pub fn in_service(&self) -> bool {
        !self.isr.is_empty()
    }

    /// Lifetime accepted interrupts.
    pub fn accepted_count(&self) -> u64 {
        self.accepted
    }

    /// Lifetime EOIs.
    pub fn eoi_count(&self) -> u64 {
        self.eois
    }
}

#[cfg(test)]
mod lapic_tests {
    use super::*;

    #[test]
    fn accept_dispatch_eoi_cycle() {
        let mut l = LapicState::new();
        l.accept(0x40);
        assert!(l.has_pending());
        assert_eq!(l.dispatch(), Some(0x40));
        assert!(!l.has_pending());
        assert!(l.in_service());
        assert_eq!(l.eoi(), Some(0x40));
        assert!(!l.in_service());
        assert_eq!(l.accepted_count(), 1);
        assert_eq!(l.eoi_count(), 1);
    }

    #[test]
    fn priority_order_highest_first() {
        let mut l = LapicState::new();
        l.accept(0x31);
        l.accept(0xE0);
        l.accept(0x55);
        assert_eq!(l.dispatch(), Some(0xE0));
        assert_eq!(l.eoi(), Some(0xE0));
        assert_eq!(l.dispatch(), Some(0x55));
        assert_eq!(l.eoi(), Some(0x55));
        assert_eq!(l.dispatch(), Some(0x31));
    }

    #[test]
    fn lower_priority_blocked_while_in_service() {
        let mut l = LapicState::new();
        l.accept(0x80);
        l.dispatch().unwrap();
        l.accept(0x40);
        assert_eq!(l.deliverable(), None, "0x40 < in-service 0x80");
        // But a higher vector nests.
        l.accept(0xC0);
        assert_eq!(l.dispatch(), Some(0xC0));
        // EOI retires the highest in-service first.
        assert_eq!(l.eoi(), Some(0xC0));
        assert_eq!(l.eoi(), Some(0x80));
        assert_eq!(l.dispatch(), Some(0x40));
    }

    #[test]
    fn tpr_masks_low_classes() {
        let mut l = LapicState::new();
        l.tpr = 0x50;
        l.accept(0x4F);
        assert_eq!(l.deliverable(), None);
        l.accept(0x61);
        assert_eq!(l.dispatch(), Some(0x61));
        assert_eq!(l.eoi(), Some(0x61));
        l.tpr = 0;
        assert_eq!(l.dispatch(), Some(0x4F));
    }

    #[test]
    fn spurious_eoi_is_none() {
        assert_eq!(LapicState::new().eoi(), None);
    }

    #[test]
    fn bitmap_highest_across_words() {
        let mut b = VectorBitmap::default();
        assert_eq!(b.highest(), None);
        b.set(3);
        b.set(200);
        assert_eq!(b.highest(), Some(200));
        b.clear(200);
        assert_eq!(b.highest(), Some(3));
        assert!(!b.get(200));
        assert!(b.get(3));
    }
}
