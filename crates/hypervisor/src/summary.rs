//! Compositional exit summaries: memoized guest-hypervisor primitives.
//!
//! A VMX instruction (or trapped MSR/APIC access) executed by a guest
//! hypervisor at level ≥ 2 traps and is reflected through every level
//! below it. That subtree is deterministic: its cost and its ledger
//! rows depend only on the trapping level, the reason and the
//! field/MSR, never on the values moved. So the first time a
//! `(cpu, from_level, reason, operand)` subtree runs it is *recorded*:
//! the clock delta, the `RunStats` delta, and an ordered effect log of
//! the VMCS stores it made. Every later occurrence is a *hit*: advance
//! the clock, add the ledger delta, replay the log. The recursion still
//! produces every simulated cycle and counter; only host time drops.
//!
//! Summaries compose: while a level-k subtree is being recorded, its
//! level-(k−1) primitives hit their own summaries, whose effects are
//! appended to the enclosing recording. An L(n) operation therefore
//! costs O(n) memo applications instead of ~24^n exits. The same
//! mechanism summarizes a level-≥2 hypervisor's world-switch programs
//! (`exit_side_program`, `entry_side_program`), each a fixed sequence
//! of such primitives, so a reflection pays one hit per program rather
//! than one per primitive.
//!
//! Anything state-dependent inside a recording *taints* it: the key is
//! then marked unsummarizable and always takes the full recursion (see
//! [`World::taint_summaries`] call sites). Summaries are bypassed while
//! tracing, metrics or VM-entry checks are on, so every observability
//! artifact is produced by the full recursion, exactly as before.

use crate::stats::RunStats;
use crate::world::World;
use dvh_arch::msr;
use dvh_arch::vmx::{field, ExitQualification, ExitReason};
use dvh_arch::Cycles;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// How far `advance_guest_rip` moves RIP past an emulated instruction.
pub(crate) const RIP_ADVANCE: u64 = 3;

/// One VMCS store made inside a summarized subtree, on the subtree's
/// CPU. Replaying the log in order reproduces every value and every
/// written-bit the full recursion would have produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Effect {
    /// `vmcs[level].field = value` (synthetic exit state, L0's RIP
    /// reset).
    Set { level: u32, field: u32, value: u64 },
    /// `vmcs[level].GUEST_RIP += delta` (emulated instructions retired,
    /// `RIP_ADVANCE` each).
    AddRip { level: u32, delta: u64 },
    /// `vmcs[dst].field = vmcs[src].field` (the vmcs12 → vmcs02 merge).
    Copy { dst: u32, src: u32, field: u32 },
}

impl Effect {
    /// The (level, field) this effect stores to.
    fn target(self) -> (u32, u32) {
        match self {
            Effect::Set { level, field, .. } => (level, field),
            Effect::AddRip { level, .. } => (level, field::GUEST_RIP),
            Effect::Copy { dst, field, .. } => (dst, field),
        }
    }

    /// The (level, field) this effect reads before storing, if any.
    fn source(self) -> Option<(u32, u32)> {
        match self {
            Effect::Set { .. } => None,
            Effect::AddRip { level, .. } => Some((level, field::GUEST_RIP)),
            Effect::Copy { src, field, .. } => Some((src, field)),
        }
    }
}

/// Shortens an effect log without changing what replaying it does.
/// First drops stores that a later store to the same (level, field)
/// overwrites before anything reads them (the overwriting store sets
/// the same written-bit). Then folds each RIP advance into an earlier
/// one on the same level when nothing in between touches that RIP.
fn compact(log: &[Effect]) -> Vec<Effect> {
    let mut overwritten: Vec<(u32, u32)> = Vec::new();
    let mut kept = Vec::with_capacity(log.len());
    for &e in log.iter().rev() {
        let target = e.target();
        if overwritten.contains(&target) {
            continue;
        }
        kept.push(e);
        overwritten.push(target);
        if let Some(src) = e.source() {
            overwritten.retain(|t| *t != src);
        }
    }
    kept.reverse();
    let mut folded: Vec<Effect> = Vec::with_capacity(kept.len());
    for e in kept {
        if let Effect::AddRip { level, delta } = e {
            let rip = (level, field::GUEST_RIP);
            let open = folded
                .iter()
                .rposition(|p| p.target() == rip || p.source() == Some(rip));
            if let Some(Effect::AddRip { delta: d, .. }) = open.map(|i| &mut folded[i]) {
                *d = d.wrapping_add(delta);
                continue;
            }
        }
        folded.push(e);
    }
    folded
}

/// A recorded subtree.
#[derive(Debug, Default)]
struct Summary {
    /// Simulated cycles the subtree spends on its CPU.
    cycles: Cycles,
    /// Exits the subtree raises, per (level, reason).
    exits: Box<[(usize, ExitReason, u64)]>,
    /// Guest-hypervisor interventions, per owner level.
    interventions: Box<[(usize, u64)]>,
    /// Cycles attributed to outermost exits inside the subtree (only a
    /// program run outside any exit has any).
    attributed: Box<[(usize, ExitReason, Cycles)]>,
    /// The subtree's VMCS stores, in order.
    effects: Box<[Effect]>,
}

/// Memo entry for one key.
#[derive(Debug, Clone, Copy)]
enum Entry {
    /// Index into [`SummaryMemo::summaries`].
    Ready(usize),
    /// A recording of this key was tainted: always recurse in full.
    Unsummarizable,
}

/// One recording in progress.
#[derive(Debug)]
struct Recording {
    key: u64,
    t0: Cycles,
    /// Where this recording's effects start in the shared log.
    log_start: usize,
    /// The ledger when recording began.
    before: RunStats,
    tainted: bool,
}

/// Hashes the packed `u64` memo key with one multiply and fold.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        let x = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = x ^ (x >> 29);
    }
}

/// The per-[`World`] memo of exit summaries.
#[derive(Debug, Default)]
pub(crate) struct SummaryMemo {
    /// Set by [`World::disable_exit_summaries`].
    disabled: bool,
    entries: HashMap<u64, Entry, BuildHasherDefault<KeyHasher>>,
    summaries: Vec<Summary>,
    /// Active recordings, innermost last.
    stack: Vec<Recording>,
    /// Effect log shared by all active recordings.
    log: Vec<Effect>,
}

impl SummaryMemo {
    /// Whether any recording is in progress.
    #[inline(always)]
    pub(crate) fn recording(&self) -> bool {
        !self.stack.is_empty()
    }

    /// Forgets every summary (the exit paths they describe changed).
    pub(crate) fn invalidate(&mut self) {
        self.entries.clear();
        self.summaries.clear();
    }
}

/// A guest hypervisor's world-switch program (see
/// [`crate::profile::HvProfile`]): a fixed sequence of trapping
/// primitives, summarized as their composition.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Program {
    /// `exit_side_program`.
    ExitSide,
    /// `entry_side_program`.
    EntrySide,
}

/// What [`World::vmexit`] or a world-switch program should do.
pub(crate) enum Probe {
    /// Run the full recursion, recording nothing.
    Full,
    /// Run the full recursion and record it under this key.
    Record(u64),
    /// Apply the summary at this index instead of recursing.
    Hit(usize),
}

/// The memo key of a guest-hypervisor primitive, or `None` when the
/// exit's subtree is not cost-invariant. Only reasons whose handling
/// depends on nothing but (level, reason, field/MSR) qualify: the VMX
/// instructions, MSR reads, MSR writes other than the ICR (which sends
/// an IPI), and trap-like APIC writes. The qualification's raw and
/// guest-physical words are stored verbatim into synthetic exit state,
/// so only exits that leave them zero are keyed.
fn key(cpu: usize, from_level: usize, reason: ExitReason, qual: &ExitQualification) -> Option<u64> {
    if qual.raw != 0 || qual.guest_physical != 0 {
        return None;
    }
    let operand = match reason {
        ExitReason::Vmread | ExitReason::Vmwrite => qual.vmcs_field,
        ExitReason::MsrRead => qual.msr,
        ExitReason::MsrWrite if qual.msr != msr::IA32_X2APIC_ICR => qual.msr,
        ExitReason::Vmptrld
        | ExitReason::Vmptrst
        | ExitReason::Vmclear
        | ExitReason::Invept
        | ExitReason::Invvpid
        | ExitReason::Vmresume
        | ExitReason::Vmlaunch
        | ExitReason::ApicWrite => 0,
        _ => return None,
    };
    pack(cpu, from_level, reason.number(), operand)
}

/// Packs a memo key; `tag` is an exit reason number (< 64) or one of
/// the program tags above it.
fn pack(cpu: usize, level: usize, tag: u16, operand: u32) -> Option<u64> {
    if cpu >= 1 << 16 || level >= 1 << 8 || tag >= 1 << 8 {
        return None;
    }
    Some((cpu as u64) << 48 | (level as u64) << 40 | u64::from(tag) << 32 | u64::from(operand))
}

/// The memo key of world-switch program `program` of the hypervisor at
/// `level` on `cpu`. A program run outside any exit (`outermost`: a
/// timer or interrupt relay) attributes cycles to each of its
/// primitives, so it is keyed apart from the same program run inside
/// an exit.
fn program_key(cpu: usize, level: usize, program: Program, outermost: bool) -> Option<u64> {
    let tag = match program {
        Program::ExitSide => 0xFE,
        Program::EntrySide => 0xFF,
    };
    pack(cpu, level, tag, u32::from(outermost))
}

impl World {
    /// Turns exit summaries off for the rest of this world's life:
    /// every exit takes the full recursion. The differential oracle
    /// (`dvh-checker`'s summary pass) runs each scenario both ways and
    /// requires bit-for-bit equal results.
    pub fn disable_exit_summaries(&mut self) {
        self.summaries.disabled = true;
        self.summaries.invalidate();
    }

    /// Whether exit summaries may be used right now: not disabled, and
    /// no observer (trace, metrics, VM-entry checks) that must see
    /// every exit of the full recursion.
    #[inline(always)]
    fn summaries_usable(&self) -> bool {
        !(self.summaries.disabled || self.trace_on || self.metrics_on || self.vmentry_checks)
    }

    /// Decides how to handle an exit from a guest hypervisor at
    /// `from_level` (the caller has checked `2 ≤ from_level < leaf`).
    #[inline]
    pub(crate) fn summary_probe(
        &mut self,
        from_level: usize,
        cpu: usize,
        reason: ExitReason,
        qual: &ExitQualification,
    ) -> Probe {
        if !self.summaries_usable() {
            return Probe::Full;
        }
        self.lookup(key(cpu, from_level, reason, qual))
    }

    /// The memo's answer for `key` (`None`: not summarizable).
    #[inline]
    fn lookup(&self, key: Option<u64>) -> Probe {
        let Some(key) = key else {
            return Probe::Full;
        };
        match self.summaries.entries.get(&key) {
            Some(Entry::Ready(idx)) => Probe::Hit(*idx),
            Some(Entry::Unsummarizable) => Probe::Full,
            None => Probe::Record(key),
        }
    }

    /// Runs world-switch program `program` of the hypervisor at `level`
    /// on `cpu` through its summary. Only programs of guest hypervisors
    /// at level ≥ 2 are summarized: each is a fixed sequence of their
    /// trapping primitives, so its summary is the composition of theirs.
    #[inline]
    pub(crate) fn run_program(
        &mut self,
        level: usize,
        cpu: usize,
        program: Program,
        body: impl FnOnce(&mut World, usize, usize),
    ) {
        let probe = if level >= 2 && self.summaries_usable() {
            let outermost = self.exit_depth[cpu] == 0;
            self.lookup(program_key(cpu, level, program, outermost))
        } else {
            Probe::Full
        };
        self.run_probe(probe, cpu, |w| body(w, level, cpu));
    }

    /// Carries out `probe` on `cpu`: applies the summary on a hit, or
    /// runs `body` in full, recording it on a miss.
    #[inline]
    pub(crate) fn run_probe(&mut self, probe: Probe, cpu: usize, body: impl FnOnce(&mut World)) {
        match probe {
            Probe::Full => body(self),
            Probe::Hit(idx) => self.apply_summary(idx, cpu),
            Probe::Record(key) => {
                self.begin_summary(key, cpu);
                body(self);
                self.end_summary(cpu);
            }
        }
    }

    /// Applies summary `idx` on `cpu`: the clock delta, the ledger
    /// delta, and the effect log. Allocation-free unless an enclosing
    /// recording is collecting the effects.
    pub(crate) fn apply_summary(&mut self, idx: usize, cpu: usize) {
        // Move the summary out so the world can be mutated while it is
        // read; moving `Vec` headers allocates nothing.
        let s = std::mem::take(&mut self.summaries.summaries[idx]);
        self.compute(cpu, s.cycles);
        for &(level, reason, n) in &s.exits {
            self.stats.exits.add(level, reason, n);
        }
        for &(level, n) in &s.interventions {
            self.stats.interventions.add(level, n);
        }
        for &(level, reason, c) in &s.attributed {
            self.stats.attribute_cycles(level, reason, c);
        }
        for &e in &s.effects {
            self.apply_effect(cpu, e);
        }
        if self.summaries.recording() {
            self.summaries.log.extend_from_slice(&s.effects);
        }
        self.summaries.summaries[idx] = s;
    }

    /// Starts recording the subtree of the exit keyed `key` on `cpu`.
    pub(crate) fn begin_summary(&mut self, key: u64, cpu: usize) {
        let rec = Recording {
            key,
            t0: self.now(cpu),
            log_start: self.summaries.log.len(),
            before: self.stats.clone(),
            tainted: false,
        };
        self.summaries.stack.push(rec);
    }

    /// Finishes the innermost recording and stores its summary, or
    /// marks its key unsummarizable if it was tainted or touched a
    /// ledger a summary cannot replay.
    pub(crate) fn end_summary(&mut self, cpu: usize) {
        let rec = self
            .summaries
            .stack
            .pop()
            .expect("end_summary without begin_summary");
        let before = &rec.before;
        let after = &self.stats;
        let replayable = !rec.tainted
            && after.dvh_intercepts == before.dvh_intercepts
            && after.posted_deliveries == before.posted_deliveries
            && after.injected_interrupts == before.injected_interrupts
            && after.idle_cycles == before.idle_cycles
            && after.burned_idle_cycles == before.burned_idle_cycles;
        let entry = if replayable {
            let exits = after
                .exits
                .iter()
                .map(|((level, reason), n)| (level, reason, n - before.exits.get(level, reason)))
                .filter(|&(_, _, n)| n > 0)
                .collect();
            let interventions = after
                .interventions
                .iter()
                .map(|(level, n)| (level, n - before.interventions.get(level)))
                .filter(|&(_, n)| n > 0)
                .collect();
            let attributed = after
                .cycles_by_reason
                .iter()
                .map(|(&(level, reason), &c)| {
                    let was = before.cycles_by_reason.get(&(level, reason));
                    (level, reason, c - was.copied().unwrap_or(Cycles::ZERO))
                })
                .filter(|&(_, _, c)| c > Cycles::ZERO)
                .collect();
            let summary = Summary {
                cycles: self.now(cpu) - rec.t0,
                exits,
                interventions,
                attributed,
                effects: compact(&self.summaries.log[rec.log_start..]).into(),
            };
            self.summaries.summaries.push(summary);
            Entry::Ready(self.summaries.summaries.len() - 1)
        } else {
            Entry::Unsummarizable
        };
        self.summaries.entries.insert(rec.key, entry);
        if !self.summaries.recording() {
            self.summaries.log.clear();
        }
    }

    /// Marks every active recording unsummarizable: the subtree did
    /// something that depends on, or changes, state the effect log
    /// cannot describe (EPT population, IPIs and interrupt delivery,
    /// halt chains, doorbells, DVH interception, timer arming, or an
    /// untracked VMCS store). One predicted branch when not recording.
    #[inline(always)]
    pub(crate) fn taint_summaries(&mut self) {
        if self.summaries.recording() {
            for rec in &mut self.summaries.stack {
                rec.tainted = true;
            }
        }
    }

    /// Logged store `vmcs[level].f = value` on `cpu`.
    #[inline(always)]
    pub(crate) fn vmcs_set(&mut self, level: usize, cpu: usize, f: u32, value: u64) {
        if self.summaries.recording() {
            let level = level as u32;
            self.log_effect(
                cpu,
                Effect::Set {
                    level,
                    field: f,
                    value,
                },
            );
        } else {
            self.vmcs_store(level, cpu).write(f, value);
        }
    }

    /// Logged store `vmcs[dst].f = vmcs[src].f` on `cpu`.
    #[inline(always)]
    pub(crate) fn vmcs_copy(&mut self, dst: usize, src: usize, cpu: usize, f: u32) {
        if self.summaries.recording() {
            let (dst, src) = (dst as u32, src as u32);
            self.log_effect(cpu, Effect::Copy { dst, src, field: f });
        } else {
            let v = self.vmcs(src, cpu).read(f);
            self.vmcs_store(dst, cpu).write(f, v);
        }
    }

    /// Logged store `vmcs[level].GUEST_RIP += RIP_ADVANCE` on `cpu`.
    #[inline(always)]
    pub(crate) fn vmcs_add_rip(&mut self, level: usize, cpu: usize) {
        if self.summaries.recording() {
            let (level, delta) = (level as u32, RIP_ADVANCE);
            self.log_effect(cpu, Effect::AddRip { level, delta });
        } else {
            let m = self.vmcs_store(level, cpu);
            let rip = m.read(field::GUEST_RIP);
            m.write(field::GUEST_RIP, rip.wrapping_add(RIP_ADVANCE));
        }
    }

    /// Performs one VMCS store on `cpu` and appends it to the shared
    /// effect log of the active recordings (the cold, recording path
    /// of the logged stores above).
    #[inline(never)]
    fn log_effect(&mut self, cpu: usize, e: Effect) {
        self.summaries.log.push(e);
        self.apply_effect(cpu, e);
    }

    #[inline(always)]
    fn apply_effect(&mut self, cpu: usize, e: Effect) {
        match e {
            Effect::Set {
                level,
                field: f,
                value,
            } => self.vmcs_store(level as usize, cpu).write(f, value),
            Effect::AddRip { level, delta } => {
                let m = self.vmcs_store(level as usize, cpu);
                let rip = m.read(field::GUEST_RIP);
                m.write(field::GUEST_RIP, rip.wrapping_add(delta));
            }
            Effect::Copy { dst, src, field: f } => {
                let v = self.vmcs(src as usize, cpu).read(f);
                self.vmcs_store(dst as usize, cpu).write(f, v);
            }
        }
    }

    /// Number of replayable exit summaries recorded so far (tainted
    /// keys are not counted). The differential oracle uses it to tell
    /// a scenario that exercised summaries from one that did not.
    pub fn exit_summary_count(&self) -> usize {
        self.summaries.summaries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorldConfig;
    use dvh_arch::costs::CostModel;

    fn world(levels: usize) -> World {
        World::new(CostModel::calibrated(), WorldConfig::baseline(levels))
    }

    /// Everything a summary must reproduce, for one world.
    fn state(w: &World) -> (RunStats, Vec<u64>, Vec<dvh_arch::vmx::Vmcs>) {
        let clocks = (0..w.num_cpus()).map(|c| w.now(c).as_u64()).collect();
        let vmcs = (0..w.leaf_level())
            .flat_map(|k| (0..w.num_cpus()).map(move |c| (k, c)))
            .map(|(k, c)| w.vmcs(k, c).clone())
            .collect();
        (w.stats.clone(), clocks, vmcs)
    }

    #[test]
    fn compaction_keeps_reads_and_last_stores() {
        let f = field::GUEST_RIP;
        let set = |level, value| Effect::Set {
            level,
            field: f,
            value,
        };
        let copy = Effect::Copy {
            dst: 0,
            src: 1,
            field: f,
        };
        // Two dead resets, then the merge overwrites the field.
        assert_eq!(compact(&[set(0, 0), set(0, 0), copy]), vec![copy]);
        // A store read by a later copy survives.
        let log = [set(1, 7), copy, set(1, 9)];
        assert_eq!(compact(&log), log.to_vec());
        // RIP advances read their own target.
        let add = |level| Effect::AddRip { level, delta: 3 };
        let log = [set(1, 7), add(1)];
        assert_eq!(compact(&log), log.to_vec());
        // Advances fold unless something in between touches that RIP.
        let merged = Effect::AddRip { level: 1, delta: 6 };
        assert_eq!(compact(&[add(1), add(2), add(1)]), vec![merged, add(2)]);
        let log = [add(1), copy, add(1)];
        assert_eq!(compact(&log), log.to_vec());
    }

    #[test]
    fn hits_reproduce_the_full_recursion_bit_for_bit() {
        for levels in 3..=5 {
            let mut fast = world(levels);
            let mut slow = world(levels);
            slow.disable_exit_summaries();
            for w in [&mut fast, &mut slow] {
                for cpu in [0, 1, 0] {
                    w.guest_hypercall(cpu);
                    w.guest_program_timer(cpu, 5_000);
                }
                // Outside any exit: programs whose primitives are
                // outermost and attribute their own cycles.
                w.fire_timer(0, false);
                w.fire_timer(0, false);
            }
            assert!(fast.exit_summary_count() > 0);
            assert_eq!(slow.exit_summary_count(), 0);
            assert_eq!(state(&fast), state(&slow), "L{levels}");
            assert_eq!(fast.timers, slow.timers);
        }
    }

    #[test]
    fn observers_bypass_summaries() {
        let mut w = world(3);
        w.enable_metrics();
        w.guest_hypercall(0);
        assert_eq!(w.exit_summary_count(), 0);
    }

    #[test]
    fn leaf_and_l1_exits_are_never_keyed() {
        let mut w = world(2);
        w.guest_hypercall(0);
        w.guest_program_timer(0, 1_000);
        assert_eq!(
            w.exit_summary_count(),
            0,
            "L2 has no guest hypervisor at level >= 2"
        );
    }

    #[test]
    fn ipi_sending_primitives_are_not_keyed() {
        let icr = ExitQualification::msr_write(msr::IA32_X2APIC_ICR, 0);
        assert_eq!(key(0, 2, ExitReason::MsrWrite, &icr), None);
        assert_eq!(
            key(0, 2, ExitReason::Hlt, &ExitQualification::default()),
            None
        );
        let tsc = ExitQualification::msr_write(msr::IA32_TSC_DEADLINE, 9);
        assert!(key(0, 2, ExitReason::MsrWrite, &tsc).is_some());
    }

    #[test]
    fn untracked_vmcs_store_taints_the_recording() {
        let mut w = world(3);
        w.begin_summary(1, 0);
        w.vmcs_mut(1, 0).write(field::GUEST_RSP, 5);
        w.end_summary(0);
        assert!(matches!(
            w.summaries.entries.get(&1),
            Some(Entry::Unsummarizable)
        ));
    }

    #[test]
    fn registering_an_extension_invalidates_the_memo() {
        struct Never;
        impl crate::extension::L0Extension for Never {
            fn name(&self) -> &'static str {
                "never"
            }
            fn try_intercept(
                &mut self,
                _: &mut World,
                _: usize,
                _: usize,
                _: ExitReason,
                _: &ExitQualification,
            ) -> crate::extension::Intercept {
                crate::extension::Intercept::NotHandled
            }
        }
        let mut w = world(3);
        w.guest_hypercall(0);
        assert!(w.exit_summary_count() > 0);
        w.register_extension(Box::new(Never));
        assert_eq!(w.exit_summary_count(), 0);
    }
}
