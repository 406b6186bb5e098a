//! Compositional exit summaries: memoized guest-hypervisor primitives
//! and reflection chains.
//!
//! A VMX instruction (or trapped MSR/APIC access) executed by a guest
//! hypervisor traps and is reflected through every level below it.
//! That subtree is deterministic: its cost and its ledger rows depend
//! only on the trapping level, the reason and the field/MSR, never on
//! the values moved. So the first time a `(cpu, from_level, reason,
//! operand)` subtree runs it is *recorded*: the clock delta, the
//! `RunStats` delta, and an ordered effect log of the VMCS stores it
//! made. Every later occurrence is a *hit*: advance the clock, add the
//! ledger delta, replay the log. The recursion still produces every
//! simulated cycle and counter; only host time drops.
//!
//! Summaries compose: while a level-k subtree is being recorded, its
//! level-(k−1) primitives hit their own summaries, whose effects are
//! appended to the enclosing recording. An L(n) operation therefore
//! costs O(n) memo applications instead of ~24^n exits. The same
//! mechanism summarizes every guest hypervisor's world-switch programs
//! (`exit_side_program`, and `resume_program`: `entry_side_program`
//! followed by `vmresume`), L1's included, each a fixed sequence of
//! such primitives, so a reflection pays one hit per program rather
//! than one per primitive. An L1 primitive on its own
//! is a single L0 exit, too cheap to be worth a memo probe, so it is
//! not keyed outside its programs.
//!
//! A reflected exit is summarized around its owner's reason handler.
//! The *forward* chain (L0's reflect step, the forwarding through every
//! intermediate hypervisor, the owner's exit-side program) and the
//! *resume* chain (the owner's entry-side program and its `vmresume`)
//! depend only on the levels and the reason, so each is one hit. The
//! handler in between always runs in full: it is where the state lives
//! (timer arming, IPIs, halt chains, doorbells).
//!
//! Every summarized subtree, primitive, program or chain, goes through
//! one entry point, [`World::run_keyed`].
//!
//! Anything state-dependent inside a recording *taints* it: the key is
//! then marked unsummarizable and always takes the full recursion (see
//! [`World::taint_summaries`] call sites). Summaries are bypassed while
//! tracing, metrics or VM-entry checks are on, so every observability
//! artifact is produced by the full recursion, exactly as before.

use crate::stats::RunStats;
use crate::world::{CpuVmcs, World};
use dvh_arch::msr;
use dvh_arch::vmx::{field, ExitQualification, ExitReason};
use dvh_arch::Cycles;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// How far `advance_guest_rip` moves RIP past an emulated instruction.
const RIP_ADVANCE: u64 = 3;

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

    /// Performs this store on the VMCSs of one CPU.
    #[inline(always)]
    fn apply(self, vmcs: &mut CpuVmcs) {
        match self {
            Effect::Set {
                level,
                field: f,
                value,
            } => vmcs.level(level as usize).write(f, value),
            Effect::AddRip { level, delta } => {
                let m = vmcs.level(level as usize);
                let rip = m.read(field::GUEST_RIP);
                m.write(field::GUEST_RIP, rip.wrapping_add(delta));
            }
            Effect::Copy { dst, src, field: f } => {
                let v = vmcs.level(src as usize).read(f);
                vmcs.level(dst as usize).write(f, v);
            }
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
#[derive(Debug)]
struct Summary {
    /// Simulated cycles the subtree spends on its CPU.
    cycles: Cycles,
    /// Exits the subtree raises, per (level, reason).
    exits: Box<[(usize, ExitReason, u64)]>,
    /// Guest-hypervisor interventions, per owner level.
    interventions: Box<[(usize, u64)]>,
    /// Outermost exits inside the subtree and the cycles attributed to
    /// them, per (level, reason) (only a program run outside any exit
    /// has any).
    attributed: Box<[(usize, ExitReason, u64, Cycles)]>,
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

// Memo-key tags. A primitive's key is tagged with its exit reason
// number (< 64); the summarized chains take tags above every reason.

/// The forward chain of a reflected exit (see [`forward_key`]).
const TAG_FORWARD: u16 = 0xFC;
/// `resume_program`: a hypervisor's entry-side world-switch program,
/// then its `vmresume`.
pub(crate) const TAG_RESUME: u16 = 0xFD;
/// `exit_side_program`: a hypervisor's exit-side world-switch program.
pub(crate) const TAG_EXIT_SIDE: u16 = 0xFE;

/// The memo key of a guest-hypervisor primitive, or `None` when the
/// exit's subtree is not cost-invariant. Only reasons whose handling
/// depends on nothing but (level, reason, field/MSR) qualify: the VMX
/// instructions, MSR reads, MSR writes other than the ICR (which sends
/// an IPI), and trap-like APIC writes. The qualification's
/// guest-physical word is stored verbatim into synthetic exit state,
/// so only exits that leave it zero are keyed.
pub(crate) fn key(
    cpu: usize,
    from_level: usize,
    reason: ExitReason,
    qual: &ExitQualification,
) -> Option<u64> {
    if qual.guest_physical != 0 {
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
/// the `TAG_*` constants above it.
fn pack(cpu: usize, level: usize, tag: u16, operand: u32) -> Option<u64> {
    if cpu >= 1 << 16 || level >= 1 << 8 || tag >= 1 << 8 {
        return None;
    }
    Some((cpu as u64) << 48 | (level as u64) << 40 | u64::from(tag) << 32 | u64::from(operand))
}

/// The memo key of the world-switch program tagged `tag`
/// ([`TAG_EXIT_SIDE`] or [`TAG_RESUME`]) of the hypervisor at `level`
/// on `cpu`. A program run outside any exit (`outermost`: a timer or
/// interrupt relay) attributes cycles to each of its primitives, so it
/// is keyed apart from the same program run inside an exit.
pub(crate) fn program_key(cpu: usize, level: usize, tag: u16, outermost: bool) -> Option<u64> {
    pack(cpu, level, tag, u32::from(outermost))
}

/// The memo key of the forward chain that carries an exit from
/// `from_level` up to its owning hypervisor at `owner` on `cpu`: L0's
/// reflect step, the forwarding through levels `1..owner` and the
/// owner's exit-side program. The chain stores the reason and the
/// qualification's guest-physical word into synthetic exit state, so,
/// as for [`key`], only exits that leave that word zero are keyed. The
/// chain only runs inside the exit it reflects, never outermost, so
/// unlike [`program_key`] the key has no `outermost` bit.
pub(crate) fn forward_key(
    cpu: usize,
    owner: usize,
    from_level: usize,
    reason: ExitReason,
    qual: &ExitQualification,
) -> Option<u64> {
    if qual.guest_physical != 0 {
        return None;
    }
    let operand = (from_level as u32) << 8 | u32::from(reason.number());
    pack(cpu, owner, TAG_FORWARD, operand)
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
        !(self.summaries.disabled || self.observing || self.vmentry_checks)
    }

    /// Runs `body` on `cpu` through the summary keyed `key(outermost)`,
    /// where `outermost` tells whether `body` runs outside any exit:
    /// applies the summary on a hit, records `body` on a miss, and runs
    /// it in full, recording nothing, when the key is `None`, marked
    /// unsummarizable, or summaries are unusable. The one entry point to
    /// the memo: primitives, world-switch programs and forward chains
    /// all come through here.
    #[inline]
    pub(crate) fn run_keyed(
        &mut self,
        cpu: usize,
        key: impl FnOnce(bool) -> Option<u64>,
        body: impl FnOnce(&mut World),
    ) {
        let key = if self.summaries_usable() {
            key(self.exit_depth[cpu] == 0)
        } else {
            None
        };
        let Some(key) = key else {
            return body(self);
        };
        match self.summaries.entries.get(&key) {
            Some(&Entry::Ready(idx)) => self.apply_summary(idx, cpu),
            Some(Entry::Unsummarizable) => body(self),
            None => {
                self.begin_summary(key, cpu);
                body(self);
                self.end_summary(cpu);
            }
        }
    }

    /// Applies summary `idx` on `cpu`: the clock delta, the ledger
    /// delta, and the effect log, reading the summary in place.
    /// Allocation-free unless an enclosing recording is collecting the
    /// effects.
    fn apply_summary(&mut self, idx: usize, cpu: usize) {
        let (memo, clock, stats, mut vmcs) = self.replay_parts(cpu);
        let s = &memo.summaries[idx];
        clock.advance(s.cycles);
        for &(level, reason, n) in &s.exits {
            stats.exits.add(level, reason, n);
        }
        for &(level, n) in &s.interventions {
            stats.interventions.add(level, n);
        }
        for &(level, reason, n, c) in &s.attributed {
            stats.outermost_exits.add(level, reason, n);
            stats.attribute(level, reason, c);
        }
        for &e in &s.effects {
            e.apply(&mut vmcs);
        }
        if memo.recording() {
            memo.log.extend_from_slice(&s.effects);
        }
    }

    /// Starts recording the subtree of the exit keyed `key` on `cpu`.
    fn begin_summary(&mut self, key: u64, cpu: usize) {
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
    fn end_summary(&mut self, cpu: usize) {
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
            // Every attributed cycle comes with an outermost exit, so
            // the count delta finds every touched entry.
            let attributed = after
                .outermost_exits
                .iter()
                .map(|((level, reason), n)| {
                    let key = (level, reason);
                    let was = before.cycles_by_reason.get(&key).copied();
                    let c = after.cycles_by_reason[&key] - was.unwrap_or(Cycles::ZERO);
                    (
                        level,
                        reason,
                        n - before.outermost_exits.get(level, reason),
                        c,
                    )
                })
                .filter(|&(_, _, n, _)| n > 0)
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
    /// cannot describe (IPIs and interrupt delivery, halt chains,
    /// doorbells, DVH interception, timer arming, or an untracked VMCS
    /// store). One predicted branch when not recording.
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
        let (memo, _, _, mut vmcs) = self.replay_parts(cpu);
        memo.log.push(e);
        e.apply(&mut vmcs);
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
    use crate::config::{HvKind, WorldConfig};
    use dvh_arch::costs::CostModel;

    fn world(levels: usize) -> World {
        world_of(levels, HvKind::Kvm)
    }

    fn world_of(levels: usize, guest_hv: HvKind) -> World {
        let config = WorldConfig {
            guest_hv,
            ..WorldConfig::baseline(levels)
        };
        World::new(CostModel::calibrated(), config)
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
        // Xen guest hypervisors have no VMCS shadowing and run APIC
        // maintenance on every entry.
        let worlds = (2..=5)
            .map(|l| (l, HvKind::Kvm))
            .chain([(2, HvKind::Xen), (3, HvKind::Xen)]);
        for (levels, guest_hv) in worlds {
            let mut fast = world_of(levels, guest_hv);
            let mut slow = world_of(levels, guest_hv);
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
            assert_eq!(state(&fast), state(&slow), "L{levels} {guest_hv}");
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

    /// The (level, tag) fields of a packed memo key.
    fn level_and_tag(key: u64) -> (usize, u16) {
        (((key >> 40) & 0xFF) as usize, ((key >> 32) & 0xFF) as u16)
    }

    #[test]
    fn leaf_exits_are_never_keyed() {
        let drive = |w: &mut World| {
            w.guest_hypercall(0);
            w.guest_program_timer(0, 1_000);
            w.fire_timer(0, false);
        };
        let mut w = world(1);
        drive(&mut w);
        assert_eq!(w.exit_summary_count(), 0, "L1 has no guest hypervisor");
        // At L2 only L1's programs and the chains that forward exits to
        // L1 and resume from it are keyed, never the handler between.
        let mut w = world(2);
        drive(&mut w);
        assert!(w.exit_summary_count() > 0);
        let programs: Vec<u64> = [TAG_EXIT_SIDE, TAG_RESUME]
            .into_iter()
            .flat_map(|tag| [false, true].map(|outer| program_key(0, 1, tag, outer).unwrap()))
            .collect();
        let keys: Vec<u64> = w.summaries.entries.keys().copied().collect();
        for &key in &keys {
            let forward_to_l1 = level_and_tag(key) == (1, TAG_FORWARD);
            assert!(
                programs.contains(&key) || forward_to_l1,
                "{key:#x} is not an L1 program or chain"
            );
        }
        for tag in [TAG_FORWARD, TAG_RESUME] {
            assert!(keys.iter().any(|&k| level_and_tag(k) == (1, tag)));
        }
        // Deeper, guest-hypervisor primitives are keyed, but none
        // raised by the leaf.
        for levels in [3, 4] {
            let mut w = world(levels);
            drive(&mut w);
            for &key in w.summaries.entries.keys() {
                let (level, tag) = level_and_tag(key);
                assert!(
                    tag >= TAG_FORWARD || level < levels,
                    "L{levels}: {key:#x} keys a leaf exit"
                );
            }
        }
    }

    #[test]
    fn reflected_exit_handlers_run_every_time() {
        for levels in [2, 3] {
            let mut fast = world(levels);
            let mut slow = world(levels);
            slow.disable_exit_summaries();
            for w in [&mut fast, &mut slow] {
                for i in 1..=20 {
                    let deadline = 10_000 + 7 * i;
                    w.guest_program_timer(0, deadline);
                    assert_eq!(w.timers[0].deadline, Some(deadline), "L{levels}");
                }
                for _ in 0..20 {
                    w.send_ipi_to_idle(0, 1);
                    assert!(!w.is_halted(1), "L{levels}: the IPI did not wake cpu1");
                }
            }
            assert!(fast.exit_summary_count() > 0);
            assert_eq!(state(&fast), state(&slow), "L{levels}");
            assert_eq!(fast.timers, slow.timers, "L{levels}");
        }
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
        // Synthetic exit state carries the guest-physical word verbatim,
        // so an exit that sets it (an MMIO doorbell) is keyed neither as
        // a primitive nor as a forward chain, whatever its reason.
        let mmio = ExitQualification::mmio(0xFEB0_0000, 1);
        let plain = ExitQualification::default();
        for reason in [ExitReason::ApicWrite, ExitReason::EptMisconfig] {
            assert_eq!(key(0, 2, reason, &mmio), None, "{reason}");
            assert_eq!(forward_key(0, 1, 2, reason, &mmio), None, "{reason}");
            assert!(forward_key(0, 1, 2, reason, &plain).is_some(), "{reason}");
        }
        assert!(key(0, 2, ExitReason::ApicWrite, &plain).is_some());
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
    fn changing_the_profile_drops_stale_summaries() {
        let mut fast = world(3);
        let mut slow = world(3);
        slow.disable_exit_summaries();
        for w in [&mut fast, &mut slow] {
            w.guest_hypercall(0);
            w.profile_mut().cold_reads.push(field::HOST_RIP);
            w.reset_stats();
            w.guest_hypercall(0);
        }
        assert!(fast.exit_summary_count() > 0);
        assert_eq!(state(&fast), state(&slow));
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
