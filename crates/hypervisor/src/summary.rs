//! Compositional exit summaries: memoized guest-hypervisor primitives
//! and reflection chains.
//!
//! A VMX instruction (or trapped MSR/APIC access) executed by a guest
//! hypervisor traps and is reflected through every level below it.
//! That subtree is deterministic: its cost and its ledger rows depend
//! only on the trapping level, the reason and the field/MSR, never on
//! the values moved. So the first time a `(cpu, from_level, reason,
//! operand)` subtree runs it is *recorded*, and every later occurrence
//! is a *hit* that replays the recording. The recursion still produces
//! every simulated cycle and counter; only host time drops.
//!
//! A recording is compiled as it runs, into the form a hit replays in
//! straight loops: the clock delta; the `RunStats` growth as
//! pre-indexed ledger cells; and the subtree's VMCS stores as one
//! parallel assignment over pre-resolved (level, VMCS slot) targets,
//! each either a constant or a load of the state before the subtree
//! plus a delta. A target stored several times keeps its last value,
//! and a store that reads a field the subtree wrote earlier reads the
//! earlier value instead. A hit loads every value first, then stores
//! every value.
//!
//! Summaries compose: while a level-k subtree is being recorded, its
//! level-(k−1) primitives hit their own summaries, whose assignments
//! are folded into the enclosing recordings. An L(n) operation
//! therefore costs O(n) memo applications instead of ~24^n exits. The
//! same mechanism summarizes every guest hypervisor's world-switch
//! programs (`exit_side_program`, and `resume_program`:
//! `entry_side_program` followed by `vmresume`), L1's included, each a
//! fixed sequence of such primitives, so a reflection pays one hit per
//! program rather than one per primitive. An L1 primitive on its own
//! is a single L0 exit, too cheap to be worth a memo probe, so it is
//! not keyed outside a program or chain.
//!
//! A reflected exit is summarized around its owner's reason handler,
//! which is split in three (`exits.rs`). The *forward* chain (L0's
//! reflect step, the forwarding through every intermediate hypervisor,
//! the owner's exit-side program and the handler's pure entry half)
//! and the *return* chain (the handler's pure exit half, then the
//! owner's `resume_program`) depend only on the levels, the reason and
//! the MSR, so each is one hit. The handler's core between them always
//! runs live: it is where the state lives (timer arming, IPIs, halt
//! chains, doorbells).
//!
//! Every summarized subtree, primitive, program or chain, goes through
//! one entry point, [`World::run_keyed`].
//!
//! A summary replays the clock, the `RunStats` growth and the tracked
//! VMCS stores, nothing else. Every other component a subtree can write
//! is a [`Watched`](crate::world::Watched) value of the [`World`], and
//! so is every untracked VMCS store: a recording keeps the sum of their
//! write epochs when it begins, and if the sum has moved when it ends,
//! its key is marked unsummarizable and always takes the full
//! recursion. Summaries are bypassed while tracing, metrics or VM-entry
//! checks are on, so every observability artifact is produced by the
//! full recursion, exactly as before.

use crate::stats::RunStats;
use crate::world::{CpuVmcs, World};
use dvh_arch::msr;
use dvh_arch::vmx::{field, slot_of, ExitQualification, ExitReason};
use dvh_arch::Cycles;
use dvh_memory::hash::KeyMap;

/// How far `advance_guest_rip` moves RIP past an emulated instruction.
const RIP_ADVANCE: u64 = 3;

/// A VMCS field of one level on the summary's CPU, resolved to its
/// dense slot when the summary is compiled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Target {
    level: u16,
    slot: u16,
}

impl Target {
    /// `vmcs[level].f`, or `None` if `f` has no dense slot.
    fn of(level: usize, f: u32) -> Option<Target> {
        Some(Target {
            level: u16::try_from(level).ok()?,
            slot: slot_of(f)? as u16,
        })
    }

    #[inline(always)]
    fn load(self, vmcs: &mut CpuVmcs) -> u64 {
        vmcs.level(self.level as usize)
            .read_slot(self.slot as usize)
    }

    #[inline(always)]
    fn store(self, vmcs: &mut CpuVmcs, value: u64) {
        vmcs.level(self.level as usize)
            .write_slot(self.slot as usize, value);
    }
}

/// One VMCS store of a compiled summary: `to` becomes `from`'s value
/// before the summary (0 without `from`) plus `add`, wrapping. A
/// constant has no `from`; a RIP advance loads its own target; the
/// vmcs12 → vmcs02 merge loads another level's field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Store {
    to: Target,
    from: Option<Target>,
    add: u64,
}

impl Store {
    /// `vmcs[level].f = (vmcs[src].g, or 0) + add` for `from =
    /// Some((src, g))`, or `None` if a field has no dense slot.
    fn new(level: usize, f: u32, from: Option<(usize, u32)>, add: u64) -> Option<Store> {
        let from = match from {
            Some((src, g)) => Some(Target::of(src, g)?),
            None => None,
        };
        Some(Store {
            to: Target::of(level, f)?,
            from,
            add,
        })
    }

    #[inline(always)]
    fn value(self, vmcs: &mut CpuVmcs) -> u64 {
        match self.from {
            Some(src) => src.load(vmcs).wrapping_add(self.add),
            None => self.add,
        }
    }
}

/// Performs the parallel assignment `stores` on one CPU's VMCSs: every
/// value is loaded from the state before any store, then every store
/// is made. Unless `staged`, no store loads a field another one writes,
/// so each is made as soon as it is loaded; otherwise `values` holds
/// the loaded values in between.
#[inline(always)]
fn assign(stores: &[Store], staged: bool, vmcs: &mut CpuVmcs, values: &mut Vec<u64>) {
    if !staged {
        for s in stores {
            let v = s.value(vmcs);
            s.to.store(vmcs, v);
        }
        return;
    }
    values.clear();
    values.extend(stores.iter().map(|s| s.value(vmcs)));
    for (s, &v) in stores.iter().zip(values.iter()) {
        s.to.store(vmcs, v);
    }
}

/// Whether the parallel assignment `stores` must stage its values:
/// some store loads a field that another one writes.
fn needs_staging(stores: &[Store]) -> bool {
    stores.iter().any(|s| {
        s.from
            .is_some_and(|src| src != s.to && stores.iter().any(|t| t.to == src))
    })
}

/// Folds the parallel assignment `later`, made after `stores`, into
/// `stores`, so that assigning the result equals assigning `stores`
/// and then `later`. Neither side stores a target twice.
fn compose(stores: &mut Vec<Store>, later: &[Store]) {
    let rebased: Vec<Store> = later.iter().map(|&s| rebase(stores, s)).collect();
    for r in rebased {
        match stores.iter_mut().find(|p| p.to == r.to) {
            Some(p) => *p = r,
            None => stores.push(r),
        }
    }
}

/// `s` with its load moved from the state after `stores` to the state
/// before them: a load of a field `stores` wrote becomes that store's
/// load (or constant) plus both deltas.
fn rebase(stores: &[Store], s: Store) -> Store {
    match s.from.and_then(|src| stores.iter().find(|p| p.to == src)) {
        Some(p) => Store {
            from: p.from,
            add: p.add.wrapping_add(s.add),
            ..s
        },
        None => s,
    }
}

/// A recorded subtree, compiled.
#[derive(Debug)]
struct Summary {
    /// Simulated cycles the subtree spends on its CPU.
    cycles: Cycles,
    /// Exits the subtree raises, per `RunStats::exits` cell.
    exits: Box<[(usize, u64)]>,
    /// Guest-hypervisor interventions, per owner level.
    interventions: Box<[(usize, u64)]>,
    /// Outermost exits inside the subtree and the cycles attributed to
    /// them, per `RunStats::outermost_exits` cell (only a program run
    /// outside any exit has any).
    attributed: Box<[(usize, u64, Cycles)]>,
    /// The subtree's VMCS stores, as one parallel assignment.
    stores: Box<[Store]>,
    /// See [`needs_staging`].
    staged: bool,
}

/// Memo entry for one key.
#[derive(Debug, Clone, Copy)]
enum Entry {
    /// Index into [`SummaryMemo::summaries`].
    Ready(usize),
    /// A recording of this key wrote what no summary replays: always
    /// recurse in full.
    Unsummarizable,
}

/// One recording in progress.
#[derive(Debug)]
struct Recording {
    key: u64,
    t0: Cycles,
    /// The ledger when recording began.
    before: RunStats,
    /// [`World::write_epoch`] when recording began.
    epoch: u64,
    /// The VMCS stores made so far, compiled (see [`compose`]).
    stores: Vec<Store>,
}

/// The per-[`World`] memo of exit summaries.
#[derive(Debug, Default)]
pub(crate) struct SummaryMemo {
    /// Set by [`World::disable_exit_summaries`].
    disabled: bool,
    entries: KeyMap<Entry>,
    summaries: Vec<Summary>,
    /// Active recordings, innermost last.
    stack: Vec<Recording>,
    /// A hit's loaded values, between its loads and its stores.
    values: Vec<u64>,
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

/// The return chain of a reflected exit (see [`return_key`]).
const TAG_RETURN: u16 = 0xFB;
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

/// The operand of a reflection chain's key: the exiting level, the
/// reason and, for an MSR exit, the MSR, since the owner's handler
/// differs between MSRs (`TSC_DEADLINE`, the ICR, the rest). The MSR
/// is packed as its index in the VMX MSR bitmap, which covers
/// `0..=0x1FFF` and `0xC000_0000..=0xC000_1FFF`; an MSR outside both
/// ranges is not keyed. The MSR's value never enters the key: no
/// chain stores it, and the owner's own `TSC_DEADLINE` write arms no
/// timer (only a leaf write does), so its value changes nothing.
fn chain_operand(from_level: usize, reason: ExitReason, qual: &ExitQualification) -> Option<u32> {
    let msr = match (reason, qual.msr) {
        (ExitReason::MsrRead | ExitReason::MsrWrite, m @ 0..=0x1FFF) => m,
        (ExitReason::MsrRead | ExitReason::MsrWrite, m @ 0xC000_0000..=0xC000_1FFF) => {
            0x2000 | (m & 0x1FFF)
        }
        (ExitReason::MsrRead | ExitReason::MsrWrite, _) => return None,
        _ => 0,
    };
    let from_level = u32::try_from(from_level).ok().filter(|&l| l < 1 << 8)?;
    Some(msr << 16 | from_level << 8 | u32::from(reason.number()))
}

/// The memo key of the forward chain that carries an exit from
/// `from_level` up to its owning hypervisor at `owner` on `cpu`: L0's
/// reflect step, the forwarding through levels `1..owner`, the owner's
/// exit-side program and the pure entry half of its reason handler.
/// The chain stores the reason and the qualification's guest-physical
/// word into synthetic exit state, so, as for [`key`], only exits that
/// leave that word zero are keyed. The chain only runs inside the exit
/// it reflects, never outermost, so unlike [`program_key`] the key has
/// no `outermost` bit.
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
    let operand = chain_operand(from_level, reason, qual)?;
    pack(cpu, owner, TAG_FORWARD, operand)
}

/// The memo key of the return chain of an exit from `from_level` that
/// the hypervisor at `owner` on `cpu` handled: the pure exit half of
/// its reason handler (the RIP advance, and for `TSC_DEADLINE` the
/// owner's own timer write), then its `resume_program`. Nothing in the
/// chain stores the qualification, so, unlike [`forward_key`], exits
/// that carry a guest-physical address (doorbells) are keyed too.
pub(crate) fn return_key(
    cpu: usize,
    owner: usize,
    from_level: usize,
    reason: ExitReason,
    qual: &ExitQualification,
) -> Option<u64> {
    let operand = chain_operand(from_level, reason, qual)?;
    pack(cpu, owner, TAG_RETURN, operand)
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
    /// unsummarizable, or summaries are unusable. A recording that
    /// moves [`World::write_epoch`] marks its key unsummarizable: what
    /// `body` may write is decided by the types of `World`'s fields, not
    /// by `body`. The one entry point to the memo: primitives,
    /// world-switch programs and reflection chains all come through
    /// here.
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

    /// Applies summary `idx` on `cpu`, reading it in place: the clock
    /// delta, the ledger growth and the VMCS assignment, each one
    /// straight loop. Folds the assignment into every enclosing
    /// recording.
    fn apply_summary(&mut self, idx: usize, cpu: usize) {
        let (memo, clock, stats, mut vmcs) = self.replay_parts(cpu);
        let s = &memo.summaries[idx];
        *clock += s.cycles;
        for &(cell, n) in &s.exits {
            stats.exits.add_at(cell, n);
        }
        for &(level, n) in &s.interventions {
            stats.interventions.add(level, n);
        }
        for &(cell, n, c) in &s.attributed {
            stats.outermost_exits.add_at(cell, n);
            stats.cycles_by_reason.add_at(cell, c);
        }
        assign(&s.stores, s.staged, &mut vmcs, &mut memo.values);
        for rec in &mut memo.stack {
            compose(&mut rec.stores, &s.stores);
        }
    }

    /// Starts recording the subtree of the exit keyed `key` on `cpu`.
    fn begin_summary(&mut self, key: u64, cpu: usize) {
        let rec = Recording {
            key,
            t0: self.now(cpu),
            before: self.stats.clone(),
            epoch: self.write_epoch(),
            stores: Vec::new(),
        };
        self.summaries.stack.push(rec);
    }

    /// Finishes the innermost recording and stores its summary, or
    /// marks its key unsummarizable if it moved the write epoch or
    /// touched a ledger a summary cannot replay.
    fn end_summary(&mut self, cpu: usize) {
        let rec = self
            .summaries
            .stack
            .pop()
            .expect("end_summary without begin_summary");
        let before = &rec.before;
        let after = &self.stats;
        let replayable = rec.epoch == self.write_epoch()
            && after.dvh_intercepts == before.dvh_intercepts
            && after.posted_deliveries == before.posted_deliveries
            && after.injected_interrupts == before.injected_interrupts
            && after.idle_cycles == before.idle_cycles
            && after.burned_idle_cycles == before.burned_idle_cycles;
        let entry = if replayable {
            let interventions = after
                .interventions
                .iter()
                .map(|(level, n)| (level, n - before.interventions.get(level)))
                .filter(|&(_, n)| n > 0)
                .collect();
            // Every attributed cycle comes with an outermost exit, so
            // the count growth finds every touched cell.
            let attributed = after
                .outermost_exits
                .growth_since(&before.outermost_exits)
                .map(|(cell, n)| {
                    let c = after
                        .cycles_by_reason
                        .growth_at(&before.cycles_by_reason, cell);
                    (cell, n, c)
                })
                .collect();
            let summary = Summary {
                cycles: self.now(cpu) - rec.t0,
                exits: after.exits.growth_since(&before.exits).collect(),
                interventions,
                attributed,
                staged: needs_staging(&rec.stores),
                stores: rec.stores.into_boxed_slice(),
            };
            self.summaries.summaries.push(summary);
            Entry::Ready(self.summaries.summaries.len() - 1)
        } else {
            Entry::Unsummarizable
        };
        self.summaries.entries.insert(rec.key, entry);
    }

    /// Tracked store `vmcs[level].f = value` on `cpu`.
    #[inline(always)]
    pub(crate) fn vmcs_set(&mut self, level: usize, cpu: usize, f: u32, value: u64) {
        self.vmcs_assign(cpu, level, f, None, value);
    }

    /// Tracked store `vmcs[dst].f = vmcs[src].f` on `cpu`.
    #[inline(always)]
    pub(crate) fn vmcs_copy(&mut self, dst: usize, src: usize, cpu: usize, f: u32) {
        self.vmcs_assign(cpu, dst, f, Some((src, f)), 0);
    }

    /// Tracked store `vmcs[level].GUEST_RIP += RIP_ADVANCE` on `cpu`.
    #[inline(always)]
    pub(crate) fn vmcs_add_rip(&mut self, level: usize, cpu: usize) {
        let rip = field::GUEST_RIP;
        self.vmcs_assign(cpu, level, rip, Some((level, rip)), RIP_ADVANCE);
    }

    /// Tracked store `vmcs[level].f = (vmcs[src].g, or 0) + add` on
    /// `cpu`, for `from = Some((src, g))`.
    #[inline(always)]
    fn vmcs_assign(
        &mut self,
        cpu: usize,
        level: usize,
        f: u32,
        from: Option<(usize, u32)>,
        add: u64,
    ) {
        let value = from.map_or(0, |(src, g)| self.vmcs(src, cpu).read(g));
        let value = value.wrapping_add(add);
        if self.summaries.recording() {
            match Store::new(level, f, from, add) {
                Some(store) => return self.record_store(cpu, store),
                // A field without a dense slot: no summary replays it.
                None => return self.vmcs_mut(level, cpu).write(f, value),
            }
        }
        self.vmcs_store(level, cpu).write(f, value);
    }

    /// Performs one tracked store on `cpu` and folds it into every
    /// active recording (the cold, recording path of `vmcs_assign`).
    #[inline(never)]
    fn record_store(&mut self, cpu: usize, store: Store) {
        let (memo, _, _, mut vmcs) = self.replay_parts(cpu);
        assign(&[store], false, &mut vmcs, &mut memo.values);
        for rec in &mut memo.stack {
            compose(&mut rec.stores, &[store]);
        }
    }

    /// Number of replayable exit summaries recorded so far
    /// (unsummarizable keys are not counted). The differential oracle
    /// uses it to tell a scenario that exercised summaries from one
    /// that did not.
    pub fn exit_summary_count(&self) -> usize {
        self.summaries.summaries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{HvKind, WorldConfig};
    use crate::extension::{Intercept, L0Extension};
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

    /// splitmix64, the generator of `tests/properties.rs`.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Compiles a log of single stores, in order.
    fn compile(log: &[Store]) -> Vec<Store> {
        let mut stores = Vec::new();
        for s in log {
            compose(&mut stores, std::slice::from_ref(s));
        }
        stores
    }

    #[test]
    fn compaction_keeps_reads_and_last_stores() {
        let f = field::GUEST_RIP;
        let at = |level| Target::of(level, f).unwrap();
        let set = |level, value| Store::new(level, f, None, value).unwrap();
        let copy = Store::new(0, f, Some((1, f)), 0).unwrap();
        let add = |level| Store::new(level, f, Some((level, f)), RIP_ADVANCE).unwrap();
        let load = |to, from, add| Store {
            to: at(to),
            from: Some(at(from)),
            add,
        };
        // Two dead resets, then the merge overwrites the field.
        assert_eq!(compile(&[set(0, 0), set(0, 0), copy]), vec![copy]);
        // A copy reads the value stored before it, not the last one.
        assert_eq!(
            compile(&[set(1, 7), copy, set(1, 9)]),
            vec![set(1, 9), set(0, 7)]
        );
        // RIP advances read their own target.
        assert_eq!(compile(&[set(1, 7), add(1)]), vec![set(1, 10)]);
        // Advances fold; a copy in between reads the partial advance.
        assert_eq!(
            compile(&[add(1), add(2), add(1)]),
            vec![load(1, 1, 6), load(2, 2, 3)]
        );
        assert_eq!(
            compile(&[add(1), copy, add(1)]),
            vec![load(1, 1, 6), load(0, 1, 3)]
        );
    }

    #[test]
    fn compiled_assignment_equals_the_log_in_order() {
        // Random logs over a few fields of three levels: single stores
        // (constants, RIP-style advances, copies, and loads plus a
        // delta) and parallel assignments of several, as a nested
        // hit's. Applying each in order from a random pre-state, its
        // values staged, must equal applying the compiled assignment
        // once, staged only if it needs to be.
        let fields = [field::GUEST_RIP, field::GUEST_RSP, field::VM_EXIT_REASON];
        let mut seq = world(3);
        let mut par = world(3);
        for seed in 0..300u64 {
            let mut state = seed;
            let mut r = |n: u64| splitmix(&mut state) % n;
            let mut pre: Vec<(usize, u32, u64)> = Vec::new();
            for level in 0..3 {
                for &f in &fields {
                    // Some fields were never written.
                    if r(4) != 0 {
                        pre.push((level, f, r(u64::MAX)));
                    }
                }
            }
            let mut log: Vec<Vec<Store>> = Vec::new();
            for _ in 0..r(24) {
                let mut group: Vec<Store> = Vec::new();
                for _ in 0..1 + r(3) {
                    let to = Target::of(r(3) as usize, fields[r(3) as usize]).unwrap();
                    let src = Target::of(r(3) as usize, fields[r(3) as usize]).unwrap();
                    let (from, add) = match r(4) {
                        0 => (None, r(u64::MAX)),
                        1 => (Some(to), RIP_ADVANCE),
                        2 => (Some(src), 0),
                        _ => (Some(src), r(u64::MAX)),
                    };
                    if group.iter().all(|s| s.to != to) {
                        group.push(Store { to, from, add });
                    }
                }
                log.push(group);
            }
            for w in [&mut seq, &mut par] {
                for level in 0..3 {
                    w.vmcs_mut(level, 0).clear();
                }
                for &(level, f, v) in &pre {
                    w.vmcs_mut(level, 0).write(f, v);
                }
            }
            let mut compiled = Vec::new();
            let mut values = Vec::new();
            for group in &log {
                assign(group, true, &mut seq.replay_parts(0).3, &mut values);
                compose(&mut compiled, group);
            }
            let staged = needs_staging(&compiled);
            assign(&compiled, staged, &mut par.replay_parts(0).3, &mut values);
            for level in 0..3 {
                assert_eq!(
                    seq.vmcs(level, 0),
                    par.vmcs(level, 0),
                    "seed {seed} L{level}"
                );
            }
        }
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
            let diff = fast.state_diff(&slow);
            assert!(diff.is_empty(), "L{levels} {guest_hv}: {diff:?}");
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
        // L1 and return from it are keyed, never the core between.
        let mut w = world(2);
        drive(&mut w);
        assert!(w.exit_summary_count() > 0);
        let programs: Vec<u64> = [TAG_EXIT_SIDE, TAG_RESUME]
            .into_iter()
            .flat_map(|tag| [false, true].map(|outer| program_key(0, 1, tag, outer).unwrap()))
            .collect();
        let keys: Vec<u64> = w.summaries.entries.keys().copied().collect();
        for &key in &keys {
            let chain_of_l1 = [(1, TAG_FORWARD), (1, TAG_RETURN)].contains(&level_and_tag(key));
            assert!(
                programs.contains(&key) || chain_of_l1,
                "{key:#x} is not an L1 program or chain"
            );
        }
        for tag in [TAG_FORWARD, TAG_RETURN, TAG_RESUME] {
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
                    tag >= TAG_RETURN || level < levels,
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
                    w.guest_hlt(1);
                    let chain = w.halt_chain(1).map(<[usize]>::len);
                    assert_eq!(chain, Some(levels), "L{levels}: no full halt chain");
                    w.send_ipi_to_idle(0, 1);
                    assert!(!w.is_halted(1), "L{levels}: the IPI did not wake cpu1");
                }
                for _ in 0..20 {
                    let sent = w.nic.tx_frames();
                    w.guest_net_tx(0, 1, 64);
                    assert_eq!(
                        w.nic.tx_frames(),
                        sent + 1,
                        "L{levels}: no frame on the wire"
                    );
                }
            }
            assert!(fast.exit_summary_count() > 0);
            let diff = fast.state_diff(&slow);
            assert!(diff.is_empty(), "L{levels}: {diff:?}");
        }
    }

    #[test]
    fn scrambled_data_fields_replay_like_the_full_recursion() {
        // Bits 11:10 of a VMCS encoding give its type; 0 is a control.
        // Scrambling every other field before each round makes every
        // replayed load read a value no recording saw.
        let data: Vec<u32> = dvh_arch::vmx::SLOT_ENCODINGS
            .iter()
            .copied()
            .filter(|f| (f >> 10) & 3 != 0)
            .collect();
        let worlds = (2..=5)
            .map(|l| (l, HvKind::Kvm))
            .chain([(2, HvKind::Xen), (3, HvKind::Xen)]);
        for (levels, guest_hv) in worlds {
            let mut fast = world_of(levels, guest_hv);
            let mut slow = world_of(levels, guest_hv);
            slow.disable_exit_summaries();
            let mut seed = levels as u64;
            for round in 0..3 {
                let cpus = fast.num_cpus();
                let values: Vec<u64> = (0..levels * cpus * data.len())
                    .map(|_| splitmix(&mut seed))
                    .collect();
                for w in [&mut fast, &mut slow] {
                    let mut v = values.iter();
                    for level in 0..levels {
                        for cpu in 0..cpus {
                            for &f in &data {
                                w.vmcs_mut(level, cpu).write(f, *v.next().unwrap());
                            }
                        }
                    }
                    // The Table 1 operations.
                    w.guest_hypercall(0);
                    w.guest_program_timer(0, 5_000 + round);
                    w.send_ipi_to_idle(0, 1);
                    w.invalidate_mmio_cache();
                    let (leaf, dev) = (w.leaf_level(), w.leaf_device_idx());
                    w.doorbell(leaf, 0, dev, 1);
                }
                let what = format!("L{levels} {guest_hv} round {round}");
                let diff = fast.state_diff(&slow);
                assert!(diff.is_empty(), "{what}: {diff:?}");
            }
            assert!(fast.exit_summary_count() > 0);
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
    fn a_declining_extension_that_writes_watched_state_is_never_replayed() {
        /// Declines every exit it is offered, but counts them in the
        /// leaf timer's deadline: a write no summary replays.
        struct Counter;
        impl L0Extension for Counter {
            fn name(&self) -> &'static str {
                "counter"
            }
            fn try_intercept(
                &mut self,
                w: &mut World,
                cpu: usize,
                _: usize,
                _: ExitReason,
                _: &ExitQualification,
            ) -> Intercept {
                let timer = &mut w.timers[cpu];
                timer.deadline = Some(timer.deadline.map_or(1, |d| d + 1));
                Intercept::NotHandled
            }
        }
        let mut fast = world(3);
        let mut slow = world(3);
        slow.disable_exit_summaries();
        for w in [&mut fast, &mut slow] {
            w.register_extension(Box::new(Counter));
            // A summarized L2 primitive: L0 offers the trap to the
            // extension before reflecting it to L1.
            for _ in 0..5 {
                w.hv_vmread(2, 0, field::TSC_OFFSET);
            }
        }
        assert!(fast.exit_summary_count() > 0);
        assert_eq!(slow.timers[0].deadline, Some(5));
        let diff = fast.state_diff(&slow);
        assert!(diff.is_empty(), "{diff:?}");
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
        let diff = fast.state_diff(&slow);
        assert!(diff.is_empty(), "{diff:?}");
    }

    #[test]
    fn registering_an_extension_invalidates_the_memo() {
        struct Never;
        impl L0Extension for Never {
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
            ) -> Intercept {
                Intercept::NotHandled
            }
        }
        let mut w = world(3);
        w.guest_hypercall(0);
        assert!(w.exit_summary_count() > 0);
        w.register_extension(Box::new(Never));
        assert_eq!(w.exit_summary_count(), 0);
    }
}
