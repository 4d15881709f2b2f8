//! Differential-replay SDC forensics: explain every escaped fault.
//!
//! The campaign layer answers *how many* faults became silent data
//! corruptions; this module answers the per-incident question the
//! paper's aggregate tables cannot: **where** did the corruption first
//! diverge architecturally, **how** did it fan out over time, and
//! **which** checker executed afterwards yet failed to fire — and why.
//!
//! For each selected fault sample, [`forensic_replay_on`] re-runs the
//! golden and the faulted execution in lock-step from the injection
//! boundary (sharing the golden prefix via
//! [`ferrum_cpu::snapshot::Machine`] snapshots, the same determinism
//! contract the snapshot campaign engine relies on) and emits a
//! [`ForensicRecord`]:
//!
//! * the first architectural divergence (register / SIMD lane / flags /
//!   memory byte, with dynamic index, pc, and provenance of the
//!   injected instruction),
//! * a dynamic taint walk — the *live* corruption set (differing GPRs,
//!   SIMD lanes, flags, and memory bytes) sampled over time, its peak,
//!   the cumulative propagation depth, and either the
//!   time-to-quiescence (corruption died out) or time-to-output
//!   (corruption reached a `print`),
//! * every protection checker executed after the injection with a
//!   classified [`EscapeReason`],
//! * a bisected minimal kill-window: the largest lock-step distance at
//!   which repairing the faulty run's registers from the golden run
//!   still restores the golden output.
//!
//! [`run_campaign_forensic_on`] is the serial executor with a replay
//! observer: its [`CampaignResult`] is outcome-identical to
//! [`run_campaign_on`] for the same seed (forensic replay is
//! observational only), and the records aggregate into a
//! [`ForensicsReport`] with escape-reason and per-mechanism
//! histograms.  [`explain_unknown_sites`] cross-links the records to a
//! static [`CoverageMap`], giving every statically-`Unknown` site that
//! produced an SDC a measured explanation.
//!
//! [`run_campaign_on`]: crate::campaign::run_campaign_on

use std::collections::BTreeSet;
use std::fmt;

use ferrum_asm::analysis::coverage::{CoverageMap, StaticVerdict};
use ferrum_asm::provenance::{Mechanism, Provenance};
use ferrum_cpu::differential::{
    diff_regs, first_divergence, load_ranges, store_ranges, DiffLoc, MemDivergence, RegDiff,
};
use ferrum_cpu::fault::FaultSpec;
use ferrum_cpu::outcome::StopReason;
use ferrum_cpu::image::Image;
use ferrum_cpu::run::Profile;
use ferrum_cpu::snapshot::Snapshot;

use crate::campaign::{execute, CampaignConfig, CampaignResult, Observer, Outcome, Plan, Runner};
use crate::engine::{Engine, EngineMachine};
use crate::stats::min_median_max;

/// Why a checker that executed after the injection failed to fire — or,
/// at record level, why the whole protection scheme let the fault
/// escape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EscapeReason {
    /// The checker's inputs overlapped the live corruption, yet it
    /// passed: the duplicate (or accumulator) was corrupted
    /// consistently with the original, so the comparison saw equality.
    DupAlsoCorrupted,
    /// No architectural divergence was live when the checker ran — the
    /// corruption had already been masked (overwritten or cancelled)
    /// before any check could see it.
    MaskedBeforeCheck,
    /// A SIMD batch flush ran while corruption was live but its
    /// accumulator inputs were clean: the damaged pair was flushed in
    /// an earlier batch (or never captured into this accumulator).
    BatchFlushedEarly,
    /// A deferred-flag recheck ran while corruption was live but its
    /// captured condition bytes were clean: the corrupted flags were
    /// overwritten before the deferred capture reached them.
    DeferredFlagOverwritten,
    /// A scalar check (or requisition red-zone check) ran while
    /// corruption was live but none of its inputs carried the taint —
    /// the corruption propagated around the checked values.
    CheckerBlind,
    /// No protection checker executed at all between the injection and
    /// the end of the run.
    CheckerNotReached,
    /// The corruption escaped to program output before the first
    /// taint-carrying checker executed — the store/print window closed
    /// first.
    StoreEscapedWindow,
    /// Control flow diverged from the golden run before this checker;
    /// past that point per-input taint attribution is no longer
    /// meaningful (the checker belongs to a different path).
    ControlFlowDiverged,
}

impl EscapeReason {
    /// All reasons, in report order.
    pub const ALL: [EscapeReason; 8] = [
        EscapeReason::DupAlsoCorrupted,
        EscapeReason::MaskedBeforeCheck,
        EscapeReason::BatchFlushedEarly,
        EscapeReason::DeferredFlagOverwritten,
        EscapeReason::CheckerBlind,
        EscapeReason::CheckerNotReached,
        EscapeReason::StoreEscapedWindow,
        EscapeReason::ControlFlowDiverged,
    ];

    /// Stable text label (reports and JSON keys).
    pub fn label(self) -> &'static str {
        match self {
            EscapeReason::DupAlsoCorrupted => "dup-also-corrupted",
            EscapeReason::MaskedBeforeCheck => "masked-before-check",
            EscapeReason::BatchFlushedEarly => "batch-flushed-early",
            EscapeReason::DeferredFlagOverwritten => "deferred-flag-overwritten",
            EscapeReason::CheckerBlind => "checker-blind",
            EscapeReason::CheckerNotReached => "checker-not-reached",
            EscapeReason::StoreEscapedWindow => "store-escaped-window",
            EscapeReason::ControlFlowDiverged => "control-flow-diverged",
        }
    }
}

impl fmt::Display for EscapeReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One protection checker that executed after the injection, with the
/// classified reason it did not fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckerEscape {
    /// Dynamic index at which the checker executed (in the faulty run).
    pub dyn_index: u64,
    /// Static instruction index of the checker's flag-writing compare.
    pub pc: usize,
    /// The protection mechanism the checker belongs to.
    pub mechanism: Mechanism,
    /// Why it failed to fire.
    pub reason: EscapeReason,
    /// Whether any of the checker's inputs carried live corruption when
    /// it ran.
    pub inputs_tainted: bool,
}

/// The first architectural divergence between golden and faulty runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Divergence {
    /// Dynamic index of the injected instruction.
    pub dyn_index: u64,
    /// Static instruction index of the injected instruction.
    pub pc: usize,
    /// Provenance of the injected instruction.
    pub prov: Provenance,
    /// Where the states first differ.
    pub loc: DiffLoc,
}

/// The live corruption set at one instruction boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaintSample {
    /// Dynamic index of the boundary (faulty run).
    pub dyn_index: u64,
    /// Divergent general-purpose registers.
    pub gprs: usize,
    /// Divergent 64-bit SIMD lanes.
    pub simd_lanes: usize,
    /// Whether RFLAGS diverge.
    pub flags: bool,
    /// Divergent memory bytes.
    pub mem_bytes: usize,
    /// Distinct locations ever tainted up to this boundary (monotone).
    pub cumulative: usize,
}

impl TaintSample {
    /// Total live tainted locations at this boundary.
    pub fn live(&self) -> usize {
        self.gprs + self.simd_lanes + usize::from(self.flags) + self.mem_bytes
    }
}

/// The corruption fan-out over time for one faulted run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TaintTimeline {
    /// Strided boundary samples (bounded; covers the whole walk).
    pub samples: Vec<TaintSample>,
    /// Peak live corruption observed at any boundary.
    pub peak_live: usize,
    /// Distinct architectural locations ever tainted.
    pub propagation_depth: usize,
    /// Boundary at which the live corruption set emptied while the
    /// output was still golden (the fault died out), if it did.
    pub quiescence: Option<u64>,
    /// Boundary at which program output first diverged, if it did.
    pub time_to_output: Option<u64>,
}

/// The bisected minimal kill-window: the span of dynamic instructions
/// `[start, end]` within which restoring the faulty run's register
/// file from the golden run still yields the golden output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillWindow {
    /// Injection boundary (start of the window).
    pub start: u64,
    /// Last boundary at which a register repair still kills the fault.
    pub end: u64,
    /// True if not even an immediate repair restores the golden output.
    pub escaped: bool,
}

impl KillWindow {
    /// Whether the window contains the given dynamic index.
    pub fn contains(&self, dyn_index: u64) -> bool {
        self.start <= dyn_index && dyn_index <= self.end
    }

    /// Window length in dynamic instructions.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// True when the window has zero length.
    pub fn is_empty(&self) -> bool {
        self.end == self.start
    }
}

/// Full differential-replay explanation of one fault sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForensicRecord {
    /// The injected fault.
    pub fault: FaultSpec,
    /// Its campaign outcome.
    pub outcome: Outcome,
    /// Static instruction index of the injected instruction.
    pub site_pc: usize,
    /// First architectural divergence (always present: a bit flip
    /// always produces one).
    pub divergence: Option<Divergence>,
    /// Corruption fan-out over the faulty run.
    pub taint: TaintTimeline,
    /// Checkers executed after the injection, each with its escape
    /// classification.
    pub checkers: Vec<CheckerEscape>,
    /// Record-level escape reason (deterministic priority over the
    /// per-checker classifications).
    pub primary_reason: Option<EscapeReason>,
    /// Bisected minimal kill-window (absent when bisection is off).
    pub kill_window: Option<KillWindow>,
}

/// What to analyze and how hard to work at it.
#[derive(Debug, Clone)]
pub struct ForensicConfig {
    /// Outcomes that trigger a replay (default: SDC only).
    pub outcomes: Vec<Outcome>,
    /// Cap on fully analyzed records per campaign.
    pub max_records: usize,
    /// Budget for the lock-step walk (and the post-divergence checker
    /// enumeration), in dynamic instructions.
    pub max_lockstep_steps: u64,
    /// Cap on retained taint-timeline samples per record.
    pub max_taint_samples: usize,
    /// Whether to bisect kill-windows (log₂ extra replays per record).
    pub bisect: bool,
}

impl Default for ForensicConfig {
    fn default() -> ForensicConfig {
        ForensicConfig {
            outcomes: vec![Outcome::Sdc],
            max_records: 64,
            max_lockstep_steps: 200_000,
            max_taint_samples: 64,
            bisect: true,
        }
    }
}

/// Aggregated forensics for one campaign.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ForensicsReport {
    /// Fully analyzed records (at most `max_records`).
    pub records: Vec<ForensicRecord>,
    /// Campaign outcomes that matched the configured filter (analyzed
    /// or not — the excess past `max_records` is counted, not dropped
    /// silently).
    pub matching_total: usize,
    /// Primary escape reasons over the analyzed records.
    pub reason_histogram: Vec<(EscapeReason, usize)>,
    /// Post-injection checker escapes per mechanism, over all analyzed
    /// records.
    pub mechanism_escapes: Vec<(Mechanism, usize)>,
}

impl ForensicsReport {
    /// Number of fully analyzed records.
    pub fn analyzed(&self) -> usize {
        self.records.len()
    }

    /// Records whose first divergence was located.
    pub fn located(&self) -> usize {
        self.records.iter().filter(|r| r.divergence.is_some()).count()
    }

    /// Records with a classified primary escape reason.
    pub fn classified(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.primary_reason.is_some())
            .count()
    }

    /// `(min, median, max)` of the propagation depths (distinct
    /// locations ever tainted), if any records were analyzed — on the
    /// shared nearest-rank convention of [`min_median_max`].
    pub fn depth_summary(&self) -> Option<(usize, usize, usize)> {
        min_median_max(
            self.records
                .iter()
                .map(|r| r.taint.propagation_depth)
                .collect(),
        )
    }

    /// `(min, median, max)` of the injection→output latencies, if any
    /// corruption reached the output.
    pub fn latency_summary(&self) -> Option<(u64, u64, u64)> {
        let latencies = self.records.iter().filter_map(|r| {
            let t = r.taint.time_to_output?;
            Some(t.saturating_sub(r.fault.dyn_index))
        });
        min_median_max(latencies.collect())
    }

    /// Recomputes the aggregate histograms from the records.
    pub fn finish(&mut self) {
        let reasons = self.records.iter().filter_map(|r| r.primary_reason);
        self.reason_histogram = histogram(EscapeReason::ALL, reasons);
        let mechanisms = self
            .records
            .iter()
            .flat_map(|r| &r.checkers)
            .map(|c| c.mechanism);
        self.mechanism_escapes = histogram(Mechanism::ALL, mechanisms);
    }
}

/// Occurrences of each key in `items`, in `keys` order, omitting zeros.
fn histogram<K: Copy + PartialEq, const N: usize>(
    keys: [K; N],
    items: impl Iterator<Item = K> + Clone,
) -> Vec<(K, usize)> {
    keys.into_iter()
        .map(|k| (k, items.clone().filter(|&i| i == k).count()))
        .filter(|&(_, n)| n > 0)
        .collect()
}

/// A statically-`Unknown` coverage site whose sampled fault produced an
/// SDC, paired with the measured explanation from its forensic record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnknownSiteExplanation {
    /// Static instruction index of the site.
    pub pc: usize,
    /// Dynamic index of the injected instruction.
    pub dyn_index: u64,
    /// The sampled raw bit.
    pub raw_bit: u16,
    /// Mechanism of the injected instruction, when it was protection
    /// code.
    pub mechanism: Option<Mechanism>,
    /// The measured escape reason.
    pub reason: Option<EscapeReason>,
}

/// Cross-links forensic records to a static [`CoverageMap`]: every
/// analyzed SDC whose site the map left `Unknown` gets its measured
/// explanation, turning the map's "analysis lost exactness here"
/// verdicts into diagnosed escapes.
pub fn explain_unknown_sites(
    profile: &Profile,
    map: &CoverageMap,
    report: &ForensicsReport,
) -> Vec<UnknownSiteExplanation> {
    report
        .records
        .iter()
        .filter(|r| r.outcome == Outcome::Sdc)
        .filter_map(|r| {
            let i = profile
                .sites
                .binary_search_by_key(&r.fault.dyn_index, |s| s.dyn_index)
                .ok()?;
            let site = profile.sites[i];
            match map.verdict_at(site.pc, r.fault.raw_bit) {
                Some(StaticVerdict::Unknown) => Some(UnknownSiteExplanation {
                    pc: site.pc,
                    dyn_index: site.dyn_index,
                    raw_bit: r.fault.raw_bit,
                    mechanism: site.prov.mechanism(),
                    reason: r.primary_reason,
                }),
                _ => None,
            }
        })
        .collect()
}

/// Bounded strided sampler: keeps at most `max` samples spread over the
/// whole walk by doubling the stride whenever the buffer fills.
struct TimelineSampler {
    samples: Vec<TaintSample>,
    stride: u64,
    seen: u64,
    max: usize,
}

impl TimelineSampler {
    fn new(max: usize) -> TimelineSampler {
        TimelineSampler {
            samples: Vec::new(),
            stride: 1,
            seen: 0,
            max: max.max(2),
        }
    }

    fn push(&mut self, s: TaintSample) {
        if self.seen.is_multiple_of(self.stride) {
            if self.samples.len() == self.max {
                let mut i = 0;
                self.samples.retain(|_| {
                    i += 1;
                    i % 2 == 1
                });
                self.stride *= 2;
            }
            if self.seen.is_multiple_of(self.stride) {
                self.samples.push(s);
            }
        }
        self.seen += 1;
    }
}

/// The taint walk's running state: every location ever tainted, the
/// peak live set, and the bounded timeline.
struct TaintWalk {
    ever: BTreeSet<u64>,
    peak_live: usize,
    timeline: TimelineSampler,
}

impl TaintWalk {
    /// Books the live corruption at one instruction boundary.
    fn observe(&mut self, live: &RegDiff, mem: &MemDivergence, dyn_index: u64) {
        accumulate_taint(&mut self.ever, live, mem);
        let s = TaintSample {
            dyn_index,
            gprs: live.gprs.len(),
            simd_lanes: live.simd_lanes.len(),
            flags: live.flags,
            mem_bytes: mem.len(),
            cumulative: self.ever.len(),
        };
        self.peak_live = self.peak_live.max(s.live());
        self.timeline.push(s);
    }
}

fn accumulate_taint(ever: &mut BTreeSet<u64>, live: &RegDiff, mem: &MemDivergence) {
    // Disjoint key spaces: GPR index, 100+SIMD lane, 300 for flags,
    // and memory addresses offset past the register keys.
    for g in &live.gprs {
        ever.insert(g.index() as u64);
    }
    for &(reg, lane) in &live.simd_lanes {
        ever.insert(100 + u64::from(reg) * 8 + u64::from(lane));
    }
    if live.flags {
        ever.insert(300);
    }
    for addr in mem.iter() {
        ever.insert((1u64 << 32) | addr);
    }
}

/// Whether the checker at the faulty state's pc reads any location of
/// the live corruption set.
fn checker_inputs_tainted(
    image: &Image,
    faulty: &EngineMachine<'_>,
    live: &RegDiff,
    mem: &MemDivergence,
) -> bool {
    let li = &image.insts[faulty.state().pc];
    if li
        .inst
        .gprs_read()
        .iter()
        .any(|g| live.gprs.contains(g))
    {
        return true;
    }
    let simd = li.inst.simd_read();
    if live.simd_lanes.iter().any(|(reg, _)| simd.contains(reg)) {
        return true;
    }
    if li.inst.reads_flags() && live.flags {
        return true;
    }
    mem.overlaps(&load_ranges(image, faulty.state()))
}

fn classify_checker(mechanism: Mechanism, taint_live: bool, inputs_tainted: bool) -> EscapeReason {
    if !taint_live {
        EscapeReason::MaskedBeforeCheck
    } else if inputs_tainted {
        EscapeReason::DupAlsoCorrupted
    } else {
        match mechanism {
            Mechanism::BatchFlush => EscapeReason::BatchFlushedEarly,
            Mechanism::FlagRecheck => EscapeReason::DeferredFlagOverwritten,
            _ => EscapeReason::CheckerBlind,
        }
    }
}

/// Record-level escape reason, chosen deterministically: no checker at
/// all → `CheckerNotReached`; output escaped before the first
/// taint-carrying checker → `StoreEscapedWindow`; otherwise the *last*
/// checker that ran while corruption was live names the failure; if
/// every checker ran taint-free the fault was `MaskedBeforeCheck`.
fn primary_reason(
    checkers: &[CheckerEscape],
    time_to_output: Option<u64>,
) -> Option<EscapeReason> {
    if checkers.is_empty() {
        return Some(EscapeReason::CheckerNotReached);
    }
    let live: Vec<&CheckerEscape> = checkers
        .iter()
        .filter(|c| c.reason != EscapeReason::MaskedBeforeCheck)
        .collect();
    match (time_to_output, live.first()) {
        (Some(t), Some(c)) if t < c.dyn_index => Some(EscapeReason::StoreEscapedWindow),
        (Some(_), None) => Some(EscapeReason::StoreEscapedWindow),
        (_, Some(_)) => live.last().map(|c| c.reason),
        (None, None) => Some(EscapeReason::MaskedBeforeCheck),
    }
}

/// One kill-window probe: lock-step `t` boundaries past the injection,
/// then repair the faulty run's complete register file from the golden
/// run and let it finish.  True when that still restores the golden
/// output.
fn kill_probe(
    engine: Engine<'_>,
    fault: FaultSpec,
    snap: &Snapshot,
    golden_output: &[i64],
    t: u64,
) -> bool {
    let mut g = engine.machine();
    g.restore(snap);
    let mut f = g.clone();
    f.step_faulted(&[fault]);
    g.step();
    let mut k = 0u64;
    while k < t
        && g.stop_reason().is_none()
        && f.stop_reason().is_none()
        && g.state().pc == f.state().pc
    {
        g.step();
        f.step();
        k += 1;
    }
    if f.stop_reason().is_none() {
        f.state_mut().regs = g.state().regs.clone();
    }
    let r = f.run_to_completion(&[]);
    r.stop == StopReason::MainReturned && r.output == golden_output
}

/// Binary-searches the largest repair distance that still kills the
/// fault (monotone by construction: memory/output damage only grows).
fn bisect_kill_window(
    engine: Engine<'_>,
    fault: FaultSpec,
    snap: &Snapshot,
    golden_output: &[i64],
    t_max: u64,
) -> KillWindow {
    let start = fault.dyn_index;
    if !kill_probe(engine, fault, snap, golden_output, 0) {
        return KillWindow {
            start,
            end: start,
            escaped: true,
        };
    }
    if kill_probe(engine, fault, snap, golden_output, t_max) {
        return KillWindow {
            start,
            end: start + 1 + t_max,
            escaped: false,
        };
    }
    let (mut lo, mut hi) = (0u64, t_max);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if kill_probe(engine, fault, snap, golden_output, mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    KillWindow {
        start,
        end: start + 1 + lo,
        escaped: false,
    }
}

/// Differentially replays one fault sample and explains it.  The
/// decoded machine's `step_faulted` always executes exactly one
/// instruction (never a fused group), so the lock-step walk observes
/// the same boundaries on either [`Engine`] and records are identical.
///
/// # Panics
///
/// Panics if `fault.dyn_index` lies beyond the golden run (faults
/// drawn from `profile.sites` never do).
pub fn forensic_replay_on(
    engine: Engine<'_>,
    profile: &Profile,
    fault: FaultSpec,
    outcome: Outcome,
    fcfg: &ForensicConfig,
) -> ForensicRecord {
    let _span = ferrum_trace::span("forensics.replay");
    let image = engine.image();

    // Golden prefix up to the injection boundary.
    let mut golden = engine.machine();
    while golden.dyn_insts() < fault.dyn_index {
        assert!(
            golden.step() == ferrum_cpu::exec::StepEvent::Continue,
            "fault index {} beyond golden run",
            fault.dyn_index
        );
    }
    let inject_snap = golden.snapshot();
    let inject_pc = golden.state().pc;
    let inject_prov = image.insts[inject_pc].prov;

    // The faulted step, against the golden step.
    let mut faulty = golden.clone();
    faulty.step_faulted(&[fault]);
    golden.step();

    let mut mem = MemDivergence::new();
    let mut live = diff_regs(golden.state(), faulty.state());
    let divergence =
        first_divergence(golden.state(), faulty.state(), &mem).map(|loc| Divergence {
            dyn_index: fault.dyn_index,
            pc: inject_pc,
            prov: inject_prov,
            loc,
        });

    let mut taint = TaintWalk {
        ever: BTreeSet::new(),
        peak_live: 0,
        timeline: TimelineSampler::new(fcfg.max_taint_samples),
    };
    let mut checkers: Vec<CheckerEscape> = Vec::new();
    let mut quiescence = None;
    let mut time_to_output = None;
    let mut control_diverged = false;
    taint.observe(&live, &mem, faulty.dyn_insts());

    // Lock-step walk while both runs agree on control flow.
    let mut steps = 0u64;
    loop {
        if golden.stop_reason().is_some() || faulty.stop_reason().is_some() {
            break;
        }
        if golden.state().pc != faulty.state().pc {
            control_diverged = true;
            break;
        }
        if steps >= fcfg.max_lockstep_steps {
            break;
        }
        if live.is_empty() && mem.is_empty() && time_to_output.is_none() {
            // Fully reconverged before any output damage: the rest of
            // the run is identical to golden by induction.
            quiescence = Some(faulty.dyn_insts());
            break;
        }

        let li = &image.insts[faulty.state().pc];
        if let Some(mechanism) = li.prov.mechanism().filter(|m| m.is_checker()) {
            if li.inst.writes_flags() {
                let taint_live = !live.is_empty() || !mem.is_empty();
                let inputs_tainted = checker_inputs_tainted(image, &faulty, &live, &mem);
                checkers.push(CheckerEscape {
                    dyn_index: faulty.dyn_insts(),
                    pc: faulty.state().pc,
                    mechanism,
                    reason: classify_checker(mechanism, taint_live, inputs_tainted),
                    inputs_tainted,
                });
            }
        }

        // Predict store targets in both states (effective addresses may
        // have diverged), step, then re-compare exactly those bytes.
        let mut ranges = store_ranges(image, golden.state());
        ranges.extend(store_ranges(image, faulty.state()));
        golden.step();
        faulty.step();
        steps += 1;
        mem.update(&golden.state().mem, &faulty.state().mem, &ranges);
        live = diff_regs(golden.state(), faulty.state());
        if time_to_output.is_none() && golden.state().output != faulty.state().output {
            time_to_output = Some(faulty.dyn_insts());
        }
        taint.observe(&live, &mem, faulty.dyn_insts());
    }

    // Past a control-flow divergence (or past the golden run's end) the
    // faulty run walks alone; checkers it still executes belong to a
    // different path and are classified as such.
    if faulty.stop_reason().is_none() && (control_diverged || golden.stop_reason().is_some()) {
        let mut extra = 0u64;
        while faulty.stop_reason().is_none() && extra < fcfg.max_lockstep_steps {
            let li = &image.insts[faulty.state().pc];
            if let Some(mechanism) = li.prov.mechanism().filter(|m| m.is_checker()) {
                if li.inst.writes_flags() {
                    checkers.push(CheckerEscape {
                        dyn_index: faulty.dyn_insts(),
                        pc: faulty.state().pc,
                        mechanism,
                        reason: EscapeReason::ControlFlowDiverged,
                        inputs_tainted: true,
                    });
                }
            }
            faulty.step();
            extra += 1;
        }
    }

    let kill_window = fcfg.bisect.then(|| {
        bisect_kill_window(engine, fault, &inject_snap, &profile.result.output, steps)
    });
    let primary = primary_reason(&checkers, time_to_output);

    ForensicRecord {
        fault,
        outcome,
        site_pc: inject_pc,
        divergence,
        taint: TaintTimeline {
            samples: taint.timeline.samples,
            peak_live: taint.peak_live,
            propagation_depth: taint.ever.len(),
            quiescence,
            time_to_output,
        },
        checkers,
        primary_reason: primary,
        kill_window,
    }
}

/// Runs the serial campaign while forensically replaying every sample
/// whose outcome matches `fcfg.outcomes` (up to `fcfg.max_records`).
///
/// The returned [`CampaignResult`] is outcome-identical to
/// [`run_campaign_on`] for the same seed: replay is purely
/// observational, driven by the same pre-sampled fault list.
///
/// [`run_campaign_on`]: crate::campaign::run_campaign_on
///
/// # Panics
///
/// Panics if the profile has no injectable sites (with `samples > 0`).
pub fn run_campaign_forensic_on(
    engine: Engine<'_>,
    profile: &Profile,
    cfg: CampaignConfig,
    fcfg: &ForensicConfig,
) -> (CampaignResult, ForensicsReport) {
    let mut replay = Replay {
        engine,
        profile,
        fcfg,
        report: ForensicsReport::default(),
    };
    let plan = Plan::sampled("forensic", "campaign.forensic", profile, cfg);
    let result = execute(engine, profile, &plan, Runner::Inline, Some(&mut replay));
    let mut report = replay.report;
    ferrum_trace::counter("forensics.replays", report.records.len() as u64);
    report.finish();
    (result, report)
}

/// The forensic campaign's observer: replays each matching outcome.
struct Replay<'a> {
    engine: Engine<'a>,
    profile: &'a Profile,
    fcfg: &'a ForensicConfig,
    report: ForensicsReport,
}

impl Observer for Replay<'_> {
    fn outcome(&mut self, _i: usize, fault: FaultSpec, outcome: Outcome) {
        if self.fcfg.outcomes.contains(&outcome) {
            self.report.matching_total += 1;
            if self.report.records.len() < self.fcfg.max_records {
                let r = forensic_replay_on(self.engine, self.profile, fault, outcome, self.fcfg);
                self.report.records.push(r);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::run_campaign;
    use ferrum_cpu::run::Cpu;
    use ferrum_mir::builder::FunctionBuilder;
    use ferrum_mir::module::{Global, Module};
    use ferrum_mir::types::Ty;

    fn sum_module() -> Module {
        let mut module = Module::new();
        let g = module.add_global(Global::new("tab", vec![1, 2, 3, 4]));
        let mut b = FunctionBuilder::new("main", &[], None);
        let base = b.global(g);
        let mut acc = b.iconst(Ty::I64, 0);
        for i in 0..4 {
            let idx = b.iconst(Ty::I64, i);
            let p = b.gep(base, idx);
            let v = b.load(Ty::I64, p);
            acc = b.add(Ty::I64, acc, v);
        }
        b.print(acc);
        b.ret(None);
        module.functions.push(b.finish());
        module
    }

    fn unprotected_cpu() -> Cpu {
        let asm = ferrum_backend::compile(&sum_module()).unwrap();
        Cpu::load(&asm).unwrap()
    }

    fn protected_cpu() -> Cpu {
        let asm = ferrum_eddi::ferrum::Ferrum::new()
            .protect_module(&sum_module())
            .unwrap();
        Cpu::load(&asm).unwrap()
    }

    fn analyze_all(cpu: &Cpu, samples: usize, seed: u64) -> (CampaignResult, ForensicsReport) {
        let profile = cpu.profile();
        let cfg = CampaignConfig { samples, seed };
        let fcfg = ForensicConfig {
            outcomes: Outcome::ALL.to_vec(),
            max_records: usize::MAX,
            ..ForensicConfig::default()
        };
        run_campaign_forensic_on(Engine::Interpreter(cpu), &profile, cfg, &fcfg)
    }

    #[test]
    fn forensic_campaign_is_outcome_identical_to_serial() {
        for cpu in [unprotected_cpu(), protected_cpu()] {
            let profile = cpu.profile();
            let cfg = CampaignConfig {
                samples: 160,
                seed: 41,
            };
            let serial = run_campaign(&cpu, &profile, cfg);
            let (forensic, report) = run_campaign_forensic_on(
                Engine::Interpreter(&cpu),
                &profile,
                cfg,
                &ForensicConfig::default(),
            );
            assert_eq!(forensic, serial);
            assert_eq!(report.matching_total, serial.sdc);
        }
    }

    #[test]
    fn every_record_locates_the_divergence_at_the_injected_site() {
        let cpu = unprotected_cpu();
        let (result, report) = analyze_all(&cpu, 200, 7);
        assert_eq!(report.analyzed(), result.total());
        for r in &report.records {
            let d = r.divergence.expect("bit flip always diverges");
            assert_eq!(d.dyn_index, r.fault.dyn_index);
            assert_eq!(d.pc, r.site_pc);
        }
        assert_eq!(report.located(), report.analyzed());
        assert_eq!(report.classified(), report.analyzed());
    }

    #[test]
    fn unprotected_sdcs_have_no_checkers_to_blame() {
        let cpu = unprotected_cpu();
        let (_, report) = analyze_all(&cpu, 200, 7);
        for r in report.records.iter().filter(|r| r.outcome == Outcome::Sdc) {
            assert!(r.checkers.is_empty(), "no protection code exists");
            assert_eq!(r.primary_reason, Some(EscapeReason::CheckerNotReached));
            assert!(
                r.taint.time_to_output.is_some(),
                "an SDC's corruption reaches the output"
            );
        }
    }

    #[test]
    fn protected_run_records_checker_escapes_and_detections_quiesce_analysis() {
        let cpu = protected_cpu();
        let (result, report) = analyze_all(&cpu, 300, 13);
        assert!(result.detected > 0, "FERRUM detects faults on this kernel");
        // Detected outcomes: the faulty run stops at the checker; the
        // post-injection checker list is allowed to be empty (the one
        // that fired is not an escape), and benign ones must quiesce
        // or run out clean.
        for r in &report.records {
            assert!(r.divergence.is_some());
            assert!(r.primary_reason.is_some());
            if let Some(kw) = r.kill_window {
                assert!(kw.contains(r.fault.dyn_index));
                assert!(!kw.escaped, "register repair at t=0 always kills");
            }
            if r.outcome == Outcome::Benign {
                assert!(
                    r.taint.time_to_output.is_none(),
                    "benign runs never corrupt output"
                );
            }
        }
        // Taint cumulative counts are monotone within each record.
        for r in &report.records {
            for w in r.taint.samples.windows(2) {
                assert!(w[0].cumulative <= w[1].cumulative);
                assert!(w[0].dyn_index < w[1].dyn_index);
            }
            assert!(r.taint.propagation_depth >= 1, "the flip itself taints");
        }
    }

    #[test]
    fn kill_window_for_an_sdc_ends_before_the_output_escape() {
        let cpu = unprotected_cpu();
        let (_, report) = analyze_all(&cpu, 300, 99);
        let sdc: Vec<&ForensicRecord> = report
            .records
            .iter()
            .filter(|r| r.outcome == Outcome::Sdc)
            .collect();
        assert!(!sdc.is_empty(), "unprotected kernel produces SDCs");
        for r in &sdc {
            let kw = r.kill_window.expect("bisection on by default");
            assert!(!kw.escaped);
            // Once the corrupted value is printed, no register repair
            // can restore the output: the window ends at or before it.
            let out = r.taint.time_to_output.expect("SDC reaches output");
            assert!(kw.end <= out, "window {kw:?} vs output at {out}");
        }
    }

    #[test]
    fn report_histograms_cover_all_records() {
        let cpu = protected_cpu();
        let (_, report) = analyze_all(&cpu, 300, 5);
        let total: usize = report.reason_histogram.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, report.classified());
        assert!(report.depth_summary().is_some());
        let (min, med, max) = report.depth_summary().unwrap();
        assert!(min <= med && med <= max);
    }

    #[test]
    fn zero_sample_forensics_is_empty() {
        let cpu = unprotected_cpu();
        let profile = cpu.profile();
        let cfg = CampaignConfig {
            samples: 0,
            seed: 1,
        };
        let (result, report) = run_campaign_forensic_on(
            Engine::Interpreter(&cpu),
            &profile,
            cfg,
            &ForensicConfig::default(),
        );
        assert_eq!(result.total(), 0);
        assert_eq!(report.analyzed(), 0);
        assert_eq!(report.matching_total, 0);
    }

    #[test]
    fn timeline_sampler_stays_bounded_and_ordered() {
        let mut s = TimelineSampler::new(8);
        for i in 0..1000u64 {
            s.push(TaintSample {
                dyn_index: i,
                gprs: 1,
                simd_lanes: 0,
                flags: false,
                mem_bytes: 0,
                cumulative: i as usize + 1,
            });
        }
        assert!(s.samples.len() <= 8);
        assert!(s.samples.windows(2).all(|w| w[0].dyn_index < w[1].dyn_index));
        // Coverage spans the walk, not just its head.
        assert!(s.samples.last().unwrap().dyn_index >= 500);
    }
}
