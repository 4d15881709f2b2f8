//! Sampled and exhaustive fault-injection campaigns.
//!
//! Every executor in this crate builds a **fault plan** and hands it to
//! one **executor core**, which runs it on a **runner**:
//!
//! * **Plan** — the ordered injections.  Each entry is the fault(s) of
//!   one faulted run (a pair for [`run_double_campaign_on`]), or a
//!   fault booked with a known outcome instead of executing: a static
//!   coverage verdict ([`run_campaign_pruned_on`]), a cached
//!   per-function shard ([`mod@crate::compose`]) or a journaled shard
//!   ([`crate::flight::resume_campaign_from_journal`]).  Plans are the
//!   shared uniform sample, the per-function strata, the double-fault
//!   pairs and the [`exhaustive_campaign_on`] sweep.
//! * **Core** — classifies each outcome against the golden output and
//!   owns what every executor shares: flight-recorder probes and stage
//!   clocks, per-worker accounting, detection latency, final stats.
//!   An optional observer sees each outcome in plan order (forensic
//!   replay, per-function shard events).
//! * **Runner** — whole runs on the calling thread or on work-stealing
//!   worker threads ([`run_campaign_parallel_on`]), or, with a
//!   [`SnapshotPolicy`] ([`run_campaign_snapshot_on`]), runs resumed
//!   from the nearest snapshot of a golden prefix walked once.
//!
//! Records come back in plan order whatever the runner, so executors
//! sharing a plan return identical outcome counts and records per seed
//! on either [`Engine`].  [`run_campaign`], the serial executor on the
//! reference interpreter, is the oracle the others are checked against.
//!
//! The core fills [`CampaignResult::stats`] with campaign telemetry:
//! throughput, snapshot hit-rate and steps saved, per-worker load
//! ([`WorkerStats`]), and the detection-latency distribution
//! ([`DetectionLatency`] — the dynamic-instruction distance from each
//! injection to the checker that caught it).  `stats` is excluded from
//! `PartialEq`: two campaigns are *equal* when their sampled faults and
//! classified outcomes agree, however long they took.  With the `trace`
//! feature the core also emits `ferrum-trace` spans and counters,
//! which are observational only.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use ferrum_rng::Rng64;

use ferrum_asm::analysis::coverage::{CoverageMap, StaticVerdict};
use ferrum_cpu::fault::FaultSpec;
use ferrum_cpu::outcome::{RunResult, StopReason};
use ferrum_cpu::run::{Cpu, Profile};
use ferrum_cpu::snapshot::Snapshot;

use crate::engine::{Engine, EngineKind};
use crate::flight::{self, Booking, Stage, StageClock};

/// Classified result of one injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// Completed with wrong output: silent data corruption.
    Sdc,
    /// A checker fired.
    Detected,
    /// Hardware-style exception.
    Crash,
    /// Step budget exhausted.
    Timeout,
    /// Completed with the correct output.
    Benign,
}

impl Outcome {
    /// All outcome classes.
    pub const ALL: [Outcome; 5] = [
        Outcome::Sdc,
        Outcome::Detected,
        Outcome::Crash,
        Outcome::Timeout,
        Outcome::Benign,
    ];

    /// Label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Outcome::Sdc => "SDC",
            Outcome::Detected => "detected",
            Outcome::Crash => "crash",
            Outcome::Timeout => "timeout",
            Outcome::Benign => "benign",
        }
    }

    /// The variant name used by the JSON schemas
    /// (docs/campaign-schema.md records, docs/events-schema.md).
    pub fn variant(self) -> &'static str {
        match self {
            Outcome::Sdc => "Sdc",
            Outcome::Detected => "Detected",
            Outcome::Crash => "Crash",
            Outcome::Timeout => "Timeout",
            Outcome::Benign => "Benign",
        }
    }

    /// Parses a [`Outcome::variant`] name back; `None` otherwise.
    pub fn parse(s: &str) -> Option<Outcome> {
        Outcome::ALL.into_iter().find(|o| o.variant() == s)
    }
}

/// Campaign parameters.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// Number of sampled faults (the paper uses 1000 per benchmark).
    pub samples: usize,
    /// RNG seed (campaigns are fully reproducible).
    pub seed: u64,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            samples: 1000,
            seed: 0xFE44_0001,
        }
    }
}

/// Per-worker telemetry for one campaign executor.
///
/// Entry `i` describes worker thread `i`; the serial executors report a
/// single entry.  Work stealing makes the split vary run to run, which
/// is one reason `stats` is excluded from result equality.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Faulted runs this worker executed.
    pub injections: usize,
    /// Dynamic instructions this worker executed.
    pub steps_executed: u64,
}

/// Detection-latency distribution: for every [`Outcome::Detected`]
/// record, the dynamic-instruction distance from the faulted
/// instruction to the checker that fired.
///
/// Samples are stored sorted, so the distribution compares equal
/// across executors regardless of worker scheduling.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DetectionLatency {
    samples: Vec<u64>,
}

impl DetectionLatency {
    /// Builds the distribution from raw samples (any order).
    pub fn from_samples(mut samples: Vec<u64>) -> DetectionLatency {
        samples.sort_unstable();
        DetectionLatency { samples }
    }

    /// Number of detections observed.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// The samples, sorted ascending.
    pub fn samples(&self) -> &[u64] {
        &self.samples
    }

    /// Nearest-rank percentile for `p` in `0.0..=100.0`; `None` when no
    /// detections were observed.  Delegates to the shared
    /// [`crate::stats::percentile_nearest_rank`] definition so latency
    /// reporting, forensic summaries, and flight-recorder snapshots
    /// agree on what a percentile is.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        crate::stats::percentile_nearest_rank(&self.samples, p)
    }

    /// Median detection latency.
    pub fn p50(&self) -> Option<u64> {
        self.percentile(50.0)
    }

    /// 95th-percentile detection latency.
    pub fn p95(&self) -> Option<u64> {
        self.percentile(95.0)
    }

    /// Worst observed detection latency.
    pub fn max(&self) -> Option<u64> {
        self.samples.last().copied()
    }

    /// Log2-bucketed histogram as `(lo, hi, count)` rows covering
    /// `lo..=hi`.  Bucket 0 is the exact-zero bucket `[0, 0]` (the
    /// checker immediately following the fault); bucket `k > 0` covers
    /// `[2^(k-1), 2^k - 1]`.  Empty buckets up to the maximum sample
    /// are included so renderers get a contiguous axis.
    pub fn histogram_log2(&self) -> Vec<(u64, u64, u64)> {
        let Some(&max) = self.samples.last() else {
            return Vec::new();
        };
        let bucket = |s: u64| (64 - s.leading_zeros()) as usize;
        let mut counts = vec![0u64; bucket(max) + 1];
        for &s in &self.samples {
            counts[bucket(s)] += 1;
        }
        counts
            .iter()
            .enumerate()
            .map(|(k, &c)| {
                let lo = if k == 0 { 0 } else { 1u64 << (k - 1) };
                let hi = if k == 0 { 0 } else { (1u64 << k) - 1 };
                (lo, hi, c)
            })
            .collect()
    }
}

/// Campaign telemetry: throughput, snapshot efficiency, per-worker
/// load, and detection-latency distribution.
///
/// Purely observational: excluded from [`CampaignResult`] equality so
/// determinism assertions compare sampled faults and outcomes only.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CampaignStats {
    /// Wall-clock duration of the campaign in nanoseconds.
    pub wall_nanos: u128,
    /// Total injected faults (mirrors [`CampaignResult::total`] so the
    /// stats are self-contained).
    pub injections: usize,
    /// Injected faults per wall-clock second.
    pub injections_per_sec: f64,
    /// Worker threads used (1 for the serial executor).
    pub threads: usize,
    /// Snapshots captured along the golden prefix.
    pub snapshots_taken: usize,
    /// Faulted runs that started from a snapshot past instruction 0.
    pub snapshot_hits: usize,
    /// Dynamic instructions *not* re-executed thanks to snapshots
    /// (the sum of each chosen snapshot's instruction boundary).
    pub steps_saved: u64,
    /// Dynamic instructions actually executed across all faulted runs.
    pub steps_executed: u64,
    /// Per-worker injections and steps, indexed by worker thread.
    pub per_worker: Vec<WorkerStats>,
    /// Injection→detection instruction-distance distribution.
    pub latency: DetectionLatency,
    /// Faults booked from a static [`CoverageMap`] verdict instead of
    /// being executed (see [`run_campaign_pruned_on`]).
    pub pruned_sites: usize,
    /// Faults replayed from an incremental-campaign cache or a resume
    /// journal instead of being executed (see
    /// [`crate::compose::run_campaign_incremental_on`] and
    /// [`crate::flight::resume_campaign_from_journal`]).
    pub reused_sites: usize,
    /// Execution engine the campaign ran on.  Purely informational —
    /// outcome records are engine-independent per seed; only the
    /// throughput counters above reflect the choice.
    pub engine: EngineKind,
}

impl CampaignStats {
    /// Ratio of the least- to the most-loaded worker's injections:
    /// 1.0 is perfect balance, 0.0 when no work ran.
    pub fn worker_balance(&self) -> f64 {
        let max = self.per_worker.iter().map(|w| w.injections).max().unwrap_or(0);
        let min = self.per_worker.iter().map(|w| w.injections).min().unwrap_or(0);
        ratio(min as u64, max as u64)
    }

    /// Fraction of faulted runs that resumed from a snapshot.
    pub fn snapshot_hit_rate(&self) -> f64 {
        ratio(self.snapshot_hits as u64, self.injections as u64)
    }

    /// Fraction of total work (executed + saved) that snapshots avoided.
    pub fn steps_saved_ratio(&self) -> f64 {
        ratio(self.steps_saved, self.steps_saved + self.steps_executed)
    }

    /// Fraction of injections decided statically (skipped) by the
    /// pruned engine.
    pub fn prune_rate(&self) -> f64 {
        ratio(self.pruned_sites as u64, self.injections as u64)
    }

    /// Fraction of injections replayed from an incremental-campaign
    /// cache or a resume journal instead of executed.
    pub fn reuse_rate(&self) -> f64 {
        ratio(self.reused_sites as u64, self.injections as u64)
    }
}

/// `num / den`, or 0.0 when nothing was counted.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Aggregated campaign outcome counts.
///
/// Equality compares the deterministic payload (counts and records)
/// and ignores [`CampaignResult::stats`].
#[derive(Debug, Clone, Default)]
pub struct CampaignResult {
    /// Silent data corruptions.
    pub sdc: usize,
    /// Detections.
    pub detected: usize,
    /// Crashes.
    pub crash: usize,
    /// Timeouts.
    pub timeout: usize,
    /// Benign completions.
    pub benign: usize,
    /// Every injected fault with its outcome (for root-cause analysis).
    pub records: Vec<(FaultSpec, Outcome)>,
    /// Throughput observability (not part of equality).
    pub stats: CampaignStats,
}

impl PartialEq for CampaignResult {
    fn eq(&self, other: &CampaignResult) -> bool {
        self.sdc == other.sdc
            && self.detected == other.detected
            && self.crash == other.crash
            && self.timeout == other.timeout
            && self.benign == other.benign
            && self.records == other.records
    }
}

impl CampaignResult {
    /// Total injections.
    pub fn total(&self) -> usize {
        self.sdc + self.detected + self.crash + self.timeout + self.benign
    }

    /// SDC probability over the campaign.
    pub fn sdc_prob(&self) -> f64 {
        ratio(self.sdc as u64, self.total() as u64)
    }

    pub(crate) fn record(&mut self, f: FaultSpec, o: Outcome) {
        match o {
            Outcome::Sdc => self.sdc += 1,
            Outcome::Detected => self.detected += 1,
            Outcome::Crash => self.crash += 1,
            Outcome::Timeout => self.timeout += 1,
            Outcome::Benign => self.benign += 1,
        }
        self.records.push((f, o));
    }
}

/// Classifies one faulted run against the golden output.
pub fn classify(stop: StopReason, output: &[i64], golden: &[i64]) -> Outcome {
    match stop {
        StopReason::Detected => Outcome::Detected,
        StopReason::Crash(_) => Outcome::Crash,
        StopReason::Timeout => Outcome::Timeout,
        StopReason::MainReturned => {
            if output == golden {
                Outcome::Benign
            } else {
                Outcome::Sdc
            }
        }
    }
}

/// Injection→detection distance in dynamic instructions.  The checker
/// that fired is the last executed instruction (dynamic index
/// `dyn_insts - 1`, zero-based); the fault fired while executing the
/// instruction at `inject`.  Saturating: a fault index at-or-past the
/// detecting instruction (possible only for faults sampled past
/// program end) reports 0 rather than wrapping.
pub(crate) fn detection_latency(dyn_insts: u64, inject: u64) -> u64 {
    dyn_insts.saturating_sub(1).saturating_sub(inject)
}

/// Pre-samples the campaign's fault list: `cfg.samples` single-bit
/// faults at sites drawn uniformly from `profile.sites`.  Every
/// executor that samples uniformly uses this one function, so the
/// sampled list — and therefore the record stream — is identical
/// across serial, work-stealing, snapshot-accelerated, and decoded
/// runs of the same seed.
///
/// The bit position is drawn uniformly from the site's own
/// `eligible_dest_bits` width ([`ferrum_cpu::run::SiteInfo::bits`]),
/// not from the full `u16` range: a raw bit wider than the destination
/// would be reduced modulo the width at injection time, and for
/// non-power-of-two widths (RFLAGS' 4 probability-relevant bits today;
/// any future irregular destination) `u16::MAX + 1` values folded onto
/// `width` buckets over-weight the low residues.  Drawing below the
/// width keeps every destination bit exactly equally likely
/// (`Rng64::gen_below` is Lemire-unbiased).
///
/// # Panics
///
/// Panics if the profile has no injectable sites (with `samples > 0`).
pub(crate) fn sample_faults(profile: &Profile, cfg: CampaignConfig) -> Vec<FaultSpec> {
    assert!(
        cfg.samples == 0 || !profile.sites.is_empty(),
        "no injectable sites"
    );
    let mut rng = Rng64::seed_from_u64(cfg.seed);
    (0..cfg.samples)
        .map(|_| {
            let site = profile.sites[rng.gen_range(0..profile.sites.len())];
            FaultSpec::new(site.dyn_index, rng.gen_below(u64::from(site.bits)) as u16)
        })
        .collect()
}

fn finish_stats(result: &mut CampaignResult, t0: Instant, threads: usize, engine: EngineKind) {
    result.stats.engine = engine;
    let wall = t0.elapsed();
    result.stats.wall_nanos = wall.as_nanos();
    result.stats.injections = result.total();
    result.stats.threads = threads;
    let secs = wall.as_secs_f64();
    result.stats.injections_per_sec = if secs > 0.0 {
        result.total() as f64 / secs
    } else {
        0.0
    };
}

// ---------------------------------------------------------------------------
// Executor core: plan → core → runner
// ---------------------------------------------------------------------------

/// One plan entry.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Planned {
    /// One faulted run; a double fault is recorded under its first.
    Run(FaultSpec, Option<FaultSpec>),
    /// A known outcome, booked without executing.
    Booked(FaultSpec, Outcome, Booking),
}

impl Planned {
    /// The recorded fault.
    pub(crate) fn fault(&self) -> FaultSpec {
        match *self {
            Planned::Run(f, _) | Planned::Booked(f, ..) => f,
        }
    }

    /// The earliest injection point: the run resumes from a snapshot
    /// at or before it, and detection latency is measured from it.
    fn first(&self) -> u64 {
        match *self {
            Planned::Run(a, Some(b)) => a.dyn_index.min(b.dyn_index),
            _ => self.fault().dyn_index,
        }
    }
}

/// An ordered fault plan with the flight-recorder executor label, the
/// trace span and the config its started event fingerprints.
pub(crate) struct Plan {
    pub(crate) executor: &'static str,
    pub(crate) span: &'static str,
    pub(crate) cfg: CampaignConfig,
    pub(crate) injections: Vec<Planned>,
}

impl Plan {
    /// The shared uniform sample ([`sample_faults`]), all executed.
    pub(crate) fn sampled(
        executor: &'static str,
        span: &'static str,
        profile: &Profile,
        cfg: CampaignConfig,
    ) -> Plan {
        let injections = sample_faults(profile, cfg)
            .into_iter()
            .map(|f| Planned::Run(f, None))
            .collect();
        Plan {
            executor,
            span,
            cfg,
            injections,
        }
    }
}

/// How each faulted run executes.  `Whole` and `Snapshot` run on a
/// number of work-stealing worker threads (clamped to the plan length).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Runner {
    /// Whole runs from the entry state, in plan order on the caller.
    Inline,
    /// Whole runs from the entry state.
    Whole(usize),
    /// Runs resumed from the nearest snapshot at-or-before their first
    /// injection point, on a golden prefix walked once.
    Snapshot(usize, SnapshotPolicy),
}

/// Sees a plan resolve in order; only [`Runner::Inline`] takes one.
pub(crate) trait Observer {
    /// Entries before `i` are resolved and none from `i` on has
    /// started; called at every boundary `0..=len`.
    fn boundary(&mut self, _i: usize) {}

    /// Entry `i` resolved to `outcome`, just before its flight probe.
    fn outcome(&mut self, _i: usize, _fault: FaultSpec, _outcome: Outcome) {}
}

/// The executor core: runs `plan` on `runner` and returns the result
/// with records in plan order.
pub(crate) fn execute(
    engine: Engine<'_>,
    profile: &Profile,
    plan: &Plan,
    runner: Runner,
    mut observer: Option<&mut dyn Observer>,
) -> CampaignResult {
    let _span = ferrum_trace::span(plan.span);
    let t0 = Instant::now();
    let mut result = CampaignResult::default();
    let n = plan.injections.len();
    flight::campaign_started(plan.executor, engine.kind(), plan.cfg, profile, n);
    let (threads, policy) = match runner {
        Runner::Inline => (1, None),
        Runner::Whole(t) => (t.max(1), None),
        Runner::Snapshot(t, policy) => (t.max(1), Some(policy)),
    };
    let threads = if n == 0 { threads } else { threads.min(n) };
    if n > 0 {
        let plan = &plan.injections[..];
        let mut order: Vec<usize> = (0..n).collect();
        let snapshots = policy.map(|policy| {
            // Injection-point order: consecutive work items share
            // snapshots, and the prefix walk runs once.
            order.sort_by_key(|&i| plan[i].first());
            golden_walk(engine, profile, policy, plan[order[n - 1]].first())
        });
        let ctx = &Ctx {
            engine,
            golden: &profile.result,
            plan,
            order: &order,
            snapshots: snapshots.as_deref(),
            next: AtomicUsize::new(0),
        };
        let workers: Vec<Worker> = if let Runner::Inline = runner {
            vec![ctx.work(0, observer.as_deref_mut())]
        } else {
            // Spawned even when single: a lone worker on the caller ran
            // fast or slow by which CPU it stayed on (ROADMAP item 2).
            assert!(observer.is_none(), "observers need the inline runner");
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|t| scope.spawn(move || ctx.work(t, None)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("campaign worker panicked"))
                    .collect()
            })
        };
        if let Some(obs) = observer {
            obs.boundary(n);
        }

        let mut outcomes: Vec<Option<Outcome>> = vec![None; n];
        let mut latencies = Vec::new();
        let stats = &mut result.stats;
        for w in workers {
            stats.per_worker.push(WorkerStats {
                injections: w.outcomes.len(),
                steps_executed: w.steps,
            });
            stats.steps_executed += w.steps;
            stats.snapshot_hits += w.hits;
            stats.steps_saved += w.saved;
            latencies.extend(w.latencies);
            for (i, o) in w.outcomes {
                outcomes[i] = Some(o);
            }
        }
        stats.snapshots_taken = snapshots.map_or(0, |s| s.len());
        stats.latency = DetectionLatency::from_samples(latencies);
        for (p, o) in plan.iter().zip(outcomes) {
            match p {
                Planned::Booked(.., Booking::Pruned) => result.stats.pruned_sites += 1,
                Planned::Booked(.., Booking::Reused) => result.stats.reused_sites += 1,
                _ => {}
            }
            result.record(p.fault(), o.expect("every fault processed"));
        }
    }
    finish_stats(&mut result, t0, threads, engine.kind());
    if n > 0 {
        let s = &result.stats;
        ferrum_trace::counter("campaign.injections", result.total() as u64);
        for (name, value) in [
            ("campaign.pruned", s.pruned_sites as u64),
            ("campaign.reused", s.reused_sites as u64),
            ("campaign.snapshot.hits", s.snapshot_hits as u64),
            ("campaign.snapshot.steps_saved", s.steps_saved),
        ] {
            if value > 0 {
                ferrum_trace::counter(name, value);
            }
        }
    }
    flight::campaign_finished(&result);
    result
}

/// Walks the golden run fault-free, snapshotting at the policy's
/// cadence; the state at boundary k serves any fault at dyn_index >= k.
/// The interpreter walks only to the last injection point; the decoded
/// engine walks the whole run, because its snapshots double as the
/// convergence checkpoints `run_converging` stitches the post-fault
/// suffix from.
fn golden_walk(
    engine: Engine<'_>,
    profile: &Profile,
    policy: SnapshotPolicy,
    last_injection: u64,
) -> Vec<Snapshot> {
    let horizon = match engine.kind() {
        EngineKind::Interpreter => last_injection,
        EngineKind::Decoded => profile.result.dyn_insts,
    };
    let interval = policy
        .min_interval
        .max(horizon / policy.max_snapshots.max(1) as u64)
        .max(1);
    let mut snapshots: Vec<Snapshot> = Vec::new();
    let mut m = engine.machine();
    while m.dyn_insts() < horizon {
        if m.dyn_insts() > 0
            && m.dyn_insts().is_multiple_of(interval)
            && snapshots.len() < policy.max_snapshots
        {
            let clock = StageClock::start();
            snapshots.push(m.snapshot());
            clock.stop(0, Stage::SnapshotCapture);
        }
        // Advance to the next snapshot boundary (or the horizon) in
        // one call — the decoded engine covers the span in its tight
        // dispatch loop instead of per-step calls.
        let next = if snapshots.len() < policy.max_snapshots {
            (m.dyn_insts() / interval + 1) * interval
        } else {
            horizon
        };
        let clock = StageClock::start();
        let stopped = m.advance_to(next.min(horizon)).is_some();
        clock.stop(0, Stage::GoldenRun);
        if stopped {
            // Golden run ended before the last injection index — the
            // remaining faults land past program end and classify as
            // whatever the resumed (fault-free) tail produces.
            break;
        }
    }
    snapshots
}

/// What the core's workers share: the plan, the order they take it
/// in, the golden-prefix snapshots, and the next index to steal.
struct Ctx<'a> {
    engine: Engine<'a>,
    golden: &'a RunResult,
    plan: &'a [Planned],
    order: &'a [usize],
    snapshots: Option<&'a [Snapshot]>,
    next: AtomicUsize,
}

/// One worker's share of the campaign: `(plan index, outcome)` in the
/// order it resolved them, plus its telemetry.
#[derive(Default)]
struct Worker {
    outcomes: Vec<(usize, Outcome)>,
    latencies: Vec<u64>,
    steps: u64,
    hits: usize,
    saved: u64,
}

impl Ctx<'_> {
    /// Steals plan entries from the shared counter until none is left.
    fn work(&self, t: usize, mut observer: Option<&mut (dyn Observer + '_)>) -> Worker {
        let mut w = Worker::default();
        // Snapshot runner: one machine per worker, restored in place
        // per fault — restore copies into the machine's existing
        // buffers, bounded by the snapshot's touched stack, so
        // per-injection state setup allocates nothing once the buffers
        // have grown.  `entry` is the program start, for faults before
        // the first snapshot.
        let mut resume = self.snapshots.map(|snapshots| {
            let m = self.engine.machine();
            let entry = m.snapshot();
            (snapshots, m, entry)
        });
        loop {
            let k = self.next.fetch_add(1, Ordering::Relaxed);
            let Some(&i) = self.order.get(k) else {
                return w;
            };
            let p = self.plan[i];
            if let Some(obs) = observer.as_deref_mut() {
                obs.boundary(i);
            }
            let (outcome, steps, booking) = match p {
                Planned::Booked(_, o, booking) => (o, 0, booking),
                Planned::Run(a, b) => {
                    let pair = [a, b.unwrap_or(a)];
                    let faults = &pair[..1 + usize::from(b.is_some())];
                    let run = match &mut resume {
                        Some((snapshots, m, entry)) => {
                            // The last snapshot at-or-before the first
                            // injection point.
                            let pos = snapshots.partition_point(|s| s.dyn_insts() <= p.first());
                            let start = match pos.checked_sub(1).map(|j| &snapshots[j]) {
                                Some(s) => {
                                    w.hits += 1;
                                    w.saved += s.dyn_insts();
                                    s
                                }
                                None => &*entry,
                            };
                            let clock = StageClock::start();
                            m.restore(start);
                            clock.stop(t, Stage::SnapshotRestore);
                            let clock = StageClock::start();
                            let run = m.run_converging(faults, snapshots, self.golden);
                            clock.stop(t, Stage::Replay);
                            w.steps += run.dyn_insts - start.dyn_insts();
                            run
                        }
                        None => {
                            let clock = StageClock::start();
                            let run = self.engine.run_multi(faults);
                            clock.stop(t, Stage::Injection);
                            w.steps += run.dyn_insts;
                            run
                        }
                    };
                    let o = classify(run.stop, &run.output, &self.golden.output);
                    // Restores keep the golden-prefix instruction count,
                    // so `run.dyn_insts` is the whole-run total on every
                    // runner and latency is runner-independent.
                    if o == Outcome::Detected {
                        w.latencies
                            .push(detection_latency(run.dyn_insts, p.first()));
                    }
                    (o, run.dyn_insts, Booking::Executed)
                }
            };
            if let Some(obs) = observer.as_deref_mut() {
                obs.outcome(i, p.fault(), outcome);
            }
            flight::injection(t, i, p.fault(), outcome, steps, booking);
            w.outcomes.push((i, outcome));
        }
    }
}

// ---------------------------------------------------------------------------
// Executors
// ---------------------------------------------------------------------------

/// Runs a sampled campaign serially on the reference interpreter — the
/// oracle every other executor and engine is checked against.
///
/// # Panics
///
/// Panics if the profile has no injectable sites (with `samples > 0`).
pub fn run_campaign(cpu: &Cpu, profile: &Profile, cfg: CampaignConfig) -> CampaignResult {
    run_campaign_on(Engine::Interpreter(cpu), profile, cfg)
}

/// As [`run_campaign`], on an explicit [`Engine`].  Outcome-identical
/// across engines per seed; only `stats` throughput differs.
///
/// # Panics
///
/// Panics if the profile has no injectable sites (with `samples > 0`).
pub fn run_campaign_on(
    engine: Engine<'_>,
    profile: &Profile,
    cfg: CampaignConfig,
) -> CampaignResult {
    let plan = Plan::sampled("serial", "campaign.serial", profile, cfg);
    execute(engine, profile, &plan, Runner::Inline, None)
}

/// As [`run_campaign_on`], but consults a static [`CoverageMap`]
/// first: a fault on a byte the analysis proved `Masked` or `Detected`
/// is booked as `Benign` / `Detected` without executing.  Counts and
/// records are identical to the serial executor for the same seed —
/// the map's sound verdicts *are* the outcomes the runs would produce
/// — and the skipped fraction is [`CampaignStats::pruned_sites`] /
/// [`CampaignStats::prune_rate`].  Skipped runs have no dynamic trace,
/// so `stats.latency` samples executed detections only.  The prune
/// multiplier stacks with the decoded engine's raw throughput.
///
/// # Panics
///
/// Panics if the profile has no injectable sites (with `samples > 0`).
pub fn run_campaign_pruned_on(
    engine: Engine<'_>,
    profile: &Profile,
    cfg: CampaignConfig,
    coverage: &CoverageMap,
) -> CampaignResult {
    let mut plan = Plan::sampled("pruned", "campaign.pruned", profile, cfg);
    for p in &mut plan.injections {
        let fault = p.fault();
        // Sites are recorded in dynamic order, so dyn_index is sorted.
        let verdict = profile
            .sites
            .binary_search_by_key(&fault.dyn_index, |s| s.dyn_index)
            .ok()
            .and_then(|i| coverage.verdict_at(profile.sites[i].pc, fault.raw_bit));
        let known = match verdict {
            Some(StaticVerdict::Masked) => Outcome::Benign,
            Some(StaticVerdict::Detected) => Outcome::Detected,
            _ => continue,
        };
        *p = Planned::Booked(fault, known, Booking::Pruned);
    }
    execute(engine, profile, &plan, Runner::Inline, None)
}

/// As [`run_campaign_on`], but fans the injections out over `threads`
/// workers that steal the next fault index from a shared atomic
/// counter.  Work stealing keeps every thread busy until the list is
/// drained — a handful of slow faults (e.g. timeout-bound runs) does
/// not serialise the tail the way fixed chunking would.  Produces
/// byte-identical results to the serial version: the fault list is
/// pre-sampled with the seeded RNG and outcomes are stitched back in
/// sampling order.
///
/// # Panics
///
/// Panics if the profile has no injectable sites (with `samples > 0`).
pub fn run_campaign_parallel_on(
    engine: Engine<'_>,
    profile: &Profile,
    cfg: CampaignConfig,
    threads: usize,
) -> CampaignResult {
    let plan = Plan::sampled("parallel", "campaign.parallel", profile, cfg);
    execute(engine, profile, &plan, Runner::Whole(threads), None)
}

/// Snapshot-placement policy for [`run_campaign_snapshot_on`].
#[derive(Debug, Clone, Copy)]
pub struct SnapshotPolicy {
    /// Upper bound on captured snapshots.  Each holds the registers,
    /// globals, touched stack, call stack and output at its point, so
    /// this bounds the memory the snapshots take.
    pub max_snapshots: usize,
    /// Snapshots are at least this many dynamic instructions apart.
    pub min_interval: u64,
}

impl Default for SnapshotPolicy {
    fn default() -> SnapshotPolicy {
        SnapshotPolicy {
            max_snapshots: 64,
            min_interval: 64,
        }
    }
}

/// The snapshot-accelerated campaign engine.
///
/// Executes the golden prefix **once**, capturing periodic snapshots up
/// to the last injection index, then replays each pre-sampled fault
/// from the nearest snapshot at-or-before its injection point.  Faults
/// are processed in injection-index order by work-stealing workers.
/// Snapshots taken by either engine's machine resume on the other, so
/// the prefix-sharing and decoded speedups compose.  Outcome counts
/// and records are byte-identical to [`run_campaign`] with the same
/// seed; only [`CampaignResult::stats`] differs.
///
/// # Panics
///
/// Panics if the profile has no injectable sites (with `samples > 0`).
pub fn run_campaign_snapshot_on(
    engine: Engine<'_>,
    profile: &Profile,
    cfg: CampaignConfig,
    threads: usize,
    policy: SnapshotPolicy,
) -> CampaignResult {
    let plan = Plan::sampled("snapshot", "campaign.snapshot", profile, cfg);
    execute(
        engine,
        profile,
        &plan,
        Runner::Snapshot(threads, policy),
        None,
    )
}

/// Runs a **double-fault** campaign: two independent single-bit faults
/// per execution, at two distinct sampled sites.  Single-fault coverage
/// guarantees do not carry over — duplication-based detection can in
/// principle be defeated when both a value and its shadow are corrupted
/// consistently — which is exactly why the paper defers multi-bit
/// faults to future work (§II-A).  `records` stores the first fault of
/// each pair; detection latency is measured from the earlier fault.
///
/// # Panics
///
/// Panics if the profile has no injectable sites (with `samples > 0`).
pub fn run_double_campaign_on(
    engine: Engine<'_>,
    profile: &Profile,
    cfg: CampaignConfig,
) -> CampaignResult {
    assert!(
        cfg.samples == 0 || !profile.sites.is_empty(),
        "no injectable sites"
    );
    let mut rng = Rng64::seed_from_u64(cfg.seed);
    let injections = (0..cfg.samples)
        .map(|_| {
            let a = profile.sites[rng.gen_range(0..profile.sites.len())];
            let b = profile.sites[rng.gen_range(0..profile.sites.len())];
            let fa = FaultSpec::new(a.dyn_index, rng.gen_below(u64::from(a.bits)) as u16);
            let fb = FaultSpec::new(b.dyn_index, rng.gen_below(u64::from(b.bits)) as u16);
            Planned::Run(fa, Some(fb))
        })
        .collect();
    let plan = Plan {
        executor: "double",
        span: "campaign.double",
        cfg,
        injections,
    };
    execute(engine, profile, &plan, Runner::Inline, None)
}

/// Multiplier for the exhaustive sweep's bit stride.  Odd, hence
/// coprime with 256: `k ↦ k·97 mod 256` is a permutation of `0..256`,
/// and consecutive `k` land ~97 bit positions apart, spreading a small
/// `bits_per_site` across the whole 256-bit range.  (The previous
/// multiplier, 257, is ≡ 1 mod 256 — the identity permutation — so
/// "evenly spread" silently degraded to "the lowest k bits".)
const BIT_STRIDE: u32 = 97;

/// Injects into *every* site with `bits_per_site` evenly spread bit
/// positions — the exhaustive sweep used to prove coverage claims on
/// small kernels.
pub fn exhaustive_campaign_on(
    engine: Engine<'_>,
    profile: &Profile,
    bits_per_site: u16,
) -> CampaignResult {
    // Raw bits spread across each site's own width: every eligible
    // width is a power of two and 97 is odd, so `k·97 mod w` permutes
    // `0..w` per site (reducing `k·97 mod 256` later would not).
    let injections: Vec<Planned> = profile
        .sites
        .iter()
        .flat_map(|site| {
            (0..bits_per_site).map(move |k| {
                let raw = (u32::from(k) * BIT_STRIDE % site.bits.max(1)) as u16;
                Planned::Run(FaultSpec::new(site.dyn_index, raw), None)
            })
        })
        .collect();
    let plan = Plan {
        executor: "exhaustive",
        span: "campaign.exhaustive",
        cfg: CampaignConfig {
            samples: injections.len(),
            seed: 0,
        },
        injections,
    };
    execute(engine, profile, &plan, Runner::Inline, None)
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn sum_cpu() -> Cpu {
        let asm = ferrum_backend::compile(&sum_module()).unwrap();
        Cpu::load(&asm).unwrap()
    }

    fn protected_sum_cpu() -> Cpu {
        let asm = ferrum_eddi::ferrum::Ferrum::new()
            .protect_module(&sum_module())
            .unwrap();
        Cpu::load(&asm).unwrap()
    }

    #[test]
    fn classification_rules() {
        use ferrum_cpu::outcome::CrashKind;
        assert_eq!(classify(StopReason::Detected, &[], &[]), Outcome::Detected);
        assert_eq!(
            classify(StopReason::Crash(CrashKind::DivideError), &[], &[]),
            Outcome::Crash
        );
        assert_eq!(classify(StopReason::Timeout, &[], &[]), Outcome::Timeout);
        assert_eq!(
            classify(StopReason::MainReturned, &[1], &[1]),
            Outcome::Benign
        );
        assert_eq!(classify(StopReason::MainReturned, &[2], &[1]), Outcome::Sdc);
        assert_eq!(classify(StopReason::MainReturned, &[], &[1]), Outcome::Sdc);
    }

    #[test]
    fn unprotected_program_shows_sdcs() {
        let cpu = sum_cpu();
        let profile = cpu.profile();
        let res = run_campaign(
            &cpu,
            &profile,
            CampaignConfig {
                samples: 300,
                seed: 7,
            },
        );
        assert_eq!(res.total(), 300);
        assert!(
            res.sdc > 0,
            "unprotected program must exhibit SDCs: {res:?}"
        );
        assert_eq!(
            res.detected, 0,
            "nothing can detect in an unprotected program"
        );
    }

    #[test]
    fn campaigns_are_reproducible() {
        let cpu = sum_cpu();
        let profile = cpu.profile();
        let cfg = CampaignConfig {
            samples: 100,
            seed: 42,
        };
        let a = run_campaign(&cpu, &profile, cfg);
        let b = run_campaign(&cpu, &profile, cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let cpu = sum_cpu();
        let profile = cpu.profile();
        let a = run_campaign(
            &cpu,
            &profile,
            CampaignConfig {
                samples: 100,
                seed: 1,
            },
        );
        let b = run_campaign(
            &cpu,
            &profile,
            CampaignConfig {
                samples: 100,
                seed: 2,
            },
        );
        assert_ne!(a.records, b.records);
    }

    #[test]
    fn pruned_campaign_is_outcome_identical_and_prunes() {
        let asm = ferrum_eddi::ferrum::Ferrum::new()
            .protect_module(&sum_module())
            .unwrap();
        let coverage = CoverageMap::analyze(&asm);
        let cpu = Cpu::load(&asm).unwrap();
        let profile = cpu.profile();
        let cfg = CampaignConfig {
            samples: 300,
            seed: 11,
        };
        let serial = run_campaign(&cpu, &profile, cfg);
        let pruned = run_campaign_pruned_on(Engine::Interpreter(&cpu), &profile, cfg, &coverage);
        assert_eq!(serial, pruned, "pruned engine must be outcome-identical");
        assert!(
            pruned.stats.pruned_sites > 0,
            "a FERRUM-protected program must have statically-decided sites"
        );
        assert!(
            (pruned.stats.prune_rate() - pruned.stats.pruned_sites as f64 / 300.0).abs() < 1e-12
        );
        assert!(
            pruned.stats.steps_executed < serial.stats.steps_executed,
            "skipped faults must not execute"
        );
    }

    #[test]
    fn pruned_campaign_with_empty_map_matches_serial() {
        // An empty coverage map decides nothing: the pruned engine
        // degenerates to the serial one, including its step counts.
        let cpu = sum_cpu();
        let profile = cpu.profile();
        let cfg = CampaignConfig {
            samples: 120,
            seed: 5,
        };
        let serial = run_campaign(&cpu, &profile, cfg);
        let empty = CoverageMap::default();
        let pruned = run_campaign_pruned_on(Engine::Interpreter(&cpu), &profile, cfg, &empty);
        assert_eq!(serial, pruned);
        assert_eq!(pruned.stats.pruned_sites, 0);
        assert_eq!(pruned.stats.prune_rate(), 0.0);
        assert_eq!(pruned.stats.steps_executed, serial.stats.steps_executed);
        assert_eq!(pruned.stats.latency, serial.stats.latency);
    }

    #[test]
    fn exhaustive_covers_every_site() {
        let cpu = sum_cpu();
        let profile = cpu.profile();
        let res = exhaustive_campaign_on(Engine::Interpreter(&cpu), &profile, 3);
        assert_eq!(res.total(), profile.sites.len() * 3);
    }

    #[test]
    fn exhaustive_bit_stride_spreads_positions() {
        // The first n raw values must be distinct and genuinely spread
        // over 0..256, not the lowest n bit positions.
        let raws: Vec<u16> = (0..8u16).map(|k| (u32::from(k) * BIT_STRIDE % 256) as u16).collect();
        let mut sorted = raws.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 8, "positions must be distinct: {raws:?}");
        // Even spread: consecutive sorted positions (cyclically) are at
        // least 16 apart for n = 8 over a 256-bit range.
        for w in sorted.windows(2) {
            assert!(w[1] - w[0] >= 16, "clustered positions: {sorted:?}");
        }
        assert!(256 - sorted.last().unwrap() + sorted.first().unwrap() >= 16);
        // And the full 256-value cycle is a permutation of 0..256.
        let mut all: Vec<u16> = (0..256u16)
            .map(|k| (u32::from(k) * BIT_STRIDE % 256) as u16)
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 256);
    }

    #[test]
    fn parallel_campaign_matches_serial_exactly() {
        let cpu = sum_cpu();
        let profile = cpu.profile();
        let cfg = CampaignConfig {
            samples: 240,
            seed: 77,
        };
        let serial = run_campaign(&cpu, &profile, cfg);
        for threads in [1, 3, 8] {
            let par = run_campaign_parallel_on(Engine::Interpreter(&cpu), &profile, cfg, threads);
            assert_eq!(par, serial, "{threads} threads");
        }
    }

    #[test]
    fn snapshot_campaign_matches_serial_exactly() {
        let cpu = sum_cpu();
        let profile = cpu.profile();
        let interp = Engine::Interpreter(&cpu);
        let cfg = CampaignConfig {
            samples: 240,
            seed: 77,
        };
        let serial = run_campaign(&cpu, &profile, cfg);
        for threads in [1, 4] {
            for policy in [
                SnapshotPolicy::default(),
                SnapshotPolicy {
                    max_snapshots: 200,
                    min_interval: 1,
                },
                SnapshotPolicy {
                    max_snapshots: 0,
                    min_interval: 1,
                },
            ] {
                let snap = run_campaign_snapshot_on(interp, &profile, cfg, threads, policy);
                assert_eq!(snap, serial, "{threads} threads, {policy:?}");
            }
        }
    }

    #[test]
    fn snapshot_campaign_reports_savings() {
        let cpu = sum_cpu();
        let profile = cpu.profile();
        let cfg = CampaignConfig {
            samples: 200,
            seed: 9,
        };
        let policy = SnapshotPolicy {
            max_snapshots: 1000,
            min_interval: 1,
        };
        let res = run_campaign_snapshot_on(Engine::Interpreter(&cpu), &profile, cfg, 2, policy);
        assert!(res.stats.snapshots_taken > 0);
        assert!(res.stats.snapshot_hits > 0);
        assert!(res.stats.steps_saved > 0, "{:?}", res.stats);
        assert!(res.stats.steps_saved_ratio() > 0.0);
        // The reference executor re-executes everything.
        let serial = run_campaign(&cpu, &profile, cfg);
        assert!(serial.stats.steps_executed > res.stats.steps_executed);
    }

    #[test]
    fn zero_sample_campaigns_are_empty_not_panicking() {
        let cpu = sum_cpu();
        let profile = cpu.profile();
        let interp = Engine::Interpreter(&cpu);
        let cfg = CampaignConfig {
            samples: 0,
            seed: 1,
        };
        for res in [
            run_campaign(&cpu, &profile, cfg),
            run_campaign_parallel_on(interp, &profile, cfg, 8),
            run_campaign_snapshot_on(interp, &profile, cfg, 8, SnapshotPolicy::default()),
            run_double_campaign_on(interp, &profile, cfg),
        ] {
            assert_eq!(res.total(), 0);
            assert!(res.records.is_empty());
            assert_eq!(res.sdc_prob(), 0.0);
        }
    }

    #[test]
    fn double_fault_campaign_runs_and_counts() {
        let cpu = sum_cpu();
        let profile = cpu.profile();
        let interp = Engine::Interpreter(&cpu);
        let cfg = CampaignConfig {
            samples: 150,
            seed: 21,
        };
        let res = run_double_campaign_on(interp, &profile, cfg);
        assert_eq!(res.total(), 150);
        assert!(res.sdc > 0, "two faults in an unprotected program: {res:?}");
        let res2 = run_double_campaign_on(interp, &profile, cfg);
        assert_eq!(res, res2, "reproducible");
    }

    #[test]
    fn outcome_counts_sum_to_total() {
        let cpu = sum_cpu();
        let profile = cpu.profile();
        let res = run_campaign(
            &cpu,
            &profile,
            CampaignConfig {
                samples: 250,
                seed: 3,
            },
        );
        assert_eq!(
            res.sdc + res.detected + res.crash + res.timeout + res.benign,
            res.records.len()
        );
        assert!((res.sdc_prob() - res.sdc as f64 / 250.0).abs() < 1e-12);
    }

    #[test]
    fn latency_percentiles_are_nearest_rank() {
        let lat = DetectionLatency::from_samples(vec![5, 1, 3, 2, 4]);
        assert_eq!(lat.count(), 5);
        assert_eq!(lat.samples(), &[1, 2, 3, 4, 5]);
        assert_eq!(lat.p50(), Some(3));
        assert_eq!(lat.p95(), Some(5));
        assert_eq!(lat.max(), Some(5));
        assert_eq!(lat.percentile(0.0), Some(1));
        assert_eq!(lat.percentile(100.0), Some(5));
        let empty = DetectionLatency::default();
        assert_eq!(empty.p50(), None);
        assert_eq!(empty.max(), None);
        assert!(empty.histogram_log2().is_empty());
    }

    #[test]
    fn latency_percentile_edge_cases() {
        // Nearest-rank on degenerate distributions: empty (no
        // detections), a single sample, and all-equal samples.
        let empty = DetectionLatency::from_samples(vec![]);
        assert_eq!(empty.count(), 0);
        for p in [0.0, 50.0, 95.0, 100.0] {
            assert_eq!(empty.percentile(p), None);
        }
        assert_eq!(empty.p50(), None);
        assert_eq!(empty.p95(), None);
        assert_eq!(empty.max(), None);

        let single = DetectionLatency::from_samples(vec![42]);
        assert_eq!(single.count(), 1);
        for p in [0.0, 1.0, 50.0, 95.0, 100.0] {
            assert_eq!(single.percentile(p), Some(42), "p={p}");
        }
        assert_eq!((single.p50(), single.p95(), single.max()), (Some(42), Some(42), Some(42)));
        assert_eq!(single.histogram_log2().iter().map(|&(_, _, c)| c).sum::<u64>(), 1);

        let equal = DetectionLatency::from_samples(vec![7; 9]);
        assert_eq!(equal.count(), 9);
        for p in [0.0, 50.0, 95.0, 100.0] {
            assert_eq!(equal.percentile(p), Some(7), "p={p}");
        }
        assert_eq!(equal.max(), Some(7));
        // All nine samples land in the [4,7] bucket.
        assert_eq!(equal.histogram_log2().last(), Some(&(4, 7, 9)));
    }

    #[test]
    fn latency_histogram_buckets_are_log2() {
        let lat = DetectionLatency::from_samples(vec![0, 1, 2, 3, 4, 9]);
        let h = lat.histogram_log2();
        // [0,0]=1, [1,1]=1, [2,3]=2, [4,7]=1, [8,15]=1
        assert_eq!(
            h,
            vec![(0, 0, 1), (1, 1, 1), (2, 3, 2), (4, 7, 1), (8, 15, 1)]
        );
        // Contiguous axis even with an empty bucket.
        let sparse = DetectionLatency::from_samples(vec![1, 8]);
        assert_eq!(
            sparse.histogram_log2(),
            vec![(0, 0, 0), (1, 1, 1), (2, 3, 0), (4, 7, 0), (8, 15, 1)]
        );
    }

    #[test]
    fn detection_latency_distance_is_saturating() {
        assert_eq!(detection_latency(10, 4), 5);
        assert_eq!(detection_latency(10, 9), 0);
        assert_eq!(detection_latency(10, 20), 0);
        assert_eq!(detection_latency(0, 0), 0);
    }

    #[test]
    fn detection_latencies_match_across_engines() {
        let cpu = protected_sum_cpu();
        let profile = cpu.profile();
        let interp = Engine::Interpreter(&cpu);
        let cfg = CampaignConfig {
            samples: 240,
            seed: 77,
        };
        let serial = run_campaign(&cpu, &profile, cfg);
        assert!(
            serial.detected > 0,
            "protected program must detect: {serial:?}"
        );
        assert_eq!(serial.stats.latency.count(), serial.detected);
        let (p50, p95, max) = (
            serial.stats.latency.p50().unwrap(),
            serial.stats.latency.p95().unwrap(),
            serial.stats.latency.max().unwrap(),
        );
        assert!(p50 <= p95 && p95 <= max, "p50={p50} p95={p95} max={max}");
        let total: u64 = serial
            .stats
            .latency
            .histogram_log2()
            .iter()
            .map(|&(_, _, c)| c)
            .sum();
        assert_eq!(total as usize, serial.detected);

        let par = run_campaign_parallel_on(interp, &profile, cfg, 4);
        assert_eq!(par.stats.latency, serial.stats.latency);
        let snap = run_campaign_snapshot_on(
            interp,
            &profile,
            cfg,
            4,
            SnapshotPolicy {
                max_snapshots: 200,
                min_interval: 1,
            },
        );
        assert_eq!(snap.stats.latency, serial.stats.latency);
    }

    #[test]
    fn per_worker_stats_cover_all_work() {
        let cpu = sum_cpu();
        let profile = cpu.profile();
        let interp = Engine::Interpreter(&cpu);
        let cfg = CampaignConfig {
            samples: 120,
            seed: 5,
        };
        let serial = run_campaign(&cpu, &profile, cfg);
        assert_eq!(serial.stats.per_worker.len(), 1);
        assert!((serial.stats.worker_balance() - 1.0).abs() < 1e-12);
        for res in [
            run_campaign_parallel_on(interp, &profile, cfg, 4),
            run_campaign_snapshot_on(interp, &profile, cfg, 4, SnapshotPolicy::default()),
        ] {
            assert!(!res.stats.per_worker.is_empty());
            assert!(res.stats.per_worker.len() <= 4);
            let inj: usize = res.stats.per_worker.iter().map(|w| w.injections).sum();
            assert_eq!(inj, res.total());
            let steps: u64 = res.stats.per_worker.iter().map(|w| w.steps_executed).sum();
            assert_eq!(steps, res.stats.steps_executed);
            let bal = res.stats.worker_balance();
            assert!((0.0..=1.0).contains(&bal), "balance {bal}");
        }
        assert_eq!(CampaignStats::default().worker_balance(), 0.0);
    }

    #[test]
    fn sampled_raw_bits_stay_within_site_width() {
        // Regression (fault-bit uniformity fix): the sampler must draw
        // the bit position from the site's own eligible width, never
        // from the full u16 range.  Pre-fix code used `gen_u16()`, so
        // with hundreds of samples some raw_bit always landed >= bits.
        let cpu = protected_sum_cpu();
        let profile = cpu.profile();
        let cfg = CampaignConfig {
            samples: 500,
            seed: 31,
        };
        for fault in sample_faults(&profile, cfg) {
            let i = profile
                .sites
                .binary_search_by_key(&fault.dyn_index, |s| s.dyn_index)
                .expect("sampled faults land on profiled sites");
            let bits = profile.sites[i].bits;
            assert!(
                u32::from(fault.raw_bit) < bits,
                "raw_bit {} out of range for a {bits}-bit destination",
                fault.raw_bit
            );
        }
    }

    #[test]
    fn sampled_bits_are_uniform_within_width() {
        // Chi-square uniformity over the 64-bit GPR sites: bucket the
        // sampled bit positions into 8 byte-lanes and require the
        // statistic to stay below the p=0.001 critical value for 7
        // degrees of freedom (24.32).  The pre-fix sampler fails the
        // companion range test above; this one pins that the *new*
        // draw is genuinely uniform, not merely in range.
        let cpu = sum_cpu();
        let profile = cpu.profile();
        let cfg = CampaignConfig {
            samples: 4000,
            seed: 1234,
        };
        let mut buckets = [0u64; 8];
        let mut n = 0u64;
        for fault in sample_faults(&profile, cfg) {
            let i = profile
                .sites
                .binary_search_by_key(&fault.dyn_index, |s| s.dyn_index)
                .unwrap();
            if profile.sites[i].bits == 64 {
                buckets[usize::from(fault.raw_bit) / 8] += 1;
                n += 1;
            }
        }
        assert!(n > 1000, "not enough 64-bit samples: {n}");
        let expected = n as f64 / 8.0;
        let chi2: f64 = buckets
            .iter()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum();
        assert!(chi2 < 24.32, "non-uniform bit sampling: chi2={chi2} {buckets:?}");
    }

    #[test]
    fn timeout_budget_is_engine_independent() {
        // Step-budget audit (resume accounting): a snapshot carries its
        // dyn_insts, so a resumed faulted run gets only the *remaining*
        // budget — the snapshot and decoded engines must classify
        // exactly the same faults as Timeout as the serial engine,
        // which never resumes.  A tight limit makes any double-counting
        // of the prefix allowance visible immediately.
        let cpu = sum_cpu().with_step_limit(12);
        let profile = cpu.profile();
        assert!(
            !profile.sites.is_empty(),
            "tight-limit profile still has sites"
        );
        let cfg = CampaignConfig {
            samples: 150,
            seed: 8,
        };
        let serial = run_campaign(&cpu, &profile, cfg);
        let policy = SnapshotPolicy {
            max_snapshots: 64,
            min_interval: 1,
        };
        let snap = run_campaign_snapshot_on(Engine::Interpreter(&cpu), &profile, cfg, 2, policy);
        assert_eq!(snap, serial);
        let dc = ferrum_cpu::decoded::DecodedCpu::new(&cpu);
        let dec = run_campaign_snapshot_on(Engine::Decoded(&dc), &profile, cfg, 2, policy);
        assert_eq!(dec, serial);
    }

    #[test]
    fn decoded_engine_matches_interpreter_for_every_executor() {
        let cpu = protected_sum_cpu();
        let dc = ferrum_cpu::decoded::DecodedCpu::new(&cpu);
        let profile = cpu.profile();
        let interp = Engine::Interpreter(&cpu);
        let dprofile = Engine::Decoded(&dc).profile();
        assert_eq!(profile.sites, dprofile.sites);
        assert_eq!(profile.result, dprofile.result);
        let cfg = CampaignConfig {
            samples: 200,
            seed: 77,
        };
        let e = Engine::Decoded(&dc);
        assert_eq!(run_campaign_on(e, &profile, cfg), run_campaign(&cpu, &profile, cfg));
        assert_eq!(
            run_campaign_parallel_on(e, &profile, cfg, 3),
            run_campaign_parallel_on(interp, &profile, cfg, 3)
        );
        assert_eq!(
            run_campaign_snapshot_on(e, &profile, cfg, 3, SnapshotPolicy::default()),
            run_campaign_snapshot_on(interp, &profile, cfg, 3, SnapshotPolicy::default())
        );
        assert_eq!(
            run_double_campaign_on(e, &profile, cfg),
            run_double_campaign_on(interp, &profile, cfg)
        );
        assert_eq!(
            exhaustive_campaign_on(e, &profile, 2),
            exhaustive_campaign_on(interp, &profile, 2)
        );
        // Latency distributions (not just outcome counts) agree.
        assert_eq!(
            run_campaign_on(e, &profile, cfg).stats.latency,
            run_campaign(&cpu, &profile, cfg).stats.latency
        );
    }

    #[test]
    fn pruned_campaign_runs_on_decoded_engine() {
        let asm = ferrum_eddi::ferrum::Ferrum::new()
            .protect_module(&sum_module())
            .unwrap();
        let coverage = CoverageMap::analyze(&asm);
        let cpu = Cpu::load(&asm).unwrap();
        let dc = ferrum_cpu::decoded::DecodedCpu::new(&cpu);
        let profile = cpu.profile();
        let cfg = CampaignConfig {
            samples: 200,
            seed: 11,
        };
        let serial = run_campaign(&cpu, &profile, cfg);
        let pruned = run_campaign_pruned_on(Engine::Decoded(&dc), &profile, cfg, &coverage);
        assert_eq!(pruned, serial);
        assert!(pruned.stats.pruned_sites > 0, "prune multiplier stacks");
    }

    #[test]
    fn stats_record_throughput() {
        let cpu = sum_cpu();
        let profile = cpu.profile();
        let cfg = CampaignConfig {
            samples: 50,
            seed: 4,
        };
        let res = run_campaign_parallel_on(Engine::Interpreter(&cpu), &profile, cfg, 4);
        assert!(res.stats.wall_nanos > 0);
        assert!(res.stats.injections_per_sec > 0.0);
        assert!(res.stats.threads >= 1 && res.stats.threads <= 4);
        assert!(res.stats.steps_executed > 0);
    }
}
