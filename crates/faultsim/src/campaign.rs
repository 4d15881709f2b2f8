//! Sampled and exhaustive fault-injection campaigns.
//!
//! Three executors share one sampling scheme and produce identical
//! outcome counts and records for identical seeds:
//!
//! * [`run_campaign`] — the reference serial executor;
//! * [`run_campaign_parallel`] — fans injections out over worker
//!   threads that steal faults from a shared atomic counter (no fixed
//!   chunking, so stragglers cannot idle whole threads);
//! * [`run_campaign_snapshot`] — the snapshot-accelerated engine: the
//!   fault list is pre-sampled and sorted by injection index, the
//!   golden prefix is executed once with periodic
//!   [`ferrum_cpu::snapshot::Snapshot`]s, and every faulted run starts
//!   from the nearest snapshot at-or-before its injection point
//!   instead of from instruction 0;
//! * [`run_campaign_pruned`] — the serial executor armed with a static
//!   [`CoverageMap`]: faults whose outcome the coverage analysis
//!   proved (`Masked` → benign, `Detected` → detected) are booked
//!   without executing at all.
//!
//! Every executor fills [`CampaignResult::stats`] with campaign
//! telemetry: throughput (wall time, injections/sec), snapshot
//! hit-rate and steps saved, per-worker load ([`WorkerStats`]), and the
//! detection-latency distribution ([`DetectionLatency`] — the
//! dynamic-instruction distance from each injection to the checker
//! that caught it).  `stats` is deliberately excluded from
//! `PartialEq`: two campaigns are *equal* when their sampled faults
//! and classified outcomes agree, however long they took.  When the
//! `trace` feature is on, executors additionally emit `ferrum-trace`
//! spans and counters; tracing is observational only and can never
//! change outcomes.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use ferrum_rng::Rng64;

use ferrum_asm::analysis::coverage::{CoverageMap, StaticVerdict};
use ferrum_cpu::fault::FaultSpec;
use ferrum_cpu::outcome::StopReason;
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
    /// being executed (see [`run_campaign_pruned`]).
    pub pruned_sites: usize,
    /// Faults replayed from an incremental-campaign cache instead of
    /// being executed (see [`crate::compose::run_campaign_incremental`]).
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
        if max == 0 {
            0.0
        } else {
            min as f64 / max as f64
        }
    }

    /// Fraction of faulted runs that resumed from a snapshot.
    pub fn snapshot_hit_rate(&self) -> f64 {
        if self.injections == 0 {
            0.0
        } else {
            self.snapshot_hits as f64 / self.injections as f64
        }
    }

    /// Fraction of total work (executed + saved) that snapshots avoided.
    pub fn steps_saved_ratio(&self) -> f64 {
        let total = self.steps_saved + self.steps_executed;
        if total == 0 {
            0.0
        } else {
            self.steps_saved as f64 / total as f64
        }
    }

    /// Fraction of injections decided statically (skipped) by the
    /// pruned engine.
    pub fn prune_rate(&self) -> f64 {
        if self.injections == 0 {
            0.0
        } else {
            self.pruned_sites as f64 / self.injections as f64
        }
    }

    /// Fraction of injections replayed from an incremental-campaign
    /// cache instead of executed.
    pub fn reuse_rate(&self) -> f64 {
        if self.injections == 0 {
            0.0
        } else {
            self.reused_sites as f64 / self.injections as f64
        }
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
        if self.total() == 0 {
            0.0
        } else {
            self.sdc as f64 / self.total() as f64
        }
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
/// executor uses this one function, so the sampled list — and therefore
/// the record stream — is identical across serial, work-stealing,
/// snapshot-accelerated, and decoded runs of the same seed.
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
pub(crate) fn sample_faults(profile: &Profile, cfg: CampaignConfig) -> Vec<FaultSpec> {
    let mut rng = Rng64::seed_from_u64(cfg.seed);
    (0..cfg.samples)
        .map(|_| {
            let site = profile.sites[rng.gen_range(0..profile.sites.len())];
            FaultSpec::new(site.dyn_index, rng.gen_below(u64::from(site.bits)) as u16)
        })
        .collect()
}

pub(crate) fn finish_stats(
    result: &mut CampaignResult,
    t0: Instant,
    threads: usize,
    engine: EngineKind,
) {
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

/// Runs a sampled campaign serially — the reference executor.
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
pub fn run_campaign_on(engine: Engine<'_>, profile: &Profile, cfg: CampaignConfig) -> CampaignResult {
    let _span = ferrum_trace::span("campaign.serial");
    let t0 = Instant::now();
    let mut result = CampaignResult::default();
    flight::campaign_started("serial", engine.kind(), cfg, profile, cfg.samples);
    if cfg.samples == 0 {
        finish_stats(&mut result, t0, 1, engine.kind());
        flight::campaign_finished(&result);
        return result;
    }
    assert!(!profile.sites.is_empty(), "no injectable sites");
    let golden = &profile.result.output;
    let mut latencies = Vec::new();
    for (i, fault) in sample_faults(profile, cfg).into_iter().enumerate() {
        let clock = StageClock::start();
        let run = engine.run(Some(fault));
        clock.stop(0, Stage::Injection);
        result.stats.steps_executed += run.dyn_insts;
        let o = classify(run.stop, &run.output, golden);
        if o == Outcome::Detected {
            latencies.push(detection_latency(run.dyn_insts, fault.dyn_index));
        }
        flight::injection(0, i, fault, o, run.dyn_insts, Booking::Executed);
        result.record(fault, o);
    }
    result.stats.per_worker = vec![WorkerStats {
        injections: result.total(),
        steps_executed: result.stats.steps_executed,
    }];
    result.stats.latency = DetectionLatency::from_samples(latencies);
    finish_stats(&mut result, t0, 1, engine.kind());
    ferrum_trace::counter("campaign.injections", result.total() as u64);
    flight::campaign_finished(&result);
    result
}

/// As [`run_campaign`], but consults a static [`CoverageMap`] first:
/// a fault landing on a byte the analysis proved `Masked` or
/// `Detected` is booked with its known outcome (`Benign` /
/// `Detected`) without executing the faulted run.  Totals, outcome
/// tallies, and `sdc_prob` are identical to the serial engine for the
/// same seed — the map's sound verdicts *are* the outcomes the run
/// would have produced — while the skipped fraction is reported in
/// [`CampaignStats::pruned_sites`] / [`CampaignStats::prune_rate`].
/// Detection-latency samples are only collected for executed faults
/// (a skipped run has no dynamic trace), so `stats.latency` may hold
/// fewer samples than the serial engine's; `stats` is excluded from
/// result equality for exactly this kind of reason.
///
/// # Panics
///
/// Panics if the profile has no injectable sites (with `samples > 0`).
pub fn run_campaign_pruned(
    cpu: &Cpu,
    profile: &Profile,
    cfg: CampaignConfig,
    coverage: &CoverageMap,
) -> CampaignResult {
    run_campaign_pruned_on(Engine::Interpreter(cpu), profile, cfg, coverage)
}

/// As [`run_campaign_pruned`], on an explicit [`Engine`] — the prune
/// multiplier and the decoded engine's raw throughput stack.
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
    let _span = ferrum_trace::span("campaign.pruned");
    let t0 = Instant::now();
    let mut result = CampaignResult::default();
    flight::campaign_started("pruned", engine.kind(), cfg, profile, cfg.samples);
    if cfg.samples == 0 {
        finish_stats(&mut result, t0, 1, engine.kind());
        flight::campaign_finished(&result);
        return result;
    }
    assert!(!profile.sites.is_empty(), "no injectable sites");
    let golden = &profile.result.output;
    let mut latencies = Vec::new();
    for (i, fault) in sample_faults(profile, cfg).into_iter().enumerate() {
        // Sites are recorded in dynamic order, so dyn_index is sorted.
        let verdict = profile
            .sites
            .binary_search_by_key(&fault.dyn_index, |s| s.dyn_index)
            .ok()
            .and_then(|i| coverage.verdict_at(profile.sites[i].pc, fault.raw_bit));
        match verdict {
            Some(StaticVerdict::Masked) => {
                result.stats.pruned_sites += 1;
                flight::injection(0, i, fault, Outcome::Benign, 0, Booking::Pruned);
                result.record(fault, Outcome::Benign);
            }
            Some(StaticVerdict::Detected) => {
                result.stats.pruned_sites += 1;
                flight::injection(0, i, fault, Outcome::Detected, 0, Booking::Pruned);
                result.record(fault, Outcome::Detected);
            }
            _ => {
                let clock = StageClock::start();
                let run = engine.run(Some(fault));
                clock.stop(0, Stage::Injection);
                result.stats.steps_executed += run.dyn_insts;
                let o = classify(run.stop, &run.output, golden);
                if o == Outcome::Detected {
                    latencies.push(detection_latency(run.dyn_insts, fault.dyn_index));
                }
                flight::injection(0, i, fault, o, run.dyn_insts, Booking::Executed);
                result.record(fault, o);
            }
        }
    }
    result.stats.per_worker = vec![WorkerStats {
        injections: result.total(),
        steps_executed: result.stats.steps_executed,
    }];
    result.stats.latency = DetectionLatency::from_samples(latencies);
    finish_stats(&mut result, t0, 1, engine.kind());
    ferrum_trace::counter("campaign.injections", result.total() as u64);
    ferrum_trace::counter("campaign.pruned", result.stats.pruned_sites as u64);
    flight::campaign_finished(&result);
    result
}

/// As [`run_campaign`], but fans the injections out over `threads`
/// workers that steal the next fault index from a shared atomic
/// counter.  Work stealing keeps every thread busy until the list is
/// drained — a handful of slow faults (e.g. timeout-bound runs) no
/// longer serialises the tail the way fixed chunking did.  Produces
/// byte-identical results to the serial version: the fault list is
/// pre-sampled with the seeded RNG and outcomes are stitched back in
/// sampling order.
pub fn run_campaign_parallel(
    cpu: &Cpu,
    profile: &Profile,
    cfg: CampaignConfig,
    threads: usize,
) -> CampaignResult {
    run_campaign_parallel_on(Engine::Interpreter(cpu), profile, cfg, threads)
}

/// As [`run_campaign_parallel`], on an explicit [`Engine`].
pub fn run_campaign_parallel_on(
    engine: Engine<'_>,
    profile: &Profile,
    cfg: CampaignConfig,
    threads: usize,
) -> CampaignResult {
    let _span = ferrum_trace::span("campaign.parallel");
    let t0 = Instant::now();
    let mut result = CampaignResult::default();
    flight::campaign_started("parallel", engine.kind(), cfg, profile, cfg.samples);
    if cfg.samples == 0 {
        finish_stats(&mut result, t0, threads.max(1), engine.kind());
        flight::campaign_finished(&result);
        return result;
    }
    assert!(!profile.sites.is_empty(), "no injectable sites");
    let golden = &profile.result.output;
    let faults = sample_faults(profile, cfg);
    let threads = threads.max(1).min(faults.len());
    let next = AtomicUsize::new(0);
    let worker = |t: usize| {
        let mut local: Vec<(usize, Outcome, Option<u64>)> = Vec::new();
        let mut steps = 0u64;
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(&fault) = faults.get(i) else {
                return (local, steps);
            };
            let clock = StageClock::start();
            let run = engine.run(Some(fault));
            clock.stop(t, Stage::Injection);
            steps += run.dyn_insts;
            let o = classify(run.stop, &run.output, golden);
            let lat = (o == Outcome::Detected)
                .then(|| detection_latency(run.dyn_insts, fault.dyn_index));
            flight::injection(t, i, fault, o, run.dyn_insts, Booking::Executed);
            local.push((i, o, lat));
        }
    };
    let mut outcomes: Vec<Option<(Outcome, Option<u64>)>> = vec![None; faults.len()];
    let mut per_worker = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|t| scope.spawn(move || worker(t))).collect();
        for h in handles {
            let (local, steps) = h.join().expect("campaign worker panicked");
            per_worker.push(WorkerStats {
                injections: local.len(),
                steps_executed: steps,
            });
            for (i, o, lat) in local {
                outcomes[i] = Some((o, lat));
            }
        }
    });
    let mut latencies = Vec::new();
    for (fault, slot) in faults.into_iter().zip(outcomes) {
        let (outcome, lat) = slot.expect("every fault processed");
        latencies.extend(lat);
        result.record(fault, outcome);
    }
    result.stats.steps_executed = per_worker.iter().map(|w| w.steps_executed).sum();
    result.stats.per_worker = per_worker;
    result.stats.latency = DetectionLatency::from_samples(latencies);
    finish_stats(&mut result, t0, threads, engine.kind());
    ferrum_trace::counter("campaign.injections", result.total() as u64);
    flight::campaign_finished(&result);
    result
}

/// Snapshot-placement policy for [`run_campaign_snapshot`].
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
/// Outcome counts and records are byte-identical to [`run_campaign`]
/// with the same seed; only [`CampaignResult::stats`] differs.
///
/// # Panics
///
/// Panics if the profile has no injectable sites (with `samples > 0`).
pub fn run_campaign_snapshot(
    cpu: &Cpu,
    profile: &Profile,
    cfg: CampaignConfig,
    threads: usize,
    policy: SnapshotPolicy,
) -> CampaignResult {
    run_campaign_snapshot_on(Engine::Interpreter(cpu), profile, cfg, threads, policy)
}

/// As [`run_campaign_snapshot`], on an explicit [`Engine`] — snapshots
/// taken by either engine's machine resume on the other, so the
/// prefix-sharing and decoded speedups compose.
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
    let _span = ferrum_trace::span("campaign.snapshot");
    let t0 = Instant::now();
    let mut result = CampaignResult::default();
    flight::campaign_started("snapshot", engine.kind(), cfg, profile, cfg.samples);
    if cfg.samples == 0 {
        finish_stats(&mut result, t0, threads.max(1), engine.kind());
        flight::campaign_finished(&result);
        return result;
    }
    assert!(!profile.sites.is_empty(), "no injectable sites");
    let golden = &profile.result.output;
    let faults = sample_faults(profile, cfg);

    // Sort fault indices by injection point: consecutive work items
    // then share snapshots (and the prefix walk below only runs once,
    // up to the last injection).
    let mut order: Vec<usize> = (0..faults.len()).collect();
    order.sort_by_key(|&i| faults[i].dyn_index);
    let last_injection = faults[*order.last().expect("samples > 0")].dyn_index;

    // Golden-prefix pass: walk fault-free, snapshotting at the
    // policy's cadence.  The machine state at boundary k is usable by
    // any fault with dyn_index >= k.  The interpreter walks only to
    // the last injection point (snapshots are pure prefix-skips); the
    // decoded engine walks the whole golden run, because its snapshots
    // double as the convergence checkpoints `resume_converging`
    // compares against — a checkpoint after a fault is what lets the
    // post-fault suffix be stitched instead of re-executed.
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
    loop {
        if m.dyn_insts() >= horizon {
            break;
        }
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

    let next = AtomicUsize::new(0);
    let stats_hits = AtomicUsize::new(0);
    let snapshots = &snapshots;
    let order = &order;
    let faults = &faults;
    let worker = |t: usize| {
        let mut local: Vec<(usize, Outcome, Option<u64>)> = Vec::new();
        let (mut steps, mut saved) = (0u64, 0u64);
        let mut hits = 0usize;
        // One machine per worker, restored in place per fault: restore
        // copies into the machine's existing buffers, bounded by the
        // snapshot's touched stack, so per-injection state setup
        // allocates nothing once the buffers have grown.  `entry` is
        // the program start, for faults before the first snapshot.
        let mut machine = engine.machine();
        let entry = machine.snapshot();
        loop {
            let k = next.fetch_add(1, Ordering::Relaxed);
            let Some(&orig) = order.get(k) else {
                stats_hits.fetch_add(hits, Ordering::Relaxed);
                return (local, steps, saved);
            };
            let fault = faults[orig];
            // Nearest snapshot at-or-before the injection index:
            // the last one with dyn_insts <= fault.dyn_index.
            let pos = match snapshots
                .binary_search_by_key(&(fault.dyn_index + 1), |s| s.dyn_insts())
            {
                Ok(i) | Err(i) => i,
            };
            let start = match pos.checked_sub(1).map(|j| &snapshots[j]) {
                Some(s) => {
                    hits += 1;
                    saved += s.dyn_insts();
                    s
                }
                None => &entry,
            };
            let clock = StageClock::start();
            machine.restore(start);
            clock.stop(t, Stage::SnapshotRestore);
            let clock = StageClock::start();
            let run = machine.run_converging(&[fault], snapshots, &profile.result);
            clock.stop(t, Stage::Replay);
            steps += run.dyn_insts - start.dyn_insts();
            let o = classify(run.stop, &run.output, golden);
            // `Machine::restore` preserves the golden-prefix dynamic
            // instruction count, so `run.dyn_insts` is the same
            // whole-run total the serial executor sees and the latency
            // distribution is engine-independent.
            let lat = (o == Outcome::Detected)
                .then(|| detection_latency(run.dyn_insts, fault.dyn_index));
            flight::injection(t, orig, fault, o, run.dyn_insts, Booking::Executed);
            local.push((orig, o, lat));
        }
    };

    let threads = threads.max(1).min(faults.len());
    let mut outcomes: Vec<Option<(Outcome, Option<u64>)>> = vec![None; faults.len()];
    let mut per_worker = Vec::with_capacity(threads);
    let mut steps_saved = 0u64;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|t| scope.spawn(move || worker(t))).collect();
        for h in handles {
            let (local, steps, saved) = h.join().expect("campaign worker panicked");
            steps_saved += saved;
            per_worker.push(WorkerStats {
                injections: local.len(),
                steps_executed: steps,
            });
            for (i, o, lat) in local {
                outcomes[i] = Some((o, lat));
            }
        }
    });
    let mut latencies = Vec::new();
    for (fault, slot) in faults.iter().zip(outcomes) {
        let (outcome, lat) = slot.expect("every fault processed");
        latencies.extend(lat);
        result.record(*fault, outcome);
    }
    result.stats.snapshots_taken = snapshots.len();
    result.stats.snapshot_hits = stats_hits.load(Ordering::Relaxed);
    result.stats.steps_executed = per_worker.iter().map(|w| w.steps_executed).sum();
    result.stats.steps_saved = steps_saved;
    result.stats.per_worker = per_worker;
    result.stats.latency = DetectionLatency::from_samples(latencies);
    finish_stats(&mut result, t0, threads, engine.kind());
    ferrum_trace::counter("campaign.injections", result.total() as u64);
    ferrum_trace::counter(
        "campaign.snapshot.hits",
        result.stats.snapshot_hits as u64,
    );
    ferrum_trace::counter("campaign.snapshot.steps_saved", result.stats.steps_saved);
    flight::campaign_finished(&result);
    result
}

/// Runs a **double-fault** campaign: two independent single-bit faults
/// per execution, at two distinct sampled sites.  Single-fault coverage
/// guarantees do not carry over — duplication-based detection can in
/// principle be defeated when both a value and its shadow are corrupted
/// consistently — which is exactly why the paper defers multi-bit
/// faults to future work (§II-A).  `records` stores the first fault of
/// each pair.
pub fn run_double_campaign(cpu: &Cpu, profile: &Profile, cfg: CampaignConfig) -> CampaignResult {
    run_double_campaign_on(Engine::Interpreter(cpu), profile, cfg)
}

/// As [`run_double_campaign`], on an explicit [`Engine`].
pub fn run_double_campaign_on(
    engine: Engine<'_>,
    profile: &Profile,
    cfg: CampaignConfig,
) -> CampaignResult {
    let _span = ferrum_trace::span("campaign.double");
    let t0 = Instant::now();
    let mut result = CampaignResult::default();
    flight::campaign_started("double", engine.kind(), cfg, profile, cfg.samples);
    if cfg.samples == 0 {
        finish_stats(&mut result, t0, 1, engine.kind());
        flight::campaign_finished(&result);
        return result;
    }
    assert!(!profile.sites.is_empty(), "no injectable sites");
    let golden = &profile.result.output;
    let mut rng = Rng64::seed_from_u64(cfg.seed);
    let mut latencies = Vec::new();
    for i in 0..cfg.samples {
        let a = profile.sites[rng.gen_range(0..profile.sites.len())];
        let b = profile.sites[rng.gen_range(0..profile.sites.len())];
        let fa = FaultSpec::new(a.dyn_index, rng.gen_below(u64::from(a.bits)) as u16);
        let fb = FaultSpec::new(b.dyn_index, rng.gen_below(u64::from(b.bits)) as u16);
        let clock = StageClock::start();
        let run = engine.run_multi(&[fa, fb]);
        clock.stop(0, Stage::Injection);
        result.stats.steps_executed += run.dyn_insts;
        let o = classify(run.stop, &run.output, golden);
        if o == Outcome::Detected {
            // Latency is measured from the *earlier* of the two faults.
            latencies.push(detection_latency(
                run.dyn_insts,
                fa.dyn_index.min(fb.dyn_index),
            ));
        }
        flight::injection(0, i, fa, o, run.dyn_insts, Booking::Executed);
        result.record(fa, o);
    }
    result.stats.per_worker = vec![WorkerStats {
        injections: result.total(),
        steps_executed: result.stats.steps_executed,
    }];
    result.stats.latency = DetectionLatency::from_samples(latencies);
    finish_stats(&mut result, t0, 1, engine.kind());
    ferrum_trace::counter("campaign.injections", result.total() as u64);
    flight::campaign_finished(&result);
    result
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
pub fn exhaustive_campaign(cpu: &Cpu, profile: &Profile, bits_per_site: u16) -> CampaignResult {
    exhaustive_campaign_on(Engine::Interpreter(cpu), profile, bits_per_site)
}

/// As [`exhaustive_campaign`], on an explicit [`Engine`].
pub fn exhaustive_campaign_on(
    engine: Engine<'_>,
    profile: &Profile,
    bits_per_site: u16,
) -> CampaignResult {
    let _span = ferrum_trace::span("campaign.exhaustive");
    let t0 = Instant::now();
    let golden = &profile.result.output;
    let mut result = CampaignResult::default();
    let total = profile.sites.len() * usize::from(bits_per_site);
    flight::campaign_started(
        "exhaustive",
        engine.kind(),
        CampaignConfig {
            samples: total,
            seed: 0,
        },
        profile,
        total,
    );
    let mut latencies = Vec::new();
    let mut index = 0usize;
    for site in &profile.sites {
        for k in 0..bits_per_site {
            // Spread raw bits across this site's own destination width.
            // (Spreading over a fixed 256 and reducing modulo the width
            // at injection time collapses the stride for narrow
            // destinations: e.g. `k·97 mod 256` reduced mod 4 for an
            // RFLAGS site walks residues unevenly.  Every eligible
            // width is a power of two and 97 is odd, so `k·97 mod w`
            // still permutes `0..w` per site.)
            let raw = (u32::from(k) * BIT_STRIDE % site.bits.max(1)) as u16;
            let fault = FaultSpec::new(site.dyn_index, raw);
            let clock = StageClock::start();
            let run = engine.run(Some(fault));
            clock.stop(0, Stage::Injection);
            result.stats.steps_executed += run.dyn_insts;
            let o = classify(run.stop, &run.output, golden);
            if o == Outcome::Detected {
                latencies.push(detection_latency(run.dyn_insts, fault.dyn_index));
            }
            flight::injection(0, index, fault, o, run.dyn_insts, Booking::Executed);
            index += 1;
            result.record(fault, o);
        }
    }
    result.stats.per_worker = vec![WorkerStats {
        injections: result.total(),
        steps_executed: result.stats.steps_executed,
    }];
    result.stats.latency = DetectionLatency::from_samples(latencies);
    finish_stats(&mut result, t0, 1, engine.kind());
    ferrum_trace::counter("campaign.injections", result.total() as u64);
    flight::campaign_finished(&result);
    result
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
        let pruned = run_campaign_pruned(&cpu, &profile, cfg, &coverage);
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
        let pruned = run_campaign_pruned(&cpu, &profile, cfg, &CoverageMap::default());
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
        let res = exhaustive_campaign(&cpu, &profile, 3);
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
            let par = run_campaign_parallel(&cpu, &profile, cfg, threads);
            assert_eq!(par, serial, "{threads} threads");
        }
    }

    #[test]
    fn snapshot_campaign_matches_serial_exactly() {
        let cpu = sum_cpu();
        let profile = cpu.profile();
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
                let snap = run_campaign_snapshot(&cpu, &profile, cfg, threads, policy);
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
        let res = run_campaign_snapshot(&cpu, &profile, cfg, 2, policy);
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
        let cfg = CampaignConfig {
            samples: 0,
            seed: 1,
        };
        for res in [
            run_campaign(&cpu, &profile, cfg),
            run_campaign_parallel(&cpu, &profile, cfg, 8),
            run_campaign_snapshot(&cpu, &profile, cfg, 8, SnapshotPolicy::default()),
            run_double_campaign(&cpu, &profile, cfg),
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
        let cfg = CampaignConfig {
            samples: 150,
            seed: 21,
        };
        let res = run_double_campaign(&cpu, &profile, cfg);
        assert_eq!(res.total(), 150);
        assert!(res.sdc > 0, "two faults in an unprotected program: {res:?}");
        let res2 = run_double_campaign(&cpu, &profile, cfg);
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

        let par = run_campaign_parallel(&cpu, &profile, cfg, 4);
        assert_eq!(par.stats.latency, serial.stats.latency);
        let snap = run_campaign_snapshot(
            &cpu,
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
        let cfg = CampaignConfig {
            samples: 120,
            seed: 5,
        };
        let serial = run_campaign(&cpu, &profile, cfg);
        assert_eq!(serial.stats.per_worker.len(), 1);
        assert!((serial.stats.worker_balance() - 1.0).abs() < 1e-12);
        for res in [
            run_campaign_parallel(&cpu, &profile, cfg, 4),
            run_campaign_snapshot(&cpu, &profile, cfg, 4, SnapshotPolicy::default()),
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
        let snap = run_campaign_snapshot(&cpu, &profile, cfg, 2, policy);
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
            run_campaign_parallel(&cpu, &profile, cfg, 3)
        );
        assert_eq!(
            run_campaign_snapshot_on(e, &profile, cfg, 3, SnapshotPolicy::default()),
            run_campaign_snapshot(&cpu, &profile, cfg, 3, SnapshotPolicy::default())
        );
        assert_eq!(
            run_double_campaign_on(e, &profile, cfg),
            run_double_campaign(&cpu, &profile, cfg)
        );
        assert_eq!(
            exhaustive_campaign_on(e, &profile, 2),
            exhaustive_campaign(&cpu, &profile, 2)
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
        let res = run_campaign_parallel(&cpu, &profile, cfg, 4);
        assert!(res.stats.wall_nanos > 0);
        assert!(res.stats.injections_per_sec > 0.0);
        assert!(res.stats.threads >= 1 && res.stats.threads <= 4);
        assert!(res.stats.steps_executed > 0);
    }
}
