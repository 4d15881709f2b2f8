//! End-to-end benchmark of the FERRUM reproduction toolchain.
//!
//! One process runs one named [`Workload`] from a seed: it sets up the
//! programs, issues requests in a closed loop (one client; the next
//! request starts when the previous one returns) for a fixed time,
//! checks every output against an independent reference, and reports
//! end-to-end metrics.  A traced run ([`Config::trace`]) additionally
//! records a span around every call into a toolchain crate and reports
//! per-layer numbers; see `README.md` in this directory.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use ferrum::flight::NdjsonSink;
use ferrum::json::Json;
use ferrum::{
    install_flight_recorder, program_signature, uninstall_flight_recorder, CampaignEvent,
    FlightRecorder, FlightSink, MemorySink, Pipeline, Stage, TeeSink,
};
use ferrum_asm::analysis::coverage::CoverageMap;
use ferrum_asm::analysis::lint::lint_program;
use ferrum_asm::program::AsmProgram;
use ferrum_backend::{compile_with_stats, OptLevel, PassStats};
use ferrum_cpu::decoded::DecodedCpu;
use ferrum_cpu::outcome::StopReason;
use ferrum_cpu::run::Profile;
use ferrum_eddi::ferrum::Ferrum;
use ferrum_eddi::ir_eddi::{retag_shadows, IrEddi};
use ferrum_faultsim::campaign::{
    run_campaign, run_campaign_snapshot_on, CampaignConfig, CampaignResult, SnapshotPolicy,
};
use ferrum_faultsim::compose::{run_campaign_incremental_on, run_campaign_stratified_on};
use ferrum_faultsim::engine::Engine;
use ferrum_mir::inst::MirInst;
use ferrum_mir::interp::Interp;
use ferrum_mir::module::Module;
use ferrum_mir::types::Ty;
use ferrum_mir::value::Value;
use ferrum_workloads::{all_workloads, Scale};

/// Requests every run issues even after its time is up: enough that
/// the 90th percentile has at least ten samples beyond it.
const MIN_REQUESTS: usize = 100;

/// Upper bound on set-up rounds in one run.
const MAX_SETUP_ROUNDS: usize = 200;

/// Fuzz programs generated per edit-loop setup; requests cycle them.
const EDIT_POOL: usize = 512;

/// Edit-loop requests whose outputs feed the deterministic metrics.
const EDIT_PREFIX: usize = 32;

/// Faults per stratified (and incremental) edit-loop campaign.
const EDIT_SAMPLES: usize = 200;

/// Faults re-run on the interpreter's serial executor to check a
/// sweep request's records (the sampled fault list of a smaller
/// campaign is a prefix of a larger one with the same seed).
const CHECK_SAMPLES: usize = 16;

/// Edit-loop requests per block: set-up rounds run between blocks,
/// and a traced run alternates traced and untraced blocks.
const EDIT_BLOCK: usize = 8;

/// Edit-loop requests (by index) whose incremental result is checked
/// against a full stratified re-run of the edited program.
const EDIT_CHECKS: usize = 8;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 400-sample campaigns on FERRUM-protected paper-scale programs.
    FerrumSweep,
    /// 500-sample campaigns on unprotected and IR-EDDI builds.
    BaselineSweep,
    /// Compile, protect, analyse and campaign small generated programs,
    /// then edit one function and re-run incrementally.
    EditLoop,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::FerrumSweep,
        Workload::BaselineSweep,
        Workload::EditLoop,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FerrumSweep => "ferrum-sweep",
            Workload::BaselineSweep => "baseline-sweep",
            Workload::EditLoop => "edit-loop",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Campaign worker threads before the host cap.
    fn default_threads(self) -> usize {
        match self {
            Workload::BaselineSweep => 2,
            Workload::FerrumSweep | Workload::EditLoop => 1,
        }
    }

    fn samples(self) -> usize {
        match self {
            Workload::FerrumSweep => 400,
            Workload::BaselineSweep => 500,
            Workload::EditLoop => EDIT_SAMPLES,
        }
    }

    fn opt(self) -> OptLevel {
        match self {
            Workload::EditLoop => OptLevel::O1,
            Workload::FerrumSweep | Workload::BaselineSweep => OptLevel::O0,
        }
    }

    /// True when the flight recorder streams NDJSON during untraced
    /// requests, as `ferrum-campaign` does.
    fn recorder(self) -> bool {
        self == Workload::FerrumSweep
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload to run.
    pub workload: Workload,
    /// Seed for every generated input.
    pub seed: u64,
    /// Time the request loop measures for (requests continue past it
    /// until [`Config::min_requests`] have run).
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Campaign worker threads.
    pub threads: usize,
    /// Minimum set-up repetitions; `setup_s` is their median.
    pub setup_rounds: usize,
    /// Set-up repeats until this much time is spent (after at least
    /// `setup_rounds` rounds), so its median is steady even when one
    /// round takes milliseconds.
    pub setup_seconds: f64,
    /// Requests issued however long they take.
    pub min_requests: usize,
    /// Test hook: corrupt one reference output, which the output
    /// checks must then report as a failed request.
    pub doctor_reference: bool,
}

impl Config {
    /// The benchmark's settings for `workload`, with threads capped at
    /// the host's parallelism.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Config {
        Config {
            workload,
            seed,
            seconds,
            trace,
            threads: workload.default_threads().min(host_threads()),
            setup_rounds: 5,
            setup_seconds: 2.0,
            min_requests: MIN_REQUESTS,
            doctor_reference: false,
        }
    }
}

/// The host's available parallelism (1 when unknown).
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

/// One recorded span.  Root spans (`setup`, `request`) have no parent;
/// every other span is a call into one toolchain crate, named
/// `<layer>.<call>`.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`, or `setup` / `request` for roots.
    pub name: &'static str,
    /// Nanoseconds since the run started.
    pub start_ns: u64,
    /// Nanoseconds since the run started.
    pub end_ns: u64,
    /// Index of the enclosing root span.
    pub parent: Option<usize>,
    /// Shared by the spans of one set-up round or request.
    pub request: u64,
}

/// In-memory span and counter recorder.  While off it records nothing
/// and reads no clock.
struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    root: Option<usize>,
    next_request: u64,
    /// `(root span, counter, value)`.
    counters: Vec<(usize, &'static str, f64)>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            root: None,
            next_request: 0,
            counters: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn begin_root(&mut self, name: &'static str) {
        let request = self.next_request;
        self.next_request += 1;
        if self.on {
            let now = self.now();
            self.root = Some(self.spans.len());
            self.spans.push(Span {
                name,
                start_ns: now,
                end_ns: now,
                parent: None,
                request,
            });
        }
    }

    fn end_root(&mut self) {
        if let Some(r) = self.root.take() {
            self.spans[r].end_ns = self.now();
        }
    }

    fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let Some(root) = self.root.filter(|_| self.on) else {
            return f();
        };
        let start_ns = self.now();
        let r = f();
        let end_ns = self.now();
        let request = self.spans[root].request;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(root),
            request,
        });
        r
    }

    fn count(&mut self, name: &'static str, value: f64) {
        if let Some(root) = self.root.filter(|_| self.on) {
            self.counters.push((root, name, value));
        }
    }
}

fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Requests issued.
    pub attempted: usize,
    /// Requests that failed a call or an output check.
    pub failed: usize,
    /// One line per failure.
    pub failures: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced
    /// run).
    pub metrics: Vec<Metric>,
    /// Metrics that must repeat exactly for one seed, traced or not.
    pub deterministic: Vec<(String, Json)>,
    /// Configuration, host and sample counts behind the metrics.
    pub provenance: Vec<(String, Json)>,
    /// Spans recorded by a traced run.
    pub spans: Vec<Span>,
}

impl Report {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }

    /// Failed requests ÷ attempted requests.
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Looks up a reported metric by name.
    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Looks up a deterministic metric by name.
    pub fn deterministic_value(&self, name: &str) -> Option<&Json> {
        self.deterministic
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
    }

    fn det(&mut self, name: &str, value: Json) {
        self.deterministic.push((name.to_owned(), value));
    }

    fn prov(&mut self, name: &str, value: Json) {
        self.provenance.push((name.to_owned(), value));
    }

    fn metric_push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }
}

/// SplitMix64: derives independent sub-seeds from the workload seed.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

fn static_insts(p: &AsmProgram) -> usize {
    p.functions.iter().map(|f| f.len()).sum()
}

fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Nearest-rank percentile of an unsorted sample.
fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".to_owned())
}

// ---------------------------------------------------------------------------
// Toolchain calls, one span each
// ---------------------------------------------------------------------------

/// A loaded, decoded and golden-run program.
struct Loaded {
    decoded: DecodedCpu,
    profile: Profile,
}

fn load_and_golden(t: &mut Tracer, p: &AsmProgram, reference: &[i64]) -> Result<Loaded, String> {
    let cpu = t
        .span("cpu.load", || Pipeline::new().load(p))
        .map_err(|e| format!("load: {e}"))?;
    let decoded = t.span("cpu.decode", || DecodedCpu::new(&cpu));
    drop(cpu);
    let profile = t.span("cpu.golden", || decoded.profile());
    t.count("cpu.golden_dyn_insts", profile.result.dyn_insts as f64);
    t.count("cpu.golden_cycles", profile.result.cycles as f64);
    if profile.result.stop != StopReason::MainReturned {
        return Err(format!("golden run stopped with {:?}", profile.result.stop));
    }
    if profile.result.output != reference {
        return Err("golden output differs from the reference".to_owned());
    }
    if profile.sites.is_empty() {
        return Err("golden run has no injectable sites".to_owned());
    }
    Ok(Loaded { decoded, profile })
}

fn compile(t: &mut Tracer, m: &Module, opt: OptLevel) -> Result<(AsmProgram, PassStats), String> {
    let (asm, stats) = t
        .span("backend.compile", || compile_with_stats(m, opt))
        .map_err(|e| format!("compile: {e}"))?;
    t.count("backend.asm_insts", static_insts(&asm) as f64);
    t.count("backend.o1_insts_removed", stats.insts_removed() as f64);
    Ok((asm, stats))
}

fn protect_ferrum(t: &mut Tracer, asm: &AsmProgram) -> Result<AsmProgram, String> {
    let prot = t
        .span("eddi.protect", || Ferrum::new().protect(asm))
        .map_err(|e| format!("protect: {e}"))?;
    t.count(
        "eddi.insts_added",
        static_insts(&prot).saturating_sub(static_insts(asm)) as f64,
    );
    Ok(prot)
}

/// IR-level EDDI as `Pipeline::protect` applies it: shadow the MIR,
/// compile, then tag the shadows' assembly.
fn protect_ir_eddi(t: &mut Tracer, m: &Module, raw_insts: usize) -> Result<AsmProgram, String> {
    let (shadowed, shadows) = t.span("eddi.protect", || IrEddi::new().protect_tracked(m));
    let (mut asm, _) = compile(t, &shadowed, OptLevel::O0)?;
    t.span("eddi.protect", || {
        retag_shadows(
            &mut asm,
            &shadows,
            ferrum_asm::provenance::TechniqueTag::IrEddi,
        );
    });
    t.count(
        "eddi.insts_added",
        static_insts(&asm).saturating_sub(raw_insts) as f64,
    );
    Ok(asm)
}

/// Lint and coverage analysis of a protected program.
fn analyse(t: &mut Tracer, p: &AsmProgram) -> Result<(), String> {
    let lint = t.span("asm.lint", || lint_program(p));
    let coverage = t.span("asm.coverage", || CoverageMap::analyze(p));
    let rollup = coverage.rollup();
    t.count("asm.sites", rollup.total() as f64);
    t.count(
        "asm.decided_sites",
        (rollup.total() - rollup.unknown) as f64,
    );
    if lint.is_clean() {
        Ok(())
    } else {
        Err(format!("lint: {} findings", lint.findings.len()))
    }
}

/// Stage times from the flight recorder's `stage_timing` events and
/// campaign statistics, as per-layer counters.
fn count_campaign(t: &mut Tracer, r: &CampaignResult, events: Option<&MemorySink>) {
    let s = &r.stats;
    t.count("faultsim.snapshots_taken", s.snapshots_taken as f64);
    t.count("faultsim.steps_executed", s.steps_executed as f64);
    t.count("faultsim.steps_saved", s.steps_saved as f64);
    t.count("faultsim.injections", s.injections as f64);
    t.count("faultsim.reused", s.reused_sites as f64);
    t.count("faultsim.timeouts", r.timeout as f64);
    t.count("faultsim.worker_balance", s.worker_balance());
    t.count("faultsim.campaigns", 1.0);
    let Some(sink) = events else { return };
    let events = sink.events();
    t.count("faultsim.flight_events", events.len() as f64);
    for ev in &events {
        if let CampaignEvent::StageTiming { stage, nanos, .. } = ev.event {
            let key = match stage {
                Stage::GoldenRun => "faultsim.golden_walk_ms",
                Stage::SnapshotCapture => "faultsim.snapshot_capture_ms",
                Stage::SnapshotRestore => "faultsim.snapshot_restore_ms",
                Stage::Injection | Stage::Replay => "faultsim.replay_ms",
                Stage::Decode => continue,
            };
            t.count(key, nanos as f64 / 1e6);
        }
    }
}

/// Installs a recorder for one campaign: the NDJSON null sink when the
/// workload streams events, plus an in-memory sink when traced.
fn install_recorder(
    t: &Tracer,
    streams: bool,
    name: &str,
    technique: &str,
    hash: u64,
) -> Option<Arc<MemorySink>> {
    let memory = t.on.then(|| Arc::new(MemorySink::new()));
    let mut sinks: Vec<Arc<dyn FlightSink>> = Vec::new();
    if streams {
        sinks.push(Arc::new(NdjsonSink::new(Box::new(std::io::sink()))));
    }
    if let Some(m) = &memory {
        sinks.push(m.clone());
    }
    let sink: Arc<dyn FlightSink> = match sinks.len() {
        0 => return None,
        1 => sinks.pop().expect("one sink"),
        _ => Arc::new(TeeSink::new(sinks)),
    };
    install_flight_recorder(Arc::new(
        FlightRecorder::new(sink)
            .with_labels(name, technique)
            .with_program_hash(hash),
    ));
    memory
}

// ---------------------------------------------------------------------------
// The request loop
// ---------------------------------------------------------------------------

/// CPU time this process has used, in seconds: the time every one of
/// its threads, ended ones included, spent running on a CPU.
///
/// The benchmark's times are CPU times.  Wall time also counts the time
/// the process waits for a CPU while other programs on a shared host
/// run, which swings by a factor of two from run to run; CPU time does
/// not, and on an otherwise idle host a single-threaded request's CPU
/// time is its wall time.
pub fn cpu_now() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds `f` takes, and its result.
fn cpu_timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let c0 = cpu_now();
    let r = f();
    (r, cpu_now() - c0)
}

/// One finished request.
struct Done {
    /// Position in the program cycle the requests go round.
    slot: usize,
    /// Peak resident set while the request ran, in MiB.
    peak_rss_mb: f64,
    /// False if the peak could not be reset before the request, so
    /// that `peak_rss_mb` is the peak of the whole run so far.
    rss_reset: bool,
    /// CPU time of the whole request.
    cpu_secs: f64,
    traced: bool,
    /// Faults executed (not replayed from a cache) and the campaign
    /// CPU time they took.
    injections: usize,
    campaign_secs: f64,
}

/// Runs one set-up round (traced in a traced run) and records its time.
fn setup_round<S>(
    cfg: &Config,
    t: &mut Tracer,
    setup: &mut impl FnMut(&mut Tracer) -> S,
    secs: &mut Vec<f64>,
) -> S {
    t.on = cfg.trace;
    t.begin_root("setup");
    let (state, cpu) = cpu_timed(|| setup(t));
    secs.push(cpu);
    t.end_root();
    t.on = false;
    state
}

/// How a workload's requests are grouped.
struct Shape {
    /// Requests between set-up rounds, and per traced or untraced block.
    block: usize,
    /// Programs the requests go round.
    cycle: usize,
    /// Requests issued however long they take.
    min: usize,
}

/// Runs set-up rounds and requests, and returns the last set-up
/// round's product, the finished requests and the median set-up CPU
/// time.
///
/// The first set-up round runs before any request.  More rounds run
/// until there are at least `cfg.setup_rounds` of them and
/// `cfg.setup_seconds` of set-up in all.  They are spread evenly over
/// the request loop, between blocks, and each one replaces the
/// programs the requests use.  So `setup_s`, like the latencies,
/// samples the host over the whole run.  Set-up time is not request
/// time.
///
/// Requests run until `cfg.seconds` of request wall time have passed and
/// at least `shape.min` requests ran; if all of those failed, the
/// loop stops there.  In a traced run, alternate blocks of `shape.block`
/// requests are traced, starting with the first.  Untraced requests on
/// the same programs then give the tracing overhead.  Request `i` runs
/// on program `i % shape.cycle`.  `req` returns the faults it executed and
/// their campaign CPU time, or `Err` for a failed request; a panic
/// counts as a failure.
fn run_loop<S>(
    cfg: &Config,
    t: &mut Tracer,
    rep: &mut Report,
    shape: Shape,
    mut setup: impl FnMut(&mut Tracer) -> S,
    mut req: impl FnMut(usize, &S, &mut Tracer) -> Result<(usize, f64), String>,
) -> (S, Vec<Done>, f64) {
    let mut secs = Vec::new();
    let mut state = Some(setup_round(cfg, t, &mut setup, &mut secs));
    let wanted = ((cfg.setup_seconds / secs[0]).ceil() as usize)
        .clamp(cfg.setup_rounds.max(1), MAX_SETUP_ROUNDS);
    let mut done: Vec<Done> = Vec::new();
    let mut wall = 0.0;
    let Shape { block, cycle, min } = shape;
    while done.len() < min || (wall < cfg.seconds && rep.failed < done.len()) {
        let i = done.len();
        if i.is_multiple_of(block) {
            let due = 1 + (wall / cfg.seconds * (wanted - 1) as f64) as usize;
            while secs.len() < due.min(wanted) {
                // Drop the previous round's programs first so peak
                // memory is one round's, as in a single set-up.
                drop(state.take());
                state = Some(setup_round(cfg, t, &mut setup, &mut secs));
            }
        }
        let s = state.as_ref().expect("set-up ran");
        t.on = cfg.trace && (i / block).is_multiple_of(2);
        t.begin_root("request");
        let rss_reset = reset_peak_rss();
        let t0 = Instant::now();
        let (r, cpu_secs) = cpu_timed(|| catch_unwind(AssertUnwindSafe(|| req(i, s, t))));
        let secs = t0.elapsed().as_secs_f64();
        uninstall_flight_recorder();
        t.end_root();
        wall += secs;
        rep.attempted += 1;
        let (injections, campaign_secs) = match r {
            Ok(Ok(x)) => x,
            Ok(Err(e)) => {
                rep.fail(format!("request {i}: {e}"));
                (0, 0.0)
            }
            Err(p) => {
                rep.fail(format!("request {i}: panic: {}", panic_text(&*p)));
                (0, 0.0)
            }
        };
        done.push(Done {
            slot: i % cycle,
            peak_rss_mb: peak_rss_mb(),
            rss_reset,
            cpu_secs,
            traced: t.on,
            injections,
            campaign_secs,
        });
    }
    t.on = false;
    while secs.len() < wanted {
        drop(state.take());
        state = Some(setup_round(cfg, t, &mut setup, &mut secs));
    }
    rep.prov("setup_rounds", Json::Int(secs.len() as i64));
    (state.expect("set-up ran"), done, median(&secs))
}

// ---------------------------------------------------------------------------
// Sweeps
// ---------------------------------------------------------------------------

/// One campaign target of a sweep.
struct Target {
    name: &'static str,
    technique: &'static str,
    hash: u64,
    loaded: Result<Loaded, String>,
}

/// Static and golden-run figures of a protected build next to its
/// unprotected build.
struct Pair {
    raw_insts: usize,
    prot_insts: usize,
    raw_cycles: u64,
    prot_cycles: u64,
}

/// The builds a sweep runs campaigns on, per catalog program.
fn techniques(w: Workload) -> &'static [&'static str] {
    match w {
        Workload::FerrumSweep => &["ferrum"],
        _ => &["none", "ir-eddi"],
    }
}

fn sweep_setup(
    cfg: &Config,
    t: &mut Tracer,
    references: &[Vec<i64>],
) -> (Vec<Target>, Vec<Result<Pair, String>>) {
    let ferrum = cfg.workload == Workload::FerrumSweep;
    let mut targets = Vec::new();
    let mut pairs = Vec::new();
    for (w, reference) in all_workloads().iter().zip(references) {
        let module = t.span("workloads.build", || w.build(Scale::Paper));
        let built = (|| -> Result<(AsmProgram, AsmProgram), String> {
            let (raw, _) = compile(t, &module, OptLevel::O0)?;
            let prot = if ferrum {
                let p = protect_ferrum(t, &raw)?;
                analyse(t, &p)?;
                p
            } else {
                protect_ir_eddi(t, &module, static_insts(&raw))?
            };
            Ok((raw, prot))
        })();
        let (raw, prot) = match built {
            Ok(b) => b,
            Err(e) => {
                let e = format!("{}: {e}", w.name);
                for &technique in techniques(cfg.workload) {
                    targets.push(Target {
                        name: w.name,
                        technique,
                        hash: 0,
                        loaded: Err(e.clone()),
                    });
                }
                pairs.push(Err(e));
                continue;
            }
        };
        let raw_loaded = load_and_golden(t, &raw, reference);
        let prot_loaded = load_and_golden(t, &prot, reference);
        pairs.push(match (&raw_loaded, &prot_loaded) {
            (Ok(r), Ok(p)) => Ok(Pair {
                raw_insts: static_insts(&raw),
                prot_insts: static_insts(&prot),
                raw_cycles: r.profile.result.cycles,
                prot_cycles: p.profile.result.cycles,
            }),
            (Err(e), _) | (_, Err(e)) => Err(format!("{}: {e}", w.name)),
        });
        let tag = |e: String| format!("{}: {e}", w.name);
        if !ferrum {
            targets.push(Target {
                name: w.name,
                technique: "none",
                hash: program_signature(&raw),
                loaded: raw_loaded.map_err(tag),
            });
        }
        targets.push(Target {
            name: w.name,
            technique: if ferrum { "ferrum" } else { "ir-eddi" },
            hash: program_signature(&prot),
            loaded: prot_loaded.map_err(tag),
        });
    }
    (targets, pairs)
}

/// Outcome totals and a digest of the records of some campaigns.
struct Tally {
    requests: usize,
    injections: usize,
    sdc: usize,
    detected: usize,
    crash: usize,
    timeout: usize,
    benign: usize,
    steps_executed: u64,
    snapshots_taken: usize,
    digest: u64,
}

impl Tally {
    fn new() -> Tally {
        Tally {
            requests: 0,
            injections: 0,
            sdc: 0,
            detected: 0,
            crash: 0,
            timeout: 0,
            benign: 0,
            steps_executed: 0,
            snapshots_taken: 0,
            digest: FNV_BASIS,
        }
    }

    fn add(&mut self, r: &CampaignResult) {
        self.injections += r.total() - r.stats.reused_sites;
        self.sdc += r.sdc;
        self.detected += r.detected;
        self.crash += r.crash;
        self.timeout += r.timeout;
        self.benign += r.benign;
        self.steps_executed += r.stats.steps_executed;
        self.snapshots_taken += r.stats.snapshots_taken;
        for (f, o) in &r.records {
            self.digest = fnv(self.digest, &f.dyn_index.to_le_bytes());
            self.digest = fnv(self.digest, &f.raw_bit.to_le_bytes());
            self.digest = fnv(self.digest, o.label().as_bytes());
        }
    }

    fn sdc_share(&self) -> f64 {
        let classified = self.sdc + self.detected + self.crash + self.timeout + self.benign;
        if classified == 0 {
            0.0
        } else {
            self.sdc as f64 / classified as f64
        }
    }

    fn report(&self, rep: &mut Report) {
        for (k, v) in [
            ("prefix.requests", self.requests as u64),
            ("prefix.injections", self.injections as u64),
            ("prefix.sdc", self.sdc as u64),
            ("prefix.detected", self.detected as u64),
            ("prefix.crash", self.crash as u64),
            ("prefix.timeout", self.timeout as u64),
            ("prefix.benign", self.benign as u64),
            ("prefix.steps_executed", self.steps_executed),
            ("prefix.snapshots_taken", self.snapshots_taken as u64),
        ] {
            rep.det(k, Json::Int(v as i64));
        }
        rep.det(
            "prefix.records_digest",
            Json::Str(format!("{:016x}", self.digest)),
        );
    }
}

fn run_sweep(cfg: &Config, t: &mut Tracer, rep: &mut Report) -> f64 {
    let workload = cfg.workload;
    let mut references: Vec<Vec<i64>> = all_workloads()
        .iter()
        .map(|w| w.oracle(Scale::Paper))
        .collect();
    if cfg.doctor_reference {
        references[0].push(0);
    }

    let cycle = references.len() * techniques(workload).len();
    let samples = workload.samples();
    let threads = cfg.threads;
    let mut prefix = Tally::new();
    let mut checks: Vec<(usize, CampaignConfig, CampaignResult)> = Vec::new();
    let setup = |t: &mut Tracer| sweep_setup(cfg, t, &references);
    let ((targets, pairs), done, setup_s) = run_loop(
        cfg,
        t,
        rep,
        Shape {
            block: cycle,
            cycle,
            min: cfg.min_requests.max(cycle),
        },
        setup,
        |i, (targets, _), t| {
            let target = &targets[i % cycle];
            let loaded = target.loaded.as_ref().map_err(Clone::clone)?;
            let ccfg = CampaignConfig {
                samples,
                seed: mix(cfg.seed, i as u64),
            };
            let memory = install_recorder(
                t,
                workload.recorder(),
                target.name,
                target.technique,
                target.hash,
            );
            let (result, campaign_secs) = cpu_timed(|| {
                t.span("faultsim.campaign", || {
                    run_campaign_snapshot_on(
                        Engine::Decoded(&loaded.decoded),
                        &loaded.profile,
                        ccfg,
                        threads,
                        SnapshotPolicy::default(),
                    )
                })
            });
            uninstall_flight_recorder();
            count_campaign(t, &result, memory.as_deref());
            if result.total() != samples {
                return Err(format!(
                    "{} faults classified, {samples} sampled",
                    result.total()
                ));
            }
            let ran = (result.total(), campaign_secs);
            if i < cycle {
                prefix.requests += 1;
                prefix.add(&result);
                checks.push((i, ccfg, result));
            }
            Ok(ran)
        },
    );

    let mut ratios_cycles = Vec::new();
    let mut ratios_insts = Vec::new();
    let (mut raw_insts, mut prot_insts, mut raw_cycles, mut prot_cycles) = (0u64, 0u64, 0u64, 0u64);
    for p in pairs.iter().flatten() {
        ratios_cycles.push(p.prot_cycles as f64 / p.raw_cycles as f64);
        ratios_insts.push(p.prot_insts as f64 / p.raw_insts as f64);
        raw_insts += p.raw_insts as u64;
        prot_insts += p.prot_insts as u64;
        raw_cycles += p.raw_cycles;
        prot_cycles += p.prot_cycles;
    }
    for e in pairs.iter().filter_map(|p| p.as_ref().err()) {
        rep.failures.push(format!("setup: {e}"));
    }

    // Reference check outside the timed region: the first request on
    // every program against the interpreter's serial executor.
    for (i, ccfg, result) in &checks {
        let Ok(loaded) = &targets[i % cycle].loaded else {
            continue;
        };
        let serial = run_campaign(
            loaded.decoded.cpu(),
            &loaded.profile,
            CampaignConfig {
                samples: CHECK_SAMPLES,
                seed: ccfg.seed,
            },
        );
        if serial.records[..] != result.records[..CHECK_SAMPLES.min(result.records.len())] {
            rep.fail(format!(
                "request {i}: snapshot-executor records differ from the serial interpreter"
            ));
        }
    }

    rep.det(
        "sim_overhead_pct",
        Json::Num((geomean(&ratios_cycles) - 1.0) * 100.0),
    );
    rep.det("code_size_ratio", Json::Num(geomean(&ratios_insts)));
    if workload == Workload::FerrumSweep {
        rep.det("sdc_escape_share", Json::Num(prefix.sdc_share()));
    }
    for (k, v) in [
        ("static.raw_insts", raw_insts),
        ("static.protected_insts", prot_insts),
        ("golden.raw_cycles", raw_cycles),
        ("golden.protected_cycles", prot_cycles),
    ] {
        rep.det(k, Json::Int(v as i64));
    }
    prefix.report(rep);

    report_times(cfg, rep, &done, setup_s);
    rep.prov(
        "programs",
        Json::Arr(
            targets
                .iter()
                .map(|x| Json::Str(format!("{}/{}", x.name, x.technique)))
                .collect(),
        ),
    );
    rep.prov("checked_requests", Json::Int(checks.len() as i64));
    setup_s
}

// ---------------------------------------------------------------------------
// Edit loop
// ---------------------------------------------------------------------------

/// One generated program, its seeded one-function edit, and the MIR
/// interpreter's outputs for both.
struct EditCase {
    seed: u64,
    module: Module,
    reference: Vec<i64>,
    edited: Module,
    edited_name: String,
    edited_reference: Vec<i64>,
}

/// Inserts a print of a seeded constant before the entry-block
/// terminator of one seeded function: a well-defined change to that
/// function's code and to the program's output.
fn edit_one_function(m: &Module, seed: u64) -> (Module, String) {
    let mut edited = m.clone();
    let fi = (mix(seed, 1) % edited.functions.len() as u64) as usize;
    let f = &mut edited.functions[fi];
    let entry = &mut f.blocks[0].insts;
    let at = entry.len().saturating_sub(1);
    entry.insert(
        at,
        MirInst::Call {
            id: None,
            callee: ferrum_mir::PRINT_I64.to_owned(),
            args: vec![Value::const_int(Ty::I64, (mix(seed, 2) % 1000) as i64)],
        },
    );
    let name = f.name.clone();
    (edited, name)
}

fn edit_setup(cfg: &Config, t: &mut Tracer) -> Result<Vec<EditCase>, String> {
    (0..EDIT_POOL)
        .map(|i| {
            let seed = mix(cfg.seed, i as u64);
            let (module, _) = t.span("fuzz.generate", || ferrum_fuzz::gen::generate_module(seed));
            let (edited, edited_name) = edit_one_function(&module, seed);
            let interp = |m: &Module| {
                Interp::new(m)
                    .run()
                    .map(|r| r.output)
                    .map_err(|e| format!("program {seed:#x}: reference trap: {e}"))
            };
            let reference = t.span("mir.interp", || interp(&module))?;
            let edited_reference = t.span("mir.interp", || interp(&edited))?;
            Ok(EditCase {
                seed,
                module,
                reference,
                edited,
                edited_name,
                edited_reference,
            })
        })
        .collect()
}

/// What an edit-loop request leaves for the checks that follow it.
struct EditOutcome {
    raw: AsmProgram,
    protected: AsmProgram,
    golden_cycles: u64,
    edited: AsmProgram,
    edited_loaded: Loaded,
    ccfg: CampaignConfig,
    incremental: CampaignResult,
    stratified: CampaignResult,
    /// CPU time of the two campaigns.
    campaign_secs: f64,
}

fn edit_request(
    t: &mut Tracer,
    case: &EditCase,
    ccfg: CampaignConfig,
) -> Result<EditOutcome, String> {
    let pipeline = |t: &mut Tracer, m: &Module, reference: &[i64]| {
        let (raw, _) = compile(t, m, OptLevel::O1)?;
        let prot = protect_ferrum(t, &raw)?;
        analyse(t, &prot)?;
        let loaded = load_and_golden(t, &prot, reference)?;
        Ok::<_, String>((raw, prot, loaded))
    };
    let (raw, protected, loaded) = pipeline(t, &case.module, &case.reference)?;
    let memory = install_recorder(t, false, "fuzz", "ferrum", 0);
    let ((stratified, cache), stratified_secs) = cpu_timed(|| {
        t.span("faultsim.stratified", || {
            run_campaign_stratified_on(
                Engine::Decoded(&loaded.decoded),
                &loaded.profile,
                ccfg,
                &protected,
            )
        })
    });
    uninstall_flight_recorder();
    count_campaign(t, &stratified, memory.as_deref());

    let (_, edited, edited_loaded) = pipeline(t, &case.edited, &case.edited_reference)?;
    let memory = install_recorder(t, false, "fuzz", "ferrum", 0);
    let ((incremental, _), incremental_secs) = cpu_timed(|| {
        t.span("faultsim.incremental", || {
            run_campaign_incremental_on(
                Engine::Decoded(&edited_loaded.decoded),
                &edited_loaded.profile,
                ccfg,
                &edited,
                &cache,
            )
        })
    });
    uninstall_flight_recorder();
    count_campaign(t, &incremental, memory.as_deref());
    t.count(
        "faultsim.incremental_injections",
        incremental.total() as f64,
    );
    t.count(
        "faultsim.incremental_reused",
        incremental.stats.reused_sites as f64,
    );
    Ok(EditOutcome {
        raw,
        protected,
        golden_cycles: loaded.profile.result.cycles,
        edited,
        edited_loaded,
        ccfg,
        incremental,
        stratified,
        campaign_secs: stratified_secs + incremental_secs,
    })
}

fn run_edit_loop(cfg: &Config, t: &mut Tracer, rep: &mut Report) -> f64 {
    let mut prefix = Tally::new();
    let mut outcomes: Vec<(usize, EditOutcome)> = Vec::new();
    let setup = |t: &mut Tracer| {
        let mut cases = edit_setup(cfg, t)?;
        if cfg.doctor_reference {
            cases[0].reference.push(0);
        }
        Ok::<_, String>(cases)
    };
    let shape = Shape {
        block: EDIT_BLOCK,
        cycle: EDIT_POOL,
        min: cfg.min_requests.max(EDIT_PREFIX),
    };
    let (cases, done, setup_s) = run_loop(cfg, t, rep, shape, setup, |i, cases, t| {
        let case = &cases.as_ref().map_err(|e| format!("setup: {e}"))?[i % EDIT_POOL];
        let ccfg = CampaignConfig {
            samples: EDIT_SAMPLES,
            seed: mix(case.seed, i as u64 + 3),
        };
        let out = edit_request(t, case, ccfg)?;
        let injections = [&out.stratified, &out.incremental]
            .iter()
            .map(|r| r.total() - r.stats.reused_sites)
            .sum();
        let ran = (injections, out.campaign_secs);
        if i < EDIT_PREFIX {
            prefix.requests += 1;
            prefix.add(&out.stratified);
            prefix.add(&out.incremental);
            outcomes.push((i, out));
        }
        Ok(ran)
    });

    // Checks and unprotected golden runs outside the timed region.
    let mut cycles = Vec::new();
    let mut insts = Vec::new();
    let (mut raw_insts, mut prot_insts) = (0u64, 0u64);
    let cases = cases.unwrap_or_default();
    for (i, out) in &outcomes {
        let case = &cases[i % EDIT_POOL];
        match Pipeline::new().load(&out.raw).map(|cpu| cpu.run(None)) {
            Ok(run) if run.stop == StopReason::MainReturned && run.output == case.reference => {
                cycles.push(out.golden_cycles as f64 / run.cycles as f64);
            }
            _ => rep.fail(format!(
                "request {i}: unprotected build disagrees with the reference"
            )),
        }
        insts.push(static_insts(&out.protected) as f64 / static_insts(&out.raw) as f64);
        raw_insts += static_insts(&out.raw) as u64;
        prot_insts += static_insts(&out.protected) as u64;
        if *i < EDIT_CHECKS {
            let (full, _) = run_campaign_stratified_on(
                Engine::Decoded(&out.edited_loaded.decoded),
                &out.edited_loaded.profile,
                out.ccfg,
                &out.edited,
            );
            if full != out.incremental {
                rep.fail(format!(
                    "request {i}: incremental result after editing `{}` differs from a full re-run",
                    case.edited_name
                ));
            }
        }
    }

    rep.det(
        "sim_overhead_pct",
        Json::Num((geomean(&cycles) - 1.0) * 100.0),
    );
    rep.det("code_size_ratio", Json::Num(geomean(&insts)));
    rep.det("sdc_escape_share", Json::Num(prefix.sdc_share()));
    rep.det("static.raw_insts", Json::Int(raw_insts as i64));
    rep.det("static.protected_insts", Json::Int(prot_insts as i64));
    prefix.report(rep);

    report_times(cfg, rep, &done, setup_s);
    rep.prov("pool_programs", Json::Int(EDIT_POOL as i64));
    rep.prov(
        "checked_requests",
        Json::Int(EDIT_CHECKS.min(outcomes.len()) as i64),
    );
    setup_s
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// End-to-end metrics of an untraced run; in a traced run only the
/// sample counts and the tracing overhead are taken from here.
///
/// All times are CPU times ([`cpu_now`]).  `injections_per_s` is the
/// geometric mean over programs of each program's median campaign
/// rate: a rare campaign with a 50 M-step timeout costs as much as
/// dozens of ordinary ones, so a sum would mostly count the timeouts a
/// seed happened to draw, and the programs' rates lie in separate
/// clusters, so a median over all requests could jump between them.
/// `programs_per_s` is the plain throughput of the loop, timeouts
/// included, and the latency percentiles show the tail.
/// `peak_rss_mb` is the median over requests of the peak resident set
/// while each ran: the peak of a whole run is set by the rare fault
/// whose timed-out replay grows memory, so it depends on the seed.
fn report_times(cfg: &Config, rep: &mut Report, done: &[Done], setup_s: f64) {
    let ms = |traced: bool| -> Vec<f64> {
        done.iter()
            .filter(|d| d.traced == traced)
            .map(|d| d.cpu_secs * 1e3)
            .collect()
    };
    let lat = ms(cfg.trace);
    let n = lat.len();
    let p90_rank = (0.9 * n as f64).ceil() as usize;
    rep.prov("clock", Json::Str("process_cpu_time".to_owned()));
    rep.prov("request_samples", Json::Int(n as i64));
    rep.prov(
        "request_ms_p90_beyond",
        Json::Int(n.saturating_sub(p90_rank) as i64),
    );
    if cfg.trace {
        let plain = ms(false);
        let overhead = if lat.is_empty() || plain.is_empty() {
            0.0
        } else {
            (median(&lat) / median(&plain) - 1.0) * 100.0
        };
        rep.prov("untraced_request_samples", Json::Int(plain.len() as i64));
        rep.metric_push("bench.trace_overhead_pct", overhead, "%");
        return;
    }
    let mut rates_of: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for d in done.iter().filter(|d| d.campaign_secs > 0.0) {
        rates_of
            .entry(d.slot)
            .or_default()
            .push(d.injections as f64 / d.campaign_secs);
    }
    let rates: Vec<f64> = rates_of.values().map(|r| median(r)).collect();
    let cpu: f64 = done.iter().map(|d| d.cpu_secs).sum();
    rep.metric_push("setup_s", setup_s, "s");
    rep.metric_push("injections_per_s", geomean(&rates), "1/s");
    rep.metric_push("programs_per_s", done.len() as f64 / cpu, "1/s");
    rep.metric_push("request_ms_p50", percentile(&lat, 50.0), "ms");
    rep.metric_push("request_ms_p90", percentile(&lat, 90.0), "ms");
    let rss: Vec<f64> = done.iter().map(|d| d.peak_rss_mb).collect();
    rep.prov(
        "peak_rss_reset",
        Json::Bool(done.iter().all(|d| d.rss_reset)),
    );
    rep.metric_push("peak_rss_mb", median(&rss), "MiB");
}

/// The per-layer metrics `BENCHMARK.json` lists, in its order.
pub const PER_LAYER: [(&str, &str); 28] = [
    ("backend.compile_ms", "ms"),
    ("backend.asm_insts", "count"),
    ("backend.o1_insts_removed", "count"),
    ("eddi.protect_ms", "ms"),
    ("eddi.insts_added", "count"),
    ("asm.coverage_ms", "ms"),
    ("asm.lint_ms", "ms"),
    ("asm.decided_site_share", "ratio"),
    ("cpu.load_ms", "ms"),
    ("cpu.decode_ms", "ms"),
    ("cpu.golden_ms", "ms"),
    ("cpu.golden_dyn_insts", "count"),
    ("cpu.golden_cycles", "count"),
    ("faultsim.campaign_ms", "ms"),
    ("faultsim.golden_walk_ms", "ms"),
    ("faultsim.snapshot_capture_ms", "ms"),
    ("faultsim.snapshot_restore_ms", "ms"),
    ("faultsim.replay_ms", "ms"),
    ("faultsim.snapshots_taken", "count"),
    ("faultsim.steps_executed", "count"),
    ("faultsim.steps_saved_share", "ratio"),
    ("faultsim.worker_balance", "ratio"),
    ("faultsim.timeout_share", "ratio"),
    ("faultsim.flight_events", "count"),
    ("faultsim.stratified_ms", "ms"),
    ("faultsim.incremental_ms", "ms"),
    ("faultsim.reuse_share", "ratio"),
    ("bench.trace_overhead_pct", "%"),
];

/// Per-layer metrics from the recorded spans and counters.
///
/// A layer's time or count is averaged over the root spans (set-up
/// rounds or requests) that call into that layer: the sweeps compile
/// in set-up, so their `backend.compile_ms` is per set-up round, while
/// the edit loop's is per request.  Shares are ratios of sums.
fn layer_metrics(t: &Tracer, rep: &mut Report) {
    let mut roots_of: BTreeMap<&str, std::collections::BTreeSet<usize>> = BTreeMap::new();
    let mut span_ms: BTreeMap<&str, f64> = BTreeMap::new();
    let mut child_ms: BTreeMap<usize, f64> = BTreeMap::new();
    for s in &t.spans {
        let Some(root) = s.parent else { continue };
        let ms = (s.end_ns - s.start_ns) as f64 / 1e6;
        roots_of.entry(layer(s.name)).or_default().insert(root);
        *span_ms.entry(s.name).or_default() += ms;
        *child_ms.entry(root).or_default() += ms;
    }
    let mut sums: BTreeMap<&str, f64> = BTreeMap::new();
    for &(root, name, v) in &t.counters {
        roots_of.entry(layer(name)).or_default().insert(root);
        *sums.entry(name).or_default() += v;
    }
    let per_root = |name: &str, total: f64| {
        let n = roots_of.get(layer(name)).map_or(0, |r| r.len());
        if n == 0 {
            0.0
        } else {
            total / n as f64
        }
    };
    let sum = |k: &str| sums.get(k).copied().unwrap_or(0.0);
    let share = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let bench_self_ms: f64 = t
        .spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.parent.is_none())
        .map(|(i, s)| {
            (s.end_ns - s.start_ns) as f64 / 1e6 - child_ms.get(&i).copied().unwrap_or(0.0)
        })
        .sum();

    // Inclusive campaign time, whichever executor ran it.
    let campaign_ms: f64 = [
        "faultsim.campaign",
        "faultsim.stratified",
        "faultsim.incremental",
    ]
    .iter()
    .map(|k| span_ms.get(k).copied().unwrap_or(0.0))
    .sum();
    let overhead = rep.metric("bench.trace_overhead_pct").unwrap_or(0.0);
    rep.metrics.clear();
    for (name, unit) in PER_LAYER {
        let value = match name {
            "asm.decided_site_share" => share(sum("asm.decided_sites"), sum("asm.sites")),
            "faultsim.steps_saved_share" => share(
                sum("faultsim.steps_saved"),
                sum("faultsim.steps_saved") + sum("faultsim.steps_executed"),
            ),
            "faultsim.worker_balance" => {
                share(sum("faultsim.worker_balance"), sum("faultsim.campaigns"))
            }
            "faultsim.timeout_share" => share(sum("faultsim.timeouts"), sum("faultsim.injections")),
            "faultsim.reuse_share" => share(
                sum("faultsim.incremental_reused"),
                sum("faultsim.incremental_injections"),
            ),
            "faultsim.campaign_ms" => per_root(name, campaign_ms),
            "bench.trace_overhead_pct" => overhead,
            _ => match name.strip_suffix("_ms").and_then(|call| span_ms.get(call)) {
                Some(&ms) => per_root(name, ms),
                None => per_root(name, sum(name)),
            },
        };
        rep.metric_push(name, value, unit);
    }
    rep.prov("bench_self_ms", Json::Num(bench_self_ms));
    rep.prov("spans", Json::Int(t.spans.len() as i64));
}

/// Resets this process's peak resident set (`VmHWM`) to its current
/// resident set; false if the kernel refused.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set (`VmHWM`) of this process in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs one workload and returns everything it measured.
pub fn run(cfg: &Config) -> Report {
    let mut t = Tracer::new();
    let mut rep = Report::default();
    match cfg.workload {
        Workload::FerrumSweep | Workload::BaselineSweep => run_sweep(cfg, &mut t, &mut rep),
        Workload::EditLoop => run_edit_loop(cfg, &mut t, &mut rep),
    };
    rep.det("failed_share", Json::Num(rep.failed_share()));
    if cfg.trace {
        layer_metrics(&t, &mut rep);
        rep.spans = std::mem::take(&mut t.spans);
    } else {
        let det = |k: &str| {
            rep.deterministic_value(k)
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        let (overhead, size) = (det("sim_overhead_pct"), det("code_size_ratio"));
        rep.metric_push("sim_overhead_pct", overhead, "%");
        rep.metric_push("code_size_ratio", size, "ratio");
    }
    let w = cfg.workload;
    rep.prov("workload", Json::Str(w.name().to_owned()));
    rep.prov("seed", Json::Str(cfg.seed.to_string()));
    rep.prov("seconds", Json::Num(cfg.seconds));
    rep.prov("trace", Json::Bool(cfg.trace));
    rep.prov("samples_per_campaign", Json::Int(w.samples() as i64));
    rep.prov("threads", Json::Int(cfg.threads as i64));
    rep.prov("opt", Json::Str(w.opt().label().to_owned()));
    rep.prov("engine", Json::Str("decoded".to_owned()));
    rep.prov(
        "executor",
        Json::Str(
            match w {
                Workload::EditLoop => "stratified+incremental",
                _ => "snapshot",
            }
            .to_owned(),
        ),
    );
    rep.prov("recorder", Json::Bool(w.recorder()));
    rep
}
