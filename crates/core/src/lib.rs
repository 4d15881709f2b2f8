//! # ferrum — the public API of the FERRUM reproduction
//!
//! One façade over the whole stack built for the DSN 2024 paper *"A Fast
//! Low-Level Error Detection Technique"*:
//!
//! * [`pipeline::Pipeline`] — compile a MIR module and protect it with
//!   any [`Technique`] (none / IR-level EDDI / hybrid assembly EDDI /
//!   FERRUM), then load it for simulation;
//! * [`experiment`] — the paper's evaluation loop: fault-injection
//!   campaigns (SDC coverage, Fig. 10), runtime overhead (Fig. 11), and
//!   root-cause attribution (§IV-B1) over the benchmark suite;
//! * re-exports of the most used types from the underlying crates.
//!
//! ## Quickstart
//!
//! ```
//! use ferrum::pipeline::Pipeline;
//! use ferrum::Technique;
//! use ferrum_workloads::{workload, Scale};
//!
//! # fn main() -> Result<(), ferrum::Error> {
//! let bfs = workload("bfs").expect("in catalog");
//! let module = bfs.build(Scale::Test);
//!
//! let pipeline = Pipeline::new();
//! let raw = pipeline.protect(&module, Technique::None)?;
//! let protected = pipeline.protect(&module, Technique::Ferrum)?;
//!
//! let raw_run = pipeline.load(&raw)?.run(None);
//! let prot_run = pipeline.load(&protected)?.run(None);
//! assert_eq!(raw_run.output, prot_run.output); // protection is transparent
//! assert_eq!(raw_run.output, bfs.oracle(Scale::Test));
//! # Ok(())
//! # }
//! ```

pub mod attribution;
pub mod error;
pub mod experiment;
pub mod flight;
pub mod json;
pub mod pipeline;
pub mod profile;
pub mod report;

pub use attribution::{attribute_overhead, OverheadAttribution};
pub use error::Error;
pub use experiment::{evaluate_workload, EvalConfig, TechniqueReport, WorkloadReport};
pub use pipeline::Pipeline;
pub use profile::{diff_profile, DiffProfile, SiteOverhead};

pub use ferrum_asm::analysis::coverage::{
    CoverageMap, FunctionCoverage, SiteCoverage, StaticVerdict, VerdictCounts,
};
pub use ferrum_asm::analysis::summary::{
    function_hash, EscapeFootprint, EscapeRollup, FunctionSummary, SiteSummary, SummaryMap,
    UnitSummary,
};
pub use ferrum_asm::provenance::Mechanism;
pub use ferrum_backend::{OptLevel, PassStats};
pub use ferrum_cpu::cost::CostModel;
pub use ferrum_cpu::decoded::{DecodedCpu, DecodedMachine};
pub use ferrum_cpu::outcome::{RunResult, StopReason};
pub use ferrum_cpu::run::{MechCount, MechCounts};
pub use ferrum_cpu::{PcCount, PcProfile};
pub use ferrum_eddi::Technique;
pub use ferrum_faultsim::campaign::{
    CampaignConfig, CampaignResult, CampaignStats, DetectionLatency, Outcome, SnapshotPolicy,
    WorkerStats,
};
pub use ferrum_faultsim::compose::{
    compose, run_campaign_incremental_on, run_campaign_stratified_on, CampaignCache,
    ComposedFunction, ComposedMap, ComposedSite, FunctionShard, ShardDraw,
};
pub use ferrum_faultsim::engine::{Engine, EngineKind, EngineMachine};
pub use ferrum_faultsim::flight::{
    install as install_flight_recorder, program_signature, resume_campaign_from_journal,
    uninstall as uninstall_flight_recorder, CampaignEvent, CampaignFingerprint, FlightEvent,
    FlightPolicy, FlightRecorder, FlightSink, JournalSnapshot, MemorySink, OutcomeTallies,
    ProgressSnapshot, ShardRecord, Stage, TeeSink,
};
pub use ferrum_faultsim::forensics::{
    explain_unknown_sites, forensic_replay_on, run_campaign_forensic_on, CheckerEscape, Divergence,
    EscapeReason, ForensicConfig, ForensicRecord, ForensicsReport, KillWindow, TaintTimeline,
    UnknownSiteExplanation,
};
pub use ferrum_workloads::{all_workloads, workload, Scale, Workload};
