//! The paper's evaluation loop: per-benchmark SDC coverage (Fig. 10),
//! runtime overhead (Fig. 11), and root-cause attribution (§IV-B1).

use ferrum_backend::{OptLevel, PassStats};
use ferrum_eddi::Technique;
use ferrum_faultsim::campaign::{
    run_campaign_snapshot_on, CampaignConfig, CampaignResult, SnapshotPolicy,
};
use ferrum_faultsim::engine::Engine;
use ferrum_faultsim::rootcause::{attribute_sdcs, RootCauseReport};
use ferrum_faultsim::stats::{runtime_overhead, sdc_coverage};
use ferrum_workloads::{Scale, Workload};

use crate::{Error, Pipeline};

/// Evaluation parameters.
#[derive(Debug, Clone, Copy)]
pub struct EvalConfig {
    /// Faults sampled per configuration (the paper uses 1000).
    pub samples: usize,
    /// Campaign seed.
    pub seed: u64,
    /// Problem-size scale.
    pub scale: Scale,
    /// Backend optimization level.  The config is authoritative:
    /// [`evaluate_workload`] compiles every technique at this level
    /// regardless of the pipeline's own setting, so a single `--opt`
    /// flag steers the whole evaluation.
    pub opt: OptLevel,
}

impl Default for EvalConfig {
    fn default() -> EvalConfig {
        EvalConfig {
            samples: 1000,
            seed: 0xFE44,
            scale: Scale::Paper,
            opt: OptLevel::O0,
        }
    }
}

/// Measurements for one technique on one benchmark.
#[derive(Debug, Clone)]
pub struct TechniqueReport {
    /// The technique.
    pub technique: Technique,
    /// Fault-free simulated cycles.
    pub cycles: u64,
    /// Runtime overhead versus the unprotected build.
    pub overhead: f64,
    /// SDC probability under the campaign.
    pub sdc_prob: f64,
    /// SDC coverage versus the unprotected build (the Fig. 10 metric).
    pub coverage: f64,
    /// Static instruction count of the protected program.
    pub static_insts: usize,
    /// Fault-free dynamic instruction count.
    pub dyn_insts: u64,
    /// Full campaign counts.
    pub campaign: CampaignResult,
    /// SDCs attributed to instruction provenance.
    pub rootcause: RootCauseReport,
    /// Backend pass statistics for this technique's compile
    /// (all-zero at `-O0`).
    pub pass_stats: PassStats,
}

/// Everything measured for one benchmark.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    /// Benchmark name.
    pub name: String,
    /// Unprotected cycles.
    pub raw_cycles: u64,
    /// Unprotected static instruction count.
    pub raw_static_insts: usize,
    /// Unprotected SDC probability.
    pub raw_sdc_prob: f64,
    /// Optimization level every program in this report was compiled at.
    pub opt: OptLevel,
    /// Backend pass statistics for the unprotected compile.
    pub raw_pass_stats: PassStats,
    /// One report per protected technique, in
    /// [`Technique::PROTECTED`] order.
    pub techniques: Vec<TechniqueReport>,
}

impl WorkloadReport {
    /// The report for `t`.
    pub fn technique(&self, t: Technique) -> Option<&TechniqueReport> {
        self.techniques.iter().find(|r| r.technique == t)
    }
}

/// Runs the full evaluation (all techniques) for one benchmark.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn evaluate_workload(
    pipeline: &Pipeline,
    w: &Workload,
    cfg: EvalConfig,
) -> Result<WorkloadReport, Error> {
    let module = w.build(cfg.scale);
    let golden = w.oracle(cfg.scale);
    let pipeline = &pipeline.clone().with_opt_level(cfg.opt);

    let (raw_prog, raw_pass_stats) = pipeline.protect_with_pass_stats(&module, Technique::None)?;
    let raw_cpu = pipeline.load(&raw_prog)?;
    let raw_profile = raw_cpu.profile();
    assert_eq!(
        raw_profile.result.output, golden,
        "{}: simulation diverges from oracle",
        w.name
    );
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Snapshot-accelerated engine: byte-identical outcomes to the
    // serial executor, with prefix sharing and work stealing.
    let raw_campaign = run_campaign_snapshot_on(
        Engine::Interpreter(&raw_cpu),
        &raw_profile,
        CampaignConfig {
            samples: cfg.samples,
            seed: cfg.seed,
        },
        threads,
        SnapshotPolicy::default(),
    );
    let raw_sdc_prob = raw_campaign.sdc_prob();
    let raw_cycles = raw_profile.result.cycles;

    let mut techniques = Vec::new();
    for (k, t) in Technique::PROTECTED.into_iter().enumerate() {
        let (prog, pass_stats) = pipeline.protect_with_pass_stats(&module, t)?;
        let cpu = pipeline.load(&prog)?;
        let profile = cpu.profile();
        assert_eq!(
            profile.result.output, golden,
            "{}/{t}: protected program diverges from oracle",
            w.name
        );
        let campaign = run_campaign_snapshot_on(
            Engine::Interpreter(&cpu),
            &profile,
            CampaignConfig {
                samples: cfg.samples,
                seed: cfg.seed.wrapping_add(k as u64 + 1),
            },
            threads,
            SnapshotPolicy::default(),
        );
        let rootcause = attribute_sdcs(&cpu, &profile, &campaign);
        techniques.push(TechniqueReport {
            technique: t,
            cycles: profile.result.cycles,
            overhead: runtime_overhead(raw_cycles, profile.result.cycles),
            sdc_prob: campaign.sdc_prob(),
            coverage: sdc_coverage(raw_sdc_prob, campaign.sdc_prob()),
            static_insts: prog.static_inst_count(),
            dyn_insts: profile.result.dyn_insts,
            campaign,
            rootcause,
            pass_stats,
        });
    }
    Ok(WorkloadReport {
        name: w.name.to_owned(),
        raw_cycles,
        raw_static_insts: raw_prog.static_inst_count(),
        raw_sdc_prob,
        opt: cfg.opt,
        raw_pass_stats,
        techniques,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ferrum_workloads::workload;

    #[test]
    fn evaluation_reproduces_the_papers_shape_on_one_benchmark() {
        let pipeline = Pipeline::new();
        let w = workload("pathfinder").expect("exists");
        let cfg = EvalConfig {
            samples: 400,
            seed: 99,
            scale: Scale::Test,
            ..EvalConfig::default()
        };
        let report = evaluate_workload(&pipeline, &w, cfg).expect("evaluates");

        assert!(report.raw_sdc_prob > 0.0, "raw program must show SDCs");

        let ir = report.technique(Technique::IrEddi).unwrap();
        let hybrid = report.technique(Technique::HybridAsmEddi).unwrap();
        let ferrum = report.technique(Technique::Ferrum).unwrap();

        // Coverage: asm-level techniques are full; IR level is not.
        assert!((hybrid.coverage - 1.0).abs() < f64::EPSILON, "{hybrid:?}");
        assert!((ferrum.coverage - 1.0).abs() < f64::EPSILON, "{ferrum:?}");
        assert!(ir.coverage < 1.0, "IR-EDDI should leak: {ir:?}");

        // Overhead: FERRUM cheapest, hybrid most expensive.
        assert!(
            ferrum.overhead < ir.overhead,
            "{} vs {}",
            ferrum.overhead,
            ir.overhead
        );
        assert!(ferrum.overhead < hybrid.overhead);
        assert!(ir.overhead > 0.0 && hybrid.overhead > 0.0 && ferrum.overhead > 0.0);
    }
}
