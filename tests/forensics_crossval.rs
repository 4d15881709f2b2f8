//! Cross-validation of differential-replay forensics against campaign
//! ground truth — the acceptance contract of `ferrum-forensics`.
//!
//! Four halves, mirroring the acceptance criteria (DESIGN.md §5e):
//!
//! 1. **Replay is observational**: `run_campaign_forensic_on` is
//!    outcome-identical to the serial engine per seed, fault for
//!    fault, across every catalog workload × technique.
//! 2. **Every SDC is explained**: each analyzed SDC record locates its
//!    first architectural divergence exactly at the injected dynamic
//!    index, and at least 90% carry a classified escape reason (the
//!    engine achieves 100%; the floor leaves slack for future
//!    classifiers).
//! 3. **Explanations are internally consistent**: cumulative taint is
//!    monotone, the kill window contains the divergence, and the
//!    window closes no later than the corruption's arrival at the
//!    output.
//! 4. **Unknown sites get diagnosed**: statically-`Unknown` coverage
//!    sites that produced an SDC cross-link to a measured explanation.
//!
//! A seeded sweep re-checks the record invariants over random campaign
//! seeds.

use ferrum::{
    explain_unknown_sites, run_campaign_forensic_on, CampaignConfig, CoverageMap, ForensicConfig,
    Outcome, Pipeline, Technique,
};
use ferrum_faultsim::campaign::run_campaign;
use ferrum_faultsim::forensics::{EscapeReason, ForensicRecord, ForensicsReport};
use ferrum_faultsim::Engine;
use ferrum_rng::Rng64;
use ferrum_workloads::catalog::{all_workloads, Scale};

const SAMPLES: usize = 200;
const SEED: u64 = 0xF0E2;

fn analyze(
    pipeline: &Pipeline,
    module: &ferrum_mir::module::Module,
    technique: Technique,
    outcomes: Vec<Outcome>,
) -> (
    ferrum::CampaignResult,
    ferrum::CampaignResult,
    ForensicsReport,
    Vec<ferrum::UnknownSiteExplanation>,
) {
    let prog = pipeline.protect(module, technique).expect("protects");
    let map = CoverageMap::analyze(&prog);
    let cpu = pipeline.load(&prog).expect("loads");
    let profile = cpu.profile();
    let cfg = CampaignConfig {
        samples: SAMPLES,
        seed: SEED,
    };
    let serial = run_campaign(&cpu, &profile, cfg);
    let fcfg = ForensicConfig {
        outcomes,
        max_records: usize::MAX,
        ..ForensicConfig::default()
    };
    let (forensic, report) =
        run_campaign_forensic_on(Engine::Interpreter(&cpu), &profile, cfg, &fcfg);
    let expl = explain_unknown_sites(&profile, &map, &report);
    (serial, forensic, report, expl)
}

/// The consistency contract for one record (halves 2 and 3 above).
fn check_record(ctx: &str, r: &ForensicRecord) {
    let d = r
        .divergence
        .unwrap_or_else(|| panic!("{ctx}: record has no divergence"));
    assert_eq!(
        d.dyn_index, r.fault.dyn_index,
        "{ctx}: divergence must sit at the injected site"
    );
    assert!(
        r.primary_reason.is_some() || r.outcome != Outcome::Sdc,
        "{ctx}: every SDC must be classified"
    );
    let mut prev = 0usize;
    let mut prev_dyn = 0u64;
    for (i, s) in r.taint.samples.iter().enumerate() {
        assert!(
            s.cumulative >= prev,
            "{ctx}: cumulative taint must be monotone"
        );
        assert!(
            i == 0 || s.dyn_index > prev_dyn,
            "{ctx}: taint samples must advance in time"
        );
        prev = s.cumulative;
        prev_dyn = s.dyn_index;
    }
    assert!(
        r.taint.propagation_depth >= 1,
        "{ctx}: a bit flip taints at least one location"
    );
    if let Some(w) = &r.kill_window {
        if !w.escaped {
            assert!(
                w.contains(d.dyn_index),
                "{ctx}: kill window [{}, {}] must contain the divergence at {}",
                w.start,
                w.end,
                d.dyn_index
            );
            if let Some(out) = r.taint.time_to_output {
                assert!(
                    w.end <= out,
                    "{ctx}: repairs past the output write ({out}) cannot kill the fault"
                );
            }
        }
    }
}

#[test]
fn forensic_campaigns_are_outcome_identical_for_all_workloads() {
    let pipeline = Pipeline::new();
    for w in all_workloads() {
        let module = w.build(Scale::Test);
        for technique in [
            Technique::None,
            Technique::IrEddi,
            Technique::HybridAsmEddi,
            Technique::Ferrum,
        ] {
            let (serial, forensic, _, _) =
                analyze(&pipeline, &module, technique, vec![Outcome::Sdc]);
            assert_eq!(
                serial, forensic,
                "{}/{technique}: forensic replay changed campaign outcomes",
                w.name
            );
        }
    }
}

#[test]
fn every_sdc_is_located_and_classified() {
    let pipeline = Pipeline::new();
    let mut total_sdc = 0usize;
    for w in all_workloads() {
        let module = w.build(Scale::Test);
        // IR-EDDI leaks SDCs through backend glue; the raw build leaks
        // everywhere.  Between them every workload contributes records.
        for technique in [Technique::None, Technique::IrEddi] {
            let (_, forensic, report, _) =
                analyze(&pipeline, &module, technique, vec![Outcome::Sdc]);
            assert_eq!(
                report.matching_total, forensic.sdc,
                "{}/{technique}: every SDC must be selected",
                w.name
            );
            assert_eq!(
                report.analyzed(),
                report.matching_total,
                "{}/{technique}: every selected SDC must be analyzed",
                w.name
            );
            assert_eq!(
                report.located(),
                report.analyzed(),
                "{}/{technique}: every record must locate its divergence",
                w.name
            );
            assert!(
                report.classified() as f64 >= 0.9 * report.analyzed() as f64,
                "{}/{technique}: at least 90% of records must be classified ({}/{})",
                w.name,
                report.classified(),
                report.analyzed()
            );
            total_sdc += forensic.sdc;
            for r in &report.records {
                check_record(&format!("{}/{technique}", w.name), r);
            }
            let hist_sum: usize = report.reason_histogram.iter().map(|&(_, n)| n).sum();
            assert_eq!(
                hist_sum,
                report.classified(),
                "{}/{technique}: histogram must account for every classification",
                w.name
            );
        }
    }
    assert!(
        total_sdc > 0,
        "the suite must exercise real SDCs to mean anything"
    );
}

#[test]
fn non_sdc_outcomes_replay_consistently() {
    let pipeline = Pipeline::new();
    let module = ferrum_workloads::workload("pathfinder")
        .expect("exists")
        .build(Scale::Test);
    let (_, forensic, report, _) = analyze(
        &pipeline,
        &module,
        Technique::Ferrum,
        Outcome::ALL.to_vec(),
    );
    assert_eq!(report.matching_total, forensic.total());
    assert_eq!(report.analyzed(), report.matching_total);
    for r in &report.records {
        check_record("pathfinder/all-outcomes", r);
        if r.outcome == Outcome::Benign {
            assert_eq!(
                r.taint.time_to_output, None,
                "a benign fault never corrupts the output"
            );
        }
        if r.outcome == Outcome::Detected {
            assert!(
                r.checkers
                    .iter()
                    .all(|c| c.reason != EscapeReason::CheckerNotReached),
                "a detected fault by definition reached a checker"
            );
        }
    }
}

#[test]
fn unknown_coverage_sites_cross_link_to_explanations() {
    let pipeline = Pipeline::new();
    let mut linked = 0usize;
    for w in all_workloads() {
        let module = w.build(Scale::Test);
        let (_, _, report, expl) =
            analyze(&pipeline, &module, Technique::IrEddi, vec![Outcome::Sdc]);
        // Every explanation must point back to an analyzed SDC record.
        for e in &expl {
            let rec = report
                .records
                .iter()
                .find(|r| r.fault.dyn_index == e.dyn_index && r.fault.raw_bit == e.raw_bit)
                .unwrap_or_else(|| panic!("{}: dangling explanation", w.name));
            assert_eq!(rec.outcome, Outcome::Sdc);
            assert_eq!(e.reason, rec.primary_reason);
        }
        linked += expl.len();
    }
    // The suite as a whole must produce at least one cross-link — an
    // IR-EDDI SDC on a site static analysis could not decide.
    assert!(
        linked > 0,
        "expected at least one statically-unknown SDC site across the catalog"
    );
}

/// The record invariants re-checked over random campaign seeds: 8
/// seeds below 1 000 000, drawn from a fixed `ferrum-rng` stream.
#[test]
fn records_stay_consistent_over_seeds() {
    let pipeline = Pipeline::new();
    let module = ferrum_workloads::workload("bfs")
        .expect("exists")
        .build(Scale::Test);
    let prog = pipeline
        .protect(&module, Technique::IrEddi)
        .expect("protects");
    let cpu = pipeline.load(&prog).expect("loads");
    let profile = cpu.profile();
    let fcfg = ForensicConfig {
        outcomes: vec![Outcome::Sdc],
        max_records: usize::MAX,
        ..ForensicConfig::default()
    };
    let mut cases = Rng64::seed_from_u64(0xF0E2_5EED);
    for _ in 0..8 {
        let seed = cases.gen_range(0..1_000_000u64);
        let cfg = CampaignConfig { samples: 60, seed };
        let serial = run_campaign(&cpu, &profile, cfg);
        let (forensic, report) =
            run_campaign_forensic_on(Engine::Interpreter(&cpu), &profile, cfg, &fcfg);
        assert_eq!(serial, forensic, "bfs/seed{seed}");
        for r in &report.records {
            check_record(&format!("bfs/seed{seed}"), r);
        }
    }
}
