//! Campaign-stats schema pinning (docs/campaign-schema.md): every
//! executor on every engine emits the SAME `stats` JSON shape, with
//! worker accounting and detection latency filled in uniformly.
//!
//! This is the regression fence for the PR 7 gaps: the stratified and
//! incremental executors used to report per-worker injection counts
//! that excluded reused faults, so the per-worker sum disagreed with
//! `stats.injections` on exactly those two executors.

use ferrum::json::{Json, ToJson};
use ferrum::{
    resume_campaign_from_journal, CampaignConfig, CampaignFingerprint, CampaignResult, CoverageMap,
    EngineKind, ForensicConfig, JournalSnapshot, OutcomeTallies, Pipeline, ShardRecord,
    SnapshotPolicy, Technique,
};
use ferrum_faultsim::campaign::{
    exhaustive_campaign_on, run_campaign_on, run_campaign_parallel_on, run_campaign_pruned_on,
    run_campaign_snapshot_on, run_double_campaign_on,
};
use ferrum_faultsim::compose::{run_campaign_incremental_on, run_campaign_stratified_on};
use ferrum_faultsim::forensics::run_campaign_forensic_on;

/// Key list of the `stats` object, in emission order — update
/// docs/campaign-schema.md when this changes.
const STATS_KEYS: [&str; 18] = [
    "engine",
    "wall_nanos",
    "injections",
    "injections_per_sec",
    "threads",
    "snapshots_taken",
    "snapshot_hits",
    "snapshot_hit_rate",
    "steps_saved",
    "steps_executed",
    "steps_saved_ratio",
    "per_worker",
    "worker_balance",
    "detection_latency",
    "pruned_sites",
    "prune_rate",
    "reused_sites",
    "reuse_rate",
];

fn keys(j: &Json) -> Vec<String> {
    match j {
        Json::Obj(m) => m.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("stats is not an object: {other:?}"),
    }
}

fn check_shape(label: &str, engine: EngineKind, result: &CampaignResult) {
    let j = result.stats.to_json();
    assert_eq!(keys(&j), STATS_KEYS, "{label}: stats keys drifted");
    assert_eq!(
        j.get("engine").and_then(Json::as_str),
        Some(engine.label()),
        "{label}: engine label"
    );

    // Worker accounting: every executor's per-worker injections sum to
    // the stats' injection counter, and balance stays in [0, 1].
    let workers = j
        .get("per_worker")
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("{label}: per_worker missing"));
    assert!(!workers.is_empty(), "{label}: no workers reported");
    let sum: u64 = workers
        .iter()
        .map(|w| w.get("injections").and_then(Json::as_u64).expect("worker injections"))
        .sum();
    let injections = j.get("injections").and_then(Json::as_u64).expect("injections");
    assert_eq!(sum, injections, "{label}: per-worker sum != injections");
    let balance = j.get("worker_balance").and_then(Json::as_f64).expect("balance");
    assert!((0.0..=1.0).contains(&balance), "{label}: balance {balance}");

    // Detection latency is always an object with its summary keys,
    // even when nothing was detected.
    let latency = j.get("detection_latency").expect("latency");
    for key in ["count", "p50", "p95", "max"] {
        assert!(latency.get(key).is_some(), "{label}: latency.{key} missing");
    }

    // Derived rates never leave [0, 1] or go non-finite.
    for key in [
        "snapshot_hit_rate",
        "steps_saved_ratio",
        "worker_balance",
        "prune_rate",
        "reuse_rate",
    ] {
        let v = j.get(key).and_then(Json::as_f64).expect(key);
        assert!((0.0..=1.0).contains(&v), "{label}: {key} = {v}");
    }
}

#[test]
fn every_executor_emits_the_same_stats_shape_on_both_engines() {
    let w = ferrum_workloads::workload("pathfinder").expect("in catalog");
    let module = w.build(ferrum_workloads::Scale::Test);
    let pipeline = Pipeline::new();
    let prog = pipeline.protect(&module, Technique::Ferrum).expect("protects");
    let coverage = CoverageMap::analyze(&prog);
    let cpu = pipeline.load(&prog).expect("loads");
    let profile = cpu.profile();
    // The exhaustive sweep injects into every listed site; a sparse
    // site list keeps it small.
    let mut sparse = profile.clone();
    sparse.sites = profile.sites.iter().step_by(257).copied().collect();
    let cfg = CampaignConfig {
        samples: 80,
        seed: 0xFE44,
    };

    for engine in EngineKind::ALL {
        let serial = engine.with_cpu(&cpu, |e| run_campaign_on(e, &profile, cfg));
        check_shape("serial", engine, &serial);

        let parallel =
            engine.with_cpu(&cpu, |e| run_campaign_parallel_on(e, &profile, cfg, 3));
        check_shape("parallel", engine, &parallel);

        let snapshot = engine.with_cpu(&cpu, |e| {
            run_campaign_snapshot_on(e, &profile, cfg, 2, SnapshotPolicy::default())
        });
        check_shape("snapshot", engine, &snapshot);

        let pruned =
            engine.with_cpu(&cpu, |e| run_campaign_pruned_on(e, &profile, cfg, &coverage));
        check_shape("pruned", engine, &pruned);

        let (stratified, cache) =
            engine.with_cpu(&cpu, |e| run_campaign_stratified_on(e, &profile, cfg, &prog));
        check_shape("stratified", engine, &stratified);

        // The PR 7 gap: incremental runs reuse cached outcomes, and the
        // reused faults must still count toward per-worker injections.
        let (incremental, _) = engine.with_cpu(&cpu, |e| {
            run_campaign_incremental_on(e, &profile, cfg, &prog, &cache)
        });
        check_shape("incremental", engine, &incremental);
        assert!(
            incremental.stats.reused_sites > 0,
            "warm incremental run reused nothing"
        );

        let (forensic, _) = engine.with_cpu(&cpu, |e| {
            run_campaign_forensic_on(e, &profile, cfg, &ForensicConfig::default())
        });
        check_shape("forensic", engine, &forensic);

        let double = engine.with_cpu(&cpu, |e| run_double_campaign_on(e, &profile, cfg));
        check_shape("double", engine, &double);

        let exhaustive = engine.with_cpu(&cpu, |e| exhaustive_campaign_on(e, &sparse, 1));
        check_shape("exhaustive", engine, &exhaustive);

        let journal = first_shard_journal(&serial, &profile, cfg);
        let resumed = engine
            .with_cpu(&cpu, |e| {
                resume_campaign_from_journal(e, &profile, cfg, &journal)
            })
            .expect("resumes");
        check_shape("resume", engine, &resumed);
        assert!(resumed.stats.reused_sites > 0, "resume replayed nothing");
    }
}

/// A journal holding the first shard of `serial`, built by hand: the
/// flight recorder is process-global, and this file's tests run
/// concurrently.
fn first_shard_journal(
    serial: &CampaignResult,
    profile: &ferrum_cpu::run::Profile,
    cfg: CampaignConfig,
) -> JournalSnapshot {
    let len = cfg.samples / 4;
    let records = serial.records[..len].to_vec();
    let mut tallies = OutcomeTallies::default();
    for &(_, o) in &records {
        tallies.add(o);
    }
    JournalSnapshot {
        fingerprint: CampaignFingerprint {
            executor: "serial".to_owned(),
            samples: cfg.samples,
            seed: cfg.seed,
            sites: profile.sites.len(),
            golden_dyn_insts: profile.result.dyn_insts,
            ..CampaignFingerprint::default()
        },
        total: cfg.samples,
        shard_size: len,
        shards: vec![ShardRecord {
            shard: 0,
            start: 0,
            len,
            seed: cfg.seed,
            program_hash: 0,
            tallies,
            records,
        }],
        finished: false,
    }
}

#[test]
fn zero_sample_stats_keep_the_schema_without_dividing_by_zero() {
    let w = ferrum_workloads::workload("bfs").expect("in catalog");
    let module = w.build(ferrum_workloads::Scale::Test);
    let pipeline = Pipeline::new();
    let prog = pipeline.protect(&module, Technique::None).expect("protects");
    let cpu = pipeline.load(&prog).expect("loads");
    let profile = cpu.profile();
    let cfg = CampaignConfig { samples: 0, seed: 1 };

    let result = run_campaign_on(ferrum_faultsim::Engine::Interpreter(&cpu), &profile, cfg);
    let j = result.stats.to_json();
    assert_eq!(keys(&j), STATS_KEYS, "zero-sample stats keys drifted");
    for key in [
        "injections_per_sec",
        "snapshot_hit_rate",
        "steps_saved_ratio",
        "worker_balance",
        "prune_rate",
        "reuse_rate",
    ] {
        let v = j.get(key).and_then(Json::as_f64).expect(key);
        assert!(v.is_finite(), "zero-sample {key} = {v}");
    }
}
