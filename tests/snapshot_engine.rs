//! Cross-executor and cross-engine determinism: the serial,
//! work-stealing, snapshot-accelerated, and pruned campaign executors
//! must produce identical `CampaignResult`s (same aggregate counts AND
//! same per-fault outcome records, in sampling order) for the same
//! seed — across workloads, protection profiles, thread counts,
//! snapshot policies, and **execution engines** (reference interpreter
//! vs. the decode-once flattened engine).

use ferrum::{
    CampaignConfig, CampaignResult, DecodedCpu, Engine, Pipeline, SnapshotPolicy, Technique,
};
use ferrum_cpu::run::Cpu;
use ferrum_cpu::Profile;
use ferrum_faultsim::campaign::{
    exhaustive_campaign_on, run_campaign, run_campaign_on, run_campaign_parallel_on,
    run_campaign_snapshot_on, run_double_campaign_on,
};
use ferrum_workloads::{all_workloads, workload, Scale};

fn load(name: &str, t: Technique) -> (Cpu, Profile) {
    load_opt(name, t, ferrum::OptLevel::O0)
}

fn load_opt(name: &str, t: Technique, opt: ferrum::OptLevel) -> (Cpu, Profile) {
    let w = workload(name).expect("in catalog");
    let module = w.build(Scale::Test);
    let pipeline = Pipeline::new().with_opt_level(opt);
    let prog = pipeline.protect(&module, t).expect("protects");
    let cpu = pipeline.load(&prog).expect("loads");
    let profile = cpu.profile();
    (cpu, profile)
}

fn assert_identical(a: &CampaignResult, b: &CampaignResult, what: &str) {
    assert_eq!(a.records, b.records, "{what}: per-fault records differ");
    assert_eq!(a, b, "{what}: aggregate counts differ");
    assert_eq!(
        a.stats.latency, b.stats.latency,
        "{what}: latency distributions differ"
    );
}

#[test]
fn all_engines_agree_across_workloads_and_profiles() {
    // The full determinism matrix: 2 workloads × 2 protection profiles
    // × {1, 4} threads × {stealing, snapshot} executors × {interpreter,
    // decoded} engines, all against the serial interpreter reference,
    // plus double-fault and exhaustive campaigns across engines.
    // The engine AND the executor are implementation details.
    for name in ["knn", "pathfinder"] {
        for technique in [Technique::None, Technique::Ferrum] {
            let (cpu, profile) = load(name, technique);
            let decoded = DecodedCpu::new(&cpu);
            let cfg = CampaignConfig {
                samples: 300,
                seed: 0xDECADE,
            };
            let what = format!("{name}/{technique}");

            let serial = run_campaign(&cpu, &profile, cfg);
            for engine in [Engine::Interpreter(&cpu), Engine::Decoded(&decoded)] {
                let kind = engine.kind().label();
                assert_identical(
                    &run_campaign_on(engine, &profile, cfg),
                    &serial,
                    &format!("{what} serial/{kind}"),
                );
                for threads in [1, 4] {
                    let stealing = run_campaign_parallel_on(engine, &profile, cfg, threads);
                    assert_identical(
                        &serial,
                        &stealing,
                        &format!("{what} steal×{threads}/{kind}"),
                    );
                    let snap = run_campaign_snapshot_on(
                        engine,
                        &profile,
                        cfg,
                        threads,
                        SnapshotPolicy::default(),
                    );
                    assert_identical(&serial, &snap, &format!("{what} snap×{threads}/{kind}"));
                }
            }

            // Double-fault pairs and the exhaustive sweep: the same plan
            // on both engines.  The sweep injects into every listed
            // site, so it runs over a sparse site list.
            let mut sparse = profile.clone();
            sparse.sites = profile.sites.iter().step_by(199).copied().collect();
            let interp = Engine::Interpreter(&cpu);
            let dec = Engine::Decoded(&decoded);
            assert_identical(
                &run_double_campaign_on(dec, &profile, cfg),
                &run_double_campaign_on(interp, &profile, cfg),
                &format!("{what} double/decoded"),
            );
            assert_identical(
                &exhaustive_campaign_on(dec, &sparse, 2),
                &exhaustive_campaign_on(interp, &sparse, 2),
                &format!("{what} exhaustive/decoded"),
            );
        }
    }
}

#[test]
fn decoded_engine_is_byte_identical_across_the_whole_catalog() {
    // Every catalog workload × every technique: campaign outcomes per
    // seed must not depend on the engine.  (Run + profile identity over
    // the same sweep is `ferrum-cpu --selfcheck` in tier-1.)
    for w in all_workloads() {
        for technique in [
            Technique::None,
            Technique::IrEddi,
            Technique::HybridAsmEddi,
            Technique::Ferrum,
        ] {
            let (cpu, profile) = load(w.name, technique);
            let decoded = DecodedCpu::new(&cpu);
            let cfg = CampaignConfig {
                samples: 60,
                seed: 0xFE44_0006,
            };
            assert_identical(
                &run_campaign_on(Engine::Decoded(&decoded), &profile, cfg),
                &run_campaign(&cpu, &profile, cfg),
                &format!("{}/{technique}", w.name),
            );
        }
    }
}

#[test]
fn engines_and_executors_agree_on_optimized_programs() {
    // The -O1 pass bundle rewires register flow and deletes frame
    // round-trips; the decoded engine's superinstruction fusion and
    // the snapshot executor must stay byte-identical on that output
    // too, for raw and protected programs alike.
    for name in ["needle", "kmeans"] {
        for technique in [Technique::None, Technique::IrEddi, Technique::Ferrum] {
            let (cpu, profile) = load_opt(name, technique, ferrum::OptLevel::O1);
            let decoded = DecodedCpu::new(&cpu);
            let cfg = CampaignConfig {
                samples: 200,
                seed: 0x01F0_2024,
            };
            let what = format!("{name}/{technique}@O1");

            let serial = run_campaign(&cpu, &profile, cfg);
            assert_identical(
                &run_campaign_on(Engine::Decoded(&decoded), &profile, cfg),
                &serial,
                &format!("{what} decoded"),
            );
            for engine in [Engine::Interpreter(&cpu), Engine::Decoded(&decoded)] {
                let kind = engine.kind().label();
                assert_identical(
                    &run_campaign_snapshot_on(engine, &profile, cfg, 4, SnapshotPolicy::default()),
                    &serial,
                    &format!("{what} snap×4/{kind}"),
                );
            }
        }
    }
}

#[test]
fn snapshot_policy_never_changes_outcomes() {
    let (cpu, profile) = load("bfs", Technique::Ferrum);
    let cfg = CampaignConfig {
        samples: 200,
        seed: 7,
    };
    let serial = run_campaign(&cpu, &profile, cfg);
    for policy in [
        SnapshotPolicy::default(),
        SnapshotPolicy {
            max_snapshots: 1,
            min_interval: 1,
        },
        SnapshotPolicy {
            max_snapshots: 512,
            min_interval: 8,
        },
        // Degenerate: no snapshots at all — pure re-execution.
        SnapshotPolicy {
            max_snapshots: 0,
            min_interval: 1,
        },
    ] {
        let snap = run_campaign_snapshot_on(Engine::Interpreter(&cpu), &profile, cfg, 3, policy);
        assert_identical(&serial, &snap, &format!("{policy:?}"));
    }
}

#[test]
fn same_seed_same_result_different_seed_different_samples() {
    let (cpu, profile) = load("knn", Technique::None);
    let a = run_campaign_snapshot_on(
        Engine::Interpreter(&cpu),
        &profile,
        CampaignConfig {
            samples: 250,
            seed: 1,
        },
        2,
        SnapshotPolicy::default(),
    );
    let b = run_campaign_snapshot_on(
        Engine::Interpreter(&cpu),
        &profile,
        CampaignConfig {
            samples: 250,
            seed: 1,
        },
        4,
        SnapshotPolicy::default(),
    );
    let c = run_campaign_snapshot_on(
        Engine::Interpreter(&cpu),
        &profile,
        CampaignConfig {
            samples: 250,
            seed: 2,
        },
        4,
        SnapshotPolicy::default(),
    );
    assert_identical(&a, &b, "same seed, different thread counts");
    assert_ne!(
        a.records, c.records,
        "different seeds must sample different faults"
    );
}

#[test]
fn throughput_counters_are_populated() {
    let (cpu, profile) = load("pathfinder", Technique::None);
    let r = run_campaign_snapshot_on(
        Engine::Interpreter(&cpu),
        &profile,
        CampaignConfig {
            samples: 400,
            seed: 3,
        },
        4,
        SnapshotPolicy::default(),
    );
    let s = &r.stats;
    assert_eq!(s.injections, 400);
    assert!(s.injections_per_sec > 0.0);
    assert!(s.threads >= 1);
    assert!(s.snapshots_taken > 0, "{s:?}");
    assert!(s.snapshot_hits > 0, "{s:?}");
    assert!(s.steps_saved > 0, "{s:?}");
    assert!(s.snapshot_hit_rate() <= 1.0);
    assert!(s.steps_saved_ratio() <= 1.0);
}
