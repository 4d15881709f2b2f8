//! The campaign flight recorder's contract (DESIGN.md §5h):
//!
//! 1. **Observational purity**: installing a recorder never changes a
//!    campaign's outcomes — recorder-on and recorder-off runs of the
//!    same seed are identical on every executor and engine.
//! 2. **Stream consistency**: sequence numbers are dense and
//!    monotone, the stream is bracketed by `started`/`finished`,
//!    shard-completion records reassemble the exact campaign record
//!    stream, and every progress snapshot's tallies sum to its `done`
//!    counter with the final snapshot equal to the final stats.
//! 3. **Resume determinism**: a journal cut at ANY shard boundary
//!    resumes to a `CampaignResult` byte-identical to the
//!    uninterrupted run, reusing exactly the journaled faults.
//! 4. **Degenerate telemetry** never panics: zero-sample campaigns,
//!    single-worker balance, empty rolling-rate windows.
//!
//! The recorder is a process-wide singleton, so every test that
//! installs one holds `LOCK` for its whole body.

use std::sync::{Arc, Mutex};

use ferrum::flight::{event_to_ndjson, journal_from_ndjson, parse_events, NdjsonSink};
use ferrum::{
    install_flight_recorder, program_signature, resume_campaign_from_journal,
    uninstall_flight_recorder, CampaignConfig, CampaignEvent, CampaignResult, CoverageMap, Engine,
    EngineKind, FlightEvent, FlightPolicy, FlightRecorder, ForensicConfig, JournalSnapshot,
    MemorySink, Pipeline, SnapshotPolicy, Stage, Technique,
};
use ferrum_asm::program::AsmProgram;
use ferrum_cpu::run::{Cpu, Profile};
use ferrum_faultsim::campaign::{
    exhaustive_campaign_on, run_campaign_on, run_campaign_parallel_on, run_campaign_pruned_on,
    run_campaign_snapshot_on, run_double_campaign_on,
};
use ferrum_faultsim::compose::{run_campaign_incremental_on, run_campaign_stratified_on};
use ferrum_faultsim::forensics::run_campaign_forensic_on;
use ferrum_rng::Rng64;

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn load(name: &str, technique: Technique) -> (AsmProgram, Cpu, Profile) {
    let w = ferrum_workloads::workload(name).expect("in catalog");
    let module = w.build(ferrum_workloads::Scale::Test);
    let pipeline = Pipeline::new();
    let prog = pipeline.protect(&module, technique).expect("protects");
    let cpu = pipeline.load(&prog).expect("loads");
    let profile = cpu.profile();
    (prog, cpu, profile)
}

fn record(
    prog: &AsmProgram,
    cpu: &Cpu,
    policy: FlightPolicy,
    run: impl FnOnce() -> CampaignResult,
) -> (CampaignResult, Vec<FlightEvent>) {
    let _ = (prog, cpu);
    let sink = Arc::new(MemorySink::new());
    install_flight_recorder(Arc::new(
        FlightRecorder::new(sink.clone())
            .with_policy(policy)
            .with_program_hash(program_signature(prog)),
    ));
    let result = run();
    uninstall_flight_recorder();
    (result, sink.events())
}

const CFG: CampaignConfig = CampaignConfig {
    samples: 96,
    seed: 0xFE44,
};

// ---------------------------------------------------------------------
// 1. Observational purity
// ---------------------------------------------------------------------

#[test]
fn recording_never_changes_outcomes() {
    let _g = lock();
    let (prog, cpu, profile) = load("bfs", Technique::Ferrum);
    for engine in EngineKind::ALL {
        let bare = engine.with_cpu(&cpu, |e| run_campaign_on(e, &profile, CFG));
        let (recorded, events) = record(&prog, &cpu, FlightPolicy::default(), || {
            engine.with_cpu(&cpu, |e| run_campaign_on(e, &profile, CFG))
        });
        assert_eq!(recorded, bare, "{}: recorder changed outcomes", engine.label());
        assert!(!events.is_empty(), "{}: no events captured", engine.label());

        let bare_par =
            engine.with_cpu(&cpu, |e| run_campaign_parallel_on(e, &profile, CFG, 3));
        let (rec_par, _) = record(&prog, &cpu, FlightPolicy::default(), || {
            engine.with_cpu(&cpu, |e| run_campaign_parallel_on(e, &profile, CFG, 3))
        });
        assert_eq!(rec_par, bare_par, "{}: parallel purity", engine.label());

        let bare_snap = engine.with_cpu(&cpu, |e| {
            run_campaign_snapshot_on(e, &profile, CFG, 2, SnapshotPolicy::default())
        });
        let (rec_snap, _) = record(&prog, &cpu, FlightPolicy::default(), || {
            engine.with_cpu(&cpu, |e| {
                run_campaign_snapshot_on(e, &profile, CFG, 2, SnapshotPolicy::default())
            })
        });
        assert_eq!(rec_snap, bare_snap, "{}: snapshot purity", engine.label());
    }
}

// ---------------------------------------------------------------------
// 2. Stream consistency
// ---------------------------------------------------------------------

#[test]
fn event_stream_is_internally_consistent() {
    let _g = lock();
    for (name, technique) in [("pathfinder", Technique::Ferrum), ("knn", Technique::None)] {
        let (prog, cpu, profile) = load(name, technique);
        let (result, events) = record(&prog, &cpu, FlightPolicy::default(), || {
            run_campaign_on(ferrum_faultsim::Engine::Interpreter(&cpu), &profile, CFG)
        });

        // Dense, monotone sequence numbers in delivery order.
        for (i, ev) in events.iter().enumerate() {
            assert_eq!(ev.seq, i as u64, "{name}: seq hole at {i}");
        }
        assert!(matches!(
            events.first().map(|e| &e.event),
            Some(CampaignEvent::Started { .. })
        ));
        assert!(matches!(
            events.last().map(|e| &e.event),
            Some(CampaignEvent::Finished { .. })
        ));

        // Shard records reassemble the campaign's record stream.
        let mut shards: Vec<_> = events
            .iter()
            .filter_map(|e| match &e.event {
                CampaignEvent::ShardCompleted(s) => Some(s.clone()),
                _ => None,
            })
            .collect();
        shards.sort_by_key(|s| s.start);
        let reassembled: Vec<_> = shards.iter().flat_map(|s| s.records.iter().copied()).collect();
        assert_eq!(reassembled, result.records, "{name}: shard reassembly");
        let declared = match &events[0].event {
            CampaignEvent::Started { shards, .. } => *shards,
            _ => unreachable!(),
        };
        assert_eq!(shards.len(), declared, "{name}: shard count");

        // Progress snapshots: tallies sum to done, monotone, and the
        // final one equals the final stats.
        let snapshots: Vec<_> = events
            .iter()
            .filter_map(|e| match &e.event {
                CampaignEvent::Progress(p) => Some(p.clone()),
                _ => None,
            })
            .collect();
        assert!(!snapshots.is_empty(), "{name}: no snapshots");
        let mut last = 0;
        for p in &snapshots {
            assert_eq!(p.tallies.total(), p.done, "{name}: snapshot tally sum");
            assert!(p.done >= last, "{name}: progress went backwards");
            last = p.done;
        }
        let fin = snapshots.last().expect("non-empty");
        assert_eq!(fin.done, result.total(), "{name}: final snapshot done");
        assert!(fin.tallies.matches(&result), "{name}: final snapshot tallies");

        // The finished event repeats the final counts.
        if let CampaignEvent::Finished { tallies, .. } = &events.last().expect("last").event {
            assert!(tallies.matches(&result), "{name}: finished tallies");
        }
    }
}

#[test]
fn ndjson_file_round_trip_preserves_the_stream() {
    let _g = lock();
    let (prog, cpu, profile) = load("needle", Technique::Ferrum);
    let path = std::env::temp_dir().join("ferrum-flight-roundtrip.ndjson");
    let path_s = path.to_str().expect("utf8 temp path");

    let sink = Arc::new(MemorySink::new());
    let file = Arc::new(NdjsonSink::create(path_s).expect("creates"));
    install_flight_recorder(Arc::new(
        FlightRecorder::new(Arc::new(ferrum::TeeSink::new(vec![sink.clone(), file])))
            .with_program_hash(program_signature(&prog)),
    ));
    let result = run_campaign_on(ferrum_faultsim::Engine::Interpreter(&cpu), &profile, CFG);
    uninstall_flight_recorder();

    let text = std::fs::read_to_string(&path).expect("reads back");
    let parsed = parse_events(&text).expect("parses");
    assert_eq!(parsed, sink.events(), "file != memory stream");

    // The journal reconstructed from the file resumes to the same
    // result even though nothing was killed (everything is reused).
    let journal = journal_from_ndjson(&text).expect("journal");
    assert!(journal.finished);
    let resumed = resume_campaign_from_journal(
        ferrum_faultsim::Engine::Interpreter(&cpu),
        &profile,
        CFG,
        &journal,
    )
    .expect("resumes");
    assert_eq!(resumed, result);
    assert_eq!(resumed.stats.reused_sites, result.total());
    let _ = std::fs::remove_file(&path);
}

/// `(worker, stage, count)` of every stage-timing event past engine
/// binding (the decoded engine's decode is timed before the start).
fn stage_counts(events: &[FlightEvent]) -> Vec<(usize, Stage, u64)> {
    events
        .iter()
        .filter_map(|e| match e.event {
            CampaignEvent::StageTiming {
                worker,
                stage,
                count,
                ..
            } if stage != Stage::Decode => Some((worker, stage, count)),
            _ => None,
        })
        .collect()
}

/// Total count per stage over all workers, in [`Stage::ALL`] order.
fn stage_totals(events: &[FlightEvent]) -> Vec<(Stage, u64)> {
    let counts = stage_counts(events);
    Stage::ALL
        .into_iter()
        .filter_map(|stage| {
            let n: u64 = counts.iter().filter(|c| c.1 == stage).map(|c| c.2).sum();
            (n > 0).then_some((stage, n))
        })
        .collect()
}

/// docs/events-schema.md: every faulted run executed whole is timed as
/// one `injection`, every snapshot replay as one `snapshot-restore`
/// plus one `replay`; faults booked from a coverage verdict, a cache
/// or a journal execute nothing and are never timed.
#[test]
fn every_executor_times_every_executed_run() {
    let _g = lock();
    let (prog, cpu, profile) = load("kmeans", Technique::Ferrum);
    let coverage = CoverageMap::analyze(&prog);
    // The exhaustive sweep injects into every listed site; a sparse
    // site list keeps it small.
    let mut sparse = profile.clone();
    sparse.sites = profile.sites.iter().step_by(211).copied().collect();
    let injection = |runs: usize| vec![(Stage::Injection, runs as u64)];
    for engine in EngineKind::ALL {
        let label = engine.label();
        let timed = |run: &dyn Fn(Engine<'_>) -> CampaignResult| {
            record(&prog, &cpu, FlightPolicy::default(), || {
                engine.with_cpu(&cpu, run)
            })
        };

        let (serial, serial_events) = timed(&|e| run_campaign_on(e, &profile, CFG));
        assert_eq!(
            stage_totals(&serial_events),
            injection(serial.total()),
            "{label}: serial"
        );

        let (r, events) = timed(&|e| run_campaign_parallel_on(e, &profile, CFG, 3));
        assert_eq!(
            stage_totals(&events),
            injection(r.total()),
            "{label}: parallel"
        );

        let (r, events) = timed(&|e| run_campaign_pruned_on(e, &profile, CFG, &coverage));
        assert!(r.stats.pruned_sites > 0, "{label}: nothing pruned");
        assert_eq!(
            stage_totals(&events),
            injection(r.total() - r.stats.pruned_sites),
            "{label}: pruned"
        );

        let (r, events) = timed(&|e| run_double_campaign_on(e, &profile, CFG));
        assert_eq!(
            stage_totals(&events),
            injection(r.total()),
            "{label}: double"
        );

        let (r, events) = timed(&|e| exhaustive_campaign_on(e, &sparse, 2));
        assert_eq!(
            r.total(),
            sparse.sites.len() * 2,
            "{label}: exhaustive size"
        );
        assert_eq!(
            stage_totals(&events),
            injection(r.total()),
            "{label}: exhaustive"
        );

        let (r, events) =
            timed(&|e| run_campaign_forensic_on(e, &profile, CFG, &ForensicConfig::default()).0);
        assert_eq!(
            stage_totals(&events),
            injection(r.total()),
            "{label}: forensic"
        );

        let journal =
            JournalSnapshot::from_events(cut_after_shards(&serial_events, 2)).expect("journal");
        let (r, events) =
            timed(&|e| resume_campaign_from_journal(e, &profile, CFG, &journal).expect("resumes"));
        assert!(r.stats.reused_sites > 0, "{label}: nothing resumed");
        assert_eq!(
            stage_totals(&events),
            injection(r.total() - r.stats.reused_sites),
            "{label}: resume"
        );

        let (full, events) = timed(&|e| run_campaign_stratified_on(e, &profile, CFG, &prog).0);
        assert!(full.total() > 0, "{label}: nothing injected");
        assert_eq!(
            stage_totals(&events),
            injection(full.total()),
            "{label}: stratified"
        );

        // Drop one function's shard: the incremental run re-injects
        // exactly that shard's draws and times only those.
        let (_, mut cache) = engine.with_cpu(&cpu, |e| {
            run_campaign_stratified_on(e, &profile, CFG, &prog)
        });
        let dropped = cache.shards.pop().expect("a shard").draws.len();
        assert!(dropped > 0, "{label}: empty shard");
        let (inc, events) =
            timed(&|e| run_campaign_incremental_on(e, &profile, CFG, &prog, &cache).0);
        assert_eq!(inc.records, full.records, "{label}: incremental records");
        assert_eq!(inc.stats.reused_sites, full.total() - dropped);
        assert_eq!(
            stage_totals(&events),
            injection(dropped),
            "{label}: incremental"
        );

        // The snapshot runner restores and replays instead of running
        // whole; its golden walk is timed on worker 0.
        let (r, events) =
            timed(&|e| run_campaign_snapshot_on(e, &profile, CFG, 2, SnapshotPolicy::default()));
        let totals = stage_totals(&events);
        let count = |stage| totals.iter().find(|t| t.0 == stage).map_or(0, |t| t.1);
        let replays = r.total() as u64;
        assert_eq!(
            count(Stage::SnapshotRestore),
            replays,
            "{label}: snapshot restores"
        );
        assert_eq!(count(Stage::Replay), replays, "{label}: snapshot replays");
        assert_eq!(count(Stage::Injection), 0, "{label}: snapshot whole runs");
        assert_eq!(
            count(Stage::SnapshotCapture),
            r.stats.snapshots_taken as u64,
            "{label}: snapshot captures"
        );
        assert!(count(Stage::GoldenRun) > 0, "{label}: golden walk untimed");
    }
}

// ---------------------------------------------------------------------
// 3. Resume determinism: every shard boundary
// ---------------------------------------------------------------------

/// Truncates `events` right after the `k`-th shard completion — the
/// write-ahead journal a kill at that boundary would leave behind.
fn cut_after_shards(events: &[FlightEvent], k: usize) -> &[FlightEvent] {
    if k == 0 {
        // Killed before any shard completed: only the header survives.
        return &events[..1];
    }
    let mut seen = 0;
    for (i, ev) in events.iter().enumerate() {
        if matches!(ev.event, CampaignEvent::ShardCompleted(_)) {
            seen += 1;
            if seen == k {
                return &events[..=i];
            }
        }
    }
    events
}

#[test]
fn resume_at_every_shard_boundary_is_byte_identical() {
    let _g = lock();
    let (prog, cpu, profile) = load("bfs", Technique::Ferrum);
    for engine in EngineKind::ALL {
        let (full, events) = record(&prog, &cpu, FlightPolicy::default(), || {
            engine.with_cpu(&cpu, |e| run_campaign_on(e, &profile, CFG))
        });
        let shards = events
            .iter()
            .filter(|e| matches!(e.event, CampaignEvent::ShardCompleted(_)))
            .count();
        assert!(shards > 2, "{}: want a multi-shard campaign", engine.label());

        for k in 0..=shards {
            let journal = JournalSnapshot::from_events(cut_after_shards(&events, k))
                .expect("journal from header");
            assert_eq!(journal.completed(), k * journal.shard_size.min(CFG.samples));
            let resumed = engine
                .with_cpu(&cpu, |e| resume_campaign_from_journal(e, &profile, CFG, &journal))
                .unwrap_or_else(|e| panic!("{}: resume at {k}: {e}", engine.label()));
            assert_eq!(resumed, full, "{}: kill after shard {k}", engine.label());
            assert_eq!(
                resumed.stats.reused_sites,
                journal.completed(),
                "{}: reuse at {k}",
                engine.label()
            );
        }
    }
}

#[test]
fn resume_rejects_a_mismatched_journal() {
    let _g = lock();
    let (prog, cpu, profile) = load("bfs", Technique::Ferrum);
    let (_, events) = record(&prog, &cpu, FlightPolicy::default(), || {
        run_campaign_on(ferrum_faultsim::Engine::Interpreter(&cpu), &profile, CFG)
    });
    let mut journal = JournalSnapshot::from_events(cut_after_shards(&events, 2)).expect("journal");

    // Wrong seed: the journaled faults no longer match this campaign.
    let other = CampaignConfig {
        samples: CFG.samples,
        seed: CFG.seed + 1,
    };
    let err = resume_campaign_from_journal(
        ferrum_faultsim::Engine::Interpreter(&cpu),
        &profile,
        other,
        &journal,
    )
    .expect_err("seed mismatch accepted");
    assert!(err.contains("seed"), "unhelpful error: {err}");

    // Tampered program hash: content drift is refused outright.
    journal.fingerprint.program_hash ^= 1;
    let err = resume_campaign_from_journal(
        ferrum_faultsim::Engine::Interpreter(&cpu),
        &profile,
        CFG,
        &journal,
    )
    .expect_err("hash mismatch accepted");
    assert!(err.contains("hash"), "unhelpful error: {err}");
}

// ---------------------------------------------------------------------
// 4. Degenerate telemetry
// ---------------------------------------------------------------------

#[test]
fn zero_sample_campaign_emits_a_complete_stream() {
    let _g = lock();
    let (prog, cpu, profile) = load("bfs", Technique::None);
    let empty = CampaignConfig {
        samples: 0,
        seed: 7,
    };
    let (result, events) = record(&prog, &cpu, FlightPolicy::default(), || {
        run_campaign_on(ferrum_faultsim::Engine::Interpreter(&cpu), &profile, empty)
    });
    assert_eq!(result.total(), 0);
    assert!(matches!(
        events.first().map(|e| &e.event),
        Some(CampaignEvent::Started { total: 0, .. })
    ));
    assert!(matches!(
        events.last().map(|e| &e.event),
        Some(CampaignEvent::Finished { .. })
    ));
    // The final snapshot exists and divides nothing by zero.
    let snap = events
        .iter()
        .find_map(|e| match &e.event {
            CampaignEvent::Progress(p) => Some(p.clone()),
            _ => None,
        })
        .expect("zero-sample campaign still snapshots");
    assert_eq!(snap.done, 0);
    assert!(snap.rate >= 0.0 && snap.rate.is_finite());
    assert!(snap.sdc_ci.0.is_finite() && snap.sdc_ci.1.is_finite());

    // No work ran: balance is the documented 0.0, never NaN.
    assert_eq!(result.stats.worker_balance(), 0.0);
    assert!(result.stats.injections_per_sec.is_finite());
}

#[test]
fn tiny_policy_windows_do_not_panic() {
    let _g = lock();
    let (prog, cpu, profile) = load("bfs", Technique::None);
    // Pathological policy: snapshot after every injection with a
    // minimal rolling window — rates must stay finite.
    let policy = FlightPolicy {
        shard_size: 1,
        progress_every: 1,
        heartbeat_every: 1,
        window: 1,
    };
    let tiny = CampaignConfig {
        samples: 5,
        seed: 3,
    };
    let (result, events) = record(&prog, &cpu, policy, || {
        run_campaign_on(ferrum_faultsim::Engine::Interpreter(&cpu), &profile, tiny)
    });
    assert_eq!(result.total(), 5);
    for ev in &events {
        if let CampaignEvent::Progress(p) = &ev.event {
            assert!(p.rate.is_finite(), "rate blew up: {}", p.rate);
            for r in &p.worker_rates {
                assert!(r.is_finite());
            }
        }
    }
    let shards = events
        .iter()
        .filter(|e| matches!(e.event, CampaignEvent::ShardCompleted(_)))
        .count();
    assert_eq!(shards, 5, "one shard per injection");

    // A lone worker that did run is perfectly balanced.
    assert!((result.stats.worker_balance() - 1.0).abs() < 1e-12);
}

// ---------------------------------------------------------------------
// NDJSON torn-tail semantics on a real journal
// ---------------------------------------------------------------------

#[test]
fn torn_journal_tail_resumes_from_the_last_complete_record() {
    let _g = lock();
    let (prog, cpu, profile) = load("bfs", Technique::Ferrum);
    let (full, events) = record(&prog, &cpu, FlightPolicy::default(), || {
        run_campaign_on(ferrum_faultsim::Engine::Interpreter(&cpu), &profile, CFG)
    });
    let ndjson: String = events.iter().map(|e| event_to_ndjson(e) + "\n").collect();
    // Kill mid-write: drop the trailing newline and half the last line.
    let torn = &ndjson[..ndjson.len() - ndjson.lines().last().expect("lines").len() / 2 - 1];
    let journal = journal_from_ndjson(torn).expect("torn tail is not fatal");
    assert!(!journal.finished || journal.completed() == full.total());
    let resumed = resume_campaign_from_journal(
        ferrum_faultsim::Engine::Interpreter(&cpu),
        &profile,
        CFG,
        &journal,
    )
    .expect("resumes");
    assert_eq!(resumed, full);
}

// ---------------------------------------------------------------------
// Seeded sweep: any seed, any kill point
// ---------------------------------------------------------------------

/// Any seed, any kill point: resume is byte-identical.  24 `(seed,
/// kill point)` cases drawn from a fixed `ferrum-rng` stream.
#[test]
fn resume_is_identical_for_any_seed_and_kill_point() {
    let _g = lock();
    let (prog, cpu, profile) = load("bfs", Technique::Ferrum);
    let mut cases = Rng64::seed_from_u64(0x5EED_F11E);
    for _ in 0..24 {
        let seed = cases.next_u64();
        let kill = cases.gen_range(0..32usize);
        let cfg = CampaignConfig { samples: 64, seed };
        let (full, events) = record(&prog, &cpu, FlightPolicy::default(), || {
            run_campaign_on(Engine::Interpreter(&cpu), &profile, cfg)
        });
        let shards = events
            .iter()
            .filter(|e| matches!(e.event, CampaignEvent::ShardCompleted(_)))
            .count();
        let k = kill % (shards + 1);
        let journal = JournalSnapshot::from_events(cut_after_shards(&events, k)).expect("journal");
        let resumed =
            resume_campaign_from_journal(Engine::Interpreter(&cpu), &profile, cfg, &journal)
                .expect("resumes");
        assert_eq!(resumed, full, "seed {seed:#x}, kill point {kill}");
    }
}
