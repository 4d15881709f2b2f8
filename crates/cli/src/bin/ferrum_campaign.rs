//! `ferrum-campaign` — long-running campaigns with live telemetry and
//! a resume-grade journal.
//!
//! ```text
//! usage: ferrum-campaign <workload> [options]
//!        ferrum-campaign --catalog [--json]
//!   --technique <t>   ferrum | hybrid | ir-eddi | none   (default: ferrum)
//!   --samples <n>     sampled faults (default 400)
//!   --seed <s>        campaign seed (default 0xFE44)
//!   --scale <s>       test | paper   (default: test)
//!   --opt <l>         backend optimization level 0 | 1   (default: 0)
//!   --engine <e>      interpreter | decoded   (default: interpreter)
//!   --executor <x>    serial | parallel | snapshot   (default: serial)
//!   --threads <n>     worker threads for parallel/snapshot (default 4)
//!   --events <path>   stream NDJSON events to <path> (docs/events-schema.md)
//!   --journal <path>  write-ahead journal at <path> (shard completions)
//!   --resume          resume a killed campaign from --journal
//!   --json            emit the final result as JSON instead of text
//!   --catalog         flight-recorder self-check across every workload
//! ```
//!
//! The tool protects and loads the workload, installs a
//! [`FlightRecorder`](ferrum::FlightRecorder), and runs the chosen
//! campaign executor with a live progress table on stdout.  `--events`
//! and `--journal` tee the same event stream into NDJSON files; a
//! journal cut short by a crash or kill feeds `--resume`, which
//! replays completed shards and injects only the remainder — the
//! result is byte-identical to an uninterrupted run of the same seed.
//!
//! `--catalog` runs every workload × all four techniques × both
//! engines and asserts the recorder's contract: event streams are
//! internally consistent (monotone sequence numbers, shard records
//! reassemble the exact campaign record stream, snapshot tallies sum
//! to the final stats), recording is outcome-pure (recorder on/off
//! results are identical), NDJSON round-trips losslessly, and
//! journal-resume after a simulated mid-campaign kill is
//! byte-identical with the journaled fraction reused.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use ferrum::flight::{journal_from_ndjson, parse_events, NdjsonSink, StallTracker};
use ferrum::json::{Json, ToJson};
use ferrum::report::{render_flight_summary, render_progress_header, render_progress_row_flagged};
use ferrum::{
    install_flight_recorder, program_signature, resume_campaign_from_journal,
    uninstall_flight_recorder, CampaignConfig, CampaignEvent, CampaignFingerprint, CampaignResult,
    EngineKind, FlightEvent, FlightRecorder, FlightSink, JournalSnapshot, MemorySink, Pipeline,
    SnapshotPolicy, Technique, TeeSink,
};
use ferrum_cli::args::{parse_args, usage_exit, ArgError, ArgHelp, ArgSpec, UsageSpec};
use ferrum_cli::catalog::{catalog_exit, catalog_selfcheck, CheckLine};
use ferrum_faultsim::campaign::{run_campaign_on, run_campaign_parallel_on, run_campaign_snapshot_on};
use ferrum_workloads::catalog::{workload, Scale, Workload};

const USAGE: UsageSpec = UsageSpec {
    tool: "ferrum-campaign",
    forms: &["<workload> [options]", "--catalog [--json]"],
    args: &[
        ArgHelp {
            name: "--technique",
            value: Some("<t>"),
            help: "ferrum | hybrid | ir-eddi | none   (default: ferrum)",
        },
        ArgHelp {
            name: "--samples",
            value: Some("<n>"),
            help: "sampled faults (default 400)",
        },
        ArgHelp {
            name: "--seed",
            value: Some("<s>"),
            help: "campaign seed (default 0xFE44)",
        },
        ArgHelp {
            name: "--scale",
            value: Some("<s>"),
            help: "test | paper   (default: test)",
        },
        ArgHelp {
            name: "--opt",
            value: Some("<l>"),
            help: "backend optimization level 0 | 1   (default: 0;\n--catalog: both levels)",
        },
        ArgHelp {
            name: "--engine",
            value: Some("<e>"),
            help: "interpreter | decoded   (default: interpreter)",
        },
        ArgHelp {
            name: "--executor",
            value: Some("<x>"),
            help: "serial | parallel | snapshot   (default: serial)",
        },
        ArgHelp {
            name: "--threads",
            value: Some("<n>"),
            help: "worker threads for parallel/snapshot (default 4)",
        },
        ArgHelp {
            name: "--events",
            value: Some("<path>"),
            help: "stream NDJSON events to <path> (docs/events-schema.md)",
        },
        ArgHelp {
            name: "--journal",
            value: Some("<path>"),
            help: "write-ahead journal at <path> (shard completions)",
        },
        ArgHelp {
            name: "--resume",
            value: None,
            help: "resume a killed campaign from --journal: replay its\ncompleted shards, inject only the remainder, and rewrite\nthe journal complete",
        },
        ArgHelp {
            name: "--json",
            value: None,
            help: "emit the final result as JSON instead of text",
        },
        ArgHelp {
            name: "--catalog",
            value: None,
            help: "self-check across every bundled workload, all four\ntechniques, both engines: event streams internally\nconsistent (monotone seq, shard records reassemble the\ncampaign, snapshot sums equal final stats), recording\noutcome-pure, NDJSON lossless, and journal-resume after a\nsimulated mid-campaign kill byte-identical",
        },
    ],
    spec: ArgSpec {
        flags: &["--resume", "--json", "--catalog"],
        values: &[
            "--technique",
            "--samples",
            "--seed",
            "--scale",
            "--opt",
            "--engine",
            "--executor",
            "--threads",
            "--events",
            "--journal",
        ],
        positional: true,
    },
};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Executor {
    Serial,
    Parallel,
    Snapshot,
}

impl Executor {
    fn parse(s: &str) -> Option<Executor> {
        match s {
            "serial" => Some(Executor::Serial),
            "parallel" => Some(Executor::Parallel),
            "snapshot" => Some(Executor::Snapshot),
            _ => None,
        }
    }
}

struct Options {
    technique: Technique,
    samples: usize,
    seed: u64,
    scale: Scale,
    opt: Option<ferrum::OptLevel>,
    engine: EngineKind,
    executor: Executor,
    threads: usize,
    events: Option<String>,
    journal: Option<String>,
    resume: bool,
    json: bool,
}

fn technique_label(t: Technique) -> &'static str {
    match t {
        Technique::None => "none",
        Technique::IrEddi => "ir-eddi",
        Technique::HybridAsmEddi => "hybrid",
        Technique::Ferrum => "ferrum",
    }
}

/// Live TTY sink: header on campaign start, one row per progress
/// snapshot, stalled workers (heartbeats silent for more than twice
/// their observed cadence) flagged on the row.  Purely observational,
/// like every flight sink.
struct LiveProgress {
    started: AtomicBool,
    tracker: std::sync::Mutex<StallTracker>,
}

impl FlightSink for LiveProgress {
    fn record_event(&self, ev: &FlightEvent) {
        if let Ok(mut t) = self.tracker.lock() {
            t.observe(ev);
        }
        match &ev.event {
            CampaignEvent::Started { fingerprint, total, shards, .. }
                if !self.started.swap(true, Ordering::Relaxed) =>
            {
                println!(
                    "campaign [{}:{}] seed {:#x}: {} faults in {} shards",
                    fingerprint.executor,
                    fingerprint.engine.label(),
                    fingerprint.seed,
                    total,
                    shards
                );
                print!("{}", render_progress_header());
            }
            CampaignEvent::Progress(p) => {
                let stalled = self
                    .tracker
                    .lock()
                    .map_or_else(|_| Vec::new(), |t| t.stalled(ev.nanos));
                print!("{}", render_progress_row_flagged(p, &stalled));
            }
            _ => {}
        }
    }
}

/// Assembles the tee of enabled sinks; `None` when nothing listens
/// (no recorder installed — the campaign runs probe-free).
fn build_sinks(opts: &Options) -> Result<Option<Arc<dyn FlightSink>>, String> {
    let mut sinks: Vec<Arc<dyn FlightSink>> = Vec::new();
    if !opts.json {
        sinks.push(Arc::new(LiveProgress {
            started: AtomicBool::new(false),
            tracker: std::sync::Mutex::new(StallTracker::new()),
        }));
    }
    if let Some(path) = &opts.events {
        sinks.push(Arc::new(
            NdjsonSink::create(path).map_err(|e| format!("--events {path}: {e}"))?,
        ));
    }
    if let Some(path) = &opts.journal {
        sinks.push(Arc::new(
            NdjsonSink::create(path).map_err(|e| format!("--journal {path}: {e}"))?,
        ));
    }
    Ok(match sinks.len() {
        0 => None,
        1 => Some(sinks.pop().expect("len 1")),
        _ => Some(Arc::new(TeeSink::new(sinks))),
    })
}

fn run_one(name: &str, opts: &Options) -> ExitCode {
    let Some(w) = workload(name) else {
        eprintln!("ferrum-campaign: unknown workload `{name}`");
        return ExitCode::FAILURE;
    };
    let cfg = CampaignConfig {
        samples: opts.samples,
        seed: opts.seed,
    };

    // Read the journal *before* sinks truncate it for rewriting.
    let journal: Option<JournalSnapshot> = if opts.resume {
        let Some(path) = &opts.journal else {
            eprintln!("ferrum-campaign: --resume needs --journal <path>");
            return ExitCode::FAILURE;
        };
        match std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| journal_from_ndjson(&text))
        {
            Ok(j) => Some(j),
            Err(e) => {
                eprintln!("ferrum-campaign: --resume {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };

    let pipeline = Pipeline::new().with_opt_level(opts.opt.unwrap_or_default());
    let module = w.build(opts.scale);
    let run = (|| {
        let prog = pipeline.protect(&module, opts.technique)?;
        let cpu = pipeline.load(&prog)?;
        let profile = cpu.profile();

        if let Some(sink) = build_sinks(opts).map_err(ferrum::Error::msg)? {
            install_flight_recorder(Arc::new(
                FlightRecorder::new(sink)
                    .with_labels(name, technique_label(opts.technique))
                    .with_program_hash(program_signature(&prog)),
            ));
        }
        let result = opts.engine.with_cpu(&cpu, |engine| match &journal {
            Some(j) => resume_campaign_from_journal(engine, &profile, cfg, j)
                .map_err(ferrum::Error::msg),
            None => Ok(match opts.executor {
                Executor::Serial => run_campaign_on(engine, &profile, cfg),
                Executor::Parallel => {
                    run_campaign_parallel_on(engine, &profile, cfg, opts.threads)
                }
                Executor::Snapshot => run_campaign_snapshot_on(
                    engine,
                    &profile,
                    cfg,
                    opts.threads,
                    SnapshotPolicy::default(),
                ),
            }),
        });
        uninstall_flight_recorder();
        let result = result?;

        let fp = CampaignFingerprint {
            workload: name.to_owned(),
            technique: technique_label(opts.technique).to_owned(),
            executor: match (opts.resume, opts.executor) {
                (true, _) => "resume",
                (false, Executor::Serial) => "serial",
                (false, Executor::Parallel) => "parallel",
                (false, Executor::Snapshot) => "snapshot",
            }
            .to_owned(),
            engine: opts.engine,
            samples: cfg.samples,
            seed: cfg.seed,
            sites: profile.sites.len(),
            golden_dyn_insts: profile.result.dyn_insts,
            program_hash: program_signature(&prog),
        };
        Ok::<_, ferrum::Error>((fp, result))
    })();
    let (fp, result) = match run {
        Ok(r) => r,
        Err(e) => {
            uninstall_flight_recorder();
            eprintln!("ferrum-campaign: {name}: {e}");
            return ExitCode::FAILURE;
        }
    };

    if opts.json {
        let doc = Json::obj(vec![
            ("workload", name.to_json()),
            ("technique", technique_label(opts.technique).to_json()),
            ("executor", fp.executor.to_json()),
            ("program_hash", fp.program_hash.to_json()),
            ("sdc", result.sdc.to_json()),
            ("detected", result.detected.to_json()),
            ("crash", result.crash.to_json()),
            ("timeout", result.timeout.to_json()),
            ("benign", result.benign.to_json()),
            ("sdc_prob", result.sdc_prob().to_json()),
            ("stats", result.stats.to_json()),
        ]);
        println!("{}", doc.to_string_pretty());
    } else {
        print!("{}", render_flight_summary(&fp, &result));
    }
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------------
// --catalog self-check
// ---------------------------------------------------------------------------

struct StreamAudit {
    problems: Vec<String>,
    shards_completed: usize,
}

fn audit(mut v: Vec<String>, label: &str, cond: bool) -> Vec<String> {
    if !cond {
        v.push(label.to_owned());
    }
    v
}

/// Checks one captured event stream against the final result: the
/// monotone-counter and snapshot-sum consistency contract.
fn audit_stream(events: &[FlightEvent], result: &CampaignResult) -> StreamAudit {
    let mut problems = Vec::new();
    problems = audit(problems, "stream empty", !events.is_empty());
    // seq is 0..n in delivery order.
    problems = audit(
        problems,
        "seq not monotone",
        events.iter().enumerate().all(|(i, e)| e.seq == i as u64),
    );
    problems = audit(
        problems,
        "first event not started",
        matches!(events.first().map(|e| &e.event), Some(CampaignEvent::Started { .. })),
    );
    problems = audit(
        problems,
        "last event not finished",
        matches!(events.last().map(|e| &e.event), Some(CampaignEvent::Finished { .. })),
    );

    let (mut scheduled, mut declared) = (0usize, 0usize);
    if let Some(CampaignEvent::Started { total, shards, .. }) = events.first().map(|e| &e.event) {
        declared = *shards;
        problems = audit(problems, "started total != result", *total == result.total());
    }
    let mut records = Vec::new();
    let mut tallies_sum = 0usize;
    let mut shard_list = Vec::new();
    let mut last_done = 0usize;
    let mut monotone = true;
    let mut final_snapshot_ok = false;
    for ev in events {
        match &ev.event {
            CampaignEvent::ShardScheduled { .. } => scheduled += 1,
            CampaignEvent::ShardCompleted(s) => {
                tallies_sum += s.tallies.total();
                shard_list.push(s.clone());
            }
            CampaignEvent::Progress(p) => {
                monotone &= p.done >= last_done;
                last_done = p.done;
                final_snapshot_ok = p.done == p.total
                    && p.done == result.total()
                    && p.tallies.matches(result);
            }
            _ => {}
        }
    }
    shard_list.sort_by_key(|s| s.start);
    for s in &shard_list {
        records.extend(s.records.iter().copied());
    }
    problems = audit(problems, "scheduled != declared shards", scheduled == declared);
    problems = audit(problems, "completed != declared shards", shard_list.len() == declared);
    problems = audit(problems, "shard tallies != total", tallies_sum == result.total());
    problems = audit(
        problems,
        "shard records != campaign records",
        records == result.records,
    );
    problems = audit(problems, "progress not monotone", monotone);
    problems = audit(problems, "final snapshot != final stats", final_snapshot_ok);
    StreamAudit {
        problems,
        shards_completed: shard_list.len(),
    }
}

/// One workload's self-check: every technique × both engines.
fn catalog_check(
    pipeline: &Pipeline,
    w: &Workload,
    opts: &Options,
) -> Result<Vec<CheckLine>, ferrum::Error> {
    let opt = pipeline.opt_level();
    let module = w.build(opts.scale);
    let cfg = CampaignConfig {
        samples: opts.samples,
        seed: opts.seed,
    };
    let mut lines = Vec::new();
    for technique in [
        Technique::None,
        Technique::IrEddi,
        Technique::HybridAsmEddi,
        Technique::Ferrum,
    ] {
        let prog = pipeline.protect(&module, technique)?;
        let cpu = pipeline.load(&prog)?;
        let profile = cpu.profile();
        let hash = program_signature(&prog);
        for engine in EngineKind::ALL {
            // Baseline without a recorder: the purity reference.
            let bare = engine.with_cpu(&cpu, |e| run_campaign_on(e, &profile, cfg));

            // Recorded run.
            let sink = Arc::new(MemorySink::new());
            install_flight_recorder(Arc::new(
                FlightRecorder::new(sink.clone())
                    .with_labels(w.name, technique_label(technique))
                    .with_program_hash(hash),
            ));
            let recorded = engine.with_cpu(&cpu, |e| run_campaign_on(e, &profile, cfg));
            uninstall_flight_recorder();
            let events = sink.events();

            let mut a = audit_stream(&events, &recorded);
            a.problems = audit(a.problems, "recording not outcome-pure", recorded == bare);

            // NDJSON round-trip on the real stream.
            let ndjson: String = events
                .iter()
                .map(|e| ferrum::flight::event_to_ndjson(e) + "\n")
                .collect();
            let round = parse_events(&ndjson).unwrap_or_default();
            a.problems = audit(a.problems, "ndjson round-trip lossy", round == events);

            // Simulated mid-campaign kill: truncate the stream right
            // after half the shard completions, resume from what's
            // left of the journal.
            let kill_after = a.shards_completed / 2;
            let mut seen = 0usize;
            let cut = events
                .iter()
                .position(|e| {
                    if matches!(e.event, CampaignEvent::ShardCompleted(_)) {
                        seen += 1;
                    }
                    seen == kill_after.max(1)
                })
                .map_or(events.len(), |i| i + 1);
            let truncated = &events[..cut];
            let (resume_ok, reused_ok) = match JournalSnapshot::from_events(truncated) {
                Some(journal) if !journal.finished => {
                    let completed = journal.completed();
                    match engine
                        .with_cpu(&cpu, |e| resume_campaign_from_journal(e, &profile, cfg, &journal))
                    {
                        Ok(resumed) => (
                            resumed == bare,
                            resumed.stats.reused_sites == completed && completed > 0,
                        ),
                        Err(_) => (false, false),
                    }
                }
                _ => (false, false),
            };
            a.problems = audit(a.problems, "resume not byte-identical", resume_ok);
            a.problems = audit(a.problems, "resume reuse wrong", reused_ok);

            let ok = a.problems.is_empty();
            lines.push(CheckLine {
                ok,
                json: Json::obj(vec![
                    ("workload", w.name.to_json()),
                    ("technique", technique_label(technique).to_json()),
                    ("opt", opt.to_json()),
                    ("engine", engine.label().to_json()),
                    ("events", events.len().to_json()),
                    ("shards", a.shards_completed.to_json()),
                    (
                        "problems",
                        Json::Arr(a.problems.iter().map(|p| p.as_str().to_json()).collect()),
                    ),
                ]),
                text: format!(
                    "{}/{} [{}/{}]: {} events, {} shards — {}",
                    w.name,
                    technique_label(technique),
                    engine.label(),
                    opt.label(),
                    events.len(),
                    a.shards_completed,
                    if ok {
                        "stream consistent, pure, resume identical".to_owned()
                    } else {
                        a.problems.join("; ")
                    },
                ),
            });
        }
    }
    Ok(lines)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (parsed, opts) = match parse_args(&args, &USAGE.spec).and_then(|p| {
        let executor = match p.value("--executor") {
            None => Executor::Serial,
            Some(s) => Executor::parse(s).ok_or_else(|| {
                ArgError::Message(format!(
                    "unknown executor `{s}` (serial | parallel | snapshot)"
                ))
            })?,
        };
        let threads = p.number("--threads", 4)?;
        let opts = Options {
            technique: p.technique_core(Technique::Ferrum)?,
            samples: p.samples(400)?,
            seed: p.seed(0xFE44)?,
            scale: p.scale(Scale::Test)?,
            opt: p.opt_level()?,
            engine: p.engine()?,
            executor,
            threads,
            events: p.value("--events").map(str::to_owned),
            journal: p.value("--journal").map(str::to_owned),
            resume: p.flag("--resume"),
            json: p.flag("--json"),
        };
        Ok((p, opts))
    }) {
        Ok(r) => r,
        Err(e) => return usage_exit(&USAGE.render(), &e),
    };

    if parsed.flag("--catalog") {
        let levels = ferrum_cli::catalog::catalog_levels(opts.opt);
        return catalog_exit(catalog_selfcheck("ferrum-campaign", opts.json, |w| {
            let mut lines = Vec::new();
            for &o in &levels {
                let pipeline = Pipeline::new().with_opt_level(o);
                lines.extend(catalog_check(&pipeline, w, &opts)?);
            }
            Ok::<_, ferrum::Error>(lines)
        }));
    }
    match parsed.positional.as_deref() {
        Some(n) => run_one(n, &opts),
        None => usage_exit(&USAGE.render(), &ArgError::Help),
    }
}

#[cfg(test)]
mod spec_tests {
    #[test]
    fn spec_rejects_duplicate_and_swallowed_arguments() {
        ferrum_cli::args::assert_usage_consistent(&super::USAGE);
    }
}
