//! Measures the snapshot-accelerated campaign engine against the
//! serial executor: same seed, same sampled faults, byte-identical
//! outcome records — but with golden-prefix sharing and work-stealing
//! parallelism.  Prints injections/sec for each engine and the
//! campaign telemetry from [`ferrum::CampaignStats`]: snapshot
//! hit-rate, share of dynamic instructions skipped, and worker-load
//! balance.  A second table runs the FERRUM-protected build and
//! reports the detection-latency distribution (injection→detection
//! instruction distance), which must be identical across engines.
//!
//! A third table runs the coverage-pruned executor
//! (`run_campaign_pruned_on`) on the FERRUM build: faults landing on
//! statically-decided sites (`ferrum::CoverageMap`) are booked without
//! simulation, and the outcome records must still be identical to the
//! serial engine.
//!
//! A fourth table swaps the execution engine itself: the decode-once
//! flattened engine (`ferrum::DecodedCpu`) under the single-thread
//! snapshot executor against the same executor on the reference
//! interpreter.  Outcome records must again be byte-identical; the
//! speedup column is the paper-scale throughput claim for
//! `ferrum_cpu::decoded` (≥10× single-thread).
//!
//! A fifth table measures the incremental campaign mode
//! (`ferrum::run_campaign_incremental_on`) after a single-function edit:
//! a multi-function FERRUM-protected program is campaigned once to
//! fill the per-function shard cache, one function is edited (a
//! synthetic `nop` changes its content hash), and the stale cache
//! then seeds an incremental run that re-injects only the edited
//! function while replaying every untouched function's shard.  The
//! incremental result must be record-identical to a full stratified
//! re-run on the edited program; the speedup column is wall-clock
//! full/incremental.
//!
//! A sixth table prices the campaign flight recorder
//! (`ferrum::FlightRecorder`): the fastest configuration (decode-once
//! engine, single-thread snapshot executor) runs with no recorder and
//! again with the full NDJSON event stream serialized to a null sink,
//! so the column measures probe + serialization cost with disk IO
//! excluded.  Outcome records must be identical (the recorder is
//! observation-only) and the overhead column backs the <2%
//! telemetry-cost claim in EXPERIMENTS.md.
//!
//! `--samples N --seed S --scale test|paper --threads T` as usual;
//! defaults to 1000 samples and all available cores.  `--json-out
//! <path>` additionally serializes every table into the schema-stable
//! `bench.json` artifact (`ferrum_bench::benchjson`) that
//! `scripts/bench_check.sh` gates against the committed baseline in
//! `results/bench.json`; `--reps N` sets the best-of repetition count
//! for the timing-sensitive recorder table (default 5).

use std::sync::Arc;
use std::time::Instant;

use ferrum::flight::NdjsonSink;
use ferrum::json::{Json, ToJson};
use ferrum::{
    install_flight_recorder, program_signature, run_campaign_incremental_on,
    run_campaign_stratified_on, uninstall_flight_recorder, CampaignConfig, CoverageMap, DecodedCpu,
    Engine, FlightRecorder, Pipeline, SnapshotPolicy, Technique,
};
use ferrum_asm::inst::Inst;
use ferrum_asm::program::AsmInst;
use ferrum_eddi::ferrum::Ferrum;
use ferrum_faultsim::campaign::{
    run_campaign, run_campaign_parallel_on, run_campaign_pruned_on, run_campaign_snapshot_on,
};
use ferrum_mir::builder::FunctionBuilder;
use ferrum_mir::module::{Global, Module};
use ferrum_mir::types::Ty;
use ferrum_mir::value::Value;
use ferrum_workloads::all_workloads;

/// A multi-function program for the incremental table: `main` sums
/// six helpers over a global table.  The catalog workloads compile to
/// a single function, so an edit there invalidates the whole cache;
/// this shape gives the incremental executor untouched shards to
/// reuse, which is the FastFlip scenario (edit one section, re-inject
/// only that section).
fn multi_function_module(helpers: usize, chain: usize) -> Module {
    let mut module = Module::new();
    let g = module.add_global(Global::new("tab", vec![3, 1, 4, 1, 5, 9, 2, 6]));
    for h in 0..helpers {
        let mut f = FunctionBuilder::new(format!("helper{h}"), &[Ty::I64], Some(Ty::I64));
        let mut x = Value::Arg(0);
        for i in 0..chain {
            let k = f.iconst(Ty::I64, (h * chain + i) as i64 % 7 + 1);
            let m = f.mul(Ty::I64, x, Value::const_int(Ty::I64, 3));
            x = f.add(Ty::I64, m, k);
        }
        f.ret(Some(x));
        module.functions.push(f.finish());
    }
    let mut b = FunctionBuilder::new("main", &[], None);
    let base = b.global(g);
    let mut acc = b.iconst(Ty::I64, 0);
    for i in 0..8 {
        let idx = b.iconst(Ty::I64, i);
        let p = b.gep(base, idx);
        let v = b.load(Ty::I64, p);
        for h in 0..helpers {
            let d = b
                .call(format!("helper{h}"), vec![v], Some(Ty::I64))
                .unwrap();
            acc = b.add(Ty::I64, acc, d);
        }
    }
    b.print(acc);
    b.ret(None);
    module.functions.push(b.finish());
    module
}

/// `--flag <value>` lookup for the tool-specific options.
fn arg_value<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = ferrum_bench::parse_eval_config(&args);
    let threads = arg_value(&args, "--threads")
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    let json_out: Option<String> = arg_value(&args, "--json-out");
    let reps: usize = arg_value(&args, "--reps").unwrap_or(5).max(1);
    let pipeline = Pipeline::new();
    let mut tables: Vec<(&str, Json)> = Vec::new();

    eprintln!(
        "# campaign-engine speedup — {} faults, seed {}, {:?} scale, {} threads",
        cfg.samples, cfg.seed, cfg.scale, threads
    );
    println!("snapshot campaign engine vs serial executor");
    println!(
        "{:<14}{:>12}{:>12}{:>12}{:>9}{:>10}{:>12}{:>9}{:>9}",
        "benchmark", "serial i/s", "steal i/s", "snap i/s", "speedup", "hit-rate", "steps-saved", "balance", "match"
    );

    let mut snapshot_rows = Vec::new();
    for w in all_workloads() {
        let module = w.build(cfg.scale);
        let prog = pipeline
            .protect(&module, Technique::None)
            .expect("protects");
        let cpu = pipeline.load(&prog).expect("loads");
        let profile = cpu.profile();
        let interp = Engine::Interpreter(&cpu);
        let campaign_cfg = CampaignConfig {
            samples: cfg.samples,
            seed: cfg.seed,
        };

        let serial = run_campaign(&cpu, &profile, campaign_cfg);
        let stealing = run_campaign_parallel_on(interp, &profile, campaign_cfg, threads);
        let snap = run_campaign_snapshot_on(
            interp,
            &profile,
            campaign_cfg,
            threads,
            SnapshotPolicy::default(),
        );

        // Hard determinism check: all three engines must agree on the
        // outcome of every sampled fault (in sampling order) *and* on
        // the detection-latency distribution.
        let identical = serial == stealing
            && serial == snap
            && serial.stats.latency == stealing.stats.latency
            && serial.stats.latency == snap.stats.latency;
        let speedup = snap.stats.injections_per_sec / serial.stats.injections_per_sec;
        println!(
            "{:<14}{:>12.0}{:>12.0}{:>12.0}{:>8.2}x{:>9.0}%{:>11.0}%{:>9.2}{:>9}",
            w.name,
            serial.stats.injections_per_sec,
            stealing.stats.injections_per_sec,
            snap.stats.injections_per_sec,
            speedup,
            snap.stats.snapshot_hit_rate() * 100.0,
            snap.stats.steps_saved_ratio() * 100.0,
            snap.stats.worker_balance(),
            if identical { "yes" } else { "NO" }
        );
        assert!(identical, "{}: engines diverge", w.name);
        snapshot_rows.push(Json::obj(vec![
            ("workload", w.name.to_json()),
            ("serial_ips", serial.stats.injections_per_sec.to_json()),
            ("steal_ips", stealing.stats.injections_per_sec.to_json()),
            ("snap_ips", snap.stats.injections_per_sec.to_json()),
            ("speedup_threads", speedup.to_json()),
            ("hit_rate", snap.stats.snapshot_hit_rate().to_json()),
            ("steps_saved", snap.stats.steps_saved_ratio().to_json()),
            ("balance", snap.stats.worker_balance().to_json()),
            ("identical", Json::Bool(identical)),
        ]));
    }
    tables.push(("snapshot", Json::Arr(snapshot_rows)));

    println!();
    println!("detection latency (FERRUM-protected, snapshot engine)");
    println!(
        "{:<14}{:>10}{:>8}{:>8}{:>8}{:>9}",
        "benchmark", "detected", "p50", "p95", "max", "balance"
    );
    let mut latency_rows = Vec::new();
    for w in all_workloads() {
        let module = w.build(cfg.scale);
        let prog = pipeline
            .protect(&module, Technique::Ferrum)
            .expect("protects");
        let cpu = pipeline.load(&prog).expect("loads");
        let profile = cpu.profile();
        let snap = run_campaign_snapshot_on(
            Engine::Interpreter(&cpu),
            &profile,
            CampaignConfig {
                samples: cfg.samples,
                seed: cfg.seed,
            },
            threads,
            SnapshotPolicy::default(),
        );
        let lat = &snap.stats.latency;
        println!(
            "{:<14}{:>10}{:>8}{:>8}{:>8}{:>9.2}",
            w.name,
            lat.count(),
            lat.p50().map_or_else(|| "-".into(), |v| v.to_string()),
            lat.p95().map_or_else(|| "-".into(), |v| v.to_string()),
            lat.max().map_or_else(|| "-".into(), |v| v.to_string()),
            snap.stats.worker_balance(),
        );
        let opt_count = |v: Option<u64>| v.map_or(Json::Null, |n| n.to_json());
        latency_rows.push(Json::obj(vec![
            ("workload", w.name.to_json()),
            ("detected", lat.count().to_json()),
            ("p50", opt_count(lat.p50())),
            ("p95", opt_count(lat.p95())),
            ("max", opt_count(lat.max())),
            ("balance", snap.stats.worker_balance().to_json()),
        ]));
    }
    tables.push(("latency", Json::Arr(latency_rows)));

    println!();
    println!("coverage-pruned executor vs serial (FERRUM-protected)");
    println!(
        "{:<14}{:>12}{:>12}{:>9}{:>12}{:>13}{:>9}",
        "benchmark", "serial i/s", "pruned i/s", "speedup", "prune-rate", "steps-saved", "match"
    );
    let mut pruned_rows = Vec::new();
    for w in all_workloads() {
        let module = w.build(cfg.scale);
        let prog = pipeline
            .protect(&module, Technique::Ferrum)
            .expect("protects");
        let map = CoverageMap::analyze(&prog);
        let cpu = pipeline.load(&prog).expect("loads");
        let profile = cpu.profile();
        let campaign_cfg = CampaignConfig {
            samples: cfg.samples,
            seed: cfg.seed,
        };
        let serial = run_campaign(&cpu, &profile, campaign_cfg);
        let pruned =
            run_campaign_pruned_on(Engine::Interpreter(&cpu), &profile, campaign_cfg, &map);
        let identical = serial == pruned;
        let steps_saved = 1.0
            - pruned.stats.steps_executed as f64 / serial.stats.steps_executed.max(1) as f64;
        println!(
            "{:<14}{:>12.0}{:>12.0}{:>8.2}x{:>11.0}%{:>12.0}%{:>9}",
            w.name,
            serial.stats.injections_per_sec,
            pruned.stats.injections_per_sec,
            pruned.stats.injections_per_sec / serial.stats.injections_per_sec,
            pruned.stats.prune_rate() * 100.0,
            steps_saved * 100.0,
            if identical { "yes" } else { "NO" }
        );
        assert!(identical, "{}: pruned engine diverges", w.name);
        pruned_rows.push(Json::obj(vec![
            ("workload", w.name.to_json()),
            ("serial_ips", serial.stats.injections_per_sec.to_json()),
            ("pruned_ips", pruned.stats.injections_per_sec.to_json()),
            (
                "speedup",
                (pruned.stats.injections_per_sec / serial.stats.injections_per_sec).to_json(),
            ),
            ("prune_rate", pruned.stats.prune_rate().to_json()),
            ("steps_saved", steps_saved.to_json()),
            ("identical", Json::Bool(identical)),
        ]));
    }
    tables.push(("pruned", Json::Arr(pruned_rows)));

    println!();
    println!("decode-once flattened engine vs interpreter (FERRUM-protected, snapshot executor, 1 thread)");
    println!(
        "{:<14}{:>14}{:>14}{:>9}{:>12}{:>9}",
        "benchmark", "interp i/s", "decoded i/s", "speedup", "superinstr", "match"
    );
    let mut log_speedup_sum = 0.0;
    let mut n = 0usize;
    let mut decoded_rows = Vec::new();
    for w in all_workloads() {
        let module = w.build(cfg.scale);
        let prog = pipeline
            .protect(&module, Technique::Ferrum)
            .expect("protects");
        let cpu = pipeline.load(&prog).expect("loads");
        let decoded = DecodedCpu::new(&cpu);
        let profile = cpu.profile();
        let campaign_cfg = CampaignConfig {
            samples: cfg.samples,
            seed: cfg.seed,
        };
        let interp = run_campaign_snapshot_on(
            Engine::Interpreter(&cpu),
            &profile,
            campaign_cfg,
            1,
            SnapshotPolicy::default(),
        );
        let fast = run_campaign_snapshot_on(
            Engine::Decoded(&decoded),
            &profile,
            campaign_cfg,
            1,
            SnapshotPolicy::default(),
        );
        let identical = interp == fast && interp.stats.latency == fast.stats.latency;
        let speedup = fast.stats.injections_per_sec / interp.stats.injections_per_sec;
        log_speedup_sum += speedup.ln();
        n += 1;
        println!(
            "{:<14}{:>14.0}{:>14.0}{:>8.2}x{:>12}{:>9}",
            w.name,
            interp.stats.injections_per_sec,
            fast.stats.injections_per_sec,
            speedup,
            decoded.superinstructions(),
            if identical { "yes" } else { "NO" }
        );
        assert!(identical, "{}: decoded engine diverges", w.name);
        decoded_rows.push(Json::obj(vec![
            ("workload", w.name.to_json()),
            ("interp_ips", interp.stats.injections_per_sec.to_json()),
            ("decoded_ips", fast.stats.injections_per_sec.to_json()),
            ("speedup", speedup.to_json()),
            ("superinstructions", decoded.superinstructions().to_json()),
            ("identical", Json::Bool(identical)),
        ]));
    }
    let geomean_speedup = (log_speedup_sum / n.max(1) as f64).exp();
    println!("geomean speedup: {geomean_speedup:.2}x");
    tables.push((
        "decoded",
        Json::obj(vec![
            ("rows", Json::Arr(decoded_rows)),
            ("geomean_speedup", geomean_speedup.to_json()),
        ]),
    ));

    println!();
    println!("flight-recorder overhead (FERRUM-protected, decoded engine, snapshot executor, 1 thread, NDJSON to null sink)");
    println!(
        "{:<14}{:>14}{:>14}{:>10}{:>9}",
        "benchmark", "off i/s", "on i/s", "overhead", "match"
    );
    let mut log_ratio_sum = 0.0;
    let mut n_overhead = 0usize;
    let mut recorder_rows = Vec::new();
    for w in all_workloads() {
        let module = w.build(cfg.scale);
        let prog = pipeline
            .protect(&module, Technique::Ferrum)
            .expect("protects");
        let hash = program_signature(&prog);
        let cpu = pipeline.load(&prog).expect("loads");
        let decoded = DecodedCpu::new(&cpu);
        let profile = cpu.profile();
        let campaign_cfg = CampaignConfig {
            samples: cfg.samples,
            seed: cfg.seed,
        };
        let run = |recorded: bool| {
            if recorded {
                install_flight_recorder(Arc::new(
                    FlightRecorder::new(Arc::new(NdjsonSink::new(Box::new(std::io::sink()))))
                        .with_labels(w.name, "ferrum")
                        .with_program_hash(hash),
                ));
            }
            let r = run_campaign_snapshot_on(
                Engine::Decoded(&decoded),
                &profile,
                campaign_cfg,
                1,
                SnapshotPolicy::default(),
            );
            if recorded {
                uninstall_flight_recorder();
            }
            r
        };
        // Interleaved best-of-`reps` per configuration: each timed
        // campaign lasts only tens of milliseconds at paper scale, so
        // a single scheduler interrupt shows up as whole percentage
        // points and would swamp the percent-level effect being
        // priced.
        let off = run(false);
        let on = run(true);
        let mut off_ips = off.stats.injections_per_sec;
        let mut on_ips = on.stats.injections_per_sec;
        for _ in 1..reps {
            off_ips = off_ips.max(run(false).stats.injections_per_sec);
            on_ips = on_ips.max(run(true).stats.injections_per_sec);
        }
        let identical = off == on;
        let ratio = on_ips / off_ips;
        log_ratio_sum += ratio.ln();
        n_overhead += 1;
        println!(
            "{:<14}{:>14.0}{:>14.0}{:>9.2}%{:>9}",
            w.name,
            off_ips,
            on_ips,
            (1.0 - ratio) * 100.0,
            if identical { "yes" } else { "NO" }
        );
        assert!(identical, "{}: recording changed outcomes", w.name);
        recorder_rows.push(Json::obj(vec![
            ("workload", w.name.to_json()),
            ("off_ips", off_ips.to_json()),
            ("on_ips", on_ips.to_json()),
            ("overhead_pct", ((1.0 - ratio) * 100.0).to_json()),
            ("identical", Json::Bool(identical)),
        ]));
    }
    let geomean_overhead = (1.0 - (log_ratio_sum / n_overhead.max(1) as f64).exp()) * 100.0;
    println!("geomean overhead: {geomean_overhead:.2}%");
    tables.push((
        "recorder",
        Json::obj(vec![
            ("rows", Json::Arr(recorder_rows)),
            ("geomean_overhead_pct", geomean_overhead.to_json()),
        ]),
    ));

    println!();
    println!("incremental campaign after a single-function edit (FERRUM-protected, multi-function program)");
    println!(
        "{:<14}{:>12}{:>12}{:>12}{:>12}{:>9}{:>9}",
        "edited fn", "full ms", "incr ms", "reinjected", "reused", "speedup", "match"
    );
    let module = multi_function_module(6, 24);
    let base = Ferrum::new().protect_module(&module).expect("protects");
    let base_cpu = ferrum_cpu::run::Cpu::load(&base).expect("loads");
    let base_profile = base_cpu.profile();
    let campaign_cfg = CampaignConfig {
        samples: cfg.samples,
        seed: cfg.seed,
    };
    let (_, cache) = run_campaign_stratified_on(
        Engine::Interpreter(&base_cpu),
        &base_profile,
        campaign_cfg,
        &base,
    );
    let names: Vec<String> = base.functions.iter().map(|f| f.name.clone()).collect();
    let mut incremental_rows = Vec::new();
    for name in &names {
        let mut edited = base.clone();
        edited
            .functions
            .iter_mut()
            .find(|f| &f.name == name)
            .expect("function exists")
            .blocks[0]
            .insts
            .insert(0, AsmInst::synthetic(Inst::Nop));
        let cpu = ferrum_cpu::run::Cpu::load(&edited).expect("loads");
        let profile = cpu.profile();
        let t0 = Instant::now();
        let (full, _) =
            run_campaign_stratified_on(Engine::Interpreter(&cpu), &profile, campaign_cfg, &edited);
        let t_full = t0.elapsed();
        let t1 = Instant::now();
        let (inc, _) = run_campaign_incremental_on(
            Engine::Interpreter(&cpu),
            &profile,
            campaign_cfg,
            &edited,
            &cache,
        );
        let t_inc = t1.elapsed();
        let identical = full == inc;
        println!(
            "{:<14}{:>12.1}{:>12.1}{:>12}{:>12}{:>8.2}x{:>9}",
            name,
            t_full.as_secs_f64() * 1e3,
            t_inc.as_secs_f64() * 1e3,
            inc.total() - inc.stats.reused_sites,
            inc.stats.reused_sites,
            t_full.as_secs_f64() / t_inc.as_secs_f64().max(1e-9),
            if identical { "yes" } else { "NO" }
        );
        assert!(identical, "{name}: incremental run diverges from full re-run");
        incremental_rows.push(Json::obj(vec![
            ("edited", name.to_json()),
            ("full_ms", (t_full.as_secs_f64() * 1e3).to_json()),
            ("incr_ms", (t_inc.as_secs_f64() * 1e3).to_json()),
            ("reinjected", (inc.total() - inc.stats.reused_sites).to_json()),
            ("reused", inc.stats.reused_sites.to_json()),
            (
                "speedup_wall",
                (t_full.as_secs_f64() / t_inc.as_secs_f64().max(1e-9)).to_json(),
            ),
            ("identical", Json::Bool(identical)),
        ]));
    }
    tables.push(("incremental", Json::Arr(incremental_rows)));

    if let Some(path) = json_out {
        let doc = Json::obj(vec![
            ("schema", Json::Str(ferrum_bench::benchjson::SCHEMA.into())),
            (
                "config",
                Json::obj(vec![
                    ("samples", cfg.samples.to_json()),
                    ("seed", cfg.seed.to_json()),
                    (
                        "scale",
                        match cfg.scale {
                            ferrum::Scale::Test => "test",
                            ferrum::Scale::Paper => "paper",
                        }
                        .to_json(),
                    ),
                    ("threads", threads.to_json()),
                    ("reps", reps.to_json()),
                ]),
            ),
            ("tables", Json::obj(tables.clone())),
        ]);
        std::fs::write(&path, doc.to_string_pretty() + "\n")
            .unwrap_or_else(|e| panic!("--json-out {path}: {e}"));
        eprintln!("# wrote {path}");
    }
}
