//! `ferrum-repro speedup`: the campaign engines against the serial
//! executor on the same sampled faults.  Every table asserts
//! in-process that its engines return byte-identical outcome records,
//! so a clean exit is itself a determinism check.  The tables:
//! snapshot engine (golden-prefix sharing + work stealing) vs serial
//! with the [`ferrum::CampaignStats`] telemetry; FERRUM's
//! detection-latency distribution; the coverage-pruned executor
//! ([`ferrum::CoverageMap`]); the decode-once engine
//! ([`ferrum::DecodedCpu`]) vs the interpreter; the flight recorder
//! ([`ferrum::FlightRecorder`]) priced against a null sink; and an
//! incremental campaign after a one-function edit vs a full
//! stratified re-run.  `--json-out` writes all of them as the
//! `bench.json` artifact ([`crate::benchjson`]) that
//! `scripts/bench_check.sh` gates against `results/bench.json`.

use std::io::{self, Write};
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

use super::{for_each_workload, Opts};

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

pub(super) fn speedup(o: &Opts, out: &mut dyn Write) -> io::Result<()> {
    let cfg = o.eval;
    let threads = o.threads;
    let pipeline = Pipeline::new();
    let campaign_cfg = CampaignConfig {
        samples: cfg.samples,
        seed: cfg.seed,
    };
    let mut tables: Vec<(&str, Json)> = Vec::new();

    eprintln!(
        "# campaign-engine speedup — {} faults, seed {}, {:?} scale, {} threads",
        cfg.samples, cfg.seed, cfg.scale, threads
    );
    writeln!(out, "snapshot campaign engine vs serial executor")?;
    writeln!(
        out,
        "{:<14}{:>12}{:>12}{:>12}{:>9}{:>10}{:>12}{:>9}{:>9}",
        "benchmark", "serial i/s", "steal i/s", "snap i/s", "speedup", "hit-rate", "steps-saved", "balance", "match"
    )?;
    let mut snapshot_rows = Vec::new();
    for_each_workload(&pipeline, cfg.scale, &[Technique::None], |w, _, built| {
        let cpu = &built[0].cpu;
        let profile = cpu.profile();
        let interp = Engine::Interpreter(cpu);
        let serial = run_campaign(cpu, &profile, campaign_cfg);
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
        writeln!(
            out,
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
        )?;
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
        Ok(())
    })?;
    tables.push(("snapshot", Json::Arr(snapshot_rows)));

    writeln!(out)?;
    writeln!(out, "detection latency (FERRUM-protected, snapshot engine)")?;
    writeln!(
        out,
        "{:<14}{:>10}{:>8}{:>8}{:>8}{:>9}",
        "benchmark", "detected", "p50", "p95", "max", "balance"
    )?;
    let mut latency_rows = Vec::new();
    for_each_workload(&pipeline, cfg.scale, &[Technique::Ferrum], |w, _, built| {
        let cpu = &built[0].cpu;
        let snap = run_campaign_snapshot_on(
            Engine::Interpreter(cpu),
            &cpu.profile(),
            campaign_cfg,
            threads,
            SnapshotPolicy::default(),
        );
        let lat = &snap.stats.latency;
        writeln!(
            out,
            "{:<14}{:>10}{:>8}{:>8}{:>8}{:>9.2}",
            w.name,
            lat.count(),
            lat.p50().map_or_else(|| "-".into(), |v| v.to_string()),
            lat.p95().map_or_else(|| "-".into(), |v| v.to_string()),
            lat.max().map_or_else(|| "-".into(), |v| v.to_string()),
            snap.stats.worker_balance(),
        )?;
        let opt_count = |v: Option<u64>| v.map_or(Json::Null, |n| n.to_json());
        latency_rows.push(Json::obj(vec![
            ("workload", w.name.to_json()),
            ("detected", lat.count().to_json()),
            ("p50", opt_count(lat.p50())),
            ("p95", opt_count(lat.p95())),
            ("max", opt_count(lat.max())),
            ("balance", snap.stats.worker_balance().to_json()),
        ]));
        Ok(())
    })?;
    tables.push(("latency", Json::Arr(latency_rows)));

    writeln!(out)?;
    writeln!(out, "coverage-pruned executor vs serial (FERRUM-protected)")?;
    writeln!(
        out,
        "{:<14}{:>12}{:>12}{:>9}{:>12}{:>13}{:>9}",
        "benchmark", "serial i/s", "pruned i/s", "speedup", "prune-rate", "steps-saved", "match"
    )?;
    let mut pruned_rows = Vec::new();
    for_each_workload(&pipeline, cfg.scale, &[Technique::Ferrum], |w, _, built| {
        let map = CoverageMap::analyze(&built[0].prog);
        let cpu = &built[0].cpu;
        let profile = cpu.profile();
        let serial = run_campaign(cpu, &profile, campaign_cfg);
        let pruned =
            run_campaign_pruned_on(Engine::Interpreter(cpu), &profile, campaign_cfg, &map);
        let identical = serial == pruned;
        let steps_saved = 1.0
            - pruned.stats.steps_executed as f64 / serial.stats.steps_executed.max(1) as f64;
        let speedup = pruned.stats.injections_per_sec / serial.stats.injections_per_sec;
        writeln!(
            out,
            "{:<14}{:>12.0}{:>12.0}{:>8.2}x{:>11.0}%{:>12.0}%{:>9}",
            w.name,
            serial.stats.injections_per_sec,
            pruned.stats.injections_per_sec,
            speedup,
            pruned.stats.prune_rate() * 100.0,
            steps_saved * 100.0,
            if identical { "yes" } else { "NO" }
        )?;
        assert!(identical, "{}: pruned engine diverges", w.name);
        pruned_rows.push(Json::obj(vec![
            ("workload", w.name.to_json()),
            ("serial_ips", serial.stats.injections_per_sec.to_json()),
            ("pruned_ips", pruned.stats.injections_per_sec.to_json()),
            ("speedup", speedup.to_json()),
            ("prune_rate", pruned.stats.prune_rate().to_json()),
            ("steps_saved", steps_saved.to_json()),
            ("identical", Json::Bool(identical)),
        ]));
        Ok(())
    })?;
    tables.push(("pruned", Json::Arr(pruned_rows)));

    writeln!(out)?;
    writeln!(out, "decode-once flattened engine vs interpreter (FERRUM-protected, snapshot executor, 1 thread)")?;
    writeln!(
        out,
        "{:<14}{:>14}{:>14}{:>9}{:>12}{:>9}",
        "benchmark", "interp i/s", "decoded i/s", "speedup", "superinstr", "match"
    )?;
    let mut log_speedup_sum = 0.0;
    let mut n = 0usize;
    let mut decoded_rows = Vec::new();
    for_each_workload(&pipeline, cfg.scale, &[Technique::Ferrum], |w, _, built| {
        let cpu = &built[0].cpu;
        let decoded = DecodedCpu::new(cpu);
        let profile = cpu.profile();
        let snapshot = |engine| {
            run_campaign_snapshot_on(engine, &profile, campaign_cfg, 1, SnapshotPolicy::default())
        };
        let interp = snapshot(Engine::Interpreter(cpu));
        let fast = snapshot(Engine::Decoded(&decoded));
        let identical = interp == fast && interp.stats.latency == fast.stats.latency;
        let speedup = fast.stats.injections_per_sec / interp.stats.injections_per_sec;
        log_speedup_sum += speedup.ln();
        n += 1;
        writeln!(
            out,
            "{:<14}{:>14.0}{:>14.0}{:>8.2}x{:>12}{:>9}",
            w.name,
            interp.stats.injections_per_sec,
            fast.stats.injections_per_sec,
            speedup,
            decoded.superinstructions(),
            if identical { "yes" } else { "NO" }
        )?;
        assert!(identical, "{}: decoded engine diverges", w.name);
        decoded_rows.push(Json::obj(vec![
            ("workload", w.name.to_json()),
            ("interp_ips", interp.stats.injections_per_sec.to_json()),
            ("decoded_ips", fast.stats.injections_per_sec.to_json()),
            ("speedup", speedup.to_json()),
            ("superinstructions", decoded.superinstructions().to_json()),
            ("identical", Json::Bool(identical)),
        ]));
        Ok(())
    })?;
    let geomean_speedup = (log_speedup_sum / n.max(1) as f64).exp();
    writeln!(out, "geomean speedup: {geomean_speedup:.2}x")?;
    tables.push((
        "decoded",
        Json::obj(vec![
            ("rows", Json::Arr(decoded_rows)),
            ("geomean_speedup", geomean_speedup.to_json()),
        ]),
    ));

    writeln!(out)?;
    writeln!(out, "flight-recorder overhead (FERRUM-protected, decoded engine, snapshot executor, 1 thread, NDJSON to null sink)")?;
    writeln!(
        out,
        "{:<14}{:>14}{:>14}{:>10}{:>9}",
        "benchmark", "off i/s", "on i/s", "overhead", "match"
    )?;
    let mut log_ratio_sum = 0.0;
    let mut n_overhead = 0usize;
    let mut recorder_rows = Vec::new();
    for_each_workload(&pipeline, cfg.scale, &[Technique::Ferrum], |w, _, built| {
        let hash = program_signature(&built[0].prog);
        let decoded = DecodedCpu::new(&built[0].cpu);
        let profile = built[0].cpu.profile();
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
        for _ in 1..o.reps {
            off_ips = off_ips.max(run(false).stats.injections_per_sec);
            on_ips = on_ips.max(run(true).stats.injections_per_sec);
        }
        let identical = off == on;
        let ratio = on_ips / off_ips;
        log_ratio_sum += ratio.ln();
        n_overhead += 1;
        writeln!(
            out,
            "{:<14}{:>14.0}{:>14.0}{:>9.2}%{:>9}",
            w.name,
            off_ips,
            on_ips,
            (1.0 - ratio) * 100.0,
            if identical { "yes" } else { "NO" }
        )?;
        assert!(identical, "{}: recording changed outcomes", w.name);
        recorder_rows.push(Json::obj(vec![
            ("workload", w.name.to_json()),
            ("off_ips", off_ips.to_json()),
            ("on_ips", on_ips.to_json()),
            ("overhead_pct", ((1.0 - ratio) * 100.0).to_json()),
            ("identical", Json::Bool(identical)),
        ]));
        Ok(())
    })?;
    let geomean_overhead = (1.0 - (log_ratio_sum / n_overhead.max(1) as f64).exp()) * 100.0;
    writeln!(out, "geomean overhead: {geomean_overhead:.2}%")?;
    tables.push((
        "recorder",
        Json::obj(vec![
            ("rows", Json::Arr(recorder_rows)),
            ("geomean_overhead_pct", geomean_overhead.to_json()),
        ]),
    ));

    writeln!(out)?;
    writeln!(out, "incremental campaign after a single-function edit (FERRUM-protected, multi-function program)")?;
    writeln!(
        out,
        "{:<14}{:>12}{:>12}{:>12}{:>12}{:>9}{:>9}",
        "edited fn", "full ms", "incr ms", "reinjected", "reused", "speedup", "match"
    )?;
    let module = multi_function_module(6, 24);
    let base = Ferrum::new().protect_module(&module).expect("protects");
    let base_cpu = ferrum_cpu::run::Cpu::load(&base).expect("loads");
    let base_profile = base_cpu.profile();
    let (_, cache) = run_campaign_stratified_on(
        Engine::Interpreter(&base_cpu),
        &base_profile,
        campaign_cfg,
        &base,
    );
    let mut incremental_rows = Vec::new();
    for name in base.functions.iter().map(|f| &f.name) {
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
        let t_full = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let (inc, _) = run_campaign_incremental_on(
            Engine::Interpreter(&cpu),
            &profile,
            campaign_cfg,
            &edited,
            &cache,
        );
        let t_inc = t1.elapsed().as_secs_f64();
        let identical = full == inc;
        let speedup = t_full / t_inc.max(1e-9);
        let reinjected = inc.total() - inc.stats.reused_sites;
        writeln!(
            out,
            "{:<14}{:>12.1}{:>12.1}{:>12}{:>12}{:>8.2}x{:>9}",
            name,
            t_full * 1e3,
            t_inc * 1e3,
            reinjected,
            inc.stats.reused_sites,
            speedup,
            if identical { "yes" } else { "NO" }
        )?;
        assert!(identical, "{name}: incremental run diverges from full re-run");
        incremental_rows.push(Json::obj(vec![
            ("edited", name.to_json()),
            ("full_ms", (t_full * 1e3).to_json()),
            ("incr_ms", (t_inc * 1e3).to_json()),
            ("reinjected", reinjected.to_json()),
            ("reused", inc.stats.reused_sites.to_json()),
            ("speedup_wall", speedup.to_json()),
            ("identical", Json::Bool(identical)),
        ]));
    }
    tables.push(("incremental", Json::Arr(incremental_rows)));

    if let Some(path) = &o.json_out {
        let scale = match cfg.scale {
            ferrum::Scale::Test => "test",
            ferrum::Scale::Paper => "paper",
        };
        let doc = Json::obj(vec![
            ("schema", Json::Str(crate::benchjson::SCHEMA.into())),
            (
                "config",
                Json::obj(vec![
                    ("samples", cfg.samples.to_json()),
                    ("seed", cfg.seed.to_json()),
                    ("scale", scale.to_json()),
                    ("threads", threads.to_json()),
                    ("reps", o.reps.to_json()),
                ]),
            ),
            ("tables", Json::obj(tables)),
        ]);
        std::fs::write(path, doc.to_string_pretty() + "\n")
            .map_err(|e| io::Error::new(e.kind(), format!("--json-out {path}: {e}")))?;
        eprintln!("# wrote {path}");
    }
    Ok(())
}
