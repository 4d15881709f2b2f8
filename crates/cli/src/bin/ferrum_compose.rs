//! `ferrum-compose` — compositional verdicts and incremental campaigns.
//!
//! ```text
//! usage: ferrum-compose <workload> [options]
//!        ferrum-compose --catalog [--json]
//!   --technique <t>   ferrum | hybrid | ir-eddi | none   (default: ferrum)
//!   --samples <n>     faults for the stratified campaign (default 400)
//!   --seed <s>        campaign seed (default 0xFE44)
//!   --scale <s>       test | paper   (default: test)
//!   --opt <l>         backend optimization level 0 | 1   (default: 0)
//!   --json            emit the report as JSON instead of text
//!   --catalog         self-check across every bundled workload: no
//!                     composed Masked/Detected verdict may be
//!                     contradicted by a monolithic campaign outcome,
//!                     and an incremental re-run against the fresh
//!                     cache must be record-identical to the
//!                     stratified campaign with a 100% reuse rate
//! ```
//!
//! The tool protects the workload, computes per-function
//! fault-propagation summaries (`ferrum_asm::analysis::summary`),
//! composes them through caller-side liveness into whole-program
//! verdicts (`ferrum_faultsim::compose`), prints the per-function
//! lift table, then runs a stratified campaign and replays it
//! incrementally to report the cache reuse rate.  JSON output follows
//! docs/compose-schema.md.

use std::process::ExitCode;

use ferrum::json::{Json, ToJson};
use ferrum::report::{composition_to_json, render_composition};
use ferrum::{
    compose, CampaignConfig, ComposedMap, CoverageMap, Pipeline, StaticVerdict, SummaryMap,
    Technique,
};
use ferrum_cli::args::{parse_args, usage_exit, ArgHelp, ArgSpec, UsageSpec};
use ferrum_cli::catalog::{catalog_exit, catalog_selfcheck, CheckLine};
use ferrum_cpu::run::Profile;
use ferrum_faultsim::campaign::{run_campaign, CampaignResult, Outcome};
use ferrum_faultsim::Engine;
use ferrum_faultsim::{run_campaign_incremental_on, run_campaign_stratified_on};
use ferrum_workloads::catalog::{workload, Scale, Workload};

const USAGE: UsageSpec = UsageSpec {
    tool: "ferrum-compose",
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
            help: "faults for the stratified campaign (default 400)",
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
            name: "--json",
            value: None,
            help: "emit the report as JSON instead of text",
        },
        ArgHelp {
            name: "--catalog",
            value: None,
            help: "self-check across every bundled workload: no composed\nMasked/Detected verdict may be contradicted by a\nmonolithic campaign outcome, and an incremental re-run\nagainst the fresh cache must be record-identical to the\nstratified campaign with a 100% reuse rate",
        },
    ],
    spec: ArgSpec {
        flags: &["--json", "--catalog"],
        values: &["--technique", "--samples", "--seed", "--scale", "--opt"],
        positional: true,
    },
};

struct Options {
    technique: Technique,
    samples: usize,
    seed: u64,
    scale: Scale,
    opt: Option<ferrum::OptLevel>,
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

/// Checks every monolithic campaign outcome against the composed map:
/// a composed `Masked` must be `Benign`, a composed `Detected` must be
/// `Detected`.  Returns the number of contradicted records.
fn contradictions(composed: &ComposedMap, profile: &Profile, serial: &CampaignResult) -> usize {
    serial
        .records
        .iter()
        .filter(|&&(fault, outcome)| {
            let verdict = profile
                .sites
                .binary_search_by_key(&fault.dyn_index, |s| s.dyn_index)
                .ok()
                .and_then(|i| composed.verdict_at(profile.sites[i].pc, fault.raw_bit));
            match verdict {
                Some(StaticVerdict::Masked) => outcome != Outcome::Benign,
                Some(StaticVerdict::Detected) => outcome != Outcome::Detected,
                _ => false,
            }
        })
        .count()
}

fn run_one(name: &str, opts: &Options) -> ExitCode {
    let Some(w) = workload(name) else {
        eprintln!("ferrum-compose: unknown workload `{name}`");
        return ExitCode::FAILURE;
    };
    let pipeline = Pipeline::new().with_opt_level(opts.opt.unwrap_or_default());
    let module = w.build(opts.scale);
    let cfg = CampaignConfig {
        samples: opts.samples,
        seed: opts.seed,
    };
    let (composed, stratified, incremental) = match (|| {
        let prog = pipeline.protect(&module, opts.technique)?;
        let coverage = CoverageMap::analyze(&prog);
        let summary = SummaryMap::build(&prog, &coverage);
        let composed = compose(&prog, &coverage, &summary);
        let cpu = pipeline.load(&prog)?;
        let profile = cpu.profile();
        let interp = Engine::Interpreter(&cpu);
        let (stratified, cache) = run_campaign_stratified_on(interp, &profile, cfg, &prog);
        let (incremental, _) = run_campaign_incremental_on(interp, &profile, cfg, &prog, &cache);
        Ok::<_, ferrum::Error>((composed, stratified, incremental))
    })() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ferrum-compose: {name}: {e}");
            return ExitCode::FAILURE;
        }
    };

    if opts.json {
        let doc = Json::obj(vec![
            ("workload", name.to_json()),
            ("technique", technique_label(opts.technique).to_json()),
            ("composition", composition_to_json(&composed)),
            ("campaign_stats", stratified.stats.to_json()),
            ("detected", stratified.detected.to_json()),
            ("benign", stratified.benign.to_json()),
            ("sdc", stratified.sdc.to_json()),
            ("incremental_stats", incremental.stats.to_json()),
            (
                "incremental_identical",
                Json::Bool(incremental == stratified),
            ),
        ]);
        println!("{}", doc.to_string_pretty());
    } else {
        let label = format!("{name} ({})", technique_label(opts.technique));
        print!("{}", render_composition(&label, &composed));
        println!();
        println!(
            "stratified campaign: {} injections, SDC {}  detected {}  benign {}",
            stratified.total(),
            stratified.sdc,
            stratified.detected,
            stratified.benign,
        );
        println!(
            "incremental replay: {} of {} faults reused ({:.1}%), outcomes {}",
            incremental.stats.reused_sites,
            incremental.total(),
            incremental.stats.reuse_rate() * 100.0,
            if incremental == stratified {
                "identical"
            } else {
                "DIVERGED"
            },
        );
    }
    ExitCode::SUCCESS
}

/// Self-check for one workload under FERRUM: the composed verdicts
/// must never contradict a monolithic campaign outcome, and the
/// incremental executor must reproduce the stratified campaign exactly
/// from a fresh cache.
fn catalog_check(
    pipeline: &Pipeline,
    w: &Workload,
    opts: &Options,
) -> Result<Vec<CheckLine>, ferrum::Error> {
    let opt = pipeline.opt_level();
    let module = w.build(opts.scale);
    let prog = pipeline.protect(&module, Technique::Ferrum)?;
    let coverage = CoverageMap::analyze(&prog);
    let summary = SummaryMap::build(&prog, &coverage);
    let composed = compose(&prog, &coverage, &summary);
    let cpu = pipeline.load(&prog)?;
    let profile = cpu.profile();
    let interp = Engine::Interpreter(&cpu);
    let cfg = CampaignConfig {
        samples: opts.samples,
        seed: opts.seed,
    };

    let serial = run_campaign(&cpu, &profile, cfg);
    let contradicted = contradictions(&composed, &profile, &serial);

    let (stratified, cache) = run_campaign_stratified_on(interp, &profile, cfg, &prog);
    let (incremental, _) = run_campaign_incremental_on(interp, &profile, cfg, &prog, &cache);
    let identical = incremental == stratified;
    let full_reuse = incremental.stats.reused_sites == incremental.total();

    let ok = contradicted == 0 && identical && full_reuse;
    Ok(vec![CheckLine {
        ok,
        json: Json::obj(vec![
            ("workload", w.name.to_json()),
            ("opt", opt.to_json()),
            ("total_sites", coverage.total_sites().to_json()),
            ("lifted", composed.lifted().to_json()),
            ("contradicted", contradicted.to_json()),
            ("incremental_identical", Json::Bool(identical)),
            ("reuse_rate", incremental.stats.reuse_rate().to_json()),
        ]),
        text: format!(
            "{} [{}]: {} sites, {} lifted; composed verdicts {}; incremental {} (reuse {:.1}%)",
            w.name,
            opt.label(),
            coverage.total_sites(),
            composed.lifted(),
            if contradicted == 0 {
                "sound".to_owned()
            } else {
                format!("{contradicted} CONTRADICTED")
            },
            if identical { "identical" } else { "DIVERGED" },
            incremental.stats.reuse_rate() * 100.0,
        ),
    }])
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (parsed, opts) = match parse_args(&args, &USAGE.spec).and_then(|p| {
        let opts = Options {
            technique: p.technique_core(Technique::Ferrum)?,
            samples: p.samples(400)?,
            seed: p.seed(0xFE44)?,
            scale: p.scale(Scale::Test)?,
            opt: p.opt_level()?,
            json: p.flag("--json"),
        };
        Ok((p, opts))
    }) {
        Ok(r) => r,
        Err(e) => return usage_exit(&USAGE.render(), &e),
    };

    if parsed.flag("--catalog") {
        let levels = ferrum_cli::catalog::catalog_levels(opts.opt);
        return catalog_exit(catalog_selfcheck("ferrum-compose", opts.json, |w| {
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
        None => usage_exit(&USAGE.render(), &ferrum_cli::args::ArgError::Help),
    }
}

#[cfg(test)]
mod spec_tests {
    #[test]
    fn spec_rejects_duplicate_and_swallowed_arguments() {
        ferrum_cli::args::assert_usage_consistent(&super::USAGE);
    }
}
