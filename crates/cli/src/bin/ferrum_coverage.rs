//! `ferrum-coverage` — static per-site vulnerability maps.
//!
//! ```text
//! usage: ferrum-coverage <workload> [options]
//!        ferrum-coverage --catalog [--json]
//!   --technique <t>   ferrum | hybrid | ir-eddi   (default: ferrum)
//!   --samples <n>     faults for the measured campaign (default 400)
//!   --seed <s>        campaign seed (default 0xFE44)
//!   --scale <s>       test | paper   (default: test)
//!   --sites           include the per-site verdict lists in the output
//!   --json            emit the report as JSON instead of text
//!   --catalog         self-check across every bundled workload: the
//!                     pruned campaign must be outcome-identical to the
//!                     serial engine, every sound verdict must agree
//!                     with injection, and the FERRUM prune rate must
//!                     clear 20%
//! ```
//!
//! The tool protects the workload, classifies every injectable fault
//! site (`ferrum_asm::analysis::coverage`), prints the per-mechanism
//! rollups with the predicted detection-coverage bounds, then runs a
//! pruned injection campaign and prints the predicted-vs-measured
//! table.

use std::process::ExitCode;

use ferrum::json::{Json, ToJson};
use ferrum::report::{
    coverage_to_json, predicted_vs_measured_to_json, render_predicted_vs_measured,
    render_static_coverage,
};
use ferrum::{CampaignConfig, CoverageMap, Pipeline, StaticVerdict, Technique};
use ferrum_cli::args::{parse_args, usage_exit, ArgHelp, ArgSpec, UsageSpec};
use ferrum_cli::catalog::{catalog_exit, catalog_selfcheck, CheckLine};
use ferrum_faultsim::campaign::{run_campaign, run_campaign_pruned_on, Outcome};
use ferrum_faultsim::Engine;
use ferrum_workloads::catalog::{workload, Scale, Workload};

const USAGE: UsageSpec = UsageSpec {
    tool: "ferrum-coverage",
    forms: &["<workload> [options]", "--catalog [--json]"],
    args: &[
        ArgHelp {
            name: "--technique",
            value: Some("<t>"),
            help: "ferrum | hybrid | ir-eddi   (default: ferrum)",
        },
        ArgHelp {
            name: "--samples",
            value: Some("<n>"),
            help: "faults for the measured campaign (default 400)",
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
            name: "--sites",
            value: None,
            help: "include the per-site verdict lists in the output",
        },
        ArgHelp {
            name: "--json",
            value: None,
            help: "emit the report as JSON instead of text",
        },
        ArgHelp {
            name: "--catalog",
            value: None,
            help: "self-check across every bundled workload: the pruned\ncampaign must be outcome-identical to the serial\nengine, every sound verdict must agree with\ninjection, and the FERRUM prune rate must clear 20%",
        },
    ],
    spec: ArgSpec {
        flags: &["--json", "--sites", "--catalog"],
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
    sites: bool,
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

fn run_one(name: &str, opts: &Options) -> ExitCode {
    let Some(w) = workload(name) else {
        eprintln!("ferrum-coverage: unknown workload `{name}`");
        return ExitCode::FAILURE;
    };
    let pipeline = Pipeline::new().with_opt_level(opts.opt.unwrap_or_default());
    let module = w.build(opts.scale);
    let (map, campaign) = match (|| {
        let prog = pipeline.protect(&module, opts.technique)?;
        let map = CoverageMap::analyze(&prog);
        let cpu = pipeline.load(&prog)?;
        let profile = cpu.profile();
        let cfg = CampaignConfig {
            samples: opts.samples,
            seed: opts.seed,
        };
        let campaign = run_campaign_pruned_on(Engine::Interpreter(&cpu), &profile, cfg, &map);
        Ok::<_, ferrum::Error>((map, campaign))
    })() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ferrum-coverage: {name}: {e}");
            return ExitCode::FAILURE;
        }
    };

    if opts.json {
        let doc = Json::obj(vec![
            ("workload", name.to_json()),
            ("technique", technique_label(opts.technique).to_json()),
            ("coverage", coverage_to_json(&map, opts.sites)),
            (
                "predicted_vs_measured",
                predicted_vs_measured_to_json(&map, &campaign),
            ),
            ("campaign_stats", campaign.stats.to_json()),
            ("detected", campaign.detected.to_json()),
            ("benign", campaign.benign.to_json()),
            ("sdc", campaign.sdc.to_json()),
        ]);
        println!("{}", doc.to_string_pretty());
    } else {
        let label = format!("{name} ({})", technique_label(opts.technique));
        print!("{}", render_static_coverage(&label, &map));
        if opts.sites {
            for f in &map.functions {
                let r = &f.rollup;
                println!(
                    "  fn {:<24} {:>5} sites: {} masked, {} detected, {} vulnerable, {} unknown",
                    f.name, f.sites.len(), r.masked, r.detected, r.vulnerable, r.unknown
                );
            }
        }
        println!();
        print!("{}", render_predicted_vs_measured(&label, &map, &campaign));
    }
    ExitCode::SUCCESS
}

/// Self-check for one workload under FERRUM: every sound verdict must
/// agree with injection, the pruned engine must be outcome-identical to
/// the serial one, and the prune rate must clear the 20% floor.
fn catalog_check(
    pipeline: &Pipeline,
    w: &Workload,
    opts: &Options,
) -> Result<Vec<CheckLine>, ferrum::Error> {
    let opt = pipeline.opt_level();
    let module = w.build(opts.scale);
    let prog = pipeline.protect(&module, Technique::Ferrum)?;
    let map = CoverageMap::analyze(&prog);
    let cpu = pipeline.load(&prog)?;
    let profile = cpu.profile();
    let cfg = CampaignConfig {
        samples: opts.samples,
        seed: opts.seed,
    };
    let serial = run_campaign(&cpu, &profile, cfg);
    let pruned = run_campaign_pruned_on(Engine::Interpreter(&cpu), &profile, cfg, &map);

    let identical = serial == pruned;
    let prune_ok = pruned.stats.prune_rate() >= 0.20;
    // Soundness: the serial (all-injected) outcomes must agree with
    // every decided verdict the map claims for the sampled faults.
    let sound = serial.records.iter().all(|&(fault, outcome)| {
        let verdict = profile
            .sites
            .binary_search_by_key(&fault.dyn_index, |s| s.dyn_index)
            .ok()
            .and_then(|i| map.verdict_at(profile.sites[i].pc, fault.raw_bit));
        match verdict {
            Some(StaticVerdict::Masked) => outcome == Outcome::Benign,
            Some(StaticVerdict::Detected) => outcome == Outcome::Detected,
            _ => true,
        }
    });

    let rollup = map.rollup();
    Ok(vec![CheckLine {
        ok: identical && prune_ok && sound,
        json: Json::obj(vec![
            ("workload", w.name.to_json()),
            ("opt", opt.to_json()),
            ("total_sites", map.total_sites().to_json()),
            ("decided_fraction", rollup.decided_fraction().to_json()),
            ("prune_rate", pruned.stats.prune_rate().to_json()),
            ("pruned_identical", Json::Bool(identical)),
            ("verdicts_sound", Json::Bool(sound)),
        ]),
        text: format!(
            "{} [{}]: {} sites, {:.1}% decided, prune rate {:.1}% ({} of {}); pruned outcomes {}; verdicts {}",
            w.name,
            opt.label(),
            map.total_sites(),
            rollup.decided_fraction() * 100.0,
            pruned.stats.prune_rate() * 100.0,
            pruned.stats.pruned_sites,
            pruned.total(),
            if identical { "identical" } else { "DIVERGED" },
            if sound { "sound" } else { "UNSOUND" },
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
            sites: p.flag("--sites"),
            json: p.flag("--json"),
        };
        Ok((p, opts))
    }) {
        Ok(r) => r,
        Err(e) => return usage_exit(&USAGE.render(), &e),
    };

    if parsed.flag("--catalog") {
        let levels = ferrum_cli::catalog::catalog_levels(opts.opt);
        return catalog_exit(catalog_selfcheck("ferrum-coverage", opts.json, |w| {
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
