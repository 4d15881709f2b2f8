//! `ferrum-fuzz` — differential fuzzing of the compile + protect
//! pipeline.
//!
//! ```text
//! usage: ferrum-fuzz [options]
//!   --programs <n>   programs to generate and check (default 200)
//!   --seed <s>       seed of the first program; program i uses s+i
//!                    (default 42)
//!   --samples <n>    faults for each coverage cross-check campaign
//!                    (default 25; 0 disables the campaign stage)
//!   --json           emit the final report as JSON instead of text
//! ```
//!
//! Each seeded program is pushed through the whole oracle stack
//! (`ferrum_fuzz::harness`): MIR interpreter vs `-O0` vs `-O1` on
//! both execution engines, pass-bundle idempotence and stat
//! exactness, protection transparency and lint cleanliness for every
//! technique at both levels, and static-coverage soundness under a
//! small pruned-vs-serial campaign.  Exit status 0 means every check
//! of every program agreed; 1 means at least one divergence (each is
//! printed with its seed, stage, and detail — pin it in
//! `tests/fuzz_regressions.rs`).

use std::process::ExitCode;

use ferrum::json::{Json, ToJson};
use ferrum_cli::args::{parse_args, usage_exit, ArgHelp, ArgSpec, UsageSpec};
use ferrum_fuzz::{run_fuzz, FuzzConfig};

const USAGE: UsageSpec = UsageSpec {
    tool: "ferrum-fuzz",
    forms: &["[options]"],
    args: &[
        ArgHelp {
            name: "--programs",
            value: Some("<n>"),
            help: "programs to generate and check (default 200)",
        },
        ArgHelp {
            name: "--seed",
            value: Some("<s>"),
            help: "seed of the first program; program i uses s+i\n(default 42)",
        },
        ArgHelp {
            name: "--samples",
            value: Some("<n>"),
            help: "faults for each coverage cross-check campaign\n(default 25; 0 disables the campaign stage)",
        },
        ArgHelp {
            name: "--json",
            value: None,
            help: "emit the final report as JSON instead of text",
        },
    ],
    spec: ArgSpec {
        flags: &["--json"],
        values: &["--programs", "--seed", "--samples"],
        positional: false,
    },
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cfg, json) = match parse_args(&args, &USAGE.spec).and_then(|p| {
        let cfg = FuzzConfig {
            programs: p.number("--programs", 200)?,
            base_seed: p.seed(42)?,
            campaign_samples: p.samples(25)?,
        };
        Ok((cfg, p.flag("--json")))
    }) {
        Ok(r) => r,
        Err(e) => return usage_exit(&USAGE.render(), &e),
    };

    let report = run_fuzz(&cfg, |done, rep| {
        if !json && done % 100 == 0 {
            println!(
                "  {done}/{} programs, {} checks, {} divergences",
                cfg.programs,
                rep.checks,
                rep.divergences.len()
            );
        }
    });

    if json {
        let doc = Json::obj(vec![
            ("programs", report.programs.to_json()),
            ("base_seed", cfg.base_seed.to_json()),
            ("campaign_samples", cfg.campaign_samples.to_json()),
            ("checks", report.checks.to_json()),
            ("mir_insts", report.mir_insts.to_json()),
            (
                "divergences",
                Json::Arr(
                    report
                        .divergences
                        .iter()
                        .map(|d| {
                            Json::obj(vec![
                                ("seed", d.seed.to_json()),
                                ("stage", d.stage.to_json()),
                                ("detail", d.detail.as_str().to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        println!("{}", doc.to_string_pretty());
    } else {
        println!(
            "ferrum-fuzz: {} programs (seeds {}..{}), {} checks, {} MIR insts generated",
            report.programs,
            cfg.base_seed,
            cfg.base_seed + report.programs,
            report.checks,
            report.mir_insts
        );
        for d in &report.divergences {
            println!("  DIVERGENCE seed {} [{}]: {}", d.seed, d.stage, d.detail);
        }
        println!(
            "result: {}",
            if report.is_clean() {
                "clean — every layer agreed on every program".to_owned()
            } else {
                format!("{} divergences", report.divergences.len())
            }
        );
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod spec_tests {
    #[test]
    fn spec_rejects_duplicate_and_swallowed_arguments() {
        ferrum_cli::args::assert_usage_consistent(&super::USAGE);
    }
}
