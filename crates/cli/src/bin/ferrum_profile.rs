//! `ferrum-profile` — exact execution profiles and differential
//! overhead attribution at pc granularity.
//!
//! ```text
//! usage: ferrum-profile <workload> [options]
//!        ferrum-profile --catalog [--json]
//!   --technique <t>  ferrum | hybrid | ir-eddi | none   (default: ferrum)
//!   --scale <s>      test | paper   (default: test)
//!   --opt <l>        backend optimization level 0 | 1   (default: 0)
//!   --top <n>        rows in the hot-spot / site tables (default 10)
//!   --diff           per-site overhead vs the peepholed baseline
//!   --folded         folded call stacks (flamegraph format) to stdout
//!   --json           emit per docs/profile-schema.md instead of text
//!   --catalog        self-check across every bundled workload and
//!                    technique: per-pc profiles must be byte-identical
//!                    across the interpreter and decoded engines, and
//!                    per-site overhead must sum exactly to the
//!                    per-mechanism attribution totals
//! ```
//!
//! Profiles are **exact**, not sampled: both engines charge every
//! dynamic instruction to its pc during the golden walk, so the profile
//! doubles as a cross-engine oracle — any divergence in dispatch order,
//! cycle pricing, or call tracking fails the run before it can corrupt
//! a campaign.  `ferrum-profile` therefore *always* collects the
//! profile on both engines and refuses to print a mismatch.

use std::process::ExitCode;

use ferrum::json::{Json, ToJson};
use ferrum::report::{
    pc_profile_to_json, render_diff_sites, render_function_profile, render_hotspots,
};
use ferrum::{diff_profile, DecodedCpu, Pipeline, Technique};
use ferrum_cli::args::{parse_args, usage_exit, ArgError, ArgHelp, ArgSpec, UsageSpec};
use ferrum_cli::catalog::{catalog_exit, catalog_selfcheck, CheckLine};
use ferrum_cpu::run::{Cpu, Profile};
use ferrum_workloads::catalog::{workload, Scale, Workload};

const USAGE: UsageSpec = UsageSpec {
    tool: "ferrum-profile",
    forms: &["<workload> [options]", "--catalog [--json]"],
    args: &[
        ArgHelp {
            name: "--technique",
            value: Some("<t>"),
            help: "ferrum | hybrid | ir-eddi | none   (default: ferrum)",
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
            name: "--top",
            value: Some("<n>"),
            help: "rows in the hot-spot / site tables (default 10)",
        },
        ArgHelp {
            name: "--diff",
            value: None,
            help: "per-site overhead vs the peepholed baseline",
        },
        ArgHelp {
            name: "--folded",
            value: None,
            help: "folded call stacks (flamegraph format) to stdout",
        },
        ArgHelp {
            name: "--json",
            value: None,
            help: "emit per docs/profile-schema.md instead of text",
        },
        ArgHelp {
            name: "--catalog",
            value: None,
            help: "self-check across every bundled workload and\ntechnique: per-pc profiles must be byte-identical\nacross the interpreter and decoded engines, and\nper-site overhead must sum exactly to the\nper-mechanism attribution totals",
        },
    ],
    spec: ArgSpec {
        flags: &["--diff", "--folded", "--json", "--catalog"],
        values: &["--technique", "--scale", "--opt", "--top"],
        positional: true,
    },
};

struct Options {
    technique: Technique,
    scale: Scale,
    opt: Option<ferrum::OptLevel>,
    top: usize,
    diff: bool,
    folded: bool,
    json: bool,
}

/// Profiles `cpu` on both engines and checks the cross-engine oracle:
/// the per-pc / per-function / folded-stack counts, the mechanism
/// totals, and the golden result must all be byte-identical.  Returns
/// the (shared) profile and whether the oracle held.
fn profile_both_engines(cpu: &Cpu) -> (Profile, bool) {
    let interp = cpu.profile();
    let decoded = DecodedCpu::new(cpu).profile();
    let identical = interp.pcs == decoded.pcs
        && interp.mech_counts == decoded.mech_counts
        && interp.result == decoded.result;
    (interp, identical)
}

fn run_one(name: &str, opts: &Options) -> ExitCode {
    let Some(w) = workload(name) else {
        eprintln!("ferrum-profile: unknown workload `{name}`");
        return ExitCode::FAILURE;
    };
    let pipeline = Pipeline::new().with_opt_level(opts.opt.unwrap_or_default());
    let module = w.build(opts.scale);

    let run = || -> Result<ExitCode, ferrum::Error> {
        let prog = pipeline.protect(&module, opts.technique)?;
        let cpu = pipeline.load(&prog)?;
        let (profile, identical) = profile_both_engines(&cpu);
        if !identical {
            eprintln!("ferrum-profile: {name}: interpreter and decoded profiles DIVERGED");
            return Ok(ExitCode::from(1));
        }
        if opts.folded {
            print!("{}", profile.pcs.folded(cpu.image()));
            return Ok(ExitCode::SUCCESS);
        }
        if opts.diff {
            let d = diff_profile(&pipeline, &module, opts.technique)?;
            if opts.json {
                let doc = Json::obj(vec![
                    ("workload", name.to_json()),
                    ("opt", pipeline.opt_level().to_json()),
                    ("diff", d.to_json()),
                ]);
                println!("{}", doc.to_string_pretty());
            } else {
                print!("{}", render_diff_sites(name, &d, opts.top));
            }
            if !d.sites_reconcile() {
                eprintln!("ferrum-profile: {name}: site overhead does not reconcile");
                return Ok(ExitCode::from(1));
            }
            return Ok(ExitCode::SUCCESS);
        }
        if opts.json {
            let doc = Json::obj(vec![
                ("workload", name.to_json()),
                ("technique", opts.technique.to_json()),
                ("opt", pipeline.opt_level().to_json()),
                ("engines_identical", Json::Bool(identical)),
                ("profile", pc_profile_to_json(cpu.image(), &profile.pcs)),
            ]);
            println!("{}", doc.to_string_pretty());
        } else {
            print!("{}", render_hotspots(name, cpu.image(), &profile.pcs, opts.top));
            println!();
            print!("{}", render_function_profile(cpu.image(), &profile.pcs));
        }
        Ok(ExitCode::SUCCESS)
    };
    run().unwrap_or_else(|e| {
        eprintln!("ferrum-profile: {name}: {e}");
        ExitCode::FAILURE
    })
}

/// Self-check for one workload at one opt level: for every technique,
/// the cross-engine profile oracle and the exact per-site
/// reconciliation down to pc granularity.
fn catalog_check(
    pipeline: &Pipeline,
    w: &Workload,
    opts: &Options,
) -> Result<Vec<CheckLine>, ferrum::Error> {
    let opt = pipeline.opt_level();
    let module = w.build(opts.scale);
    let mut lines = Vec::new();
    for technique in [
        Technique::None,
        Technique::IrEddi,
        Technique::HybridAsmEddi,
        Technique::Ferrum,
    ] {
        let prog = pipeline.protect(&module, technique)?;
        let cpu = pipeline.load(&prog)?;
        let (profile, identical) = profile_both_engines(&cpu);
        let d = diff_profile(pipeline, &module, technique)?;
        let reconciles = d.sites_reconcile();
        let total = profile.pcs.total();
        lines.push(CheckLine {
            ok: identical && reconciles,
            json: Json::obj(vec![
                ("workload", w.name.to_json()),
                ("technique", technique.to_json()),
                ("opt", opt.to_json()),
                ("dyn_insts", total.insts.to_json()),
                ("cycles", total.cycles.to_json()),
                ("sites", (d.sites.len() as u64).to_json()),
                ("engines_identical", Json::Bool(identical)),
                ("sites_reconcile", Json::Bool(reconciles)),
            ]),
            text: format!(
                "{} [{} {}]: {} dyn insts / {} cycles, {} site(s); engines {}; site sum {}",
                w.name,
                technique,
                opt.label(),
                total.insts,
                total.cycles,
                d.sites.len(),
                if identical { "identical" } else { "DIVERGED" },
                if reconciles { "exact" } else { "MISMATCH" },
            ),
        });
    }
    Ok(lines)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (parsed, opts) = match parse_args(&args, &USAGE.spec).and_then(|p| {
        let top = p.number("--top", 10)?;
        let opts = Options {
            technique: p.technique_core(Technique::Ferrum)?,
            scale: p.scale(Scale::Test)?,
            opt: p.opt_level()?,
            top,
            diff: p.flag("--diff"),
            folded: p.flag("--folded"),
            json: p.flag("--json"),
        };
        Ok((p, opts))
    }) {
        Ok(r) => r,
        Err(e) => return usage_exit(&USAGE.render(), &e),
    };

    if parsed.flag("--catalog") {
        let levels = ferrum_cli::catalog::catalog_levels(opts.opt);
        return catalog_exit(catalog_selfcheck("ferrum-profile", opts.json, |w| {
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
