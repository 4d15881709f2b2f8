//! `ferrum-cpu` — execution-engine self-check and single-run driver.
//!
//! ```text
//! usage: ferrum-cpu <workload> [options]
//!        ferrum-cpu --selfcheck [--json]
//!   --technique <t>  ferrum | hybrid | ir-eddi | none  (default: ferrum)
//!   --scale <s>      test | paper   (default: test)
//!   --engine <e>     interpreter | decoded   (default: interpreter)
//!   --json           emit the run result as JSON instead of text
//!   --selfcheck      engine-identity sweep: every bundled workload ×
//!                    every technique, asserting that the decode-once
//!                    flattened engine reproduces the reference
//!                    interpreter byte-for-byte — same run result and
//!                    the same profile (injectable sites, provenance
//!                    counts, mechanism counts, golden output)
//! ```
//!
//! The self-check is the tier-1 gate for `ferrum_cpu::decoded`: any
//! divergence between the two engines on any workload/technique pair
//! fails the sweep with a per-pair verdict line.

use std::process::ExitCode;

use ferrum::json::{Json, ToJson};
use ferrum::{DecodedCpu, Pipeline, Technique};
use ferrum_cli::args::{parse_args, usage_exit, ArgError, ArgHelp, ArgSpec, UsageSpec};
use ferrum_cli::catalog::{catalog_exit, catalog_selfcheck, CheckLine};
use ferrum_cpu::run::{Cpu, Profile};
use ferrum_faultsim::EngineKind;
use ferrum_workloads::catalog::{workload, Scale, Workload};

const USAGE: UsageSpec = UsageSpec {
    tool: "ferrum-cpu",
    forms: &["<workload> [options]", "--selfcheck [--json]"],
    args: &[
        ArgHelp {
            name: "--technique",
            value: Some("<t>"),
            help: "ferrum | hybrid | ir-eddi | none  (default: ferrum)",
        },
        ArgHelp {
            name: "--scale",
            value: Some("<s>"),
            help: "test | paper   (default: test)",
        },
        ArgHelp {
            name: "--engine",
            value: Some("<e>"),
            help: "interpreter | decoded   (default: interpreter)",
        },
        ArgHelp {
            name: "--opt",
            value: Some("<l>"),
            help: "backend optimization level 0 | 1   (default: 0;\n--selfcheck: both levels)",
        },
        ArgHelp {
            name: "--json",
            value: None,
            help: "emit the run result as JSON instead of text",
        },
        ArgHelp {
            name: "--selfcheck",
            value: None,
            help: "engine-identity sweep: every bundled workload x\nevery technique, asserting that the decode-once\nflattened engine reproduces the reference\ninterpreter byte-for-byte",
        },
    ],
    spec: ArgSpec {
        flags: &["--json", "--selfcheck"],
        values: &["--technique", "--scale", "--engine", "--opt"],
        positional: true,
    },
};

const TECHNIQUES: [Technique; 4] = [
    Technique::None,
    Technique::IrEddi,
    Technique::HybridAsmEddi,
    Technique::Ferrum,
];

fn load(
    w: &Workload,
    technique: Technique,
    scale: Scale,
    opt: ferrum::OptLevel,
) -> Result<Cpu, ferrum::Error> {
    let pipeline = Pipeline::new().with_opt_level(opt);
    let module = w.build(scale);
    let prog = pipeline.protect(&module, technique)?;
    pipeline.load(&prog)
}

fn profiles_match(a: &Profile, b: &Profile) -> bool {
    a.sites == b.sites
        && a.prov_counts == b.prov_counts
        && a.mech_counts == b.mech_counts
        && a.result == b.result
}

/// Engine-identity check for one workload: run + profile identity of
/// the decoded engine against the interpreter, per technique.
fn selfcheck(w: &Workload, opt: ferrum::OptLevel) -> Result<Vec<CheckLine>, ferrum::Error> {
    let mut lines = Vec::new();
    for technique in TECHNIQUES {
        let cpu = load(w, technique, Scale::Test, opt)?;
        let decoded = DecodedCpu::new(&cpu);
        let run_ok = decoded.run(None) == cpu.run(None);
        let (ip, dp) = (cpu.profile(), decoded.profile());
        let profile_ok = profiles_match(&ip, &dp);
        lines.push(CheckLine {
            ok: run_ok && profile_ok,
            json: Json::obj(vec![
                ("workload", w.name.to_json()),
                ("technique", technique.label().to_json()),
                ("opt", opt.to_json()),
                ("run_identical", Json::Bool(run_ok)),
                ("profile_identical", Json::Bool(profile_ok)),
                ("sites", ip.sites.len().to_json()),
                ("superinstructions", decoded.superinstructions().to_json()),
            ]),
            text: format!(
                "{}/{} [{}]: run {}, profile {} ({} sites, {} superinstructions)",
                w.name,
                technique.label(),
                opt.label(),
                if run_ok { "identical" } else { "DIVERGED" },
                if profile_ok { "identical" } else { "DIVERGED" },
                ip.sites.len(),
                decoded.superinstructions(),
            ),
        });
    }
    Ok(lines)
}

fn run_one(
    name: &str,
    technique: Technique,
    scale: Scale,
    engine: EngineKind,
    opt: ferrum::OptLevel,
    json: bool,
) -> ExitCode {
    let Some(w) = workload(name) else {
        eprintln!("ferrum-cpu: unknown workload `{name}`");
        return ExitCode::FAILURE;
    };
    let cpu = match load(&w, technique, scale, opt) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("ferrum-cpu: {name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let r = engine.with_cpu(&cpu, |e| e.run(None));
    let correct = r.output == w.oracle(scale);
    if json {
        let doc = Json::obj(vec![
            ("workload", name.to_json()),
            ("technique", technique.label().to_json()),
            ("engine", engine.label().to_json()),
            ("stop", format!("{:?}", r.stop).to_json()),
            ("output", Json::Arr(r.output.iter().map(|&x| Json::Int(x)).collect())),
            ("output_correct", Json::Bool(correct)),
            ("cycles", r.cycles.to_json()),
            ("dyn_insts", r.dyn_insts.to_json()),
        ]);
        println!("{}", doc.to_string_pretty());
    } else {
        println!(
            "{name}/{} on {}: {:?}, {} dyn insts, {} cycles, output {}",
            technique.label(),
            engine.label(),
            r.stop,
            r.dyn_insts,
            r.cycles,
            if correct { "correct" } else { "WRONG" },
        );
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match parse_args(&args, &USAGE.spec) {
        Ok(p) => p,
        Err(e) => return usage_exit(&USAGE.render(), &e),
    };
    let json = parsed.flag("--json");
    if parsed.flag("--selfcheck") {
        let levels = match parsed.opt_level() {
            Ok(o) => ferrum_cli::catalog::catalog_levels(o),
            Err(e) => return usage_exit(&USAGE.render(), &e),
        };
        return catalog_exit(catalog_selfcheck("ferrum-cpu", json, |w| {
            let mut lines = Vec::new();
            for &o in &levels {
                lines.extend(selfcheck(w, o)?);
            }
            Ok::<_, ferrum::Error>(lines)
        }));
    }
    let opts = match parsed.technique_core(Technique::Ferrum).and_then(|t| {
        Ok((
            t,
            parsed.scale(Scale::Test)?,
            parsed.engine()?,
            parsed.opt_level()?.unwrap_or_default(),
        ))
    }) {
        Ok(o) => o,
        Err(e) => return usage_exit(&USAGE.render(), &e),
    };
    match parsed.positional.as_deref() {
        Some(n) => run_one(n, opts.0, opts.1, opts.2, opts.3, json),
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
