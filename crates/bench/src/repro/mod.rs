//! `ferrum-repro <experiment>` — regenerates the paper's tables and
//! figures, one experiment per operand.
//!
//! Each row of [`EXPERIMENTS`] holds a name, a one-line summary, the
//! [`UsageSpec`] of exactly the options that experiment reads, and a
//! function writing its table to a `&mut dyn Write`.  [`parse`] checks
//! the whole command line with the shared strict parser
//! ([`ferrum_cli::args`]) before any work starts, so a typo exits 2
//! instead of running a paper-scale campaign.  With no options an
//! experiment runs the paper's configuration: paper scale, 1000
//! sampled faults, seed `0xFE44`, `-O0`.
//!
//! `ferrum-repro all` runs the [`RECIPES`] in-process and rewrites
//! every committed `results/*.txt` file.

mod coverage;
mod overhead;
mod speedup;

use std::io::{self, ErrorKind, Write};
use std::path::Path;
use std::process::ExitCode;

use ferrum::{all_workloads, EvalConfig, Pipeline, Scale, Technique, Workload};
use ferrum_asm::program::AsmProgram;
use ferrum_cli::args::{parse_args, usage_exit, ArgError, ArgHelp, ArgSpec, ParsedArgs, UsageSpec};
use ferrum_cpu::run::Cpu;
use ferrum_mir::module::Module;

/// The options an experiment may read, resolved with the paper's
/// defaults.  The experiment's [`UsageSpec`] decides which of them
/// the parser lets through; the others keep their defaults.
#[derive(Debug, Clone)]
pub struct Opts {
    /// `--samples`, `--seed`, `--scale`, `--opt`.
    pub eval: EvalConfig,
    /// `--json`: `fig10` prints its reports as JSON.
    pub json: bool,
    /// `--threads`: `speedup`'s worker count (default: every core).
    pub threads: usize,
    /// `--json-out`: where `speedup` writes its `bench.json` artifact.
    pub json_out: Option<String>,
    /// `--reps`: best-of count of `speedup`'s recorder table (≥ 1).
    pub reps: usize,
}

impl Opts {
    fn resolve(p: &ParsedArgs) -> Result<Opts, ArgError> {
        let paper = EvalConfig::default();
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        Ok(Opts {
            eval: EvalConfig {
                samples: p.samples(paper.samples)?,
                seed: p.seed(paper.seed)?,
                scale: p.scale(paper.scale)?,
                opt: p.opt_level()?.unwrap_or(paper.opt),
            },
            json: p.flag("--json"),
            threads: p.number("--threads", cores)?,
            json_out: p.value("--json-out").map(str::to_owned),
            reps: p.number("--reps", 5usize)?.max(1),
        })
    }
}

/// One `ferrum-repro` experiment.
pub struct Experiment {
    /// The operand selecting it.
    pub name: &'static str,
    /// One line for the experiment list in `ferrum-repro --help`.
    pub summary: &'static str,
    /// Its command-line surface: only the options it reads.
    pub usage: UsageSpec,
    /// Writes the experiment's output.  [`ErrorKind::Unsupported`]
    /// means the host cannot run it (`native` without gcc or AVX2).
    pub run: fn(&Opts, &mut dyn Write) -> io::Result<()>,
}

const fn arg(name: &'static str, value: &'static str, help: &'static str) -> ArgHelp {
    ArgHelp { name, value: Some(value), help }
}

const SAMPLES: ArgHelp = arg("--samples", "<n>", "sampled faults per configuration (default 1000)");
const SEED: ArgHelp = arg("--seed", "<s>", "campaign seed (default 0xFE44)");
const SCALE: ArgHelp = arg("--scale", "<s>", "test | paper   (default: paper)");
const OPT: ArgHelp = arg("--opt", "<l>", "backend optimization level 0 | 1   (default: 0)");

/// The options an experiment reads: their help rows, then the
/// boolean flags and valued options the parser accepts.
type Surface = (&'static [ArgHelp], &'static [&'static str], &'static [&'static str]);

const NO_OPTIONS: Surface = (&[], &[], &[]);
const SCALE_ONLY: Surface = (&[SCALE], &[], &["--scale"]);
const CAMPAIGN: Surface = (&[SAMPLES, SEED, SCALE], &[], &["--samples", "--seed", "--scale"]);
const CAMPAIGN_OPT: Surface = (
    &[SAMPLES, SEED, SCALE, OPT],
    &[],
    &["--samples", "--seed", "--scale", "--opt"],
);
const FIG10: Surface = (
    &[
        SAMPLES,
        SEED,
        SCALE,
        OPT,
        ArgHelp { name: "--json", value: None, help: "print the per-benchmark reports as JSON" },
    ],
    &["--json"],
    CAMPAIGN_OPT.2,
);
const SPEEDUP: Surface = (
    &[
        SAMPLES,
        SEED,
        SCALE,
        arg("--threads", "<n>", "worker threads (default: every available core)"),
        arg("--json-out", "<path>", "also write every table as bench.json to <path>"),
        arg("--reps", "<n>", "best-of repetitions of the recorder table (default 5)"),
    ],
    &[],
    &["--samples", "--seed", "--scale", "--threads", "--json-out", "--reps"],
);

const fn experiment(
    name: &'static str,
    summary: &'static str,
    forms: &'static [&'static str],
    (args, flags, values): Surface,
    run: fn(&Opts, &mut dyn Write) -> io::Result<()>,
) -> Experiment {
    let spec = ArgSpec { flags, values, positional: false };
    let usage = UsageSpec { tool: "ferrum-repro", forms, args, spec };
    Experiment { name, summary, usage, run }
}

/// Every experiment, in the order `ferrum-repro --help` lists them.
#[rustfmt::skip]
pub const EXPERIMENTS: &[Experiment] = &[
    experiment("table1", "Table I: technique capability matrix",
        &["table1"], NO_OPTIONS, coverage::table1),
    experiment("table2", "Table II: benchmark inventory with static/dynamic sizes",
        &["table2 [--scale <s>]"], SCALE_ONLY, overhead::table2),
    experiment("fig10", "Fig. 10: SDC coverage per benchmark x technique",
        &["fig10 [options]"], FIG10, coverage::fig10),
    experiment("fig11", "Fig. 11: runtime overhead from simulated cycles",
        &["fig11 [--scale <s>]"], SCALE_ONLY, overhead::fig11),
    experiment("exectime", "§IV-B3: FERRUM pass time against static size",
        &["exectime [--scale <s>]"], SCALE_ONLY, overhead::exectime),
    experiment("rootcause", "§IV-B1: provenance of IR-EDDI's residual SDCs",
        &["rootcause [options]"], CAMPAIGN_OPT, coverage::rootcause),
    experiment("footprint", "§IV-B2: cross-layer glue share and dynamic expansion",
        &["footprint [--scale <s>]"], SCALE_ONLY, overhead::footprint),
    experiment("ablation", "FERRUM design-choice ablations (suite averages)",
        &["ablation [options]"], CAMPAIGN, coverage::ablation),
    experiment("selective", "selective-protection coverage/overhead sweep",
        &["selective [options]"], CAMPAIGN, coverage::selective),
    experiment("multibit", "double-fault campaigns against single-fault coverage",
        &["multibit [options]"], CAMPAIGN, coverage::multibit),
    experiment("forensics", "escape reasons of every residual SDC",
        &["forensics [options]"], CAMPAIGN, coverage::forensics),
    experiment("arm", "AArch64/NEON port, exhaustive single-bit sweep",
        &["arm"], NO_OPTIONS, coverage::arm),
    experiment("native", "Fig. 11 on the host CPU (needs x86-64 Linux, gcc, AVX2)",
        &["native [--scale <s>]"], SCALE_ONLY, overhead::native),
    experiment("speedup", "campaign engines compared; bench.json artifact",
        &["speedup [options]"], SPEEDUP, speedup::speedup),
    experiment("all", "rewrite every results/*.txt file from its recipe",
        &["all"], NO_OPTIONS, all),
];

/// `ferrum-repro all`: each committed `results/` file with the
/// experiment and options that regenerate it.
pub const RECIPES: &[(&str, &[&str], &str)] = &[
    ("fig10", &[], "fig10.txt"),
    ("fig10", &["--opt", "1"], "fig10_o1.txt"),
    ("fig11", &[], "fig11.txt"),
    ("table1", &[], "table1.txt"),
    ("table2", &[], "table2.txt"),
    ("exectime", &[], "exectime.txt"),
    ("rootcause", &[], "rootcause.txt"),
    ("rootcause", &["--opt", "1"], "rootcause_o1.txt"),
    ("ablation", &["--samples", "300"], "ablation.txt"),
    ("multibit", &["--samples", "300"], "multibit.txt"),
    ("footprint", &[], "footprint.txt"),
    ("selective", &["--samples", "250"], "selective.txt"),
    ("arm", &[], "arm.txt"),
    ("native", &[], "native.txt"),
];

/// The top-level usage text, listing every experiment.
pub fn overview() -> String {
    let mut text = String::from(
        "usage: ferrum-repro <experiment> [options]\n       \
         ferrum-repro <experiment> --help\nexperiments:\n",
    );
    for e in EXPERIMENTS {
        text.push_str(&format!("  {:<10} {}\n", e.name, e.summary));
    }
    text.pop();
    text
}

/// Resolves a command line (without the program name) to its
/// experiment and options, doing no work.
///
/// # Errors
///
/// The usage text to print (the overview, or the experiment's own)
/// with the reason: a help request, an unknown experiment, or an
/// option the experiment does not read or cannot parse.
pub fn parse(args: &[String]) -> Result<(&'static Experiment, Opts), (String, ArgError)> {
    let Some((name, rest)) = args.split_first() else {
        return Err((overview(), ArgError::Help));
    };
    if name == "-h" || name == "--help" {
        return Err((overview(), ArgError::Help));
    }
    let Some(e) = EXPERIMENTS.iter().find(|e| e.name == name) else {
        let err = ArgError::Message(format!("unknown experiment `{name}`"));
        return Err((overview(), err));
    };
    // `parse_args` reads an empty line as a help request; here it
    // means "all defaults".
    let parsed = if rest.is_empty() {
        Ok(ParsedArgs::default())
    } else {
        parse_args(rest, &e.usage.spec)
    };
    parsed
        .and_then(|p| Opts::resolve(&p))
        .map(|opts| (e, opts))
        .map_err(|err| (e.usage.render(), err))
}

/// The `ferrum-repro` entry point: parses `args`, then runs the
/// experiment with its output on stdout.
pub fn main(args: &[String]) -> ExitCode {
    let (e, opts) = match parse(args) {
        Ok(r) => r,
        Err((usage, err)) => return usage_exit(&usage, &err),
    };
    match (e.run)(&opts, &mut io::stdout().lock()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) if err.kind() == ErrorKind::Unsupported => {
            eprintln!("{err}");
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("ferrum-repro {}: {err}", e.name);
            ExitCode::FAILURE
        }
    }
}

fn all(_: &Opts, _: &mut dyn Write) -> io::Result<()> {
    // Resolve every recipe before touching a file.
    let mut runs = Vec::new();
    for &(name, args, file) in RECIPES {
        let line: Vec<String> = std::iter::once(name)
            .chain(args.iter().copied())
            .map(str::to_owned)
            .collect();
        let (e, opts) = parse(&line)
            .map_err(|(_, err)| io::Error::other(format!("recipe for {file}: {err:?}")))?;
        runs.push((e, opts, file));
    }
    std::fs::create_dir_all("results")?;
    for (e, opts, file) in runs {
        write_recipe(e, &opts, &Path::new("results").join(file))?;
    }
    eprintln!("all artifacts regenerated under results/");
    Ok(())
}

/// Runs one recipe into `path`.  An experiment the host cannot run
/// leaves the committed file untouched rather than emptying it.
fn write_recipe(e: &Experiment, opts: &Opts, path: &Path) -> io::Result<()> {
    eprintln!("== {} -> {}", e.name, path.display());
    let mut buf = Vec::new();
    match (e.run)(opts, &mut buf) {
        Ok(()) => std::fs::write(path, buf),
        Err(err) if err.kind() == ErrorKind::Unsupported => {
            eprintln!("{err}: leaving {} untouched", path.display());
            Ok(())
        }
        Err(err) => Err(err),
    }
}

/// One program of [`for_each_workload`]: a listing and its loaded CPU.
struct Built {
    prog: AsmProgram,
    cpu: Cpu,
}

/// The suite loop shared by the experiments: builds every catalog
/// workload at `scale` under each of `techniques` (in order), loads
/// each program, and hands the workload, its module and the built
/// programs to `visit`.
fn for_each_workload(
    pipeline: &Pipeline,
    scale: Scale,
    techniques: &[Technique],
    mut visit: impl FnMut(&Workload, &Module, &[Built]) -> io::Result<()>,
) -> io::Result<()> {
    for w in all_workloads() {
        let module = w.build(scale);
        let built: Vec<Built> = techniques
            .iter()
            .map(|&t| {
                let prog = pipeline
                    .protect(&module, t)
                    .unwrap_or_else(|e| panic!("{}/{t}: {e}", w.name));
                let cpu = pipeline
                    .load(&prog)
                    .unwrap_or_else(|e| panic!("{}/{t}: {e}", w.name));
                Built { prog, cpu }
            })
            .collect();
        visit(&w, &module, &built)?;
    }
    Ok(())
}

/// The raw program followed by every protected technique.
const RAW_AND_PROTECTED: [Technique; 4] = [
    Technique::None,
    Technique::IrEddi,
    Technique::HybridAsmEddi,
    Technique::Ferrum,
];

#[cfg(test)]
mod tests {
    use super::*;

    fn line(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn every_usage_spec_is_consistent() {
        for e in EXPERIMENTS {
            ferrum_cli::args::assert_usage_consistent(&e.usage);
            assert!(
                e.usage.forms.iter().all(|f| f.starts_with(e.name)),
                "{}: usage forms must start with the experiment name",
                e.name
            );
        }
    }

    #[test]
    fn no_flags_means_the_paper_configuration() {
        for e in EXPERIMENTS {
            let (_, opts) = parse(&line(&[e.name])).expect("bare experiment parses");
            assert_eq!(opts.eval.samples, 1000);
            assert_eq!(opts.eval.seed, 0xFE44);
            assert_eq!(opts.eval.scale, Scale::Paper);
            assert_eq!(opts.eval.opt, ferrum::OptLevel::O0);
            assert_eq!(opts.reps, 5);
            assert!(!opts.json && opts.json_out.is_none());
        }
        let (_, opts) = parse(&line(&["fig10", "--opt", "1", "--json", "--scale", "test"]))
            .expect("parses");
        assert_eq!(opts.eval.opt, ferrum::OptLevel::O1);
        assert_eq!(opts.eval.scale, Scale::Test);
        assert!(opts.json);
    }

    #[test]
    fn every_results_file_has_exactly_one_recipe() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
        let mut files: Vec<String> = std::fs::read_dir(dir)
            .expect("results/ exists")
            .map(|e| e.expect("dir entry").file_name().into_string().expect("utf-8"))
            .filter(|f| f.ends_with(".txt"))
            .collect();
        files.sort();
        let mut recipes: Vec<String> = RECIPES.iter().map(|r| r.2.to_owned()).collect();
        recipes.sort();
        assert_eq!(recipes, files);
        for &(name, args, file) in RECIPES {
            let mut l = vec![name];
            l.extend_from_slice(args);
            assert!(parse(&line(&l)).is_ok(), "recipe for {file} does not parse");
        }
    }

    #[test]
    fn an_unsupported_experiment_leaves_its_file_untouched() {
        let path = std::env::temp_dir().join(format!("ferrum_recipe_{}.txt", std::process::id()));
        std::fs::write(&path, "committed\n").expect("write");
        let (_, opts) = parse(&line(&["arm"])).expect("parses");
        let fake = |run| experiment("fake", "", &["fake"], NO_OPTIONS, run);
        let unsupported = fake(|_, _| Err(io::Error::new(ErrorKind::Unsupported, "no host")));
        write_recipe(&unsupported, &opts, &path).expect("skips");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "committed\n");
        let fresh = fake(|_, out| writeln!(out, "fresh"));
        write_recipe(&fresh, &opts, &path).expect("writes");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "fresh\n");
        let _ = std::fs::remove_file(&path);
    }

    fn run_into(args: &[&str]) -> String {
        let (e, opts) = parse(&line(args)).expect("parses");
        let mut out = Vec::new();
        (e.run)(&opts, &mut out).expect("runs");
        String::from_utf8(out).expect("utf-8")
    }

    #[test]
    fn suite_tables_print_one_row_per_workload() {
        for args in [&["table2", "--scale", "test"][..], &["fig11", "--scale", "test"][..]] {
            let text = run_into(args);
            for w in all_workloads() {
                let rows = text
                    .lines()
                    .filter(|l| l.split_whitespace().next() == Some(w.name))
                    .count();
                assert_eq!(rows, 1, "{args:?}: {} rows for {}", rows, w.name);
            }
        }
    }

    #[test]
    fn table1_prints_one_row_per_technique() {
        let text = run_into(&["table1"]);
        for t in Technique::PROTECTED {
            assert_eq!(
                text.lines().filter(|l| l.starts_with(t.label())).count(),
                1,
                "{t}"
            );
        }
    }
}
