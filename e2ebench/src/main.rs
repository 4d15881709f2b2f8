//! `e2ebench` — runs one benchmark workload and prints its metrics.
//!
//! ```text
//! usage: e2ebench --workload <name> --seed <n> [--seconds <s>] [--trace 0|1] [--threads <n>]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it
//! carry provenance, the deterministic metrics and any failures.

use std::process::ExitCode;

use ferrum::json::Json;
use ferrum_e2ebench::{host_threads, run, Config, Workload};

const USAGE: &str =
    "usage: e2ebench --workload <name> --seed <n> [--seconds <s>] [--trace 0|1] [--threads <n>]
  --workload <name>  ferrum-sweep | baseline-sweep | edit-loop
  --seed <n>         input seed: a decimal or 0x-prefixed hexadecimal u64
  --seconds <s>      request-loop time, 0 < s <= 600 (default 10)
  --trace 0|1        1: record spans and print per-layer metrics (default 0)
  --threads <n>      campaign worker threads, at most the host's parallelism
                     (default: the workload's own, capped at the host's)";

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) if !hex.is_empty() && hex.bytes().all(|b| b.is_ascii_hexdigit()) => {
            u64::from_str_radix(hex, 16).ok()
        }
        Some(_) => None,
        None if !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit()) => s.parse().ok(),
        None => None,
    }
}

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut threads = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag}: missing value"))?;
        let dup = match flag.as_str() {
            "--workload" => workload
                .replace(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
                .is_some(),
            "--seed" => seed
                .replace(parse_seed(value).ok_or_else(|| format!("malformed seed `{value}`"))?)
                .is_some(),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("--seconds: expected 0 < s <= 600, got `{value}`"))?;
                seconds.replace(s).is_some()
            }
            "--trace" => {
                let t = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got `{value}`")),
                };
                trace.replace(t).is_some()
            }
            "--threads" => {
                let n: usize = value.parse().ok().filter(|&n| n > 0).ok_or_else(|| {
                    format!("--threads: expected a positive integer, got `{value}`")
                })?;
                if n > host_threads() {
                    return Err(format!(
                        "--threads {n} exceeds the host's available parallelism ({})",
                        host_threads()
                    ));
                }
                threads.replace(n).is_some()
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        };
        if dup {
            return Err(format!("{flag} given twice"));
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let mut cfg = Config::new(
        workload,
        seed,
        seconds.unwrap_or(10.0),
        trace.unwrap_or(false),
    );
    if let Some(n) = threads {
        cfg.threads = n;
    }
    Ok(cfg)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The checked-out commit, read from `.git` when the benchmark runs
/// inside a git work tree.
fn commit() -> Json {
    let head = std::fs::read_to_string(".git/HEAD").ok();
    let id = head.and_then(|h| match h.trim().strip_prefix("ref: ") {
        None => Some(h.trim().to_owned()),
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .map(|s| s.trim().to_owned())
            .or_else(|| {
                std::fs::read_to_string(".git/packed-refs")
                    .ok()
                    .and_then(|p| {
                        p.lines()
                            .find(|l| l.ends_with(r))
                            .and_then(|l| l.split_whitespace().next().map(str::to_owned))
                    })
            }),
    });
    id.map_or(Json::Null, Json::Str)
}

/// Where a traced run writes its spans: beside the build output.
fn span_path(cfg: &Config) -> std::path::PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    std::path::Path::new(&dir).join("e2ebench").join(format!(
        "spans-{}-{}.ndjson",
        cfg.workload.name(),
        cfg.seed
    ))
}

fn write_spans(
    cfg: &Config,
    spans: &[ferrum_e2ebench::Span],
) -> std::io::Result<std::path::PathBuf> {
    use std::io::Write;
    let path = span_path(cfg);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for s in spans {
        let line = Json::obj(vec![
            ("name", Json::Str(s.name.to_owned())),
            ("start_ns", Json::Int(s.start_ns as i64)),
            ("end_ns", Json::Int(s.end_ns as i64)),
            (
                "parent",
                s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
            ),
            ("request", Json::Int(s.request as i64)),
        ]);
        writeln!(out, "{}", line.to_string_compact())?;
    }
    out.flush()?;
    Ok(path)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let cfg = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let mut rep = run(&cfg);
    rep.provenance
        .push(("nproc".to_owned(), Json::Int(host_threads() as i64)));
    rep.provenance
        .push(("cpu_model".to_owned(), Json::Str(cpu_model())));
    rep.provenance.push(("commit".to_owned(), commit()));
    if cfg.trace {
        match write_spans(&cfg, &rep.spans) {
            Ok(p) => rep
                .provenance
                .push(("span_file".to_owned(), Json::Str(p.display().to_string()))),
            Err(e) => eprintln!("e2ebench: writing spans: {e}"),
        }
    }

    for f in &rep.failures {
        println!("failure: {f}");
    }
    println!(
        "provenance: {}",
        Json::Obj(rep.provenance.clone()).to_string_compact()
    );
    println!(
        "deterministic: {}",
        Json::Obj(rep.deterministic.clone()).to_string_compact()
    );
    for m in &rep.metrics {
        println!("{:<30} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let metrics = rep
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.to_owned(),
                Json::obj(vec![
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(m.unit.to_owned())),
                ]),
            )
        })
        .collect();
    let last = Json::obj(vec![
        (
            "correct",
            Json::Bool(rep.failed == 0 && rep.failures.is_empty()),
        ),
        ("attempted", Json::Int(rep.attempted as i64)),
        ("failed", Json::Int(rep.failed as i64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", last.to_string_compact());
    ExitCode::SUCCESS
}
