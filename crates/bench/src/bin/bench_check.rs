//! `bench_check` — gates a fresh `bench.json` against the committed
//! baseline.
//!
//! ```text
//! usage: bench_check <baseline.json> <current.json> [--quick]
//! ```
//!
//! Thin IO wrapper over [`ferrum_bench::benchjson::compare`]: loads
//! both documents, prints one line per violation, and exits 0 when the
//! gate passes, 1 on violations, 2 when a document cannot be read or
//! parsed or the command line is anything but two paths and an
//! optional `--quick`.  `--quick` widens the tolerant (timing-ratio)
//! bands for low-repetition runs; exact metrics are never loosened.
//! Normally invoked through `scripts/bench_check.sh`, which regenerates
//! the current document with the baseline's configuration.

use std::process::ExitCode;

use ferrum::json::{parse, Json};
use ferrum_bench::benchjson::compare;

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e:?}"))
}

const USAGE: &str = "usage: bench_check <baseline.json> <current.json> [--quick]";

/// Splits the command line into the two paths and the `--quick` flag;
/// `None` for anything else.
fn parse_cli(args: &[String]) -> Option<(&str, &str, bool)> {
    let quick = args.iter().any(|a| a == "--quick");
    let paths: Vec<&str> = args.iter().map(String::as_str).filter(|a| *a != "--quick").collect();
    let is_path = |p: &str| !p.starts_with('-');
    match paths[..] {
        [b, c] if paths.len() + usize::from(quick) == args.len() && is_path(b) && is_path(c) => {
            Some((b, c, quick))
        }
        _ => None,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((baseline_path, current_path, quick)) = parse_cli(&args) else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let (baseline, current) = match (load(baseline_path), load(current_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (b, c) => {
            for err in [b.err(), c.err()].into_iter().flatten() {
                eprintln!("bench_check: {err}");
            }
            return ExitCode::from(2);
        }
    };
    let violations = compare(&baseline, &current, quick);
    if violations.is_empty() {
        println!(
            "bench_check: OK — current run within tolerance of {baseline_path}{}",
            if quick { " (quick bands)" } else { "" }
        );
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            println!("bench_check: FAIL {v}");
        }
        println!("bench_check: {} violation(s)", violations.len());
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::parse_cli;

    fn line(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn accepts_two_paths_and_an_optional_quick() {
        assert_eq!(parse_cli(&line(&["a.json", "b.json"])), Some(("a.json", "b.json", false)));
        assert_eq!(
            parse_cli(&line(&["--quick", "a.json", "b.json"])),
            Some(("a.json", "b.json", true))
        );
    }

    #[test]
    fn rejects_typos_and_wrong_path_counts() {
        for bad in [
            &["a.json", "b.json", "--quik"][..],
            &["a.json", "b.json", "c.json"][..],
            &["a.json"][..],
            &["a.json", "--quick"][..],
            &["a.json", "b.json", "--quick", "--quick"][..],
            &[][..],
        ] {
            assert_eq!(parse_cli(&line(bad)), None, "{bad:?} accepted");
        }
    }
}
