//! `ferrum-repro <experiment> [options]` — regenerates one table or
//! figure of the paper; `ferrum-repro --help` lists the experiments.
//! See [`ferrum_bench::repro`].

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    ferrum_bench::repro::main(&args)
}
