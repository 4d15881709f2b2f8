//! # ferrum-bench — regenerating the paper's tables and figures
//!
//! The `ferrum-repro` binary runs one experiment of the evaluation
//! section per invocation ([`repro`]); `ferrum-repro --help` lists
//! them, and `ferrum-repro all` rewrites every committed
//! `results/*.txt` file.  `bench_check` gates a fresh `bench.json`
//! against the committed baseline ([`benchjson`]).
//! The benches (`cargo bench`) measure the infrastructure itself —
//! pass throughput, simulator speed, and checker costs — using the
//! self-contained [`harness`] module (hermetic-build policy: no
//! external benchmarking framework).

pub mod benchjson;
pub mod harness;
pub mod repro;
