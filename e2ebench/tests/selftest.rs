//! Self-tests of the benchmark: its deterministic metrics repeat for
//! one seed, tracing does not change them, and a wrong reference output
//! is reported as a failed request.
//!
//! Run with `cargo test --release --manifest-path e2ebench/Cargo.toml`;
//! the sweeps build paper-scale programs, which a debug build runs
//! slowly.

use ferrum::json::Json;
use ferrum_e2ebench::{run, Config, Report, Workload, PER_LAYER};

/// The smallest run that still covers every deterministic metric: one
/// set-up round and the requests that feed the deterministic prefix.
fn small(workload: Workload, trace: bool) -> Config {
    let mut cfg = Config::new(workload, 0x5EED, 0.001, trace);
    cfg.setup_rounds = 1;
    cfg.setup_seconds = 0.0;
    cfg.min_requests = 0;
    cfg
}

/// The names of the metrics `BENCHMARK.json` lists under `key`, in its
/// order.
fn listed(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let doc = ferrum::json::parse(&text).expect("parse BENCHMARK.json");
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json: no `{key}` list"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("metric name")
                .to_owned()
        })
        .collect()
}

fn assert_clean(rep: &Report, what: &str) {
    assert!(rep.attempted > 0, "{what}: no requests ran");
    assert_eq!(rep.failed, 0, "{what}: failures {:?}", rep.failures);
    assert!(
        rep.failures.is_empty(),
        "{what}: failures {:?}",
        rep.failures
    );
}

#[test]
fn deterministic_metrics_repeat_and_ignore_tracing() {
    for w in Workload::ALL {
        let a = run(&small(w, false));
        let b = run(&small(w, false));
        let traced = run(&small(w, true));
        for (rep, what) in [(&a, "first"), (&b, "second"), (&traced, "traced")] {
            assert_clean(rep, &format!("{} {what}", w.name()));
        }
        for key in [
            "sim_overhead_pct",
            "code_size_ratio",
            "prefix.records_digest",
        ] {
            assert!(
                a.deterministic_value(key).is_some(),
                "{}: no deterministic `{key}`",
                w.name()
            );
        }
        assert_eq!(
            a.deterministic,
            b.deterministic,
            "{}: deterministic metrics differ between two runs of one seed",
            w.name()
        );
        assert_eq!(
            a.deterministic,
            traced.deterministic,
            "{}: tracing changed the deterministic metrics",
            w.name()
        );
        let names: Vec<&str> = traced.metrics.iter().map(|m| m.name).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            expected,
            "{}: traced run's per-layer metrics",
            w.name()
        );
        assert_eq!(names, listed("per_layer"), "{}: per_layer", w.name());
        let names: Vec<&str> = a.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names, listed("end_to_end"), "{}: end_to_end", w.name());
        for m in &a.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{}: {} = {}",
                w.name(),
                m.name,
                m.value
            );
        }
        assert!(
            !traced.spans.is_empty(),
            "{}: traced run recorded no spans",
            w.name()
        );
    }
}

#[test]
fn ferrum_builds_let_no_sdc_escape() {
    for w in [Workload::FerrumSweep, Workload::EditLoop] {
        let rep = run(&small(w, false));
        assert_clean(&rep, w.name());
        let share = rep
            .deterministic_value("sdc_escape_share")
            .and_then(|v| v.as_f64());
        assert_eq!(share, Some(0.0), "{}: SDCs escaped FERRUM", w.name());
    }
}

#[test]
fn doctored_reference_output_fails_requests() {
    for w in [
        Workload::FerrumSweep,
        Workload::BaselineSweep,
        Workload::EditLoop,
    ] {
        let mut cfg = small(w, false);
        cfg.doctor_reference = true;
        let rep = run(&cfg);
        assert!(
            rep.failed_share() > 0.0,
            "{}: a wrong reference output went unnoticed",
            w.name()
        );
    }
}

#[test]
fn cli_rejects_malformed_input_with_a_usage_error() {
    let too_many = (ferrum_e2ebench::host_threads() + 1).to_string();
    let cases: [&[&str]; 9] = [
        &[],
        &["--seed", "1"],
        &["--workload", "ferrum-sweep"],
        &["--workload", "nonesuch", "--seed", "1"],
        &["--workload", "edit-loop", "--seed", "-1"],
        &["--workload", "edit-loop", "--seed", "12abc"],
        &["--workload", "edit-loop", "--seed", "1", "--bogus", "1"],
        &["--workload", "edit-loop", "--seed", "1", "--trace", "2"],
        &[
            "--workload",
            "edit-loop",
            "--seed",
            "1",
            "--threads",
            &too_many,
        ],
    ];
    for args in cases {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_e2ebench"))
            .args(args)
            .output()
            .expect("runs the benchmark binary");
        assert_eq!(out.status.code(), Some(2), "{args:?} was not rejected");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
