//! The `results/bench.json` artifact and its regression gate.
//!
//! `ferrum-repro speedup --json-out` serializes all six of its tables into one
//! schema-stable JSON document; `scripts/bench_check.sh` re-runs the
//! same configuration and feeds both documents to [`compare`], which
//! enforces a per-metric policy:
//!
//! * **exact** — metrics fully determined by `(seed, samples, scale)`:
//!   outcome-identity booleans, detection-latency percentiles, snapshot
//!   hit-rates, prune rates, superinstruction and reuse counts.  Any
//!   drift here is a correctness regression, not noise.
//! * **tolerant** — same-machine single-thread work ratios (engine
//!   speedups): compared within a generous band that still catches an
//!   order-of-magnitude regression (e.g. the decode-once engine losing
//!   its step).
//! * **informational** — raw wall-clock rates (`*_ips`, `*_ms`),
//!   thread-scaling ratios, worker balance, and recorder-overhead
//!   percentages: machine- and scheduler-dependent (the gate runs at
//!   test scale, where campaigns last microseconds and a single
//!   scheduler event swings an overhead cell by tens of points — the
//!   observability budget is enforced by the paper-scale sixth
//!   `ferrum-repro speedup` table instead), so only their presence and
//!   finiteness are checked.
//!
//! The policy keys off metric *names*, so adding a table or column to
//! the artifact extends the gate without touching the comparator.

use ferrum::json::Json;

/// Artifact format identifier; bump on breaking shape changes.
pub const SCHEMA: &str = "ferrum-bench/v1";

/// Comparison policy for one metric, selected by key name.
enum Policy {
    /// Byte-exact (strings, bools, nulls) or equal within 1e-9
    /// (floats): the metric is deterministic given the config.
    Exact,
    /// `current` must lie within `[baseline / f, baseline * f]`.
    RelBand(f64),
    /// Present and finite; the value itself is machine-dependent.
    Informational,
}

fn policy(key: &str) -> Policy {
    match key {
        // Same-machine work ratios: single-thread engine speedups and
        // their geomean.  A factor-3 band is far wider than run-to-run
        // noise but fails if the optimized path regresses to parity.
        "speedup" | "geomean_speedup" => Policy::RelBand(3.0),
        // Scheduler-dependent metrics: thread-scaling and wall-clock
        // ratios, work-stealing balance, and recorder overhead.  At
        // test scale a campaign lasts microseconds, so an overhead
        // percentage rests on a single scheduler's mood; the paper-
        // scale sixth `ferrum-repro speedup` table enforces the <2% budget.
        "speedup_threads" | "speedup_wall" | "balance" => Policy::Informational,
        "overhead_pct" | "geomean_overhead_pct" => Policy::Informational,
        k if k.ends_with("_ips") || k.ends_with("_ms") => Policy::Informational,
        // Everything else is determined by the campaign config.
        _ => Policy::Exact,
    }
}

fn render(v: &Json) -> String {
    v.to_string_compact()
}

/// Compares one leaf value under `key`'s policy, appending a violation
/// to `out` when it fails.  `loosen` scales tolerant bands (the
/// `--quick` mode runs fewer repetitions, so ratios are noisier).
fn compare_value(path: &str, key: &str, base: &Json, cur: &Json, loosen: f64, out: &mut Vec<String>) {
    let pol = policy(key);
    match pol {
        Policy::Informational => {
            let ok = match cur {
                Json::Int(_) => true,
                Json::Num(v) => v.is_finite(),
                _ => false,
            };
            if !ok {
                out.push(format!("{path}: not a finite number: {}", render(cur)));
            }
        }
        Policy::Exact => match (base.as_f64(), cur.as_f64()) {
            (Some(b), Some(c)) => {
                if (b - c).abs() > 1e-9 {
                    out.push(format!("{path}: {c} != baseline {b} (exact metric)"));
                }
            }
            _ => {
                if base != cur {
                    out.push(format!(
                        "{path}: {} != baseline {} (exact metric)",
                        render(cur),
                        render(base)
                    ));
                }
            }
        },
        Policy::RelBand(f) => {
            let f = f * loosen;
            match (base.as_f64(), cur.as_f64()) {
                (Some(b), Some(c)) if b > 0.0 && c > 0.0 => {
                    if c < b / f || c > b * f {
                        out.push(format!(
                            "{path}: {c:.3} outside [{:.3}, {:.3}] (baseline {b:.3}, band x{f})",
                            b / f,
                            b * f
                        ));
                    }
                }
                _ => out.push(format!(
                    "{path}: cannot band-compare {} vs {}",
                    render(cur),
                    render(base)
                )),
            }
        }
    }
}

fn compare_tree(path: &str, base: &Json, cur: &Json, loosen: f64, out: &mut Vec<String>) {
    match (base, cur) {
        (Json::Obj(bm), Json::Obj(_)) => {
            for (k, bv) in bm {
                match cur.get(k) {
                    None => out.push(format!("{path}.{k}: missing from current run")),
                    Some(cv) => match (bv, cv) {
                        (Json::Obj(_), _) | (Json::Arr(_), _) => {
                            compare_tree(&format!("{path}.{k}"), bv, cv, loosen, out);
                        }
                        _ => compare_value(&format!("{path}.{k}"), k, bv, cv, loosen, out),
                    },
                }
            }
            if let Json::Obj(cm) = cur {
                for (k, _) in cm {
                    if base.get(k).is_none() {
                        out.push(format!("{path}.{k}: not in baseline (schema drift)"));
                    }
                }
            }
        }
        (Json::Arr(ba), Json::Arr(ca)) => {
            if ba.len() != ca.len() {
                out.push(format!(
                    "{path}: {} row(s) vs baseline {}",
                    ca.len(),
                    ba.len()
                ));
            }
            for (i, (bv, cv)) in ba.iter().zip(ca).enumerate() {
                compare_tree(&format!("{path}[{i}]"), bv, cv, loosen, out);
            }
        }
        _ => out.push(format!(
            "{path}: shape mismatch: {} vs baseline {}",
            render(cur),
            render(base)
        )),
    }
}

/// Compares a fresh `ferrum-repro speedup` artifact against the committed
/// baseline.  Returns the list of violations (empty = gate passes).
/// `quick` doubles the tolerant bands — quick runs use fewer timing
/// repetitions, so ratio metrics carry more noise; exact metrics are
/// never loosened.
pub fn compare(baseline: &Json, current: &Json, quick: bool) -> Vec<String> {
    let mut out = Vec::new();
    let loosen = if quick { 2.0 } else { 1.0 };
    match (
        baseline.get("schema").and_then(Json::as_str),
        current.get("schema").and_then(Json::as_str),
    ) {
        (Some(b), Some(c)) if b == c && b == SCHEMA => {}
        (b, c) => {
            out.push(format!("schema: {c:?} vs baseline {b:?} (expected {SCHEMA:?})"));
            return out;
        }
    }
    // The campaign config pins the deterministic metrics; a config
    // mismatch makes every exact comparison meaningless, so it is
    // reported and the rest skipped.
    for key in ["samples", "seed", "scale"] {
        let b = baseline.get("config").and_then(|c| c.get(key));
        let c = current.get("config").and_then(|c| c.get(key));
        if b != c || b.is_none() {
            out.push(format!(
                "config.{key}: {} vs baseline {} — runs are not comparable",
                c.map_or("<missing>".into(), render),
                b.map_or("<missing>".into(), render)
            ));
        }
    }
    if !out.is_empty() {
        return out;
    }
    match (baseline.get("tables"), current.get("tables")) {
        (Some(b), Some(c)) => compare_tree("tables", b, c, loosen, &mut out),
        _ => out.push("tables: missing".to_owned()),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ferrum::json::parse;

    fn doc() -> Json {
        parse(
            r#"{
              "schema": "ferrum-bench/v1",
              "config": {"samples": 200, "seed": 65092, "scale": "test", "threads": 4, "reps": 2},
              "tables": {
                "decoded": {
                  "rows": [
                    {"workload": "bfs", "interp_ips": 1000.0, "decoded_ips": 19000.0,
                     "speedup": 19.0, "superinstructions": 12, "identical": true}
                  ],
                  "geomean_speedup": 19.0
                },
                "latency": [
                  {"workload": "bfs", "detected": 151, "p50": 9, "p95": 40, "max": 77,
                   "balance": 0.35}
                ],
                "recorder": {
                  "rows": [
                    {"workload": "bfs", "off_ips": 20000.0, "on_ips": 19800.0,
                     "overhead_pct": 1.0, "identical": true}
                  ],
                  "geomean_overhead_pct": 1.0
                }
              }
            }"#,
        )
        .expect("parses")
    }

    fn set(doc: &mut Json, path: &[&str], idx: Option<usize>, leaf: &str, v: Json) {
        let mut cur = doc;
        for p in path {
            cur = match cur {
                Json::Obj(m) => &mut m.iter_mut().find(|(k, _)| k == p).unwrap().1,
                _ => panic!("not an object"),
            };
        }
        if let Some(i) = idx {
            cur = match cur {
                Json::Arr(a) => &mut a[i],
                _ => panic!("not an array"),
            };
        }
        match cur {
            Json::Obj(m) => m.iter_mut().find(|(k, _)| k == leaf).unwrap().1 = v,
            _ => panic!("not an object"),
        }
    }

    #[test]
    fn identical_documents_pass() {
        assert_eq!(compare(&doc(), &doc(), false), Vec::<String>::new());
        assert_eq!(compare(&doc(), &doc(), true), Vec::<String>::new());
    }

    #[test]
    fn machine_dependent_rates_do_not_gate() {
        let mut cur = doc();
        set(&mut cur, &["tables", "decoded", "rows"], Some(0), "interp_ips", Json::Num(13.0));
        set(&mut cur, &["tables", "recorder", "rows"], Some(0), "off_ips", Json::Num(9e9));
        assert_eq!(compare(&doc(), &cur, false), Vec::<String>::new());
        // ...but they must still be numbers.
        set(&mut cur, &["tables", "decoded", "rows"], Some(0), "interp_ips", Json::Str("x".into()));
        assert_eq!(compare(&doc(), &cur, false).len(), 1);
    }

    #[test]
    fn doctored_deterministic_metric_fails() {
        // The negative test the gate exists for: a baseline (or run)
        // with a shifted latency percentile must be caught exactly.
        let mut cur = doc();
        set(&mut cur, &["tables", "latency"], Some(0), "p95", Json::Int(41));
        let v = compare(&doc(), &cur, false);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("latency[0].p95"), "{v:?}");
        // Outcome identity flipping to false is likewise fatal.
        let mut cur = doc();
        set(&mut cur, &["tables", "decoded", "rows"], Some(0), "identical", Json::Bool(false));
        assert_eq!(compare(&doc(), &cur, false).len(), 1);
    }

    #[test]
    fn speedup_band_catches_order_of_magnitude_regressions() {
        let mut cur = doc();
        set(&mut cur, &["tables", "decoded", "rows"], Some(0), "speedup", Json::Num(11.0));
        assert_eq!(compare(&doc(), &cur, false), Vec::<String>::new());
        set(&mut cur, &["tables", "decoded", "rows"], Some(0), "speedup", Json::Num(2.0));
        let v = compare(&doc(), &cur, false);
        assert_eq!(v.len(), 1, "{v:?}");
        // Quick mode doubles the band: 19/6 > 2... 19/(3*2) = 3.17, so
        // 2.0 still fails; 4.0 passes only when loosened.
        set(&mut cur, &["tables", "decoded", "rows"], Some(0), "speedup", Json::Num(4.0));
        assert_eq!(compare(&doc(), &cur, false).len(), 1);
        assert_eq!(compare(&doc(), &cur, true), Vec::<String>::new());
    }

    #[test]
    fn scheduler_dependent_metrics_do_not_gate_on_value() {
        // Test-scale campaigns last microseconds: overhead percentages
        // and work-stealing balance swing with the scheduler, so their
        // values never gate — the paper-scale sixth table enforces the
        // recorder budget.
        let mut cur = doc();
        set(&mut cur, &["tables", "recorder"], None, "geomean_overhead_pct", Json::Num(48.5));
        set(&mut cur, &["tables", "recorder", "rows"], Some(0), "overhead_pct", Json::Num(-20.0));
        set(&mut cur, &["tables", "latency"], Some(0), "balance", Json::Num(0.99));
        assert_eq!(compare(&doc(), &cur, false), Vec::<String>::new());
        // ...but they must still be finite numbers.
        set(&mut cur, &["tables", "recorder"], None, "geomean_overhead_pct", Json::Num(f64::NAN));
        assert_eq!(compare(&doc(), &cur, false).len(), 1);
    }

    #[test]
    fn structural_drift_fails_both_directions() {
        // A table missing from the current run.
        let mut cur = doc();
        if let Json::Obj(m) = cur.get("tables").unwrap().clone() {
            let trimmed: Vec<_> = m.into_iter().filter(|(k, _)| k != "latency").collect();
            if let Json::Obj(top) = &mut cur {
                top.iter_mut().find(|(k, _)| k == "tables").unwrap().1 = Json::Obj(trimmed);
            }
        }
        let v = compare(&doc(), &cur, false);
        assert!(v.iter().any(|p| p.contains("latency") && p.contains("missing")), "{v:?}");
        // A row count change.
        let mut cur = doc();
        if let Some(Json::Arr(rows)) = cur.get("tables").and_then(|t| t.get("latency")).cloned() {
            let mut doubled = rows.clone();
            doubled.extend(rows);
            set(&mut cur, &["tables"], None, "latency", Json::Arr(doubled));
        }
        assert!(!compare(&doc(), &cur, false).is_empty());
    }

    #[test]
    fn config_mismatch_short_circuits() {
        let mut cur = doc();
        set(&mut cur, &["config"], None, "samples", Json::Int(100));
        let v = compare(&doc(), &cur, false);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("config.samples"), "{v:?}");
        // Thread count and repetitions are allowed to differ.
        let mut cur = doc();
        set(&mut cur, &["config"], None, "threads", Json::Int(32));
        set(&mut cur, &["config"], None, "reps", Json::Int(1));
        assert_eq!(compare(&doc(), &cur, false), Vec::<String>::new());
    }

    #[test]
    fn wrong_schema_is_fatal() {
        let mut cur = doc();
        if let Json::Obj(m) = &mut cur {
            m.iter_mut().find(|(k, _)| k == "schema").unwrap().1 =
                Json::Str("ferrum-bench/v0".into());
        }
        assert_eq!(compare(&doc(), &cur, false).len(), 1);
    }
}
