//! Text rendering of evaluation results in the shape of the paper's
//! figures, plus the machine-readable JSON artifact.

use ferrum_asm::analysis::coverage::{CoverageMap, VerdictCounts};
use ferrum_asm::analysis::lint::{LintFinding, LintReport};
use ferrum_asm::provenance::Mechanism;
use ferrum_cpu::differential::DiffLoc;
use ferrum_cpu::fault::FaultSpec;
use ferrum_cpu::run::MechCounts;
use ferrum_cpu::{Image, PcCount, PcProfile};
use ferrum_eddi::Technique;
use ferrum_faultsim::campaign::{
    CampaignResult, CampaignStats, DetectionLatency, Outcome, WorkerStats,
};
use ferrum_faultsim::compose::ComposedMap;
use ferrum_faultsim::flight::{CampaignFingerprint, ProgressSnapshot};
use ferrum_faultsim::forensics::{
    CheckerEscape, Divergence, EscapeReason, ForensicRecord, ForensicsReport, KillWindow,
    TaintSample, TaintTimeline, UnknownSiteExplanation,
};
use ferrum_faultsim::rootcause::RootCauseReport;
use ferrum_faultsim::stats::wilson_interval;

use crate::attribution::OverheadAttribution;
use crate::experiment::{TechniqueReport, WorkloadReport};
use crate::json::{Json, ToJson};
use crate::profile::{DiffProfile, SiteOverhead};

/// Renders Fig. 10's data: SDC coverage per benchmark × technique.
pub fn render_coverage_table(reports: &[WorkloadReport]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<16}{:>16}{:>16}{:>16}\n",
        "benchmark", "IR-EDDI", "HYBRID-ASM", "FERRUM"
    ));
    let mut sums = [0.0f64; 3];
    for r in reports {
        out.push_str(&format!("{:<16}", r.name));
        for (i, t) in Technique::PROTECTED.into_iter().enumerate() {
            let c = r.technique(t).map_or(0.0, |x| x.coverage);
            sums[i] += c;
            out.push_str(&format!("{:>15.1}%", c * 100.0));
        }
        out.push('\n');
    }
    if !reports.is_empty() {
        out.push_str(&format!("{:<16}", "average"));
        for s in sums {
            out.push_str(&format!("{:>15.1}%", s / reports.len() as f64 * 100.0));
        }
        out.push('\n');
    }
    out
}

/// Renders Fig. 11's data: runtime overhead per benchmark × technique.
pub fn render_overhead_table(reports: &[WorkloadReport]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<16}{:>16}{:>16}{:>16}\n",
        "benchmark", "IR-EDDI", "HYBRID-ASM", "FERRUM"
    ));
    let mut sums = [0.0f64; 3];
    for r in reports {
        out.push_str(&format!("{:<16}", r.name));
        for (i, t) in Technique::PROTECTED.into_iter().enumerate() {
            let o = r.technique(t).map_or(0.0, |x| x.overhead);
            sums[i] += o;
            out.push_str(&format!("{:>15.1}%", o * 100.0));
        }
        out.push('\n');
    }
    if !reports.is_empty() {
        out.push_str(&format!("{:<16}", "average"));
        for s in sums {
            out.push_str(&format!("{:>15.1}%", s / reports.len() as f64 * 100.0));
        }
        out.push('\n');
    }
    out
}

/// Renders a grouped horizontal bar chart (the shape of the paper's
/// Figs. 10–11) in plain text.  `max` sets the full-bar scale.
pub fn render_bars(
    title: &str,
    reports: &[WorkloadReport],
    value: impl Fn(&crate::experiment::TechniqueReport) -> f64,
    max: f64,
) -> String {
    const WIDTH: usize = 40;
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    for r in reports {
        out.push_str(&format!(
            "{}
",
            r.name
        ));
        for t in Technique::PROTECTED {
            let Some(tr) = r.technique(t) else { continue };
            let v = value(tr);
            let filled = ((v / max) * WIDTH as f64).round().clamp(0.0, WIDTH as f64) as usize;
            let short = match t {
                Technique::IrEddi => "IR    ",
                Technique::HybridAsmEddi => "HYBRID",
                Technique::Ferrum => "FERRUM",
                Technique::None => "RAW   ",
            };
            out.push_str(&format!(
                "  {short} |{}{}| {:5.1}%
",
                "█".repeat(filled),
                " ".repeat(WIDTH - filled),
                v * 100.0
            ));
        }
    }
    out
}

/// Renders the campaign-engine throughput counters: injections/sec,
/// snapshot hit-rate, and the share of dynamic instructions the
/// snapshot engine did not have to re-execute.
pub fn render_throughput_table(reports: &[WorkloadReport]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<44}{:>8}{:>12}{:>11}{:>10}{:>13}\n",
        "benchmark", "threads", "inj/sec", "snapshots", "hit-rate", "steps-saved"
    ));
    for r in reports {
        for t in &r.techniques {
            let s = &t.campaign.stats;
            out.push_str(&format!(
                "{:<44}{:>8}{:>12.0}{:>11}{:>9.0}%{:>12.0}%\n",
                format!("{}/{}", r.name, t.technique),
                s.threads,
                s.injections_per_sec,
                s.snapshots_taken,
                s.snapshot_hit_rate() * 100.0,
                s.steps_saved_ratio() * 100.0,
            ));
        }
    }
    out
}

/// Renders the per-mechanism overhead-attribution table for one
/// workload: executed instructions and cycles per protection mechanism,
/// each mechanism's share of the total protection cycles, and the
/// exact reconciliation against the peepholed baseline.
pub fn render_attribution_table(name: &str, att: &OverheadAttribution) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{name}: FERRUM overhead attribution (baseline {} insts / {} cycles)\n",
        att.baseline_dyn_insts, att.baseline_cycles
    ));
    out.push_str(&format!(
        "{:<16}{:>12}{:>12}{:>12}\n",
        "mechanism", "dyn insts", "cycles", "cycle-share"
    ));
    for (m, c) in att.mech.iter() {
        out.push_str(&format!(
            "{:<16}{:>12}{:>12}{:>11.1}%\n",
            m.label(),
            c.insts,
            c.cycles,
            att.cycle_share(m) * 100.0
        ));
    }
    out.push_str(&format!(
        "{:<16}{:>12}{:>12}{:>11.1}%\n",
        "total",
        att.protection_insts(),
        att.protection_cycles(),
        if att.protection_cycles() == 0 { 0.0 } else { 100.0 }
    ));
    out.push_str(&format!(
        "protected: {} insts / {} cycles (+{:.1}% cycles); mechanism sum {}\n",
        att.protected_dyn_insts,
        att.protected_cycles,
        att.cycle_overhead() * 100.0,
        if att.reconciles() { "exact" } else { "DOES NOT RECONCILE" }
    ));
    out
}

/// Renders the detection-latency distribution: percentiles plus a
/// log2-bucketed histogram (injection→detection instruction distance).
pub fn render_latency_histogram(lat: &DetectionLatency) -> String {
    let mut out = String::new();
    if lat.count() == 0 {
        out.push_str("no detections observed\n");
        return out;
    }
    out.push_str(&format!(
        "detections: {}   p50: {}   p95: {}   max: {} dynamic insts\n",
        lat.count(),
        lat.p50().unwrap_or(0),
        lat.p95().unwrap_or(0),
        lat.max().unwrap_or(0)
    ));
    const WIDTH: usize = 32;
    let hist = lat.histogram_log2();
    let peak = hist.iter().map(|&(_, _, c)| c).max().unwrap_or(1).max(1);
    for (lo, hi, c) in hist {
        let filled = ((c as f64 / peak as f64) * WIDTH as f64).round() as usize;
        out.push_str(&format!(
            "{:>8}..{:<8}{:>8} |{}{}|\n",
            lo,
            hi,
            c,
            "█".repeat(filled),
            " ".repeat(WIDTH - filled)
        ));
    }
    out
}

/// Renders per-benchmark detection-latency percentiles and worker
/// balance from the campaign telemetry.
pub fn render_telemetry_table(reports: &[WorkloadReport]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<44}{:>10}{:>8}{:>8}{:>8}{:>9}\n",
        "benchmark", "detected", "p50", "p95", "max", "balance"
    ));
    for r in reports {
        for t in &r.techniques {
            let s = &t.campaign.stats;
            out.push_str(&format!(
                "{:<44}{:>10}{:>8}{:>8}{:>8}{:>8.2}\n",
                format!("{}/{}", r.name, t.technique),
                s.latency.count(),
                s.latency.p50().map_or_else(|| "-".into(), |v| v.to_string()),
                s.latency.p95().map_or_else(|| "-".into(), |v| v.to_string()),
                s.latency.max().map_or_else(|| "-".into(), |v| v.to_string()),
                s.worker_balance(),
            ));
        }
    }
    out
}

/// Header for the live campaign progress table streamed by
/// `ferrum-campaign` (one [`render_progress_row`] per
/// [`ProgressSnapshot`]).
pub fn render_progress_header() -> String {
    format!(
        "{:<14}{:>6}{:>7}{:>9}{:>7}{:>9}{:>9}{:>12}{:>10}  {}\n",
        "done", "%", "sdc", "detected", "crash", "timeout", "benign", "inj/s", "eta", "sdc 95% CI"
    )
}

/// One row of the live campaign progress table: completion, running
/// outcome tallies, rolling injections/sec, ETA, and the Wilson
/// interval on SDC probability.
pub fn render_progress_row(p: &ProgressSnapshot) -> String {
    let pct = if p.total == 0 {
        100.0
    } else {
        100.0 * p.done as f64 / p.total as f64
    };
    let eta = match p.eta_nanos {
        Some(n) => format!("{:.1}s", n as f64 / 1e9),
        None => "-".to_owned(),
    };
    format!(
        "{:<14}{:>6.1}{:>7}{:>9}{:>7}{:>9}{:>9}{:>12.0}{:>10}  [{:.4}, {:.4}]\n",
        format!("{}/{}", p.done, p.total),
        pct,
        p.tallies.sdc,
        p.tallies.detected,
        p.tallies.crash,
        p.tallies.timeout,
        p.tallies.benign,
        p.rate,
        eta,
        p.sdc_ci.0,
        p.sdc_ci.1
    )
}

/// A progress row with stalled-worker flags: [`render_progress_row`]
/// plus a trailing `!! stalled: w2,w5` marker when
/// [`StallTracker::stalled`](crate::flight::StallTracker::stalled)
/// reports silent workers.
pub fn render_progress_row_flagged(p: &ProgressSnapshot, stalled: &[usize]) -> String {
    let mut row = render_progress_row(p);
    if !stalled.is_empty() {
        let names: Vec<String> = stalled.iter().map(|w| format!("w{w}")).collect();
        row.pop();
        row.push_str(&format!("  !! stalled: {}\n", names.join(",")));
    }
    row
}

/// Renders the end-of-campaign flight summary: fingerprint, shard
/// layout, and final throughput — the `ferrum-campaign` footer.
pub fn render_flight_summary(fp: &CampaignFingerprint, result: &CampaignResult) -> String {
    let s = &result.stats;
    let mut out = String::new();
    out.push_str(&format!(
        "campaign {}/{} [{}:{}] seed {:#x}: {} injections in {:.1} ms ({:.0} inj/s, {} threads)\n",
        if fp.workload.is_empty() { "?" } else { &fp.workload },
        if fp.technique.is_empty() { "?" } else { &fp.technique },
        fp.executor,
        fp.engine.label(),
        fp.seed,
        s.injections,
        s.wall_nanos as f64 / 1e6,
        s.injections_per_sec,
        s.threads
    ));
    out.push_str(&format!(
        "outcomes: {} sdc / {} detected / {} crash / {} timeout / {} benign (sdc p = {:.4})\n",
        result.sdc, result.detected, result.crash, result.timeout, result.benign,
        result.sdc_prob()
    ));
    if s.pruned_sites > 0 || s.reused_sites > 0 {
        out.push_str(&format!(
            "pruned: {} ({:.1}%)   reused: {} ({:.1}%)\n",
            s.pruned_sites,
            s.prune_rate() * 100.0,
            s.reused_sites,
            s.reuse_rate() * 100.0
        ));
    }
    out
}

/// Renders a `ferrum-lint` report for terminal consumption: one line
/// per finding (`contract  function/block[index]: explanation`) plus a
/// summary line, mirroring compiler-diagnostic conventions.
pub fn render_lint_report(rep: &LintReport) -> String {
    let mut out = String::new();
    for f in &rep.findings {
        out.push_str(&format!(
            "{:<16} {}/{}[{}] ({}): {}\n",
            f.contract.name(),
            f.function,
            f.block,
            f.inst_index,
            f.provenance,
            f.explanation
        ));
    }
    out.push_str(&format!(
        "{} finding(s) in {} function(s), {} instruction(s) scanned\n",
        rep.findings.len(),
        rep.functions_scanned,
        rep.insts_scanned
    ));
    out
}

impl ToJson for LintFinding {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("contract", Json::Str(self.contract.name().to_owned())),
            ("function", self.function.to_json()),
            ("block", self.block.to_json()),
            ("inst_index", self.inst_index.to_json()),
            ("provenance", Json::Str(self.provenance.to_string())),
            ("explanation", self.explanation.to_json()),
        ])
    }
}

impl ToJson for LintReport {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("clean", Json::Bool(self.is_clean())),
            ("functions_scanned", self.functions_scanned.to_json()),
            ("insts_scanned", self.insts_scanned.to_json()),
            ("findings", self.findings.to_json()),
        ])
    }
}

impl ToJson for Outcome {
    fn to_json(&self) -> Json {
        Json::Str(self.variant().to_owned())
    }
}

impl ToJson for Technique {
    fn to_json(&self) -> Json {
        Json::Str(
            match self {
                Technique::None => "None",
                Technique::IrEddi => "IrEddi",
                Technique::HybridAsmEddi => "HybridAsmEddi",
                Technique::Ferrum => "Ferrum",
            }
            .to_owned(),
        )
    }
}

impl ToJson for FaultSpec {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("dyn_index", self.dyn_index.to_json()),
            ("raw_bit", Json::Int(i64::from(self.raw_bit))),
        ])
    }
}

impl ToJson for Mechanism {
    fn to_json(&self) -> Json {
        Json::Str(self.label().to_owned())
    }
}

impl ToJson for MechCounts {
    fn to_json(&self) -> Json {
        Json::Obj(
            self.iter()
                .map(|(m, c)| {
                    (
                        m.label().to_owned(),
                        Json::obj(vec![
                            ("insts", c.insts.to_json()),
                            ("cycles", c.cycles.to_json()),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

impl ToJson for OverheadAttribution {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("baseline_dyn_insts", self.baseline_dyn_insts.to_json()),
            ("baseline_cycles", self.baseline_cycles.to_json()),
            ("protected_dyn_insts", self.protected_dyn_insts.to_json()),
            ("protected_cycles", self.protected_cycles.to_json()),
            ("cycle_overhead", self.cycle_overhead().to_json()),
            ("mechanisms", self.mech.to_json()),
            ("reconciles", Json::Bool(self.reconciles())),
        ])
    }
}

impl ToJson for WorkerStats {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("injections", self.injections.to_json()),
            ("steps_executed", self.steps_executed.to_json()),
        ])
    }
}

impl ToJson for DetectionLatency {
    fn to_json(&self) -> Json {
        let opt = |v: Option<u64>| v.map_or(Json::Null, |v| v.to_json());
        let hist = self
            .histogram_log2()
            .into_iter()
            .map(|(lo, hi, c)| {
                Json::obj(vec![
                    ("lo", lo.to_json()),
                    ("hi", hi.to_json()),
                    ("count", c.to_json()),
                ])
            })
            .collect();
        Json::obj(vec![
            ("count", self.count().to_json()),
            ("p50", opt(self.p50())),
            ("p95", opt(self.p95())),
            ("max", opt(self.max())),
            ("histogram_log2", Json::Arr(hist)),
        ])
    }
}

impl ToJson for CampaignStats {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("engine", self.engine.label().to_json()),
            ("wall_nanos", Json::Int(self.wall_nanos as i64)),
            ("injections", self.injections.to_json()),
            ("injections_per_sec", self.injections_per_sec.to_json()),
            ("threads", self.threads.to_json()),
            ("snapshots_taken", self.snapshots_taken.to_json()),
            ("snapshot_hits", self.snapshot_hits.to_json()),
            ("snapshot_hit_rate", self.snapshot_hit_rate().to_json()),
            ("steps_saved", self.steps_saved.to_json()),
            ("steps_executed", self.steps_executed.to_json()),
            ("steps_saved_ratio", self.steps_saved_ratio().to_json()),
            ("per_worker", self.per_worker.to_json()),
            ("worker_balance", self.worker_balance().to_json()),
            ("detection_latency", self.latency.to_json()),
            ("pruned_sites", self.pruned_sites.to_json()),
            ("prune_rate", self.prune_rate().to_json()),
            ("reused_sites", self.reused_sites.to_json()),
            ("reuse_rate", self.reuse_rate().to_json()),
        ])
    }
}

impl ToJson for VerdictCounts {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("masked", self.masked.to_json()),
            ("detected", self.detected.to_json()),
            ("vulnerable", self.vulnerable.to_json()),
            ("unknown", self.unknown.to_json()),
            ("total", self.total().to_json()),
            ("detection_lower_bound", self.detection_lower_bound().to_json()),
            ("detection_upper_bound", self.detection_upper_bound().to_json()),
            ("decided_fraction", self.decided_fraction().to_json()),
        ])
    }
}

/// Serialises a [`CoverageMap`] (see docs/coverage-schema.md).  With
/// `include_sites`, each function carries its full per-site verdict
/// list; without, only the rollups — site lists are large.
pub fn coverage_to_json(map: &CoverageMap, include_sites: bool) -> Json {
    let functions = map
        .functions
        .iter()
        .map(|f| {
            let mut fields = vec![
                ("name", f.name.to_json()),
                ("sites", f.sites.len().to_json()),
                ("rollup", f.rollup.to_json()),
            ];
            if include_sites {
                let sites = f
                    .sites
                    .iter()
                    .map(|s| {
                        Json::obj(vec![
                            ("pc", s.pc.to_json()),
                            ("bits", (s.bits as u64).to_json()),
                            (
                                "mechanism",
                                s.prov
                                    .mechanism()
                                    .map_or(Json::Null, |m| m.label().to_json()),
                            ),
                            (
                                "verdicts",
                                Json::Arr(
                                    s.verdicts.iter().map(|v| v.label().to_json()).collect(),
                                ),
                            ),
                        ])
                    })
                    .collect();
                fields.push(("site_verdicts", Json::Arr(sites)));
            }
            Json::obj(fields)
        })
        .collect();
    let mechanisms = map
        .mechanism_rollup()
        .into_iter()
        .map(|(m, c)| (m.map_or("app", Mechanism::label).to_owned(), c.to_json()))
        .collect();
    Json::obj(vec![
        ("total_sites", map.total_sites().to_json()),
        ("rollup", map.rollup().to_json()),
        ("mechanisms", Json::Obj(mechanisms)),
        ("functions", Json::Arr(functions)),
    ])
}

/// Renders the static coverage map: per-mechanism verdict-unit counts
/// and the predicted detection-coverage bounds.
pub fn render_static_coverage(name: &str, map: &CoverageMap) -> String {
    let mut out = String::new();
    out.push_str(&format!("static coverage: {name}\n"));
    out.push_str(&format!(
        "{:<16}{:>10}{:>10}{:>12}{:>10}{:>10}\n",
        "mechanism", "masked", "detected", "vulnerable", "unknown", "decided"
    ));
    let mut rows: Vec<(String, VerdictCounts)> = map
        .mechanism_rollup()
        .into_iter()
        .map(|(m, c)| (m.map_or("app", Mechanism::label).to_owned(), c))
        .collect();
    rows.push(("total".to_owned(), map.rollup()));
    for (label, c) in rows {
        out.push_str(&format!(
            "{:<16}{:>10}{:>10}{:>12}{:>10}{:>9.1}%\n",
            label,
            c.masked,
            c.detected,
            c.vulnerable,
            c.unknown,
            c.decided_fraction() * 100.0,
        ));
    }
    let r = map.rollup();
    out.push_str(&format!(
        "predicted detection coverage (static-site weighted): {:.1}% .. {:.1}%\n",
        r.detection_lower_bound() * 100.0,
        r.detection_upper_bound() * 100.0,
    ));
    out
}

/// Renders the predicted bounds next to a measured campaign.  The
/// static bounds weight every program-text site equally while a
/// sampled campaign weights sites by dynamic execution frequency, so
/// the measured rate may legitimately sit outside the static band —
/// the table exists to surface exactly that relationship.
pub fn render_predicted_vs_measured(
    name: &str,
    map: &CoverageMap,
    campaign: &CampaignResult,
) -> String {
    let r = map.rollup();
    let total = campaign.total().max(1);
    let (det_lo, det_hi) = wilson_interval(campaign.detected, campaign.total());
    let (sdc_lo, sdc_hi) = wilson_interval(campaign.sdc, campaign.total());
    let mut out = String::new();
    out.push_str(&format!("predicted vs measured: {name}\n"));
    out.push_str(&format!(
        "  static detected (lower bound)    {:>6.1}%\n",
        r.detection_lower_bound() * 100.0
    ));
    out.push_str(&format!(
        "  static non-masked (upper bound)  {:>6.1}%\n",
        r.detection_upper_bound() * 100.0
    ));
    out.push_str(&format!(
        "  measured detection rate          {:>6.1}%   ({}/{} injections, 95% CI {:.1}..{:.1}%)\n",
        campaign.detected as f64 / total as f64 * 100.0,
        campaign.detected,
        campaign.total(),
        det_lo * 100.0,
        det_hi * 100.0,
    ));
    out.push_str(&format!(
        "  measured sdc rate                {:>6.1}%   (95% CI {:.1}..{:.1}%)\n",
        campaign.sdc as f64 / total as f64 * 100.0,
        sdc_lo * 100.0,
        sdc_hi * 100.0,
    ));
    out.push_str(&format!(
        "  prune rate                       {:>6.1}%   ({} of {} booked statically)\n",
        campaign.stats.prune_rate() * 100.0,
        campaign.stats.pruned_sites,
        campaign.total(),
    ));
    out
}

/// The predicted-vs-measured comparison as JSON: static bounds plus
/// measured point estimates with their 95% Wilson intervals.
pub fn predicted_vs_measured_to_json(map: &CoverageMap, campaign: &CampaignResult) -> Json {
    let r = map.rollup();
    let total = campaign.total().max(1);
    let (det_lo, det_hi) = wilson_interval(campaign.detected, campaign.total());
    let (sdc_lo, sdc_hi) = wilson_interval(campaign.sdc, campaign.total());
    let rate = |n: usize| n as f64 / total as f64;
    Json::obj(vec![
        ("static_lower_bound", r.detection_lower_bound().to_json()),
        ("static_upper_bound", r.detection_upper_bound().to_json()),
        ("injections", campaign.total().to_json()),
        ("measured_detection_rate", rate(campaign.detected).to_json()),
        ("detection_ci95_lo", det_lo.to_json()),
        ("detection_ci95_hi", det_hi.to_json()),
        ("measured_sdc_rate", rate(campaign.sdc).to_json()),
        ("sdc_ci95_lo", sdc_lo.to_json()),
        ("sdc_ci95_hi", sdc_hi.to_json()),
        ("prune_rate", campaign.stats.prune_rate().to_json()),
    ])
}

/// Serialises a [`ComposedMap`] (see docs/compose-schema.md): the
/// whole-program composed verdicts next to the local rollups, with the
/// per-function lift counts.
pub fn composition_to_json(map: &ComposedMap) -> Json {
    let functions = map
        .functions
        .iter()
        .map(|f| {
            Json::obj(vec![
                ("name", f.name.to_json()),
                ("sites", f.sites.len().to_json()),
                ("call_sites", f.call_sites.to_json()),
                ("local", f.local.to_json()),
                ("composed", f.composed.to_json()),
                ("lifted", f.lifted.to_json()),
            ])
        })
        .collect();
    Json::obj(vec![
        ("local", map.local_rollup().to_json()),
        ("composed", map.composed_rollup().to_json()),
        ("lifted", map.lifted().to_json()),
        ("functions", Json::Arr(functions)),
    ])
}

/// Renders the composed verdict map: per-function local vs composed
/// unknown counts and the units the caller-side lift decided.
pub fn render_composition(name: &str, map: &ComposedMap) -> String {
    let mut out = String::new();
    out.push_str(&format!("composed coverage: {name}\n"));
    out.push_str(&format!(
        "{:<24}{:>7}{:>10}{:>15}{:>18}{:>8}\n",
        "function", "sites", "callers", "local unknown", "composed unknown", "lifted"
    ));
    for f in &map.functions {
        out.push_str(&format!(
            "{:<24}{:>7}{:>10}{:>15}{:>18}{:>8}\n",
            f.name,
            f.sites.len(),
            f.call_sites,
            f.local.unknown,
            f.composed.unknown,
            f.lifted,
        ));
    }
    let (l, c) = (map.local_rollup(), map.composed_rollup());
    out.push_str(&format!(
        "composition lifted {} of {} locally-unknown units ({:.1}% -> {:.1}% decided)\n",
        map.lifted(),
        l.unknown,
        l.decided_fraction() * 100.0,
        c.decided_fraction() * 100.0,
    ));
    out
}

/// Renders a forensics report: coverage of the analysis itself (how
/// many matching outcomes were replayed, located, classified), the
/// escape-reason histogram, the per-mechanism checker-escape rollup,
/// and the propagation-depth / injection→output latency summaries.
pub fn render_forensics_report(name: &str, rep: &ForensicsReport) -> String {
    let mut out = String::new();
    out.push_str(&format!("forensics: {name}\n"));
    out.push_str(&format!(
        "  analyzed {} of {} matching outcome(s): {} located, {} classified\n",
        rep.analyzed(),
        rep.matching_total,
        rep.located(),
        rep.classified(),
    ));
    if rep.records.is_empty() {
        out.push_str("  nothing to explain\n");
        return out;
    }
    out.push_str("  escape reasons:\n");
    for &(reason, n) in &rep.reason_histogram {
        out.push_str(&format!("    {:<28}{:>6}\n", reason.label(), n));
    }
    if !rep.mechanism_escapes.is_empty() {
        out.push_str("  checker escapes by mechanism:\n");
        for &(mech, n) in &rep.mechanism_escapes {
            out.push_str(&format!("    {:<28}{:>6}\n", mech.label(), n));
        }
    }
    if let Some((lo, med, hi)) = rep.depth_summary() {
        out.push_str(&format!(
            "  propagation depth (locations):  min {lo}  median {med}  max {hi}\n"
        ));
    }
    if let Some((lo, med, hi)) = rep.latency_summary() {
        out.push_str(&format!(
            "  injection→output latency:       min {lo}  median {med}  max {hi}\n"
        ));
    }
    out
}

/// Renders one forensic record as a multi-line incident report.
pub fn render_forensic_record(rec: &ForensicRecord) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "fault @dyn {} bit {} (pc {}) -> {:?}\n",
        rec.fault.dyn_index, rec.fault.raw_bit, rec.site_pc, rec.outcome
    ));
    match &rec.divergence {
        Some(d) => out.push_str(&format!(
            "  first divergence: {} at dyn {} (pc {}, {})\n",
            d.loc, d.dyn_index, d.pc, d.prov
        )),
        None => out.push_str("  first divergence: not located\n"),
    }
    let t = &rec.taint;
    out.push_str(&format!(
        "  taint: peak {} live, depth {}{}{}\n",
        t.peak_live,
        t.propagation_depth,
        t.quiescence
            .map_or(String::new(), |q| format!(", quiesced at dyn {q}")),
        t.time_to_output
            .map_or(String::new(), |o| format!(", output hit at dyn {o}")),
    ));
    if let Some(w) = &rec.kill_window {
        if w.escaped {
            out.push_str("  kill window: escaped (no register repair restores the output)\n");
        } else {
            out.push_str(&format!(
                "  kill window: [{}, {}] ({} insts)\n",
                w.start,
                w.end,
                w.len()
            ));
        }
    }
    out.push_str(&format!(
        "  checkers executed after injection: {}\n",
        rec.checkers.len()
    ));
    const SHOWN: usize = 10;
    for c in rec.checkers.iter().take(SHOWN) {
        out.push_str(&format!(
            "    +{:<8} {:<14} {:<26} inputs-tainted: {}\n",
            c.dyn_index.saturating_sub(rec.fault.dyn_index),
            c.mechanism.label(),
            c.reason.label(),
            c.inputs_tainted,
        ));
    }
    if rec.checkers.len() > SHOWN {
        out.push_str(&format!("    ... ({} more)\n", rec.checkers.len() - SHOWN));
    }
    if let Some(reason) = rec.primary_reason {
        out.push_str(&format!("  primary escape reason: {}\n", reason.label()));
    }
    out
}

/// Renders the cross-link between statically-`Unknown` coverage sites
/// and the measured forensic explanations of their sampled SDCs.
pub fn render_unknown_site_explanations(expl: &[UnknownSiteExplanation]) -> String {
    let mut out = String::new();
    if expl.is_empty() {
        out.push_str("no statically-unknown sites produced an analyzed SDC\n");
        return out;
    }
    out.push_str(&format!(
        "{} statically-unknown site(s) with a measured SDC explanation:\n",
        expl.len()
    ));
    for e in expl {
        out.push_str(&format!(
            "  pc {:<6} dyn {:<8} bit {:<4} {:<14} {}\n",
            e.pc,
            e.dyn_index,
            e.raw_bit,
            e.mechanism.map_or("app", Mechanism::label),
            e.reason.map_or("unclassified", EscapeReason::label),
        ));
    }
    out
}

impl ToJson for CampaignResult {
    fn to_json(&self) -> Json {
        let records = self
            .records
            .iter()
            .map(|(f, o)| Json::Arr(vec![f.to_json(), o.to_json()]))
            .collect();
        Json::obj(vec![
            ("sdc", self.sdc.to_json()),
            ("detected", self.detected.to_json()),
            ("crash", self.crash.to_json()),
            ("timeout", self.timeout.to_json()),
            ("benign", self.benign.to_json()),
            ("records", Json::Arr(records)),
            ("stats", self.stats.to_json()),
        ])
    }
}

impl ToJson for RootCauseReport {
    fn to_json(&self) -> Json {
        let glue = self
            .glue
            .iter()
            .map(|(k, v)| ((*k).to_owned(), v.to_json()))
            .collect();
        Json::obj(vec![
            ("from_ir", self.from_ir.to_json()),
            ("glue", Json::Obj(glue)),
            ("protection", self.protection.to_json()),
            ("synthetic", self.synthetic.to_json()),
            ("total_sdc", self.total_sdc.to_json()),
        ])
    }
}

impl ToJson for EscapeReason {
    fn to_json(&self) -> Json {
        Json::Str(self.label().to_owned())
    }
}

impl ToJson for DiffLoc {
    fn to_json(&self) -> Json {
        let kind = match self {
            DiffLoc::Gpr(_) => "gpr",
            DiffLoc::SimdLane { .. } => "simd-lane",
            DiffLoc::Flags => "flags",
            DiffLoc::Mem { .. } => "mem",
            DiffLoc::Output { .. } => "output",
        };
        Json::obj(vec![
            ("kind", Json::Str(kind.to_owned())),
            ("loc", Json::Str(self.to_string())),
        ])
    }
}

impl ToJson for Divergence {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("dyn_index", self.dyn_index.to_json()),
            ("pc", self.pc.to_json()),
            ("provenance", Json::Str(self.prov.to_string())),
            ("loc", self.loc.to_json()),
        ])
    }
}

impl ToJson for CheckerEscape {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("dyn_index", self.dyn_index.to_json()),
            ("pc", self.pc.to_json()),
            ("mechanism", self.mechanism.to_json()),
            ("reason", self.reason.to_json()),
            ("inputs_tainted", Json::Bool(self.inputs_tainted)),
        ])
    }
}

impl ToJson for TaintSample {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("dyn_index", self.dyn_index.to_json()),
            ("gprs", self.gprs.to_json()),
            ("simd_lanes", self.simd_lanes.to_json()),
            ("flags", Json::Bool(self.flags)),
            ("mem_bytes", self.mem_bytes.to_json()),
            ("live", self.live().to_json()),
            ("cumulative", self.cumulative.to_json()),
        ])
    }
}

impl ToJson for TaintTimeline {
    fn to_json(&self) -> Json {
        let opt = |v: Option<u64>| v.map_or(Json::Null, |v| v.to_json());
        Json::obj(vec![
            ("samples", self.samples.to_json()),
            ("peak_live", self.peak_live.to_json()),
            ("propagation_depth", self.propagation_depth.to_json()),
            ("quiescence", opt(self.quiescence)),
            ("time_to_output", opt(self.time_to_output)),
        ])
    }
}

impl ToJson for KillWindow {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("start", self.start.to_json()),
            ("end", self.end.to_json()),
            ("len", self.len().to_json()),
            ("escaped", Json::Bool(self.escaped)),
        ])
    }
}

impl ToJson for ForensicRecord {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("fault", self.fault.to_json()),
            ("outcome", self.outcome.to_json()),
            ("site_pc", self.site_pc.to_json()),
            (
                "divergence",
                self.divergence.as_ref().map_or(Json::Null, ToJson::to_json),
            ),
            ("taint", self.taint.to_json()),
            ("checkers", self.checkers.to_json()),
            (
                "primary_reason",
                self.primary_reason.map_or(Json::Null, |r| r.to_json()),
            ),
            (
                "kill_window",
                self.kill_window.as_ref().map_or(Json::Null, ToJson::to_json),
            ),
        ])
    }
}

impl ToJson for ForensicsReport {
    fn to_json(&self) -> Json {
        let summary = |s: Option<(u64, u64, u64)>| match s {
            Some((lo, med, hi)) => Json::obj(vec![
                ("min", lo.to_json()),
                ("median", med.to_json()),
                ("max", hi.to_json()),
            ]),
            None => Json::Null,
        };
        let reasons = self
            .reason_histogram
            .iter()
            .map(|&(r, n)| (r.label().to_owned(), n.to_json()))
            .collect();
        let mechs = self
            .mechanism_escapes
            .iter()
            .map(|&(m, n)| (m.label().to_owned(), n.to_json()))
            .collect();
        Json::obj(vec![
            ("matching_total", self.matching_total.to_json()),
            ("analyzed", self.analyzed().to_json()),
            ("located", self.located().to_json()),
            ("classified", self.classified().to_json()),
            ("reason_histogram", Json::Obj(reasons)),
            ("mechanism_escapes", Json::Obj(mechs)),
            (
                "depth_summary",
                summary(
                    self.depth_summary()
                        .map(|(a, b, c)| (a as u64, b as u64, c as u64)),
                ),
            ),
            ("latency_summary", summary(self.latency_summary())),
            ("records", self.records.to_json()),
        ])
    }
}

impl ToJson for UnknownSiteExplanation {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("pc", self.pc.to_json()),
            ("dyn_index", self.dyn_index.to_json()),
            ("raw_bit", Json::Int(i64::from(self.raw_bit))),
            (
                "mechanism",
                self.mechanism.map_or(Json::Null, |m| m.to_json()),
            ),
            ("reason", self.reason.map_or(Json::Null, |r| r.to_json())),
        ])
    }
}

impl ToJson for ferrum_backend::OptLevel {
    fn to_json(&self) -> Json {
        Json::Str(self.label().to_owned())
    }
}

impl ToJson for ferrum_backend::PassStats {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("regalloc_candidates", self.regalloc_candidates.to_json()),
            ("regalloc_allocated", self.regalloc_allocated.to_json()),
            ("loads_forwarded", self.loads_forwarded.to_json()),
            ("loads_removed", self.loads_removed.to_json()),
            ("exprs_forwarded", self.exprs_forwarded.to_json()),
            ("exprs_removed", self.exprs_removed.to_json()),
            ("stores_removed", self.stores_removed.to_json()),
            ("branches_fused", self.branches_fused.to_json()),
            ("fused_insts_removed", self.fused_insts_removed.to_json()),
            ("dead_removed", self.dead_removed.to_json()),
            ("jumps_removed", self.jumps_removed.to_json()),
            ("insts_removed", self.insts_removed().to_json()),
        ])
    }
}

impl ToJson for TechniqueReport {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("technique", self.technique.to_json()),
            ("cycles", self.cycles.to_json()),
            ("overhead", self.overhead.to_json()),
            ("sdc_prob", self.sdc_prob.to_json()),
            ("coverage", self.coverage.to_json()),
            ("static_insts", self.static_insts.to_json()),
            ("dyn_insts", self.dyn_insts.to_json()),
            ("campaign", self.campaign.to_json()),
            ("rootcause", self.rootcause.to_json()),
            ("pass_stats", self.pass_stats.to_json()),
        ])
    }
}

impl ToJson for WorkloadReport {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", self.name.to_json()),
            ("raw_cycles", self.raw_cycles.to_json()),
            ("raw_static_insts", self.raw_static_insts.to_json()),
            ("raw_sdc_prob", self.raw_sdc_prob.to_json()),
            ("opt", self.opt.to_json()),
            ("raw_pass_stats", self.raw_pass_stats.to_json()),
            ("techniques", self.techniques.to_json()),
        ])
    }
}

/// Renders the exact-profile hot-spot table: the `n` hottest pcs by
/// cycles, with their function, provenance, and share of total cycles.
pub fn render_hotspots(name: &str, image: &Image, pcs: &PcProfile, n: usize) -> String {
    let total = pcs.total();
    let mut out = String::new();
    out.push_str(&format!(
        "{name}: exact profile ({} dyn insts / {} cycles)\n",
        total.insts, total.cycles
    ));
    out.push_str(&format!(
        "{:<8}{:<20}{:>12}{:>12}{:>9}  {}\n",
        "pc", "function", "dyn insts", "cycles", "share", "provenance"
    ));
    for (pc, c) in pcs.hottest_pcs().into_iter().take(n) {
        let share = if total.cycles == 0 {
            0.0
        } else {
            c.cycles as f64 / total.cycles as f64 * 100.0
        };
        out.push_str(&format!(
            "{:<8}{:<20}{:>12}{:>12}{:>8.1}%  {}\n",
            pc,
            image.func_name(pc),
            c.insts,
            c.cycles,
            share,
            image.insts[pc].prov,
        ));
    }
    out
}

/// Renders the per-function rollup of an exact profile, descending by
/// cycles.
pub fn render_function_profile(image: &Image, pcs: &PcProfile) -> String {
    let total = pcs.total();
    let mut rows: Vec<(usize, PcCount)> = pcs
        .funcs
        .iter()
        .enumerate()
        .filter(|(_, c)| c.insts > 0)
        .map(|(fi, c)| (fi, *c))
        .collect();
    rows.sort_by(|a, b| b.1.cycles.cmp(&a.1.cycles).then(a.0.cmp(&b.0)));
    let mut out = String::new();
    out.push_str(&format!(
        "{:<20}{:>12}{:>12}{:>9}\n",
        "function", "dyn insts", "cycles", "share"
    ));
    for (fi, c) in rows {
        let share = if total.cycles == 0 {
            0.0
        } else {
            c.cycles as f64 / total.cycles as f64 * 100.0
        };
        out.push_str(&format!(
            "{:<20}{:>12}{:>12}{:>8.1}%\n",
            image.funcs[fi].name, c.insts, c.cycles, share
        ));
    }
    out
}

/// Renders the differential per-site overhead table: the `n` sites with
/// the most protection cycles, each with its own work, overhead, and
/// dominant mechanism — the pc-granular refinement of
/// [`render_attribution_table`].
pub fn render_diff_sites(name: &str, d: &DiffProfile, n: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{name}: {} per-site overhead (baseline {} cycles, protected {} cycles, +{:.1}%)\n",
        d.technique,
        d.attribution.baseline_cycles,
        d.attribution.protected_cycles,
        d.attribution.cycle_overhead() * 100.0,
    ));
    out.push_str(&format!(
        "{:<24}{:>12}{:>14}{:>14}{:>9}  {}\n",
        "site", "work-cyc", "overhead-ins", "overhead-cyc", "share", "dominant"
    ));
    let prot_total = d.attribution.protection_cycles();
    for s in d.top_sites(n) {
        let share = if prot_total == 0 {
            0.0
        } else {
            s.overhead_cycles() as f64 / prot_total as f64 * 100.0
        };
        out.push_str(&format!(
            "{:<24}{:>12}{:>14}{:>14}{:>8.1}%  {}\n",
            s.label(),
            s.work.cycles,
            s.overhead_insts(),
            s.overhead_cycles(),
            share,
            s.dominant_mechanism().map_or("-", Mechanism::label),
        ));
    }
    out.push_str(&format!(
        "site sum over {} site(s): {} insts / {} cycles ({})\n",
        d.sites.len(),
        d.site_mech_totals().total_insts(),
        d.site_mech_totals().total_cycles(),
        if d.sites_reconcile() {
            "reconciles exactly with mechanism totals"
        } else {
            "DOES NOT RECONCILE"
        }
    ));
    out
}

/// Serialises an exact profile per `docs/profile-schema.md`: totals,
/// non-zero pcs in hot-spot order, per-function rollup, and folded
/// stacks.
pub fn pc_profile_to_json(image: &Image, pcs: &PcProfile) -> Json {
    let total = pcs.total();
    let hot = pcs
        .hottest_pcs()
        .into_iter()
        .map(|(pc, c)| {
            Json::obj(vec![
                ("pc", pc.to_json()),
                ("func", Json::Str(image.func_name(pc).to_owned())),
                ("prov", Json::Str(image.insts[pc].prov.to_string())),
                ("insts", c.insts.to_json()),
                ("cycles", c.cycles.to_json()),
            ])
        })
        .collect();
    let funcs = pcs
        .funcs
        .iter()
        .enumerate()
        .filter(|(_, c)| c.insts > 0)
        .map(|(fi, c)| {
            Json::obj(vec![
                ("func", Json::Str(image.funcs[fi].name.clone())),
                ("insts", c.insts.to_json()),
                ("cycles", c.cycles.to_json()),
            ])
        })
        .collect();
    let stacks = pcs
        .stacks
        .iter()
        .map(|(stack, c)| {
            let names: Vec<&str> = stack
                .iter()
                .map(|&f| image.funcs[f as usize].name.as_str())
                .collect();
            Json::obj(vec![
                ("stack", Json::Str(names.join(";"))),
                ("insts", c.insts.to_json()),
                ("cycles", c.cycles.to_json()),
            ])
        })
        .collect();
    Json::obj(vec![
        (
            "total",
            Json::obj(vec![
                ("insts", total.insts.to_json()),
                ("cycles", total.cycles.to_json()),
            ]),
        ),
        ("pcs", Json::Arr(hot)),
        ("funcs", Json::Arr(funcs)),
        ("stacks", Json::Arr(stacks)),
    ])
}

impl ToJson for SiteOverhead {
    fn to_json(&self) -> Json {
        let mechs = self
            .mech
            .iter()
            .filter(|(_, c)| c.insts > 0)
            .map(|(m, c)| {
                (
                    m.label().to_owned(),
                    Json::obj(vec![
                        ("insts", c.insts.to_json()),
                        ("cycles", c.cycles.to_json()),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("site", Json::Str(self.label())),
            ("func", self.func.to_json()),
            (
                "anchor_pc",
                self.anchor_pc.map_or(Json::Null, |pc| pc.to_json()),
            ),
            (
                "ir_index",
                self.ir_index.map_or(Json::Null, |i| u64::from(i).to_json()),
            ),
            (
                "work",
                Json::obj(vec![
                    ("insts", self.work.insts.to_json()),
                    ("cycles", self.work.cycles.to_json()),
                ]),
            ),
            ("overhead_insts", self.overhead_insts().to_json()),
            ("overhead_cycles", self.overhead_cycles().to_json()),
            (
                "dominant",
                self.dominant_mechanism().map_or(Json::Null, |m| m.to_json()),
            ),
            ("mechanisms", Json::Obj(mechs)),
        ])
    }
}

impl ToJson for DiffProfile {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("technique", self.technique.to_json()),
            ("attribution", self.attribution.to_json()),
            ("sites_reconcile", Json::Bool(self.sites_reconcile())),
            ("sites", self.sites.to_json()),
        ])
    }
}

/// Serialises the full evaluation to pretty JSON (machine-readable
/// artifact for downstream analysis; the campaign `records` are
/// omitted via the type's fields being aggregate counts plus records —
/// callers who want compact output can clear `campaign.records`).
pub fn to_json(reports: &[WorkloadReport]) -> String {
    reports.to_json().to_string_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{evaluate_workload, EvalConfig};
    use crate::Pipeline;
    use ferrum_workloads::{workload, Scale};

    #[test]
    fn profile_renderers_and_json_cover_the_diff() {
        use crate::profile::diff_profile;
        let pipeline = Pipeline::new();
        let module = workload("needle").expect("exists").build(Scale::Test);
        let d = diff_profile(&pipeline, &module, crate::Technique::Ferrum).expect("diffs");
        let table = render_diff_sites("needle", &d, 10);
        assert!(table.contains("per-site overhead"), "{table}");
        assert!(table.contains("reconciles exactly"), "{table}");
        assert!(table.lines().count() <= 13, "{table}");
        let j = d.to_json();
        assert_eq!(j.get("sites_reconcile"), Some(&Json::Bool(true)));
        assert!(!j.get("sites").unwrap().as_array().unwrap().is_empty());
        // Hot-spot rendering over the protected profile.
        let protected = pipeline
            .protect(&module, crate::Technique::Ferrum)
            .unwrap();
        let cpu = pipeline.load(&protected).unwrap();
        let hot = render_hotspots("needle", cpu.image(), &d.protected_pcs, 5);
        assert!(hot.contains("exact profile"), "{hot}");
        assert_eq!(hot.lines().count(), 7, "{hot}");
        let funcs = render_function_profile(cpu.image(), &d.protected_pcs);
        assert!(funcs.contains("main"), "{funcs}");
        let pj = pc_profile_to_json(cpu.image(), &d.protected_pcs);
        assert_eq!(
            pj.get("total").unwrap().get("cycles").unwrap().as_u64(),
            Some(d.attribution.protected_cycles)
        );
    }

    #[test]
    fn flagged_progress_row_marks_stalled_workers() {
        let p = ProgressSnapshot {
            done: 2,
            total: 4,
            tallies: Default::default(),
            sdc_ci: (0.0, 1.0),
            rate: 100.0,
            worker_rates: vec![50.0, 50.0],
            eta_nanos: None,
            pruned: 0,
            reused: 0,
            elapsed_nanos: 10,
        };
        assert_eq!(render_progress_row_flagged(&p, &[]), render_progress_row(&p));
        let flagged = render_progress_row_flagged(&p, &[1, 3]);
        assert!(flagged.ends_with("!! stalled: w1,w3\n"), "{flagged}");
        assert!(flagged.starts_with(render_progress_row(&p).trim_end_matches('\n')));
    }

    #[test]
    fn tables_render_with_averages() {
        let pipeline = Pipeline::new();
        let w = workload("knn").expect("exists");
        let cfg = EvalConfig {
            samples: 150,
            seed: 5,
            scale: Scale::Test,
            ..EvalConfig::default()
        };
        let report = evaluate_workload(&pipeline, &w, cfg).expect("evaluates");
        let cov = render_coverage_table(std::slice::from_ref(&report));
        assert!(cov.contains("knn"));
        assert!(cov.contains("average"));
        assert!(cov.contains('%'));
        let ovh = render_overhead_table(std::slice::from_ref(&report));
        assert!(ovh.contains("FERRUM"));
        assert!(ovh.lines().count() == 3);
    }

    #[test]
    fn bar_chart_renders_scaled_bars() {
        let pipeline = Pipeline::new();
        let w = workload("knn").expect("exists");
        let cfg = EvalConfig {
            samples: 120,
            seed: 5,
            scale: Scale::Test,
            ..EvalConfig::default()
        };
        let report = evaluate_workload(&pipeline, &w, cfg).expect("evaluates");
        let chart = render_bars(
            "coverage",
            std::slice::from_ref(&report),
            |t| t.coverage,
            1.0,
        );
        assert!(chart.contains("knn"));
        assert!(chart.contains("FERRUM"));
        assert!(chart.contains('█'));
        // FERRUM's coverage bar is full (100%).
        let full_bar = "█".repeat(40);
        assert!(chart.contains(&full_bar), "{chart}");
    }

    #[test]
    fn json_export_round_trips_key_fields() {
        let pipeline = Pipeline::new();
        let w = workload("bfs").expect("exists");
        let cfg = EvalConfig {
            samples: 100,
            seed: 6,
            scale: Scale::Test,
            ..EvalConfig::default()
        };
        let report = evaluate_workload(&pipeline, &w, cfg).expect("evaluates");
        let json = to_json(std::slice::from_ref(&report));
        let v = crate::json::parse(&json).expect("valid json");
        let first = v.idx(0).unwrap();
        assert_eq!(first.get("name").unwrap().as_str(), Some("bfs"));
        assert!(first.get("raw_cycles").unwrap().as_u64().unwrap() > 0);
        let techniques = first.get("techniques").unwrap().as_array().unwrap();
        assert_eq!(techniques.len(), 3);
        let ferrum = &techniques[2];
        assert_eq!(
            ferrum.get("technique").unwrap().as_str(),
            Some("Ferrum")
        );
        assert!(ferrum.get("coverage").unwrap().as_f64().unwrap() >= 0.99);
        // The throughput stats ride along in the artifact.
        let stats = ferrum.get("campaign").unwrap().get("stats").unwrap();
        assert!(stats.get("injections_per_sec").unwrap().as_f64().unwrap() > 0.0);
        assert_eq!(stats.get("injections").unwrap().as_u64(), Some(100));
    }

    #[test]
    fn throughput_table_lists_engine_counters() {
        let pipeline = Pipeline::new();
        let w = workload("knn").expect("exists");
        let cfg = EvalConfig {
            samples: 120,
            seed: 11,
            scale: Scale::Test,
            ..EvalConfig::default()
        };
        let report = evaluate_workload(&pipeline, &w, cfg).expect("evaluates");
        let table = render_throughput_table(std::slice::from_ref(&report));
        assert!(table.contains("inj/sec"));
        assert!(table.contains("knn/FERRUM"));
        assert_eq!(table.lines().count(), 4, "{table}");
    }

    #[test]
    fn attribution_table_and_json_reconcile() {
        let pipeline = Pipeline::new();
        let module = workload("pathfinder").expect("exists").build(Scale::Test);
        let att = crate::attribution::attribute_overhead(&pipeline, &module).expect("attributes");
        let table = render_attribution_table("pathfinder", &att);
        assert!(table.contains("mechanism"), "{table}");
        assert!(table.contains("dup"), "{table}");
        assert!(table.contains("mechanism sum exact"), "{table}");
        let v = crate::json::parse(&att.to_json().to_string_pretty()).expect("valid json");
        assert_eq!(v.get("reconciles").unwrap(), &Json::Bool(true));
        let dup = v.get("mechanisms").unwrap().get("dup").unwrap();
        assert!(dup.get("insts").unwrap().as_u64().unwrap() > 0);
    }

    #[test]
    fn telemetry_renders_latency_and_worker_balance() {
        let pipeline = Pipeline::new();
        let w = workload("knn").expect("exists");
        let cfg = EvalConfig {
            samples: 150,
            seed: 8,
            scale: Scale::Test,
            ..EvalConfig::default()
        };
        let report = evaluate_workload(&pipeline, &w, cfg).expect("evaluates");
        let ferrum = report.technique(Technique::Ferrum).unwrap();
        let lat = &ferrum.campaign.stats.latency;
        assert!(lat.count() > 0, "FERRUM campaign must detect something");
        let hist = render_latency_histogram(lat);
        assert!(hist.contains("detections:"), "{hist}");
        assert!(hist.contains('█'), "{hist}");
        assert!(
            render_latency_histogram(&DetectionLatency::default()).contains("no detections")
        );
        let table = render_telemetry_table(std::slice::from_ref(&report));
        assert!(table.contains("p50"), "{table}");
        assert!(table.contains("knn/FERRUM"), "{table}");
        assert_eq!(table.lines().count(), 4, "{table}");
        // And the machine-readable artifact carries the same telemetry.
        let v = crate::json::parse(&ferrum.campaign.stats.to_json().to_string_pretty())
            .expect("valid json");
        let dl = v.get("detection_latency").unwrap();
        assert_eq!(dl.get("count").unwrap().as_u64(), Some(lat.count() as u64));
        assert!(dl.get("p50").unwrap().as_u64().is_some());
        assert!(!dl.get("histogram_log2").unwrap().as_array().unwrap().is_empty());
        let workers = v.get("per_worker").unwrap().as_array().unwrap();
        let inj: u64 = workers
            .iter()
            .map(|w| w.get("injections").unwrap().as_u64().unwrap())
            .sum();
        assert_eq!(inj, 150);
    }

    #[test]
    fn empty_reports_render_header_only() {
        assert_eq!(render_coverage_table(&[]).lines().count(), 1);
        assert_eq!(render_overhead_table(&[]).lines().count(), 1);
    }

    #[test]
    fn lint_report_renders_and_round_trips_json() {
        use ferrum_asm::analysis::lint::{LintContract, LintFinding, LintReport};
        use ferrum_asm::provenance::Provenance;
        let rep = LintReport {
            findings: vec![LintFinding {
                contract: LintContract::CheckedSync,
                function: "main".into(),
                block: "main_bb0".into(),
                inst_index: 7,
                provenance: Provenance::Synthetic,
                explanation: "unverified result consumed".into(),
            }],
            functions_scanned: 2,
            insts_scanned: 41,
        };
        let text = render_lint_report(&rep);
        assert!(text.contains("checked-sync"), "{text}");
        assert!(text.contains("main/main_bb0[7]"), "{text}");
        assert!(text.contains("1 finding(s) in 2 function(s)"), "{text}");
        let v = crate::json::parse(&rep.to_json().to_string_pretty()).expect("valid json");
        assert_eq!(v.get("clean").unwrap(), &Json::Bool(false));
        assert_eq!(v.get("insts_scanned").unwrap().as_u64(), Some(41));
        let f = v.get("findings").unwrap().idx(0).unwrap();
        assert_eq!(f.get("contract").unwrap().as_str(), Some("checked-sync"));
        assert_eq!(f.get("inst_index").unwrap().as_u64(), Some(7));

        // A clean report says so.
        let clean = LintReport {
            findings: Vec::new(),
            functions_scanned: 1,
            insts_scanned: 3,
        };
        assert!(render_lint_report(&clean).starts_with("0 finding(s)"));
        let v = crate::json::parse(&clean.to_json().to_string_pretty()).expect("valid json");
        assert_eq!(v.get("clean").unwrap(), &Json::Bool(true));
    }

    #[test]
    fn predicted_vs_measured_carries_wilson_intervals() {
        use ferrum_faultsim::campaign::{run_campaign, CampaignConfig};
        let pipeline = Pipeline::new();
        let module = workload("knn").expect("exists").build(Scale::Test);
        let prog = pipeline.protect(&module, Technique::Ferrum).expect("builds");
        let cpu = pipeline.load(&prog).expect("loads");
        let profile = cpu.profile();
        let map = CoverageMap::analyze(&prog);
        let cfg = CampaignConfig {
            samples: 120,
            seed: 0x51,
        };
        let campaign = run_campaign(&cpu, &profile, cfg);
        let text = render_predicted_vs_measured("knn", &map, &campaign);
        assert!(text.contains("95% CI"), "{text}");
        assert!(text.contains("measured detection rate"), "{text}");
        let v = crate::json::parse(
            &predicted_vs_measured_to_json(&map, &campaign).to_string_pretty(),
        )
        .expect("valid json");
        assert_eq!(v.get("injections").unwrap().as_u64(), Some(120));
        let rate = v.get("measured_detection_rate").unwrap().as_f64().unwrap();
        let lo = v.get("detection_ci95_lo").unwrap().as_f64().unwrap();
        let hi = v.get("detection_ci95_hi").unwrap().as_f64().unwrap();
        assert!(lo <= rate && rate <= hi, "point estimate inside the CI");
        assert!(hi - lo < 0.25, "CI width sane for 120 samples: {lo}..{hi}");
        let slo = v.get("sdc_ci95_lo").unwrap().as_f64().unwrap();
        let shi = v.get("sdc_ci95_hi").unwrap().as_f64().unwrap();
        assert!(slo <= v.get("measured_sdc_rate").unwrap().as_f64().unwrap());
        assert!(shi <= 1.0);
    }

    #[test]
    fn forensics_report_renders_and_round_trips_json() {
        use ferrum_faultsim::campaign::CampaignConfig;
        use ferrum_faultsim::forensics::{run_campaign_forensic_on, ForensicConfig};
        use ferrum_faultsim::Engine;
        let pipeline = Pipeline::new();
        let module = workload("knn").expect("exists").build(Scale::Test);
        let prog = pipeline.protect(&module, Technique::None).expect("builds");
        let cpu = pipeline.load(&prog).expect("loads");
        let profile = cpu.profile();
        let cfg = CampaignConfig {
            samples: 250,
            seed: 0x51,
        };
        let (campaign, rep) = run_campaign_forensic_on(
            Engine::Interpreter(&cpu),
            &profile,
            cfg,
            &ForensicConfig::default(),
        );
        assert!(campaign.sdc > 0, "unprotected knn must produce SDCs");
        assert!(rep.analyzed() > 0);

        let text = render_forensics_report("knn/raw", &rep);
        assert!(text.contains("forensics: knn/raw"), "{text}");
        assert!(text.contains("escape reasons:"), "{text}");
        // Unprotected code has no checkers: every record is
        // checker-not-reached and depth/latency summaries render.
        assert!(text.contains("checker-not-reached"), "{text}");
        assert!(text.contains("propagation depth"), "{text}");

        let rec_text = render_forensic_record(&rep.records[0]);
        assert!(rec_text.contains("first divergence:"), "{rec_text}");
        assert!(rec_text.contains("taint: peak"), "{rec_text}");
        assert!(rec_text.contains("primary escape reason:"), "{rec_text}");

        let v = crate::json::parse(&rep.to_json().to_string_pretty()).expect("valid json");
        assert_eq!(
            v.get("analyzed").unwrap().as_u64(),
            Some(rep.analyzed() as u64)
        );
        assert_eq!(
            v.get("located").unwrap().as_u64(),
            Some(rep.analyzed() as u64),
            "every analyzed record locates its divergence"
        );
        let hist = v.get("reason_histogram").unwrap();
        assert!(hist.get("checker-not-reached").unwrap().as_u64().unwrap() > 0);
        let rec = v.get("records").unwrap().idx(0).unwrap();
        assert_eq!(rec.get("outcome").unwrap().as_str(), Some("Sdc"));
        let div = rec.get("divergence").unwrap();
        assert_eq!(
            div.get("dyn_index").unwrap().as_u64(),
            rec.get("fault").unwrap().get("dyn_index").unwrap().as_u64(),
            "divergence sits at the injected site"
        );
        assert!(div.get("loc").unwrap().get("kind").unwrap().as_str().is_some());
        let taint = rec.get("taint").unwrap();
        assert!(taint.get("propagation_depth").unwrap().as_u64().unwrap() >= 1);
        assert!(!taint.get("samples").unwrap().as_array().unwrap().is_empty());
    }

    #[test]
    fn unknown_site_explanations_render_both_shapes() {
        use ferrum_faultsim::forensics::{EscapeReason, UnknownSiteExplanation};
        assert!(render_unknown_site_explanations(&[]).contains("no statically-unknown"));
        let expl = vec![UnknownSiteExplanation {
            pc: 42,
            dyn_index: 1_000,
            raw_bit: 7,
            mechanism: Some(Mechanism::Dup),
            reason: Some(EscapeReason::DupAlsoCorrupted),
        }];
        let text = render_unknown_site_explanations(&expl);
        assert!(text.contains("pc 42"), "{text}");
        assert!(text.contains("dup-also-corrupted"), "{text}");
        let v = crate::json::parse(&expl.to_json().to_string_pretty()).expect("valid json");
        let e = v.idx(0).unwrap();
        assert_eq!(e.get("mechanism").unwrap().as_str(), Some("dup"));
        assert_eq!(e.get("reason").unwrap().as_str(), Some("dup-also-corrupted"));
    }
}
