//! The fault-injection experiments: Table I, Fig. 10, the §IV-B1 root
//! cause, the design ablations and the extensions (selective
//! protection, double faults, escape forensics, the AArch64 port).

use std::fmt::Display;
use std::io::{self, Write};

use ferrum::{
    all_workloads, evaluate_workload, run_campaign_forensic_on, CampaignConfig, CostModel,
    EscapeReason, EvalConfig, ForensicConfig, Pipeline, Technique,
};
use ferrum_arm::exec::{profile, run, ArmFault, ArmOutcome};
use ferrum_arm::kernels::{scale_add, sum_gt};
use ferrum_arm::neon::protect_neon;
use ferrum_arm::program::ArmProgram;
use ferrum_eddi::ferrum::FerrumConfig;
use ferrum_faultsim::campaign::{run_campaign, run_double_campaign_on};
use ferrum_faultsim::stats::{runtime_overhead, sdc_coverage};
use ferrum_faultsim::Engine;

use super::{for_each_workload, Opts};

/// Table I: which instruction classes each technique protects, and at
/// which layer (`IR`, `AS_1` scalar assembly, `AS_2` SIMD assembly).
pub(super) fn table1(_: &Opts, out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "Table I — technique capability matrix")?;
    write!(out, "{}", ferrum_eddi::capability::render_table())?;
    writeln!(out)?;
    writeln!(out, "legend: IR = protected at IR level, AS_1 = assembly without SIMD,")?;
    writeln!(out, "        AS_2 = assembly with SIMD, / = not covered")
}

/// Fig. 10: SDC coverage per benchmark for IR-LEVEL-EDDI,
/// HYBRID-ASSEMBLY-LEVEL-EDDI, and FERRUM, measured with
/// assembly-level fault injection.
///
/// Paper reference points: FERRUM and the hybrid baseline reach 100%
/// everywhere; IR-level EDDI averages 72%, bottoming out around 50–54%
/// on kNN and Needle.
pub(super) fn fig10(o: &Opts, out: &mut dyn Write) -> io::Result<()> {
    let cfg = o.eval;
    eprintln!(
        "# Fig. 10 reproduction — {} faults/config, seed {}, {:?} scale, {}",
        cfg.samples,
        cfg.seed,
        cfg.scale,
        cfg.opt.label()
    );
    let pipeline = Pipeline::new();
    let mut reports: Vec<_> = all_workloads()
        .iter()
        .map(|w| {
            eprintln!("  running {} ...", w.name);
            evaluate_workload(&pipeline, w, cfg).unwrap_or_else(|e| panic!("{}: {e}", w.name))
        })
        .collect();
    if o.json {
        // Machine-readable artifact: full per-benchmark reports.
        for r in &mut reports {
            for t in &mut r.techniques {
                t.campaign.records.clear();
            }
        }
        return writeln!(out, "{}", ferrum::report::to_json(&reports));
    }
    writeln!(out, "Fig. 10 — SDC coverage (higher is better)")?;
    write!(out, "{}", ferrum::report::render_coverage_table(&reports))?;
    writeln!(out)?;
    write!(
        out,
        "{}",
        ferrum::report::render_bars("SDC coverage per benchmark:", &reports, |t| t.coverage, 1.0)
    )?;
    writeln!(out)?;
    writeln!(out, "raw SDC probability per benchmark (context):")?;
    for r in &reports {
        writeln!(out, "  {:<16}{:>6.1}%", r.name, r.raw_sdc_prob * 100.0)?;
    }
    writeln!(out)?;
    // The old bin name stays until `results/fig10.txt` is regenerated,
    // so the output keeps matching the committed file byte for byte.
    writeln!(out, "campaign-engine throughput (snapshot engine, see repro_speedup):")?;
    write!(out, "{}", ferrum::report::render_throughput_table(&reports))
}

/// §IV-B1: under IR-LEVEL-EDDI, which cross-layer instruction class
/// did each residual SDC's fault hit?  The paper identifies branch
/// materialisation (Figs. 8–9), store staging, and call glue as the
/// backend-generated fault sites invisible to IR-level protection;
/// provenance tags attribute every SDC directly.
pub(super) fn rootcause(o: &Opts, out: &mut dyn Write) -> io::Result<()> {
    let cfg = o.eval;
    let pipeline = Pipeline::new();
    writeln!(
        out,
        "§IV-B1 — provenance of residual SDCs under IR-LEVEL-EDDI ({})",
        cfg.opt.label()
    )?;
    fn row<T: Display>(out: &mut dyn Write, name: &str, v: [T; 7]) -> io::Result<()> {
        let [a, b, c, d, e, f, g] = v;
        writeln!(out, "{name:<16}{a:>8}{b:>10}{c:>14}{d:>12}{e:>10}{f:>12}{g:>12}")
    }
    let head = ["SDCs", "from-IR", "branch-mat.", "store-stg", "call", "other-glue", "protection"];
    row(out, "benchmark", head)?;
    let mut totals = [0usize; 7];
    for w in all_workloads() {
        let report =
            evaluate_workload(&pipeline, &w, cfg).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let ir = report.technique(Technique::IrEddi).expect("ir report");
        let rc = &ir.rootcause;
        let g = |k: &str| rc.glue.get(k).copied().unwrap_or(0);
        let branch = g("branch-materialize");
        let store = g("store-staging");
        let call = g("call-glue") + g("ret-glue");
        let other = rc.glue_total() - branch - store - call;
        let v = [rc.total_sdc, rc.from_ir, branch, store, call, other, rc.protection];
        row(out, w.name, v)?;
        for (t, x) in totals.iter_mut().zip(v) {
            *t += x;
        }
        // At -O0 the shadow chain is genuinely redundant, so a fault in
        // protection code is always caught by its own check (or
        // masked).  At -O1 value numbering may route *master* dataflow
        // through a lowered shadow instruction — whichever register
        // already holds the value — so a fault there can corrupt real
        // output after the guarding check already ran: the
        // protection/computation boundary itself dissolves under
        // optimization (root cause 2 again, seen from the other side).
        if cfg.opt == ferrum::OptLevel::O0 {
            assert_eq!(
                rc.protection, 0,
                "{}: at -O0 protection code must never cause SDC",
                w.name
            );
        }
    }
    row(out, "total", totals)?;
    writeln!(out)?;
    writeln!(
        out,
        "backend-glue share of residual SDCs: {:.1}%",
        100.0 * (totals[0] - totals[1]) as f64 / totals[0].max(1) as f64
    )
}

/// Suite-average FERRUM runtime overhead and SDC coverage under one
/// pipeline variant (raw campaigns use `seed`, protected ones
/// `seed + 1`): the loop behind `ablation` and `selective`.
fn suite_average(pipeline: &Pipeline, cfg: EvalConfig) -> io::Result<(f64, f64)> {
    let (mut overhead, mut coverage, mut n) = (0.0, 0.0, 0usize);
    let techniques = [Technique::None, Technique::Ferrum];
    for_each_workload(pipeline, cfg.scale, &techniques, |_, _, built| {
        let [raw, prot] = [0, 1].map(|i| {
            let profile = built[i].cpu.profile();
            let campaign = run_campaign(
                &built[i].cpu,
                &profile,
                CampaignConfig {
                    samples: cfg.samples,
                    seed: cfg.seed.wrapping_add(i as u64),
                },
            );
            (profile.result.cycles, campaign.sdc_prob())
        });
        overhead += runtime_overhead(raw.0, prot.0);
        coverage += sdc_coverage(raw.1, prot.1);
        n += 1;
        Ok(())
    })?;
    Ok((overhead / n as f64, coverage / n as f64))
}

/// Ablation study over FERRUM's design choices (DESIGN.md §4):
///
/// * SIMD batching off → every site falls back to scalar Fig.-4 checks,
/// * deferred flag detection off → `cmp`/`test` faults go unprotected
///   (coverage drops below 100%),
/// * peephole off → no compiler-level transformations,
/// * forced requisition → the Fig.-7 stack path everywhere,
/// * ZMM mode → AVX-512 batches of eight (paper §III-B3's "also viable"),
/// * serial machine (no co-issue discount) → protection at full price.
pub(super) fn ablation(o: &Opts, out: &mut dyn Write) -> io::Result<()> {
    let cfg = o.eval;
    let full = FerrumConfig::default();
    let serial = CostModel {
        protection_percent: 100,
        ..CostModel::default()
    };
    let with = |cfg| Pipeline::new().with_ferrum_config(cfg);
    let variants = [
        ("full FERRUM", Pipeline::new()),
        ("no SIMD", with(FerrumConfig { simd: false, ..full })),
        ("no deferred flags", with(FerrumConfig { deferred_flags: false, ..full })),
        ("no peephole", with(FerrumConfig { peephole: false, ..full })),
        ("forced requisition", with(FerrumConfig { force_requisition: true, ..full })),
        ("ZMM (AVX-512) batches", with(FerrumConfig { zmm: true, ..full })),
        ("serial machine", Pipeline::new().with_cost_model(serial)),
    ];
    writeln!(
        out,
        "FERRUM ablations — {} faults/config, {:?} scale",
        cfg.samples, cfg.scale
    )?;
    writeln!(out, "{:<22}{:>14}{:>14}", "variant", "overhead", "coverage")?;
    for (name, pipeline) in variants {
        let (overhead, coverage) = suite_average(&pipeline, cfg)?;
        writeln!(
            out,
            "{:<22}{:>13.1}%{:>13.1}%",
            name,
            overhead * 100.0,
            coverage * 100.0
        )?;
    }
    Ok(())
}

/// Extension: the coverage/overhead trade-off curve of selective
/// protection (the paper's related work: SDCTune \[9\], selective
/// duplication evaluation \[19\]).  FERRUM's `selective_percent`
/// stripes protection evenly over the site stream.
pub(super) fn selective(o: &Opts, out: &mut dyn Write) -> io::Result<()> {
    let cfg = o.eval;
    writeln!(
        out,
        "selective FERRUM sweep — {} faults/config, {:?} scale (suite averages)",
        cfg.samples, cfg.scale
    )?;
    writeln!(out, "{:>10}{:>14}{:>14}", "percent", "overhead", "coverage")?;
    for percent in [0u8, 25, 50, 75, 100] {
        let pipeline = Pipeline::new().with_ferrum_config(FerrumConfig {
            selective_percent: percent,
            ..FerrumConfig::default()
        });
        let (overhead, coverage) = suite_average(&pipeline, cfg)?;
        writeln!(
            out,
            "{:>9}%{:>13.1}%{:>13.1}%",
            percent,
            overhead * 100.0,
            coverage * 100.0
        )?;
    }
    Ok(())
}

/// Extension (the paper's stated future work, §II-A): double-fault
/// campaigns.  Two independent single-bit faults are injected per
/// execution; with two, a value and its duplicate can in principle be
/// corrupted consistently, so coverage may drop below 100%.
pub(super) fn multibit(o: &Opts, out: &mut dyn Write) -> io::Result<()> {
    let cfg = o.eval;
    writeln!(
        out,
        "double-fault extension — {} fault pairs/config, {:?} scale",
        cfg.samples, cfg.scale
    )?;
    writeln!(
        out,
        "{:<16}{:>12}{:>14}{:>14}{:>16}",
        "benchmark", "raw 2-SDC", "FERRUM cov.", "single cov.", "FERRUM 2-SDCs"
    )?;
    let mut cov2_sum = 0.0;
    let mut n = 0usize;
    let c = CampaignConfig {
        samples: cfg.samples,
        seed: cfg.seed,
    };
    let techniques = [Technique::None, Technique::Ferrum];
    for_each_workload(&Pipeline::new(), cfg.scale, &techniques, |w, _, built| {
        let (raw_cpu, cpu) = (&built[0].cpu, &built[1].cpu);
        let (raw_profile, profile) = (raw_cpu.profile(), cpu.profile());
        let raw2 = run_double_campaign_on(Engine::Interpreter(raw_cpu), &raw_profile, c);
        let prot2 = run_double_campaign_on(Engine::Interpreter(cpu), &profile, c);
        let raw1 = run_campaign(raw_cpu, &raw_profile, c);
        let prot1 = run_campaign(cpu, &profile, c);
        let cov2 = sdc_coverage(raw2.sdc_prob(), prot2.sdc_prob());
        let cov1 = sdc_coverage(raw1.sdc_prob(), prot1.sdc_prob());
        cov2_sum += cov2;
        n += 1;
        writeln!(
            out,
            "{:<16}{:>11.1}%{:>13.1}%{:>13.1}%{:>16}",
            w.name,
            raw2.sdc_prob() * 100.0,
            cov2 * 100.0,
            cov1 * 100.0,
            prot2.sdc
        )
    })?;
    writeln!(out)?;
    writeln!(
        out,
        "average FERRUM double-fault coverage: {:.2}% (single-fault: 100%)",
        cov2_sum / n as f64 * 100.0
    )?;
    writeln!(out, "a drop below 100% here is expected and motivates the paper's future work")
}

/// Differential-replay forensics across the suite: for every workload
/// and protected technique, replay each residual SDC and tabulate
/// *why* it escaped — the duplicate was corrupted consistently, the
/// corruption was masked before any check, a checker ran blind, or no
/// checker executed at all.  The per-incident companion to the
/// §IV-B1 root-cause table.
pub(super) fn forensics(o: &Opts, out: &mut dyn Write) -> io::Result<()> {
    let cfg = o.eval;
    let fcfg = ForensicConfig {
        max_records: usize::MAX,
        ..ForensicConfig::default()
    };
    fn row<T: Display>(out: &mut dyn Write, name: &str, v: [T; 7]) -> io::Result<()> {
        let [a, b, c, d, e, f, g] = v;
        writeln!(out, "{name:<40}{a:>6}{b:>10}{c:>10}{d:>10}{e:>10}{f:>10}{g:>10}")
    }
    writeln!(out, "escape-reason forensics of residual SDCs (per technique)")?;
    let head = ["SDCs", "dup-corr", "masked", "blind", "no-check", "escaped", "ctl-div"];
    row(out, "benchmark/technique", head)?;
    let mut totals = [0usize; 7];
    let techniques = &Technique::PROTECTED;
    for_each_workload(&Pipeline::new(), cfg.scale, techniques, |w, _, built| {
        for (&technique, b) in techniques.iter().zip(built) {
            let profile = b.cpu.profile();
            let (campaign, report) = run_campaign_forensic_on(
                Engine::Interpreter(&b.cpu),
                &profile,
                CampaignConfig {
                    samples: cfg.samples,
                    seed: cfg.seed,
                },
                &fcfg,
            );
            let count = |r: EscapeReason| {
                report
                    .reason_histogram
                    .iter()
                    .find(|&&(reason, _)| reason == r)
                    .map_or(0, |&(_, n)| n)
            };
            let v = [
                campaign.sdc,
                count(EscapeReason::DupAlsoCorrupted),
                count(EscapeReason::MaskedBeforeCheck),
                count(EscapeReason::CheckerBlind)
                    + count(EscapeReason::BatchFlushedEarly)
                    + count(EscapeReason::DeferredFlagOverwritten),
                count(EscapeReason::CheckerNotReached),
                count(EscapeReason::StoreEscapedWindow),
                count(EscapeReason::ControlFlowDiverged),
            ];
            row(out, &format!("{}/{technique}", w.name), v)?;
            for (t, x) in totals.iter_mut().zip(v) {
                *t += x;
            }
            assert_eq!(
                report.analyzed(),
                report.matching_total,
                "{}/{technique}: every SDC must be analyzed",
                w.name
            );
            assert_eq!(
                report.classified(),
                report.analyzed(),
                "{}/{technique}: every analyzed SDC must be classified",
                w.name
            );
        }
        Ok(())
    })?;
    row(out, "total", totals)?;
    writeln!(out)?;
    writeln!(
        out,
        "classified escapes: {} of {} residual SDCs",
        totals[1..].iter().sum::<usize>(),
        totals[0]
    )
}

const ARM_BITS: [u16; 8] = [0, 1, 3, 7, 15, 31, 47, 63];

/// Exhaustive single-bit sweep over every dynamic site of an A64
/// program: (SDC, detected, crash, benign).
fn arm_sweep(p: &ArmProgram) -> (usize, usize, usize, usize) {
    let (prof, clean) = profile(p);
    let (mut sdc, mut detected, mut crash, mut benign) = (0, 0, 0, 0);
    for &site in &prof.sites {
        for bit in ARM_BITS {
            let r = run(
                p,
                Some(ArmFault {
                    dyn_index: site,
                    raw_bit: bit,
                }),
            );
            match r.outcome {
                ArmOutcome::Detected => detected += 1,
                ArmOutcome::Crash | ArmOutcome::Timeout => crash += 1,
                ArmOutcome::Completed => {
                    if r.x0 != clean.x0 || r.data != clean.data {
                        sdc += 1;
                    } else {
                        benign += 1;
                    }
                }
            }
        }
    }
    (sdc, detected, crash, benign)
}

/// Extension: the AArch64/NEON port (paper §III-B5 future work).  Runs
/// the two A64 kernels raw and FERRUM-NEON-protected, with an
/// exhaustive single-bit fault sweep over every dynamic site.
pub(super) fn arm(_: &Opts, out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "AArch64/NEON port — exhaustive single-bit sweep ({} bits/site)",
        ARM_BITS.len()
    )?;
    writeln!(
        out,
        "{:<22}{:>8}{:>10}{:>8}{:>8}{:>12}{:>12}",
        "kernel", "SDC", "detected", "crash", "benign", "raw cycles", "prot cycles"
    )?;
    let data = vec![12, -5, 33, 7, -19, 4, 28, 1];
    for (name, p) in [
        ("sum_gt", sum_gt(data.clone(), 5)),
        ("scale_add", scale_add(data.clone(), 3)),
    ] {
        let raw_cycles = run(&p, None).cycles;
        let (sdc_raw, _, _, _) = arm_sweep(&p);
        let prot = protect_neon(&p).expect("protects");
        let prot_cycles = run(&prot, None).cycles;
        let (sdc, detected, crash, benign) = arm_sweep(&prot);
        writeln!(
            out,
            "{:<22}{:>8}{:>10}{:>8}{:>8}{:>12}{:>12}",
            format!("{name} (raw SDC {sdc_raw})"),
            sdc,
            detected,
            crash,
            benign,
            raw_cycles,
            prot_cycles
        )?;
        assert_eq!(sdc, 0, "{name}: the NEON port must keep full coverage");
    }
    writeln!(out)?;
    writeln!(out, "A64 notes: three-operand data processing removes every pre-copy replay;")?;
    writeln!(out, "flag-free checkers (eor+cbnz) make deferred detection unnecessary;")?;
    writeln!(out, "two-lane NEON batches tie with scalar checks (wider vectors are the win).")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_largest_seed_wraps_instead_of_overflowing() {
        // The protected campaign uses `seed + 1`; `--seed` is outside input.
        let cfg = EvalConfig {
            samples: 1,
            seed: u64::MAX,
            scale: ferrum::Scale::Test,
            ..EvalConfig::default()
        };
        suite_average(&Pipeline::new(), cfg).expect("runs");
    }
}
