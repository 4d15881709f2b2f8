//! Root-cause attribution of silent data corruptions (paper §IV-B1).
//!
//! The paper identifies two main reasons IR-level EDDI loses coverage at
//! assembly level: backend-generated fault sites (store staging, branch
//! materialisation, call glue) and IR-level protections that become
//! ineffective after lowering.  Because every instruction carries a
//! provenance tag, we can attribute each SDC-producing fault directly.

use std::collections::BTreeMap;

use ferrum_asm::provenance::{GlueKind, Provenance};
use ferrum_cpu::run::{Cpu, Profile};

use crate::campaign::{CampaignResult, Outcome};

/// SDC counts by the provenance class of the faulted instruction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RootCauseReport {
    /// SDCs whose fault hit an instruction lowered from an IR
    /// instruction.
    pub from_ir: usize,
    /// SDCs in backend glue, by kind.
    pub glue: BTreeMap<&'static str, usize>,
    /// SDCs in protection-inserted code (must stay zero for sound
    /// techniques).
    pub protection: usize,
    /// SDCs in synthetic/hand-written code.
    pub synthetic: usize,
    /// Total SDCs attributed.
    pub total_sdc: usize,
}

impl RootCauseReport {
    /// Total SDCs attributed to backend glue of any kind.
    pub fn glue_total(&self) -> usize {
        self.glue.values().sum()
    }
}

/// Attributes every SDC in `result` to the provenance of the faulted
/// dynamic instruction.
///
/// The attribution replays the site lookup from the profile: each
/// record's `dyn_index` identifies the faulted instruction, whose
/// provenance was captured during profiling.
pub fn attribute_sdcs(_cpu: &Cpu, profile: &Profile, result: &CampaignResult) -> RootCauseReport {
    let mut by_index: BTreeMap<u64, Provenance> = BTreeMap::new();
    for s in &profile.sites {
        by_index.insert(s.dyn_index, s.prov);
    }
    let mut report = RootCauseReport::default();
    for (fault, outcome) in &result.records {
        if *outcome != Outcome::Sdc {
            continue;
        }
        report.total_sdc += 1;
        match by_index.get(&fault.dyn_index) {
            Some(Provenance::FromIr(_)) => report.from_ir += 1,
            Some(Provenance::Glue(k)) => {
                *report.glue.entry(k.label()).or_insert(0) += 1;
            }
            Some(Provenance::Protection(..)) => report.protection += 1,
            Some(Provenance::Synthetic) | None => report.synthetic += 1,
        }
    }
    report
}

/// SDC rates split by destination kind — quantifies the paper's Fig. 9
/// motivation: flag-register faults after backend-materialised
/// comparisons are a real silent-corruption source.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KindBreakdown {
    /// Faults into RFLAGS destinations.
    pub flag_faults: usize,
    /// ... of which were SDCs.
    pub flag_sdcs: usize,
    /// Faults into register destinations.
    pub reg_faults: usize,
    /// ... of which were SDCs.
    pub reg_sdcs: usize,
}

impl KindBreakdown {
    /// SDC probability of flag-destination faults.
    pub fn flag_sdc_rate(&self) -> f64 {
        if self.flag_faults == 0 {
            0.0
        } else {
            self.flag_sdcs as f64 / self.flag_faults as f64
        }
    }
}

/// Splits campaign outcomes by whether the fault targeted RFLAGS.
pub fn breakdown_by_kind(profile: &Profile, result: &CampaignResult) -> KindBreakdown {
    let mut by_index: BTreeMap<u64, bool> = BTreeMap::new();
    for s in &profile.sites {
        by_index.insert(s.dyn_index, s.is_flags);
    }
    let mut out = KindBreakdown::default();
    for (fault, outcome) in &result.records {
        let is_flags = by_index.get(&fault.dyn_index).copied().unwrap_or(false);
        let sdc = *outcome == Outcome::Sdc;
        if is_flags {
            out.flag_faults += 1;
            out.flag_sdcs += usize::from(sdc);
        } else {
            out.reg_faults += 1;
            out.reg_sdcs += usize::from(sdc);
        }
    }
    out
}

/// Renders the report as aligned text (the `coverage_gap` example prints it).
pub fn render(report: &RootCauseReport) -> String {
    let mut out = String::new();
    out.push_str(&format!("{:<24}{:>8}\n", "fault provenance", "SDCs"));
    out.push_str(&format!("{:<24}{:>8}\n", "lowered-from-IR", report.from_ir));
    for kind in GlueKind::ALL {
        let n = report.glue.get(kind.label()).copied().unwrap_or(0);
        out.push_str(&format!(
            "{:<24}{:>8}\n",
            format!("glue:{}", kind.label()),
            n
        ));
    }
    out.push_str(&format!(
        "{:<24}{:>8}\n",
        "protection-code", report.protection
    ));
    out.push_str(&format!("{:<24}{:>8}\n", "synthetic", report.synthetic));
    out.push_str(&format!("{:<24}{:>8}\n", "total", report.total_sdc));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, CampaignConfig};
    use ferrum_mir::builder::FunctionBuilder;
    use ferrum_mir::module::{Global, Module};
    use ferrum_mir::types::Ty;

    fn store_heavy_module() -> Module {
        // Stores dominated by staging glue: the classic IR-EDDI residue.
        let mut module = Module::new();
        let g = module.add_global(Global::zeroed("out", 8));
        let mut b = FunctionBuilder::new("main", &[], None);
        let base = b.global(g);
        for i in 0..8 {
            let idx = b.iconst(Ty::I64, i);
            let p = b.gep(base, idx);
            let c = b.iconst(Ty::I64, i * 3 + 1);
            let v = b.mul(Ty::I64, c, c);
            b.store(Ty::I64, v, p);
        }
        let mut acc = b.iconst(Ty::I64, 0);
        for i in 0..8 {
            let idx = b.iconst(Ty::I64, i);
            let p = b.gep(base, idx);
            let v = b.load(Ty::I64, p);
            acc = b.add(Ty::I64, acc, v);
        }
        b.print(acc);
        b.ret(None);
        module.functions.push(b.finish());
        module
    }

    #[test]
    fn ir_eddi_sdcs_are_dominated_by_glue() {
        let m = store_heavy_module();
        let prot = ferrum_eddi::ir_eddi::IrEddi::new().protect(&m);
        let asm = ferrum_backend::compile(&prot).unwrap();
        let cpu = Cpu::load(&asm).unwrap();
        let profile = cpu.profile();
        let res = run_campaign(
            &cpu,
            &profile,
            CampaignConfig {
                samples: 1500,
                seed: 11,
            },
        );
        let report = attribute_sdcs(&cpu, &profile, &res);
        assert_eq!(report.total_sdc, res.sdc);
        assert!(report.total_sdc > 0, "IR-EDDI must leak on store staging");
        assert!(
            report.glue_total() > report.from_ir,
            "residual SDCs should concentrate in backend glue: {report:?}"
        );
        assert_eq!(report.protection, 0);
    }

    #[test]
    fn flag_faults_cause_sdcs_in_raw_branchy_programs() {
        use ferrum_mir::inst::ICmpPred;
        // A branch whose direction decides the output: flag faults flip
        // it silently (the paper's Fig. 9 scenario).
        let mut b = ferrum_mir::builder::FunctionBuilder::new("main", &[], None);
        let t = b.create_block("t");
        let e = b.create_block("e");
        let x = b.iconst(Ty::I64, 3);
        let y = b.iconst(Ty::I64, 5);
        let c = b.icmp(ICmpPred::Slt, Ty::I64, x, y);
        b.br(c, t, e);
        b.switch_to(t);
        let one = b.iconst(Ty::I64, 111);
        b.print(one);
        b.ret(None);
        b.switch_to(e);
        let two = b.iconst(Ty::I64, 222);
        b.print(two);
        b.ret(None);
        let m = Module::from_functions(vec![b.finish()]);
        let asm = ferrum_backend::compile(&m).unwrap();
        let cpu = Cpu::load(&asm).unwrap();
        let profile = cpu.profile();
        let res =
            crate::campaign::exhaustive_campaign_on(crate::Engine::Interpreter(&cpu), &profile, 4);
        let kinds = breakdown_by_kind(&profile, &res);
        assert!(kinds.flag_faults > 0, "cmp/test sites must exist");
        assert!(
            kinds.flag_sdc_rate() > 0.0,
            "wrong-direction branches must corrupt silently: {kinds:?}"
        );
    }

    #[test]
    fn rendered_report_lists_all_kinds() {
        let report = RootCauseReport {
            from_ir: 2,
            glue: [("store-staging", 5)].into_iter().collect(),
            protection: 0,
            synthetic: 0,
            total_sdc: 7,
        };
        let text = render(&report);
        assert!(text.contains("store-staging"));
        assert!(text.contains("branch-materialize"));
        assert!(text.contains("total"));
        assert!(text.lines().count() >= 10);
    }
}
