//! Cross-validation of `ferrum-lint` against injection ground truth.
//!
//! Two halves, mirroring the acceptance criteria of the static
//! soundness layer (DESIGN.md):
//!
//! 1. **Stock output is clean**: the lint reports zero findings on
//!    FERRUM- (normal and forced-requisition) and hybrid-protected
//!    output for every workload in the catalog.
//! 2. **Mutations are caught twice**: for each seeded mutation class the
//!    lint reports a finding at the mutated site *and* the snapshot
//!    campaign engine observes an SDC (or a detection gap) that stock
//!    protection does not have — tying the static verdict to dynamic
//!    ground truth.

use ferrum_asm::analysis::lint::{lint_program, lint_program_with, LintContract};
use ferrum_asm::program::AsmProgram;
use ferrum_cpu::run::Cpu;
use ferrum_eddi::ferrum::{Ferrum, FerrumConfig};
use ferrum_eddi::hybrid::HybridAsmEddi;
use ferrum_faultsim::campaign::exhaustive_campaign_on;
use ferrum_faultsim::crossval::{apply_mutation, count_mutation_sites, MutationKind};
use ferrum_faultsim::Engine;
use ferrum_workloads::catalog::{all_workloads, Scale};

fn ferrum_protect(m: &ferrum_mir::module::Module) -> AsmProgram {
    Ferrum::new().protect_module(m).expect("ferrum protects")
}

fn requisition_protect(m: &ferrum_mir::module::Module) -> AsmProgram {
    let asm = ferrum_backend::compile(m).expect("compiles");
    let cfg = FerrumConfig {
        force_requisition: true,
        ..FerrumConfig::default()
    };
    Ferrum::with_config(cfg).protect(&asm).expect("protects")
}

fn hybrid_protect(m: &ferrum_mir::module::Module) -> AsmProgram {
    HybridAsmEddi::new().protect(m).expect("hybrid protects")
}

fn assert_clean(asm: &AsmProgram, what: &str) {
    let rep = lint_program(asm);
    assert!(
        rep.is_clean(),
        "{what}: expected clean lint, got {} finding(s); first: {:#?}",
        rep.findings.len(),
        rep.findings.first()
    );
}

#[test]
fn stock_ferrum_output_is_lint_clean() {
    for w in all_workloads() {
        let m = w.build(Scale::Test);
        let prot = ferrum_protect(&m);
        let rep = lint_program(&prot);
        assert!(rep.insts_scanned > 0, "{}: lint scanned nothing", w.name);
        assert!(
            rep.is_clean(),
            "ferrum/{}: {} finding(s); first: {:#?}",
            w.name,
            rep.findings.len(),
            rep.findings.first()
        );
    }
}

#[test]
fn stock_requisition_output_is_lint_clean() {
    for w in all_workloads() {
        let m = w.build(Scale::Test);
        assert_clean(&requisition_protect(&m), &format!("requisition/{}", w.name));
    }
}

#[test]
fn stock_hybrid_output_is_lint_clean() {
    for w in all_workloads() {
        let m = w.build(Scale::Test);
        assert_clean(&hybrid_protect(&m), &format!("hybrid/{}", w.name));
    }
}

/// The pass-emitted manifest is verified, not trusted: stock output
/// stays clean under manifest-driven linting in both register modes,
/// and a seeded original-code write to a reserved register — invisible
/// to shape inference alone — is flagged.
#[test]
fn manifest_driven_lint_is_clean_and_catches_reservation_violations() {
    use ferrum_asm::inst::Inst;
    use ferrum_asm::operand::Operand;
    use ferrum_asm::program::AsmInst;
    use ferrum_asm::provenance::Provenance;
    use ferrum_asm::reg::{Reg, Width};

    for w in all_workloads() {
        let m = w.build(Scale::Test);
        let asm = ferrum_backend::compile(&m).expect("compiles");
        let (prot, manifests) = Ferrum::new().protect_with_manifest(&asm).expect("protects");
        let rep = lint_program_with(&prot, &manifests);
        assert!(
            rep.is_clean(),
            "manifest/{}: {} finding(s); first: {:#?}",
            w.name,
            rep.findings.len(),
            rep.findings.first()
        );

        // Requisition mode reserves nothing function-wide; its manifest
        // must say so, and stays clean too.
        let cfg = FerrumConfig {
            force_requisition: true,
            ..FerrumConfig::default()
        };
        let (rprot, rmanifests) = Ferrum::with_config(cfg)
            .protect_with_manifest(&asm)
            .expect("protects");
        assert!(rmanifests.values().all(|mf| mf.reserved_gprs.is_empty()));
        let rrep = lint_program_with(&rprot, &rmanifests);
        assert!(rrep.is_clean(), "manifest-req/{}: not clean", w.name);

        // Seed a reservation violation in one normal-mode function.
        let Some((fi, mf)) = prot
            .functions
            .iter()
            .enumerate()
            .find_map(|(fi, f)| {
                let mf = manifests.get(&f.name)?;
                (!mf.reserved_gprs.is_empty()).then_some((fi, mf))
            })
        else {
            continue; // every function requisitions: nothing to violate
        };
        let mut bad = prot.clone();
        let g = mf.reserved_gprs[0];
        bad.functions[fi].blocks[0].insts.insert(
            0,
            AsmInst::new(
                Inst::Mov {
                    w: Width::W64,
                    src: Operand::Imm(0),
                    dst: Operand::Reg(Reg::q(g)),
                },
                Provenance::FromIr(0),
            ),
        );
        let bad_rep = lint_program_with(&bad, &manifests);
        assert!(
            bad_rep
                .findings
                .iter()
                .any(|f| f.contract == LintContract::CheckedSync
                    && f.explanation.contains("reserved")),
            "manifest/{}: seeded write to reserved {g:?} not flagged",
            w.name
        );
    }
}

// ---------------------------------------------------------------------
// Mutation cross-validation: static verdict vs. injection ground truth.
// ---------------------------------------------------------------------

use ferrum_mir::builder::FunctionBuilder;
use ferrum_mir::inst::ICmpPred;
use ferrum_mir::module::{Global, Module};
use ferrum_mir::types::Ty;

/// A compact kernel with all the protection shapes the mutations
/// target: back-to-back loads (SIMD batch pairs), data-dependent
/// branches (deferred flag pairs + spliced rechecks), and a division
/// (checker-dense scalar idiom).  Small enough that an exhaustive
/// campaign over every mutant site stays fast.
fn kernel() -> Module {
    let mut module = Module::new();
    let g = module.add_global(Global::new("tab", vec![5, -3, 8, -1]));
    let mut b = FunctionBuilder::new("main", &[], None);
    let header = b.create_block("header");
    let body = b.create_block("body");
    let neg = b.create_block("neg");
    let join = b.create_block("join");
    let exit = b.create_block("exit");
    let base = b.global(g);
    let pi = b.alloca(Ty::I64);
    let ps = b.alloca(Ty::I64);
    let zero = b.iconst(Ty::I64, 0);
    b.store(Ty::I64, zero, pi);
    b.store(Ty::I64, zero, ps);
    b.jmp(header);
    b.switch_to(header);
    let i = b.load(Ty::I64, pi);
    let n = b.iconst(Ty::I64, 4);
    let c = b.icmp(ICmpPred::Slt, Ty::I64, i, n);
    b.br(c, body, exit);
    b.switch_to(body);
    let i2 = b.load(Ty::I64, pi);
    let p = b.gep(base, i2);
    let v = b.load(Ty::I64, p);
    let isneg = b.icmp(ICmpPred::Slt, Ty::I64, v, zero);
    b.br(isneg, neg, join);
    b.switch_to(neg);
    let sq = b.mul(Ty::I64, v, v);
    let s0 = b.load(Ty::I64, ps);
    let s1 = b.add(Ty::I64, s0, sq);
    b.store(Ty::I64, s1, ps);
    b.jmp(join);
    b.switch_to(join);
    let s2 = b.load(Ty::I64, ps);
    let d = b.iconst(Ty::I64, 3);
    let q = b.sdiv(Ty::I64, v, d);
    let s3 = b.add(Ty::I64, s2, q);
    b.store(Ty::I64, s3, ps);
    let one = b.iconst(Ty::I64, 1);
    let i3 = b.add(Ty::I64, i2, one);
    b.store(Ty::I64, i3, pi);
    b.jmp(header);
    b.switch_to(exit);
    let r = b.load(Ty::I64, ps);
    b.print(r);
    b.ret(None);
    module.functions.push(b.finish());
    module
}

/// Runs an exhaustive campaign on `asm`; returns the SDC count, or
/// `None` when the fault-free run no longer completes (a mutation that
/// perturbs clean behaviour — skipped, since no golden output exists).
fn sdc_count(asm: &AsmProgram) -> Option<usize> {
    let cpu = Cpu::load(asm).ok()?;
    let profile = cpu.profile();
    if profile.result.stop != ferrum_cpu::outcome::StopReason::MainReturned {
        return None;
    }
    let res = exhaustive_campaign_on(Engine::Interpreter(&cpu), &profile, 4);
    Some(res.sdc)
}

/// For each applicable site of `kind`: the stock program is lint-clean
/// and SDC-free, and at least one mutant both (a) draws a lint finding
/// of `expected` in the mutated function and (b) shows SDCs under
/// exhaustive injection — the same weakened site caught statically and
/// dynamically.
/// `same_block`: whether the witness finding must sit in the mutated
/// block.  Checker and batch mutations manifest at the weakened site
/// itself; a skipped edge recheck manifests wherever the unresolved
/// flag pair is later clobbered or reaches a return — possibly a
/// successor block — with the finding's explanation naming the
/// originating compare.
fn assert_mutation_cross_validates(kind: MutationKind, expected: LintContract, same_block: bool) {
    let stock = ferrum_protect(&kernel());
    assert_clean(&stock, &format!("{}/stock", kind.name()));
    assert_eq!(
        sdc_count(&stock),
        Some(0),
        "{}: stock kernel must be SDC-free",
        kind.name()
    );

    let n = count_mutation_sites(&stock, kind);
    assert!(n > 0, "{}: kernel exposes no mutation sites", kind.name());

    // `cross_validated` needs one mutant where the campaign sees SDCs
    // and the lint reports the `expected` contract in the mutated block
    // — the same weakened site caught by both verdicts.  Independently,
    // *no* SDC-producing mutant may escape the lint entirely (any
    // contract: dropping a drain checker is a batch-integrity defect,
    // dropping a red-zone checker a requisition defect, and so on).
    let mut cross_validated = false;
    for k in 0..n {
        let (mutant, site) = apply_mutation(&stock, kind, k).expect("site in range");
        let rep = lint_program(&mutant);
        let in_function: Vec<_> = rep
            .findings
            .iter()
            .filter(|f| f.function == site.function)
            .collect();
        let at_site = in_function
            .iter()
            .any(|f| f.contract == expected && (!same_block || f.block == site.block));
        if let Some(s) = sdc_count(&mutant) {
            if s > 0 {
                assert!(
                    !in_function.is_empty(),
                    "{} site {k} ({}/{}): campaign sees {s} SDC(s) but lint is silent",
                    kind.name(),
                    site.block,
                    site.description
                );
                if at_site {
                    cross_validated = true;
                }
            }
        }
    }
    assert!(
        cross_validated,
        "{}: no mutant produced both a lint `{:?}` finding at the mutated \
         site and campaign SDCs",
        kind.name(),
        expected
    );
}

#[test]
fn dropped_checker_is_caught_statically_and_dynamically() {
    assert_mutation_cross_validates(MutationKind::DropChecker, LintContract::CheckedSync, true);
}

#[test]
fn reused_batch_slot_is_caught_statically_and_dynamically() {
    assert_mutation_cross_validates(
        MutationKind::ReuseBatchSlot,
        LintContract::BatchIntegrity,
        true,
    );
}

#[test]
fn skipped_edge_recheck_is_caught_statically_and_dynamically() {
    assert_mutation_cross_validates(
        MutationKind::SkipEdgeRecheck,
        LintContract::DeferredFlags,
        false,
    );
}
