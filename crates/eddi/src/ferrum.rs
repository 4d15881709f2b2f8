//! FERRUM — SIMD-boosted assembly-level EDDI (paper §III).
//!
//! For each function the pass first performs static code analysis
//! (§III-B1): a register-usage scan finds spare general-purpose and XMM
//! registers, and every instruction is annotated as SIMD-ENABLED,
//! GENERAL, or a comparison.  Protection then proceeds block by block:
//!
//! * **SIMD-ENABLED** instructions accumulate into a batch (Fig. 6): the
//!   duplicate executes *first* as a single move into a spare XMM
//!   register, the original result is captured into the paired XMM
//!   register, and once four results (or a flush point — any flags
//!   writer, control transfer, or block end) arrive, two `vinserti128`
//!   widen the accumulators into YMM registers and one `vpxor` +
//!   `vptest` + `jne exit_function` checks all four at once.  Batches of
//!   one or two entries are checked with the 128-bit forms.
//! * **GENERAL** instructions use the scalar idioms of
//!   [`crate::scalar`] (Fig. 4).
//! * **Comparisons** use *deferred detection* (Fig. 5): a `setcc` pair
//!   captures the original and duplicated flag results into the two
//!   reserved comparison registers; the pair is compared (with a
//!   non-flag-destroying `cmpb`) on the branch fall-through and at the
//!   start of every branch target — never between the comparison and
//!   its consumer, where a check would destroy the very flags being
//!   protected.
//! * When spare registers run short (or
//!   [`FerrumConfig::force_requisition`] is set), the pass switches to
//!   **stack-level data redundancy** (Fig. 7): per block, three
//!   registers unused inside that block are pushed on entry and popped
//!   (with a red-zone verification of the popped value) on every exit;
//!   branch-target pair checks move into per-edge stub blocks so the
//!   requisitioned registers are restored on both paths.
//!
//! The backend's peephole pass runs first as the paper's "other
//! compiler-level transformations".

use std::collections::{BTreeMap, BTreeSet};

use ferrum_asm::analysis::lint::ProtectionManifest;
use ferrum_asm::flags::Cc;
use ferrum_asm::inst::{DestClass, Inst};
use ferrum_asm::operand::{MemRef, Operand};
use ferrum_asm::program::{AsmBlock, AsmFunction, AsmInst, AsmProgram, Label};
use ferrum_asm::provenance::{Mechanism, Provenance, TechniqueTag};
use ferrum_asm::reg::{Gpr, Reg, Width, Xmm, Ymm, Zmm};
use ferrum_backend::peephole::{self, PeepholeStats};
use ferrum_mir::module::Module;

use crate::annotate::{annotate, flags_consumer, flags_live_at, Annotation};
use crate::scalar::protect_general;
use crate::PassError;

const TAG: TechniqueTag = TechniqueTag::Ferrum;

/// Reports the protected program's static per-mechanism instruction
/// counts through `ferrum-trace` (inert without a sink installed).
fn emit_static_mechanism_counters(p: &AsmProgram) {
    if !ferrum_trace::enabled() {
        return;
    }
    // Counter names are static, so enumerate rather than format.
    fn name(m: Mechanism) -> &'static str {
        match m {
            Mechanism::Dup => "ferrum.static.dup",
            Mechanism::Check => "ferrum.static.check",
            Mechanism::BatchCapture => "ferrum.static.batch-capture",
            Mechanism::BatchFlush => "ferrum.static.batch-flush",
            Mechanism::FlagDup => "ferrum.static.flag-dup",
            Mechanism::FlagRecheck => "ferrum.static.flag-recheck",
            Mechanism::Requisition => "ferrum.static.requisition",
        }
    }
    let mut counts = [0u64; Mechanism::ALL.len()];
    for f in &p.functions {
        for a in f.insts() {
            if let Some(m) = a.prov.mechanism() {
                counts[m as usize] += 1;
            }
        }
    }
    for m in Mechanism::ALL {
        ferrum_trace::counter(name(m), counts[m as usize]);
    }
}

/// Configuration knobs (all enabled by default; individual mechanisms
/// can be switched off for the ablation benchmarks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FerrumConfig {
    /// Batch SIMD-ENABLED duplicates in XMM/YMM registers (Fig. 6).
    pub simd: bool,
    /// Protect `cmp`/`test` with deferred flag detection (Fig. 5).
    /// Disabling this leaves flags faults uncovered (coverage ablation).
    pub deferred_flags: bool,
    /// Run the backend peephole pass first ("compiler-level
    /// transformations").
    pub peephole: bool,
    /// Pretend no function-wide spare GPRs exist, forcing the
    /// stack-requisition path of Fig. 7 everywhere.
    pub force_requisition: bool,
    /// Percentage of protectable sites actually protected (default
    /// 100).  Values below 100 give *selective* protection in the
    /// spirit of the paper's related work (SDCTune \[9\], selective
    /// duplication \[19\]): sites are chosen by deterministic striping,
    /// trading coverage for overhead.  Applies to the normal protection
    /// path; the stack-requisition path always protects fully.  The
    /// `ferrum-repro selective` experiment sweeps this.
    pub selective_percent: u8,
    /// Use AVX-512 ZMM accumulators: batches of **eight** results
    /// checked by one `vpxorq`/`vptestq` (paper §III-B3: "it is also
    /// viable to leverage ZMM registers in our design, ... only part of
    /// high-performance processors from Intel supports ZMM").  Requires
    /// eight spare XMM registers; off by default to model the common
    /// AVX2-only machine.
    pub zmm: bool,
}

impl Default for FerrumConfig {
    fn default() -> FerrumConfig {
        FerrumConfig {
            simd: true,
            deferred_flags: true,
            peephole: true,
            force_requisition: false,
            selective_percent: 100,
            zmm: false,
        }
    }
}

/// What the pass did (reported by the benches and the execution-time
/// experiment).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FerrumStats {
    /// Instructions protected through SIMD batches.
    pub simd_protected: usize,
    /// Instructions protected with scalar duplication and an immediate
    /// scalar check.
    pub general_protected: usize,
    /// GENERAL instructions whose scalar duplicates were checked through
    /// the SIMD batch instead of an immediate `xor`+`jne`.
    pub general_batched: usize,
    /// Comparisons protected with deferred detection.
    pub compares_protected: usize,
    /// Blocks that needed stack-level requisition.
    pub requisitioned_blocks: usize,
    /// What the peephole prepass removed.
    pub peephole: PeepholeStats,
}

/// The FERRUM pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ferrum {
    cfg: FerrumConfig,
}

impl Ferrum {
    /// FERRUM with everything enabled.
    pub fn new() -> Ferrum {
        Ferrum {
            cfg: FerrumConfig::default(),
        }
    }

    /// FERRUM with explicit configuration.
    pub fn with_config(cfg: FerrumConfig) -> Ferrum {
        Ferrum { cfg }
    }

    /// The active configuration.
    pub fn config(&self) -> FerrumConfig {
        self.cfg
    }

    /// Protects an assembly program.
    ///
    /// # Errors
    ///
    /// [`PassError`] on unsupported input shapes (pre-existing SIMD or
    /// protection code, non-adjacent flag consumers) or register
    /// exhaustion.
    pub fn protect(&self, p: &AsmProgram) -> Result<AsmProgram, PassError> {
        self.protect_with_stats(p).map(|(p, _)| p)
    }

    /// Protects and reports statistics.
    ///
    /// # Errors
    ///
    /// See [`Ferrum::protect`].
    pub fn protect_with_stats(
        &self,
        p: &AsmProgram,
    ) -> Result<(AsmProgram, FerrumStats), PassError> {
        let _span = ferrum_trace::span("eddi.ferrum.protect");
        let mut out = p.clone();
        let mut stats = FerrumStats::default();
        if self.cfg.peephole {
            stats.peephole = peephole::run(&mut out);
        }
        for f in &mut out.functions {
            protect_function(f, self.cfg, &mut stats)?;
        }
        emit_static_mechanism_counters(&out);
        Ok((out, stats))
    }

    /// Convenience: compile a MIR module and protect it.
    ///
    /// # Errors
    ///
    /// Backend failures surface as [`PassError::Invalid`].
    pub fn protect_module(&self, m: &Module) -> Result<AsmProgram, PassError> {
        self.protect_module_opt(m, ferrum_backend::OptLevel::O0)
    }

    /// [`Ferrum::protect_module`] compiling at the given optimization
    /// level.  FERRUM protects the *optimized* output, so its coverage
    /// is independent of the level.
    ///
    /// # Errors
    ///
    /// Backend failures surface as [`PassError::Invalid`].
    pub fn protect_module_opt(
        &self,
        m: &Module,
        opt: ferrum_backend::OptLevel,
    ) -> Result<AsmProgram, PassError> {
        let asm =
            ferrum_backend::compile_opt(m, opt).map_err(|e| PassError::Invalid(e.to_string()))?;
        self.protect(&asm)
    }

    /// Protects and additionally emits a per-function
    /// [`ProtectionManifest`] — the checker metadata the static lint
    /// (`ferrum_asm::analysis::lint`) verifies the output against:
    /// which GPRs the pass reserved function-wide (empty when the
    /// function fell back to stack requisition) and which XMM registers
    /// serve as batch accumulators.
    ///
    /// # Errors
    ///
    /// See [`Ferrum::protect`].
    pub fn protect_with_manifest(
        &self,
        p: &AsmProgram,
    ) -> Result<(AsmProgram, BTreeMap<String, ProtectionManifest>), PassError> {
        let mut out = p.clone();
        let mut stats = FerrumStats::default();
        if self.cfg.peephole {
            stats.peephole = peephole::run(&mut out);
        }
        let mut manifests = BTreeMap::new();
        for f in &mut out.functions {
            // `pick_regs` is deterministic on the (peepholed) input, so
            // the manifest records exactly what `protect_function` uses.
            let (gprs, xmm) = pick_regs(f, self.cfg);
            manifests.insert(
                f.name.clone(),
                ProtectionManifest {
                    reserved_gprs: gprs.map(|g| g.to_vec()).unwrap_or_default(),
                    accumulators: xmm.iter().map(|x| x.0).collect(),
                },
            );
            protect_function(f, self.cfg, &mut stats)?;
        }
        Ok((out, manifests))
    }
}

/// Spare registers FERRUM reserves in normal (non-requisition) mode:
/// one scalar scratch plus the two comparison-pair registers (§III-B1;
/// our engineering uses three dedicated GPRs — see DESIGN.md).
const NEEDED_GPRS: usize = 3;
/// XMM registers needed for SIMD batching (§III-B1: "4 spare XMM").
const NEEDED_XMM: usize = 4;
/// XMM registers needed for ZMM-mode batching (eight accumulators).
const NEEDED_XMM_ZMM: usize = 8;

struct Regs {
    scratch: Gpr,
    pair: (Gpr, Gpr),
    /// Batch accumulators: empty (SIMD off / too few spares), four
    /// (YMM mode), or eight (ZMM mode).
    xmm: Vec<Xmm>,
}

/// The SIMD duplication batch (Fig. 6, and its §III-B3 ZMM variant).
struct Batch {
    /// Accumulators, alternating duplicate/original; length 0, 4, or 8.
    regs: Vec<Xmm>,
    count: usize,
}

impl Batch {
    fn new(regs: Vec<Xmm>) -> Batch {
        Batch { regs, count: 0 }
    }

    fn enabled(&self) -> bool {
        !self.regs.is_empty()
    }

    fn capacity(&self) -> usize {
        self.regs.len()
    }

    /// Adds one SIMD-ENABLED `mov` to the batch: duplicate first, then
    /// the original, then capture the original's result.
    fn add(&mut self, ai: &AsmInst, out: &mut Vec<AsmInst>) {
        let (src, dst) = match &ai.inst {
            Inst::Mov {
                w: Width::W64,
                src,
                dst: Operand::Reg(r),
            } => (src.clone(), r.gpr),
            other => unreachable!("not SIMD-enabled: {other:?}"),
        };
        let pair = self.count / 2;
        let lane = (self.count % 2) as u8;
        let dup_x = self.regs[pair * 2];
        let orig_x = self.regs[pair * 2 + 1];
        let dup = if lane == 0 {
            Inst::MovqToXmm {
                src: src.clone(),
                dst: dup_x,
            }
        } else {
            Inst::Pinsrq {
                lane,
                src,
                dst: dup_x,
            }
        };
        out.push(AsmInst::new(dup, Provenance::Protection(TAG, Mechanism::Dup)));
        out.push(ai.clone());
        let cap_src = Operand::Reg(Reg::q(dst));
        let cap = if lane == 0 {
            Inst::MovqToXmm {
                src: cap_src,
                dst: orig_x,
            }
        } else {
            Inst::Pinsrq {
                lane,
                src: cap_src,
                dst: orig_x,
            }
        };
        out.push(AsmInst::new(cap, Provenance::Protection(TAG, Mechanism::BatchCapture)));
        self.count += 1;
        if self.count == self.capacity() {
            self.flush(out);
        }
    }

    /// Captures a scalar duplicate/original register pair into the batch
    /// (the GENERAL-instruction variant of Fig. 6: the duplication is
    /// scalar, the comparison is batched).
    fn add_pair(&mut self, dup: Gpr, orig: Gpr, out: &mut Vec<AsmInst>) {
        let pair = self.count / 2;
        let lane = (self.count % 2) as u8;
        let dup_x = self.regs[pair * 2];
        let orig_x = self.regs[pair * 2 + 1];
        for (g, x) in [(dup, dup_x), (orig, orig_x)] {
            let src = Operand::Reg(Reg::q(g));
            let cap = if lane == 0 {
                Inst::MovqToXmm { src, dst: x }
            } else {
                Inst::Pinsrq { lane, src, dst: x }
            };
            out.push(AsmInst::new(cap, Provenance::Protection(TAG, Mechanism::BatchCapture)));
        }
        self.count += 1;
        if self.count == self.capacity() {
            self.flush(out);
        }
    }

    /// Emits the batched check (Fig. 6 / §III-B3) and resets the batch:
    /// 128-bit forms for one or two entries, 256-bit `vinserti128` +
    /// `vpxor`/`vptest` for up to four, and in ZMM mode 512-bit
    /// `vinserti64x4` + `vpxorq`/`vptestq` for up to eight.
    fn flush(&mut self, out: &mut Vec<AsmInst>) {
        if !self.enabled() {
            return;
        }
        let regs = &self.regs;
        let prot = |i: Inst| AsmInst::new(i, Provenance::Protection(TAG, Mechanism::BatchFlush));
        match self.count {
            0 => return,
            1 | 2 => {
                out.push(prot(Inst::Vpxor128 {
                    a: regs[1],
                    b: regs[0],
                    dst: regs[0],
                }));
                out.push(prot(Inst::Vptest128 {
                    a: regs[0],
                    b: regs[0],
                }));
            }
            3 | 4 => {
                let ydup = Ymm::new(regs[0].0);
                let yorig = Ymm::new(regs[1].0);
                out.push(prot(Inst::Vinserti128 {
                    lane: 1,
                    src: regs[2],
                    src2: ydup,
                    dst: ydup,
                }));
                out.push(prot(Inst::Vinserti128 {
                    lane: 1,
                    src: regs[3],
                    src2: yorig,
                    dst: yorig,
                }));
                out.push(prot(Inst::Vpxor {
                    a: yorig,
                    b: ydup,
                    dst: ydup,
                }));
                out.push(prot(Inst::Vptest { a: ydup, b: ydup }));
            }
            _ => {
                // ZMM mode.  Widen each side's four accumulators into a
                // ZMM register.  Accumulators beyond `count` still hold
                // an equal (duplicate, original) pair from an earlier
                // checked batch (or their initial zeroes), so comparing
                // them again is harmless.
                let ydup = Ymm::new(regs[0].0);
                let yorig = Ymm::new(regs[1].0);
                let ydup_hi = Ymm::new(regs[4].0);
                let yorig_hi = Ymm::new(regs[5].0);
                let zdup = Zmm::new(regs[0].0);
                let zorig = Zmm::new(regs[1].0);
                out.push(prot(Inst::Vinserti128 {
                    lane: 1,
                    src: regs[2],
                    src2: ydup,
                    dst: ydup,
                }));
                out.push(prot(Inst::Vinserti128 {
                    lane: 1,
                    src: regs[3],
                    src2: yorig,
                    dst: yorig,
                }));
                out.push(prot(Inst::Vinserti128 {
                    lane: 1,
                    src: regs[6],
                    src2: ydup_hi,
                    dst: ydup_hi,
                }));
                out.push(prot(Inst::Vinserti128 {
                    lane: 1,
                    src: regs[7],
                    src2: yorig_hi,
                    dst: yorig_hi,
                }));
                out.push(prot(Inst::Vinserti64x4 {
                    lane: 1,
                    src: ydup_hi,
                    src2: zdup,
                    dst: zdup,
                }));
                out.push(prot(Inst::Vinserti64x4 {
                    lane: 1,
                    src: yorig_hi,
                    src2: zorig,
                    dst: zorig,
                }));
                out.push(prot(Inst::Vpxor512 {
                    a: zorig,
                    b: zdup,
                    dst: zdup,
                }));
                out.push(prot(Inst::Vptest512 { a: zdup, b: zdup }));
            }
        }
        out.push(prot(Inst::Jcc {
            cc: Cc::Ne,
            target: ferrum_asm::EXIT_FUNCTION.into(),
        }));
        self.count = 0;
    }
}

fn prot(m: Mechanism, i: Inst) -> AsmInst {
    AsmInst::new(i, Provenance::Protection(TAG, m))
}

fn pair_check(pair: (Gpr, Gpr), out: &mut Vec<AsmInst>) {
    out.push(prot(
        Mechanism::FlagRecheck,
        Inst::Cmp {
            w: Width::W8,
            src: Operand::Reg(Reg::b(pair.0)),
            dst: Operand::Reg(Reg::b(pair.1)),
        },
    ));
    out.push(prot(
        Mechanism::FlagRecheck,
        Inst::Jcc {
            cc: Cc::Ne,
            target: ferrum_asm::EXIT_FUNCTION.into(),
        },
    ));
}

fn red_zone_pop(g: Gpr, out: &mut Vec<AsmInst>) {
    out.push(prot(
        Mechanism::Requisition,
        Inst::Pop {
            dst: Operand::Reg(Reg::q(g)),
        },
    ));
    out.push(prot(
        Mechanism::Requisition,
        Inst::Cmp {
            w: Width::W64,
            src: Operand::Mem(MemRef::base_disp(Gpr::Rsp, -8)),
            dst: Operand::Reg(Reg::q(g)),
        },
    ));
    out.push(prot(
        Mechanism::Requisition,
        Inst::Jcc {
            cc: Cc::Ne,
            target: ferrum_asm::EXIT_FUNCTION.into(),
        },
    ));
}

fn pick_regs(f: &AsmFunction, cfg: FerrumConfig) -> (Option<[Gpr; 3]>, Vec<Xmm>) {
    let rep = ferrum_asm::analysis::regscan::SpareReport::scan(f);
    let spare_gprs = rep.function_spare_gprs();
    let spare_simd = rep.function.spare_simd();
    let gprs = if !cfg.force_requisition && spare_gprs.len() >= NEEDED_GPRS {
        // Prefer the registers the paper's listings use.
        let preferred = [Gpr::R10, Gpr::R11, Gpr::R12];
        if preferred.iter().all(|g| spare_gprs.contains(g)) {
            Some(preferred)
        } else {
            Some([spare_gprs[0], spare_gprs[1], spare_gprs[2]])
        }
    } else {
        None
    };
    let want = if cfg.zmm { NEEDED_XMM_ZMM } else { NEEDED_XMM };
    let xmm = if cfg.simd && spare_simd.len() >= want {
        spare_simd[..want].iter().map(|&i| Xmm::new(i)).collect()
    } else if cfg.simd && spare_simd.len() >= NEEDED_XMM {
        // Not enough for ZMM mode; fall back to the YMM batch.
        spare_simd[..NEEDED_XMM]
            .iter()
            .map(|&i| Xmm::new(i))
            .collect()
    } else {
        Vec::new()
    };
    (gprs, xmm)
}

fn check_input(f: &AsmFunction) -> Result<(), PassError> {
    for ai in f.insts() {
        if ai.prov.is_protection() {
            return Err(PassError::Unsupported {
                function: f.name.clone(),
                what: "input already contains protection code".into(),
            });
        }
        if matches!(ai.inst.dest_class(), DestClass::Xmm(_) | DestClass::Ymm(_)) {
            return Err(PassError::Unsupported {
                function: f.name.clone(),
                what: "SIMD instruction in input program".into(),
            });
        }
    }
    Ok(())
}

fn protect_function(
    f: &mut AsmFunction,
    cfg: FerrumConfig,
    stats: &mut FerrumStats,
) -> Result<(), PassError> {
    check_input(f)?;
    let (gprs, xmm) = pick_regs(f, cfg);
    match gprs {
        Some([scratch, p0, p1]) => {
            let regs = Regs {
                scratch,
                pair: (p0, p1),
                xmm,
            };
            protect_normal(f, cfg, &regs, stats)
        }
        None => protect_requisition(f, cfg, xmm, stats),
    }
}

/// Normal mode: dedicated function-wide spare registers.
fn protect_normal(
    f: &mut AsmFunction,
    cfg: FerrumConfig,
    regs: &Regs,
    stats: &mut FerrumStats,
) -> Result<(), PassError> {
    let mut jcc_targets: BTreeSet<Label> = BTreeSet::new();
    let mut site_k = 0u64;
    for b in &mut f.blocks {
        let orig_block = b.clone();
        let mut out = Vec::with_capacity(orig_block.insts.len() * 3);
        let mut batch = Batch::new(regs.xmm.clone());
        let mut i = 0usize;
        while i < orig_block.insts.len() {
            let ai = &orig_block.insts[i];
            if ai.inst.writes_flags() || ai.inst.is_control() {
                batch.flush(&mut out);
            }
            let selected = match annotate(&ai.inst) {
                Annotation::NotASite => true,
                _ => select_site(&mut site_k, cfg.selective_percent),
            };
            if !selected {
                out.push(ai.clone());
                i += 1;
                continue;
            }
            match annotate(&ai.inst) {
                Annotation::NotASite => {
                    out.push(ai.clone());
                    i += 1;
                }
                Annotation::Compare if cfg.deferred_flags => {
                    i = handle_compare(
                        &orig_block,
                        i,
                        regs,
                        &mut out,
                        &mut jcc_targets,
                        CompareMode::Deferred,
                        &f.name,
                    )?;
                    stats.compares_protected += 1;
                }
                Annotation::Compare => {
                    out.push(ai.clone());
                    i += 1;
                }
                Annotation::SimdEnabled if batch.enabled() => {
                    guard_flags(&orig_block, i, &f.name)?;
                    batch.add(ai, &mut out);
                    stats.simd_protected += 1;
                    i += 1;
                }
                Annotation::SimdEnabled | Annotation::General => {
                    guard_flags(&orig_block, i, &f.name)?;
                    protect_scalar_site(ai, regs, &mut batch, &mut out, stats)
                        .map_err(|e| name_err(e, &f.name))?;
                    i += 1;
                }
            }
        }
        batch.flush(&mut out);
        b.insts = out;
    }
    // Initialise the comparison pair so block-start checks pass before
    // the first protected comparison executes.
    let init = [
        prot(
            Mechanism::FlagDup,
            Inst::Mov {
                w: Width::W8,
                src: Operand::Imm(0),
                dst: Operand::Reg(Reg::b(regs.pair.0)),
            },
        ),
        prot(
            Mechanism::FlagDup,
            Inst::Mov {
                w: Width::W8,
                src: Operand::Imm(0),
                dst: Operand::Reg(Reg::b(regs.pair.1)),
            },
        ),
    ];
    f.blocks[0].insts.splice(0..0, init);
    // Deferred pair checks at every protected branch target (Fig. 5's
    // `.LBB7_4` check).
    for b in &mut f.blocks {
        if jcc_targets.contains(&b.label) {
            let mut check = Vec::new();
            pair_check(regs.pair, &mut check);
            b.insts.splice(0..0, check);
        }
    }
    Ok(())
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CompareMode {
    /// Normal mode: fall-through check inline, target checks at block
    /// starts (collected in `jcc_targets`).
    Deferred,
    /// Requisition mode: the taken edge is routed through a stub that
    /// checks and restores; only the fall-through check is inline.
    Stub(usize),
}

/// Protects the `cmp`/`test` at `orig[i]` with deferred detection.
/// Returns the index of the next unprocessed instruction.
#[allow(clippy::too_many_arguments)]
fn handle_compare(
    orig_block: &AsmBlock,
    i: usize,
    regs: &Regs,
    out: &mut Vec<AsmInst>,
    jcc_targets: &mut BTreeSet<Label>,
    mode: CompareMode,
    fname: &str,
) -> Result<usize, PassError> {
    let ai = &orig_block.insts[i];
    let Some(ci) = flags_consumer(orig_block, i) else {
        // Dead flags: a fault there can never be consumed.
        out.push(ai.clone());
        return Ok(i + 1);
    };
    if ci != i + 1 {
        return Err(PassError::Unsupported {
            function: fname.to_owned(),
            what: "non-adjacent flags consumer".into(),
        });
    }
    let consumer = &orig_block.insts[ci];
    let cc = match &consumer.inst {
        Inst::Setcc { cc, .. } | Inst::Jcc { cc, .. } => *cc,
        other => {
            return Err(PassError::Unsupported {
                function: fname.to_owned(),
                what: format!("unexpected flags consumer {other:?}"),
            })
        }
    };
    let (p0, p1) = regs.pair;
    out.push(ai.clone()); // original cmp/test
    out.push(prot(
        Mechanism::FlagDup,
        Inst::Setcc {
            cc,
            dst: Operand::Reg(Reg::b(p0)),
        },
    ));
    // Duplicate cmp/test.
    out.push(AsmInst::new(
        ai.inst.clone(),
        Provenance::Protection(TAG, Mechanism::FlagDup),
    ));
    out.push(prot(
        Mechanism::FlagDup,
        Inst::Setcc {
            cc,
            dst: Operand::Reg(Reg::b(p1)),
        },
    ));
    match &consumer.inst {
        Inst::Setcc { .. } => {
            // Protect the consumer itself, then check the pair (flags
            // are dead after a setcc in backend-shaped code).
            protect_general(consumer, regs.scratch, regs.pair.0, TAG, out)
                .map_err(|e| name_err(e, fname))?;
            pair_check(regs.pair, out);
        }
        Inst::Jcc { target, .. } => match mode {
            CompareMode::Deferred => {
                out.push(consumer.clone());
                jcc_targets.insert(target.clone());
                pair_check(regs.pair, out); // fall-through check
            }
            CompareMode::Stub(_) => {
                // The caller rewrites the target through a stub; here we
                // only emit the branch and the fall-through check.
                out.push(consumer.clone());
                pair_check(regs.pair, out);
            }
        },
        _ => unreachable!("consumer checked above"),
    }
    Ok(ci + 1)
}

/// Protects one GENERAL (or SIMD-fallback) site: batch-checked scalar
/// duplication when the batch is available, immediate scalar check
/// otherwise.  Restores the comparison-pair invariant after the idiv
/// scheme, which borrows a pair register.
fn protect_scalar_site(
    ai: &AsmInst,
    regs: &Regs,
    batch: &mut Batch,
    out: &mut Vec<AsmInst>,
    stats: &mut FerrumStats,
) -> Result<(), PassError> {
    if batch.enabled() {
        let mut seq = Vec::new();
        if let Some((dup, orig)) =
            crate::scalar::protect_general_batched(ai, regs.scratch, TAG, &mut seq)?
        {
            out.append(&mut seq);
            batch.add_pair(dup, orig, out);
            stats.general_batched += 1;
            return Ok(());
        }
    }
    let is_idiv = matches!(ai.inst, Inst::Idiv { .. });
    protect_general(ai, regs.scratch, regs.pair.0, TAG, out)?;
    if is_idiv {
        // The divider scheme borrowed one comparison-pair register;
        // restore the pair invariant.
        out.push(prot(
            Mechanism::FlagDup,
            Inst::Mov {
                w: Width::W8,
                src: Operand::Reg(Reg::b(regs.pair.1)),
                dst: Operand::Reg(Reg::b(regs.pair.0)),
            },
        ));
    }
    stats.general_protected += 1;
    Ok(())
}

/// Deterministic striping for selective protection: site `k` is
/// protected iff the running sum of `percent` crosses a multiple of 100
/// (Bresenham-style, so any percentage spreads evenly over the stream).
fn select_site(k: &mut u64, percent: u8) -> bool {
    let p = u64::from(percent.min(100));
    let prev = *k * p / 100;
    *k += 1;
    (*k * p / 100) > prev
}

fn guard_flags(block: &AsmBlock, i: usize, fname: &str) -> Result<(), PassError> {
    if flags_live_at(block, i + 1) && !matches!(block.insts[i].inst, Inst::Setcc { .. }) {
        return Err(PassError::Unsupported {
            function: fname.to_owned(),
            what: "checker would clobber live flags".into(),
        });
    }
    Ok(())
}

fn name_err(e: PassError, fname: &str) -> PassError {
    match e {
        PassError::Unsupported { what, .. } => PassError::Unsupported {
            function: fname.to_owned(),
            what,
        },
        other => other,
    }
}

/// Requisition mode (Fig. 7): per-block stack-level data redundancy.
fn protect_requisition(
    f: &mut AsmFunction,
    cfg: FerrumConfig,
    xmm: Vec<Xmm>,
    stats: &mut FerrumStats,
) -> Result<(), PassError> {
    let rep = ferrum_asm::analysis::regscan::SpareReport::scan(f);
    let mut stubs: Vec<AsmBlock> = Vec::new();
    let mut stub_n = 0usize;
    let nblocks = f.blocks.len();
    for bi in 0..nblocks {
        let orig_block = f.blocks[bi].clone();
        let needs = orig_block
            .insts
            .iter()
            .any(|ai| ai.inst.injectable_bits().is_some());
        if !needs {
            continue;
        }
        let cands = rep.block_spare_gprs(bi);
        if cands.len() < NEEDED_GPRS {
            return Err(PassError::NoSpareRegisters {
                function: f.name.clone(),
                block: orig_block.label.clone(),
            });
        }
        let regs = Regs {
            scratch: cands[0],
            pair: (cands[1], cands[2]),
            xmm: xmm.clone(),
        };
        let req = [regs.scratch, regs.pair.0, regs.pair.1];
        stats.requisitioned_blocks += 1;

        let mut out = Vec::with_capacity(orig_block.insts.len() * 3);
        let mut batch = Batch::new(regs.xmm.clone());
        let mut i = 0usize;

        // Copy the prologue prefix (frame setup must precede our pushes).
        let is_frame_setup = |ai: &AsmInst| {
            matches!(
                ai.prov,
                Provenance::Glue(ferrum_asm::provenance::GlueKind::FrameSetup)
            )
        };
        while i < orig_block.insts.len()
            && is_frame_setup(&orig_block.insts[i])
            && !matches!(orig_block.insts[i].inst, Inst::Ret)
        {
            out.push(orig_block.insts[i].clone());
            i += 1;
        }
        for g in req {
            out.push(prot(
                Mechanism::Requisition,
                Inst::Push {
                    src: Operand::Reg(Reg::q(g)),
                },
            ));
        }
        let emit_pops = |out: &mut Vec<AsmInst>| {
            for g in req.iter().rev() {
                red_zone_pop(*g, out);
            }
        };

        let mut done_epilogue = false;
        while i < orig_block.insts.len() {
            let ai = &orig_block.insts[i];
            // Epilogue (starts at the frame-setup mov %rbp, %rsp): pop
            // our requisitions first, then copy the epilogue verbatim.
            if is_frame_setup(ai) {
                batch.flush(&mut out);
                emit_pops(&mut out);
                for rest in &orig_block.insts[i..] {
                    out.push(rest.clone());
                }
                done_epilogue = true;
                break;
            }
            if ai.inst.writes_flags() || ai.inst.is_control() {
                batch.flush(&mut out);
            }
            if matches!(ai.inst, Inst::Jmp { .. }) {
                emit_pops(&mut out);
                out.push(ai.clone());
                i += 1;
                continue;
            }
            match annotate(&ai.inst) {
                Annotation::NotASite => {
                    // A bare conditional jump (possible when deferred
                    // flag detection is disabled) must still restore the
                    // requisitioned registers on its taken edge.
                    if let Inst::Jcc { cc, target } = &ai.inst {
                        if target != ferrum_asm::EXIT_FUNCTION {
                            let stub_label = format!("{}_req_stub{}", f.name, stub_n);
                            stub_n += 1;
                            let mut sb = AsmBlock::new(stub_label.clone());
                            for g in req.iter().rev() {
                                red_zone_pop(*g, &mut sb.insts);
                            }
                            sb.insts.push(prot(
                                Mechanism::Requisition,
                                Inst::Jmp {
                                    target: target.clone(),
                                },
                            ));
                            stubs.push(sb);
                            out.push(AsmInst::new(
                                Inst::Jcc {
                                    cc: *cc,
                                    target: stub_label,
                                },
                                ai.prov,
                            ));
                            i += 1;
                            continue;
                        }
                    }
                    out.push(ai.clone());
                    i += 1;
                }
                Annotation::Compare if cfg.deferred_flags => {
                    // Peek: is the consumer a jcc?  Then route through a
                    // stub that checks the pair and restores registers.
                    let before = out.len();
                    i = handle_compare(
                        &orig_block,
                        i,
                        &regs,
                        &mut out,
                        &mut BTreeSet::new(),
                        CompareMode::Stub(stub_n),
                        &f.name,
                    )?;
                    stats.compares_protected += 1;
                    // Rewrite the just-emitted jcc (if any) to a stub.
                    #[allow(clippy::needless_range_loop)]
                    for ei in before..out.len() {
                        let needs_stub = matches!(
                            (&out[ei].inst, &out[ei].prov),
                            (Inst::Jcc { target, .. }, p)
                                if target != ferrum_asm::EXIT_FUNCTION && !p.is_protection()
                        );
                        if needs_stub {
                            if let Inst::Jcc { cc, target } = out[ei].inst.clone() {
                                let stub_label = format!("{}_req_stub{}", f.name, stub_n);
                                stub_n += 1;
                                let mut sb = AsmBlock::new(stub_label.clone());
                                pair_check(regs.pair, &mut sb.insts);
                                for g in req.iter().rev() {
                                    red_zone_pop(*g, &mut sb.insts);
                                }
                                sb.insts.push(prot(Mechanism::Requisition, Inst::Jmp { target }));
                                stubs.push(sb);
                                out[ei].inst = Inst::Jcc {
                                    cc,
                                    target: stub_label,
                                };
                            }
                        }
                    }
                }
                Annotation::Compare => {
                    out.push(ai.clone());
                    i += 1;
                }
                Annotation::SimdEnabled if batch.enabled() => {
                    guard_flags(&orig_block, i, &f.name)?;
                    batch.add(ai, &mut out);
                    stats.simd_protected += 1;
                    i += 1;
                }
                Annotation::SimdEnabled | Annotation::General => {
                    guard_flags(&orig_block, i, &f.name)?;
                    protect_scalar_site(ai, &regs, &mut batch, &mut out, stats)
                        .map_err(|e| name_err(e, &f.name))?;
                    i += 1;
                }
            }
        }
        if !done_epilogue {
            batch.flush(&mut out);
            // Fall-through or jmp-terminated block already handled jmp;
            // if the block ends without any exit, restore here.
            let ends_with_exit = matches!(
                out.last().map(|a| &a.inst),
                Some(Inst::Jmp { .. }) | Some(Inst::Ret)
            );
            if !ends_with_exit {
                emit_pops(&mut out);
            }
        }
        f.blocks[bi].insts = out;
    }
    f.blocks.extend(stubs);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ferrum_cpu::outcome::StopReason;
    use ferrum_cpu::run::Cpu;
    use ferrum_mir::builder::FunctionBuilder;
    use ferrum_mir::inst::ICmpPred;
    use ferrum_mir::module::{Global, Module};
    use ferrum_mir::types::Ty;

    pub(super) fn kernel_module() -> Module {
        // Branchy weighted sum, exercising loads, ALU, icmp, branches.
        let mut module = Module::new();
        let g = module.add_global(Global::new("tab", vec![4, -2, 9, -7, 3, 8]));
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
        let n = b.iconst(Ty::I64, 6);
        let c = b.icmp(ICmpPred::Slt, Ty::I64, i, n);
        b.br(c, body, exit);
        b.switch_to(body);
        let i2 = b.load(Ty::I64, pi);
        let p = b.gep(base, i2);
        let v = b.load(Ty::I64, p);
        let isneg = b.icmp(ICmpPred::Slt, Ty::I64, v, zero);
        b.br(isneg, neg, join);
        b.switch_to(neg);
        let tv = b.mul(Ty::I64, v, v);
        let s0 = b.load(Ty::I64, ps);
        let s1 = b.add(Ty::I64, s0, tv);
        b.store(Ty::I64, s1, ps);
        b.jmp(join);
        b.switch_to(join);
        let s2 = b.load(Ty::I64, ps);
        let s3 = b.add(Ty::I64, s2, v);
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

    fn golden(m: &Module) -> Vec<i64> {
        ferrum_mir::interp::Interp::new(m).run().unwrap().output
    }

    #[test]
    fn protected_program_preserves_output() {
        let m = kernel_module();
        let prot = Ferrum::new().protect_module(&m).expect("protects");
        assert!(prot.validate().is_ok(), "{:?}", prot.validate());
        let r = Cpu::load(&prot).unwrap().run(None);
        assert_eq!(r.stop, StopReason::MainReturned, "output: {:?}", r.output);
        assert_eq!(r.output, golden(&m));
    }

    #[test]
    fn uses_simd_batching_and_deferred_checks() {
        let m = kernel_module();
        let asm = ferrum_backend::compile(&m).unwrap();
        let (prot, stats) = Ferrum::new().protect_with_stats(&asm).expect("protects");
        assert!(stats.simd_protected > 0, "{stats:?}");
        assert!(stats.compares_protected > 0, "{stats:?}");
        assert!(
            stats.general_protected + stats.general_batched > 0,
            "{stats:?}"
        );
        assert!(
            stats.general_batched > 0,
            "scalar dups should batch: {stats:?}"
        );
        assert_eq!(stats.requisitioned_blocks, 0);
        let main = prot.function("main").unwrap();
        assert!(main
            .insts()
            .any(|a| matches!(a.inst, Inst::Vptest { .. } | Inst::Vptest128 { .. })));
        assert!(main
            .insts()
            .any(|a| matches!(a.inst, Inst::Vinserti128 { .. })));
        assert!(main.insts().any(
            |a| matches!(a.inst, Inst::Setcc { dst: Operand::Reg(r), .. } if r.gpr == Gpr::R11)
        ));
    }

    #[test]
    fn ferrum_is_cheaper_than_scalar_everything() {
        let m = kernel_module();
        let asm = ferrum_backend::compile(&m).unwrap();
        let ferrum = Ferrum::new().protect(&asm).unwrap();
        let hybrid = crate::hybrid::HybridAsmEddi::new().protect(&m).unwrap();
        let fc = Cpu::load(&ferrum).unwrap().run(None).cycles;
        let hc = Cpu::load(&hybrid).unwrap().run(None).cycles;
        assert!(fc < hc, "ferrum {fc} vs hybrid {hc}");
    }

    #[test]
    fn simd_disabled_falls_back_to_scalar() {
        let m = kernel_module();
        let asm = ferrum_backend::compile(&m).unwrap();
        let cfg = FerrumConfig {
            simd: false,
            ..FerrumConfig::default()
        };
        let (prot, stats) = Ferrum::with_config(cfg).protect_with_stats(&asm).unwrap();
        assert_eq!(stats.simd_protected, 0);
        assert!(!prot
            .function("main")
            .unwrap()
            .insts()
            .any(|a| matches!(a.inst, Inst::Vptest { .. } | Inst::MovqToXmm { .. })));
        let r = Cpu::load(&prot).unwrap().run(None);
        assert_eq!(r.output, golden(&m));
    }

    #[test]
    fn forced_requisition_preserves_output() {
        let m = kernel_module();
        let asm = ferrum_backend::compile(&m).unwrap();
        let cfg = FerrumConfig {
            force_requisition: true,
            ..FerrumConfig::default()
        };
        let (prot, stats) = Ferrum::with_config(cfg)
            .protect_with_stats(&asm)
            .expect("protects");
        assert!(stats.requisitioned_blocks > 0, "{stats:?}");
        assert!(prot.validate().is_ok(), "{:?}", prot.validate());
        let r = Cpu::load(&prot).unwrap().run(None);
        assert_eq!(r.stop, StopReason::MainReturned, "output {:?}", r.output);
        assert_eq!(r.output, golden(&m));
        // Fig. 7's push/pop requisition idiom is present.
        let main = prot.function("main").unwrap();
        assert!(main
            .insts()
            .any(|a| matches!(a.inst, Inst::Push { .. }) && a.prov.is_protection()));
        assert!(main
            .insts()
            .any(|a| matches!(a.inst, Inst::Pop { .. }) && a.prov.is_protection()));
    }

    #[test]
    fn peephole_can_be_disabled() {
        let m = kernel_module();
        let asm = ferrum_backend::compile(&m).unwrap();
        let on = Ferrum::new().protect_with_stats(&asm).unwrap();
        let cfg = FerrumConfig {
            peephole: false,
            ..FerrumConfig::default()
        };
        let off = Ferrum::with_config(cfg).protect_with_stats(&asm).unwrap();
        assert!(on.1.peephole.reloads_removed > 0);
        assert_eq!(off.1.peephole, PeepholeStats::default());
        assert!(on.0.static_inst_count() < off.0.static_inst_count());
        // Both still correct.
        for p in [&on.0, &off.0] {
            assert_eq!(Cpu::load(p).unwrap().run(None).output, golden(&m));
        }
    }

    #[test]
    fn rejects_already_protected_input() {
        let m = kernel_module();
        let asm = ferrum_backend::compile(&m).unwrap();
        let once = Ferrum::new().protect(&asm).unwrap();
        assert!(matches!(
            Ferrum::new().protect(&once),
            Err(PassError::Unsupported { .. })
        ));
    }

    #[test]
    fn functions_with_calls_are_protected() {
        let mut callee = FunctionBuilder::new("scale", &[Ty::I64], Some(Ty::I64));
        let k = callee.iconst(Ty::I64, 3);
        let r = callee.mul(Ty::I64, callee.arg(0), k);
        callee.ret(Some(r));
        let mut main = FunctionBuilder::new("main", &[], None);
        let x = main.iconst(Ty::I64, 5);
        let r = main.call("scale", vec![x], Some(Ty::I64)).unwrap();
        main.print(r);
        main.ret(None);
        let m = Module::from_functions(vec![main.finish(), callee.finish()]);
        let prot = Ferrum::new().protect_module(&m).expect("protects");
        let r = Cpu::load(&prot).unwrap().run(None);
        assert_eq!(r.stop, StopReason::MainReturned);
        assert_eq!(r.output, vec![15]);
    }

    #[test]
    fn division_is_protected_and_correct() {
        let mut b = FunctionBuilder::new("main", &[], None);
        let a = b.iconst(Ty::I64, 123456);
        let d = b.iconst(Ty::I64, 789);
        let q = b.sdiv(Ty::I64, a, d);
        let rm = b.srem(Ty::I64, a, d);
        b.print(q);
        b.print(rm);
        b.ret(None);
        let m = Module::from_functions(vec![b.finish()]);
        let prot = Ferrum::new().protect_module(&m).expect("protects");
        let r = Cpu::load(&prot).unwrap().run(None);
        assert_eq!(r.stop, StopReason::MainReturned);
        assert_eq!(r.output, vec![123456 / 789, 123456 % 789]);
    }

    #[test]
    fn zmm_mode_batches_eight_and_preserves_output() {
        let m = kernel_module();
        let asm = ferrum_backend::compile(&m).unwrap();
        let cfg = FerrumConfig {
            zmm: true,
            ..FerrumConfig::default()
        };
        let (prot, stats) = Ferrum::with_config(cfg)
            .protect_with_stats(&asm)
            .expect("protects");
        assert!(prot.validate().is_ok());
        let main = prot.function("main").unwrap();
        assert!(
            main.insts()
                .any(|a| matches!(a.inst, Inst::Vptest512 { .. })),
            "512-bit checks expected"
        );
        assert!(main
            .insts()
            .any(|a| matches!(a.inst, Inst::Vinserti64x4 { .. })));
        let r = Cpu::load(&prot).unwrap().run(None);
        assert_eq!(r.output, golden(&m));
        // Fewer checker branches than YMM mode: batches of 8 halve the
        // flush count where blocks are long enough.
        let (ymm_prot, _) = Ferrum::new().protect_with_stats(&asm).unwrap();
        let count_checks = |p: &ferrum_asm::program::AsmProgram| {
            p.functions
                .iter()
                .flat_map(|f| f.insts())
                .filter(|a| {
                    matches!(&a.inst, Inst::Jcc { target, .. } if target == ferrum_asm::EXIT_FUNCTION)
                })
                .count()
        };
        assert!(count_checks(&prot) <= count_checks(&ymm_prot), "{stats:?}");
    }

    #[test]
    fn zmm_mode_full_coverage_exhaustive() {
        let m = kernel_module();
        let asm = ferrum_backend::compile(&m).unwrap();
        let cfg = FerrumConfig {
            zmm: true,
            ..FerrumConfig::default()
        };
        let prot = Ferrum::with_config(cfg).protect(&asm).expect("protects");
        let cpu = Cpu::load(&prot).unwrap();
        let profile = cpu.profile();
        let golden_out = profile.result.output.clone();
        for site in &profile.sites {
            for bit in [0u16, 7, 63] {
                let r = cpu.run(Some(ferrum_cpu::fault::FaultSpec::new(site.dyn_index, bit)));
                let silent = r.stop == StopReason::MainReturned && r.output != golden_out;
                assert!(!silent, "SDC at {site:?} bit {bit}");
            }
        }
    }

    #[test]
    fn stats_are_deterministic() {
        let m = kernel_module();
        let asm = ferrum_backend::compile(&m).unwrap();
        let s1 = Ferrum::new().protect_with_stats(&asm).unwrap().1;
        let s2 = Ferrum::new().protect_with_stats(&asm).unwrap().1;
        assert_eq!(s1, s2);
    }
}

#[cfg(test)]
mod selective_tests {
    use super::*;
    use ferrum_cpu::run::Cpu;

    #[test]
    fn striping_is_even() {
        let mut k = 0u64;
        let picked = (0..1000).filter(|_| select_site(&mut k, 30)).count();
        assert_eq!(picked, 300);
        let mut k = 0u64;
        assert_eq!((0..50).filter(|_| select_site(&mut k, 0)).count(), 0);
        let mut k = 0u64;
        assert_eq!((0..50).filter(|_| select_site(&mut k, 100)).count(), 50);
    }

    #[test]
    fn selective_protection_trades_overhead_for_coverage() {
        let m = super::tests::kernel_module();
        let golden = ferrum_mir::interp::Interp::new(&m).run().unwrap().output;
        let asm = ferrum_backend::compile(&m).unwrap();
        let mut prev_cycles = u64::MAX;
        for percent in [100u8, 50, 0] {
            let cfg = FerrumConfig {
                selective_percent: percent,
                ..FerrumConfig::default()
            };
            let prot = Ferrum::with_config(cfg).protect(&asm).expect("protects");
            assert!(prot.validate().is_ok(), "{percent}%");
            let r = Cpu::load(&prot).unwrap().run(None);
            assert_eq!(r.output, golden, "{percent}%: still transparent");
            assert!(
                r.cycles < prev_cycles,
                "{percent}%: cheaper than more protection"
            );
            prev_cycles = r.cycles;
        }
        // 0% selective plus peephole can be *faster* than raw unoptimized.
        let zero = FerrumConfig {
            selective_percent: 0,
            ..FerrumConfig::default()
        };
        let p0 = Ferrum::with_config(zero).protect(&asm).unwrap();
        let raw = Cpu::load(&asm).unwrap().run(None).cycles;
        let c0 = Cpu::load(&p0).unwrap().run(None).cycles;
        assert!(
            c0 <= raw,
            "peephole-only build should not exceed raw: {c0} vs {raw}"
        );
    }
}

#[cfg(test)]
mod requisition_edge_tests {
    use super::*;
    use ferrum_cpu::outcome::StopReason;
    use ferrum_cpu::run::Cpu;

    /// The dangerous combination: requisition mode with deferred flag
    /// detection off leaves bare `jcc`s in the stream; their taken edge
    /// must still restore the requisitioned registers.
    #[test]
    fn forced_requisition_without_deferred_flags_balances_the_stack() {
        let m = {
            use ferrum_mir::builder::FunctionBuilder;
            use ferrum_mir::inst::ICmpPred;
            use ferrum_mir::module::{Global, Module};
            use ferrum_mir::types::Ty;
            let mut module = Module::new();
            let g = module.add_global(Global::new("tab", vec![2, -3, 5, -7]));
            let mut b = FunctionBuilder::new("main", &[], None);
            let header = b.create_block("h");
            let body = b.create_block("b");
            let neg = b.create_block("n");
            let join = b.create_block("j");
            let exit = b.create_block("x");
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
            let nv = b.sub(Ty::I64, zero, v);
            let s = b.load(Ty::I64, ps);
            let s2 = b.add(Ty::I64, s, nv);
            b.store(Ty::I64, s2, ps);
            b.jmp(join);
            b.switch_to(join);
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
        };
        let golden = ferrum_mir::interp::Interp::new(&m).run().unwrap().output;
        let asm = ferrum_backend::compile(&m).unwrap();
        let cfg = FerrumConfig {
            force_requisition: true,
            deferred_flags: false,
            ..FerrumConfig::default()
        };
        let prot = Ferrum::with_config(cfg).protect(&asm).expect("protects");
        assert!(prot.validate().is_ok(), "{:?}", prot.validate());
        let r = Cpu::load(&prot).unwrap().run(None);
        assert_eq!(r.stop, StopReason::MainReturned, "output {:?}", r.output);
        assert_eq!(r.output, golden);
    }
}
