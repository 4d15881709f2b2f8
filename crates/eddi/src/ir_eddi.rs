//! IR-LEVEL-EDDI: classic EDDI on MIR (paper §II-C, Fig. 2).
//!
//! Every *computational* instruction (load, arithmetic, comparison,
//! address computation, extension) is duplicated immediately after it
//! executes, with duplicated operands where available.  Before every
//! *synchronisation point* (store, branch, call, return) each duplicated
//! value it consumes is compared against its shadow; a mismatch branches
//! to a detect handler (`call eddi_detect`, the paper's `check_flag()`).
//!
//! The pass operates purely at IR level — by design it cannot see the
//! backend's branch materialisation, store staging, or call glue.  The
//! resulting assembly-level coverage gap (~28% in the paper) is measured
//! by the fault campaigns, not assumed.

use std::collections::{HashMap, HashSet};

use ferrum_asm::program::AsmProgram;
use ferrum_asm::provenance::{Mechanism, Provenance, TechniqueTag};

use ferrum_mir::func::{BlockId, Function, MirBlock};
use ferrum_mir::inst::{BinOp, ICmpPred, MirInst};
use ferrum_mir::module::Module;
use ferrum_mir::types::Ty;
use ferrum_mir::value::Value;

/// Where the rewriter is currently emitting.
enum Cursor {
    Orig(usize),
    Extra(usize),
}

/// Streaming block rewriter: original block ids stay stable, the detect
/// handler becomes block `N` (first appended), and check continuations
/// are appended after it.
pub(crate) struct Rewriter {
    orig: Vec<MirBlock>,
    extra: Vec<MirBlock>,
    cur: Cursor,
    base: usize,
    /// Result ids of the `icmp eq` comparisons [`Rewriter::split_check`]
    /// creates, so lowered checker code can be attributed to the
    /// check mechanism rather than the shadow stream.
    pub check_ids: HashSet<u32>,
}

impl Rewriter {
    /// Prepares to rewrite a function with `base` original blocks.  The
    /// detect block id is `BlockId(base)`.
    pub fn new(f: &Function) -> Rewriter {
        let base = f.blocks.len();
        let orig = f
            .blocks
            .iter()
            .map(|b| MirBlock::new(b.name.clone()))
            .collect();
        Rewriter {
            orig,
            extra: vec![MirBlock::new("eddi_detect_bb")],
            cur: Cursor::Orig(0),
            base,
            check_ids: HashSet::new(),
        }
    }

    /// The detect handler's block id.
    pub fn detect_bb(&self) -> BlockId {
        BlockId(self.base as u32)
    }

    /// Starts emitting into original block `i`.
    pub fn start_block(&mut self, i: usize) {
        self.cur = Cursor::Orig(i);
    }

    /// Appends an instruction at the cursor.
    pub fn emit(&mut self, inst: MirInst) {
        match self.cur {
            Cursor::Orig(i) => self.orig[i].insts.push(inst),
            Cursor::Extra(i) => self.extra[i].insts.push(inst),
        }
    }

    /// Appends an instruction into a specific appended block (used for
    /// edge blocks that are filled out of stream order).
    ///
    /// # Panics
    ///
    /// Panics if `bb` is not an appended block.
    pub fn emit_into(&mut self, bb: BlockId, inst: MirInst) {
        let i = bb.index().checked_sub(self.base).expect("appended block");
        self.extra[i].insts.push(inst);
    }

    /// Creates a fresh appended block and returns its id (does not move
    /// the cursor).
    pub fn fresh_block(&mut self, name: &str) -> BlockId {
        let id = BlockId((self.base + self.extra.len()) as u32);
        self.extra.push(MirBlock::new(name.to_owned()));
        id
    }

    /// Emits `c = icmp eq a, b; br c, <cont>, detect` and continues
    /// emission in the new continuation block.
    pub fn split_check(&mut self, f: &mut Function, a: Value, b: Value) {
        let detect = self.detect_bb();
        let id = f.fresh_id();
        self.check_ids.insert(id.0);
        self.emit(MirInst::ICmp {
            id,
            pred: ICmpPred::Eq,
            ty: Ty::I64,
            a,
            b,
        });
        let cont = self.fresh_block("eddi_cont");
        self.emit(MirInst::Br {
            cond: Value::Inst(id),
            then_bb: cont,
            else_bb: detect,
        });
        self.cur = Cursor::Extra(cont.index() - self.base);
    }

    /// Finalises: fills the detect block and returns all blocks.
    pub fn finish(mut self, ret_ty: Option<Ty>) -> Vec<MirBlock> {
        let detect = &mut self.extra[0];
        detect.insts.push(MirInst::Call {
            id: None,
            callee: ferrum_mir::DETECT.into(),
            args: Vec::new(),
        });
        // Unreachable in the compiled program (the detect call lowers to
        // a jump to exit_function) but keeps the IR well-formed.
        detect.insts.push(MirInst::Ret {
            val: ret_ty.map(|t| Value::const_int(t, 0)),
        });
        let mut out = self.orig;
        out.extend(self.extra);
        out
    }
}

/// Result-ids of shadow and check instructions one function gained.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShadowIds {
    /// Every id created by the pass (shadows and checks).
    pub all: HashSet<u32>,
    /// The subset created by `Rewriter::split_check` — lowered
    /// comparisons guarding the detect branch.
    pub checks: HashSet<u32>,
}

/// Result-ids of shadow/check instructions, per function name.  After
/// backend lowering, [`retag_shadows`] turns `FromIr(id)` provenance for
/// these ids into `Protection`, so the cost model's co-issue discount and
/// the root-cause attribution treat IR-level protection code the same
/// way as assembly-level protection code.  Check ids retag with
/// [`Mechanism::Check`], the rest with [`Mechanism::Dup`].
pub type ShadowMap = HashMap<String, ShadowIds>;

/// The IR-level EDDI pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct IrEddi;

impl IrEddi {
    /// Creates the pass.
    pub fn new() -> IrEddi {
        IrEddi
    }

    /// Returns a protected copy of `m`.
    pub fn protect(&self, m: &Module) -> Module {
        self.protect_tracked(m).0
    }

    /// Returns a protected copy of `m` plus the shadow-id map used to
    /// retag lowered protection code.
    pub fn protect_tracked(&self, m: &Module) -> (Module, ShadowMap) {
        let _span = ferrum_trace::span("eddi.ir.protect");
        let mut out = m.clone();
        let mut shadows = ShadowMap::new();
        for f in &mut out.functions {
            let first_new = f.next_id;
            let checks = protect_function(f, m);
            let ids = ShadowIds {
                all: (first_new..f.next_id).collect(),
                checks,
            };
            shadows.insert(f.name.clone(), ids);
        }
        (out, shadows)
    }
}

/// Rewrites `FromIr(id)` provenance into `Protection(tag, _)` for every
/// id recorded in `shadows` (see [`ShadowMap`]).
pub fn retag_shadows(prog: &mut AsmProgram, shadows: &ShadowMap, tag: TechniqueTag) {
    for f in &mut prog.functions {
        let Some(ids) = shadows.get(&f.name) else {
            continue;
        };
        for b in &mut f.blocks {
            for ai in &mut b.insts {
                if let Provenance::FromIr(id) = ai.prov {
                    if ids.all.contains(&id) {
                        let mech = if ids.checks.contains(&id) {
                            Mechanism::Check
                        } else {
                            Mechanism::Dup
                        };
                        ai.prov = Provenance::Protection(tag, mech);
                    }
                }
            }
        }
    }
}

fn remap(v: &Value, dup: &HashMap<u32, Value>) -> Value {
    match v {
        Value::Inst(id) => dup.get(&id.0).copied().unwrap_or(*v),
        other => *other,
    }
}

fn protect_function(f: &mut Function, m: &Module) -> HashSet<u32> {
    let blocks = std::mem::take(&mut f.blocks);
    let snapshot = Function {
        blocks,
        ..f.clone()
    };
    let mut rw = Rewriter::new(&snapshot);
    let mut dup: HashMap<u32, Value> = HashMap::new();

    for (bi, b) in snapshot.blocks.iter().enumerate() {
        rw.start_block(bi);
        for inst in &b.insts {
            if inst.is_duplicable() {
                rw.emit(inst.clone());
                // Shadow copy with duplicated operands.
                let mut shadow = inst.clone();
                let new_id = f.fresh_id();
                for op in shadow.operands_mut() {
                    *op = remap(op, &dup);
                }
                set_result(&mut shadow, new_id);
                rw.emit(shadow);
                if let Some(orig_id) = inst.result() {
                    dup.insert(orig_id.0, Value::Inst(new_id));
                }
                continue;
            }
            if inst.is_sync_point() {
                // Check every duplicated operand before the sync point.
                let mut checked: Vec<u32> = Vec::new();
                for v in inst.operands() {
                    if let Value::Inst(id) = v {
                        if let Some(d) = dup.get(&id.0).copied() {
                            if !checked.contains(&id.0) {
                                checked.push(id.0);
                                rw.split_check(f, *v, d);
                            }
                        }
                    }
                }
                let is_result_call = matches!(inst, MirInst::Call { id: Some(_), .. });
                rw.emit(inst.clone());
                if is_result_call {
                    // A call result cannot be re-computed; shadow it with
                    // an identity operation (result + 0), as real EDDI
                    // implementations do at call boundaries.
                    if let MirInst::Call { id: Some(rid), .. } = inst {
                        let new_id = f.fresh_id();
                        let ty = callee_ret_ty(m, inst).unwrap_or(Ty::I64);
                        rw.emit(MirInst::Bin {
                            id: new_id,
                            op: BinOp::Add,
                            ty,
                            a: Value::Inst(*rid),
                            b: Value::const_int(ty, 0),
                        });
                        dup.insert(rid.0, Value::Inst(new_id));
                    }
                }
                continue;
            }
            // Alloca, jmp: emitted untouched.
            rw.emit(inst.clone());
        }
    }
    let checks = std::mem::take(&mut rw.check_ids);
    f.blocks = rw.finish(f.ret);
    checks
}

fn callee_ret_ty(m: &Module, inst: &MirInst) -> Option<Ty> {
    match inst {
        MirInst::Call { callee, .. } => m.function(callee).and_then(|f| f.ret),
        _ => None,
    }
}

/// Re-labels the result id of an instruction (shared with the signature
/// pass when it creates shadows).
pub(crate) fn set_result_pub(inst: &mut MirInst, id: ferrum_mir::inst::InstId) {
    set_result(inst, id);
}

fn set_result(inst: &mut MirInst, id: ferrum_mir::inst::InstId) {
    match inst {
        MirInst::Alloca { id: r, .. }
        | MirInst::Load { id: r, .. }
        | MirInst::Bin { id: r, .. }
        | MirInst::ICmp { id: r, .. }
        | MirInst::Gep { id: r, .. }
        | MirInst::Sext { id: r, .. }
        | MirInst::Zext { id: r, .. }
        | MirInst::Trunc { id: r, .. } => *r = id,
        MirInst::Call { id: r, .. } => *r = Some(id),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ferrum_mir::builder::FunctionBuilder;
    use ferrum_mir::interp::Interp;
    use ferrum_mir::module::Global;
    use ferrum_mir::verify::verify_module;

    fn sum_module() -> Module {
        let mut module = Module::new();
        let g = module.add_global(Global::new("tab", vec![5, 6, 7]));
        let mut b = FunctionBuilder::new("main", &[], None);
        let base = b.global(g);
        let mut acc = b.iconst(Ty::I64, 0);
        for i in 0..3 {
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
    fn protected_module_verifies_and_preserves_output() {
        let m = sum_module();
        let p = IrEddi::new().protect(&m);
        verify_module(&p).expect("protected module verifies");
        let golden = Interp::new(&m).run().unwrap();
        let out = Interp::new(&p).run().unwrap();
        assert_eq!(out.output, golden.output);
        assert_eq!(out.output, vec![18]);
    }

    #[test]
    fn duplicates_computational_instructions() {
        let m = sum_module();
        let p = IrEddi::new().protect(&m);
        let orig_loads = m.functions[0]
            .insts()
            .filter(|i| matches!(i, MirInst::Load { .. }))
            .count();
        let prot_loads = p.functions[0]
            .insts()
            .filter(|i| matches!(i, MirInst::Load { .. }))
            .count();
        assert_eq!(prot_loads, orig_loads * 2, "each load duplicated");
        // Checks exist: at least one icmp eq + br to the detect block.
        assert!(p.functions[0].inst_count() > 2 * m.functions[0].inst_count());
    }

    #[test]
    fn detect_block_calls_detect_intrinsic() {
        let m = sum_module();
        let p = IrEddi::new().protect(&m);
        let has_detect = p.functions[0]
            .insts()
            .any(|i| matches!(i, MirInst::Call { callee, .. } if callee == ferrum_mir::DETECT));
        assert!(has_detect);
    }

    #[test]
    fn branches_and_loops_survive_protection() {
        // sum 0..n with a loop, n from a global.
        let mut module = Module::new();
        let g = module.add_global(Global::new("n", vec![10]));
        let mut b = FunctionBuilder::new("main", &[], None);
        let header = b.create_block("header");
        let body = b.create_block("body");
        let exit = b.create_block("exit");
        let pn = b.global(g);
        let n = b.load(Ty::I64, pn);
        let pi = b.alloca(Ty::I64);
        let ps = b.alloca(Ty::I64);
        let zero = b.iconst(Ty::I64, 0);
        b.store(Ty::I64, zero, pi);
        b.store(Ty::I64, zero, ps);
        b.jmp(header);
        b.switch_to(header);
        let i = b.load(Ty::I64, pi);
        let c = b.icmp(ICmpPred::Slt, Ty::I64, i, n);
        b.br(c, body, exit);
        b.switch_to(body);
        let i2 = b.load(Ty::I64, pi);
        let s = b.load(Ty::I64, ps);
        let s2 = b.add(Ty::I64, s, i2);
        b.store(Ty::I64, s2, ps);
        let one = b.iconst(Ty::I64, 1);
        let i3 = b.add(Ty::I64, i2, one);
        b.store(Ty::I64, i3, pi);
        b.jmp(header);
        b.switch_to(exit);
        let r = b.load(Ty::I64, ps);
        b.print(r);
        b.ret(None);
        module.functions.push(b.finish());

        let p = IrEddi::new().protect(&module);
        verify_module(&p).expect("verifies");
        assert_eq!(Interp::new(&p).run().unwrap().output, vec![45]);
    }

    #[test]
    fn calls_check_arguments_and_shadow_results() {
        let mut callee = FunctionBuilder::new("sq", &[Ty::I64], Some(Ty::I64));
        let r = callee.mul(Ty::I64, callee.arg(0), callee.arg(0));
        callee.ret(Some(r));
        let mut main = FunctionBuilder::new("main", &[], None);
        let x = main.iconst(Ty::I64, 4);
        let one = main.iconst(Ty::I64, 1);
        let x1 = main.add(Ty::I64, x, one); // duplicated value feeding the call
        let r = main.call("sq", vec![x1], Some(Ty::I64)).unwrap();
        let r2 = main.add(Ty::I64, r, one); // uses shadowed call result
        main.print(r2);
        main.ret(None);
        let m = Module::from_functions(vec![main.finish(), callee.finish()]);
        let p = IrEddi::new().protect(&m);
        verify_module(&p).expect("verifies");
        assert_eq!(Interp::new(&p).run().unwrap().output, vec![26]);
    }

    #[test]
    fn compiled_protected_program_matches_unprotected_output() {
        let m = sum_module();
        let p = IrEddi::new().protect(&m);
        let asm = ferrum_backend::compile(&p).expect("compiles");
        let cpu = ferrum_cpu::run::Cpu::load(&asm).expect("loads");
        let r = cpu.run(None);
        assert_eq!(r.stop, ferrum_cpu::outcome::StopReason::MainReturned);
        assert_eq!(r.output, vec![18]);
    }

    #[test]
    fn shadow_tracking_covers_all_new_ids_and_retags_lowered_code() {
        let m = sum_module();
        let (p, shadows) = IrEddi::new().protect_tracked(&m);
        let set = &shadows["main"];
        // Every id at or beyond the original next_id is a shadow/check.
        assert_eq!(
            set.all.len() as u32,
            p.functions[0].next_id - m.functions[0].next_id
        );
        assert!(!set.checks.is_empty(), "sync points emit checks");
        assert!(set.checks.is_subset(&set.all));
        let mut asm = ferrum_backend::compile(&p).unwrap();
        let before = asm
            .function("main")
            .unwrap()
            .insts()
            .filter(|ai| ai.prov.is_protection())
            .count();
        assert_eq!(before, 0);
        retag_shadows(&mut asm, &shadows, TechniqueTag::IrEddi);
        let after = asm
            .function("main")
            .unwrap()
            .insts()
            .filter(|ai| ai.prov.is_protection())
            .count();
        assert!(after > 0, "lowered shadows must be retagged");
        // The program still runs identically.
        let cpu = ferrum_cpu::run::Cpu::load(&asm).unwrap();
        assert_eq!(cpu.run(None).output, vec![18]);
    }

    #[test]
    fn protection_is_idempotent_per_input() {
        let m = sum_module();
        let p1 = IrEddi::new().protect(&m);
        let p2 = IrEddi::new().protect(&m);
        assert_eq!(p1, p2, "deterministic transformation");
    }
}
