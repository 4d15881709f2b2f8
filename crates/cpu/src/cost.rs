//! The cycle cost model.
//!
//! The paper reports wall-clock runtime overheads on an Intel Xeon; our
//! substitute is a per-instruction-class cycle model.  Only *relative*
//! costs matter for reproducing Fig. 11's shape (which technique is
//! cheaper, by roughly what factor); the defaults below follow common
//! latency/throughput intuition for a modern out-of-order x86 core:
//! memory operations cost a few cycles, ALU operations one, branches pay
//! for redirection, division is slow, and SIMD moves/logicals are cheap.
//!
//! Costs are expressed in **quarter-cycles** so that the co-issue
//! discount for protection code (see
//! [`CostModel::protection_percent`]) retains sub-cycle resolution:
//! a one-cycle ALU op costs 4 units, and a discounted duplicate of it
//! costs 2 units (half a cycle), not a rounded-up full cycle.
//! Instructions executing on the vector units (`movq`/`pinsrq` into
//! XMM, `vinserti128`, `vpxor`, `vptest`) are charged [`CostModel::simd_move`]
//! regardless of operand kind: the paper's central premise (§III) is
//! that these units sit idle in integer code, so work moved onto them
//! does not compete with the protected computation.

use ferrum_asm::inst::Inst;
use ferrum_asm::operand::Operand;
use ferrum_asm::provenance::Provenance;

/// Per-class cycle costs.  All fields are public so experiments can
/// build ablated models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Register-to-register or immediate-to-register moves, `lea`,
    /// `setcc`, sign/zero-extension on registers.
    pub reg_move: u64,
    /// Memory load (any instruction with a memory source).
    pub mem_load: u64,
    /// Memory store (memory destination).
    pub mem_store: u64,
    /// Integer ALU on registers (add/sub/logic/shift/neg/not/cmp/test).
    pub alu: u64,
    /// Integer multiply.
    pub mul: u64,
    /// Integer divide (plus `cqo`).
    pub div: u64,
    /// Unconditional jump.
    pub jmp: u64,
    /// Conditional jump.
    pub jcc: u64,
    /// Call and return.
    pub call: u64,
    /// Push/pop.
    pub push_pop: u64,
    /// GPR↔XMM moves, `pinsrq`/`pextrq`, `vinserti128`.
    pub simd_move: u64,
    /// `vpxor` (either width).
    pub simd_logic: u64,
    /// `vptest` (either width).
    pub simd_test: u64,
    /// `nop`.
    pub nop: u64,
    /// Percentage of the base cost charged for protection-tagged
    /// instructions (duplicates, captures, checkers).  Duplication code
    /// is data-independent of the protected computation, so on an
    /// out-of-order superscalar it largely co-issues in otherwise idle
    /// slots, and checker branches are never taken and perfectly
    /// predicted.  The default of 50% models this instruction-level
    /// parallelism; set to 100 for a strictly serial machine (the
    /// `ferrum-repro ablation` experiment sweeps it).
    pub protection_percent: u64,
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel {
            reg_move: 4,
            mem_load: 12,
            mem_store: 12,
            alu: 4,
            mul: 12,
            div: 96,
            jmp: 4,
            jcc: 8,
            call: 12,
            push_pop: 8,
            simd_move: 2,
            simd_logic: 2,
            simd_test: 4,
            nop: 4,
            protection_percent: 50,
        }
    }
}

/// The cost class of an instruction — one per [`CostModel`] field.
///
/// This is the **single source of truth** for per-class pricing: both
/// the interpreter (priced per step via [`CostModel::cost_tagged`]) and
/// the decoded engine (which bakes the same `cost_tagged` result into
/// each lowered instruction) bottom out in
/// [`CostClass::classify`] + [`CostModel::of_class`], so a cost-model
/// edit cannot desynchronise the engines — there is exactly one
/// instruction→class match and one class→cycles table in the codebase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CostClass {
    /// Register/immediate moves, `lea`, `setcc`, extensions, `cqo`.
    RegMove,
    /// Memory load (any memory source).
    MemLoad,
    /// Memory store (memory destination).
    MemStore,
    /// Integer ALU on registers.
    Alu,
    /// Integer multiply.
    Mul,
    /// Integer divide.
    Div,
    /// Unconditional jump.
    Jmp,
    /// Conditional jump.
    Jcc,
    /// Call and return.
    Call,
    /// Push/pop.
    PushPop,
    /// GPR↔SIMD moves and lane inserts/extracts.
    SimdMove,
    /// SIMD xor.
    SimdLogic,
    /// SIMD test.
    SimdTest,
    /// `nop`.
    Nop,
}

impl CostClass {
    /// Every class, in [`CostModel`] field order.
    pub const ALL: [CostClass; 14] = [
        CostClass::RegMove,
        CostClass::MemLoad,
        CostClass::MemStore,
        CostClass::Alu,
        CostClass::Mul,
        CostClass::Div,
        CostClass::Jmp,
        CostClass::Jcc,
        CostClass::Call,
        CostClass::PushPop,
        CostClass::SimdMove,
        CostClass::SimdLogic,
        CostClass::SimdTest,
        CostClass::Nop,
    ];

    /// Stable lowercase label (tables, JSON).
    pub fn label(self) -> &'static str {
        match self {
            CostClass::RegMove => "reg_move",
            CostClass::MemLoad => "mem_load",
            CostClass::MemStore => "mem_store",
            CostClass::Alu => "alu",
            CostClass::Mul => "mul",
            CostClass::Div => "div",
            CostClass::Jmp => "jmp",
            CostClass::Jcc => "jcc",
            CostClass::Call => "call",
            CostClass::PushPop => "push_pop",
            CostClass::SimdMove => "simd_move",
            CostClass::SimdLogic => "simd_logic",
            CostClass::SimdTest => "simd_test",
            CostClass::Nop => "nop",
        }
    }

    /// The cost class of `inst` — the only instruction→class match in
    /// the codebase.
    pub fn classify(inst: &Inst) -> CostClass {
        let mem_src = |op: &Operand| matches!(op, Operand::Mem(_));
        match inst {
            Inst::Mov { src, dst, .. } => {
                if mem_src(src) {
                    CostClass::MemLoad
                } else if mem_src(dst) {
                    CostClass::MemStore
                } else {
                    CostClass::RegMove
                }
            }
            Inst::Movsx { src, .. } | Inst::Movzx { src, .. } => {
                if mem_src(src) {
                    CostClass::MemLoad
                } else {
                    CostClass::RegMove
                }
            }
            Inst::Lea { .. } => CostClass::RegMove,
            Inst::Alu { src, dst, .. } => {
                if mem_src(src) {
                    CostClass::MemLoad
                } else if mem_src(dst) {
                    CostClass::MemStore
                } else {
                    CostClass::Alu
                }
            }
            Inst::Imul { .. } => CostClass::Mul,
            Inst::Unary { dst, .. } | Inst::Shift { dst, .. } => {
                if mem_src(dst) {
                    CostClass::MemStore
                } else {
                    CostClass::Alu
                }
            }
            Inst::Cqo { .. } => CostClass::RegMove,
            Inst::Idiv { .. } => CostClass::Div,
            Inst::Cmp { src, dst, .. } | Inst::Test { src, dst, .. } => {
                if mem_src(src) || mem_src(dst) {
                    CostClass::MemLoad
                } else {
                    CostClass::Alu
                }
            }
            Inst::Setcc { .. } => CostClass::RegMove,
            Inst::Jmp { .. } => CostClass::Jmp,
            Inst::Jcc { .. } => CostClass::Jcc,
            Inst::Call { .. } | Inst::Ret => CostClass::Call,
            Inst::Push { .. } | Inst::Pop { .. } => CostClass::PushPop,
            // Vector-port execution: charged simd_move even with a
            // memory source (see the module docs on under-utilisation).
            Inst::MovqToXmm { .. } | Inst::Pinsrq { .. } => CostClass::SimdMove,
            Inst::MovqFromXmm { .. }
            | Inst::Pextrq { .. }
            | Inst::Vinserti128 { .. }
            | Inst::Vinserti64x4 { .. } => CostClass::SimdMove,
            Inst::Vpxor { .. } | Inst::Vpxor128 { .. } | Inst::Vpxor512 { .. } => {
                CostClass::SimdLogic
            }
            Inst::Vptest { .. } | Inst::Vptest128 { .. } | Inst::Vptest512 { .. } => {
                CostClass::SimdTest
            }
            Inst::Nop => CostClass::Nop,
        }
    }
}

impl CostModel {
    /// Cycles charged for one execution of `inst` carrying provenance
    /// `prov`: the base class cost, discounted for protection code.
    pub fn cost_tagged(&self, inst: &Inst, prov: Provenance) -> u64 {
        let base = self.cost(inst);
        if prov.is_protection() {
            (base * self.protection_percent / 100).max(1)
        } else {
            base
        }
    }

    /// Cycles charged for executing `inst` once.
    pub fn cost(&self, inst: &Inst) -> u64 {
        self.of_class(CostClass::classify(inst))
    }

    /// The cycles this model charges for one cost class — the only
    /// class→cycles table in the codebase.
    pub fn of_class(&self, class: CostClass) -> u64 {
        match class {
            CostClass::RegMove => self.reg_move,
            CostClass::MemLoad => self.mem_load,
            CostClass::MemStore => self.mem_store,
            CostClass::Alu => self.alu,
            CostClass::Mul => self.mul,
            CostClass::Div => self.div,
            CostClass::Jmp => self.jmp,
            CostClass::Jcc => self.jcc,
            CostClass::Call => self.call,
            CostClass::PushPop => self.push_pop,
            CostClass::SimdMove => self.simd_move,
            CostClass::SimdLogic => self.simd_logic,
            CostClass::SimdTest => self.simd_test,
            CostClass::Nop => self.nop,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ferrum_asm::inst::AluOp;
    use ferrum_asm::operand::MemRef;
    use ferrum_asm::reg::{Gpr, Reg, Width, Xmm, Ymm};

    #[test]
    fn memory_operands_cost_more() {
        let m = CostModel::default();
        let rr = Inst::Mov {
            w: Width::W64,
            src: Operand::Reg(Reg::q(Gpr::Rax)),
            dst: Operand::Reg(Reg::q(Gpr::Rcx)),
        };
        let load = Inst::Mov {
            w: Width::W64,
            src: Operand::Mem(MemRef::base_disp(Gpr::Rbp, -8)),
            dst: Operand::Reg(Reg::q(Gpr::Rcx)),
        };
        let store = Inst::Mov {
            w: Width::W64,
            src: Operand::Reg(Reg::q(Gpr::Rcx)),
            dst: Operand::Mem(MemRef::base_disp(Gpr::Rbp, -8)),
        };
        assert!(m.cost(&load) > m.cost(&rr));
        assert!(m.cost(&store) > m.cost(&rr));
    }

    #[test]
    fn division_is_expensive() {
        let m = CostModel::default();
        let div = Inst::Idiv {
            w: Width::W64,
            src: Operand::Reg(Reg::q(Gpr::Rcx)),
        };
        let add = Inst::Alu {
            op: AluOp::Add,
            w: Width::W64,
            src: Operand::Reg(Reg::q(Gpr::Rax)),
            dst: Operand::Reg(Reg::q(Gpr::Rcx)),
        };
        assert!(m.cost(&div) > 10 * m.cost(&add));
    }

    #[test]
    fn simd_checker_ops_are_cheap() {
        let m = CostModel::default();
        assert_eq!(
            m.cost(&Inst::Vpxor {
                a: Ymm::new(0),
                b: Ymm::new(1),
                dst: Ymm::new(0)
            }),
            m.simd_logic
        );
        assert_eq!(
            m.cost(&Inst::Vptest {
                a: Ymm::new(0),
                b: Ymm::new(0)
            }),
            m.simd_test
        );
        assert_eq!(
            m.cost(&Inst::Pinsrq {
                lane: 1,
                src: Operand::Reg(Reg::q(Gpr::Rdi)),
                dst: Xmm::new(0)
            }),
            m.simd_move
        );
    }

    #[test]
    fn protection_discount_applies_only_to_protection_code() {
        use ferrum_asm::provenance::{Provenance, TechniqueTag};
        let m = CostModel::default();
        let load = Inst::Mov {
            w: Width::W64,
            src: Operand::Mem(MemRef::base_disp(Gpr::Rbp, -8)),
            dst: Operand::Reg(Reg::q(Gpr::R10)),
        };
        let full = m.cost_tagged(&load, Provenance::FromIr(0));
        let disc = m.cost_tagged(&load, Provenance::Protection(TechniqueTag::Ferrum, ferrum_asm::provenance::Mechanism::Dup));
        assert_eq!(full, m.mem_load);
        assert_eq!(disc, (m.mem_load * m.protection_percent / 100).max(1));
        assert!(disc < full);
        // Discounted cost never reaches zero.
        let nop = Inst::Nop;
        assert!(m.cost_tagged(&nop, Provenance::Protection(TechniqueTag::Ferrum, ferrum_asm::provenance::Mechanism::Dup)) >= 1);
    }

    #[test]
    fn every_instruction_has_nonzero_cost() {
        let m = CostModel::default();
        for inst in [
            Inst::Nop,
            Inst::Ret,
            Inst::Cqo { w: Width::W64 },
            Inst::Jmp { target: "x".into() },
            Inst::Push {
                src: Operand::Reg(Reg::q(Gpr::R10)),
            },
        ] {
            assert!(m.cost(&inst) > 0);
        }
    }
}
