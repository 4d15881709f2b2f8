//! Property-based tests over the whole stack:
//!
//! * printer/parser round-trips on randomly generated instructions,
//! * random straight-line + branching MIR programs execute identically
//!   in the interpreter and the simulator, protected or not,
//! * random single-bit faults never silently corrupt a FERRUM- or
//!   hybrid-protected program.
//!
//! Compiled only with `--features proptest` after manually restoring
//! the external `proptest` dev-dependency (hermetic-build policy: the
//! default workspace must resolve with zero registry access).
#![cfg(feature = "proptest")]

use proptest::prelude::*;

use ferrum::{CampaignConfig, CoverageMap, Pipeline, StaticVerdict, StopReason, Technique};
use ferrum_asm::flags::Cc;
use ferrum_asm::inst::{AluOp, Inst, ShiftAmount, ShiftOp, UnaryOp};
use ferrum_asm::operand::{MemRef, Operand, Scale as MScale};
use ferrum_asm::reg::{Gpr, Reg, Width, Xmm, Ymm, ALL_GPRS};
use ferrum_cpu::fault::FaultSpec;
use ferrum_faultsim::campaign::{classify, run_campaign, run_campaign_pruned_on, Outcome};
use ferrum_faultsim::Engine;
use ferrum_mir::builder::FunctionBuilder;
use ferrum_mir::inst::{BinOp, ICmpPred};
use ferrum_mir::interp::Interp;
use ferrum_mir::module::Module;
use ferrum_mir::types::Ty;
use ferrum_mir::value::Value;

// ---------------------------------------------------------------------
// Printer / parser round trips
// ---------------------------------------------------------------------

fn gpr_strategy() -> impl Strategy<Value = Gpr> {
    (0usize..16).prop_map(|i| ALL_GPRS[i])
}

fn width_strategy() -> impl Strategy<Value = Width> {
    prop_oneof![
        Just(Width::W8),
        Just(Width::W16),
        Just(Width::W32),
        Just(Width::W64)
    ]
}

fn memref_strategy() -> impl Strategy<Value = MemRef> {
    (
        -512i64..512,
        proptest::option::of(gpr_strategy()),
        proptest::option::of((
            gpr_strategy(),
            prop_oneof![
                Just(MScale::S1),
                Just(MScale::S2),
                Just(MScale::S4),
                Just(MScale::S8)
            ],
        )),
    )
        .prop_map(|(disp, base, index)| {
            if base.is_none() && index.is_none() {
                MemRef::global("gsym", disp.abs())
            } else {
                MemRef {
                    disp,
                    base,
                    index,
                    symbol: None,
                }
            }
        })
}

fn operand_strategy() -> impl Strategy<Value = Operand> {
    prop_oneof![
        (gpr_strategy(), width_strategy()).prop_map(|(g, w)| Operand::Reg(Reg::gpr(g, w))),
        any::<i32>().prop_map(|v| Operand::Imm(i64::from(v))),
        memref_strategy().prop_map(Operand::Mem),
    ]
}

fn cc_strategy() -> impl Strategy<Value = Cc> {
    (0usize..12).prop_map(|i| Cc::ALL[i])
}

fn reg_op_strategy() -> impl Strategy<Value = Operand> {
    (gpr_strategy(), width_strategy()).prop_map(|(g, w)| Operand::Reg(Reg::gpr(g, w)))
}

fn inst_strategy() -> impl Strategy<Value = Inst> {
    prop_oneof![
        (width_strategy(), operand_strategy(), reg_op_strategy())
            .prop_map(|(w, src, dst)| Inst::Mov { w, src, dst }),
        (operand_strategy(), gpr_strategy()).prop_map(|(src, dst)| Inst::Movsx {
            src_w: Width::W32,
            dst_w: Width::W64,
            src,
            dst: Reg::q(dst),
        }),
        (memref_strategy(), gpr_strategy()).prop_map(|(mem, dst)| Inst::Lea {
            mem,
            dst: Reg::q(dst)
        }),
        (
            prop_oneof![
                Just(AluOp::Add),
                Just(AluOp::Sub),
                Just(AluOp::And),
                Just(AluOp::Or),
                Just(AluOp::Xor)
            ],
            width_strategy(),
            operand_strategy(),
            reg_op_strategy(),
        )
            .prop_map(|(op, w, src, dst)| Inst::Alu { op, w, src, dst }),
        (
            prop_oneof![Just(ShiftOp::Shl), Just(ShiftOp::Shr), Just(ShiftOp::Sar)],
            width_strategy(),
            prop_oneof![(0u8..64).prop_map(ShiftAmount::Imm), Just(ShiftAmount::Cl)],
            reg_op_strategy(),
        )
            .prop_map(|(op, w, amount, dst)| Inst::Shift { op, w, amount, dst }),
        (
            prop_oneof![Just(UnaryOp::Neg), Just(UnaryOp::Not)],
            width_strategy(),
            reg_op_strategy()
        )
            .prop_map(|(op, w, dst)| Inst::Unary { op, w, dst }),
        (width_strategy(), operand_strategy(), reg_op_strategy())
            .prop_map(|(w, src, dst)| Inst::Cmp { w, src, dst }),
        (cc_strategy(), reg_op_strategy()).prop_map(|(cc, dst)| {
            let dst = match dst {
                Operand::Reg(r) => Operand::Reg(Reg::b(r.gpr)),
                other => other,
            };
            Inst::Setcc { cc, dst }
        }),
        cc_strategy().prop_map(|cc| Inst::Jcc {
            cc,
            target: "label_x".into()
        }),
        (0u8..2, operand_strategy(), (0u8..16)).prop_map(|(lane, src, x)| Inst::Pinsrq {
            lane,
            src,
            dst: Xmm::new(x)
        }),
        (0u8..2, (0u8..16), (0u8..16), (0u8..16)).prop_map(|(lane, a, b, c)| {
            Inst::Vinserti128 {
                lane,
                src: Xmm::new(a),
                src2: Ymm::new(b),
                dst: Ymm::new(c),
            }
        }),
        ((0u8..16), (0u8..16), (0u8..16)).prop_map(|(a, b, c)| Inst::Vpxor {
            a: Ymm::new(a),
            b: Ymm::new(b),
            dst: Ymm::new(c)
        }),
        Just(Inst::Ret),
        Just(Inst::Nop),
        gpr_strategy().prop_map(|g| Inst::Push {
            src: Operand::Reg(Reg::q(g))
        }),
        gpr_strategy().prop_map(|g| Inst::Pop {
            dst: Operand::Reg(Reg::q(g))
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]
    #[test]
    fn printer_parser_round_trip(inst in inst_strategy()) {
        let text = ferrum_asm::printer::print_inst(&inst);
        let back = ferrum_asm::parser::parse_inst(&text)
            .unwrap_or_else(|e| panic!("parse `{text}`: {e}"));
        prop_assert_eq!(back, inst);
    }
}

// ---------------------------------------------------------------------
// Random MIR programs: differential execution + protection transparency
// ---------------------------------------------------------------------

/// A recipe for one random arithmetic program: op codes and operand
/// picks, interpreted deterministically by `build_program`.
#[derive(Debug, Clone)]
struct Recipe {
    seeds: Vec<i64>,
    steps: Vec<(u8, u8, u8)>,
    branch_on: u8,
}

fn recipe_strategy() -> impl Strategy<Value = Recipe> {
    (
        proptest::collection::vec(-1000i64..1000, 2..5),
        proptest::collection::vec((0u8..8, any::<u8>(), any::<u8>()), 1..24),
        any::<u8>(),
    )
        .prop_map(|(seeds, steps, branch_on)| Recipe {
            seeds,
            steps,
            branch_on,
        })
}

fn build_program(r: &Recipe) -> Module {
    let mut b = FunctionBuilder::new("main", &[], None);
    let mut vals: Vec<Value> = r.seeds.iter().map(|&v| b.iconst(Ty::I64, v)).collect();
    for &(op, x, y) in &r.steps {
        let a = vals[x as usize % vals.len()];
        let c = vals[y as usize % vals.len()];
        let v = match op {
            0 => b.add(Ty::I64, a, c),
            1 => b.sub(Ty::I64, a, c),
            2 => b.mul(Ty::I64, a, c),
            3 => b.and(Ty::I64, a, c),
            4 => b.or(Ty::I64, a, c),
            5 => b.xor(Ty::I64, a, c),
            6 => {
                let amt = b.iconst(Ty::I64, i64::from(y % 63));
                b.shl(Ty::I64, a, amt)
            }
            _ => {
                // Division by a guaranteed non-zero constant.
                let d = b.iconst(Ty::I64, i64::from(x % 17) + 1);
                b.sdiv(Ty::I64, a, d)
            }
        };
        vals.push(v);
    }
    // One branch: print a different summary per side.
    let last = *vals.last().expect("non-empty");
    let pivot = vals[r.branch_on as usize % vals.len()];
    let cond = b.icmp(ICmpPred::Slt, Ty::I64, pivot, last);
    let t = b.create_block("t");
    let e = b.create_block("e");
    b.br(cond, t, e);
    b.switch_to(t);
    let s = b.bin(BinOp::Add, Ty::I64, last, pivot);
    b.print(s);
    b.ret(None);
    b.switch_to(e);
    let d = b.bin(BinOp::Xor, Ty::I64, last, pivot);
    b.print(d);
    b.ret(None);
    Module::from_functions(vec![b.finish()])
}

/// A richer recipe with memory traffic: a scratch array in a global,
/// data-dependent stores/loads, and a bounded loop.
#[derive(Debug, Clone)]
struct MemRecipe {
    init: Vec<i64>,
    rounds: u8,
    ops: Vec<(u8, u8, i64)>,
}

fn mem_recipe_strategy() -> impl Strategy<Value = MemRecipe> {
    (
        proptest::collection::vec(-50i64..50, 4..8),
        1u8..5,
        proptest::collection::vec((0u8..4, any::<u8>(), -9i64..9), 1..10),
    )
        .prop_map(|(init, rounds, ops)| MemRecipe { init, rounds, ops })
}

fn build_mem_program(r: &MemRecipe) -> Module {
    use ferrum_mir::module::Global;
    let n = r.init.len();
    let mut module = Module::new();
    let g = module.add_global(Global::new("scratch", r.init.clone()));
    let mut b = FunctionBuilder::new("main", &[], None);
    let base = b.global(g);
    let nv = b.iconst(Ty::I64, n as i64);
    let rounds = b.iconst(Ty::I64, i64::from(r.rounds));
    let zero = b.iconst(Ty::I64, 0);
    // A manual counted loop (round counter in an alloca).
    let pr = b.alloca(Ty::I64);
    b.store(Ty::I64, zero, pr);
    let header = b.create_block("h");
    let body = b.create_block("b");
    let exit = b.create_block("x");
    b.jmp(header);
    b.switch_to(header);
    let cur = b.load(Ty::I64, pr);
    let c = b.icmp(ICmpPred::Slt, Ty::I64, cur, rounds);
    b.br(c, body, exit);
    b.switch_to(body);
    for &(op, idx_pick, k) in &r.ops {
        let i = b.iconst(Ty::I64, i64::from(idx_pick) % n as i64);
        let p = b.gep(base, i);
        let v = b.load(Ty::I64, p);
        let kc = b.iconst(Ty::I64, k);
        let nv2 = match op {
            0 => b.add(Ty::I64, v, kc),
            1 => b.mul(Ty::I64, v, kc),
            2 => b.xor(Ty::I64, v, kc),
            _ => b.sub(Ty::I64, v, kc),
        };
        b.store(Ty::I64, nv2, p);
    }
    let cur2 = b.load(Ty::I64, pr);
    let one = b.iconst(Ty::I64, 1);
    let nxt = b.add(Ty::I64, cur2, one);
    b.store(Ty::I64, nxt, pr);
    b.jmp(header);
    b.switch_to(exit);
    // Print a checksum of the array.
    let acc = b.alloca(Ty::I64);
    b.store(Ty::I64, zero, acc);
    let h2 = b.create_block("h2");
    let b2 = b.create_block("b2");
    let x2 = b.create_block("x2");
    let pi = b.alloca(Ty::I64);
    b.store(Ty::I64, zero, pi);
    b.jmp(h2);
    b.switch_to(h2);
    let i = b.load(Ty::I64, pi);
    let c2 = b.icmp(ICmpPred::Slt, Ty::I64, i, nv);
    b.br(c2, b2, x2);
    b.switch_to(b2);
    let i2 = b.load(Ty::I64, pi);
    let p = b.gep(base, i2);
    let v = b.load(Ty::I64, p);
    let s = b.load(Ty::I64, acc);
    let s2 = b.add(Ty::I64, s, v);
    b.store(Ty::I64, s2, acc);
    let one = b.iconst(Ty::I64, 1);
    let i3 = b.add(Ty::I64, i2, one);
    b.store(Ty::I64, i3, pi);
    b.jmp(h2);
    b.switch_to(x2);
    let out = b.load(Ty::I64, acc);
    b.print(out);
    b.ret(None);
    module.functions.push(b.finish());
    module
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn random_memory_programs_execute_identically_everywhere(r in mem_recipe_strategy()) {
        let module = build_mem_program(&r);
        ferrum_mir::verify::verify_module(&module).expect("verifies");
        let golden = Interp::new(&module).run().expect("interprets").output;
        let pipeline = Pipeline::new();
        for t in [
            Technique::None,
            Technique::IrEddi,
            Technique::HybridAsmEddi,
            Technique::Ferrum,
        ] {
            let prog = pipeline.protect(&module, t).expect("protects");
            let run = pipeline.load(&prog).expect("loads").run(None);
            prop_assert_eq!(run.stop, StopReason::MainReturned, "{}", t);
            prop_assert_eq!(&run.output, &golden, "{}", t);
        }
    }

    #[test]
    fn random_faults_never_silently_corrupt_ferrum_on_memory_programs(
        r in mem_recipe_strategy(),
        picks in proptest::collection::vec((any::<u64>(), any::<u16>()), 8),
    ) {
        let module = build_mem_program(&r);
        let pipeline = Pipeline::new();
        let prog = pipeline.protect(&module, Technique::Ferrum).expect("protects");
        let cpu = pipeline.load(&prog).expect("loads");
        let profile = cpu.profile();
        for (site_pick, raw_bit) in picks {
            let site = profile.sites[(site_pick % profile.sites.len() as u64) as usize];
            let run = cpu.run(Some(FaultSpec::new(site.dyn_index, raw_bit)));
            let outcome = classify(run.stop, &run.output, &profile.result.output);
            prop_assert_ne!(outcome, Outcome::Sdc, "site {:?}", site);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn random_programs_execute_identically_everywhere(r in recipe_strategy()) {
        let module = build_program(&r);
        ferrum_mir::verify::verify_module(&module).expect("verifies");
        let golden = Interp::new(&module).run().expect("interprets").output;
        let pipeline = Pipeline::new();
        for t in [
            Technique::None,
            Technique::IrEddi,
            Technique::HybridAsmEddi,
            Technique::Ferrum,
        ] {
            let prog = pipeline.protect(&module, t).expect("protects");
            let run = pipeline.load(&prog).expect("loads").run(None);
            prop_assert_eq!(run.stop, StopReason::MainReturned, "{}", t);
            prop_assert_eq!(&run.output, &golden, "{}", t);
        }
    }

    #[test]
    fn random_faults_never_silently_corrupt_ferrum(
        r in recipe_strategy(),
        picks in proptest::collection::vec((any::<u64>(), any::<u16>()), 12),
    ) {
        let module = build_program(&r);
        let pipeline = Pipeline::new();
        let prog = pipeline.protect(&module, Technique::Ferrum).expect("protects");
        let cpu = pipeline.load(&prog).expect("loads");
        let profile = cpu.profile();
        for (site_pick, raw_bit) in picks {
            let site = profile.sites[(site_pick % profile.sites.len() as u64) as usize];
            let run = cpu.run(Some(FaultSpec::new(site.dyn_index, raw_bit)));
            let outcome = classify(run.stop, &run.output, &profile.result.output);
            prop_assert_ne!(outcome, Outcome::Sdc, "site {:?}", site);
        }
    }

    #[test]
    fn static_verdicts_are_sound_on_random_programs(
        r in recipe_strategy(),
        picks in proptest::collection::vec((any::<u64>(), any::<u16>()), 12),
    ) {
        // The coverage map's decided verdicts must agree with real
        // injection on arbitrary generated programs, not just the
        // benchmark catalog.
        let module = build_program(&r);
        let pipeline = Pipeline::new();
        let prog = pipeline.protect(&module, Technique::Ferrum).expect("protects");
        let map = CoverageMap::analyze(&prog);
        let cpu = pipeline.load(&prog).expect("loads");
        let profile = cpu.profile();
        for (site_pick, raw_bit) in picks {
            let site = profile.sites[(site_pick % profile.sites.len() as u64) as usize];
            let run = cpu.run(Some(FaultSpec::new(site.dyn_index, raw_bit)));
            let outcome = classify(run.stop, &run.output, &profile.result.output);
            match map.verdict_at(site.pc, raw_bit) {
                Some(StaticVerdict::Masked) =>
                    prop_assert_eq!(outcome, Outcome::Benign, "site {:?}", site),
                Some(StaticVerdict::Detected) =>
                    prop_assert_eq!(outcome, Outcome::Detected, "site {:?}", site),
                _ => {}
            }
        }
    }

    #[test]
    fn pruned_campaign_matches_serial_on_random_programs(
        r in recipe_strategy(),
        seed in any::<u64>(),
    ) {
        let module = build_program(&r);
        let pipeline = Pipeline::new();
        let prog = pipeline.protect(&module, Technique::Ferrum).expect("protects");
        let map = CoverageMap::analyze(&prog);
        let cpu = pipeline.load(&prog).expect("loads");
        let profile = cpu.profile();
        let cfg = CampaignConfig { samples: 64, seed };
        let serial = run_campaign(&cpu, &profile, cfg);
        let pruned = run_campaign_pruned_on(Engine::Interpreter(&cpu), &profile, cfg, &map);
        prop_assert_eq!(serial, pruned);
    }

    #[test]
    fn random_faults_never_silently_corrupt_hybrid(
        r in recipe_strategy(),
        picks in proptest::collection::vec((any::<u64>(), any::<u16>()), 8),
    ) {
        let module = build_program(&r);
        let pipeline = Pipeline::new();
        let prog = pipeline.protect(&module, Technique::HybridAsmEddi).expect("protects");
        let cpu = pipeline.load(&prog).expect("loads");
        let profile = cpu.profile();
        for (site_pick, raw_bit) in picks {
            let site = profile.sites[(site_pick % profile.sites.len() as u64) as usize];
            let run = cpu.run(Some(FaultSpec::new(site.dyn_index, raw_bit)));
            let outcome = classify(run.stop, &run.output, &profile.result.output);
            prop_assert_ne!(outcome, Outcome::Sdc, "site {:?}", site);
        }
    }
}
