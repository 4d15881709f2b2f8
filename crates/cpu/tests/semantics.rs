//! Differential semantics tests: the simulator's ALU results must match
//! native Rust arithmetic at every width.
//!
//! The randomized sweeps run hermetically off `ferrum-rng`.

use ferrum_asm::inst::{AluOp, Inst, ShiftAmount, ShiftOp};
use ferrum_asm::operand::Operand;
use ferrum_asm::program::single_block_main;
use ferrum_asm::reg::{Gpr, Reg, Width};
use ferrum_cpu::run::Cpu;

fn exec_binop(op: AluOp, w: Width, a: u64, b: u64) -> u64 {
    let set_a = Inst::Mov {
        w: Width::W64,
        src: Operand::Imm(a as i64),
        dst: Operand::Reg(Reg::q(Gpr::Rax)),
    };
    let set_b = Inst::Mov {
        w: Width::W64,
        src: Operand::Imm(b as i64),
        dst: Operand::Reg(Reg::q(Gpr::Rcx)),
    };
    let alu = Inst::Alu {
        op,
        w,
        src: Operand::Reg(Reg::gpr(Gpr::Rcx, w)),
        dst: Operand::Reg(Reg::gpr(Gpr::Rax, w)),
    };
    // Expose the result through print (rdi), full width.
    let out = Inst::Mov {
        w: Width::W64,
        src: Operand::Reg(Reg::q(Gpr::Rax)),
        dst: Operand::Reg(Reg::q(Gpr::Rdi)),
    };
    let call = Inst::Call {
        target: "print_i64".into(),
    };
    let p = single_block_main(vec![set_a, set_b, alu, out, call]);
    let r = Cpu::load(&p).unwrap().run(None);
    r.output[0] as u64
}

fn native(op: AluOp, w: Width, a: u64, b: u64) -> u64 {
    let (a, b) = (a & w.mask(), b & w.mask());
    let r = match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
    } & w.mask();
    // Architectural register effect: 64-bit replaces, 32-bit
    // zero-extends, 8/16-bit merge into the old 64-bit value (which here
    // was `a` sign pattern from the full-width load).
    match w {
        Width::W64 | Width::W32 => r,
        _ => (a & !w.mask()) | r,
    }
}

fn check_alu_case(a: u64, b: u64, op: AluOp, w: Width) {
    // For narrow widths the destination's upper bits come from the
    // initial full-width value of rax, which is `a` itself.
    let expect = {
        let merged = native(op, w, a, b);
        match w {
            Width::W64 | Width::W32 => merged,
            _ => (a & !w.mask()) | (merged & w.mask()),
        }
    };
    assert_eq!(
        exec_binop(op, w, a, b),
        expect,
        "a={a:#x} b={b:#x} op={op:?} w={w}"
    );
}

fn check_shift_case(v: u64, amt: u8, w: Width) {
    let masked = u32::from(amt) & if w == Width::W64 { 63 } else { 31 };
    let set = Inst::Mov {
        w: Width::W64,
        src: Operand::Imm(v as i64),
        dst: Operand::Reg(Reg::q(Gpr::Rax)),
    };
    let sh = Inst::Shift {
        op: ShiftOp::Shl,
        w,
        amount: ShiftAmount::Imm(amt),
        dst: Operand::Reg(Reg::gpr(Gpr::Rax, w)),
    };
    let out = Inst::Mov {
        w: Width::W64,
        src: Operand::Reg(Reg::q(Gpr::Rax)),
        dst: Operand::Reg(Reg::q(Gpr::Rdi)),
    };
    let call = Inst::Call {
        target: "print_i64".into(),
    };
    let p = single_block_main(vec![set, sh, out, call]);
    let got = Cpu::load(&p).unwrap().run(None).output[0] as u64;
    let masked_v = v & w.mask();
    let expect = if masked == 0 {
        // zero-count shift leaves the register untouched (still the
        // full 64-bit value for W64, zero-extended original for W32
        // ... the register keeps its full value since no write).
        v
    } else {
        masked_v.wrapping_shl(masked) & w.mask()
    };
    assert_eq!(got, expect, "v={v:#x} amt={amt} w={w}");
}

#[test]
fn alu_matches_native_semantics_sweep() {
    let mut rng = ferrum_rng::Rng64::seed_from_u64(0x5EED_A1B2);
    // Boundary values plus a seeded random sweep at every width.
    let interesting = [0u64, 1, 0x7f, 0x80, 0xffff, u32::MAX as u64, u64::MAX];
    for op in [AluOp::Add, AluOp::Sub, AluOp::And, AluOp::Or, AluOp::Xor] {
        for w in Width::ALL {
            for &a in &interesting {
                for &b in &interesting {
                    check_alu_case(a, b, op, w);
                }
            }
        }
    }
    for _ in 0..200 {
        let a = rng.next_u64();
        let b = rng.next_u64();
        let op = [AluOp::Add, AluOp::Sub, AluOp::And, AluOp::Or, AluOp::Xor]
            [rng.gen_range(0..5usize)];
        let w = Width::ALL[rng.gen_range(0..4usize)];
        check_alu_case(a, b, op, w);
    }
}

#[test]
fn shifts_match_native_sweep() {
    let mut rng = ferrum_rng::Rng64::seed_from_u64(0x5EED_C3D4);
    for w in [Width::W32, Width::W64] {
        for amt in [0u8, 1, 31, 32, 63] {
            check_shift_case(u64::MAX, amt, w);
            check_shift_case(1, amt, w);
        }
    }
    for _ in 0..200 {
        let v = rng.next_u64();
        let amt = rng.gen_range(0..64u64) as u8;
        let w = [Width::W32, Width::W64][rng.gen_range(0..2usize)];
        check_shift_case(v, amt, w);
    }
}
