//! Decode-once flattened execution: the campaign-throughput engine.
//!
//! Every campaign engine bottoms out in [`crate::exec::step`], which
//! re-matches heap-carrying operand enums, re-resolves widths, and
//! re-prices the cost model on every dynamic instruction — even though
//! a campaign executes the same basic blocks millions of times.
//! [`DecodedCpu`] lowers a loaded [`Image`] **once** into a dense
//! flattened program (the `InstInfo { src_regs, out_regs, cycle }`
//! decode-once shape of DSVita's JIT; see SNIPPETS Snippet 1):
//!
//! * operands pre-resolved to width-applied registers, pre-masked
//!   immediates, and factor-multiplied address expressions (`DMem`) —
//!   no per-step `with_width`/`Scale::factor`/symbol plumbing;
//! * branch/call targets pre-resolved to flat indices (including the
//!   `exit_function` detection edge) — no [`TargetRef`] re-match;
//! * the per-instruction cycle cost (provenance discount included)
//!   baked in at lowering — no per-step [`CostModel`] dispatch;
//! * the fault-injection destination pre-classified (`DFault`) along
//!   with its eligible bit width — no per-step `dest_class` walk;
//! * the hot protection idioms (dup pairs, `pinsrq` pairs, and the
//!   `vpxor`+`vptest`+`jcc` checker triple) fused into
//!   superinstructions dispatched as one unit inside fault-free
//!   windows.
//!
//! Byte-identity contract: [`DecodedCpu`] exposes the full [`Cpu`]
//! surface (`run`, `run_multi`, `resume`, `profile`, plus
//! [`DecodedMachine`] with snapshot/restore), and every observable —
//! [`RunResult`]s, [`Profile`]s, [`Snapshot`] states — is
//! byte-identical to the interpreter's for the same program and
//! faults.  The lowering is a bijection on semantics: each `DOp`
//! mirrors one `exec::step` arm exactly (same read/write order, same
//! crash precedence, same flag updates), fused groups only ever
//! replace runs that contain no leader (jump target) in their interior
//! and no crash-capable constituent before the final instruction, and
//! the tight loop only dispatches a fused group when the whole group
//! fits below the next fault/timeout boundary.  `tests/` and the
//! `ferrum-cpu --selfcheck` catalog sweep pin the contract.

use ferrum_asm::flags::{Cc, FlagBit, Flags};
use ferrum_asm::inst::{AluOp, DestClass, Inst, RegMasks, ShiftAmount, ShiftOp, UnaryOp};
use ferrum_asm::operand::{MemRef, Operand};
use ferrum_asm::provenance::Provenance;
use ferrum_asm::reg::{Gpr, Reg, Width, Xmm, Ymm, Zmm};

use crate::cost::CostModel;
use crate::exec::{eligible_dest_bits, State, StepEvent};
use crate::fault::FaultSpec;
use crate::image::{Image, LoadedInst, TargetRef};
use crate::machine::RegFile;
use crate::outcome::{CrashKind, RunResult, StopReason};
use crate::profile::ProfileBuilder;
use crate::run::{Cpu, MechCounts, Profile, ProvCounts, SiteInfo};
use crate::snapshot::Snapshot;

/// Pre-resolved memory operand: absolute displacement, optional base,
/// and the index register with its scale factor already multiplied out.
#[derive(Debug, Clone, Copy)]
struct DMem {
    disp: u64,
    base: Option<Gpr>,
    index: Option<(Gpr, u64)>,
}

impl DMem {
    fn lower(m: &MemRef) -> DMem {
        debug_assert!(m.symbol.is_none(), "symbols resolved at image load");
        DMem {
            disp: m.disp as u64,
            base: m.base,
            index: m.index.map(|(g, s)| (g, s.factor())),
        }
    }

    #[inline]
    fn ea(&self, regs: &RegFile) -> u64 {
        let mut a = self.disp;
        if let Some(b) = self.base {
            a = a.wrapping_add(regs.read64(b));
        }
        if let Some((i, f)) = self.index {
            a = a.wrapping_add(regs.read64(i).wrapping_mul(f));
        }
        a
    }
}

/// Crash-free pre-resolved value source (register view or pre-masked
/// immediate) — the operand form fused superinstructions require.
#[derive(Debug, Clone, Copy)]
enum DVal {
    Reg(Reg),
    Imm(u64),
}

#[inline]
fn read_val(st: &State, v: &DVal) -> u64 {
    match v {
        DVal::Reg(r) => st.regs.read(*r),
        DVal::Imm(v) => *v,
    }
}

/// Pre-resolved source operand.
#[derive(Debug, Clone, Copy)]
enum DSrc {
    Reg(Reg),
    Imm(u64),
    Mem(DMem),
}

impl DSrc {
    fn lower(op: &Operand, w: Width) -> DSrc {
        match op {
            Operand::Reg(r) => DSrc::Reg(r.with_width(w)),
            Operand::Imm(v) => DSrc::Imm((*v as u64) & w.mask()),
            Operand::Mem(m) => DSrc::Mem(DMem::lower(m)),
        }
    }

    fn as_val(&self) -> Option<DVal> {
        match self {
            DSrc::Reg(r) => Some(DVal::Reg(*r)),
            DSrc::Imm(v) => Some(DVal::Imm(*v)),
            DSrc::Mem(_) => None,
        }
    }
}

/// Pre-resolved destination operand.
#[derive(Debug, Clone, Copy)]
enum DDst {
    Reg(Reg),
    Mem(DMem),
}

impl DDst {
    fn lower(op: &Operand, w: Width) -> DDst {
        match op {
            Operand::Reg(r) => DDst::Reg(r.with_width(w)),
            Operand::Mem(m) => DDst::Mem(DMem::lower(m)),
            Operand::Imm(_) => unreachable!("immediate destination"),
        }
    }
}

#[inline]
fn read_src(st: &State, s: &DSrc, w: Width) -> Result<u64, CrashKind> {
    match s {
        DSrc::Reg(r) => Ok(st.regs.read(*r)),
        DSrc::Imm(v) => Ok(*v),
        DSrc::Mem(m) => st
            .mem
            .load_w(m.ea(&st.regs), w)
            .map_err(|f| CrashKind::OutOfBounds(f.addr)),
    }
}

#[inline]
fn read_dst(st: &State, d: &DDst, w: Width) -> Result<u64, CrashKind> {
    match d {
        DDst::Reg(r) => Ok(st.regs.read(*r)),
        DDst::Mem(m) => st
            .mem
            .load_w(m.ea(&st.regs), w)
            .map_err(|f| CrashKind::OutOfBounds(f.addr)),
    }
}

#[inline]
fn write_dst(st: &mut State, d: &DDst, w: Width, v: u64) -> Result<(), CrashKind> {
    match d {
        DDst::Reg(r) => {
            st.regs.write(*r, v);
            Ok(())
        }
        DDst::Mem(m) => st
            .mem
            .store_w(m.ea(&st.regs), w, v)
            .map_err(|f| CrashKind::OutOfBounds(f.addr)),
    }
}

/// One flattened operation.  Each variant mirrors exactly one
/// `exec::step` arm; register operands are pre-width-applied and
/// control targets pre-resolved.
#[derive(Debug, Clone, Copy)]
enum DOp {
    Nop,
    Mov { w: Width, src: DSrc, dst: DDst },
    Movsx { src_w: Width, src: DSrc, dst: Reg },
    Movzx { src_w: Width, src: DSrc, dst: Reg },
    Lea { mem: DMem, dst: Reg },
    Alu { op: AluOp, w: Width, src: DSrc, dst: DDst },
    Imul { w: Width, src: DSrc, dst: Reg },
    Unary { op: UnaryOp, w: Width, dst: DDst },
    Shift { op: ShiftOp, w: Width, amount: ShiftAmount, dst: DDst },
    Cqo { w: Width },
    Idiv { w: Width, src: DSrc },
    Cmp { w: Width, src: DSrc, dst: DSrc },
    Test { w: Width, src: DSrc, dst: DSrc },
    Setcc { cc: Cc, dst: DDst },
    Jmp { t: usize },
    JmpExit,
    Jcc { cc: Cc, t: usize },
    JccExit { cc: Cc },
    Call { t: usize },
    CallPrint,
    CallExit,
    Ret,
    Push { src: DSrc },
    Pop { dst: DDst },
    MovqToXmm { src: DSrc, dst: Xmm },
    MovqFromXmm { src: Xmm, dst: Reg },
    Pinsrq { lane: u8, src: DSrc, dst: Xmm },
    Pextrq { lane: u8, src: Xmm, dst: Reg },
    Vinserti128 { lane: u8, src: Xmm, src2: Ymm, dst: Ymm },
    VpxorY { a: Ymm, b: Ymm, dst: Ymm },
    VptestY { a: Ymm, b: Ymm },
    VpxorX { a: Xmm, b: Xmm, dst: Xmm },
    VptestX { a: Xmm, b: Xmm },
    Vinserti64x4 { lane: u8, src: Ymm, src2: Zmm, dst: Zmm },
    VpxorZ { a: Zmm, b: Zmm, dst: Zmm },
    VptestZ { a: Zmm, b: Zmm },
}

/// Pre-classified fault destination — `exec::apply_fault` without the
/// per-injection `dest_class` walk.
#[derive(Debug, Clone, Copy)]
enum DFault {
    None,
    Gpr(Reg),
    Pair(Width),
    Flags,
    Simd { idx: u8, bits: u16 },
}

#[inline]
fn apply_dfault(f: DFault, raw_bit: u16, st: &mut State) {
    match f {
        DFault::None => {}
        DFault::Gpr(r) => st.regs.flip_gpr_bit(r, u32::from(raw_bit) % r.width.bits()),
        DFault::Pair(w) => {
            let bits = w.bits();
            let sel = u32::from(raw_bit) % (2 * bits);
            let (g, bit) = if sel < bits {
                (Gpr::Rax, sel)
            } else {
                (Gpr::Rdx, sel - bits)
            };
            st.regs.flip_gpr_bit(Reg::gpr(g, w), bit);
        }
        DFault::Flags => {
            let bit = FlagBit::ALL[usize::from(raw_bit) % 4];
            st.regs.flags.flip(bit);
        }
        DFault::Simd { idx, bits } => st
            .regs
            .flip_simd_bit(idx, u32::from(raw_bit) % u32::from(bits)),
    }
}

/// One decoded instruction with everything the hot loop needs
/// pre-computed.
#[derive(Debug, Clone)]
struct DInst {
    op: DOp,
    prov: Provenance,
    /// Cycle cost under the decode-time [`CostModel`], provenance
    /// discount included.
    cost: u64,
    /// Injectable destination width in bits; 0 when not a fault site.
    eligible: u16,
    /// True when the injectable destination is RFLAGS.
    is_flags: bool,
    fault: DFault,
    /// Compact src/out register touch sets ([`Inst::reg_masks`]),
    /// decoded once — consumed by the fault-propagation summary builder
    /// and by the masked golden-trace convergence compare.
    masks: RegMasks,
    /// Index into the fused-group table when this instruction leads a
    /// superinstruction; `u32::MAX` otherwise.
    fuse: u32,
}

/// Resolved control target of a fused checker.
#[derive(Debug, Clone, Copy)]
enum FTarget {
    Index(usize),
    Exit,
}

/// A fused superinstruction — the hot dup/check idioms of protected
/// code dispatched as one unit.
#[derive(Debug, Clone, Copy)]
#[allow(clippy::enum_variant_names)]
enum FOp {
    /// Two consecutive `movq`-to-XMM duplications with crash-free
    /// sources.
    Dup2 { s1: DVal, d1: Xmm, s2: DVal, d2: Xmm },
    /// Two consecutive `pinsrq` lane captures with crash-free sources.
    Pinsr2 { l1: u8, s1: DVal, d1: Xmm, l2: u8, s2: DVal, d2: Xmm },
    /// `vpxor` + `vptest` + `jcc`: the 128-bit checker tail.
    CheckX { a: Xmm, b: Xmm, dst: Xmm, ta: Xmm, tb: Xmm, cc: Cc, t: FTarget },
    /// The 256-bit checker tail (Fig. 6's batch check).
    CheckY { a: Ymm, b: Ymm, dst: Ymm, ta: Ymm, tb: Ymm, cc: Cc, t: FTarget },
    /// The 512-bit checker tail.
    CheckZ { a: Zmm, b: Zmm, dst: Zmm, ta: Zmm, tb: Zmm, cc: Cc, t: FTarget },
}

/// A fused group: its operation, constituent count, and summed cost.
#[derive(Debug, Clone, Copy)]
struct DFused {
    op: FOp,
    len: u8,
    cost: u64,
}

const NO_FUSE: u32 = u32::MAX;

/// A [`Cpu`] lowered once into a flattened program.
///
/// Construction clones the source `Cpu` (images are loaded once per
/// campaign; the clone keeps lifetimes simple) and bakes in its cost
/// model, so later cost-model changes require re-decoding.
#[derive(Debug, Clone)]
pub struct DecodedCpu {
    cpu: Cpu,
    code: Vec<DInst>,
    fused: Vec<DFused>,
    /// GPRs any instruction writes or any fault can corrupt (bit per
    /// [`Gpr::index`](ferrum_asm::reg::Gpr::index)).  Registers outside
    /// this mask keep their load-time value in every run of the
    /// program, so state compares may skip them.
    touched_gpr: u16,
    /// SIMD registers any instruction writes or any fault can corrupt.
    touched_simd: u16,
}

impl DecodedCpu {
    /// Lowers `cpu`'s loaded image into a flattened program.
    pub fn new(cpu: &Cpu) -> DecodedCpu {
        let (code, fused) = lower(cpu);
        let mut touched_gpr = 0u16;
        let mut touched_simd = 0u16;
        for d in &code {
            touched_gpr |= d.masks.out_gpr;
            touched_simd |= d.masks.out_simd;
            match d.fault {
                DFault::Gpr(r) => touched_gpr |= 1 << r.gpr.index(),
                DFault::Pair(_) => {
                    touched_gpr |= (1 << Gpr::Rax.index()) | (1 << Gpr::Rdx.index());
                }
                DFault::Simd { idx, .. } => touched_simd |= 1 << idx,
                DFault::Flags | DFault::None => {}
            }
        }
        DecodedCpu {
            cpu: cpu.clone(),
            code,
            fused,
            touched_gpr,
            touched_simd,
        }
    }

    /// The underlying interpreter-facing [`Cpu`].
    pub fn cpu(&self) -> &Cpu {
        &self.cpu
    }

    /// The loaded image.
    pub fn image(&self) -> &Image {
        self.cpu.image()
    }

    /// The cost model baked into the lowering.
    pub fn cost_model(&self) -> &CostModel {
        self.cpu.cost_model()
    }

    /// The active step limit.
    pub fn step_limit(&self) -> u64 {
        self.cpu.step_limit()
    }

    /// Number of fused superinstruction groups in the program.
    pub fn superinstructions(&self) -> usize {
        self.fused.len()
    }

    /// Runs the program, optionally injecting one fault.
    pub fn run(&self, fault: Option<FaultSpec>) -> RunResult {
        match fault {
            Some(f) => self.run_multi(&[f]),
            None => self.run_multi(&[]),
        }
    }

    /// Runs the program injecting every fault in `faults`.
    pub fn run_multi(&self, faults: &[FaultSpec]) -> RunResult {
        DecodedMachine::new(self).run_to_completion(faults)
    }

    /// Resumes execution from a [`Snapshot`] (interchangeable with the
    /// interpreter's — both machines execute over the same [`State`]).
    pub fn resume(&self, snap: &Snapshot, faults: &[FaultSpec]) -> RunResult {
        let mut m = DecodedMachine::new(self);
        m.restore(snap);
        m.run_to_completion(faults)
    }

    /// [`DecodedCpu::resume`] with the golden-trace convergence
    /// short-circuit: once every fault has been applied, the run is
    /// compared against the fault-free run's `checkpoints` (snapshots
    /// taken along the golden execution, ascending in dynamic index)
    /// whenever it crosses one's dynamic index, and on an exact
    /// architectural-state match the remainder of the result is
    /// stitched from `golden` (the fault-free [`RunResult`]) instead of
    /// being re-executed.  See [`DecodedMachine::run_converging`] for
    /// the identity argument.  Campaigns spend most of their samples on
    /// faults that die quickly — a flipped bit overwritten before it is
    /// read — so this turns the typical post-fault suffix from a full
    /// re-execution into a short run plus one state compare.
    pub fn resume_converging(
        &self,
        snap: &Snapshot,
        faults: &[FaultSpec],
        checkpoints: &[Snapshot],
        golden: &RunResult,
    ) -> RunResult {
        let mut m = DecodedMachine::new(self);
        m.restore(snap);
        m.run_converging(faults, checkpoints, golden)
    }

    /// [`DecodedCpu::run_multi`] with the golden-trace convergence
    /// short-circuit of [`DecodedCpu::resume_converging`].
    pub fn run_converging(
        &self,
        faults: &[FaultSpec],
        checkpoints: &[Snapshot],
        golden: &RunResult,
    ) -> RunResult {
        DecodedMachine::new(self).run_converging(faults, checkpoints, golden)
    }

    /// Runs fault-free while recording every injectable dynamic site.
    /// Byte-identical to [`Cpu::profile`] on the same program.
    pub fn profile(&self) -> Profile {
        let mut st = State::new(self.cpu.image());
        let mut cycles = 0u64;
        let mut n = 0u64;
        let mut sites = Vec::new();
        let mut prov_counts = ProvCounts::default();
        let mut mech_counts = MechCounts::default();
        let mut pcs = ProfileBuilder::new(self.cpu.image());
        loop {
            if n >= self.cpu.step_limit() {
                return Profile {
                    sites,
                    prov_counts,
                    mech_counts,
                    pcs: pcs.finish(),
                    result: RunResult {
                        stop: StopReason::Timeout,
                        output: st.output,
                        cycles,
                        dyn_insts: n,
                    },
                };
            }
            let pc = st.pc;
            let d = &self.code[pc];
            match d.prov {
                Provenance::FromIr(_) => prov_counts.from_ir += 1,
                Provenance::Glue(_) => prov_counts.glue += 1,
                Provenance::Protection(..) => prov_counts.protection += 1,
                Provenance::Synthetic => prov_counts.synthetic += 1,
            }
            if d.eligible != 0 {
                sites.push(SiteInfo {
                    dyn_index: n,
                    pc,
                    prov: d.prov,
                    is_flags: d.is_flags,
                    bits: u32::from(d.eligible),
                });
            }
            let ev = exec_dop(&d.op, &mut st);
            cycles += d.cost;
            if let Some(m) = d.prov.mechanism() {
                mech_counts.add(m, d.cost);
            }
            pcs.record(pc, d.cost);
            match d.op {
                DOp::Call { t } => pcs.enter(t),
                DOp::Ret => pcs.leave(),
                _ => {}
            }
            n += 1;
            if let StepEvent::Stop(stop) = ev {
                return Profile {
                    sites,
                    prov_counts,
                    mech_counts,
                    pcs: pcs.finish(),
                    result: RunResult {
                        stop,
                        output: st.output,
                        cycles,
                        dyn_insts: n,
                    },
                };
            }
        }
    }
}

fn lower(cpu: &Cpu) -> (Vec<DInst>, Vec<DFused>) {
    let image = cpu.image();
    let cost = cpu.cost_model();
    let mut code: Vec<DInst> = image
        .insts
        .iter()
        .map(|li| lower_inst(li, cost))
        .collect();

    // Leaders: indices control flow can land on.  A fused group must
    // not span one — a jump into its interior would observe a state the
    // group never materialises.
    let mut leader = vec![false; code.len()];
    if image.entry < leader.len() {
        leader[image.entry] = true;
    }
    for (pc, li) in image.insts.iter().enumerate() {
        if let TargetRef::Index(t) = li.target {
            leader[t] = true;
        }
        // `ret` jumps to the fall-through of the matching call.
        if matches!(li.inst, Inst::Call { .. })
            && matches!(li.target, TargetRef::Index(_))
            && pc + 1 < leader.len()
        {
            leader[pc + 1] = true;
        }
    }

    let mut fused: Vec<DFused> = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if let Some(g) = try_fuse(&code, &leader, i) {
            code[i].fuse = fused.len() as u32;
            let len = usize::from(g.len);
            fused.push(g);
            i += len;
        } else {
            i += 1;
        }
    }
    (code, fused)
}

fn lower_inst(li: &LoadedInst, cost: &CostModel) -> DInst {
    let inst = &li.inst;
    let op = match inst {
        Inst::Nop => DOp::Nop,
        Inst::Mov { w, src, dst } => DOp::Mov {
            w: *w,
            src: DSrc::lower(src, *w),
            dst: DDst::lower(dst, *w),
        },
        Inst::Movsx {
            src_w,
            dst_w,
            src,
            dst,
        } => DOp::Movsx {
            src_w: *src_w,
            src: DSrc::lower(src, *src_w),
            dst: dst.with_width(*dst_w),
        },
        Inst::Movzx {
            src_w,
            dst_w,
            src,
            dst,
        } => DOp::Movzx {
            src_w: *src_w,
            src: DSrc::lower(src, *src_w),
            dst: dst.with_width(*dst_w),
        },
        Inst::Lea { mem, dst } => DOp::Lea {
            mem: DMem::lower(mem),
            dst: dst.with_width(Width::W64),
        },
        Inst::Alu { op, w, src, dst } => DOp::Alu {
            op: *op,
            w: *w,
            src: DSrc::lower(src, *w),
            dst: DDst::lower(dst, *w),
        },
        Inst::Imul { w, src, dst } => DOp::Imul {
            w: *w,
            src: DSrc::lower(src, *w),
            dst: dst.with_width(*w),
        },
        Inst::Unary { op, w, dst } => DOp::Unary {
            op: *op,
            w: *w,
            dst: DDst::lower(dst, *w),
        },
        Inst::Shift { op, w, amount, dst } => DOp::Shift {
            op: *op,
            w: *w,
            amount: *amount,
            dst: DDst::lower(dst, *w),
        },
        Inst::Cqo { w } => DOp::Cqo { w: *w },
        Inst::Idiv { w, src } => DOp::Idiv {
            w: *w,
            src: DSrc::lower(src, *w),
        },
        Inst::Cmp { w, src, dst } => DOp::Cmp {
            w: *w,
            src: DSrc::lower(src, *w),
            dst: DSrc::lower(dst, *w),
        },
        Inst::Test { w, src, dst } => DOp::Test {
            w: *w,
            src: DSrc::lower(src, *w),
            dst: DSrc::lower(dst, *w),
        },
        Inst::Setcc { cc, dst } => DOp::Setcc {
            cc: *cc,
            dst: DDst::lower(dst, Width::W8),
        },
        Inst::Jmp { .. } => match li.target {
            TargetRef::Index(t) => DOp::Jmp { t },
            TargetRef::Exit => DOp::JmpExit,
            _ => unreachable!("jmp target resolved at load"),
        },
        Inst::Jcc { cc, .. } => match li.target {
            TargetRef::Index(t) => DOp::Jcc { cc: *cc, t },
            TargetRef::Exit => DOp::JccExit { cc: *cc },
            _ => unreachable!("jcc target resolved at load"),
        },
        Inst::Call { .. } => match li.target {
            TargetRef::Index(t) => DOp::Call { t },
            TargetRef::Print => DOp::CallPrint,
            TargetRef::Exit => DOp::CallExit,
            TargetRef::None => unreachable!("call target resolved at load"),
        },
        Inst::Ret => DOp::Ret,
        Inst::Push { src } => DOp::Push {
            src: DSrc::lower(src, Width::W64),
        },
        Inst::Pop { dst } => DOp::Pop {
            dst: DDst::lower(dst, Width::W64),
        },
        Inst::MovqToXmm { src, dst } => DOp::MovqToXmm {
            src: DSrc::lower(src, Width::W64),
            dst: *dst,
        },
        Inst::MovqFromXmm { src, dst } => DOp::MovqFromXmm {
            src: *src,
            dst: dst.with_width(Width::W64),
        },
        Inst::Pinsrq { lane, src, dst } => DOp::Pinsrq {
            lane: *lane,
            src: DSrc::lower(src, Width::W64),
            dst: *dst,
        },
        Inst::Pextrq { lane, src, dst } => DOp::Pextrq {
            lane: *lane,
            src: *src,
            dst: dst.with_width(Width::W64),
        },
        Inst::Vinserti128 {
            lane,
            src,
            src2,
            dst,
        } => DOp::Vinserti128 {
            lane: *lane,
            src: *src,
            src2: *src2,
            dst: *dst,
        },
        Inst::Vpxor { a, b, dst } => DOp::VpxorY {
            a: *a,
            b: *b,
            dst: *dst,
        },
        Inst::Vptest { a, b } => DOp::VptestY { a: *a, b: *b },
        Inst::Vpxor128 { a, b, dst } => DOp::VpxorX {
            a: *a,
            b: *b,
            dst: *dst,
        },
        Inst::Vptest128 { a, b } => DOp::VptestX { a: *a, b: *b },
        Inst::Vinserti64x4 {
            lane,
            src,
            src2,
            dst,
        } => DOp::Vinserti64x4 {
            lane: *lane,
            src: *src,
            src2: *src2,
            dst: *dst,
        },
        Inst::Vpxor512 { a, b, dst } => DOp::VpxorZ {
            a: *a,
            b: *b,
            dst: *dst,
        },
        Inst::Vptest512 { a, b } => DOp::VptestZ { a: *a, b: *b },
    };
    let fault = match inst.dest_class() {
        DestClass::Gpr(r) => DFault::Gpr(r),
        DestClass::RaxRdxPair(w) => DFault::Pair(w),
        DestClass::Rflags => DFault::Flags,
        DestClass::Xmm(x) => DFault::Simd { idx: x.0, bits: 128 },
        DestClass::Ymm(y) => DFault::Simd { idx: y.0, bits: 256 },
        DestClass::Zmm(z) => DFault::Simd { idx: z.0, bits: 512 },
        DestClass::None => DFault::None,
    };
    DInst {
        op,
        prov: li.prov,
        cost: cost.cost_tagged(inst, li.prov),
        eligible: eligible_dest_bits(inst).unwrap_or(0) as u16,
        is_flags: matches!(inst.dest_class(), DestClass::Rflags),
        fault,
        masks: inst.reg_masks(),
        fuse: NO_FUSE,
    }
}

fn jcc_parts(op: &DOp) -> Option<(Cc, FTarget)> {
    match op {
        DOp::Jcc { cc, t } => Some((*cc, FTarget::Index(*t))),
        DOp::JccExit { cc } => Some((*cc, FTarget::Exit)),
        _ => None,
    }
}

fn try_fuse(code: &[DInst], leader: &[bool], i: usize) -> Option<DFused> {
    // Checker triples first (longest match).
    if i + 2 < code.len() && !leader[i + 1] && !leader[i + 2] {
        let cost = code[i].cost + code[i + 1].cost + code[i + 2].cost;
        match (&code[i].op, &code[i + 1].op, &code[i + 2].op) {
            (DOp::VpxorX { a, b, dst }, DOp::VptestX { a: ta, b: tb }, j) => {
                if let Some((cc, t)) = jcc_parts(j) {
                    return Some(DFused {
                        op: FOp::CheckX {
                            a: *a,
                            b: *b,
                            dst: *dst,
                            ta: *ta,
                            tb: *tb,
                            cc,
                            t,
                        },
                        len: 3,
                        cost,
                    });
                }
            }
            (DOp::VpxorY { a, b, dst }, DOp::VptestY { a: ta, b: tb }, j) => {
                if let Some((cc, t)) = jcc_parts(j) {
                    return Some(DFused {
                        op: FOp::CheckY {
                            a: *a,
                            b: *b,
                            dst: *dst,
                            ta: *ta,
                            tb: *tb,
                            cc,
                            t,
                        },
                        len: 3,
                        cost,
                    });
                }
            }
            (DOp::VpxorZ { a, b, dst }, DOp::VptestZ { a: ta, b: tb }, j) => {
                if let Some((cc, t)) = jcc_parts(j) {
                    return Some(DFused {
                        op: FOp::CheckZ {
                            a: *a,
                            b: *b,
                            dst: *dst,
                            ta: *ta,
                            tb: *tb,
                            cc,
                            t,
                        },
                        len: 3,
                        cost,
                    });
                }
            }
            _ => {}
        }
    }
    // Crash-free duplication/capture pairs.
    if i + 1 < code.len() && !leader[i + 1] {
        let cost = code[i].cost + code[i + 1].cost;
        match (&code[i].op, &code[i + 1].op) {
            (DOp::MovqToXmm { src: s1, dst: d1 }, DOp::MovqToXmm { src: s2, dst: d2 }) => {
                if let (Some(s1), Some(s2)) = (s1.as_val(), s2.as_val()) {
                    return Some(DFused {
                        op: FOp::Dup2 {
                            s1,
                            d1: *d1,
                            s2,
                            d2: *d2,
                        },
                        len: 2,
                        cost,
                    });
                }
            }
            (
                DOp::Pinsrq {
                    lane: l1,
                    src: s1,
                    dst: d1,
                },
                DOp::Pinsrq {
                    lane: l2,
                    src: s2,
                    dst: d2,
                },
            ) => {
                if let (Some(s1), Some(s2)) = (s1.as_val(), s2.as_val()) {
                    return Some(DFused {
                        op: FOp::Pinsr2 {
                            l1: *l1,
                            s1,
                            d1: *d1,
                            l2: *l2,
                            s2,
                            d2: *d2,
                        },
                        len: 2,
                        cost,
                    });
                }
            }
            _ => {}
        }
    }
    None
}

/// Executes the flattened operation at `st.pc`, advancing `st.pc` —
/// the decode-once mirror of `exec::step` (same read/write order, same
/// crash precedence, same flag updates).
fn exec_dop(op: &DOp, st: &mut State) -> StepEvent {
    let next = st.pc + 1;
    macro_rules! crash {
        ($e:expr) => {
            match $e {
                Ok(v) => v,
                Err(k) => return StepEvent::Stop(StopReason::Crash(k)),
            }
        };
    }
    match op {
        DOp::Nop => {}
        DOp::Mov { w, src, dst } => {
            let v = crash!(read_src(st, src, *w));
            crash!(write_dst(st, dst, *w, v));
        }
        DOp::Movsx { src_w, src, dst } => {
            let v = crash!(read_src(st, src, *src_w));
            let ext = src_w.sext(v) as u64;
            st.regs.write(*dst, ext & dst.width.mask());
        }
        DOp::Movzx { src_w, src, dst } => {
            let v = crash!(read_src(st, src, *src_w));
            st.regs.write(*dst, v & src_w.mask());
        }
        DOp::Lea { mem, dst } => {
            let a = mem.ea(&st.regs);
            st.regs.write(*dst, a);
        }
        DOp::Alu { op, w, src, dst } => {
            let b = crash!(read_src(st, src, *w));
            let a = crash!(read_dst(st, dst, *w));
            let (r, flags) = match op {
                AluOp::Add => {
                    let r = a.wrapping_add(b) & w.mask();
                    (r, Flags::from_add(a, b, *w))
                }
                AluOp::Sub => {
                    let r = a.wrapping_sub(b) & w.mask();
                    (r, Flags::from_sub(a, b, *w))
                }
                AluOp::And => {
                    let r = a & b;
                    (r, Flags::from_logic(r, *w))
                }
                AluOp::Or => {
                    let r = a | b;
                    (r, Flags::from_logic(r, *w))
                }
                AluOp::Xor => {
                    let r = a ^ b;
                    (r, Flags::from_logic(r, *w))
                }
            };
            st.regs.flags = flags;
            crash!(write_dst(st, dst, *w, r));
        }
        DOp::Imul { w, src, dst } => {
            let b = crash!(read_src(st, src, *w));
            let a = st.regs.read(*dst);
            let full = i128::from(w.sext(a)) * i128::from(w.sext(b));
            let r = (full as u64) & w.mask();
            let overflow = full != i128::from(w.sext(r));
            let mut flags = Flags::from_logic(r, *w);
            flags.cf = overflow;
            flags.of = overflow;
            st.regs.flags = flags;
            st.regs.write(*dst, r);
        }
        DOp::Unary { op, w, dst } => {
            let v = crash!(read_dst(st, dst, *w));
            match op {
                UnaryOp::Neg => {
                    let r = 0u64.wrapping_sub(v) & w.mask();
                    st.regs.flags = Flags::from_sub(0, v, *w);
                    crash!(write_dst(st, dst, *w, r));
                }
                UnaryOp::Not => {
                    crash!(write_dst(st, dst, *w, !v & w.mask()));
                }
            }
        }
        DOp::Shift { op, w, amount, dst } => {
            let amt_mask = if *w == Width::W64 { 63 } else { 31 };
            let amt = match amount {
                ShiftAmount::Imm(n) => u32::from(*n) & amt_mask,
                ShiftAmount::Cl => (st.regs.read(Reg::b(Gpr::Rcx)) as u32) & amt_mask,
            };
            let v = crash!(read_dst(st, dst, *w));
            if amt != 0 {
                let bits = w.bits();
                let (r, cf) = match op {
                    ShiftOp::Shl => {
                        let r = v.wrapping_shl(amt) & w.mask();
                        let cf = amt <= bits && (v >> (bits - amt)) & 1 == 1;
                        (r, cf)
                    }
                    ShiftOp::Shr => {
                        let r = (v & w.mask()) >> amt.min(63);
                        let cf = (v >> (amt - 1)) & 1 == 1;
                        (r, cf)
                    }
                    ShiftOp::Sar => {
                        let s = w.sext(v);
                        let r = (s >> amt.min(63) as i64) as u64 & w.mask();
                        let cf = (v >> (amt - 1)) & 1 == 1;
                        (r, cf)
                    }
                };
                let mut flags = Flags::from_logic(r, *w);
                flags.cf = cf;
                st.regs.flags = flags;
                crash!(write_dst(st, dst, *w, r));
            }
        }
        DOp::Cqo { w } => match w {
            Width::W64 => {
                let rax = st.regs.read64(Gpr::Rax) as i64;
                st.regs.write64(Gpr::Rdx, (rax >> 63) as u64);
            }
            _ => {
                let eax = st.regs.read(Reg::l(Gpr::Rax));
                let sign = (Width::W32.sext(eax) >> 31) as u64;
                st.regs.write(Reg::l(Gpr::Rdx), sign & Width::W32.mask());
            }
        },
        DOp::Idiv { w, src } => {
            let divisor = w.sext(crash!(read_src(st, src, *w)));
            if divisor == 0 {
                return StepEvent::Stop(StopReason::Crash(CrashKind::DivideError));
            }
            let (lo, hi) = (
                st.regs.read(Reg::gpr(Gpr::Rax, *w)),
                st.regs.read(Reg::gpr(Gpr::Rdx, *w)),
            );
            let dividend: i128 = match w {
                Width::W64 => ((i128::from(hi as i64)) << 64) | i128::from(lo),
                _ => {
                    let bits = w.bits();
                    ((i128::from(w.sext(hi))) << bits) | i128::from(lo)
                }
            };
            let quot = dividend / i128::from(divisor);
            let rem = dividend % i128::from(divisor);
            let fits = match w {
                Width::W64 => quot >= i128::from(i64::MIN) && quot <= i128::from(i64::MAX),
                _ => {
                    let half = 1i128 << (w.bits() - 1);
                    quot >= -half && quot < half
                }
            };
            if !fits {
                return StepEvent::Stop(StopReason::Crash(CrashKind::DivideError));
            }
            st.regs
                .write(Reg::gpr(Gpr::Rax, *w), quot as u64 & w.mask());
            st.regs.write(Reg::gpr(Gpr::Rdx, *w), rem as u64 & w.mask());
        }
        DOp::Cmp { w, src, dst } => {
            let b = crash!(read_src(st, src, *w));
            let a = crash!(read_src(st, dst, *w));
            st.regs.flags = Flags::from_sub(a, b, *w);
        }
        DOp::Test { w, src, dst } => {
            let b = crash!(read_src(st, src, *w));
            let a = crash!(read_src(st, dst, *w));
            st.regs.flags = Flags::from_logic(a & b, *w);
        }
        DOp::Setcc { cc, dst } => {
            let v = u64::from(cc.eval(st.regs.flags));
            crash!(write_dst(st, dst, Width::W8, v));
        }
        DOp::Jmp { t } => {
            st.pc = *t;
            return StepEvent::Continue;
        }
        DOp::JmpExit => return StepEvent::Stop(StopReason::Detected),
        DOp::Jcc { cc, t } => {
            if cc.eval(st.regs.flags) {
                st.pc = *t;
                return StepEvent::Continue;
            }
        }
        DOp::JccExit { cc } => {
            if cc.eval(st.regs.flags) {
                return StepEvent::Stop(StopReason::Detected);
            }
        }
        DOp::Call { t } => {
            let rsp = st.regs.read64(Gpr::Rsp).wrapping_sub(8);
            if st.mem.store_w(rsp, Width::W64, next as u64).is_err() {
                return StepEvent::Stop(StopReason::Crash(CrashKind::StackFault(rsp)));
            }
            st.regs.write64(Gpr::Rsp, rsp);
            st.call_stack.push(next);
            st.pc = *t;
            return StepEvent::Continue;
        }
        DOp::CallPrint => {
            let v = st.regs.read64(Gpr::Rdi) as i64;
            st.output.push(v);
        }
        DOp::CallExit => return StepEvent::Stop(StopReason::Detected),
        DOp::Ret => match st.call_stack.pop() {
            None => return StepEvent::Stop(StopReason::MainReturned),
            Some(ret) => {
                let rsp = st.regs.read64(Gpr::Rsp);
                st.regs.write64(Gpr::Rsp, rsp.wrapping_add(8));
                st.pc = ret;
                return StepEvent::Continue;
            }
        },
        DOp::Push { src } => {
            let v = crash!(read_src(st, src, Width::W64));
            let rsp = st.regs.read64(Gpr::Rsp).wrapping_sub(8);
            if st.mem.store_w(rsp, Width::W64, v).is_err() {
                return StepEvent::Stop(StopReason::Crash(CrashKind::StackFault(rsp)));
            }
            st.regs.write64(Gpr::Rsp, rsp);
        }
        DOp::Pop { dst } => {
            let rsp = st.regs.read64(Gpr::Rsp);
            let v = match st.mem.load_w(rsp, Width::W64) {
                Ok(v) => v,
                Err(_) => return StepEvent::Stop(StopReason::Crash(CrashKind::StackFault(rsp))),
            };
            st.regs.write64(Gpr::Rsp, rsp.wrapping_add(8));
            crash!(write_dst(st, dst, Width::W64, v));
        }
        DOp::MovqToXmm { src, dst } => {
            let v = crash!(read_src(st, src, Width::W64));
            st.regs.write_xmm_movq(*dst, v);
        }
        DOp::MovqFromXmm { src, dst } => {
            let v = st.regs.read_xmm_lane(*src, 0);
            st.regs.write(*dst, v);
        }
        DOp::Pinsrq { lane, src, dst } => {
            let v = crash!(read_src(st, src, Width::W64));
            st.regs.write_xmm_lane(*dst, *lane, v);
        }
        DOp::Pextrq { lane, src, dst } => {
            let v = st.regs.read_xmm_lane(*src, *lane);
            st.regs.write(*dst, v);
        }
        DOp::Vinserti128 {
            lane,
            src,
            src2,
            dst,
        } => {
            let low = st.regs.read_xmm(*src);
            let base = st.regs.read_ymm(*src2);
            let out = if *lane == 0 {
                [low[0], low[1], base[2], base[3]]
            } else {
                [base[0], base[1], low[0], low[1]]
            };
            st.regs.write_ymm(*dst, out);
        }
        DOp::VpxorY { a, b, dst } => {
            let x = st.regs.read_ymm(*a);
            let y = st.regs.read_ymm(*b);
            st.regs
                .write_ymm(*dst, [x[0] ^ y[0], x[1] ^ y[1], x[2] ^ y[2], x[3] ^ y[3]]);
        }
        DOp::VptestY { a, b } => {
            let x = st.regs.read_ymm(*a);
            let y = st.regs.read_ymm(*b);
            st.regs.flags = vptest_flags((0..4).all(|i| x[i] & y[i] == 0), {
                (0..4).all(|i| !x[i] & y[i] == 0)
            });
        }
        DOp::VpxorX { a, b, dst } => {
            let x = st.regs.read_xmm(*a);
            let y = st.regs.read_xmm(*b);
            st.regs.write_xmm_vex(*dst, [x[0] ^ y[0], x[1] ^ y[1]]);
        }
        DOp::VptestX { a, b } => {
            let x = st.regs.read_xmm(*a);
            let y = st.regs.read_xmm(*b);
            st.regs.flags = vptest_flags((0..2).all(|i| x[i] & y[i] == 0), {
                (0..2).all(|i| !x[i] & y[i] == 0)
            });
        }
        DOp::Vinserti64x4 {
            lane,
            src,
            src2,
            dst,
        } => {
            let low = st.regs.read_ymm(*src);
            let mut out = st.regs.read_zmm(*src2);
            let off = usize::from(*lane) * 4;
            out[off..off + 4].copy_from_slice(&low);
            st.regs.write_zmm(*dst, out);
        }
        DOp::VpxorZ { a, b, dst } => {
            let x = st.regs.read_zmm(*a);
            let y = st.regs.read_zmm(*b);
            let mut out = [0u64; 8];
            for i in 0..8 {
                out[i] = x[i] ^ y[i];
            }
            st.regs.write_zmm(*dst, out);
        }
        DOp::VptestZ { a, b } => {
            let x = st.regs.read_zmm(*a);
            let y = st.regs.read_zmm(*b);
            st.regs.flags = vptest_flags((0..8).all(|i| x[i] & y[i] == 0), {
                (0..8).all(|i| !x[i] & y[i] == 0)
            });
        }
    }
    st.pc = next;
    StepEvent::Continue
}

#[inline]
fn vptest_flags(and_zero: bool, andn_zero: bool) -> Flags {
    Flags {
        zf: and_zero,
        cf: andn_zero,
        sf: false,
        of: false,
        pf: false,
    }
}

/// Executes one fused group with `st.pc` at its first instruction.
///
/// Only called inside fault-free windows (the tight loop guards the
/// group against the next fault/timeout boundary), so no constituent
/// needs individual fault or budget checks; all constituents before
/// the final one are crash-free by construction.
fn exec_fused(op: &FOp, st: &mut State) -> StepEvent {
    let pc = st.pc;
    match op {
        FOp::Dup2 { s1, d1, s2, d2 } => {
            let v = read_val(st, s1);
            st.regs.write_xmm_movq(*d1, v);
            let v = read_val(st, s2);
            st.regs.write_xmm_movq(*d2, v);
            st.pc = pc + 2;
            StepEvent::Continue
        }
        FOp::Pinsr2 {
            l1,
            s1,
            d1,
            l2,
            s2,
            d2,
        } => {
            let v = read_val(st, s1);
            st.regs.write_xmm_lane(*d1, *l1, v);
            let v = read_val(st, s2);
            st.regs.write_xmm_lane(*d2, *l2, v);
            st.pc = pc + 2;
            StepEvent::Continue
        }
        FOp::CheckX {
            a,
            b,
            dst,
            ta,
            tb,
            cc,
            t,
        } => {
            let x = st.regs.read_xmm(*a);
            let y = st.regs.read_xmm(*b);
            st.regs.write_xmm_vex(*dst, [x[0] ^ y[0], x[1] ^ y[1]]);
            let x = st.regs.read_xmm(*ta);
            let y = st.regs.read_xmm(*tb);
            let flags = vptest_flags((0..2).all(|i| x[i] & y[i] == 0), {
                (0..2).all(|i| !x[i] & y[i] == 0)
            });
            check_branch(st, pc, flags, *cc, *t)
        }
        FOp::CheckY {
            a,
            b,
            dst,
            ta,
            tb,
            cc,
            t,
        } => {
            let x = st.regs.read_ymm(*a);
            let y = st.regs.read_ymm(*b);
            st.regs
                .write_ymm(*dst, [x[0] ^ y[0], x[1] ^ y[1], x[2] ^ y[2], x[3] ^ y[3]]);
            let x = st.regs.read_ymm(*ta);
            let y = st.regs.read_ymm(*tb);
            let flags = vptest_flags((0..4).all(|i| x[i] & y[i] == 0), {
                (0..4).all(|i| !x[i] & y[i] == 0)
            });
            check_branch(st, pc, flags, *cc, *t)
        }
        FOp::CheckZ {
            a,
            b,
            dst,
            ta,
            tb,
            cc,
            t,
        } => {
            let x = st.regs.read_zmm(*a);
            let y = st.regs.read_zmm(*b);
            let mut out = [0u64; 8];
            for i in 0..8 {
                out[i] = x[i] ^ y[i];
            }
            st.regs.write_zmm(*dst, out);
            let x = st.regs.read_zmm(*ta);
            let y = st.regs.read_zmm(*tb);
            let flags = vptest_flags((0..8).all(|i| x[i] & y[i] == 0), {
                (0..8).all(|i| !x[i] & y[i] == 0)
            });
            check_branch(st, pc, flags, *cc, *t)
        }
    }
}

/// The `jcc` tail of a fused checker.  `pc` is the group's first index
/// (the `vpxor`); the `jcc` itself sits at `pc + 2`, and on detection
/// `st.pc` stays there — exactly where the interpreter leaves it.
#[inline]
fn check_branch(st: &mut State, pc: usize, flags: Flags, cc: Cc, t: FTarget) -> StepEvent {
    st.regs.flags = flags;
    if cc.eval(flags) {
        match t {
            FTarget::Index(t) => {
                st.pc = t;
                StepEvent::Continue
            }
            FTarget::Exit => {
                st.pc = pc + 2;
                StepEvent::Stop(StopReason::Detected)
            }
        }
    } else {
        st.pc = pc + 3;
        StepEvent::Continue
    }
}

/// A steppable simulation over a [`DecodedCpu`] — the decoded mirror
/// of [`crate::snapshot::Machine`], with the same per-step ordering
/// (budget check, execute, charge cycles, inject, count, latch) and
/// interchangeable [`Snapshot`]s.
///
/// [`DecodedMachine::step_faulted`] always executes exactly one
/// instruction (never a fused group) so lock-step differential replay
/// against an interpreter machine observes identical boundaries;
/// [`DecodedMachine::run_to_completion`] dispatches fused groups
/// inside fault-free windows.
#[derive(Debug, Clone)]
pub struct DecodedMachine<'a> {
    dc: &'a DecodedCpu,
    st: State,
    cycles: u64,
    dyn_insts: u64,
    stop: Option<StopReason>,
}

/// Exact architectural-state equality, cheapest fields first: a
/// non-converged state almost always differs in a register or the pc,
/// so the memory walk (bounded by the touched stack, see
/// [`Memory::same_contents`](crate::mem::Memory::same_contents)) is the
/// last resort.
///
/// Register files are compared only within the program's touched masks
/// (`touched_gpr`/`touched_simd`): every state this compare ever sees
/// descends from the same loaded image's [`State::new`] initial
/// register file, and only instruction write-backs (⊆ the decoded out
/// masks) and injected faults (⊆ the decoded fault destinations) can
/// change a register — so registers outside the masks are equal in
/// both states by construction, and skipping them (in particular the
/// untouched bulk of the sixteen 512-bit SIMD registers) keeps the
/// compare proportional to what the program actually uses.  RFLAGS is
/// always compared: flag writes are not part of the masks.
fn states_converged(a: &State, b: &State, touched_gpr: u16, touched_simd: u16) -> bool {
    if a.pc != b.pc || a.regs.flags != b.regs.flags {
        return false;
    }
    let mut g = touched_gpr;
    while g != 0 {
        let r = Gpr::from_index(g.trailing_zeros() as usize);
        if a.regs.read64(r) != b.regs.read64(r) {
            return false;
        }
        g &= g - 1;
    }
    let mut s = touched_simd;
    while s != 0 {
        let i = s.trailing_zeros() as u8;
        if a.regs.read_zmm(Zmm::new(i)) != b.regs.read_zmm(Zmm::new(i)) {
            return false;
        }
        s &= s - 1;
    }
    a.call_stack == b.call_stack && a.output == b.output && a.mem.same_contents(&b.mem)
}

impl<'a> DecodedMachine<'a> {
    /// A machine at the program entry point.
    pub fn new(dc: &'a DecodedCpu) -> DecodedMachine<'a> {
        DecodedMachine {
            dc,
            st: State::new(dc.cpu.image()),
            cycles: 0,
            dyn_insts: 0,
            stop: None,
        }
    }

    /// Dynamic instructions executed so far.
    pub fn dyn_insts(&self) -> u64 {
        self.dyn_insts
    }

    /// Cycles accumulated so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Why the run stopped, if it has.
    pub fn stop_reason(&self) -> Option<StopReason> {
        self.stop
    }

    /// The architectural state at the current instruction boundary.
    pub fn state(&self) -> &State {
        &self.st
    }

    /// Mutable architectural state (forensic state surgery).
    pub fn state_mut(&mut self) -> &mut State {
        &mut self.st
    }

    /// Captures a [`Snapshot`] interchangeable with the interpreter
    /// machine's.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::capture(&self.st, self.cycles, self.dyn_insts)
    }

    /// Reinstates a snapshot (from either engine's machine) in place,
    /// clearing any stop condition.
    ///
    /// The copy is bounded by the snapshot's touched stack, so a
    /// campaign worker that holds one machine and restores it per
    /// injection copies only the stack the program has used, per fault.
    pub fn restore(&mut self, snap: &Snapshot) {
        snap.restore_into(&mut self.st);
        self.cycles = snap.cycles();
        self.dyn_insts = snap.dyn_insts();
        self.stop = None;
    }

    /// Executes one instruction (never a fused group), injecting any
    /// fault scheduled for the current dynamic index right after
    /// write-back — ordering identical to `Machine::step_faulted`.
    pub fn step_faulted(&mut self, faults: &[FaultSpec]) -> StepEvent {
        if let Some(stop) = self.stop {
            return StepEvent::Stop(stop);
        }
        if self.dyn_insts >= self.dc.cpu.step_limit() {
            self.stop = Some(StopReason::Timeout);
            return StepEvent::Stop(StopReason::Timeout);
        }
        let d = &self.dc.code[self.st.pc];
        let ev = exec_dop(&d.op, &mut self.st);
        self.cycles += d.cost;
        for f in faults {
            if f.dyn_index == self.dyn_insts {
                apply_dfault(d.fault, f.raw_bit, &mut self.st);
            }
        }
        self.dyn_insts += 1;
        if let StepEvent::Stop(stop) = ev {
            self.stop = Some(stop);
        }
        ev
    }

    /// Executes one fault-free instruction.
    pub fn step(&mut self) -> StepEvent {
        self.step_faulted(&[])
    }

    /// Runs until the program stops, injecting `faults` along the way.
    ///
    /// The loop partitions execution into fault-free windows bounded by
    /// the next pending injection index (or the step limit), runs each
    /// window through the tight fused-dispatch loop, and single-steps
    /// exactly the boundary instruction with the fault hook armed — so
    /// per-step fault scans, budget checks, and latch checks never
    /// touch the hot path.
    pub fn run_to_completion(&mut self, faults: &[FaultSpec]) -> RunResult {
        loop {
            if let Some(stop) = self.stop {
                return self.result(stop);
            }
            if self.dyn_insts >= self.dc.cpu.step_limit() {
                self.stop = Some(StopReason::Timeout);
                return self.result(StopReason::Timeout);
            }
            let next_fault = faults
                .iter()
                .map(|f| f.dyn_index)
                .filter(|&i| i >= self.dyn_insts)
                .min()
                .unwrap_or(u64::MAX);
            if self.dyn_insts == next_fault {
                self.step_faulted(faults);
            } else {
                self.run_tight(self.dc.cpu.step_limit().min(next_fault));
            }
        }
    }

    /// Runs until the program stops, with the golden-trace convergence
    /// short-circuit armed after the last fault.
    ///
    /// Identity argument: a run is a deterministic function of its
    /// architectural state ([`State`]: registers, memory, pc, call
    /// stack, output) and its remaining step budget.  When this machine
    /// reaches a checkpoint's dynamic index with *exactly* the
    /// checkpoint's state — compared in full, no hashing — both the
    /// state and the remaining budget (`step_limit - dyn_insts`) equal
    /// the golden run's at that point, so every future step, print, and
    /// stop is the golden run's.  The stitched result therefore copies
    /// the golden stop and output (the output-so-far is part of the
    /// matched state) and extends cycles by the golden suffix
    /// (`golden.cycles - checkpoint.cycles`); cycles accumulated before
    /// convergence may legitimately differ from the golden prefix, so
    /// they are kept.
    pub fn run_converging(
        &mut self,
        faults: &[FaultSpec],
        checkpoints: &[Snapshot],
        golden: &RunResult,
    ) -> RunResult {
        let limit = self.dc.cpu.step_limit();
        // Phase 1: ordinary faulted execution until every pending fault
        // has been applied (same partition as `run_to_completion`).
        let last_fault = faults
            .iter()
            .map(|f| f.dyn_index)
            .filter(|&i| i >= self.dyn_insts)
            .max();
        if let Some(last) = last_fault {
            while self.dyn_insts <= last {
                if let Some(stop) = self.stop {
                    return self.result(stop);
                }
                if self.dyn_insts >= limit {
                    self.stop = Some(StopReason::Timeout);
                    return self.result(StopReason::Timeout);
                }
                let next_fault = faults
                    .iter()
                    .map(|f| f.dyn_index)
                    .filter(|&i| i >= self.dyn_insts)
                    .min()
                    .unwrap_or(u64::MAX);
                if self.dyn_insts == next_fault {
                    self.step_faulted(faults);
                } else {
                    self.run_tight(limit.min(next_fault));
                }
            }
        }
        // Phase 2: fault-free execution, comparing against each golden
        // checkpoint ahead of the current position as it is crossed.
        for cp in checkpoints {
            if self.stop.is_some() {
                break;
            }
            if cp.dyn_insts() <= self.dyn_insts || cp.dyn_insts() > limit {
                continue;
            }
            self.run_tight(cp.dyn_insts());
            if self.stop.is_some() {
                break;
            }
            if self.dyn_insts == cp.dyn_insts()
                && states_converged(
                    &self.st,
                    cp.state(),
                    self.dc.touched_gpr,
                    self.dc.touched_simd,
                )
            {
                return RunResult {
                    stop: golden.stop,
                    output: golden.output.clone(),
                    cycles: self.cycles + (golden.cycles - cp.cycles()),
                    dyn_insts: golden.dyn_insts,
                };
            }
        }
        // Phase 3: never converged (or stopped mid-window) — run out
        // normally; `run_to_completion` re-checks latched stops and the
        // budget.
        self.run_to_completion(&[])
    }

    /// Advances fault-free to the `boundary` dynamic-instruction count
    /// through the tight dispatch loop, returning the stop reason if
    /// the program (or the step budget) ends first.
    ///
    /// Equivalent to stepping until `dyn_insts() >= boundary` or a
    /// stop, but without per-step dispatch overhead — campaign golden
    /// walks use this to place snapshots at interval boundaries.
    pub fn advance_to(&mut self, boundary: u64) -> Option<StopReason> {
        if self.stop.is_none() {
            self.run_tight(boundary.min(self.dc.cpu.step_limit()));
        }
        self.stop
    }

    /// Executes fault-free until `boundary` dynamic instructions (or a
    /// stop), dispatching fused groups whenever the whole group fits
    /// below the boundary.
    fn run_tight(&mut self, boundary: u64) {
        let dc = self.dc;
        let code = &dc.code;
        let fused = &dc.fused;
        let mut n = self.dyn_insts;
        let mut cycles = self.cycles;
        while n < boundary {
            let d = &code[self.st.pc];
            let ev = if d.fuse != NO_FUSE {
                let g = &fused[d.fuse as usize];
                if n + u64::from(g.len) <= boundary {
                    n += u64::from(g.len);
                    cycles += g.cost;
                    exec_fused(&g.op, &mut self.st)
                } else {
                    n += 1;
                    cycles += d.cost;
                    exec_dop(&d.op, &mut self.st)
                }
            } else {
                n += 1;
                cycles += d.cost;
                exec_dop(&d.op, &mut self.st)
            };
            if let StepEvent::Stop(stop) = ev {
                self.stop = Some(stop);
                break;
            }
        }
        self.dyn_insts = n;
        self.cycles = cycles;
    }

    fn result(&self, stop: StopReason) -> RunResult {
        RunResult {
            stop,
            output: self.st.output.clone(),
            cycles: self.cycles,
            dyn_insts: self.dyn_insts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::Machine;
    use ferrum_asm::program::single_block_main;
    use ferrum_mir::builder::FunctionBuilder;
    use ferrum_mir::module::{Global, Module};
    use ferrum_mir::types::Ty;
    use ferrum_mir::inst::ICmpPred;

    /// A workload with a loop, a call, division, and memory traffic —
    /// one dynamic instance of most DOp arms.
    fn loopy_cpu() -> Cpu {
        let mut module = Module::new();
        let g = module.add_global(Global::new("tab", vec![9, 18, 27, 36, 45, 54]));

        let mut f = FunctionBuilder::new("third", &[Ty::I64], Some(Ty::I64));
        let three = f.iconst(Ty::I64, 3);
        let q = f.sdiv(Ty::I64, f.arg(0), three);
        f.ret(Some(q));
        module.functions.push(f.finish());

        let mut b = FunctionBuilder::new("main", &[], None);
        let head = b.create_block("head");
        let body = b.create_block("body");
        let done = b.create_block("done");
        let base = b.global(g);
        let slot = b.alloca(Ty::I64);
        let zero = b.iconst(Ty::I64, 0);
        b.store(Ty::I64, zero, slot);
        b.jmp(head);
        b.switch_to(head);
        let i = b.load(Ty::I64, slot);
        let six = b.iconst(Ty::I64, 6);
        let c = b.icmp(ICmpPred::Slt, Ty::I64, i, six);
        b.br(c, body, done);
        b.switch_to(body);
        let p = b.gep(base, i);
        let v = b.load(Ty::I64, p);
        let t = b.call("third", vec![v], Some(Ty::I64)).unwrap();
        b.print(t);
        let one = b.iconst(Ty::I64, 1);
        let next = b.add(Ty::I64, i, one);
        b.store(Ty::I64, next, slot);
        b.jmp(head);
        b.switch_to(done);
        b.ret(None);
        module.functions.push(b.finish());

        let asm = ferrum_backend::compile(&module).unwrap();
        Cpu::load(&asm).unwrap()
    }

    /// `main` prints `depth(24)`, where `depth(n) = n + depth(n - 1)`
    /// recurses down to 0: the stack deepens and unwinds again, so
    /// snapshots along the run hold stacks of very different depths.
    fn recursive_cpu() -> Cpu {
        let mut module = Module::new();
        let mut f = FunctionBuilder::new("depth", &[Ty::I64], Some(Ty::I64));
        let base = f.create_block("base");
        let rec = f.create_block("rec");
        let zero = f.iconst(Ty::I64, 0);
        let c = f.icmp(ICmpPred::Sle, Ty::I64, f.arg(0), zero);
        f.br(c, base, rec);
        f.switch_to(base);
        f.ret(Some(zero));
        f.switch_to(rec);
        let one = f.iconst(Ty::I64, 1);
        let m = f.sub(Ty::I64, f.arg(0), one);
        let r = f.call("depth", vec![m], Some(Ty::I64)).unwrap();
        let sum = f.add(Ty::I64, f.arg(0), r);
        f.ret(Some(sum));
        module.functions.push(f.finish());

        let mut b = FunctionBuilder::new("main", &[], None);
        let n = b.iconst(Ty::I64, 24);
        let d = b.call("depth", vec![n], Some(Ty::I64)).unwrap();
        b.print(d);
        b.ret(None);
        module.functions.push(b.finish());

        let asm = ferrum_backend::compile(&module).unwrap();
        Cpu::load(&asm).unwrap()
    }

    /// The Fig. 6 dup/capture/batch-check idiom, hand-assembled so the
    /// fusion pass sees the exact MovqToXmm/Pinsrq/Vpxor+Vptest+Jcc
    /// shapes protected code emits.  `corrupt` plants a lane mismatch
    /// so the checker fires.
    fn check_idiom_cpu(corrupt: bool) -> Cpu {
        use ferrum_asm::flags::Cc;
        let x = ferrum_asm::reg::Xmm::new;
        let y = ferrum_asm::reg::Ymm::new;
        let q = |g| Operand::Reg(Reg::q(g));
        let lane1_src = if corrupt { q(Gpr::Rax) } else { q(Gpr::Rcx) };
        let p = single_block_main(vec![
            Inst::Mov {
                w: Width::W64,
                src: Operand::Imm(7),
                dst: q(Gpr::Rax),
            },
            Inst::Mov {
                w: Width::W64,
                src: Operand::Imm(11),
                dst: q(Gpr::Rcx),
            },
            // dup pair → Dup2 candidate
            Inst::MovqToXmm { src: q(Gpr::Rax), dst: x(0) },
            Inst::MovqToXmm { src: q(Gpr::Rax), dst: x(1) },
            // capture pair → Pinsr2 candidate
            Inst::Pinsrq { lane: 1, src: q(Gpr::Rcx), dst: x(0) },
            Inst::Pinsrq { lane: 1, src: lane1_src, dst: x(1) },
            Inst::Vinserti128 { lane: 1, src: x(0), src2: y(0), dst: y(0) },
            Inst::Vinserti128 { lane: 1, src: x(1), src2: y(1), dst: y(1) },
            // checker triple → CheckY candidate
            Inst::Vpxor { a: y(1), b: y(0), dst: y(0) },
            Inst::Vptest { a: y(0), b: y(0) },
            Inst::Jcc { cc: Cc::Ne, target: "exit_function".into() },
        ]);
        Cpu::load(&p).unwrap()
    }

    fn assert_profiles_match(a: &Profile, b: &Profile) {
        assert_eq!(a.sites, b.sites);
        assert_eq!(a.prov_counts, b.prov_counts);
        assert_eq!(a.mech_counts, b.mech_counts);
        assert_eq!(a.pcs, b.pcs, "per-pc profiles must be byte-identical");
        assert_eq!(a.result, b.result);
    }

    #[test]
    fn baked_costs_come_from_the_shared_class_table() {
        // Satellite invariant: the decoded engine's baked per-inst and
        // summed fused costs must be exactly what the interpreter's
        // CostModel::cost_tagged computes from the shared CostClass
        // table — a cost-model edit cannot desynchronise the engines.
        for cpu in [loopy_cpu(), check_idiom_cpu(true), check_idiom_cpu(false)] {
            let dc = DecodedCpu::new(&cpu);
            let model = cpu.cost_model();
            for (pc, li) in cpu.image().insts.iter().enumerate() {
                let class = crate::cost::CostClass::classify(&li.inst);
                assert_eq!(model.cost(&li.inst), model.of_class(class));
                assert_eq!(
                    dc.code[pc].cost,
                    model.cost_tagged(&li.inst, li.prov),
                    "pc {pc} baked cost diverged from the interpreter's"
                );
            }
            for (pc, d) in dc.code.iter().enumerate() {
                if d.fuse != NO_FUSE {
                    let g = &dc.fused[d.fuse as usize];
                    let sum: u64 = (pc..pc + usize::from(g.len)).map(|i| dc.code[i].cost).sum();
                    assert_eq!(g.cost, sum, "fused group at {pc} mis-sums its cost");
                }
            }
        }
    }

    #[test]
    fn per_pc_profiles_are_byte_identical_with_calls_and_checkers() {
        for cpu in [loopy_cpu(), check_idiom_cpu(true), check_idiom_cpu(false)] {
            let dc = DecodedCpu::new(&cpu);
            let a = cpu.profile();
            let b = dc.profile();
            assert_eq!(a.pcs, b.pcs);
            // Folded output (the user-facing rendering) is identical too.
            assert_eq!(a.pcs.folded(cpu.image()), b.pcs.folded(dc.image()));
        }
    }

    #[test]
    fn run_and_profile_match_interpreter() {
        let cpu = loopy_cpu();
        let dc = DecodedCpu::new(&cpu);
        assert_eq!(dc.run(None), cpu.run(None));
        assert_profiles_match(&dc.profile(), &cpu.profile());
    }

    #[test]
    fn every_site_faults_identically() {
        let cpu = loopy_cpu();
        let dc = DecodedCpu::new(&cpu);
        let prof = cpu.profile();
        assert!(!prof.sites.is_empty());
        for site in &prof.sites {
            for raw in [0u16, 7, 63, 255, 65_535] {
                let f = FaultSpec::new(site.dyn_index, raw);
                assert_eq!(
                    dc.run(Some(f)),
                    cpu.run(Some(f)),
                    "site {} raw {raw}",
                    site.dyn_index
                );
            }
        }
    }

    #[test]
    fn snapshots_interchange_with_interpreter_machine() {
        let cpu = loopy_cpu();
        let dc = DecodedCpu::new(&cpu);
        let golden = cpu.run(None);
        // Interpreter snapshot → decoded resume, decoded snapshot →
        // interpreter resume, at several prefix depths.
        for k in [0u32, 1, 5, 17] {
            let mut im = Machine::new(&cpu);
            let mut dm = DecodedMachine::new(&dc);
            for _ in 0..k {
                im.step();
                dm.step();
            }
            assert_eq!(dm.dyn_insts(), im.dyn_insts());
            assert_eq!(dm.cycles(), im.cycles());
            assert_eq!(dc.resume(&im.snapshot(), &[]), golden);
            let mut back = Machine::new(&cpu);
            back.restore(&dm.snapshot());
            assert_eq!(back.run_to_completion(&[]), golden);
        }

        // Deep-stack snapshots restored in place into machines holding
        // a shallow stack, and the reverse, on both engines: every
        // resumed run equals a full run, faulted or not.
        let cpu = recursive_cpu();
        let dc = DecodedCpu::new(&cpu);
        let golden = cpu.profile();
        let mut m = Machine::new(&cpu);
        let mut snaps = Vec::new();
        while m.step() == StepEvent::Continue {
            snaps.push(m.snapshot());
        }
        let checkpoints: Vec<Snapshot> = snaps.iter().step_by(7).cloned().collect();
        // The touched depth never shrinks within a run: `deep` is the
        // deepest call, `late` the unwound end holding the same depth.
        let depth = |s: &Snapshot| s.state().mem.stack_len();
        let late = snaps.last().unwrap();
        let deep = snaps.iter().find(|s| depth(s) == depth(late)).unwrap();
        let mid = snaps.iter().find(|s| depth(s) >= depth(late) / 2).unwrap();
        let early = &snaps[2];
        assert!(depth(early) * 4 < depth(mid) && depth(mid) * 3 / 2 < depth(late));
        assert!(deep.dyn_insts() < late.dyn_insts());
        for (from, into) in [(deep, early), (late, mid), (early, deep), (mid, late)] {
            let runs = std::iter::once(None).chain(
                golden
                    .sites
                    .iter()
                    .filter(|s| s.dyn_index >= from.dyn_insts())
                    .step_by(5)
                    .flat_map(|s| [1u16, 40].map(|raw| Some(FaultSpec::new(s.dyn_index, raw)))),
            );
            for f in runs {
                let faults: Vec<FaultSpec> = f.into_iter().collect();
                let ctx = format!("{} into {}: {faults:?}", from.dyn_insts(), into.dyn_insts());
                let full = cpu.run_multi(&faults);
                let mut dm = DecodedMachine::new(&dc);
                dm.advance_to(into.dyn_insts());
                assert_eq!(dm.state().mem.stack_len(), depth(into));
                dm.restore(from);
                let resumed = dm.run_converging(&faults, &checkpoints, &golden.result);
                assert_eq!(resumed, full, "decoded {ctx}");
                let mut im = Machine::new(&cpu);
                while im.dyn_insts() < into.dyn_insts() {
                    im.step();
                }
                assert_eq!(im.state().mem.stack_len(), depth(into));
                im.restore(from);
                let resumed = im.run_to_completion(&faults);
                assert_eq!(resumed, full, "interpreter {ctx}");
            }
        }
    }

    #[test]
    fn faulted_resume_matches_interpreter_resume() {
        let cpu = loopy_cpu();
        let dc = DecodedCpu::new(&cpu);
        let prof = cpu.profile();
        let mut m = Machine::new(&cpu);
        for _ in 0..4 {
            m.step();
        }
        let snap = m.snapshot();
        for site in prof.sites.iter().filter(|s| s.dyn_index >= 4).take(12) {
            let f = FaultSpec::new(site.dyn_index, 9);
            assert_eq!(dc.resume(&snap, &[f]), cpu.resume(&snap, &[f]));
        }
    }

    #[test]
    fn converging_runs_are_byte_identical_for_every_site_and_checkpoint_cadence() {
        // The golden-trace short-circuit must never change an outcome:
        // for every injectable site, a converging run (checkpoints at
        // several cadences, including degenerate none/every-step) must
        // equal the interpreter's plain faulted run — stop, output,
        // cycles, and dyn_insts.
        for cpu in [loopy_cpu(), check_idiom_cpu(true), check_idiom_cpu(false)] {
            let dc = DecodedCpu::new(&cpu);
            let golden = cpu.profile().result;
            for cadence in [1u64, 7, 64] {
                let mut checkpoints = Vec::new();
                let mut m = DecodedMachine::new(&dc);
                while m.stop_reason().is_none() {
                    if m.dyn_insts() > 0 && m.dyn_insts().is_multiple_of(cadence) {
                        checkpoints.push(m.snapshot());
                    }
                    m.step();
                }
                for site in &cpu.profile().sites {
                    for raw in [0u16, 9, 255] {
                        let f = FaultSpec::new(site.dyn_index, raw);
                        assert_eq!(
                            dc.run_converging(&[f], &checkpoints, &golden),
                            cpu.run(Some(f)),
                            "site {} raw {raw} cadence {cadence}",
                            site.dyn_index
                        );
                    }
                }
            }
            // No checkpoints at all degenerates to a plain run.
            for site in cpu.profile().sites.iter().take(8) {
                let f = FaultSpec::new(site.dyn_index, 3);
                assert_eq!(dc.run_converging(&[f], &[], &golden), cpu.run(Some(f)));
            }
        }
    }

    #[test]
    fn converging_resume_stitches_from_mid_run_snapshots() {
        // Resume from a mid-run snapshot with the fault ahead of it,
        // checkpoints covering the whole golden run: identical to the
        // interpreter's plain resume, and the tight step limit still
        // times out at exactly the same budget.
        let cpu = loopy_cpu();
        let dc = DecodedCpu::new(&cpu);
        let golden = cpu.profile().result;
        let mut checkpoints = Vec::new();
        let mut gm = DecodedMachine::new(&dc);
        while gm.stop_reason().is_none() {
            if gm.dyn_insts() > 0 && gm.dyn_insts().is_multiple_of(5) {
                checkpoints.push(gm.snapshot());
            }
            gm.step();
        }
        let mut m = Machine::new(&cpu);
        for _ in 0..4 {
            m.step();
        }
        let snap = m.snapshot();
        for site in cpu.profile().sites.iter().filter(|s| s.dyn_index >= 4) {
            let f = FaultSpec::new(site.dyn_index, 9);
            assert_eq!(
                dc.resume_converging(&snap, &[f], &checkpoints, &golden),
                cpu.resume(&snap, &[f]),
                "site {}",
                site.dyn_index
            );
        }
        // A step limit below the next checkpoint must still Timeout
        // identically (the short-circuit never outruns the budget).
        let tight = loopy_cpu().with_step_limit(12);
        let tdc = DecodedCpu::new(&tight);
        let tgolden = tight.profile().result;
        for site in tight.profile().sites.iter().filter(|s| s.dyn_index < 12) {
            let f = FaultSpec::new(site.dyn_index, 9);
            assert_eq!(
                tdc.run_converging(&[f], &checkpoints, &tgolden),
                tight.run(Some(f)),
                "site {}",
                site.dyn_index
            );
        }
    }

    #[test]
    fn step_limit_budget_matches_interpreter_after_restore() {
        // The decoded machine shares the interpreter's global budget
        // semantics: a snapshot carries its dyn_insts, so a resumed run
        // only gets the remaining allowance.
        let cpu = loopy_cpu().with_step_limit(10);
        let dc = DecodedCpu::new(&cpu);
        let mut dm = DecodedMachine::new(&dc);
        dm.step();
        dm.step();
        let snap = dm.snapshot();
        let mine = dc.resume(&snap, &[]);
        let theirs = cpu.resume(&snap, &[]);
        assert_eq!(mine, theirs);
        assert_eq!(mine.stop, StopReason::Timeout);
        assert_eq!(mine.dyn_insts, 10);
    }

    #[test]
    fn check_idiom_fuses_and_stays_byte_identical() {
        for corrupt in [false, true] {
            let cpu = check_idiom_cpu(corrupt);
            let dc = DecodedCpu::new(&cpu);
            // Dup2 + Pinsr2 + CheckY all present.
            assert!(dc.superinstructions() >= 3, "fusion did not fire");
            let golden = cpu.run(None);
            assert_eq!(
                golden.stop,
                if corrupt {
                    StopReason::Detected
                } else {
                    StopReason::MainReturned
                }
            );
            assert_eq!(dc.run(None), golden);
            assert_profiles_match(&dc.profile(), &cpu.profile());
            let prof = cpu.profile();
            for site in &prof.sites {
                for raw in [0u16, 100, 511] {
                    let f = FaultSpec::new(site.dyn_index, raw);
                    assert_eq!(dc.run(Some(f)), cpu.run(Some(f)));
                }
            }
        }
    }

    #[test]
    fn fused_groups_respect_fault_boundaries() {
        // A fault landing inside what would be a fused group must force
        // single-step dispatch of exactly that instruction; results
        // stay identical to the interpreter for every dynamic index,
        // including indices interior to fused groups.
        let cpu = check_idiom_cpu(false);
        let dc = DecodedCpu::new(&cpu);
        let golden = cpu.run(None);
        let total = golden.dyn_insts;
        for idx in 0..total {
            for raw in [3u16, 130] {
                let f = FaultSpec::new(idx, raw);
                assert_eq!(dc.run(Some(f)), cpu.run(Some(f)), "idx {idx} raw {raw}");
            }
        }
    }

    #[test]
    fn register_writes_stay_within_decoded_out_masks() {
        // The masked convergence compare is sound only if executing one
        // instruction never changes a register outside its decoded out
        // mask (flags aside).  Walk every dynamic instruction of
        // programs covering most DOp arms and check exactly that.
        for cpu in [loopy_cpu(), check_idiom_cpu(true), check_idiom_cpu(false)] {
            let dc = DecodedCpu::new(&cpu);
            let (tg, ts) = (dc.touched_gpr, dc.touched_simd);
            let mut m = DecodedMachine::new(&dc);
            loop {
                let pc = m.state().pc;
                let masks = dc.code[pc].masks;
                let before = m.state().regs.clone();
                let ev = m.step();
                let after = &m.state().regs;
                for g in ferrum_asm::reg::ALL_GPRS {
                    if masks.out_gpr & (1 << g.index()) == 0 {
                        assert_eq!(
                            before.read64(g),
                            after.read64(g),
                            "pc {pc} wrote {g:?} outside its out mask"
                        );
                    }
                }
                for i in 0u8..16 {
                    if masks.out_simd & (1 << i) == 0 {
                        assert_eq!(
                            before.read_zmm(Zmm::new(i)),
                            after.read_zmm(Zmm::new(i)),
                            "pc {pc} wrote zmm{i} outside its out mask"
                        );
                    }
                }
                if let StepEvent::Stop(_) = ev {
                    break;
                }
            }
            // Program-level union covers every out mask and every fault
            // destination, so the masked compare never skips a register
            // a run could have modified.
            for pc in 0..cpu.image().insts.len() {
                let mk = dc.code[pc].masks;
                assert_eq!(mk.out_gpr & !tg, 0, "pc {pc} out-gpr outside union");
                assert_eq!(mk.out_simd & !ts, 0, "pc {pc} out-simd outside union");
            }
        }
    }

    #[test]
    fn lockstep_stepping_matches_interpreter_boundaries() {
        let cpu = loopy_cpu();
        let dc = DecodedCpu::new(&cpu);
        let mut im = Machine::new(&cpu);
        let mut dm = DecodedMachine::new(&dc);
        loop {
            let a = im.step();
            let b = dm.step();
            assert_eq!(a, b);
            assert_eq!(im.state().pc, dm.state().pc);
            assert_eq!(im.dyn_insts(), dm.dyn_insts());
            assert_eq!(im.cycles(), dm.cycles());
            if let StepEvent::Stop(_) = a {
                break;
            }
        }
    }
}
