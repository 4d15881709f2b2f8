//! Snapshot/restore execution: the mechanism behind prefix-sharing
//! fault-injection campaigns.
//!
//! A plain campaign re-executes the whole program from instruction 0
//! for every injected fault, even though every run is byte-identical to
//! the golden run up to the injection point.  [`Machine`] exposes the
//! simulator as a steppable object whose complete architectural state —
//! GPRs, SIMD registers, RFLAGS, memory, program counter, output
//! buffer, call stack, and the cycle/instruction counters — can be
//! captured with [`Machine::snapshot`] and reinstated with
//! [`Machine::restore`].  A campaign executor runs the golden prefix
//! once, snapshots it periodically, and starts each faulted run from
//! the nearest snapshot at-or-before its injection index (the
//! incremental-injection idea FastFlip applies to compositional
//! analysis; see `PAPERS.md`).
//!
//! Determinism contract: for any snapshot taken at instruction boundary
//! `k` during a fault-free run, resuming it with faults whose
//! `dyn_index >= k` produces a [`RunResult`] byte-identical to a full
//! run with the same faults.  `campaign.rs` in `ferrum-faultsim` pins
//! this with tests.

use crate::exec::{apply_fault, step, State, StepEvent};
use crate::fault::FaultSpec;
use crate::outcome::{RunResult, StopReason};
use crate::run::Cpu;

/// A complete architectural checkpoint taken at an instruction boundary.
#[derive(Debug, Clone)]
pub struct Snapshot {
    state: State,
    cycles: u64,
    dyn_insts: u64,
}

impl Snapshot {
    /// Captures `st` and its counters: the one capture path both
    /// engines' machines share, so their snapshots interchange.  A plain
    /// clone is compact, since [`Memory`](crate::mem::Memory) keeps only
    /// the touched stack.
    pub(crate) fn capture(st: &State, cycles: u64, dyn_insts: u64) -> Snapshot {
        Snapshot {
            state: st.clone(),
            cycles,
            dyn_insts,
        }
    }

    /// Copies the captured state into `st` in place, reusing its
    /// buffers: the restore path both engines' machines share.  The
    /// copy is bounded by this snapshot's globals and touched stack.
    pub(crate) fn restore_into(&self, st: &mut State) {
        let s = &self.state;
        st.regs.clone_from(&s.regs);
        st.mem.restore_from(&s.mem);
        st.pc = s.pc;
        st.call_stack.clone_from(&s.call_stack);
        st.output.clone_from(&s.output);
    }

    /// The captured architectural state.
    pub(crate) fn state(&self) -> &State {
        &self.state
    }

    /// Number of dynamic instructions executed before this snapshot —
    /// exactly the work a run resumed from it does not repeat.
    pub fn dyn_insts(&self) -> u64 {
        self.dyn_insts
    }

    /// Accumulated cycles at the snapshot point.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }
}

/// A steppable simulation of one program execution.
///
/// Unlike [`Cpu::run`], which drives a run to completion internally,
/// `Machine` hands control back after every instruction, so callers can
/// capture snapshots, resume from them, and inject faults at precise
/// dynamic indices.  `Cpu::run_multi` itself is implemented on top of
/// this type, so both paths share one set of semantics.
#[derive(Debug, Clone)]
pub struct Machine<'a> {
    cpu: &'a Cpu,
    st: State,
    cycles: u64,
    dyn_insts: u64,
    stop: Option<StopReason>,
}

impl<'a> Machine<'a> {
    /// A machine at the program entry point (the reset state).
    pub fn new(cpu: &'a Cpu) -> Machine<'a> {
        Machine {
            cpu,
            st: State::new(cpu.image()),
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

    /// Mutable architectural state — the escape hatch differential
    /// forensics uses to repair a faulty run's registers from the
    /// golden run mid-flight (kill-window bisection).
    pub fn state_mut(&mut self) -> &mut State {
        &mut self.st
    }

    /// Captures the complete architectural state at the current
    /// instruction boundary.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::capture(&self.st, self.cycles, self.dyn_insts)
    }

    /// Reinstates a snapshot (taken from any machine over the same
    /// [`Cpu`]) in place, clearing any stop condition.
    pub fn restore(&mut self, snap: &Snapshot) {
        snap.restore_into(&mut self.st);
        self.cycles = snap.cycles;
        self.dyn_insts = snap.dyn_insts;
        self.stop = None;
    }

    /// Executes one instruction, injecting any fault scheduled for the
    /// current dynamic index right after write-back.
    ///
    /// Returns `StepEvent::Continue` while the run can proceed; once a
    /// stop condition is reached (including step-limit exhaustion) the
    /// machine latches it and further calls return it unchanged.
    pub fn step_faulted(&mut self, faults: &[FaultSpec]) -> StepEvent {
        if let Some(stop) = self.stop {
            return StepEvent::Stop(stop);
        }
        if self.dyn_insts >= self.cpu.step_limit() {
            self.stop = Some(StopReason::Timeout);
            return StepEvent::Stop(StopReason::Timeout);
        }
        let pc = self.st.pc;
        let ev = step(self.cpu.image(), &mut self.st);
        let li = &self.cpu.image().insts[pc];
        self.cycles += self.cpu.cost_model().cost_tagged(&li.inst, li.prov);
        for f in faults {
            if f.dyn_index == self.dyn_insts {
                apply_fault(&li.inst, f.raw_bit, &mut self.st);
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
    /// Faults whose `dyn_index` precedes the machine's current position
    /// are ignored — resuming from a snapshot past an injection point
    /// cannot re-apply it.
    pub fn run_to_completion(&mut self, faults: &[FaultSpec]) -> RunResult {
        loop {
            if let StepEvent::Stop(_) = self.step_faulted(faults) {
                return self.result();
            }
        }
    }

    /// The run result so far (meaningful once stopped).
    fn result(&self) -> RunResult {
        RunResult {
            stop: self.stop.expect("machine has stopped"),
            output: self.st.output.clone(),
            cycles: self.cycles,
            dyn_insts: self.dyn_insts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ferrum_mir::builder::FunctionBuilder;
    use ferrum_mir::module::{Global, Module};
    use ferrum_mir::types::Ty;

    fn sum_cpu() -> Cpu {
        let mut module = Module::new();
        let g = module.add_global(Global::new("tab", vec![3, 5, 7, 11]));
        let mut b = FunctionBuilder::new("main", &[], None);
        let base = b.global(g);
        let mut acc = b.iconst(Ty::I64, 0);
        for i in 0..4 {
            let idx = b.iconst(Ty::I64, i);
            let p = b.gep(base, idx);
            let v = b.load(Ty::I64, p);
            acc = b.add(Ty::I64, acc, v);
        }
        b.print(acc);
        b.ret(None);
        module.functions.push(b.finish());
        let asm = ferrum_backend::compile(&module).unwrap();
        Cpu::load(&asm).unwrap()
    }

    #[test]
    fn stepping_to_completion_matches_run() {
        let cpu = sum_cpu();
        let golden = cpu.run(None);
        let mut m = Machine::new(&cpu);
        let r = m.run_to_completion(&[]);
        assert_eq!(r, golden);
        assert_eq!(m.stop_reason(), Some(golden.stop));
    }

    #[test]
    fn resume_from_any_boundary_is_exact() {
        let cpu = sum_cpu();
        let golden = cpu.run(None);
        // Snapshot at every boundary of the golden prefix, then resume
        // each fault-free: all must reproduce the golden result.
        let mut m = Machine::new(&cpu);
        let mut snaps = vec![m.snapshot()];
        while m.step() == StepEvent::Continue {
            snaps.push(m.snapshot());
        }
        for snap in &snaps {
            let mut r = Machine::new(&cpu);
            r.restore(snap);
            assert_eq!(r.run_to_completion(&[]), golden);
        }
    }

    #[test]
    fn faulted_resume_matches_full_faulted_run() {
        let cpu = sum_cpu();
        let prof = cpu.profile();
        let mut m = Machine::new(&cpu);
        let mut snaps = vec![m.snapshot()];
        while m.step() == StepEvent::Continue {
            snaps.push(m.snapshot());
        }
        for site in &prof.sites {
            for raw in [0u16, 5, 63] {
                let fault = FaultSpec::new(site.dyn_index, raw);
                let full = cpu.run(Some(fault));
                for snap in snaps.iter().filter(|s| s.dyn_insts() <= site.dyn_index) {
                    let mut r = Machine::new(&cpu);
                    r.restore(snap);
                    let resumed = r.run_to_completion(&[fault]);
                    assert_eq!(
                        resumed,
                        full,
                        "site {} from snapshot {}",
                        site.dyn_index,
                        snap.dyn_insts()
                    );
                }
            }
        }
    }

    #[test]
    fn snapshot_counters_are_exposed() {
        let cpu = sum_cpu();
        let mut m = Machine::new(&cpu);
        m.step();
        m.step();
        let snap = m.snapshot();
        assert_eq!(snap.dyn_insts(), 2);
        assert!(snap.cycles() > 0);
        assert_eq!(snap.cycles(), m.cycles());
    }

    #[test]
    fn stop_latches_and_restore_clears_it() {
        let cpu = sum_cpu();
        let mut m = Machine::new(&cpu);
        let start = m.snapshot();
        let r = m.run_to_completion(&[]);
        assert_eq!(m.step(), StepEvent::Stop(r.stop));
        m.restore(&start);
        assert_eq!(m.stop_reason(), None);
        assert_eq!(m.run_to_completion(&[]), r);
    }

    #[test]
    fn snapshots_hold_only_the_touched_stack() {
        // Every FERRUM-protected paper-scale catalog program, stepped
        // through its golden run: a snapshot's stack is exactly as deep
        // as the deepest stack byte stored to so far, predicted
        // independently from each instruction's store targets.
        use crate::differential::store_ranges;
        use crate::mem::{STACK_SIZE, STACK_TOP};
        for w in ferrum_workloads::all_workloads() {
            let module = w.build(ferrum_workloads::Scale::Paper);
            let asm = ferrum_backend::compile(&module).unwrap();
            let protected = ferrum_eddi::Ferrum::new().protect(&asm).unwrap();
            let cpu = Cpu::load(&protected).unwrap();
            let golden = cpu.run(None);
            let interval = (golden.dyn_insts / 64).max(1);
            let mut m = Machine::new(&cpu);
            let mut deepest = 0u64;
            let mut checked = 0;
            loop {
                for (addr, len) in store_ranges(cpu.image(), m.state()) {
                    if addr >= STACK_TOP - STACK_SIZE && addr + len <= STACK_TOP {
                        deepest = deepest.max(STACK_TOP - addr);
                    }
                }
                if m.step() != StepEvent::Continue {
                    break;
                }
                if m.dyn_insts().is_multiple_of(interval) {
                    let snap = m.snapshot();
                    let held = snap.state().mem.stack_len() as u64;
                    assert_eq!(held, deepest, "{} at {}", w.name, m.dyn_insts());
                    checked += 1;
                }
            }
            assert!(
                deepest > 0 && checked >= 32,
                "{}: {checked} snapshots",
                w.name
            );
        }
    }

    #[test]
    fn step_limit_timeout_applies_to_resumed_runs() {
        let cpu = sum_cpu().with_step_limit(4);
        let mut m = Machine::new(&cpu);
        m.step();
        m.step();
        let snap = m.snapshot();
        let mut r = Machine::new(&cpu);
        r.restore(&snap);
        let res = r.run_to_completion(&[]);
        assert_eq!(res.stop, StopReason::Timeout);
        // Global instruction budget: 2 executed before the snapshot,
        // so only 2 more run after it.
        assert_eq!(res.dyn_insts, 4);
    }
}
