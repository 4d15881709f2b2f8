//! Adversarial double-fault demonstration: duplication-based detection
//! is a *single-fault* design (paper §II-A).  A deliberately targeted
//! pair of faults — the same bit flipped in a value at its write-back
//! *and* in its duplicate at the duplicate's write-back — produces two
//! corrupted-but-equal copies that every checker happily accepts.
//!
//! Random double faults almost never align like this
//! (`ferrum-repro multibit` measures 100% coverage under random pairs); this
//! test constructs the alignment on purpose to document the boundary of
//! the guarantee.

use ferrum::{Pipeline, StopReason, Technique};
use ferrum_cpu::fault::FaultSpec;
use ferrum_mir::builder::FunctionBuilder;
use ferrum_mir::module::{Global, Module};
use ferrum_mir::types::Ty;

fn print_global_module() -> Module {
    let mut module = Module::new();
    let g = module.add_global(Global::new("val", vec![1000]));
    let mut b = FunctionBuilder::new("main", &[], None);
    let base = b.global(g);
    let v = b.load(Ty::I64, base);
    let one = b.iconst(Ty::I64, 1);
    let w = b.add(Ty::I64, v, one);
    b.print(w);
    b.ret(None);
    module.functions.push(b.finish());
    module
}

#[test]
fn aligned_double_fault_defeats_duplication() {
    let module = print_global_module();
    let pipeline = Pipeline::new();
    let prog = pipeline
        .protect(&module, Technique::Ferrum)
        .expect("protects");
    let cpu = pipeline.load(&prog).expect("loads");
    let profile = cpu.profile();
    let golden = &profile.result.output;

    // Scan adjacent (duplicate, original) site pairs: a protection-
    // provenance site immediately followed by a program site.  Flip the
    // same low bit in both destinations.
    let mut escaped = false;
    for w in profile.sites.windows(2) {
        let (a, b) = (w[0], w[1]);
        if !a.prov.is_protection() || b.prov.is_protection() {
            continue;
        }
        if b.dyn_index != a.dyn_index + 1 {
            continue;
        }
        for bit in [1u16, 3, 5] {
            let run = cpu.run_multi(&[
                FaultSpec::new(a.dyn_index, bit),
                FaultSpec::new(b.dyn_index, bit),
            ]);
            if run.stop == StopReason::MainReturned && &run.output != golden {
                escaped = true;
            }
        }
    }
    assert!(
        escaped,
        "a deliberately aligned duplicate/original fault pair should \
         silently corrupt the output — the documented single-fault limit"
    );
}

#[test]
fn each_half_of_the_adversarial_pair_alone_is_caught() {
    // Sanity check: the individual faults composing any escaping pair
    // are detected (or benign) on their own — only the *combination*
    // escapes.
    let module = print_global_module();
    let pipeline = Pipeline::new();
    let prog = pipeline
        .protect(&module, Technique::Ferrum)
        .expect("protects");
    let cpu = pipeline.load(&prog).expect("loads");
    let profile = cpu.profile();
    let golden = &profile.result.output;
    for site in &profile.sites {
        for bit in [1u16, 3, 5] {
            let run = cpu.run(Some(FaultSpec::new(site.dyn_index, bit)));
            let silent = run.stop == StopReason::MainReturned && &run.output != golden;
            assert!(
                !silent,
                "single fault must never be silent: {site:?} bit {bit}"
            );
        }
    }
}
