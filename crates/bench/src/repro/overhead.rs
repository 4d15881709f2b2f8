//! The fault-free experiments: Table II, Fig. 11 (simulated and
//! native), the §IV-B2 footprint and the §IV-B3 pass time.

use std::io::{self, ErrorKind, Write};
use std::path::Path;
use std::process::Command;
use std::time::Instant;

use ferrum::{all_workloads, Pipeline, Technique};
use ferrum_asm::gnu::emit_gnu_timing;
use ferrum_asm::program::AsmProgram;
use ferrum_eddi::ferrum::{Ferrum, FerrumConfig};
use ferrum_faultsim::stats::runtime_overhead;

use super::{for_each_workload, Built, Opts, RAW_AND_PROTECTED};

/// Table II: the benchmark inventory, extended with the measured
/// static/dynamic sizes of this reproduction.
pub(super) fn table2(o: &Opts, out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "Table II — benchmark details ({:?} scale)", o.eval.scale)?;
    writeln!(
        out,
        "{:<16}{:<10}{:<22}{:>14}{:>14}",
        "Benchmark", "Suite", "Domain", "static insts", "dyn insts"
    )?;
    for_each_workload(&Pipeline::new(), o.eval.scale, &[Technique::None], |w, _, built| {
        writeln!(
            out,
            "{:<16}{:<10}{:<22}{:>14}{:>14}",
            w.name,
            w.suite,
            w.domain,
            built[0].prog.static_inst_count(),
            built[0].cpu.run(None).dyn_insts
        )
    })
}

/// Fault-free simulated cycles of the raw program (`built[0]`) and the
/// runtime overhead of each protected one.
fn simulated_overheads(built: &[Built]) -> (u64, Vec<f64>) {
    let raw_cycles = built[0].cpu.run(None).cycles;
    let overheads = built[1..]
        .iter()
        .map(|b| runtime_overhead(raw_cycles, b.cpu.run(None).cycles))
        .collect();
    (raw_cycles, overheads)
}

/// Fig. 11: runtime overhead per benchmark for the three techniques,
/// from fault-free simulated cycles.
///
/// Paper reference points (averages): IR-LEVEL-EDDI 62.27%,
/// HYBRID-ASSEMBLY-LEVEL-EDDI 83.39%, FERRUM 29.83% — i.e. FERRUM is
/// the cheapest and the hybrid baseline the most expensive, with an
/// ~52% speed-up of FERRUM over IR-level EDDI.
pub(super) fn fig11(o: &Opts, out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "Fig. 11 — runtime performance overhead (lower is better)")?;
    writeln!(
        out,
        "{:<16}{:>12}{:>14}{:>14}{:>14}",
        "benchmark", "raw cycles", "IR-EDDI", "HYBRID-ASM", "FERRUM"
    )?;
    let mut sums = [0.0f64; 3];
    let mut count = 0usize;
    for_each_workload(&Pipeline::new(), o.eval.scale, &RAW_AND_PROTECTED, |w, _, built| {
        let (raw_cycles, overheads) = simulated_overheads(built);
        write!(out, "{:<16}{:>12}", w.name, raw_cycles)?;
        for (sum, o) in sums.iter_mut().zip(overheads) {
            *sum += o;
            write!(out, "{:>13.1}%", o * 100.0)?;
        }
        count += 1;
        writeln!(out)
    })?;
    write_average_row(out, &sums, count)
}

fn write_average_row(out: &mut dyn Write, sums: &[f64], count: usize) -> io::Result<()> {
    write!(out, "{:<16}{:>12}", "average", "")?;
    for s in sums {
        write!(out, "{:>13.1}%", s / count as f64 * 100.0)?;
    }
    writeln!(out)
}

/// §IV-B2: the paper explains the hybrid baseline's overhead by the
/// assembly "glue" that compiling IR to assembly adds, which the
/// hybrid baseline duplicates but IR-level protection never sees.
/// Prints, per benchmark, the raw program's dynamic glue share and
/// each technique's dynamic expansion factor.
pub(super) fn footprint(o: &Opts, out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "§IV-B2 — cross-layer footprint and dynamic expansion ({:?} scale)",
        o.eval.scale
    )?;
    writeln!(
        out,
        "{:<16}{:>12}{:>12}{:>12}{:>12}{:>12}",
        "benchmark", "raw dyn", "glue share", "IR-EDDI x", "HYBRID x", "FERRUM x"
    )?;
    for_each_workload(&Pipeline::new(), o.eval.scale, &RAW_AND_PROTECTED, |w, _, built| {
        let raw_prof = built[0].cpu.profile();
        let raw_dyn = raw_prof.result.dyn_insts;
        let glue_share = raw_prof.prov_counts.glue as f64 / raw_dyn as f64;
        write!(out, "{:<16}{:>12}{:>11.1}%", w.name, raw_dyn, glue_share * 100.0)?;
        for b in &built[1..] {
            let d = b.cpu.run(None).dyn_insts;
            write!(out, "{:>11.2}x", d as f64 / raw_dyn as f64)?;
        }
        writeln!(out)
    })?;
    writeln!(out)?;
    writeln!(out, "HYBRID duplicates the glue share too (scalar, per-instruction checks);")?;
    writeln!(out, "IR-EDDI cannot see it; FERRUM covers it with batched SIMD checks.")
}

const ITERS: u32 = 3000;
const REPS: usize = 7;

fn native_available() -> bool {
    cfg!(all(target_arch = "x86_64", target_os = "linux"))
        && Command::new("gcc").arg("--version").output().is_ok()
        && std::fs::read_to_string("/proc/cpuinfo")
            .unwrap_or_default()
            .contains("avx2")
}

/// Assembles `prog` with gcc through the timing harness and returns
/// the best-of-[`REPS`] wall-clock time of the binary, in seconds.
fn time_native(prog: &AsmProgram, bin: &Path) -> f64 {
    let s_path = bin.with_extension("s");
    std::fs::write(&s_path, emit_gnu_timing(prog, ITERS)).expect("write .s");
    let out = Command::new("gcc")
        .arg("-no-pie")
        .arg("-o")
        .arg(bin)
        .arg(&s_path)
        .output()
        .expect("gcc");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let mut best = f64::MAX;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let out = Command::new(bin).output().expect("run");
        assert!(out.status.success());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Fig. 11 on real silicon: assembles each benchmark × technique with
/// gcc, runs the binaries natively and reports wall-clock overheads
/// next to the simulated ones of the same programs — the empirical
/// check on the simulator's cost model.  Needs x86-64 Linux with gcc
/// and AVX2; otherwise fails with [`ErrorKind::Unsupported`].
pub(super) fn native(o: &Opts, out: &mut dyn Write) -> io::Result<()> {
    if !native_available() {
        return Err(io::Error::new(
            ErrorKind::Unsupported,
            "native timing unavailable (needs x86-64 linux, gcc, AVX2)",
        ));
    }
    let dir = std::env::temp_dir().join(format!("ferrum_timing_{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let result = native_in(o, out, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn native_in(o: &Opts, out: &mut dyn Write, dir: &Path) -> io::Result<()> {
    writeln!(
        out,
        "Fig. 11 on real hardware — {} kernel iterations, best of {} runs, {:?} scale",
        ITERS, REPS, o.eval.scale
    )?;
    writeln!(
        out,
        "{:<16}{:>12}{:>14}{:>14}{:>14}{:>14}",
        "benchmark", "raw (ms)", "IR-EDDI", "HYBRID-ASM", "FERRUM", "FERRUM-noSIMD"
    )?;
    // FERRUM with SIMD batching disabled: isolates the cost of the
    // GPR→vector capture traffic.
    let no_simd = Pipeline::new().with_ferrum_config(FerrumConfig {
        simd: false,
        ..FerrumConfig::default()
    });
    let mut sums = [0.0f64; 4];
    let mut simulated = [0.0f64; 3];
    let mut count = 0usize;
    for_each_workload(&Pipeline::new(), o.eval.scale, &RAW_AND_PROTECTED, |w, module, built| {
        let raw_t = time_native(&built[0].prog, &dir.join(format!("{}_raw", w.name)));
        write!(out, "{:<16}{:>12.2}", w.name, raw_t * 1e3)?;
        let no_simd_prog = no_simd
            .protect(module, Technique::Ferrum)
            .expect("protects");
        let progs = built[1..].iter().map(|b| &b.prog).chain([&no_simd_prog]);
        for (i, (sum, prog)) in sums.iter_mut().zip(progs).enumerate() {
            let overhead = time_native(prog, &dir.join(format!("{}_{i}", w.name))) / raw_t - 1.0;
            *sum += overhead;
            write!(out, "{:>13.1}%", overhead * 100.0)?;
        }
        for (sum, o) in simulated.iter_mut().zip(simulated_overheads(built).1) {
            *sum += o;
        }
        count += 1;
        writeln!(out)
    })?;
    write_average_row(out, &sums, count)?;
    writeln!(out)?;
    let [ir, hybrid, ferrum] = simulated.map(|s| s / count as f64 * 100.0);
    writeln!(
        out,
        "(simulated averages for comparison: IR {ir:.0}%, HYBRID {hybrid:.0}%, FERRUM {ferrum:.0}%)"
    )
}

/// §IV-B3: the time to execute the FERRUM transformation itself,
/// against the static instruction count of each benchmark.
///
/// Paper reference points: 0.117 s on average, maximum on
/// Particlefilter (2230 static instructions), minimum on BFS (406);
/// time grows linearly with static size because FERRUM scans the code
/// once and emits transformations.
pub(super) fn exectime(o: &Opts, out: &mut dyn Write) -> io::Result<()> {
    writeln!(out, "§IV-B3 — FERRUM transformation time ({:?} scale)", o.eval.scale)?;
    writeln!(
        out,
        "{:<16}{:>14}{:>16}{:>14}",
        "benchmark", "static insts", "pass time (µs)", "µs / inst"
    )?;
    let mut rows = Vec::new();
    for w in all_workloads() {
        let asm = ferrum_backend::compile(&w.build(o.eval.scale)).expect("compiles");
        let statics = asm.static_inst_count();
        // Median of several runs to suppress allocator noise.
        let mut times: Vec<f64> = (0..9)
            .map(|_| {
                let t0 = Instant::now();
                let _ = Ferrum::new().protect(&asm).expect("protects");
                t0.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        times.sort_by(|a, b| a.total_cmp(b));
        let us = times[times.len() / 2];
        rows.push((w.name, statics, us));
        let per_inst = us / statics as f64;
        writeln!(out, "{:<16}{statics:>14}{us:>16.1}{per_inst:>14.3}", w.name)?;
    }
    let n = rows.len() as f64;
    let (mx, my) = (
        rows.iter().map(|r| r.1 as f64).sum::<f64>() / n,
        rows.iter().map(|r| r.2).sum::<f64>() / n,
    );
    writeln!(out, "{:<16}{:>14}{:>16.1}", "average", "", my)?;
    let by_time = |a: &&(&str, usize, f64), b: &&(&str, usize, f64)| a.2.total_cmp(&b.2);
    let max = rows.iter().max_by(by_time).expect("rows");
    let min = rows.iter().min_by(by_time).expect("rows");
    writeln!(out)?;
    writeln!(out, "slowest: {} ({} static insts)", max.0, max.1)?;
    writeln!(out, "fastest: {} ({} static insts)", min.0, min.1)?;
    // Linearity check: correlation between static size and time.
    let cov: f64 = rows.iter().map(|r| (r.1 as f64 - mx) * (r.2 - my)).sum();
    let vx: f64 = rows.iter().map(|r| (r.1 as f64 - mx).powi(2)).sum();
    let vy: f64 = rows.iter().map(|r| (r.2 - my).powi(2)).sum();
    writeln!(out, "pearson r (static insts vs time) = {:.3}", cov / (vx * vy).sqrt())
}
