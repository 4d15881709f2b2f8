//! FastFlip-style composition and incremental campaigns.
//!
//! The monolithic campaign re-injects the whole program after any
//! edit.  FastFlip (PAPERS.md) observes that per-section injection
//! results *compose*: a section's contribution to whole-program
//! vulnerability is its set of escaping faults mapped through the
//! consuming context, so editing one section only requires
//! re-injecting that section.  This module applies the idea to
//! FERRUM's per-function layer twice over:
//!
//! 1. **Verdict composition** ([`compose`]): the per-function escape
//!    footprints of [`SummaryMap`] are mapped through caller-side
//!    byte liveness at every call site.  An `Unknown` unit whose
//!    footprint is empty (every path converges before leaving the
//!    function), or whose escape is register-only and dead in every
//!    caller, is lifted to whole-program `Masked` — the composed
//!    analogue of the coverage map's intra-function deadness rule.
//!    Sound verdicts are never weakened and `Detected`/`Vulnerable`
//!    are adopted verbatim, so the composed map prunes at least as
//!    much as the local one and never contradicts a dynamic outcome
//!    the local map would not have contradicted.
//!
//! 2. **Incremental campaigns** ([`run_campaign_incremental_on`]): the
//!    stratified executor ([`run_campaign_stratified_on`]) samples each
//!    function's sites with a per-function RNG stream keyed by the
//!    function *name* and caches the draws and outcomes per function
//!    content hash ([`function_hash`]).  After an edit, only
//!    functions whose hash (or dynamic-site count) changed are
//!    re-injected; untouched functions replay their cached shard.
//!    The merged [`CampaignResult`] is **record-identical** to a full
//!    stratified re-run of the edited program for the same seed —
//!    the per-function streams make an edit to one function unable
//!    to perturb another function's draws.
//!
//! # Soundness
//!
//! The caller-side lift inherits the same interprocedural convention
//! as the coverage analysis's liveness (callers do not rely on
//! registers across calls beyond the modelled argument/return/
//! callee-saved sets); `tests/compose_crossval.rs` validates both
//! layers dynamically against monolithic campaigns across the whole
//! workload catalog.

use std::collections::BTreeMap;

use ferrum_asm::analysis::cfg::Cfg;
use ferrum_asm::analysis::coverage::{CoverageMap, StaticVerdict, VerdictCounts};
use ferrum_asm::analysis::liveness::{ByteSet, Liveness};
use ferrum_asm::analysis::summary::{function_hash, SummaryMap};
use ferrum_asm::{AsmProgram, Inst, EXIT_FUNCTION, PRINT_I64};
use ferrum_cpu::fault::FaultSpec;
use ferrum_cpu::run::Profile;
use ferrum_rng::Rng64;

use crate::campaign::{
    execute, CampaignConfig, CampaignResult, Observer, Outcome, Plan, Planned, Runner,
};
use crate::engine::Engine;
use crate::flight::{self, Booking};

/// The program's entry function: its final register state is
/// architecturally unobservable (the harness compares only the output
/// stream), so register-only escapes out of it are always dead.
const ENTRY: &str = "main";

/// Composed (whole-program) verdicts for one site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComposedSite {
    /// Flat program counter of the instruction.
    pub pc: usize,
    /// Injectable destination width in bits.
    pub bits: u32,
    /// One composed verdict per destination byte, indexed like
    /// `SiteCoverage::verdicts`.
    pub verdicts: Vec<StaticVerdict>,
}

impl ComposedSite {
    /// The composed verdict governing a fault at `raw_bit`, mirroring
    /// `SiteCoverage::verdict_for`.
    pub fn verdict_for(&self, raw_bit: u16) -> StaticVerdict {
        if self.verdicts.len() == 1 {
            return self.verdicts[0];
        }
        let bit = u32::from(raw_bit) % self.bits;
        self.verdicts[(bit / 8) as usize]
    }
}

/// Composition result for one function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComposedFunction {
    /// Function name.
    pub name: String,
    /// Local (intra-function) verdict rollup, from the coverage map.
    pub local: VerdictCounts,
    /// Composed verdict rollup after the caller-side lift.
    pub composed: VerdictCounts,
    /// Units lifted `Unknown` → `Masked` by composition.
    pub lifted: usize,
    /// Call sites of this function found across the program.
    pub call_sites: usize,
    /// Per-site composed verdicts, in program order.
    pub sites: Vec<ComposedSite>,
}

/// The whole-program composed verdict map.
#[derive(Debug, Clone, Default)]
pub struct ComposedMap {
    /// Per-function composition results, in program order.
    pub functions: Vec<ComposedFunction>,
    /// Flat pc → (function index, site index).
    index: BTreeMap<usize, (u32, u32)>,
}

impl ComposedMap {
    /// The composed site at flat pc `pc`, if injectable.
    pub fn site(&self, pc: usize) -> Option<&ComposedSite> {
        let &(fi, si) = self.index.get(&pc)?;
        Some(&self.functions[fi as usize].sites[si as usize])
    }

    /// The composed verdict governing a fault at `(pc, raw_bit)`.
    pub fn verdict_at(&self, pc: usize, raw_bit: u16) -> Option<StaticVerdict> {
        self.site(pc).map(|s| s.verdict_for(raw_bit))
    }

    /// Local verdict rollup over the whole program.
    pub fn local_rollup(&self) -> VerdictCounts {
        let mut c = VerdictCounts::default();
        for f in &self.functions {
            c.merge(&f.local);
        }
        c
    }

    /// Composed verdict rollup over the whole program.
    pub fn composed_rollup(&self) -> VerdictCounts {
        let mut c = VerdictCounts::default();
        for f in &self.functions {
            c.merge(&f.composed);
        }
        c
    }

    /// Total units lifted by composition.
    pub fn lifted(&self) -> usize {
        self.functions.iter().map(|f| f.lifted).sum()
    }
}

/// Byte liveness after each call site of every function, keyed by
/// callee name.  The entry function gets no implicit context: its
/// final register state is unobservable.
fn call_site_contexts(p: &AsmProgram) -> BTreeMap<&str, Vec<ByteSet>> {
    let mut ctx: BTreeMap<&str, Vec<ByteSet>> = BTreeMap::new();
    for f in &p.functions {
        let cfg = Cfg::build(f);
        let lv = Liveness::compute(f, &cfg);
        for (bi, b) in f.blocks.iter().enumerate() {
            let mut after: Option<Vec<ByteSet>> = None;
            for (i, ai) in b.insts.iter().enumerate() {
                let Inst::Call { target } = &ai.inst else {
                    continue;
                };
                if target == EXIT_FUNCTION || target == PRINT_I64 {
                    continue;
                }
                let after = after.get_or_insert_with(|| lv.live_after_each(f, bi));
                ctx.entry(target.as_str()).or_default().push(after[i]);
            }
        }
    }
    ctx
}

/// Composes per-function summaries into whole-program verdicts.
///
/// `coverage` and `summary` must both describe `p`.  For every unit:
///
/// * sound and advisory verdicts (`Masked`, `Detected`, `Vulnerable`)
///   are adopted verbatim;
/// * an `Unknown` unit with an **empty escape footprint** and no
///   detecting path is lifted to `Masked`: every path inside the
///   function converges back to the golden state;
/// * an `Unknown` unit with a **register-only** footprint and no
///   detecting path is lifted to `Masked` when the escaping bytes are
///   dead at *every* call site of the function (and implicitly at the
///   entry function's final return, which nothing observes);
/// * everything else stays `Unknown`.
pub fn compose(p: &AsmProgram, coverage: &CoverageMap, summary: &SummaryMap) -> ComposedMap {
    let contexts = call_site_contexts(p);
    let mut map = ComposedMap::default();
    for (fc, fs) in coverage.functions.iter().zip(&summary.functions) {
        debug_assert_eq!(fc.name, fs.name);
        let empty = Vec::new();
        let callers = contexts.get(fs.name.as_str()).unwrap_or(&empty);
        // A register escape out of the entry function is unobservable;
        // out of any other function it must be dead in every caller.
        // (An uncalled non-entry function never executes, so the lift
        // is vacuous there.)
        let dead_everywhere = |gpr: ByteSet| {
            (fs.name != ENTRY || callers.is_empty())
                && callers.iter().all(|&la| la & gpr == 0)
        };
        let mut composed = VerdictCounts::default();
        let mut lifted = 0usize;
        let mut sites = Vec::with_capacity(fs.sites.len());
        for (sc, ss) in fc.sites.iter().zip(&fs.sites) {
            debug_assert_eq!(sc.pc, ss.pc);
            let verdicts: Vec<StaticVerdict> = sc
                .verdicts
                .iter()
                .zip(&ss.units)
                .map(|(&v, u)| {
                    let liftable = v == StaticVerdict::Unknown
                        && !u.may_detect
                        && (u.escape.is_empty()
                            || (u.escape.register_only() && dead_everywhere(u.escape.gpr)));
                    if liftable {
                        lifted += 1;
                        StaticVerdict::Masked
                    } else {
                        v
                    }
                })
                .collect();
            for &v in &verdicts {
                composed.add(v);
            }
            sites.push(ComposedSite {
                pc: sc.pc,
                bits: sc.bits,
                verdicts,
            });
        }
        let fi = map.functions.len() as u32;
        for (si, s) in sites.iter().enumerate() {
            map.index.insert(s.pc, (fi, si as u32));
        }
        map.functions.push(ComposedFunction {
            name: fs.name.clone(),
            local: fc.rollup,
            composed,
            lifted,
            call_sites: callers.len(),
            sites,
        });
    }
    map
}

// ---------------------------------------------------------------------------
// Incremental campaigns
// ---------------------------------------------------------------------------

/// One cached draw of a function's campaign shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardDraw {
    /// Index into the function's own dynamic-site list (sites owned by
    /// the function, in dynamic order).
    pub local_site: u32,
    /// Raw bit drawn below the site's width.
    pub raw_bit: u16,
    /// Classified outcome of the injection.
    pub outcome: Outcome,
}

/// The cached campaign shard of one function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionShard {
    /// Function name (the shard key).
    pub name: String,
    /// Content hash of the function at injection time
    /// ([`function_hash`]).
    pub hash: u64,
    /// Dynamic sites owned by the function at injection time.  An
    /// edit elsewhere that changes this function's dynamic behaviour
    /// (e.g. a changed loop bound in a caller) invalidates the shard
    /// even though the hash still matches.
    pub sites: usize,
    /// The function's sampled faults and their outcomes, in draw
    /// order.
    pub draws: Vec<ShardDraw>,
}

/// Cached per-function campaign shards, the reuse substrate of
/// [`run_campaign_incremental_on`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignCache {
    /// Seed the shards were drawn with.
    pub seed: u64,
    /// Global sample budget the quotas were derived from.
    pub samples: usize,
    /// Per-function shards, in program order.
    pub shards: Vec<FunctionShard>,
}

/// FNV-1a over a function name: the per-function RNG stream key.
/// Deliberately *not* the content hash — an edit must invalidate the
/// shard, not shift the function's draw sequence.
fn name_seed(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in name.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The dynamic sites of `profile` partitioned per function of `p`, in
/// program order: `(name, content hash, indices into profile.sites)`
/// per function.  Sites are attributed through the flat-pc ranges of
/// the loaded image (same function order as the program).
fn partition_sites(p: &AsmProgram, profile: &Profile) -> Vec<(String, u64, Vec<usize>)> {
    // Flat pc ranges, mirroring the image load order.
    let mut ranges = Vec::with_capacity(p.functions.len());
    let mut pc = 0usize;
    for f in &p.functions {
        let start = pc;
        pc += f.blocks.iter().map(|b| b.insts.len()).sum::<usize>();
        ranges.push((f.name.clone(), function_hash(f), start, pc));
    }
    let mut functions: Vec<(String, u64, Vec<usize>)> = ranges
        .iter()
        .map(|(n, h, _, _)| (n.clone(), *h, Vec::new()))
        .collect();
    for (i, s) in profile.sites.iter().enumerate() {
        // Ranges are sorted by start; find the owning function.
        let fi = ranges.partition_point(|&(_, _, start, _)| start <= s.pc) - 1;
        debug_assert!(s.pc < ranges[fi].3);
        functions[fi].2.push(i);
    }
    functions
}

/// Per-function sample quota: proportional to the function's share of
/// dynamic sites, at least 1 for any function with sites.  The total
/// therefore tracks (but may slightly exceed) `samples`.
fn quota(samples: usize, function_sites: usize, total_sites: usize) -> usize {
    if function_sites == 0 || samples == 0 {
        return 0;
    }
    (samples * function_sites / total_sites).max(1)
}

/// Draws a function's fault list with its own seeded RNG stream.
fn draw_shard(seed: u64, n: usize, site_indices: &[usize], profile: &Profile) -> Vec<(usize, u16)> {
    let mut rng = Rng64::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let k = rng.gen_range(0..site_indices.len());
            let site = profile.sites[site_indices[k]];
            (k, rng.gen_below(u64::from(site.bits)) as u16)
        })
        .collect()
}

/// Runs a stratified campaign: each function's dynamic sites are
/// sampled by an independent per-function RNG stream (keyed by the
/// function name), with quotas proportional to site counts.  Returns
/// the result plus the [`CampaignCache`] that
/// [`run_campaign_incremental_on`] reuses.
///
/// The stratified result is *not* record-identical to [`run_campaign`]
/// (the sampling scheme differs) but is drawn from the same per-site
/// uniform fault model and is itself fully reproducible per seed.
///
/// # Panics
///
/// Panics if the profile has no injectable sites (with `samples > 0`).
///
/// [`run_campaign`]: crate::campaign::run_campaign
pub fn run_campaign_stratified_on(
    engine: Engine<'_>,
    profile: &Profile,
    cfg: CampaignConfig,
    program: &AsmProgram,
) -> (CampaignResult, CampaignCache) {
    run_shards(engine, profile, cfg, program, None)
}

/// Re-runs a stratified campaign after an edit, replaying cached
/// shards for every function whose content hash and dynamic-site
/// count are unchanged and re-injecting only the rest.  The merged
/// result is record-identical to [`run_campaign_stratified_on`] on the
/// edited program with the same config; the replayed fraction is
/// reported in [`CampaignStats::reused_sites`] /
/// [`CampaignStats::reuse_rate`].
///
/// A cache drawn with a different seed or sample budget is ignored
/// wholesale (everything re-injects).
///
/// # Panics
///
/// Panics if the profile has no injectable sites (with `samples > 0`).
///
/// [`CampaignStats::reused_sites`]: crate::campaign::CampaignStats::reused_sites
/// [`CampaignStats::reuse_rate`]: crate::campaign::CampaignStats::reuse_rate
pub fn run_campaign_incremental_on(
    engine: Engine<'_>,
    profile: &Profile,
    cfg: CampaignConfig,
    program: &AsmProgram,
    cache: &CampaignCache,
) -> (CampaignResult, CampaignCache) {
    run_shards(engine, profile, cfg, program, Some(cache))
}

/// One function's stratum of the fault plan: its shard of the new
/// cache, whether that shard replays a cached one, and one past its
/// last plan index.
struct Stratum {
    shard: FunctionShard,
    reused: bool,
    end: usize,
}

/// Emits each stratum's shard event once its draws have resolved.
struct ShardEvents<'a> {
    strata: &'a [Stratum],
    next: usize,
}

impl Observer for ShardEvents<'_> {
    fn boundary(&mut self, i: usize) {
        while let Some(s) = self.strata.get(self.next).filter(|s| s.end <= i) {
            let shard = &s.shard;
            flight::function_shard(
                &shard.name,
                shard.hash,
                shard.sites,
                shard.draws.len(),
                s.reused,
            );
            self.next += 1;
        }
    }
}

/// The stratified plan: per function, the cached shard booked as
/// reused when it still matches, otherwise fresh draws to execute.
fn run_shards(
    engine: Engine<'_>,
    profile: &Profile,
    cfg: CampaignConfig,
    program: &AsmProgram,
    cache: Option<&CampaignCache>,
) -> (CampaignResult, CampaignCache) {
    let executor = if cache.is_some() {
        "incremental"
    } else {
        "stratified"
    };
    let cache = cache.filter(|c| c.seed == cfg.seed && c.samples == cfg.samples);
    let functions = if cfg.samples == 0 {
        Vec::new()
    } else {
        assert!(!profile.sites.is_empty(), "no injectable sites");
        partition_sites(program, profile)
    };
    let mut injections = Vec::new();
    let mut strata = Vec::with_capacity(functions.len());
    for (name, hash, site_indices) in functions {
        let n = quota(cfg.samples, site_indices.len(), profile.sites.len());
        let cached = cache.and_then(|c| {
            c.shards.iter().find(|s| {
                s.name == name
                    && s.hash == hash
                    && s.sites == site_indices.len()
                    && s.draws.len() == n
            })
        });
        // An unchanged function replays its cached outcomes at the
        // (possibly shifted) new dynamic indices; fresh draws get
        // theirs from the run.
        let draws = match cached {
            Some(shard) => shard.draws.clone(),
            None => draw_shard(cfg.seed ^ name_seed(&name), n, &site_indices, profile)
                .into_iter()
                .map(|(k, raw_bit)| ShardDraw {
                    local_site: k as u32,
                    raw_bit,
                    outcome: Outcome::Benign,
                })
                .collect(),
        };
        for d in &draws {
            let site = profile.sites[site_indices[d.local_site as usize]];
            let fault = FaultSpec::new(site.dyn_index, d.raw_bit);
            injections.push(match cached {
                Some(_) => Planned::Booked(fault, d.outcome, Booking::Reused),
                None => Planned::Run(fault, None),
            });
        }
        let shard = FunctionShard {
            name,
            hash,
            sites: site_indices.len(),
            draws,
        };
        strata.push(Stratum {
            shard,
            reused: cached.is_some(),
            end: injections.len(),
        });
    }
    // Quotas are proportional-with-floor, so the plan can hold more
    // than cfg.samples faults; the recorder sizes its shards and
    // progress from the plan.
    let plan = Plan {
        executor,
        span: "campaign.incremental",
        cfg,
        injections,
    };
    let mut events = ShardEvents {
        strata: &strata,
        next: 0,
    };
    let result = execute(engine, profile, &plan, Runner::Inline, Some(&mut events));
    let shards = strata
        .into_iter()
        .map(|mut s| {
            let records = &result.records[s.end - s.shard.draws.len()..s.end];
            for (d, &(_, outcome)) in s.shard.draws.iter_mut().zip(records) {
                d.outcome = outcome;
            }
            s.shard
        })
        .collect();
    let new_cache = CampaignCache {
        seed: cfg.seed,
        samples: cfg.samples,
        shards,
    };
    (result, new_cache)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ferrum_cpu::run::Cpu;
    use ferrum_mir::builder::FunctionBuilder;
    use ferrum_mir::module::{Global, Module};
    use ferrum_mir::types::Ty;
    use ferrum_mir::value::Value;

    /// main() calls helper(i) over a table and prints the sum; helper
    /// doubles its argument.  `scratch`'s return value is discarded by
    /// main, so a fault escaping `scratch` through %rax is dead in its
    /// only caller — the canonical caller-side-liftable escape.
    fn workload_module() -> Module {
        let mut module = Module::new();
        let g = module.add_global(Global::new("tab", vec![3, 1, 4, 1]));
        let mut h = FunctionBuilder::new("helper", &[Ty::I64], Some(Ty::I64));
        let two = Value::const_int(Ty::I64, 2);
        let d = h.mul(Ty::I64, Value::Arg(0), two);
        h.ret(Some(d));
        module.functions.push(h.finish());
        let mut s = FunctionBuilder::new("scratch", &[Ty::I64], Some(Ty::I64));
        let three = Value::const_int(Ty::I64, 3);
        let t = s.mul(Ty::I64, Value::Arg(0), three);
        s.ret(Some(t));
        module.functions.push(s.finish());
        let mut b = FunctionBuilder::new("main", &[], None);
        let base = b.global(g);
        let mut acc = b.iconst(Ty::I64, 0);
        for i in 0..4 {
            let idx = b.iconst(Ty::I64, i);
            let p = b.gep(base, idx);
            let v = b.load(Ty::I64, p);
            let d = b.call("helper", vec![v], Some(Ty::I64)).unwrap();
            acc = b.add(Ty::I64, acc, d);
        }
        // Void-style call: the result in %rax is never spilled, so the
        // escape out of `scratch` is dead at this (only) call site.
        b.call("scratch", vec![acc], None);
        b.print(acc);
        b.ret(None);
        module.functions.push(b.finish());
        module
    }

    fn compiled() -> (AsmProgram, Cpu) {
        let asm = ferrum_backend::compile(&workload_module()).unwrap();
        let cpu = Cpu::load(&asm).unwrap();
        (asm, cpu)
    }

    fn protected() -> (AsmProgram, Cpu) {
        let asm = ferrum_eddi::ferrum::Ferrum::new()
            .protect_module(&workload_module())
            .unwrap();
        let cpu = Cpu::load(&asm).unwrap();
        (asm, cpu)
    }

    fn cfg(samples: usize, seed: u64) -> CampaignConfig {
        CampaignConfig { samples, seed }
    }

    #[test]
    fn composed_map_never_weakens_local_verdicts() {
        let (asm, _) = protected();
        let coverage = CoverageMap::analyze(&asm);
        let summary = SummaryMap::build(&asm, &coverage);
        let composed = compose(&asm, &coverage, &summary);
        for (cf, lf) in composed.functions.iter().zip(&coverage.functions) {
            for (cs, ls) in cf.sites.iter().zip(&lf.sites) {
                for (&cv, &lv) in cs.verdicts.iter().zip(&ls.verdicts) {
                    if lv != StaticVerdict::Unknown {
                        assert_eq!(cv, lv, "composition must adopt decided verdicts");
                    } else {
                        assert!(
                            cv == StaticVerdict::Unknown || cv == StaticVerdict::Masked,
                            "Unknown may only lift to Masked, got {cv:?}"
                        );
                    }
                }
            }
        }
        assert_eq!(
            composed.local_rollup().total(),
            composed.composed_rollup().total()
        );
    }

    #[test]
    fn composition_lifts_register_escapes_dead_at_callers() {
        // Both helpers leave their result in %rax across a block
        // boundary, so the local analysis says Unknown (its scan stops
        // at the boundary) and the summary records a register-only
        // %rax escape.  `discarded`'s %rax is clobbered by the next
        // call before anything reads it -> lift to Masked; `used`'s
        // %rax feeds the print -> stays Unknown.  main's own %rax
        // escape at its final ret has no caller to observe it -> lift.
        let text = "\
.globl discarded
discarded:
    movq %rdi, %rax
    jmp discarded_end
discarded_end:
    ret
.globl used
used:
    movq %rdi, %rax
    jmp used_end
used_end:
    ret
.globl main
main:
    movq $5, %rdi
    call discarded
    movq $6, %rdi
    call used
    movq %rax, %rdi
    call print_i64
    movq $7, %rax
    jmp main_end
main_end:
    ret
";
        let asm = ferrum_asm::parser::parse_program(text).unwrap();
        let composed = compose(&asm, &CoverageMap::analyze(&asm), &SummaryMap::analyze(&asm));
        let by_name = |n: &str| composed.functions.iter().find(|f| f.name == n).unwrap();

        let discarded = by_name("discarded");
        assert_eq!(discarded.local.unknown, 8, "locally undecidable");
        assert_eq!(discarded.lifted, 8, "dead-at-caller escape lifts");
        assert_eq!(discarded.composed.unknown, 0);

        let used = by_name("used");
        assert_eq!(used.local.unknown, 8);
        assert_eq!(used.lifted, 0, "escape read by the caller must not lift");
        assert_eq!(used.composed.unknown, 8);

        let main = by_name("main");
        assert_eq!(main.lifted, 8, "entry-function register escape lifts");
        assert_eq!(composed.lifted(), 16);
        let whole = composed.composed_rollup();
        let local = composed.local_rollup();
        assert_eq!(whole.masked, local.masked + 16);
    }

    #[test]
    fn composition_lifts_empty_footprint_without_callers() {
        // A tainted SIMD register overwritten in the next block:
        // coverage has no SIMD liveness so it stays Unknown, the
        // summary proves the empty footprint, and the lift needs no
        // caller context at all.
        use ferrum_asm::program::{AsmBlock, AsmFunction, AsmInst};
        use ferrum_asm::reg::{Gpr, Reg, Xmm};
        use ferrum_asm::Operand;
        let mut b0 = AsmBlock::new("entry");
        b0.insts.push(AsmInst::synthetic(Inst::MovqToXmm {
            src: Operand::Reg(Reg::q(Gpr::Rcx)),
            dst: Xmm::new(0),
        }));
        let mut b1 = AsmBlock::new("tail");
        b1.insts.push(AsmInst::synthetic(Inst::MovqToXmm {
            src: Operand::Reg(Reg::q(Gpr::Rdx)),
            dst: Xmm::new(0),
        }));
        b1.insts.push(AsmInst::synthetic(Inst::Ret));
        let mut f = AsmFunction::new("main");
        f.blocks.push(b0);
        f.blocks.push(b1);
        let mut p = AsmProgram::new();
        p.functions.push(f);
        let composed = compose(&p, &CoverageMap::analyze(&p), &SummaryMap::analyze(&p));
        let site = composed.site(0).expect("xmm site");
        assert!(composed.lifted() >= 16, "all 16 lane bytes lift");
        assert!(site.verdicts.iter().all(|&v| v == StaticVerdict::Masked));
    }

    #[test]
    fn helper_is_called_and_contexts_found() {
        let (asm, _) = compiled();
        let ctx = call_site_contexts(&asm);
        let helper = ctx.get("helper").expect("helper has call sites");
        assert_eq!(helper.len(), 4, "four call sites in main");
    }

    #[test]
    fn stratified_campaign_is_reproducible_and_covers_both_functions() {
        let (asm, cpu) = compiled();
        let profile = cpu.profile();
        let interp = Engine::Interpreter(&cpu);
        let (a, cache_a) = run_campaign_stratified_on(interp, &profile, cfg(200, 11), &asm);
        let (b, cache_b) = run_campaign_stratified_on(interp, &profile, cfg(200, 11), &asm);
        assert_eq!(a, b);
        assert_eq!(cache_a, cache_b);
        // Quota floors undershoot by at most one sample per function.
        let slack = cache_a.shards.len();
        assert!(a.total() + slack >= 200 && a.total() <= 200 + slack);
        // Every function with sites drew samples.
        assert!(cache_a.shards.iter().all(|s| s.sites == 0 || !s.draws.is_empty()));
        assert_eq!(cache_a.shards.len(), 3);
        assert!(a.sdc > 0, "unprotected program shows SDCs");
    }

    #[test]
    fn incremental_with_unchanged_program_reuses_everything() {
        let (asm, cpu) = compiled();
        let profile = cpu.profile();
        let interp = Engine::Interpreter(&cpu);
        let (full, cache) = run_campaign_stratified_on(interp, &profile, cfg(150, 3), &asm);
        let (inc, cache2) =
            run_campaign_incremental_on(interp, &profile, cfg(150, 3), &asm, &cache);
        assert_eq!(full, inc, "replayed result must be record-identical");
        assert_eq!(cache, cache2);
        assert_eq!(inc.stats.reused_sites, inc.total());
        assert!((inc.stats.reuse_rate() - 1.0).abs() < 1e-12);
        assert_eq!(inc.stats.steps_executed, 0, "nothing executed");
    }

    #[test]
    fn incremental_after_single_function_edit_reinjects_only_that_function() {
        let (asm, cpu) = compiled();
        let profile = cpu.profile();
        let (_, cache) =
            run_campaign_stratified_on(Engine::Interpreter(&cpu), &profile, cfg(150, 9), &asm);

        // Edit `helper` only: append a no-op-equivalent instruction
        // (a `nop` has no injectable destination and no architectural
        // effect, so `main`'s dynamic behaviour and site census are
        // unchanged while helper's hash changes).
        let mut edited = asm.clone();
        let hi = edited
            .functions
            .iter()
            .position(|f| f.name == "helper")
            .unwrap();
        edited.functions[hi].blocks[0]
            .insts
            .insert(0, ferrum_asm::AsmInst::synthetic(Inst::Nop));
        let cpu2 = Cpu::load(&edited).unwrap();
        let profile2 = cpu2.profile();
        let interp = Engine::Interpreter(&cpu2);

        let (full, _) = run_campaign_stratified_on(interp, &profile2, cfg(150, 9), &edited);
        let (inc, cache2) =
            run_campaign_incremental_on(interp, &profile2, cfg(150, 9), &edited, &cache);
        assert_eq!(full, inc, "incremental ≡ full stratified re-run");

        // Only helper re-injected; every other shard replayed.
        let replayed: usize = cache
            .shards
            .iter()
            .filter(|s| s.name != "helper")
            .map(|s| s.draws.len())
            .sum();
        assert_eq!(inc.stats.reused_sites, replayed);
        assert!(inc.stats.reused_sites > 0);
        assert!(inc.stats.reuse_rate() > 0.0 && inc.stats.reuse_rate() < 1.0);
        let helper_shard = cache2.shards.iter().find(|s| s.name == "helper").unwrap();
        assert_ne!(
            helper_shard.hash,
            cache.shards.iter().find(|s| s.name == "helper").unwrap().hash
        );
    }

    #[test]
    fn cache_with_wrong_seed_is_ignored() {
        let (asm, cpu) = compiled();
        let profile = cpu.profile();
        let interp = Engine::Interpreter(&cpu);
        let (_, cache) = run_campaign_stratified_on(interp, &profile, cfg(100, 1), &asm);
        let (inc, _) = run_campaign_incremental_on(interp, &profile, cfg(100, 2), &asm, &cache);
        assert_eq!(inc.stats.reused_sites, 0, "seed mismatch voids the cache");
        let (full, _) = run_campaign_stratified_on(interp, &profile, cfg(100, 2), &asm);
        assert_eq!(full, inc);
    }

    #[test]
    fn composed_verdicts_sound_against_exhaustive_outcomes() {
        // Dynamic cross-check on the protected two-function program:
        // every sampled fault outcome must agree with the composed
        // verdict (Masked → Benign, Detected → Detected).
        let (asm, cpu) = protected();
        let profile = cpu.profile();
        let composed = compose(&asm, &CoverageMap::analyze(&asm), &SummaryMap::analyze(&asm));
        let res = crate::campaign::run_campaign(&cpu, &profile, cfg(400, 77));
        for &(fault, outcome) in &res.records {
            let i = profile
                .sites
                .binary_search_by_key(&fault.dyn_index, |s| s.dyn_index)
                .unwrap();
            let Some(v) = composed.verdict_at(profile.sites[i].pc, fault.raw_bit) else {
                continue;
            };
            match v {
                StaticVerdict::Masked => assert_eq!(
                    outcome,
                    Outcome::Benign,
                    "composed Masked contradicted at pc {} bit {}",
                    profile.sites[i].pc,
                    fault.raw_bit
                ),
                StaticVerdict::Detected => assert_eq!(
                    outcome,
                    Outcome::Detected,
                    "composed Detected contradicted at pc {} bit {}",
                    profile.sites[i].pc,
                    fault.raw_bit
                ),
                _ => {}
            }
        }
    }
}
