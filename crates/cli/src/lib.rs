//! # ferrum-cli — command-line protection of assembly listings
//!
//! The paper's §II-D deployment story: "the source of the target program
//! is compiled down to assembly code, then the EDDI methodology can be
//! applied on the compiled assembly code before translating to
//! executable".  [`protect_listing`] is exactly that step for the
//! `ferrum-asm` dialect, exposed as the `ferrum-protect` binary:
//!
//! ```sh
//! ferrum-protect input.s -o protected.s --technique ferrum
//! ferrum-protect input.s --run                 # simulate instead of printing
//! ferrum-protect input.s --campaign 500        # quick fault campaign
//! ```

pub mod args;
pub mod catalog;

use std::fmt;

use ferrum_asm::program::AsmProgram;
use ferrum_eddi::ferrum::{Ferrum, FerrumConfig};
use ferrum_eddi::hybrid::HybridAsmEddi;

/// Which assembly-level technique to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CliTechnique {
    /// FERRUM (SIMD batching + deferred flags + peephole).
    Ferrum,
    /// FERRUM with AVX-512 batches of eight.
    FerrumZmm,
    /// Plain scalar duplication of every site (assembly half of the
    /// hybrid baseline; `cmp`/`test` sites are left to an IR-level
    /// prepass the CLI cannot run on bare assembly).
    Scalar,
}

impl CliTechnique {
    /// Parses a `--technique` value.
    pub fn parse(s: &str) -> Option<CliTechnique> {
        match s {
            "ferrum" => Some(CliTechnique::Ferrum),
            "ferrum-zmm" => Some(CliTechnique::FerrumZmm),
            "scalar" => Some(CliTechnique::Scalar),
            _ => None,
        }
    }
}

impl fmt::Display for CliTechnique {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CliTechnique::Ferrum => "ferrum",
            CliTechnique::FerrumZmm => "ferrum-zmm",
            CliTechnique::Scalar => "scalar",
        })
    }
}

/// Errors surfaced by the CLI pipeline.
#[derive(Debug)]
pub enum CliError {
    /// The input failed to parse.
    Parse(ferrum_asm::parser::ParseError),
    /// The parsed program failed validation.
    Invalid(String),
    /// A protection pass rejected the program.
    Pass(ferrum_eddi::PassError),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Parse(e) => write!(f, "{e}"),
            CliError::Invalid(m) => write!(f, "invalid program: {m}"),
            CliError::Pass(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CliError {}

/// Parses and validates an assembly listing.
fn parse_listing(text: &str) -> Result<AsmProgram, CliError> {
    let prog = ferrum_asm::parser::parse_program(text).map_err(CliError::Parse)?;
    prog.validate()
        .map_err(|e| CliError::Invalid(e.first().map(ToString::to_string).unwrap_or_default()))?;
    Ok(prog)
}

/// Protects a listing and statically verifies the result with
/// `ferrum-lint` (exposed as the `ferrum-lint` binary).  Protection
/// happens in-memory: a printed listing loses the provenance tags the
/// lint keys on, so lint-after-parse would have nothing to check.
/// FERRUM techniques use manifest-driven linting — the pass declares
/// its reserved registers and accumulators and the lint verifies the
/// claims on top of its own shape inference.
///
/// # Errors
///
/// Parse, validation, and pass failures.
pub fn lint_listing(
    text: &str,
    technique: CliTechnique,
) -> Result<ferrum_asm::analysis::lint::LintReport, CliError> {
    use ferrum_asm::analysis::lint::{lint_program, lint_program_with};
    let prog = parse_listing(text)?;
    match technique {
        CliTechnique::Ferrum | CliTechnique::FerrumZmm => {
            let cfg = FerrumConfig {
                zmm: technique == CliTechnique::FerrumZmm,
                ..FerrumConfig::default()
            };
            let (prot, manifests) = Ferrum::with_config(cfg)
                .protect_with_manifest(&prog)
                .map_err(CliError::Pass)?;
            Ok(lint_program_with(&prot, &manifests))
        }
        CliTechnique::Scalar => {
            let prot = HybridAsmEddi::new()
                .protect_asm(&prog)
                .map_err(CliError::Pass)?;
            Ok(lint_program(&prot))
        }
    }
}

/// Parses an assembly listing, protects it, and returns the protected
/// program.
///
/// # Errors
///
/// Parse, validation, and pass failures.
pub fn protect_listing(text: &str, technique: CliTechnique) -> Result<AsmProgram, CliError> {
    let prog = parse_listing(text)?;
    match technique {
        CliTechnique::Ferrum => Ferrum::new().protect(&prog).map_err(CliError::Pass),
        CliTechnique::FerrumZmm => {
            let cfg = FerrumConfig {
                zmm: true,
                ..FerrumConfig::default()
            };
            Ferrum::with_config(cfg)
                .protect(&prog)
                .map_err(CliError::Pass)
        }
        CliTechnique::Scalar => HybridAsmEddi::new()
            .protect_asm(&prog)
            .map_err(CliError::Pass),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LISTING: &str = "\
.globl main
main:
main_entry:
\tmovq $6, %rax
\tmovq $7, %rcx
\timulq %rcx, %rax
\tmovq %rax, %rdi
\tcall print_i64
\tret
";

    #[test]
    fn listing_protects_and_runs() {
        for t in [
            CliTechnique::Ferrum,
            CliTechnique::FerrumZmm,
            CliTechnique::Scalar,
        ] {
            let prot = protect_listing(LISTING, t).unwrap_or_else(|e| panic!("{t}: {e}"));
            assert!(prot.validate().is_ok(), "{t}");
            let cpu = ferrum_cpu::run::Cpu::load(&prot).expect("loads");
            let r = cpu.run(None);
            assert_eq!(r.output, vec![42], "{t}");
        }
    }

    #[test]
    fn ferrum_protected_listing_has_full_coverage() {
        let prot = protect_listing(LISTING, CliTechnique::Ferrum).expect("protects");
        let cpu = ferrum_cpu::run::Cpu::load(&prot).expect("loads");
        let profile = cpu.profile();
        let res = ferrum_faultsim::campaign::exhaustive_campaign_on(
            ferrum_faultsim::Engine::Interpreter(&cpu),
            &profile,
            8,
        );
        assert_eq!(res.sdc, 0, "{res:?}");
    }

    #[test]
    fn lint_listing_is_clean_for_all_techniques() {
        for t in [
            CliTechnique::Ferrum,
            CliTechnique::FerrumZmm,
            CliTechnique::Scalar,
        ] {
            let rep = lint_listing(LISTING, t).unwrap_or_else(|e| panic!("{t}: {e}"));
            assert!(rep.insts_scanned > 0, "{t}");
            assert!(
                rep.is_clean(),
                "{t}: {} finding(s); first: {:#?}",
                rep.findings.len(),
                rep.findings.first()
            );
        }
    }

    #[test]
    fn garbage_input_is_rejected_gracefully() {
        assert!(matches!(
            protect_listing("florble %zork\n", CliTechnique::Ferrum),
            Err(CliError::Parse(_))
        ));
        // A parsable but main-less program fails validation.
        let r = protect_listing(".globl f\nf:\nf0:\n\tret\n", CliTechnique::Ferrum);
        assert!(matches!(r, Err(CliError::Invalid(_))), "{r:?}");
    }

    #[test]
    fn technique_names_parse() {
        assert_eq!(CliTechnique::parse("ferrum"), Some(CliTechnique::Ferrum));
        assert_eq!(
            CliTechnique::parse("ferrum-zmm"),
            Some(CliTechnique::FerrumZmm)
        );
        assert_eq!(CliTechnique::parse("scalar"), Some(CliTechnique::Scalar));
        assert_eq!(CliTechnique::parse("magic"), None);
    }
}
