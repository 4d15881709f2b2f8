//! Table I of the paper: which instruction classes each technique
//! covers, and at which layer the protection is implemented.

use crate::Technique;

/// The instruction-class columns of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstClass {
    /// Ordinary computational instructions ("basic").
    Basic,
    /// Store lowering (value/address staging).
    Store,
    /// Conditional branches (flag materialisation).
    Branch,
    /// Call glue (argument/return marshalling).
    Call,
    /// Width-mapping moves introduced by cross-layer lowering.
    Mapping,
    /// Comparison instructions (RFLAGS producers).
    Comparison,
}

impl InstClass {
    /// All columns in Table I order.
    pub const ALL: [InstClass; 6] = [
        InstClass::Basic,
        InstClass::Store,
        InstClass::Branch,
        InstClass::Call,
        InstClass::Mapping,
        InstClass::Comparison,
    ];

    /// Column header.
    pub fn label(self) -> &'static str {
        match self {
            InstClass::Basic => "basic",
            InstClass::Store => "store",
            InstClass::Branch => "branch",
            InstClass::Call => "call",
            InstClass::Mapping => "mapping",
            InstClass::Comparison => "comparison",
        }
    }
}

/// How (and whether) a technique covers an instruction class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Coverage {
    /// Protected at IR level.
    Ir,
    /// Protected at assembly level without SIMD (`AS_1` in the paper).
    AsmScalar,
    /// Protected at assembly level with SIMD utilisation (`AS_2`).
    AsmSimd,
    /// Not covered ("/" in the paper).
    None,
}

impl Coverage {
    /// The table cell text, matching the paper's notation.
    pub fn cell(self) -> &'static str {
        match self {
            Coverage::Ir => "IR",
            Coverage::AsmScalar => "AS_1",
            Coverage::AsmSimd => "AS_2",
            Coverage::None => "/",
        }
    }
}

/// The cell of Table I for `technique` × `class`.
pub fn coverage(technique: Technique, class: InstClass) -> Coverage {
    match technique {
        Technique::None => Coverage::None,
        Technique::IrEddi => match class {
            InstClass::Basic => Coverage::Ir,
            _ => Coverage::None,
        },
        Technique::HybridAsmEddi => match class {
            InstClass::Branch | InstClass::Comparison => Coverage::Ir,
            _ => Coverage::AsmScalar,
        },
        Technique::Ferrum => Coverage::AsmSimd,
    }
}

/// Renders Table I as aligned text (consumed by `ferrum-repro table1`).
pub fn render_table() -> String {
    let mut out = String::new();
    out.push_str(&format!("{:<28}", "technique"));
    for c in InstClass::ALL {
        out.push_str(&format!("{:>12}", c.label()));
    }
    out.push('\n');
    for t in Technique::PROTECTED {
        out.push_str(&format!("{:<28}", t.label()));
        for c in InstClass::ALL {
            out.push_str(&format!("{:>12}", coverage(t, c).cell()));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_paper_table_1() {
        // Row 1: IR-LEVEL-EDDI covers only "basic", at IR.
        assert_eq!(coverage(Technique::IrEddi, InstClass::Basic), Coverage::Ir);
        for c in [
            InstClass::Store,
            InstClass::Branch,
            InstClass::Call,
            InstClass::Mapping,
            InstClass::Comparison,
        ] {
            assert_eq!(coverage(Technique::IrEddi, c), Coverage::None, "{c:?}");
        }
        // Row 2: hybrid covers branch/comparison at IR, the rest at AS_1.
        assert_eq!(
            coverage(Technique::HybridAsmEddi, InstClass::Basic),
            Coverage::AsmScalar
        );
        assert_eq!(
            coverage(Technique::HybridAsmEddi, InstClass::Store),
            Coverage::AsmScalar
        );
        assert_eq!(
            coverage(Technique::HybridAsmEddi, InstClass::Branch),
            Coverage::Ir
        );
        assert_eq!(
            coverage(Technique::HybridAsmEddi, InstClass::Call),
            Coverage::AsmScalar
        );
        assert_eq!(
            coverage(Technique::HybridAsmEddi, InstClass::Mapping),
            Coverage::AsmScalar
        );
        assert_eq!(
            coverage(Technique::HybridAsmEddi, InstClass::Comparison),
            Coverage::Ir
        );
        // Row 3: FERRUM covers everything at AS_2.
        for c in InstClass::ALL {
            assert_eq!(coverage(Technique::Ferrum, c), Coverage::AsmSimd, "{c:?}");
        }
    }

    #[test]
    fn rendered_table_contains_all_rows_and_cells() {
        let t = render_table();
        assert!(t.contains("IR-LEVEL-EDDI"));
        assert!(t.contains("HYBRID-ASSEMBLY-LEVEL-EDDI"));
        assert!(t.contains("FERRUM"));
        assert!(t.contains("AS_1"));
        assert!(t.contains("AS_2"));
        assert!(t.contains("comparison"));
        assert_eq!(t.lines().count(), 4);
    }
}
