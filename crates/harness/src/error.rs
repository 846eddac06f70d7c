//! The top-level compile error for the harness: every way a model can fail
//! on its path from EasyML source to executable bytecode, as one structured
//! type instead of a process abort.
//!
//! Each variant wraps the structured diagnostic of the stage that failed —
//! spanned [`Diagnostic`]s from the frontend, [`PipelineError`] from the
//! pass manager (which carries the failing pass name and the verifier's
//! coded [`limpet_ir::VerifyError`]), and the bytecode compiler's error.
//! [`CompileError::Panicked`] is the containment variant: a panic caught at
//! the cache boundary so one broken model cannot take down a roster run.

use std::fmt;

use limpet_easyml::{Diagnostic, SemaErrors};
use limpet_pm::PipelineError;

/// Why a model failed to compile, tagged by pipeline stage.
#[derive(Debug)]
#[non_exhaustive]
pub enum CompileError {
    /// Lexing or parsing failed (spanned, coded `E01xx`/`E02xx`).
    Parse(Diagnostic),
    /// Semantic analysis failed (one or more coded `E03xx` diagnostics).
    Sema(SemaErrors),
    /// A pass pipeline failed IR verification mid-flight.
    Pipeline(PipelineError),
    /// The verified module could not be compiled to bytecode.
    Bytecode(limpet_vm::CompileError),
    /// Compilation panicked; the payload is the panic message. The panic
    /// was caught at the kernel-cache boundary and the model quarantined.
    Panicked(String),
}

impl CompileError {
    /// The pipeline stage that failed, as a stable label for reports.
    pub fn stage(&self) -> &'static str {
        match self {
            CompileError::Parse(_) => "parse",
            CompileError::Sema(_) => "sema",
            CompileError::Pipeline(_) => "pipeline",
            CompileError::Bytecode(_) => "bytecode",
            CompileError::Panicked(_) => "panic",
        }
    }
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Parse(d) => write!(f, "{d}"),
            CompileError::Sema(e) => write!(f, "{e}"),
            CompileError::Pipeline(e) => write!(f, "{e}"),
            CompileError::Bytecode(e) => write!(f, "bytecode compilation failed: {e}"),
            CompileError::Panicked(msg) => write!(f, "compilation panicked: {msg}"),
        }
    }
}

impl std::error::Error for CompileError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CompileError::Parse(d) => Some(d),
            CompileError::Sema(e) => Some(e),
            CompileError::Pipeline(e) => Some(e),
            CompileError::Bytecode(e) => Some(e),
            CompileError::Panicked(_) => None,
        }
    }
}

impl From<Diagnostic> for CompileError {
    fn from(d: Diagnostic) -> CompileError {
        CompileError::Parse(d)
    }
}

impl From<SemaErrors> for CompileError {
    fn from(e: SemaErrors) -> CompileError {
        CompileError::Sema(e)
    }
}

impl From<PipelineError> for CompileError {
    fn from(e: PipelineError) -> CompileError {
        CompileError::Pipeline(e)
    }
}

impl From<limpet_vm::CompileError> for CompileError {
    fn from(e: limpet_vm::CompileError) -> CompileError {
        CompileError::Bytecode(e)
    }
}

/// Compiles EasyML source to a checked model, returning structured
/// diagnostics instead of panicking. This is also the
/// [`crate::FaultKind::ParseError`] injection point: an armed plan
/// corrupts the source deterministically before parsing, so the spanned
/// diagnostic path is exercised with a real lex/parse failure.
///
/// # Errors
///
/// Returns [`CompileError::Parse`] or [`CompileError::Sema`] with the
/// offending model name attached.
pub fn compile_source(name: &str, src: &str) -> Result<limpet_easyml::Model, CompileError> {
    let corrupted;
    let src = match crate::faults::take(crate::FaultKind::ParseError) {
        Some(seed) => {
            corrupted = crate::faults::corrupt_source(src, seed);
            &corrupted
        }
        None => src,
    };
    let result: Result<limpet_easyml::Model, CompileError> = (|| {
        let ast = limpet_easyml::parse_model(name, src)?;
        Ok(limpet_easyml::analyze(&ast)?)
    })();
    if let Err(e) = &result {
        // Frontend failures join the process-wide incident report next to
        // compile-time quarantines and lock recoveries.
        crate::KernelCache::global().log(crate::Incident::new(
            crate::IncidentKind::FrontendError,
            name,
            e.to_string(),
        ));
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_errors_carry_code_and_stage() {
        let err = match limpet_easyml::parse_model("Broken", "diff_x = ;") {
            Err(d) => CompileError::from(d),
            Ok(_) => panic!("expected a parse error"),
        };
        assert_eq!(err.stage(), "parse");
        let text = err.to_string();
        assert!(text.contains("E02"), "expected a parse code in '{text}'");
        assert!(text.contains("Broken"), "expected model name in '{text}'");
    }

    #[test]
    fn pipeline_errors_expose_the_verifier_code() {
        use limpet_codegen::pipeline::try_apply_pipeline;
        let model = limpet_easyml::compile_model("M", "diff_x = -x;").unwrap();
        let mut lowered =
            limpet_codegen::lower_model(&model, &limpet_codegen::CodegenOptions { use_lut: true });
        // Corrupt the module so the pipeline's input verification fails.
        crate::faults::corrupt_module(&mut lowered.module, 3).expect("candidate op");
        let err = match try_apply_pipeline(&mut lowered.module, "canonicalize") {
            Err(e) => CompileError::from(e),
            Ok(_) => panic!("expected a verify failure"),
        };
        assert_eq!(err.stage(), "pipeline");
        match &err {
            CompileError::Pipeline(p) => assert!(p.verify_error().is_some()),
            other => panic!("unexpected variant {other:?}"),
        }
    }
}
