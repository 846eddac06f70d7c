//! # limpet-ir: mlir-lite
//!
//! A compact, multi-dialect SSA intermediate representation modeled on the
//! subset of [MLIR](https://mlir.llvm.org) used by the limpetMLIR code
//! generator (Thangamani et al., *Lifting Code Generation of Cardiac
//! Physiology Simulation to Novel Compiler Technology*, CGO 2023):
//!
//! * **Dialects** — `arith`, `math`, `scf` (structured control flow),
//!   `func`, `vector`, plus the domain dialects `limpet` (ionic-model data
//!   access) and `lut` (lookup-table interpolation).
//! * **Structure** — a [`Module`] holds [`Func`]s; each function owns a body
//!   region; `scf.if` / `scf.for` own nested single-block regions. Values
//!   are SSA.
//! * **Text format** — [`print_module`] emits an MLIR-style textual form
//!   that [`parse_module`] parses back (round-trip tested).
//! * **Verification** — [`verify_module`] enforces dominance, typing, and
//!   terminator rules.
//!
//! # Examples
//!
//! Build, print, and re-parse a tiny kernel:
//!
//! ```
//! use limpet_ir::{Builder, Func, Module, parse_module, print_module, verify_module};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut module = Module::new("demo");
//! let mut f = Func::new("compute", &[], &[]);
//! let mut b = Builder::new(&mut f);
//! let vm = b.get_ext("Vm");
//! let k = b.const_f(0.04);
//! let dv = b.mulf(vm, k);
//! b.set_state("u", dv);
//! b.ret(&[]);
//! module.add_func(f);
//!
//! verify_module(&module)?;
//! let text = print_module(&module);
//! let reparsed = parse_module(&text)?;
//! assert_eq!(print_module(&reparsed), text);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod attr;
mod builder;
mod module;
mod ops;
mod parser;
mod printer;
pub mod testing;
mod types;
mod verifier;

/// Version stamp of the textual IR format ([`print_module`] /
/// [`parse_module`]). Bump whenever the printed form changes shape — the
/// on-disk kernel cache embeds this stamp in every entry and treats a
/// mismatch as "stale: recompile", so old entries can never be misparsed
/// by a newer reader (or vice versa).
pub const TEXT_FORMAT_VERSION: u32 = 1;

pub use attr::{Attr, Attrs};
pub use builder::Builder;
pub use module::{
    Func, LutSpec, Module, OpData, OpId, RegionData, RegionId, ValueData, ValueDef, ValueId,
};
pub use ops::{CmpFPred, CmpIPred, MathFn, OpKind};
pub use parser::{parse_module, ParseError};
pub use printer::{print_func, print_module};
pub use types::{ScalarType, Type};
pub use verifier::{verify_module, VerifyCode, VerifyError};
