//! # limpet-vm
//!
//! The execution substrate of limpet-rs: a bytecode compiler and `W`-lane
//! register virtual machine that plays the role of the LLVM JIT + CPU SIMD
//! units in the original limpetMLIR system.
//!
//! * [`Kernel`] compiles a lowered IR module ([`limpet_ir::Module`]) into
//!   flat bytecode and executes it over cell populations.
//! * The lane count `W` (1, 2, 4, 8) is scalar, SSE, AVX2, and AVX-512
//!   execution: the `W`-lane inner loops are compiled for that instruction
//!   set where the CPU has it ([`step_isa`]), and one instruction dispatch
//!   covers `W` cells, or four `W`-blocks when the program is straight-line
//!   vector code.
//! * [`CellStates`] provides the AoS / AoSoA data layouts of paper §3.4.1;
//!   [`ExtArrays`] the external-variable arrays of Listing 2.
//! * [`LutData`] implements lookup-table row interpolation (paper
//!   §3.4.2) in the vectorized, the baseline scalar-call and the cubic
//!   mode of an [`Instr::LutRow`].
//! * [`vmath`] is the Intel SVML stand-in: block math kernels.
//! * [`Profile`] counts flops and bytes for the roofline model (paper §4.5).
//!
//! # Examples
//!
//! Compile and run one forward-Euler step of a decay model:
//!
//! ```
//! use limpet_vm::{Kernel, ModelInfo, SimContext, StateLayout};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let model = limpet_easyml::compile_model("decay", "diff_x = -x;")?;
//! let lowered = limpet_codegen::pipeline::baseline(&model);
//! let info = ModelInfo {
//!     state_names: vec!["x".into()],
//!     state_inits: vec![1.0],
//!     ..Default::default()
//! };
//! let kernel = Kernel::from_module(&lowered.module, &info)?;
//! let mut state = kernel.new_states(100, StateLayout::Aos);
//! let mut ext = kernel.new_ext(100);
//! kernel.run_step(&mut state, &mut ext, None, SimContext { dt: 0.01, t: 0.0 });
//! assert!((state.get(0, 0) - 0.99).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bytecode;
mod engine;
mod eval;
mod lut;
mod optimize;
mod serialize;
mod state;
// rustfmt's width-fitting is superlinear on this file as a whole (minutes of
// CPU on 500 lines, though any subset formats instantly); skip it so
// `cargo fmt --check` terminates.
#[rustfmt::skip]
pub mod vmath;

pub use bytecode::{
    compile_program, BBin, CompileError, FBin, IBin, Instr, LutInterp, Program, RUSH_LARSEN_GUARD,
};
pub use engine::{step_isa, tabulate_luts, Kernel, ModelInfo, ParentView, Profile, SimContext};
pub use eval::{eval_func, EvalContext, EvalError, ParamOnlyContext, Val};
pub use lut::{lut_bytes, same_luts, LutBytes, LutData};
pub use optimize::{bytecode_opt_enabled, optimize_program, optimize_program_with, OptStats};
pub use serialize::{
    decode_luts, deserialize_luts, deserialize_program, encode_luts, encoded_luts_len,
    serialize_luts, serialize_program, BYTECODE_FORMAT_VERSION,
};
pub use state::{CellStates, ExtArrays, StateLayout};
