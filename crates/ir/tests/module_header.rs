//! The header parse agrees with the full parse on every module the roster
//! prints: for each of the 43 models under the scalar baseline and the
//! AVX-512 limpetMLIR pipeline (the two configurations the disk cache is
//! benchmarked under), `parse_module_header` returns the name and the
//! attributes `parse_module` does, and refuses the header line once its
//! opening `{` is cut off.

use limpet_codegen::pipeline::{self, Layout, VectorIsa};
use limpet_ir::{parse_module, parse_module_header, print_module};

#[test]
fn header_parse_agrees_with_the_full_parse_over_the_roster() {
    for name in limpet_models::all_names() {
        let model = limpet_models::model(name);
        let lanes = VectorIsa::Avx512.lanes();
        for lowered in [
            pipeline::baseline(&model),
            pipeline::limpet_mlir(&model, VectorIsa::Avx512, Layout::AoSoA { block: lanes }),
        ] {
            let text = print_module(&lowered.module);
            let full = parse_module(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            let header = parse_module_header(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(header.name(), full.name(), "{name}");
            assert_eq!(header.attrs, full.attrs, "{name}");
            assert!(
                !header.attrs.is_empty(),
                "{name}: the pipeline stamps its attributes"
            );
            assert!(
                header.funcs().is_empty() && header.luts.is_empty(),
                "{name}"
            );

            let first_line = text.lines().next().unwrap();
            let open = first_line.strip_suffix(" {").expect(first_line);
            let err = parse_module_header(open).unwrap_err();
            assert!(
                err.message.contains("opening the module body"),
                "{name}: {err}"
            );
        }
    }
}
