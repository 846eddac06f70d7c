//! Bit-identity gate for tabulated lookup tables and their two codecs,
//! independent of how the tables are computed or encoded:
//!
//! * every roster model under `baseline` and `limpetMLIR-AVX-512` must
//!   tabulate to the FNV-1a recorded in `lut_fingerprints.csv` (taken
//!   over `serialize_luts(kernel.luts())`, the export text, so it pins the
//!   values `eval_func` produces), and the tables must hash to it again
//!   after `decode_luts(encode_luts(..))` and after a store and a load
//!   through the disk cache, whose kernels, optimized and raw, must then
//!   step like their cold-compiled twins bit for bit;
//! * `deserialize_luts(serialize_luts(x))` and `decode_luts(encode_luts(x))`
//!   return every bit pattern, including NaN payloads, ±inf, −0.0 and
//!   subnormals;
//! * the decoder accepts exactly the value tokens
//!   `u64::from_str_radix(tok, 16)` accepts — the canonical 16-digit form
//!   is only the fast path, not a narrowing of the format.

use limpet_codegen::pipeline::VectorIsa;
use limpet_harness::{
    CompiledKernel, DiskCache, DiskLoad, EntryKey, PipelineKind, Simulation, Workload,
};
use limpet_models::{model, ROSTER};
use limpet_vm::{decode_luts, deserialize_luts, encode_luts, serialize_luts, Kernel, LutData};

const CONFIGS: [PipelineKind; 2] = [
    PipelineKind::Baseline,
    PipelineKind::LimpetMlir(VectorIsa::Avx512),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The state after 20 steps of 8 cells whose membrane potentials start
/// 5 mV apart, so the lanes of a vector kernel read different table rows.
fn state_after_steps(kernel: &Kernel, layout: limpet_vm::StateLayout) -> Vec<u64> {
    let wl = Workload {
        n_cells: 8,
        steps: 0,
        dt: 0.01,
    };
    let mut sim = Simulation::with_kernel(kernel.clone(), layout, &wl);
    for cell in 0..wl.n_cells {
        sim.perturb_vm(cell, cell as f64 * 5.0 - 20.0);
    }
    sim.run(20);
    sim.state_bits()
}

#[test]
fn roster_luts_match_the_recorded_fingerprints() {
    let dir = std::env::temp_dir().join(format!("limpet-lut-identity-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let disk = DiskCache::open(&dir).expect("temp cache dir");
    let mut computed = String::from("model,config,fnv1a_of_serialize_luts\n");
    for entry in &ROSTER {
        let m = model(entry.name);
        for config in CONFIGS {
            let cold = CompiledKernel::compile(&m, config);
            let text = serialize_luts(cold.kernel().luts());

            let mut bytes = Vec::new();
            encode_luts(cold.kernel().luts(), &mut bytes);
            let decoded = decode_luts(&bytes).expect("byte codec round trip");
            assert_eq!(serialize_luts(&decoded), text, "{} bytes", entry.name);

            let key = EntryKey::new(&m, config, limpet_vm::bytecode_opt_enabled());
            disk.store(&key, entry.name, &cold).expect("store");
            let DiskLoad::Hit(warm) = disk.load(&key, &m) else {
                panic!(
                    "{} {}: stored entry did not load",
                    entry.name,
                    config.label()
                );
            };
            assert_eq!(serialize_luts(warm.kernel().luts()), text, "{}", entry.name);
            for (which, c, w) in [
                ("opt", cold.kernel(), warm.kernel()),
                ("raw", cold.raw_kernel(), warm.raw_kernel()),
            ] {
                assert_eq!(
                    state_after_steps(w, warm.layout()),
                    state_after_steps(c, cold.layout()),
                    "{} {} {which}: loaded kernel diverged from its cold twin",
                    entry.name,
                    config.label()
                );
            }
            computed.push_str(&format!(
                "{},{},{:016x}\n",
                entry.name,
                config.label(),
                fnv1a(text.as_bytes())
            ));
        }
    }
    assert_eq!(
        computed,
        include_str!("lut_fingerprints.csv"),
        "LUT fingerprints drifted from the fixture recorded at 412c305"
    );
    assert_eq!(disk.stats().rejects, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A one-column table over a grid with exactly `values.len()` rows.
fn table_of(values: &[f64]) -> LutData {
    let hi = (values.len() - 2) as f64;
    LutData::from_raw(0.0, hi, 1.0, 1, values.to_vec()).expect("grid matches the data")
}

fn bits_of(luts: &[LutData]) -> Vec<Vec<u64>> {
    luts.iter()
        .map(|l| l.data().iter().map(|v| v.to_bits()).collect())
        .collect()
}

#[test]
fn special_payloads_round_trip_bit_exactly() {
    let payloads: Vec<f64> = [
        0x0000_0000_0000_0000, // +0.0
        0x8000_0000_0000_0000, // -0.0
        0x0000_0000_0000_0001, // smallest subnormal
        0x800f_ffff_ffff_ffff, // largest negative subnormal
        0x0010_0000_0000_0000, // smallest normal
        0x7ff0_0000_0000_0000, // +inf
        0xfff0_0000_0000_0000, // -inf
        0x7ff8_0000_0000_0000, // canonical quiet NaN
        0x7ff0_0000_0000_0001, // signalling NaN, lowest payload bit
        0xfff8_dead_beef_cafe, // negative NaN with a payload
        0xffff_ffff_ffff_ffff, // all ones
        0x3ff0_0000_0000_0000, // 1.0
        0x0123_4567_89ab_cdef, // every nibble value
    ]
    .into_iter()
    .map(f64::from_bits)
    .collect();
    // Two tables so a short last line (13 = 8 + 5 values) is followed by
    // another header, and a reversed copy so every payload sits at a
    // different position on its line.
    let reversed: Vec<f64> = payloads.iter().rev().copied().collect();
    let luts = vec![table_of(&payloads), table_of(&reversed)];
    let text = serialize_luts(&luts);
    assert!(text.contains("fff8deadbeefcafe"), "lowercase 16-digit hex");
    let back = deserialize_luts(&text).expect("round trip");
    assert_eq!(bits_of(&back), bits_of(&luts));
    assert_eq!(serialize_luts(&back), text, "re-encoding is byte-identical");

    let mut bytes = Vec::new();
    encode_luts(&luts, &mut bytes);
    let back = decode_luts(&bytes).expect("byte round trip");
    assert_eq!(bits_of(&back), bits_of(&luts));
}

/// 1.0, as the encoder writes it.
const ONE: &str = "3ff0000000000000";

/// Payload head declaring one 4-row, 1-column table over [0, 2] at step 1.
fn four_row_header() -> String {
    format!(
        "luts v1 1\nlut {:016x} {:016x} {ONE} 4 1\n",
        0.0f64.to_bits(),
        2.0f64.to_bits()
    )
}

#[test]
fn token_acceptance_matches_from_str_radix() {
    let tokens = [
        ONE,
        "0",                  // short
        "3ff",                // short
        "03ff0000000000000",  // 17 digits, leading zero: fits
        "13ff0000000000000",  // 17 digits: overflows
        "3FF0000000000000",   // uppercase
        "3fF00000000000aB",   // mixed case
        "+3ff0000000000000",  // sign prefix, 17 chars
        "+3ff000000000000",   // sign prefix, 16 chars
        "-3ff000000000000",   // minus is never valid for u64
        "3ff000000000000g",   // non-hex digit, 16 chars
        "3ff0000 00000000",   // 16 chars that are really two tokens
        "0x3ff00000000000",   // radix prefix, 16 chars
        "3ff0000000000000.0", // decimal point
        "٣ff0000000000000",   // non-ASCII digit
    ];
    // Each case is a 4-row table with the token under test in one slot,
    // so it is met first, mid-line and last on its line.
    for tok in tokens {
        for slot in 0..4 {
            let mut row = [ONE; 4];
            row[slot] = tok;
            let text = format!("{}{}\n", four_row_header(), row.join(" "));
            // What the tokenised `u64::from_str_radix` reader decides:
            // every whitespace-separated token must parse and there must
            // be exactly four of them.
            let want: Option<Vec<u64>> = text
                .lines()
                .nth(2)
                .expect("data line")
                .split_whitespace()
                .map(|t| u64::from_str_radix(t, 16).ok())
                .collect::<Option<Vec<u64>>>()
                .filter(|v| v.len() == 4);
            let got = deserialize_luts(&text).ok().map(|l| bits_of(&l).remove(0));
            assert_eq!(got, want, "token {tok:?} in slot {slot}");
        }
    }
}

#[test]
fn layout_variations_and_trailing_data_decide_as_before() {
    let header = four_row_header();
    let accepted = [
        format!("{ONE} {ONE} {ONE} {ONE}\n"),
        format!("{ONE}\n{ONE}\n{ONE}\n{ONE}\n"), // one value per line
        format!("{ONE}  {ONE}\t{ONE} {ONE}\n"),  // wide separators
        format!("  {ONE} {ONE} {ONE} {ONE}  \n"), // padded line
        format!("{ONE} {ONE}\r\n\r\n{ONE} {ONE}\r\n"), // CRLF and a blank line
        format!("{ONE} {ONE} {ONE} {ONE}\nignored"), // text after the last table
    ];
    for body in &accepted {
        let luts = deserialize_luts(&format!("{header}{body}"))
            .unwrap_or_else(|e| panic!("{body:?} must decode: {e}"));
        assert_eq!(bits_of(&luts), [[1.0f64.to_bits(); 4]], "{body:?}");
    }
    let rejected = [
        (
            format!("{ONE} {ONE} {ONE} {ONE} {ONE}\n"),
            "trailing lut data",
        ),
        (
            format!("{ONE} {ONE} {ONE}\n{ONE} {ONE}\n"),
            "trailing lut data",
        ),
        (format!("{ONE} {ONE} {ONE}\n"), "unexpected end of input"),
        (format!("{ONE} {ONE} {ONE} {ONE}{ONE}\n"), "bad f64 bits"),
        (
            format!("{ONE} {ONE} {ONE} 3ff000000000000\u{e9}\n"),
            "bad f64 bits",
        ),
    ];
    for (body, why) in &rejected {
        let err = deserialize_luts(&format!("{header}{body}")).expect_err(body);
        assert!(err.contains(why), "{body:?}: {err}");
    }
}
