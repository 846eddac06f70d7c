//! The independent reference: committed digests of a fixed,
//! seed-independent run of every roster model under each benchmarked
//! configuration (64 cells × 100 steps). Every workload checks them in
//! set-up, so a measurement of a broken step loop cannot be reported as
//! a speed.
//!
//! Two scenarios per row. `state_digest` covers the full state after a
//! run whose cells start from *fixed* per-cell Vm offsets, so every lane
//! of a vector kernel computes something different and a lane or layout
//! mix-up changes the digest. `vm_100` and `vm_250` are the bits of the
//! membrane potential of the *unperturbed* run after 100 and 250 steps —
//! the only scenario the daemon's wire protocol can express. There every
//! cell is the same, so the digest a `done` event must carry for any cell
//! count follows from one cell's bits ([`uniform_vm_digest`]).
//!
//! Rows are per configuration because `baseline` and `limpetMLIR-AVX-512`
//! legitimately differ in the last bits (the vector pipeline contracts
//! multiply-adds); bit-identity holds within a configuration — across
//! caches, tiers, resumes and the daemon — not between them.

use std::collections::BTreeMap;
use std::path::PathBuf;

/// Cells of the golden run.
pub const CELLS: usize = 64;
/// Steps of the golden run.
pub const STEPS: usize = 100;

const HEADER: &str = "model,config,state_digest,vm_100,vm_250";

/// The committed file, embedded at build time so a run reads nothing
/// outside its own executable.
const COMMITTED: &str = include_str!("../golden/digests.csv");

/// FNV-1a over little-endian bytes of `words` — the digest the harness's
/// `trajectory_digest` and the daemon's `done.digest` use, applied here
/// to whatever bit vector the caller picks.
pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// Digest of a simulation's full visible state (every state variable and
/// external of every cell).
pub fn state_digest(sim: &limpet_harness::Simulation) -> u64 {
    fnv1a(sim.state_bits())
}

/// The daemon's `done.digest` for `n_cells` cells that all hold the
/// membrane potential `vm_bits`: FNV-1a over every cell's Vm bits.
pub fn uniform_vm_digest(vm_bits: u64, n_cells: usize) -> u64 {
    fnv1a(std::iter::repeat_n(vm_bits, n_cells))
}

/// Steps of the daemon jobs the `vm_250` column is the reference for.
pub const JOB_STEPS: usize = 250;

/// Golden digests of one model under one configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digests {
    /// [`state_digest`] after the perturbed golden run.
    pub state: u64,
    /// Vm bits of the unperturbed cell after [`STEPS`] steps.
    pub vm_100: u64,
    /// Vm bits of the unperturbed cell after [`JOB_STEPS`] steps.
    pub vm_250: u64,
}

/// Golden rows keyed by `(model, configuration label)`.
pub type Golden = BTreeMap<(String, String), Digests>;

/// Seed of the fixed per-cell offsets of the perturbed scenario.
pub const OFFSET_SEED: u64 = 0;

/// Parses the golden file: a header line, then
/// `model,config,hex,hex,hex` rows.
///
/// # Errors
///
/// Returns the first malformed line with its 1-based number.
pub fn parse(text: &str) -> Result<Golden, String> {
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, h)) if h.trim() == HEADER => {}
        other => return Err(format!("line 1: expected '{HEADER}', found {other:?}")),
    }
    let mut out = BTreeMap::new();
    for (i, line) in lines {
        if line.trim().is_empty() {
            continue;
        }
        let bad = |what: &str| format!("line {}: {what}: '{line}'", i + 1);
        let fields: Vec<&str> = line.split(',').map(str::trim).collect();
        let [model, config, state, vm_100, vm_250] = fields[..] else {
            return Err(bad("expected 5 fields"));
        };
        let hex = |s: &str| {
            (s.len() == 16)
                .then(|| u64::from_str_radix(s, 16).ok())
                .flatten()
                .ok_or_else(|| bad("digest is not 16 hex digits"))
        };
        let digests = Digests {
            state: hex(state)?,
            vm_100: hex(vm_100)?,
            vm_250: hex(vm_250)?,
        };
        let key = (model.to_owned(), config.to_owned());
        if out.insert(key, digests).is_some() {
            return Err(bad("duplicate model and configuration"));
        }
    }
    Ok(out)
}

/// The committed digests.
///
/// # Panics
///
/// Panics when the committed file is malformed (a broken checkout).
pub fn committed() -> Golden {
    parse(COMMITTED).unwrap_or_else(|e| panic!("golden/digests.csv: {e}"))
}

/// Renders digests in file order (sorted by model, then configuration).
pub fn render(rows: &Golden) -> String {
    let mut s = format!("{HEADER}\n");
    for ((model, config), d) in rows {
        s.push_str(&format!(
            "{model},{config},{:016x},{:016x},{:016x}\n",
            d.state, d.vm_100, d.vm_250
        ));
    }
    s
}

/// Where `--record-golden` writes: the source tree the binary was built
/// from.
pub fn path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden/digests.csv")
}

/// Writes a new golden file, refusing to replace one that already holds
/// rows: re-recording is how a wrong digest becomes the reference, so it
/// takes deleting the file by hand.
///
/// # Errors
///
/// Returns a description when rows already exist or the write fails.
pub fn record(rows: &Golden) -> Result<PathBuf, String> {
    let path = path();
    if let Ok(existing) = std::fs::read_to_string(&path) {
        // A header-only file is the bootstrap state, anything else is kept.
        if !parse(&existing).is_ok_and(|rows| rows.is_empty()) {
            return Err(format!(
                "{} already exists with content; delete it to re-record",
                path.display()
            ));
        }
    }
    std::fs::write(&path, render(rows)).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_render() {
        let mut rows = Golden::new();
        let key = |m: &str, c: &str| (m.to_owned(), c.to_owned());
        rows.insert(
            key("OHara", "baseline"),
            Digests {
                state: 0x0123_4567_89ab_cdef,
                vm_100: 1,
                vm_250: 4,
            },
        );
        let other = Digests {
            state: 2,
            vm_100: 3,
            vm_250: 5,
        };
        rows.insert(key("OHara", "limpetMLIR-AVX-512"), other);
        assert_eq!(parse(&render(&rows)).unwrap(), rows);
    }

    #[test]
    fn parse_rejects_malformed_files() {
        assert!(parse("").unwrap_err().contains("line 1"));
        assert!(parse("model,digest\n").unwrap_err().contains("line 1"));
        let head = format!("{HEADER}\n");
        let one = "0000000000000001";
        let err = parse(&format!("{head}A,baseline,00,{one},{one}\n")).unwrap_err();
        assert!(err.contains("line 2") && err.contains("16 hex"), "{err}");
        let err = parse(&format!("{head}A,baseline,{one},{one}\n")).unwrap_err();
        assert!(err.contains("5 fields"), "{err}");
        let row = "A,baseline,0000000000000001,0000000000000002,0000000000000003\n";
        let err = parse(&format!("{head}{row}{row}")).unwrap_err();
        assert!(err.contains("line 3") && err.contains("duplicate"), "{err}");
        // Blank lines are tolerated, hex is case-insensitive.
        let ok = parse(&format!(
            "{head}\nA,baseline,00000000000000AB,00000000000000cd,{one}\n"
        ));
        let key = ("A".to_owned(), "baseline".to_owned());
        let want = Digests {
            state: 0xab,
            vm_100: 0xcd,
            vm_250: 1,
        };
        assert_eq!(ok.unwrap()[&key], want);
    }

    #[test]
    fn committed_file_covers_the_roster() {
        let rows = committed();
        for entry in &limpet_models::ROSTER {
            for config in crate::workloads::CONFIGS {
                let key = (entry.name.to_owned(), config.label());
                assert!(rows.contains_key(&key), "no golden row for {key:?}");
            }
        }
        assert_eq!(rows.len(), 2 * limpet_models::ROSTER.len());
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a([]), 0xcbf2_9ce4_8422_2325);
        // FNV-1a("a") over one byte would be af63dc4c8601ec8c; over the
        // 8-byte little-endian word it continues with seven zero bytes.
        let mut h: u64 = 0xaf63_dc4c_8601_ec8c;
        for _ in 0..7 {
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        assert_eq!(fnv1a([u64::from(b'a')]), h);
        assert_eq!(uniform_vm_digest(7, 3), fnv1a([7, 7, 7]));
    }
}
