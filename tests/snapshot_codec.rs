//! Property tests for the checkpoint snapshot codec: arbitrary snapshots
//! must round-trip through `encode`/`decode` bit-identically, and every
//! damaged byte stream — every torn tail and every single corrupted byte
//! (both exhaustively), version skew — must come back as a typed
//! [`RejectReason`] on the right ladder rung, never a panic and never a
//! silently different snapshot.
//!
//! The store-level counterparts (atomic rotation, self-healing removal,
//! previous-snapshot fallback, seeded fault injection) live in
//! `crates/harness/tests/checkpoint_resume.rs` against a real on-disk
//! [`SnapshotStore`]; these tests attack the codec itself, mirroring the
//! wire-layer fuzz suite in `crates/serve/tests/fuzz_wire.rs`.

use limpet::harness::{RejectReason, Snapshot, SNAPSHOT_FORMAT_VERSION};
use proptest::prelude::*;

/// Builds a snapshot whose every field is derived from the generators'
/// outputs — including the optional fields' presence.
fn build(
    seed: u64,
    t_bits: u64,
    steps: u64,
    state: Vec<u64>,
    with_plan: bool,
    meta_sel: usize,
) -> Snapshot {
    Snapshot {
        model: format!("Model{}", seed % 97),
        config: if seed.is_multiple_of(2) {
            "baseline".to_string()
        } else {
            "limpetMLIR-avx512".to_string()
        },
        n_cells: (seed % 33) as usize,
        dt_bits: 0.01f64.to_bits() ^ (seed >> 32),
        t_bits,
        steps_done: steps,
        tier: "optimized".to_string(),
        executed_steps: steps.wrapping_mul(3),
        nan_plan: with_plan.then_some((steps, seed)),
        shards: vec![(seed % 5) as usize, (seed % 7) as usize],
        meta: match meta_sel {
            0 => None,
            1 => Some(String::new()),
            2 => Some(r#"{"verb":"submit","id":"j-1","cells":256}"#.to_string()),
            _ => Some(format!("opaque sidecar {seed} \u{2764} with spaces")),
        },
        state,
    }
}

/// A representative snapshot, the seed for the truncation and mutation
/// attacks (as `SUBMIT` is for the wire fuzz suite).
fn sample() -> Snapshot {
    build(
        12345,
        2.5f64.to_bits(),
        400,
        (0..24u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect(),
        true,
        2,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary snapshots — any bit patterns in the clock and state,
    /// any counter values, optional fields present or absent — decode
    /// back to an `==`-equal snapshot.
    #[test]
    fn round_trip_is_bit_identical(
        seed in 0u64..u64::MAX,
        t_bits in 0u64..u64::MAX,
        steps in 0u64..u64::MAX,
        state in prop::collection::vec(0u64..u64::MAX, 0..64),
        with_plan in any::<bool>(),
        meta_sel in 0usize..4,
    ) {
        let snap = build(seed, t_bits, steps, state, with_plan, meta_sel);
        let decoded = Snapshot::decode(&snap.encode()).expect("clean bytes decode");
        prop_assert_eq!(decoded, snap);
    }

    /// Version skew: any header version other than the current one is
    /// rejected as `StaleVersion` — an old build's snapshot is refused
    /// outright rather than misread.
    #[test]
    fn version_skew_is_rejected_as_stale(version in 0u64..1_000_000) {
        if version == u64::from(SNAPSHOT_FORMAT_VERSION) {
            return Ok(());
        }
        let bytes = sample().encode();
        let header_end = bytes.iter().position(|&b| b == b'\n').unwrap();
        let header = std::str::from_utf8(&bytes[..header_end]).unwrap();
        let mut tokens: Vec<String> = header.split(' ').map(String::from).collect();
        tokens[1] = version.to_string();
        let mut patched = tokens.join(" ").into_bytes();
        patched.extend_from_slice(&bytes[header_end..]);
        match Snapshot::decode(&patched) {
            Err(RejectReason::StaleVersion) => {}
            other => prop_assert!(false, "version {version} gave {other:?}"),
        }
    }
}

/// Truncation at *every* prefix length: a torn write is always rejected
/// — inside the header line as `BadHeader`, anywhere after it as
/// `TornTail` (the header promises a payload length the bytes cannot
/// honor), also in the middle of the binary state block. No prefix ever
/// decodes to a snapshot.
#[test]
fn truncated_snapshots_are_rejected_on_the_torn_rung() {
    let bytes = sample().encode();
    let header_len = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
    for cut in 0..bytes.len() {
        let want = if cut < header_len {
            RejectReason::BadHeader
        } else {
            RejectReason::TornTail
        };
        assert_eq!(Snapshot::decode(&bytes[..cut]), Err(want), "cut at {cut}");
    }
}

/// Single-byte corruption, exhaustively: every byte of the stream under
/// a case-bit flip (`^0x20`, what the `ckpt-corrupt` fault injects) and
/// an all-bits flip (`^0xff`). A payload byte — text key line or binary
/// state word alike — always lands on the checksum rung, because the
/// word-wise sum is a bijection in each word; a header byte lands on a
/// header rung (the header has one spelling: single spaces, plain
/// decimal, lowercase hex). Never `Ok`, never a panic.
#[test]
fn mutated_snapshots_never_decode() {
    let bytes = sample().encode();
    let header_len = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
    for at in 0..bytes.len() {
        for mask in [0x20, 0xff] {
            let mut mutated = bytes.clone();
            mutated[at] ^= mask;
            let got = Snapshot::decode(&mutated);
            let ok = match got {
                Err(RejectReason::ChecksumMismatch) => at >= header_len,
                Err(
                    RejectReason::BadHeader | RejectReason::StaleVersion | RejectReason::TornTail,
                ) => at < header_len,
                _ => false,
            };
            assert!(
                ok,
                "byte {at} ^ {mask:#04x} (header is {header_len} bytes) gave {got:?}"
            );
        }
    }
}

/// The bit patterns most likely to betray a lossy codec — NaN, both
/// infinities, negative zero, all-ones — survive a round trip exactly,
/// in the state vector and in the clock fields alike.
#[test]
fn hostile_bit_patterns_round_trip() {
    let mut snap = sample();
    snap.state = vec![
        f64::NAN.to_bits(),
        f64::NAN.to_bits() ^ 0x0008_dead_beef_0001, // signalling, with payload
        (-f64::NAN).to_bits() | 0x7ff,
        f64::INFINITY.to_bits(),
        f64::NEG_INFINITY.to_bits(),
        (-0.0f64).to_bits(),
        0,
        u64::MAX,
        f64::MIN_POSITIVE.to_bits(),
        5e-324f64.to_bits(), // subnormal
    ];
    snap.t_bits = f64::NAN.to_bits();
    snap.dt_bits = u64::MAX;
    snap.steps_done = u64::MAX;
    snap.executed_steps = u64::MAX;
    snap.nan_plan = Some((u64::MAX, u64::MAX));
    let decoded = Snapshot::decode(&snap.encode()).expect("decode");
    assert_eq!(decoded, snap);
}

/// Empty state and empty shard list are legal (a zero-cell snapshot is
/// degenerate but must not wedge the codec).
#[test]
fn empty_state_round_trips() {
    let mut snap = sample();
    snap.state = Vec::new();
    snap.n_cells = 0;
    snap.shards = Vec::new();
    snap.meta = None;
    snap.nan_plan = None;
    let decoded = Snapshot::decode(&snap.encode()).expect("decode");
    assert_eq!(decoded, snap);
}

/// Garbage that never was a snapshot: empty input, wrong magic, and
/// random text all land on the bad-header rung.
#[test]
fn non_snapshots_are_bad_header() {
    for bytes in [
        &b""[..],
        &b"\n"[..],
        &b"limpet-cache 1 0 0\npayload"[..],
        &b"not a checkpoint at all"[..],
        &b"limpet-checkpoint\n"[..], // magic alone, no fields
    ] {
        assert_eq!(
            Snapshot::decode(bytes),
            Err(RejectReason::BadHeader),
            "input {:?}",
            String::from_utf8_lossy(bytes)
        );
    }
}
