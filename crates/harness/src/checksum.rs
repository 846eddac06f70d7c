//! The two hashes the harness uses, each defined once.
//!
//! [`fnv1a`] is textbook byte-wise FNV-1a. Its values are pinned from
//! outside — snapshot and native file names, the trajectory digests in
//! the golden files, jitter seeds — so it must never change.
//!
//! [`payload_sum`] guards the payload of the three durable envelopes
//! (`.lcp` snapshots, `.lke` cache entries, `.lso` native containers).
//! It is the same fold over 8-byte little-endian words instead of bytes,
//! which makes it eight times shorter a dependency chain. Detection is
//! not weakened for the damage it exists to catch: `h ← (h ⊕ w)·p` with
//! odd `p` is a bijection in `h` for fixed `w` and in `w` for fixed `h`,
//! so a change confined to one word (any single flipped byte) *always*
//! changes the sum. It guards against accidents, not adversaries.

/// FNV-1a 64-bit offset basis: the hash of the empty input.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Byte-wise FNV-1a of `bytes`, continuing from state `h` — for hashing
/// a stream piece by piece (start from [`FNV_OFFSET`]).
pub fn fnv1a_from(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// Byte-wise FNV-1a of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_from(FNV_OFFSET, bytes)
}

/// Byte-wise FNV-1a of `words`, eight little-endian bytes each. Over the
/// membrane-potential bits of every cell this is the trajectory digest
/// `figures --digest` prints and a `limpet-serve` `done` event carries.
pub fn fnv1a_words(words: impl Iterator<Item = u64>) -> u64 {
    words.fold(FNV_OFFSET, |h, w| fnv1a_from(h, &w.to_le_bytes()))
}

/// Word-wise payload checksum: FNV-1a folded over 8-byte little-endian
/// words, then over the ≤ 7 tail bytes one at a time.
pub fn payload_sum(bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    let h = words.by_ref().fold(FNV_OFFSET, |h, w| {
        let w = u64::from_le_bytes(w.try_into().expect("chunks_exact(8)"));
        (h ^ w).wrapping_mul(FNV_PRIME)
    });
    fnv1a_from(h, words.remainder())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a_from(fnv1a(b"foo"), b"bar"), fnv1a(b"foobar"));
        assert_eq!(fnv1a_words([7, 9].into_iter()), {
            let mut bytes = 7u64.to_le_bytes().to_vec();
            bytes.extend(9u64.to_le_bytes());
            fnv1a(&bytes)
        });
    }

    #[test]
    fn payload_sum_is_fnv1a_on_short_inputs_and_words_beyond() {
        for n in 0..8 {
            let bytes: Vec<u8> = (0..n).collect();
            assert_eq!(payload_sum(&bytes), fnv1a(&bytes), "{n} bytes");
        }
        let bytes: Vec<u8> = (1..=19).collect();
        let mut h = FNV_OFFSET;
        for w in [0x0807_0605_0403_0201u64, 0x100f_0e0d_0c0b_0a09] {
            h = (h ^ w).wrapping_mul(FNV_PRIME);
        }
        assert_eq!(payload_sum(&bytes), fnv1a_from(h, &[17, 18, 19]));
    }

    /// Every single-byte change, at every offset and alignment, moves
    /// the sum — the property the reject ladders' checksum rung rests on.
    #[test]
    fn payload_sum_sees_every_single_byte_change() {
        let bytes: Vec<u8> = (0..43u8).map(|i| i.wrapping_mul(37)).collect();
        let clean = payload_sum(&bytes);
        for at in 0..bytes.len() {
            for mask in 1..=255u8 {
                let mut m = bytes.clone();
                m[at] ^= mask;
                assert_ne!(payload_sum(&m), clean, "byte {at} ^ {mask:#04x}");
            }
        }
    }
}
