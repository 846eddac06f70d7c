//! The two hashes the harness uses, each defined once.
//!
//! [`fnv1a`] is textbook byte-wise FNV-1a. Its values are pinned from
//! outside — snapshot and native file names, the trajectory digests in
//! the golden files, jitter seeds — so it must never change.
//!
//! [`payload_sum`] guards the payload of every durable record
//! ([`crate::store`]: `.lcp` snapshots, `.lke` cache entries, `.lkt`
//! table records, `.lso` native containers, the timing model). It is the
//! same step over 8-byte little-endian words instead of bytes, run in
//! four independent lanes — word `4k + i` into lane `i` — so the four
//! multiply chains overlap instead of waiting on each other. Detection
//! is not weakened for the damage it exists to catch: `h ← (h ⊕ w)·p`
//! with odd `p` is a bijection in `h` for fixed `w` and in `w` for fixed
//! `h`. A change confined to one word changes that word's lane (a
//! bijection in the word), every later step of the lane and the final
//! fold are bijections in what they carry, and the other lanes do not
//! see it — so any single flipped byte *always* changes the sum, in a
//! lane, in the words left over or in the tail. It guards against
//! accidents, not adversaries.

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

/// FNV-1a's step over one 8-byte word: `(h ⊕ w)·p`, a bijection in `h`
/// for fixed `w` and in `w` for fixed `h` (`p` is odd).
#[inline(always)]
fn mix(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(FNV_PRIME)
}

/// The little-endian word in `bytes`, which holds exactly eight.
#[inline(always)]
fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("an 8-byte word"))
}

/// Four-lane payload checksum over 8-byte little-endian words. Word
/// `4k + i` of each whole 32-byte group is mixed into lane `i` (every
/// lane starts at [`FNV_OFFSET`]); the four lanes are then mixed into
/// one sum from [`FNV_OFFSET`], followed by the < 4 words left over and
/// the ≤ 7 tail bytes one at a time. An input under 32 bytes has no
/// group and no lane fold: its sum is the serial word fold from
/// [`FNV_OFFSET`], which under 8 bytes is [`fnv1a`].
pub fn payload_sum(bytes: &[u8]) -> u64 {
    let mut groups = bytes.chunks_exact(32);
    let mut h = FNV_OFFSET;
    if bytes.len() >= 32 {
        let mut lanes = [FNV_OFFSET; 4];
        for group in groups.by_ref() {
            for (lane, w) in lanes.iter_mut().zip(group.chunks_exact(8)) {
                *lane = mix(*lane, word(w));
            }
        }
        h = lanes.into_iter().fold(h, mix);
    }
    let mut words = groups.remainder().chunks_exact(8);
    let h = words.by_ref().fold(h, |h, w| mix(h, word(w)));
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

    /// The serial word fold the sum is under 32 bytes: FNV-1a's step per
    /// 8-byte word, then FNV-1a over the tail bytes.
    fn serial_sum(h: u64, bytes: &[u8]) -> u64 {
        let mut words = bytes.chunks_exact(8);
        let h = words.by_ref().fold(h, |h, w| mix(h, word(w)));
        fnv1a_from(h, words.remainder())
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

    /// Under 32 bytes there is no lane: the sum is the serial fold, so a
    /// short record's sum is pinned by that definition alone.
    #[test]
    fn payload_sum_under_32_bytes_is_the_serial_word_fold() {
        let bytes: Vec<u8> = (0..40u8).map(|i| i.wrapping_mul(53) ^ 0x5a).collect();
        for n in 0..32 {
            assert_eq!(
                payload_sum(&bytes[..n]),
                serial_sum(FNV_OFFSET, &bytes[..n]),
                "{n} bytes"
            );
        }
        assert_ne!(
            payload_sum(&bytes[..32]),
            serial_sum(FNV_OFFSET, &bytes[..32])
        );
    }

    /// From 32 bytes on: word `4k + i` into lane `i`, the lanes folded in
    /// order, then the words left over and the tail — spelled out here
    /// for two groups, two words and five bytes.
    #[test]
    fn payload_sum_folds_four_lanes_then_the_rest() {
        let bytes: Vec<u8> = (0..85u8).map(|i| i.wrapping_mul(37)).collect();
        let w = |k: usize| word(&bytes[8 * k..8 * k + 8]);
        let lanes: Vec<u64> = (0..4)
            .map(|i| mix(mix(FNV_OFFSET, w(i)), w(4 + i)))
            .collect();
        let h = lanes.iter().fold(FNV_OFFSET, |h, &l| mix(h, l));
        let h = mix(mix(h, w(8)), w(9));
        assert_eq!(payload_sum(&bytes), fnv1a_from(h, &bytes[80..]));
        // Two words traded between lanes move the sum.
        let mut swapped = bytes.clone();
        swapped[..16].rotate_left(8);
        assert_ne!(payload_sum(&swapped), payload_sum(&bytes));
    }

    /// Every single-byte change, at every offset and alignment — each of
    /// the four lane positions of both groups, both words left over and
    /// every tail byte — moves the sum: the property the reject ladders'
    /// checksum rung rests on.
    #[test]
    fn payload_sum_sees_every_single_byte_change() {
        let bytes: Vec<u8> = (0..85u8).map(|i| i.wrapping_mul(37)).collect();
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
