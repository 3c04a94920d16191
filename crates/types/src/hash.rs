//! A 256-bit hash value and a fast non-cryptographic digest.
//!
//! The simulator needs block hashes (`bhash` in the dataset schema) and
//! PoW-style hash puzzles, but cryptographic strength is irrelevant for a
//! scheduling simulation. [`Hash32`] carries 32 bytes; [`Hash32::digest`]
//! computes a SplitMix64-based mixing digest that is deterministic across
//! platforms, well distributed, and fast.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A 256-bit (32-byte) hash value.
///
/// # Example
///
/// ```
/// use mvcom_types::Hash32;
///
/// let h = Hash32::digest(b"hello world");
/// assert_eq!(h, Hash32::digest(b"hello world"));
/// assert_ne!(h, Hash32::digest(b"hello worle"));
/// assert_eq!(h.to_hex().len(), 64);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default)]
pub struct Hash32(pub [u8; 32]);

/// SplitMix64 finalizer: a strong 64-bit mixing function.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Hash32 {
    /// The all-zero hash.
    pub const ZERO: Hash32 = Hash32([0u8; 32]);

    /// Computes a deterministic, well-mixed (non-cryptographic) 256-bit
    /// digest of `data`.
    ///
    /// Internally runs four interleaved SplitMix64 lanes over the input,
    /// seeded with distinct constants, then finalizes each lane with the
    /// input length. This is *not* collision-resistant against adversaries;
    /// it exists to give the simulator realistic-looking, uniformly
    /// distributed hashes without a crypto dependency.
    pub fn digest(data: &[u8]) -> Hash32 {
        let mut lanes: [u64; 4] = [
            0x6A09_E667_F3BC_C908,
            0xBB67_AE85_84CA_A73B,
            0x3C6E_F372_FE94_F82B,
            0xA54F_F53A_5F1D_36F1,
        ];
        for chunk in data.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            let w = u64::from_le_bytes(word);
            for (i, lane) in lanes.iter_mut().enumerate() {
                *lane = splitmix64(*lane ^ w.rotate_left(i as u32 * 16 + 1));
            }
        }
        let len = data.len() as u64;
        let mut out = [0u8; 32];
        for (i, lane) in lanes.iter().enumerate() {
            let finalized = splitmix64(lane ^ splitmix64(len ^ (i as u64)));
            out[i * 8..(i + 1) * 8].copy_from_slice(&finalized.to_le_bytes());
        }
        Hash32(out)
    }

    /// Digest of a `u64` seed — convenient for PoW nonce trials.
    pub fn digest_u64(value: u64) -> Hash32 {
        Hash32::digest(&value.to_le_bytes())
    }

    /// Returns the raw bytes.
    #[inline]
    pub const fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Interprets the first 8 bytes as a little-endian `u64` — used to
    /// compare a PoW trial against a difficulty target.
    #[inline]
    pub fn prefix_u64(&self) -> u64 {
        let [a, b, c, d, e, f, g, h, ..] = self.0;
        u64::from_le_bytes([a, b, c, d, e, f, g, h])
    }

    /// Number of leading zero *bits*, reading the hash as a big-endian
    /// 256-bit integer — the classic PoW difficulty measure.
    pub fn leading_zero_bits(&self) -> u32 {
        let mut zeros = 0u32;
        for &byte in &self.0 {
            if byte == 0 {
                zeros += 8;
            } else {
                zeros += byte.leading_zeros();
                break;
            }
        }
        zeros
    }

    /// Lowercase hexadecimal rendering (64 characters).
    pub fn to_hex(&self) -> String {
        const NIBBLES: &[u8; 16] = b"0123456789abcdef";
        let mut s = String::with_capacity(64);
        for byte in self.0 {
            s.push(char::from(NIBBLES[usize::from(byte >> 4)]));
            s.push(char::from(NIBBLES[usize::from(byte & 0xf)]));
        }
        s
    }
}

impl fmt::Debug for Hash32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Hash32({}…)", &self.to_hex()[..12])
    }
}

impl fmt::Display for Hash32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl From<[u8; 32]> for Hash32 {
    #[inline]
    fn from(bytes: [u8; 32]) -> Self {
        Hash32(bytes)
    }
}

impl AsRef<[u8]> for Hash32 {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn digest_is_deterministic() {
        assert_eq!(Hash32::digest(b"abc"), Hash32::digest(b"abc"));
        assert_eq!(Hash32::digest_u64(42), Hash32::digest_u64(42));
    }

    #[test]
    fn digest_differs_on_input_change() {
        assert_ne!(Hash32::digest(b"abc"), Hash32::digest(b"abd"));
        assert_ne!(Hash32::digest(b""), Hash32::digest(b"\0"));
        // Length is mixed in, so a zero-padded prefix must not collide.
        assert_ne!(Hash32::digest(b"ab"), Hash32::digest(b"ab\0"));
    }

    #[test]
    fn hex_is_64_lowercase_chars() {
        let hex = Hash32::digest(b"x").to_hex();
        assert_eq!(hex.len(), 64);
        assert!(hex
            .chars()
            .all(|c| c.is_ascii_hexdigit() && !c.is_ascii_uppercase()));
        // The nibble table writes what `{:02x}` would, for every byte value.
        for chunk in 0..8u8 {
            let bytes: [u8; 32] = std::array::from_fn(|i| chunk * 32 + i as u8);
            let formatted: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(Hash32(bytes).to_hex(), formatted);
        }
    }

    #[test]
    fn no_collisions_over_small_corpus() {
        let hashes: HashSet<Hash32> = (0u64..10_000).map(Hash32::digest_u64).collect();
        assert_eq!(hashes.len(), 10_000);
    }

    #[test]
    fn prefix_u64_is_roughly_uniform() {
        // Mean of uniform u64 is 2^63; over 4096 samples the sample mean
        // should land within 5% of it.
        let n = 4096u64;
        let mean: f64 = (0..n)
            .map(|i| Hash32::digest_u64(i).prefix_u64() as f64)
            .sum::<f64>()
            / n as f64;
        let expected = 2f64.powi(63);
        assert!((mean - expected).abs() / expected < 0.05, "mean={mean:e}");
    }

    #[test]
    fn leading_zero_bits() {
        assert_eq!(Hash32::ZERO.leading_zero_bits(), 256);
        let mut one = [0u8; 32];
        one[0] = 0b0000_1000;
        assert_eq!(Hash32(one).leading_zero_bits(), 4);
        let mut full = [0u8; 32];
        full[0] = 0xFF;
        assert_eq!(Hash32(full).leading_zero_bits(), 0);
    }

    #[test]
    fn leading_zero_bits_distribution() {
        // P(leading_zero_bits >= k) = 2^-k; with 8192 samples we expect
        // about half to have >= 1 leading zero bit.
        let n = 8192;
        let at_least_one = (0..n)
            .filter(|&i| Hash32::digest_u64(i).leading_zero_bits() >= 1)
            .count();
        let frac = at_least_one as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.05, "frac={frac}");
    }

    #[test]
    fn debug_is_truncated_display_is_full() {
        let h = Hash32::digest(b"z");
        assert!(format!("{h:?}").starts_with("Hash32("));
        assert_eq!(h.to_string().len(), 64);
    }
}
