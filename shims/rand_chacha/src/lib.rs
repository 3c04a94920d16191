//! Offline shim for `rand_chacha`, implementing a genuine ChaCha8 stream
//! cipher core behind the `ChaCha8Rng` name.
//!
//! The workspace relies on ChaCha8 for *portable determinism*: the same
//! seed must yield the same stream on every platform and in every build.
//!
//! **What is standard.** The keystream: RFC 8439's state layout (16
//! little-endian words: 4 constants, 8 key words, 2 counter words, 2 nonce
//! words) with 8 rounds, a 64-bit block counter starting at 0, a zero nonce,
//! and output in canonical keystream order (block by block, word by word,
//! each word little-endian). `from_seed` takes the 32 seed bytes as the
//! key, so a generator built from a key reproduces the published ChaCha8
//! vectors for that key — the known-answer test below holds it to them.
//!
//! **What is the shim's own**, and so not bit-identical to the upstream
//! crates: `seed_from_u64`'s SplitMix64 expansion and `gen_range`'s one-draw
//! widening multiply (both in the `rand` shim), and the Box–Muller normal
//! in `rand_distr`.
//!
//! **How it is computed.** `refill` produces `LANES` = 4 consecutive blocks
//! per call. Each block is one straight-line ChaCha8 on sixteen scalar
//! locals, and the loop over the blocks is the innermost loop, which is the
//! shape rustc's loop vectoriser turns into one block function over
//! four-lane vectors. That is an optimisation the compiler may or may not
//! take; the stream does not depend on it (CI checks both: the reference
//! differential below, and that the release assembly of `refill` holds
//! packed adds).

#![forbid(unsafe_code)]

use rand::{RngCore, SeedableRng};

const CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// Keystream blocks computed per refill: one per 32-bit lane of a 128-bit
/// vector, the widest every supported target has without a feature flag.
const LANES: usize = 4;
/// Words per ChaCha block.
const BLOCK_WORDS: usize = 16;
/// Words buffered per refill.
const BUF_WORDS: usize = BLOCK_WORDS * LANES;

/// A deterministic, seedable ChaCha generator with 8 rounds.
#[derive(Clone, Debug)]
pub struct ChaCha8Rng {
    /// Key words (state words 4..12).
    key: [u32; 8],
    /// 64-bit block counter (state words 12..14) of the next block to
    /// compute.
    counter: u64,
    /// Buffered keystream: `LANES` blocks in canonical stream order.
    buf: [u32; BUF_WORDS],
    /// Next unread word index in `buf`; `BUF_WORDS` means "refill needed".
    idx: usize,
}

macro_rules! quarter_round {
    ($a:ident, $b:ident, $c:ident, $d:ident) => {
        $a = $a.wrapping_add($b);
        $d = ($d ^ $a).rotate_left(16);
        $c = $c.wrapping_add($d);
        $b = ($b ^ $c).rotate_left(12);
        $a = $a.wrapping_add($b);
        $d = ($d ^ $a).rotate_left(8);
        $c = $c.wrapping_add($d);
        $b = ($b ^ $c).rotate_left(7);
    };
}

/// One double round (four column then four diagonal quarter rounds) on
/// sixteen named locals.
macro_rules! double_round {
    ($x0:ident, $x1:ident, $x2:ident, $x3:ident, $x4:ident, $x5:ident, $x6:ident, $x7:ident,
     $x8:ident, $x9:ident, $x10:ident, $x11:ident, $x12:ident, $x13:ident, $x14:ident, $x15:ident) => {
        quarter_round!($x0, $x4, $x8, $x12);
        quarter_round!($x1, $x5, $x9, $x13);
        quarter_round!($x2, $x6, $x10, $x14);
        quarter_round!($x3, $x7, $x11, $x15);
        quarter_round!($x0, $x5, $x10, $x15);
        quarter_round!($x1, $x6, $x11, $x12);
        quarter_round!($x2, $x7, $x8, $x13);
        quarter_round!($x3, $x4, $x9, $x14);
    };
}

impl ChaCha8Rng {
    /// Computes blocks `counter .. counter + LANES` into `buf`.
    ///
    /// The shape is load-bearing for speed, not for the result: no rounds
    /// loop and no indexed state inside the lane loop, so the lane loop is
    /// innermost and every operation in it is the same 32-bit operation on
    /// `LANES` independent values. A rounds loop inside it, or rows held as
    /// arrays, compiles to scalar code.
    fn refill(&mut self) {
        let [k0, k1, k2, k3, k4, k5, k6, k7] = self.key;
        let [c0, c1, c2, c3] = CONSTANTS;
        // Word-sliced: `sliced[w][l]` is word `w` of block `counter + l`.
        let mut sliced = [[0u32; LANES]; BLOCK_WORDS];
        #[expect(
            clippy::needless_range_loop,
            reason = "`l` is the inner index of `sliced`; an iterator would walk the outer one"
        )]
        for l in 0..LANES {
            // The carry into the high counter word can fall between two
            // lanes of one refill; each lane does its own 64-bit add.
            let block = self.counter.wrapping_add(l as u64);
            let (n0, n1) = (block as u32, (block >> 32) as u32);
            let (mut x0, mut x1, mut x2, mut x3) = (c0, c1, c2, c3);
            let (mut x4, mut x5, mut x6, mut x7) = (k0, k1, k2, k3);
            let (mut x8, mut x9, mut x10, mut x11) = (k4, k5, k6, k7);
            // Nonce words stay zero: a single stream per seed.
            let (mut x12, mut x13, mut x14, mut x15) = (n0, n1, 0u32, 0u32);
            // ChaCha8 = 4 double rounds.
            double_round!(x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11, x12, x13, x14, x15);
            double_round!(x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11, x12, x13, x14, x15);
            double_round!(x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11, x12, x13, x14, x15);
            double_round!(x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11, x12, x13, x14, x15);
            sliced[0][l] = x0.wrapping_add(c0);
            sliced[1][l] = x1.wrapping_add(c1);
            sliced[2][l] = x2.wrapping_add(c2);
            sliced[3][l] = x3.wrapping_add(c3);
            sliced[4][l] = x4.wrapping_add(k0);
            sliced[5][l] = x5.wrapping_add(k1);
            sliced[6][l] = x6.wrapping_add(k2);
            sliced[7][l] = x7.wrapping_add(k3);
            sliced[8][l] = x8.wrapping_add(k4);
            sliced[9][l] = x9.wrapping_add(k5);
            sliced[10][l] = x10.wrapping_add(k6);
            sliced[11][l] = x11.wrapping_add(k7);
            sliced[12][l] = x12.wrapping_add(n0);
            sliced[13][l] = x13.wrapping_add(n1);
            sliced[14][l] = x14;
            sliced[15][l] = x15;
        }
        // One transpose into stream order, so every read is a plain index.
        for (l, block) in self.buf.chunks_exact_mut(BLOCK_WORDS).enumerate() {
            for (out, words) in block.iter_mut().zip(&sliced) {
                *out = words[l];
            }
        }
        self.counter = self.counter.wrapping_add(LANES as u64);
        self.idx = 0;
    }

    #[inline]
    fn next_word(&mut self) -> u32 {
        if self.idx >= BUF_WORDS {
            self.refill();
        }
        let w = self.buf[self.idx];
        self.idx += 1;
        w
    }
}

impl SeedableRng for ChaCha8Rng {
    type Seed = [u8; 32];

    fn from_seed(seed: [u8; 32]) -> Self {
        let mut key = [0u32; 8];
        for (word, bytes) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *word = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }
        ChaCha8Rng {
            key,
            counter: 0,
            buf: [0; BUF_WORDS],
            idx: BUF_WORDS,
        }
    }
}

impl RngCore for ChaCha8Rng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        self.next_word()
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        // Both words in one bounds-checked step when the buffer holds them;
        // otherwise (empty, or one word left before a refill) word by word.
        let (lo, hi) = match self.buf.get(self.idx..self.idx + 2) {
            Some(&[lo, hi]) => {
                self.idx += 2;
                (lo, hi)
            }
            _ => (self.next_word(), self.next_word()),
        };
        u64::from(lo) | (u64::from(hi) << 32)
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(4) {
            let word = self.next_word().to_le_bytes();
            let n = chunk.len();
            chunk.copy_from_slice(&word[..n]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one-block scalar kernel this crate shipped before `refill`
    /// computed `LANES` blocks at a time: state as an indexed array, a
    /// rounds loop, one counter step per block. Kept as the reference the
    /// differential tests read the stream from.
    #[derive(Clone)]
    struct Reference {
        key: [u32; 8],
        counter: u64,
        buf: [u32; 16],
        idx: usize,
    }

    fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
        state[a] = state[a].wrapping_add(state[b]);
        state[d] = (state[d] ^ state[a]).rotate_left(16);
        state[c] = state[c].wrapping_add(state[d]);
        state[b] = (state[b] ^ state[c]).rotate_left(12);
        state[a] = state[a].wrapping_add(state[b]);
        state[d] = (state[d] ^ state[a]).rotate_left(8);
        state[c] = state[c].wrapping_add(state[d]);
        state[b] = (state[b] ^ state[c]).rotate_left(7);
    }

    impl Reference {
        /// The reference for a generator whose buffer is empty: same key,
        /// same next block.
        fn of(rng: &ChaCha8Rng) -> Reference {
            assert_eq!(rng.idx, BUF_WORDS, "unread words would be skipped");
            Reference {
                key: rng.key,
                counter: rng.counter,
                buf: [0; 16],
                idx: 16,
            }
        }

        fn refill(&mut self) {
            let mut state = [0u32; 16];
            state[..4].copy_from_slice(&CONSTANTS);
            state[4..12].copy_from_slice(&self.key);
            state[12] = self.counter as u32;
            state[13] = (self.counter >> 32) as u32;
            let initial = state;
            for _ in 0..4 {
                quarter_round(&mut state, 0, 4, 8, 12);
                quarter_round(&mut state, 1, 5, 9, 13);
                quarter_round(&mut state, 2, 6, 10, 14);
                quarter_round(&mut state, 3, 7, 11, 15);
                quarter_round(&mut state, 0, 5, 10, 15);
                quarter_round(&mut state, 1, 6, 11, 12);
                quarter_round(&mut state, 2, 7, 8, 13);
                quarter_round(&mut state, 3, 4, 9, 14);
            }
            for (out, (s, i)) in self.buf.iter_mut().zip(state.iter().zip(initial.iter())) {
                *out = s.wrapping_add(*i);
            }
            self.counter = self.counter.wrapping_add(1);
            self.idx = 0;
        }

        fn next_word(&mut self) -> u32 {
            if self.idx >= 16 {
                self.refill();
            }
            let w = self.buf[self.idx];
            self.idx += 1;
            w
        }

        fn next_u64(&mut self) -> u64 {
            let lo = u64::from(self.next_word());
            let hi = u64::from(self.next_word());
            lo | (hi << 32)
        }

        fn fill_bytes(&mut self, dest: &mut [u8]) {
            for chunk in dest.chunks_mut(4) {
                let word = self.next_word().to_le_bytes();
                chunk.copy_from_slice(&word[..chunk.len()]);
            }
        }
    }

    /// Drives `rng` and `reference` through the same `reads` mixed reads,
    /// the mix chosen by a third, independent generator.
    fn assert_same_reads(rng: &mut ChaCha8Rng, reference: &mut Reference, reads: usize, mix: u64) {
        let mut mix = ChaCha8Rng::seed_from_u64(mix);
        for read in 0..reads {
            match mix.next_u32() % 4 {
                0 => assert_eq!(rng.next_u32(), reference.next_word(), "u32, read {read}"),
                1 | 2 => assert_eq!(rng.next_u64(), reference.next_u64(), "u64, read {read}"),
                _ => {
                    // 1..=41 bytes: mostly not a multiple of four.
                    let len = 1 + (mix.next_u32() % 41) as usize;
                    let (mut got, mut want) = ([0u8; 41], [0u8; 41]);
                    rng.fill_bytes(&mut got[..len]);
                    reference.fill_bytes(&mut want[..len]);
                    assert_eq!(got, want, "{len} bytes, read {read}");
                }
            }
        }
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn zero_key_matches_the_published_chacha8_vector() {
        // ChaCha8, 256-bit zero key, zero nonce, 64-bit counter from 0:
        // keystream blocks 0 and 1.
        let mut rng = ChaCha8Rng::from_seed([0; 32]);
        let mut stream = [0u8; 128];
        rng.fill_bytes(&mut stream);
        assert_eq!(
            hex(&stream[..64]),
            "3e00ef2f895f40d67f5bb8e81f09a5a12c840ec3ce9a7f3b181be188ef711a1e\
             984ce172b9216f419f445367456d5619314a42a3da86b001387bfdb80e0cfe42"
        );
        assert_eq!(
            hex(&stream[64..]),
            "d2aefa0deaa5c151bf0adb6c01f2a5adc0fd581259f9a2aadcf20f8fd566a26b\
             5032ec38bbc5da98ee0c6f568b872a65a08abf251deb21bb4b56e5d8821e68aa"
        );
    }

    #[test]
    fn mixed_reads_match_the_scalar_reference() {
        for seed in 0..256u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut reference = Reference::of(&rng);
            // ~300 reads ≈ 1,000 words: a dozen refills per seed, entered
            // at every alignment the mix produces.
            assert_same_reads(&mut rng, &mut reference, 300, seed ^ 0xa5a5);
        }
    }

    #[test]
    fn a_u64_that_straddles_a_refill_on_an_odd_word_matches_the_reference() {
        for seed in 0..32u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut reference = Reference::of(&rng);
            for round in 0..3 {
                // Leave exactly one word in the buffer, then read two.
                while rng.idx != BUF_WORDS - 1 {
                    assert_eq!(rng.next_u32(), reference.next_word());
                }
                assert_eq!(rng.next_u64(), reference.next_u64(), "round {round}");
                assert_eq!(rng.idx, 1);
            }
        }
    }

    #[test]
    fn a_clone_taken_mid_buffer_continues_the_same_stream() {
        for seed in 0..32u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut reference = Reference::of(&rng);
            for _ in 0..(seed * 5 + 2) {
                assert_eq!(rng.next_u32(), reference.next_word());
            }
            assert_ne!(rng.idx % BUF_WORDS, 0, "the clone must fall mid-buffer");
            let (mut twin, mut twin_reference) = (rng.clone(), reference.clone());
            assert_same_reads(&mut twin, &mut twin_reference, 200, seed);
            assert_same_reads(&mut rng, &mut reference, 200, seed);
        }
    }

    #[test]
    fn the_low_word_carry_inside_one_refill_matches_the_reference() {
        // Blocks 0xffff_fffe, 0xffff_ffff, 0x1_0000_0000, 0x1_0000_0001: the
        // carry into state word 13 falls between lanes 1 and 2. Then the
        // same for the 64-bit wrap.
        for counter in [0xffff_fffe_u64, u64::MAX - 1] {
            for seed in 0..8u64 {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                rng.counter = counter;
                let mut reference = Reference::of(&rng);
                assert_eq!(reference.counter, counter);
                assert_same_reads(&mut rng, &mut reference, 100, seed);
                assert!(rng.counter.wrapping_sub(counter) >= 2 * LANES as u64);
            }
        }
    }

    /// The `rand` shim's Fisher–Yates over this crate's stream (`rand`
    /// cannot name `ChaCha8Rng`, so the pin lives on this side of the
    /// edge): the permutation every SE chain initialisation is an instance
    /// of, captured before `refill` computed four blocks at a time.
    #[test]
    fn a_shuffle_under_seed_7_is_the_pinned_permutation() {
        use rand::seq::SliceRandom;
        let mut xs: Vec<u32> = (0..16).collect();
        xs.shuffle(&mut ChaCha8Rng::seed_from_u64(7));
        assert_eq!(xs, [1, 4, 8, 13, 5, 12, 3, 10, 9, 14, 2, 15, 0, 7, 11, 6]);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = ChaCha8Rng::seed_from_u64(99);
        let mut b = ChaCha8Rng::seed_from_u64(99);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = ChaCha8Rng::seed_from_u64(1);
        let mut b = ChaCha8Rng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn clone_preserves_position() {
        let mut a = ChaCha8Rng::seed_from_u64(7);
        for _ in 0..37 {
            a.next_u32();
        }
        let mut b = a.clone();
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn fill_bytes_matches_words() {
        let mut a = ChaCha8Rng::seed_from_u64(5);
        let mut b = ChaCha8Rng::seed_from_u64(5);
        let mut bytes = [0u8; 16];
        a.fill_bytes(&mut bytes);
        for chunk in bytes.chunks_exact(4) {
            assert_eq!(
                u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]),
                b.next_u32()
            );
        }
    }
}
