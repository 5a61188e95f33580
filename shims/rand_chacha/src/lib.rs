//! Vendored ChaCha8 random number generator.
//!
//! A real ChaCha8 keystream implementation (IETF variant block function,
//! 64-bit block counter) behind the same `ChaCha8Rng` name and trait
//! surface as the `rand_chacha` crate: [`rand_core::RngCore`] and
//! [`rand_core::SeedableRng`] with a 32-byte seed.

#![forbid(unsafe_code)]

pub use rand_core;

use rand_core::{RngCore, SeedableRng};

const CHACHA_CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// A ChaCha stream cipher based generator with 8 rounds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaCha8Rng {
    /// Key words 4..12 and nonce words of the ChaCha state.
    key: [u32; 8],
    /// 64-bit block counter (state words 12..14).
    counter: u64,
    /// Buffered keystream words from the current block.
    buffer: [u32; 16],
    /// Next unread index into `buffer`; 16 means "refill".
    index: usize,
}

impl ChaCha8Rng {
    fn refill(&mut self) {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&CHACHA_CONSTANTS);
        state[4..12].copy_from_slice(&self.key);
        state[12] = self.counter as u32;
        state[13] = (self.counter >> 32) as u32;
        state[14] = 0;
        state[15] = 0;

        let mut working = state;
        for _ in 0..4 {
            // 8 rounds = 4 double-rounds.
            quarter(&mut working, 0, 4, 8, 12);
            quarter(&mut working, 1, 5, 9, 13);
            quarter(&mut working, 2, 6, 10, 14);
            quarter(&mut working, 3, 7, 11, 15);
            quarter(&mut working, 0, 5, 10, 15);
            quarter(&mut working, 1, 6, 11, 12);
            quarter(&mut working, 2, 7, 8, 13);
            quarter(&mut working, 3, 4, 9, 14);
        }
        for (out, (w, s)) in self.buffer.iter_mut().zip(working.iter().zip(state.iter())) {
            *out = w.wrapping_add(*s);
        }
        self.counter = self.counter.wrapping_add(1);
        self.index = 0;
    }

    /// Number of 32-bit keystream words consumed so far.
    pub fn get_word_pos(&self) -> u128 {
        // `refill` pre-increments `counter`, and a fresh generator has
        // counter = 0, index = 16 (empty buffer), so subtract the
        // buffered-but-unread words from the block count.
        (self.counter as u128) * 16 + self.index as u128 - 16
    }

    /// Seeks to keystream word `word_offset`: the next `next_u32` returns
    /// the word a fresh generator would return after `word_offset`
    /// reads. A seek inside the buffered block only moves the read index;
    /// any other seek generates the target block once.
    pub fn set_word_pos(&mut self, word_offset: u128) {
        let block = (word_offset / 16) as u64;
        let index = (word_offset % 16) as usize;
        // Once `refill` has run, the buffer holds block `counter - 1`.
        if self.counter == 0 || self.counter - 1 != block {
            self.counter = block;
            self.refill();
        }
        self.index = index;
    }
}

fn quarter(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

impl SeedableRng for ChaCha8Rng {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut key = [0u32; 8];
        for (k, chunk) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *k = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        ChaCha8Rng {
            key,
            counter: 0,
            buffer: [0; 16],
            index: 16,
        }
    }
}

impl RngCore for ChaCha8Rng {
    fn next_u32(&mut self) -> u32 {
        if self.index >= 16 {
            self.refill();
        }
        let w = self.buffer[self.index];
        self.index += 1;
        w
    }

    fn next_u64(&mut self) -> u64 {
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        lo | (hi << 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Known-answer test: ChaCha8 with an all-zero 256-bit key and
    /// all-zero IV must produce the published ECRYPT keystream. This
    /// pins the shim bit-exactly to the real `rand_chacha` crate —
    /// a change to the round count, counter layout, or word order
    /// silently diverges every "reproducible" simulation otherwise.
    #[test]
    fn ecrypt_test_vector_zero_key() {
        let mut rng = ChaCha8Rng::from_seed([0u8; 32]);
        let mut out = [0u8; 32];
        rng.fill_bytes(&mut out);
        let expected: [u8; 32] = [
            0x3e, 0x00, 0xef, 0x2f, 0x89, 0x5f, 0x40, 0xd6, 0x7f, 0x5b, 0xb8, 0xe8, 0x1f, 0x09,
            0xa5, 0xa1, 0x2c, 0x84, 0x0e, 0xc3, 0xce, 0x9a, 0x7f, 0x3b, 0x18, 0x1b, 0xe1, 0x88,
            0xef, 0x71, 0x1a, 0x1e,
        ];
        assert_eq!(out, expected);
    }

    #[test]
    fn word_pos_counts_consumed_words() {
        let mut rng = ChaCha8Rng::from_seed([1u8; 32]);
        assert_eq!(rng.get_word_pos(), 0);
        rng.next_u32();
        assert_eq!(rng.get_word_pos(), 1);
        for _ in 0..20 {
            rng.next_u32();
        }
        assert_eq!(rng.get_word_pos(), 21);
    }

    #[test]
    fn set_word_pos_matches_sequential_reads() {
        let seed = [9u8; 32];
        let mut reference = ChaCha8Rng::from_seed(seed);
        let words: Vec<u32> = (0..80).map(|_| reference.next_u32()).collect();
        let mut rng = ChaCha8Rng::from_seed(seed);
        // Inside the first block, on a block boundary, past the buffered
        // block, and backwards (into the buffered block and before it).
        for k in [5u128, 16, 0, 3, 47, 64, 33, 40, 37, 2, 79] {
            rng.set_word_pos(k);
            assert_eq!(rng.get_word_pos(), k, "get_word_pos after seek to {k}");
            assert_eq!(rng.next_u32(), words[k as usize], "word {k}");
            assert_eq!(rng.get_word_pos(), k + 1);
        }
        // Reading on from a seek continues the keystream in order.
        rng.set_word_pos(14);
        let run: Vec<u32> = (0..20).map(|_| rng.next_u32()).collect();
        assert_eq!(run, words[14..34]);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = ChaCha8Rng::from_seed([7; 32]);
        let mut b = ChaCha8Rng::from_seed([7; 32]);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = ChaCha8Rng::from_seed([8; 32]);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn seed_from_u64_works() {
        let mut a = ChaCha8Rng::seed_from_u64(1);
        let mut b = ChaCha8Rng::seed_from_u64(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut r = ChaCha8Rng::seed_from_u64(3);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        assert_ne!(buf, [0u8; 13]);
    }
}
