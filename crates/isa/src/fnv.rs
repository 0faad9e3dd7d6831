//! FNV-1a (64-bit), the project-wide fingerprint for small key streams:
//! no tables, one multiply per byte, and stable across runs and Rust
//! releases (unlike `std`'s randomized, explicitly unspecified SipHash).
//!
//! It keys the engine's program batching, the VCU's fused-window cache,
//! and every workload's output digest, so its values are part of the
//! reproduction's pinned outputs and must never change.

use std::hash::Hasher;

/// A 64-bit FNV-1a [`Hasher`].
///
/// Feeding it through [`Hash`](std::hash::Hash) uses the standard
/// integer encodings (native byte order), exactly as `std`'s hashers do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self(Self::OFFSET_BASIS)
    }
}

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }
}

/// FNV-1a digest over a word sequence, each word fed as its four
/// little-endian bytes — the common output checksum, identical on every
/// host.
pub fn fnv1a_words(words: impl IntoIterator<Item = u32>) -> u64 {
    let mut h = Fnv1a::default();
    for w in words {
        h.write(&w.to_le_bytes());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_order_sensitive_and_stable() {
        assert_eq!(fnv1a_words([1, 2, 3]), fnv1a_words([1, 2, 3]));
        assert_ne!(fnv1a_words([1, 2, 3]), fnv1a_words([3, 2, 1]));
        assert_ne!(fnv1a_words([]), fnv1a_words([0]));
    }
}
