//! FNV-1a, the workspace's one non-cryptographic content hash.
//!
//! Persistent and wire-visible values depend on these exact bits: serve
//! disk-cache file names, router ring points, cone fingerprints and
//! failpoint dice. The functions are the textbook FNV-1a (xor the byte,
//! then multiply by the prime), in 64 and 128 bits, with a `fold` form
//! for hashing a stream of fields into one running value.

/// 64-bit FNV offset basis.
pub const OFFSET64: u64 = 0xcbf2_9ce4_8422_2325;
/// 64-bit FNV prime.
pub const PRIME64: u64 = 0x0000_0100_0000_01b3;
/// 128-bit FNV offset basis.
pub const OFFSET128: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
/// 128-bit FNV prime.
pub const PRIME128: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// Folds `bytes` into the running 64-bit hash `h`.
pub fn fold64(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME64);
    }
    h
}

/// Folds `bytes` into the running 128-bit hash `h`.
pub fn fold128(mut h: u128, bytes: &[u8]) -> u128 {
    for &b in bytes {
        h ^= u128::from(b);
        h = h.wrapping_mul(PRIME128);
    }
    h
}

/// 64-bit FNV-1a of `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fold64(OFFSET64, bytes)
}

/// 128-bit FNV-1a of `bytes`.
pub fn fnv1a128(bytes: &[u8]) -> u128 {
    fold128(OFFSET128, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Published FNV-1a test vectors: every cache key, ring point and
    /// fingerprint derived from these functions stays bit-identical.
    #[test]
    fn known_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a128(b""), OFFSET128);
        assert_eq!(fnv1a128(b"a"), 0xd228_cb69_6f1a_8caf_7891_2b70_4e4a_8964);
        assert_eq!(
            fnv1a128(b"foobar"),
            0x343e_1662_793c_64bf_6f0d_3597_ba44_6f18
        );
    }

    #[test]
    fn folding_is_streaming() {
        assert_eq!(fold64(fnv1a64(b"foo"), b"bar"), fnv1a64(b"foobar"));
        assert_eq!(fold128(fnv1a128(b"foo"), b"bar"), fnv1a128(b"foobar"));
    }
}
