//! Order-independent deterministic sampling, and the workspace's one
//! copy of each hash primitive behind it.
//!
//! The simulation must produce identical traffic whether sites are
//! crawled serially or across a crossbeam worker pool. Sequential RNG
//! streams break under reordering, so all per-entity randomness is
//! derived by *hashing* the entity's identity with the run seed:
//! SplitMix64 over the seed and the entity's bytes. The result is a
//! high-quality 64-bit value that is stable across runs, threads and
//! call order.
//!
//! Labels are anything that implements [`fmt::Display`]: a plain
//! `&str`, or `format_args!("dns:{name}")` for a composite identity.
//! The label is streamed through [`fold_lanes`] into the hash, so a
//! draw never builds the string it hashes; the result equals
//! [`hash_bytes`] of the formatted label byte for byte.
//!
//! Every crate that samples, shards or content-addresses uses these
//! definitions: [`splitmix64`] for integer mixing, [`hash_str_salted`]
//! for a label under its own salt, [`fnv1a`] for shard and content
//! keys, and [`to_unit`] for turning a hash into a draw in `[0, 1)`.

use std::fmt::{self, Display};

/// SplitMix64 finaliser: a fast, well-distributed 64-bit mixer.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The FNV-1a 64-bit offset basis: the state [`fnv1a`] starts from.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes`, continuing from `state` ([`FNV_OFFSET`] for a
/// fresh hash). Continuing over the pieces of a byte string equals one
/// pass over the whole, so a composite key is hashed without being
/// concatenated.
#[inline]
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(state, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// A uniform draw in `[0, 1)` from a 64-bit hash: its top 53 bits
/// over 2^53, so every value is an exact `f64` below 1.
#[inline]
pub fn to_unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Salt of the seed in [`hash_bytes`] and [`hash_str`].
const SEED_SALT: u64 = 0x51ab_c0de_51ab_c0de;

/// Hash a byte string with a seed into a uniform u64: the reference
/// [`hash_str`] streams to.
pub fn hash_bytes(seed: u64, bytes: &[u8]) -> u64 {
    // SplitMix64 over each zero-padded 8-byte lane, then the length.
    let mut h = splitmix64(seed ^ SEED_SALT);
    for chunk in bytes.chunks(8) {
        let mut lane = [0u8; 8];
        lane[..chunk.len()].copy_from_slice(chunk);
        h = splitmix64(h ^ u64::from_le_bytes(lane));
    }
    splitmix64(h ^ bytes.len() as u64)
}

/// Fold a label's formatted bytes into `state`, eight at a time:
/// `state = mix(state, lane)` for each little-endian 8-byte lane, the
/// last one zero-padded, exactly as `bytes.chunks(8)` would cut the
/// formatted string. Returns the final state and the byte length.
/// Nothing is allocated, however the label is split into pieces.
pub fn fold_lanes(state: u64, label: impl Display, mix: impl FnMut(u64, u64) -> u64) -> (u64, u64) {
    let mut lanes = Lanes {
        state,
        lane: [0; 8],
        fill: 0,
        len: 0,
        mix,
    };
    fmt::write(&mut lanes, format_args!("{label}"))
        .expect("a Display implementation returned an error unexpectedly");
    if lanes.fill > 0 {
        lanes.lane[lanes.fill..].fill(0);
        lanes.state = (lanes.mix)(lanes.state, u64::from_le_bytes(lanes.lane));
    }
    (lanes.state, lanes.len)
}

/// The `fmt::Write` sink behind [`fold_lanes`]: a partial lane plus
/// the running state and length.
struct Lanes<F> {
    state: u64,
    lane: [u8; 8],
    fill: usize,
    len: u64,
    mix: F,
}

impl<F: FnMut(u64, u64) -> u64> fmt::Write for Lanes<F> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let mut bytes = s.as_bytes();
        self.len += bytes.len() as u64;
        if self.fill > 0 {
            let take = bytes.len().min(8 - self.fill);
            self.lane[self.fill..self.fill + take].copy_from_slice(&bytes[..take]);
            self.fill += take;
            bytes = &bytes[take..];
            if self.fill < 8 {
                return Ok(());
            }
            self.state = (self.mix)(self.state, u64::from_le_bytes(self.lane));
            self.fill = 0;
        }
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let lane = u64::from_le_bytes(chunk.try_into().expect("an 8-byte chunk"));
            self.state = (self.mix)(self.state, lane);
        }
        let rest = chunks.remainder();
        self.lane[..rest.len()].copy_from_slice(rest);
        self.fill = rest.len();
        Ok(())
    }
}

/// Hash a label with a seed: [`hash_bytes`] of the formatted label,
/// computed without formatting it into a string.
pub fn hash_str(seed: u64, label: impl Display) -> u64 {
    hash_str_salted(seed, SEED_SALT, label)
}

/// [`hash_str`] with the seed salted by `salt` instead of the default:
/// a caller with its own salt draws a stream independent of every
/// other salt's from the same seed and label.
pub fn hash_str_salted(seed: u64, salt: u64, label: impl Display) -> u64 {
    let (h, len) = fold_lanes(splitmix64(seed ^ salt), label, |h, lane| {
        splitmix64(h ^ lane)
    });
    splitmix64(h ^ len)
}

/// A uniform sample in `[0, 1)` derived from a seed and a label.
pub fn unit(seed: u64, label: impl Display) -> f64 {
    to_unit(hash_str(seed, label))
}

/// A uniform sample in `[lo, hi)` derived from a seed and a label.
pub fn range(seed: u64, label: impl Display, lo: f64, hi: f64) -> f64 {
    lo + unit(seed, label) * (hi - lo)
}

/// A Bernoulli trial with probability `p`, derived from seed + label.
pub fn coin(seed: u64, label: impl Display, p: f64) -> bool {
    unit(seed, label) < p
}

/// Pick an index in `0..n` (n > 0), derived from seed + label.
pub fn pick(seed: u64, label: impl Display, n: usize) -> usize {
    debug_assert!(n > 0);
    (hash_str(seed, label) % n as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_calls() {
        assert_eq!(hash_str(42, "ebay.com"), hash_str(42, "ebay.com"));
        assert_eq!(unit(7, "x"), unit(7, "x"));
    }

    #[test]
    fn sensitive_to_seed_and_label() {
        assert_ne!(hash_str(1, "a"), hash_str(2, "a"));
        assert_ne!(hash_str(1, "a"), hash_str(1, "b"));
        // Length extension must matter.
        assert_ne!(hash_bytes(1, b"ab"), hash_bytes(1, b"ab\0"));
    }

    #[test]
    fn unit_is_in_half_open_interval() {
        for i in 0..1000 {
            let u = unit(99, format_args!("label-{i}"));
            assert!((0.0..1.0).contains(&u), "{u}");
        }
    }

    #[test]
    fn unit_is_roughly_uniform() {
        let n = 10_000;
        let mean: f64 = (0..n).map(|i| unit(3, format_args!("k{i}"))).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
        let below_quarter = (0..n)
            .filter(|i| unit(3, format_args!("k{i}")) < 0.25)
            .count() as f64
            / n as f64;
        assert!((below_quarter - 0.25).abs() < 0.02, "{below_quarter}");
    }

    #[test]
    fn coin_respects_probability() {
        let n = 10_000;
        let hits = (0..n)
            .filter(|i| coin(11, format_args!("c{i}"), 0.1))
            .count() as f64
            / n as f64;
        assert!((hits - 0.1).abs() < 0.02, "{hits}");
        assert!((0..100).all(|i| !coin(11, format_args!("z{i}"), 0.0)));
        assert!((0..100).all(|i| coin(11, format_args!("z{i}"), 1.0)));
    }

    #[test]
    fn pick_covers_domain() {
        let mut seen = [false; 7];
        for i in 0..500 {
            seen[pick(5, format_args!("p{i}"), 7)] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn range_bounds() {
        for i in 0..200 {
            let v = range(8, format_args!("r{i}"), 20.0, 200.0);
            assert!((20.0..200.0).contains(&v));
        }
    }
}
