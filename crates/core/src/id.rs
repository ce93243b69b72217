//! Node identifiers, and a cheap keyed hasher for maps keyed by them.

use core::fmt;
use core::hash::{BuildHasher, Hasher};

/// Opaque identifier of a node, standing in for its network address.
///
/// The paper's system model gives every node "an address that is needed for
/// sending a message to that node"; in this library the address is an opaque
/// 64-bit identifier, which drivers map to whatever transport they use (the
/// simulators use it directly as an index).
///
/// # Examples
///
/// ```
/// use pss_core::NodeId;
///
/// let id = NodeId::new(7);
/// assert_eq!(id.as_u64(), 7);
/// assert_eq!(id.to_string(), "n7");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(u64);

impl NodeId {
    /// Creates a node identifier from a raw value.
    pub const fn new(raw: u64) -> Self {
        NodeId(raw)
    }

    /// The raw 64-bit value.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// The raw value as a `usize` index (for simulator node tables).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the value does not fit in `usize` (only
    /// possible on 32-bit targets with huge identifiers).
    pub fn as_index(self) -> usize {
        debug_assert!(self.0 <= usize::MAX as u64);
        self.0 as usize
    }
}

impl From<u64> for NodeId {
    fn from(raw: u64) -> Self {
        NodeId(raw)
    }
}

impl From<NodeId> for u64 {
    fn from(id: NodeId) -> Self {
        id.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// 2⁶⁴ / φ, the Fibonacci-hashing multiplier (odd, so multiplying by it
/// is a bijection on `u64`).
const PHI: u64 = 0x9e37_79b9_7f4a_7c15;

/// [`BuildHasher`] for maps keyed by [`NodeId`]: one keyed
/// xorshift–multiply mix per key instead of SipHash.
///
/// A [`NodeId`] hashes as a single `write_u64`, which the hasher mixes as
/// `x = id ^ k0; x ^= x >> 32; x *= φ; x ^= x >> 29; x *= k1 | 1;
/// x ^= x >> 32` — a keyed 64-bit finalizer. Every step is a bijection, so
/// distinct ids never share a full hash. The leading fold brings ids that
/// differ only in their high bits (a shard number in the top word, a
/// distinguishing top byte) under the first multiplication; the two
/// multiplications then carry every bit into the top 7 (hashbrown's
/// control byte) and the later folds carry the top half back into the low
/// bits (its bucket index).
///
/// The keys are the caller's secret: placement depends on `k0`/`k1`, so a
/// peer that does not know them cannot aim ids at one bucket, while equal
/// keys give equal placement — runs stay reproducible. This is a weaker
/// guarantee than SipHash's (the mix is not a PRF); it fits tables that are
/// never iterated and whose keys an attacker can choose but whose seed it
/// cannot read.
///
/// # Examples
///
/// ```
/// use std::collections::HashMap;
/// use pss_core::{IdHashBuilder, NodeId};
///
/// let keyed = IdHashBuilder::with_keys(0x243f_6a88_85a3_08d3, 0x1319_8a2e_0370_7344);
/// let mut slots: HashMap<NodeId, u32, IdHashBuilder> = HashMap::with_hasher(keyed);
/// slots.insert(NodeId::new(7), 0);
/// assert_eq!(slots.get(&NodeId::new(7)), Some(&0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdHashBuilder {
    k0: u64,
    k1: u64,
}

impl IdHashBuilder {
    /// A builder whose hashers mix with `k0` (xored into the key) and `k1`
    /// (the second multiplier, forced odd). Draw both from a seeded
    /// generator: a `k1` with few set bits mixes poorly.
    pub const fn with_keys(k0: u64, k1: u64) -> Self {
        IdHashBuilder { k0, k1: k1 | 1 }
    }
}

impl BuildHasher for IdHashBuilder {
    type Hasher = IdHasher;

    fn build_hasher(&self) -> IdHasher {
        IdHasher {
            state: 0,
            k0: self.k0,
            k1: self.k1,
        }
    }
}

/// The hasher [`IdHashBuilder`] builds; see there for the mix.
#[derive(Debug, Clone, Copy)]
pub struct IdHasher {
    state: u64,
    k0: u64,
    k1: u64,
}

impl Hasher for IdHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        let mut x = self.state ^ word ^ self.k0;
        x ^= x >> 32;
        x = x.wrapping_mul(PHI);
        x ^= x >> 29;
        x = x.wrapping_mul(self.k1);
        self.state = x ^ (x >> 32);
    }

    /// Folds arbitrary bytes 8 at a time through [`Hasher::write_u64`], so
    /// the type is a total [`Hasher`]; [`NodeId`] keys never take this path.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let id = NodeId::new(42);
        assert_eq!(id.as_u64(), 42);
        assert_eq!(id.as_index(), 42);
    }

    #[test]
    fn conversions() {
        let id: NodeId = 9u64.into();
        let raw: u64 = id.into();
        assert_eq!(raw, 9);
    }

    #[test]
    fn ordering_follows_raw_value() {
        assert!(NodeId::new(1) < NodeId::new(2));
        assert_eq!(NodeId::new(3), NodeId::new(3));
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(NodeId::new(0).to_string(), "n0");
        assert_eq!(NodeId::new(123).to_string(), "n123");
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(NodeId::default(), NodeId::new(0));
    }

    const KEYS: [(u64, u64); 2] = [
        (0x243f_6a88_85a3_08d3, 0x1319_8a2e_0370_7344),
        (0xa409_3822_299f_31d0, 0x082e_fa98_ec4e_6c89),
    ];

    /// Pearson's chi-square of `hashes` sorted into `2^bits` buckets by
    /// `bucket`, against the uniform expectation.
    fn chi_square(hashes: &[u64], bits: u32, bucket: impl Fn(u64) -> usize) -> f64 {
        let mut counts = vec![0u64; 1 << bits];
        for &h in hashes {
            counts[bucket(h)] += 1;
        }
        let expected = hashes.len() as f64 / counts.len() as f64;
        counts
            .iter()
            .map(|&c| (c as f64 - expected).powi(2) / expected)
            .sum()
    }

    /// The id shapes deployments produce: dense, shard-in-the-high-word,
    /// page-strided, and a family differing only in the top byte.
    fn structured_key_sets() -> Vec<(&'static str, Vec<u64>)> {
        const N: u64 = 1 << 16;
        vec![
            ("0..n", (0..N).collect()),
            ("i << 32", (0..N).map(|i| i << 32).collect()),
            ("i * 4096", (0..N).map(|i| i * 4096).collect()),
            ("top byte", (0..256).map(|i| (i << 56) | 0x1234).collect()),
        ]
    }

    #[test]
    fn structured_ids_fill_index_and_control_bits_evenly() {
        for (k0, k1) in KEYS {
            let build = IdHashBuilder::with_keys(k0, k1);
            for (name, ids) in structured_key_sets() {
                let hashes: Vec<u64> = ids
                    .iter()
                    .map(|&id| build.hash_one(NodeId::new(id)))
                    .collect();
                // hashbrown reads the bucket index from the low bits and
                // its control byte from the top 7. A uniform placement has
                // chi-square ≈ df ± sqrt(2·df); allow four deviations.
                for (what, bits, shift) in [("low 12", 12u32, 0u32), ("top 7", 7, 57)] {
                    let df = f64::from((1u32 << bits) - 1);
                    let bound = df + 4.0 * (2.0 * df).sqrt();
                    let chi = chi_square(&hashes, bits, |h| {
                        ((h >> shift) & ((1 << bits) - 1)) as usize
                    });
                    assert!(
                        chi <= bound,
                        "{name}, keys {k0:#x}/{k1:#x}: {what} bits chi-square {chi:.0} > {bound:.0}"
                    );
                }
            }
        }
    }

    #[test]
    fn different_keys_place_ids_differently() {
        let [a, b] = KEYS.map(|(k0, k1)| IdHashBuilder::with_keys(k0, k1));
        let n = 1u64 << 16;
        let same_bucket = (0..n)
            .filter(|&i| {
                let id = NodeId::new(i);
                a.hash_one(id) & 0xfff == b.hash_one(id) & 0xfff
            })
            .count();
        // Independent placements agree on n / 4096 = 16 ids on average.
        assert!(same_bucket < 64, "{same_bucket} of {n} ids share a bucket");
        assert_eq!(
            a.hash_one(NodeId::new(7)),
            IdHashBuilder::with_keys(KEYS[0].0, KEYS[0].1).hash_one(NodeId::new(7)),
            "equal keys must give equal placement"
        );
    }

    #[test]
    fn byte_input_is_hashed_too() {
        let build = IdHashBuilder::with_keys(1, 2);
        assert_ne!(build.hash_one("peer-a"), build.hash_one("peer-b"));
        assert_eq!(build.hash_one([1u8, 2, 3]), build.hash_one([1u8, 2, 3]));
    }
}
