//! Content fingerprints: the in-process keys of the EA's parent coverings
//! (per genome) and of the service's result cache (per test set).

use evotc_bits::Trit;

/// Content fingerprint of a genome: the lookup prefilter of the parent
/// coverings an [`crate::MvFitnessState`] holds, computed once per distinct
/// parent per batch.
///
/// Two independent FNV-1a lanes over 8-trit *words* rather than single
/// trits: packing eight indices into one `u64` per mix makes the dependent
/// multiply chain an eighth as long, and striping alternate words across
/// two lanes halves it again (the lanes' multiplies overlap in the
/// pipeline). This matters because the EA hashes a parent genome on every
/// cache lookup. The function is an in-process key (entries store the hash
/// they were inserted under), never persisted, so its exact value is an
/// internal detail.
pub fn content_hash(genome: &[Trit]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut even = 0xcbf2_9ce4_8422_2325u64 ^ genome.len() as u64;
    let mut odd = 0x9e37_79b9_7f4a_7c15u64;
    let mut pairs = genome.chunks_exact(16);
    for pair in &mut pairs {
        let (a, b) = pair.split_at(8);
        let wa = a.iter().fold(0u64, |w, &t| (w << 8) | t.index() as u64);
        let wb = b.iter().fold(0u64, |w, &t| (w << 8) | t.index() as u64);
        even = (even ^ wa).wrapping_mul(PRIME);
        odd = (odd ^ wb).wrapping_mul(PRIME);
    }
    for &t in pairs.remainder() {
        even = (even ^ t.index() as u64).wrapping_mul(PRIME);
    }
    (even ^ odd.rotate_left(29)).wrapping_mul(PRIME)
}

/// Content fingerprint of a whole test set: [`content_hash`] over the
/// row-major flattening of every pattern's trits, with the pattern width
/// folded in (the flattening alone cannot tell a 4×8 set from an 8×4
/// reshape of the same trit stream). This generalizes the per-genome
/// content key to submissions: the service's cross-run result cache keys
/// on it, so two submissions of the same patterns dedupe to one EA run.
/// Like [`content_hash`], an in-process key — never persisted.
pub fn test_set_content_hash(set: &evotc_bits::TestSet) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let trits: Vec<Trit> = set.iter().flat_map(|pattern| pattern.iter()).collect();
    (content_hash(&trits) ^ set.width() as u64).wrapping_mul(PRIME)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic family of distinct 8-gene genomes.
    fn genome(n: usize) -> Vec<Trit> {
        (0..8)
            .map(|j| Trit::from_index(((n >> j) % 3) as u8))
            .collect()
    }

    #[test]
    fn content_hash_is_stable_and_discriminating() {
        let g = genome(9);
        assert_eq!(content_hash(&g), content_hash(&g.clone()));
        // The deterministic genome family is pairwise distinct; FNV-1a must
        // separate all of them (collisions would only cost a compare, but
        // for 8-trit inputs there should be none).
        let hashes: Vec<u64> = (0..64).map(|n| content_hash(&genome(n))).collect();
        let mut unique = hashes.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), hashes.len());
    }

    #[test]
    fn test_set_hash_tracks_content_and_shape() {
        use evotc_bits::TestSet;
        let a = TestSet::parse(&["1100XX10", "0X011010"]).unwrap();
        let same = TestSet::parse(&["1100XX10", "0X011010"]).unwrap();
        assert_eq!(test_set_content_hash(&a), test_set_content_hash(&same));
        let edited = TestSet::parse(&["1100XX10", "0X011011"]).unwrap();
        assert_ne!(test_set_content_hash(&a), test_set_content_hash(&edited));
        // The same trit stream reshaped to a different width must not
        // collide.
        let reshaped = TestSet::parse(&["1100", "XX10", "0X01", "1010"]).unwrap();
        assert_ne!(test_set_content_hash(&a), test_set_content_hash(&reshaped));
    }
}
