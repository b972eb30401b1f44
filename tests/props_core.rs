//! Property tests for the core compression invariants: matching
//! monotonicity, covering soundness, subsumption, and the histogram
//! fitness shortcut being exact.

use evotc::bits::{BlockHistogram, InputBlock, TestPattern, TestSet, TestSetString, Trit};
use evotc::core::{encoded_size, Covering, MatchingVector, MvSet};
use proptest::prelude::*;

fn arb_trits(len: usize) -> impl Strategy<Value = Vec<Trit>> {
    proptest::collection::vec((0u8..3).prop_map(Trit::from_index), len..=len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Un-specifying any MV position preserves every existing match.
    #[test]
    fn matching_is_monotone_under_unspecification(
        mv in arb_trits(10),
        block in arb_trits(10),
        pos in 0usize..10,
    ) {
        let v = MatchingVector::from_trits(&mv).unwrap();
        let b = InputBlock::from_trits(&block).unwrap();
        let mut loosened = v;
        loosened.set_trit(pos, Trit::X);
        if v.matches(&b) {
            prop_assert!(loosened.matches(&b));
        }
    }

    /// The packed word-parallel matcher agrees with the per-trit definition.
    #[test]
    fn packed_matching_equals_definition(mv in arb_trits(12), block in arb_trits(12)) {
        let v = MatchingVector::from_trits(&mv).unwrap();
        let b = InputBlock::from_trits(&block).unwrap();
        let by_definition = mv
            .iter()
            .zip(&block)
            .all(|(&vm, &bm)| vm.matches(bm));
        prop_assert_eq!(v.matches(&b), by_definition);
    }

    /// subsumes(a, b) is exactly "every block matched by b is matched by a"
    /// (verified on random blocks rather than exhaustively).
    #[test]
    fn subsumption_implies_containment(
        a in arb_trits(8),
        b in arb_trits(8),
        blocks in proptest::collection::vec(arb_trits(8), 16),
    ) {
        let va = MatchingVector::from_trits(&a).unwrap();
        let vb = MatchingVector::from_trits(&b).unwrap();
        if va.subsumes(&vb) {
            for t in &blocks {
                let blk = InputBlock::from_trits(t).unwrap();
                if vb.matches(&blk) {
                    prop_assert!(va.matches(&blk), "{va} !>= {vb} at {blk}");
                }
            }
        }
    }

    /// Covering assigns the first MV in ascending-U order, never a later
    /// one when an earlier one matches; frequencies sum to the block count.
    #[test]
    fn covering_is_sound(
        mvs in proptest::collection::vec(arb_trits(6), 1..5),
        rows in proptest::collection::vec(arb_trits(6), 1..12),
    ) {
        let vectors: Vec<MatchingVector> = mvs
            .iter()
            .map(|t| MatchingVector::from_trits(t).unwrap())
            .collect();
        let set = MvSet::new(6, vectors).unwrap().with_all_u();
        let patterns: TestSet = rows
            .iter()
            .map(|t| TestPattern::from_trits(t))
            .collect();
        let hist = BlockHistogram::from_string(&TestSetString::new(&patterns, 6));
        let covering = Covering::cover(&set, &hist).unwrap();
        prop_assert_eq!(covering.total_blocks(), hist.total_count());
        for (e, &(block, _)) in hist.iter().enumerate() {
            let assigned = covering.assignment(e);
            prop_assert!(set.vector(assigned).matches(&block));
            for earlier in 0..assigned {
                prop_assert!(!set.vector(earlier).matches(&block),
                    "covering skipped an earlier match");
            }
        }
    }

    /// The histogram-based size (EA fitness kernel) equals the naive
    /// block-by-block computation.
    #[test]
    fn histogram_fitness_is_exact(
        rows in proptest::collection::vec(arb_trits(8), 1..10),
        mvs in proptest::collection::vec(arb_trits(4), 1..4),
    ) {
        let vectors: Vec<MatchingVector> = mvs
            .iter()
            .map(|t| MatchingVector::from_trits(t).unwrap())
            .collect();
        let set = MvSet::new(4, vectors).unwrap().with_all_u();
        let patterns: TestSet = rows.iter().map(|t| TestPattern::from_trits(t)).collect();
        let string = TestSetString::new(&patterns, 4);
        let hist = BlockHistogram::from_string(&string);
        let via_histogram = encoded_size(&set, &hist).unwrap();
        // Naive path: cover each block in string order, then re-derive the
        // total from the per-MV frequencies and the same Huffman code.
        let mut freqs = vec![0u64; set.len()];
        for block in string.iter() {
            let mv = Covering::first_match(&set, block).unwrap();
            freqs[mv] += 1;
        }
        let code = evotc::codes::huffman_code(&freqs);
        let naive: u64 = freqs
            .iter()
            .enumerate()
            .map(|(i, &f)| {
                f * (code.codeword(i).len() as u64
                    + set.vector(i).num_unspecified() as u64)
            })
            .sum();
        prop_assert_eq!(via_histogram, naive);
    }

    /// Expanding an MV with the fill bits of a block reproduces every
    /// specified bit of the block.
    #[test]
    fn expand_refines_matched_blocks(mv in arb_trits(8), block in arb_trits(8)) {
        let v = MatchingVector::from_trits(&mv).unwrap();
        let b = InputBlock::from_trits(&block).unwrap();
        if v.matches(&b) {
            let expanded = v.expand(&v.fill_bits(&b));
            prop_assert_eq!(expanded.num_x(), 0);
            for j in 0..8 {
                if let Some(want) = b.trit(j).to_bool() {
                    prop_assert_eq!(expanded.trit(j).to_bool(), Some(want));
                }
            }
        }
    }
}
