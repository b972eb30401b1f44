//! Property tests pinning the allocation-free fitness kernel to the legacy
//! path: for every histogram, K/L shape, and genome (its last MV all-`U`),
//! `MvFitness::evaluate_with_objectives` must return the **bit-identical**
//! scalar `f64` that the legacy `MvSet::from_genes` → `Covering` →
//! `huffman_code` → `encoded_size` pipeline produces. The bounded kernel
//! (`encoded_size_bounded`) must return that exact size or stop only where
//! the size provably reaches its bound.

use evotc::bits::{BlockHistogram, SlicedHistogram, TestPattern, TestSet, TestSetString, Trit};
use evotc::core::{
    encoded_size, encoded_size_bounded, encoded_size_scratch, BoundedSize, EvalScratch, MvFitness,
    MvSet,
};
use evotc::evo::FitnessEval;
use proptest::prelude::*;

/// The K/L shapes the properties sweep: small and paper-adjacent, odd and
/// even K, L from tiny to wider than the distinct-block count.
const SHAPES: [(usize, usize); 4] = [(4, 3), (6, 5), (8, 4), (12, 4)];

fn arb_trits(len: usize) -> impl Strategy<Value = Vec<Trit>> {
    proptest::collection::vec((0u8..3).prop_map(Trit::from_index), len..=len)
}

/// Specified-heavy rows: mostly 0/1, so small MV sets leave many blocks to
/// the all-`U` last MV.
fn arb_dense_rows(width: usize) -> impl Strategy<Value = Vec<Vec<Trit>>> {
    proptest::collection::vec(
        proptest::collection::vec(any::<bool>(), width..=width)
            .prop_map(|bs| bs.into_iter().map(Trit::from_bool).collect::<Vec<_>>()),
        1..10,
    )
}

/// Checks the bounded kernel's contract on one genome against the exact
/// kernel at the bounds that matter: 0, exact − 1, exact, exact + 1 and
/// `u64::MAX`. Returns whether some bound stopped the scan early.
fn check_bounded(
    sliced: &SlicedHistogram,
    genes: &[Trit],
    exact_scratch: &mut EvalScratch,
    scratch: &mut EvalScratch,
) -> bool {
    let exact = encoded_size_scratch(sliced, genes, exact_scratch);
    let used = exact_scratch.last_used_mvs();
    let mut stopped = false;
    for bound in [0, exact.saturating_sub(1), exact, exact + 1, u64::MAX] {
        match encoded_size_bounded(sliced, genes, bound, scratch) {
            BoundedSize::Exact(size) => {
                prop_assert_eq!(size, exact, "bound {}", bound);
                prop_assert_eq!(scratch.last_used_mvs(), used);
            }
            BoundedSize::AtLeast => {
                prop_assert!(
                    exact >= bound,
                    "stopped at bound {} below the exact size {}",
                    bound,
                    exact
                );
                stopped = true;
            }
        }
    }
    stopped
}

fn histogram_for(rows: &[Vec<Trit>], k: usize) -> (BlockHistogram, f64) {
    let patterns: TestSet = rows.iter().map(|t| TestPattern::from_trits(t)).collect();
    let string = TestSetString::new(&patterns, k);
    let hist = BlockHistogram::from_string(&string);
    let bits = string.payload_bits() as f64;
    (hist, bits)
}

/// The legacy fitness computation, spelled out independently of `MvFitness`
/// so the property does not compare the kernel against itself.
fn legacy_fitness(k: usize, hist: &BlockHistogram, bits: f64, g: &[Trit]) -> f64 {
    let mvs = MvSet::from_genes(k, g, true).unwrap();
    let size = encoded_size(&mvs, hist).expect("the all-U MV covers every block");
    100.0 * (bits - size as f64) / bits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Kernel == legacy over X-rich random rows for every shape, through
    /// one reused scratch.
    #[test]
    fn kernel_matches_legacy_on_sparse_rows(
        rows in proptest::collection::vec(arb_trits(12), 1..10),
        genome_bits in proptest::collection::vec((0u8..3).prop_map(Trit::from_index), 48..=48),
    ) {
        let mut scratch = EvalScratch::new();
        for &(k, l) in &SHAPES {
            let (hist, bits) = histogram_for(&rows, k);
            let genes = &genome_bits[..k * l.min(48 / k)];
            let fitness = MvFitness::new(k, &hist, bits);
            let fast = fitness.evaluate_with_objectives(genes, &mut scratch).0;
            let slow = legacy_fitness(k, &hist, bits, genes);
            prop_assert_eq!(
                fast.to_bits(), slow.to_bits(),
                "K={} L={} fast={} slow={}", k, l, fast, slow
            );
            // The trait's single-genome path is the legacy one; the batch
            // path is the kernel. All three must agree.
            prop_assert_eq!(fitness.evaluate(genes).to_bits(), fast.to_bits());
        }
    }

    /// The bounded kernel answers exactly or "at least the bound", the
    /// latter only when the exact size reaches the bound, over X-rich rows
    /// at K ∈ {4, 8, 12}.
    #[test]
    fn bounded_kernel_never_stops_below_its_bound(
        rows in proptest::collection::vec(arb_trits(24), 1..12),
        genome in proptest::collection::vec((0u8..3).prop_map(Trit::from_index), 96..=96),
    ) {
        let (mut exact_scratch, mut scratch) = (EvalScratch::new(), EvalScratch::new());
        for k in [4, 8, 12] {
            let (hist, _) = histogram_for(&rows, k);
            let sliced = SlicedHistogram::from_histogram(&hist);
            for l in [1, 3, 96 / k] {
                let stopped =
                    check_bounded(&sliced, &genome[..k * l], &mut exact_scratch, &mut scratch);
                // A zero bound is reached by every lower bound.
                prop_assert!(stopped, "K={} L={}", k, l);
            }
        }
    }

    /// The same contract over specified-heavy rows, where small MV sets
    /// leave many blocks to the all-`U` last MV.
    #[test]
    fn bounded_kernel_never_stops_below_its_bound_on_dense_rows(
        rows in arb_dense_rows(24),
        genomes in proptest::collection::vec(arb_trits(24), 1..8),
    ) {
        let (mut exact_scratch, mut scratch) = (EvalScratch::new(), EvalScratch::new());
        for k in [4, 8, 12] {
            let (hist, _) = histogram_for(&rows, k);
            let sliced = SlicedHistogram::from_histogram(&hist);
            for g in &genomes {
                check_bounded(&sliced, g, &mut exact_scratch, &mut scratch);
            }
        }
    }

    /// The raw size kernel agrees with `encoded_size` on explicit MV sets
    /// (covering order already established by `MvSet`).
    #[test]
    fn size_kernel_matches_encoded_size(
        rows in proptest::collection::vec(arb_trits(12), 1..8),
        mvs in proptest::collection::vec(arb_trits(6), 1..6),
    ) {
        let (hist, _) = histogram_for(&rows, 6);
        let sliced = evotc::bits::SlicedHistogram::from_histogram(&hist);
        let vectors: Vec<evotc::core::MatchingVector> = mvs
            .iter()
            .map(|t| evotc::core::MatchingVector::from_trits(t).unwrap())
            .collect();
        let set = MvSet::new(6, vectors).unwrap().with_all_u();
        let genes = set.to_genes();
        let mut scratch = EvalScratch::new();
        // `to_genes` lists the MVs in covering order, so the all-`U` one
        // comes last.
        let fast = encoded_size_scratch(&sliced, &genes, &mut scratch);
        let slow = encoded_size(&set, &hist);
        prop_assert_eq!(Some(fast), slow);
    }
}
