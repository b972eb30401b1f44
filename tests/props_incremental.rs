//! Property tests pinning the incremental fitness path to the full kernel:
//! an arbitrary chain of edits — single-gene mutations, multi-chunk
//! inversion windows straddling chunk boundaries, crossover children priced
//! against either parent's cache — each probed ([`encoded_size_probe`])
//! against the [`EvalCache`] of its predecessor, must produce the
//! **bit-identical** encoded size, transition count and used-MV count that
//! `encoded_size_scratch` computes from scratch at every step — including
//! edits that move blocks to and from the all-`U` last MV and edits that
//! create or remove duplicate MVs. The concurrent shared-cache path of
//! `MvFitness` is pinned to the same oracle, and the covering kept for a
//! probed child ([`encoded_size_keep`]) to a rebuild of that child, field for
//! field.

use std::ops::Range;

use evotc::bits::{BlockHistogram, SlicedHistogram, TestPattern, TestSet, TestSetString, Trit};
use evotc::core::{
    encoded_size_keep, encoded_size_probe, encoded_size_rebuild, encoded_size_scratch, EvalCache,
    EvalScratch, IncrementalOutcome, MvFitness, MvFitnessState, PatchScratch,
};
use evotc::evo::{FitnessEval, Lineage, Provenance};
use proptest::prelude::*;

fn arb_trits(len: usize) -> impl Strategy<Value = Vec<Trit>> {
    proptest::collection::vec((0u8..3).prop_map(Trit::from_index), len..=len)
}

/// Specified-heavy rows: mostly 0/1, so blocks move to and from the all-`U`
/// last MV as genes mutate.
fn arb_dense_rows(width: usize) -> impl Strategy<Value = Vec<Vec<Trit>>> {
    proptest::collection::vec(
        proptest::collection::vec(any::<bool>(), width..=width)
            .prop_map(|bs| bs.into_iter().map(Trit::from_bool).collect::<Vec<_>>()),
        1..8,
    )
}

/// A mutation chain: `(gene position, new gene)` pairs applied in order.
fn arb_chain(genome_len: usize, steps: usize) -> impl Strategy<Value = Vec<(usize, Trit)>> {
    proptest::collection::vec(
        (0..genome_len, (0u8..3).prop_map(Trit::from_index)),
        1..=steps,
    )
}

fn histogram_for(rows: &[Vec<Trit>], k: usize) -> (BlockHistogram, f64) {
    let patterns: TestSet = rows.iter().map(|t| TestPattern::from_trits(t)).collect();
    let string = TestSetString::new(&patterns, k);
    let hist = BlockHistogram::from_string(&string);
    let bits = string.payload_bits() as f64;
    (hist, bits)
}

/// One chain step: `genome` (an edit of the genome `cache` holds inside
/// `edit`) is probed ungated against `cache` and must match the full
/// kernel's size, transition and used-MV counts; then `cache` is rebuilt on
/// `genome` for the next step.
fn probe_then_rebuild(
    sliced: &SlicedHistogram,
    cache: &mut EvalCache,
    genome: &[Trit],
    edit: &Range<usize>,
) {
    let mut scratch = EvalScratch::new();
    let mut patch = PatchScratch::new();
    let full = encoded_size_scratch(sliced, genome, &mut scratch);
    let probe = encoded_size_probe(sliced, genome, true, edit, cache, &mut patch, false);
    assert_eq!(probe, IncrementalOutcome::Size(full), "probe {edit:?}");
    assert_eq!(
        patch.last_scan_transitions(),
        scratch.last_scan_transitions()
    );
    assert_eq!(patch.last_used_mvs(), scratch.last_used_mvs());
    assert_eq!(encoded_size_rebuild(sliced, genome, true, cache), full);
}

/// Runs one single-gene mutation chain through [`probe_then_rebuild`],
/// checking every step against the full kernel.
fn check_chain(sliced: &SlicedHistogram, genome: &mut [Trit], chain: &[(usize, Trit)]) {
    let mut cache = EvalCache::new();
    let built = encoded_size_rebuild(sliced, genome, true, &mut cache);
    assert_eq!(
        built,
        encoded_size_scratch(sliced, genome, &mut EvalScratch::new()),
        "rebuild diverged on the chain's start genome"
    );
    for &(pos, gene) in chain {
        genome[pos] = gene;
        probe_then_rebuild(sliced, &mut cache, genome, &(pos..pos + 1));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Mutation chains over X-rich rows for paper-adjacent shapes.
    #[test]
    fn mutation_chains_match_full_kernel(
        rows in proptest::collection::vec(arb_trits(12), 1..8),
        start in arb_trits(48),
        chain in arb_chain(48, 24),
    ) {
        for &(k, l) in &[(4usize, 12usize), (6, 8), (12, 4)] {
            let (hist, _) = histogram_for(&rows, k);
            let sliced = SlicedHistogram::from_histogram(&hist);
            let mut genome = start[..k * l].to_vec();
            check_chain(&sliced, &mut genome, &chain);
        }
    }

    /// Chains seeded with deliberate duplicate MVs (every chunk identical):
    /// mutations break duplicates apart and re-create them; the sequential
    /// first-match rule must price both transitions exactly.
    #[test]
    fn duplicate_mv_chains_match_full_kernel(
        rows in proptest::collection::vec(arb_trits(12), 1..6),
        chunk in arb_trits(6),
        chain in arb_chain(24, 24),
    ) {
        let (hist, _) = histogram_for(&rows, 6);
        let sliced = SlicedHistogram::from_histogram(&hist);
        let mut genome: Vec<Trit> = std::iter::repeat(chunk.iter().copied())
            .take(4)
            .flatten()
            .collect();
        check_chain(&sliced, &mut genome, &chain);
    }

    /// The read-only probe path: many children priced against one parent
    /// cache must match the full kernel, and the cache must still price the
    /// parent afterwards. This is exactly how `MvFitness::evaluate_batch`
    /// uses the cache for engine children.
    #[test]
    fn sibling_probes_match_full_kernel_and_preserve_the_parent(
        rows in proptest::collection::vec(arb_trits(12), 1..8),
        parent in arb_trits(24),
        edits in arb_chain(24, 16),
    ) {
        let (hist, _) = histogram_for(&rows, 6);
        let sliced = SlicedHistogram::from_histogram(&hist);
        let mut cache = EvalCache::new();
        let mut scratch = EvalScratch::new();
        let mut patch = PatchScratch::new();
        let parent_size = encoded_size_rebuild(&sliced, &parent, true, &mut cache);
        for &(pos, gene) in &edits {
            let mut child = parent.clone();
            child[pos] = gene;
            let probe =
                encoded_size_probe(&sliced, &child, true, &(pos..pos + 1), &cache, &mut patch, false);
            let full = encoded_size_scratch(&sliced, &child, &mut scratch);
            prop_assert_eq!(probe, IncrementalOutcome::Size(full));
        }
        // The probes left the cache on the parent.
        let parent_again =
            encoded_size_probe(&sliced, &parent, true, &(0..0), &cache, &mut patch, false);
        prop_assert_eq!(parent_again, IncrementalOutcome::Size(parent_size));
    }

    /// `MvFitness` end to end: the lineage batch path must score children
    /// bit-identically to the plain batch path, whatever mix of provenance
    /// (true single-gene edits, exact copies, missing lineage) it is handed.
    #[test]
    fn mv_fitness_lineage_batch_matches_plain_batch(
        rows in proptest::collection::vec(arb_trits(12), 1..8),
        parent_genomes in proptest::collection::vec(arb_trits(24), 1..4),
        edits in arb_chain(24, 12),
    ) {
        let (hist, bits) = histogram_for(&rows, 6);
        let fitness = MvFitness::new(6, &hist, bits);
        let parents: Vec<&[Trit]> = parent_genomes.iter().map(Vec::as_slice).collect();
        let mut genomes = Vec::new();
        let mut lineage = Vec::new();
        for (n, &(pos, gene)) in edits.iter().enumerate() {
            let parent_idx = n % parents.len();
            let mut child = parent_genomes[parent_idx].clone();
            match n % 3 {
                0 => {
                    child[pos] = gene;
                    lineage.push(Some(Lineage::new(parent_idx, pos..pos + 1)));
                }
                1 => lineage.push(Some(Lineage::new(parent_idx, 0..0))), // copy
                _ => {
                    child[pos] = gene;
                    lineage.push(None); // provenance lost -> full path
                }
            }
            genomes.push(child);
        }
        let provenance = Provenance { lineage: &lineage, parents: &parents, floor: None };
        let mut state = MvFitnessState::default();
        let mut with = vec![f64::NAN; genomes.len()];
        fitness.evaluate_batch(&mut state, &genomes, Some(provenance), &mut with, None);
        let mut without = vec![f64::NAN; genomes.len()];
        fitness.evaluate_batch(&mut state, &genomes, None, &mut without, None);
        for (i, (a, b)) in with.iter().zip(&without).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "genome {}", i);
        }
    }

    /// Multi-chunk inversion chains: windows straddling chunk boundaries,
    /// each probed against its predecessor's cache, must price
    /// bit-identically to the full kernel at every step.
    #[test]
    fn inversion_chains_straddling_chunks_match_full_kernel(
        rows in proptest::collection::vec(arb_trits(12), 1..8),
        start in arb_trits(36),
        windows in proptest::collection::vec((0..36usize, 2..20usize), 1..16),
    ) {
        for &(k, l) in &[(6usize, 6usize), (12, 3)] {
            let (hist, _) = histogram_for(&rows, k);
            let sliced = SlicedHistogram::from_histogram(&hist);
            let mut genome = start[..k * l].to_vec();
            let mut cache = EvalCache::new();
            encoded_size_rebuild(&sliced, &genome, true, &mut cache);
            for &(at, span) in &windows {
                let lo = at.min(genome.len() - 1);
                let hi = (lo + span).min(genome.len());
                genome[lo..hi].reverse();
                probe_then_rebuild(&sliced, &mut cache, &genome, &(lo..hi));
            }
        }
    }

    /// Crossover children priced via the parent-diff path: against the
    /// outside parent through the swapped window, and against the
    /// window-content donor through a whole-genome diff — both must match
    /// the full kernel, and `MvFitness`'s lineage batch (which picks
    /// whichever parent is cached) must match the plain batch.
    #[test]
    fn crossover_children_priced_by_parent_diff_match_plain_batch(
        rows in proptest::collection::vec(arb_trits(12), 1..8),
        parent_a in arb_trits(24),
        parent_b in arb_trits(24),
        windows in proptest::collection::vec((0..24usize, 1..24usize), 1..10),
    ) {
        let (hist, bits) = histogram_for(&rows, 6);
        let sliced = SlicedHistogram::from_histogram(&hist);
        let mut cache_a = EvalCache::new();
        let mut cache_b = EvalCache::new();
        encoded_size_rebuild(&sliced, &parent_a, true, &mut cache_a);
        encoded_size_rebuild(&sliced, &parent_b, true, &mut cache_b);
        let mut scratch = EvalScratch::new();
        let mut probe_scratch = PatchScratch::new();
        let mut genomes = Vec::new();
        let mut lineage = Vec::new();
        for &(at, span) in &windows {
            let lo = at.min(parent_a.len() - 1);
            let hi = (lo + span).min(parent_a.len());
            let mut child = parent_a.clone();
            child[lo..hi].copy_from_slice(&parent_b[lo..hi]);
            let expect = encoded_size_scratch(&sliced, &child, &mut scratch);
            // Outside parent: the swapped window is the edit.
            let via_a = encoded_size_probe(
                &sliced, &child, true, &(lo..hi), &cache_a, &mut probe_scratch, false,
            );
            prop_assert_eq!(via_a, IncrementalOutcome::Size(expect), "via parent A {}..{}", lo, hi);
            // Donor parent: the edit is conservatively the whole genome;
            // the probe diffs it chunk-wise.
            let via_b = encoded_size_probe(
                &sliced, &child, true, &(0..child.len()), &cache_b, &mut probe_scratch, false,
            );
            prop_assert_eq!(via_b, IncrementalOutcome::Size(expect), "via parent B {}..{}", lo, hi);
            lineage.push(Some(Lineage::crossover(0, lo..hi, 1)));
            genomes.push(child);
        }
        let fitness = MvFitness::new(6, &hist, bits);
        let parents: Vec<&[Trit]> = vec![&parent_a, &parent_b];
        let provenance = Provenance { lineage: &lineage, parents: &parents, floor: None };
        let mut state = MvFitnessState::default();
        let mut with = vec![f64::NAN; genomes.len()];
        fitness.evaluate_batch(&mut state, &genomes, Some(provenance), &mut with, None);
        let mut without = vec![f64::NAN; genomes.len()];
        fitness.evaluate_batch(&mut state, &genomes, None, &mut without, None);
        for (i, (a, b)) in with.iter().zip(&without).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "genome {}", i);
        }
    }

    /// Concurrent island states: the same lineage batch split over 1 and 4
    /// scoped threads, each scoring its share with its own
    /// `MvFitnessState` against one shared `MvFitness` (as concurrent
    /// islands do), must match the plain batch bit-for-bit. CI additionally
    /// runs the whole suite under `EVOTC_TEST_THREADS=4`, so the
    /// auto-threaded island tests exercise the same concurrency.
    #[test]
    fn island_states_on_concurrent_threads_match_plain_batch(
        rows in proptest::collection::vec(arb_trits(12), 1..6),
        parent_genomes in proptest::collection::vec(arb_trits(24), 2..4),
        edits in arb_chain(24, 24),
    ) {
        let (hist, bits) = histogram_for(&rows, 6);
        let fitness = MvFitness::new(6, &hist, bits);
        let parents: Vec<&[Trit]> = parent_genomes.iter().map(Vec::as_slice).collect();
        let mut genomes = Vec::new();
        let mut lineage = Vec::new();
        for (n, &(pos, gene)) in edits.iter().enumerate() {
            let parent_idx = n % parents.len();
            let mut child = parent_genomes[parent_idx].clone();
            match n % 3 {
                0 => {
                    child[pos] = gene;
                    lineage.push(Some(Lineage::new(parent_idx, pos..pos + 1)));
                }
                1 => {
                    // A multi-chunk window child of two parents.
                    let donor = (parent_idx + 1) % parents.len();
                    let hi = (pos + 13).min(child.len());
                    child[pos..hi].copy_from_slice(&parent_genomes[donor][pos..hi]);
                    lineage.push(Some(Lineage::crossover(parent_idx, pos..hi, donor)));
                }
                _ => lineage.push(Some(Lineage::new(parent_idx, 0..0))), // copy
            }
            genomes.push(child);
        }
        let mut plain = vec![f64::NAN; genomes.len()];
        fitness.evaluate_batch(&mut MvFitnessState::default(), &genomes, None, &mut plain, None);
        for threads in [1usize, 4] {
            let mut scores = vec![f64::NAN; genomes.len()];
            let chunk = genomes.len().div_ceil(threads);
            std::thread::scope(|scope| {
                for ((batch, lin), out) in genomes
                    .chunks(chunk)
                    .zip(lineage.chunks(chunk))
                    .zip(scores.chunks_mut(chunk))
                {
                    let provenance = Provenance { lineage: lin, parents: &parents, floor: None };
                    let fitness = &fitness;
                    scope.spawn(move || {
                        let mut state = MvFitnessState::default();
                        fitness.evaluate_batch(&mut state, batch, Some(provenance), out, None);
                    });
                }
            });
            for (i, (a, b)) in scores.iter().zip(&plain).enumerate() {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "genome {} threads {}", i, threads);
            }
        }
    }

    /// `MvFitness` lineage chains over dense rows: each step is a one-child
    /// batch whose parent is the previous genome, so blocks move to and
    /// from the all-`U` last MV through the parent cache's rebuild and
    /// probe, and every score must equal the oracle's.
    #[test]
    fn lineage_batch_chains_match_evaluate(
        rows in arb_dense_rows(8),
        start in arb_trits(12),
        chain in arb_chain(12, 16),
    ) {
        let (hist, bits) = histogram_for(&rows, 4);
        let fitness = MvFitness::new(4, &hist, bits);
        let mut genome = start.clone();
        let mut state = MvFitnessState::default();
        let mut score = [f64::NAN];
        fitness.evaluate_batch(&mut state, std::slice::from_ref(&genome), None, &mut score, None);
        prop_assert_eq!(score[0].to_bits(), fitness.evaluate(&genome).to_bits());
        for &(pos, gene) in &chain {
            let parent = genome.clone();
            genome[pos] = gene;
            let provenance = Provenance {
                lineage: &[Some(Lineage::new(0, pos..pos + 1))],
                parents: &[parent.as_slice()],
                floor: None,
            };
            fitness.evaluate_batch(
                &mut state, std::slice::from_ref(&genome), Some(provenance), &mut score, None,
            );
            prop_assert_eq!(score[0].to_bits(), fitness.evaluate(&genome).to_bits(), "step at {}", pos);
        }
    }

    /// Kept coverings are exact: for single-chunk, multi-chunk and donor
    /// (whole-genome) edits, with transitions tracked and not, the covering
    /// `encoded_size_keep` builds from the probe's moves equals the one
    /// `encoded_size_rebuild` builds for the child, field for field,
    /// and keeping never touches the parent's covering.
    #[test]
    fn kept_coverings_equal_a_rebuild_of_the_child(
        rows in proptest::collection::vec(arb_trits(12), 1..8),
        parent in arb_trits(36),
        donor in arb_trits(36),
        edits in proptest::collection::vec((0..36usize, 1..36usize, 0u8..3), 1..12),
    ) {
        let (hist, _) = histogram_for(&rows, 6);
        let sliced = SlicedHistogram::from_histogram(&hist);
        for transitions in [false, true] {
            let mut cache = EvalCache::new();
            encoded_size_rebuild(&sliced, &parent, transitions, &mut cache);
            let mut donor_cache = EvalCache::new();
            encoded_size_rebuild(&sliced, &donor, transitions, &mut donor_cache);
            let pristine = cache.clone();
            let mut scratch = PatchScratch::new();
            let (mut kept, mut rebuilt) = (EvalCache::new(), EvalCache::new());
            for &(at, span, op) in &edits {
                let hi = (at + span).min(parent.len());
                let mut child = parent.clone();
                // A single-gene mutation of the parent (one chunk), a
                // crossover window from the donor (several chunks), or the
                // same crossover child priced against the donor, where the
                // whole genome is the window.
                let (edit, base) = match op {
                    0 => {
                        child[at] = Trit::from_index((child[at].index() + 1) % 3);
                        (at..at + 1, &cache)
                    }
                    1 => {
                        child[at..hi].copy_from_slice(&donor[at..hi]);
                        (at..hi, &cache)
                    }
                    _ => {
                        child[at..hi].copy_from_slice(&donor[at..hi]);
                        (0..child.len(), &donor_cache)
                    }
                };
                let size = match encoded_size_probe(
                    &sliced, &child, transitions, &edit, base, &mut scratch, false,
                ) {
                    IncrementalOutcome::Size(size) => size,
                    IncrementalOutcome::NeedsFull => panic!("an ungated probe prices every edit"),
                };
                let kept_size = encoded_size_keep(&sliced, &child, base, &scratch, &mut kept);
                let full = encoded_size_rebuild(&sliced, &child, transitions, &mut rebuilt);
                prop_assert_eq!(kept_size, size);
                prop_assert_eq!(full, size);
                prop_assert_eq!(kept.tracks_transitions(), transitions);
                prop_assert!(kept == rebuilt, "kept {:?}\nrebuilt {:?}", kept, rebuilt);
            }
            prop_assert!(cache == pristine, "keeping changed the parent's covering");
            // A tracked rebuild equals the pristine cache only when that one
            // tracks transitions too, and a tracked probe of an untracked
            // cache needs the full kernel.
            let mut tracked = EvalCache::new();
            encoded_size_rebuild(&sliced, &parent, true, &mut tracked);
            prop_assert_eq!(tracked == pristine, transitions);
            let probe = encoded_size_probe(&sliced, &parent, true, &(0..0), &pristine, &mut scratch, true);
            prop_assert_eq!(probe == IncrementalOutcome::NeedsFull, !transitions);
        }
    }
}
