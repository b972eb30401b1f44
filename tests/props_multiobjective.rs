//! Property tests gating the multi-objective fitness surface: the
//! transition-count objective re-priced incrementally per edit window must
//! equal the full kernel's recompute **and** the covering-based oracle
//! bit-for-bit; the Pareto archive must never hold a dominated point and
//! must report an insertion-order-invariant front; and the default
//! weights `(1, 0, 0)` must reproduce the single-objective trajectory
//! byte-for-byte at every thread count, archive on or off.

use evotc::bits::{BlockHistogram, SlicedHistogram, TestPattern, TestSet, TestSetString, Trit};
use evotc::core::{
    encoded_size_probe, encoded_size_rebuild, encoded_size_scratch, EvalCache, EvalScratch,
    IncrementalOutcome, MvFitness, PatchScratch,
};
use evotc::evo::{EaBuilder, EaConfig, EaResult, Objectives, ParetoArchive};
use proptest::prelude::*;

fn arb_trits(len: usize) -> impl Strategy<Value = Vec<Trit>> {
    proptest::collection::vec((0u8..3).prop_map(Trit::from_index), len..=len)
}

fn histogram_for(rows: &[Vec<Trit>], k: usize) -> (BlockHistogram, f64) {
    let patterns: TestSet = rows.iter().map(|t| TestPattern::from_trits(t)).collect();
    let string = TestSetString::new(&patterns, k);
    let hist = BlockHistogram::from_string(&string);
    let bits = string.payload_bits() as f64;
    (hist, bits)
}

/// The three objective side-channels of one full-kernel evaluation:
/// `(encoded_size, scan_transitions, used_mvs)`.
fn full_objectives(
    sliced: &SlicedHistogram,
    genes: &[Trit],
    scratch: &mut EvalScratch,
) -> (u64, u64, usize) {
    let size = encoded_size_scratch(sliced, genes, scratch);
    (
        size,
        scratch.last_scan_transitions(),
        scratch.last_used_mvs(),
    )
}

/// One synthetic edit of a parent genome, mirroring the engine's operators.
#[derive(Debug, Clone)]
enum Edit {
    /// Point mutation: `genes[pos] = gene`.
    Mutation { pos: usize, gene: Trit },
    /// Inversion: reverse `lo..hi`.
    Inversion { at: usize, span: usize },
    /// Crossover: splice the donor's `lo..hi` window in.
    Crossover { at: usize, span: usize },
}

fn arb_edits(genome_len: usize, steps: usize) -> impl Strategy<Value = Vec<Edit>> {
    proptest::collection::vec(
        (0u8..3, 0..genome_len, 1..genome_len, 0u8..3).prop_map(
            |(kind, pos, span, gene)| match kind {
                0 => Edit::Mutation {
                    pos,
                    gene: Trit::from_index(gene),
                },
                1 => Edit::Inversion {
                    at: pos,
                    span: span.max(2),
                },
                _ => Edit::Crossover { at: pos, span },
            },
        ),
        1..=steps,
    )
}

/// Applies `edit` to a copy of `parent` (drawing crossover content from
/// `donor`) and returns the child plus the edit window.
fn apply_edit(parent: &[Trit], donor: &[Trit], edit: &Edit) -> (Vec<Trit>, std::ops::Range<usize>) {
    let mut child = parent.to_vec();
    match *edit {
        Edit::Mutation { pos, gene } => {
            child[pos] = gene;
            (child, pos..pos + 1)
        }
        Edit::Inversion { at, span } => {
            let lo = at.min(child.len() - 1);
            let hi = (lo + span).min(child.len());
            child[lo..hi].reverse();
            (child, lo..hi)
        }
        Edit::Crossover { at, span } => {
            let lo = at.min(child.len() - 1);
            let hi = (lo + span).min(child.len());
            child[lo..hi].copy_from_slice(&donor[lo..hi]);
            (child, lo..hi)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Satellite 1a: the incrementally re-priced transition count (and
    /// used-MV count) equals the full kernel's recompute for every
    /// mutation, inversion and crossover edit window — probed against one
    /// parent cache, and along a chain whose every step is probed against
    /// its predecessor's rebuilt cache.
    #[test]
    fn incremental_transition_repricing_matches_full_recompute(
        rows in proptest::collection::vec(arb_trits(12), 1..8),
        parent in arb_trits(24),
        donor in arb_trits(24),
        edits in arb_edits(24, 16),
    ) {
        let (hist, _) = histogram_for(&rows, 6);
        let sliced = SlicedHistogram::from_histogram(&hist);
        let mut scratch = EvalScratch::new();
        let mut patch = PatchScratch::new();
        let mut cache = EvalCache::new();
        encoded_size_rebuild(&sliced, &parent, true, &mut cache);
        // Read-only probes: every child priced against the parent cache.
        for edit in &edits {
            let (child, window) = apply_edit(&parent, &donor, edit);
            let (size, transitions, used) = full_objectives(&sliced, &child, &mut scratch);
            let probe = encoded_size_probe(&sliced, &child, true, &window, &cache, &mut patch, false);
            prop_assert_eq!(probe, IncrementalOutcome::Size(size), "{:?}", edit);
            prop_assert_eq!(
                patch.last_scan_transitions(), transitions,
                "transitions after {:?}", edit
            );
            prop_assert_eq!(patch.last_used_mvs(), used, "used MVs after {:?}", edit);
        }
        // Chain: each child is probed against its predecessor's cache,
        // then becomes the cached genome; the transition and used-MV
        // counts must track the full kernel at every step.
        let mut genome = parent.clone();
        for edit in &edits {
            let (child, window) = apply_edit(&genome, &donor, edit);
            let (size, transitions, used) = full_objectives(&sliced, &child, &mut scratch);
            let probe = encoded_size_probe(&sliced, &child, true, &window, &cache, &mut patch, false);
            prop_assert_eq!(probe, IncrementalOutcome::Size(size), "chain {:?}", edit);
            prop_assert_eq!(patch.last_scan_transitions(), transitions, "chain {:?}", edit);
            prop_assert_eq!(patch.last_used_mvs(), used, "chain {:?}", edit);
            genome = child;
            prop_assert_eq!(encoded_size_rebuild(&sliced, &genome, true, &mut cache), size);
        }
    }

    /// Satellite 1a, oracle leg: the kernel's objective vector (encoded
    /// bits, scan transitions, decoder gate equivalents) equals the
    /// covering-based reference path, which computes transitions directly
    /// from the owner MV's value plane fused with each block's fill bits —
    /// no bit-sliced machinery involved.
    #[test]
    fn kernel_objectives_match_the_covering_oracle(
        rows in proptest::collection::vec(arb_trits(12), 1..8),
        genomes in proptest::collection::vec(arb_trits(24), 1..8),
    ) {
        for &(k, l) in &[(4usize, 6usize), (6, 4), (12, 2)] {
            let (hist, bits) = histogram_for(&rows, k);
            let fitness = MvFitness::new(k, &hist, bits);
            let mut scratch = EvalScratch::new();
            for genes in &genomes {
                let genes = &genes[..k * l];
                let oracle = fitness.evaluate_oracle(genes);
                let kernel = fitness.evaluate_with_objectives(genes, &mut scratch);
                prop_assert_eq!(oracle.0.to_bits(), kernel.0.to_bits(), "scalar k={}", k);
                prop_assert_eq!(oracle.1, kernel.1, "objectives k={}", k);
            }
        }
    }

    /// Satellite 1b: the archive never contains a dominated point, and the
    /// reported front is a pure function of the inserted *set* — any
    /// insertion order yields the same objective vectors.
    #[test]
    fn pareto_archive_is_nondominated_and_order_invariant(
        raw in proptest::collection::vec((0u32..12, 0u32..12, 0u32..12), 1..24),
        capacity in 0usize..6,
    ) {
        let vectors: Vec<Objectives> = raw
            .iter()
            .map(|&(a, b, c)| Objectives::new(a as f64, b as f64, c as f64))
            .collect();
        let mut forward = ParetoArchive::new(capacity);
        for (i, &v) in vectors.iter().enumerate() {
            forward.insert(&[i], i as f64, v);
        }
        // Nondomination + duplicate-freedom over the full internal front.
        for p in forward.points() {
            for q in forward.points() {
                prop_assert!(
                    !p.objectives.dominates(&q.objectives),
                    "dominated point in the front"
                );
            }
        }
        let front = |a: &ParetoArchive<usize>| {
            a.points().iter().map(|p| p.objectives).collect::<Vec<_>>()
        };
        // The front is sorted strictly: lexicographic order with no
        // duplicate vectors.
        for w in front(&forward).windows(2) {
            prop_assert_eq!(
                w[0].lex_cmp(&w[1]),
                std::cmp::Ordering::Less,
                "front must be strictly sorted"
            );
        }
        // Reversed and interleaved insertion orders settle on the same front.
        let mut backward = ParetoArchive::new(capacity);
        for (i, &v) in vectors.iter().enumerate().rev() {
            backward.insert(&[i], i as f64, v);
        }
        prop_assert_eq!(front(&forward), front(&backward), "reversed order");
        let mut interleaved = ParetoArchive::new(capacity);
        for (i, &v) in vectors.iter().enumerate().skip(1).step_by(2) {
            interleaved.insert(&[i], i as f64, v);
        }
        for (i, &v) in vectors.iter().enumerate().step_by(2) {
            interleaved.insert(&[i], i as f64, v);
        }
        prop_assert_eq!(front(&forward), front(&interleaved), "interleaved order");
        // The report is the lexicographically-first `capacity` points of
        // that invariant front (everything, when unbounded).
        let expected = if capacity == 0 {
            front(&forward)
        } else {
            front(&forward).into_iter().take(capacity).collect()
        };
        let reported: Vec<Objectives> =
            forward.reported().iter().map(|p| p.objectives).collect();
        prop_assert_eq!(reported, expected, "capacity bounds the report");
    }
}

/// Runs the EA over a fixed small workload with the given `MvFitness`
/// weights (`None` = never set), Pareto capacity and thread count.
fn run_mv_ea(
    hist: &BlockHistogram,
    bits: f64,
    weights: Option<[f64; 3]>,
    pareto: usize,
    threads: usize,
    seed: u64,
) -> EaResult<Trit> {
    let mut fitness = MvFitness::new(8, hist, bits);
    if let Some(weights) = weights {
        fitness = fitness.combine_mode(weights);
    }
    let config = EaConfig::builder()
        .population_size(8)
        .children_per_generation(6)
        .stagnation_limit(30)
        .seed(seed)
        .threads(threads)
        .pareto_archive(pareto)
        .build();
    EaBuilder::new(
        8 * 4,
        |rng| Trit::from_index(rand::Rng::gen_range(rng, 0..3u8)),
        fitness,
    )
    .config(config)
    .run()
}

fn small_workload() -> (BlockHistogram, f64) {
    let set = TestSet::parse(&[
        "110100XX", "110000XX", "11010000", "110X00XX", "11010011", "110100XX",
    ])
    .unwrap();
    let string = TestSetString::try_new(&set, 8).unwrap();
    let bits = string.payload_bits() as f64;
    (BlockHistogram::from_string(&string), bits)
}

/// Satellite 1c: weights `(1, 0, 0)` — the default — reproduce the
/// single-objective trajectory byte-for-byte at every thread count, with
/// the Pareto archive on (objective evaluation path) or off (the legacy
/// scalar path), and the front itself is thread-invariant.
#[test]
fn weighted_unit_mode_reproduces_the_scalar_trajectory_at_any_thread_count() {
    let (hist, bits) = small_workload();
    for seed in [1u64, 9] {
        let reference = run_mv_ea(&hist, bits, None, 0, 1, seed);
        let mut fronts = Vec::new();
        for threads in [1usize, 2, 4] {
            for (weights, pareto) in [(None, 0), (None, 16), (Some([1.0, 0.0, 0.0]), 16)] {
                let run = run_mv_ea(&hist, bits, weights, pareto, threads, seed);
                assert_eq!(run.best_genome, reference.best_genome, "t={threads}");
                assert_eq!(
                    run.best_fitness.to_bits(),
                    reference.best_fitness.to_bits(),
                    "t={threads}"
                );
                assert_eq!(run.generations, reference.generations, "t={threads}");
                assert_eq!(run.evaluations, reference.evaluations, "t={threads}");
                for (a, b) in run.history.iter().zip(&reference.history) {
                    assert_eq!(a.best_fitness.to_bits(), b.best_fitness.to_bits());
                    assert_eq!(a.mean_fitness.to_bits(), b.mean_fitness.to_bits());
                    assert_eq!(a.evaluations, b.evaluations);
                }
                if pareto > 0 {
                    assert!(!run.pareto_front.is_empty(), "archive collected nothing");
                    fronts.push(run.pareto_front);
                }
            }
        }
        for front in &fronts[1..] {
            assert_eq!(front.len(), fronts[0].len(), "front size varies");
            for (a, b) in front.iter().zip(&fronts[0]) {
                assert_eq!(a.genes, b.genes, "front genome varies with threads");
                assert_eq!(a.objectives, b.objectives);
                assert_eq!(a.fitness.to_bits(), b.fitness.to_bits());
            }
        }
    }
}

/// Lexicographic ranking end to end: ranking on the objective vector with
/// an archive stays deterministic across thread counts and yields a
/// nondominated, lexicographically sorted front whose head is the best
/// compression found.
#[test]
fn lexicographic_mv_runs_are_thread_invariant() {
    let (hist, bits) = small_workload();
    let run = |threads: usize| {
        let fitness = MvFitness::new(8, &hist, bits);
        let config = EaConfig::builder()
            .population_size(8)
            .children_per_generation(6)
            .stagnation_limit(30)
            .seed(4)
            .threads(threads)
            .lexicographic()
            .pareto_archive(16)
            .build();
        EaBuilder::new(
            8 * 4,
            |rng| Trit::from_index(rand::Rng::gen_range(rng, 0..3u8)),
            fitness,
        )
        .config(config)
        .run()
    };
    let reference = run(1);
    assert!(!reference.pareto_front.is_empty());
    for w in reference.pareto_front.windows(2) {
        assert_eq!(
            w[0].objectives.lex_cmp(&w[1].objectives),
            std::cmp::Ordering::Less,
            "front must be sorted and duplicate-free"
        );
    }
    // The front's head minimizes encoded bits, which maximizes the rate.
    let head = &reference.pareto_front[0];
    assert_eq!(head.fitness.to_bits(), reference.best_fitness.to_bits());
    for threads in [2usize, 4] {
        let other = run(threads);
        assert_eq!(other.best_genome, reference.best_genome, "t={threads}");
        assert_eq!(other.pareto_front.len(), reference.pareto_front.len());
        for (a, b) in other.pareto_front.iter().zip(&reference.pareto_front) {
            assert_eq!(a.genes, b.genes, "t={threads}");
            assert_eq!(a.objectives, b.objectives, "t={threads}");
        }
    }
}
