//! The determinism contract extended to island-model runs, plus the
//! migration semantics pinned through the public API: same seed + same
//! topology ⇒ byte-identical `EaResult` at every thread count, rank-based
//! migrant selection, ring direction `i → i + 1`, and the edge cases (one
//! island, interval beyond the generation cap).
//!
//! The migration observations use a *reproduction-only* configuration (all
//! operator probabilities zero): children are exact copies, so truncation
//! selection leaves every island's population untouched between migrations
//! — which makes migration the only way fitness can move between islands,
//! and its route fully visible in the per-island populations of a
//! checkpoint captured at every epoch boundary.

use std::cell::RefCell;

use evotc::evo::{
    EaBuilder, EaCheckpoint, EaConfig, EaResult, FitnessEval, Objectives, Provenance,
};
use proptest::prelude::*;
use rand::Rng;

const TARGET_LEN: usize = 32;
/// Fitness far above anything a random 32-bit one-max population reaches.
const ELITE: f64 = 1_000.0;

/// Scores the planted target at [`ELITE`], everything else by match count —
/// so the seeded individual is recognizable in island statistics wherever
/// it (or a copy) lives.
fn planted_fitness(genes: &[bool]) -> f64 {
    let matches = genes.iter().filter(|&&g| g).count();
    if matches == TARGET_LEN {
        ELITE
    } else {
        matches as f64
    }
}

/// A reproduction-only island run seeded with the planted target on island
/// 0, returning for each island the first generation at which its best
/// member is [`ELITE`] (`None` if never). Populations are read from a
/// capture at every epoch boundary; the capture at generation `e` is taken
/// after migration `e`, so it already holds that migration's arrivals.
fn elite_arrival(count: usize, interval: u64, migrants: usize, gens: u64) -> Vec<Option<u64>> {
    let config = EaConfig::builder()
        .population_size(6)
        .children_per_generation(4)
        .crossover_probability(0.0)
        .mutation_probability(0.0)
        .inversion_probability(0.0)
        .stagnation_limit(1_000_000)
        .max_generations(gens)
        .islands(count, interval, migrants)
        .seed(8)
        .build();
    let arrival = RefCell::new(vec![None; count]);
    EaBuilder::new(TARGET_LEN, |rng| rng.gen::<bool>(), planted_fitness)
        .config(config)
        .seed_population([vec![true; TARGET_LEN]])
        .checkpoint_every(1, |cp: &EaCheckpoint<bool>| {
            let mut arrival = arrival.borrow_mut();
            for (seen, island) in arrival.iter_mut().zip(&cp.islands) {
                if island.population[0].fitness == ELITE && seen.is_none() {
                    *seen = Some(cp.generation);
                }
            }
            Ok(())
        })
        .run();
    arrival.into_inner()
}

#[test]
fn migration_is_a_forward_ring_of_rank_best_migrants() {
    // Interval 1, one migrant: the elite is rank 0 on island 0, so rank
    // selection must carry exactly it. Each migration moves it one hop, so
    // an island at ring distance `d` from island 0 first holds the elite in
    // the capture after migration `d`.
    let arrival = elite_arrival(4, 1, 1, 6);
    assert_eq!(
        arrival[0],
        Some(1),
        "island 0 holds the seed from the first capture"
    );
    for d in 1..4u64 {
        assert_eq!(
            arrival[d as usize],
            Some(d),
            "ring direction: island {d} is {d} hops forward of island 0"
        );
    }
}

#[test]
fn no_migrants_means_fully_independent_islands() {
    let arrival = elite_arrival(4, 1, 0, 6);
    assert_eq!(arrival[0], Some(1));
    for (island, seen) in arrival.iter().enumerate().skip(1) {
        assert_eq!(
            *seen, None,
            "island {island} must never see the elite without migration"
        );
    }
}

#[test]
fn migration_respects_the_interval() {
    // Interval 3: the first migration happens after generation 3, so
    // island 1 first holds the elite at generation 3, island 2 at 6.
    let arrival = elite_arrival(3, 3, 1, 8);
    assert_eq!(arrival[1], Some(3));
    assert_eq!(arrival[2], Some(6));
}

fn one_max_islands(
    count: usize,
    interval: u64,
    migrants: usize,
    seed: u64,
    threads: usize,
    gens: u64,
) -> EaResult<bool> {
    let config = EaConfig::builder()
        .population_size(8)
        .children_per_generation(6)
        .stagnation_limit(1_000_000)
        .max_generations(gens)
        .islands(count, interval, migrants)
        .seed(seed)
        .threads(threads)
        .build();
    EaBuilder::new(
        24,
        |rng| rng.gen::<bool>(),
        |genes: &[bool]| genes.iter().filter(|&&g| g).count() as f64,
    )
    .config(config)
    .run()
}

fn assert_bit_identical(a: &EaResult<bool>, b: &EaResult<bool>, what: &str) {
    assert_eq!(a.best_genome, b.best_genome, "{what}");
    assert_eq!(a.best_fitness.to_bits(), b.best_fitness.to_bits(), "{what}");
    assert_eq!(a.generations, b.generations, "{what}");
    assert_eq!(a.evaluations, b.evaluations, "{what}");
    assert_eq!(a.history.len(), b.history.len(), "{what}");
    for (x, y) in a.history.iter().zip(&b.history) {
        assert_eq!(x.generation, y.generation, "{what}");
        assert_eq!(x.best_fitness.to_bits(), y.best_fitness.to_bits(), "{what}");
        assert_eq!(x.mean_fitness.to_bits(), y.mean_fitness.to_bits(), "{what}");
        assert_eq!(x.evaluations, y.evaluations, "{what}");
    }
}

#[test]
fn island_results_are_byte_identical_across_thread_counts() {
    // The tentpole contract: seed + topology fully determine the run; the
    // thread count (explicit here, or EVOTC_TEST_THREADS via auto in the
    // CI islands job) only schedules islands onto workers.
    for seed in [0u64, 7, 42] {
        let reference = one_max_islands(4, 3, 2, seed, 1, 12);
        for threads in [2, 4] {
            let other = one_max_islands(4, 3, 2, seed, threads, 12);
            assert_bit_identical(&other, &reference, "seed");
        }
    }
}

#[test]
fn auto_threads_match_explicit_threads() {
    // threads = 0 resolves through EVOTC_TEST_THREADS / available cores;
    // whatever it resolves to, the trajectory must equal the serial run.
    let reference = one_max_islands(3, 2, 1, 5, 1, 10);
    let auto = one_max_islands(3, 2, 1, 5, 0, 10);
    assert_bit_identical(&auto, &reference, "auto threads");
}

// ---- multi-objective island runs ----

/// A two-objective evaluator whose lexicographic order *disagrees* with the
/// scalar fitness: the scalar is the ones count, but the vector ranks by
/// adjacent-transition count first. The all-`false` genome is the global
/// lexicographic optimum (zero transitions) while being the scalar
/// *pessimum* — so any test that sees it survive, migrate and win proves
/// selection, migration and the final best pick all rank by the vector.
struct TransitionsFirst;
impl TransitionsFirst {
    fn objectives(genes: &[bool]) -> Objectives {
        let ones = genes.iter().filter(|&&g| g).count() as f64;
        let transitions = genes.windows(2).filter(|w| w[0] != w[1]).count() as f64;
        Objectives::new(transitions, -ones, 0.0)
    }
}
impl FitnessEval<bool> for TransitionsFirst {
    type State = ();

    fn evaluate(&self, genes: &[bool]) -> f64 {
        genes.iter().filter(|&&g| g).count() as f64
    }
    fn evaluate_batch(
        &self,
        _state: &mut (),
        genomes: &[Vec<bool>],
        _provenance: Option<Provenance<'_, bool>>,
        out: &mut [f64],
        objectives: Option<&mut [Objectives]>,
    ) {
        for (genes, slot) in genomes.iter().zip(out.iter_mut()) {
            *slot = self.evaluate(genes);
        }
        for (genes, obj) in genomes.iter().zip(objectives.into_iter().flatten()) {
            *obj = Self::objectives(genes);
        }
    }
}

fn multiobjective_islands(threads: usize, seed: u64) -> EaResult<bool> {
    let config = EaConfig::builder()
        .population_size(6)
        .children_per_generation(4)
        .stagnation_limit(1_000_000)
        .max_generations(10)
        .islands(3, 2, 1)
        .seed(seed)
        .threads(threads)
        .lexicographic()
        .pareto_archive(16)
        .build();
    EaBuilder::new(16, |rng| rng.gen::<bool>(), TransitionsFirst)
        .config(config)
        .run()
}

#[test]
fn multiobjective_island_archives_are_byte_identical_across_thread_counts() {
    for seed in [3u64, 11] {
        let reference = multiobjective_islands(1, seed);
        assert!(
            !reference.pareto_front.is_empty(),
            "island archives must merge into a front"
        );
        for p in &reference.pareto_front {
            assert_eq!(p.objectives, TransitionsFirst::objectives(&p.genome));
            for q in &reference.pareto_front {
                assert!(
                    !p.objectives.dominates(&q.objectives),
                    "merged front holds a dominated point"
                );
            }
        }
        for threads in [2usize, 4] {
            let other = multiobjective_islands(threads, seed);
            assert_bit_identical(&other, &reference, "multi-objective islands");
            assert_eq!(
                other.pareto_front.len(),
                reference.pareto_front.len(),
                "front size t={threads}"
            );
            for (a, b) in other.pareto_front.iter().zip(&reference.pareto_front) {
                assert_eq!(a.genome, b.genome, "front genome t={threads}");
                assert_eq!(a.objectives, b.objectives, "front vector t={threads}");
                assert_eq!(a.fitness.to_bits(), b.fitness.to_bits(), "t={threads}");
            }
        }
    }
}

#[test]
fn lexicographic_rank_best_governs_migration_and_the_final_best() {
    // Reproduction-only islands seeded with the lexicographic optimum —
    // which is the *worst* individual by scalar fitness. Under
    // `Ranking::Lexicographic` it must hold rank 0 on its island (so
    // truncation selection keeps it and rank-best migration carries exactly
    // it around the ring) and must be returned as the run's best. Under the
    // default fitness ranking, truncation would discard it immediately.
    let run = |threads: usize| {
        let config = EaConfig::builder()
            .population_size(6)
            .children_per_generation(4)
            .crossover_probability(0.0)
            .mutation_probability(0.0)
            .inversion_probability(0.0)
            .stagnation_limit(1_000_000)
            .max_generations(8)
            .islands(4, 1, 1)
            .seed(8)
            .threads(threads)
            .lexicographic()
            .build();
        EaBuilder::new(16, |rng| rng.gen::<bool>(), TransitionsFirst)
            .config(config)
            .seed_population([vec![false; 16]])
            .run()
    };
    let reference = run(1);
    assert_eq!(
        reference.best_genome,
        vec![false; 16],
        "the lexicographic optimum must win despite the worst scalar fitness"
    );
    assert_eq!(reference.best_fitness, 0.0);
    for threads in [2usize, 4] {
        let other = run(threads);
        assert_bit_identical(&other, &reference, "lexicographic migration");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Determinism for arbitrary topologies: any (count, interval,
    /// migrants, seed), run at 1, 2, and 4 threads, is byte-identical.
    #[test]
    fn arbitrary_topologies_are_thread_invariant(
        count in 1usize..5,
        interval in 1u64..5,
        migrants in 0usize..4,
        seed in 0u64..1_000,
    ) {
        let reference = one_max_islands(count, interval, migrants, seed, 1, 8);
        for threads in [2usize, 4] {
            let other = one_max_islands(count, interval, migrants, seed, threads, 8);
            assert_bit_identical(&other, &reference, "topology");
        }
    }

    /// One island degenerates to an isolated population: the number of
    /// migrants cannot matter (there is no partner to exchange with).
    #[test]
    fn single_island_ignores_migrants(
        migrants in 0usize..8,
        seed in 0u64..1_000,
    ) {
        let with = one_max_islands(1, 2, migrants, seed, 1, 8);
        let without = one_max_islands(1, 2, 0, seed, 1, 8);
        assert_bit_identical(&with, &without, "single island");
    }

    /// An interval beyond the generation cap means the run ends before any
    /// migration: migrants cannot matter.
    #[test]
    fn interval_beyond_the_cap_never_migrates(
        count in 2usize..5,
        migrants in 0usize..4,
        seed in 0u64..1_000,
    ) {
        let gens = 6;
        let with = one_max_islands(count, gens + 1, migrants, seed, 1, gens);
        let without = one_max_islands(count, gens + 1, 0, seed, 1, gens);
        assert_bit_identical(&with, &without, "interval > generations");
    }

    /// Elitist islands plus rank migration never lose the global best: the
    /// merged best-fitness trajectory is monotone for any topology.
    #[test]
    fn merged_best_is_monotone(
        count in 1usize..5,
        interval in 1u64..4,
        migrants in 0usize..3,
        seed in 0u64..1_000,
    ) {
        let result = one_max_islands(count, interval, migrants, seed, 1, 10);
        let mut prev = f64::NEG_INFINITY;
        for stats in &result.history {
            prop_assert!(stats.best_fitness >= prev);
            prev = stats.best_fitness;
        }
        prop_assert_eq!(result.best_fitness, prev);
    }
}
