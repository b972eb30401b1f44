//! The determinism contract of the parallel EA engine: the thread count is
//! a throughput knob, never a semantic one. Same seed → byte-identical
//! results for `threads` ∈ {1, 2, 8}, at every layer — the raw engine, the
//! cached evaluator (its cache counters included), and the full compressor
//! pipeline.
//!
//! CI additionally runs the whole workspace suite twice (default threads
//! and `EVOTC_TEST_THREADS=1`) so every other test enforces the same
//! contract implicitly.

use evotc::bits::{BlockHistogram, TestSet, TestSetString, Trit};
use evotc::core::{EaCompressor, MvFitness, MvFitnessState};
use evotc::evo::{
    parallel, EaBuilder, EaConfig, EaResult, FitnessEval, Objectives, Provenance, Topology,
};
use evotc::workloads::synth::{generate, SyntheticSpec};
use rand::Rng;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn engine_run(threads: usize, seed: u64) -> EaResult<bool> {
    let config = EaConfig::builder()
        .population_size(12)
        .children_per_generation(8)
        .stagnation_limit(50)
        .seed(seed)
        .threads(threads)
        .build();
    EaBuilder::new(
        48,
        |rng| rng.gen::<bool>(),
        |genes: &[bool]| genes.iter().filter(|&&g| g).count() as f64,
    )
    .config(config)
    .run()
}

#[test]
fn engine_results_are_byte_identical_across_thread_counts() {
    for seed in [0u64, 7, 42] {
        let reference = engine_run(1, seed);
        for threads in THREAD_COUNTS {
            let run = engine_run(threads, seed);
            assert_eq!(run.best_genome, reference.best_genome, "seed {seed}");
            assert_eq!(run.best_fitness.to_bits(), reference.best_fitness.to_bits());
            assert_eq!(run.generations, reference.generations);
            assert_eq!(run.evaluations, reference.evaluations);
        }
    }
}

#[test]
fn engine_trajectories_match_modulo_wall_clock() {
    let reference = engine_run(1, 3);
    for threads in THREAD_COUNTS {
        let run = engine_run(threads, 3);
        assert_eq!(run.history.len(), reference.history.len());
        for (a, b) in run.history.iter().zip(&reference.history) {
            // `elapsed` is the one non-deterministic field; everything else
            // in the trajectory must match bit for bit.
            assert_eq!(a.generation, b.generation);
            assert_eq!(a.best_fitness.to_bits(), b.best_fitness.to_bits());
            assert_eq!(a.mean_fitness.to_bits(), b.mean_fitness.to_bits());
            assert_eq!(a.evaluations, b.evaluations);
        }
    }
}

fn workload() -> TestSet {
    generate(&SyntheticSpec {
        width: 24,
        total_bits: 24 * 80,
        specified_density: 0.45,
        one_bias: 0.35,
        seed: 11,
    })
}

#[test]
fn compressor_results_are_byte_identical_across_thread_counts() {
    let set = workload();
    let compress = |threads: usize| {
        EaCompressor::builder(12, 16)
            .seed(5)
            .stagnation_limit(25)
            .max_evaluations(800)
            .threads(threads)
            .build()
            .compress_with_summary(&set)
            .expect("workload compresses")
    };
    let (ref_compressed, ref_summary) = compress(1);
    for threads in THREAD_COUNTS {
        let (compressed, summary) = compress(threads);
        assert_eq!(compressed.compressed_bits, ref_compressed.compressed_bits);
        assert_eq!(compressed.mv_set(), ref_compressed.mv_set());
        assert_eq!(
            compressed.decompress().unwrap(),
            ref_compressed.decompress().unwrap()
        );
        assert_eq!(
            summary.best_fitness.to_bits(),
            ref_summary.best_fitness.to_bits()
        );
        assert_eq!(summary.generations, ref_summary.generations);
        assert_eq!(summary.evaluations, ref_summary.evaluations);
    }
}

#[test]
fn lineage_cache_never_changes_the_ea_trajectory() {
    // `MvFitness` wrapped so every batch drops its provenance and takes the
    // full kernel: running the engine with and without incremental
    // evaluation must produce byte-identical results, at every thread
    // count. The cache is a work-saving device, never a semantic one.
    struct NoLineage<'a>(MvFitness<'a>);
    impl FitnessEval<Trit> for NoLineage<'_> {
        type State = MvFitnessState;

        fn evaluate(&self, genes: &[Trit]) -> f64 {
            self.0.evaluate(genes)
        }
        fn evaluate_batch(
            &self,
            state: &mut MvFitnessState,
            genomes: &[Vec<Trit>],
            _provenance: Option<Provenance<'_, Trit>>,
            out: &mut [f64],
            objectives: Option<&mut [Objectives]>,
        ) {
            self.0.evaluate_batch(state, genomes, None, out, objectives);
        }
    }

    let set = workload();
    let string = TestSetString::try_new(&set, 12).expect("K=12 fits the workload");
    let histogram = BlockHistogram::from_string(&string);
    let bits = string.payload_bits() as f64;
    let config = |threads: usize| {
        EaConfig::builder()
            .population_size(10)
            .children_per_generation(6)
            .stagnation_limit(20)
            .max_evaluations(600)
            .seed(9)
            .threads(threads)
            .build()
    };
    let sample = |rng: &mut rand::rngs::StdRng| Trit::from_index(rng.gen_range(0..3u8));
    let reference = EaBuilder::new(
        12 * 16,
        sample,
        NoLineage(MvFitness::new(12, true, &histogram, bits)),
    )
    .config(config(1))
    .run();
    for threads in THREAD_COUNTS {
        let incremental =
            EaBuilder::new(12 * 16, sample, MvFitness::new(12, true, &histogram, bits))
                .config(config(threads))
                .run();
        assert_eq!(
            incremental.best_genome, reference.best_genome,
            "t={threads}"
        );
        assert_eq!(
            incremental.best_fitness.to_bits(),
            reference.best_fitness.to_bits()
        );
        assert_eq!(incremental.generations, reference.generations);
        assert_eq!(incremental.evaluations, reference.evaluations);
    }
}

#[test]
fn cache_trajectory_and_counters_are_thread_invariant() {
    // Every island owns its parent cache (`MvFitness::State`), and the
    // engine hands migrants' coverings over between epochs on one thread.
    // So however the islands are spread over workers, both the trajectory
    // and the cache hit/miss/fallback counters must be byte-identical for
    // every thread count and across repeated runs: the cache changes how
    // much a score costs, never the score, and its counters follow from the
    // trajectory alone. A panmictic run is a single island on the calling
    // thread, so the thread count must not matter there either.
    let set = workload();
    let string = TestSetString::try_new(&set, 12).expect("K=12 fits the workload");
    let histogram = BlockHistogram::from_string(&string);
    let bits = string.payload_bits() as f64;
    let islands = Topology::Islands {
        count: 4,
        interval: 3,
        migrants: 1,
    };
    for topology in [Topology::Panmictic, islands] {
        let run = |threads: usize| {
            let config = EaConfig::builder()
                .population_size(10)
                .children_per_generation(6)
                .stagnation_limit(20)
                .max_evaluations(600)
                .seed(17)
                .threads(threads)
                .topology(topology)
                .build();
            EaBuilder::new(
                12 * 16,
                |rng: &mut rand::rngs::StdRng| Trit::from_index(rng.gen_range(0..3u8)),
                MvFitness::new(12, true, &histogram, bits),
            )
            .config(config)
            .run()
        };
        let reference = run(1);
        // The run reports cache counters, and the steady state actually hits.
        let stats = reference.cache.expect("MvFitness reports cache stats");
        assert!(
            stats.hits > 0,
            "no parent-cache hits in a whole {topology} run: {stats}"
        );
        for threads in [1, 2, 4, 8] {
            for repeat in 0..2 {
                let other = run(threads);
                assert_eq!(
                    other.best_genome, reference.best_genome,
                    "{topology} t={threads} repeat={repeat}"
                );
                assert_eq!(
                    other.best_fitness.to_bits(),
                    reference.best_fitness.to_bits()
                );
                assert_eq!(other.generations, reference.generations);
                assert_eq!(other.evaluations, reference.evaluations);
                assert_eq!(
                    other.cache, reference.cache,
                    "{topology} t={threads} repeat={repeat}: cache counters"
                );
                for (a, b) in other.history.iter().zip(&reference.history) {
                    assert_eq!(a.best_fitness.to_bits(), b.best_fitness.to_bits());
                    assert_eq!(a.mean_fitness.to_bits(), b.mean_fitness.to_bits());
                    assert_eq!(a.evaluations, b.evaluations);
                    assert_eq!(a.cache, b.cache);
                }
            }
        }
    }
}

#[test]
fn explicit_threads_beat_the_env_override() {
    // `resolve_threads` takes an explicit count literally; only `0` (auto)
    // consults EVOTC_TEST_THREADS. Explicitly-threaded runs therefore stay
    // parallel even when CI forces the suite serial — and still must agree.
    assert_eq!(parallel::resolve_threads(3), 3);
    assert!(parallel::resolve_threads(0) >= 1);
}
