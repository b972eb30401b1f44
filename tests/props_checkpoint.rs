//! Property tests gating the checkpoint/resume contract: interrupting a run
//! at *any* periodic checkpoint and resuming from it must reproduce the
//! uninterrupted trajectory byte-for-byte — best genome, fitness bits,
//! generation/evaluation counters, per-generation history, and the Pareto
//! archive — for arbitrary island topologies, checkpoint intervals, and
//! every supported thread count (1, 2, 4). The serialized byte format is on
//! the path: every resume goes through `to_bytes_with`/`from_bytes_with`
//! with a one-byte `bool` codec (or the trit codec for `MvFitness` runs), so
//! format round-trip loss would fail the same assertions.
//!
//! Wall-clock (`elapsed`) and shared-cache counters are observational and
//! documented as outside the determinism contract — a resumed run starts
//! with a cold cache — so they are asserted self-consistent, not equal.

use evotc::bits::{TestSet, TestSetString, Trit};
use evotc::core::{trit_checkpoint_from_bytes, trit_checkpoint_to_bytes, MvFitness};
use evotc::evo::{
    CheckpointError, EaBuilder, EaCheckpoint, EaConfig, EaResult, FitnessEval, Objectives,
    Provenance, StopReason, Topology,
};
use proptest::prelude::*;
use rand::Rng;

const GENOME_LEN: usize = 16;

/// The one-byte `bool` gene codec every `bool` resume below goes through.
fn to_bytes(checkpoint: &EaCheckpoint<bool>) -> Vec<u8> {
    checkpoint.to_bytes_with(|&gene, out| out.push(u8::from(gene)))
}

fn from_bytes(bytes: &[u8]) -> Result<EaCheckpoint<bool>, CheckpointError> {
    EaCheckpoint::from_bytes_with(bytes, |input| {
        let (&byte, rest) = input.split_first().ok_or(CheckpointError::Truncated)?;
        *input = rest;
        match byte {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CheckpointError::Malformed("bool gene out of range")),
        }
    })
}

/// One-max plus a transition-minimizing second objective, so lexicographic
/// runs and the Pareto archive both have real structure to preserve.
struct TwoObjective;
impl TwoObjective {
    fn objectives(genes: &[bool]) -> Objectives {
        let ones = genes.iter().filter(|&&g| g).count() as f64;
        let transitions = genes.windows(2).filter(|w| w[0] != w[1]).count() as f64;
        Objectives::new(-ones, transitions, 0.0)
    }
}
impl FitnessEval<bool> for TwoObjective {
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

fn arb_topology() -> impl Strategy<Value = Topology> {
    (0usize..4, 2u64..6, 0usize..3).prop_map(|(count, interval, migrants)| {
        if count == 0 {
            Topology::Panmictic
        } else {
            Topology::Islands {
                count: count + 1, // 2..=4 islands
                interval,
                migrants,
            }
        }
    })
}

fn arb_threads() -> impl Strategy<Value = usize> {
    (0usize..3).prop_map(|i| [1, 2, 4][i])
}

fn config(seed: u64, topology: Topology, threads: usize, lexicographic: bool) -> EaConfig {
    let mut builder = EaConfig::builder()
        .population_size(6)
        .children_per_generation(4)
        .stagnation_limit(10)
        .seed(seed)
        .threads(threads)
        .topology(topology)
        .pareto_archive(16);
    if lexicographic {
        builder = builder.lexicographic();
    }
    builder.build()
}

fn assert_identical(resumed: &EaResult<bool>, reference: &EaResult<bool>, label: &str) {
    assert_eq!(resumed.best_genome, reference.best_genome, "{label}");
    assert_eq!(
        resumed.best_fitness.to_bits(),
        reference.best_fitness.to_bits(),
        "{label}"
    );
    assert_eq!(resumed.generations, reference.generations, "{label}");
    assert_eq!(resumed.evaluations, reference.evaluations, "{label}");
    assert_eq!(resumed.stop_reason, reference.stop_reason, "{label}");
    assert_eq!(resumed.history.len(), reference.history.len(), "{label}");
    for (a, b) in resumed.history.iter().zip(&reference.history) {
        assert_eq!(a.generation, b.generation, "{label}");
        assert_eq!(
            a.best_fitness.to_bits(),
            b.best_fitness.to_bits(),
            "{label}"
        );
        assert_eq!(
            a.mean_fitness.to_bits(),
            b.mean_fitness.to_bits(),
            "{label}"
        );
        assert_eq!(a.evaluations, b.evaluations, "{label}");
    }
    assert_eq!(
        resumed.pareto_front.len(),
        reference.pareto_front.len(),
        "{label}: front size"
    );
    for (a, b) in resumed.pareto_front.iter().zip(&reference.pareto_front) {
        assert_eq!(a.genes, b.genes, "{label}");
        assert_eq!(a.fitness.to_bits(), b.fitness.to_bits(), "{label}");
        assert_eq!(a.objectives, b.objectives, "{label}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn resume_from_any_checkpoint_is_byte_identical(
        seed in 0u64..1_000,
        topology in arb_topology(),
        threads in arb_threads(),
        every in 1u64..6,
        lexicographic in proptest::arbitrary::any::<bool>(),
    ) {
        let config = config(seed, topology, threads, lexicographic);
        let mut checkpoints = Vec::new();
        let reference = EaBuilder::new(GENOME_LEN, |rng| rng.gen::<bool>(), TwoObjective)
            .config(config.clone())
            .checkpoint_every(every, |cp| {
                checkpoints.push(to_bytes(&cp));
                Ok(())
            })
            .run();
        prop_assert_eq!(reference.stop_reason, StopReason::Converged);
        prop_assert_eq!(reference.checkpoint_failures, 0);
        // Interrupt at every checkpoint the run produced (island runs
        // checkpoint only at epoch boundaries, so short runs may have
        // none — that is itself a valid outcome of the interval math).
        for (k, blob) in checkpoints.iter().enumerate() {
            let checkpoint = from_bytes(blob).expect("periodic checkpoint must parse");
            let resumed = EaBuilder::new(GENOME_LEN, |rng| rng.gen::<bool>(), TwoObjective)
                .config(config.clone())
                .resume_from(checkpoint)
                .run();
            assert_identical(
                &resumed,
                &reference,
                &format!("seed {seed} t{threads} cp{k}"),
            );
        }
    }

    #[test]
    fn resume_crosses_thread_counts(
        seed in 0u64..1_000,
        topology in arb_topology(),
        from_threads in arb_threads(),
        to_threads in arb_threads(),
    ) {
        // Checkpoint under one thread count, resume under another: the
        // trajectory must not notice (threads are excluded from the config
        // fingerprint by design).
        let mut checkpoints = Vec::new();
        let reference = EaBuilder::new(GENOME_LEN, |rng| rng.gen::<bool>(), TwoObjective)
            .config(config(seed, topology, from_threads, true))
            .checkpoint_every(2, |cp| {
                checkpoints.push(cp);
                Ok(())
            })
            .run();
        if let Some(checkpoint) = checkpoints.pop() {
            let resumed = EaBuilder::new(GENOME_LEN, |rng| rng.gen::<bool>(), TwoObjective)
                .config(config(seed, topology, to_threads, true))
                .resume_from(checkpoint)
                .run();
            assert_identical(
                &resumed,
                &reference,
                &format!("seed {seed} {from_threads}->{to_threads}"),
            );
        }
    }

    #[test]
    fn mvfitness_resume_preserves_scores_with_a_cold_cache(
        seed in 0u64..500,
        threads in arb_threads(),
    ) {
        // The paper's evaluator, through the trit byte codec. The shared
        // parent cache is rebuilt from scratch after a resume, so cache
        // counters are asserted self-consistent rather than equal.
        let set = TestSet::parse(&["110100XX", "110000XX", "11010000", "110X00XX"]).unwrap();
        let string = TestSetString::try_new(&set, 8).unwrap();
        let histogram = evotc::bits::BlockHistogram::from_string(&string);
        let bits = string.payload_bits() as f64;
        let ea_config = EaConfig::builder()
            .population_size(6)
            .children_per_generation(4)
            .stagnation_limit(8)
            .seed(seed)
            .threads(threads)
            .build();
        let sample = |rng: &mut rand::rngs::StdRng| Trit::from_index(rng.gen_range(0..3u8));
        let mut blobs = Vec::new();
        let reference = EaBuilder::new(8 * 4, sample, MvFitness::new(8, &histogram, bits))
            .config(ea_config.clone())
            .checkpoint_every(3, |cp| {
                blobs.push(trit_checkpoint_to_bytes(&cp));
                Ok(())
            })
            .run();
        for blob in &blobs {
            let checkpoint = trit_checkpoint_from_bytes(blob).expect("codec round trip");
            let resumed_from = checkpoint.generation;
            let resumed =
                EaBuilder::new(8 * 4, sample, MvFitness::new(8, &histogram, bits))
                    .config(ea_config.clone())
                    .resume_from(checkpoint)
                    .run();
            prop_assert_eq!(&resumed.best_genome, &reference.best_genome);
            prop_assert_eq!(
                resumed.best_fitness.to_bits(),
                reference.best_fitness.to_bits()
            );
            prop_assert_eq!(resumed.generations, reference.generations);
            prop_assert_eq!(resumed.evaluations, reference.evaluations);
            for (a, b) in resumed.history.iter().zip(&reference.history) {
                prop_assert_eq!(a.best_fitness.to_bits(), b.best_fitness.to_bits());
                prop_assert_eq!(a.evaluations, b.evaluations);
            }
            // Cache counters: observational, but never nonsensical — if
            // the resumed run evolved at all, it probed the cache or bred
            // copies, which take their parent's score without a lookup. (A
            // checkpoint taken on the terminating generation resumes
            // straight into the stop condition and evaluates nothing.)
            let cache = resumed.cache.expect("MvFitness reports cache stats");
            if resumed.generations > resumed_from {
                prop_assert!(cache.hits + cache.misses + cache.fallbacks + resumed.copies > 0);
            }
        }
    }
}

/// A round-trip of the checkpoint built by a run mid-flight must also
/// survive arbitrary single-byte corruption without panicking (the format's
/// own unit tests fuzz truncation; this exercises a *real* checkpoint).
#[test]
fn real_checkpoints_never_panic_on_corruption() {
    let mut checkpoints = Vec::new();
    EaBuilder::new(GENOME_LEN, |rng| rng.gen::<bool>(), TwoObjective)
        .config(config(3, Topology::Panmictic, 1, true))
        .checkpoint_every(4, |cp| {
            checkpoints.push(to_bytes(&cp));
            Ok(())
        })
        .run();
    let blob = checkpoints.swap_remove(0);
    for i in 0..blob.len() {
        let mut corrupt = blob.clone();
        corrupt[i] ^= 0xA5;
        let _ = from_bytes(&corrupt); // must not panic
    }
    for len in 0..blob.len() {
        assert!(from_bytes(&blob[..len]).is_err());
    }
}
