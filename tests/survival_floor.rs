//! Trajectory identity under the survival floor.
//!
//! The default EA hands `MvFitness` a survival floor (the worst parent's
//! fitness), and the evaluator stops pricing a fallback child as soon as it
//! proves the child at or below it, reporting the floor instead. The same
//! run with a one-slot Pareto archive asks for objective vectors, so the
//! floor licenses no clipping and the kernel computes every side channel,
//! while the probe keeps the same coverings off the same floor. Both
//! runs must select the same individuals: the best genome, its fitness
//! bits, the generation and evaluation counts and every per-generation
//! history entry are identical, and so are the copy count and the cache
//! counters (coverings kept for likely survivors included), apart from the
//! pruned count. Each default run must prune, or the comparison would
//! prove nothing.

use evotc::bits::{BlockHistogram, TestSet, TestSetString, Trit};
use evotc::core::MvFitness;
use evotc::evo::{EaBuilder, EaConfig, EaResult};
use evotc::workloads::{atpg::stuck_at_tests, tables, workload_with_limit};
use rand::Rng;

/// The paper's Table 1 shape.
const K: usize = 12;
const L: usize = 64;

struct Workload {
    name: &'static str,
    histogram: BlockHistogram,
    bits: f64,
}

impl Workload {
    fn new(name: &'static str, set: &TestSet) -> Self {
        let string = TestSetString::try_new(set, K).expect("K=12 fits the set");
        Workload {
            name,
            histogram: BlockHistogram::from_string(&string),
            bits: string.payload_bits() as f64,
        }
    }

    /// A calibrated Table 1 set (the s953 row, capped at 8 kbit).
    fn table1() -> Self {
        let row = tables::stuck_at_row("s953").expect("s953 is a Table 1 row");
        let set = workload_with_limit(row.circuit, row.test_set_bits, row.rate_9c, 1, 1 << 13, 1);
        Workload::new("table1 s953", &set)
    }

    /// The stuck-at test set ATPG produces for the s208 stand-in.
    fn s208() -> Self {
        Workload::new("s208 stuck-at", &stuck_at_tests("s208"))
    }

    fn run(&self, config: EaConfig) -> EaResult<Trit> {
        EaBuilder::new(
            K * L,
            |rng| Trit::from_index(rng.gen_range(0..3u8)),
            MvFitness::new(K, &self.histogram, self.bits),
        )
        .config(config)
        .run()
    }
}

/// Runs `config` as given (floor on) and with `pareto_archive(1)` (floor
/// off), asserts the two trajectories are identical, and returns the
/// default run's pruned count.
fn floor_on_equals_floor_off(workload: &Workload, config: EaConfig, label: &str) -> u64 {
    let label = format!("{} {label}", workload.name);
    let floored = workload.run(config.clone());
    let reference = workload.run(EaConfig {
        pareto_capacity: 1,
        ..config
    });
    assert_eq!(floored.best_genome, reference.best_genome, "{label}");
    assert_eq!(
        floored.best_fitness.to_bits(),
        reference.best_fitness.to_bits(),
        "{label}"
    );
    assert_eq!(floored.generations, reference.generations, "{label}");
    assert_eq!(floored.evaluations, reference.evaluations, "{label}");
    assert_eq!(floored.history.len(), reference.history.len(), "{label}");
    for (a, b) in floored.history.iter().zip(&reference.history) {
        assert_eq!(a.generation, b.generation, "{label}");
        assert_eq!(
            a.best_fitness.to_bits(),
            b.best_fitness.to_bits(),
            "{label} gen {}",
            a.generation
        );
        assert_eq!(
            a.mean_fitness.to_bits(),
            b.mean_fitness.to_bits(),
            "{label} gen {}",
            a.generation
        );
        assert_eq!(a.evaluations, b.evaluations, "{label} gen {}", a.generation);
    }
    let (on, off) = (
        floored.cache.expect("MvFitness reports cache stats"),
        reference.cache.expect("MvFitness reports cache stats"),
    );
    assert_eq!(
        (on.hits, on.misses, on.kept, on.fallbacks),
        (off.hits, off.misses, off.kept, off.fallbacks),
        "{label}: the floor changed which children took which path"
    );
    assert_eq!(floored.copies, reference.copies, "{label}");
    assert_eq!(off.pruned, 0, "{label}: a run with objectives was pruned");
    assert!(
        on.pruned > 0,
        "{label}: nothing pruned, the check is vacuous"
    );
    on.pruned
}

/// Panmictic and `islands(3, 5, 1)` configs over three seeds at threads 1
/// and 2, each with `budget` applied.
fn sweep(workload: &Workload, budget: impl Fn(EaConfig) -> EaConfig) {
    for seed in [1, 2, 3] {
        for threads in [1, 2] {
            for islands in [false, true] {
                let builder = EaConfig::builder().seed(seed).threads(threads);
                let builder = if islands {
                    builder.islands(3, 5, 1)
                } else {
                    builder
                };
                let label = format!("seed {seed} threads {threads} islands {islands}");
                floor_on_equals_floor_off(workload, budget(builder.build()), &label);
            }
        }
    }
}

/// A short budget that still reaches the steady state where most children
/// fall back to the full kernel and are dropped.
fn short(config: EaConfig) -> EaConfig {
    EaConfig {
        stagnation_limit: usize::MAX,
        max_evaluations: 1_500,
        ..config
    }
}

#[test]
fn table1_set_trajectories_match_at_a_short_budget() {
    sweep(&Workload::table1(), short);
}

#[test]
fn s208_trajectories_match_at_a_short_budget() {
    sweep(&Workload::s208(), short);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only")]
fn table1_set_trajectories_match_at_the_paper_budget() {
    sweep(&Workload::table1(), |config| config);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release only")]
fn s208_trajectories_match_at_the_paper_budget() {
    sweep(&Workload::s208(), |config| config);
}
