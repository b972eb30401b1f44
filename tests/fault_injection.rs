//! The fault-injection harness (compile with `--features failpoints`).
//!
//! Each test arms a named failpoint (see `evotc::evo::failpoints::site`)
//! and drives a real EA run into the corresponding failure path at a
//! deterministic point:
//!
//! - an evaluator panic mid-batch must surface as a typed
//!   `EaError::IslandFailed` naming the failing island — never an abort,
//!   never a stalled epoch barrier;
//! - forced cache-probe mismatches (the detected-corruption answer) must
//!   shift counters, not scores;
//! - checkpoint-sink IO failures must be counted on the result while the
//!   run completes.
//!
//! The failpoint registry is process-global, so every test serializes on
//! one mutex and resets the registry when done. Evaluator-site hit counts
//! are one per batch, and island workers interleave their islands'
//! batches, so tests pin `threads(1)` wherever the n-th hit must land on a
//! specific island.
#![cfg(feature = "failpoints")]

use evotc::bits::{BlockHistogram, TestSet, TestSetString, Trit};
use evotc::core::MvFitness;
use evotc::evo::failpoints::{arm, hits, reset, site, FailSpec};
use evotc::evo::{EaBuilder, EaCheckpoint, EaConfig, EaError, EaResult, StopReason};
use rand::Rng;
use std::cell::RefCell;
use std::sync::{Mutex, MutexGuard};

fn gate() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    // A test that panicked while holding the gate poisons it; later tests
    // still need to run.
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

struct Fixture {
    histogram: BlockHistogram,
    bits: f64,
}

fn fixture() -> Fixture {
    let set = TestSet::parse(&["110100XX", "110000XX", "11010000", "110X00XX"]).unwrap();
    let string = TestSetString::try_new(&set, 8).unwrap();
    Fixture {
        histogram: BlockHistogram::from_string(&string),
        bits: string.payload_bits() as f64,
    }
}

fn sample(rng: &mut rand::rngs::StdRng) -> Trit {
    Trit::from_index(rng.gen_range(0..3u8))
}

fn island_config(threads: usize) -> EaConfig {
    EaConfig::builder()
        .population_size(6)
        .children_per_generation(4)
        .stagnation_limit(8)
        .islands(4, 2, 1)
        .threads(threads)
        .seed(5)
        .build()
}

#[test]
fn injected_evaluator_panic_is_a_typed_error_not_a_hang() {
    let _gate = gate();
    reset();
    let f = fixture();
    // Fire somewhere mid-run; with 4 worker threads the panicking island
    // must not stall the epoch barrier — the run returns (with an error)
    // rather than deadlocking.
    arm(site::CORE_EVALUATE, FailSpec::Nth(6));
    let err = EaBuilder::new(8 * 4, sample, MvFitness::new(8, true, &f.histogram, f.bits))
        .config(island_config(4))
        .try_run()
        .unwrap_err();
    let EaError::IslandFailed { message, .. } = err else {
        panic!("expected IslandFailed, got {err}");
    };
    assert_eq!(message, "injected evaluator fault");
    reset();
}

#[test]
fn injected_panic_names_the_failing_island_and_epoch() {
    let _gate = gate();
    reset();
    let f = fixture();
    // threads(1): the 4 island initializations take hits 1-4, then island
    // 0 runs its first epoch — hit 6 lands on its second generation, so
    // the run fails on island 0 at the generation-0 boundary.
    arm(site::CORE_EVALUATE, FailSpec::Nth(6));
    let err = EaBuilder::new(8 * 4, sample, MvFitness::new(8, true, &f.histogram, f.bits))
        .config(island_config(1))
        .try_run()
        .unwrap_err();
    assert_eq!(
        err,
        EaError::IslandFailed {
            island: 0,
            generation: 0,
            message: "injected evaluator fault".into(),
        }
    );
    reset();
}

#[test]
fn forced_cache_probe_mismatches_shift_counters_not_scores() {
    let _gate = gate();
    reset();
    let f = fixture();
    let config = EaConfig::builder()
        .population_size(6)
        .children_per_generation(4)
        .stagnation_limit(10)
        .threads(1)
        .seed(7)
        .build();
    let run = || {
        EaBuilder::new(8 * 4, sample, MvFitness::new(8, true, &f.histogram, f.bits))
            .config(config.clone())
            .run()
    };
    let clean: EaResult<Trit> = run();
    let clean_cache = clean.cache.expect("MvFitness reports cache stats");
    assert!(
        clean_cache.hits > 0,
        "fixture too small to exercise the cache"
    );

    // Every probe now reports "this entry does not match" — the corruption
    // detection path — so the evaluator must rebuild instead of patching.
    arm(site::CORE_CACHE_PROBE, FailSpec::Always);
    let corrupted = run();
    assert!(hits(site::CORE_CACHE_PROBE) > 0, "probe site never reached");
    let corrupted_cache = corrupted.cache.expect("MvFitness reports cache stats");

    // Scores and trajectory are byte-identical; only the counters moved.
    assert_eq!(corrupted.best_genome, clean.best_genome);
    assert_eq!(
        corrupted.best_fitness.to_bits(),
        clean.best_fitness.to_bits()
    );
    assert_eq!(corrupted.generations, clean.generations);
    assert_eq!(corrupted.evaluations, clean.evaluations);
    for (a, b) in corrupted.history.iter().zip(&clean.history) {
        assert_eq!(a.best_fitness.to_bits(), b.best_fitness.to_bits());
        assert_eq!(a.mean_fitness.to_bits(), b.mean_fitness.to_bits());
    }
    // Every lookup that reaches a probe now misses and rebuilds; the only
    // hits left come from the per-batch memo (an `Arc` the worker itself
    // just built, which never re-probes). So reuse drops and rebuilds rise.
    assert!(corrupted_cache.hits < clean_cache.hits);
    assert!(corrupted_cache.misses > clean_cache.misses);
    reset();
}

#[test]
fn injected_sink_failures_are_counted_while_the_run_completes() {
    let _gate = gate();
    reset();
    let f = fixture();
    let config = EaConfig::builder()
        .population_size(6)
        .children_per_generation(4)
        .stagnation_limit(10)
        .threads(1)
        .seed(3)
        .build();
    let saved = RefCell::new(0u64);
    arm(site::CHECKPOINT_SINK, FailSpec::Nth(1));
    let result = EaBuilder::new(8 * 4, sample, MvFitness::new(8, true, &f.histogram, f.bits))
        .config(config)
        .checkpoint_every(2, |_: &EaCheckpoint<Trit>| {
            *saved.borrow_mut() += 1;
            Ok(())
        })
        .run();
    assert_eq!(result.stop_reason, StopReason::Converged);
    assert_eq!(
        result.checkpoint_failures, 1,
        "exactly the injected failure"
    );
    assert!(
        *saved.borrow() > 0,
        "later checkpoints still reached the sink"
    );
    reset();
}

#[test]
fn determinism_survives_a_resume_cycle_under_injected_cache_faults() {
    let _gate = gate();
    reset();
    let f = fixture();
    let config = EaConfig::builder()
        .population_size(6)
        .children_per_generation(4)
        .stagnation_limit(10)
        .threads(2)
        .seed(11)
        .build();
    let clean = EaBuilder::new(8 * 4, sample, MvFitness::new(8, true, &f.histogram, f.bits))
        .config(config.clone())
        .run();

    // Now the full robustness gauntlet at once: every cache probe reports
    // corruption AND the run is interrupted at a periodic checkpoint and
    // resumed. The trajectory must still match the clean, uninterrupted run.
    arm(site::CORE_CACHE_PROBE, FailSpec::Always);
    let blobs = RefCell::new(Vec::new());
    EaBuilder::new(8 * 4, sample, MvFitness::new(8, true, &f.histogram, f.bits))
        .config(config.clone())
        .checkpoint_every(3, |cp: &EaCheckpoint<Trit>| {
            blobs
                .borrow_mut()
                .push(evotc::core::trit_checkpoint_to_bytes(cp));
            Ok(())
        })
        .run();
    let blobs = blobs.into_inner();
    assert!(!blobs.is_empty(), "run too short to checkpoint");
    for blob in &blobs {
        let checkpoint = evotc::core::trit_checkpoint_from_bytes(blob).unwrap();
        let resumed = EaBuilder::new(8 * 4, sample, MvFitness::new(8, true, &f.histogram, f.bits))
            .config(config.clone())
            .resume_from(checkpoint)
            .run();
        assert_eq!(resumed.best_genome, clean.best_genome);
        assert_eq!(resumed.best_fitness.to_bits(), clean.best_fitness.to_bits());
        assert_eq!(resumed.generations, clean.generations);
        assert_eq!(resumed.evaluations, clean.evaluations);
        for (a, b) in resumed.history.iter().zip(&clean.history) {
            assert_eq!(a.best_fitness.to_bits(), b.best_fitness.to_bits());
            assert_eq!(a.mean_fitness.to_bits(), b.mean_fitness.to_bits());
        }
    }
    reset();
}
