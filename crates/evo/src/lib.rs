//! A GAME-style evolutionary-algorithm engine.
//!
//! The DATE 2005 paper optimizes matching-vector sets with the GAME package
//! (Göckel/Drechsler/Becker, reference \[33\]); this crate re-implements the
//! algorithm of the paper's Figure 1:
//!
//! ```text
//! Generate random population (S individuals);
//! evaluate fitness of each individual;
//! repeat {
//!     Generate C children, using evolutionary operators;
//!     evaluate fitness of each child;
//!     New population := S individuals with best fitness;
//! } until (termination condition fulfilled);
//! return individual with best fitness;
//! ```
//!
//! Genomes are fixed-length strings over an arbitrary `Copy` gene type; the
//! caller supplies a gene sampler (for random initialization and mutation)
//! and a fitness evaluator — any [`FitnessEval`], which a plain
//! `Fn(&[G]) -> f64` closure satisfies. The three operators of the paper —
//! crossover, point mutation and inversion — are provided in [`operators`],
//! and the engine draws them with configurable probabilities.
//!
//! Fitness is evaluated in batches (the initial population, then each
//! generation's children), each in one [`FitnessEval::evaluate_batch`] call
//! on the thread that owns the population, with that population's own
//! evaluator state ([`FitnessEval::State`]). Runs can be structured as an
//! island model — subpopulations with deterministic ring migration — via
//! [`Topology`]; the `threads` knob on [`EaConfig`] (see [`parallel`])
//! spreads those islands over scoped worker threads and is the engine's
//! only parallelism, so a panmictic run always stays on the calling thread.
//! Thread count never changes results: runs are bit-identical for any value
//! of the knob, with either topology.
//!
//! Runs can also be multi-objective: an evaluator may report a minimized
//! [`Objectives`] vector per genome (see [`FitnessEval::evaluate_batch`]),
//! selection can rank lexicographically on it ([`Ranking::Lexicographic`]),
//! and the engine can collect the nondominated front of everything it
//! evaluated into a bounded [`ParetoArchive`], reported on
//! [`EaResult::pareto_front`] (`EaConfig::pareto_capacity`). The archive is
//! observational — enabling it never changes a trajectory — and the default
//! scalar ranking remains byte-identical to the single-objective engine.
//!
//! # Example
//!
//! ```
//! use evotc_evo::{EaBuilder, EaConfig};
//!
//! // Maximize the number of `true` genes (one-max).
//! let config = EaConfig::builder()
//!     .population_size(8)
//!     .children_per_generation(4)
//!     .stagnation_limit(50)
//!     .seed(1)
//!     .build();
//! let result = EaBuilder::new(32, |rng| rand::Rng::gen::<bool>(rng), |genes: &[bool]| {
//!     genes.iter().filter(|&&g| g).count() as f64
//! })
//! .config(config)
//! .run();
//! assert!(result.best_fitness >= 30.0);
//! ```
//!
//! For an island run, swap the config for
//! `EaConfig::builder().islands(4, 10, 2).build()` — 4 islands migrating
//! their 2 rank-best individuals along a ring every 10 generations. Its
//! [`EaResult::history`] holds one merged entry per generation, aggregated
//! over the islands.
//!
//! # Robustness
//!
//! Long runs survive interruption and faults:
//!
//! - **Checkpoint/resume** — [`EaBuilder::checkpoint_every`] hands its sink
//!   the full deterministic run state (per-island populations and Pareto
//!   archives of scored [`Individual`]s, RNG streams, the history, counters)
//!   as a versioned [`EaCheckpoint`]; [`EaBuilder::resume_from`] continues a run
//!   from any such snapshot with a byte-identical trajectory, at any thread
//!   count. [`checkpoint`] documents the serialized format.
//! - **Cooperative stopping** — a shared [`CancelToken`], a wall-clock
//!   [`EaConfigBuilder::deadline`], and the existing budget knobs all stop a
//!   run at a generation boundary with well-formed best-so-far state; the
//!   boundary that fired is reported as [`EaResult::stop_reason`].
//! - **Panic isolation** — island worker bodies run under `catch_unwind`,
//!   so a poisoned evaluator fails the run with a typed
//!   [`EaError::IslandFailed`] from [`EaBuilder::try_run`] instead of
//!   aborting the process or stalling the epoch barrier.
//! - **Fault injection** — the `failpoints` cargo feature compiles in the
//!   `failpoints` registry module, letting tests trigger those failure
//!   paths at deterministic points of a run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
mod config;
mod engine;
#[cfg(feature = "failpoints")]
pub mod failpoints;
mod fitness;
mod objective;
pub mod operators;
pub mod parallel;
mod stats;
mod supervisor;

pub use checkpoint::{
    config_fingerprint, CheckpointError, EaCheckpoint, IslandCheckpoint, CHECKPOINT_FORMAT_VERSION,
};
pub use config::{EaConfig, EaConfigBuilder, Ranking, Topology};
pub use engine::{EaBuilder, EaResult};
pub use fitness::{FitnessEval, Lineage, Provenance};
pub use objective::{Individual, Objectives, ParetoArchive};
pub use operators::GeneRange;
pub use stats::{evals_per_sec, CacheStats, GenerationStats};
pub use supervisor::{CancelToken, EaError, StopReason};
