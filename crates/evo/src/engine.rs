//! The (S + C) evolutionary engine: one epoch loop for panmictic and
//! island-model runs.

use std::cmp::Ordering;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::checkpoint::{config_fingerprint, CheckpointError, EaCheckpoint, IslandCheckpoint};
use crate::config::{EaConfig, Ranking, Topology};
use crate::fitness::{FitnessEval, Lineage, Provenance};
use crate::objective::{Individual, Objectives, ParetoArchive};
use crate::operators;
use crate::parallel;
use crate::stats::GenerationStats;
use crate::supervisor::{CancelToken, EaError, StopReason};

/// A checkpoint consumer installed via [`EaBuilder::checkpoint_every`]: it
/// owns each capture. A sink failure is counted on
/// [`EaResult::checkpoint_failures`] and the run continues — losing a
/// checkpoint must never lose the run.
type CheckpointSink<'s, G> = Box<dyn FnMut(EaCheckpoint<G>) -> Result<(), CheckpointError> + 's>;

/// Composable builder for an evolutionary run over fixed-length genomes of
/// gene type `G`.
///
/// `sample_gene` draws a random gene (used for the initial population and by
/// the mutation operator); `fitness` is any [`FitnessEval`] — a plain
/// `Fn(&[G]) -> f64` closure works — that maps a genome to a score, higher
/// is better. A fitness is pure, so a child that equals a parent gene for
/// gene (`G: PartialEq`) is a copy: it takes that parent's score and
/// objective vector without an evaluation (see [`FitnessEval`] and
/// [`EaResult::copies`]).
///
/// Breeding emits each generation's children and their [`Lineage`] into a
/// pooled per-population batch (no per-child allocation in the steady
/// state), and the children that are not copies are scored in one
/// [`FitnessEval::evaluate_batch`] call on the thread that owns the
/// population. Island runs spread whole islands over up to
/// [`EaConfig::threads`] worker threads (see [`Topology`]); a panmictic run
/// is one island on the calling thread. Results are bit-identical for every
/// thread count.
///
/// # Example
///
/// ```
/// use evotc_evo::{EaBuilder, EaConfig};
///
/// // Maximize the number of `true` genes (one-max).
/// let config = EaConfig::builder()
///     .population_size(8)
///     .children_per_generation(4)
///     .stagnation_limit(50)
///     .seed(1)
///     .build();
/// let result = EaBuilder::new(32, |rng| rand::Rng::gen::<bool>(rng), |genes: &[bool]| {
///     genes.iter().filter(|&&g| g).count() as f64
/// })
/// .config(config)
/// .run();
/// assert!(result.best_fitness >= 30.0);
/// ```
///
/// # Island model
///
/// An island topology evolves `count` subpopulations concurrently, each on
/// its own deterministic RNG stream derived from the run seed, and migrates
/// the rank-best `migrants` of every island to its ring successor every
/// `interval` generations. Same seed + same topology ⇒ byte-identical
/// results at *any* thread count:
///
/// ```
/// use evotc_evo::{EaBuilder, EaConfig};
///
/// let config = EaConfig::builder()
///     .islands(4, 5, 2) // 4 islands, migrate 2 by rank every 5 generations
///     .stagnation_limit(20)
///     .seed(1)
///     .build();
/// let result = EaBuilder::new(32, |rng| rand::Rng::gen::<bool>(rng), |genes: &[bool]| {
///     genes.iter().filter(|&&g| g).count() as f64
/// })
/// .config(config)
/// .run();
/// assert_eq!(result.history.len() as u64, result.generations + 1);
/// assert!(result.best_fitness >= 30.0);
/// ```
pub struct EaBuilder<'s, G, SampleGene, F>
where
    SampleGene: Fn(&mut StdRng) -> G,
    F: FitnessEval<G>,
{
    config: EaConfig,
    genome_len: usize,
    sample_gene: SampleGene,
    fitness: F,
    seeds: Vec<Vec<G>>,
    cancel: CancelToken,
    checkpoint_every: u64,
    sink: Option<CheckpointSink<'s, G>>,
    resume: Option<EaCheckpoint<G>>,
}

/// Outcome of an EA run.
#[derive(Debug, Clone)]
pub struct EaResult<G> {
    /// The fittest genome found.
    pub best_genome: Vec<G>,
    /// Its fitness.
    pub best_fitness: f64,
    /// Number of generations executed (excluding the initial population).
    pub generations: u64,
    /// Total number of fitness evaluations (summed over islands): every
    /// child counts, copies included.
    pub evaluations: u64,
    /// Children that were copies of a parent and took its score without
    /// reaching the evaluator (summed over islands). A pure function of the
    /// trajectory, so the same at every thread count; a resumed run counts
    /// only the copies it bred itself.
    pub copies: u64,
    /// Merged statistics per generation (index 0 is the initial
    /// population): island runs aggregate their islands into one entry per
    /// generation.
    pub history: Vec<GenerationStats>,
    /// Wall-clock duration of the run (not part of the determinism
    /// contract).
    pub elapsed: Duration,
    /// Final evaluation-cache counters, when the fitness evaluator keeps a
    /// lineage cache (see [`FitnessEval::cache_stats`]). Observability only:
    /// they never change the result (see [`crate::CacheStats`]).
    pub cache: Option<crate::CacheStats>,
    /// The run's nondominated front over every evaluated genome, sorted by
    /// [`Objectives::lex_cmp`] and bounded by [`EaConfig::pareto_capacity`]
    /// (island runs merge their per-island archives in island order). Empty
    /// unless `pareto_capacity > 0`. Fully deterministic: same seed and
    /// config ⇒ byte-identical front at any thread count.
    pub pareto_front: Vec<Individual<G>>,
    /// Why the run stopped (see [`StopReason`]). The deterministic reasons
    /// are part of the determinism contract; [`StopReason::Deadline`] and
    /// [`StopReason::Cancelled`] depend on wall-clock but still come with
    /// well-formed best-so-far state.
    pub stop_reason: StopReason,
    /// Number of checkpoint captures whose sink returned an error (see
    /// [`EaBuilder::checkpoint_every`]). Sink failures never stop the run.
    pub checkpoint_failures: u64,
}

impl<G> EaResult<G> {
    /// Fitness-evaluation throughput of the whole run (evaluations per
    /// second). Returns `0.0` before any time has elapsed.
    pub fn evaluations_per_sec(&self) -> f64 {
        crate::stats::evals_per_sec(self.evaluations, self.elapsed)
    }
}

/// One generation's brood, bred into pooled buffers: the children to
/// score (`genomes`, `lineages`, `scores` and `objectives` are parallel
/// arrays), the copies with the scores they inherit, and the breeding order
/// of both. Everything is refilled each generation and retired gene buffers
/// return to `pool`, so steady-state breeding allocates nothing.
struct ChildBatch<G> {
    genomes: Vec<Vec<G>>,
    lineages: Vec<Option<Lineage>>,
    scores: Vec<f64>,
    objectives: Vec<Objectives>,
    copies: Vec<Individual<G>>,
    /// Per child in breeding order: whether it is the next of `copies`
    /// (otherwise the next of `genomes`).
    brood: Vec<bool>,
    pool: Vec<Vec<G>>,
}

impl<G> Default for ChildBatch<G> {
    fn default() -> Self {
        ChildBatch {
            genomes: Vec::new(),
            lineages: Vec::new(),
            scores: Vec::new(),
            objectives: Vec::new(),
            copies: Vec::new(),
            brood: Vec::new(),
            pool: Vec::new(),
        }
    }
}

impl<G> ChildBatch<G> {
    /// A gene buffer for the next child, recycled when one is free.
    fn buffer(&mut self) -> Vec<G> {
        self.pool.pop().unwrap_or_default()
    }

    /// Adds the next child in breeding order: a copy of `copy_of` takes that
    /// parent's score and objectives; any other child joins the batch the
    /// evaluator scores, with its lineage.
    fn push(&mut self, genes: Vec<G>, lineage: Lineage, copy_of: Option<&Individual<G>>) {
        self.brood.push(copy_of.is_some());
        match copy_of {
            Some(parent) => self.copies.push(Individual {
                genes,
                fitness: parent.fitness,
                objectives: parent.objectives,
            }),
            None => {
                self.genomes.push(genes);
                self.lineages.push(Some(lineage));
            }
        }
    }
}

/// Whether `a` and `b` differ at any position: a branch-free fold over each
/// run of [`DIFFER_RUN`] genes, stopping after the first run that differs.
/// On the near-identical genomes of a converged population that costs a
/// fraction of the early-exit slice `==`, and unrelated genomes stop after
/// one run.
fn differ<G: PartialEq>(a: &[G], b: &[G]) -> bool {
    a.chunks(DIFFER_RUN)
        .zip(b.chunks(DIFFER_RUN))
        .any(|(a, b)| {
            a.iter()
                .zip(b)
                .fold(false, |differs, (x, y)| differs | (x != y))
        })
}

/// Genes [`differ`] compares between two checks for an early exit.
const DIFFER_RUN: usize = 64;

/// Entries the run history starts with (2 KiB of [`GenerationStats`]; see
/// `EaBuilder::try_run`).
const HISTORY_START: usize = 64;

/// One subpopulation's complete evolutionary state. A panmictic run is one
/// of these on the calling thread; an island run owns `count` of them,
/// distributed over worker threads epoch by epoch. Everything an island
/// touches during an epoch lives here — the evaluator's per-island state
/// `S` included — which is what makes island parallelism deterministic by
/// construction.
struct IslandState<G, S> {
    rng: StdRng,
    population: Vec<Individual<G>>,
    batch: ChildBatch<G>,
    /// The evaluator's working state for this island (see
    /// [`FitnessEval::State`]): created with the island, dropped with it.
    eval_state: S,
    /// This island's own cumulative evaluation count.
    evaluations: u64,
    /// Children this island bred as copies since the run (or resume)
    /// started.
    copies: u64,
    /// Per-generation statistics of the epoch in flight (drained by the
    /// merge step between epochs).
    epoch_log: Vec<GenerationStats>,
    /// The island's own nondominated archive over everything it evaluated;
    /// `None` when the run has no Pareto mode. Purely observational — it
    /// never feeds back into breeding or selection.
    archive: Option<ParetoArchive<G>>,
}

impl<G, S> IslandState<G, S> {
    /// Logs the population's post-selection statistics for `generation`
    /// into the epoch log.
    fn log_generation(&mut self, generation: u64) {
        let population = &self.population;
        let best = population.first().map_or(f64::NEG_INFINITY, |i| i.fitness);
        let mean = population.iter().map(|i| i.fitness).sum::<f64>() / population.len() as f64;
        self.epoch_log.push(GenerationStats {
            generation,
            best_fitness: best,
            mean_fitness: mean,
            evaluations: self.evaluations,
        });
    }
}

impl<'s, G, SampleGene, F> EaBuilder<'s, G, SampleGene, F>
where
    G: Copy + PartialEq + Send + Sync,
    SampleGene: Fn(&mut StdRng) -> G + Sync,
    F: FitnessEval<G> + Sync,
{
    /// Starts a run description for genomes of length `genome_len` with the
    /// default [`EaConfig`] (the paper's settings).
    ///
    /// # Panics
    ///
    /// Panics if `genome_len` is zero.
    pub fn new(genome_len: usize, sample_gene: SampleGene, fitness: F) -> Self {
        assert!(genome_len > 0, "genome length must be positive");
        EaBuilder {
            config: EaConfig::default(),
            genome_len,
            sample_gene,
            fitness,
            seeds: Vec::new(),
            cancel: CancelToken::new(),
            checkpoint_every: 0,
            sink: None,
            resume: None,
        }
    }

    /// Replaces the run configuration (population sizes, operator
    /// probabilities, termination, seed, threads, topology).
    pub fn config(mut self, config: EaConfig) -> Self {
        self.config = config;
        self
    }

    /// Injects genomes into the initial population (e.g. the 9C matching-
    /// vector set, which the paper suggests seeding to rule out losses
    /// against the baseline on circuits like s838).
    ///
    /// At most `population_size` seeds are used; the rest of the initial
    /// population stays random. Island runs place the seeds on island 0.
    ///
    /// # Panics
    ///
    /// Panics if a seed genome has the wrong length.
    pub fn seed_population<I>(mut self, genomes: I) -> Self
    where
        I: IntoIterator<Item = Vec<G>>,
    {
        for g in genomes {
            assert_eq!(g.len(), self.genome_len, "seed genome length mismatch");
            self.seeds.push(g);
        }
        self
    }

    /// Installs a shared [`CancelToken`]: once any holder of a clone calls
    /// [`CancelToken::cancel`], the run finishes its current generation
    /// (epoch for island runs) and returns best-so-far state with
    /// [`StopReason::Cancelled`].
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// Captures an [`EaCheckpoint`] every `generations` generations and
    /// hands it to `sink`, which owns it from then on. Island runs capture
    /// at the first epoch boundary at which at least `generations`
    /// generations have passed since the last capture.
    ///
    /// The checkpoint is a point on the deterministic trajectory: feeding
    /// it to [`EaBuilder::resume_from`] on a fresh builder continues the
    /// run byte-identically to the uninterrupted one, at any thread count.
    /// A sink error is counted on [`EaResult::checkpoint_failures`] and the
    /// run continues — losing a checkpoint never loses the run.
    ///
    /// # Panics
    ///
    /// Panics if `generations` is zero.
    pub fn checkpoint_every(
        mut self,
        generations: u64,
        sink: impl FnMut(EaCheckpoint<G>) -> Result<(), CheckpointError> + 's,
    ) -> Self {
        assert!(generations > 0, "checkpoint interval must be positive");
        self.checkpoint_every = generations;
        self.sink = Some(Box::new(sink));
        self
    }

    /// Resumes a run from a checkpoint instead of a fresh population.
    ///
    /// The builder's config and genome length must fingerprint-match the
    /// checkpoint (same seed, topology, ranking, budgets, operator
    /// probabilities — everything deterministic; `threads` and `deadline`
    /// may differ), or the run fails with [`EaError::InvalidCheckpoint`].
    /// The checkpoint's history is the prefix of [`EaResult::history`];
    /// population seeds from [`EaBuilder::seed_population`] are ignored —
    /// the checkpointed populations already embody them.
    pub fn resume_from(mut self, checkpoint: EaCheckpoint<G>) -> Self {
        self.resume = Some(checkpoint);
        self
    }

    /// Runs the algorithm to termination and returns the best individual.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`EaConfig`]) or the run
    /// fails (see [`EaBuilder::try_run`] for the non-panicking variant).
    pub fn run(self) -> EaResult<G> {
        match self.try_run() {
            Ok(result) => result,
            Err(err) => panic!("EA run failed: {err}"),
        }
    }

    /// Like [`EaBuilder::run`], but run failures — an island worker panic,
    /// an invalid resume checkpoint — come back as a typed [`EaError`]
    /// instead of a panic. Worker panics are contained with `catch_unwind`,
    /// so a poisoned evaluator never aborts the process and never stalls the
    /// epoch barrier; the run fails with [`EaError::IslandFailed`] naming
    /// the lowest-indexed island that panicked.
    ///
    /// Both topologies run through one epoch loop: `count` subpopulations
    /// evolve in lockstep epochs of `interval` generations, then the
    /// rank-best `migrants` of each island replace the worst of its ring
    /// successor. A panmictic run is the special case of one island on the
    /// run seed's own RNG stream, with epochs of one generation and no
    /// migration. Each island owns an RNG stream derived from the run seed,
    /// so the trajectory is a pure function of (seed, topology, config) —
    /// worker threads only decide which islands run concurrently, never
    /// what they compute.
    ///
    /// Termination (stagnation of the merged best, the evaluation budget,
    /// the generation cap, the deadline, cancellation) is checked at epoch
    /// boundaries; an island run can overshoot the stagnation limit or the
    /// budget by up to one epoch. Checkpoints are captured at epoch
    /// boundaries too, so a capture always reflects complete generations.
    ///
    /// # Panics
    ///
    /// Panics only if the configuration itself is invalid (a programming
    /// error, see [`EaConfig`]) — never for runtime failures.
    pub fn try_run(self) -> Result<EaResult<G>, EaError> {
        self.config.validate();
        let start = Instant::now();
        let panmictic = self.config.topology == Topology::Panmictic;
        let (count, interval, migrants) = match self.config.topology {
            Topology::Panmictic => (1, 1, 0),
            Topology::Islands {
                count,
                interval,
                migrants,
            } => (count, interval, migrants),
        };
        // One island never fans out, so a panmictic run skips resolving the
        // thread count (auto resolution reads the host's CPU quota).
        let workers = if count > 1 {
            parallel::resolve_threads(self.config.threads).min(count)
        } else {
            1
        };
        let EaBuilder {
            config,
            genome_len,
            sample_gene,
            fitness,
            mut seeds,
            cancel,
            checkpoint_every,
            mut sink,
            resume,
        } = self;
        let fingerprint = config_fingerprint(&config, genome_len);

        // The history gains an entry every generation, for thousands of
        // generations. A vector grows by reallocation inside the allocator
        // arena its first block came from, and glibc serves small blocks
        // (up to 1032 bytes) from a per-thread cache that also holds blocks
        // of other threads' arenas: a caller that frees what its worker
        // threads allocated would grow the history in a worker's arena,
        // which keeps the memory once the run is over. A first block past
        // that size comes from the calling thread's own arena.
        let mut history: Vec<GenerationStats> = Vec::with_capacity(HISTORY_START);
        let mut islands: Vec<IslandState<G, F::State>>;
        let mut best_so_far: f64;
        let mut stagnant: usize;
        let mut generation: u64;
        let mut total_evals: u64;

        if let Some(cp) = resume {
            validate_checkpoint(&cp, &config, genome_len, count)?;
            islands = cp
                .islands
                .into_iter()
                .map(|island| restore_island(island, &config))
                .collect();
            history = cp.history;
            best_so_far = cp.best_so_far;
            stagnant = cp.stagnant as usize;
            generation = cp.generation;
            total_evals = islands.iter().map(|i| i.evaluations).sum();
        } else {
            // Deterministic initialization: each island's RNG (and
            // therefore its random initial population) comes from its own
            // seed, computed here in island order. Seeds go to island 0.
            islands = Vec::with_capacity(count);
            for i in 0..count {
                let seed = if panmictic {
                    config.seed
                } else {
                    island_seed(config.seed, i as u64)
                };
                let mut island_seeds = if i == 0 {
                    std::mem::take(&mut seeds)
                } else {
                    Vec::new()
                };
                match catch_unwind(AssertUnwindSafe(|| {
                    init_island(
                        &config,
                        StdRng::seed_from_u64(seed),
                        genome_len,
                        &mut island_seeds,
                        &sample_gene,
                        &fitness,
                    )
                })) {
                    Ok(island) => islands.push(island),
                    Err(payload) => {
                        return Err(EaError::IslandFailed {
                            island: i,
                            generation: 0,
                            message: panic_message(payload),
                        })
                    }
                }
            }

            // Initial populations (generation 0).
            for island in islands.iter_mut() {
                island.log_generation(0);
            }
            merge(&mut islands, &mut history);

            best_so_far = history[0].best_fitness;
            stagnant = 0;
            generation = 0;
            total_evals = history[0].evaluations;
        }

        let mut checkpoint_failures: u64 = 0;
        let mut last_checkpoint = generation;

        let stop_reason = loop {
            if let Some(reason) =
                stop_reason_at(&config, &cancel, start, stagnant, total_evals, generation)
            {
                break reason;
            }
            let epoch_gens = interval.min(config.max_generations - generation);
            let failure = for_each_island(&mut islands, workers, |island| {
                for g in 0..epoch_gens {
                    step(&config, &sample_gene, &fitness, island);
                    island.log_generation(generation + g + 1);
                }
            });
            if let Some((island, message)) = failure {
                return Err(EaError::IslandFailed {
                    island,
                    generation,
                    message,
                });
            }
            let merged_from = history.len();
            merge(&mut islands, &mut history);
            for merged in &history[merged_from..] {
                if merged.best_fitness > best_so_far {
                    best_so_far = merged.best_fitness;
                    stagnant = 0;
                } else {
                    stagnant += 1;
                }
            }
            generation += epoch_gens;
            total_evals = islands.iter().map(|i| i.evaluations).sum();

            // Migrate only between epochs: a run that terminates here (cap,
            // budget, or stagnation) never performs a trailing exchange, so
            // an interval beyond the generation cap really means "never".
            let continuing = stagnant < config.stagnation_limit
                && total_evals < config.max_evaluations
                && generation < config.max_generations;
            if continuing {
                migrate(&fitness, &mut islands, migrants, config.ranking);
            }

            // Checkpoint at the epoch boundary, after migration: the
            // captured state is exactly what the next epoch starts from.
            if checkpoint_every > 0 && generation - last_checkpoint >= checkpoint_every {
                last_checkpoint = generation;
                save_checkpoint(&mut sink, &mut checkpoint_failures, || EaCheckpoint {
                    config_fingerprint: fingerprint,
                    genome_len,
                    generation,
                    stagnant: stagnant as u64,
                    best_so_far,
                    history: history.clone(),
                    islands: islands.iter().map(capture_island).collect(),
                });
            }
        };

        // Best individual across islands, by the run's ranking; island
        // order breaks exact ties, so the pick is deterministic.
        let best_island = (1..islands.len()).fold(0, |best, i| {
            let better = match config.ranking {
                Ranking::Fitness => {
                    islands[i].population[0].fitness > islands[best].population[0].fitness
                }
                Ranking::Lexicographic => {
                    islands[i].population[0]
                        .objectives
                        .lex_cmp(&islands[best].population[0].objectives)
                        == Ordering::Less
                }
            };
            if better {
                i
            } else {
                best
            }
        });
        // The run's front: the island archives merged in island order (the
        // merge re-runs nondomination, so the result is the exact front of
        // the union and independent of which island found a point first).
        let pareto_front = if config.pareto_capacity > 0 {
            let mut merged = ParetoArchive::new(config.pareto_capacity);
            for archive in islands.iter().filter_map(|island| island.archive.as_ref()) {
                merged.merge_from(archive);
            }
            merged.reported().to_vec()
        } else {
            Vec::new()
        };
        let best = &islands[best_island].population[0];
        Ok(EaResult {
            best_genome: best.genes.clone(),
            best_fitness: best.fitness,
            generations: generation,
            evaluations: total_evals,
            copies: islands.iter().map(|i| i.copies).sum(),
            history,
            elapsed: start.elapsed(),
            cache: fitness.cache_stats(),
            pareto_front,
            stop_reason,
            checkpoint_failures,
        })
    }
}

/// Merges the islands' epoch logs into `history`, one entry per logged
/// generation, and clears the logs. Every island logs the same generations
/// each epoch. An entry is seeded from island 0, so a single island's
/// statistics pass through bit for bit; it then takes the best of the
/// islands' bests, the mean of their means and the sum of their cumulative
/// evaluation counts.
fn merge<G, S>(islands: &mut [IslandState<G, S>], history: &mut Vec<GenerationStats>) {
    for g in 0..islands[0].epoch_log.len() {
        let mut merged = islands[0].epoch_log[g];
        for stats in islands[1..].iter().map(|island| &island.epoch_log[g]) {
            debug_assert_eq!(stats.generation, merged.generation);
            merged.best_fitness = merged.best_fitness.max(stats.best_fitness);
            merged.mean_fitness += stats.mean_fitness;
            merged.evaluations += stats.evaluations;
        }
        merged.mean_fitness /= islands.len() as f64;
        history.push(merged);
    }
    for island in islands.iter_mut() {
        island.epoch_log.clear();
    }
}

/// Derives island `i`'s RNG seed from the run seed: a splitmix64-style
/// mix, so islands get decorrelated streams and island 0 does not alias
/// the panmictic stream of the same seed.
fn island_seed(seed: u64, island: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(island.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Whether a run has to collect objective vectors from the evaluator:
/// selection ranks on them, or the Pareto archive records them. Scalar runs
/// skip the objective path entirely, which is what keeps their trajectories
/// byte-identical to the pre-multi-objective engine.
fn needs_objectives(config: &EaConfig) -> bool {
    config.ranking == Ranking::Lexicographic || config.pareto_capacity > 0
}

/// Stringifies a `catch_unwind` payload for [`EaError::IslandFailed`].
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The single stop check, evaluated at every epoch boundary (every
/// generation for panmictic runs). Conditions are checked in [`StopReason`]
/// declaration order, so the deterministic reasons always win over the
/// wall-clock ones when both hold at the same boundary.
fn stop_reason_at(
    config: &EaConfig,
    cancel: &CancelToken,
    start: Instant,
    stagnant: usize,
    evaluations: u64,
    generation: u64,
) -> Option<StopReason> {
    if stagnant >= config.stagnation_limit {
        Some(StopReason::Converged)
    } else if evaluations >= config.max_evaluations {
        Some(StopReason::EvaluationBudget)
    } else if generation >= config.max_generations {
        Some(StopReason::GenerationCap)
    } else if config.deadline.is_some_and(|d| start.elapsed() >= d) {
        Some(StopReason::Deadline)
    } else if cancel.is_cancelled() {
        Some(StopReason::Cancelled)
    } else {
        None
    }
}

/// Checks that a checkpoint can resume *this* run: same deterministic
/// config (by fingerprint), same genome length, the topology's island
/// count, internally consistent shapes, and RNG states the generator can
/// leave (zero is its fixed point).
fn validate_checkpoint<G>(
    cp: &EaCheckpoint<G>,
    config: &EaConfig,
    genome_len: usize,
    expected_islands: usize,
) -> Result<(), CheckpointError> {
    if cp.config_fingerprint != config_fingerprint(config, genome_len) {
        return Err(CheckpointError::ConfigMismatch);
    }
    if cp.genome_len != genome_len {
        return Err(CheckpointError::Malformed("genome length mismatch"));
    }
    if cp.islands.len() != expected_islands {
        return Err(CheckpointError::Malformed("island count mismatch"));
    }
    if cp.history.len() as u64 != cp.generation + 1 {
        return Err(CheckpointError::Malformed("history length mismatch"));
    }
    for island in &cp.islands {
        if island.rng_state == [0; 4] {
            return Err(CheckpointError::Malformed("all-zero RNG state"));
        }
        if island.population.len() != config.population_size {
            return Err(CheckpointError::Malformed("population size mismatch"));
        }
        if island
            .population
            .iter()
            .chain(&island.archive)
            .any(|m| m.genes.len() != genome_len)
        {
            return Err(CheckpointError::Malformed("member genome length mismatch"));
        }
    }
    Ok(())
}

/// Rehydrates one island from its checkpoint: exact RNG state, the sorted
/// population with its cached scores and objective vectors, the archive
/// (reinserting a stored front reproduces it exactly — the front is a pure
/// function of the inserted set), and the cumulative evaluation counter.
fn restore_island<G: Clone, S: Default>(
    cp: IslandCheckpoint<G>,
    config: &EaConfig,
) -> IslandState<G, S> {
    IslandState {
        rng: StdRng::from_state(cp.rng_state),
        population: cp.population,
        batch: ChildBatch::default(),
        eval_state: S::default(),
        evaluations: cp.evaluations,
        copies: 0,
        epoch_log: Vec::new(),
        archive: (config.pareto_capacity > 0)
            .then(|| ParetoArchive::from_points(config.pareto_capacity, &cp.archive)),
    }
}

/// Snapshots one island into checkpoint form. The archive section stores
/// the *full* retained front ([`ParetoArchive::points`]), not the
/// capacity-bounded reported prefix, so restoring loses nothing.
fn capture_island<G: Clone, S>(island: &IslandState<G, S>) -> IslandCheckpoint<G> {
    IslandCheckpoint {
        rng_state: island.rng.to_state(),
        evaluations: island.evaluations,
        population: island.population.clone(),
        archive: island
            .archive
            .as_ref()
            .map_or_else(Vec::new, |archive| archive.points().to_vec()),
    }
}

/// Builds a checkpoint and hands it to the sink, counting (never
/// propagating) sink failures: a flaky checkpoint store must not kill an
/// otherwise healthy run. The checkpoint is only built when a sink is
/// installed.
fn save_checkpoint<G: Copy>(
    sink: &mut Option<CheckpointSink<'_, G>>,
    failures: &mut u64,
    build: impl FnOnce() -> EaCheckpoint<G>,
) {
    let Some(sink) = sink.as_mut() else {
        return;
    };
    #[cfg(feature = "failpoints")]
    if crate::failpoints::hit(crate::failpoints::site::CHECKPOINT_SINK) {
        *failures += 1;
        return;
    }
    if sink(build()).is_err() {
        *failures += 1;
    }
}

/// Builds and scores one initial population: injected seeds first, then
/// random individuals drawn from the island's own RNG. The island's
/// evaluator state starts fresh here.
fn init_island<G, SampleGene, F>(
    config: &EaConfig,
    mut rng: StdRng,
    genome_len: usize,
    seeds: &mut Vec<Vec<G>>,
    sample_gene: &SampleGene,
    fitness: &F,
) -> IslandState<G, F::State>
where
    G: Copy,
    SampleGene: Fn(&mut StdRng) -> G,
    F: FitnessEval<G>,
{
    let s = config.population_size;
    let mut batch = ChildBatch::default();
    let mut eval_state = F::State::default();
    let mut genomes: Vec<Vec<G>> = seeds.drain(..).take(s).collect();
    while genomes.len() < s {
        genomes.push((0..genome_len).map(|_| sample_gene(&mut rng)).collect());
    }
    score_batch(
        config,
        fitness,
        &mut eval_state,
        &genomes,
        None,
        &mut batch.scores,
        &mut batch.objectives,
    );
    let mut population: Vec<Individual<G>> = genomes
        .into_iter()
        .zip(batch.scores.iter().copied())
        .zip(batch.objectives.iter().copied())
        .map(|((genes, fitness), objectives)| Individual {
            genes,
            fitness,
            objectives,
        })
        .collect();
    let evaluations = population.len() as u64;
    sort_population(&mut population, config.ranking);
    let mut archive =
        (config.pareto_capacity > 0).then(|| ParetoArchive::new(config.pareto_capacity));
    if let Some(archive) = archive.as_mut() {
        for ind in &population {
            archive.insert(&ind.genes, ind.fitness, ind.objectives);
        }
    }
    IslandState {
        rng,
        population,
        batch,
        eval_state,
        evaluations,
        copies: 0,
        epoch_log: Vec::new(),
        archive,
    }
}

/// Scores `genomes` into reusable `scores` and `objectives` buffers with
/// one evaluator call. Objective vectors are requested only when the run
/// needs them (see [`needs_objectives`]); otherwise each score is embedded
/// via [`Objectives::from_fitness`].
fn score_batch<G, F: FitnessEval<G>>(
    config: &EaConfig,
    fitness: &F,
    state: &mut F::State,
    genomes: &[Vec<G>],
    provenance: Option<Provenance<'_, G>>,
    scores: &mut Vec<f64>,
    objectives: &mut Vec<Objectives>,
) {
    // NaN prefills rank last if an override leaves a slot unwritten.
    scores.clear();
    scores.resize(genomes.len(), f64::NAN);
    objectives.clear();
    if needs_objectives(config) {
        objectives.resize(genomes.len(), Objectives::NAN);
        fitness.evaluate_batch(state, genomes, provenance, scores, Some(objectives));
    } else {
        fitness.evaluate_batch(state, genomes, provenance, scores, None);
        objectives.extend(scores.iter().map(|&s| Objectives::from_fitness(s)));
    }
}

/// One (S + C) generation: breed `C` children with their lineage into the
/// island's pooled batch, score the ones that are not copies of a parent
/// in one call, then truncation-select the best `S` from the parents and
/// every child in breeding order. Losers donate their gene buffers back to
/// the pool.
fn step<G, SampleGene, F>(
    config: &EaConfig,
    sample_gene: &SampleGene,
    fitness: &F,
    island: &mut IslandState<G, F::State>,
) where
    G: Copy + PartialEq,
    SampleGene: Fn(&mut StdRng) -> G,
    F: FitnessEval<G>,
{
    let s = config.population_size;
    let c = config.children_per_generation;
    let IslandState {
        rng,
        population,
        batch,
        eval_state,
        evaluations,
        copies,
        archive,
        ..
    } = island;

    batch.genomes.clear();
    batch.lineages.clear();
    batch.brood.clear();
    while batch.brood.len() < c {
        let roll: f64 = rng.gen();
        let pa = rng.gen_range(0..s);
        if roll < config.crossover_probability {
            let pb = rng.gen_range(0..s);
            let mut x = batch.buffer();
            let mut y = batch.buffer();
            let (a, b) = (&population[pa], &population[pb]);
            let window = operators::crossover_into(&a.genes, &b.genes, rng, &mut x, &mut y);
            // Per-child edit contract: both children record the *same*
            // swapped window, and that is correct for each — child `x`
            // equals `pa` outside the window and `pb` inside it (child `y`
            // is the mirror image), so the window bounds every position
            // where a child can differ from its primary parent. The genes
            // that *actually* changed are only those where the parents
            // disagree inside the window; lineage deliberately does not
            // narrow to them — evaluators diff at their own patch
            // granularity (e.g. per MV chunk), which subsumes any
            // per-child trimming here. The window-content donor is
            // recorded as the second parent so an evaluator holding only
            // *its* partial results can still price the child (see
            // [`Lineage::second_parent`]).
            //
            // Where the parents agree inside the window both children are
            // copies of their primary parents, whatever lies outside it;
            // where they agree only outside it, each child is a copy of its
            // donor.
            let inside = differ(&a.genes[window.clone()], &b.genes[window.clone()]);
            let outside = inside
                && (differ(&a.genes[..window.start], &b.genes[..window.start])
                    || differ(&a.genes[window.end..], &b.genes[window.end..]));
            let copy_of = |own, donor| match (inside, outside) {
                (false, _) => Some(own),
                (true, false) => Some(donor),
                (true, true) => None,
            };
            batch.push(x, Lineage::crossover(pa, window.clone(), pb), copy_of(a, b));
            if batch.brood.len() < c {
                batch.push(y, Lineage::crossover(pb, window, pa), copy_of(b, a));
            } else {
                batch.pool.push(y);
            }
        } else {
            // Mutation, inversion and reproduction edit one parent inside
            // the returned window; the child is a copy when the window reads
            // the same as the parent's (always for reproduction, whose empty
            // window says the child is a verbatim copy).
            let parent = &population[pa];
            let mut child = batch.buffer();
            let edit = if roll < config.crossover_probability + config.mutation_probability {
                operators::mutate_into(&parent.genes, rng, |r| sample_gene(r), &mut child)
            } else if roll
                < config.crossover_probability
                    + config.mutation_probability
                    + config.inversion_probability
            {
                operators::invert_into(&parent.genes, rng, &mut child)
            } else {
                child.clear();
                child.extend_from_slice(&parent.genes);
                0..0
            };
            let copy = !differ(&child[edit.clone()], &parent.genes[edit.clone()]);
            batch.push(child, Lineage::new(pa, edit), copy.then_some(parent));
        }
    }
    *evaluations += c as u64;
    *copies += batch.copies.len() as u64;
    if !batch.genomes.is_empty() {
        let parent_genes: Vec<&[G]> = population.iter().map(|i| i.genes.as_slice()).collect();
        let provenance = Provenance {
            lineage: &batch.lineages,
            parents: &parent_genes,
            floor: survival_floor(config, population),
        };
        score_batch(
            config,
            fitness,
            eval_state,
            &batch.genomes,
            Some(provenance),
            &mut batch.scores,
            &mut batch.objectives,
        );
    }
    // The children rejoin in breeding order, which the stable selection
    // sort uses to break ties.
    let mut scored = batch
        .genomes
        .drain(..)
        .zip(batch.scores.iter().copied())
        .zip(batch.objectives.iter().copied());
    let mut copied = batch.copies.drain(..);
    for &is_copy in &batch.brood {
        let child = if is_copy {
            copied.next()
        } else {
            scored
                .next()
                .map(|((genes, fitness), objectives)| Individual {
                    genes,
                    fitness,
                    objectives,
                })
        };
        population.push(child.expect("one child per brood slot"));
    }
    if let Some(archive) = archive.as_mut() {
        for child in &population[s..] {
            archive.insert(&child.genes, child.fitness, child.objectives);
        }
    }
    sort_population(population, config.ranking);
    batch
        .pool
        .extend(population.drain(s..).map(|individual| individual.genes));
}

/// The batch's survival floor (see [`Provenance::floor`]): the worst
/// parent's fitness when the run ranks by fitness and no parent is NaN (NaN
/// compares equal to everything in [`sort_by_fitness`], so no score is then
/// sure to be dropped).
fn survival_floor<G>(config: &EaConfig, population: &[Individual<G>]) -> Option<f64> {
    if config.ranking != Ranking::Fitness {
        return None;
    }
    population.iter().try_fold(f64::INFINITY, |worst, ind| {
        (!ind.fitness.is_nan()).then(|| worst.min(ind.fitness))
    })
}

/// Ring migration: the rank-best `migrants` of island `i` (post-selection,
/// so exactly its current elite) replace the worst `migrants` of island
/// `i + 1` (mod `count`). Emigrants are snapshotted before any island is
/// modified — migration is simultaneous, not sequential — and they carry
/// their fitness and objective vector (both pure functions of the genome),
/// so migration costs no evaluations. Rank — and therefore which
/// individuals count as "best" — follows the run's [`Ranking`], so
/// lexicographic runs migrate their lexicographic elite. No-op for a
/// single island or `migrants == 0`. Every migrant is handed to
/// [`FitnessEval::migrate`] with its source and destination island states,
/// in ring order.
fn migrate<G: Copy, F: FitnessEval<G>>(
    fitness: &F,
    islands: &mut [IslandState<G, F::State>],
    migrants: usize,
    ranking: Ranking,
) {
    let count = islands.len();
    if count < 2 || migrants == 0 {
        return;
    }
    let s = islands[0].population.len();
    let m = migrants.min(s);
    let outbound: Vec<Vec<Individual<G>>> = islands
        .iter()
        .map(|island| island.population[..m].to_vec())
        .collect();
    for dst in 0..count {
        let src = (dst + count - 1) % count;
        // Ring neighbours are distinct islands; the source state is moved
        // out for the call so both states can be borrowed mutably.
        let mut from = std::mem::take(&mut islands[src].eval_state);
        for migrant in &outbound[src] {
            fitness.migrate(&migrant.genes, &mut from, &mut islands[dst].eval_state);
        }
        islands[src].eval_state = from;
        let island = &mut islands[dst];
        for (slot, migrant) in island.population[s - m..].iter_mut().zip(&outbound[src]) {
            slot.genes.clone_from(&migrant.genes);
            slot.fitness = migrant.fitness;
            slot.objectives = migrant.objectives;
        }
        sort_population(&mut island.population, ranking);
    }
}

/// Runs `f` once per island, distributing contiguous island chunks over at
/// most `workers` scoped threads — the engine's only fan-out. Each island
/// is touched by exactly one thread and owns all of its state, so the
/// result is independent of the worker count. With one worker or one
/// island (every panmictic run) the bodies run in order on the calling
/// thread.
///
/// Each island body runs under `catch_unwind`: a panicking island never
/// takes down its worker thread and never stalls the epoch barrier — the
/// scope join always completes. A chunk stops at its first panicking
/// island; the lowest-indexed one comes back with its panic message.
fn for_each_island<G, S, FN>(
    islands: &mut [IslandState<G, S>],
    workers: usize,
    f: FN,
) -> Option<(usize, String)>
where
    G: Send,
    S: Send,
    FN: Fn(&mut IslandState<G, S>) + Sync,
{
    let run_chunk = |first: usize, chunk: &mut [IslandState<G, S>]| {
        chunk.iter_mut().enumerate().find_map(|(i, island)| {
            catch_unwind(AssertUnwindSafe(|| f(island)))
                .err()
                .map(|payload| (first + i, panic_message(payload)))
        })
    };
    if workers <= 1 || islands.len() <= 1 {
        return run_chunk(0, islands);
    }
    let per = islands.len().div_ceil(workers);
    std::thread::scope(|scope| {
        let chunks: Vec<_> = islands
            .chunks_mut(per)
            .enumerate()
            .map(|(c, chunk)| {
                let run_chunk = &run_chunk;
                scope.spawn(move || run_chunk(c * per, chunk))
            })
            .collect();
        chunks
            .into_iter()
            .find_map(|chunk| chunk.join().expect("island bodies contain their panics"))
    })
}

fn sort_by_fitness<G>(population: &mut [Individual<G>]) {
    // Descending fitness; NaN sorts last. Stable sort keeps elders ahead of
    // equally fit children, making runs reproducible.
    population.sort_by(|a, b| {
        b.fitness
            .partial_cmp(&a.fitness)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
}

/// Ranks a population for truncation selection. The scalar arm is the
/// pre-multi-objective sort, untouched, so scalar runs stay byte-identical;
/// the lexicographic arm orders ascending by objective vector (stable, so
/// elders stay ahead of equally ranked children here too).
fn sort_population<G>(population: &mut [Individual<G>], ranking: Ranking) {
    match ranking {
        Ranking::Fitness => sort_by_fitness(population),
        Ranking::Lexicographic => {
            population.sort_by(|a, b| a.objectives.lex_cmp(&b.objectives));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_max_config(stagnation: usize, seed: u64) -> EaConfig {
        EaConfig::builder()
            .population_size(10)
            .children_per_generation(5)
            .stagnation_limit(stagnation)
            .seed(seed)
            .build()
    }

    fn one_max(genes: &[bool]) -> f64 {
        genes.iter().filter(|&&g| g).count() as f64
    }

    fn run_one_max(seed: u64) -> EaResult<bool> {
        EaBuilder::new(24, |rng| rng.gen::<bool>(), one_max)
            .config(one_max_config(100, seed))
            .run()
    }

    #[test]
    fn solves_one_max() {
        let result = run_one_max(1);
        assert!(
            result.best_fitness >= 22.0,
            "one-max only reached {}",
            result.best_fitness
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run_one_max(7);
        let b = run_one_max(7);
        assert_eq!(a.best_genome, b.best_genome);
        assert_eq!(a.evaluations, b.evaluations);
    }

    #[test]
    fn different_seeds_diverge() {
        let a = run_one_max(1);
        let b = run_one_max(2);
        // Either the genomes or the trajectories differ. `elapsed` differs
        // between any two runs, so compare only the deterministic fields.
        let trajectory = |r: &EaResult<bool>| {
            r.history
                .iter()
                .map(|s| (s.generation, s.best_fitness.to_bits(), s.evaluations))
                .collect::<Vec<_>>()
        };
        assert!(a.best_genome != b.best_genome || trajectory(&a) != trajectory(&b));
    }

    #[test]
    fn thread_count_never_changes_the_trajectory() {
        let run = |threads: usize| {
            let config = EaConfig::builder()
                .population_size(10)
                .children_per_generation(5)
                .stagnation_limit(40)
                .seed(9)
                .threads(threads)
                .build();
            EaBuilder::new(24, |rng| rng.gen::<bool>(), one_max)
                .config(config)
                .run()
        };
        let reference = run(1);
        for threads in [2, 3, 8] {
            let other = run(threads);
            assert_eq!(other.best_genome, reference.best_genome, "t={threads}");
            assert_eq!(other.best_fitness, reference.best_fitness);
            assert_eq!(other.generations, reference.generations);
            assert_eq!(other.evaluations, reference.evaluations);
        }
    }

    #[test]
    fn batch_evaluator_sees_each_generations_children_that_are_not_copies() {
        // Records every batch call's length and thread: even with four
        // threads allowed, a panmictic run must score S genomes first, then
        // each generation's children that are not copies, each batch in one
        // call on the calling thread. A generation of copies alone makes no
        // call.
        struct Recording<'a>(&'a std::sync::Mutex<Vec<(usize, std::thread::ThreadId)>>);
        impl FitnessEval<bool> for Recording<'_> {
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
                _objectives: Option<&mut [Objectives]>,
            ) {
                let call = (genomes.len(), std::thread::current().id());
                self.0.lock().expect("no panicking batch").push(call);
                for (genes, slot) in genomes.iter().zip(out.iter_mut()) {
                    *slot = self.evaluate(genes);
                }
            }
        }
        let calls = std::sync::Mutex::new(Vec::new());
        let mut config = one_max_config(100, 7);
        config.threads = 4;
        let via_trait = EaBuilder::new(24, |rng| rng.gen::<bool>(), Recording(&calls))
            .config(config)
            .run();
        let calls = calls.into_inner().expect("no panicking batch");
        let lengths: Vec<u64> = calls.iter().map(|&(len, _)| len as u64).collect();
        assert_eq!(lengths[0], 10);
        assert!(
            lengths[1..].iter().all(|len| (1..=5).contains(len)),
            "{lengths:?}"
        );
        assert!(lengths.len() as u64 <= via_trait.generations + 1);
        let scored: u64 = lengths[1..].iter().sum();
        assert!(via_trait.copies > 0, "one-max runs breed copies");
        assert_eq!(scored + via_trait.copies, via_trait.evaluations - 10);
        let caller = std::thread::current().id();
        assert!(calls.iter().all(|&(_, thread)| thread == caller));
        let via_closure = run_one_max(7);
        assert_eq!(via_trait.best_genome, via_closure.best_genome);
        assert_eq!(via_trait.evaluations, via_closure.evaluations);
        assert_eq!(via_trait.copies, via_closure.copies);
    }

    /// One-max that refuses copies: it panics on any child equal to its
    /// lineage parent or to its crossover donor, and counts the children it
    /// scores.
    struct NoCopies<'a>(&'a AtomicU64);
    impl FitnessEval<bool> for NoCopies<'_> {
        type State = ();

        fn evaluate(&self, genes: &[bool]) -> f64 {
            one_max(genes)
        }
        fn evaluate_batch(
            &self,
            _state: &mut (),
            genomes: &[Vec<bool>],
            provenance: Option<Provenance<'_, bool>>,
            out: &mut [f64],
            objectives: Option<&mut [Objectives]>,
        ) {
            if let Some(Provenance {
                lineage, parents, ..
            }) = provenance
            {
                for (genes, lineage) in genomes.iter().zip(lineage) {
                    let lineage = lineage.as_ref().expect("engine children have lineage");
                    let parent = parents[lineage.parent_idx];
                    assert_ne!(genes.as_slice(), parent, "a copy of its parent");
                    if let Some(donor) = lineage.second_parent {
                        assert_ne!(genes.as_slice(), parents[donor], "a copy of its donor");
                    }
                }
                self.0
                    .fetch_add(genomes.len() as u64, AtomicOrdering::Relaxed);
            }
            for (genes, slot) in genomes.iter().zip(out.iter_mut()) {
                *slot = one_max(genes);
            }
            for (slot, &score) in objectives.into_iter().flatten().zip(out.iter()) {
                *slot = Objectives::from_fitness(score);
            }
        }
    }

    #[test]
    fn copies_take_their_parents_score_without_an_evaluation() {
        for (label, config) in [
            ("panmictic", one_max_config(60, 11)),
            ("islands", island_config(3, 4, 1, 6)),
        ] {
            let reference = EaBuilder::new(24, |rng| rng.gen::<bool>(), one_max)
                .config(config.clone())
                .run();
            assert!(
                reference.copies > 0,
                "{label}: no copies, the check is vacuous"
            );
            let initial = reference.history[0].evaluations;
            for threads in [1, 2, 4] {
                let scored = AtomicU64::new(0);
                let run = EaBuilder::new(24, |rng| rng.gen::<bool>(), NoCopies(&scored))
                    .config(EaConfig {
                        threads,
                        ..config.clone()
                    })
                    .run();
                let label = format!("{label} threads {threads}");
                assert_same_run(&run, &reference, &label);
                assert_eq!(run.copies, reference.copies, "{label}");
                assert_eq!(
                    run.copies + scored.into_inner(),
                    run.evaluations - initial,
                    "{label}"
                );
            }
            let scored = AtomicU64::new(0);
            interrupt_anywhere(config, 3, || NoCopies(&scored));
        }
    }

    #[test]
    fn lineage_names_a_parent_matching_outside_the_edit() {
        // An evaluator that enforces the provenance contract on every child:
        // the named parent exists and agrees with the child outside the edit
        // window. Scoring stays one-max, so the run must reproduce the
        // closure path's trajectory exactly.
        struct Checking;
        impl FitnessEval<bool> for Checking {
            type State = ();

            fn evaluate(&self, genes: &[bool]) -> f64 {
                genes.iter().filter(|&&g| g).count() as f64
            }
            fn evaluate_batch(
                &self,
                _state: &mut (),
                genomes: &[Vec<bool>],
                provenance: Option<Provenance<'_, bool>>,
                out: &mut [f64],
                _objectives: Option<&mut [Objectives]>,
            ) {
                for (i, (genes, slot)) in genomes.iter().zip(out.iter_mut()).enumerate() {
                    *slot = self.evaluate(genes);
                    // The initial population comes without provenance.
                    let Some(Provenance {
                        lineage, parents, ..
                    }) = provenance
                    else {
                        continue;
                    };
                    let lin = lineage[i]
                        .as_ref()
                        .expect("engine children always have lineage");
                    let parent = parents[lin.parent_idx];
                    assert_eq!(genes.len(), parent.len(), "child/parent length");
                    assert!(lin.edit.end <= genes.len(), "edit range out of bounds");
                    for k in (0..genes.len()).filter(|k| !lin.edit.contains(k)) {
                        assert_eq!(genes[k], parent[k], "child differs outside {:?}", lin.edit);
                    }
                    // Crossover children name the window-content donor and
                    // must equal it at every position *inside* the window.
                    if let Some(second) = lin.second_parent {
                        let donor = parents[second];
                        for k in lin.edit.clone() {
                            assert_eq!(genes[k], donor[k], "child differs from donor inside");
                        }
                    }
                }
            }
        }
        let config = one_max_config(60, 11);
        let checked = EaBuilder::new(24, |rng| rng.gen::<bool>(), Checking)
            .config(config.clone())
            .run();
        let plain = EaBuilder::new(24, |rng| rng.gen::<bool>(), one_max)
            .config(config)
            .run();
        assert_eq!(checked.best_genome, plain.best_genome);
        assert_eq!(checked.evaluations, plain.evaluations);
    }

    #[test]
    fn best_fitness_is_monotone_in_history() {
        let result = run_one_max(3);
        let mut prev = f64::NEG_INFINITY;
        for s in &result.history {
            assert!(s.best_fitness >= prev, "elitist selection lost the best");
            prev = s.best_fitness;
        }
    }

    #[test]
    fn result_reports_throughput() {
        let result = run_one_max(2);
        assert!(result.evaluations_per_sec() >= 0.0);
    }

    #[test]
    fn respects_evaluation_budget() {
        let config = EaConfig::builder()
            .stagnation_limit(1_000_000)
            .max_evaluations(100)
            .seed(0)
            .build();
        let result = EaBuilder::new(8, |rng| rng.gen::<bool>(), |_: &[bool]| 0.0)
            .config(config)
            .run();
        // Budget may be exceeded by at most one generation's children.
        assert!(result.evaluations <= 105, "{} evals", result.evaluations);
    }

    #[test]
    fn stagnation_terminates_constant_fitness() {
        let result = EaBuilder::new(8, |rng| rng.gen::<bool>(), |_: &[bool]| 1.0)
            .config(one_max_config(5, 0))
            .run();
        assert_eq!(result.generations, 5);
    }

    #[test]
    fn seeding_injects_known_solution() {
        let perfect = vec![true; 24];
        let result = EaBuilder::new(24, |rng| rng.gen::<bool>(), one_max)
            .config(one_max_config(3, 0))
            .seed_population([perfect.clone()])
            .run();
        assert_eq!(result.best_genome, perfect);
        assert_eq!(result.best_fitness, 24.0);
    }

    #[test]
    fn history_has_one_entry_per_generation() {
        let result = EaBuilder::new(8, |rng| rng.gen::<bool>(), |_: &[bool]| 0.0)
            .config(one_max_config(4, 0))
            .run();
        assert_eq!(result.history.len() as u64, result.generations + 1);
        for (g, stats) in result.history.iter().enumerate() {
            assert_eq!(stats.generation, g as u64);
        }
    }

    #[test]
    fn infeasible_fitness_is_displaced_by_feasible() {
        // Fitness: -inf unless all genes true (simulating "covering
        // impossible" marking), otherwise 1.0. With an all-true seed the
        // population keeps the feasible individual on top.
        let result = EaBuilder::new(
            4,
            |rng| rng.gen::<bool>(),
            |genes: &[bool]| {
                if genes.iter().all(|&g| g) {
                    1.0
                } else {
                    f64::MIN
                }
            },
        )
        .config(one_max_config(3, 1))
        .seed_population([vec![true; 4]])
        .run();
        assert_eq!(result.best_fitness, 1.0);
    }

    // ---- island topology ----

    fn island_config(count: usize, interval: u64, migrants: usize, seed: u64) -> EaConfig {
        EaConfig::builder()
            .population_size(8)
            .children_per_generation(6)
            .stagnation_limit(25)
            .islands(count, interval, migrants)
            .seed(seed)
            .build()
    }

    fn run_islands_one_max(config: EaConfig) -> EaResult<bool> {
        EaBuilder::new(24, |rng| rng.gen::<bool>(), one_max)
            .config(config)
            .run()
    }

    #[test]
    fn islands_solve_one_max() {
        let result = run_islands_one_max(island_config(4, 5, 2, 1));
        assert!(
            result.best_fitness >= 22.0,
            "island one-max only reached {}",
            result.best_fitness
        );
    }

    #[test]
    fn islands_are_bit_identical_for_any_thread_count() {
        let run = |threads: usize| {
            let config = EaConfig::builder()
                .population_size(8)
                .children_per_generation(6)
                .stagnation_limit(15)
                .islands(4, 3, 2)
                .seed(5)
                .threads(threads)
                .build();
            run_islands_one_max(config)
        };
        let reference = run(1);
        for threads in [2, 3, 4, 8] {
            let other = run(threads);
            assert_eq!(other.best_genome, reference.best_genome, "t={threads}");
            assert_eq!(
                other.best_fitness.to_bits(),
                reference.best_fitness.to_bits()
            );
            assert_eq!(other.generations, reference.generations);
            assert_eq!(other.evaluations, reference.evaluations);
            assert_eq!(other.history.len(), reference.history.len());
            for (a, b) in other.history.iter().zip(&reference.history) {
                assert_eq!(a.generation, b.generation);
                assert_eq!(a.best_fitness.to_bits(), b.best_fitness.to_bits());
                assert_eq!(a.mean_fitness.to_bits(), b.mean_fitness.to_bits());
                assert_eq!(a.evaluations, b.evaluations);
            }
        }
    }

    #[test]
    fn merged_evaluations_sum_over_islands() {
        // A capture every epoch: the merged history's last entry must count
        // exactly the islands' own evaluations at that boundary.
        let mut checkpoints = Vec::new();
        let result = EaBuilder::new(24, |rng| rng.gen::<bool>(), one_max)
            .config(island_config(3, 4, 1, 3))
            .checkpoint_every(1, |cp| {
                checkpoints.push(cp);
                Ok(())
            })
            .run();
        assert!(!checkpoints.is_empty(), "run too short to checkpoint");
        for cp in &checkpoints {
            let merged = cp.history.last().expect("history holds generation 0");
            let per_island: u64 = cp.islands.iter().map(|i| i.evaluations).sum();
            assert_eq!(merged.evaluations, per_island, "gen {}", cp.generation);
        }
        let last = result.history.last().expect("history holds generation 0");
        assert_eq!(result.evaluations, last.evaluations);
    }

    #[test]
    fn single_island_runs_without_migration() {
        // count = 1 must be well-defined: no migration partner, the island
        // just evolves alone in epochs.
        let result = run_islands_one_max(island_config(1, 5, 2, 4));
        assert!(result.best_fitness >= 20.0);
        let repeat = run_islands_one_max(island_config(1, 5, 2, 4));
        assert_eq!(result.best_genome, repeat.best_genome);
        assert_eq!(result.evaluations, repeat.evaluations);
    }

    #[test]
    fn interval_beyond_generation_cap_never_migrates() {
        // With max_generations < interval the single truncated epoch ends
        // the run before any migration: identical to migrants = 0.
        let run = |migrants: usize| {
            let config = EaConfig::builder()
                .population_size(6)
                .children_per_generation(4)
                .stagnation_limit(1_000)
                .max_generations(7)
                .islands(3, 100, migrants)
                .seed(6)
                .build();
            run_islands_one_max(config)
        };
        let with = run(3);
        let without = run(0);
        assert_eq!(with.best_genome, without.best_genome);
        assert_eq!(with.evaluations, without.evaluations);
        assert_eq!(with.generations, 7);
        let trajectories = |r: &EaResult<bool>| {
            r.history
                .iter()
                .map(|s| (s.generation, s.best_fitness.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(trajectories(&with), trajectories(&without));
    }

    #[test]
    fn migration_propagates_a_seeded_elite() {
        // Fitness rewards a specific planted pattern so strongly that only
        // the seeded individual (on island 0) and its descendants score
        // high; with migration every generation the elite must reach every
        // island, driving the merged mean far above the no-migration run.
        let target = [true, false, true, true, false, true, false, false];
        let fitness =
            move |genes: &[bool]| genes.iter().zip(&target).filter(|(g, t)| g == t).count() as f64;
        let run = |migrants: usize| {
            let config = EaConfig::builder()
                .population_size(6)
                .children_per_generation(4)
                .stagnation_limit(1_000)
                .max_generations(12)
                .islands(4, 1, migrants)
                .seed(0)
                .build();
            EaBuilder::new(8, |rng| rng.gen::<bool>(), fitness)
                .config(config)
                .seed_population([target.to_vec()])
                .run()
        };
        let migrating = run(2);
        // The seed is perfect; with migration the last generation's merged
        // mean approaches perfection as copies colonize every island.
        assert_eq!(migrating.best_fitness, 8.0);
        let final_mean = migrating.history.last().unwrap().mean_fitness;
        assert!(
            final_mean >= 7.0,
            "elite failed to colonize the ring: mean {final_mean}"
        );
    }

    #[test]
    fn epoch_termination_overshoots_at_most_one_epoch() {
        let config = EaConfig::builder()
            .population_size(4)
            .children_per_generation(4)
            .stagnation_limit(1_000_000)
            .max_evaluations(100)
            .islands(2, 5, 1)
            .seed(0)
            .build();
        let result = EaBuilder::new(8, |rng| rng.gen::<bool>(), |_: &[bool]| 0.0)
            .config(config)
            .run();
        // Budget + one epoch of children on both islands: 100 + 2*5*4.
        assert!(result.evaluations <= 140, "{} evals", result.evaluations);
    }

    // ---- survival floor ----

    /// What a [`FloorOneMax`] run saw.
    #[derive(Default)]
    struct FloorCounts {
        /// Batches that came with a floor.
        offered: std::sync::atomic::AtomicU64,
        /// Batches whose floor licensed clipping: no objectives asked for.
        floors: std::sync::atomic::AtomicU64,
        /// Scores replaced by the floor.
        clipped: std::sync::atomic::AtomicU64,
    }

    /// One-max that takes the floor contract at its word: in a batch without
    /// objectives, every score at or below the floor is reported as the
    /// floor itself.
    struct FloorOneMax<'a>(&'a FloorCounts);
    impl FitnessEval<bool> for FloorOneMax<'_> {
        type State = ();

        fn evaluate(&self, genes: &[bool]) -> f64 {
            one_max(genes)
        }
        fn evaluate_batch(
            &self,
            _state: &mut (),
            genomes: &[Vec<bool>],
            provenance: Option<Provenance<'_, bool>>,
            out: &mut [f64],
            objectives: Option<&mut [Objectives]>,
        ) {
            use std::sync::atomic::Ordering::Relaxed;
            let offered = provenance.and_then(|p| p.floor);
            let floor = offered.filter(|_| objectives.is_none());
            if offered.is_some() {
                self.0.offered.fetch_add(1, Relaxed);
            }
            if floor.is_some() {
                self.0.floors.fetch_add(1, Relaxed);
            }
            for (genes, slot) in genomes.iter().zip(out.iter_mut()) {
                let score = one_max(genes);
                *slot = match floor {
                    Some(floor) if score <= floor => {
                        self.0.clipped.fetch_add(1, Relaxed);
                        floor
                    }
                    _ => score,
                };
            }
            for (slot, &score) in objectives.into_iter().flatten().zip(out.iter()) {
                *slot = Objectives::from_fitness(score);
            }
        }
    }

    #[test]
    fn reporting_the_floor_never_changes_the_trajectory() {
        for (label, config) in [
            ("panmictic", one_max_config(40, 5)),
            ("islands", island_config(3, 4, 1, 6)),
        ] {
            let reference = EaBuilder::new(24, |rng| rng.gen::<bool>(), one_max)
                .config(config.clone())
                .run();
            let counts = FloorCounts::default();
            let floored = EaBuilder::new(24, |rng| rng.gen::<bool>(), FloorOneMax(&counts))
                .config(config)
                .run();
            assert_same_run(&floored, &reference, label);
            assert!(
                counts.clipped.into_inner() > 0,
                "{label}: no score was clipped"
            );
        }
    }

    #[test]
    fn the_floor_licenses_clipping_only_where_selection_alone_reads_the_scores() {
        let base = || {
            EaConfig::builder()
                .population_size(6)
                .children_per_generation(4)
                .stagnation_limit(10)
                .seed(3)
        };
        // Every fitness-ranked batch carries the floor, but an archive reads
        // the children's objectives, so it licenses no clipping there.
        for (config, expect_offered, expect_floor) in [
            (base().build(), true, true),
            (base().pareto_archive(4).build(), true, false),
            (base().ranking(Ranking::Lexicographic).build(), false, false),
        ] {
            let counts = FloorCounts::default();
            EaBuilder::new(16, |rng| rng.gen::<bool>(), FloorOneMax(&counts))
                .config(config)
                .run();
            assert_eq!(counts.offered.into_inner() > 0, expect_offered);
            assert_eq!(counts.floors.into_inner() > 0, expect_floor);
        }
        // A NaN parent makes the floor meaningless: it compares equal to
        // every score in the selection sort.
        let individual = |fitness: f64| Individual {
            genes: vec![true],
            fitness,
            objectives: Objectives::from_fitness(fitness),
        };
        let config = base().build();
        assert_eq!(
            survival_floor(&config, &[individual(3.0), individual(1.0)]),
            Some(1.0)
        );
        assert_eq!(
            survival_floor(&config, &[individual(3.0), individual(f64::NAN)]),
            None
        );
    }

    // ---- multi-objective ----

    /// One-max with a second objective: minimize the number of 0→1/1→0
    /// boundaries in the genome ("transitions"), reported through the
    /// objectives hook. Scalar fitness stays plain one-max.
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

    #[test]
    fn pareto_archive_never_changes_the_trajectory() {
        let config = |cap: usize| {
            EaConfig::builder()
                .population_size(10)
                .children_per_generation(5)
                .stagnation_limit(60)
                .seed(7)
                .pareto_archive(cap)
                .build()
        };
        let with = EaBuilder::new(24, |rng| rng.gen::<bool>(), one_max)
            .config(config(32))
            .run();
        let without = EaBuilder::new(24, |rng| rng.gen::<bool>(), one_max)
            .config(config(0))
            .run();
        assert_eq!(with.best_genome, without.best_genome);
        assert_eq!(with.evaluations, without.evaluations);
        assert_eq!(with.generations, without.generations);
        for (a, b) in with.history.iter().zip(&without.history) {
            assert_eq!(a.best_fitness.to_bits(), b.best_fitness.to_bits());
            assert_eq!(a.mean_fitness.to_bits(), b.mean_fitness.to_bits());
        }
        assert!(without.pareto_front.is_empty());
        // A scalar evaluator's objectives are the fitness embedding, so the
        // front is exactly one point: the best fitness seen.
        assert_eq!(with.pareto_front.len(), 1);
        assert_eq!(with.pareto_front[0].fitness, with.best_fitness);
    }

    #[test]
    fn lexicographic_ranking_of_scalar_objectives_matches_fitness_ranking() {
        let config = |ranking: Ranking| {
            EaConfig::builder()
                .population_size(10)
                .children_per_generation(5)
                .stagnation_limit(50)
                .seed(3)
                .ranking(ranking)
                .build()
        };
        let lex = EaBuilder::new(24, |rng| rng.gen::<bool>(), one_max)
            .config(config(Ranking::Lexicographic))
            .run();
        let scalar = EaBuilder::new(24, |rng| rng.gen::<bool>(), one_max)
            .config(config(Ranking::Fitness))
            .run();
        assert_eq!(lex.best_genome, scalar.best_genome);
        assert_eq!(lex.best_fitness, scalar.best_fitness);
        assert_eq!(lex.evaluations, scalar.evaluations);
        assert_eq!(lex.generations, scalar.generations);
    }

    #[test]
    fn multiobjective_front_is_nondominated_and_sorted() {
        let config = EaConfig::builder()
            .population_size(10)
            .children_per_generation(5)
            .stagnation_limit(40)
            .seed(11)
            .lexicographic()
            .pareto_archive(64)
            .build();
        let result = EaBuilder::new(24, |rng| rng.gen::<bool>(), TwoObjective)
            .config(config)
            .run();
        assert!(!result.pareto_front.is_empty());
        for p in &result.pareto_front {
            assert_eq!(p.objectives, TwoObjective::objectives(&p.genes));
            for q in &result.pareto_front {
                assert!(
                    !p.objectives.dominates(&q.objectives),
                    "front contains a dominated point"
                );
            }
        }
        for w in result.pareto_front.windows(2) {
            assert_eq!(
                w[0].objectives.lex_cmp(&w[1].objectives),
                Ordering::Less,
                "front is sorted lexicographically"
            );
        }
        // Lexicographic rank-best: no evaluated genome had more ones.
        assert_eq!(result.pareto_front[0].fitness, result.best_fitness);
    }

    #[test]
    fn multiobjective_islands_are_bit_identical_for_any_thread_count() {
        let run = |threads: usize| {
            let config = EaConfig::builder()
                .population_size(8)
                .children_per_generation(6)
                .stagnation_limit(15)
                .islands(4, 3, 2)
                .seed(5)
                .threads(threads)
                .lexicographic()
                .pareto_archive(32)
                .build();
            EaBuilder::new(24, |rng| rng.gen::<bool>(), TwoObjective)
                .config(config)
                .run()
        };
        let reference = run(1);
        assert!(!reference.pareto_front.is_empty());
        for threads in [2, 4, 8] {
            let other = run(threads);
            assert_eq!(other.best_genome, reference.best_genome, "t={threads}");
            assert_eq!(other.evaluations, reference.evaluations);
            assert_eq!(other.pareto_front.len(), reference.pareto_front.len());
            for (a, b) in other.pareto_front.iter().zip(&reference.pareto_front) {
                assert_eq!(a.genes, b.genes, "t={threads}");
                assert_eq!(a.fitness.to_bits(), b.fitness.to_bits());
                assert_eq!(a.objectives, b.objectives);
            }
        }
    }

    #[test]
    fn island_seed_streams_are_decorrelated() {
        let seeds: Vec<u64> = (0..8).map(|i| island_seed(42, i)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len(), "island seeds collide: {seeds:?}");
        // And distinct run seeds move every island stream.
        assert_ne!(island_seed(1, 0), island_seed(2, 0));
    }

    // ---- stop reasons, cancellation, deadlines ----

    #[test]
    fn stop_reasons_name_the_boundary_that_fired() {
        let converged = run_one_max(1);
        assert_eq!(converged.stop_reason, StopReason::Converged);
        assert_eq!(converged.checkpoint_failures, 0);

        let budget = EaBuilder::new(8, |rng| rng.gen::<bool>(), |_: &[bool]| 0.0)
            .config(
                EaConfig::builder()
                    .stagnation_limit(1_000_000)
                    .max_evaluations(100)
                    .seed(0)
                    .build(),
            )
            .run();
        assert_eq!(budget.stop_reason, StopReason::EvaluationBudget);

        let capped = EaBuilder::new(8, |rng| rng.gen::<bool>(), |_: &[bool]| 0.0)
            .config(
                EaConfig::builder()
                    .stagnation_limit(1_000_000)
                    .max_generations(3)
                    .seed(0)
                    .build(),
            )
            .run();
        assert_eq!(capped.stop_reason, StopReason::GenerationCap);
        assert_eq!(capped.generations, 3);
    }

    #[test]
    fn cancelled_run_returns_best_so_far() {
        // A pre-cancelled token: the run stops at the very first boundary,
        // with the evaluated initial population as its best-so-far state.
        let token = CancelToken::new();
        token.cancel();
        for config in [one_max_config(100, 1), island_config(3, 4, 1, 1)] {
            let result = EaBuilder::new(24, |rng| rng.gen::<bool>(), one_max)
                .config(config)
                .cancel_token(token.clone())
                .run();
            assert_eq!(result.stop_reason, StopReason::Cancelled);
            assert_eq!(result.generations, 0);
            assert_eq!(result.history.len(), 1, "generation 0 is still reported");
            assert!(result.best_fitness.is_finite());
            assert!(!result.best_genome.is_empty());
        }
    }

    #[test]
    fn elapsed_deadline_stops_with_deadline_reason() {
        // Duration::ZERO has certainly elapsed by the first boundary; the
        // deterministic reasons are checked first but none of them holds.
        let config = EaConfig::builder()
            .population_size(6)
            .children_per_generation(4)
            .stagnation_limit(1_000)
            .seed(2)
            .deadline(Duration::ZERO)
            .build();
        let result = EaBuilder::new(16, |rng| rng.gen::<bool>(), one_max)
            .config(config)
            .run();
        assert_eq!(result.stop_reason, StopReason::Deadline);
        assert_eq!(result.generations, 0);
    }

    // ---- checkpoint / resume ----

    fn assert_same_run(resumed: &EaResult<bool>, reference: &EaResult<bool>, label: &str) {
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
            "{label}"
        );
        for (a, b) in resumed.pareto_front.iter().zip(&reference.pareto_front) {
            assert_eq!(a.genes, b.genes, "{label}");
            assert_eq!(a.fitness.to_bits(), b.fitness.to_bits(), "{label}");
            assert_eq!(a.objectives, b.objectives, "{label}");
        }
    }

    /// Runs to completion capturing every periodic checkpoint, then treats
    /// each one as an interruption point: resuming from it must reproduce
    /// the uninterrupted run byte-for-byte (and the checkpoint must survive
    /// a round trip through its serialized form).
    fn interrupt_anywhere<F>(config: EaConfig, every: u64, make_fitness: impl Fn() -> F)
    where
        F: FitnessEval<bool> + Sync,
    {
        let mut checkpoints = Vec::new();
        let reference = EaBuilder::new(24, |rng| rng.gen::<bool>(), make_fitness())
            .config(config.clone())
            .checkpoint_every(every, |cp| {
                checkpoints.push(cp);
                Ok(())
            })
            .run();
        assert_eq!(reference.checkpoint_failures, 0);
        assert!(
            !checkpoints.is_empty(),
            "run too short to checkpoint: {} generations",
            reference.generations
        );
        for (k, cp) in checkpoints.iter().enumerate() {
            let bytes = cp.to_bytes_with(|&gene, out| out.push(gene as u8));
            let reloaded = EaCheckpoint::from_bytes_with(&bytes, |input| {
                let (&byte, rest) = input.split_first().ok_or(CheckpointError::Truncated)?;
                *input = rest;
                Ok(byte == 1)
            })
            .expect("round trip");
            assert_eq!(&reloaded, cp);
            let resumed = EaBuilder::new(24, |rng| rng.gen::<bool>(), make_fitness())
                .config(config.clone())
                .resume_from(reloaded)
                .run();
            assert_same_run(&resumed, &reference, &format!("checkpoint {k}"));
        }
    }

    #[test]
    fn panmictic_resume_is_byte_identical_from_any_checkpoint() {
        interrupt_anywhere(one_max_config(30, 13), 2, || one_max);
    }

    #[test]
    fn island_resume_is_byte_identical_from_any_checkpoint() {
        interrupt_anywhere(island_config(3, 4, 1, 13), 4, || one_max);
    }

    #[test]
    fn multiobjective_island_resume_preserves_the_pareto_front() {
        let config = EaConfig::builder()
            .population_size(8)
            .children_per_generation(6)
            .stagnation_limit(20)
            .islands(3, 3, 2)
            .seed(17)
            .lexicographic()
            .pareto_archive(32)
            .build();
        interrupt_anywhere(config, 3, || TwoObjective);
    }

    #[test]
    fn resume_is_thread_count_invariant() {
        // Checkpoint under one thread count, resume under others: the
        // trajectory must not notice.
        let config = |threads: usize| {
            EaConfig::builder()
                .population_size(8)
                .children_per_generation(6)
                .stagnation_limit(15)
                .islands(4, 3, 2)
                .seed(23)
                .threads(threads)
                .build()
        };
        let mut checkpoints = Vec::new();
        let reference = EaBuilder::new(24, |rng| rng.gen::<bool>(), one_max)
            .config(config(1))
            .checkpoint_every(3, |cp| {
                checkpoints.push(cp);
                Ok(())
            })
            .run();
        let cp = checkpoints.swap_remove(0);
        for threads in [2, 4] {
            let resumed = EaBuilder::new(24, |rng| rng.gen::<bool>(), one_max)
                .config(config(threads))
                .resume_from(cp.clone())
                .run();
            assert_same_run(&resumed, &reference, &format!("threads {threads}"));
        }
    }

    #[test]
    fn failing_sink_is_counted_not_fatal() {
        let result = EaBuilder::new(24, |rng| rng.gen::<bool>(), one_max)
            .config(one_max_config(20, 5))
            .checkpoint_every(2, |_| Err(CheckpointError::Io("disk full".into())))
            .run();
        assert!(result.checkpoint_failures > 0);
        assert_eq!(result.stop_reason, StopReason::Converged);
        assert!(result.best_fitness >= 20.0, "run degraded by sink failure");
    }

    #[test]
    fn resume_rejects_a_mismatched_config() {
        let mut checkpoints = Vec::new();
        EaBuilder::new(24, |rng| rng.gen::<bool>(), one_max)
            .config(one_max_config(20, 5))
            .checkpoint_every(2, |cp| {
                checkpoints.push(cp);
                Ok(())
            })
            .run();
        let cp = checkpoints.swap_remove(0);
        // Different seed → different fingerprint.
        let err = EaBuilder::new(24, |rng| rng.gen::<bool>(), one_max)
            .config(one_max_config(20, 6))
            .resume_from(cp.clone())
            .try_run()
            .unwrap_err();
        assert_eq!(
            err,
            EaError::InvalidCheckpoint(CheckpointError::ConfigMismatch)
        );
        // Different topology → island count mismatch is caught even if the
        // fingerprint were somehow forged; here the fingerprint fires first.
        let err = EaBuilder::new(24, |rng| rng.gen::<bool>(), one_max)
            .config(island_config(3, 4, 1, 5))
            .resume_from(cp)
            .try_run()
            .unwrap_err();
        assert!(matches!(err, EaError::InvalidCheckpoint(_)));
    }

    #[test]
    fn resume_rejects_an_all_zero_rng_state() {
        // Zero is the generator's fixed point: at S = 10 a parent draw
        // rejection-samples forever, so the checkpoint must fail up front.
        let mut checkpoints = Vec::new();
        EaBuilder::new(24, |rng| rng.gen::<bool>(), one_max)
            .config(one_max_config(20, 5))
            .checkpoint_every(2, |cp| {
                checkpoints.push(cp);
                Ok(())
            })
            .run();
        let mut cp = checkpoints.swap_remove(0);
        cp.islands[0].rng_state = [0; 4];
        let err = EaBuilder::new(24, |rng| rng.gen::<bool>(), one_max)
            .config(one_max_config(20, 5))
            .resume_from(cp)
            .try_run()
            .unwrap_err();
        assert_eq!(
            err,
            EaError::InvalidCheckpoint(CheckpointError::Malformed("all-zero RNG state"))
        );
    }

    // ---- panic isolation ----

    use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

    /// One-max that panics on its `trigger`-th evaluation (1-based), then
    /// never again — simulating a poisoned evaluator hitting one island.
    struct PanicOnce {
        calls: AtomicU64,
        trigger: u64,
    }
    impl PanicOnce {
        fn at(trigger: u64) -> Self {
            PanicOnce {
                calls: AtomicU64::new(0),
                trigger,
            }
        }
    }
    impl FitnessEval<bool> for PanicOnce {
        type State = ();

        fn evaluate(&self, genes: &[bool]) -> f64 {
            if self.calls.fetch_add(1, AtomicOrdering::Relaxed) + 1 == self.trigger {
                panic!("poisoned evaluator");
            }
            genes.iter().filter(|&&g| g).count() as f64
        }
    }

    #[test]
    fn island_panic_fails_with_a_typed_error_and_no_deadlock() {
        // 4 islands × population 8 = 32 init evaluations; the panic lands
        // mid-epoch. With 4 worker threads the epoch barrier must still
        // complete before the error surfaces.
        let config = EaConfig::builder()
            .population_size(8)
            .children_per_generation(6)
            .stagnation_limit(25)
            .islands(4, 3, 1)
            .threads(4)
            .seed(1)
            .build();
        let err = EaBuilder::new(24, |rng| rng.gen::<bool>(), PanicOnce::at(40))
            .config(config)
            .try_run()
            .unwrap_err();
        let EaError::IslandFailed { message, .. } = err else {
            panic!("expected IslandFailed, got {err}");
        };
        assert_eq!(message, "poisoned evaluator");
    }

    #[test]
    fn island_panics_report_the_lowest_failing_island() {
        // Every island panics in its first epoch (children come with
        // provenance, the initial populations do not); at any thread count
        // the error names island 0 at generation 0.
        struct PanicOnChildren;
        impl FitnessEval<bool> for PanicOnChildren {
            type State = ();

            fn evaluate(&self, genes: &[bool]) -> f64 {
                genes.iter().filter(|&&g| g).count() as f64
            }
            fn evaluate_batch(
                &self,
                _state: &mut (),
                genomes: &[Vec<bool>],
                provenance: Option<Provenance<'_, bool>>,
                out: &mut [f64],
                _objectives: Option<&mut [Objectives]>,
            ) {
                assert!(provenance.is_none(), "poisoned children");
                for (genes, slot) in genomes.iter().zip(out.iter_mut()) {
                    *slot = self.evaluate(genes);
                }
            }
        }
        for threads in [1, 2, 4] {
            let mut config = island_config(4, 3, 1, 1);
            config.threads = threads;
            let err = EaBuilder::new(24, |rng| rng.gen::<bool>(), PanicOnChildren)
                .config(config)
                .try_run()
                .unwrap_err();
            assert!(
                matches!(
                    err,
                    EaError::IslandFailed {
                        island: 0,
                        generation: 0,
                        ..
                    }
                ),
                "threads {threads}: {err}"
            );
        }
    }

    #[test]
    fn panmictic_panic_fails_the_run() {
        let config = EaConfig::builder()
            .population_size(10)
            .children_per_generation(5)
            .stagnation_limit(50)
            .seed(1)
            .build();
        let err = EaBuilder::new(24, |rng| rng.gen::<bool>(), PanicOnce::at(25))
            .config(config)
            .try_run()
            .unwrap_err();
        assert!(matches!(err, EaError::IslandFailed { island: 0, .. }));
    }

    #[test]
    fn init_panic_reports_the_failing_island() {
        // Trigger inside island 2's initial evaluation (threads 1: islands
        // initialize in order, 8 evaluations each).
        let config = EaConfig::builder()
            .population_size(8)
            .children_per_generation(6)
            .stagnation_limit(25)
            .islands(4, 3, 1)
            .threads(1)
            .seed(1)
            .build();
        let err = EaBuilder::new(24, |rng| rng.gen::<bool>(), PanicOnce::at(20))
            .config(config)
            .try_run()
            .unwrap_err();
        assert!(
            matches!(
                err,
                EaError::IslandFailed {
                    island: 2,
                    generation: 0,
                    ..
                }
            ),
            "{err}"
        );
    }
}
