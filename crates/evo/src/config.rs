//! EA configuration.

use std::fmt;
use std::time::Duration;

/// Population structure of a run.
///
/// The default, [`Topology::Panmictic`], is the paper's setup: one
/// population of `S` individuals breeding `C` children per generation.
/// [`Topology::Islands`] splits the same budget into `count` independent
/// subpopulations (each of size `S`, breeding `C` children per generation)
/// that exchange their best individuals along a ring every `interval`
/// generations — the classic island model, which scales the (S + C)
/// strategy across cores while keeping runs bit-identical for every thread
/// count (each island owns a seeded RNG stream derived from the run seed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Topology {
    /// One panmictic population (the paper's setup).
    #[default]
    Panmictic,
    /// `count` subpopulations with deterministic ring migration.
    Islands {
        /// Number of islands. `1` degenerates to an isolated population
        /// (no migration partner), which is allowed.
        count: usize,
        /// Generations between migrations (an *epoch*). Termination
        /// conditions are checked at epoch boundaries, so a run can
        /// overshoot its stagnation limit or evaluation budget by up to
        /// one epoch per island.
        interval: u64,
        /// Migrants per island per migration, chosen by rank (the island's
        /// best). They replace the destination island's worst. `0` makes
        /// the islands fully independent.
        migrants: usize,
    },
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Topology::Panmictic => write!(f, "panmictic"),
            Topology::Islands {
                count,
                interval,
                migrants,
            } => write!(f, "islands({count}x, M={interval}, m={migrants})"),
        }
    }
}

/// How truncation selection ranks individuals.
///
/// The default, [`Ranking::Fitness`], is the paper's single-objective
/// ordering: descending scalar fitness, elders ahead of equally ranked
/// children. [`Ranking::Lexicographic`] orders by the minimized objective
/// vector instead (see [`crate::Objectives::lex_cmp`]) — most significant
/// component first — which for the test-compression evaluator means
/// "compression first, then scan power, then decoder area". Evaluators
/// that report no objective vector fall back to the scalar embedding
/// [`crate::Objectives::from_fitness`], under which both rankings coincide.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Ranking {
    /// Descending scalar fitness (the paper's ordering).
    #[default]
    Fitness,
    /// Ascending lexicographic order of the objective vector.
    Lexicographic,
}

impl fmt::Display for Ranking {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ranking::Fitness => write!(f, "fitness"),
            Ranking::Lexicographic => write!(f, "lexicographic"),
        }
    }
}

/// Configuration of the evolutionary algorithm.
///
/// The defaults are the paper's experimental settings (Section 4): population
/// size `S = 10`, `C = 5` children per generation, crossover probability
/// 30 %, mutation probability 30 %, inversion probability 10 % (the
/// remaining 30 % copies a parent unchanged — *reproduction*), and
/// termination after 500 generations without fitness improvement.
///
/// # Example
///
/// ```
/// use evotc_evo::EaConfig;
///
/// let config = EaConfig::builder().seed(42).stagnation_limit(100).build();
/// assert_eq!(config.population_size, 10);
/// assert_eq!(config.children_per_generation, 5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EaConfig {
    /// Population size `S`.
    pub population_size: usize,
    /// Children generated per generation, `C`.
    pub children_per_generation: usize,
    /// Probability of producing a child by crossover.
    pub crossover_probability: f64,
    /// Probability of producing a child by point mutation.
    pub mutation_probability: f64,
    /// Probability of producing a child by inversion.
    pub inversion_probability: f64,
    /// Stop after this many consecutive generations without improvement of
    /// the best fitness.
    pub stagnation_limit: usize,
    /// Hard cap on fitness evaluations (the paper's "limit on the number of
    /// generated legal solutions").
    pub max_evaluations: u64,
    /// Hard cap on generations (safety net; `u64::MAX` disables it).
    pub max_generations: u64,
    /// RNG seed; runs with the same seed and inputs are identical.
    pub seed: u64,
    /// Worker threads for island runs: each epoch, the islands are spread
    /// over up to this many threads. A panmictic run is one island and
    /// scores every batch in one call on the calling thread, whatever the
    /// value. `0` (the default) resolves automatically — see
    /// [`crate::parallel::resolve_threads`]. Results are bit-identical for
    /// every value: the thread count is a throughput knob, never a semantic
    /// one.
    pub threads: usize,
    /// Population structure: one panmictic population (the default) or an
    /// island model with deterministic ring migration. Like `threads`,
    /// changing the thread count never changes an island run's results —
    /// but the topology itself is semantic (island runs differ from
    /// panmictic runs with the same seed).
    pub topology: Topology,
    /// How selection ranks individuals (see [`Ranking`]). The default
    /// scalar ranking preserves the paper's trajectories bit for bit;
    /// lexicographic ranking is semantic, like the topology.
    pub ranking: Ranking,
    /// Reporting bound of the run's Pareto archive: `0` (the default)
    /// disables the archive entirely; any positive value collects the
    /// nondominated front of every evaluated genome and reports its
    /// lexicographically best `pareto_capacity` points on
    /// `EaResult::pareto_front`. The archive is observational — enabling
    /// it never changes which individuals are selected.
    pub pareto_capacity: usize,
    /// Soft wall-clock deadline, checked at generation boundaries (epoch
    /// boundaries for island runs): once this much time has elapsed the run
    /// returns its best-so-far state with `StopReason::Deadline`. `None`
    /// (the default) disables it. Like `threads`, the deadline is outside
    /// the determinism contract — *when* it fires depends on wall-clock —
    /// but the state it returns is always a well-formed point of the
    /// deterministic trajectory.
    pub deadline: Option<Duration>,
}

impl Default for EaConfig {
    fn default() -> Self {
        EaConfig {
            population_size: 10,
            children_per_generation: 5,
            crossover_probability: 0.30,
            mutation_probability: 0.30,
            inversion_probability: 0.10,
            stagnation_limit: 500,
            max_evaluations: 1_000_000,
            max_generations: u64::MAX,
            seed: 0,
            threads: 0,
            topology: Topology::Panmictic,
            ranking: Ranking::Fitness,
            pareto_capacity: 0,
            deadline: None,
        }
    }
}

impl EaConfig {
    /// Starts building a configuration from the paper's defaults.
    pub fn builder() -> EaConfigBuilder {
        EaConfigBuilder {
            config: EaConfig::default(),
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the population is empty, no children are produced, the
    /// operator probabilities are negative or sum to more than one, the
    /// stagnation limit is zero, or the island topology is degenerate (no
    /// islands, a zero interval, more migrants than the population).
    pub fn validate(&self) {
        assert!(self.population_size > 0, "population must not be empty");
        assert!(
            self.children_per_generation > 0,
            "at least one child per generation is required"
        );
        let probs = [
            self.crossover_probability,
            self.mutation_probability,
            self.inversion_probability,
        ];
        assert!(
            probs.iter().all(|&p| (0.0..=1.0).contains(&p)),
            "operator probabilities must lie in [0, 1]"
        );
        assert!(
            probs.iter().sum::<f64>() <= 1.0 + 1e-9,
            "operator probabilities must sum to at most 1 (remainder is reproduction)"
        );
        assert!(
            self.stagnation_limit > 0,
            "stagnation limit must be positive"
        );
        if let Topology::Islands {
            count,
            interval,
            migrants,
        } = self.topology
        {
            assert!(count > 0, "at least one island is required");
            assert!(interval > 0, "migration interval must be positive");
            assert!(
                migrants <= self.population_size,
                "migrants per island cannot exceed the population size"
            );
        }
    }
}

impl fmt::Display for EaConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "S={} C={} px={:.2} pm={:.2} pi={:.2} stagnation={} seed={} threads={} topology={} ranking={} pareto={}",
            self.population_size,
            self.children_per_generation,
            self.crossover_probability,
            self.mutation_probability,
            self.inversion_probability,
            self.stagnation_limit,
            self.seed,
            if self.threads == 0 {
                "auto".to_string()
            } else {
                self.threads.to_string()
            },
            self.topology,
            self.ranking,
            if self.pareto_capacity == 0 {
                "off".to_string()
            } else {
                self.pareto_capacity.to_string()
            }
        )?;
        if let Some(deadline) = self.deadline {
            write!(f, " deadline={:.1}s", deadline.as_secs_f64())?;
        }
        Ok(())
    }
}

/// Builder for [`EaConfig`].
#[derive(Debug, Clone)]
pub struct EaConfigBuilder {
    config: EaConfig,
}

impl EaConfigBuilder {
    /// Sets the population size `S`.
    pub fn population_size(mut self, s: usize) -> Self {
        self.config.population_size = s;
        self
    }

    /// Sets the number of children per generation `C`.
    pub fn children_per_generation(mut self, c: usize) -> Self {
        self.config.children_per_generation = c;
        self
    }

    /// Sets the crossover probability.
    pub fn crossover_probability(mut self, p: f64) -> Self {
        self.config.crossover_probability = p;
        self
    }

    /// Sets the mutation probability.
    pub fn mutation_probability(mut self, p: f64) -> Self {
        self.config.mutation_probability = p;
        self
    }

    /// Sets the inversion probability.
    pub fn inversion_probability(mut self, p: f64) -> Self {
        self.config.inversion_probability = p;
        self
    }

    /// Sets the stagnation limit (generations without improvement).
    pub fn stagnation_limit(mut self, generations: usize) -> Self {
        self.config.stagnation_limit = generations;
        self
    }

    /// Sets the evaluation budget.
    pub fn max_evaluations(mut self, evaluations: u64) -> Self {
        self.config.max_evaluations = evaluations;
        self
    }

    /// Sets the generation cap.
    pub fn max_generations(mut self, generations: u64) -> Self {
        self.config.max_generations = generations;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the island-worker thread count (`0` = auto; see
    /// [`crate::parallel::resolve_threads`]); panmictic runs stay on the
    /// calling thread. Thread count never changes results, only wall-clock.
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Sets the population structure (see [`Topology`]).
    pub fn topology(mut self, topology: Topology) -> Self {
        self.config.topology = topology;
        self
    }

    /// Shorthand for [`Topology::Islands`]: `count` islands migrating
    /// `migrants` rank-best individuals along a ring every `interval`
    /// generations.
    pub fn islands(self, count: usize, interval: u64, migrants: usize) -> Self {
        self.topology(Topology::Islands {
            count,
            interval,
            migrants,
        })
    }

    /// Sets the selection ranking (see [`Ranking`]).
    pub fn ranking(mut self, ranking: Ranking) -> Self {
        self.config.ranking = ranking;
        self
    }

    /// Shorthand for [`Ranking::Lexicographic`]: rank individuals by their
    /// objective vector, most significant component first.
    pub fn lexicographic(self) -> Self {
        self.ranking(Ranking::Lexicographic)
    }

    /// Enables the run's Pareto archive, reporting its best `capacity`
    /// points on `EaResult::pareto_front` (`0` disables it, the default).
    pub fn pareto_archive(mut self, capacity: usize) -> Self {
        self.config.pareto_capacity = capacity;
        self
    }

    /// Sets a soft wall-clock deadline: the run returns its best-so-far
    /// state with `StopReason::Deadline` at the first generation (epoch)
    /// boundary after this much time has elapsed.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.config.deadline = Some(deadline);
        self
    }

    /// Finishes the builder.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`EaConfig`] field documentation for the constraints).
    pub fn build(self) -> EaConfig {
        self.config.validate();
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = EaConfig::default();
        assert_eq!(c.population_size, 10);
        assert_eq!(c.children_per_generation, 5);
        assert!((c.crossover_probability - 0.30).abs() < 1e-12);
        assert!((c.mutation_probability - 0.30).abs() < 1e-12);
        assert!((c.inversion_probability - 0.10).abs() < 1e-12);
        assert_eq!(c.stagnation_limit, 500);
    }

    #[test]
    fn builder_overrides() {
        let c = EaConfig::builder()
            .population_size(20)
            .children_per_generation(10)
            .seed(99)
            .build();
        assert_eq!(c.population_size, 20);
        assert_eq!(c.children_per_generation, 10);
        assert_eq!(c.seed, 99);
    }

    #[test]
    #[should_panic(expected = "population")]
    fn rejects_empty_population() {
        let _ = EaConfig::builder().population_size(0).build();
    }

    #[test]
    #[should_panic(expected = "sum to at most 1")]
    fn rejects_overfull_probabilities() {
        let _ = EaConfig::builder()
            .crossover_probability(0.8)
            .mutation_probability(0.8)
            .build();
    }

    #[test]
    fn display_mentions_all_knobs() {
        let s = EaConfig::default().to_string();
        for needle in [
            "S=10",
            "C=5",
            "px=0.30",
            "pm=0.30",
            "pi=0.10",
            "threads=auto",
        ] {
            assert!(s.contains(needle), "{s} missing {needle}");
        }
    }

    #[test]
    fn threads_knob_round_trips() {
        let c = EaConfig::builder().threads(4).build();
        assert_eq!(c.threads, 4);
        assert!(c.to_string().contains("threads=4"));
        assert_eq!(EaConfig::default().threads, 0);
    }

    #[test]
    fn topology_defaults_to_panmictic_and_round_trips() {
        assert_eq!(EaConfig::default().topology, Topology::Panmictic);
        assert!(EaConfig::default()
            .to_string()
            .contains("topology=panmictic"));
        let c = EaConfig::builder().islands(4, 10, 2).build();
        assert_eq!(
            c.topology,
            Topology::Islands {
                count: 4,
                interval: 10,
                migrants: 2
            }
        );
        assert!(c.to_string().contains("islands(4x, M=10, m=2)"), "{c}");
    }

    #[test]
    fn ranking_defaults_to_fitness_and_round_trips() {
        let c = EaConfig::default();
        assert_eq!(c.ranking, Ranking::Fitness);
        assert_eq!(c.pareto_capacity, 0);
        assert!(c.to_string().contains("ranking=fitness"));
        assert!(c.to_string().contains("pareto=off"));
        let lex = EaConfig::builder()
            .lexicographic()
            .pareto_archive(16)
            .build();
        assert_eq!(lex.ranking, Ranking::Lexicographic);
        assert_eq!(lex.pareto_capacity, 16);
        assert!(lex.to_string().contains("ranking=lexicographic"), "{lex}");
        assert!(lex.to_string().contains("pareto=16"), "{lex}");
    }

    #[test]
    fn deadline_round_trips() {
        let c = EaConfig::default();
        assert_eq!(c.deadline, None);
        assert!(!c.to_string().contains("deadline="), "{c}");
        let c = EaConfig::builder()
            .deadline(Duration::from_millis(1500))
            .build();
        assert_eq!(c.deadline, Some(Duration::from_millis(1500)));
        assert!(c.to_string().contains("deadline=1.5s"), "{c}");
    }

    #[test]
    #[should_panic(expected = "at least one island")]
    fn rejects_zero_islands() {
        let _ = EaConfig::builder().islands(0, 10, 1).build();
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn rejects_zero_migration_interval() {
        let _ = EaConfig::builder().islands(2, 0, 1).build();
    }

    #[test]
    #[should_panic(expected = "cannot exceed the population size")]
    fn rejects_more_migrants_than_population() {
        let _ = EaConfig::builder()
            .population_size(4)
            .islands(2, 5, 5)
            .build();
    }
}
