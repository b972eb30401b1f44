//! Per-generation statistics.

use std::fmt;

/// Cumulative evaluation-cache counters of a lineage-aware fitness
/// evaluator (see [`crate::FitnessEval::cache_stats`]).
///
/// Counters are observability, not semantics: scores are bit-identical
/// whether or not a cache hit happened, and the counters never feed back
/// into a run. An evaluator that keeps its caches in its per-island
/// [`crate::FitnessEval::State`] (as `MvFitness` does) reports the same
/// counters at every thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Children priced against an already-cached parent (incremental path).
    pub hits: u64,
    /// Parent caches built from a full evaluation (first sighting).
    pub misses: u64,
    /// Parent caches kept from a probe: a child priced against a cached
    /// parent that scored above the worst parent keeps the covering the
    /// probe patched, so as a parent it costs no rebuild.
    pub kept: u64,
    /// Children that fell back to the full kernel (unusable lineage or a
    /// `NeedsFull` answer from the incremental engine).
    pub fallbacks: u64,
    /// The fallbacks the survival floor cut short: the full kernel stopped
    /// as soon as it proved the child at or below
    /// [`crate::Provenance::floor`]. A subset of `fallbacks`, so
    /// [`CacheStats::hit_rate`] keeps its meaning.
    pub pruned: u64,
}

impl CacheStats {
    /// Fraction of lineage evaluations served from a cached parent, in
    /// `0.0..=1.0`; `0.0` before any evaluation happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses + self.fallbacks;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits / {} misses / {} fallbacks, {} pruned, {} kept ({:.0}% hit rate)",
            self.hits,
            self.misses,
            self.fallbacks,
            self.pruned,
            self.kept,
            100.0 * self.hit_rate()
        )
    }
}

/// Fitness statistics of one generation: the deterministic record the run
/// history and the checkpoint share.
///
/// Collected by `EaBuilder::run`; useful for convergence plots and for the
/// operator-ablation experiments. Wall-clock time and cache counters are
/// per run, on [`crate::EaResult`] (`elapsed`, `cache`), not per entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenerationStats {
    /// Generation index (0 = initial population).
    pub generation: u64,
    /// Best fitness in the population after selection.
    pub best_fitness: f64,
    /// Mean fitness of the population after selection.
    pub mean_fitness: f64,
    /// Cumulative number of fitness evaluations so far.
    pub evaluations: u64,
}

impl fmt::Display for GenerationStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "gen {:>5}: best {:.4}, mean {:.4}, {} evals",
            self.generation, self.best_fitness, self.mean_fitness, self.evaluations
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_stats_report_hit_rate_and_display() {
        let stats = CacheStats {
            hits: 3,
            misses: 1,
            fallbacks: 0,
            pruned: 0,
            kept: 1,
        };
        assert!((stats.hit_rate() - 0.75).abs() < 1e-12);
        let s = stats.to_string();
        assert!(s.contains("3 hits") && s.contains("75% hit rate"), "{s}");
        assert!(s.contains("1 kept"), "{s}");
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn pruned_fallbacks_leave_the_hit_rate_alone() {
        let plain = CacheStats {
            hits: 6,
            misses: 1,
            fallbacks: 3,
            pruned: 0,
            kept: 0,
        };
        // Pruned children are fallbacks the floor cut short, not extra
        // lookups: the hit rate counts them once, as fallbacks.
        let pruned = CacheStats { pruned: 2, ..plain };
        assert_eq!(pruned.hit_rate().to_bits(), plain.hit_rate().to_bits());
        assert!((pruned.hit_rate() - 0.6).abs() < 1e-12);
        let s = pruned.to_string();
        assert!(s.contains("3 fallbacks, 2 pruned"), "{s}");
        assert!(s.contains("60% hit rate"), "{s}");
    }

    #[test]
    fn display_is_compact() {
        let stats = GenerationStats {
            generation: 3,
            best_fitness: 0.5,
            mean_fitness: 0.25,
            evaluations: 42,
        };
        let s = stats.to_string();
        assert!(s.contains("gen") && s.contains("42 evals"), "{s}");
    }
}
