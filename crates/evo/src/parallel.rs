//! Worker-thread resolution for island runs.
//!
//! The engine's only fan-out is across islands: every epoch, the islands of
//! an island-topology run are spread over at most `threads` scoped worker
//! threads, and each island scores its batches in one call on the worker
//! that owns it. A panmictic run is a single island, so it always runs on
//! the calling thread. This module turns the configured thread count
//! (`EaConfig::threads`, `0` = auto) into a concrete worker count.
//!
//! # Determinism contract
//!
//! The worker count decides only which islands run concurrently, never
//! what they compute: every island owns its RNG stream and population, and
//! migration happens between epochs on the coordinating thread. Results are
//! therefore bit-identical for every thread count; the contract is enforced
//! by `tests/parallel_determinism.rs`, `tests/island_determinism.rs`, and CI
//! running the suite under [`THREADS_ENV`]` = 1` as well.
//!
//! # Example
//!
//! ```
//! use evotc_evo::parallel;
//!
//! assert_eq!(parallel::resolve_threads(3), 3); // explicit counts are literal
//! assert!(parallel::resolve_threads(0) >= 1); // 0 = auto
//! ```

/// Environment variable overriding the automatic thread count (used when a
/// configuration asks for `threads = 0`). CI runs the test suite once
/// without it and once with `EVOTC_TEST_THREADS=1` to enforce the
/// determinism contract on every push.
pub const THREADS_ENV: &str = "EVOTC_TEST_THREADS";

/// Cap on the automatically resolved thread count: island workers are
/// spawned afresh every epoch, so past a handful of cores more threads only
/// add spawn cost.
const MAX_AUTO_THREADS: usize = 8;

/// Resolves a configured thread count to a concrete one.
///
/// `threads > 0` is taken literally. `threads = 0` means *auto*: the value
/// of [`THREADS_ENV`] when set to a positive integer, otherwise the
/// machine's available parallelism capped at 8.
pub fn resolve_threads(threads: usize) -> usize {
    if threads > 0 {
        return threads;
    }
    if let Some(n) = std::env::var(THREADS_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        return n;
    }
    std::thread::available_parallelism()
        .map(|n| n.get().min(MAX_AUTO_THREADS))
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_thread_counts_resolve_to_themselves() {
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(7), 7);
    }

    #[test]
    fn auto_resolves_to_a_positive_count() {
        assert!(resolve_threads(0) >= 1);
    }
}
