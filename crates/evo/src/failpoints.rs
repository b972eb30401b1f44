//! Deterministic fault injection (compiled only under the `failpoints`
//! cargo feature).
//!
//! A *failpoint* is a named site in production code that asks this registry
//! "should I fail now?" on every pass. Tests arm a site with a
//! [`FailSpec`] — fail on exactly the n-th hit, or on every hit — and the
//! site then triggers its failure path (an evaluator panic, a forced cache
//! miss, a checkpoint-sink IO error) at a *deterministic, seeded* point of
//! the run instead of at a random one. Without the feature the query
//! functions do not exist and the sites compile to nothing.
//!
//! The registry is global (one process-wide table), so tests that arm
//! failpoints must serialize themselves — `tests/fault_injection.rs` and
//! `tests/service_fault_injection.rs` share one mutex each — and should
//! [`reset`] the table when done.
//!
//! **Arming order matters when threads are involved.** [`arm`] resets the
//! site's hit counter, so a site must be armed *before* any thread that
//! passes it is spawned (or at least before work reaches the site):
//! arming after spawn races the counter, and a [`FailSpec::Nth`] spec can
//! land on a different pass than the test intended — or on none at all.
//! Concretely: arm engine sites before calling `run()`, and arm
//! `service::*` sites before `Service::start` (the workers begin passing
//! `service::worker_pick` as soon as jobs are admitted). [`reset`]
//! likewise belongs after every spawned thread has been joined.
//!
//! Hit counting is per *call site pass*, which for evaluator sites means
//! one hit per batch — an initial population or one generation's children
//! of one island. Island workers interleave their islands' batches, so
//! tests that need the n-th hit to land on a specific island pin
//! `threads(1)` (service jobs always do).

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// When an armed failpoint fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailSpec {
    /// Fire on exactly the n-th hit after arming (1-based), then never
    /// again until re-armed.
    Nth(u64),
    /// Fire on every hit.
    Always,
}

/// Well-known failpoint site names, so tests and call sites cannot drift
/// apart on a typo.
pub mod site {
    /// In the engine's checkpoint save path: forces the sink result to an
    /// IO error. The run must count it and continue.
    pub const CHECKPOINT_SINK: &str = "evo::checkpoint_sink";
    /// In `evotc_core`'s batch evaluator: panics mid-evaluation, poisoning
    /// the island that ran it.
    pub const CORE_EVALUATE: &str = "core::evaluate_batch";
    /// In `evotc_core`'s shared-cache probe: forces a probe mismatch (the
    /// corruption-detection answer), so the evaluator must take the
    /// rebuild/fallback path. Scores must not change.
    pub const CORE_CACHE_PROBE: &str = "core::cache_probe";
    /// In the service's admission pipeline: simulates a full queue, so the
    /// submission is rejected with the typed queue-full error regardless
    /// of actual occupancy.
    pub const SERVICE_ENQUEUE: &str = "service::enqueue";
    /// In the service worker's job pick-up: fails the picked attempt with
    /// a retryable injected fault before the EA starts. Hit once per
    /// attempt pick.
    pub const SERVICE_WORKER_PICK: &str = "service::worker_pick";
    /// In the service's result-cache probe at admission: forces a miss, so
    /// a duplicate submission recomputes instead of hitting the cache.
    /// Results must not change (the cache is pure dedupe).
    pub const SERVICE_RESULT_CACHE_PROBE: &str = "service::result_cache_probe";
}

#[derive(Default)]
struct Site {
    hits: u64,
    armed: Option<FailSpec>,
}

fn registry() -> &'static Mutex<HashMap<String, Site>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, Site>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

fn with_registry<T>(f: impl FnOnce(&mut HashMap<String, Site>) -> T) -> T {
    // A panic raised *by* a failpoint never holds the lock (hit() returns
    // before the caller panics), but a panicking test elsewhere might;
    // recover instead of cascading poison across the suite.
    let mut guard = registry().lock().unwrap_or_else(|e| e.into_inner());
    f(&mut guard)
}

/// Arms `site` with `spec`, resetting its hit counter so [`FailSpec::Nth`]
/// counts from the next hit.
pub fn arm(site: &str, spec: FailSpec) {
    with_registry(|map| {
        let entry = map.entry(site.to_string()).or_default();
        entry.hits = 0;
        entry.armed = Some(spec);
    });
}

/// Disarms `site` (hit counting continues).
pub fn disarm(site: &str) {
    with_registry(|map| {
        if let Some(entry) = map.get_mut(site) {
            entry.armed = None;
        }
    });
}

/// Disarms every site and clears all hit counters.
pub fn reset() {
    with_registry(|map| map.clear());
}

/// Number of times `site` was passed since it was last armed (or since
/// process start, if never armed).
pub fn hits(site: &str) -> u64 {
    with_registry(|map| map.get(site).map_or(0, |entry| entry.hits))
}

/// Called by the instrumented site on every pass: counts the hit and
/// reports whether the site should fail now.
pub fn hit(site: &str) -> bool {
    with_registry(|map| {
        let entry = map.entry(site.to_string()).or_default();
        entry.hits += 1;
        match entry.armed {
            Some(FailSpec::Nth(n)) => entry.hits == n,
            Some(FailSpec::Always) => true,
            None => false,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// The registry is process-global; serialize the unit tests on it.
    fn lock() -> MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn unarmed_sites_never_fire_but_count() {
        let _gate = lock();
        reset();
        assert!(!hit("test::a"));
        assert!(!hit("test::a"));
        assert_eq!(hits("test::a"), 2);
        reset();
    }

    #[test]
    fn nth_fires_exactly_once() {
        let _gate = lock();
        reset();
        arm("test::b", FailSpec::Nth(3));
        assert_eq!(
            (0..5).map(|_| hit("test::b")).collect::<Vec<_>>(),
            [false, false, true, false, false]
        );
        reset();
    }

    #[test]
    fn always_fires_until_disarmed_and_arming_resets_the_count() {
        let _gate = lock();
        reset();
        assert!(!hit("test::c"));
        arm("test::c", FailSpec::Always);
        assert_eq!(hits("test::c"), 0, "arming resets the counter");
        assert!(hit("test::c") && hit("test::c"));
        disarm("test::c");
        assert!(!hit("test::c"));
        assert_eq!(hits("test::c"), 3);
        reset();
    }
}
