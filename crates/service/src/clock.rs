//! Service time: monotonic wall-clock or deterministic virtual time.
//!
//! Every time-dependent policy of the service — retry backoff, circuit
//! breaker cooldowns, latency accounting — reads time through one
//! [`ServiceClock`], measured as a [`Duration`] since service start. The
//! production form wraps [`Instant`]; the virtual form is an atomic
//! nanosecond counter that only moves when something advances it, which is
//! what makes backoff and breaker transitions *testable without sleeping*:
//! a test advances the clock explicitly, and the worker pool auto-advances
//! it when every pending job is waiting out a backoff delay (there is
//! nothing else the virtual world could do but let time pass).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A clock the service reads relative time from. See the `clock` module
/// docs.
#[derive(Debug)]
pub enum ServiceClock {
    /// Real time: durations since the wrapped [`Instant`].
    Monotonic(Instant),
    /// Deterministic time: a nanosecond counter advanced explicitly (by
    /// tests) or by the worker pool (when only deferred work remains).
    Virtual(AtomicU64),
}

impl ServiceClock {
    /// A real-time clock starting now.
    pub fn monotonic() -> Self {
        ServiceClock::Monotonic(Instant::now())
    }

    /// A virtual clock starting at zero.
    pub fn virtual_time() -> Self {
        ServiceClock::Virtual(AtomicU64::new(0))
    }

    /// Time elapsed since service start.
    pub fn now(&self) -> Duration {
        match self {
            ServiceClock::Monotonic(start) => start.elapsed(),
            ServiceClock::Virtual(nanos) => Duration::from_nanos(nanos.load(Ordering::Acquire)),
        }
    }

    /// Whether this is a virtual clock.
    pub fn is_virtual(&self) -> bool {
        matches!(self, ServiceClock::Virtual(_))
    }

    /// Moves a virtual clock forward to at least `to` (never backward —
    /// concurrent advances race monotonically via `fetch_max`). No-op on a
    /// monotonic clock, where real time does the advancing.
    pub fn advance_to(&self, to: Duration) {
        if let ServiceClock::Virtual(nanos) = self {
            let target = u64::try_from(to.as_nanos()).unwrap_or(u64::MAX);
            nanos.fetch_max(target, Ordering::AcqRel);
        }
    }

    /// Moves a virtual clock forward by `by` from its current reading.
    /// No-op on a monotonic clock.
    pub fn advance_by(&self, by: Duration) {
        self.advance_to(self.now().saturating_add(by));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_starts_at_zero_and_only_moves_forward() {
        let clock = ServiceClock::virtual_time();
        assert!(clock.is_virtual());
        assert_eq!(clock.now(), Duration::ZERO);
        clock.advance_to(Duration::from_millis(5));
        assert_eq!(clock.now(), Duration::from_millis(5));
        clock.advance_to(Duration::from_millis(3)); // backward: ignored
        assert_eq!(clock.now(), Duration::from_millis(5));
        clock.advance_by(Duration::from_millis(2));
        assert_eq!(clock.now(), Duration::from_millis(7));
    }

    #[test]
    fn monotonic_clock_moves_by_itself_and_ignores_advances() {
        let clock = ServiceClock::monotonic();
        assert!(!clock.is_virtual());
        let t0 = clock.now();
        clock.advance_by(Duration::from_secs(3600));
        assert!(clock.now() < Duration::from_secs(1800) + t0);
    }
}
