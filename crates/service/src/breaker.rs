//! Per-tenant circuit breakers.
//!
//! A tenant whose jobs keep failing — a poisoned evaluator, a spec that
//! panics a worker every attempt — would, unchecked, consume the whole
//! pool in retries. The breaker is the classic three-state machine,
//! driven entirely by the service clock so every transition is
//! deterministic under virtual time:
//!
//! * **Closed** — failures are counted; `failure_threshold` *consecutive*
//!   failures (any attempt-level failure: a retryable fault or a permanent
//!   one) trip the breaker open. Any success resets the count.
//! * **Open** — admission rejects the tenant's submissions with
//!   [`crate::Rejected::CircuitOpen`] until `cooldown` has elapsed.
//! * **Half-open** — after the cooldown, exactly one submission is admitted
//!   as a *probe*; further submissions stay rejected while it is in
//!   flight. A successful probe closes the breaker; a failed probe
//!   re-opens it with the cooldown doubled (capped at `max_cooldown`).
//!
//! Jobs already queued when the breaker opens are not evicted — admission
//! control is the gate, not an executioner — so an open breaker caps the
//! tenant's *new* load while the in-flight tail drains normally.

use std::time::Duration;

/// Circuit-breaker policy knobs (per tenant; every tenant gets the same
/// policy, each with independent state).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerPolicy {
    /// Consecutive attempt failures that trip the breaker open.
    pub failure_threshold: u32,
    /// Initial open-state cooldown before a half-open probe is allowed.
    pub cooldown: Duration,
    /// Upper bound on the cooldown after repeated failed probes.
    pub max_cooldown: Duration,
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        BreakerPolicy {
            failure_threshold: 4,
            cooldown: Duration::from_millis(250),
            max_cooldown: Duration::from_secs(8),
        }
    }
}

/// Observable state of a tenant's breaker (see the `breaker` module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: submissions admitted, failures counted.
    Closed,
    /// Tripped: submissions rejected until the stored deadline.
    Open {
        /// Service-clock time at which the breaker becomes half-open.
        until: Duration,
    },
    /// Cooling down: one probe submission may be in flight.
    HalfOpen,
}

/// What admission may do with a tenant's submission right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerAdmission {
    /// Admit normally.
    Admit,
    /// Admit as the half-open probe (the caller must report the probe's
    /// outcome through [`CircuitBreaker::on_success`] /
    /// [`CircuitBreaker::on_failure`]).
    Probe,
    /// Reject; retry no earlier than the given service-clock time.
    Reject {
        /// When a retry can next be considered.
        retry_at: Duration,
    },
}

/// One tenant's breaker state machine.
#[derive(Debug)]
pub struct CircuitBreaker {
    policy: BreakerPolicy,
    state: State,
    /// Cooldown to apply on the next trip; doubles per failed probe.
    next_cooldown: Duration,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Closed { consecutive_failures: u32 },
    Open { until: Duration },
    HalfOpen { probe_in_flight: bool },
}

impl CircuitBreaker {
    /// A closed breaker under `policy`.
    pub fn new(policy: BreakerPolicy) -> Self {
        CircuitBreaker {
            policy,
            state: State::Closed {
                consecutive_failures: 0,
            },
            next_cooldown: policy.cooldown,
        }
    }

    /// The externally visible state at `now` (an expired open breaker
    /// reads as half-open).
    pub fn state(&self, now: Duration) -> BreakerState {
        match self.state {
            State::Closed { .. } => BreakerState::Closed,
            State::Open { until } if now < until => BreakerState::Open { until },
            State::Open { .. } | State::HalfOpen { .. } => BreakerState::HalfOpen,
        }
    }

    /// Decides admission for one submission at `now`, transitioning an
    /// expired open state to half-open. A [`BreakerAdmission::Probe`]
    /// answer reserves the probe slot — the caller must settle it.
    pub fn admit(&mut self, now: Duration) -> BreakerAdmission {
        match self.state {
            State::Closed { .. } => BreakerAdmission::Admit,
            State::Open { until } if now < until => BreakerAdmission::Reject { retry_at: until },
            State::Open { .. } => {
                self.state = State::HalfOpen {
                    probe_in_flight: true,
                };
                BreakerAdmission::Probe
            }
            State::HalfOpen { probe_in_flight } => {
                if probe_in_flight {
                    BreakerAdmission::Reject { retry_at: now }
                } else {
                    self.state = State::HalfOpen {
                        probe_in_flight: true,
                    };
                    BreakerAdmission::Probe
                }
            }
        }
    }

    /// Records a successful attempt: closes the breaker and resets both the
    /// failure count and the cooldown ladder.
    pub fn on_success(&mut self) {
        self.state = State::Closed {
            consecutive_failures: 0,
        };
        self.next_cooldown = self.policy.cooldown;
    }

    /// Records a failed attempt at `now`. In the closed state this counts
    /// toward the threshold; in the half-open state it re-opens with a
    /// doubled cooldown; in the open state (a queued-before-trip job
    /// failing late) it leaves the deadline as is.
    pub fn on_failure(&mut self, now: Duration) {
        match self.state {
            State::Closed {
                consecutive_failures,
            } => {
                let failures = consecutive_failures + 1;
                if failures >= self.policy.failure_threshold {
                    self.trip(now);
                } else {
                    self.state = State::Closed {
                        consecutive_failures: failures,
                    };
                }
            }
            State::HalfOpen { .. } => {
                self.next_cooldown = (self.next_cooldown * 2).min(self.policy.max_cooldown);
                self.trip(now);
            }
            State::Open { .. } => {}
        }
    }

    fn trip(&mut self, now: Duration) {
        self.state = State::Open {
            until: now.saturating_add(self.next_cooldown),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn breaker() -> CircuitBreaker {
        CircuitBreaker::new(BreakerPolicy {
            failure_threshold: 2,
            cooldown: ms(100),
            max_cooldown: ms(300),
        })
    }

    #[test]
    fn threshold_consecutive_failures_trip_the_breaker() {
        let mut b = breaker();
        assert_eq!(b.admit(ms(0)), BreakerAdmission::Admit);
        b.on_failure(ms(1));
        assert_eq!(b.admit(ms(2)), BreakerAdmission::Admit, "below threshold");
        b.on_failure(ms(3));
        assert_eq!(b.state(ms(4)), BreakerState::Open { until: ms(103) });
        assert_eq!(
            b.admit(ms(4)),
            BreakerAdmission::Reject { retry_at: ms(103) }
        );
    }

    #[test]
    fn success_resets_the_consecutive_count() {
        let mut b = breaker();
        b.on_failure(ms(1));
        b.on_success();
        b.on_failure(ms(2));
        assert_eq!(b.state(ms(3)), BreakerState::Closed, "count was reset");
    }

    #[test]
    fn half_open_admits_exactly_one_probe() {
        let mut b = breaker();
        b.on_failure(ms(0));
        b.on_failure(ms(0));
        assert_eq!(b.admit(ms(100)), BreakerAdmission::Probe, "cooldown over");
        assert!(matches!(b.admit(ms(101)), BreakerAdmission::Reject { .. }));
        b.on_success();
        assert_eq!(b.admit(ms(102)), BreakerAdmission::Admit);
    }

    #[test]
    fn failed_probe_doubles_the_cooldown_up_to_the_cap() {
        let mut b = breaker();
        b.on_failure(ms(0));
        b.on_failure(ms(0)); // open until 100, next cooldown 100
        assert_eq!(b.admit(ms(100)), BreakerAdmission::Probe);
        b.on_failure(ms(100)); // re-open with 200
        assert_eq!(b.state(ms(150)), BreakerState::Open { until: ms(300) });
        assert_eq!(b.admit(ms(300)), BreakerAdmission::Probe);
        b.on_failure(ms(300)); // re-open with 300 (capped, not 400)
        assert_eq!(b.state(ms(350)), BreakerState::Open { until: ms(600) });
        // A success anywhere resets the ladder back to the base cooldown.
        assert_eq!(b.admit(ms(600)), BreakerAdmission::Probe);
        b.on_success();
        b.on_failure(ms(700));
        b.on_failure(ms(700));
        assert_eq!(b.state(ms(701)), BreakerState::Open { until: ms(800) });
    }

    #[test]
    fn late_failures_while_open_do_not_extend_the_deadline() {
        let mut b = breaker();
        b.on_failure(ms(0));
        b.on_failure(ms(0));
        b.on_failure(ms(90)); // a queued-before-trip job failing late
        assert_eq!(b.state(ms(95)), BreakerState::Open { until: ms(100) });
    }
}
