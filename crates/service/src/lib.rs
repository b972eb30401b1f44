//! Compression-as-a-service: a fault-tolerant multi-tenant batch job
//! runtime over the EA engine.
//!
//! The paper's flow is one-shot — one test set in, one compressed set out.
//! This crate is the production wrapper the ROADMAP's north star asks for:
//! many tenants submitting many test sets against one bounded [`Service`],
//! with typed admission control instead of unbounded queues, a shared
//! worker pool, retry with capped exponential backoff, per-tenant circuit
//! breakers, checkpoint-based overload shedding, and a cross-run
//! content-keyed result cache that dedupes the duplicate submissions
//! CI-driven traffic produces constantly.
//!
//! # The determinism contract
//!
//! The service's load-bearing invariant, stated once here and enforced by
//! `tests/props_service.rs`:
//!
//! > A **completed** job's [`JobResultData`] is a pure function of its
//! > [`JobSpec`] — byte-identical regardless of worker count, queue
//! > interleaving, retries after faults, shed/checkpoint/resume cycles,
//! > or whether it was served fresh or from the result cache.
//!
//! Three design decisions carry it: every attempt runs the EA
//! single-threaded on the spec's seed (job-level parallelism comes from
//! the pool, not from intra-job threading); preemption resumes from
//! on-trajectory [`evotc_evo::EaCheckpoint`]s, which the engine resumes
//! byte-identically; and wall-clock-dependent stops (budget deadlines)
//! are *failures*, never partial results. What is deliberately **not**
//! deterministic: wall-clock latencies, which duplicate of a racing pair
//! populates the cache (both compute the same bytes), and shed/retry
//! counts under a real clock — all observability, none of it result
//! content.
//!
//! # Quick tour
//!
//! ```
//! use evotc_bits::TestSet;
//! use evotc_service::{JobOutcome, JobSpec, Service, ServiceConfig, TenantId};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let service = Service::start(ServiceConfig::builder().workers(2).build());
//! let patterns = TestSet::parse(&["110100XX", "110000XX", "1101XXXX"])?;
//! let id = service
//!     .submit(JobSpec::new(TenantId(1), patterns, 8, 4, 3))
//!     .expect("empty service admits");
//! let outcome = service.shutdown();
//! let report = &outcome.reports[0];
//! assert_eq!(report.id, id);
//! assert!(matches!(report.outcome, JobOutcome::Completed { .. }));
//! # Ok(())
//! # }
//! ```
//!
//! Module map: [`job`](crate::JobSpec) defines the vocabulary and the
//! per-attempt executor; `queue` the ready queue and deferred retries;
//! `service` admission, the worker pool, supervision, and shedding;
//! [`BackoffPolicy`], [`BreakerPolicy`]/[`CircuitBreaker`], `cache`, and
//! [`ServiceClock`] are the policy pieces, each unit-tested in isolation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backoff;
mod breaker;
mod cache;
mod clock;
mod job;
mod queue;
mod service;

pub use backoff::BackoffPolicy;
pub use breaker::{BreakerAdmission, BreakerPolicy, BreakerState, CircuitBreaker};
pub use cache::{CachedResult, ResultCache};
pub use clock::ServiceClock;
pub use job::{
    run_spec, JobError, JobId, JobOutcome, JobReport, JobResultData, JobSpec, Provenance, Rejected,
    TenantId,
};
pub use service::{Service, ServiceConfig, ServiceConfigBuilder, ServiceOutcome, StatsSnapshot};
