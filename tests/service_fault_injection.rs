//! Fault-injection harness for the service layer (compile with
//! `--features failpoints`).
//!
//! Each test arms a `service::*` (or engine) failpoint *before*
//! `Service::start` — per the registry's arming-order rule — drives real
//! jobs into the failure path, and asserts the typed, accounted outcome:
//!
//! - a simulated full queue is a typed [`Rejected::QueueFull`], not a
//!   panic or a silent drop;
//! - an injected worker fault (`JobSpec::planned_faults`) retries with
//!   backoff and completes byte-identically to the fault-free oracle;
//! - a forced result-cache miss recomputes (same bytes) instead of
//!   corrupting anything;
//! - repeated failures trip the tenant's circuit breaker, which half-opens
//!   and closes deterministically on the virtual clock;
//! - checkpoint-sink failures are counted on the report, never fatal;
//! - a four-worker pool under mixed faults neither deadlocks nor loses a
//!   job: the zero-lost-jobs identity holds.
//!
//! The failpoint registry is process-global, so every test serializes on
//! one mutex and resets the registry after its workers have been joined.
#![cfg(feature = "failpoints")]

use std::time::Duration;

use evotc::bits::TestSet;
use evotc::evo::failpoints::{arm, disarm, reset, site, FailSpec};
use evotc::service::{
    run_spec, BackoffPolicy, BreakerPolicy, JobError, JobOutcome, JobReport, JobSpec, Provenance,
    Rejected, Service, ServiceConfig, TenantId,
};
use std::sync::{Mutex, MutexGuard};

fn gate() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    // A test that panicked while holding the gate poisons it; later tests
    // still need to run.
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

fn patterns(salt: u64) -> TestSet {
    let rows: Vec<String> = (0..6)
        .map(|i| {
            (0..8)
                .map(|j| match (salt.wrapping_mul(31) + i * 8 + j) % 5 {
                    0 => 'X',
                    1 | 2 => '1',
                    _ => '0',
                })
                .collect()
        })
        .collect();
    TestSet::parse(&rows).unwrap()
}

fn spec(tenant: u32, salt: u64) -> JobSpec {
    JobSpec::new(TenantId(tenant), patterns(salt), 8, 4, salt ^ 0x5eed)
}

fn completed(report: &JobReport) -> &evotc::service::JobResultData {
    match &report.outcome {
        JobOutcome::Completed { data, .. } => data,
        other => panic!("job {} did not complete: {other:?}", report.id),
    }
}

#[test]
fn enqueue_failpoint_is_a_typed_queue_full_rejection() {
    let _gate = gate();
    reset();
    arm(site::SERVICE_ENQUEUE, FailSpec::Always);
    let service = Service::start(
        ServiceConfig::builder()
            .workers(1)
            .queue_capacity(8)
            .build(),
    );
    match service.submit(spec(0, 1)) {
        Err(Rejected::QueueFull { capacity }) => assert_eq!(capacity, 8),
        other => panic!("expected the simulated queue-full rejection, got {other:?}"),
    }
    disarm(site::SERVICE_ENQUEUE);
    service.submit(spec(0, 1)).expect("disarmed site admits");
    let outcome = service.shutdown();
    assert!(outcome.stats.accounted(), "lost jobs: {:?}", outcome.stats);
    assert_eq!(outcome.stats.rejected_queue_full, 1);
    assert_eq!(outcome.stats.completed_fresh, 1);
    reset();
}

#[test]
fn injected_worker_fault_retries_and_completes_identically() {
    let _gate = gate();
    reset();
    let mut job = spec(1, 7);
    let want = run_spec(&job).expect("oracle run completes");
    // The first pick fails with the injected fault; the backoff retry's
    // pick passes and must replay the identical trajectory.
    job.planned_faults = 1;
    let service = Service::start(ServiceConfig::builder().workers(1).virtual_time().build());
    let id = service.submit(job).expect("empty service admits");
    let outcome = service.shutdown();
    assert!(outcome.stats.accounted(), "lost jobs: {:?}", outcome.stats);
    let report = &outcome.reports[0];
    assert_eq!(report.id, id);
    assert_eq!(report.attempts, 2, "one injected failure, then success");
    assert_eq!(outcome.stats.retries, 1);
    let got = completed(report);
    assert_eq!(got, &want);
    assert_eq!(got.digest(), want.digest());
    reset();
}

#[test]
fn forced_cache_miss_recomputes_the_same_bytes() {
    let _gate = gate();
    reset();
    arm(site::SERVICE_RESULT_CACHE_PROBE, FailSpec::Always);
    let service = Service::start(ServiceConfig::builder().workers(1).build());
    let first = service.submit(spec(2, 11)).expect("admitted");
    service.drain();
    // Identical spec, forced miss: a fresh recompute, not a cache hit.
    service.submit(spec(2, 11)).expect("admitted");
    service.drain();
    assert_eq!(service.stats().completed_fresh, 2);
    assert_eq!(service.stats().cache_hits, 0);
    // Disarmed, the duplicate is served from the cache, attributed to the
    // first writer, with the exact bytes the fresh runs produced.
    disarm(site::SERVICE_RESULT_CACHE_PROBE);
    service
        .submit(spec(2, 11))
        .expect("cache hit still returns Ok");
    let outcome = service.shutdown();
    assert!(outcome.stats.accounted(), "lost jobs: {:?}", outcome.stats);
    assert_eq!(outcome.stats.cache_hits, 1);
    assert_eq!(outcome.reports.len(), 3);
    let fresh = completed(&outcome.reports[0]);
    for report in &outcome.reports[1..] {
        assert_eq!(completed(report), fresh);
    }
    match &outcome.reports[2].outcome {
        JobOutcome::Completed {
            provenance: Provenance::Cache { source },
            ..
        } => assert_eq!(*source, first, "attributed to the first writer"),
        other => panic!("expected a cache-served completion, got {other:?}"),
    }
    reset();
}

#[test]
fn breaker_opens_and_half_opens_deterministically() {
    let _gate = gate();
    reset();
    let service = Service::start(
        ServiceConfig::builder()
            .workers(1)
            .cache_capacity(0)
            .backoff(BackoffPolicy {
                max_retries: 0,
                ..BackoffPolicy::default()
            })
            .breaker(BreakerPolicy {
                failure_threshold: 2,
                cooldown: Duration::from_millis(100),
                max_cooldown: Duration::from_secs(1),
            })
            .virtual_time()
            .build(),
    );
    // Two permanently failing jobs (no retry budget) trip the breaker at
    // virtual time zero.
    for salt in [20u64, 21] {
        let mut failing = spec(3, salt);
        failing.planned_faults = 1;
        service.submit(failing).expect("closed breaker admits");
    }
    service.drain();
    match service.submit(spec(3, 22)) {
        Err(Rejected::CircuitOpen { tenant, retry_at }) => {
            assert_eq!(tenant, TenantId(3));
            assert_eq!(
                retry_at,
                Duration::from_millis(100),
                "deterministic cooldown deadline on the virtual clock"
            );
        }
        other => panic!("expected the open-breaker rejection, got {other:?}"),
    }
    // After the cooldown the next submission is the half-open probe; its
    // success closes the breaker for good.
    service.advance_virtual(Duration::from_millis(100));
    let probe = service
        .submit(spec(3, 23))
        .expect("half-open probe admitted");
    service.drain();
    service
        .submit(spec(3, 24))
        .expect("closed again after the probe");
    let outcome = service.shutdown();
    assert!(outcome.stats.accounted(), "lost jobs: {:?}", outcome.stats);
    assert_eq!(outcome.stats.failed, 2);
    assert_eq!(outcome.stats.rejected_circuit, 1);
    assert_eq!(outcome.stats.completed_fresh, 2);
    let failed: Vec<_> = outcome
        .reports
        .iter()
        .filter(|r| matches!(r.outcome, JobOutcome::Failed(_)))
        .collect();
    assert_eq!(failed.len(), 2);
    for report in failed {
        match &report.outcome {
            JobOutcome::Failed(JobError::RetriesExhausted { attempts, last }) => {
                assert_eq!(*attempts, 1, "no retry budget");
                assert!(matches!(**last, JobError::Injected { .. }));
            }
            other => panic!("expected exhausted retries, got {other:?}"),
        }
    }
    assert!(outcome.reports.iter().any(|r| r.id == probe));
    reset();
}

#[test]
fn evaluator_panic_inside_a_job_is_retried_to_completion() {
    let _gate = gate();
    reset();
    let job = spec(4, 31);
    let want = run_spec(&job).expect("oracle run completes");
    // Fire a few evaluation batches into the first attempt: the worker's
    // panic net turns the island failure into a retryable fault, and the
    // retry (whose batches keep counting past the n-th) completes clean.
    arm(site::CORE_EVALUATE, FailSpec::Nth(3));
    let service = Service::start(ServiceConfig::builder().workers(1).virtual_time().build());
    service.submit(job).expect("empty service admits");
    let outcome = service.shutdown();
    assert!(outcome.stats.accounted(), "lost jobs: {:?}", outcome.stats);
    let report = &outcome.reports[0];
    assert_eq!(report.attempts, 2, "one poisoned attempt, then success");
    let got = completed(report);
    assert_eq!(got, &want);
    assert_eq!(got.digest(), want.digest());
    reset();
}

#[test]
fn checkpoint_sink_failures_are_counted_not_fatal() {
    let _gate = gate();
    reset();
    let job = spec(5, 41);
    let want = run_spec(&job).expect("oracle run completes");
    arm(site::CHECKPOINT_SINK, FailSpec::Always);
    let service = Service::start(
        ServiceConfig::builder()
            .workers(1)
            .checkpoint_interval(2)
            .build(),
    );
    service.submit(job).expect("empty service admits");
    let outcome = service.shutdown();
    assert!(outcome.stats.accounted(), "lost jobs: {:?}", outcome.stats);
    let report = &outcome.reports[0];
    assert!(
        report.checkpoint_failures > 0,
        "every periodic capture failed and must be counted"
    );
    assert_eq!(
        outcome.stats.checkpoint_failures,
        report.checkpoint_failures
    );
    let got = completed(report);
    assert_eq!(got, &want, "sink failures must not perturb the run");
    reset();
}

#[test]
fn four_worker_pool_under_mixed_faults_loses_no_jobs() {
    let _gate = gate();
    reset();
    let service = Service::start(
        ServiceConfig::builder()
            .workers(4)
            .queue_capacity(4)
            .cache_capacity(0)
            .backoff(BackoffPolicy {
                max_retries: 2,
                ..BackoffPolicy::default()
            })
            .virtual_time()
            .build(),
    );
    let mut submitted = 0u64;
    let mut rejected = 0u64;
    for salt in 0..12u64 {
        let mut job = spec((salt % 3) as u32, 50 + salt);
        // Every third job needs one retry; every sixth exhausts its budget.
        job.planned_faults = match salt % 6 {
            0 => 3,
            3 => 1,
            _ => 0,
        };
        match service.submit(job) {
            Ok(_) => submitted += 1,
            Err(Rejected::QueueFull { .. }) => rejected += 1,
            Err(other) => panic!("unexpected rejection: {other:?}"),
        }
    }
    // Shutdown returning at all is the no-deadlock assertion; the stats
    // identity is the no-lost-jobs one.
    let outcome = service.shutdown();
    assert!(outcome.stats.accounted(), "lost jobs: {:?}", outcome.stats);
    assert_eq!(outcome.stats.attempted, 12);
    assert_eq!(outcome.stats.admitted, submitted);
    assert_eq!(outcome.stats.rejected_queue_full, rejected);
    assert_eq!(outcome.reports.len() as u64, submitted);
    assert_eq!(
        outcome.stats.completed_fresh + outcome.stats.failed,
        submitted,
        "every admitted job settled terminally"
    );
    reset();
}
