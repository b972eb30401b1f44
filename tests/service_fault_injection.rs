//! Fault-injection harness for the service layer.
//!
//! Each test drives real jobs into a failure path through a seam the
//! service already has — a wall-clock budget that holds the only worker,
//! `JobSpec::planned_faults`, `cache_capacity(0)`, the virtual clock — and
//! asserts the typed, accounted outcome:
//!
//! - a full queue is a typed [`Rejected::QueueFull`], not a panic or a
//!   silent drop;
//! - an injected worker fault (`JobSpec::planned_faults`) retries with
//!   backoff and completes byte-identically to the fault-free oracle;
//! - a duplicate recomputes the same bytes without a result cache, and is
//!   served from the cache, attributed to its first writer, with one;
//! - repeated failures trip the tenant's circuit breaker, which half-opens
//!   and closes deterministically on the virtual clock;
//! - a four-worker pool under mixed faults neither deadlocks nor loses a
//!   job: the zero-lost-jobs identity holds.

use std::time::{Duration, Instant};

use evotc::bits::TestSet;
use evotc::service::{
    run_spec, BackoffPolicy, BreakerPolicy, JobError, JobOutcome, JobReport, JobResultData,
    JobSpec, Provenance, Rejected, Service, ServiceConfig, TenantId,
};

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

fn completed(report: &JobReport) -> &JobResultData {
    match &report.outcome {
        JobOutcome::Completed { data, .. } => data,
        other => panic!("job {} did not complete: {other:?}", report.id),
    }
}

#[test]
fn a_full_queue_is_a_typed_queue_full_rejection() {
    let service = Service::start(
        ServiceConfig::builder()
            .workers(1)
            .queue_capacity(1)
            .build(),
    );
    // Only its wall-clock budget stops this job, so it holds the one
    // worker for 300 ms whatever the build profile or the host's load.
    let mut held = spec(0, 1);
    held.stagnation_limit = usize::MAX;
    held.max_evaluations = u64::MAX;
    held.budget = Some(Duration::from_millis(300));
    held.preemptible = false;
    let held = service.submit(held).expect("empty service admits");
    let waited = Instant::now();
    while service.running_count() != 1 {
        assert!(
            waited.elapsed() < Duration::from_secs(10),
            "the held job never started"
        );
        std::thread::yield_now();
    }
    service
        .submit(spec(1, 2))
        .expect("the queue has one free slot");
    match service.submit(spec(1, 3)) {
        Err(Rejected::QueueFull { capacity }) => assert_eq!(capacity, 1),
        other => panic!("expected the queue-full rejection, got {other:?}"),
    }
    let outcome = service.shutdown();
    assert!(outcome.stats.accounted(), "lost jobs: {:?}", outcome.stats);
    assert_eq!(outcome.stats.rejected_queue_full, 1);
    assert_eq!(outcome.stats.completed_fresh, 1);
    assert_eq!(outcome.reports[0].id, held);
    assert_eq!(
        outcome.reports[0].outcome,
        JobOutcome::Failed(JobError::DeadlineExceeded)
    );
}

#[test]
fn injected_worker_fault_retries_and_completes_identically() {
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
}

#[test]
fn a_duplicate_recomputes_the_same_bytes_without_a_cache() {
    // No result cache: the duplicate is a fresh recompute.
    let uncached = Service::start(
        ServiceConfig::builder()
            .workers(1)
            .cache_capacity(0)
            .build(),
    );
    for _ in 0..2 {
        uncached.submit(spec(2, 11)).expect("admitted");
        uncached.drain();
    }
    let outcome = uncached.shutdown();
    assert!(outcome.stats.accounted(), "lost jobs: {:?}", outcome.stats);
    assert_eq!(outcome.stats.completed_fresh, 2);
    assert_eq!(outcome.stats.cache_hits, 0);
    let fresh = completed(&outcome.reports[0]).clone();
    assert_eq!(completed(&outcome.reports[1]), &fresh);

    // With the default cache, the duplicate is served from it, attributed
    // to the first writer, with the exact bytes the fresh runs produced.
    let cached = Service::start(ServiceConfig::builder().workers(1).build());
    let first = cached.submit(spec(2, 11)).expect("admitted");
    cached.drain();
    cached
        .submit(spec(2, 11))
        .expect("cache hit still returns Ok");
    let outcome = cached.shutdown();
    assert!(outcome.stats.accounted(), "lost jobs: {:?}", outcome.stats);
    assert_eq!(outcome.stats.completed_fresh, 1);
    assert_eq!(outcome.stats.cache_hits, 1);
    assert_eq!(completed(&outcome.reports[0]), &fresh);
    match &outcome.reports[1].outcome {
        JobOutcome::Completed {
            data,
            provenance: Provenance::Cache { source },
        } => {
            assert_eq!(*source, first, "attributed to the first writer");
            assert_eq!(data, &fresh);
        }
        other => panic!("expected a cache-served completion, got {other:?}"),
    }
}

#[test]
fn breaker_opens_and_half_opens_deterministically() {
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
}

#[test]
fn four_worker_pool_under_mixed_faults_loses_no_jobs() {
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
    let mut queue_full = 0u64;
    // Tenant 0's exhausted jobs can trip its breaker before the loop ends.
    let mut circuit_open = 0u64;
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
            Err(Rejected::QueueFull { .. }) => queue_full += 1,
            Err(Rejected::CircuitOpen { .. }) => circuit_open += 1,
            Err(other) => panic!("unexpected rejection: {other:?}"),
        }
    }
    // Shutdown returning at all is the no-deadlock assertion; the stats
    // identity is the no-lost-jobs one.
    let outcome = service.shutdown();
    assert!(outcome.stats.accounted(), "lost jobs: {:?}", outcome.stats);
    assert_eq!(outcome.stats.attempted, 12);
    assert_eq!(outcome.stats.admitted, submitted);
    assert_eq!(outcome.stats.rejected_queue_full, queue_full);
    assert_eq!(outcome.stats.rejected_circuit, circuit_open);
    assert_eq!(outcome.reports.len() as u64, submitted);
    assert_eq!(
        outcome.stats.completed_fresh + outcome.stats.failed,
        submitted,
        "every admitted job settled terminally"
    );
}
