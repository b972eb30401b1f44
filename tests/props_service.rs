//! Property tests gating the service's byte-identity contract: a completed
//! job's result is a pure function of its `JobSpec` — equal to the
//! uninterrupted single-attempt reference executor (`run_spec`) —
//! regardless of
//!
//! * worker count (1, 2, 4): queue interleaving and settle order change,
//!   results do not;
//! * retries after injected faults (`planned_faults`): the re-attempt
//!   replays the same seeded trajectory;
//! * shed/checkpoint/resume cycles: a preempted job resumes from an
//!   on-trajectory `EaCheckpoint` and rejoins the uninterrupted run
//!   byte-for-byte.
//!
//! Identity is compared through `JobResultData::digest()` (genome content
//! hash + fitness bits + deterministic counters) *and* structural
//! equality, keyed by `JobId` — job ids are assigned in submission order,
//! which is deterministic here because each test submits from one thread.

use evotc::bits::TestSet;
use evotc::service::{
    run_spec, BackoffPolicy, JobOutcome, JobReport, JobSpec, Service, ServiceConfig, TenantId,
};
use proptest::prelude::*;

/// A small but non-degenerate test set whose content varies with `salt`,
/// so different property cases exercise different histograms.
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

fn spec(tenant: u32, salt: u64, seed: u64) -> JobSpec {
    JobSpec::new(TenantId(tenant), patterns(salt), 8, 4, seed)
}

/// Pulls the completed payload out of a report, failing the test on any
/// other outcome.
fn completed(report: &JobReport) -> &evotc::service::JobResultData {
    match &report.outcome {
        JobOutcome::Completed { data, .. } => data,
        other => panic!("job {} did not complete: {other:?}", report.id),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn results_are_byte_identical_across_worker_counts(salt in 0u64..1000) {
        let specs: Vec<JobSpec> = (0..3)
            .map(|i| spec(i as u32, salt.wrapping_add(i), salt ^ i))
            .collect();
        let reference: Vec<_> = specs
            .iter()
            .map(|s| run_spec(s).expect("reference run completes"))
            .collect();
        for workers in [1usize, 2, 4] {
            let service = Service::start(ServiceConfig::builder().workers(workers).build());
            let ids: Vec<_> = specs
                .iter()
                .map(|s| service.submit(s.clone()).expect("empty service admits"))
                .collect();
            let outcome = service.shutdown();
            prop_assert!(outcome.stats.accounted(), "lost jobs: {:?}", outcome.stats);
            prop_assert_eq!(outcome.reports.len(), specs.len());
            for (report, (id, want)) in outcome.reports.iter().zip(ids.iter().zip(&reference)) {
                prop_assert_eq!(report.id, *id);
                let got = completed(report);
                prop_assert_eq!(got, want, "workers={}", workers);
                prop_assert_eq!(got.digest(), want.digest());
            }
        }
    }

    #[test]
    fn retry_after_injected_faults_is_byte_identical(
        salt in 0u64..1000,
        faults in 1u32..3,
    ) {
        let mut faulty = spec(1, salt, salt);
        faulty.planned_faults = faults;
        // `run_spec` never injects: it is the fault-free oracle.
        let want = run_spec(&faulty).expect("reference run completes");
        // Virtual time: the backoff delays between attempts are walked by
        // the worker pool's auto-advance instead of slept through.
        let service = Service::start(
            ServiceConfig::builder()
                .workers(2)
                .backoff(BackoffPolicy {
                    max_retries: faults,
                    ..BackoffPolicy::default()
                })
                .virtual_time()
                .build(),
        );
        let id = service.submit(faulty).expect("empty service admits");
        let outcome = service.shutdown();
        prop_assert!(outcome.stats.accounted(), "lost jobs: {:?}", outcome.stats);
        let report = &outcome.reports[0];
        prop_assert_eq!(report.id, id);
        prop_assert_eq!(report.attempts, faults + 1, "one attempt per fault, then success");
        prop_assert_eq!(outcome.stats.retries, u64::from(faults));
        let got = completed(report);
        prop_assert_eq!(got, &want);
        prop_assert_eq!(got.digest(), want.digest());
    }

    #[test]
    fn shed_checkpoint_resume_is_byte_identical(salt in 0u64..1000) {
        // One deliberately long preemptible job on a one-worker service
        // with a low high-water mark: filler submissions push the queue
        // over it, which sheds (checkpoints + re-admits) the long job.
        let mut long = spec(1, salt, salt);
        long.stagnation_limit = 2_000;
        long.max_evaluations = 30_000;
        let want = run_spec(&long).expect("reference run completes");
        let service = Service::start(
            ServiceConfig::builder()
                .workers(1)
                .queue_capacity(16)
                .high_water(2)
                .checkpoint_interval(3)
                .cache_capacity(0) // fillers share specs; keep every run fresh
                .build(),
        );
        let long_id = service.submit(long).expect("empty service admits");
        // Wait until the long job is actually on the worker, so the sheds
        // target it and not an empty running set.
        while service.running_count() == 0 {
            std::thread::yield_now();
        }
        // Fillers are not preemptible: once the long job's shed settles,
        // the worker may start a filler before the last submission pushes
        // the queue past the high-water mark again, and only the long job
        // may be shed then.
        for i in 0..4u64 {
            let mut filler = spec(2, salt.wrapping_add(100 + i), i);
            filler.preemptible = false;
            service.submit(filler).expect("queue has room for fillers");
        }
        let outcome = service.shutdown();
        prop_assert!(outcome.stats.accounted(), "lost jobs: {:?}", outcome.stats);
        let report = outcome
            .reports
            .iter()
            .find(|r| r.id == long_id)
            .expect("long job settled");
        prop_assert!(
            report.shed_cycles >= 1,
            "filler burst never preempted the long job (shed_cycles = {})",
            report.shed_cycles
        );
        prop_assert_eq!(outcome.stats.sheds, u64::from(report.shed_cycles));
        let got = completed(report);
        prop_assert_eq!(got, &want, "resume diverged from the uninterrupted run");
        prop_assert_eq!(got.digest(), want.digest());
    }
}
