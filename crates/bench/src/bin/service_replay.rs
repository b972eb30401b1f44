//! Service replay harness: drives a mixed multi-tenant workload through
//! `evotc_service` and proves the robustness claims with numbers.
//!
//! The replay has five phases:
//!
//! 1. **Fresh wave** — distinct jobs across three tenants; all must
//!    complete fresh, byte-identical to the single-threaded
//!    [`run_spec`] oracle.
//! 2. **Duplicate wave** — the same specs resubmitted; every one must be
//!    served from the cross-run result cache with the oracle's bytes.
//! 3. **Hostile budgets** — wall-clock budgets below the admissible
//!    floor; every one must be a typed `DeadlineInfeasible` rejection.
//! 4. **Faulty tenant** — jobs with planned injected faults; the ones
//!    inside the retry budget must complete identically after backoff,
//!    the one beyond it must settle as `RetriesExhausted`.
//! 5. **Shed cycle** — a long preemptible job preempted by a filler burst
//!    over the high-water mark; it must resume from its checkpoint and
//!    finish byte-identical to an uninterrupted run.
//!
//! Afterwards the zero-lost-jobs identity is enforced: every submission
//! ended in exactly one of completed / cache-hit / typed-rejected /
//! permanently-failed. Writes `BENCH_service.json` with throughput,
//! latency percentiles (p50/p95/p99) and the shed/retry/cache counters.
//! With `--check-only` a smaller workload runs the same gates plus a
//! shape check on the JSON it would write and a p99-under-budget check, and
//! writes no file; exits non-zero on any failure.
//!
//! ```text
//! cargo run --release -p evotc_bench --bin service_replay [-- --check-only]
//! ```

use std::collections::HashMap;
use std::time::{Duration, Instant};

use evotc_bits::TestSet;
use evotc_service::{
    run_spec, BackoffPolicy, BreakerPolicy, JobId, JobOutcome, JobResultData, JobSpec, Provenance,
    Rejected, Service, ServiceConfig, TenantId,
};

/// `--check-only` ceiling on the completed-job p99 latency. Generous: the
/// jobs are milliseconds each even in debug builds, but backoff delays and
/// shed cycles are real wall time on a loaded CI runner.
const P99_BUDGET: Duration = Duration::from_secs(10);

fn fail(msg: &str) -> ! {
    eprintln!("service_replay: FAIL: {msg}");
    std::process::exit(1);
}

/// Deterministic small test set, content varying with `salt`.
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
    TestSet::parse(&rows).expect("generated rows are well-formed")
}

fn spec(tenant: u32, salt: u64) -> JobSpec {
    JobSpec::new(TenantId(tenant), patterns(salt), 8, 4, salt ^ 0xD47E)
}

struct ReplayNumbers {
    attempted: u64,
    completed_fresh: u64,
    cache_hits: u64,
    rejected_deadline: u64,
    rejected_other: u64,
    failed: u64,
    retries: u64,
    sheds: u64,
    checkpoint_failures: u64,
    latencies: Vec<Duration>,
    elapsed: Duration,
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

fn replay(check_only: bool) -> ReplayNumbers {
    let distinct = if check_only { 9 } else { 24 };
    let hostile = if check_only { 3 } else { 6 };
    let faulty = if check_only { 3 } else { 6 };

    let started = Instant::now();

    // ---- Phases 1-4: the mixed wave on a shared four-worker pool. ----
    let service = Service::start(
        ServiceConfig::builder()
            .workers(4)
            .queue_capacity(64)
            .tenant_quota(32)
            .min_budget(Duration::from_millis(50))
            .backoff(BackoffPolicy {
                base: Duration::from_millis(5),
                factor: 2,
                cap: Duration::from_millis(40),
                max_retries: 2,
            })
            // The faulty wave deliberately racks up injected failures on
            // one tenant; the breaker walk has its own gating tests, so
            // here it only needs to stay out of the retry path's way.
            .breaker(BreakerPolicy {
                failure_threshold: 64,
                ..BreakerPolicy::default()
            })
            .build(),
    );

    // Phase 1: distinct fresh jobs. Remember each id's oracle digest.
    let specs: Vec<JobSpec> = (0..distinct)
        .map(|i| spec((i % 3) as u32, 100 + i as u64))
        .collect();
    let oracles: Vec<JobResultData> = specs
        .iter()
        .map(|s| run_spec(s).unwrap_or_else(|e| fail(&format!("oracle run: {e:?}"))))
        .collect();
    let mut expect: HashMap<JobId, usize> = HashMap::new();
    for (i, s) in specs.iter().enumerate() {
        let id = service
            .submit(s.clone())
            .unwrap_or_else(|r| fail(&format!("fresh wave rejected: {r:?}")));
        expect.insert(id, i);
    }
    service.drain();
    let fresh_completed = service.stats().completed_fresh;
    if fresh_completed != distinct as u64 {
        fail(&format!(
            "fresh wave: {fresh_completed}/{distinct} completed"
        ));
    }

    // Phase 2: exact duplicates — every submission must be a cache hit.
    for (i, s) in specs.iter().enumerate() {
        let id = service
            .submit(s.clone())
            .unwrap_or_else(|r| fail(&format!("duplicate wave rejected: {r:?}")));
        expect.insert(id, i);
    }
    let hits = service.stats().cache_hits;
    if hits != distinct as u64 {
        fail(&format!("duplicate wave: {hits}/{distinct} cache hits"));
    }

    // Phase 3: hostile budgets below the admissible floor.
    for i in 0..hostile {
        let mut s = spec(3, 300 + i as u64);
        s.budget = Some(Duration::from_millis(1));
        match service.submit(s) {
            Err(Rejected::DeadlineInfeasible { .. }) => {}
            other => fail(&format!(
                "hostile budget was not rejected as infeasible: {other:?}"
            )),
        }
    }

    // Phase 4: the faulty tenant. Jobs inside the retry budget (1-2
    // planned faults) must complete identically; one beyond it must
    // exhaust its retries.
    let mut retried_ids = Vec::new();
    for i in 0..faulty {
        let salt = 400 + i as u64;
        let mut s = spec(4, salt);
        s.planned_faults = 1 + (i as u32 % 2);
        let clean = {
            let mut c = s.clone();
            c.planned_faults = 0;
            c
        };
        let oracle = run_spec(&clean).unwrap_or_else(|e| fail(&format!("oracle run: {e:?}")));
        let id = service
            .submit(s)
            .unwrap_or_else(|r| fail(&format!("faulty wave rejected: {r:?}")));
        retried_ids.push((id, 1 + (i as u32 % 2), oracle));
    }
    let mut doomed = spec(4, 499);
    doomed.planned_faults = 10; // beyond max_retries = 2
    let doomed_id = service
        .submit(doomed)
        .unwrap_or_else(|r| fail(&format!("doomed job rejected: {r:?}")));
    let outcome = service.shutdown();
    if !outcome.stats.accounted() {
        fail(&format!("mixed wave lost jobs: {:?}", outcome.stats));
    }

    let by_id: HashMap<JobId, _> = outcome.reports.iter().map(|r| (r.id, r)).collect();
    for (id, oracle_idx) in &expect {
        let report = by_id
            .get(id)
            .unwrap_or_else(|| fail(&format!("no report for {id}")));
        match &report.outcome {
            JobOutcome::Completed { data, .. } => {
                let want = &oracles[*oracle_idx];
                if data != want || data.digest() != want.digest() {
                    fail(&format!("{id}: result diverged from the oracle"));
                }
            }
            other => fail(&format!("{id} did not complete: {other:?}")),
        }
    }
    let dup_hits = expect
        .keys()
        .filter(|id| {
            matches!(
                by_id[id].outcome,
                JobOutcome::Completed {
                    provenance: Provenance::Cache { .. },
                    ..
                }
            )
        })
        .count();
    if dup_hits != distinct {
        fail(&format!(
            "{dup_hits}/{distinct} duplicates were cache-served"
        ));
    }
    for (id, faults, oracle) in &retried_ids {
        let report = by_id
            .get(id)
            .unwrap_or_else(|| fail(&format!("no report for faulty {id}")));
        if report.attempts != faults + 1 {
            fail(&format!(
                "{id}: {} attempts for {faults} planned faults",
                report.attempts
            ));
        }
        match &report.outcome {
            JobOutcome::Completed { data, .. } if data == oracle => {}
            other => fail(&format!("retried {id} diverged: {other:?}")),
        }
    }
    match &by_id
        .get(&doomed_id)
        .unwrap_or_else(|| fail("no report for the doomed job"))
        .outcome
    {
        JobOutcome::Failed(evotc_service::JobError::RetriesExhausted { attempts, .. }) => {
            if *attempts != 3 {
                fail(&format!("doomed job made {attempts} attempts, expected 3"));
            }
        }
        other => fail(&format!("doomed job did not exhaust retries: {other:?}")),
    }

    // ---- Phase 5: shed / checkpoint / resume on a one-worker pool. ----
    let shed_service = Service::start(
        ServiceConfig::builder()
            .workers(1)
            .queue_capacity(16)
            .high_water(2)
            .checkpoint_interval(3)
            .cache_capacity(0)
            .build(),
    );
    let mut long = spec(5, 500);
    long.stagnation_limit = 2_000;
    long.max_evaluations = 30_000;
    let long_oracle = run_spec(&long).unwrap_or_else(|e| fail(&format!("oracle run: {e:?}")));
    let long_id = shed_service
        .submit(long)
        .unwrap_or_else(|r| fail(&format!("long job rejected: {r:?}")));
    while shed_service.running_count() == 0 {
        std::thread::yield_now();
    }
    for i in 0..4u64 {
        shed_service
            .submit(spec(6, 600 + i))
            .unwrap_or_else(|r| fail(&format!("filler rejected: {r:?}")));
    }
    let shed_outcome = shed_service.shutdown();
    if !shed_outcome.stats.accounted() {
        fail(&format!("shed wave lost jobs: {:?}", shed_outcome.stats));
    }
    let long_report = shed_outcome
        .reports
        .iter()
        .find(|r| r.id == long_id)
        .unwrap_or_else(|| fail("no report for the long job"));
    if long_report.shed_cycles == 0 {
        fail("the filler burst never shed the long job");
    }
    match &long_report.outcome {
        JobOutcome::Completed { data, .. }
            if data == &long_oracle && data.digest() == long_oracle.digest() => {}
        other => fail(&format!(
            "shed job diverged from the uninterrupted oracle: {other:?}"
        )),
    }

    let elapsed = started.elapsed();
    let mut latencies: Vec<Duration> = outcome
        .reports
        .iter()
        .chain(shed_outcome.reports.iter())
        .filter(|r| matches!(r.outcome, JobOutcome::Completed { .. }))
        .map(|r| r.latency())
        .collect();
    latencies.sort();

    ReplayNumbers {
        attempted: outcome.stats.attempted + shed_outcome.stats.attempted,
        completed_fresh: outcome.stats.completed_fresh + shed_outcome.stats.completed_fresh,
        cache_hits: outcome.stats.cache_hits + shed_outcome.stats.cache_hits,
        rejected_deadline: outcome.stats.rejected_deadline,
        rejected_other: outcome.stats.rejected_total() + shed_outcome.stats.rejected_total()
            - outcome.stats.rejected_deadline,
        failed: outcome.stats.failed + shed_outcome.stats.failed,
        retries: outcome.stats.retries + shed_outcome.stats.retries,
        sheds: outcome.stats.sheds + shed_outcome.stats.sheds,
        checkpoint_failures: outcome.stats.checkpoint_failures
            + shed_outcome.stats.checkpoint_failures,
        latencies,
        elapsed,
    }
}

fn bench_json(n: &ReplayNumbers) -> String {
    let completed = n.completed_fresh + n.cache_hits;
    let p50 = percentile(&n.latencies, 50.0);
    let p95 = percentile(&n.latencies, 95.0);
    let p99 = percentile(&n.latencies, 99.0);
    let json = format!(
        "{{\n  \"bench\": \"service_replay\",\n  \"jobs\": {{\"attempted\": {}, \
         \"completed_fresh\": {}, \"cache_hits\": {}, \"failed\": {}}},\n  \
         \"rejected\": {{\"deadline_infeasible\": {}, \"other\": {}}},\n  \
         \"retries\": {},\n  \"sheds\": {},\n  \"checkpoint_failures\": {},\n  \
         \"latency\": {{\"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}}},\n  \
         \"throughput_jobs_per_sec\": {:.1},\n  \"elapsed_sec\": {:.3}\n}}\n",
        n.attempted,
        n.completed_fresh,
        n.cache_hits,
        n.failed,
        n.rejected_deadline,
        n.rejected_other,
        n.retries,
        n.sheds,
        n.checkpoint_failures,
        p50.as_micros(),
        p95.as_micros(),
        p99.as_micros(),
        completed as f64 / n.elapsed.as_secs_f64(),
        n.elapsed.as_secs_f64(),
    );
    json
}

fn main() {
    let check_only = evotc_bench::check_only_arg("service_replay");
    let numbers = replay(check_only);

    let completed = numbers.completed_fresh + numbers.cache_hits;
    println!(
        "{} submissions: {} fresh, {} cache hits, {} failed, {} rejected \
         ({} infeasible-deadline); {} retries, {} sheds",
        numbers.attempted,
        numbers.completed_fresh,
        numbers.cache_hits,
        numbers.failed,
        numbers.rejected_deadline + numbers.rejected_other,
        numbers.rejected_deadline,
        numbers.retries,
        numbers.sheds,
    );
    println!(
        "latency p50 {:?} / p95 {:?} / p99 {:?}, {:.1} completed jobs/sec over {:.3}s",
        percentile(&numbers.latencies, 50.0),
        percentile(&numbers.latencies, 95.0),
        percentile(&numbers.latencies, 99.0),
        completed as f64 / numbers.elapsed.as_secs_f64(),
        numbers.elapsed.as_secs_f64(),
    );
    let json = bench_json(&numbers);

    if check_only {
        // Shape gate on the JSON the timed mode writes.
        for key in [
            "\"bench\": \"service_replay\"",
            "\"p50_us\"",
            "\"p95_us\"",
            "\"p99_us\"",
            "\"throughput_jobs_per_sec\"",
            "\"retries\"",
            "\"sheds\"",
            "\"cache_hits\"",
            "\"deadline_infeasible\"",
        ] {
            if !json.contains(key) {
                fail(&format!("BENCH_service.json is missing {key}"));
            }
        }
        let p99 = percentile(&numbers.latencies, 99.0);
        if p99 > P99_BUDGET {
            fail(&format!(
                "completed-job p99 {p99:?} exceeds the {P99_BUDGET:?} budget"
            ));
        }
        println!(
            "service_replay --check-only: OK (zero lost jobs, oracle-identical results, \
             p99 {p99:?} under budget)"
        );
    } else {
        let path = "BENCH_service.json";
        match std::fs::write(path, &json) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("could not write {path}: {e} (numbers are above)"),
        }
    }
}
