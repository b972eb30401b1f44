//! `service_mix`: a multi-tenant job stream into `Service`.
//!
//! The service runs `ServiceConfig::default()` (two workers, a 64-job
//! queue, a 128-entry result cache, checkpoints every 5 generations) with
//! one change: a high-water mark below capacity, so overload shedding
//! happens. Each pass starts a fresh service and sends it the same stream:
//!
//! * phase A, an **open loop**: [`PHASE_A_JOBS`] jobs due at a fixed
//!   [`OFFERED_RATE`], about a quarter of the measured capacity. Each job's
//!   latency is timed from its due time, so a generator stall counts
//!   against the service, and the generator's own lateness is reported;
//! * phase B, a **closed loop**: [`PHASE_B_JOBS`] jobs with [`OUTSTANDING`]
//!   kept in flight, below the queue bound and above the high-water mark.
//!
//! No job log or user scenario fixes the traffic, so the shares and the
//! job shape below are **assumed, not measured**. Each decides how much one
//! part of the service can move `jobs_per_s` and the latencies:
//!
//! * 25 % exact duplicates, drawn cube-skewed from a [`POOL`] of specs
//!   larger than the 128-entry result cache (some hit, some were evicted):
//!   the weight of the result cache and its admission probe;
//! * 8 % paper-budget jobs (K=12, L=64, stagnation 500): the weight of
//!   single-threaded EA work and of the periodic checkpoint capture;
//! * 1 % jobs with one planned fault, which retry and then complete: the
//!   retry/backoff path, kept small so it checks more than it costs;
//! * the rest `JobSpec::new` defaults (stagnation 25) on 32×64-bit
//!   synthetic sets, density 0.4, at K=8, L=16, about 2 ms each: the weight
//!   of per-job queue, admission and worker overhead.
//!
//! After timing, every completion's digest is checked against `run_spec`.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use evotc_service::{
    run_spec, JobId, JobOutcome, JobReport, JobSpec, Provenance, Rejected, Service, ServiceConfig,
    StatsSnapshot, TenantId,
};
use evotc_workloads::synth::{generate, SyntheticSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::common::{mix, ms, timed_setup, Digest, Outcome, RunArgs};
use crate::flow;
use crate::stats::{highest_tail, max, median, percentile};
use crate::trace::Tracer;

/// Phase-A offered load, jobs per second: about a quarter of the ~480
/// jobs/s the closed loop sustains on two cores. Nearer capacity the
/// median latency swung with the host's load: its quartile spread over
/// ten runs was 0.37 at 350 jobs/s and 0.55 at 250 jobs/s.
const OFFERED_RATE: f64 = 125.0;
/// Jobs in phase A (two seconds at the offered rate).
const PHASE_A_JOBS: usize = 250;
/// Jobs in phase B.
const PHASE_B_JOBS: usize = 1000;
/// Phase-B jobs kept in flight.
const OUTSTANDING: usize = 40;
/// Shedding high-water mark (the queue bound stays at the default 64).
const HIGH_WATER: usize = 32;
/// Tenants, assigned round-robin so no tenant nears its quota of 16.
const TENANTS: u64 = 16;
/// Distinct specs duplicates are drawn from: more than the cache holds.
const POOL: usize = 256;
/// Set-up repetitions whose median is `setup_s`.
const SETUPS: usize = 25;
/// Distinct paper-budget specs behind `service.checkpoint_tax_pct`.
const TAX_JOBS: usize = 24;

/// One job of the stream, before a tenant is assigned.
#[derive(Debug, Clone)]
struct Planned {
    spec: JobSpec,
    /// Whether `spec` carries a planned fault (its oracle runs without).
    faulty: bool,
}

struct Stream {
    phase_a: Vec<Planned>,
    phase_b: Vec<Planned>,
    /// Paper-budget specs for the checkpoint-tax measurement.
    tax: Vec<JobSpec>,
}

fn job_spec(seed: u64, salt: u64) -> JobSpec {
    let patterns = generate(&SyntheticSpec {
        width: 32,
        total_bits: 32 * 64,
        specified_density: 0.4,
        one_bias: 0.35,
        seed: mix(seed, salt),
    });
    JobSpec::new(TenantId(0), patterns, 8, 16, mix(seed, !salt))
}

/// The paper's shape and budget: K=12, L=64, stagnation 500.
fn paper_budget(mut spec: JobSpec) -> JobSpec {
    spec.k = 12;
    spec.l = 64;
    spec.stagnation_limit = 500;
    spec
}

/// Builds the seeded stream in the assumed shares of the module docs.
fn setup(seed: u64) -> Stream {
    let pool: Vec<JobSpec> = (0..POOL as u64).map(|i| job_spec(seed, i)).collect();
    let mut rng = StdRng::seed_from_u64(mix(seed, 0x5E41));
    let mut fresh = POOL as u64;
    let mut next = |roll: usize, rng: &mut StdRng| {
        fresh += 1;
        match roll {
            // Exact duplicates of pool specs, skewed toward a few hot ones:
            // those hit the cache, the cold ones were evicted.
            0..=24 => Planned {
                spec: pool[(rng.gen::<f64>().powi(3) * POOL as f64) as usize].clone(),
                faulty: false,
            },
            // Paper-budget jobs.
            25..=32 => Planned {
                spec: paper_budget(job_spec(seed, fresh)),
                faulty: false,
            },
            // One planned fault: retried after backoff, then completed.
            33 => {
                let mut spec = job_spec(seed, fresh);
                spec.planned_faults = 1;
                Planned { spec, faulty: true }
            }
            _ => Planned {
                spec: job_spec(seed, fresh),
                faulty: false,
            },
        }
    };
    // Every phase holds the kinds in exact shares, in seeded order: a
    // drawn mix would move the paper-budget count, and with it the
    // phase's work, by about a tenth from seed to seed.
    let mut phase = |jobs: usize| -> Vec<Planned> {
        let mut rolls: Vec<usize> = (0..jobs).map(|i| i * 100 / jobs).collect();
        for i in (1..jobs).rev() {
            rolls.swap(i, rng.gen_range(0..=i));
        }
        rolls.into_iter().map(|roll| next(roll, &mut rng)).collect()
    };
    let phase_a = phase(PHASE_A_JOBS);
    let phase_b = phase(PHASE_B_JOBS);
    let tax = (0..TAX_JOBS as u64)
        .map(|i| paper_budget(job_spec(seed, 1 << 40 | i)))
        .collect();
    Stream {
        phase_a,
        phase_b,
        tax,
    }
}

/// One submission as the generator saw it.
#[derive(Debug, Clone, Copy)]
struct Sent {
    phase_a: bool,
    index: usize,
    id: Option<JobId>,
    /// How late the submit call started relative to the due time.
    late: Duration,
    submit: Duration,
}

/// Everything one pass measured.
#[derive(Debug, Default)]
struct ServicePass {
    secs: f64,
    phase_b_secs: f64,
    sent: Vec<Sent>,
    rejections: Vec<String>,
    queue_len_max: usize,
    /// Mean queue length over the first and last quarter of phase A.
    backlog: (f64, f64),
    reports: Vec<JobReport>,
    stats: StatsSnapshot,
    /// When phase A started, to place job spans on the tracer's clock.
    phase_a_start: Option<Instant>,
}

fn submit(
    service: &Service,
    planned: &Planned,
    tenant: u64,
    tracer: &mut Tracer,
    request: u64,
) -> (Result<JobId, Rejected>, Duration) {
    let mut spec = planned.spec.clone();
    spec.tenant = TenantId(tenant as u32);
    let open = tracer.enter("service.submit", request);
    let started = Instant::now();
    let result = service.submit(spec);
    let took = started.elapsed();
    tracer.exit(open);
    (result, took)
}

fn settled(stats: &StatsSnapshot) -> u64 {
    stats.completed_fresh + stats.cache_hits + stats.failed
}

fn pass(stream: &Stream, tracer: &mut Tracer) -> ServicePass {
    let mut out = ServicePass::default();
    let service = Service::start(ServiceConfig::builder().high_water(HIGH_WATER).build());
    let started = Instant::now();
    let whole = tracer.enter("pass", 0);

    // Phase A: open loop at the offered rate.
    let phase_a = Instant::now();
    out.phase_a_start = Some(phase_a);
    let mut queue_lens = Vec::with_capacity(PHASE_A_JOBS);
    for (index, planned) in stream.phase_a.iter().enumerate() {
        let due = phase_a + Duration::from_secs_f64(index as f64 / OFFERED_RATE);
        let now = Instant::now();
        if now < due {
            let open = tracer.enter("generator.wait", index as u64);
            std::thread::sleep(due - now);
            tracer.exit(open);
        }
        let late = Instant::now().saturating_duration_since(due);
        let (result, took) = submit(
            &service,
            planned,
            index as u64 % TENANTS,
            tracer,
            index as u64,
        );
        if let Err(rejected) = &result {
            out.rejections
                .push(format!("phase A job {index}: {rejected:?}"));
        }
        let queue_len = service.queue_len();
        queue_lens.push(queue_len as f64);
        out.queue_len_max = out.queue_len_max.max(queue_len);
        out.sent.push(Sent {
            phase_a: true,
            index,
            id: result.ok(),
            late,
            submit: took,
        });
    }
    let quarter = (queue_lens.len() / 4).max(1);
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    out.backlog = (
        mean(&queue_lens[..quarter]),
        mean(&queue_lens[queue_lens.len() - quarter..]),
    );
    let open = tracer.enter("service.drain", 0);
    service.drain();
    tracer.exit(open);

    // Phase B: closed loop, OUTSTANDING jobs in flight.
    let phase_b = Instant::now();
    let base = settled(&service.stats());
    let mut admitted = 0u64;
    for (index, planned) in stream.phase_b.iter().enumerate() {
        loop {
            let in_flight = admitted - (settled(&service.stats()) - base);
            if (in_flight as usize) < OUTSTANDING {
                break;
            }
            let open = tracer.enter("generator.wait", index as u64);
            std::thread::sleep(Duration::from_millis(1));
            tracer.exit(open);
        }
        let request = (PHASE_A_JOBS + index) as u64;
        let (result, took) = submit(&service, planned, index as u64 % TENANTS, tracer, request);
        match &result {
            Ok(_) => admitted += 1,
            Err(rejected) => out
                .rejections
                .push(format!("phase B job {index}: {rejected:?}")),
        }
        out.queue_len_max = out.queue_len_max.max(service.queue_len());
        out.sent.push(Sent {
            phase_a: false,
            index,
            id: result.ok(),
            late: Duration::ZERO,
            submit: took,
        });
    }
    let open = tracer.enter("service.drain", 0);
    service.drain();
    tracer.exit(open);
    out.phase_b_secs = phase_b.elapsed().as_secs_f64();

    let open = tracer.enter("service.shutdown", 0);
    let outcome = service.shutdown();
    tracer.exit(open);
    tracer.exit(whole);
    out.secs = started.elapsed().as_secs_f64();
    out.reports = outcome.reports;
    out.stats = outcome.stats;
    out
}

/// `run_spec` of every distinct content key in the stream (with planned
/// faults stripped), on two threads: result digest and run milliseconds.
fn oracles(stream: &Stream) -> HashMap<u64, Result<(u64, f64), String>> {
    let mut distinct: HashMap<u64, JobSpec> = HashMap::new();
    for planned in stream.phase_a.iter().chain(&stream.phase_b) {
        let mut spec = planned.spec.clone();
        spec.planned_faults = 0;
        distinct.entry(spec.content_key()).or_insert(spec);
    }
    let specs: Vec<(u64, JobSpec)> = distinct.into_iter().collect();
    let threads = evotc_evo::parallel::resolve_threads(0).min(2);
    let chunk = specs.len().div_ceil(threads).max(1);
    std::thread::scope(|scope| {
        let workers: Vec<_> = specs
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .map(|(key, spec)| {
                            let started = Instant::now();
                            let result = run_spec(spec);
                            let run_ms = ms(started.elapsed());
                            let value = result
                                .map(|data| (data.digest(), run_ms))
                                .map_err(|e| e.to_string());
                            (*key, value)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|worker| worker.join().expect("oracle worker panicked"))
            .collect()
    })
}

/// Wall seconds for a one-worker service to finish `specs`, at the given
/// checkpoint interval.
fn one_worker_secs(specs: &[JobSpec], checkpoint_interval: u64) -> f64 {
    let service = Service::start(
        ServiceConfig::builder()
            .workers(1)
            .checkpoint_interval(checkpoint_interval)
            .build(),
    );
    let started = Instant::now();
    for (i, spec) in specs.iter().enumerate() {
        let mut spec = spec.clone();
        spec.tenant = TenantId((i as u64 % TENANTS) as u32);
        service
            .submit(spec)
            .expect("a queue of 64 admits the tax batch");
    }
    service.drain();
    let secs = started.elapsed().as_secs_f64();
    service.shutdown();
    secs
}

/// Queue wait of one phase-A completion: its latency from the due time
/// less the job's `run_spec` time. A cache hit settles at admission without
/// queueing or running, so it gives no sample.
fn queue_wait_ms(report: &JobReport, from_due: Duration, run_ms: f64) -> Option<f64> {
    match report.outcome {
        JobOutcome::Completed {
            provenance: Provenance::Fresh,
            ..
        } => Some(ms(from_due) - run_ms),
        _ => None,
    }
}

pub fn run(args: &RunArgs) -> Outcome {
    let mut out = Outcome::new();
    let (stream, setup_s) = timed_setup(SETUPS, || setup(args.seed));
    let flow::Passes {
        reference,
        timed,
        mut tracer,
    } = flow::drive(args, |tracer| pass(&stream, tracer));
    let oracle = oracles(&stream);

    // Checks: zero lost jobs, every rejection counted, every completion
    // equal to its oracle, and every pass producing the same results.
    let mut digests = Vec::new();
    let mut fitness = Vec::new();
    let mut latencies_ms = Vec::new();
    let mut queue_waits_ms = Vec::new();
    let traced = reference.is_some();
    for (p, pass) in reference.iter().chain(&timed).enumerate() {
        let attempted = pass.sent.len() as u64;
        out.attempted += attempted;
        out.failed += pass.rejections.len() as u64;
        for rejection in &pass.rejections {
            out.note(format!("pass {p}: unplanned rejection: {rejection}"));
        }
        if !pass.stats.accounted() || pass.stats.attempted != attempted {
            out.wrong(format!("pass {p}: jobs lost: {:?}", pass.stats));
        }
        let reports: HashMap<JobId, &JobReport> =
            pass.reports.iter().map(|r| (r.id, r)).collect();
        let mut digest = Digest::default();
        for sent in &pass.sent {
            let planned = if sent.phase_a {
                &stream.phase_a[sent.index]
            } else {
                &stream.phase_b[sent.index]
            };
            let Some(id) = sent.id else {
                digest.word(0);
                continue;
            };
            let Some(report) = reports.get(&id) else {
                out.wrong(format!("pass {p}: no report for {id}"));
                continue;
            };
            let mut clean = planned.spec.clone();
            clean.planned_faults = 0;
            let expected = oracle.get(&clean.content_key());
            match (&report.outcome, expected) {
                (JobOutcome::Completed { data, .. }, Some(Ok((want, run_ms)))) => {
                    if data.digest() != *want {
                        out.wrong(format!("pass {p}: {id} differs from run_spec"));
                    }
                    digest.word(data.digest());
                    if p == 0 {
                        fitness.push(data.best_fitness);
                    }
                    if sent.phase_a {
                        let from_due = sent.late + report.latency();
                        latencies_ms.push(ms(from_due));
                        queue_waits_ms.extend(queue_wait_ms(report, from_due, *run_ms));
                        // Pass 0 of a traced run is the untraced reference.
                        if let (true, Some(start)) = (traced && p > 0, pass.phase_a_start) {
                            let due =
                                start + Duration::from_secs_f64(sent.index as f64 / OFFERED_RATE);
                            tracer.record("service.job", id.0, due, due + from_due);
                        }
                    }
                    if planned.faulty && report.attempts < 2 {
                        out.wrong(format!("pass {p}: {id} skipped its planned fault"));
                    }
                }
                (JobOutcome::Failed(error), _) => {
                    out.failed += 1;
                    out.note(format!("pass {p}: {id} failed: {error}"));
                }
                (_, Some(Err(e))) => out.wrong(format!("pass {p}: oracle for {id} failed: {e}")),
                (_, None) => out.wrong(format!("pass {p}: no oracle for {id}")),
            }
        }
        digests.push(digest);
    }
    if digests.iter().any(|d| *d != digests[0]) {
        out.wrong("passes over the same stream produced different results".to_string());
    }
    out.note(format!("output_digest = {:016x}", digests[0].value()));

    let pass_secs: Vec<f64> = timed.iter().map(|p| p.secs).collect();
    let throughput: Vec<f64> = timed
        .iter()
        .map(|p| PHASE_B_JOBS as f64 / p.phase_b_secs)
        .collect();
    let late_ms: Vec<f64> = timed
        .iter()
        .flat_map(|p| p.sent.iter().filter(|s| s.phase_a).map(|s| ms(s.late)))
        .collect();
    let growing = timed.iter().any(|p| p.backlog.1 > 2.0 * p.backlog.0 + 4.0);
    out.note(format!(
        "passes = {}, pass_s = {pass_secs:.3?}, offered {OFFERED_RATE} jobs/s open loop, \
         {OUTSTANDING} outstanding closed loop at {throughput:.1?} jobs/s",
        timed.len()
    ));
    out.note(format!(
        "phase A: {} latency samples, generator_late_ms max {:.3}, queue mean first/last quarter {:.1}/{:.1}{}",
        latencies_ms.len(),
        max(&late_ms),
        timed[0].backlog.0,
        timed[0].backlog.1,
        if growing { " -- BACKLOG GROWING: phase-A latencies are not at a steady state" } else { "" }
    ));
    match highest_tail(&latencies_ms) {
        Some((p, value)) => out.note(format!(
            "latency_p{p} = {value:.3} ms over {} samples",
            latencies_ms.len()
        )),
        None => out.note("too few phase-A samples for any tail percentile".to_string()),
    }
    if let Some(p95) = percentile(&latencies_ms, 95.0) {
        out.note(format!(
            "latency_p95_ms = {p95} ms ({} samples)",
            latencies_ms.len()
        ));
    }

    out.set("setup_s", setup_s);
    out.set("pass_s", median(&pass_secs).unwrap_or(0.0));
    out.set(
        "rate_pct",
        fitness.iter().sum::<f64>() / fitness.len().max(1) as f64,
    );
    out.set("peak_rss_mb", crate::common::peak_rss_mb());
    out.set("jobs_per_s", median(&throughput).unwrap_or(0.0));
    out.set("latency_p50_ms", median(&latencies_ms).unwrap_or(0.0));

    if let Some(reference) = &reference {
        let per = timed.len() as f64;
        let submit_us: Vec<f64> = timed
            .iter()
            .flat_map(|p| p.sent.iter().map(|s| s.submit.as_secs_f64() * 1e6))
            .collect();
        let run_ms: Vec<f64> = oracle
            .values()
            .filter_map(|r| r.as_ref().ok().map(|&(_, run_ms)| run_ms))
            .collect();
        let sum =
            |f: fn(&StatsSnapshot) -> u64| timed.iter().map(|p| f(&p.stats)).sum::<u64>() as f64;
        out.set("service.submit_us_p50", median(&submit_us).unwrap_or(0.0));
        out.set("service.submit_us_max", max(&submit_us));
        out.set("service.job_run_ms_p50", median(&run_ms).unwrap_or(0.0));
        out.set(
            "service.queue_wait_ms_p50",
            median(&queue_waits_ms).unwrap_or(0.0),
        );
        out.set(
            "service.queue_len_max",
            timed.iter().map(|p| p.queue_len_max).max().unwrap_or(0) as f64,
        );
        out.set(
            "service.cache_hit_ratio",
            sum(|s| s.cache_hits) / sum(|s| s.attempted).max(1.0),
        );
        out.set("service.sheds", sum(|s| s.sheds) / per);
        out.set("service.retries", sum(|s| s.retries) / per);
        out.set("service.rejected", sum(|s| s.rejected_total()) / per);
        out.set(
            "service.latency_p95_ms",
            percentile(&latencies_ms, 95.0).unwrap_or(0.0),
        );
        out.set("service.latency_samples", latencies_ms.len() as f64);
        out.set("service.generator_late_ms", max(&late_ms));

        // Checkpoint tax: the paper-budget batch on one worker, default
        // interval against capture off.
        let with = one_worker_secs(&stream.tax, ServiceConfig::default().checkpoint_interval);
        let without = one_worker_secs(&stream.tax, 0);
        out.set(
            "service.checkpoint_tax_pct",
            (with - without) / without * 100.0,
        );
        out.note(format!(
            "checkpoint tax batch: {TAX_JOBS} paper-budget jobs, {with:.3} s with checkpoints, {without:.3} s without"
        ));

        flow::trace_layers(&mut out, &pass_secs, reference.secs, &tracer);
        crate::write_trace(&tracer, "service_mix", args.seed, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use evotc_service::JobResultData;

    fn report(provenance: Provenance) -> JobReport {
        JobReport {
            id: JobId(2),
            tenant: TenantId(0),
            outcome: JobOutcome::Completed {
                data: JobResultData {
                    best_genome: Vec::new(),
                    best_fitness: 50.0,
                    generations: 1,
                    evaluations: 1,
                    stop_reason: evotc_evo::StopReason::Converged,
                },
                provenance,
            },
            attempts: 1,
            shed_cycles: 0,
            checkpoint_failures: 0,
            submitted_at: Duration::ZERO,
            finished_at: Duration::from_millis(1),
        }
    }

    #[test]
    fn queue_wait_is_latency_less_run_time_and_skips_cache_hits() {
        let from_due = Duration::from_millis(7);
        assert_eq!(queue_wait_ms(&report(Provenance::Fresh), from_due, 2.0), Some(5.0));
        let hit = report(Provenance::Cache { source: JobId(1) });
        assert_eq!(queue_wait_ms(&hit, from_due, 2.0), None);
    }
}
