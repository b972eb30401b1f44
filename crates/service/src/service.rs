//! The multi-tenant batch service: admission control, the shared worker
//! pool, supervision, and overload shedding.
//!
//! # Degradation ladder
//!
//! Under increasing load the service degrades in typed, observable steps
//! instead of falling over:
//!
//! 1. **Cache**: duplicate submissions are served from the cross-run
//!    result cache at admission — no queue slot, no worker time.
//! 2. **Backpressure**: the queue is bounded; submissions beyond capacity
//!    are rejected with [`Rejected::QueueFull`] (and invalid specs /
//!    hostile budgets / over-quota tenants / open-breaker tenants with
//!    their own variants) rather than buffered without bound.
//! 3. **Shedding**: past the high-water mark, the longest-running
//!    preemptible job is checkpointed ([`evotc_evo::EaCheckpoint`]) and
//!    re-admitted behind its priority class, freeing its worker for queued
//!    work; the resumed run is byte-identical to an uninterrupted one.
//! 4. **Quarantine**: a tenant whose jobs keep failing trips its circuit
//!    breaker and is refused at admission until a half-open probe
//!    succeeds, so one poisoned tenant cannot starve the pool.
//!
//! # Supervision
//!
//! Attempt failures are classified by [`JobError::retryable`]: retryable
//! ones (worker panic, injected fault, rejected resume checkpoint)
//! re-enqueue with capped exponential backoff
//! ([`crate::BackoffPolicy`]) until the retry budget is spent, permanent
//! ones settle the job immediately. Every attempt failure also feeds the
//! tenant's circuit breaker. All of it runs on the [`ServiceClock`], so a
//! virtual-time service walks backoff delays and breaker cooldowns
//! deterministically without sleeping: when every worker is idle and only
//! deferred retries remain, a worker advances the virtual clock straight
//! to the next wake time.
//!
//! # Zero lost jobs
//!
//! Every submission terminates in exactly one bucket: a typed rejection at
//! admission, a completed report (fresh or cache-hit), or a permanently
//! failed report with a typed error. [`StatsSnapshot::accounted`] states
//! the identity; the replay harness and the fault-injection tests gate on
//! it.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use evotc_evo::CancelToken;

use crate::backoff::BackoffPolicy;
use crate::breaker::{BreakerAdmission, BreakerPolicy, CircuitBreaker};
use crate::cache::ResultCache;
use crate::clock::ServiceClock;
use crate::job::{
    self, Attempt, JobError, JobId, JobOutcome, JobReport, JobSpec, Provenance, Rejected, TenantId,
};
use crate::queue::{JobEntry, JobQueue};

/// Service configuration. Build via [`ServiceConfig::builder`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Bound on queued (ready + deferred) jobs; submissions beyond it are
    /// rejected with [`Rejected::QueueFull`].
    pub queue_capacity: usize,
    /// Occupancy above which admission sheds the longest-running
    /// preemptible job. Defaults to `queue_capacity`, which disables
    /// shedding (occupancy never exceeds capacity).
    pub high_water: usize,
    /// Per-tenant cap on admitted-and-unfinished jobs.
    pub tenant_quota: usize,
    /// Smallest admissible per-job wall-clock budget; specs asking for
    /// less are rejected with [`Rejected::DeadlineInfeasible`]. Budgetless
    /// specs are always admissible. `Duration::ZERO` (the default)
    /// disables the check.
    pub min_budget: Duration,
    /// Generations between preemption checkpoints for preemptible jobs;
    /// `0` disables capture (a preempted job then resumes from scratch —
    /// still byte-identical, just wasteful).
    pub checkpoint_interval: u64,
    /// Cross-run result cache capacity; `0` disables caching.
    pub cache_capacity: usize,
    /// Retry/backoff policy.
    pub backoff: BackoffPolicy,
    /// Per-tenant circuit-breaker policy.
    pub breaker: BreakerPolicy,
    /// Run on a virtual clock (deterministic backoff/breaker walking for
    /// tests) instead of wall-clock.
    pub virtual_time: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            queue_capacity: 64,
            high_water: 64,
            tenant_quota: 16,
            min_budget: Duration::ZERO,
            checkpoint_interval: 5,
            cache_capacity: 128,
            backoff: BackoffPolicy::default(),
            breaker: BreakerPolicy::default(),
            virtual_time: false,
        }
    }
}

impl ServiceConfig {
    /// Starts building a configuration from the defaults.
    pub fn builder() -> ServiceConfigBuilder {
        ServiceConfigBuilder {
            config: ServiceConfig::default(),
            high_water_set: false,
        }
    }
}

/// Builder for [`ServiceConfig`].
#[derive(Debug, Clone)]
pub struct ServiceConfigBuilder {
    config: ServiceConfig,
    high_water_set: bool,
}

impl ServiceConfigBuilder {
    /// Sets the worker-thread count.
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Sets the queue bound.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.config.queue_capacity = capacity;
        self
    }

    /// Sets the shedding high-water mark (see
    /// [`ServiceConfig::high_water`]).
    pub fn high_water(mut self, high_water: usize) -> Self {
        self.config.high_water = high_water;
        self.high_water_set = true;
        self
    }

    /// Sets the per-tenant in-flight quota.
    pub fn tenant_quota(mut self, quota: usize) -> Self {
        self.config.tenant_quota = quota;
        self
    }

    /// Sets the smallest admissible wall-clock budget.
    pub fn min_budget(mut self, min_budget: Duration) -> Self {
        self.config.min_budget = min_budget;
        self
    }

    /// Sets the preemption-checkpoint interval (generations).
    pub fn checkpoint_interval(mut self, generations: u64) -> Self {
        self.config.checkpoint_interval = generations;
        self
    }

    /// Sets the result-cache capacity.
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.config.cache_capacity = capacity;
        self
    }

    /// Sets the retry/backoff policy.
    pub fn backoff(mut self, backoff: BackoffPolicy) -> Self {
        self.config.backoff = backoff;
        self
    }

    /// Sets the circuit-breaker policy.
    pub fn breaker(mut self, breaker: BreakerPolicy) -> Self {
        self.config.breaker = breaker;
        self
    }

    /// Switches the service to a virtual clock.
    pub fn virtual_time(mut self) -> Self {
        self.config.virtual_time = true;
        self
    }

    /// Finishes the builder.
    ///
    /// # Panics
    ///
    /// Panics on a configuration no service could run: zero workers, a
    /// zero-capacity queue, or a high-water mark above capacity.
    pub fn build(mut self) -> ServiceConfig {
        assert!(self.config.workers > 0, "at least one worker is required");
        assert!(
            self.config.queue_capacity > 0,
            "queue capacity must be positive"
        );
        if !self.high_water_set {
            self.config.high_water = self.config.queue_capacity;
        }
        assert!(
            self.config.high_water <= self.config.queue_capacity,
            "high-water mark exceeds queue capacity"
        );
        self.config
    }
}

/// Monotone service counters. Snapshot via [`Service::stats`]; the
/// rejection counters partition [`Rejected`] by variant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Submissions attempted (admitted or not).
    pub attempted: u64,
    /// Submissions admitted into the queue.
    pub admitted: u64,
    /// Jobs completed by their own EA run.
    pub completed_fresh: u64,
    /// Submissions served from the result cache at admission.
    pub cache_hits: u64,
    /// Rejections: bounded queue at capacity (or the `service::enqueue`
    /// failpoint simulating it).
    pub rejected_queue_full: u64,
    /// Rejections: wall-clock budget below the admissible floor.
    pub rejected_deadline: u64,
    /// Rejections: tenant at its in-flight quota.
    pub rejected_quota: u64,
    /// Rejections: tenant's circuit breaker open.
    pub rejected_circuit: u64,
    /// Rejections: service draining for shutdown.
    pub rejected_shutdown: u64,
    /// Rejections: a spec no attempt could execute.
    pub rejected_invalid: u64,
    /// Jobs settled with a permanent typed failure.
    pub failed: u64,
    /// Retryable attempt failures that were re-enqueued with backoff.
    pub retries: u64,
    /// Shed preemptions (checkpoint + re-admit cycles).
    pub sheds: u64,
    /// Checkpoint-sink failures observed across all attempts.
    pub checkpoint_failures: u64,
}

impl StatsSnapshot {
    /// Total typed rejections.
    pub fn rejected_total(&self) -> u64 {
        self.rejected_queue_full
            + self.rejected_deadline
            + self.rejected_quota
            + self.rejected_circuit
            + self.rejected_shutdown
            + self.rejected_invalid
    }

    /// The zero-lost-jobs identity: after a drain, every attempted
    /// submission is in exactly one terminal bucket.
    pub fn accounted(&self) -> bool {
        self.attempted
            == self.completed_fresh + self.cache_hits + self.rejected_total() + self.failed
    }
}

/// Everything a finished service hands back: one terminal report per
/// admitted-or-cache-served job (sorted by [`JobId`]) and the final
/// counters.
#[derive(Debug)]
pub struct ServiceOutcome {
    /// Terminal reports, sorted by job id (= submission order).
    pub reports: Vec<JobReport>,
    /// Final counters.
    pub stats: StatsSnapshot,
}

struct RunningJob {
    started_at: Duration,
    preemptible: bool,
    /// Cancelled only by the shedder, so a cancelled token marks a shed.
    cancel: CancelToken,
}

#[derive(Default)]
struct TenantState {
    in_flight: usize,
    breaker: Option<CircuitBreaker>,
}

struct State {
    queue: JobQueue,
    running: HashMap<JobId, RunningJob>,
    tenants: HashMap<TenantId, TenantState>,
    cache: ResultCache,
    reports: Vec<JobReport>,
    stats: StatsSnapshot,
    next_job: u64,
    /// Admitted jobs not yet settled (queued, deferred, or running).
    pending: usize,
    draining: bool,
}

struct Inner {
    config: ServiceConfig,
    clock: ServiceClock,
    state: Mutex<State>,
    /// Workers wait here for work (or for the next deferred wake time).
    work: Condvar,
    /// Drain/shutdown waiters wait here for `pending == 0`.
    idle: Condvar,
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The running service: a bounded queue drained by a shared worker pool.
/// See the `service` module docs for the degradation ladder and the
/// supervision rules.
pub struct Service {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl Service {
    /// Starts the service: spawns `config.workers` worker threads over an
    /// empty queue.
    ///
    /// Failpoint note (`failpoints` builds): arm service sites *before*
    /// starting the service — the workers begin passing `
    /// service::worker_pick` as soon as jobs are admitted, and arming
    /// after spawn races the hit counter.
    pub fn start(config: ServiceConfig) -> Self {
        let clock = if config.virtual_time {
            ServiceClock::virtual_time()
        } else {
            ServiceClock::monotonic()
        };
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                queue: JobQueue::default(),
                running: HashMap::new(),
                tenants: HashMap::new(),
                cache: ResultCache::new(config.cache_capacity),
                reports: Vec::new(),
                stats: StatsSnapshot::default(),
                next_job: 0,
                pending: 0,
                draining: false,
            }),
            config,
            clock,
            work: Condvar::new(),
            idle: Condvar::new(),
        });
        let workers = (0..inner.config.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("evotc-service-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("worker thread spawn")
            })
            .collect();
        Service { inner, workers }
    }

    /// Submits one job through the admission pipeline. `Ok` means the
    /// submission *will* settle in a terminal report (it may already have:
    /// a cache hit settles immediately); `Err` is a typed rejection and
    /// the submission consumed nothing.
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, Rejected> {
        let inner = &*self.inner;
        let mut state = inner.lock();
        let now = inner.clock.now();
        state.stats.attempted += 1;

        // Fault injection: a simulated full queue at the enqueue edge.
        #[cfg(feature = "failpoints")]
        if evotc_evo::failpoints::hit(evotc_evo::failpoints::site::SERVICE_ENQUEUE) {
            state.stats.rejected_queue_full += 1;
            return Err(Rejected::QueueFull {
                capacity: inner.config.queue_capacity,
            });
        }

        if state.draining {
            state.stats.rejected_shutdown += 1;
            return Err(Rejected::ShuttingDown);
        }
        if let Err(JobError::InvalidSpec(why)) = spec.validate() {
            state.stats.rejected_invalid += 1;
            return Err(Rejected::InvalidSpec(why));
        }
        if let Some(budget) = spec.budget {
            if budget < inner.config.min_budget {
                state.stats.rejected_deadline += 1;
                return Err(Rejected::DeadlineInfeasible {
                    budget,
                    minimum: inner.config.min_budget,
                });
            }
        }
        let in_flight = state
            .tenants
            .get(&spec.tenant)
            .map_or(0, |tenant| tenant.in_flight);
        if in_flight >= inner.config.tenant_quota {
            state.stats.rejected_quota += 1;
            return Err(Rejected::TenantQuotaExceeded {
                tenant: spec.tenant,
                in_flight,
                quota: inner.config.tenant_quota,
            });
        }

        // Cache probe: a duplicate settles instantly, consuming no queue
        // slot, no worker, no quota, and never touching the breaker.
        let key = spec.content_key();
        let cache_hit = {
            #[cfg(feature = "failpoints")]
            let forced_miss =
                evotc_evo::failpoints::hit(evotc_evo::failpoints::site::SERVICE_RESULT_CACHE_PROBE);
            #[cfg(not(feature = "failpoints"))]
            let forced_miss = false;
            if forced_miss {
                None
            } else {
                state.cache.get(key).cloned()
            }
        };
        if let Some(hit) = cache_hit {
            let id = JobId(state.next_job);
            state.next_job += 1;
            state.stats.cache_hits += 1;
            state.reports.push(JobReport {
                id,
                tenant: spec.tenant,
                outcome: JobOutcome::Completed {
                    data: hit.data,
                    provenance: Provenance::Cache { source: hit.source },
                },
                attempts: 0,
                shed_cycles: 0,
                checkpoint_failures: 0,
                submitted_at: now,
                finished_at: now,
            });
            return Ok(id);
        }

        if state.queue.len() >= inner.config.queue_capacity {
            state.stats.rejected_queue_full += 1;
            return Err(Rejected::QueueFull {
                capacity: inner.config.queue_capacity,
            });
        }

        // The breaker is the last gate: a reserved half-open probe slot is
        // only ever consumed by an admission that goes through.
        let breaker_policy = inner.config.breaker;
        let admission = {
            let tenant_state = state.tenants.entry(spec.tenant).or_default();
            tenant_state
                .breaker
                .get_or_insert_with(|| CircuitBreaker::new(breaker_policy))
                .admit(now)
        };
        match admission {
            // A probe admission reserved the half-open slot; the breaker
            // settles it from this job's first attempt outcome like any
            // other (late settles of pre-trip jobs feed the same machine).
            BreakerAdmission::Admit | BreakerAdmission::Probe => {}
            BreakerAdmission::Reject { retry_at } => {
                state.stats.rejected_circuit += 1;
                return Err(Rejected::CircuitOpen {
                    tenant: spec.tenant,
                    retry_at,
                });
            }
        }

        state
            .tenants
            .get_mut(&spec.tenant)
            .expect("tenant state created above")
            .in_flight += 1;
        let id = JobId(state.next_job);
        state.next_job += 1;
        state.stats.admitted += 1;
        state.pending += 1;
        state.queue.push_ready(JobEntry {
            id,
            spec: Arc::new(spec),
            key,
            failures: 0,
            shed_cycles: 0,
            checkpoint_failures: 0,
            resume: None,
            submitted_at: now,
        });
        inner.work.notify_all();

        // Overload shedding: past the high-water mark, checkpoint the
        // longest-running preemptible job and free its worker for the
        // backlog.
        if state.queue.len() > inner.config.high_water {
            shed_longest_running(&mut state);
        }
        Ok(id)
    }

    /// Blocks until every admitted job has settled. Does not stop the
    /// workers; the service keeps accepting submissions afterwards.
    pub fn drain(&self) {
        let inner = &*self.inner;
        let mut state = inner.lock();
        while state.pending > 0 {
            state = inner.idle.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Jobs currently executing on workers (used by tests and the replay
    /// harness to time shed triggers deterministically).
    pub fn running_count(&self) -> usize {
        self.inner.lock().running.len()
    }

    /// Current queue occupancy (ready + deferred).
    pub fn queue_len(&self) -> usize {
        self.inner.lock().queue.len()
    }

    /// A snapshot of the monotone counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.inner.lock().stats
    }

    /// Advances a virtual-clock service by `by` and wakes the workers to
    /// re-examine deferred retries. No-op on a wall-clock service.
    pub fn advance_virtual(&self, by: Duration) {
        self.inner.clock.advance_by(by);
        self.inner.work.notify_all();
    }

    /// Drains, stops the workers, and returns every terminal report
    /// (sorted by job id) with the final counters.
    pub fn shutdown(mut self) -> ServiceOutcome {
        self.stop();
        let mut state = self.inner.lock();
        let mut reports = std::mem::take(&mut state.reports);
        reports.sort_by_key(|report| report.id);
        ServiceOutcome {
            reports,
            stats: state.stats,
        }
    }

    /// Drains every admitted job, then stops and joins the workers.
    fn stop(&mut self) {
        self.inner.lock().draining = true;
        self.inner.work.notify_all();
        self.drain();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for Service {
    /// Defensive teardown for services dropped without
    /// [`Service::shutdown`]: drains and joins, so worker threads never
    /// outlive the handle.
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.stop();
        }
    }
}

/// Picks the longest-running preemptible job not already being shed
/// (earliest start, ties to the lowest id) and preempts it: the token stops
/// the EA at its next generation boundary.
fn shed_longest_running(state: &mut State) {
    let victim = state
        .running
        .iter()
        .filter(|(_, job)| job.preemptible && !job.cancel.is_cancelled())
        .min_by_key(|(id, job)| (job.started_at, **id));
    if let Some((_, job)) = victim {
        job.cancel.cancel();
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let mut state = inner.lock();
        let entry = loop {
            let now = inner.clock.now();
            state.queue.promote(now);
            if let Some(entry) = state.queue.pop_ready() {
                break entry;
            }
            if state.draining && state.pending == 0 {
                inner.work.notify_all();
                inner.idle.notify_all();
                return;
            }
            // Only deferred retries remain and nothing is running: the only
            // thing the world can do is let time pass. A virtual clock is
            // advanced straight to the next wake; a wall clock is waited
            // out.
            if state.running.is_empty() {
                if let Some(wake_at) = state.queue.next_deferred_at() {
                    if inner.clock.is_virtual() {
                        inner.clock.advance_to(wake_at);
                        continue;
                    }
                    let timeout = wake_at.saturating_sub(now);
                    let (guard, _) = inner
                        .work
                        .wait_timeout(state, timeout)
                        .unwrap_or_else(|e| e.into_inner());
                    state = guard;
                    continue;
                }
            }
            state = inner.work.wait(state).unwrap_or_else(|e| e.into_inner());
        };

        // Register the attempt while still holding the lock, so the
        // shedder and the no-running-work clock advance always see it.
        let cancel = CancelToken::new();
        state.running.insert(
            entry.id,
            RunningJob {
                started_at: inner.clock.now(),
                preemptible: entry.spec.preemptible,
                cancel: cancel.clone(),
            },
        );
        drop(state);

        let outcome = run_attempt(inner, &entry, cancel);
        settle(inner, entry, outcome);
    }
}

/// Runs one attempt outside the lock: planned/injected faults first, then
/// the EA executor, with a panic net so a bug in the executor itself
/// settles as a retryable failure instead of killing the worker thread.
fn run_attempt(inner: &Inner, entry: &JobEntry, cancel: CancelToken) -> Result<Attempt, JobError> {
    let attempt = entry.failures + 1;

    // Fault injection at the pick edge: the attempt fails before the EA
    // starts. The job-level `planned_faults` knob is the featureless
    // equivalent the replay harness uses.
    #[cfg(feature = "failpoints")]
    if evotc_evo::failpoints::hit(evotc_evo::failpoints::site::SERVICE_WORKER_PICK) {
        return Err(JobError::Injected { attempt });
    }
    if entry.failures < entry.spec.planned_faults {
        return Err(JobError::Injected { attempt });
    }

    let spec = Arc::clone(&entry.spec);
    let resume = entry.resume.clone();
    let interval = inner.config.checkpoint_interval;
    catch_unwind(AssertUnwindSafe(move || {
        job::execute(&spec, cancel, resume, interval)
    }))
    .unwrap_or_else(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        Err(JobError::WorkerPanic {
            generation: 0,
            message,
        })
    })
}

/// Settles one attempt under the lock: completion, shed re-admission,
/// backoff retry, or permanent failure — exactly one of them.
fn settle(inner: &Inner, mut entry: JobEntry, outcome: Result<Attempt, JobError>) {
    let mut state = inner.lock();
    let running = state.running.remove(&entry.id);
    let now = inner.clock.now();
    match outcome {
        Ok(Attempt::Done {
            data,
            checkpoint_failures,
        }) => {
            entry.checkpoint_failures += checkpoint_failures;
            state.stats.checkpoint_failures += checkpoint_failures;
            state.cache.insert(entry.key, entry.id, data.clone());
            breaker_of(&mut state, entry.spec.tenant).on_success();
            let outcome = JobOutcome::Completed {
                data,
                provenance: Provenance::Fresh,
            };
            finish(&mut state, entry, now, outcome, false);
        }
        Ok(Attempt::Preempted {
            checkpoint,
            checkpoint_failures,
        }) => {
            debug_assert!(
                running.is_some_and(|job| job.cancel.is_cancelled()),
                "the shedder is the only cancellation source"
            );
            entry.checkpoint_failures += checkpoint_failures;
            state.stats.checkpoint_failures += checkpoint_failures;
            entry.shed_cycles += 1;
            entry.resume = checkpoint;
            state.stats.sheds += 1;
            state.queue.push_ready(entry);
            inner.work.notify_all();
        }
        Err(err) if err.retryable() && entry.failures < inner.config.backoff.max_retries => {
            entry.failures += 1;
            if matches!(err, JobError::CheckpointRejected(_)) {
                // The checkpoint is poisoned; the retry replays the whole
                // deterministic trajectory from scratch instead.
                entry.resume = None;
            }
            breaker_of(&mut state, entry.spec.tenant).on_failure(now);
            let delay = inner.config.backoff.delay(entry.failures);
            state.stats.retries += 1;
            state.queue.push_deferred(entry, now.saturating_add(delay));
            inner.work.notify_all();
        }
        Err(err) => {
            let final_err = if err.retryable() {
                JobError::RetriesExhausted {
                    attempts: entry.failures + 1,
                    last: Box::new(err),
                }
            } else {
                err
            };
            breaker_of(&mut state, entry.spec.tenant).on_failure(now);
            finish(&mut state, entry, now, JobOutcome::Failed(final_err), true);
        }
    }
    inner.work.notify_all();
    inner.idle.notify_all();
}

/// The tenant's breaker, which admission created from `config.breaker`
/// before the job could run.
fn breaker_of(state: &mut State, tenant: TenantId) -> &mut CircuitBreaker {
    state
        .tenants
        .get_mut(&tenant)
        .and_then(|tenant| tenant.breaker.as_mut())
        .expect("admission creates the tenant's breaker")
}

/// Records a terminal outcome: releases the tenant slot, decrements the
/// pending count, appends the report, and bumps the right counter.
fn finish(state: &mut State, entry: JobEntry, now: Duration, outcome: JobOutcome, failed: bool) {
    if let Some(tenant) = state.tenants.get_mut(&entry.spec.tenant) {
        tenant.in_flight = tenant.in_flight.saturating_sub(1);
    }
    state.pending -= 1;
    if failed {
        state.stats.failed += 1;
    } else {
        state.stats.completed_fresh += 1;
    }
    let report = JobReport {
        id: entry.id,
        tenant: entry.spec.tenant,
        outcome,
        attempts: entry.failures + 1,
        shed_cycles: entry.shed_cycles,
        checkpoint_failures: entry.checkpoint_failures,
        submitted_at: entry.submitted_at,
        finished_at: now,
    };
    state.reports.push(report);
}
