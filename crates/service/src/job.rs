//! Job vocabulary and the per-attempt executor.
//!
//! A [`JobSpec`] is one tenant's request to compress one test set. The
//! service's central contract is that a *completed* job's
//! [`JobResultData`] is a pure function of its spec: same spec ⇒
//! byte-identical result, regardless of worker count, queue interleaving,
//! retries after injected faults, or shed/checkpoint/resume cycles. The
//! executor enforces this by construction:
//!
//! * every attempt pins the EA to one evaluation thread and the spec's
//!   seed, so the trajectory is fixed;
//! * a preempted attempt (overload shedding) resumes from an
//!   [`EaCheckpoint`] captured *on* that trajectory, so the resumed run
//!   rejoins it exactly ([`evotc_evo::EaBuilder::resume_from`] is
//!   byte-identical by the engine's own contract);
//! * a deadline-stopped run is reported as a permanent
//!   [`JobError::DeadlineExceeded`] instead of a partial result — a
//!   wall-clock-dependent "best so far" would differ run to run, so it is
//!   typed as a failure rather than allowed to corrupt the contract.
//!
//! [`JobResultData::digest`] is the byte-identity witness the property
//! tests and the replay harness compare: it folds the best genome (via
//! [`evotc_core::content_hash`]), the fitness bits, and the deterministic
//! counters — and deliberately excludes wall-clock and checkpoint-sink
//! failure counts, which are attempt circumstances, not results.

use std::time::Duration;

use evotc_bits::{BlockHistogram, TestSet, TestSetString, Trit};
use evotc_core::{content_hash, test_set_content_hash, EaCompressor};
use evotc_evo::{CancelToken, EaCheckpoint, EaConfig, EaError, StopReason};

/// A tenant identity. Tenancy is an admission-control concept — quotas and
/// circuit breakers are per tenant — not a result-space one: the cross-run
/// result cache is deliberately shared across tenants (a completed result
/// depends only on the spec content, so serving tenant B from tenant A's
/// identical submission is dedupe, not leakage of anything but the fact
/// the service computes deterministically).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u32);

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant-{}", self.0)
    }
}

/// A job identity, assigned densely in submission order (admission-rejected
/// submissions consume no id).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// The longest genome, `K·L` trits, a spec may ask for: 64 times the
/// largest one any table or sweep runs (`K = 16`, `L = 64`). A larger one
/// would allocate populations of that many trits, and a failed allocation
/// aborts the whole process rather than failing the one job.
const MAX_GENOME_LEN: usize = 1 << 16;

/// One compression request: the test set plus the EA shape and budgets.
///
/// Everything that affects a *completed* result is part of
/// [`JobSpec::content_key`]; the remaining fields (tenant, wall-clock
/// budget, preemptibility, planned faults) only affect scheduling and
/// failure, never the bytes of a completed result.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The submitting tenant (quota and breaker scope).
    pub tenant: TenantId,
    /// The test set to compress.
    pub patterns: TestSet,
    /// Block length `K` of the MV code.
    pub k: usize,
    /// Number of matching vectors `L`.
    pub l: usize,
    /// EA seed (the determinism contract is per `(spec content, seed)`).
    pub seed: u64,
    /// EA stagnation termination limit (generations without improvement).
    pub stagnation_limit: usize,
    /// Hard cap on fitness evaluations.
    pub max_evaluations: u64,
    /// Per-attempt wall-clock budget, wired to the engine's soft deadline.
    /// A budget-stopped attempt fails permanently with
    /// [`JobError::DeadlineExceeded`] (see the `job` module docs).
    pub budget: Option<Duration>,
    /// Whether overload shedding may preempt this job (checkpoint now,
    /// resume later, byte-identically). Non-preemptible jobs are never
    /// shed.
    pub preemptible: bool,
    /// Deterministic job-level fault injection usable without the
    /// `failpoints` cargo feature: the first this-many attempts fail with
    /// the retryable [`JobError::Injected`] before the EA starts. Powers
    /// the replay harness's injected-fault tenants; `0` in production.
    pub planned_faults: u32,
}

impl JobSpec {
    /// A spec with service defaults: stagnation limit 25, 10 000-evaluation
    /// budget, no wall-clock budget, preemptible, no planned faults.
    pub fn new(tenant: TenantId, patterns: TestSet, k: usize, l: usize, seed: u64) -> Self {
        JobSpec {
            tenant,
            patterns,
            k,
            l,
            seed,
            stagnation_limit: 25,
            max_evaluations: 10_000,
            budget: None,
            preemptible: true,
            planned_faults: 0,
        }
    }

    /// Rejects a spec no attempt could ever execute (at admission, too).
    pub fn validate(&self) -> Result<(), JobError> {
        if self.patterns.is_empty() {
            return Err(JobError::InvalidSpec("empty test set".into()));
        }
        if self.k == 0 || self.k > evotc_bits::MAX_BLOCK_LEN {
            return Err(JobError::InvalidSpec(format!(
                "block length K={} outside 1..={}",
                self.k,
                evotc_bits::MAX_BLOCK_LEN
            )));
        }
        if self.l == 0 {
            return Err(JobError::InvalidSpec("at least one MV is required".into()));
        }
        if !self
            .k
            .checked_mul(self.l)
            .is_some_and(|len| len <= MAX_GENOME_LEN)
        {
            return Err(JobError::InvalidSpec(format!(
                "genome length K·L = {}·{} above {MAX_GENOME_LEN} trits",
                self.k, self.l
            )));
        }
        if self.stagnation_limit == 0 {
            // The engine asserts a positive limit; caught here, the spec is
            // rejected instead of panicking through every retry.
            return Err(JobError::InvalidSpec(
                "stagnation limit must be positive".into(),
            ));
        }
        Ok(())
    }

    /// The content key of the cross-run result cache: a hash of exactly the
    /// fields a completed result is a function of — the test-set content
    /// (via [`evotc_core::test_set_content_hash`]) and the EA shape,
    /// budgets, and seed. Tenant, wall-clock budget, preemptibility, and
    /// planned faults are excluded: none of them can change the bytes of a
    /// result that *completes* (and failed jobs are never cached), so two
    /// submissions differing only there are the same work.
    pub fn content_key(&self) -> u64 {
        let mut key = test_set_content_hash(&self.patterns);
        for field in [
            self.k as u64,
            self.l as u64,
            self.seed,
            self.stagnation_limit as u64,
            self.max_evaluations,
        ] {
            key = fnv_mix(key, field);
        }
        key
    }

    /// The engine configuration of one attempt. Evaluation is pinned to one
    /// thread: job-level parallelism comes from the worker pool, and a
    /// fixed thread count keeps even failpoint hit-counting deterministic
    /// (the engine's results are thread-invariant, but per-chunk hit counts
    /// are not).
    fn ea_config(&self) -> EaConfig {
        let mut builder = EaConfig::builder()
            .stagnation_limit(self.stagnation_limit)
            .max_evaluations(self.max_evaluations)
            .seed(self.seed)
            .threads(1);
        if let Some(budget) = self.budget {
            builder = builder.deadline(budget);
        }
        builder.build()
    }
}

/// FNV-1a step over one `u64`, the key-mixing primitive shared by
/// [`JobSpec::content_key`] and [`JobResultData::digest`].
fn fnv_mix(state: u64, word: u64) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    (state ^ word).wrapping_mul(PRIME)
}

/// The deterministic payload of a completed job: what the byte-identity
/// contract covers.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResultData {
    /// The fittest genome found (`K·L` trits).
    pub best_genome: Vec<Trit>,
    /// Its fitness (compression rate, %).
    pub best_fitness: f64,
    /// Generations executed.
    pub generations: u64,
    /// Fitness evaluations spent.
    pub evaluations: u64,
    /// Why the EA stopped (always a deterministic reason for a completed
    /// job — deadline and cancellation stops never become results).
    pub stop_reason: StopReason,
}

impl JobResultData {
    /// A digest of every field, the compact byte-identity witness: two
    /// results are equal exactly when their digests are (up to hashing).
    /// Excludes wall-clock and attempt circumstances by construction —
    /// they are not fields.
    pub fn digest(&self) -> u64 {
        let mut digest = content_hash(&self.best_genome);
        digest = fnv_mix(digest, self.best_fitness.to_bits());
        digest = fnv_mix(digest, self.generations);
        digest = fnv_mix(digest, self.evaluations);
        digest = fnv_mix(digest, self.stop_reason as u64);
        digest
    }
}

/// A typed job failure. [`JobError::retryable`] is the supervision
/// classification: retryable failures re-enqueue with backoff until the
/// retry budget is spent, permanent ones settle the job immediately.
#[derive(Debug, Clone, PartialEq)]
pub enum JobError {
    /// The spec can never execute (see [`JobSpec::validate`]). Permanent:
    /// retrying a malformed spec cannot help.
    InvalidSpec(String),
    /// The attempt's wall-clock budget elapsed before the EA terminated.
    /// Permanent: a partial best-so-far is wall-clock-dependent and would
    /// break the byte-identity contract, so it is discarded and typed.
    DeadlineExceeded,
    /// An EA worker panicked ([`EaError::IslandFailed`]). Retryable: the
    /// canonical transient (a poisoned evaluator batch).
    WorkerPanic {
        /// Generation at which the panic surfaced.
        generation: u64,
        /// The stringified panic payload.
        message: String,
    },
    /// A fault planned by [`JobSpec::planned_faults`]. Retryable by
    /// definition.
    Injected {
        /// 1-based attempt number that was failed.
        attempt: u32,
    },
    /// A shed-cycle resume checkpoint was rejected by the engine
    /// ([`EaError::InvalidCheckpoint`]). Retryable *from scratch*: the
    /// supervisor drops the poisoned checkpoint, so the retry replays the
    /// whole (deterministic) trajectory instead of resuming.
    CheckpointRejected(String),
    /// The retry budget is spent; `last` is the final retryable failure.
    /// Permanent.
    RetriesExhausted {
        /// Total attempts made (initial + retries).
        attempts: u32,
        /// The last underlying failure.
        last: Box<JobError>,
    },
}

impl JobError {
    /// Whether the supervisor may re-attempt after this failure.
    pub fn retryable(&self) -> bool {
        matches!(
            self,
            JobError::WorkerPanic { .. }
                | JobError::Injected { .. }
                | JobError::CheckpointRejected(_)
        )
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::InvalidSpec(why) => write!(f, "invalid spec: {why}"),
            JobError::DeadlineExceeded => write!(f, "wall-clock budget exceeded"),
            JobError::WorkerPanic {
                generation,
                message,
            } => write!(f, "worker panic at generation {generation}: {message}"),
            JobError::Injected { attempt } => write!(f, "injected fault on attempt {attempt}"),
            JobError::CheckpointRejected(why) => write!(f, "resume checkpoint rejected: {why}"),
            JobError::RetriesExhausted { attempts, last } => {
                write!(f, "retries exhausted after {attempts} attempts: {last}")
            }
        }
    }
}

impl std::error::Error for JobError {}

/// A typed admission rejection: the submission never became a job. Every
/// variant is a backpressure signal the client can act on, which is the
/// point — the alternative to typed rejection is unbounded queue growth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejected {
    /// The spec can never execute (see [`JobSpec::validate`]); the reason.
    InvalidSpec(String),
    /// The bounded queue is at capacity.
    QueueFull {
        /// The configured capacity that was hit.
        capacity: usize,
    },
    /// The requested wall-clock budget is below the service's configured
    /// floor — the job would only ever burn a worker and fail.
    DeadlineInfeasible {
        /// The budget the spec asked for.
        budget: Duration,
        /// The smallest budget the service admits.
        minimum: Duration,
    },
    /// The tenant already has its quota of jobs in flight.
    TenantQuotaExceeded {
        /// The rejected tenant.
        tenant: TenantId,
        /// Jobs the tenant currently has admitted and unfinished.
        in_flight: usize,
        /// The per-tenant cap.
        quota: usize,
    },
    /// The tenant's circuit breaker is open (repeat failures).
    CircuitOpen {
        /// The rejected tenant.
        tenant: TenantId,
        /// Service-clock time from which a retry may be admitted.
        retry_at: Duration,
    },
    /// The service is draining for shutdown.
    ShuttingDown,
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejected::InvalidSpec(why) => write!(f, "invalid spec: {why}"),
            Rejected::QueueFull { capacity } => write!(f, "queue full (capacity {capacity})"),
            Rejected::DeadlineInfeasible { budget, minimum } => write!(
                f,
                "budget {budget:?} below the admissible minimum {minimum:?}"
            ),
            Rejected::TenantQuotaExceeded {
                tenant,
                in_flight,
                quota,
            } => write!(f, "{tenant} at quota ({in_flight}/{quota} in flight)"),
            Rejected::CircuitOpen { tenant, retry_at } => {
                write!(f, "{tenant} circuit open until {retry_at:?}")
            }
            Rejected::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for Rejected {}

/// Where a completed result came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// Computed by this job's own EA run.
    Fresh,
    /// Served from the cross-run result cache; `source` is the job whose
    /// completion populated the entry.
    Cache {
        /// The job that computed the cached result.
        source: JobId,
    },
}

/// How a job ended.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome {
    /// The job has a result (fresh or cached).
    Completed {
        /// The deterministic result payload.
        data: JobResultData,
        /// Fresh computation or cache hit.
        provenance: Provenance,
    },
    /// The job failed permanently with a typed error.
    Failed(JobError),
}

/// The terminal record of one submitted job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobReport {
    /// The job's identity.
    pub id: JobId,
    /// The submitting tenant.
    pub tenant: TenantId,
    /// How the job ended.
    pub outcome: JobOutcome,
    /// Executor attempts consumed (0 for a cache hit at admission; a job
    /// that completed first try reports 1).
    pub attempts: u32,
    /// Times the job was preempted by overload shedding and re-admitted.
    pub shed_cycles: u32,
    /// Checkpoint captures whose sink failed, summed over attempts
    /// (observability; excluded from the byte-identity contract).
    pub checkpoint_failures: u64,
    /// Service-clock time of admission.
    pub submitted_at: Duration,
    /// Service-clock time the terminal outcome was recorded.
    pub finished_at: Duration,
}

impl JobReport {
    /// Submission-to-settlement latency on the service clock.
    pub fn latency(&self) -> Duration {
        self.finished_at.saturating_sub(self.submitted_at)
    }
}

/// What one executor attempt produced.
#[derive(Debug)]
pub(crate) enum Attempt {
    /// The EA terminated for a deterministic reason: a result.
    Done {
        /// The completed payload.
        data: JobResultData,
        /// Checkpoint-sink failures during this attempt.
        checkpoint_failures: u64,
    },
    /// The attempt was preempted (overload shedding): re-admit and resume
    /// from `checkpoint` (or from scratch when no capture had happened
    /// yet — still byte-identical, just more recomputation).
    Preempted {
        /// The freshest on-trajectory checkpoint captured before
        /// preemption.
        checkpoint: Option<EaCheckpoint<Trit>>,
        /// Checkpoint-sink failures during this attempt.
        checkpoint_failures: u64,
    },
}

/// Runs one attempt of `spec` on the calling worker thread.
///
/// `cancel` is the preemption channel: the overload shedder cancels it, and
/// the attempt then surfaces as [`Attempt::Preempted`] carrying the
/// freshest checkpoint `checkpoint_interval` produced. `resume` replays a
/// previous preemption's checkpoint back into the engine.
pub(crate) fn execute(
    spec: &JobSpec,
    cancel: CancelToken,
    resume: Option<EaCheckpoint<Trit>>,
    checkpoint_interval: u64,
) -> Result<Attempt, JobError> {
    spec.validate()?;
    let string = TestSetString::try_new(&spec.patterns, spec.k)
        .map_err(|err| JobError::InvalidSpec(err.to_string()))?;
    let histogram = BlockHistogram::from_string(&string);
    let compressor = EaCompressor::builder(spec.k, spec.l)
        .config(spec.ea_config())
        .build();

    let mut captured = None;
    let mut ea = compressor
        .ea_builder(&histogram, string.payload_bits() as f64)
        .cancel_token(cancel);
    if spec.preemptible && checkpoint_interval > 0 {
        // Keep only the freshest capture: a preempted attempt resumes from
        // the latest on-trajectory state, never an older one.
        ea = ea.checkpoint_every(checkpoint_interval, |cp| {
            captured = Some(cp);
            Ok(())
        });
    }
    if let Some(checkpoint) = resume {
        ea = ea.resume_from(checkpoint);
    }
    let result = ea.try_run().map_err(|err| match err {
        EaError::IslandFailed {
            generation,
            message,
            ..
        } => JobError::WorkerPanic {
            generation,
            message,
        },
        EaError::InvalidCheckpoint(err) => JobError::CheckpointRejected(err.to_string()),
    })?;
    let checkpoint_failures = result.checkpoint_failures;
    match result.stop_reason {
        StopReason::Deadline => Err(JobError::DeadlineExceeded),
        StopReason::Cancelled => Ok(Attempt::Preempted {
            checkpoint: captured,
            checkpoint_failures,
        }),
        reason => Ok(Attempt::Done {
            data: JobResultData {
                best_genome: result.best_genome,
                best_fitness: result.best_fitness,
                generations: result.generations,
                evaluations: result.evaluations,
                stop_reason: reason,
            },
            checkpoint_failures,
        }),
    }
}

/// The uninterrupted reference executor: one attempt, no preemption, no
/// checkpointing, no resume. This is the oracle the byte-identity property
/// tests and the replay harness compare service results against — whatever
/// path a job took through the service, a completed result must equal
/// `run_spec` of its spec.
pub fn run_spec(spec: &JobSpec) -> Result<JobResultData, JobError> {
    match execute(spec, CancelToken::new(), None, 0)? {
        Attempt::Done { data, .. } => Ok(data),
        // The token above is never cancelled and checkpointing is off, so
        // the engine cannot stop on Cancelled.
        Attempt::Preempted { .. } => unreachable!("uncancelled run cannot be preempted"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(seed: u64) -> JobSpec {
        let patterns = TestSet::parse(&[
            "110100XX", "110000XX", "11010000", "110X00XX", "11010011", "110100XX",
        ])
        .unwrap();
        JobSpec::new(TenantId(1), patterns, 8, 4, seed)
    }

    #[test]
    fn run_spec_is_deterministic_and_digest_detects_differences() {
        let a = run_spec(&spec(3)).unwrap();
        let b = run_spec(&spec(3)).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
        let c = run_spec(&spec(4)).unwrap();
        assert_ne!(a.digest(), c.digest(), "different seeds, different runs");
        assert_eq!(a.stop_reason, StopReason::Converged);
    }

    #[test]
    fn content_key_tracks_result_affecting_fields_only() {
        let base = spec(3);
        let mut scheduling_only = spec(3);
        scheduling_only.tenant = TenantId(9);
        scheduling_only.budget = Some(Duration::from_secs(60));
        scheduling_only.preemptible = false;
        scheduling_only.planned_faults = 2;
        assert_eq!(base.content_key(), scheduling_only.content_key());
        for (label, changed) in [
            ("seed", {
                let mut s = spec(3);
                s.seed = 4;
                s
            }),
            ("k/l", {
                let mut s = spec(3);
                s.l = 5;
                s
            }),
            ("budgets", {
                let mut s = spec(3);
                s.max_evaluations = 9_999;
                s
            }),
        ] {
            assert_ne!(base.content_key(), changed.content_key(), "{label}");
        }
    }

    #[test]
    fn invalid_specs_fail_permanently_with_a_reason() {
        let mut empty = spec(0);
        empty.patterns = TestSet::new(8);
        let err = run_spec(&empty).unwrap_err();
        assert!(matches!(err, JobError::InvalidSpec(_)));
        assert!(!err.retryable());

        let mut bad_k = spec(0);
        bad_k.k = 0;
        assert!(matches!(
            bad_k.validate(),
            Err(JobError::InvalidSpec(ref why)) if why.contains("K=0")
        ));
    }

    #[test]
    fn invalid_specs_are_rejected_at_submit() {
        use crate::{BreakerPolicy, JobOutcome, Service, ServiceConfig};
        let invalid: Vec<(&str, JobSpec)> = vec![
            ("empty test set", {
                let mut s = spec(5);
                s.patterns = TestSet::new(8);
                s
            }),
            ("K=0", {
                let mut s = spec(5);
                s.k = 0;
                s
            }),
            ("K=65", {
                let mut s = spec(5);
                s.k = 65;
                s
            }),
            ("at least one MV", {
                let mut s = spec(5);
                s.l = 0;
                s
            }),
            ("stagnation", {
                let mut s = spec(5);
                s.stagnation_limit = 0;
                s
            }),
            ("genome length", {
                let mut s = spec(5);
                s.l = 1 << 40;
                s
            }),
            ("genome length", {
                let mut s = spec(5);
                s.l = usize::MAX;
                s
            }),
        ];
        // One failure would trip this breaker and one job fills the quota
        // and the queue, so a rejection that touched any of them would
        // turn the valid submission below away.
        let breaker = BreakerPolicy {
            failure_threshold: 1,
            ..BreakerPolicy::default()
        };
        let config = ServiceConfig::builder()
            .workers(1)
            .queue_capacity(1)
            .tenant_quota(1)
            .breaker(breaker)
            .virtual_time()
            .build();
        let service = Service::start(config);
        for (reason, spec) in invalid {
            match service.submit(spec) {
                Err(Rejected::InvalidSpec(why)) => assert!(why.contains(reason), "{why}"),
                other => panic!("{reason}: {other:?}"),
            }
            assert_eq!(service.queue_len(), 0);
        }
        service.submit(spec(5)).expect("the tenant is untouched");
        let outcome = service.shutdown();
        assert!(outcome.stats.accounted(), "lost jobs: {:?}", outcome.stats);
        assert_eq!(outcome.stats.rejected_invalid, 7);
        assert_eq!(outcome.stats.rejected_total(), 7);
        assert_eq!((outcome.stats.failed, outcome.stats.retries), (0, 0));
        assert_eq!(outcome.reports.len(), 1, "no report for a rejection");
        assert!(matches!(
            outcome.reports[0].outcome,
            JobOutcome::Completed { .. }
        ));
    }

    #[test]
    fn the_service_runs_the_compressors_ea() {
        for (k, l) in [(8, 4), (12, 16)] {
            for seed in [3, 4] {
                let mut job = spec(seed);
                (job.k, job.l) = (k, l);
                let config = EaConfig::builder()
                    .stagnation_limit(job.stagnation_limit)
                    .max_evaluations(job.max_evaluations)
                    .seed(job.seed)
                    .build();
                let (_, summary) = EaCompressor::builder(k, l)
                    .config(config)
                    .build()
                    .compress_with_summary(&job.patterns)
                    .unwrap();
                let data = run_spec(&job).unwrap();
                let label = format!("K={k} L={l} seed {seed}");
                assert_eq!(
                    data.best_fitness.to_bits(),
                    summary.best_fitness.to_bits(),
                    "{label}"
                );
                assert_eq!(data.generations, summary.generations, "{label}");
                assert_eq!(data.evaluations, summary.evaluations, "{label}");
                assert_eq!(data.stop_reason, summary.stop_reason, "{label}");
            }
        }
    }

    #[test]
    fn error_classification_is_stable() {
        assert!(JobError::WorkerPanic {
            generation: 3,
            message: "boom".into()
        }
        .retryable());
        assert!(JobError::Injected { attempt: 1 }.retryable());
        assert!(JobError::CheckpointRejected("bad magic".into()).retryable());
        assert!(!JobError::DeadlineExceeded.retryable());
        let exhausted = JobError::RetriesExhausted {
            attempts: 4,
            last: Box::new(JobError::Injected { attempt: 4 }),
        };
        assert!(!exhausted.retryable());
        assert!(exhausted.to_string().contains("4 attempts"));
    }

    #[test]
    fn hostile_budget_is_a_typed_permanent_failure() {
        let mut hostile = spec(1);
        hostile.budget = Some(Duration::ZERO);
        hostile.stagnation_limit = 10_000;
        hostile.max_evaluations = u64::MAX;
        let err = run_spec(&hostile).unwrap_err();
        assert_eq!(err, JobError::DeadlineExceeded);
    }
}
