//! Run supervision: cooperative cancellation, stop reasons, and typed run
//! errors.
//!
//! The engine checks for cancellation and deadlines only at generation
//! boundaries (epoch boundaries for island runs), so a stopping run always
//! returns a well-formed [`crate::EaResult`] with the best-so-far state —
//! it never tears down mid-generation. Which boundary fired is reported as
//! a [`StopReason`] on the result.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::checkpoint::CheckpointError;

/// A shared flag requesting that a run stop at the next generation (or
/// epoch) boundary.
///
/// Clone the token, hand one clone to [`crate::EaBuilder::cancel_token`]
/// and keep the other; calling [`CancelToken::cancel`] from any thread —
/// a signal handler, a service timeout, another worker — makes the run
/// finish its current generation, then return normally with
/// [`StopReason::Cancelled`]. Cancellation is level-triggered and
/// irrevocable for the token's lifetime.
///
/// ```
/// use evotc_evo::CancelToken;
///
/// let token = CancelToken::new();
/// assert!(!token.is_cancelled());
/// token.cancel();
/// assert!(token.is_cancelled());
/// assert!(token.clone().is_cancelled(), "clones share the flag");
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation. Safe to call from any thread, any number of
    /// times; the flag never resets.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Why a run stopped. Reported on [`crate::EaResult::stop_reason`].
///
/// The deterministic reasons ([`StopReason::Converged`],
/// [`StopReason::EvaluationBudget`], [`StopReason::GenerationCap`]) are part
/// of the determinism contract: same seed and config ⇒ same reason. The
/// wall-clock reasons ([`StopReason::Deadline`], [`StopReason::Cancelled`])
/// are not — but the result they come with is still well-formed best-so-far
/// state. When several conditions hold at the same boundary, the reasons
/// are checked in the order they are declared here, so the reported reason
/// is deterministic whenever only deterministic conditions fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The stagnation limit was reached: no improvement of the best fitness
    /// for [`crate::EaConfig::stagnation_limit`] consecutive generations
    /// (the paper's termination condition).
    Converged,
    /// The evaluation budget [`crate::EaConfig::max_evaluations`] was
    /// exhausted.
    EvaluationBudget,
    /// The generation cap [`crate::EaConfig::max_generations`] was reached.
    GenerationCap,
    /// The soft deadline [`crate::EaConfig::deadline`] elapsed.
    Deadline,
    /// A [`CancelToken`] was cancelled.
    Cancelled,
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StopReason::Converged => write!(f, "converged"),
            StopReason::EvaluationBudget => write!(f, "evaluation-budget"),
            StopReason::GenerationCap => write!(f, "generation-cap"),
            StopReason::Deadline => write!(f, "deadline"),
            StopReason::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// A typed run failure, returned by [`crate::EaBuilder::try_run`].
#[derive(Debug, Clone, PartialEq)]
pub enum EaError {
    /// An island worker panicked (island `0` is "the population" for
    /// panmictic runs). The whole run fails: it has no partial result.
    IslandFailed {
        /// Index of the failed island (the lowest one, if several panicked
        /// in the same epoch).
        island: usize,
        /// Generation counter when the failure surfaced (the boundary at
        /// which the panic was observed, not necessarily where it began).
        generation: u64,
        /// The panic payload, stringified.
        message: String,
    },
    /// The checkpoint handed to [`crate::EaBuilder::resume_from`] cannot
    /// start this run (version, config fingerprint, or shape mismatch).
    InvalidCheckpoint(CheckpointError),
}

impl fmt::Display for EaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EaError::IslandFailed {
                island,
                generation,
                message,
            } => write!(
                f,
                "island {island} failed at generation {generation}: {message}"
            ),
            EaError::InvalidCheckpoint(err) => write!(f, "invalid checkpoint: {err}"),
        }
    }
}

impl std::error::Error for EaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EaError::InvalidCheckpoint(err) => Some(err),
            EaError::IslandFailed { .. } => None,
        }
    }
}

impl From<CheckpointError> for EaError {
    fn from(err: CheckpointError) -> Self {
        EaError::InvalidCheckpoint(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_is_shared_and_sticky() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!clone.is_cancelled());
        token.cancel();
        assert!(clone.is_cancelled());
        token.cancel(); // idempotent
        assert!(token.is_cancelled());
    }

    #[test]
    fn independent_tokens_do_not_alias() {
        let a = CancelToken::new();
        let b = CancelToken::new();
        a.cancel();
        assert!(!b.is_cancelled());
    }

    #[test]
    fn stop_reason_displays_compactly() {
        assert_eq!(StopReason::Converged.to_string(), "converged");
        assert_eq!(StopReason::Deadline.to_string(), "deadline");
        assert_eq!(StopReason::Cancelled.to_string(), "cancelled");
        assert_eq!(
            StopReason::EvaluationBudget.to_string(),
            "evaluation-budget"
        );
        assert_eq!(StopReason::GenerationCap.to_string(), "generation-cap");
    }

    #[test]
    fn errors_display_their_context() {
        let err = EaError::IslandFailed {
            island: 2,
            generation: 17,
            message: "boom".into(),
        };
        let s = err.to_string();
        assert!(
            s.contains("island 2") && s.contains("17") && s.contains("boom"),
            "{s}"
        );
        let err = EaError::InvalidCheckpoint(CheckpointError::ConfigMismatch);
        assert!(err.to_string().contains("invalid checkpoint"), "{err}");
    }
}
