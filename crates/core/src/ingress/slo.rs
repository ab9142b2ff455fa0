//! SLO semantics of the ingress layer: deadlines, shedding and the typed
//! backpressure surface.
//!
//! Every request resolves to an **absolute deadline** at submission (an
//! explicit per-request deadline, or `now + default_slo` from the
//! [`IngressConfig`](crate::ingress::IngressConfig), or none). Whichever
//! executor drains the request — a waiting ticket's thread or the pump —
//! checks the deadline immediately before execution:
//!
//! * expired before execution → the request is **shed**: its ticket
//!   resolves to [`IngressError::Backpressure`](crate::ingress::IngressError::Backpressure) with
//!   [`Backpressure::DeadlineExpired`] and no kernel runs — a shed request
//!   never observes partial results;
//! * expired *during* execution → the result is still delivered (the work
//!   is already paid for) and the overrun is counted as a deadline miss in
//!   [`IngressStats::deadline_misses`](crate::ingress::IngressStats::deadline_misses).
//!
//! Admission failures (full queue, exhausted tenant quota) use the same
//! [`Backpressure`] type, so callers branch on one explicit enum instead
//! of inferring overload from latency — the replacement for the serving
//! layer's silent pool-busy serial fallback.
//!
//! [`IngressError`]: crate::ingress::IngressError

use std::fmt;
use std::time::{Duration, Instant};

/// Why the ingress layer refused admission or abandoned a queued request.
///
/// Carried by [`IngressError::Backpressure`](crate::ingress::IngressError):
/// the *typed* overload signal of the serving path. Every variant means
/// "not executed" — a backpressured request never produces partial output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backpressure {
    /// The submission queue is at capacity; retry later or shed load
    /// upstream.
    QueueFull {
        /// The configured queue capacity that was hit.
        capacity: usize,
    },
    /// The tenant already has its full quota of requests in flight;
    /// admission would let one tenant starve the rest.
    TenantQuota {
        /// The tenant's in-flight quota that was hit.
        limit: usize,
    },
    /// The request's deadline expired while it was queued; it was shed
    /// before any kernel ran.
    DeadlineExpired,
    /// The ingress is shutting down; queued work is shed, not executed.
    ShuttingDown,
}

impl fmt::Display for Backpressure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Backpressure::QueueFull { capacity } => {
                write!(f, "submission queue full ({capacity} requests)")
            }
            Backpressure::TenantQuota { limit } => {
                write!(f, "tenant quota exhausted ({limit} in flight)")
            }
            Backpressure::DeadlineExpired => write!(f, "deadline expired before execution"),
            Backpressure::ShuttingDown => write!(f, "ingress shutting down"),
        }
    }
}

/// Resolves a request's SLO to an absolute deadline at submission time:
/// an explicit deadline wins, otherwise the configured default budget is
/// anchored at `submitted`, otherwise the request has no deadline.
pub(crate) fn resolve_deadline(
    submitted: Instant,
    explicit: Option<Instant>,
    default_budget: Option<Duration>,
) -> Option<Instant> {
    explicit.or_else(|| default_budget.map(|b| submitted + b))
}

/// `true` when a deadline has passed at `now` — the single shed/miss
/// predicate, so queued-shed and post-execution-miss accounting can never
/// disagree on what "late" means.
pub(crate) fn expired(deadline: Option<Instant>, now: Instant) -> bool {
    deadline.is_some_and(|d| d <= now)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_deadline_wins_over_default_budget() {
        let t0 = Instant::now();
        let explicit = t0 + Duration::from_millis(3);
        assert_eq!(resolve_deadline(t0, Some(explicit), Some(Duration::from_secs(9))), Some(explicit));
        assert_eq!(
            resolve_deadline(t0, None, Some(Duration::from_millis(5))),
            Some(t0 + Duration::from_millis(5))
        );
        assert_eq!(resolve_deadline(t0, None, None), None);
    }

    #[test]
    fn expiry_is_inclusive_and_no_deadline_never_expires() {
        let t0 = Instant::now();
        assert!(expired(Some(t0), t0), "a deadline exactly at now is late");
        assert!(!expired(Some(t0 + Duration::from_secs(1)), t0));
        assert!(!expired(None, t0 + Duration::from_secs(3600)));
    }

    #[test]
    fn backpressure_displays_its_cause() {
        assert!(Backpressure::QueueFull { capacity: 7 }.to_string().contains('7'));
        assert!(Backpressure::TenantQuota { limit: 3 }.to_string().contains('3'));
        assert!(Backpressure::DeadlineExpired.to_string().contains("deadline"));
        assert!(Backpressure::ShuttingDown.to_string().contains("shutting down"));
    }
}
