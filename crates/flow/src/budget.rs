//! Cooperative cancellation: the [`Budget`] token and the [`Interrupted`]
//! error.
//!
//! Long-running enumerations need to be *interruptible*: a serving process
//! that promised a deadline cannot wait for a giant component's cut loop to
//! run to completion. A [`Budget`] bundles the two interruption sources —
//! a wall-clock deadline and an explicit cancellation flag — behind one
//! cheap [`expired`](Budget::expired) poll. The convention throughout the
//! workspace is **cooperative, coarse-grained checking**: hot loops poll at
//! natural phase boundaries (one Dinic BFS phase, one augmenting-path search
//! of a probe from a fixed source, one `GLOBAL-CUT` probe, one work item),
//! never per edge, so the cost of being interruptible is a handful of
//! nanoseconds per phase while the interrupt latency stays bounded by the
//! largest single phase.
//!
//! An unlimited budget ([`Budget::unlimited`], also the `Default`) carries
//! neither a deadline nor a flag and allocates nothing, so code paths that
//! never cancel pay nothing for the plumbing. Clones share the cancellation
//! flag: cancelling any clone interrupts every computation polling one of
//! them.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A computation was cut short by its [`Budget`] (deadline passed or the
/// token was cancelled). The partially mutated scratch state is safe to
/// reuse; only the *answer* of the interrupted computation is missing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Interrupted;

impl std::fmt::Display for Interrupted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "computation interrupted by its budget (deadline or cancellation)"
        )
    }
}

impl std::error::Error for Interrupted {}

/// A cooperative cancellation token: an optional wall-clock deadline plus an
/// optional shared cancellation flag (see the [module docs](self)).
#[derive(Clone, Debug, Default)]
pub struct Budget {
    deadline: Option<Instant>,
    flag: Option<Arc<AtomicBool>>,
}

impl Budget {
    /// A budget that never expires and cannot be cancelled. Allocation-free,
    /// so it is the zero-cost default for un-deadlined work.
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// A budget expiring at `deadline`. Also carries a cancellation flag so
    /// the caller can additionally [`cancel`](Budget::cancel) early.
    pub fn with_deadline(deadline: Instant) -> Self {
        Budget {
            deadline: Some(deadline),
            flag: Some(Arc::new(AtomicBool::new(false))),
        }
    }

    /// A budget expiring `timeout` from now.
    pub fn with_timeout(timeout: Duration) -> Self {
        Self::with_deadline(Instant::now() + timeout)
    }

    /// A budget with no deadline that can only expire through an explicit
    /// [`cancel`](Budget::cancel) on this token or any of its clones.
    pub fn cancellable() -> Self {
        Budget {
            deadline: None,
            flag: Some(Arc::new(AtomicBool::new(false))),
        }
    }

    /// The deadline, if one is set.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Whether this budget can never expire (no deadline, no flag).
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.flag.is_none()
    }

    /// Raises the cancellation flag, interrupting every computation polling
    /// this budget or one of its clones at its next check. No-op on a budget
    /// without a flag ([`Budget::unlimited`]).
    pub fn cancel(&self) {
        if let Some(flag) = &self.flag {
            flag.store(true, Ordering::Relaxed);
        }
    }

    /// Whether [`cancel`](Budget::cancel) has been called (ignores the
    /// deadline).
    pub fn is_cancelled(&self) -> bool {
        self.flag
            .as_ref()
            .is_some_and(|flag| flag.load(Ordering::Relaxed))
    }

    /// Polls the token: `true` once the deadline has passed or the flag was
    /// raised. This is the check hot loops place at phase boundaries.
    #[inline]
    pub fn expired(&self) -> bool {
        self.is_cancelled()
            || self
                .deadline
                .is_some_and(|deadline| Instant::now() >= deadline)
    }

    /// [`expired`](Budget::expired) as a `Result`, for `?`-style
    /// propagation out of interruptible loops.
    #[inline]
    pub fn check(&self) -> Result<(), Interrupted> {
        if self.expired() {
            Err(Interrupted)
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_expires_and_allocates_no_flag() {
        let b = Budget::unlimited();
        assert!(b.is_unlimited());
        assert!(!b.expired());
        assert!(b.check().is_ok());
        b.cancel(); // no flag: documented no-op
        assert!(!b.is_cancelled());
        assert!(!b.expired());
    }

    #[test]
    fn deadline_in_the_past_expires_immediately() {
        let b = Budget::with_timeout(Duration::ZERO);
        assert!(!b.is_unlimited());
        assert!(b.expired());
        assert_eq!(b.check(), Err(Interrupted));
        assert!(b.deadline().is_some());
    }

    #[test]
    fn generous_deadline_does_not_expire_yet() {
        let b = Budget::with_timeout(Duration::from_secs(3600));
        assert!(!b.expired());
        // Cancellation overrides the deadline.
        b.cancel();
        assert!(b.is_cancelled());
        assert!(b.expired());
    }

    #[test]
    fn clones_share_the_cancellation_flag() {
        let a = Budget::cancellable();
        let b = a.clone();
        assert!(!b.expired());
        a.cancel();
        assert!(b.expired());
        assert!(b.is_cancelled());
    }
}
