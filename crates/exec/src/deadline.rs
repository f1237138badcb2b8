//! Per-statement execution deadlines.
//!
//! A [`Deadline`] is a wall-clock point after which a statement must
//! stop consuming engine resources. The evaluator checks it at its
//! single cursor-pull choke point (`Evaluator::pull`), so an
//! expired statement unwinds through the normal cursor-closing path —
//! locks release, the implicit transaction rolls back, and the caller
//! sees a typed [`crate::ExecError::DeadlineExceeded`] it can map to a
//! retryable wire error. The clock keeps running while a streamed
//! result is suspended: a deadline bounds total statement wall time,
//! not just compute time, which is what an end-user timeout means.

use std::time::{Duration, Instant};

/// A point in time after which a statement gives up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    at: Instant,
}

impl Deadline {
    /// A deadline `d` from now.
    pub fn after(d: Duration) -> Deadline {
        Deadline {
            at: Instant::now() + d,
        }
    }

    /// A deadline at an absolute instant (for callers that stamp the
    /// statement's admission time themselves).
    pub fn at(at: Instant) -> Deadline {
        Deadline { at }
    }

    /// Whether the deadline has passed.
    pub fn expired(&self) -> bool {
        Instant::now() >= self.at
    }

    /// Time left before expiry (zero once expired).
    pub fn remaining(&self) -> Duration {
        self.at.saturating_duration_since(Instant::now())
    }

    /// The underlying instant.
    pub fn instant(&self) -> Instant {
        self.at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expiry_and_remaining() {
        let d = Deadline::after(Duration::from_secs(60));
        assert!(!d.expired());
        assert!(d.remaining() > Duration::from_secs(30));

        let past = Deadline::at(Instant::now() - Duration::from_millis(1));
        assert!(past.expired());
        assert_eq!(past.remaining(), Duration::ZERO);
    }
}
