//! Retry policy: transient-error classification, in-place retries
//! with exponential backoff + deterministic jitter, and the
//! end-of-campaign recrawl queue switch.

use kt_netlog::NetError;
use kt_simnet::rng;

/// True for failures worth retrying: the error classes real crawls
/// observe flapping (timeouts, resets, empty responses). Permanent
/// fates — NXDOMAIN, refused ports, certificate errors — go straight
/// to Table 1.
pub fn is_transient(err: NetError) -> bool {
    matches!(
        err,
        NetError::TimedOut | NetError::ConnectionReset | NetError::EmptyResponse
    )
}

/// The supervisor's retry/backoff/recrawl configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total in-place attempts per visit (1 = no retry).
    pub max_attempts: u32,
    /// First backoff interval, ms.
    pub base_backoff_ms: u64,
    /// Backoff ceiling, ms.
    pub max_backoff_ms: u64,
    /// Queue still-failing transient sites for one recrawl at campaign
    /// end before recording them as Table 1 failures.
    pub recrawl: bool,
}

impl RetryPolicy {
    /// The production policy: one in-place retry with a few seconds of
    /// backoff, then the end-of-campaign recrawl pass.
    pub fn paper() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 2,
            base_backoff_ms: 5_000,
            max_backoff_ms: 60_000,
            recrawl: true,
        }
    }

    /// Single-shot: visit once, record whatever happens (the seed
    /// crawler's behaviour).
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            base_backoff_ms: 0,
            max_backoff_ms: 0,
            recrawl: false,
        }
    }

    /// Backoff before retry number `attempt` (1-based: the wait after
    /// the `attempt`-th failure): exponential in the attempt, clamped,
    /// plus deterministic jitter hashed from the site identity so
    /// workers never thundering-herd yet stay reproducible.
    pub fn backoff_ms(&self, seed: u64, domain: &str, attempt: u32) -> u64 {
        if self.base_backoff_ms == 0 {
            return 0;
        }
        let exp = self
            .base_backoff_ms
            .saturating_mul(1u64 << attempt.saturating_sub(1).min(16))
            .min(self.max_backoff_ms);
        let jitter_span = (self.base_backoff_ms / 2).max(1);
        exp + rng::hash_str(seed, format_args!("backoff/{domain}/{attempt}")) % jitter_span
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_classification_matches_the_failure_model() {
        assert!(is_transient(NetError::TimedOut));
        assert!(is_transient(NetError::ConnectionReset));
        assert!(is_transient(NetError::EmptyResponse));
        assert!(!is_transient(NetError::NameNotResolved));
        assert!(!is_transient(NetError::ConnectionRefused));
        assert!(!is_transient(NetError::CertCommonNameInvalid));
        assert!(!is_transient(NetError::Aborted));
    }

    #[test]
    fn backoff_grows_exponentially_and_clamps() {
        let policy = RetryPolicy {
            max_attempts: 5,
            base_backoff_ms: 1_000,
            max_backoff_ms: 4_000,
            recrawl: true,
        };
        let b1 = policy.backoff_ms(7, "s.example", 1);
        let b2 = policy.backoff_ms(7, "s.example", 2);
        let b3 = policy.backoff_ms(7, "s.example", 3);
        let b9 = policy.backoff_ms(7, "s.example", 9);
        assert!((1_000..1_500).contains(&b1), "{b1}");
        assert!((2_000..2_500).contains(&b2), "{b2}");
        assert!((4_000..4_500).contains(&b3), "clamped: {b3}");
        assert!((4_000..4_500).contains(&b9), "stays clamped: {b9}");
    }

    #[test]
    fn backoff_is_deterministic_but_jittered_across_sites() {
        let policy = RetryPolicy::paper();
        assert_eq!(
            policy.backoff_ms(1, "a.example", 1),
            policy.backoff_ms(1, "a.example", 1)
        );
        let distinct: std::collections::BTreeSet<u64> = (0..50)
            .map(|i| policy.backoff_ms(1, &format!("j{i}.example"), 1))
            .collect();
        assert!(distinct.len() > 10, "jitter spreads sites out");
    }

    #[test]
    fn none_policy_never_waits() {
        let policy = RetryPolicy::none();
        assert_eq!(policy.max_attempts, 1);
        assert!(!policy.recrawl);
        assert_eq!(policy.backoff_ms(1, "x.example", 1), 0);
    }
}
