//! Per-host circuit breakers.
//!
//! A LAN address with no host behind it costs a full timeout per knock
//! per attempt; sweeping several ports on a dead host burns the scan's
//! deadline budget for nothing. The breaker trips after a configured
//! run of consecutive hard failures on a host, rejects that host's
//! knocks while open, and half-opens on a clock schedule to let one
//! probe test whether the host came back.
//!
//! The state machine is the classic three-state breaker:
//!
//! ```text
//!            consecutive hard failures ≥ threshold
//!   Closed ────────────────────────────────────────▶ Open{until}
//!     ▲                                                  │
//!     │ probe succeeds                      now ≥ until  │
//!     │                                                  ▼
//!     └─────────────────────────────────────────── HalfOpen
//!                    probe fails ⇒ Open{until = now + cooldown}
//! ```
//!
//! All times are simulated milliseconds from the scan's virtual clock,
//! so breaker behaviour is deterministic and worker-count-invariant.

/// Breaker tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive hard failures (exhausted knocks) that trip the
    /// breaker. 0 disables tripping entirely.
    pub threshold: u32,
    /// How long the breaker stays open before half-opening, ms.
    pub cooldown_ms: u64,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            threshold: 3,
            cooldown_ms: 5_000,
        }
    }
}

/// Observable breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Probes flow; failures are being counted.
    Closed,
    /// Probes are rejected until the cooldown expires at `until`.
    Open {
        /// Virtual time at which the breaker half-opens.
        until: u64,
    },
    /// One trial probe is admitted; its outcome decides the next state.
    HalfOpen,
}

/// One host's breaker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    trips: u64,
}

impl CircuitBreaker {
    /// A closed breaker.
    pub fn new(config: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            config,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            trips: 0,
        }
    }

    /// Current state (transitions Open→HalfOpen happen in [`admit`]).
    ///
    /// [`admit`]: CircuitBreaker::admit
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Times this breaker has tripped (Closed/HalfOpen → Open).
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// May a probe be sent at virtual time `now`? An open breaker past
    /// its cooldown half-opens and admits exactly one trial probe.
    pub fn admit(&mut self, now: u64) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open { until } if now >= until => {
                self.state = BreakerState::HalfOpen;
                true
            }
            BreakerState::Open { .. } => false,
        }
    }

    /// A knock on the host got a definitive answer: the host is alive.
    pub fn record_success(&mut self) {
        self.state = BreakerState::Closed;
        self.consecutive_failures = 0;
    }

    /// A knock exhausted its retries without a definitive answer at
    /// virtual time `now`.
    pub fn record_failure(&mut self, now: u64) {
        match self.state {
            BreakerState::HalfOpen => self.trip(now),
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.config.threshold > 0 && self.consecutive_failures >= self.config.threshold {
                    self.trip(now);
                }
            }
            // Failures cannot be recorded while open: admit() refused.
            BreakerState::Open { .. } => {}
        }
    }

    fn trip(&mut self, now: u64) {
        self.state = BreakerState::Open {
            until: now + self.config.cooldown_ms,
        };
        self.consecutive_failures = 0;
        self.trips += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BreakerConfig {
        BreakerConfig {
            threshold: 3,
            cooldown_ms: 1_000,
        }
    }

    #[test]
    fn trips_after_consecutive_failures_only() {
        let mut b = CircuitBreaker::new(cfg());
        b.record_failure(0);
        b.record_failure(10);
        b.record_success(); // a definitive answer resets the run
        b.record_failure(20);
        b.record_failure(30);
        assert_eq!(b.state(), BreakerState::Closed, "run was broken by success");
        b.record_failure(40);
        assert_eq!(b.state(), BreakerState::Open { until: 1_040 });
        assert_eq!(b.trips(), 1);
    }

    #[test]
    fn open_rejects_until_cooldown_then_half_opens() {
        let mut b = CircuitBreaker::new(cfg());
        for t in 0..3 {
            assert!(b.admit(t));
            b.record_failure(t);
        }
        assert!(!b.admit(500), "open: rejected");
        assert!(b.admit(1_002), "past cooldown: half-open trial admitted");
        assert_eq!(b.state(), BreakerState::HalfOpen);
    }

    #[test]
    fn half_open_success_closes_failure_reopens() {
        let mut b = CircuitBreaker::new(cfg());
        for t in 0..3 {
            b.record_failure(t);
        }
        assert!(b.admit(2_000));
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);

        // Trip again, then fail the half-open trial: immediate re-open
        // with a fresh cooldown, each transition counted as a trip.
        for t in 0..3 {
            b.record_failure(3_000 + t);
        }
        assert!(b.admit(5_000));
        b.record_failure(5_100);
        assert_eq!(b.state(), BreakerState::Open { until: 6_100 });
        assert_eq!(b.trips(), 3);
    }

    #[test]
    fn zero_threshold_disables_tripping() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            threshold: 0,
            cooldown_ms: 1_000,
        });
        for t in 0..50 {
            assert!(b.admit(t));
            b.record_failure(t);
        }
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.trips(), 0);
    }
}
