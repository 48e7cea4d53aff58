//! The pre-visit connectivity check.
//!
//! "Before visiting a webpage, we first check for network connectivity
//! by pinging Google's DNS server (8.8.8.8). This ensures that we crawl
//! a site only when the measurement infrastructure has Internet
//! connectivity, and thus we can differentiate between website load
//! failures and network issues on our end." (§3.1)
//!
//! The checker supports injected outage windows so failure-injection
//! tests can verify that outages delay the crawl rather than polluting
//! the error statistics.

use crate::clock::SimTime;

/// A closed-open outage interval on the crawl wall clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outage {
    /// Outage start (inclusive), ms.
    pub start: SimTime,
    /// Outage end (exclusive), ms.
    pub end: SimTime,
}

/// Simulated ping-based connectivity checker.
#[derive(Debug, Clone, Default)]
pub struct ConnectivityChecker {
    outages: Vec<Outage>,
    /// Pings attempted.
    pub pings: u64,
    /// Pings that failed (fell inside an outage).
    pub failures: u64,
}

impl ConnectivityChecker {
    /// A checker with the given outage schedule.
    pub fn with_outages(mut outages: Vec<Outage>) -> ConnectivityChecker {
        outages.sort_by_key(|o| o.start);
        ConnectivityChecker {
            outages,
            pings: 0,
            failures: 0,
        }
    }

    /// Ping 8.8.8.8 at crawl time `now`; true means online.
    pub fn ping(&mut self, now: SimTime) -> bool {
        self.pings += 1;
        let online = !self.outages.iter().any(|o| o.start <= now && now < o.end);
        if !online {
            self.failures += 1;
        }
        online
    }

    /// The earliest time ≥ `now` at which the network is back up.
    /// Chains across overlapping or adjacent outages: one window's end
    /// may land inside (or exactly at the start of) the next.
    pub fn next_online(&self, now: SimTime) -> SimTime {
        let mut t = now;
        while let Some(o) = self.outages.iter().find(|o| o.start <= t && t < o.end) {
            t = o.end;
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_online_never_fails() {
        let mut c = ConnectivityChecker::default();
        for t in [0, 1_000, 1_000_000] {
            assert!(c.ping(t));
        }
        assert_eq!(c.pings, 3);
        assert_eq!(c.failures, 0);
    }

    #[test]
    fn outage_windows_fail_pings() {
        let mut c = ConnectivityChecker::with_outages(vec![Outage {
            start: 100,
            end: 200,
        }]);
        assert!(c.ping(99));
        assert!(!c.ping(100));
        assert!(!c.ping(199));
        assert!(c.ping(200));
        assert_eq!(c.failures, 2);
    }

    #[test]
    fn next_online_skips_past_outage() {
        let c = ConnectivityChecker::with_outages(vec![
            Outage {
                start: 100,
                end: 200,
            },
            Outage {
                start: 500,
                end: 700,
            },
        ]);
        assert_eq!(c.next_online(50), 50);
        assert_eq!(c.next_online(150), 200);
        assert_eq!(c.next_online(600), 700);
    }

    #[test]
    fn probe_exactly_at_outage_end_is_online() {
        // Closed-open semantics: `end` itself is the first online ms.
        let mut c = ConnectivityChecker::with_outages(vec![Outage {
            start: 100,
            end: 200,
        }]);
        assert!(c.ping(200));
        assert_eq!(c.next_online(200), 200);
        assert_eq!(c.failures, 0);
    }

    #[test]
    fn overlapping_outages_chain_in_next_online() {
        // The first window's end (300) falls inside the second; a
        // single-lookup next_online would resurface mid-outage.
        let mut c = ConnectivityChecker::with_outages(vec![
            Outage {
                start: 100,
                end: 300,
            },
            Outage {
                start: 250,
                end: 450,
            },
        ]);
        assert_eq!(c.next_online(150), 450);
        assert!(!c.ping(300), "still inside the overlapping window");
        assert!(c.ping(450));
    }

    #[test]
    fn adjacent_outages_chain_in_next_online() {
        // Back-to-back windows: [100, 200) then [200, 350). Time 200
        // is simultaneously the first window's end and the second's
        // start, so the chain must keep walking.
        let c = ConnectivityChecker::with_outages(vec![
            Outage {
                start: 100,
                end: 200,
            },
            Outage {
                start: 200,
                end: 350,
            },
        ]);
        assert_eq!(c.next_online(120), 350);
        assert_eq!(c.next_online(200), 350);
        assert_eq!(c.next_online(350), 350);
    }

    #[test]
    fn unsorted_overlapping_schedule_still_chains() {
        let c = ConnectivityChecker::with_outages(vec![
            Outage {
                start: 500,
                end: 700,
            },
            Outage {
                start: 100,
                end: 550,
            },
        ]);
        assert_eq!(c.next_online(110), 700);
    }
}
