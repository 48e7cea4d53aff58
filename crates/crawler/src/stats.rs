//! Crawl statistics: the raw material of Table 1.

use std::collections::BTreeMap;

use kt_netlog::NetError;
use kt_store::journal::VisitDelta;

/// Accumulated load outcomes for one crawl.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrawlStats {
    /// Sites attempted (each site counts once, however many retries
    /// its visits needed).
    pub attempted: usize,
    /// Pages loaded successfully.
    pub successful: usize,
    /// Failed loads by net error.
    pub failures: BTreeMap<NetError, usize>,
    /// Connectivity-check retries performed (network outages on the
    /// measurement side delay the crawl instead of polluting stats).
    pub connectivity_retries: usize,
    /// In-place visit retries after transient failures.
    pub retries: usize,
    /// Sites revisited by the end-of-campaign recrawl pass.
    pub recrawled: usize,
    /// Sites that failed transiently but ended as successes (via
    /// in-place retry or recrawl).
    pub recovered: usize,
    /// Transiently-failing sites still failing after the recrawl pass
    /// (their last error lands in `failures`).
    pub gave_up: usize,
    /// Visits quarantined after a worker panic (`LoadOutcome::Crashed`
    /// records). A measurement artifact: excluded from Table 1's
    /// error columns but part of `failed()`.
    pub crashed: usize,
    /// Telemetry-store appends retried after an injected/observed
    /// append failure.
    pub store_retries: usize,
    /// Simulated campaign duration, ms: the busiest worker's final
    /// wall-clock position (visits are 21 s each plus backoff and
    /// outage waits), plus the serial recrawl pass. This is the
    /// scheduler-quality metric — unlike the outcome counters it
    /// legitimately depends on how jobs were laid onto workers.
    pub makespan_ms: u64,
}

impl CrawlStats {
    /// An empty tally.
    pub fn new() -> CrawlStats {
        CrawlStats::default()
    }

    /// Record a successful load.
    pub fn record_success(&mut self) {
        self.attempted += 1;
        self.successful += 1;
    }

    /// Record a failed load.
    pub fn record_failure(&mut self, err: NetError) {
        self.attempted += 1;
        *self.failures.entry(err).or_default() += 1;
    }

    /// Record a quarantined (crashed) visit.
    pub fn record_crash(&mut self) {
        self.attempted += 1;
        self.crashed += 1;
    }

    /// Merge another tally into this one.
    pub fn merge(&mut self, other: &CrawlStats) {
        self.attempted += other.attempted;
        self.successful += other.successful;
        self.connectivity_retries += other.connectivity_retries;
        self.retries += other.retries;
        self.recrawled += other.recrawled;
        self.recovered += other.recovered;
        self.gave_up += other.gave_up;
        self.crashed += other.crashed;
        self.store_retries += other.store_retries;
        // Workers run concurrently in simulated time: the campaign
        // lasts as long as its busiest worker.
        self.makespan_ms = self.makespan_ms.max(other.makespan_ms);
        for (err, n) in &other.failures {
            *self.failures.entry(*err).or_default() += n;
        }
    }

    /// Total failed loads: derived from the failure map plus the
    /// quarantine count, never from `attempted - successful`
    /// subtraction (which underflows on partially-merged tallies).
    pub fn failed(&self) -> usize {
        self.failures.values().sum::<usize>() + self.crashed
    }

    /// Success rate in [0, 1].
    pub fn success_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.successful as f64 / self.attempted as f64
        }
    }

    /// Count of one failure class.
    pub fn failure_count(&self, err: NetError) -> usize {
        self.failures.get(&err).copied().unwrap_or(0)
    }

    /// The tally's contribution since `before` (a snapshot cloned at
    /// job start), as a journal-ready [`VisitDelta`]. Connectivity
    /// retries and the makespan are deliberately absent: both measure
    /// the *schedule*, not the site, and the resume path reconstructs
    /// them (zero without outages; greedy replay over journaled costs).
    pub fn delta_since(&self, before: &CrawlStats, cost_ms: u64) -> VisitDelta {
        let mut failures = Vec::new();
        for (err, n) in &self.failures {
            let prior = before.failures.get(err).copied().unwrap_or(0);
            if *n > prior {
                failures.push((err.code() as i64, (*n - prior) as u64));
            }
        }
        VisitDelta {
            cost_ms,
            attempted: (self.attempted - before.attempted) as u64,
            successful: (self.successful - before.successful) as u64,
            retries: (self.retries - before.retries) as u64,
            recrawled: (self.recrawled - before.recrawled) as u64,
            recovered: (self.recovered - before.recovered) as u64,
            gave_up: (self.gave_up - before.gave_up) as u64,
            crashed: (self.crashed - before.crashed) as u64,
            store_retries: (self.store_retries - before.store_retries) as u64,
            failures,
        }
    }

    /// Fold a journaled delta back into the tally (the inverse of
    /// [`CrawlStats::delta_since`], used when resuming from a journal).
    pub fn apply_delta(&mut self, delta: &VisitDelta) {
        self.attempted += delta.attempted as usize;
        self.successful += delta.successful as usize;
        self.retries += delta.retries as usize;
        self.recrawled += delta.recrawled as usize;
        self.recovered += delta.recovered as usize;
        self.gave_up += delta.gave_up as usize;
        self.crashed += delta.crashed as usize;
        self.store_retries += delta.store_retries as usize;
        for &(code, count) in &delta.failures {
            if let Some(err) = NetError::from_code(code as i32) {
                *self.failures.entry(err).or_default() += count as usize;
            }
        }
    }

    /// Compact binary encoding for checkpoint frames, so the journal
    /// needs no JSON form of the enum-keyed failure map: fixed
    /// little-endian u64 fields in declaration order, then
    /// `(i64 code, u64 count)` failure pairs.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(11 * 8 + self.failures.len() * 16);
        for v in [
            self.attempted,
            self.successful,
            self.connectivity_retries,
            self.retries,
            self.recrawled,
            self.recovered,
            self.gave_up,
            self.crashed,
            self.store_retries,
        ] {
            out.extend_from_slice(&(v as u64).to_le_bytes());
        }
        out.extend_from_slice(&self.makespan_ms.to_le_bytes());
        out.extend_from_slice(&(self.failures.len() as u64).to_le_bytes());
        for (err, n) in &self.failures {
            out.extend_from_slice(&(err.code() as i64).to_le_bytes());
            out.extend_from_slice(&(*n as u64).to_le_bytes());
        }
        out
    }

    /// Decode [`CrawlStats::to_bytes`]. `None` on malformed input
    /// (wrong length, unknown error code) — the checkpoint is then
    /// treated as absent and the campaign replayed from visit frames.
    pub fn from_bytes(bytes: &[u8]) -> Option<CrawlStats> {
        let word = |i: usize| -> Option<u64> {
            bytes
                .get(i * 8..i * 8 + 8)
                .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte slice")))
        };
        let n_failures = word(10)? as usize;
        if bytes.len() != 11 * 8 + n_failures * 16 {
            return None;
        }
        let mut stats = CrawlStats {
            attempted: word(0)? as usize,
            successful: word(1)? as usize,
            connectivity_retries: word(2)? as usize,
            retries: word(3)? as usize,
            recrawled: word(4)? as usize,
            recovered: word(5)? as usize,
            gave_up: word(6)? as usize,
            crashed: word(7)? as usize,
            store_retries: word(8)? as usize,
            makespan_ms: word(9)?,
            failures: BTreeMap::new(),
        };
        for k in 0..n_failures {
            let code = word(11 + 2 * k)? as i64;
            let count = word(12 + 2 * k)? as usize;
            let err = NetError::from_code(code as i32)?;
            *stats.failures.entry(err).or_default() += count;
        }
        Some(stats)
    }

    /// Table 1's error columns: `NAME_NOT_RESOLVED`, `CONN_REFUSED`,
    /// `CONN_RESET`, `CERT_CN_INVALID`, and the "Others" bucket.
    pub fn table1_errors(&self) -> [(&'static str, usize); 5] {
        let named = [
            NetError::NameNotResolved,
            NetError::ConnectionRefused,
            NetError::ConnectionReset,
            NetError::CertCommonNameInvalid,
        ];
        let others: usize = self
            .failures
            .iter()
            .filter(|(err, _)| !named.contains(err))
            .map(|(_, n)| n)
            .sum();
        [
            (
                "NAME_NOT_RESOLVED",
                self.failure_count(NetError::NameNotResolved),
            ),
            (
                "CONN_REFUSED",
                self.failure_count(NetError::ConnectionRefused),
            ),
            ("CONN_RESET", self.failure_count(NetError::ConnectionReset)),
            (
                "CERT_CN_INVALID",
                self.failure_count(NetError::CertCommonNameInvalid),
            ),
            ("Others", others),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tallies_and_rates() {
        let mut s = CrawlStats::new();
        for _ in 0..90 {
            s.record_success();
        }
        for _ in 0..9 {
            s.record_failure(NetError::NameNotResolved);
        }
        s.record_failure(NetError::TimedOut);
        assert_eq!(s.attempted, 100);
        assert_eq!(s.failed(), 10);
        assert!((s.success_rate() - 0.9).abs() < 1e-9);
        let errors = s.table1_errors();
        assert_eq!(errors[0], ("NAME_NOT_RESOLVED", 9));
        assert_eq!(errors[4], ("Others", 1));
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = CrawlStats::new();
        a.record_success();
        a.record_failure(NetError::ConnectionRefused);
        let mut b = CrawlStats::new();
        b.record_failure(NetError::ConnectionRefused);
        b.record_failure(NetError::CertCommonNameInvalid);
        a.merge(&b);
        assert_eq!(a.attempted, 4);
        assert_eq!(a.failure_count(NetError::ConnectionRefused), 2);
        assert_eq!(a.failure_count(NetError::CertCommonNameInvalid), 1);
    }

    #[test]
    fn empty_stats() {
        let s = CrawlStats::new();
        assert_eq!(s.success_rate(), 0.0);
        assert_eq!(s.failed(), 0);
    }

    #[test]
    fn failed_never_underflows_on_partial_merges() {
        // A tally holding only another worker's successes (e.g. a
        // half-merged supervisor snapshot) used to underflow
        // `attempted - successful` when successful > attempted.
        let s = CrawlStats {
            attempted: 1,
            successful: 3,
            ..CrawlStats::default()
        };
        assert_eq!(s.failed(), 0, "no panic, no wraparound");
    }

    #[test]
    fn crashes_count_as_failures_but_not_table1_errors() {
        let mut s = CrawlStats::new();
        s.record_success();
        s.record_crash();
        s.record_failure(NetError::ConnectionReset);
        assert_eq!(s.attempted, 3);
        assert_eq!(s.failed(), 2);
        assert_eq!(s.crashed, 1);
        let table1: usize = s.table1_errors().iter().map(|(_, n)| n).sum();
        assert_eq!(table1, 1, "the crash is a measurement artifact");
    }

    #[test]
    fn merge_takes_the_busiest_workers_makespan() {
        let mut a = CrawlStats {
            makespan_ms: 42_000,
            ..CrawlStats::default()
        };
        let b = CrawlStats {
            makespan_ms: 126_000,
            ..CrawlStats::default()
        };
        a.merge(&b);
        assert_eq!(a.makespan_ms, 126_000, "concurrent workers: max, not sum");
        a.merge(&CrawlStats::default());
        assert_eq!(a.makespan_ms, 126_000);
    }

    #[test]
    fn binary_codec_round_trips() {
        let mut s = CrawlStats {
            attempted: 100,
            successful: 90,
            connectivity_retries: 3,
            retries: 7,
            recrawled: 4,
            recovered: 2,
            gave_up: 2,
            crashed: 1,
            store_retries: 5,
            makespan_ms: 1_234_567,
            ..CrawlStats::default()
        };
        s.failures.insert(NetError::NameNotResolved, 6);
        s.failures.insert(NetError::ConnectionReset, 3);
        let bytes = s.to_bytes();
        assert_eq!(CrawlStats::from_bytes(&bytes), Some(s));
        assert_eq!(
            CrawlStats::from_bytes(&CrawlStats::default().to_bytes()),
            Some(CrawlStats::default())
        );
    }

    #[test]
    fn binary_codec_rejects_malformed_blobs() {
        let bytes = CrawlStats::default().to_bytes();
        assert_eq!(CrawlStats::from_bytes(&bytes[..bytes.len() - 1]), None);
        assert_eq!(CrawlStats::from_bytes(&[]), None);
        let mut s = CrawlStats::default();
        s.failures.insert(NetError::TimedOut, 1);
        let mut bytes = s.to_bytes();
        // Unknown error code → reject, don't guess.
        bytes[88..96].copy_from_slice(&(-99999i64).to_le_bytes());
        assert_eq!(CrawlStats::from_bytes(&bytes), None);
    }

    #[test]
    fn delta_round_trips_through_apply() {
        let mut before = CrawlStats::new();
        before.record_success();
        before.record_failure(NetError::TimedOut);
        let mut after = before.clone();
        after.record_success();
        after.record_failure(NetError::ConnectionReset);
        after.record_failure(NetError::TimedOut);
        after.retries += 2;
        after.store_retries += 1;
        let delta = after.delta_since(&before, 21_000);
        assert_eq!(delta.cost_ms, 21_000);
        assert_eq!(delta.attempted, 3);
        assert_eq!(delta.successful, 1);
        assert_eq!(delta.retries, 2);
        assert_eq!(delta.failures.len(), 2);
        let mut rebuilt = before.clone();
        rebuilt.apply_delta(&delta);
        // Everything except the schedule-owned fields must match.
        assert_eq!(rebuilt.attempted, after.attempted);
        assert_eq!(rebuilt.failures, after.failures);
        assert_eq!(rebuilt.retries, after.retries);
        assert_eq!(rebuilt.store_retries, after.store_retries);
    }

    #[test]
    fn merge_combines_resilience_counters() {
        let mut a = CrawlStats {
            retries: 2,
            recrawled: 1,
            recovered: 1,
            gave_up: 0,
            crashed: 1,
            store_retries: 3,
            ..CrawlStats::default()
        };
        let b = CrawlStats {
            retries: 1,
            recrawled: 2,
            recovered: 2,
            gave_up: 1,
            crashed: 0,
            store_retries: 1,
            ..CrawlStats::default()
        };
        a.merge(&b);
        assert_eq!(
            (
                a.retries,
                a.recrawled,
                a.recovered,
                a.gave_up,
                a.crashed,
                a.store_retries
            ),
            (3, 3, 3, 1, 1, 4)
        );
    }
}
