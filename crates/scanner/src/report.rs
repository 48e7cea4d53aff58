//! Scan reports: the deterministic result of a sweep, its stable text
//! rendering, and its metrics export.
//!
//! Everything here is derived from the serial fold in
//! [`engine::run_scan`](crate::engine::run_scan), so every field — and
//! therefore [`ScanReport::render`] and
//! [`record_scan_metrics`] — is byte-identical across probe-worker
//! counts. CI diffs the rendering across `--concurrency 1` and `8`.

use std::fmt::Write as _;

use kt_simnet::Os;
use kt_trace::metrics::{Labels, Registry};
use kt_trace::names;

use crate::probe::{KnockReport, PortState};

/// Outcome of one knock sequence (ordered port list).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SequenceResult {
    /// The configured ports, in knock order.
    pub ports: Vec<u16>,
    /// Final state of each step actually knocked.
    pub states: Vec<PortState>,
    /// True when every knock was delivered in order (each step got a
    /// definitive answer) — the knock-rs port-order match.
    pub matched: bool,
    /// False when the deadline budget cut the sequence short.
    pub complete: bool,
}

/// The full, deterministic result of one scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanReport {
    /// Campaign seed the scan ran under.
    pub seed: u64,
    /// The probed machine's OS.
    pub os: Os,
    /// Targets the sweep intended to knock.
    pub targets_total: usize,
    /// Knocks that ran, in target order.
    pub results: Vec<KnockReport>,
    /// Target identities skipped by an open circuit breaker.
    pub skipped: Vec<String>,
    /// Target identities never started: the deadline budget ran out.
    /// Always the tail of the target order (truncation, not sampling).
    pub unprobed: Vec<String>,
    /// Knock-sequence outcomes, in configuration order.
    pub sequences: Vec<SequenceResult>,
    /// Circuit-breaker trips across all hosts.
    pub breaker_trips: u64,
    /// Total simulated time the scan consumed, ms.
    pub virtual_elapsed_ms: u64,
    /// The budget the scan ran under, ms.
    pub deadline_ms: u64,
}

impl ScanReport {
    /// Knock attempts sent, retries included.
    pub fn knocks(&self) -> u64 {
        self.results.iter().map(|r| r.attempts.len() as u64).sum()
    }

    /// Retry attempts (attempts beyond each target's first).
    pub fn retries(&self) -> u64 {
        self.results.iter().map(|r| r.retries()).sum()
    }

    /// Attempts that hit the per-knock timeout.
    pub fn timeouts(&self) -> u64 {
        self.results.iter().map(|r| r.timeouts()).sum()
    }

    /// Results in a given final state.
    pub fn count(&self, state: PortState) -> usize {
        self.results.iter().filter(|r| r.state == state).count()
    }

    /// The open results, in target order.
    pub fn open(&self) -> impl Iterator<Item = &KnockReport> {
        self.results.iter().filter(|r| r.state == PortState::Open)
    }

    /// Stable text rendering: byte-identical across worker counts, and
    /// the thing CI diffs between `--concurrency 1` and `8`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "active scan: seed={} os={}", self.seed, self.os.name());
        let _ = writeln!(
            out,
            "  targets: {}  probed: {}  skipped(breaker): {}  unprobed(deadline): {}",
            self.targets_total,
            self.results.len(),
            self.skipped.len(),
            self.unprobed.len(),
        );
        let _ = writeln!(
            out,
            "  knocks: {}  retries: {}  timeouts: {}  breaker trips: {}",
            self.knocks(),
            self.retries(),
            self.timeouts(),
            self.breaker_trips,
        );
        let _ = writeln!(
            out,
            "  sim elapsed: {} ms (budget {} ms)",
            self.virtual_elapsed_ms, self.deadline_ms
        );
        let _ = writeln!(
            out,
            "  states: open={} closed={} filtered={}",
            self.count(PortState::Open),
            self.count(PortState::Closed),
            self.count(PortState::Filtered),
        );
        for r in self.open() {
            let _ = writeln!(
                out,
                "    open {}  {}  ({} attempt{}, {} ms)",
                r.target.identity(),
                r.service.as_deref().unwrap_or("unknown service"),
                r.attempts.len(),
                if r.attempts.len() == 1 { "" } else { "s" },
                r.knock_ms,
            );
        }
        if !self.skipped.is_empty() {
            let _ = writeln!(out, "  breaker-skipped:");
            for id in &self.skipped {
                let _ = writeln!(out, "    {id}");
            }
        }
        if !self.unprobed.is_empty() {
            let _ = writeln!(out, "  unprobed:");
            for id in &self.unprobed {
                let _ = writeln!(out, "    {id}");
            }
        }
        if !self.sequences.is_empty() {
            let _ = writeln!(out, "  sequences:");
            for s in &self.sequences {
                let ports: Vec<String> = s.ports.iter().map(|p| p.to_string()).collect();
                let states: Vec<&str> = s.states.iter().map(|st| st.label()).collect();
                let _ = writeln!(
                    out,
                    "    {} -> {} [{}]{}",
                    ports.join(","),
                    if s.matched { "matched" } else { "unmatched" },
                    states.join(","),
                    if s.complete { "" } else { " (budget cut)" },
                );
            }
        }
        out
    }
}

/// Export a scan into the metrics registry under the `scan_*` schema.
/// Derived from the report alone, so the export inherits its
/// worker-count invariance.
pub fn record_scan_metrics(report: &ScanReport, reg: &mut Registry) {
    let none = Labels::empty();
    reg.inc_counter(names::SCAN_KNOCKS_TOTAL, none.clone(), report.knocks());
    reg.inc_counter(names::SCAN_RETRIES_TOTAL, none.clone(), report.retries());
    reg.inc_counter(names::SCAN_TIMEOUTS_TOTAL, none.clone(), report.timeouts());
    reg.inc_counter(
        names::SCAN_BREAKER_TRIPS_TOTAL,
        none.clone(),
        report.breaker_trips,
    );
    reg.inc_counter(
        names::SCAN_BREAKER_SKIPS_TOTAL,
        none.clone(),
        report.skipped.len() as u64,
    );
    reg.inc_counter(
        names::SCAN_UNPROBED_TOTAL,
        none.clone(),
        report.unprobed.len() as u64,
    );
    reg.set_gauge(
        names::SCAN_OPEN_PORTS,
        none.clone(),
        report.count(PortState::Open) as f64,
    );
    for r in &report.results {
        for attempt in &r.attempts {
            reg.observe(&names::SCAN_KNOCK_SECONDS, none.clone(), attempt.elapsed_ms);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_scan, ScanConfig};
    use kt_faults::{Fault, FaultPlan};
    use kt_simnet::{HostEnv, SimNet};
    use kt_trace::names::describe_defaults;

    fn scan(seed: u64, workers: usize) -> ScanReport {
        let env = HostEnv::sampled(Os::Windows, seed);
        let net = SimNet::new(seed);
        let mut cfg = ScanConfig::new(seed);
        cfg.workers = workers;
        cfg.faults = FaultPlan::none(seed)
            .with_rate(Fault::ProbeDrop, 0.15)
            .with_rate(Fault::ConnectionReset, 0.10);
        cfg.sequences = vec![vec![6463, 6464, 6465]];
        run_scan(&env, &net, &cfg)
    }

    #[test]
    fn render_mentions_every_accounting_line() {
        let report = scan(7, 4);
        let text = report.render();
        assert!(text.contains("active scan: seed=7 os=Windows"));
        assert!(text.contains("targets:"));
        assert!(text.contains("knocks:"));
        assert!(text.contains("states: open="));
        assert!(text.contains("sequences:"));
    }

    #[test]
    fn metrics_export_is_worker_count_invariant() {
        let mut renders = Vec::new();
        for workers in [1usize, 8] {
            let report = scan(7, workers);
            let mut reg = Registry::new();
            describe_defaults(&mut reg);
            record_scan_metrics(&report, &mut reg);
            renders.push(reg.render_prometheus());
        }
        assert_eq!(renders[0], renders[1]);
    }

    #[test]
    fn metrics_counts_match_report_counts() {
        let report = scan(7, 4);
        let mut reg = Registry::new();
        describe_defaults(&mut reg);
        record_scan_metrics(&report, &mut reg);
        let text = reg.render_prometheus();
        assert!(text.contains(&format!("scan_knocks_total {}", report.knocks())));
        assert!(text.contains(&format!("scan_retries_total {}", report.retries())));
        assert!(
            text.contains(&format!("scan_knock_seconds_count {}", report.knocks())),
            "one histogram observation per knock attempt"
        );
    }
}
