//! A golden digest of the simulation's output bytes.
//!
//! Crawls a small fixed population (every planted behaviour, the
//! anti-bot sensors and a quiet background) at one worker on Windows
//! and Linux, under a fault plan that exercises the flap, reset, crash
//! and truncation paths, and digests the store's record bytes plus the
//! rendered Table 1. The constant was recorded from a build known to be
//! correct: a refactor of the visit simulation, the seeded sampling or
//! the codec that moves one byte of telemetry or one table cell fails
//! here, where the structural tests would still pass.

use knock_talk::analysis::report;
use knock_talk::crawler::{run_crawl, CrawlConfig, CrawlJob, CrawlStats};
use knock_talk::faults::{Fault, FaultPlan};
use knock_talk::netbase::Os;
use knock_talk::store::{CrawlId, TelemetryStore};
use knock_talk::webgen::{PopulationConfig, WebPopulation};

/// The digest of [`simulated_output`] for the population below.
const GOLDEN: u64 = 0xadc7_f71f_ee3f_571c;

/// FNV-1a over a byte string, continuing from `h`. Independent of the
/// simulation's own hashing, so a change there cannot hide itself.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Crawl the population on each OS and return the store plus the
/// rendered Table 1.
fn simulated_output() -> (TelemetryStore, String) {
    let seed = 29;
    let population = WebPopulation::generate(PopulationConfig {
        top_size: 400,
        malicious_size: 100,
        ..PopulationConfig::bias_scale(seed)
    });
    let jobs: Vec<CrawlJob> = population.sites2020.iter().map(CrawlJob::plain).collect();
    let store = TelemetryStore::new();
    let mut stats: Vec<(Os, CrawlStats)> = Vec::new();
    for os in [Os::Windows, Os::Linux] {
        let mut config = CrawlConfig::paper(CrawlId::top2020(), os, seed);
        config.workers = 1;
        config.faults = FaultPlan::none(seed)
            .with_rate(Fault::DnsFlap, 0.03)
            .with_rate(Fault::ConnectionReset, 0.03)
            .with_rate(Fault::WorkerPanic, 0.01)
            .with_rate(Fault::TruncatedCapture, 0.03);
        stats.push((os, run_crawl(&jobs, &config, &store)));
    }
    let rows: Vec<(&str, Os, &CrawlStats)> = stats
        .iter()
        .map(|(os, s)| ("Top 100K: 2020", *os, s))
        .collect();
    let (table, _) = report::table1(&rows);
    (store, table)
}

#[test]
fn store_bytes_and_table1_match_the_golden_digest() {
    let (store, table) = simulated_output();
    let records = store.raw_all();
    assert_eq!(records.len(), 800, "every site on both OSes");
    let mut h = 0xcbf2_9ce4_8422_2325;
    for record in &records {
        h = fnv1a(h, &(record.len() as u64).to_le_bytes());
        h = fnv1a(h, record);
    }
    h = fnv1a(h, table.as_bytes());
    assert_eq!(
        h, GOLDEN,
        "simulated output moved: digest {h:#018x}, Table 1:\n{table}"
    );
}
