//! Measurement bias: what the crawler's own detectability costs it.
//!
//! The paper's prevalence numbers implicitly assume a site behaves the
//! same under an instrumented headless Chrome as under a real user.
//! The sensor-planted population (see [`kt_webgen::sensor`]) breaks
//! that assumption on purpose, with exact ground truth: every site
//! that *would* talk to the local network is known at generation time.
//! This module crawls that population once per [`CrawlerProfile`],
//! runs the unchanged passive pipeline over each capture, and compares
//! observed against true rates — the per-profile bias the paper could
//! not measure because the real web's ground truth is unknowable.
//!
//! Everything here is worker-count invariant: the crawls key every
//! sampled quantity on `(seed, domain)`, the analysis merges
//! deterministically, and the report renders from sorted sets — CI
//! byte-diffs the table across `--workers 1` and `--workers 8`.

use std::collections::BTreeSet;

use kt_crawler::{run_crawl, CrawlConfig, CrawlJob};
use kt_netbase::Os;
use kt_store::{CrawlId, TelemetryStore};
use kt_trace::metrics::{Labels, Registry};
use kt_trace::names;
use kt_webgen::{CrawlerProfile, PopulationConfig, SensorArchetype, WebPopulation, WebSite};

use crate::par::analyze_crawl_par;

/// Configuration of one bias sweep.
#[derive(Debug, Clone, Copy)]
pub struct BiasConfig {
    /// Run seed: keys the population, the sensor verdicts and the
    /// crawls — the whole sweep is a pure function of it.
    pub seed: u64,
    /// Worker threads for each crawl and each analysis pass. Any
    /// value renders the identical report.
    pub workers: usize,
}

impl BiasConfig {
    /// Default sweep for a seed.
    pub fn new(seed: u64) -> BiasConfig {
        BiasConfig { seed, workers: 4 }
    }
}

/// One archetype's confusion cell under one profile: of the sensored
/// ground-truth sites running this archetype, how many gated the
/// behaviour and how many the pipeline still observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArchetypeCell {
    /// The deployed sensor archetype.
    pub archetype: SensorArchetype,
    /// Sensored ground-truth sites running this archetype.
    pub sites: u64,
    /// Sites whose gate suppressed the in-window behaviour for this
    /// profile (recomputed from the seed; matches the crawl exactly).
    pub gated: u64,
    /// Sites the passive pipeline observed as locally active anyway.
    pub observed: u64,
}

impl ArchetypeCell {
    /// Sites this archetype hid from the profile.
    pub fn hidden(&self) -> u64 {
        self.sites - self.observed
    }
}

/// Observed-vs-true local activity for one crawler profile.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileBias {
    /// The profile the crawl presented.
    pub profile: CrawlerProfile,
    /// Ground-truth locally-active sites in the population
    /// (profile-invariant by construction).
    pub true_sites: u64,
    /// Ground-truth sites the crawl observed as locally active.
    pub observed_sites: u64,
    /// Ground-truth sites the crawl missed.
    pub suppressed: u64,
    /// The observed ground-truth domains, sorted.
    pub observed_domains: Vec<String>,
    /// Per-archetype confusion cells, in [`SensorArchetype::ALL`] order.
    pub cells: Vec<ArchetypeCell>,
}

impl ProfileBias {
    /// observed / true — the headline bias figure (1.0 = unbiased).
    pub fn observed_ratio(&self) -> f64 {
        if self.true_sites == 0 {
            return 1.0;
        }
        self.observed_sites as f64 / self.true_sites as f64
    }
}

/// The full sweep result: one row per profile over the same population.
#[derive(Debug, Clone, PartialEq)]
pub struct BiasReport {
    /// Run seed.
    pub seed: u64,
    /// The crawling OS (all profiles crawl the same one).
    pub os: Os,
    /// Sites in the crawled population.
    pub population_sites: u64,
    /// One row per profile, in [`CrawlerProfile::ALL`] order.
    pub rows: Vec<ProfileBias>,
}

impl BiasReport {
    /// Row for one profile.
    pub fn row(&self, profile: CrawlerProfile) -> Option<&ProfileBias> {
        self.rows.iter().find(|r| r.profile == profile)
    }

    /// Deterministic text rendering — the artifact CI diffs across
    /// worker counts.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "bias sweep: os={} seed={} sites={}",
            self.os.name(),
            self.seed,
            self.population_sites,
        );
        let _ = writeln!(
            out,
            "  {:<18} {:>6} {:>9} {:>11} {:>7}",
            "profile", "true", "observed", "suppressed", "ratio"
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "  {:<18} {:>6} {:>9} {:>11} {:>7.3}",
                row.profile.name(),
                row.true_sites,
                row.observed_sites,
                row.suppressed,
                row.observed_ratio(),
            );
        }
        let _ = writeln!(out, "  archetype cells (sites gated observed hidden):");
        for row in &self.rows {
            for cell in &row.cells {
                if cell.sites == 0 {
                    continue;
                }
                let _ = writeln!(
                    out,
                    "  {:<18} {:<16} {:>5} {:>5} {:>8} {:>6}",
                    row.profile.name(),
                    cell.archetype.name(),
                    cell.sites,
                    cell.gated,
                    cell.observed,
                    cell.hidden(),
                );
            }
        }
        out
    }
}

/// Ground-truth domains of a population's 2020 snapshot: every site
/// that would emit locally-destined traffic for *some* profile.
fn truth_sites(population: &WebPopulation) -> Vec<&WebSite> {
    population
        .sites2020
        .iter()
        .filter(|s| s.has_local_ground_truth())
        .collect()
}

/// Crawl the sensor-planted population once per profile and compare
/// each crawl's observed locally-active set against the planted truth.
pub fn run_bias_sweep(cfg: &BiasConfig) -> BiasReport {
    let population = WebPopulation::generate(PopulationConfig::bias_scale(cfg.seed));
    let os = Os::Windows;
    let truth = truth_sites(&population);

    let mut rows = Vec::new();
    for profile in CrawlerProfile::ALL {
        let store = TelemetryStore::new();
        let crawl = CrawlId(format!("bias-{}", profile.name()));
        let mut config = CrawlConfig::paper(crawl.clone(), os, cfg.seed);
        config.workers = cfg.workers;
        config.profile = profile;
        let jobs: Vec<CrawlJob<'_>> = population.sites2020.iter().map(CrawlJob::plain).collect();
        run_crawl(&jobs, &config, &store);

        let analysis = analyze_crawl_par(&store, &crawl, cfg.workers);
        let active: BTreeSet<&str> = analysis.sites.iter().map(|s| s.domain.as_str()).collect();
        let observed: BTreeSet<&str> = truth
            .iter()
            .map(|s| s.domain.as_str())
            .filter(|d| active.contains(d))
            .collect();

        let cells = SensorArchetype::ALL
            .iter()
            .map(|&archetype| {
                let mut cell = ArchetypeCell {
                    archetype,
                    sites: 0,
                    gated: 0,
                    observed: 0,
                };
                for site in &truth {
                    let Some(sensor) = site.sensor.filter(|s| s.archetype == archetype) else {
                        continue;
                    };
                    let domain = site.domain.as_str();
                    cell.sites += 1;
                    if sensor.gate(cfg.seed, profile, domain).suppresses_behavior() {
                        cell.gated += 1;
                    }
                    if observed.contains(domain) {
                        cell.observed += 1;
                    }
                }
                cell
            })
            .collect();

        rows.push(ProfileBias {
            profile,
            true_sites: truth.len() as u64,
            observed_sites: observed.len() as u64,
            suppressed: (truth.len() - observed.len()) as u64,
            observed_domains: observed.iter().map(|d| d.to_string()).collect(),
            cells,
        });
    }

    BiasReport {
        seed: cfg.seed,
        os,
        population_sites: population.sites2020.len() as u64,
        rows,
    }
}

/// Export the sweep under the `bias_*` schema, labelled by profile
/// (and archetype for the hidden-site cells).
pub fn record_bias_metrics(report: &BiasReport, reg: &mut Registry) {
    for row in &report.rows {
        let labels = Labels::new(&[("profile", row.profile.name())]);
        for (name, count) in [
            (names::BIAS_TRUE_SITES_TOTAL, row.true_sites),
            (names::BIAS_OBSERVED_SITES_TOTAL, row.observed_sites),
            (names::BIAS_SUPPRESSED_SITES_TOTAL, row.suppressed),
        ] {
            if count > 0 {
                reg.inc_counter(name, labels.clone(), count);
            }
        }
        reg.set_gauge(names::BIAS_OBSERVED_RATIO, labels, row.observed_ratio());
        for cell in &row.cells {
            if cell.hidden() > 0 {
                reg.inc_counter(
                    names::BIAS_HIDDEN_SITES_TOTAL,
                    Labels::new(&[
                        ("archetype", cell.archetype.name()),
                        ("profile", row.profile.name()),
                    ]),
                    cell.hidden(),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep(workers: usize) -> BiasReport {
        run_bias_sweep(&BiasConfig { seed: 7, workers })
    }

    #[test]
    fn report_is_worker_count_invariant() {
        assert_eq!(sweep(1).render(), sweep(8).render());
    }

    #[test]
    fn planted_truth_is_profile_invariant_but_observations_are_not() {
        let report = sweep(2);
        let naive = report.row(CrawlerProfile::Naive).expect("naive row");
        let stealth = report.row(CrawlerProfile::Stealth).expect("stealth row");
        assert!(naive.true_sites > 0, "the population must plant truth");
        assert!(
            report.rows.iter().all(|r| r.true_sites == naive.true_sites),
            "ground truth cannot depend on how the crawler presents"
        );
        assert!(
            naive.observed_sites < stealth.observed_sites,
            "a detectable crawler must observe less: naive={} stealth={}",
            naive.observed_sites,
            stealth.observed_sites,
        );
        assert!(
            naive.suppressed > 0,
            "sensors must hide sites from the naive crawler"
        );
    }

    #[test]
    fn stealth_observes_a_strict_superset_of_naive() {
        let report = sweep(2);
        let naive = report.row(CrawlerProfile::Naive).expect("naive row");
        let stealth = report.row(CrawlerProfile::Stealth).expect("stealth row");
        let naive_set: BTreeSet<&str> = naive.observed_domains.iter().map(String::as_str).collect();
        let stealth_set: BTreeSet<&str> = stealth
            .observed_domains
            .iter()
            .map(String::as_str)
            .collect();
        assert!(
            naive_set.is_subset(&stealth_set),
            "monotone sensors: everything naive sees, stealth sees"
        );
        assert!(
            naive_set.len() < stealth_set.len(),
            "and stealth must see strictly more"
        );
    }

    #[test]
    fn webrtc_probes_are_swapped_never_hidden() {
        let report = sweep(2);
        for row in &report.rows {
            let cell = row
                .cells
                .iter()
                .find(|c| c.archetype == SensorArchetype::WebRtcProbe)
                .expect("webrtc cell");
            assert!(cell.sites > 0, "the population plants WebRTC probes");
            assert_eq!(
                cell.hidden(),
                0,
                "ICE candidates are gathered for every visitor ({})",
                row.profile.name()
            );
            assert_eq!(cell.gated, 0, "the Ice gate swaps, it does not suppress");
        }
    }

    #[test]
    fn metrics_label_by_profile_and_archetype() {
        let report = sweep(2);
        let mut reg = Registry::new();
        kt_trace::names::describe_defaults(&mut reg);
        record_bias_metrics(&report, &mut reg);
        let text = reg.render_prometheus();
        assert!(
            text.contains("bias_observed_sites_total{profile=\"naive\"}"),
            "per-profile observed counter missing:\n{text}"
        );
        assert!(
            text.contains("bias_observed_sites_total{profile=\"human-replay\"}"),
            "per-profile observed counter missing:\n{text}"
        );
        assert!(
            text.contains(
                "bias_hidden_sites_total{archetype=\"navigator-probe\",profile=\"naive\"}"
            ) || text.contains(
                "bias_hidden_sites_total{profile=\"naive\",archetype=\"navigator-probe\"}"
            ),
            "hidden cells must label by archetype and profile:\n{text}"
        );
        assert!(text.contains("bias_observed_ratio{profile=\"stealth\"}"));
    }
}
