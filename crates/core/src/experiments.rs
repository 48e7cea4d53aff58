//! One regeneration function per table and figure of the paper.
//!
//! Each function takes a completed [`Study`] and renders the artefact
//! as text. Absolute numbers are simulation-scale; the *shape* (who
//! wins, by what factor, where the skews are) is what reproduces the
//! paper — see EXPERIMENTS.md for the side-by-side.

use kt_analysis::cdf::Ecdf;
use kt_analysis::detect::SiteLocalActivity;
use kt_analysis::report;
use kt_analysis::venn::OsVenn;
use kt_netbase::{Os, ServiceRegistry};
use kt_store::CrawlId;

use crate::study::Study;

/// Every experiment id, in paper order.
pub const ALL_IDS: [&str; 19] = [
    "T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8", "T9", "T10", "T11", "F2", "F3", "F4", "F5",
    "F6", "F7", "F8", "F9",
];

/// Extension experiments beyond the paper's artefacts: the §5
/// discussion quantified (Private Network Access impact, Appendix-B
/// developer-error breakdown, §5.2 fingerprinting entropy).
pub const EXTENDED_IDS: [&str; 5] = ["X1", "X2", "X3", "X4", "X5"];

/// Dispatch by experiment id.
pub fn run(study: &Study, id: &str) -> Option<String> {
    match id {
        "T1" => Some(table1(study)),
        "T2" => Some(table2(study)),
        "T3" => Some(table3(study)),
        "T4" => Some(table4()),
        "T5" => Some(table5(study)),
        "T6" => Some(table6(study)),
        "T7" => Some(table7(study)),
        "T8" => Some(table8(study)),
        "T9" => Some(table9(study)),
        "T10" => Some(table10(study)),
        "T11" => Some(table11(study)),
        "F2" => Some(figure2(study)),
        "F3" => Some(figure3(study)),
        "F4" => Some(figure4(study)),
        "F5" => Some(figure5(study)),
        "F6" => Some(figure6(study)),
        "F7" => Some(figure7(study)),
        "F8" => Some(figure8(study)),
        "F9" => Some(figure9(study)),
        "X1" => Some(x1_defense_impact(study)),
        "X2" => Some(x2_dev_error_breakdown(study)),
        "X3" => Some(x3_fingerprint_entropy(study)),
        "X4" => Some(x4_longitudinal(study)),
        "X5" => Some(x5_deep_crawl(study)),
        _ => None,
    }
}

/// X1 — replay the 2020 telemetry under the WICG Private Network
/// Access proposal, per adoption scenario (§5.3). The verdicts were
/// computed during the single-decode pass; this just renders them.
pub fn x1_defense_impact(study: &Study) -> String {
    format!(
        "Sites whose local traffic still works vs is fully blocked under PNA:\n{}",
        study.analysis(&CrawlId::top2020()).defense.render()
    )
}

/// X2 — Appendix-B breakdown of the 2020 developer errors.
pub fn x2_dev_error_breakdown(study: &Study) -> String {
    let sites = study.activities(&CrawlId::top2020());
    let breakdown = kt_analysis::dev_error::breakdown(sites);
    let mut out = String::from("Developer-error sub-classes (2020 crawl):\n");
    for (kind, n) in breakdown {
        out.push_str(&format!("  {:<24} {n}\n", kind.label()));
    }
    out
}

/// X3 — fingerprinting entropy (§5.2): how identifying would each
/// observed scan be across a population of visitor machines?
pub fn x3_fingerprint_entropy(study: &Study) -> String {
    use kt_netbase::services::{BIGIP_PORTS, THREATMETRIX_PORTS};
    let seed = study.config.population.seed;
    let mut out =
        String::from("Shannon entropy harvested by each scan over 1,000 visitor machines:\n");
    let mut wide: Vec<u16> = THREATMETRIX_PORTS.to_vec();
    wide.extend_from_slice(&BIGIP_PORTS);
    wide.extend_from_slice(&[6463, 3000, 5900]);
    for (label, ports) in [
        ("ThreatMetrix (14 ports)", THREATMETRIX_PORTS.to_vec()),
        ("BIG-IP ASM (7 ports)", BIGIP_PORTS.to_vec()),
        ("combined + app ports", wide),
    ] {
        for os in [Os::Windows, Os::Linux, Os::MacOs] {
            let report = kt_analysis::entropy::scan_entropy(os, &ports, 1_000, seed);
            out.push_str(&format!(
                "  {label:<24} {:<8} {:.2} bits ({} distinct profiles, modal share {:.0}%)\n",
                os.name(),
                report.shannon_bits,
                report.distinct,
                report.modal_share * 100.0
            ));
        }
    }
    out
}

/// X4 — the 2020→2021 transition matrix: which behaviour classes
/// carried, stopped, started or were reclassified between crawls.
pub fn x4_longitudinal(study: &Study) -> String {
    let m = kt_analysis::longitudinal::transitions(
        study.activities(&CrawlId::top2020()),
        study.activities(&CrawlId::top2021()),
    );
    format!(
        "2020 → 2021 localhost-behaviour transitions:\n{}",
        m.render()
    )
}

/// X5 — deep-crawl mode (§3.3): re-crawl the 2020 population on
/// Windows with internal pages visited too, and compare the localhost
/// detection counts. The paper calls its landing-page numbers "a lower
/// bound"; this quantifies the gap for the synthetic population, where
/// some e-commerce sites deploy ThreatMetrix only on login pages.
pub fn x5_deep_crawl(study: &Study) -> String {
    use kt_crawler::{run_crawl, CrawlConfig, CrawlJob};
    use kt_store::TelemetryStore;

    let landing = study
        .activities(&CrawlId::top2020())
        .iter()
        .filter(|s| s.localhost_os.contains(Os::Windows))
        .count();
    let deep_id = kt_store::CrawlId("top2020-deep".to_string());

    let jobs: Vec<CrawlJob> = study
        .population
        .sites2020
        .iter()
        .map(CrawlJob::plain)
        .collect();
    let store = TelemetryStore::new();
    let mut config = CrawlConfig::paper(deep_id.clone(), Os::Windows, study.config.population.seed);
    config.crawl_internal = true;
    config.workers = study.config.workers;
    run_crawl(&jobs, &config, &store);
    let deep = kt_analysis::par::analyze_crawl_par(&store, &deep_id, study.config.workers)
        .sites
        .iter()
        .filter(|s| s.localhost_os.contains(Os::Windows))
        .count();
    format!(
        "Windows localhost-active sites, 2020 population:\n\
         \x20 landing pages only (the paper's method): {landing}\n\
         \x20 landing + internal pages (deep crawl):   {deep}\n\
         \x20 → {} sites deploy local probing only behind the landing page,\n\
         \x20   confirming §3.3's lower-bound caveat.\n",
        deep.saturating_sub(landing)
    )
}

/// Table 1 — crawl statistics for every campaign/OS.
pub fn table1(study: &Study) -> String {
    let mut rows: Vec<(&str, Os, &kt_crawler::CrawlStats)> = Vec::new();
    let pairs = [
        ("Top 100K: 2020", "top2020", Os::Windows),
        ("Top 100K: 2020", "top2020", Os::Linux),
        ("Top 100K: 2020", "top2020", Os::MacOs),
        ("Top 100K: 2021", "top2021", Os::Windows),
        ("Top 100K: 2021", "top2021", Os::Linux),
        ("Malicious", "malicious", Os::Windows),
        ("Malicious", "malicious", Os::Linux),
        ("Malicious", "malicious", Os::MacOs),
    ];
    for (label, crawl, os) in pairs {
        if let Some(stats) = study.stats.get(&(crawl.to_string(), os)) {
            rows.push((label, os, stats));
        }
    }
    report::table1(&rows).0
}

/// The crawl health report — resilience counters (retries, recrawls,
/// recoveries, quarantines) for every campaign/OS.
pub fn health_report(study: &Study) -> String {
    let mut rows: Vec<(&str, Os, &kt_crawler::CrawlStats)> = Vec::new();
    let pairs = [
        ("Top 100K: 2020", "top2020", Os::Windows),
        ("Top 100K: 2020", "top2020", Os::Linux),
        ("Top 100K: 2020", "top2020", Os::MacOs),
        ("Top 100K: 2021", "top2021", Os::Windows),
        ("Top 100K: 2021", "top2021", Os::Linux),
        ("Malicious", "malicious", Os::Windows),
        ("Malicious", "malicious", Os::Linux),
        ("Malicious", "malicious", Os::MacOs),
    ];
    for (label, crawl, os) in pairs {
        if let Some(stats) = study.stats.get(&(crawl.to_string(), os)) {
            rows.push((label, os, stats));
        }
    }
    report::health_table(&rows).0
}

/// Table 2 — malicious crawl summary, from the single-decode tallies.
pub fn table2(study: &Study) -> String {
    let analysis = study.analysis(&CrawlId::malicious());
    report::table2_tallied(
        &study.population.blocklist,
        &analysis.outcomes,
        &analysis.sites,
    )
}

/// Table 3 — top-10 localhost-active domains, 2020.
pub fn table3(study: &Study) -> String {
    let sites = study.activities(&CrawlId::top2020());
    report::table3(sites, 10)
}

/// Table 4 — port/service registry.
pub fn table4() -> String {
    report::table4(&ServiceRegistry::standard())
}

/// Table 5 — 2020 localhost requests by reason.
pub fn table5(study: &Study) -> String {
    let sites = study.activities(&CrawlId::top2020());
    report::localhost_table(sites).0
}

/// Table 6 — 2020 LAN requests.
pub fn table6(study: &Study) -> String {
    let sites = study.activities(&CrawlId::top2020());
    report::lan_table(sites).0
}

/// Table 7 — localhost requests new in 2021.
pub fn table7(study: &Study) -> String {
    let sites2020 = study.activities(&CrawlId::top2020());
    let sites2021 = study.activities(&CrawlId::top2021());
    let diff = report::activity_diff(sites2020, sites2021);
    let new_sites: Vec<SiteLocalActivity> = sites2021
        .iter()
        .filter(|s| diff.new.contains(&s.domain))
        .cloned()
        .collect();
    let (table, _) = report::localhost_table(&new_sites);
    format!(
        "{table}\n(carried from 2020: {}, stopped since 2020: {}, new in 2021: {})\n",
        diff.carried.len(),
        diff.stopped.len(),
        diff.new.len()
    )
}

/// Table 8 — malicious localhost requests.
pub fn table8(study: &Study) -> String {
    let sites = study.activities(&CrawlId::malicious());
    report::localhost_table(sites).0
}

/// Table 9 — malicious LAN requests.
pub fn table9(study: &Study) -> String {
    let sites = study.activities(&CrawlId::malicious());
    report::lan_table(sites).0
}

/// Table 10 — 2021 LAN requests.
pub fn table10(study: &Study) -> String {
    let sites = study.activities(&CrawlId::top2021());
    report::lan_table(sites).0
}

/// Table 11 — 2020 developer-error localhost requests.
pub fn table11(study: &Study) -> String {
    let sites = study.activities(&CrawlId::top2020());
    report::table11(sites).0
}

/// Figure 2 — OS overlap Venn diagrams (2020 top + malicious).
pub fn figure2(study: &Study) -> String {
    let top = study.activities(&CrawlId::top2020());
    let top_venn = OsVenn::from_sets(
        top.iter()
            .filter(|s| s.has_localhost())
            .map(|s| s.localhost_os),
    );
    let mal = study.activities(&CrawlId::malicious());
    let mal_venn = OsVenn::from_sets(
        mal.iter()
            .filter(|s| s.has_localhost())
            .map(|s| s.localhost_os),
    );
    format!(
        "(a) 2020 top-100K localhost sites\n{}\n\n(b) Malicious localhost sites\n{}\n",
        top_venn.render(),
        mal_venn.render()
    )
}

/// Render an ECDF curve as a unicode sparkline: each column is F(x)
/// at an evenly-spaced x, so a uniform distribution draws a ramp.
fn sparkline(ecdf: &Ecdf) -> String {
    const BARS: [char; 8] = [
        '\u{2581}', '\u{2582}', '\u{2583}', '\u{2584}', '\u{2585}', '\u{2586}', '\u{2587}',
        '\u{2588}',
    ];
    ecdf.curve(39)
        .into_iter()
        .map(|(_, f)| BARS[((f * (BARS.len() - 1) as f64).round() as usize).min(BARS.len() - 1)])
        .collect()
}

/// Rank-CDF rendering helper shared by Figures 3 and 9.
fn rank_cdf(sites: &[SiteLocalActivity], oses: &[Os]) -> String {
    let mut out = String::new();
    for os in oses {
        let ranks: Vec<f64> = sites
            .iter()
            .filter(|s| s.localhost_os.contains(*os))
            .filter_map(|s| s.rank)
            .map(|r| r as f64)
            .collect();
        let ecdf = Ecdf::new(ranks);
        out.push_str(&format!("{} (total #: {})\n", os.name(), ecdf.len()));
        if !ecdf.is_empty() {
            for q in [0.1, 0.25, 0.5, 0.75, 0.9] {
                out.push_str(&format!(
                    "  p{:<2.0} rank {:>8.0}\n",
                    q * 100.0,
                    ecdf.quantile(q).unwrap()
                ));
            }
            out.push_str(&format!("  F(rank): {}\n", sparkline(&ecdf)));
        }
    }
    out
}

/// Figure 3 — rank CDFs of localhost-active sites, 2020.
pub fn figure3(study: &Study) -> String {
    let sites = study.activities(&CrawlId::top2020());
    rank_cdf(sites, &[Os::Windows, Os::Linux, Os::MacOs])
}

/// Figure 4 — protocol/port rings, 2020 top crawl (tallied during the
/// single-decode pass).
pub fn figure4(study: &Study) -> String {
    study.analysis(&CrawlId::top2020()).rings.render()
}

/// Timing-CDF rendering helper shared by Figures 5–7.
fn timing_cdf(sites: &[SiteLocalActivity], oses: &[Os]) -> String {
    let mut out = String::new();
    for (label, loopback) in [("localhost", true), ("LAN", false)] {
        out.push_str(&format!("Requests to {label}:\n"));
        for os in oses {
            let delays: Vec<f64> = sites
                .iter()
                .filter_map(|s| s.first_delay_on(*os, loopback))
                .map(|d| d as f64 / 1000.0)
                .collect();
            let ecdf = Ecdf::new(delays);
            if ecdf.is_empty() {
                out.push_str(&format!("  {:<8} (no sites)\n", os.name()));
                continue;
            }
            out.push_str(&format!(
                "  {:<8} n={:<4} median {:>5.1}s  p90 {:>5.1}s  max {:>5.1}s  {}\n",
                os.name(),
                ecdf.len(),
                ecdf.median().unwrap(),
                ecdf.quantile(0.9).unwrap(),
                ecdf.max().unwrap(),
                sparkline(&ecdf)
            ));
        }
    }
    out
}

/// Figure 5 — time-to-first-local-request CDFs, 2020.
pub fn figure5(study: &Study) -> String {
    let sites = study.activities(&CrawlId::top2020());
    timing_cdf(sites, &[Os::Windows, Os::Linux, Os::MacOs])
}

/// Figure 6 — timing CDFs, 2021.
pub fn figure6(study: &Study) -> String {
    let sites = study.activities(&CrawlId::top2021());
    timing_cdf(sites, &[Os::Windows, Os::Linux])
}

/// Figure 7 — timing CDFs, malicious crawl.
pub fn figure7(study: &Study) -> String {
    let sites = study.activities(&CrawlId::malicious());
    timing_cdf(sites, &[Os::Windows, Os::Linux, Os::MacOs])
}

/// Figure 8 — protocol/port rings, 2021 (tallied during the
/// single-decode pass).
pub fn figure8(study: &Study) -> String {
    study.analysis(&CrawlId::top2021()).rings.render()
}

/// Figure 9 — rank CDFs, 2021.
pub fn figure9(study: &Study) -> String {
    let sites = study.activities(&CrawlId::top2021());
    rank_cdf(sites, &[Os::Windows, Os::Linux])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::{campaigns, StudyConfig};

    #[test]
    fn parallel_analysis_reproduces_sequential_tables_verbatim() {
        // The single-decode parallel driver must be invisible in the
        // output: every cached aggregate equals its sequential
        // recomputation, and the rendered tables match byte for byte.
        let study = Study::run(StudyConfig::quick(7));
        for (crawl, _) in campaigns() {
            let records = study.store.crawl_records(&crawl);
            let analysis = study.analysis(&crawl);
            assert_eq!(
                analysis.sites,
                kt_analysis::detect::aggregate_sites(&records),
                "{crawl:?} sites"
            );
            let observations: Vec<_> = records
                .iter()
                .flat_map(kt_analysis::detect::detect_local)
                .collect();
            assert_eq!(
                analysis.rings,
                kt_analysis::rings::PortRings::from_observations(&observations),
                "{crawl:?} rings"
            );
            assert_eq!(
                analysis.defense,
                kt_analysis::defense::evaluate(&records),
                "{crawl:?} defense"
            );
            assert_eq!(analysis.visits, records.len(), "{crawl:?} visits");
        }
        // Table 2 through the tally path vs the record-level renderer.
        let records = study.store.crawl_records(&CrawlId::malicious());
        let sites = kt_analysis::detect::aggregate_sites(&records);
        assert_eq!(
            table2(&study),
            report::table2(&study.population.blocklist, &records, &sites)
        );
    }

    #[test]
    fn every_experiment_renders() {
        let study = Study::run(StudyConfig::quick(11));
        for id in ALL_IDS.iter().chain(EXTENDED_IDS.iter()) {
            let text = run(&study, id).unwrap_or_else(|| panic!("{id} missing"));
            assert!(!text.trim().is_empty(), "{id} rendered empty");
        }
        assert!(run(&study, "T99").is_none());
    }
}
