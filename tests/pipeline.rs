//! End-to-end pipeline integration: population → worlds → crawls →
//! store → detection. Asserts the structural invariants every stage
//! must preserve.

use std::sync::OnceLock;

use knock_talk::analysis::detect::{aggregate_sites, detect_local};
use knock_talk::netbase::{Locality, Os, Url};
use knock_talk::netlog::{FlowSetView, NetLogEvent, SourceType};
use knock_talk::store::CrawlId;
use knock_talk::{Study, StudyConfig};

fn study() -> &'static Study {
    static STUDY: OnceLock<Study> = OnceLock::new();
    STUDY.get_or_init(|| Study::run(StudyConfig::quick(2024)))
}

#[test]
fn every_site_is_visited_on_every_scheduled_os() {
    let s = study();
    let n2020 = s.population.sites2020.len();
    assert_eq!(
        s.store.crawl_records(&CrawlId::top2020()).len(),
        n2020 * 3,
        "2020: three OS crawls per site"
    );
    let n2021 = s.population.sites2021.len();
    assert_eq!(
        s.store.crawl_records(&CrawlId::top2021()).len(),
        n2021 * 2,
        "2021: Windows and Linux only"
    );
    let nmal = s.population.malicious_sites.len();
    assert_eq!(s.store.crawl_records(&CrawlId::malicious()).len(), nmal * 3);
}

#[test]
fn stored_telemetry_is_flow_consistent() {
    let s = study();
    let records = s.store.crawl_records_on(&CrawlId::top2020(), Os::Windows);
    let mut checked = 0;
    for record in records.iter().take(200) {
        let flows = FlowSetView::from_events(record.events.iter().map(NetLogEvent::view));
        for flow in flows.iter() {
            // Events in a flow share the source and are time-ordered.
            assert!(flow.events().all(|e| e.source.id == flow.source.id));
            let times: Vec<u64> = flow.events().map(|e| e.time).collect();
            assert!(times.windows(2).all(|w| w[0] <= w[1]));
            // Every event sits inside the 20 s observation window.
            assert!(flow.end_time() < 20_000, "{}", record.domain);
        }
        checked += 1;
    }
    assert!(checked > 0);
}

#[test]
fn detection_only_reports_loopback_or_private() {
    let s = study();
    for record in s.store.crawl_records_on(&CrawlId::top2020(), Os::Linux) {
        for obs in detect_local(&record) {
            assert!(
                obs.locality == Locality::Loopback || obs.locality == Locality::Private,
                "{:?}",
                obs.locality
            );
            // And the URL re-parses to the same classification.
            assert_eq!(
                Url::parse(&obs.url.to_string()).unwrap().locality(),
                obs.locality
            );
        }
    }
}

#[test]
fn browser_internal_sources_never_surface_as_findings() {
    let s = study();
    for record in s
        .store
        .crawl_records_on(&CrawlId::top2020(), Os::Windows)
        .iter()
        .take(100)
    {
        let internal_ids: Vec<u64> = record
            .events
            .iter()
            .filter(|e| e.source.kind == SourceType::BrowserInternal)
            .map(|e| e.source.id)
            .collect();
        assert!(
            !internal_ids.is_empty(),
            "internal noise exists in telemetry"
        );
        // No detection may come from an internal source's flow.
        let flows = FlowSetView::from_events(record.events.iter().map(NetLogEvent::view));
        for obs in detect_local(record) {
            let flow = flows
                .iter()
                .find(|f| f.url().is_some_and(|u| u == obs.url.to_string()));
            if let Some(flow) = flow {
                assert_ne!(flow.source.kind, SourceType::BrowserInternal);
            }
        }
    }
}

#[test]
fn aggregation_is_stable_under_record_order() {
    let s = study();
    let mut records = s.store.crawl_records(&CrawlId::top2020());
    let forward = aggregate_sites(&records);
    records.reverse();
    let backward = aggregate_sites(&records);
    assert_eq!(forward.len(), backward.len());
    for (a, b) in forward.iter().zip(&backward) {
        assert_eq!(a.domain, b.domain);
        assert_eq!(a.localhost_os, b.localhost_os);
        assert_eq!(a.lan_os, b.lan_os);
    }
}

#[test]
fn reruns_are_bit_identical() {
    // Same seed ⇒ same detection output, independent of the worker
    // pool's scheduling.
    let a = Study::run(StudyConfig {
        population: knock_talk::webgen::PopulationConfig {
            seed: 99,
            top_size: 600,
            malicious_size: 300,
            sensors: false,
        },
        workers: 2,
    });
    let b = Study::run(StudyConfig {
        population: knock_talk::webgen::PopulationConfig {
            seed: 99,
            top_size: 600,
            malicious_size: 300,
            sensors: false,
        },
        workers: 7,
    });
    let acts_a = a.activities(&CrawlId::top2020());
    let acts_b = b.activities(&CrawlId::top2020());
    assert_eq!(acts_a.len(), acts_b.len());
    for (x, y) in acts_a.iter().zip(acts_b) {
        assert_eq!(x, y);
    }
}

#[test]
fn no_ipv6_local_traffic_matches_paper() {
    // "We did not observe any localhost or LAN network traffic over
    // IPv6" (§4) — our population plants none either; confirm the
    // pipeline agrees rather than hallucinating some.
    let s = study();
    for crawl in [CrawlId::top2020(), CrawlId::top2021(), CrawlId::malicious()] {
        for record in s.store.crawl_records(&crawl) {
            for obs in detect_local(&record) {
                assert!(
                    !obs.url.to_string().contains('['),
                    "unexpected IPv6 local destination {}",
                    obs.url
                );
            }
        }
    }
}

#[test]
fn deep_crawl_reveals_internal_page_behaviour() {
    use knock_talk::crawler::{run_crawl, CrawlConfig, CrawlJob};
    use knock_talk::store::TelemetryStore;

    let s = study();
    let jobs: Vec<CrawlJob> = s
        .population
        .sites2020
        .iter()
        .map(|site| CrawlJob {
            site,
            malicious_category: None,
        })
        .collect();
    let count_active = |crawl_internal: bool| -> usize {
        let store = TelemetryStore::new();
        let mut config = CrawlConfig::paper(
            knock_talk::store::CrawlId("deep-test".to_string()),
            Os::Windows,
            s.config.population.seed,
        );
        config.crawl_internal = crawl_internal;
        run_crawl(&jobs, &config, &store);
        let records = store.crawl_records(&knock_talk::store::CrawlId("deep-test".to_string()));
        aggregate_sites(&records)
            .iter()
            .filter(|site| site.localhost_os.contains(Os::Windows))
            .count()
    };
    let shallow = count_active(false);
    let deep = count_active(true);
    assert_eq!(shallow, 92, "the paper's landing-page count");
    assert_eq!(
        deep,
        92 + 18,
        "18 internal-page ThreatMetrix deployments surface in deep mode"
    );
}
