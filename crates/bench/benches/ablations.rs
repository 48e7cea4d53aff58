//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! 1. source-ID flow grouping vs a flat event scan in detection;
//! 2. indexed store lookups vs a full segment scan;
//! 3. parallel (crossbeam) vs serial crawling;
//! 4. SOP-aware request-side accounting vs response-only accounting.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use knock_talk::analysis::detect::detect_local;
use knock_talk::crawler::{run_crawl, CrawlConfig, CrawlJob};
use knock_talk::netbase::{DomainName, Os, OsSet, Url};
use knock_talk::netlog::{FlowOutcome, FlowSet};
use knock_talk::store::{CrawlId, TelemetryStore, VisitRecord};
use knock_talk::webgen::{Behavior, NativeApp, PlantedBehavior, WebSite};
use std::hint::black_box;

fn population(n: usize) -> Vec<WebSite> {
    (0..n)
        .map(|i| {
            let mut site = WebSite::plain(
                DomainName::parse(&format!("abl{i}.example")).unwrap(),
                Some(i as u32 + 1),
                5,
            );
            if i % 5 == 0 {
                site.behaviors.push(PlantedBehavior {
                    behavior: Behavior::NativeApp(NativeApp::Discord),
                    os_set: OsSet::ALL,
                    base_delay_ms: 1_500,
                });
            }
            site
        })
        .collect()
}

fn crawled_store(sites: &[WebSite], workers: usize) -> TelemetryStore {
    let jobs: Vec<CrawlJob> = sites.iter().map(CrawlJob::plain).collect();
    let store = TelemetryStore::new();
    let mut config = CrawlConfig::paper(CrawlId::top2020(), Os::Linux, 1);
    config.workers = workers;
    run_crawl(&jobs, &config, &store);
    store
}

/// Ablation 1: detection via flow grouping (the paper's method, which
/// can filter by source and see redirects) vs a naive flat scan over
/// URL-bearing events.
fn ablation_flow_grouping(c: &mut Criterion) {
    let sites = population(64);
    let store = crawled_store(&sites, 4);
    let records = store.crawl_records(&CrawlId::top2020());
    let mut group = c.benchmark_group("ablation_detection");
    group.throughput(Throughput::Elements(records.len() as u64));
    group.bench_function("flow_grouped", |b| {
        b.iter(|| {
            let n: usize = records.iter().map(|r| detect_local(r).len()).sum();
            black_box(n)
        })
    });
    group.bench_function("flat_event_scan", |b| {
        b.iter(|| {
            // The naive alternative: scan events for URLs without
            // grouping. Cannot filter browser sources by flow or pair
            // redirects with initiators — kept for cost comparison.
            let mut n = 0usize;
            for record in &records {
                for ev in &record.events {
                    if let Some(u) = ev.url() {
                        if Url::parse(u).map(|u| u.is_local()).unwrap_or(false) {
                            n += 1;
                        }
                    }
                }
            }
            black_box(n)
        })
    });
    group.finish();
}

/// Ablation 2: indexed point lookups vs full store scans.
fn ablation_store_index(c: &mut Criterion) {
    let sites = population(256);
    let store = crawled_store(&sites, 4);
    let domains: Vec<String> = sites
        .iter()
        .map(|s| s.domain.as_str().to_string())
        .collect();
    let mut group = c.benchmark_group("ablation_store");
    group.bench_function("indexed_lookup_64", |b| {
        b.iter(|| {
            let mut found = 0usize;
            for d in domains.iter().take(64) {
                if store.get(&CrawlId::top2020(), d, Os::Linux).is_some() {
                    found += 1;
                }
            }
            black_box(found)
        })
    });
    group.bench_function("full_scan_filter_64", |b| {
        b.iter(|| {
            let all = store.scan_all().unwrap();
            let mut found = 0usize;
            for d in domains.iter().take(64) {
                if all.iter().any(|r: &VisitRecord| &r.domain == d) {
                    found += 1;
                }
            }
            black_box(found)
        })
    });
    group.finish();
}

/// Ablation 3: crawl worker-pool scaling.
fn ablation_parallel_crawl(c: &mut Criterion) {
    let sites = population(128);
    let mut group = c.benchmark_group("ablation_crawl_workers");
    group.throughput(Throughput::Elements(sites.len() as u64));
    for workers in [1usize, 4, 8] {
        group.bench_function(format!("workers_{workers}"), |b| {
            b.iter(|| {
                let store = crawled_store(&sites, workers);
                black_box(store.len())
            })
        });
    }
    group.finish();
}

/// Ablation 4: request-side accounting (what the paper does — a probe
/// counts even when the response is opaque or absent) vs counting only
/// flows that produced a readable response. The latter misses most
/// anti-abuse scans, which is the *correctness* half of the ablation;
/// the bench records the cost of each.
fn ablation_sop_accounting(c: &mut Criterion) {
    let mut site = WebSite::plain(DomainName::parse("shop.example").unwrap(), Some(104), 5);
    site.behaviors.push(PlantedBehavior {
        behavior: Behavior::ThreatMetrix {
            vendor: DomainName::parse("shop-metrics.example").unwrap(),
        },
        os_set: OsSet::WINDOWS_ONLY,
        base_delay_ms: 9_000,
    });
    let store = {
        let jobs = [CrawlJob::plain(&site)];
        let store = TelemetryStore::new();
        run_crawl(
            &jobs,
            &CrawlConfig::paper(CrawlId::top2020(), Os::Windows, 1),
            &store,
        );
        store
    };
    let record = store
        .get(&CrawlId::top2020(), "shop.example", Os::Windows)
        .unwrap();
    let mut group = c.benchmark_group("ablation_sop");
    group.bench_function("request_side_accounting", |b| {
        b.iter(|| black_box(detect_local(black_box(&record)).len()))
    });
    group.bench_function("response_only_accounting", |b| {
        b.iter(|| {
            let flows = FlowSet::from_events(record.events.iter().cloned());
            let n = flows
                .page_flows()
                .filter(|f| matches!(f.outcome(), FlowOutcome::Success(_)))
                .filter(|f| {
                    f.url()
                        .and_then(|u| Url::parse(u).ok())
                        .map(|u| u.is_local())
                        .unwrap_or(false)
                })
                .count();
            black_box(n)
        })
    });
    group.finish();
    // Correctness side of the ablation, asserted once outside timing:
    let request_side = detect_local(&record).len();
    let flows = FlowSet::from_events(record.events.iter().cloned());
    let response_only = flows
        .page_flows()
        .filter(|f| matches!(f.outcome(), FlowOutcome::Success(_)))
        .filter(|f| {
            f.url()
                .and_then(|u| Url::parse(u).ok())
                .map(|u| u.is_local())
                .unwrap_or(false)
        })
        .count();
    assert!(
        request_side > response_only,
        "request-side sees probes ({request_side}) the response-only view misses ({response_only})"
    );
}

criterion_group!(
    name = ablations;
    config = Criterion::default().sample_size(10);
    targets =
        ablation_flow_grouping,
        ablation_store_index,
        ablation_parallel_crawl,
        ablation_sop_accounting
);
criterion_main!(ablations);
