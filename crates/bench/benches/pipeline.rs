//! Pipeline throughput benchmarks: the stages a real crawl pays for —
//! page visits, NetLog JSON parsing, binary codec, detection.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use knock_talk::analysis::detect::detect_local;
use knock_talk::browser::{Browser, BrowserConfig, World};
use knock_talk::crawler::{run_crawl, CrawlConfig, CrawlJob};
use knock_talk::netbase::{DomainName, Os, OsSet};
use knock_talk::netlog::Capture;
use knock_talk::store::{codec, CrawlId, LoadOutcome, TelemetryStore, VisitRecord};
use knock_talk::webgen::{Behavior, NativeApp, PlantedBehavior, WebSite};
use std::hint::black_box;

fn behaviour_site(i: usize) -> WebSite {
    let mut site = WebSite::plain(
        DomainName::parse(&format!("bench{i}.example")).unwrap(),
        Some(i as u32 + 1),
        6,
    );
    if i.is_multiple_of(4) {
        site.behaviors.push(PlantedBehavior {
            behavior: Behavior::NativeApp(NativeApp::Discord),
            os_set: OsSet::ALL,
            base_delay_ms: 2_000,
        });
    }
    site
}

fn bench_page_visits(c: &mut Criterion) {
    let sites: Vec<WebSite> = (0..64).map(behaviour_site).collect();
    let mut group = c.benchmark_group("pipeline");
    group.throughput(Throughput::Elements(sites.len() as u64));
    group.bench_function("page_visits_64", |b| {
        b.iter(|| {
            let mut world = World::build(&sites, Os::Linux, 1);
            let mut browser = Browser::new(&mut world, BrowserConfig::paper(Os::Linux), 1);
            let mut events = 0usize;
            for site in &sites {
                events += browser.visit(site).capture.len();
            }
            black_box(events)
        })
    });
    group.finish();
}

fn bench_crawl_pool(c: &mut Criterion) {
    let sites: Vec<WebSite> = (0..128).map(behaviour_site).collect();
    let jobs: Vec<CrawlJob> = sites.iter().map(CrawlJob::plain).collect();
    let mut group = c.benchmark_group("pipeline");
    group.throughput(Throughput::Elements(jobs.len() as u64));
    group.bench_function("crawl_pool_128_sites", |b| {
        b.iter(|| {
            let store = TelemetryStore::new();
            let config = CrawlConfig::paper(CrawlId::top2020(), Os::Windows, 1);
            let stats = run_crawl(&jobs, &config, &store);
            black_box(stats.attempted)
        })
    });
    group.finish();
}

fn capture_fixture() -> (String, VisitRecord) {
    let site = behaviour_site(0);
    let mut world = World::build(std::slice::from_ref(&site), Os::Linux, 1);
    let mut browser = Browser::new(&mut world, BrowserConfig::paper(Os::Linux), 1);
    let result = browser.visit(&site);
    let record = VisitRecord {
        crawl: CrawlId::top2020(),
        domain: result.domain.clone(),
        rank: Some(1),
        malicious_category: None,
        os: Os::Linux,
        outcome: LoadOutcome::Success,
        loaded_at_ms: 300,
        events: result.capture.events.clone(),
    };
    (result.capture.to_json(), record)
}

fn bench_netlog_json_parse(c: &mut Criterion) {
    let (json, _) = capture_fixture();
    let mut group = c.benchmark_group("pipeline");
    group.throughput(Throughput::Bytes(json.len() as u64));
    group.bench_function("netlog_json_parse", |b| {
        b.iter(|| {
            let capture = Capture::parse(black_box(&json)).unwrap();
            black_box(capture.len())
        })
    });
    group.finish();
}

fn bench_binary_codec(c: &mut Criterion) {
    let (_, record) = capture_fixture();
    let encoded = codec::encode(&record);
    let mut group = c.benchmark_group("pipeline");
    group.throughput(Throughput::Bytes(encoded.len() as u64));
    group.bench_function("record_encode", |b| {
        b.iter(|| black_box(codec::encode(black_box(&record)).len()))
    });
    group.bench_function("record_decode", |b| {
        b.iter(|| {
            let rec = codec::decode(black_box(encoded.clone())).unwrap();
            black_box(rec.events.len())
        })
    });
    group.finish();
}

fn bench_detection(c: &mut Criterion) {
    let (_, record) = capture_fixture();
    let mut group = c.benchmark_group("pipeline");
    group.throughput(Throughput::Elements(record.events.len() as u64));
    group.bench_function("detect_local_per_record", |b| {
        b.iter(|| black_box(detect_local(black_box(&record)).len()))
    });
    group.finish();
}

criterion_group!(
    name = pipeline;
    config = Criterion::default().sample_size(10);
    targets =
        bench_page_visits,
        bench_crawl_pool,
        bench_netlog_json_parse,
        bench_binary_codec,
        bench_detection
);
criterion_main!(pipeline);
