//! Replay allocates only what its caller keeps: per visit frame, the
//! owned identity of the `ReplayedVisit` it returns and the store's
//! index entry. The record's one check runs the view decoder's pass
//! without building an event vector.
//! A replay that decodes each record twice, or builds owned keys for
//! its duplicate and checkpoint cross-checks, reads 8.63 allocations
//! per frame on this journal; one whose check builds the event vector
//! it drops reads 5.64; this one reads 4.64.
//! It reads the process-global `count_allocs`, so this file holds one
//! test.

use kt_netbase::Os;
use kt_netlog::{EventParams, EventPhase, EventType, NetLogEvent, SourceRef, SourceType};
use kt_store::journal::{CheckpointFrame, JournalMeta, JournalWriter, VisitDelta, FLAG_FINAL};
use kt_store::record::{CrawlId, LoadOutcome, VisitRecord};

#[global_allocator]
static HEAP: kt_trace::CountingAllocator = kt_trace::CountingAllocator;

/// Visits in the fixture journal: enough bytes (over 1 MiB) that the
/// scan checks frames on every core.
const VISITS: usize = 3_000;

/// A crawl-shaped visit: six subresource requests with their DNS and
/// header events, and a failed request on every fifth site.
fn visit(i: usize) -> VisitRecord {
    let source = |id| SourceRef {
        id,
        kind: SourceType::UrlRequest,
    };
    let mut events = Vec::new();
    for r in 0..6u64 {
        events.push(NetLogEvent {
            time: 10 + r * 40,
            event_type: EventType::UrlRequestStartJob,
            source: source(r),
            phase: EventPhase::Begin,
            params: EventParams::UrlRequestStart {
                url: format!("https://cdn{r}.site{i}.example/asset/{r}.js"),
                method: "GET".into(),
                initiator: Some(format!("https://site{i}.example")),
                load_flags: 0,
            },
        });
        events.push(NetLogEvent {
            time: 12 + r * 40,
            event_type: EventType::HostResolverImplJob,
            source: source(r),
            phase: EventPhase::None,
            params: EventParams::DnsJob {
                host: format!("cdn{r}.site{i}.example"),
            },
        });
        events.push(NetLogEvent {
            time: 30 + r * 40,
            event_type: EventType::HttpTransactionReadHeaders,
            source: source(r),
            phase: EventPhase::End,
            params: EventParams::ResponseHeaders { status: 200 },
        });
    }
    if i.is_multiple_of(5) {
        events.push(NetLogEvent {
            time: 400,
            event_type: EventType::FailedRequest,
            source: source(9),
            phase: EventPhase::None,
            params: EventParams::Failed { net_error: -102 },
        });
    }
    VisitRecord {
        crawl: CrawlId::top2020(),
        domain: format!("site{i}.example"),
        rank: Some(i as u32 + 1),
        malicious_category: None,
        os: Os::ALL[i % 3],
        outcome: LoadOutcome::Success,
        loaded_at_ms: 500 + i as u64,
        events,
    }
}

/// A study-shaped journal: META, the visits with their deltas, and
/// one checkpoint per OS listing its finished domains.
fn fixture(path: &std::path::Path) {
    let w = JournalWriter::create(path).unwrap();
    w.append_meta(&JournalMeta {
        seed: 1,
        top_size: VISITS as u64,
        malicious_size: 0,
        workers: 2,
    });
    for i in 0..VISITS {
        let delta = VisitDelta {
            cost_ms: 21_000,
            attempted: 1,
            successful: u64::from(!i.is_multiple_of(7)),
            failures: if i.is_multiple_of(7) {
                vec![(-105, 1)]
            } else {
                vec![]
            },
            ..VisitDelta::default()
        };
        w.append_visit(&visit(i), &delta, FLAG_FINAL, false);
    }
    for os in Os::ALL {
        w.append_checkpoint(&CheckpointFrame {
            crawl: "top2020".into(),
            os: os.name().into(),
            completed: (0..VISITS)
                .filter(|i| Os::ALL[i % 3] == os)
                .map(|i| format!("site{i}.example"))
                .collect(),
            stats: vec![0; 16],
        });
    }
}

#[test]
fn replay_allocates_at_most_five_times_per_visit_frame() {
    let path = std::env::temp_dir().join(format!("kt-replay-allocs-{}.ktj", std::process::id()));
    fixture(&path);
    assert!(std::fs::metadata(&path).unwrap().len() > 1 << 20);
    let (report, allocs, _) = kt_trace::count_allocs(|| kt_store::replay(&path).unwrap());
    std::fs::remove_file(&path).ok();
    assert!(report.summary.clean(), "{:?}", report.summary);
    assert_eq!(report.visits.len(), VISITS);
    assert_eq!(report.store.len(), VISITS);
    let per_frame = allocs as f64 / VISITS as f64;
    eprintln!("replay: {allocs} allocations, {per_frame:.2} per visit frame");
    assert!(
        per_frame <= 5.0,
        "replay made {per_frame:.2} allocations per visit frame"
    );
}
