//! The parallel analysis driver: one decode, every classifier.
//!
//! The sequential pipeline decodes a crawl's records several times —
//! once per table that wants them — and classifies on a single thread.
//! [`analyze_crawl_par`] streams the store shard by shard across the
//! [`par_indexed`] workers instead, and the decode is *borrowed*: workers pull
//! raw segment bytes with [`TelemetryStore::shard_raw_on`], decode each
//! record once as a [`VisitView`] (string fields are slices into the
//! segment, never copied), and fan it out to every consumer in one
//! pass (local-traffic detection, the §5.3 PNA defense replay, the
//! Figure 4/8 port rings, and the Table 2 outcome tally). Each record's
//! domain is interned to a [`Symbol`] through a shared
//! [`DomainInterner`] — one short lock per record — so the partial
//! aggregates carry 4-byte `Copy` keys instead of cloned `String`s.
//!
//! Determinism: symbol values depend on which worker interned a domain
//! first, so after the join the per-shard entries are sorted by the
//! *resolved* `(domain, OS)` key — exactly the order
//! [`TelemetryStore::crawl_records`] returns and the sequential
//! [`aggregate_sites`] consumes. Every aggregate built from the sorted
//! entries is therefore byte-identical to the sequential path whatever
//! the worker count or shard claim interleaving. The equivalence tests
//! below and the Study-level table comparison prove it.
//!
//! [`aggregate_sites`]: crate::detect::aggregate_sites

use std::collections::BTreeMap;
use std::sync::Mutex;

use kt_netbase::{Os, OsSet};
use kt_store::{decode_view, os_slot, CrawlId, TelemetryStore, VisitView};
use kt_trace::{names, par_indexed, Labels, Trace, WorkerSink};

use crate::classify::{classify_site, ReasonClass};
use crate::defense::{page_env, verdict_for, AdoptionScenario, DefenseImpact};
use crate::detect::{detect_local_with_page_view, SiteLocalActivity};
use crate::intern::{DomainInterner, Symbol};
use crate::rings::PortRings;

/// Success/total visit counts for one (malicious category, OS) cell of
/// Table 2.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeTally {
    /// Visits attempted.
    pub total: usize,
    /// Visits that loaded successfully.
    pub ok: usize,
}

/// Everything one crawl's telemetry yields, computed in one pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CrawlAnalysis {
    /// Records analysed (one per (domain, OS) pair).
    pub visits: usize,
    /// Per-site local activity, identical to
    /// `aggregate_sites(&store.crawl_records(crawl))`.
    pub sites: Vec<SiteLocalActivity>,
    /// Figure 4/8 localhost port rings over all observations.
    pub rings: PortRings,
    /// §5.3 PNA impact, identical to `defense::evaluate`.
    pub defense: DefenseImpact,
    /// (malicious category, OS) → success tally (the Table 2 rates).
    pub outcomes: BTreeMap<(u8, Os), OutcomeTally>,
}

/// Everything one decoded record contributes, computed where the
/// record was decoded so nothing downstream touches events again.
/// Shared with the online-aggregation path ([`crate::online`]), whose
/// partials hold the same yields keyed by owned domain strings.
#[derive(Debug, Clone)]
pub(crate) struct RecordYield {
    pub(crate) malicious_category: Option<u8>,
    pub(crate) os: Os,
    pub(crate) success: bool,
    pub(crate) observations: Vec<crate::detect::LocalObservation>,
    /// Per adoption scenario (in [`AdoptionScenario::ALL`] order):
    /// does any observation's PNA verdict permit the request?
    pub(crate) any_permitted: [bool; 3],
}

pub(crate) fn fan_out(view: &VisitView<'_>) -> RecordYield {
    let (observations, page_url) = detect_local_with_page_view(view);
    let page = page_env(page_url.as_ref());
    let mut any_permitted = [false; 3];
    for (i, scenario) in AdoptionScenario::ALL.into_iter().enumerate() {
        any_permitted[i] = observations
            .iter()
            .any(|obs| verdict_for(page, obs, scenario).permits());
    }
    RecordYield {
        malicious_category: view.malicious_category,
        os: view.os,
        success: view.outcome.is_success(),
        observations,
        any_permitted,
    }
}

/// Analyse one crawl's telemetry with `workers` threads, decoding each
/// record exactly once — as a borrowed view over the store's own
/// bytes. Produces the same sites, rings, and defense impact as the
/// sequential `aggregate_sites` / `PortRings` / `defense::evaluate`
/// calls over `store.crawl_records(crawl)`.
pub fn analyze_crawl_par(store: &TelemetryStore, crawl: &CrawlId, workers: usize) -> CrawlAnalysis {
    analyze_crawl_traced(store, crawl, workers, None)
}

/// Deterministic per-element stage costs, in simulated microseconds.
/// The `analysis_stage_seconds` histogram is fed from these — not from
/// `Instant` — so its buckets, sum, and count are a pure function of
/// the record set: byte-identical across worker counts, machines, and
/// kill/resume cycles. (Real wall time lives in `knocktalk profile`,
/// which is never byte-compared.) The constants approximate the
/// measured per-element costs in BENCH_pipeline.json at nominal
/// hardware speed; their absolute accuracy doesn't matter, their
/// determinism does.
const SIM_DECODE_BASE_US: u64 = 2;
const SIM_DECODE_PER_EVENT_US: u64 = 1;
const SIM_DETECT_BASE_US: u64 = 1;
const SIM_DETECT_PER_OBS_US: u64 = 3;
const SIM_ASSEMBLE_PER_ENTRY_US: u64 = 5;

/// Per-worker analysis instrumentation: the stage histogram handles
/// plus the local-observation counter, pre-registered so the per-record
/// hot path is two vector-index adds.
struct StageSink {
    sink: WorkerSink,
    decode: kt_trace::HistogramId,
    detect: kt_trace::HistogramId,
    observations: kt_trace::CounterId,
}

impl StageSink {
    fn new(crawl: &CrawlId) -> StageSink {
        let mut sink = WorkerSink::new();
        let stage = |stage| Labels::new(&[("crawl", crawl.as_str()), ("stage", stage)]);
        let decode = sink.histogram(&names::ANALYSIS_STAGE_SECONDS, stage("decode"));
        let detect = sink.histogram(&names::ANALYSIS_STAGE_SECONDS, stage("detect"));
        let observations = sink.counter(
            names::LOCAL_OBSERVATIONS_TOTAL,
            Labels::new(&[("crawl", crawl.as_str())]),
        );
        StageSink {
            sink,
            decode,
            detect,
            observations,
        }
    }
}

/// [`analyze_crawl_par`] reporting into a [`Trace`]: workers record
/// per-record decode/detect costs (under the deterministic sim-cost
/// model above) and local-observation counts into private sinks merged
/// at join; the supervisor adds the assemble stage and the derived
/// site/record gauges. Tracing never changes the returned analysis.
pub fn analyze_crawl_traced(
    store: &TelemetryStore,
    crawl: &CrawlId,
    workers: usize,
    trace: Option<&Trace>,
) -> CrawlAnalysis {
    // Shards are the executor's work items; each worker keeps a private
    // stage sink, merged after the join.
    let interner = Mutex::new(DomainInterner::new());
    let (partials, sinks) = par_indexed(
        store.shard_count(),
        workers,
        |_| trace.map(|_| StageSink::new(crawl)),
        |stage_sink, shard| {
            let mut partial: Vec<((Symbol, u8), RecordYield)> = Vec::new();
            for raw in store.shard_raw_on(crawl, shard, None) {
                // Undecodable segments cannot occur for records the
                // store itself encoded; skip defensively all the same.
                let Ok(view) = decode_view(&raw) else {
                    continue;
                };
                let events = view.events.len() as u64;
                let yielded = fan_out(&view);
                if let Some(obs) = stage_sink.as_mut() {
                    obs.sink.observe(
                        obs.decode,
                        SIM_DECODE_BASE_US + events * SIM_DECODE_PER_EVENT_US,
                    );
                    obs.sink.observe(
                        obs.detect,
                        SIM_DETECT_BASE_US
                            + yielded.observations.len() as u64 * SIM_DETECT_PER_OBS_US,
                    );
                    obs.sink
                        .add(obs.observations, yielded.observations.len() as u64);
                }
                let sym = interner
                    .lock()
                    .expect("interner lock poisoned")
                    .intern(view.domain);
                partial.push(((sym, os_slot(view.os)), yielded));
            }
            partial
        },
    );
    if let Some(trace) = trace {
        for obs in sinks.iter().flatten() {
            trace.merge_sink(&obs.sink);
        }
    }
    // Disjoint keys: each (domain, OS) lives in exactly one shard.
    let mut entries: Vec<((Symbol, u8), RecordYield)> = partials.into_iter().flatten().collect();
    let interner = interner.into_inner().expect("interner lock poisoned");
    // Symbol values depend on interleaving; resolved names do not.
    // Keys are unique, so this sort fully determines the order.
    entries.sort_unstable_by(|((a_sym, a_os), _), ((b_sym, b_os), _)| {
        interner
            .resolve(*a_sym)
            .cmp(interner.resolve(*b_sym))
            .then(a_os.cmp(b_os))
    });
    let entry_count = entries.len() as u64;
    let analysis = assemble(entries, &interner);
    if let Some(trace) = trace {
        trace.observe(
            &names::ANALYSIS_STAGE_SECONDS,
            Labels::new(&[("crawl", crawl.as_str()), ("stage", "assemble")]),
            entry_count * SIM_ASSEMBLE_PER_ENTRY_US,
        );
        let crawl_labels = Labels::new(&[("crawl", crawl.as_str())]);
        trace.set_gauge(names::STORE_RECORDS, crawl_labels, analysis.visits as f64);
        let localhost = analysis
            .sites
            .iter()
            .filter(|s| !s.localhost_os.is_empty())
            .count();
        let lan = analysis
            .sites
            .iter()
            .filter(|s| !s.lan_os.is_empty())
            .count();
        trace.set_gauge(
            names::LOCAL_SITES,
            Labels::new(&[("crawl", crawl.as_str()), ("locality", "localhost")]),
            localhost as f64,
        );
        trace.set_gauge(
            names::LOCAL_SITES,
            Labels::new(&[("crawl", crawl.as_str()), ("locality", "lan")]),
            lan as f64,
        );
    }
    analysis
}

/// Fold the `(domain, OS)`-ordered per-record yields into the final
/// aggregates. Entries arrive sorted by resolved key, so a site's OS
/// rows are adjacent and every aggregate below is a pure function of
/// the record *set*.
pub(crate) fn assemble(
    entries: Vec<((Symbol, u8), RecordYield)>,
    interner: &DomainInterner,
) -> CrawlAnalysis {
    let visits = entries.len();
    // Outcome tally and per-scenario defense verdicts (borrow pass).
    // `permitted` merges a domain's OS rows by run — no keying needed.
    let mut outcomes: BTreeMap<(u8, Os), OutcomeTally> = BTreeMap::new();
    let mut permitted: Vec<(Symbol, [bool; 3])> = Vec::new();
    for ((sym, _), yielded) in &entries {
        if let Some(code) = yielded.malicious_category {
            let tally = outcomes.entry((code, yielded.os)).or_default();
            tally.total += 1;
            if yielded.success {
                tally.ok += 1;
            }
        }
        if !yielded.observations.is_empty() {
            if permitted.last().map(|(s, _)| s != sym).unwrap_or(true) {
                permitted.push((*sym, [false; 3]));
            }
            let (_, flags) = permitted.last_mut().expect("just pushed");
            for (scenario, any) in flags.iter_mut().enumerate() {
                *any |= yielded.any_permitted[scenario];
            }
        }
    }
    // Site aggregation (consuming pass): identical logic and identical
    // input order to `aggregate_sites` over a sorted record slice; the
    // sorted entries make each site one contiguous run, so sites build
    // directly into their final vector.
    let mut sites: Vec<SiteLocalActivity> = Vec::new();
    let mut site_sym: Option<Symbol> = None;
    for ((sym, _), yielded) in entries {
        for obs in yielded.observations {
            if site_sym != Some(sym) {
                sites.push(SiteLocalActivity {
                    domain: obs.domain.clone(),
                    rank: obs.rank,
                    malicious_category: obs.malicious_category,
                    localhost_os: OsSet::NONE,
                    lan_os: OsSet::NONE,
                    observations: Vec::new(),
                });
                site_sym = Some(sym);
            }
            let entry = sites.last_mut().expect("just pushed a site");
            if obs.locality.is_loopback() {
                entry.localhost_os = entry.localhost_os.with(obs.os);
            } else if obs.locality.is_private() {
                entry.lan_os = entry.lan_os.with(obs.os);
            }
            entry.observations.push(obs);
        }
    }
    // Defense impact from the per-record verdicts plus the final site
    // classification — the same per-domain OR `defense::evaluate`
    // computes record by record.
    let class_of: BTreeMap<&str, ReasonClass> = sites
        .iter()
        .map(|s| (s.domain.as_str(), classify_site(s)))
        .collect();
    let mut defense = DefenseImpact::default();
    for (i, scenario) in AdoptionScenario::ALL.into_iter().enumerate() {
        for (sym, flags) in &permitted {
            let Some(class) = class_of.get(interner.resolve(*sym)) else {
                continue;
            };
            let slot = defense
                .by_class
                .entry((*class, scenario.label().to_string()))
                .or_insert((0, 0));
            if flags[i] {
                slot.0 += 1;
            } else {
                slot.1 += 1;
            }
        }
    }
    let rings = PortRings::from_observations(sites.iter().flat_map(|s| s.observations.iter()));
    CrawlAnalysis {
        visits,
        sites,
        rings,
        defense,
        outcomes,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::defense::evaluate;
    use crate::detect::{aggregate_sites, detect_local};
    use kt_netlog::{EventParams, EventPhase, EventType, NetLogEvent, SourceRef, SourceType};
    use kt_store::{LoadOutcome, VisitRecord};

    fn url_request(id: u64, time: u64, url: &str) -> NetLogEvent {
        NetLogEvent {
            time,
            event_type: EventType::UrlRequestStartJob,
            source: SourceRef {
                id,
                kind: SourceType::UrlRequest,
            },
            phase: EventPhase::Begin,
            params: EventParams::UrlRequestStart {
                url: url.into(),
                method: "GET".into(),
                initiator: None,
                load_flags: 0,
            },
        }
    }

    fn ws_request(id: u64, time: u64, url: &str) -> NetLogEvent {
        NetLogEvent {
            time,
            event_type: EventType::WebSocketSendRequestHeaders,
            source: SourceRef {
                id,
                kind: SourceType::WebSocket,
            },
            phase: EventPhase::Begin,
            params: EventParams::WebSocket { url: url.into() },
        }
    }

    /// A store with a spread of behaviours: native-app WebSockets,
    /// dev-error fetches, LAN probes, quiet sites, failures, and a
    /// malicious crawl with category codes — enough that every
    /// aggregate in `CrawlAnalysis` is non-trivial.
    pub(crate) fn populated_store() -> (TelemetryStore, CrawlId) {
        let store = TelemetryStore::new();
        let crawl = CrawlId::top2020();
        for i in 0..40 {
            let domain = format!("site{i:02}.example");
            for os in Os::ALL {
                let page = format!("https://{domain}/");
                let mut events = vec![url_request(1, 100, &page)];
                match i % 5 {
                    0 => events.push(ws_request(2, 9_000, "ws://localhost:6463/?v=1")),
                    1 => events.push(url_request(
                        2,
                        3_000,
                        "http://localhost:35729/livereload.js",
                    )),
                    2 if os == Os::Windows => {
                        events.push(url_request(2, 4_000, "http://10.0.0.20/probe"));
                    }
                    _ => {}
                }
                store.append(&VisitRecord {
                    crawl: crawl.clone(),
                    domain: domain.clone(),
                    rank: Some(i + 1),
                    malicious_category: Some((i % 3) as u8),
                    os,
                    outcome: if i % 7 == 6 {
                        LoadOutcome::Error(kt_netlog::NetError::ConnectionReset)
                    } else {
                        LoadOutcome::Success
                    },
                    loaded_at_ms: 400,
                    events,
                });
            }
        }
        // A second crawl that must not leak into the analysis.
        store.append(&VisitRecord {
            crawl: CrawlId::top2021(),
            domain: "site00.example".into(),
            rank: Some(1),
            malicious_category: None,
            os: Os::Linux,
            outcome: LoadOutcome::Success,
            loaded_at_ms: 400,
            events: vec![
                url_request(1, 100, "https://site00.example/"),
                ws_request(2, 9_000, "ws://localhost:6463/?v=1"),
            ],
        });
        (store, crawl)
    }

    #[test]
    fn par_analysis_matches_sequential_exactly() {
        let (store, crawl) = populated_store();
        let records = store.crawl_records(&crawl);
        let seq_sites = aggregate_sites(&records);
        let seq_obs: Vec<_> = records.iter().flat_map(detect_local).collect();
        let seq_rings = PortRings::from_observations(&seq_obs);
        let seq_defense = evaluate(&records);
        for workers in [1, 2, 8] {
            let analysis = analyze_crawl_par(&store, &crawl, workers);
            assert_eq!(analysis.visits, records.len(), "workers={workers}");
            assert_eq!(analysis.sites, seq_sites, "workers={workers}");
            assert_eq!(analysis.rings, seq_rings, "workers={workers}");
            assert_eq!(analysis.defense, seq_defense, "workers={workers}");
        }
    }

    #[test]
    fn outcome_tally_matches_record_filtering() {
        let (store, crawl) = populated_store();
        let records = store.crawl_records(&crawl);
        let analysis = analyze_crawl_par(&store, &crawl, 4);
        for code in 0..3u8 {
            for os in Os::ALL {
                let of_cat: Vec<_> = records
                    .iter()
                    .filter(|r| r.malicious_category == Some(code) && r.os == os)
                    .collect();
                let ok = of_cat.iter().filter(|r| r.outcome.is_success()).count();
                let tally = analysis
                    .outcomes
                    .get(&(code, os))
                    .copied()
                    .unwrap_or_default();
                assert_eq!(
                    (tally.total, tally.ok),
                    (of_cat.len(), ok),
                    "code={code} os={os:?}"
                );
            }
        }
    }

    #[test]
    fn worker_counts_agree_with_each_other() {
        let (store, crawl) = populated_store();
        let one = analyze_crawl_par(&store, &crawl, 1);
        for workers in [3, 16, 64] {
            assert_eq!(analyze_crawl_par(&store, &crawl, workers), one);
        }
    }

    #[test]
    fn unknown_crawl_yields_empty_analysis() {
        let (store, _) = populated_store();
        let analysis = analyze_crawl_par(&store, &CrawlId("nope".into()), 4);
        assert_eq!(analysis, CrawlAnalysis::default());
    }
}
