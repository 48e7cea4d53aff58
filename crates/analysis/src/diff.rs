//! Streaming longitudinal diff over a content-addressed snapshot
//! series.
//!
//! [`longitudinal::transitions`] compares the paper's two crawls from
//! fully-materialised [`SiteLocalActivity`] lists. A rolling series of
//! N snapshots can't afford that: this module walks N manifests of a
//! [`SnapshotStore`] *shard-parallel* — [`par_indexed`] workers claim
//! domain-hash shards, decode each referenced chunk through
//! the borrowed [`decode_view`] path, classify on the fly, and emit
//! per-domain timelines. The merge is a deterministic fold over sorted
//! partials, so the rendered tables are byte-identical across worker
//! counts, exactly like [`par::analyze_crawl_par`].
//!
//! Three longitudinal tables come out (the paper's §4.1/§4.3 views,
//! generalised from one pair to every consecutive pair):
//!
//! * **behaviour-class churn** — a [`TransitionMatrix`] per pair;
//! * **adoption curves** — per-snapshot localhost/LAN site counts and
//!   the per-class split (ThreatMetrix and BIG-IP adoption over time);
//! * **flows** — sites that entered, exited, or persisted in the
//!   local-traffic population at each step.
//!
//! [`longitudinal::transitions`]: crate::longitudinal::transitions
//! [`par::analyze_crawl_par`]: crate::par::analyze_crawl_par
//! [`decode_view`]: kt_store::decode_view

use std::collections::BTreeMap;

use kt_netbase::OsSet;
use kt_store::decode_view;
use kt_store::slot_os;
use kt_store::snapshot::{shard_of, SnapshotStore, SNAPSHOT_SHARDS};
use kt_trace::{names, par_indexed, Labels, Trace};

use crate::classify::{classify_site, ReasonClass};
use crate::detect::{detect_local_with_page_view, SiteLocalActivity};
use crate::longitudinal::{Transition, TransitionMatrix};
use crate::report::TextTable;

/// One site's state in one snapshot, as the diff walker sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SiteState {
    listed: bool,
    localhost: bool,
    lan: bool,
    /// Classification, present only for localhost-active sites (the
    /// same filter [`crate::longitudinal::transitions`] applies).
    class: Option<ReasonClass>,
}

const UNLISTED: SiteState = SiteState {
    listed: false,
    localhost: false,
    lan: false,
    class: None,
};

/// Per-snapshot population counts (one adoption-curve sample).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AdoptionRow {
    /// Snapshot label.
    pub label: String,
    /// Sites listed in this snapshot's manifest.
    pub sites: usize,
    /// Sites with loopback-destined traffic.
    pub localhost: usize,
    /// Sites with LAN-destined traffic.
    pub lan: usize,
    /// Localhost-active sites by classified reason.
    pub by_class: BTreeMap<ReasonClass, usize>,
}

impl AdoptionRow {
    /// Count for one class.
    pub fn class(&self, class: ReasonClass) -> usize {
        self.by_class.get(&class).copied().unwrap_or(0)
    }
}

/// Local-traffic population flow across one consecutive pair.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FlowRow {
    /// Earlier snapshot label.
    pub from: String,
    /// Later snapshot label.
    pub to: String,
    /// Locally active in `to` but not in `from`.
    pub entered: usize,
    /// Locally active in `from` but not in `to`.
    pub exited: usize,
    /// Locally active in both.
    pub persisted: usize,
}

/// The full longitudinal diff over N snapshots.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SnapshotDiff {
    /// Snapshot labels, oldest first.
    pub labels: Vec<String>,
    /// One adoption sample per snapshot.
    pub adoption: Vec<AdoptionRow>,
    /// One churn matrix per consecutive pair.
    pub churn: Vec<TransitionMatrix>,
    /// One flow row per consecutive pair.
    pub flows: Vec<FlowRow>,
    /// Manifest rows decoded (chunk views walked).
    pub rows_walked: u64,
}

/// Diff `labels` (oldest first) with up to `workers` threads — never
/// more than there are shards. Panics if a label is absent from the
/// store.
pub fn diff_snapshots(store: &SnapshotStore, labels: &[&str], workers: usize) -> SnapshotDiff {
    diff_snapshots_traced(store, labels, workers, None)
}

/// [`diff_snapshots`] reporting the rows-walked counter into a trace.
pub fn diff_snapshots_traced(
    store: &SnapshotStore,
    labels: &[&str],
    workers: usize,
    trace: Option<&Trace>,
) -> SnapshotDiff {
    let manifests: Vec<_> = labels
        .iter()
        .map(|l| {
            store
                .manifest(l)
                .unwrap_or_else(|| panic!("snapshot {l:?} not in store"))
        })
        .collect();

    // Workers claim domain-hash shards and fold each shard's domains
    // into a per-shard partial. A domain's rows live in exactly one
    // shard across every manifest, so each worker sees a site's whole
    // timeline and can classify it without cross-worker state.
    // Partials merge into a BTreeMap, erasing claim order.
    let (partials, _) = par_indexed(
        SNAPSHOT_SHARDS,
        workers,
        |_| (),
        |_, shard| walk_shard(store, &manifests, shard),
    );
    let mut timelines: BTreeMap<String, Vec<SiteState>> = BTreeMap::new();
    let mut rows_walked: u64 = 0;
    for (partial, walked) in partials {
        rows_walked += walked;
        timelines.extend(partial);
    }

    let diff = assemble(labels, &manifests, &timelines, rows_walked);
    if let Some(t) = trace {
        t.inc_counter(
            names::LOCAL_OBSERVATIONS_TOTAL,
            Labels::new(&[("crawl", "snapshot-diff")]),
            diff.adoption.iter().map(|r| r.localhost as u64).sum(),
        );
    }
    diff
}

/// Classify every domain of one shard across all manifests. Returns
/// the shard's timelines plus the number of manifest rows decoded.
fn walk_shard(
    store: &SnapshotStore,
    manifests: &[&kt_store::snapshot::SnapshotManifest],
    shard: usize,
) -> (Vec<(String, Vec<SiteState>)>, u64) {
    // Distinct shard domains across every manifest, sorted (BTreeMap
    // keys are sorted already, so a BTreeMap merge keeps determinism).
    let mut domains: BTreeMap<&str, ()> = BTreeMap::new();
    for manifest in manifests {
        for (domain, _) in manifest.entries.keys() {
            if shard_of(domain) == shard {
                domains.insert(domain.as_str(), ());
            }
        }
    }
    let mut walked = 0;
    let partial = domains
        .into_keys()
        .map(|domain| {
            let timeline = manifests
                .iter()
                .map(|manifest| site_state(store, manifest, domain, &mut walked))
                .collect();
            (domain.to_string(), timeline)
        })
        .collect();
    (partial, walked)
}

/// Decode one site's rows in one snapshot and classify them.
fn site_state(
    store: &SnapshotStore,
    manifest: &kt_store::snapshot::SnapshotManifest,
    domain: &str,
    walked: &mut u64,
) -> SiteState {
    let mut listed = false;
    let mut activity: Option<SiteLocalActivity> = None;
    for slot in 0u8..3 {
        let key = (domain.to_string(), slot);
        let Some(entry) = manifest.entries.get(&key) else {
            continue;
        };
        listed = true;
        let Some(bytes) = store.chunk(entry.hash) else {
            continue;
        };
        *walked += 1;
        let Ok(view) = decode_view(&bytes) else {
            continue;
        };
        let os = slot_os(slot).expect("slot in 0..3");
        debug_assert_eq!(view.os, os, "manifest slot disagrees with record OS");
        for obs in detect_local_with_page_view(&view).0 {
            let site = activity.get_or_insert_with(|| SiteLocalActivity {
                domain: domain.to_string(),
                rank: entry.rank,
                malicious_category: obs.malicious_category,
                localhost_os: OsSet::NONE,
                lan_os: OsSet::NONE,
                observations: Vec::new(),
            });
            if obs.locality.is_loopback() {
                site.localhost_os = site.localhost_os.with(obs.os);
            } else if obs.locality.is_private() {
                site.lan_os = site.lan_os.with(obs.os);
            }
            site.observations.push(obs);
        }
    }
    match activity {
        Some(site) => SiteState {
            listed,
            localhost: site.has_localhost(),
            lan: site.has_lan(),
            class: site.has_localhost().then(|| classify_site(&site)),
        },
        None => SiteState { listed, ..UNLISTED },
    }
}

/// Sequential deterministic fold of the merged timelines into tables.
fn assemble(
    labels: &[&str],
    manifests: &[&kt_store::snapshot::SnapshotManifest],
    timelines: &BTreeMap<String, Vec<SiteState>>,
    rows_walked: u64,
) -> SnapshotDiff {
    let mut diff = SnapshotDiff {
        labels: labels.iter().map(|l| l.to_string()).collect(),
        rows_walked,
        ..SnapshotDiff::default()
    };
    for (k, label) in labels.iter().enumerate() {
        let mut row = AdoptionRow {
            label: label.to_string(),
            sites: manifests[k].domains().len(),
            ..AdoptionRow::default()
        };
        for timeline in timelines.values() {
            let state = timeline[k];
            if state.localhost {
                row.localhost += 1;
            }
            if state.lan {
                row.lan += 1;
            }
            if let Some(class) = state.class {
                *row.by_class.entry(class).or_default() += 1;
            }
        }
        diff.adoption.push(row);
    }
    for k in 1..labels.len() {
        let mut matrix = TransitionMatrix::default();
        let mut flow = FlowRow {
            from: labels[k - 1].to_string(),
            to: labels[k].to_string(),
            ..FlowRow::default()
        };
        for timeline in timelines.values() {
            let (a, b) = (timeline[k - 1], timeline[k]);
            match (a.localhost, b.localhost) {
                (true, true) => flow.persisted += 1,
                (true, false) => flow.exited += 1,
                (false, true) => flow.entered += 1,
                (false, false) => {}
            }
            let cell = match (a.class, b.class) {
                (Some(x), Some(y)) if x == y => Some((x, Transition::Carried)),
                (Some(x), Some(_)) => Some((x, Transition::Reclassified)),
                (Some(x), None) => Some((x, Transition::Stopped)),
                (None, Some(y)) => Some((y, Transition::Started)),
                (None, None) => None,
            };
            if let Some((class, transition)) = cell {
                *matrix.counts.entry((class, transition)).or_default() += 1;
                *matrix.totals.entry(transition).or_default() += 1;
            }
        }
        diff.churn.push(matrix);
        diff.flows.push(flow);
    }
    diff
}

impl SnapshotDiff {
    /// Render every table: the adoption curve, the per-pair flows, and
    /// each pair's churn matrix. Byte-identical across worker counts.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("== Local-traffic adoption per snapshot ==\n");
        let mut adoption = TextTable::new([
            "Snapshot",
            "sites",
            "localhost",
            "LAN",
            "fraud detection",
            "bot detection",
            "native app",
            "developer error",
            "unknown",
        ]);
        for row in &self.adoption {
            adoption.row([
                row.label.clone(),
                row.sites.to_string(),
                row.localhost.to_string(),
                row.lan.to_string(),
                row.class(ReasonClass::FraudDetection).to_string(),
                row.class(ReasonClass::BotDetection).to_string(),
                row.class(ReasonClass::NativeApplication).to_string(),
                row.class(ReasonClass::DeveloperError).to_string(),
                row.class(ReasonClass::Unknown).to_string(),
            ]);
        }
        out.push_str(&adoption.render());
        out.push_str("\n== Local-traffic population flow ==\n");
        let mut flows = TextTable::new(["Step", "entered", "exited", "persisted"]);
        for flow in &self.flows {
            flows.row([
                format!("{} -> {}", flow.from, flow.to),
                flow.entered.to_string(),
                flow.exited.to_string(),
                flow.persisted.to_string(),
            ]);
        }
        out.push_str(&flows.render());
        for (k, matrix) in self.churn.iter().enumerate() {
            out.push_str(&format!(
                "\n== Behaviour churn {} -> {} ==\n",
                self.labels[k],
                self.labels[k + 1]
            ));
            out.push_str(&matrix.render());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kt_netbase::{DomainName, Os};
    use kt_store::snapshot::CANONICAL_CRAWL;
    use kt_store::{CrawlId, TelemetryStore};
    use kt_webgen::{Availability, Behavior, DevError, NativeApp, PlantedBehavior, WebSite};
    use proptest::prelude::*;

    /// Crawl a tiny planted population and ingest it as one snapshot.
    fn plant_snapshot(store: &mut SnapshotStore, label: &str, tm: &[&str], dev: &[&str]) {
        use kt_crawler::{run_crawl, CrawlConfig, CrawlJob};
        let mut sites: Vec<WebSite> = Vec::new();
        let mk = |domain: &str| DomainName::parse(domain).unwrap();
        for (i, domain) in tm.iter().enumerate() {
            let mut site = WebSite::plain(mk(domain), None, 2);
            site.behaviors.push(PlantedBehavior {
                behavior: Behavior::ThreatMetrix {
                    vendor: mk("online-metrix.net"),
                },
                os_set: OsSet::ALL,
                base_delay_ms: 5_000 + i as u64,
            });
            site.set_availability_all(Availability::Up);
            sites.push(site);
        }
        for (i, domain) in dev.iter().enumerate() {
            let mut site = WebSite::plain(mk(domain), None, 2);
            site.behaviors.push(PlantedBehavior {
                behavior: Behavior::NativeApp(NativeApp::Discord),
                os_set: OsSet::ALL,
                base_delay_ms: 3_000 + i as u64,
            });
            site.set_availability_all(Availability::Up);
            sites.push(site);
        }
        let jobs: Vec<CrawlJob<'_>> = sites.iter().map(CrawlJob::plain).collect();
        let telemetry = TelemetryStore::new();
        let crawl = CrawlId(label.to_string());
        for os in [Os::Windows, Os::Linux] {
            let cfg = CrawlConfig::paper(crawl.clone(), os, 77);
            run_crawl(&jobs, &cfg, &telemetry);
        }
        for record in telemetry.crawl_records(&crawl) {
            store.ingest(label, &record, None);
        }
    }

    fn two_snapshot_store() -> SnapshotStore {
        let mut store = SnapshotStore::new();
        // snap00: a+b run ThreatMetrix, c runs a native app.
        plant_snapshot(
            &mut store,
            "snap00",
            &["a.example", "b.example"],
            &["c.example"],
        );
        // snap01: b dropped TM (exits), c persists, d enters.
        plant_snapshot(
            &mut store,
            "snap01",
            &["a.example"],
            &["c.example", "d.example"],
        );
        store
    }

    #[test]
    fn diff_finds_adoption_flows_and_churn() {
        let store = two_snapshot_store();
        let diff = diff_snapshots(&store, &["snap00", "snap01"], 2);
        assert_eq!(diff.labels, vec!["snap00", "snap01"]);
        assert_eq!(diff.adoption[0].localhost, 3);
        assert_eq!(diff.adoption[0].class(ReasonClass::FraudDetection), 2);
        assert_eq!(diff.adoption[1].class(ReasonClass::FraudDetection), 1);
        assert_eq!(diff.adoption[1].class(ReasonClass::NativeApplication), 2);
        let flow = &diff.flows[0];
        assert_eq!((flow.entered, flow.exited, flow.persisted), (1, 1, 2));
        let matrix = &diff.churn[0];
        assert_eq!(
            matrix.get(ReasonClass::FraudDetection, Transition::Carried),
            1
        );
        assert_eq!(
            matrix.get(ReasonClass::FraudDetection, Transition::Stopped),
            1
        );
        assert_eq!(
            matrix.get(ReasonClass::NativeApplication, Transition::Started),
            1
        );
        assert!(diff.rows_walked > 0);
    }

    #[test]
    fn linked_rows_diff_identically_to_ingested_rows() {
        // A snapshot built by reference-linking must be
        // indistinguishable from one built by re-ingesting the same
        // records — the incremental path's correctness in miniature.
        let mut ingested = two_snapshot_store();
        plant_snapshot(
            &mut ingested,
            "snap02",
            &["a.example"],
            &["c.example", "d.example"],
        );
        let mut linked = two_snapshot_store();
        for domain in ["a.example", "c.example", "d.example"] {
            for os in [Os::Windows, Os::Linux] {
                assert!(linked.link_from("snap01", "snap02", domain, os, None));
            }
        }
        let labels = ["snap00", "snap01", "snap02"];
        let a = diff_snapshots(&ingested, &labels, 2).render();
        let b = diff_snapshots(&linked, &labels, 2).render();
        assert_eq!(a, b);
    }

    #[test]
    fn diff_is_worker_count_invariant() {
        let store = two_snapshot_store();
        let baseline = diff_snapshots(&store, &["snap00", "snap01"], 1);
        for workers in [2, 4, 8] {
            let diff = diff_snapshots(&store, &["snap00", "snap01"], workers);
            assert_eq!(diff, baseline, "{workers}-worker diff differs");
            assert_eq!(diff.render(), baseline.render());
        }
    }

    #[test]
    fn absurd_worker_counts_are_capped_at_the_shard_count() {
        // `snapshot diff --workers 100000` must run on at most one
        // thread per shard, not one per requested worker, and render
        // the same tables.
        let store = two_snapshot_store();
        let labels = ["snap00", "snap01"];
        assert_eq!(
            diff_snapshots(&store, &labels, 100_000).render(),
            diff_snapshots(&store, &labels, 1).render()
        );
    }

    #[test]
    fn canonical_chunks_decode_under_the_canonical_crawl() {
        // The walker reads canonicalised bytes; sanity-check the crawl
        // id it sees is the canonical one, not a snapshot label.
        let store = two_snapshot_store();
        let bytes = store.get("snap00", "a.example", Os::Windows).unwrap();
        let view = decode_view(&bytes).unwrap();
        assert_eq!(view.crawl, CANONICAL_CRAWL);
        assert_eq!(view.rank, None);
    }

    proptest! {
        #[test]
        fn empty_and_single_label_diffs_are_total(workers in 1usize..9) {
            let store = two_snapshot_store();
            let single = diff_snapshots(&store, &["snap01"], workers);
            prop_assert_eq!(single.churn.len(), 0);
            prop_assert_eq!(single.flows.len(), 0);
            prop_assert_eq!(single.adoption.len(), 1);
            prop_assert_eq!(single.adoption[0].localhost, 3);
        }
    }

    #[test]
    fn dev_error_sites_classify_in_adoption() {
        let mut store = SnapshotStore::new();
        use kt_crawler::{run_crawl, CrawlConfig, CrawlJob};
        let mut site = WebSite::plain(DomainName::parse("lr.example").unwrap(), None, 1);
        site.behaviors.push(PlantedBehavior {
            behavior: Behavior::DevError(DevError::LiveReload {
                scheme: kt_netbase::Scheme::Ws,
                port: 35729,
            }),
            os_set: OsSet::ALL,
            base_delay_ms: 2_000,
        });
        site.set_availability_all(Availability::Up);
        let sites = [site];
        let jobs: Vec<CrawlJob<'_>> = sites.iter().map(CrawlJob::plain).collect();
        let telemetry = TelemetryStore::new();
        let crawl = CrawlId("snap00".to_string());
        let cfg = CrawlConfig::paper(crawl.clone(), Os::Linux, 5);
        run_crawl(&jobs, &cfg, &telemetry);
        for record in telemetry.crawl_records(&crawl) {
            store.ingest("snap00", &record, Some(1));
        }
        let diff = diff_snapshots(&store, &["snap00"], 1);
        assert_eq!(diff.adoption[0].class(ReasonClass::DeveloperError), 1);
    }
}
