//! RQ1 — which requests are locally destined?
//!
//! Detection walks each visit's NetLog flows (grouped by source ID),
//! drops browser-internal sources, and classifies every request URL —
//! including redirect targets, since "websites can send a request to a
//! local resource, even if they can never receive the response"
//! (§3.1). A destination is *localhost* if it is the `localhost` name
//! or a loopback address, and *LAN* if it is in the RFC 1918 /
//! unique-local ranges.

use crate::intern::DomainInterner;
use kt_netbase::{HostView, Locality, Os, OsSet, Scheme, Url, UrlView};
use kt_netlog::FlowSetView;
use kt_store::{VisitRecord, VisitView};
use std::collections::HashMap;

/// One locally-destined request observed in telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalObservation {
    /// Visited site.
    pub domain: String,
    /// Site rank (top-list crawls).
    pub rank: Option<u32>,
    /// Malicious category code, if from the malicious crawl.
    pub malicious_category: Option<u8>,
    /// OS of the crawl that observed it.
    pub os: Os,
    /// The local destination URL.
    pub url: Url,
    /// Scheme (http/https/ws/wss — the Figure 4 axis).
    pub scheme: Scheme,
    /// Destination port.
    pub port: u16,
    /// Path plus query, as the paper tabulates.
    pub path: String,
    /// Loopback or Private.
    pub locality: Locality,
    /// True if the request was a WebSocket connection.
    pub websocket: bool,
    /// True if the local URL was reached via a redirect.
    pub via_redirect: bool,
    /// When the request was first observed, ms on the visit clock.
    pub time_ms: u64,
    /// Delay after the landing page finished loading, ms
    /// (the Figures 5–7 quantity).
    pub delay_ms: u64,
}

/// Split an ICE candidate `host:port` (or `[v6]:port`) address into its
/// host text and port without allocating. Returns `None` when the port
/// is missing or malformed — real candidate lines always carry one.
fn split_ice_address(address: &str) -> Option<(&str, u16)> {
    let colon = if address.starts_with('[') {
        let end = address.find(']')?;
        if !address[end + 1..].starts_with(':') {
            return None;
        }
        end + 1
    } else {
        address.rfind(':')?
    };
    let host = &address[..colon];
    if host.is_empty() {
        return None;
    }
    let port: u16 = address[colon + 1..].parse().ok()?;
    Some((host, port))
}

/// Materialise a [`LocalObservation`] for one already-classified local
/// ICE candidate. The candidate is surfaced as a `ws://` socket URL:
/// WebRTC rendezvous is a socket channel, not an HTTP fetch, and this
/// keeps the knock-request scheme statistics clean.
#[allow(clippy::too_many_arguments)]
fn ice_observation(
    domain: String,
    rank: Option<u32>,
    malicious_category: Option<u8>,
    os: Os,
    address: &str,
    port: u16,
    locality: Locality,
    time_ms: u64,
    loaded_at_ms: u64,
) -> Option<LocalObservation> {
    let url = Url::parse(&format!("ws://{address}/")).ok()?;
    Some(LocalObservation {
        domain,
        rank,
        malicious_category,
        os,
        scheme: url.scheme(),
        port,
        path: url.path_and_query(),
        locality,
        websocket: true,
        via_redirect: false,
        time_ms,
        delay_ms: time_ms.saturating_sub(loaded_at_ms),
        url,
    })
}

/// Extract all local observations from one visit record.
pub fn detect_local(record: &VisitRecord) -> Vec<LocalObservation> {
    detect_local_with_page_view(&record.view()).0
}

/// Detection plus the visit's main-document URL (the first page flow
/// whose direct URL parses) from a single flow reconstruction: the §5.3
/// defense replay needs the page context, and this returns both without
/// walking the events twice.
///
/// Flows are reconstructed over borrowed [`kt_netlog::EventView`]s and
/// every candidate URL is parsed as a borrowed [`UrlView`]. Nothing is
/// copied out of the backing buffer until a URL actually classifies as
/// local (< 1% of requests) or becomes the page URL — only then is an
/// owned [`Url`] materialised.
pub fn detect_local_with_page_view(view: &VisitView<'_>) -> (Vec<LocalObservation>, Option<Url>) {
    let flows = FlowSetView::from_events(view.events.iter().copied());
    let mut out = Vec::new();
    let mut page_url: Option<Url> = None;
    for flow in flows.page_flows() {
        // Direct request URL first, then any redirect targets — all
        // borrowed from the flow's events.
        let direct = flow.url().map(|u| (u, false));
        let candidates = direct
            .into_iter()
            .chain(flow.redirects().map(|loc| (loc, true)));
        for (text, via_redirect) in candidates {
            let Ok(url) = UrlView::parse(text) else {
                continue;
            };
            if page_url.is_none() && !via_redirect {
                page_url = Some(url.to_owned());
            }
            let locality = url.locality();
            if !locality.is_local() {
                continue;
            }
            let url = url.to_owned();
            out.push(LocalObservation {
                domain: view.domain.to_string(),
                rank: view.rank,
                malicious_category: view.malicious_category,
                os: view.os,
                scheme: url.scheme(),
                port: url.port(),
                path: url.path_and_query(),
                locality,
                websocket: flow.is_websocket() || url.scheme().is_websocket(),
                via_redirect,
                time_ms: flow.start_time(),
                delay_ms: flow.start_time().saturating_sub(view.loaded_at_ms),
                url,
            });
        }
        // WebRTC ICE candidates, classified allocation-free: the host
        // text is parsed as a borrowed [`HostView`] and judged by
        // [`Locality::of_host_view`]; nothing is materialised unless
        // the candidate actually classifies as local.
        for (address, _candidate_type) in flow.ice_candidates() {
            let Some((host_text, port)) = split_ice_address(address) else {
                continue;
            };
            let Ok(host) = HostView::parse(host_text) else {
                continue;
            };
            let locality = Locality::of_host_view(&host);
            if !locality.is_local() {
                continue;
            }
            out.extend(ice_observation(
                view.domain.to_string(),
                view.rank,
                view.malicious_category,
                view.os,
                address,
                port,
                locality,
                flow.start_time(),
                view.loaded_at_ms,
            ));
        }
    }
    (out, page_url)
}

/// Per-site aggregation across OS crawls.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteLocalActivity {
    /// The site.
    pub domain: String,
    /// Rank, if any.
    pub rank: Option<u32>,
    /// Malicious category code, if any.
    pub malicious_category: Option<u8>,
    /// OSes with loopback-destined traffic.
    pub localhost_os: OsSet,
    /// OSes with LAN-destined traffic.
    pub lan_os: OsSet,
    /// Every observation, all OSes.
    pub observations: Vec<LocalObservation>,
}

impl SiteLocalActivity {
    /// True if any loopback traffic was seen.
    pub fn has_localhost(&self) -> bool {
        !self.localhost_os.is_empty()
    }

    /// True if any LAN traffic was seen.
    pub fn has_lan(&self) -> bool {
        !self.lan_os.is_empty()
    }

    /// Distinct (scheme, port) pairs observed, sorted.
    pub fn scheme_ports(&self) -> Vec<(Scheme, u16)> {
        let mut v: Vec<(Scheme, u16)> = self
            .observations
            .iter()
            .map(|o| (o.scheme, o.port))
            .collect();
        v.sort();
        v.dedup();
        v
    }

    /// Distinct paths observed, sorted. Allocates one `String` per
    /// observation; classifiers on the hot path should prefer
    /// [`SiteLocalActivity::path_refs`].
    pub fn paths(&self) -> Vec<String> {
        self.path_refs().into_iter().map(str::to_string).collect()
    }

    /// Distinct paths observed, sorted, borrowed from the
    /// observations — the clone-free counterpart of
    /// [`SiteLocalActivity::paths`].
    pub fn path_refs(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.observations.iter().map(|o| o.path.as_str()).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// The earliest local-request delay on one OS, if any (the
    /// Figure 5 sample point for this site).
    pub fn first_delay_on(&self, os: Os, loopback: bool) -> Option<u64> {
        self.observations
            .iter()
            .filter(|o| o.os == os)
            .filter(|o| o.locality.is_loopback() == loopback)
            .map(|o| o.delay_ms)
            .min()
    }
}

/// Aggregate observations from many visit records into per-site
/// activity summaries, sorted by domain.
///
/// Sites are keyed through a [`DomainInterner`] so the per-observation
/// cost is a borrowed hash lookup, not a `String` clone; the domain is
/// copied once per distinct site.
pub fn aggregate_sites(records: &[VisitRecord]) -> Vec<SiteLocalActivity> {
    let mut interner = DomainInterner::new();
    let mut slots: HashMap<crate::intern::Symbol, usize> = HashMap::new();
    let mut sites: Vec<SiteLocalActivity> = Vec::new();
    for record in records {
        for obs in detect_local(record) {
            let sym = interner.intern(&obs.domain);
            let slot = *slots.entry(sym).or_insert_with(|| {
                sites.push(SiteLocalActivity {
                    domain: obs.domain.clone(),
                    rank: obs.rank,
                    malicious_category: obs.malicious_category,
                    localhost_os: OsSet::NONE,
                    lan_os: OsSet::NONE,
                    observations: Vec::new(),
                });
                sites.len() - 1
            });
            let entry = &mut sites[slot];
            if obs.locality.is_loopback() {
                entry.localhost_os = entry.localhost_os.with(obs.os);
            } else if obs.locality.is_private() {
                entry.lan_os = entry.lan_os.with(obs.os);
            }
            entry.observations.push(obs);
        }
    }
    sites.sort_by(|a, b| a.domain.cmp(&b.domain));
    sites
}

#[cfg(test)]
mod tests {
    use super::*;
    use kt_netbase::Host;
    use kt_netlog::{EventParams, EventPhase, EventType, NetLogEvent, SourceRef, SourceType};
    use kt_store::{CrawlId, LoadOutcome};
    use std::collections::BTreeMap;

    /// The owned reference detector [`detect_local_with_page_view`] is
    /// pinned to, byte for byte: every event cloned into a per-source
    /// flow (a `BTreeMap` keyed by source ID, each flow stably sorted by
    /// time), owned candidate strings, and an owned [`Url`] parse for
    /// every URL.
    fn detect_local_with_page_owned(record: &VisitRecord) -> (Vec<LocalObservation>, Option<Url>) {
        let mut flows: BTreeMap<u64, (SourceRef, Vec<NetLogEvent>)> = BTreeMap::new();
        for ev in record.events.iter().cloned() {
            flows
                .entry(ev.source.id)
                .or_insert_with(|| (ev.source, Vec::new()))
                .1
                .push(ev);
        }
        let mut out = Vec::new();
        let mut page_url: Option<Url> = None;
        for (source, events) in flows.values_mut() {
            if !source.kind.is_page_traffic() {
                continue;
            }
            events.sort_by_key(|e| e.time);
            let start_time = events.first().map(|e| e.time).unwrap_or(0);
            let is_websocket = source.kind == SourceType::WebSocket
                || events
                    .iter()
                    .any(|e| e.event_type == EventType::WebSocketSendRequestHeaders);
            // Direct request URL, then every redirect target.
            let mut candidates: Vec<(String, bool)> = Vec::new();
            if let Some(u) = events.iter().find_map(|e| match &e.params {
                EventParams::UrlRequestStart { url, .. } | EventParams::WebSocket { url } => {
                    Some(url.clone())
                }
                _ => None,
            }) {
                candidates.push((u, false));
            }
            for e in events.iter() {
                if let EventParams::Redirect { location } = &e.params {
                    candidates.push((location.clone(), true));
                }
            }
            for (text, via_redirect) in candidates {
                let Ok(url) = Url::parse(&text) else {
                    continue;
                };
                if page_url.is_none() && !via_redirect {
                    page_url = Some(url.clone());
                }
                let locality = url.locality();
                if !locality.is_local() {
                    continue;
                }
                out.push(LocalObservation {
                    domain: record.domain.clone(),
                    rank: record.rank,
                    malicious_category: record.malicious_category,
                    os: record.os,
                    scheme: url.scheme(),
                    port: url.port(),
                    path: url.path_and_query(),
                    locality,
                    websocket: is_websocket || url.scheme().is_websocket(),
                    via_redirect,
                    time_ms: start_time,
                    delay_ms: start_time.saturating_sub(record.loaded_at_ms),
                    url,
                });
            }
            for e in events.iter() {
                let EventParams::IceCandidate { address, .. } = &e.params else {
                    continue;
                };
                let Some((host_text, port)) = split_ice_address(address) else {
                    continue;
                };
                let Ok(host) = Host::parse(host_text) else {
                    continue;
                };
                let locality = Locality::of_host(&host);
                if !locality.is_local() {
                    continue;
                }
                out.extend(ice_observation(
                    record.domain.clone(),
                    record.rank,
                    record.malicious_category,
                    record.os,
                    address,
                    port,
                    locality,
                    start_time,
                    record.loaded_at_ms,
                ));
            }
        }
        (out, page_url)
    }

    fn record_with_events(domain: &str, os: Os, events: Vec<NetLogEvent>) -> VisitRecord {
        VisitRecord {
            crawl: CrawlId::top2020(),
            domain: domain.to_string(),
            rank: Some(104),
            malicious_category: None,
            os,
            outcome: LoadOutcome::Success,
            loaded_at_ms: 400,
            events,
        }
    }

    fn url_request(id: u64, time: u64, url: &str) -> Vec<NetLogEvent> {
        vec![NetLogEvent {
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
        }]
    }

    fn ws_request(id: u64, time: u64, url: &str) -> Vec<NetLogEvent> {
        vec![NetLogEvent {
            time,
            event_type: EventType::WebSocketSendRequestHeaders,
            source: SourceRef {
                id,
                kind: SourceType::WebSocket,
            },
            phase: EventPhase::Begin,
            params: EventParams::WebSocket { url: url.into() },
        }]
    }

    fn ice_candidate(id: u64, time: u64, address: &str) -> Vec<NetLogEvent> {
        vec![NetLogEvent {
            time,
            event_type: EventType::IceCandidateGathered,
            source: SourceRef {
                id,
                kind: SourceType::P2pSocket,
            },
            phase: EventPhase::None,
            params: EventParams::IceCandidate {
                address: address.into(),
                candidate_type: "host".into(),
            },
        }]
    }

    #[test]
    fn detects_loopback_and_lan_not_public() {
        let mut events = url_request(1, 500, "https://cdn.example/lib.js");
        events.extend(url_request(
            2,
            5_400,
            "http://localhost:8888/wp-content/uploads/a.jpg",
        ));
        events.extend(url_request(3, 6_000, "http://10.0.0.200/b.mp4"));
        let record = record_with_events("site.example", Os::Linux, events);
        let obs = detect_local(&record);
        assert_eq!(obs.len(), 2);
        assert!(obs[0].locality.is_loopback());
        assert_eq!(obs[0].delay_ms, 5_000);
        assert!(obs[1].locality.is_private());
        assert_eq!(obs[1].port, 80);
    }

    #[test]
    fn browser_internal_traffic_is_excluded() {
        let events = vec![NetLogEvent {
            time: 100,
            event_type: EventType::UrlRequestStartJob,
            source: SourceRef {
                id: 9,
                kind: SourceType::BrowserInternal,
            },
            phase: EventPhase::Begin,
            params: EventParams::UrlRequestStart {
                url: "http://127.0.0.1:5000/browser-housekeeping".into(),
                method: "GET".into(),
                initiator: None,
                load_flags: 0,
            },
        }];
        let record = record_with_events("site.example", Os::Windows, events);
        assert!(detect_local(&record).is_empty());
    }

    #[test]
    fn websocket_flag_and_scheme() {
        let events = ws_request(1, 9_000, "wss://localhost:3389/");
        let record = record_with_events("shop.example", Os::Windows, events);
        let obs = detect_local(&record);
        assert_eq!(obs.len(), 1);
        assert!(obs[0].websocket);
        assert_eq!(obs[0].scheme, Scheme::Wss);
        assert_eq!(obs[0].port, 3389);
        assert_eq!(obs[0].path, "/");
    }

    #[test]
    fn redirect_targets_count() {
        let mut events = url_request(1, 700, "http://romadecade.example/");
        events.push(NetLogEvent {
            time: 800,
            event_type: EventType::UrlRequestRedirected,
            source: SourceRef {
                id: 1,
                kind: SourceType::UrlRequest,
            },
            phase: EventPhase::None,
            params: EventParams::Redirect {
                location: "http://127.0.0.1/".into(),
            },
        });
        let record = record_with_events("romadecade.example", Os::MacOs, events);
        let obs = detect_local(&record);
        assert_eq!(obs.len(), 1);
        assert!(obs[0].via_redirect);
        assert!(obs[0].locality.is_loopback());
    }

    #[test]
    fn ice_candidates_are_a_second_local_channel() {
        // An mDNS-obfuscated candidate, a raw private-IP candidate, a
        // public srflx candidate, and a malformed one (no port).
        let mut events = ice_candidate(1, 4_400, "f0ae4f9a-2d4c-4a91.local:9000");
        events.extend(ice_candidate(2, 4_500, "192.168.1.20:56100"));
        events.extend(ice_candidate(3, 4_600, "203.0.113.9:56100"));
        events.extend(ice_candidate(4, 4_700, "no-port.local"));
        let record = record_with_events("rtc.example", Os::Linux, events);
        let obs = detect_local(&record);
        assert_eq!(obs.len(), 2);
        // The .local name classifies Private (link-local resolution),
        // same as the raw RFC 1918 address it stands in for.
        assert!(obs[0].locality.is_private());
        assert_eq!(obs[0].port, 9000);
        assert!(obs[0].websocket);
        assert!(!obs[0].via_redirect);
        assert_eq!(obs[0].delay_ms, 4_000);
        assert!(obs[1].locality.is_private());
        assert_eq!(obs[1].port, 56100);
    }

    #[test]
    fn ipv6_loopback_detected() {
        let events = url_request(1, 1_000, "http://[::1]:9000/status");
        let record = record_with_events("v6.example", Os::Linux, events);
        let obs = detect_local(&record);
        assert_eq!(obs.len(), 1);
        assert!(obs[0].locality.is_loopback());
    }

    #[test]
    fn aggregation_merges_oses() {
        let win = record_with_events(
            "multi.example",
            Os::Windows,
            ws_request(1, 9_000, "wss://localhost:3389/"),
        );
        let linux = record_with_events(
            "multi.example",
            Os::Linux,
            url_request(1, 2_000, "http://10.1.2.3/x.png"),
        );
        let sites = aggregate_sites(&[win, linux]);
        assert_eq!(sites.len(), 1);
        let s = &sites[0];
        assert_eq!(s.localhost_os, OsSet::WINDOWS_ONLY);
        assert_eq!(s.lan_os, OsSet::LINUX_ONLY);
        assert!(s.has_localhost() && s.has_lan());
        assert_eq!(s.first_delay_on(Os::Windows, true), Some(8_600));
        assert_eq!(s.first_delay_on(Os::Windows, false), None);
    }

    #[test]
    fn malformed_urls_are_skipped_not_fatal() {
        let events = url_request(1, 1_000, "not a url at all");
        let record = record_with_events("weird.example", Os::Linux, events);
        assert!(detect_local(&record).is_empty());
    }

    #[test]
    fn view_detection_matches_owned_reference_byte_for_byte() {
        let mut events = url_request(1, 500, "https://cdn.example/lib.js");
        events.extend(url_request(
            2,
            5_400,
            "http://LOCALHOST:8888/wp-content/a.jpg",
        ));
        events.extend(url_request(3, 6_000, "http://10.0.0.200/b.mp4"));
        events.extend(ws_request(4, 9_000, "wss://localhost:3389/"));
        events.extend(url_request(5, 1_000, "not a url at all"));
        events.extend(ice_candidate(6, 4_400, "f0ae4f9a-2d4c-4a91.local:9000"));
        events.extend(ice_candidate(7, 4_500, "[::1]:9001"));
        events.extend(ice_candidate(8, 4_600, "203.0.113.9:56100"));
        events.extend(ice_candidate(9, 4_700, "garbage"));
        events.push(NetLogEvent {
            time: 800,
            event_type: EventType::UrlRequestRedirected,
            source: SourceRef {
                id: 1,
                kind: SourceType::UrlRequest,
            },
            phase: EventPhase::None,
            params: EventParams::Redirect {
                location: "http://127.0.0.1/redir?x=1".into(),
            },
        });
        for os in [Os::Windows, Os::Linux] {
            let record = record_with_events("equiv.example", os, events.clone());
            let owned = detect_local_with_page_owned(&record);
            let via_view = detect_local_with_page_view(&record.view());
            assert_eq!(owned.0, detect_local(&record));
            assert_eq!(owned, via_view);
            assert!(!owned.0.is_empty() && owned.1.is_some());
        }
    }

    #[test]
    fn scheme_ports_and_paths_dedup() {
        let mut events = ws_request(1, 1_000, "ws://localhost:6463/?v=1");
        events.extend(ws_request(2, 1_100, "ws://localhost:6463/?v=1"));
        events.extend(ws_request(3, 1_200, "ws://localhost:6464/?v=1"));
        let record = record_with_events("discordy.example", Os::MacOs, events);
        let sites = aggregate_sites(&[record]);
        assert_eq!(
            sites[0].scheme_ports(),
            vec![(Scheme::Ws, 6463), (Scheme::Ws, 6464)]
        );
        assert_eq!(sites[0].paths(), vec!["/?v=1".to_string()]);
    }

    #[test]
    fn request_side_accounting_counts_probes_response_only_misses() {
        // A ThreatMetrix scan: every loopback probe is refused, so an
        // account of only the flows that got a response misses what
        // request-side detection (the paper's accounting) reports.
        use kt_crawler::{run_crawl, CrawlConfig, CrawlJob};
        use kt_netbase::DomainName;
        use kt_netlog::FlowOutcome;
        use kt_store::TelemetryStore;
        use kt_webgen::{Behavior, PlantedBehavior, WebSite};

        let mut site = WebSite::plain(DomainName::parse("shop.example").unwrap(), Some(104), 5);
        site.behaviors.push(PlantedBehavior {
            behavior: Behavior::ThreatMetrix {
                vendor: DomainName::parse("shop-metrics.example").unwrap(),
            },
            os_set: OsSet::WINDOWS_ONLY,
            base_delay_ms: 9_000,
        });
        let store = TelemetryStore::new();
        let config = CrawlConfig::paper(CrawlId::top2020(), Os::Windows, 1);
        run_crawl(&[CrawlJob::plain(&site)], &config, &store);
        let record = store
            .get(&CrawlId::top2020(), "shop.example", Os::Windows)
            .unwrap();

        let request_side = detect_local(&record).len();
        let view = record.view();
        let flows = FlowSetView::from_events(view.events.iter().copied());
        let response_only = flows
            .page_flows()
            .filter(|f| matches!(f.outcome(), FlowOutcome::Success(_)))
            .filter(|f| {
                f.url()
                    .and_then(|u| Url::parse(u).ok())
                    .is_some_and(|u| u.is_local())
            })
            .count();
        assert!(
            request_side > response_only,
            "request-side sees probes ({request_side}) the response-only view misses \
             ({response_only})"
        );
    }
}
