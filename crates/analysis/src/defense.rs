//! Defense evaluation (§5.3): what would Private Network Access block?
//!
//! The paper closes by endorsing the WICG PNA proposal — local fetches
//! require a secure initiating context plus a CORS preflight opt-in
//! from the local service — and stresses that any defence must
//! *preserve the legitimate native-application use case*. This module
//! replays observed telemetry under the proposal and tabulates, per
//! behaviour class, what survives under different adoption scenarios.

use kt_netbase::pna::{self, AddressSpace, PnaVerdict, PreflightResult};
use kt_netbase::services::is_native_app_port;
use kt_store::VisitRecord;
use std::collections::BTreeMap;

use crate::classify::{classify_site, ReasonClass};
use crate::detect::{aggregate_sites, detect_local_with_page, LocalObservation};
use crate::report::TextTable;

/// Which local services answer the PNA preflight affirmatively.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdoptionScenario {
    /// No local service has been updated yet (the proposal's day one).
    NoOptIn,
    /// Native applications ship the opt-in header; anti-abuse scan
    /// targets (remote-desktop servers, malware) and stale dev servers
    /// do not. The paper's intended steady state.
    NativeAppsOptIn,
    /// Everything opts in (an upper bound — PNA reduced to the secure-
    /// context requirement).
    FullOptIn,
}

impl AdoptionScenario {
    /// All scenarios in presentation order.
    pub const ALL: [AdoptionScenario; 3] = [
        AdoptionScenario::NoOptIn,
        AdoptionScenario::NativeAppsOptIn,
        AdoptionScenario::FullOptIn,
    ];

    /// Label for reports.
    pub fn label(self) -> &'static str {
        match self {
            AdoptionScenario::NoOptIn => "no services opt in",
            AdoptionScenario::NativeAppsOptIn => "native apps opt in",
            AdoptionScenario::FullOptIn => "all services opt in",
        }
    }
}

/// The page's security and address space from its main-document URL
/// (none observed → a public, insecure page).
pub fn page_env(page_url: Option<&kt_netbase::Url>) -> (AddressSpace, bool) {
    match page_url {
        Some(url) => (AddressSpace::of_url(url), url.scheme().is_secure()),
        None => (AddressSpace::Public, false),
    }
}

/// One observation's PNA verdict under one adoption scenario, given
/// the page's `(address space, secure)` context. The unit both the
/// sequential [`evaluate`] and the parallel analysis driver replay —
/// one definition, two schedules.
pub fn verdict_for(
    page: (AddressSpace, bool),
    obs: &LocalObservation,
    scenario: AdoptionScenario,
) -> PnaVerdict {
    let preflight = match scenario {
        AdoptionScenario::NoOptIn => PreflightResult::Denied,
        AdoptionScenario::FullOptIn => PreflightResult::Approved,
        AdoptionScenario::NativeAppsOptIn => {
            if obs.locality.is_loopback() && is_native_app_port(obs.port) {
                PreflightResult::Approved
            } else {
                PreflightResult::Denied
            }
        }
    };
    // WebSockets: PNA gates them identically (a ws(s) URL to a
    // more-private space needs the same opt-in).
    pna::decide(page.0, page.1, &obs.url, preflight)
}

/// Replay one record under PNA; returns (verdict, observation) pairs.
pub fn replay_record(
    record: &VisitRecord,
    scenario: AdoptionScenario,
) -> Vec<(PnaVerdict, LocalObservation)> {
    let (observations, page_url) = detect_local_with_page(record);
    let page = page_env(page_url.as_ref());
    observations
        .into_iter()
        .map(|obs| (verdict_for(page, &obs, scenario), obs))
        .collect()
}

/// Per-class impact: how many *sites* keep at least one permitted local
/// request, and how many are fully silenced.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DefenseImpact {
    /// (reason class, scenario) → (sites unaffected-or-partially-working,
    /// sites fully blocked).
    pub by_class: BTreeMap<(ReasonClass, String), (usize, usize)>,
}

/// Evaluate PNA over a whole crawl's records.
pub fn evaluate(records: &[VisitRecord]) -> DefenseImpact {
    let sites = aggregate_sites(records);
    let class_of: BTreeMap<&str, ReasonClass> = sites
        .iter()
        .map(|s| (s.domain.as_str(), classify_site(s)))
        .collect();
    let mut impact = DefenseImpact::default();
    for scenario in AdoptionScenario::ALL {
        // domain -> any permitted?
        let mut permitted: BTreeMap<String, bool> = BTreeMap::new();
        for record in records {
            let verdicts = replay_record(record, scenario);
            if verdicts.is_empty() {
                continue;
            }
            let entry = permitted.entry(record.domain.clone()).or_insert(false);
            if verdicts.iter().any(|(v, _)| v.permits()) {
                *entry = true;
            }
        }
        for (domain, any_permitted) in &permitted {
            let Some(class) = class_of.get(domain.as_str()) else {
                continue;
            };
            let slot = impact
                .by_class
                .entry((*class, scenario.label().to_string()))
                .or_insert((0, 0));
            if *any_permitted {
                slot.0 += 1;
            } else {
                slot.1 += 1;
            }
        }
    }
    impact
}

impl DefenseImpact {
    /// Render the impact table.
    pub fn render(&self) -> String {
        let mut table = TextTable::new(["Reason", "Scenario", "Still works", "Fully blocked"]);
        for ((class, scenario), (works, blocked)) in &self.by_class {
            table.row([
                class.label().to_string(),
                scenario.clone(),
                works.to_string(),
                blocked.to_string(),
            ]);
        }
        table.render()
    }

    /// Lookup helper: (works, blocked) for one class and scenario.
    pub fn get(&self, class: ReasonClass, scenario: AdoptionScenario) -> (usize, usize) {
        self.by_class
            .get(&(class, scenario.label().to_string()))
            .copied()
            .unwrap_or((0, 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kt_netbase::Os;
    use kt_netlog::{EventParams, EventPhase, EventType, NetLogEvent, SourceRef, SourceType};
    use kt_store::{CrawlId, LoadOutcome};

    fn record(domain: &str, page_url: &str, local_urls: &[(&str, bool)]) -> VisitRecord {
        let mut events = vec![NetLogEvent {
            time: 100,
            event_type: EventType::UrlRequestStartJob,
            source: SourceRef {
                id: 1,
                kind: SourceType::UrlRequest,
            },
            phase: EventPhase::Begin,
            params: EventParams::UrlRequestStart {
                url: page_url.into(),
                method: "GET".into(),
                initiator: None,
                load_flags: 0,
            },
        }];
        for (i, (url, ws)) in local_urls.iter().enumerate() {
            let id = 2 + i as u64;
            if *ws {
                events.push(NetLogEvent {
                    time: 9_000,
                    event_type: EventType::WebSocketSendRequestHeaders,
                    source: SourceRef {
                        id,
                        kind: SourceType::WebSocket,
                    },
                    phase: EventPhase::Begin,
                    params: EventParams::WebSocket {
                        url: url.to_string(),
                    },
                });
            } else {
                events.push(NetLogEvent {
                    time: 3_000,
                    event_type: EventType::UrlRequestStartJob,
                    source: SourceRef {
                        id,
                        kind: SourceType::UrlRequest,
                    },
                    phase: EventPhase::Begin,
                    params: EventParams::UrlRequestStart {
                        url: url.to_string(),
                        method: "GET".into(),
                        initiator: Some(page_url.to_string()),
                        load_flags: 0,
                    },
                });
            }
        }
        VisitRecord {
            crawl: CrawlId::top2020(),
            domain: domain.into(),
            rank: Some(1),
            malicious_category: None,
            os: Os::Windows,
            outcome: LoadOutcome::Success,
            loaded_at_ms: 100,
            events,
        }
    }

    #[test]
    fn insecure_page_blocked_in_every_scenario() {
        let rec = record(
            "http-site.example",
            "http://http-site.example/",
            &[("http://localhost:8888/wp-content/a.jpg", false)],
        );
        for scenario in AdoptionScenario::ALL {
            let verdicts = replay_record(&rec, scenario);
            assert_eq!(verdicts.len(), 1);
            assert_eq!(
                verdicts[0].0,
                PnaVerdict::BlockedInsecureContext,
                "{scenario:?}"
            );
        }
    }

    #[test]
    fn native_app_survives_native_opt_in() {
        let rec = record(
            "invite.example",
            "https://invite.example/",
            &[("ws://localhost:6463/?v=1", true)],
        );
        let v = replay_record(&rec, AdoptionScenario::NativeAppsOptIn);
        assert_eq!(v[0].0, PnaVerdict::Allowed);
        let v = replay_record(&rec, AdoptionScenario::NoOptIn);
        assert_eq!(v[0].0, PnaVerdict::BlockedPreflight);
    }

    #[test]
    fn anti_abuse_scan_blocked_under_native_opt_in() {
        let rec = record(
            "shop.example",
            "https://shop.example/",
            &[
                ("wss://localhost:3389/", true),
                ("wss://localhost:5939/", true),
            ],
        );
        let verdicts = replay_record(&rec, AdoptionScenario::NativeAppsOptIn);
        assert!(verdicts
            .iter()
            .all(|(v, _)| *v == PnaVerdict::BlockedPreflight));
        // Full opt-in (secure context only) lets it through.
        let verdicts = replay_record(&rec, AdoptionScenario::FullOptIn);
        assert!(verdicts.iter().all(|(v, _)| *v == PnaVerdict::Allowed));
    }

    #[test]
    fn evaluate_aggregates_per_class() {
        let records = vec![
            record(
                "invite.example",
                "https://invite.example/",
                &[
                    ("ws://localhost:6463/?v=1", true),
                    ("ws://localhost:6464/?v=1", true),
                ],
            ),
            record(
                "devsite.example",
                "https://devsite.example/",
                &[("http://localhost:35729/livereload.js", false)],
            ),
        ];
        let impact = evaluate(&records);
        let (works, blocked) = impact.get(
            ReasonClass::NativeApplication,
            AdoptionScenario::NativeAppsOptIn,
        );
        assert_eq!((works, blocked), (1, 0), "native app preserved");
        let (works, blocked) = impact.get(
            ReasonClass::DeveloperError,
            AdoptionScenario::NativeAppsOptIn,
        );
        assert_eq!((works, blocked), (0, 1), "dev error silenced");
        let text = impact.render();
        assert!(text.contains("native apps opt in"));
    }
}
