//! Flow reconstruction: grouping events by NetLog source ID.
//!
//! "When a new network request is initiated, it is assigned a new
//! source ID (in serial order). Subsequent dependent events (e.g.,
//! responses) are assigned the same source ID, allowing the events
//! within a network flow to be logically grouped together." (§3.1)
//!
//! The paper's pipeline relies on this grouping twice: to reassemble
//! request→response flows, and to *exclude* traffic whose source is the
//! browser itself rather than the page.

use std::collections::BTreeMap;

use crate::constants::{EventPhase, EventType, NetError, SourceType};
use crate::event::{EventParams, NetLogEvent, SourceRef, TimeMs};

/// Terminal state of a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowOutcome {
    /// An HTTP response (status) was read, or a WebSocket handshake
    /// completed.
    Success(u16),
    /// The flow failed with a Chrome net error.
    Failed(NetError),
    /// The capture ended (20-second window) before the flow did.
    InFlight,
}

impl FlowOutcome {
    /// True if the request got a readable terminal response.
    pub fn is_success(self) -> bool {
        matches!(self, FlowOutcome::Success(_))
    }
}

/// A reconstructed network flow: all events sharing one source ID.
#[derive(Debug, Clone, PartialEq)]
pub struct Flow {
    /// The shared source reference.
    pub source: SourceRef,
    /// Events of this flow, in time order.
    pub events: Vec<NetLogEvent>,
}

impl Flow {
    /// Timestamp of the first event.
    pub fn start_time(&self) -> TimeMs {
        self.events.first().map(|e| e.time).unwrap_or(0)
    }

    /// Timestamp of the last event.
    pub fn end_time(&self) -> TimeMs {
        self.events.last().map(|e| e.time).unwrap_or(0)
    }

    /// The request URL: the first `URL_REQUEST_START_JOB` or WebSocket
    /// handshake URL observed in the flow.
    pub fn url(&self) -> Option<&str> {
        self.events.iter().find_map(|e| match &e.params {
            EventParams::UrlRequestStart { url, .. } => Some(url.as_str()),
            EventParams::WebSocket { url } => Some(url.as_str()),
            _ => None,
        })
    }

    /// Every redirect location in order, including the final one. The
    /// paper counts sites that *redirect* to a local destination even
    /// though the response can never come back (§3.1).
    pub fn redirect_chain(&self) -> Vec<&str> {
        self.events
            .iter()
            .filter_map(|e| match &e.params {
                EventParams::Redirect { location } => Some(location.as_str()),
                _ => None,
            })
            .collect()
    }

    /// Every gathered ICE candidate in order, as `(address,
    /// candidate_type)` pairs. WebRTC surfaces local addresses (raw or
    /// mDNS-obfuscated) through these without any HTTP request — a
    /// second local-discovery channel beside the fetch/WebSocket knocks.
    pub fn ice_candidates(&self) -> Vec<(&str, &str)> {
        self.events
            .iter()
            .filter_map(|e| match &e.params {
                EventParams::IceCandidate {
                    address,
                    candidate_type,
                } => Some((address.as_str(), candidate_type.as_str())),
                _ => None,
            })
            .collect()
    }

    /// True if this flow is a WebSocket channel.
    pub fn is_websocket(&self) -> bool {
        self.source.kind == SourceType::WebSocket
            || self
                .events
                .iter()
                .any(|e| matches!(e.event_type, EventType::WebSocketSendRequestHeaders))
    }

    /// Number of WebSocket data frames exchanged (both directions).
    pub fn websocket_frames(&self) -> usize {
        self.events
            .iter()
            .filter(|e| {
                matches!(
                    e.event_type,
                    EventType::WebSocketSentFrame | EventType::WebSocketRecvFrame
                )
            })
            .count()
    }

    /// Terminal outcome of the flow.
    pub fn outcome(&self) -> FlowOutcome {
        // The last failure wins; otherwise the last response header.
        for e in self.events.iter().rev() {
            match &e.params {
                EventParams::Failed { net_error } => {
                    if let Some(err) = NetError::from_code(*net_error) {
                        return FlowOutcome::Failed(err);
                    }
                }
                EventParams::ResponseHeaders { status } => {
                    return FlowOutcome::Success(*status);
                }
                EventParams::WebSocket { .. }
                    if e.event_type == EventType::WebSocketReadResponseHeaders =>
                {
                    return FlowOutcome::Success(101);
                }
                _ => {}
            }
        }
        FlowOutcome::InFlight
    }

    /// True if the flow reached its `REQUEST_ALIVE` END (Chrome closed
    /// the request object).
    pub fn is_closed(&self) -> bool {
        self.events.iter().any(|e| {
            e.event_type == EventType::RequestAlive && e.phase == EventPhase::End
                || e.event_type == EventType::SocketClosed
        })
    }
}

/// All flows of a capture, indexed by source ID.
#[derive(Debug, Clone, Default)]
pub struct FlowSet {
    flows: BTreeMap<u64, Flow>,
}

impl FlowSet {
    /// Group a capture's events into flows. Events within a flow are
    /// sorted by time (stable for equal timestamps).
    pub fn from_events<I>(events: I) -> FlowSet
    where
        I: IntoIterator<Item = NetLogEvent>,
    {
        let mut flows: BTreeMap<u64, Flow> = BTreeMap::new();
        for ev in events {
            flows
                .entry(ev.source.id)
                .or_insert_with(|| Flow {
                    source: ev.source,
                    events: Vec::new(),
                })
                .events
                .push(ev);
        }
        for flow in flows.values_mut() {
            flow.events.sort_by_key(|e| e.time);
        }
        FlowSet { flows }
    }

    /// All flows in source-ID (creation) order.
    pub fn iter(&self) -> impl Iterator<Item = &Flow> {
        self.flows.values()
    }

    /// Only flows generated by the page (excludes `BROWSER_INTERNAL`
    /// sources — the filter the paper applies in §3.1).
    pub fn page_flows(&self) -> impl Iterator<Item = &Flow> {
        self.iter().filter(|f| f.source.kind.is_page_traffic())
    }

    /// Look up one flow by its source ID.
    pub fn get(&self, source_id: u64) -> Option<&Flow> {
        self.flows.get(&source_id)
    }

    /// Number of flows.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// True if no flows are present.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SourceRef;

    fn mk(
        id: u64,
        kind: SourceType,
        time: TimeMs,
        event_type: EventType,
        phase: EventPhase,
        params: EventParams,
    ) -> NetLogEvent {
        NetLogEvent {
            time,
            event_type,
            source: SourceRef { id, kind },
            phase,
            params,
        }
    }

    fn http_flow_events(id: u64, url: &str, status: u16) -> Vec<NetLogEvent> {
        vec![
            mk(
                id,
                SourceType::UrlRequest,
                100,
                EventType::RequestAlive,
                EventPhase::Begin,
                EventParams::None,
            ),
            mk(
                id,
                SourceType::UrlRequest,
                101,
                EventType::UrlRequestStartJob,
                EventPhase::Begin,
                EventParams::UrlRequestStart {
                    url: url.into(),
                    method: "GET".into(),
                    initiator: None,
                    load_flags: 0,
                },
            ),
            mk(
                id,
                SourceType::UrlRequest,
                150,
                EventType::HttpTransactionReadHeaders,
                EventPhase::None,
                EventParams::ResponseHeaders { status },
            ),
            mk(
                id,
                SourceType::UrlRequest,
                160,
                EventType::RequestAlive,
                EventPhase::End,
                EventParams::None,
            ),
        ]
    }

    #[test]
    fn grouping_by_source_id() {
        let mut events = http_flow_events(1, "https://a.com/", 200);
        events.extend(http_flow_events(2, "http://localhost:4444/", 200));
        let set = FlowSet::from_events(events);
        assert_eq!(set.len(), 2);
        assert_eq!(set.get(1).unwrap().url(), Some("https://a.com/"));
        assert_eq!(set.get(2).unwrap().url(), Some("http://localhost:4444/"));
    }

    #[test]
    fn events_sorted_by_time_within_flow() {
        let mut events = http_flow_events(1, "https://a.com/", 200);
        events.reverse();
        let set = FlowSet::from_events(events);
        let flow = set.get(1).unwrap();
        assert!(flow.events.windows(2).all(|w| w[0].time <= w[1].time));
        assert_eq!(flow.start_time(), 100);
        assert_eq!(flow.end_time(), 160);
    }

    #[test]
    fn outcome_success_and_failure() {
        let set = FlowSet::from_events(http_flow_events(1, "https://a.com/", 403));
        assert_eq!(set.get(1).unwrap().outcome(), FlowOutcome::Success(403));

        let fail = vec![
            mk(
                5,
                SourceType::UrlRequest,
                10,
                EventType::UrlRequestStartJob,
                EventPhase::Begin,
                EventParams::UrlRequestStart {
                    url: "http://gone.example/".into(),
                    method: "GET".into(),
                    initiator: None,
                    load_flags: 0,
                },
            ),
            mk(
                5,
                SourceType::UrlRequest,
                12,
                EventType::FailedRequest,
                EventPhase::None,
                EventParams::Failed { net_error: -105 },
            ),
        ];
        let set = FlowSet::from_events(fail);
        assert_eq!(
            set.get(5).unwrap().outcome(),
            FlowOutcome::Failed(NetError::NameNotResolved)
        );
        assert!(!set.get(5).unwrap().outcome().is_success());
    }

    #[test]
    fn in_flight_flow_has_no_outcome() {
        let events = vec![mk(
            9,
            SourceType::UrlRequest,
            10,
            EventType::UrlRequestStartJob,
            EventPhase::Begin,
            EventParams::UrlRequestStart {
                url: "http://slow.example/".into(),
                method: "GET".into(),
                initiator: None,
                load_flags: 0,
            },
        )];
        let set = FlowSet::from_events(events);
        assert_eq!(set.get(9).unwrap().outcome(), FlowOutcome::InFlight);
        assert!(!set.get(9).unwrap().is_closed());
    }

    #[test]
    fn websocket_flow_detection_and_frames() {
        let events = vec![
            mk(
                3,
                SourceType::WebSocket,
                10,
                EventType::WebSocketSendRequestHeaders,
                EventPhase::Begin,
                EventParams::WebSocket {
                    url: "wss://127.0.0.1:3389/".into(),
                },
            ),
            mk(
                3,
                SourceType::WebSocket,
                15,
                EventType::WebSocketReadResponseHeaders,
                EventPhase::End,
                EventParams::WebSocket {
                    url: "wss://127.0.0.1:3389/".into(),
                },
            ),
            mk(
                3,
                SourceType::WebSocket,
                20,
                EventType::WebSocketSentFrame,
                EventPhase::None,
                EventParams::WebSocketFrame { length: 64 },
            ),
            mk(
                3,
                SourceType::WebSocket,
                25,
                EventType::WebSocketRecvFrame,
                EventPhase::None,
                EventParams::WebSocketFrame { length: 128 },
            ),
        ];
        let set = FlowSet::from_events(events);
        let flow = set.get(3).unwrap();
        assert!(flow.is_websocket());
        assert_eq!(flow.websocket_frames(), 2);
        assert_eq!(flow.outcome(), FlowOutcome::Success(101));
        assert_eq!(flow.url(), Some("wss://127.0.0.1:3389/"));
    }

    #[test]
    fn redirect_chain_collection() {
        let events = vec![
            mk(
                7,
                SourceType::UrlRequest,
                10,
                EventType::UrlRequestStartJob,
                EventPhase::Begin,
                EventParams::UrlRequestStart {
                    url: "http://romadecade.example/".into(),
                    method: "GET".into(),
                    initiator: None,
                    load_flags: 0,
                },
            ),
            mk(
                7,
                SourceType::UrlRequest,
                20,
                EventType::UrlRequestRedirected,
                EventPhase::None,
                EventParams::Redirect {
                    location: "http://127.0.0.1/".into(),
                },
            ),
        ];
        let set = FlowSet::from_events(events);
        assert_eq!(
            set.get(7).unwrap().redirect_chain(),
            vec!["http://127.0.0.1/"]
        );
    }

    #[test]
    fn browser_internal_flows_are_filtered() {
        let mut events = http_flow_events(1, "https://a.com/", 200);
        events.push(mk(
            99,
            SourceType::BrowserInternal,
            5,
            EventType::NetworkChangeNotifier,
            EventPhase::None,
            EventParams::None,
        ));
        let set = FlowSet::from_events(events);
        assert_eq!(set.len(), 2);
        assert_eq!(set.page_flows().count(), 1);
    }
}
