//! Borrowed event views and clone-free flow reconstruction.
//!
//! "When a new network request is initiated, it is assigned a new
//! source ID (in serial order). Subsequent dependent events (e.g.,
//! responses) are assigned the same source ID, allowing the events
//! within a network flow to be logically grouped together." (§3.1)
//!
//! The paper's pipeline relies on this grouping twice: to reassemble
//! request→response flows, and to *exclude* traffic whose source is the
//! browser itself rather than the page.
//!
//! The view types keep every string a `&str` into the decoder's
//! backing buffer, and [`FlowSetView`] groups flows by sorting one flat
//! vector — the only allocation on the whole path is that vector. It
//! sorts `(event, original index)` pairs with an unstable sort on the
//! full key `(source id, time, index)`: deterministic, allocation-free,
//! and equal to one stable sort of the capture by `(source id, time)`.
//! Runs of equal source ID are the flows, iterated in ascending ID
//! order; within a flow, events are in time order and equal timestamps
//! keep their capture order.

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

/// Borrowed counterpart of [`EventParams`]: same shapes, `&str` fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ParamsView<'a> {
    /// No parameters.
    #[default]
    None,
    /// `URL_REQUEST_START_JOB`: the request line.
    UrlRequestStart {
        /// Full request URL.
        url: &'a str,
        /// HTTP method.
        method: &'a str,
        /// Initiator origin (the document origin), if any.
        initiator: Option<&'a str>,
        /// Load flags (Chrome bitmask; 0 for ordinary loads).
        load_flags: u32,
    },
    /// `URL_REQUEST_REDIRECTED`: where the request is going next.
    Redirect {
        /// The new location.
        location: &'a str,
    },
    /// `HOST_RESOLVER_IMPL_JOB`: the name being resolved.
    DnsJob {
        /// Hostname.
        host: &'a str,
    },
    /// `TCP_CONNECT_ATTEMPT` / `TCP_CONNECT`: the socket address.
    Connect {
        /// `ip:port` string.
        address: &'a str,
    },
    /// `SSL_CONNECT`: TLS parameters.
    Ssl {
        /// Host used for SNI and certificate verification.
        host: &'a str,
    },
    /// Response headers summary.
    ResponseHeaders {
        /// HTTP status code.
        status: u16,
    },
    /// `WEBSOCKET_*` handshake: the socket URL.
    WebSocket {
        /// Full `ws(s)://` URL.
        url: &'a str,
    },
    /// A data frame on an established WebSocket.
    WebSocketFrame {
        /// Payload length in bytes.
        length: u64,
    },
    /// Any terminal failure: the Chrome net error.
    Failed {
        /// Chrome numeric error code (e.g. -105).
        net_error: i32,
    },
    /// `ICE_CANDIDATE_GATHERED`: a WebRTC ICE candidate.
    IceCandidate {
        /// `host:port` of the gathered candidate.
        address: &'a str,
        /// Candidate type string (`host`, `srflx`, `relay`).
        candidate_type: &'a str,
    },
}

impl<'a> ParamsView<'a> {
    /// Convert to the owned form (allocates the strings).
    pub fn to_owned(self) -> EventParams {
        match self {
            ParamsView::None => EventParams::None,
            ParamsView::UrlRequestStart {
                url,
                method,
                initiator,
                load_flags,
            } => EventParams::UrlRequestStart {
                url: url.to_string(),
                method: method.to_string(),
                initiator: initiator.map(str::to_string),
                load_flags,
            },
            ParamsView::Redirect { location } => EventParams::Redirect {
                location: location.to_string(),
            },
            ParamsView::DnsJob { host } => EventParams::DnsJob {
                host: host.to_string(),
            },
            ParamsView::Connect { address } => EventParams::Connect {
                address: address.to_string(),
            },
            ParamsView::Ssl { host } => EventParams::Ssl {
                host: host.to_string(),
            },
            ParamsView::ResponseHeaders { status } => EventParams::ResponseHeaders { status },
            ParamsView::WebSocket { url } => EventParams::WebSocket {
                url: url.to_string(),
            },
            ParamsView::WebSocketFrame { length } => EventParams::WebSocketFrame { length },
            ParamsView::Failed { net_error } => EventParams::Failed { net_error },
            ParamsView::IceCandidate {
                address,
                candidate_type,
            } => EventParams::IceCandidate {
                address: address.to_string(),
                candidate_type: candidate_type.to_string(),
            },
        }
    }
}

impl EventParams {
    /// A borrowed view of these params.
    pub fn view(&self) -> ParamsView<'_> {
        match self {
            EventParams::None => ParamsView::None,
            EventParams::UrlRequestStart {
                url,
                method,
                initiator,
                load_flags,
            } => ParamsView::UrlRequestStart {
                url,
                method,
                initiator: initiator.as_deref(),
                load_flags: *load_flags,
            },
            EventParams::Redirect { location } => ParamsView::Redirect { location },
            EventParams::DnsJob { host } => ParamsView::DnsJob { host },
            EventParams::Connect { address } => ParamsView::Connect { address },
            EventParams::Ssl { host } => ParamsView::Ssl { host },
            EventParams::ResponseHeaders { status } => {
                ParamsView::ResponseHeaders { status: *status }
            }
            EventParams::WebSocket { url } => ParamsView::WebSocket { url },
            EventParams::WebSocketFrame { length } => {
                ParamsView::WebSocketFrame { length: *length }
            }
            EventParams::Failed { net_error } => ParamsView::Failed {
                net_error: *net_error,
            },
            EventParams::IceCandidate {
                address,
                candidate_type,
            } => ParamsView::IceCandidate {
                address,
                candidate_type,
            },
        }
    }
}

/// Borrowed counterpart of [`NetLogEvent`]. `Copy`: moving one around
/// is a few machine words, not a heap traversal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventView<'a> {
    /// Timestamp on the capture clock, in milliseconds.
    pub time: TimeMs,
    /// What happened.
    pub event_type: EventType,
    /// Which flow it belongs to.
    pub source: SourceRef,
    /// Interval bracketing.
    pub phase: EventPhase,
    /// Type-specific details.
    pub params: ParamsView<'a>,
}

impl<'a> EventView<'a> {
    /// Convert to the owned form (allocates the param strings).
    pub fn to_owned(self) -> NetLogEvent {
        NetLogEvent {
            time: self.time,
            event_type: self.event_type,
            source: self.source,
            phase: self.phase,
            params: self.params.to_owned(),
        }
    }
}

impl NetLogEvent {
    /// A borrowed view of this event.
    pub fn view(&self) -> EventView<'_> {
        EventView {
            time: self.time,
            event_type: self.event_type,
            source: self.source,
            phase: self.phase,
            params: self.params.view(),
        }
    }
}

/// One reconstructed flow, borrowing its events from a [`FlowSetView`].
#[derive(Debug, Clone, Copy)]
pub struct FlowView<'s, 'a> {
    /// The shared source reference: the source of the flow's first
    /// event in capture order.
    pub source: SourceRef,
    entries: &'s [(EventView<'a>, u32)],
}

impl<'s, 'a> FlowView<'s, 'a> {
    fn from_run(entries: &'s [(EventView<'a>, u32)]) -> FlowView<'s, 'a> {
        // The first event in capture order is the entry with the
        // smallest original index, not necessarily the first of the
        // (time-sorted) run.
        let source = entries
            .iter()
            .min_by_key(|(_, idx)| *idx)
            .expect("runs are non-empty")
            .0
            .source;
        FlowView { source, entries }
    }

    /// Events of this flow, in time order (stable for equal times).
    pub fn events(&self) -> impl DoubleEndedIterator<Item = &'s EventView<'a>> {
        self.entries.iter().map(|(e, _)| e)
    }

    /// Number of events in this flow.
    pub fn event_count(&self) -> usize {
        self.entries.len()
    }

    /// Timestamp of the first event.
    pub fn start_time(&self) -> TimeMs {
        self.entries.first().map(|(e, _)| e.time).unwrap_or(0)
    }

    /// Timestamp of the last event.
    pub fn end_time(&self) -> TimeMs {
        self.entries.last().map(|(e, _)| e.time).unwrap_or(0)
    }

    /// The request URL: the first `URL_REQUEST_START_JOB` or WebSocket
    /// handshake URL observed in the flow.
    pub fn url(&self) -> Option<&'a str> {
        self.events().find_map(|e| match e.params {
            ParamsView::UrlRequestStart { url, .. } => Some(url),
            ParamsView::WebSocket { url } => Some(url),
            _ => None,
        })
    }

    /// Every redirect location in order, including the final one. The
    /// paper counts sites that *redirect* to a local destination even
    /// though the response can never come back (§3.1).
    pub fn redirects(&self) -> impl Iterator<Item = &'a str> + use<'s, 'a> {
        self.events().filter_map(|e| match e.params {
            ParamsView::Redirect { location } => Some(location),
            _ => None,
        })
    }

    /// Every gathered ICE candidate in order, as `(address,
    /// candidate_type)` pairs. WebRTC surfaces local addresses (raw or
    /// mDNS-obfuscated) through these without any HTTP request — a
    /// second local-discovery channel beside the fetch/WebSocket knocks.
    pub fn ice_candidates(&self) -> impl Iterator<Item = (&'a str, &'a str)> + use<'s, 'a> {
        self.events().filter_map(|e| match e.params {
            ParamsView::IceCandidate {
                address,
                candidate_type,
            } => Some((address, candidate_type)),
            _ => None,
        })
    }

    /// True if this flow is a WebSocket channel.
    pub fn is_websocket(&self) -> bool {
        self.source.kind == SourceType::WebSocket
            || self
                .events()
                .any(|e| matches!(e.event_type, EventType::WebSocketSendRequestHeaders))
    }

    /// Number of WebSocket data frames exchanged (both directions).
    pub fn websocket_frames(&self) -> usize {
        self.events()
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
        for e in self.events().rev() {
            match e.params {
                ParamsView::Failed { net_error } => {
                    if let Some(err) = NetError::from_code(net_error) {
                        return FlowOutcome::Failed(err);
                    }
                }
                ParamsView::ResponseHeaders { status } => {
                    return FlowOutcome::Success(status);
                }
                ParamsView::WebSocket { .. }
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
        self.events().any(|e| {
            e.event_type == EventType::RequestAlive && e.phase == EventPhase::End
                || e.event_type == EventType::SocketClosed
        })
    }
}

/// All flows of a capture, held as one flat vector sorted by source ID
/// and time.
#[derive(Debug, Clone, Default)]
pub struct FlowSetView<'a> {
    /// `(event, original index)` sorted by `(source id, time, index)`.
    /// Runs of equal source ID are the flows.
    entries: Vec<(EventView<'a>, u32)>,
}

impl<'a> FlowSetView<'a> {
    /// Group a capture's events into flows. The single `Vec` below is
    /// the only allocation; the unstable sort on the full key
    /// `(id, time, original index)` keeps equal-time events of one flow
    /// in capture order.
    pub fn from_events<I>(events: I) -> FlowSetView<'a>
    where
        I: IntoIterator<Item = EventView<'a>>,
    {
        let mut entries: Vec<(EventView<'a>, u32)> = events
            .into_iter()
            .enumerate()
            .map(|(idx, e)| (e, idx as u32))
            .collect();
        entries.sort_unstable_by_key(|(e, idx)| (e.source.id, e.time, *idx));
        FlowSetView { entries }
    }

    /// All flows in source-ID order.
    pub fn iter(&self) -> Flows<'_, 'a> {
        Flows {
            rest: &self.entries,
        }
    }

    /// Only flows generated by the page (excludes `BROWSER_INTERNAL`
    /// sources — the filter the paper applies in §3.1).
    pub fn page_flows(&self) -> impl Iterator<Item = FlowView<'_, 'a>> {
        self.iter().filter(|f| f.source.kind.is_page_traffic())
    }

    /// Look up one flow by its source ID.
    pub fn get(&self, source_id: u64) -> Option<FlowView<'_, 'a>> {
        let start = self
            .entries
            .partition_point(|(e, _)| e.source.id < source_id);
        let run = self.entries[start..]
            .iter()
            .take_while(|(e, _)| e.source.id == source_id)
            .count();
        if run == 0 {
            return None;
        }
        Some(FlowView::from_run(&self.entries[start..start + run]))
    }

    /// Number of flows (counts ID runs; O(events)).
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// True if no flows are present.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Iterator over the flows of a [`FlowSetView`], in source-ID order.
#[derive(Debug, Clone)]
pub struct Flows<'s, 'a> {
    rest: &'s [(EventView<'a>, u32)],
}

impl<'s, 'a> Iterator for Flows<'s, 'a> {
    type Item = FlowView<'s, 'a>;

    fn next(&mut self) -> Option<FlowView<'s, 'a>> {
        let (first, _) = self.rest.first()?;
        let id = first.source.id;
        let run = self
            .rest
            .iter()
            .take_while(|(e, _)| e.source.id == id)
            .count();
        let (flow, rest) = self.rest.split_at(run);
        self.rest = rest;
        Some(FlowView::from_run(flow))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The owned reference reconstruction the view is checked against:
    /// every event cloned into a `BTreeMap` keyed by source ID (a stable
    /// partition in capture order), each flow then stably sorted by time.
    #[derive(Debug, Default)]
    struct FlowSet {
        flows: BTreeMap<u64, Flow>,
    }

    /// One owned reference flow: all events sharing one source ID.
    #[derive(Debug)]
    struct Flow {
        /// The source of the first event appended to the flow.
        source: SourceRef,
        events: Vec<NetLogEvent>,
    }

    impl Flow {
        fn start_time(&self) -> TimeMs {
            self.events.first().map(|e| e.time).unwrap_or(0)
        }

        fn end_time(&self) -> TimeMs {
            self.events.last().map(|e| e.time).unwrap_or(0)
        }

        fn url(&self) -> Option<&str> {
            self.events.iter().find_map(|e| match &e.params {
                EventParams::UrlRequestStart { url, .. } => Some(url.as_str()),
                EventParams::WebSocket { url } => Some(url.as_str()),
                _ => None,
            })
        }

        fn redirect_chain(&self) -> Vec<&str> {
            self.events
                .iter()
                .filter_map(|e| match &e.params {
                    EventParams::Redirect { location } => Some(location.as_str()),
                    _ => None,
                })
                .collect()
        }

        fn ice_candidates(&self) -> Vec<(&str, &str)> {
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

        fn is_websocket(&self) -> bool {
            self.source.kind == SourceType::WebSocket
                || self
                    .events
                    .iter()
                    .any(|e| matches!(e.event_type, EventType::WebSocketSendRequestHeaders))
        }

        fn websocket_frames(&self) -> usize {
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

        fn outcome(&self) -> FlowOutcome {
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

        fn is_closed(&self) -> bool {
            self.events.iter().any(|e| {
                e.event_type == EventType::RequestAlive && e.phase == EventPhase::End
                    || e.event_type == EventType::SocketClosed
            })
        }
    }

    impl FlowSet {
        fn from_events(events: impl IntoIterator<Item = NetLogEvent>) -> FlowSet {
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

        fn iter(&self) -> impl Iterator<Item = &Flow> {
            self.flows.values()
        }

        fn page_flows(&self) -> impl Iterator<Item = &Flow> {
            self.iter().filter(|f| f.source.kind.is_page_traffic())
        }

        fn get(&self, source_id: u64) -> Option<&Flow> {
            self.flows.get(&source_id)
        }

        fn len(&self) -> usize {
            self.flows.len()
        }

        fn is_empty(&self) -> bool {
            self.flows.is_empty()
        }
    }

    fn mk(id: u64, kind: SourceType, time: TimeMs, params: EventParams) -> NetLogEvent {
        let event_type = match &params {
            EventParams::UrlRequestStart { .. } => EventType::UrlRequestStartJob,
            EventParams::Redirect { .. } => EventType::UrlRequestRedirected,
            EventParams::ResponseHeaders { .. } => EventType::HttpTransactionReadHeaders,
            EventParams::WebSocket { .. } => EventType::WebSocketSendRequestHeaders,
            EventParams::WebSocketFrame { .. } => EventType::WebSocketRecvFrame,
            EventParams::Failed { .. } => EventType::FailedRequest,
            EventParams::IceCandidate { .. } => EventType::IceCandidateGathered,
            _ => EventType::RequestAlive,
        };
        NetLogEvent {
            time,
            event_type,
            source: SourceRef { id, kind },
            phase: EventPhase::Begin,
            params,
        }
    }

    fn url_start(url: &str) -> EventParams {
        EventParams::UrlRequestStart {
            url: url.into(),
            method: "GET".into(),
            initiator: None,
            load_flags: 0,
        }
    }

    /// Every accessor of every flow must agree between the owned and
    /// borrowed reconstructions of the same event sequence.
    fn assert_equivalent(events: &[NetLogEvent]) {
        let owned = FlowSet::from_events(events.iter().cloned());
        let view = FlowSetView::from_events(events.iter().map(NetLogEvent::view));
        assert_eq!(view.len(), owned.len());
        assert_eq!(view.is_empty(), owned.is_empty());
        for (of, vf) in owned.iter().zip(view.iter()) {
            assert_eq!(vf.source, of.source);
            assert_eq!(vf.event_count(), of.events.len());
            assert_eq!(vf.start_time(), of.start_time());
            assert_eq!(vf.end_time(), of.end_time());
            assert_eq!(vf.url(), of.url());
            assert_eq!(vf.redirects().collect::<Vec<_>>(), of.redirect_chain());
            assert_eq!(vf.ice_candidates().collect::<Vec<_>>(), of.ice_candidates());
            assert_eq!(vf.is_websocket(), of.is_websocket());
            assert_eq!(vf.websocket_frames(), of.websocket_frames());
            assert_eq!(vf.outcome(), of.outcome());
            assert_eq!(vf.is_closed(), of.is_closed());
            let roundtrip: Vec<NetLogEvent> = vf.events().map(|&e| e.to_owned()).collect();
            assert_eq!(roundtrip, of.events);
        }
        for of in owned.iter() {
            let vf = view.get(of.source.id).expect("flow present in view");
            assert_eq!(vf.source, of.source);
            assert_eq!(vf.event_count(), of.events.len());
        }
        assert!(view.get(u64::MAX).is_none() || owned.get(u64::MAX).is_some());
    }

    #[test]
    fn event_view_round_trips() {
        let ev = mk(
            7,
            SourceType::UrlRequest,
            42,
            EventParams::UrlRequestStart {
                url: "wss://localhost:3389/".into(),
                method: "GET".into(),
                initiator: Some("https://ebay.com".into()),
                load_flags: 5,
            },
        );
        assert_eq!(ev.view().to_owned(), ev);
    }

    #[test]
    fn interleaved_flows_group_identically() {
        let events = vec![
            mk(2, SourceType::UrlRequest, 30, url_start("https://b.com/")),
            mk(1, SourceType::UrlRequest, 10, url_start("https://a.com/")),
            mk(
                2,
                SourceType::UrlRequest,
                35,
                EventParams::ResponseHeaders { status: 200 },
            ),
            mk(
                1,
                SourceType::UrlRequest,
                20,
                EventParams::Failed { net_error: -105 },
            ),
            mk(
                3,
                SourceType::WebSocket,
                5,
                EventParams::WebSocket {
                    url: "ws://localhost:6463/?v=1".into(),
                },
            ),
        ];
        assert_equivalent(&events);
    }

    #[test]
    fn equal_timestamps_keep_insertion_order() {
        // Two same-time events in one flow: the stable time sort keeps
        // their original order, and so must the view's full-key sort.
        let events = vec![
            mk(
                1,
                SourceType::UrlRequest,
                10,
                url_start("https://first.com/"),
            ),
            mk(
                1,
                SourceType::UrlRequest,
                10,
                url_start("https://second.com/"),
            ),
            mk(
                1,
                SourceType::UrlRequest,
                10,
                EventParams::ResponseHeaders { status: 204 },
            ),
        ];
        assert_equivalent(&events);
        let view = FlowSetView::from_events(events.iter().map(NetLogEvent::view));
        assert_eq!(view.get(1).unwrap().url(), Some("https://first.com/"));
    }

    #[test]
    fn out_of_order_times_are_sorted_within_flow() {
        let events = vec![
            mk(
                1,
                SourceType::UrlRequest,
                50,
                EventParams::ResponseHeaders { status: 301 },
            ),
            mk(
                1,
                SourceType::UrlRequest,
                10,
                url_start("http://x.example/"),
            ),
            mk(
                1,
                SourceType::UrlRequest,
                60,
                EventParams::Redirect {
                    location: "http://127.0.0.1/".into(),
                },
            ),
        ];
        assert_equivalent(&events);
    }

    #[test]
    fn ice_candidate_flows_group_and_iterate_identically() {
        let events = vec![
            mk(
                4,
                SourceType::P2pSocket,
                12,
                EventParams::IceCandidate {
                    address: "f0ae4f9a-2d4c-4a91.local:9000".into(),
                    candidate_type: "host".into(),
                },
            ),
            mk(
                4,
                SourceType::P2pSocket,
                14,
                EventParams::IceCandidate {
                    address: "192.168.1.20:56100".into(),
                    candidate_type: "host".into(),
                },
            ),
            mk(1, SourceType::UrlRequest, 10, url_start("https://a.com/")),
        ];
        assert_equivalent(&events);
        let view = FlowSetView::from_events(events.iter().map(NetLogEvent::view));
        let flow = view.get(4).unwrap();
        assert_eq!(
            flow.ice_candidates().collect::<Vec<_>>(),
            vec![
                ("f0ae4f9a-2d4c-4a91.local:9000", "host"),
                ("192.168.1.20:56100", "host"),
            ]
        );
        // P2P sockets are page traffic: they must survive the
        // browser-internal filter like URL requests do.
        assert_eq!(view.page_flows().count(), 2);
    }

    #[test]
    fn browser_internal_flows_filtered_like_owned() {
        let events = vec![
            mk(1, SourceType::UrlRequest, 10, url_start("https://a.com/")),
            mk(9, SourceType::BrowserInternal, 5, EventParams::None),
        ];
        let view = FlowSetView::from_events(events.iter().map(NetLogEvent::view));
        assert_eq!(view.len(), 2);
        assert_eq!(view.page_flows().count(), 1);
        assert_equivalent(&events);
    }

    #[test]
    fn empty_set() {
        let view = FlowSetView::from_events(std::iter::empty());
        assert!(view.is_empty());
        assert_eq!(view.len(), 0);
        assert!(view.get(1).is_none());
        assert_equivalent(&[]);
    }

    fn arb_params() -> impl Strategy<Value = (EventType, EventParams)> {
        prop_oneof![
            Just((EventType::RequestAlive, EventParams::None)),
            ("[a-z]{1,8}", "[a-z.]{1,16}").prop_map(|(m, u)| (
                EventType::UrlRequestStartJob,
                EventParams::UrlRequestStart {
                    url: format!("http://{u}/"),
                    method: m.to_uppercase(),
                    initiator: None,
                    load_flags: 0,
                }
            )),
            "[a-z.]{1,20}".prop_map(|h| (
                EventType::HostResolverImplJob,
                EventParams::DnsJob { host: h }
            )),
            (any::<u16>()).prop_map(|s| (
                EventType::HttpTransactionReadHeaders,
                EventParams::ResponseHeaders { status: s }
            )),
            (any::<i16>()).prop_map(|e| (
                EventType::FailedRequest,
                EventParams::Failed {
                    net_error: e as i32
                }
            )),
            (any::<u32>()).prop_map(|l| (
                EventType::WebSocketRecvFrame,
                EventParams::WebSocketFrame { length: l as u64 }
            )),
        ]
    }

    fn arb_event() -> impl Strategy<Value = NetLogEvent> {
        (any::<u32>(), 1u64..10_000, 0u32..6, 0u32..3, arb_params()).prop_map(
            |(time, id, src, phase, (event_type, params))| NetLogEvent {
                time: time as u64,
                event_type,
                source: SourceRef {
                    id,
                    kind: SourceType::from_code(src).unwrap(),
                },
                phase: EventPhase::from_code(phase).unwrap(),
                params,
            },
        )
    }

    proptest! {
        /// The clone-free `FlowSetView` must reconstruct exactly the
        /// flows the owned reference does: same grouping, same order,
        /// same per-flow accessors — on arbitrary interleavings,
        /// duplicate timestamps, and mixed source kinds per ID.
        #[test]
        fn flow_set_view_matches_owned_flow_set(
            events in proptest::collection::vec(arb_event(), 0..60),
        ) {
            let owned = FlowSet::from_events(events.iter().cloned());
            let view = FlowSetView::from_events(events.iter().map(NetLogEvent::view));
            prop_assert_eq!(view.len(), owned.len());
            prop_assert_eq!(view.is_empty(), owned.is_empty());
            prop_assert_eq!(view.page_flows().count(), owned.page_flows().count());
            for (of, vf) in owned.iter().zip(view.iter()) {
                prop_assert_eq!(vf.source, of.source);
                prop_assert_eq!(vf.start_time(), of.start_time());
                prop_assert_eq!(vf.end_time(), of.end_time());
                prop_assert_eq!(vf.url(), of.url());
                prop_assert_eq!(vf.redirects().collect::<Vec<_>>(), of.redirect_chain());
                prop_assert_eq!(vf.is_websocket(), of.is_websocket());
                prop_assert_eq!(vf.websocket_frames(), of.websocket_frames());
                prop_assert_eq!(vf.outcome(), of.outcome());
                prop_assert_eq!(vf.is_closed(), of.is_closed());
                let roundtrip: Vec<NetLogEvent> = vf.events().map(|&e| e.to_owned()).collect();
                prop_assert_eq!(&roundtrip, &of.events);
                let looked_up = view.get(of.source.id).expect("flow present by id");
                prop_assert_eq!(looked_up.event_count(), of.events.len());
            }
        }
    }
}
