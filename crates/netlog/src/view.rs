//! Borrowed event views and clone-free flow reconstruction.
//!
//! The analysis hot path decodes a record, groups its events into
//! flows, and classifies every request URL. The owned types pay for
//! that with a heap `String` per event field and a full event clone per
//! flow insert. The view types here keep every string a `&str` into
//! the decoder's backing buffer and group flows by sorting one flat
//! vector — the only allocation on the whole path is that vector.
//!
//! [`FlowSetView`] reproduces [`FlowSet`](crate::flow::FlowSet)
//! exactly: the owned set groups events into a `BTreeMap` keyed by
//! source ID (a stable partition in insertion order) and then stably
//! sorts each flow by time, which is the same ordering as one stable
//! sort of the flat event sequence by `(source id, time)`. The view
//! sorts `(event, original index)` pairs with an unstable sort on the
//! full key `(source id, time, index)` — deterministic, equal to the
//! stable order, and allocation-free. Runs of equal source ID are the
//! flows, iterated in ascending ID order just like `BTreeMap::values`.

use crate::constants::{EventPhase, EventType, NetError, SourceType};
use crate::event::{EventParams, NetLogEvent, SourceRef, TimeMs};
use crate::flow::FlowOutcome;

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
    /// The shared source reference: as in the owned
    /// [`Flow`](crate::Flow), the source of the first event *appended*
    /// to the flow.
    pub source: SourceRef,
    entries: &'s [(EventView<'a>, u32)],
}

impl<'s, 'a> FlowView<'s, 'a> {
    fn from_run(entries: &'s [(EventView<'a>, u32)]) -> FlowView<'s, 'a> {
        // The owned FlowSet records the source of the first event it
        // saw for this ID; after sorting that is the entry with the
        // smallest original index, not necessarily the first of the run.
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

    /// Every redirect location in order, including the final one.
    /// Unlike the owned `redirect_chain`, no `Vec` is built.
    pub fn redirects(&self) -> impl Iterator<Item = &'a str> + use<'s, 'a> {
        self.events().filter_map(|e| match e.params {
            ParamsView::Redirect { location } => Some(location),
            _ => None,
        })
    }

    /// Every gathered ICE candidate in order, as `(address,
    /// candidate_type)` pairs. Unlike the owned `ice_candidates`, no
    /// `Vec` is built.
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

/// Clone-free counterpart of [`FlowSet`](crate::flow::FlowSet): one
/// flat sorted vector instead of a `BTreeMap` of per-flow vectors.
#[derive(Debug, Clone, Default)]
pub struct FlowSetView<'a> {
    /// `(event, original index)` sorted by `(source id, time, index)`.
    /// Runs of equal source ID are the flows.
    entries: Vec<(EventView<'a>, u32)>,
}

impl<'a> FlowSetView<'a> {
    /// Group a capture's events into flows. The single `Vec` below is
    /// the only allocation; the unstable sort on the full key
    /// `(id, time, original index)` reproduces the owned set's stable
    /// `(insertion partition, time sort)` order exactly.
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
    use crate::flow::FlowSet;

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
}
