//! Unit tests of flow reconstruction: grouping a capture's events by
//! NetLog source ID (§3.1) with [`FlowSetView`], the one flow builder.

#[cfg(test)]
mod tests {
    use crate::constants::{EventPhase, EventType, NetError, SourceType};
    use crate::event::{EventParams, NetLogEvent, SourceRef, TimeMs};
    use crate::view::{FlowOutcome, FlowSetView};

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

    fn flows(events: &[NetLogEvent]) -> FlowSetView<'_> {
        FlowSetView::from_events(events.iter().map(NetLogEvent::view))
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
        let set = flows(&events);
        assert_eq!(set.len(), 2);
        assert_eq!(set.get(1).unwrap().url(), Some("https://a.com/"));
        assert_eq!(set.get(2).unwrap().url(), Some("http://localhost:4444/"));
    }

    #[test]
    fn events_sorted_by_time_within_flow() {
        let mut events = http_flow_events(1, "https://a.com/", 200);
        events.reverse();
        let set = flows(&events);
        let flow = set.get(1).unwrap();
        let times: Vec<TimeMs> = flow.events().map(|e| e.time).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(flow.start_time(), 100);
        assert_eq!(flow.end_time(), 160);
    }

    #[test]
    fn outcome_success_and_failure() {
        let events = http_flow_events(1, "https://a.com/", 403);
        let set = flows(&events);
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
        let set = flows(&fail);
        assert_eq!(
            set.get(5).unwrap().outcome(),
            FlowOutcome::Failed(NetError::NameNotResolved)
        );
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
        let set = flows(&events);
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
        let set = flows(&events);
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
        let set = flows(&events);
        assert_eq!(
            set.get(7).unwrap().redirects().collect::<Vec<_>>(),
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
        let set = flows(&events);
        assert_eq!(set.len(), 2);
        assert_eq!(set.page_flows().count(), 1);
    }
}
