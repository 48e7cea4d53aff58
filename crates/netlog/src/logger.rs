//! The logging handle a (simulated) browser writes events through.
//!
//! `NetLogger` owns the serial source-ID counter — Chrome assigns
//! source IDs in creation order, a property the paper's flow grouping
//! depends on — and collects events into a capture.

use crate::capture::Capture;
use crate::constants::{EventPhase, EventType, SourceType};
use crate::event::{EventParams, NetLogEvent, SourceRef, TimeMs};

/// Collects NetLog events during one page visit.
#[derive(Debug, Default)]
pub struct NetLogger {
    events: Vec<NetLogEvent>,
    next_source_id: u64,
}

impl NetLogger {
    /// A fresh logger; source IDs start at 1 (Chrome reserves 0). The
    /// event vector is pre-sized for a loaded page's capture (about 63
    /// events per visit across a crawl), so it grows once at most
    /// instead of six times.
    pub fn new() -> NetLogger {
        NetLogger {
            events: Vec::with_capacity(64),
            next_source_id: 1,
        }
    }

    /// Allocate a new serial source of the given kind.
    pub fn new_source(&mut self, kind: SourceType) -> SourceRef {
        let id = self.next_source_id;
        self.next_source_id += 1;
        SourceRef { id, kind }
    }

    /// Append one event.
    pub fn log(
        &mut self,
        time: TimeMs,
        source: SourceRef,
        event_type: EventType,
        phase: EventPhase,
        params: EventParams,
    ) {
        self.events.push(NetLogEvent {
            time,
            event_type,
            source,
            phase,
            params,
        });
    }

    /// Convenience: log the start of a URL request.
    pub fn log_request_start(
        &mut self,
        time: TimeMs,
        source: SourceRef,
        url: &str,
        initiator: Option<&str>,
    ) {
        self.log(
            time,
            source,
            EventType::RequestAlive,
            EventPhase::Begin,
            EventParams::None,
        );
        self.log(
            time,
            source,
            EventType::UrlRequestStartJob,
            EventPhase::Begin,
            EventParams::UrlRequestStart {
                url: url.to_string(),
                method: "GET".to_string(),
                initiator: initiator.map(str::to_string),
                load_flags: 0,
            },
        );
    }

    /// Convenience: log a terminal failure and close the request.
    #[cfg(test)]
    fn log_failure(&mut self, time: TimeMs, source: SourceRef, error: crate::constants::NetError) {
        self.log(
            time,
            source,
            EventType::FailedRequest,
            EventPhase::None,
            EventParams::Failed {
                net_error: error.code(),
            },
        );
        self.log(
            time,
            source,
            EventType::RequestAlive,
            EventPhase::End,
            EventParams::None,
        );
    }

    /// Convenience: log a response and close the request.
    pub fn log_response(&mut self, time: TimeMs, source: SourceRef, status: u16) {
        self.log(
            time,
            source,
            EventType::HttpTransactionReadHeaders,
            EventPhase::None,
            EventParams::ResponseHeaders { status },
        );
        self.log(
            time,
            source,
            EventType::RequestAlive,
            EventPhase::End,
            EventParams::None,
        );
    }

    /// Events logged so far.
    pub fn events(&self) -> &[NetLogEvent] {
        &self.events
    }

    /// Number of events logged so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing has been logged.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Finish the visit and hand over the capture.
    pub fn into_capture(self) -> Capture {
        Capture::from_events(self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constants::NetError;
    use crate::view::{FlowOutcome, FlowSetView};

    #[test]
    fn source_ids_are_serial_starting_at_one() {
        let mut log = NetLogger::new();
        let a = log.new_source(SourceType::UrlRequest);
        let b = log.new_source(SourceType::WebSocket);
        let c = log.new_source(SourceType::UrlRequest);
        assert_eq!((a.id, b.id, c.id), (1, 2, 3));
    }

    #[test]
    fn convenience_helpers_produce_complete_flows() {
        let mut log = NetLogger::new();
        let ok = log.new_source(SourceType::UrlRequest);
        log.log_request_start(100, ok, "https://a.com/", None);
        log.log_response(150, ok, 200);
        let bad = log.new_source(SourceType::UrlRequest);
        log.log_request_start(110, bad, "http://gone.example/", Some("https://a.com"));
        log.log_failure(120, bad, NetError::NameNotResolved);

        let events = log.into_capture().events;
        let flows = FlowSetView::from_events(events.iter().map(NetLogEvent::view));
        assert_eq!(flows.len(), 2);
        assert_eq!(
            flows.get(ok.id).unwrap().outcome(),
            FlowOutcome::Success(200)
        );
        assert!(flows.get(ok.id).unwrap().is_closed());
        assert_eq!(
            flows.get(bad.id).unwrap().outcome(),
            FlowOutcome::Failed(NetError::NameNotResolved)
        );
    }

    #[test]
    fn capture_round_trip_via_logger() {
        let mut log = NetLogger::new();
        let s = log.new_source(SourceType::UrlRequest);
        log.log_request_start(5, s, "http://localhost:12071/v1/init.json", None);
        log.log_response(9, s, 200);
        assert_eq!(log.len(), 4);
        assert!(!log.is_empty());
        let capture = log.into_capture();
        let parsed = Capture::parse(&capture.to_json()).unwrap();
        assert_eq!(parsed.events, capture.events);
    }
}
