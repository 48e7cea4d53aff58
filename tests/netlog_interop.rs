//! NetLog interoperability: the analysis pipeline must accept capture
//! documents shaped like real `chrome://net-export` output, including
//! material we do not model (extra constants, unknown event types,
//! numeric timestamps, Chrome's own numbering of event and source
//! types) — and our own output must re-parse bit-exactly.

use knock_talk::analysis::detect::detect_local;
use knock_talk::netbase::Os;
use knock_talk::netlog::{Capture, EventType, SourceType};
use knock_talk::store::{CrawlId, LoadOutcome, VisitRecord};

/// A hand-written capture resembling a real Chrome export: one page
/// request, one ThreatMetrix-style WSS probe, one unknown event type,
/// and an event with a numeric (not string) time.
fn chromeish_capture() -> String {
    let url_request_code = EventType::UrlRequestStartJob.code();
    let ws_code = EventType::WebSocketSendRequestHeaders.code();
    let url_source = SourceType::UrlRequest.code();
    let ws_source = SourceType::WebSocket.code();
    format!(
        r#"{{
  "constants": {{
    "logEventTypes": {{"URL_REQUEST_START_JOB": {url_request_code}, "WEBSOCKET_SEND_REQUEST_HEADERS": {ws_code}}},
    "logSourceType": {{"URL_REQUEST": {url_source}, "WEBSOCKET": {ws_source}}},
    "logEventPhase": {{"PHASE_NONE": 0, "PHASE_BEGIN": 1, "PHASE_END": 2}},
    "netError": {{"ERR_NAME_NOT_RESOLVED": -105}},
    "clientInfo": {{"name": "Chrome", "version": "84.0.4147.89"}},
    "activeFieldTrialGroups": []
  }},
  "events": [
    {{"time": "1000", "type": {url_request_code},
      "source": {{"id": 5, "type": {url_source}}}, "phase": 1,
      "params": {{"url": "https://shop.example/", "method": "GET", "load_flags": 0}}}},
    {{"time": 9500, "type": {ws_code},
      "source": {{"id": 6, "type": {ws_source}}}, "phase": 1,
      "params": {{"url": "wss://localhost:3389/"}}}},
    {{"time": "9600", "type": 31337,
      "source": {{"id": 7, "type": {url_source}}}, "phase": 0,
      "params": {{"mystery": true}}}}
  ]
}}"#
    )
}

/// The same three events in a hand-written capture that numbers its
/// types as Chrome does (`URL_REQUEST_START_JOB` is 112, `WEBSOCKET`
/// sources are 11), so they resolve only through its own `constants`.
/// It also ends, as Chrome's do, with a `polledData` object after the
/// events.
const CHROME_NUMBERED: &str = include_str!("data/chrome-numbered.json");

/// Both chromeish inputs.
fn chromeish_inputs() -> [String; 2] {
    [chromeish_capture(), CHROME_NUMBERED.to_string()]
}

#[test]
fn chromeish_document_parses_with_unknowns_skipped() {
    for input in chromeish_inputs() {
        let capture = Capture::parse(&input).unwrap();
        assert_eq!(capture.len(), 2, "two modelled events");
        assert_eq!(capture.skipped, 1, "the unmodelled event is skipped");
        assert!(!capture.truncated);
        // Numeric and string times both accepted.
        assert_eq!(capture.events[0].time, 1_000);
        assert_eq!(capture.events[1].time, 9_500);
        assert_eq!(
            capture.events[1].event_type,
            EventType::WebSocketSendRequestHeaders
        );
        assert_eq!(capture.events[1].source.kind, SourceType::WebSocket);
    }
}

#[test]
fn detection_works_on_chromeish_input() {
    for input in chromeish_inputs() {
        detects_the_probe(Capture::parse(&input).unwrap());
    }
}

fn detects_the_probe(capture: Capture) {
    let record = VisitRecord {
        crawl: CrawlId::top2020(),
        domain: "shop.example".into(),
        rank: Some(104),
        malicious_category: None,
        os: Os::Windows,
        outcome: LoadOutcome::Success,
        loaded_at_ms: 1_000,
        events: capture.events,
    };
    let observations = detect_local(&record);
    assert_eq!(observations.len(), 1);
    let obs = &observations[0];
    assert_eq!(obs.port, 3389);
    assert!(obs.websocket);
    assert_eq!(obs.delay_ms, 8_500, "9.5 s probe minus 1 s page load");
}

#[test]
fn own_output_round_trips_and_carries_constants() {
    for input in chromeish_inputs() {
        let capture = Capture::parse(&input).unwrap();
        let rendered = capture.to_json();
        let reparsed = Capture::parse(&rendered).unwrap();
        assert_eq!(reparsed.events, capture.events);
        // The standard constant tables are embedded in our output.
        assert!(rendered.contains("logEventTypes"));
        assert!(rendered.contains("URL_REQUEST_START_JOB"));
        assert!(rendered.contains("ERR_NAME_NOT_RESOLVED"));
    }
}

#[test]
fn truncated_chromeish_document_recovers() {
    for full in chromeish_inputs() {
        // Cut inside the second event.
        let cut = full.find("wss://localhost").unwrap() + 5;
        let capture = Capture::parse(&full[..cut]).unwrap();
        assert!(capture.truncated);
        assert_eq!(capture.len(), 1, "the complete first event survives");
        assert_eq!(capture.events[0].url(), Some("https://shop.example/"));

        // Cut inside the last event: the probe survives.
        let cut = full.rfind("mystery").unwrap();
        let capture = Capture::parse(&full[..cut]).unwrap();
        assert!(capture.truncated);
        detects_the_probe(capture);
    }
}
