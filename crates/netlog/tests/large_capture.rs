//! A multi-megabyte capture from the writer parses back event for
//! event. The JSON reader copies each unescaped string run as one
//! slice, so this stays linear in the document size; a reader that
//! re-validated the rest of the input per string byte takes minutes.

use kt_netlog::{Capture, EventParams, EventPhase, EventType, NetLogEvent, SourceRef, SourceType};

#[test]
fn multi_megabyte_capture_parses_and_round_trips() {
    // Long URLs with multi-byte characters and characters the writer
    // must escape, so string runs of every kind reach the reader.
    let events: Vec<NetLogEvent> = (0..24_000u64)
        .map(|i| NetLogEvent {
            time: i * 7,
            event_type: EventType::UrlRequestStartJob,
            source: SourceRef {
                id: i + 1,
                kind: SourceType::UrlRequest,
            },
            phase: EventPhase::None,
            params: EventParams::UrlRequestStart {
                url: format!(
                    "https://h{i}.exämple/\u{1F600}/{}?q=\"x\"\\y\tz",
                    "seg/".repeat(16)
                ),
                method: "GET".into(),
                initiator: Some(format!("https://origin-{i}.example")),
                load_flags: i as u32,
            },
        })
        .collect();
    let json = Capture::from_events(events.clone()).to_json();
    assert!(json.len() > 4 << 20, "capture is {} bytes", json.len());
    let parsed = Capture::parse(&json).unwrap();
    assert!(!parsed.truncated && parsed.skipped == 0);
    assert_eq!(parsed.events, events);
}
