//! A multi-megabyte capture from the writer parses back event for
//! event. The JSON reader copies each unescaped string run as one
//! slice, so this stays linear in the document size; a reader that
//! re-validated the rest of the input per string byte takes minutes.
//! The capture reader holds one event's JSON tree at a time, so its
//! peak heap is the result plus one event, whole or truncated; a
//! reader that builds the whole document's tree first peaks at several
//! times the input. The writer renders one event at a time into its
//! output, so its peak is the output's buffer plus one event; a writer
//! that builds the whole document's tree first peaks near 9x the
//! output.

use kt_netlog::{Capture, EventParams, EventPhase, EventType, NetLogEvent, SourceRef, SourceType};

#[global_allocator]
static HEAP: kt_trace::CountingAllocator = kt_trace::CountingAllocator;

/// Parse `input`, returning the capture and the peak heap the parse
/// held above what was live before it (the result included).
fn parse_with_peak(input: &str) -> (Capture, u64) {
    let before = kt_trace::live_bytes();
    kt_trace::reset_peak_bytes();
    let parsed = Capture::parse(input).unwrap();
    (parsed, kt_trace::peak_bytes() - before)
}

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
    let capture = Capture::from_events(events.clone());
    let before = kt_trace::live_bytes();
    kt_trace::reset_peak_bytes();
    let json = capture.to_json();
    let written_peak = kt_trace::peak_bytes() - before;
    drop(capture);
    assert!(json.len() > 4 << 20, "capture is {} bytes", json.len());
    assert!(
        written_peak <= 3 * json.len() as u64,
        "writer peak heap {written_peak} for {} output bytes",
        json.len()
    );
    let (parsed, peak) = parse_with_peak(&json);
    assert!(!parsed.truncated && parsed.skipped == 0);
    assert_eq!(parsed.events, events);
    assert!(
        peak < 2 * json.len() as u64,
        "peak heap {peak} for {} input bytes",
        json.len()
    );

    // Cut inside the last event, as a killed browser leaves it.
    let cut = &json[..json.len() - 50];
    let (parsed, peak) = parse_with_peak(cut);
    assert!(parsed.truncated);
    assert_eq!(parsed.events, events[..events.len() - 1]);
    assert!(
        peak < 2 * cut.len() as u64,
        "peak heap {peak} for {} input bytes",
        cut.len()
    );
}
