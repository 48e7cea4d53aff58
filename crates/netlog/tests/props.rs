//! Property tests: capture serialisation round-trips and truncation
//! recovery never loses already-complete events.

use kt_netlog::{Capture, EventParams, EventPhase, EventType, NetLogEvent, SourceRef, SourceType};
use proptest::prelude::*;

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
    #[test]
    fn capture_json_round_trip(events in proptest::collection::vec(arb_event(), 0..40)) {
        let capture = Capture::from_events(events.clone());
        let parsed = Capture::parse(&capture.to_json()).unwrap();
        // Failed params with unknown codes still round-trip as raw ints.
        prop_assert_eq!(parsed.events, events);
        prop_assert_eq!(parsed.skipped, 0);
        prop_assert!(!parsed.truncated);
    }

    #[test]
    fn truncation_recovery_is_prefix_monotone(
        events in proptest::collection::vec(arb_event(), 2..20),
        cut_frac in 0.3f64..0.999,
    ) {
        let capture = Capture::from_events(events);
        let text = capture.to_json();
        let cut = (text.len() as f64 * cut_frac) as usize;
        // Don't cut inside the constants header: ensure we're past "events".
        if let Some(events_at) = text.find("\"events\"") {
            let cut = cut.max(events_at + 12).min(text.len());
            if let Ok(parsed) = Capture::parse(&text[..cut]) {
                // Every recovered event must be a prefix of the original list.
                prop_assert!(parsed.events.len() <= capture.events.len());
                for (a, b) in parsed.events.iter().zip(capture.events.iter()) {
                    prop_assert_eq!(a, b);
                }
            }
        }
    }

    #[test]
    fn parser_never_panics_on_arbitrary_input(input in "\\PC{0,400}") {
        let _ = Capture::parse(&input);
    }
}
