//! Whole-capture reading and writing.
//!
//! A capture is the JSON document Chrome's `chrome://net-export`
//! produces: a `constants` object followed by an `events` array.
//! Chrome appends events to the file as they happen, so a browser that
//! is killed mid-crawl (or a 20-second window that expires mid-flight)
//! leaves a file whose `events` array is never closed.
//!
//! [`Capture::parse`] reads a document in one pass. It walks only the
//! top-level punctuation itself and hands every key, the `constants`
//! object and each event to the JSON parser one value at a time, so
//! no tree of the whole document is ever built. A truncated capture
//! keeps every event that ends before the input does instead of being
//! rejected — at crawl scale, losing a whole page visit to a truncated
//! tail would bias the error statistics of Table 1.

use std::fmt;

use serde_json::Value;

use crate::constants::ConstantTables;
use crate::event::NetLogEvent;

/// A parsed or in-construction NetLog capture.
///
/// ```
/// use kt_netlog::Capture;
///
/// let doc = r#"{"constants": {}, "events": [
///   {"time": "5", "type": 1, "source": {"id": 3, "type": 0},
///    "phase": 1, "params": {"url": "http://localhost:4444/", "method": "GET"}}
/// ]}"#;
/// let capture = Capture::parse(doc).unwrap();
/// assert_eq!(capture.len(), 1);
/// assert_eq!(capture.events[0].url(), Some("http://localhost:4444/"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Capture {
    /// The constant tables the events' wire codes were resolved
    /// through: the document's own `constants` when it comes before
    /// `events` and parses, else the standard tables. [`Capture::to_json`]
    /// always writes the standard tables, with the codes they assign.
    pub constants: ConstantTables,
    /// Events in file order (which is time order for Chrome captures).
    pub events: Vec<NetLogEvent>,
    /// Number of wire events skipped because their type, source type
    /// or phase code is not a modelled kind.
    pub skipped: usize,
    /// True if the document is not closed: the read stopped at the
    /// first event, or top-level value after the events, that does not
    /// end before the input does (a torn tail).
    pub truncated: bool,
}

/// Errors when reading a capture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CaptureError {
    /// The document is truncated before any complete event.
    Unparseable(String),
    /// The input never reaches an `events` array.
    MissingEvents,
}

impl fmt::Display for CaptureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CaptureError::Unparseable(msg) => write!(f, "unparseable capture: {msg}"),
            CaptureError::MissingEvents => write!(f, "capture has no events array"),
        }
    }
}

impl std::error::Error for CaptureError {}

impl Capture {
    /// A fresh, empty capture with the standard constant tables.
    pub fn new() -> Capture {
        Capture::from_events(Vec::new())
    }

    /// Build a capture around already-collected events.
    pub fn from_events(events: Vec<NetLogEvent>) -> Capture {
        Capture {
            constants: ConstantTables::standard(),
            events,
            skipped: 0,
            truncated: false,
        }
    }

    /// Serialise to the `chrome://net-export` JSON document, one event
    /// at a time: no tree of the whole document is built.
    pub fn to_json(&self) -> String {
        let tables = serde_json::to_value(&ConstantTables::standard());
        let mut out = format!("{{\"constants\":{tables},\"events\":[");
        for (i, event) in self.events.iter().enumerate() {
            out.push_str(if i == 0 { "" } else { "," });
            out.push_str(&event.to_wire().to_string());
        }
        out + "]}"
    }

    /// Parse a capture document in one pass, keeping every event that
    /// ends before a truncated input does.
    pub fn parse(input: &str) -> Result<Capture, CaptureError> {
        let mut doc = Reader { input, pos: 0 };
        let constants = doc.open_events().ok_or(CaptureError::MissingEvents)?;
        let codes = constants.wire_codes();
        let mut capture = Capture {
            constants,
            events: Vec::new(),
            skipped: 0,
            truncated: false,
        };
        let mut closed = doc.eat(b']');
        while !closed {
            let Some(wire) = doc.value() else { break };
            match NetLogEvent::from_wire(&wire, &codes) {
                Some(event) => capture.events.push(event),
                None => capture.skipped += 1,
            }
            closed = doc.eat(b']');
            if !closed && !doc.eat(b',') {
                break;
            }
        }
        // The rest of the top-level object, read only to see it close.
        while closed && doc.eat(b',') {
            closed = matches!(doc.value(), Some(Value::String(_)))
                && doc.eat(b':')
                && doc.value().is_some();
        }
        capture.truncated = !(closed && doc.eat(b'}') && doc.rest().is_empty());
        if capture.truncated && capture.events.is_empty() && capture.skipped == 0 {
            return Err(CaptureError::Unparseable(
                "no complete events recovered".into(),
            ));
        }
        Ok(capture)
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if the capture holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl Default for Capture {
    fn default() -> Self {
        Capture::new()
    }
}

/// A cursor over a capture document's top level.
struct Reader<'a> {
    input: &'a str,
    pos: usize,
}

impl Reader<'_> {
    /// Read the top level up to and including the `[` that opens the
    /// `events` array. Returns the tables of a `constants` object met
    /// on the way (the standard tables if there is none or it does not
    /// parse), or `None` if the input never reaches the array.
    fn open_events(&mut self) -> Option<ConstantTables> {
        let mut constants = None;
        self.eat(b'{').then_some(())?;
        loop {
            let Value::String(key) = self.value()? else {
                return None;
            };
            self.eat(b':').then_some(())?;
            if key == "events" {
                self.eat(b'[').then_some(())?;
                return Some(constants.unwrap_or_else(ConstantTables::standard));
            }
            let value = self.value()?;
            if key == "constants" {
                constants = serde_json::from_value(value).ok();
            }
            self.eat(b',').then_some(())?;
        }
    }

    /// Skip whitespace and return what is left.
    fn rest(&mut self) -> &str {
        let rest = self.input[self.pos..].trim_start_matches([' ', '\t', '\n', '\r']);
        self.pos = self.input.len() - rest.len();
        rest
    }

    /// Skip whitespace, then consume `punct` if it comes next.
    fn eat(&mut self, punct: u8) -> bool {
        let found = self.rest().as_bytes().first() == Some(&punct);
        self.pos += usize::from(found);
        found
    }

    /// Parse the next JSON value, or `None` if none ends before a
    /// syntax error or the end of the input.
    fn value(&mut self) -> Option<Value> {
        let mut stream = serde_json::Deserializer::from_str(&self.input[self.pos..]).into_iter();
        let value = stream.next()?.ok()?;
        self.pos += stream.byte_offset();
        Some(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constants::{EventPhase, EventType, SourceType};
    use crate::event::{EventParams, SourceRef};

    fn ev(id: u64, time: u64, url: &str) -> NetLogEvent {
        NetLogEvent {
            time,
            event_type: EventType::UrlRequestStartJob,
            source: SourceRef {
                id,
                kind: SourceType::UrlRequest,
            },
            phase: EventPhase::Begin,
            params: EventParams::UrlRequestStart {
                url: url.into(),
                method: "GET".into(),
                initiator: None,
                load_flags: 0,
            },
        }
    }

    #[test]
    fn json_round_trip() {
        let capture = Capture::from_events(vec![
            ev(1, 10, "https://example.com/"),
            ev(2, 20, "wss://127.0.0.1:3389/"),
        ]);
        let text = capture.to_json();
        let parsed = Capture::parse(&text).unwrap();
        assert_eq!(parsed.events, capture.events);
        assert_eq!(parsed.skipped, 0);
        assert!(!parsed.truncated);
        assert_eq!(parsed.constants, ConstantTables::standard());
    }

    #[test]
    fn truncated_capture_recovers_complete_events() {
        // Escapes (`\"`, `\t`, `\u0001`) and multi-byte chars, so cuts
        // land inside escapes and between the bytes of one char.
        let capture = Capture::from_events(vec![
            ev(1, 10, "https://exämple.com/?q=\"}\"\t{"),
            ev(2, 20, "http://localhost:4444/\u{1}\u{1F600}"),
            ev(3, 30, "http://10.0.0.200/x.jpg"),
        ]);
        let text = capture.to_json();
        let array = text.find("\"events\":[").unwrap() + "\"events\":[".len();
        // The offset just past each event's closing `}`.
        let mut ends = Vec::new();
        let mut at = array;
        for event in &capture.events {
            let wire = event.to_wire().to_string();
            at += text[at..].find(&wire).unwrap() + wire.len();
            ends.push(at);
        }
        assert!(text.contains("\\u0001") && text.contains("\\\""));
        for cut in (0..=text.len()).filter(|&cut| text.is_char_boundary(cut)) {
            let result = Capture::parse(&text[..cut]);
            let complete = ends.iter().filter(|&&end| end <= cut).count();
            if cut < array {
                assert_eq!(result, Err(CaptureError::MissingEvents), "cut {cut}");
            } else if complete == 0 {
                assert!(
                    matches!(result, Err(CaptureError::Unparseable(_))),
                    "cut {cut}: {result:?}"
                );
            } else {
                let parsed = result.unwrap();
                assert_eq!(parsed.events, capture.events[..complete], "cut {cut}");
                assert_eq!(parsed.skipped, 0, "cut {cut}");
                assert_eq!(parsed.truncated, cut < text.len(), "cut {cut}");
                assert_eq!(parsed.constants, capture.constants, "cut {cut}");
            }
        }
    }

    #[test]
    fn a_document_that_does_not_close_cleanly_is_truncated() {
        let text = Capture::from_events(vec![ev(1, 10, "https://example.com/")]).to_json();
        let (body, close) = text.split_at(text.len() - 1);
        assert_eq!(close, "}");
        for (doc, truncated) in [
            (format!("{body}, \"polledData\": {{\"x\": [1]}}}}\n"), false),
            (format!("{body}, \"polledData\": {{\"x\": [1]"), true),
            (format!("{body}, \"polledData\" 1}}"), true),
            (format!("{text} trailing"), true),
            (format!("{body}]}}"), true),
        ] {
            let parsed = Capture::parse(&doc).unwrap();
            assert_eq!(parsed.len(), 1, "{doc}");
            assert_eq!(parsed.truncated, truncated, "{doc}");
        }
        // An empty events array that is never closed has nothing to keep.
        let empty = Capture::new().to_json();
        assert!(Capture::parse(&empty).unwrap().is_empty());
        assert!(matches!(
            Capture::parse(&empty[..empty.len() - 1]),
            Err(CaptureError::Unparseable(_))
        ));
    }

    #[test]
    fn constants_before_events_number_the_codes() {
        let mut doc: Value = serde_json::from_str(
            &Capture::from_events(vec![ev(1, 10, "wss://localhost:3389/")]).to_json(),
        )
        .unwrap();
        let mut constants = ConstantTables::standard();
        constants
            .log_event_types
            .insert("URL_REQUEST_START_JOB".into(), 112);
        constants.log_source_type.insert("URL_REQUEST".into(), 9);
        doc["constants"] = serde_json::json!(constants);
        let event = &mut doc["events"].as_array_mut().unwrap()[0];
        event["type"] = serde_json::json!(112);
        event["source"]["type"] = serde_json::json!(9);
        let parsed = Capture::parse(&doc.to_string()).unwrap();
        assert_eq!(parsed.events[0].url(), Some("wss://localhost:3389/"));
        assert_eq!(parsed.constants, constants);
        // Our writer goes back to the standard tables and codes.
        assert_eq!(
            Capture::parse(&parsed.to_json()).unwrap().events,
            parsed.events
        );

        // Tables that do not parse fall back to the standard ones.
        doc["constants"] = serde_json::json!({ "logEventTypes": "?" });
        let parsed = Capture::parse(&doc.to_string()).unwrap();
        assert_eq!((parsed.len(), parsed.skipped), (0, 1));
        assert_eq!(parsed.constants, ConstantTables::standard());
    }

    #[test]
    fn garbage_input_is_an_error() {
        assert!(matches!(
            Capture::parse("not json at all"),
            Err(CaptureError::Unparseable(_)) | Err(CaptureError::MissingEvents)
        ));
        assert_eq!(
            Capture::parse("{\"constants\": {}}"),
            Err(CaptureError::MissingEvents)
        );
    }

    #[test]
    fn unknown_event_types_are_counted_not_fatal() {
        let mut doc: Value = serde_json::from_str(
            &Capture::from_events(vec![ev(1, 10, "https://example.com/")]).to_json(),
        )
        .unwrap();
        doc["events"]
            .as_array_mut()
            .unwrap()
            .push(serde_json::json!({
                "time": "99", "type": 5000,
                "source": {"id": 9, "type": 0}, "phase": 0, "params": {}
            }));
        let parsed = Capture::parse(&doc.to_string()).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed.skipped, 1);
    }

    #[test]
    fn the_streaming_writer_matches_the_whole_tree_rendering() {
        let mut escaped = ev(2, 20, "https://h.exämple/\u{1F600}?q=\"x\"\\y\tz");
        escaped.phase = EventPhase::End;
        let mut bare = ev(3, 30, "");
        bare.params = EventParams::None;
        for events in [
            Vec::new(),
            vec![ev(1, 10, "wss://localhost:3389/")],
            vec![ev(1, 10, "https://example.com/"), escaped, bare],
        ] {
            let capture = Capture::from_events(events);
            let tree = serde_json::json!({
                "constants": ConstantTables::standard(),
                "events": capture.events.iter().map(NetLogEvent::to_wire).collect::<Vec<_>>(),
            });
            assert_eq!(capture.to_json(), tree.to_string());
        }
    }

    #[test]
    fn empty_capture() {
        let c = Capture::new();
        assert!(c.is_empty());
        assert_eq!(c.len(), 0);
        let parsed = Capture::parse(&c.to_json()).unwrap();
        assert!(parsed.is_empty());
    }
}
