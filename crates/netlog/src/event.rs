//! Typed NetLog events and their JSON wire form.
//!
//! Each event carries the four fields the paper's telemetry description
//! enumerates (§3.1): `time`, `type`, `source`, `phase` — plus
//! type-specific `params`. On the wire, `params` is a JSON object with
//! Chrome's key names (`url`, `method`, `net_error`, `address`, …).

use serde_json::{json, Map, Value};

use crate::constants::{EventPhase, EventType, NetError, SourceType, WireCodes};

/// Milliseconds on the capture's virtual clock.
pub type TimeMs = u64;

/// Reference to the source (logical flow) that generated an event.
///
/// Chrome assigns source IDs serially as requests are created;
/// dependent events share the ID, which is what lets the analysis group
/// a flow together and attribute it to the page or the browser.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SourceRef {
    /// Serial source ID.
    pub id: u64,
    /// What kind of entity this source is.
    pub kind: SourceType,
}

/// Typed parameters for each event type we model.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum EventParams {
    /// No parameters.
    #[default]
    None,
    /// `URL_REQUEST_START_JOB`: the request line.
    UrlRequestStart {
        /// Full request URL.
        url: String,
        /// HTTP method.
        method: String,
        /// Initiator origin (the document origin), if any.
        initiator: Option<String>,
        /// Load flags (Chrome bitmask; 0 for ordinary loads).
        load_flags: u32,
    },
    /// `URL_REQUEST_REDIRECTED`: where the request is going next.
    Redirect {
        /// The new location.
        location: String,
    },
    /// `HOST_RESOLVER_IMPL_JOB`: the name being resolved.
    DnsJob {
        /// Hostname.
        host: String,
    },
    /// `TCP_CONNECT_ATTEMPT` / `TCP_CONNECT`: the socket address.
    Connect {
        /// `ip:port` string.
        address: String,
    },
    /// `SSL_CONNECT`: TLS parameters.
    Ssl {
        /// Host used for SNI and certificate verification.
        host: String,
    },
    /// Response headers summary.
    ResponseHeaders {
        /// HTTP status code.
        status: u16,
    },
    /// `WEBSOCKET_*` handshake: the socket URL.
    WebSocket {
        /// Full `ws(s)://` URL.
        url: String,
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
    /// `ICE_CANDIDATE_GATHERED`: a WebRTC ICE candidate surfaced to the
    /// page. `address` is either a raw `ip:port` or an mDNS-obfuscated
    /// `uuid.local:port` pair, per the candidate anonymisation policy.
    IceCandidate {
        /// `host:port` of the gathered candidate.
        address: String,
        /// Candidate type string (`host`, `srflx`, `relay`).
        candidate_type: String,
    },
}

impl EventParams {
    /// Serialise to the wire JSON object (Chrome key names).
    pub fn to_wire(&self) -> Value {
        match self {
            EventParams::None => Value::Object(Map::new()),
            EventParams::UrlRequestStart {
                url,
                method,
                initiator,
                load_flags,
            } => {
                let mut v = json!({ "url": url, "method": method, "load_flags": load_flags });
                if let Some(init) = initiator {
                    v["initiator"] = json!(init);
                }
                v
            }
            EventParams::Redirect { location } => json!({ "location": location }),
            EventParams::DnsJob { host } => json!({ "host": host }),
            EventParams::Connect { address } => json!({ "address": address }),
            EventParams::Ssl { host } => json!({ "host": host }),
            EventParams::ResponseHeaders { status } => json!({ "status": status }),
            EventParams::WebSocket { url } => json!({ "url": url }),
            EventParams::WebSocketFrame { length } => json!({ "length": length }),
            EventParams::Failed { net_error } => json!({ "net_error": net_error }),
            EventParams::IceCandidate {
                address,
                candidate_type,
            } => json!({ "address": address, "candidate_type": candidate_type }),
        }
    }

    /// Parse wire params given the event type that carries them.
    /// An empty (or non-object) params value is `None` regardless of
    /// event type: phase-END events often carry no parameters.
    pub fn from_wire(event_type: EventType, v: &Value) -> EventParams {
        if v.as_object().map(|m| m.is_empty()).unwrap_or(true) {
            return EventParams::None;
        }
        let s = |key: &str| v.get(key).and_then(Value::as_str).map(str::to_string);
        let n = |key: &str| v.get(key).and_then(Value::as_u64);
        match event_type {
            EventType::UrlRequestStartJob => EventParams::UrlRequestStart {
                url: s("url").unwrap_or_default(),
                method: s("method").unwrap_or_else(|| "GET".into()),
                initiator: s("initiator"),
                load_flags: n("load_flags").unwrap_or(0) as u32,
            },
            EventType::UrlRequestRedirected => EventParams::Redirect {
                location: s("location").unwrap_or_default(),
            },
            EventType::HostResolverImplJob => EventParams::DnsJob {
                host: s("host").unwrap_or_default(),
            },
            EventType::TcpConnectAttempt | EventType::TcpConnect => EventParams::Connect {
                address: s("address").unwrap_or_default(),
            },
            EventType::SslConnect => EventParams::Ssl {
                host: s("host").unwrap_or_default(),
            },
            EventType::HttpTransactionReadHeaders => EventParams::ResponseHeaders {
                status: n("status").unwrap_or(0) as u16,
            },
            EventType::WebSocketSendRequestHeaders | EventType::WebSocketReadResponseHeaders => {
                EventParams::WebSocket {
                    url: s("url").unwrap_or_default(),
                }
            }
            EventType::WebSocketSentFrame | EventType::WebSocketRecvFrame => {
                EventParams::WebSocketFrame {
                    length: n("length").unwrap_or(0),
                }
            }
            EventType::FailedRequest => EventParams::Failed {
                net_error: v.get("net_error").and_then(Value::as_i64).unwrap_or(0) as i32,
            },
            EventType::IceCandidateGathered => EventParams::IceCandidate {
                address: s("address").unwrap_or_default(),
                candidate_type: s("candidate_type").unwrap_or_else(|| "host".into()),
            },
            _ => EventParams::None,
        }
    }
}

/// A single NetLog event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetLogEvent {
    /// Timestamp on the capture clock, in milliseconds.
    pub time: TimeMs,
    /// What happened.
    pub event_type: EventType,
    /// Which flow it belongs to.
    pub source: SourceRef,
    /// Interval bracketing.
    pub phase: EventPhase,
    /// Type-specific details.
    pub params: EventParams,
}

impl NetLogEvent {
    /// Serialise to the capture wire format (integer codes, string time
    /// — matching `chrome://net-export` output).
    pub fn to_wire(&self) -> Value {
        json!({
            "time": self.time.to_string(),
            "type": self.event_type.code(),
            "source": { "id": self.source.id, "type": self.source.kind.code() },
            "phase": self.phase.code(),
            "params": self.params.to_wire(),
        })
    }

    /// Parse one wire event, resolving its codes through the capture's
    /// `codes`. Returns `None` for events whose type, source type or
    /// phase code is not a modelled kind (a real Chrome capture contains
    /// hundreds of event types we don't need; skipping unknown ones
    /// matches how the paper's parser stores only the relevant
    /// telemetry).
    pub fn from_wire(v: &Value, codes: &WireCodes) -> Option<NetLogEvent> {
        let time: TimeMs = match v.get("time")? {
            Value::String(s) => s.parse().ok()?,
            Value::Number(n) => n.as_u64()?,
            _ => return None,
        };
        let code = |field: &Value| u32::try_from(field.as_u64()?).ok();
        let event_type = *codes.event_types.get(&code(v.get("type")?)?)?;
        let source_obj = v.get("source")?;
        let source = SourceRef {
            id: source_obj.get("id")?.as_u64()?,
            kind: *codes.source_types.get(&code(source_obj.get("type")?)?)?,
        };
        let phase = *codes.phases.get(&code(v.get("phase")?)?)?;
        let params = v
            .get("params")
            .map(|p| EventParams::from_wire(event_type, p))
            .unwrap_or(EventParams::None);
        Some(NetLogEvent {
            time,
            event_type,
            source,
            phase,
            params,
        })
    }

    /// The request URL carried by this event, if it has one.
    pub fn url(&self) -> Option<&str> {
        match &self.params {
            EventParams::UrlRequestStart { url, .. } => Some(url),
            EventParams::WebSocket { url } => Some(url),
            EventParams::Redirect { location } => Some(location),
            _ => None,
        }
    }

    /// The net error carried by this event, if it is a failure.
    pub fn net_error(&self) -> Option<NetError> {
        match &self.params {
            EventParams::Failed { net_error } => NetError::from_code(*net_error),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constants::ConstantTables;

    fn from_wire(v: &Value) -> Option<NetLogEvent> {
        NetLogEvent::from_wire(v, &ConstantTables::standard().wire_codes())
    }

    fn sample_event() -> NetLogEvent {
        NetLogEvent {
            time: 1234,
            event_type: EventType::UrlRequestStartJob,
            source: SourceRef {
                id: 7,
                kind: SourceType::UrlRequest,
            },
            phase: EventPhase::Begin,
            params: EventParams::UrlRequestStart {
                url: "wss://127.0.0.1:3389/".into(),
                method: "GET".into(),
                initiator: Some("https://ebay.com".into()),
                load_flags: 0,
            },
        }
    }

    #[test]
    fn wire_round_trip_preserves_event() {
        let ev = sample_event();
        let wire = ev.to_wire();
        assert_eq!(wire["time"], "1234");
        assert_eq!(wire["source"]["id"], 7);
        let back = from_wire(&wire).unwrap();
        assert_eq!(back, ev);
    }

    #[test]
    fn wire_round_trip_all_param_shapes() {
        let shapes = vec![
            (EventType::RequestAlive, EventParams::None),
            (
                EventType::UrlRequestRedirected,
                EventParams::Redirect {
                    location: "http://127.0.0.1/".into(),
                },
            ),
            (
                EventType::HostResolverImplJob,
                EventParams::DnsJob {
                    host: "example.com".into(),
                },
            ),
            (
                EventType::TcpConnect,
                EventParams::Connect {
                    address: "10.0.0.200:80".into(),
                },
            ),
            (
                EventType::SslConnect,
                EventParams::Ssl {
                    host: "example.com".into(),
                },
            ),
            (
                EventType::HttpTransactionReadHeaders,
                EventParams::ResponseHeaders { status: 403 },
            ),
            (
                EventType::WebSocketSendRequestHeaders,
                EventParams::WebSocket {
                    url: "ws://localhost:6463/?v=1".into(),
                },
            ),
            (
                EventType::WebSocketRecvFrame,
                EventParams::WebSocketFrame { length: 512 },
            ),
            (
                EventType::FailedRequest,
                EventParams::Failed { net_error: -105 },
            ),
            (
                EventType::IceCandidateGathered,
                EventParams::IceCandidate {
                    address: "f0ae4f9a-2d4c-4a91.local:9000".into(),
                    candidate_type: "host".into(),
                },
            ),
        ];
        for (ty, params) in shapes {
            let ev = NetLogEvent {
                time: 42,
                event_type: ty,
                source: SourceRef {
                    id: 1,
                    kind: SourceType::UrlRequest,
                },
                phase: EventPhase::None,
                params: params.clone(),
            };
            let back = from_wire(&ev.to_wire()).unwrap();
            assert_eq!(back.params, params, "{ty:?}");
        }
    }

    #[test]
    fn numeric_time_is_accepted() {
        let mut wire = sample_event().to_wire();
        wire["time"] = serde_json::json!(1234);
        assert_eq!(from_wire(&wire).unwrap().time, 1234);
    }

    #[test]
    fn unknown_codes_are_skipped() {
        let mut wire = sample_event().to_wire();
        wire["type"] = serde_json::json!(4242);
        assert!(from_wire(&wire).is_none());
        let mut wire = sample_event().to_wire();
        wire["phase"] = serde_json::json!(9);
        assert!(from_wire(&wire).is_none());
    }

    #[test]
    fn missing_params_default_to_none() {
        let mut wire = sample_event().to_wire();
        wire.as_object_mut().unwrap().remove("params");
        let ev = from_wire(&wire).unwrap();
        assert_eq!(ev.params, EventParams::None);
    }

    #[test]
    fn url_accessor() {
        assert_eq!(sample_event().url(), Some("wss://127.0.0.1:3389/"));
        let failed = NetLogEvent {
            time: 0,
            event_type: EventType::FailedRequest,
            source: SourceRef {
                id: 1,
                kind: SourceType::UrlRequest,
            },
            phase: EventPhase::None,
            params: EventParams::Failed { net_error: -105 },
        };
        assert_eq!(failed.url(), None);
        assert_eq!(failed.net_error(), Some(NetError::NameNotResolved));
    }
}
