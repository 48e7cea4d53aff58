//! Chrome NetLog constant tables.
//!
//! Real NetLog captures encode event types, source types and phases as
//! integers, shipping the name→integer tables in the capture's
//! `constants` object. We model the subset of constants the measurement
//! pipeline touches, using Chrome's actual names and (for `netError`)
//! Chrome's actual numeric values, so that captures we write are
//! recognisable to standard NetLog tooling and captures from a real
//! Chrome can be mapped back losslessly.

use std::collections::{BTreeMap, HashMap};

use serde::{Deserialize, Serialize};

/// NetLog event types (a curated subset of Chrome's `logEventTypes`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EventType {
    /// A URL request object exists; brackets the whole request.
    RequestAlive,
    /// The request job started (has `url`, `method` params).
    UrlRequestStartJob,
    /// The request was redirected (`location` param).
    UrlRequestRedirected,
    /// DNS resolution job.
    HostResolverImplJob,
    /// TCP connect attempt (`address` param).
    TcpConnectAttempt,
    /// TCP connection established or failed.
    TcpConnect,
    /// TLS handshake.
    SslConnect,
    /// HTTP request headers sent.
    HttpTransactionSendRequest,
    /// HTTP response headers received.
    HttpTransactionReadHeaders,
    /// WebSocket handshake initiated (`url` param).
    WebSocketSendRequestHeaders,
    /// WebSocket handshake response.
    WebSocketReadResponseHeaders,
    /// A WebSocket frame was sent.
    WebSocketSentFrame,
    /// A WebSocket frame was received.
    WebSocketRecvFrame,
    /// Socket closed.
    SocketClosed,
    /// Request failed (`net_error` param).
    FailedRequest,
    /// Chrome-internal periodic work (e.g. connectivity probes).
    NetworkChangeNotifier,
    /// A WebRTC ICE candidate was gathered (`address`,
    /// `candidate_type` params). Host candidates carry either a raw
    /// local address or an mDNS-obfuscated `*.local` name.
    IceCandidateGathered,
}

impl EventType {
    /// All modelled event types in constant-table order. New kinds are
    /// appended at the tail: wire codes are positional.
    pub const ALL: [EventType; 17] = [
        EventType::RequestAlive,
        EventType::UrlRequestStartJob,
        EventType::UrlRequestRedirected,
        EventType::HostResolverImplJob,
        EventType::TcpConnectAttempt,
        EventType::TcpConnect,
        EventType::SslConnect,
        EventType::HttpTransactionSendRequest,
        EventType::HttpTransactionReadHeaders,
        EventType::WebSocketSendRequestHeaders,
        EventType::WebSocketReadResponseHeaders,
        EventType::WebSocketSentFrame,
        EventType::WebSocketRecvFrame,
        EventType::SocketClosed,
        EventType::FailedRequest,
        EventType::NetworkChangeNotifier,
        EventType::IceCandidateGathered,
    ];

    /// Chrome-style constant name.
    pub fn name(self) -> &'static str {
        match self {
            EventType::RequestAlive => "REQUEST_ALIVE",
            EventType::UrlRequestStartJob => "URL_REQUEST_START_JOB",
            EventType::UrlRequestRedirected => "URL_REQUEST_REDIRECTED",
            EventType::HostResolverImplJob => "HOST_RESOLVER_IMPL_JOB",
            EventType::TcpConnectAttempt => "TCP_CONNECT_ATTEMPT",
            EventType::TcpConnect => "TCP_CONNECT",
            EventType::SslConnect => "SSL_CONNECT",
            EventType::HttpTransactionSendRequest => "HTTP_TRANSACTION_SEND_REQUEST",
            EventType::HttpTransactionReadHeaders => "HTTP_TRANSACTION_READ_HEADERS",
            EventType::WebSocketSendRequestHeaders => "WEBSOCKET_SEND_REQUEST_HEADERS",
            EventType::WebSocketReadResponseHeaders => "WEBSOCKET_READ_RESPONSE_HEADERS",
            EventType::WebSocketSentFrame => "WEBSOCKET_SENT_FRAME",
            EventType::WebSocketRecvFrame => "WEBSOCKET_RECV_FRAME",
            EventType::SocketClosed => "SOCKET_CLOSED",
            EventType::FailedRequest => "FAILED_REQUEST",
            EventType::NetworkChangeNotifier => "NETWORK_CHANGE_NOTIFIER",
            EventType::IceCandidateGathered => "ICE_CANDIDATE_GATHERED",
        }
    }

    /// Integer code used on the wire (index in the constant table).
    pub fn code(self) -> u32 {
        EventType::ALL
            .iter()
            .position(|t| *t == self)
            .expect("in ALL") as u32
    }

    /// Reverse lookup from a wire code.
    pub fn from_code(code: u32) -> Option<EventType> {
        EventType::ALL.get(code as usize).copied()
    }
}

/// NetLog source types — the entity that generated an event. The paper
/// filters out browser-generated traffic "based on the network event
/// source" (§3.1); source types are how that filter works.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SourceType {
    /// A URL request initiated by renderer (page) activity.
    UrlRequest,
    /// A raw socket.
    Socket,
    /// A DNS resolution job.
    HostResolverImplJob,
    /// A WebSocket channel.
    WebSocket,
    /// Browser-internal activity (omnibox suggestions, update pings,
    /// connectivity probes…). Excluded from website accounting.
    BrowserInternal,
    /// No associated source (global events).
    None,
    /// A WebRTC peer-connection socket gathering ICE candidates.
    /// Page-initiated, like `UrlRequest` and `WebSocket`.
    P2pSocket,
}

impl SourceType {
    /// All modelled source types in constant-table order. New kinds
    /// are appended at the tail: wire codes are positional.
    pub const ALL: [SourceType; 7] = [
        SourceType::UrlRequest,
        SourceType::Socket,
        SourceType::HostResolverImplJob,
        SourceType::WebSocket,
        SourceType::BrowserInternal,
        SourceType::None,
        SourceType::P2pSocket,
    ];

    /// Chrome-style constant name.
    pub fn name(self) -> &'static str {
        match self {
            SourceType::UrlRequest => "URL_REQUEST",
            SourceType::Socket => "SOCKET",
            SourceType::HostResolverImplJob => "HOST_RESOLVER_IMPL_JOB",
            SourceType::WebSocket => "WEBSOCKET",
            SourceType::BrowserInternal => "BROWSER_INTERNAL",
            SourceType::None => "NONE",
            SourceType::P2pSocket => "P2P_SOCKET",
        }
    }

    /// Integer code used on the wire.
    pub fn code(self) -> u32 {
        SourceType::ALL
            .iter()
            .position(|t| *t == self)
            .expect("in ALL") as u32
    }

    /// Reverse lookup from a wire code.
    pub fn from_code(code: u32) -> Option<SourceType> {
        SourceType::ALL.get(code as usize).copied()
    }

    /// True for sources that represent page-visible network activity
    /// (as opposed to the browser's own housekeeping traffic).
    pub fn is_page_traffic(self) -> bool {
        matches!(
            self,
            SourceType::UrlRequest
                | SourceType::WebSocket
                | SourceType::Socket
                | SourceType::P2pSocket
        )
    }
}

/// Event phase: `BEGIN`/`END` bracket an interval, `NONE` is a point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventPhase {
    /// Point event.
    None,
    /// Interval start.
    Begin,
    /// Interval end.
    End,
}

impl EventPhase {
    /// All phases in wire-code order.
    pub const ALL: [EventPhase; 3] = [EventPhase::None, EventPhase::Begin, EventPhase::End];

    /// Chrome-style constant name.
    pub fn name(self) -> &'static str {
        match self {
            EventPhase::None => "PHASE_NONE",
            EventPhase::Begin => "PHASE_BEGIN",
            EventPhase::End => "PHASE_END",
        }
    }

    /// Wire code (Chrome uses 0/1/2 in this order).
    pub fn code(self) -> u32 {
        match self {
            EventPhase::None => 0,
            EventPhase::Begin => 1,
            EventPhase::End => 2,
        }
    }

    /// Reverse lookup from a wire code.
    pub fn from_code(code: u32) -> Option<EventPhase> {
        match code {
            0 => Some(EventPhase::None),
            1 => Some(EventPhase::Begin),
            2 => Some(EventPhase::End),
            _ => None,
        }
    }
}

/// Chrome `net_error` codes, with Chrome's real numeric values.
///
/// Table 1 of the paper breaks crawl failures down by exactly these
/// errors (plus an "Others" bucket).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NetError {
    /// `net::OK` — no error.
    Ok,
    /// `ERR_CONNECTION_RESET` (-101).
    ConnectionReset,
    /// `ERR_CONNECTION_REFUSED` (-102).
    ConnectionRefused,
    /// `ERR_NAME_NOT_RESOLVED` (-105).
    NameNotResolved,
    /// `ERR_TIMED_OUT` (-7).
    TimedOut,
    /// `ERR_CERT_COMMON_NAME_INVALID` (-200).
    CertCommonNameInvalid,
    /// `ERR_CERT_DATE_INVALID` (-201).
    CertDateInvalid,
    /// `ERR_CERT_AUTHORITY_INVALID` (-202).
    CertAuthorityInvalid,
    /// `ERR_SSL_PROTOCOL_ERROR` (-107).
    SslProtocolError,
    /// `ERR_EMPTY_RESPONSE` (-324).
    EmptyResponse,
    /// `ERR_ABORTED` (-3) — e.g. the 20-second window closed first.
    Aborted,
}

impl NetError {
    /// All modelled error codes.
    pub const ALL: [NetError; 11] = [
        NetError::Ok,
        NetError::ConnectionReset,
        NetError::ConnectionRefused,
        NetError::NameNotResolved,
        NetError::TimedOut,
        NetError::CertCommonNameInvalid,
        NetError::CertDateInvalid,
        NetError::CertAuthorityInvalid,
        NetError::SslProtocolError,
        NetError::EmptyResponse,
        NetError::Aborted,
    ];

    /// Chrome's numeric code.
    pub fn code(self) -> i32 {
        match self {
            NetError::Ok => 0,
            NetError::ConnectionReset => -101,
            NetError::ConnectionRefused => -102,
            NetError::NameNotResolved => -105,
            NetError::TimedOut => -7,
            NetError::CertCommonNameInvalid => -200,
            NetError::CertDateInvalid => -201,
            NetError::CertAuthorityInvalid => -202,
            NetError::SslProtocolError => -107,
            NetError::EmptyResponse => -324,
            NetError::Aborted => -3,
        }
    }

    /// Chrome's constant name.
    pub fn name(self) -> &'static str {
        match self {
            NetError::Ok => "OK",
            NetError::ConnectionReset => "ERR_CONNECTION_RESET",
            NetError::ConnectionRefused => "ERR_CONNECTION_REFUSED",
            NetError::NameNotResolved => "ERR_NAME_NOT_RESOLVED",
            NetError::TimedOut => "ERR_TIMED_OUT",
            NetError::CertCommonNameInvalid => "ERR_CERT_COMMON_NAME_INVALID",
            NetError::CertDateInvalid => "ERR_CERT_DATE_INVALID",
            NetError::CertAuthorityInvalid => "ERR_CERT_AUTHORITY_INVALID",
            NetError::SslProtocolError => "ERR_SSL_PROTOCOL_ERROR",
            NetError::EmptyResponse => "ERR_EMPTY_RESPONSE",
            NetError::Aborted => "ERR_ABORTED",
        }
    }

    /// Reverse lookup from Chrome's numeric code.
    pub fn from_code(code: i32) -> Option<NetError> {
        NetError::ALL.iter().copied().find(|e| e.code() == code)
    }

    /// True if this value represents a failure.
    pub fn is_error(self) -> bool {
        self != NetError::Ok
    }
}

/// The `constants` object of a capture, as name→code tables.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConstantTables {
    /// Event type name → code.
    #[serde(rename = "logEventTypes")]
    pub log_event_types: BTreeMap<String, u32>,
    /// Source type name → code.
    #[serde(rename = "logSourceType")]
    pub log_source_type: BTreeMap<String, u32>,
    /// Phase name → code.
    #[serde(rename = "logEventPhase")]
    pub log_event_phase: BTreeMap<String, u32>,
    /// Error name → numeric code.
    #[serde(rename = "netError")]
    pub net_error: BTreeMap<String, i32>,
}

impl ConstantTables {
    /// The tables for everything this crate models.
    pub fn standard() -> ConstantTables {
        ConstantTables {
            log_event_types: EventType::ALL
                .iter()
                .map(|t| (t.name().to_string(), t.code()))
                .collect(),
            log_source_type: SourceType::ALL
                .iter()
                .map(|t| (t.name().to_string(), t.code()))
                .collect(),
            log_event_phase: EventPhase::ALL
                .iter()
                .map(|p| (p.name().to_string(), p.code()))
                .collect(),
            net_error: NetError::ALL
                .iter()
                .map(|e| (e.name().to_string(), e.code()))
                .collect(),
        }
    }

    /// The wire-code lookups these tables define for the modelled
    /// kinds, matched by name. A modelled name missing from a table
    /// has no code, so its events are skipped.
    pub fn wire_codes(&self) -> WireCodes {
        fn by_name<K: Copy>(
            table: &BTreeMap<String, u32>,
            kinds: &[K],
            name: fn(K) -> &'static str,
        ) -> HashMap<u32, K> {
            kinds
                .iter()
                .filter_map(|&kind| Some((*table.get(name(kind))?, kind)))
                .collect()
        }
        WireCodes {
            event_types: by_name(&self.log_event_types, &EventType::ALL, EventType::name),
            source_types: by_name(&self.log_source_type, &SourceType::ALL, SourceType::name),
            phases: by_name(&self.log_event_phase, &EventPhase::ALL, EventPhase::name),
        }
    }
}

/// Wire code → modelled kind, for the `type`, `source.type` and `phase`
/// fields of a capture's events. Built once per capture by
/// [`ConstantTables::wire_codes`], so a capture that numbers its types
/// as Chrome does is read through its own numbering.
#[derive(Debug, Clone)]
pub struct WireCodes {
    pub(crate) event_types: HashMap<u32, EventType>,
    pub(crate) source_types: HashMap<u32, SourceType>,
    pub(crate) phases: HashMap<u32, EventPhase>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_type_codes_round_trip() {
        for t in EventType::ALL {
            assert_eq!(EventType::from_code(t.code()), Some(t));
        }
        assert_eq!(EventType::from_code(999), None);
    }

    #[test]
    fn source_type_codes_round_trip() {
        for t in SourceType::ALL {
            assert_eq!(SourceType::from_code(t.code()), Some(t));
        }
        assert_eq!(SourceType::from_code(999), None);
    }

    #[test]
    fn phase_codes_match_chrome() {
        assert_eq!(EventPhase::None.code(), 0);
        assert_eq!(EventPhase::Begin.code(), 1);
        assert_eq!(EventPhase::End.code(), 2);
        for p in [EventPhase::None, EventPhase::Begin, EventPhase::End] {
            assert_eq!(EventPhase::from_code(p.code()), Some(p));
        }
        assert_eq!(EventPhase::from_code(3), None);
    }

    #[test]
    fn net_error_codes_match_chrome() {
        assert_eq!(NetError::NameNotResolved.code(), -105);
        assert_eq!(NetError::ConnectionRefused.code(), -102);
        assert_eq!(NetError::ConnectionReset.code(), -101);
        assert_eq!(NetError::CertCommonNameInvalid.code(), -200);
        assert_eq!(NetError::Aborted.code(), -3);
        for e in NetError::ALL {
            assert_eq!(NetError::from_code(e.code()), Some(e));
        }
        assert_eq!(NetError::from_code(-99999), None);
    }

    #[test]
    fn ok_is_not_an_error() {
        assert!(!NetError::Ok.is_error());
        assert!(NetError::TimedOut.is_error());
    }

    #[test]
    fn page_traffic_sources() {
        assert!(SourceType::UrlRequest.is_page_traffic());
        assert!(SourceType::WebSocket.is_page_traffic());
        assert!(SourceType::P2pSocket.is_page_traffic());
        assert!(!SourceType::BrowserInternal.is_page_traffic());
        assert!(!SourceType::None.is_page_traffic());
    }

    #[test]
    fn new_kinds_append_at_the_tail() {
        // Wire codes are positional, so the pre-ICE codes must never
        // shift: a capture written before the ICE kinds existed still
        // decodes every event to the same type.
        assert_eq!(EventType::NetworkChangeNotifier.code(), 15);
        assert_eq!(EventType::IceCandidateGathered.code(), 16);
        assert_eq!(SourceType::None.code(), 5);
        assert_eq!(SourceType::P2pSocket.code(), 6);
    }

    #[test]
    fn constant_tables_are_complete_and_injective() {
        let t = ConstantTables::standard();
        assert_eq!(t.log_event_types.len(), EventType::ALL.len());
        assert_eq!(t.log_source_type.len(), SourceType::ALL.len());
        assert_eq!(t.log_event_phase.len(), 3);
        assert_eq!(t.net_error.len(), NetError::ALL.len());
        let mut codes: Vec<_> = t.log_event_types.values().collect();
        codes.sort();
        codes.dedup();
        assert_eq!(codes.len(), EventType::ALL.len(), "event codes injective");
    }

    #[test]
    fn wire_codes_resolve_by_name() {
        let standard = ConstantTables::standard().wire_codes();
        for t in EventType::ALL {
            assert_eq!(standard.event_types.get(&t.code()), Some(&t));
        }
        for t in SourceType::ALL {
            assert_eq!(standard.source_types.get(&t.code()), Some(&t));
        }
        for p in EventPhase::ALL {
            assert_eq!(standard.phases.get(&p.code()), Some(&p));
        }

        // Chrome's own numbering; names we do not model are ignored and
        // modelled names the table lacks get no code.
        let mut chrome = ConstantTables::standard();
        chrome.log_event_types = [("URL_REQUEST_START_JOB", 112), ("SOME_OTHER_EVENT", 1)]
            .into_iter()
            .map(|(name, code)| (name.to_string(), code))
            .collect();
        let codes = chrome.wire_codes();
        assert_eq!(
            codes.event_types,
            HashMap::from([(112, EventType::UrlRequestStartJob)])
        );
    }
}
