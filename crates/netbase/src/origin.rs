//! Web origins and the Same-Origin-Policy decision matrix.
//!
//! §4.2 of the paper leans on a browser-security asymmetry that this
//! module encodes precisely:
//!
//! * cross-origin **HTTP(S)** fetches are subject to the Same-Origin
//!   Policy — without CORS approval the page can *send* the request
//!   but receives only an **opaque** response (it still learns timing,
//!   which BIG-IP's bot defence exploits as a side channel);
//! * **WebSocket** connections are *not* subject to SOP — a page may
//!   open a socket to any origin and read data, which is how the
//!   ThreatMetrix script harvests localhost scan results.

use std::fmt;

use crate::host::Host;
use crate::scheme::Scheme;
use crate::url::Url;

/// A web origin: the (scheme, host, port) triple.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Origin {
    scheme: Scheme,
    host: Host,
    port: u16,
}

impl Origin {
    /// Construct an origin directly.
    pub fn new(scheme: Scheme, host: Host, port: u16) -> Origin {
        Origin { scheme, host, port }
    }

    /// The origin of a URL. WebSocket URLs take the origin of their
    /// handshake scheme — a page served from `https://a` opening
    /// `wss://a` is same-origin for our accounting purposes.
    pub fn of_url(url: &Url) -> Origin {
        Origin {
            scheme: url.scheme().handshake_scheme(),
            host: url.host().clone(),
            port: url.port(),
        }
    }

    /// The scheme.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// The host.
    pub fn host(&self) -> &Host {
        &self.host
    }

    /// The port.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Exact origin equality, the SOP comparison.
    pub fn same_origin(&self, other: &Origin) -> bool {
        self == other
    }
}

impl fmt::Display for Origin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}://{}:{}", self.scheme, self.host, self.port)
    }
}

/// What a page is allowed to learn from a request it initiated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SopVerdict {
    /// Same origin, or a SOP-exempt channel: the response body and
    /// headers are fully readable.
    Readable,
    /// Cross-origin without CORS: the request is sent, the response is
    /// opaque, but connection success/failure timing still leaks.
    OpaqueTimingOnly,
}

impl SopVerdict {
    /// Decide what a document at `page_origin` learns from a request
    /// to `target`.
    ///
    /// `cors_approved` models the server opting in via CORS (the
    /// simulated local services in this study never do, matching the
    /// paper's observations).
    pub fn decide(page_origin: &Origin, target: &Url, cors_approved: bool) -> SopVerdict {
        if target.scheme().is_websocket() {
            // WebSockets are exempt from SOP: the server may inspect
            // the Origin header, but the browser does not block reads.
            return SopVerdict::Readable;
        }
        let target_origin = Origin::of_url(target);
        if page_origin.same_origin(&target_origin) || cors_approved {
            SopVerdict::Readable
        } else {
            SopVerdict::OpaqueTimingOnly
        }
    }

    /// True if the initiating page can read response data.
    pub fn can_read_body(self) -> bool {
        self == SopVerdict::Readable
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn origin(s: &str) -> Origin {
        Origin::of_url(&Url::parse(s).unwrap())
    }

    #[test]
    fn origin_includes_scheme_host_port() {
        assert_eq!(origin("http://a.com/x"), origin("http://a.com/y"));
        assert_ne!(origin("http://a.com/"), origin("https://a.com/"));
        assert_ne!(origin("http://a.com/"), origin("http://b.com/"));
        assert_ne!(origin("http://a.com/"), origin("http://a.com:8080/"));
        // Default port equals explicit default port.
        assert_eq!(origin("http://a.com/"), origin("http://a.com:80/"));
    }

    #[test]
    fn websocket_origin_uses_handshake_scheme() {
        assert_eq!(origin("ws://a.com/"), origin("http://a.com/"));
        assert_eq!(origin("wss://a.com/"), origin("https://a.com/"));
    }

    #[test]
    fn websockets_bypass_sop() {
        let page = origin("https://ebay.example/");
        let target = Url::parse("wss://127.0.0.1:3389/").unwrap();
        assert_eq!(
            SopVerdict::decide(&page, &target, false),
            SopVerdict::Readable
        );
    }

    #[test]
    fn cross_origin_http_is_opaque_without_cors() {
        let page = origin("https://gov.example/");
        let target = Url::parse("http://localhost:4444/").unwrap();
        let v = SopVerdict::decide(&page, &target, false);
        assert_eq!(v, SopVerdict::OpaqueTimingOnly);
        assert!(!v.can_read_body());
    }

    #[test]
    fn cors_approval_unlocks_reads() {
        let page = origin("https://gov.example/");
        let target = Url::parse("http://localhost:4444/").unwrap();
        assert_eq!(
            SopVerdict::decide(&page, &target, true),
            SopVerdict::Readable
        );
    }

    #[test]
    fn same_origin_http_is_readable() {
        let page = origin("http://site.example/");
        let target = Url::parse("http://site.example/api").unwrap();
        assert_eq!(
            SopVerdict::decide(&page, &target, false),
            SopVerdict::Readable
        );
    }

    #[test]
    fn display_shape() {
        assert_eq!(origin("http://a.com/").to_string(), "http://a.com:80");
        assert_eq!(
            origin("wss://127.0.0.1:3389/").to_string(),
            "https://127.0.0.1:3389"
        );
    }
}
