//! URL schemes relevant to the measurement.
//!
//! The paper reports four schemes for locally-bound requests: `http`,
//! `https`, `ws`, and `wss` (Figures 4 and 8). WebSocket schemes matter
//! because the Same-Origin Policy does not restrict them, which is how
//! the ThreatMetrix fraud-detection script reads localhost scan results.

use std::fmt;
use std::str::FromStr;

use crate::error::ParseError;

/// A URL scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Scheme {
    /// Plain-text HTTP.
    Http,
    /// HTTP over TLS.
    Https,
    /// Plain-text WebSocket.
    Ws,
    /// WebSocket over TLS.
    Wss,
}

impl Scheme {
    /// All schemes, in report order.
    pub const ALL: [Scheme; 4] = [Scheme::Http, Scheme::Https, Scheme::Ws, Scheme::Wss];

    /// Parse a scheme token (case-insensitive). Compares in place
    /// rather than lowering into a fresh `String`: this sits on the
    /// per-URL analysis hot path and must not allocate on success.
    pub fn parse(s: &str) -> Result<Scheme, ParseError> {
        for scheme in Scheme::ALL {
            if s.eq_ignore_ascii_case(scheme.as_str()) {
                return Ok(scheme);
            }
        }
        Err(ParseError::UnknownScheme(s.to_ascii_lowercase()))
    }

    /// Canonical lower-case name.
    pub fn as_str(self) -> &'static str {
        match self {
            Scheme::Http => "http",
            Scheme::Https => "https",
            Scheme::Ws => "ws",
            Scheme::Wss => "wss",
        }
    }

    /// The port implied when a URL omits one.
    pub fn default_port(self) -> u16 {
        match self {
            Scheme::Http | Scheme::Ws => 80,
            Scheme::Https | Scheme::Wss => 443,
        }
    }

    /// TLS-protected schemes. The WICG Private Network Access proposal
    /// (discussed in §5.3) only allows local fetches from securely
    /// delivered pages.
    pub fn is_secure(self) -> bool {
        matches!(self, Scheme::Https | Scheme::Wss)
    }

    /// WebSocket schemes, which are exempt from the Same-Origin Policy.
    pub fn is_websocket(self) -> bool {
        matches!(self, Scheme::Ws | Scheme::Wss)
    }

    /// The HTTP-family sibling used for the underlying handshake
    /// (`ws` handshakes over `http`, `wss` over `https`).
    pub fn handshake_scheme(self) -> Scheme {
        match self {
            Scheme::Ws => Scheme::Http,
            Scheme::Wss => Scheme::Https,
            other => other,
        }
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for Scheme {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Scheme::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_all() {
        for s in Scheme::ALL {
            assert_eq!(Scheme::parse(s.as_str()).unwrap(), s);
            assert_eq!(Scheme::parse(&s.as_str().to_uppercase()).unwrap(), s);
        }
    }

    #[test]
    fn unknown_scheme_is_rejected() {
        assert!(matches!(
            Scheme::parse("ftp"),
            Err(ParseError::UnknownScheme(_))
        ));
    }

    #[test]
    fn default_ports() {
        assert_eq!(Scheme::Http.default_port(), 80);
        assert_eq!(Scheme::Ws.default_port(), 80);
        assert_eq!(Scheme::Https.default_port(), 443);
        assert_eq!(Scheme::Wss.default_port(), 443);
    }

    #[test]
    fn security_and_websocket_predicates() {
        assert!(!Scheme::Http.is_secure());
        assert!(Scheme::Https.is_secure());
        assert!(!Scheme::Ws.is_secure());
        assert!(Scheme::Wss.is_secure());
        assert!(Scheme::Ws.is_websocket());
        assert!(Scheme::Wss.is_websocket());
        assert!(!Scheme::Http.is_websocket());
    }

    #[test]
    fn handshake_mapping() {
        assert_eq!(Scheme::Ws.handshake_scheme(), Scheme::Http);
        assert_eq!(Scheme::Wss.handshake_scheme(), Scheme::Https);
        assert_eq!(Scheme::Http.handshake_scheme(), Scheme::Http);
    }
}
