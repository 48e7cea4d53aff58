//! Simulated network endpoints.
//!
//! An [`Endpoint`] is anything listening at an `(address, port)`:
//! a public web server, a localhost native-application service, a LAN
//! device's HTTP interface. Its [`ServerBehavior`] decides what a
//! connection attempt observes — the error taxonomy of Table 1 lives
//! here for the connection-level failures (refused / reset / TLS cert).

use crate::tls::Certificate;

/// A canned HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// HTTP status code.
    pub status: u16,
    /// Body length in bytes (bodies themselves are not simulated).
    pub body_len: u64,
    /// `Access-Control-Allow-Origin: *` — whether cross-origin readers
    /// get CORS approval. The local services the paper observed do not
    /// send it.
    pub cors_allow_any: bool,
    /// `Location` header for 3xx responses.
    pub redirect_to: Option<String>,
}

impl HttpResponse {
    /// A plain 200 with a given body size.
    pub fn ok(body_len: u64) -> HttpResponse {
        HttpResponse {
            status: 200,
            body_len,
            cors_allow_any: false,
            redirect_to: None,
        }
    }

    /// A 404 (missing resource: the developer-error fetches).
    pub fn not_found() -> HttpResponse {
        HttpResponse {
            status: 404,
            body_len: 0,
            cors_allow_any: false,
            redirect_to: None,
        }
    }

    /// A redirect to another URL.
    pub fn redirect(to: &str) -> HttpResponse {
        HttpResponse {
            status: 302,
            body_len: 0,
            cors_allow_any: false,
            redirect_to: Some(to.to_string()),
        }
    }
}

/// What a connection to an endpoint experiences.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerBehavior {
    /// Accepts TCP and answers HTTP with the given response.
    Http(HttpResponse),
    /// Accepts TCP, completes a WebSocket upgrade, then echoes frames.
    WebSocket,
    /// Accepts TCP but the service resets the connection mid-exchange
    /// (`ERR_CONNECTION_RESET`).
    ResetOnRequest,
    /// No listener: the host answers RST (`ERR_CONNECTION_REFUSED`).
    Refused,
    /// Packets are silently dropped (`ERR_TIMED_OUT` after the connect
    /// timeout — in a 20 s crawl window, the window usually closes
    /// first and the request is recorded in-flight).
    Blackhole,
    /// Accepts TCP then closes without sending anything
    /// (`ERR_EMPTY_RESPONSE`).
    EmptyResponse,
}

/// A listener bound at an address and port.
#[derive(Debug, Clone, PartialEq)]
pub struct Endpoint {
    /// Connection behaviour.
    pub behavior: ServerBehavior,
    /// TLS certificate presented when the client speaks TLS; `None`
    /// means the endpoint is plaintext-only (a TLS handshake to it
    /// fails with a protocol error).
    pub certificate: Option<Certificate>,
}

impl Endpoint {
    /// A plaintext HTTP endpoint.
    pub fn http(response: HttpResponse) -> Endpoint {
        Endpoint {
            behavior: ServerBehavior::Http(response),
            certificate: None,
        }
    }

    /// An HTTPS endpoint with a matching certificate for `host`.
    pub fn https(host: &str, response: HttpResponse) -> Endpoint {
        Endpoint {
            behavior: ServerBehavior::Http(response),
            certificate: Some(Certificate::valid_for(host)),
        }
    }

    /// A plaintext WebSocket endpoint.
    pub fn ws() -> Endpoint {
        Endpoint {
            behavior: ServerBehavior::WebSocket,
            certificate: None,
        }
    }

    /// A TLS WebSocket endpoint with a matching certificate.
    pub fn wss(host: &str) -> Endpoint {
        Endpoint {
            behavior: ServerBehavior::WebSocket,
            certificate: Some(Certificate::valid_for(host)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tls::CertVerdict;

    #[test]
    fn response_constructors() {
        assert_eq!(HttpResponse::ok(10).status, 200);
        assert_eq!(HttpResponse::not_found().status, 404);
        let r = HttpResponse::redirect("http://127.0.0.1/");
        assert_eq!(r.status, 302);
        assert_eq!(r.redirect_to.as_deref(), Some("http://127.0.0.1/"));
    }

    #[test]
    fn endpoint_constructors() {
        let e = Endpoint::https("example.com", HttpResponse::ok(1));
        assert_eq!(
            e.certificate.unwrap().verify("example.com"),
            CertVerdict::Ok
        );
        assert!(Endpoint::http(HttpResponse::ok(1)).certificate.is_none());
        assert!(matches!(Endpoint::ws().behavior, ServerBehavior::WebSocket));
        assert!(Endpoint::wss("a.b").certificate.is_some());
    }
}
