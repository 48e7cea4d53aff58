//! A from-scratch URL parser for the subset of URLs a crawler sees.
//!
//! Grammar (a pragmatic slice of RFC 3986, matching what Chrome's
//! NetLog records for request URLs):
//!
//! ```text
//! url      = scheme "://" host [":" port] [path] ["?" query] ["#" fragment]
//! host     = domain | ipv4 | "[" ipv6 "]"
//! path     = "/" *pchar      (defaults to "/" when absent)
//! ```
//!
//! Userinfo (`user:pass@`) is intentionally rejected: Chrome strips it
//! before logging, and in a measurement context an embedded-credential
//! URL is more likely an obfuscation attempt worth surfacing as an
//! error than a destination to silently normalise.

use std::fmt;
use std::str::FromStr;

use crate::error::ParseError;
use crate::host::{Host, HostView};
use crate::ip::Locality;
use crate::scheme::Scheme;

/// A parsed absolute URL.
///
/// ```
/// use kt_netbase::{Url, Locality};
///
/// let url = Url::parse("wss://localhost:3389/").unwrap();
/// assert_eq!(url.port(), 3389);
/// assert!(url.scheme().is_websocket());
/// assert_eq!(url.locality(), Locality::Loopback);
/// assert!(url.is_local());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Url {
    scheme: Scheme,
    host: Host,
    /// Explicit port, if one appeared in the URL text.
    explicit_port: Option<u16>,
    /// Path, always beginning with `/`.
    path: String,
    /// Query string without the leading `?`, if present.
    query: Option<String>,
    /// Fragment without the leading `#`, if present.
    fragment: Option<String>,
}

impl Url {
    /// Parse an absolute URL.
    pub fn parse(input: &str) -> Result<Url, ParseError> {
        UrlView::parse(input).map(UrlView::to_owned)
    }

    /// Build a URL from parts; `path` must begin with `/` or be empty.
    pub fn from_parts(scheme: Scheme, host: Host, port: Option<u16>, path: &str) -> Url {
        let path = if path.is_empty() {
            "/".to_string()
        } else {
            debug_assert!(path.starts_with('/'), "path must begin with '/': {path:?}");
            path.to_string()
        };
        // Pull a query out of the path if the caller embedded one.
        let (path, query) = match path.split_once('?') {
            Some((p, q)) => (p.to_string(), Some(q.to_string())),
            None => (path, None),
        };
        Url {
            scheme,
            host,
            explicit_port: port,
            path,
            query,
            fragment: None,
        }
    }

    /// The URL scheme.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// The parsed host.
    pub fn host(&self) -> &Host {
        &self.host
    }

    /// The effective port: the explicit one, else the scheme default.
    pub fn port(&self) -> u16 {
        self.explicit_port
            .unwrap_or_else(|| self.scheme.default_port())
    }

    /// The explicit port, if the URL text carried one.
    pub fn explicit_port(&self) -> Option<u16> {
        self.explicit_port
    }

    /// The path (always `/`-prefixed).
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Query string without the `?`, if any.
    pub fn query(&self) -> Option<&str> {
        self.query.as_deref()
    }

    /// Fragment without the `#`, if any.
    pub fn fragment(&self) -> Option<&str> {
        self.fragment.as_deref()
    }

    /// Path plus query, as reported in the paper's tables
    /// (e.g. `/v1/init.json?api_port=*`).
    pub fn path_and_query(&self) -> String {
        match &self.query {
            Some(q) => format!("{}?{}", self.path, q),
            None => self.path.clone(),
        }
    }

    /// Locality of the destination host (syntactic: domains other than
    /// `localhost` are public at this layer).
    pub fn locality(&self) -> Locality {
        Locality::of_host(&self.host)
    }

    /// True if this URL targets localhost or a private (LAN) address.
    pub fn is_local(&self) -> bool {
        self.locality().is_local()
    }
}

impl fmt::Display for Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}://{}", self.scheme, self.host)?;
        if let Some(p) = self.explicit_port {
            write!(f, ":{p}")?;
        }
        f.write_str(&self.path)?;
        if let Some(q) = &self.query {
            write!(f, "?{q}")?;
        }
        if let Some(frag) = &self.fragment {
            write!(f, "#{frag}")?;
        }
        Ok(())
    }
}

impl FromStr for Url {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Url::parse(s)
    }
}

/// A parsed absolute URL that borrows its input.
///
/// [`UrlView::parse`] is the one URL parser: [`Url::parse`] is this
/// parse plus [`UrlView::to_owned`], so the two accept the same inputs
/// with identical error values. The view allocates nothing on success:
/// the path, query and fragment are slices of the input, and the host
/// keeps domain names borrowed. The analysis hot path classifies every
/// request URL but emits an observation for fewer than 1% of them, so
/// the owned conversion ([`UrlView::to_owned`]) is deferred until a
/// local destination is actually found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UrlView<'a> {
    scheme: Scheme,
    host: HostView<'a>,
    explicit_port: Option<u16>,
    /// Path slice; `"/"` when the input had none (`'static` coerces).
    path: &'a str,
    query: Option<&'a str>,
    fragment: Option<&'a str>,
}

impl<'a> UrlView<'a> {
    /// Parse an absolute URL without copying it.
    pub fn parse(input: &'a str) -> Result<UrlView<'a>, ParseError> {
        let input = input.trim();
        if input.is_empty() {
            return Err(ParseError::Empty);
        }
        let (scheme_str, rest) = input.split_once("://").ok_or(ParseError::MissingScheme)?;
        let scheme = Scheme::parse(scheme_str)?;

        // Split authority from path/query/fragment. An IPv6 literal may
        // contain ':' so we must honour the bracket first.
        let (authority, tail) = split_authority(rest)?;
        if authority.contains('@') {
            return Err(ParseError::InvalidHost(authority.to_string()));
        }

        let (host_str, port) = split_host_port(authority)?;
        let host = HostView::parse(host_str)?;

        // Decompose the tail into path / query / fragment.
        let (before_frag, fragment) = match tail.split_once('#') {
            Some((b, f)) => (b, Some(f)),
            None => (tail, None),
        };
        let (path_str, query) = match before_frag.split_once('?') {
            Some((p, q)) => (p, Some(q)),
            None => (before_frag, None),
        };
        let path = if path_str.is_empty() { "/" } else { path_str };

        Ok(UrlView {
            scheme,
            host,
            explicit_port: port,
            path,
            query,
            fragment,
        })
    }

    /// The URL scheme.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// The parsed (borrowed) host.
    pub fn host(&self) -> &HostView<'a> {
        &self.host
    }

    /// The effective port: the explicit one, else the scheme default.
    pub fn port(&self) -> u16 {
        self.explicit_port
            .unwrap_or_else(|| self.scheme.default_port())
    }

    /// The explicit port, if the URL text carried one.
    pub fn explicit_port(&self) -> Option<u16> {
        self.explicit_port
    }

    /// The path (always `/`-prefixed).
    pub fn path(&self) -> &'a str {
        self.path
    }

    /// Query string without the `?`, if any.
    pub fn query(&self) -> Option<&'a str> {
        self.query
    }

    /// Fragment without the `#`, if any.
    pub fn fragment(&self) -> Option<&'a str> {
        self.fragment
    }

    /// Locality of the destination host (syntactic, like
    /// [`Url::locality`]).
    pub fn locality(&self) -> Locality {
        Locality::of_host_view(&self.host)
    }

    /// True if this URL targets localhost or a private (LAN) address.
    pub fn is_local(&self) -> bool {
        self.locality().is_local()
    }

    /// Convert to the owned [`Url`] (allocates).
    pub fn to_owned(self) -> Url {
        Url {
            scheme: self.scheme,
            host: self.host.to_owned(),
            explicit_port: self.explicit_port,
            path: self.path.to_string(),
            query: self.query.map(str::to_string),
            fragment: self.fragment.map(str::to_string),
        }
    }
}

/// Split `rest` (everything after `scheme://`) into the authority and
/// the remaining tail starting at `/`, `?` or `#`.
fn split_authority(rest: &str) -> Result<(&str, &str), ParseError> {
    if rest.is_empty() {
        return Err(ParseError::InvalidHost(String::new()));
    }
    let search_from = if rest.starts_with('[') {
        rest.find(']').ok_or(ParseError::UnterminatedIpv6)? + 1
    } else {
        0
    };
    let end = rest[search_from..]
        .find(['/', '?', '#'])
        .map(|i| i + search_from)
        .unwrap_or(rest.len());
    Ok((&rest[..end], &rest[end..]))
}

/// Split an authority into host text and optional port.
fn split_host_port(authority: &str) -> Result<(&str, Option<u16>), ParseError> {
    if authority.is_empty() {
        return Err(ParseError::Empty);
    }
    let colon_search_from = if authority.starts_with('[') {
        match authority.find(']') {
            Some(i) => i + 1,
            None => return Err(ParseError::UnterminatedIpv6),
        }
    } else {
        0
    };
    match authority[colon_search_from..].find(':') {
        Some(i) => {
            let i = i + colon_search_from;
            let (host, port_str) = (&authority[..i], &authority[i + 1..]);
            if port_str.is_empty() {
                // "host:" with no digits — treat as no port, as browsers do.
                return Ok((host, None));
            }
            let port: u16 = port_str
                .parse()
                .map_err(|_| ParseError::InvalidPort(port_str.to_string()))?;
            Ok((host, Some(port)))
        }
        None => Ok((authority, None)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::tests::reference_host_parse;
    use proptest::prelude::*;
    use std::net::Ipv4Addr;

    /// Reference URL parser, building every owned field directly; the
    /// borrowed [`UrlView::parse`] is held to it.
    fn reference_url_parse(input: &str) -> Result<Url, ParseError> {
        let input = input.trim();
        if input.is_empty() {
            return Err(ParseError::Empty);
        }
        let (scheme_str, rest) = input.split_once("://").ok_or(ParseError::MissingScheme)?;
        let scheme = Scheme::parse(scheme_str)?;

        let (authority, tail) = split_authority(rest)?;
        if authority.contains('@') {
            return Err(ParseError::InvalidHost(authority.to_string()));
        }

        let (host_str, port) = split_host_port(authority)?;
        let host = reference_host_parse(host_str)?;

        let (before_frag, fragment) = match tail.split_once('#') {
            Some((b, f)) => (b, Some(f.to_string())),
            None => (tail, None),
        };
        let (path_str, query) = match before_frag.split_once('?') {
            Some((p, q)) => (p, Some(q.to_string())),
            None => (before_frag, None),
        };
        let path = if path_str.is_empty() {
            "/".to_string()
        } else {
            path_str.to_string()
        };

        Ok(Url {
            scheme,
            host,
            explicit_port: port,
            path,
            query,
            fragment,
        })
    }

    proptest! {
        /// The borrowed URL parser must accept, reject, and classify
        /// exactly as the owned parser does — on arbitrary input, not just
        /// well-formed URLs.
        #[test]
        fn url_view_agrees_with_owned_parser(input in "\\PC{0,80}") {
            match (reference_url_parse(&input), UrlView::parse(&input)) {
                (Ok(owned), Ok(view)) => {
                    prop_assert_eq!(view.scheme(), owned.scheme());
                    prop_assert_eq!(view.port(), owned.port());
                    prop_assert_eq!(view.explicit_port(), owned.explicit_port());
                    prop_assert_eq!(view.path(), owned.path());
                    prop_assert_eq!(view.query(), owned.query());
                    prop_assert_eq!(view.fragment(), owned.fragment());
                    prop_assert_eq!(view.locality(), owned.locality());
                    prop_assert_eq!(view.to_owned(), owned);
                }
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                (a, b) => prop_assert!(false, "disagreement on {:?}: owned={:?} view={:?}", input, a, b),
            }
        }

        /// Same agreement on inputs biased towards *almost*-valid URLs,
        /// which exercise the deep error paths far more often than fully
        /// arbitrary strings do.
        #[test]
        fn url_view_agrees_on_url_shaped_inputs(
            scheme in "(http|https|ws|wss|HTTP|ftp|Wss)",
            host in "[a-zA-Z0-9.\\[\\]:@_-]{1,25}",
            tail in "[/?#a-z0-9=.&]{0,20}",
        ) {
            let input = format!("{scheme}://{host}{tail}");
            match (reference_url_parse(&input), UrlView::parse(&input)) {
                (Ok(owned), Ok(view)) => prop_assert_eq!(view.to_owned(), owned),
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                (a, b) => prop_assert!(false, "disagreement on {:?}: owned={:?} view={:?}", input, a, b),
            }
        }
    }

    #[test]
    fn parses_simple_http_url() {
        let u = Url::parse("http://example.com/index.html").unwrap();
        assert_eq!(u.scheme(), Scheme::Http);
        assert_eq!(u.host().to_string(), "example.com");
        assert_eq!(u.port(), 80);
        assert_eq!(u.path(), "/index.html");
        assert_eq!(u.query(), None);
    }

    #[test]
    fn parses_paper_style_urls() {
        // URL shapes taken from the paper's tables.
        let u = Url::parse("wss://127.0.0.1:5939/").unwrap();
        assert_eq!(u.scheme(), Scheme::Wss);
        assert_eq!(u.port(), 5939);
        assert!(u.is_local());

        let u = Url::parse("http://localhost:12071/v1/init.json?api_port=3&query_id=7").unwrap();
        assert_eq!(u.path(), "/v1/init.json");
        assert_eq!(u.query(), Some("api_port=3&query_id=7"));
        assert_eq!(u.path_and_query(), "/v1/init.json?api_port=3&query_id=7");
        assert!(u.is_local());

        let u = Url::parse("http://10.193.31.212/system/files/2020-06/logo.png").unwrap();
        assert_eq!(u.host(), &Host::Ipv4(Ipv4Addr::new(10, 193, 31, 212)));
        assert!(u.is_local());

        let u = Url::parse("ws://localhost:6463/?v=1").unwrap();
        assert_eq!(u.path_and_query(), "/?v=1");
    }

    #[test]
    fn empty_path_defaults_to_root() {
        let u = Url::parse("https://example.com").unwrap();
        assert_eq!(u.path(), "/");
        let u = Url::parse("https://example.com?q=1").unwrap();
        assert_eq!(u.path(), "/");
        assert_eq!(u.query(), Some("q=1"));
    }

    #[test]
    fn explicit_default_port_is_preserved_in_text() {
        let u = Url::parse("http://example.com:80/").unwrap();
        assert_eq!(u.explicit_port(), Some(80));
        assert_eq!(u.to_string(), "http://example.com:80/");
        let v = Url::parse("http://example.com/").unwrap();
        assert_eq!(v.explicit_port(), None);
        assert_eq!(u.port(), v.port());
    }

    #[test]
    fn ipv6_literals() {
        let u = Url::parse("http://[::1]:8080/status").unwrap();
        assert_eq!(u.port(), 8080);
        assert!(u.is_local());
        assert_eq!(u.to_string(), "http://[::1]:8080/status");
        assert!(Url::parse("http://[::1/").is_err());
    }

    #[test]
    fn fragment_and_query_ordering() {
        let u = Url::parse("https://e.com/p?a=1#frag?not-query").unwrap();
        assert_eq!(u.path(), "/p");
        assert_eq!(u.query(), Some("a=1"));
        assert_eq!(u.fragment(), Some("frag?not-query"));
    }

    #[test]
    fn rejects_malformed_inputs() {
        assert!(Url::parse("").is_err());
        assert!(Url::parse("example.com/no-scheme").is_err());
        assert!(Url::parse("ftp://example.com/").is_err());
        assert!(Url::parse("http://user:pw@example.com/").is_err());
        assert!(Url::parse("http:///missing-host").is_err());
        assert!(Url::parse("http://example.com:99999/").is_err());
        assert!(Url::parse("http://exa mple.com/").is_err());
    }

    #[test]
    fn trailing_colon_without_port_is_tolerated() {
        let u = Url::parse("http://example.com:/x").unwrap();
        assert_eq!(u.explicit_port(), None);
        assert_eq!(u.port(), 80);
    }

    #[test]
    fn display_round_trips() {
        for s in [
            "http://example.com/",
            "https://example.com:8443/a/b?x=1&y=2",
            "ws://localhost:28337/",
            "wss://127.0.0.1:3389/",
            "http://192.168.0.208/wp-content/uploads/2017/05/a.jpg",
            "http://[fe80::1]:9000/x#y",
        ] {
            let u = Url::parse(s).unwrap();
            assert_eq!(u.to_string(), s, "round trip of {s}");
            assert_eq!(Url::parse(&u.to_string()).unwrap(), u);
        }
    }

    #[test]
    fn url_view_agrees_with_owned_on_fixed_corpus() {
        let corpus = [
            "http://example.com/index.html",
            "wss://127.0.0.1:5939/",
            "http://localhost:12071/v1/init.json?api_port=3&query_id=7",
            "ws://localhost:6463/?v=1",
            "http://f0ae4f9a-2d4c-4a91.local:9222/json",
            "HTTPS://ExAmple.COM:8443",
            "https://example.com?q=1",
            "http://[::1]:8080/status",
            "https://e.com/p?a=1#frag?not-query",
            "http://example.com:/x",
            "  http://example.com/padded  ",
            "",
            "example.com/no-scheme",
            "ftp://example.com/",
            "http://user:pw@example.com/",
            "http:///missing-host",
            "http://example.com:99999/",
            "http://exa mple.com/",
            "http://[::1/",
        ];
        for s in corpus {
            match (reference_url_parse(s), UrlView::parse(s)) {
                (Ok(owned), Ok(view)) => {
                    assert_eq!(view.to_owned(), owned, "value for {s:?}");
                    assert_eq!(view.scheme(), owned.scheme(), "scheme for {s:?}");
                    assert_eq!(view.port(), owned.port(), "port for {s:?}");
                    assert_eq!(view.path(), owned.path(), "path for {s:?}");
                    assert_eq!(view.query(), owned.query(), "query for {s:?}");
                    assert_eq!(view.fragment(), owned.fragment(), "fragment for {s:?}");
                    assert_eq!(view.locality(), owned.locality(), "locality for {s:?}");
                    assert_eq!(view.is_local(), owned.is_local(), "is_local for {s:?}");
                }
                (Err(a), Err(b)) => assert_eq!(a, b, "error for {s:?}"),
                (a, b) => panic!("disagreement on {s:?}: owned={a:?} view={b:?}"),
            }
        }
    }

    #[test]
    fn url_view_parse_does_not_copy_components() {
        let text = "ws://API.localhost:6463/app?v=1#top";
        let v = UrlView::parse(text).unwrap();
        // The path/query/fragment point into the input buffer.
        assert_eq!(
            v.path().as_ptr(),
            text["ws://API.localhost:6463".len()..].as_ptr()
        );
        assert_eq!(v.query(), Some("v=1"));
        assert_eq!(v.fragment(), Some("top"));
        assert!(v.is_local());
        assert_eq!(v.port(), 6463);
    }

    #[test]
    fn from_parts_splits_embedded_query() {
        let u = Url::from_parts(
            Scheme::Http,
            Host::domain_unchecked("localhost"),
            Some(2080),
            "/version?_=123",
        );
        assert_eq!(u.path(), "/version");
        assert_eq!(u.query(), Some("_=123"));
        assert_eq!(u.port(), 2080);
    }
}
