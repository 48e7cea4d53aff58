//! URL hosts: domain names and IP literals.

use std::fmt;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use std::str::FromStr;

use crate::error::ParseError;

/// A validated DNS name, stored lower-cased.
///
/// Validation follows the pragmatic subset of RFC 1035 that browsers
/// accept: 1–253 bytes total, labels of 1–63 bytes drawn from
/// letters/digits/hyphen/underscore, labels neither starting nor ending
/// with a hyphen. (Underscores appear in real hostnames such as
/// service-discovery records, so we accept them like Chrome does.)
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DomainName(String);

impl DomainName {
    /// Parse and validate a domain name. The stored form is lower-case.
    pub fn parse(s: &str) -> Result<DomainName, ParseError> {
        DomainView::parse(s).map(DomainView::to_owned)
    }

    /// The normalised (lower-case, no trailing dot) name.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Individual labels, left to right.
    pub fn labels(&self) -> impl Iterator<Item = &str> {
        self.0.split('.')
    }

    /// True for `localhost` and any `*.localhost` name, which browsers
    /// resolve to loopback without consulting DNS.
    pub fn is_localhost(&self) -> bool {
        self.0 == "localhost" || self.0.ends_with(".localhost")
    }

    /// True for any name under the RFC 6762 `.local` mDNS zone —
    /// the obfuscated hostnames WebRTC ICE candidates carry instead of
    /// raw private addresses. These resolve only on the local link.
    pub fn is_mdns_local(&self) -> bool {
        self.0 == "local" || self.0.ends_with(".local")
    }

    /// The registrable suffix heuristic used throughout the analysis:
    /// the last two labels (`ebay.com` for `regstat.ebay.com`). A full
    /// public-suffix list is out of scope; the synthetic population
    /// only uses two-label registrable domains.
    pub fn registrable(&self) -> &str {
        let mut idx = self.0.len();
        let mut dots = 0;
        for (i, b) in self.0.bytes().enumerate().rev() {
            if b == b'.' {
                dots += 1;
                if dots == 2 {
                    idx = i + 1;
                    break;
                }
            }
        }
        if dots < 2 {
            &self.0
        } else {
            &self.0[idx..]
        }
    }
}

impl fmt::Display for DomainName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl FromStr for DomainName {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DomainName::parse(s)
    }
}

/// The host component of a URL.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Host {
    /// A DNS name.
    Domain(DomainName),
    /// An IPv4 literal such as `10.0.0.200`.
    Ipv4(Ipv4Addr),
    /// An IPv6 literal, written `[...]` in URLs.
    Ipv6(Ipv6Addr),
}

impl Host {
    /// Parse a URL host token. A leading `[` selects IPv6-literal
    /// parsing; a well-formed dotted quad parses as IPv4; anything else
    /// is validated as a domain name.
    pub fn parse(s: &str) -> Result<Host, ParseError> {
        HostView::parse(s).map(HostView::to_owned)
    }

    /// The IP address if this host is a literal.
    pub fn ip(&self) -> Option<IpAddr> {
        match self {
            Host::Ipv4(a) => Some(IpAddr::V4(*a)),
            Host::Ipv6(a) => Some(IpAddr::V6(*a)),
            Host::Domain(_) => None,
        }
    }

    /// The domain name if this host is one.
    pub fn domain(&self) -> Option<&DomainName> {
        match self {
            Host::Domain(d) => Some(d),
            _ => None,
        }
    }

    /// Convenience constructor for tests and generators.
    pub fn domain_unchecked(s: &str) -> Host {
        Host::Domain(DomainName::parse(s).expect("valid domain"))
    }
}

impl fmt::Display for Host {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Host::Domain(d) => write!(f, "{d}"),
            Host::Ipv4(a) => write!(f, "{a}"),
            Host::Ipv6(a) => write!(f, "[{a}]"),
        }
    }
}

impl FromStr for Host {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Host::parse(s)
    }
}

/// A borrowed, validated DNS name: the input slice with any trailing
/// root dot stripped, in its *original* case.
///
/// This is the one domain validator: [`DomainName::parse`] is this
/// parse plus lowering, so both accept the same names with the same
/// error values (including the lower-cased label in `InvalidLabel`).
/// Nothing is copied on success. Case-dependent predicates compare
/// case-insensitively instead of lowering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DomainView<'a>(&'a str);

impl<'a> DomainView<'a> {
    /// Validate a domain name without copying it.
    pub fn parse(s: &'a str) -> Result<DomainView<'a>, ParseError> {
        if s.is_empty() {
            return Err(ParseError::Empty);
        }
        // A trailing dot denotes the DNS root and is stripped.
        let s = s.strip_suffix('.').unwrap_or(s);
        if s.is_empty() || s.len() > 253 {
            return Err(ParseError::InvalidHost(s.to_string()));
        }
        // Length, hyphen placement and the accepted byte set are all
        // case-insensitive, so validating the original bytes accepts
        // exactly the names whose lowered form is valid. Only the error
        // value needs the lowered form.
        for label in s.split('.') {
            if label.is_empty()
                || label.len() > 63
                || label.starts_with('-')
                || label.ends_with('-')
                || !label
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
            {
                return Err(ParseError::InvalidLabel(label.to_ascii_lowercase()));
            }
        }
        Ok(DomainView(s))
    }

    /// The validated name in its original case, trailing dot stripped.
    pub fn as_str(&self) -> &'a str {
        self.0
    }

    /// True for `localhost` and any `*.localhost` name, compared
    /// case-insensitively (the owned form lowers at parse time).
    pub fn is_localhost(&self) -> bool {
        const SUFFIX: &str = ".localhost";
        self.0.eq_ignore_ascii_case("localhost")
            || (self.0.len() > SUFFIX.len()
                && self.0[self.0.len() - SUFFIX.len()..].eq_ignore_ascii_case(SUFFIX))
    }

    /// True for any name under the RFC 6762 `.local` mDNS zone,
    /// compared case-insensitively without copying — the borrowed
    /// counterpart of [`DomainName::is_mdns_local`].
    pub fn is_mdns_local(&self) -> bool {
        const SUFFIX: &str = ".local";
        self.0.eq_ignore_ascii_case("local")
            || (self.0.len() > SUFFIX.len()
                && self.0[self.0.len() - SUFFIX.len()..].eq_ignore_ascii_case(SUFFIX))
    }

    /// Convert to the owned, lower-cased form (allocates).
    pub fn to_owned(self) -> DomainName {
        DomainName(self.0.to_ascii_lowercase())
    }
}

/// Borrowed counterpart of [`Host`]: IP literals are parsed to their
/// address value (they are `Copy` anyway), domain names stay slices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostView<'a> {
    /// A DNS name, borrowed and validated.
    Domain(DomainView<'a>),
    /// An IPv4 literal such as `10.0.0.200`.
    Ipv4(Ipv4Addr),
    /// An IPv6 literal, written `[...]` in URLs.
    Ipv6(Ipv6Addr),
}

impl<'a> HostView<'a> {
    /// Parse a URL host token without copying it. A leading `[`
    /// selects IPv6-literal parsing; a well-formed dotted quad parses
    /// as IPv4; anything else is validated as a domain name.
    /// [`Host::parse`] is this parse plus [`HostView::to_owned`].
    pub fn parse(s: &'a str) -> Result<HostView<'a>, ParseError> {
        if s.is_empty() {
            return Err(ParseError::Empty);
        }
        if let Some(rest) = s.strip_prefix('[') {
            let inner = rest.strip_suffix(']').ok_or(ParseError::UnterminatedIpv6)?;
            let addr: Ipv6Addr = inner
                .parse()
                .map_err(|_| ParseError::InvalidIpLiteral(inner.to_string()))?;
            return Ok(HostView::Ipv6(addr));
        }
        // A string that looks like a dotted quad must parse as IPv4:
        // treating `1.2.3.999` as a domain would silently misclassify.
        if s.bytes().all(|b| b.is_ascii_digit() || b == b'.') && s.contains('.') {
            let addr: Ipv4Addr = s
                .parse()
                .map_err(|_| ParseError::InvalidIpLiteral(s.to_string()))?;
            return Ok(HostView::Ipv4(addr));
        }
        Ok(HostView::Domain(DomainView::parse(s)?))
    }

    /// The IP address if this host is a literal.
    pub fn ip(&self) -> Option<IpAddr> {
        match self {
            HostView::Ipv4(a) => Some(IpAddr::V4(*a)),
            HostView::Ipv6(a) => Some(IpAddr::V6(*a)),
            HostView::Domain(_) => None,
        }
    }

    /// Convert to the owned form (allocates for domain names).
    pub fn to_owned(self) -> Host {
        match self {
            HostView::Domain(d) => Host::Domain(d.to_owned()),
            HostView::Ipv4(a) => Host::Ipv4(a),
            HostView::Ipv6(a) => Host::Ipv6(a),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference domain parser: lowers first, then validates the
    /// lowered name, building the owned value directly. The production
    /// parser validates the original bytes and lowers after.
    fn reference_domain_parse(s: &str) -> Result<DomainName, ParseError> {
        if s.is_empty() {
            return Err(ParseError::Empty);
        }
        // A trailing dot denotes the DNS root and is stripped.
        let s = s.strip_suffix('.').unwrap_or(s);
        if s.is_empty() || s.len() > 253 {
            return Err(ParseError::InvalidHost(s.to_string()));
        }
        let lowered = s.to_ascii_lowercase();
        for label in lowered.split('.') {
            if label.is_empty() || label.len() > 63 {
                return Err(ParseError::InvalidLabel(label.to_string()));
            }
            if label.starts_with('-') || label.ends_with('-') {
                return Err(ParseError::InvalidLabel(label.to_string()));
            }
            if !label
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
            {
                return Err(ParseError::InvalidLabel(label.to_string()));
            }
        }
        Ok(DomainName(lowered))
    }

    /// Reference host parser, building owned values directly; the
    /// borrowed [`HostView::parse`] is held to it.
    pub(crate) fn reference_host_parse(s: &str) -> Result<Host, ParseError> {
        if s.is_empty() {
            return Err(ParseError::Empty);
        }
        if let Some(rest) = s.strip_prefix('[') {
            let inner = rest.strip_suffix(']').ok_or(ParseError::UnterminatedIpv6)?;
            let addr: Ipv6Addr = inner
                .parse()
                .map_err(|_| ParseError::InvalidIpLiteral(inner.to_string()))?;
            return Ok(Host::Ipv6(addr));
        }
        if s.bytes().all(|b| b.is_ascii_digit() || b == b'.') && s.contains('.') {
            let addr: Ipv4Addr = s
                .parse()
                .map_err(|_| ParseError::InvalidIpLiteral(s.to_string()))?;
            return Ok(Host::Ipv4(addr));
        }
        Ok(Host::Domain(reference_domain_parse(s)?))
    }

    proptest! {
        #[test]
        fn host_view_agrees_with_owned_parser(input in "\\PC{0,60}") {
            match (reference_host_parse(&input), HostView::parse(&input)) {
                (Ok(owned), Ok(view)) => prop_assert_eq!(view.to_owned(), owned),
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                (a, b) => prop_assert!(false, "disagreement on {:?}: owned={:?} view={:?}", input, a, b),
            }
        }
    }

    #[test]
    fn domain_normalises_case_and_root_dot() {
        let d = DomainName::parse("EBay.COM.").unwrap();
        assert_eq!(d.as_str(), "ebay.com");
    }

    #[test]
    fn domain_rejects_bad_labels() {
        assert!(DomainName::parse("").is_err());
        assert!(DomainName::parse("a..b").is_err());
        assert!(DomainName::parse("-foo.com").is_err());
        assert!(DomainName::parse("foo-.com").is_err());
        assert!(DomainName::parse("sp ace.com").is_err());
        let long_label = "a".repeat(64);
        assert!(DomainName::parse(&format!("{long_label}.com")).is_err());
        let long_name = format!("{}.com", "a.".repeat(130));
        assert!(DomainName::parse(&long_name).is_err());
    }

    #[test]
    fn domain_accepts_underscores_and_digits() {
        assert!(DomainName::parse("_dmarc.example.com").is_ok());
        assert!(DomainName::parse("1-movies.ir").is_ok());
        assert!(DomainName::parse("100-25-26-254.cprapid.com").is_ok());
    }

    #[test]
    fn localhost_detection() {
        assert!(DomainName::parse("localhost").unwrap().is_localhost());
        assert!(DomainName::parse("LOCALHOST").unwrap().is_localhost());
        assert!(DomainName::parse("api.localhost").unwrap().is_localhost());
        assert!(!DomainName::parse("localhost.com").unwrap().is_localhost());
        assert!(!DomainName::parse("notlocalhost").unwrap().is_localhost());
    }

    #[test]
    fn mdns_local_detection() {
        assert!(DomainName::parse("printer.local").unwrap().is_mdns_local());
        assert!(DomainName::parse("f0ae4f9a-2d4c.LOCAL")
            .unwrap()
            .is_mdns_local());
        assert!(!DomainName::parse("local.example.com")
            .unwrap()
            .is_mdns_local());
        assert!(!DomainName::parse("notlocal").unwrap().is_mdns_local());
        assert!(!DomainName::parse("mylocal.com").unwrap().is_mdns_local());
    }

    #[test]
    fn domain_view_mdns_local_matches_owned_without_allocating() {
        for s in [
            "printer.local",
            "Printer.LOCAL",
            "f0ae4f9a-2d4c-4a91.local.",
            "local.example.com",
            "notlocal",
            "mylocal.com",
            "localhost",
        ] {
            let owned = DomainName::parse(s).unwrap();
            let view = DomainView::parse(s).unwrap();
            assert_eq!(view.is_mdns_local(), owned.is_mdns_local(), "{s:?}");
        }
    }

    #[test]
    fn registrable_suffix() {
        assert_eq!(
            DomainName::parse("regstat.betfair.com")
                .unwrap()
                .registrable(),
            "betfair.com"
        );
        assert_eq!(
            DomainName::parse("ebay.com").unwrap().registrable(),
            "ebay.com"
        );
        assert_eq!(
            DomainName::parse("localhost").unwrap().registrable(),
            "localhost"
        );
        assert_eq!(
            DomainName::parse("a.b.c.d.example.org")
                .unwrap()
                .registrable(),
            "example.org"
        );
    }

    #[test]
    fn host_parses_each_shape() {
        assert_eq!(
            Host::parse("127.0.0.1").unwrap(),
            Host::Ipv4(Ipv4Addr::new(127, 0, 0, 1))
        );
        assert_eq!(
            Host::parse("[::1]").unwrap(),
            Host::Ipv6(Ipv6Addr::LOCALHOST)
        );
        assert!(matches!(
            Host::parse("example.com").unwrap(),
            Host::Domain(_)
        ));
    }

    #[test]
    fn host_rejects_malformed_literals() {
        assert!(Host::parse("[::1").is_err());
        assert!(Host::parse("1.2.3.4.5").is_err());
        assert!(Host::parse("1.2.3.999").is_err());
        assert!(Host::parse("").is_err());
    }

    #[test]
    fn host_display_round_trips() {
        for s in ["example.com", "10.0.0.200", "[::1]", "[fe80::1]"] {
            let h = Host::parse(s).unwrap();
            assert_eq!(Host::parse(&h.to_string()).unwrap(), h);
        }
    }

    #[test]
    fn host_view_agrees_with_owned_on_fixed_corpus() {
        let corpus = [
            "example.com",
            "EBay.COM.",
            "LOCALHOST",
            "api.localhost",
            "localhost.com",
            "f0ae4f9a-2d4c-4a91.local",
            "Printer.LOCAL",
            "localhost.local",
            "notlocal",
            "_dmarc.example.com",
            "127.0.0.1",
            "1.2.3.999",
            "1.2.3.4.5",
            "[::1]",
            "[::1",
            "[zzz]",
            "-foo.com",
            "foo-.com",
            "a..b",
            "sp ace.com",
            "",
            ".",
        ];
        for s in corpus {
            match (reference_host_parse(s), HostView::parse(s)) {
                (Ok(owned), Ok(view)) => {
                    assert_eq!(view.to_owned(), owned, "value for {s:?}");
                    assert_eq!(view.ip(), owned.ip(), "ip for {s:?}");
                }
                (Err(a), Err(b)) => assert_eq!(a, b, "error for {s:?}"),
                (a, b) => panic!("disagreement on {s:?}: owned={a:?} view={b:?}"),
            }
        }
    }

    #[test]
    fn domain_view_keeps_original_case_but_matches_owned_predicates() {
        let v = DomainView::parse("API.LocalHost.").unwrap();
        assert_eq!(v.as_str(), "API.LocalHost");
        assert!(v.is_localhost());
        assert_eq!(v.to_owned().as_str(), "api.localhost");
        assert!(!DomainView::parse("notlocalhost").unwrap().is_localhost());
        assert!(!DomainView::parse("localhost.com").unwrap().is_localhost());
    }
}
