//! Property-based tests for the netbase vocabulary and its seeded hash.

use std::fmt;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

use kt_netbase::rng;
use kt_netbase::{Host, Locality, Scheme, Url};
use proptest::prelude::*;

/// Oracle for RFC 1918 + special ranges using raw integer arithmetic,
/// independent of the octet-pattern implementation under test.
#[allow(clippy::if_same_then_else)] // two Reserved branches cover distinct ranges
fn oracle_v4(addr: Ipv4Addr) -> Locality {
    let n = u32::from(addr);
    let in_range = |lo: &str, hi: &str| {
        n >= u32::from(lo.parse::<Ipv4Addr>().unwrap())
            && n <= u32::from(hi.parse::<Ipv4Addr>().unwrap())
    };
    if n == u32::MAX {
        Locality::Broadcast
    } else if in_range("0.0.0.0", "0.255.255.255") {
        Locality::Unspecified
    } else if in_range("127.0.0.0", "127.255.255.255") {
        Locality::Loopback
    } else if in_range("10.0.0.0", "10.255.255.255")
        || in_range("172.16.0.0", "172.31.255.255")
        || in_range("192.168.0.0", "192.168.255.255")
    {
        Locality::Private
    } else if in_range("169.254.0.0", "169.254.255.255") {
        Locality::LinkLocal
    } else if in_range("100.64.0.0", "100.127.255.255") {
        Locality::CarrierGradeNat
    } else if in_range("224.0.0.0", "239.255.255.255") {
        Locality::Multicast
    } else if in_range("240.0.0.0", "255.255.255.254") {
        Locality::Reserved
    } else if in_range("192.0.2.0", "192.0.2.255")
        || in_range("198.51.100.0", "198.51.100.255")
        || in_range("203.0.113.0", "203.0.113.255")
        || in_range("198.18.0.0", "198.19.255.255")
    {
        Locality::Reserved
    } else {
        Locality::Public
    }
}

/// A label written in pieces, the way `format_args!` writes a
/// composite label: one `write_str` per piece, empty pieces included.
struct Pieces<'a>(&'a [String]);

impl fmt::Display for Pieces<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.iter().try_for_each(|piece| f.write_str(piece))
    }
}

/// Every split of `label` into three pieces at two char boundaries
/// hashes like the whole string: the splits put a piece boundary at
/// every offset within, and across, every 8-byte lane.
#[test]
fn streamed_hash_equals_the_formatted_hash_at_every_split() {
    let label = "resp:https://cdn0.ktstatic.net/lib/é€😀/resource3.js";
    let cuts: Vec<usize> = (0..=label.len())
        .filter(|&i| label.is_char_boundary(i))
        .collect();
    for seed in [0, 7, u64::MAX] {
        let whole = rng::hash_bytes(seed, label.as_bytes());
        assert_eq!(rng::hash_str(seed, label), whole);
        for &i in &cuts {
            for &j in cuts.iter().filter(|&&j| j >= i) {
                let pieces = [&label[..i], &label[i..j], &label[j..]].map(String::from);
                assert_eq!(
                    rng::hash_str(seed, Pieces(&pieces)),
                    whole,
                    "cut at {i}, {j}"
                );
            }
        }
    }
    assert_eq!(rng::hash_str(3, ""), rng::hash_bytes(3, b""));
    let (addr, port) = (IpAddr::V4(Ipv4Addr::new(192, 168, 0, 1)), 8080);
    assert_eq!(
        rng::hash_str(3, format_args!("tcp:{addr}:{port}")),
        rng::hash_bytes(3, format!("tcp:{addr}:{port}").as_bytes())
    );
}

/// `to_unit` maps the whole `u64` range into `[0, 1)`: 0 to 0, and
/// `u64::MAX` to the largest `f64` below 1, never to 1 itself.
#[test]
fn unit_float_spans_zero_to_just_below_one() {
    assert_eq!(rng::to_unit(0), 0.0);
    let top = rng::to_unit(u64::MAX);
    assert!(top < 1.0, "{top}");
    assert_eq!(top, 1.0 - f64::EPSILON / 2.0);
}

proptest! {
    #[test]
    fn ipv4_classification_matches_integer_oracle(n in any::<u32>()) {
        let addr = Ipv4Addr::from(n);
        prop_assert_eq!(Locality::of_ipv4(addr), oracle_v4(addr));
    }

    #[test]
    fn ipv4_mapped_v6_agrees_with_v4(n in any::<u32>()) {
        let v4 = Ipv4Addr::from(n);
        let v6 = v4.to_ipv6_mapped();
        prop_assert_eq!(Locality::of_ipv6(v6), Locality::of_ipv4(v4));
    }

    #[test]
    fn ipv6_classification_is_total(segments in any::<[u16; 8]>()) {
        // Must never panic and must return one of the defined classes.
        let addr = Ipv6Addr::new(
            segments[0], segments[1], segments[2], segments[3],
            segments[4], segments[5], segments[6], segments[7],
        );
        let _ = Locality::of_ipv6(addr).label();
    }

    #[test]
    fn url_display_parse_round_trip(
        scheme_idx in 0usize..4,
        host_kind in 0usize..3,
        v4 in any::<u32>(),
        v6 in any::<[u16; 8]>(),
        label_a in "[a-z][a-z0-9]{0,10}",
        label_b in "[a-z]{2,5}",
        port in proptest::option::of(1u16..),
        path_seg in "[a-zA-Z0-9._-]{0,12}",
        query in proptest::option::of("[a-z]=[0-9]{1,4}"),
    ) {
        let scheme = Scheme::ALL[scheme_idx];
        let host = match host_kind {
            0 => Host::Ipv4(Ipv4Addr::from(v4)),
            1 => Host::Ipv6(Ipv6Addr::new(v6[0], v6[1], v6[2], v6[3], v6[4], v6[5], v6[6], v6[7])),
            _ => Host::domain_unchecked(&format!("{label_a}.{label_b}")),
        };
        let path = format!("/{path_seg}");
        let mut text = format!("{scheme}://{host}");
        if let Some(p) = port {
            text.push_str(&format!(":{p}"));
        }
        text.push_str(&path);
        if let Some(q) = &query {
            text.push_str(&format!("?{q}"));
        }
        let url = Url::parse(&text).unwrap();
        prop_assert_eq!(url.to_string(), text.clone());
        prop_assert_eq!(Url::parse(&url.to_string()).unwrap(), url);
    }

    #[test]
    fn url_parser_never_panics(input in "\\PC{0,80}") {
        let _ = Url::parse(&input);
    }

    #[test]
    fn host_parser_never_panics(input in "\\PC{0,60}") {
        let _ = Host::parse(&input);
    }

    #[test]
    fn parsed_host_round_trips(input in "[a-z0-9.-]{1,40}") {
        if let Ok(h) = Host::parse(&input) {
            prop_assert_eq!(Host::parse(&h.to_string()).unwrap(), h);
        }
    }

    #[test]
    fn effective_port_defaults_by_scheme(scheme_idx in 0usize..4) {
        let scheme = Scheme::ALL[scheme_idx];
        let url = Url::parse(&format!("{scheme}://example.com/")).unwrap();
        prop_assert_eq!(url.port(), scheme.default_port());
    }

    #[test]
    fn locality_of_local_urls_is_local(port in 1u16.., private_kind in 0usize..4) {
        let host = match private_kind {
            0 => "127.0.0.1".to_string(),
            1 => "localhost".to_string(),
            2 => "10.1.2.3".to_string(),
            _ => "192.168.1.1".to_string(),
        };
        let url = Url::parse(&format!("http://{host}:{port}/")).unwrap();
        prop_assert!(url.is_local());
    }

    /// FNV-1a continued over the pieces of a byte string, cut at up to
    /// three places, equals one pass over the whole: the telemetry
    /// store hashes its shard key (crawl id, domain, OS slot) this way.
    #[test]
    fn fnv1a_continued_over_any_split_equals_one_pass(
        bytes in proptest::collection::vec(any::<u8>(), 0..48),
        cuts in proptest::collection::vec(0usize..49, 0..4),
    ) {
        let whole = rng::fnv1a(rng::FNV_OFFSET, &bytes);
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(bytes.len())).collect();
        cuts.sort_unstable();
        let mut h = rng::FNV_OFFSET;
        let mut from = 0;
        for cut in cuts.into_iter().chain([bytes.len()]) {
            h = rng::fnv1a(h, &bytes[from..cut]);
            from = cut;
        }
        prop_assert_eq!(h, whole);
    }

    #[test]
    fn streamed_label_hash_equals_hash_bytes_of_the_formatted_label(
        seed in any::<u64>(),
        pieces in proptest::collection::vec("[a-z0-9:./é€😀]{0,19}", 0..8),
    ) {
        let formatted = pieces.concat();
        prop_assert_eq!(
            rng::hash_str(seed, Pieces(&pieces)),
            rng::hash_bytes(seed, formatted.as_bytes())
        );
        prop_assert_eq!(
            rng::unit(seed, Pieces(&pieces)),
            rng::unit(seed, formatted.as_str())
        );
    }

    #[test]
    fn hash_sampling_is_stable_and_in_range(seed in any::<u64>(), label in "[ -~]{0,40}") {
        prop_assert_eq!(rng::hash_str(seed, &label), rng::hash_str(seed, &label));
        let u = rng::unit(seed, &label);
        prop_assert!((0.0..1.0).contains(&u));
        let r = rng::range(seed, &label, 5.0, 9.0);
        prop_assert!((5.0..9.0).contains(&r));
        if !label.is_empty() {
            let p = rng::pick(seed, &label, 7);
            prop_assert!(p < 7);
        }
    }
}
