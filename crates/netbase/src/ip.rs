//! IP address locality classification.
//!
//! The paper (§4) detects two kinds of local destinations:
//!
//! * **localhost** — the `localhost` domain and the loopback addresses
//!   `127.0.0.1`/the whole `127.0.0.0/8` block for IPv4 and `::1` for
//!   IPv6;
//! * **LAN** — the IANA-reserved private ranges of RFC 1918 for IPv4
//!   (`10.0.0.0/8`, `172.16.0.0/12`, `192.168.0.0/16`) and the unique
//!   local (`fc00::/7`) plus link-local (`fe80::/10`) ranges for IPv6.
//!
//! We additionally classify the adjacent special-purpose ranges
//! (link-local IPv4, CGNAT, benchmarking, multicast, …) so that the
//! detector can make a principled decision about every address it sees
//! rather than lumping everything unknown into "public".
//!
//! The classification here is written out explicitly against the IANA
//! special-purpose registries instead of delegating to `std`'s
//! `is_private`-style helpers, both because several of those helpers
//! are unstable and because the measurement semantics (what counts as
//! "LAN" for this study) must be pinned in one audited place.

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

use crate::host::{Host, HostView};

/// Locality of a network destination, from the point of view of the
/// browser's host machine.
///
/// ```
/// use kt_netbase::Locality;
///
/// assert!(Locality::of_ipv4("10.193.31.212".parse().unwrap()).is_private());
/// assert!(Locality::of_ipv4("127.0.0.1".parse().unwrap()).is_loopback());
/// assert_eq!(Locality::of_ipv4("8.8.8.8".parse().unwrap()), Locality::Public);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Locality {
    /// Loopback: `127.0.0.0/8`, `::1`, or the `localhost` name.
    Loopback,
    /// RFC 1918 private IPv4 or IPv6 unique-local (`fc00::/7`).
    Private,
    /// Link-local: `169.254.0.0/16` or `fe80::/10`.
    LinkLocal,
    /// Carrier-grade NAT shared space `100.64.0.0/10` (RFC 6598).
    CarrierGradeNat,
    /// `0.0.0.0`/`::` and the rest of `0.0.0.0/8`.
    Unspecified,
    /// Multicast ranges (`224.0.0.0/4`, `ff00::/8`).
    Multicast,
    /// Broadcast `255.255.255.255`.
    Broadcast,
    /// Documentation / benchmarking / reserved special ranges.
    Reserved,
    /// Everything else: a globally routable destination.
    Public,
}

impl Locality {
    /// Classify an IPv4 address against the IANA special-purpose
    /// registry, in most-specific-first order.
    pub fn of_ipv4(addr: Ipv4Addr) -> Locality {
        let o = addr.octets();
        if o == [255, 255, 255, 255] {
            return Locality::Broadcast;
        }
        match o[0] {
            0 => Locality::Unspecified,
            127 => Locality::Loopback,
            10 => Locality::Private,
            172 if (16..=31).contains(&o[1]) => Locality::Private,
            192 if o[1] == 168 => Locality::Private,
            169 if o[1] == 254 => Locality::LinkLocal,
            100 if (64..=127).contains(&o[1]) => Locality::CarrierGradeNat,
            224..=239 => Locality::Multicast,
            240..=255 => Locality::Reserved,
            // Documentation (TEST-NET-1/2/3) and benchmarking ranges.
            192 if o[1] == 0 && o[2] == 2 => Locality::Reserved,
            198 if o[1] == 51 && o[2] == 100 => Locality::Reserved,
            203 if o[1] == 0 && o[2] == 113 => Locality::Reserved,
            198 if o[1] == 18 || o[1] == 19 => Locality::Reserved,
            _ => Locality::Public,
        }
    }

    /// Classify an IPv6 address. IPv4-mapped addresses are classified
    /// by their embedded IPv4 address, since that is what the socket
    /// would actually reach.
    pub fn of_ipv6(addr: Ipv6Addr) -> Locality {
        if let Some(v4) = to_ipv4_mapped(addr) {
            return Locality::of_ipv4(v4);
        }
        if addr == Ipv6Addr::UNSPECIFIED {
            return Locality::Unspecified;
        }
        if addr == Ipv6Addr::LOCALHOST {
            return Locality::Loopback;
        }
        let seg = addr.segments();
        // fc00::/7 — unique local addresses, the IPv6 analogue of RFC 1918.
        if seg[0] & 0xfe00 == 0xfc00 {
            return Locality::Private;
        }
        // fe80::/10 — link local.
        if seg[0] & 0xffc0 == 0xfe80 {
            return Locality::LinkLocal;
        }
        // ff00::/8 — multicast.
        if seg[0] & 0xff00 == 0xff00 {
            return Locality::Multicast;
        }
        // 2001:db8::/32 — documentation.
        if seg[0] == 0x2001 && seg[1] == 0x0db8 {
            return Locality::Reserved;
        }
        Locality::Public
    }

    /// Classify either address family.
    pub fn of_ip(addr: IpAddr) -> Locality {
        match addr {
            IpAddr::V4(v4) => Locality::of_ipv4(v4),
            IpAddr::V6(v6) => Locality::of_ipv6(v6),
        }
    }

    /// Classify a parsed URL host. Domain names are local only if they
    /// are `localhost` or a `*.localhost` subdomain (per the IETF
    /// let-localhost-be-localhost convention that Chrome follows) or an
    /// RFC 6762 `*.local` mDNS name, which only resolves on the local
    /// link — WebRTC ICE candidates use these to obfuscate private
    /// addresses. Every other name is treated as public at this
    /// syntactic layer — resolution happens elsewhere.
    pub fn of_host(host: &Host) -> Locality {
        match host {
            Host::Ipv4(a) => Locality::of_ipv4(*a),
            Host::Ipv6(a) => Locality::of_ipv6(*a),
            Host::Domain(d) => {
                if d.is_localhost() {
                    Locality::Loopback
                } else if d.is_mdns_local() {
                    Locality::Private
                } else {
                    Locality::Public
                }
            }
        }
    }

    /// Classify a borrowed URL host — same table as [`Locality::of_host`].
    pub fn of_host_view(host: &HostView<'_>) -> Locality {
        match host {
            HostView::Ipv4(a) => Locality::of_ipv4(*a),
            HostView::Ipv6(a) => Locality::of_ipv6(*a),
            HostView::Domain(d) => {
                if d.is_localhost() {
                    Locality::Loopback
                } else if d.is_mdns_local() {
                    Locality::Private
                } else {
                    Locality::Public
                }
            }
        }
    }

    /// True for the two localities the paper reports on: loopback
    /// ("localhost" traffic) and private ("LAN" traffic).
    pub fn is_local(self) -> bool {
        matches!(self, Locality::Loopback | Locality::Private)
    }

    /// True only for loopback destinations.
    pub fn is_loopback(self) -> bool {
        self == Locality::Loopback
    }

    /// True only for RFC 1918 / unique-local destinations.
    pub fn is_private(self) -> bool {
        self == Locality::Private
    }

    /// Short stable label used in reports and the event store.
    pub fn label(self) -> &'static str {
        match self {
            Locality::Loopback => "loopback",
            Locality::Private => "private",
            Locality::LinkLocal => "link-local",
            Locality::CarrierGradeNat => "cgnat",
            Locality::Unspecified => "unspecified",
            Locality::Multicast => "multicast",
            Locality::Broadcast => "broadcast",
            Locality::Reserved => "reserved",
            Locality::Public => "public",
        }
    }
}

/// Return the embedded IPv4 address for `::ffff:a.b.c.d` mapped
/// addresses, `None` otherwise.
fn to_ipv4_mapped(addr: Ipv6Addr) -> Option<Ipv4Addr> {
    let seg = addr.segments();
    if seg[..5] == [0, 0, 0, 0, 0] && seg[5] == 0xffff {
        let o = addr.octets();
        Some(Ipv4Addr::new(o[12], o[13], o[14], o[15]))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v4(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn v6(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    #[test]
    fn loopback_block_is_whole_slash_eight() {
        assert_eq!(Locality::of_ipv4(v4("127.0.0.1")), Locality::Loopback);
        assert_eq!(Locality::of_ipv4(v4("127.0.0.53")), Locality::Loopback);
        assert_eq!(Locality::of_ipv4(v4("127.255.255.254")), Locality::Loopback);
        assert_eq!(Locality::of_ipv4(v4("128.0.0.1")), Locality::Public);
        assert_eq!(Locality::of_ipv4(v4("126.255.255.255")), Locality::Public);
    }

    #[test]
    fn rfc1918_ranges() {
        // 10/8
        assert_eq!(Locality::of_ipv4(v4("10.0.0.0")), Locality::Private);
        assert_eq!(Locality::of_ipv4(v4("10.193.31.212")), Locality::Private);
        assert_eq!(Locality::of_ipv4(v4("10.255.255.255")), Locality::Private);
        assert_eq!(Locality::of_ipv4(v4("11.0.0.0")), Locality::Public);
        assert_eq!(Locality::of_ipv4(v4("9.255.255.255")), Locality::Public);
        // 172.16/12
        assert_eq!(Locality::of_ipv4(v4("172.16.0.0")), Locality::Private);
        assert_eq!(Locality::of_ipv4(v4("172.26.6.230")), Locality::Private);
        assert_eq!(Locality::of_ipv4(v4("172.31.255.255")), Locality::Private);
        assert_eq!(Locality::of_ipv4(v4("172.15.255.255")), Locality::Public);
        assert_eq!(Locality::of_ipv4(v4("172.32.0.0")), Locality::Public);
        // 192.168/16
        assert_eq!(Locality::of_ipv4(v4("192.168.0.0")), Locality::Private);
        assert_eq!(Locality::of_ipv4(v4("192.168.64.160")), Locality::Private);
        assert_eq!(Locality::of_ipv4(v4("192.168.255.255")), Locality::Private);
        assert_eq!(Locality::of_ipv4(v4("192.167.255.255")), Locality::Public);
        assert_eq!(Locality::of_ipv4(v4("192.169.0.0")), Locality::Public);
    }

    #[test]
    fn paper_lan_addresses_classify_private() {
        // Every LAN address appearing in Tables 6, 9 and 10 of the paper.
        for s in [
            "10.193.31.212",
            "10.10.34.35",
            "10.156.2.50",
            "10.0.0.200",
            "192.168.64.160",
            "10.0.20.16",
            "192.168.0.208",
            "10.2.70.15",
            "192.168.0.226",
            "192.168.1.8",
            "192.168.33.10",
            "172.26.6.230",
            "172.16.205.110",
            "10.10.34.34",
            "192.168.8.241",
            "192.168.110.72",
            "10.50.1.242",
            "192.168.33.187",
            "172.16.0.4",
            "192.168.0.120",
        ] {
            assert_eq!(Locality::of_ipv4(v4(s)), Locality::Private, "{s}");
        }
    }

    #[test]
    fn special_ranges() {
        assert_eq!(Locality::of_ipv4(v4("0.0.0.0")), Locality::Unspecified);
        assert_eq!(Locality::of_ipv4(v4("0.1.2.3")), Locality::Unspecified);
        assert_eq!(Locality::of_ipv4(v4("169.254.1.1")), Locality::LinkLocal);
        assert_eq!(Locality::of_ipv4(v4("169.253.1.1")), Locality::Public);
        assert_eq!(
            Locality::of_ipv4(v4("100.64.0.1")),
            Locality::CarrierGradeNat
        );
        assert_eq!(
            Locality::of_ipv4(v4("100.127.255.255")),
            Locality::CarrierGradeNat
        );
        assert_eq!(Locality::of_ipv4(v4("100.128.0.0")), Locality::Public);
        assert_eq!(Locality::of_ipv4(v4("100.63.255.255")), Locality::Public);
        assert_eq!(Locality::of_ipv4(v4("224.0.0.1")), Locality::Multicast);
        assert_eq!(
            Locality::of_ipv4(v4("239.255.255.255")),
            Locality::Multicast
        );
        assert_eq!(Locality::of_ipv4(v4("240.0.0.1")), Locality::Reserved);
        assert_eq!(
            Locality::of_ipv4(v4("255.255.255.255")),
            Locality::Broadcast
        );
    }

    #[test]
    fn ipv6_classification() {
        assert_eq!(Locality::of_ipv6(v6("::1")), Locality::Loopback);
        assert_eq!(Locality::of_ipv6(v6("::")), Locality::Unspecified);
        assert_eq!(Locality::of_ipv6(v6("fc00::1")), Locality::Private);
        assert_eq!(Locality::of_ipv6(v6("fd12:3456::1")), Locality::Private);
        assert_eq!(Locality::of_ipv6(v6("fe80::1")), Locality::LinkLocal);
        assert_eq!(Locality::of_ipv6(v6("febf::1")), Locality::LinkLocal);
        assert_eq!(Locality::of_ipv6(v6("fec0::1")), Locality::Public);
        assert_eq!(Locality::of_ipv6(v6("ff02::1")), Locality::Multicast);
        assert_eq!(Locality::of_ipv6(v6("2001:db8::1")), Locality::Reserved);
        assert_eq!(Locality::of_ipv6(v6("2607:f8b0::1")), Locality::Public);
    }

    #[test]
    fn ipv4_mapped_ipv6_uses_embedded_address() {
        assert_eq!(
            Locality::of_ipv6(v6("::ffff:127.0.0.1")),
            Locality::Loopback
        );
        assert_eq!(Locality::of_ipv6(v6("::ffff:10.0.0.1")), Locality::Private);
        assert_eq!(Locality::of_ipv6(v6("::ffff:8.8.8.8")), Locality::Public);
    }

    #[test]
    fn is_local_covers_exactly_the_paper_categories() {
        assert!(Locality::Loopback.is_local());
        assert!(Locality::Private.is_local());
        for l in [
            Locality::LinkLocal,
            Locality::CarrierGradeNat,
            Locality::Unspecified,
            Locality::Multicast,
            Locality::Broadcast,
            Locality::Reserved,
            Locality::Public,
        ] {
            assert!(!l.is_local(), "{l:?}");
        }
    }

    #[test]
    fn mdns_local_names_classify_private_in_both_paths() {
        // Regression: ICE candidates carry mDNS-obfuscated `.local`
        // hostnames instead of raw private addresses; they must
        // classify as local (Private) through the borrowed path
        // without allocating, and identically through the owned path.
        for s in ["f0ae4f9a-2d4c-4a91.local", "Printer.LOCAL", "a.b.local"] {
            let owned = Host::parse(s).unwrap();
            let view = HostView::parse(s).unwrap();
            assert_eq!(Locality::of_host(&owned), Locality::Private, "{s}");
            assert_eq!(Locality::of_host_view(&view), Locality::Private, "{s}");
            assert!(Locality::of_host_view(&view).is_local(), "{s}");
        }
        for s in ["local.example.com", "mylocal.com", "example.com"] {
            let owned = Host::parse(s).unwrap();
            let view = HostView::parse(s).unwrap();
            assert_eq!(Locality::of_host(&owned), Locality::Public, "{s}");
            assert_eq!(Locality::of_host_view(&view), Locality::Public, "{s}");
        }
        // `.localhost` still wins over the mDNS rule's suffix logic.
        let lh = Host::parse("api.localhost").unwrap();
        assert_eq!(Locality::of_host(&lh), Locality::Loopback);
    }

    #[test]
    fn labels_are_unique() {
        let all = [
            Locality::Loopback,
            Locality::Private,
            Locality::LinkLocal,
            Locality::CarrierGradeNat,
            Locality::Unspecified,
            Locality::Multicast,
            Locality::Broadcast,
            Locality::Reserved,
            Locality::Public,
        ];
        let mut labels: Vec<_> = all.iter().map(|l| l.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), all.len());
    }
}
