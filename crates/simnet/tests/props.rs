//! Property tests for the simulated network substrate.

use kt_netbase::Locality;
use kt_simnet::dns::{DnsRecord, DnsResolver};
use kt_simnet::rng;
use kt_simnet::LatencyModel;
use proptest::prelude::*;
use std::fmt;
use std::net::{IpAddr, Ipv4Addr};

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

proptest! {
    #[test]
    fn dns_cache_never_changes_answers_within_ttl(
        names in proptest::collection::vec("[a-z]{2,10}", 1..20),
        queries in proptest::collection::vec((0usize..20, 0u64..50_000), 1..60),
    ) {
        let mut resolver = DnsResolver::new();
        for (i, name) in names.iter().enumerate() {
            let record = match i % 4 {
                0 => DnsRecord::A(IpAddr::V4(Ipv4Addr::new(93, 184, (i % 250) as u8, 1))),
                1 => DnsRecord::NxDomain,
                2 => DnsRecord::ServFail,
                _ => DnsRecord::Timeout,
            };
            resolver.insert(&format!("{name}{i}.example"), record);
        }
        // Within any monotone query sequence, the same name at the
        // same (or nearby, pre-TTL) time gives the same answer.
        let mut seen: std::collections::HashMap<String, _> = Default::default();
        let mut sorted = queries.clone();
        sorted.sort_by_key(|(_, t)| *t);
        for (idx, t) in sorted {
            let name = format!("{}{}.example", names[idx % names.len()], idx % names.len());
            let answer = resolver.resolve(&name, t);
            if let Some((prev_t, prev_a)) = seen.get(&name) {
                let ttl = if answer.is_ok() { 60_000 } else { 5_000 };
                if t - prev_t < ttl {
                    prop_assert_eq!(&answer, prev_a, "{} at {}", name, t);
                    continue;
                }
            }
            seen.insert(name, (t, answer));
        }
    }

    #[test]
    fn latency_is_deterministic_and_ordered(seed in any::<u64>(), key in "[a-z0-9:.]{1,30}") {
        let m = LatencyModel::new(seed);
        prop_assert_eq!(m.connect_ms(Locality::Loopback, &key), m.connect_ms(Locality::Loopback, &key));
        // Loopback never slower than the public floor.
        prop_assert!(m.connect_ms(Locality::Loopback, &key) <= 2);
        let public = m.connect_ms(Locality::Public, &key);
        prop_assert!((15..180).contains(&(public as i64)));
        prop_assert!(m.refused_ms(Locality::Loopback, &key) < m.timeout_ms());
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
