//! Property tests for the simulated network substrate.

use kt_netbase::Locality;
use kt_simnet::dns::{DnsRecord, DnsResolver};
use kt_simnet::LatencyModel;
use proptest::prelude::*;
use std::net::{IpAddr, Ipv4Addr};

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
}
