//! Simulated DNS.
//!
//! Table 1 of the paper attributes ~88–90% of all crawl failures to
//! `NAME_NOT_RESOLVED`; the DNS layer is therefore the single most
//! important failure source to model. The resolver supports positive
//! records, authoritative NXDOMAIN, server failure, and timeout, plus a
//! TTL cache (so repeated visits inside one crawl behave like a real
//! stub resolver).

use std::collections::HashMap;
use std::net::IpAddr;

use crate::clock::SimTime;

/// Outcome configured for a DNS name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DnsRecord {
    /// The name resolves to this address.
    A(IpAddr),
    /// Authoritative name error (the domain does not exist) — the
    /// paper's dominant failure class.
    NxDomain,
    /// SERVFAIL from the authoritative side.
    ServFail,
    /// Queries are silently dropped until the stub resolver gives up.
    Timeout,
}

/// Resolution errors, mapped by the browser onto Chrome net errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DnsError {
    /// NXDOMAIN or an unregistered name.
    NxDomain,
    /// SERVFAIL.
    ServFail,
    /// Query timeout.
    Timeout,
    /// The record's address data does not parse as an IP address — a
    /// corrupt zone entry. Surfaced as a typed error at zone-load time
    /// instead of a panic inside the resolver.
    MalformedRecord,
}

impl DnsRecord {
    /// Parse an A/AAAA record from its textual address data. Returns
    /// [`DnsError::MalformedRecord`] instead of panicking when the
    /// data is not a valid IPv4 or IPv6 address.
    pub fn parse_a(data: &str) -> Result<DnsRecord, DnsError> {
        data.trim()
            .parse::<IpAddr>()
            .map(DnsRecord::A)
            .map_err(|_| DnsError::MalformedRecord)
    }
}

/// One cache entry.
#[derive(Debug, Clone)]
struct CacheEntry {
    result: Result<IpAddr, DnsError>,
    expires_at: SimTime,
}

/// A caching stub resolver over a static zone table.
#[derive(Debug, Default)]
pub struct DnsResolver {
    zone: HashMap<String, DnsRecord>,
    cache: HashMap<String, CacheEntry>,
    positive_ttl_ms: u64,
    negative_ttl_ms: u64,
    /// Total queries answered from the zone (cache misses).
    pub authoritative_queries: u64,
    /// Total queries answered from cache.
    pub cache_hits: u64,
}

impl DnsResolver {
    /// An empty resolver with Chrome-like TTL behaviour (Chrome caps
    /// positive cache entries at 60 s regardless of record TTL).
    pub fn new() -> DnsResolver {
        DnsResolver {
            zone: HashMap::new(),
            cache: HashMap::new(),
            positive_ttl_ms: 60_000,
            negative_ttl_ms: 5_000,
            authoritative_queries: 0,
            cache_hits: 0,
        }
    }

    /// Register a record; replaces any existing record for the name.
    /// Names are normalised to lower-case.
    pub fn insert(&mut self, name: &str, record: DnsRecord) {
        self.zone.insert(name.to_ascii_lowercase(), record);
    }

    /// Register an address record from textual data (the shape zone
    /// files and capture replays arrive in). Malformed address data is
    /// a typed [`DnsError::MalformedRecord`], never a panic, and the
    /// zone is left unchanged on error.
    pub fn insert_a(&mut self, name: &str, data: &str) -> Result<(), DnsError> {
        let record = DnsRecord::parse_a(data)?;
        self.insert(name, record);
        Ok(())
    }

    /// Number of registered names.
    pub fn len(&self) -> usize {
        self.zone.len()
    }

    /// True if the zone is empty.
    pub fn is_empty(&self) -> bool {
        self.zone.is_empty()
    }

    /// Resolve a name at a point in simulated time.
    ///
    /// Unregistered names are NXDOMAIN: the simulated Internet is a
    /// closed world, exactly like the paper's parsed-and-stored
    /// telemetry database.
    pub fn resolve(&mut self, name: &str, now: SimTime) -> Result<IpAddr, DnsError> {
        let key = name.to_ascii_lowercase();
        if let Some(entry) = self.cache.get(&key) {
            if entry.expires_at > now {
                self.cache_hits += 1;
                return entry.result;
            }
        }
        self.authoritative_queries += 1;
        let result = match self.zone.get(&key) {
            Some(DnsRecord::A(addr)) => Ok(*addr),
            Some(DnsRecord::NxDomain) | None => Err(DnsError::NxDomain),
            Some(DnsRecord::ServFail) => Err(DnsError::ServFail),
            Some(DnsRecord::Timeout) => Err(DnsError::Timeout),
        };
        let ttl = if result.is_ok() {
            self.positive_ttl_ms
        } else {
            self.negative_ttl_ms
        };
        self.cache.insert(
            key,
            CacheEntry {
                result,
                expires_at: now + ttl,
            },
        );
        result
    }

    /// Drop all cached entries (a new browser profile).
    pub fn flush_cache(&mut self) {
        self.cache.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Record data goes through the typed parse path — a malformed
    /// literal here is a test failure with a message, not a panic deep
    /// inside an `unwrap` on address data.
    fn ip(s: &str) -> IpAddr {
        match DnsRecord::parse_a(s) {
            Ok(DnsRecord::A(addr)) => addr,
            other => panic!("test record {s:?} did not parse: {other:?}"),
        }
    }

    #[test]
    fn malformed_record_data_is_a_typed_error_not_a_panic() {
        for bad in ["", "not-an-ip", "999.1.2.3", "1.2.3", "1.2.3.4.5", "[::1"] {
            assert_eq!(
                DnsRecord::parse_a(bad),
                Err(DnsError::MalformedRecord),
                "{bad:?} must be rejected as malformed"
            );
        }
        let mut r = DnsResolver::new();
        assert_eq!(
            r.insert_a("corrupt.example", "999.999.999.999"),
            Err(DnsError::MalformedRecord)
        );
        // The zone is untouched by the failed insert: the name still
        // answers NXDOMAIN, not a stale or half-written record.
        assert_eq!(r.len(), 0);
        assert_eq!(r.resolve("corrupt.example", 0), Err(DnsError::NxDomain));
    }

    #[test]
    fn insert_a_accepts_v4_and_v6_data() {
        let mut r = DnsResolver::new();
        r.insert_a("four.example", "93.184.216.34").unwrap();
        r.insert_a("six.example", "::1").unwrap();
        assert_eq!(r.resolve("four.example", 0), Ok(ip("93.184.216.34")));
        assert_eq!(r.resolve("six.example", 0), Ok(ip("::1")));
    }

    #[test]
    fn positive_resolution() {
        let mut r = DnsResolver::new();
        r.insert("example.com", DnsRecord::A(ip("93.184.216.34")));
        assert_eq!(r.resolve("example.com", 0), Ok(ip("93.184.216.34")));
        // Case-insensitive.
        assert_eq!(r.resolve("EXAMPLE.com", 0), Ok(ip("93.184.216.34")));
    }

    #[test]
    fn unregistered_names_are_nxdomain() {
        let mut r = DnsResolver::new();
        assert_eq!(r.resolve("no-such.example", 0), Err(DnsError::NxDomain));
    }

    #[test]
    fn failure_modes() {
        let mut r = DnsResolver::new();
        r.insert("dead.example", DnsRecord::NxDomain);
        r.insert("broken.example", DnsRecord::ServFail);
        r.insert("slow.example", DnsRecord::Timeout);
        assert_eq!(r.resolve("dead.example", 0), Err(DnsError::NxDomain));
        assert_eq!(r.resolve("broken.example", 0), Err(DnsError::ServFail));
        assert_eq!(r.resolve("slow.example", 0), Err(DnsError::Timeout));
    }

    #[test]
    fn cache_hits_within_ttl() {
        let mut r = DnsResolver::new();
        r.insert("example.com", DnsRecord::A(ip("1.2.3.4")));
        r.resolve("example.com", 0).unwrap();
        r.resolve("example.com", 30_000).unwrap();
        assert_eq!(r.authoritative_queries, 1);
        assert_eq!(r.cache_hits, 1);
        // Past the 60 s positive TTL: re-query.
        r.resolve("example.com", 61_000).unwrap();
        assert_eq!(r.authoritative_queries, 2);
    }

    #[test]
    fn negative_cache_is_shorter() {
        let mut r = DnsResolver::new();
        let _ = r.resolve("missing.example", 0);
        let _ = r.resolve("missing.example", 2_000);
        assert_eq!(r.authoritative_queries, 1, "negative hit cached");
        let _ = r.resolve("missing.example", 6_000);
        assert_eq!(r.authoritative_queries, 2, "negative entry expired");
    }

    #[test]
    fn record_updates_take_effect_after_expiry() {
        let mut r = DnsResolver::new();
        r.insert("moving.example", DnsRecord::A(ip("1.1.1.1")));
        assert_eq!(r.resolve("moving.example", 0), Ok(ip("1.1.1.1")));
        r.insert("moving.example", DnsRecord::A(ip("2.2.2.2")));
        // Cached answer persists…
        assert_eq!(r.resolve("moving.example", 1_000), Ok(ip("1.1.1.1")));
        // …until flushed or expired.
        r.flush_cache();
        assert_eq!(r.resolve("moving.example", 1_000), Ok(ip("2.2.2.2")));
    }
}
