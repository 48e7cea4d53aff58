//! Connection latency by destination class.
//!
//! Latency only needs to be *plausible* and *deterministic*: the
//! paper's timing analysis (Figures 5–7) is dominated by when scripts
//! fire, not by network RTT, but the BIG-IP bot-defence timing side
//! channel (§4.3.2) depends on refused-connection responses returning
//! much faster than timeouts, so the model distinguishes those cases.

use std::fmt::Display;

use kt_netbase::Locality;

use crate::rng;

/// Deterministic latency sampler.
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencyModel {
    seed: u64,
}

impl LatencyModel {
    /// Build a model for a run seed.
    pub fn new(seed: u64) -> LatencyModel {
        LatencyModel { seed }
    }

    // Every key below is any `Display` value: a `&str`, or
    // `format_args!` of an address and port. Keys are streamed into
    // the seeded hash (`rng`), never formatted into a string.

    /// DNS resolution latency in ms for a name (cache misses).
    pub fn dns_ms(&self, name: impl Display) -> u64 {
        rng::range(self.seed, format_args!("dns:{name}"), 5.0, 120.0) as u64
    }

    /// TCP connect latency in ms to an address of the given locality.
    pub fn connect_ms(&self, locality: Locality, key: impl Display) -> u64 {
        let (lo, hi) = match locality {
            Locality::Loopback => (0.0, 2.0),
            Locality::Private | Locality::LinkLocal => (1.0, 6.0),
            _ => (15.0, 180.0),
        };
        rng::range(self.seed, format_args!("tcp:{key}"), lo, hi) as u64
    }

    /// Additional TLS handshake latency in ms (~1 extra RTT).
    pub fn tls_ms(&self, locality: Locality, key: impl Display) -> u64 {
        self.connect_ms(locality, format_args!("tls:{key}")).max(1)
    }

    /// Server think-time plus first-byte latency in ms.
    pub fn response_ms(&self, key: impl Display) -> u64 {
        rng::range(self.seed, format_args!("resp:{key}"), 2.0, 90.0) as u64
    }

    /// How long a connect to a dead port takes to *refuse* — fast,
    /// because the host answers with RST. This is the side channel the
    /// BIG-IP script reads.
    pub fn refused_ms(&self, locality: Locality, key: impl Display) -> u64 {
        self.connect_ms(locality, format_args!("refused:{key}"))
            .max(1)
    }

    /// The connect timeout for silently dropped packets, in ms.
    pub fn timeout_ms(&self) -> u64 {
        // Chrome's TCP connect attempt timeout is in the tens of
        // seconds; the crawl window (20 s) always expires first.
        30_000
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_key() {
        let m = LatencyModel::new(7);
        assert_eq!(m.dns_ms("ebay.com"), m.dns_ms("ebay.com"));
        assert_eq!(
            m.connect_ms(Locality::Public, "1.2.3.4:443"),
            m.connect_ms(Locality::Public, "1.2.3.4:443")
        );
        let other = LatencyModel::new(8);
        // Different seeds should (almost always) differ somewhere.
        let differs = (0..64).any(|i| {
            let k = format!("k{i}");
            m.dns_ms(&k) != other.dns_ms(&k)
        });
        assert!(differs);
    }

    #[test]
    fn local_destinations_are_faster_than_public() {
        let m = LatencyModel::new(1);
        for i in 0..100 {
            let key = format!("addr{i}");
            let loopback = m.connect_ms(Locality::Loopback, &key);
            let public = m.connect_ms(Locality::Public, &key);
            assert!(loopback <= 2);
            assert!((15..180).contains(&(public as i64)), "{public}");
        }
    }

    #[test]
    fn refusal_beats_timeout_by_orders_of_magnitude() {
        let m = LatencyModel::new(1);
        let refused = m.refused_ms(Locality::Loopback, "localhost:4444");
        assert!(refused * 100 < m.timeout_ms());
    }
}
