//! Deterministic synthetic domain-name generation.
//!
//! The forge produces plausible, collision-free domain names for each
//! population: generic sites, category-flavoured sites (shops, banks,
//! games…), and phishing names that impersonate a target brand the way
//! the paper's cloned phishing pages did (`customer-ebay.com` for
//! `ebay.com`, Table 8).

use kt_netbase::DomainName;

/// Deterministic name generator. All methods are pure functions of the
/// forge seed and the caller-supplied index, so names are stable across
/// runs and independent of generation order.
#[derive(Debug, Clone, Copy)]
pub struct NameForge {
    seed: u64,
}

const SYLLABLES: [&str; 24] = [
    "ka", "lo", "mi", "ter", "ven", "sol", "pra", "net", "dex", "ful", "gor", "han", "qui", "ras",
    "tek", "ulm", "vio", "wex", "yon", "zet", "bri", "cam", "dro", "fen",
];

const GENERIC_TLDS: [&str; 10] = [
    "com", "net", "org", "info", "io", "co", "biz", "xyz", "online", "site",
];

const COUNTRY_TLDS: [&str; 12] = [
    "de", "fr", "co.uk", "com.au", "it", "ca", "ru", "ir", "cn", "com.br", "co.kr", "ac.id",
];

const CATEGORY_PREFIXES: [(&str, &str); 8] = [
    ("shop", "store"),
    ("bank", "pay"),
    ("game", "play"),
    ("news", "daily"),
    ("media", "stream"),
    ("gov", "portal"),
    ("edu", "academy"),
    ("blog", "hub"),
];

fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl NameForge {
    /// A forge for a run seed.
    pub fn new(seed: u64) -> NameForge {
        NameForge { seed }
    }

    fn h(&self, salt: u64, index: u64) -> u64 {
        mix(mix(self.seed ^ salt) ^ index)
    }

    /// A generic second-level label of 2–4 syllables for index `i`.
    fn label(&self, salt: u64, i: u64) -> String {
        let h = self.h(salt, i);
        let n = 2 + (h % 3) as usize;
        let mut s = String::new();
        for k in 0..n {
            s.push_str(SYLLABLES[((h >> (8 * k)) % SYLLABLES.len() as u64) as usize]);
        }
        // Suffix the index in base36 to guarantee uniqueness.
        s.push_str(&to_base36(i));
        s
    }

    /// A generic domain (`ventersol7k.com`) for index `i`.
    pub fn generic(&self, i: u64) -> DomainName {
        let h = self.h(0x01, i);
        let tld = if h.is_multiple_of(5) {
            COUNTRY_TLDS[(h >> 16) as usize % COUNTRY_TLDS.len()]
        } else {
            GENERIC_TLDS[(h >> 16) as usize % GENERIC_TLDS.len()]
        };
        DomainName::parse(&format!("{}.{tld}", self.label(0x01, i))).expect("generated name valid")
    }

    /// A category-flavoured domain (`shopkalo3.com`, `bankwex9.io`).
    pub fn themed(&self, category: usize, i: u64) -> DomainName {
        let (a, b) = CATEGORY_PREFIXES[category % CATEGORY_PREFIXES.len()];
        let h = self.h(0x02 ^ category as u64, i);
        let prefix = if h.is_multiple_of(2) { a } else { b };
        let tld = GENERIC_TLDS[(h >> 16) as usize % GENERIC_TLDS.len()];
        DomainName::parse(&format!("{prefix}{}.{tld}", self.label(0x02, i)))
            .expect("generated name valid")
    }

    /// A phishing domain impersonating `target` — the paper observed
    /// shapes like `customer-ebay.com` and `signin01.kauf-eday.de`.
    #[cfg(test)]
    fn phishing_of(&self, target: &DomainName, i: u64) -> DomainName {
        let h = self.h(0x03, i);
        let brand = target.labels().next().unwrap_or("site");
        let name = match h % 4 {
            0 => format!("customer-{brand}{}.com", to_base36(i)),
            1 => format!("{brand}-secure{}.xyz", to_base36(i)),
            2 => format!("signin{}.{brand}-account.net", h % 100),
            _ => format!("www.{brand}.verify{}.info", to_base36(i)),
        };
        DomainName::parse(&name).expect("generated name valid")
    }

    /// A vendor-controlled domain hosting a third-party script, the way
    /// ThreatMetrix serves from look-alike domains (`ebay-us.com`) or
    /// customer subdomains (`regstat.betfair.com`).
    pub fn vendor_for(&self, customer: &DomainName, i: u64) -> DomainName {
        let h = self.h(0x04, i);
        let brand = customer.labels().next().unwrap_or("site");
        let name = if h.is_multiple_of(2) {
            format!("{brand}-metrics{}.com", to_base36(i))
        } else {
            format!("regstat.{}", customer.as_str())
        };
        DomainName::parse(&name).expect("generated name valid")
    }
}

/// Lower-case base-36 rendering (for unique, short suffixes).
fn to_base36(mut n: u64) -> String {
    const DIGITS: &[u8] = b"0123456789abcdefghijklmnopqrstuvwxyz";
    if n == 0 {
        return "0".to_string();
    }
    let mut out = Vec::new();
    while n > 0 {
        out.push(DIGITS[(n % 36) as usize]);
        n /= 36;
    }
    out.reverse();
    String::from_utf8(out).expect("base36 is ascii")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_are_deterministic() {
        let a = NameForge::new(7);
        let b = NameForge::new(7);
        for i in 0..50 {
            assert_eq!(a.generic(i), b.generic(i));
        }
    }

    #[test]
    fn names_are_unique_across_indices() {
        let forge = NameForge::new(7);
        let names: HashSet<_> = (0..10_000).map(|i| forge.generic(i)).collect();
        assert_eq!(names.len(), 10_000);
    }

    #[test]
    fn names_differ_across_seeds() {
        let a = NameForge::new(1);
        let b = NameForge::new(2);
        let differs = (0..20).any(|i| a.generic(i) != b.generic(i));
        assert!(differs);
    }

    #[test]
    fn phishing_names_reference_brand() {
        let forge = NameForge::new(3);
        let target = DomainName::parse("ebay.com").unwrap();
        for i in 0..20 {
            let p = forge.phishing_of(&target, i);
            assert!(p.as_str().contains("ebay"), "{p}");
            assert_ne!(p, target);
        }
    }

    #[test]
    fn vendor_names_are_plausible() {
        let forge = NameForge::new(3);
        let customer = DomainName::parse("betfair.com").unwrap();
        let mut saw_subdomain = false;
        let mut saw_lookalike = false;
        for i in 0..32 {
            let v = forge.vendor_for(&customer, i);
            if v.as_str() == "regstat.betfair.com" {
                saw_subdomain = true;
            }
            if v.as_str().starts_with("betfair-metrics") {
                saw_lookalike = true;
            }
        }
        assert!(saw_subdomain && saw_lookalike);
    }

    #[test]
    fn base36_encoding() {
        assert_eq!(to_base36(0), "0");
        assert_eq!(to_base36(35), "z");
        assert_eq!(to_base36(36), "10");
        assert_eq!(to_base36(36 * 36 + 1), "101");
    }

    #[test]
    fn all_generated_names_are_valid_domains() {
        // DomainName::parse inside the forge already asserts validity;
        // exercise a broad index range to be sure.
        let forge = NameForge::new(11);
        for i in (0..5_000).step_by(7) {
            let _ = forge.generic(i);
            let _ = forge.themed(i as usize % 8, i);
        }
    }
}
