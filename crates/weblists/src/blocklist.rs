//! Malicious-URL blocklists shaped like the paper's sources.
//!
//! Table 2 gives the ground truth this module reproduces:
//!
//! | Category | # Sites  | Sources (% contribution)        |
//! |----------|----------|---------------------------------|
//! | Malware  | 103,541  | Abuse.ch URLHaus 99%, SURBL 1%  |
//! | Abuse    | 24,958   | SURBL 100%                      |
//! | Phishing | 16,426   | PhishTank 85%, SURBL 15%        |
//!
//! "As these blocklists often list multiple malicious URLs mapping to
//! the same domain, we only select one malicious URL per domain" (§3.1)
//! — the generator enforces that invariant by construction and
//! [`Blocklist::dedup_by_domain`] enforces it for arbitrary inputs.

use kt_netbase::DomainName;

use crate::names::NameForge;

/// Which blocklist supplied an entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BlocklistSource {
    /// SURBL URI reputation data (abuse, malware, phishing).
    Surbl,
    /// Abuse.ch URLHaus (malware).
    UrlHaus,
    /// PhishTank (phishing).
    PhishTank,
}

impl BlocklistSource {
    /// Display name as used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            BlocklistSource::Surbl => "SURBL",
            BlocklistSource::UrlHaus => "Abuse.ch",
            BlocklistSource::PhishTank => "PhishTank",
        }
    }
}

/// Malicious site category (Table 2 rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MaliciousCategory {
    /// Malware-distribution sites.
    Malware,
    /// Abuse (spam-advertised etc.) sites.
    Abuse,
    /// Phishing sites.
    Phishing,
}

impl MaliciousCategory {
    /// All categories in Table 2 order.
    pub const ALL: [MaliciousCategory; 3] = [
        MaliciousCategory::Malware,
        MaliciousCategory::Abuse,
        MaliciousCategory::Phishing,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            MaliciousCategory::Malware => "Malware",
            MaliciousCategory::Abuse => "Abuse",
            MaliciousCategory::Phishing => "Phishing",
        }
    }

    /// The paper's full-scale population size for this category.
    pub fn paper_count(self) -> usize {
        match self {
            MaliciousCategory::Malware => 103_541,
            MaliciousCategory::Abuse => 24_958,
            MaliciousCategory::Phishing => 16_426,
        }
    }

    /// Source mix `(source, weight)` summing to 1.0, per Table 2.
    pub fn source_mix(self) -> &'static [(BlocklistSource, f64)] {
        match self {
            MaliciousCategory::Malware => &[
                (BlocklistSource::UrlHaus, 0.99),
                (BlocklistSource::Surbl, 0.01),
            ],
            MaliciousCategory::Abuse => &[(BlocklistSource::Surbl, 1.0)],
            MaliciousCategory::Phishing => &[
                (BlocklistSource::PhishTank, 0.85),
                (BlocklistSource::Surbl, 0.15),
            ],
        }
    }
}

/// One blocklisted URL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlocklistEntry {
    /// The registrable domain (one entry per domain).
    pub domain: DomainName,
    /// The specific listed URL (may have a path).
    pub url: String,
    /// Category.
    pub category: MaliciousCategory,
    /// Which list supplied it.
    pub source: BlocklistSource,
}

/// A deduplicated malicious-URL list.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Blocklist {
    /// Entries, one per domain.
    pub entries: Vec<BlocklistEntry>,
}

fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Blocklist {
    /// Generate a blocklist of `total` domains with the paper's
    /// category proportions and per-category source mixes.
    pub fn generate(total: usize, seed: u64) -> Blocklist {
        let paper_total: usize = MaliciousCategory::ALL.iter().map(|c| c.paper_count()).sum();
        let forge = NameForge::new(seed ^ 0xb10c);
        let mut entries = Vec::with_capacity(total);
        let mut index = 0u64;
        for category in MaliciousCategory::ALL {
            let count = (total * category.paper_count()) / paper_total;
            for i in 0..count {
                let h = mix(seed ^ mix(index));
                let u = (h >> 11) as f64 / (1u64 << 53) as f64;
                let source = pick_source(category.source_mix(), u);
                let domain = forge.themed(
                    match category {
                        MaliciousCategory::Malware => 4,
                        MaliciousCategory::Abuse => 7,
                        MaliciousCategory::Phishing => 1,
                    },
                    index,
                );
                let url = match category {
                    MaliciousCategory::Malware => {
                        format!("http://{domain}/files/payload{}.exe", i % 97)
                    }
                    MaliciousCategory::Abuse => format!("http://{domain}/"),
                    MaliciousCategory::Phishing => {
                        format!("https://{domain}/login/verify")
                    }
                };
                entries.push(BlocklistEntry {
                    domain,
                    url,
                    category,
                    source,
                });
                index += 1;
            }
        }
        Blocklist { entries }
    }

    /// Keep the first entry per registrable domain (the paper's
    /// coverage-maximising dedup).
    pub fn dedup_by_domain(&mut self) {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        self.entries
            .retain(|e| seen.insert(e.domain.registrable().to_string()));
    }

    /// Entries of one category.
    pub fn of_category(
        &self,
        category: MaliciousCategory,
    ) -> impl Iterator<Item = &BlocklistEntry> {
        self.entries.iter().filter(move |e| e.category == category)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Per-category `(source, fraction)` contribution, for Table 2.
    pub fn source_contribution(&self, category: MaliciousCategory) -> Vec<(BlocklistSource, f64)> {
        use std::collections::BTreeMap;
        let mut counts: BTreeMap<BlocklistSource, usize> = BTreeMap::new();
        let mut total = 0usize;
        for e in self.of_category(category) {
            *counts.entry(e.source).or_default() += 1;
            total += 1;
        }
        counts
            .into_iter()
            .map(|(s, c)| (s, c as f64 / total.max(1) as f64))
            .collect()
    }
}

fn pick_source(mix: &[(BlocklistSource, f64)], u: f64) -> BlocklistSource {
    let mut acc = 0.0;
    for (source, w) in mix {
        acc += w;
        if u < acc {
            return *source;
        }
    }
    mix.last().expect("non-empty mix").0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn category_proportions_match_table2() {
        let list = Blocklist::generate(14_500, 1);
        let malware = list.of_category(MaliciousCategory::Malware).count() as f64;
        let abuse = list.of_category(MaliciousCategory::Abuse).count() as f64;
        let phishing = list.of_category(MaliciousCategory::Phishing).count() as f64;
        let total = list.len() as f64;
        assert!(
            (malware / total - 0.714).abs() < 0.01,
            "{}",
            malware / total
        );
        assert!((abuse / total - 0.172).abs() < 0.01, "{}", abuse / total);
        assert!(
            (phishing / total - 0.113).abs() < 0.01,
            "{}",
            phishing / total
        );
    }

    #[test]
    fn source_mix_matches_table2() {
        let list = Blocklist::generate(50_000, 2);
        let malware = list.source_contribution(MaliciousCategory::Malware);
        let urlhaus = malware
            .iter()
            .find(|(s, _)| *s == BlocklistSource::UrlHaus)
            .map(|(_, f)| *f)
            .unwrap_or(0.0);
        assert!((urlhaus - 0.99).abs() < 0.01, "{urlhaus}");
        let abuse = list.source_contribution(MaliciousCategory::Abuse);
        assert_eq!(abuse.len(), 1);
        assert_eq!(abuse[0].0, BlocklistSource::Surbl);
        let phishing = list.source_contribution(MaliciousCategory::Phishing);
        let phishtank = phishing
            .iter()
            .find(|(s, _)| *s == BlocklistSource::PhishTank)
            .map(|(_, f)| *f)
            .unwrap_or(0.0);
        assert!((phishtank - 0.85).abs() < 0.03, "{phishtank}");
    }

    #[test]
    fn one_url_per_domain_by_construction() {
        use std::collections::HashSet;
        let list = Blocklist::generate(20_000, 3);
        let domains: HashSet<_> = list.entries.iter().map(|e| e.domain.as_str()).collect();
        assert_eq!(domains.len(), list.len());
    }

    #[test]
    fn dedup_removes_repeat_domains() {
        let mut list = Blocklist::generate(100, 4);
        // Integer division across the three categories may drop a few.
        let n = list.len();
        let dup = list.entries[0].clone();
        list.entries.push(dup);
        assert_eq!(list.len(), n + 1);
        list.dedup_by_domain();
        assert_eq!(list.len(), n);
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(Blocklist::generate(5_000, 9), Blocklist::generate(5_000, 9));
        assert_ne!(
            Blocklist::generate(5_000, 9),
            Blocklist::generate(5_000, 10)
        );
    }

    #[test]
    fn paper_counts() {
        assert_eq!(MaliciousCategory::Malware.paper_count(), 103_541);
        assert_eq!(MaliciousCategory::Abuse.paper_count(), 24_958);
        assert_eq!(MaliciousCategory::Phishing.paper_count(), 16_426);
        let total: usize = MaliciousCategory::ALL.iter().map(|c| c.paper_count()).sum();
        assert_eq!(total, 144_925, "~145K malicious URLs (§1)");
    }

    #[test]
    fn source_names() {
        assert_eq!(BlocklistSource::Surbl.name(), "SURBL");
        assert_eq!(BlocklistSource::UrlHaus.name(), "Abuse.ch");
        assert_eq!(BlocklistSource::PhishTank.name(), "PhishTank");
    }
}
