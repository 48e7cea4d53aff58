//! Tranco-like top-list snapshots.
//!
//! The paper crawls two Tranco top-100K snapshots taken ~9 months apart
//! (2020-06-03 and 2021-03-11) and reports ~75% domain overlap between
//! them (§3.2). [`TrancoSnapshot::generate`] builds the first list;
//! [`TrancoSnapshot::successor`] derives a later snapshot that keeps a
//! configurable fraction of domains (with rank churn) and replaces the
//! rest with fresh domains — reproducing the paper's "19 sites newly
//! active / 21 sites newly listed" dynamics.

use kt_netbase::DomainName;

use crate::names::NameForge;

/// One list entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankedDomain {
    /// 1-based Tranco rank.
    pub rank: u32,
    /// The domain.
    pub domain: DomainName,
}

/// A ranked snapshot of the top `n` domains.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrancoSnapshot {
    /// Label, e.g. `"2020-06-03"`.
    pub label: String,
    /// Entries ordered by rank (entry `i` has rank `i+1`).
    pub entries: Vec<RankedDomain>,
}

fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl TrancoSnapshot {
    /// Generate a snapshot of `n` domains.
    pub fn generate(label: &str, n: usize, seed: u64) -> TrancoSnapshot {
        let forge = NameForge::new(seed);
        let entries = (0..n)
            .map(|i| RankedDomain {
                rank: (i + 1) as u32,
                domain: forge.generic(i as u64),
            })
            .collect();
        TrancoSnapshot {
            label: label.to_string(),
            entries,
        }
    }

    /// Derive a later snapshot: each domain survives with probability
    /// `overlap`; survivors get a mild deterministic rank perturbation;
    /// vacated slots are filled with fresh domains. The result has the
    /// same size as `self`.
    pub fn successor(&self, label: &str, overlap: f64, seed: u64) -> TrancoSnapshot {
        assert!((0.0..=1.0).contains(&overlap));
        let n = self.entries.len();
        let forge = NameForge::new(seed ^ 0xdead_beef);
        // Decide survival per domain.
        let mut survivors: Vec<&RankedDomain> = self
            .entries
            .iter()
            .filter(|e| {
                let h = mix(seed ^ mix(e.rank as u64));
                (h >> 11) as f64 / (1u64 << 53) as f64 >= 1.0 - overlap
            })
            .collect();
        // Rank churn: stable sort by old rank + bounded jitter keeps
        // the list plausible (top sites stay near the top).
        survivors.sort_by_key(|e| {
            let jitter = (mix(seed ^ 0x5a5a ^ e.rank as u64) % 2001) as i64 - 1000;
            (e.rank as i64 * 10 + jitter).max(0)
        });
        let fresh_needed = n - survivors.len();
        let mut fresh: Vec<DomainName> = (0..fresh_needed)
            .map(|i| forge.generic(1_000_000 + i as u64))
            .collect();
        // Interleave fresh domains throughout the rank space
        // deterministically, so new domains are not all low-ranked.
        let mut entries = Vec::with_capacity(n);
        let mut s = survivors.into_iter();
        let mut f = fresh.drain(..);
        for i in 0..n {
            let take_fresh = fresh_needed > 0 && (i * fresh_needed) % n < fresh_needed
                // deterministic mixing decision
                && mix(seed ^ 0x77 ^ i as u64) % (n as u64) < fresh_needed as u64;
            let domain = if take_fresh {
                f.next().or_else(|| s.next().map(|e| e.domain.clone()))
            } else {
                s.next().map(|e| e.domain.clone()).or_else(|| f.next())
            };
            match domain {
                Some(d) => entries.push(RankedDomain {
                    rank: (i + 1) as u32,
                    domain: d,
                }),
                None => break,
            }
        }
        TrancoSnapshot {
            label: label.to_string(),
            entries,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Rank of a domain in this snapshot, if present.
    pub fn rank_of(&self, domain: &DomainName) -> Option<u32> {
        self.entries
            .iter()
            .find(|e| &e.domain == domain)
            .map(|e| e.rank)
    }

    /// Fraction of `other`'s domains also present in `self`.
    pub fn overlap_with(&self, other: &TrancoSnapshot) -> f64 {
        use std::collections::HashSet;
        let mine: HashSet<&str> = self.entries.iter().map(|e| e.domain.as_str()).collect();
        let shared = other
            .entries
            .iter()
            .filter(|e| mine.contains(e.domain.as_str()))
            .count();
        shared as f64 / other.len().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_is_deterministic_and_ranked() {
        let a = TrancoSnapshot::generate("2020", 500, 1);
        let b = TrancoSnapshot::generate("2020", 500, 1);
        assert_eq!(a, b);
        assert_eq!(a.len(), 500);
        for (i, e) in a.entries.iter().enumerate() {
            assert_eq!(e.rank, (i + 1) as u32);
        }
    }

    #[test]
    fn domains_are_unique() {
        use std::collections::HashSet;
        let snap = TrancoSnapshot::generate("2020", 2000, 2);
        let set: HashSet<_> = snap.entries.iter().map(|e| e.domain.as_str()).collect();
        assert_eq!(set.len(), 2000);
    }

    #[test]
    fn successor_hits_requested_overlap() {
        let snap = TrancoSnapshot::generate("2020", 5000, 3);
        let next = snap.successor("2021", 0.75, 99);
        assert_eq!(next.len(), 5000);
        let overlap = snap.overlap_with(&next);
        assert!((0.70..0.80).contains(&overlap), "overlap {overlap}");
    }

    #[test]
    fn successor_full_overlap_keeps_everyone() {
        let snap = TrancoSnapshot::generate("2020", 300, 4);
        let next = snap.successor("2021", 1.0, 5);
        assert!((snap.overlap_with(&next) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn successor_zero_overlap_replaces_everyone() {
        let snap = TrancoSnapshot::generate("2020", 300, 4);
        let next = snap.successor("2021", 0.0, 5);
        assert_eq!(snap.overlap_with(&next), 0.0);
        assert_eq!(next.len(), 300);
    }

    #[test]
    fn fresh_domains_spread_over_rank_space() {
        let snap = TrancoSnapshot::generate("2020", 10_000, 6);
        let next = snap.successor("2021", 0.75, 7);
        use std::collections::HashSet;
        let old: HashSet<_> = snap.entries.iter().map(|e| e.domain.as_str()).collect();
        let fresh_ranks: Vec<u32> = next
            .entries
            .iter()
            .filter(|e| !old.contains(e.domain.as_str()))
            .map(|e| e.rank)
            .collect();
        assert!(!fresh_ranks.is_empty());
        // Some fresh domain must land in the top half.
        assert!(fresh_ranks.iter().any(|&r| r < 5_000));
        assert!(fresh_ranks.iter().any(|&r| r >= 5_000));
    }

    #[test]
    fn rank_of_lookup() {
        let snap = TrancoSnapshot::generate("2020", 100, 8);
        let fifth = snap.entries[4].domain.clone();
        assert_eq!(snap.rank_of(&fifth), Some(5));
        let absent = DomainName::parse("not-in-list.example").unwrap();
        assert_eq!(snap.rank_of(&absent), None);
    }
}
