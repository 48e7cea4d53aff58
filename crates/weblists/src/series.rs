//! Rolling snapshot series for longitudinal studies.
//!
//! The paper compares exactly two Tranco snapshots (~75% overlap);
//! [`SnapshotSeries`] generalises that to N rolling lists by chaining
//! [`TrancoSnapshot::successor`] with a fixed per-step churn. One twist
//! matters for the longitudinal store: real top lists *recycle*
//! domains. A site that drops off the list in March is often back in
//! June (the paper's "newly active" sites versus its "newly listed"
//! ones, §4.3), so most slots vacated at step k are refilled from the
//! pool of previously-listed domains rather than from never-seen
//! names. [`SeriesConfig::relist_fraction`] controls that split; it is
//! what keeps the unique-domain population — and therefore the
//! content-addressed store ([`kt-store`'s `SnapshotStore`]) — growing
//! far slower than N× one snapshot.
//!
//! Relisted domains are only drawn from lists *older than the
//! immediately preceding snapshot*, so consecutive-pair overlap stays
//! at `1 - churn` exactly as `successor` alone would produce.

use std::collections::HashSet;

use kt_netbase::rng::{splitmix64, to_unit};
use kt_netbase::DomainName;

use crate::tranco::TrancoSnapshot;

/// Configuration for a rolling snapshot series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesConfig {
    /// Domains per snapshot.
    pub size: usize,
    /// Number of snapshots (≥ 1).
    pub snapshots: usize,
    /// Per-step fraction of domains replaced (consecutive snapshots
    /// overlap by `1 - churn`; the paper's pair shows churn ≈ 0.25).
    pub churn: f64,
    /// Fraction of each step's incoming slots refilled from
    /// previously-listed (now dropped) domains instead of never-seen
    /// ones. 0 reduces to plain `successor` chaining.
    pub relist_fraction: f64,
    /// Generation seed; the whole series is a pure function of it.
    pub seed: u64,
}

impl SeriesConfig {
    /// The paper-shaped default: ~75% consecutive overlap with most
    /// returning slots drawn from previously-listed domains.
    pub fn paper(size: usize, snapshots: usize, seed: u64) -> SeriesConfig {
        SeriesConfig {
            size,
            snapshots,
            churn: 0.25,
            relist_fraction: 0.85,
            seed,
        }
    }
}

/// N rolling Tranco-like snapshots, oldest first.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotSeries {
    /// The snapshots, labelled `snap00`, `snap01`, … in order.
    pub snapshots: Vec<TrancoSnapshot>,
}

impl SnapshotSeries {
    /// Generate the series. Panics if `snapshots == 0`, `size == 0`,
    /// or a fraction is outside `[0, 1]`.
    pub fn generate(config: &SeriesConfig) -> SnapshotSeries {
        assert!(config.snapshots >= 1, "need at least one snapshot");
        assert!(config.size >= 1, "need at least one domain");
        assert!((0.0..=1.0).contains(&config.churn), "churn in [0, 1]");
        assert!(
            (0.0..=1.0).contains(&config.relist_fraction),
            "relist_fraction in [0, 1]"
        );
        let mut snapshots = vec![TrancoSnapshot::generate("snap00", config.size, config.seed)];
        // Every domain ever listed, in first-listing order — the
        // deterministic recycling pool.
        let mut ever_listed: Vec<DomainName> = snapshots[0]
            .entries
            .iter()
            .map(|e| e.domain.clone())
            .collect();
        let mut ever_set: HashSet<String> =
            ever_listed.iter().map(|d| d.as_str().to_string()).collect();
        for step in 1..config.snapshots {
            let label = format!("snap{step:02}");
            let prev = snapshots.last().expect("non-empty");
            let step_seed = config.seed ^ splitmix64(step as u64);
            let mut next = prev.successor(&label, 1.0 - config.churn, step_seed);
            // Recycle: a `relist_fraction` share of the genuinely-new
            // slots gets a previously-listed domain back instead.
            // Candidates must be absent from the *previous* snapshot
            // (so consecutive overlap is untouched) and from the one
            // being built (no duplicate rows).
            let prev_set: HashSet<&str> = prev.entries.iter().map(|e| e.domain.as_str()).collect();
            let mut current: HashSet<String> = next
                .entries
                .iter()
                .map(|e| e.domain.as_str().to_string())
                .collect();
            let mut pool = ever_listed
                .iter()
                .filter(|d| !prev_set.contains(d.as_str()) && !current.contains(d.as_str()))
                .cloned()
                .collect::<Vec<_>>()
                .into_iter();
            for entry in &mut next.entries {
                if prev_set.contains(entry.domain.as_str()) {
                    continue; // carried over, not an incoming slot
                }
                let draw = to_unit(splitmix64(
                    step_seed ^ 0x5e11 ^ splitmix64(entry.rank as u64),
                ));
                let relist = draw < config.relist_fraction;
                if !relist {
                    continue;
                }
                let Some(recycled) = pool.next() else { break };
                current.remove(entry.domain.as_str());
                current.insert(recycled.as_str().to_string());
                entry.domain = recycled;
            }
            for entry in &next.entries {
                if ever_set.insert(entry.domain.as_str().to_string()) {
                    ever_listed.push(entry.domain.clone());
                }
            }
            snapshots.push(next);
        }
        SnapshotSeries { snapshots }
    }

    /// Number of snapshots.
    pub fn len(&self) -> usize {
        self.snapshots.len()
    }

    /// True if the series is empty (never produced by `generate`).
    pub fn is_empty(&self) -> bool {
        self.snapshots.is_empty()
    }

    /// Count of distinct domains across the whole series.
    pub fn unique_domains(&self) -> usize {
        let mut seen = HashSet::new();
        for snap in &self.snapshots {
            for e in &snap.entries {
                seen.insert(e.domain.as_str());
            }
        }
        seen.len()
    }

    /// Overlap of each consecutive pair: `overlap[i]` is the fraction
    /// of snapshot `i+1`'s domains already present in snapshot `i`.
    pub fn pairwise_overlaps(&self) -> Vec<f64> {
        self.snapshots
            .windows(2)
            .map(|w| w[0].overlap_with(&w[1]))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn series_has_requested_shape() {
        let config = SeriesConfig::paper(400, 6, 11);
        let series = SnapshotSeries::generate(&config);
        assert_eq!(series.len(), 6);
        for (i, snap) in series.snapshots.iter().enumerate() {
            assert_eq!(snap.len(), 400, "snapshot {i}");
            assert_eq!(snap.label, format!("snap{i:02}"));
            // No duplicate domains within one snapshot.
            let set: HashSet<&str> = snap.entries.iter().map(|e| e.domain.as_str()).collect();
            assert_eq!(set.len(), snap.len(), "snapshot {i} has duplicates");
        }
    }

    #[test]
    fn pairwise_overlap_pins_near_the_papers_75_percent() {
        let config = SeriesConfig::paper(4_000, 8, 3);
        let series = SnapshotSeries::generate(&config);
        for (i, overlap) in series.pairwise_overlaps().into_iter().enumerate() {
            assert!(
                (0.70..0.80).contains(&overlap),
                "pair {i}/{}: overlap {overlap}",
                i + 1
            );
        }
    }

    #[test]
    fn relisting_bounds_the_unique_domain_population() {
        // With 85% of incoming slots recycled, twelve 20%-churn
        // snapshots list far fewer distinct domains than plain
        // successor chaining (which mints fresh names for every
        // vacated slot).
        let n = 1_000;
        let recycled = SnapshotSeries::generate(&SeriesConfig {
            size: n,
            snapshots: 12,
            churn: 0.2,
            relist_fraction: 0.85,
            seed: 17,
        });
        let minted = SnapshotSeries::generate(&SeriesConfig {
            size: n,
            snapshots: 12,
            churn: 0.2,
            relist_fraction: 0.0,
            seed: 17,
        });
        assert!(
            recycled.unique_domains() < n + n / 2,
            "recycled series lists {} distinct domains (> 1.5n)",
            recycled.unique_domains()
        );
        assert!(
            minted.unique_domains() > n * 2,
            "fresh-only series lists {} distinct domains",
            minted.unique_domains()
        );
    }

    #[test]
    fn relisted_domains_do_not_inflate_consecutive_overlap() {
        // Recycling pulls only from lists older than the previous
        // snapshot, so consecutive overlap matches the no-recycling
        // series' to within sampling noise.
        let base = SeriesConfig {
            size: 3_000,
            snapshots: 6,
            churn: 0.2,
            relist_fraction: 0.0,
            seed: 29,
        };
        let plain = SnapshotSeries::generate(&base);
        let recycled = SnapshotSeries::generate(&SeriesConfig {
            relist_fraction: 0.9,
            ..base
        });
        for (a, b) in plain
            .pairwise_overlaps()
            .into_iter()
            .zip(recycled.pairwise_overlaps())
        {
            assert!((a - b).abs() < 0.03, "overlap drifted: {a} vs {b}");
        }
    }

    #[test]
    fn single_snapshot_series_is_just_generate() {
        let config = SeriesConfig::paper(100, 1, 5);
        let series = SnapshotSeries::generate(&config);
        assert_eq!(series.len(), 1);
        assert_eq!(
            series.snapshots[0],
            TrancoSnapshot::generate("snap00", 100, 5)
        );
    }

    proptest! {
        #[test]
        fn generation_is_seed_deterministic(
            seed in any::<u64>(),
            size in 50usize..300,
            snapshots in 1usize..6,
        ) {
            let config = SeriesConfig {
                size,
                snapshots,
                churn: 0.25,
                relist_fraction: 0.85,
                seed,
            };
            let a = SnapshotSeries::generate(&config);
            let b = SnapshotSeries::generate(&config);
            prop_assert_eq!(&a, &b);
            // And a different seed moves at least one domain (sizes
            // this small make collisions astronomically unlikely).
            let other = SnapshotSeries::generate(&SeriesConfig {
                seed: seed ^ 0x1234_5678,
                ..config
            });
            prop_assert!(a.snapshots[0] != other.snapshots[0]);
        }
    }
}
