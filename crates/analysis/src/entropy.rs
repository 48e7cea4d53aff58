//! Fingerprinting-entropy analysis (§5.2).
//!
//! The paper warns that the host profiling done for anti-abuse "can
//! naturally be extended for user fingerprinting and tracking": the
//! pattern of which localhost ports answer is a stable, high-entropy
//! feature of a machine. This module quantifies that: given the
//! port-response vectors of a population of simulated visitor machines,
//! it computes the Shannon entropy (and normalised entropy) of the
//! resulting fingerprint distribution — the standard measure used by
//! fingerprinting studies (Panopticlick et al.).

use std::collections::BTreeMap;

/// The fingerprint of one machine: for each probed port, whether a
/// service answered.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PortFingerprint(pub Vec<(u16, bool)>);

impl PortFingerprint {
    /// Probe a simulated machine on the given ports.
    pub fn probe(env: &kt_simnet::HostEnv, ports: &[u16]) -> PortFingerprint {
        use kt_simnet::ServerBehavior;
        PortFingerprint(
            ports
                .iter()
                .map(|p| {
                    let answers = !matches!(
                        env.localhost_endpoint(*p).behavior,
                        ServerBehavior::Refused | ServerBehavior::Blackhole
                    );
                    (*p, answers)
                })
                .collect(),
        )
    }
}

/// Distribution statistics over a set of fingerprints.
#[derive(Debug, Clone, PartialEq)]
pub struct EntropyReport {
    /// Machines sampled.
    pub population: usize,
    /// Distinct fingerprints observed.
    pub distinct: usize,
    /// Shannon entropy of the fingerprint distribution, in bits.
    pub shannon_bits: f64,
    /// Entropy normalised by `log2(population)` (1.0 = everyone
    /// unique).
    pub normalised: f64,
    /// The share of machines carrying the most common fingerprint
    /// (the anonymity-set ceiling).
    pub modal_share: f64,
}

/// Compute the entropy report for a collection of fingerprints.
pub fn entropy_of<I: IntoIterator<Item = PortFingerprint>>(fingerprints: I) -> EntropyReport {
    let mut counts: BTreeMap<PortFingerprint, usize> = BTreeMap::new();
    let mut n = 0usize;
    for fp in fingerprints {
        *counts.entry(fp).or_default() += 1;
        n += 1;
    }
    let mut shannon = 0.0;
    let mut modal = 0usize;
    for &c in counts.values() {
        let p = c as f64 / n.max(1) as f64;
        shannon -= p * p.log2();
        modal = modal.max(c);
    }
    let max_bits = (n.max(1) as f64).log2();
    EntropyReport {
        population: n,
        distinct: counts.len(),
        shannon_bits: shannon,
        normalised: if max_bits > 0.0 {
            shannon / max_bits
        } else {
            0.0
        },
        modal_share: modal as f64 / n.max(1) as f64,
    }
}

/// Convenience: sample `n` machines of one OS and measure the entropy
/// a scanner probing `ports` would harvest.
pub fn scan_entropy(os: kt_netbase::Os, ports: &[u16], n: usize, seed: u64) -> EntropyReport {
    entropy_of((0..n).map(|i| {
        let env = kt_simnet::HostEnv::sampled(os, seed.wrapping_add(i as u64));
        PortFingerprint::probe(&env, ports)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kt_netbase::services::THREATMETRIX_PORTS;
    use kt_netbase::Os;

    #[test]
    fn uniform_population_has_zero_entropy() {
        let fp = PortFingerprint(vec![(80, false), (443, false)]);
        let report = entropy_of(std::iter::repeat_n(fp, 100));
        assert_eq!(report.distinct, 1);
        assert!(report.shannon_bits.abs() < 1e-12);
        assert_eq!(report.modal_share, 1.0);
    }

    #[test]
    fn all_unique_population_has_max_entropy() {
        let report = entropy_of((0..64u16).map(|i| PortFingerprint(vec![(i, true)])));
        assert_eq!(report.distinct, 64);
        assert!((report.shannon_bits - 6.0).abs() < 1e-9);
        assert!((report.normalised - 1.0).abs() < 1e-9);
        assert!((report.modal_share - 1.0 / 64.0).abs() < 1e-9);
    }

    #[test]
    fn threatmetrix_scan_yields_nonzero_entropy_on_windows() {
        // Some Windows machines run RDP/TeamViewer/Discord, so the
        // scan distinguishes machine groups — the §5.2 concern.
        let report = scan_entropy(Os::Windows, &THREATMETRIX_PORTS, 400, 7);
        assert_eq!(report.population, 400);
        assert!(report.distinct >= 2, "distinct {}", report.distinct);
        assert!(report.shannon_bits > 0.1, "bits {}", report.shannon_bits);
        // But nowhere near unique identification from 14 ports alone.
        assert!(report.normalised < 0.6, "normalised {}", report.normalised);
    }

    #[test]
    fn wider_scans_harvest_more_entropy() {
        let narrow = scan_entropy(Os::Windows, &[3389], 400, 7);
        let wide = scan_entropy(Os::Windows, &[3389, 5939, 6463], 400, 7);
        assert!(wide.shannon_bits >= narrow.shannon_bits);
    }

    #[test]
    fn empty_population() {
        let report = entropy_of(std::iter::empty());
        assert_eq!(report.population, 0);
        assert_eq!(report.distinct, 0);
        assert_eq!(report.shannon_bits, 0.0);
    }
}
