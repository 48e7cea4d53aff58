//! Population assembly: snapshots + blocklists + plantings → sites.
//!
//! [`WebPopulation::generate`] builds the three crawlable populations:
//!
//! 1. **top-2020** — one [`WebSite`] per entry of the 2020 snapshot,
//!    with the 107 + 9 plantings of [`crate::plant`] placed on ranks
//!    spread uniformly through the list (Figure 3's finding);
//! 2. **top-2021** — the successor snapshot (~75% overlap); carried
//!    behaviours stay on their domains, stopped ones disappear, and
//!    the 40 + 7 new plantings are split between domains that existed
//!    in 2020 (19) and newly-listed domains (21), matching §4.1;
//! 3. **malicious** — one site per blocklist entry with the Table 2
//!    composition, including the phishing pages that cloned
//!    ThreatMetrix-bearing sites.
//!
//! Availability fates are sampled per (site, OS) at the paper's rates
//! (Table 1 / Table 2); sites carrying plantings are forced up on the
//! OSes where their behaviour must be observable.

use kt_netbase::{rng, DomainName, Os};
use kt_weblists::{Blocklist, MaliciousCategory, NameForge, TrancoSnapshot};
use std::collections::HashMap;
use std::fmt;

use crate::behavior::Behavior;
use crate::plant::{self, PlantSpec, VENDOR_PLACEHOLDER};
use crate::site::{Availability, PlantedBehavior, SiteCategory, WebSite};

/// The seed salt of every draw this crate makes, keeping its stream
/// apart from the simulation's default one.
const SALT: u64 = 0x6b74_7067;

/// A seeded hash of `label` under this crate's salt.
pub(crate) fn hash_str(seed: u64, label: impl fmt::Display) -> u64 {
    rng::hash_str_salted(seed, SALT, label)
}

/// A uniform draw in `[0, 1)` from [`hash_str`].
pub(crate) fn unit(seed: u64, label: impl fmt::Display) -> f64 {
    rng::to_unit(hash_str(seed, label))
}

/// Configuration for population generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PopulationConfig {
    /// Run seed; every sampled quantity derives from it.
    pub seed: u64,
    /// Top-list size (the paper: 100,000). Must be ≥ 300 so all 116
    /// 2020 plantings fit on distinct ranks.
    pub top_size: usize,
    /// Malicious population size (the paper: 144,925).
    pub malicious_size: usize,
    /// Plant anti-bot sensors ([`crate::sensor::BotSensor`]) on the
    /// 2020 population: a share of behaviour sites gets a gating
    /// sensor, and a set of otherwise-quiet sites gets the WebRTC
    /// probe. Off by default so the paper-replication counts are
    /// untouched; the bias experiment turns it on.
    pub sensors: bool,
}

impl PopulationConfig {
    /// Full paper scale.
    pub fn paper_scale(seed: u64) -> PopulationConfig {
        PopulationConfig {
            seed,
            top_size: 100_000,
            malicious_size: 144_925,
            sensors: false,
        }
    }

    /// A reduced scale for tests and examples (still plants every
    /// behaviour at full count).
    pub fn test_scale(seed: u64) -> PopulationConfig {
        PopulationConfig {
            seed,
            top_size: 2_000,
            malicious_size: 1_200,
            sensors: false,
        }
    }

    /// [`PopulationConfig::test_scale`] with sensor planting enabled —
    /// the bias experiment's population.
    pub fn bias_scale(seed: u64) -> PopulationConfig {
        PopulationConfig {
            sensors: true,
            ..PopulationConfig::test_scale(seed)
        }
    }
}

impl Default for PopulationConfig {
    fn default() -> Self {
        PopulationConfig::paper_scale(0x00C0_FFEE)
    }
}

/// The generated populations.
#[derive(Debug, Clone)]
pub struct WebPopulation {
    /// Generation parameters.
    pub config: PopulationConfig,
    /// The 2020 top-list snapshot.
    pub snapshot2020: TrancoSnapshot,
    /// The 2021 top-list snapshot (~75% overlap with 2020).
    pub snapshot2021: TrancoSnapshot,
    /// The malicious blocklist.
    pub blocklist: Blocklist,
    /// Sites as they behaved during the 2020 crawl.
    pub sites2020: Vec<WebSite>,
    /// Sites as they behaved during the 2021 crawl.
    pub sites2021: Vec<WebSite>,
    /// Malicious sites (crawled once, in 2021).
    pub malicious_sites: Vec<WebSite>,
}

/// Per-OS landing-page failure rates for the top-list crawls
/// (Table 1: ~10% in 2020, ~8% in 2021).
fn top_failure_rate(year: u16, os: Os) -> f64 {
    match (year, os) {
        (2020, Os::Windows) => 0.103,
        (2020, Os::Linux) => 0.098,
        (2020, Os::MacOs) => 0.101,
        (2021, _) => 0.083,
        _ => 0.10,
    }
}

/// Per-(category, OS) failure rates for malicious pages (Table 2's
/// crawl success rates, complemented).
fn malicious_failure_rate(category: MaliciousCategory, os: Os) -> f64 {
    match (category, os) {
        (MaliciousCategory::Malware, Os::Windows) => 0.39,
        (MaliciousCategory::Malware, Os::Linux) => 0.35,
        (MaliciousCategory::Malware, Os::MacOs) => 0.35,
        (MaliciousCategory::Abuse, Os::Windows) => 0.05,
        (MaliciousCategory::Abuse, Os::Linux) => 0.03,
        (MaliciousCategory::Abuse, Os::MacOs) => 0.07,
        (MaliciousCategory::Phishing, Os::Windows) => 0.27,
        (MaliciousCategory::Phishing, Os::Linux) => 0.24,
        (MaliciousCategory::Phishing, Os::MacOs) => 0.31,
    }
}

/// Sample a failure kind given that the load failed: the Table 1 error
/// mix (~88.5% DNS, then refused / reset / cert / other).
fn failure_kind(u: f64) -> Availability {
    if u < 0.885 {
        Availability::NxDomain
    } else if u < 0.885 + 0.033 {
        Availability::Refused
    } else if u < 0.885 + 0.033 + 0.022 {
        Availability::Reset
    } else if u < 0.885 + 0.033 + 0.022 + 0.027 {
        Availability::CertInvalid
    } else {
        Availability::OtherError
    }
}

/// Sample availability for one (site, OS) pair.
fn sample_availability(
    seed: u64,
    domain: &str,
    crawl: &str,
    os: Os,
    fail_rate: f64,
) -> Availability {
    let os = os.letter();
    if unit(seed, format_args!("avail:{crawl}:{os}:{domain}")) < fail_rate {
        failure_kind(unit(seed, format_args!("avail:{crawl}:{os}:{domain}:kind")))
    } else {
        Availability::Up
    }
}

/// Sample a base delay within a spec's window.
fn sample_delay(seed: u64, domain: &str, spec_idx: usize, window: plant::DelayWindow) -> u64 {
    let u = unit(seed, format_args!("delay:{domain}:{spec_idx}"));
    window.min_ms + ((window.max_ms - window.min_ms) as f64 * u) as u64
}

/// Spread `count` ranks uniformly over `1..=n`, deterministically, with
/// a highly-ranked first slot (the paper's ebay.com sat at rank 104).
fn spread_ranks(count: usize, n: usize, seed: u64) -> Vec<u32> {
    assert!(count <= n, "cannot place {count} plantings in {n} ranks");
    let mut ranks = Vec::with_capacity(count);
    let mut used = std::collections::HashSet::new();
    for i in 0..count {
        let base = if i == 0 {
            // One high-profile site near the top of the list.
            (n / 960).max(1)
        } else {
            ((i as f64 + 0.5) / count as f64 * n as f64) as usize
        };
        let jitter = (hash_str(seed, format_args!("rankjitter:{i}"))
            % (n as u64 / count as u64 + 1)) as usize;
        let mut r = (base + jitter).clamp(1, n) as u32;
        while used.contains(&r) {
            r = if (r as usize) < n { r + 1 } else { 1 };
        }
        used.insert(r);
        ranks.push(r);
    }
    ranks
}

/// Materialise one spec as a planted behaviour on `domain`.
fn materialise(
    spec: &PlantSpec,
    domain: &DomainName,
    spec_idx: usize,
    seed: u64,
    forge: &NameForge,
) -> PlantedBehavior {
    let behavior = match &spec.behavior {
        Behavior::ThreatMetrix { vendor } if vendor.as_str() == VENDOR_PLACEHOLDER => {
            Behavior::ThreatMetrix {
                vendor: forge.vendor_for(domain, spec_idx as u64),
            }
        }
        other => other.clone(),
    };
    PlantedBehavior {
        behavior,
        os_set: spec.os_set,
        base_delay_ms: sample_delay(seed, domain.as_str(), spec_idx, spec.delay),
    }
}

impl WebPopulation {
    /// Generate the full population set.
    pub fn generate(config: PopulationConfig) -> WebPopulation {
        let seed = config.seed;
        let forge = NameForge::new(seed ^ 0xfeed);
        let snapshot2020 = TrancoSnapshot::generate("2020-06-03", config.top_size, seed);
        let mut snapshot2021 = snapshot2020.successor("2021-03-11", 0.75, seed ^ 0x2021);
        let mut blocklist = Blocklist::generate(config.malicious_size, seed ^ 0xbad);
        blocklist.dedup_by_domain();

        // ---- 2020 plantings --------------------------------------
        let specs2020: Vec<PlantSpec> = plant::top2020_localhost_specs()
            .into_iter()
            .chain(plant::top2020_lan_specs())
            .collect();
        let mut ranks2020 = spread_ranks(specs2020.len(), config.top_size, seed ^ 0x20);
        // The spec list is ordered by class; a deterministic shuffle
        // decorrelates class from rank so each class spreads uniformly
        // through the list (Figure 3 shows near-linear CDFs per OS).
        // Slot 0 (the high-profile rank) stays pinned to spec 0, a
        // fraud-detection site, mirroring ebay.com at rank 104.
        for i in (2..ranks2020.len()).rev() {
            let j = 1 + (hash_str(seed, format_args!("rankperm:{i}")) as usize) % i;
            ranks2020.swap(i, j);
        }
        // rank -> spec index
        let planted2020: HashMap<u32, usize> =
            ranks2020.iter().enumerate().map(|(i, r)| (*r, i)).collect();

        // Domains whose behaviour carries into 2021 must survive the
        // snapshot churn: the paper observed them in both crawls. Any
        // carried domain the successor dropped replaces a newly-listed
        // domain at a nearby rank.
        {
            let mut carried_domains: Vec<(u32, &DomainName)> = planted2020
                .iter()
                .filter(|(_, &si)| specs2020[si].carried_to_2021)
                .map(|(&rank, _)| (rank, &snapshot2020.entries[(rank - 1) as usize].domain))
                .collect();
            // HashMap iteration order is arbitrary; replacement order
            // must be stable for the run to be reproducible.
            carried_domains.sort_by_key(|(rank, _)| *rank);
            let present: std::collections::HashSet<String> = snapshot2021
                .entries
                .iter()
                .map(|e| e.domain.as_str().to_string())
                .collect();
            let old: std::collections::HashSet<&str> = snapshot2020
                .entries
                .iter()
                .map(|e| e.domain.as_str())
                .collect();
            for (rank, domain) in carried_domains {
                if present.contains(domain.as_str()) {
                    continue;
                }
                // Replace the nearest 2021-only entry.
                let start = (rank as usize - 1).min(snapshot2021.len() - 1);
                let mut replaced = false;
                for offset in 0..snapshot2021.len() {
                    for idx in [
                        start.saturating_sub(offset),
                        (start + offset).min(snapshot2021.len() - 1),
                    ] {
                        let candidate = &snapshot2021.entries[idx];
                        if !old.contains(candidate.domain.as_str()) {
                            snapshot2021.entries[idx].domain = domain.clone();
                            replaced = true;
                            break;
                        }
                    }
                    if replaced {
                        break;
                    }
                }
                debug_assert!(replaced, "no 2021-only slot for carried {domain}");
            }
        }

        let mut sites2020 = Vec::with_capacity(config.top_size);
        // domain -> (spec index) for behaviours carried into 2021
        let mut carried: HashMap<String, usize> = HashMap::new();
        for entry in &snapshot2020.entries {
            let mut site = WebSite::plain(
                entry.domain.clone(),
                Some(entry.rank),
                (2 + hash_str(seed, format_args!("pub:{}", entry.domain)) % 9) as u8,
            );
            site.https = unit(seed, format_args!("https:{}", entry.domain)) < 0.85;
            if let Some(&spec_idx) = planted2020.get(&entry.rank) {
                let spec = &specs2020[spec_idx];
                site.category = spec.category;
                site.behaviors
                    .push(materialise(spec, &entry.domain, spec_idx, seed, &forge));
                // Behaviour sites must load everywhere the behaviour
                // fires; force up on all OSes for simplicity.
                site.set_availability_all(Availability::Up);
                if spec.carried_to_2021 {
                    carried.insert(entry.domain.as_str().to_string(), spec_idx);
                }
            } else {
                for os in Os::ALL {
                    site.set_availability(
                        os,
                        sample_availability(
                            seed,
                            entry.domain.as_str(),
                            "top2020",
                            os,
                            top_failure_rate(2020, os),
                        ),
                    );
                }
            }
            sites2020.push(site);
        }

        // ---- 2021 plantings --------------------------------------
        // New specs are split: those placed on domains that were
        // already in the 2020 list (19) vs newly-listed domains (21).
        let new_specs: Vec<PlantSpec> = plant::top2021_new_localhost_specs()
            .into_iter()
            .chain(plant::top2021_new_lan_specs())
            .collect();
        let domains2020: std::collections::HashSet<&str> = snapshot2020
            .entries
            .iter()
            .map(|e| e.domain.as_str())
            .collect();
        // Domains that exhibited *any* behaviour in 2020 (carried or
        // stopped) are excluded from new-planting candidacy: the paper
        // says the 19 newly-behaving sites "were crawled in 2020 but
        // were not observed as generating such traffic".
        let behaved2020: std::collections::HashSet<&str> = planted2020
            .keys()
            .map(|rank| snapshot2020.entries[(*rank - 1) as usize].domain.as_str())
            .collect();
        // Partition candidate hosts for new plantings.
        let mut existing_hosts: Vec<&kt_weblists::RankedDomain> = Vec::new();
        let mut fresh_hosts: Vec<&kt_weblists::RankedDomain> = Vec::new();
        for e in &snapshot2021.entries {
            if carried.contains_key(e.domain.as_str()) || behaved2020.contains(e.domain.as_str()) {
                continue; // already carries or previously exhibited a behaviour
            }
            if domains2020.contains(e.domain.as_str()) {
                existing_hosts.push(e);
            } else {
                fresh_hosts.push(e);
            }
        }
        // Deterministically thin the host lists to spread ranks.
        let pick_spread =
            |hosts: &[&kt_weblists::RankedDomain], count: usize| -> Vec<(u32, DomainName)> {
                let mut out = Vec::with_capacity(count);
                if hosts.is_empty() || count == 0 {
                    return out;
                }
                let stride = (hosts.len() / count.max(1)).max(1);
                for i in 0..count {
                    let idx = (i * stride
                        + (hash_str(seed, format_args!("h21:{i}")) as usize % stride.max(1)))
                    .min(hosts.len() - 1);
                    out.push((hosts[idx].rank, hosts[idx].domain.clone()));
                }
                out.dedup_by(|a, b| a.1 == b.1);
                // Fill any dedup losses from the tail.
                let mut tail = hosts.len();
                while out.len() < count && tail > 0 {
                    tail -= 1;
                    let cand = hosts[tail];
                    if !out.iter().any(|(_, d)| d == &cand.domain) {
                        out.push((cand.rank, cand.domain.clone()));
                    }
                }
                out
            };
        // The paper: 19 new-behaviour sites existed in 2020, 21 are
        // newly listed; LAN adds 7 more (placement split pro rata).
        let n_existing = 19.min(new_specs.len());
        let existing_assign = pick_spread(&existing_hosts, n_existing);
        let fresh_assign = pick_spread(&fresh_hosts, new_specs.len() - existing_assign.len());
        let mut new_hosts: Vec<(u32, DomainName)> = existing_assign;
        new_hosts.extend(fresh_assign);
        let new_by_domain: HashMap<String, usize> = new_hosts
            .iter()
            .enumerate()
            .map(|(i, (_, d))| (d.as_str().to_string(), i))
            .collect();

        let mut sites2021 = Vec::with_capacity(snapshot2021.len());
        for entry in &snapshot2021.entries {
            let mut site = WebSite::plain(
                entry.domain.clone(),
                Some(entry.rank),
                (2 + hash_str(seed, format_args!("pub21:{}", entry.domain)) % 9) as u8,
            );
            site.https = unit(seed, format_args!("https:{}", entry.domain)) < 0.88;
            if let Some(&spec_idx) = carried.get(entry.domain.as_str()) {
                let spec = &specs2020[spec_idx];
                site.category = spec.category;
                site.behaviors
                    .push(materialise(spec, &entry.domain, spec_idx, seed, &forge));
                site.set_availability_all(Availability::Up);
            } else if let Some(&new_idx) = new_by_domain.get(entry.domain.as_str()) {
                let spec = &new_specs[new_idx];
                site.category = spec.category;
                site.behaviors.push(materialise(
                    spec,
                    &entry.domain,
                    1_000 + new_idx,
                    seed,
                    &forge,
                ));
                site.set_availability_all(Availability::Up);
            } else {
                for os in Os::ALL {
                    site.set_availability(
                        os,
                        sample_availability(
                            seed,
                            entry.domain.as_str(),
                            "top2021",
                            os,
                            top_failure_rate(2021, os),
                        ),
                    );
                }
            }
            sites2021.push(site);
        }

        // ---- malicious plantings ---------------------------------
        let localhost_plants = plant::malicious::localhost_specs();
        let lan_plants = plant::malicious::lan_specs();
        // Assign plantings to blocklist entries per category, spreading
        // over each category's entry list.
        let mut per_category: HashMap<MaliciousCategory, Vec<usize>> = HashMap::new();
        for (i, e) in blocklist.entries.iter().enumerate() {
            per_category.entry(e.category).or_default().push(i);
        }
        // entry index -> planting
        let mut planted_mal: HashMap<usize, PlantedBehavior> = HashMap::new();
        let mut cat_cursor: HashMap<MaliciousCategory, usize> = HashMap::new();
        for (pi, p) in localhost_plants.iter().chain(lan_plants.iter()).enumerate() {
            let Some(pool) = per_category.get(&p.category) else {
                continue;
            };
            if pool.is_empty() {
                continue;
            }
            let cursor = cat_cursor.entry(p.category).or_insert(0);
            // Stride through the pool to spread plantings out.
            let total_for_cat = localhost_plants
                .iter()
                .chain(lan_plants.iter())
                .filter(|q| q.category == p.category)
                .count();
            let stride = (pool.len() / total_for_cat.max(1)).max(1);
            let slot = (*cursor * stride) % pool.len();
            let mut entry_idx = pool[slot];
            // Linear-probe to an unplanted entry.
            let mut probe = slot;
            while planted_mal.contains_key(&entry_idx) {
                probe = (probe + 1) % pool.len();
                entry_idx = pool[probe];
                if probe == slot {
                    break;
                }
            }
            *cursor += 1;
            let domain = &blocklist.entries[entry_idx].domain;
            // Phishing TM clones inherit the vendor of the site they
            // impersonate: derive an impersonated brand deterministically.
            let planted = match &p.spec.behavior {
                Behavior::ThreatMetrix { vendor } if vendor.as_str() == VENDOR_PLACEHOLDER => {
                    let brand_rank = (hash_str(seed, format_args!("clone:{pi}"))
                        % snapshot2020.len().max(1) as u64)
                        as usize;
                    let target =
                        &snapshot2020.entries[brand_rank.min(snapshot2020.len() - 1)].domain;
                    PlantedBehavior {
                        behavior: Behavior::ThreatMetrix {
                            vendor: forge.vendor_for(target, pi as u64),
                        },
                        os_set: p.spec.os_set,
                        base_delay_ms: sample_delay(seed, domain.as_str(), pi, p.spec.delay),
                    }
                }
                _ => materialise(&p.spec, domain, 2_000 + pi, seed, &forge),
            };
            planted_mal.insert(entry_idx, planted);
        }

        let mut malicious_sites = Vec::with_capacity(blocklist.len());
        for (i, e) in blocklist.entries.iter().enumerate() {
            let mut site = WebSite::plain(
                e.domain.clone(),
                None,
                (1 + hash_str(seed, format_args!("pubm:{}", e.domain)) % 6) as u8,
            );
            site.category = SiteCategory::Malicious;
            site.https = e.url.starts_with("https://");
            if let Some(planted) = planted_mal.get(&i) {
                site.behaviors.push(planted.clone());
                site.set_availability_all(Availability::Up);
            } else {
                for os in Os::ALL {
                    site.set_availability(
                        os,
                        sample_availability(
                            seed,
                            e.domain.as_str(),
                            "malicious",
                            os,
                            malicious_failure_rate(e.category, os),
                        ),
                    );
                }
            }
            malicious_sites.push(site);
        }

        // ---- internal-page plantings (deep-crawl mode) -----------
        // ThreatMetrix deployed on login pages only: invisible to the
        // paper's landing-page crawl, observable with crawl_internal.
        {
            let internal_specs = plant::top2020_internal_specs();
            let mut placed = 0usize;
            let mut idx = 0usize;
            let stride = (sites2020.len() / (internal_specs.len() + 1)).max(1);
            while placed < internal_specs.len() && idx < sites2020.len() {
                let site = &mut sites2020[idx];
                if site.behaviors.is_empty() && site.availability_on(Os::Windows).is_up() {
                    let spec = &internal_specs[placed];
                    site.category = spec.category;
                    let domain = site.domain.clone();
                    site.internal_behaviors.push(materialise(
                        spec,
                        &domain,
                        5_000 + placed,
                        seed,
                        &forge,
                    ));
                    placed += 1;
                    idx += stride;
                } else {
                    idx += 1;
                }
            }
            debug_assert_eq!(placed, internal_specs.len(), "all internal specs placed");
        }

        // ---- anti-bot sensor plantings (measurement-bias model) ---
        // Gating sensors ride on behaviour sites; WebRTC probes land
        // on otherwise-quiet sites, whose only local signal is then
        // the gathered ICE candidates. Both are keyed purely on
        // (seed, domain), so the planted ground truth is exact.
        if config.sensors {
            use crate::sensor::{BotSensor, SensorArchetype};
            for site in sites2020.iter_mut().filter(|s| !s.behaviors.is_empty()) {
                if BotSensor::deployed_on(seed, site.domain.as_str()) {
                    site.sensor = Some(BotSensor::for_behavior_site(seed, site.domain.as_str()));
                }
            }
            const WEBRTC_PROBES: usize = 24;
            let mut placed = 0usize;
            let mut idx = 0usize;
            let stride = (sites2020.len() / (WEBRTC_PROBES + 1)).max(1);
            while placed < WEBRTC_PROBES && idx < sites2020.len() {
                let site = &mut sites2020[idx];
                if site.behaviors.is_empty()
                    && site.internal_behaviors.is_empty()
                    && site.sensor.is_none()
                    && Os::ALL.iter().all(|os| site.availability_on(*os).is_up())
                {
                    site.sensor = Some(BotSensor {
                        archetype: SensorArchetype::WebRtcProbe,
                    });
                    placed += 1;
                    idx += stride;
                } else {
                    idx += 1;
                }
            }
            debug_assert_eq!(placed, WEBRTC_PROBES, "all WebRTC probes placed");
        }

        WebPopulation {
            config,
            snapshot2020,
            snapshot2021,
            blocklist,
            sites2020,
            sites2021,
            malicious_sites,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kt_netbase::OsSet;

    /// The seeded hash over an already formatted label, as it was
    /// computed before labels were streamed.
    fn hash_of_formatted(seed: u64, s: &str) -> u64 {
        let mut h = rng::splitmix64(seed ^ 0x6b74_7067);
        for chunk in s.as_bytes().chunks(8) {
            let mut lane = [0u8; 8];
            lane[..chunk.len()].copy_from_slice(chunk);
            h = rng::splitmix64(h ^ u64::from_le_bytes(lane));
        }
        rng::splitmix64(h ^ s.len() as u64)
    }

    #[test]
    fn streamed_hash_equals_the_hash_of_the_formatted_label() {
        for seed in [0, 42, u64::MAX] {
            assert_eq!(hash_str(seed, ""), hash_of_formatted(seed, ""));
            for n in 0..20 {
                let domain = "é".repeat(n % 3) + &"d".repeat(n) + ".example";
                assert_eq!(
                    hash_str(seed, format_args!("sensor-delay:{domain}")),
                    hash_of_formatted(seed, &format!("sensor-delay:{domain}")),
                    "{domain}"
                );
            }
        }
    }

    fn small() -> WebPopulation {
        WebPopulation::generate(PopulationConfig::test_scale(42))
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small();
        let b = small();
        assert_eq!(a.sites2020, b.sites2020);
        assert_eq!(a.sites2021, b.sites2021);
        assert_eq!(a.malicious_sites, b.malicious_sites);
    }

    #[test]
    fn all_2020_plantings_are_placed() {
        let p = small();
        let planted = p
            .sites2020
            .iter()
            .filter(|s| !s.behaviors.is_empty())
            .count();
        assert_eq!(planted, 116, "107 localhost + 9 LAN plantings");
    }

    #[test]
    fn localhost_activity_counts_match_figure2a() {
        let p = small();
        let active = |os: Os| {
            p.sites2020
                .iter()
                .filter(|s| {
                    s.planned_requests(os)
                        .iter()
                        .any(|r| r.url.is_local() && r.url.locality().is_loopback())
                })
                .count()
        };
        assert_eq!(active(Os::Windows), 92);
        assert_eq!(active(Os::Linux), 53);
        assert_eq!(active(Os::MacOs), 54);
    }

    #[test]
    fn lan_activity_2020() {
        let p = small();
        let lan_sites = p
            .sites2020
            .iter()
            .filter(|s| {
                Os::ALL.iter().any(|os| {
                    s.planned_requests(*os)
                        .iter()
                        .any(|r| r.url.locality().is_private())
                })
            })
            .count();
        assert_eq!(lan_sites, 9);
    }

    #[test]
    fn no_overlap_between_localhost_and_lan_sites_2020() {
        // The paper found no overlap between the two site sets (§4.1).
        let p = small();
        for s in p.sites2020.iter().filter(|s| !s.behaviors.is_empty()) {
            let mut loopback = false;
            let mut lan = false;
            for os in Os::ALL {
                for r in s.planned_requests(os) {
                    if r.url.locality().is_loopback() {
                        loopback = true;
                    }
                    if r.url.locality().is_private() {
                        lan = true;
                    }
                }
            }
            assert!(
                !(loopback && lan),
                "{} does both localhost and LAN",
                s.domain
            );
        }
    }

    #[test]
    fn planted_sites_are_always_up() {
        let p = small();
        for s in p.sites2020.iter().filter(|s| !s.behaviors.is_empty()) {
            for os in Os::ALL {
                assert!(s.availability_on(os).is_up());
            }
        }
    }

    #[test]
    fn failure_rates_are_plausible_2020() {
        let p = WebPopulation::generate(PopulationConfig {
            seed: 7,
            top_size: 8_000,
            malicious_size: 600,
            sensors: false,
        });
        let failed = p
            .sites2020
            .iter()
            .filter(|s| !s.availability_on(Os::Windows).is_up())
            .count() as f64
            / p.sites2020.len() as f64;
        assert!((0.08..0.13).contains(&failed), "Windows 2020 fail {failed}");
        // DNS dominates failures (Table 1: ~89%).
        let fails: Vec<Availability> = p
            .sites2020
            .iter()
            .map(|s| s.availability_on(Os::Windows))
            .filter(|a| !a.is_up())
            .collect();
        let dns = fails
            .iter()
            .filter(|a| **a == Availability::NxDomain)
            .count() as f64
            / fails.len() as f64;
        assert!((0.84..0.93).contains(&dns), "DNS share {dns}");
    }

    #[test]
    fn sensor_planting_is_opt_in_and_leaves_behaviours_untouched() {
        use crate::sensor::SensorArchetype;
        let plain = small();
        assert!(plain.sites2020.iter().all(|s| s.sensor.is_none()));
        let biased = WebPopulation::generate(PopulationConfig::bias_scale(42));
        // Behaviour planting is byte-identical: sensors gate the
        // *browser*, not the planted ground truth.
        for (a, b) in plain.sites2020.iter().zip(biased.sites2020.iter()) {
            assert_eq!(a.domain, b.domain);
            assert_eq!(a.behaviors, b.behaviors);
            assert_eq!(a.availability, b.availability);
        }
        // A healthy share of behaviour sites carries a gating sensor…
        let gated = biased
            .sites2020
            .iter()
            .filter(|s| !s.behaviors.is_empty() && s.sensor.is_some())
            .count();
        assert!((40..=100).contains(&gated), "gated {gated}");
        // …and exactly 24 quiet sites carry the WebRTC probe.
        let probes = biased
            .sites2020
            .iter()
            .filter(|s| {
                s.behaviors.is_empty()
                    && matches!(
                        s.sensor,
                        Some(crate::sensor::BotSensor {
                            archetype: SensorArchetype::WebRtcProbe
                        })
                    )
            })
            .count();
        assert_eq!(probes, 24);
        // Ground truth counts both behaviour sites and probe sites.
        let truth = biased
            .sites2020
            .iter()
            .filter(|s| s.has_local_ground_truth())
            .count();
        assert_eq!(truth, 116 + 24);
    }

    #[test]
    fn vendor_placeholder_is_always_substituted() {
        let p = small();
        for s in &p.sites2020 {
            for b in &s.behaviors {
                if let Behavior::ThreatMetrix { vendor } = &b.behavior {
                    assert_ne!(vendor.as_str(), VENDOR_PLACEHOLDER);
                }
            }
        }
    }

    #[test]
    fn snapshot_overlap_is_roughly_75_percent() {
        let p = small();
        let overlap = p.snapshot2020.overlap_with(&p.snapshot2021);
        assert!((0.68..0.82).contains(&overlap), "{overlap}");
    }

    #[test]
    fn sites2021_activity_totals_match_figure9() {
        let p = small();
        let active = |os: Os| {
            p.sites2021
                .iter()
                .filter(|s| {
                    s.planned_requests(os)
                        .iter()
                        .any(|r| r.url.locality().is_loopback())
                })
                .count()
        };
        assert_eq!(active(Os::Windows), 82);
        assert_eq!(active(Os::Linux), 48);
    }

    #[test]
    fn sites2021_lan_count_matches_table10() {
        let p = small();
        let lan = p
            .sites2021
            .iter()
            .filter(|s| {
                [Os::Windows, Os::Linux].iter().any(|os| {
                    s.planned_requests(*os)
                        .iter()
                        .any(|r| r.url.locality().is_private())
                })
            })
            .count();
        assert_eq!(lan, 8, "7 new + 1 carried (unib)");
    }

    #[test]
    fn malicious_sites_follow_table2() {
        let p = small();
        let planted = p
            .malicious_sites
            .iter()
            .filter(|s| !s.behaviors.is_empty())
            .count();
        assert_eq!(planted, 160, "151 localhost + 9 LAN malicious plantings");
        // Phishing ThreatMetrix clones exist and are Windows-only.
        let clones = p
            .malicious_sites
            .iter()
            .filter(|s| {
                s.behaviors
                    .iter()
                    .any(|b| matches!(b.behavior, Behavior::ThreatMetrix { .. }))
            })
            .count();
        assert_eq!(clones, 13);
    }

    #[test]
    fn carried_behaviors_persist_across_snapshots() {
        let p = small();
        let carried_2020: std::collections::HashSet<&str> = p
            .sites2020
            .iter()
            .filter(|s| !s.behaviors.is_empty())
            .map(|s| s.domain.as_str())
            .collect();
        let behaved_2021: Vec<&WebSite> = p
            .sites2021
            .iter()
            .filter(|s| !s.behaviors.is_empty())
            .collect();
        let carried_count = behaved_2021
            .iter()
            .filter(|s| carried_2020.contains(s.domain.as_str()))
            .count();
        // 42 carried localhost + 1 carried LAN = 43 … but a carried
        // domain only persists if the successor snapshot kept it, and
        // new plantings may land on previously-behaving... they can't
        // (those domains are skipped). Allow the snapshot to have
        // dropped a few.
        assert!(
            (35..=43).contains(&carried_count),
            "carried {carried_count}"
        );
    }

    #[test]
    fn os_sets_respect_intrinsic_constraints() {
        let p = small();
        for s in &p.sites2020 {
            for b in &s.behaviors {
                if matches!(b.behavior, Behavior::ThreatMetrix { .. }) {
                    assert_eq!(b.effective_os_set(), OsSet::WINDOWS_ONLY);
                }
            }
        }
    }
}
