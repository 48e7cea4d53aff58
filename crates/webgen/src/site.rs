//! The website content model.
//!
//! A [`WebSite`] is everything the crawler can observe about one
//! domain's landing page: whether it loads (and if not, which of
//! Table 1's error classes it fails with), which ordinary public
//! resources it embeds (the noise detection must filter), and which
//! local-traffic [`Behavior`]s it exhibits on which OSes.

use kt_netbase::{DomainName, Os, OsSet};

use crate::behavior::{Behavior, PlannedRequest};
use crate::sensor::BotSensor;

/// Rough site genre — drives which behaviours are plausible (the paper
/// found ThreatMetrix on e-commerce, BIG-IP on government sites, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SiteCategory {
    /// Online shops, payment, banking.
    Ecommerce,
    /// Government portals, central banks, open-data sites.
    Government,
    /// Gaming portals and launchers.
    Gaming,
    /// Streaming/media.
    Media,
    /// News and blogs.
    News,
    /// Everything else.
    Generic,
    /// A known-malicious page (malware/abuse/phishing populations).
    Malicious,
}

/// How the landing page answers the crawler — the Table 1 taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Availability {
    /// Loads successfully.
    Up,
    /// DNS name does not resolve (`NAME_NOT_RESOLVED`).
    NxDomain,
    /// TCP connection refused (`CONN_REFUSED`).
    Refused,
    /// Connection reset mid-handshake (`CONN_RESET`).
    Reset,
    /// HTTPS certificate name mismatch (`CERT_CN_INVALID`).
    CertInvalid,
    /// The long tail (timeouts, empty responses, …).
    OtherError,
}

impl Availability {
    /// True if the page can be crawled.
    pub fn is_up(self) -> bool {
        self == Availability::Up
    }
}

/// A behaviour as planted on a specific site: the behaviour itself,
/// the OS pattern for *this* site, and the firing delay that anchors
/// the Figure 5–7 timing distributions.
#[derive(Debug, Clone, PartialEq)]
pub struct PlantedBehavior {
    /// The behaviour.
    pub behavior: Behavior,
    /// OSes on which this site runs the behaviour (intersected with
    /// the behaviour's intrinsic OS set at expansion time).
    pub os_set: OsSet,
    /// Base delay after page load, in ms.
    pub base_delay_ms: u64,
}

impl PlantedBehavior {
    /// The effective OS set: per-site pattern ∩ intrinsic pattern.
    pub fn effective_os_set(&self) -> OsSet {
        self.os_set.intersect(self.behavior.default_os_set())
    }

    /// The requests this planting issues on `os`.
    pub fn planned_requests(&self, site: &DomainName, os: Os) -> Vec<PlannedRequest> {
        if !self.os_set.contains(os) {
            return Vec::new();
        }
        self.behavior.planned_requests(site, os, self.base_delay_ms)
    }
}

/// One website in the synthetic population.
#[derive(Debug, Clone, PartialEq)]
pub struct WebSite {
    /// The site's registrable domain.
    pub domain: DomainName,
    /// Tranco rank, for top-list sites.
    pub rank: Option<u32>,
    /// Genre.
    pub category: SiteCategory,
    /// Whether/how the landing page loads, possibly OS-varying (sites
    /// flap between the three OS crawls, which run at different times).
    pub availability: [(Os, Availability); 3],
    /// Whether the landing page is served over HTTPS.
    pub https: bool,
    /// Number of ordinary public third-party resources the page loads
    /// (CDNs, analytics, images) — noise the detector must ignore.
    pub public_resources: u8,
    /// Local-traffic behaviours on the landing page.
    pub behaviors: Vec<PlantedBehavior>,
    /// Local-traffic behaviours that only run on *internal* pages
    /// (login, checkout, …). The paper crawled landing pages only and
    /// calls its counts "a lower bound" (§3.3); a blog post it cites
    /// found ThreatMetrix specifically on login pages. Deep-crawl mode
    /// (`BrowserConfig::crawl_internal`) executes these too.
    pub internal_behaviors: Vec<PlantedBehavior>,
    /// Anti-bot sensor, if this site deploys one: its verdict on the
    /// visiting crawler profile gates whether the behaviours above run
    /// unmodified, suppressed, delayed, or swapped (the measurement-
    /// bias model; only planted when `PopulationConfig::sensors`).
    pub sensor: Option<BotSensor>,
}

impl WebSite {
    /// A plain, healthy site with no local behaviour.
    pub fn plain(domain: DomainName, rank: Option<u32>, public_resources: u8) -> WebSite {
        WebSite {
            domain,
            rank,
            category: SiteCategory::Generic,
            availability: [
                (Os::Windows, Availability::Up),
                (Os::Linux, Availability::Up),
                (Os::MacOs, Availability::Up),
            ],
            https: true,
            public_resources,
            behaviors: Vec::new(),
            internal_behaviors: Vec::new(),
            sensor: None,
        }
    }

    /// Availability on one OS.
    pub fn availability_on(&self, os: Os) -> Availability {
        self.availability
            .iter()
            .find(|(o, _)| *o == os)
            .map(|(_, a)| *a)
            .expect("all three OSes present")
    }

    /// Set availability on one OS.
    pub fn set_availability(&mut self, os: Os, availability: Availability) {
        for slot in &mut self.availability {
            if slot.0 == os {
                slot.1 = availability;
            }
        }
    }

    /// Set availability on every OS.
    pub fn set_availability_all(&mut self, availability: Availability) {
        for os in Os::ALL {
            self.set_availability(os, availability);
        }
    }

    /// All requests the page will issue on `os` — the behaviours'
    /// plans. (Ordinary public resources are synthesised separately by
    /// the browser, which knows the page's origin.)
    pub fn planned_requests(&self, os: Os) -> Vec<PlannedRequest> {
        let mut plan: Vec<PlannedRequest> = self
            .behaviors
            .iter()
            .flat_map(|b| b.planned_requests(&self.domain, os))
            .collect();
        plan.sort_by_key(|r| r.delay_ms);
        plan
    }

    /// Requests issued by the site's *internal* pages on `os` (only
    /// observable in deep-crawl mode).
    pub fn planned_internal_requests(&self, os: Os) -> Vec<PlannedRequest> {
        let mut plan: Vec<PlannedRequest> = self
            .internal_behaviors
            .iter()
            .flat_map(|b| b.planned_requests(&self.domain, os))
            .collect();
        plan.sort_by_key(|r| r.delay_ms);
        plan
    }

    /// True if this site issues any locally-destined request on `os`.
    pub fn is_locally_active_on(&self, os: Os) -> bool {
        self.planned_requests(os).iter().any(|r| r.url.is_local())
    }

    /// The union of OSes on which this site is locally active.
    pub fn local_os_set(&self) -> OsSet {
        OsSet::from_fn(|os| self.is_locally_active_on(os))
    }

    /// Planted ground truth for the bias experiment: the site emits
    /// *some* local-discovery signal for a perfectly-evasive visitor —
    /// either planted request behaviours or a WebRTC probe sensor
    /// (which surfaces local ICE candidates instead of requests).
    pub fn has_local_ground_truth(&self) -> bool {
        !self.behaviors.is_empty()
            || matches!(
                self.sensor,
                Some(BotSensor {
                    archetype: crate::sensor::SensorArchetype::WebRtcProbe,
                })
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::{DevError, NativeApp};
    use kt_netbase::Scheme;

    fn domain(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    #[test]
    fn plain_site_has_no_local_activity() {
        let site = WebSite::plain(domain("quiet.example"), Some(500), 12);
        for os in Os::ALL {
            assert!(!site.is_locally_active_on(os));
            assert!(site.availability_on(os).is_up());
        }
        assert_eq!(site.local_os_set(), OsSet::NONE);
    }

    #[test]
    fn per_site_os_set_intersects_intrinsic() {
        // Discord runs on every OS intrinsically, but this site only
        // embeds the probe on Windows+Linux.
        let mut site = WebSite::plain(domain("invite.example"), Some(100), 4);
        site.behaviors.push(PlantedBehavior {
            behavior: Behavior::NativeApp(NativeApp::Discord),
            os_set: OsSet::WINDOWS_LINUX,
            base_delay_ms: 2_000,
        });
        assert!(site.is_locally_active_on(Os::Windows));
        assert!(site.is_locally_active_on(Os::Linux));
        assert!(!site.is_locally_active_on(Os::MacOs));
        assert_eq!(site.local_os_set(), OsSet::WINDOWS_LINUX);
    }

    #[test]
    fn intrinsic_windows_only_wins_over_site_all() {
        let mut site = WebSite::plain(domain("shop.example"), Some(104), 20);
        site.behaviors.push(PlantedBehavior {
            behavior: Behavior::ThreatMetrix {
                vendor: domain("shop-metrics.example"),
            },
            os_set: OsSet::ALL,
            base_delay_ms: 10_000,
        });
        assert_eq!(site.local_os_set(), OsSet::WINDOWS_ONLY);
        assert_eq!(site.behaviors[0].effective_os_set(), OsSet::WINDOWS_ONLY);
    }

    #[test]
    fn planned_requests_are_sorted_by_delay() {
        let mut site = WebSite::plain(domain("multi.example"), None, 3);
        site.behaviors.push(PlantedBehavior {
            behavior: Behavior::DevError(DevError::LiveReload {
                scheme: Scheme::Https,
                port: 35729,
            }),
            os_set: OsSet::ALL,
            base_delay_ms: 5_000,
        });
        site.behaviors.push(PlantedBehavior {
            behavior: Behavior::NativeApp(NativeApp::Faceit),
            os_set: OsSet::ALL,
            base_delay_ms: 1_000,
        });
        let plan = site.planned_requests(Os::Linux);
        assert_eq!(plan.len(), 2);
        assert!(plan[0].delay_ms <= plan[1].delay_ms);
        assert_eq!(plan[0].url.port(), 28337);
    }

    #[test]
    fn availability_flapping_across_oses() {
        let mut site = WebSite::plain(domain("flaky.example"), Some(9_000), 2);
        site.set_availability(Os::MacOs, Availability::NxDomain);
        assert!(site.availability_on(Os::Windows).is_up());
        assert!(!site.availability_on(Os::MacOs).is_up());
        site.set_availability_all(Availability::Reset);
        for os in Os::ALL {
            assert_eq!(site.availability_on(os), Availability::Reset);
        }
    }
}
