//! Visit records: the unit the store holds.

use kt_netbase::Os;
use kt_netlog::{NetError, NetLogEvent};

/// Identifies one crawl campaign (e.g. `top2020`, `top2021`,
/// `malicious`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CrawlId(pub String);

impl CrawlId {
    /// The 2020 top-100K crawl.
    pub fn top2020() -> CrawlId {
        CrawlId("top2020".to_string())
    }

    /// The 2021 top-100K crawl.
    pub fn top2021() -> CrawlId {
        CrawlId("top2021".to_string())
    }

    /// The malicious-webpage crawl.
    pub fn malicious() -> CrawlId {
        CrawlId("malicious".to_string())
    }

    /// The identifier string.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

/// Landing-page load outcome (drives Table 1 / Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadOutcome {
    /// The page loaded.
    Success,
    /// The page failed with this Chrome net error.
    Error(NetError),
    /// The visit crashed the browser/worker and was quarantined; the
    /// record's events are the salvaged capture prefix. A measurement
    /// artifact, not a website failure — excluded from Table 1's
    /// error columns.
    Crashed,
}

impl LoadOutcome {
    /// True for successful loads.
    pub fn is_success(self) -> bool {
        self == LoadOutcome::Success
    }

    /// True for quarantined (crashed) visits.
    pub fn is_crashed(self) -> bool {
        self == LoadOutcome::Crashed
    }
}

/// The paper's OS column order (W, L, M) as a slot index: the store's
/// per-domain slots, the snapshot manifests' keys, and the codec's OS
/// byte all use it.
#[inline]
pub fn os_slot(os: Os) -> u8 {
    match os {
        Os::Windows => 0,
        Os::Linux => 1,
        Os::MacOs => 2,
    }
}

/// Inverse of [`os_slot`].
#[inline]
pub fn slot_os(slot: u8) -> Option<Os> {
    match slot {
        0 => Some(Os::Windows),
        1 => Some(Os::Linux),
        2 => Some(Os::MacOs),
        _ => None,
    }
}

/// One page visit: the paper's unit of telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct VisitRecord {
    /// Which crawl campaign this visit belongs to.
    pub crawl: CrawlId,
    /// The visited domain.
    pub domain: String,
    /// Tranco rank, for top-list crawls.
    pub rank: Option<u32>,
    /// Malicious blocklist category code (0 = malware, 1 = abuse,
    /// 2 = phishing), for the malicious crawl.
    pub malicious_category: Option<u8>,
    /// The crawling OS.
    pub os: Os,
    /// Landing-page outcome.
    pub outcome: LoadOutcome,
    /// Time at which the landing page finished loading, ms (0 when the
    /// load failed).
    pub loaded_at_ms: u64,
    /// The visit's NetLog events.
    pub events: Vec<NetLogEvent>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crawl_ids() {
        assert_eq!(CrawlId::top2020().as_str(), "top2020");
        assert_eq!(CrawlId::top2021().as_str(), "top2021");
        assert_eq!(CrawlId::malicious().as_str(), "malicious");
    }

    #[test]
    fn outcome_predicate() {
        assert!(LoadOutcome::Success.is_success());
        assert!(!LoadOutcome::Error(NetError::NameNotResolved).is_success());
        assert!(!LoadOutcome::Crashed.is_success());
        assert!(LoadOutcome::Crashed.is_crashed());
        assert!(!LoadOutcome::Error(NetError::TimedOut).is_crashed());
    }
}
