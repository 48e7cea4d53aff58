//! Browser configuration, mirroring the paper's crawl settings.

use kt_netbase::Os;
use kt_webgen::CrawlerProfile;

/// Private Network Access enforcement mode (§5.3). `Off` reproduces
/// the paper's crawls (Chrome v84 predates the proposal); the other
/// modes gate local requests on a secure initiating context plus a
/// preflight opt-in under the given adoption assumption.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PnaMode {
    /// No enforcement (Chrome v84 behaviour).
    #[default]
    Off,
    /// Enforce; no local service opts in.
    EnforceNoOptIn,
    /// Enforce; native-application ports opt in.
    EnforceNativeOptIn,
    /// Enforce; every service opts in (secure-context check only).
    EnforceFullOptIn,
}

/// Configuration of one browser instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BrowserConfig {
    /// Host operating system (decides OS-conditional site behaviour
    /// and the localhost service environment).
    pub os: Os,
    /// Observation window per page, ms. The paper chose 20 s after
    /// measuring that >98% of requests fire within 15 s (§3.1).
    pub window_ms: u64,
    /// Chrome Safe Browsing. The paper disables it so blocklisted
    /// pages can actually be visited.
    pub safe_browsing: bool,
    /// Clean profile per visit (incognito).
    pub incognito: bool,
    /// Private Network Access enforcement.
    pub pna: PnaMode,
    /// Deep-crawl mode: also execute behaviours that live on internal
    /// pages (login/checkout), which the paper's landing-page-only
    /// method cannot see (§3.3). Off for the paper's configuration.
    pub crawl_internal: bool,
    /// How the crawler presents itself to anti-bot sensors. The
    /// paper's instrumented Chrome is a stock headless automation
    /// (`Naive`); the bias experiment sweeps the other profiles.
    pub profile: CrawlerProfile,
}

impl BrowserConfig {
    /// The paper's configuration for a given OS.
    pub fn paper(os: Os) -> BrowserConfig {
        BrowserConfig {
            os,
            window_ms: 20_000,
            safe_browsing: false,
            incognito: true,
            pna: PnaMode::Off,
            crawl_internal: false,
            profile: CrawlerProfile::Naive,
        }
    }
}

impl Default for BrowserConfig {
    fn default() -> Self {
        BrowserConfig::paper(Os::Linux)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_settings() {
        let c = BrowserConfig::paper(Os::Windows);
        assert_eq!(c.window_ms, 20_000);
        assert!(!c.safe_browsing, "Safe Browsing disabled (§3.1)");
        assert!(c.incognito, "clean profile per visit (§3.1)");
        assert_eq!(c.os, Os::Windows);
        assert_eq!(c.pna, PnaMode::Off, "Chrome v84 predates PNA");
        assert!(!c.crawl_internal, "the paper crawls landing pages only");
        assert_eq!(
            c.profile,
            CrawlerProfile::Naive,
            "the paper's crawler is stock headless automation"
        );
    }
}
