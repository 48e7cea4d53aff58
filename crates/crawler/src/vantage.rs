//! Crawl vantage points (Figure 1 of the paper).

use kt_netbase::Os;

/// The network a crawl runs from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetworkVantage {
    /// Georgia Tech's academic ISP (the Windows and Linux VMs).
    AcademicIsp,
    /// Comcast residential (the MacBook Air).
    ResidentialIsp,
}

impl NetworkVantage {
    /// Display label.
    pub fn name(self) -> &'static str {
        match self {
            NetworkVantage::AcademicIsp => "Georgia Tech (academic ISP)",
            NetworkVantage::ResidentialIsp => "Comcast (residential ISP)",
        }
    }
}

/// One (OS, network) crawl configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CrawlVantage {
    /// The crawling OS.
    pub os: Os,
    /// The network it crawls from.
    pub network: NetworkVantage,
}

impl CrawlVantage {
    /// The paper's vantage for a given OS: Windows and Linux crawled
    /// from Georgia Tech VMs, Mac from a residential Comcast line
    /// (Mac OS X licensing requires Apple hardware — §3.1, fn. 2).
    pub fn paper(os: Os) -> CrawlVantage {
        CrawlVantage {
            os,
            network: match os {
                Os::Windows | Os::Linux => NetworkVantage::AcademicIsp,
                Os::MacOs => NetworkVantage::ResidentialIsp,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_vantages() {
        assert_eq!(
            CrawlVantage::paper(Os::Windows).network,
            NetworkVantage::AcademicIsp
        );
        assert_eq!(
            CrawlVantage::paper(Os::Linux).network,
            NetworkVantage::AcademicIsp
        );
        assert_eq!(
            CrawlVantage::paper(Os::MacOs).network,
            NetworkVantage::ResidentialIsp
        );
        assert!(NetworkVantage::ResidentialIsp.name().contains("Comcast"));
    }
}
