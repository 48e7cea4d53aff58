//! Longitudinal 2020 → 2021 analysis (§4.1, §4.3's churn narrative).
//!
//! The paper repeatedly contrasts its two top-list crawls: which sites
//! kept their behaviour, which stopped (all BIG-IP deployments), which
//! domains started, and whether the newcomers were already in the
//! earlier list. This module computes the full per-class transition
//! matrix from the two crawls' site activities.

use std::collections::{BTreeMap, BTreeSet};

use crate::classify::{classify_site, ReasonClass};
use crate::detect::SiteLocalActivity;
use crate::report::TextTable;

/// One site's transition between the two measurements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Transition {
    /// Locally active in both crawls, same class.
    Carried,
    /// Active in both crawls but the classifier's reason changed.
    Reclassified,
    /// Active in 2020 only.
    Stopped,
    /// Active in 2021 only.
    Started,
}

impl Transition {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Transition::Carried => "carried",
            Transition::Reclassified => "reclassified",
            Transition::Stopped => "stopped",
            Transition::Started => "started",
        }
    }
}

/// The per-class transition matrix.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TransitionMatrix {
    /// (class as of the crawl where the site was active, transition)
    /// → count. For `Carried`/`Reclassified` the 2020 class is used.
    pub counts: BTreeMap<(ReasonClass, Transition), usize>,
    /// Sites per transition, for the §4.1 headline numbers.
    pub totals: BTreeMap<Transition, usize>,
}

/// Compute the matrix over localhost-active sites of two crawls.
pub fn transitions(
    sites2020: &[SiteLocalActivity],
    sites2021: &[SiteLocalActivity],
) -> TransitionMatrix {
    let classed = |sites: &[SiteLocalActivity]| -> BTreeMap<String, ReasonClass> {
        sites
            .iter()
            .filter(|s| s.has_localhost())
            .map(|s| (s.domain.clone(), classify_site(s)))
            .collect()
    };
    let y2020 = classed(sites2020);
    let y2021 = classed(sites2021);
    let domains: BTreeSet<&String> = y2020.keys().chain(y2021.keys()).collect();
    let mut matrix = TransitionMatrix::default();
    for domain in domains {
        let (class, transition) = match (y2020.get(domain), y2021.get(domain)) {
            (Some(a), Some(b)) if a == b => (*a, Transition::Carried),
            (Some(a), Some(_)) => (*a, Transition::Reclassified),
            (Some(a), None) => (*a, Transition::Stopped),
            (None, Some(b)) => (*b, Transition::Started),
            (None, None) => unreachable!("domain came from one of the maps"),
        };
        *matrix.counts.entry((class, transition)).or_default() += 1;
        *matrix.totals.entry(transition).or_default() += 1;
    }
    matrix
}

impl TransitionMatrix {
    /// Count for one (class, transition) cell.
    pub fn get(&self, class: ReasonClass, transition: Transition) -> usize {
        self.counts.get(&(class, transition)).copied().unwrap_or(0)
    }

    /// Render as a class × transition table.
    pub fn render(&self) -> String {
        let mut table = TextTable::new(["Reason", "carried", "reclassified", "stopped", "started"]);
        for class in ReasonClass::ALL {
            table.row([
                class.label().to_string(),
                self.get(class, Transition::Carried).to_string(),
                self.get(class, Transition::Reclassified).to_string(),
                self.get(class, Transition::Stopped).to_string(),
                self.get(class, Transition::Started).to_string(),
            ]);
        }
        table.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::LocalObservation;
    use kt_netbase::services::THREATMETRIX_PORTS;
    use kt_netbase::{Os, OsSet, Scheme, Url};

    fn tm_site(domain: &str) -> SiteLocalActivity {
        let observations: Vec<LocalObservation> = THREATMETRIX_PORTS
            .iter()
            .map(|p| {
                let url = Url::parse(&format!("wss://localhost:{p}/")).unwrap();
                LocalObservation {
                    domain: domain.to_string(),
                    rank: Some(1),
                    malicious_category: None,
                    os: Os::Windows,
                    scheme: Scheme::Wss,
                    port: *p,
                    path: "/".into(),
                    locality: url.locality(),
                    websocket: true,
                    via_redirect: false,
                    time_ms: 9_000,
                    delay_ms: 8_500,
                    url,
                }
            })
            .collect();
        SiteLocalActivity {
            domain: domain.to_string(),
            rank: Some(1),
            malicious_category: None,
            localhost_os: OsSet::WINDOWS_ONLY,
            lan_os: OsSet::NONE,
            observations,
        }
    }

    fn dev_site(domain: &str) -> SiteLocalActivity {
        let url = Url::parse("http://localhost:35729/livereload.js").unwrap();
        SiteLocalActivity {
            domain: domain.to_string(),
            rank: Some(2),
            malicious_category: None,
            localhost_os: OsSet::ALL,
            lan_os: OsSet::NONE,
            observations: vec![LocalObservation {
                domain: domain.to_string(),
                rank: Some(2),
                malicious_category: None,
                os: Os::Linux,
                scheme: Scheme::Http,
                port: 35729,
                path: "/livereload.js".into(),
                locality: url.locality(),
                websocket: false,
                via_redirect: false,
                time_ms: 2_000,
                delay_ms: 1_500,
                url,
            }],
        }
    }

    #[test]
    fn full_matrix() {
        let y2020 = vec![
            tm_site("carried.example"),
            tm_site("stopped.example"),
            dev_site("reclass.example"),
        ];
        let y2021 = vec![
            tm_site("carried.example"),
            tm_site("reclass.example"), // dev error became fraud: reclassified
            dev_site("started.example"),
        ];
        let m = transitions(&y2020, &y2021);
        assert_eq!(m.get(ReasonClass::FraudDetection, Transition::Carried), 1);
        assert_eq!(m.get(ReasonClass::FraudDetection, Transition::Stopped), 1);
        assert_eq!(
            m.get(ReasonClass::DeveloperError, Transition::Reclassified),
            1
        );
        assert_eq!(m.get(ReasonClass::DeveloperError, Transition::Started), 1);
        assert_eq!(m.totals[&Transition::Carried], 1);
        assert_eq!(m.totals[&Transition::Started], 1);
        let text = m.render();
        assert!(text.contains("Fraud Detection"));
        assert!(text.contains("carried"));
    }

    #[test]
    fn empty_inputs() {
        let m = transitions(&[], &[]);
        assert!(m.counts.is_empty());
        assert!(m.totals.is_empty());
        assert_eq!(m.get(ReasonClass::Unknown, Transition::Carried), 0);
    }
}
