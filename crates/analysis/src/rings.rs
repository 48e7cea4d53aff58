//! Figures 4 and 8 — the OS → scheme → port sunburst data.
//!
//! The figures in the paper are three-ring sunbursts: the centre is an
//! OS with its total localhost request count, the middle ring splits
//! by scheme, the outer ring by port. This module computes exactly
//! those nested counts; `knocktalk repro` renders them as indented
//! text.

use kt_netbase::{Os, Scheme};
use std::collections::BTreeMap;

use crate::detect::LocalObservation;

/// Nested request counts for one OS.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OsRing {
    /// Total localhost requests on this OS.
    pub total: usize,
    /// scheme → (total, port → count).
    pub by_scheme: BTreeMap<Scheme, SchemeRing>,
}

/// Counts for one scheme within one OS.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchemeRing {
    /// Requests over this scheme.
    pub total: usize,
    /// Port → request count.
    pub by_port: BTreeMap<u16, usize>,
}

/// The full figure: one ring set per OS.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PortRings {
    /// OS → nested counts.
    pub by_os: BTreeMap<Os, OsRing>,
}

impl PortRings {
    /// Tally localhost observations (the paper's Figure 4 counts
    /// requests, not sites). LAN observations are excluded — the
    /// figure covers localhost traffic only.
    pub fn from_observations<'a, I>(observations: I) -> PortRings
    where
        I: IntoIterator<Item = &'a LocalObservation>,
    {
        let mut rings = PortRings::default();
        for obs in observations {
            if !obs.locality.is_loopback() {
                continue;
            }
            let os_ring = rings.by_os.entry(obs.os).or_default();
            os_ring.total += 1;
            let scheme_ring = os_ring.by_scheme.entry(obs.scheme).or_default();
            scheme_ring.total += 1;
            *scheme_ring.by_port.entry(obs.port).or_default() += 1;
        }
        rings
    }

    /// The dominant scheme on one OS, if any traffic exists.
    pub fn dominant_scheme(&self, os: Os) -> Option<(Scheme, f64)> {
        let ring = self.by_os.get(&os)?;
        let (scheme, counts) = ring.by_scheme.iter().max_by_key(|(_, r)| r.total)?;
        Some((*scheme, counts.total as f64 / ring.total.max(1) as f64))
    }

    /// Render as the indented text version of the sunburst.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (os, ring) in &self.by_os {
            out.push_str(&format!("{} ({} requests)\n", os.name(), ring.total));
            for (scheme, sring) in &ring.by_scheme {
                out.push_str(&format!("  {scheme} ({})\n", sring.total));
                let ports: Vec<String> = sring
                    .by_port
                    .iter()
                    .map(|(p, n)| {
                        if *n > 1 {
                            format!("{p}×{n}")
                        } else {
                            p.to_string()
                        }
                    })
                    .collect();
                out.push_str(&format!("    ports: {}\n", ports.join(" ")));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kt_netbase::{Locality, Url};

    fn obs(os: Os, scheme: Scheme, port: u16, loopback: bool) -> LocalObservation {
        let host = if loopback { "localhost" } else { "10.0.0.5" };
        let url = Url::parse(&format!("{scheme}://{host}:{port}/")).unwrap();
        LocalObservation {
            domain: "x.example".into(),
            rank: None,
            malicious_category: None,
            os,
            scheme,
            port,
            path: "/".into(),
            locality: if loopback {
                Locality::Loopback
            } else {
                Locality::Private
            },
            websocket: scheme.is_websocket(),
            via_redirect: false,
            time_ms: 0,
            delay_ms: 0,
            url,
        }
    }

    #[test]
    fn nested_counts() {
        let observations = vec![
            obs(Os::Windows, Scheme::Wss, 3389, true),
            obs(Os::Windows, Scheme::Wss, 3389, true),
            obs(Os::Windows, Scheme::Wss, 5939, true),
            obs(Os::Windows, Scheme::Http, 80, true),
            obs(Os::Linux, Scheme::Http, 80, true),
        ];
        let rings = PortRings::from_observations(&observations);
        let win = &rings.by_os[&Os::Windows];
        assert_eq!(win.total, 4);
        assert_eq!(win.by_scheme[&Scheme::Wss].total, 3);
        assert_eq!(win.by_scheme[&Scheme::Wss].by_port[&3389], 2);
        assert_eq!(rings.by_os[&Os::Linux].total, 1);
    }

    #[test]
    fn lan_observations_excluded() {
        let observations = vec![
            obs(Os::MacOs, Scheme::Http, 80, true),
            obs(Os::MacOs, Scheme::Http, 80, false), // LAN: not counted
        ];
        let rings = PortRings::from_observations(&observations);
        assert_eq!(rings.by_os[&Os::MacOs].total, 1);
    }

    #[test]
    fn dominant_scheme() {
        let observations = vec![
            obs(Os::Windows, Scheme::Wss, 3389, true),
            obs(Os::Windows, Scheme::Wss, 5900, true),
            obs(Os::Windows, Scheme::Http, 80, true),
        ];
        let rings = PortRings::from_observations(&observations);
        let (scheme, share) = rings.dominant_scheme(Os::Windows).unwrap();
        assert_eq!(scheme, Scheme::Wss);
        assert!((share - 2.0 / 3.0).abs() < 1e-9);
        assert!(rings.dominant_scheme(Os::Linux).is_none());
    }

    #[test]
    fn render_shape() {
        let observations = vec![obs(Os::Linux, Scheme::Ws, 28337, true)];
        let rings = PortRings::from_observations(&observations);
        let text = rings.render();
        assert!(text.contains("Linux (1 requests)"));
        assert!(text.contains("ws (1)"));
        assert!(text.contains("28337"));
    }
}
