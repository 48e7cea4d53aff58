//! Appendix B — sub-classification of developer errors.
//!
//! The paper breaks its developer-error class into recognisable
//! shapes: local file-server fetches, the `xook.js` pen-test remnant,
//! `LiveReload.js`, loopback redirects, SockJS-node, "other local
//! services", and (in the malicious tables) the
//! `NonExistentImage*.gif` pattern. This module recovers the same
//! sub-classes from telemetry, enabling the Appendix-B breakdown of
//! Table 11.

use crate::detect::SiteLocalActivity;

/// The Appendix-B developer-error shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DevErrorKind {
    /// Fetching files (images, CSS, JS) from a local file server,
    /// typically a `wp-content` path.
    LocalFileServer,
    /// The OWASP Xenotix `xook.js` fetch.
    PenTest,
    /// `livereload.js`.
    LiveReload,
    /// A top-level redirect to `http://127.0.0.1/`.
    Redirect,
    /// `/sockjs-node/info` fetches.
    SockJsNode,
    /// The `NonExistentImageNNNN.gif` pattern.
    NonExistentImage,
    /// A LAN-hosted resource fetch.
    LanResource,
    /// Some other local service endpoint left enabled.
    OtherLocalService,
}

impl DevErrorKind {
    /// All kinds, in the Appendix-B presentation order.
    pub const ALL: [DevErrorKind; 8] = [
        DevErrorKind::LocalFileServer,
        DevErrorKind::PenTest,
        DevErrorKind::LiveReload,
        DevErrorKind::Redirect,
        DevErrorKind::SockJsNode,
        DevErrorKind::NonExistentImage,
        DevErrorKind::LanResource,
        DevErrorKind::OtherLocalService,
    ];

    /// Label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            DevErrorKind::LocalFileServer => "Local file server",
            DevErrorKind::PenTest => "Pen test (xook.js)",
            DevErrorKind::LiveReload => "LiveReload.js",
            DevErrorKind::Redirect => "Redirect to 127.0.0.1",
            DevErrorKind::SockJsNode => "SockJS-node",
            DevErrorKind::NonExistentImage => "NonExistentImage*.gif",
            DevErrorKind::LanResource => "LAN resource fetch",
            DevErrorKind::OtherLocalService => "Other local service",
        }
    }
}

/// File-ish suffixes marking a static-resource fetch.
const FILE_SUFFIXES: &[&str] = &[
    ".jpg", ".jpeg", ".png", ".gif", ".ico", ".mp4", ".ogg", ".css", ".html", ".txt",
];

/// Sub-classify a site already known (or suspected) to be a developer
/// error. The most specific signature wins; sites whose only local
/// traffic is LAN-destined classify as [`DevErrorKind::LanResource`].
pub fn classify_dev_error(site: &SiteLocalActivity) -> DevErrorKind {
    let paths = site.path_refs();
    let has = |needle: &str| paths.iter().any(|p| p.contains(needle));
    if has("xook.js") {
        return DevErrorKind::PenTest;
    }
    if has("livereload.js") {
        return DevErrorKind::LiveReload;
    }
    if has("/sockjs-node/") {
        return DevErrorKind::SockJsNode;
    }
    if has("NonExistentImage") {
        return DevErrorKind::NonExistentImage;
    }
    if site
        .observations
        .iter()
        .any(|o| o.via_redirect && o.locality.is_loopback())
    {
        return DevErrorKind::Redirect;
    }
    // LAN-only sites.
    if !site.has_localhost() && site.has_lan() {
        return DevErrorKind::LanResource;
    }
    // File fetches from a localhost server.
    let file_fetch = site.observations.iter().any(|o| {
        let path_only = o.path.split('?').next().unwrap_or(&o.path);
        o.locality.is_loopback()
            && (o.path.contains("/wp-content/")
                || FILE_SUFFIXES.iter().any(|s| path_only.ends_with(s)))
    });
    if file_fetch {
        return DevErrorKind::LocalFileServer;
    }
    DevErrorKind::OtherLocalService
}

/// Breakdown counts for a set of sites, counting only those whose
/// top-level class is `DeveloperError`.
pub fn breakdown(sites: &[SiteLocalActivity]) -> Vec<(DevErrorKind, usize)> {
    use crate::classify::{classify_site, ReasonClass};
    let mut counts = std::collections::BTreeMap::new();
    for site in sites {
        if !site.has_localhost() && !site.has_lan() {
            continue;
        }
        if classify_site(site) != ReasonClass::DeveloperError {
            continue;
        }
        *counts.entry(classify_dev_error(site)).or_insert(0usize) += 1;
    }
    DevErrorKind::ALL
        .iter()
        .filter_map(|k| counts.get(k).map(|n| (*k, *n)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::LocalObservation;
    use kt_netbase::{Os, OsSet, Scheme, Url};

    fn obs(host: &str, port: u16, path: &str) -> LocalObservation {
        let url = Url::parse(&format!("http://{host}:{port}{path}")).unwrap();
        LocalObservation {
            domain: "d.example".into(),
            rank: None,
            malicious_category: None,
            os: Os::Linux,
            scheme: Scheme::Http,
            port,
            path: url.path_and_query(),
            locality: url.locality(),
            websocket: false,
            via_redirect: false,
            time_ms: 1_000,
            delay_ms: 800,
            url,
        }
    }

    fn site(observations: Vec<LocalObservation>) -> SiteLocalActivity {
        let mut localhost_os = OsSet::NONE;
        let mut lan_os = OsSet::NONE;
        for o in &observations {
            if o.locality.is_loopback() {
                localhost_os = localhost_os.with(o.os);
            } else {
                lan_os = lan_os.with(o.os);
            }
        }
        SiteLocalActivity {
            domain: "d.example".into(),
            rank: None,
            malicious_category: None,
            localhost_os,
            lan_os,
            observations,
        }
    }

    #[test]
    fn each_signature_maps_to_its_kind() {
        assert_eq!(
            classify_dev_error(&site(vec![obs("localhost", 5005, "/xook.js")])),
            DevErrorKind::PenTest
        );
        assert_eq!(
            classify_dev_error(&site(vec![obs("localhost", 35729, "/livereload.js")])),
            DevErrorKind::LiveReload
        );
        assert_eq!(
            classify_dev_error(&site(vec![obs("localhost", 9000, "/sockjs-node/info?t=1")])),
            DevErrorKind::SockJsNode
        );
        assert_eq!(
            classify_dev_error(&site(vec![obs(
                "localhost",
                5140,
                "/NonExistentImage5.gif"
            )])),
            DevErrorKind::NonExistentImage
        );
        assert_eq!(
            classify_dev_error(&site(vec![obs(
                "localhost",
                8888,
                "/wp-content/uploads/2018/06/a.jpg"
            )])),
            DevErrorKind::LocalFileServer
        );
        assert_eq!(
            classify_dev_error(&site(vec![obs(
                "10.0.0.200",
                80,
                "/wordpress/wp-content/x.mp4"
            )])),
            DevErrorKind::LanResource
        );
        assert_eq!(
            classify_dev_error(&site(vec![obs("localhost", 1931, "/record/state")])),
            DevErrorKind::OtherLocalService
        );
    }

    #[test]
    fn redirect_detection() {
        let mut o = obs("127.0.0.1", 80, "/");
        o.via_redirect = true;
        assert_eq!(classify_dev_error(&site(vec![o])), DevErrorKind::Redirect);
    }

    #[test]
    fn most_specific_signature_wins() {
        // A site with both a wp-content fetch and a livereload fetch:
        // LiveReload is the more specific marker.
        let s = site(vec![
            obs("localhost", 8888, "/wp-content/uploads/a.jpg"),
            obs("localhost", 35729, "/livereload.js"),
        ]);
        assert_eq!(classify_dev_error(&s), DevErrorKind::LiveReload);
    }

    #[test]
    fn breakdown_counts_only_dev_errors() {
        let sites = vec![
            site(vec![obs("localhost", 8888, "/wp-content/uploads/a.jpg")]),
            site(vec![obs("localhost", 35729, "/livereload.js")]),
            site(vec![obs("localhost", 35729, "/livereload.js")]),
        ];
        let b = breakdown(&sites);
        assert_eq!(
            b,
            vec![
                (DevErrorKind::LocalFileServer, 1),
                (DevErrorKind::LiveReload, 2)
            ]
        );
    }
}
