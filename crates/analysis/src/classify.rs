//! RQ3 — why is a site talking to local destinations?
//!
//! The paper answered this by manual investigation; the classifier
//! encodes the resulting signatures so the answer is mechanical:
//!
//! 1. **Fraud detection** — WSS scans covering most of the 14
//!    ThreatMetrix remote-desktop ports, path `/`;
//! 2. **Bot detection** — HTTP probes covering most of the 7 BIG-IP
//!    malware/automation ports, path `/`;
//! 3. **Native application** — a known client fingerprint (Discord's
//!    6463–6472 `/?v=1`, nProtect's 14440–14449, FACEIT's 28337, …);
//! 4. **Developer error** — file-ish fetches (`wp-content`, image and
//!    script extensions), `livereload.js`, SockJS-node,
//!    `NonExistentImage*.gif`, `xook.js`, loopback redirects, or any
//!    LAN resource fetch with a concrete file path;
//! 5. **Unknown** — everything else (hola's 6880–6889 JSON probes,
//!    wide port sweeps, the censorship iframes).

use kt_netbase::services::{BIGIP_PORTS, THREATMETRIX_PORTS};
use kt_netbase::Scheme;
use std::collections::BTreeSet;

use crate::detect::SiteLocalActivity;

/// The paper's Table 5 reason classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ReasonClass {
    /// ThreatMetrix-style localhost profiling for fraud prevention.
    FraudDetection,
    /// BIG-IP ASM-style bot defence probing.
    BotDetection,
    /// Communication with an affiliated native application.
    NativeApplication,
    /// Remnants of development and testing.
    DeveloperError,
    /// No confident explanation.
    Unknown,
}

impl ReasonClass {
    /// All classes in the paper's presentation order.
    pub const ALL: [ReasonClass; 5] = [
        ReasonClass::FraudDetection,
        ReasonClass::BotDetection,
        ReasonClass::NativeApplication,
        ReasonClass::DeveloperError,
        ReasonClass::Unknown,
    ];

    /// Label as printed in the tables.
    pub fn label(self) -> &'static str {
        match self {
            ReasonClass::FraudDetection => "Fraud Detection",
            ReasonClass::BotDetection => "Bot Detection",
            ReasonClass::NativeApplication => "Native Application",
            ReasonClass::DeveloperError => "Developer Error",
            ReasonClass::Unknown => "Unknown",
        }
    }
}

/// Known native-application fingerprints:
/// (name, ports, path marker, requires-websocket).
/// A site matches if it touches any fingerprint port AND (the marker
/// is empty or some path contains it) AND (the websocket requirement,
/// when set, is met). The websocket requirement disambiguates clients
/// whose ports are also popular dev-server ports — the paper itself
/// saw both FACEIT (ws 28337) and fsist.com.br's HTTP
/// `/getCertificados` service on 28337.
const NATIVE_FINGERPRINTS: &[(&str, &[u16], &str, bool)] = &[
    (
        "Discord",
        &[6463, 6464, 6465, 6466, 6467, 6468, 6469, 6470, 6471, 6472],
        "v=1",
        true,
    ),
    (
        "nProtect/AnySign",
        &[
            14440, 14441, 14442, 14443, 14444, 14445, 14446, 14447, 14448, 14449, 10531, 31027,
            31029,
        ],
        "",
        false,
    ),
    ("FACEIT", &[28337], "", true),
    (
        "GameHouse/Zylom",
        &[12071, 12072, 17021, 27021],
        "init.json",
        false,
    ),
    ("games.lol", &[60202], "/check", true),
    ("iWin", &[2080, 2081, 2082], "/version", false),
    ("Screenleap", &[5320], "/status", false),
    ("Ace Stream", &[6878], "/webui/api/service", false),
    ("TrustDice", &[50005, 51505, 53005, 54505, 56005], "", false),
    ("iQiyi", &[16422, 16423], "get_client_ver", false),
    ("Thunder", &[28317, 36759], "get_thunder_version", false),
    ("e-signature (cryptapi)", &[64443], "cryptapi", false),
    (
        "Gnway",
        &[38681, 38682, 38683, 38684, 38685, 38686, 38687],
        "",
        true,
    ),
];

/// File-ish path suffixes that mark a developer-error resource fetch.
const FILE_SUFFIXES: &[&str] = &[
    ".jpg", ".jpeg", ".png", ".gif", ".ico", ".mp4", ".ogg", ".css", ".js", ".json", ".html",
    ".txt",
];

/// Identify which native application a site's local probes target,
/// if any (the names of §4.3.3 / Appendix A). Independent of the
/// overall classification so reports can annotate rows.
pub fn native_app_name(site: &SiteLocalActivity) -> Option<&'static str> {
    let paths = site.path_refs();
    for (name, fp_ports, marker, ws_required) in NATIVE_FINGERPRINTS {
        let port_hit = site
            .observations
            .iter()
            .any(|o| fp_ports.contains(&o.port) && (!ws_required || o.websocket));
        if !port_hit {
            continue;
        }
        if marker.is_empty() || paths.iter().any(|p| p.contains(marker)) {
            return Some(name);
        }
    }
    None
}

/// Classify one site's local activity.
pub fn classify_site(site: &SiteLocalActivity) -> ReasonClass {
    let ports: BTreeSet<u16> = site.observations.iter().map(|o| o.port).collect();
    let paths = site.path_refs();

    // 1. ThreatMetrix: WSS to most of the 14-port set, path "/".
    let tm_hits = THREATMETRIX_PORTS
        .iter()
        .filter(|p| {
            site.observations
                .iter()
                .any(|o| o.port == **p && o.scheme == Scheme::Wss && o.locality.is_loopback())
        })
        .count();
    if tm_hits >= 10 {
        return ReasonClass::FraudDetection;
    }

    // 2. BIG-IP: HTTP to most of the 7-port set, path "/".
    let bigip_hits = BIGIP_PORTS
        .iter()
        .filter(|p| {
            site.observations
                .iter()
                .any(|o| o.port == **p && o.scheme == Scheme::Http && o.path == "/")
        })
        .count();
    if bigip_hits >= 5 {
        return ReasonClass::BotDetection;
    }

    // 3. Native applications.
    for (_name, fp_ports, marker, ws_required) in NATIVE_FINGERPRINTS {
        let port_hit = |require_ws: bool| {
            site.observations
                .iter()
                .any(|o| fp_ports.contains(&o.port) && (!require_ws || o.websocket))
        };
        if !port_hit(*ws_required) {
            continue;
        }
        let marker_hit = marker.is_empty() || paths.iter().any(|p| p.contains(marker));
        if marker_hit {
            return ReasonClass::NativeApplication;
        }
    }
    // Socket.io on a dev port is ambiguous: a native-client handshake
    // when on 4000 with the EIO query, a dev remnant otherwise.
    if ports.contains(&4000) && paths.iter().any(|p| p.contains("/socket.io/?EIO")) {
        return ReasonClass::NativeApplication;
    }

    // 4. Unknown *signatures* take precedence over the generic
    //    dev-error heuristics where their shapes would collide.
    let hola_ports = (6880..=6889).filter(|p| ports.contains(p)).count();
    if hola_ports >= 6 && paths.iter().any(|p| p.ends_with(".json")) {
        return ReasonClass::Unknown;
    }
    if ports.contains(&2687) && ports.contains(&26876) {
        return ReasonClass::Unknown;
    }
    // Wide sweeps of "/" across many unrelated service ports.
    let root_only_ports = site
        .observations
        .iter()
        .filter(|o| o.path == "/" && o.locality.is_loopback())
        .map(|o| o.port)
        .collect::<BTreeSet<u16>>();
    if root_only_ports.len() >= 15 {
        return ReasonClass::Unknown;
    }

    // 5. Developer errors.
    let dev_error = site.observations.iter().any(|o| {
        let path = o.path.as_str();
        let path_only = path.split('?').next().unwrap_or(path);
        o.via_redirect && o.locality.is_loopback()
            || path.contains("/wp-content/")
            || path.contains("livereload.js")
            || path.contains("/sockjs-node/")
            || path.contains("xook.js")
            || path.contains("NonExistentImage")
            || path.contains("/TSPD")
            || FILE_SUFFIXES.iter().any(|s| path_only.ends_with(s))
            // Any LAN fetch of a concrete sub-path is a dev remnant
            // (the censorship iframes request exactly "/").
            || (o.locality.is_private() && path_only.len() > 1)
    });
    if dev_error {
        return ReasonClass::DeveloperError;
    }
    // Local service endpoints left enabled (paths like /record/state,
    // /setuid, /graphql) on loopback: also development remnants.
    let service_path = site.observations.iter().any(|o| {
        o.locality.is_loopback()
            && o.path != "/"
            && !o.path.starts_with("/?")
            && o.scheme.handshake_scheme() == o.scheme // http(s), not ws
    });
    if service_path {
        return ReasonClass::DeveloperError;
    }
    // A lone local service answering "/" on one or two non-standard
    // ports over plain HTTP (the paper's filemail.com case): a
    // development remnant, not a scan.
    if !root_only_ports.is_empty()
        && root_only_ports.len() <= 2
        && site.observations.iter().all(|o| !o.scheme.is_websocket())
    {
        return ReasonClass::DeveloperError;
    }

    ReasonClass::Unknown
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::LocalObservation;
    use kt_netbase::{Os, OsSet, Url};

    fn obs(scheme: Scheme, host: &str, port: u16, path: &str, ws: bool) -> LocalObservation {
        let url = Url::parse(&format!("{scheme}://{host}:{port}{path}")).unwrap();
        LocalObservation {
            domain: "site.example".into(),
            rank: Some(1),
            malicious_category: None,
            os: Os::Windows,
            scheme,
            port,
            path: url.path_and_query(),
            locality: url.locality(),
            websocket: ws,
            via_redirect: false,
            time_ms: 9_000,
            delay_ms: 8_600,
            url,
        }
    }

    fn site_with(observations: Vec<LocalObservation>) -> SiteLocalActivity {
        let mut localhost_os = OsSet::NONE;
        let mut lan_os = OsSet::NONE;
        for o in &observations {
            if o.locality.is_loopback() {
                localhost_os = localhost_os.with(o.os);
            } else if o.locality.is_private() {
                lan_os = lan_os.with(o.os);
            }
        }
        SiteLocalActivity {
            domain: "site.example".into(),
            rank: Some(1),
            malicious_category: None,
            localhost_os,
            lan_os,
            observations,
        }
    }

    #[test]
    fn threatmetrix_signature() {
        let observations = THREATMETRIX_PORTS
            .iter()
            .map(|p| obs(Scheme::Wss, "localhost", *p, "/", true))
            .collect();
        assert_eq!(
            classify_site(&site_with(observations)),
            ReasonClass::FraudDetection
        );
    }

    #[test]
    fn partial_threatmetrix_is_not_fraud() {
        // Only 3 of the ports: not enough evidence.
        let observations = THREATMETRIX_PORTS[..3]
            .iter()
            .map(|p| obs(Scheme::Wss, "localhost", *p, "/", true))
            .collect();
        assert_ne!(
            classify_site(&site_with(observations)),
            ReasonClass::FraudDetection
        );
    }

    #[test]
    fn bigip_signature() {
        let observations = BIGIP_PORTS
            .iter()
            .map(|p| obs(Scheme::Http, "localhost", *p, "/", false))
            .collect();
        assert_eq!(
            classify_site(&site_with(observations)),
            ReasonClass::BotDetection
        );
    }

    #[test]
    fn discord_fingerprint() {
        let observations = (6463u16..=6472)
            .map(|p| obs(Scheme::Ws, "localhost", p, "/?v=1", true))
            .collect();
        assert_eq!(
            classify_site(&site_with(observations)),
            ReasonClass::NativeApplication
        );
    }

    #[test]
    fn faceit_single_port() {
        let observations = vec![obs(Scheme::Ws, "localhost", 28337, "/", true)];
        assert_eq!(
            classify_site(&site_with(observations)),
            ReasonClass::NativeApplication
        );
    }

    #[test]
    fn wordpress_fetch_is_dev_error() {
        let observations = vec![obs(
            Scheme::Http,
            "localhost",
            8888,
            "/wp-content/uploads/2018/06/photo.jpg",
            false,
        )];
        assert_eq!(
            classify_site(&site_with(observations)),
            ReasonClass::DeveloperError
        );
    }

    #[test]
    fn livereload_and_sockjs_are_dev_errors() {
        let lr = vec![obs(
            Scheme::Https,
            "localhost",
            35729,
            "/livereload.js",
            false,
        )];
        assert_eq!(classify_site(&site_with(lr)), ReasonClass::DeveloperError);
        let sj = vec![obs(
            Scheme::Https,
            "localhost",
            9000,
            "/sockjs-node/info?t=1",
            false,
        )];
        assert_eq!(classify_site(&site_with(sj)), ReasonClass::DeveloperError);
    }

    #[test]
    fn lan_file_fetch_is_dev_error() {
        let observations = vec![obs(
            Scheme::Http,
            "10.0.0.200",
            80,
            "/wordpress/wp-content/uploads/2020/04/a.mp4",
            false,
        )];
        assert_eq!(
            classify_site(&site_with(observations)),
            ReasonClass::DeveloperError
        );
    }

    #[test]
    fn redirect_to_loopback_is_dev_error() {
        let mut o = obs(Scheme::Http, "127.0.0.1", 80, "/", false);
        o.via_redirect = true;
        assert_eq!(
            classify_site(&site_with(vec![o])),
            ReasonClass::DeveloperError
        );
    }

    #[test]
    fn hola_json_probes_are_unknown() {
        let observations = (6880u16..=6889)
            .map(|p| obs(Scheme::Http, "127.0.0.1", p, "/app_list.json", false))
            .collect();
        assert_eq!(
            classify_site(&site_with(observations)),
            ReasonClass::Unknown
        );
    }

    #[test]
    fn wide_sweep_is_unknown() {
        let ports = [
            1080u16, 1194, 2375, 2376, 3128, 3306, 3479, 5037, 5242, 5601, 5938, 6379, 8332, 8333,
            8530, 9050, 9150,
        ];
        let observations = ports
            .iter()
            .map(|p| obs(Scheme::Http, "localhost", *p, "/", false))
            .collect();
        assert_eq!(
            classify_site(&site_with(observations)),
            ReasonClass::Unknown
        );
    }

    #[test]
    fn censorship_iframe_is_unknown() {
        let observations = vec![obs(Scheme::Http, "10.10.34.35", 80, "/", false)];
        assert_eq!(
            classify_site(&site_with(observations)),
            ReasonClass::Unknown
        );
    }

    #[test]
    fn nonexistent_image_is_dev_error() {
        let observations = vec![obs(
            Scheme::Https,
            "localhost",
            5140,
            "/NonExistentImage19258.gif",
            false,
        )];
        assert_eq!(
            classify_site(&site_with(observations)),
            ReasonClass::DeveloperError
        );
    }

    #[test]
    fn native_app_names_are_identified() {
        let discord: Vec<LocalObservation> = (6463u16..=6472)
            .map(|p| obs(Scheme::Ws, "localhost", p, "/?v=1", true))
            .collect();
        assert_eq!(native_app_name(&site_with(discord)), Some("Discord"));
        let faceit = vec![obs(Scheme::Ws, "localhost", 28337, "/", true)];
        assert_eq!(native_app_name(&site_with(faceit)), Some("FACEIT"));
        // The http service on FACEIT's port is NOT the app.
        let http_28337 = vec![obs(
            Scheme::Http,
            "localhost",
            28337,
            "/getCertificados",
            false,
        )];
        assert_eq!(native_app_name(&site_with(http_28337)), None);
        let dev = vec![obs(
            Scheme::Http,
            "localhost",
            35729,
            "/livereload.js",
            false,
        )];
        assert_eq!(native_app_name(&site_with(dev)), None);
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(ReasonClass::FraudDetection.label(), "Fraud Detection");
        assert_eq!(ReasonClass::ALL.len(), 5);
    }
}
