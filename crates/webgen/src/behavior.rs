//! Website behaviours that generate locally-bound traffic.
//!
//! Each variant of [`Behavior`] is one of the concrete behaviours the
//! paper uncovered in §4.3 and Appendices A–C, with the exact port
//! sets, schemes, URL paths and OS-conditionality the paper reports.
//! A behaviour *expands* into the [`PlannedRequest`]s the page will
//! issue on a given OS; the simulated browser executes the plan and the
//! analysis pipeline must recover the behaviour class from the
//! resulting NetLog telemetry — closing the loop the real measurement
//! closed by manual investigation.

use kt_netbase::services::{
    ANYSIGN_PORTS, BIGIP_PORTS, DISCORD_PORTS, HOLA_PORTS, IQIYI_PORTS, NPROTECT_PORTS,
    THREATMETRIX_PORTS, THUNDER_PORTS,
};
use kt_netbase::{DomainName, Host, Os, OsSet, Scheme, Url};
use std::net::Ipv4Addr;

/// How a request is issued by the page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Channel {
    /// A subresource fetch (img/script/XHR/fetch). Subject to SOP.
    Fetch,
    /// A `new WebSocket(...)` connection. Exempt from SOP.
    WebSocket,
    /// An `<iframe src=...>` navigation (the censorship-injection case).
    Iframe,
    /// A top-level redirect of the landing page itself.
    Redirect,
}

/// One request the page plans to issue.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedRequest {
    /// Destination.
    pub url: Url,
    /// Issue mechanism.
    pub channel: Channel,
    /// Milliseconds after the page load completes.
    pub delay_ms: u64,
}

/// The native applications of §4.3.3 / Appendix A.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NativeApp {
    /// Discord local RPC: ws 6463–6472, `/?v=1` (cponline, runeline).
    Discord,
    /// nProtect + AnySign: https 14440–14449 + wss 10531/31027/31029
    /// (samsungcard).
    SamsungSecurity,
    /// FACEIT anti-cheat client: ws 28337.
    Faceit,
    /// GameHouse manager: http 12071–12072/17021/27021,
    /// `/v1/init.json?api_port=*&query_id=*`.
    GameHouse,
    /// Zylom: http 12071/17021, same path as GameHouse.
    Zylom,
    /// games.lol launcher: ws 60202 `/check` (Windows+Linux only).
    GamesLol,
    /// iWin games client: http 2080–2082 `/version?_=*` (W+M).
    Iwin,
    /// Screenleap client: http 5320 `/status`.
    Screenleap,
    /// Ace Stream: http 6878 `/webui/api/service`.
    AceStream,
    /// trustdice.win wallet: http 50005/51505/53005/54505/56005.
    TrustDice,
    /// iQiyi family: http 16422–16423 `/get_client_ver?*` (2021).
    Iqiyi,
    /// Thunder/Xunlei: http 28317/36759 `/get_thunder_version/` (2021).
    Thunder,
    /// Uzbek e-signature service: wss 64443 `/service/cryptapi` (2021).
    SoliqCrypto,
    /// Gnway remote tooling: ws 38681–38687 `/` (2021, Windows only).
    Gnway,
    /// Socket.io dev client on https 4000 (mcgeeandco, 2021).
    McgeeSocketIo,
}

impl NativeApp {
    /// The OS pattern intrinsic to the app (most run everywhere; the
    /// exceptions come straight from Tables 5 and 7).
    pub fn default_os_set(self) -> OsSet {
        match self {
            NativeApp::GamesLol => OsSet::WINDOWS_LINUX,
            NativeApp::Iwin => OsSet::WINDOWS_MAC,
            NativeApp::Gnway => OsSet::WINDOWS_ONLY,
            _ => OsSet::ALL,
        }
    }
}

/// The developer-error shapes of §4.3.4 / Appendix B.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum DevError {
    /// Fetching files from a development file server left in the page
    /// (`/wp-content/uploads/...` and friends).
    LocalFileServer {
        /// `http` or `https`.
        scheme: Scheme,
        /// Server port (80, 8080, 8888, …).
        port: u16,
        /// Resource path.
        path: String,
    },
    /// Same, but the server is a LAN address rather than localhost.
    LanResource {
        /// RFC 1918 server address.
        ip: Ipv4Addr,
        /// `http` or `https`.
        scheme: Scheme,
        /// Server port.
        port: u16,
        /// Resource path.
        path: String,
    },
    /// OWASP Xenotix `xook.js` fetch (rkn.gov.ru): http 5005.
    PenTest,
    /// `livereload.js` fetch (port 35729 or 460).
    LiveReload {
        /// `http` or `https`.
        scheme: Scheme,
        /// 35729 (standard) or a site-specific port.
        port: u16,
    },
    /// The landing page redirects to `http://127.0.0.1/`.
    RedirectToLoopback,
    /// SockJS-node `/sockjs-node/info?t=*` (observed Mac-only).
    SockJsNode {
        /// `http` or `https`.
        scheme: Scheme,
    },
    /// Some other local service endpoint left enabled
    /// (`/record/state`, `/setuid`, `/graphql`, …).
    LocalService {
        /// `http` or `https`.
        scheme: Scheme,
        /// Service port.
        port: u16,
        /// Endpoint path.
        path: String,
    },
    /// The `NonExistentImageNNNNN.gif` pattern of the phishing tables.
    NonExistentImage {
        /// `http` or `https`.
        scheme: Scheme,
        /// Server port.
        port: u16,
        /// The random image number.
        number: u32,
    },
}

/// The unexplained behaviours of Appendix C.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum UnknownKind {
    /// `http://127.0.0.1:6880–6889/*.json` (hola.org, svd-cdn.com).
    HolaJson,
    /// A sweep over ~25 service ports (wowreality.info).
    WidePortSweep,
    /// ws 2687 + 26876 (usaonlineclassifieds, usnetads; Windows only).
    WsPair,
    /// A 403 page with `<iframe src="http://10.10.34.35:80/">` —
    /// the censorship-injection signature of Raman et al.
    CensorshipIframe,
}

/// The ports probed by the wide sweep (Table 5, wowreality.info row).
pub const WIDE_SWEEP_PORTS: [u16; 25] = [
    1080, 1194, 2375, 2376, 3000, 3128, 3306, 3479, 4244, 5037, 5242, 5601, 5938, 6379, 8332, 8333,
    8530, 9000, 9050, 9150, 9785, 11211, 15672, 23399, 27017,
];

/// A behaviour a website exhibits.
#[derive(Debug, Clone, PartialEq)]
pub enum Behavior {
    /// ThreatMetrix fraud detection: WSS scan of 14 remote-desktop
    /// ports, Windows only, results uploaded to a vendor domain.
    ThreatMetrix {
        /// The ThreatMetrix-controlled domain hosting the script and
        /// receiving the encrypted telemetry.
        vendor: DomainName,
    },
    /// BIG-IP ASM Bot Defense: HTTP probes of 7 malware/automation
    /// ports, Windows only, timing side channel.
    BigIpBotDefense,
    /// Communication with an affiliated native application.
    NativeApp(NativeApp),
    /// A development/testing remnant.
    DevError(DevError),
    /// Unexplained local traffic.
    Unknown(UnknownKind),
}

impl Behavior {
    /// The OS pattern intrinsic to the behaviour. Dev errors have no
    /// intrinsic pattern (the paper saw every combination) except
    /// SockJS, which was Mac-only; the population generator supplies
    /// the per-site pattern for the rest.
    pub fn default_os_set(&self) -> OsSet {
        match self {
            Behavior::ThreatMetrix { .. } => OsSet::WINDOWS_ONLY,
            Behavior::BigIpBotDefense => OsSet::WINDOWS_ONLY,
            Behavior::NativeApp(app) => app.default_os_set(),
            Behavior::DevError(DevError::SockJsNode { .. }) => OsSet::MAC_ONLY,
            Behavior::DevError(_) => OsSet::ALL,
            Behavior::Unknown(UnknownKind::WsPair) => OsSet::WINDOWS_ONLY,
            Behavior::Unknown(_) => OsSet::ALL,
        }
    }

    /// Short class label for reports ("Fraud Detection", …) matching
    /// the paper's Table 5 reason column.
    pub fn reason_label(&self) -> &'static str {
        match self {
            Behavior::ThreatMetrix { .. } => "Fraud Detection",
            Behavior::BigIpBotDefense => "Bot Detection",
            Behavior::NativeApp(_) => "Native Application",
            Behavior::DevError(_) => "Developer Error",
            Behavior::Unknown(_) => "Unknown",
        }
    }

    /// Expand into the requests the page issues on `os`, offset from
    /// `base_delay_ms`. Returns an empty plan when the behaviour's
    /// intrinsic OS set excludes `os` (the caller applies the per-site
    /// OS set on top).
    pub fn planned_requests(
        &self,
        site: &DomainName,
        os: Os,
        base_delay_ms: u64,
    ) -> Vec<PlannedRequest> {
        if !self.default_os_set().contains(os) {
            return Vec::new();
        }
        let localhost = || Host::domain_unchecked("localhost");
        let loopback = || Host::Ipv4(Ipv4Addr::LOCALHOST);
        let mut plan = Vec::new();
        let mut push = |url: Url, channel: Channel, delay: u64| {
            plan.push(PlannedRequest {
                url,
                channel,
                delay_ms: delay,
            });
        };
        match self {
            Behavior::ThreatMetrix { vendor } => {
                // 1. Load the profiling script from the vendor domain.
                let script = Url::from_parts(
                    Scheme::Https,
                    Host::Domain(vendor.clone()),
                    None,
                    "/fp/tags.js?session_id=kt",
                );
                push(script, Channel::Fetch, base_delay_ms.saturating_sub(1_500));
                // 2. The script's blob scans the 14 ports over WSS.
                for (i, port) in THREATMETRIX_PORTS.iter().enumerate() {
                    let url = Url::from_parts(Scheme::Wss, localhost(), Some(*port), "/");
                    push(url, Channel::WebSocket, base_delay_ms + 60 * i as u64);
                }
                // 3. Encrypted results are uploaded back to the vendor.
                let upload = Url::from_parts(
                    Scheme::Https,
                    Host::Domain(vendor.clone()),
                    None,
                    "/fp/clear.png?ja=kt",
                );
                push(upload, Channel::Fetch, base_delay_ms + 60 * 14 + 250);
            }
            Behavior::BigIpBotDefense => {
                // 1. The /TSPD script is same-origin.
                let script = Url::from_parts(
                    Scheme::Https,
                    Host::Domain(site.clone()),
                    None,
                    "/TSPD/08e8ab5bacab2000",
                );
                push(script, Channel::Fetch, base_delay_ms.saturating_sub(1_200));
                // 2. HTTP probes of the malware/automation ports; the
                //    timing of each opaque response is the signal.
                for (i, port) in BIGIP_PORTS.iter().enumerate() {
                    let url = Url::from_parts(Scheme::Http, localhost(), Some(*port), "/");
                    push(url, Channel::Fetch, base_delay_ms + 40 * i as u64);
                }
            }
            Behavior::NativeApp(app) => expand_native_app(*app, &mut push, base_delay_ms),
            Behavior::DevError(err) => expand_dev_error(err, site, &mut push, base_delay_ms),
            Behavior::Unknown(kind) => match kind {
                UnknownKind::HolaJson => {
                    for (i, port) in HOLA_PORTS.iter().enumerate() {
                        let url = Url::from_parts(
                            Scheme::Http,
                            loopback(),
                            Some(*port),
                            "/app_list.json",
                        );
                        push(url, Channel::Fetch, base_delay_ms + 30 * i as u64);
                    }
                }
                UnknownKind::WidePortSweep => {
                    for (i, port) in WIDE_SWEEP_PORTS.iter().enumerate() {
                        let url = Url::from_parts(Scheme::Http, localhost(), Some(*port), "/");
                        push(url, Channel::Fetch, base_delay_ms + 25 * i as u64);
                    }
                }
                UnknownKind::WsPair => {
                    for (i, port) in [2687u16, 26876].iter().enumerate() {
                        let url = Url::from_parts(Scheme::Ws, localhost(), Some(*port), "/");
                        push(url, Channel::WebSocket, base_delay_ms + 100 * i as u64);
                    }
                }
                UnknownKind::CensorshipIframe => {
                    let url = Url::from_parts(
                        Scheme::Http,
                        Host::Ipv4(Ipv4Addr::new(10, 10, 34, 35)),
                        Some(80),
                        "/",
                    );
                    push(url, Channel::Iframe, base_delay_ms);
                }
            },
        }
        plan
    }
}

/// Expansion of the native-application probes (port sets and paths
/// from Tables 5 and 7 / Appendix A).
fn expand_native_app(app: NativeApp, push: &mut impl FnMut(Url, Channel, u64), base: u64) {
    let localhost = || Host::domain_unchecked("localhost");
    let loopback = || Host::Ipv4(Ipv4Addr::LOCALHOST);
    match app {
        NativeApp::Discord => {
            for (i, port) in DISCORD_PORTS.iter().enumerate() {
                let url = Url::from_parts(Scheme::Ws, localhost(), Some(*port), "/?v=1");
                push(url, Channel::WebSocket, base + 50 * i as u64);
            }
        }
        NativeApp::SamsungSecurity => {
            for (i, port) in NPROTECT_PORTS.iter().enumerate() {
                let url = Url::from_parts(
                    Scheme::Https,
                    loopback(),
                    Some(*port),
                    "/?code=kt1&dummy=kt2",
                );
                push(url, Channel::Fetch, base + 40 * i as u64);
            }
            for (i, port) in ANYSIGN_PORTS.iter().enumerate() {
                let url = Url::from_parts(Scheme::Wss, localhost(), Some(*port), "/");
                push(url, Channel::WebSocket, base + 420 + 60 * i as u64);
            }
        }
        NativeApp::Faceit => {
            let url = Url::from_parts(Scheme::Ws, localhost(), Some(28337), "/");
            push(url, Channel::WebSocket, base);
        }
        NativeApp::GameHouse => {
            for (i, port) in [12071u16, 12072, 17021, 27021].iter().enumerate() {
                let path = format!("/v1/init.json?api_port={port}&query_id={i}");
                let url = Url::from_parts(Scheme::Http, localhost(), Some(*port), &path);
                push(url, Channel::Fetch, base + 80 * i as u64);
            }
        }
        NativeApp::Zylom => {
            for (i, port) in [12071u16, 17021].iter().enumerate() {
                let path = format!("/v1/init.json?api_port={port}&query_id={i}");
                let url = Url::from_parts(Scheme::Http, localhost(), Some(*port), &path);
                push(url, Channel::Fetch, base + 80 * i as u64);
            }
        }
        NativeApp::GamesLol => {
            let url = Url::from_parts(Scheme::Ws, localhost(), Some(60202), "/check");
            push(url, Channel::WebSocket, base);
        }
        NativeApp::Iwin => {
            for (i, port) in [2080u16, 2081, 2082].iter().enumerate() {
                let url =
                    Url::from_parts(Scheme::Http, localhost(), Some(*port), "/version?_=1595");
                push(url, Channel::Fetch, base + 70 * i as u64);
            }
        }
        NativeApp::Screenleap => {
            let url = Url::from_parts(Scheme::Http, localhost(), Some(5320), "/status");
            push(url, Channel::Fetch, base);
            let url = Url::from_parts(Scheme::Http, localhost(), Some(5320), "/kt/up");
            push(url, Channel::Fetch, base + 120);
        }
        NativeApp::AceStream => {
            let url = Url::from_parts(Scheme::Http, loopback(), Some(6878), "/webui/api/service");
            push(url, Channel::Fetch, base);
        }
        NativeApp::TrustDice => {
            for (i, port) in [50005u16, 51505, 53005, 54505, 56005].iter().enumerate() {
                let url = Url::from_parts(Scheme::Http, localhost(), Some(*port), "/");
                push(url, Channel::Fetch, base + 60 * i as u64);
                let url = Url::from_parts(Scheme::Http, localhost(), Some(*port), "/socket.io");
                push(url, Channel::Fetch, base + 60 * i as u64 + 30);
            }
        }
        NativeApp::Iqiyi => {
            for (i, port) in IQIYI_PORTS.iter().enumerate() {
                let url = Url::from_parts(
                    Scheme::Http,
                    loopback(),
                    Some(*port),
                    "/get_client_ver?kt=1",
                );
                push(url, Channel::Fetch, base + 60 * i as u64);
            }
        }
        NativeApp::Thunder => {
            for (i, port) in THUNDER_PORTS.iter().enumerate() {
                let url = Url::from_parts(
                    Scheme::Http,
                    loopback(),
                    Some(*port),
                    "/get_thunder_version/",
                );
                push(url, Channel::Fetch, base + 60 * i as u64);
            }
        }
        NativeApp::SoliqCrypto => {
            let url = Url::from_parts(Scheme::Wss, loopback(), Some(64443), "/service/cryptapi");
            push(url, Channel::WebSocket, base);
        }
        NativeApp::Gnway => {
            for (i, port) in (38681u16..=38687).enumerate() {
                let url = Url::from_parts(Scheme::Ws, localhost(), Some(port), "/");
                push(url, Channel::WebSocket, base + 45 * i as u64);
            }
        }
        NativeApp::McgeeSocketIo => {
            let url = Url::from_parts(Scheme::Https, localhost(), Some(4000), "/socket.io/?EIO=3");
            push(url, Channel::Fetch, base);
        }
    }
}

/// Expansion of the developer-error fetches.
fn expand_dev_error(
    err: &DevError,
    _site: &DomainName,
    push: &mut impl FnMut(Url, Channel, u64),
    base: u64,
) {
    let localhost = || Host::domain_unchecked("localhost");
    let loopback = || Host::Ipv4(Ipv4Addr::LOCALHOST);
    match err {
        DevError::LocalFileServer { scheme, port, path } => {
            let url = Url::from_parts(*scheme, localhost(), Some(*port), path);
            push(url, Channel::Fetch, base);
        }
        DevError::LanResource {
            ip,
            scheme,
            port,
            path,
        } => {
            let url = Url::from_parts(*scheme, Host::Ipv4(*ip), Some(*port), path);
            push(url, Channel::Fetch, base);
        }
        DevError::PenTest => {
            let url = Url::from_parts(Scheme::Http, localhost(), Some(5005), "/xook.js");
            push(url, Channel::Fetch, base);
        }
        DevError::LiveReload { scheme, port } => {
            let url = Url::from_parts(*scheme, localhost(), Some(*port), "/livereload.js");
            push(url, Channel::Fetch, base);
        }
        DevError::RedirectToLoopback => {
            let url = Url::from_parts(Scheme::Http, loopback(), None, "/");
            push(url, Channel::Redirect, base);
        }
        DevError::SockJsNode { scheme } => {
            let url = Url::from_parts(*scheme, localhost(), Some(9000), "/sockjs-node/info?t=1595");
            push(url, Channel::Fetch, base);
        }
        DevError::LocalService { scheme, port, path } => {
            let url = Url::from_parts(*scheme, localhost(), Some(*port), path);
            push(url, Channel::Fetch, base);
        }
        DevError::NonExistentImage {
            scheme,
            port,
            number,
        } => {
            let path = format!("/NonExistentImage{number}.gif");
            let url = Url::from_parts(*scheme, localhost(), Some(*port), &path);
            push(url, Channel::Fetch, base);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kt_netbase::Locality;

    fn site() -> DomainName {
        DomainName::parse("example-shop.com").unwrap()
    }

    fn vendor() -> DomainName {
        DomainName::parse("regstat.example-shop.com").unwrap()
    }

    #[test]
    fn threatmetrix_is_windows_only() {
        let b = Behavior::ThreatMetrix { vendor: vendor() };
        assert!(b.planned_requests(&site(), Os::Linux, 10_000).is_empty());
        assert!(b.planned_requests(&site(), Os::MacOs, 10_000).is_empty());
        let plan = b.planned_requests(&site(), Os::Windows, 10_000);
        assert!(!plan.is_empty());
    }

    #[test]
    fn threatmetrix_scans_the_14_ports_over_wss() {
        let b = Behavior::ThreatMetrix { vendor: vendor() };
        let plan = b.planned_requests(&site(), Os::Windows, 10_000);
        let wss_ports: Vec<u16> = plan
            .iter()
            .filter(|r| r.url.scheme() == Scheme::Wss && r.url.is_local())
            .map(|r| r.url.port())
            .collect();
        assert_eq!(wss_ports.len(), 14);
        for p in THREATMETRIX_PORTS {
            assert!(wss_ports.contains(&p), "missing port {p}");
        }
        // Script download before the scan, upload after.
        assert!(plan
            .first()
            .unwrap()
            .url
            .to_string()
            .contains("/fp/tags.js"));
        assert!(plan
            .last()
            .unwrap()
            .url
            .to_string()
            .contains("/fp/clear.png"));
        // All local scans use path "/" and the WebSocket channel.
        for r in &plan {
            if r.url.is_local() {
                assert_eq!(r.url.path(), "/");
                assert_eq!(r.channel, Channel::WebSocket);
            }
        }
    }

    #[test]
    fn bigip_scans_the_7_ports_over_http() {
        let b = Behavior::BigIpBotDefense;
        let plan = b.planned_requests(&site(), Os::Windows, 9_000);
        let local: Vec<&PlannedRequest> = plan.iter().filter(|r| r.url.is_local()).collect();
        assert_eq!(local.len(), 7);
        for r in &local {
            assert_eq!(r.url.scheme(), Scheme::Http);
            assert_eq!(r.url.path(), "/");
            assert_eq!(r.channel, Channel::Fetch);
            assert!(BIGIP_PORTS.contains(&r.url.port()));
        }
        // The /TSPD script is the initiator.
        assert!(plan[0].url.path().starts_with("/TSPD"));
        assert!(b.planned_requests(&site(), Os::Linux, 9_000).is_empty());
    }

    #[test]
    fn discord_probes_ten_ports_with_version_query() {
        let b = Behavior::NativeApp(NativeApp::Discord);
        for os in Os::ALL {
            let plan = b.planned_requests(&site(), os, 2_000);
            assert_eq!(plan.len(), 10, "{os:?}");
            for r in &plan {
                assert_eq!(r.url.scheme(), Scheme::Ws);
                assert_eq!(r.url.path_and_query(), "/?v=1");
                assert!(DISCORD_PORTS.contains(&r.url.port()));
            }
        }
    }

    #[test]
    fn samsung_mixes_https_and_wss() {
        let b = Behavior::NativeApp(NativeApp::SamsungSecurity);
        let plan = b.planned_requests(&site(), Os::Linux, 2_000);
        let https = plan
            .iter()
            .filter(|r| r.url.scheme() == Scheme::Https)
            .count();
        let wss = plan
            .iter()
            .filter(|r| r.url.scheme() == Scheme::Wss)
            .count();
        assert_eq!(https, 10);
        assert_eq!(wss, 3);
    }

    #[test]
    fn games_lol_is_windows_linux_only() {
        let b = Behavior::NativeApp(NativeApp::GamesLol);
        assert!(!b.planned_requests(&site(), Os::Windows, 0).is_empty());
        assert!(!b.planned_requests(&site(), Os::Linux, 0).is_empty());
        assert!(b.planned_requests(&site(), Os::MacOs, 0).is_empty());
    }

    #[test]
    fn sockjs_is_mac_only() {
        let b = Behavior::DevError(DevError::SockJsNode {
            scheme: Scheme::Https,
        });
        assert!(b.planned_requests(&site(), Os::Windows, 0).is_empty());
        assert!(b.planned_requests(&site(), Os::Linux, 0).is_empty());
        let plan = b.planned_requests(&site(), Os::MacOs, 0);
        assert_eq!(plan.len(), 1);
        assert!(plan[0].url.path().starts_with("/sockjs-node/info"));
        assert_eq!(plan[0].url.port(), 9000);
    }

    #[test]
    fn lan_resource_targets_private_address() {
        let b = Behavior::DevError(DevError::LanResource {
            ip: Ipv4Addr::new(192, 168, 0, 208),
            scheme: Scheme::Https,
            port: 443,
            path: "/wp_011_test_demos/wp-content/uploads/2017/05/x.jpg".into(),
        });
        let plan = b.planned_requests(&site(), Os::Windows, 1_000);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].url.locality(), Locality::Private);
    }

    #[test]
    fn redirect_to_loopback_uses_redirect_channel() {
        let b = Behavior::DevError(DevError::RedirectToLoopback);
        let plan = b.planned_requests(&site(), Os::Linux, 0);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].channel, Channel::Redirect);
        assert_eq!(plan[0].url.to_string(), "http://127.0.0.1/");
    }

    #[test]
    fn censorship_iframe_targets_the_iranian_lan_address() {
        let b = Behavior::Unknown(UnknownKind::CensorshipIframe);
        let plan = b.planned_requests(&site(), Os::Windows, 500);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].channel, Channel::Iframe);
        assert_eq!(plan[0].url.to_string(), "http://10.10.34.35:80/");
        assert_eq!(plan[0].url.locality(), Locality::Private);
    }

    #[test]
    fn wide_sweep_covers_25_ports() {
        let b = Behavior::Unknown(UnknownKind::WidePortSweep);
        let plan = b.planned_requests(&site(), Os::MacOs, 1_000);
        assert_eq!(plan.len(), 25);
        let ports: std::collections::HashSet<u16> = plan.iter().map(|r| r.url.port()).collect();
        assert_eq!(ports.len(), 25);
        assert!(ports.contains(&27017), "mongodb port in the sweep");
    }

    #[test]
    fn reason_labels_match_table5() {
        assert_eq!(
            Behavior::ThreatMetrix { vendor: vendor() }.reason_label(),
            "Fraud Detection"
        );
        assert_eq!(Behavior::BigIpBotDefense.reason_label(), "Bot Detection");
        assert_eq!(
            Behavior::NativeApp(NativeApp::Faceit).reason_label(),
            "Native Application"
        );
        assert_eq!(
            Behavior::DevError(DevError::PenTest).reason_label(),
            "Developer Error"
        );
        assert_eq!(
            Behavior::Unknown(UnknownKind::HolaJson).reason_label(),
            "Unknown"
        );
    }

    #[test]
    fn delays_respect_base_offset() {
        let b = Behavior::NativeApp(NativeApp::Discord);
        let plan = b.planned_requests(&site(), Os::Windows, 3_000);
        assert!(plan.iter().all(|r| r.delay_ms >= 3_000));
        assert!(plan.iter().any(|r| r.delay_ms > 3_000), "staggered");
    }
}
