//! The planting plan: which behaviours exist in each population.
//!
//! These spec lists encode the paper's ground truth — the class sizes,
//! kind breakdowns and OS patterns of Tables 5–11 — as data. The
//! population generator places each spec on a concrete domain; the
//! analysis pipeline must then recover the same numbers from raw
//! telemetry, which is the end-to-end check on the whole system.
//!
//! 2020 top-100K composition (107 localhost + 9 LAN sites):
//!
//! | class       | sites | OS pattern                          |
//! |-------------|-------|-------------------------------------|
//! | ThreatMetrix| 36    | Windows only                        |
//! | BIG-IP      | 10    | Windows only                        |
//! | Native apps | 12    | 10 all-OS, games.lol W+L, iWin W+M  |
//! | Dev errors  | 44    | 28 all, 1 W+L, 7 L+M, 3 L, 5 M (SockJS) |
//! | Unknown     | 5     | 3 all-OS, 2 Windows (ws pair)       |
//!
//! yielding per-OS totals W=92, L=53, M=54 and an all-three overlap of
//! 41, matching Figure 2a's shape (the paper reports L=54; one site of
//! rounding separates the reconstructions).

use kt_netbase::{OsSet, Scheme};
use std::net::Ipv4Addr;

use crate::behavior::{Behavior, DevError, NativeApp, UnknownKind};
use crate::site::SiteCategory;

/// Where a spec's behaviour fires in time (drives Figures 5–7).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayWindow {
    /// Minimum base delay, ms.
    pub min_ms: u64,
    /// Maximum base delay, ms.
    pub max_ms: u64,
}

impl DelayWindow {
    /// The anti-abuse scripts fire late (Windows median ≈ 10 s).
    pub const ANTI_ABUSE: DelayWindow = DelayWindow {
        min_ms: 8_000,
        max_ms: 15_000,
    };
    /// Native-app probes fire after client-side JS settles.
    pub const NATIVE: DelayWindow = DelayWindow {
        min_ms: 1_000,
        max_ms: 8_000,
    };
    /// Dev-error fetches are page resources: early.
    pub const RESOURCE: DelayWindow = DelayWindow {
        min_ms: 400,
        max_ms: 6_000,
    };
    /// Unknown behaviours spread widely.
    pub const UNKNOWN: DelayWindow = DelayWindow {
        min_ms: 1_000,
        max_ms: 9_000,
    };
    /// LAN fetches on Windows-active sites (Fig 5b: max 5 s on W).
    pub const LAN_FAST: DelayWindow = DelayWindow {
        min_ms: 400,
        max_ms: 4_500,
    };
    /// LAN fetches on Linux/Mac-only sites (max 15–16 s).
    pub const LAN_SLOW: DelayWindow = DelayWindow {
        min_ms: 400,
        max_ms: 15_500,
    };
}

/// One behaviour to plant on one (to-be-chosen) domain.
#[derive(Debug, Clone, PartialEq)]
pub struct PlantSpec {
    /// The behaviour.
    pub behavior: Behavior,
    /// The per-site OS pattern.
    pub os_set: OsSet,
    /// Site genre to assign.
    pub category: SiteCategory,
    /// Firing-delay window.
    pub delay: DelayWindow,
    /// Whether the 2021 crawl still observes this behaviour
    /// (drives the carried/stopped dynamics between snapshots).
    pub carried_to_2021: bool,
}

/// A placeholder vendor marker: the generator substitutes a concrete
/// ThreatMetrix-style vendor domain per customer site.
pub const VENDOR_PLACEHOLDER: &str = "vendor.invalid";

/// Sites that deploy ThreatMetrix **only on internal pages** (login,
/// checkout). The paper's landing-page crawl cannot see these — it
/// calls its counts a lower bound (§3.3) and cites a blog post that
/// found ThreatMetrix specifically on login pages. Deep-crawl mode
/// makes them observable.
pub const INTERNAL_TM_SITES_2020: usize = 18;

/// Plantings that live on internal pages only (all fraud detection).
pub fn top2020_internal_specs() -> Vec<PlantSpec> {
    (0..INTERNAL_TM_SITES_2020).map(|_| tm(false)).collect()
}

fn tm(carried: bool) -> PlantSpec {
    PlantSpec {
        behavior: Behavior::ThreatMetrix {
            vendor: kt_netbase::DomainName::parse(VENDOR_PLACEHOLDER).expect("placeholder"),
        },
        os_set: OsSet::WINDOWS_ONLY,
        category: SiteCategory::Ecommerce,
        delay: DelayWindow::ANTI_ABUSE,
        carried_to_2021: carried,
    }
}

fn bigip() -> PlantSpec {
    PlantSpec {
        behavior: Behavior::BigIpBotDefense,
        os_set: OsSet::WINDOWS_ONLY,
        category: SiteCategory::Government,
        delay: DelayWindow::ANTI_ABUSE,
        // §4.3.2: no bot-detection traffic observed in 2021.
        carried_to_2021: false,
    }
}

fn native(app: NativeApp, category: SiteCategory, carried: bool) -> PlantSpec {
    PlantSpec {
        behavior: Behavior::NativeApp(app),
        os_set: OsSet::ALL,
        category,
        delay: DelayWindow::NATIVE,
        carried_to_2021: carried,
    }
}

fn dev(err: DevError, os_set: OsSet, carried: bool) -> PlantSpec {
    PlantSpec {
        behavior: Behavior::DevError(err),
        os_set,
        category: SiteCategory::Generic,
        delay: DelayWindow::RESOURCE,
        carried_to_2021: carried,
    }
}

fn unknown(kind: UnknownKind, os_set: OsSet) -> PlantSpec {
    PlantSpec {
        behavior: Behavior::Unknown(kind),
        os_set,
        category: SiteCategory::Generic,
        delay: DelayWindow::UNKNOWN,
        carried_to_2021: false,
    }
}

/// A WordPress-flavoured dev-error path, varied by index.
fn wp_path(i: usize) -> String {
    const YEARS: [&str; 5] = ["2017", "2018", "2019", "2020", "2015"];
    const EXT: [&str; 4] = ["jpg", "png", "ico", "mp4"];
    format!(
        "/wp-content/uploads/{}/{:02}/asset{}.{}",
        YEARS[i % YEARS.len()],
        1 + (i % 12),
        i,
        EXT[i % EXT.len()]
    )
}

/// The 36 + 10 + 12 + 44 + 5 localhost plantings of the 2020 crawl
/// (Tables 5 and 11), in stable order.
pub fn top2020_localhost_specs() -> Vec<PlantSpec> {
    let mut specs = Vec::new();
    // --- Fraud detection: 36 ThreatMetrix customers. 26 carried into
    //     2021, 10 stopped (the starred domains of Table 5).
    for i in 0..36 {
        let mut s = tm(i < 26);
        if i == 35 {
            // One non-e-commerce customer (commoncause.org).
            s.category = SiteCategory::Generic;
        }
        specs.push(s);
    }
    // --- Bot detection: 10 government sites; all gone by 2021.
    for _ in 0..10 {
        specs.push(bigip());
    }
    // --- Native applications: 12 sites (Appendix A). All but
    //     GameHouse carried into 2021.
    let mut faceit = native(NativeApp::Faceit, SiteCategory::Gaming, true);
    faceit.os_set = OsSet::ALL;
    specs.push(faceit);
    specs.push(native(NativeApp::Discord, SiteCategory::Generic, true));
    specs.push(native(
        NativeApp::SamsungSecurity,
        SiteCategory::Ecommerce,
        true,
    ));
    specs.push(native(
        NativeApp::SamsungSecurity,
        SiteCategory::Ecommerce,
        true,
    ));
    specs.push(native(NativeApp::GameHouse, SiteCategory::Gaming, false));
    let mut games_lol = native(NativeApp::GamesLol, SiteCategory::Gaming, true);
    games_lol.os_set = OsSet::WINDOWS_LINUX;
    specs.push(games_lol);
    specs.push(native(NativeApp::Zylom, SiteCategory::Gaming, true));
    let mut iwin = native(NativeApp::Iwin, SiteCategory::Gaming, true);
    iwin.os_set = OsSet::WINDOWS_MAC;
    specs.push(iwin);
    specs.push(native(NativeApp::Screenleap, SiteCategory::Generic, true));
    specs.push(native(NativeApp::AceStream, SiteCategory::Media, true));
    specs.push(native(NativeApp::TrustDice, SiteCategory::Gaming, true));
    specs.push(native(NativeApp::Discord, SiteCategory::Gaming, true));
    // --- Developer errors: 44 sites. OS multiset (non-SockJS):
    //     28 all-OS, 1 W+L, 7 L+M, 3 L-only; plus 5 Mac-only SockJS.
    //     5 of the all-OS ones carry into 2021.
    let mut dev_os = Vec::new();
    dev_os.extend(std::iter::repeat_n(OsSet::ALL, 28));
    dev_os.push(OsSet::WINDOWS_LINUX);
    dev_os.extend(std::iter::repeat_n(OsSet::LINUX_MAC, 7));
    dev_os.extend(std::iter::repeat_n(OsSet::LINUX_ONLY, 3));
    debug_assert_eq!(dev_os.len(), 39);
    let mut dev_kinds: Vec<DevError> = Vec::new();
    // 24 local file servers on assorted ports.
    const FS_PORTS: [u16; 8] = [8888, 80, 1987, 8080, 9999, 49972, 9092, 8899];
    for i in 0..24 {
        dev_kinds.push(DevError::LocalFileServer {
            scheme: if i % 6 == 0 {
                Scheme::Https
            } else {
                Scheme::Http
            },
            port: FS_PORTS[i % FS_PORTS.len()],
            path: wp_path(i),
        });
    }
    // 1 pen-test remnant (xook.js).
    dev_kinds.push(DevError::PenTest);
    // 5 LiveReload fetches (one on the odd port 460).
    for i in 0..5 {
        dev_kinds.push(DevError::LiveReload {
            scheme: if i == 0 { Scheme::Http } else { Scheme::Https },
            port: if i == 0 { 460 } else { 35729 },
        });
    }
    // 2 redirects to http://127.0.0.1/.
    dev_kinds.push(DevError::RedirectToLoopback);
    dev_kinds.push(DevError::RedirectToLoopback);
    // 7 other local services (zakupki, gamezone, filemail, …).
    const SVC: [(u16, &str, Scheme); 7] = [
        (1931, "/record/state", Scheme::Https),
        (8000, "/setuid", Scheme::Http),
        (56666, "/", Scheme::Http),
        (9080, "/avisos-portal", Scheme::Http),
        (28337, "/getCertificados", Scheme::Http),
        (8000, "/graphql", Scheme::Http),
        (8000, "/app/getLicenseKey", Scheme::Https),
    ];
    for (port, path, scheme) in SVC {
        dev_kinds.push(DevError::LocalService {
            scheme,
            port,
            path: path.to_string(),
        });
    }
    debug_assert_eq!(dev_kinds.len(), 39);
    for (i, (kind, os)) in dev_kinds.into_iter().zip(dev_os).enumerate() {
        // The first 5 all-OS dev errors persist into the 2021 crawl.
        specs.push(dev(kind, os, i < 5));
    }
    // 5 Mac-only SockJS-node fetches.
    for _ in 0..5 {
        specs.push(dev(
            DevError::SockJsNode {
                scheme: Scheme::Https,
            },
            OsSet::MAC_ONLY,
            false,
        ));
    }
    // --- Unknown: hola-style ×2, wide sweep, ws pair ×2.
    specs.push(unknown(UnknownKind::HolaJson, OsSet::ALL));
    specs.push(unknown(UnknownKind::WidePortSweep, OsSet::ALL));
    specs.push(unknown(UnknownKind::HolaJson, OsSet::ALL));
    specs.push(unknown(UnknownKind::WsPair, OsSet::WINDOWS_ONLY));
    specs.push(unknown(UnknownKind::WsPair, OsSet::WINDOWS_ONLY));
    specs
}

/// The 9 LAN plantings of the 2020 crawl (Table 6): 6 developer
/// errors and 3 censorship-iframe cases.
pub fn top2020_lan_specs() -> Vec<PlantSpec> {
    let lan = |ip: [u8; 4], scheme: Scheme, port: u16, path: &str, os: OsSet, carried: bool| {
        let mut s = dev(
            DevError::LanResource {
                ip: Ipv4Addr::new(ip[0], ip[1], ip[2], ip[3]),
                scheme,
                port,
                path: path.to_string(),
            },
            os,
            carried,
        );
        s.delay = if os.contains(kt_netbase::Os::Windows) {
            DelayWindow::LAN_FAST
        } else {
            DelayWindow::LAN_SLOW
        };
        s
    };
    let censor = |os: OsSet| {
        let mut s = unknown(UnknownKind::CensorshipIframe, os);
        s.delay = if os.contains(kt_netbase::Os::Windows) {
            DelayWindow::LAN_FAST
        } else {
            DelayWindow::LAN_SLOW
        };
        s
    };
    vec![
        lan(
            [10, 193, 31, 212],
            Scheme::Http,
            80,
            "/system/files/2020-06/banner.png",
            OsSet::ALL,
            false,
        ),
        lan(
            [10, 0, 0, 200],
            Scheme::Http,
            80,
            "/wordpress/wp-content/uploads/2020/04/intro.mp4",
            OsSet::ALL,
            false,
        ),
        // unib.ac.id — the one LAN site observed in both crawls.
        lan(
            [192, 168, 64, 160],
            Scheme::Http,
            80,
            "/wp-content/uploads/2019/10/photo.jpg",
            OsSet::ALL,
            true,
        ),
        lan(
            [10, 156, 2, 50],
            Scheme::Https,
            443,
            "/favicon.ico",
            OsSet::MAC_ONLY,
            false,
        ),
        lan(
            [10, 0, 20, 16],
            Scheme::Http,
            80,
            "/wp-content/uploads/2018/11/team.jpg",
            OsSet::LINUX_ONLY,
            false,
        ),
        lan(
            [192, 168, 0, 208],
            Scheme::Https,
            443,
            "/wp_011_test_demos/wp-content/uploads/2017/05/hero.jpg",
            OsSet::MAC_ONLY,
            false,
        ),
        censor(OsSet::WINDOWS_ONLY),
        censor(OsSet::WINDOWS_ONLY),
        censor(OsSet::ALL),
    ]
}

/// The 40 *new* localhost plantings first observed in the 2021 crawl
/// (Table 7): 6 fraud-detection, 14 native-app, 20 developer-error.
pub fn top2021_new_localhost_specs() -> Vec<PlantSpec> {
    let mut specs = Vec::new();
    for _ in 0..6 {
        specs.push(tm(true));
    }
    // 14 new native-app sites (the iQiyi family, e-signature services,
    // Thunder embedders, gnway, a socket.io client).
    for _ in 0..6 {
        specs.push(native(NativeApp::Iqiyi, SiteCategory::Media, true));
    }
    specs.push(native(
        NativeApp::SoliqCrypto,
        SiteCategory::Government,
        true,
    ));
    specs.push(native(
        NativeApp::SoliqCrypto,
        SiteCategory::Government,
        true,
    ));
    for _ in 0..3 {
        specs.push(native(NativeApp::Thunder, SiteCategory::Media, true));
    }
    specs.push(native(
        NativeApp::McgeeSocketIo,
        SiteCategory::Ecommerce,
        true,
    ));
    specs.push(native(NativeApp::Iqiyi, SiteCategory::Media, true));
    let mut gnway = native(NativeApp::Gnway, SiteCategory::Generic, true);
    gnway.os_set = OsSet::WINDOWS_ONLY;
    specs.push(gnway);
    // 20 new dev-error sites, all active on both crawled OSes.
    const PORTS_2021: [u16; 10] = [1500, 5555, 80, 443, 4502, 9988, 11066, 6081, 8080, 8888];
    for i in 0..20 {
        let kind = match i % 5 {
            0 => DevError::LocalFileServer {
                scheme: Scheme::Http,
                port: PORTS_2021[i % PORTS_2021.len()],
                path: wp_path(100 + i),
            },
            1 => DevError::LocalService {
                scheme: Scheme::Http,
                port: 1500,
                path: "/floor-domains".to_string(),
            },
            2 => DevError::NonExistentImage {
                scheme: Scheme::Http,
                port: 80,
                number: 48762 + i as u32,
            },
            3 => DevError::LiveReload {
                scheme: Scheme::Https,
                port: 35729,
            },
            _ => DevError::LocalFileServer {
                scheme: Scheme::Https,
                port: 443,
                path: wp_path(200 + i),
            },
        };
        specs.push(dev(kind, OsSet::WINDOWS_LINUX, true));
    }
    specs
}

/// The 7 *new* LAN plantings of the 2021 crawl (Table 10): 5 on both
/// OSes, 2 Linux-only. (The 8th site, unib.ac.id, carries from 2020.)
pub fn top2021_new_lan_specs() -> Vec<PlantSpec> {
    let lan = |ip: [u8; 4], scheme: Scheme, port: u16, path: &str, os: OsSet| {
        let mut s = dev(
            DevError::LanResource {
                ip: Ipv4Addr::new(ip[0], ip[1], ip[2], ip[3]),
                scheme,
                port,
                path: path.to_string(),
            },
            os,
            true,
        );
        s.delay = if os.contains(kt_netbase::Os::Windows) {
            DelayWindow::LAN_FAST
        } else {
            DelayWindow::LAN_SLOW
        };
        s
    };
    vec![
        lan(
            [10, 10, 34, 34],
            Scheme::Http,
            80,
            "/",
            OsSet::WINDOWS_LINUX,
        ),
        lan(
            [192, 168, 8, 241],
            Scheme::Http,
            5000,
            "/MyPhone/c2cinfo",
            OsSet::WINDOWS_LINUX,
        ),
        lan(
            [192, 168, 110, 72],
            Scheme::Https,
            443,
            "/matomo/matomo.js",
            OsSet::WINDOWS_LINUX,
        ),
        lan(
            [10, 50, 1, 242],
            Scheme::Https,
            8450,
            "/libraries/slick/slick/ajax-loader.gif",
            OsSet::WINDOWS_LINUX,
        ),
        lan(
            [172, 16, 0, 4],
            Scheme::Http,
            1117,
            "/UpLoadFile/20160801/cover.jpg",
            OsSet::WINDOWS_LINUX,
        ),
        lan(
            [192, 168, 33, 187],
            Scheme::Https,
            443,
            "/modules/mod_acontece/assets/logo.png",
            OsSet::LINUX_ONLY,
        ),
        lan(
            [192, 168, 0, 120],
            Scheme::Https,
            443,
            "/wp_011_gadgets/wp-content/uploads/shot.png",
            OsSet::LINUX_ONLY,
        ),
    ]
}

/// Malicious-population plantings, per blocklist category.
pub mod malicious {
    use super::*;
    use kt_weblists::MaliciousCategory;

    /// One malicious planting plus the category it belongs to.
    #[derive(Debug, Clone, PartialEq)]
    pub struct MaliciousPlant {
        /// Blocklist category to draw the host site from.
        pub category: MaliciousCategory,
        /// The behaviour spec.
        pub spec: PlantSpec,
    }

    fn plant(category: MaliciousCategory, spec: PlantSpec) -> MaliciousPlant {
        MaliciousPlant { category, spec }
    }

    /// All malicious localhost plantings: 96 malware + 13 phishing
    /// ThreatMetrix clones + 42 phishing developer errors = 151 sites,
    /// arranged to reproduce Table 2's per-OS detection counts
    /// (malware 72/83/75, phishing 25/41/9 on W/L/M).
    pub fn localhost_specs() -> Vec<MaliciousPlant> {
        let mut specs = Vec::new();
        // -- Malware: OS multiset 67 all, 5 W, 16 L, 8 M.
        let mut malware_os = Vec::new();
        malware_os.extend(std::iter::repeat_n(OsSet::ALL, 67));
        malware_os.extend(std::iter::repeat_n(OsSet::WINDOWS_ONLY, 5));
        malware_os.extend(std::iter::repeat_n(OsSet::LINUX_ONLY, 16));
        malware_os.extend(std::iter::repeat_n(OsSet::MAC_ONLY, 8));
        for (i, os) in malware_os.into_iter().enumerate() {
            let mut s = match i {
                // One compromised site embeds the Thunder JS library
                // (elilaifs.cn — the single malicious native-app case).
                0 => native(NativeApp::Thunder, SiteCategory::Malicious, false),
                // One livereload remnant, one socket.io dev server.
                1 => dev(
                    DevError::LiveReload {
                        scheme: Scheme::Https,
                        port: 35729,
                    },
                    os,
                    false,
                ),
                2 => dev(
                    DevError::LocalService {
                        scheme: Scheme::Http,
                        port: 8080,
                        path: "/socket.io/socket.io.js".to_string(),
                    },
                    os,
                    false,
                ),
                // The bulk: wp-content fetches from compromised sites.
                _ => dev(
                    DevError::LocalFileServer {
                        scheme: if i % 9 == 0 {
                            Scheme::Https
                        } else {
                            Scheme::Http
                        },
                        port: if i % 9 == 0 { 443 } else { 80 },
                        path: super::wp_path(300 + i),
                    },
                    os,
                    false,
                ),
            };
            s.os_set = os;
            s.category = SiteCategory::Malicious;
            specs.push(plant(MaliciousCategory::Malware, s));
        }
        // -- Phishing ThreatMetrix clones: 13, Windows-only (inherited
        //    from the legitimate sites they impersonate).
        for _ in 0..13 {
            let mut s = tm(false);
            s.category = SiteCategory::Malicious;
            specs.push(plant(MaliciousCategory::Phishing, s));
        }
        // -- Phishing dev errors: OS multiset 6 all, 6 W+L, 2 L+M,
        //    27 L, 1 M.
        let mut phish_os = Vec::new();
        phish_os.extend(std::iter::repeat_n(OsSet::ALL, 6));
        phish_os.extend(std::iter::repeat_n(OsSet::WINDOWS_LINUX, 6));
        phish_os.extend(std::iter::repeat_n(OsSet::LINUX_MAC, 2));
        phish_os.extend(std::iter::repeat_n(OsSet::LINUX_ONLY, 27));
        phish_os.extend(std::iter::repeat_n(OsSet::MAC_ONLY, 1));
        for (i, os) in phish_os.into_iter().enumerate() {
            let kind = match i % 4 {
                0 => DevError::NonExistentImage {
                    scheme: if i % 2 == 0 {
                        Scheme::Https
                    } else {
                        Scheme::Http
                    },
                    port: [44056u16, 5140, 62389, 44938, 49622][i % 5],
                    number: 19258 + i as u32,
                },
                1 => DevError::LocalFileServer {
                    scheme: Scheme::Http,
                    port: 80,
                    path: "/robots.txt".to_string(),
                },
                2 => DevError::LocalFileServer {
                    scheme: Scheme::Http,
                    port: 80,
                    path: "/".to_string(),
                },
                _ => DevError::LocalFileServer {
                    scheme: Scheme::Https,
                    port: 8443,
                    path: format!("/images/brand{i}.png"),
                },
            };
            let mut s = dev(kind, os, false);
            s.category = SiteCategory::Malicious;
            specs.push(plant(MaliciousCategory::Phishing, s));
        }
        specs
    }

    /// All malicious LAN plantings: 8 malware (6 all-OS… arranged to
    /// give Table 2's 8/7/7) + 1 abuse (all OS).
    pub fn lan_specs() -> Vec<MaliciousPlant> {
        let lan = |ip: [u8; 4], scheme: Scheme, port: u16, path: &str, os: OsSet| {
            let mut s = dev(
                DevError::LanResource {
                    ip: Ipv4Addr::new(ip[0], ip[1], ip[2], ip[3]),
                    scheme,
                    port,
                    path: path.to_string(),
                },
                os,
                false,
            );
            s.category = SiteCategory::Malicious;
            s.delay = if os.contains(kt_netbase::Os::Windows) {
                DelayWindow::LAN_FAST
            } else {
                DelayWindow::LAN_SLOW
            };
            s
        };
        let mut specs = vec![
            // Malware: 6 all-OS, 1 W+L, 1 W+M → W=8, L=7, M=7.
            plant(
                MaliciousCategory::Malware,
                lan([10, 2, 70, 15], Scheme::Http, 80, "/theme.css", OsSet::ALL),
            ),
            plant(
                MaliciousCategory::Malware,
                lan(
                    [192, 168, 1, 8],
                    Scheme::Http,
                    80,
                    "/crasar/wp-content/themes/header.png",
                    OsSet::ALL,
                ),
            ),
            plant(
                MaliciousCategory::Malware,
                lan(
                    [172, 26, 6, 230],
                    Scheme::Https,
                    443,
                    "/wp-content/uploads/2020/02/logo.png",
                    OsSet::ALL,
                ),
            ),
            plant(
                MaliciousCategory::Malware,
                lan(
                    [192, 168, 0, 208],
                    Scheme::Http,
                    80,
                    "/wp_011_test_demos/wp-content/uploads/2017/05/hero.jpg",
                    OsSet::ALL,
                ),
            ),
            plant(
                MaliciousCategory::Malware,
                lan([10, 10, 34, 35], Scheme::Http, 80, "/", OsSet::ALL),
            ),
            plant(
                MaliciousCategory::Malware,
                lan(
                    [192, 168, 33, 10],
                    Scheme::Https,
                    443,
                    "/wp-content/uploads/2019/12/icon.png",
                    OsSet::ALL,
                ),
            ),
            plant(
                MaliciousCategory::Malware,
                lan(
                    [192, 168, 0, 226],
                    Scheme::Http,
                    1080,
                    "/wp-content/themes/shop/style.css",
                    OsSet::WINDOWS_LINUX,
                ),
            ),
            plant(
                MaliciousCategory::Malware,
                lan(
                    [10, 99, 0, 7],
                    Scheme::Http,
                    80,
                    "/assets/app.js",
                    OsSet::WINDOWS_MAC,
                ),
            ),
        ];
        // Abuse: the single LAN case (001tel.com).
        specs.push(plant(
            MaliciousCategory::Abuse,
            lan(
                [172, 16, 205, 110],
                Scheme::Https,
                443,
                "/usershare/main.js",
                OsSet::ALL,
            ),
        ));
        specs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kt_netbase::Os;
    use kt_weblists::MaliciousCategory;

    /// Count sites active on an OS given (spec OS set ∩ intrinsic).
    fn active_on(specs: &[PlantSpec], os: Os) -> usize {
        specs
            .iter()
            .filter(|s| s.os_set.intersect(s.behavior.default_os_set()).contains(os))
            .count()
    }

    #[test]
    fn top2020_localhost_class_sizes_match_paper() {
        let specs = top2020_localhost_specs();
        assert_eq!(specs.len(), 107, "107 localhost sites (§4.1)");
        let count = |label: &str| {
            specs
                .iter()
                .filter(|s| s.behavior.reason_label() == label)
                .count()
        };
        assert_eq!(count("Fraud Detection"), 36);
        assert_eq!(count("Bot Detection"), 10);
        assert_eq!(count("Native Application"), 12);
        assert_eq!(count("Developer Error"), 44);
        assert_eq!(count("Unknown"), 5);
    }

    #[test]
    fn top2020_per_os_totals_match_figure2a() {
        let specs = top2020_localhost_specs();
        assert_eq!(active_on(&specs, Os::Windows), 92, "Windows total");
        assert_eq!(active_on(&specs, Os::MacOs), 54, "Mac total");
        // One-site deviation from the paper's 54 (documented above).
        assert_eq!(active_on(&specs, Os::Linux), 53, "Linux total");
        // All-three overlap.
        let all3 = specs
            .iter()
            .filter(|s| {
                let eff = s.os_set.intersect(s.behavior.default_os_set());
                eff == kt_netbase::OsSet::ALL
            })
            .count();
        assert_eq!(all3, 41, "center of the Venn diagram");
        // Windows-only region: 48.
        let w_only = specs
            .iter()
            .filter(|s| {
                s.os_set.intersect(s.behavior.default_os_set()) == kt_netbase::OsSet::WINDOWS_ONLY
            })
            .count();
        assert_eq!(w_only, 48);
    }

    #[test]
    fn top2020_lan_has_nine_sites() {
        let specs = top2020_lan_specs();
        assert_eq!(specs.len(), 9);
        let dev_errors = specs
            .iter()
            .filter(|s| s.behavior.reason_label() == "Developer Error")
            .count();
        assert_eq!(dev_errors, 6);
        let unknown = specs
            .iter()
            .filter(|s| s.behavior.reason_label() == "Unknown")
            .count();
        assert_eq!(unknown, 3);
        // Exactly one LAN planting carries to 2021 (unib.ac.id).
        assert_eq!(specs.iter().filter(|s| s.carried_to_2021).count(), 1);
    }

    #[test]
    fn top2020_carried_counts() {
        let specs = top2020_localhost_specs();
        let carried = specs.iter().filter(|s| s.carried_to_2021).count();
        // 26 TM + 11 native + 5 dev = 42 sites behave the same in 2021.
        assert_eq!(carried, 42);
    }

    #[test]
    fn top2021_new_specs_counts() {
        let specs = top2021_new_localhost_specs();
        assert_eq!(specs.len(), 40, "19 newly-behaving + 21 newly-listed");
        let count = |label: &str| {
            specs
                .iter()
                .filter(|s| s.behavior.reason_label() == label)
                .count()
        };
        assert_eq!(count("Fraud Detection"), 6);
        assert_eq!(count("Native Application"), 14);
        assert_eq!(count("Developer Error"), 20);
        assert_eq!(count("Bot Detection"), 0, "BIG-IP gone by 2021 (§4.3.2)");
        assert_eq!(top2021_new_lan_specs().len(), 7);
    }

    #[test]
    fn projected_2021_totals_match_figure9() {
        // Carried 2020 specs + new 2021 specs, measured on W and L.
        let carried: Vec<PlantSpec> = top2020_localhost_specs()
            .into_iter()
            .filter(|s| s.carried_to_2021)
            .collect();
        let new = top2021_new_localhost_specs();
        let all: Vec<PlantSpec> = carried.into_iter().chain(new).collect();
        assert_eq!(all.len(), 82, "82 localhost sites in 2021 (§4.1)");
        assert_eq!(active_on(&all, Os::Windows), 82);
        assert_eq!(active_on(&all, Os::Linux), 48);
    }

    #[test]
    fn malicious_localhost_matches_table2() {
        let specs = malicious::localhost_specs();
        assert_eq!(specs.len(), 151, "151 malicious localhost sites (§4.1)");
        let by = |cat: MaliciousCategory, os: Os| {
            specs
                .iter()
                .filter(|p| p.category == cat)
                .filter(|p| {
                    p.spec
                        .os_set
                        .intersect(p.spec.behavior.default_os_set())
                        .contains(os)
                })
                .count()
        };
        assert_eq!(by(MaliciousCategory::Malware, Os::Windows), 72);
        assert_eq!(by(MaliciousCategory::Malware, Os::Linux), 83);
        assert_eq!(by(MaliciousCategory::Malware, Os::MacOs), 75);
        assert_eq!(by(MaliciousCategory::Phishing, Os::Windows), 25);
        assert_eq!(by(MaliciousCategory::Phishing, Os::Linux), 41);
        assert_eq!(by(MaliciousCategory::Phishing, Os::MacOs), 9);
        assert_eq!(by(MaliciousCategory::Abuse, Os::Windows), 0);
    }

    #[test]
    fn malicious_lan_matches_table2() {
        let specs = malicious::lan_specs();
        assert_eq!(specs.len(), 9, "9 malicious LAN sites");
        let by = |cat: MaliciousCategory, os: Os| {
            specs
                .iter()
                .filter(|p| p.category == cat)
                .filter(|p| p.spec.os_set.contains(os))
                .count()
        };
        assert_eq!(by(MaliciousCategory::Malware, Os::Windows), 8);
        assert_eq!(by(MaliciousCategory::Malware, Os::Linux), 7);
        assert_eq!(by(MaliciousCategory::Malware, Os::MacOs), 7);
        assert_eq!(by(MaliciousCategory::Abuse, Os::Windows), 1);
        assert_eq!(by(MaliciousCategory::Abuse, Os::Linux), 1);
        assert_eq!(by(MaliciousCategory::Abuse, Os::MacOs), 1);
    }

    #[test]
    fn lan_windows_sites_fire_fast() {
        for s in top2020_lan_specs().iter().chain(&top2021_new_lan_specs()) {
            if s.os_set.contains(Os::Windows) {
                assert!(
                    s.delay.max_ms <= 5_000,
                    "Fig 5b: LAN max 5 s on Windows, got {:?}",
                    s.delay
                );
            }
        }
    }
}
