//! Well-known localhost port/service registry (paper Table 4).
//!
//! The anti-abuse scripts the paper uncovered probe a fixed set of
//! localhost ports chosen for what a hit implies about the visitor's
//! machine: remote-desktop software (a possible fraud signal), known
//! malware listeners and automation drivers (a possible bot signal).
//! This module is the audited mapping from port to service and
//! use-case, mirroring IANA's registry and the SANS ISC port database
//! the paper consulted, plus constants for each probing script's port
//! set so generators and classifiers share one source of truth.

use std::collections::BTreeMap;

/// Why an anti-abuse script probes a port (Table 4's "Use Case").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum UseCase {
    /// Probed by the ThreatMetrix fraud-detection script.
    FraudDetection,
    /// Probed by the BIG-IP ASM bot-defence script.
    BotDetection,
}

impl UseCase {
    /// Human-readable label used in the Table 4 report.
    pub fn label(self) -> &'static str {
        match self {
            UseCase::FraudDetection => "Fraud Detection",
            UseCase::BotDetection => "Bot Detection",
        }
    }
}

/// One row of the port registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortService {
    /// TCP port number.
    pub port: u16,
    /// The service or application known to listen there.
    pub service: &'static str,
    /// Which anti-abuse script probes it, if any.
    pub use_case: Option<UseCase>,
}

/// The localhost ports scanned by the ThreatMetrix fraud-detection
/// script over WSS, exactly as reported in §4.3.1 / Table 5.
pub const THREATMETRIX_PORTS: [u16; 14] = [
    3389, 5279, 5900, 5901, 5902, 5903, 5931, 5939, 5944, 5950, 6039, 6040, 63333, 7070,
];

/// The localhost ports scanned by BIG-IP ASM Bot Defense over HTTP,
/// exactly as reported in §4.3.2 / Table 5.
pub const BIGIP_PORTS: [u16; 7] = [4444, 4653, 5555, 7054, 7055, 9515, 17556];

/// Discord's local RPC port range, probed by sites embedding Discord
/// invitations (ws `/?v=1`, §4.3.3 / Appendix A).
pub const DISCORD_PORTS: [u16; 10] = [6463, 6464, 6465, 6466, 6467, 6468, 6469, 6470, 6471, 6472];

/// nProtect Online Security local HTTPS ports (samsungcard.com).
pub const NPROTECT_PORTS: [u16; 10] = [
    14440, 14441, 14442, 14443, 14444, 14445, 14446, 14447, 14448, 14449,
];

/// AnySign-for-PC local WSS ports (samsungcard.com).
pub const ANYSIGN_PORTS: [u16; 3] = [10531, 31027, 31029];

/// Hola-style localhost JSON probe ports (`/*.json`, "Unknown" class).
pub const HOLA_PORTS: [u16; 10] = [6880, 6881, 6882, 6883, 6884, 6885, 6886, 6887, 6888, 6889];

/// iQiyi-family native client version-check ports (2021 crawl).
pub const IQIYI_PORTS: [u16; 2] = [16422, 16423];

/// Thunder (Xunlei) download-manager detection ports.
pub const THUNDER_PORTS: [u16; 2] = [28317, 36759];

/// True for ports belonging to native-application clients — the local
/// services that would plausibly ship the Private Network Access
/// opt-in header (§4.3.3 / §5.3).
pub fn is_native_app_port(port: u16) -> bool {
    DISCORD_PORTS.contains(&port)
        || NPROTECT_PORTS.contains(&port)
        || ANYSIGN_PORTS.contains(&port)
        || IQIYI_PORTS.contains(&port)
        || THUNDER_PORTS.contains(&port)
        || matches!(
            port,
            28337
                | 6878
                | 5320
                | 60202
                | 64443
                | 12071
                | 12072
                | 17021
                | 27021
                | 2080..=2082
                | 50005
                | 51505
                | 53005
                | 54505
                | 56005
                | 38681..=38687
                | 4000
        )
}

/// Registry of well-known localhost services keyed by port.
#[derive(Debug, Clone)]
pub struct ServiceRegistry {
    by_port: BTreeMap<u16, PortService>,
}

impl ServiceRegistry {
    /// Build the registry with the paper's Table 4 rows plus the
    /// native-application ports from §4.3.3.
    pub fn standard() -> ServiceRegistry {
        let mut by_port = BTreeMap::new();
        let mut add = |port: u16, service: &'static str, use_case: Option<UseCase>| {
            by_port.insert(
                port,
                PortService {
                    port,
                    service,
                    use_case,
                },
            );
        };
        use UseCase::*;
        // Table 4 — fraud detection (ThreatMetrix).
        add(3389, "Windows Remote Desktop", Some(FraudDetection));
        add(5279, "Unknown", Some(FraudDetection));
        add(5900, "Remote Framebuffer (e.g., VNC)", Some(FraudDetection));
        add(5901, "Remote Framebuffer (e.g., VNC)", Some(FraudDetection));
        add(5902, "Remote Framebuffer (e.g., VNC)", Some(FraudDetection));
        add(5903, "Remote Framebuffer (e.g., VNC)", Some(FraudDetection));
        add(5931, "AMMYY Remote Control", Some(FraudDetection));
        add(5939, "TeamViewer", Some(FraudDetection));
        add(5944, "Unknown (likely VNC)", Some(FraudDetection));
        add(5950, "Cisco Remote Expert Manager", Some(FraudDetection));
        add(6039, "X Window System", Some(FraudDetection));
        add(6040, "X Window System", Some(FraudDetection));
        add(63333, "Tripp Lite PowerAlert UPS", Some(FraudDetection));
        add(7070, "AnyDesk Remote Desktop", Some(FraudDetection));
        // Table 4 — bot detection (BIG-IP ASM).
        add(
            4444,
            "Malware: CrackDown, Prosiak, Swift Remote",
            Some(BotDetection),
        );
        add(4653, "Malware: Cero", Some(BotDetection));
        add(5555, "Malware: ServeMe", Some(BotDetection));
        add(7054, "QuickTime Streaming Server", Some(BotDetection));
        add(7055, "QuickTime Streaming Server", Some(BotDetection));
        add(9515, "Malware: W32.Loxbot.A", Some(BotDetection));
        add(17556, "Microsoft Edge WebDriver", Some(BotDetection));
        // Native-application ports (§4.3.3, Appendix A) — no anti-abuse
        // use case; kept for classification context.
        for p in DISCORD_PORTS {
            add(p, "Discord local RPC", None);
        }
        for p in NPROTECT_PORTS {
            add(p, "nProtect Online Security", None);
        }
        for p in ANYSIGN_PORTS {
            add(p, "AnySign for PC", None);
        }
        for p in IQIYI_PORTS {
            add(p, "iQiyi native client", None);
        }
        for p in THUNDER_PORTS {
            add(p, "Thunder (Xunlei) client", None);
        }
        add(28337, "FACEIT anti-cheat client", None);
        add(6878, "Ace Stream client", None);
        add(5320, "Screenleap client", None);
        add(35729, "LiveReload.js dev server", None);
        ServiceRegistry { by_port }
    }

    /// Look up a port.
    pub fn lookup(&self, port: u16) -> Option<&PortService> {
        self.by_port.get(&port)
    }

    /// All rows with an anti-abuse use case, in port order — the rows
    /// of Table 4.
    pub fn table4_rows(&self) -> Vec<&PortService> {
        self.by_port
            .values()
            .filter(|ps| ps.use_case.is_some())
            .collect()
    }

    /// Number of registered ports.
    pub fn len(&self) -> usize {
        self.by_port.len()
    }

    /// True if no ports are registered.
    pub fn is_empty(&self) -> bool {
        self.by_port.is_empty()
    }
}

impl Default for ServiceRegistry {
    fn default() -> Self {
        ServiceRegistry::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn port_set_sizes_match_paper() {
        assert_eq!(
            THREATMETRIX_PORTS.len(),
            14,
            "14 distinct WSS ports (§4.3.1)"
        );
        assert_eq!(BIGIP_PORTS.len(), 7, "7 HTTP ports (§4.3.2)");
        assert_eq!(DISCORD_PORTS.len(), 10);
        assert_eq!(NPROTECT_PORTS.len(), 10);
    }

    #[test]
    fn port_sets_are_disjoint_between_fraud_and_bot() {
        for p in THREATMETRIX_PORTS {
            assert!(!BIGIP_PORTS.contains(&p), "port {p} in both sets");
        }
    }

    #[test]
    fn registry_covers_every_scanned_port() {
        let reg = ServiceRegistry::standard();
        for p in THREATMETRIX_PORTS {
            let row = reg.lookup(p).unwrap_or_else(|| panic!("missing port {p}"));
            assert_eq!(row.use_case, Some(UseCase::FraudDetection));
        }
        for p in BIGIP_PORTS {
            let row = reg.lookup(p).unwrap_or_else(|| panic!("missing port {p}"));
            assert_eq!(row.use_case, Some(UseCase::BotDetection));
        }
    }

    #[test]
    fn table4_rows_sorted_and_complete() {
        let reg = ServiceRegistry::standard();
        let rows = reg.table4_rows();
        assert_eq!(rows.len(), THREATMETRIX_PORTS.len() + BIGIP_PORTS.len());
        assert!(rows.windows(2).all(|w| w[0].port < w[1].port));
    }

    #[test]
    fn specific_services_match_table4() {
        let reg = ServiceRegistry::standard();
        assert_eq!(reg.lookup(3389).unwrap().service, "Windows Remote Desktop");
        assert_eq!(reg.lookup(5939).unwrap().service, "TeamViewer");
        assert_eq!(
            reg.lookup(17556).unwrap().service,
            "Microsoft Edge WebDriver"
        );
        assert_eq!(reg.lookup(9515).unwrap().service, "Malware: W32.Loxbot.A");
        assert!(reg.lookup(6463).unwrap().use_case.is_none());
    }

    #[test]
    fn native_app_port_predicate() {
        assert!(is_native_app_port(6463), "Discord");
        assert!(is_native_app_port(28337), "FACEIT");
        assert!(is_native_app_port(14440), "nProtect");
        assert!(
            !is_native_app_port(3389),
            "RDP is a scan target, not an app"
        );
        assert!(!is_native_app_port(4444), "malware port");
        assert!(!is_native_app_port(80));
    }

    #[test]
    fn unknown_port_lookup_is_none() {
        let reg = ServiceRegistry::standard();
        assert!(reg.lookup(1).is_none());
        assert!(!reg.is_empty());
        assert!(reg.len() > 40);
    }
}
