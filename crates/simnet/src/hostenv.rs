//! The visitor's machine and LAN.
//!
//! "As different OSes support varying network services, a website's
//! locally-bound traffic may depend on the underlying host OS" (§1).
//! A [`HostEnv`] models one visitor machine: its OS, the localhost
//! services that happen to be listening, and the devices on its LAN.
//! Website behaviour scripts consult the OS (via the user agent) to
//! decide whether to run; the scan responses those scripts observe come
//! from the listener tables here.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

pub use kt_netbase::Os;

use crate::rng;
use crate::server::{Endpoint, HttpResponse, BLACKHOLE, REFUSED};

/// A service listening on the visitor's loopback interface.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalService {
    /// Listening TCP port.
    pub port: u16,
    /// Human-readable service name (for reports and debugging).
    pub name: String,
    /// Connection behaviour.
    pub endpoint: Endpoint,
}

/// A device on the visitor's LAN exposing an HTTP interface.
#[derive(Debug, Clone, PartialEq)]
pub struct LanDevice {
    /// RFC 1918 address.
    pub address: Ipv4Addr,
    /// Listening port.
    pub port: u16,
    /// Device label (router, printer, camera, …).
    pub kind: String,
    /// Connection behaviour.
    pub endpoint: Endpoint,
}

/// One visitor machine: OS, localhost listeners, LAN devices.
#[derive(Debug, Clone)]
pub struct HostEnv {
    /// The machine's OS.
    pub os: Os,
    listeners: BTreeMap<u16, LocalService>,
    lan: BTreeMap<(Ipv4Addr, u16), LanDevice>,
}

impl HostEnv {
    /// An empty machine (no listeners, empty LAN).
    pub fn bare(os: Os) -> HostEnv {
        HostEnv {
            os,
            listeners: BTreeMap::new(),
            lan: BTreeMap::new(),
        }
    }

    /// A plausible machine for the OS, seeded: a fraction of real
    /// machines run remote-desktop software, local dev servers, a
    /// media client; home LANs contain a router and sometimes IoT
    /// devices. None of this changes *detection* (the paper records
    /// requests, not responses) but it exercises both response paths.
    /// Each draw streams its `hostenv:{os}:{service}` label into the
    /// seeded hash.
    pub fn sampled(os: Os, seed: u64) -> HostEnv {
        let mut env = HostEnv::bare(os);
        let coin =
            |label: &str, p: f64| rng::coin(seed, format_args!("hostenv:{}:{label}", os.name()), p);
        match os {
            Os::Windows => {
                if coin("rdp", 0.10) {
                    env.add_listener(3389, "Windows Remote Desktop", Endpoint::ws());
                }
                if coin("teamviewer", 0.05) {
                    env.add_listener(5939, "TeamViewer", Endpoint::ws());
                }
                if coin("discord", 0.20) {
                    env.add_listener(6463, "Discord RPC", Endpoint::ws());
                }
            }
            Os::Linux => {
                if coin("x11", 0.15) {
                    env.add_listener(6039, "X Window System", Endpoint::ws());
                }
                if coin("devserver", 0.10) {
                    env.add_listener(
                        3000,
                        "local dev server",
                        Endpoint::http(HttpResponse::ok(128)),
                    );
                }
            }
            Os::MacOs => {
                if coin("vnc", 0.08) {
                    env.add_listener(5900, "Screen Sharing (VNC)", Endpoint::ws());
                }
                if coin("discord", 0.20) {
                    env.add_listener(6463, "Discord RPC", Endpoint::ws());
                }
            }
        }
        // Every LAN has a router with an HTTP admin page.
        env.add_lan_device(
            Ipv4Addr::new(192, 168, 0, 1),
            80,
            "router",
            Endpoint::http(HttpResponse::ok(2048)),
        );
        if coin("printer", 0.3) {
            env.add_lan_device(
                Ipv4Addr::new(192, 168, 0, 20),
                80,
                "printer",
                Endpoint::http(HttpResponse::ok(512)),
            );
        }
        if coin("camera", 0.15) {
            env.add_lan_device(
                Ipv4Addr::new(192, 168, 0, 64),
                8080,
                "ip-camera",
                Endpoint::http(HttpResponse::ok(1024)),
            );
        }
        env
    }

    /// Register a loopback listener.
    pub fn add_listener(&mut self, port: u16, name: &str, endpoint: Endpoint) {
        self.listeners.insert(
            port,
            LocalService {
                port,
                name: name.to_string(),
                endpoint,
            },
        );
    }

    /// Register a LAN device.
    pub fn add_lan_device(&mut self, address: Ipv4Addr, port: u16, kind: &str, endpoint: Endpoint) {
        self.lan.insert(
            (address, port),
            LanDevice {
                address,
                port,
                kind: kind.to_string(),
                endpoint,
            },
        );
    }

    /// What answers a connection to `localhost:port`. Ports with no
    /// listener refuse (RST), which is the common case the anti-abuse
    /// scanners distinguish from an accepted connection. Borrowed: a
    /// connect reads the endpoint, it never copies its certificate.
    pub fn localhost_endpoint(&self, port: u16) -> &Endpoint {
        self.listeners.get(&port).map_or(&REFUSED, |s| &s.endpoint)
    }

    /// What answers a connection to a LAN address. Addresses with no
    /// device are black holes (no host ⇒ no RST, the SYN just dies),
    /// which is what makes naive LAN scanning slow in practice.
    pub fn lan_endpoint(&self, address: Ipv4Addr, port: u16) -> &Endpoint {
        self.lan
            .get(&(address, port))
            .map_or(&BLACKHOLE, |d| &d.endpoint)
    }

    /// Iterate the localhost listeners.
    pub fn listeners(&self) -> impl Iterator<Item = &LocalService> {
        self.listeners.values()
    }

    /// Iterate the LAN devices.
    pub fn lan_devices(&self) -> impl Iterator<Item = &LanDevice> {
        self.lan.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerBehavior;

    #[test]
    fn os_labels() {
        assert_eq!(Os::Windows.letter(), 'W');
        assert_eq!(Os::Linux.letter(), 'L');
        assert_eq!(Os::MacOs.letter(), 'M');
        assert!(Os::Windows.user_agent().contains("Windows NT 10.0"));
        assert!(Os::Linux.user_agent().contains("X11; Linux"));
        assert!(Os::MacOs.user_agent().contains("Mac OS X 10_15_6"));
        // All crawls used Chrome v84 (§3.1).
        for os in Os::ALL {
            assert!(os.user_agent().contains("Chrome/84"));
        }
    }

    #[test]
    fn unlistened_localhost_port_refuses() {
        let env = HostEnv::bare(Os::Linux);
        assert!(matches!(
            env.localhost_endpoint(4444).behavior,
            ServerBehavior::Refused
        ));
    }

    #[test]
    fn unoccupied_lan_address_blackholes() {
        let env = HostEnv::bare(Os::Windows);
        assert!(matches!(
            env.lan_endpoint(Ipv4Addr::new(10, 0, 0, 99), 80).behavior,
            ServerBehavior::Blackhole
        ));
    }

    #[test]
    fn registered_listener_answers() {
        let mut env = HostEnv::bare(Os::Windows);
        env.add_listener(6463, "Discord RPC", Endpoint::ws());
        assert!(matches!(
            env.localhost_endpoint(6463).behavior,
            ServerBehavior::WebSocket
        ));
        assert_eq!(env.listeners().count(), 1);
    }

    #[test]
    fn duplicate_add_listener_replaces_not_duplicates() {
        // Registering the same port twice is last-write-wins: one
        // listener remains and it answers with the later endpoint —
        // the scanner must never observe two services on one port.
        let mut env = HostEnv::bare(Os::Linux);
        env.add_listener(3000, "dev server (ws)", Endpoint::ws());
        env.add_listener(
            3000,
            "dev server (http)",
            Endpoint::http(HttpResponse::ok(64)),
        );
        assert_eq!(env.listeners().count(), 1);
        let listener = env.listeners().next().unwrap();
        assert_eq!(listener.name, "dev server (http)");
        assert!(matches!(
            env.localhost_endpoint(3000).behavior,
            ServerBehavior::Http(_)
        ));
    }

    #[test]
    fn sampled_env_is_deterministic() {
        let a = HostEnv::sampled(Os::Windows, 42);
        let b = HostEnv::sampled(Os::Windows, 42);
        let ports = |e: &HostEnv| e.listeners().map(|l| l.port).collect::<Vec<_>>();
        assert_eq!(ports(&a), ports(&b));
        assert!(a.lan_devices().count() >= 1, "router always present");
    }

    #[test]
    fn sampled_env_varies_with_seed() {
        // Across many seeds, at least one Windows machine has RDP and
        // at least one does not.
        let with_rdp = (0..200).filter(|s| {
            HostEnv::sampled(Os::Windows, *s)
                .listeners()
                .any(|l| l.port == 3389)
        });
        let count = with_rdp.count();
        assert!(count > 0 && count < 200, "rdp on {count}/200 machines");
    }
}
