//! The simulated network fabric: name resolution plus connections.
//!
//! [`SimNet`] owns the public Internet's DNS zone and endpoint table;
//! connections to loopback and RFC 1918 destinations are dispatched to
//! the visitor's [`HostEnv`] instead — a browser cannot reach another
//! machine's localhost, so the split mirrors reality.

use std::collections::HashMap;
use std::net::IpAddr;

use kt_netbase::Locality;

use crate::clock::SimTime;
use crate::dns::DnsResolver;
use crate::hostenv::HostEnv;
use crate::latency::LatencyModel;
use crate::server::{Endpoint, ServerBehavior, BLACKHOLE};
use crate::tls::CertVerdict;

/// Result of a TCP (+ optional TLS) connection attempt. An
/// established connection borrows the listening endpoint's behaviour
/// from the network it was made on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConnectOutcome<'a> {
    /// Connected (and TLS completed, when requested); the endpoint's
    /// request-level behaviour applies next. Its certificate, if any,
    /// was already verified against the SNI name.
    Established {
        /// TCP connect latency.
        connect_ms: u64,
        /// TLS handshake latency (0 for plaintext).
        tls_ms: u64,
        /// What the listening endpoint does with a request.
        behavior: &'a ServerBehavior,
    },
    /// RST on SYN: `ERR_CONNECTION_REFUSED`.
    Refused {
        /// Time until the RST arrived.
        elapsed_ms: u64,
    },
    /// No response within the connect timeout: `ERR_TIMED_OUT`.
    TimedOut {
        /// The timeout that elapsed.
        elapsed_ms: u64,
    },
    /// TLS handshake completed but certificate verification failed.
    CertError {
        /// Time spent connecting and handshaking.
        elapsed_ms: u64,
        /// The verification failure.
        verdict: CertVerdict,
    },
    /// TLS attempted against a plaintext service:
    /// `ERR_SSL_PROTOCOL_ERROR`.
    TlsProtocolError {
        /// Time spent before the handshake collapsed.
        elapsed_ms: u64,
    },
}

impl ConnectOutcome<'_> {
    /// Total elapsed time for the attempt.
    pub fn elapsed_ms(&self) -> u64 {
        match self {
            ConnectOutcome::Established {
                connect_ms, tls_ms, ..
            } => connect_ms + tls_ms,
            ConnectOutcome::Refused { elapsed_ms }
            | ConnectOutcome::TimedOut { elapsed_ms }
            | ConnectOutcome::CertError { elapsed_ms, .. }
            | ConnectOutcome::TlsProtocolError { elapsed_ms } => *elapsed_ms,
        }
    }

    /// True if the transport (and TLS, if any) is usable.
    pub fn is_established(&self) -> bool {
        matches!(self, ConnectOutcome::Established { .. })
    }
}

/// The public-Internet side of the simulation.
#[derive(Debug, Default)]
pub struct SimNet {
    /// The DNS zone + stub resolver.
    pub dns: DnsResolver,
    endpoints: HashMap<(IpAddr, u16), Endpoint>,
    latency: LatencyModel,
}

impl SimNet {
    /// An empty network with the given latency seed.
    pub fn new(seed: u64) -> SimNet {
        SimNet {
            dns: DnsResolver::new(),
            endpoints: HashMap::new(),
            latency: LatencyModel::new(seed),
        }
    }

    /// The latency model (shared with callers that time sub-steps).
    pub fn latency(&self) -> &LatencyModel {
        &self.latency
    }

    /// Bind an endpoint at a public address.
    pub fn bind(&mut self, addr: IpAddr, port: u16, endpoint: Endpoint) {
        self.endpoints.insert((addr, port), endpoint);
    }

    /// Resolve a DNS name at the given time.
    pub fn resolve(&mut self, name: &str, now: SimTime) -> Result<IpAddr, crate::dns::DnsError> {
        self.dns.resolve(name, now)
    }

    /// Attempt a TCP connection (optionally TLS with `sni_host`) to
    /// `addr:port`. Loopback and private destinations are answered by
    /// `host_env`; public destinations by the bound endpoint table
    /// (default: black hole — an address nobody answers for).
    ///
    /// Endpoints are looked up by reference, and the latency draws
    /// stream the `{addr}:{port}` key into the seeded hash, so a
    /// connect allocates nothing. An established outcome borrows the
    /// endpoint's [`ServerBehavior`] from `self` or `host_env`.
    pub fn connect<'a>(
        &'a self,
        host_env: &'a HostEnv,
        addr: IpAddr,
        port: u16,
        tls_sni: Option<&str>,
    ) -> ConnectOutcome<'a> {
        let locality = Locality::of_ip(addr);
        let endpoint = match (locality, addr) {
            (Locality::Loopback, _) => host_env.localhost_endpoint(port),
            (Locality::Private, IpAddr::V4(v4)) => host_env.lan_endpoint(v4, port),
            _ => self.endpoints.get(&(addr, port)).unwrap_or(&BLACKHOLE),
        };
        let behavior = &endpoint.behavior;
        match behavior {
            ServerBehavior::Refused => ConnectOutcome::Refused {
                elapsed_ms: self
                    .latency
                    .refused_ms(locality, format_args!("{addr}:{port}")),
            },
            ServerBehavior::Blackhole => ConnectOutcome::TimedOut {
                elapsed_ms: self.latency.timeout_ms(),
            },
            _ => {
                let connect_ms = self
                    .latency
                    .connect_ms(locality, format_args!("{addr}:{port}"));
                match tls_sni {
                    None => ConnectOutcome::Established {
                        connect_ms,
                        tls_ms: 0,
                        behavior,
                    },
                    Some(host) => {
                        let tls_ms = self.latency.tls_ms(locality, format_args!("{addr}:{port}"));
                        match &endpoint.certificate {
                            None => ConnectOutcome::TlsProtocolError {
                                elapsed_ms: connect_ms + tls_ms,
                            },
                            Some(cert) => match cert.verify(host) {
                                CertVerdict::Ok => ConnectOutcome::Established {
                                    connect_ms,
                                    tls_ms,
                                    behavior,
                                },
                                verdict => ConnectOutcome::CertError {
                                    elapsed_ms: connect_ms + tls_ms,
                                    verdict,
                                },
                            },
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hostenv::Os;
    use crate::server::HttpResponse;
    use std::net::Ipv4Addr;

    fn public_ip() -> IpAddr {
        IpAddr::V4(Ipv4Addr::new(93, 184, 216, 34))
    }

    #[test]
    fn public_http_connect() {
        let mut net = SimNet::new(1);
        net.bind(public_ip(), 80, Endpoint::http(HttpResponse::ok(100)));
        let env = HostEnv::bare(Os::Linux);
        let out = net.connect(&env, public_ip(), 80, None);
        assert!(out.is_established());
        match out {
            ConnectOutcome::Established { tls_ms, .. } => assert_eq!(tls_ms, 0),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn tls_with_matching_cert_succeeds() {
        let mut net = SimNet::new(1);
        net.bind(
            public_ip(),
            443,
            Endpoint::https("example.com", HttpResponse::ok(100)),
        );
        let env = HostEnv::bare(Os::Linux);
        let out = net.connect(&env, public_ip(), 443, Some("example.com"));
        assert!(out.is_established());
        assert!(out.elapsed_ms() > 0);
    }

    #[test]
    fn tls_with_wrong_name_is_cert_error() {
        let mut net = SimNet::new(1);
        net.bind(
            public_ip(),
            443,
            Endpoint::https("other.example", HttpResponse::ok(100)),
        );
        let env = HostEnv::bare(Os::Linux);
        match net.connect(&env, public_ip(), 443, Some("example.com")) {
            ConnectOutcome::CertError { verdict, .. } => {
                assert_eq!(verdict, CertVerdict::CommonNameInvalid)
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn tls_to_plaintext_endpoint_fails() {
        let mut net = SimNet::new(1);
        net.bind(public_ip(), 443, Endpoint::http(HttpResponse::ok(1)));
        let env = HostEnv::bare(Os::Linux);
        assert!(matches!(
            net.connect(&env, public_ip(), 443, Some("example.com")),
            ConnectOutcome::TlsProtocolError { .. }
        ));
    }

    #[test]
    fn unbound_public_address_blackholes() {
        let net = SimNet::new(1);
        let env = HostEnv::bare(Os::Linux);
        match net.connect(&env, public_ip(), 8080, None) {
            ConnectOutcome::TimedOut { elapsed_ms } => assert_eq!(elapsed_ms, 30_000),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn loopback_dispatches_to_host_env() {
        let net = SimNet::new(1);
        let mut env = HostEnv::bare(Os::Windows);
        env.add_listener(6463, "Discord RPC", Endpoint::ws());
        let loopback = IpAddr::V4(Ipv4Addr::LOCALHOST);
        assert!(net.connect(&env, loopback, 6463, None).is_established());
        // No listener on 4444: fast refusal.
        match net.connect(&env, loopback, 4444, None) {
            ConnectOutcome::Refused { elapsed_ms } => assert!(elapsed_ms <= 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn ipv6_loopback_resolves_to_host_env_on_every_os_profile() {
        // `[::1]` must reach the same listener table as `127.0.0.1` on
        // all three OS profiles — the dual-stack knock path the
        // scanner's `--ipv6` mode exercises.
        use std::net::Ipv6Addr;
        let net = SimNet::new(5);
        let v6 = IpAddr::V6(Ipv6Addr::LOCALHOST);
        let v4 = IpAddr::V4(Ipv4Addr::LOCALHOST);
        for os in Os::ALL {
            let mut env = HostEnv::bare(os);
            env.add_listener(6463, "Discord RPC", Endpoint::ws());
            assert!(
                net.connect(&env, v6, 6463, None).is_established(),
                "{os:?}: listener must answer on [::1]"
            );
            // The two loopback literals agree port-by-port: a probe of
            // an unlistened port refuses on both stacks.
            match (
                net.connect(&env, v6, 4444, None),
                net.connect(&env, v4, 4444, None),
            ) {
                (ConnectOutcome::Refused { .. }, ConnectOutcome::Refused { .. }) => {}
                other => panic!("{os:?}: expected dual-stack refusal, got {other:?}"),
            }
        }
    }

    #[test]
    fn lan_dispatches_to_host_env() {
        let net = SimNet::new(1);
        let mut env = HostEnv::bare(Os::Linux);
        let router = Ipv4Addr::new(192, 168, 0, 1);
        env.add_lan_device(router, 80, "router", Endpoint::http(HttpResponse::ok(1)));
        assert!(net
            .connect(&env, IpAddr::V4(router), 80, None)
            .is_established());
        // Empty LAN slot: black hole, not refusal.
        assert!(matches!(
            net.connect(&env, IpAddr::V4(Ipv4Addr::new(192, 168, 0, 200)), 80, None),
            ConnectOutcome::TimedOut { .. }
        ));
    }

    #[test]
    fn refusal_is_much_faster_than_timeout() {
        let net = SimNet::new(1);
        let env = HostEnv::bare(Os::Windows);
        let loopback = IpAddr::V4(Ipv4Addr::LOCALHOST);
        let refused = net.connect(&env, loopback, 17556, None).elapsed_ms();
        let timed_out = net
            .connect(&env, IpAddr::V4(Ipv4Addr::new(10, 9, 9, 9)), 80, None)
            .elapsed_ms();
        assert!(refused * 100 < timed_out, "{refused} vs {timed_out}");
    }
}
