//! The page-visit engine.
//!
//! One [`Browser::visit`] is one row of the paper's crawl: load the
//! landing page, keep the instance alive for the observation window,
//! execute whatever the page does (ordinary resources, anti-abuse
//! scans, native-app probes, developer-error fetches…), and hand back
//! the NetLog capture.

use std::borrow::Cow;
use std::fmt;

use kt_faults::{SalvagedVisit, VisitFaults};
use kt_netbase::pna::{self, AddressSpace, PreflightResult};
use kt_netbase::services::is_native_app_port;
use kt_netbase::{Host, Url};
use kt_netlog::{
    Capture, EventParams, EventPhase, EventType, NetError, NetLogger, SourceRef, SourceType,
};
use kt_simnet::dns::DnsError;
use kt_simnet::server::ServerBehavior;
use kt_simnet::tls::CertVerdict;
use kt_simnet::{rng, ConnectOutcome};
use kt_webgen::{Channel, SensorGate, WebSite};

use crate::config::{BrowserConfig, PnaMode};
use crate::world::{World, CDN_HOSTS};

/// Outcome of the landing-page load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageLoadOutcome {
    /// Loaded; the page then ran for the rest of the window.
    Loaded {
        /// Time at which the main document finished, ms.
        at_ms: u64,
    },
    /// Failed with a Chrome net error (Table 1's taxonomy).
    Failed(NetError),
}

impl PageLoadOutcome {
    /// True if the page loaded.
    pub fn is_loaded(self) -> bool {
        matches!(self, PageLoadOutcome::Loaded { .. })
    }
}

/// The result of one page visit.
#[derive(Debug)]
pub struct VisitResult {
    /// The site's domain.
    pub domain: String,
    /// Landing-page outcome.
    pub outcome: PageLoadOutcome,
    /// Full NetLog telemetry for the visit.
    pub capture: Capture,
}

/// A browser instance bound to one world.
#[derive(Debug)]
pub struct Browser<'w> {
    world: &'w mut World,
    config: BrowserConfig,
    seed: u64,
}

/// Deterministic per-visit hash (independent of crawl order). The
/// label is streamed into the lanes, never formatted into a string.
fn hash(seed: u64, label: impl fmt::Display) -> u64 {
    let mix = |h: u64, lane: u64| {
        let h = h.wrapping_add(lane).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^ (h >> 29)
    };
    rng::fold_lanes(seed ^ 0xb70b_5e65, label, mix).0
}

/// The TLS server name for `url`, if it is secure: the domain
/// borrowed, an IP literal rendered as the URL shows it.
fn sni(url: &Url) -> Option<Cow<'_, str>> {
    if !url.scheme().is_secure() {
        return None;
    }
    Some(match url.host() {
        Host::Domain(d) => Cow::Borrowed(d.as_str()),
        host => Cow::Owned(host.to_string()),
    })
}

impl<'w> Browser<'w> {
    /// Bind a browser to a world.
    pub fn new(world: &'w mut World, config: BrowserConfig, seed: u64) -> Browser<'w> {
        Browser {
            world,
            config,
            seed,
        }
    }

    /// Visit one site's landing page.
    pub fn visit(&mut self, site: &WebSite) -> VisitResult {
        self.visit_faulted(site, &VisitFaults::NONE)
    }

    /// Visit one site's landing page under an injected fault set.
    ///
    /// The hooks mirror how each fault manifests in a real crawl:
    ///
    /// * `dns_flap` — the resolver query times out this attempt; the
    ///   visit fails `ERR_TIMED_OUT` (transient, unlike a genuine
    ///   NXDOMAIN fate);
    /// * `connection_reset` — the landing connection dies after the
    ///   document starts arriving: the load is reported as
    ///   `ERR_CONNECTION_RESET` and the page never runs;
    /// * `panic` — the visit crashes mid-flight, throwing a
    ///   [`SalvagedVisit`] carrying the capture prefix logged so far
    ///   (the supervisor's `catch_unwind` quarantines the site);
    /// * `truncate_capture` — the capture loses its tail after the
    ///   visit completes; the outcome is untouched, only evidence
    ///   shrinks (monotone: a truncated capture is a valid prefix).
    pub fn visit_faulted(&mut self, site: &WebSite, faults: &VisitFaults) -> VisitResult {
        let mut log = NetLogger::new();
        let window = self.config.window_ms;

        // Chrome's own housekeeping traffic, on a browser-internal
        // source — present so the detection filter has something real
        // to exclude.
        let internal = log.new_source(SourceType::BrowserInternal);
        log.log(
            0,
            internal,
            EventType::NetworkChangeNotifier,
            EventPhase::None,
            EventParams::None,
        );

        let landing = World::landing_url(site);
        if faults.dns_flap {
            return self.flapped_dns_visit(log, site, &landing, window);
        }
        let (load_end, result) = self.fetch_http(&mut log, &landing, 0, None, window);
        let mut outcome = match result {
            Ok(_status) => PageLoadOutcome::Loaded { at_ms: load_end },
            Err(err) => PageLoadOutcome::Failed(err),
        };
        if faults.connection_reset {
            if let PageLoadOutcome::Loaded { at_ms } = outcome {
                // The document connection resets just after the load:
                // the flow that carried the page dies mid-flight.
                let source = log.new_source(SourceType::UrlRequest);
                self.log_clamped(
                    &mut log,
                    at_ms,
                    source,
                    EventType::UrlRequestStartJob,
                    EventPhase::Begin,
                    EventParams::UrlRequestStart {
                        url: landing.to_string(),
                        method: "GET".to_string(),
                        initiator: None,
                        load_flags: 0,
                    },
                    window,
                );
                self.fail(
                    &mut log,
                    source,
                    at_ms + 40,
                    NetError::ConnectionReset,
                    window,
                );
                outcome = PageLoadOutcome::Failed(NetError::ConnectionReset);
            }
        }
        if faults.panic {
            // Crash between the landing load and the page run: the
            // events logged so far are the salvageable prefix.
            std::panic::panic_any(SalvagedVisit {
                domain: site.domain.as_str().to_string(),
                events: log.into_capture().events,
            });
        }
        if let PageLoadOutcome::Loaded { at_ms } = outcome {
            self.run_page(&mut log, site, &landing, at_ms, window);
        }
        let mut capture = log.into_capture();
        if faults.truncate_capture {
            // The capture writer lost its tail: keep a prefix. Event
            // count is deterministic, so so is the cut.
            let keep = capture.events.len() * 2 / 3;
            capture.events.truncate(keep);
        }
        VisitResult {
            domain: site.domain.as_str().to_string(),
            outcome,
            capture,
        }
    }

    /// An injected transient resolver flap: the DNS query for the
    /// landing host never answers and the load times out.
    fn flapped_dns_visit(
        &mut self,
        mut log: NetLogger,
        site: &WebSite,
        landing: &Url,
        window: u64,
    ) -> VisitResult {
        let source = log.new_source(SourceType::UrlRequest);
        self.log_clamped(
            &mut log,
            0,
            source,
            EventType::RequestAlive,
            EventPhase::Begin,
            EventParams::None,
            window,
        );
        self.log_clamped(
            &mut log,
            0,
            source,
            EventType::UrlRequestStartJob,
            EventPhase::Begin,
            EventParams::UrlRequestStart {
                url: landing.to_string(),
                method: "GET".to_string(),
                initiator: None,
                load_flags: 0,
            },
            window,
        );
        self.log_clamped(
            &mut log,
            0,
            source,
            EventType::HostResolverImplJob,
            EventPhase::Begin,
            EventParams::DnsJob {
                host: landing.host().to_string(),
            },
            window,
        );
        // Chrome's resolver gives up after its own timeout dance.
        const DNS_FLAP_TIMEOUT_MS: u64 = 4_000;
        self.fail(
            &mut log,
            source,
            DNS_FLAP_TIMEOUT_MS.min(window.saturating_sub(1)),
            NetError::TimedOut,
            window,
        );
        VisitResult {
            domain: site.domain.as_str().to_string(),
            outcome: PageLoadOutcome::Failed(NetError::TimedOut),
            capture: log.into_capture(),
        }
    }

    /// Execute the page's content: ordinary resources + behaviours.
    fn run_page(
        &mut self,
        log: &mut NetLogger,
        site: &WebSite,
        landing: &Url,
        load_end: u64,
        window: u64,
    ) {
        let initiator = format!("{}://{}", landing.scheme(), landing.host());
        // The site's anti-bot sensor (if any) fingerprints this visit
        // and decides what happens to the local behaviours below. No
        // sensor means the page runs unmodified.
        let gate = site
            .sensor
            .map(|s| s.gate(self.seed, self.config.profile, site.domain.as_str()))
            .unwrap_or(SensorGate::Pass);
        // Ordinary public resources: half same-origin, half from the
        // shared CDNs, spread over the first ~12 s.
        struct Job {
            url: Url,
            channel: Channel,
            at: u64,
        }
        let mut jobs: Vec<Job> = Vec::new();
        for i in 0..site.public_resources {
            let h = hash(self.seed, format_args!("pubres:{}:{i}", site.domain));
            let delay = 100 + h % 12_000;
            let url = if i % 2 == 0 {
                let host = CDN_HOSTS[(h >> 32) as usize % CDN_HOSTS.len()];
                Url::parse(&format!("https://{host}/lib/resource{i}.js")).expect("static url")
            } else {
                Url::from_parts(
                    landing.scheme(),
                    landing.host().clone(),
                    None,
                    &format!("/static/asset{i}.css"),
                )
            };
            jobs.push(Job {
                url,
                channel: Channel::Fetch,
                at: load_end + delay,
            });
        }
        // Behaviour jobs run through the sensor gate: a Suppress or
        // Challenge verdict drops them (the probing script is never
        // served), a Delay verdict pushes them past the capture window.
        // Public resources above are untouched — a challenged page
        // still looks alive to the crawler.
        let extra_delay_ms = match gate {
            SensorGate::Delay(extra) => extra,
            _ => 0,
        };
        let behaviors_run = !matches!(gate, SensorGate::Suppress | SensorGate::Challenge);
        if behaviors_run {
            for planned in site.planned_requests(self.config.os) {
                jobs.push(Job {
                    url: planned.url,
                    channel: planned.channel,
                    at: load_end + planned.delay_ms + extra_delay_ms,
                });
            }
        }
        if gate == SensorGate::Challenge {
            // BIG-IP-ASM-style interstitial: the detected crawler is
            // handed a same-origin challenge fetch instead of the page.
            jobs.push(Job {
                url: Url::from_parts(
                    landing.scheme(),
                    landing.host().clone(),
                    None,
                    "/TSPD/08e8ab5bacab2000?type=7",
                ),
                channel: Channel::Fetch,
                at: load_end + 250,
            });
        }
        if self.config.crawl_internal && behaviors_run {
            // Deep crawl: the crawler navigates to an internal page
            // (e.g. /login) shortly after the landing page settles and
            // stays inside the same observation window.
            const INTERNAL_NAV_MS: u64 = 1_500;
            for planned in site.planned_internal_requests(self.config.os) {
                jobs.push(Job {
                    url: planned.url,
                    channel: planned.channel,
                    at: load_end + INTERNAL_NAV_MS + planned.delay_ms + extra_delay_ms,
                });
            }
        }
        jobs.sort_by_key(|j| j.at);
        for job in jobs {
            if job.at >= window {
                continue; // the window closed before this fired
            }
            // Private Network Access enforcement (§5.3): a request into
            // a more-private address space needs a secure initiating
            // context and a preflight opt-in. Blocked requests are
            // aborted before any socket work, but the attempt is still
            // visible in telemetry (URL_REQUEST + ERR_ABORTED).
            if self.pna_blocks(landing, &job.url) {
                let source = log.new_source(SourceType::UrlRequest);
                self.log_clamped(
                    log,
                    job.at,
                    source,
                    EventType::UrlRequestStartJob,
                    EventPhase::Begin,
                    EventParams::UrlRequestStart {
                        url: job.url.to_string(),
                        method: "GET".to_string(),
                        initiator: Some(initiator.clone()),
                        load_flags: 0,
                    },
                    window,
                );
                self.fail(log, source, job.at, NetError::Aborted, window);
                continue;
            }
            match job.channel {
                Channel::Fetch | Channel::Iframe => {
                    let _ = self.fetch_http(log, &job.url, job.at, Some(&initiator), window);
                }
                Channel::WebSocket => {
                    self.open_websocket(log, &job.url, job.at, window);
                }
                Channel::Redirect => {
                    self.redirect_document(log, landing, &job.url, job.at, window);
                }
            }
        }
        if let SensorGate::Ice { mdns } = gate {
            self.gather_ice_candidates(log, site, load_end, window, mdns);
        }
    }

    /// A WebRTC rendezvous page gathering ICE candidates. Every visitor
    /// sees the gathering; what differs is the *form* of the host
    /// candidate — a detected crawler gets the mDNS-obfuscated `.local`
    /// name, an undetected one the raw private address. The candidates
    /// ride a P2P socket source, not a URL request, so they are a
    /// second local-discovery channel entirely outside the HTTP path.
    fn gather_ice_candidates(
        &mut self,
        log: &mut NetLogger,
        site: &WebSite,
        load_end: u64,
        window: u64,
        mdns: bool,
    ) {
        let domain = site.domain.as_str();
        let h = hash(self.seed, format_args!("ice:{domain}"));
        let source = log.new_source(SourceType::P2pSocket);
        let port = 49_152 + (h % 16_000) as u16;
        let at = load_end + 800 + h % 1_200;
        let address = if mdns {
            format!(
                "{:08x}-{:04x}-{:04x}.local:{port}",
                h as u32,
                (h >> 32) as u16,
                (h >> 48) as u16
            )
        } else {
            format!("192.168.{}.{}:{port}", (h >> 8) % 256, 1 + (h >> 16) % 254)
        };
        self.log_clamped(
            log,
            at,
            source,
            EventType::IceCandidateGathered,
            EventPhase::None,
            EventParams::IceCandidate {
                address,
                candidate_type: "host".to_string(),
            },
            window,
        );
        // The server-reflexive candidate: the visitor's public address
        // as seen by the STUN server — never local, present so the
        // detector has to discriminate by locality, not by event kind.
        self.log_clamped(
            log,
            at + 60,
            source,
            EventType::IceCandidateGathered,
            EventPhase::None,
            EventParams::IceCandidate {
                address: format!("203.0.113.{}:3478", 1 + (h >> 24) % 254),
                candidate_type: "srflx".to_string(),
            },
            window,
        );
    }

    /// True if the configured PNA mode blocks a request from the
    /// landing page's context to `target`.
    fn pna_blocks(&self, landing: &Url, target: &Url) -> bool {
        let preflight = match self.config.pna {
            PnaMode::Off => return false,
            PnaMode::EnforceNoOptIn => PreflightResult::Denied,
            PnaMode::EnforceFullOptIn => PreflightResult::Approved,
            PnaMode::EnforceNativeOptIn => {
                if target.locality().is_loopback() && is_native_app_port(target.port()) {
                    PreflightResult::Approved
                } else {
                    PreflightResult::Denied
                }
            }
        };
        let verdict = pna::decide(
            AddressSpace::of_url(landing),
            landing.scheme().is_secure(),
            target,
            preflight,
        );
        !verdict.permits()
    }

    /// Resolve a URL host to an address, logging DNS activity.
    /// Returns `Err` with the mapped net error on resolution failure.
    fn resolve_host(
        &mut self,
        log: &mut NetLogger,
        source: SourceRef,
        url: &Url,
        at: u64,
        window: u64,
    ) -> Result<(std::net::IpAddr, u64), NetError> {
        match url.host() {
            Host::Ipv4(ip) => Ok((std::net::IpAddr::V4(*ip), at)),
            Host::Ipv6(ip) => Ok((std::net::IpAddr::V6(*ip), at)),
            Host::Domain(d) if d.is_localhost() => {
                // let-localhost-be-localhost: no DNS query issued.
                Ok((std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST), at))
            }
            Host::Domain(d) => {
                let dns_ms = self.world.net.latency().dns_ms(d.as_str());
                self.log_clamped(
                    log,
                    at,
                    source,
                    EventType::HostResolverImplJob,
                    EventPhase::Begin,
                    EventParams::DnsJob {
                        host: d.as_str().to_string(),
                    },
                    window,
                );
                let result = self.world.net.resolve(d.as_str(), at);
                let end = at + dns_ms;
                self.log_clamped(
                    log,
                    end,
                    source,
                    EventType::HostResolverImplJob,
                    EventPhase::End,
                    EventParams::None,
                    window,
                );
                match result {
                    Ok(ip) => Ok((ip, end)),
                    // A malformed zone record is unresolvable from the
                    // browser's point of view, exactly like NXDOMAIN.
                    Err(DnsError::NxDomain)
                    | Err(DnsError::ServFail)
                    | Err(DnsError::MalformedRecord) => Err(NetError::NameNotResolved),
                    Err(DnsError::Timeout) => Err(NetError::TimedOut),
                }
            }
        }
    }

    /// One HTTP(S) fetch flow. Returns (end-time, status-or-error).
    fn fetch_http(
        &mut self,
        log: &mut NetLogger,
        url: &Url,
        at: u64,
        initiator: Option<&str>,
        window: u64,
    ) -> (u64, Result<u16, NetError>) {
        let source = log.new_source(SourceType::UrlRequest);
        self.log_clamped(
            log,
            at,
            source,
            EventType::RequestAlive,
            EventPhase::Begin,
            EventParams::None,
            window,
        );
        self.log_clamped(
            log,
            at,
            source,
            EventType::UrlRequestStartJob,
            EventPhase::Begin,
            EventParams::UrlRequestStart {
                url: url.to_string(),
                method: "GET".to_string(),
                initiator: initiator.map(str::to_string),
                load_flags: 0,
            },
            window,
        );
        self.drive_transaction(log, source, url, at, window, 0)
    }

    /// Connect + transact for an already-started flow (shared by plain
    /// fetches and post-redirect continuations).
    fn drive_transaction(
        &mut self,
        log: &mut NetLogger,
        source: SourceRef,
        url: &Url,
        at: u64,
        window: u64,
        redirect_depth: u8,
    ) -> (u64, Result<u16, NetError>) {
        let (ip, t_resolved) = match self.resolve_host(log, source, url, at, window) {
            Ok(pair) => pair,
            Err(err) => {
                self.fail(log, source, t_after_dns_failure(at), err, window);
                return (t_after_dns_failure(at), Err(err));
            }
        };
        let port = url.port();
        let address = format!("{ip}:{port}");
        self.log_clamped(
            log,
            t_resolved,
            source,
            EventType::TcpConnectAttempt,
            EventPhase::Begin,
            EventParams::Connect {
                address: address.clone(),
            },
            window,
        );
        let sni = sni(url);
        let outcome = self
            .world
            .net
            .connect(&self.world.host_env, ip, port, sni.as_deref());
        match outcome {
            ConnectOutcome::Established {
                connect_ms,
                tls_ms,
                behavior,
            } => {
                let t_conn = t_resolved + connect_ms;
                self.log_clamped(
                    log,
                    t_conn,
                    source,
                    EventType::TcpConnect,
                    EventPhase::End,
                    EventParams::Connect { address },
                    window,
                );
                let mut t = t_conn;
                if url.scheme().is_secure() {
                    t += tls_ms;
                    self.log_clamped(
                        log,
                        t,
                        source,
                        EventType::SslConnect,
                        EventPhase::None,
                        EventParams::Ssl {
                            host: url.host().to_string(),
                        },
                        window,
                    );
                }
                self.log_clamped(
                    log,
                    t,
                    source,
                    EventType::HttpTransactionSendRequest,
                    EventPhase::None,
                    EventParams::None,
                    window,
                );
                match behavior {
                    ServerBehavior::Http(resp) => {
                        let t_resp = t + self.world.net.latency().response_ms(url);
                        if let Some(location) = &resp.redirect_to {
                            self.log_clamped(
                                log,
                                t_resp,
                                source,
                                EventType::UrlRequestRedirected,
                                EventPhase::None,
                                EventParams::Redirect {
                                    location: location.clone(),
                                },
                                window,
                            );
                            if redirect_depth < 3 {
                                if let Ok(next) = Url::parse(location) {
                                    return self.drive_transaction(
                                        log,
                                        source,
                                        &next,
                                        t_resp,
                                        window,
                                        redirect_depth + 1,
                                    );
                                }
                            }
                        }
                        self.log_clamped(
                            log,
                            t_resp,
                            source,
                            EventType::HttpTransactionReadHeaders,
                            EventPhase::None,
                            EventParams::ResponseHeaders {
                                status: resp.status,
                            },
                            window,
                        );
                        self.log_clamped(
                            log,
                            t_resp,
                            source,
                            EventType::RequestAlive,
                            EventPhase::End,
                            EventParams::None,
                            window,
                        );
                        (t_resp, Ok(resp.status))
                    }
                    ServerBehavior::WebSocket => {
                        // Plain HTTP against a WebSocket-only service:
                        // the handshake is rejected.
                        let t_resp = t + 5;
                        self.log_clamped(
                            log,
                            t_resp,
                            source,
                            EventType::HttpTransactionReadHeaders,
                            EventPhase::None,
                            EventParams::ResponseHeaders { status: 400 },
                            window,
                        );
                        self.log_clamped(
                            log,
                            t_resp,
                            source,
                            EventType::RequestAlive,
                            EventPhase::End,
                            EventParams::None,
                            window,
                        );
                        (t_resp, Ok(400))
                    }
                    ServerBehavior::ResetOnRequest => {
                        let t_fail = t + 3;
                        self.fail(log, source, t_fail, NetError::ConnectionReset, window);
                        (t_fail, Err(NetError::ConnectionReset))
                    }
                    ServerBehavior::EmptyResponse => {
                        let t_fail = t + 4;
                        self.fail(log, source, t_fail, NetError::EmptyResponse, window);
                        (t_fail, Err(NetError::EmptyResponse))
                    }
                    ServerBehavior::Refused | ServerBehavior::Blackhole => {
                        unreachable!("filtered by SimNet::connect")
                    }
                }
            }
            ConnectOutcome::Refused { elapsed_ms } => {
                let t_fail = t_resolved + elapsed_ms;
                self.fail(log, source, t_fail, NetError::ConnectionRefused, window);
                (t_fail, Err(NetError::ConnectionRefused))
            }
            ConnectOutcome::TimedOut { elapsed_ms } => {
                let t_fail = t_resolved + elapsed_ms;
                if t_fail >= window {
                    // The window closes first: the flow stays in-flight
                    // (no terminal event), exactly like a real capture.
                    (window, Err(NetError::TimedOut))
                } else {
                    self.fail(log, source, t_fail, NetError::TimedOut, window);
                    (t_fail, Err(NetError::TimedOut))
                }
            }
            ConnectOutcome::CertError {
                elapsed_ms,
                verdict,
            } => {
                let err = match verdict {
                    CertVerdict::CommonNameInvalid => NetError::CertCommonNameInvalid,
                    CertVerdict::DateInvalid => NetError::CertDateInvalid,
                    CertVerdict::AuthorityInvalid => NetError::CertAuthorityInvalid,
                    CertVerdict::Ok => unreachable!("Ok is not an error"),
                };
                let t_fail = t_resolved + elapsed_ms;
                self.fail(log, source, t_fail, err, window);
                (t_fail, Err(err))
            }
            ConnectOutcome::TlsProtocolError { elapsed_ms } => {
                let t_fail = t_resolved + elapsed_ms;
                self.fail(log, source, t_fail, NetError::SslProtocolError, window);
                (t_fail, Err(NetError::SslProtocolError))
            }
        }
    }

    /// One WebSocket channel.
    fn open_websocket(&mut self, log: &mut NetLogger, url: &Url, at: u64, window: u64) {
        let source = log.new_source(SourceType::WebSocket);
        self.log_clamped(
            log,
            at,
            source,
            EventType::WebSocketSendRequestHeaders,
            EventPhase::Begin,
            EventParams::WebSocket {
                url: url.to_string(),
            },
            window,
        );
        let (ip, t_resolved) = match self.resolve_host(log, source, url, at, window) {
            Ok(pair) => pair,
            Err(err) => {
                self.fail(log, source, t_after_dns_failure(at), err, window);
                return;
            }
        };
        let port = url.port();
        let sni = sni(url);
        let outcome = self
            .world
            .net
            .connect(&self.world.host_env, ip, port, sni.as_deref());
        match outcome {
            ConnectOutcome::Established {
                connect_ms,
                tls_ms,
                behavior,
            } => {
                let t = t_resolved + connect_ms + tls_ms;
                match behavior {
                    ServerBehavior::WebSocket => {
                        self.log_clamped(
                            log,
                            t,
                            source,
                            EventType::WebSocketReadResponseHeaders,
                            EventPhase::End,
                            EventParams::WebSocket {
                                url: url.to_string(),
                            },
                            window,
                        );
                        // A short exchange: the page reads what it can
                        // (WebSockets are SOP-exempt).
                        self.log_clamped(
                            log,
                            t + 10,
                            source,
                            EventType::WebSocketSentFrame,
                            EventPhase::None,
                            EventParams::WebSocketFrame { length: 64 },
                            window,
                        );
                        self.log_clamped(
                            log,
                            t + 25,
                            source,
                            EventType::WebSocketRecvFrame,
                            EventPhase::None,
                            EventParams::WebSocketFrame { length: 256 },
                            window,
                        );
                        self.log_clamped(
                            log,
                            t + 40,
                            source,
                            EventType::SocketClosed,
                            EventPhase::None,
                            EventParams::None,
                            window,
                        );
                    }
                    _ => {
                        // An HTTP(-ish) service that does not upgrade.
                        let t_fail = t + 5;
                        self.fail(log, source, t_fail, NetError::EmptyResponse, window);
                    }
                }
            }
            ConnectOutcome::Refused { elapsed_ms } => {
                self.fail(
                    log,
                    source,
                    t_resolved + elapsed_ms,
                    NetError::ConnectionRefused,
                    window,
                );
            }
            ConnectOutcome::TimedOut { elapsed_ms } => {
                let t_fail = t_resolved + elapsed_ms;
                if t_fail < window {
                    self.fail(log, source, t_fail, NetError::TimedOut, window);
                }
            }
            ConnectOutcome::CertError { elapsed_ms, .. }
            | ConnectOutcome::TlsProtocolError { elapsed_ms } => {
                self.fail(
                    log,
                    source,
                    t_resolved + elapsed_ms,
                    NetError::SslProtocolError,
                    window,
                );
            }
        }
    }

    /// A top-level redirect of the landing page to `target`.
    fn redirect_document(
        &mut self,
        log: &mut NetLogger,
        landing: &Url,
        target: &Url,
        at: u64,
        window: u64,
    ) {
        let source = log.new_source(SourceType::UrlRequest);
        self.log_clamped(
            log,
            at,
            source,
            EventType::UrlRequestStartJob,
            EventPhase::Begin,
            EventParams::UrlRequestStart {
                url: landing.to_string(),
                method: "GET".to_string(),
                initiator: None,
                load_flags: 0,
            },
            window,
        );
        self.log_clamped(
            log,
            at,
            source,
            EventType::UrlRequestRedirected,
            EventPhase::None,
            EventParams::Redirect {
                location: target.to_string(),
            },
            window,
        );
        let _ = self.drive_transaction(log, source, target, at, window, 1);
    }

    /// Log a terminal failure, respecting the window clamp.
    fn fail(&self, log: &mut NetLogger, source: SourceRef, at: u64, err: NetError, window: u64) {
        self.log_clamped(
            log,
            at,
            source,
            EventType::FailedRequest,
            EventPhase::None,
            EventParams::Failed {
                net_error: err.code(),
            },
            window,
        );
        self.log_clamped(
            log,
            at,
            source,
            EventType::RequestAlive,
            EventPhase::End,
            EventParams::None,
            window,
        );
    }

    /// Log only if the event falls inside the observation window.
    #[allow(clippy::too_many_arguments)]
    fn log_clamped(
        &self,
        log: &mut NetLogger,
        time: u64,
        source: SourceRef,
        event_type: EventType,
        phase: EventPhase,
        params: EventParams,
        window: u64,
    ) {
        if time < window {
            log.log(time, source, event_type, phase, params);
        }
    }
}

/// DNS failures surface after a short retry dance.
fn t_after_dns_failure(at: u64) -> u64 {
    at + 60
}

#[cfg(test)]
mod tests {
    use super::*;
    use kt_netbase::{DomainName, Locality, Os, OsSet, Scheme};
    use kt_netlog::{FlowSetView, NetLogEvent};
    use kt_webgen::{Availability, Behavior, NativeApp, PlantedBehavior, WebSite};

    fn mk_site(domain: &str, https: bool) -> WebSite {
        let mut s = WebSite::plain(DomainName::parse(domain).unwrap(), Some(10), 6);
        s.https = https;
        s
    }

    fn flow_set(result: &VisitResult) -> FlowSetView<'_> {
        FlowSetView::from_events(result.capture.events.iter().map(NetLogEvent::view))
    }

    /// The per-visit hash over an already formatted label, as it was
    /// computed before labels were streamed.
    fn hash_of_formatted(seed: u64, label: &str) -> u64 {
        let mut h = seed ^ 0xb70b_5e65;
        for chunk in label.as_bytes().chunks(8) {
            let mut lane = [0u8; 8];
            lane[..chunk.len()].copy_from_slice(chunk);
            h = h
                .wrapping_add(u64::from_le_bytes(lane))
                .wrapping_mul(0xbf58_476d_1ce4_e5b9);
            h ^= h >> 29;
        }
        h
    }

    #[test]
    fn streamed_hash_equals_the_hash_of_the_formatted_label() {
        for seed in [0, 99, u64::MAX] {
            for label in ["", "a", "ice:", "ice:ünïcødé.example", "pubres:exactly8"] {
                assert_eq!(hash(seed, label), hash_of_formatted(seed, label));
            }
            // Domains of every length put the piece boundaries at every
            // lane offset.
            for n in 0..24 {
                let domain = "d".repeat(n) + ".example";
                for i in [0u8, 7, 255] {
                    assert_eq!(
                        hash(seed, format_args!("pubres:{domain}:{i}")),
                        hash_of_formatted(seed, &format!("pubres:{domain}:{i}")),
                        "{domain} {i}"
                    );
                }
            }
        }
    }

    fn visit(site: &WebSite, os: Os) -> VisitResult {
        let mut world = World::build(std::slice::from_ref(site), os, 99);
        let mut browser = Browser::new(&mut world, BrowserConfig::paper(os), 99);
        browser.visit(site)
    }

    #[test]
    fn healthy_page_loads_and_fetches_resources() {
        let site = mk_site("healthy.example", true);
        let result = visit(&site, Os::Linux);
        assert!(result.outcome.is_loaded());
        let flows = flow_set(&result);
        // Main document + 6 public resources (+ browser internal).
        assert!(flows.len() >= 7, "{} flows", flows.len());
        // No local traffic from a plain site.
        let local = flows
            .iter()
            .filter_map(|f| f.url())
            .filter_map(|u| Url::parse(u).ok())
            .filter(Url::is_local)
            .count();
        assert_eq!(local, 0);
    }

    #[test]
    fn nxdomain_page_fails_with_name_not_resolved() {
        let mut site = mk_site("gone.example", false);
        site.set_availability_all(Availability::NxDomain);
        let result = visit(&site, Os::Windows);
        assert_eq!(
            result.outcome,
            PageLoadOutcome::Failed(NetError::NameNotResolved)
        );
        // And the capture records the DNS failure.
        let flows = flow_set(&result);
        let failed = flows.iter().any(|f| {
            matches!(
                f.outcome(),
                kt_netlog::FlowOutcome::Failed(NetError::NameNotResolved)
            )
        });
        assert!(failed);
    }

    #[test]
    fn cert_invalid_page_fails_with_cert_error() {
        let mut site = mk_site("badcert.example", true);
        site.set_availability_all(Availability::CertInvalid);
        let result = visit(&site, Os::MacOs);
        assert_eq!(
            result.outcome,
            PageLoadOutcome::Failed(NetError::CertCommonNameInvalid)
        );
    }

    #[test]
    fn threatmetrix_site_scans_localhost_on_windows_only() {
        let mut site = mk_site("bigshop.example", true);
        site.behaviors.push(PlantedBehavior {
            behavior: Behavior::ThreatMetrix {
                vendor: DomainName::parse("bigshop-metrics.example").unwrap(),
            },
            os_set: OsSet::WINDOWS_ONLY,
            base_delay_ms: 9_000,
        });
        let win = visit(&site, Os::Windows);
        let flows = flow_set(&win);
        let local_ws: Vec<u16> = flows
            .iter()
            .filter(|f| f.is_websocket())
            .filter_map(|f| f.url())
            .filter_map(|u| Url::parse(u).ok())
            .filter(Url::is_local)
            .map(|u| u.port())
            .collect();
        assert_eq!(local_ws.len(), 14, "the 14 ThreatMetrix ports");
        assert!(local_ws.contains(&3389));

        let linux = visit(&site, Os::Linux);
        let flows = flow_set(&linux);
        let local = flows
            .iter()
            .filter_map(|f| f.url())
            .filter_map(|u| Url::parse(u).ok())
            .filter(Url::is_local)
            .count();
        assert_eq!(local, 0, "no scan on Linux");
    }

    #[test]
    fn local_requests_carry_timestamps_after_page_load() {
        let mut site = mk_site("faceit-like.example", true);
        site.behaviors.push(PlantedBehavior {
            behavior: Behavior::NativeApp(NativeApp::Faceit),
            os_set: OsSet::ALL,
            base_delay_ms: 4_000,
        });
        let result = visit(&site, Os::Linux);
        let load_at = match result.outcome {
            PageLoadOutcome::Loaded { at_ms } => at_ms,
            other => panic!("{other:?}"),
        };
        let flows = flow_set(&result);
        let ws_flow = flows
            .iter()
            .find(|f| f.is_websocket())
            .expect("faceit probe");
        assert!(ws_flow.start_time() >= load_at + 4_000);
        assert!(ws_flow.start_time() < 20_000);
    }

    #[test]
    fn requests_beyond_window_are_not_issued() {
        let mut site = mk_site("late.example", true);
        site.behaviors.push(PlantedBehavior {
            behavior: Behavior::NativeApp(NativeApp::Faceit),
            os_set: OsSet::ALL,
            base_delay_ms: 25_000, // past the 20 s window
        });
        let result = visit(&site, Os::Linux);
        let flows = flow_set(&result);
        assert!(!flows.iter().any(|f| f.is_websocket()));
        // And no event exceeds the window.
        let max_t = flows.iter().map(|f| f.end_time()).max().unwrap_or(0);
        assert!(max_t < 20_000);
    }

    #[test]
    fn redirect_to_loopback_is_recorded_on_the_flow() {
        use kt_webgen::DevError;
        let mut site = mk_site("redirecting.example", false);
        site.behaviors.push(PlantedBehavior {
            behavior: Behavior::DevError(DevError::RedirectToLoopback),
            os_set: OsSet::ALL,
            base_delay_ms: 1_000,
        });
        let result = visit(&site, Os::Windows);
        let flows = flow_set(&result);
        let redirected = flows
            .iter()
            .find(|f| f.redirects().next().is_some())
            .expect("redirect flow");
        assert_eq!(
            redirected.redirects().collect::<Vec<_>>(),
            vec!["http://127.0.0.1/"]
        );
    }

    #[test]
    fn lan_blackhole_request_is_logged_but_unterminated() {
        use kt_webgen::DevError;
        let mut site = mk_site("lanfetch.example", false);
        site.behaviors.push(PlantedBehavior {
            behavior: Behavior::DevError(DevError::LanResource {
                ip: std::net::Ipv4Addr::new(10, 193, 31, 212),
                scheme: Scheme::Http,
                port: 80,
                path: "/system/files/2020-06/banner.png".into(),
            }),
            os_set: OsSet::ALL,
            base_delay_ms: 1_500,
        });
        let result = visit(&site, Os::Linux);
        let flows = flow_set(&result);
        let lan_flow = flows
            .iter()
            .find(|f| {
                f.url()
                    .and_then(|u| Url::parse(u).ok())
                    .is_some_and(|u| u.locality() == Locality::Private)
            })
            .expect("LAN request must be visible in telemetry");
        // No response ever arrives: the flow is in-flight at window end.
        assert_eq!(lan_flow.outcome(), kt_netlog::FlowOutcome::InFlight);
    }

    #[test]
    fn browser_internal_source_present_and_filterable() {
        let site = mk_site("any.example", true);
        let result = visit(&site, Os::Linux);
        let flows = flow_set(&result);
        let internal = flows
            .iter()
            .filter(|f| f.source.kind == SourceType::BrowserInternal)
            .count();
        assert_eq!(internal, 1);
        assert!(flows.page_flows().count() < flows.len());
    }

    #[test]
    fn pna_enforcement_blocks_insecure_local_fetches() {
        use crate::config::PnaMode;
        use kt_webgen::DevError;
        let mut site = mk_site("devsite.example", false); // http page
        site.behaviors.push(PlantedBehavior {
            behavior: Behavior::DevError(DevError::LiveReload {
                scheme: Scheme::Http,
                port: 35729,
            }),
            os_set: OsSet::ALL,
            base_delay_ms: 1_000,
        });
        let mut world = World::build(std::slice::from_ref(&site), Os::Linux, 5);
        let mut config = BrowserConfig::paper(Os::Linux);
        config.pna = PnaMode::EnforceNoOptIn;
        let mut browser = Browser::new(&mut world, config, 5);
        let result = browser.visit(&site);
        let flows = flow_set(&result);
        let local_flow = flows
            .iter()
            .find(|f| {
                f.url()
                    .and_then(|u| Url::parse(u).ok())
                    .is_some_and(|u| u.is_local())
            })
            .expect("blocked attempt still appears in telemetry");
        assert_eq!(
            local_flow.outcome(),
            kt_netlog::FlowOutcome::Failed(NetError::Aborted)
        );
        // And no socket work happened for it.
        assert!(!local_flow
            .events()
            .any(|e| e.event_type == EventType::TcpConnectAttempt));
    }

    #[test]
    fn pna_native_opt_in_preserves_app_probes_on_secure_pages() {
        use crate::config::PnaMode;
        let mut site = mk_site("invite.example", true); // https page
        site.behaviors.push(PlantedBehavior {
            behavior: Behavior::NativeApp(NativeApp::Faceit),
            os_set: OsSet::ALL,
            base_delay_ms: 1_000,
        });
        let run = |mode: PnaMode| {
            let mut world = World::build(std::slice::from_ref(&site), Os::Linux, 5);
            let mut config = BrowserConfig::paper(Os::Linux);
            config.pna = mode;
            let mut browser = Browser::new(&mut world, config, 5);
            let result = browser.visit(&site);
            let flows = flow_set(&result);
            flows
                .iter()
                .filter(|f| {
                    f.url()
                        .and_then(|u| Url::parse(u).ok())
                        .is_some_and(|u| u.is_local())
                })
                .map(|f| f.outcome())
                .collect::<Vec<_>>()
        };
        // Native opt-in: the FACEIT ws probe proceeds.
        let outcomes = run(PnaMode::EnforceNativeOptIn);
        assert!(outcomes
            .iter()
            .all(|o| *o != kt_netlog::FlowOutcome::Failed(NetError::Aborted)));
        // No opt-in: it is aborted.
        let outcomes = run(PnaMode::EnforceNoOptIn);
        assert!(outcomes
            .iter()
            .all(|o| *o == kt_netlog::FlowOutcome::Failed(NetError::Aborted)));
    }

    fn visit_faulted(site: &WebSite, os: Os, faults: VisitFaults) -> VisitResult {
        let mut world = World::build(std::slice::from_ref(site), os, 99);
        let mut browser = Browser::new(&mut world, BrowserConfig::paper(os), 99);
        browser.visit_faulted(site, &faults)
    }

    #[test]
    fn injected_dns_flap_fails_transiently() {
        let site = mk_site("healthy.example", true);
        let result = visit_faulted(
            &site,
            Os::Linux,
            VisitFaults {
                dns_flap: true,
                ..VisitFaults::NONE
            },
        );
        assert_eq!(result.outcome, PageLoadOutcome::Failed(NetError::TimedOut));
        // The failed resolution is visible in telemetry.
        assert!(result
            .capture
            .events
            .iter()
            .any(|e| e.event_type == EventType::HostResolverImplJob));
    }

    #[test]
    fn injected_reset_kills_a_loaded_page() {
        let site = mk_site("healthy.example", true);
        let result = visit_faulted(
            &site,
            Os::Linux,
            VisitFaults {
                connection_reset: true,
                ..VisitFaults::NONE
            },
        );
        assert_eq!(
            result.outcome,
            PageLoadOutcome::Failed(NetError::ConnectionReset)
        );
        // The page never ran: no public-resource fetches.
        let clean = visit_faulted(&site, Os::Linux, VisitFaults::NONE);
        assert!(result.capture.events.len() < clean.capture.events.len());
    }

    #[test]
    fn injected_panic_throws_a_salvageable_prefix() {
        let site = mk_site("crashy.example", true);
        let payload = std::panic::catch_unwind(|| {
            visit_faulted(
                &site,
                Os::Linux,
                VisitFaults {
                    panic: true,
                    ..VisitFaults::NONE
                },
            )
        })
        .expect_err("the visit must panic");
        let salvaged = payload
            .downcast::<SalvagedVisit>()
            .expect("payload carries the capture prefix");
        assert_eq!(salvaged.domain, "crashy.example");
        assert!(!salvaged.events.is_empty(), "landing-flow prefix salvaged");
    }

    #[test]
    fn truncated_capture_keeps_outcome_but_loses_tail() {
        let site = mk_site("healthy.example", true);
        let clean = visit_faulted(&site, Os::Linux, VisitFaults::NONE);
        let cut = visit_faulted(
            &site,
            Os::Linux,
            VisitFaults {
                truncate_capture: true,
                ..VisitFaults::NONE
            },
        );
        assert!(cut.outcome.is_loaded());
        assert!(cut.capture.events.len() < clean.capture.events.len());
        // And the prefix property holds: truncated events are a prefix
        // of the clean capture's events.
        assert_eq!(
            cut.capture.events[..],
            clean.capture.events[..cut.capture.events.len()]
        );
    }

    fn visit_profiled(site: &WebSite, profile: kt_webgen::CrawlerProfile) -> VisitResult {
        let mut world = World::build(std::slice::from_ref(site), Os::Linux, 99);
        let mut config = BrowserConfig::paper(Os::Linux);
        config.profile = profile;
        let mut browser = Browser::new(&mut world, config, 99);
        browser.visit(site)
    }

    fn local_flow_count(result: &VisitResult) -> usize {
        flow_set(result)
            .iter()
            .filter_map(|f| f.url())
            .filter_map(|u| Url::parse(u).ok())
            .filter(Url::is_local)
            .count()
    }

    fn probing_site(archetype: kt_webgen::SensorArchetype) -> WebSite {
        let mut site = mk_site("sentry.example", true);
        site.behaviors.push(PlantedBehavior {
            behavior: Behavior::NativeApp(NativeApp::Faceit),
            os_set: OsSet::ALL,
            base_delay_ms: 2_000,
        });
        site.sensor = Some(kt_webgen::BotSensor { archetype });
        site
    }

    #[test]
    fn navigator_probe_suppresses_local_behavior_for_detected_crawlers() {
        use kt_webgen::{CrawlerProfile, SensorArchetype};
        let site = probing_site(SensorArchetype::NavigatorProbe);
        // Naive is always detected: the probing script is never served.
        let naive = visit_profiled(&site, CrawlerProfile::Naive);
        assert!(naive.outcome.is_loaded(), "the page itself still loads");
        assert_eq!(local_flow_count(&naive), 0, "local probe suppressed");
        // Human replay is never detected: the probe runs.
        let human = visit_profiled(&site, CrawlerProfile::HumanReplay);
        assert!(local_flow_count(&human) > 0, "probe visible to a human");
    }

    #[test]
    fn headless_trap_delays_behavior_past_the_window() {
        use kt_webgen::{CrawlerProfile, SensorArchetype};
        let site = probing_site(SensorArchetype::HeadlessTrap);
        let naive = visit_profiled(&site, CrawlerProfile::Naive);
        // Delayed past 20 s: never issued, and no event leaks past the
        // window either.
        assert_eq!(local_flow_count(&naive), 0);
        assert!(naive.capture.events.iter().all(|e| e.time < 20_000));
        let human = visit_profiled(&site, CrawlerProfile::HumanReplay);
        assert!(local_flow_count(&human) > 0);
    }

    #[test]
    fn bigip_challenge_swaps_the_page_for_an_interstitial() {
        use kt_webgen::{CrawlerProfile, SensorArchetype};
        let site = probing_site(SensorArchetype::BigIpChallenge);
        let naive = visit_profiled(&site, CrawlerProfile::Naive);
        assert_eq!(local_flow_count(&naive), 0, "real page never runs");
        let flows = flow_set(&naive);
        assert!(
            flows
                .iter()
                .filter_map(|f| f.url())
                .any(|u| u.contains("/TSPD/")),
            "challenge interstitial fetched"
        );
        let human = visit_profiled(&site, CrawlerProfile::HumanReplay);
        assert!(local_flow_count(&human) > 0, "humans get the real page");
    }

    #[test]
    fn webrtc_probe_gathers_ice_candidates_for_every_profile() {
        use kt_webgen::{BotSensor, CrawlerProfile, SensorArchetype};
        let mut site = mk_site("rtc.example", true);
        site.sensor = Some(BotSensor {
            archetype: SensorArchetype::WebRtcProbe,
        });
        let ice_addresses = |profile| {
            let result = visit_profiled(&site, profile);
            let flows = flow_set(&result);
            flows
                .iter()
                .flat_map(|f| {
                    f.ice_candidates()
                        .map(|(a, t)| (a.to_string(), t.to_string()))
                        .collect::<Vec<_>>()
                })
                .collect::<Vec<_>>()
        };
        // Detected crawler: the host candidate is mDNS-obfuscated.
        let naive = ice_addresses(CrawlerProfile::Naive);
        assert_eq!(naive.len(), 2, "host + srflx candidates");
        assert!(naive[0].0.contains(".local:"), "{:?}", naive[0]);
        assert_eq!(naive[0].1, "host");
        assert_eq!(naive[1].1, "srflx");
        // Undetected visitor: the raw private address leaks.
        let human = ice_addresses(CrawlerProfile::HumanReplay);
        assert_eq!(human.len(), 2);
        assert!(human[0].0.starts_with("192.168."), "{:?}", human[0]);
    }

    #[test]
    fn unsensored_sites_ignore_the_profile_entirely() {
        use kt_webgen::CrawlerProfile;
        let mut site = mk_site("plain.example", true);
        site.behaviors.push(PlantedBehavior {
            behavior: Behavior::NativeApp(NativeApp::Discord),
            os_set: OsSet::ALL,
            base_delay_ms: 2_000,
        });
        let naive = visit_profiled(&site, CrawlerProfile::Naive);
        let stealth = visit_profiled(&site, CrawlerProfile::Stealth);
        assert_eq!(naive.capture.events, stealth.capture.events);
    }

    #[test]
    fn visits_are_deterministic() {
        let mut site = mk_site("det.example", true);
        site.behaviors.push(PlantedBehavior {
            behavior: Behavior::NativeApp(NativeApp::Discord),
            os_set: OsSet::ALL,
            base_delay_ms: 2_000,
        });
        let a = visit(&site, Os::MacOs);
        let b = visit(&site, Os::MacOs);
        assert_eq!(a.capture.events, b.capture.events);
    }
}
