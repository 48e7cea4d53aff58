//! The scan engine: pure parallel knock computation, then a serial
//! deterministic fold.
//!
//! Worker-count invariance is structural, not statistical. Phase 1
//! computes every knock as a pure function of `(seed, target identity,
//! attempt)` — fault draws and backoff jitter hash the identity string,
//! never a worker id or a wall clock — so the phase can run on any
//! number of threads and produce the same values. Phase 2 folds the
//! precomputed knocks serially, in target order, over a virtual clock:
//! circuit breakers and the deadline budget live here, where there is
//! no concurrency to perturb them. `workers` therefore changes wall
//! time only; the [`ScanReport`] is byte-identical by construction.

use std::collections::BTreeMap;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

use kt_faults::{Fault, FaultPlan, RetryPolicy};
use kt_netbase::services::{BIGIP_PORTS, DISCORD_PORTS, THREATMETRIX_PORTS};
use kt_netbase::Locality;
use kt_simnet::rng;
use kt_simnet::{ConnectOutcome, HostEnv, ServerBehavior, SimNet};
use kt_trace::par_indexed;

use crate::breaker::{BreakerConfig, CircuitBreaker};
use crate::probe::{
    AttemptOutcome, AttemptRecord, KnockReport, Payload, PortState, ProbeTarget, Protocol,
    TransientKind,
};
use crate::report::{ScanReport, SequenceResult};

/// Everything a scan needs, in one seeded value.
#[derive(Debug, Clone)]
pub struct ScanConfig {
    /// Campaign seed: keys every fault draw and every jitter draw.
    pub seed: u64,
    /// Loopback ports to knock.
    pub ports: Vec<u16>,
    /// Also send UDP knocks to every target.
    pub udp: bool,
    /// Also knock `[::1]` (dual-stack loopback sweep).
    pub ipv6: bool,
    /// Sweep the common LAN device addresses too.
    pub lan: bool,
    /// Knock sequences (ordered port lists, knock-rs style): each is
    /// matched only if every knock lands in order.
    pub sequences: Vec<Vec<u16>>,
    /// Optional hex payload carried by each knock.
    pub payload: Option<Payload>,
    /// Physical probe workers for the pure phase. Affects wall time
    /// only — results are identical for any value ≥ 1.
    pub workers: usize,
    /// Per-knock timeout, simulated ms.
    pub timeout_ms: u64,
    /// Retry policy for transient knock failures — the same type the
    /// crawl supervisor uses, so backoff schedules agree by property
    /// test.
    pub retry: RetryPolicy,
    /// Per-host circuit-breaker tuning.
    pub breaker: BreakerConfig,
    /// Total scan budget, simulated ms: targets that would start after
    /// this deadline are reported in `unprobed` instead of probed.
    pub deadline_ms: u64,
    /// The fault plan every knock flows through.
    pub faults: FaultPlan,
}

impl ScanConfig {
    /// A production-shaped default scan: the paper's known port
    /// families plus the common local-service ports, TCP-only, v4
    /// loopback + LAN, three attempts per knock, 1 s per-knock timeout,
    /// 10-minute budget, no faults.
    pub fn new(seed: u64) -> ScanConfig {
        ScanConfig {
            seed,
            ports: default_port_set(),
            udp: false,
            ipv6: false,
            lan: true,
            sequences: Vec::new(),
            payload: None,
            workers: 4,
            timeout_ms: 1_000,
            retry: RetryPolicy {
                max_attempts: 3,
                base_backoff_ms: 100,
                max_backoff_ms: 2_000,
                recrawl: false,
            },
            breaker: BreakerConfig::default(),
            deadline_ms: 600_000,
            faults: FaultPlan::none(seed),
        }
    }
}

/// The default loopback sweep: every port the paper's detected
/// scanners knock (ThreatMetrix WebSockets, BIG-IP ASM HTTP, Discord's
/// RPC range) plus the local services the host model can run.
pub fn default_port_set() -> Vec<u16> {
    let mut ports: Vec<u16> = THREATMETRIX_PORTS
        .iter()
        .chain(BIGIP_PORTS.iter())
        .chain(DISCORD_PORTS.iter())
        .copied()
        // HostEnv's sampled services: dev server, RDP, VNC, TeamViewer,
        // X11, plus the LAN-ish 8080.
        .chain([3000, 3389, 5900, 5939, 6039, 8080])
        .collect();
    ports.sort_unstable();
    ports.dedup();
    ports
}

/// LAN addresses the sweep visits when `lan` is set: the three slots
/// the host model can populate plus one address nothing ever occupies
/// (so every scan exercises the black-hole → breaker path).
const LAN_ADDRS: [Ipv4Addr; 4] = [
    Ipv4Addr::new(192, 168, 0, 1),
    Ipv4Addr::new(192, 168, 0, 20),
    Ipv4Addr::new(192, 168, 0, 64),
    Ipv4Addr::new(192, 168, 0, 254),
];

/// Ports knocked on each LAN address: the admin-HTTP ports devices
/// actually bind plus TR-069. Four per host, so a threshold-3 breaker
/// trips on a dead host with one port still unknocked.
const LAN_PORTS: [u16; 4] = [80, 443, 7547, 8080];

/// Build the sorted, deduplicated target list for a config.
pub fn build_targets(cfg: &ScanConfig) -> Vec<ProbeTarget> {
    let mut targets = Vec::new();
    let mut stacks: Vec<IpAddr> = vec![IpAddr::V4(Ipv4Addr::LOCALHOST)];
    if cfg.ipv6 {
        stacks.push(IpAddr::V6(Ipv6Addr::LOCALHOST));
    }
    for addr in &stacks {
        for &port in &cfg.ports {
            targets.push(ProbeTarget::tcp(*addr, port));
            if cfg.udp {
                targets.push(ProbeTarget::udp(*addr, port));
            }
        }
    }
    if cfg.lan {
        for addr in LAN_ADDRS {
            for port in LAN_PORTS {
                targets.push(ProbeTarget::tcp(IpAddr::V4(addr), port));
                if cfg.udp {
                    targets.push(ProbeTarget::udp(IpAddr::V4(addr), port));
                }
            }
        }
    }
    targets.sort_unstable();
    targets.dedup();
    targets
}

/// What one knock's fabric consultation found, before fault overlay.
enum BaseOutcome {
    Answered { elapsed_ms: u64 },
    Refused { elapsed_ms: u64 },
    Silent,
}

/// Consult the simulated fabric for the target's true behaviour.
fn base_outcome(env: &HostEnv, net: &SimNet, target: &ProbeTarget) -> BaseOutcome {
    match target.protocol {
        Protocol::Tcp => match net.connect(env, target.addr, target.port, None) {
            ConnectOutcome::Established { connect_ms, .. } => BaseOutcome::Answered {
                elapsed_ms: connect_ms,
            },
            ConnectOutcome::Refused { elapsed_ms } => BaseOutcome::Refused { elapsed_ms },
            // The fabric's own 30 s connect timeout is longer than any
            // sane per-knock timeout; the scanner's clock governs.
            ConnectOutcome::TimedOut { .. } => BaseOutcome::Silent,
            // Unreachable for plaintext knocks (no TLS requested), but
            // a knock must never panic on a surprising fabric answer.
            ConnectOutcome::CertError { .. } | ConnectOutcome::TlsProtocolError { .. } => {
                BaseOutcome::Silent
            }
        },
        Protocol::Udp => {
            // UDP has no handshake: the endpoint tables decide whether
            // a datagram is answered (listener), rejected with ICMP
            // port-unreachable (loopback, no listener), or swallowed
            // (empty LAN slot).
            let locality = Locality::of_ip(target.addr);
            let behavior = match (locality, target.addr) {
                (Locality::Loopback, _) => &env.localhost_endpoint(target.port).behavior,
                (Locality::Private, IpAddr::V4(v4)) => &env.lan_endpoint(v4, target.port).behavior,
                _ => &ServerBehavior::Blackhole,
            };
            let (addr, port) = (target.addr, target.port);
            match behavior {
                ServerBehavior::Refused => BaseOutcome::Refused {
                    elapsed_ms: net
                        .latency()
                        .refused_ms(locality, format_args!("udp/{addr}:{port}")),
                },
                ServerBehavior::Blackhole => BaseOutcome::Silent,
                _ => BaseOutcome::Answered {
                    elapsed_ms: net
                        .latency()
                        .connect_ms(locality, format_args!("udp/{addr}:{port}")),
                },
            }
        }
    }
}

/// One knock attempt with the fault plan overlaid. Pure in
/// `(seed, id, attempt)`: every random draw hashes the identity.
fn knock_once(
    env: &HostEnv,
    net: &SimNet,
    cfg: &ScanConfig,
    target: &ProbeTarget,
    id: &str,
    attempt: u32,
) -> AttemptRecord {
    let plan = &cfg.faults;
    // Loopback knocks address `localhost` by name; a flapping stub
    // resolver fails the attempt before a packet leaves the machine.
    if target.addr.is_loopback() && plan.injects(Fault::DnsFlap, id, attempt) {
        return AttemptRecord {
            outcome: AttemptOutcome::Transient(TransientKind::DnsFlap),
            elapsed_ms: net.latency().dns_ms("localhost"),
        };
    }
    // The knock packet itself vanishes: indistinguishable from a black
    // hole, charged at the full per-knock timeout.
    if plan.injects(Fault::ProbeDrop, id, attempt) {
        return AttemptRecord {
            outcome: AttemptOutcome::Transient(TransientKind::Timeout),
            elapsed_ms: cfg.timeout_ms,
        };
    }
    // Path delay: added latency, possibly past the timeout.
    let delay_ms = if plan.injects(Fault::ProbeDelay, id, attempt) {
        rng::range(
            cfg.seed,
            format_args!("probe-delay/{id}/{attempt}"),
            25.0,
            cfg.timeout_ms as f64 * 1.5,
        ) as u64
    } else {
        0
    };
    let timed = |elapsed_ms: u64, outcome: AttemptOutcome| {
        let total = elapsed_ms + delay_ms;
        if total >= cfg.timeout_ms {
            AttemptRecord {
                outcome: AttemptOutcome::Transient(TransientKind::Timeout),
                elapsed_ms: cfg.timeout_ms,
            }
        } else {
            AttemptRecord {
                outcome,
                elapsed_ms: total,
            }
        }
    };
    match base_outcome(env, net, target) {
        BaseOutcome::Answered { elapsed_ms } => {
            if plan.injects(Fault::ConnectionReset, id, attempt) {
                return timed(elapsed_ms, AttemptOutcome::Transient(TransientKind::Reset));
            }
            if plan.injects(Fault::TruncatedCapture, id, attempt) {
                return timed(
                    elapsed_ms,
                    AttemptOutcome::Transient(TransientKind::Truncated),
                );
            }
            timed(elapsed_ms, AttemptOutcome::Definitive(PortState::Open))
        }
        BaseOutcome::Refused { elapsed_ms } => {
            timed(elapsed_ms, AttemptOutcome::Definitive(PortState::Closed))
        }
        BaseOutcome::Silent => AttemptRecord {
            outcome: AttemptOutcome::Transient(TransientKind::Timeout),
            elapsed_ms: cfg.timeout_ms,
        },
    }
}

/// The listener / device name behind an open port, if the host model
/// knows one.
fn service_name(env: &HostEnv, target: &ProbeTarget) -> Option<String> {
    match (Locality::of_ip(target.addr), target.addr) {
        (Locality::Loopback, _) => env
            .listeners()
            .find(|l| l.port == target.port)
            .map(|l| l.name.clone()),
        (Locality::Private, IpAddr::V4(v4)) => env
            .lan_devices()
            .find(|d| d.address == v4 && d.port == target.port)
            .map(|d| d.kind.clone()),
        _ => None,
    }
}

/// The full retry loop for one target under identity `id`. Pure: the
/// same `(env, net, cfg, target, id)` always produces the same record.
fn knock(
    env: &HostEnv,
    net: &SimNet,
    cfg: &ScanConfig,
    target: &ProbeTarget,
    id: &str,
) -> KnockReport {
    let max_attempts = cfg.retry.max_attempts.max(1);
    let mut attempts = Vec::new();
    let mut knock_ms: u64 = 0;
    for attempt in 1..=max_attempts {
        let rec = knock_once(env, net, cfg, target, id, attempt);
        knock_ms += rec.elapsed_ms;
        let definitive = rec.outcome.is_definitive();
        attempts.push(rec);
        if definitive {
            break;
        }
        if attempt < max_attempts {
            knock_ms += cfg.retry.backoff_ms(cfg.seed, id, attempt);
        }
    }
    let state = match attempts.last().expect("≥1 attempt").outcome {
        AttemptOutcome::Definitive(s) => s,
        AttemptOutcome::Transient(_) => PortState::Filtered,
    };
    let service = if state == PortState::Open {
        service_name(env, target)
    } else {
        None
    };
    KnockReport {
        target: *target,
        service,
        state,
        attempts,
        knock_ms,
    }
}

/// Run a full scan: sweep + sequences, breakers, deadline budget.
/// Never panics, never hangs; a scan that runs out of budget returns a
/// partial report with an explicit `unprobed` set.
pub fn run_scan(env: &HostEnv, net: &SimNet, cfg: &ScanConfig) -> ScanReport {
    let targets = build_targets(cfg);

    // ---- Phase 1: pure parallel knock computation. -------------------
    let mut jobs: Vec<(ProbeTarget, String)> = targets.iter().map(|t| (*t, t.identity())).collect();
    // Sequence steps are independent knocks with their own identities:
    // step j of sequence i draws its own faults and jitter even when
    // the same port also appears in the sweep.
    let loopback = IpAddr::V4(Ipv4Addr::LOCALHOST);
    let mut seq_job_index = Vec::new();
    for (si, seq) in cfg.sequences.iter().enumerate() {
        let mut steps = Vec::new();
        for (pi, &port) in seq.iter().enumerate() {
            let target = ProbeTarget::tcp(loopback, port);
            steps.push(jobs.len());
            jobs.push((target, format!("seq{si}/step{pi}/{}", target.identity())));
        }
        seq_job_index.push(steps);
    }
    // The job list and output order are fixed; threads race only over
    // *which* pure computation they pick up next, never over any value.
    let (raw, _) = par_indexed(
        jobs.len(),
        cfg.workers,
        |_| (),
        |_, i| knock(env, net, cfg, &jobs[i].0, &jobs[i].1),
    );

    // ---- Phase 2: serial deterministic fold. -------------------------
    let mut clock: u64 = 0;
    let mut breakers: BTreeMap<IpAddr, CircuitBreaker> = BTreeMap::new();
    let mut results = Vec::new();
    let mut skipped = Vec::new();
    let mut unprobed = Vec::new();
    for (i, target) in targets.iter().enumerate() {
        if clock >= cfg.deadline_ms {
            unprobed.push(target.identity());
            continue;
        }
        let breaker = breakers
            .entry(target.addr)
            .or_insert_with(|| CircuitBreaker::new(cfg.breaker));
        if !breaker.admit(clock) {
            skipped.push(target.identity());
            continue;
        }
        let report = raw[i].clone();
        clock += report.knock_ms;
        if report.state.is_definitive() {
            breaker.record_success();
        } else {
            breaker.record_failure(clock);
        }
        results.push(report);
    }
    let breaker_trips: u64 = breakers.values().map(|b| b.trips()).sum();

    // Sequences run after the sweep, on the same clock and budget.
    // Breakers do not apply: a sequence is explicit operator intent,
    // and skipping a step would void the order-match anyway.
    let mut sequences = Vec::new();
    for (si, seq) in cfg.sequences.iter().enumerate() {
        let mut states = Vec::new();
        let mut complete = true;
        for &job in &seq_job_index[si] {
            if clock >= cfg.deadline_ms {
                complete = false;
                break;
            }
            let step = &raw[job];
            clock += step.knock_ms;
            states.push(step.state);
        }
        // knock-rs port-order matching: the sequence matches only if
        // every knock was delivered, in order — a definitive answer
        // (accept or RST) proves delivery; a drop breaks the chain.
        let matched = complete && !states.is_empty() && states.iter().all(|s| s.is_definitive());
        sequences.push(SequenceResult {
            ports: seq.clone(),
            states,
            matched,
            complete,
        });
    }

    ScanReport {
        seed: cfg.seed,
        os: env.os,
        targets_total: targets.len(),
        results,
        skipped,
        unprobed,
        sequences,
        breaker_trips,
        virtual_elapsed_ms: clock,
        deadline_ms: cfg.deadline_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kt_simnet::Os;

    fn world(seed: u64) -> (HostEnv, SimNet) {
        (HostEnv::sampled(Os::Windows, seed), SimNet::new(seed))
    }

    fn storm(seed: u64, rate: f64) -> FaultPlan {
        FaultPlan::none(seed)
            .with_rate(Fault::ProbeDrop, rate)
            .with_rate(Fault::ProbeDelay, rate)
            .with_rate(Fault::ConnectionReset, rate)
            .with_rate(Fault::DnsFlap, rate)
            .with_rate(Fault::TruncatedCapture, rate)
    }

    #[test]
    fn clean_scan_finds_exactly_the_listening_services() {
        // Seed 3 ^ 'W' gives Windows RDP+Discord in the sampled env —
        // assert against the env itself rather than hard-coding.
        let (env, net) = world(3);
        let cfg = ScanConfig::new(3);
        let report = run_scan(&env, &net, &cfg);
        let mut open: Vec<u16> = report
            .results
            .iter()
            .filter(|r| r.state == PortState::Open && r.target.addr.is_loopback())
            .map(|r| r.target.port)
            .collect();
        open.sort_unstable();
        let mut listening: Vec<u16> = env
            .listeners()
            .filter(|l| cfg.ports.contains(&l.port))
            .map(|l| l.port)
            .collect();
        listening.sort_unstable();
        assert_eq!(open, listening, "active scan = ground truth, no faults");
        assert!(report.unprobed.is_empty(), "budget is ample");
        // Open ports carry their service names.
        for r in report.results.iter().filter(|r| r.state == PortState::Open) {
            if r.target.addr.is_loopback() {
                assert!(
                    r.service.is_some(),
                    "{} open but unnamed",
                    r.target.identity()
                );
            }
        }
    }

    #[test]
    fn udp_and_ipv6_targets_probe_both_stacks() {
        let (env, net) = world(3);
        let mut cfg = ScanConfig::new(3);
        cfg.udp = true;
        cfg.ipv6 = true;
        let report = run_scan(&env, &net, &cfg);
        let ids: Vec<String> = report.results.iter().map(|r| r.target.identity()).collect();
        assert!(ids.iter().any(|i| i.starts_with("udp/127.0.0.1:")));
        assert!(ids.iter().any(|i| i.starts_with("tcp/::1:")));
        assert!(ids.iter().any(|i| i.starts_with("udp/::1:")));
        // The two loopback stacks agree port-by-port (same listener
        // table behind both).
        for r in &report.results {
            if r.target.addr == IpAddr::V6(Ipv6Addr::LOCALHOST) {
                let v4 = report.results.iter().find(|o| {
                    o.target.addr == IpAddr::V4(Ipv4Addr::LOCALHOST)
                        && o.target.port == r.target.port
                        && o.target.protocol == r.target.protocol
                });
                if let Some(v4) = v4 {
                    assert_eq!(
                        v4.state, r.state,
                        "dual-stack disagreement on {}",
                        r.target.port
                    );
                }
            }
        }
    }

    #[test]
    fn dead_lan_hosts_trip_breakers_and_skip_knocks() {
        let (env, net) = world(3);
        let cfg = ScanConfig::new(3);
        let report = run_scan(&env, &net, &cfg);
        // 192.168.0.254 never hosts a device: four black-holed ports,
        // threshold 3 ⇒ the breaker trips before the fourth knock.
        assert!(report.breaker_trips >= 1, "dead host must trip its breaker");
        assert!(
            report.skipped.iter().any(|s| s.contains("192.168.0.254")),
            "tripped breaker must skip the host's remaining knocks: {:?}",
            report.skipped
        );
    }

    #[test]
    fn deadline_budget_degrades_to_explicit_unprobed_set() {
        let (env, net) = world(3);
        let mut cfg = ScanConfig::new(3);
        cfg.deadline_ms = 40; // a few knocks at most
        let report = run_scan(&env, &net, &cfg);
        assert!(
            !report.unprobed.is_empty(),
            "tight budget must leave targets unprobed"
        );
        assert_eq!(
            report.results.len() + report.skipped.len() + report.unprobed.len(),
            report.targets_total,
            "every target accounted for exactly once"
        );
        // The unprobed set is the tail of the target order: the scan
        // degraded by truncation, not by sampling.
        let all_ids: Vec<String> = build_targets(&cfg).iter().map(|t| t.identity()).collect();
        assert_eq!(
            report.unprobed.as_slice(),
            &all_ids[all_ids.len() - report.unprobed.len()..]
        );
    }

    #[test]
    fn fault_storm_always_terminates_with_full_accounting() {
        for seed in 0..8u64 {
            let (env, net) = world(seed);
            let mut cfg = ScanConfig::new(seed);
            cfg.faults = storm(seed, 0.20);
            cfg.udp = true;
            cfg.ipv6 = true;
            cfg.sequences = vec![vec![7000, 8000, 9000]];
            let report = run_scan(&env, &net, &cfg);
            assert_eq!(
                report.results.len() + report.skipped.len() + report.unprobed.len(),
                report.targets_total,
                "seed {seed}: results+skipped+unprobed must cover all targets"
            );
            assert!(report.virtual_elapsed_ms > 0);
        }
    }

    #[test]
    fn retries_and_backoff_follow_the_shared_policy_exactly() {
        // A fully dropped target burns max_attempts timeouts plus the
        // policy's exact backoff schedule — same math as the crawler.
        let (env, net) = world(3);
        let mut cfg = ScanConfig::new(3);
        cfg.faults = FaultPlan::none(3).with_rate(Fault::ProbeDrop, 1.0);
        let target = ProbeTarget::tcp(IpAddr::V4(Ipv4Addr::LOCALHOST), 6463);
        let id = target.identity();
        let report = knock(&env, &net, &cfg, &target, &id);
        assert_eq!(report.state, PortState::Filtered);
        assert_eq!(report.attempts.len(), 3);
        let expected = 3 * cfg.timeout_ms
            + cfg.retry.backoff_ms(cfg.seed, &id, 1)
            + cfg.retry.backoff_ms(cfg.seed, &id, 2);
        assert_eq!(report.knock_ms, expected);
    }

    #[test]
    fn sequences_match_only_when_every_knock_lands_in_order() {
        let (env, net) = world(3);
        let mut cfg = ScanConfig::new(3);
        cfg.sequences = vec![vec![7000, 8000, 9000]];
        let clean = run_scan(&env, &net, &cfg);
        // Loopback RSTs are definitive deliveries: the sequence lands.
        assert!(clean.sequences[0].matched, "{:?}", clean.sequences[0]);

        cfg.faults = FaultPlan::none(3).with_rate(Fault::ProbeDrop, 1.0);
        let dropped = run_scan(&env, &net, &cfg);
        assert!(
            !dropped.sequences[0].matched,
            "dropped knocks break the chain"
        );
        assert!(dropped.sequences[0].complete, "budget was not the cause");
    }

    #[test]
    fn worker_count_never_changes_the_report() {
        for seed in [3u64, 11, 42] {
            let (env, net) = world(seed);
            let mut renders = Vec::new();
            for workers in [1usize, 2, 4, 8] {
                let mut cfg = ScanConfig::new(seed);
                cfg.workers = workers;
                cfg.udp = true;
                cfg.ipv6 = true;
                cfg.faults = storm(seed, 0.20);
                cfg.sequences = vec![vec![6463, 6464], vec![80, 443]];
                renders.push(run_scan(&env, &net, &cfg).render());
            }
            assert!(
                renders.windows(2).all(|w| w[0] == w[1]),
                "seed {seed}: report must be byte-identical across worker counts"
            );
        }
    }
}
