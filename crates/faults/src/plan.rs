//! Deterministic fault plans.
//!
//! A [`FaultPlan`] is the single source of truth for injected crawl
//! faults. Every decision is a pure function of `(seed, fault, domain,
//! attempt)` via the same identity-hashing RNG the rest of the
//! simulation uses, so a plan behaves identically whether the crawl
//! runs on one worker or eight, and a retried visit redraws its fate
//! instead of deterministically re-failing.

use kt_netlog::NetLogEvent;
use kt_simnet::rng;

/// One injectable fault class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Fault {
    /// Transient resolver flap: the DNS query times out this attempt.
    DnsFlap,
    /// Mid-flight reset: the landing connection dies after the
    /// document starts arriving.
    ConnectionReset,
    /// The NetLog capture loses its tail (disk pressure, writer crash);
    /// the visit itself still completes.
    TruncatedCapture,
    /// The telemetry store rejects the first append of this record.
    StoreAppendFailure,
    /// The visit panics mid-flight, taking the worker with it unless
    /// the supervisor isolates it.
    WorkerPanic,
    /// The whole crawl process dies (`kill -9`, OOM, power loss) while
    /// journaling this visit — a torn frame on disk, nothing after it.
    /// Unlike the other faults this one is not survivable in-process;
    /// it exists so crash-consistency tests can place a deterministic
    /// kill at a chosen visit and assert that `resume` recovers.
    ProcessKill,
    /// Service path: the campaign service's bounded result queue
    /// reports full for this update's arrival, forcing the tenant's
    /// overflow policy (block or shed) even when the modeled depth is
    /// below capacity. Keyed by the update's domain and pass so the
    /// forced overflows land identically whatever the worker count.
    QueueOverflow,
    /// Service path: the online-aggregation consumer stalls while
    /// draining this update (GC pause, page fault, noisy neighbour),
    /// inflating the modeled queue depth behind it.
    SlowConsumer,
    /// Service path: a tenant's scheduler misfires and submits a burst
    /// of extra campaigns at once. Drawn by workload drivers (identity
    /// = tenant, attempt = submission slot) to decide which slots
    /// burst; admission control absorbs the burst deterministically.
    TenantBurst,
    /// Scanner path: the knock packet (or its answer) is silently
    /// dropped in flight, so the attempt times out no matter what is
    /// listening. Keyed by the probe target's identity string so the
    /// same knock drops identically whatever the probe worker count.
    ProbeDrop,
    /// Scanner path: the knock's round trip is inflated by a
    /// deterministic delay (congestion, a rate limiter, a sleepy
    /// device). The attempt still completes unless the delay pushes it
    /// past the per-knock timeout.
    ProbeDelay,
}

impl Fault {
    /// Every fault class, in a fixed order.
    pub const ALL: [Fault; 11] = [
        Fault::DnsFlap,
        Fault::ConnectionReset,
        Fault::TruncatedCapture,
        Fault::StoreAppendFailure,
        Fault::WorkerPanic,
        Fault::ProcessKill,
        Fault::QueueOverflow,
        Fault::SlowConsumer,
        Fault::TenantBurst,
        Fault::ProbeDrop,
        Fault::ProbeDelay,
    ];

    /// The scanner-path fault classes (active-probe failure modes, as
    /// opposed to per-visit crawl faults).
    pub const PROBE: [Fault; 2] = [Fault::ProbeDrop, Fault::ProbeDelay];

    /// The service-path fault classes (the campaign service's own
    /// failure modes, as opposed to per-visit crawl faults).
    pub const SERVICE: [Fault; 3] = [
        Fault::QueueOverflow,
        Fault::SlowConsumer,
        Fault::TenantBurst,
    ];

    /// Stable label (part of the RNG key — never reword).
    pub fn label(self) -> &'static str {
        match self {
            Fault::DnsFlap => "dns-flap",
            Fault::ConnectionReset => "conn-reset",
            Fault::TruncatedCapture => "truncated-capture",
            Fault::StoreAppendFailure => "store-append",
            Fault::WorkerPanic => "worker-panic",
            Fault::ProcessKill => "process-kill",
            Fault::QueueOverflow => "queue-overflow",
            Fault::SlowConsumer => "slow-consumer",
            Fault::TenantBurst => "tenant-burst",
            Fault::ProbeDrop => "probe-drop",
            Fault::ProbeDelay => "probe-delay",
        }
    }

    fn index(self) -> usize {
        match self {
            Fault::DnsFlap => 0,
            Fault::ConnectionReset => 1,
            Fault::TruncatedCapture => 2,
            Fault::StoreAppendFailure => 3,
            Fault::WorkerPanic => 4,
            Fault::ProcessKill => 5,
            Fault::QueueOverflow => 6,
            Fault::SlowConsumer => 7,
            Fault::TenantBurst => 8,
            Fault::ProbeDrop => 9,
            Fault::ProbeDelay => 10,
        }
    }
}

/// A seeded, site-identity-keyed fault injection plan.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    /// Independent Bernoulli rate per fault class.
    rates: [f64; 11],
    /// Deterministic override: inject the fault on the first N
    /// attempts of *every* site, regardless of rate. Lets tests pin
    /// down exact retry/recrawl trajectories.
    first_attempts: [u32; 11],
}

impl FaultPlan {
    /// A plan that injects nothing (the paper's crawls).
    pub fn none(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rates: [0.0; 11],
            first_attempts: [0; 11],
        }
    }

    /// Set one fault's injection probability per (site, attempt).
    pub fn with_rate(mut self, fault: Fault, rate: f64) -> FaultPlan {
        debug_assert!((0.0..=1.0).contains(&rate));
        self.rates[fault.index()] = rate;
        self
    }

    /// Deterministically inject `fault` on every site's first `n`
    /// attempts (attempt numbers `0..n`).
    pub fn with_first_attempts(mut self, fault: Fault, n: u32) -> FaultPlan {
        self.first_attempts[fault.index()] = n;
        self
    }

    /// The configured rate of one fault class.
    pub fn rate(&self, fault: Fault) -> f64 {
        self.rates[fault.index()]
    }

    /// True when the plan can never inject anything.
    pub fn is_clean(&self) -> bool {
        self.rates.iter().all(|r| *r == 0.0) && self.first_attempts.iter().all(|n| *n == 0)
    }

    /// Does this plan inject `fault` into `domain`'s visit number
    /// `attempt`? Pure and order-independent: the decision hashes the
    /// identity triple, so retries redraw and worker counts don't
    /// matter.
    pub fn injects(&self, fault: Fault, domain: &str, attempt: u32) -> bool {
        if attempt < self.first_attempts[fault.index()] {
            return true;
        }
        let rate = self.rates[fault.index()];
        if rate <= 0.0 {
            return false;
        }
        rng::coin(
            self.seed,
            format_args!("fault/{}/{domain}/{attempt}", fault.label()),
            rate,
        )
    }

    /// All of one visit's fault decisions, drawn up front.
    pub fn visit_faults(&self, domain: &str, attempt: u32) -> VisitFaults {
        VisitFaults {
            dns_flap: self.injects(Fault::DnsFlap, domain, attempt),
            connection_reset: self.injects(Fault::ConnectionReset, domain, attempt),
            truncate_capture: self.injects(Fault::TruncatedCapture, domain, attempt),
            panic: self.injects(Fault::WorkerPanic, domain, attempt),
        }
    }
}

/// The browser-visible slice of one visit's fault decisions
/// ([`Fault::StoreAppendFailure`] is the supervisor's concern and is
/// not included).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VisitFaults {
    /// Inject a resolver flap: the DNS query times out.
    pub dns_flap: bool,
    /// Inject a mid-flight reset of the landing connection.
    pub connection_reset: bool,
    /// Drop the tail of the capture after the visit completes.
    pub truncate_capture: bool,
    /// Panic mid-visit (throwing a [`SalvagedVisit`]).
    pub panic: bool,
}

impl VisitFaults {
    /// No faults this visit.
    pub const NONE: VisitFaults = VisitFaults {
        dns_flap: false,
        connection_reset: false,
        truncate_capture: false,
        panic: false,
    };

    /// True if any fault fires.
    pub fn any(&self) -> bool {
        *self != VisitFaults::NONE
    }
}

/// Panic payload thrown by a crashing visit: the capture prefix
/// gathered before the crash, for the supervisor to salvage. Thrown
/// with `std::panic::panic_any` and recovered by downcasting the
/// `catch_unwind` payload; a panic from anywhere else (a real bug)
/// simply won't downcast, and the supervisor quarantines the site with
/// an empty capture instead.
#[derive(Debug)]
pub struct SalvagedVisit {
    /// The crashing site's domain.
    pub domain: String,
    /// Events logged before the crash (a parseable capture prefix).
    pub events: Vec<NetLogEvent>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_plan_injects_nothing() {
        let plan = FaultPlan::none(7);
        assert!(plan.is_clean());
        for fault in Fault::ALL {
            for attempt in 0..4 {
                assert!(!plan.injects(fault, "site.example", attempt));
            }
        }
        assert!(!plan.visit_faults("site.example", 0).any());
    }

    #[test]
    fn decisions_are_deterministic_and_identity_keyed() {
        let plan = FaultPlan::none(42).with_rate(Fault::ConnectionReset, 0.5);
        let a = plan.injects(Fault::ConnectionReset, "a.example", 0);
        assert_eq!(a, plan.injects(Fault::ConnectionReset, "a.example", 0));
        // Over many domains the rate must be visible and domains must
        // disagree with each other somewhere.
        let hits = (0..1000)
            .filter(|i| plan.injects(Fault::ConnectionReset, &format!("d{i}.example"), 0))
            .count();
        assert!((350..650).contains(&hits), "{hits}");
    }

    #[test]
    fn retries_redraw_their_fate() {
        let plan = FaultPlan::none(3).with_rate(Fault::DnsFlap, 0.5);
        // Some domain must flap on attempt 0 and recover on attempt 1.
        let recovered = (0..200).any(|i| {
            let d = format!("flap{i}.example");
            plan.injects(Fault::DnsFlap, &d, 0) && !plan.injects(Fault::DnsFlap, &d, 1)
        });
        assert!(recovered);
    }

    #[test]
    fn first_attempts_override_pins_trajectories() {
        let plan = FaultPlan::none(1).with_first_attempts(Fault::ConnectionReset, 2);
        assert!(!plan.is_clean());
        for domain in ["x.example", "y.example"] {
            assert!(plan.injects(Fault::ConnectionReset, domain, 0));
            assert!(plan.injects(Fault::ConnectionReset, domain, 1));
            assert!(!plan.injects(Fault::ConnectionReset, domain, 2));
        }
    }

    #[test]
    fn process_kill_is_keyed_like_every_other_fault() {
        // The crash injector must be a first-class plan member:
        // deterministic per (seed, domain, attempt), pinnable via
        // first_attempts, and absent from clean plans.
        let plan = FaultPlan::none(11).with_rate(Fault::ProcessKill, 0.5);
        let d = "victim.example";
        assert_eq!(
            plan.injects(Fault::ProcessKill, d, 0),
            plan.injects(Fault::ProcessKill, d, 0)
        );
        let hits = (0..1000)
            .filter(|i| plan.injects(Fault::ProcessKill, &format!("k{i}.example"), 0))
            .count();
        assert!((350..650).contains(&hits), "{hits}");
        let pinned = FaultPlan::none(11).with_first_attempts(Fault::ProcessKill, 1);
        assert!(pinned.injects(Fault::ProcessKill, d, 0));
        assert!(!pinned.injects(Fault::ProcessKill, d, 1));
        assert!(!FaultPlan::none(11).injects(Fault::ProcessKill, d, 0));
    }

    #[test]
    fn service_faults_are_keyed_like_every_other_fault() {
        // The service-path injectors (queue overflow, slow consumer,
        // tenant burst) must obey the same contract as crawl faults:
        // deterministic per (seed, identity, attempt), pinnable via
        // first_attempts, and absent from clean plans — that is what
        // makes service runs worker-count-invariant.
        for fault in Fault::SERVICE {
            let plan = FaultPlan::none(17).with_rate(fault, 0.5);
            assert_eq!(
                plan.injects(fault, "tenant-a", 0),
                plan.injects(fault, "tenant-a", 0)
            );
            let hits = (0..1000)
                .filter(|i| plan.injects(fault, &format!("t{i}"), 0))
                .count();
            assert!((350..650).contains(&hits), "{}: {hits}", fault.label());
            let pinned = FaultPlan::none(17).with_first_attempts(fault, 1);
            assert!(pinned.injects(fault, "tenant-a", 0));
            assert!(!pinned.injects(fault, "tenant-a", 1));
            assert!(!FaultPlan::none(17).injects(fault, "tenant-a", 0));
        }
    }

    #[test]
    fn probe_faults_are_keyed_like_every_other_fault() {
        // The scanner-path injectors (probe drop, probe delay) obey
        // the same contract as crawl faults: deterministic per (seed,
        // target identity, attempt), pinnable via first_attempts, and
        // absent from clean plans — which is what makes scan reports
        // worker-count-invariant.
        for fault in Fault::PROBE {
            let plan = FaultPlan::none(23).with_rate(fault, 0.5);
            assert_eq!(
                plan.injects(fault, "tcp/127.0.0.1:3389", 0),
                plan.injects(fault, "tcp/127.0.0.1:3389", 0)
            );
            let hits = (0..1000)
                .filter(|p| plan.injects(fault, &format!("tcp/127.0.0.1:{p}"), 0))
                .count();
            assert!((350..650).contains(&hits), "{}: {hits}", fault.label());
            let pinned = FaultPlan::none(23).with_first_attempts(fault, 1);
            assert!(pinned.injects(fault, "udp/192.168.0.1:80", 0));
            assert!(!pinned.injects(fault, "udp/192.168.0.1:80", 1));
            assert!(!FaultPlan::none(23).injects(fault, "udp/192.168.0.1:80", 0));
        }
    }

    #[test]
    fn all_faults_have_distinct_labels_and_indices() {
        let labels: std::collections::BTreeSet<&str> =
            Fault::ALL.iter().map(|f| f.label()).collect();
        assert_eq!(labels.len(), Fault::ALL.len());
        for (i, fault) in Fault::ALL.iter().enumerate() {
            assert_eq!(fault.index(), i, "{}", fault.label());
        }
    }

    #[test]
    fn faults_draw_independently() {
        let plan = FaultPlan::none(9)
            .with_rate(Fault::WorkerPanic, 1.0)
            .with_rate(Fault::DnsFlap, 0.0);
        let faults = plan.visit_faults("solo.example", 0);
        assert!(faults.panic);
        assert!(!faults.dns_flap);
        assert!(faults.any());
    }
}
