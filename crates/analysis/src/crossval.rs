//! Cross-validation: passive detection vs. active scanning.
//!
//! The paper's pipeline is passive — it records what a page *sends*
//! toward the local network during a 20-second capture window. The
//! active scanner (kt-scanner) measures the other direction: what is
//! actually listening. Running both over the same seeded population
//! answers two questions the passive side cannot answer alone:
//!
//! 1. **Agreement** — per behaviour class, how often do the two
//!    instruments reach the same verdict about a planted behaviour?
//! 2. **False negatives of the window** — which behaviours fire *after*
//!    the 20-second capture closes, so the passive side can never see
//!    them, while an active ground-truth pass still can?
//!
//! Semantics: for each planted behaviour on the scanned machine's OS,
//! the *passive* verdict classifies the planned requests whose delay
//! falls inside the capture window; the *active* verdict classifies
//! the full (unwindowed) plan, but only counts loopback requests whose
//! port the scan confirmed with a definitive knock (open or closed) —
//! a fault-starved scan that left ports filtered or unprobed weakens
//! the active side, which is exactly the degradation the fault-sweep
//! experiment measures.

use std::collections::BTreeSet;

use kt_netbase::{DomainName, Os, OsSet};
use kt_scanner::{run_scan, Protocol, ScanConfig, ScanReport};
use kt_simnet::rng;
use kt_simnet::{HostEnv, SimNet};
use kt_trace::metrics::{Labels, Registry};
use kt_trace::names;
use kt_webgen::behavior::{Behavior, Channel, DevError, NativeApp, PlannedRequest, UnknownKind};
use kt_webgen::site::PlantedBehavior;

use crate::classify::{classify_site, ReasonClass};
use crate::detect::{LocalObservation, SiteLocalActivity};

/// The paper's capture window: each visit records for 20 seconds.
pub const PASSIVE_WINDOW_MS: u64 = 20_000;

/// The four cells of the agreement matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AgreementCell {
    /// Passive and active both detected the behaviour.
    Both,
    /// Only the windowed passive capture detected it.
    PassiveOnly,
    /// Only the active ground-truth pass detected it — a passive
    /// false negative.
    ActiveOnly,
    /// Neither side detected it.
    Neither,
}

impl AgreementCell {
    /// All cells, in render order.
    pub const ALL: [AgreementCell; 4] = [
        AgreementCell::Both,
        AgreementCell::PassiveOnly,
        AgreementCell::ActiveOnly,
        AgreementCell::Neither,
    ];

    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            AgreementCell::Both => "both",
            AgreementCell::PassiveOnly => "passive-only",
            AgreementCell::ActiveOnly => "active-only",
            AgreementCell::Neither => "neither",
        }
    }

    fn index(self) -> usize {
        match self {
            AgreementCell::Both => 0,
            AgreementCell::PassiveOnly => 1,
            AgreementCell::ActiveOnly => 2,
            AgreementCell::Neither => 3,
        }
    }

    fn of(passive: bool, active: bool) -> AgreementCell {
        match (passive, active) {
            (true, true) => AgreementCell::Both,
            (true, false) => AgreementCell::PassiveOnly,
            (false, true) => AgreementCell::ActiveOnly,
            (false, false) => AgreementCell::Neither,
        }
    }
}

/// Counts per (behaviour class, agreement cell).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AgreementMatrix {
    counts: [[u64; 4]; 5],
}

impl AgreementMatrix {
    fn class_index(class: ReasonClass) -> usize {
        ReasonClass::ALL
            .iter()
            .position(|c| *c == class)
            .expect("class in ALL")
    }

    /// Record one case.
    pub fn add(&mut self, class: ReasonClass, cell: AgreementCell) {
        self.counts[Self::class_index(class)][cell.index()] += 1;
    }

    /// Count in one cell.
    pub fn get(&self, class: ReasonClass, cell: AgreementCell) -> u64 {
        self.counts[Self::class_index(class)][cell.index()]
    }

    /// Total cases across all cells.
    pub fn total(&self) -> u64 {
        self.counts.iter().flatten().sum()
    }

    /// Cases where the two instruments agree (both or neither), over
    /// the total: the headline agreement rate.
    pub fn agreement_rate(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 1.0;
        }
        let agree: u64 = ReasonClass::ALL
            .iter()
            .map(|c| self.get(*c, AgreementCell::Both) + self.get(*c, AgreementCell::Neither))
            .sum();
        agree as f64 / total as f64
    }
}

/// One planted behaviour evaluated by both instruments.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossCase {
    /// The site carrying the behaviour.
    pub domain: String,
    /// Ground-truth class of the planted behaviour.
    pub class: ReasonClass,
    /// Did the windowed passive capture classify it correctly?
    pub passive_hit: bool,
    /// Did the scan-confirmed active pass classify it correctly?
    pub active_hit: bool,
    /// Earliest local-request delay in the full plan, ms after load.
    pub earliest_delay_ms: Option<u64>,
}

impl CrossCase {
    /// The cell this case lands in.
    pub fn cell(&self) -> AgreementCell {
        AgreementCell::of(self.passive_hit, self.active_hit)
    }

    /// True when this is a false negative *caused by the capture
    /// window*: the active side saw it, the passive side could not
    /// because the behaviour first fires at or after window close.
    pub fn is_window_false_negative(&self) -> bool {
        self.cell() == AgreementCell::ActiveOnly
            && self
                .earliest_delay_ms
                .is_some_and(|d| d >= PASSIVE_WINDOW_MS)
    }
}

/// The full cross-validation result.
#[derive(Debug, Clone)]
pub struct CrossValidation {
    /// OS of the scanned machine (behaviours are expanded for it).
    pub os: Os,
    /// The capture window applied to the passive side, ms.
    pub window_ms: u64,
    /// Every evaluated case, in population order.
    pub cases: Vec<CrossCase>,
    /// The per-class agreement matrix.
    pub matrix: AgreementMatrix,
    /// The active scan both sides share.
    pub scan: ScanReport,
}

impl CrossValidation {
    /// Cases the capture window structurally hides from the passive
    /// side (see [`CrossCase::is_window_false_negative`]).
    pub fn window_false_negatives(&self) -> Vec<&CrossCase> {
        self.cases
            .iter()
            .filter(|c| c.is_window_false_negative())
            .collect()
    }

    /// Deterministic text rendering — the artifact CI diffs across
    /// probe-worker counts.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "cross-validation: os={} window={} ms cases={} agreement={:.3}",
            self.os.name(),
            self.window_ms,
            self.cases.len(),
            self.matrix.agreement_rate(),
        );
        let _ = writeln!(
            out,
            "  {:<20} {:>6} {:>13} {:>12} {:>8}",
            "class", "both", "passive-only", "active-only", "neither"
        );
        for class in ReasonClass::ALL {
            let row: Vec<u64> = AgreementCell::ALL
                .iter()
                .map(|cell| self.matrix.get(class, *cell))
                .collect();
            if row.iter().sum::<u64>() == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "  {:<20} {:>6} {:>13} {:>12} {:>8}",
                class.label(),
                row[0],
                row[1],
                row[2],
                row[3],
            );
        }
        let fns = self.window_false_negatives();
        let _ = writeln!(out, "  window false negatives: {}", fns.len());
        for case in fns {
            let _ = writeln!(
                out,
                "    {} ({}) first fires at {} ms >= {} ms window",
                case.domain,
                case.class.label(),
                case.earliest_delay_ms.unwrap_or(0),
                self.window_ms,
            );
        }
        out
    }
}

/// Export the agreement cells under the `scan_agreement_*` schema,
/// labelled by reason class.
pub fn record_agreement_metrics(cv: &CrossValidation, reg: &mut Registry) {
    for class in ReasonClass::ALL {
        let labels = Labels::new(&[("reason", class.label())]);
        for (cell, name) in [
            (AgreementCell::Both, names::SCAN_AGREEMENT_BOTH_TOTAL),
            (
                AgreementCell::PassiveOnly,
                names::SCAN_AGREEMENT_PASSIVE_ONLY_TOTAL,
            ),
            (
                AgreementCell::ActiveOnly,
                names::SCAN_AGREEMENT_ACTIVE_ONLY_TOTAL,
            ),
            (AgreementCell::Neither, names::SCAN_AGREEMENT_NEITHER_TOTAL),
        ] {
            let count = cv.matrix.get(class, cell);
            if count > 0 {
                reg.inc_counter(name, labels.clone(), count);
            }
        }
    }
}

/// Ground-truth class of a planted behaviour.
pub fn reason_class_of(behavior: &Behavior) -> ReasonClass {
    match behavior {
        Behavior::ThreatMetrix { .. } => ReasonClass::FraudDetection,
        Behavior::BigIpBotDefense => ReasonClass::BotDetection,
        Behavior::NativeApp(_) => ReasonClass::NativeApplication,
        Behavior::DevError(_) => ReasonClass::DeveloperError,
        Behavior::Unknown(_) => ReasonClass::Unknown,
    }
}

/// Turn one planned request into the observation the passive pipeline
/// would record for it, if it is locally destined.
fn observation_of(domain: &str, os: Os, pr: &PlannedRequest) -> Option<LocalObservation> {
    let locality = pr.url.locality();
    if !locality.is_local() {
        return None;
    }
    Some(LocalObservation {
        domain: domain.to_string(),
        rank: None,
        malicious_category: None,
        os,
        scheme: pr.url.scheme(),
        port: pr.url.port(),
        path: pr.url.path_and_query(),
        locality,
        websocket: pr.url.scheme().is_websocket() || pr.channel == Channel::WebSocket,
        via_redirect: pr.channel == Channel::Redirect,
        time_ms: pr.delay_ms,
        delay_ms: pr.delay_ms,
        url: pr.url.clone(),
    })
}

/// Assemble a site activity from synthetic observations.
fn activity_of(domain: &str, observations: Vec<LocalObservation>) -> SiteLocalActivity {
    let mut localhost_os = OsSet::NONE;
    let mut lan_os = OsSet::NONE;
    for obs in &observations {
        if obs.locality.is_loopback() {
            localhost_os = localhost_os.with(obs.os);
        } else if obs.locality.is_private() {
            lan_os = lan_os.with(obs.os);
        }
    }
    SiteLocalActivity {
        domain: domain.to_string(),
        rank: None,
        malicious_category: None,
        localhost_os,
        lan_os,
        observations,
    }
}

/// Classify a set of observations and compare with the ground truth.
fn verdict(domain: &str, observations: Vec<LocalObservation>, truth: ReasonClass) -> bool {
    if observations.is_empty() {
        return false;
    }
    classify_site(&activity_of(domain, observations)) == truth
}

/// Run passive detection and an active scan over the same population
/// and cross-validate. The scan's loopback port set is widened to
/// cover every port the population's plans touch, so the active side
/// starts from full coverage and any loss is attributable to faults,
/// breakers, or the deadline budget.
pub fn run_cross_validation(
    env: &HostEnv,
    net: &SimNet,
    population: &[(DomainName, PlantedBehavior)],
    base_cfg: &ScanConfig,
) -> CrossValidation {
    let os = env.os;
    // Expand every plan once, up front.
    let plans: Vec<Vec<PlannedRequest>> = population
        .iter()
        .map(|(domain, pb)| pb.planned_requests(domain, os))
        .collect();

    // Widen the sweep to the population's loopback ports.
    let mut cfg = base_cfg.clone();
    let mut ports: BTreeSet<u16> = cfg.ports.iter().copied().collect();
    for plan in &plans {
        for pr in plan {
            if pr.url.locality().is_loopback() {
                ports.insert(pr.url.port());
            }
        }
    }
    cfg.ports = ports.into_iter().collect();
    let scan = run_scan(env, net, &cfg);

    // Loopback ports the scan answered definitively (open or closed).
    let confirmed: BTreeSet<u16> = scan
        .results
        .iter()
        .filter(|r| {
            r.target.addr.is_loopback()
                && r.target.protocol == Protocol::Tcp
                && r.state.is_definitive()
        })
        .map(|r| r.target.port)
        .collect();

    let mut cases = Vec::new();
    let mut matrix = AgreementMatrix::default();
    for ((domain, pb), plan) in population.iter().zip(&plans) {
        if plan.is_empty() {
            // The behaviour does not run on this OS: nothing for
            // either instrument to see, and nothing to validate.
            continue;
        }
        let truth = reason_class_of(&pb.behavior);
        let all_local: Vec<LocalObservation> = plan
            .iter()
            .filter_map(|pr| observation_of(domain.as_str(), os, pr))
            .collect();
        if all_local.is_empty() {
            continue;
        }
        let earliest_delay_ms = all_local.iter().map(|o| o.delay_ms).min();

        // Passive: what the 20-second capture can see.
        let windowed: Vec<LocalObservation> = all_local
            .iter()
            .filter(|o| o.delay_ms < PASSIVE_WINDOW_MS)
            .cloned()
            .collect();
        let passive_hit = verdict(domain.as_str(), windowed, truth);

        // Active: the full plan, restricted to scan-confirmed loopback
        // ports (LAN destinations pass through — the loopback sweep
        // does not adjudicate them).
        let confirmed_obs: Vec<LocalObservation> = all_local
            .iter()
            .filter(|o| !o.locality.is_loopback() || confirmed.contains(&o.port))
            .cloned()
            .collect();
        let active_hit = verdict(domain.as_str(), confirmed_obs, truth);

        matrix.add(truth, AgreementCell::of(passive_hit, active_hit));
        cases.push(CrossCase {
            domain: domain.as_str().to_string(),
            class: truth,
            passive_hit,
            active_hit,
            earliest_delay_ms,
        });
    }

    CrossValidation {
        os,
        window_ms: PASSIVE_WINDOW_MS,
        cases,
        matrix,
        scan,
    }
}

/// A seeded population for cross-validation runs: one site per entry,
/// behaviours drawn across all five classes. Entry 0 is always a
/// ThreatMetrix planting that first fires *after* the capture window
/// closes — the guaranteed window-false-negative the experiment is
/// designed to surface.
pub fn crossval_population(seed: u64, n: usize) -> Vec<(DomainName, PlantedBehavior)> {
    let vendor = DomainName::parse("online-metrix.net").expect("static vendor domain");
    let mut population = Vec::new();
    for i in 0..n.max(1) {
        let domain =
            DomainName::parse(&format!("crossval-{i:04}.example")).expect("static domain shape");
        let (behavior, base_delay_ms) = if i == 0 {
            // Fires 5 s after the window closes: passively invisible.
            (
                Behavior::ThreatMetrix {
                    vendor: vendor.clone(),
                },
                PASSIVE_WINDOW_MS + 5_000,
            )
        } else {
            let behavior = match rng::pick(seed, format_args!("crossval/behavior/{i}"), 7) {
                0 => Behavior::ThreatMetrix {
                    vendor: vendor.clone(),
                },
                1 => Behavior::BigIpBotDefense,
                2 => Behavior::NativeApp(NativeApp::Discord),
                3 => Behavior::NativeApp(NativeApp::Faceit),
                4 => Behavior::DevError(DevError::LiveReload {
                    scheme: kt_netbase::Scheme::Http,
                    port: 35_729,
                }),
                5 => Behavior::DevError(DevError::LocalFileServer {
                    scheme: kt_netbase::Scheme::Http,
                    port: 8_080,
                    path: "/wp-content/uploads/logo.png".to_string(),
                }),
                _ => Behavior::Unknown(UnknownKind::HolaJson),
            };
            let delay =
                rng::range(seed, format_args!("crossval/delay/{i}"), 500.0, 15_000.0) as u64;
            (behavior, delay)
        };
        population.push((
            domain,
            PlantedBehavior {
                behavior,
                os_set: OsSet::ALL,
                base_delay_ms,
            },
        ));
    }
    population
}

#[cfg(test)]
mod tests {
    use super::*;
    use kt_faults::{Fault, FaultPlan};

    fn world(seed: u64) -> (HostEnv, SimNet) {
        (HostEnv::sampled(Os::Windows, seed), SimNet::new(seed))
    }

    fn validate(seed: u64, rate: f64, workers: usize) -> CrossValidation {
        let (env, net) = world(seed);
        let mut cfg = ScanConfig::new(seed);
        cfg.workers = workers;
        if rate > 0.0 {
            cfg.faults = FaultPlan::none(seed)
                .with_rate(Fault::ProbeDrop, rate)
                .with_rate(Fault::ProbeDelay, rate)
                .with_rate(Fault::ConnectionReset, rate);
        }
        let population = crossval_population(seed, 24);
        run_cross_validation(&env, &net, &population, &cfg)
    }

    #[test]
    fn clean_run_agrees_except_for_the_window() {
        let cv = validate(11, 0.0, 4);
        assert!(!cv.cases.is_empty());
        // Without faults the only disagreements are window-induced:
        // every active-only case fires at/after window close.
        for case in &cv.cases {
            if case.cell() == AgreementCell::ActiveOnly {
                assert!(
                    case.is_window_false_negative(),
                    "{}: active-only without a window cause",
                    case.domain
                );
            }
            assert_ne!(
                case.cell(),
                AgreementCell::PassiveOnly,
                "{}: the windowed view is a subset of the full plan",
                case.domain
            );
        }
    }

    #[test]
    fn the_seeded_late_behaviour_is_a_window_false_negative() {
        let cv = validate(11, 0.0, 4);
        let fns = cv.window_false_negatives();
        assert!(
            fns.iter()
                .any(|c| c.domain == "crossval-0000.example"
                    && c.class == ReasonClass::FraudDetection),
            "the planted late ThreatMetrix must be invisible to the 20 s window: {fns:?}"
        );
    }

    #[test]
    fn agreement_rate_degrades_under_fault_storm_but_never_breaks() {
        let clean = validate(11, 0.0, 4);
        let stormy = validate(11, 0.60, 4);
        assert!(clean.matrix.agreement_rate() >= stormy.matrix.agreement_rate());
        assert_eq!(clean.cases.len(), stormy.cases.len(), "same population");
    }

    #[test]
    fn cross_validation_is_worker_count_invariant() {
        let renders: Vec<String> = [1usize, 8]
            .iter()
            .map(|w| validate(11, 0.20, *w).render())
            .collect();
        assert_eq!(renders[0], renders[1]);
    }

    #[test]
    fn agreement_metrics_label_by_reason() {
        let cv = validate(11, 0.0, 4);
        let mut reg = Registry::new();
        kt_trace::names::describe_defaults(&mut reg);
        record_agreement_metrics(&cv, &mut reg);
        let text = reg.render_prometheus();
        assert!(
            text.contains("scan_agreement_active_only_total{reason=\"Fraud Detection\"}"),
            "window FN must surface as a labelled active-only cell:\n{text}"
        );
        assert!(text.contains("scan_agreement_both_total"));
    }
}
