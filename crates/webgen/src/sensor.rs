//! Anti-bot sensors and crawler profiles — the measurement-bias model.
//!
//! The paper's prevalence numbers implicitly assume a site behaves the
//! same under an instrumented crawler as under a real user. Bot-
//! detection deployments break that assumption: a site that fingerprints
//! the visitor can suppress, delay, or swap its localhost-probing
//! behaviour when it decides it is being measured. This module gives the
//! synthetic population that adversarial capability, keyed — like every
//! other sampled quantity — purely on `(seed, domain)`, so the bias
//! experiment has exact planted ground truth to compare against.
//!
//! The model is deliberately *monotone*: each sensor check draws a
//! per-site difficulty in `1..=3`, and a crawler profile evades the
//! check iff its evasion power reaches that difficulty. A stronger
//! profile therefore evades every check a weaker one evades, which is
//! what guarantees (by construction, and pinned by property tests) that
//! the `stealth` profile observes a superset of the `naive` profile's
//! local observations on any seeded population.

use crate::population::{hash_str, unit};

/// How the crawler presents itself to the page — the knob the bias
/// experiment sweeps. Ordered by evasion power.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum CrawlerProfile {
    /// Stock headless automation: `navigator.webdriver` set, headless
    /// UA string, no plugin/codec surface. Every sensor fires.
    #[default]
    Naive,
    /// Headless with the obvious tells patched (`webdriver` removed,
    /// UA rewritten). Beats fingerprint checks that only look at the
    /// easy signals.
    HeadlessPatched,
    /// Full stealth suite: patched fingerprints plus plausible canvas,
    /// codec and timing surfaces. Beats everything short of
    /// interaction analysis.
    Stealth,
    /// Replay of a recorded human session: real interaction cadence.
    /// No sensor in the model can tell it from a user.
    HumanReplay,
}

impl CrawlerProfile {
    /// All profiles, in evasion-power order.
    pub const ALL: [CrawlerProfile; 4] = [
        CrawlerProfile::Naive,
        CrawlerProfile::HeadlessPatched,
        CrawlerProfile::Stealth,
        CrawlerProfile::HumanReplay,
    ];

    /// Stable CLI / report name.
    pub fn name(self) -> &'static str {
        match self {
            CrawlerProfile::Naive => "naive",
            CrawlerProfile::HeadlessPatched => "headless-patched",
            CrawlerProfile::Stealth => "stealth",
            CrawlerProfile::HumanReplay => "human-replay",
        }
    }

    /// Parse a CLI name.
    pub fn parse(s: &str) -> Option<CrawlerProfile> {
        CrawlerProfile::ALL
            .into_iter()
            .find(|p| p.name() == s.trim())
    }

    /// How many difficulty levels this profile evades (0..=3). A check
    /// of difficulty `d` detects the crawler iff `evasion_power() < d`.
    pub fn evasion_power(self) -> u8 {
        match self {
            CrawlerProfile::Naive => 0,
            CrawlerProfile::HeadlessPatched => 1,
            CrawlerProfile::Stealth => 2,
            CrawlerProfile::HumanReplay => 3,
        }
    }
}

/// Which anti-bot deployment a site runs, and therefore what it does to
/// its local behaviour when the sensor fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SensorArchetype {
    /// `navigator.webdriver` / UA fingerprint check: a detected crawler
    /// simply never receives the local-probing script.
    NavigatorProbe,
    /// Headless heuristics (missing codecs, zero-size viewport
    /// rendering): a detected crawler gets the behaviour *delayed*
    /// past the capture window instead of dropped.
    HeadlessTrap,
    /// BIG-IP-ASM-style challenge: a detected crawler is served a
    /// challenge interstitial (a same-origin `/TSPD` fetch) and the
    /// real page — local probes included — never runs.
    BigIpChallenge,
    /// WebRTC data-channel rendezvous: the page gathers ICE candidates
    /// for *every* visitor, but a detected crawler sees only the
    /// mDNS-obfuscated `.local` form while an undetected one sees the
    /// raw private address — the behaviour is swapped, not hidden.
    WebRtcProbe,
}

impl SensorArchetype {
    /// All archetypes.
    pub const ALL: [SensorArchetype; 4] = [
        SensorArchetype::NavigatorProbe,
        SensorArchetype::HeadlessTrap,
        SensorArchetype::BigIpChallenge,
        SensorArchetype::WebRtcProbe,
    ];

    /// Stable report name.
    pub fn name(self) -> &'static str {
        match self {
            SensorArchetype::NavigatorProbe => "navigator-probe",
            SensorArchetype::HeadlessTrap => "headless-trap",
            SensorArchetype::BigIpChallenge => "bigip-challenge",
            SensorArchetype::WebRtcProbe => "webrtc-probe",
        }
    }
}

/// What the page does with its local behaviour after consulting the
/// sensor — the browser's gating instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SensorGate {
    /// Behaviour runs unmodified.
    Pass,
    /// Local behaviour is suppressed entirely.
    Suppress,
    /// Local behaviour is delayed by this many extra milliseconds
    /// (calibrated to land past the 20-second capture window).
    Delay(u64),
    /// A challenge interstitial is served instead of the real page:
    /// local behaviour suppressed, plus one same-origin `/TSPD` fetch.
    Challenge,
    /// WebRTC ICE candidates are gathered; `mdns` selects the
    /// obfuscated `.local` form over the raw private address.
    Ice {
        /// True when candidates carry mDNS `.local` names.
        mdns: bool,
    },
}

impl SensorGate {
    /// True if the gate removes the site's planted request behaviour
    /// from what the crawler can observe in-window.
    pub fn suppresses_behavior(self) -> bool {
        matches!(
            self,
            SensorGate::Suppress | SensorGate::Delay(_) | SensorGate::Challenge
        )
    }
}

/// An anti-bot sensor as deployed on one site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BotSensor {
    /// Which deployment this site runs.
    pub archetype: SensorArchetype,
}

impl BotSensor {
    /// Per-(seed, domain) check difficulty in `1..=3`. Purely a hash of
    /// its inputs: identical across worker counts, visit ordering and
    /// repeated visits.
    pub fn difficulty(self, seed: u64, domain: &str) -> u8 {
        let label = format!("sensor-difficulty:{}:{domain}", self.archetype.name());
        1 + (hash_str(seed, &label) % 3) as u8
    }

    /// Does this sensor flag `profile` as a bot on `domain`? Pure in
    /// `(seed, profile, domain)`; monotone non-increasing in the
    /// profile's evasion power.
    pub fn detects(self, seed: u64, profile: CrawlerProfile, domain: &str) -> bool {
        profile.evasion_power() < self.difficulty(seed, domain)
    }

    /// The gating instruction for one visit. Deterministic: the same
    /// `(seed, profile, domain)` always gates the same way.
    pub fn gate(self, seed: u64, profile: CrawlerProfile, domain: &str) -> SensorGate {
        let detected = self.detects(seed, profile, domain);
        match self.archetype {
            SensorArchetype::WebRtcProbe => SensorGate::Ice { mdns: detected },
            _ if !detected => SensorGate::Pass,
            SensorArchetype::NavigatorProbe => SensorGate::Suppress,
            SensorArchetype::HeadlessTrap => {
                // Push the behaviour well past the 20 s capture window;
                // jitter keeps the delay site-specific but deterministic.
                let jitter = hash_str(seed, &format!("sensor-delay:{domain}")) % 10_000;
                SensorGate::Delay(25_000 + jitter)
            }
            SensorArchetype::BigIpChallenge => SensorGate::Challenge,
        }
    }

    /// Deterministic archetype choice for a behaviour-carrying site
    /// (never [`SensorArchetype::WebRtcProbe`], which is planted on
    /// otherwise-quiet sites as its own behaviour).
    pub fn for_behavior_site(seed: u64, domain: &str) -> BotSensor {
        let archetype = match hash_str(seed, &format!("sensor-archetype:{domain}")) % 3 {
            0 => SensorArchetype::NavigatorProbe,
            1 => SensorArchetype::HeadlessTrap,
            _ => SensorArchetype::BigIpChallenge,
        };
        BotSensor { archetype }
    }

    /// The share of behaviour-carrying sites that deploy a sensor when
    /// sensor planting is enabled.
    pub fn deployment_rate() -> f64 {
        0.6
    }

    /// Should `domain` deploy a sensor at all (among behaviour sites)?
    pub fn deployed_on(seed: u64, domain: &str) -> bool {
        unit(seed, &format!("sensor-deployed:{domain}")) < BotSensor::deployment_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn profile_names_round_trip() {
        for p in CrawlerProfile::ALL {
            assert_eq!(CrawlerProfile::parse(p.name()), Some(p));
        }
        assert_eq!(CrawlerProfile::parse("no-such"), None);
        assert_eq!(
            CrawlerProfile::parse(" stealth "),
            Some(CrawlerProfile::Stealth)
        );
    }

    #[test]
    fn evasion_power_is_strictly_ordered() {
        let powers: Vec<u8> = CrawlerProfile::ALL
            .iter()
            .map(|p| p.evasion_power())
            .collect();
        assert!(powers.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn human_replay_is_never_detected() {
        for archetype in SensorArchetype::ALL {
            let sensor = BotSensor { archetype };
            for seed in [0u64, 42, 0xdead_beef] {
                for domain in ["a.example", "b.example", "c.example"] {
                    assert!(!sensor.detects(seed, CrawlerProfile::HumanReplay, domain));
                }
            }
        }
    }

    #[test]
    fn naive_is_always_detected() {
        for archetype in SensorArchetype::ALL {
            let sensor = BotSensor { archetype };
            assert!(sensor.detects(42, CrawlerProfile::Naive, "any.example"));
        }
    }

    #[test]
    fn webrtc_probe_always_gathers_candidates() {
        let sensor = BotSensor {
            archetype: SensorArchetype::WebRtcProbe,
        };
        for profile in CrawlerProfile::ALL {
            match sensor.gate(42, profile, "rtc.example") {
                SensorGate::Ice { .. } => {}
                other => panic!("expected Ice, got {other:?}"),
            }
        }
        // Naive is detected → obfuscated; human-replay isn't → raw.
        assert_eq!(
            sensor.gate(42, CrawlerProfile::Naive, "rtc.example"),
            SensorGate::Ice { mdns: true }
        );
        assert_eq!(
            sensor.gate(42, CrawlerProfile::HumanReplay, "rtc.example"),
            SensorGate::Ice { mdns: false }
        );
    }

    #[test]
    fn delay_gate_lands_past_capture_window() {
        let sensor = BotSensor {
            archetype: SensorArchetype::HeadlessTrap,
        };
        for domain in ["a.example", "b.example", "c.example"] {
            match sensor.gate(7, CrawlerProfile::Naive, domain) {
                SensorGate::Delay(extra) => assert!((25_000..35_000).contains(&extra)),
                other => panic!("expected Delay, got {other:?}"),
            }
        }
    }

    proptest! {
        /// Verdicts are pure functions of (seed, profile, domain):
        /// recomputing in any order, any number of times, from any
        /// worker, gives the identical answer.
        #[test]
        fn verdicts_are_pure(
            seed in any::<u64>(),
            domain_n in 0u32..10_000,
            archetype_i in 0usize..4,
            order in proptest::collection::vec(0usize..4, 1..8),
        ) {
            let domain = format!("site{domain_n}.example");
            let sensor = BotSensor { archetype: SensorArchetype::ALL[archetype_i] };
            // Reference pass in canonical order…
            let reference: Vec<SensorGate> = CrawlerProfile::ALL
                .iter()
                .map(|&p| sensor.gate(seed, p, &domain))
                .collect();
            // …then re-evaluated in an arbitrary subsequence order,
            // interleaved with repeats (simulating racing workers).
            for &i in &order {
                let p = CrawlerProfile::ALL[i];
                prop_assert_eq!(sensor.gate(seed, p, &domain), reference[i]);
                prop_assert_eq!(sensor.gate(seed, p, &domain), reference[i]);
            }
        }

        /// The stealth profile's observable set is a superset of the
        /// naive profile's: any (seed, domain, archetype) the naive
        /// crawler gets through, stealth gets through too. Strictness
        /// (stealth sees sites naive does not) is asserted on a real
        /// population by the kt-analysis bias tests.
        #[test]
        fn stealth_passes_wherever_naive_passes(
            seed in any::<u64>(),
            domain_n in 0u32..10_000,
            archetype_i in 0usize..4,
        ) {
            let domain = format!("site{domain_n}.example");
            let sensor = BotSensor { archetype: SensorArchetype::ALL[archetype_i] };
            let naive = sensor.gate(seed, CrawlerProfile::Naive, &domain);
            let stealth = sensor.gate(seed, CrawlerProfile::Stealth, &domain);
            prop_assert!(
                naive.suppresses_behavior() || !stealth.suppresses_behavior(),
                "naive passed ({naive:?}) but stealth was gated ({stealth:?})"
            );
        }

        /// Detection is monotone: a profile with more evasion power is
        /// never detected where a weaker one passed.
        #[test]
        fn detection_is_monotone_in_evasion_power(
            seed in any::<u64>(),
            domain_n in 0u32..10_000,
            archetype_i in 0usize..4,
        ) {
            let domain = format!("site{domain_n}.example");
            let sensor = BotSensor { archetype: SensorArchetype::ALL[archetype_i] };
            let mut last_detected = true;
            for p in CrawlerProfile::ALL {
                let d = sensor.detects(seed, p, &domain);
                prop_assert!(!d || last_detected,
                    "stronger profile {p:?} detected where weaker passed");
                last_detected = d;
            }
        }
    }
}
