//! A visit allocates for the telemetry it returns, not for its own
//! bookkeeping. Seeded latency and coin draws stream their labels into
//! the hash, connects borrow the listening endpoint, and DNS, SNI and
//! response-time keys borrow the URL, so what remains is the capture
//! (the event vector and its events' owned strings) and the URLs of
//! the page's jobs.
//! A visit that formats every label, clones each endpoint with its
//! certificate and lowercases every DNS key reads 315.5 allocations
//! per visit on this population; this one reads 153.0.
//! It reads the process-global `count_allocs`, so this file holds one
//! test.

use kt_browser::{Browser, BrowserConfig, World};
use kt_netbase::Os;
use kt_webgen::{Behavior, PopulationConfig, SensorArchetype, WebPopulation};

#[global_allocator]
static HEAP: kt_trace::CountingAllocator = kt_trace::CountingAllocator;

/// Allocations a visit may make on average.
const BOUND: f64 = 170.0;

#[test]
fn a_visit_allocates_only_for_its_capture() {
    let seed = 29;
    let population = WebPopulation::generate(PopulationConfig {
        top_size: 400,
        malicious_size: 100,
        ..PopulationConfig::bias_scale(seed)
    });
    let sites = &population.sites2020;
    let planted = |pred: &dyn Fn(&Behavior) -> bool| {
        sites
            .iter()
            .any(|s| s.behaviors.iter().any(|p| pred(&p.behavior)))
    };
    let sensored = |archetype| {
        sites
            .iter()
            .any(|s| s.sensor.is_some_and(|x| x.archetype == archetype))
    };
    assert!(planted(&|b| matches!(b, Behavior::ThreatMetrix { .. })));
    assert!(planted(&|b| matches!(b, Behavior::BigIpBotDefense)));
    assert!(sensored(SensorArchetype::WebRtcProbe));
    assert!(sensored(SensorArchetype::BigIpChallenge));
    assert!(sensored(SensorArchetype::HeadlessTrap));

    let (mut visits, mut allocs, mut events) = (0u64, 0u64, 0u64);
    for os in [Os::Windows, Os::Linux] {
        for site in sites {
            // A per-site world, as the crawler builds one per job; only
            // the visit itself is counted.
            let mut world = World::build(std::slice::from_ref(site), os, seed);
            let (result, n, _) = kt_trace::count_allocs(|| {
                Browser::new(&mut world, BrowserConfig::paper(os), seed).visit(site)
            });
            visits += 1;
            allocs += n;
            events += result.capture.events.len() as u64;
        }
    }
    let per_visit = allocs as f64 / visits as f64;
    assert!(
        events / visits > 20,
        "the population must exercise full page runs"
    );
    assert!(
        per_visit <= BOUND,
        "{per_visit:.1} allocations per visit over {visits} visits (bound {BOUND})"
    );
    eprintln!("{per_visit:.1} allocations per visit over {visits} visits");
}
