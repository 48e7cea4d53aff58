//! Audit one website's anti-abuse localhost scanning, the way §4.3.1
//! of the paper dissected ThreatMetrix: build a single e-commerce site
//! that embeds the fraud-detection script, visit it on all three OSes,
//! and walk the NetLog capture flow by flow.
//!
//! ```sh
//! cargo run --release --example fraud_detection_audit
//! ```

use knock_talk::browser::{Browser, BrowserConfig, World};
use knock_talk::netbase::services::THREATMETRIX_PORTS;
use knock_talk::netbase::{DomainName, Os, OsSet, ServiceRegistry, Url};
use knock_talk::netlog::{FlowOutcome, FlowSetView, NetLogEvent};
use knock_talk::webgen::{Behavior, PlantedBehavior, WebSite};

fn main() {
    // A synthetic "big shop" deploying ThreatMetrix-style profiling.
    let domain = DomainName::parse("bigshop.example").unwrap();
    let vendor = DomainName::parse("regstat.bigshop.example").unwrap();
    let mut site = WebSite::plain(domain, Some(104), 8);
    site.behaviors.push(PlantedBehavior {
        behavior: Behavior::ThreatMetrix { vendor },
        os_set: OsSet::WINDOWS_ONLY,
        base_delay_ms: 9_500,
    });

    let registry = ServiceRegistry::standard();
    for os in Os::ALL {
        println!("=== visiting https://bigshop.example/ on {} ===", os.name());
        let mut world = World::build(std::slice::from_ref(&site), os, 7);
        let mut browser = Browser::new(&mut world, BrowserConfig::paper(os), 7);
        let result = browser.visit(&site);
        let flows = FlowSetView::from_events(result.capture.events.iter().map(NetLogEvent::view));
        let mut local = 0;
        for flow in flows.page_flows() {
            let Some(url_text) = flow.url() else { continue };
            let Ok(url) = Url::parse(url_text) else {
                continue;
            };
            if !url.is_local() {
                continue;
            }
            local += 1;
            let service = registry
                .lookup(url.port())
                .map(|s| s.service)
                .unwrap_or("unknown service");
            let outcome = match flow.outcome() {
                FlowOutcome::Success(code) => format!("answered ({code})"),
                FlowOutcome::Failed(err) => format!("failed ({})", err.name()),
                FlowOutcome::InFlight => "no answer within the window".to_string(),
            };
            println!(
                "  t={:>6}ms  {:<28} probing {:<32} -> {}",
                flow.start_time(),
                url.to_string(),
                service,
                outcome
            );
        }
        if local == 0 {
            println!("  (no locally-bound traffic — the script only runs on Windows)");
        } else {
            println!(
                "  {} localhost probes covering {}/{} ThreatMetrix ports",
                local,
                THREATMETRIX_PORTS.len().min(local),
                THREATMETRIX_PORTS.len()
            );
        }
        println!();
    }
    println!(
        "Interpretation: the scan targets remote-desktop ports (RDP 3389, VNC \n\
         5900-5903, TeamViewer 5939, AnyDesk 7070, …) to detect whether the\n\
         visitor's machine is under remote control — a fraud signal. Because\n\
         the probes ride WebSockets, the Same-Origin Policy does not block\n\
         reading the results (§4.3.1 of the paper)."
    );
}
