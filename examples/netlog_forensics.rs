//! NetLog forensics: export a visit's telemetry as a Chrome-style
//! JSON capture, corrupt it the way a killed browser would, and show
//! that the parser still recovers the evidence.
//!
//! The paper's pipeline parses NetLog JSON at crawl scale (§3.1);
//! robustness to truncated captures is what keeps Table 1's error
//! accounting unbiased.
//!
//! ```sh
//! cargo run --release --example netlog_forensics
//! ```

use knock_talk::browser::{Browser, BrowserConfig, World};
use knock_talk::netbase::{DomainName, Os, OsSet, Url};
use knock_talk::netlog::{Capture, FlowSetView, NetLogEvent};
use knock_talk::webgen::{Behavior, NativeApp, PlantedBehavior, WebSite};

fn main() {
    // A gaming site probing for its native client (FACEIT-style).
    let domain = DomainName::parse("arena.example").unwrap();
    let mut site = WebSite::plain(domain, Some(5370), 5);
    site.behaviors.push(PlantedBehavior {
        behavior: Behavior::NativeApp(NativeApp::Faceit),
        os_set: OsSet::ALL,
        base_delay_ms: 3_000,
    });

    let mut world = World::build(std::slice::from_ref(&site), Os::Linux, 3);
    let mut browser = Browser::new(&mut world, BrowserConfig::paper(Os::Linux), 3);
    let result = browser.visit(&site);

    // 1. Export as chrome://net-export JSON.
    let json = result.capture.to_json();
    println!(
        "capture: {} events, {} bytes of JSON",
        result.capture.len(),
        json.len()
    );

    // 2. Round-trip.
    let parsed = Capture::parse(&json).expect("well-formed capture parses");
    assert_eq!(parsed.events, result.capture.events);
    println!("round-trip: OK ({} events)", parsed.len());

    // 3. Simulate a crashed browser: cut the file mid-event.
    let cut = json.len() * 3 / 4;
    let truncated = &json[..cut];
    let recovered = Capture::parse(truncated).expect("recovery succeeds");
    println!(
        "truncated at byte {cut}: recovered {} of {} events (truncated={})",
        recovered.len(),
        result.capture.len(),
        recovered.truncated
    );

    // 4. The evidence survives: the localhost probe is still in the
    //    recovered prefix (it fired early in the visit).
    let flows = FlowSetView::from_events(recovered.events.iter().map(NetLogEvent::view));
    let local: Vec<String> = flows
        .page_flows()
        .filter_map(|f| f.url().map(str::to_string))
        .filter(|u| Url::parse(u).map(|u| u.is_local()).unwrap_or(false))
        .collect();
    println!("local destinations recovered from the truncated capture:");
    for url in &local {
        println!("  {url}");
    }
    assert!(
        local.iter().any(|u| u.contains(":28337")),
        "the FACEIT probe must survive truncation"
    );
    println!("\nforensics complete: detection works on damaged captures too.");
}
