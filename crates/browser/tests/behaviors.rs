//! Behaviour-level integration tests: every planted behaviour class
//! produces the telemetry signature the paper describes, when executed
//! by the browser against the simulated network.

use kt_browser::{Browser, BrowserConfig, World};
use kt_netbase::{DomainName, Os, OsSet, Scheme, Url};
use kt_netlog::{FlowSetView, NetLogEvent, SourceType};
use kt_webgen::{Behavior, DevError, NativeApp, PlantedBehavior, UnknownKind, WebSite};

fn visit(site: &WebSite, os: Os) -> Vec<NetLogEvent> {
    let mut world = World::build(std::slice::from_ref(site), os, 17);
    let mut browser = Browser::new(&mut world, BrowserConfig::paper(os), 17);
    browser.visit(site).capture.events
}

fn flows_of(events: &[NetLogEvent]) -> FlowSetView<'_> {
    FlowSetView::from_events(events.iter().map(NetLogEvent::view))
}

fn planted(domain: &str, behavior: Behavior, os_set: OsSet, delay: u64) -> WebSite {
    let mut site = WebSite::plain(DomainName::parse(domain).unwrap(), Some(10), 4);
    site.behaviors.push(PlantedBehavior {
        behavior,
        os_set,
        base_delay_ms: delay,
    });
    site
}

fn local_urls(flows: &FlowSetView<'_>) -> Vec<Url> {
    flows
        .page_flows()
        .filter_map(|f| f.url())
        .filter_map(|u| Url::parse(u).ok())
        .filter(Url::is_local)
        .collect()
}

#[test]
fn threatmetrix_vendor_script_and_upload_are_public_fetches() {
    let vendor = DomainName::parse("regstat.shop.example").unwrap();
    let site = planted(
        "shop.example",
        Behavior::ThreatMetrix { vendor },
        OsSet::WINDOWS_ONLY,
        9_000,
    );
    let events = visit(&site, Os::Windows);
    let flows = flows_of(&events);
    let urls: Vec<String> = flows
        .page_flows()
        .filter_map(|f| f.url().map(str::to_string))
        .collect();
    // The script download precedes the scan, the upload follows it.
    assert!(urls.iter().any(|u| u.contains("/fp/tags.js")));
    assert!(urls.iter().any(|u| u.contains("/fp/clear.png")));
    // Both are fetches from the vendor, not local traffic.
    assert!(urls
        .iter()
        .filter(|u| u.contains("/fp/"))
        .all(|u| u.starts_with("https://regstat.shop.example")));
    // And the vendor endpoint actually answers (world registered it).
    let script_flow = flows
        .page_flows()
        .find(|f| f.url().is_some_and(|u| u.contains("/fp/tags.js")))
        .unwrap();
    assert!(matches!(
        script_flow.outcome(),
        kt_netlog::FlowOutcome::Success(200)
    ));
}

#[test]
fn gamehouse_probe_carries_api_port_query() {
    let site = planted(
        "gamesite.example",
        Behavior::NativeApp(NativeApp::GameHouse),
        OsSet::ALL,
        2_000,
    );
    let events = visit(&site, Os::MacOs);
    let flows = flows_of(&events);
    let urls = local_urls(&flows);
    assert_eq!(urls.len(), 4, "12071, 12072, 17021, 27021");
    for u in &urls {
        assert!(u.path().starts_with("/v1/init.json"));
        assert!(u.query().unwrap().contains("api_port="));
        assert_eq!(u.scheme(), Scheme::Http);
    }
}

#[test]
fn samsung_probe_spans_two_protocols_and_two_hosts() {
    let site = planted(
        "card.example",
        Behavior::NativeApp(NativeApp::SamsungSecurity),
        OsSet::ALL,
        3_000,
    );
    let events = visit(&site, Os::Windows);
    let flows = flows_of(&events);
    let urls = local_urls(&flows);
    let https = urls.iter().filter(|u| u.scheme() == Scheme::Https).count();
    let wss = urls.iter().filter(|u| u.scheme() == Scheme::Wss).count();
    assert_eq!(https, 10, "nProtect ports over https");
    assert_eq!(wss, 3, "AnySign ports over wss");
    // WebSocket flows use the WebSocket source type.
    let ws_sources = flows
        .page_flows()
        .filter(|f| f.source.kind == SourceType::WebSocket)
        .count();
    assert_eq!(ws_sources, 3);
}

#[test]
fn hola_json_probes_hit_ten_consecutive_ports() {
    let site = planted(
        "proxyish.example",
        Behavior::Unknown(UnknownKind::HolaJson),
        OsSet::ALL,
        1_500,
    );
    let events = visit(&site, Os::Linux);
    let flows = flows_of(&events);
    let mut ports: Vec<u16> = local_urls(&flows).iter().map(Url::port).collect();
    ports.sort_unstable();
    assert_eq!(ports, (6880u16..=6889).collect::<Vec<_>>());
}

#[test]
fn lan_fetch_goes_to_the_exact_planted_address() {
    let site = planted(
        "uni.example",
        Behavior::DevError(DevError::LanResource {
            ip: std::net::Ipv4Addr::new(192, 168, 64, 160),
            scheme: Scheme::Http,
            port: 80,
            path: "/wp-content/uploads/2019/10/photo.jpg".into(),
        }),
        OsSet::ALL,
        1_000,
    );
    let events = visit(&site, Os::Windows);
    let flows = flows_of(&events);
    let urls = local_urls(&flows);
    assert_eq!(urls.len(), 1);
    assert_eq!(urls[0].host().to_string(), "192.168.64.160");
}

#[test]
fn multiple_behaviors_coexist_on_one_site() {
    let mut site = planted(
        "busy.example",
        Behavior::NativeApp(NativeApp::Faceit),
        OsSet::ALL,
        1_000,
    );
    site.behaviors.push(PlantedBehavior {
        behavior: Behavior::DevError(DevError::LiveReload {
            scheme: Scheme::Https,
            port: 35729,
        }),
        os_set: OsSet::ALL,
        base_delay_ms: 4_000,
    });
    let events = visit(&site, Os::Linux);
    let flows = flows_of(&events);
    let urls = local_urls(&flows);
    assert_eq!(urls.len(), 2);
    let ports: Vec<u16> = urls.iter().map(Url::port).collect();
    assert!(ports.contains(&28337));
    assert!(ports.contains(&35729));
}

#[test]
fn behavior_site_emits_public_noise_too() {
    let site = planted(
        "noisy.example",
        Behavior::NativeApp(NativeApp::AceStream),
        OsSet::ALL,
        1_000,
    );
    let events = visit(&site, Os::MacOs);
    let flows = flows_of(&events);
    let public = flows
        .page_flows()
        .filter_map(|f| f.url())
        .filter_map(|u| Url::parse(u).ok())
        .filter(|u| !u.is_local())
        .count();
    // Main document + the site's 4 ordinary resources.
    assert!(public >= 5, "public flows {public}");
}
