//! # kt-browser
//!
//! A simulated Google Chrome v84: it loads a [`kt_webgen::WebSite`]'s
//! landing page over the [`kt_simnet`] fabric, executes the page's
//! behaviour plan for the paper's 20-second observation window, and
//! emits faithful [`kt_netlog`] telemetry — the instrument half of the
//! measurement (§3.1).
//!
//! What is modelled, because the paper's analysis depends on it:
//!
//! * serial NetLog source IDs per request flow;
//! * browser-internal traffic on separate sources (the paper filters
//!   it out "based on the network event source");
//! * `localhost` resolving internally without DNS, while public names
//!   go through the resolver (and can fail NAME_NOT_RESOLVED);
//! * WebSocket channels as distinct source types (SOP-exempt);
//! * redirects recorded on the original flow (the paper counts sites
//!   that *redirect* to local destinations);
//! * the 20-second window: flows that outlive it stay in-flight;
//! * Safe Browsing disabled, incognito profile (the paper's config).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod visit;
pub mod world;

pub use config::{BrowserConfig, PnaMode};
pub use kt_webgen::CrawlerProfile;
pub use visit::{Browser, PageLoadOutcome, VisitResult};
pub use world::World;
