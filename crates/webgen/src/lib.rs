//! # kt-webgen
//!
//! The synthetic-web generator: website content models and the
//! population planting that reproduces the paper's ground truth.
//!
//! * [`behavior`] — every local-traffic behaviour of §4.3/Appendices
//!   A–C (ThreatMetrix, BIG-IP ASM, native apps, developer errors,
//!   unknown cases) with exact port sets, paths and OS patterns;
//! * [`site`] — the [`WebSite`] model: availability fate (Table 1's
//!   error taxonomy), public-resource noise, planted behaviours;
//! * [`plant`] — the planting plan: class sizes and OS multisets per
//!   population, straight from the paper's tables;
//! * [`population`] — assembly: Tranco snapshots + blocklists +
//!   plantings → three crawlable site populations (top-2020,
//!   top-2021, malicious);
//! * [`sensor`] — anti-bot sensors ([`BotSensor`]) and crawler
//!   profiles ([`CrawlerProfile`]): the measurement-bias model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod behavior;
pub mod plant;
pub mod population;
pub mod sensor;
pub mod site;

pub use behavior::{Behavior, Channel, DevError, NativeApp, PlannedRequest, UnknownKind};
pub use plant::{DelayWindow, PlantSpec};
pub use population::{PopulationConfig, WebPopulation};
pub use sensor::{BotSensor, CrawlerProfile, SensorArchetype, SensorGate};
pub use site::{Availability, PlantedBehavior, SiteCategory, WebSite};
