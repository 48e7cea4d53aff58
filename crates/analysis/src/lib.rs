//! # kt-analysis
//!
//! The measurement instrument: everything the paper computes *from*
//! telemetry lives here, and none of it knows how the telemetry was
//! produced — it would run unchanged over parsed captures from a real
//! Chrome crawl.
//!
//! * [`bias`] — the measurement-bias sweep: crawl the sensor-planted
//!   population once per crawler profile and compare observed against
//!   planted-true local-activity rates (the bias the paper could not
//!   measure, §3.4's limitation);
//! * [`detect`] — find locally-destined requests in visit records
//!   (RQ1): flow reconstruction, browser-traffic filtering, loopback /
//!   RFC 1918 classification, redirect-target accounting;
//! * [`classify`] — recover *why* a site talks to local destinations
//!   (RQ3): ThreatMetrix / BIG-IP signatures, native-app fingerprints,
//!   developer-error heuristics, unknown cases;
//! * [`cdf`] — empirical CDFs for ranks (Figures 3, 9) and request
//!   timing (Figures 5–7);
//! * [`venn`] — per-OS overlap regions (Figure 2);
//! * [`rings`] — OS → scheme → port aggregation (Figures 4, 8);
//! * [`report`] — renderers that regenerate every table of the paper;
//! * [`dev_error`] — the Appendix-B sub-classification of developer
//!   errors;
//! * [`diff`] — the streaming longitudinal diff over N
//!   content-addressed snapshots: behaviour-class churn, adoption
//!   curves, and local-traffic population flows, shard-parallel and
//!   worker-count invariant;
//! * [`defense`] — replay telemetry under the WICG Private Network
//!   Access proposal (§5.3) across adoption scenarios;
//! * [`entropy`] — the §5.2 fingerprinting-entropy measurement over
//!   simulated visitor machines;
//! * [`intern`] — the per-crawl domain interner backing the clone-free
//!   aggregation keys;
//! * [`online`] — mergeable incremental partials for the resident
//!   campaign service: absorb visit records as they stream in, merge
//!   in any order, assemble mid-flight — byte-identical to the batch
//!   driver;
//! * [`par`] — the parallel analysis driver: stream the store shard
//!   by shard across threads, decode each record once, fan it out to
//!   every classifier, and merge deterministically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bias;
pub mod cdf;
pub mod classify;
pub mod crossval;
pub mod defense;
pub mod detect;
pub mod dev_error;
pub mod diff;
pub mod entropy;
pub mod intern;
pub mod longitudinal;
pub mod online;
pub mod par;
pub mod report;
pub mod rings;
pub mod venn;

pub use bias::{
    record_bias_metrics, run_bias_sweep, ArchetypeCell, BiasConfig, BiasReport, ProfileBias,
};
pub use cdf::Ecdf;
pub use classify::{classify_site, ReasonClass};
pub use crossval::{
    crossval_population, record_agreement_metrics, run_cross_validation, AgreementCell,
    AgreementMatrix, CrossCase, CrossValidation, PASSIVE_WINDOW_MS,
};
pub use defense::{AdoptionScenario, DefenseImpact};
pub use detect::{detect_local, LocalObservation, SiteLocalActivity};
pub use dev_error::{classify_dev_error, DevErrorKind};
pub use diff::{diff_snapshots, diff_snapshots_traced, AdoptionRow, FlowRow, SnapshotDiff};
pub use entropy::{scan_entropy, EntropyReport, PortFingerprint};
pub use intern::{DomainInterner, Symbol};
pub use longitudinal::{transitions, Transition, TransitionMatrix};
pub use online::{OnlinePartial, UpdatePass};
pub use par::{analyze_crawl_par, analyze_crawl_traced, CrawlAnalysis, OutcomeTally};
pub use rings::PortRings;
pub use venn::OsVenn;
