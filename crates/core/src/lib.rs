//! # knock-talk
//!
//! A Rust reproduction of *"Knock and Talk: Investigating Local
//! Network Communications on Websites"* (Kuchhal & Li, IMC 2021).
//!
//! The crate wires the workspace together behind one facade:
//!
//! ```no_run
//! use knock_talk::{Study, StudyConfig};
//!
//! let study = Study::run(StudyConfig::quick(42));
//! println!("{}", study.experiment("T5").unwrap());
//! ```
//!
//! * [`Study`] — generate the synthetic web, run all eight crawls
//!   (top-100K 2020 on three OSes, top-100K 2021 on two, malicious on
//!   three), store telemetry, and expose analysis views;
//! * [`experiments`] — one regeneration function per table and figure
//!   of the paper (T1–T11, F2–F9), each returning rendered text.
//!
//! Everything below the facade is public too: `kt-netbase` (URLs, IP
//! locality, Same-Origin Policy), `kt-netlog` (Chrome NetLog model),
//! `kt-simnet` (simulated internet), `kt-weblists`/`kt-webgen`
//! (populations), `kt-browser` (the instrumented browser),
//! `kt-faults` (deterministic fault injection + retry policy),
//! `kt-crawler` (supervised orchestration), `kt-store` (telemetry
//! store), `kt-scanner` (active local-network probing) and
//! `kt-analysis` (detection, classification, reports).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod snapshot;
pub mod study;

pub use snapshot::{
    content_changed, content_version, per_snapshot_logical_bytes, synth_site, SnapshotStudy,
    SnapshotStudyConfig, SnapshotWork, SNAPSHOT_OSES,
};
pub use study::{record_journal_stats, record_save_report, RunOpts, Study, StudyConfig};

pub use kt_analysis as analysis;
pub use kt_browser as browser;
pub use kt_crawler as crawler;
pub use kt_faults as faults;
pub use kt_netbase as netbase;
pub use kt_netlog as netlog;
pub use kt_scanner as scanner;
pub use kt_service as service;
pub use kt_simnet as simnet;
pub use kt_store as store;
pub use kt_trace as trace;
pub use kt_webgen as webgen;
pub use kt_weblists as weblists;
