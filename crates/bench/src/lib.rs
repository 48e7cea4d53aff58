//! # kt-bench
//!
//! The `perf` regression binary and what it shares with its tests:
//! [`checks`], the regression gate against a checked-in baseline;
//! [`prom`], the Prometheus exposition checker; and [`sched`], the
//! static-chunk schedule replay the perf bin compares the crawl pool
//! against. `knocktalk repro` prints every regenerated artefact.

#![warn(missing_docs)]

pub mod checks;
pub mod prom;
pub mod sched;
