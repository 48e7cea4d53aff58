//! # kt-bench
//!
//! Criterion benchmarks (one target per paper table and figure, plus
//! pipeline and ablation benches) and the `perf` regression binary.
//! `knocktalk repro` prints every regenerated artefact.
//!
//! Shared infrastructure: a lazily-built study at a bench-friendly
//! scale, reused across benchmark functions so Criterion measures the
//! analysis, not repeated crawling; and [`sched`], the static-chunk
//! schedule replay the perf bin compares the crawl pool against.

#![warn(missing_docs)]

pub mod checks;
pub mod prom;
pub mod sched;

use std::sync::OnceLock;

use knock_talk::{Study, StudyConfig};

/// The shared study used by the table/figure benches.
pub fn bench_study() -> &'static Study {
    static STUDY: OnceLock<Study> = OnceLock::new();
    STUDY.get_or_init(|| Study::run(StudyConfig::quick(0xBE7C)))
}
