//! # kt-weblists
//!
//! Synthesisers for the two website populations the paper crawls:
//!
//! * a **Tranco-like top list** ([`tranco`]) — ranked domains, with
//!   support for generating a second snapshot that overlaps the first
//!   by a configurable fraction (the paper's 2020 and 2021 snapshots
//!   overlapped ~75%, §3.2);
//! * **blocklists** ([`blocklist`]) — malicious URLs in the paper's
//!   category mix (Table 2: malware 103,541 / abuse 24,958 / phishing
//!   16,426) drawn from SURBL-, URLHaus- and PhishTank-shaped sources,
//!   deduplicated to one URL per domain as the paper does.
//!
//! All generation is seed-deterministic: the same seed yields the same
//! lists, so every downstream table is reproducible byte-for-byte.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blocklist;
pub mod names;
pub mod series;
pub mod tranco;
pub mod zipf;

pub use blocklist::{Blocklist, BlocklistEntry, BlocklistSource, MaliciousCategory};
pub use names::NameForge;
pub use series::{SeriesConfig, SnapshotSeries};
pub use tranco::{RankedDomain, TrancoSnapshot};
pub use zipf::Zipf;
