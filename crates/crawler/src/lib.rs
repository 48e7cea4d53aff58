//! # kt-crawler
//!
//! Crawl orchestration, mirroring §3.1's measurement procedure:
//!
//! * a [`vantage::CrawlVantage`] describes one (OS, network) crawl
//!   configuration — Windows/Linux VMs at Georgia Tech, a MacBook on
//!   residential Comcast;
//! * [`crawl::run_crawl`] drives a worker pool (the shared
//!   [`kt_trace::par_indexed`] executor) over a site population:
//!   connectivity pre-check (ping 8.8.8.8), visit, parse, store;
//!   [`crawl::run_crawl_with`] adds an optional resume plan, journal,
//!   and trace;
//! * [`stats::CrawlStats`] accumulates the Table 1 numbers: successful
//!   and failed loads with the error-type breakdown.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crawl;
pub mod incremental;
pub mod observe;
pub mod resume;
pub mod stats;
pub mod vantage;

pub use crawl::{
    run_crawl, run_crawl_with, run_pool_job, run_recrawl_job, simulated_makespan, stagger_ms,
    CrawlConfig, CrawlJob, CrawlOpts, PoolJobEnd, VISIT_WALL_MS,
};
pub use incremental::IncrementalPlan;
pub use observe::{campaign_labels, set_stats_gauges, stats_sink, stats_sink_delta};
pub use resume::{split_campaigns, CampaignReplay, ResumePlan};
pub use stats::CrawlStats;
pub use vantage::{CrawlVantage, NetworkVantage};
