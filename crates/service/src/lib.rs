//! Resident multi-tenant campaign service for the knock-talk pipeline.
//!
//! The batch pipeline (`kt-crawler::run_crawl`) owns one campaign from
//! start to finish. This crate turns that into a *resident service*: a
//! [`CampaignService`] that multiplexes many concurrent campaigns —
//! across tenants — over one scheduler, folding each visit result into
//! its campaign's online incremental aggregate, so any campaign's
//! tables are queryable mid-flight.
//!
//! The robustness contract, in one line: **under overload the service
//! degrades predictably — it rejects, blocks, or sheds by policy, it
//! counts everything it refuses, and it never panics or corrupts a
//! journal.** Concretely:
//!
//! - [`admission`]: per-tenant quotas decide up front, with a typed
//!   [`AdmissionError`] per refusal;
//! - [`queue`]: a deterministic [`QueueModel`] per campaign decides
//!   every block and shed as a pure function of the update sequence —
//!   never of thread timing;
//! - [`service`]: batch-synchronous rounds run one job per campaign
//!   and apply its result to that campaign alone, making every
//!   campaign's history serial and therefore identical across worker
//!   counts; deadline budgets cancel cooperatively; `drain` stops the
//!   world with journals synced and resumable.
//!
//! Campaigns run with the same visit/recrawl machinery as the batch
//! path ([`kt_crawler::crawl::run_pool_job`] /
//! [`kt_crawler::crawl::run_recrawl_job`]), so for outage-free
//! configurations a completed service campaign renders tables
//! byte-identical to `run_crawl` + `analyze_crawl_par` — including
//! campaigns that were drained mid-flight and resumed from their
//! journal.

#![warn(missing_docs)]

pub mod admission;
pub mod queue;
pub mod service;

pub use admission::{AdmissionError, TenantQuota};
pub use queue::{OverflowPolicy, QueueModel, QueueVerdict};
pub use service::{
    CampaignHandle, CampaignService, CampaignSpec, CampaignStatus, ServiceConfig, ServiceJob,
    TenantAccounting,
};
