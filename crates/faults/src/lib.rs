//! # kt-faults
//!
//! The crawl resilience layer's fault model: everything a
//! production-scale measurement crawl must survive, made deterministic
//! so failure-injection tests are one-liners against the same
//! machinery the supervisor runs in anger.
//!
//! * [`plan`] — a seeded [`FaultPlan`] that decides, per `(fault,
//!   domain, attempt)`, whether to inject a transient DNS flap, a
//!   mid-flight connection reset, a truncated NetLog capture, a
//!   store-append failure, or a worker panic. Decisions are keyed by
//!   site identity (like all `simnet` randomness), so they are stable
//!   across runs, worker counts, and crawl order — and each retry
//!   *redraws*, because the attempt number is part of the key. The
//!   service path draws from the same plan: queue overflows, slow
//!   consumer stalls, and tenant bursts ([`Fault::SERVICE`]) key on
//!   update/tenant identity so a resident campaign service degrades
//!   identically whatever the worker count. The active scanner draws
//!   from the same plan too: probe drops and probe delays
//!   ([`Fault::PROBE`]) key on the knock target's identity so a scan
//!   degrades identically whatever the probe worker count;
//! * [`retry`] — the one [`RetryPolicy`] shared by the crawl
//!   supervisor and the active scanner: which net errors count as
//!   transient, how many in-place retries an operation gets,
//!   exponential backoff with deterministic jitter, and whether
//!   still-failing sites join the end-of-campaign recrawl queue.
//!   Centralising the backoff math here is what lets a property test
//!   pin that crawl and scan draw identical schedules for identical
//!   `(seed, key, attempt)`;
//! * [`SalvagedVisit`] — the panic payload an instrumented browser
//!   throws when a visit crashes, carrying the parseable capture
//!   prefix so the supervisor can quarantine the site without losing
//!   the evidence gathered before the crash.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod plan;
pub mod retry;

pub use plan::{Fault, FaultPlan, SalvagedVisit, VisitFaults};
pub use retry::{is_transient, RetryPolicy};
