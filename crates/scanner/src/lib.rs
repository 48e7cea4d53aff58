//! Active local-network probing: the "knock" side of knock-and-talk.
//!
//! The paper's passive pipeline records what website scripts *send* at
//! the visitor's local network during a 20-second capture window. This
//! crate is the complementary ground-truth instrument: a deterministic
//! port scanner that actively knocks TCP and UDP ports on the same
//! simulated [`HostEnv`](kt_simnet::HostEnv) — loopback services on
//! both IP stacks and LAN devices — so analysis can cross-validate
//! passive detection against what is *actually* listening.
//!
//! Robustness is the point, not an afterthought:
//!
//! - every knock has a per-knock timeout drawn against the simulated
//!   latency model, and transient failures retry under the same
//!   [`RetryPolicy`](kt_faults::RetryPolicy) the crawl supervisor uses
//!   (exponential backoff + deterministic jitter — one policy type,
//!   property-tested to agree across consumers);
//! - probe I/O flows through [`kt_faults`] fault plans: seeded DNS
//!   flaps, connection resets, truncated reads, and the probe-specific
//!   [`Fault::ProbeDrop`](kt_faults::Fault) /
//!   [`Fault::ProbeDelay`](kt_faults::Fault) kinds;
//! - per-host circuit breakers trip after consecutive hard failures
//!   and half-open on a clock schedule, so black-holed hosts cannot
//!   starve the sweep;
//! - a total per-scan deadline budget degrades gracefully: when it
//!   runs out the scan returns a partial [`ScanReport`] with an
//!   explicit `unprobed` set — never a panic, never a hang.
//!
//! Determinism is structural: knocks are computed as pure functions of
//! `(seed, target identity, attempt)` in a parallel phase, then folded
//! serially over a virtual clock. Worker count parallelises the pure
//! phase only, so reports are byte-identical across `--concurrency`
//! settings by construction.

#![forbid(unsafe_code)]

pub mod breaker;
pub mod engine;
pub mod probe;
pub mod report;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use engine::{default_port_set, run_scan, ScanConfig};
pub use probe::{AttemptRecord, KnockReport, Payload, PortState, ProbeTarget, Protocol};
pub use report::{record_scan_metrics, ScanReport, SequenceResult};
