//! # kt-simnet
//!
//! A deterministic, discrete-event simulation of everything outside the
//! browser: the public Internet (DNS, TCP, TLS, web servers), the
//! visitor's machine (which localhost services listen on which OS), and
//! the visitor's LAN (which devices exist at which RFC 1918 addresses).
//!
//! The paper's crawl ran real Chrome against the real Internet from
//! three vantage points. A Rust reproduction cannot re-run that
//! measurement (`repro = 2/5`), so this crate supplies the closest
//! synthetic equivalent: a network whose *statistical behaviour* —
//! load-failure taxonomy and rates (Table 1), per-OS localhost service
//! exposure (§4.1), connection latency by destination class — matches
//! the published results, while exercising the same code paths a real
//! crawl would (resolve → connect → TLS → request → response, each
//! observable as NetLog events).
//!
//! Determinism contract: every sampled quantity is derived from a
//! SplitMix64 hash of a caller-supplied seed and the full identity of
//! the thing being sampled (domain, address, port). Two runs with the
//! same seed produce identical traffic regardless of crawl order or
//! parallelism.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod connectivity;
pub mod dns;
pub mod hostenv;
pub mod latency;
pub mod net;
pub mod rng;
pub mod server;
pub mod tls;

pub use clock::SimClock;
pub use connectivity::ConnectivityChecker;
pub use dns::{DnsError, DnsRecord, DnsResolver};
pub use hostenv::Os;
pub use hostenv::{HostEnv, LanDevice, LocalService};
pub use latency::LatencyModel;
pub use net::{ConnectOutcome, SimNet};
pub use server::{Endpoint, HttpResponse, ServerBehavior};
pub use tls::{CertVerdict, Certificate};
