//! # kt-netbase
//!
//! Networking vocabulary shared by every crate in the `knock-talk`
//! workspace: IP address locality classification (RFC 1918 and friends),
//! URL schemes with WebSocket awareness, a from-scratch URL parser,
//! web origins with a Same-Origin-Policy decision matrix, and the
//! well-known localhost port/service registry behind Table 4 of the
//! paper.
//!
//! The paper's detection pipeline hinges on exactly two questions that
//! this crate answers authoritatively:
//!
//! 1. *Is a request destination local?* — [`Locality::of_host`]
//!    classifies a parsed host as loopback, RFC 1918 private, or public,
//!    over both IPv4 and IPv6 (the paper checks `localhost`,
//!    `127.0.0.1`, `::1`, and the IANA private ranges).
//! 2. *Could the page read the response?* — [`origin::SopVerdict`]
//!    encodes that plain HTTP fetches are bound by the Same-Origin
//!    Policy while WebSocket connections are not (§4.2 of the paper).
//!
//! It also holds [`rng`], the one seeded hash every crate samples,
//! shards and content-addresses with: SplitMix64, the streamed label
//! hash, FNV-1a and the unit-float draw, each defined once.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod host;
pub mod ip;
pub mod origin;
pub mod os;
pub mod pna;
pub mod rng;
pub mod scheme;
pub mod services;
pub mod url;

pub use error::ParseError;
pub use host::{DomainName, DomainView, Host, HostView};
pub use ip::Locality;
pub use origin::{Origin, SopVerdict};
pub use os::{Os, OsSet};
pub use pna::{AddressSpace, PnaVerdict, PreflightResult};
pub use scheme::Scheme;
pub use services::{PortService, ServiceRegistry, UseCase};
pub use url::{Url, UrlView};
