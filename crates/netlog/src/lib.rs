//! # kt-netlog
//!
//! A faithful model of Chrome's NetLog — the network logging system the
//! paper records during every page visit (§3.1, "Web Telemetry").
//!
//! NetLog captures are JSON documents of the shape
//!
//! ```json
//! { "constants": { "logEventTypes": {"...": 1}, "logSourceType": {"...": 1},
//!                  "logEventPhase": {"...": 0}, "netError": {"...": -105} },
//!   "events": [ { "time": "12345", "type": 2,
//!                 "source": {"id": 7, "type": 1},
//!                 "phase": 1, "params": {} } ] }
//! ```
//!
//! where `type`, `source.type` and `phase` are integers resolved through
//! the `constants` tables — by name, so a capture that numbers its
//! types as Chrome does reads the same as one we wrote. This crate
//! provides:
//!
//! * [`event`] — typed events ([`NetLogEvent`]) with the fields the
//!   paper enumerates: `time`, `type`, `source` (serial IDs grouping a
//!   flow), and `phase` (`BEGIN`/`END`/`NONE`);
//! * [`constants`] — Chrome's constant tables (event types, source
//!   types, phases, `net_error` codes such as `ERR_NAME_NOT_RESOLVED`);
//! * [`capture`] — reading and writing whole captures. The reader is one
//!   streaming pass that parses one event at a time and keeps every
//!   complete event of a truncated file (Chrome appends events
//!   incrementally, so a crashed browser leaves a syntactically
//!   unterminated array);
//! * [`logger`] — the handle a (simulated) browser uses to emit events
//!   with serial source IDs and monotonic timestamps;
//! * [`view`] — borrowed (`&str`-backed) event views and the
//!   reconstruction of logical request flows by source ID, which is how
//!   the analysis pipeline tells page-initiated requests apart from
//!   browser-internal traffic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capture;
pub mod constants;
pub mod event;
#[cfg(test)]
mod flow;
pub mod logger;
pub mod view;

pub use capture::{Capture, CaptureError};
pub use constants::{EventPhase, EventType, NetError, SourceType};
pub use event::{EventParams, NetLogEvent, SourceRef};
pub use logger::NetLogger;
pub use view::{EventView, FlowOutcome, FlowSetView, FlowView, ParamsView};
