//! # kt-store
//!
//! The embedded telemetry store standing in for the paper's 11 TB
//! crawl database (§3.2: "We parse and store the network logs in a
//! database for efficient querying").
//!
//! * [`codec`] — a compact varint-based binary encoding for visit
//!   records (a NetLog event costs a handful of bytes instead of the
//!   ~200 bytes of its JSON form);
//! * [`record`] — the [`VisitRecord`]: one (crawl, domain, OS) visit
//!   with its load outcome and events;
//! * [`store`] — [`TelemetryStore`]: append-only segments plus an
//!   in-memory index by crawl/domain/OS, safe for concurrent append
//!   from crawl workers, with full-scan and indexed query paths;
//! * [`frame`] — the one on-disk format: a `KTSTORE2` magic, then
//!   CRC-32 frames (`sync kind len payload crc`); one scanner that
//!   checks every frame once (on every core for a file of 1 MiB or
//!   more, with the same result at any thread count) and resyncs past
//!   damage, and one atomic writer (temp file, fsync, rename,
//!   directory fsync);
//! * [`persist`] — save the store as final visit frames and load it
//!   back by replay, with truncation recovery and corrupt-frame
//!   skipping;
//! * [`journal`] — the write-ahead log on the same frames: per-visit
//!   frames, campaign checkpoints, deterministic crash-point
//!   injection, replay/resume, and the `fsck` store doctor (for
//!   journals and saved stores alike), with group-commit frame
//!   batching behind [`journal::JournalConfig`]; one read of a file
//!   yields the [`JournalSummary`] that replay, fsck, load and resume's
//!   reopen-for-append share, and decodes each visit record once;
//! * [`segment`] — memory-mapped sealed segments: spill a sealed
//!   segment to disk and serve it back through the zero-copy `Bytes`
//!   API via `mmap` (with an explicit resident fallback);
//! * [`snapshot`] — the content-addressed [`SnapshotStore`] for
//!   longitudinal series: identical visit records across snapshots are
//!   stored once as chunk frames in sealed segment files, manifests
//!   link unchanged sites by reference, and [`snapshot_fsck`] audits
//!   the on-disk layout.

#![warn(missing_docs)]

pub mod codec;
pub mod frame;
pub mod journal;
pub mod persist;
pub mod record;
pub mod segment;
pub mod snapshot;
pub mod store;

pub use codec::{decode_view, VisitView};
pub use journal::{
    fsck, replay, CheckpointFrame, FsckOptions, FsckReport, JournalConfig, JournalError,
    JournalMeta, JournalStats, JournalSummary, JournalWriter, KillMode, KillSpec, ReplayReport,
    ReplayedVisit, VisitDelta,
};
pub use persist::{load_any, save, LoadReport, PersistError, SaveReport};
pub use record::{os_slot, slot_os, CrawlId, LoadOutcome, VisitRecord};
pub use segment::{SegmentMode, SpillConfig};
pub use snapshot::{
    canonical_bytes, shard_of, snapshot_fsck, ContentHash, GcReport, IngestOutcome, ManifestEntry,
    SnapshotFsckReport, SnapshotManifest, SnapshotSaveReport, SnapshotStore, CANONICAL_CRAWL,
    SNAPSHOT_SHARDS,
};
pub use store::TelemetryStore;
