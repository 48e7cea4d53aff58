//! The crash-safe campaign journal (write-ahead log).
//!
//! The PR-1/PR-2 pipeline only persisted a whole-store snapshot at
//! end-of-campaign, so a process kill at hour N lost every visit since
//! launch. The journal inverts that: workers append one checksummed
//! frame per *finished* visit as the campaign runs, the supervisor
//! appends a checkpoint frame per completed `(crawl, os)` campaign, and
//! a killed run resumes by replaying the journal and crawling only what
//! is missing. The file is the shared [`crate::frame`] format with the
//! VISIT, CHECKPOINT, FLUSH and META kinds, all in the codec's varints;
//! a saved store ([`crate::persist::save`]) is the same file holding a
//! STORE header and final visit frames, so [`replay`] and [`fsck`] read both.
//!
//! Reading checks each frame once: the scan's CRC, then one full
//! [`decode_view`](crate::decode_view) pass per visit record (run
//! without building its event vector), whose identity the frame body
//! borrows from the file bytes. [`fsck`] and the summary fold
//! allocate no per-frame strings; [`replay`] stores the checked bytes
//! under that identity and builds only the owned [`ReplayedVisit`]s it
//! returns.
//!
//! Recovery properties, in decreasing order of strength:
//!
//! * **Torn tail** (the common crash shape): the scanner loads every
//!   complete frame and truncation repair cuts the partial one.
//! * **Interior corruption** (bit rot, overwrite): the per-frame CRC
//!   rejects the damaged frame and the scanner *resyncs* — scans
//!   forward for the next `F5 4B` that starts a CRC-valid frame — so
//!   one bad frame never swallows the rest of the file.
//! * **Duplicate frames** (crash after journal append, before
//!   checkpoint; or a re-run visit after resume): replay dedupes on
//!   visit identity `(crawl, domain, os)`, last write wins, exactly
//!   like `TelemetryStore::append`.
//!
//! Crash points are *injectable*: a [`KillSpec`] makes the writer stop
//! mid-frame or post-frame at a chosen frame index, simulating a
//! `kill -9` at every interesting byte boundary without forking real
//! processes. `kt-faults` drives the same mechanism per-visit via
//! `Fault::ProcessKill`.

use std::collections::{BTreeMap, BTreeSet};
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use bytes::{BufMut, BytesMut};
use kt_netbase::Os;

use crate::codec::{self, encode, Cursor};
use crate::frame::{self, kind, Frame, MAGIC};
use crate::record::{CrawlId, VisitRecord};
use crate::store::TelemetryStore;

/// Default bytes of visit payload between durability flush points.
/// Matches the sharded store's segment target so one sealed segment's
/// worth of appends is at most what a crash can lose *from the OS page
/// cache* (frames are still complete on disk far more often in
/// practice). Tunable per-writer via [`JournalConfig`].
pub const FLUSH_EVERY: u64 = 512 << 10;

/// Default frames buffered per group commit before the writer issues
/// one batched `write_all`.
pub const GROUP_MAX_FRAMES: u64 = 64;

/// Default byte ceiling on the group-commit buffer.
pub const GROUP_MAX_BYTES: usize = 256 << 10;

/// Writer tuning knobs. The defaults reproduce the repo's historical
/// behavior at every durability boundary: group commit only changes
/// *when* complete frames reach the file (one batched write per group
/// instead of one write per frame), never which bytes are on disk at a
/// flush point, checkpoint, sync, or injected kill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalConfig {
    /// Bytes of visit payload between FLUSH-marker fsync points.
    pub flush_every_bytes: u64,
    /// Buffered frames that force a group commit.
    pub group_max_frames: u64,
    /// Buffered bytes that force a group commit.
    pub group_max_bytes: usize,
}

impl Default for JournalConfig {
    fn default() -> JournalConfig {
        JournalConfig {
            flush_every_bytes: FLUSH_EVERY,
            group_max_frames: GROUP_MAX_FRAMES,
            group_max_bytes: GROUP_MAX_BYTES,
        }
    }
}

impl JournalConfig {
    /// A writer that flushes every frame straight to the file — the
    /// pre-group-commit behavior, kept for ablation benchmarks.
    pub fn unbatched() -> JournalConfig {
        JournalConfig {
            group_max_frames: 1,
            ..JournalConfig::default()
        }
    }
}

/// Visit frame flag: this is the site's *final* record for the pass
/// (terminal success/failure/quarantine, not superseded later).
pub const FLAG_FINAL: u8 = 1;
/// Visit frame flag: produced by the end-of-campaign recrawl pass.
pub const FLAG_RECRAWL: u8 = 2;

// ------------------------------------------------------------- frames

/// Per-visit contribution to `CrawlStats`, journaled alongside the
/// record so a resumed run can reconstruct the merged tally without
/// re-running finished sites. Failure classes travel as raw NetError
/// codes (`NetError::code()`) — the crawler owns the enum.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VisitDelta {
    /// Simulated wall-clock cost of this site on its worker, ms
    /// (everything the scheduler charged: visit, retries, backoff).
    pub cost_ms: u64,
    /// Sites attempted (1 for a final frame, 0 otherwise).
    pub attempted: u64,
    /// Successful loads contributed.
    pub successful: u64,
    /// In-place retries consumed by this site.
    pub retries: u64,
    /// 1 when the recrawl pass revisited this site.
    pub recrawled: u64,
    /// 1 when a transiently-failing site ended as a success.
    pub recovered: u64,
    /// 1 when the site still failed after the recrawl pass.
    pub gave_up: u64,
    /// 1 when the visit was quarantined after a worker panic.
    pub crashed: u64,
    /// Store appends retried for this site.
    pub store_retries: u64,
    /// Failed loads by raw net-error code.
    pub failures: Vec<(i64, u64)>,
}

/// One visit frame as read back from a journal: the visit's identity,
/// its stats contribution and its flags. The record itself goes
/// straight into [`ReplayReport::store`] as the frame's verified bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayedVisit {
    /// Crawl campaign of the visit.
    pub crawl: CrawlId,
    /// Visited domain.
    pub domain: String,
    /// Crawling OS.
    pub os: Os,
    /// Its stats contribution.
    pub delta: VisitDelta,
    /// `FLAG_*` bits.
    pub flags: u8,
}

/// One finished `(crawl, os)` campaign: enough to skip it wholesale on
/// resume. `stats` is the merged `CrawlStats` in the crawler's compact
/// binary encoding (kt-store stays ignorant of the enum-keyed map).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointFrame {
    /// Crawl id, e.g. `top2020`.
    pub crawl: String,
    /// OS name exactly as `Os::name()` prints it
    /// (`Windows`/`Linux`/`Mac`).
    pub os: String,
    /// Every domain with a final record in this campaign.
    pub completed: Vec<String>,
    /// `CrawlStats::to_bytes` blob.
    pub stats: Vec<u8>,
}

/// Campaign parameters written once at journal start; `resume`
/// regenerates the identical deterministic population from these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalMeta {
    /// Master RNG seed (drives population, faults, latencies).
    pub seed: u64,
    /// 2020 toplist size.
    pub top_size: u64,
    /// Malicious-list size.
    pub malicious_size: u64,
    /// Worker count of the original run (informational; resume may use
    /// fewer — outcomes are worker-count-invariant by design).
    pub workers: u64,
}

fn put_delta(buf: &mut BytesMut, delta: &VisitDelta) {
    codec::put_varint(buf, delta.cost_ms);
    codec::put_varint(buf, delta.attempted);
    codec::put_varint(buf, delta.successful);
    codec::put_varint(buf, delta.retries);
    codec::put_varint(buf, delta.recrawled);
    codec::put_varint(buf, delta.recovered);
    codec::put_varint(buf, delta.gave_up);
    codec::put_varint(buf, delta.crashed);
    codec::put_varint(buf, delta.store_retries);
    codec::put_varint(buf, delta.failures.len() as u64);
    for &(code, count) in &delta.failures {
        codec::put_varint(buf, codec::zigzag(code));
        codec::put_varint(buf, count);
    }
}

fn get_delta(c: &mut Cursor<'_>) -> Result<VisitDelta, codec::CodecError> {
    let mut d = VisitDelta {
        cost_ms: c.get_varint()?,
        attempted: c.get_varint()?,
        successful: c.get_varint()?,
        retries: c.get_varint()?,
        recrawled: c.get_varint()?,
        recovered: c.get_varint()?,
        gave_up: c.get_varint()?,
        crashed: c.get_varint()?,
        store_retries: c.get_varint()?,
        failures: Vec::new(),
    };
    let n = c.get_varint()? as usize;
    if n > c.remaining() {
        // Each pair is at least 2 bytes; a count beyond the remaining
        // byte budget is corrupt, not a huge allocation request.
        return Err(codec::CodecError::Truncated);
    }
    for _ in 0..n {
        let code = codec::unzigzag(c.get_varint()?);
        let count = c.get_varint()?;
        d.failures.push((code, count));
    }
    Ok(d)
}

/// A CHECKPOINT payload: crawl, OS, the completed domains (count, then
/// each string), and the stats blob as one length-prefixed byte string.
fn checkpoint_payload(cp: &CheckpointFrame) -> Vec<u8> {
    let mut buf = BytesMut::new();
    codec::put_str(&mut buf, &cp.crawl);
    codec::put_str(&mut buf, &cp.os);
    codec::put_varint(&mut buf, cp.completed.len() as u64);
    for domain in &cp.completed {
        codec::put_str(&mut buf, domain);
    }
    codec::put_varint(&mut buf, cp.stats.len() as u64);
    buf.put_slice(&cp.stats);
    buf.freeze().to_vec()
}

fn get_checkpoint(c: &mut Cursor<'_>) -> Result<CheckpointFrame, codec::CodecError> {
    let (crawl, os) = (c.get_str()?.into(), c.get_str()?.into());
    let n = c.get_varint()? as usize;
    if n > c.remaining() {
        // Each domain is at least its 1-byte length; a count beyond
        // the remaining bytes is corrupt, not an allocation request.
        return Err(codec::CodecError::Truncated);
    }
    let completed = (0..n)
        .map(|_| c.get_str().map(String::from))
        .collect::<Result<_, _>>()?;
    let len = c.get_varint()? as usize;
    let stats = c.take(len)?.to_vec();
    Ok(CheckpointFrame {
        crawl,
        os,
        completed,
        stats,
    })
}

/// A META payload: four varints.
fn meta_payload(meta: &JournalMeta) -> Vec<u8> {
    let mut buf = BytesMut::new();
    for v in [meta.seed, meta.top_size, meta.malicious_size, meta.workers] {
        codec::put_varint(&mut buf, v);
    }
    buf.freeze().to_vec()
}

fn get_meta(c: &mut Cursor<'_>) -> Result<JournalMeta, codec::CodecError> {
    Ok(JournalMeta {
        seed: c.get_varint()?,
        top_size: c.get_varint()?,
        malicious_size: c.get_varint()?,
        workers: c.get_varint()?,
    })
}

/// Serialize a visit frame payload around already-encoded record bytes.
pub(crate) fn visit_payload(record: &[u8], delta: &VisitDelta, flags: u8) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(record.len() + 64);
    buf.put_u8(flags);
    put_delta(&mut buf, delta);
    codec::put_varint(&mut buf, record.len() as u64);
    buf.put_slice(record);
    buf.freeze().to_vec()
}

/// Split a visit payload into its flags, delta and record bytes, and
/// check the record with [`codec::check`], `decode_view`'s pass
/// without the event vector: the only decode a visit frame gets on the
/// read path. Its identity borrows the payload.
fn decode_visit_payload(payload: &[u8]) -> Result<FrameBody<'_>, codec::CodecError> {
    let mut c = Cursor::new(payload);
    if !c.has_remaining() {
        return Err(codec::CodecError::Truncated);
    }
    let flags = c.get_u8();
    let delta = get_delta(&mut c)?;
    let len = c.get_varint()? as usize;
    let record = c.take(len)?;
    let view = codec::check(record)?;
    Ok(FrameBody::Visit {
        crawl: view.crawl,
        domain: view.domain,
        os: view.os,
        delta,
        flags,
        record,
    })
}

// ------------------------------------------------------------- errors

/// Journal-level failures. Frame-level damage is never an `Err` — the
/// scanner degrades to the maximal clean subset and reports counts.
#[derive(Debug)]
pub enum JournalError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file does not start with the journal magic.
    BadMagic,
    /// A CRC-valid frame of this retired kind: the file is a journal
    /// whose CHECKPOINT or META payloads are JSON, refused whole.
    RetiredJson(u8),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal i/o error: {e}"),
            JournalError::BadMagic => write!(f, "not a knock-talk store or journal file"),
            JournalError::RetiredJson(kind) => write!(
                f,
                "retired JSON journal format: its frames of kind {kind} hold JSON checkpoint or \
                 meta payloads, which this version neither reads nor repairs"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        JournalError::Io(e)
    }
}

// ------------------------------------------------------------- writer

/// How an injected crash truncates the write stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillMode {
    /// Die halfway through the frame: sync marker and header reach
    /// disk, the payload is torn, no CRC. The classic torn write.
    MidFrame,
    /// Die right after the frame's last byte but before anything that
    /// follows (checkpoint, fsync, rename): the frame is intact, the
    /// campaign bookkeeping is not.
    PostFrame,
}

/// A deterministic crash point: die while writing frame `at_frame`
/// (0-based, counting every frame kind).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillSpec {
    /// Frame index at which to die.
    pub at_frame: u64,
    /// Where in that frame's write to die.
    pub mode: KillMode,
}

/// Counters describing what a writer has durably appended.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Total frames written (all kinds).
    pub frames: u64,
    /// Visit frames.
    pub visits: u64,
    /// Checkpoint frames.
    pub checkpoints: u64,
    /// Flush points (each implies an fsync).
    pub flush_points: u64,
    /// Bytes appended, including magic (equals the on-disk length once
    /// the group buffer drains).
    pub bytes: u64,
    /// `fsync` calls issued.
    pub fsyncs: u64,
    /// Batched `write_all` calls that drained the group buffer.
    pub group_commits: u64,
    /// Frames that reached the file through a group of more than one
    /// (i.e. whose write syscall was amortized).
    pub grouped_frames: u64,
}

impl JournalStats {
    /// Frames per fsync — the amortization the group commit buys.
    pub fn frames_per_fsync(&self) -> f64 {
        if self.fsyncs == 0 {
            0.0
        } else {
            self.frames as f64 / self.fsyncs as f64
        }
    }
}

struct WriterInner {
    file: File,
    stats: JournalStats,
    since_flush: u64,
    kill: Option<KillSpec>,
    error: Option<String>,
    /// Complete encoded frames not yet handed to the file: the group
    /// buffer. Drained by one `write_all` when the group fills, before
    /// any fsync, before any torn kill write, and on drop.
    pending: Vec<u8>,
    /// Frames currently in `pending`.
    pending_frames: u64,
    config: JournalConfig,
}

impl WriterInner {
    /// Drain the group buffer with a single batched write.
    fn flush_pending(&mut self) -> io::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        self.file.write_all(&self.pending)?;
        self.stats.group_commits += 1;
        if self.pending_frames > 1 {
            self.stats.grouped_frames += self.pending_frames;
        }
        self.pending.clear();
        self.pending_frames = 0;
        Ok(())
    }
}

/// Append-only journal writer, shared across crawl workers. All frame
/// appends serialize through one mutex — the paper's bottleneck is the
/// 21-second page visit, not the journal write — and a simulated kill
/// (or a real I/O error) flips the `killed` latch that workers poll to
/// stop claiming jobs, mimicking a process death without taking the
/// test harness down with it.
pub struct JournalWriter {
    inner: Mutex<WriterInner>,
    killed: AtomicBool,
    path: PathBuf,
}

impl JournalWriter {
    /// Create a fresh journal at `path` (truncates any existing file),
    /// writing and fsyncing the magic so even an immediately-killed
    /// campaign leaves a well-formed empty journal.
    pub fn create(path: &Path) -> Result<JournalWriter, JournalError> {
        JournalWriter::create_with(path, JournalConfig::default())
    }

    /// [`JournalWriter::create`] with explicit tuning knobs.
    pub fn create_with(path: &Path, config: JournalConfig) -> Result<JournalWriter, JournalError> {
        let mut file = File::create(path)?;
        file.write_all(MAGIC)?;
        file.sync_all()?;
        let stats = JournalStats {
            bytes: MAGIC.len() as u64,
            fsyncs: 1,
            ..JournalStats::default()
        };
        Ok(JournalWriter::over(file, stats, config, path))
    }

    /// Reopen a replayed journal for appending: truncate it back to
    /// the summary's `valid_end` (the torn tail goes) and position at
    /// the end. The file is not read again; `summary` must be the
    /// [`replay`] of `path`, with nothing written to it since. Interior
    /// corruption (if any) is left in place — replay resyncs past it;
    /// [`fsck`] with `repair` rewrites it out.
    pub fn open_append(
        path: &Path,
        summary: &JournalSummary,
    ) -> Result<JournalWriter, JournalError> {
        JournalWriter::open_append_with(path, summary, JournalConfig::default())
    }

    /// [`JournalWriter::open_append`] with explicit tuning knobs.
    pub fn open_append_with(
        path: &Path,
        summary: &JournalSummary,
        config: JournalConfig,
    ) -> Result<JournalWriter, JournalError> {
        let mut file = OpenOptions::new().write(true).open(path)?;
        if file.metadata()?.len() < summary.valid_end {
            // Growing the file would append zeros, not frames.
            return Err(JournalError::Io(io::Error::new(
                io::ErrorKind::InvalidInput,
                "the replay summary describes a longer file than the journal",
            )));
        }
        file.set_len(summary.valid_end)?;
        file.sync_all()?;
        file.seek(SeekFrom::End(0))?;
        let stats = JournalStats {
            frames: summary.frames as u64,
            visits: summary.visits as u64,
            checkpoints: summary.checkpoints as u64,
            flush_points: summary.flush_points as u64,
            bytes: summary.valid_end,
            fsyncs: 1,
            ..JournalStats::default()
        };
        Ok(JournalWriter::over(file, stats, config, path))
    }

    /// A live writer appending to `file`, which already holds what
    /// `stats` describes.
    fn over(file: File, stats: JournalStats, config: JournalConfig, path: &Path) -> JournalWriter {
        JournalWriter {
            inner: Mutex::new(WriterInner {
                file,
                stats,
                since_flush: 0,
                kill: None,
                error: None,
                pending: Vec::new(),
                pending_frames: 0,
                config,
            }),
            killed: AtomicBool::new(false),
            path: path.to_path_buf(),
        }
    }

    /// Arm (or disarm) a deterministic crash point.
    pub fn set_kill(&self, kill: Option<KillSpec>) {
        self.inner.lock().unwrap().kill = kill;
    }

    /// Journal path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// True once a kill point fired or an I/O error latched. Workers
    /// poll this between jobs, like checking whether the process they
    /// live in is still alive.
    pub fn killed(&self) -> bool {
        self.killed.load(Ordering::Acquire)
    }

    /// The latched I/O error, if the writer died of one.
    pub fn error(&self) -> Option<String> {
        self.inner.lock().unwrap().error.clone()
    }

    /// The latched I/O error as one line naming this journal and its
    /// frame count: `journal PATH failed after N frames: ERROR`.
    pub fn failure(&self) -> Option<String> {
        let inner = self.inner.lock().unwrap();
        let e = inner.error.as_ref()?;
        Some(format!(
            "journal {} failed after {} frames: {e}",
            self.path.display(),
            inner.stats.frames
        ))
    }

    /// Durability counters so far.
    pub fn stats(&self) -> JournalStats {
        self.inner.lock().unwrap().stats
    }

    /// Append one finished visit. `kill_now` is the per-visit
    /// `Fault::ProcessKill` decision: die (torn, mid-frame) while
    /// writing exactly this frame.
    pub fn append_visit(
        &self,
        record: &VisitRecord,
        delta: &VisitDelta,
        flags: u8,
        kill_now: bool,
    ) {
        self.append_encoded_visit(&encode(record), delta, flags, kill_now);
    }

    /// [`JournalWriter::append_visit`] for a record already encoded,
    /// such as the bytes `TelemetryStore::append` returns, so a visit
    /// that goes to both the store and the journal is encoded once.
    pub fn append_encoded_visit(
        &self,
        record: &[u8],
        delta: &VisitDelta,
        flags: u8,
        kill_now: bool,
    ) {
        let payload = visit_payload(record, delta, flags);
        self.append_frame(kind::VISIT, &payload, kill_now);
        if self.killed() {
            return;
        }
        // Durability flush point: seal roughly one store segment's
        // worth of visit bytes per fsync.
        let due = {
            let inner = self.inner.lock().unwrap();
            inner.since_flush >= inner.config.flush_every_bytes
        };
        if due {
            self.append_frame(kind::FLUSH, &[], false);
            self.sync();
        }
    }

    /// Append a campaign checkpoint and fsync: a completed `(crawl,
    /// os)` must survive any crash that happens after this returns.
    pub fn append_checkpoint(&self, cp: &CheckpointFrame) {
        self.append_frame(kind::CHECKPOINT, &checkpoint_payload(cp), false);
        self.sync();
    }

    /// Append the campaign-parameters frame and fsync.
    pub fn append_meta(&self, meta: &JournalMeta) {
        self.append_frame(kind::META, &meta_payload(meta), false);
        self.sync();
    }

    /// Force everything written so far to disk.
    pub fn sync(&self) {
        if self.killed() {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        // Re-check under the lock: a writer blocked here while another
        // thread hit the kill boundary must not outlive the "process".
        if inner.error.is_some() || self.killed() {
            return;
        }
        // An fsync promises durability for every frame appended so
        // far, so the group buffer drains first.
        match inner.flush_pending().and_then(|()| inner.file.sync_all()) {
            Ok(()) => inner.stats.fsyncs += 1,
            Err(e) => {
                inner.error = Some(e.to_string());
                self.killed.store(true, Ordering::Release);
            }
        }
    }

    fn append_frame(&self, frame_kind: u8, payload: &[u8], kill_now: bool) {
        if self.killed() {
            return;
        }
        // The frame and its CRC are built before the lock is taken.
        let mut frame = Vec::new();
        frame::put(&mut frame, frame_kind, payload);
        let mut inner = self.inner.lock().unwrap();
        // Re-check under the lock. Without this, a worker that passed
        // the latch check and then blocked on the mutex while another
        // thread died mid-frame would append a whole frame *after* the
        // torn write — bytes from a thread that outlived the simulated
        // `kill -9`, which no real crash can produce. The latch is also
        // set *before* the lock is released (below) so the two checks
        // can never both read stale state.
        if inner.error.is_some() || self.killed() {
            return;
        }
        let index = inner.stats.frames;
        let armed = match inner.kill {
            Some(k) if k.at_frame == index => Some(k.mode),
            _ => None,
        };
        let mode = if kill_now {
            Some(KillMode::MidFrame)
        } else {
            armed
        };
        let outcome: io::Result<bool> = (|| match mode {
            Some(KillMode::MidFrame) => {
                // The torn write: header plus roughly half the payload
                // reach disk, never the CRC. Buffered frames drain
                // first — a real process already issued those writes;
                // only the frame being written tears — then everything
                // is flushed so the damage is durable, exactly as an
                // unlucky page-cache writeback would leave it. The
                // on-disk bytes at this boundary are identical to the
                // unbatched writer's.
                inner.flush_pending()?;
                let cut = 3 + (frame.len() - 7) / 2;
                inner.file.write_all(&frame[..cut])?;
                inner.file.sync_all()?;
                inner.stats.bytes += cut as u64;
                inner.stats.fsyncs += 1;
                Ok(true)
            }
            Some(KillMode::PostFrame) => {
                inner.flush_pending()?;
                inner.file.write_all(&frame)?;
                inner.file.sync_all()?;
                inner.stats.bytes += frame.len() as u64;
                inner.stats.fsyncs += 1;
                inner.stats.frames += 1;
                Ok(true)
            }
            None => {
                inner.pending.extend_from_slice(&frame);
                inner.pending_frames += 1;
                inner.stats.bytes += frame.len() as u64;
                inner.stats.frames += 1;
                match frame_kind {
                    kind::VISIT => {
                        inner.stats.visits += 1;
                        inner.since_flush += frame.len() as u64;
                    }
                    kind::CHECKPOINT => inner.stats.checkpoints += 1,
                    kind::FLUSH => {
                        inner.stats.flush_points += 1;
                        inner.since_flush = 0;
                    }
                    _ => {}
                }
                if inner.pending_frames >= inner.config.group_max_frames
                    || inner.pending.len() >= inner.config.group_max_bytes
                {
                    inner.flush_pending()?;
                }
                Ok(false)
            }
        })();
        match outcome {
            Ok(false) => {}
            Ok(true) => {
                self.killed.store(true, Ordering::Release);
            }
            Err(e) => {
                inner.error = Some(e.to_string());
                self.killed.store(true, Ordering::Release);
            }
        }
    }
}

impl Drop for JournalWriter {
    fn drop(&mut self) {
        // A dead "process" writes nothing after the kill point; a live
        // writer drains its group buffer so every appended frame is in
        // the file (durability still comes from the flush cadence).
        if self.killed() {
            return;
        }
        if let Ok(mut inner) = self.inner.lock() {
            if inner.error.is_none() {
                let _ = inner.flush_pending();
            }
        }
    }
}

// ------------------------------------------------------------ scanner

/// One journal frame's payload, decoded by kind.
#[derive(Debug)]
pub enum FrameBody<'a> {
    /// A visit frame: identity, delta and flags, plus the record bytes
    /// (already checked by [`decode_view`](crate::decode_view)'s
    /// pass). The identity's strings borrow the record bytes.
    Visit {
        /// Crawl campaign of the visit.
        crawl: &'a str,
        /// Visited domain.
        domain: &'a str,
        /// Crawling OS.
        os: Os,
        /// Its stats contribution.
        delta: VisitDelta,
        /// `FLAG_*` bits.
        flags: u8,
        /// The codec-encoded record, borrowed from the scanned bytes.
        record: &'a [u8],
    },
    /// A checkpoint frame.
    Checkpoint(CheckpointFrame),
    /// A flush marker.
    Flush,
    /// The campaign-parameters frame.
    Meta(JournalMeta),
    /// A saved store's header: the visit frames that follow it.
    Store(u64),
    /// CRC-valid frame of a kind this reader does not know (forward
    /// compatibility: its payload stays on the frame, never dropped).
    Unknown,
}

/// A scanned journal: every recoverable frame plus damage accounting.
pub type ScanReport<'a> = frame::Scan<'a, FrameBody<'a>>;

fn parse_frame(kind_byte: u8, payload: &[u8]) -> Option<FrameBody<'_>> {
    Some(match kind_byte {
        kind::VISIT => decode_visit_payload(payload).ok()?,
        kind::CHECKPOINT => FrameBody::Checkpoint(get_checkpoint(&mut Cursor::new(payload)).ok()?),
        kind::FLUSH => FrameBody::Flush,
        kind::META => FrameBody::Meta(get_meta(&mut Cursor::new(payload)).ok()?),
        kind::STORE => FrameBody::Store(u64::from_le_bytes(payload.try_into().ok()?)),
        _ => FrameBody::Unknown,
    })
}

/// Scan raw journal bytes into the maximal clean subset of frames. A
/// CRC-valid frame whose payload does not decode (a visit record that
/// fails [`decode_view`](crate::decode_view), say) is damage like a
/// CRC mismatch. Never panics, never errors on frame damage — only on
/// a missing magic, or on a CRC-valid frame of a retired JSON kind,
/// which no damage makes.
pub fn scan(data: &[u8]) -> Result<ScanReport<'_>, JournalError> {
    checked(frame::scan(data, parse_frame))
}

/// A frame scan, refused whole without the magic or with a retired
/// JSON frame.
fn checked(scan: Option<ScanReport<'_>>) -> Result<ScanReport<'_>, JournalError> {
    let scan = scan.ok_or(JournalError::BadMagic)?;
    match scan
        .frames
        .iter()
        .find(|f| kind::RETIRED_JSON.contains(&f.kind))
    {
        Some(f) => Err(JournalError::RetiredJson(f.kind)),
        None => Ok(scan),
    }
}

/// Everything one read of a journal or saved-store file finds: frame
/// counts, record cross-checks and damage. [`replay`], [`fsck`],
/// [`crate::persist::load_any`] and [`JournalWriter::open_append`] all
/// take it from the same fold.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalSummary {
    /// Valid frames (all kinds).
    pub frames: usize,
    /// Valid visit frames.
    pub visits: usize,
    /// Checkpoint frames.
    pub checkpoints: usize,
    /// Flush markers.
    pub flush_points: usize,
    /// Final visit frames whose identity `(crawl, domain, os)` repeats
    /// — the crash-between-append-and-checkpoint duplicates that
    /// replay collapses (last write wins).
    pub duplicate_finals: usize,
    /// Final visit frames written before a checkpoint that does *not*
    /// list their domain as completed — evidence the checkpoint and
    /// journal disagree (a frame survived that bookkeeping lost).
    pub orphan_records: usize,
    /// Domains a checkpoint claims completed with no surviving final
    /// frame (the checkpoint outlived a corrupted visit frame), plus
    /// visit frames a saved store's header declares that are gone.
    pub missing_records: usize,
    /// Corrupt byte spans skipped by resync (failed CRC, framing, or
    /// payload decode).
    pub corrupt_frames: usize,
    /// Bytes in those spans.
    pub corrupt_bytes: u64,
    /// True when the file ends mid-frame, or at its magic: every writer
    /// appends a frame (STORE or META) first, so only a cut file has none.
    pub truncated_tail: bool,
    /// Bytes in the torn tail.
    pub tail_bytes: u64,
    /// End offset of the last valid frame: reopening for append cuts
    /// the file here.
    pub valid_end: u64,
}

impl JournalSummary {
    /// A file with nothing wrong: every frame valid, the tail
    /// complete, no duplicate, orphan or missing record.
    pub fn clean(&self) -> bool {
        self.corrupt_frames == 0
            && !self.truncated_tail
            && self.duplicate_finals == 0
            && self.orphan_records == 0
            && self.missing_records == 0
    }

    /// True when the file lost records no corrupt span explains: it
    /// ends mid-frame, or was cut at a frame boundary short of what its
    /// checkpoints or a saved store's header declare.
    pub fn truncated(&self) -> bool {
        self.truncated_tail || (self.corrupt_frames == 0 && self.missing_records > 0)
    }

    /// Bytes outside every valid frame: corrupt spans plus torn tail.
    pub fn damaged_bytes(&self) -> u64 {
        self.corrupt_bytes + self.tail_bytes
    }
}

/// The one reader of journal and saved-store files: read `path`, scan
/// it, and [`summarize`] the scan. Returns the file's bytes with the
/// summary.
fn read(
    path: &Path,
    each: impl FnMut(Frame<'_, FrameBody<'_>>),
) -> Result<(Vec<u8>, JournalSummary), JournalError> {
    let data = std::fs::read(path)?;
    let summary = summarize(scan(&data)?, each);
    Ok((data, summary))
}

/// Fold every valid frame into the [`JournalSummary`] — counts,
/// duplicate finals, checkpoint and STORE-header cross-checks, in file
/// order — before handing the frame to `each`. Final frames are keyed
/// by their borrowed identity and grouped per `(crawl, OS)`, so a
/// checkpoint is checked against its own campaign's finals only.
fn summarize<'a>(
    scan: ScanReport<'a>,
    mut each: impl FnMut(Frame<'a, FrameBody<'a>>),
) -> JournalSummary {
    let mut sum = JournalSummary {
        frames: scan.frames.len(),
        corrupt_frames: scan.corrupt_spans.len(),
        corrupt_bytes: scan.corrupt_bytes(),
        truncated_tail: scan.truncated_tail || scan.file_len == MAGIC.len() as u64,
        tail_bytes: scan.tail_bytes(),
        valid_end: scan.valid_end,
        ..JournalSummary::default()
    };
    // (crawl, OS name) -> domains with a final frame so far.
    let mut finals: BTreeMap<(&str, &str), BTreeSet<&str>> = BTreeMap::new();
    let mut declared = 0u64;
    for frame in scan.frames {
        match &frame.body {
            FrameBody::Visit {
                crawl,
                domain,
                os,
                flags,
                ..
            } => {
                sum.visits += 1;
                if flags & FLAG_FINAL != 0
                    && !finals.entry((crawl, os.name())).or_default().insert(domain)
                {
                    sum.duplicate_finals += 1;
                }
            }
            FrameBody::Checkpoint(cp) => {
                sum.checkpoints += 1;
                let listed: BTreeSet<&str> = cp.completed.iter().map(|s| s.as_str()).collect();
                let group = finals.get(&(cp.crawl.as_str(), cp.os.as_str()));
                let finals_here = group.map_or(0, BTreeSet::len);
                let seen_here =
                    group.map_or(0, |g| listed.iter().filter(|d| g.contains(*d)).count());
                sum.orphan_records += finals_here - seen_here;
                sum.missing_records += cp.completed.len().saturating_sub(seen_here);
            }
            FrameBody::Flush => sum.flush_points += 1,
            FrameBody::Store(n) => declared = *n,
            FrameBody::Meta(_) | FrameBody::Unknown => {}
        }
        each(frame);
    }
    sum.missing_records += (declared as usize).saturating_sub(sum.visits);
    sum
}

// ------------------------------------------------------------- replay

/// A journal replayed into usable state.
#[derive(Debug)]
pub struct ReplayReport {
    /// Store rebuilt from every valid visit frame (idempotent
    /// last-write-wins append, same as the live store).
    pub store: TelemetryStore,
    /// Every valid visit frame, in journal order.
    pub visits: Vec<ReplayedVisit>,
    /// Every checkpoint, in journal order.
    pub checkpoints: Vec<CheckpointFrame>,
    /// The campaign-parameters frame, if present.
    pub meta: Option<JournalMeta>,
    /// Counts, record cross-checks and damage from the read.
    pub summary: JournalSummary,
}

/// Replay a journal (or a saved store) from disk. Each visit record
/// is decoded once: the scan runs [`decode_view`](crate::decode_view)'s
/// pass over it, without the event vector, to check it and read its
/// identity, and its verified bytes go into the store under that
/// identity, never decoded again, into an owned record or re-encoded.
/// Frame damage degrades, never fails.
pub fn replay(path: &Path) -> Result<ReplayReport, JournalError> {
    let store = TelemetryStore::new();
    let mut visits = Vec::new();
    let mut checkpoints = Vec::new();
    let mut meta = None;
    let (_, summary) = read(path, |frame| match frame.body {
        FrameBody::Visit {
            crawl,
            domain,
            os,
            delta,
            flags,
            record,
        } => {
            store.insert(crawl, domain, os, record);
            visits.push(ReplayedVisit {
                crawl: CrawlId(crawl.to_string()),
                domain: domain.to_string(),
                os,
                delta,
                flags,
            });
        }
        FrameBody::Checkpoint(cp) => checkpoints.push(cp),
        FrameBody::Meta(m) => meta = Some(m),
        FrameBody::Flush | FrameBody::Store(_) | FrameBody::Unknown => {}
    })?;
    Ok(ReplayReport {
        store,
        visits,
        checkpoints,
        meta,
        summary,
    })
}

// --------------------------------------------------------------- fsck

/// `fsck` knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct FsckOptions {
    /// Rewrite a clean journal in place (tmp + fsync + rename) and
    /// quarantine damaged byte ranges next to it.
    pub repair: bool,
    /// Test hook for the mid-rename crash boundary: do everything
    /// except the final rename, leaving the fsynced `.tmp` beside the
    /// untouched original — exactly the on-disk state a kill between
    /// fsync and rename leaves behind.
    pub kill_before_rename: bool,
}

/// What the store doctor found (and, with `repair`, fixed).
#[derive(Debug)]
pub struct FsckReport {
    /// Counts, record cross-checks and damage from the read.
    pub summary: JournalSummary,
    /// True when the file was rewritten in place with its valid frames
    /// only.
    pub repaired: bool,
    /// The `.quarantine` file the damaged bytes were moved to, if any.
    pub quarantine_path: Option<PathBuf>,
}

/// Scan a journal or saved store for damage; optionally rewrite it
/// with its valid frames only. Builds no store. Never panics on
/// arbitrary input (fuzzed in tests).
pub fn fsck(path: &Path, options: FsckOptions) -> Result<FsckReport, JournalError> {
    let mut kept = Vec::new();
    let (data, summary) = read(path, |f| kept.push(f.start as usize..f.end as usize))?;
    let mut report = FsckReport {
        summary,
        repaired: false,
        quarantine_path: None,
    };
    if !options.repair {
        return Ok(report);
    }
    let tmp = frame::tmp_path(path);
    frame::write_synced(&tmp, |out| {
        out.write_all(MAGIC)?;
        for f in &kept {
            out.write_all(&data[f.clone()])?;
        }
        Ok(())
    })?;
    if summary.damaged_bytes() > 0 {
        let qpath = frame::sibling(path, "quarantine");
        // The bytes between and after the valid frames: every corrupt
        // span, then the torn tail, in file order.
        frame::write_synced(&qpath, |q| {
            let mut at = MAGIC.len();
            for f in &kept {
                q.write_all(&data[at..f.start])?;
                at = f.end;
            }
            q.write_all(&data[at..])
        })?;
        report.quarantine_path = Some(qpath);
    }
    if options.kill_before_rename {
        // Crash boundary: fsynced tmp exists, original untouched.
        return Ok(report);
    }
    frame::commit(&tmp, path)?;
    report.repaired = true;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{crc32, CRC_TABLES, SYNC};

    /// The byte-at-a-time CRC-32 the sliced one must equal.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }
    use crate::record::LoadOutcome;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("kt-journal-{name}-{}", std::process::id()))
    }

    fn sample_record(i: usize, os: Os) -> VisitRecord {
        VisitRecord {
            crawl: CrawlId::top2020(),
            domain: format!("site{i}.example"),
            rank: Some(i as u32 + 1),
            malicious_category: None,
            os,
            outcome: LoadOutcome::Success,
            loaded_at_ms: 1_000 + i as u64,
            events: Vec::new(),
        }
    }

    /// Append site `i`'s final frame on `os`.
    fn append_final(w: &JournalWriter, i: usize, os: Os) {
        w.append_visit(&sample_record(i, os), &sample_delta(i), FLAG_FINAL, false);
    }

    fn sample_delta(i: usize) -> VisitDelta {
        VisitDelta {
            cost_ms: 21_000 + i as u64,
            attempted: 1,
            successful: 1,
            retries: (i % 3) as u64,
            failures: if i.is_multiple_of(4) {
                vec![(-105, 1), (-102, 2)]
            } else {
                Vec::new()
            },
            ..VisitDelta::default()
        }
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The canonical CRC-32 test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn sliced_crc_matches_the_bytewise_reference_at_every_length() {
        // Deterministic pseudo-random payload; every length 0..=257
        // exercises all chunk remainders around the 8-byte word size.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let data: Vec<u8> = (0..257)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as u8
            })
            .collect();
        for len in 0..=data.len() {
            assert_eq!(
                crc32(&data[..len]),
                crc32_bytewise(&data[..len]),
                "sliced and bytewise CRC diverge at len {len}"
            );
        }
    }

    #[test]
    fn group_commit_buffers_frames_until_sync_then_matches_stats() {
        let path = tmp("groupbuf");
        let w = JournalWriter::create_with(
            &path,
            JournalConfig {
                group_max_frames: 1_000,
                group_max_bytes: usize::MAX,
                ..JournalConfig::default()
            },
        )
        .unwrap();
        for i in 0..10 {
            append_final(&w, i, Os::Linux);
        }
        // Nothing but the magic has reached the file yet.
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            MAGIC.len() as u64,
            "frames are buffered, not written"
        );
        assert_eq!(w.stats().frames, 10, "logical appends counted");
        w.sync();
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            w.stats().bytes,
            "sync drains the group buffer"
        );
        let stats = w.stats();
        assert_eq!(stats.group_commits, 1, "one batched write for the group");
        assert_eq!(stats.grouped_frames, 10);
        assert!(stats.frames_per_fsync() > 1.0);
        let report = replay(&path).unwrap();
        assert_eq!(report.visits.len(), 10);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn group_commit_file_is_byte_identical_to_the_unbatched_writer() {
        let grouped = tmp("group-eq-a");
        let unbatched = tmp("group-eq-b");
        for (path, config) in [
            (&grouped, JournalConfig::default()),
            (&unbatched, JournalConfig::unbatched()),
        ] {
            let w = JournalWriter::create_with(path, config).unwrap();
            w.append_meta(&JournalMeta {
                seed: 7,
                top_size: 100,
                malicious_size: 40,
                workers: 4,
            });
            for i in 0..40 {
                append_final(&w, i, Os::ALL[i % 3]);
            }
            w.append_checkpoint(&CheckpointFrame {
                crawl: "top2020".into(),
                os: "Linux".into(),
                completed: (0..40).map(|i| format!("site{i}.example")).collect(),
                stats: vec![1, 2, 3],
            });
            w.sync();
        }
        assert_eq!(
            std::fs::read(&grouped).unwrap(),
            std::fs::read(&unbatched).unwrap(),
            "group commit changes syscalls, never bytes"
        );
        std::fs::remove_file(&grouped).ok();
        std::fs::remove_file(&unbatched).ok();
    }

    #[test]
    fn kill_with_buffered_frames_leaves_the_unbatched_writers_bytes() {
        // A kill while frames sit in the group buffer must leave the
        // exact on-disk state the unbatched writer would: every prior
        // frame complete, the kill frame torn (or whole, PostFrame).
        for mode in [KillMode::MidFrame, KillMode::PostFrame] {
            let grouped = tmp(&format!("group-kill-a-{mode:?}"));
            let unbatched = tmp(&format!("group-kill-b-{mode:?}"));
            for (path, config) in [
                (&grouped, JournalConfig::default()),
                (&unbatched, JournalConfig::unbatched()),
            ] {
                let w = JournalWriter::create_with(path, config).unwrap();
                w.set_kill(Some(KillSpec { at_frame: 7, mode }));
                for i in 0..12 {
                    append_final(&w, i, Os::Linux);
                }
                assert!(w.killed(), "kill fired with frames in flight");
            }
            assert_eq!(
                std::fs::read(&grouped).unwrap(),
                std::fs::read(&unbatched).unwrap(),
                "kill boundary bytes diverge in {mode:?}"
            );
            let report = replay(&grouped).unwrap();
            let expected = if mode == KillMode::PostFrame { 8 } else { 7 };
            assert_eq!(report.visits.len(), expected);
            std::fs::remove_file(&grouped).ok();
            std::fs::remove_file(&unbatched).ok();
        }
    }

    #[test]
    fn dropping_a_live_writer_drains_the_group_buffer() {
        let path = tmp("group-drop");
        let w = JournalWriter::create_with(
            &path,
            JournalConfig {
                group_max_frames: 1_000,
                group_max_bytes: usize::MAX,
                ..JournalConfig::default()
            },
        )
        .unwrap();
        for i in 0..5 {
            append_final(&w, i, Os::Linux);
        }
        drop(w);
        let report = replay(&path).unwrap();
        assert_eq!(report.visits.len(), 5, "drop flushed the buffer");
        assert!(!report.summary.truncated_tail);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flush_cadence_is_configurable() {
        let path = tmp("cadence");
        let w = JournalWriter::create_with(
            &path,
            JournalConfig {
                flush_every_bytes: 1_024,
                ..JournalConfig::default()
            },
        )
        .unwrap();
        let mut i = 0;
        while w.stats().bytes < 4_096 {
            append_final(&w, i, Os::Linux);
            i += 1;
        }
        assert!(
            w.stats().flush_points >= 2,
            "a 1 KiB cadence flushes a 4 KiB journal repeatedly, got {:?}",
            w.stats()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn journal_round_trips_visits_checkpoints_and_meta() {
        let path = tmp("roundtrip");
        let w = JournalWriter::create(&path).unwrap();
        w.append_meta(&JournalMeta {
            seed: 7,
            top_size: 100,
            malicious_size: 40,
            workers: 4,
        });
        for i in 0..25 {
            append_final(&w, i, Os::ALL[i % 3]);
        }
        w.append_checkpoint(&CheckpointFrame {
            crawl: "top2020".into(),
            os: "Linux".into(),
            completed: (0..25).map(|i| format!("site{i}.example")).collect(),
            stats: vec![1, 2, 3],
        });
        w.sync();
        let report = replay(&path).unwrap();
        assert_eq!(report.visits.len(), 25);
        assert_eq!(report.checkpoints.len(), 1);
        assert_eq!(report.meta.unwrap().seed, 7);
        assert_eq!(report.summary.duplicate_finals, 0);
        assert_eq!(report.summary.corrupt_frames, 0);
        assert!(!report.summary.truncated_tail);
        let third = &report.visits[3];
        assert_eq!(third.delta, sample_delta(3));
        assert_eq!(
            (third.crawl.clone(), third.domain.as_str(), third.os),
            (CrawlId::top2020(), "site3.example", Os::ALL[0])
        );
        assert_eq!(
            report.store.get(&third.crawl, &third.domain, third.os),
            Some(sample_record(3, Os::ALL[0])),
            "the frame's record bytes land in the store unchanged"
        );
        assert_eq!(report.store.len(), 25);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn replay_dedupes_duplicate_final_frames() {
        let path = tmp("dedupe");
        let w = JournalWriter::create(&path).unwrap();
        let rec = sample_record(1, Os::Linux);
        w.append_visit(&rec, &sample_delta(1), FLAG_FINAL, false);
        w.append_visit(&rec, &sample_delta(1), FLAG_FINAL, false);
        w.append_visit(&rec, &sample_delta(1), FLAG_FINAL, false);
        w.sync();
        let report = replay(&path).unwrap();
        assert_eq!(report.visits.len(), 3, "frames are all there");
        assert_eq!(
            report.summary.duplicate_finals, 2,
            "two are crash duplicates"
        );
        assert_eq!(report.store.len(), 1, "the store keeps one (idempotent)");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mid_frame_kill_leaves_a_repairable_torn_tail() {
        let path = tmp("midframe");
        let w = JournalWriter::create(&path).unwrap();
        for i in 0..3 {
            append_final(&w, i, Os::Linux);
        }
        w.append_checkpoint(&CheckpointFrame {
            crawl: "top2020".into(),
            os: "Linux".into(),
            completed: (0..3).map(|i| format!("site{i}.example")).collect(),
            stats: vec![1, 2, 3],
        });
        append_final(&w, 3, Os::Windows);
        w.set_kill(Some(KillSpec {
            at_frame: 5,
            mode: KillMode::MidFrame,
        }));
        append_final(&w, 4, Os::Windows);
        assert!(w.killed());
        // Appends after death are silently dropped, like a dead process.
        append_final(&w, 5, Os::Windows);
        let report = replay(&path).unwrap();
        assert_eq!(report.visits.len(), 4, "torn frame 5 is lost, 0..3 survive");
        assert!(report.summary.truncated_tail);

        // Every prefix of the torn file reopens from its own replay:
        // the tail is cut, one more visit goes on, and the result
        // replays clean with every surviving visit plus the new one.
        let torn = std::fs::read(&path).unwrap();
        let added = ReplayedVisit {
            crawl: CrawlId::top2020(),
            domain: "site9.example".into(),
            os: Os::MacOs,
            delta: sample_delta(9),
            flags: FLAG_FINAL,
        };
        for cut in 0..=torn.len() {
            std::fs::write(&path, &torn[..cut]).unwrap();
            let Ok(before) = replay(&path) else {
                assert!(cut < MAGIC.len(), "cut at {cut}: only a cut magic fails");
                continue;
            };
            let w = JournalWriter::open_append(&path, &before.summary).unwrap();
            assert_eq!(w.stats().frames, before.summary.frames as u64);
            append_final(&w, 9, Os::MacOs);
            w.sync();
            assert_eq!(w.stats().bytes, std::fs::metadata(&path).unwrap().len());
            drop(w);
            let after = replay(&path).unwrap();
            assert!(
                !after.summary.truncated_tail && after.summary.corrupt_frames == 0,
                "cut at {cut}: {:?}",
                after.summary
            );
            let mut expected = before.visits;
            expected.push(added.clone());
            assert_eq!(after.visits, expected, "cut at {cut}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reopening_with_a_summary_of_a_longer_file_is_refused() {
        let path = tmp("stale-summary");
        let w = JournalWriter::create(&path).unwrap();
        append_final(&w, 0, Os::Linux);
        w.sync();
        drop(w);
        let report = replay(&path).unwrap();
        std::fs::write(&path, MAGIC).unwrap();
        assert!(JournalWriter::open_append(&path, &report.summary).is_err());
        assert_eq!(
            std::fs::read(&path).unwrap(),
            MAGIC,
            "the file is left alone"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn post_frame_kill_keeps_the_frame() {
        let path = tmp("postframe");
        let w = JournalWriter::create(&path).unwrap();
        w.set_kill(Some(KillSpec {
            at_frame: 1,
            mode: KillMode::PostFrame,
        }));
        append_final(&w, 0, Os::Linux);
        append_final(&w, 1, Os::Linux);
        assert!(w.killed());
        let report = replay(&path).unwrap();
        assert_eq!(report.visits.len(), 2, "the kill frame itself is durable");
        assert!(!report.summary.truncated_tail);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn scanner_resyncs_past_interior_corruption() {
        let path = tmp("resync");
        let w = JournalWriter::create(&path).unwrap();
        for i in 0..20 {
            append_final(&w, i, Os::Linux);
        }
        w.sync();
        let mut data = std::fs::read(&path).unwrap();
        // Smash 10 bytes in the middle of the file.
        let mid = data.len() / 2;
        for b in &mut data[mid..mid + 10] {
            *b ^= 0x5A;
        }
        std::fs::write(&path, &data).unwrap();
        let report = replay(&path).unwrap();
        assert!(report.summary.corrupt_frames >= 1, "damage detected");
        assert!(
            report.visits.len() >= 18,
            "at most two frames lost to a 10-byte smash, got {}",
            report.visits.len()
        );
        assert!(!report.visits.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn oversized_length_field_is_corrupt_not_an_allocation() {
        let path = tmp("hugelen");
        let w = JournalWriter::create(&path).unwrap();
        append_final(&w, 0, Os::Linux);
        w.sync();
        let mut data = std::fs::read(&path).unwrap();
        // Corrupt the length field of frame 0 to 0xFFFF_FFFF.
        let off = MAGIC.len() + 3;
        data[off..off + 4].copy_from_slice(&0xFFFF_FFFFu32.to_le_bytes());
        std::fs::write(&path, &data).unwrap();
        let report = replay(&path).unwrap();
        assert_eq!(report.visits.len(), 0);
        assert!(report.summary.corrupt_frames >= 1 || report.summary.truncated_tail);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fsck_detects_and_repairs_damage() {
        let path = tmp("fsck");
        let w = JournalWriter::create(&path).unwrap();
        let rec = sample_record(7, Os::Linux);
        for i in 0..12 {
            append_final(&w, i, Os::Linux);
        }
        // A crash duplicate.
        w.append_visit(&rec, &sample_delta(7), FLAG_FINAL, false);
        w.sync();
        let clean_len = std::fs::read(&path).unwrap().len();
        let mut data = std::fs::read(&path).unwrap();
        let mid = clean_len / 3;
        for b in &mut data[mid..mid + 6] {
            *b = 0;
        }
        data.extend_from_slice(&[SYNC[0], SYNC[1], kind::VISIT, 200, 0, 0, 0, 1, 2, 3]);
        std::fs::write(&path, &data).unwrap();
        let report = fsck(&path, FsckOptions::default()).unwrap();
        assert!(!report.summary.clean());
        assert!(report.summary.corrupt_frames >= 1);
        assert!(report.summary.truncated_tail);
        assert!(report.summary.duplicate_finals >= 1);
        assert!(!report.repaired);
        // Now repair: rewritten journal scans clean, damage quarantined.
        let report = fsck(
            &path,
            FsckOptions {
                repair: true,
                ..FsckOptions::default()
            },
        )
        .unwrap();
        assert!(report.repaired);
        let qpath = report.quarantine_path.clone().unwrap();
        assert_eq!(
            std::fs::metadata(&qpath).unwrap().len(),
            report.summary.damaged_bytes(),
            "every corrupt span and the torn tail are quarantined"
        );
        assert!(qpath.exists());
        let after = fsck(&path, FsckOptions::default()).unwrap();
        assert_eq!(after.summary.corrupt_frames, 0);
        assert!(!after.summary.truncated_tail);
        assert_eq!(after.summary.visits, report.summary.visits);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&qpath).ok();
    }

    #[test]
    fn fsck_cross_checks_checkpoints_for_orphans_and_missing() {
        let path = tmp("orphan");
        let w = JournalWriter::create(&path).unwrap();
        append_final(&w, 0, Os::Linux);
        append_final(&w, 1, Os::Linux);
        w.append_checkpoint(&CheckpointFrame {
            crawl: "top2020".into(),
            os: "Linux".into(),
            // site0 listed; site1's frame is an orphan; siteX is
            // claimed but has no frame (missing).
            completed: vec!["site0.example".into(), "siteX.example".into()],
            stats: Vec::new(),
        });
        let report = fsck(&path, FsckOptions::default()).unwrap();
        assert_eq!(report.summary.orphan_records, 1);
        assert_eq!(report.summary.missing_records, 1);
        assert!(!report.summary.clean());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fsck_kill_before_rename_leaves_both_files() {
        let path = tmp("midrename");
        let w = JournalWriter::create(&path).unwrap();
        append_final(&w, 0, Os::Linux);
        w.sync();
        // Torn tail to make the repair do something.
        let mut data = std::fs::read(&path).unwrap();
        data.extend_from_slice(&[SYNC[0], SYNC[1], kind::VISIT, 50]);
        std::fs::write(&path, &data).unwrap();
        let before = std::fs::read(&path).unwrap();
        let report = fsck(
            &path,
            FsckOptions {
                repair: true,
                kill_before_rename: true,
            },
        )
        .unwrap();
        assert!(!report.repaired, "rename never happened");
        let tmp_path = frame::tmp_path(&path);
        assert!(tmp_path.exists(), "fsynced tmp survives the crash");
        assert_eq!(std::fs::read(&path).unwrap(), before, "original untouched");
        // Recovery after the simulated crash: run fsck again.
        let report = fsck(
            &path,
            FsckOptions {
                repair: true,
                ..FsckOptions::default()
            },
        )
        .unwrap();
        assert!(report.repaired);
        assert!(fsck(&path, FsckOptions::default()).unwrap().summary.clean());
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&tmp_path).ok();
        std::fs::remove_file(frame::sibling(&path, "quarantine")).ok();
    }

    #[test]
    fn empty_journal_is_valid() {
        // A study that journaled its parameters and no visit yet.
        let path = tmp("empty");
        let w = JournalWriter::create(&path).unwrap();
        w.append_meta(&sample_meta());
        drop(w);
        let report = replay(&path).unwrap();
        assert!(report.visits.is_empty());
        assert_eq!(report.meta, Some(sample_meta()));
        assert!(!report.summary.truncated_tail);
        assert!(fsck(&path, FsckOptions::default()).unwrap().summary.clean());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn non_journal_files_are_rejected_not_parsed() {
        let path = tmp("notajournal");
        std::fs::write(&path, b"NOTASTORE-not-a-journal").unwrap();
        assert!(matches!(replay(&path), Err(JournalError::BadMagic)));
        assert!(matches!(
            fsck(&path, FsckOptions::default()),
            Err(JournalError::BadMagic)
        ));
        // The magic alone: every writer appends a frame before it can
        // finish, so this file was cut, and reads as truncated.
        std::fs::write(&path, MAGIC).unwrap();
        let report = replay(&path).unwrap();
        assert!(report.visits.is_empty() && report.summary.frames == 0);
        assert!(report.summary.truncated() && !report.summary.clean());
        let doctor = fsck(&path, FsckOptions::default()).unwrap();
        assert_eq!(doctor.summary, report.summary);
        std::fs::remove_file(&path).ok();
    }

    fn sample_meta() -> JournalMeta {
        JournalMeta {
            seed: 7,
            top_size: 100,
            malicious_size: 40,
            workers: 4,
        }
    }

    #[test]
    fn checkpoint_and_meta_payloads_round_trip() {
        let checkpoints = [
            CheckpointFrame {
                crawl: "top2020".into(),
                os: "Windows".into(),
                completed: vec![
                    "bücher.example".into(),
                    "例え.テスト".into(),
                    "\u{1F600}.example".into(),
                    String::new(),
                ],
                stats: (0..=255).collect(),
            },
            CheckpointFrame {
                crawl: "malicious".into(),
                os: "Mac".into(),
                completed: Vec::new(),
                stats: Vec::new(),
            },
        ];
        for cp in &checkpoints {
            let payload = checkpoint_payload(cp);
            let mut c = Cursor::new(&payload);
            assert_eq!(&get_checkpoint(&mut c).unwrap(), cp);
            assert!(!c.has_remaining(), "the decoder reads the whole payload");
        }
        for meta in [
            sample_meta(),
            JournalMeta {
                seed: u64::MAX,
                top_size: 0,
                malicious_size: 1 << 40,
                workers: 1,
            },
        ] {
            let payload = meta_payload(&meta);
            assert!(payload.len() <= 4 * 10, "four varints");
            let mut c = Cursor::new(&payload);
            assert_eq!(get_meta(&mut c).unwrap(), meta);
            assert!(!c.has_remaining());
        }
        // Through a journal file too.
        let path = tmp("payloads");
        let w = JournalWriter::create(&path).unwrap();
        w.append_meta(&sample_meta());
        for cp in &checkpoints {
            w.append_checkpoint(cp);
        }
        drop(w);
        let report = replay(&path).unwrap();
        assert_eq!(report.meta, Some(sample_meta()));
        assert_eq!(report.checkpoints, checkpoints);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_completed_count_beyond_the_payload_is_truncated_not_an_allocation() {
        let mut buf = BytesMut::new();
        codec::put_str(&mut buf, "top2020");
        codec::put_str(&mut buf, "Linux");
        codec::put_varint(&mut buf, u64::MAX >> 1);
        codec::put_str(&mut buf, "site0.example");
        assert_eq!(
            get_checkpoint(&mut Cursor::new(&buf.freeze().to_vec())),
            Err(codec::CodecError::Truncated)
        );
        // Every proper prefix of a good payload fails; none panics.
        let payload = checkpoint_payload(&CheckpointFrame {
            crawl: "top2020".into(),
            os: "Linux".into(),
            completed: vec!["site0.example".into(), "site1.example".into()],
            stats: vec![1, 2, 3],
        });
        for cut in 0..payload.len() {
            assert!(get_checkpoint(&mut Cursor::new(&payload[..cut])).is_err());
        }
        let meta = meta_payload(&sample_meta());
        for cut in 0..meta.len() {
            assert!(get_meta(&mut Cursor::new(&meta[..cut])).is_err());
        }
    }

    /// A journal whose CHECKPOINT or META frame holds JSON, as journals
    /// did before those payloads moved to the codec.
    fn refused_as_retired_json(path: &Path) {
        let before = std::fs::read(path).unwrap();
        let retired = |r: Result<(), JournalError>| match r {
            Err(e @ JournalError::RetiredJson(_)) => {
                assert!(
                    e.to_string().starts_with("retired JSON journal format"),
                    "{e}"
                );
            }
            other => panic!("expected the retired-format refusal, got {other:?}"),
        };
        retired(replay(path).map(drop));
        retired(crate::persist::load_any(path).map(drop));
        retired(scan(&before).map(drop));
        for repair in [false, true] {
            retired(
                fsck(
                    path,
                    FsckOptions {
                        repair,
                        ..FsckOptions::default()
                    },
                )
                .map(drop),
            );
        }
        assert_eq!(std::fs::read(path).unwrap(), before, "left byte-identical");
        assert!(!frame::tmp_path(path).exists());
        assert!(!frame::sibling(path, "quarantine").exists());
    }

    #[test]
    fn json_era_journals_are_refused_by_name() {
        // A JSON-era study journal killed right after its META frame
        // (`repro --journal F --kill-frames 0 --kill-mode post-frame`):
        // `{"seed":..}` in a frame of kind 4.
        let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/data/json-meta.ktj");
        let bytes = std::fs::read(&fixture).unwrap();
        let scanned = frame::scan(&bytes, |_, p| Some(p)).unwrap();
        assert!(scanned.clean() && scanned.frames.len() == 1);
        assert_eq!(scanned.frames[0].kind, 4);
        assert!(scanned.frames[0].payload.starts_with(b"{\"seed\":"));
        let path = tmp("json-meta");
        std::fs::write(&path, &bytes).unwrap();
        refused_as_retired_json(&path);

        // A hand-built JSON CHECKPOINT (kind 2) after codec frames.
        let w = JournalWriter::create(&path).unwrap();
        w.append_meta(&sample_meta());
        append_final(&w, 0, Os::Linux);
        drop(w);
        let mut data = std::fs::read(&path).unwrap();
        frame::put(
            &mut data,
            2,
            br#"{"crawl":"top2020","os":"Linux","completed":["site0.example"],"stats":[1,2]}"#,
        );
        std::fs::write(&path, &data).unwrap();
        refused_as_retired_json(&path);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn journal_damage_is_detected_or_harmless() {
        // META, visits, a FLUSH marker after each visit, a checkpoint.
        let path = tmp("sweep");
        let w = JournalWriter::create_with(
            &path,
            JournalConfig {
                flush_every_bytes: 1,
                ..JournalConfig::default()
            },
        )
        .unwrap();
        w.append_meta(&sample_meta());
        for i in 0..2 {
            append_final(&w, i, Os::Linux);
        }
        w.append_checkpoint(&CheckpointFrame {
            crawl: "top2020".into(),
            os: "Linux".into(),
            completed: vec!["site0.example".into(), "site1.example".into()],
            stats: vec![7, 0, 255],
        });
        drop(w);
        let clean = std::fs::read(&path).unwrap();
        let frames = scan(&clean).unwrap().frames;
        let kinds: BTreeSet<u8> = frames.iter().map(|f| f.kind).collect();
        assert_eq!(
            kinds,
            BTreeSet::from([kind::VISIT, kind::FLUSH, kind::CHECKPOINT, kind::META])
        );
        let boundaries: BTreeSet<usize> = frames.iter().map(|f| f.end as usize).collect();
        let whole = replay(&path).unwrap();
        for (what, bytes) in frame::tests::damaged(&clean) {
            std::fs::write(&path, &bytes).unwrap();
            let doctor = fsck(&path, FsckOptions::default());
            let Ok(report) = replay(&path) else {
                assert!(doctor.is_err(), "{what}: fsck reads what replay refuses");
                continue;
            };
            let doctor = doctor.unwrap();
            assert_eq!(
                doctor.summary, report.summary,
                "{what}: fsck and replay report different damage"
            );
            if !report.summary.clean() {
                continue;
            }
            // A journal declares no frame count, so a cut at a frame
            // boundary is what a post-frame kill leaves: it must read
            // back as exactly the frames before the cut.
            let cut_at_boundary = bytes.len() < clean.len()
                && clean.starts_with(&bytes)
                && boundaries.contains(&bytes.len());
            let agrees = if cut_at_boundary {
                whole.visits.starts_with(&report.visits)
                    && whole.checkpoints.starts_with(&report.checkpoints)
                    && report.meta == whole.meta
                    && report.store.len() == report.visits.len()
            } else {
                report.visits == whole.visits
                    && report.checkpoints == whole.checkpoints
                    && report.meta == whole.meta
                    && report.store.scan_all() == whole.store.scan_all()
            };
            assert!(agrees, "{what}: silent divergence");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_crc_valid_frame_whose_record_fails_decode_is_corrupt_and_never_stored() {
        let path = tmp("bad-record");
        let w = JournalWriter::create(&path).unwrap();
        append_final(&w, 0, Os::Linux);
        drop(w);
        let mut data = std::fs::read(&path).unwrap();
        let good_end = data.len();
        // A well-framed visit whose record is not a record, between two
        // good frames.
        let mut record = encode(&sample_record(1, Os::Linux)).to_vec();
        record[2] = 99; // codec version
        frame::put(
            &mut data,
            kind::VISIT,
            &visit_payload(&record, &sample_delta(1), FLAG_FINAL),
        );
        let bad_end = data.len();
        frame::put(
            &mut data,
            kind::VISIT,
            &visit_payload(
                &encode(&sample_record(2, Os::Linux)),
                &sample_delta(2),
                FLAG_FINAL,
            ),
        );
        std::fs::write(&path, &data).unwrap();
        let report = replay(&path).unwrap();
        assert_eq!(report.summary.corrupt_frames, 1);
        assert_eq!(report.summary.corrupt_bytes, (bad_end - good_end) as u64);
        let domains: Vec<&str> = report.visits.iter().map(|v| v.domain.as_str()).collect();
        assert_eq!(domains, ["site0.example", "site2.example"]);
        assert_eq!(report.store.len(), 2);
        assert!(report
            .store
            .get(&CrawlId::top2020(), "site1.example", Os::Linux)
            .is_none());
        assert_eq!(
            fsck(&path, FsckOptions::default()).unwrap().summary,
            report.summary
        );
        std::fs::remove_file(&path).ok();
    }

    /// A journal with every frame kind: META, then `n` visits across
    /// the three OSes with a crash duplicate, FLUSH markers, and a
    /// checkpoint per OS that lists one domain it has no frame for
    /// (the first OS's also leaves out site0, an orphan).
    fn mixed_journal(name: &str, n: usize) -> Vec<u8> {
        let path = tmp(name);
        let w = JournalWriter::create_with(
            &path,
            JournalConfig {
                flush_every_bytes: 100,
                ..JournalConfig::default()
            },
        )
        .unwrap();
        w.append_meta(&sample_meta());
        for i in 0..n {
            append_final(&w, i, Os::ALL[i % 3]);
        }
        append_final(&w, 1, Os::ALL[1]);
        for os in Os::ALL {
            w.append_checkpoint(&CheckpointFrame {
                crawl: "top2020".into(),
                os: os.name().into(),
                completed: (0..n)
                    .filter(|i| Os::ALL[i % 3] == os && *i != 0)
                    .map(|i| format!("site{i}.example"))
                    .chain(["gone.example".to_string()])
                    .collect(),
                stats: vec![1, 2],
            });
        }
        drop(w);
        let data = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        data
    }

    /// The scan and its summary at 1 thread equal those at 2, 3 and 8
    /// threads: frames, damage and every summary count.
    fn same_at_every_thread_count(data: &[u8]) -> Result<(), String> {
        let at = |threads| {
            let scan = checked(frame::scan_on(data, parse_frame, threads));
            scan.map(|scan| {
                let frames: Vec<_> = scan
                    .frames
                    .iter()
                    .map(|f| (f.start, f.end, f.kind, f.payload, format!("{:?}", f.body)))
                    .collect();
                let damage = (
                    scan.corrupt_spans.clone(),
                    scan.truncated_tail,
                    scan.valid_end,
                );
                (frames, damage, summarize(scan, |_| {}))
            })
            .map_err(|e| e.to_string())
        };
        let serial = at(1);
        for threads in [2, 3, 8] {
            if at(threads) != serial {
                return Err(format!("{threads} threads disagree with one"));
            }
        }
        Ok(())
    }

    #[test]
    fn the_scan_does_not_depend_on_the_thread_count() {
        let clean = mixed_journal("threads-sweep", 9);
        let sum = summarize(scan(&clean).unwrap(), |_| {});
        assert_eq!(
            (sum.visits, sum.checkpoints, sum.duplicate_finals),
            (10, 3, 1)
        );
        assert_eq!((sum.orphan_records, sum.missing_records), (1, 3));
        assert!(sum.flush_points > 0);
        same_at_every_thread_count(&clean).unwrap();
        for (what, bytes) in frame::tests::damaged(&clean).step_by(7) {
            same_at_every_thread_count(&bytes)
                .map_err(|e| format!("{what}: {e}"))
                .unwrap();
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn the_scan_does_not_depend_on_the_thread_count_under_damage(
            n in 1usize..24,
            frac in 0.0f64..1.0,
            xor in 1u8..255,
            noise in proptest::collection::vec(proptest::prelude::any::<u8>(), 1..60),
        ) {
            let clean = mixed_journal("threads-prop", n);
            let body = clean.len() - MAGIC.len();
            let at = MAGIC.len() + ((body - 1) as f64 * frac) as usize;
            let mut flipped = clean.clone();
            flipped[at] ^= xor;
            let mut spliced = clean[..at].to_vec();
            spliced.extend_from_slice(&noise);
            spliced.extend_from_slice(&clean[at..]);
            for bytes in [&clean[..], &flipped, &clean[..at], &spliced] {
                let agree = same_at_every_thread_count(bytes);
                proptest::prop_assert!(agree.is_ok(), "{agree:?} (at {at})");
            }
        }
    }

    #[test]
    fn flush_points_appear_after_enough_visit_bytes() {
        let path = tmp("flush");
        let w = JournalWriter::create(&path).unwrap();
        // Events make records big enough to cross FLUSH_EVERY quickly.
        let mut rec = sample_record(0, Os::Linux);
        rec.events = Vec::new();
        let big_domain = "x".repeat(4096);
        let mut total = 0u64;
        let mut i = 0;
        while total < FLUSH_EVERY + 4096 {
            let mut r = rec.clone();
            r.domain = format!("{big_domain}{i}");
            w.append_visit(&r, &sample_delta(i as usize), FLAG_FINAL, false);
            total = w.stats().bytes;
            i += 1;
        }
        assert!(w.stats().flush_points >= 1, "a flush point sealed the run");
        let report = replay(&path).unwrap();
        assert!(report.summary.flush_points >= 1);
        std::fs::remove_file(&path).ok();
    }
}
