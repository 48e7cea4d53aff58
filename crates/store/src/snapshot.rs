//! The content-addressed longitudinal snapshot store.
//!
//! A longitudinal study crawls the "same" web many times; most visit
//! records repeat byte-for-byte between snapshots (the site didn't
//! change, the simulation is deterministic). Storing N snapshots as N
//! full [`TelemetryStore`] dumps costs N× the bytes; the
//! [`SnapshotStore`] instead keys every record by a 128-bit hash of
//! its *canonicalised* encoding and stores each distinct chunk once:
//!
//! * **canonicalisation** — the codec buries the crawl id and the
//!   Tranco rank inside the record bytes, and both legitimately differ
//!   between snapshots of identical content. Before hashing, the
//!   record is re-encoded with the fixed [`CANONICAL_CRAWL`] id and
//!   `rank: None`; the per-snapshot manifest carries the snapshot
//!   label and the rank instead (`to record bytes` what a column is to
//!   a table key);
//! * **manifests** — one per snapshot label, mapping `(domain, OS)` →
//!   (content hash, rank). An *incremental* crawl links an unchanged
//!   site's entry straight to the previous snapshot's chunk
//!   ([`SnapshotStore::link_from`]) without re-encoding anything;
//! * **refcounts** — each chunk counts its manifest references;
//!   [`SnapshotStore::remove_snapshot`] decrements and
//!   [`SnapshotStore::gc`] drops unreferenced chunks;
//! * **persistence** — chunks pack into sealed segment files in the
//!   shared [`crate::frame`] format, one CHUNK frame (hash, refcount,
//!   canonical bytes) per chunk. A JSON manifest lists the segment
//!   files and their sizes plus each snapshot's rows;
//!   [`SnapshotStore::save`] writes fresh segments, swaps the manifest
//!   in last, then deletes what it no longer lists;
//! * **reading** — one private reader is the only code that reads a
//!   store directory: it maps each segment through [`load_segment`],
//!   checks every CRC once, indexes the chunks as zero-copy slices of
//!   the mapping, and audits the references
//!   ([`SnapshotStore::audit`]). [`SnapshotStore::open`] refuses a
//!   damaged or missing segment, a dangling row, a duplicated chunk,
//!   refcount drift and orphan chunks; it lets through only segment
//!   files the manifest does not list, which an interrupted save
//!   leaves. [`snapshot_fsck`], the store doctor, reports all of these
//!   and re-hashes every chunk. The manifest has no checksum of its
//!   own: a flipped rank digit, or a label, domain or OS slot bent
//!   into one no other row uses, still opens.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::Path;

use bytes::Bytes;
use kt_netbase::Os;
use serde::{Deserialize, Serialize};

use crate::codec;
use crate::frame::{self, kind, MAGIC};
use crate::record::{os_slot, slot_os, CrawlId, VisitRecord};
use crate::segment::{load_segment, SegmentMode};

/// The crawl id every chunk is encoded under, whatever snapshot the
/// record came from. Snapshot identity lives in the manifest.
pub const CANONICAL_CRAWL: &str = "snapshot";

/// The manifest's file name inside a store directory.
const MANIFEST: &str = "MANIFEST.json";

/// Manifest format version: segments and snapshot rows, no chunk index.
const MANIFEST_VERSION: u32 = 2;

/// Bytes before a chunk frame's canonical record: hash, refcount.
const CHUNK_HEADER: usize = 16 + 8;

/// Chunk bytes packed per segment file before sealing (matches the
/// telemetry store's segment granularity).
const SEGMENT_TARGET: usize = 512 << 10;

/// Shards the streaming diff walks in parallel; pinned to the
/// telemetry store's shard count so the two parallel drivers share
/// their worker shape.
pub const SNAPSHOT_SHARDS: usize = 16;

/// The shard a domain's manifest entries belong to, for shard-parallel
/// walks. A pure function of the domain string.
pub fn shard_of(domain: &str) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in domain.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    (h % SNAPSHOT_SHARDS as u64) as usize
}

fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// 128-bit content address of one canonicalised record encoding.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ContentHash(pub [u8; 16]);

impl ContentHash {
    /// Hash a byte slice: two independent FNV-1a streams (the second
    /// rotated so transpositions separate the halves), finalised
    /// through splitmix for avalanche.
    pub fn of(bytes: &[u8]) -> ContentHash {
        let mut a: u64 = 0xcbf2_9ce4_8422_2325;
        let mut b: u64 = 0x6c62_272e_07bb_0142;
        for &x in bytes {
            a = (a ^ x as u64).wrapping_mul(0x0000_0100_0000_01B3);
            b = (b ^ x as u64)
                .wrapping_mul(0x0000_0100_0000_01B3)
                .rotate_left(29);
        }
        a = mix(a ^ bytes.len() as u64);
        b = mix(b ^ a);
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&a.to_be_bytes());
        out[8..].copy_from_slice(&b.to_be_bytes());
        ContentHash(out)
    }

    /// Lower-case hex form (32 chars).
    pub fn to_hex(self) -> String {
        let mut s = String::with_capacity(32);
        for b in self.0 {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }

    /// Parse the hex form back.
    pub fn from_hex(s: &str) -> Option<ContentHash> {
        if s.len() != 32 {
            return None;
        }
        let mut out = [0u8; 16];
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = u8::from_str_radix(&s[i * 2..i * 2 + 2], 16).ok()?;
        }
        Some(ContentHash(out))
    }
}

impl fmt::Debug for ContentHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ContentHash({})", self.to_hex())
    }
}

impl fmt::Display for ContentHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// Re-encode a record under the canonical crawl id with the rank
/// stripped — the byte string that gets content-addressed. Records
/// already in canonical form encode without the clone.
pub fn canonical_bytes(record: &VisitRecord) -> Bytes {
    if record.crawl.as_str() == CANONICAL_CRAWL && record.rank.is_none() {
        return codec::encode(record);
    }
    let canonical = VisitRecord {
        crawl: CrawlId(CANONICAL_CRAWL.to_string()),
        rank: None,
        ..record.clone()
    };
    codec::encode(&canonical)
}

/// One manifest row: where a `(domain, OS)` visit's bytes live, plus
/// the snapshot-scoped metadata the canonicalisation stripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Content address of the canonicalised record bytes.
    pub hash: ContentHash,
    /// Tranco rank of the domain *in this snapshot*.
    pub rank: Option<u32>,
    /// Chunk length in bytes.
    pub len: u32,
}

/// One snapshot's manifest: `(domain, OS slot)` → entry, ordered.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SnapshotManifest {
    /// Rows keyed by `(domain, os_slot)` — the same order
    /// `TelemetryStore::crawl_records` returns records in.
    pub entries: BTreeMap<(String, u8), ManifestEntry>,
}

impl SnapshotManifest {
    /// Distinct domains, in order.
    pub fn domains(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for (domain, _) in self.entries.keys() {
            if out.last().map(|d| *d != domain.as_str()).unwrap_or(true) {
                out.push(domain.as_str());
            }
        }
        out
    }
}

struct Chunk {
    bytes: Bytes,
    refs: u64,
}

/// Outcome of one [`SnapshotStore::ingest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestOutcome {
    /// Content address the record landed under.
    pub hash: ContentHash,
    /// True when the chunk was new to the store (bytes written);
    /// false when it deduplicated against an existing chunk.
    pub fresh: bool,
    /// Canonical encoding length.
    pub len: u32,
}

/// What [`SnapshotStore::gc`] reclaimed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GcReport {
    /// Chunks dropped (refcount zero).
    pub chunks_dropped: usize,
    /// Bytes those chunks held.
    pub bytes_reclaimed: u64,
}

/// The content-addressed dedup store for N snapshots.
#[derive(Default)]
pub struct SnapshotStore {
    chunks: BTreeMap<ContentHash, Chunk>,
    manifests: BTreeMap<String, SnapshotManifest>,
    /// Labels in ingest order (manifest map order is lexicographic).
    order: Vec<String>,
}

impl SnapshotStore {
    /// An empty store.
    pub fn new() -> SnapshotStore {
        SnapshotStore::default()
    }

    /// Ingest one visit record into snapshot `label`. The record is
    /// canonicalised, content-addressed, and stored once per distinct
    /// byte string; `rank` is the domain's rank in *this* snapshot
    /// (manifest metadata, never hashed). Last write wins per
    /// `(label, domain, OS)`, like the telemetry store.
    pub fn ingest(
        &mut self,
        label: &str,
        record: &VisitRecord,
        rank: Option<u32>,
    ) -> IngestOutcome {
        let bytes = canonical_bytes(record);
        let hash = ContentHash::of(&bytes);
        let len = bytes.len() as u32;
        let fresh = match self.chunks.get_mut(&hash) {
            Some(chunk) => {
                chunk.refs += 1;
                false
            }
            None => {
                self.chunks.insert(hash, Chunk { bytes, refs: 1 });
                true
            }
        };
        let entry = ManifestEntry { hash, rank, len };
        let manifest = self.manifest_mut(label);
        let key = (record.domain.clone(), os_slot(record.os));
        if let Some(old) = manifest.entries.insert(key, entry) {
            self.release(old.hash);
        }
        IngestOutcome { hash, fresh, len }
    }

    /// Link an unchanged site's visit: copy the `(domain, OS)` entry of
    /// snapshot `from` into snapshot `to` by reference — no bytes move,
    /// the chunk's refcount grows. `rank` is the domain's rank in the
    /// *new* snapshot. Returns false (and does nothing) when `from`
    /// has no such entry.
    pub fn link_from(
        &mut self,
        from: &str,
        to: &str,
        domain: &str,
        os: Os,
        rank: Option<u32>,
    ) -> bool {
        let key = (domain.to_string(), os_slot(os));
        let Some(entry) = self
            .manifests
            .get(from)
            .and_then(|m| m.entries.get(&key))
            .copied()
        else {
            return false;
        };
        match self.chunks.get_mut(&entry.hash) {
            Some(chunk) => chunk.refs += 1,
            None => return false,
        }
        let linked = ManifestEntry { rank, ..entry };
        let manifest = self.manifest_mut(to);
        if let Some(old) = manifest.entries.insert(key, linked) {
            self.release(old.hash);
        }
        true
    }

    fn manifest_mut(&mut self, label: &str) -> &mut SnapshotManifest {
        if !self.manifests.contains_key(label) {
            self.manifests
                .insert(label.to_string(), SnapshotManifest::default());
            self.order.push(label.to_string());
        }
        self.manifests.get_mut(label).expect("just inserted")
    }

    fn release(&mut self, hash: ContentHash) {
        if let Some(chunk) = self.chunks.get_mut(&hash) {
            chunk.refs = chunk.refs.saturating_sub(1);
        }
    }

    /// Snapshot labels in ingest order.
    pub fn labels(&self) -> Vec<&str> {
        self.order.iter().map(String::as_str).collect()
    }

    /// One snapshot's manifest.
    pub fn manifest(&self, label: &str) -> Option<&SnapshotManifest> {
        self.manifests.get(label)
    }

    /// The raw chunk bytes for `(label, domain, os)` — a zero-copy
    /// slice handle into the store's (possibly mmap-backed) segments.
    pub fn get(&self, label: &str, domain: &str, os: Os) -> Option<Bytes> {
        let key = (domain.to_string(), os_slot(os));
        let entry = self.manifests.get(label)?.entries.get(&key)?;
        self.chunks.get(&entry.hash).map(|c| c.bytes.clone())
    }

    /// Chunk bytes by content address.
    pub fn chunk(&self, hash: ContentHash) -> Option<Bytes> {
        self.chunks.get(&hash).map(|c| c.bytes.clone())
    }

    /// Decode the record for `(label, domain, os)`, restoring the
    /// snapshot-scoped fields the canonicalisation stripped: `crawl`
    /// becomes the snapshot label, `rank` comes from the manifest.
    pub fn record(&self, label: &str, domain: &str, os: Os) -> Option<VisitRecord> {
        let key = (domain.to_string(), os_slot(os));
        let entry = self.manifests.get(label)?.entries.get(&key)?;
        let bytes = self.chunks.get(&entry.hash)?.bytes.clone();
        let mut record = codec::decode(bytes).ok()?;
        record.crawl = CrawlId(label.to_string());
        record.rank = entry.rank;
        Some(record)
    }

    /// Number of snapshots.
    pub fn snapshot_count(&self) -> usize {
        self.manifests.len()
    }

    /// Number of distinct chunks.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Bytes actually stored (each distinct chunk once).
    pub fn stored_bytes(&self) -> u64 {
        self.chunks.values().map(|c| c.bytes.len() as u64).sum()
    }

    /// Bytes the snapshots would occupy stored flat (every manifest
    /// row's chunk length, duplicates counted).
    pub fn logical_bytes(&self) -> u64 {
        self.manifests
            .values()
            .flat_map(|m| m.entries.values())
            .map(|e| e.len as u64)
            .sum()
    }

    /// Deduplication ratio: logical bytes over stored bytes (≥ 1).
    pub fn dedup_ratio(&self) -> f64 {
        let stored = self.stored_bytes();
        if stored == 0 {
            return 1.0;
        }
        self.logical_bytes() as f64 / stored as f64
    }

    /// Drop one snapshot's manifest, releasing its chunk references.
    /// The bytes stay until [`SnapshotStore::gc`] runs. Returns false
    /// when the label is unknown.
    pub fn remove_snapshot(&mut self, label: &str) -> bool {
        let Some(manifest) = self.manifests.remove(label) else {
            return false;
        };
        self.order.retain(|l| l != label);
        for entry in manifest.entries.values() {
            let hash = entry.hash;
            self.release(hash);
        }
        true
    }

    /// Drop every chunk whose refcount reached zero.
    pub fn gc(&mut self) -> GcReport {
        let mut report = GcReport::default();
        self.chunks.retain(|_, chunk| {
            if chunk.refs == 0 {
                report.chunks_dropped += 1;
                report.bytes_reclaimed += chunk.bytes.len() as u64;
                false
            } else {
                true
            }
        });
        report
    }

    /// The reference audit, over the live store or one just read from
    /// disk: manifest rows that resolve to no chunk, chunks whose
    /// refcount differs from the rows referencing them, and chunks no
    /// row references. One pass over the rows, one over the chunks;
    /// [`SnapshotFsckReport::clean`] is the verdict.
    pub fn audit(&self) -> SnapshotFsckReport {
        let mut report = SnapshotFsckReport {
            chunks: self.chunks.len(),
            ..SnapshotFsckReport::default()
        };
        let mut counted: BTreeMap<ContentHash, u64> = BTreeMap::new();
        for entry in self.manifests.values().flat_map(|m| m.entries.values()) {
            report.manifest_entries += 1;
            if self.chunks.contains_key(&entry.hash) {
                *counted.entry(entry.hash).or_default() += 1;
            } else {
                report.dangling_refs += 1;
            }
        }
        for (hash, chunk) in &self.chunks {
            let referenced = counted.get(hash).copied().unwrap_or(0);
            if referenced == 0 {
                report.orphan_chunks += 1;
            }
            if chunk.refs != referenced {
                report.refcount_mismatches += 1;
            }
        }
        report
    }

    /// Write the store to `dir`: sealed chunk segments plus the JSON
    /// manifest. Unreferenced chunks are not written (save compacts).
    /// Segments go out under names no file in `dir` has, the manifest
    /// is swapped in last with [`frame::write_atomic`], and only then
    /// are the segments it no longer lists removed — so a crash at any
    /// point leaves either the old store or the new one, even when
    /// saving into the directory the store was opened from.
    pub fn save(&self, dir: &Path) -> io::Result<SnapshotSaveReport> {
        let (doc, report) = self.write_segments(dir)?;
        let json = serde_json::to_string(&doc).map_err(|e| bad_data(e.to_string()))?;
        frame::write_atomic(&dir.join(MANIFEST), |out| out.write_all(json.as_bytes()))?;
        for (_, name) in segment_files(dir)? {
            if !doc.segments.iter().any(|s| s.file == name) {
                fs::remove_file(dir.join(name))?;
            }
        }
        Ok(report)
    }

    /// The first half of [`SnapshotStore::save`]: every referenced
    /// chunk sealed into fresh segment files, and the manifest that
    /// will list them.
    fn write_segments(&self, dir: &Path) -> io::Result<(ManifestDoc, SnapshotSaveReport)> {
        fs::create_dir_all(dir)?;
        let mut next = segment_files(dir)?.last().map_or(0, |(n, _)| n + 1);
        let mut report = SnapshotSaveReport::default();
        let mut doc = ManifestDoc {
            version: MANIFEST_VERSION,
            segments: Vec::new(),
            snapshots: Vec::new(),
        };
        let mut seal = |buf: &mut Vec<u8>, doc: &mut ManifestDoc| -> io::Result<()> {
            let file = format!("chunks-{next:04}.ktc");
            next += 1;
            let bytes = frame::write_atomic(&dir.join(&file), |out| out.write_all(buf))?;
            doc.segments.push(SegmentDoc { file, bytes });
            buf.truncate(MAGIC.len());
            Ok(())
        };
        let mut seg_buf = MAGIC.to_vec();
        let mut payload = Vec::new();
        for (hash, chunk) in &self.chunks {
            if chunk.refs == 0 {
                continue;
            }
            if seg_buf.len() > SEGMENT_TARGET {
                seal(&mut seg_buf, &mut doc)?;
            }
            payload.clear();
            payload.extend_from_slice(&hash.0);
            payload.extend_from_slice(&chunk.refs.to_le_bytes());
            payload.extend_from_slice(&chunk.bytes);
            frame::put(&mut seg_buf, kind::CHUNK, &payload);
            report.chunks += 1;
            report.chunk_bytes += chunk.bytes.len() as u64;
        }
        if seg_buf.len() > MAGIC.len() || doc.segments.is_empty() {
            seal(&mut seg_buf, &mut doc)?;
        }
        for label in &self.order {
            let manifest = &self.manifests[label];
            doc.snapshots.push(SnapshotDoc {
                label: label.clone(),
                entries: manifest
                    .entries
                    .iter()
                    .map(|((domain, slot), e)| EntryDoc {
                        domain: domain.clone(),
                        os: *slot,
                        rank: e.rank,
                        hash: e.hash.to_hex(),
                    })
                    .collect(),
            });
            report.manifest_entries += manifest.entries.len();
        }
        report.segments = doc.segments.len();
        Ok((doc, report))
    }

    /// Load a store from `dir` through the one reader, `read`.
    /// Segment files come back through [`load_segment`] —
    /// `SegmentMode::Mmap` serves chunk reads as zero-copy slices of
    /// the mapped file. Anything [`snapshot_fsck`] would report except
    /// unlisted segments — a damaged segment, a dangling row, a
    /// duplicated chunk, refcount drift, an orphan — is an
    /// [`io::ErrorKind::InvalidData`] error naming the first damage.
    /// Chunks are not re-hashed: their frame CRCs already cover them.
    pub fn open(dir: &Path, mode: SegmentMode) -> io::Result<SnapshotStore> {
        let (store, _, damage) = read(dir, mode)?;
        damage.map_or(Ok(store), |damage| Err(bad_data(damage)))
    }
}

fn bad_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// The only reader of a store directory, behind [`SnapshotStore::open`]
/// and [`snapshot_fsck`]. It parses the manifest, loads and scans every
/// listed segment (a damaged segment's intact frames are still
/// indexed), counts duplicated chunks, lists the segment files the
/// manifest does not, and runs [`SnapshotStore::audit`]. Returns the
/// store, the report, and the first damage found other than unlisted
/// segments. A manifest that cannot be read, or a row whose hash or OS
/// slot does not parse, is an error.
fn read(
    dir: &Path,
    mode: SegmentMode,
) -> io::Result<(SnapshotStore, SnapshotFsckReport, Option<String>)> {
    let text = fs::read_to_string(dir.join(MANIFEST))?;
    let doc: ManifestDoc =
        serde_json::from_str(&text).map_err(|e| bad_data(format!("{MANIFEST}: {e}")))?;
    if doc.version != MANIFEST_VERSION {
        return Err(bad_data(format!(
            "{MANIFEST}: version {} (this build reads {MANIFEST_VERSION})",
            doc.version
        )));
    }
    let (mut damaged_segments, mut duplicate_chunks) = (0, 0);
    let mut damage = None;
    let mut store = SnapshotStore::new();
    for seg in &doc.segments {
        let bytes = match load_segment(&dir.join(&seg.file), mode) {
            Ok(bytes) => bytes,
            Err(e) => {
                damaged_segments += 1;
                damage.get_or_insert_with(|| format!("{}: {e}", seg.file));
                continue;
            }
        };
        let scan = frame::scan(&bytes, parse_chunk);
        let fault = match &scan {
            _ if bytes.len() as u64 != seg.bytes => Some(format!(
                "{} bytes, manifest says {}",
                bytes.len(),
                seg.bytes
            )),
            None => Some("not a chunk segment".to_string()),
            Some(scan) if !scan.clean() => Some(format!(
                "{} damaged span(s), torn tail: {}",
                scan.corrupt_spans.len(),
                scan.truncated_tail
            )),
            Some(_) => None,
        };
        if let Some(fault) = fault {
            damaged_segments += 1;
            damage.get_or_insert_with(|| format!("{}: {fault}", seg.file));
        }
        for f in scan.iter().flat_map(|scan| &scan.frames) {
            let start = f.body.bytes.as_ptr() as usize - bytes.as_ptr() as usize;
            let chunk = Chunk {
                bytes: bytes.slice(start..start + f.body.bytes.len()),
                refs: f.body.refs,
            };
            if store.chunks.insert(f.body.hash, chunk).is_some() {
                duplicate_chunks += 1;
            }
        }
    }
    for snap in &doc.snapshots {
        let rows = snap
            .entries
            .iter()
            .map(|e| {
                let hash = ContentHash::from_hex(&e.hash)
                    .ok_or_else(|| bad_data(format!("bad entry hash {:?}", e.hash)))?;
                if slot_os(e.os).is_none() {
                    return Err(bad_data(format!("{}: bad os slot {}", e.domain, e.os)));
                }
                let len = store.chunks.get(&hash).map_or(0, |c| c.bytes.len() as u32);
                let entry = ManifestEntry {
                    hash,
                    rank: e.rank,
                    len,
                };
                Ok(((e.domain.clone(), e.os), entry))
            })
            .collect::<io::Result<Vec<_>>>()?;
        store.manifest_mut(&snap.label).entries.extend(rows);
    }
    let report = SnapshotFsckReport {
        unlisted_segments: segment_files(dir)?
            .iter()
            .filter(|(_, name)| !doc.segments.iter().any(|s| &s.file == name))
            .count(),
        segments: doc.segments.len(),
        damaged_segments,
        duplicate_chunks,
        ..store.audit()
    };
    let refused = SnapshotFsckReport {
        unlisted_segments: 0,
        ..report
    };
    let damage = damage.or_else(|| {
        (!refused.clean()).then(|| {
            format!(
                "{} dangling ref(s), {} duplicate chunk(s), {} refcount mismatch(es), \
                 {} orphan chunk(s)",
                report.dangling_refs,
                report.duplicate_chunks,
                report.refcount_mismatches,
                report.orphan_chunks
            )
        })
    });
    Ok((store, report, damage))
}

/// Chunk segment files in `dir` (`chunks-NNNN.ktc`), by number.
fn segment_files(dir: &Path) -> io::Result<Vec<(u32, String)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let Ok(name) = entry?.file_name().into_string() else {
            continue;
        };
        let number = name
            .strip_prefix("chunks-")
            .and_then(|rest| rest.strip_suffix(".ktc"))
            .and_then(|n| n.parse().ok());
        if let Some(n) = number {
            out.push((n, name));
        }
    }
    out.sort();
    Ok(out)
}

/// One chunk frame's payload.
struct ChunkFrame<'a> {
    hash: ContentHash,
    refs: u64,
    bytes: &'a [u8],
}

fn parse_chunk(kind_byte: u8, payload: &[u8]) -> Option<ChunkFrame<'_>> {
    if kind_byte != kind::CHUNK || payload.len() < CHUNK_HEADER {
        return None;
    }
    let (hash, rest) = payload.split_at(16);
    let (refs, bytes) = rest.split_at(8);
    Some(ChunkFrame {
        hash: ContentHash(hash.try_into().expect("16-byte split")),
        refs: u64::from_le_bytes(refs.try_into().expect("8-byte split")),
        bytes,
    })
}

/// What [`SnapshotStore::save`] wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SnapshotSaveReport {
    /// Segment files written.
    pub segments: usize,
    /// Distinct chunks written.
    pub chunks: usize,
    /// Chunk payload bytes written.
    pub chunk_bytes: u64,
    /// Manifest rows written.
    pub manifest_entries: usize,
}

/// The snapshot-store doctor's findings: [`snapshot_fsck`] over an
/// on-disk directory, or [`SnapshotStore::audit`] over a live store
/// (its references only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SnapshotFsckReport {
    /// Segment files the manifest lists.
    pub segments: usize,
    /// Distinct chunks found (for a directory, in its listed segments).
    pub chunks: usize,
    /// Manifest rows inspected.
    pub manifest_entries: usize,
    /// Listed segments that are missing, unreadable, not chunk
    /// segments, differ from their recorded size, or hold damaged
    /// frames (failed CRC, torn tail).
    pub damaged_segments: usize,
    /// `chunks-*.ktc` files in the directory the manifest does not list
    /// (leaked by an interrupted or older save).
    pub unlisted_segments: usize,
    /// Manifest rows whose hash resolves to no stored chunk.
    pub dangling_refs: usize,
    /// Content hashes stored more than once.
    pub duplicate_chunks: usize,
    /// Chunks whose stored bytes do not re-hash to their key.
    pub hash_mismatches: usize,
    /// Chunks whose declared refcount differs from the count of
    /// manifest rows referencing them.
    pub refcount_mismatches: usize,
    /// Chunks no manifest row references (gc debt).
    pub orphan_chunks: usize,
}

impl SnapshotFsckReport {
    /// True when the directory is fully consistent.
    pub fn clean(&self) -> bool {
        *self
            == SnapshotFsckReport {
                segments: self.segments,
                chunks: self.chunks,
                manifest_entries: self.manifest_entries,
                ..SnapshotFsckReport::default()
            }
    }
}

/// Check an on-disk snapshot store: [`read`] it (every listed segment
/// through the frame scanner, stray segment files, duplicated chunks,
/// the reference audit), then re-hash every chunk. Never panics on
/// damage; an unreadable manifest is an error.
pub fn snapshot_fsck(dir: &Path) -> io::Result<SnapshotFsckReport> {
    let (store, mut report, _) = read(dir, SegmentMode::Resident)?;
    report.hash_mismatches = store
        .chunks
        .iter()
        .filter(|(hash, chunk)| ContentHash::of(&chunk.bytes) != **hash)
        .count();
    Ok(report)
}

#[derive(Serialize, Deserialize)]
struct ManifestDoc {
    version: u32,
    segments: Vec<SegmentDoc>,
    snapshots: Vec<SnapshotDoc>,
}

#[derive(Serialize, Deserialize)]
struct SegmentDoc {
    file: String,
    bytes: u64,
}

#[derive(Serialize, Deserialize)]
struct SnapshotDoc {
    label: String,
    entries: Vec<EntryDoc>,
}

#[derive(Serialize, Deserialize)]
struct EntryDoc {
    domain: String,
    os: u8,
    rank: Option<u32>,
    hash: String,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::LoadOutcome;
    use kt_netlog::{EventParams, EventPhase, EventType, NetLogEvent, SourceRef, SourceType};

    fn record(crawl: &str, domain: &str, os: Os, rank: Option<u32>, marker: u64) -> VisitRecord {
        VisitRecord {
            crawl: CrawlId(crawl.to_string()),
            domain: domain.to_string(),
            rank,
            malicious_category: None,
            os,
            outcome: LoadOutcome::Success,
            loaded_at_ms: 400,
            events: vec![NetLogEvent {
                time: marker,
                event_type: EventType::UrlRequestStartJob,
                source: SourceRef {
                    id: 1,
                    kind: SourceType::UrlRequest,
                },
                phase: EventPhase::Begin,
                params: EventParams::UrlRequestStart {
                    url: format!("https://{domain}/"),
                    method: "GET".into(),
                    initiator: None,
                    load_flags: 0,
                },
            }],
        }
    }

    /// Ingest `domain`'s record into snapshot `label` at `rank`.
    fn ingest(
        store: &mut SnapshotStore,
        label: &str,
        domain: &str,
        os: Os,
        rank: Option<u32>,
        marker: u64,
    ) -> IngestOutcome {
        store.ingest(label, &record(label, domain, os, rank, marker), rank)
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("kt-snapstore-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn identical_content_across_snapshots_stores_once() {
        let mut store = SnapshotStore::new();
        // Same site content in two snapshots: different crawl ids and
        // ranks, identical events — one chunk, two manifest rows.
        let a = ingest(&mut store, "snap00", "a.example", Os::Linux, Some(3), 7);
        let b = ingest(&mut store, "snap01", "a.example", Os::Linux, Some(9), 7);
        assert!(a.fresh);
        assert!(!b.fresh);
        assert_eq!(a.hash, b.hash);
        assert_eq!(store.chunk_count(), 1);
        assert_eq!(store.snapshot_count(), 2);
        assert_eq!(store.logical_bytes(), 2 * store.stored_bytes());
        assert!((store.dedup_ratio() - 2.0).abs() < 1e-9);
        // The manifest keeps each snapshot's own rank.
        assert_eq!(
            store.record("snap00", "a.example", Os::Linux).unwrap().rank,
            Some(3)
        );
        assert_eq!(
            store.record("snap01", "a.example", Os::Linux).unwrap().rank,
            Some(9)
        );
        assert!(store.audit().clean());
    }

    #[test]
    fn changed_content_gets_its_own_chunk() {
        let mut store = SnapshotStore::new();
        ingest(&mut store, "snap00", "a.example", Os::Linux, None, 7);
        let b = ingest(&mut store, "snap01", "a.example", Os::Linux, None, 8);
        assert!(b.fresh, "different event bytes must not dedup");
        assert_eq!(store.chunk_count(), 2);
    }

    #[test]
    fn link_from_shares_the_chunk_by_reference() {
        let mut store = SnapshotStore::new();
        ingest(&mut store, "snap00", "a.example", Os::Windows, Some(1), 7);
        assert!(store.link_from("snap00", "snap01", "a.example", Os::Windows, Some(4)));
        assert!(!store.link_from("snap00", "snap01", "missing.example", Os::Windows, None));
        assert_eq!(store.chunk_count(), 1);
        let linked = store.record("snap01", "a.example", Os::Windows).unwrap();
        assert_eq!(linked.rank, Some(4));
        assert_eq!(linked.crawl.as_str(), "snap01");
        assert_eq!(
            linked.events,
            store
                .record("snap00", "a.example", Os::Windows)
                .unwrap()
                .events
        );
        assert!(store.audit().clean());
    }

    #[test]
    fn remove_and_gc_reclaim_unshared_chunks_only() {
        let mut store = SnapshotStore::new();
        ingest(&mut store, "snap00", "shared.example", Os::Linux, None, 1);
        ingest(&mut store, "snap00", "only0.example", Os::Linux, None, 2);
        store.link_from("snap00", "snap01", "shared.example", Os::Linux, None);
        ingest(&mut store, "snap01", "only1.example", Os::Linux, None, 3);
        assert_eq!(store.chunk_count(), 3);
        assert!(store.remove_snapshot("snap00"));
        let report = store.gc();
        assert_eq!(report.chunks_dropped, 1, "only only0's chunk dies");
        assert!(report.bytes_reclaimed > 0);
        assert_eq!(store.chunk_count(), 2);
        assert!(store.get("snap01", "shared.example", Os::Linux).is_some());
        assert!(store.get("snap00", "shared.example", Os::Linux).is_none());
        assert!(store.audit().clean());
    }

    #[test]
    fn last_write_wins_per_snapshot_domain_os() {
        let mut store = SnapshotStore::new();
        ingest(&mut store, "snap00", "a.example", Os::Linux, None, 1);
        ingest(&mut store, "snap00", "a.example", Os::Linux, None, 2);
        assert_eq!(store.manifest("snap00").unwrap().entries.len(), 1);
        let report = store.gc();
        assert_eq!(report.chunks_dropped, 1, "the overwritten chunk is garbage");
        assert!(store.audit().clean());
    }

    #[test]
    fn save_open_roundtrip_under_both_segment_modes() {
        let mut store = SnapshotStore::new();
        for i in 0..30u64 {
            let domain = format!("site{i:02}.example");
            for os in [Os::Windows, Os::Linux, Os::MacOs] {
                ingest(&mut store, "snap00", &domain, os, Some(i as u32 + 1), i % 7);
                store.link_from("snap00", "snap01", &domain, os, Some(i as u32 + 2));
            }
        }
        let dir = tmp("roundtrip");
        let report = store.save(&dir).unwrap();
        assert_eq!(report.manifest_entries, 180);
        assert!(report.chunks > 0);
        for mode in [SegmentMode::Mmap, SegmentMode::Resident] {
            let loaded = SnapshotStore::open(&dir, mode).unwrap();
            assert_eq!(loaded.labels(), vec!["snap00", "snap01"]);
            assert_eq!(loaded.chunk_count(), store.chunk_count());
            assert_eq!(loaded.stored_bytes(), store.stored_bytes());
            assert_eq!(loaded.logical_bytes(), store.logical_bytes());
            for i in [0u64, 13, 29] {
                let domain = format!("site{i:02}.example");
                assert_eq!(
                    loaded.record("snap01", &domain, Os::Linux),
                    store.record("snap01", &domain, Os::Linux),
                    "mode {mode:?}"
                );
            }
            assert!(loaded.audit().clean());
        }
        assert!(snapshot_fsck(&dir).unwrap().clean());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_compacts_garbage_chunks() {
        let mut store = SnapshotStore::new();
        ingest(&mut store, "snap00", "a.example", Os::Linux, None, 1);
        ingest(&mut store, "snap00", "b.example", Os::Linux, None, 2);
        store.remove_snapshot("snap00");
        ingest(&mut store, "snap01", "a.example", Os::Linux, None, 1);
        let dir = tmp("compact");
        let report = store.save(&dir).unwrap();
        assert_eq!(report.chunks, 1, "zero-ref chunks are not written");
        let loaded = SnapshotStore::open(&dir, SegmentMode::Resident).unwrap();
        assert_eq!(loaded.chunk_count(), 1);
        assert!(snapshot_fsck(&dir).unwrap().clean());
        fs::remove_dir_all(&dir).ok();
    }

    /// The store's manifest as written.
    fn manifest_doc(dir: &Path) -> ManifestDoc {
        serde_json::from_str(&fs::read_to_string(dir.join(MANIFEST)).unwrap()).unwrap()
    }

    fn write_manifest(dir: &Path, doc: &ManifestDoc) {
        fs::write(dir.join(MANIFEST), serde_json::to_string(doc).unwrap()).unwrap();
    }

    /// The chunk frames of a one-segment store, as (hash, refs, bytes).
    fn chunk_frames(dir: &Path) -> Vec<(ContentHash, u64, Vec<u8>)> {
        let bytes = fs::read(dir.join("chunks-0000.ktc")).unwrap();
        let scan = frame::scan(&bytes, parse_chunk).unwrap();
        assert!(scan.clean());
        scan.frames
            .iter()
            .map(|f| (f.body.hash, f.body.refs, f.body.bytes.to_vec()))
            .collect()
    }

    /// Replace a one-segment store's segment with CRC-valid `frames`,
    /// recording the new size in the manifest so only the frames'
    /// contents can be at fault.
    fn rewrite_segment(dir: &Path, frames: &[(ContentHash, u64, Vec<u8>)]) {
        let mut seg = MAGIC.to_vec();
        for (hash, refs, bytes) in frames {
            let mut payload = hash.0.to_vec();
            payload.extend_from_slice(&refs.to_le_bytes());
            payload.extend_from_slice(bytes);
            frame::put(&mut seg, kind::CHUNK, &payload);
        }
        fs::write(dir.join("chunks-0000.ktc"), &seg).unwrap();
        let mut doc = manifest_doc(dir);
        doc.segments[0].bytes = seg.len() as u64;
        write_manifest(dir, &doc);
    }

    #[test]
    fn fsck_finds_corruption_and_dangling_references() {
        let mut store = SnapshotStore::new();
        for i in 0..10u64 {
            let domain = format!("site{i}.example");
            ingest(&mut store, "snap00", &domain, Os::Linux, None, i);
        }
        let dir = tmp("fsck-damage");
        store.save(&dir).unwrap();
        assert!(snapshot_fsck(&dir).unwrap().clean());

        // Flip one payload byte: the frame's CRC rejects it, fsck flags
        // the segment, and open refuses the store.
        let seg_path = dir.join("chunks-0000.ktc");
        let clean = fs::read(&seg_path).unwrap();
        let mut bytes = clean.clone();
        let at = bytes.len() - 10;
        bytes[at] ^= 0xFF;
        fs::write(&seg_path, &bytes).unwrap();
        let report = snapshot_fsck(&dir).unwrap();
        assert!(!report.clean());
        assert!(report.damaged_segments >= 1, "{report:?}");
        assert!(SnapshotStore::open(&dir, SegmentMode::Resident).is_err());
        fs::write(&seg_path, &clean).unwrap();

        // A CRC-valid frame whose bytes do not re-hash to its key.
        let mut frames = chunk_frames(&dir);
        frames[0].2[0] ^= 0xFF;
        rewrite_segment(&dir, &frames);
        let report = snapshot_fsck(&dir).unwrap();
        assert!(report.hash_mismatches >= 1, "{report:?}");
        fs::write(&seg_path, &clean).unwrap();
        let mut doc = manifest_doc(&dir);
        doc.segments[0].bytes = clean.len() as u64;

        // Point a manifest row at a hash that does not exist.
        let bogus = "0".repeat(32);
        doc.snapshots[0].entries[0].hash = bogus;
        write_manifest(&dir, &doc);
        let report = snapshot_fsck(&dir).unwrap();
        assert!(report.dangling_refs >= 1, "{report:?}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsck_counts_refcount_drift_and_duplicates() {
        let mut store = SnapshotStore::new();
        ingest(&mut store, "snap00", "a.example", Os::Linux, None, 1);
        let dir = tmp("fsck-refs");
        store.save(&dir).unwrap();
        // Inflate the declared refcount and store the chunk twice.
        let mut frames = chunk_frames(&dir);
        frames[0].1 = 7;
        frames.push(frames[0].clone());
        rewrite_segment(&dir, &frames);
        let report = snapshot_fsck(&dir).unwrap();
        assert!(report.refcount_mismatches >= 1, "{report:?}");
        assert!(report.duplicate_chunks >= 1, "{report:?}");
        fs::remove_dir_all(&dir).ok();
    }

    /// A store whose chunks fill several segment files.
    fn multi_segment_store() -> SnapshotStore {
        let mut store = SnapshotStore::new();
        let long = "x".repeat(3_000);
        for snap in 0..4u64 {
            let label = format!("snap{snap:02}");
            for i in 0..100u64 {
                let domain = format!("{long}{i}.example");
                ingest(
                    &mut store,
                    &label,
                    &domain,
                    Os::Linux,
                    Some(i as u32),
                    i * 10 + snap,
                );
            }
        }
        store
    }

    /// Segment files the manifest lists, and those on disk.
    fn listed_and_on_disk(dir: &Path) -> (Vec<String>, Vec<String>) {
        let doc = manifest_doc(dir);
        let listed = doc.segments.into_iter().map(|s| s.file).collect();
        let on_disk = segment_files(dir)
            .unwrap()
            .into_iter()
            .map(|(_, n)| n)
            .collect();
        (listed, on_disk)
    }

    /// Every row of every snapshot with its decoded record.
    fn contents(store: &SnapshotStore) -> Vec<(&str, &str, u8, Option<VisitRecord>)> {
        let mut out = Vec::new();
        for label in store.labels() {
            for (domain, slot) in store.manifest(label).unwrap().entries.keys() {
                let os = crate::record::slot_os(*slot).unwrap();
                out.push((
                    label,
                    domain.as_str(),
                    *slot,
                    store.record(label, domain, os),
                ));
            }
        }
        out
    }

    /// True when `report` shows no damage besides unlisted segments:
    /// exactly the stores `open` accepts.
    fn opens(report: &SnapshotFsckReport) -> bool {
        SnapshotFsckReport {
            unlisted_segments: 0,
            ..*report
        }
        .clean()
    }

    /// Damage `file` of the store in `dir` every way
    /// ([`frame::tests::damaged`]), check that `open` succeeds exactly
    /// when `snapshot_fsck` finds no damage besides unlisted segments,
    /// hand both outcomes to `judge`, then restore the file.
    fn sweep(
        dir: &Path,
        file: &str,
        judge: impl Fn(&str, io::Result<SnapshotStore>, io::Result<SnapshotFsckReport>),
    ) {
        let path = dir.join(file);
        let clean = fs::read(&path).unwrap();
        for (what, bytes) in frame::tests::damaged(&clean) {
            fs::write(&path, &bytes).unwrap();
            let opened = SnapshotStore::open(dir, SegmentMode::Resident);
            let doctor = snapshot_fsck(dir);
            assert_eq!(
                opened.is_ok(),
                doctor.as_ref().is_ok_and(opens),
                "{what}: open and fsck disagree ({doctor:?})"
            );
            judge(&what, opened, doctor);
        }
        fs::write(&path, &clean).unwrap();
    }

    fn sweep_fixture(name: &str) -> (std::path::PathBuf, SnapshotStore) {
        let mut store = SnapshotStore::new();
        for i in 0..4u64 {
            let domain = format!("site{i}.example");
            ingest(&mut store, "snap00", &domain, Os::Linux, Some(1), i);
            store.link_from("snap00", "snap01", &domain, Os::Linux, Some(2));
        }
        let dir = tmp(name);
        store.save(&dir).unwrap();
        (dir, store)
    }

    #[test]
    fn chunk_segment_damage_is_detected_or_harmless() {
        let (dir, store) = sweep_fixture("sweep-segment");
        sweep(&dir, "chunks-0000.ktc", |what, opened, _| {
            if let Ok(opened) = opened {
                assert_eq!(
                    contents(&opened),
                    contents(&store),
                    "{what}: silent divergence"
                );
            }
        });
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn damaged_manifests_fail_with_a_typed_error_never_a_panic() {
        // MANIFEST.json has no checksum of its own yet. A bent hash,
        // segment name or size, or a row bent onto another row's key,
        // is refused (dangling row, damaged segment, refcount drift).
        // A flipped rank digit, or a label, domain or OS slot bent into
        // one no other row uses, still opens as a different store; the
        // sweep pins only that what is refused is refused with
        // InvalidData, never a panic.
        let typed = |e: io::Error| e.kind() == io::ErrorKind::InvalidData;
        let (dir, _) = sweep_fixture("sweep-manifest");
        sweep(&dir, MANIFEST, |what, opened, doctor| {
            assert!(opened.err().is_none_or(typed), "{what}");
            assert!(doctor.err().is_none_or(typed), "{what}");
        });
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_refuses_the_rows_fsck_counts() {
        let (dir, _) = sweep_fixture("bent-rows");
        let clean = manifest_doc(&dir);
        let missing = "0".repeat(32);
        let other = clean.snapshots[0].entries[1].hash.clone();
        // Both snapshots reference each chunk once. A row moved to a
        // hash no segment holds dangles and leaves its own chunk one
        // reference short; a row moved to another stored chunk leaves
        // both chunks' refcounts off.
        for (hash, dangling, drifted) in [(missing, 1, 1), (other, 0, 2)] {
            let mut doc = manifest_doc(&dir);
            doc.snapshots[0].entries[0].hash = hash;
            write_manifest(&dir, &doc);
            let refused = SnapshotStore::open(&dir, SegmentMode::Mmap).err();
            assert_eq!(refused.map(|e| e.kind()), Some(io::ErrorKind::InvalidData));
            let report = snapshot_fsck(&dir).unwrap();
            assert_eq!(
                (report.dangling_refs, report.refcount_mismatches),
                (dangling, drifted),
                "{report:?}"
            );
            write_manifest(&dir, &clean);
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn saves_into_the_opened_directory_swap_the_manifest_last() {
        let dir = tmp("in-place");
        let original = multi_segment_store();
        original.save(&dir).unwrap();
        let (before, _) = listed_and_on_disk(&dir);
        assert!(before.len() >= 3, "the fixture spans several segments");
        let mut store = SnapshotStore::open(&dir, SegmentMode::Mmap).unwrap();
        for label in ["snap00", "snap01", "snap02"] {
            store.remove_snapshot(label);
        }
        store.gc();
        // A save that dies before the manifest swap: fresh segment
        // names on disk, the old store still opens identically, and
        // fsck reports the leaked segments.
        let (doc, _) = store.write_segments(&dir).unwrap();
        assert!(doc.segments.iter().all(|s| !before.contains(&s.file)));
        let reopened = SnapshotStore::open(&dir, SegmentMode::Resident).unwrap();
        assert_eq!(contents(&reopened), contents(&original));
        let report = snapshot_fsck(&dir).unwrap();
        assert_eq!(report.unlisted_segments, doc.segments.len(), "{report:?}");
        // A completed save (what `snapshot gc` does) leaves only the
        // segments its manifest lists, none of them the old ones.
        store.save(&dir).unwrap();
        let (listed, on_disk) = listed_and_on_disk(&dir);
        assert_eq!(
            on_disk, listed,
            "no segment outlives the save that dropped it"
        );
        assert!(listed.len() < before.len() && listed.iter().all(|n| !before.contains(n)));
        let report = snapshot_fsck(&dir).unwrap();
        assert!(report.clean(), "{report:?}");
        let reopened = SnapshotStore::open(&dir, SegmentMode::Resident).unwrap();
        assert_eq!(contents(&reopened), contents(&store));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn content_hash_separates_close_inputs() {
        let a = ContentHash::of(b"abcdef");
        let b = ContentHash::of(b"abcdeg");
        let c = ContentHash::of(b"abcdef ");
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, ContentHash::of(b"abcdef"));
        assert_eq!(ContentHash::from_hex(&a.to_hex()), Some(a));
        assert_eq!(ContentHash::from_hex("zz"), None);
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for d in ["a.example", "b.example", "weird-domain.example"] {
            let s = shard_of(d);
            assert!(s < SNAPSHOT_SHARDS);
            assert_eq!(s, shard_of(d));
        }
    }
}
