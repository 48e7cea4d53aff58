//! The append-only telemetry store.
//!
//! Records are encoded into append-only byte segments; an in-memory
//! index maps `(crawl, domain, os)` to segment offsets. The store is
//! built for a crawl pool hammering it from many workers at once:
//!
//! * **Lock striping** — keys are hashed across [`SHARD_COUNT`]
//!   shards, each behind its own `RwLock`, so concurrent appends from
//!   different workers almost never contend on the same lock, and the
//!   per-append critical section is a hash-map insert plus a byte
//!   copy (encoding happens outside the lock).
//! * **Interned crawl ids** — campaign names (`top2020`, …) are
//!   interned to a `u32` once per campaign, so the append hot path
//!   never clones the crawl-id `String`.
//! * **A filter-first index** — each shard indexes
//!   `crawl → domain → [per-OS slot]`, so per-crawl and per-OS reads
//!   select exactly the matching byte ranges *before* decoding
//!   anything, instead of string-comparing and decoding the world.
//! * **Zero-copy reads** — full segments are sealed into shared
//!   [`Bytes`]; reads slice the shared buffer instead of copying it.
//!   Bulk readers seal the in-flight segment first, so post-crawl
//!   analysis never copies segment bytes at all.
//!
//! Reads decode on demand — the store keeps bytes, not structs, so
//! memory stays proportional to the (compact) encoded size. Bulk
//! reads return records sorted by (domain, OS) in the paper's OS
//! column order, which is what makes downstream analysis reproducible
//! whatever the append interleaving was.

use std::collections::{BTreeMap, HashMap};

use bytes::Bytes;
use kt_netbase::Os;
use std::sync::RwLock;

use crate::codec::{decode, decode_view, encode, CodecError};
use crate::record::{os_slot, CrawlId, VisitRecord};
use crate::segment::{ShardSpill, SpillConfig};

/// Number of lock-striped shards. A small power of two: enough that an
/// 8-worker crawl pool rarely collides, small enough that per-shard
/// segments still fill.
pub const SHARD_COUNT: usize = 16;

/// OS slots per domain, in the paper's column order (W, L, M).
const N_OS: usize = 3;

/// Start a new segment once the active one reaches this size. The
/// target is per shard, so the whole store seals around
/// `SHARD_COUNT * SEGMENT_TARGET` bytes of buffered appends — which,
/// with spilling enabled, is also the store's whole steady-state heap
/// footprint for segment data.
pub const SEGMENT_TARGET: usize = 512 << 10;

/// Location of one encoded record: logical segment number within its
/// shard, byte offset, byte length. Segments seal in order, so a
/// logical number `< sealed.len()` addresses a sealed segment and the
/// number `== sealed.len()` addresses the active buffer.
#[derive(Debug, Clone, Copy)]
struct Loc {
    seg: u32,
    off: u32,
    len: u32,
}

#[derive(Default, Debug)]
struct ShardInner {
    /// Immutable, shareable segments — reads slice these without
    /// copying. With spilling enabled these are mmap-backed (or
    /// resident-fallback) views of segment files instead of heap
    /// buffers.
    sealed: Vec<Bytes>,
    /// The in-flight segment; sealed when full or when a bulk reader
    /// needs a stable view.
    active: Vec<u8>,
    /// crawl → domain → per-OS record location.
    index: HashMap<u32, BTreeMap<String, [Option<Loc>; N_OS]>>,
    /// Number of `Some` slots in `index`.
    visits: usize,
    /// When set, sealed buffers are written to segment files and
    /// served back through [`crate::segment`] instead of staying on
    /// the heap.
    spill: Option<ShardSpill>,
    /// Sealed segments successfully spilled to disk.
    spilled: usize,
    /// Bytes of sealed segments still on the heap (spill disabled, or
    /// a spill write that failed and degraded to resident).
    sealed_heap_bytes: usize,
    /// Per-shard seal threshold override (`None` = [`SEGMENT_TARGET`]).
    target: Option<usize>,
}

impl ShardInner {
    /// Seal the active buffer into an immutable shared segment —
    /// spilled to a segment file when the shard has a spill target,
    /// kept on the heap otherwise (or when the spill write fails:
    /// spilling is a memory optimization, never load-bearing).
    fn seal(&mut self) {
        if self.active.is_empty() {
            return;
        }
        let buf = std::mem::take(&mut self.active);
        let segment = match &self.spill {
            Some(spill) => {
                let (bytes, spilled) = spill.spill(self.sealed.len(), buf);
                if spilled {
                    self.spilled += 1;
                } else {
                    self.sealed_heap_bytes += bytes.len();
                }
                bytes
            }
            None => {
                self.sealed_heap_bytes += buf.len();
                Bytes::from(buf)
            }
        };
        self.sealed.push(segment);
    }

    /// The bytes of one located record. Sealed segments are sliced
    /// (no copy); only records still in the active buffer pay a copy.
    fn read(&self, loc: Loc) -> Bytes {
        let (off, len) = (loc.off as usize, loc.len as usize);
        match self.sealed.get(loc.seg as usize) {
            Some(segment) => segment.slice(off..off + len),
            None => Bytes::copy_from_slice(&self.active[off..off + len]),
        }
    }
}

#[derive(Default, Debug)]
struct Shard {
    inner: RwLock<ShardInner>,
}

/// The crawl-id interner: campaign names are few and long-lived, so
/// each is assigned a dense `u32` on first append and the hot path
/// only ever compares integers.
#[derive(Default, Debug)]
struct Interner {
    by_name: HashMap<String, u32>,
    names: Vec<CrawlId>,
}

/// Concurrent append-only store of visit records.
#[derive(Default, Debug)]
pub struct TelemetryStore {
    crawls: RwLock<Interner>,
    shards: [Shard; SHARD_COUNT],
}

/// FNV-1a over the interned crawl id, the domain, and the OS slot.
fn shard_of(crawl: u32, domain: &str, os: Os) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |b: u8| {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for b in crawl.to_le_bytes() {
        mix(b);
    }
    for b in domain.bytes() {
        mix(b);
    }
    mix(os_slot(os));
    (h % SHARD_COUNT as u64) as usize
}

impl TelemetryStore {
    /// An empty store.
    pub fn new() -> TelemetryStore {
        TelemetryStore::default()
    }

    /// An empty store that spills sealed segments to files under
    /// `config.dir`, memory-mapping them back — the larger-than-RAM
    /// path: the heap only ever holds each shard's active buffer, so
    /// resident set stays flat however big the campaign grows. Creates the directory; fails only if it cannot.
    pub fn with_spill(config: SpillConfig) -> std::io::Result<TelemetryStore> {
        std::fs::create_dir_all(&config.dir)?;
        let store = TelemetryStore::default();
        for (i, shard) in store.shards.iter().enumerate() {
            let mut inner = shard.inner.write().expect("store lock poisoned");
            inner.spill = Some(ShardSpill {
                dir: config.dir.clone(),
                shard: i,
            });
            inner.target = config.segment_target;
        }
        Ok(store)
    }

    /// Seal every shard's active buffer (spilling it when spill is
    /// configured). Bulk readers do this lazily per shard; benches and
    /// the flat-memory gate call it explicitly to force the whole
    /// store out of the heap at a known point.
    pub fn seal_all(&self) {
        for shard in &self.shards {
            shard.inner.write().expect("store lock poisoned").seal();
        }
    }

    /// Sealed segments that were successfully spilled to disk.
    pub fn spilled_segments(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.inner.read().expect("store lock poisoned").spilled)
            .sum()
    }

    /// Heap bytes currently held in active (unsealed) buffers — with
    /// spilling enabled this is the store's whole heap footprint for
    /// segment data, and it is bounded by
    /// `SHARD_COUNT * SEGMENT_TARGET` however many records stream
    /// through.
    pub fn resident_segment_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let inner = s.inner.read().expect("store lock poisoned");
                inner.sealed_heap_bytes + inner.active.len()
            })
            .sum()
    }

    /// Intern a crawl id, assigning a dense `u32` on first sight.
    fn intern(&self, crawl: &str) -> u32 {
        if let Some(id) = self.lookup(crawl) {
            return id;
        }
        let mut interner = self.crawls.write().expect("interner lock poisoned");
        if let Some(&id) = interner.by_name.get(crawl) {
            return id;
        }
        let id = interner.names.len() as u32;
        interner.names.push(CrawlId(crawl.to_string()));
        interner.by_name.insert(crawl.to_string(), id);
        id
    }

    /// Borrowed-key lookup of an already-interned crawl id: never
    /// allocates, returns `None` for crawls the store has never seen.
    fn lookup(&self, crawl: &str) -> Option<u32> {
        self.crawls
            .read()
            .expect("interner lock poisoned")
            .by_name
            .get(crawl)
            .copied()
    }

    /// Append one record (last write wins per key).
    pub fn append(&self, record: &VisitRecord) {
        // Encode outside the lock: the critical section is only the
        // byte copy and the index insert.
        let encoded = encode(record);
        self.insert(record.crawl.as_str(), &record.domain, record.os, &encoded);
    }

    /// Append one encoded record, such as a replayed journal frame,
    /// without decoding it into an owned record. The identity
    /// `(crawl, domain, os)` is read through [`decode_view`]; bytes it
    /// rejects are refused, never stored. Last write wins per key.
    pub fn append_encoded(&self, encoded: &[u8]) -> Result<(), CodecError> {
        let view = decode_view(encoded)?;
        self.insert(view.crawl, view.domain, view.os, encoded);
        Ok(())
    }

    /// The single insert path: store `encoded` under its identity.
    fn insert(&self, crawl: &str, domain: &str, os: Os, encoded: &[u8]) {
        let crawl = self.intern(crawl);
        let shard = &self.shards[shard_of(crawl, domain, os)];
        let mut guard = shard.inner.write().expect("store lock poisoned");
        let inner = &mut *guard;
        if inner.active.len() >= inner.target.unwrap_or(SEGMENT_TARGET) {
            inner.seal();
        }
        let loc = Loc {
            seg: inner.sealed.len() as u32,
            off: inner.active.len() as u32,
            len: encoded.len() as u32,
        };
        inner.active.extend_from_slice(encoded);
        let by_domain = inner.index.entry(crawl).or_default();
        // Clone the domain string only on first sight of the domain;
        // overwrites and same-domain other-OS appends borrow.
        if !by_domain.contains_key(domain) {
            by_domain.insert(domain.to_string(), [None; N_OS]);
        }
        let slots = by_domain
            .get_mut(domain)
            .expect("domain entry just ensured");
        let slot = &mut slots[os_slot(os) as usize];
        if slot.is_none() {
            inner.visits += 1;
        }
        *slot = Some(loc);
    }

    /// Number of stored visits.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.inner.read().expect("store lock poisoned").visits)
            .sum()
    }

    /// True if nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total encoded bytes.
    pub fn byte_size(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let inner = s.inner.read().expect("store lock poisoned");
                inner.sealed.iter().map(Bytes::len).sum::<usize>() + inner.active.len()
            })
            .sum()
    }

    /// Number of byte segments across all shards (sealed + active).
    #[cfg(test)]
    fn segment_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let inner = s.inner.read().expect("store lock poisoned");
                inner.sealed.len() + usize::from(!inner.active.is_empty())
            })
            .sum()
    }

    /// Number of lock-striped shards (the parallel analysis driver
    /// streams records shard by shard).
    pub fn shard_count(&self) -> usize {
        SHARD_COUNT
    }

    /// Every crawl id the store has seen, sorted by name.
    pub fn crawl_ids(&self) -> Vec<CrawlId> {
        let mut ids = self
            .crawls
            .read()
            .expect("interner lock poisoned")
            .names
            .clone();
        ids.sort();
        ids
    }

    /// Indexed point lookup. The key path is allocation-free: the
    /// crawl resolves through the interner and the domain through a
    /// borrowed `&str` map lookup — no `String` or key struct is
    /// built per call.
    pub fn get(&self, crawl: &CrawlId, domain: &str, os: Os) -> Option<VisitRecord> {
        let crawl = self.lookup(crawl.as_str())?;
        let shard = &self.shards[shard_of(crawl, domain, os)];
        let inner = shard.inner.read().expect("store lock poisoned");
        let loc = (*inner.index.get(&crawl)?.get(domain)?)[os_slot(os) as usize]?;
        decode(inner.read(loc)).ok()
    }

    /// All records of one crawl on one OS of one shard, in domain
    /// order — [`Self::shard_raw_on`], decoded.
    pub fn shard_records_on(
        &self,
        crawl: &CrawlId,
        shard: usize,
        os: Option<Os>,
    ) -> Vec<VisitRecord> {
        self.shard_raw_on(crawl, shard, os)
            .into_iter()
            .filter_map(|bytes| decode(bytes).ok())
            .collect()
    }

    /// The encoded bytes of every record of one crawl on one OS of one
    /// shard, in the same (domain, OS) order as
    /// [`Self::shard_records_on`] — but *not decoded*. Seals the
    /// shard's active segment first, so every returned `Bytes` is a
    /// zero-copy slice of shared segment memory that outlives the
    /// shard lock; the caller decodes with
    /// [`decode_view`] and borrows straight
    /// from the segment.
    pub fn shard_raw_on(&self, crawl: &CrawlId, shard: usize, os: Option<Os>) -> Vec<Bytes> {
        let Some(crawl) = self.lookup(crawl.as_str()) else {
            return Vec::new();
        };
        let mut inner = self.shards[shard]
            .inner
            .write()
            .expect("store lock poisoned");
        inner.seal();
        let Some(by_domain) = inner.index.get(&crawl) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for slots in by_domain.values() {
            for (slot, loc) in slots.iter().enumerate() {
                if let Some(os) = os {
                    if os_slot(os) as usize != slot {
                        continue;
                    }
                }
                if let Some(loc) = loc {
                    out.push(inner.read(*loc));
                }
            }
        }
        out
    }

    /// All records of one crawl, sorted by (domain, OS) in the
    /// paper's OS column order. OS slots are selected from the index
    /// before anything is decoded.
    pub fn crawl_records(&self, crawl: &CrawlId) -> Vec<VisitRecord> {
        self.crawl_records_filtered(crawl, None)
    }

    /// All records of one crawl on one OS, sorted by domain. The OS
    /// filter is applied on the index, so only matching records are
    /// ever decoded.
    pub fn crawl_records_on(&self, crawl: &CrawlId, os: Os) -> Vec<VisitRecord> {
        self.crawl_records_filtered(crawl, Some(os))
    }

    fn crawl_records_filtered(&self, crawl: &CrawlId, os: Option<Os>) -> Vec<VisitRecord> {
        let mut out = Vec::new();
        for shard in 0..SHARD_COUNT {
            out.extend(self.shard_records_on(crawl, shard, os));
        }
        out.sort_by(|a, b| {
            a.domain
                .cmp(&b.domain)
                .then(os_slot(a.os).cmp(&os_slot(b.os)))
        });
        out
    }

    /// The encoded bytes of every stored record, sorted by (crawl,
    /// domain, OS): zero-copy slices of sealed segment memory, in the
    /// order `persist::save` writes.
    pub fn raw_all(&self) -> Vec<Bytes> {
        let mut out = Vec::with_capacity(self.len());
        for crawl in self.crawl_ids() {
            let id = self.lookup(crawl.as_str()).expect("listed crawl interned");
            let mut rows: Vec<(String, usize, Bytes)> = Vec::new();
            for shard in &self.shards {
                let mut inner = shard.inner.write().expect("store lock poisoned");
                inner.seal();
                let Some(by_domain) = inner.index.get(&id) else {
                    continue;
                };
                for (domain, slots) in by_domain {
                    for (slot, loc) in slots.iter().enumerate() {
                        if let Some(loc) = loc {
                            rows.push((domain.clone(), slot, inner.read(*loc)));
                        }
                    }
                }
            }
            rows.sort_by(|a, b| (&a.0, a.1).cmp(&(&b.0, b.1)));
            out.extend(rows.into_iter().map(|(_, _, bytes)| bytes));
        }
        out
    }

    /// Full scan over every stored record, sorted by (crawl, domain,
    /// OS). Unlike [`Self::crawl_records`] this propagates decode
    /// errors.
    #[cfg(test)]
    pub(crate) fn scan_all(&self) -> Result<Vec<VisitRecord>, CodecError> {
        self.raw_all().into_iter().map(decode).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::LoadOutcome;

    fn rec(crawl: CrawlId, domain: &str, os: Os) -> VisitRecord {
        VisitRecord {
            crawl,
            domain: domain.to_string(),
            rank: Some(42),
            malicious_category: None,
            os,
            outcome: LoadOutcome::Success,
            loaded_at_ms: 300,
            events: Vec::new(),
        }
    }

    #[test]
    fn append_and_lookup() {
        let store = TelemetryStore::new();
        store.append(&rec(CrawlId::top2020(), "a.example", Os::Windows));
        store.append(&rec(CrawlId::top2020(), "a.example", Os::Linux));
        store.append(&rec(CrawlId::top2021(), "a.example", Os::Windows));
        assert_eq!(store.len(), 3);
        let got = store
            .get(&CrawlId::top2020(), "a.example", Os::Windows)
            .unwrap();
        assert_eq!(got.domain, "a.example");
        assert!(store
            .get(&CrawlId::top2020(), "a.example", Os::MacOs)
            .is_none());
        assert!(store
            .get(&CrawlId::malicious(), "a.example", Os::Windows)
            .is_none());
    }

    #[test]
    fn crawl_partitioning() {
        let store = TelemetryStore::new();
        for i in 0..10 {
            store.append(&rec(
                CrawlId::top2020(),
                &format!("d{i}.example"),
                Os::Linux,
            ));
        }
        for i in 0..4 {
            store.append(&rec(
                CrawlId::malicious(),
                &format!("m{i}.example"),
                Os::Linux,
            ));
        }
        assert_eq!(store.crawl_records(&CrawlId::top2020()).len(), 10);
        assert_eq!(store.crawl_records(&CrawlId::malicious()).len(), 4);
        assert_eq!(store.crawl_records(&CrawlId::top2021()).len(), 0);
        assert_eq!(
            store.crawl_ids(),
            vec![CrawlId::malicious(), CrawlId::top2020()]
        );
    }

    #[test]
    fn bulk_reads_are_sorted_by_domain_then_os() {
        let store = TelemetryStore::new();
        // Appended deliberately out of order.
        store.append(&rec(CrawlId::top2020(), "zz.example", Os::MacOs));
        store.append(&rec(CrawlId::top2020(), "aa.example", Os::Linux));
        store.append(&rec(CrawlId::top2020(), "mm.example", Os::Windows));
        store.append(&rec(CrawlId::top2020(), "aa.example", Os::Windows));
        let records = store.crawl_records(&CrawlId::top2020());
        let keys: Vec<(String, Os)> = records.iter().map(|r| (r.domain.clone(), r.os)).collect();
        assert_eq!(
            keys,
            vec![
                ("aa.example".to_string(), Os::Windows),
                ("aa.example".to_string(), Os::Linux),
                ("mm.example".to_string(), Os::Windows),
                ("zz.example".to_string(), Os::MacOs),
            ]
        );
    }

    #[test]
    fn os_filter_applies_before_decode() {
        let store = TelemetryStore::new();
        for i in 0..6 {
            for os in Os::ALL {
                store.append(&rec(CrawlId::top2020(), &format!("s{i}.example"), os));
            }
        }
        let linux = store.crawl_records_on(&CrawlId::top2020(), Os::Linux);
        assert_eq!(linux.len(), 6);
        assert!(linux.iter().all(|r| r.os == Os::Linux));
        let domains: Vec<&str> = linux.iter().map(|r| r.domain.as_str()).collect();
        let mut sorted = domains.clone();
        sorted.sort();
        assert_eq!(domains, sorted, "domain-sorted");
    }

    #[test]
    fn shard_records_cover_the_crawl_exactly_once() {
        let store = TelemetryStore::new();
        for i in 0..40 {
            store.append(&rec(
                CrawlId::top2020(),
                &format!("s{i}.example"),
                Os::Linux,
            ));
        }
        let mut via_shards: Vec<VisitRecord> = (0..store.shard_count())
            .flat_map(|s| store.shard_records_on(&CrawlId::top2020(), s, None))
            .collect();
        via_shards.sort_by(|a, b| a.domain.cmp(&b.domain));
        assert_eq!(via_shards, store.crawl_records(&CrawlId::top2020()));
    }

    #[test]
    fn shard_raw_matches_decoded_shard_records() {
        let store = TelemetryStore::new();
        for i in 0..40 {
            let os = [Os::Windows, Os::Linux, Os::MacOs][i % 3];
            store.append(&rec(CrawlId::top2020(), &format!("s{i}.example"), os));
        }
        for shard in 0..store.shard_count() {
            for os in [None, Some(Os::Linux)] {
                let decoded = store.shard_records_on(&CrawlId::top2020(), shard, os);
                let raw = store.shard_raw_on(&CrawlId::top2020(), shard, os);
                let via_view: Vec<VisitRecord> = raw
                    .iter()
                    .map(|bytes| {
                        crate::codec::decode_view(bytes)
                            .expect("stored records decode")
                            .to_owned()
                    })
                    .collect();
                assert_eq!(via_view, decoded, "shard {shard} os {os:?}");
            }
        }
        assert!(store.shard_raw_on(&CrawlId::top2021(), 0, None).is_empty());
    }

    #[test]
    fn append_encoded_stores_the_bytes_and_refuses_garbage() {
        let store = TelemetryStore::new();
        let record = rec(CrawlId::top2020(), "raw.example", Os::Linux);
        store.append_encoded(&encode(&record)).unwrap();
        assert!(store.append_encoded(b"not a record").is_err());
        assert_eq!(store.scan_all().unwrap(), vec![record]);
    }

    #[test]
    fn last_write_wins() {
        let store = TelemetryStore::new();
        let mut first = rec(CrawlId::top2020(), "dup.example", Os::Windows);
        first.loaded_at_ms = 1;
        store.append(&first);
        let mut second = first.clone();
        second.loaded_at_ms = 2;
        store.append(&second);
        assert_eq!(store.len(), 1);
        assert_eq!(
            store
                .get(&CrawlId::top2020(), "dup.example", Os::Windows)
                .unwrap()
                .loaded_at_ms,
            2
        );
    }

    #[test]
    fn scan_matches_indexed_reads() {
        let store = TelemetryStore::new();
        for i in 0..50 {
            store.append(&rec(
                CrawlId::top2020(),
                &format!("s{i}.example"),
                Os::MacOs,
            ));
        }
        let scanned = store.scan_all().unwrap();
        assert_eq!(scanned.len(), 50);
        for r in &scanned {
            let via_index = store.get(&r.crawl, &r.domain, r.os).unwrap();
            assert_eq!(&via_index, r);
        }
    }

    #[test]
    fn reads_interleaved_with_appends_stay_consistent() {
        // Bulk reads seal the active segment; appends after a seal
        // must land in a fresh segment without invalidating anything.
        let store = TelemetryStore::new();
        for i in 0..10 {
            store.append(&rec(
                CrawlId::top2020(),
                &format!("a{i}.example"),
                Os::Linux,
            ));
        }
        assert_eq!(store.crawl_records(&CrawlId::top2020()).len(), 10);
        for i in 0..10 {
            store.append(&rec(
                CrawlId::top2020(),
                &format!("b{i}.example"),
                Os::Linux,
            ));
        }
        assert_eq!(store.crawl_records(&CrawlId::top2020()).len(), 20);
        for i in 0..10 {
            assert!(store
                .get(&CrawlId::top2020(), &format!("a{i}.example"), Os::Linux)
                .is_some());
        }
    }

    #[test]
    fn concurrent_appends() {
        use std::sync::Arc;
        let store = Arc::new(TelemetryStore::new());
        let mut handles = Vec::new();
        for t in 0..4 {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    store.append(&rec(
                        CrawlId::top2020(),
                        &format!("t{t}-d{i}.example"),
                        Os::Linux,
                    ));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.len(), 400);
        assert!(store.byte_size() > 0);
    }

    #[test]
    fn concurrent_appends_across_crawls_intern_once() {
        use std::sync::Arc;
        let store = Arc::new(TelemetryStore::new());
        let mut handles = Vec::new();
        for t in 0..4 {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    let crawl = if i % 2 == 0 {
                        CrawlId::top2020()
                    } else {
                        CrawlId::top2021()
                    };
                    store.append(&rec(crawl, &format!("t{t}-d{i}.example"), Os::Linux));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.crawl_ids().len(), 2);
        assert_eq!(store.len(), 200);
    }

    #[test]
    fn segments_roll_over() {
        let store = TelemetryStore::new();
        // Records with big event-free bodies via long domain names.
        let long = "x".repeat(200);
        for i in 0..40_000 {
            store.append(&rec(
                CrawlId::top2020(),
                &format!("{long}{i}.example"),
                Os::Linux,
            ));
        }
        assert!(
            store.byte_size() > SEGMENT_TARGET,
            "multiple segments filled"
        );
        assert!(
            store.segment_count() > SHARD_COUNT,
            "at least one shard rolled its segment over"
        );
        assert_eq!(store.len(), 40_000);
    }

    fn spill_dir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("kt-store-spill-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn spilled_store_reads_back_identically() {
        use crate::segment::SpillConfig;
        let dir = spill_dir("identical");
        let plain = TelemetryStore::new();
        let spilled =
            TelemetryStore::with_spill(SpillConfig::mmap(&dir).with_segment_target(2_048)).unwrap();
        for i in 0..500 {
            let r = rec(CrawlId::top2020(), &format!("s{i:04}.example"), Os::Linux);
            plain.append(&r);
            spilled.append(&r);
        }
        spilled.seal_all();
        assert!(
            spilled.spilled_segments() > 0,
            "a 2 KiB target spills a 500-record store"
        );
        assert_eq!(
            spilled.crawl_records(&CrawlId::top2020()),
            plain.crawl_records(&CrawlId::top2020()),
            "mmap-backed reads equal heap reads"
        );
        for i in (0..500).step_by(37) {
            assert_eq!(
                spilled.get(&CrawlId::top2020(), &format!("s{i:04}.example"), Os::Linux),
                plain.get(&CrawlId::top2020(), &format!("s{i:04}.example"), Os::Linux),
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spilling_keeps_the_heap_footprint_flat() {
        use crate::segment::SpillConfig;
        let dir = spill_dir("flat");
        let target = 4_096usize;
        let store = TelemetryStore::with_spill(SpillConfig::mmap(&dir).with_segment_target(target))
            .unwrap();
        let long = "x".repeat(120);
        for i in 0..2_000 {
            store.append(&rec(
                CrawlId::top2020(),
                &format!("{long}{i}.example"),
                Os::Linux,
            ));
        }
        store.seal_all();
        assert!(
            store.byte_size() > target * SHARD_COUNT,
            "well past the whole store's buffered-segment budget"
        );
        assert_eq!(
            store.resident_segment_bytes(),
            0,
            "after seal_all every segment lives on disk, not the heap"
        );
        assert_eq!(store.len(), 2_000, "nothing lost to spilling");
        std::fs::remove_dir_all(&dir).ok();
    }
}
