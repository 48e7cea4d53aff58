//! On-disk persistence for the telemetry store.
//!
//! The paper's pipeline parsed 11 TB of NetLog into a database once and
//! queried it for months; a store that only lives in memory would force
//! re-crawling before every analysis. A saved store is the journal's
//! own [`crate::frame`] format: a STORE header frame declaring the
//! record count, then one final visit frame per record. It loads
//! through [`journal::replay`] — CRC-checked, resyncing past damage,
//! torn tails loading up to the last complete frame, a cut at a frame
//! boundary caught by the header — and `fsck` doctors it like any
//! journal.

use std::io::Write;
use std::path::Path;

use crate::frame::{self, kind, MAGIC};
use crate::journal::{self, JournalError, JournalSummary, VisitDelta, FLAG_FINAL};
use crate::store::TelemetryStore;

/// Result of loading a saved store or a journal.
#[derive(Debug)]
pub struct LoadReport {
    /// The reconstructed store.
    pub store: TelemetryStore,
    /// Damaged byte spans skipped (failed CRC, framing, or record
    /// decode): the summary's `corrupt_frames`.
    pub corrupt: usize,
    /// Counts, record cross-checks and damage from the read.
    pub summary: JournalSummary,
}

/// Result of writing a store: how much went out and how hard it was
/// pushed to disk (the `LoadReport` counterpart for the write path).
#[derive(Debug, Clone, Copy)]
pub struct SaveReport {
    /// Records written.
    pub records: usize,
    /// Bytes written, including the magic.
    pub bytes: u64,
    /// `fsync` calls issued (file before rename, directory after).
    pub fsyncs: usize,
}

/// Persistence errors: the journal's, since a saved store is a
/// journal.
pub type PersistError = JournalError;

/// Write every record of the store to `path` as a STORE header plus
/// final visit frames, atomically (`frame::write_atomic`): a power
/// loss leaves either the old file or the complete new one. The
/// records' encoded bytes go out as stored, never decoded and
/// re-encoded.
pub fn save(store: &TelemetryStore, path: &Path) -> Result<SaveReport, PersistError> {
    let records = store.raw_all();
    let delta = VisitDelta::default();
    let bytes = frame::write_atomic(path, |out| {
        let mut buf = MAGIC.to_vec();
        frame::put(&mut buf, kind::STORE, &(records.len() as u64).to_le_bytes());
        out.write_all(&buf)?;
        for record in &records {
            buf.clear();
            frame::put(
                &mut buf,
                kind::VISIT,
                &journal::visit_payload(record, &delta, FLAG_FINAL),
            );
            out.write_all(&buf)?;
        }
        Ok(())
    })?;
    Ok(SaveReport {
        records: records.len(),
        bytes,
        fsyncs: 2,
    })
}

/// Load a saved store (or any journal) by replaying its visit frames.
/// Truncation and damaged frames degrade the load, never fail it; a
/// file without the store magic is [`JournalError::BadMagic`].
pub fn load_any(path: &Path) -> Result<LoadReport, PersistError> {
    let report = journal::replay(path)?;
    Ok(LoadReport {
        store: report.store,
        corrupt: report.summary.corrupt_frames,
        summary: report.summary,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::fsck;
    use crate::record::{CrawlId, LoadOutcome, VisitRecord};
    use kt_netbase::Os;

    fn sample_store(n: usize) -> TelemetryStore {
        let store = TelemetryStore::new();
        for i in 0..n {
            store.append(&VisitRecord {
                crawl: CrawlId::top2020(),
                domain: format!("site{i}.example"),
                rank: Some(i as u32 + 1),
                malicious_category: None,
                os: Os::ALL[i % 3],
                outcome: LoadOutcome::Success,
                loaded_at_ms: 100 + i as u64,
                events: Vec::new(),
            });
        }
        store
    }

    /// Frame start offsets of a saved file: the STORE header first,
    /// then one visit frame per record.
    fn frame_starts(bytes: &[u8]) -> Vec<usize> {
        journal::scan(bytes)
            .unwrap()
            .frames
            .iter()
            .map(|f| f.start as usize)
            .collect()
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("kt-persist-{name}-{}", std::process::id()))
    }

    #[test]
    fn save_load_round_trip() {
        let store = sample_store(120);
        let path = tmp("roundtrip");
        save(&store, &path).unwrap();
        let report = load_any(&path).unwrap();
        assert_eq!(report.store.scan_all().unwrap(), store.scan_all().unwrap());
        assert_eq!(report.summary.visits, 120);
        assert!(!report.summary.truncated());
        assert_eq!(report.corrupt, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_file_loads_prefix() {
        let store = sample_store(50);
        let path = tmp("trunc");
        save(&store, &path).unwrap();
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() * 2 / 3]).unwrap();
        let report = load_any(&path).unwrap();
        assert!(report.summary.truncated());
        assert!(report.summary.visits > 0 && report.summary.visits < 50);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_is_rejected() {
        let path = tmp("magic");
        std::fs::write(&path, b"NOTASTORE-file-contents").unwrap();
        assert!(matches!(load_any(&path), Err(PersistError::BadMagic)));
        std::fs::write(&path, b"KT").unwrap();
        assert!(matches!(load_any(&path), Err(PersistError::BadMagic)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_record_is_skipped_not_fatal() {
        let store = sample_store(10);
        let path = tmp("corrupt");
        save(&store, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a byte inside the first record's frame payload.
        let at = frame_starts(&bytes)[1] + 20;
        bytes[at] ^= 0xAA;
        std::fs::write(&path, &bytes).unwrap();
        let report = load_any(&path).unwrap();
        assert_eq!(report.summary.visits + report.corrupt, 10);
        assert!(report.corrupt >= 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_store_round_trips() {
        let store = TelemetryStore::new();
        let path = tmp("empty");
        assert_eq!(save(&store, &path).unwrap().records, 0);
        let report = load_any(&path).unwrap();
        assert_eq!(report.summary.visits, 0);
        assert!(report.store.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_reports_bytes_and_fsyncs() {
        let store = sample_store(10);
        let path = tmp("savereport");
        let report = save(&store, &path).unwrap();
        assert_eq!(report.records, 10);
        assert_eq!(
            report.bytes,
            std::fs::metadata(&path).unwrap().len(),
            "reported bytes match the file"
        );
        assert_eq!(report.fsyncs, 2, "file before rename, directory after");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn oversized_length_field_does_not_allocate() {
        let store = sample_store(5);
        let path = tmp("hugelen");
        save(&store, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Corrupt the first record frame's length field to u32::MAX:
        // capped, never allocated, and the scan resyncs past it.
        let len_at = frame_starts(&bytes)[1] + 3;
        bytes[len_at..len_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let report = load_any(&path).unwrap();
        assert_eq!(report.summary.visits, 4, "only the damaged frame is lost");
        assert_eq!(report.corrupt, 1, "the oversized frame counts as corrupt");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sane_length_past_eof_is_truncation() {
        let store = sample_store(5);
        let path = tmp("pasteof");
        save(&store, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Claim a 1 MiB record (< MAX_FRAME_LEN) in the last frame.
        let len_at = frame_starts(&bytes)[5] + 3;
        bytes[len_at..len_at + 4].copy_from_slice(&(1u32 << 20).to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let report = load_any(&path).unwrap();
        assert!(report.summary.truncated());
        assert_eq!(report.summary.visits, 4);
        assert_eq!(report.corrupt, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn saved_store_damage_is_detected_or_harmless() {
        let store = sample_store(4);
        let path = tmp("sweep");
        save(&store, &path).unwrap();
        let clean = std::fs::read(&path).unwrap();
        for (what, bytes) in crate::frame::tests::damaged(&clean) {
            std::fs::write(&path, &bytes).unwrap();
            let doctor = fsck(&path, journal::FsckOptions::default());
            let Ok(report) = load_any(&path) else {
                assert!(doctor.is_err(), "{what}: fsck reads what load refuses");
                continue;
            };
            let doctor = doctor.unwrap();
            assert_eq!(
                doctor.summary, report.summary,
                "{what}: fsck and load report different damage"
            );
            let detected =
                report.corrupt > 0 || report.summary.truncated() || !doctor.summary.clean();
            let identical = report.store.scan_all() == store.scan_all();
            assert!(detected || identical, "{what}: silent divergence");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn ktstore1_files_are_rejected() {
        let path = tmp("ktstore1");
        let mut legacy = b"KTSTORE1".to_vec();
        legacy.extend_from_slice(&3u32.to_le_bytes());
        legacy.extend_from_slice(b"abc");
        std::fs::write(&path, &legacy).unwrap();
        assert!(matches!(load_any(&path), Err(PersistError::BadMagic)));
        assert!(matches!(
            fsck(&path, journal::FsckOptions::default()),
            Err(PersistError::BadMagic)
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_any_reads_both_formats() {
        use crate::journal::{JournalWriter, VisitDelta, FLAG_FINAL};
        let store = sample_store(8);
        let snap = tmp("any-snap");
        save(&store, &snap).unwrap();
        let report = load_any(&snap).unwrap();
        assert_eq!(report.summary.visits, 8);

        let jpath = tmp("any-journal");
        let w = JournalWriter::create(&jpath).unwrap();
        for record in store.scan_all().unwrap() {
            w.append_visit(&record, &VisitDelta::default(), FLAG_FINAL, false);
        }
        w.sync();
        let report = load_any(&jpath).unwrap();
        assert_eq!(report.summary.visits, 8);
        assert_eq!(
            report.store.scan_all().unwrap(),
            store.scan_all().unwrap(),
            "journal replay reconstructs the same records"
        );
        std::fs::remove_file(&snap).ok();
        std::fs::remove_file(&jpath).ok();
    }
}
