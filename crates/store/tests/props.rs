//! Property tests: the binary codec round-trips arbitrary records, and
//! the journal's framing layer (sync marker + length + CRC32) recovers
//! the maximal clean subset of frames from flipped, truncated, and
//! spliced byte streams without ever panicking or mis-decoding.

use kt_netbase::Os;
use kt_netlog::{EventParams, EventPhase, EventType, NetError, NetLogEvent, SourceRef, SourceType};
use kt_store::codec::{decode, decode_view, encode};
use kt_store::frame::{self, MAGIC as JOURNAL_MAGIC};
use kt_store::journal::{self, FrameBody, JournalWriter, VisitDelta, FLAG_FINAL};
use kt_store::segment::load_segment;
use kt_store::{CrawlId, LoadOutcome, SegmentMode, VisitRecord};
use proptest::prelude::*;

fn arb_params() -> impl Strategy<Value = (EventType, EventParams)> {
    prop_oneof![
        Just((EventType::RequestAlive, EventParams::None)),
        (
            "[ -~]{0,40}",
            "[A-Z]{3,7}",
            proptest::option::of("[ -~]{0,30}"),
            any::<u32>()
        )
            .prop_map(|(url, method, initiator, load_flags)| (
                EventType::UrlRequestStartJob,
                EventParams::UrlRequestStart {
                    url,
                    method,
                    initiator,
                    load_flags
                }
            )),
        "[ -~]{0,60}".prop_map(|l| (
            EventType::UrlRequestRedirected,
            EventParams::Redirect { location: l }
        )),
        "[ -~]{0,40}".prop_map(|h| (
            EventType::HostResolverImplJob,
            EventParams::DnsJob { host: h }
        )),
        "[ -~]{0,30}".prop_map(|a| (EventType::TcpConnect, EventParams::Connect { address: a })),
        any::<u16>().prop_map(|s| (
            EventType::HttpTransactionReadHeaders,
            EventParams::ResponseHeaders { status: s }
        )),
        "[ -~]{0,50}".prop_map(|u| (
            EventType::WebSocketSendRequestHeaders,
            EventParams::WebSocket { url: u }
        )),
        any::<u64>().prop_map(|l| (
            EventType::WebSocketRecvFrame,
            EventParams::WebSocketFrame { length: l }
        )),
        any::<i32>().prop_map(|e| (
            EventType::FailedRequest,
            EventParams::Failed { net_error: e }
        )),
    ]
}

fn arb_event() -> impl Strategy<Value = NetLogEvent> {
    (any::<u32>(), any::<u32>(), 0u32..6, 0u32..3, arb_params()).prop_map(
        |(time, id, src, phase, (event_type, params))| NetLogEvent {
            time: time as u64,
            event_type,
            source: SourceRef {
                id: id as u64,
                kind: SourceType::from_code(src).unwrap(),
            },
            phase: EventPhase::from_code(phase).unwrap(),
            params,
        },
    )
}

fn arb_record() -> impl Strategy<Value = VisitRecord> {
    (
        "[a-z0-9.]{1,40}",
        proptest::option::of(any::<u32>()),
        proptest::option::of(0u8..3),
        0usize..3,
        prop_oneof![
            Just(LoadOutcome::Success),
            (0usize..NetError::ALL.len()).prop_map(|i| LoadOutcome::Error(NetError::ALL[i])),
        ],
        any::<u32>(),
        proptest::collection::vec(arb_event(), 0..30),
        prop_oneof![Just("top2020"), Just("top2021"), Just("malicious")],
    )
        .prop_map(
            |(domain, rank, cat, os, outcome, loaded, events, crawl)| VisitRecord {
                crawl: CrawlId(crawl.to_string()),
                domain,
                rank,
                malicious_category: cat,
                os: Os::ALL[os],
                outcome,
                loaded_at_ms: loaded as u64,
                events,
            },
        )
}

proptest! {
    #[test]
    fn codec_round_trips(record in arb_record()) {
        let decoded = decode(encode(&record)).unwrap();
        prop_assert_eq!(decoded, record);
    }

    #[test]
    fn decoder_never_panics_on_noise(data in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = decode(bytes::Bytes::from(data));
    }

    #[test]
    fn truncated_records_error_not_panic(record in arb_record(), frac in 0.0f64..1.0) {
        let encoded = encode(&record);
        let cut = ((encoded.len() as f64) * frac) as usize;
        if cut < encoded.len() {
            prop_assert!(decode(encoded.slice(0..cut)).is_err());
        }
    }

    /// The borrowed decoder must agree with the owned decoder on every
    /// well-formed record: same value after `to_owned()`.
    #[test]
    fn decode_view_agrees_with_decode_on_records(record in arb_record()) {
        let encoded = encode(&record);
        let owned = decode(encoded.clone()).unwrap();
        let view = decode_view(&encoded).unwrap();
        prop_assert_eq!(&view.to_owned(), &owned);
        prop_assert_eq!(view.domain, owned.domain.as_str());
        prop_assert_eq!(view.crawl, owned.crawl.as_str());
        prop_assert_eq!(view.events.len(), owned.events.len());
        // A view of the owned record is the same view.
        prop_assert_eq!(owned.view(), view);
    }

    /// And it must reject exactly what the owned decoder rejects, with
    /// the same error, at *every* truncation point of a valid record.
    #[test]
    fn decode_view_rejects_same_truncations(record in arb_record()) {
        let encoded = encode(&record);
        for cut in 0..encoded.len() {
            match (decode(encoded.slice(0..cut)), decode_view(&encoded[..cut])) {
                (Ok(a), Ok(b)) => prop_assert_eq!(b.to_owned(), a, "cut {}", cut),
                (Err(a), Err(b)) => prop_assert_eq!(a, b, "cut {}", cut),
                (a, b) => prop_assert!(
                    false,
                    "decoders disagree at cut {}: owned={:?} view={:?}",
                    cut, a, b
                ),
            }
        }
    }

    /// Same agreement on arbitrary noise and on valid records with a
    /// corrupted byte: accept together (same value) or reject together
    /// (same error).
    #[test]
    fn decode_view_agrees_on_noise(data in proptest::collection::vec(any::<u8>(), 0..300)) {
        match (decode(bytes::Bytes::from(data.clone())), decode_view(&data)) {
            (Ok(a), Ok(b)) => prop_assert_eq!(b.to_owned(), a),
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "decoders disagree: owned={:?} view={:?}", a, b),
        }
    }

    #[test]
    fn decode_view_agrees_on_corrupted_records(
        record in arb_record(),
        pos_frac in 0.0f64..1.0,
        xor in 1u8..,
    ) {
        let mut data = encode(&record).to_vec();
        if !data.is_empty() {
            let pos = ((data.len() as f64) * pos_frac) as usize % data.len();
            data[pos] ^= xor;
        }
        match (decode(bytes::Bytes::from(data.clone())), decode_view(&data)) {
            (Ok(a), Ok(b)) => prop_assert_eq!(b.to_owned(), a),
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "decoders disagree: owned={:?} view={:?}", a, b),
        }
    }
}

// ---------------------------------------------------- journal framing

/// Hand-encode one journal frame exactly as the writer lays it out:
/// `SYNC kind len:u32le payload crc32(kind‖len‖payload):u32le`. Built
/// here rather than through `JournalWriter` so the properties can use
/// arbitrary (unknown-kind) payloads without payload validation.
fn raw_frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(payload.len() + 11);
    frame.extend_from_slice(&frame::SYNC);
    frame.push(kind);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    let crc = frame::crc32(&frame[2..]);
    frame.extend_from_slice(&crc.to_le_bytes());
    frame
}

/// Magic plus every frame, returning the byte stream and each frame's
/// start offset.
fn raw_journal(frames: &[(u8, Vec<u8>)]) -> (Vec<u8>, Vec<usize>) {
    let mut data = JOURNAL_MAGIC.to_vec();
    let mut starts = Vec::with_capacity(frames.len());
    for (kind, payload) in frames {
        starts.push(data.len());
        data.extend_from_slice(&raw_frame(*kind, payload));
    }
    (data, starts)
}

/// Unknown-kind frames exercise the framing layer in isolation: the
/// scanner carries them verbatim (forward compatibility), so recovered
/// bytes can be compared against the originals exactly. Kinds start at
/// 10 to stay clear of the reserved frame kinds.
fn arb_unknown_frames() -> impl Strategy<Value = Vec<(u8, Vec<u8>)>> {
    proptest::collection::vec(
        (10u8..251, proptest::collection::vec(any::<u8>(), 0..120)),
        1..10,
    )
}

fn unknown_bodies(report: &journal::ScanReport) -> Vec<(u8, Vec<u8>)> {
    report
        .frames
        .iter()
        .filter_map(|f| match &f.body {
            FrameBody::Unknown => Some((f.kind, f.payload.to_vec())),
            _ => None,
        })
        .collect()
}

/// Remove each survivor from the original multiset, failing if the
/// scanner reports a frame whose bytes were never written.
fn drain_survivors(originals: &[(u8, Vec<u8>)], survivors: &[(u8, Vec<u8>)]) -> Vec<(u8, Vec<u8>)> {
    let mut pool = originals.to_vec();
    for survivor in survivors {
        let at = pool
            .iter()
            .position(|original| original == survivor)
            .unwrap_or_else(|| panic!("scanner invented a frame: {survivor:?}"));
        pool.remove(at);
    }
    pool
}

proptest! {
    #[test]
    fn journal_scan_parses_every_clean_stream(frames in arb_unknown_frames()) {
        let (data, _) = raw_journal(&frames);
        let report = journal::scan(&data).unwrap();
        prop_assert_eq!(report.frames.len(), frames.len());
        prop_assert!(report.corrupt_spans.is_empty());
        prop_assert!(!report.truncated_tail);
        prop_assert_eq!(report.valid_end, data.len() as u64);
        for (scanned, original) in report.frames.iter().zip(&frames) {
            match &scanned.body {
                FrameBody::Unknown => {
                    prop_assert_eq!(scanned.kind, original.0);
                    prop_assert_eq!(scanned.payload, &original.1[..]);
                }
                other => prop_assert!(false, "unexpected frame body {other:?}"),
            }
        }
    }

    #[test]
    fn journal_scan_never_panics_on_noise(noise in proptest::collection::vec(any::<u8>(), 0..400)) {
        let mut data = JOURNAL_MAGIC.to_vec();
        data.extend_from_slice(&noise);
        let report = journal::scan(&data).unwrap();
        prop_assert!(report.valid_end <= data.len() as u64);
        for frame in &report.frames {
            prop_assert!(frame.start >= JOURNAL_MAGIC.len() as u64);
            prop_assert!(frame.end <= data.len() as u64);
        }
        if !noise.starts_with(JOURNAL_MAGIC) {
            prop_assert!(journal::scan(&noise).is_err());
        }
    }

    #[test]
    fn a_flipped_byte_loses_exactly_the_covering_frame(
        frames in arb_unknown_frames(),
        frac in 0.0f64..1.0,
        xor in 1u8..255,
    ) {
        let (data, _) = raw_journal(&frames);
        let body_len = data.len() - JOURNAL_MAGIC.len();
        let off = JOURNAL_MAGIC.len() + ((body_len - 1) as f64 * frac) as usize;
        let mut bent = data.clone();
        bent[off] ^= xor;
        let report = journal::scan(&bent).unwrap();
        let survivors = unknown_bodies(&report);
        // One byte changed; CRC32 catches any single-byte error, so the
        // covering frame is dropped and every other frame survives.
        prop_assert_eq!(survivors.len() + 1, frames.len(), "flip at {}", off);
        drain_survivors(&frames, &survivors);
        prop_assert!(!report.corrupt_spans.is_empty() || report.truncated_tail);
    }

    #[test]
    fn spliced_noise_never_hides_intact_frames(
        frames in arb_unknown_frames(),
        noise in proptest::collection::vec(any::<u8>(), 1..60),
        at_frac in 0.0f64..1.0,
    ) {
        let (data, starts) = raw_journal(&frames);
        // Splice at a frame boundary: any start offset, or EOF.
        let mut boundaries = starts.clone();
        boundaries.push(data.len());
        let at = boundaries[((boundaries.len() - 1) as f64 * at_frac) as usize];
        let mut spliced = Vec::with_capacity(data.len() + noise.len());
        spliced.extend_from_slice(&data[..at]);
        spliced.extend_from_slice(&noise);
        spliced.extend_from_slice(&data[at..]);
        let report = journal::scan(&spliced).unwrap();
        let survivors = unknown_bodies(&report);
        // Resync must step over the garbage and recover every frame
        // whose own bytes are untouched.
        let missing = drain_survivors(&frames, &survivors);
        prop_assert!(missing.is_empty(), "intact frames lost to splice: {missing:?}");
    }

    #[test]
    fn random_truncation_keeps_the_clean_prefix(
        frames in arb_unknown_frames(),
        frac in 0.0f64..1.0,
    ) {
        let (data, _) = raw_journal(&frames);
        let span = data.len() - JOURNAL_MAGIC.len();
        let cut = JOURNAL_MAGIC.len() + (span as f64 * frac) as usize;
        let full = journal::scan(&data).unwrap();
        let report = journal::scan(&data[..cut]).unwrap();
        let keep = full.frames.iter().filter(|f| f.end <= cut as u64).count();
        prop_assert_eq!(report.frames.len(), keep, "cut at {}", cut);
        prop_assert!(report.corrupt_spans.is_empty());
        prop_assert!(report.valid_end <= cut as u64);
        let survivors = unknown_bodies(&report);
        prop_assert_eq!(&survivors[..], &frames[..keep]);
    }
}

// Exhaustive variants over a real visit journal written by
// `JournalWriter`: every offset, not a random sample, and payloads
// that must decode as records (the "never mis-decode" half of the
// guarantee — a damaged frame is dropped, never resurfaced mutated).

fn fixture_record(i: usize) -> VisitRecord {
    VisitRecord {
        crawl: CrawlId("top2020".to_string()),
        domain: format!("site-{i}.example"),
        rank: Some(i as u32 + 1),
        malicious_category: None,
        os: Os::ALL[i % Os::ALL.len()],
        outcome: if i.is_multiple_of(3) {
            LoadOutcome::Error(NetError::ALL[i % NetError::ALL.len()])
        } else {
            LoadOutcome::Success
        },
        loaded_at_ms: 1_000 + i as u64,
        events: vec![],
    }
}

fn fixture_journal(name: &str, n: usize) -> Vec<u8> {
    let path = std::env::temp_dir().join(format!(
        "kt-journal-props-{name}-{}.ktj",
        std::process::id()
    ));
    let writer = JournalWriter::create(&path).unwrap();
    for i in 0..n {
        let delta = VisitDelta {
            cost_ms: 21_000,
            attempted: 1,
            successful: u64::from(i % 3 != 0),
            failures: if i % 3 == 0 { vec![(-106, 1)] } else { vec![] },
            ..Default::default()
        };
        writer.append_visit(&fixture_record(i), &delta, FLAG_FINAL, false);
    }
    writer.sync();
    let data = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    data
}

fn visit_records(report: &journal::ScanReport) -> Vec<VisitRecord> {
    report
        .frames
        .iter()
        .filter_map(|f| match &f.body {
            FrameBody::Visit { record, .. } => Some(decode_view(record).unwrap().to_owned()),
            _ => None,
        })
        .collect()
}

#[test]
fn truncation_at_every_offset_yields_the_clean_prefix() {
    let data = fixture_journal("trunc", 5);
    let full = journal::scan(&data).unwrap();
    assert_eq!(full.frames.len(), 5);
    let bounds: Vec<u64> = full.frames.iter().map(|f| f.end).collect();
    for cut in JOURNAL_MAGIC.len()..=data.len() {
        let report = journal::scan(&data[..cut]).unwrap();
        let keep = bounds.iter().filter(|&&b| b <= cut as u64).count();
        assert_eq!(report.frames.len(), keep, "cut at {cut}");
        assert!(report.corrupt_spans.is_empty(), "cut at {cut}");
        let at_boundary = cut == JOURNAL_MAGIC.len() || bounds.contains(&(cut as u64));
        assert_eq!(report.truncated_tail, !at_boundary, "cut at {cut}");
        let expect_end = if keep == 0 {
            JOURNAL_MAGIC.len() as u64
        } else {
            bounds[keep - 1]
        };
        assert_eq!(report.valid_end, expect_end, "cut at {cut}");
        let records = visit_records(&report);
        let originals: Vec<VisitRecord> = (0..keep).map(fixture_record).collect();
        assert_eq!(records, originals, "cut at {cut}");
    }
}

#[test]
fn a_flip_at_every_offset_never_forges_or_mutates_a_record() {
    let data = fixture_journal("flip", 5);
    let full = journal::scan(&data).unwrap();
    let originals: Vec<VisitRecord> = (0..5).map(fixture_record).collect();
    for off in JOURNAL_MAGIC.len()..data.len() {
        let mut bent = data.clone();
        bent[off] ^= 0x01;
        let report = journal::scan(&bent).unwrap();
        let lost = full
            .frames
            .iter()
            .position(|f| f.start as usize <= off && off < f.end as usize)
            .unwrap();
        let expected: Vec<VisitRecord> = originals
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != lost)
            .map(|(_, r)| r.clone())
            .collect();
        let records = visit_records(&report);
        assert_eq!(
            records, expected,
            "flip at {off} should drop frame {lost} only"
        );
        assert_eq!(report.frames.len(), 4, "flip at {off}");
        assert!(
            !report.corrupt_spans.is_empty() || report.truncated_tail,
            "flip at {off} left no damage marker"
        );
    }
}

proptest! {
    /// A sealed segment must read back byte-identically whether it is
    /// memory-mapped or loaded resident: the whole buffer, arbitrary
    /// zero-copy sub-slices, and record decode all agree, and the mmap
    /// keeps serving after the file is unlinked.
    #[test]
    fn mmap_and_resident_segment_reads_are_equivalent(
        payload in proptest::collection::vec(any::<u8>(), 0..4096),
        cuts in proptest::collection::vec((any::<u16>(), any::<u16>()), 0..8),
    ) {
        let path = std::env::temp_dir().join(format!(
            "kt-segment-props-{}-{:x}.seg",
            std::process::id(),
            payload.len()
        ));
        std::fs::write(&path, &payload).unwrap();
        let mapped = load_segment(&path, SegmentMode::Mmap).unwrap();
        let resident = load_segment(&path, SegmentMode::Resident).unwrap();
        let _ = std::fs::remove_file(&path);
        prop_assert_eq!(mapped.as_ref(), &payload[..]);
        prop_assert_eq!(resident.as_ref(), &payload[..]);
        prop_assert_eq!(mapped.len(), resident.len());
        for (a, b) in cuts {
            let lo = (a as usize).min(payload.len());
            let hi = (b as usize).min(payload.len());
            let (lo, hi) = (lo.min(hi), lo.max(hi));
            let m = mapped.slice(lo..hi);
            let r = resident.slice(lo..hi);
            prop_assert_eq!(m.as_ref(), r.as_ref(), "slice {}..{}", lo, hi);
        }
    }

    /// An encoded record spilled to a segment file decodes to the same
    /// view through both read paths.
    #[test]
    fn segment_mode_does_not_change_decoded_records(record in arb_record()) {
        let encoded = encode(&record);
        let path = std::env::temp_dir().join(format!(
            "kt-segment-props-rec-{}-{:x}.seg",
            std::process::id(),
            encoded.len()
        ));
        std::fs::write(&path, encoded.as_ref()).unwrap();
        let mapped = load_segment(&path, SegmentMode::Mmap).unwrap();
        let resident = load_segment(&path, SegmentMode::Resident).unwrap();
        let _ = std::fs::remove_file(&path);
        let via_map = decode(mapped.clone()).unwrap();
        let via_resident = decode(resident.clone()).unwrap();
        prop_assert_eq!(&via_map, &record);
        prop_assert_eq!(&via_resident, &record);
        prop_assert_eq!(
            decode_view(mapped.as_ref()).unwrap(),
            decode_view(resident.as_ref()).unwrap()
        );
    }
}
