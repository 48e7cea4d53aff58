//! A record that declares far more events than its bytes could hold
//! must not make either decoder pre-allocate for the declared count.
//! Every encoded event takes at least six bytes, so the event vector's
//! capacity is bounded by the bytes left; a decoder that trusts the
//! count allocates about 100 MB for this 17-byte record before it
//! finds the input truncated.

use bytes::Bytes;
use kt_netbase::Os;
use kt_store::codec::{decode, decode_view, encode, CodecError};
use kt_store::record::{CrawlId, LoadOutcome, VisitRecord};

#[global_allocator]
static HEAP: kt_trace::CountingAllocator = kt_trace::CountingAllocator;

/// A record with no events whose event count is rewritten to 2^32.
fn overclaiming_record() -> Vec<u8> {
    let rec = VisitRecord {
        crawl: CrawlId("c".into()),
        domain: "d".into(),
        rank: None,
        malicious_category: None,
        os: Os::Linux,
        outcome: LoadOutcome::Success,
        loaded_at_ms: 0,
        events: Vec::new(),
    };
    let mut data = encode(&rec).to_vec();
    assert_eq!(
        data.pop(),
        Some(0),
        "the empty record ends in its event count"
    );
    data.extend_from_slice(&[0x80, 0x80, 0x80, 0x80, 0x10]);
    assert_eq!(data.len(), 17);
    data
}

#[test]
fn a_huge_declared_event_count_allocates_nothing_for_it() {
    let data = overclaiming_record();
    let owned = Bytes::from(data.clone());

    let (view, _, view_bytes) = kt_trace::count_allocs(|| decode_view(&data).map(|_| ()));
    assert_eq!(view, Err(CodecError::Truncated));
    assert!(
        view_bytes < 1024,
        "decode_view allocated {view_bytes} bytes"
    );

    let (rec, _, owned_bytes) = kt_trace::count_allocs(|| decode(owned).map(|_| ()));
    assert_eq!(rec, Err(CodecError::Truncated));
    assert!(owned_bytes < 1024, "decode allocated {owned_bytes} bytes");
}
