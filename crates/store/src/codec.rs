//! Compact binary codec for visit records.
//!
//! Layout (all integers LEB128 varints unless noted):
//!
//! ```text
//! record   = magic(u16 LE = 0x4B54) version(u8 = 1)
//!            crawl(str) domain(str) rank(opt-varint)
//!            mal_category(opt-u8) os(u8) outcome(tag u8, err varint-i32)
//!            loaded_at(varint) event_count(varint) event*
//! event    = time(varint) type(u8) source_id(varint) source_type(u8)
//!            phase(u8) params
//! params   = tag(u8) fields…     (strings are varint-length-prefixed)
//! str      = len(varint) utf8-bytes
//! ```
//!
//! At crawl scale this matters: a JSON NetLog event averages ~180
//! bytes; this codec stores the common events in 8–40.
//!
//! Both decoders read in one pass through the same `Cursor`, which
//! validates each string where it reads it, so the first fault in
//! stream order is the error either one reports. [`decode_view`]
//! borrows its strings from the input; [`decode`] copies them into an
//! owned [`VisitRecord`]. They share the record head's parse (magic
//! through event count) and each builds its own events.

#![forbid(unsafe_code)]

use bytes::{BufMut, Bytes, BytesMut};
use kt_netbase::Os;
use kt_netlog::{
    EventParams, EventPhase, EventType, EventView, NetLogEvent, ParamsView, SourceRef, SourceType,
};

use crate::record::{os_slot, slot_os, CrawlId, LoadOutcome, VisitRecord};

/// Codec errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Wrong magic bytes.
    BadMagic,
    /// Unsupported version byte.
    BadVersion(u8),
    /// Ran out of input mid-record.
    Truncated,
    /// An enum tag was out of range.
    BadTag(&'static str, u64),
    /// A string field was not valid UTF-8.
    BadUtf8,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "bad record magic"),
            CodecError::BadVersion(v) => write!(f, "unsupported record version {v}"),
            CodecError::Truncated => write!(f, "truncated record"),
            CodecError::BadTag(what, v) => write!(f, "bad {what} tag: {v}"),
            CodecError::BadUtf8 => write!(f, "invalid utf-8 in record string"),
        }
    }
}

impl std::error::Error for CodecError {}

const MAGIC: u16 = 0x4B54; // "KT"
const VERSION: u8 = 1;

/// The fewest bytes one encoded event takes: five one-byte head
/// fields and a params tag. A declared event count pre-sizes the
/// event vector only as far as the bytes left could hold.
const MIN_EVENT_BYTES: usize = 6;

pub(crate) fn put_varint(buf: &mut BytesMut, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

pub(crate) fn put_str(buf: &mut BytesMut, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.put_slice(s.as_bytes());
}

fn os_from(code: u8) -> Result<Os, CodecError> {
    slot_os(code).ok_or(CodecError::BadTag("os", code as u64))
}

/// Zig-zag encoding for the signed net-error codes.
pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn put_params(buf: &mut BytesMut, params: &EventParams) {
    match params {
        EventParams::None => buf.put_u8(0),
        EventParams::UrlRequestStart {
            url,
            method,
            initiator,
            load_flags,
        } => {
            buf.put_u8(1);
            put_str(buf, url);
            put_str(buf, method);
            match initiator {
                Some(i) => {
                    buf.put_u8(1);
                    put_str(buf, i);
                }
                None => buf.put_u8(0),
            }
            put_varint(buf, *load_flags as u64);
        }
        EventParams::Redirect { location } => {
            buf.put_u8(2);
            put_str(buf, location);
        }
        EventParams::DnsJob { host } => {
            buf.put_u8(3);
            put_str(buf, host);
        }
        EventParams::Connect { address } => {
            buf.put_u8(4);
            put_str(buf, address);
        }
        EventParams::Ssl { host } => {
            buf.put_u8(5);
            put_str(buf, host);
        }
        EventParams::ResponseHeaders { status } => {
            buf.put_u8(6);
            put_varint(buf, *status as u64);
        }
        EventParams::WebSocket { url } => {
            buf.put_u8(7);
            put_str(buf, url);
        }
        EventParams::WebSocketFrame { length } => {
            buf.put_u8(8);
            put_varint(buf, *length);
        }
        EventParams::Failed { net_error } => {
            buf.put_u8(9);
            put_varint(buf, zigzag(*net_error as i64));
        }
        EventParams::IceCandidate {
            address,
            candidate_type,
        } => {
            buf.put_u8(10);
            put_str(buf, address);
            put_str(buf, candidate_type);
        }
    }
}

/// Encode one record.
pub fn encode(record: &VisitRecord) -> Bytes {
    let mut buf = BytesMut::with_capacity(64 + record.events.len() * 24);
    buf.put_u16_le(MAGIC);
    buf.put_u8(VERSION);
    put_str(&mut buf, record.crawl.as_str());
    put_str(&mut buf, &record.domain);
    match record.rank {
        Some(r) => {
            buf.put_u8(1);
            put_varint(&mut buf, r as u64);
        }
        None => buf.put_u8(0),
    }
    match record.malicious_category {
        Some(c) => {
            buf.put_u8(1);
            buf.put_u8(c);
        }
        None => buf.put_u8(0),
    }
    buf.put_u8(os_slot(record.os));
    match record.outcome {
        LoadOutcome::Success => buf.put_u8(0),
        LoadOutcome::Error(err) => {
            buf.put_u8(1);
            put_varint(&mut buf, zigzag(err.code() as i64));
        }
        LoadOutcome::Crashed => buf.put_u8(2),
    }
    put_varint(&mut buf, record.loaded_at_ms);
    put_varint(&mut buf, record.events.len() as u64);
    for ev in &record.events {
        put_varint(&mut buf, ev.time);
        buf.put_u8(ev.event_type.code() as u8);
        put_varint(&mut buf, ev.source.id);
        buf.put_u8(ev.source.kind.code() as u8);
        buf.put_u8(ev.phase.code() as u8);
        put_params(&mut buf, &ev.params);
    }
    buf.freeze()
}

/// Borrowed cursor over an encoded record or journal payload. Every
/// read checks the bytes left, and every string it yields is a
/// validated slice of the input rather than a fresh `String`.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len()
    }

    pub(crate) fn has_remaining(&self) -> bool {
        !self.buf.is_empty()
    }

    pub(crate) fn get_u8(&mut self) -> u8 {
        let b = self.buf[0];
        self.buf = &self.buf[1..];
        b
    }

    fn get_u16_le(&mut self) -> u16 {
        let v = u16::from_le_bytes([self.buf[0], self.buf[1]]);
        self.buf = &self.buf[2..];
        v
    }

    pub(crate) fn get_varint(&mut self) -> Result<u64, CodecError> {
        let mut v = 0u64;
        let mut shift = 0;
        loop {
            if !self.has_remaining() {
                return Err(CodecError::Truncated);
            }
            let byte = self.get_u8();
            v |= ((byte & 0x7f) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift >= 64 {
                return Err(CodecError::BadTag("varint", v));
            }
        }
    }

    /// A presence flag: 0 is absent, 1 is present, any other byte is
    /// `BadTag` (the encoder writes only 0 and 1).
    fn get_flag(&mut self, what: &'static str) -> Result<bool, CodecError> {
        if !self.has_remaining() {
            return Err(CodecError::Truncated);
        }
        match self.get_u8() {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(CodecError::BadTag(what, v as u64)),
        }
    }

    /// A varint that must fit `T`; a wider value is `BadTag`, never
    /// silently truncated.
    fn get_narrow<T: TryFrom<u64>>(&mut self, what: &'static str) -> Result<T, CodecError> {
        let v = self.get_varint()?;
        T::try_from(v).map_err(|_| CodecError::BadTag(what, v))
    }

    /// A zig-zag varint that must fit `i32`; a wider value is `BadTag`.
    fn get_signed(&mut self, what: &'static str) -> Result<i32, CodecError> {
        let v = self.get_varint()?;
        i32::try_from(unzigzag(v)).map_err(|_| CodecError::BadTag(what, v))
    }

    /// A length-prefixed string, UTF-8-validated where it is read.
    /// Every string both record decoders and the journal's payload
    /// readers take goes through here, so the first bad string in
    /// stream order is the one reported, before any later fault.
    pub(crate) fn get_str(&mut self) -> Result<&'a str, CodecError> {
        let len = self.get_varint()? as usize;
        std::str::from_utf8(self.take(len)?).map_err(|_| CodecError::BadUtf8)
    }

    /// The next `len` bytes, unvalidated.
    pub(crate) fn take(&mut self, len: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < len {
            return Err(CodecError::Truncated);
        }
        let (head, rest) = self.buf.split_at(len);
        self.buf = rest;
        Ok(head)
    }

    /// The record head, magic through event count: every field but the
    /// events, which come back empty, and the declared event count.
    fn get_head(&mut self) -> Result<(VisitView<'a>, usize), CodecError> {
        if self.remaining() < 3 {
            return Err(CodecError::Truncated);
        }
        if self.get_u16_le() != MAGIC {
            return Err(CodecError::BadMagic);
        }
        let version = self.get_u8();
        if version != VERSION {
            return Err(CodecError::BadVersion(version));
        }
        let crawl = self.get_str()?;
        let domain = self.get_str()?;
        let rank = if self.get_flag("rank")? {
            Some(self.get_narrow("rank")?)
        } else {
            None
        };
        let malicious_category = if self.get_flag("malicious_category")? {
            if !self.has_remaining() {
                return Err(CodecError::Truncated);
            }
            Some(self.get_u8())
        } else {
            None
        };
        if !self.has_remaining() {
            return Err(CodecError::Truncated);
        }
        let os = os_from(self.get_u8())?;
        if !self.has_remaining() {
            return Err(CodecError::Truncated);
        }
        let outcome = match self.get_u8() {
            0 => LoadOutcome::Success,
            1 => {
                let code = self.get_signed("net_error")?;
                let err = kt_netlog::NetError::from_code(code)
                    .ok_or(CodecError::BadTag("net_error", code as u64))?;
                LoadOutcome::Error(err)
            }
            2 => LoadOutcome::Crashed,
            v => return Err(CodecError::BadTag("outcome", v as u64)),
        };
        let loaded_at_ms = self.get_varint()?;
        let n = self.get_varint()? as usize;
        let head = VisitView {
            crawl,
            domain,
            rank,
            malicious_category,
            os,
            outcome,
            loaded_at_ms,
            events: Vec::new(),
        };
        Ok((head, n))
    }

    /// An event vector for `n` declared events, pre-sized only as far
    /// as the bytes left could hold them.
    fn event_vec<T>(&self, n: usize) -> Vec<T> {
        Vec::with_capacity(n.min(self.remaining() / MIN_EVENT_BYTES))
    }

    /// An event's fields before its params.
    fn get_event_head(&mut self) -> Result<(u64, EventType, SourceRef, EventPhase), CodecError> {
        let time = self.get_varint()?;
        if self.remaining() < 1 {
            return Err(CodecError::Truncated);
        }
        let ty = self.get_u8();
        let event_type =
            EventType::from_code(ty as u32).ok_or(CodecError::BadTag("event_type", ty as u64))?;
        let id = self.get_varint()?;
        if self.remaining() < 2 {
            return Err(CodecError::Truncated);
        }
        let st = self.get_u8();
        let kind =
            SourceType::from_code(st as u32).ok_or(CodecError::BadTag("source_type", st as u64))?;
        let ph = self.get_u8();
        let phase =
            EventPhase::from_code(ph as u32).ok_or(CodecError::BadTag("phase", ph as u64))?;
        Ok((time, event_type, SourceRef { id, kind }, phase))
    }

    /// Event params with borrowed strings.
    fn get_params_view(&mut self) -> Result<ParamsView<'a>, CodecError> {
        if !self.has_remaining() {
            return Err(CodecError::Truncated);
        }
        match self.get_u8() {
            0 => Ok(ParamsView::None),
            1 => {
                let url = self.get_str()?;
                let method = self.get_str()?;
                let initiator = if self.get_flag("initiator")? {
                    Some(self.get_str()?)
                } else {
                    None
                };
                let load_flags = self.get_narrow("load_flags")?;
                Ok(ParamsView::UrlRequestStart {
                    url,
                    method,
                    initiator,
                    load_flags,
                })
            }
            2 => Ok(ParamsView::Redirect {
                location: self.get_str()?,
            }),
            3 => Ok(ParamsView::DnsJob {
                host: self.get_str()?,
            }),
            4 => Ok(ParamsView::Connect {
                address: self.get_str()?,
            }),
            5 => Ok(ParamsView::Ssl {
                host: self.get_str()?,
            }),
            6 => Ok(ParamsView::ResponseHeaders {
                status: self.get_narrow("status")?,
            }),
            7 => Ok(ParamsView::WebSocket {
                url: self.get_str()?,
            }),
            8 => Ok(ParamsView::WebSocketFrame {
                length: self.get_varint()?,
            }),
            9 => Ok(ParamsView::Failed {
                net_error: self.get_signed("net_error")?,
            }),
            10 => Ok(ParamsView::IceCandidate {
                address: self.get_str()?,
                candidate_type: self.get_str()?,
            }),
            v => Err(CodecError::BadTag("params", v as u64)),
        }
    }

    /// Event params with owned strings. Built apart from
    /// [`Cursor::get_params_view`], so the decode-vs-decode_view
    /// agreement properties compare two builders.
    fn get_params(&mut self) -> Result<EventParams, CodecError> {
        if !self.has_remaining() {
            return Err(CodecError::Truncated);
        }
        match self.get_u8() {
            0 => Ok(EventParams::None),
            1 => {
                let url = self.get_string()?;
                let method = self.get_string()?;
                let initiator = if self.get_flag("initiator")? {
                    Some(self.get_string()?)
                } else {
                    None
                };
                let load_flags = self.get_narrow("load_flags")?;
                Ok(EventParams::UrlRequestStart {
                    url,
                    method,
                    initiator,
                    load_flags,
                })
            }
            2 => Ok(EventParams::Redirect {
                location: self.get_string()?,
            }),
            3 => Ok(EventParams::DnsJob {
                host: self.get_string()?,
            }),
            4 => Ok(EventParams::Connect {
                address: self.get_string()?,
            }),
            5 => Ok(EventParams::Ssl {
                host: self.get_string()?,
            }),
            6 => Ok(EventParams::ResponseHeaders {
                status: self.get_narrow("status")?,
            }),
            7 => Ok(EventParams::WebSocket {
                url: self.get_string()?,
            }),
            8 => Ok(EventParams::WebSocketFrame {
                length: self.get_varint()?,
            }),
            9 => Ok(EventParams::Failed {
                net_error: self.get_signed("net_error")?,
            }),
            10 => Ok(EventParams::IceCandidate {
                address: self.get_string()?,
                candidate_type: self.get_string()?,
            }),
            v => Err(CodecError::BadTag("params", v as u64)),
        }
    }

    /// [`Cursor::get_str`], copied into a `String`.
    fn get_string(&mut self) -> Result<String, CodecError> {
        self.get_str().map(str::to_owned)
    }
}

/// A decoded visit record whose strings borrow the encoded buffer.
///
/// Produced by [`decode_view`]; the only heap allocation behind a view
/// is its `events` vector. Convert with [`VisitView::to_owned`] when an
/// owned [`VisitRecord`] is actually needed.
#[derive(Debug, Clone, PartialEq)]
pub struct VisitView<'a> {
    /// Which crawl campaign this visit belongs to.
    pub crawl: &'a str,
    /// The visited domain.
    pub domain: &'a str,
    /// Tranco rank, for top-list crawls.
    pub rank: Option<u32>,
    /// Malicious blocklist category code, for the malicious crawl.
    pub malicious_category: Option<u8>,
    /// The crawling OS.
    pub os: Os,
    /// Landing-page outcome.
    pub outcome: LoadOutcome,
    /// Time at which the landing page finished loading, ms.
    pub loaded_at_ms: u64,
    /// The visit's NetLog events, borrowing their strings.
    pub events: Vec<EventView<'a>>,
}

impl VisitView<'_> {
    /// Convert to the owned record (allocates every string). Equal to
    /// what [`decode`] produces from the same buffer.
    pub fn to_owned(&self) -> VisitRecord {
        VisitRecord {
            crawl: CrawlId(self.crawl.to_string()),
            domain: self.domain.to_string(),
            rank: self.rank,
            malicious_category: self.malicious_category,
            os: self.os,
            outcome: self.outcome,
            loaded_at_ms: self.loaded_at_ms,
            events: self.events.iter().map(|&e| e.to_owned()).collect(),
        }
    }
}

impl VisitRecord {
    /// A borrowed view of this record, for the zero-copy analysis path
    /// when the record is already owned.
    pub fn view(&self) -> VisitView<'_> {
        VisitView {
            crawl: self.crawl.as_str(),
            domain: &self.domain,
            rank: self.rank,
            malicious_category: self.malicious_category,
            os: self.os,
            outcome: self.outcome,
            loaded_at_ms: self.loaded_at_ms,
            events: self.events.iter().map(NetLogEvent::view).collect(),
        }
    }
}

/// Decode one record into an owned [`VisitRecord`]. Accepts and
/// rejects exactly what [`decode_view`] does, with the same error
/// values.
pub fn decode(buf: Bytes) -> Result<VisitRecord, CodecError> {
    let mut c = Cursor::new(&buf);
    let (head, n) = c.get_head()?;
    let mut events = c.event_vec(n);
    for _ in 0..n {
        let (time, event_type, source, phase) = c.get_event_head()?;
        events.push(NetLogEvent {
            time,
            event_type,
            source,
            phase,
            params: c.get_params()?,
        });
    }
    Ok(VisitRecord {
        crawl: CrawlId(head.crawl.to_owned()),
        domain: head.domain.to_owned(),
        rank: head.rank,
        malicious_category: head.malicious_category,
        os: head.os,
        outcome: head.outcome,
        loaded_at_ms: head.loaded_at_ms,
        events,
    })
}

/// Decode one record without copying its strings: the borrowed
/// counterpart of [`decode`], with the same accepted inputs and error
/// values (the property suite holds the two to agreement). One pass
/// reads each field once, validating every string where it reads it;
/// on success the view's one allocation is the events vector.
pub fn decode_view(buf: &[u8]) -> Result<VisitView<'_>, CodecError> {
    let mut c = Cursor::new(buf);
    let (mut view, n) = c.get_head()?;
    view.events = c.event_vec(n);
    for _ in 0..n {
        let (time, event_type, source, phase) = c.get_event_head()?;
        view.events.push(EventView {
            time,
            event_type,
            source,
            phase,
            params: c.get_params_view()?,
        });
    }
    Ok(view)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Buf;
    use kt_netlog::NetError;

    /// Reference varint and string readers over `Bytes`, written apart
    /// from [`Cursor`], for the reader-agreement test below.
    fn ref_get_varint(buf: &mut Bytes) -> Result<u64, CodecError> {
        let mut v = 0u64;
        let mut shift = 0;
        loop {
            if !buf.has_remaining() {
                return Err(CodecError::Truncated);
            }
            let byte = buf.get_u8();
            v |= ((byte & 0x7f) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift >= 64 {
                return Err(CodecError::BadTag("varint", v));
            }
        }
    }

    fn ref_get_str(buf: &mut Bytes) -> Result<String, CodecError> {
        let len = ref_get_varint(buf)? as usize;
        if buf.remaining() < len {
            return Err(CodecError::Truncated);
        }
        let s = match std::str::from_utf8(&buf[..len]) {
            Ok(s) => s.to_string(),
            Err(_) => return Err(CodecError::BadUtf8),
        };
        buf.advance(len);
        Ok(s)
    }

    fn sample() -> VisitRecord {
        VisitRecord {
            crawl: CrawlId::top2020(),
            domain: "ebay-like.example".into(),
            rank: Some(104),
            malicious_category: None,
            os: Os::Windows,
            outcome: LoadOutcome::Success,
            loaded_at_ms: 412,
            events: vec![
                NetLogEvent {
                    time: 412,
                    event_type: EventType::UrlRequestStartJob,
                    source: SourceRef {
                        id: 2,
                        kind: SourceType::UrlRequest,
                    },
                    phase: EventPhase::Begin,
                    params: EventParams::UrlRequestStart {
                        url: "wss://localhost:3389/".into(),
                        method: "GET".into(),
                        initiator: Some("https://ebay-like.example".into()),
                        load_flags: 0,
                    },
                },
                NetLogEvent {
                    time: 9_999,
                    event_type: EventType::FailedRequest,
                    source: SourceRef {
                        id: 2,
                        kind: SourceType::UrlRequest,
                    },
                    phase: EventPhase::None,
                    params: EventParams::Failed { net_error: -102 },
                },
            ],
        }
    }

    #[test]
    fn round_trip() {
        let rec = sample();
        let encoded = encode(&rec);
        let decoded = decode(encoded).unwrap();
        assert_eq!(decoded, rec);
    }

    #[test]
    fn round_trip_ice_candidate_params() {
        let mut rec = sample();
        rec.events.push(NetLogEvent {
            time: 4_400,
            event_type: EventType::IceCandidateGathered,
            source: SourceRef {
                id: 5,
                kind: SourceType::P2pSocket,
            },
            phase: EventPhase::None,
            params: EventParams::IceCandidate {
                address: "f0ae4f9a-2d4c-4a91.local:9000".into(),
                candidate_type: "host".into(),
            },
        });
        let encoded = encode(&rec);
        assert_eq!(decode(encoded.clone()).unwrap(), rec);
        assert_eq!(decode_view(&encoded).unwrap().to_owned(), rec);
    }

    #[test]
    fn round_trip_error_outcome() {
        let mut rec = sample();
        rec.outcome = LoadOutcome::Error(NetError::NameNotResolved);
        rec.rank = None;
        rec.malicious_category = Some(2);
        rec.events.clear();
        let decoded = decode(encode(&rec)).unwrap();
        assert_eq!(decoded, rec);
    }

    #[test]
    fn round_trip_crashed_outcome() {
        let mut rec = sample();
        rec.outcome = LoadOutcome::Crashed;
        rec.loaded_at_ms = 0;
        let decoded = decode(encode(&rec)).unwrap();
        assert_eq!(decoded, rec);
        assert!(decoded.outcome.is_crashed());
        assert_eq!(decoded.events.len(), 2, "salvaged prefix survives");
    }

    #[test]
    fn truncation_is_detected() {
        let encoded = encode(&sample());
        for cut in [0, 1, 2, 5, 10, encoded.len() - 1] {
            let sliced = encoded.slice(0..cut);
            assert!(decode(sliced).is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn bad_magic_and_version() {
        let mut data = encode(&sample()).to_vec();
        data[0] = 0xFF;
        assert_eq!(decode(Bytes::from(data.clone())), Err(CodecError::BadMagic));
        let mut data = encode(&sample()).to_vec();
        data[2] = 99;
        assert_eq!(decode(Bytes::from(data)), Err(CodecError::BadVersion(99)));
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [
            -105i64,
            -1,
            0,
            1,
            200,
            -200,
            i32::MIN as i64,
            i32::MAX as i64,
        ] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn varint_round_trips() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = BytesMut::new();
            put_varint(&mut buf, v);
            let bytes = buf.freeze();
            assert_eq!(Cursor::new(&bytes).get_varint().unwrap(), v);
            assert_eq!(ref_get_varint(&mut bytes.clone()).unwrap(), v);
        }
    }

    #[test]
    fn decode_view_matches_owned_decode() {
        let rec = sample();
        let encoded = encode(&rec);
        let view = decode_view(&encoded).unwrap();
        assert_eq!(view.to_owned(), rec);
        assert_eq!(view.domain, "ebay-like.example");
        assert_eq!(view.rank, Some(104));
        // Strings are slices of the encoded buffer, not copies.
        let buf_range = encoded.as_ptr() as usize..encoded.as_ptr() as usize + encoded.len();
        assert!(buf_range.contains(&(view.domain.as_ptr() as usize)));
        if let ParamsView::UrlRequestStart { url, .. } = view.events[0].params {
            assert!(buf_range.contains(&(url.as_ptr() as usize)));
            assert_eq!(url, "wss://localhost:3389/");
        } else {
            panic!("expected UrlRequestStart, got {:?}", view.events[0].params);
        }
    }

    #[test]
    fn decode_view_rejects_what_decode_rejects() {
        let encoded = encode(&sample());
        for cut in 0..encoded.len() {
            let owned = decode(encoded.slice(0..cut));
            let view = decode_view(&encoded[..cut]);
            match (owned, view) {
                (Ok(a), Ok(b)) => assert_eq!(b.to_owned(), a, "cut at {cut}"),
                (Err(a), Err(b)) => assert_eq!(a, b, "cut at {cut}"),
                (a, b) => panic!("decoders disagree at cut {cut}: owned={a:?} view={b:?}"),
            }
        }
    }

    #[test]
    fn owned_get_str_matches_cursor_get_str() {
        // The reference `Bytes` reader and the borrowed
        // `Cursor::get_str` must accept/reject identically: same
        // string on success, same error otherwise.
        let mut cases: Vec<Vec<u8>> = vec![
            vec![],
            vec![0],          // empty string
            vec![5],          // truncated: promises 5 bytes, has none
            vec![0x80],       // unterminated varint
            vec![0xff, 0xff], // unterminated varint
        ];
        for payload in [
            b"hello".to_vec(),
            b"wss://localhost:3389/".to_vec(),
            vec![0xff, 0xfe, 0xfd], // invalid UTF-8
            vec![0xe2, 0x82],       // truncated multibyte char
            "héllo wörld".as_bytes().to_vec(),
        ] {
            let mut case = Vec::new();
            let mut len = BytesMut::new();
            put_varint(&mut len, payload.len() as u64);
            case.extend_from_slice(len.freeze().as_ref());
            case.extend_from_slice(&payload);
            cases.push(case.clone());
            // And a trailing-garbage variant: both readers must stop
            // at the declared length.
            case.extend_from_slice(b"tail");
            cases.push(case);
        }
        for case in cases {
            let owned = ref_get_str(&mut Bytes::from(case.clone()));
            let mut cursor = Cursor::new(&case);
            let view = cursor.get_str();
            match (owned, view) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "case {case:?}"),
                (Err(a), Err(b)) => assert_eq!(a, b, "case {case:?}"),
                (a, b) => panic!("string readers disagree on {case:?}: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn batched_validation_reports_utf8_before_later_structural_errors() {
        // Corrupt the domain string to invalid UTF-8 *and* truncate the
        // record afterwards: the UTF-8 error comes first in stream
        // order, so both decoders must report BadUtf8, not the later
        // Truncated.
        let rec = sample();
        let mut data = encode(&rec).to_vec();
        let domain_at = data
            .windows(rec.domain.len())
            .position(|w| w == rec.domain.as_bytes())
            .unwrap();
        data[domain_at] = 0xff;
        data.truncate(data.len() - 1);
        assert_eq!(decode(Bytes::from(data.clone())), Err(CodecError::BadUtf8));
        assert_eq!(decode_view(&data), Err(CodecError::BadUtf8));
    }

    #[test]
    fn batched_validation_covers_params_strings() {
        // A bad byte inside an event's params string fails both
        // decoders, not only the header strings.
        let rec = sample();
        let mut data = encode(&rec).to_vec();
        let url_at = data
            .windows(21)
            .position(|w| w == b"wss://localhost:3389/")
            .unwrap();
        data[url_at + 3] = 0xc0; // lone continuation lead byte
        assert_eq!(decode(Bytes::from(data.clone())), Err(CodecError::BadUtf8));
        assert_eq!(decode_view(&data), Err(CodecError::BadUtf8));
    }

    #[test]
    fn structural_errors_win_when_all_earlier_strings_are_valid() {
        // Corrupt the outcome tag (after both header strings, before
        // any event): both decoders must report the tag error, not
        // over-report BadUtf8.
        let rec = sample();
        let encoded = encode(&rec).to_vec();
        // outcome byte = magic(2) + ver(1) + crawl + domain + rank + cat + os
        let mut at = 3;
        for s in [rec.crawl.as_str().len(), rec.domain.len()] {
            at += 1 + s; // 1-byte varint lengths for the short sample strings
        }
        at += 2; // rank present flag + 1-byte varint (104)
        at += 1; // malicious_category absent flag
        at += 1; // os
        let mut data = encoded.clone();
        data[at] = 77;
        assert_eq!(
            decode(Bytes::from(data.clone())),
            Err(CodecError::BadTag("outcome", 77))
        );
        assert_eq!(decode_view(&data), Err(CodecError::BadTag("outcome", 77)));
    }

    /// A hand-built record: crawl "c", domain "d", then `head` (rank
    /// flag through outcome), `loaded_at_ms` 0 and `events`. Lets a
    /// test write field values the encoder never produces.
    fn hand_record(head: &[u8], events: &[Vec<u8>]) -> Vec<u8> {
        let mut buf = BytesMut::new();
        buf.put_u16_le(MAGIC);
        buf.put_u8(VERSION);
        put_str(&mut buf, "c");
        put_str(&mut buf, "d");
        buf.put_slice(head);
        put_varint(&mut buf, 0);
        put_varint(&mut buf, events.len() as u64);
        for event in events {
            buf.put_slice(event);
        }
        buf.freeze().to_vec()
    }

    /// One event with the given encoded params (tag first).
    fn hand_event(params: &[u8]) -> Vec<u8> {
        let mut buf = BytesMut::new();
        put_varint(&mut buf, 7);
        buf.put_u8(EventType::UrlRequestStartJob.code() as u8);
        put_varint(&mut buf, 1);
        buf.put_u8(SourceType::UrlRequest.code() as u8);
        buf.put_u8(EventPhase::Begin.code() as u8);
        buf.put_slice(params);
        buf.freeze().to_vec()
    }

    fn varint(v: u64) -> Vec<u8> {
        let mut buf = BytesMut::new();
        put_varint(&mut buf, v);
        buf.freeze().to_vec()
    }

    /// Linux, successful load: the head after the two presence flags.
    const OS_AND_SUCCESS: [u8; 2] = [1, 0];

    /// `good` decodes under both decoders and `bad`, which differs
    /// only in the field under test, fails both with `err`.
    fn both_reject(good: Vec<u8>, bad: Vec<u8>, err: CodecError) {
        assert!(decode(Bytes::from(good.clone())).is_ok());
        assert!(decode_view(&good).is_ok());
        assert_eq!(decode(Bytes::from(bad.clone())), Err(err.clone()));
        assert_eq!(decode_view(&bad), Err(err));
    }

    #[test]
    fn a_rank_flag_other_than_0_or_1_is_a_bad_tag() {
        for flag in [2u8, 0x80, 0xFF] {
            both_reject(
                hand_record(&[&[0, 0][..], &OS_AND_SUCCESS].concat(), &[]),
                hand_record(&[&[flag, 0][..], &OS_AND_SUCCESS].concat(), &[]),
                CodecError::BadTag("rank", flag as u64),
            );
        }
    }

    #[test]
    fn a_category_flag_other_than_0_or_1_is_a_bad_tag() {
        for flag in [2u8, 0x80, 0xFF] {
            both_reject(
                hand_record(&[&[0, 0][..], &OS_AND_SUCCESS].concat(), &[]),
                hand_record(&[&[0, flag][..], &OS_AND_SUCCESS].concat(), &[]),
                CodecError::BadTag("malicious_category", flag as u64),
            );
        }
    }

    #[test]
    fn an_initiator_flag_other_than_0_or_1_is_a_bad_tag() {
        let start = |flag: u8| {
            let mut params = vec![1];
            params.extend([1, b'u', 3, b'G', b'E', b'T', flag]);
            params.push(0); // load_flags
            let head = [&[0, 0][..], &OS_AND_SUCCESS].concat();
            hand_record(&head, &[hand_event(&params)])
        };
        for flag in [2u8, 0xFF] {
            both_reject(
                start(0),
                start(flag),
                CodecError::BadTag("initiator", flag as u64),
            );
        }
    }

    #[test]
    fn a_rank_wider_than_u32_is_a_bad_tag() {
        let with_rank = |rank: u64| {
            let head = [&[1][..], &varint(rank), &[0], &OS_AND_SUCCESS].concat();
            hand_record(&head, &[])
        };
        let wide = u32::MAX as u64 + 1;
        both_reject(
            with_rank(u32::MAX as u64),
            with_rank(wide),
            CodecError::BadTag("rank", wide),
        );
    }

    #[test]
    fn an_outcome_code_wider_than_i32_is_a_bad_tag() {
        // -105 (name not resolved) plus 2^32: the low 32 bits alone
        // would read as a valid code.
        let with_code = |code: i64| {
            let head = [&[0, 0, 1, 1][..], &varint(zigzag(code))].concat();
            hand_record(&head, &[])
        };
        let wide = -105 + (1i64 << 32);
        both_reject(
            with_code(-105),
            with_code(wide),
            CodecError::BadTag("net_error", zigzag(wide)),
        );
    }

    /// A record whose one event carries `params`.
    fn with_params(params: &[u8]) -> Vec<u8> {
        let head = [&[0, 0][..], &OS_AND_SUCCESS].concat();
        hand_record(&head, &[hand_event(params)])
    }

    #[test]
    fn load_flags_wider_than_u32_are_a_bad_tag() {
        let start = |flags: u64| {
            let params = [&[1, 1, b'u', 3, b'G', b'E', b'T', 0][..], &varint(flags)].concat();
            with_params(&params)
        };
        let wide = 1u64 << 32;
        both_reject(
            start(u32::MAX as u64),
            start(wide),
            CodecError::BadTag("load_flags", wide),
        );
    }

    #[test]
    fn a_status_wider_than_u16_is_a_bad_tag() {
        let headers = |status: u64| with_params(&[&[6][..], &varint(status)].concat());
        both_reject(
            headers(u16::MAX as u64),
            headers(1 << 16),
            CodecError::BadTag("status", 1 << 16),
        );
    }

    #[test]
    fn a_net_error_wider_than_i32_is_a_bad_tag() {
        let failed = |code: i64| with_params(&[&[9][..], &varint(zigzag(code))].concat());
        let wide = i32::MIN as i64 - 1;
        both_reject(
            failed(i32::MIN as i64),
            failed(wide),
            CodecError::BadTag("net_error", zigzag(wide)),
        );
    }

    #[test]
    fn record_view_round_trips() {
        let rec = sample();
        assert_eq!(rec.view().to_owned(), rec);
    }

    #[test]
    fn sample_encoding_stays_compact() {
        // The sample encodes to 107 bytes; a format change that grows
        // it must raise this bound on purpose.
        let binary = encode(&sample()).len();
        assert!(binary <= 107, "sample record encodes to {binary} bytes");
    }
}
