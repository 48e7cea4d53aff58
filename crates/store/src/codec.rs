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

use bytes::{Buf, BufMut, Bytes, BytesMut};
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

pub(crate) fn get_varint(buf: &mut Bytes) -> Result<u64, CodecError> {
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

pub(crate) fn put_str(buf: &mut BytesMut, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.put_slice(s.as_bytes());
}

fn get_str(buf: &mut Bytes) -> Result<String, CodecError> {
    let len = get_varint(buf)? as usize;
    if buf.remaining() < len {
        return Err(CodecError::Truncated);
    }
    // Validate in place on the buffer slice, then copy once into the
    // String (the old copy_to_bytes(..).to_vec() paid an extra copy
    // and a refcount bump).
    let s = match std::str::from_utf8(&buf[..len]) {
        Ok(s) => s.to_string(),
        Err(_) => return Err(CodecError::BadUtf8),
    };
    buf.advance(len);
    Ok(s)
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

fn get_params(buf: &mut Bytes) -> Result<EventParams, CodecError> {
    if !buf.has_remaining() {
        return Err(CodecError::Truncated);
    }
    match buf.get_u8() {
        0 => Ok(EventParams::None),
        1 => {
            let url = get_str(buf)?;
            let method = get_str(buf)?;
            let initiator = if buf.has_remaining() && buf.get_u8() == 1 {
                Some(get_str(buf)?)
            } else {
                None
            };
            let load_flags = get_varint(buf)? as u32;
            Ok(EventParams::UrlRequestStart {
                url,
                method,
                initiator,
                load_flags,
            })
        }
        2 => Ok(EventParams::Redirect {
            location: get_str(buf)?,
        }),
        3 => Ok(EventParams::DnsJob {
            host: get_str(buf)?,
        }),
        4 => Ok(EventParams::Connect {
            address: get_str(buf)?,
        }),
        5 => Ok(EventParams::Ssl {
            host: get_str(buf)?,
        }),
        6 => Ok(EventParams::ResponseHeaders {
            status: get_varint(buf)? as u16,
        }),
        7 => Ok(EventParams::WebSocket { url: get_str(buf)? }),
        8 => Ok(EventParams::WebSocketFrame {
            length: get_varint(buf)?,
        }),
        9 => Ok(EventParams::Failed {
            net_error: unzigzag(get_varint(buf)?) as i32,
        }),
        10 => Ok(EventParams::IceCandidate {
            address: get_str(buf)?,
            candidate_type: get_str(buf)?,
        }),
        v => Err(CodecError::BadTag("params", v as u64)),
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

/// Decode one record.
pub fn decode(mut buf: Bytes) -> Result<VisitRecord, CodecError> {
    if buf.remaining() < 3 {
        return Err(CodecError::Truncated);
    }
    if buf.get_u16_le() != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = buf.get_u8();
    if version != VERSION {
        return Err(CodecError::BadVersion(version));
    }
    let crawl = CrawlId(get_str(&mut buf)?);
    let domain = get_str(&mut buf)?;
    let rank = if buf.has_remaining() && buf.get_u8() == 1 {
        Some(get_varint(&mut buf)? as u32)
    } else {
        None
    };
    let malicious_category = if buf.has_remaining() && buf.get_u8() == 1 {
        if !buf.has_remaining() {
            return Err(CodecError::Truncated);
        }
        Some(buf.get_u8())
    } else {
        None
    };
    if !buf.has_remaining() {
        return Err(CodecError::Truncated);
    }
    let os = os_from(buf.get_u8())?;
    if !buf.has_remaining() {
        return Err(CodecError::Truncated);
    }
    let outcome = match buf.get_u8() {
        0 => LoadOutcome::Success,
        1 => {
            let code = unzigzag(get_varint(&mut buf)?) as i32;
            let err = kt_netlog::NetError::from_code(code)
                .ok_or(CodecError::BadTag("net_error", code as u64))?;
            LoadOutcome::Error(err)
        }
        2 => LoadOutcome::Crashed,
        v => return Err(CodecError::BadTag("outcome", v as u64)),
    };
    let loaded_at_ms = get_varint(&mut buf)?;
    let n = get_varint(&mut buf)? as usize;
    let mut events = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let time = get_varint(&mut buf)?;
        if buf.remaining() < 1 {
            return Err(CodecError::Truncated);
        }
        let ty = buf.get_u8();
        let event_type =
            EventType::from_code(ty as u32).ok_or(CodecError::BadTag("event_type", ty as u64))?;
        let id = get_varint(&mut buf)?;
        if buf.remaining() < 2 {
            return Err(CodecError::Truncated);
        }
        let st = buf.get_u8();
        let kind =
            SourceType::from_code(st as u32).ok_or(CodecError::BadTag("source_type", st as u64))?;
        let ph = buf.get_u8();
        let phase =
            EventPhase::from_code(ph as u32).ok_or(CodecError::BadTag("phase", ph as u64))?;
        let params = get_params(&mut buf)?;
        events.push(NetLogEvent {
            time,
            event_type,
            source: SourceRef { id, kind },
            phase,
            params,
        });
    }
    Ok(VisitRecord {
        crawl,
        domain,
        rank,
        malicious_category,
        os,
        outcome,
        loaded_at_ms,
        events,
    })
}

/// Borrowed cursor over an encoded record: the read-side mirror of the
/// `Bytes`-based helpers above, but every string it yields is a slice
/// of the input rather than a fresh `String`.
///
/// Strings come out of [`Cursor::get_str_raw`] as *unvalidated* byte
/// spans; every span is also pushed onto `spans` so a single batched
/// UTF-8 pass can validate them all at once after the structural scan
/// (see [`decode_view`]). Keeping validation out of the field-by-field
/// hot loop lets `std::str::from_utf8` run slice-at-once per string in
/// one tight loop instead of interleaving with tag dispatch.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    spans: Vec<&'a [u8]>,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor {
            buf,
            spans: Vec::new(),
        }
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

    /// Validating string read, for the journal's payloads; also the
    /// byte-at-a-time reference the batched path is property-pinned
    /// against.
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

    /// Length-prefixed string span, structural checks only. UTF-8
    /// validation is deferred to the batched pass over `spans`.
    fn get_str_raw(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.get_varint()? as usize;
        let head = self.take(len)?;
        self.spans.push(head);
        Ok(head)
    }

    /// The batched UTF-8 pass: validate every span collected so far in
    /// one loop. Spans are in stream order, but the specific failing
    /// span does not matter — [`CodecError::BadUtf8`] carries no
    /// position, which is what makes deferring validation legal.
    fn validate_spans(&self) -> Result<(), CodecError> {
        for span in &self.spans {
            if std::str::from_utf8(span).is_err() {
                return Err(CodecError::BadUtf8);
            }
        }
        Ok(())
    }
}

/// `from_utf8_unchecked` with the codec's justification attached.
///
/// # Safety
///
/// `b` must be a span that already passed [`Cursor::validate_spans`].
unsafe fn utf8_unchecked(b: &[u8]) -> &str {
    std::str::from_utf8_unchecked(b)
}

/// Structural mirror of [`ParamsView`] with unvalidated string spans.
enum RawParams<'a> {
    None,
    UrlRequestStart {
        url: &'a [u8],
        method: &'a [u8],
        initiator: Option<&'a [u8]>,
        load_flags: u32,
    },
    Redirect {
        location: &'a [u8],
    },
    DnsJob {
        host: &'a [u8],
    },
    Connect {
        address: &'a [u8],
    },
    Ssl {
        host: &'a [u8],
    },
    ResponseHeaders {
        status: u16,
    },
    WebSocket {
        url: &'a [u8],
    },
    WebSocketFrame {
        length: u64,
    },
    Failed {
        net_error: i32,
    },
    IceCandidate {
        address: &'a [u8],
        candidate_type: &'a [u8],
    },
}

impl<'a> RawParams<'a> {
    /// Convert to the `&str`-typed view.
    ///
    /// # Safety
    ///
    /// Every span in `self` must have passed UTF-8 validation (they
    /// all live in the cursor's `spans` list, so one successful
    /// [`Cursor::validate_spans`] covers them).
    unsafe fn into_view(self) -> ParamsView<'a> {
        let s = |b: &'a [u8]| -> &'a str {
            // SAFETY: forwarded from this fn's contract.
            unsafe { utf8_unchecked(b) }
        };
        match self {
            RawParams::None => ParamsView::None,
            RawParams::UrlRequestStart {
                url,
                method,
                initiator,
                load_flags,
            } => ParamsView::UrlRequestStart {
                url: s(url),
                method: s(method),
                initiator: initiator.map(s),
                load_flags,
            },
            RawParams::Redirect { location } => ParamsView::Redirect {
                location: s(location),
            },
            RawParams::DnsJob { host } => ParamsView::DnsJob { host: s(host) },
            RawParams::Connect { address } => ParamsView::Connect {
                address: s(address),
            },
            RawParams::Ssl { host } => ParamsView::Ssl { host: s(host) },
            RawParams::ResponseHeaders { status } => ParamsView::ResponseHeaders { status },
            RawParams::WebSocket { url } => ParamsView::WebSocket { url: s(url) },
            RawParams::WebSocketFrame { length } => ParamsView::WebSocketFrame { length },
            RawParams::Failed { net_error } => ParamsView::Failed { net_error },
            RawParams::IceCandidate {
                address,
                candidate_type,
            } => ParamsView::IceCandidate {
                address: s(address),
                candidate_type: s(candidate_type),
            },
        }
    }
}

fn get_params_raw<'a>(c: &mut Cursor<'a>) -> Result<RawParams<'a>, CodecError> {
    if !c.has_remaining() {
        return Err(CodecError::Truncated);
    }
    match c.get_u8() {
        0 => Ok(RawParams::None),
        1 => {
            let url = c.get_str_raw()?;
            let method = c.get_str_raw()?;
            let initiator = if c.has_remaining() && c.get_u8() == 1 {
                Some(c.get_str_raw()?)
            } else {
                None
            };
            let load_flags = c.get_varint()? as u32;
            Ok(RawParams::UrlRequestStart {
                url,
                method,
                initiator,
                load_flags,
            })
        }
        2 => Ok(RawParams::Redirect {
            location: c.get_str_raw()?,
        }),
        3 => Ok(RawParams::DnsJob {
            host: c.get_str_raw()?,
        }),
        4 => Ok(RawParams::Connect {
            address: c.get_str_raw()?,
        }),
        5 => Ok(RawParams::Ssl {
            host: c.get_str_raw()?,
        }),
        6 => Ok(RawParams::ResponseHeaders {
            status: c.get_varint()? as u16,
        }),
        7 => Ok(RawParams::WebSocket {
            url: c.get_str_raw()?,
        }),
        8 => Ok(RawParams::WebSocketFrame {
            length: c.get_varint()?,
        }),
        9 => Ok(RawParams::Failed {
            net_error: unzigzag(c.get_varint()?) as i32,
        }),
        10 => Ok(RawParams::IceCandidate {
            address: c.get_str_raw()?,
            candidate_type: c.get_str_raw()?,
        }),
        v => Err(CodecError::BadTag("params", v as u64)),
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

/// [`VisitView`] with unvalidated string spans: the output of the
/// structural pass, before the batched UTF-8 pass has run.
struct RawVisit<'a> {
    crawl: &'a [u8],
    domain: &'a [u8],
    rank: Option<u32>,
    malicious_category: Option<u8>,
    os: Os,
    outcome: LoadOutcome,
    loaded_at_ms: u64,
    events: Vec<RawEvent<'a>>,
}

struct RawEvent<'a> {
    time: u64,
    event_type: EventType,
    source: SourceRef,
    phase: EventPhase,
    params: RawParams<'a>,
}

/// Structural pass of [`decode_view`]: frame layout, tags, and lengths
/// only. String bytes are captured as spans (both in the returned raw
/// record and on the cursor's span list) without being validated.
fn decode_structure<'a>(c: &mut Cursor<'a>) -> Result<RawVisit<'a>, CodecError> {
    if c.remaining() < 3 {
        return Err(CodecError::Truncated);
    }
    if c.get_u16_le() != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = c.get_u8();
    if version != VERSION {
        return Err(CodecError::BadVersion(version));
    }
    let crawl = c.get_str_raw()?;
    let domain = c.get_str_raw()?;
    let rank = if c.has_remaining() && c.get_u8() == 1 {
        Some(c.get_varint()? as u32)
    } else {
        None
    };
    let malicious_category = if c.has_remaining() && c.get_u8() == 1 {
        if !c.has_remaining() {
            return Err(CodecError::Truncated);
        }
        Some(c.get_u8())
    } else {
        None
    };
    if !c.has_remaining() {
        return Err(CodecError::Truncated);
    }
    let os = os_from(c.get_u8())?;
    if !c.has_remaining() {
        return Err(CodecError::Truncated);
    }
    let outcome = match c.get_u8() {
        0 => LoadOutcome::Success,
        1 => {
            let code = unzigzag(c.get_varint()?) as i32;
            let err = kt_netlog::NetError::from_code(code)
                .ok_or(CodecError::BadTag("net_error", code as u64))?;
            LoadOutcome::Error(err)
        }
        2 => LoadOutcome::Crashed,
        v => return Err(CodecError::BadTag("outcome", v as u64)),
    };
    let loaded_at_ms = c.get_varint()?;
    let n = c.get_varint()? as usize;
    let mut events = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let time = c.get_varint()?;
        if c.remaining() < 1 {
            return Err(CodecError::Truncated);
        }
        let ty = c.get_u8();
        let event_type =
            EventType::from_code(ty as u32).ok_or(CodecError::BadTag("event_type", ty as u64))?;
        let id = c.get_varint()?;
        if c.remaining() < 2 {
            return Err(CodecError::Truncated);
        }
        let st = c.get_u8();
        let kind =
            SourceType::from_code(st as u32).ok_or(CodecError::BadTag("source_type", st as u64))?;
        let ph = c.get_u8();
        let phase =
            EventPhase::from_code(ph as u32).ok_or(CodecError::BadTag("phase", ph as u64))?;
        let params = get_params_raw(c)?;
        events.push(RawEvent {
            time,
            event_type,
            source: SourceRef { id, kind },
            phase,
            params,
        });
    }
    Ok(RawVisit {
        crawl,
        domain,
        rank,
        malicious_category,
        os,
        outcome,
        loaded_at_ms,
        events,
    })
}

/// Decode one record without copying its strings: the borrowed mirror
/// of [`decode`]. Accepts and rejects exactly the same inputs with the
/// same error values (the property suite holds the two decoders to
/// byte-for-byte agreement); on success the view's one allocation is
/// the events vector.
///
/// Validation is batched: one structural pass checks layout, tags, and
/// lengths while collecting string spans, then a single UTF-8 pass
/// validates every span slice-at-once. Error parity with the
/// field-by-field [`decode`] holds because structure never depends on
/// string *contents*: when the structural pass fails, any invalid span
/// it collected first sits earlier in the stream, so the reference
/// decoder would have reported [`CodecError::BadUtf8`] before reaching
/// the structural fault — hence spans are checked first on both exits.
pub fn decode_view(buf: &[u8]) -> Result<VisitView<'_>, CodecError> {
    let mut c = Cursor::new(buf);
    let raw = match decode_structure(&mut c) {
        Ok(raw) => raw,
        Err(structural) => {
            // Spans collected before the structural fault precede it in
            // stream order: a bad one means the byte-at-a-time decoder
            // failed with BadUtf8 first.
            c.validate_spans()?;
            return Err(structural);
        }
    };
    c.validate_spans()?;
    // SAFETY: every span in `raw` is on the cursor's span list and the
    // batched pass above validated them all.
    let events = raw
        .events
        .into_iter()
        .map(|e| EventView {
            time: e.time,
            event_type: e.event_type,
            source: e.source,
            phase: e.phase,
            params: unsafe { e.params.into_view() },
        })
        .collect();
    Ok(VisitView {
        crawl: unsafe { utf8_unchecked(raw.crawl) },
        domain: unsafe { utf8_unchecked(raw.domain) },
        rank: raw.rank,
        malicious_category: raw.malicious_category,
        os: raw.os,
        outcome: raw.outcome,
        loaded_at_ms: raw.loaded_at_ms,
        events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kt_netlog::NetError;

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
            let mut bytes = buf.freeze();
            assert_eq!(get_varint(&mut bytes).unwrap(), v);
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
        // The single-copy `get_str` (Bytes path) and the borrowed
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
            let owned = get_str(&mut Bytes::from(case.clone()));
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
        // record afterwards: the byte-at-a-time decoder hits the UTF-8
        // error first, so the batched decoder must report BadUtf8 too,
        // not the later Truncated.
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
        // any event): both decoders must report the tag error, proving
        // the batched pass doesn't over-report BadUtf8.
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
