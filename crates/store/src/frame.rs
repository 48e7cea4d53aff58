//! The one on-disk format: a magic header, then CRC-checked frames.
//!
//! Every file kt-store writes — a campaign journal, a saved store, a
//! snapshot chunk segment — is this layout; only the frame kinds a
//! file carries differ:
//!
//! ```text
//! file  = magic(8B = "KTSTORE2") frame*
//! frame = sync(2B = F5 4B) kind(u8) len(u32 LE) payload[len] crc(u32 LE)
//!         crc = CRC-32/IEEE over kind ‖ len ‖ payload
//! kinds : 1 VISIT       flags, stats delta, codec-encoded VisitRecord
//!         2 CHECKPOINT  (crawl, os) done: completed domains + stats blob
//!         3 FLUSH       durability marker: fsync happened right after
//!         4 META        campaign parameters (seed, sizes) for resume
//!         5 CHUNK       content hash, refcount, canonical record bytes
//!         6 STORE       saved-store header: visit frames that follow
//! ```
//!
//! [`scan`] is the single reader: it checks every CRC, resyncs past
//! damage to the next valid frame, tells a torn tail from interior
//! corruption, and hands back borrowed payload spans; each caller
//! decodes its own kinds. `write_atomic` is the single writer of
//! whole files: temp file, fsync, rename, parent-directory fsync.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

/// File magic shared by every kt-store file.
pub const MAGIC: &[u8; 8] = b"KTSTORE2";

/// Frame sync marker: resync scans look for this pair.
pub const SYNC: [u8; 2] = [0xF5, 0x4B];

/// Upper bound on one frame's payload. A corrupted length field must
/// never drive a multi-gigabyte allocation; anything claiming more than
/// this is corrupt.
pub const MAX_FRAME_LEN: usize = 16 << 20;

/// Sync marker, kind byte and length field.
const HEADER_LEN: usize = 7;

/// Frame kinds.
pub mod kind {
    /// One finished visit: flags + stats delta + encoded record.
    pub const VISIT: u8 = 1;
    /// One finished `(crawl, os)` campaign.
    pub const CHECKPOINT: u8 = 2;
    /// Durability marker: the writer fsynced right after this frame.
    pub const FLUSH: u8 = 3;
    /// Campaign parameters, written once at journal start.
    pub const META: u8 = 4;
    /// One snapshot-store chunk: hash, refcount, canonical bytes.
    pub const CHUNK: u8 = 5;
    /// A saved store's header: the count of visit frames that follow
    /// (u64 LE), so a cut at a frame boundary is still detected.
    pub const STORE: u8 = 6;
}

// ---------------------------------------------------------------- CRC

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// Slicing-by-8 tables: `TABLES[k][b]` folds byte `b` through `k`
/// additional zero bytes, so one step consumes a whole 8-byte word.
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    tables[0] = crc_table();
    let mut i = 0;
    while i < 256 {
        let mut c = tables[0][i];
        let mut k = 1;
        while k < 8 {
            c = tables[0][(c & 0xFF) as usize] ^ (c >> 8);
            tables[k][i] = c;
            k += 1;
        }
        i += 1;
    }
    tables
}

pub(crate) static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// CRC-32/IEEE (the zlib/gzip polynomial), slicing-by-8: eight table
/// lookups per 8-byte word instead of one per byte. Bit-identical to
/// the byte-at-a-time reference (pinned in the journal's tests).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ c;
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ------------------------------------------------------------ writing

/// Append one complete frame (sync, kind, length, payload, CRC) to
/// `out`.
pub(crate) fn put(out: &mut Vec<u8>, kind: u8, payload: &[u8]) {
    let start = out.len();
    out.reserve(HEADER_LEN + payload.len() + 4);
    out.extend_from_slice(&SYNC);
    out.push(kind);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out[start + SYNC.len()..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// The temp file [`write_atomic`] fills before the rename: `path` with
/// `.tmp` appended to its file name.
pub(crate) fn tmp_path(path: &Path) -> PathBuf {
    sibling(path, "tmp")
}

/// `path` with `.{suffix}` appended to its file name.
pub(crate) fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".");
    name.push(suffix);
    path.with_file_name(name)
}

/// Write `path` atomically: `fill` streams the contents into
/// [`tmp_path`], which is fsynced, renamed over `path`, and followed by
/// an fsync of the parent directory. A crash at any point leaves either
/// the old file or the complete new one, never a torn one under the
/// final name. Returns the bytes written; two fsyncs are issued.
pub(crate) fn write_atomic(
    path: &Path,
    fill: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>,
) -> io::Result<u64> {
    let tmp = tmp_path(path);
    let bytes = write_synced(&tmp, fill)?;
    commit(&tmp, path)?;
    Ok(bytes)
}

/// The first half of [`write_atomic`]: create `path`, stream `fill`
/// into it, and fsync it. Returns the bytes written.
pub(crate) fn write_synced(
    path: &Path,
    fill: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>,
) -> io::Result<u64> {
    let mut out = BufWriter::new(File::create(path)?);
    fill(&mut out)?;
    out.flush()?;
    let file = out.get_ref();
    file.sync_all()?;
    Ok(file.metadata()?.len())
}

/// The second half of [`write_atomic`]: rename the fsynced `tmp` over
/// `path` and make the rename durable.
pub(crate) fn commit(tmp: &Path, path: &Path) -> io::Result<()> {
    std::fs::rename(tmp, path)?;
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    // Directories can be opened read-only for fsync on POSIX; failure
    // is non-fatal on filesystems that refuse it.
    if let Ok(dir) = File::open(parent) {
        let _ = dir.sync_all();
    }
    Ok(())
}

// ------------------------------------------------------------ scanner

/// One CRC-valid frame, its location, and the caller's decoded body.
#[derive(Debug)]
pub struct Frame<'a, T> {
    /// Byte offset of the frame's sync marker.
    pub start: u64,
    /// Byte offset one past the frame's CRC.
    pub end: u64,
    /// Frame kind byte.
    pub kind: u8,
    /// The CRC-checked payload, borrowed from the scanned bytes.
    pub payload: &'a [u8],
    /// What the caller's `parse` made of the payload.
    pub body: T,
}

/// A scanned file: every recoverable frame plus damage accounting.
#[derive(Debug)]
pub struct Scan<'a, T> {
    /// Valid frames in file order.
    pub frames: Vec<Frame<'a, T>>,
    /// Byte spans the scanner had to skip (failed CRC, framing, or
    /// payload decode).
    pub corrupt_spans: Vec<(u64, u64)>,
    /// True when the file ends inside a frame (torn tail).
    pub truncated_tail: bool,
    /// End offset of the last valid frame: truncation repair cuts here.
    pub valid_end: u64,
    /// Total length scanned.
    pub file_len: u64,
}

impl<T> Scan<'_, T> {
    /// Bytes lost to corruption.
    pub fn corrupt_bytes(&self) -> u64 {
        self.corrupt_spans.iter().map(|(s, e)| e - s).sum()
    }

    /// Bytes in the torn tail (zero when the tail is complete).
    pub fn tail_bytes(&self) -> u64 {
        if self.truncated_tail {
            self.file_len - self.valid_end
        } else {
            0
        }
    }

    /// True when every byte after the magic belongs to a valid frame.
    pub fn clean(&self) -> bool {
        self.corrupt_spans.is_empty() && !self.truncated_tail
    }
}

/// Why no frame parsed at an offset. Only the distinction between a
/// plausible-but-cut-off frame and everything else matters: the former
/// at EOF is a torn tail, the latter is corruption.
enum Miss {
    Torn,
    Damaged,
}

/// Parse one frame at `pos`: framing, length cap, CRC, then `parse`.
fn try_frame<'a, T>(
    data: &'a [u8],
    pos: usize,
    parse: &mut impl FnMut(u8, &'a [u8]) -> Option<T>,
) -> Result<Frame<'a, T>, Miss> {
    let rest = &data[pos..];
    if rest.len() < SYNC.len() || rest[..2] != SYNC {
        // A lone F5 at EOF is a torn sync marker.
        return Err(if rest == [SYNC[0]] {
            Miss::Torn
        } else {
            Miss::Damaged
        });
    }
    if rest.len() < HEADER_LEN {
        return Err(Miss::Torn);
    }
    let kind = rest[2];
    let len = u32::from_le_bytes([rest[3], rest[4], rest[5], rest[6]]) as usize;
    if len > MAX_FRAME_LEN {
        return Err(Miss::Damaged);
    }
    let total = HEADER_LEN + len + 4;
    if rest.len() < total {
        return Err(Miss::Torn);
    }
    let crc_at = HEADER_LEN + len;
    let stored = u32::from_le_bytes([
        rest[crc_at],
        rest[crc_at + 1],
        rest[crc_at + 2],
        rest[crc_at + 3],
    ]);
    if crc32(&rest[SYNC.len()..crc_at]) != stored {
        return Err(Miss::Damaged);
    }
    let payload = &rest[HEADER_LEN..crc_at];
    let body = parse(kind, payload).ok_or(Miss::Damaged)?;
    Ok(Frame {
        start: pos as u64,
        end: (pos + total) as u64,
        kind,
        payload,
        body,
    })
}

/// The next offset at or after `from` where a valid frame starts.
fn resync<'a, T>(
    data: &'a [u8],
    from: usize,
    parse: &mut impl FnMut(u8, &'a [u8]) -> Option<T>,
) -> Option<Frame<'a, T>> {
    (from..data.len().saturating_sub(1))
        .filter(|&pos| data[pos] == SYNC[0] && data[pos + 1] == SYNC[1])
        .find_map(|pos| try_frame(data, pos, parse).ok())
}

/// Scan `data` (magic first) into the maximal clean subset of frames.
/// `parse` decodes a CRC-valid payload by kind; returning `None` marks
/// the frame damaged exactly like a CRC mismatch, so the scanner
/// resyncs past it. Never panics and never errors on frame damage;
/// returns `None` only when the magic is missing.
pub fn scan<'a, T>(
    data: &'a [u8],
    mut parse: impl FnMut(u8, &'a [u8]) -> Option<T>,
) -> Option<Scan<'a, T>> {
    if !data.starts_with(MAGIC) {
        return None;
    }
    let mut scan = Scan {
        frames: Vec::new(),
        corrupt_spans: Vec::new(),
        truncated_tail: false,
        valid_end: MAGIC.len() as u64,
        file_len: data.len() as u64,
    };
    let mut pos = MAGIC.len();
    while pos < data.len() {
        let frame = match try_frame(data, pos, &mut parse) {
            Ok(frame) => frame,
            Err(miss) => match resync(data, pos + 1, &mut parse) {
                Some(frame) => {
                    scan.corrupt_spans.push((pos as u64, frame.start));
                    frame
                }
                None => {
                    // Nothing recoverable to EOF. A plausible partial
                    // frame is a torn tail; anything else is trailing
                    // corruption.
                    match miss {
                        Miss::Torn => scan.truncated_tail = true,
                        Miss::Damaged => scan.corrupt_spans.push((pos as u64, data.len() as u64)),
                    }
                    break;
                }
            },
        };
        pos = frame.end as usize;
        scan.valid_end = frame.end;
        scan.frames.push(frame);
    }
    Some(scan)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Every damaged variant of `clean` for corruption sweeps: each
    /// byte flipped whole and in its low bit (which keeps ASCII text
    /// ASCII, so a JSON file reaches its parser), then each proper
    /// prefix. Yields a label and the bytes.
    pub(crate) fn damaged(clean: &[u8]) -> impl Iterator<Item = (String, Vec<u8>)> + '_ {
        let flips = (0..clean.len()).flat_map(move |at| {
            [0xFF, 0x01].map(|mask| {
                let mut bent = clean.to_vec();
                bent[at] ^= mask;
                (format!("flip {mask:#04x} at {at}"), bent)
            })
        });
        let cuts =
            (0..clean.len()).map(move |cut| (format!("cut at {cut}"), clean[..cut].to_vec()));
        flips.chain(cuts)
    }

    #[test]
    fn a_payload_parse_rejects_is_damage_and_the_scan_resyncs() {
        let mut data = MAGIC.to_vec();
        for payload in [&b"good"[..], b"bad", b"good"] {
            put(&mut data, kind::VISIT, payload);
        }
        let scan = scan(&data, |_, p| (p != b"bad").then_some(p)).unwrap();
        let bodies: Vec<&[u8]> = scan.frames.iter().map(|f| f.body).collect();
        assert_eq!(bodies, vec![&b"good"[..], b"good"]);
        assert_eq!(scan.corrupt_bytes(), (HEADER_LEN + 3 + 4) as u64);
        assert!(!scan.truncated_tail && scan.valid_end == data.len() as u64);
    }

    #[test]
    fn write_atomic_replaces_the_file_and_leaves_no_temp() {
        let path = std::env::temp_dir().join(format!("kt-frame-atomic-{}", std::process::id()));
        std::fs::write(&path, b"old").unwrap();
        assert_eq!(
            write_atomic(&path, |out| out.write_all(b"new contents")).unwrap(),
            12
        );
        assert_eq!(std::fs::read(&path).unwrap(), b"new contents");
        assert!(!tmp_path(&path).exists());
        std::fs::remove_file(&path).ok();
    }
}
