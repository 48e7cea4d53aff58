//! Memory-mapped sealed segments.
//!
//! A sealed store segment is immutable by construction, which makes it
//! the perfect mmap candidate: spill the bytes to a segment file once,
//! map the file read-only, and hand the mapping to the existing
//! zero-copy [`Bytes`] read API via `Bytes::from_owner`. Decoders
//! slice straight out of the page cache; the heap never holds the
//! segment again, so a campaign larger than RAM streams from disk at
//! flat resident set.
//!
//! The repo vendors no `libc` crate, so the two syscalls are declared
//! directly — `std` already links the platform C library on every unix
//! target. [`SegmentMode::Resident`] reads the file back into an
//! ordinary heap buffer instead; both modes serve identical bytes,
//! which the store's property tests pin.

use std::fs::File;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use bytes::Bytes;

/// How a spilled segment is read back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentMode {
    /// `mmap` the segment file (zero heap, kernel-managed paging).
    /// Falls back to [`SegmentMode::Resident`] on platforms without
    /// the mapping support below.
    Mmap,
    /// Read the segment file into a heap buffer.
    Resident,
}

#[cfg(all(unix, target_pointer_width = "64"))]
mod sys {
    use std::ffi::c_void;

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }
}

/// A read-only memory mapping of one sealed segment file. Owns the
/// mapping: `munmap` on drop. Handed to `Bytes::from_owner`, which
/// keeps it alive behind an `Arc` for as long as any slice of the
/// segment is referenced anywhere in the pipeline.
#[cfg(all(unix, target_pointer_width = "64"))]
pub struct SegmentMap {
    ptr: *mut std::ffi::c_void,
    len: usize,
}

#[cfg(all(unix, target_pointer_width = "64"))]
// SAFETY: the mapping is read-only (PROT_READ, MAP_PRIVATE) and valid
// until munmap in Drop.
unsafe impl Send for SegmentMap {}
#[cfg(all(unix, target_pointer_width = "64"))]
unsafe impl Sync for SegmentMap {}

#[cfg(all(unix, target_pointer_width = "64"))]
impl SegmentMap {
    /// Map `file` read-only in full.
    pub fn map(file: &File) -> io::Result<SegmentMap> {
        use std::os::unix::io::AsRawFd;
        let len = file.metadata()?.len() as usize;
        if len == 0 {
            return Ok(SegmentMap {
                ptr: std::ptr::null_mut(),
                len: 0,
            });
        }
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        Ok(SegmentMap { ptr, len })
    }
}

#[cfg(all(unix, target_pointer_width = "64"))]
impl AsRef<[u8]> for SegmentMap {
    fn as_ref(&self) -> &[u8] {
        if self.len == 0 {
            return &[];
        }
        // SAFETY: ptr..ptr+len is the live PROT_READ mapping.
        unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
    }
}

#[cfg(all(unix, target_pointer_width = "64"))]
impl Drop for SegmentMap {
    fn drop(&mut self) {
        if !self.ptr.is_null() {
            // SAFETY: ptr/len came from a successful mmap.
            unsafe {
                sys::munmap(self.ptr, self.len);
            }
        }
    }
}

#[cfg(all(unix, target_pointer_width = "64"))]
fn map_file(path: &Path) -> io::Result<Bytes> {
    let file = File::open(path)?;
    Ok(Bytes::from_owner(SegmentMap::map(&file)?))
}

#[cfg(not(all(unix, target_pointer_width = "64")))]
fn map_file(path: &Path) -> io::Result<Bytes> {
    // No mapping support: explicit resident fallback.
    read_file(path)
}

fn read_file(path: &Path) -> io::Result<Bytes> {
    let mut buf = Vec::new();
    File::open(path)?.read_to_end(&mut buf)?;
    Ok(Bytes::from(buf))
}

/// Load a spilled segment file in the requested mode.
pub fn load_segment(path: &Path, mode: SegmentMode) -> io::Result<Bytes> {
    match mode {
        SegmentMode::Mmap => map_file(path),
        SegmentMode::Resident => read_file(path),
    }
}

/// Where a store spills sealed segments; they are memory-mapped back.
#[derive(Debug, Clone)]
pub struct SpillConfig {
    /// Directory for segment files (created if missing).
    pub dir: PathBuf,
    /// Per-shard active-buffer size that triggers a seal+spill;
    /// `None` uses the store's default segment target. Benches lower
    /// it to exercise the spill path at reduced populations.
    pub segment_target: Option<usize>,
}

impl SpillConfig {
    /// Spill under `dir`, memory-mapping segments back.
    pub fn mmap(dir: impl Into<PathBuf>) -> SpillConfig {
        SpillConfig {
            dir: dir.into(),
            segment_target: None,
        }
    }

    /// Override the per-shard seal threshold.
    pub fn with_segment_target(mut self, bytes: usize) -> SpillConfig {
        self.segment_target = Some(bytes);
        self
    }
}

/// Per-shard spill state: writes sealed buffers to numbered segment
/// files and memory-maps them back.
#[derive(Debug, Clone)]
pub(crate) struct ShardSpill {
    pub(crate) dir: PathBuf,
    pub(crate) shard: usize,
}

impl ShardSpill {
    /// Spill one sealed buffer, returning the loaded segment. Any I/O
    /// failure degrades to keeping the buffer resident — spilling is a
    /// memory optimization, never a correctness requirement (the
    /// journal owns durability).
    pub(crate) fn spill(&self, seg: usize, buf: Vec<u8>) -> (Bytes, bool) {
        match self.try_spill(seg, &buf) {
            Ok(bytes) => (bytes, true),
            Err(_) => (Bytes::from(buf), false),
        }
    }

    fn try_spill(&self, seg: usize, buf: &[u8]) -> io::Result<Bytes> {
        let path = self.segment_path(seg);
        {
            let mut file = File::create(&path)?;
            file.write_all(buf)?;
        }
        let loaded = load_segment(&path, SegmentMode::Mmap)?;
        if loaded.as_ref() != buf {
            // A short write or concurrent truncation: don't serve it.
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "spilled segment read back differently",
            ));
        }
        Ok(loaded)
    }

    fn segment_path(&self, seg: usize) -> PathBuf {
        self.dir
            .join(format!("shard-{:02}-seg-{:04}.ktseg", self.shard, seg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("kt-segment-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn mmap_and_resident_serve_identical_bytes() {
        let dir = tmp_dir("modes");
        let path = dir.join("seg.ktseg");
        let data: Vec<u8> = (0..10_000u32).flat_map(|i| i.to_le_bytes()).collect();
        std::fs::write(&path, &data).unwrap();
        let mapped = load_segment(&path, SegmentMode::Mmap).unwrap();
        let resident = load_segment(&path, SegmentMode::Resident).unwrap();
        assert_eq!(mapped.as_ref(), &data[..]);
        assert_eq!(resident.as_ref(), &data[..]);
        assert_eq!(mapped, resident);
        // Slices of the mapping behave like any other Bytes view.
        assert_eq!(mapped.slice(4..8), resident.slice(4..8));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_segment_files_map_cleanly() {
        let dir = tmp_dir("empty");
        let path = dir.join("seg.ktseg");
        std::fs::write(&path, b"").unwrap();
        for mode in [SegmentMode::Mmap, SegmentMode::Resident] {
            let bytes = load_segment(&path, mode).unwrap();
            assert!(bytes.is_empty(), "{mode:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mapping_outlives_the_loader_scope() {
        let dir = tmp_dir("outlive");
        let path = dir.join("seg.ktseg");
        std::fs::write(&path, vec![7u8; 4096]).unwrap();
        let slice = {
            let whole = load_segment(&path, SegmentMode::Mmap).unwrap();
            whole.slice(100..200)
        };
        assert!(slice.iter().all(|&b| b == 7), "owner kept alive by slice");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spill_round_trips_and_reports_success() {
        let dir = tmp_dir("spill");
        let spill = ShardSpill {
            dir: dir.clone(),
            shard: 3,
        };
        let buf: Vec<u8> = (0..255u8).cycle().take(100_000).collect();
        let (bytes, spilled) = spill.spill(0, buf.clone());
        assert!(spilled);
        assert_eq!(bytes.as_ref(), &buf[..]);
        assert!(spill.segment_path(0).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spill_failure_degrades_to_resident() {
        let spill = ShardSpill {
            dir: PathBuf::from("/nonexistent-kt-spill-dir/nested"),
            shard: 0,
        };
        let buf = vec![42u8; 1024];
        let (bytes, spilled) = spill.spill(0, buf.clone());
        assert!(!spilled, "unwritable dir cannot spill");
        assert_eq!(bytes.as_ref(), &buf[..], "buffer kept resident");
    }
}
