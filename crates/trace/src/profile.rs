//! The stage profiler: real-time/allocation breakdown per pipeline
//! stage, plus the opt-in counting global allocator it reads from.
//!
//! This is the one corner of kt-trace where `Instant::now()` is
//! allowed: profiler output is diagnostic, rendered for humans, and
//! never byte-compared across runs — the determinism contract covers
//! the metrics registry and spans, not wall-clock profiles. A stage may
//! also carry a simulated-clock annotation so the table shows both
//! clocks side by side.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// How far one thread's live-bytes count may drift from the shared
/// gauge before the thread publishes it. [`live_bytes`] and
/// [`peak_bytes`] see the calling thread's own allocations exactly and
/// every other live thread's only to within this many bytes, so with
/// `T` threads alive a peak is off by at most `(T - 1) *
/// LIVE_DRIFT_BYTES`. A thread publishes what it still holds when it
/// exits.
pub const LIVE_DRIFT_BYTES: u64 = 64 << 10;

/// Count shards. A thread picks one the first time it allocates, so
/// up to this many concurrent threads never write the same cache line.
const SHARDS: usize = 16;

/// One thread group's share of the cumulative counters, alone on its
/// cache lines (128 bytes covers the adjacent-line prefetcher).
#[repr(align(128))]
struct Shard {
    allocs: AtomicU64,
    bytes: AtomicU64,
}

static COUNTS: [Shard; SHARDS] = [const {
    Shard {
        allocs: AtomicU64::new(0),
        bytes: AtomicU64::new(0),
    }
}; SHARDS];
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

/// The published live-bytes gauge and its watermark. Signed because a
/// thread that frees what another thread allocated publishes a
/// negative drift, which may land before the allocating thread's
/// positive one. Every allocation reads both, so they sit on their own
/// cache line, away from the shards.
#[repr(align(128))]
struct Gauges {
    live: AtomicI64,
    peak: AtomicI64,
}

static GAUGES: Gauges = Gauges {
    live: AtomicI64::new(0),
    peak: AtomicI64::new(0),
};

/// The calling thread's shard and its unpublished live-bytes drift.
struct ThreadCounts {
    shard: Cell<usize>,
    drift: Cell<i64>,
}

impl ThreadCounts {
    fn shard(&self) -> &'static Shard {
        let mut i = self.shard.get();
        if i == usize::MAX {
            i = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
            self.shard.set(i);
        }
        &COUNTS[i]
    }
}

impl Drop for ThreadCounts {
    /// Publish what the exiting thread still holds, so short-lived
    /// threads leave no drift behind.
    fn drop(&mut self) {
        GAUGES
            .live
            .fetch_add(self.drift.replace(0), Ordering::Relaxed);
    }
}

thread_local! {
    // `const`-initialised: reading it never allocates, so the
    // allocator can use it without recursing.
    static THREAD: ThreadCounts = const {
        ThreadCounts {
            shard: Cell::new(usize::MAX),
            drift: Cell::new(0),
        }
    };
}

/// Ratchet the watermark to `live` if it is a new high. The relaxed
/// load keeps the common case (no new high) free of writes.
fn raise_peak(live: i64) {
    if live > GAUGES.peak.load(Ordering::Relaxed) {
        GAUGES.peak.fetch_max(live, Ordering::Relaxed);
    }
}

/// Account one heap event on the calling thread: `allocs` allocations
/// of `bytes` new traffic, and a signed change of `delta` live bytes.
#[inline(always)]
fn record(allocs: u64, bytes: usize, delta: i64) {
    let counted = THREAD.try_with(|t| {
        if allocs > 0 {
            let shard = t.shard();
            shard.allocs.fetch_add(allocs, Ordering::Relaxed);
            shard.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        }
        let drift = t.drift.get() + delta;
        if delta > 0 {
            raise_peak(GAUGES.live.load(Ordering::Relaxed) + drift);
        }
        if drift.unsigned_abs() >= LIVE_DRIFT_BYTES {
            GAUGES.live.fetch_add(drift, Ordering::Relaxed);
            t.drift.set(0);
        } else {
            t.drift.set(drift);
        }
    });
    if counted.is_err() {
        // The thread's locals are already destroyed (a late free in
        // another local's destructor): count straight into the globals.
        if allocs > 0 {
            COUNTS[0].allocs.fetch_add(allocs, Ordering::Relaxed);
            COUNTS[0].bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        }
        let live = GAUGES.live.fetch_add(delta, Ordering::Relaxed) + delta;
        if delta > 0 {
            raise_peak(live);
        }
    }
}

/// The calling thread's unpublished drift (zero once its locals are
/// gone).
fn own_drift() -> i64 {
    THREAD.try_with(|t| t.drift.get()).unwrap_or(0)
}

/// A pass-through [`System`] allocator that counts every allocation.
/// Install it per-binary:
///
/// ```ignore
/// #[global_allocator]
/// static GLOBAL: kt_trace::CountingAllocator = kt_trace::CountingAllocator;
/// ```
///
/// Reallocs and zeroed allocations count too. Frees don't reduce the
/// cumulative traffic counters, but they do reduce the live-bytes
/// gauge behind [`live_bytes`]/[`peak_bytes`] — that pair is the
/// flat-memory instrument: peak resident heap, not total churn.
/// Binaries that don't install it still link and run —
/// [`alloc_counts`] just stays at zero.
///
/// In the common case an allocation writes no memory that another
/// thread writes, so the allocator does not serialise a parallel
/// crawl: the cumulative counts go to one of 16 cache-line-padded
/// shards picked per thread, and each thread keeps its live-bytes
/// change in a thread-local drift that it publishes only when the
/// drift reaches [`LIVE_DRIFT_BYTES`] either way, and when the thread
/// exits. Each allocation compares the published gauge plus its own
/// drift against the watermark with relaxed loads and writes it only
/// on a new high, so a thread's own peak is exact.
pub struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(1, layout.size(), layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract
        // for `layout`, which is all `System` requires.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(0, 0, -(layout.size() as i64));
        // SAFETY: `ptr` came from this allocator, which hands out only
        // `System` blocks, with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(1, new_size, new_size as i64 - layout.size() as i64);
        // SAFETY: as for `dealloc`, and the caller upholds `realloc`'s
        // contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(1, layout.size(), layout.size() as i64);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
}

/// Cumulative (allocations, heap bytes) since process start — zeros
/// unless [`CountingAllocator`] is installed as the global allocator.
/// Exact on every thread: it sums the shards.
pub fn alloc_counts() -> (u64, u64) {
    COUNTS.iter().fold((0, 0), |(a, b), shard| {
        (
            a + shard.allocs.load(Ordering::Relaxed),
            b + shard.bytes.load(Ordering::Relaxed),
        )
    })
}

/// Currently-live heap bytes (allocated minus freed) — zero unless
/// [`CountingAllocator`] is installed. Exact for the calling thread's
/// own allocations; each other live thread's are seen to within
/// [`LIVE_DRIFT_BYTES`].
pub fn live_bytes() -> u64 {
    (GAUGES.live.load(Ordering::Relaxed) + own_drift()).max(0) as u64
}

/// High-water mark of [`live_bytes`] since process start (or the last
/// [`reset_peak_bytes`]). This is the number the flat-memory gates
/// compare against a ceiling: mmap-backed segments never appear in it,
/// resident ones do. Every allocation checks it against the published
/// gauge plus the allocating thread's own drift, so a peak reached on
/// one thread is exact, and with `T` threads alive it is off by at
/// most `(T - 1) *` [`LIVE_DRIFT_BYTES`], either way.
pub fn peak_bytes() -> u64 {
    (GAUGES.peak.load(Ordering::Relaxed).max(0) as u64).max(live_bytes())
}

/// Reset the peak watermark to the current live level, so a bench can
/// measure the peak of one phase in isolation.
pub fn reset_peak_bytes() {
    GAUGES.peak.store(live_bytes() as i64, Ordering::Relaxed);
}

/// Run `f`, returning its result plus the (allocations, heap bytes)
/// performed while it ran. The counters are process-global and exact,
/// so concurrent allocation on other threads is attributed here too —
/// fine for whole-pipeline stages, which is what the profiler wraps.
pub fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (a0, b0) = alloc_counts();
    let value = f();
    let (a1, b1) = alloc_counts();
    (value, a1 - a0, b1 - b0)
}

/// One profiled stage.
#[derive(Debug, Clone)]
pub struct StageRecord {
    /// Stage label, e.g. `"crawl:T1/Windows"`.
    pub name: String,
    /// Real elapsed seconds.
    pub real_secs: f64,
    /// Allocations during the stage.
    pub allocs: u64,
    /// Heap bytes requested during the stage.
    pub alloc_bytes: u64,
    /// Work-unit count (sites, records, frames…), if annotated.
    pub elements: Option<u64>,
    /// Simulated-clock duration, if the stage has one.
    pub sim_ms: Option<u64>,
}

/// Wraps pipeline stages, recording real time + allocator traffic for
/// each, and renders the per-stage breakdown as an aligned text table
/// in the repo's paper-table style.
#[derive(Debug, Default)]
pub struct StageProfiler {
    stages: Vec<StageRecord>,
}

impl StageProfiler {
    /// An empty profiler.
    pub fn new() -> StageProfiler {
        StageProfiler::default()
    }

    /// Run `f` as a named stage, recording elapsed time and allocator
    /// traffic.
    pub fn run<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let (value, allocs, alloc_bytes) = count_allocs(f);
        self.stages.push(StageRecord {
            name: name.to_string(),
            real_secs: t0.elapsed().as_secs_f64(),
            allocs,
            alloc_bytes,
            elements: None,
            sim_ms: None,
        });
        value
    }

    /// Attach a work-unit count to the most recent stage.
    pub fn annotate_elements(&mut self, elements: u64) {
        if let Some(last) = self.stages.last_mut() {
            last.elements = Some(elements);
        }
    }

    /// Attach a simulated-clock duration to the most recent stage.
    pub fn annotate_sim_ms(&mut self, sim_ms: u64) {
        if let Some(last) = self.stages.last_mut() {
            last.sim_ms = Some(sim_ms);
        }
    }

    /// The recorded stages, in execution order.
    pub fn stages(&self) -> &[StageRecord] {
        &self.stages
    }

    /// Render the breakdown as an aligned table with a totals row.
    pub fn render_table(&self) -> String {
        let header = ["stage", "real_s", "sim_s", "elements", "allocs", "alloc_mb"];
        let fmt_opt = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
        let mut rows: Vec<[String; 6]> = self
            .stages
            .iter()
            .map(|s| {
                [
                    s.name.clone(),
                    format!("{:.3}", s.real_secs),
                    s.sim_ms
                        .map_or_else(|| "-".to_string(), |ms| format!("{:.1}", ms as f64 / 1e3)),
                    fmt_opt(s.elements),
                    s.allocs.to_string(),
                    format!("{:.2}", s.alloc_bytes as f64 / 1e6),
                ]
            })
            .collect();
        let total_real: f64 = self.stages.iter().map(|s| s.real_secs).sum();
        let total_allocs: u64 = self.stages.iter().map(|s| s.allocs).sum();
        let total_bytes: u64 = self.stages.iter().map(|s| s.alloc_bytes).sum();
        rows.push([
            "total".to_string(),
            format!("{total_real:.3}"),
            "-".to_string(),
            "-".to_string(),
            total_allocs.to_string(),
            format!("{:.2}", total_bytes as f64 / 1e6),
        ]);

        let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
        for row in &rows {
            for (w, cell) in widths.iter_mut().zip(row.iter()) {
                *w = (*w).max(cell.len());
            }
        }
        let render_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                if i == 0 {
                    line.push_str(&format!("{cell:<w$}"));
                } else {
                    line.push_str(&format!("{cell:>w$}"));
                }
            }
            line.trim_end().to_string()
        };
        let header_cells: Vec<String> = header.iter().map(|h| h.to_string()).collect();
        let mut out = render_row(&header_cells);
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        let n = rows.len();
        for (i, row) in rows.iter().enumerate() {
            if i + 1 == n {
                out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
                out.push('\n');
            }
            out.push_str(&render_row(row.as_slice()));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiler_records_stage_results_and_annotations() {
        let mut prof = StageProfiler::new();
        let v = prof.run("crawl:T1/Linux", || 40 + 2);
        assert_eq!(v, 42);
        prof.annotate_elements(2_000);
        prof.annotate_sim_ms(42_000);
        assert_eq!(prof.stages().len(), 1);
        let s = &prof.stages()[0];
        assert_eq!(s.name, "crawl:T1/Linux");
        assert_eq!(s.elements, Some(2_000));
        assert_eq!(s.sim_ms, Some(42_000));
        assert!(s.real_secs >= 0.0);
    }

    #[test]
    fn table_has_header_rule_rows_and_total() {
        let mut prof = StageProfiler::new();
        prof.run("alpha", || ());
        prof.annotate_elements(10);
        prof.run("beta", || ());
        let table = prof.render_table();
        let lines: Vec<&str> = table.lines().collect();
        assert!(lines[0].starts_with("stage"));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines.iter().any(|l| l.starts_with("alpha")));
        assert!(lines.iter().any(|l| l.starts_with("beta")));
        assert!(lines.last().expect("rows").starts_with("total"));
    }

    #[test]
    fn live_and_peak_gauges_are_consistent() {
        // Unit tests run without the counting allocator installed, so
        // only this test touches the gauges (keep it that way — the
        // statics are process-global). Drive the accounting directly.
        reset_peak_bytes();
        let live0 = live_bytes();
        let (allocs0, bytes0) = alloc_counts();
        assert_eq!(peak_bytes(), live0);

        // A transient peak far below the publish threshold is exact,
        // and a free never lowers the watermark.
        record(1, 4096, 4096);
        assert_eq!(live_bytes(), live0 + 4096);
        record(0, 0, -4096);
        assert_eq!(live_bytes(), live0);
        assert_eq!(
            peak_bytes(),
            live0 + 4096,
            "frees never lower the watermark"
        );
        assert_eq!(alloc_counts(), (allocs0 + 1, bytes0 + 4096));

        // Crossing the threshold publishes the drift; the view is the same.
        let big = 3 * LIVE_DRIFT_BYTES as i64;
        record(1, big as usize, big);
        assert_eq!(own_drift(), 0, "a drift past the threshold is published");
        assert_eq!(live_bytes(), live0 + big as u64);
        record(0, 0, -big);
        assert_eq!(live_bytes(), live0);
        assert_eq!(peak_bytes(), live0 + big as u64);

        // A thread publishes what it still holds when it exits.
        std::thread::spawn(|| record(1, 100, 100))
            .join()
            .expect("recording thread");
        assert_eq!(live_bytes(), live0 + 100);
        assert_eq!(alloc_counts(), (allocs0 + 3, bytes0 + 4196 + big as u64));
        record(0, 0, -100);

        // Over-freeing reads as zero instead of wrapping.
        record(0, 0, -(1 << 40));
        assert_eq!(live_bytes(), 0, "over-free saturates instead of wrapping");
        record(0, 0, 1 << 40);
        assert_eq!(live_bytes(), live0);
        reset_peak_bytes();
    }

    #[test]
    fn count_allocs_is_monotonic_and_nonpanicking() {
        // The counting allocator is not installed in unit tests, so the
        // deltas are zero — the contract is just that the plumbing works.
        let (v, allocs, bytes) = count_allocs(|| vec![1u8; 128].len());
        assert_eq!(v, 128);
        let (a, b) = alloc_counts();
        assert!(allocs <= a || a == 0);
        assert!(bytes <= b || b == 0);
    }
}
