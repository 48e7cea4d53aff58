//! `CountingAllocator` installed as the global allocator: cumulative
//! counts from many threads are exact, a peak reached on one thread is
//! exact, exiting threads publish their live-bytes drift, and a peak
//! reached by several threads at once lands within the documented
//! bound of `(T - 1) * LIVE_DRIFT_BYTES` for `T` live threads.
//!
//! The four checks run one after another in a single test: the harness
//! allocates on its own thread when a test finishes, and those
//! allocations would land in the exact counts of a check running
//! beside it.

use std::hint::black_box;
use std::sync::Barrier;
use std::thread;

use kt_trace::{
    count_allocs, live_bytes, peak_bytes, reset_peak_bytes, CountingAllocator, LIVE_DRIFT_BYTES,
};

#[global_allocator]
static HEAP: CountingAllocator = CountingAllocator;

/// The peak error bound with `threads` threads alive.
fn bound(threads: u64) -> u64 {
    (threads - 1) * LIVE_DRIFT_BYTES
}

#[test]
fn counts_are_exact_and_gauges_stay_within_the_drift_bound() {
    exited_threads_leave_no_drift();
    concurrent_peak_is_within_the_bound();
    single_thread_transient_peak_is_exact();
    counts_from_four_threads_are_exact();
}

/// Boxes allocated on four threads at once are all counted, bytes too.
fn counts_from_four_threads_are_exact() {
    const WORKERS: usize = 4;
    const BOXES: usize = 10_000;
    let ready = Barrier::new(WORKERS + 1);
    let start = Barrier::new(WORKERS + 1);
    let done = Barrier::new(WORKERS + 1);
    thread::scope(|s| {
        let workers: Vec<_> = (0..WORKERS)
            .map(|_| {
                s.spawn(|| {
                    let mut boxes = Vec::with_capacity(BOXES);
                    ready.wait();
                    start.wait();
                    for i in 0..BOXES {
                        boxes.push(black_box(Box::new(i as u64)));
                    }
                    done.wait();
                })
            })
            .collect();
        // Thread start-up allocates; open the window only once every
        // worker is past it.
        ready.wait();
        let ((), allocs, bytes) = count_allocs(|| {
            start.wait();
            done.wait();
        });
        assert_eq!(allocs, (WORKERS * BOXES) as u64);
        assert_eq!(bytes, (WORKERS * BOXES * size_of::<u64>()) as u64);
        for worker in workers {
            worker.join().expect("counting worker");
        }
    });
}

/// A transient peak far below the publish threshold, on one thread, is
/// reported to the byte: it never reaches the shared gauge, so only the
/// per-allocation check against the thread's own drift can see it.
fn single_thread_transient_peak_is_exact() {
    let live0 = live_bytes();
    reset_peak_bytes();
    let a = black_box(vec![1u8; 12_000]);
    let b = black_box(vec![2u8; 8_000]);
    drop(a);
    let c = black_box(vec![3u8; 4_000]);
    drop((b, c));
    assert_eq!(live_bytes(), live0);
    assert_eq!(peak_bytes() - live0, 20_000);
}

/// Short-lived threads that each free 48 KiB this thread allocated end
/// with a drift under the publish threshold, so only the flush at
/// thread exit brings the gauge back. Without it the 64 threads would
/// leave 3 MiB of frees unpublished.
fn exited_threads_leave_no_drift() {
    const THREADS: usize = 64;
    const ALIVE: usize = 4;
    const HELD: usize = 48 << 10;
    let live0 = live_bytes();
    let mut buffers: Vec<Vec<u8>> = (0..THREADS).map(|_| black_box(vec![1u8; HELD])).collect();
    while !buffers.is_empty() {
        let batch: Vec<_> = buffers
            .drain(..ALIVE)
            .map(|buffer| thread::spawn(move || drop(black_box(buffer))))
            .collect();
        for handle in batch {
            handle.join().expect("freeing thread");
        }
    }
    drop(buffers);
    // Only this thread is left, so the bound is its own exact view;
    // allow one thread's drift for anything the runtime keeps.
    let off = live_bytes().abs_diff(live0);
    assert!(
        off <= bound(2),
        "live bytes {off} away from the start after {THREADS} threads exited"
    );
}

/// Four threads that hold a megabyte each at the same moment raise the
/// peak by four megabytes, give or take the drift of the four threads
/// beside whichever one allocated last.
fn concurrent_peak_is_within_the_bound() {
    const WORKERS: usize = 4;
    const CHUNK: usize = 16 << 10;
    const CHUNKS: usize = 64;
    // Thread start-up and the chunk vectors, beyond the payload.
    const BOOKKEEPING: u64 = 16 << 10;
    let live0 = live_bytes();
    reset_peak_bytes();
    let start = Barrier::new(WORKERS + 1);
    let holding = Barrier::new(WORKERS + 1);
    thread::scope(|s| {
        let workers: Vec<_> = (0..WORKERS)
            .map(|_| {
                s.spawn(|| {
                    let mut chunks = Vec::with_capacity(CHUNKS);
                    start.wait();
                    for _ in 0..CHUNKS {
                        chunks.push(black_box(vec![1u8; CHUNK]));
                    }
                    holding.wait();
                })
            })
            .collect();
        start.wait();
        holding.wait();
        for worker in workers {
            worker.join().expect("holding worker");
        }
    });
    let payload = (WORKERS * CHUNKS * CHUNK) as u64;
    let peak = peak_bytes() - live0;
    let bound = bound(WORKERS as u64 + 1);
    assert!(
        peak + bound >= payload && peak <= payload + BOOKKEEPING + bound,
        "peak {peak} for {payload} bytes held at once (bound {bound})"
    );
}
