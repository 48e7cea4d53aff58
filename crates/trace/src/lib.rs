//! Campaign observability for the knock-talk pipeline, plus the
//! deterministic parallel executor every engine runs on.
//!
//! Four subsystems, one determinism contract:
//!
//! - [`metrics`]: a registry of counters, gauges, and fixed-bucket
//!   histograms addressed by `&'static str` names + low-cardinality
//!   labels, fed by lock-free per-worker [`WorkerSink`]s merged at
//!   join. Everything exported is schedule-invariant, so the
//!   Prometheus text is byte-identical across worker counts and
//!   kill/resume cycles (`tests/` and CI gate on this).
//! - [`span`]: structured spans/events on the *simulated* clock with a
//!   bounded per-worker ring buffer and a sorted JSONL exporter.
//!   `Instant::now()` never appears in a sim path.
//! - [`profile`]: the opt-in counting global allocator and a stage
//!   profiler producing a real-time/alloc breakdown table — the only
//!   place real wall clocks are allowed, and its output is never
//!   byte-compared.
//! - [`par`]: [`par_indexed`], the one work-claiming thread pool. Its
//!   results land in index order, so the serial fold that follows is
//!   worker-count invariant; per-worker sinks and rings are its
//!   per-worker states. It claims work off one atomic ticket.
//!
//! [`Trace`] bundles a registry and a trace log behind mutexes so the
//! supervisor can hand one handle to scoped worker threads; workers
//! only lock at join (to merge a whole sink/ring), never per sample.

pub mod metrics;
pub mod names;
pub mod par;
pub mod profile;
mod queue;
pub mod span;

pub use metrics::{
    format_scaled, CounterId, HistData, HistogramId, HistogramSpec, Labels, Registry, WorkerSink,
};
pub use par::par_indexed;
pub use profile::{
    alloc_counts, count_allocs, live_bytes, peak_bytes, reset_peak_bytes, CountingAllocator,
    StageProfiler, StageRecord, LIVE_DRIFT_BYTES,
};
pub use span::{EventRecord, SpanRecord, SpanRing, TraceLog};

use std::sync::Mutex;

/// A shareable observability handle: the metrics registry plus the
/// span log, locked independently. Workers record into their own
/// [`WorkerSink`]/[`SpanRing`] and merge once at join, so the mutexes
/// see one uncontended lock per worker per campaign.
#[derive(Debug, Default)]
pub struct Trace {
    registry: Mutex<Registry>,
    log: Mutex<TraceLog>,
}

impl Trace {
    /// A trace with the standard metric schema pre-declared
    /// ([`names::describe_defaults`]).
    pub fn new() -> Trace {
        let mut registry = Registry::new();
        names::describe_defaults(&mut registry);
        Trace {
            registry: Mutex::new(registry),
            log: Mutex::new(TraceLog::new()),
        }
    }

    /// Fold a worker's metrics sink into the registry.
    pub fn merge_sink(&self, sink: &WorkerSink) {
        self.registry
            .lock()
            .expect("registry lock")
            .merge_sink(sink);
    }

    /// Fold a worker's span ring into the trace log.
    pub fn absorb_ring(&self, ring: SpanRing) {
        self.log.lock().expect("log lock").absorb(ring);
    }

    /// Add `v` to a counter series (supervisor-side convenience).
    pub fn inc_counter(&self, name: &'static str, labels: Labels, v: u64) {
        self.registry
            .lock()
            .expect("registry lock")
            .inc_counter(name, labels, v);
    }

    /// Set a gauge series from an already-deterministic total.
    pub fn set_gauge(&self, name: &'static str, labels: Labels, v: f64) {
        self.registry
            .lock()
            .expect("registry lock")
            .set_gauge(name, labels, v);
    }

    /// Record one raw histogram observation (supervisor-side).
    pub fn observe(&self, spec: &'static HistogramSpec, labels: Labels, raw: u64) {
        self.registry
            .lock()
            .expect("registry lock")
            .observe(spec, labels, raw);
    }

    /// Run `f` with the registry locked (batch updates, reads).
    pub fn with_registry<T>(&self, f: impl FnOnce(&mut Registry) -> T) -> T {
        f(&mut self.registry.lock().expect("registry lock"))
    }

    /// Render the registry as Prometheus text exposition format.
    pub fn export_prometheus(&self) -> String {
        self.registry
            .lock()
            .expect("registry lock")
            .render_prometheus()
    }

    /// Render the span log as JSONL.
    pub fn export_trace_jsonl(&self) -> String {
        self.log.lock().expect("log lock").to_jsonl()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_round_trips_sinks_rings_and_gauges() {
        let trace = Trace::new();
        std::thread::scope(|scope| {
            for worker in 0..4u32 {
                let trace = &trace;
                scope.spawn(move || {
                    let mut sink = WorkerSink::new();
                    let visits = sink.counter(names::VISITS_TOTAL, Labels::new(&[("crawl", "T1")]));
                    sink.add(visits, 10 + worker as u64);
                    let mut ring = SpanRing::new(8);
                    ring.span(SpanRecord {
                        name: "visit",
                        worker,
                        start_ms: worker as u64 * 100,
                        end_ms: worker as u64 * 100 + 21_000,
                        target: format!("w{worker}.example"),
                        status: "success",
                    });
                    trace.merge_sink(&sink);
                    trace.absorb_ring(ring);
                });
            }
        });
        trace.set_gauge(
            names::CRAWL_SUCCESS_RATIO,
            Labels::new(&[("crawl", "T1"), ("os", "Linux")]),
            0.75,
        );
        let prom = trace.export_prometheus();
        assert!(prom.contains("visits_total{crawl=\"T1\"} 46\n"));
        assert!(prom.contains("crawl_success_ratio{crawl=\"T1\",os=\"Linux\"} 0.75\n"));
        assert!(prom.contains("journal_frames_total 0\n"));
        let jsonl = trace.export_trace_jsonl();
        assert!(jsonl.starts_with("{\"type\":\"meta\",\"spans\":4,"));
        assert!(jsonl.contains("w3.example"));
    }

    #[test]
    fn export_is_merge_order_invariant_across_threads() {
        let render = |order: &[u64]| {
            let trace = Trace::new();
            for &w in order {
                let mut sink = WorkerSink::new();
                let c = sink.counter(names::RETRIES_TOTAL, Labels::new(&[("os", "Mac")]));
                sink.add(c, w);
                let h = sink.histogram(&names::ANALYSIS_STAGE_SECONDS, Labels::empty());
                sink.observe(h, w * 1_000);
                trace.merge_sink(&sink);
            }
            trace.export_prometheus()
        };
        assert_eq!(render(&[1, 2, 3, 4]), render(&[4, 3, 2, 1]));
        assert_eq!(render(&[1, 2, 3, 4]), render(&[2, 4, 1, 3]));
    }
}
