//! Pipeline throughput benchmark: crawl → store scan → analysis.
//!
//! ```sh
//! cargo run --release -p kt-bench --bin perf                 # full sweep
//! cargo run --release -p kt-bench --bin perf -- --smoke      # CI-sized run
//! cargo run --release -p kt-bench --bin perf -- --smoke --check BENCH_pipeline.json
//! cargo run --release -p kt-bench --bin perf -- --check-prom metrics.prom \
//!     --require visits_total --require analysis_stage_seconds
//! ```
//!
//! `--check-prom` is a standalone mode: validate a Prometheus text
//! exposition file written by `knocktalk --metrics-out` (format +
//! histogram consistency + required series) and exit without running
//! any benchmark. It always requires every series the metric schema
//! pre-creates; `--require` adds the ones a run records itself.
//!
//! Measures each pipeline stage at three population sizes, plus a
//! worker-scaling curve (1/2/4/8/16/32) comparing the work-stealing
//! scheduler ([`run_crawl`]) against the static-chunk ablation
//! baseline ([`chunked_makespan`], a replay of the per-job costs) on a
//! *skewed* population: one
//! eighth of the sites are "heavy" — big pages (240 public resources
//! vs 2) whose first two attempts both draw an injected connection
//! reset, so each burns several 21 s visits plus backoffs — and they
//! are sorted contiguously at the front of the job list, so static
//! chunking hands the whole expensive block to worker 0 while its
//! peers idle.
//!
//! Two clocks are reported. *Real* elements/sec measures the
//! simulation's CPU cost. Scheduler quality is measured on the
//! *simulated* clock — `CrawlStats::makespan_ms`, the busiest
//! worker's final wall position — because that is the duration a real
//! campaign would take, and it is machine-independent: the headline
//! `stealing_vs_chunked_at_max_workers` speedup is the chunked
//! makespan over the stealing makespan at 8 workers.
//!
//! A service-mode section runs the same simulation through the
//! resident [`CampaignService`] scheduler — a multi-campaign fleet,
//! each campaign folding its own updates into its online tables — and
//! reports events/sec plus the p99 campaign completion time on the
//! simulated clock.
//!
//! Results land in `BENCH_pipeline.json`. Every stage also records a
//! `relative` score — elements/sec multiplied by the run's calibration
//! time (a fixed single-worker crawl) — which cancels raw machine
//! speed so `--check` can compare runs across hosts: it fails (exit 1)
//! when any stage's relative throughput regressed more than 2× against
//! the checked-in baseline.
//!
//! The binary also installs a counting global allocator and runs the
//! decode+detect hot path twice over the same raw store bytes — once
//! through the owned path (`decode` to a `VisitRecord`, `detect_local`
//! over it) and once through the borrowed path (`decode_view` +
//! `detect_local_view`) — recording events/sec, allocations/event, and
//! heap bytes/event for each. `--alloc-ceiling <f64>` turns the view
//! path's allocations/event into a CI gate: exit 1 if any population
//! exceeds the checked-in ceiling.
//!
//! Two raw-speed-floor stages round out the sweep. *flat_memory*
//! crawls a bulk population (10× the largest sweep size) into a store
//! that spills sealed segments to mmap-backed files, then scans it all
//! back zero-copy while the counting allocator watches peak heap —
//! `--mem-ceiling` gates the peak-heap/store-bytes ratio. *journal*
//! streams visit frames through the group-commit writer and its
//! unbatched ablation, byte-compares the files, and reports frames per
//! fsync (`--fsync-floor` gates it) and frames per batched write.
//! `--eps-floor` gates the machine-normalized zero-copy decode
//! throughput from the population sweep.

use std::time::Instant;

use knock_talk::analysis::{detect_local_view, detect_local_with_page_owned};
use knock_talk::crawler::{run_crawl, CrawlConfig, CrawlJob};
use knock_talk::faults::{Fault, FaultPlan, RetryPolicy};
use knock_talk::netbase::{DomainName, Os};
use knock_talk::netlog::{EventParams, EventPhase, EventType, NetLogEvent, SourceRef, SourceType};
use knock_talk::service::{
    CampaignService, CampaignSpec, CampaignStatus, OverflowPolicy, ServiceConfig, ServiceJob,
    TenantQuota,
};
use knock_talk::store::codec::decode;
use knock_talk::store::journal::{JournalConfig, JournalWriter, VisitDelta, FLAG_FINAL};
use knock_talk::store::{
    decode_view, CrawlId, LoadOutcome, SpillConfig, TelemetryStore, VisitRecord,
};
use knock_talk::trace::{
    count_allocs, live_bytes, peak_bytes, reset_peak_bytes, CountingAllocator, StageProfiler,
};
use knock_talk::webgen::WebSite;
use knock_talk::{SnapshotStudy, SnapshotStudyConfig};
use kt_bench::sched::{chunked_makespan, job_costs};

// The shared counting allocator from kt-trace: feeds the decode+detect
// allocs/event columns (via `count_allocs`) and the stage profiler's
// alloc_mb column. Replaces the hand-rolled copy this binary used to
// carry.
#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Fraction of the population that is heavy: exactly one chunk's worth
/// at the maximum worker count, so static chunking concentrates all of
/// it on one worker.
const MAX_WORKERS: usize = 8;

/// Resource counts: the CPU-cost skew between heavy and light pages.
const HEAVY_RESOURCES: u8 = 240;
const LIGHT_RESOURCES: u8 = 2;

/// Injection probability for the plan the heavy sites are drawn from.
const FAULT_RATE: f64 = 0.5;

struct Options {
    smoke: bool,
    check: Option<String>,
    check_prom: Option<String>,
    require: Vec<String>,
    alloc_ceiling: Option<f64>,
    eps_floor: Option<f64>,
    mem_ceiling: Option<f64>,
    fsync_floor: Option<f64>,
    dedup_floor: Option<f64>,
    incremental_floor: Option<f64>,
    out: String,
    seed: u64,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        smoke: false,
        check: None,
        check_prom: None,
        require: Vec::new(),
        alloc_ceiling: None,
        eps_floor: None,
        mem_ceiling: None,
        fsync_floor: None,
        dedup_floor: None,
        incremental_floor: None,
        out: "BENCH_pipeline.json".to_string(),
        seed: 0xBE7C,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => opts.smoke = true,
            "--check" => {
                opts.check = Some(args.next().ok_or("--check needs a baseline path")?);
            }
            "--check-prom" => {
                opts.check_prom = Some(args.next().ok_or("--check-prom needs a metrics path")?);
            }
            "--require" => {
                opts.require
                    .push(args.next().ok_or("--require needs a series name")?);
            }
            "--alloc-ceiling" => {
                opts.alloc_ceiling = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .ok_or("--alloc-ceiling needs a number (allocs/event)")?,
                );
            }
            "--eps-floor" => {
                opts.eps_floor = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .ok_or("--eps-floor needs a number (machine-normalized relative eps)")?,
                );
            }
            "--mem-ceiling" => {
                opts.mem_ceiling = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .ok_or("--mem-ceiling needs a ratio (peak heap / store bytes)")?,
                );
            }
            "--fsync-floor" => {
                opts.fsync_floor = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .ok_or("--fsync-floor needs a number (journal frames per fsync)")?,
                );
            }
            "--dedup-floor" => {
                opts.dedup_floor = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .ok_or("--dedup-floor needs a ratio (logical / stored bytes)")?,
                );
            }
            "--incremental-floor" => {
                opts.incremental_floor =
                    Some(args.next().and_then(|s| s.parse().ok()).ok_or(
                        "--incremental-floor needs a ratio (full-recrawl / executed visits)",
                    )?);
            }
            "--out" => opts.out = args.next().ok_or("--out needs a path")?,
            "--seed" => {
                opts.seed = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--seed needs an integer")?;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(opts)
}

/// The skewed population: `n` sites, the first `n / MAX_WORKERS` of
/// which are heavy (big pages whose first two attempts both fault
/// under `plan`, guaranteeing at least three visits each), the rest
/// light (no attempt-0 fault, so exactly one visit). Candidate domains
/// are probed against the plan's pure `injects` predicate so the heavy
/// block is exactly the set of sites the fault plan actually punishes.
fn skewed_population(n: usize, plan: &FaultPlan) -> Vec<WebSite> {
    let heavy_target = (n / MAX_WORKERS).max(1);
    let mut heavy = Vec::new();
    let mut light = Vec::new();
    let mut candidate = 0usize;
    while heavy.len() < heavy_target || light.len() < n - heavy_target {
        let name = format!("perf-site{candidate}.example");
        candidate += 1;
        let reset = |attempt| plan.injects(Fault::ConnectionReset, &name, attempt);
        let (bucket, target, resources) = if reset(0) && reset(1) {
            (&mut heavy, heavy_target, HEAVY_RESOURCES)
        } else if !reset(0) {
            (&mut light, n - heavy_target, LIGHT_RESOURCES)
        } else {
            continue; // middling fate — keep the skew bimodal
        };
        if bucket.len() < target {
            bucket.push(WebSite::plain(
                DomainName::parse(&name).expect("valid bench domain"),
                Some(bucket.len() as u32 + 1),
                resources,
            ));
        }
    }
    // Heavy block first: under static chunking it becomes chunk 0.
    heavy.extend(light);
    heavy
}

fn jobs(sites: &[WebSite]) -> Vec<CrawlJob<'_>> {
    sites.iter().map(CrawlJob::plain).collect()
}

fn bench_config(seed: u64, workers: usize, plan: &FaultPlan) -> CrawlConfig {
    let mut config = CrawlConfig::paper(CrawlId("perf".to_string()), Os::Linux, seed);
    config.workers = workers;
    config.faults = plan.clone();
    // Four in-place attempts with paper-style backoff, no recrawl: a
    // serial end-of-campaign pass would cap the parallel speedup this
    // bench exists to measure, while the deep retry budget is what
    // makes the heavy sites expensive.
    config.retry = RetryPolicy {
        max_attempts: 4,
        base_backoff_ms: 5_000,
        max_backoff_ms: 60_000,
        recrawl: false,
    };
    config
}

fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let value = f();
    (value, t0.elapsed().as_secs_f64().max(1e-9))
}

fn stage_json(elements: usize, secs: f64, calib_secs: f64) -> serde_json::Value {
    let eps = elements as f64 / secs;
    serde_json::json!({
        "elements": elements,
        "secs": secs,
        "eps": eps,
        "relative": eps * calib_secs,
    })
}

/// The calibration workload: a fixed-size single-worker clean crawl,
/// best of three. Its runtime scales with raw machine speed exactly
/// like the measured stages do, so `eps * calibration_secs` is
/// machine-portable.
fn calibrate(seed: u64) -> f64 {
    let plan = FaultPlan::none(seed);
    let sites: Vec<WebSite> = (0..48)
        .map(|i| {
            WebSite::plain(
                DomainName::parse(&format!("calib{i}.example")).expect("valid"),
                Some(i + 1),
                32,
            )
        })
        .collect();
    let config = bench_config(seed, 1, &plan);
    (0..3)
        .map(|_| {
            let store = TelemetryStore::new();
            time(|| run_crawl(&jobs(&sites), &config, &store)).1
        })
        .fold(f64::MAX, f64::min)
}

/// Crawl + scan + analyze one population size; returns the JSON entry.
fn bench_population(n: usize, seed: u64, plan: &FaultPlan, calib: f64) -> serde_json::Value {
    let sites = skewed_population(n, plan);
    let population_jobs = jobs(&sites);
    let config = bench_config(seed, MAX_WORKERS, plan);
    let crawl = CrawlId("perf".to_string());

    // Best of three per stage: these runs are milliseconds long, so a
    // single scheduling blip on a busy CI host could fake a 2×
    // "regression" for `--check`.
    let mut store = TelemetryStore::new();
    let (mut stats, mut crawl_secs) = time(|| run_crawl(&population_jobs, &config, &store));
    for _ in 0..2 {
        let rerun_store = TelemetryStore::new();
        let (rerun, secs) = time(|| run_crawl(&population_jobs, &config, &rerun_store));
        if secs < crawl_secs {
            (stats, crawl_secs, store) = (rerun, secs, rerun_store);
        }
    }
    assert_eq!(stats.attempted, n, "every site visited once");

    let (records, mut scan_secs) = time(|| store.crawl_records(&crawl));
    assert_eq!(records.len(), n);
    for _ in 0..2 {
        scan_secs = scan_secs.min(time(|| store.crawl_records(&crawl)).1);
    }

    let (analysis, mut analyze_secs) =
        time(|| knock_talk::analysis::par::analyze_crawl_par(&store, &crawl, MAX_WORKERS));
    assert_eq!(analysis.visits, n);
    for _ in 0..2 {
        analyze_secs = analyze_secs.min(
            time(|| knock_talk::analysis::par::analyze_crawl_par(&store, &crawl, MAX_WORKERS)).1,
        );
    }

    // Zero-copy decode+detect ablation: identical raw segment bytes
    // through the pre-refactor owned path (`decode` to a
    // `VisitRecord`, then the retained clone-per-event reference
    // detection) and the borrowed path (`decode_view` +
    // `detect_local_view`). Cloning a `Bytes` is an Arc refcount bump,
    // so the owned pass pays only what owned decode+detect itself
    // costs.
    let raws: Vec<_> = (0..store.shard_count())
        .flat_map(|shard| store.shard_raw_on(&crawl, shard, None))
        .collect();
    assert_eq!(raws.len(), n);
    let events: usize = raws
        .iter()
        .map(|raw| decode_view(raw).expect("store bytes decode").events.len())
        .sum();
    let owned_pass = || -> usize {
        raws.iter()
            .map(|raw| {
                let record = decode(raw.clone()).expect("store bytes decode");
                detect_local_with_page_owned(&record).0.len()
            })
            .sum()
    };
    let view_pass = || -> usize {
        raws.iter()
            .map(|raw| {
                let view = decode_view(raw).expect("store bytes decode");
                detect_local_view(&view).len()
            })
            .sum()
    };
    let (owned_obs, owned_allocs, owned_bytes) = count_allocs(owned_pass);
    let (view_obs, view_allocs, view_bytes) = count_allocs(view_pass);
    assert_eq!(owned_obs, view_obs, "both paths must agree on observations");
    let (_, mut owned_secs) = time(owned_pass);
    for _ in 0..2 {
        owned_secs = owned_secs.min(time(owned_pass).1);
    }
    let (_, mut view_secs) = time(view_pass);
    for _ in 0..2 {
        view_secs = view_secs.min(time(view_pass).1);
    }
    let per_event = |count: u64| count as f64 / events.max(1) as f64;

    eprintln!(
        "  n={n:>4}: crawl {:.2}s ({:.0}/s, sim {:.0}s), scan {:.3}s, analyze {:.3}s",
        crawl_secs,
        n as f64 / crawl_secs,
        stats.makespan_ms as f64 / 1e3,
        scan_secs,
        analyze_secs
    );
    eprintln!(
        "          decode+detect over {events} events: owned {:.0}/s ({:.2} allocs/ev), \
         view {:.0}/s ({:.3} allocs/ev) — {:.1}x faster, {:.0}x fewer allocs",
        events as f64 / owned_secs,
        per_event(owned_allocs),
        events as f64 / view_secs,
        per_event(view_allocs),
        owned_secs / view_secs,
        owned_allocs as f64 / view_allocs.max(1) as f64
    );
    let mut crawl_stage = stage_json(n, crawl_secs, calib);
    if let serde_json::Value::Object(map) = &mut crawl_stage {
        map.insert(
            "sim_makespan_ms".to_string(),
            serde_json::json!(stats.makespan_ms),
        );
    }
    let decode_stage = |secs: f64, allocs: u64, bytes: u64| {
        let mut stage = stage_json(events, secs, calib);
        if let serde_json::Value::Object(map) = &mut stage {
            map.insert(
                "allocs_per_event".to_string(),
                serde_json::json!(per_event(allocs)),
            );
            map.insert(
                "bytes_per_event".to_string(),
                serde_json::json!(per_event(bytes)),
            );
        }
        stage
    };
    serde_json::json!({
        "sites": n,
        "heavy_sites": (n / MAX_WORKERS).max(1),
        "stages": {
            "crawl": crawl_stage,
            "scan": stage_json(n, scan_secs, calib),
            "analyze": stage_json(n, analyze_secs, calib),
            "decode_detect_owned": decode_stage(owned_secs, owned_allocs, owned_bytes),
            "decode_detect_view": decode_stage(view_secs, view_allocs, view_bytes),
        },
        "zero_copy": {
            "speedup": owned_secs / view_secs,
            "alloc_reduction": owned_allocs as f64 / view_allocs.max(1) as f64,
        },
    })
}

/// The worker-scaling curve: stealing vs chunked crawl and parallel
/// analysis at 1/2/4/8 workers over one skewed population.
fn bench_scaling(
    n: usize,
    worker_counts: &[usize],
    seed: u64,
    plan: &FaultPlan,
) -> serde_json::Value {
    let sites = skewed_population(n, plan);
    let population_jobs = jobs(&sites);
    let crawl = CrawlId("perf".to_string());
    let mut stealing_makespan_s = Vec::new();
    let mut chunked_makespan_s = Vec::new();
    let mut stealing_vph = Vec::new();
    let mut chunked_vph = Vec::new();
    let mut analyze_eps = Vec::new();
    // Visits per simulated hour: the throughput of the worker pool on
    // the clock a real campaign pays for.
    let vph = |makespan_ms: u64| n as f64 / (makespan_ms as f64 / 3_600_000.0);
    // Job costs are schedule-independent, so one pass prices the
    // static-chunk replay at every worker count.
    let costs = job_costs(&population_jobs, &bench_config(seed, 1, plan));
    for &workers in worker_counts {
        let config = bench_config(seed, workers, plan);
        let store = TelemetryStore::new();
        let steal = run_crawl(&population_jobs, &config, &store);
        let chunk_makespan_ms = chunked_makespan(&costs, workers);
        let (_, analyze_secs) =
            time(|| knock_talk::analysis::par::analyze_crawl_par(&store, &crawl, workers));
        stealing_makespan_s.push(steal.makespan_ms as f64 / 1e3);
        chunked_makespan_s.push(chunk_makespan_ms as f64 / 1e3);
        stealing_vph.push(vph(steal.makespan_ms));
        chunked_vph.push(vph(chunk_makespan_ms));
        analyze_eps.push(n as f64 / analyze_secs);
        eprintln!(
            "  workers={workers}: stealing {:.0} sim-s ({:.0} visits/h), \
             chunked {:.0} sim-s ({:.0} visits/h) — {:.2}x; analyze {:.0}/s real",
            steal.makespan_ms as f64 / 1e3,
            vph(steal.makespan_ms),
            chunk_makespan_ms as f64 / 1e3,
            vph(chunk_makespan_ms),
            chunk_makespan_ms as f64 / steal.makespan_ms as f64,
            n as f64 / analyze_secs
        );
    }
    let speedup =
        stealing_vph.last().expect("nonempty curve") / chunked_vph.last().expect("nonempty curve");
    serde_json::json!({
        "sites": n,
        "workers": worker_counts,
        "crawl_stealing_makespan_s": stealing_makespan_s,
        "crawl_chunked_makespan_s": chunked_makespan_s,
        "crawl_stealing_visits_per_sim_hour": stealing_vph,
        "crawl_chunked_visits_per_sim_hour": chunked_vph,
        "analyze_eps": analyze_eps,
        "stealing_vs_chunked_at_max_workers": speedup,
    })
}

/// Service-mode benchmark: a multi-tenant fleet of campaigns through
/// the resident [`CampaignService`] scheduler instead of one batch
/// `run_crawl`. Reports two numbers the batch stages cannot: visit
/// *events per second* through visit, queue verdict and online
/// aggregation (real clock, machine-normalized the same way as the
/// other stages), and the p99
/// campaign completion time on the *simulated* clock — the tail a
/// tenant would actually wait, and a deterministic function of the
/// seed, so regressions in scheduler fairness show up as exact-value
/// changes, not noise.
fn bench_service(
    campaigns: usize,
    sites_per_campaign: usize,
    seed: u64,
    plan: &FaultPlan,
    calib: f64,
) -> serde_json::Value {
    let fleet_sites: Vec<Vec<WebSite>> = (0..campaigns)
        .map(|c| {
            (0..sites_per_campaign)
                .map(|i| {
                    WebSite::plain(
                        DomainName::parse(&format!("svc{c}-site{i}.example")).expect("valid"),
                        Some(i as u32 + 1),
                        LIGHT_RESOURCES,
                    )
                })
                .collect()
        })
        .collect();
    let build = || {
        let mut config = ServiceConfig::new(seed);
        config.workers = MAX_WORKERS;
        config.faults = plan.clone();
        let mut service = CampaignService::new(config);
        service.register_tenant("bench", TenantQuota::unbounded(), OverflowPolicy::Block);
        let handles: Vec<_> = fleet_sites
            .iter()
            .enumerate()
            .map(|(c, sites)| {
                let spec = CampaignSpec {
                    crawl: CrawlId(format!("svc-bench-{c}")),
                    os: Os::ALL[c % Os::ALL.len()],
                    jobs: sites
                        .iter()
                        .map(|site| ServiceJob {
                            site: site.clone(),
                            malicious_category: None,
                        })
                        .collect(),
                    deadline_ms: None,
                    nominal_workers: MAX_WORKERS,
                };
                service.submit("bench", spec).expect("fleet admitted")
            })
            .collect();
        (service, handles)
    };

    // Best of three, like every other stage.
    let ((mut service, mut handles), mut secs) = time(|| {
        let (mut service, handles) = build();
        service.run();
        (service, handles)
    });
    for _ in 0..2 {
        let (rerun, rerun_secs) = time(|| {
            let (mut service, handles) = build();
            service.run();
            (service, handles)
        });
        if rerun_secs < secs {
            ((service, handles), secs) = (rerun, rerun_secs);
        }
    }

    let accounting = service.accounting();
    assert_eq!(accounting.len(), 1);
    assert!(accounting[0].reconciles(), "bench fleet must reconcile");
    assert_eq!(accounting[0].updates_shed, 0, "Block policy never sheds");
    let events = accounting[0].updates as usize;
    let mut completion_ms: Vec<u64> = handles
        .iter()
        .map(|&h| {
            assert_eq!(service.status(h), Some(CampaignStatus::Completed));
            service.campaign_stats(h).expect("stats").makespan_ms
        })
        .collect();
    completion_ms.sort_unstable();
    let p99_index = ((completion_ms.len() - 1) as f64 * 0.99).ceil() as usize;
    let p99_completion_ms = completion_ms[p99_index];
    let eps = events as f64 / secs;

    eprintln!(
        "  campaigns={campaigns}x{sites_per_campaign}: {events} events in {secs:.3}s \
         ({eps:.0}/s), p99 completion {:.0} sim-s",
        p99_completion_ms as f64 / 1e3
    );
    let mut entry = stage_json(events, secs, calib);
    if let serde_json::Value::Object(map) = &mut entry {
        map.insert("campaigns".to_string(), serde_json::json!(campaigns));
        map.insert(
            "sites_per_campaign".to_string(),
            serde_json::json!(sites_per_campaign),
        );
        map.insert(
            "p99_completion_ms".to_string(),
            serde_json::json!(p99_completion_ms),
        );
        map.insert(
            "queue_blocks".to_string(),
            serde_json::json!(accounting[0].queue_blocks),
        );
    }
    entry
}

/// The flat-memory stage: crawl a bulk population (10× the largest
/// population-sweep size) into a store that spills sealed segments to
/// mmap-backed files, then scan every record back through the
/// zero-copy decode path while watching the counting allocator's
/// live/peak gauges. The numbers this produces are the raw-speed-floor
/// memory gates: after `seal_all` the segment data must live in the
/// page cache, not the heap, so `resident_segment_bytes` collapses to
/// ~0 and the scan's peak heap delta stays a small fraction of the
/// store's logical size — however large the campaign grows.
fn bench_flat_memory(n: usize, seed: u64, calib: f64) -> serde_json::Value {
    let sites: Vec<WebSite> = (0..n)
        .map(|i| {
            WebSite::plain(
                DomainName::parse(&format!("bulk{i}.example")).expect("valid bench domain"),
                Some(i as u32 + 1),
                LIGHT_RESOURCES,
            )
        })
        .collect();
    let plan = FaultPlan::none(seed);
    let config = bench_config(seed, MAX_WORKERS, &plan);
    let dir = std::env::temp_dir().join(format!("kt-perf-spill-{}", std::process::id()));
    // Small segments so the spill path runs many times even in smoke
    // mode; the read side is slices of one mapping per segment either
    // way.
    let spill = SpillConfig::mmap(&dir).with_segment_target(128 << 10);
    let store = TelemetryStore::with_spill(spill).expect("spill store");
    let (stats, crawl_secs) = time(|| run_crawl(&jobs(&sites), &config, &store));
    assert_eq!(stats.attempted, n, "every bulk site visited once");
    store.seal_all();
    let store_bytes = store.byte_size();
    let resident = store.resident_segment_bytes();
    let spilled = store.spilled_segments();
    assert!(spilled > 0, "bulk population must exercise the spill path");

    let crawl = CrawlId("perf".to_string());
    let scan = || -> usize {
        (0..store.shard_count())
            .flat_map(|shard| store.shard_raw_on(&crawl, shard, None))
            .map(|raw| decode_view(&raw).expect("store bytes decode").events.len())
            .sum()
    };
    // Peak-heap accounting for the scan alone: pin the watermark to the
    // current live level, run the scan, and read how far it rose.
    let live0 = live_bytes();
    reset_peak_bytes();
    let (events, mut scan_secs) = time(scan);
    let peak_delta = peak_bytes().saturating_sub(live0);
    for _ in 0..2 {
        scan_secs = scan_secs.min(time(scan).1);
    }
    // Both the leftover resident segment bytes and the scan's transient
    // peak count against the flat-memory budget.
    let heap_over_store = (resident as u64 + peak_delta) as f64 / store_bytes.max(1) as f64;

    eprintln!(
        "  n={n}: crawl {crawl_secs:.2}s, {spilled} segments spilled ({:.1} MB on disk), \
         resident {resident} B; scan {events} events in {scan_secs:.3}s, \
         peak heap delta {:.2} MB ({:.4} of store)",
        store_bytes as f64 / 1e6,
        peak_delta as f64 / 1e6,
        heap_over_store
    );
    let mut scan_stage = stage_json(events, scan_secs, calib);
    if let serde_json::Value::Object(map) = &mut scan_stage {
        map.insert(
            "peak_heap_delta_bytes".to_string(),
            serde_json::json!(peak_delta),
        );
    }
    let entry = serde_json::json!({
        "sites": n,
        "crawl_secs": crawl_secs,
        "store_bytes": store_bytes,
        "spilled_segments": spilled,
        "resident_segment_bytes": resident,
        "heap_over_store_ratio": heap_over_store,
        "scan": scan_stage,
    });
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
    entry
}

/// The group-commit journal stage: stream synthetic visit frames
/// through a grouped writer and an unbatched one (`group_max_frames =
/// 1`, the pre-group-commit behavior), byte-compare the files to prove
/// batching never changes what lands on disk, and report throughput
/// plus the two amortization ratios — frames per fsync (the flush
/// cadence) and frames per group commit (the write-syscall batching).
fn bench_journal(frames: usize, seed: u64, calib: f64) -> serde_json::Value {
    let records: Vec<VisitRecord> = (0..frames)
        .map(|i| VisitRecord {
            crawl: CrawlId("perf-journal".to_string()),
            domain: format!("journal-site{i}.example"),
            rank: Some(i as u32 + 1),
            malicious_category: None,
            os: Os::ALL[i % Os::ALL.len()],
            outcome: LoadOutcome::Success,
            loaded_at_ms: 400 + (i as u64 % 700),
            events: vec![
                NetLogEvent {
                    time: 12,
                    event_type: EventType::UrlRequestStartJob,
                    source: SourceRef {
                        id: 1,
                        kind: SourceType::UrlRequest,
                    },
                    phase: EventPhase::Begin,
                    params: EventParams::UrlRequestStart {
                        url: format!("https://journal-site{i}.example/"),
                        method: "GET".to_string(),
                        initiator: None,
                        load_flags: 0,
                    },
                },
                NetLogEvent {
                    time: 90 + (i as u64 % 40),
                    event_type: EventType::FailedRequest,
                    source: SourceRef {
                        id: 1,
                        kind: SourceType::UrlRequest,
                    },
                    phase: EventPhase::None,
                    params: EventParams::Failed { net_error: -102 },
                },
            ],
        })
        .collect();
    let delta = VisitDelta {
        cost_ms: 21_000,
        attempted: 1,
        successful: 1,
        ..VisitDelta::default()
    };
    let dir = std::env::temp_dir().join(format!("kt-perf-journal-{}-{seed}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("journal bench dir");
    let run = |config: JournalConfig, path: &std::path::Path| {
        let writer = JournalWriter::create_with(path, config).expect("bench journal");
        let (_, secs) = time(|| {
            for record in &records {
                writer.append_visit(record, &delta, FLAG_FINAL, false);
            }
            writer.sync();
        });
        (writer.stats(), secs)
    };
    let grouped_path = dir.join("grouped.ktj");
    let unbatched_path = dir.join("unbatched.ktj");
    let (stats, mut grouped_secs) = run(JournalConfig::default(), &grouped_path);
    let (unbatched_stats, mut unbatched_secs) = run(JournalConfig::unbatched(), &unbatched_path);
    assert_eq!(
        std::fs::read(&grouped_path).expect("grouped journal"),
        std::fs::read(&unbatched_path).expect("unbatched journal"),
        "group commit must not change on-disk bytes"
    );
    assert_eq!(stats.visits, frames as u64);
    // Best of three, like every other stage.
    for _ in 0..2 {
        grouped_secs = grouped_secs.min(run(JournalConfig::default(), &grouped_path).1);
        unbatched_secs = unbatched_secs.min(run(JournalConfig::unbatched(), &unbatched_path).1);
    }
    let frames_per_fsync = stats.frames_per_fsync();
    let frames_per_group = stats.frames as f64 / stats.group_commits.max(1) as f64;
    eprintln!(
        "  {frames} frames: grouped {:.0}/s ({:.1} frames/fsync, {:.1} frames/write), \
         unbatched {:.0}/s ({:.1} frames/fsync) — {:.2}x",
        frames as f64 / grouped_secs,
        frames_per_fsync,
        frames_per_group,
        frames as f64 / unbatched_secs,
        unbatched_stats.frames_per_fsync(),
        unbatched_secs / grouped_secs
    );
    let mut grouped = stage_json(frames, grouped_secs, calib);
    if let serde_json::Value::Object(map) = &mut grouped {
        map.insert(
            "frames_per_group_commit".to_string(),
            serde_json::json!(frames_per_group),
        );
    }
    let entry = serde_json::json!({
        "frames": frames,
        "grouped": grouped,
        "unbatched": stage_json(frames, unbatched_secs, calib),
        "speedup": unbatched_secs / grouped_secs,
        "frames_per_fsync": frames_per_fsync,
        "fsyncs": stats.fsyncs,
    });
    std::fs::remove_dir_all(&dir).ok();
    entry
}

/// The active-scan stage: a full dual-stack sweep (TCP + UDP, v4 + v6,
/// loopback + LAN) plus two knock sequences under a seeded 20% fault
/// storm. Reports knocks/sec on the real clock (machine-normalized
/// like every other stage) and asserts the scanner's core guarantee
/// inline: the report at MAX_WORKERS renders byte-identical to the
/// single-worker run.
fn bench_port_scan(seed: u64, calib: f64) -> serde_json::Value {
    use knock_talk::scanner::{run_scan, PortState, ScanConfig};
    use knock_talk::simnet::{HostEnv, SimNet};

    let mut cfg = ScanConfig::new(seed);
    cfg.udp = true;
    cfg.ipv6 = true;
    cfg.sequences = vec![vec![6463, 6464, 6465], vec![80, 443, 8080]];
    cfg.faults = FaultPlan::none(seed)
        .with_rate(Fault::ProbeDrop, 0.2)
        .with_rate(Fault::ProbeDelay, 0.2)
        .with_rate(Fault::ConnectionReset, 0.2);
    let env = HostEnv::sampled(Os::Linux, seed);
    let net = SimNet::new(seed);

    cfg.workers = 1;
    let (serial_report, _) = time(|| run_scan(&env, &net, &cfg));
    cfg.workers = MAX_WORKERS;
    let (report, mut secs) = time(|| run_scan(&env, &net, &cfg));
    assert_eq!(
        report.render(),
        serial_report.render(),
        "scan must be worker-count-invariant"
    );
    // Best of three, like every other stage.
    for _ in 0..2 {
        secs = secs.min(time(|| run_scan(&env, &net, &cfg)).1);
    }
    let knocks = report.knocks() as usize;
    eprintln!(
        "  {} targets, {knocks} knocks in {secs:.3}s ({:.0} knocks/s), \
         open={} filtered={} skipped={} unprobed={}",
        report.targets_total,
        knocks as f64 / secs,
        report.open().count(),
        report.count(PortState::Filtered),
        report.skipped.len(),
        report.unprobed.len()
    );
    serde_json::json!({
        "targets": report.targets_total,
        "open_ports": report.open().count(),
        "breaker_trips": report.breaker_trips,
        "scan": stage_json(knocks, secs, calib),
    })
}

/// The longitudinal snapshot stages. One incremental 12-snapshot
/// ~20%-churn series through the full engine: rolling list, per-step
/// incremental plans (recrawl only changed + newly-listed sites, link
/// the rest by content reference), content-addressed ingest. Reports
/// two stage entries: `snapshot_store` — executed visits/sec through
/// the engine, plus the two economy ratios the floors gate
/// (`full_over_executed`, how much visit work linking saved over a
/// full per-snapshot recrawl; `dedup_ratio`, logical bytes over stored
/// bytes in the chunk store) — and `snapshot_diff`, manifest rows/sec
/// through the shard-parallel streaming diff, asserted byte-identical
/// between 1 and MAX_WORKERS workers inline.
fn bench_snapshot(smoke: bool, seed: u64, calib: f64) -> (serde_json::Value, serde_json::Value) {
    let mut config = SnapshotStudyConfig::bench(seed);
    if smoke {
        // Same series shape (12 snapshots, 20% churn) so the gated
        // ratios are comparable; fewer sites per snapshot.
        config.series.size = 120;
    }
    let (study, run_secs) = time(|| SnapshotStudy::run(config.clone()).expect("snapshot study"));
    let work = study.work;
    assert!(work.executed_visits > 0, "snapshot series must do work");
    let full_over_executed = work.full_visits as f64 / work.executed_visits as f64;
    let dedup_ratio = study.snapshots.dedup_ratio();

    let serial = study.diff(1, None).render();
    let (diff, mut diff_secs) = time(|| study.diff(MAX_WORKERS, None));
    assert_eq!(
        diff.render(),
        serial,
        "snapshot diff must be worker-count-invariant"
    );
    // Best of three, like every other stage.
    for _ in 0..2 {
        diff_secs = diff_secs.min(time(|| study.diff(MAX_WORKERS, None)).1);
    }

    eprintln!(
        "  {} snapshots x {} sites: {} visits in {run_secs:.2}s ({:.0}/s) — \
         {:.2}x fewer than full recrawl, {:.2}x dedup ({} chunks, {} linked rows)",
        config.series.snapshots,
        config.series.size,
        work.executed_visits,
        work.executed_visits as f64 / run_secs,
        full_over_executed,
        dedup_ratio,
        study.snapshots.chunk_count(),
        work.linked_rows,
    );
    eprintln!(
        "  diff: {} manifest rows in {diff_secs:.3}s ({:.0}/s), worker-count-invariant",
        diff.rows_walked,
        diff.rows_walked as f64 / diff_secs
    );

    let mut store_entry = stage_json(work.executed_visits as usize, run_secs, calib);
    if let serde_json::Value::Object(map) = &mut store_entry {
        map.insert(
            "snapshots".to_string(),
            serde_json::json!(config.series.snapshots),
        );
        map.insert("sites".to_string(), serde_json::json!(config.series.size));
        map.insert(
            "full_visits".to_string(),
            serde_json::json!(work.full_visits),
        );
        map.insert(
            "linked_rows".to_string(),
            serde_json::json!(work.linked_rows),
        );
        map.insert(
            "chunks".to_string(),
            serde_json::json!(study.snapshots.chunk_count()),
        );
        map.insert(
            "stored_bytes".to_string(),
            serde_json::json!(study.snapshots.stored_bytes()),
        );
        map.insert(
            "logical_bytes".to_string(),
            serde_json::json!(study.snapshots.logical_bytes()),
        );
        map.insert(
            "full_over_executed".to_string(),
            serde_json::json!(full_over_executed),
        );
        map.insert("dedup_ratio".to_string(), serde_json::json!(dedup_ratio));
    }
    let mut diff_entry = stage_json(diff.rows_walked as usize, diff_secs, calib);
    if let serde_json::Value::Object(map) = &mut diff_entry {
        map.insert(
            "snapshots".to_string(),
            serde_json::json!(diff.labels.len()),
        );
    }
    (store_entry, diff_entry)
}

/// Pretty-print a JSON value (the vendored serde_json shim only
/// renders compactly). Scalar-only arrays stay inline so the checked-in
/// baseline's eps curves read as one line each.
fn pretty(value: &serde_json::Value, indent: usize, out: &mut String) {
    use serde_json::Value;
    let pad = "  ".repeat(indent);
    match value {
        Value::Array(items) if !items.is_empty() => {
            let scalars = items
                .iter()
                .all(|v| !matches!(v, Value::Array(_) | Value::Object(_)));
            if scalars {
                out.push_str(&value.to_string());
            } else {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad);
                    out.push_str("  ");
                    pretty(item, indent + 1, out);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                out.push_str(&pad);
                out.push(']');
            }
        }
        Value::Object(map) if !map.is_empty() => {
            out.push_str("{\n");
            let n = map.len();
            for (i, (key, item)) in map.iter().enumerate() {
                out.push_str(&pad);
                out.push_str("  ");
                out.push_str(&serde_json::Value::String(key.clone()).to_string());
                out.push_str(": ");
                pretty(item, indent + 1, out);
                out.push_str(if i + 1 < n { ",\n" } else { "\n" });
            }
            out.push_str(&pad);
            out.push('}');
        }
        other => out.push_str(&other.to_string()),
    }
}

/// `--check-prom`: validate a Prometheus text exposition file (as
/// written by `knocktalk --metrics-out`) and require every pre-created
/// series plus the named ones.
/// Runs no benchmarks; exit 1 on any format violation or missing
/// series.
fn check_prom(path: &str, require: &[String]) -> ! {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("perf: reading {path}: {e}");
            std::process::exit(2);
        }
    };
    let extra: Vec<&str> = require.iter().map(String::as_str).collect();
    let required = kt_bench::prom::required_series(&extra);
    match kt_bench::prom::check(&text, &required) {
        Ok(report) => {
            eprintln!(
                "check-prom: {path} OK — {} families, {} series, {} samples; {} required series present",
                report.families,
                report.series,
                report.samples,
                required.len()
            );
            std::process::exit(0);
        }
        Err(errors) => {
            eprintln!("check-prom: {path} FAILED — {} problem(s):", errors.len());
            for e in &errors {
                eprintln!("  {e}");
            }
            std::process::exit(1);
        }
    }
}

/// The measurement-bias sweep: one crawl per crawler profile over the
/// sensor-planted population, each through the standard analysis. The
/// element count is total visits (profiles × sites), so the relative
/// throughput regresses if either the sensor gating in the browser or
/// the bias accounting gets slower.
fn bench_bias(seed: u64, calib: f64) -> serde_json::Value {
    use knock_talk::analysis::{run_bias_sweep, BiasConfig};
    let cfg = BiasConfig {
        seed,
        workers: MAX_WORKERS,
    };
    let (report, secs) = time(|| run_bias_sweep(&cfg));
    let visits = report.population_sites as usize * report.rows.len();
    let ratio = |row: Option<&knock_talk::analysis::ProfileBias>| {
        row.map(|r| r.observed_ratio()).unwrap_or(0.0)
    };
    eprintln!(
        "  {} profiles x {} sites in {:.2}s ({:.0} visits/s); \
         observed ratio {:.3} (naive) -> {:.3} (human-replay)",
        report.rows.len(),
        report.population_sites,
        secs,
        visits as f64 / secs,
        ratio(report.rows.first()),
        ratio(report.rows.last()),
    );
    let mut stage = stage_json(visits, secs, calib);
    if let serde_json::Value::Object(map) = &mut stage {
        map.insert("profiles".to_string(), serde_json::json!(report.rows.len()));
        map.insert(
            "naive_observed_ratio".to_string(),
            serde_json::json!(ratio(report.rows.first())),
        );
        map.insert(
            "suppressed_naive".to_string(),
            serde_json::json!(report.rows.first().map(|r| r.suppressed).unwrap_or(0)),
        );
    }
    stage
}

fn main() {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perf: {e}");
            std::process::exit(2);
        }
    };
    if let Some(path) = &opts.check_prom {
        check_prom(path, &opts.require);
    }
    let plan = FaultPlan::none(opts.seed).with_rate(Fault::ConnectionReset, FAULT_RATE);
    // The scaling sweep runs past the population-shaping MAX_WORKERS
    // into many-core territory: 16 and 32 workers verify the stealing
    // scheduler keeps scaling where static chunking flattens out.
    let (population_sizes, scaling_n, worker_counts, bulk_n, journal_frames): (
        Vec<usize>,
        usize,
        Vec<usize>,
        usize,
        usize,
    ) = if opts.smoke {
        (vec![64], 64, vec![1, MAX_WORKERS, 16, 32], 640, 4_000)
    } else {
        (
            vec![64, 160, 320],
            256,
            vec![1, 2, 4, MAX_WORKERS, 16, 32],
            3_200,
            20_000,
        )
    };

    // The top-level phases run under the kt-trace stage profiler so the
    // bench binary prints the same stage/alloc breakdown `knocktalk
    // profile` does; the JSON schema below is unchanged.
    let mut profiler = StageProfiler::new();

    eprintln!("calibrating...");
    let calib = profiler.run("calibrate", || calibrate(opts.seed));
    eprintln!("calibration crawl: {calib:.3}s");

    eprintln!("population sweep:");
    let populations: Vec<serde_json::Value> = population_sizes
        .iter()
        .map(|&n| {
            let entry = profiler.run(&format!("population:{n}"), || {
                bench_population(n, opts.seed, &plan, calib)
            });
            profiler.annotate_elements(n as u64);
            entry
        })
        .collect();

    eprintln!("worker scaling at n={scaling_n}:");
    let scaling = profiler.run("scaling", || {
        bench_scaling(scaling_n, &worker_counts, opts.seed, &plan)
    });
    profiler.annotate_elements(scaling_n as u64);

    // Same fleet shape in smoke and full mode: the run is cheap (the
    // fleet is light sites on the simulated clock) and keeping the
    // shape fixed makes the p99 completion check compare
    // like-for-like — it is deterministic at a given seed.
    let (svc_campaigns, svc_sites) = (24, 16);
    eprintln!("service fleet ({svc_campaigns} campaigns x {svc_sites} sites):");
    let service = profiler.run("service", || {
        bench_service(svc_campaigns, svc_sites, opts.seed, &plan, calib)
    });
    profiler.annotate_elements((svc_campaigns * svc_sites) as u64);

    eprintln!("flat-memory bulk store (n={bulk_n}, mmap spill):");
    let flat_memory = profiler.run("flat_memory", || {
        bench_flat_memory(bulk_n, opts.seed, calib)
    });
    profiler.annotate_elements(bulk_n as u64);

    eprintln!("journal group commit ({journal_frames} frames):");
    let journal = profiler.run("journal", || {
        bench_journal(journal_frames, opts.seed, calib)
    });
    profiler.annotate_elements(journal_frames as u64);

    eprintln!("active port scan (dual-stack sweep + sequences, 20% faults):");
    let port_scan = profiler.run("port_scan", || bench_port_scan(opts.seed, calib));
    profiler.annotate_elements(port_scan["targets"].as_u64().unwrap_or(0));

    eprintln!("longitudinal snapshot engine (12-snapshot incremental series):");
    let (snapshot_store, snapshot_diff) =
        profiler.run("snapshot", || bench_snapshot(opts.smoke, opts.seed, calib));
    profiler.annotate_elements(snapshot_store["elements"].as_u64().unwrap_or(0));

    eprintln!("measurement-bias sweep (one crawl per crawler profile):");
    let bias_sweep = profiler.run("bias_sweep", || bench_bias(opts.seed, calib));
    profiler.annotate_elements(bias_sweep["elements"].as_u64().unwrap_or(0));
    eprintln!("stage breakdown:\n{}", profiler.render_table());

    let report = serde_json::json!({
        "schema": 2,
        "mode": if opts.smoke { "smoke" } else { "full" },
        "seed": opts.seed,
        "calibration_secs": calib,
        "populations": populations,
        "scaling": scaling,
        "service": service,
        "flat_memory": flat_memory,
        "journal": journal,
        "port_scan": port_scan,
        "snapshot_store": snapshot_store,
        "snapshot_diff": snapshot_diff,
        "bias_sweep": bias_sweep,
    });

    if let Some(baseline_path) = &opts.check {
        let text = match std::fs::read_to_string(baseline_path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("perf: reading baseline {baseline_path}: {e}");
                std::process::exit(2);
            }
        };
        let baseline: serde_json::Value = match serde_json::from_str(&text) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("perf: parsing baseline {baseline_path}: {e}");
                std::process::exit(2);
            }
        };
        match kt_bench::checks::check_regressions(&report, &baseline) {
            Ok(failures) if failures.is_empty() => {
                eprintln!("check: no stage regressed more than 2x vs {baseline_path}");
            }
            Ok(failures) => {
                eprintln!("check: FAILED — stages regressed more than 2x:");
                for failure in &failures {
                    eprintln!("  {failure}");
                }
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("perf: {e}");
                std::process::exit(2);
            }
        }
    }

    if let Some(ceiling) = opts.alloc_ceiling {
        let worst = report["populations"]
            .as_array()
            .into_iter()
            .flatten()
            .filter_map(|p| p["stages"]["decode_detect_view"]["allocs_per_event"].as_f64())
            .fold(0.0f64, f64::max);
        if worst > ceiling {
            eprintln!(
                "check: FAILED — decode_detect_view allocated {worst:.3}/event, \
                 ceiling is {ceiling}"
            );
            std::process::exit(1);
        }
        eprintln!("check: decode_detect_view allocs/event {worst:.3} within ceiling {ceiling}");
    }

    if let Some(floor) = opts.eps_floor {
        // Machine-normalized (relative) decode throughput, worst
        // population: raw eps would gate on CI host speed instead.
        let worst = report["populations"]
            .as_array()
            .into_iter()
            .flatten()
            .filter_map(|p| p["stages"]["decode_detect_view"]["relative"].as_f64())
            .fold(f64::MAX, f64::min);
        if worst < floor {
            eprintln!(
                "check: FAILED — decode_detect_view relative eps {worst:.2} under floor {floor}"
            );
            std::process::exit(1);
        }
        eprintln!("check: decode_detect_view relative eps {worst:.2} above floor {floor}");
    }

    if let Some(ceiling) = opts.mem_ceiling {
        let ratio = report["flat_memory"]["heap_over_store_ratio"]
            .as_f64()
            .unwrap_or(f64::MAX);
        if ratio > ceiling {
            eprintln!(
                "check: FAILED — flat-memory scan used {ratio:.4} of the store's bytes as \
                 heap, ceiling is {ceiling}"
            );
            std::process::exit(1);
        }
        eprintln!("check: flat-memory heap/store ratio {ratio:.4} within ceiling {ceiling}");
    }

    if let Some(floor) = opts.dedup_floor {
        let ratio = report["snapshot_store"]["dedup_ratio"]
            .as_f64()
            .unwrap_or(0.0);
        if ratio < floor {
            eprintln!(
                "check: FAILED — snapshot store deduplicated {ratio:.2}x \
                 (logical/stored bytes), floor is {floor}"
            );
            std::process::exit(1);
        }
        eprintln!("check: snapshot dedup ratio {ratio:.2}x above floor {floor}");
    }

    if let Some(floor) = opts.incremental_floor {
        let ratio = report["snapshot_store"]["full_over_executed"]
            .as_f64()
            .unwrap_or(0.0);
        if ratio < floor {
            eprintln!(
                "check: FAILED — incremental recrawl saved only {ratio:.2}x \
                 (full/executed visits), floor is {floor}"
            );
            std::process::exit(1);
        }
        eprintln!("check: incremental visit savings {ratio:.2}x above floor {floor}");
    }

    if let Some(floor) = opts.fsync_floor {
        let fpf = report["journal"]["frames_per_fsync"]
            .as_f64()
            .unwrap_or(0.0);
        if fpf < floor {
            eprintln!("check: FAILED — journal wrote {fpf:.1} frames/fsync, floor is {floor}");
            std::process::exit(1);
        }
        eprintln!("check: journal frames/fsync {fpf:.1} above floor {floor}");
    }

    let out = if opts.check.is_some() && opts.out == "BENCH_pipeline.json" {
        // Don't clobber the checked-in baseline from a check run.
        "BENCH_pipeline.current.json".to_string()
    } else {
        opts.out
    };
    let mut rendered = String::new();
    pretty(&report, 0, &mut rendered);
    rendered.push('\n');
    std::fs::write(&out, rendered).expect("write bench report");
    let speedup = report["scaling"]["stealing_vs_chunked_at_max_workers"]
        .as_f64()
        .unwrap_or(0.0);
    let top_workers = worker_counts.last().copied().unwrap_or(MAX_WORKERS);
    println!("wrote {out}; stealing vs chunked at {top_workers} workers: {speedup:.2}x");
}
