//! The crawl loop: a supervised worker pool over a site population.
//!
//! The pool is [`par_indexed`], the workspace's one parallel executor:
//! workers claim the next unclaimed job off a shared atomic ticket,
//! build a per-site [`World`] (its own DNS cache and latency stream,
//! like a separate VM), perform the paper's connectivity pre-check
//! before every visit, run the browser, and append the visit record to
//! the shared store. A worker bogged down in a retry-heavy site simply
//! claims fewer jobs while its peers drain the queue — no chunk
//! boundary ever serialises the campaign tail. Each job reports its
//! simulated cost and whether it was parked for the recrawl pass; the
//! supervisor folds those, and each worker's private tally, serially
//! after the join.
//!
//! There are two entry points: [`run_crawl`] for a plain campaign and
//! [`run_crawl_with`], which takes a [`CrawlOpts`] carrying an optional
//! resume plan, write-ahead journal, and trace.
//!
//! On top of the plain loop sits a resilience layer:
//!
//! * every visit runs under [`catch_unwind`] — a panicking visit is
//!   quarantined as [`LoadOutcome::Crashed`] (salvaging whatever
//!   capture prefix the panic payload carries) and the worker moves
//!   on; `run_crawl` never aborts a campaign;
//! * transient failures ([`is_transient`]) are retried in place with
//!   exponential backoff, then parked on an end-of-campaign recrawl
//!   queue that gets one final pass before the error is allowed into
//!   the Table 1 statistics;
//! * injected faults from the config's [`FaultPlan`] flow through the
//!   same paths as organic failures, so failure-injection tests
//!   exercise the production machinery.
//!
//! Determinism holds across worker counts because every sampled value
//! — latencies, fault decisions, backoff jitter — is keyed by site
//! identity (and attempt number), not by visit order or thread.

use kt_browser::{Browser, BrowserConfig, CrawlerProfile, PageLoadOutcome, World};
use kt_faults::{is_transient, Fault, FaultPlan, RetryPolicy, SalvagedVisit};
use kt_netbase::Os;
use kt_simnet::connectivity::{ConnectivityChecker, Outage};
use kt_store::journal::{JournalWriter, FLAG_FINAL, FLAG_RECRAWL};
use kt_store::{CrawlId, LoadOutcome, TelemetryStore, VisitRecord};
use kt_trace::{par_indexed, EventRecord, SpanRecord, SpanRing, Trace};
use kt_webgen::WebSite;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::observe::{set_stats_gauges, stats_sink, stats_sink_delta};
use crate::resume::ResumePlan;
use crate::stats::CrawlStats;

/// One crawl work item.
#[derive(Debug, Clone)]
pub struct CrawlJob<'a> {
    /// The site to visit.
    pub site: &'a WebSite,
    /// Blocklist category code for malicious crawls (0 = malware,
    /// 1 = abuse, 2 = phishing).
    pub malicious_category: Option<u8>,
}

impl<'a> CrawlJob<'a> {
    /// A job for a site from a non-malicious list.
    pub fn plain(site: &'a WebSite) -> CrawlJob<'a> {
        CrawlJob {
            site,
            malicious_category: None,
        }
    }
}

/// Crawl configuration.
#[derive(Debug, Clone)]
pub struct CrawlConfig {
    /// Campaign identifier (keys the store).
    pub crawl: CrawlId,
    /// The crawling OS.
    pub os: Os,
    /// Run seed.
    pub seed: u64,
    /// Worker threads.
    pub workers: usize,
    /// Observation window per page, ms.
    pub window_ms: u64,
    /// Measurement-side network outages to simulate (none in the
    /// paper's crawls; used by failure-injection tests).
    pub outages: Vec<Outage>,
    /// Deep-crawl mode: also visit internal pages (§3.3 extension).
    pub crawl_internal: bool,
    /// How the crawler presents itself to anti-bot sensors (the bias
    /// experiment's knob; the paper's crawler is `Naive`).
    pub profile: CrawlerProfile,
    /// Fault-injection plan (clean in production crawls).
    pub faults: FaultPlan,
    /// Retry/backoff/recrawl policy for transient failures.
    pub retry: RetryPolicy,
}

impl CrawlConfig {
    /// The paper's configuration for one campaign and OS.
    pub fn paper(crawl: CrawlId, os: Os, seed: u64) -> CrawlConfig {
        CrawlConfig {
            crawl,
            os,
            seed,
            workers: 4,
            window_ms: 20_000,
            outages: Vec::new(),
            crawl_internal: false,
            profile: CrawlerProfile::Naive,
            faults: FaultPlan::none(seed),
            retry: RetryPolicy::paper(),
        }
    }
}

/// Wall-clock cost of one visit: the 20 s window plus startup/teardown
/// overhead for the fresh incognito instance. Public so the campaign
/// service's deadline budgets and schedule replays price visits in the
/// same units as the pool.
pub const VISIT_WALL_MS: u64 = 21_000;

/// Per-worker span ring capacity: big enough for every visit of a
/// quick-scale campaign's share, bounded so a pathological retry storm
/// sheds old spans (counted in the trace meta line) instead of
/// growing without limit.
const SPAN_RING_CAP: usize = 4_096;

/// The optional machinery a campaign can run under. None of it
/// changes results: stats and store contents are byte-identical to a
/// plain [`run_crawl`] whatever is attached.
#[derive(Clone, Copy, Default)]
pub struct CrawlOpts<'a> {
    /// The remainder of a campaign whose earlier work survives in a
    /// journal: which jobs are already done (their stats and scheduler
    /// costs carried in), which were parked for the recrawl pass, and
    /// which still need the worker pool. `None` runs every job.
    pub resume: Option<&'a ResumePlan>,
    /// Write-ahead journal: each visit's terminal verdict is framed
    /// (record + stats delta) before the campaign moves on, so a crash
    /// loses at most the in-flight frame.
    pub journal: Option<&'a JournalWriter>,
    /// Metrics and spans: per-visit spans land in per-worker rings,
    /// counter sinks are built from each worker's private tally, and
    /// the campaign's derived gauges are set from the final stats.
    pub trace: Option<&'a Trace>,
}

/// Run one crawl campaign over `jobs`, appending to `store`.
///
/// Workers claim jobs off one shared ticket ([`par_indexed`]), so a
/// fault-heavy stretch of the population slows only the worker inside
/// it — never a statically-assigned chunk of unrelated sites. Results
/// are bit-identical for any worker count because every sampled value
/// (latency, fault, backoff jitter) is keyed by site identity and
/// attempt number, not by claim order or thread.
///
/// Never aborts: panicking visits are quarantined as
/// [`LoadOutcome::Crashed`] and every job is accounted for exactly
/// once in the returned stats, whatever faults were injected.
pub fn run_crawl(
    jobs: &[CrawlJob<'_>],
    config: &CrawlConfig,
    store: &TelemetryStore,
) -> CrawlStats {
    run_crawl_with(jobs, config, store, CrawlOpts::default())
}

/// [`run_crawl`] under a resume plan, a journal, and/or a trace.
///
/// When the journal's kill switch fires (a [`kt_store::KillSpec`]
/// boundary or an injected [`Fault::ProcessKill`]), workers stop
/// visiting and the returned stats describe an abandoned,
/// partially-run campaign — the caller is simulating `kill -9` and
/// should discard them in favour of a resumed run.
///
/// Resumed results are byte-identical to an uninterrupted run for
/// outage-free configurations: every visit outcome is a pure function
/// of `(seed, domain, attempt)`, the makespan is a greedy replay over
/// the full per-job cost vector (journaled costs for finished jobs,
/// freshly-recorded ones for the rest), and the recrawl pass is
/// domain-ordered either way. Counter series are derived from
/// [`CrawlStats`] snapshots (worker tallies, the journal-replayed
/// prior, the recrawl pass's delta), so the exported values always sum
/// to the returned stats — byte-identical across `--workers` settings
/// and kill/resume cycles.
pub fn run_crawl_with(
    jobs: &[CrawlJob<'_>],
    config: &CrawlConfig,
    store: &TelemetryStore,
    opts: CrawlOpts<'_>,
) -> CrawlStats {
    let CrawlOpts {
        resume,
        journal,
        trace,
    } = opts;
    let fresh;
    let plan = match resume {
        Some(plan) => plan,
        None => {
            fresh = ResumePlan::fresh(jobs.len());
            &fresh
        }
    };
    // The schedule replays over the *full* job vector whatever subset
    // actually re-runs, so the worker count it uses must be the one
    // the uninterrupted campaign would have had.
    let sched_workers = config.workers.max(1).min(jobs.len().max(1));
    let pool_workers = config.workers.max(1).min(plan.todo.len().max(1));
    let mut stats = plan.prior.clone();
    // Work finished before the crash was journaled with its stats
    // deltas; replaying them as a sink makes resumed counters equal to
    // an uninterrupted run's.
    if let Some(trace) = trace {
        trace.merge_sink(&stats_sink(&config.crawl, config.os, &plan.prior));
    }
    let (ends, workers) = par_indexed(
        plan.todo.len(),
        pool_workers,
        |w| PoolWorker::start(config, w as u64, pool_workers as u64, trace.is_some()),
        |worker, t| {
            // The process "died" mid-frame: visit nothing more. Peers
            // observe the same latch; the campaign is abandoned.
            if journal.is_some_and(|j| j.killed()) {
                return None;
            }
            let end = run_pool_job(
                &jobs[plan.todo[t]],
                config,
                store,
                journal,
                &mut worker.checker,
                &mut worker.stats,
                &mut worker.wall_ms,
                worker.id,
                worker.ring.as_mut(),
            );
            Some((end.cost_ms, end.parked))
        },
    );
    // Per-worker tallies merge exactly once, after the join — the
    // crawl itself holds no shared stats lock. The metrics sink and
    // span ring merge on the same schedule: one uncontended trace lock
    // per worker per campaign, nothing in the visit loop.
    for worker in workers {
        if let Some(trace) = trace {
            trace.merge_sink(&stats_sink(&config.crawl, config.os, &worker.stats));
            if let Some(ring) = worker.ring {
                trace.absorb_ring(ring);
            }
        }
        stats.merge(&worker.stats);
    }
    let mut costs = vec![0; jobs.len()];
    for &(i, cost) in &plan.prior_costs {
        costs[i] = cost;
    }
    let mut queue = plan.preparked.clone();
    for (&i, end) in plan.todo.iter().zip(ends) {
        if let Some((cost, parked)) = end {
            costs[i] = cost;
            if parked {
                // Verdict deferred: the recrawl pass decides whether
                // this becomes a Table 1 error. The failure record
                // already in the store stands until (unless) that pass
                // overwrites it.
                queue.push(i);
            }
        }
    }
    // The simulated makespan. A production pool's claim order follows
    // simulated time — a worker claims its next site the moment the
    // previous one finishes — but the simulation compresses 21 s
    // visits into microseconds, so the OS's thread scheduling would
    // otherwise leak into the claimed-job layout. Replaying the greedy
    // earliest-free-worker schedule over the per-job costs recovers
    // the deterministic duration a real campaign would take.
    stats.makespan_ms = simulated_makespan(&costs, sched_workers as u64);
    let dying = journal.is_some_and(|j| j.killed());
    if !queue.is_empty() && !dying {
        // Sorted by domain so the pass is independent of which worker
        // originally parked each site.
        queue.sort_by_key(|&i| jobs[i].site.domain.as_str());
        let before_recrawl = stats.clone();
        let mut ring = trace.map(|_| SpanRing::new(SPAN_RING_CAP));
        recrawl_pass(
            jobs,
            &queue,
            config,
            store,
            &mut stats,
            journal,
            ring.as_mut(),
        );
        if let Some(trace) = trace {
            // The pass mutates the merged tally in place, so its
            // counter contribution is the snapshot difference.
            trace.merge_sink(&stats_sink_delta(
                &config.crawl,
                config.os,
                &stats,
                &before_recrawl,
            ));
            if let Some(ring) = ring {
                trace.absorb_ring(ring);
            }
        }
    }
    // Recrawl wall-clock already journaled by the crashed run.
    stats.makespan_ms += plan.prior_recrawl_wall_ms;
    if let Some(trace) = trace {
        set_stats_gauges(trace, &config.crawl, config.os, &stats);
    }
    stats
}

/// Deterministic simulated duration of a work-stealing pool: jobs are
/// handed out in queue order, each to the worker whose clock
/// (initialised to its staggered start) is earliest; the pool is done
/// when its busiest worker is. This is exactly the claim order a real
/// pool follows when visit wall time is real time. Public so the
/// campaign service can price a campaign's schedule from its own
/// per-job cost vector.
pub fn simulated_makespan(costs: &[u64], workers: u64) -> u64 {
    let mut clocks: BinaryHeap<Reverse<u64>> = (0..workers)
        .map(|w| Reverse(stagger_ms(w, workers)))
        .collect();
    for cost in costs {
        let Reverse(clock) = clocks.pop().expect("at least one worker");
        clocks.push(Reverse(clock + cost));
    }
    clocks.into_iter().map(|Reverse(t)| t).max().unwrap_or(0)
}

/// Worker `worker`'s staggered start on the simulated wall clock:
/// starts spread evenly across one visit's span, so workers never
/// share an outage window just because they started together.
pub fn stagger_ms(worker: u64, workers: u64) -> u64 {
    worker * VISIT_WALL_MS / workers.max(1)
}

/// One pool worker's private state. Everything per worker stays per
/// worker — the connectivity checker, the staggered wall clock, the
/// stats tally and the span ring — so outage accounting follows each
/// worker's own simulated timeline and nothing in the visit loop is
/// shared.
struct PoolWorker {
    id: u64,
    checker: ConnectivityChecker,
    wall_ms: u64,
    stats: CrawlStats,
    ring: Option<SpanRing>,
}

impl PoolWorker {
    /// Worker `id` of `workers`, after its startup connectivity check.
    /// The check runs before the worker claims anything, which keeps
    /// the outage accounting independent of claim races — worker 0's
    /// ping at wall zero happens whether or not it wins a single job.
    fn start(config: &CrawlConfig, id: u64, workers: u64, spans: bool) -> PoolWorker {
        let mut worker = PoolWorker {
            id,
            checker: ConnectivityChecker::with_outages(config.outages.clone()),
            wall_ms: stagger_ms(id, workers),
            stats: CrawlStats::new(),
            ring: spans.then(|| SpanRing::new(SPAN_RING_CAP)),
        };
        wait_online(&mut worker.checker, &mut worker.wall_ms, &mut worker.stats);
        worker
    }
}

/// §3.1: ping 8.8.8.8 before each visit — and before each retry, since
/// a backoff can sleep straight into an outage window. Waits out any
/// outage so measurement-side network problems never masquerade as
/// website failures.
fn wait_online(checker: &mut ConnectivityChecker, wall_ms: &mut u64, stats: &mut CrawlStats) {
    while !checker.ping(*wall_ms) {
        stats.connectivity_retries += 1;
        *wall_ms = checker.next_online(*wall_ms);
    }
}

/// One supervised browser attempt: looks up the visit's injected
/// faults, runs the browser under `catch_unwind`, and returns the
/// visit's telemetry record. A panic becomes a quarantined
/// [`LoadOutcome::Crashed`] record carrying whatever capture prefix
/// the payload salvaged.
fn attempt_visit(
    world: &mut World,
    config: &CrawlConfig,
    job: &CrawlJob<'_>,
    attempt: u32,
) -> VisitRecord {
    let site = job.site;
    let faults = config.faults.visit_faults(site.domain.as_str(), attempt);
    // AssertUnwindSafe: the closure owns the browser; the world's only
    // cross-visit state (DNS cache, counters) is left at worst
    // harmlessly stale by a mid-visit panic, and the visit's whole
    // record is quarantined anyway.
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut browser = Browser::new(
            world,
            BrowserConfig {
                os: config.os,
                window_ms: config.window_ms,
                safe_browsing: false,
                incognito: true,
                pna: kt_browser::PnaMode::Off,
                crawl_internal: config.crawl_internal,
                profile: config.profile,
            },
            config.seed,
        );
        browser.visit_faulted(site, &faults)
    }));
    let (domain, outcome, loaded_at_ms, events) = match result {
        Ok(visit) => {
            let (outcome, at_ms) = match visit.outcome {
                PageLoadOutcome::Loaded { at_ms } => (LoadOutcome::Success, at_ms),
                PageLoadOutcome::Failed(err) => (LoadOutcome::Error(err), 0),
            };
            (visit.domain, outcome, at_ms, visit.capture.events)
        }
        Err(payload) => {
            // A cooperative panic carries the capture prefix; anything
            // else (a genuine bug) quarantines with an empty capture.
            let events = match payload.downcast::<SalvagedVisit>() {
                Ok(salvaged) => salvaged.events,
                Err(_) => Vec::new(),
            };
            let domain = site.domain.as_str().to_string();
            (domain, LoadOutcome::Crashed, 0, events)
        }
    };
    VisitRecord {
        crawl: config.crawl.clone(),
        domain,
        rank: site.rank,
        malicious_category: job.malicious_category,
        os: config.os,
        outcome,
        loaded_at_ms,
        events,
    }
}

/// Commit one visit's terminal verdict: append the record to the store
/// (retrying once when the fault plan injects a store-append failure —
/// the retry, like a real fsync hiccup's, succeeds), then frame it in
/// the write-ahead journal with the stats delta accumulated since
/// `before` (the snapshot taken when the job was claimed), so the
/// delta captures everything the visit contributed — including
/// retries and store-append retries. A [`Fault::ProcessKill`] drawn
/// for this `(domain, attempt)` tears the frame mid-write and latches
/// the journal's kill switch, exactly like power loss under the
/// writer.
#[allow(clippy::too_many_arguments)]
fn commit_visit(
    store: &TelemetryStore,
    journal: Option<&JournalWriter>,
    config: &CrawlConfig,
    stats: &mut CrawlStats,
    before: &CrawlStats,
    record: &VisitRecord,
    cost_ms: u64,
    flags: u8,
    attempt: u32,
) {
    let domain = record.domain.as_str();
    if config
        .faults
        .injects(Fault::StoreAppendFailure, domain, attempt)
    {
        stats.store_retries += 1;
    }
    let encoded = store.append(record);
    if let Some(journal) = journal {
        let delta = stats.delta_since(before, cost_ms);
        let kill = config.faults.injects(Fault::ProcessKill, domain, attempt);
        journal.append_encoded_visit(&encoded, &delta, flags, kill);
    }
}

/// One pool job's terminal outcome, for callers that need the record
/// itself: the resident campaign service streams it into online
/// aggregation; the batch pool drops it (the store already holds it).
#[derive(Debug)]
pub struct PoolJobEnd {
    /// The terminal visit record (already appended to the store and,
    /// when journaling, framed in the journal).
    pub record: VisitRecord,
    /// The job's whole simulated cost: visits, backoffs, outage waits.
    pub cost_ms: u64,
    /// True when the site was parked for the end-of-campaign recrawl
    /// pass (its stats verdict is deferred to that pass).
    pub parked: bool,
}

/// Run one site through the supervised attempt loop — the unit of work
/// a pool worker claims. Builds the per-site [`World`], runs the
/// connectivity pre-check before every attempt, retries transient
/// failures in place with deterministic backoff, appends the terminal
/// record to the store, frames it in the journal, and records spans
/// into `ring`. Mutates the caller's `stats` and `wall_ms` exactly as
/// the pool worker's loop always has; extracting it changes nothing
/// observable (the worker-invariance and journal tests pin this).
///
/// The campaign service calls this directly — one job per campaign per
/// scheduling round — so multiplexed campaigns reuse the identical
/// visit machinery and their results stay byte-identical to a batch
/// run of the same campaign.
#[allow(clippy::too_many_arguments)]
pub fn run_pool_job(
    job: &CrawlJob<'_>,
    config: &CrawlConfig,
    store: &TelemetryStore,
    journal: Option<&JournalWriter>,
    checker: &mut ConnectivityChecker,
    stats: &mut CrawlStats,
    wall_ms: &mut u64,
    worker_id: u64,
    mut ring: Option<&mut SpanRing>,
) -> PoolJobEnd {
    let job_start_ms = *wall_ms;
    // Snapshot for the journal's per-visit stats delta: everything
    // this job adds to the tally lands between here and its terminal
    // arm.
    let before = stats.clone();
    // A per-site world — its own DNS cache and latency stream, like a
    // dedicated VM — built once per job and reused across that job's
    // retries. Site fates are installed from (domain, seed) alone, so
    // a single-site world observes exactly what a whole-population
    // world would.
    let mut world = World::build(std::slice::from_ref(job.site), config.os, config.seed);
    let mut attempt: u32 = 0;
    let (record, parked, status) = loop {
        wait_online(checker, wall_ms, stats);
        let record = attempt_visit(&mut world, config, job, attempt);
        *wall_ms += VISIT_WALL_MS;
        match record.outcome {
            LoadOutcome::Crashed => {
                // Quarantine immediately: a crash is a measurement
                // artifact, not a website failure — no retries.
                stats.record_crash();
                break (record, false, "crashed");
            }
            LoadOutcome::Success => {
                stats.record_success();
                if attempt > 0 {
                    stats.recovered += 1;
                }
                break (record, false, "success");
            }
            LoadOutcome::Error(err) => {
                let transient = is_transient(err);
                if transient && attempt + 1 < config.retry.max_attempts {
                    stats.retries += 1;
                    if let Some(ring) = ring.as_deref_mut() {
                        ring.event(EventRecord {
                            name: "retry",
                            worker: worker_id as u32,
                            at_ms: *wall_ms,
                            target: record.domain.clone(),
                            detail: err.name().to_string(),
                        });
                    }
                    *wall_ms += config
                        .retry
                        .backoff_ms(config.seed, &record.domain, attempt + 1);
                    attempt += 1;
                    continue;
                }
                let parked = transient && config.retry.recrawl;
                if !parked {
                    stats.record_failure(err);
                }
                break (record, parked, if parked { "parked" } else { "error" });
            }
        }
    };
    let cost_ms = *wall_ms - job_start_ms;
    // A parked site's frame is non-final (flags 0): resume sends it
    // straight to the recrawl queue.
    let flags = if parked { 0 } else { FLAG_FINAL };
    commit_visit(
        store, journal, config, stats, &before, &record, cost_ms, flags, attempt,
    );
    if let Some(ring) = ring {
        ring.span(SpanRecord {
            name: "visit",
            worker: worker_id as u32,
            start_ms: job_start_ms,
            end_ms: *wall_ms,
            target: record.domain.clone(),
            status,
        });
    }
    PoolJobEnd {
        record,
        cost_ms,
        parked,
    }
}

/// One site's final recrawl visit — the unit of work the
/// end-of-campaign pass (and the campaign service's recrawl phase)
/// performs. The visit is attempt number `max_attempts`: the first
/// fresh fault/backoff draw past the in-place attempts. The caller
/// owns the pass-wide [`World`] (the recrawl builds one world over its
/// whole queue, unlike the pool's per-site worlds) and the restarted
/// wall clock. Returns the terminal record for streaming consumers;
/// the store and journal already hold it.
#[allow(clippy::too_many_arguments)]
pub fn run_recrawl_job(
    job: &CrawlJob<'_>,
    config: &CrawlConfig,
    store: &TelemetryStore,
    journal: Option<&JournalWriter>,
    world: &mut World,
    checker: &mut ConnectivityChecker,
    stats: &mut CrawlStats,
    wall_ms: &mut u64,
    ring: Option<&mut SpanRing>,
) -> VisitRecord {
    let attempt = config.retry.max_attempts;
    let before = stats.clone();
    stats.recrawled += 1;
    wait_online(checker, wall_ms, stats);
    let record = attempt_visit(world, config, job, attempt);
    let status = match record.outcome {
        LoadOutcome::Crashed => {
            stats.record_crash();
            "crashed"
        }
        LoadOutcome::Success => {
            stats.record_success();
            stats.recovered += 1;
            // Overwrites the pass-one failure record: the store is
            // last-write-wins per (crawl, domain, os).
            "recovered"
        }
        LoadOutcome::Error(err) => {
            stats.record_failure(err);
            stats.gave_up += 1;
            "gave_up"
        }
    };
    // Each recrawl visit costs exactly one wall slot (the pass is
    // serial and outage waits are schedule-, not site-, owned), so
    // the journaled cost is the constant — resume adds one slot
    // back per surviving recrawl frame.
    let flags = FLAG_FINAL | FLAG_RECRAWL;
    commit_visit(
        store,
        journal,
        config,
        stats,
        &before,
        &record,
        VISIT_WALL_MS,
        flags,
        attempt,
    );
    if let Some(ring) = ring {
        ring.span(SpanRecord {
            name: "recrawl",
            worker: u32::MAX,
            start_ms: *wall_ms,
            end_ms: *wall_ms + VISIT_WALL_MS,
            target: record.domain.clone(),
            status,
        });
    }
    *wall_ms += VISIT_WALL_MS;
    record
}

/// The end-of-campaign recrawl: transiently-failing sites get one
/// final visit before their errors are allowed into Table 1.
/// Single-threaded, in domain order, with a fresh world and a wall
/// clock restarted at zero — all independent of the original worker
/// layout, so results stay stable across worker counts. Recrawl spans
/// report as worker `u32::MAX` (the pass is the supervisor's, not any
/// pool worker's).
#[allow(clippy::too_many_arguments)]
fn recrawl_pass(
    jobs: &[CrawlJob<'_>],
    queue: &[usize],
    config: &CrawlConfig,
    store: &TelemetryStore,
    stats: &mut CrawlStats,
    journal: Option<&JournalWriter>,
    mut ring: Option<&mut SpanRing>,
) {
    let sites: Vec<WebSite> = queue.iter().map(|&i| jobs[i].site.clone()).collect();
    let mut world = World::build(&sites, config.os, config.seed);
    let mut checker = ConnectivityChecker::with_outages(config.outages.clone());
    let mut wall_ms: u64 = 0;
    // The recrawl visit is attempt number `max_attempts`: the first
    // fresh fault/backoff draw past the in-place attempts.
    for &index in queue {
        if journal.is_some_and(|j| j.killed()) {
            break;
        }
        let job = &jobs[index];
        run_recrawl_job(
            job,
            config,
            store,
            journal,
            &mut world,
            &mut checker,
            stats,
            &mut wall_ms,
            ring.as_deref_mut(),
        );
    }
    // The recrawl is a serial coda after the parallel phase: it
    // extends the campaign rather than overlapping it.
    stats.makespan_ms += wall_ms;
}

#[cfg(test)]
mod tests {
    use super::*;
    use kt_netbase::DomainName;
    use kt_netlog::NetError;
    use kt_webgen::{Availability, WebSite};

    fn sites(n: usize) -> Vec<WebSite> {
        (0..n)
            .map(|i| {
                let mut s = WebSite::plain(
                    DomainName::parse(&format!("site{i}.example")).unwrap(),
                    Some(i as u32 + 1),
                    3,
                );
                if i % 10 == 9 {
                    s.set_availability_all(Availability::NxDomain);
                }
                s
            })
            .collect()
    }

    fn jobs(sites: &[WebSite]) -> Vec<CrawlJob<'_>> {
        sites.iter().map(CrawlJob::plain).collect()
    }

    #[test]
    fn crawl_visits_every_site() {
        let population = sites(40);
        let store = TelemetryStore::new();
        let config = CrawlConfig::paper(CrawlId::top2020(), Os::Linux, 5);
        let stats = run_crawl(&jobs(&population), &config, &store);
        assert_eq!(stats.attempted, 40);
        assert_eq!(stats.failed(), 4, "every 10th site is NXDOMAIN");
        assert_eq!(store.len(), 40);
        assert_eq!(stats.failure_count(NetError::NameNotResolved), 4);
    }

    #[test]
    fn stats_are_stable_across_worker_counts() {
        let population = sites(30);
        let mut baseline = None;
        for workers in [1, 2, 4, 8] {
            let store = TelemetryStore::new();
            let mut config = CrawlConfig::paper(CrawlId::top2020(), Os::Windows, 5);
            config.workers = workers;
            let stats = run_crawl(&jobs(&population), &config, &store);
            match &baseline {
                None => baseline = Some(stats),
                Some(b) => {
                    assert_eq!(&stats.attempted, &b.attempted, "workers={workers}");
                    assert_eq!(&stats.failures, &b.failures, "workers={workers}");
                }
            }
        }
    }

    #[test]
    fn faulty_stats_and_store_are_stable_across_worker_counts() {
        // The acceptance bar for the fault layer: a fixed seed and a
        // fixed fault plan give byte-identical stats (including the
        // resilience counters) and store contents whatever the worker
        // count, because every draw is keyed by site identity and
        // attempt number.
        let population = sites(30);
        let plan = FaultPlan::none(7)
            .with_rate(Fault::DnsFlap, 0.2)
            .with_rate(Fault::ConnectionReset, 0.2)
            .with_rate(Fault::TruncatedCapture, 0.15)
            .with_rate(Fault::StoreAppendFailure, 0.15)
            .with_rate(Fault::WorkerPanic, 0.1);
        let mut baseline: Option<(CrawlStats, Vec<VisitRecord>)> = None;
        for workers in [1, 2, 4, 8] {
            let store = TelemetryStore::new();
            let mut config = CrawlConfig::paper(CrawlId::top2020(), Os::Windows, 7);
            config.workers = workers;
            config.faults = plan.clone();
            let mut stats = run_crawl(&jobs(&population), &config, &store);
            // Worker staggering interacts with outage windows and the
            // makespan measures the schedule itself, so those two are
            // the only legitimately schedule-dependent numbers.
            stats.connectivity_retries = 0;
            stats.makespan_ms = 0;
            let mut records = store.crawl_records_on(&CrawlId::top2020(), Os::Windows);
            records.sort_by(|a, b| a.domain.cmp(&b.domain));
            assert_eq!(records.len(), 30, "workers={workers}");
            match &baseline {
                None => baseline = Some((stats, records)),
                Some((b_stats, b_records)) => {
                    assert_eq!(&stats, b_stats, "workers={workers}");
                    assert_eq!(&records, b_records, "workers={workers}");
                }
            }
        }
        let (stats, _) = baseline.unwrap();
        assert!(stats.retries > 0, "the plan should exercise retries");
        assert!(stats.crashed > 0, "the plan should exercise quarantine");
    }

    #[test]
    fn store_bytes_are_identical_across_worker_counts() {
        // The PR's determinism bar, at the byte level: 1, 3, and 8
        // workers produce encoded records that compare equal byte for
        // byte, and identical stats — claim order never leaks into
        // telemetry.
        let population = sites(24);
        let plan = FaultPlan::none(9)
            .with_rate(Fault::ConnectionReset, 0.25)
            .with_rate(Fault::WorkerPanic, 0.1);
        let mut baseline: Option<(CrawlStats, Vec<Vec<u8>>)> = None;
        for workers in [1, 3, 8] {
            let store = TelemetryStore::new();
            let mut config = CrawlConfig::paper(CrawlId::top2020(), Os::MacOs, 9);
            config.workers = workers;
            config.faults = plan.clone();
            let mut stats = run_crawl(&jobs(&population), &config, &store);
            stats.connectivity_retries = 0;
            stats.makespan_ms = 0;
            // `crawl_records` already returns (domain, os)-sorted rows,
            // so the byte streams line up positionally.
            let bytes: Vec<Vec<u8>> = store
                .crawl_records(&CrawlId::top2020())
                .iter()
                .map(|r| kt_store::codec::encode(r).as_ref().to_vec())
                .collect();
            assert_eq!(bytes.len(), 24, "workers={workers}");
            match &baseline {
                None => baseline = Some((stats, bytes)),
                Some((b_stats, b_bytes)) => {
                    assert_eq!(&stats, b_stats, "workers={workers}");
                    assert_eq!(&bytes, b_bytes, "workers={workers}");
                }
            }
        }
    }

    #[test]
    fn records_are_keyed_by_crawl_and_os() {
        let population = sites(5);
        let store = TelemetryStore::new();
        for os in [Os::Windows, Os::Linux] {
            let config = CrawlConfig::paper(CrawlId::top2020(), os, 5);
            run_crawl(&jobs(&population), &config, &store);
        }
        assert_eq!(store.len(), 10);
        assert!(store
            .get(&CrawlId::top2020(), "site0.example", Os::Windows)
            .is_some());
        assert!(store
            .get(&CrawlId::top2020(), "site0.example", Os::MacOs)
            .is_none());
    }

    #[test]
    fn outages_delay_but_do_not_fail() {
        let population = sites(10);
        let store = TelemetryStore::new();
        let mut config = CrawlConfig::paper(CrawlId::top2020(), Os::Linux, 5);
        config.workers = 1;
        config.outages = vec![Outage {
            start: 0,
            end: 50_000,
        }];
        let stats = run_crawl(&jobs(&population), &config, &store);
        assert!(stats.connectivity_retries > 0);
        assert_eq!(stats.attempted, 10, "every site still crawled");
        assert_eq!(stats.failed(), 1, "only the genuine NXDOMAIN fails");
    }

    #[test]
    fn staggered_workers_do_not_share_outage_windows() {
        // Workers used to start at wall_ms = worker_id — offsets of
        // 0, 1, 2, 3 *milliseconds*, so one outage at the crawl's
        // start stalled all four workers. The stagger now spreads
        // starts across a visit span (0 / 5250 / 10500 / 15750 ms for
        // four workers): an outage over [0, 5000) catches only
        // worker 0's first ping.
        let population = sites(8);
        let store = TelemetryStore::new();
        let mut config = CrawlConfig::paper(CrawlId::top2020(), Os::Linux, 5);
        config.outages = vec![Outage {
            start: 0,
            end: 5_000,
        }];
        let stats = run_crawl(&jobs(&population), &config, &store);
        assert_eq!(
            stats.connectivity_retries, 1,
            "only worker 0 starts inside the outage"
        );
        assert_eq!(stats.attempted, 8);
        assert_eq!(stats.failed(), 0);
    }

    #[test]
    fn outage_starting_mid_backoff_is_waited_out() {
        // Attempt 0 ends at 21 s; the backoff pushes the retry past
        // 26 s; an outage opening at 22 s must be caught by the
        // pre-retry ping rather than crawled through.
        let site = WebSite::plain(DomainName::parse("flaky.example").unwrap(), Some(1), 3);
        let store = TelemetryStore::new();
        let mut config = CrawlConfig::paper(CrawlId::top2020(), Os::Linux, 5);
        config.workers = 1;
        config.faults = FaultPlan::none(5).with_first_attempts(Fault::ConnectionReset, 1);
        config.outages = vec![Outage {
            start: 22_000,
            end: 600_000,
        }];
        let job = [CrawlJob::plain(&site)];
        let stats = run_crawl(&job, &config, &store);
        assert_eq!(stats.retries, 1);
        assert!(
            stats.connectivity_retries >= 1,
            "the retry pinged into the outage"
        );
        assert_eq!(
            stats.successful, 1,
            "retry succeeded once the outage lifted"
        );
        assert_eq!(stats.recovered, 1);
    }

    #[test]
    fn injected_panics_never_abort_the_campaign() {
        // Every visit panics: all six are quarantined as Crashed
        // records, the workers keep going, and the campaign accounts
        // for every job.
        let population = sites(6);
        let store = TelemetryStore::new();
        let mut config = CrawlConfig::paper(CrawlId::top2020(), Os::Linux, 5);
        config.workers = 2;
        config.faults = FaultPlan::none(5).with_rate(Fault::WorkerPanic, 1.0);
        let stats = run_crawl(&jobs(&population), &config, &store);
        assert_eq!(stats.attempted, 6, "no job lost to a panic");
        assert_eq!(stats.crashed, 6, "every visit quarantined");
        assert_eq!(store.len(), 6);
        let records = store.crawl_records_on(&CrawlId::top2020(), Os::Linux);
        assert!(records.iter().all(|r| r.outcome.is_crashed()));
    }

    #[test]
    fn transient_failure_recovers_in_place() {
        // A single reset on attempt 0; the in-place retry (attempt 1)
        // succeeds, so the site never reaches the recrawl queue and
        // the store holds a success.
        let site = WebSite::plain(DomainName::parse("wobbly.example").unwrap(), Some(1), 3);
        let store = TelemetryStore::new();
        let mut config = CrawlConfig::paper(CrawlId::top2020(), Os::Linux, 11);
        config.workers = 1;
        config.faults = FaultPlan::none(11).with_first_attempts(Fault::ConnectionReset, 1);
        let job = [CrawlJob::plain(&site)];
        let stats = run_crawl(&job, &config, &store);
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.recrawled, 0);
        assert_eq!(stats.recovered, 1);
        assert_eq!(stats.successful, 1);
        assert_eq!(stats.failed(), 0);
        let record = store
            .get(&CrawlId::top2020(), "wobbly.example", Os::Linux)
            .unwrap();
        assert!(record.outcome.is_success());
    }

    #[test]
    fn exhausted_transients_go_to_the_recrawl_queue() {
        // Resets on attempts 0 and 1 exhaust the paper policy's
        // in-place budget (max_attempts = 2); the recrawl pass
        // (attempt 2) is clean and overwrites the failure record.
        let site = WebSite::plain(DomainName::parse("stubborn.example").unwrap(), Some(1), 3);
        let store = TelemetryStore::new();
        let mut config = CrawlConfig::paper(CrawlId::top2020(), Os::Linux, 11);
        config.workers = 1;
        config.faults = FaultPlan::none(11).with_first_attempts(Fault::ConnectionReset, 2);
        let job = [CrawlJob::plain(&site)];
        let stats = run_crawl(&job, &config, &store);
        assert_eq!(stats.retries, 1, "one in-place retry before parking");
        assert_eq!(stats.recrawled, 1);
        assert_eq!(stats.recovered, 1);
        assert_eq!(stats.gave_up, 0);
        assert_eq!(stats.attempted, 1, "the site still counts exactly once");
        assert_eq!(stats.failed(), 0, "no Table 1 error for a recovered site");
        let record = store
            .get(&CrawlId::top2020(), "stubborn.example", Os::Linux)
            .unwrap();
        assert!(record.outcome.is_success(), "recrawl overwrote the failure");
    }

    #[test]
    fn permanently_failing_transients_give_up() {
        // Resets on every attempt including the recrawl: the site ends
        // as a genuine CONN_RESET row in Table 1 with gave_up = 1.
        let site = WebSite::plain(DomainName::parse("dead.example").unwrap(), Some(1), 3);
        let store = TelemetryStore::new();
        let mut config = CrawlConfig::paper(CrawlId::top2020(), Os::Linux, 11);
        config.workers = 1;
        config.faults = FaultPlan::none(11).with_first_attempts(Fault::ConnectionReset, 3);
        let job = [CrawlJob::plain(&site)];
        let stats = run_crawl(&job, &config, &store);
        assert_eq!(stats.recrawled, 1);
        assert_eq!(stats.gave_up, 1);
        assert_eq!(stats.recovered, 0);
        assert_eq!(stats.failure_count(NetError::ConnectionReset), 1);
        assert_eq!(stats.failed(), 1);
        let record = store
            .get(&CrawlId::top2020(), "dead.example", Os::Linux)
            .unwrap();
        assert_eq!(
            record.outcome,
            LoadOutcome::Error(NetError::ConnectionReset)
        );
    }

    #[test]
    fn store_append_faults_are_retried_and_counted() {
        let population = sites(4);
        let store = TelemetryStore::new();
        let mut config = CrawlConfig::paper(CrawlId::top2020(), Os::Linux, 5);
        config.workers = 1;
        config.faults = FaultPlan::none(5).with_first_attempts(Fault::StoreAppendFailure, 1);
        let stats = run_crawl(&jobs(&population), &config, &store);
        assert_eq!(stats.store_retries, 4, "every site's first append retried");
        assert_eq!(store.len(), 4, "no record lost");
    }

    #[test]
    fn empty_job_list_is_fine() {
        let store = TelemetryStore::new();
        let config = CrawlConfig::paper(CrawlId::top2020(), Os::Linux, 5);
        let stats = run_crawl(&[], &config, &store);
        assert_eq!(stats.attempted, 0);
        assert!(store.is_empty());
    }

    // ---- write-ahead journal integration ----

    use crate::resume::split_campaigns;
    use kt_store::journal::{replay, JournalWriter, KillMode, KillSpec};

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "kt-crawl-journal-{name}-{}.ktj",
            std::process::id()
        ))
    }

    fn journaled(journal: &JournalWriter) -> CrawlOpts<'_> {
        CrawlOpts {
            journal: Some(journal),
            ..CrawlOpts::default()
        }
    }

    fn resumed<'a>(plan: &'a ResumePlan, journal: &'a JournalWriter) -> CrawlOpts<'a> {
        CrawlOpts {
            resume: Some(plan),
            journal: Some(journal),
            trace: None,
        }
    }

    /// A fault plan that exercises retries, recrawls, quarantines, and
    /// store-append retries all at once.
    fn stormy_plan(seed: u64) -> FaultPlan {
        FaultPlan::none(seed)
            .with_rate(Fault::DnsFlap, 0.2)
            .with_rate(Fault::ConnectionReset, 0.25)
            .with_rate(Fault::WorkerPanic, 0.1)
            .with_rate(Fault::StoreAppendFailure, 0.15)
    }

    #[test]
    fn journaling_never_perturbs_results_and_replay_rebuilds_the_run() {
        let population = sites(24);
        let mut config = CrawlConfig::paper(CrawlId::top2020(), Os::Windows, 7);
        config.faults = stormy_plan(7);
        let baseline_store = TelemetryStore::new();
        let baseline = run_crawl(&jobs(&population), &config, &baseline_store);

        let path = tmp("no-perturb");
        let journal = JournalWriter::create(&path).unwrap();
        let live_store = TelemetryStore::new();
        let live = run_crawl_with(
            &jobs(&population),
            &config,
            &live_store,
            journaled(&journal),
        );
        journal.sync();
        assert!(!journal.killed());
        assert_eq!(live, baseline, "journalling must not perturb stats");
        assert_eq!(
            live_store.crawl_records(&CrawlId::top2020()),
            baseline_store.crawl_records(&CrawlId::top2020()),
        );

        // The journal alone rebuilds the store and (modulo the
        // schedule-owned fields) the whole tally.
        let report = replay(&path).unwrap();
        assert_eq!(report.summary.corrupt_frames, 0);
        assert!(!report.summary.truncated_tail);
        assert_eq!(
            report.store.crawl_records(&CrawlId::top2020()),
            baseline_store.crawl_records(&CrawlId::top2020()),
        );
        let campaigns = split_campaigns(&report.visits, &report.checkpoints);
        let key = ("top2020".to_string(), "Windows".to_string());
        let plan = campaigns[&key].plan(&jobs(&population));
        assert!(plan.nothing_to_run(), "every job has a final frame");
        let mut rebuilt = plan.prior.clone();
        rebuilt.makespan_ms = baseline.makespan_ms;
        assert_eq!(rebuilt, baseline, "deltas rebuild the Table 1 tally");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn kill_at_any_frame_then_resume_reproduces_the_uninterrupted_run() {
        let population = sites(18);
        let mut config = CrawlConfig::paper(CrawlId::top2020(), Os::Linux, 11);
        config.faults = stormy_plan(11);
        let baseline_store = TelemetryStore::new();
        let baseline = run_crawl(&jobs(&population), &config, &baseline_store);
        let baseline_records = baseline_store.crawl_records(&CrawlId::top2020());
        let key = ("top2020".to_string(), "Linux".to_string());

        for at_frame in [0, 2, 5, 9, 14] {
            for mode in [KillMode::MidFrame, KillMode::PostFrame] {
                let path = tmp(&format!("kill-{at_frame}-{mode:?}"));
                let journal = JournalWriter::create(&path).unwrap();
                journal.set_kill(Some(KillSpec { at_frame, mode }));
                let dying_store = TelemetryStore::new();
                let _ = run_crawl_with(
                    &jobs(&population),
                    &config,
                    &dying_store,
                    journaled(&journal),
                );
                assert!(journal.killed(), "frame {at_frame} must be reached");

                // Recovery: replay what survived, plan the remainder,
                // and run it on top of the replayed store.
                let report = replay(&path).unwrap();
                let campaigns = split_campaigns(&report.visits, &report.checkpoints);
                let plan = campaigns
                    .get(&key)
                    .map(|c| c.plan(&jobs(&population)))
                    .unwrap_or_else(|| ResumePlan::fresh(population.len()));
                let resumed_journal = JournalWriter::open_append(&path, &report.summary).unwrap();
                let resumed = run_crawl_with(
                    &jobs(&population),
                    &config,
                    &report.store,
                    resumed(&plan, &resumed_journal),
                );
                assert_eq!(
                    resumed, baseline,
                    "kill@{at_frame}/{mode:?}: stats must match, makespan included"
                );
                assert_eq!(
                    report.store.crawl_records(&CrawlId::top2020()),
                    baseline_records,
                    "kill@{at_frame}/{mode:?}: store must match byte for byte"
                );
                std::fs::remove_file(&path).ok();
            }
        }
    }

    #[test]
    fn injected_process_kill_tears_the_journal_and_resume_recovers() {
        let population = sites(12);
        let mut config = CrawlConfig::paper(CrawlId::top2020(), Os::MacOs, 23);
        // The kill draw rides along with ordinary faults; the plain
        // baseline carries the same plan (ProcessKill only fires when
        // a journal is attached, like power loss needs a power cord).
        config.faults = stormy_plan(23).with_rate(Fault::ProcessKill, 0.15);
        let baseline_store = TelemetryStore::new();
        let baseline = run_crawl(&jobs(&population), &config, &baseline_store);

        let path = tmp("process-kill");
        let journal = JournalWriter::create(&path).unwrap();
        let dying_store = TelemetryStore::new();
        let _ = run_crawl_with(
            &jobs(&population),
            &config,
            &dying_store,
            journaled(&journal),
        );
        assert!(
            journal.killed(),
            "a 15% per-visit kill rate over 12 sites must fire"
        );

        // Resume without re-arming the kill: a real power loss does
        // not deterministically recur at the same visit.
        let mut resume_config = config.clone();
        resume_config.faults = stormy_plan(23);
        let report = replay(&path).unwrap();
        assert!(
            report.summary.truncated_tail,
            "the kill tears a frame mid-write"
        );
        let campaigns = split_campaigns(&report.visits, &report.checkpoints);
        let key = ("top2020".to_string(), "Mac".to_string());
        let plan = campaigns
            .get(&key)
            .map(|c| c.plan(&jobs(&population)))
            .unwrap_or_else(|| ResumePlan::fresh(population.len()));
        let resumed_journal = JournalWriter::open_append(&path, &report.summary).unwrap();
        let resumed = run_crawl_with(
            &jobs(&population),
            &resume_config,
            &report.store,
            resumed(&plan, &resumed_journal),
        );
        assert_eq!(resumed, baseline);
        assert_eq!(
            report.store.crawl_records(&CrawlId::top2020()),
            baseline_store.crawl_records(&CrawlId::top2020()),
        );
        std::fs::remove_file(&path).ok();
    }
}
