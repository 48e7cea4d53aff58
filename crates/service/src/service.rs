//! The resident campaign service: many concurrent campaigns, one
//! scheduler, deterministic degradation.
//!
//! # Execution model
//!
//! The service multiplexes admitted campaigns over a pool of executor
//! slots in *batch-synchronous rounds*: each round picks up to
//! `workers` distinct runnable campaigns (least-progressed first,
//! admission order breaking ties), runs **one job per campaign** in
//! parallel scoped threads, then applies the results serially in
//! selection order. The campaign is the determinism boundary — within
//! a campaign every visit, cost, and journal frame lands in the same
//! serial order whatever the worker count; parallelism comes from
//! multiplexing *across* campaigns, whose states are disjoint. That is
//! why the shed set, the stats, the journals, and the Prometheus
//! export are all byte-identical across 1/2/4/8 workers — the
//! acceptance criterion the overload tests pin.
//!
//! # Degradation
//!
//! Three pressure valves, all deterministic:
//!
//! - **admission control** rejects over-quota submissions up front
//!   with a typed [`AdmissionError`] — a pure function of the
//!   submission sequence;
//! - **deadline budgets** cancel a campaign cooperatively once its
//!   simulated consumed time exceeds its budget: the in-flight job
//!   drains, the rest are shed and counted, the journal stays
//!   resumable;
//! - **queue overflow** follows the tenant's [`OverflowPolicy`]
//!   through the per-campaign [`QueueModel`] — block (latency) or
//!   shed (counted loss). The *physical* [`BoundedQueue`] under it
//!   never drops: it bounds memory and exerts real backpressure, while
//!   the model makes the shed set schedule-invariant.
//!
//! Visit records always reach the store (the pool job appends before
//! the update is enqueued), so even a campaign with shed updates can
//! reconcile its final tables from the store at drain.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use kt_analysis::online::{OnlinePartial, UpdatePass};
use kt_analysis::par::CrawlAnalysis;
use kt_browser::World;
use kt_crawler::crawl::{
    run_pool_job, run_recrawl_job, simulated_makespan, CrawlConfig, CrawlJob, VISIT_WALL_MS,
};
use kt_crawler::CrawlStats;
use kt_faults::{Fault, FaultPlan};
use kt_netbase::Os;
use kt_simnet::connectivity::ConnectivityChecker;
use kt_store::journal::JournalWriter;
use kt_store::{CheckpointFrame, CrawlId, TelemetryStore, VisitRecord};
use kt_trace::{names, par_indexed, Labels, Trace};
use kt_webgen::WebSite;

use crate::admission::{AdmissionError, TenantQuota};
use crate::queue::{BoundedQueue, OverflowPolicy, QueueModel, QueueVerdict};

/// Service-wide configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Simulation seed (worlds, faults, backoff jitter).
    pub seed: u64,
    /// Executor slots per scheduling round — real parallelism across
    /// campaigns. Never changes any result, only wall time.
    pub workers: usize,
    /// Physical and modeled result-queue capacity.
    pub queue_capacity: usize,
    /// Modeled consumer cost per update, simulated ms.
    pub drain_ms_per_update: u64,
    /// Stall injected per [`Fault::SlowConsumer`] draw, simulated ms.
    pub slow_consumer_stall_ms: u64,
    /// Fault plan shared by the crawl and service paths.
    pub faults: FaultPlan,
    /// When set, each campaign journals to
    /// `<dir>/<tenant>/<crawl>-<os>.ktj` — drained campaigns resume
    /// from there to byte-identical tables.
    pub journal_dir: Option<PathBuf>,
}

impl ServiceConfig {
    /// Defaults: 4 executors, a 64-deep queue, no faults.
    pub fn new(seed: u64) -> ServiceConfig {
        ServiceConfig {
            seed,
            workers: 4,
            queue_capacity: 64,
            drain_ms_per_update: 1_000,
            slow_consumer_stall_ms: 30_000,
            faults: FaultPlan::none(seed),
            journal_dir: None,
        }
    }
}

/// One owned unit of campaign work.
#[derive(Debug, Clone)]
pub struct ServiceJob {
    /// The site to visit.
    pub site: WebSite,
    /// Blocklist category code for malicious crawls.
    pub malicious_category: Option<u8>,
}

/// A campaign submission.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Campaign identifier — keys the store; records of this campaign
    /// land under this crawl id.
    pub crawl: CrawlId,
    /// The crawling OS.
    pub os: Os,
    /// The sites to visit, in order.
    pub jobs: Vec<ServiceJob>,
    /// Simulated-time budget; `None` is unbounded. A campaign whose
    /// consumed simulated time exceeds the budget is cancelled
    /// cooperatively and its remaining jobs shed.
    pub deadline_ms: Option<u64>,
    /// Nominal worker count for the campaign's makespan replay — the
    /// batch `run_crawl` worker count this campaign is equivalent to.
    pub nominal_workers: usize,
}

/// Opaque handle to an admitted campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct CampaignHandle(u64);

/// Where a campaign is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignStatus {
    /// Admitted, no job run yet.
    Queued,
    /// At least one job run.
    Running,
    /// All jobs (pool + recrawl) terminally resolved.
    Completed,
    /// Cancelled by its deadline budget; remaining jobs shed.
    DeadlineExceeded,
    /// The service drained before the campaign finished; its journal
    /// is resumable.
    Drained,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Pool,
    Recrawl,
    Done,
}

/// One round's executor output, applied serially by the coordinator.
struct RoundOutcome {
    record: VisitRecord,
    pass: UpdatePass,
    cost_ms: u64,
}

struct Campaign {
    id: u64,
    tenant: String,
    spec: CampaignSpec,
    cfg: CrawlConfig,
    status: CampaignStatus,
    phase: Phase,
    /// Next pool job index.
    next_job: usize,
    /// Pool-parked job indices awaiting the recrawl phase.
    parked: Vec<usize>,
    recrawl_queue: Vec<usize>,
    recrawl_pos: usize,
    recrawl_world: Option<World>,
    checker: ConnectivityChecker,
    recrawl_checker: ConnectivityChecker,
    stats: CrawlStats,
    pool_wall_ms: u64,
    recrawl_wall_ms: u64,
    /// Per-pool-job simulated costs, for the makespan replay.
    costs: Vec<u64>,
    /// Total simulated time consumed — the deadline meter and the
    /// queue model's arrival clock.
    consumed_ms: u64,
    /// Jobs run so far (fair-share scheduling key).
    rounds: u64,
    /// Jobs never run because the deadline cancelled the campaign.
    shed_jobs: u64,
    model: QueueModel,
    journal: Option<JournalWriter>,
    updates: u64,
    updates_shed: u64,
    round: Option<RoundOutcome>,
}

impl Campaign {
    fn runnable(&self) -> bool {
        matches!(
            self.status,
            CampaignStatus::Queued | CampaignStatus::Running
        ) && self.phase != Phase::Done
    }

    fn unfinished(&self) -> bool {
        matches!(
            self.status,
            CampaignStatus::Queued | CampaignStatus::Running
        )
    }

    fn remaining_jobs(&self) -> u64 {
        match self.phase {
            Phase::Pool => (self.spec.jobs.len() - self.next_job) as u64,
            Phase::Recrawl => (self.recrawl_queue.len() - self.recrawl_pos) as u64,
            Phase::Done => 0,
        }
    }
}

struct Tenant {
    quota: TenantQuota,
    policy: OverflowPolicy,
    admitted: u64,
    rejected: BTreeMap<&'static str, u64>,
}

/// One tenant's deterministic accounting snapshot. The shed invariant
/// the overload-smoke CI job reconciles:
/// `admitted == completed + shed + drained + in_flight`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantAccounting {
    /// Tenant name.
    pub tenant: String,
    /// Campaigns admitted.
    pub admitted: u64,
    /// Rejections by reason label.
    pub rejected: BTreeMap<&'static str, u64>,
    /// Campaigns run to completion.
    pub completed: u64,
    /// Campaigns cancelled by deadline budget.
    pub shed: u64,
    /// Campaigns still unfinished when the service drained.
    pub drained: u64,
    /// Campaigns admitted and still queued/running.
    pub in_flight: u64,
    /// Updates that entered the result path.
    pub updates: u64,
    /// Updates shed by the overflow policy.
    pub updates_shed: u64,
    /// Producer blocks absorbed by the Block policy.
    pub queue_blocks: u64,
    /// Deepest modeled queue across the tenant's campaigns.
    pub queue_high_water: usize,
}

impl TenantAccounting {
    /// True when every admitted campaign is accounted for.
    pub fn reconciles(&self) -> bool {
        self.admitted == self.completed + self.shed + self.drained + self.in_flight
    }
}

enum Update {
    Visit {
        campaign: u64,
        record: VisitRecord,
        pass: UpdatePass,
    },
    Flush(Arc<FlushGate>),
}

#[derive(Default)]
struct FlushGate {
    done: Mutex<bool>,
    cv: Condvar,
}

impl FlushGate {
    fn open(&self) {
        *self.done.lock().expect("gate lock") = true;
        self.cv.notify_all();
    }

    fn wait(&self) {
        let mut done = self.done.lock().expect("gate lock");
        while !*done {
            done = self.cv.wait(done).expect("gate lock");
        }
    }
}

/// The resident multi-tenant campaign service.
pub struct CampaignService {
    config: ServiceConfig,
    store: TelemetryStore,
    tenants: BTreeMap<String, Tenant>,
    campaigns: Vec<Mutex<Campaign>>,
    aggregators: Arc<Mutex<BTreeMap<u64, OnlinePartial>>>,
    queue: Arc<BoundedQueue<Update>>,
    consumer: Option<JoinHandle<()>>,
    draining: bool,
}

impl CampaignService {
    /// Start a service: spawns the online-aggregation consumer behind
    /// the bounded result queue.
    pub fn new(config: ServiceConfig) -> CampaignService {
        let queue = Arc::new(BoundedQueue::new(config.queue_capacity));
        let aggregators: Arc<Mutex<BTreeMap<u64, OnlinePartial>>> = Arc::default();
        let consumer = {
            let queue = Arc::clone(&queue);
            let aggregators = Arc::clone(&aggregators);
            std::thread::spawn(move || {
                while let Some(update) = queue.pop() {
                    match update {
                        Update::Visit {
                            campaign,
                            record,
                            pass,
                        } => {
                            aggregators
                                .lock()
                                .expect("aggregator lock")
                                .entry(campaign)
                                .or_default()
                                .absorb(&record, pass);
                        }
                        Update::Flush(gate) => gate.open(),
                    }
                }
            })
        };
        CampaignService {
            config,
            store: TelemetryStore::new(),
            tenants: BTreeMap::new(),
            campaigns: Vec::new(),
            aggregators,
            queue,
            consumer: Some(consumer),
            draining: false,
        }
    }

    /// Register a tenant with its quotas and overflow policy.
    pub fn register_tenant(&mut self, name: &str, quota: TenantQuota, policy: OverflowPolicy) {
        self.tenants.insert(
            name.to_string(),
            Tenant {
                quota,
                policy,
                admitted: 0,
                rejected: BTreeMap::new(),
            },
        );
    }

    /// Submit a campaign. Admission is a pure function of the
    /// submission sequence: quotas count admitted-but-unfinished work,
    /// never timing.
    pub fn submit(
        &mut self,
        tenant: &str,
        spec: CampaignSpec,
    ) -> Result<CampaignHandle, AdmissionError> {
        let verdict = self.admit(tenant, &spec);
        if let Some(t) = self.tenants.get_mut(tenant) {
            match &verdict {
                Ok(()) => t.admitted += 1,
                Err(e) => *t.rejected.entry(e.reason()).or_insert(0) += 1,
            }
        }
        verdict?;
        let id = self.campaigns.len() as u64;
        let tenant_state = self.tenants.get(tenant).expect("admitted tenant exists");
        let mut cfg = CrawlConfig::paper(spec.crawl.clone(), spec.os, self.config.seed);
        cfg.workers = spec.nominal_workers;
        cfg.faults = self.config.faults.clone();
        let journal = match &self.config.journal_dir {
            Some(dir) => {
                let dir = dir.join(tenant);
                std::fs::create_dir_all(&dir).expect("journal dir");
                let path = dir.join(format!("{}-{}.ktj", spec.crawl.as_str(), spec.os.name()));
                Some(JournalWriter::create(&path).expect("campaign journal"))
            }
            None => None,
        };
        let jobs = spec.jobs.len();
        let outages = cfg.outages.clone();
        self.campaigns.push(Mutex::new(Campaign {
            id,
            tenant: tenant.to_string(),
            cfg,
            status: CampaignStatus::Queued,
            phase: Phase::Pool,
            next_job: 0,
            parked: Vec::new(),
            recrawl_queue: Vec::new(),
            recrawl_pos: 0,
            recrawl_world: None,
            checker: ConnectivityChecker::with_outages(outages.clone()),
            recrawl_checker: ConnectivityChecker::with_outages(outages),
            stats: CrawlStats::new(),
            pool_wall_ms: 0,
            recrawl_wall_ms: 0,
            costs: vec![0; jobs],
            consumed_ms: 0,
            rounds: 0,
            shed_jobs: 0,
            model: QueueModel::new(
                self.config.queue_capacity,
                self.config.drain_ms_per_update,
                tenant_state.policy,
            ),
            journal,
            updates: 0,
            updates_shed: 0,
            round: None,
            spec,
        }));
        Ok(CampaignHandle(id))
    }

    fn admit(&self, tenant: &str, spec: &CampaignSpec) -> Result<(), AdmissionError> {
        if self.draining {
            return Err(AdmissionError::Draining);
        }
        let Some(t) = self.tenants.get(tenant) else {
            return Err(AdmissionError::UnknownTenant(tenant.to_string()));
        };
        if spec.jobs.is_empty() {
            return Err(AdmissionError::EmptyCampaign);
        }
        let mut unfinished = 0usize;
        let mut in_flight_visits = 0usize;
        for campaign in &self.campaigns {
            let c = campaign.lock().expect("campaign lock");
            if c.tenant == tenant && c.unfinished() {
                unfinished += 1;
                in_flight_visits += c.spec.jobs.len();
                if c.spec.crawl == spec.crawl && c.spec.os == spec.os {
                    return Err(AdmissionError::DuplicateCampaign(format!(
                        "{}/{}",
                        spec.crawl.as_str(),
                        spec.os.name()
                    )));
                }
            }
        }
        if unfinished >= t.quota.max_campaigns {
            return Err(AdmissionError::CampaignQuotaExceeded {
                limit: t.quota.max_campaigns,
            });
        }
        if in_flight_visits.saturating_add(spec.jobs.len()) > t.quota.max_inflight_visits {
            return Err(AdmissionError::VisitQuotaExceeded {
                limit: t.quota.max_inflight_visits,
                in_flight: in_flight_visits,
                requested: spec.jobs.len(),
            });
        }
        Ok(())
    }

    /// One scheduling round: run one job for each of up to `workers`
    /// runnable campaigns (least progressed first, admission order
    /// breaking ties) in parallel, then apply results serially in
    /// selection order. Returns false when nothing was runnable.
    pub fn step(&mut self) -> bool {
        let mut runnable: Vec<(u64, u64)> = Vec::new();
        for campaign in &self.campaigns {
            let c = campaign.lock().expect("campaign lock");
            if c.runnable() {
                runnable.push((c.rounds, c.id));
            }
        }
        if runnable.is_empty() {
            return false;
        }
        runnable.sort_unstable();
        let selected: Vec<u64> = runnable
            .into_iter()
            .take(self.config.workers.max(1))
            .map(|(_, id)| id)
            .collect();
        // Execute: one job per selected campaign, in parallel. Each
        // job locks a distinct campaign, so campaign state stays
        // serial per campaign — the determinism boundary.
        let (campaigns, store) = (&self.campaigns, &self.store);
        par_indexed(
            selected.len(),
            selected.len(),
            |_| (),
            |_, i| {
                let mut c = campaigns[selected[i] as usize]
                    .lock()
                    .expect("campaign lock");
                run_campaign_job(&mut c, store);
            },
        );
        // Apply serially, in selection order: queue verdicts, deadline
        // checks, phase transitions. Selection order is deterministic
        // (sorted above), so every counter below is too.
        for &id in &selected {
            self.apply_round(id);
        }
        true
    }

    fn apply_round(&mut self, id: u64) {
        let mut c = self.campaigns[id as usize].lock().expect("campaign lock");
        let Some(round) = c.round.take() else {
            return;
        };
        c.status = CampaignStatus::Running;
        c.rounds += 1;
        c.consumed_ms += round.cost_ms;
        c.updates += 1;
        // Service-path fault draws are keyed by the update's identity
        // (domain + pass), never by schedule.
        let pass_attempt = match round.pass {
            UpdatePass::Pool => 0,
            UpdatePass::Recrawl => 1,
        };
        let stall =
            if self
                .config
                .faults
                .injects(Fault::SlowConsumer, &round.record.domain, pass_attempt)
            {
                self.config.slow_consumer_stall_ms
            } else {
                0
            };
        let forced =
            self.config
                .faults
                .injects(Fault::QueueOverflow, &round.record.domain, pass_attempt);
        let arrival = c.consumed_ms;
        let verdict = c.model.on_arrival(arrival, stall, forced);
        if verdict == QueueVerdict::Shed {
            c.updates_shed += 1;
        } else {
            // The physical push may block — that is the backpressure
            // working, and it never changes what gets aggregated.
            self.queue.push(Update::Visit {
                campaign: c.id,
                record: round.record,
                pass: round.pass,
            });
        }
        // Deadline budget: cooperative cancellation after the
        // in-flight job drains.
        if let Some(deadline) = c.spec.deadline_ms {
            if c.consumed_ms > deadline {
                c.shed_jobs = c.remaining_jobs();
                c.status = CampaignStatus::DeadlineExceeded;
                c.phase = Phase::Done;
                if let Some(journal) = &c.journal {
                    // No checkpoint: the journal stays a resumable
                    // partial campaign.
                    journal.sync();
                }
                return;
            }
        }
        // Phase transitions.
        if c.phase == Phase::Pool && c.next_job == c.spec.jobs.len() {
            let mut queue = std::mem::take(&mut c.parked);
            queue.sort_by(|a, b| {
                c.spec.jobs[*a]
                    .site
                    .domain
                    .as_str()
                    .cmp(c.spec.jobs[*b].site.domain.as_str())
            });
            if queue.is_empty() {
                self.complete(&mut c);
            } else {
                // The batch recrawl pass builds one world over its
                // whole queue; mirror that exactly.
                let sites: Vec<WebSite> =
                    queue.iter().map(|&i| c.spec.jobs[i].site.clone()).collect();
                c.recrawl_world = Some(World::build(&sites, c.spec.os, self.config.seed));
                c.recrawl_queue = queue;
                c.phase = Phase::Recrawl;
            }
        } else if c.phase == Phase::Recrawl && c.recrawl_pos == c.recrawl_queue.len() {
            self.complete(&mut c);
        }
    }

    fn complete(&self, c: &mut Campaign) {
        // Identical to the batch path: greedy schedule replay over the
        // pool costs at the campaign's nominal worker count, plus the
        // serial recrawl coda.
        let sched_workers = c.spec.nominal_workers.max(1).min(c.spec.jobs.len().max(1)) as u64;
        c.stats.makespan_ms = simulated_makespan(&c.costs, sched_workers) + c.recrawl_wall_ms;
        c.status = CampaignStatus::Completed;
        c.phase = Phase::Done;
        c.recrawl_world = None;
        if let Some(journal) = &c.journal {
            journal.append_checkpoint(&CheckpointFrame {
                crawl: c.spec.crawl.as_str().to_string(),
                os: c.spec.os.name().to_string(),
                completed: c
                    .spec
                    .jobs
                    .iter()
                    .map(|job| job.site.domain.as_str().to_string())
                    .collect(),
                stats: c.stats.to_bytes(),
            });
            journal.sync();
        }
    }

    /// Run every admitted campaign to completion (or deadline).
    pub fn run(&mut self) {
        while self.step() {}
        self.flush();
    }

    /// Stop admitting, finish nothing more, and mark every unfinished
    /// campaign [`CampaignStatus::Drained`]. In-flight work has
    /// already drained (rounds are synchronous); journals are synced
    /// and resumable.
    pub fn drain(&mut self) {
        self.draining = true;
        for campaign in &self.campaigns {
            let mut c = campaign.lock().expect("campaign lock");
            if c.unfinished() {
                c.status = CampaignStatus::Drained;
                c.phase = Phase::Done;
                c.recrawl_world = None;
                if let Some(journal) = &c.journal {
                    journal.sync();
                }
            }
        }
        self.flush();
    }

    /// Wait until the consumer has absorbed everything enqueued so
    /// far — the barrier behind mid-flight snapshots.
    pub fn flush(&self) {
        let gate = Arc::new(FlushGate::default());
        if self.queue.push(Update::Flush(Arc::clone(&gate))) {
            gate.wait();
        }
    }

    /// A campaign's current status.
    pub fn status(&self, handle: CampaignHandle) -> Option<CampaignStatus> {
        self.campaigns
            .get(handle.0 as usize)
            .map(|c| c.lock().expect("campaign lock").status)
    }

    /// A campaign's crawl stats (makespan is set at completion).
    pub fn campaign_stats(&self, handle: CampaignHandle) -> Option<CrawlStats> {
        self.campaigns
            .get(handle.0 as usize)
            .map(|c| c.lock().expect("campaign lock").stats.clone())
    }

    /// Updates shed for one campaign so far.
    pub fn campaign_updates_shed(&self, handle: CampaignHandle) -> u64 {
        self.campaigns
            .get(handle.0 as usize)
            .map(|c| c.lock().expect("campaign lock").updates_shed)
            .unwrap_or(0)
    }

    /// Mid-flight tables: flush the queue and assemble the campaign's
    /// online partial over everything aggregated so far.
    pub fn snapshot(&self, handle: CampaignHandle) -> Option<CrawlAnalysis> {
        self.flush();
        self.aggregators
            .lock()
            .expect("aggregator lock")
            .get(&handle.0)
            .map(OnlinePartial::assemble)
    }

    /// Final tables for a campaign. When no updates were shed this is
    /// the online aggregate; otherwise it reconciles from the store
    /// (every record reached the store regardless of shedding), so the
    /// answer is byte-identical to the batch analyzer either way.
    pub fn final_analysis(&self, handle: CampaignHandle) -> Option<CrawlAnalysis> {
        let c = self.campaigns.get(handle.0 as usize)?;
        let (crawl, os, shed) = {
            let c = c.lock().expect("campaign lock");
            (c.spec.crawl.clone(), c.spec.os, c.updates_shed)
        };
        if shed == 0 {
            if let Some(analysis) = self.snapshot(handle) {
                return Some(analysis);
            }
        }
        let records = self.store.crawl_records_on(&crawl, os);
        Some(OnlinePartial::from_records(&records).assemble())
    }

    /// The shared telemetry store (all campaigns, all tenants).
    pub fn store(&self) -> &TelemetryStore {
        &self.store
    }

    /// A campaign's online partial as aggregated so far (flushes the
    /// queue first). Partials from different campaigns merge — the
    /// study driver merges one crawl's per-OS campaigns into the
    /// whole-crawl analysis.
    pub fn partial(&self, handle: CampaignHandle) -> Option<OnlinePartial> {
        self.flush();
        self.aggregators
            .lock()
            .expect("aggregator lock")
            .get(&handle.0)
            .cloned()
    }

    /// Shut the service down and take the telemetry store out of it.
    pub fn into_store(mut self) -> TelemetryStore {
        std::mem::replace(&mut self.store, TelemetryStore::new())
    }

    /// Deterministic per-tenant accounting, in tenant-name order.
    pub fn accounting(&self) -> Vec<TenantAccounting> {
        let mut out: Vec<TenantAccounting> = self
            .tenants
            .iter()
            .map(|(name, t)| TenantAccounting {
                tenant: name.clone(),
                admitted: t.admitted,
                rejected: t.rejected.clone(),
                completed: 0,
                shed: 0,
                drained: 0,
                in_flight: 0,
                updates: 0,
                updates_shed: 0,
                queue_blocks: 0,
                queue_high_water: 0,
            })
            .collect();
        for campaign in &self.campaigns {
            let c = campaign.lock().expect("campaign lock");
            let Some(acc) = out.iter_mut().find(|a| a.tenant == c.tenant) else {
                continue;
            };
            match c.status {
                CampaignStatus::Completed => acc.completed += 1,
                CampaignStatus::DeadlineExceeded => acc.shed += 1,
                CampaignStatus::Drained => acc.drained += 1,
                CampaignStatus::Queued | CampaignStatus::Running => acc.in_flight += 1,
            }
            acc.updates += c.updates;
            acc.updates_shed += c.updates_shed;
            acc.queue_blocks += c.model.blocks;
            acc.queue_high_water = acc.queue_high_water.max(c.model.high_water);
        }
        out
    }

    /// Export the service counters and gauges into a [`Trace`]. All
    /// values derive from the deterministic accounting state — never
    /// from the physical queue — so the rendered exposition text is
    /// byte-identical across worker counts.
    pub fn record_metrics(&self, trace: &Trace) {
        for acc in self.accounting() {
            let tenant = Labels::new(&[("tenant", &acc.tenant)]);
            trace.inc_counter(names::SERVICE_ADMITTED_TOTAL, tenant.clone(), acc.admitted);
            for (reason, n) in &acc.rejected {
                trace.inc_counter(
                    names::SERVICE_REJECTED_TOTAL,
                    Labels::new(&[("tenant", &acc.tenant), ("reason", reason)]),
                    *n,
                );
            }
            trace.inc_counter(
                names::SERVICE_COMPLETED_TOTAL,
                tenant.clone(),
                acc.completed,
            );
            trace.inc_counter(names::SERVICE_SHED_TOTAL, tenant.clone(), acc.shed);
            trace.inc_counter(names::SERVICE_DRAINED_TOTAL, tenant.clone(), acc.drained);
            trace.inc_counter(names::SERVICE_UPDATES_TOTAL, tenant.clone(), acc.updates);
            trace.inc_counter(
                names::SERVICE_UPDATES_SHED_TOTAL,
                tenant.clone(),
                acc.updates_shed,
            );
            trace.inc_counter(
                names::SERVICE_QUEUE_BLOCKS_TOTAL,
                tenant.clone(),
                acc.queue_blocks,
            );
            trace.set_gauge(
                names::SERVICE_QUEUE_DEPTH,
                tenant,
                acc.queue_high_water as f64,
            );
        }
    }
}

impl Drop for CampaignService {
    fn drop(&mut self) {
        self.queue.close();
        if let Some(consumer) = self.consumer.take() {
            let _ = consumer.join();
        }
    }
}

/// Run one job of one campaign — the executor body. Campaign state is
/// locked by the caller; everything here is campaign-serial.
fn run_campaign_job(c: &mut Campaign, store: &TelemetryStore) {
    match c.phase {
        Phase::Pool => {
            let index = c.next_job;
            let Campaign {
                spec,
                cfg,
                checker,
                stats,
                pool_wall_ms,
                journal,
                costs,
                parked,
                ..
            } = c;
            let job = CrawlJob {
                site: &spec.jobs[index].site,
                malicious_category: spec.jobs[index].malicious_category,
            };
            let end = run_pool_job(
                &job,
                cfg,
                store,
                journal.as_ref(),
                checker,
                stats,
                pool_wall_ms,
                0,
                None,
            );
            costs[index] = end.cost_ms;
            if end.parked {
                parked.push(index);
            }
            c.next_job += 1;
            c.round = Some(RoundOutcome {
                record: end.record,
                pass: UpdatePass::Pool,
                cost_ms: end.cost_ms,
            });
        }
        Phase::Recrawl => {
            let index = c.recrawl_queue[c.recrawl_pos];
            let before_wall = c.recrawl_wall_ms;
            let Campaign {
                spec,
                cfg,
                recrawl_world,
                recrawl_checker,
                stats,
                recrawl_wall_ms,
                journal,
                ..
            } = c;
            let job = CrawlJob {
                site: &spec.jobs[index].site,
                malicious_category: spec.jobs[index].malicious_category,
            };
            let record = run_recrawl_job(
                &job,
                cfg,
                store,
                journal.as_ref(),
                recrawl_world.as_mut().expect("recrawl world built"),
                recrawl_checker,
                stats,
                recrawl_wall_ms,
                None,
            );
            let cost_ms = c.recrawl_wall_ms - before_wall;
            c.recrawl_pos += 1;
            c.round = Some(RoundOutcome {
                record,
                pass: UpdatePass::Recrawl,
                cost_ms,
            });
        }
        Phase::Done => {}
    }
}

/// Suggested deadline for a campaign of `jobs` visits at `workers`
/// nominal workers, with `slack` extra visit slots of headroom —
/// convenience for tests and the CLI's overload sweeps.
pub fn deadline_for(jobs: usize, workers: usize, slack: u64) -> u64 {
    // Campaign-serial consumption: every visit costs at least one wall
    // slot regardless of nominal parallelism.
    let _ = workers;
    (jobs as u64 + slack) * VISIT_WALL_MS
}
