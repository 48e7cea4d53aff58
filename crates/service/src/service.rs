//! The resident campaign service: many concurrent campaigns, one
//! scheduler, deterministic degradation.
//!
//! # Execution model
//!
//! The service multiplexes admitted campaigns over a pool of executor
//! slots in *batch-synchronous rounds*: each round picks up to
//! `workers` distinct runnable campaigns (least-progressed first,
//! admission order breaking ties) and runs **one job per campaign** in
//! parallel on `par_indexed`. The same executor body then applies the
//! round to its own campaign: queue verdict, online aggregation,
//! deadline check, phase transition. The campaign is the determinism
//! boundary — within a campaign every visit, cost, journal frame and
//! aggregated update lands in the same serial order whatever the
//! worker count; parallelism comes from multiplexing *across*
//! campaigns, whose states are disjoint. That is why the shed set, the
//! stats, the tables, the journals, and the Prometheus export are all
//! byte-identical across 1/2/4/8 workers — the acceptance criterion
//! the overload tests pin.
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
//!   shed (counted loss). A delivered update is folded into the
//!   campaign's own [`OnlinePartial`]; a shed one never reaches it.
//!
//! Visit records always reach the store (the pool job appends before
//! the queue verdict), so even a campaign with shed updates can
//! reconcile its final tables from the store at drain.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

use kt_analysis::online::{OnlinePartial, UpdatePass};
use kt_analysis::par::CrawlAnalysis;
use kt_browser::World;
use kt_crawler::crawl::{run_pool_job, run_recrawl_job, simulated_makespan, CrawlConfig, CrawlJob};
use kt_crawler::CrawlStats;
use kt_faults::{Fault, FaultPlan};
use kt_netbase::Os;
use kt_simnet::connectivity::ConnectivityChecker;
use kt_store::journal::{JournalError, JournalWriter};
use kt_store::{Bytes, CheckpointFrame, CrawlId, TelemetryStore, VisitRecord};
use kt_trace::{names, par_indexed, Labels, Trace};
use kt_webgen::WebSite;

use crate::admission::{AdmissionError, TenantQuota};
use crate::queue::{OverflowPolicy, QueueModel, QueueVerdict};

/// Service-wide configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Simulation seed (worlds, faults, backoff jitter).
    pub seed: u64,
    /// Executor slots per scheduling round — real parallelism across
    /// campaigns. Never changes any result, only wall time.
    pub workers: usize,
    /// Capacity of each campaign's modeled result queue.
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

/// One job's output, applied to its campaign by the same executor.
struct RoundOutcome {
    record: VisitRecord,
    /// The record's encoding, as the store appended it.
    encoded: Bytes,
    pass: UpdatePass,
    cost_ms: u64,
}

struct Campaign {
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
    /// Every delivered update folded in; `None` until the first one.
    partial: Option<OnlinePartial>,
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

/// The resident multi-tenant campaign service.
pub struct CampaignService {
    config: ServiceConfig,
    store: TelemetryStore,
    tenants: BTreeMap<String, Tenant>,
    campaigns: Vec<Mutex<Campaign>>,
    draining: bool,
}

impl CampaignService {
    /// Start a service with no tenants and no campaigns.
    pub fn new(config: ServiceConfig) -> CampaignService {
        CampaignService {
            config,
            store: TelemetryStore::new(),
            tenants: BTreeMap::new(),
            campaigns: Vec::new(),
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
    /// never timing. With a journal directory configured, a campaign
    /// whose journal cannot be created is refused with
    /// [`AdmissionError::JournalUnavailable`].
    pub fn submit(
        &mut self,
        tenant: &str,
        spec: CampaignSpec,
    ) -> Result<CampaignHandle, AdmissionError> {
        let verdict = self
            .admit(tenant, &spec)
            .and_then(|()| self.open_journal(tenant, &spec));
        if let Some(t) = self.tenants.get_mut(tenant) {
            match &verdict {
                Ok(_) => t.admitted += 1,
                Err(e) => *t.rejected.entry(e.reason()).or_insert(0) += 1,
            }
        }
        let journal = verdict?;
        let id = self.campaigns.len() as u64;
        let tenant_state = self.tenants.get(tenant).expect("admitted tenant exists");
        let mut cfg = CrawlConfig::paper(spec.crawl.clone(), spec.os, self.config.seed);
        cfg.workers = spec.nominal_workers;
        cfg.faults = self.config.faults.clone();
        let jobs = spec.jobs.len();
        let outages = cfg.outages.clone();
        self.campaigns.push(Mutex::new(Campaign {
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
            partial: None,
            spec,
        }));
        Ok(CampaignHandle(id))
    }

    /// Create `<journal_dir>/<tenant>/<crawl>-<os>.ktj`, or `None`
    /// when the service journals nothing.
    fn open_journal(
        &self,
        tenant: &str,
        spec: &CampaignSpec,
    ) -> Result<Option<JournalWriter>, AdmissionError> {
        let Some(dir) = &self.config.journal_dir else {
            return Ok(None);
        };
        let dir = dir.join(tenant);
        let path = dir.join(format!("{}-{}.ktj", spec.crawl.as_str(), spec.os.name()));
        std::fs::create_dir_all(&dir)
            .map_err(JournalError::from)
            .and_then(|()| JournalWriter::create(&path))
            .map(Some)
            .map_err(|e| AdmissionError::JournalUnavailable {
                path,
                error: e.to_string(),
            })
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
    /// breaking ties) in parallel, each executor applying its job's
    /// result to its own campaign. Returns false when nothing was
    /// runnable.
    pub fn step(&mut self) -> bool {
        let mut runnable: Vec<(u64, usize)> = Vec::new();
        for (id, campaign) in self.campaigns.iter().enumerate() {
            let c = campaign.lock().expect("campaign lock");
            if c.runnable() {
                runnable.push((c.rounds, id));
            }
        }
        if runnable.is_empty() {
            return false;
        }
        runnable.sort_unstable();
        let selected: Vec<usize> = runnable
            .into_iter()
            .take(self.config.workers.max(1))
            .map(|(_, id)| id)
            .collect();
        // One job per selected campaign, in parallel. Each executor
        // locks a distinct campaign and applies the round to it alone
        // (queue verdict, aggregation, deadline, phase), so campaign
        // state stays serial per campaign: the determinism boundary.
        let (config, campaigns, store) = (&self.config, &self.campaigns, &self.store);
        par_indexed(
            selected.len(),
            selected.len(),
            |_| (),
            |_, i| {
                let mut c = campaigns[selected[i]].lock().expect("campaign lock");
                if let Some(round) = run_campaign_job(&mut c, store) {
                    apply_round(config, &mut c, round);
                }
            },
        );
        true
    }

    /// Run every admitted campaign to completion (or deadline).
    pub fn run(&mut self) {
        while self.step() {}
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
    }

    /// A campaign's state, locked.
    fn campaign(&self, handle: CampaignHandle) -> Option<MutexGuard<'_, Campaign>> {
        let campaign = self.campaigns.get(handle.0 as usize)?;
        Some(campaign.lock().expect("campaign lock"))
    }

    /// A campaign's current status.
    pub fn status(&self, handle: CampaignHandle) -> Option<CampaignStatus> {
        self.campaign(handle).map(|c| c.status)
    }

    /// A campaign's crawl stats (makespan is set at completion).
    pub fn campaign_stats(&self, handle: CampaignHandle) -> Option<CrawlStats> {
        self.campaign(handle).map(|c| c.stats.clone())
    }

    /// Updates shed for one campaign so far.
    pub fn campaign_updates_shed(&self, handle: CampaignHandle) -> u64 {
        self.campaign(handle).map_or(0, |c| c.updates_shed)
    }

    /// Mid-flight tables: the campaign's online partial assembled over
    /// every update delivered so far. `None` before the first one.
    pub fn snapshot(&self, handle: CampaignHandle) -> Option<CrawlAnalysis> {
        self.campaign(handle)?
            .partial
            .as_ref()
            .map(OnlinePartial::assemble)
    }

    /// Final tables for a campaign. When no updates were shed this is
    /// the online aggregate; otherwise it reconciles from the store's
    /// encoded records (every record reached the store regardless of
    /// shedding), so the answer is byte-identical to the batch
    /// analyzer either way.
    pub fn final_analysis(&self, handle: CampaignHandle) -> Option<CrawlAnalysis> {
        let c = self.campaign(handle)?;
        match &c.partial {
            Some(partial) if c.updates_shed == 0 => Some(partial.assemble()),
            _ => {
                let mut partial = OnlinePartial::new();
                for shard in 0..self.store.shard_count() {
                    for encoded in self
                        .store
                        .shard_raw_on(&c.spec.crawl, shard, Some(c.spec.os))
                    {
                        partial.absorb(&encoded, UpdatePass::Recrawl);
                    }
                }
                Some(partial.assemble())
            }
        }
    }

    /// The shared telemetry store (all campaigns, all tenants).
    pub fn store(&self) -> &TelemetryStore {
        &self.store
    }

    /// A campaign's online partial as aggregated so far. Partials from
    /// different campaigns merge — the study driver merges one crawl's
    /// per-OS campaigns into the whole-crawl analysis.
    pub fn partial(&self, handle: CampaignHandle) -> Option<OnlinePartial> {
        self.campaign(handle)?.partial.clone()
    }

    /// Shut the service down and take the telemetry store out of it.
    pub fn into_store(self) -> TelemetryStore {
        self.store
    }

    /// The first campaign journal, in admission order, whose write or
    /// fsync failed, as [`JournalWriter::failure`] words it. A failed
    /// journal stops recording while its campaign runs on, so the
    /// journal is no longer a resumable record of the campaign.
    pub fn journal_failure(&self) -> Option<String> {
        self.campaigns.iter().find_map(|c| {
            let c = c.lock().expect("campaign lock");
            c.journal.as_ref().and_then(JournalWriter::failure)
        })
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
    /// values derive from the deterministic accounting state, so the
    /// rendered exposition text is byte-identical across worker counts.
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

/// Run one job of one campaign — the executor body. Campaign state is
/// locked by the caller; everything here is campaign-serial. `None`
/// when the campaign has nothing left to run.
fn run_campaign_job(c: &mut Campaign, store: &TelemetryStore) -> Option<RoundOutcome> {
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
            Some(RoundOutcome {
                record: end.record,
                encoded: end.encoded,
                pass: UpdatePass::Pool,
                cost_ms: end.cost_ms,
            })
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
            let (record, encoded) = run_recrawl_job(
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
            Some(RoundOutcome {
                record,
                encoded,
                pass: UpdatePass::Recrawl,
                cost_ms,
            })
        }
        Phase::Done => None,
    }
}

/// Apply one job's result to its campaign: clock, queue verdict,
/// aggregation, deadline budget, phase transition.
fn apply_round(config: &ServiceConfig, c: &mut Campaign, round: RoundOutcome) {
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
    let injects = |fault| {
        config
            .faults
            .injects(fault, &round.record.domain, pass_attempt)
    };
    let stall = if injects(Fault::SlowConsumer) {
        config.slow_consumer_stall_ms
    } else {
        0
    };
    let verdict = c
        .model
        .on_arrival(c.consumed_ms, stall, injects(Fault::QueueOverflow));
    if verdict == QueueVerdict::Shed {
        c.updates_shed += 1;
    } else {
        c.partial
            .get_or_insert_with(OnlinePartial::new)
            .absorb(&round.encoded, round.pass);
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
            complete(c);
        } else {
            // The batch recrawl pass builds one world over its
            // whole queue; mirror that exactly.
            let sites: Vec<WebSite> = queue.iter().map(|&i| c.spec.jobs[i].site.clone()).collect();
            c.recrawl_world = Some(World::build(&sites, c.spec.os, config.seed));
            c.recrawl_queue = queue;
            c.phase = Phase::Recrawl;
        }
    } else if c.phase == Phase::Recrawl && c.recrawl_pos == c.recrawl_queue.len() {
        complete(c);
    }
}

fn complete(c: &mut Campaign) {
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
