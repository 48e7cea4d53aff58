//! Service-level acceptance tests: batch equivalence, worker-count
//! invariance of the shed set under a fault storm, typed admission,
//! deadline budgets, accounting reconciliation, and drain/resume.

use kt_analysis::{analyze_crawl_par, CrawlAnalysis};
use kt_crawler::crawl::{
    run_crawl, run_crawl_with, CrawlConfig, CrawlJob, CrawlOpts, VISIT_WALL_MS,
};
use kt_crawler::split_campaigns;
use kt_netbase::{Os, OsSet};
use kt_service::{
    AdmissionError, CampaignHandle, CampaignService, CampaignSpec, CampaignStatus, OverflowPolicy,
    ServiceConfig, ServiceJob, TenantQuota,
};
use kt_store::journal::replay;
use kt_store::{CrawlId, TelemetryStore};
use kt_trace::Trace;
use kt_webgen::{Behavior, NativeApp, PlantedBehavior, PopulationConfig, WebPopulation, WebSite};

use kt_faults::{Fault, FaultPlan};

fn sites(seed: u64, skip: usize, take: usize) -> Vec<WebSite> {
    let population = WebPopulation::generate(PopulationConfig::test_scale(seed));
    population
        .sites2020
        .into_iter()
        .skip(skip)
        .take(take)
        .collect()
}

fn spec(crawl: &str, os: Os, sites: &[WebSite], nominal_workers: usize) -> CampaignSpec {
    CampaignSpec {
        crawl: CrawlId(crawl.to_string()),
        os,
        jobs: sites
            .iter()
            .map(|site| ServiceJob {
                site: site.clone(),
                malicious_category: None,
            })
            .collect(),
        deadline_ms: None,
        nominal_workers,
    }
}

fn batch_jobs(sites: &[WebSite]) -> Vec<CrawlJob<'_>> {
    sites.iter().map(CrawlJob::plain).collect()
}

#[test]
fn completed_campaign_matches_batch_tables_and_stats() {
    let seed = 41;
    let sites = sites(seed, 0, 20);
    let crawl = CrawlId("svc-batch".to_string());

    // Batch reference: the uninterrupted single-campaign pipeline.
    let mut batch_cfg = CrawlConfig::paper(crawl.clone(), Os::Linux, seed);
    batch_cfg.workers = 4;
    let batch_store = TelemetryStore::new();
    let batch_stats = run_crawl(&batch_jobs(&sites), &batch_cfg, &batch_store);
    let batch_analysis = analyze_crawl_par(&batch_store, &crawl, 4);

    // Service: same campaign through the resident scheduler, different
    // executor count than the campaign's nominal worker count.
    let mut config = ServiceConfig::new(seed);
    config.workers = 3;
    let mut service = CampaignService::new(config);
    service.register_tenant("paper", TenantQuota::unbounded(), OverflowPolicy::Block);
    let handle = service
        .submit("paper", spec("svc-batch", Os::Linux, &sites, 4))
        .expect("admitted");
    service.run();

    assert_eq!(service.status(handle), Some(CampaignStatus::Completed));
    assert_eq!(service.campaign_updates_shed(handle), 0);
    let service_stats = service.campaign_stats(handle).expect("stats");
    assert_eq!(
        service_stats.to_bytes(),
        batch_stats.to_bytes(),
        "campaign-serial service run must reproduce the batch stats, makespan included"
    );
    let analysis = service.final_analysis(handle).expect("analysis");
    assert_eq!(analysis, batch_analysis);
    // The store ends up with the same records too.
    assert_eq!(
        service.store().crawl_records(&crawl).len(),
        batch_store.crawl_records(&crawl).len()
    );
}

#[test]
fn mid_flight_snapshot_tracks_the_store_prefix() {
    let seed = 43;
    let sites = sites(seed, 30, 8);
    let mut config = ServiceConfig::new(seed);
    config.workers = 2;
    let mut service = CampaignService::new(config);
    service.register_tenant("paper", TenantQuota::unbounded(), OverflowPolicy::Block);
    let handle = service
        .submit("paper", spec("svc-snap", Os::Windows, &sites, 2))
        .expect("admitted");

    for steps_done in 1..=3 {
        assert!(service.step());
        let snapshot = service.snapshot(handle).expect("snapshot");
        assert_eq!(snapshot.visits, steps_done);
        let crawl = CrawlId("svc-snap".to_string());
        assert_eq!(
            snapshot,
            analyze_crawl_par(service.store(), &crawl, 2),
            "mid-flight snapshot must equal an analysis of the store prefix"
        );
    }
    service.run();
    assert_eq!(service.status(handle), Some(CampaignStatus::Completed));
}

/// The storm fixture's service seed.
const STORM_SEED: u64 = 77;

/// The storm fixture's fault plan: every service and crawl fault class.
fn storm_faults() -> FaultPlan {
    FaultPlan::none(STORM_SEED)
        .with_rate(Fault::QueueOverflow, 0.35)
        .with_rate(Fault::SlowConsumer, 0.35)
        .with_rate(Fault::DnsFlap, 0.25)
        .with_rate(Fault::ConnectionReset, 0.20)
        .with_rate(Fault::WorkerPanic, 0.15)
}

/// The storm fixture: three tenants, mixed policies, over-quota
/// submissions, a deadline campaign, and every service + crawl fault
/// class firing at once. One site of the unshed Block-policy campaign
/// probes a native app on localhost, so the completed tables the
/// worker-count check compares hold local activity.
fn storm_service(workers: usize) -> (CampaignService, Vec<CampaignHandle>) {
    let mut config = ServiceConfig::new(STORM_SEED);
    config.workers = workers;
    config.queue_capacity = 2;
    config.drain_ms_per_update = 60_000;
    config.slow_consumer_stall_ms = 120_000;
    config.faults = storm_faults();
    let mut service = CampaignService::new(config);
    service.register_tenant("acme", TenantQuota::unbounded(), OverflowPolicy::Block);
    service.register_tenant(
        "umbrella",
        TenantQuota {
            max_campaigns: 2,
            max_inflight_visits: 40,
        },
        OverflowPolicy::Shed,
    );
    service.register_tenant(
        "initech",
        TenantQuota {
            max_campaigns: 4,
            max_inflight_visits: 10,
        },
        OverflowPolicy::Shed,
    );

    let mut acme_sites = sites(7, 0, 8);
    acme_sites[0].behaviors.push(PlantedBehavior {
        behavior: Behavior::NativeApp(NativeApp::Faceit),
        os_set: OsSet::ALL,
        base_delay_ms: 4_000,
    });
    let mut handles = Vec::new();
    handles.push(
        service
            .submit("acme", spec("acme-a", Os::Linux, &acme_sites, 2))
            .expect("acme-a admitted"),
    );
    let mut deadline = spec("acme-b", Os::Windows, &sites(7, 8, 8), 2);
    deadline.deadline_ms = Some(3 * VISIT_WALL_MS + 1_000);
    handles.push(service.submit("acme", deadline).expect("acme-b admitted"));
    handles.push(
        service
            .submit("umbrella", spec("umb-a", Os::MacOs, &sites(7, 16, 6), 4))
            .expect("umb-a admitted"),
    );
    handles.push(
        service
            .submit("umbrella", spec("umb-b", Os::Linux, &sites(7, 22, 6), 4))
            .expect("umb-b admitted"),
    );
    // Over quota: umbrella is at its campaign limit.
    assert_eq!(
        service.submit("umbrella", spec("umb-c", Os::Linux, &sites(7, 28, 2), 1)),
        Err(AdmissionError::CampaignQuotaExceeded { limit: 2 })
    );
    handles.push(
        service
            .submit("initech", spec("ini-a", Os::Windows, &sites(7, 30, 8), 1))
            .expect("ini-a admitted"),
    );
    // Over quota: initech has 8 of 10 visit slots in flight.
    assert_eq!(
        service.submit("initech", spec("ini-b", Os::MacOs, &sites(7, 38, 8), 1)),
        Err(AdmissionError::VisitQuotaExceeded {
            limit: 10,
            in_flight: 8,
            requested: 8,
        })
    );
    (service, handles)
}

/// Per-campaign slice of the fingerprint: status, updates shed, the
/// serialized stats, and a completed campaign's final tables.
type CampaignFingerprint = (CampaignStatus, u64, Vec<u8>, Option<CrawlAnalysis>);

/// Everything the acceptance criterion byte-compares across worker
/// counts: statuses, shed counts, stats, completed campaigns' tables,
/// accounting, and the rendered Prometheus exposition.
fn storm_fingerprint(workers: usize) -> (Vec<CampaignFingerprint>, String, String) {
    let (mut service, handles) = storm_service(workers);
    service.run();
    let campaigns = handles
        .iter()
        .map(|&h| {
            let status = service.status(h).expect("status");
            (
                status,
                service.campaign_updates_shed(h),
                service.campaign_stats(h).expect("stats").to_bytes(),
                (status == CampaignStatus::Completed)
                    .then(|| service.final_analysis(h).expect("analysis")),
            )
        })
        .collect();
    let accounting = format!("{:?}", service.accounting());
    let trace = Trace::new();
    service.record_metrics(&trace);
    (campaigns, accounting, trace.export_prometheus())
}

#[test]
fn fault_storm_degrades_identically_across_worker_counts() {
    let baseline = storm_fingerprint(1);
    // The storm actually stormed: something shed, the deadline fired,
    // nothing panicked (we got here), and the books balance.
    let total_shed: u64 = baseline.0.iter().map(|(_, shed, _, _)| *shed).sum();
    assert!(total_shed > 0, "storm must shed at least one update");
    assert_eq!(baseline.0[1].0, CampaignStatus::DeadlineExceeded);
    assert!(
        baseline
            .0
            .iter()
            .filter(|(status, _, _, _)| *status == CampaignStatus::Completed)
            .count()
            >= 3,
        "most campaigns still complete under the storm"
    );
    // The tables compared are not empty: acme-a completed unshed, so
    // its tables come from the online aggregate, and they hold the
    // planted localhost probe.
    let (status, shed, _, acme_a) = &baseline.0[0];
    assert_eq!((*status, *shed), (CampaignStatus::Completed, 0));
    assert!(
        acme_a.as_ref().is_some_and(|a| !a.sites.is_empty()),
        "acme-a's tables must hold its planted local activity"
    );
    for workers in [2, 4, 8] {
        let run = storm_fingerprint(workers);
        assert_eq!(
            run.0, baseline.0,
            "shed set and tables must not depend on workers={workers}"
        );
        assert_eq!(
            run.1, baseline.1,
            "accounting must not depend on workers={workers}"
        );
        assert_eq!(
            run.2, baseline.2,
            "metrics must not depend on workers={workers}"
        );
    }
}

#[test]
fn storm_accounting_reconciles_and_counts_rejections() {
    let (mut service, _) = storm_service(2);
    service.run();
    let accounting = service.accounting();
    assert_eq!(accounting.len(), 3);
    for tenant in &accounting {
        assert!(
            tenant.reconciles(),
            "admitted == completed + shed + drained + in_flight for {}: {tenant:?}",
            tenant.tenant
        );
        assert_eq!(tenant.in_flight, 0, "run() drains all work");
    }
    let umbrella = &accounting[2];
    assert_eq!(umbrella.tenant, "umbrella");
    assert_eq!(umbrella.admitted, 2);
    assert_eq!(umbrella.rejected.get("campaign-quota"), Some(&1));
    let initech = &accounting[1];
    assert_eq!(initech.tenant, "initech");
    assert_eq!(initech.rejected.get("visit-quota"), Some(&1));
    // Block tenants block; shed tenants shed.
    let acme = &accounting[0];
    assert_eq!(acme.tenant, "acme");
    assert_eq!(acme.updates_shed, 0, "Block policy never sheds");
    assert!(
        acme.queue_blocks > 0,
        "Block policy absorbs overflow as blocks"
    );
    assert!(
        umbrella.updates_shed + initech.updates_shed > 0,
        "Shed policy sheds under the storm"
    );
}

/// A Shed-policy campaign that completes after shedding updates builds
/// its final tables from the store's records, and they equal the batch
/// pipeline's over the same sites, OS, seed and faults.
#[test]
fn shed_campaigns_final_tables_equal_the_batch_pipeline() {
    let (mut service, handles) = storm_service(2);
    service.run();
    // The Shed-policy campaigns exactly as `storm_service` submits them.
    let shed_specs = [
        (handles[2], spec("umb-a", Os::MacOs, &sites(7, 16, 6), 4)),
        (handles[3], spec("umb-b", Os::Linux, &sites(7, 22, 6), 4)),
        (handles[4], spec("ini-a", Os::Windows, &sites(7, 30, 8), 1)),
    ];
    let mut compared = 0;
    for (handle, spec) in shed_specs {
        if service.status(handle) != Some(CampaignStatus::Completed)
            || service.campaign_updates_shed(handle) == 0
        {
            continue;
        }
        let sites: Vec<WebSite> = spec.jobs.into_iter().map(|j| j.site).collect();
        let mut config = CrawlConfig::paper(spec.crawl.clone(), spec.os, STORM_SEED);
        config.workers = spec.nominal_workers;
        config.faults = storm_faults();
        let batch_store = TelemetryStore::new();
        run_crawl(&batch_jobs(&sites), &config, &batch_store);
        assert_eq!(
            service.final_analysis(handle),
            Some(analyze_crawl_par(&batch_store, &spec.crawl, 2)),
            "{} shed updates, yet its final tables must match the batch pipeline",
            spec.crawl.as_str()
        );
        compared += 1;
    }
    assert!(
        compared > 0,
        "a Shed-policy campaign must complete after shedding"
    );
}

#[test]
fn admission_errors_are_typed_and_deterministic() {
    let mut service = CampaignService::new(ServiceConfig::new(5));
    service.register_tenant(
        "t",
        TenantQuota {
            max_campaigns: 1,
            max_inflight_visits: 4,
        },
        OverflowPolicy::Block,
    );
    let sites = sites(5, 0, 6);
    assert_eq!(
        service.submit("ghost", spec("c", Os::Linux, &sites[..1], 1)),
        Err(AdmissionError::UnknownTenant("ghost".to_string()))
    );
    assert_eq!(
        service.submit("t", spec("c", Os::Linux, &[], 1)),
        Err(AdmissionError::EmptyCampaign)
    );
    assert_eq!(
        service.submit("t", spec("big", Os::Linux, &sites, 1)),
        Err(AdmissionError::VisitQuotaExceeded {
            limit: 4,
            in_flight: 0,
            requested: 6,
        })
    );
    let first = service
        .submit("t", spec("c", Os::Linux, &sites[..2], 1))
        .expect("admitted");
    assert_eq!(
        service.submit("t", spec("c", Os::Linux, &sites[2..4], 1)),
        Err(AdmissionError::DuplicateCampaign("c/Linux".to_string()))
    );
    assert_eq!(
        service.submit("t", spec("d", Os::Linux, &sites[2..4], 1)),
        Err(AdmissionError::CampaignQuotaExceeded { limit: 1 })
    );
    // Quota frees up once the admitted campaign finishes.
    service.run();
    assert_eq!(service.status(first), Some(CampaignStatus::Completed));
    let second = service
        .submit("t", spec("d", Os::Linux, &sites[2..4], 1))
        .expect("quota freed");
    service.run();
    assert_eq!(service.status(second), Some(CampaignStatus::Completed));
    // A draining service admits nothing.
    service.drain();
    assert_eq!(
        service.submit("t", spec("e", Os::Linux, &sites[..1], 1)),
        Err(AdmissionError::Draining)
    );
}

#[test]
fn deadline_budget_cancels_cooperatively() {
    let seed = 11;
    let sites = sites(seed, 0, 5);
    let mut service = CampaignService::new(ServiceConfig::new(seed));
    service.register_tenant("t", TenantQuota::unbounded(), OverflowPolicy::Block);
    let mut spec = spec("budgeted", Os::MacOs, &sites, 1);
    spec.deadline_ms = Some(VISIT_WALL_MS + 1);
    let handle = service.submit("t", spec).expect("admitted");
    service.run();
    assert_eq!(
        service.status(handle),
        Some(CampaignStatus::DeadlineExceeded)
    );
    let accounting = service.accounting();
    assert_eq!(accounting[0].shed, 1);
    assert!(accounting[0].reconciles());
    // The in-flight jobs drained into the store before cancellation.
    let crawl = CrawlId("budgeted".to_string());
    let drained = service.store().crawl_records_on(&crawl, Os::MacOs).len();
    assert!(drained >= 1 && drained < sites.len());
}

#[test]
fn drained_campaign_resumes_to_batch_identical_tables() {
    let seed = 19;
    let sites = sites(seed, 50, 10);
    let crawl = CrawlId("svc-resume".to_string());
    let dir = std::env::temp_dir().join(format!("kt-service-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut config = ServiceConfig::new(seed);
    config.workers = 1;
    config.journal_dir = Some(dir.clone());
    let mut service = CampaignService::new(config);
    service.register_tenant("paper", TenantQuota::unbounded(), OverflowPolicy::Block);
    let handle = service
        .submit("paper", spec("svc-resume", Os::MacOs, &sites, 2))
        .expect("admitted");
    for _ in 0..4 {
        assert!(service.step());
    }
    service.drain();
    assert_eq!(service.status(handle), Some(CampaignStatus::Drained));
    drop(service);

    // Resume from the journal through the batch resume machinery.
    let journal_path = dir.join("paper").join("svc-resume-Mac.ktj");
    let report = replay(&journal_path).expect("journal replays");
    let campaigns = split_campaigns(&report.visits, &report.checkpoints);
    let campaign = campaigns
        .get(&("svc-resume".to_string(), "Mac".to_string()))
        .expect("drained campaign present");
    let jobs = batch_jobs(&sites);
    let plan = campaign.plan(&jobs);
    let mut cfg = CrawlConfig::paper(crawl.clone(), Os::MacOs, seed);
    cfg.workers = 2;
    let resumed_stats = run_crawl_with(
        &jobs,
        &cfg,
        &report.store,
        CrawlOpts {
            resume: Some(&plan),
            ..CrawlOpts::default()
        },
    );

    // Uninterrupted batch reference.
    let batch_store = TelemetryStore::new();
    let batch_stats = run_crawl(&jobs, &cfg, &batch_store);
    assert_eq!(resumed_stats.to_bytes(), batch_stats.to_bytes());
    assert_eq!(
        analyze_crawl_par(&report.store, &crawl, 2),
        analyze_crawl_par(&batch_store, &crawl, 2),
        "drained-then-resumed tables must be byte-identical to batch"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
