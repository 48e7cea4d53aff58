//! The full study: population → eight crawls → telemetry → analysis.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use kt_analysis::detect::SiteLocalActivity;
use kt_analysis::par::{analyze_crawl_traced, CrawlAnalysis};
use kt_crawler::{
    run_crawl_with, set_stats_gauges, split_campaigns, stats_sink, CampaignReplay, CrawlConfig,
    CrawlJob, CrawlOpts, CrawlStats,
};
use kt_netbase::Os;
use kt_store::{
    replay, CheckpointFrame, CrawlId, JournalError, JournalMeta, JournalStats, JournalWriter,
    ReplayReport, TelemetryStore,
};
use kt_trace::{names, Labels, StageProfiler, Trace};
use kt_webgen::{PopulationConfig, WebPopulation};

/// Study configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StudyConfig {
    /// Population parameters (scale + seed).
    pub population: PopulationConfig,
    /// Crawl worker threads.
    pub workers: usize,
}

impl StudyConfig {
    /// Full paper scale (100K top list, ~145K malicious). Heavy:
    /// nearly a million simulated page visits.
    pub fn paper(seed: u64) -> StudyConfig {
        StudyConfig {
            population: PopulationConfig::paper_scale(seed),
            workers: 8,
        }
    }

    /// A fast configuration for examples and tests: every behaviour is
    /// planted at full count, but the quiet background population is
    /// smaller.
    pub fn quick(seed: u64) -> StudyConfig {
        StudyConfig {
            population: PopulationConfig::test_scale(seed),
            workers: 4,
        }
    }

    /// A mid-size configuration: large enough for the rate statistics
    /// of Tables 1–2 to stabilise, small enough to run in seconds.
    pub fn standard(seed: u64) -> StudyConfig {
        StudyConfig {
            population: PopulationConfig {
                seed,
                top_size: 10_000,
                malicious_size: 14_500,
                sensors: false,
            },
            workers: 8,
        }
    }
}

/// The paper's crawl campaigns: (crawl id, OSes crawled).
pub fn campaigns() -> Vec<(CrawlId, Vec<Os>)> {
    vec![
        (CrawlId::top2020(), vec![Os::Windows, Os::Linux, Os::MacOs]),
        // Logistics prevented the 2021 Mac crawl (§3.2, fn. 3).
        (CrawlId::top2021(), vec![Os::Windows, Os::Linux]),
        (
            CrawlId::malicious(),
            vec![Os::Windows, Os::Linux, Os::MacOs],
        ),
    ]
}

/// A completed study.
pub struct Study {
    /// Configuration used.
    pub config: StudyConfig,
    /// The generated populations.
    pub population: WebPopulation,
    /// All telemetry.
    pub store: TelemetryStore,
    /// Per-(crawl, OS) crawl statistics.
    pub stats: BTreeMap<(String, Os), CrawlStats>,
    /// Per-campaign analysis, computed once by the parallel
    /// single-decode driver — every table and figure reads from here
    /// instead of re-decoding the store.
    pub analyses: BTreeMap<String, CrawlAnalysis>,
}

/// The job list of one campaign over a generated population.
fn campaign_jobs<'a>(population: &'a WebPopulation, crawl: &CrawlId) -> Vec<CrawlJob<'a>> {
    match crawl.as_str() {
        "top2020" => population.sites2020.iter().map(CrawlJob::plain).collect(),
        "top2021" => population.sites2021.iter().map(CrawlJob::plain).collect(),
        _ => population
            .malicious_sites
            .iter()
            .zip(&population.blocklist.entries)
            .map(|(site, entry)| CrawlJob {
                site,
                malicious_category: Some(kt_analysis::report::category_code(entry.category)),
            })
            .collect(),
    }
}

/// Record a journal writer's durability counters into the metrics
/// registry. Journal counters are *writer-owned*: a resumed study
/// reports only the frames its own process appended, so — unlike the
/// crawl counters — these legitimately differ between a baseline run
/// and a kill/resume cycle.
pub fn record_journal_stats(trace: &Trace, stats: &JournalStats) {
    let none = Labels::new(&[]);
    for (name, value) in [
        (names::JOURNAL_FRAMES_TOTAL, stats.frames),
        (names::JOURNAL_VISITS_TOTAL, stats.visits),
        (names::JOURNAL_CHECKPOINTS_TOTAL, stats.checkpoints),
        (names::JOURNAL_BYTES_TOTAL, stats.bytes),
        (names::JOURNAL_FSYNCS_TOTAL, stats.fsyncs),
        (names::JOURNAL_GROUP_COMMITS_TOTAL, stats.group_commits),
        (names::JOURNAL_GROUPED_FRAMES_TOTAL, stats.grouped_frames),
    ] {
        trace.inc_counter(name, none.clone(), value);
    }
    trace.set_gauge(
        names::JOURNAL_FRAMES_PER_FSYNC,
        none,
        stats.frames_per_fsync(),
    );
}

/// The optional machinery a study run can carry. None of it changes
/// the study: stats, store bytes, and every table are identical to a
/// plain run whatever is attached.
#[derive(Default)]
pub struct RunOpts<'a> {
    /// Write-ahead journal: campaign parameters are framed up front,
    /// every visit verdict as it lands, and a checkpoint (completed
    /// domains + the exact merged stats) after each `(crawl, OS)`
    /// campaign. Resume always appends to the journal it replayed, so
    /// resume functions take no journal here.
    pub journal: Option<&'a JournalWriter>,
    /// Metrics, spans, and events.
    pub trace: Option<&'a Trace>,
    /// Stage profiler: population generation, each campaign crawl, and
    /// each analysis become separate stages with element counts (sites
    /// or records) and, for crawls, the simulated makespan alongside
    /// real wall time.
    pub profiler: Option<&'a mut StageProfiler>,
}

impl RunOpts<'_> {
    /// Run `f`, as the profiler stage `name()` when a profiler is
    /// attached.
    pub(crate) fn stage<T>(&mut self, name: impl FnOnce() -> String, f: impl FnOnce() -> T) -> T {
        match self.profiler.as_deref_mut() {
            Some(profiler) => profiler.run(&name(), f),
            None => f(),
        }
    }

    /// Annotate the last profiled stage with its element count and,
    /// for crawls, its simulated makespan.
    pub(crate) fn annotate(&mut self, elements: u64, sim_ms: Option<u64>) {
        if let Some(profiler) = self.profiler.as_deref_mut() {
            profiler.annotate_elements(elements);
            if let Some(ms) = sim_ms {
                profiler.annotate_sim_ms(ms);
            }
        }
    }

    /// Run (or restore) one `(crawl, OS)` campaign of a journaled
    /// study. A checkpointed campaign restores its exact stats, a
    /// partial one re-runs only its missing visits, and a finished one
    /// is checkpointed. Returns `None` once the journal's kill switch
    /// has fired: the process is dead and the caller must stop.
    pub(crate) fn campaign(
        &mut self,
        cfg: &CrawlConfig,
        jobs: &[CrawlJob<'_>],
        store: &TelemetryStore,
        replayed: &BTreeMap<(String, String), CampaignReplay>,
    ) -> Option<CrawlStats> {
        let (journal, trace) = (self.journal, self.trace);
        if journal.is_some_and(|j| j.killed()) {
            return None;
        }
        let (crawl, os) = (&cfg.crawl, cfg.os);
        let campaign = replayed.get(&(crawl.as_str().to_string(), os.name().to_string()));
        if let Some(done) = campaign.and_then(|c| c.restored_stats()) {
            // The checkpoint *is* the campaign's merged tally, makespan
            // and connectivity included; its records arrived with the
            // replayed store. A checkpoint that outlived a corrupted
            // visit frame is not restorable — those campaigns fall
            // through to the frame-level plan and re-run the lost
            // sites.
            if let Some(t) = trace {
                // Seed counters from the restored tally, the same
                // derivation the crawl itself would have reported —
                // resume-invariance by construction.
                t.merge_sink(&stats_sink(crawl, os, &done));
                set_stats_gauges(t, crawl, os, &done);
            }
            return Some(done);
        }
        let plan = campaign.map(|c| c.plan(jobs));
        let crawl_opts = CrawlOpts {
            resume: plan.as_ref(),
            journal,
            trace,
        };
        let stats = self.stage(
            || format!("crawl:{}/{}", crawl.as_str(), os.name()),
            || run_crawl_with(jobs, cfg, store, crawl_opts),
        );
        self.annotate(stats.attempted as u64, Some(stats.makespan_ms));
        if let Some(j) = journal {
            if j.killed() {
                return None;
            }
            j.append_checkpoint(&CheckpointFrame {
                crawl: crawl.as_str().to_string(),
                os: os.name().to_string(),
                completed: jobs
                    .iter()
                    .map(|job| job.site.domain.as_str().to_string())
                    .collect(),
                stats: stats.to_bytes(),
            });
        }
        Some(stats)
    }

    /// Sync the journal, if any, and report its writer-owned counters.
    pub(crate) fn sync_journal(&self) {
        if let Some(j) = self.journal {
            j.sync();
            if let Some(t) = self.trace {
                record_journal_stats(t, &j.stats());
            }
        }
    }
}

/// The campaign parameters of a replayed study-engine journal, which
/// must start with a META frame. `kind` names the engine in the error.
pub(crate) fn study_meta(report: &ReplayReport, kind: &str) -> Result<JournalMeta, JournalError> {
    report.meta.ok_or_else(|| {
        JournalError::Io(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("journal has no campaign-parameters frame (not a {kind} journal)"),
        ))
    })
}

/// The I/O error that killed a resumed run's `journal`, if one did:
/// the run stopped early and its results are partial.
pub(crate) fn journal_intact(journal: &JournalWriter) -> Result<(), JournalError> {
    match journal.error() {
        Some(e) => Err(JournalError::Io(io::Error::other(e))),
        None => Ok(()),
    }
}

/// Record a snapshot save's [`kt_store::SaveReport`] as gauges.
pub fn record_save_report(trace: &Trace, report: &kt_store::SaveReport) {
    let none = Labels::new(&[]);
    trace.set_gauge(names::SAVE_RECORDS, none.clone(), report.records as f64);
    trace.set_gauge(names::SAVE_BYTES, none.clone(), report.bytes as f64);
    trace.set_gauge(names::SAVE_FSYNCS, none, report.fsyncs as f64);
}

impl Study {
    /// Generate the population and run every campaign.
    pub fn run(config: StudyConfig) -> Study {
        Study::run_with(config, RunOpts::default())
    }

    /// [`Study::run`] with an optional write-ahead journal. If the
    /// journal's kill switch fires mid-study the remaining campaigns
    /// are skipped — the returned `Study` then describes a dead
    /// process's partial world and exists only so test harnesses can
    /// drop it; [`Study::resume`] is the real continuation.
    pub fn run_journaled(config: StudyConfig, journal: Option<&JournalWriter>) -> Study {
        Study::run_with(
            config,
            RunOpts {
                journal,
                ..RunOpts::default()
            },
        )
    }

    /// [`Study::run`] under a journal, a trace, and/or a profiler.
    pub fn run_with(config: StudyConfig, opts: RunOpts<'_>) -> Study {
        if let Some(j) = opts.journal {
            j.append_meta(&JournalMeta {
                seed: config.population.seed,
                top_size: config.population.top_size as u64,
                malicious_size: config.population.malicious_size as u64,
                workers: config.workers as u64,
            });
        }
        Study::execute(config, TelemetryStore::new(), &BTreeMap::new(), opts)
    }

    /// [`Study::run`] through the resident campaign service: all eight
    /// `(crawl, OS)` campaigns are submitted to one
    /// [`kt_service::CampaignService`] as a single unbounded tenant
    /// and multiplexed over the service scheduler, with tables built
    /// by the online incremental aggregator instead of the end-of-run
    /// batch analyzer. Produces a `Study` whose stats, store, and
    /// analyses are identical to [`Study::run`] — the equivalence the
    /// service tests pin.
    #[cfg(test)]
    fn run_service(config: StudyConfig) -> Study {
        use kt_service::{CampaignService, CampaignSpec, OverflowPolicy, ServiceJob, TenantQuota};

        let population = WebPopulation::generate(config.population);
        let mut svc_config = kt_service::ServiceConfig::new(config.population.seed);
        svc_config.workers = config.workers.max(1);
        let mut service = CampaignService::new(svc_config);
        service.register_tenant("paper", TenantQuota::unbounded(), OverflowPolicy::Block);

        let mut handles = Vec::new();
        for (crawl, oses) in campaigns() {
            let jobs = campaign_jobs(&population, &crawl);
            for os in oses {
                let spec = CampaignSpec {
                    crawl: crawl.clone(),
                    os,
                    jobs: jobs
                        .iter()
                        .map(|job| ServiceJob {
                            site: job.site.clone(),
                            malicious_category: job.malicious_category,
                        })
                        .collect(),
                    deadline_ms: None,
                    nominal_workers: config.workers,
                };
                let handle = service.submit("paper", spec).expect("unbounded tenant");
                handles.push((crawl.as_str().to_string(), os, handle));
            }
        }
        service.run();

        let mut stats = BTreeMap::new();
        for (crawl, os, handle) in &handles {
            stats.insert(
                (crawl.clone(), *os),
                service.campaign_stats(*handle).expect("admitted campaign"),
            );
        }
        // One crawl's analysis is the merge of its per-OS campaign
        // partials — the online path all the way to the tables.
        let analyses = campaigns()
            .into_iter()
            .map(|(crawl, _)| {
                let mut merged = kt_analysis::OnlinePartial::new();
                for (name, _, handle) in &handles {
                    if name == crawl.as_str() {
                        merged.merge(service.partial(*handle).expect("completed campaign"));
                    }
                }
                (crawl.as_str().to_string(), merged.assemble())
            })
            .collect();
        Study {
            config,
            population,
            store: service.into_store(),
            stats,
            analyses,
        }
    }

    /// Resume a crashed [`Study::run_journaled`] from its journal.
    ///
    /// Replays the surviving frames, regenerates the identical
    /// deterministic population from the journaled parameters,
    /// restores checkpointed campaigns verbatim, re-runs only the
    /// missing visits of partial ones (appending to the same journal),
    /// and recomputes the analyses. For outage-free configurations the
    /// result — stats, store bytes, every table — is identical to the
    /// run that never crashed.
    pub fn resume(path: &Path) -> Result<Study, JournalError> {
        Study::resume_with(path, replay(path)?, RunOpts::default())
    }

    /// [`Study::resume`] from `report`, the [`replay`] of `path` (the
    /// journal is reopened from it, not read again), under a trace
    /// and/or a profiler. Counters for checkpoint-restored campaigns
    /// are seeded from their restored stats, so `visits_total` and
    /// friends match the run that never crashed; journal counters are
    /// writer-owned and count only this process's appends. The
    /// continuation always appends to the journal at `path`, so
    /// `opts.journal` must be `None`.
    pub fn resume_with(
        path: &Path,
        report: ReplayReport,
        opts: RunOpts<'_>,
    ) -> Result<Study, JournalError> {
        let meta = study_meta(&report, "study")?;
        let config = StudyConfig {
            population: PopulationConfig {
                seed: meta.seed,
                top_size: meta.top_size as usize,
                malicious_size: meta.malicious_size as usize,
                sensors: false,
            },
            workers: (meta.workers as usize).max(1),
        };
        debug_assert!(opts.journal.is_none(), "resume appends to `path`");
        let opened = JournalWriter::open_append(path, &report.summary)?;
        let opts = RunOpts {
            journal: Some(&opened),
            ..opts
        };
        // Frame-rebuilt resume plans per campaign; checkpointed
        // campaigns restore their exact stats instead.
        let replayed = split_campaigns(&report.visits, &report.checkpoints);
        let study = Study::execute(config, report.store, &replayed, opts);
        journal_intact(&opened).map(|()| study)
    }

    /// Generate the population, run (or resume) every campaign into
    /// `store`, checkpointing completions, sync the journal, and
    /// analyse.
    fn execute(
        config: StudyConfig,
        store: TelemetryStore,
        replayed: &BTreeMap<(String, String), CampaignReplay>,
        mut opts: RunOpts<'_>,
    ) -> Study {
        let population = opts.stage(
            || "population".to_string(),
            || WebPopulation::generate(config.population),
        );
        let sites = population.sites2020.len()
            + population.sites2021.len()
            + population.malicious_sites.len();
        opts.annotate(sites as u64, None);
        let mut stats = BTreeMap::new();
        'campaigns: for (crawl, oses) in campaigns() {
            let jobs = campaign_jobs(&population, &crawl);
            for os in oses {
                let mut cfg = CrawlConfig::paper(crawl.clone(), os, config.population.seed);
                cfg.workers = config.workers;
                let Some(s) = opts.campaign(&cfg, &jobs, &store, replayed) else {
                    break 'campaigns;
                };
                stats.insert((crawl.as_str().to_string(), os), s);
            }
        }
        opts.sync_journal();
        let trace = opts.trace;
        let analyses = campaigns()
            .into_iter()
            .map(|(crawl, _)| {
                let analysis = opts.stage(
                    || format!("analyze:{}", crawl.as_str()),
                    || analyze_crawl_traced(&store, &crawl, config.workers, trace),
                );
                opts.annotate(analysis.visits as u64, None);
                (crawl.as_str().to_string(), analysis)
            })
            .collect();
        Study {
            config,
            population,
            store,
            stats,
            analyses,
        }
    }

    /// The precomputed analysis for one campaign.
    pub fn analysis(&self, crawl: &CrawlId) -> &CrawlAnalysis {
        self.analyses
            .get(crawl.as_str())
            .expect("campaign crawl analysed at Study::run")
    }

    /// Per-site local activity for one crawl (all OSes merged).
    pub fn activities(&self, crawl: &CrawlId) -> &[SiteLocalActivity] {
        &self.analysis(crawl).sites
    }

    /// Crawl stats for one (crawl, OS).
    pub fn stats_for(&self, crawl: &CrawlId, os: Os) -> Option<&CrawlStats> {
        self.stats.get(&(crawl.as_str().to_string(), os))
    }

    /// Run one named experiment (`"T1"`–`"T11"`, `"F2"`–`"F9"`).
    pub fn experiment(&self, id: &str) -> Option<String> {
        crate::experiments::run(self, id)
    }

    /// Every experiment, in paper order: `(id, rendered text)`.
    pub fn all_experiments(&self) -> Vec<(&'static str, String)> {
        crate::experiments::ALL_IDS
            .iter()
            .map(|id| (*id, crate::experiments::run(self, id).expect("known id")))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_study_runs_every_campaign() {
        let study = Study::run(StudyConfig::quick(7));
        // 3 + 2 + 3 campaign/OS pairs.
        assert_eq!(study.stats.len(), 8);
        // Telemetry for each (site, crawl, os) triple.
        let expected = study.population.sites2020.len() * 3
            + study.population.sites2021.len() * 2
            + study.population.malicious_sites.len() * 3;
        assert_eq!(study.store.len(), expected);
    }

    #[test]
    fn activities_recover_planted_sites_2020() {
        let study = Study::run(StudyConfig::quick(7));
        let sites = study.activities(&CrawlId::top2020());
        let localhost = sites.iter().filter(|s| s.has_localhost()).count();
        let lan = sites.iter().filter(|s| s.has_lan()).count();
        assert_eq!(localhost, 107, "the paper's 107 localhost sites");
        assert_eq!(lan, 9, "the paper's 9 LAN sites");
    }

    #[test]
    fn killed_study_resumes_to_identical_tables() {
        use kt_store::{KillMode, KillSpec};

        let config = StudyConfig::quick(7);
        let baseline = Study::run(config);
        let path = std::env::temp_dir().join(format!("kt-study-resume-{}.ktj", std::process::id()));
        let journal = JournalWriter::create(&path).unwrap();
        // Die mid-frame about a third of the way through the study —
        // inside a campaign, past at least one checkpoint.
        let kill_at = (baseline.store.len() as u64) / 3;
        journal.set_kill(Some(KillSpec {
            at_frame: kill_at,
            mode: KillMode::MidFrame,
        }));
        let _ = Study::run_journaled(config, Some(&journal));
        assert!(journal.killed(), "the study must die at frame {kill_at}");

        let resumed = Study::resume(&path).unwrap();
        assert_eq!(resumed.stats, baseline.stats, "per-campaign stats match");
        for (crawl, _) in campaigns() {
            assert_eq!(
                resumed.store.crawl_records(&crawl),
                baseline.store.crawl_records(&crawl),
                "store records for {} match byte for byte",
                crawl.as_str()
            );
        }
        for id in ["T1", "T2", "T5"] {
            assert_eq!(
                resumed.experiment(id),
                baseline.experiment(id),
                "table {id} regenerates identically after resume"
            );
        }

        // Resuming a *finished* journal is a pure checkpoint restore:
        // nothing re-runs and the results still match.
        let restored = Study::resume(&path).unwrap();
        assert_eq!(restored.stats, baseline.stats);
        assert_eq!(restored.store.len(), baseline.store.len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn profiled_study_matches_plain_run() {
        let config = StudyConfig::quick(7);
        let baseline = Study::run(config);
        let mut profiler = StageProfiler::new();
        let profiled = Study::run_with(
            config,
            RunOpts {
                profiler: Some(&mut profiler),
                ..RunOpts::default()
            },
        );
        assert_eq!(profiled.stats, baseline.stats, "profiling changes nothing");
        // population + 8 campaign/OS crawls + 3 analyses.
        assert_eq!(profiler.stages().len(), 12);
        let names: Vec<&str> = profiler.stages().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names[0], "population");
        assert!(names.contains(&"crawl:top2020/Windows"));
        assert!(names.contains(&"analyze:malicious"));
        let table = profiler.render_table();
        assert!(table.lines().last().unwrap().starts_with("total"));
    }

    #[test]
    fn metrics_are_worker_count_invariant() {
        // Same population, different schedules: every exported series
        // — counters, gauges, sim-cost histograms — must come out byte
        // for byte identical. This is the registry-level face of the
        // CrawlStats invariance the crawler already guarantees.
        let export_with = |workers: usize| {
            let mut config = StudyConfig::quick(7);
            config.workers = workers;
            let trace = Trace::new();
            let _ = Study::run_with(
                config,
                RunOpts {
                    trace: Some(&trace),
                    ..RunOpts::default()
                },
            );
            trace.export_prometheus()
        };
        let baseline = export_with(1);
        assert!(baseline.contains("visits_total{"), "core series present");
        assert!(baseline.contains("analysis_stage_seconds_bucket{"));
        for workers in [2, 4, 8] {
            assert_eq!(
                export_with(workers),
                baseline,
                "{workers}-worker export differs from single-worker"
            );
        }
    }

    #[test]
    fn resumed_metrics_match_baseline_counters() {
        use kt_store::{KillMode, KillSpec};

        let config = StudyConfig::quick(11);
        let base_trace = Trace::new();
        let _ = Study::run_with(
            config,
            RunOpts {
                trace: Some(&base_trace),
                ..RunOpts::default()
            },
        );

        let path = std::env::temp_dir().join(format!(
            "kt-study-metrics-resume-{}.ktj",
            std::process::id()
        ));
        let journal = JournalWriter::create(&path).unwrap();
        let kill_at = 900;
        journal.set_kill(Some(KillSpec {
            at_frame: kill_at,
            mode: KillMode::MidFrame,
        }));
        let _ = Study::run_journaled(config, Some(&journal));
        assert!(journal.killed());

        let resumed_trace = Trace::new();
        let _ = Study::resume_with(
            &path,
            kt_store::replay(&path).unwrap(),
            RunOpts {
                trace: Some(&resumed_trace),
                ..RunOpts::default()
            },
        )
        .unwrap();

        // Crawl-derived counters and analysis counters must match the
        // never-crashed run exactly; journal counters are writer-owned
        // and may not.
        for (crawl, oses) in campaigns() {
            for os in oses {
                let labels = kt_crawler::campaign_labels(&crawl, os);
                for name in [
                    names::VISITS_TOTAL,
                    names::SUCCESS_TOTAL,
                    names::RETRIES_TOTAL,
                ] {
                    let base = base_trace.with_registry(|r| r.counter_value(name, &labels));
                    let resumed = resumed_trace.with_registry(|r| r.counter_value(name, &labels));
                    assert_eq!(
                        resumed,
                        base,
                        "{name} for ({}, {}) differs after resume",
                        crawl.as_str(),
                        os.name()
                    );
                }
            }
            let labels = Labels::new(&[("crawl", crawl.as_str())]);
            let base = base_trace
                .with_registry(|r| r.counter_value(names::LOCAL_OBSERVATIONS_TOTAL, &labels));
            let resumed = resumed_trace
                .with_registry(|r| r.counter_value(names::LOCAL_OBSERVATIONS_TOTAL, &labels));
            assert_eq!(resumed, base, "local observations differ after resume");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn service_study_matches_batch_study() {
        let config = StudyConfig::quick(7);
        let batch = Study::run(config);
        let service = Study::run_service(config);
        assert_eq!(service.stats, batch.stats, "per-campaign stats match");
        assert_eq!(service.store.len(), batch.store.len());
        for (crawl, _) in campaigns() {
            assert_eq!(
                service.store.crawl_records(&crawl),
                batch.store.crawl_records(&crawl),
                "store records for {} match byte for byte",
                crawl.as_str()
            );
            assert_eq!(
                service.analyses[crawl.as_str()],
                batch.analyses[crawl.as_str()],
                "online-aggregated analysis for {} matches the batch analyzer",
                crawl.as_str()
            );
        }
        for id in ["T1", "T2", "T5"] {
            assert_eq!(
                service.experiment(id),
                batch.experiment(id),
                "table {id} renders identically through the service"
            );
        }
    }

    #[test]
    fn no_mac_records_for_2021() {
        let study = Study::run(StudyConfig::quick(7));
        let records = study.store.crawl_records(&CrawlId::top2021());
        assert!(records.iter().all(|r| r.os != Os::MacOs));
        assert!(study.stats_for(&CrawlId::top2021(), Os::MacOs).is_none());
        assert!(study.stats_for(&CrawlId::top2021(), Os::Windows).is_some());
    }
}
