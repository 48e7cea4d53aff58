//! Crash durability end to end: kill the process at every journal
//! frame boundary, resume, and require the analysis tables to come out
//! byte-identical to a run that never crashed; repair damaged journals
//! with fsck and resume from the repaired file; save a crawled store
//! and load it back through the same frame reader.

use knock_talk::analysis::report::{health_table, localhost_table, table1};
use knock_talk::analysis::{analyze_crawl_par, detect_local};
use knock_talk::crawler::{
    run_crawl, run_crawl_with, split_campaigns, CrawlConfig, CrawlJob, CrawlOpts, ResumePlan,
};
use knock_talk::faults::{Fault, FaultPlan};
use knock_talk::netbase::{DomainName, Os, OsSet};
use knock_talk::store::frame::kind;
use knock_talk::store::journal::scan;
use knock_talk::store::{
    fsck, persist, replay, CrawlId, FsckOptions, JournalConfig, JournalWriter, KillMode, KillSpec,
    TelemetryStore,
};
use knock_talk::study::campaigns;
use knock_talk::webgen::{Availability, Behavior, NativeApp, PlantedBehavior, WebSite};
use knock_talk::{Study, StudyConfig};
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("kt-durability-{name}-{}.ktj", std::process::id()))
}

/// A small campaign with every kind of journal frame: plain successes,
/// localhost behaviour (so detection tables have rows), hard failures,
/// and transient faults that exercise retries and the recrawl pass.
fn sweep_sites() -> Vec<WebSite> {
    let mut sites: Vec<WebSite> = (0..10)
        .map(|i| {
            WebSite::plain(
                DomainName::parse(&format!("boundary-{i}.example")).unwrap(),
                Some(i as u32 + 1),
                3,
            )
        })
        .collect();
    sites[2].behaviors.push(PlantedBehavior {
        behavior: Behavior::NativeApp(NativeApp::Discord),
        os_set: OsSet::ALL,
        base_delay_ms: 1_000,
    });
    sites[7].set_availability_all(Availability::Refused);
    sites
}

fn sweep_config() -> CrawlConfig {
    let mut config = CrawlConfig::paper(CrawlId::top2020(), Os::Windows, 5);
    config.faults = FaultPlan::none(5)
        .with_rate(Fault::ConnectionReset, 0.25)
        .with_rate(Fault::DnsFlap, 0.2);
    config
}

/// Every derived artefact the paper's tables read from one campaign,
/// rendered to text so "byte-identical" means exactly that.
fn campaign_tables(store: &TelemetryStore, stats: &knock_talk::crawler::CrawlStats) -> String {
    let analysis = analyze_crawl_par(store, &CrawlId::top2020(), 2);
    let mut out = table1(&[("Top 100K: 2020", Os::Windows, stats)]).0;
    out.push_str(&health_table(&[("Top 100K: 2020", Os::Windows, stats)]).0);
    out.push_str(&localhost_table(&analysis.sites).0);
    out
}

#[test]
fn kill_at_every_frame_boundary_resumes_to_identical_tables() {
    let sites = sweep_sites();
    let jobs: Vec<CrawlJob> = sites
        .iter()
        .map(|site| CrawlJob {
            site,
            malicious_category: None,
        })
        .collect();
    let config = sweep_config();

    let baseline_store = TelemetryStore::new();
    let baseline_stats = run_crawl(&jobs, &config, &baseline_store);
    let baseline_records = baseline_store.crawl_records(&CrawlId::top2020());
    let baseline_tables = campaign_tables(&baseline_store, &baseline_stats);

    // Probe run: how many frames does the uninterrupted journal hold?
    let probe = tmp("sweep-probe");
    let journal = JournalWriter::create(&probe).unwrap();
    run_crawl_with(
        &jobs,
        &config,
        &TelemetryStore::new(),
        CrawlOpts {
            journal: Some(&journal),
            ..CrawlOpts::default()
        },
    );
    journal.sync();
    let total_frames = replay(&probe).unwrap().summary.frames as u64;
    std::fs::remove_file(&probe).ok();
    assert!(total_frames >= jobs.len() as u64, "one frame per visit");

    for at_frame in 0..total_frames {
        for mode in [KillMode::MidFrame, KillMode::PostFrame] {
            let path = tmp(&format!("sweep-{at_frame}-{mode:?}"));
            let journal = JournalWriter::create(&path).unwrap();
            journal.set_kill(Some(KillSpec { at_frame, mode }));
            run_crawl_with(
                &jobs,
                &config,
                &TelemetryStore::new(),
                CrawlOpts {
                    journal: Some(&journal),
                    ..CrawlOpts::default()
                },
            );
            assert!(journal.killed(), "kill at frame {at_frame} ({mode:?})");
            drop(journal);

            let report = replay(&path).unwrap();
            let campaigns = split_campaigns(&report.visits, &report.checkpoints);
            let plan = campaigns
                .get(&("top2020".to_string(), "Windows".to_string()))
                .map(|c| c.plan(&jobs))
                .unwrap_or_else(|| ResumePlan::fresh(jobs.len()));
            let journal = JournalWriter::open_append(&path, &report.summary).unwrap();
            let stats = run_crawl_with(
                &jobs,
                &config,
                &report.store,
                CrawlOpts {
                    resume: Some(&plan),
                    journal: Some(&journal),
                    ..CrawlOpts::default()
                },
            );
            journal.sync();

            assert_eq!(
                stats, baseline_stats,
                "stats diverge after kill at frame {at_frame} ({mode:?})"
            );
            assert_eq!(
                report.store.crawl_records(&CrawlId::top2020()),
                baseline_records,
                "records diverge after kill at frame {at_frame} ({mode:?})"
            );
            assert_eq!(
                campaign_tables(&report.store, &stats),
                baseline_tables,
                "tables diverge after kill at frame {at_frame} ({mode:?})"
            );
            std::fs::remove_file(&path).ok();
        }
    }
}

/// The group-commit counterpart of the boundary sweep above: at every
/// frame boundary, in both kill modes, a writer batching as hard as
/// possible (the group buffer only drains at fsyncs and kills) must
/// leave byte-for-byte the same file as the unbatched writer — so
/// every crash-recovery guarantee the sweep proves transfers to the
/// batched path unchanged. A sampled subset then actually resumes and
/// re-derives the tables.
#[test]
fn kill_sweep_with_aggressive_group_commit_matches_unbatched() {
    let sites = sweep_sites();
    let jobs: Vec<CrawlJob> = sites
        .iter()
        .map(|site| CrawlJob {
            site,
            malicious_category: None,
        })
        .collect();
    // One worker: journal frame *order* is completion order, so the
    // cross-run byte comparison below needs a deterministic schedule.
    // (The multi-worker sweep above already proves order-independent
    // recovery; this one pins the writer's on-disk bytes.)
    let mut config = sweep_config();
    config.workers = 1;

    let baseline_store = TelemetryStore::new();
    let baseline_stats = run_crawl(&jobs, &config, &baseline_store);
    let baseline_tables = campaign_tables(&baseline_store, &baseline_stats);

    // Batch without bound: frames only reach the file at a flush
    // point, sync, kill, or drop.
    let grouped_config = JournalConfig {
        group_max_frames: u64::MAX,
        group_max_bytes: usize::MAX >> 1,
        ..JournalConfig::default()
    };

    let probe = tmp("group-sweep-probe");
    let journal = JournalWriter::create_with(&probe, grouped_config).unwrap();
    run_crawl_with(
        &jobs,
        &config,
        &TelemetryStore::new(),
        CrawlOpts {
            journal: Some(&journal),
            ..CrawlOpts::default()
        },
    );
    journal.sync();
    drop(journal);
    let total_frames = replay(&probe).unwrap().summary.frames as u64;
    std::fs::remove_file(&probe).ok();

    for at_frame in 0..total_frames {
        for mode in [KillMode::MidFrame, KillMode::PostFrame] {
            let grouped_path = tmp(&format!("group-sweep-{at_frame}-{mode:?}"));
            let journal = JournalWriter::create_with(&grouped_path, grouped_config).unwrap();
            journal.set_kill(Some(KillSpec { at_frame, mode }));
            run_crawl_with(
                &jobs,
                &config,
                &TelemetryStore::new(),
                CrawlOpts {
                    journal: Some(&journal),
                    ..CrawlOpts::default()
                },
            );
            assert!(journal.killed(), "kill at frame {at_frame} ({mode:?})");
            drop(journal);

            let unbatched_path = tmp(&format!("unbatched-sweep-{at_frame}-{mode:?}"));
            let journal =
                JournalWriter::create_with(&unbatched_path, JournalConfig::unbatched()).unwrap();
            journal.set_kill(Some(KillSpec { at_frame, mode }));
            run_crawl_with(
                &jobs,
                &config,
                &TelemetryStore::new(),
                CrawlOpts {
                    journal: Some(&journal),
                    ..CrawlOpts::default()
                },
            );
            drop(journal);

            assert_eq!(
                std::fs::read(&grouped_path).unwrap(),
                std::fs::read(&unbatched_path).unwrap(),
                "on-disk bytes diverge at kill frame {at_frame} ({mode:?})"
            );
            std::fs::remove_file(&unbatched_path).ok();

            // Resume a sample of boundaries end to end — byte equality
            // above carries the rest.
            if at_frame % 5 == 0 {
                let report = replay(&grouped_path).unwrap();
                let campaigns = split_campaigns(&report.visits, &report.checkpoints);
                let plan = campaigns
                    .get(&("top2020".to_string(), "Windows".to_string()))
                    .map(|c| c.plan(&jobs))
                    .unwrap_or_else(|| ResumePlan::fresh(jobs.len()));
                let journal =
                    JournalWriter::open_append_with(&grouped_path, &report.summary, grouped_config)
                        .unwrap();
                let stats = run_crawl_with(
                    &jobs,
                    &config,
                    &report.store,
                    CrawlOpts {
                        resume: Some(&plan),
                        journal: Some(&journal),
                        ..CrawlOpts::default()
                    },
                );
                journal.sync();
                assert_eq!(
                    campaign_tables(&report.store, &stats),
                    baseline_tables,
                    "tables diverge after grouped kill at frame {at_frame} ({mode:?})"
                );
            }
            std::fs::remove_file(&grouped_path).ok();
        }
    }
}

#[test]
fn study_kills_at_meta_and_checkpoint_boundaries() {
    let config = StudyConfig::quick(13);
    let baseline = Study::run(config);
    // FLUSH markers off: a marker lands wherever 512 KiB of visit
    // frames have piled up, which depends on the order the study's
    // workers finish in, so the probe's frame indices would not name
    // the same frames in a later run. Without them every run lays out
    // the same frames.
    let unflushed = JournalConfig {
        flush_every_bytes: u64::MAX,
        ..JournalConfig::default()
    };

    // Probe the frame layout of an uninterrupted study journal.
    let probe = tmp("study-probe");
    let journal = JournalWriter::create_with(&probe, unflushed).unwrap();
    Study::run_journaled(config, Some(&journal));
    drop(journal);
    let data = std::fs::read(&probe).unwrap();
    let kinds: Vec<u8> = scan(&data).unwrap().frames.iter().map(|f| f.kind).collect();
    std::fs::remove_file(&probe).ok();
    let first_cp = kinds
        .iter()
        .position(|&k| k == kind::CHECKPOINT)
        .expect("at least one checkpoint") as u64;
    let last = kinds.len() as u64 - 1;

    // Tearing the campaign-parameters frame itself leaves nothing to
    // resume from: the doctor can salvage bytes, but `resume` must
    // refuse rather than guess a population.
    let path = tmp("study-meta-kill");
    let journal = JournalWriter::create_with(&path, unflushed).unwrap();
    journal.set_kill(Some(KillSpec {
        at_frame: 0,
        mode: KillMode::MidFrame,
    }));
    Study::run_journaled(config, Some(&journal));
    drop(journal);
    assert!(
        Study::resume(&path).is_err(),
        "resume without a meta frame must refuse"
    );
    std::fs::remove_file(&path).ok();

    // The interesting crash boundaries around campaign bookkeeping: a
    // torn first checkpoint, a crash right after it (campaign complete
    // on disk, successor not started), and a torn final checkpoint.
    let boundaries = [
        (first_cp, KillMode::MidFrame),
        (first_cp, KillMode::PostFrame),
        (last, KillMode::MidFrame),
    ];
    for (at_frame, mode) in boundaries {
        let path = tmp(&format!("study-kill-{at_frame}-{mode:?}"));
        let journal = JournalWriter::create_with(&path, unflushed).unwrap();
        journal.set_kill(Some(KillSpec { at_frame, mode }));
        Study::run_journaled(config, Some(&journal));
        assert!(journal.killed(), "study must die at frame {at_frame}");
        drop(journal);

        let resumed = Study::resume(&path).unwrap();
        assert_eq!(
            resumed.stats, baseline.stats,
            "stats diverge after kill at frame {at_frame} ({mode:?})"
        );
        for (crawl, _) in campaigns() {
            assert_eq!(
                resumed.store.crawl_records(&crawl),
                baseline.store.crawl_records(&crawl),
                "{} records diverge after kill at frame {at_frame} ({mode:?})",
                crawl.as_str()
            );
        }
        for id in ["T1", "T2", "T5"] {
            assert_eq!(
                resumed.experiment(id),
                baseline.experiment(id),
                "table {id} diverges after kill at frame {at_frame} ({mode:?})"
            );
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn fsck_repair_then_resume_recovers_a_damaged_study_journal() {
    let config = StudyConfig::quick(29);
    let baseline = Study::run(config);

    let path = tmp("fsck-resume");
    let journal = JournalWriter::create(&path).unwrap();
    Study::run_journaled(config, Some(&journal));
    drop(journal);

    // Vandalise two visit frames in the middle of the file (never the
    // meta frame — a lost meta is unresumable by design).
    let data = std::fs::read(&path).unwrap();
    let frames = scan(&data).unwrap().frames;
    let mut bent = data.clone();
    for target in [frames.len() / 3, 2 * frames.len() / 3] {
        let frame = &frames[target];
        assert_ne!(frame.start, 8, "never the meta frame");
        bent[frame.start as usize + 9] ^= 0xFF;
    }
    std::fs::write(&path, &bent).unwrap();

    let report = fsck(
        &path,
        FsckOptions {
            repair: true,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(report.summary.corrupt_frames, 2, "both flips detected");
    assert!(report.repaired, "repair rewrote the journal");
    let quarantine = report.quarantine_path.clone().expect("quarantine written");
    assert_eq!(
        std::fs::metadata(&quarantine).unwrap().len(),
        report.summary.corrupt_bytes,
        "damage quarantined, not lost"
    );

    // The rewritten journal is clean; the two vandalised visits are
    // simply missing, and resume re-runs exactly those.
    let clean = fsck(&path, FsckOptions::default()).unwrap();
    assert_eq!(clean.summary.corrupt_frames, 0);
    assert!(!clean.summary.truncated_tail);

    let resumed = Study::resume(&path).unwrap();
    for (crawl, _) in campaigns() {
        let pick = |records: Vec<knock_talk::store::VisitRecord>| {
            records
                .into_iter()
                .map(|r| ((r.domain.clone(), r.os), r))
                .collect::<std::collections::BTreeMap<_, _>>()
        };
        let ours = pick(resumed.store.crawl_records(&crawl));
        let theirs = pick(baseline.store.crawl_records(&crawl));
        let missing: Vec<_> = theirs.keys().filter(|k| !ours.contains_key(*k)).collect();
        let extra: Vec<_> = ours.keys().filter(|k| !theirs.contains_key(*k)).collect();
        assert!(
            missing.is_empty() && extra.is_empty(),
            "{} domain set: missing {missing:?}, extra {extra:?}",
            crawl.as_str()
        );
        for (key, record) in &ours {
            assert_eq!(
                record,
                &theirs[key],
                "{} record for {key:?} diverges after repair",
                crawl.as_str()
            );
        }
    }
    assert_eq!(resumed.stats, baseline.stats, "stats recover after repair");
    assert_eq!(resumed.experiment("T1"), baseline.experiment("T1"));

    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&quarantine).ok();
}

#[test]
fn saved_store_files_load_and_analyze() {
    let sites = sweep_sites();
    let jobs: Vec<CrawlJob> = sites
        .iter()
        .map(|site| CrawlJob {
            site,
            malicious_category: None,
        })
        .collect();
    let store = TelemetryStore::new();
    run_crawl(&jobs, &sweep_config(), &store);

    let path = std::env::temp_dir().join(format!(
        "kt-durability-saved-{}.ktstore",
        std::process::id()
    ));
    let saved = persist::save(&store, &path).unwrap();
    assert_eq!(saved.records, store.len());
    assert!(saved.bytes > 0);

    // A saved store is a journal of final frames: `load_any` and the
    // store doctor both read it, into the same summary.
    let doctor = fsck(&path, FsckOptions::default()).unwrap();
    assert!(doctor.summary.clean(), "{doctor:?}");
    assert_eq!(doctor.summary.visits, store.len());
    let loaded = persist::load_any(&path).unwrap();
    assert_eq!(loaded.summary, doctor.summary);
    assert_eq!(loaded.corrupt, 0);
    assert_eq!(
        loaded.store.crawl_records(&CrawlId::top2020()),
        store.crawl_records(&CrawlId::top2020()),
        "snapshot round-trips byte for byte"
    );
    // The analysis pipeline accepts the reloaded store unchanged.
    let records = loaded.store.crawl_records(&CrawlId::top2020());
    let detections: usize = records.iter().map(|r| detect_local(r).len()).sum();
    assert!(detections >= 10, "planted Discord probes survive the trip");
    std::fs::remove_file(&path).ok();
}
