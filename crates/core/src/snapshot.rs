//! The longitudinal snapshot engine: N rolling top-list snapshots
//! crawled incrementally into a content-addressed store.
//!
//! The paper pays for two full crawls and compares them (§4.1); this
//! engine generalises to a [`SnapshotSeries`] of N lists without
//! paying N× crawl time or N× store space:
//!
//! * **synthetic longitudinal web** — every site is a pure function of
//!   `(series seed, domain, content version)` ([`synth_site`]), and a
//!   site's content version advances by deterministic per-step draws
//!   ([`content_version`]). Combined with the crawler's determinism
//!   (visit events depend only on the site, OS, and seed — never on
//!   the crawl id), a site whose version didn't change produces
//!   byte-identical canonical records in every snapshot;
//! * **incremental recrawl** — each step's [`IncrementalPlan`] splits
//!   the next list into carried / changed / fresh / dropped; only
//!   changed + fresh sites are visited, and carried sites' manifest
//!   rows are linked to the previous snapshot's chunks by reference
//!   ([`SnapshotStore::link_from`]);
//! * **durability** — the run journals through the same `KTSTORE2`
//!   machinery as [`Study`]: one campaign per (snapshot, OS) with its
//!   own crawl id (`snap00`, `snap01`, …), checkpoints at campaign
//!   boundaries, kill-switch crash injection, and
//!   [`SnapshotStudy::resume`] that replays, re-runs only missing
//!   visits, and rebuilds the snapshot store deterministically. Work
//!   counters and `snapshot_*` metrics derive from the *plans*, not
//!   from which process executed a visit, so the export is identical
//!   across worker counts and kill/resume.
//!
//! [`Study`]: crate::study::Study
//! [`SnapshotStore::link_from`]: kt_store::snapshot::SnapshotStore::link_from

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use kt_analysis::diff::{diff_snapshots_traced, SnapshotDiff};
use kt_crawler::{split_campaigns, CrawlConfig, CrawlJob, CrawlStats, IncrementalPlan};
use kt_netbase::rng::{fnv1a, splitmix64, to_unit, FNV_OFFSET};
use kt_netbase::{DomainName, Os, OsSet, Scheme};
use kt_store::snapshot::SnapshotStore;
use kt_store::{CrawlId, JournalError, JournalMeta, JournalWriter, SpillConfig, TelemetryStore};
use kt_trace::{names, Labels, Trace};
use kt_webgen::{Availability, Behavior, DevError, NativeApp, PlantedBehavior, WebSite};
use kt_weblists::{SeriesConfig, SnapshotSeries};

use crate::study::{journal_intact, study_meta, RunOpts};

/// The OSes each snapshot is crawled on. Two, like the paper's 2021
/// campaign — Windows carries the fraud/bot-detection signal, Linux
/// the cross-OS behaviours.
pub const SNAPSHOT_OSES: [Os; 2] = [Os::Windows, Os::Linux];

fn site_hash(seed: u64, domain: &str) -> u64 {
    splitmix64(seed ^ fnv1a(FNV_OFFSET, domain.as_bytes()))
}

/// Whether a site's content changed at exactly step `step` (≥ 1): one
/// deterministic draw against the per-step content-churn rate.
pub fn content_changed(seed: u64, domain: &str, step: usize, content_churn: f64) -> bool {
    let draw = to_unit(splitmix64(
        site_hash(seed, domain) ^ splitmix64(step as u64),
    ));
    draw < content_churn
}

/// A site's content version as of snapshot `step`: the number of
/// change draws that hit in steps `1..=step`. Version 0 is the
/// site's state in the first snapshot.
pub fn content_version(seed: u64, domain: &str, step: usize, content_churn: f64) -> u32 {
    (1..=step)
        .filter(|s| content_changed(seed, domain, *s, content_churn))
        .count() as u32
}

/// Synthesise one site of the longitudinal web — a pure function of
/// `(seed, domain, version)`, which is what makes unchanged sites
/// produce byte-identical visit records across snapshots.
///
/// Hash bands plant the paper's behaviour classes: ~5% ThreatMetrix,
/// ~3% BIG-IP, ~8% live-reload developer errors, ~10% native apps,
/// and a ~6% "mover" band whose class flips with the content version
/// (the source of `reclassified` cells in the churn matrix). The
/// version perturbs resource counts and behaviour delays, so *any*
/// content change alters the visit bytes.
pub fn synth_site(seed: u64, domain: &DomainName, version: u32) -> WebSite {
    let h = site_hash(seed, domain.as_str());
    let hv = splitmix64(h ^ (version as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut site = WebSite::plain(domain.clone(), None, 1 + (hv % 3) as u8);
    let band = h % 1000;
    let delay = |base: u64| base + (hv % 8) * 250;
    let live_reload = |d: u64| PlantedBehavior {
        behavior: Behavior::DevError(DevError::LiveReload {
            scheme: Scheme::Ws,
            port: 35729,
        }),
        os_set: OsSet::ALL,
        base_delay_ms: d,
    };
    if band < 50 {
        site.behaviors.push(PlantedBehavior {
            behavior: Behavior::ThreatMetrix {
                vendor: DomainName::parse("online-metrix.net").expect("static domain"),
            },
            os_set: OsSet::ALL,
            base_delay_ms: delay(9_000),
        });
    } else if band < 80 {
        site.behaviors.push(PlantedBehavior {
            behavior: Behavior::BigIpBotDefense,
            os_set: OsSet::ALL,
            base_delay_ms: delay(8_000),
        });
    } else if band < 160 {
        site.behaviors.push(live_reload(delay(2_000)));
    } else if band < 260 {
        site.behaviors.push(PlantedBehavior {
            behavior: Behavior::NativeApp(if h & 1 == 0 {
                NativeApp::Discord
            } else {
                NativeApp::Faceit
            }),
            os_set: OsSet::ALL,
            base_delay_ms: delay(3_000),
        });
    } else if band >= 940 {
        // Movers: the classifier's verdict flips with the version.
        if version.is_multiple_of(2) {
            site.behaviors.push(live_reload(delay(2_500)));
        } else {
            site.behaviors.push(PlantedBehavior {
                behavior: Behavior::NativeApp(NativeApp::Discord),
                os_set: OsSet::ALL,
                base_delay_ms: delay(3_500),
            });
        }
    }
    site.set_availability_all(Availability::Up);
    site
}

/// Longitudinal run configuration.
#[derive(Debug, Clone)]
pub struct SnapshotStudyConfig {
    /// The rolling list series (size, snapshot count, churn, seed).
    pub series: SeriesConfig,
    /// Per-step probability that a carried site's content changed
    /// (forcing a recrawl of that site).
    pub content_churn: f64,
    /// Crawl and diff worker threads.
    pub workers: usize,
    /// When false, every snapshot is fully recrawled — no links, no
    /// incremental plans. The baseline the equivalence tests and the
    /// perf bin compare against.
    pub incremental: bool,
    /// Optional disk spill for the telemetry store (sealed segments
    /// through the mmap path).
    pub spill: Option<SpillConfig>,
}

impl SnapshotStudyConfig {
    /// Small fast series for tests and the CI smoke: 4 snapshots.
    pub fn quick(seed: u64) -> SnapshotStudyConfig {
        SnapshotStudyConfig {
            series: SeriesConfig {
                size: 150,
                snapshots: 4,
                churn: 0.25,
                relist_fraction: 0.85,
                seed,
            },
            content_churn: 0.05,
            workers: 4,
            incremental: true,
            spill: None,
        }
    }

    /// The acceptance-target series: 12 snapshots at ~20% churn.
    pub fn bench(seed: u64) -> SnapshotStudyConfig {
        SnapshotStudyConfig {
            series: SeriesConfig {
                size: 600,
                snapshots: 12,
                churn: 0.2,
                relist_fraction: 0.85,
                seed,
            },
            content_churn: 0.03,
            workers: 8,
            incremental: true,
            spill: None,
        }
    }
}

/// Visit-work accounting for one longitudinal run, derived from the
/// incremental plans (not from which process executed a visit), so the
/// numbers are identical across worker counts and kill/resume.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SnapshotWork {
    /// Visits the engine executed (changed + fresh sites × OSes).
    pub executed_visits: u64,
    /// Visits a full per-snapshot recrawl would execute.
    pub full_visits: u64,
    /// Manifest rows linked by reference instead of crawled.
    pub linked_rows: u64,
    /// Chunks newly written to the snapshot store (deduplicated
    /// ingests excluded).
    pub fresh_chunks: u64,
}

impl SnapshotWork {
    /// executed / full — the incremental work fraction (≤ 1; the
    /// acceptance target is ≤ ~0.30 on the bench series).
    pub fn incremental_fraction(&self) -> f64 {
        if self.full_visits == 0 {
            return 0.0;
        }
        self.executed_visits as f64 / self.full_visits as f64
    }
}

/// A completed longitudinal run.
pub struct SnapshotStudy {
    /// Configuration used.
    pub config: SnapshotStudyConfig,
    /// The generated list series.
    pub series: SnapshotSeries,
    /// The content-addressed dedup store, one manifest per snapshot.
    pub snapshots: SnapshotStore,
    /// Raw visit telemetry (per-snapshot crawl ids).
    pub telemetry: TelemetryStore,
    /// Per-(snapshot, OS) campaign statistics.
    pub stats: BTreeMap<(String, Os), CrawlStats>,
    /// Plan-derived work accounting.
    pub work: SnapshotWork,
}

impl SnapshotStudy {
    /// Run the series.
    pub fn run(config: SnapshotStudyConfig) -> io::Result<SnapshotStudy> {
        SnapshotStudy::run_with(config, RunOpts::default())
    }

    /// [`SnapshotStudy::run`] under a journal, a trace, and/or a
    /// profiler. The journal gets one campaign per (snapshot, OS),
    /// checkpointed at campaign boundaries. If its kill switch fires,
    /// remaining campaigns are skipped and the returned study
    /// describes a dead process's partial world —
    /// [`SnapshotStudy::resume`] is the continuation. The trace gets
    /// `snapshot_*` metrics and crawl counters.
    pub fn run_with(
        config: SnapshotStudyConfig,
        mut opts: RunOpts<'_>,
    ) -> io::Result<SnapshotStudy> {
        if let Some(j) = opts.journal {
            j.append_meta(&JournalMeta {
                seed: config.series.seed,
                top_size: config.series.size as u64,
                malicious_size: config.series.snapshots as u64,
                workers: config.workers as u64,
            });
        }
        let telemetry = match &config.spill {
            Some(spill) => TelemetryStore::with_spill(spill.clone())?,
            None => TelemetryStore::new(),
        };
        Ok(SnapshotStudy::run_campaigns(
            config,
            telemetry,
            &BTreeMap::new(),
            &mut opts,
        ))
    }

    /// Resume a crashed journaled run. The series parameters are
    /// re-derived from `config`, which must match the journaled meta
    /// frame (seed, list size, snapshot count). Checkpointed campaigns
    /// restore verbatim, partial ones re-run only their missing
    /// visits, and the snapshot store is rebuilt deterministically
    /// from the combined telemetry — diff tables come out identical
    /// to a run that never crashed. The continuation always appends to
    /// the journal at `path`, so `opts.journal` must be `None`.
    pub fn resume(
        path: &Path,
        config: SnapshotStudyConfig,
        opts: RunOpts<'_>,
    ) -> Result<SnapshotStudy, JournalError> {
        let report = kt_store::replay(path)?;
        let meta = study_meta(&report, "snapshot")?;
        if meta.seed != config.series.seed
            || meta.top_size != config.series.size as u64
            || meta.malicious_size != config.series.snapshots as u64
        {
            return Err(JournalError::Io(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "journal meta (seed {}, size {}, snapshots {}) does not match the \
                     supplied series config",
                    meta.seed, meta.top_size, meta.malicious_size
                ),
            )));
        }
        debug_assert!(opts.journal.is_none(), "resume appends to `path`");
        let opened = JournalWriter::open_append(path, &report.summary)?;
        let mut opts = RunOpts {
            journal: Some(&opened),
            ..opts
        };
        let replayed = split_campaigns(&report.visits, &report.checkpoints);
        let study = SnapshotStudy::run_campaigns(config, report.store, &replayed, &mut opts);
        journal_intact(&opened).map(|()| study)
    }

    fn run_campaigns(
        config: SnapshotStudyConfig,
        telemetry: TelemetryStore,
        replayed: &BTreeMap<(String, String), kt_crawler::CampaignReplay>,
        opts: &mut RunOpts<'_>,
    ) -> SnapshotStudy {
        let series = SnapshotSeries::generate(&config.series);
        let seed = config.series.seed;
        let mut snapshots = SnapshotStore::new();
        let mut stats = BTreeMap::new();
        let mut work = SnapshotWork::default();
        let mut killed = false;

        'snapshots: for (k, snap) in series.snapshots.iter().enumerate() {
            let label = snap.label.clone();
            let plan = if k == 0 || !config.incremental {
                IncrementalPlan::full(snap)
            } else {
                IncrementalPlan::between(&series.snapshots[k - 1], snap, |d| {
                    content_changed(seed, d.as_str(), k, config.content_churn)
                })
            };
            work.full_visits += (snap.len() * SNAPSHOT_OSES.len()) as u64;
            work.executed_visits += (plan.visit_count() * SNAPSHOT_OSES.len()) as u64;

            let sites: Vec<WebSite> = plan
                .to_visit()
                .into_iter()
                .map(|d| {
                    synth_site(
                        seed,
                        d,
                        content_version(seed, d.as_str(), k, config.content_churn),
                    )
                })
                .collect();
            let jobs: Vec<CrawlJob<'_>> = sites.iter().map(CrawlJob::plain).collect();
            let crawl = CrawlId(label.clone());
            for os in SNAPSHOT_OSES {
                let mut cfg = CrawlConfig::paper(crawl.clone(), os, seed);
                cfg.workers = config.workers;
                let Some(s) = opts.campaign(&cfg, &jobs, &telemetry, replayed) else {
                    killed = true;
                    break 'snapshots;
                };
                stats.insert((label.clone(), os), s);
            }

            // Both OS campaigns done: fold this snapshot into the
            // content-addressed store. Ingest order is the telemetry
            // store's sorted (domain, OS) order — deterministic.
            let ranks: BTreeMap<&str, u32> = snap
                .entries
                .iter()
                .map(|e| (e.domain.as_str(), e.rank))
                .collect();
            for record in telemetry.crawl_records(&crawl) {
                let rank = ranks.get(record.domain.as_str()).copied();
                if snapshots.ingest(&label, &record, rank).fresh {
                    work.fresh_chunks += 1;
                }
            }
            let prev_label = format!("snap{:02}", k.saturating_sub(1));
            for domain in &plan.carried {
                let rank = ranks.get(domain.as_str()).copied();
                for os in SNAPSHOT_OSES {
                    let linked =
                        snapshots.link_from(&prev_label, &label, domain.as_str(), os, rank);
                    debug_assert!(linked, "carried site {domain:?} missing from {prev_label}");
                    work.linked_rows += 1;
                }
            }
        }

        let study = SnapshotStudy {
            config,
            series,
            snapshots,
            telemetry,
            stats,
            work,
        };
        if !killed {
            if let Some(t) = opts.trace {
                study.record_metrics(t);
            }
        }
        opts.sync_journal();
        study
    }

    /// Export the `snapshot_*` series for this run. Values derive from
    /// the plans and the final store, never from execution schedule.
    pub fn record_metrics(&self, trace: &Trace) {
        let none = Labels::new(&[]);
        for (name, value) in [
            (names::SNAPSHOT_VISITS_TOTAL, self.work.executed_visits),
            (names::SNAPSHOT_FULL_VISITS_TOTAL, self.work.full_visits),
            (names::SNAPSHOT_LINKED_TOTAL, self.work.linked_rows),
            (names::SNAPSHOT_CHUNKS_TOTAL, self.work.fresh_chunks),
        ] {
            trace.inc_counter(name, none.clone(), value);
        }
        for (name, value) in [
            (names::SNAPSHOT_DEDUP_RATIO, self.snapshots.dedup_ratio()),
            (
                names::SNAPSHOT_STORED_BYTES,
                self.snapshots.stored_bytes() as f64,
            ),
            (
                names::SNAPSHOT_LOGICAL_BYTES,
                self.snapshots.logical_bytes() as f64,
            ),
            (
                names::SNAPSHOT_INCREMENTAL_FRACTION,
                self.work.incremental_fraction(),
            ),
        ] {
            trace.set_gauge(name, none.clone(), value);
        }
    }

    /// Snapshot labels, oldest first.
    pub fn labels(&self) -> Vec<String> {
        self.series
            .snapshots
            .iter()
            .map(|s| s.label.clone())
            .collect()
    }

    /// The streaming longitudinal diff over every snapshot.
    pub fn diff(&self, workers: usize, trace: Option<&Trace>) -> SnapshotDiff {
        let labels = self.labels();
        let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
        diff_snapshots_traced(&self.snapshots, &refs, workers, trace)
    }
}

/// Average bytes one snapshot occupies logically (the "bytes of one"
/// denominator in the dedup acceptance target).
pub fn per_snapshot_logical_bytes(store: &SnapshotStore) -> f64 {
    let n = store.snapshot_count();
    if n == 0 {
        return 0.0;
    }
    store.logical_bytes() as f64 / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use kt_store::{KillMode, KillSpec, SegmentMode};

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("kt-snapshot-{name}-{}", std::process::id()))
    }

    #[test]
    fn incremental_run_does_a_fraction_of_full_work() {
        let study = SnapshotStudy::run(SnapshotStudyConfig::quick(7)).unwrap();
        assert_eq!(study.snapshots.snapshot_count(), 4);
        let fraction = study.work.incremental_fraction();
        // 4 snapshots at 25% churn: (1 + 3·~0.3)/4 ≈ 0.48.
        assert!(
            (0.30..0.60).contains(&fraction),
            "incremental fraction {fraction}"
        );
        assert!(study.work.linked_rows > 0);
        // N snapshots in well under N× (and under 2×·avg-snapshot ×2).
        assert!(
            study.snapshots.dedup_ratio() > 1.8,
            "dedup ratio {}",
            study.snapshots.dedup_ratio()
        );
        let stored = study.snapshots.stored_bytes() as f64;
        assert!(
            stored < 2.0 * per_snapshot_logical_bytes(&study.snapshots),
            "store holds 4 snapshots in {stored} bytes"
        );
        assert!(study.snapshots.audit().clean());
    }

    #[test]
    fn incremental_and_full_runs_diff_identically() {
        let incremental = SnapshotStudy::run(SnapshotStudyConfig::quick(13)).unwrap();
        let mut full_config = SnapshotStudyConfig::quick(13);
        full_config.incremental = false;
        let full = SnapshotStudy::run(full_config).unwrap();
        assert!(full.work.linked_rows == 0 && full.work.incremental_fraction() == 1.0);
        assert!(incremental.work.executed_visits < full.work.executed_visits);
        // The content-addressed store converges to the same chunks —
        // linking and recrawling an unchanged site are byte-equivalent.
        assert_eq!(
            incremental.snapshots.chunk_count(),
            full.snapshots.chunk_count()
        );
        assert_eq!(
            incremental.snapshots.logical_bytes(),
            full.snapshots.logical_bytes()
        );
        let a = incremental.diff(2, None);
        let b = full.diff(2, None);
        assert_eq!(a.adoption, b.adoption);
        assert_eq!(a.churn, b.churn);
        assert_eq!(a.flows, b.flows);
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn diff_tables_move_with_the_series() {
        let study = SnapshotStudy::run(SnapshotStudyConfig::quick(7)).unwrap();
        let diff = study.diff(4, None);
        assert_eq!(diff.adoption.len(), 4);
        assert_eq!(diff.churn.len(), 3);
        // The planted bands guarantee a live local-traffic population.
        assert!(diff.adoption.iter().all(|row| row.localhost > 0));
        // Churn plus movers guarantee non-trivial flow at every step.
        assert!(diff
            .flows
            .iter()
            .any(|f| f.entered + f.exited > 0 && f.persisted > 0));
    }

    #[test]
    fn snapshot_metrics_are_worker_count_invariant() {
        let export_with = |workers: usize| {
            let mut config = SnapshotStudyConfig::quick(7);
            config.workers = workers;
            let trace = Trace::new();
            let study = SnapshotStudy::run_with(
                config,
                RunOpts {
                    trace: Some(&trace),
                    ..RunOpts::default()
                },
            )
            .unwrap();
            let _ = study.diff(workers, Some(&trace));
            trace.export_prometheus()
        };
        let baseline = export_with(1);
        assert!(baseline.contains("snapshot_visits_total"));
        assert!(baseline.contains("snapshot_dedup_ratio"));
        for workers in [2, 4, 8] {
            assert_eq!(
                export_with(workers),
                baseline,
                "{workers}-worker snapshot export differs"
            );
        }
    }

    #[test]
    fn killed_spilled_run_resumes_to_identical_diff_tables() {
        // Satellite: TelemetryStore::with_spill + journal resume at a
        // snapshot boundary. Kill mid-way through the series' later
        // incremental campaigns, resume, and every longitudinal output
        // must be byte-identical to the uninterrupted run.
        let spill_dir = tmp("spill");
        let _ = std::fs::remove_dir_all(&spill_dir);
        let mut config = SnapshotStudyConfig::quick(7);
        config.spill = Some(SpillConfig::mmap(&spill_dir));
        let baseline = SnapshotStudy::run(SnapshotStudyConfig::quick(7)).unwrap();
        let baseline_render = baseline.diff(2, None).render();
        let baseline_trace = Trace::new();
        baseline.record_metrics(&baseline_trace);

        let path = tmp("journal.ktj");
        let _ = std::fs::remove_file(&path);
        let journal = JournalWriter::create(&path).unwrap();
        // Two thirds in: inside snapshot k ≥ 1's incremental crawl.
        let kill_at = (baseline.work.executed_visits * 2) / 3;
        journal.set_kill(Some(KillSpec {
            at_frame: kill_at,
            mode: KillMode::MidFrame,
        }));
        let killed = SnapshotStudy::run_with(
            config.clone(),
            RunOpts {
                journal: Some(&journal),
                ..RunOpts::default()
            },
        )
        .unwrap();
        assert!(journal.killed(), "run must die at frame {kill_at}");
        assert!(
            killed.snapshots.snapshot_count() < 4,
            "dead process should hold a partial store"
        );

        let resumed = SnapshotStudy::resume(&path, config, RunOpts::default()).unwrap();
        assert_eq!(resumed.stats, baseline.stats, "campaign stats match");
        assert_eq!(resumed.work, baseline.work, "plan-derived work matches");
        assert_eq!(
            resumed.snapshots.stored_bytes(),
            baseline.snapshots.stored_bytes()
        );
        assert_eq!(resumed.diff(2, None).render(), baseline_render);
        let resumed_trace = Trace::new();
        resumed.record_metrics(&resumed_trace);
        assert_eq!(
            resumed_trace.export_prometheus(),
            baseline_trace.export_prometheus(),
            "snapshot_* export identical across kill/resume"
        );
        std::fs::remove_file(&path).ok();
        std::fs::remove_dir_all(&spill_dir).ok();
    }

    #[test]
    fn resume_rejects_mismatched_series_config() {
        let path = tmp("mismatch.ktj");
        let _ = std::fs::remove_file(&path);
        let journal = JournalWriter::create(&path).unwrap();
        journal.set_kill(Some(KillSpec {
            at_frame: 40,
            mode: KillMode::MidFrame,
        }));
        let _ = SnapshotStudy::run_with(
            SnapshotStudyConfig::quick(7),
            RunOpts {
                journal: Some(&journal),
                ..RunOpts::default()
            },
        )
        .unwrap();
        let err = SnapshotStudy::resume(&path, SnapshotStudyConfig::quick(8), RunOpts::default());
        assert!(err.is_err(), "wrong seed must not resume");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn saved_store_reloads_and_diffs_identically() {
        let study = SnapshotStudy::run(SnapshotStudyConfig::quick(7)).unwrap();
        let dir = tmp("store");
        let _ = std::fs::remove_dir_all(&dir);
        study.snapshots.save(&dir).unwrap();
        let loaded = SnapshotStore::open(&dir, SegmentMode::Mmap).unwrap();
        let labels = study.labels();
        let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
        assert_eq!(
            kt_analysis::diff_snapshots(&loaded, &refs, 2).render(),
            study.diff(2, None).render(),
            "mmap-reloaded store diffs identically"
        );
        assert!(kt_store::snapshot_fsck(&dir).unwrap().clean());
        std::fs::remove_dir_all(&dir).ok();
    }
}
