//! The four workloads: input shapes, set-up, the untraced operation and
//! the output oracle.
//!
//! Every operation is a closed loop of one client: the next one starts
//! when the previous one has ended. Inputs are a pure function of the
//! seed, and every file an operation writes goes to the directory it is
//! handed, which the caller measures and then removes.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use knock_talk::analysis::detect::SiteLocalActivity;
use knock_talk::analysis::report::{category_code, DurabilityReport};
use knock_talk::analysis::{
    analyze_crawl_par, classify_site, diff_snapshots, CrawlAnalysis, ReasonClass,
};
use knock_talk::crawler::{CrawlJob, CrawlStats};
use knock_talk::store::snapshot::SnapshotStore;
use knock_talk::store::{
    decode_view, load_any, replay, save, CrawlId, JournalWriter, KillMode, KillSpec, SegmentMode,
    TelemetryStore,
};
use knock_talk::trace::{live_bytes, peak_bytes, reset_peak_bytes};
use knock_talk::webgen::WebPopulation;
use knock_talk::{SnapshotStudy, SnapshotStudyConfig, Study, StudyConfig};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Repro,
    Reanalyze,
    Recover,
    Longitudinal,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Repro,
        Workload::Reanalyze,
        Workload::Recover,
        Workload::Longitudinal,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Repro => "repro",
            Workload::Reanalyze => "reanalyze",
            Workload::Recover => "recover",
            Workload::Longitudinal => "longitudinal",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The study `knocktalk repro` runs when no `--scale` is given
/// (2,000 top-list and 1,200 malicious sites), at `workers`.
pub fn study_config(seed: u64, workers: usize) -> StudyConfig {
    let mut config = StudyConfig::quick(seed);
    config.workers = workers;
    config
}

/// The series `knocktalk snapshot crawl` runs with its default flags,
/// at `workers`.
pub fn series_config(seed: u64, workers: usize) -> SnapshotStudyConfig {
    let mut config = SnapshotStudyConfig::quick(seed);
    config.workers = workers;
    config
}

/// The job list of one campaign, built the way the study builds it.
pub fn campaign_jobs<'a>(population: &'a WebPopulation, crawl: &CrawlId) -> Vec<CrawlJob<'a>> {
    let plain = |site| CrawlJob {
        site,
        malicious_category: None,
    };
    match crawl.as_str() {
        "top2020" => population.sites2020.iter().map(plain).collect(),
        "top2021" => population.sites2021.iter().map(plain).collect(),
        _ => population
            .malicious_sites
            .iter()
            .zip(&population.blocklist.entries)
            .map(|(site, entry)| CrawlJob {
                site,
                malicious_category: Some(category_code(entry.category)),
            })
            .collect(),
    }
}

/// What an operation produced, reduced to what must repeat exactly:
/// a hash of the rendered output plus the work counts behind it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    pub output_hash: u64,
    pub output_bytes: usize,
    pub counts: Vec<(&'static str, u64)>,
}

impl Fingerprint {
    pub fn new(output: &str, counts: Vec<(&'static str, u64)>) -> Fingerprint {
        Fingerprint {
            output_hash: fnv1a(output.as_bytes()),
            output_bytes: output.len(),
            counts,
        }
    }

    pub fn count(&self, name: &str) -> u64 {
        self.counts
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    pub fn describe(&self) -> String {
        let mut out = format!(
            "output {} bytes, hash {:016x}",
            self.output_bytes, self.output_hash
        );
        for (name, value) in &self.counts {
            let _ = write!(out, ", {name} {value}");
        }
        out
    }
}

pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Visits executed by a set of campaigns: first attempts, in-place
/// retries and end-of-campaign recrawls.
pub fn executed_visits<'a>(stats: impl IntoIterator<Item = &'a CrawlStats>) -> u64 {
    stats
        .into_iter()
        .map(|s| (s.attempted + s.retries + s.recrawled) as u64)
        .sum()
}

/// NetLog events held by a store, counted by decoding every record.
pub fn store_events(store: &TelemetryStore) -> u64 {
    let mut events = 0;
    for crawl in store.crawl_ids() {
        for shard in 0..store.shard_count() {
            for raw in store.shard_raw_on(&crawl, shard, None) {
                events += decode_view(&raw).map_or(0, |v| v.events.len() as u64);
            }
        }
    }
    events
}

/// Every table, figure and extension, as `knocktalk repro` prints them.
pub fn render_study(study: &Study) -> String {
    let mut out = String::new();
    for (id, text) in study.all_experiments() {
        let _ = writeln!(out, "=== [{id}] ===\n{text}");
    }
    for id in knock_talk::experiments::EXTENDED_IDS {
        if let Some(text) = study.experiment(id) {
            let _ = writeln!(out, "=== [{id}] (extension) ===\n{text}");
        }
    }
    out
}

pub fn study_fingerprint(study: &Study, output: &str) -> Fingerprint {
    Fingerprint::new(
        output,
        vec![
            ("visits", executed_visits(study.stats.values())),
            ("records", study.store.len() as u64),
            ("events", store_events(&study.store)),
            ("store_bytes", study.store.byte_size() as u64),
        ],
    )
}

/// The locally-active sites of one analysis with their behaviour class.
pub fn classify_active(analysis: &CrawlAnalysis) -> Vec<(&SiteLocalActivity, ReasonClass)> {
    analysis
        .sites
        .iter()
        .filter(|s| s.has_localhost() || s.has_lan())
        .map(|s| (s, classify_site(s)))
        .collect()
}

/// One campaign's section of the `knocktalk analyze` report.
pub fn write_analysis_section(
    out: &mut String,
    crawl: &CrawlId,
    visits: usize,
    active: &[(&SiteLocalActivity, ReasonClass)],
) {
    let _ = writeln!(
        out,
        "[{}] {} visits, {} locally-active sites:",
        crawl.as_str(),
        visits,
        active.len()
    );
    for (site, class) in active {
        let _ = writeln!(
            out,
            "  {:<40} {:<20} localhost on {}, LAN on {}",
            site.domain,
            class.label(),
            site.localhost_os,
            site.lan_os
        );
    }
}

/// Prepared inputs of one workload plus the reference output.
pub struct Setup {
    pub workload: Workload,
    pub seed: u64,
    pub workers: usize,
    pub reference: Fingerprint,
    /// `reanalyze`: the saved KTSTORE file.
    pub store_path: PathBuf,
    /// `recover`: the journal frame at which the study dies.
    pub kill_frame: u64,
}

/// Build a workload's inputs under `dir` and compute its reference
/// output with one worker.
pub fn setup(workload: Workload, seed: u64, workers: usize, dir: &Path) -> Result<Setup, String> {
    let mut setup = Setup {
        workload,
        seed,
        workers,
        reference: Fingerprint::new("", Vec::new()),
        store_path: dir.join("study.ktstore"),
        kill_frame: 0,
    };
    let reference_dir = dir.join("reference");
    std::fs::create_dir_all(&reference_dir).map_err(|e| e.to_string())?;
    match workload {
        Workload::Repro | Workload::Recover => {
            // Recovered tables must equal the uncrashed study's.
            setup.reference = repro_op(seed, 1, &reference_dir)?.fingerprint;
            // Die mid-frame about halfway through the study's visits.
            setup.kill_frame = setup.reference.count("records") / 2;
        }
        Workload::Reanalyze => {
            let study = Study::run(study_config(seed, workers));
            save(&study.store, &setup.store_path).map_err(|e| e.to_string())?;
            setup.reference = reanalyze_op(&setup.store_path, 1, &reference_dir)?.fingerprint;
        }
        Workload::Longitudinal => {
            setup.reference = longitudinal_op(seed, 1, &reference_dir)?.fingerprint;
        }
    }
    std::fs::remove_dir_all(&reference_dir).map_err(|e| e.to_string())?;
    Ok(setup)
}

/// One timed operation.
pub struct OpRun {
    /// Real seconds from start to finished output.
    pub secs: f64,
    /// Real seconds from a restart on on-disk state to finished output.
    pub restart_secs: f64,
    /// Peak live heap above the level at the start, bytes.
    pub peak_heap: u64,
    /// Visits executed, or records analysed for `reanalyze`.
    pub units: u64,
    pub fingerprint: Fingerprint,
}

/// Wall clock plus the allocator's peak-heap watermark.
struct Meter {
    start: Instant,
    live0: u64,
}

impl Meter {
    fn start() -> Meter {
        reset_peak_bytes();
        Meter {
            start: Instant::now(),
            live0: live_bytes(),
        }
    }

    fn stop(&self) -> (f64, u64) {
        (
            self.start.elapsed().as_secs_f64(),
            peak_bytes().saturating_sub(self.live0),
        )
    }
}

pub fn run_op(setup: &Setup, dir: &Path) -> Result<OpRun, String> {
    match setup.workload {
        Workload::Repro => repro_op(setup.seed, setup.workers, dir),
        Workload::Reanalyze => reanalyze_op(&setup.store_path, setup.workers, dir),
        Workload::Recover => recover_op(setup.seed, setup.workers, setup.kill_frame, dir),
        Workload::Longitudinal => longitudinal_op(setup.seed, setup.workers, dir),
    }
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// `knocktalk repro`: population, eight crawls, three analyses, every
/// table and figure.
pub fn repro_op(seed: u64, workers: usize, dir: &Path) -> Result<OpRun, String> {
    let meter = Meter::start();
    let study = Study::run(study_config(seed, workers));
    let output = render_study(&study);
    write(&dir.join("tables.txt"), &output)?;
    let (secs, peak_heap) = meter.stop();
    let fingerprint = study_fingerprint(&study, &output);
    Ok(OpRun {
        secs,
        restart_secs: secs,
        peak_heap,
        units: fingerprint.count("visits"),
        fingerprint,
    })
}

/// `knocktalk analyze`: load a saved store, analyse every campaign and
/// classify every locally-active site.
pub fn reanalyze_op(store_path: &Path, workers: usize, dir: &Path) -> Result<OpRun, String> {
    let meter = Meter::start();
    let report = load_any(store_path).map_err(|e| e.to_string())?;
    let mut output = String::new();
    for crawl in report.store.crawl_ids() {
        let analysis = analyze_crawl_par(&report.store, &crawl, workers);
        write_analysis_section(
            &mut output,
            &crawl,
            analysis.visits,
            &classify_active(&analysis),
        );
    }
    write(&dir.join("analysis.txt"), &output)?;
    let (secs, peak_heap) = meter.stop();
    let records = report.store.len() as u64;
    let fingerprint = Fingerprint::new(
        &output,
        vec![
            ("records", records),
            ("events", store_events(&report.store)),
            ("corrupt", report.corrupt as u64),
        ],
    );
    Ok(OpRun {
        secs,
        restart_secs: secs,
        peak_heap,
        units: records,
        fingerprint,
    })
}

/// `knocktalk repro --journal --kill-frames` followed by `knocktalk
/// resume`: the study dies mid-frame at `kill_frame`, then a restart
/// replays the journal and finishes the tables.
pub fn recover_op(seed: u64, workers: usize, kill_frame: u64, dir: &Path) -> Result<OpRun, String> {
    let path = dir.join("study.ktj");
    let meter = Meter::start();
    let journal = JournalWriter::create(&path).map_err(|e| e.to_string())?;
    journal.set_kill(Some(KillSpec {
        at_frame: kill_frame,
        mode: KillMode::MidFrame,
    }));
    drop(Study::run_journaled(
        study_config(seed, workers),
        Some(&journal),
    ));
    if !journal.killed() {
        return Err(format!(
            "the study finished before journal frame {kill_frame}"
        ));
    }
    drop(journal);
    let restart = Instant::now();
    let (study, damage) = resume(&path)?;
    let output = render_study(&study);
    write(&dir.join("durability.txt"), &damage)?;
    write(&dir.join("tables.txt"), &output)?;
    let restart_secs = restart.elapsed().as_secs_f64();
    let (secs, peak_heap) = meter.stop();
    let fingerprint = study_fingerprint(&study, &output);
    Ok(OpRun {
        secs,
        restart_secs,
        peak_heap,
        units: fingerprint.count("visits"),
        fingerprint,
    })
}

/// `knocktalk resume`: the damage summary from a first replay, then the
/// resumed study.
pub fn resume(path: &Path) -> Result<(Study, String), String> {
    let replayed = replay(path).map_err(|e| e.to_string())?;
    let damage = DurabilityReport::from_replay(&replayed).render();
    drop(replayed);
    let study = Study::resume(path).map_err(|e| e.to_string())?;
    Ok((study, damage))
}

/// `knocktalk snapshot crawl --store` followed by `knocktalk snapshot
/// diff --store`: an incremental series saved to disk, reopened through
/// mmap and diffed.
pub fn longitudinal_op(seed: u64, workers: usize, dir: &Path) -> Result<OpRun, String> {
    let store_dir = dir.join("store");
    let meter = Meter::start();
    let study = SnapshotStudy::run(series_config(seed, workers)).map_err(|e| e.to_string())?;
    study
        .snapshots
        .save(&store_dir)
        .map_err(|e| format!("saving snapshot store: {e}"))?;
    let work = study.work;
    drop(study);
    let restart = Instant::now();
    let store = SnapshotStore::open(&store_dir, SegmentMode::Mmap)
        .map_err(|e| format!("opening snapshot store: {e}"))?;
    let output = render_diff(&store, workers);
    write(&dir.join("diff.txt"), &output)?;
    let restart_secs = restart.elapsed().as_secs_f64();
    let (secs, peak_heap) = meter.stop();
    let fingerprint = Fingerprint::new(&output, series_counts(&store, work.executed_visits));
    Ok(OpRun {
        secs,
        restart_secs,
        peak_heap,
        units: work.executed_visits,
        fingerprint,
    })
}

pub fn labels(store: &SnapshotStore) -> Vec<String> {
    store.labels().iter().map(|l| l.to_string()).collect()
}

pub fn render_diff(store: &SnapshotStore, workers: usize) -> String {
    let labels = labels(store);
    let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
    diff_snapshots(store, &refs, workers).render()
}

pub fn series_counts(store: &SnapshotStore, executed_visits: u64) -> Vec<(&'static str, u64)> {
    let rows: usize = labels(store)
        .iter()
        .filter_map(|l| store.manifest(l))
        .map(|m| m.entries.len())
        .sum();
    vec![
        ("visits", executed_visits),
        ("manifest_rows", rows as u64),
        ("chunks", store.chunk_count() as u64),
    ]
}

/// Total bytes of the files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}
