//! The traced run: a per-layer ledger timed from outside the program.
//!
//! One pass runs, in order: the selected workload's untraced operation;
//! the traced decomposition of every workload (each layer's public
//! entry point called inside a span, output checked against the same
//! reference as the untraced run); and the layer probes, which call the
//! layers below the top-level entry points directly on the same inputs. The
//! probes include the scaling probes, which time the crawler, analysis
//! and diff at one worker against the worker count of the run. Passes
//! repeat for the run's seconds; every metric is a median over passes.
//!
//! `trace.overhead_share` compares the selected workload's traced
//! decomposition with its untraced operation from the same passes.
//! `trace.unattributed_share` is the part of the untraced `repro`
//! operation (`Study::run` and the rendering) that the layer spans of
//! the traced decomposition do not cover: every pass also runs the
//! untraced `repro` for it.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use knock_talk::analysis::detect::detect_local_with_page_view;
use knock_talk::analysis::{analyze_crawl_par, diff_snapshots};
use knock_talk::browser::{Browser, BrowserConfig, PageLoadOutcome, PnaMode, World};
use knock_talk::crawler::{run_crawl, CrawlConfig, CrawlJob};
use knock_talk::faults::{is_transient, SalvagedVisit};
use knock_talk::netbase::Os;
use knock_talk::netlog::FlowSetView;
use knock_talk::store::codec::encode;
use knock_talk::store::journal::{VisitDelta, FLAG_FINAL};
use knock_talk::store::snapshot::SnapshotStore;
use knock_talk::store::{
    decode_view, load_any, replay, save, CrawlId, JournalWriter, KillMode, KillSpec, LoadOutcome,
    SegmentMode, TelemetryStore, VisitRecord,
};
use knock_talk::study::campaigns;
use knock_talk::trace::count_allocs;
use knock_talk::webgen::{WebPopulation, WebSite};
use knock_talk::{SnapshotStudy, Study};

use crate::spans::Recorder;
use crate::stats::median;
use crate::workloads::{
    self, campaign_jobs, classify_active, executed_visits, render_diff, render_study,
    series_config, series_counts, study_config, study_fingerprint, write_analysis_section,
    Fingerprint, Setup, Workload,
};
use crate::{fresh_dir, Metrics, Report};

/// Every per-layer metric, in report order, with its unit.
const LAYER_METRICS: [(&str, &str); 40] = [
    ("webgen.generate_s", "s"),
    ("browser.world_build_us", "us"),
    ("browser.visit_us", "us"),
    ("browser.events_per_visit", "count"),
    ("browser.allocs_per_visit", "count"),
    ("codec.encode_ns_per_event", "ns"),
    ("codec.decode_view_ns_per_event", "ns"),
    ("codec.decode_view_allocs_per_event", "count"),
    ("codec.bytes_per_visit", "B"),
    ("store.append_us", "us"),
    ("store.scan_ns_per_record", "ns"),
    ("store.load_s", "s"),
    ("store.save_s", "s"),
    ("journal.append_us_per_frame", "us"),
    ("journal.fsyncs", "count"),
    ("journal.frames_per_fsync", "count"),
    ("journal.scan_mb_per_s", "MB/s"),
    ("journal.replay_s", "s"),
    ("crawler.campaign_s", "s"),
    ("crawler.attempts_per_site", "count"),
    ("crawler.speedup_wN", "x"),
    ("crawler.overhead_share", "share"),
    ("netlog.flow_build_ns_per_event", "ns"),
    ("analysis.detect_ns_per_event", "ns"),
    ("analysis.classify_us_per_site", "us"),
    ("analysis.analyze_s", "s"),
    ("analysis.allocs_per_record", "count"),
    ("analysis.speedup_wN", "x"),
    ("analysis.join_share", "share"),
    ("snapshot.series_s", "s"),
    ("snapshot.executed_over_full", "share"),
    ("snapshot.dedup_ratio", "x"),
    ("snapshot.save_s", "s"),
    ("snapshot.open_s", "s"),
    ("snapshot.manifest_bytes", "B"),
    ("diff.rows_per_s", "1/s"),
    ("diff.speedup_wN", "x"),
    ("render.s", "s"),
    ("trace.unattributed_share", "share"),
    ("trace.overhead_share", "share"),
];

/// Per-metric samples (one per pass) plus the pass's pass/fail tally.
struct Ledger {
    rec: Recorder,
    samples: BTreeMap<&'static str, Vec<f64>>,
    attempted: u64,
    failed: u64,
    workers: usize,
}

impl Ledger {
    fn add(&mut self, name: &'static str, value: f64) {
        debug_assert!(LAYER_METRICS.iter().any(|(n, _)| *n == name), "{name}");
        self.samples.entry(name).or_default().push(value);
    }

    /// Count one checked output; a mismatch is a failed operation.
    fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("{what}: output differs from the reference");
        }
    }

    fn secs(&self, span: usize) -> f64 {
        self.rec.seconds(span)
    }
}

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    workers: usize,
    dir: &Path,
    spans_out: Option<&Path>,
) -> Result<Report, String> {
    let setups: Vec<Setup> = Workload::ALL
        .into_iter()
        .map(|w| {
            workloads::setup(
                w,
                seed,
                workers,
                &fresh_dir(dir.join(format!("setup-{}", w.name())))?,
            )
        })
        .collect::<Result<_, _>>()?;
    let setup = |w: Workload| &setups[Workload::ALL.iter().position(|x| *x == w).expect("known")];
    let mut ledger = Ledger {
        rec: Recorder::new(),
        samples: BTreeMap::new(),
        attempted: 0,
        failed: 0,
        workers,
    };
    let mut untraced = Vec::new();
    let mut untraced_repro = Vec::new();
    let mut repro_layers = Vec::new();
    let mut traced = Vec::new();
    let start = Instant::now();
    let mut pass = 0;
    while pass == 0 || start.elapsed().as_secs_f64() < seconds {
        pass += 1;
        let pass_dir = fresh_dir(dir.join(format!("pass-{pass}")))?;

        let op_dir = fresh_dir(pass_dir.join("untraced"))?;
        let run = workloads::run_op(setup(workload), &op_dir)?;
        ledger.check(
            workload.name(),
            run.fingerprint == setup(workload).reference,
        );
        untraced.push(run.secs);
        if workload == Workload::Repro {
            untraced_repro.push(run.secs);
        } else {
            let run = workloads::run_op(setup(Workload::Repro), &op_dir)?;
            ledger.check("repro", run.fingerprint == setup(Workload::Repro).reference);
            untraced_repro.push(run.secs);
        }

        let repro = traced_repro(
            &mut ledger,
            setup(Workload::Repro),
            &fresh_dir(pass_dir.join("repro"))?,
        )?;
        repro_layers.push(repro.layers_secs);
        crawl_probes(&mut ledger, &repro);
        let reanalyze = traced_reanalyze(
            &mut ledger,
            setup(Workload::Reanalyze),
            &fresh_dir(pass_dir.join("reanalyze"))?,
        )?;
        analysis_probes(&mut ledger, &reanalyze, &pass_dir)?;
        let recover = traced_recover(
            &mut ledger,
            setup(Workload::Recover),
            &repro.study,
            &fresh_dir(pass_dir.join("recover"))?,
        )?;
        let longitudinal = traced_longitudinal(
            &mut ledger,
            setup(Workload::Longitudinal),
            &fresh_dir(pass_dir.join("longitudinal"))?,
        )?;

        traced.push(match workload {
            Workload::Repro => repro.secs,
            Workload::Reanalyze => reanalyze.secs,
            Workload::Recover => recover,
            Workload::Longitudinal => longitudinal,
        });
        drop(repro);
        drop(reanalyze);
        let _ = std::fs::remove_dir_all(&pass_dir);
    }
    let untraced_s = median(&untraced);
    ledger.add("trace.overhead_share", median(&traced) / untraced_s - 1.0);
    ledger.add(
        "trace.unattributed_share",
        1.0 - median(&repro_layers) / median(&untraced_repro),
    );

    if let Some(path) = spans_out {
        std::fs::write(path, ledger.rec.to_jsonl())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    eprint!("{}", ledger.rec.render_totals());
    let metrics: Metrics = LAYER_METRICS
        .iter()
        .map(|(name, unit)| {
            (
                *name,
                ledger.samples.get(name).map_or(f64::NAN, |s| median(s)),
                *unit,
            )
        })
        .collect();
    if let Some((name, _, _)) = metrics.iter().find(|(_, v, _)| v.is_nan()) {
        return Err(format!("the ledger recorded no sample for {name}"));
    }
    Ok(Report {
        attempted: ledger.attempted,
        failed: ledger.failed,
        notes: vec![format!(
            "{pass} passes; untraced {} operation median {untraced_s:.4} s, traced {:.4} s",
            workload.name(),
            median(&traced)
        )],
        metrics,
    })
}

/// The traced `repro` decomposition and what the probes reuse.
struct Repro {
    study: Study,
    secs: f64,
    /// Seconds covered by the layer spans under the operation's root.
    layers_secs: f64,
    /// Seconds of each (campaign, OS) crawl at the run's worker count.
    crawl_secs: BTreeMap<(String, Os), f64>,
}

fn traced_repro(ledger: &mut Ledger, setup: &Setup, dir: &Path) -> Result<Repro, String> {
    let config = study_config(setup.seed, ledger.workers);
    ledger.rec.next_op();
    let mut crawl_spans = Vec::new();
    let mut generate = 0;
    let mut render = 0;
    let ((study, output), root) = ledger.rec.span("op.repro", |rec| {
        let (population, span) = rec.span("webgen.generate", |_| {
            WebPopulation::generate(config.population)
        });
        generate = span;
        let store = TelemetryStore::new();
        let mut stats = BTreeMap::new();
        for (crawl, oses) in campaigns() {
            let jobs = campaign_jobs(&population, &crawl);
            for os in oses {
                let mut cfg = CrawlConfig::paper(crawl.clone(), os, config.population.seed);
                cfg.workers = config.workers;
                let (s, span) = rec.span("crawler.run_crawl", |_| run_crawl(&jobs, &cfg, &store));
                crawl_spans.push(((crawl.as_str().to_string(), os), span));
                stats.insert((crawl.as_str().to_string(), os), s);
            }
        }
        let analyses = campaigns()
            .into_iter()
            .map(|(crawl, _)| {
                let (analysis, _) = rec.span("analysis.analyze_crawl", |_| {
                    analyze_crawl_par(&store, &crawl, config.workers)
                });
                (crawl.as_str().to_string(), analysis)
            })
            .collect();
        let study = Study {
            config,
            population,
            store,
            stats,
            analyses,
        };
        let (output, span) = rec.span("render", |_| render_study(&study));
        render = span;
        let written = rec
            .span("output.write", |_| {
                std::fs::write(dir.join("tables.txt"), &output)
            })
            .0;
        (study, written.map(|_| output))
    });
    let output = output.map_err(err)?;
    ledger.check(
        "traced repro",
        study_fingerprint(&study, &output) == setup.reference,
    );

    let secs = ledger.secs(root);
    let crawl_total: f64 = crawl_spans.iter().map(|(_, s)| ledger.secs(*s)).sum();
    ledger.add("webgen.generate_s", ledger.secs(generate));
    ledger.add("crawler.campaign_s", crawl_total / crawl_spans.len() as f64);
    ledger.add("render.s", ledger.secs(render));
    let sites: usize = study.stats.values().map(|s| s.attempted).sum();
    ledger.add(
        "crawler.attempts_per_site",
        executed_visits(study.stats.values()) as f64 / sites as f64,
    );
    ledger.add(
        "codec.bytes_per_visit",
        study.store.byte_size() as f64 / study.store.len() as f64,
    );
    let crawl_secs = crawl_spans
        .iter()
        .map(|(key, span)| (key.clone(), ledger.secs(*span)))
        .collect();
    Ok(Repro {
        study,
        secs,
        layers_secs: secs - ledger.rec.self_ns(root) as f64 / 1e9,
        crawl_secs,
    })
}

/// Crawler scaling plus the browser, codec and store layers under it:
/// every campaign again at one worker, then one campaign replayed
/// serially through `World::build`, `Browser::visit_faulted`,
/// `codec::encode` and `TelemetryStore::append`.
fn crawl_probes(ledger: &mut Ledger, repro: &Repro) {
    let population = &repro.study.population;
    let seed = repro.study.config.population.seed;
    ledger.rec.next_op();
    let mut one_worker = BTreeMap::new();
    let mut invariant = true;
    for (crawl, oses) in campaigns() {
        let jobs = campaign_jobs(population, &crawl);
        for os in oses {
            let mut cfg = CrawlConfig::paper(crawl.clone(), os, seed);
            cfg.workers = 1;
            let store = TelemetryStore::new();
            let (mut stats, span) = ledger
                .rec
                .span("crawler.run_crawl_w1", |_| run_crawl(&jobs, &cfg, &store));
            let key = (crawl.as_str().to_string(), os);
            // The simulated makespan depends on the worker count; every
            // other tally must not.
            let mut expected = repro.study.stats[&key].clone();
            (stats.makespan_ms, expected.makespan_ms) = (0, 0);
            invariant &= stats == expected
                && store.crawl_records_on(&crawl, os)
                    == repro.study.store.crawl_records_on(&crawl, os);
            one_worker.insert(key, ledger.secs(span));
        }
    }
    ledger.check("crawl at one worker", invariant);
    let total = |m: &BTreeMap<(String, Os), f64>| m.values().sum::<f64>();
    ledger.add(
        "crawler.speedup_wN",
        total(&one_worker) / total(&repro.crawl_secs),
    );

    let crawl = CrawlId::top2020();
    let os = Os::Linux;
    let cfg = CrawlConfig::paper(crawl.clone(), os, seed);
    let browser = BrowserConfig {
        os,
        window_ms: cfg.window_ms,
        safe_browsing: false,
        incognito: true,
        pna: PnaMode::Off,
        crawl_internal: cfg.crawl_internal,
        profile: cfg.profile,
    };
    let jobs = campaign_jobs(population, &crawl);
    let store = TelemetryStore::new();
    let mut t = ProbeTotals::default();
    ledger.rec.span("probe.crawl", |rec| {
        let mut parked = Vec::new();
        for (index, job) in jobs.iter().enumerate() {
            let (mut world, span) = rec.span("browser.world_build", |_| {
                World::build(std::slice::from_ref(job.site), os, seed)
            });
            t.world_ns += rec.spans()[span].duration_ns();
            let mut attempt = 0;
            let record = loop {
                let record = probe_visit(rec, &mut t, &mut world, &cfg, browser, job, attempt);
                match record.outcome {
                    LoadOutcome::Error(e)
                        if is_transient(e) && attempt + 1 < cfg.retry.max_attempts =>
                    {
                        attempt += 1;
                    }
                    LoadOutcome::Error(e) => {
                        if is_transient(e) && cfg.retry.recrawl {
                            parked.push(index);
                        }
                        break record;
                    }
                    _ => break record,
                }
            };
            probe_append(rec, &mut t, &store, &record);
        }
        if parked.is_empty() {
            return;
        }
        // The end-of-campaign recrawl: every parked site once more, in
        // domain order, through one world built over all of them.
        parked.sort_by(|a, b| {
            let domain = |i: &usize| jobs[*i].site.domain.as_str();
            domain(a).cmp(domain(b))
        });
        let sites: Vec<WebSite> = parked.iter().map(|&i| jobs[i].site.clone()).collect();
        let (mut world, span) = rec.span("browser.world_build", |_| World::build(&sites, os, seed));
        t.world_ns += rec.spans()[span].duration_ns();
        for &index in &parked {
            let attempt = cfg.retry.max_attempts;
            let record = probe_visit(
                rec,
                &mut t,
                &mut world,
                &cfg,
                browser,
                &jobs[index],
                attempt,
            );
            probe_append(rec, &mut t, &store, &record);
        }
    });
    let key = (crawl.as_str().to_string(), os);
    ledger.check(
        "serial crawl probe",
        t.visits == executed_visits([&repro.study.stats[&key]])
            && store.crawl_records_on(&crawl, os) == repro.study.store.crawl_records_on(&crawl, os),
    );
    let sites = jobs.len() as f64;
    ledger.add("browser.world_build_us", t.world_ns as f64 / 1e3 / sites);
    ledger.add(
        "browser.visit_us",
        t.visit_ns as f64 / 1e3 / t.visits as f64,
    );
    ledger.add(
        "browser.events_per_visit",
        t.visit_events as f64 / t.visits as f64,
    );
    ledger.add(
        "browser.allocs_per_visit",
        t.allocs as f64 / t.visits as f64,
    );
    ledger.add(
        "codec.encode_ns_per_event",
        t.encode_ns as f64 / t.record_events as f64,
    );
    ledger.add(
        "store.append_us",
        t.append_ns as f64 / 1e3 / t.appends as f64,
    );
    // The store encodes inside `append`, so the append time already
    // holds the encode; the separate encode call is not added again.
    let layers_s = (t.world_ns + t.visit_ns + t.append_ns) as f64 / 1e9;
    let crawl_w1 = one_worker[&key];
    ledger.add("crawler.overhead_share", 1.0 - layers_s / crawl_w1);
}

#[derive(Default)]
struct ProbeTotals {
    world_ns: u64,
    visit_ns: u64,
    encode_ns: u64,
    append_ns: u64,
    visits: u64,
    appends: u64,
    allocs: u64,
    visit_events: u64,
    record_events: u64,
}

/// One attempt the way the crawler makes it: `visit_faulted` under
/// `catch_unwind`, a panic quarantined as a crashed visit with whatever
/// events it salvaged.
fn probe_visit(
    rec: &mut Recorder,
    t: &mut ProbeTotals,
    world: &mut World,
    cfg: &CrawlConfig,
    browser: BrowserConfig,
    job: &CrawlJob<'_>,
    attempt: u32,
) -> VisitRecord {
    let faults = cfg.faults.visit_faults(job.site.domain.as_str(), attempt);
    let ((result, allocs), span) = rec.span("browser.visit", |_| {
        let (result, allocs, _) = count_allocs(|| {
            catch_unwind(AssertUnwindSafe(|| {
                Browser::new(world, browser, cfg.seed).visit_faulted(job.site, &faults)
            }))
        });
        (result, allocs)
    });
    t.visit_ns += rec.spans()[span].duration_ns();
    t.visits += 1;
    t.allocs += allocs;
    let (outcome, loaded_at_ms, domain, events) = match result {
        Ok(result) => match result.outcome {
            PageLoadOutcome::Loaded { at_ms } => (
                LoadOutcome::Success,
                at_ms,
                result.domain,
                result.capture.events,
            ),
            PageLoadOutcome::Failed(e) => (
                LoadOutcome::Error(e),
                0,
                result.domain,
                result.capture.events,
            ),
        },
        Err(payload) => (
            LoadOutcome::Crashed,
            0,
            job.site.domain.as_str().to_string(),
            payload
                .downcast::<SalvagedVisit>()
                .map_or(Vec::new(), |salvaged| salvaged.events),
        ),
    };
    t.visit_events += events.len() as u64;
    VisitRecord {
        crawl: cfg.crawl.clone(),
        domain,
        rank: job.site.rank,
        malicious_category: job.malicious_category,
        os: cfg.os,
        outcome,
        loaded_at_ms,
        events,
    }
}

/// Encode a probe record on its own, then append it to the store.
fn probe_append(
    rec: &mut Recorder,
    t: &mut ProbeTotals,
    store: &TelemetryStore,
    record: &VisitRecord,
) {
    t.record_events += record.events.len() as u64;
    let (bytes, span) = rec.span("codec.encode", |_| encode(record));
    black_box(bytes);
    t.encode_ns += rec.spans()[span].duration_ns();
    let (_, span) = rec.span("store.append", |_| store.append(record));
    t.append_ns += rec.spans()[span].duration_ns();
    t.appends += 1;
}

/// The traced `reanalyze` decomposition.
struct Reanalyze {
    store: TelemetryStore,
    secs: f64,
    analyze_secs: f64,
    analyses: Vec<knock_talk::analysis::CrawlAnalysis>,
}

fn traced_reanalyze(ledger: &mut Ledger, setup: &Setup, dir: &Path) -> Result<Reanalyze, String> {
    let workers = ledger.workers;
    ledger.rec.next_op();
    let mut analyze_ns = 0;
    let mut classify_ns = 0;
    let mut classified = 0;
    let mut load = 0;
    let (result, root) = ledger.rec.span("op.reanalyze", |rec| -> Result<_, String> {
        let (report, span) = rec.span("store.load", |_| load_any(&setup.store_path));
        load = span;
        let report = report.map_err(err)?;
        let mut output = String::new();
        let mut analyses = Vec::new();
        for crawl in report.store.crawl_ids() {
            let (analysis, span) = rec.span("analysis.analyze_crawl", |_| {
                analyze_crawl_par(&report.store, &crawl, workers)
            });
            analyze_ns += rec.spans()[span].duration_ns();
            let (active, span) = rec.span("analysis.classify", |_| classify_active(&analysis));
            classify_ns += rec.spans()[span].duration_ns();
            classified += active.len();
            write_analysis_section(&mut output, &crawl, analysis.visits, &active);
            drop(active);
            analyses.push(analysis);
        }
        rec.span("output.write", |_| {
            std::fs::write(dir.join("analysis.txt"), &output)
        })
        .0
        .map_err(err)?;
        Ok((report, output, analyses))
    });
    let (report, output, analyses) = result?;
    let fingerprint = Fingerprint::new(
        &output,
        vec![
            ("records", report.store.len() as u64),
            ("events", workloads::store_events(&report.store)),
            ("corrupt", report.corrupt as u64),
        ],
    );
    ledger.check("traced reanalyze", fingerprint == setup.reference);
    ledger.add("store.load_s", ledger.secs(load));
    ledger.add("analysis.analyze_s", analyze_ns as f64 / 1e9);
    ledger.add(
        "analysis.classify_us_per_site",
        classify_ns as f64 / 1e3 / classified.max(1) as f64,
    );
    Ok(Reanalyze {
        store: report.store,
        secs: ledger.secs(root),
        analyze_secs: analyze_ns as f64 / 1e9,
        analyses,
    })
}

/// The read side under `analyze_crawl_par`, one layer at a time over the
/// loaded store: shard scan, `decode_view`, `FlowSetView::from_events`,
/// detection; then `analyze_crawl_par` itself at one worker, and a save.
fn analysis_probes(ledger: &mut Ledger, re: &Reanalyze, dir: &Path) -> Result<(), String> {
    let store = &re.store;
    let crawls = store.crawl_ids();
    ledger.rec.next_op();
    let (raws, scan) = ledger.rec.span("store.scan", |_| {
        crawls
            .iter()
            .flat_map(|crawl| {
                (0..store.shard_count()).flat_map(move |s| store.shard_raw_on(crawl, s, None))
            })
            .collect::<Vec<_>>()
    });
    let records = raws.len() as f64;
    ledger.add(
        "store.scan_ns_per_record",
        ledger.rec.spans()[scan].duration_ns() as f64 / records,
    );

    let ((events, allocs), decode) = ledger.rec.span("codec.decode_view", |_| {
        let (events, allocs, _) = count_allocs(|| {
            raws.iter()
                .map(|raw| decode_view(raw).map_or(0, |v| black_box(v).events.len() as u64))
                .sum::<u64>()
        });
        (events, allocs)
    });
    let decode_ns = ledger.rec.spans()[decode].duration_ns() as f64;
    ledger.add("codec.decode_view_ns_per_event", decode_ns / events as f64);
    ledger.add(
        "codec.decode_view_allocs_per_event",
        allocs as f64 / events as f64,
    );

    let views: Vec<_> = raws
        .iter()
        .filter_map(|raw| decode_view(raw).ok())
        .collect();
    let (_, flow) = ledger.rec.span("netlog.flow_build", |_| {
        for view in &views {
            black_box(FlowSetView::from_events(view.events.iter().copied()).len());
        }
    });
    let (_, detect) = ledger.rec.span("analysis.detect", |_| {
        for view in &views {
            black_box(detect_local_with_page_view(view));
        }
    });
    let flow_ns = ledger.rec.spans()[flow].duration_ns() as f64;
    let detect_ns = ledger.rec.spans()[detect].duration_ns() as f64;
    ledger.add("netlog.flow_build_ns_per_event", flow_ns / events as f64);
    // Detection rebuilds the flows itself; its own share excludes them.
    ledger.add(
        "analysis.detect_ns_per_event",
        (detect_ns - flow_ns) / events as f64,
    );
    drop(views);

    let ((analyses, allocs), w1) = ledger.rec.span("analysis.analyze_w1", |_| {
        let (analyses, allocs, _) = count_allocs(|| {
            crawls
                .iter()
                .map(|crawl| analyze_crawl_par(store, crawl, 1))
                .collect::<Vec<_>>()
        });
        (analyses, allocs)
    });
    ledger.check("analysis at one worker", analyses == re.analyses);
    let w1_s = ledger.secs(w1);
    ledger.add("analysis.allocs_per_record", allocs as f64 / records);
    ledger.add("analysis.speedup_wN", w1_s / re.analyze_secs);
    ledger.add(
        "analysis.join_share",
        1.0 - (decode_ns + detect_ns) / 1e9 / w1_s,
    );

    let path = dir.join("probe.ktstore");
    let (saved, span) = ledger.rec.span("store.save", |_| save(store, &path));
    saved.map_err(err)?;
    ledger.add("store.save_s", ledger.secs(span));
    Ok(())
}

/// The traced `recover` decomposition, then the journal probes: a
/// replay of the finished journal and a group-commit append of one
/// campaign's records. Returns the operation's seconds.
fn traced_recover(
    ledger: &mut Ledger,
    setup: &Setup,
    repro: &Study,
    dir: &Path,
) -> Result<f64, String> {
    let path = dir.join("study.ktj");
    let config = study_config(setup.seed, ledger.workers);
    ledger.rec.next_op();
    let (result, root) = ledger.rec.span("op.recover", |rec| -> Result<_, String> {
        let journal = JournalWriter::create(&path).map_err(err)?;
        journal.set_kill(Some(KillSpec {
            at_frame: setup.kill_frame,
            mode: KillMode::MidFrame,
        }));
        rec.span("study.run_journaled", |_| {
            drop(Study::run_journaled(config, Some(&journal)))
        });
        if !journal.killed() {
            return Err(format!(
                "the study finished before journal frame {}",
                setup.kill_frame
            ));
        }
        let stats = journal.stats();
        drop(journal);
        let (resumed, _) = rec.span("study.resume", |_| workloads::resume(&path));
        let (study, damage) = resumed?;
        let (output, _) = rec.span("render", |_| render_study(&study));
        rec.span("output.write", |_| {
            std::fs::write(dir.join("durability.txt"), &damage)
                .and_then(|_| std::fs::write(dir.join("tables.txt"), &output))
        })
        .0
        .map_err(err)?;
        Ok((study, output, stats))
    });
    let (study, output, stats) = result?;
    ledger.check(
        "traced recover",
        study_fingerprint(&study, &output) == setup.reference,
    );
    ledger.add("journal.fsyncs", stats.fsyncs as f64);
    ledger.add("journal.frames_per_fsync", stats.frames_per_fsync());
    let secs = ledger.secs(root);
    drop(study);

    ledger.rec.next_op();
    let bytes = std::fs::metadata(&path).map_err(err)?.len() as f64;
    let (replayed, span) = ledger.rec.span("journal.replay", |_| replay(&path));
    ledger.check(
        "journal replay",
        replayed.map_err(err)?.store.len() == repro.store.len(),
    );
    let replay_s = ledger.secs(span);
    ledger.add("journal.replay_s", replay_s);
    ledger.add("journal.scan_mb_per_s", bytes / 1e6 / replay_s);

    let records = repro.store.crawl_records(&CrawlId::top2020());
    let delta = VisitDelta {
        cost_ms: 21_000,
        attempted: 1,
        successful: 1,
        ..VisitDelta::default()
    };
    let probe = JournalWriter::create(&dir.join("probe.ktj")).map_err(err)?;
    let (_, span) = ledger.rec.span("journal.append", |_| {
        for record in &records {
            probe.append_visit(record, &delta, FLAG_FINAL, false);
        }
        probe.sync();
    });
    ledger.add(
        "journal.append_us_per_frame",
        ledger.secs(span) * 1e6 / records.len() as f64,
    );
    Ok(secs)
}

/// The traced `longitudinal` decomposition plus the diff scaling probe.
/// Returns the operation's seconds.
fn traced_longitudinal(ledger: &mut Ledger, setup: &Setup, dir: &Path) -> Result<f64, String> {
    let workers = ledger.workers;
    let store_dir = dir.join("store");
    ledger.rec.next_op();
    let mut spans = [0; 4];
    let (result, root) = ledger
        .rec
        .span("op.longitudinal", |rec| -> Result<_, String> {
            let (study, span) = rec.span("snapshot.series", |_| {
                SnapshotStudy::run(series_config(setup.seed, workers))
            });
            spans[0] = span;
            let study = study.map_err(err)?;
            let (saved, span) = rec.span("snapshot.save", |_| study.snapshots.save(&store_dir));
            spans[1] = span;
            saved.map_err(err)?;
            let (work, dedup) = (study.work, study.snapshots.dedup_ratio());
            drop(study);
            let (store, span) = rec.span("snapshot.open", |_| {
                SnapshotStore::open(&store_dir, SegmentMode::Mmap)
            });
            spans[2] = span;
            let store = store.map_err(err)?;
            let labels = workloads::labels(&store);
            let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
            let (diff, span) =
                rec.span("diff.snapshots", |_| diff_snapshots(&store, &refs, workers));
            spans[3] = span;
            let (output, _) = rec.span("render", |_| diff.render());
            rec.span("output.write", |_| {
                std::fs::write(dir.join("diff.txt"), &output)
            })
            .0
            .map_err(err)?;
            Ok((store, output, work, dedup, diff.rows_walked))
        });
    let (store, output, work, dedup, rows) = result?;
    ledger.check(
        "traced longitudinal",
        Fingerprint::new(&output, series_counts(&store, work.executed_visits)) == setup.reference,
    );
    ledger.add("snapshot.series_s", ledger.secs(spans[0]));
    ledger.add(
        "snapshot.executed_over_full",
        work.executed_visits as f64 / work.full_visits as f64,
    );
    ledger.add("snapshot.dedup_ratio", dedup);
    ledger.add("snapshot.save_s", ledger.secs(spans[1]));
    ledger.add("snapshot.open_s", ledger.secs(spans[2]));
    let manifest = std::fs::metadata(store_dir.join("MANIFEST.json"))
        .map_err(err)?
        .len();
    ledger.add("snapshot.manifest_bytes", manifest as f64);
    let diff_s = ledger.secs(spans[3]);
    ledger.add("diff.rows_per_s", rows as f64 / diff_s);
    let secs = ledger.secs(root);

    ledger.rec.next_op();
    let (serial, span) = ledger
        .rec
        .span("diff.snapshots_w1", |_| render_diff(&store, 1));
    ledger.check("diff at one worker", serial == output);
    ledger.add("diff.speedup_wN", ledger.secs(span) / diff_s);
    Ok(secs)
}
