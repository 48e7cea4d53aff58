//! Subcommand implementations.

use knock_talk::analysis::classify::{classify_site, native_app_name};
use knock_talk::analysis::detect::aggregate_sites;
use knock_talk::analysis::entropy::scan_entropy;
use knock_talk::netbase::services::{BIGIP_PORTS, THREATMETRIX_PORTS};
use knock_talk::netbase::Os;
use knock_talk::netlog::Capture;
use knock_talk::store::{
    CrawlId, FsckOptions, JournalWriter, KillMode, KillSpec, LoadOutcome, SegmentMode,
    SnapshotStore, SpillConfig, VisitRecord,
};
use knock_talk::trace::Trace;
use knock_talk::{RunOpts, SnapshotStudy, SnapshotStudyConfig, Study, StudyConfig};

use crate::args::Options;
use std::fmt;
use std::io::{self, Write};

/// The usage text `knocktalk help` prints. Under USAGE every flag a
/// command reads is listed (the tests hold [`COMMANDS`] to it).
const HELP: &str = "\
knocktalk — reproduce 'Knock and Talk' (IMC 2021)

USAGE:
  knocktalk repro    [--scale quick|standard|paper] [--seed N] [--id T5]
                     [--journal FILE] [--kill-frames N] [--kill-mode mid-frame|post-frame]
  knocktalk crawl    [--os windows|linux|mac] [--scale ...] [--seed N] [--save FILE]
                     [--profile naive|headless-patched|stealth|human-replay]
                     [--journal FILE] [--kill-frames N] [--kill-mode mid-frame|post-frame]
  knocktalk bias     [--seed N] [--workers N] [--out FILE] [--metrics-out FILE]
  knocktalk resume   <study.ktj> [--id T5] [--metrics-out FILE] [--trace-out FILE]
  knocktalk fsck     <journal.ktj|store.ktstore|DIR> [--repair yes]
  knocktalk analyze  <store.ktstore|journal.ktj>
  knocktalk classify <netlog.json> [--os windows|linux|mac] [--loaded-at MS]
                     [--domain NAME]
  knocktalk entropy  [--machines N] [--seed N]
  knocktalk scan     [--os windows|linux|mac] [--seed N] [--ports P,P,...]
                     [--sequence P,P,P] [--payload HEX] [--udp yes] [--ipv6 yes]
                     [--lan no] [--concurrency N] [--timeout-ms N] [--retries N]
                     [--breaker-threshold N] [--breaker-cooldown-ms N]
                     [--deadline-ms N] [--fault-rate R] [--agreement yes]
                     [--sites N] [--metrics-out FILE]
  knocktalk serve    [--tenants N] [--campaigns N] [--sites N] [--seed N]
                     [--workers N] [--queue-capacity N] [--policy block|shed]
                     [--max-campaigns N] [--max-visits N] [--deadline-ms N]
                     [--storm yes] [--check invariants,tables] [--metrics-out FILE]
                     [--journal-dir DIR]
  knocktalk snapshot crawl [--snapshots N] [--size N] [--churn R] [--relist R]
                     [--content-churn R] [--seed N] [--workers N] [--full yes]
                     [--store DIR] [--spill DIR] [--journal FILE] [--resume yes]
                     [--kill-frames N] [--kill-mode mid-frame|post-frame]
                     [--metrics-out FILE] [--trace-out FILE]
  knocktalk snapshot diff --store DIR [--workers N] [--snapshots L1,L2,...]
                     [--out FILE] [--metrics-out FILE] [--trace-out FILE]
  knocktalk snapshot gc --store DIR [--keep N]
  knocktalk health   [--scale quick|standard|paper] [--seed N] [--workers N]
  knocktalk profile  [--scale quick|standard|paper] [--seed N] [--workers N]
                     [--metrics-out FILE] [--trace-out FILE]
  knocktalk help

repro and crawl also accept:
  --workers N        override the worker-thread count
  --metrics-out FILE write the campaign's metrics registry in Prometheus
                     text exposition format (worker-count-invariant)
  --trace-out FILE   write the span/event trace (simulated clock) as JSONL

A flag a command does not read is an error. Yes/no switches take
exactly `yes` or `no`.

COMMANDS:
  repro     regenerate the paper's tables and figures (all, or one --id);
            --journal writes a checksummed write-ahead log (KTSTORE2) so a
            crash can be resumed; --kill-frames N simulates `kill -9` while
            writing frame N (mid-frame tears it, post-frame dies just after)
  crawl     run one campaign on one OS and print Table-1 statistics
            (--journal/--kill-frames work here too; resume is study-level);
            --profile selects how the crawler presents to anti-bot sensors
  bias      crawl the sensor-planted population once per crawler profile and
            print observed-vs-true local-activity rates with per-archetype
            confusion cells — the measurement bias a detectable crawler
            suffers; the table is byte-identical for any --workers
  resume    replay a study journal, re-run only what the crash lost, and
            print the tables — byte-identical to a run that never crashed;
            the seed, list sizes and worker count come from the journal's
            META frame, and the journal is appended at the default cadence.
            A journal from before the binary CHECKPOINT/META payloads is
            refused as the retired JSON format (by fsck and analyze too)
  fsck      store doctor: scan a journal or a saved store (both KTSTORE2
            frames) for torn tails, bad CRCs, duplicate, orphan and missing
            records; --repair yes quarantines the damage and rewrites a
            clean file (fsync-before-rename). Given a snapshot store
            directory (snapshot crawl --store), it CRC-checks every segment,
            re-hashes every chunk, reconciles refcounts, and flags dangling
            rows and stray segment files; --repair is refused there. Damage
            left unrepaired fails the exit code
  analyze   load a saved store (crawl --save) or a journal — one KTSTORE2
            frame format — and report local activity
  classify  analyse a Chrome NetLog JSON capture for local traffic
  entropy   measure the fingerprinting entropy of the observed scans
  scan      actively knock loopback (and LAN) ports on a simulated machine:
            TCP plus optional UDP and IPv6 sweeps, ordered knock sequences,
            shared retry/backoff policy, per-host circuit breakers, and a
            total deadline budget that degrades to an explicit unprobed set;
            results are byte-identical for any --concurrency; --fault-rate R
            arms a seeded fault storm; --agreement yes cross-validates the
            active scan against the passive 20 s capture window and prints
            the per-class agreement matrix
  serve     run a synthetic multi-tenant fleet through the resident campaign
            service (admission control, bounded queues, deadline budgets);
            --storm yes arms a deterministic fault storm, --check fails the
            exit code unless degradation was deterministic and accounted
  snapshot  the longitudinal engine. `crawl` runs an N-snapshot series over a
            churning top list: snapshot 0 is crawled in full, later snapshots
            recrawl only changed or newly-listed sites and link unchanged rows
            by content reference (--full yes forces full recrawls);
            --journal FILE --resume yes continues a killed series' journal
            (it takes no --kill-frames/--kill-mode). --store DIR
            persists the content-addressed dedup store: sealed chunks-NNNN.ktc
            segment files (KTSTORE2 CRC frames: hash, refcount, canonical
            record bytes) plus a MANIFEST.json listing the segments and
            mapping each snapshot's (domain, os) rows to chunk hashes —
            identical content across snapshots is stored once. `diff`
            streams N manifests shard-parallel (zero-copy mmap by default)
            and prints adoption curves, behaviour churn matrices, and
            population flows, byte-identical for any --workers. `gc` drops
            all but the newest --keep snapshots, sweeps unreferenced chunks,
            and rewrites the store compacted (new segments first, the
            manifest swapped in atomically, then the old segments removed).
            `diff` and `gc` refuse a store `fsck` would report damaged
            (stray segment files aside)
  health    run the study and print the crawl health report
            (retries, recrawls, recoveries, quarantines per campaign/OS)
  profile   run the study under the stage profiler and print per-stage
            real time, simulated time, and allocator traffic
";

/// Why a command failed.
#[derive(Debug)]
pub enum Error {
    /// A usage or input error, reported to the user.
    Usage(String),
    /// Writing the command's output failed (its reader went away, say).
    Output(io::Error),
}

impl From<String> for Error {
    fn from(message: String) -> Error {
        Error::Usage(message)
    }
}

impl From<io::Error> for Error {
    fn from(e: io::Error) -> Error {
        Error::Output(e)
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Usage(message) => f.write_str(message),
            Error::Output(e) => write!(f, "writing output: {e}"),
        }
    }
}

/// A command's implementation: it writes its report to `out`.
type Run = fn(&Options, &mut dyn Write) -> Result<(), Error>;

/// A command (a `snapshot` subcommand by both words), what its one
/// positional argument is if it takes one, the flags it reads, and the
/// function that runs it.
type Command = (&'static str, Option<&'static str>, &'static str, Run);

/// Every command.
const COMMANDS: &[Command] = &[
    (
        "repro",
        None,
        "scale seed workers id journal kill-frames kill-mode metrics-out trace-out",
        repro,
    ),
    (
        "crawl",
        None,
        "os scale seed workers save profile journal kill-frames kill-mode metrics-out \
         trace-out",
        crawl,
    ),
    ("bias", None, "seed workers out metrics-out", bias),
    (
        "resume",
        Some("a journal file path"),
        "id metrics-out trace-out",
        resume,
    ),
    (
        "fsck",
        Some("a journal or saved-store file or a snapshot store directory"),
        "repair",
        fsck,
    ),
    (
        "analyze",
        Some("a saved store or journal file path"),
        "",
        analyze,
    ),
    (
        "classify",
        Some("a capture file path"),
        "os loaded-at domain",
        classify,
    ),
    ("entropy", None, "machines seed", entropy),
    (
        "scan",
        None,
        "os seed ports sequence payload udp ipv6 lan concurrency timeout-ms retries \
         breaker-threshold breaker-cooldown-ms deadline-ms fault-rate agreement sites \
         metrics-out",
        scan,
    ),
    (
        "serve",
        None,
        "tenants campaigns sites seed workers queue-capacity policy max-campaigns \
         max-visits deadline-ms storm check metrics-out journal-dir",
        serve,
    ),
    (
        "snapshot crawl",
        None,
        "snapshots size churn relist content-churn seed workers full store spill \
         journal resume kill-frames kill-mode metrics-out trace-out",
        snapshot_crawl,
    ),
    (
        "snapshot diff",
        None,
        "store workers snapshots out metrics-out trace-out",
        snapshot_diff,
    ),
    ("snapshot gc", None, "store keep", snapshot_gc),
    ("health", None, "scale seed workers", health),
    (
        "profile",
        None,
        "scale seed workers metrics-out trace-out",
        profile,
    ),
];

/// Look up the command `argv` names (`snapshot` by its subcommand
/// too): its row, and the arguments after the name.
fn lookup(argv: &[String]) -> Result<(&'static Command, &[String]), String> {
    let (name, rest) = match argv {
        [snapshot, sub, rest @ ..] if snapshot == "snapshot" => (format!("snapshot {sub}"), rest),
        [snapshot] if snapshot == "snapshot" => {
            return Err("snapshot needs a subcommand: crawl | diff | gc".into())
        }
        [name, rest @ ..] => (name.clone(), rest),
        [] => return Err("no command given; try `knocktalk help`".into()),
    };
    match COMMANDS.iter().find(|(command, ..)| *command == name) {
        Some(command) => Ok((command, rest)),
        None => match name.strip_prefix("snapshot ") {
            Some(sub) => Err(format!(
                "unknown snapshot subcommand {sub:?}; expected crawl | diff | gc"
            )),
            None => Err(format!("unknown command {name:?}; try `knocktalk help`")),
        },
    }
}

/// Run the command `argv` names, writing its report to `out`; with
/// no command, or `help`, write the usage.
pub fn run(argv: &[String], out: &mut dyn Write) -> Result<(), Error> {
    if matches!(
        argv.first().map(String::as_str),
        None | Some("help" | "--help" | "-h")
    ) {
        return Ok(out.write_all(HELP.as_bytes())?);
    }
    let (&(_, operand, flags, run), args) = lookup(argv)?;
    run(&Options::parse(args, flags, operand)?, out)
}

fn study_config(opts: &Options) -> Result<StudyConfig, String> {
    let seed = opts.get_u64("seed", 0x00C0_FFEE)?;
    let mut config = match opts.get("scale").unwrap_or("quick") {
        "quick" => StudyConfig::quick(seed),
        "standard" => StudyConfig::standard(seed),
        "paper" => StudyConfig::paper(seed),
        other => return Err(format!("unknown --scale {other:?}")),
    };
    if let Some(workers) = opts.get("workers") {
        config.workers = workers
            .parse::<usize>()
            .ok()
            .filter(|&w| w >= 1)
            .ok_or_else(|| format!("flag --workers expects a positive integer, got {workers:?}"))?;
    }
    Ok(config)
}

/// Build a [`Trace`] when `--metrics-out` or `--trace-out` asks for
/// one; campaigns run unobserved otherwise.
fn trace_from_opts(opts: &Options) -> Option<Trace> {
    (opts.get("metrics-out").is_some() || opts.get("trace-out").is_some()).then(Trace::new)
}

/// Write the requested observability artefacts: Prometheus text
/// exposition to `--metrics-out`, the JSONL span/event trace to
/// `--trace-out`.
fn write_trace_outputs(opts: &Options, trace: Option<&Trace>) -> Result<(), String> {
    let Some(trace) = trace else { return Ok(()) };
    if let Some(path) = opts.get("metrics-out") {
        std::fs::write(path, trace.export_prometheus())
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("metrics written to {path}");
    }
    if let Some(path) = opts.get("trace-out") {
        std::fs::write(path, trace.export_trace_jsonl())
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("trace written to {path}");
    }
    Ok(())
}

/// Build a journal writer from `--journal`, arming `--kill-frames` /
/// `--kill-mode` when given. `Ok(None)` when no journal was requested.
/// The flags are checked before the file is created, so a refused
/// flag leaves an existing journal as it was.
fn journal_from_opts(opts: &Options) -> Result<Option<JournalWriter>, String> {
    let armed = opts.get("kill-frames").is_some();
    let Some(path) = opts.get("journal") else {
        if armed || opts.get("kill-mode").is_some() {
            return Err("--kill-frames/--kill-mode need --journal".to_string());
        }
        return Ok(None);
    };
    if !armed && opts.get("kill-mode").is_some() {
        return Err("--kill-mode needs --kill-frames".to_string());
    }
    let at_frame = opts.get_u64("kill-frames", 0)?;
    let mode = match opts.get("kill-mode").unwrap_or("mid-frame") {
        "mid-frame" => KillMode::MidFrame,
        "post-frame" => KillMode::PostFrame,
        other => return Err(format!("unknown --kill-mode {other:?}")),
    };
    let journal = JournalWriter::create(std::path::Path::new(path)).map_err(|e| e.to_string())?;
    journal.set_kill(armed.then_some(KillSpec { at_frame, mode }));
    Ok(Some(journal))
}

/// Report a simulated crash and how to recover from it. Returns true
/// when the journal was killed (the caller should stop printing), and
/// an error naming the I/O failure when a real write or fsync killed
/// it, so the command exits non-zero.
fn report_if_killed(journal: &JournalWriter) -> Result<bool, Error> {
    if !journal.killed() {
        return Ok(false);
    }
    if let Some(failure) = journal.failure() {
        return Err(failure.into());
    }
    let stats = journal.stats();
    eprintln!(
        "simulated crash: process died while journaling (frame {}, {} bytes on disk)",
        stats.frames, stats.bytes
    );
    eprintln!(
        "recover with: knocktalk resume {} (or inspect with: knocktalk fsck {})",
        journal.path().display(),
        journal.path().display()
    );
    Ok(true)
}

/// `knocktalk repro`.
pub fn repro(opts: &Options, out: &mut dyn Write) -> Result<(), Error> {
    let config = study_config(opts)?;
    let journal = journal_from_opts(opts)?;
    let trace = trace_from_opts(opts);
    let study = Study::run_with(
        config,
        RunOpts {
            journal: journal.as_ref(),
            trace: trace.as_ref(),
            ..RunOpts::default()
        },
    );
    write_trace_outputs(opts, trace.as_ref())?;
    if let Some(journal) = &journal {
        if report_if_killed(journal)? {
            return Ok(());
        }
        let stats = journal.stats();
        eprintln!(
            "journaled {} visit frames, {} checkpoints, {} bytes, {} fsyncs to {}",
            stats.visits,
            stats.checkpoints,
            stats.bytes,
            stats.fsyncs,
            journal.path().display()
        );
    }
    write_experiments(&study, opts, out)
}

/// Write the study's `--id` experiment, or every table and figure and
/// then the extensions: `repro` and `resume` print the same report.
fn write_experiments(study: &Study, opts: &Options, out: &mut dyn Write) -> Result<(), Error> {
    if let Some(id) = opts.get("id") {
        let text = study
            .experiment(id)
            .ok_or_else(|| format!("unknown experiment id {id:?}"))?;
        writeln!(out, "{text}")?;
        return Ok(());
    }
    for (id, text) in study.all_experiments() {
        writeln!(out, "=== [{id}] ===\n{text}")?;
    }
    for id in knock_talk::experiments::EXTENDED_IDS {
        if let Some(text) = study.experiment(id) {
            writeln!(out, "=== [{id}] (extension) ===\n{text}")?;
        }
    }
    Ok(())
}

fn parse_os(s: &str) -> Result<Os, String> {
    match s.to_ascii_lowercase().as_str() {
        "windows" | "w" => Ok(Os::Windows),
        "linux" | "l" => Ok(Os::Linux),
        "mac" | "macos" | "m" => Ok(Os::MacOs),
        other => Err(format!("unknown --os {other:?}")),
    }
}

/// `knocktalk crawl`.
pub fn crawl(opts: &Options, out: &mut dyn Write) -> Result<(), Error> {
    use knock_talk::crawler::{CrawlConfig, CrawlJob, CrawlOpts};
    use knock_talk::store::TelemetryStore;
    use knock_talk::webgen::WebPopulation;

    let config = study_config(opts)?;
    let os = parse_os(opts.get("os").unwrap_or("linux"))?;
    let population = WebPopulation::generate(config.population);
    let jobs: Vec<CrawlJob> = population.sites2020.iter().map(CrawlJob::plain).collect();
    let store = TelemetryStore::new();
    let mut crawl_config = CrawlConfig::paper(CrawlId::top2020(), os, config.population.seed);
    crawl_config.workers = config.workers;
    if let Some(name) = opts.get("profile") {
        crawl_config.profile =
            knock_talk::webgen::CrawlerProfile::parse(name).ok_or_else(|| {
                format!("unknown --profile {name:?} (naive|headless-patched|stealth|human-replay)")
            })?;
    }
    let journal = journal_from_opts(opts)?;
    let trace = trace_from_opts(opts);
    let stats = knock_talk::crawler::run_crawl_with(
        &jobs,
        &crawl_config,
        &store,
        CrawlOpts {
            journal: journal.as_ref(),
            trace: trace.as_ref(),
            ..CrawlOpts::default()
        },
    );
    if let Some(journal) = &journal {
        journal.sync();
        if let Some(t) = trace.as_ref() {
            knock_talk::record_journal_stats(t, &journal.stats());
        }
        if report_if_killed(journal)? {
            write_trace_outputs(opts, trace.as_ref())?;
            return Ok(());
        }
        let jstats = journal.stats();
        eprintln!(
            "journaled {} visit frames ({} bytes, {} fsyncs) to {}",
            jstats.visits,
            jstats.bytes,
            jstats.fsyncs,
            journal.path().display()
        );
    }
    writeln!(
        out,
        "crawled {} pages on {}: {} ok ({:.1}%), {} failed",
        stats.attempted,
        os.name(),
        stats.successful,
        stats.success_rate() * 100.0,
        stats.failed()
    )?;
    for (name, count) in stats.table1_errors() {
        writeln!(out, "  {name:<18} {count}")?;
    }
    let analysis = knock_talk::analysis::par::analyze_crawl_traced(
        &store,
        &CrawlId::top2020(),
        crawl_config.workers,
        trace.as_ref(),
    );
    writeln!(
        out,
        "locally-active sites: {} localhost, {} LAN",
        analysis.sites.iter().filter(|s| s.has_localhost()).count(),
        analysis.sites.iter().filter(|s| s.has_lan()).count()
    )?;
    if let Some(path) = opts.get("save") {
        let report = knock_talk::store::save(&store, std::path::Path::new(path))
            .map_err(|e| e.to_string())?;
        if let Some(t) = trace.as_ref() {
            knock_talk::record_save_report(t, &report);
        }
        writeln!(
            out,
            "saved {} visit records ({} bytes, {} fsyncs) to {path}",
            report.records, report.bytes, report.fsyncs
        )?;
    }
    write_trace_outputs(opts, trace.as_ref())?;
    Ok(())
}

/// `knocktalk bias`: crawl the sensor-planted population once per
/// crawler profile and print the observed-vs-true bias table.
pub fn bias(opts: &Options, out: &mut dyn Write) -> Result<(), Error> {
    use knock_talk::analysis::{record_bias_metrics, run_bias_sweep, BiasConfig};
    use knock_talk::trace::metrics::Registry;
    use knock_talk::trace::names::describe_defaults;

    let seed = opts.get_u64("seed", 0x00C0_FFEE)?;
    let workers = opts.get_u64("workers", 4)?.max(1) as usize;
    let report = run_bias_sweep(&BiasConfig { seed, workers });
    let rendered = report.render();
    match opts.get("out") {
        Some(path) => {
            std::fs::write(path, &rendered).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("bias table written to {path}");
        }
        None => write!(out, "{rendered}")?,
    }
    if let Some(path) = opts.get("metrics-out") {
        let mut reg = Registry::new();
        describe_defaults(&mut reg);
        record_bias_metrics(&report, &mut reg);
        std::fs::write(path, reg.render_prometheus())
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("metrics written to {path}");
    }
    Ok(())
}

/// `knocktalk analyze <store.ktstore>`.
pub fn analyze(opts: &Options, out: &mut dyn Write) -> Result<(), Error> {
    let path = opts.operand();
    let report =
        knock_talk::store::load_any(std::path::Path::new(path)).map_err(|e| e.to_string())?;
    let summary = &report.summary;
    if summary.truncated() || summary.corrupt_frames > 0 {
        eprintln!(
            "note: loaded {} records ({} corrupt skipped, truncated: {})",
            summary.visits,
            summary.corrupt_frames,
            summary.truncated()
        );
    }
    // One parallel single-decode pass per crawl in the snapshot.
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    for crawl in report.store.crawl_ids() {
        let analysis = knock_talk::analysis::par::analyze_crawl_par(&report.store, &crawl, workers);
        let active: Vec<_> = analysis
            .sites
            .iter()
            .filter(|s| s.has_localhost() || s.has_lan())
            .collect();
        writeln!(
            out,
            "[{}] {} visits, {} locally-active sites:",
            crawl.as_str(),
            analysis.visits,
            active.len()
        )?;
        for site in active {
            writeln!(
                out,
                "  {:<40} {:<20} localhost on {}, LAN on {}",
                site.domain,
                classify_site(site).label(),
                site.localhost_os,
                site.lan_os
            )?;
        }
    }
    Ok(())
}

/// `knocktalk classify <netlog.json>`.
pub fn classify(opts: &Options, out: &mut dyn Write) -> Result<(), Error> {
    let path = opts.operand();
    let bytes = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
    let text = match std::str::from_utf8(&bytes) {
        Ok(text) => text,
        // Cut inside a multi-byte character, as a crashed writer leaves
        // it: parse the whole characters, and the parser reports the
        // truncation.
        Err(e) if e.error_len().is_none() => {
            std::str::from_utf8(&bytes[..e.valid_up_to()]).expect("valid up to here")
        }
        Err(e) => return Err(format!("reading {path}: {e}").into()),
    };
    let capture = Capture::parse(text).map_err(|e| format!("parsing {path}: {e}"))?;
    if capture.truncated {
        eprintln!(
            "note: capture was truncated; recovered {} events ({} skipped)",
            capture.len(),
            capture.skipped
        );
    }
    let record = VisitRecord {
        crawl: CrawlId(("cli").to_string()),
        domain: opts.get("domain").unwrap_or("capture").to_string(),
        rank: None,
        malicious_category: None,
        os: parse_os(opts.get("os").unwrap_or("linux"))?,
        outcome: LoadOutcome::Success,
        loaded_at_ms: opts.get_u64("loaded-at", 0)?,
        events: capture.events,
    };
    let sites = aggregate_sites(std::slice::from_ref(&record));
    if sites.is_empty() {
        writeln!(out, "no locally-destined requests found")?;
        return Ok(());
    }
    for site in &sites {
        let app = native_app_name(site)
            .map(|n| format!(" ({n})"))
            .unwrap_or_default();
        writeln!(
            out,
            "{}: {} local request(s), class: {}{app}",
            site.domain,
            site.observations.len(),
            classify_site(site).label()
        )?;
        for obs in &site.observations {
            writeln!(
                out,
                "  t={:>6}ms  {:<6} {:<40} [{}{}]",
                obs.time_ms,
                obs.scheme.to_string(),
                obs.url.to_string(),
                obs.locality.label(),
                if obs.via_redirect {
                    ", via redirect"
                } else {
                    ""
                },
            )?;
        }
    }
    Ok(())
}

/// `knocktalk resume <study.ktj>`.
pub fn resume(opts: &Options, out: &mut dyn Write) -> Result<(), Error> {
    let path = opts.operand();
    let path = std::path::Path::new(path);
    // Damage summary first, so the operator sees what the crash cost
    // before the re-run starts from the same replay.
    let replayed = knock_talk::store::replay(path).map_err(|e| e.to_string())?;
    let durability = knock_talk::analysis::report::DurabilityReport::from_replay(&replayed);
    eprint!("{}", durability.render());
    let trace = trace_from_opts(opts);
    let study = Study::resume_with(
        path,
        replayed,
        RunOpts {
            trace: trace.as_ref(),
            ..RunOpts::default()
        },
    )
    .map_err(|e| e.to_string())?;
    write_trace_outputs(opts, trace.as_ref())?;
    write_experiments(&study, opts, out)
}

/// `knocktalk fsck <journal.ktj|store.ktstore|DIR> [--repair yes]`: a
/// directory is a snapshot store, anything else a journal or saved
/// store.
pub fn fsck(opts: &Options, out: &mut dyn Write) -> Result<(), Error> {
    let path = opts.operand();
    let repair = parse_switch(opts, "repair", false)?;
    if std::path::Path::new(path).is_dir() {
        if repair {
            return Err(format!(
                "--repair yes rewrites journals and saved stores; {path} is a snapshot store"
            )
            .into());
        }
        return snapshot_fsck(path, out);
    }
    let report = knock_talk::store::fsck(
        std::path::Path::new(path),
        FsckOptions {
            repair,
            ..FsckOptions::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let summary = &report.summary;
    writeln!(
        out,
        "{path}: {} frames ({} visits, {} checkpoints)",
        summary.frames, summary.visits, summary.checkpoints
    )?;
    if summary.clean() {
        writeln!(
            out,
            "  clean: every frame CRC-valid, tail complete, no duplicate or orphan records"
        )?;
        return Ok(());
    }
    writeln!(
        out,
        "  damage: {} corrupt frame(s) / {} byte(s), torn tail: {} ({} tail byte(s))",
        summary.corrupt_frames, summary.corrupt_bytes, summary.truncated_tail, summary.tail_bytes
    )?;
    writeln!(
        out,
        "  records: {} duplicate final(s), {} orphan(s), {} missing vs checkpoints or the store header",
        summary.duplicate_finals, summary.orphan_records, summary.missing_records
    )?;
    if !report.repaired {
        writeln!(
            out,
            "  run with --repair yes to quarantine damage and rewrite a clean journal"
        )?;
        return Err(format!("{path} is damaged and was not repaired").into());
    }
    match &report.quarantine_path {
        Some(quarantine) => writeln!(
            out,
            "  repaired: clean journal rewritten in place ({path}); {} damaged byte(s) quarantined to {}",
            summary.damaged_bytes(),
            quarantine.display()
        )?,
        None => writeln!(out, "  repaired: clean journal rewritten in place ({path})")?,
    }
    Ok(())
}

/// `knocktalk fsck DIR`: doctor a snapshot store directory.
fn snapshot_fsck(dir: &str, out: &mut dyn Write) -> Result<(), Error> {
    let report = knock_talk::store::snapshot_fsck(std::path::Path::new(dir))
        .map_err(|e| format!("fsck of snapshot store {dir}: {e}"))?;
    writeln!(
        out,
        "{dir}: {} segment(s), {} chunk(s), {} manifest row(s)",
        report.segments, report.chunks, report.manifest_entries
    )?;
    if report.clean() {
        writeln!(
            out,
            "  clean: every segment frame CRC-valid, every chunk re-hashes, refcounts reconcile, \
             no dangling or duplicate references, no stray segments"
        )?;
        return Ok(());
    }
    writeln!(
        out,
        "  segments: {} damaged, {} on disk but not in the manifest",
        report.damaged_segments, report.unlisted_segments
    )?;
    writeln!(
        out,
        "  damage: {} dangling ref(s), {} duplicate chunk(s), {} hash mismatch(es)",
        report.dangling_refs, report.duplicate_chunks, report.hash_mismatches
    )?;
    writeln!(
        out,
        "  refcounts: {} mismatch(es), {} orphan chunk(s)",
        report.refcount_mismatches, report.orphan_chunks
    )?;
    Err("snapshot store is not clean".to_string().into())
}

/// `knocktalk health`.
pub fn health(opts: &Options, out: &mut dyn Write) -> Result<(), Error> {
    let study = Study::run(study_config(opts)?);
    writeln!(out, "{}", knock_talk::experiments::health_report(&study))?;
    Ok(())
}

/// `knocktalk profile`: run the full study under the stage profiler
/// and print the per-stage time/allocation breakdown.
pub fn profile(opts: &Options, out: &mut dyn Write) -> Result<(), Error> {
    let config = study_config(opts)?;
    let trace = trace_from_opts(opts);
    let mut profiler = knock_talk::trace::StageProfiler::new();
    let study = Study::run_with(
        config,
        RunOpts {
            trace: trace.as_ref(),
            profiler: Some(&mut profiler),
            ..RunOpts::default()
        },
    );
    write_trace_outputs(opts, trace.as_ref())?;
    writeln!(
        out,
        "profiled study: seed {}, {} workers, {} visit records",
        study.config.population.seed,
        study.config.workers,
        study.store.len()
    )?;
    write!(out, "{}", profiler.render_table())?;
    Ok(())
}

/// `knocktalk serve`: run a synthetic multi-tenant fleet through the
/// resident campaign service and report how it degraded.
///
/// The fleet is entirely deterministic: `--tenants` tenants each
/// submit `--campaigns` campaigns of `--sites` sites, with optional
/// per-tenant quotas creating admission pressure and `--storm yes`
/// arming every service and crawl fault class at once (including
/// [`knock_talk::faults::Fault::TenantBurst`], which deterministically
/// picks tenant submission slots to double-submit). `--check
/// invariants` re-runs the identical fleet single-threaded and fails
/// unless the shed set, accounting, and metrics come out byte-equal;
/// `--check tables` replays every completed campaign through the batch
/// pipeline and fails unless the service's online-aggregated tables
/// match. `--check invariants,tables` does both.
pub fn serve(opts: &Options, out: &mut dyn Write) -> Result<(), Error> {
    use knock_talk::analysis::analyze_crawl_par;
    use knock_talk::crawler::{run_crawl, CrawlConfig, CrawlJob};
    use knock_talk::faults::{Fault, FaultPlan};
    use knock_talk::service::{
        AdmissionError, CampaignHandle, CampaignService, CampaignSpec, CampaignStatus,
        OverflowPolicy, ServiceConfig, ServiceJob, TenantQuota,
    };
    use knock_talk::store::TelemetryStore;
    use knock_talk::webgen::{PopulationConfig, WebPopulation, WebSite};

    let seed = opts.get_u64("seed", 0x00C0_FFEE)?;
    let tenants = opts.get_u64("tenants", 3)?.max(1) as usize;
    let campaigns = opts.get_u64("campaigns", 3)?.max(1) as usize;
    let sites_per = opts.get_u64("sites", 6)?.max(1) as usize;
    let workers = opts.get_u64("workers", 4)?.max(1) as usize;
    let queue_capacity = opts.get_u64("queue-capacity", 2)?.max(1) as usize;
    let deadline_ms = opts.get_u64("deadline-ms", 0)?;
    let max_campaigns = opts.get_u64("max-campaigns", 0)? as usize;
    let max_visits = opts.get_u64("max-visits", 0)? as usize;
    let policy = match opts.get("policy").unwrap_or("shed") {
        "block" => OverflowPolicy::Block,
        "shed" => OverflowPolicy::Shed,
        other => return Err(format!("unknown --policy {other:?} (block|shed)").into()),
    };
    let storm = parse_switch(opts, "storm", false)?;
    let journal_dir = opts.get("journal-dir").map(std::path::PathBuf::from);
    let quota = TenantQuota {
        max_campaigns: if max_campaigns == 0 {
            usize::MAX
        } else {
            max_campaigns
        },
        max_inflight_visits: if max_visits == 0 {
            usize::MAX
        } else {
            max_visits
        },
    };
    let mut faults = FaultPlan::none(seed);
    if storm {
        faults = faults
            .with_rate(Fault::QueueOverflow, 0.35)
            .with_rate(Fault::SlowConsumer, 0.35)
            .with_rate(Fault::TenantBurst, 0.50)
            .with_rate(Fault::DnsFlap, 0.25)
            .with_rate(Fault::ConnectionReset, 0.20)
            .with_rate(Fault::WorkerPanic, 0.15);
    }

    let population = WebPopulation::generate(PopulationConfig::test_scale(seed));
    let pool = &population.sites2020;
    let slice = |index: usize| -> Vec<WebSite> {
        let start = (index * sites_per) % pool.len().saturating_sub(sites_per).max(1);
        pool[start..(start + sites_per).min(pool.len())].to_vec()
    };
    let spec_for = |tenant: usize, campaign: usize, burst: bool| -> CampaignSpec {
        let suffix = if burst { "-burst" } else { "" };
        CampaignSpec {
            crawl: CrawlId(format!("t{tenant}-c{campaign}{suffix}")),
            os: Os::ALL[(tenant + campaign) % Os::ALL.len()],
            jobs: slice(
                tenant * campaigns + campaign + if burst { tenants * campaigns } else { 0 },
            )
            .into_iter()
            .map(|site| ServiceJob {
                site,
                malicious_category: None,
            })
            .collect(),
            deadline_ms: (deadline_ms > 0).then_some(deadline_ms),
            nominal_workers: workers,
        }
    };
    // The whole fleet, parameterised on executor width so `--check
    // invariants` can replay it single-threaded and byte-compare. A
    // journal that cannot be created or written fails the command:
    // that is the host failing, not load the service may shed.
    type Fleet = (CampaignService, Vec<(String, CampaignHandle)>);
    let run_fleet = |executors: usize| -> Result<Fleet, Error> {
        let mut config = ServiceConfig::new(seed);
        config.workers = executors;
        config.queue_capacity = queue_capacity;
        config.drain_ms_per_update = 60_000;
        config.slow_consumer_stall_ms = 120_000;
        config.faults = faults.clone();
        config.journal_dir = journal_dir.clone();
        let mut service = CampaignService::new(config);
        for t in 0..tenants {
            service.register_tenant(&format!("tenant-{t}"), quota, policy);
        }
        let mut handles = Vec::new();
        for t in 0..tenants {
            let tenant = format!("tenant-{t}");
            for c in 0..campaigns {
                // A bursting tenant double-submits this slot — keyed
                // on (tenant identity, slot), not on timing.
                let bursting = faults.injects(Fault::TenantBurst, &tenant, c as u32);
                let submissions: &[bool] = if bursting { &[false, true] } else { &[false] };
                for &burst in submissions {
                    let spec = spec_for(t, c, burst);
                    let name = spec.crawl.as_str().to_string();
                    match service.submit(&tenant, spec) {
                        Ok(handle) => handles.push((name, handle)),
                        Err(e @ AdmissionError::JournalUnavailable { .. }) => {
                            return Err(e.to_string().into())
                        }
                        Err(_) => {}
                    }
                }
            }
        }
        service.run();
        if let Some(failure) = service.journal_failure() {
            return Err(failure.into());
        }
        Ok((service, handles))
    };
    let fingerprint = |service: &CampaignService, handles: &[(String, CampaignHandle)]| -> String {
        let trace = Trace::new();
        service.record_metrics(&trace);
        let statuses: Vec<String> = handles
            .iter()
            .map(|(name, h)| {
                format!(
                    "{name}:{:?}/{}",
                    service.status(*h).expect("known handle"),
                    service.campaign_updates_shed(*h)
                )
            })
            .collect();
        format!(
            "{statuses:?}\n{:?}\n{}",
            service.accounting(),
            trace.export_prometheus()
        )
    };

    let (service, handles) = run_fleet(workers)?;
    writeln!(
        out,
        "fleet: {tenants} tenants x {campaigns} campaigns x {sites_per} sites, \
         {workers} executors, queue {queue_capacity}, policy {policy:?}, storm {storm}"
    )?;
    let mut violations = Vec::new();
    for acc in service.accounting() {
        let rejected: u64 = acc.rejected.values().sum();
        writeln!(
            out,
            "  {:<10} admitted {:>3}  completed {:>3}  deadline-shed {:>2}  drained {:>2}  \
             rejected {:>2}  updates {:>4} (-{} shed)  blocks {:>3}  depth<= {}",
            acc.tenant,
            acc.admitted,
            acc.completed,
            acc.shed,
            acc.drained,
            rejected,
            acc.updates,
            acc.updates_shed,
            acc.queue_blocks,
            acc.queue_high_water
        )?;
        if !acc.reconciles() {
            violations.push(format!(
                "{}: admitted {} != completed {} + shed {} + drained {} + in-flight {}",
                acc.tenant, acc.admitted, acc.completed, acc.shed, acc.drained, acc.in_flight
            ));
        }
        if acc.in_flight != 0 {
            violations.push(format!(
                "{}: {} campaigns never drained",
                acc.tenant, acc.in_flight
            ));
        }
    }

    if let Some(path) = opts.get("metrics-out") {
        let trace = Trace::new();
        service.record_metrics(&trace);
        std::fs::write(path, trace.export_prometheus())
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("metrics written to {path}");
    }

    let checks: Vec<&str> = opts
        .get("check")
        .map(|c| c.split(',').collect())
        .unwrap_or_default();
    for check in &checks {
        match *check {
            "invariants" => {
                let baseline = fingerprint(&service, &handles);
                let replay_workers = if workers == 1 { 2 } else { 1 };
                let (replayed, replayed_handles) = run_fleet(replay_workers)?;
                if fingerprint(&replayed, &replayed_handles) != baseline {
                    violations.push(format!(
                        "shed set / accounting / metrics differ between {workers} and \
                         {replay_workers} executors"
                    ));
                } else {
                    writeln!(
                        out,
                        "check invariants: ok ({workers} vs {replay_workers} executors byte-equal)"
                    )?;
                }
            }
            "tables" => {
                let mut compared = 0usize;
                for t in 0..tenants {
                    for c in 0..campaigns {
                        let spec = spec_for(t, c, false);
                        let Some(handle) = handles
                            .iter()
                            .find(|(name, _)| name == spec.crawl.as_str())
                            .map(|(_, h)| *h)
                        else {
                            continue;
                        };
                        if service.status(handle) != Some(CampaignStatus::Completed) {
                            continue;
                        }
                        let sites: Vec<WebSite> =
                            spec.jobs.iter().map(|j| j.site.clone()).collect();
                        let jobs: Vec<CrawlJob<'_>> = sites.iter().map(CrawlJob::plain).collect();
                        let mut cfg = CrawlConfig::paper(spec.crawl.clone(), spec.os, seed);
                        cfg.workers = spec.nominal_workers;
                        cfg.faults = faults.clone();
                        let batch_store = TelemetryStore::new();
                        run_crawl(&jobs, &cfg, &batch_store);
                        let batch = analyze_crawl_par(&batch_store, &spec.crawl, workers);
                        if service.final_analysis(handle).as_ref() != Some(&batch) {
                            violations.push(format!(
                                "{} tables differ from the batch pipeline",
                                spec.crawl.as_str()
                            ));
                        }
                        compared += 1;
                    }
                }
                writeln!(
                    out,
                    "check tables: {compared} completed campaigns vs batch pipeline"
                )?;
            }
            other => return Err(format!("unknown --check {other:?} (invariants|tables)").into()),
        }
    }
    if violations.is_empty() {
        writeln!(out, "service degraded cleanly: all tenants reconcile")?;
        Ok(())
    } else {
        for v in &violations {
            eprintln!("violation: {v}");
        }
        Err(format!("{} invariant violation(s)", violations.len()).into())
    }
}

/// Parse a comma-separated port list.
fn parse_port_list(list: &str) -> Result<Vec<u16>, String> {
    let ports: Vec<u16> = list
        .split(',')
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .map(|p| {
            p.parse::<u16>()
                .map_err(|_| format!("bad port {p:?} (expect 1-65535)"))
        })
        .collect::<Result<_, _>>()?;
    if ports.is_empty() {
        return Err("empty port list".to_string());
    }
    Ok(ports)
}

/// A `--flag yes|no` switch with a default.
fn parse_switch(opts: &Options, key: &str, default: bool) -> Result<bool, String> {
    match opts.get(key) {
        None => Ok(default),
        Some("yes") => Ok(true),
        Some("no") => Ok(false),
        Some(other) => Err(format!("flag --{key} expects yes|no, got {other:?}")),
    }
}

/// `knocktalk scan`.
pub fn scan(opts: &Options, out: &mut dyn Write) -> Result<(), Error> {
    use knock_talk::analysis::{
        crossval_population, record_agreement_metrics, run_cross_validation,
    };
    use knock_talk::faults::{Fault, FaultPlan};
    use knock_talk::scanner::{record_scan_metrics, run_scan, Payload, ScanConfig};
    use knock_talk::simnet::{HostEnv, SimNet};
    use knock_talk::trace::metrics::Registry;
    use knock_talk::trace::names::describe_defaults;

    let seed = opts.get_u64("seed", 0x5CA9)?;
    let os = parse_os(opts.get("os").unwrap_or("windows"))?;

    let mut cfg = ScanConfig::new(seed);
    if let Some(list) = opts.get("ports") {
        cfg.ports = parse_port_list(list).map_err(|e| format!("flag --ports: {e}"))?;
    }
    if let Some(list) = opts.get("sequence") {
        cfg.sequences
            .push(parse_port_list(list).map_err(|e| format!("flag --sequence: {e}"))?);
    }
    if let Some(hex) = opts.get("payload") {
        cfg.payload = Some(Payload::from_hex(hex).map_err(|e| format!("flag --payload: {e}"))?);
    }
    cfg.udp = parse_switch(opts, "udp", false)?;
    cfg.ipv6 = parse_switch(opts, "ipv6", false)?;
    cfg.lan = parse_switch(opts, "lan", true)?;
    cfg.workers = opts.get_u64("concurrency", cfg.workers as u64)?.max(1) as usize;
    cfg.timeout_ms = opts.get_u64("timeout-ms", cfg.timeout_ms)?.max(1);
    let default_retries = u64::from(cfg.retry.max_attempts.saturating_sub(1));
    cfg.retry.max_attempts = opts.get_u64("retries", default_retries)? as u32 + 1;
    cfg.breaker.threshold =
        opts.get_u64("breaker-threshold", u64::from(cfg.breaker.threshold))? as u32;
    cfg.breaker.cooldown_ms = opts.get_u64("breaker-cooldown-ms", cfg.breaker.cooldown_ms)?;
    cfg.deadline_ms = opts.get_u64("deadline-ms", cfg.deadline_ms)?.max(1);
    if let Some(rate) = opts.get("fault-rate") {
        let rate: f64 = rate
            .parse()
            .ok()
            .filter(|r| (0.0..=1.0).contains(r))
            .ok_or_else(|| format!("flag --fault-rate expects a number in [0, 1], got {rate:?}"))?;
        cfg.faults = FaultPlan::none(seed)
            .with_rate(Fault::ProbeDrop, rate)
            .with_rate(Fault::ProbeDelay, rate)
            .with_rate(Fault::ConnectionReset, rate)
            .with_rate(Fault::DnsFlap, rate)
            .with_rate(Fault::TruncatedCapture, rate);
    }

    let env = HostEnv::sampled(os, seed ^ os.letter() as u64);
    let net = SimNet::new(seed);
    let mut reg = Registry::new();
    describe_defaults(&mut reg);

    if parse_switch(opts, "agreement", false)? {
        let sites = opts.get_u64("sites", 24)?.max(1) as usize;
        let population = crossval_population(seed, sites);
        let cv = run_cross_validation(&env, &net, &population, &cfg);
        write!(out, "{}", cv.scan.render())?;
        write!(out, "{}", cv.render())?;
        record_scan_metrics(&cv.scan, &mut reg);
        record_agreement_metrics(&cv, &mut reg);
    } else {
        let report = run_scan(&env, &net, &cfg);
        write!(out, "{}", report.render())?;
        record_scan_metrics(&report, &mut reg);
    }

    if let Some(path) = opts.get("metrics-out") {
        std::fs::write(path, reg.render_prometheus())
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("metrics written to {path}");
    }
    Ok(())
}

/// `knocktalk entropy`.
pub fn entropy(opts: &Options, out: &mut dyn Write) -> Result<(), Error> {
    let machines = opts.get_u64("machines", 1_000)? as usize;
    let seed = opts.get_u64("seed", 0xF1)?;
    writeln!(
        out,
        "fingerprinting entropy over {machines} simulated machines:"
    )?;
    for (label, ports) in [
        ("ThreatMetrix", THREATMETRIX_PORTS.as_slice()),
        ("BIG-IP ASM", BIGIP_PORTS.as_slice()),
    ] {
        for os in Os::ALL {
            let r = scan_entropy(os, ports, machines, seed);
            writeln!(
                out,
                "  {label:<14} {:<8} {:.2} bits, {} distinct profiles",
                os.name(),
                r.shannon_bits,
                r.distinct
            )?;
        }
    }
    Ok(())
}

/// Parse a fractional flag in `[0, 1]`, with a default.
fn get_fraction(opts: &Options, key: &str, default: f64) -> Result<f64, String> {
    match opts.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse::<f64>()
            .ok()
            .filter(|f| (0.0..=1.0).contains(f))
            .ok_or_else(|| format!("flag --{key} expects a fraction in [0, 1], got {v:?}")),
    }
}

fn snapshot_study_config(opts: &Options) -> Result<SnapshotStudyConfig, String> {
    let seed = opts.get_u64("seed", 0x00C0_FFEE)?;
    let mut config = SnapshotStudyConfig::quick(seed);
    config.series.size = opts.get_u64("size", config.series.size as u64)? as usize;
    config.series.snapshots = opts.get_u64("snapshots", config.series.snapshots as u64)? as usize;
    config.series.churn = get_fraction(opts, "churn", config.series.churn)?;
    config.series.relist_fraction = get_fraction(opts, "relist", config.series.relist_fraction)?;
    config.content_churn = get_fraction(opts, "content-churn", config.content_churn)?;
    config.workers = opts.get_u64("workers", config.workers as u64)?.max(1) as usize;
    config.incremental = !parse_switch(opts, "full", false)?;
    if config.series.size == 0 || config.series.snapshots == 0 {
        return Err("--size and --snapshots must be positive".to_string());
    }
    if let Some(dir) = opts.get("spill") {
        config.spill = Some(SpillConfig::mmap(std::path::Path::new(dir)));
    }
    Ok(config)
}

/// `knocktalk snapshot crawl`.
fn snapshot_crawl(opts: &Options, out: &mut dyn Write) -> Result<(), Error> {
    let config = snapshot_study_config(opts)?;
    let trace = trace_from_opts(opts);
    let study = if parse_switch(opts, "resume", false)? {
        let path = opts
            .get("journal")
            .ok_or_else(|| "--resume yes needs --journal FILE".to_string())?;
        if opts.get("kill-frames").is_some() || opts.get("kill-mode").is_some() {
            Err("--resume takes no --kill-frames/--kill-mode".to_string())?;
        }
        let run_opts = RunOpts {
            trace: trace.as_ref(),
            ..RunOpts::default()
        };
        SnapshotStudy::resume(std::path::Path::new(path), config, run_opts)
            .map_err(|e| e.to_string())?
    } else {
        let journal = journal_from_opts(opts)?;
        let run_opts = RunOpts {
            journal: journal.as_ref(),
            trace: trace.as_ref(),
            ..RunOpts::default()
        };
        let study = SnapshotStudy::run_with(config, run_opts).map_err(|e| e.to_string())?;
        if let Some(j) = &journal {
            if report_if_killed(j)? {
                write_trace_outputs(opts, trace.as_ref())?;
                return Ok(());
            }
        }
        study
    };
    writeln!(
        out,
        "longitudinal series: {} snapshots x {} sites ({}% churn)",
        study.series.len(),
        study.config.series.size,
        (study.config.series.churn * 100.0).round()
    )?;
    writeln!(
        out,
        "  visit work: {} executed / {} full-recrawl ({:.1}% incremental fraction)",
        study.work.executed_visits,
        study.work.full_visits,
        study.work.incremental_fraction() * 100.0
    )?;
    writeln!(
        out,
        "  store: {} chunks, {} linked rows, {} stored bytes vs {} logical ({:.2}x dedup)",
        study.snapshots.chunk_count(),
        study.work.linked_rows,
        study.snapshots.stored_bytes(),
        study.snapshots.logical_bytes(),
        study.snapshots.dedup_ratio()
    )?;
    if let Some(dir) = opts.get("store") {
        let report = study
            .snapshots
            .save(std::path::Path::new(dir))
            .map_err(|e| format!("saving snapshot store to {dir}: {e}"))?;
        writeln!(
            out,
            "  saved: {} segment file(s), {} chunk(s), {} manifest row(s) -> {dir}",
            report.segments, report.chunks, report.manifest_entries
        )?;
    }
    Ok(write_trace_outputs(opts, trace.as_ref())?)
}

/// Open an on-disk snapshot store for `snapshot diff|gc`.
fn open_snapshot_store(opts: &Options) -> Result<(String, SnapshotStore), String> {
    let dir = opts
        .get("store")
        .ok_or("--store DIR is required")?
        .to_string();
    let store = SnapshotStore::open(std::path::Path::new(&dir), SegmentMode::Mmap)
        .map_err(|e| format!("opening snapshot store {dir}: {e}"))?;
    Ok((dir, store))
}

/// `knocktalk snapshot diff`.
fn snapshot_diff(opts: &Options, out: &mut dyn Write) -> Result<(), Error> {
    let (_, store) = open_snapshot_store(opts)?;
    let workers = opts.get_u64("workers", 4)?.max(1) as usize;
    let labels: Vec<String> = match opts.get("snapshots") {
        Some(list) => list.split(',').map(str::to_string).collect(),
        None => store.labels().iter().map(|l| l.to_string()).collect(),
    };
    for label in &labels {
        if store.manifest(label).is_none() {
            return Err(format!("snapshot {label:?} not in store").into());
        }
    }
    let trace = trace_from_opts(opts);
    let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
    let diff = knock_talk::analysis::diff_snapshots_traced(&store, &refs, workers, trace.as_ref());
    let rendered = diff.render();
    match opts.get("out") {
        Some(path) => {
            std::fs::write(path, &rendered).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("diff tables written to {path}");
        }
        None => write!(out, "{rendered}")?,
    }
    Ok(write_trace_outputs(opts, trace.as_ref())?)
}

/// `knocktalk snapshot gc`.
fn snapshot_gc(opts: &Options, out: &mut dyn Write) -> Result<(), Error> {
    let (dir, mut store) = open_snapshot_store(opts)?;
    let keep = opts.get_u64("keep", u64::MAX)? as usize;
    if keep == 0 {
        return Err("--keep must be at least 1".to_string().into());
    }
    let labels: Vec<String> = store.labels().iter().map(|l| l.to_string()).collect();
    let drop_count = labels.len().saturating_sub(keep);
    for label in &labels[..drop_count] {
        store.remove_snapshot(label);
        writeln!(out, "dropped snapshot {label}")?;
    }
    let report = store.gc();
    writeln!(
        out,
        "gc: {} chunk(s) reclaimed, {} byte(s); {} snapshot(s) remain",
        report.chunks_dropped,
        report.bytes_reclaimed,
        store.snapshot_count()
    )?;
    store
        .save(std::path::Path::new(&dir))
        .map_err(|e| format!("rewriting snapshot store {dir}: {e}"))?;
    writeln!(out, "store rewritten compacted -> {dir}")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    fn classify_file(path: &std::path::Path) -> Result<(), String> {
        let opts = Options::parse(&[path.display().to_string()], "", Some("a capture")).unwrap();
        classify(&opts, &mut io::sink()).map_err(|e| e.to_string())
    }

    /// The write end of a pipe whose reader has gone.
    struct ClosedPipe;

    impl Write for ClosedPipe {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(io::ErrorKind::BrokenPipe.into())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// The USAGE block: every line up to the first blank one.
    fn usage() -> Vec<&'static str> {
        let (_, rest) = HELP.split_once("USAGE:\n").expect("USAGE header");
        rest.lines().take_while(|line| !line.is_empty()).collect()
    }

    #[test]
    fn help_keeps_usage_continuation_lines_indented() {
        for line in usage() {
            assert!(
                line.starts_with(char::is_whitespace),
                "usage line flush left: {line:?}"
            );
        }
    }

    #[test]
    fn help_lists_exactly_the_flags_each_command_reads() {
        use std::collections::{BTreeMap, BTreeSet};
        let flags_in = |line: &str| -> Vec<String> {
            line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .filter_map(|word| word.strip_prefix("--"))
                .map(str::to_string)
                .collect()
        };
        let mut listed: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        let mut command = String::new();
        for line in usage() {
            if let Some(entry) = line.trim_start().strip_prefix("knocktalk ") {
                let mut words = entry.split_whitespace();
                command = words.next().expect("command").to_string();
                if command == "snapshot" {
                    command = format!("snapshot {}", words.next().expect("subcommand"));
                }
            }
            listed
                .entry(command.clone())
                .or_default()
                .extend(flags_in(line));
        }
        let (_, shared) = HELP
            .split_once("repro and crawl also accept:\n")
            .expect("shared flags");
        for line in shared.lines().take_while(|line| !line.is_empty()) {
            for command in ["repro", "crawl"] {
                listed.get_mut(command).unwrap().extend(flags_in(line));
            }
        }
        listed.remove("help");
        let read: BTreeMap<String, BTreeSet<String>> = COMMANDS
            .iter()
            .map(|(command, _, flags, _)| {
                let flags = flags.split_whitespace().map(str::to_string).collect();
                (command.to_string(), flags)
            })
            .collect();
        assert_eq!(listed, read);
    }

    #[test]
    fn lookup_parses_with_the_command_flags() {
        let parse = |line: &str| -> Result<Options, String> {
            let argv = argv(line);
            let (&(_, operand, flags, _), args) = lookup(&argv)?;
            Options::parse(args, flags, operand)
        };
        assert!(parse("entropy --machines 5 --seed 3").is_ok());
        let err = parse("entropy --machnes 5 --sed 3").unwrap_err();
        assert!(err.contains("--machnes"), "{err}");
        assert!(parse("snapshot diff --store s --workers 8").is_ok());
        assert!(parse("snapshot gc --store s --workers 8").is_err());
        assert!(parse("snapshot --store s").is_err());
        assert!(parse("resume study.ktj --workers 8").is_err());
        assert!(parse("bogus").unwrap_err().contains("unknown command"));
    }

    #[test]
    fn yes_no_switches_refuse_other_spellings() {
        let refusal = |line: &str| run(&argv(line), &mut io::sink()).unwrap_err().to_string();
        assert_eq!(
            refusal("fsck missing.ktj --repair maybe"),
            "flag --repair expects yes|no, got \"maybe\""
        );
        assert_eq!(
            refusal("serve --storm on"),
            "flag --storm expects yes|no, got \"on\""
        );
    }

    #[test]
    fn help_shows_an_operand_exactly_where_a_command_takes_one() {
        for &(command, operand, _, _) in COMMANDS {
            let line = usage()
                .into_iter()
                .find(|line| {
                    line.trim_start()
                        .strip_prefix("knocktalk ")
                        .is_some_and(|rest| rest.starts_with(&format!("{command} ")))
                })
                .expect("every command has a usage line");
            assert_eq!(line.contains('<'), operand.is_some(), "{command}: {line:?}");
        }
    }

    #[test]
    fn stray_positional_arguments_are_refused_by_name() {
        let mut out = Vec::new();
        let refusal =
            |line: &str, out: &mut Vec<u8>| run(&argv(line), out).unwrap_err().to_string();
        assert_eq!(
            refusal("entropy 5 --machines 3", &mut out),
            "unexpected argument \"5\"; this command takes no positional arguments"
        );
        let err = refusal("analyze a.ktstore b.ktstore", &mut out);
        assert!(
            err.starts_with("unexpected argument \"b.ktstore\""),
            "{err}"
        );
        let err = refusal("snapshot gc --store s extra", &mut out);
        assert!(err.starts_with("unexpected argument \"extra\""), "{err}");
        assert_eq!(
            refusal("resume", &mut out),
            "this command needs a journal file path"
        );
        assert!(out.is_empty(), "a refused command ran");
        run(&argv("entropy --machines 3"), &mut out).unwrap();
        assert!(out.starts_with(b"fingerprinting entropy over 3 simulated machines"));
    }

    #[test]
    fn refused_kill_flags_leave_the_journal_alone() {
        let path = std::env::temp_dir().join(format!("kt-cli-keep-{}.ktj", std::process::id()));
        std::fs::write(&path, b"KTSTORE2 left alone").unwrap();
        let p = path.display();
        for (line, why) in [
            (
                format!("repro --journal {p} --kill-frames x"),
                "--kill-frames",
            ),
            (
                format!("crawl --journal {p} --kill-frames 3 --kill-mode sideways"),
                "--kill-mode",
            ),
            (
                format!("repro --journal {p} --kill-mode post-frame"),
                "needs --kill-frames",
            ),
            (
                format!("snapshot crawl --journal {p} --resume yes --kill-frames 3"),
                "--resume",
            ),
            (
                format!("snapshot crawl --journal {p} --resume yes --kill-mode mid-frame"),
                "--resume",
            ),
        ] {
            let err = run(&argv(&line), &mut io::sink()).unwrap_err().to_string();
            assert!(err.contains(why), "{line}: {err}");
        }
        assert_eq!(std::fs::read(&path).unwrap(), b"KTSTORE2 left alone");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_json_era_journal_is_refused_by_every_reader() {
        let fixture = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/data/json-meta.ktj"
        );
        let before = std::fs::read(fixture).unwrap();
        for line in [
            format!("resume {fixture}"),
            format!("fsck {fixture}"),
            format!("analyze {fixture}"),
            format!("snapshot crawl --journal {fixture} --resume yes"),
        ] {
            let err = run(&argv(&line), &mut io::sink()).unwrap_err().to_string();
            assert!(
                err.starts_with("retired JSON journal format"),
                "{line}: {err}"
            );
        }
        assert_eq!(std::fs::read(fixture).unwrap(), before);
    }

    #[test]
    fn a_closed_pipe_ends_a_command_with_its_write_error() {
        for line in ["entropy --machines 3", "help"] {
            match run(&argv(line), &mut ClosedPipe) {
                Err(Error::Output(e)) => assert_eq!(e.kind(), io::ErrorKind::BrokenPipe),
                other => panic!("{line}: {other:?}"),
            }
        }
    }

    #[test]
    fn classify_reads_a_capture_cut_inside_a_multi_byte_character() {
        // The Chrome-numbered fixture with an emoji in its last event,
        // cut two bytes into the emoji.
        let fixture = include_str!("../../../tests/data/chrome-numbered.json")
            .replace(r#""mystery":true"#, "\"mystery\":\"\u{1F600}\"");
        let cut = fixture.find('\u{1F600}').expect("emoji planted") + 2;
        let path = std::env::temp_dir().join(format!("kt-cli-cut-{}.json", std::process::id()));
        std::fs::write(&path, &fixture.as_bytes()[..cut]).unwrap();
        assert_eq!(classify_file(&path), Ok(()));
        // Invalid UTF-8 before the end is still refused.
        let mut bytes = fixture.into_bytes();
        bytes[10] = 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let refused = classify_file(&path).unwrap_err();
        assert!(refused.contains("invalid utf-8"), "{refused}");
        std::fs::remove_file(&path).ok();
    }
}
