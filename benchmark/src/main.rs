//! The knock-talk benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload repro --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` runs one workload as a closed loop for `--seconds` and
//! reports its end-to-end metrics. `--trace 1` runs the per-layer
//! ledger instead: every layer's public functions are timed from
//! outside, inside spans, on the same generated inputs (see
//! `ledger.rs`). `--spans-out FILE` also writes the traced run's spans
//! as JSON lines. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. See README.md
//! for the workloads and what each metric should move.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

mod ledger;
mod spans;
mod stats;
mod workloads;

use workloads::Workload;

// The allocator the `knocktalk` binary installs, so the benchmark runs
// the same program and can read its peak-heap gauge.
#[global_allocator]
static GLOBAL: knock_talk::trace::CountingAllocator = knock_talk::trace::CountingAllocator;

/// A run sets up at least this many times, and more while the set-ups
/// together took under `SETUP_SECONDS`; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
const SETUP_SECONDS: f64 = 3.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut values: BTreeMap<String, String> = BTreeMap::new();
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if values.insert(key.to_string(), value).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let mut take = |key: &str| values.remove(key);
    let workload = take("workload").ok_or("--workload is required")?;
    let workload = Workload::parse(&workload).ok_or_else(|| {
        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!(
            "unknown workload {workload:?}; expected one of {}",
            names.join(", ")
        )
    })?;
    let seed = take("seed")
        .unwrap_or_else(|| "1".to_string())
        .parse()
        .map_err(|_| "--seed expects an unsigned integer")?;
    let seconds: f64 = take("seconds")
        .unwrap_or_else(|| "20".to_string())
        .parse()
        .ok()
        .filter(|s: &f64| *s > 0.0)
        .ok_or("--seconds expects a positive number")?;
    let trace = match take("trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace expects 0 or 1, got {other:?}")),
    };
    let spans_out = take("spans-out").map(PathBuf::from);
    if let Some(key) = values.keys().next() {
        return Err(format!("unknown flag --{key}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        spans_out,
    })
}

/// The run's working directory under the current one, removed on drop.
struct RunDir(PathBuf);

impl RunDir {
    fn create() -> Result<RunDir, String> {
        let dir = PathBuf::from(".bench_tmp").join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(RunDir(dir))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Only succeeds once no other run uses the parent.
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

/// One metric as printed: value and unit.
pub type Metrics = Vec<(&'static str, f64, &'static str)>;

pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Extra human-readable lines printed before the metrics.
    pub notes: Vec<String>,
}

fn fresh_dir(path: PathBuf) -> Result<PathBuf, String> {
    std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
    Ok(path)
}

/// Set up `workload` several times, keeping the last set-up's inputs.
fn timed_setups(
    workload: Workload,
    seed: u64,
    workers: usize,
    dir: &Path,
) -> Result<(workloads::Setup, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut kept: Option<workloads::Setup> = None;
    let begun = Instant::now();
    for i in 0.. {
        if i >= SETUP_REPEATS && begun.elapsed().as_secs_f64() >= SETUP_SECONDS {
            break;
        }
        let setup_dir = fresh_dir(dir.join(format!("setup-{i}")))?;
        let start = Instant::now();
        let setup = workloads::setup(workload, seed, workers, &setup_dir)?;
        times.push(start.elapsed().as_secs_f64());
        if let Some(previous) = kept.replace(setup) {
            if previous.reference != kept.as_ref().expect("just set").reference {
                return Err("two set-ups of the same seed produced different references".into());
            }
            let _ = std::fs::remove_dir_all(dir.join(format!("setup-{}", i - 1)));
        }
    }
    Ok((kept.expect("at least one set-up"), times))
}

/// The closed loop of untraced operations and the end-to-end metrics.
fn measure(args: &Args, workers: usize, dir: &Path) -> Result<Report, String> {
    let (setup, setup_times) = timed_setups(args.workload, args.seed, workers, dir)?;
    eprintln!("reference: {}", setup.reference.describe());
    match args.workload {
        Workload::Reanalyze => eprintln!(
            "saved store: {} bytes",
            std::fs::metadata(&setup.store_path).map_or(0, |m| m.len())
        ),
        Workload::Recover => eprintln!("kill frame: {}", setup.kill_frame),
        _ => {}
    }
    let mut secs = Vec::new();
    let mut restart = Vec::new();
    let mut peaks = Vec::new();
    let mut disks = Vec::new();
    let mut units = 0;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let start = Instant::now();
    while attempted == 0 || start.elapsed().as_secs_f64() < args.seconds {
        attempted += 1;
        let op_dir = fresh_dir(dir.join(format!("op-{attempted}")))?;
        let run = catch_unwind(AssertUnwindSafe(|| workloads::run_op(&setup, &op_dir)));
        let disk = workloads::dir_bytes(&op_dir);
        let _ = std::fs::remove_dir_all(&op_dir);
        match run {
            Ok(Ok(run)) if run.fingerprint == setup.reference => {
                eprintln!("operation {attempted}: {:.6} s", run.secs);
                secs.push(run.secs);
                restart.push(run.restart_secs);
                peaks.push(run.peak_heap as f64);
                disks.push(disk as f64);
                units = run.units;
            }
            Ok(Ok(run)) => {
                failed += 1;
                eprintln!(
                    "operation {attempted}: output differs from the reference: {}",
                    run.fingerprint.describe()
                );
            }
            Ok(Err(e)) => {
                failed += 1;
                eprintln!("operation {attempted} failed: {e}");
            }
            Err(_) => {
                failed += 1;
                eprintln!("operation {attempted} panicked");
            }
        }
    }
    let op_s = stats::median(&secs);
    let (tail, percentile) = stats::tail(&secs);
    let units_per_s = if op_s > 0.0 { units as f64 / op_s } else { 0.0 };
    Ok(Report {
        attempted,
        failed,
        notes: vec![
            format!(
                "op_s.tail is p{percentile:.1} of {} samples; fail_ratio = {:.4} ({failed}/{attempted})",
                secs.len(),
                failed as f64 / attempted as f64
            ),
            format!("units per operation: {units}; workers: {workers}"),
        ],
        metrics: vec![
            ("op_s", op_s, "s"),
            ("op_s.tail", tail, "s"),
            ("units_per_s", units_per_s, "1/s"),
            ("peak_heap_mb", stats::median(&peaks) / 1e6, "MB"),
            ("disk_mb", stats::median(&disks) / 1e6, "MB"),
            ("recover_s", stats::median(&restart), "s"),
            ("setup_s", stats::median(&setup_times), "s"),
        ],
    })
}

fn result_json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let result = RunDir::create().and_then(|dir| {
        if args.trace {
            ledger::run(
                args.workload,
                args.seed,
                args.seconds,
                workers,
                &dir.0,
                args.spans_out.as_deref(),
            )
        } else {
            measure(&args, workers, &dir.0)
        }
    });
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "workload {} seed {} ({} mode, {workers} workers)",
        args.workload.name(),
        args.seed,
        if args.trace { "traced" } else { "untraced" }
    );
    for note in &report.notes {
        println!("{note}");
    }
    for (name, value, unit) in &report.metrics {
        println!("{name:<36} {value:>16.6} {unit}");
    }
    println!("{}", result_json(&report));
    ExitCode::SUCCESS
}
