//! `knocktalk` — the command-line interface.
//!
//! ```text
//! knocktalk repro    [--scale quick|standard|paper] [--seed N] [--id T5]
//!                    [--journal FILE] [--kill-frames N] [--kill-mode mid-frame|post-frame]
//!                    [--flush-every BYTES] [--group-frames N]
//! knocktalk crawl    [--os windows|linux|mac] [--scale ...] [--seed N] [--save FILE]
//!                    [--profile naive|headless-patched|stealth|human-replay]
//!                    [--journal FILE] [--kill-frames N] [--kill-mode mid-frame|post-frame]
//!                    [--flush-every BYTES] [--group-frames N]
//! knocktalk bias     [--seed N] [--workers N] [--out FILE] [--metrics-out FILE]
//! knocktalk resume   <study.ktj> [--id T5]
//! knocktalk fsck     <journal.ktj|store.ktstore|DIR> [--repair yes]
//! knocktalk analyze  <store.ktstore|journal.ktj>
//! knocktalk classify <netlog.json> [--os windows|linux|mac] [--loaded-at MS]
//!                    [--domain NAME]
//! knocktalk entropy  [--machines N] [--seed N]
//! knocktalk scan     [--os windows|linux|mac] [--seed N] [--ports P,P,...]
//!                    [--sequence P,P,P] [--payload HEX] [--udp yes] [--ipv6 yes]
//!                    [--lan no] [--concurrency N] [--timeout-ms N] [--retries N]
//!                    [--breaker-threshold N] [--breaker-cooldown-ms N]
//!                    [--deadline-ms N] [--fault-rate R] [--agreement yes]
//!                    [--sites N] [--metrics-out FILE]
//! knocktalk serve    [--tenants N] [--campaigns N] [--sites N] [--seed N]
//!                    [--workers N] [--queue-capacity N] [--policy block|shed]
//!                    [--max-campaigns N] [--max-visits N] [--deadline-ms N]
//!                    [--storm yes] [--check invariants,tables] [--metrics-out FILE]
//!                    [--journal-dir DIR] [--flush-every BYTES] [--group-frames N]
//! knocktalk snapshot crawl [--snapshots N] [--size N] [--churn R] [--relist R]
//!                    [--content-churn R] [--seed N] [--workers N] [--full yes]
//!                    [--store DIR] [--spill DIR] [--journal FILE] [--resume yes]
//!                    [--kill-frames N] [--kill-mode mid-frame|post-frame]
//!                    [--metrics-out FILE]
//! knocktalk snapshot diff --store DIR [--mode mmap|resident] [--workers N]
//!                    [--snapshots L1,L2,...] [--out FILE] [--metrics-out FILE]
//! knocktalk snapshot gc --store DIR [--keep N]
//! knocktalk health   [--scale quick|standard|paper] [--seed N]
//! knocktalk profile  [--scale quick|standard|paper] [--seed N] [--workers N]
//! knocktalk help
//! ```
//!
//! `repro`, `crawl`, and `resume` additionally accept `--workers N`,
//! `--metrics-out FILE` (Prometheus text exposition of the campaign's
//! metrics registry) and `--trace-out FILE` (JSONL span/event trace
//! over the simulated clock).
//!
//! `fsck` is the one store doctor: a journal or saved-store file, or a
//! snapshot store when the path is a directory.
//!
//! `classify` is the downstream-facing subcommand: point it at a JSON
//! capture from `chrome://net-export` (or from this library) and it
//! prints every locally-destined request plus the behaviour class the
//! site's traffic matches — the paper's §4 analysis, one file at a
//! time. Argument parsing is hand-rolled (the workspace's dependency
//! policy keeps the tree small).

use std::process::ExitCode;

mod args;
mod commands;

// Feeds `knocktalk profile`'s per-stage allocation columns; a
// pass-through to the system allocator everywhere else.
#[global_allocator]
static GLOBAL: knock_talk::trace::CountingAllocator = knock_talk::trace::CountingAllocator;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        commands::help();
        return ExitCode::SUCCESS;
    };
    let opts = match args::Options::parse(rest) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command.as_str() {
        "repro" => commands::repro(&opts),
        "crawl" => commands::crawl(&opts),
        "bias" => commands::bias(&opts),
        "resume" => commands::resume(&opts),
        "fsck" => commands::fsck(&opts),
        "analyze" => commands::analyze(&opts),
        "classify" => commands::classify(&opts),
        "entropy" => commands::entropy(&opts),
        "scan" => commands::scan(&opts),
        "serve" => commands::serve(&opts),
        "snapshot" => commands::snapshot(&opts),
        "health" => commands::health(&opts),
        "profile" => commands::profile(&opts),
        "help" | "--help" | "-h" => {
            commands::help();
            Ok(())
        }
        other => Err(format!("unknown command {other:?}; try `knocktalk help`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
