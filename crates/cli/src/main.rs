//! `knocktalk` — the command-line interface. `knocktalk help` prints
//! the usage: every command and the flags it reads.
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
    let result = match argv.split_first() {
        Some((command, rest)) if !matches!(command.as_str(), "help" | "--help" | "-h") => {
            commands::lookup(command, rest)
                .and_then(|(flags, run)| run(&args::Options::parse(rest, flags)?))
        }
        _ => {
            commands::help();
            Ok(())
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
