//! `knocktalk` — the command-line interface. `knocktalk help` prints
//! the usage: every command and the flags it reads.
//!
//! `classify` is the downstream-facing subcommand: point it at a JSON
//! capture from `chrome://net-export` (or from this library) and it
//! prints every locally-destined request plus the behaviour class the
//! site's traffic matches — the paper's §4 analysis, one file at a
//! time. Argument parsing is hand-rolled (the workspace's dependency
//! policy keeps the tree small).

use std::io::{self, Write};
use std::process::ExitCode;

mod args;
mod commands;

// Feeds `knocktalk profile`'s per-stage allocation columns; a
// pass-through to the system allocator everywhere else.
#[global_allocator]
static GLOBAL: knock_talk::trace::CountingAllocator = knock_talk::trace::CountingAllocator;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut out = io::stdout().lock();
    let result = commands::run(&argv, &mut out).and_then(|()| Ok(out.flush()?));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        // The reader stopped reading (`knocktalk ... | head`): there is
        // no one left to report to.
        Err(commands::Error::Output(e)) if e.kind() == io::ErrorKind::BrokenPipe => {
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
