//! `knocktalk` whose reader goes away (`knocktalk ... | head`) stops
//! quietly instead of panicking.

use std::process::{Command, Stdio};

#[test]
fn a_closed_stdout_ends_the_command_quietly() {
    // `repro` computes for a while before its first write and prints
    // more than a pipe buffer holds, so it writes into the closed pipe
    // however the two processes are scheduled.
    let mut child = Command::new(env!("CARGO_BIN_EXE_knocktalk"))
        .args(["repro", "--scale", "quick", "--seed", "7"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    drop(child.stdout.take());
    let output = child.wait_with_output().unwrap();
    assert!(output.status.success(), "{output:?}");
    assert_eq!(String::from_utf8_lossy(&output.stderr), "");
}
