//! A journal whose writes fail makes the command fail with the I/O
//! error, instead of reporting a simulated crash or a clean run and
//! exiting 0. Each child runs under a small file-size limit with
//! SIGXFSZ ignored, so a write past the limit fails with EFBIG the way
//! a full disk fails with ENOSPC, after the journal's magic went
//! through. A `serve` journal directory that cannot be created fails
//! the command too, without a panic.

#![cfg(unix)]

use std::path::Path;
use std::process::{Command, Output};

/// Run `knocktalk args` under a 64-block file-size limit.
fn knocktalk_with_small_file_limit(args: &[&str], journal: &Path) -> Output {
    Command::new("sh")
        .arg("-c")
        .arg("ulimit -f 64 && trap '' XFSZ && exec \"$0\" \"$@\"")
        .arg(env!("CARGO_BIN_EXE_knocktalk"))
        .args(args)
        .arg(journal)
        .output()
        .expect("spawn sh")
}

fn assert_fails_naming_the_write_error(output: &Output) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("File too large"), "{stderr}");
    assert!(!stderr.contains("simulated crash"), "{stderr}");
}

#[test]
fn a_failed_journal_write_fails_repro_and_resume() {
    let path = std::env::temp_dir().join(format!("kt-cli-efbig-{}.ktj", std::process::id()));
    let output = knocktalk_with_small_file_limit(
        &["repro", "--scale", "quick", "--seed", "7", "--journal"],
        &path,
    );
    assert_fails_naming_the_write_error(&output);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("failed after"), "{stderr}");

    // A resumed run appends to the journal too: kill one early, then
    // resume it under the limit.
    let killed = Command::new(env!("CARGO_BIN_EXE_knocktalk"))
        .args([
            "repro",
            "--scale",
            "quick",
            "--seed",
            "7",
            "--kill-frames",
            "40",
            "--journal",
        ])
        .arg(&path)
        .output()
        .expect("spawn knocktalk");
    assert!(killed.status.success(), "{killed:?}");
    let output = knocktalk_with_small_file_limit(&["resume"], &path);
    std::fs::remove_file(&path).ok();
    assert_fails_naming_the_write_error(&output);
}

#[test]
fn a_failed_campaign_journal_write_fails_serve() {
    let dir = std::env::temp_dir().join(format!("kt-cli-efbig-serve-{}", std::process::id()));
    let output =
        knocktalk_with_small_file_limit(&["serve", "--sites", "100", "--journal-dir"], &dir);
    std::fs::remove_dir_all(&dir).ok();
    assert_fails_naming_the_write_error(&output);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("failed after"), "{stderr}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(!stdout.contains("degraded cleanly"), "{stdout}");
}

#[test]
fn an_uncreatable_journal_dir_fails_serve_without_a_panic() {
    let file = std::env::temp_dir().join(format!("kt-cli-notdir-{}", std::process::id()));
    std::fs::write(&file, b"not a directory").expect("write file");
    let output = Command::new(env!("CARGO_BIN_EXE_knocktalk"))
        .args(["serve", "--seed", "1", "--tenants", "1", "--campaigns", "1"])
        .args(["--sites", "2", "--journal-dir"])
        .arg(file.join("sub"))
        .output()
        .expect("spawn knocktalk");
    std::fs::remove_file(&file).ok();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(
        stderr.contains(&*file.join("sub").to_string_lossy()),
        "{stderr}"
    );
    assert!(stderr.contains("os error"), "{stderr}");
}
