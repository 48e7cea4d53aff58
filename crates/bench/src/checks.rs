//! The `--check` regression comparator for the perf binary.
//!
//! Kept in the library (rather than the binary) so the
//! missing-stage-fails contract is unit-tested: `--check` must fail
//! not only when a stage got slower, but when a stage the baseline
//! measured is absent from the current run — a silently dropped stage
//! would otherwise pass forever.

/// Compare each stage's machine-normalized throughput against the
/// baseline file; collect every stage that regressed more than 2×.
pub fn check_regressions(
    current: &serde_json::Value,
    baseline: &serde_json::Value,
) -> Result<Vec<String>, String> {
    let rel = |entry: &serde_json::Value, stage: &str| -> Option<f64> {
        entry.get("stages")?.get(stage)?.get("relative")?.as_f64()
    };
    let baseline_pops = baseline
        .get("populations")
        .and_then(|p| p.as_array())
        .ok_or("baseline has no populations array")?;
    let current_pops = current
        .get("populations")
        .and_then(|p| p.as_array())
        .ok_or("current run has no populations array")?;
    let mut failures = Vec::new();
    for cur in current_pops {
        let sites = cur.get("sites").and_then(|s| s.as_u64());
        let Some(base) = baseline_pops
            .iter()
            .find(|b| b.get("sites").and_then(|s| s.as_u64()) == sites)
        else {
            continue; // no baseline at this size — nothing to compare
        };
        for stage in ["crawl", "scan", "analyze", "decode_detect_view"] {
            // A stage the baseline measured but the current run did not
            // produce is a hard failure: a silently dropped stage would
            // otherwise pass `--check` forever (a baseline without the
            // stage is fine — it predates the stage).
            match (rel(base, stage), rel(cur, stage)) {
                (Some(b), Some(c)) => {
                    if c <= 0.0 || b / c > 2.0 {
                        failures.push(format!(
                            "{stage} @ {} sites: relative {b:.2} -> {c:.2} ({:.2}x slower)",
                            sites.unwrap_or(0),
                            b / c.max(1e-9)
                        ));
                    }
                }
                (Some(_), None) => failures.push(format!(
                    "{stage} @ {} sites: in baseline but missing from current run",
                    sites.unwrap_or(0)
                )),
                (None, _) => {}
            }
        }
    }
    // Service mode: machine-normalized events/sec regresses like any
    // other stage; the p99 completion tail is on the simulated clock,
    // so a >2x change means the scheduler itself got less fair, not
    // that the host was busy. Skip silently against pre-service
    // baselines.
    let field = |entry: &serde_json::Value, key: &str| -> Option<f64> {
        entry.get("service")?.get(key)?.as_f64()
    };
    match (field(baseline, "relative"), field(current, "relative")) {
        (Some(b), Some(c)) => {
            if c <= 0.0 || b / c > 2.0 {
                failures.push(format!(
                    "service events/sec: relative {b:.2} -> {c:.2} ({:.2}x slower)",
                    b / c.max(1e-9)
                ));
            }
        }
        (Some(_), None) => {
            failures.push("service stage: in baseline but missing from current run".to_string());
        }
        (None, _) => {}
    }
    if let (Some(b), Some(c)) = (
        field(baseline, "p99_completion_ms"),
        field(current, "p99_completion_ms"),
    ) {
        if b > 0.0 && c / b > 2.0 {
            failures.push(format!(
                "service p99 campaign completion: {b:.0}ms -> {c:.0}ms ({:.2}x slower, simulated)",
                c / b
            ));
        }
    }
    // Raw-speed-floor stages: the mmap'd-store scan, the grouped
    // journal writer and its replay regress on their machine-normalized
    // throughput like any other stage. Skip silently against older
    // baselines.
    let path = |entry: &serde_json::Value, keys: &[&str]| -> Option<f64> {
        let mut v = entry;
        for key in keys {
            v = v.get(key)?;
        }
        v.as_f64()
    };
    let top_level: [(&str, &[&str]); 7] = [
        ("flat-memory scan", &["flat_memory", "scan", "relative"]),
        ("journal grouped", &["journal", "grouped", "relative"]),
        ("journal replay", &["journal", "replay", "relative"]),
        ("port scan", &["port_scan", "scan", "relative"]),
        ("snapshot store", &["snapshot_store", "relative"]),
        ("snapshot diff", &["snapshot_diff", "relative"]),
        ("bias sweep", &["bias_sweep", "relative"]),
    ];
    for (label, keys) in top_level {
        match (path(baseline, keys), path(current, keys)) {
            (Some(b), Some(c)) => {
                if c <= 0.0 || b / c > 2.0 {
                    failures.push(format!(
                        "{label}: relative {b:.2} -> {c:.2} ({:.2}x slower)",
                        b / c.max(1e-9)
                    ));
                }
            }
            (Some(_), None) => {
                failures.push(format!("{label}: in baseline but missing from current run"))
            }
            (None, _) => {}
        }
    }
    Ok(failures)
}

#[cfg(test)]
mod tests {
    use super::check_regressions;

    /// A minimal report with every stage family present.
    fn report(relative: f64) -> serde_json::Value {
        serde_json::json!({
            "populations": [{
                "sites": 64,
                "stages": {
                    "crawl": { "relative": relative },
                    "scan": { "relative": relative },
                    "analyze": { "relative": relative },
                    "decode_detect_view": { "relative": relative },
                },
            }],
            "service": { "relative": relative, "p99_completion_ms": 1000.0 },
            "flat_memory": { "scan": { "relative": relative } },
            "journal": {
                "grouped": { "relative": relative },
                "replay": { "relative": relative },
            },
            "port_scan": { "scan": { "relative": relative } },
            "snapshot_store": { "relative": relative },
            "snapshot_diff": { "relative": relative },
            "bias_sweep": { "relative": relative },
        })
    }

    #[test]
    fn identical_runs_pass() {
        let failures = check_regressions(&report(100.0), &report(100.0)).expect("comparable");
        assert!(failures.is_empty(), "unexpected failures: {failures:?}");
    }

    #[test]
    fn regressions_over_2x_fail() {
        let failures = check_regressions(&report(40.0), &report(100.0)).expect("comparable");
        assert!(!failures.is_empty());
        assert!(failures.iter().any(|f| f.contains("crawl @ 64 sites")));
        assert!(failures.iter().any(|f| f.contains("snapshot store")));
    }

    #[test]
    fn stage_missing_from_current_run_fails() {
        let baseline = report(100.0);
        let mut current = report(100.0);
        // Drop one population stage and one top-level stage from the
        // current run; the baseline still measures both.
        if let serde_json::Value::Object(map) = &mut current {
            map.remove("snapshot_diff");
            if let Some(serde_json::Value::Array(pops)) = map.get_mut("populations") {
                if let Some(serde_json::Value::Object(pop)) = pops.get_mut(0) {
                    if let Some(serde_json::Value::Object(stages)) = pop.get_mut("stages") {
                        stages.remove("analyze");
                    }
                }
            }
        }
        let failures = check_regressions(&current, &baseline).expect("comparable");
        assert!(
            failures
                .iter()
                .any(|f| f.contains("analyze @ 64 sites") && f.contains("missing")),
            "population stage loss must fail: {failures:?}"
        );
        assert!(
            failures
                .iter()
                .any(|f| f.contains("snapshot diff") && f.contains("missing")),
            "top-level stage loss must fail: {failures:?}"
        );
    }

    #[test]
    fn stage_missing_from_baseline_is_skipped() {
        // An old baseline that predates a stage compares clean: only
        // the current run losing a stage is an error.
        let mut baseline = report(100.0);
        if let serde_json::Value::Object(map) = &mut baseline {
            map.remove("snapshot_store");
            map.remove("snapshot_diff");
            map.remove("port_scan");
        }
        let failures = check_regressions(&report(100.0), &baseline).expect("comparable");
        assert!(failures.is_empty(), "unexpected failures: {failures:?}");
    }
}
