//! The metric-name schema: every series the pipeline exports, declared
//! once as a row of [`SERIES`]. The `pub const` names producers use,
//! the registry's help text ([`describe_defaults`]) and the series CI
//! requires in every export ([`pre_created`]) all come from that table.
//!
//! Naming rules (see DESIGN.md §13):
//! - counters end in `_total`; gauges and histograms name their unit
//!   (`_seconds`, `_ratio`) or are bare nouns;
//! - label keys come from the closed set {`crawl`, `os`, `error`,
//!   `stage`, `locality`, `tenant`, `reason`, `profile`, `archetype`}
//!   — all low-cardinality (≤ 11 values each; `tenant` is bounded by
//!   the service's admission table, `reason` by the `AdmissionError`
//!   variants, `profile` and `archetype` by the bias model's enums);
//! - only schedule-invariant values may be exported: anything derived
//!   from claim order or per-worker wall clocks (makespan,
//!   connectivity stalls) stays out of the registry so the exposition
//!   text is byte-identical across worker counts and kill/resume.

use crate::metrics::{HistogramSpec, Labels, Registry};

/// What a row declares: the registry kind, with a histogram's shape.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// A monotone sum, merged across workers.
    Counter,
    /// A supervisor-set absolute value.
    Gauge,
    /// Fixed-bucket observations.
    Histogram(&'static HistogramSpec),
}

/// One row of the schema.
#[derive(Debug)]
pub struct Series {
    /// The exported metric name.
    pub name: &'static str,
    /// Counter, gauge, or histogram.
    pub kind: Kind,
    /// The `# HELP` text.
    pub help: &'static str,
    /// The label keys the series may carry.
    pub labels: &'static [&'static str],
    /// The value every export pre-creates the unlabelled series at (a
    /// histogram at zero observations); `None` when the series exists
    /// only once something records it.
    pub preset: Option<f64>,
}

/// Expands the rows into the `pub const` names (a `pub static`
/// [`HistogramSpec`] for a histogram), documented by their help and
/// labels, and into the [`SERIES`] table.
macro_rules! schema {
    ($($kind:ident $id:ident = $name:literal [$($label:ident),*] $(= $pre:literal)? $help:literal
        $(, buckets $buckets:expr, scale $scale:literal)?;)*) => {
        $(schema!(@item $kind $id $name $help concat!(
            $help, ".\n\nLabels: `", stringify!([$($label),*]), "`."
            $(, " Every export pre-creates the unlabelled series at ", stringify!($pre), ".")?
        ) $(, $buckets, $scale)?);)*

        /// Every series the pipeline exports, one row each.
        pub static SERIES: &[Series] = &[$(Series {
            name: $name,
            kind: schema!(@kind $kind $id),
            help: $help,
            labels: &[$(stringify!($label)),*],
            preset: schema!(@preset $($pre)?),
        }),*];
    };
    (@item counter $id:ident $name:literal $help:literal $doc:expr) => {
        #[doc = $doc]
        pub const $id: &str = $name;
    };
    (@item gauge $id:ident $name:literal $help:literal $doc:expr) => {
        #[doc = $doc]
        pub const $id: &str = $name;
    };
    (@item histogram $id:ident $name:literal $help:literal $doc:expr, $buckets:expr, $scale:literal) => {
        #[doc = $doc]
        pub static $id: HistogramSpec = HistogramSpec {
            name: $name,
            help: $help,
            buckets: &$buckets,
            scale_exp: $scale,
        };
    };
    (@kind counter $id:ident) => { Kind::Counter };
    (@kind gauge $id:ident) => { Kind::Gauge };
    (@kind histogram $id:ident) => { Kind::Histogram(&$id) };
    (@preset) => { None };
    (@preset $pre:literal) => { Some($pre as f64) };
}

schema! {
    // The crawl supervisor, derived from `CrawlStats`.
    counter VISITS_TOTAL = "visits_total" [crawl, os]
        "Sites whose crawl reached a terminal verdict";
    counter SUCCESS_TOTAL = "success_total" [crawl, os]
        "Visits whose final attempt loaded cleanly";
    counter RETRIES_TOTAL = "retries_total" [crawl, os]
        "In-place retry attempts after transient failures";
    counter RECRAWLED_TOTAL = "recrawled_total" [crawl, os]
        "Sites queued for the end-of-campaign recrawl pass";
    counter RECOVERED_TOTAL = "recovered_total" [crawl, os]
        "Sites that succeeded only on the recrawl pass";
    counter GAVE_UP_TOTAL = "gave_up_total" [crawl, os]
        "Sites abandoned after exhausting every attempt";
    counter CRASHED_TOTAL = "crashed_total" [crawl, os]
        "Browser panics quarantined by the supervisor";
    counter STORE_RETRIES_TOTAL = "store_retries_total" [crawl, os]
        "Store appends retried after injected failures";
    counter FAILURES_TOTAL = "failures_total" [crawl, os, error]
        "Final-attempt failures by Chrome net_error";
    gauge CRAWL_SUCCESS_RATIO = "crawl_success_ratio" [crawl, os]
        "successful visits / attempted visits";

    // The journal writer. Writer-owned: a resumed process counts only
    // its own appends.
    counter JOURNAL_FRAMES_TOTAL = "journal_frames_total" [] = 0
        "Journal frames appended (all kinds)";
    counter JOURNAL_VISITS_TOTAL = "journal_visits_total" [] = 0
        "Visit frames appended to the journal";
    counter JOURNAL_CHECKPOINTS_TOTAL = "journal_checkpoints_total" [] = 0
        "Checkpoint frames appended to the journal";
    counter JOURNAL_BYTES_TOTAL = "journal_bytes_total" [] = 0
        "Bytes appended to the journal";
    counter JOURNAL_FSYNCS_TOTAL = "journal_fsyncs_total" [] = 0
        "fsync calls issued by the journal writer";
    counter JOURNAL_GROUP_COMMITS_TOTAL = "journal_group_commits_total" [] = 0
        "Batched group-commit writes draining the journal frame buffer";
    counter JOURNAL_GROUPED_FRAMES_TOTAL = "journal_grouped_frames_total" [] = 0
        "Frames whose write syscall was amortized by a group commit";
    gauge JOURNAL_FRAMES_PER_FSYNC = "journal_frames_per_fsync" []
        "Frames appended per fsync (group-commit amortization)";

    // Analysis and `persist::save`.
    counter LOCAL_OBSERVATIONS_TOTAL = "local_observations_total" [crawl]
        "Local-network observations found by analysis";
    gauge LOCAL_SITES = "local_sites" [crawl, locality]
        "Distinct sites with local traffic, by locality";
    gauge STORE_RECORDS = "store_records" [crawl]
        "Telemetry records analyzed per campaign";
    gauge SAVE_RECORDS = "save_records" [] "Records written by the store snapshot";
    gauge SAVE_BYTES = "save_bytes" [] "Bytes written by the store snapshot";
    gauge SAVE_FSYNCS = "save_fsyncs" [] "fsyncs issued by the store snapshot";
    // Recorded in microseconds under the deterministic per-element cost
    // model (DESIGN.md §13), so the distribution is worker-count
    // invariant.
    histogram ANALYSIS_STAGE_SECONDS = "analysis_stage_seconds" [crawl, stage]
        "Simulated seconds spent per analysis stage (deterministic cost model)",
        buckets [
            100,        // 100 µs
            1_000,      // 1 ms
            10_000,     // 10 ms
            100_000,    // 100 ms
            1_000_000,  // 1 s
            10_000_000, // 10 s
            60_000_000, // 1 min
        ], scale -6;

    // The active scanner and its cross-validation against the passive
    // window (`reason` is the behaviour class).
    counter SCAN_KNOCKS_TOTAL = "scan_knocks_total" [] = 0
        "Knock attempts sent by the active scanner, retries included";
    counter SCAN_RETRIES_TOTAL = "scan_retries_total" [] = 0
        "Knock retries after transient probe failures";
    counter SCAN_TIMEOUTS_TOTAL = "scan_timeouts_total" [] = 0
        "Knock attempts that hit the per-knock timeout";
    counter SCAN_BREAKER_TRIPS_TOTAL = "scan_breaker_trips_total" [] = 0
        "Per-host circuit-breaker trips during a scan";
    counter SCAN_BREAKER_SKIPS_TOTAL = "scan_breaker_skips_total" [] = 0
        "Knocks skipped because the target host's breaker was open";
    counter SCAN_UNPROBED_TOTAL = "scan_unprobed_total" [] = 0
        "Targets left unprobed when the scan deadline budget ran out";
    gauge SCAN_OPEN_PORTS = "scan_open_ports" [] = 0
        "Ports the active scanner confirmed open";
    counter SCAN_AGREEMENT_BOTH_TOTAL = "scan_agreement_both_total" [reason] = 0
        "Cross-validation cells where passive and active detection agree";
    counter SCAN_AGREEMENT_PASSIVE_ONLY_TOTAL = "scan_agreement_passive_only_total" [reason] = 0
        "Cells only the 20-second passive window detected";
    counter SCAN_AGREEMENT_ACTIVE_ONLY_TOTAL = "scan_agreement_active_only_total" [reason] = 0
        "Cells only the active scan detected (passive false negatives)";
    counter SCAN_AGREEMENT_NEITHER_TOTAL = "scan_agreement_neither_total" [reason] = 0
        "Cells where neither detection side fired";
    // Recorded in milliseconds of the latency model, fault delays
    // included.
    histogram SCAN_KNOCK_SECONDS = "scan_knock_seconds" [] = 0
        "Simulated seconds per knock attempt (deterministic latency model)",
        buckets [
            1,      // 1 ms (loopback RST)
            5,      // 5 ms
            20,     // 20 ms
            100,    // 100 ms
            500,    // 500 ms
            1_000,  // 1 s (typical per-knock timeout)
            5_000,  // 5 s
            30_000, // 30 s (fabric connect timeout)
        ], scale -3;

    // The measurement-bias sweep. Planted truth is profile-invariant by
    // construction; it is exported per profile so the checker can
    // assert the invariance.
    counter BIAS_TRUE_SITES_TOTAL = "bias_true_sites_total" [profile] = 0
        "Ground-truth locally-active sites planted in the bias population";
    counter BIAS_OBSERVED_SITES_TOTAL = "bias_observed_sites_total" [profile] = 0
        "Ground-truth sites the profile's crawl observed as locally active";
    counter BIAS_SUPPRESSED_SITES_TOTAL = "bias_suppressed_sites_total" [profile] = 0
        "Ground-truth sites missing from the profile's crawl";
    counter BIAS_HIDDEN_SITES_TOTAL = "bias_hidden_sites_total" [profile, archetype] = 0
        "Sensored ground-truth sites invisible to the profile, by archetype";
    gauge BIAS_OBSERVED_RATIO = "bias_observed_ratio" [profile] = 0
        "observed sites / true sites for the profile";

    // The longitudinal snapshot engine. Work counters come from the
    // incremental plans, so they are identical across worker counts and
    // kill/resume.
    counter SNAPSHOT_VISITS_TOTAL = "snapshot_visits_total" [] = 0
        "Visits executed by the longitudinal snapshot engine";
    counter SNAPSHOT_FULL_VISITS_TOTAL = "snapshot_full_visits_total" [] = 0
        "Visits a full per-snapshot recrawl would have executed";
    counter SNAPSHOT_LINKED_TOTAL = "snapshot_linked_total" [] = 0
        "Manifest rows linked to prior-snapshot chunks by reference";
    counter SNAPSHOT_CHUNKS_TOTAL = "snapshot_chunks_total" [] = 0
        "Chunks newly written to the content-addressed snapshot store";
    gauge SNAPSHOT_DEDUP_RATIO = "snapshot_dedup_ratio" [] = 1
        "logical bytes / stored bytes of the snapshot store";
    gauge SNAPSHOT_STORED_BYTES = "snapshot_stored_bytes" [] = 0
        "Bytes the snapshot store actually holds";
    gauge SNAPSHOT_LOGICAL_BYTES = "snapshot_logical_bytes" [] = 0
        "Bytes the snapshots would occupy stored flat";
    gauge SNAPSHOT_INCREMENTAL_FRACTION = "snapshot_incremental_fraction" [] = 0
        "executed visits / full-recrawl visits over the snapshot series";

    // The resident campaign service, per tenant. Admitted = completed +
    // shed + drained once the service has drained.
    counter SERVICE_ADMITTED_TOTAL = "service_admitted_total" [tenant] = 0
        "Campaigns accepted by service admission control";
    counter SERVICE_REJECTED_TOTAL = "service_rejected_total" [tenant, reason] = 0
        "Campaigns rejected at admission";
    counter SERVICE_COMPLETED_TOTAL = "service_completed_total" [tenant] = 0
        "Admitted campaigns that ran to completion";
    counter SERVICE_SHED_TOTAL = "service_shed_total" [tenant] = 0
        "Admitted campaigns cancelled by deadline budget";
    counter SERVICE_DRAINED_TOTAL = "service_drained_total" [tenant] = 0
        "Admitted campaigns still in flight when the service drained";
    counter SERVICE_UPDATES_TOTAL = "service_updates_total" [tenant] = 0
        "Visit-result updates enqueued toward online aggregation";
    counter SERVICE_UPDATES_SHED_TOTAL = "service_updates_shed_total" [tenant] = 0
        "Updates shed by the bounded queue's overflow policy";
    counter SERVICE_QUEUE_BLOCKS_TOTAL = "service_queue_blocks_total" [tenant] = 0
        "Producer stalls absorbed by the Block overflow policy";
    // The deterministic single-server queue model, not the physical
    // channel.
    gauge SERVICE_QUEUE_DEPTH = "service_queue_depth" [tenant] = 0
        "Modeled high-water depth of the bounded result queue";
}

/// Declare help text for every schema series and materialise the
/// pre-created ones (the journal counters exist even in un-journaled
/// runs, so dashboards and the CI checker can rely on them).
pub fn describe_defaults(reg: &mut Registry) {
    for series in SERIES {
        match series.kind {
            Kind::Counter => reg.describe_counter(series.name, series.help),
            Kind::Gauge => reg.describe_gauge(series.name, series.help),
            Kind::Histogram(spec) => reg.describe_histogram(spec),
        }
        let Some(value) = series.preset else { continue };
        match series.kind {
            Kind::Counter => reg.touch_counter(series.name, Labels::empty()),
            Kind::Gauge => reg.set_gauge(series.name, Labels::empty(), value),
            Kind::Histogram(spec) => reg.touch_histogram(spec, Labels::empty()),
        }
    }
}

/// The series every export built on [`describe_defaults`] carries.
pub fn pre_created() -> impl Iterator<Item = &'static str> {
    SERIES
        .iter()
        .filter(|series| series.preset.is_some())
        .map(|series| series.name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_pre_create_journal_series_at_zero() {
        let mut reg = Registry::new();
        describe_defaults(&mut reg);
        let text = reg.render_prometheus();
        for name in [
            "journal_frames_total 0",
            "journal_visits_total 0",
            "journal_checkpoints_total 0",
            "journal_bytes_total 0",
            "journal_fsyncs_total 0",
            "service_admitted_total 0",
            "service_rejected_total 0",
            "service_completed_total 0",
            "service_shed_total 0",
            "service_drained_total 0",
            "service_updates_total 0",
            "service_updates_shed_total 0",
            "service_queue_blocks_total 0",
            "service_queue_depth 0",
            "scan_knocks_total 0",
            "scan_retries_total 0",
            "scan_timeouts_total 0",
            "scan_breaker_trips_total 0",
            "scan_breaker_skips_total 0",
            "scan_unprobed_total 0",
            "scan_open_ports 0",
            "scan_agreement_both_total 0",
            "scan_agreement_passive_only_total 0",
            "scan_agreement_active_only_total 0",
            "scan_agreement_neither_total 0",
            "bias_true_sites_total 0",
            "bias_observed_sites_total 0",
            "bias_suppressed_sites_total 0",
            "bias_hidden_sites_total 0",
            "bias_observed_ratio 0",
            "snapshot_visits_total 0",
            "snapshot_full_visits_total 0",
            "snapshot_linked_total 0",
            "snapshot_chunks_total 0",
            "snapshot_dedup_ratio 1",
            "snapshot_stored_bytes 0",
            "snapshot_logical_bytes 0",
            "snapshot_incremental_fraction 0",
        ] {
            assert!(text.contains(name), "missing {name:?} in:\n{text}");
        }
        assert!(text.contains("# TYPE analysis_stage_seconds histogram"));
        assert!(text.contains("# TYPE scan_knock_seconds histogram"));
        assert!(
            text.contains("scan_knock_seconds_count 0"),
            "scan knock histogram must exist at zero observations"
        );
    }

    #[test]
    fn describe_defaults_is_idempotent() {
        let mut reg = Registry::new();
        describe_defaults(&mut reg);
        let once = reg.render_prometheus();
        describe_defaults(&mut reg);
        assert_eq!(once, reg.render_prometheus());
    }

    #[test]
    fn every_series_row_is_well_formed() {
        const LABEL_KEYS: [&str; 9] = [
            "crawl",
            "os",
            "error",
            "stage",
            "locality",
            "tenant",
            "reason",
            "profile",
            "archetype",
        ];
        let mut seen = std::collections::BTreeSet::new();
        for series in SERIES {
            let name = series.name;
            assert!(seen.insert(name), "{name} declared twice");
            let mut chars = name.chars();
            assert!(
                chars
                    .next()
                    .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
                    && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "{name} is not a valid Prometheus metric name"
            );
            let counter = matches!(series.kind, Kind::Counter);
            assert_eq!(
                name.ends_with("_total"),
                counter,
                "{name}: `_total` belongs on counters and only on counters"
            );
            assert!(!series.help.is_empty(), "{name} has no help text");
            for key in series.labels {
                assert!(
                    LABEL_KEYS.contains(key),
                    "{name}: label {key} is not in the set"
                );
            }
            if !matches!(series.kind, Kind::Gauge) {
                let preset = series.preset.unwrap_or(0.0);
                assert_eq!(preset, 0.0, "{name}: only a gauge is pre-created above 0");
            }
        }
    }
}
