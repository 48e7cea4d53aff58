//! Report builders: regenerate every table of the paper from
//! telemetry-derived structures.
//!
//! Each `table*` function returns a rendered text table plus (where
//! useful) structured rows, so benches can regenerate the artefacts
//! and tests can assert on the contents.

use kt_netbase::{Os, ServiceRegistry};
use kt_store::VisitRecord;
use kt_weblists::{Blocklist, MaliciousCategory};
use std::collections::{BTreeMap, BTreeSet};

use crate::classify::{classify_site, ReasonClass};
use crate::detect::SiteLocalActivity;
use crate::par::OutcomeTally;
use kt_crawler::CrawlStats;

/// Simple fixed-width text-table renderer.
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Start a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> TextTable {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (must match the header width).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        debug_assert_eq!(row.len(), self.header.len());
        self.rows.push(row);
    }

    /// Number of body rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no body rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render with padded columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let render_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
                .trim_end()
                .to_string()
        };
        out.push_str(&render_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Condense a sorted port list into the paper's range notation
/// (`14440-9` style collapses to `14440-14449` here for clarity).
pub fn condense_ports(ports: &[u16]) -> String {
    let mut sorted: Vec<u16> = ports.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let mut parts: Vec<String> = Vec::new();
    let mut i = 0;
    while i < sorted.len() {
        let start = sorted[i];
        let mut end = start;
        while i + 1 < sorted.len() && sorted[i + 1] == end + 1 {
            end = sorted[i + 1];
            i += 1;
        }
        if end > start + 1 {
            parts.push(format!("{start}-{end}"));
        } else if end == start + 1 {
            parts.push(format!("{start}, {end}"));
        } else {
            parts.push(format!("{start}"));
        }
        i += 1;
    }
    parts.join(", ")
}

/// One crawl's Table 1 row.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Crawl label ("Top 100K: 2020", …).
    pub crawl: String,
    /// OS label.
    pub os: String,
    /// Successful loads.
    pub successful: usize,
    /// Failed loads.
    pub failed: usize,
    /// Error breakdown: (name, count).
    pub errors: Vec<(String, usize)>,
    /// Connectivity-check retries (measurement-side outages that
    /// delayed the crawl instead of polluting the error columns).
    pub connectivity_retries: usize,
}

/// Table 1 — web crawl statistics.
pub fn table1(rows: &[(&str, Os, &CrawlStats)]) -> (String, Vec<Table1Row>) {
    let mut table = TextTable::new([
        "Type of Crawl",
        "OS",
        "# success",
        "# failed",
        "NAME_NOT_RESOLVED",
        "CONN_REFUSED",
        "CONN_RESET",
        "CERT_CN_INVALID",
        "Others",
        "# conn retries",
    ]);
    let mut structured = Vec::new();
    for (label, os, stats) in rows {
        let errors = stats.table1_errors();
        let pct = |n: usize, d: usize| -> String {
            if d == 0 {
                "0 (0%)".to_string()
            } else {
                format!("{} ({:.1}%)", n, 100.0 * n as f64 / d as f64)
            }
        };
        let failed = stats.failed();
        table.row([
            label.to_string(),
            os.name().to_string(),
            pct(stats.successful, stats.attempted),
            pct(failed, stats.attempted),
            pct(errors[0].1, failed),
            pct(errors[1].1, failed),
            pct(errors[2].1, failed),
            pct(errors[3].1, failed),
            pct(errors[4].1, failed),
            stats.connectivity_retries.to_string(),
        ]);
        structured.push(Table1Row {
            crawl: label.to_string(),
            os: os.name().to_string(),
            successful: stats.successful,
            failed,
            errors: errors.iter().map(|(n, c)| (n.to_string(), *c)).collect(),
            connectivity_retries: stats.connectivity_retries,
        });
    }
    (table.render(), structured)
}

/// One campaign × OS resilience summary: how hard the supervisor had
/// to work to produce its Table 1 row.
#[derive(Debug, Clone)]
pub struct HealthReport {
    /// Crawl label.
    pub crawl: String,
    /// OS label.
    pub os: String,
    /// Sites attempted.
    pub attempted: usize,
    /// In-place retries after transient failures.
    pub retries: usize,
    /// Sites sent through the end-of-campaign recrawl pass.
    pub recrawled: usize,
    /// Sites that failed transiently but ended as successes.
    pub recovered: usize,
    /// Sites still failing after the recrawl pass.
    pub gave_up: usize,
    /// Visits quarantined after a worker panic.
    pub crashed: usize,
    /// Telemetry-store appends that needed a retry.
    pub store_retries: usize,
    /// Connectivity-check retries (measurement-side outages).
    pub connectivity_retries: usize,
}

impl HealthReport {
    /// Summarise one campaign's stats.
    pub fn from_stats(crawl: &str, os: Os, stats: &CrawlStats) -> HealthReport {
        HealthReport {
            crawl: crawl.to_string(),
            os: os.name().to_string(),
            attempted: stats.attempted,
            retries: stats.retries,
            recrawled: stats.recrawled,
            recovered: stats.recovered,
            gave_up: stats.gave_up,
            crashed: stats.crashed,
            store_retries: stats.store_retries,
            connectivity_retries: stats.connectivity_retries,
        }
    }

    /// Of the sites that ever failed transiently, the fraction the
    /// retry/recrawl machinery saved. 0 when none failed transiently.
    pub fn recovery_rate(&self) -> f64 {
        let tried = self.recovered + self.gave_up;
        if tried == 0 {
            0.0
        } else {
            self.recovered as f64 / tried as f64
        }
    }

    /// Fraction of attempted sites quarantined after a panic.
    pub fn quarantine_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.crashed as f64 / self.attempted as f64
        }
    }
}

/// The crawl health report: one row per campaign × OS.
pub fn health_table(rows: &[(&str, Os, &CrawlStats)]) -> (String, Vec<HealthReport>) {
    let mut table = TextTable::new([
        "Type of Crawl",
        "OS",
        "# sites",
        "retries",
        "recrawled",
        "recovered",
        "gave up",
        "quarantined",
        "store retries",
        "conn retries",
        "recovery",
    ]);
    let mut structured = Vec::new();
    for (label, os, stats) in rows {
        let report = HealthReport::from_stats(label, *os, stats);
        table.row([
            report.crawl.clone(),
            report.os.clone(),
            report.attempted.to_string(),
            report.retries.to_string(),
            report.recrawled.to_string(),
            report.recovered.to_string(),
            report.gave_up.to_string(),
            report.crashed.to_string(),
            report.store_retries.to_string(),
            report.connectivity_retries.to_string(),
            format!("{:.0}%", report.recovery_rate() * 100.0),
        ]);
        structured.push(report);
    }
    (table.render(), structured)
}

/// One journal's durability summary: what the write-ahead log holds,
/// what the crash (if any) cost, and whether a resume can make the
/// campaign whole. Rendered as the health report's durability section
/// when a study runs journaled.
#[derive(Debug, Clone, Copy)]
pub struct DurabilityReport {
    /// The replay's counts and damage. Everything after `valid_end` is
    /// the torn tail reopening for append trims.
    pub summary: kt_store::JournalSummary,
}

impl DurabilityReport {
    /// Summarise a journal replay.
    pub fn from_replay(report: &kt_store::ReplayReport) -> DurabilityReport {
        DurabilityReport {
            summary: report.summary,
        }
    }

    /// True when the journal shows no crash damage at all (duplicate
    /// finals are harmless crash-window re-runs that replay dedupes).
    pub fn clean(&self) -> bool {
        self.summary.corrupt_frames == 0 && !self.summary.truncated_tail
    }

    /// Render the health report's durability section.
    pub fn render(&self) -> String {
        let s = &self.summary;
        let mut out = String::from("Durability (write-ahead journal):\n");
        out.push_str(&format!(
            "  {} visit frames, {} checkpoints, {} flush points, {} duplicate finals deduped\n",
            s.visits, s.checkpoints, s.flush_points, s.duplicate_finals
        ));
        if self.clean() {
            out.push_str("  no damage: every frame CRC-valid, tail complete\n");
        } else {
            out.push_str(&format!(
                "  damage: {} corrupt frame(s), {} byte(s) skipped, torn tail: {}\n",
                s.corrupt_frames, s.corrupt_bytes, s.truncated_tail
            ));
            out.push_str(&format!(
                "  recovery: replay is whole up to byte {}; run `knocktalk resume` to finish, `knocktalk fsck <journal> --repair yes` to scrub\n",
                s.valid_end
            ));
        }
        out
    }
}

/// Map a record's category code back to the blocklist category.
pub fn category_of(code: u8) -> MaliciousCategory {
    match code {
        0 => MaliciousCategory::Malware,
        1 => MaliciousCategory::Abuse,
        _ => MaliciousCategory::Phishing,
    }
}

/// Code for a category (inverse of [`category_of`]).
pub fn category_code(category: MaliciousCategory) -> u8 {
    match category {
        MaliciousCategory::Malware => 0,
        MaliciousCategory::Abuse => 1,
        MaliciousCategory::Phishing => 2,
    }
}

/// Table 2 — malicious crawl summary: per category, the population,
/// sources, success rate per OS, and localhost/LAN site counts per OS.
pub fn table2(
    blocklist: &Blocklist,
    records: &[VisitRecord],
    sites: &[SiteLocalActivity],
) -> String {
    // Reduce the records to the per-(category, OS) tally the table
    // actually needs, then render from that — the same entry point the
    // single-decode parallel analysis uses, so both paths are one
    // renderer.
    let mut outcomes: BTreeMap<(u8, Os), OutcomeTally> = BTreeMap::new();
    for record in records {
        let Some(code) = record.malicious_category else {
            continue;
        };
        let tally = outcomes.entry((code, record.os)).or_default();
        tally.total += 1;
        if record.outcome.is_success() {
            tally.ok += 1;
        }
    }
    table2_tallied(blocklist, &outcomes, sites)
}

/// Table 2 from pre-aggregated outcome tallies (no record access):
/// the renderer behind [`table2`], fed directly by
/// [`crate::par::CrawlAnalysis::outcomes`].
pub fn table2_tallied(
    blocklist: &Blocklist,
    outcomes: &BTreeMap<(u8, Os), OutcomeTally>,
    sites: &[SiteLocalActivity],
) -> String {
    let mut table = TextTable::new([
        "Category",
        "# Sites",
        "Data Sources (% contribution)",
        "Success W/L/M",
        "Localhost W/L/M",
        "LAN W/L/M",
    ]);
    for category in MaliciousCategory::ALL {
        let code = category_code(category);
        let n_sites = blocklist.of_category(category).count();
        let sources = blocklist
            .source_contribution(category)
            .iter()
            .map(|(s, f)| format!("{} ({:.0}%)", s.name(), f * 100.0))
            .collect::<Vec<_>>()
            .join(", ");
        let rate = |os: Os| -> String {
            let tally = outcomes.get(&(code, os)).copied().unwrap_or_default();
            if tally.total == 0 {
                return "-".into();
            }
            format!("{:.0}%", 100.0 * tally.ok as f64 / tally.total as f64)
        };
        let activity = |lan: bool, os: Os| -> usize {
            sites
                .iter()
                .filter(|s| s.malicious_category == Some(code))
                .filter(|s| {
                    if lan {
                        s.lan_os.contains(os)
                    } else {
                        s.localhost_os.contains(os)
                    }
                })
                .count()
        };
        table.row([
            category.label().to_string(),
            n_sites.to_string(),
            sources,
            format!(
                "{}/{}/{}",
                rate(Os::Windows),
                rate(Os::Linux),
                rate(Os::MacOs)
            ),
            format!(
                "{}/{}/{}",
                activity(false, Os::Windows),
                activity(false, Os::Linux),
                activity(false, Os::MacOs)
            ),
            format!(
                "{}/{}/{}",
                activity(true, Os::Windows),
                activity(true, Os::Linux),
                activity(true, Os::MacOs)
            ),
        ]);
    }
    table.render()
}

/// Table 3 — the top-ranked localhost-active domains, split the way
/// the paper splits them (Windows vs Linux/Mac), `count` rows each.
pub fn table3(sites: &[SiteLocalActivity], count: usize) -> String {
    let mut table = TextTable::new(["Rank (W)", "Windows", "Rank (L/M)", "Linux and Mac"]);
    let mut windows: Vec<&SiteLocalActivity> = sites
        .iter()
        .filter(|s| s.localhost_os.contains(Os::Windows))
        .collect();
    windows.sort_by_key(|s| s.rank.unwrap_or(u32::MAX));
    let mut nix: Vec<&SiteLocalActivity> = sites
        .iter()
        .filter(|s| s.localhost_os.contains(Os::Linux) || s.localhost_os.contains(Os::MacOs))
        .collect();
    nix.sort_by_key(|s| s.rank.unwrap_or(u32::MAX));
    for i in 0..count {
        let w = windows.get(i);
        let n = nix.get(i);
        if w.is_none() && n.is_none() {
            break;
        }
        let fmt = |s: Option<&&SiteLocalActivity>| -> (String, String) {
            match s {
                Some(s) => (
                    s.rank.map(|r| r.to_string()).unwrap_or_default(),
                    s.domain.clone(),
                ),
                None => (String::new(), String::new()),
            }
        };
        let (wr, wd) = fmt(w);
        let (nr, nd) = fmt(n);
        table.row([wr, wd, nr, nd]);
    }
    table.render()
}

/// Table 4 — the port/service registry with use cases.
pub fn table4(registry: &ServiceRegistry) -> String {
    let mut table = TextTable::new(["Port", "Service/App", "Use Case"]);
    for row in registry.table4_rows() {
        table.row([
            row.port.to_string(),
            row.service.to_string(),
            row.use_case.map(|u| u.label()).unwrap_or("").to_string(),
        ]);
    }
    table.render()
}

/// One row of a localhost table (Tables 5, 7, 8).
#[derive(Debug, Clone)]
pub struct LocalhostRow {
    /// Classified reason.
    pub reason: ReasonClass,
    /// Rank (if a top-list site).
    pub rank: Option<u32>,
    /// Domain.
    pub domain: String,
    /// Distinct schemes.
    pub protocols: Vec<String>,
    /// Condensed port list.
    pub ports: String,
    /// Distinct paths (capped for rendering).
    pub paths: Vec<String>,
    /// OS ticks.
    pub os_ticks: String,
}

/// Build the localhost rows (reason-classified) for a site set.
pub fn localhost_rows(sites: &[SiteLocalActivity]) -> Vec<LocalhostRow> {
    let mut rows: Vec<LocalhostRow> = sites
        .iter()
        .filter(|s| s.has_localhost())
        .map(|s| {
            let loopback_obs: Vec<_> = s
                .observations
                .iter()
                .filter(|o| o.locality.is_loopback())
                .collect();
            let mut protocols: Vec<String> =
                loopback_obs.iter().map(|o| o.scheme.to_string()).collect();
            protocols.sort();
            protocols.dedup();
            let ports: Vec<u16> = loopback_obs.iter().map(|o| o.port).collect();
            let mut paths: Vec<String> = loopback_obs
                .iter()
                .map(|o| generalise_path(&o.path))
                .collect();
            paths.sort();
            paths.dedup();
            paths.truncate(3);
            LocalhostRow {
                reason: classify_site(s),
                rank: s.rank,
                domain: s.domain.clone(),
                protocols,
                ports: condense_ports(&ports),
                paths,
                os_ticks: s.localhost_os.ticks(),
            }
        })
        .collect();
    rows.sort_by_key(|r| (r.reason, r.rank.unwrap_or(u32::MAX)));
    rows
}

/// Render a localhost table (Tables 5/7/8 shape).
pub fn localhost_table(sites: &[SiteLocalActivity]) -> (String, Vec<LocalhostRow>) {
    let rows = localhost_rows(sites);
    let mut table = TextTable::new([
        "Reason", "Rank", "Domain", "Protocol", "Ports", "Paths", "W L M",
    ]);
    for r in &rows {
        table.row([
            r.reason.label().to_string(),
            r.rank.map(|x| x.to_string()).unwrap_or_default(),
            r.domain.clone(),
            r.protocols.join(","),
            r.ports.clone(),
            r.paths.join(" "),
            r.os_ticks.clone(),
        ]);
    }
    (table.render(), rows)
}

/// Replace volatile path components with `*`, the way the paper's
/// tables wildcard asset names.
fn generalise_path(path: &str) -> String {
    let (base, query) = match path.split_once('?') {
        Some((b, q)) => (b, Some(q)),
        None => (path, None),
    };
    let mut out: Vec<String> = Vec::new();
    for seg in base.split('/') {
        if seg.chars().any(|c| c.is_ascii_digit()) && seg.contains('.') {
            // An asset filename: wildcard the stem, keep the extension.
            match seg.rsplit_once('.') {
                Some((_, ext)) => out.push(format!("*.{ext}")),
                None => out.push("*".into()),
            }
        } else {
            out.push(seg.to_string());
        }
    }
    let mut result = out.join("/");
    if let Some(q) = query {
        // Wildcard query values.
        let q: Vec<String> = q
            .split('&')
            .map(|kv| match kv.split_once('=') {
                Some((k, _)) => format!("{k}=*"),
                None => kv.to_string(),
            })
            .collect();
        result.push('?');
        result.push_str(&q.join("&"));
    }
    result
}

/// One row of a LAN table (Tables 6, 9, 10).
#[derive(Debug, Clone)]
pub struct LanRow {
    /// Rank (if a top-list site).
    pub rank: Option<u32>,
    /// Domain.
    pub domain: String,
    /// Scheme.
    pub protocol: String,
    /// The private destination address.
    pub local_ip: String,
    /// Destination port.
    pub port: u16,
    /// Generalised paths.
    pub paths: Vec<String>,
    /// OS ticks.
    pub os_ticks: String,
}

/// Build and render a LAN table.
pub fn lan_table(sites: &[SiteLocalActivity]) -> (String, Vec<LanRow>) {
    let mut rows: Vec<LanRow> = sites
        .iter()
        .filter(|s| s.has_lan())
        .map(|s| {
            let lan_obs: Vec<_> = s
                .observations
                .iter()
                .filter(|o| o.locality.is_private())
                .collect();
            let first = lan_obs.first().expect("has_lan implies an observation");
            let mut paths: Vec<String> = lan_obs.iter().map(|o| generalise_path(&o.path)).collect();
            paths.sort();
            paths.dedup();
            paths.truncate(3);
            LanRow {
                rank: s.rank,
                domain: s.domain.clone(),
                protocol: first.scheme.to_string(),
                local_ip: first.url.host().to_string(),
                port: first.port,
                paths,
                os_ticks: s.lan_os.ticks(),
            }
        })
        .collect();
    rows.sort_by_key(|r| r.rank.unwrap_or(u32::MAX));
    let mut table = TextTable::new([
        "Rank", "Domain", "Protocol", "Local IP", "Port", "Paths", "W L M",
    ]);
    for r in &rows {
        table.row([
            r.rank.map(|x| x.to_string()).unwrap_or_default(),
            r.domain.clone(),
            r.protocol.clone(),
            r.local_ip.clone(),
            r.port.to_string(),
            r.paths.join(" "),
            r.os_ticks.clone(),
        ]);
    }
    (table.render(), rows)
}

/// Table 11 — the developer-error subset of a localhost table.
pub fn table11(sites: &[SiteLocalActivity]) -> (String, Vec<LocalhostRow>) {
    let rows: Vec<LocalhostRow> = localhost_rows(sites)
        .into_iter()
        .filter(|r| r.reason == ReasonClass::DeveloperError)
        .collect();
    let mut table = TextTable::new(["Rank", "Domain", "Protocol", "Port", "Paths", "W L M"]);
    for r in &rows {
        table.row([
            r.rank.map(|x| x.to_string()).unwrap_or_default(),
            r.domain.clone(),
            r.protocols.join(","),
            r.ports.clone(),
            r.paths.join(" "),
            r.os_ticks.clone(),
        ]);
    }
    (table.render(), rows)
}

/// Classified counts per reason (the §4.3 headline numbers).
pub fn reason_counts(sites: &[SiteLocalActivity]) -> BTreeMap<ReasonClass, usize> {
    let mut counts = BTreeMap::new();
    for s in sites.iter().filter(|s| s.has_localhost()) {
        *counts.entry(classify_site(s)).or_insert(0) += 1;
    }
    counts
}

/// The 2020→2021 site-set diff used by Table 7's framing: which
/// domains are newly active, which stopped, which carried on.
#[derive(Debug, Clone, Default)]
pub struct ActivityDiff {
    /// Active in both crawls.
    pub carried: Vec<String>,
    /// Active in 2021 only.
    pub new: Vec<String>,
    /// Active in 2020 only.
    pub stopped: Vec<String>,
}

/// Compute the diff over localhost-active domains.
pub fn activity_diff(
    sites2020: &[SiteLocalActivity],
    sites2021: &[SiteLocalActivity],
) -> ActivityDiff {
    let set2020: BTreeSet<&str> = sites2020
        .iter()
        .filter(|s| s.has_localhost())
        .map(|s| s.domain.as_str())
        .collect();
    let set2021: BTreeSet<&str> = sites2021
        .iter()
        .filter(|s| s.has_localhost())
        .map(|s| s.domain.as_str())
        .collect();
    ActivityDiff {
        carried: set2020
            .intersection(&set2021)
            .map(|s| s.to_string())
            .collect(),
        new: set2021
            .difference(&set2020)
            .map(|s| s.to_string())
            .collect(),
        stopped: set2020
            .difference(&set2021)
            .map(|s| s.to_string())
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn condense_port_ranges() {
        assert_eq!(condense_ports(&[3389]), "3389");
        assert_eq!(
            condense_ports(&[14440, 14441, 14442, 14443, 14444]),
            "14440-14444"
        );
        assert_eq!(condense_ports(&[80, 81]), "80, 81");
        assert_eq!(
            condense_ports(&[5900, 5901, 5902, 5903, 7070]),
            "5900-5903, 7070"
        );
        assert_eq!(condense_ports(&[]), "");
        assert_eq!(condense_ports(&[5, 5, 5]), "5");
    }

    #[test]
    fn generalise_paths() {
        assert_eq!(
            generalise_path("/wp-content/uploads/2018/06/asset17.jpg"),
            "/wp-content/uploads/2018/06/*.jpg"
        );
        assert_eq!(generalise_path("/"), "/");
        assert_eq!(
            generalise_path("/v1/init.json?api_port=12071&query_id=3"),
            "/v1/init.json?api_port=*&query_id=*"
        );
        assert_eq!(generalise_path("/livereload.js"), "/livereload.js");
    }

    #[test]
    fn text_table_renders_aligned() {
        let mut t = TextTable::new(["A", "Long header"]);
        t.row(["x", "y"]);
        t.row(["very long cell", "z"]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with('A'));
        assert!(lines[1].starts_with('-'));
        assert!(!t.is_empty());
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn table1_percentages() {
        let mut stats = CrawlStats::new();
        for _ in 0..90 {
            stats.record_success();
        }
        for _ in 0..9 {
            stats.record_failure(kt_netlog::NetError::NameNotResolved);
        }
        stats.record_failure(kt_netlog::NetError::TimedOut);
        let (text, rows) = table1(&[("Top 100K: 2020", Os::Windows, &stats)]);
        assert!(text.contains("90 (90.0%)"));
        assert!(text.contains("9 (90.0%)"), "DNS share of failures");
        assert_eq!(rows[0].failed, 10);
    }

    #[test]
    fn table1_surfaces_connectivity_retries() {
        let stats = CrawlStats {
            attempted: 10,
            successful: 10,
            connectivity_retries: 3,
            ..CrawlStats::default()
        };
        let (text, rows) = table1(&[("Top 100K: 2021", Os::Linux, &stats)]);
        assert!(text.contains("# conn retries"));
        assert_eq!(rows[0].connectivity_retries, 3);
    }

    #[test]
    fn health_table_summarises_resilience() {
        let stats = CrawlStats {
            attempted: 100,
            successful: 96,
            retries: 7,
            recrawled: 5,
            recovered: 3,
            gave_up: 1,
            crashed: 2,
            store_retries: 4,
            connectivity_retries: 6,
            ..CrawlStats::default()
        };
        let (text, reports) = health_table(&[("Top 100K: 2020", Os::Windows, &stats)]);
        assert!(text.contains("quarantined"));
        let r = &reports[0];
        assert_eq!(r.retries, 7);
        assert_eq!(r.crashed, 2);
        assert!((r.recovery_rate() - 0.75).abs() < 1e-9, "3 of 4 saved");
        assert!((r.quarantine_rate() - 0.02).abs() < 1e-9);
    }

    #[test]
    fn health_report_rates_handle_empty_campaigns() {
        let report = HealthReport::from_stats("empty", Os::MacOs, &CrawlStats::new());
        assert_eq!(report.recovery_rate(), 0.0);
        assert_eq!(report.quarantine_rate(), 0.0);
    }

    #[test]
    fn durability_section_reports_damage_and_recovery_path() {
        let clean = DurabilityReport {
            summary: kt_store::JournalSummary {
                frames: 131,
                visits: 120,
                checkpoints: 8,
                flush_points: 2,
                valid_end: 4096,
                ..kt_store::JournalSummary::default()
            },
        };
        assert!(clean.clean());
        let text = clean.render();
        assert!(text.contains("120 visit frames"));
        assert!(text.contains("no damage"));

        let scarred = DurabilityReport {
            summary: kt_store::JournalSummary {
                corrupt_frames: 2,
                corrupt_bytes: 77,
                truncated_tail: true,
                ..clean.summary
            },
        };
        assert!(!scarred.clean());
        let text = scarred.render();
        assert!(text.contains("2 corrupt frame(s)"));
        assert!(text.contains("knocktalk resume"));
        assert!(text.contains("`knocktalk fsck <journal> --repair yes`"));
    }

    #[test]
    fn durability_report_summarises_a_real_replay() {
        use kt_store::{JournalWriter, VisitDelta};

        let path =
            std::env::temp_dir().join(format!("kt-analysis-durability-{}.ktj", std::process::id()));
        let journal = JournalWriter::create(&path).unwrap();
        let record = kt_store::VisitRecord {
            crawl: kt_store::CrawlId::top2020(),
            domain: "a.example".into(),
            rank: Some(1),
            malicious_category: None,
            os: Os::Linux,
            outcome: kt_store::LoadOutcome::Success,
            loaded_at_ms: 5,
            events: Vec::new(),
        };
        journal.append_visit(&record, &VisitDelta::default(), 1, false);
        journal.sync();
        let replayed = kt_store::replay(&path).unwrap();
        let report = DurabilityReport::from_replay(&replayed);
        assert_eq!(report.summary.visits, 1);
        assert!(report.clean());
        std::fs::remove_file(&path).ok();
    }
}
