//! A strict checker for the Prometheus text exposition format, used by
//! `perf --check-prom` to gate the CI observability smoke job on
//! `knocktalk --metrics-out` output.
//!
//! The checker validates what a scraper would care about:
//!
//! * metric and label names are well-formed;
//! * every sample's family is declared with `# TYPE` *before* its
//!   first sample, with a known kind;
//! * label bodies are `name="value"` pairs with proper escaping;
//! * sample values parse (decimal, `+Inf`, `-Inf`, `NaN`);
//! * no series (name + label set) appears twice;
//! * histograms are internally consistent: every series has a `+Inf`
//!   bucket, bucket counts are cumulative (non-decreasing in `le`),
//!   and `_count` equals the `+Inf` bucket.
//!
//! Callers may also require specific families to be present with at
//! least one sample. [`required_series`] is the set `perf --check-prom`
//! requires of a knocktalk export: every series the metric schema
//! pre-creates, plus the ones named with `--require`.

use std::collections::{BTreeMap, BTreeSet};

use knock_talk::trace::names;

/// What a successful check saw.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PromReport {
    /// Families declared with `# TYPE`.
    pub families: usize,
    /// Distinct (name, label set) series.
    pub series: usize,
    /// Total sample lines.
    pub samples: usize,
}

fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.chars().enumerate().all(|(i, c)| {
            c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
        })
}

fn valid_label_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .enumerate()
            .all(|(i, c)| c.is_ascii_alphabetic() || c == '_' || (i > 0 && c.is_ascii_digit()))
}

fn valid_value(v: &str) -> bool {
    matches!(v, "+Inf" | "-Inf" | "Inf" | "NaN") || v.parse::<f64>().is_ok()
}

/// Split `name{labels} value` into (name, label body, value), keeping
/// escape sequences inside quoted label values intact.
fn split_sample(line: &str) -> Option<(&str, Option<&str>, &str)> {
    if let Some(brace) = line.find('{') {
        let name = &line[..brace];
        let rest = &line[brace + 1..];
        // Scan for the closing brace outside quotes.
        let (mut in_quotes, mut escaped) = (false, false);
        for (i, c) in rest.char_indices() {
            match (in_quotes, escaped, c) {
                (true, true, _) => escaped = false,
                (true, false, '\\') => escaped = true,
                (true, false, '"') => in_quotes = false,
                (false, _, '"') => in_quotes = true,
                (false, _, '}') => {
                    let value = rest[i + 1..].trim();
                    return Some((name, Some(&rest[..i]), value));
                }
                _ => {}
            }
        }
        None
    } else {
        let (name, value) = line.split_once(' ')?;
        Some((name, None, value.trim()))
    }
}

/// Parse a label body into sorted `name="raw value"` pairs.
fn parse_labels(body: &str) -> Result<Vec<(String, String)>, String> {
    let mut pairs = Vec::new();
    let mut rest = body;
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label pair without '=': {rest:?}"))?;
        let name = &rest[..eq];
        if !valid_label_name(name) {
            return Err(format!("bad label name {name:?}"));
        }
        let after = &rest[eq + 1..];
        if !after.starts_with('"') {
            return Err(format!("label {name} value is not quoted"));
        }
        let mut escaped = false;
        let mut end = None;
        for (i, c) in after[1..].char_indices() {
            match (escaped, c) {
                (true, _) => escaped = false,
                (false, '\\') => escaped = true,
                (false, '"') => {
                    end = Some(i + 1);
                    break;
                }
                _ => {}
            }
        }
        let end = end.ok_or_else(|| format!("label {name} value is unterminated"))?;
        pairs.push((name.to_string(), after[1..end].to_string()));
        rest = &after[end + 1..];
        if let Some(stripped) = rest.strip_prefix(',') {
            rest = stripped;
        } else if !rest.is_empty() {
            return Err(format!("label pairs not comma-separated near {rest:?}"));
        }
    }
    Ok(pairs)
}

/// The family a sample name belongs to, given the declared histogram
/// families: `foo_bucket`/`foo_sum`/`foo_count` fold into `foo`.
fn family_of<'a>(name: &'a str, histograms: &BTreeSet<String>) -> &'a str {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if histograms.contains(base) {
                return base;
            }
        }
    }
    name
}

/// The series a knocktalk export must carry: every series the schema
/// pre-creates (each export is built on `describe_defaults`), then
/// `extra`.
pub fn required_series<'a>(extra: &[&'a str]) -> Vec<&'a str> {
    let mut required: Vec<&'a str> = names::pre_created().collect();
    required.extend_from_slice(extra);
    required
}

/// Validate `text` as Prometheus text exposition; `required` lists
/// family names that must be present with at least one sample. Returns
/// every problem found, or a summary when there are none.
pub fn check(text: &str, required: &[&str]) -> Result<PromReport, Vec<String>> {
    let mut errors: Vec<String> = Vec::new();
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut histograms: BTreeSet<String> = BTreeSet::new();
    let mut sampled: BTreeSet<String> = BTreeSet::new();
    let mut seen_series: BTreeSet<(String, Vec<(String, String)>)> = BTreeSet::new();
    // (family, labels-without-le) → le → bucket value, plus _count.
    type SeriesKey = (String, Vec<(String, String)>);
    let mut buckets: BTreeMap<SeriesKey, Vec<(f64, f64)>> = BTreeMap::new();
    let mut counts: BTreeMap<SeriesKey, f64> = BTreeMap::new();
    let mut samples = 0usize;

    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            if let Some(decl) = rest.strip_prefix("TYPE ") {
                let mut parts = decl.split_whitespace();
                let (Some(name), Some(kind)) = (parts.next(), parts.next()) else {
                    errors.push(format!("line {n}: malformed TYPE line"));
                    continue;
                };
                if !valid_metric_name(name) {
                    errors.push(format!("line {n}: bad metric name {name:?} in TYPE"));
                }
                if !matches!(
                    kind,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ) {
                    errors.push(format!("line {n}: unknown TYPE kind {kind:?}"));
                }
                if sampled.contains(name) {
                    errors.push(format!("line {n}: TYPE for {name} after its samples"));
                }
                if types.insert(name.to_string(), kind.to_string()).is_some() {
                    errors.push(format!("line {n}: duplicate TYPE for {name}"));
                }
                if kind == "histogram" {
                    histograms.insert(name.to_string());
                }
            }
            // HELP and free comments need no validation beyond UTF-8,
            // which `str` already guarantees.
            continue;
        }
        if line.starts_with('#') {
            continue; // bare comment
        }
        let Some((name, label_body, value)) = split_sample(line) else {
            errors.push(format!("line {n}: unparseable sample line {line:?}"));
            continue;
        };
        if !valid_metric_name(name) {
            errors.push(format!("line {n}: bad metric name {name:?}"));
            continue;
        }
        let mut tokens = value.split_whitespace();
        let Some(value) = tokens.next() else {
            errors.push(format!("line {n}: sample {name} has no value"));
            continue;
        };
        if !valid_value(value) {
            errors.push(format!("line {n}: bad sample value {value:?} for {name}"));
        }
        if let Some(ts) = tokens.next() {
            if ts.parse::<i64>().is_err() {
                errors.push(format!("line {n}: bad timestamp {ts:?} for {name}"));
            }
        }
        if tokens.next().is_some() {
            errors.push(format!("line {n}: trailing tokens after {name} sample"));
        }
        let labels = match label_body.map(parse_labels).transpose() {
            Ok(labels) => labels.unwrap_or_default(),
            Err(e) => {
                errors.push(format!("line {n}: {e}"));
                continue;
            }
        };
        let family = family_of(name, &histograms).to_string();
        if !types.contains_key(&family) {
            errors.push(format!("line {n}: sample {name} has no # TYPE declaration"));
        }
        sampled.insert(family.clone());
        samples += 1;
        if !seen_series.insert((name.to_string(), labels.clone())) {
            errors.push(format!("line {n}: duplicate series {line:?}"));
        }
        if histograms.contains(&family) && name.ends_with("_bucket") {
            let le = labels.iter().find(|(k, _)| k == "le");
            let Some((_, le)) = le else {
                errors.push(format!("line {n}: {name} bucket without an le label"));
                continue;
            };
            let bound = match le.as_str() {
                "+Inf" => f64::INFINITY,
                other => match other.parse::<f64>() {
                    Ok(b) => b,
                    Err(_) => {
                        errors.push(format!("line {n}: bad le bound {le:?}"));
                        continue;
                    }
                },
            };
            let without_le: Vec<_> = labels.iter().filter(|(k, _)| k != "le").cloned().collect();
            buckets
                .entry((family.clone(), without_le))
                .or_default()
                .push((bound, value.parse().unwrap_or(f64::NAN)));
        } else if histograms.contains(&family) && name.ends_with("_count") {
            counts.insert((family, labels), value.parse().unwrap_or(f64::NAN));
        }
    }

    for ((family, labels), mut series) in buckets {
        series.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("le bounds are not NaN"));
        let label_text = || {
            labels
                .iter()
                .map(|(k, v)| format!("{k}={v:?}"))
                .collect::<Vec<_>>()
                .join(",")
        };
        let Some(&(last_bound, inf_count)) = series.last() else {
            continue;
        };
        if last_bound != f64::INFINITY {
            errors.push(format!(
                "histogram {family}{{{}}}: no +Inf bucket",
                label_text()
            ));
            continue;
        }
        if series.windows(2).any(|w| w[1].1 < w[0].1) {
            errors.push(format!(
                "histogram {family}{{{}}}: bucket counts are not cumulative",
                label_text()
            ));
        }
        match counts.get(&(family.clone(), labels.clone())) {
            Some(&count) if count == inf_count => {}
            Some(&count) => errors.push(format!(
                "histogram {family}{{{}}}: _count {count} != +Inf bucket {inf_count}",
                label_text()
            )),
            None => errors.push(format!(
                "histogram {family}{{{}}}: missing _count series",
                label_text()
            )),
        }
    }

    for name in required {
        if !sampled.contains(*name) {
            errors.push(format!("required series {name} has no samples"));
        }
    }

    if errors.is_empty() {
        Ok(PromReport {
            families: types.len(),
            series: seen_series.len(),
            samples,
        })
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = "\
# HELP visits_total Pages visited\n\
# TYPE visits_total counter\n\
visits_total{crawl=\"top2020\",os=\"Linux\"} 2000\n\
visits_total{crawl=\"top2020\",os=\"Windows\"} 2000\n\
# TYPE lat histogram\n\
lat_bucket{le=\"0.1\"} 1\n\
lat_bucket{le=\"+Inf\"} 3\n\
lat_sum 0.42\n\
lat_count 3\n\
# TYPE temp gauge\n\
temp 21.5\n";

    #[test]
    fn accepts_well_formed_exposition() {
        let report = check(GOOD, &["visits_total", "lat"]).expect("clean");
        assert_eq!(report.families, 3);
        assert_eq!(report.samples, 7);
    }

    #[test]
    fn rejects_missing_required_series() {
        let errs = check(GOOD, &["retries_total"]).unwrap_err();
        assert!(errs[0].contains("retries_total"), "{errs:?}");
    }

    #[test]
    fn rejects_duplicate_series_and_undeclared_samples() {
        let text = "# TYPE a counter\na 1\na 2\nb 1\n";
        let errs = check(text, &[]).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("duplicate series")),
            "{errs:?}"
        );
        assert!(errs.iter().any(|e| e.contains("no # TYPE")), "{errs:?}");
    }

    #[test]
    fn rejects_histogram_without_inf_bucket() {
        let text = "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n";
        let errs = check(text, &[]).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("+Inf")), "{errs:?}");
    }

    #[test]
    fn rejects_non_cumulative_buckets_and_count_mismatch() {
        let text = "# TYPE h histogram\n\
                    h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\n\
                    h_sum 1\nh_count 9\n";
        let errs = check(text, &[]).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("not cumulative")),
            "{errs:?}"
        );
        assert!(errs.iter().any(|e| e.contains("_count")), "{errs:?}");
    }

    #[test]
    fn rejects_bad_values_and_label_syntax() {
        let text = "# TYPE a counter\na{x=\"1\"} abc\na{y=1} 2\n";
        let errs = check(text, &[]).unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("bad sample value")),
            "{errs:?}"
        );
        assert!(errs.iter().any(|e| e.contains("not quoted")), "{errs:?}");
    }

    #[test]
    fn escaped_quotes_in_label_values_parse() {
        let text = "# TYPE a counter\na{x=\"say \\\"hi\\\"\",y=\"b\\\\c\"} 1\n";
        let report = check(text, &[]).expect("escapes are legal");
        assert_eq!(report.samples, 1);
    }

    #[test]
    fn knocktalk_export_passes() {
        // End-to-end: a real registry export must satisfy the checker.
        let trace = knock_talk::trace::Trace::new();
        trace.inc_counter(
            knock_talk::trace::names::VISITS_TOTAL,
            knock_talk::trace::Labels::new(&[("crawl", "top2020"), ("os", "Linux")]),
            7,
        );
        trace.observe(
            &knock_talk::trace::names::ANALYSIS_STAGE_SECONDS,
            knock_talk::trace::Labels::new(&[("crawl", "top2020"), ("stage", "decode")]),
            1_500,
        );
        let text = trace.export_prometheus();
        let report = check(
            &text,
            &[
                "visits_total",
                "journal_frames_total",
                "analysis_stage_seconds",
            ],
        )
        .expect("registry export is valid exposition");
        assert!(report.series >= 3);
    }

    #[test]
    fn export_missing_a_pre_created_series_fails_the_requirement() {
        let text = knock_talk::trace::Trace::new().export_prometheus();
        let required = required_series(&[]);
        check(&text, &required).expect("a fresh export carries every pre-created series");
        for name in ["journal_frames_total", "snapshot_dedup_ratio"] {
            let sample = text
                .lines()
                .find(|line| line.split(' ').next() == Some(name))
                .expect("pre-created sample line");
            let cut = text.replacen(&format!("{sample}\n"), "", 1);
            let errs = check(&cut, &required).unwrap_err();
            assert_eq!(errs, [format!("required series {name} has no samples")]);
        }
    }
}
