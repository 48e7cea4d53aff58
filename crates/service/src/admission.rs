//! Admission control: per-tenant quotas with deterministic, typed
//! rejection.
//!
//! Admission is decided entirely from the submission sequence — tenant
//! quotas, what that tenant already has admitted-but-unfinished, and
//! the service's drain state. No clocks, no queue races: the same
//! submissions in the same order admit and reject identically whatever
//! the worker count, which is what lets a fault-storm test assert the
//! exact rejection set. The one refusal the file system decides is a
//! campaign journal that cannot be created.

use std::fmt;
use std::path::PathBuf;

/// Per-tenant admission quotas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantQuota {
    /// Maximum admitted-but-unfinished campaigns (queued + running).
    pub max_campaigns: usize,
    /// Maximum total jobs (visits) across those campaigns.
    pub max_inflight_visits: usize,
}

impl TenantQuota {
    /// A quota that admits everything — the single-tenant batch
    /// equivalence mode.
    pub fn unbounded() -> TenantQuota {
        TenantQuota {
            max_campaigns: usize::MAX,
            max_inflight_visits: usize::MAX,
        }
    }
}

/// Why a submission was refused. Every variant but
/// [`AdmissionError::JournalUnavailable`] is deterministic: the same
/// submission sequence produces the same errors on every run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionError {
    /// The tenant was never registered.
    UnknownTenant(String),
    /// The tenant is at its admitted-campaign quota.
    CampaignQuotaExceeded {
        /// The tenant's `max_campaigns`.
        limit: usize,
    },
    /// Admitting the campaign would exceed the tenant's in-flight
    /// visit quota.
    VisitQuotaExceeded {
        /// The tenant's `max_inflight_visits`.
        limit: usize,
        /// In-flight visits the tenant already has admitted.
        in_flight: usize,
        /// Visits the rejected campaign asked for.
        requested: usize,
    },
    /// The tenant already has an unfinished campaign with this crawl
    /// id (campaign identity is `(tenant, crawl)` while unfinished).
    DuplicateCampaign(String),
    /// The campaign has no jobs.
    EmptyCampaign,
    /// The service is draining and admits nothing new.
    Draining,
    /// The campaign's journal file could not be created.
    JournalUnavailable {
        /// The journal the campaign would have written.
        path: PathBuf,
        /// The I/O error, as the OS reported it.
        error: String,
    },
}

impl AdmissionError {
    /// The low-cardinality `reason` label value for metrics.
    pub fn reason(&self) -> &'static str {
        match self {
            AdmissionError::UnknownTenant(_) => "unknown-tenant",
            AdmissionError::CampaignQuotaExceeded { .. } => "campaign-quota",
            AdmissionError::VisitQuotaExceeded { .. } => "visit-quota",
            AdmissionError::DuplicateCampaign(_) => "duplicate",
            AdmissionError::EmptyCampaign => "empty",
            AdmissionError::Draining => "draining",
            AdmissionError::JournalUnavailable { .. } => "journal",
        }
    }
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::UnknownTenant(t) => write!(f, "unknown tenant {t:?}"),
            AdmissionError::CampaignQuotaExceeded { limit } => {
                write!(f, "campaign quota exceeded (limit {limit})")
            }
            AdmissionError::VisitQuotaExceeded {
                limit,
                in_flight,
                requested,
            } => write!(
                f,
                "visit quota exceeded ({in_flight} in flight + {requested} requested > {limit})"
            ),
            AdmissionError::DuplicateCampaign(c) => {
                write!(f, "campaign {c:?} already admitted and unfinished")
            }
            AdmissionError::EmptyCampaign => write!(f, "campaign has no jobs"),
            AdmissionError::Draining => write!(f, "service is draining"),
            AdmissionError::JournalUnavailable { path, error } => {
                write!(
                    f,
                    "cannot create campaign journal {}: {error}",
                    path.display()
                )
            }
        }
    }
}

impl std::error::Error for AdmissionError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reasons_are_stable_label_values() {
        let errors = [
            AdmissionError::UnknownTenant("x".into()),
            AdmissionError::CampaignQuotaExceeded { limit: 1 },
            AdmissionError::VisitQuotaExceeded {
                limit: 10,
                in_flight: 8,
                requested: 5,
            },
            AdmissionError::DuplicateCampaign("c".into()),
            AdmissionError::EmptyCampaign,
            AdmissionError::Draining,
            AdmissionError::JournalUnavailable {
                path: PathBuf::from("j/t/c-Linux.ktj"),
                error: "Not a directory (os error 20)".into(),
            },
        ];
        let mut reasons: Vec<&str> = errors.iter().map(|e| e.reason()).collect();
        assert!(reasons.iter().all(|r| !r.contains(' ')));
        reasons.dedup();
        assert_eq!(reasons.len(), errors.len(), "one reason per variant");
        for e in &errors {
            assert!(!e.to_string().is_empty());
        }
    }
}
