//! Incremental recrawl planning for longitudinal snapshot series.
//!
//! Given the previous snapshot's list and the next one, an
//! [`IncrementalPlan`] splits the next list into the four longitudinal
//! site sets:
//!
//! * **carried** — listed in both snapshots with unchanged content:
//!   not crawled at all; the snapshot store links the new manifest row
//!   to the previous snapshot's chunk by reference;
//! * **changed** — listed in both but the content-churn oracle says
//!   the site changed: must be recrawled;
//! * **fresh** — newly listed (including domains returning after an
//!   absence): must be crawled — whether their bytes deduplicate
//!   against an old visit is the store's business, not the planner's;
//! * **dropped** — listed previously but absent now: no new visit, no
//!   new manifest row.
//!
//! Only `changed + fresh` cost visit work; on the paper-shaped series
//! (~20–25% churn, a few percent content churn) that is ≲30% of a full
//! recrawl, which is the whole point of the longitudinal engine.

use std::collections::HashSet;

use kt_netbase::DomainName;
use kt_weblists::TrancoSnapshot;

/// One snapshot-to-snapshot crawl plan (see module docs).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IncrementalPlan {
    /// In both lists, content unchanged — link, don't crawl.
    pub carried: Vec<DomainName>,
    /// In both lists, content changed — recrawl.
    pub changed: Vec<DomainName>,
    /// Newly listed — crawl.
    pub fresh: Vec<DomainName>,
    /// No longer listed — drop.
    pub dropped: Vec<DomainName>,
}

impl IncrementalPlan {
    /// Plan the step from `prev` to `next`. `content_changed` is the
    /// churn oracle for domains present in both lists (in the
    /// synthetic engine, a pure function of the series seed, the
    /// domain, and the step). Output vectors keep `next`'s rank order
    /// (`dropped` keeps `prev`'s), so the plan is deterministic.
    pub fn between(
        prev: &TrancoSnapshot,
        next: &TrancoSnapshot,
        mut content_changed: impl FnMut(&DomainName) -> bool,
    ) -> IncrementalPlan {
        let prev_set: HashSet<&str> = prev.entries.iter().map(|e| e.domain.as_str()).collect();
        let next_set: HashSet<&str> = next.entries.iter().map(|e| e.domain.as_str()).collect();
        let mut plan = IncrementalPlan::default();
        for entry in &next.entries {
            if !prev_set.contains(entry.domain.as_str()) {
                plan.fresh.push(entry.domain.clone());
            } else if content_changed(&entry.domain) {
                plan.changed.push(entry.domain.clone());
            } else {
                plan.carried.push(entry.domain.clone());
            }
        }
        for entry in &prev.entries {
            if !next_set.contains(entry.domain.as_str()) {
                plan.dropped.push(entry.domain.clone());
            }
        }
        plan
    }

    /// The degenerate first-snapshot plan: everything is fresh.
    pub fn full(next: &TrancoSnapshot) -> IncrementalPlan {
        IncrementalPlan {
            fresh: next.entries.iter().map(|e| e.domain.clone()).collect(),
            ..IncrementalPlan::default()
        }
    }

    /// Domains that must actually be visited (changed + fresh), in
    /// next-snapshot rank order.
    pub fn to_visit(&self) -> Vec<&DomainName> {
        // `between` filled both vectors in one ordered walk over
        // `next`, so a merge by identity on that walk is unnecessary:
        // re-deriving order would need the snapshot. Callers that care
        // about rank order iterate the snapshot and test membership;
        // the crawl driver only needs the set.
        self.changed.iter().chain(self.fresh.iter()).collect()
    }

    /// Visit-work size: `changed + fresh`.
    pub fn visit_count(&self) -> usize {
        self.changed.len() + self.fresh.len()
    }

    /// Fraction of full-recrawl visit work this plan avoids
    /// (`carried / next list size`); 0 for a full plan.
    pub fn savings(&self) -> f64 {
        let total = self.carried.len() + self.visit_count();
        if total == 0 {
            return 0.0;
        }
        self.carried.len() as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(label: &str, n: usize, seed: u64) -> TrancoSnapshot {
        TrancoSnapshot::generate(label, n, seed)
    }

    #[test]
    fn full_plan_visits_everything() {
        let s = snap("snap00", 200, 5);
        let plan = IncrementalPlan::full(&s);
        assert_eq!(plan.visit_count(), 200);
        assert!(plan.carried.is_empty());
        assert_eq!(plan.savings(), 0.0);
        assert!(plan.dropped.is_empty());
    }

    #[test]
    fn step_plan_partitions_the_next_list() {
        let a = snap("snap00", 500, 9);
        let b = a.successor("snap01", 0.75, 42);
        let plan = IncrementalPlan::between(&a, &b, |_| false);
        // Every next-list domain lands in exactly one bucket.
        assert_eq!(plan.carried.len() + plan.visit_count(), b.len());
        assert!(plan.changed.is_empty(), "oracle said nothing changed");
        // Dropped + carried covers the previous list.
        assert_eq!(plan.dropped.len() + plan.carried.len(), a.len());
        // ~75% overlap → ~25% of the next list is fresh.
        let fresh_frac = plan.fresh.len() as f64 / b.len() as f64;
        assert!((0.15..0.35).contains(&fresh_frac), "fresh {fresh_frac}");
        assert!(plan.savings() > 0.6, "savings {}", plan.savings());
    }

    #[test]
    fn content_churn_moves_carried_sites_into_changed() {
        let a = snap("snap00", 300, 9);
        let b = a.successor("snap01", 0.8, 7);
        let all = IncrementalPlan::between(&a, &b, |_| true);
        assert!(all.carried.is_empty());
        assert_eq!(all.visit_count(), b.len());
        // A domain-hash oracle flips a stable subset.
        let some = IncrementalPlan::between(&a, &b, |d| d.as_str().len() % 2 == 0);
        assert!(!some.changed.is_empty());
        assert!(!some.carried.is_empty());
        assert_eq!(
            some.changed.len() + some.carried.len(),
            all.visit_count() - all.fresh.len()
        );
    }

    #[test]
    fn plans_are_deterministic_and_ordered_by_rank() {
        let a = snap("snap00", 400, 3);
        let b = a.successor("snap01", 0.75, 11);
        let p1 = IncrementalPlan::between(&a, &b, |d| d.as_str().contains('3'));
        let p2 = IncrementalPlan::between(&a, &b, |d| d.as_str().contains('3'));
        assert_eq!(p1, p2);
        // carried/changed/fresh each preserve next-list rank order.
        let rank = |d: &DomainName| b.rank_of(d).expect("listed");
        for bucket in [&p1.carried, &p1.changed, &p1.fresh] {
            for w in bucket.windows(2) {
                assert!(rank(&w[0]) < rank(&w[1]));
            }
        }
        for w in p1.dropped.windows(2) {
            assert!(a.rank_of(&w[0]).unwrap() < a.rank_of(&w[1]).unwrap());
        }
    }
}
