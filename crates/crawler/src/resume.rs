//! Resume planning: turn a replayed journal back into crawl work.
//!
//! A journal replay yields a flat sequence of visit frames and
//! checkpoints across every campaign the study ran. This module
//! regroups them per campaign `(crawl, os)` and, given that campaign's
//! job list, derives a [`ResumePlan`]: which jobs are already done
//! (their stats deltas and scheduler costs are folded back in), which
//! were parked awaiting the recrawl pass, and which never produced a
//! frame and must be re-run. Because every visit outcome is a pure
//! function of `(seed, domain, attempt)`, re-running the missing jobs
//! reproduces exactly the records and stats the crash destroyed —
//! which is what makes resumed analysis tables byte-identical.

use std::collections::BTreeMap;

use kt_store::journal::{CheckpointFrame, ReplayedVisit, VisitDelta, FLAG_FINAL, FLAG_RECRAWL};

use crate::crawl::CrawlJob;
use crate::stats::CrawlStats;

/// What a resumed campaign must still do, plus everything the journal
/// already proves done.
#[derive(Debug, Default)]
pub struct ResumePlan {
    /// Job indices to run through the worker pool.
    pub todo: Vec<usize>,
    /// Job indices whose pool pass finished in a parked (transient,
    /// awaiting-recrawl) state: they skip the pool and go straight to
    /// the end-of-campaign recrawl queue.
    pub preparked: Vec<usize>,
    /// Stats reconstructed from the journaled deltas of finished work
    /// (no makespan or connectivity — those are schedule-owned and are
    /// rebuilt by the runner).
    pub prior: CrawlStats,
    /// Per-job pool costs recovered from the journal, for the greedy
    /// makespan replay over the full job vector.
    pub prior_costs: Vec<(usize, u64)>,
    /// Serial recrawl wall-clock already spent (sites whose recrawl
    /// frame survived).
    pub prior_recrawl_wall_ms: u64,
}

impl ResumePlan {
    /// The no-journal plan: everything is todo.
    pub fn fresh(jobs: usize) -> ResumePlan {
        ResumePlan {
            todo: (0..jobs).collect(),
            ..ResumePlan::default()
        }
    }

    /// True when the journal already covers the whole campaign.
    pub fn nothing_to_run(&self) -> bool {
        self.todo.is_empty() && self.preparked.is_empty()
    }
}

/// One campaign's worth of replayed frames, keyed by domain. Per
/// domain the *last* frame of each pass wins (earlier ones are crash
/// duplicates or superseded retries), mirroring the store's
/// last-write-wins append.
#[derive(Debug, Default)]
pub struct CampaignReplay {
    /// Last pool-pass frame per domain: (delta, was-final).
    pool: BTreeMap<String, (VisitDelta, bool)>,
    /// Last recrawl-pass frame per domain (always final).
    recrawl: BTreeMap<String, VisitDelta>,
    /// The campaign's checkpoint stats, when one was journaled: the
    /// exact merged tally of the uninterrupted campaign, connectivity
    /// and makespan included.
    pub checkpoint: Option<CrawlStats>,
    /// The domains the checkpoint claims completed.
    completed: Vec<String>,
}

impl CampaignReplay {
    /// True when a checkpoint frame marked this campaign complete
    /// *and* every domain it claims still has a surviving final frame.
    /// A checkpoint can outlive a corrupted visit frame (fsck reports
    /// this as a missing record); restoring it verbatim would then
    /// silently drop that visit from the store, so such campaigns fall
    /// back to frame-level replay and re-run the damaged sites.
    pub fn checkpointed(&self) -> bool {
        self.checkpoint.is_some()
            && self.completed.iter().all(|domain| {
                self.pool.get(domain).is_some_and(|(_, fin)| *fin)
                    || self.recrawl.contains_key(domain)
            })
    }

    /// The checkpointed stats, but only when the checkpoint is
    /// trustworthy per [`CampaignReplay::checkpointed`] — the one
    /// accessor resume paths should restore from.
    pub fn restored_stats(&self) -> Option<CrawlStats> {
        if self.checkpointed() {
            self.checkpoint.clone()
        } else {
            None
        }
    }

    /// Derive the resume plan for this campaign's job list.
    pub fn plan(&self, jobs: &[CrawlJob<'_>]) -> ResumePlan {
        let mut plan = ResumePlan::default();
        for (i, job) in jobs.iter().enumerate() {
            let domain = job.site.domain.as_str();
            let pool = self.pool.get(domain);
            let recrawl = self.recrawl.get(domain);
            if let Some((delta, _)) = pool {
                plan.prior.apply_delta(delta);
                plan.prior_costs.push((i, delta.cost_ms));
            }
            match (pool, recrawl) {
                (_, Some(rdelta)) => {
                    // Recrawl verdict survived: fully done.
                    plan.prior.apply_delta(rdelta);
                    plan.prior_recrawl_wall_ms += rdelta.cost_ms;
                }
                (Some((_, true)), None) => {
                    // Final in the pool pass: done.
                }
                (Some((_, false)), None) => {
                    // Parked awaiting recrawl when the crash hit.
                    plan.preparked.push(i);
                }
                (None, None) => plan.todo.push(i),
            }
        }
        plan
    }
}

/// Group replayed frames by campaign `(crawl id, os name)`.
pub fn split_campaigns(
    visits: &[ReplayedVisit],
    checkpoints: &[CheckpointFrame],
) -> BTreeMap<(String, String), CampaignReplay> {
    let mut campaigns: BTreeMap<(String, String), CampaignReplay> = BTreeMap::new();
    for visit in visits {
        let key = (
            visit.crawl.as_str().to_string(),
            visit.os.name().to_string(),
        );
        let campaign = campaigns.entry(key).or_default();
        let domain = visit.domain.clone();
        if visit.flags & FLAG_RECRAWL != 0 {
            campaign.recrawl.insert(domain, visit.delta.clone());
        } else {
            campaign
                .pool
                .insert(domain, (visit.delta.clone(), visit.flags & FLAG_FINAL != 0));
        }
    }
    for cp in checkpoints {
        let key = (cp.crawl.clone(), cp.os.clone());
        let campaign = campaigns.entry(key).or_default();
        // A checkpoint whose stats blob fails to decode is treated as
        // absent: the campaign falls back to frame-level replay.
        campaign.checkpoint = CrawlStats::from_bytes(&cp.stats);
        campaign.completed = cp.completed.clone();
    }
    campaigns
}

#[cfg(test)]
mod tests {
    use super::*;
    use kt_netbase::{DomainName, Os};
    use kt_store::CrawlId;
    use kt_webgen::WebSite;

    fn visit(domain: &str, flags: u8, cost: u64, os: Os) -> ReplayedVisit {
        ReplayedVisit {
            crawl: CrawlId::top2020(),
            domain: domain.to_string(),
            os,
            delta: VisitDelta {
                cost_ms: cost,
                attempted: u64::from(flags & FLAG_FINAL != 0),
                successful: u64::from(flags & FLAG_FINAL != 0),
                ..VisitDelta::default()
            },
            flags,
        }
    }

    #[test]
    fn plan_partitions_done_parked_and_missing() {
        let sites: Vec<WebSite> = ["done.example", "parked.example", "missing.example"]
            .iter()
            .map(|d| WebSite::plain(DomainName::parse(d).unwrap(), Some(1), 3))
            .collect();
        let jobs: Vec<CrawlJob<'_>> = sites.iter().map(CrawlJob::plain).collect();
        let visits = vec![
            visit("done.example", FLAG_FINAL, 21_000, Os::Linux),
            visit("parked.example", 0, 30_000, Os::Linux),
        ];
        let campaigns = split_campaigns(&visits, &[]);
        let campaign = &campaigns[&("top2020".to_string(), "Linux".to_string())];
        let plan = campaign.plan(&jobs);
        assert_eq!(plan.todo, vec![2]);
        assert_eq!(plan.preparked, vec![1]);
        assert_eq!(plan.prior.attempted, 1, "only the final frame counts");
        assert_eq!(
            plan.prior_costs,
            vec![(0, 21_000), (1, 30_000)],
            "both surviving pool frames contribute scheduler costs"
        );
        assert!(!plan.nothing_to_run());
    }

    #[test]
    fn recrawl_frames_complete_parked_sites() {
        let sites = [WebSite::plain(
            DomainName::parse("flaky.example").unwrap(),
            Some(1),
            3,
        )];
        let jobs = [CrawlJob::plain(&sites[0])];
        let visits = vec![
            visit("flaky.example", 0, 40_000, Os::Linux),
            visit(
                "flaky.example",
                FLAG_FINAL | FLAG_RECRAWL,
                21_000,
                Os::Linux,
            ),
        ];
        let campaigns = split_campaigns(&visits, &[]);
        let plan = campaigns[&("top2020".to_string(), "Linux".to_string())].plan(&jobs);
        assert!(plan.nothing_to_run());
        assert_eq!(plan.prior_recrawl_wall_ms, 21_000);
        assert_eq!(plan.prior_costs, vec![(0, 40_000)]);
    }

    #[test]
    fn duplicate_frames_collapse_last_wins() {
        let sites = [WebSite::plain(
            DomainName::parse("dup.example").unwrap(),
            Some(1),
            3,
        )];
        let jobs = [CrawlJob::plain(&sites[0])];
        // The same final frame journaled twice (crash between append
        // and checkpoint, then the resumed run re-ran the site).
        let visits = vec![
            visit("dup.example", FLAG_FINAL, 21_000, Os::Linux),
            visit("dup.example", FLAG_FINAL, 21_000, Os::Linux),
        ];
        let campaigns = split_campaigns(&visits, &[]);
        let plan = campaigns[&("top2020".to_string(), "Linux".to_string())].plan(&jobs);
        assert_eq!(plan.prior.attempted, 1, "idempotent despite duplicates");
        assert_eq!(plan.prior_costs.len(), 1);
    }

    #[test]
    fn campaigns_split_by_crawl_and_os() {
        let visits = vec![
            visit("a.example", FLAG_FINAL, 1, Os::Linux),
            visit("a.example", FLAG_FINAL, 1, Os::Windows),
        ];
        let campaigns = split_campaigns(&visits, &[]);
        assert_eq!(campaigns.len(), 2);
    }

    #[test]
    fn checkpoint_stats_ride_along() {
        let mut stats = CrawlStats::new();
        stats.record_success();
        stats.makespan_ms = 99_000;
        let cp = CheckpointFrame {
            crawl: "top2020".into(),
            os: "Linux".into(),
            completed: vec!["a.example".into()],
            stats: stats.to_bytes(),
        };
        let visits = vec![visit("a.example", FLAG_FINAL, 21_000, Os::Linux)];
        let campaigns = split_campaigns(&visits, &[cp]);
        let campaign = &campaigns[&("top2020".to_string(), "Linux".to_string())];
        assert!(campaign.checkpointed());
        assert_eq!(campaign.checkpoint, Some(stats));
    }

    #[test]
    fn checkpoint_outliving_a_lost_frame_is_not_trusted() {
        // Corruption destroyed b.example's visit frame but the
        // checkpoint survived (fsck's missing-record condition).
        // Restoring the checkpoint verbatim would drop the record from
        // the store forever, so the campaign must fall back to
        // frame-level replay and re-run the lost site.
        let sites: Vec<WebSite> = ["a.example", "b.example"]
            .iter()
            .map(|d| WebSite::plain(DomainName::parse(d).unwrap(), Some(1), 3))
            .collect();
        let jobs: Vec<CrawlJob<'_>> = sites.iter().map(CrawlJob::plain).collect();
        let cp = CheckpointFrame {
            crawl: "top2020".into(),
            os: "Linux".into(),
            completed: vec!["a.example".into(), "b.example".into()],
            stats: CrawlStats::new().to_bytes(),
        };
        let visits = vec![visit("a.example", FLAG_FINAL, 21_000, Os::Linux)];
        let campaigns = split_campaigns(&visits, &[cp]);
        let campaign = &campaigns[&("top2020".to_string(), "Linux".to_string())];
        assert!(
            !campaign.checkpointed(),
            "missing record voids the checkpoint"
        );
        let plan = campaign.plan(&jobs);
        assert_eq!(plan.todo, vec![1], "only the lost site re-runs");
    }
}
