//! The static-chunk scheduler as a pure schedule replay: the ablation
//! baseline the perf bin measures the crawler's work-claiming pool
//! against.
//!
//! Before the crawl pool claimed jobs off a shared ticket, each worker
//! got one contiguous chunk of the job list up front, so a chunk dense
//! in retry-heavy sites gated the whole campaign tail while its peers
//! idled. Visit outcomes never depended on the schedule, so the old
//! scheduler needs no crawl of its own: its simulated makespan follows
//! from the per-job cost vector alone.

use knock_talk::crawler::{run_pool_job, stagger_ms, CrawlConfig, CrawlJob, CrawlStats};
use knock_talk::simnet::ConnectivityChecker;
use knock_talk::store::TelemetryStore;

/// Every job's simulated cost (visits, backoffs) under `config`,
/// measured by running each job once, serially, through the crawler's
/// own supervised attempt loop into a scratch store. A job's cost is a
/// pure function of its site when there are no outages, which is the
/// only case the replay models.
pub fn job_costs(jobs: &[CrawlJob<'_>], config: &CrawlConfig) -> Vec<u64> {
    assert!(
        config.outages.is_empty(),
        "outage waits depend on the schedule; the replay cannot price them"
    );
    let store = TelemetryStore::new();
    let mut checker = ConnectivityChecker::with_outages(Vec::new());
    let mut stats = CrawlStats::new();
    let mut wall_ms = 0;
    jobs.iter()
        .map(|job| {
            run_pool_job(
                job,
                config,
                &store,
                None,
                &mut checker,
                &mut stats,
                &mut wall_ms,
                0,
                None,
            )
            .cost_ms
        })
        .collect()
}

/// The simulated makespan of the static-chunk scheduler over `costs`:
/// `min(max(workers, 1), jobs)` workers, each handed one contiguous
/// chunk of `ceil(jobs / workers)` jobs and starting at its staggered
/// offset, done when the busiest chunk is. Covers the pool phase only
/// (no end-of-campaign recrawl pass).
pub fn chunked_makespan(costs: &[u64], workers: usize) -> u64 {
    let workers = workers.max(1).min(costs.len().max(1));
    let chunk_size = costs.len().div_ceil(workers).max(1);
    costs
        .chunks(chunk_size)
        .enumerate()
        .map(|(w, chunk)| stagger_ms(w as u64, workers as u64) + chunk.iter().sum::<u64>())
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use knock_talk::crawler::{run_crawl, simulated_makespan};
    use knock_talk::faults::{Fault, FaultPlan, RetryPolicy};
    use knock_talk::netbase::{DomainName, Os};
    use knock_talk::store::CrawlId;
    use knock_talk::webgen::WebSite;

    #[test]
    fn chunks_start_staggered_and_end_with_the_busiest() {
        // Four workers over eight jobs: chunks of two, starting at
        // 0 / 5250 / 10500 / 15750 ms.
        let costs = [100, 100, 40_000, 1, 1, 1, 1, 1];
        assert_eq!(chunked_makespan(&costs, 4), 5_250 + 40_001);
        assert_eq!(chunked_makespan(&costs, 1), costs.iter().sum::<u64>());
        assert_eq!(chunked_makespan(&[], 8), 0);
    }

    #[test]
    fn work_stealing_halves_the_makespan_on_a_skewed_population() {
        // The scheduler's reason to exist: heavy sites (every attempt
        // draws a reset, so each burns max_attempts visits plus
        // backoffs) sorted contiguously at the front land in one
        // static chunk and gate the whole campaign; work stealing
        // spreads them. The stealing makespan must beat the replayed
        // static-chunk one by ≥2×.
        let plan = FaultPlan::none(13).with_rate(Fault::ConnectionReset, 0.5);
        let mut heavy = Vec::new();
        let mut light = Vec::new();
        let mut candidate = 0;
        while heavy.len() < 8 || light.len() < 56 {
            let name = format!("skew{candidate}.example");
            candidate += 1;
            let first_two = plan.injects(Fault::ConnectionReset, &name, 0)
                && plan.injects(Fault::ConnectionReset, &name, 1);
            let bucket = if first_two { &mut heavy } else { &mut light };
            let target = if first_two { 8 } else { 56 };
            if bucket.len() < target {
                bucket.push(WebSite::plain(
                    DomainName::parse(&name).unwrap(),
                    Some(bucket.len() as u32 + 1),
                    3,
                ));
            }
        }
        heavy.extend(light);
        let mut config = CrawlConfig::paper(CrawlId::top2020(), Os::Linux, 13);
        config.workers = 8;
        config.faults = plan;
        config.retry = RetryPolicy {
            max_attempts: 4,
            base_backoff_ms: 5_000,
            max_backoff_ms: 60_000,
            recrawl: false,
        };
        let population: Vec<CrawlJob<'_>> = heavy.iter().map(CrawlJob::plain).collect();
        let stealing = run_crawl(&population, &config, &TelemetryStore::new());
        let costs = job_costs(&population, &config);
        assert_eq!(
            simulated_makespan(&costs, 8),
            stealing.makespan_ms,
            "the replayed costs are the pool's own"
        );
        let chunked = chunked_makespan(&costs, config.workers);
        assert!(
            stealing.makespan_ms * 2 <= chunked,
            "stealing {} ms vs chunked {} ms",
            stealing.makespan_ms,
            chunked
        );
    }
}
