//! Online incremental aggregation: mergeable per-campaign partials.
//!
//! The batch driver ([`crate::par`]) sees a finished crawl's whole
//! record set at once. A resident campaign service sees visit results
//! one at a time, out of order, possibly twice (a resumed campaign
//! replays its journal prefix), and wants per-campaign tables *before*
//! the campaign finishes. [`OnlinePartial`] is the bridge: each
//! absorbed record is decoded once and fanned out to the same
//! `RecordYield` the batch path computes, keyed by the owned
//! `(domain, OS slot)` pair in a `BTreeMap` — so iteration order *is*
//! the batch sort order, and [`OnlinePartial::assemble`] can reuse the
//! batch `assemble` fold verbatim.
//!
//! Determinism contract (proptested below): for any partition of a
//! crawl's records into partials, any merge order, and any duplicated
//! replay prefix, `assemble()` equals [`analyze_crawl_par`] over the
//! same store. Three properties make that hold:
//!
//! - **Purity**: a visit's record is a pure function of `(seed, domain,
//!   attempt)`, so absorbing the same `(domain, OS, pass)` twice
//!   overwrites an entry with an identical yield;
//! - **Pass precedence**: a recrawl-pass record supersedes the pool
//!   record for the same key, mirroring how the batch store's
//!   append-then-recrawl sequence leaves the recrawl outcome as the
//!   surviving row;
//! - **Key-ordered fold**: `BTreeMap` iteration yields entries sorted
//!   by resolved `(domain, os_slot)`, exactly the order the batch
//!   driver sorts into before assembling.
//!
//! [`analyze_crawl_par`]: crate::par::analyze_crawl_par

use std::collections::BTreeMap;

use kt_store::{codec, decode_view, os_slot, VisitRecord};

use crate::intern::DomainInterner;
use crate::par::{assemble, fan_out, CrawlAnalysis, RecordYield};

/// Which crawl pass produced a record. Recrawl outcomes supersede pool
/// outcomes for the same `(domain, OS)` key, matching the batch store
/// where the recrawl append is the row the analyzer reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum UpdatePass {
    /// The main worker-pool pass (including in-place retries).
    Pool,
    /// The end-of-campaign recrawl pass.
    Recrawl,
}

impl UpdatePass {
    fn rank(self) -> u8 {
        match self {
            UpdatePass::Pool => 0,
            UpdatePass::Recrawl => 1,
        }
    }
}

/// A mergeable, incrementally-built partial aggregate of one crawl.
///
/// Absorb records as they arrive, merge partials in any order, and
/// [`assemble`](OnlinePartial::assemble) at any point for a full
/// [`CrawlAnalysis`] over everything seen so far.
#[derive(Debug, Default, Clone)]
pub struct OnlinePartial {
    /// `(domain, OS slot)` → `(pass rank, yield)`. Owned domain keys:
    /// a partial outlives any store segment, and the map must iterate
    /// in resolved-name order.
    entries: BTreeMap<(String, u8), (u8, RecordYield)>,
}

impl OnlinePartial {
    /// An empty partial.
    pub fn new() -> OnlinePartial {
        OnlinePartial::default()
    }

    /// Fold one visit record in. The record is round-tripped through
    /// the store codec so the yield is computed from exactly the bytes
    /// the batch analyzer would decode.
    pub fn absorb(&mut self, record: &VisitRecord, pass: UpdatePass) {
        let raw = codec::encode(record);
        let view = decode_view(&raw).expect("store codec round-trip");
        let yielded = fan_out(&view);
        let key = (view.domain.to_owned(), os_slot(view.os));
        let rank = pass.rank();
        match self.entries.get(&key) {
            // A lower-precedence (or equal, hence identical-by-purity)
            // arrival never displaces what's there.
            Some((existing, _)) if *existing > rank => {}
            _ => {
                self.entries.insert(key, (rank, yielded));
            }
        }
    }

    /// Build a partial from a finished record set (e.g. a store read
    /// back after a drain). Bulk reads return post-recrawl rows, so
    /// every record carries recrawl precedence.
    pub fn from_records<'a>(records: impl IntoIterator<Item = &'a VisitRecord>) -> OnlinePartial {
        let mut partial = OnlinePartial::new();
        for record in records {
            partial.absorb(record, UpdatePass::Recrawl);
        }
        partial
    }

    /// Merge another partial in. Commutative and associative up to the
    /// pass-precedence rule, so any merge interleaving converges.
    pub fn merge(&mut self, other: OnlinePartial) {
        for (key, (rank, yielded)) in other.entries {
            match self.entries.get(&key) {
                Some((existing, _)) if *existing > rank => {}
                _ => {
                    self.entries.insert(key, (rank, yielded));
                }
            }
        }
    }

    /// Records currently folded in (one per `(domain, OS)` key).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been absorbed yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Assemble the full analysis over everything seen so far —
    /// byte-identical to [`analyze_crawl_par`] over a store holding
    /// the same surviving records.
    ///
    /// [`analyze_crawl_par`]: crate::par::analyze_crawl_par
    pub fn assemble(&self) -> CrawlAnalysis {
        // Interning the BTreeMap keys in iteration order assigns
        // symbols in resolved-name order, so the entry vector is
        // already in the batch driver's post-sort order.
        let mut interner = DomainInterner::new();
        let entries = self
            .entries
            .iter()
            .map(|((domain, slot), (_, yielded))| {
                ((interner.intern(domain), *slot), yielded.clone())
            })
            .collect();
        assemble(entries, &interner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::analyze_crawl_par;
    use crate::par::tests::populated_store;
    use proptest::prelude::*;

    fn batch() -> CrawlAnalysis {
        let (store, crawl) = populated_store();
        analyze_crawl_par(&store, &crawl, 4)
    }

    fn crawl_records() -> Vec<VisitRecord> {
        let (store, crawl) = populated_store();
        store.crawl_records(&crawl)
    }

    #[test]
    fn single_partial_matches_batch() {
        let records = crawl_records();
        let partial = OnlinePartial::from_records(&records);
        assert_eq!(partial.len(), records.len());
        assert_eq!(partial.assemble(), batch());
    }

    #[test]
    fn recrawl_pass_supersedes_pool_and_not_vice_versa() {
        let records = crawl_records();
        let mut partial = OnlinePartial::new();
        // Pool first, then recrawl: recrawl row wins.
        partial.absorb(&records[0], UpdatePass::Pool);
        partial.absorb(&records[0], UpdatePass::Recrawl);
        assert_eq!(partial.len(), 1);
        // Recrawl first, then a stale pool replay: recrawl row stays.
        let mut reversed = OnlinePartial::new();
        reversed.absorb(&records[0], UpdatePass::Recrawl);
        reversed.absorb(&records[0], UpdatePass::Pool);
        assert_eq!(partial.assemble(), reversed.assemble());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Any partition into partials, merged in any order, with any
        /// duplicated replay prefix (a killed-then-resumed campaign
        /// re-absorbs the records its journal already held), assembles
        /// byte-for-byte equal to the batch analyzer.
        #[test]
        fn merged_partials_equal_batch_under_any_interleaving(
            assignment in proptest::collection::vec(0usize..5, 120..121),
            merge_seed in any::<u64>(),
            replay_prefix in 0usize..60,
        ) {
            let records = crawl_records();
            let mut partials = vec![OnlinePartial::new(); 5];
            for (i, record) in records.iter().enumerate() {
                partials[assignment[i % assignment.len()] % 5]
                    .absorb(record, UpdatePass::Recrawl);
            }
            // Kill/resume: some prefix of the stream is absorbed a
            // second time into a fresh partial, pool-pass (the journal
            // replays pool frames; purity makes the yields identical).
            let mut replayed = OnlinePartial::new();
            for record in records.iter().take(replay_prefix.min(records.len())) {
                replayed.absorb(record, UpdatePass::Pool);
            }
            partials.push(replayed);
            // Merge in a seed-scrambled order.
            let mut order: Vec<usize> = (0..partials.len()).collect();
            order.sort_by_key(|i| (merge_seed.wrapping_mul(31).wrapping_add(*i as u64 * 0x9E37_79B9)).rotate_left(*i as u32 % 61));
            let mut merged = OnlinePartial::new();
            for i in order {
                merged.merge(partials[i].clone());
            }
            prop_assert_eq!(merged.assemble(), batch());
        }
    }
}
