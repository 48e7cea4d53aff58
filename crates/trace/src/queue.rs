//! The work-claiming ticket behind [`par_indexed`](crate::par_indexed).
//!
//! [`JobTicket`] is a shared atomic cursor over `0..len`. Workers claim
//! the next unclaimed index with one `fetch_add`, so a worker stuck on
//! a slow item simply claims fewer items while its peers drain the
//! rest. Every index is handed out exactly once, whatever the
//! interleaving; nothing on the claim path takes a lock.

use std::sync::atomic::{AtomicUsize, Ordering};

/// A shared work-stealing ticket over `0..len`: each call to
/// [`JobTicket::claim`] returns a distinct index until the range is
/// exhausted.
#[derive(Debug)]
pub struct JobTicket {
    next: AtomicUsize,
    len: usize,
}

impl JobTicket {
    /// A ticket over `0..len`.
    pub fn new(len: usize) -> JobTicket {
        JobTicket {
            next: AtomicUsize::new(0),
            len,
        }
    }

    /// Claim the next unclaimed index, or `None` once the range is
    /// drained. Relaxed ordering suffices: the index itself is the
    /// only payload, and joining the claiming threads
    /// synchronises-with everything they wrote.
    pub fn claim(&self) -> Option<usize> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        (i < self.len).then_some(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn ticket_hands_out_every_index_exactly_once() {
        let ticket = JobTicket::new(100);
        let claimed: BTreeSet<usize> = std::iter::from_fn(|| ticket.claim()).collect();
        assert_eq!(claimed.len(), 100);
        assert_eq!(claimed.iter().copied().max(), Some(99));
        assert_eq!(ticket.claim(), None, "stays drained");
    }

    #[test]
    fn ticket_is_race_free_across_threads() {
        let ticket = JobTicket::new(1_000);
        let mut per_thread: Vec<Vec<usize>> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        let mut mine = Vec::new();
                        while let Some(i) = ticket.claim() {
                            mine.push(i);
                        }
                        mine
                    })
                })
                .collect();
            for h in handles {
                per_thread.push(h.join().unwrap());
            }
        });
        let all: Vec<usize> = per_thread.into_iter().flatten().collect();
        let distinct: BTreeSet<usize> = all.iter().copied().collect();
        assert_eq!(all.len(), 1_000, "no index lost");
        assert_eq!(distinct.len(), 1_000, "no index claimed twice");
    }

    #[test]
    fn empty_ticket_yields_nothing() {
        assert_eq!(JobTicket::new(0).claim(), None);
    }
}
