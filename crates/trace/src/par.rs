//! The deterministic parallel executor every engine runs on.
//!
//! [`par_indexed`] is the one "atomic ticket → scoped threads → merge
//! at join" driver in the workspace. Workers claim indices `0..n` off a
//! shared [`JobTicket`], so a slow item only slows the worker holding
//! it; each result lands in slot `i` of the output, so the output is a
//! pure function of `f` whatever the claim interleaving. Callers fold
//! the slots (and the per-worker states) serially afterwards, which is
//! where every engine's worker-count invariance comes from.

use crate::queue::JobTicket;

/// Compute `f(state, i)` for every `i` in `0..n` on
/// `min(max(workers, 1), n)` scoped threads.
///
/// Each thread builds its private state with `init(worker)` (worker ids
/// are `0..threads`) before claiming its first index, then claims
/// indices off one shared atomic ticket until the range is drained.
/// Returns the results in index order plus every worker's final state
/// in worker order. Every index is computed exactly once; `n == 0`
/// spawns nothing and returns two empty vectors. A panic in `init` or
/// `f` is re-raised on the caller's thread once every worker has been
/// joined.
pub fn par_indexed<T, S, I, F>(n: usize, workers: usize, init: I, f: F) -> (Vec<T>, Vec<S>)
where
    T: Send,
    S: Send,
    I: Fn(usize) -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let threads = workers.max(1).min(n);
    let ticket = JobTicket::new(n);
    let joined: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|worker| {
                let (ticket, init, f) = (&ticket, &init, &f);
                scope.spawn(move || {
                    let mut state = init(worker);
                    let mut done = Vec::new();
                    while let Some(i) = ticket.claim() {
                        done.push((i, f(&mut state, i)));
                    }
                    (state, done)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let mut states = Vec::with_capacity(threads);
    for result in joined {
        match result {
            Ok((state, done)) => {
                for (i, value) in done {
                    slots[i] = Some(value);
                }
                states.push(state);
            }
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
    let results = slots
        .into_iter()
        .map(|slot| slot.expect("every index claimed exactly once"))
        .collect();
    (results, states)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    proptest! {
        /// Claims are counted per index with atomics, so a lost or
        /// doubled claim under contention fails the count check.
        #[test]
        fn par_indexed_is_a_serial_map_in_index_order(n in 0usize..300, workers in 0usize..64) {
            let claims: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let (out, states) = par_indexed(
                n,
                workers,
                |worker| (worker, 0usize),
                |(_, computed), i| {
                    claims[i].fetch_add(1, Ordering::Relaxed);
                    *computed += 1;
                    i * i + 7
                },
            );
            let serial: Vec<usize> = (0..n).map(|i| i * i + 7).collect();
            prop_assert_eq!(out, serial);
            prop_assert!(claims.iter().all(|c| c.load(Ordering::Relaxed) == 1));
            prop_assert!(states.len() <= workers.max(1).min(n));
            prop_assert_eq!(states.iter().map(|(_, c)| c).sum::<usize>(), n);
            let ids: Vec<usize> = states.iter().map(|(w, _)| *w).collect();
            prop_assert_eq!(ids, (0..states.len()).collect::<Vec<_>>());
            if n == 0 {
                prop_assert!(states.is_empty());
            }
        }
    }

    #[test]
    fn empty_range_spawns_nothing() {
        let (out, states): (Vec<u8>, Vec<()>) =
            par_indexed(0, 8, |_| unreachable!("no worker for no work"), |_, _| 0);
        assert!(out.is_empty());
        assert!(states.is_empty());
    }

    #[test]
    fn flagged_indices_are_collected_in_index_order() {
        // The crawl's recrawl queue: jobs report "parked" through their
        // slot, and the caller collects them after the join.
        let (out, _) = par_indexed(400, 4, |_| (), |_, i| i % 7 == 3);
        let parked: Vec<usize> = (0..400).filter(|&i| out[i]).collect();
        assert_eq!(parked, (0..400).filter(|i| i % 7 == 3).collect::<Vec<_>>());
    }

    #[test]
    fn a_worker_panic_reaches_the_caller() {
        let caught = std::panic::catch_unwind(|| {
            par_indexed(50, 4, |_| (), |_, i| assert_ne!(i, 37, "knock failed"))
        });
        let payload = caught.expect_err("the panic must propagate");
        let message = payload.downcast_ref::<String>().expect("formatted payload");
        assert!(message.contains("knock failed"), "{message}");
    }
}
