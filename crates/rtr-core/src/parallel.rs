//! Ordered work pulling: the one way the workspace spreads independent
//! checks over threads (`fig9 --jobs`, `rtr check --jobs`).
//!
//! Workers take the next item index from a shared cursor, so a worker
//! that drew cheap items simply takes more of them and nobody idles
//! behind a fixed, uneven share. The calling thread is itself one of the
//! workers. Results come back in input order whatever the schedule, so a
//! caller that folds them in order produces the same output at any
//! `jobs`.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Maps `f` over `items` on `jobs` workers (the caller plus `jobs − 1`
/// scoped threads; `jobs` is clamped to `1..=items.len()`), returning
/// the results in input order together with each worker's state.
///
/// Each worker starts from `S::default()` and threads it through every
/// item it runs, so per-worker accumulators (work counters) need no
/// lock; the caller folds the returned states, which come in no
/// particular order. Every item runs exactly once. A panic in `f`
/// propagates to the caller once the other workers have stopped.
pub fn map_pulled<T, R, S, F>(items: &[T], jobs: usize, f: F) -> (Vec<R>, Vec<S>)
where
    T: Sync,
    R: Send,
    S: Default + Send,
    F: Fn(&mut S, &T) -> R + Sync,
{
    let jobs = jobs.clamp(1, items.len().max(1));
    let cursor = AtomicUsize::new(0);
    let work = || {
        let mut state = S::default();
        let mut done = Vec::new();
        loop {
            // Relaxed: the cursor publishes no data; results reach the
            // caller through the joins.
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { break };
            done.push((i, f(&mut state, item)));
        }
        (done, state)
    };
    let shards = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..jobs).map(|_| scope.spawn(work)).collect();
        let mut shards = vec![work()];
        for h in helpers {
            shards.push(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
        shards
    });
    let mut done = Vec::with_capacity(items.len());
    let mut states = Vec::with_capacity(shards.len());
    for (shard, state) in shards {
        done.extend(shard);
        states.push(state);
    }
    done.sort_unstable_by_key(|&(i, _)| i);
    (done.into_iter().map(|(_, r)| r).collect(), states)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn results_come_back_in_input_order_and_each_item_runs_once() {
        let items: Vec<usize> = (0..37).collect();
        for jobs in [0, 1, 2, 3, 100] {
            let runs: Vec<AtomicU32> = items.iter().map(|_| AtomicU32::new(0)).collect();
            let (out, states) = map_pulled(&items, jobs, |n: &mut usize, &i| {
                runs[i].fetch_add(1, Ordering::Relaxed);
                *n += 1;
                i * i
            });
            assert_eq!(out, items.iter().map(|i| i * i).collect::<Vec<_>>());
            assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1));
            assert_eq!(states.len(), jobs.clamp(1, items.len()));
            assert_eq!(states.iter().sum::<usize>(), items.len());
        }
    }

    #[test]
    fn no_items_runs_nothing() {
        let (out, states) = map_pulled(&[] as &[u8], 4, |(), _| -> u8 { unreachable!() });
        assert!(out.is_empty());
        assert_eq!(states.len(), 1);
    }

    #[test]
    #[should_panic(expected = "item 11 failed")]
    fn a_panicking_item_propagates() {
        let items: Vec<usize> = (0..24).collect();
        map_pulled(&items, 3, |(), &i| {
            assert!(i != 11, "item {i} failed");
        });
    }
}
