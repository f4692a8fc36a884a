//! The ordered work pool: one scoped claim-an-index fan-out shared by
//! detection (preamble validation per run), decode (per overlap
//! cluster) and tnb-deploy (per shard task).
//!
//! Each lane owns a piece of per-worker state (a [`tnb_dsp::DspScratch`]
//! and a metrics sink in the decoder) that persists across
//! [`Pool::map`] calls, so serial steps between two fan-outs can borrow
//! the first lane through [`Pool::lane`]. Results come back in item
//! order whatever the scheduling, which is what makes every caller's
//! merge byte-identical across worker counts. A panicking item yields
//! `None` at its own index and its lane restarts from fresh state; the
//! rest of the batch is unaffected.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Up to `workers` lanes of state `S`, built on demand by `fresh`.
pub struct Pool<S, F> {
    workers: usize,
    fresh: F,
    lanes: Vec<S>,
}

impl<S: Send, F: Fn() -> S + Sync> Pool<S, F> {
    /// A pool of at most `workers` lanes (clamped to at least 1). No
    /// lane is built until one is needed.
    pub fn new(workers: usize, fresh: F) -> Self {
        Pool {
            workers: workers.max(1),
            fresh,
            lanes: Vec::new(),
        }
    }

    /// The first lane, for serial work between fan-outs. At one worker
    /// it is the lane every [`Self::map`] item runs on.
    pub fn lane(&mut self) -> &mut S {
        if self.lanes.is_empty() {
            self.lanes.push((self.fresh)());
        }
        &mut self.lanes[0]
    }

    /// Runs `work` over `items` on `min(workers, items.len())` threads,
    /// inline when that is 1, and returns the results in item order.
    /// `None` marks an item whose work panicked.
    pub fn map<T: Sync, R: Send>(
        &mut self,
        items: &[T],
        work: impl Fn(&mut S, &T) -> R + Sync,
    ) -> Vec<Option<R>> {
        let threads = self.workers.min(items.len());
        while self.lanes.len() < threads {
            self.lanes.push((self.fresh)());
        }
        let fresh = &self.fresh;
        let guarded =
            |lane: &mut S, item: &T| match catch_unwind(AssertUnwindSafe(|| work(lane, item))) {
                Ok(r) => Some(r),
                Err(_) => {
                    // The lane's buffers may be mid-mutation: start it over.
                    *lane = fresh();
                    None
                }
            };
        if threads <= 1 {
            return match self.lanes.first_mut() {
                Some(lane) => items.iter().map(|item| guarded(lane, item)).collect(),
                None => Vec::new(),
            };
        }

        let next = AtomicUsize::new(0);
        let (guarded, next) = (&guarded, &next);
        let mut out: Vec<Option<R>> = Vec::new();
        out.resize_with(items.len(), || None);
        std::thread::scope(|s| {
            let handles: Vec<_> = self.lanes[..threads]
                .iter_mut()
                .map(|lane| {
                    s.spawn(move || {
                        let mut local = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(item) = items.get(i) else { break };
                            local.push((i, guarded(lane, item)));
                        }
                        local
                    })
                })
                .collect();
            for h in handles {
                // Every item is guarded, so a thread cannot die; if one
                // did, its items would simply stay `None`.
                if let Ok(local) = h.join() {
                    for (i, r) in local {
                        out[i] = r;
                    }
                }
            }
        });
        out
    }

    /// The lanes' final state, for absorbing per-worker metrics.
    pub fn into_lanes(self) -> Vec<S> {
        self.lanes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;
    use std::thread::ThreadId;

    #[test]
    fn results_keep_item_order() {
        for workers in [1usize, 2, 8] {
            for n in [0usize, 1, 3, 64] {
                let items: Vec<usize> = (0..n).collect();
                let mut pool = Pool::new(workers, || 0usize);
                let out = pool.map(&items, |done, &i| {
                    *done += 1;
                    i * 10
                });
                let want: Vec<Option<usize>> = (0..n).map(|i| Some(i * 10)).collect();
                assert_eq!(out, want, "workers={workers} items={n}");
                let lanes = pool.into_lanes();
                assert_eq!(lanes.iter().sum::<usize>(), n, "every item ran once");
            }
        }
    }

    #[test]
    fn never_more_threads_than_items() {
        let built = AtomicUsize::new(0);
        let threads = Mutex::new(HashSet::<ThreadId>::new());
        let mut pool = Pool::new(8, || built.fetch_add(1, Ordering::Relaxed));
        let out = pool.map(&[1u8, 2, 3], |_, &x| {
            threads.lock().unwrap().insert(std::thread::current().id());
            x
        });
        assert_eq!(out, vec![Some(1), Some(2), Some(3)]);
        assert!(threads.lock().unwrap().len() <= 3);
        assert_eq!(pool.into_lanes().len(), 3);
        assert_eq!(built.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn one_worker_runs_inline_on_the_first_lane() {
        let mut pool = Pool::new(1, Vec::<u8>::new);
        pool.lane().push(7);
        let here = std::thread::current().id();
        let out = pool.map(&[1u8, 2], |lane, &x| {
            assert_eq!(std::thread::current().id(), here);
            lane.push(x);
            lane.len()
        });
        assert_eq!(out, vec![Some(2), Some(3)]);
        assert_eq!(pool.into_lanes(), vec![vec![7, 1, 2]]);
    }

    #[test]
    fn a_panicking_item_is_none_and_its_lane_restarts_fresh() {
        let items: Vec<usize> = (0..6).collect();
        let mut pool = Pool::new(1, Vec::<usize>::new);
        let out = pool.map(&items, |seen, &i| {
            seen.push(i);
            assert_ne!(i, 2, "poisoned item");
            seen.clone()
        });
        assert_eq!(out[0], Some(vec![0]));
        assert_eq!(out[1], Some(vec![0, 1]));
        assert_eq!(out[2], None);
        // Later items on the same lane see only what came after the panic.
        assert_eq!(out[3], Some(vec![3]));
        assert_eq!(out[5], Some(vec![3, 4, 5]));
    }

    #[test]
    fn a_panic_on_one_thread_spares_the_other_items() {
        let items: Vec<usize> = (0..32).collect();
        let mut pool = Pool::new(4, || ());
        let out = pool.map(&items, |_, &i| {
            assert_ne!(i % 10, 7, "poisoned item");
            i
        });
        for (i, r) in out.iter().enumerate() {
            let want = (i % 10 != 7).then_some(i);
            assert_eq!(*r, want, "item {i}");
        }
    }
}
