//! Claim-counter runner for the experiment matrix.
//!
//! The paper's matrices (E2/E4/E6/E7) and the fleet scenario are
//! embarrassingly parallel: every cell boots its own machines and shares
//! nothing with its neighbours. [`Runner`] fans a list of cells across a
//! worker pool while keeping the output *byte-identical* to a serial
//! run:
//!
//! * **Deterministic seeds** — a cell's randomness comes from
//!   [`derive_seed`]`(base_seed, cell_id)`, a pure function of the cell's
//!   position in the matrix, never from "the next draw" of a shared RNG.
//!   Serial and parallel runs therefore boot identical victims.
//! * **Ordered merge** — results land in a slot per cell and are read
//!   back in cell order, so report rows appear exactly as a serial loop
//!   would have emitted them no matter which worker finished first.
//!
//! Scheduling is one atomic claim counter: each worker takes the next
//! unclaimed chunk until none is left, so uneven chunk costs balance
//! themselves. Each worker builds its own state once, before its first
//! claim, and drops it before the run returns. No new work is ever
//! produced mid-run, so "counter past the end" is the termination
//! condition.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

/// Derives a per-cell seed from the run's base seed and the cell's
/// stable id (its index in the matrix enumeration).
///
/// The mix is SplitMix64 over the pair, so distinct cells get
/// uncorrelated layouts while any `(base, cell)` pair is reproducible
/// forever — the determinism contract both the serial and parallel
/// paths rely on.
pub fn derive_seed(base_seed: u64, cell_id: u64) -> u64 {
    let mut z = base_seed ^ cell_id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A fixed-size worker pool that maps a function over indexed cells.
#[derive(Debug, Clone, Copy)]
pub struct Runner {
    jobs: usize,
}

impl Runner {
    /// Creates a runner with the given worker count; `0` means "one per
    /// available CPU".
    pub fn new(jobs: usize) -> Self {
        let jobs = if jobs == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            jobs
        };
        Runner { jobs }
    }

    /// The effective worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs `work(cell_id, item)` for every item and returns the results
    /// in item order, regardless of completion order or worker count.
    pub fn run<T, R, F>(&self, items: Vec<T>, work: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        self.run_chunks(
            slots.len() as u64,
            1,
            || (),
            |(), cell| {
                let i = cell.start as usize;
                let item = slots[i].lock().take().expect("each cell is claimed once");
                work(i, item)
            },
        )
    }

    /// Maps `work` over the index ranges `[k·chunk, (k+1)·chunk) ∩
    /// [0, total)` and returns one partial per chunk, ordered by chunk
    /// index regardless of completion order.
    ///
    /// Each worker calls `init` once, before its first claim, and hands
    /// the state to `work` for every chunk it claims; the states are
    /// dropped before `run_chunks` returns. With one worker everything
    /// runs on the calling thread.
    ///
    /// Scheduling state is one atomic claim counter and `total / chunk`
    /// partials, so a million-device campaign's bookkeeping stays a few
    /// hundred accumulators.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero.
    pub fn run_chunks<S, P, I, F>(&self, total: u64, chunk: u64, init: I, work: F) -> Vec<P>
    where
        P: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, Range<u64>) -> P + Sync,
    {
        assert!(chunk > 0, "chunk size must be positive");
        let chunks = total.div_ceil(chunk);
        let range = |k: u64| k * chunk..total.min((k + 1) * chunk);
        let workers = self.jobs.min(chunks.max(1) as usize).max(1);
        if workers == 1 {
            let mut state = init();
            return (0..chunks).map(|k| work(&mut state, range(k))).collect();
        }
        let next = AtomicU64::new(0);
        let partials: Vec<Mutex<Option<P>>> = (0..chunks).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut state = init();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= chunks {
                            break;
                        }
                        *partials[k as usize].lock() = Some(work(&mut state, range(k)));
                    }
                });
            }
        });
        partials
            .into_iter()
            .map(|m| m.into_inner().expect("every chunk produces a partial"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn seeds_are_stable_and_distinct() {
        let a = derive_seed(0xD00D, 0);
        let b = derive_seed(0xD00D, 1);
        assert_eq!(a, derive_seed(0xD00D, 0), "pure function");
        assert_ne!(a, b, "cells decorrelated");
        assert_ne!(a, derive_seed(0xD00E, 0), "base matters");
    }

    #[test]
    fn results_keep_item_order_at_any_width() {
        let items: Vec<usize> = (0..97).collect();
        let expect: Vec<usize> = items.iter().map(|i| i * 3).collect();
        for jobs in [1, 2, 4, 8] {
            let got = Runner::new(jobs).run(items.clone(), |_, x| x * 3);
            assert_eq!(got, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn cell_id_matches_item_index() {
        let got = Runner::new(4).run(vec!['a', 'b', 'c', 'd', 'e'], |i, c| (i, c));
        assert_eq!(got, vec![(0, 'a'), (1, 'b'), (2, 'c'), (3, 'd'), (4, 'e')]);
    }

    #[test]
    fn uneven_loads_all_complete() {
        // One huge cell plus many small: with 4 workers, the small cells
        // must all complete while one worker is stuck on the big one.
        let touched = AtomicUsize::new(0);
        let items: Vec<u64> = (0..32).map(|i| if i == 0 { 200_000 } else { 10 }).collect();
        let sums = Runner::new(4).run(items, |_, spin| {
            let mut acc = 0u64;
            for k in 0..spin {
                acc = acc.wrapping_add(std::hint::black_box(k));
            }
            touched.fetch_add(1, Ordering::Relaxed);
            acc
        });
        assert_eq!(sums.len(), 32);
        assert_eq!(touched.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn zero_jobs_means_all_cpus() {
        assert!(Runner::new(0).jobs() >= 1);
    }

    #[test]
    fn chunk_partials_arrive_in_chunk_order_at_any_width() {
        // Sum of each range, plus its bounds, so ordering and coverage
        // are both checked.
        for jobs in [1, 2, 4, 8] {
            for (total, chunk) in [(0u64, 7u64), (1, 7), (97, 7), (96, 32), (5, 100)] {
                let got =
                    Runner::new(jobs).run_chunks(total, chunk, || (), |(), r| (r.start, r.end));
                let chunks = total.div_ceil(chunk);
                assert_eq!(got.len() as u64, chunks, "jobs={jobs} total={total}");
                for (k, (s, e)) in got.iter().enumerate() {
                    assert_eq!(*s, k as u64 * chunk);
                    assert_eq!(*e, total.min((k as u64 + 1) * chunk));
                }
            }
        }
    }

    #[test]
    fn chunk_sums_match_serial_at_any_width() {
        let total = 100_000u64;
        let want: u64 = (0..total).sum();
        for jobs in [1, 3, 8] {
            let got: u64 = Runner::new(jobs)
                .run_chunks(total, 4096, || (), |(), r| r.sum::<u64>())
                .into_iter()
                .sum();
            assert_eq!(got, want, "jobs={jobs}");
        }
    }

    #[test]
    fn worker_state_is_built_once_per_worker_and_dropped_before_return() {
        struct State<'a> {
            drops: &'a AtomicUsize,
            chunks: usize,
        }
        impl Drop for State<'_> {
            fn drop(&mut self) {
                self.drops.fetch_add(1, Ordering::Relaxed);
            }
        }
        for jobs in [1, 2, 4] {
            for total in [0u64, 1, 3, 100] {
                let inits = AtomicUsize::new(0);
                let drops = AtomicUsize::new(0);
                let got = Runner::new(jobs).run_chunks(
                    total,
                    2,
                    || {
                        inits.fetch_add(1, Ordering::Relaxed);
                        State {
                            drops: &drops,
                            chunks: 0,
                        }
                    },
                    |state, r| {
                        state.chunks += 1;
                        (r.start, state.chunks)
                    },
                );
                let workers = jobs.min(total.div_ceil(2).max(1) as usize);
                let inits = inits.load(Ordering::Relaxed);
                assert!(
                    inits <= workers && (inits > 0 || total == 0),
                    "jobs={jobs} total={total}: {inits} inits for {workers} workers"
                );
                assert_eq!(
                    drops.load(Ordering::Relaxed),
                    inits,
                    "jobs={jobs} total={total}"
                );
                // Every chunk ran once, in order, each on a state that
                // had seen at most every chunk so far.
                assert_eq!(got.len() as u64, total.div_ceil(2));
                for (k, (start, seen)) in got.iter().enumerate() {
                    assert_eq!(*start, 2 * k as u64);
                    assert!((1..=k + 1).contains(seen));
                }
                if jobs == 1 {
                    assert_eq!(
                        got.iter().map(|&(_, seen)| seen).collect::<Vec<_>>(),
                        (1..=got.len()).collect::<Vec<_>>()
                    );
                }
            }
        }
    }
}
