//! The parallel sweep executor: scoped-thread fan-out over independent
//! design points.
//!
//! Sweeps (the Fig. 8 bandwidth × CS grid, the Fig. 9 capacity ladder,
//! Monte-Carlo sensitivity samples) evaluate many independent points.
//! [`par_map`] distributes them over `std::thread::scope` workers
//! claiming **chunks** from a shared atomic cursor, then reassembles
//! results **by input index** — so the output is identical, element for
//! element, whatever the worker count. `M3D_JOBS=1` therefore reproduces
//! the parallel output byte for byte (the determinism regression test
//! relies on it).
//!
//! Chunked claiming is what makes fine-grained items profitable: a
//! worker grabs a run of adjacent indices per cursor operation (a
//! guided-scheduling fraction of the remaining work, shrinking toward 1
//! as the sweep drains), so thousands of sub-ms items — the points of
//! a sensitivity sweep, for instance — cost a handful of
//! compare-exchanges instead of one contended `fetch_add` each, while
//! the tail still load-balances item by item. Which worker computes
//! which index never affects the result, only the schedule.
//!
//! No external thread-pool crate is used; plain scoped threads are
//! enough once claiming is this cheap.
//!
//! A thread that is already one of a fixed set of workers sharing the
//! machine's cores — an `m3d-serve` request worker, or one of
//! [`par_map_jobs`]'s own scoped workers — runs every [`par_map`] on
//! itself (see [`as_worker`]). Fanning out from there would only
//! oversubscribe the cores those workers already fill: a server
//! request pays a thread spawn per sweep, and a nested sweep spawns
//! `jobs²` threads. The result is the same either way.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::obs::{Recorder, DEPTH_EDGES};

/// Worker count for sweep execution: the `M3D_JOBS` environment variable
/// when set to a positive integer, otherwise the machine's available
/// parallelism.
pub fn jobs() -> usize {
    match std::env::var("M3D_JOBS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => default_jobs(),
        },
        Err(_) => default_jobs(),
    }
}

fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

thread_local! {
    /// Set while the thread runs inside [`as_worker`].
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` with the calling thread marked as one of a fixed set of
/// workers that share the machine's cores, so every [`par_map`] inside
/// `f` runs on this thread. The previous mark is restored when `f`
/// returns or unwinds.
pub fn as_worker<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            IN_WORKER.with(|w| w.set(self.0));
        }
    }
    let _restore = Restore(IN_WORKER.with(|w| w.replace(true)));
    f()
}

/// Maps `f` over `items` using [`jobs`] workers, or on the calling
/// thread alone when it runs inside [`as_worker`]. See
/// [`par_map_jobs`].
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let jobs = if IN_WORKER.with(Cell::get) { 1 } else { jobs() };
    par_map_jobs(jobs, items, f)
}

/// Claims the next chunk `[start, end)` of `n` items from `cursor`,
/// guided-schedule style: a `1/(4·jobs)` fraction of the remaining work,
/// at least one item. Returns `None` once the sweep is drained.
fn claim_chunk(cursor: &AtomicUsize, n: usize, jobs: usize) -> Option<(usize, usize)> {
    let mut start = cursor.load(Ordering::Relaxed);
    loop {
        if start >= n {
            return None;
        }
        let chunk = ((n - start) / (4 * jobs)).max(1);
        let end = start + chunk;
        match cursor.compare_exchange_weak(start, end, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return Some((start, end)),
            Err(actual) => start = actual,
        }
    }
}

/// Maps `f` over `items` on `jobs` scoped worker threads with chunked
/// work stealing.
///
/// Results are returned in input order regardless of which worker
/// computed which chunk; `jobs == 1` (or a single item) degenerates to a
/// plain serial map on the calling thread. Each spawned worker runs its
/// chunks inside [`as_worker`], so a nested [`par_map`] stays on it.
///
/// # Panics
///
/// Propagates a panic from `f` after all workers have stopped.
pub fn par_map_jobs<T, U, F>(jobs: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let n = items.len();
    let jobs = jobs.max(1).min(n.max(1));
    let rec = Recorder::global();
    rec.incr("par_map.calls", 1);
    rec.incr("par_map.items", n as u64);
    rec.observe("par_map.workers", jobs as u64, DEPTH_EDGES);
    if jobs == 1 {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let chunks = AtomicUsize::new(0);
    let f = &f;
    let cursor = &cursor;
    let chunks = &chunks;
    let mut buckets: Vec<Vec<(usize, U)>> = Vec::with_capacity(jobs);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(move || {
                    as_worker(|| {
                        let mut out = Vec::new();
                        while let Some((start, end)) = claim_chunk(cursor, n, jobs) {
                            chunks.fetch_add(1, Ordering::Relaxed);
                            for (i, item) in (start..end).zip(&items[start..end]) {
                                out.push((i, f(item)));
                            }
                        }
                        out
                    })
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(bucket) => buckets.push(bucket),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    rec.incr("par_map.chunks", chunks.load(Ordering::Relaxed) as u64);
    let mut slots: Vec<Option<U>> = std::iter::repeat_with(|| None).take(n).collect();
    for (i, u) in buckets.into_iter().flatten() {
        slots[i] = Some(u);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index visited exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order_for_any_worker_count() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for jobs in [1, 2, 3, 8, 64] {
            assert_eq!(par_map_jobs(jobs, &items, |x| x * x), expect);
        }
    }

    #[test]
    fn handles_empty_and_oversubscribed_inputs() {
        assert!(par_map_jobs(8, &[] as &[u32], |x| *x).is_empty());
        assert_eq!(par_map_jobs(64, &[1u32], |x| x + 1), vec![2]);
    }

    #[test]
    fn actually_runs_on_multiple_threads() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let seen = Mutex::new(HashSet::new());
        let items: Vec<u32> = (0..64).collect();
        par_map_jobs(4, &items, |_| {
            seen.lock().unwrap().insert(std::thread::current().id());
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        assert!(seen.lock().unwrap().len() > 1, "expected >1 worker thread");
    }

    #[test]
    fn par_map_inside_a_worker_runs_on_the_calling_thread() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let seen = Mutex::new(HashSet::new());
        let items: Vec<u32> = (0..64).collect();
        let out = as_worker(|| {
            par_map(&items, |x| {
                seen.lock().unwrap().insert(std::thread::current().id());
                std::thread::sleep(std::time::Duration::from_millis(1));
                x * 3
            })
        });
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), 1, "expected the calling thread alone");
        assert!(seen.contains(&std::thread::current().id()));
        assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn nested_par_map_runs_on_the_item_worker_thread() {
        let outer: Vec<u64> = (0..16).collect();
        let inner: Vec<u64> = (0..32).collect();
        let rows = par_map_jobs(4, &outer, |&o| {
            let me = std::thread::current().id();
            let row = par_map(&inner, |&i| (std::thread::current().id(), o * 100 + i));
            assert!(
                row.iter().all(|(t, _)| *t == me),
                "nested sweep left its worker"
            );
            row.into_iter().map(|(_, v)| v).collect::<Vec<_>>()
        });
        let expect: Vec<Vec<u64>> = outer
            .iter()
            .map(|o| inner.iter().map(|i| o * 100 + i).collect())
            .collect();
        assert_eq!(rows, expect);
    }

    #[test]
    fn worker_mark_is_restored_on_return_and_on_unwind() {
        let marked = || IN_WORKER.with(Cell::get);
        assert!(!marked());
        as_worker(|| {
            assert!(marked());
            as_worker(|| assert!(marked()));
            assert!(marked(), "an inner as_worker must not clear the outer mark");
        });
        assert!(!marked());
        let caught = std::panic::catch_unwind(|| as_worker(|| panic!("inside a worker")));
        assert!(caught.is_err());
        assert!(!marked(), "the mark must not outlive a panic");
    }

    #[test]
    fn chunk_claims_partition_the_range_exactly() {
        let n = 1000;
        let jobs = 8;
        let cursor = AtomicUsize::new(0);
        let mut seen = vec![false; n];
        let mut last_chunk = usize::MAX;
        while let Some((start, end)) = claim_chunk(&cursor, n, jobs) {
            assert!(start < end && end <= n);
            // Guided scheduling: chunks never grow as the sweep drains.
            assert!(end - start <= last_chunk.max(1));
            last_chunk = end - start;
            for s in &mut seen[start..end] {
                assert!(!*s, "index claimed twice");
                *s = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every index claimed");
        // The first claim of 1000 items on 8 jobs is a 31-item run, not
        // a single index — the point of chunking.
        assert_eq!(1000 / 32, 31);
    }

    #[test]
    fn fine_grained_items_produce_identical_results() {
        // Thousands of sub-µs items — the shape chunking exists for.
        let items: Vec<u64> = (0..10_000).collect();
        let expect: Vec<u64> = items
            .iter()
            .map(|x| x.wrapping_mul(31).rotate_left(7))
            .collect();
        for jobs in [2, 5, 16] {
            assert_eq!(
                par_map_jobs(jobs, &items, |x| x.wrapping_mul(31).rotate_left(7)),
                expect
            );
        }
    }

    #[test]
    fn env_override_parses_defensively() {
        // jobs() must never return 0, whatever M3D_JOBS contains; the
        // parse path itself is covered via par_map_jobs clamping.
        assert!(jobs() >= 1);
        assert!(default_jobs() >= 1);
    }
}
