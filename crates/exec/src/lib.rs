//! # portopt-exec
//!
//! The shared parallel-execution subsystem: a chunked **work-stealing
//! executor** over an indexed task grid, used by every sweep in the
//! workspace (dataset generation, the leave-one-out harness, the figure
//! binaries).
//!
//! ## Determinism contract
//!
//! [`Executor::map_indexed`] evaluates a pure function `f(i)` for every
//! index `i < n` and returns the results **in index order**, regardless of
//! the number of worker threads or how the scheduler interleaves them.
//! Workers race only over *which* thread computes a task, never over what
//! the task computes or where its result lands; as long as `f` is a pure
//! function of its index, the output vector is bit-for-bit identical for
//! any thread count (including 1). Every sweep in `portopt` is built on
//! this property — `portopt_core::Sweep` asserts it in its
//! `generation_is_deterministic` test.
//!
//! ```
//! use portopt_exec::Executor;
//!
//! let task = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9).rotate_left(7);
//! let on_one_thread: Vec<u64> = (0..100).map(task).collect();
//! // Same grid on 4 workers: same vector, whatever the interleaving was.
//! assert_eq!(Executor::new(4).map_indexed(100, task), on_one_thread);
//! ```
//!
//! ## Scheduling
//!
//! The index range is split into one contiguous shard per worker. Each
//! worker pops small chunks from the *front* of its own shard and, when its
//! shard runs dry, steals the *back half* of the richest remaining shard.
//! Chunks keep neighbouring tasks (which tend to touch the same program)
//! on one core; stealing keeps all cores busy when per-task cost is skewed
//! — the situation a `(program, setting)` grid is always in, since compile
//! and profile times vary by orders of magnitude across settings.
//!
//! A panic in any task is re-raised to the caller; sibling workers stop at
//! their next idle point rather than spinning on work that can no longer
//! complete.
//!
//! For workloads that arrive one item at a time instead of as a grid (the
//! `portopt-serve` prediction service), [`queue::ServiceQueue`] accumulates
//! submissions and drains them as batches onto the same executor.
//!
//! ## Observability
//!
//! Every `map_indexed` call runs inside a `portopt_trace` span and
//! reports steal/park counters plus aggregate compute-vs-idle
//! microseconds (a `debug`-level event and span-close fields); queue
//! drains emit `trace`-level depth samples. With tracing unsinked and
//! below the stderr filter the cost is a few relaxed atomics per chunk.

#![warn(missing_docs)]

pub mod cache;
pub mod queue;

pub use cache::{CacheEntryInfo, CacheError, CacheStats, DiskCache, GcReport};
pub use queue::{ServiceQueue, SubmitError, Ticket};

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of threads the host advertises (cgroup-aware); 1 if unknown.
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Resolves a user-facing thread-count request: `0` means "auto" (use
/// [`available_threads`]); any other value is taken literally.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        available_threads()
    } else {
        requested
    }
}

/// A work-stealing executor with a fixed worker count.
///
/// Cheap to construct (no threads are kept alive between calls — workers
/// are scoped to each [`map_indexed`](Executor::map_indexed) call, so an
/// `Executor` can be created per sweep without pool-lifecycle concerns).
#[derive(Debug, Clone, Copy)]
pub struct Executor {
    threads: usize,
}

impl Executor {
    /// Creates an executor; `threads == 0` selects all available cores.
    pub fn new(threads: usize) -> Self {
        Executor {
            threads: resolve_threads(threads),
        }
    }

    /// The resolved worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Evaluates `f(0..n)` across the workers and returns the results in
    /// index order. See the crate docs for the determinism contract.
    ///
    /// # Panics
    /// Re-raises the first panic observed in any task.
    pub fn map_indexed<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        let workers = self.threads.min(n).max(1);
        let sp = portopt_trace::span(
            "exec",
            "map_indexed",
            &[("n", n.into()), ("workers", workers.into())],
        );
        if workers == 1 {
            let out: Vec<T> = (0..n).map(f).collect();
            let compute_us = sp.elapsed_us();
            portopt_trace::debug!(
                "exec",
                {
                    n = n,
                    workers = 1u64,
                    steals = 0u64,
                    parks = 0u64,
                    compute_us = compute_us,
                    idle_us = 0u64
                },
                "map_indexed drained"
            );
            sp.close_with(&[
                ("steals", 0u64.into()),
                ("parks", 0u64.into()),
                ("compute_us", compute_us.into()),
                ("idle_us", 0u64.into()),
            ]);
            return out;
        }

        // One contiguous shard per worker; chunks keep neighbours together.
        let chunk = (n / (workers * 8)).max(1);
        let shards: Vec<Mutex<(usize, usize)>> = (0..workers)
            .map(|w| {
                let lo = n * w / workers;
                let hi = n * (w + 1) / workers;
                Mutex::new((lo, hi))
            })
            .collect();

        let state = SharedState {
            remaining: AtomicUsize::new(n),
            panicked: AtomicBool::new(false),
            steals: AtomicU64::new(0),
            parks: AtomicU64::new(0),
            compute_us: AtomicU64::new(0),
            idle_us: AtomicU64::new(0),
        };
        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        let parts: Vec<Vec<(usize, T)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let shards = &shards;
                    let state = &state;
                    let f = &f;
                    s.spawn(move || worker_loop(shards, state, w, chunk, f))
                })
                .collect();
            // `join` forwards a worker panic; remaining workers drain their
            // tasks first because `scope` joins every handle.
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(part) => part,
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        });
        let steals = state.steals.load(Ordering::Relaxed);
        let parks = state.parks.load(Ordering::Relaxed);
        let compute_us = state.compute_us.load(Ordering::Relaxed);
        let idle_us = state.idle_us.load(Ordering::Relaxed);
        portopt_trace::debug!(
            "exec",
            {
                n = n,
                workers = workers,
                steals = steals,
                parks = parks,
                compute_us = compute_us,
                idle_us = idle_us
            },
            "map_indexed drained"
        );
        sp.close_with(&[
            ("steals", steals.into()),
            ("parks", parks.into()),
            ("compute_us", compute_us.into()),
            ("idle_us", idle_us.into()),
        ]);
        for (i, v) in parts.into_iter().flatten() {
            slots[i] = Some(v);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every index covered exactly once"))
            .collect()
    }

    /// Maps `f` over a slice, returning results in input order (a
    /// convenience wrapper over [`map_indexed`](Executor::map_indexed)).
    pub fn map<I, T, F>(&self, items: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(&I) -> T + Sync,
    {
        self.map_indexed(items.len(), |i| f(&items[i]))
    }
}

impl Default for Executor {
    /// An executor over all available cores.
    fn default() -> Self {
        Executor::new(0)
    }
}

/// Pops up to `chunk` tasks from the front of shard `w`.
fn pop_front(shards: &[Mutex<(usize, usize)>], w: usize, chunk: usize) -> Option<(usize, usize)> {
    let mut g = shards[w].lock().expect("shard lock");
    if g.0 >= g.1 {
        return None;
    }
    let take = chunk.min(g.1 - g.0);
    let r = (g.0, g.0 + take);
    g.0 += take;
    Some(r)
}

/// Steals the back half of the richest shard other than `w`.
fn steal(shards: &[Mutex<(usize, usize)>], w: usize) -> Option<(usize, usize)> {
    // Probe for the victim with the most remaining work; sizes are racy but
    // only steer the choice — the actual claim below is under the lock.
    let victim = shards
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != w)
        .map(|(i, m)| {
            let g = m.lock().expect("shard lock");
            (i, g.1.saturating_sub(g.0))
        })
        .max_by_key(|&(_, rem)| rem)?;
    if victim.1 == 0 {
        return None;
    }
    let mut g = shards[victim.0].lock().expect("shard lock");
    let rem = g.1.saturating_sub(g.0);
    if rem == 0 {
        return None;
    }
    let take = rem.div_ceil(2);
    let r = (g.1 - take, g.1);
    g.1 -= take;
    Some(r)
}

/// Cross-worker progress signals for one `map_indexed` call.
struct SharedState {
    /// Tasks not yet completed; the authoritative retirement signal.
    remaining: AtomicUsize,
    /// Set when any task panicked (its tasks will never complete, so
    /// `remaining` alone would spin the other workers forever).
    panicked: AtomicBool,
    /// Successful steals across all workers (observability only).
    steals: AtomicU64,
    /// Idle-backoff parks (yield or sleep) across all workers.
    parks: AtomicU64,
    /// Microseconds spent computing task chunks, summed over workers.
    compute_us: AtomicU64,
    /// Microseconds spent parked waiting for work, summed over workers.
    idle_us: AtomicU64,
}

fn worker_loop<T, F>(
    shards: &[Mutex<(usize, usize)>],
    state: &SharedState,
    w: usize,
    chunk: usize,
    f: &F,
) -> Vec<(usize, T)>
where
    F: Fn(usize) -> T,
{
    let mut out = Vec::new();
    let mut idle_rounds = 0u32;
    loop {
        if let Some((lo, hi)) = pop_front(shards, w, chunk) {
            idle_rounds = 0;
            let chunk_start = std::time::Instant::now();
            for i in lo..hi {
                // A sibling's panic makes the whole call unwind; abandon
                // the rest of our work instead of computing results that
                // will never be read.
                if state.panicked.load(Ordering::Acquire) {
                    return out;
                }
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i))) {
                    Ok(v) => {
                        out.push((i, v));
                        state.remaining.fetch_sub(1, Ordering::Release);
                    }
                    Err(payload) => {
                        state.panicked.store(true, Ordering::Release);
                        std::panic::resume_unwind(payload);
                    }
                }
            }
            state
                .compute_us
                .fetch_add(chunk_start.elapsed().as_micros() as u64, Ordering::Relaxed);
            continue;
        }
        if let Some((lo, hi)) = steal(shards, w) {
            // Stolen work goes back into our (empty) shard so it is
            // chunked normally and can itself be re-stolen.
            idle_rounds = 0;
            state.steals.fetch_add(1, Ordering::Relaxed);
            let mut g = shards[w].lock().expect("shard lock");
            *g = (lo, hi);
            continue;
        }
        // Nothing visible to pop or steal. Retire only once every task has
        // finished (or a sibling panicked): a probe can race with a victim
        // draining, and a stolen range is invisible while in the thief's
        // hands, so `remaining` — not the probe — is the authoritative
        // "no work left anywhere" signal.
        if state.remaining.load(Ordering::Acquire) == 0 || state.panicked.load(Ordering::Acquire) {
            return out;
        }
        // Back off while stragglers finish: yield at first, then sleep, so
        // idle workers neither burn a core nor hammer the shard mutexes
        // under a seconds-long tail task.
        idle_rounds = idle_rounds.saturating_add(1);
        state.parks.fetch_add(1, Ordering::Relaxed);
        let park_start = std::time::Instant::now();
        if idle_rounds < 16 {
            std::thread::yield_now();
        } else {
            let us = 50u64 << (idle_rounds - 16).min(4); // 50µs … 800µs
            std::thread::sleep(std::time::Duration::from_micros(us));
        }
        state
            .idle_us
            .fetch_add(park_start.elapsed().as_micros() as u64, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn resolves_zero_to_available() {
        assert_eq!(resolve_threads(0), available_threads());
        assert_eq!(resolve_threads(3), 3);
        assert!(Executor::new(0).threads() >= 1);
    }

    #[test]
    fn identical_results_across_thread_counts() {
        // A task whose value depends only on its index; heavy enough that
        // interleavings differ run to run.
        let task = |i: usize| -> u64 {
            let mut h = i as u64 + 0x9E37_79B9_7F4A_7C15;
            for _ in 0..50 {
                h ^= h >> 33;
                h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
            }
            h
        };
        let reference: Vec<u64> = (0..1000).map(task).collect();
        for threads in [1, 2, 8] {
            let got = Executor::new(threads).map_indexed(1000, task);
            assert_eq!(got, reference, "threads = {threads}");
        }
    }

    #[test]
    fn empty_grid() {
        let ex = Executor::new(4);
        let out: Vec<u32> = ex.map_indexed(0, |_| unreachable!("no tasks"));
        assert!(out.is_empty());
        let none: [u8; 0] = [];
        let out2: Vec<u32> = ex.map(&none, |_| unreachable!("no tasks"));
        assert!(out2.is_empty());
    }

    #[test]
    fn one_element_grid() {
        let out = Executor::new(8).map_indexed(1, |i| i + 41);
        assert_eq!(out, vec![41]);
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let counts: Vec<AtomicUsize> = (0..777).map(|_| AtomicUsize::new(0)).collect();
        let out = Executor::new(5).map_indexed(777, |i| {
            counts[i].fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out, (0..777).collect::<Vec<_>>());
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "task {i}");
        }
    }

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<i64> = (0..257).map(|i| i * 3).collect();
        let out = Executor::new(4).map(&items, |&x| x + 1);
        assert_eq!(out, items.iter().map(|x| x + 1).collect::<Vec<_>>());
    }

    #[test]
    fn panicking_task_propagates() {
        for threads in [1, 4] {
            let ex = Executor::new(threads);
            let err = catch_unwind(AssertUnwindSafe(|| {
                ex.map_indexed(64, |i| {
                    if i == 13 {
                        panic!("task 13 exploded");
                    }
                    i
                })
            }))
            .expect_err("panic must propagate");
            let msg = err
                .downcast_ref::<&str>()
                .copied()
                .map(String::from)
                .or_else(|| err.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            assert!(msg.contains("exploded"), "threads {threads}: {msg}");
        }
    }

    #[test]
    fn stealing_balances_skewed_tasks() {
        // Front-loaded cost: without stealing, worker 0 would do almost all
        // the work. We can't observe wall-time reliably on CI, but we can
        // check the result is still correct under heavy skew.
        let out = Executor::new(4).map_indexed(256, |i| {
            if i < 8 {
                let mut acc = 0u64;
                for k in 0..200_000u64 {
                    acc = acc.wrapping_add(k ^ i as u64);
                }
                acc & 1
            } else {
                (i as u64) & 1
            }
        });
        for (i, v) in out.iter().enumerate().skip(8) {
            assert_eq!(*v, (i as u64) & 1);
        }
    }
}
