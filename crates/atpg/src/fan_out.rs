//! The one fan-out both ATPG generators use: work on indices spread over
//! scoped threads, results committed in index order on the calling thread.
//!
//! # Determinism contract
//!
//! `work` must be a pure function of its index. The calling thread then
//! commits exactly the results a sequential loop over `0..len` would, in
//! the same order, whatever the thread count: an index is committed iff
//! `skip` rules it out at no point before its turn, and `skip` only changes
//! inside `commit`. Workers read `skip` only as a hint for what not to
//! start; a result whose index an earlier commit ruled out is thrown away.

use std::collections::BTreeMap;
use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

/// Environment variable overriding the automatic thread count; the same
/// variable `evotc_evo::parallel` reads.
const THREADS_ENV: &str = "EVOTC_TEST_THREADS";

/// Cap on the automatically resolved thread count.
const MAX_AUTO_THREADS: usize = 8;

/// Resolves a configured thread count by the rule of
/// `evotc_evo::parallel::resolve_threads` (a unit test pins the two
/// together): `threads > 0` is literal; `0` is [`THREADS_ENV`] when set to
/// a positive integer, otherwise the available parallelism capped at 8.
pub(crate) fn resolve_threads(threads: usize) -> usize {
    if threads > 0 {
        return threads;
    }
    if let Some(n) = std::env::var(THREADS_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        return n;
    }
    thread::available_parallelism()
        .map(|n| n.get().min(MAX_AUTO_THREADS))
        .unwrap_or(1)
}

/// Runs `work(i)` for every index `i` in `0..len` that `skip` does not
/// rule out, on `threads` threads counting the calling one, and hands each
/// result to `commit` on the calling thread in increasing index order.
///
/// Threads claim the next index from a shared cursor, passing over indices
/// `skip` already rules out. Results computed ahead of the commit point
/// wait in a reorder buffer. `skip(i)` must stay true once it is true and
/// may change only inside `commit`; then the calling thread's view of it
/// is exact when index `i` comes up, and a buffered result whose index it
/// rules out is discarded. Returns how many results were discarded: `0`
/// when `threads` is 1, since the calling thread then claims exactly the
/// index it commits next.
///
/// A panic in `work` on any thread, or in `commit`, propagates out of the
/// call once every worker has stopped.
pub(crate) fn ordered<T: Send>(
    threads: usize,
    len: usize,
    skip: impl Fn(usize) -> bool + Sync,
    work: impl Fn(usize) -> T + Sync,
    mut commit: impl FnMut(usize, T),
) -> usize {
    let shared = Shared {
        len,
        cursor: AtomicUsize::new(0),
        buffer: Mutex::new(Buffer {
            results: BTreeMap::new(),
            failed: false,
        }),
        ready: Condvar::new(),
    };
    let (shared, skip, work) = (&shared, &skip, &work);
    thread::scope(|scope| {
        let workers: Vec<_> = (1..threads.min(len))
            .map(|_| {
                scope.spawn(move || {
                    let _failed = FailOnPanic(shared);
                    while let Some(i) = shared.claim(skip) {
                        let result = work(i);
                        shared.lock().results.insert(i, result);
                        shared.ready.notify_one();
                    }
                })
            })
            .collect();
        // Stops the workers' claims however the loop below ends.
        let stop = StopClaims(shared);

        let mut discarded = 0;
        let mut next = 0;
        while next < len {
            if skip(next) {
                next += 1;
                continue;
            }
            let mut buffer = shared.lock();
            while buffer
                .results
                .first_key_value()
                .is_some_and(|(&i, _)| i < next)
            {
                buffer.results.pop_first();
                discarded += 1;
            }
            if let Some(result) = buffer.results.remove(&next) {
                drop(buffer);
                commit(next, result);
                next += 1;
                continue;
            }
            if buffer.failed {
                break;
            }
            drop(buffer);
            match shared.claim(skip) {
                Some(i) if i == next => {
                    commit(i, work(i));
                    next += 1;
                }
                Some(i) => {
                    let result = work(i);
                    shared.lock().results.insert(i, result);
                }
                // Every index is claimed, so a worker is on `next`.
                None => {
                    let mut buffer = shared.lock();
                    while !buffer.failed && !buffer.results.contains_key(&next) {
                        buffer = shared
                            .ready
                            .wait(buffer)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                }
            }
        }
        drop(stop);
        for worker in workers {
            if let Err(payload) = worker.join() {
                panic::resume_unwind(payload);
            }
        }
        discarded + shared.lock().results.len()
    })
}

struct Shared<T> {
    len: usize,
    /// The next index no thread has claimed yet. `Relaxed` throughout: a
    /// claim publishes no data; results travel through `buffer`'s mutex.
    cursor: AtomicUsize,
    buffer: Mutex<Buffer<T>>,
    /// Signalled when a result lands in the buffer or a worker fails.
    ready: Condvar,
}

/// The reorder buffer: results not yet committed, by index.
struct Buffer<T> {
    results: BTreeMap<usize, T>,
    /// A worker panicked; the result it owed never arrives.
    failed: bool,
}

impl<T> Shared<T> {
    /// Locks the buffer, also after a panic elsewhere: every update under
    /// the lock is one map operation or one flag store, so the buffer is
    /// valid at every step, and a failed worker must still be able to
    /// report itself.
    fn lock(&self) -> MutexGuard<'_, Buffer<T>> {
        self.buffer.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Claims the next index `skip` does not rule out, if any is left.
    fn claim(&self, skip: impl Fn(usize) -> bool) -> Option<usize> {
        loop {
            let i = self.cursor.fetch_add(1, Ordering::Relaxed);
            if i >= self.len {
                return None;
            }
            if !skip(i) {
                return Some(i);
            }
        }
    }

    fn stop_claims(&self) {
        self.cursor.store(self.len, Ordering::Relaxed);
    }
}

struct StopClaims<'a, T>(&'a Shared<T>);

impl<T> Drop for StopClaims<'_, T> {
    fn drop(&mut self) {
        self.0.stop_claims();
    }
}

/// Wakes the calling thread if the worker holding it unwinds.
struct FailOnPanic<'a, T>(&'a Shared<T>);

impl<T> Drop for FailOnPanic<'_, T> {
    fn drop(&mut self) {
        if thread::panicking() {
            self.0.stop_claims();
            self.0.lock().failed = true;
            self.0.ready.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn resolves_like_the_engine() {
        assert_eq!(THREADS_ENV, evotc_evo::parallel::THREADS_ENV);
        for threads in 0..=9 {
            assert_eq!(
                resolve_threads(threads),
                evotc_evo::parallel::resolve_threads(threads)
            );
        }
    }

    /// A sieve: index `i` is committed iff no committed index divides it,
    /// the shape of fault dropping.
    fn sieve(threads: usize, len: usize) -> (Vec<usize>, usize) {
        let struck: Vec<AtomicBool> = (0..len).map(|_| AtomicBool::new(false)).collect();
        let mut primes = Vec::new();
        let discarded = ordered(
            threads,
            len,
            |i| i < 2 || struck[i].load(Ordering::Relaxed),
            |i| i * i,
            |i, square| {
                assert_eq!(square, i * i);
                primes.push(i);
                for k in (2 * i..len).step_by(i) {
                    struck[k].store(true, Ordering::Relaxed);
                }
            },
        );
        (primes, discarded)
    }

    #[test]
    fn commits_in_order_at_every_thread_count() {
        let (serial, discarded) = sieve(1, 2000);
        assert_eq!(discarded, 0);
        assert_eq!(serial.len(), 303);
        for threads in 2..=5 {
            assert_eq!(sieve(threads, 2000).0, serial, "threads {threads}");
        }
    }

    #[test]
    fn nothing_skipped_keeps_every_index() {
        for threads in [1, 3] {
            let mut seen = Vec::new();
            let discarded = ordered(threads, 100, |_| false, |i| i, |i, r| seen.push((i, r)));
            assert_eq!(discarded, 0);
            assert_eq!(seen, (0..100).map(|i| (i, i)).collect::<Vec<_>>());
        }
        assert_eq!(ordered(4, 0, |_| false, |i| i, |_, _| unreachable!()), 0);
    }

    #[test]
    fn a_worker_panic_propagates() {
        let caller = thread::current().id();
        let worker_failed = AtomicBool::new(false);
        let outcome = panic::catch_unwind(|| {
            ordered(
                2,
                1000,
                |_| false,
                |i| {
                    if thread::current().id() != caller {
                        worker_failed.store(true, Ordering::SeqCst);
                        panic!("worker failed on {i}");
                    }
                    // The caller's first index waits for the worker to fail
                    // on another, whose result the caller then never gets.
                    while !worker_failed.load(Ordering::SeqCst) {
                        thread::yield_now();
                    }
                },
                |_, ()| {},
            )
        });
        let payload = outcome.expect_err("the worker's panic propagates");
        let message = payload.downcast_ref::<String>().expect("a formatted panic");
        assert!(message.starts_with("worker failed on"), "{message}");
    }
}
