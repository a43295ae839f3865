//! A minimal data-parallel runtime built on std scoped threads.
//!
//! The workspace builds with no external dependencies, so this module
//! provides the small subset of rayon we need: a chunked parallel-for over
//! an index range with dynamic (atomic counter) load balancing, and a
//! parallel map-reduce. Work items are claimed in fixed-size chunks to
//! amortise the atomic traffic.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    static THREAD_CAP: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Number of worker threads to use: the number of logical CPUs, capped so
/// that small test machines do not oversubscribe, and further capped by
/// any enclosing [`with_thread_cap`] scope.
pub fn default_threads() -> usize {
    let base = machine_threads();
    THREAD_CAP
        .with(|c| c.get())
        .map_or(base, |cap| base.min(cap))
}

/// The machine's worker-thread count: logical CPUs capped at 64, and
/// *not* capped by any enclosing [`with_thread_cap`] scope. For values
/// that outlive the call that computes them (e.g. a plan's thread
/// setting), where the caller's momentary cap must not stick.
pub fn machine_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(64)
}

/// Run `f` with [`default_threads`] capped at `cap` on this thread.
///
/// Callers that already parallelize at a coarser grain (e.g. a service
/// executing several requests concurrently) use this to stop the inner
/// parallel loops from multiplying the worker count into
/// oversubscription. The cap is thread-local and restored on exit (also
/// on panic); it does not propagate into threads spawned inside `f`.
pub fn with_thread_cap<R>(cap: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_CAP.with(|c| c.set(self.0));
        }
    }
    let prev = THREAD_CAP.with(|c| c.replace(Some(cap.max(1))));
    let _restore = Restore(prev);
    f()
}

/// Run `body(i)` for every `i in 0..n`, in parallel, with dynamic chunked
/// scheduling. `body` must be `Sync` since multiple workers call it.
pub fn parallel_for<F>(n: usize, chunk: usize, body: F)
where
    F: Fn(usize) + Sync,
{
    parallel_for_threads(n, chunk, default_threads(), body)
}

/// [`parallel_for`] with an explicit worker count (1 = sequential).
pub fn parallel_for_threads<F>(n: usize, chunk: usize, threads: usize, body: F)
where
    F: Fn(usize) + Sync,
{
    if n == 0 {
        return;
    }
    let chunk = chunk.max(1);
    let threads = threads.max(1).min(n.div_ceil(chunk));
    if threads == 1 {
        for i in 0..n {
            body(i);
        }
        return;
    }
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let start = next.fetch_add(chunk, Ordering::Relaxed);
                if start >= n {
                    break;
                }
                let end = (start + chunk).min(n);
                for i in start..end {
                    body(i);
                }
            });
        }
    });
}

/// Parallel map-reduce over `0..n`: each worker folds chunks locally with
/// `fold`, and the per-worker accumulators are combined with `combine`.
pub fn parallel_map_reduce<T, FInit, FFold, FCombine>(
    n: usize,
    chunk: usize,
    init: FInit,
    fold: FFold,
    combine: FCombine,
) -> T
where
    T: Send,
    FInit: Fn() -> T + Sync,
    FFold: Fn(T, usize) -> T + Sync,
    FCombine: Fn(T, T) -> T + Sync,
{
    let threads = default_threads().max(1);
    if n == 0 {
        return init();
    }
    let chunk = chunk.max(1);
    let threads = threads.min(n.div_ceil(chunk));
    if threads == 1 {
        let mut acc = init();
        for i in 0..n {
            acc = fold(acc, i);
        }
        return acc;
    }
    let next = AtomicUsize::new(0);
    let partials = spawn_and_collect(threads, |_| {
        let mut acc = init();
        loop {
            let start = next.fetch_add(chunk, Ordering::Relaxed);
            if start >= n {
                break;
            }
            let end = (start + chunk).min(n);
            for i in start..end {
                acc = fold(acc, i);
            }
        }
        acc
    });
    let mut iter = partials.into_iter();
    let first = iter.next().expect("at least one worker");
    iter.fold(first, &combine)
}

/// Spawn `threads` scoped workers running `f(worker_idx)` and collect their
/// results in worker order.
fn spawn_and_collect<T: Send, F: Fn(usize) -> T + Sync>(threads: usize, f: F) -> Vec<T> {
    let mut out: Vec<Option<T>> = (0..threads).map(|_| None).collect();
    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(threads);
        for w in 0..threads {
            let f = &f;
            handles.push(s.spawn(move || f(w)));
        }
        for (w, h) in handles.into_iter().enumerate() {
            out[w] = Some(h.join().expect("worker panicked"));
        }
    });
    out.into_iter()
        .map(|o| o.expect("worker result missing"))
        .collect()
}

/// Split a mutable slice into exact `chunk_len`-sized sub-slices (last one
/// possibly shorter) and run `body(chunk_idx, sub_slice)` on each in
/// parallel. Unlike [`parallel_fill`], chunk boundaries are exact, so
/// callers can rely on alignment (e.g. whole matrix columns).
pub fn parallel_chunks_mut<T: Send, F>(data: &mut [T], chunk_len: usize, body: F)
where
    F: Fn(usize, &mut [T]) + Sync,
{
    if data.is_empty() {
        return;
    }
    let chunk_len = chunk_len.max(1);
    let chunks: Vec<(usize, &mut [T])> = data.chunks_mut(chunk_len).enumerate().collect();
    let n = chunks.len();
    let threads = default_threads().min(n);
    if threads <= 1 {
        for (i, c) in chunks {
            body(i, c);
        }
        return;
    }
    let queue = std::sync::Mutex::new(chunks);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let item = queue.lock().expect("queue poisoned").pop();
                match item {
                    Some((i, c)) => body(i, c),
                    None => break,
                }
            });
        }
    });
}

/// Split a mutable slice into `parts` nearly-equal sub-slices and run
/// `body(part_idx, sub_slice)` on each in parallel. Useful for filling
/// large buffers.
pub fn parallel_fill<T: Send, F>(data: &mut [T], parts: usize, body: F)
where
    F: Fn(usize, usize, &mut [T]) + Sync,
{
    let n = data.len();
    if n == 0 {
        return;
    }
    let parts = parts.max(1).min(n);
    let base = n / parts;
    let rem = n % parts;
    std::thread::scope(|s| {
        let mut rest = data;
        let mut offset = 0usize;
        for p in 0..parts {
            let len = base + usize::from(p < rem);
            let (head, tail) = rest.split_at_mut(len);
            let body = &body;
            let off = offset;
            s.spawn(move || body(p, off, head));
            rest = tail;
            offset += len;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn parallel_for_visits_every_index_once() {
        let n = 10_000;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(n, 64, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_for_empty_and_single() {
        parallel_for(0, 16, |_| panic!("must not be called"));
        let count = AtomicUsize::new(0);
        parallel_for(1, 16, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn sequential_fallback_matches() {
        let sum = AtomicU64::new(0);
        parallel_for_threads(100, 10, 1, |i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 4950);
    }

    #[test]
    fn map_reduce_sums_correctly() {
        let total =
            parallel_map_reduce(100_000, 128, || 0u64, |acc, i| acc + i as u64, |a, b| a + b);
        assert_eq!(total, 100_000u64 * 99_999 / 2);
    }

    #[test]
    fn map_reduce_empty_returns_init() {
        let v = parallel_map_reduce(0, 8, || 42u32, |a, _| a + 1, |a, b| a + b);
        assert_eq!(v, 42);
    }

    #[test]
    fn parallel_fill_writes_disjoint_ranges() {
        let mut data = vec![0usize; 1000];
        parallel_fill(&mut data, 7, |_, off, chunk| {
            for (k, slot) in chunk.iter_mut().enumerate() {
                *slot = off + k;
            }
        });
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, i);
        }
    }

    #[test]
    fn parallel_chunks_mut_exact_boundaries() {
        let mut data = vec![0usize; 103];
        parallel_chunks_mut(&mut data, 10, |i, chunk| {
            assert!(chunk.len() == 10 || (i == 10 && chunk.len() == 3));
            for v in chunk.iter_mut() {
                *v = i + 1;
            }
        });
        for (k, &v) in data.iter().enumerate() {
            assert_eq!(v, k / 10 + 1);
        }
    }

    #[test]
    fn parallel_chunks_mut_empty_and_tiny() {
        let mut empty: Vec<u32> = vec![];
        parallel_chunks_mut(&mut empty, 8, |_, _| panic!("must not run"));
        let mut one = vec![7u32];
        parallel_chunks_mut(&mut one, 100, |i, c| {
            assert_eq!(i, 0);
            c[0] = 9;
        });
        assert_eq!(one[0], 9);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn thread_cap_scopes_and_restores() {
        let uncapped = default_threads();
        with_thread_cap(1, || {
            assert_eq!(default_threads(), 1);
            // Nested caps apply innermost-first and restore outward.
            with_thread_cap(2, || assert!(default_threads() <= 2));
            assert_eq!(default_threads(), 1);
        });
        assert_eq!(default_threads(), uncapped);
        // A cap above the machine's parallelism changes nothing.
        with_thread_cap(usize::MAX, || assert_eq!(default_threads(), uncapped));
    }

    #[test]
    fn thread_cap_restored_after_panic() {
        let uncapped = default_threads();
        let result = std::panic::catch_unwind(|| with_thread_cap(1, || panic!("boom")));
        assert!(result.is_err());
        assert_eq!(default_threads(), uncapped);
    }
}
