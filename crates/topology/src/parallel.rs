//! Deterministic work sharding across OS threads.
//!
//! Sweeps shard independent grid points and groups, and integral
//! homology ([`crate::Homology::reduced_with_threads`]) shards its
//! independent per-dimension Smith-normal-form jobs. This module is the
//! small slice of a thread pool those call sites need, built on
//! [`std::thread::scope`] (the workspace is offline; no rayon).
//!
//! **Determinism argument.** Parallelism here never reorders work, only
//! distributes it: each job is identified by its index in the input
//! slice, workers pull indices from an atomic counter, and results are
//! merged back *by job index* after the scope joins. The output of
//! [`parallel_map`] is therefore byte-identical to the serial
//! `items.iter().map(f)` loop regardless of thread count or OS
//! scheduling — there are no reductions whose order depends on timing.
//! Callers shard only *independent* units (dimensions, grid points,
//! groups) and keep every merge a by-index concatenation.
//!
//! Thread-count resolution (first match wins):
//!
//! 1. an explicit in-process override set via [`set_threads`] (the
//!    `--threads` CLI flag),
//! 2. the `PS_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! **Memory.** Workers are fresh threads on every call, and glibc gives
//! each thread that allocates a malloc arena of its own; a thread that
//! exits leaves its arena, with the pages its jobs freed still resident,
//! to whichever thread comes next. So thread timing decides which arena
//! a job builds in, and a large job that lands beside an arena still
//! holding an earlier job's freed pages adds them to the process's peak.
//! [`parallel_map`] therefore returns free arena pages to the OS once
//! its workers have exited: a call leaves resident what its results and
//! its caller hold, not what its jobs threw away.

use std::sync::atomic::{AtomicUsize, Ordering};

/// In-process override; `0` means "unset".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Sets (or clears, with `None`) the in-process thread-count override.
/// Takes precedence over `PS_THREADS` and the hardware default.
pub fn set_threads(n: Option<usize>) {
    THREAD_OVERRIDE.store(n.unwrap_or(0), Ordering::Relaxed);
}

/// The thread count the pipeline will use: the [`set_threads`] override
/// if set, else `PS_THREADS` if it parses to a positive integer, else
/// [`std::thread::available_parallelism`] (1 if unavailable).
pub fn configured_threads() -> usize {
    let explicit = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if explicit > 0 {
        return explicit;
    }
    if let Ok(v) = std::env::var("PS_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `f` over every item on up to `threads` OS threads and returns
/// the results in input order.
///
/// Work distribution is dynamic (an atomic index counter, so uneven
/// jobs balance), but the merge is by job index, making the result
/// byte-identical to the serial map. With `threads <= 1`, or fewer than
/// two items, no threads are spawned at all.
///
/// # Panics
///
/// Propagates a panic from any job.
pub fn parallel_map<T, O, F>(items: &[T], threads: usize, f: F) -> Vec<O>
where
    T: Sync,
    O: Send,
    F: Fn(usize, &T) -> O + Sync,
{
    let threads = threads.min(items.len()).max(1);
    if threads == 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    // Workers use the default spawn stack (RUST_MIN_STACK-controlled).
    // An earlier revision forced 8 MiB stacks because the decision-map
    // solver recursed one call frame per protocol-complex vertex; the
    // solver's search is iterative now (explicit heap frames, see
    // `ps-agreement::solver`), so no pipeline job needs more stack than
    // the serial path — and CI runs the suite under a 256 KiB
    // `RUST_MIN_STACK` to keep it that way.
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<O>> = (0..items.len()).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut local: Vec<(usize, O)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        local.push((i, f(i, &items[i])));
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            for (i, out) in h.join().expect("parallel_map worker panicked") {
                slots[i] = Some(out);
            }
        }
    });
    release_free_memory();
    slots
        .into_iter()
        .map(|o| o.expect("every job index assigned exactly once"))
        .collect()
}

/// Returns the free pages of every malloc arena to the OS (see the
/// module's **Memory** note).
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_memory() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::os::raw::c_int;
    }
    // SAFETY: glibc's `malloc_trim` takes no pointer and frees no live
    // allocation; it locks each arena in turn and only advises the
    // kernel that whole pages of free chunks are unused.
    unsafe {
        malloc_trim(0);
    }
}

/// Without glibc there is no `malloc_trim`; nothing is released.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_memory() {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_matches_serial_in_order() {
        let items: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in [1, 2, 3, 8, 1000] {
            let par = parallel_map(&items, threads, |_, &x| x * x + 1);
            assert_eq!(par, serial, "threads = {threads}");
        }
    }

    #[test]
    fn map_passes_indices() {
        let items = vec!["a", "b", "c", "d", "e"];
        let got = parallel_map(&items, 4, |i, s| format!("{i}:{s}"));
        assert_eq!(got, vec!["0:a", "1:b", "2:c", "3:d", "4:e"]);
    }

    #[test]
    fn map_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(&empty, 8, |_, &x| x).is_empty());
        assert_eq!(parallel_map(&[7u32], 8, |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn uneven_jobs_balance() {
        // jobs with wildly different costs still land in input order
        let items: Vec<u64> = (0..32).collect();
        let out = parallel_map(&items, 4, |_, &x| {
            let mut acc = 0u64;
            for i in 0..(x % 7) * 10_000 {
                acc = acc.wrapping_add(i);
            }
            (x, acc).0
        });
        assert_eq!(out, items);
    }

    #[test]
    fn override_beats_env() {
        set_threads(Some(3));
        assert_eq!(configured_threads(), 3);
        set_threads(None);
        assert!(configured_threads() >= 1);
    }
}
