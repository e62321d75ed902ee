//! Deterministic fork/join over a list of independent items.
//!
//! One caller is left: the level-by-level cache warm-up
//! (`SiteService::warm_cores` in `strudel-serve`), which renders each BFS
//! frontier of pages across a worker budget. A where clause is evaluated
//! by one thread. This module lives here, and [`Parallelism`] is exported
//! from this crate, because `perfbench` and the serving crates import the
//! type from `strudel_struql`.
//!
//! * [`Parallelism`] — the worker budget a caller of `warm` passes;
//! * [`map_chunks`] — a scoped fork/join that partitions a list into
//!   contiguous chunks, runs one worker per chunk, and merges the
//!   per-worker output buffers **in partition order**.
//!
//! Because `f` sees its chunk's items in their input order and the merge
//! concatenates chunk outputs in partition order, the merged list is
//! *identical* — not merely equivalent — to `f` applied to the whole
//! input, provided `f` treats each item independently. Errors are
//! deterministic too: the first failing partition (by position, not by
//! completion time) wins.

use std::num::NonZeroUsize;

/// How many worker threads a cache warm-up may use.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Parallelism {
    /// Single-threaded (the default).
    #[default]
    Sequential,
    /// Up to `n` worker threads (`0` and `1` both mean sequential).
    Threads(usize),
    /// One worker per available core
    /// ([`std::thread::available_parallelism`]).
    Auto,
}

impl Parallelism {
    /// The worker count this knob resolves to (always ≥ 1).
    pub fn workers(self) -> usize {
        match self {
            Parallelism::Sequential => 1,
            Parallelism::Threads(n) => n.max(1),
            Parallelism::Auto => std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1),
        }
    }
}

/// Splits `len` items into at most `partitions` contiguous chunk lengths,
/// balanced to within one item. Deterministic: depends only on the
/// arguments.
pub(crate) fn chunk_lens(len: usize, partitions: usize) -> Vec<usize> {
    let parts = partitions.clamp(1, len.max(1));
    let base = len / parts;
    let extra = len % parts;
    (0..parts)
        .map(|i| base + usize::from(i < extra))
        .filter(|&l| l > 0)
        .collect()
}

/// Partitions `items` into at most `partitions` contiguous chunks, applies
/// `f` to each chunk on its own scoped thread, and concatenates the chunk
/// outputs in partition order. With one partition (or one chunk's worth of
/// items) this degenerates to calling `f` inline — no threads, no cost.
///
/// Errors are merged deterministically: the error of the *earliest*
/// partition that failed is returned, regardless of which worker finished
/// first.
pub fn map_chunks<T, U, E, F>(items: Vec<T>, partitions: usize, f: F) -> Result<Vec<U>, E>
where
    T: Send,
    U: Send,
    E: Send,
    F: Fn(Vec<T>) -> Result<Vec<U>, E> + Sync,
{
    let lens = chunk_lens(items.len(), partitions);
    if lens.len() <= 1 {
        return f(items);
    }

    // Carve the list into owned chunks up front so each worker gets a
    // `Vec` it can consume without synchronization.
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(lens.len());
    let mut iter = items.into_iter();
    for len in &lens {
        chunks.push(iter.by_ref().take(*len).collect());
    }

    let results: Vec<Result<Vec<U>, E>> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| scope.spawn(|| f(chunk)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });

    // Merge in partition order; first error (by partition) wins.
    let mut out = Vec::new();
    for r in results {
        out.extend(r?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workers_resolve_sensibly() {
        assert_eq!(Parallelism::Sequential.workers(), 1);
        assert_eq!(Parallelism::Threads(0).workers(), 1);
        assert_eq!(Parallelism::Threads(6).workers(), 6);
        assert!(Parallelism::Auto.workers() >= 1);
    }

    #[test]
    fn chunks_balance_to_within_one() {
        assert_eq!(chunk_lens(10, 3), vec![4, 3, 3]);
        assert_eq!(chunk_lens(3, 8), vec![1, 1, 1]);
        assert_eq!(chunk_lens(0, 4), Vec::<usize>::new());
        assert_eq!(chunk_lens(7, 1), vec![7]);
    }

    #[test]
    fn merge_preserves_sequential_order() {
        let items: Vec<u32> = (0..1000).collect();
        let expand = |chunk: Vec<u32>| -> Result<Vec<u32>, ()> {
            Ok(chunk.iter().flat_map(|&x| [x * 2, x * 2 + 1]).collect())
        };
        let seq = expand(items.clone()).unwrap();
        for workers in [2, 3, 7, 16] {
            assert_eq!(map_chunks(items.clone(), workers, expand).unwrap(), seq);
        }
    }

    #[test]
    fn first_partition_error_wins() {
        let items: Vec<u32> = (0..100).collect();
        let f = |chunk: Vec<u32>| -> Result<Vec<u32>, u32> {
            // Every chunk fails, reporting its first element; the merged
            // error must be the earliest partition's, i.e. 0.
            Err(chunk[0])
        };
        assert_eq!(map_chunks(items, 4, f), Err(0));
    }
}
