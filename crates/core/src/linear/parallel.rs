//! Chunked fork/join helper for the thread-parallel linear layers.
//!
//! Both [`super::HomConv2d`] and [`super::HomFc`] are rotate-mul-accumulate
//! loops whose iterations (one per giant group) are independent until the
//! final accumulation. [`map_chunks`] splits the group range into contiguous
//! chunks, runs one worker per chunk via `std::thread::scope`, and returns
//! the per-chunk results **in chunk order**, so the caller's merge is
//! deterministic: residue arithmetic mod `q` is exact and order-independent,
//! and the (float) noise-estimate fold always happens in the same order for
//! a given thread count.
//!
//! Each worker runs out of a [`cheetah_bfv::Scratch`] of its own
//! ([`WorkerScratch`]), so the steady-state loop bodies run with zero heap
//! allocation and zero lock contention.

use cheetah_bfv::{Ciphertext, Evaluator, Result, Scratch, ScratchPool};
use std::ops::Range;
use std::sync::{Arc, Mutex, PoisonError};

/// The scratch the chunk workers of one layer evaluation run out of: the
/// first worker to ask borrows the caller's own `Scratch` — so a
/// single-threaded evaluation keeps one warm workspace, not two — and any
/// others lease the child pools it keeps for them
/// ([`Scratch::workers`]).
pub(crate) struct WorkerScratch<'a> {
    own: Mutex<Option<&'a mut Scratch>>,
    children: Arc<ScratchPool>,
}

impl<'a> WorkerScratch<'a> {
    pub(crate) fn new(scratch: &'a mut Scratch) -> Self {
        let children = Arc::clone(scratch.workers());
        Self {
            own: Mutex::new(Some(scratch)),
            children,
        }
    }

    /// Runs `work` with a scratch no other worker holds.
    pub(crate) fn with<T>(&self, work: impl FnOnce(&mut Scratch) -> T) -> T {
        // The slot holds a plain reference: a worker that panicked while
        // it was locked left it whole.
        let slot = || self.own.lock().unwrap_or_else(PoisonError::into_inner);
        let own = slot().take();
        match own {
            Some(scratch) => {
                let out = work(scratch);
                *slot() = Some(scratch);
                out
            }
            None => work(&mut self.children.lease()),
        }
    }
}

/// Number of worker threads the linear layers use by default: the
/// machine's available parallelism (1 on a single-core host, which makes
/// the default path identical to the serial one).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Splits `0..count` into up to `threads` contiguous chunks, runs `work`
/// on each chunk (in parallel when `threads > 1`), and returns the chunk
/// results in chunk order.
///
/// # Errors
///
/// Propagates the first failing chunk's error (in chunk order).
///
/// # Panics
///
/// Panics if a worker thread panics.
pub fn map_chunks<T, F>(count: usize, threads: usize, work: F) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(Range<usize>) -> Result<T> + Sync,
{
    if count == 0 {
        return Ok(Vec::new());
    }
    let threads = threads.clamp(1, count);
    let chunk = count.div_ceil(threads);
    let ranges: Vec<Range<usize>> = (0..count)
        .step_by(chunk)
        .map(|start| start..(start + chunk).min(count))
        .collect();
    if threads == 1 {
        return ranges.into_iter().map(work).collect();
    }
    std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = ranges
            .into_iter()
            .map(|range| scope.spawn(move || work(range)))
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("worker thread panicked"))
            .collect()
    })
}

/// Folds per-chunk partial accumulators into one ciphertext, in chunk
/// order (deterministic for a fixed thread count).
///
/// # Errors
///
/// Propagates evaluator errors.
///
/// # Panics
///
/// Panics on an empty partial list (chunking never produces one for a
/// non-empty step range).
pub fn merge_partials(partials: Vec<Ciphertext>, eval: &Evaluator) -> Result<Ciphertext> {
    let mut iter = partials.into_iter();
    let mut acc = iter.next().expect("at least one partial accumulator");
    for p in iter {
        eval.add_assign(&mut acc, &p)?;
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_results_arrive_in_order() {
        for threads in [1, 2, 3, 8] {
            let out = map_chunks(10, threads, |r| Ok(r.collect::<Vec<_>>())).unwrap();
            let flat: Vec<usize> = out.into_iter().flatten().collect();
            assert_eq!(flat, (0..10).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn empty_range_yields_nothing() {
        let out: Vec<Vec<usize>> = map_chunks(0, 4, |r| Ok(r.collect())).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn errors_propagate() {
        let r = map_chunks(8, 4, |range| {
            if range.contains(&5) {
                Err(cheetah_bfv::Error::ParameterMismatch)
            } else {
                Ok(())
            }
        });
        assert!(r.is_err());
    }
}
