//! Chunked fork/join helper for the thread-parallel linear kernel.
//!
//! [`super::PreparedKernel`] is a rotate-mul-accumulate loop whose
//! iterations (one per giant group) are independent until the group sums
//! meet. [`map_chunks`] splits the groups into contiguous chunks, runs one
//! worker per chunk via `std::thread::scope`, and returns the per-chunk
//! results **in chunk order**; the kernel combines the group sums after the
//! join, in plan order, so nothing it computes depends on the thread count.
//!
//! Each worker runs out of a [`cheetah_bfv::Scratch`] of its own
//! ([`WorkerScratch`]), so the steady-state loop bodies run with zero heap
//! allocation and zero lock contention.

use cheetah_bfv::{Result, Scratch, ScratchPool};
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

/// Splits `items` into up to `threads` contiguous chunks, runs `work` on
/// each chunk (in parallel when `threads > 1`), and returns the chunk
/// results in chunk order. A worker owns its chunk for the call, so
/// whatever the items lend it — a leased accumulator per group — needs no
/// lock and is back with the caller once this returns, on success and on
/// error alike.
///
/// # Errors
///
/// Propagates the first failing chunk's error (in chunk order).
///
/// # Panics
///
/// Panics if a worker thread panics.
pub fn map_chunks<I, T, F>(items: &mut [I], threads: usize, work: F) -> Result<Vec<T>>
where
    I: Send,
    T: Send,
    F: Fn(&mut [I]) -> Result<T> + Sync,
{
    if items.is_empty() {
        return Ok(Vec::new());
    }
    let threads = threads.clamp(1, items.len());
    let chunks = items.chunks_mut(items.len().div_ceil(threads));
    if threads == 1 {
        return chunks.map(work).collect();
    }
    std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = chunks
            .map(|chunk| scope.spawn(move || work(chunk)))
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("worker thread panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_results_arrive_in_order() {
        for threads in [1, 2, 3, 8] {
            let mut items: Vec<usize> = (0..10).collect();
            let out = map_chunks(&mut items, threads, |chunk| Ok(chunk.to_vec())).unwrap();
            let flat: Vec<usize> = out.into_iter().flatten().collect();
            assert_eq!(flat, (0..10).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn empty_range_yields_nothing() {
        let out: Vec<Vec<usize>> = map_chunks(&mut [0usize; 0], 4, |c| Ok(c.to_vec())).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn errors_propagate() {
        let mut items: Vec<usize> = (0..8).collect();
        let r = map_chunks(&mut items, 4, |chunk| {
            if chunk.contains(&5) {
                Err(cheetah_bfv::Error::ParameterMismatch)
            } else {
                Ok(())
            }
        });
        assert!(r.is_err());
    }
}
