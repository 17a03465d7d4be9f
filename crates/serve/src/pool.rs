//! The worker pool: batched, scratch-pooled sweeps over concurrent
//! sessions.
//!
//! Scheduling rule (see `docs/SERVE.md`): every live session sits at some
//! linear-layer index; each scheduling round picks the **lowest pending
//! layer** and sweeps every session at that layer in one
//! `std::thread::scope` fan-out. Same-layer work from different clients
//! thus runs back-to-back against the same prepared plaintexts and plans
//! (warm caches, one pass over the model state), and faulted sessions
//! simply leave the live set without touching their neighbors.
//!
//! Backpressure is structural: a sweep admits at most `workers` threads,
//! each holding one leased [`cheetah_bfv::Scratch`] from the server-level
//! [`ScratchPool`] — memory is bounded by the worker count, not the
//! client count, and scratch buffers stay warm across sessions and
//! sweeps.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use cheetah_bfv::{Result, ScratchPool};
use cheetah_nn::Tensor;

use crate::model::PreparedModel;
use crate::session::{LayerReport, SessionDriver};
use crate::transcript::Transcript;

/// Terminal state of one served session.
pub struct SessionOutcome {
    /// The driver's client id.
    pub client_id: u64,
    /// The prediction, or the typed error that killed the session.
    pub result: Result<Tensor>,
    /// The session's full transcript (setup, uploads, downloads, GC).
    pub transcript: Transcript,
    /// Per-layer plan/noise/fault reports.
    pub reports: Vec<LayerReport>,
}

/// A pool of workers serving concurrent sessions against one shared
/// [`PreparedModel`].
pub struct ServerPool {
    model: Arc<PreparedModel>,
    workers: usize,
    scratch: Arc<ScratchPool>,
}

impl ServerPool {
    /// Creates a pool of `workers` sweep threads (min 1) with a
    /// server-level scratch pool shaped for the model's parameters.
    pub fn new(model: Arc<PreparedModel>, workers: usize) -> Self {
        let scratch = Arc::new(ScratchPool::for_params(model.params()));
        Self {
            model,
            workers: workers.max(1),
            scratch,
        }
    }

    /// The shared model this pool serves.
    pub fn model(&self) -> &Arc<PreparedModel> {
        &self.model
    }

    /// Idle scratch instances currently pooled (diagnostic — shows warm
    /// reuse across sweeps).
    pub fn scratch_idle(&self) -> usize {
        self.scratch.idle()
    }

    /// Runs a set of sessions to completion and returns their outcomes
    /// in input order. Each scheduling round coalesces every live session
    /// at the lowest pending layer into one parallel sweep.
    pub fn run(&self, mut drivers: Vec<SessionDriver>) -> Vec<SessionOutcome> {
        while let Some(layer) = drivers
            .iter()
            .filter(|d| !d.is_done())
            .map(SessionDriver::layer)
            .min()
        {
            let batch: Vec<&mut SessionDriver> = drivers
                .iter_mut()
                .filter(|d| !d.is_done() && d.layer() == layer)
                .collect();
            self.sweep(batch, layer);
        }
        drivers
            .into_iter()
            .map(SessionDriver::into_outcome)
            .collect()
    }

    /// One parallel sweep: `workers` threads pull same-layer sessions
    /// from a shared queue, each stepping its session one full round with
    /// a leased scratch.
    fn sweep(&self, batch: Vec<&mut SessionDriver>, layer: usize) {
        let jobs: Vec<Mutex<&mut SessionDriver>> = batch.into_iter().map(Mutex::new).collect();
        let next = AtomicUsize::new(0);
        let workers = self.workers.min(jobs.len()).max(1);
        // Every handle is joined here, so a worker's panic comes back as
        // a value instead of re-raising when the scope closes.
        let panicked = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        let mut scratch = self.scratch.lease();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= jobs.len() {
                                break;
                            }
                            // Each index is claimed exactly once, so the
                            // lock is always free; a poisoned slot (worker
                            // died mid-step) is left for the stall guard
                            // below.
                            if let Ok(mut driver) = jobs[i].lock() {
                                driver.step(&mut scratch);
                            }
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .filter_map(|handle| handle.join().err())
                .count()
                > 0
        });

        // A worker panic (a bug below the typed-error boundary) must not
        // hang the scheduler: any session still sitting at this sweep's
        // layer made no progress — fail it rather than spin on it.
        if panicked {
            for job in &jobs {
                let mut driver = match job.lock() {
                    Ok(guard) => guard,
                    Err(poisoned) => poisoned.into_inner(),
                };
                if !driver.is_done() && driver.layer() == layer {
                    driver.fail_stalled();
                }
            }
        }
    }
}
