//! The worker pool: batched sweeps over concurrent sessions.
//!
//! Scheduling rule (see `docs/SERVE.md`): every live session sits at some
//! linear-layer index; each scheduling round picks the **lowest pending
//! layer** and sweeps every session at that layer in one
//! `std::thread::scope` fan-out. Same-layer work from different clients
//! thus runs back-to-back against the same prepared plaintexts and plans
//! (warm caches, one pass over the model state), and faulted sessions
//! simply leave the live set without touching their neighbors.
//!
//! Backpressure is structural: a sweep starts at most `workers` threads,
//! each stepping sessions it takes off one shared queue out of one
//! [`Scratch`] it takes from the pool's idle list. The list keeps those
//! scratches warm between sweeps, so memory is bounded by the worker
//! count, not the client count. A worker that panics drops its scratch
//! with its stack: the idle list holds only scratches of workers that
//! returned.

use std::sync::{Arc, Mutex};

use cheetah_bfv::{Result, Scratch};
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
    /// Warm scratches between sweeps, warmest last. A sweep worker makes
    /// a scratch only when this list is empty, that is when every other
    /// one is held by a worker of the same sweep, so with one `run` at a
    /// time it never holds more than `workers`.
    idle: Mutex<Vec<Scratch>>,
}

impl ServerPool {
    /// Creates a pool of `workers` sweep threads (min 1); each worker's
    /// scratch is shaped for the model's parameters when first needed.
    pub fn new(model: Arc<PreparedModel>, workers: usize) -> Self {
        Self {
            model,
            workers: workers.max(1),
            idle: Mutex::new(Vec::new()),
        }
    }

    /// The shared model this pool serves.
    pub fn model(&self) -> &Arc<PreparedModel> {
        &self.model
    }

    /// Idle scratch instances currently pooled (diagnostic — shows warm
    /// reuse across sweeps).
    pub fn scratch_idle(&self) -> usize {
        self.idle.lock().map_or(0, |idle| idle.len())
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
            let at_layer = |d: &&mut SessionDriver| !d.is_done() && d.layer() == layer;
            if self.sweep(drivers.iter_mut().filter(at_layer).collect()) {
                // A worker panic (a bug below the typed-error boundary)
                // must not hang the scheduler: any session still sitting
                // at this sweep's layer made no progress — fail it rather
                // than spin on it.
                drivers
                    .iter_mut()
                    .filter(at_layer)
                    .for_each(SessionDriver::fail_stalled);
            }
        }
        drivers
            .into_iter()
            .map(SessionDriver::into_outcome)
            .collect()
    }

    /// One parallel sweep: each worker takes a warm scratch off the idle
    /// list (or makes one when it is empty), steps same-layer sessions off
    /// one queue until it is empty, and puts its scratch back. Returns
    /// whether a worker panicked.
    fn sweep(&self, batch: Vec<&mut SessionDriver>) -> bool {
        let workers = self.workers.min(batch.len());
        let queue = Mutex::new(batch.into_iter());
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        let mut scratch = self
                            .idle
                            .lock()
                            .ok()
                            .and_then(|mut idle| idle.pop())
                            .unwrap_or_else(|| self.model.evaluator().new_scratch());
                        while let Some(driver) = queue.lock().ok().and_then(|mut q| q.next()) {
                            driver.step(&mut scratch);
                        }
                        // Not reached when a step panics: that scratch
                        // unwinds with the worker and is never reused.
                        if let Ok(mut idle) = self.idle.lock() {
                            idle.push(scratch);
                        }
                    })
                })
                .collect();
            // Every handle is joined here, so a worker's panic comes back
            // as a value instead of re-raising when the scope closes.
            handles
                .into_iter()
                .filter_map(|handle| handle.join().err())
                .count()
                > 0
        })
    }
}
