//! The block runner: sets a workload up, drives whole private inferences
//! through the public `cheetah_serve` halves (single client) or a
//! `ServerPool` (fleets), verifies every prediction against cleartext
//! `infer`, and turns the samples into the end-to-end metrics.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cheetah_bfv::Scratch;
use cheetah_core::Schedule;
use cheetah_nn::{infer, Network, Tensor, Weights};
use cheetah_serve::{
    ClientSession, PreparedModel, ServerPool, ServerSession, SessionDriver, SessionOutcome,
};

use crate::machine::Sentinel;
use crate::procfs::{self, ProcStat};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::Workload;
use crate::Res;

/// Values by metric (or detail) name, in emission order.
pub type Named<T> = Vec<(String, T)>;

/// Cores the library's own thread pools size themselves from.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `(setup_bytes, online_bytes)` of one session's transcript: its setup
/// record (seeded pk + Galois keys at wire size), and the rest (uploads,
/// downloads, GC). A macro because `cheetah-bench` does not depend on
/// `cheetah_protocol`: the transcript type is reached only through
/// `cheetah_serve`'s API and cannot be named in a signature here.
macro_rules! transcript_bytes {
    ($transcript:expr) => {{
        let transcript = $transcript;
        let setup = transcript.messages().first().map_or(0, |m| m.bytes);
        (setup as f64, (transcript.total_bytes() - setup) as f64)
    }};
}

/// How much work one run does. The driver's contract gives a time
/// budget; smoke runs give counts and no time.
#[derive(Debug, Clone, Copy)]
pub struct RunPlan {
    /// Blocks the metric run is cut into, each with a set-up of its own.
    pub blocks: usize,
    /// A set-up generates and prepares the model once and, when that is
    /// cheap, again until this much time has passed or [`MAX_SETUP_REPS`]
    /// is reached.
    pub setup_seconds: f64,
    /// Discarded steps that pay first-touch page faults and fill caches:
    /// this many in a run's first block, at most one in a later block.
    pub warmup_steps: usize,
    /// A block's measure loop runs at least this many steps …
    pub min_steps: usize,
    /// … and the run's blocks share this much time equally.
    pub seconds: f64,
    /// Traced run only: repetitions of each layer's replay, of each unit
    /// cost, and fleets through the pool.
    pub replay_reps: usize,
    pub unit_reps: usize,
    pub pool_runs: usize,
}

/// Cap on one set-up's repetitions, however cheap it is.
const MAX_SETUP_REPS: usize = 5;

impl RunPlan {
    pub fn timed(seconds: f64) -> Self {
        Self {
            blocks: crate::stats::BLOCKS,
            setup_seconds: 0.3,
            warmup_steps: 3,
            min_steps: 1,
            seconds,
            replay_reps: 5,
            unit_reps: 30,
            pool_runs: 3,
        }
    }

    /// One block of `steps` sessions (or fleets) per workload and the
    /// fewest repetitions of everything else.
    pub fn smoke(steps: usize) -> Self {
        Self {
            blocks: 1,
            setup_seconds: 0.0,
            warmup_steps: 0,
            min_steps: steps,
            seconds: 0.0,
            replay_reps: 1,
            unit_reps: 2,
            pool_runs: 1,
        }
    }
}

/// Sessions attempted and sessions that errored or predicted wrongly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

/// One closed-loop step: a single session, or one fleet through the
/// pool. A step with a failed session is tallied, never sampled.
#[derive(Debug, Default)]
pub struct Step {
    /// The sentinel's slowdown, sampled just before the step: what the
    /// metric run divides the step's timings by. 1 where nobody sampled.
    pub slowdown: f64,
    /// First `next_upload` → prediction; for a fleet the
    /// `ServerPool::run` wall (lockstep sweeps: every session of a fleet
    /// finishes with it).
    pub inference_ms: f64,
    /// Process counters over the same interval.
    pub cpu: ProcStat,
    /// Key generation + registration, one entry per session.
    pub client_setup_ms: Vec<f64>,
    /// The transcript's setup record, one entry per verified session.
    pub setup_bytes: Vec<f64>,
    /// Everything else in the transcript, one entry per verified session.
    pub online_bytes: Vec<f64>,
    /// Level each linear layer ran at (from the server's reports).
    pub levels: Vec<usize>,
    pub sessions: usize,
    pub failed: usize,
}

/// A workload set up at a seed.
pub struct Bench {
    pub workload: &'static Workload,
    pub seed: u64,
    pub net: Network,
    /// The weights the cleartext reference uses: the model's, unless a
    /// test swaps them to prove a wrong prediction is counted.
    pub weights: Weights,
    pub model: Arc<PreparedModel>,
    /// Seconds each set-up repetition took (weights + preparation), and
    /// the sentinel's slowdown sampled just before it.
    pub setup_s: Vec<f64>,
    pub setup_slowdown: Vec<f64>,
    /// Milliseconds of `PreparedModel::prepare` alone, per repetition.
    pub prepare_ms: Vec<f64>,
    pub tally: Tally,
}

impl Bench {
    /// Weights generation + `PreparedModel::prepare`, as often as the
    /// plan says; the last model is kept.
    pub fn set_up(
        workload: &'static Workload,
        seed: u64,
        plan: &RunPlan,
        sentinel: &mut Sentinel,
    ) -> Res<Self> {
        let net = workload.network();
        let params = workload.params()?;
        let mut setup_s = Vec::with_capacity(MAX_SETUP_REPS);
        let mut setup_slowdown = Vec::with_capacity(MAX_SETUP_REPS);
        let mut prepare_ms = Vec::with_capacity(MAX_SETUP_REPS);
        let mut built = None;
        let started = Instant::now();
        while setup_s.is_empty()
            || (started.elapsed().as_secs_f64() < plan.setup_seconds
                && setup_s.len() < MAX_SETUP_REPS)
        {
            // Release the previous repetition first, so peak memory is
            // one model's and not two.
            drop(built.take());
            setup_slowdown.push(sentinel.slowdown());
            let start = Instant::now();
            let weights = workload.weights(&net, seed);
            let prepare_start = Instant::now();
            let model =
                PreparedModel::prepare(&net, &weights, params.clone(), Schedule::PartialAligned)?;
            prepare_ms.push(ms(prepare_start.elapsed()));
            setup_s.push(start.elapsed().as_secs_f64());
            built = Some((weights, model));
        }
        let (weights, model) = built.ok_or("set-up ran zero times")?;
        Ok(Self {
            workload,
            seed,
            net,
            weights,
            model,
            setup_s,
            setup_slowdown,
            prepare_ms,
            tally: Tally::default(),
        })
    }

    pub fn new_scratch(&self) -> Scratch {
        self.model.layers().evaluator().new_scratch()
    }

    /// Pool sized as `bench_throughput` sizes its own.
    pub fn new_pool(&self) -> ServerPool {
        ServerPool::new(Arc::clone(&self.model), nproc().min(4))
    }

    fn expected(&self, input: &Tensor) -> Tensor {
        infer(&self.net, &self.weights, input).output
    }

    /// One whole single-client inference through the session halves,
    /// with a span around every public call. A session that errors or
    /// predicts wrongly is a failed step; an `Err` is the harness's own
    /// (the process counters could not be read).
    pub fn solo_step(&mut self, index: usize, scratch: &mut Scratch, tr: &mut Tracer) -> Res<Step> {
        let input = self.workload.input(&self.net, self.seed, index);
        let key_seed = self.workload.client_seed(self.seed, index);
        let expected = self.expected(&input);

        let session = tr.open("session", None);
        let outcome = self.solo_inner(&input, key_seed, scratch, tr);
        tr.close(session);

        self.tally.attempted += 1;
        match outcome? {
            Ok((prediction, step)) if prediction == expected => Ok(step),
            _ => {
                self.tally.failed += 1;
                Ok(Step {
                    sessions: 1,
                    failed: 1,
                    ..Step::default()
                })
            }
        }
    }

    /// The outer result is the harness's, the inner one the session's.
    fn solo_inner(
        &self,
        input: &Tensor,
        key_seed: u64,
        scratch: &mut Scratch,
        tr: &mut Tracer,
    ) -> Res<cheetah_bfv::Result<(Tensor, Step)>> {
        let start = Instant::now();
        let halves = self.open_halves(input, key_seed, tr);
        let client_setup_ms = ms(start.elapsed());
        let (mut client, mut server) = match halves {
            Ok(halves) => halves,
            Err(e) => return Ok(Err(e)),
        };

        let cpu_before = procfs::stat_now()?;
        let start = Instant::now();
        let prediction = rounds(&mut client, &mut server, scratch, tr);
        let inference_ms = ms(start.elapsed());
        let cpu = procfs::stat_now()?.since(&cpu_before);
        let prediction = match prediction {
            Ok(prediction) => prediction,
            Err(e) => return Ok(Err(e)),
        };

        let (setup_bytes, online_bytes) = transcript_bytes!(server.transcript());
        Ok(Ok((
            prediction,
            Step {
                slowdown: 1.0,
                inference_ms,
                cpu,
                client_setup_ms: vec![client_setup_ms],
                setup_bytes: vec![setup_bytes],
                online_bytes: vec![online_bytes],
                levels: server.reports().iter().map(|r| r.level).collect(),
                sessions: 1,
                failed: 0,
            },
        )))
    }

    /// Key generation and key registration: the two session halves.
    fn open_halves(
        &self,
        input: &Tensor,
        key_seed: u64,
        tr: &mut Tracer,
    ) -> cheetah_bfv::Result<(ClientSession, ServerSession)> {
        let span = tr.open("serve.client_new", None);
        let (client, setup) = ClientSession::new(Arc::clone(&self.model), key_seed, input)?;
        tr.close(span);
        let span = tr.open("serve.server_new", None);
        let server = ServerSession::new(Arc::clone(&self.model), setup, key_seed)?;
        tr.close(span);
        Ok((client, server))
    }

    /// Builds the `index`-th fleet's drivers, off the server clock as
    /// `bench_throughput` does. Returns the drivers, their inputs, and
    /// the time each took to build.
    pub fn build_fleet(&self, index: usize) -> Res<(Vec<SessionDriver>, Vec<Tensor>, Vec<f64>)> {
        let fleet = self.workload.fleet;
        let mut drivers = Vec::with_capacity(fleet);
        let mut inputs = Vec::with_capacity(fleet);
        let mut setup_ms = Vec::with_capacity(fleet);
        for slot in 0..fleet {
            let session = index * fleet + slot;
            let input = self.workload.input(&self.net, self.seed, session);
            let key_seed = self.workload.client_seed(self.seed, session);
            let start = Instant::now();
            drivers.push(SessionDriver::new(
                &self.model,
                slot as u64,
                key_seed,
                &input,
            )?);
            setup_ms.push(ms(start.elapsed()));
            inputs.push(input);
        }
        Ok((drivers, inputs, setup_ms))
    }

    /// Runs one fleet to completion and judges every outcome.
    pub fn run_fleet(
        &mut self,
        pool: &ServerPool,
        drivers: Vec<SessionDriver>,
        inputs: &[Tensor],
        client_setup_ms: Vec<f64>,
    ) -> Res<Step> {
        let cpu_before = procfs::stat_now()?;
        let start = Instant::now();
        let outcomes = pool.run(drivers);
        let inference_ms = ms(start.elapsed());
        let cpu = procfs::stat_now()?.since(&cpu_before);

        let mut step = Step {
            slowdown: 1.0,
            inference_ms,
            cpu,
            client_setup_ms,
            sessions: outcomes.len(),
            ..Step::default()
        };
        for (outcome, input) in outcomes.iter().zip(inputs) {
            if self.verified(outcome, input) {
                let (setup_bytes, online_bytes) = transcript_bytes!(&outcome.transcript);
                step.setup_bytes.push(setup_bytes);
                step.online_bytes.push(online_bytes);
            } else {
                step.failed += 1;
            }
        }
        if let Some(first) = outcomes.first() {
            step.levels = first.reports.iter().map(|r| r.level).collect();
        }
        self.tally.attempted += step.sessions as u64;
        self.tally.failed += step.failed as u64;
        Ok(step)
    }

    fn verified(&self, outcome: &SessionOutcome, input: &Tensor) -> bool {
        matches!(&outcome.result, Ok(prediction) if *prediction == self.expected(input))
    }

    /// One closed-loop step of this workload's kind.
    pub fn step(&mut self, index: usize, runner: &mut Runner, tr: &mut Tracer) -> Res<Step> {
        match runner {
            Runner::Solo(scratch) => self.solo_step(index, scratch, tr),
            Runner::Fleet(pool) => {
                let (drivers, inputs, setup_ms) = self.build_fleet(index)?;
                self.run_fleet(pool, drivers, &inputs, setup_ms)
            }
        }
    }

    pub fn new_runner(&self) -> Runner {
        if self.workload.fleet == 1 {
            Runner::Solo(self.new_scratch())
        } else {
            Runner::Fleet(self.new_pool())
        }
    }

    /// Releases this model and sets the workload up again, keeping the
    /// samples and the tally: what a later block of a metric run starts
    /// with. The old model goes first, so peak memory is one model's.
    pub fn prepared_again(self, plan: &RunPlan, sentinel: &mut Sentinel) -> Res<Self> {
        let Self {
            workload,
            seed,
            mut setup_s,
            mut setup_slowdown,
            mut prepare_ms,
            tally,
            net,
            weights,
            model,
        } = self;
        // Fields left in `self` would live until this function returns.
        drop((net, weights, model));
        let mut fresh = Self::set_up(workload, seed, plan, sentinel)?;
        setup_s.append(&mut fresh.setup_s);
        setup_slowdown.append(&mut fresh.setup_slowdown);
        prepare_ms.append(&mut fresh.prepare_ms);
        Ok(Self {
            setup_s,
            setup_slowdown,
            prepare_ms,
            tally,
            ..fresh
        })
    }

    /// One block's warm-up, then its closed loop: steps one after another
    /// (the next is built only after the previous returns) until
    /// `min_steps` are done and `deadline` has passed. Steps are numbered
    /// from `*next_index`, which is left at the first unused number.
    /// Returns the clean steps, in order.
    fn run_block(
        &mut self,
        next_index: &mut usize,
        warmup_steps: usize,
        min_steps: usize,
        deadline: Instant,
        sentinel: &mut Sentinel,
    ) -> Res<Vec<Step>> {
        let mut runner = self.new_runner();
        let mut tr = Tracer::with_capacity(0);
        for _ in 0..warmup_steps {
            self.step(*next_index, &mut runner, &mut tr)?;
            *next_index += 1;
        }
        let mut steps = Vec::new();
        let mut done = 0;
        while done < min_steps || Instant::now() < deadline {
            let slowdown = sentinel.slowdown();
            let step = self.step(*next_index, &mut runner, &mut tr)?;
            *next_index += 1;
            done += 1;
            if step.failed == 0 {
                steps.push(Step { slowdown, ..step });
            }
        }
        Ok(steps)
    }
}

/// The metric run: `plan.blocks` blocks, each an equal share of
/// `plan.seconds` that holds a fresh set-up (the first block takes
/// `first`, set up by the caller), a discarded warm-up and a closed loop
/// of steps. Set-up, key generation and inference samples so come from
/// the whole length of the run, not from one stretch of it. Returns the
/// last block's bench (with every block's set-up samples and the whole
/// tally) and each block's clean steps; a run without a clean step is an
/// error, not an empty result.
pub fn measure(
    first: Bench,
    plan: &RunPlan,
    sentinel: &mut Sentinel,
) -> Res<(Bench, Vec<Vec<Step>>)> {
    let start = Instant::now();
    let mut bench = first;
    let mut blocks = Vec::with_capacity(plan.blocks);
    let mut index = 0;
    for block in 0..plan.blocks {
        let warmup_steps = if block == 0 {
            plan.warmup_steps
        } else {
            // The process is warm; only the new model's memory is not.
            bench = bench.prepared_again(plan, sentinel)?;
            plan.warmup_steps.min(1)
        };
        let share = (block + 1) as f64 / plan.blocks as f64;
        let deadline = start + Duration::from_secs_f64(plan.seconds * share);
        blocks.push(bench.run_block(
            &mut index,
            warmup_steps,
            plan.min_steps,
            deadline,
            sentinel,
        )?);
    }
    if blocks.iter().all(Vec::is_empty) {
        return Err("no step completed without a failed session".into());
    }
    Ok((bench, blocks))
}

/// Upload, HE linear layer, masked download and simulated GC, layer after
/// layer, until the client holds its prediction.
fn rounds(
    client: &mut ClientSession,
    server: &mut ServerSession,
    scratch: &mut Scratch,
    tr: &mut Tracer,
) -> cheetah_bfv::Result<Tensor> {
    loop {
        let k = client.layer();
        let round = tr.open("round", Some(k));
        let span = tr.open("serve.next_upload", Some(k));
        let upload = client.next_upload()?;
        tr.close(span);
        let span = tr.open("serve.process_upload", Some(k));
        let download = server.process_upload(&upload, scratch)?;
        tr.close(span);
        let span = tr.open("serve.absorb_download", Some(k));
        let done = client.absorb_download(&download)?;
        tr.close(span);
        tr.close(round);
        if let Some(prediction) = done {
            return Ok(prediction);
        }
    }
}

/// How a workload's steps are executed.
pub enum Runner {
    /// One scratch, reused across sessions as a pool worker's lease is.
    Solo(Scratch),
    Fleet(ServerPool),
}

/// The end-to-end metrics of one run, by name, plus a detail record (the
/// raw samples and the slowdowns they were divided by) for `--out`.
///
/// Every timing is divided by the sentinel's slowdown sampled just before
/// it, so it reads as on the quiet machine whatever the neighbours did
/// meanwhile; then a block's samples give a median (CPU time and
/// throughput: a total over the block), and the metric is the median over
/// the blocks, which one disturbed stretch moves by at most one of the
/// values it is taken over.
pub fn end_to_end_metrics(
    bench: &Bench,
    blocks: &[Vec<Step>],
) -> Res<(Named<f64>, Named<Vec<f64>>)> {
    let blocks: Vec<&[Step]> = blocks
        .iter()
        .map(Vec::as_slice)
        .filter(|block| !block.is_empty())
        .collect();
    let over_blocks = |of_block: &dyn Fn(&[Step]) -> f64| -> f64 {
        median(
            &blocks
                .iter()
                .map(|block| of_block(block))
                .collect::<Vec<_>>(),
        )
    };
    let sessions_in = |block: &[Step]| block.iter().map(|s| s.sessions).sum::<usize>() as f64;

    let setup_s: Vec<f64> = bench
        .setup_s
        .iter()
        .zip(&bench.setup_slowdown)
        .map(|(s, slowdown)| s / slowdown)
        .collect();
    let client_setup_p50_ms = over_blocks(&|block| {
        let samples: Vec<f64> = block
            .iter()
            .flat_map(|s| s.client_setup_ms.iter().map(|ms| ms / s.slowdown))
            .collect();
        median(&samples)
    });
    let inference_p50_ms = over_blocks(&|block| {
        let samples: Vec<f64> = block.iter().map(|s| s.inference_ms / s.slowdown).collect();
        median(&samples)
    });
    // CPU time comes in 10 ms ticks, so a single step's is coarse.
    let inference_cpu_ms = over_blocks(&|block| {
        let cpu_s: f64 = block.iter().map(|s| s.cpu.cpu_s() / s.slowdown).sum();
        cpu_s * 1e3 / sessions_in(block)
    });
    let sessions_per_s = over_blocks(&|block| {
        let inference_ms: f64 = block.iter().map(|s| s.inference_ms / s.slowdown).sum();
        sessions_in(block) / (inference_ms / 1e3)
    });

    let steps = || blocks.iter().copied().flatten();
    let pooled = |field: fn(&Step) -> &Vec<f64>| -> Vec<f64> {
        steps().flat_map(|s| field(s).iter().copied()).collect()
    };
    let tally = bench.tally;
    let metrics = vec![
        ("setup_s".to_string(), median(&setup_s)),
        ("client_setup_p50_ms".to_string(), client_setup_p50_ms),
        ("inference_p50_ms".to_string(), inference_p50_ms),
        ("inference_cpu_ms".to_string(), inference_cpu_ms),
        ("sessions_per_s".to_string(), sessions_per_s),
        (
            "setup_bytes".to_string(),
            median(&pooled(|s| &s.setup_bytes)),
        ),
        (
            "online_bytes".to_string(),
            median(&pooled(|s| &s.online_bytes)),
        ),
        ("peak_rss_mb".to_string(), procfs::peak_rss_mb()?),
        (
            "verified_share".to_string(),
            (tally.attempted - tally.failed) as f64 / tally.attempted as f64,
        ),
    ];

    let block_of: Vec<f64> = blocks
        .iter()
        .enumerate()
        .flat_map(|(b, block)| std::iter::repeat_n(b as f64, block.len()))
        .collect();
    let detail = vec![
        ("setup_s.raw".to_string(), bench.setup_s.clone()),
        ("setup_s.slowdown".to_string(), bench.setup_slowdown.clone()),
        ("step.block".to_string(), block_of),
        (
            "step.slowdown".to_string(),
            steps().map(|s| s.slowdown).collect(),
        ),
        (
            "step.sessions".to_string(),
            steps().map(|s| s.sessions as f64).collect(),
        ),
        (
            "inference_ms.raw".to_string(),
            steps().map(|s| s.inference_ms).collect(),
        ),
        (
            "cpu_ms.raw".to_string(),
            steps().map(|s| s.cpu.cpu_s() * 1e3).collect(),
        ),
        (
            "client_setup_ms.raw".to_string(),
            pooled(|s| &s.client_setup_ms),
        ),
    ];
    Ok((metrics, detail))
}
