//! The traced run: the per-layer metrics, taken from outside.
//!
//! Four parts, all through public calls:
//!
//! 1. solo sessions through the session halves, alternately with the
//!    span recorder off and on (their difference is the tracing
//!    overhead), with the sentinel every fifth session;
//! 2. fleets through a `ServerPool`;
//! 3. a per-layer **replay** of `ServerSession::process_upload`'s stages
//!    on the cleartext activation entering that layer, encrypted under
//!    the harness's own keys, checked against the cleartext layer output;
//! 4. unit costs of the `bfv` operators on the workload's own chain, from
//!    which each layer's time is predicted out of its `OpCounts` delta.

use std::hint::black_box;
use std::time::{Duration, Instant};

use cheetah_bfv::{
    wire, BfvParams, Ciphertext, Decryptor, Encryptor, GaloisKeys, HoistedDecomposition,
    KeyGenerator, OpCounts, Plaintext,
};
use cheetah_nn::{infer, random_input, Layer, Tensor};

use crate::machine::{Sentinel, SentinelSample};
use crate::run::{ms, Bench, Named, RunPlan, Step};
use crate::stats::{block_medians, median, median_of_block_medians, supported_tail};
use crate::trace::Tracer;
use crate::Res;

/// Linear layers in every benchmark network.
pub const LINEAR_LAYERS: usize = 3;

/// Levels the unit costs are reported at.
pub const REPORTED_LEVELS: usize = 2;

/// Share of the run's time budget spent on the solo sessions.
const SESSION_SHARE: f64 = 0.5;

const SENTINEL_EVERY: usize = 5;
/// A block is disturbed when a sentinel's block median exceeds the run's
/// best block median by this factor.
const DISTURBED_RATIO: f64 = 1.10;

/// Fleet indices of the traced run's pool phase: far from the solo
/// sessions' indices, so no input or key seed repeats.
const POOL_INDEX_BASE: usize = 1 << 20;

pub struct Traced {
    pub metrics: Named<f64>,
    pub tracer: Tracer,
    /// Every replayed layer decrypted to its cleartext output.
    pub replay_correct: bool,
}

/// Median of `reps` timings, in microseconds; `op` times its own core so
/// that resetting operands stays outside the measurement.
fn median_us(reps: usize, mut op: impl FnMut() -> cheetah_bfv::Result<Duration>) -> Res<f64> {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        samples.push(op()?.as_secs_f64() * 1e6);
    }
    Ok(median(&samples))
}

/// `a + sign·b` on the centered ring mod `t` — the mask arithmetic of the
/// simulated garbled circuit.
fn combine_mod_t(a: &Tensor, b: &Tensor, sign: i64, t: i64) -> Tensor {
    let data = a
        .data()
        .iter()
        .zip(b.data())
        .map(|(&x, &y)| {
            let r = (x + sign * y).rem_euclid(t);
            if r > t / 2 {
                r - t
            } else {
                r
            }
        })
        .collect();
    Tensor::from_data(a.shape(), data)
}

/// Unit costs of the `bfv` operators at one level, and how many NTT plane
/// transforms a hoist and a hoisted replay count there.
struct UnitCosts {
    add_us: f64,
    mul_plain_us: f64,
    rotate_us: f64,
    hoist_us: f64,
    rotate_hoisted_us: f64,
    ntt_per_hoist: u64,
    ntt_per_replay: u64,
}

impl UnitCosts {
    /// Σ count × unit time for one layer's `OpCounts` delta. A direct
    /// rotation is a decomposition followed by a replay, and the counters
    /// do not say which rotations shared a hoist — but the NTT count does:
    /// every decomposition (hoisted or inside a direct rotation) pays
    /// `ntt_per_hoist` planes and every rotation `ntt_per_replay`, so
    /// decompositions = (ntt − rotate·ntt_per_replay) ÷ ntt_per_hoist, and
    /// each is priced as a hoist, each rotation as a replay. Unit times
    /// are single-threaded, as `apply` is in a run pinned to one CPU.
    fn predicted_ms(&self, ops: &OpCounts) -> f64 {
        let replay_ntts = ops.rotate * self.ntt_per_replay;
        let decompositions = if self.ntt_per_hoist == 0 {
            0.0
        } else {
            ops.ntt.saturating_sub(replay_ntts) as f64 / self.ntt_per_hoist as f64
        };
        (ops.add as f64 * self.add_us
            + ops.mul as f64 * self.mul_plain_us
            + decompositions * self.hoist_us
            + ops.rotate as f64 * self.rotate_hoisted_us)
            / 1e3
    }
}

/// The harness's own client: keys, encryptor and decryptor for the
/// replays and the unit costs.
struct Harness<'a> {
    bench: &'a Bench,
    params: BfvParams,
    keys: GaloisKeys,
    encryptor: Encryptor,
    decryptor: Decryptor,
    keygen_ms_per_key: f64,
}

impl<'a> Harness<'a> {
    fn new(bench: &'a Bench, reps: usize) -> Res<Self> {
        let params = bench.model.params().clone();
        let steps = bench.model.required_steps();
        if steps.is_empty() {
            return Err("the workload's plans rotate by no step".into());
        }
        let key_seed = bench.workload.client_seed(bench.seed, POOL_INDEX_BASE - 1);
        let mut keygen = KeyGenerator::from_seed(params.clone(), key_seed);
        let mut keys = None;
        let keygen_us = median_us(reps.min(3), || {
            let start = Instant::now();
            keys = Some(keygen.galois_keys_for_steps(steps)?);
            Ok(start.elapsed())
        })?;
        Ok(Self {
            bench,
            keys: keys.ok_or("key generation ran zero times")?,
            encryptor: Encryptor::from_secret_key(keygen.secret_key().clone(), key_seed ^ 0x5eed),
            decryptor: Decryptor::new(keygen.secret_key().clone()),
            keygen_ms_per_key: keygen_us / 1e3 / steps.len() as f64,
            params,
        })
    }

    fn random_plaintext(&self, seed: u64) -> cheetah_bfv::Result<Plaintext> {
        let half_t = (self.params.plain_modulus().value() / 2) as i64;
        let values = random_input(&[self.params.row_size()], half_t, seed);
        self.bench
            .model
            .layers()
            .encoder()
            .encode_signed(values.data())
    }

    /// Replays linear layer `k`'s server stages and the client's side of
    /// the round on the cleartext activation `entering` it; returns the
    /// `OpCounts` delta of `apply` and whether the round reproduced
    /// `leaving`, the cleartext output of the layer.
    fn replay_layer(
        &mut self,
        k: usize,
        entering: &Tensor,
        leaving: &Tensor,
        mask_seed: u64,
        tr: &mut Tracer,
    ) -> cheetah_bfv::Result<(OpCounts, bool)> {
        let bench = self.bench;
        let layers = bench.model.layers();
        let evaluator = layers.evaluator();
        let t = self.params.plain_modulus().value() as i64;
        let mut scratch = evaluator.new_scratch();

        let packed = layers.pack(k, entering)?;
        let (fresh, seed) = self.encryptor.encrypt_seeded(&packed)?;
        let upload = wire::encode_ciphertext_seeded(&fresh, seed)?;
        let mask = random_input(&layers.output_shape(k), t / 2, mask_seed);
        let next_mask = random_input(bench.model.bundle_shape(k), t / 2, mask_seed + 1);

        tr.set_enabled(true);
        let replay = tr.open("replay", Some(k));

        let server = tr.open("replay.server", Some(k));
        let span = tr.open("bfv.wire_decode_seeded", Some(k));
        let mut ct = wire::decode_ciphertext(&upload, &self.params)?;
        tr.close(span);
        let span = tr.open("protocol.plan_level", Some(k));
        let target = layers.plan_level(k, ct.noise());
        tr.close(span);
        let span = tr.open("bfv.mod_switch", Some(k));
        if target > ct.level() {
            evaluator.mod_switch_to_assign(&mut ct, target)?;
        }
        tr.close(span);
        let before = evaluator.op_counts();
        let span = tr.open("core.apply", Some(k));
        let mut outputs = layers.apply(k, &ct, &self.keys)?;
        tr.close(span);
        let ops = evaluator.op_counts().since(&before);
        let span = tr.open("protocol.pack_output_mask", Some(k));
        let mask_pts = layers.pack_output_mask(k, &mask)?;
        for (out, pt) in outputs.iter_mut().zip(&mask_pts) {
            evaluator.add_plain_assign(out, pt, &mut scratch)?;
        }
        tr.close(span);
        let span = tr.open("bfv.wire_encode", Some(k));
        let mut download = Vec::new();
        for out in &outputs {
            download.extend_from_slice(&wire::encode_ciphertext(out));
        }
        tr.close(span);
        tr.close(server);

        let client = tr.open("replay.client", Some(k));
        let span = tr.open("bfv.wire_decode_full", Some(k));
        let decoded = wire::split_ciphertext_messages(&download, &self.params)?
            .into_iter()
            .map(|part| wire::decode_ciphertext(part, &self.params))
            .collect::<cheetah_bfv::Result<Vec<Ciphertext>>>()?;
        tr.close(span);
        let span = tr.open("bfv.decrypt", Some(k));
        let slot_vecs = decoded
            .iter()
            .map(|ct| {
                Ok(layers
                    .encoder()
                    .decode_signed(&self.decryptor.decrypt_checked(ct)?))
            })
            .collect::<cheetah_bfv::Result<Vec<Vec<i64>>>>()?;
        tr.close(span);
        let span = tr.open("protocol.gc", Some(k));
        let unmasked = combine_mod_t(&layers.unpack(k, &slot_vecs), &mask, -1, t);
        let bundle = layers.apply_bundle(k, &unmasked)?;
        black_box(combine_mod_t(&bundle, &next_mask, 1, t));
        tr.close(span);
        tr.close(client);

        tr.close(replay);
        tr.set_enabled(false);
        Ok((ops, unmasked == *leaving))
    }

    /// Unit costs at `level`, each the median of `reps` single-threaded
    /// calls on operands reset outside the timed region.
    fn unit_costs(&mut self, level: usize, reps: usize) -> Res<UnitCosts> {
        let bench = self.bench;
        let evaluator = bench.model.layers().evaluator();
        let step = bench.model.required_steps()[0];
        let mut scratch = evaluator.new_scratch();

        let pt = self.random_plaintext(11)?;
        let mut src = self.encryptor.encrypt(&pt)?;
        evaluator.mod_switch_to_assign(&mut src, level)?;
        let other = src.clone();
        let mut work = src.clone();
        let mut out = Ciphertext::transparent_zero_at(&self.params, level);
        let prepared = evaluator.prepare_plaintext_at(&pt, level)?;
        let mut hoisted = HoistedDecomposition::empty(&self.params);

        let add_us = median_us(reps, || {
            work.copy_from(&src);
            let start = Instant::now();
            evaluator.add_assign(&mut work, &other)?;
            Ok(start.elapsed())
        })?;
        let mul_plain_us = median_us(reps, || {
            work.copy_from(&src);
            let start = Instant::now();
            evaluator.mul_plain_assign(&mut work, &prepared)?;
            Ok(start.elapsed())
        })?;
        let rotate_us = median_us(reps, || {
            let start = Instant::now();
            evaluator.rotate_rows_into(&mut out, &src, step, &self.keys, &mut scratch)?;
            Ok(start.elapsed())
        })?;
        let before = evaluator.op_counts();
        evaluator.hoist_into(&mut hoisted, &src, &mut scratch)?;
        let ntt_per_hoist = evaluator.op_counts().since(&before).ntt;
        let hoist_us = median_us(reps, || {
            let start = Instant::now();
            evaluator.hoist_into(&mut hoisted, &src, &mut scratch)?;
            Ok(start.elapsed())
        })?;
        let before = evaluator.op_counts();
        evaluator.rotate_hoisted_into(&mut out, &src, &hoisted, step, &self.keys, &mut scratch)?;
        let ntt_per_replay = evaluator.op_counts().since(&before).ntt;
        let rotate_hoisted_us = median_us(reps, || {
            let start = Instant::now();
            evaluator.rotate_hoisted_into(
                &mut out,
                &src,
                &hoisted,
                step,
                &self.keys,
                &mut scratch,
            )?;
            Ok(start.elapsed())
        })?;
        Ok(UnitCosts {
            add_us,
            mul_plain_us,
            rotate_us,
            hoist_us,
            rotate_hoisted_us,
            ntt_per_hoist,
            ntt_per_replay,
        })
    }

    /// The level-independent unit costs, as `(metric name, value)`.
    fn boundary_costs(&mut self, reps: usize) -> Res<Named<f64>> {
        let bench = self.bench;
        let evaluator = bench.model.layers().evaluator();
        let pt = self.random_plaintext(12)?;

        let chain = self.params.chain();
        let q = chain.modulus(0).value();
        let mut plane: Vec<u64> = (0..self.params.degree() as u64)
            .map(|i| (i * i) % q)
            .collect();
        let ntt_plane_us = median_us(reps, || {
            let start = Instant::now();
            chain.table(0).forward(&mut plane);
            Ok(start.elapsed())
        })?;

        let fresh = self.encryptor.encrypt(&pt)?;
        let mod_switch_us = median_us(reps, || {
            let mut ct = fresh.clone();
            let start = Instant::now();
            evaluator.mod_switch_to_next_assign(&mut ct)?;
            Ok(start.elapsed())
        })?;

        let mut seeded = None;
        let encrypt_seeded_us = median_us(reps, || {
            let start = Instant::now();
            seeded = Some(self.encryptor.encrypt_seeded(&pt)?);
            Ok(start.elapsed())
        })?;
        let (seeded_ct, seed) = seeded.ok_or("encryption ran zero times")?;
        let decrypt_us = median_us(reps, || {
            let start = Instant::now();
            black_box(self.decryptor.decrypt(&fresh)?);
            Ok(start.elapsed())
        })?;
        let wire_encode_us = median_us(reps, || {
            let start = Instant::now();
            black_box(wire::encode_ciphertext(&fresh));
            Ok(start.elapsed())
        })?;
        let seeded_bytes = wire::encode_ciphertext_seeded(&seeded_ct, seed)?;
        let wire_decode_seeded_us = median_us(reps, || {
            let start = Instant::now();
            black_box(wire::decode_ciphertext(&seeded_bytes, &self.params)?);
            Ok(start.elapsed())
        })?;
        let full_bytes = wire::encode_ciphertext(&fresh);
        let wire_decode_full_us = median_us(reps, || {
            let start = Instant::now();
            black_box(wire::decode_ciphertext(&full_bytes, &self.params)?);
            Ok(start.elapsed())
        })?;

        Ok(vec![
            ("bfv.ntt_plane_us".to_string(), ntt_plane_us),
            ("bfv.mod_switch_us".to_string(), mod_switch_us),
            ("bfv.galois_keys".to_string(), self.keys.len() as f64),
            (
                "bfv.galois_key_bytes".to_string(),
                self.keys.byte_size(&self.params) as f64,
            ),
            ("bfv.keygen_ms_per_key".to_string(), self.keygen_ms_per_key),
            ("bfv.encrypt_seeded_us".to_string(), encrypt_seeded_us),
            ("bfv.decrypt_us".to_string(), decrypt_us),
            ("bfv.wire_encode_us".to_string(), wire_encode_us),
            (
                "bfv.wire_decode_seeded_us".to_string(),
                wire_decode_seeded_us,
            ),
            ("bfv.wire_decode_full_us".to_string(), wire_decode_full_us),
        ])
    }
}

/// Blocks in which either sentinel's median exceeds the run's best block
/// by [`DISTURBED_RATIO`].
fn disturbed_blocks(alu_ms: &[f64], mem_ms: &[f64]) -> usize {
    let slow = |samples: &[f64]| -> Vec<bool> {
        let blocks = block_medians(samples);
        let best = blocks.iter().copied().fold(f64::INFINITY, f64::min);
        blocks.iter().map(|&b| b > DISTURBED_RATIO * best).collect()
    };
    slow(alu_ms)
        .iter()
        .zip(slow(mem_ms))
        .filter(|(a, m)| **a || *m)
        .count()
}

/// What the solo-session part of the traced run sampled.
struct SoloPhase {
    untraced: Vec<Step>,
    traced: Vec<Step>,
    sentinel: Vec<SentinelSample>,
}

/// Part 1: warm-up, then solo sessions with the recorder off and on in
/// turn and both sentinels before every fifth, until the plan's count and
/// its share of the time are both met.
fn solo_phase(
    bench: &mut Bench,
    plan: &RunPlan,
    tracer: &mut Tracer,
    sentinel: &mut Sentinel,
) -> Res<SoloPhase> {
    let mut scratch = bench.new_scratch();
    for index in 0..plan.warmup_steps {
        bench.solo_step(index, &mut scratch, tracer)?;
    }
    let mut phase = SoloPhase {
        untraced: Vec::new(),
        traced: Vec::new(),
        sentinel: Vec::new(),
    };
    let start = Instant::now();
    let mut done = 0;
    while done < 2 * plan.min_steps || start.elapsed().as_secs_f64() < plan.seconds * SESSION_SHARE
    {
        if done.is_multiple_of(SENTINEL_EVERY) {
            phase.sentinel.push(sentinel.sample());
        }
        let tracing = done % 2 == 1;
        tracer.set_enabled(tracing);
        let step = bench.solo_step(plan.warmup_steps + done, &mut scratch, tracer)?;
        tracer.set_enabled(false);
        done += 1;
        if step.failed == 0 {
            if tracing {
                &mut phase.traced
            } else {
                &mut phase.untraced
            }
            .push(step);
        }
    }
    if phase.untraced.is_empty() || phase.traced.is_empty() {
        return Err("no solo session completed without failing".into());
    }
    Ok(phase)
}

/// The `harness.*` metrics of the solo phase (all but `he_over_plain`,
/// which needs the cleartext time), and the untraced inference median
/// later metrics are ratios of.
fn harness_metrics(phase: &SoloPhase) -> (Named<f64>, f64) {
    let inference: Vec<f64> = phase.untraced.iter().map(|s| s.inference_ms).collect();
    let inference_traced: Vec<f64> = phase.traced.iter().map(|s| s.inference_ms).collect();
    let solo_p50 = median_of_block_medians(&inference);
    let blocks = block_medians(&inference);
    let (lo, hi) = blocks.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &b| {
        (lo.min(b), hi.max(b))
    });
    let (tail_pct, tail_ms) = supported_tail(&inference);
    let wall_s: f64 = inference.iter().sum::<f64>() / 1e3;
    let cpu_s: f64 = phase.untraced.iter().map(|s| s.cpu.cpu_s()).sum();
    let sys_s: f64 = phase.untraced.iter().map(|s| s.cpu.sys_s).sum();
    let faults: u64 = phase.untraced.iter().map(|s| s.cpu.minor_faults).sum();
    let part =
        |of: fn(&SentinelSample) -> f64| -> Vec<f64> { phase.sentinel.iter().map(of).collect() };
    let (alu_ms, mem_ms) = (part(|s| s.alu_ms), part(|s| s.mem_ms));
    let metrics = [
        ("harness.sentinel_p50_ms", median(&alu_ms)),
        ("harness.sentinel_mem_p50_ms", median(&mem_ms)),
        (
            "harness.machine_slowdown",
            median(&part(SentinelSample::slowdown)),
        ),
        (
            "harness.disturbed_blocks",
            disturbed_blocks(&alu_ms, &mem_ms) as f64,
        ),
        ("harness.block_spread", hi / lo - 1.0),
        ("harness.inference_tail_ms", tail_ms),
        ("harness.inference_tail_pct", tail_pct),
        ("harness.cpu_per_wall", cpu_s / wall_s),
        (
            "harness.sys_share",
            if cpu_s > 0.0 { sys_s / cpu_s } else { 0.0 },
        ),
        (
            "harness.minor_faults_per_inference",
            faults as f64 / phase.untraced.len() as f64,
        ),
        (
            "harness.trace_overhead_share",
            median_of_block_medians(&inference_traced) / solo_p50 - 1.0,
        ),
    ];
    (
        metrics
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        solo_p50,
    )
}

/// Runs the traced run and returns every per-layer metric by name.
pub fn per_layer_metrics(
    bench: &mut Bench,
    plan: &RunPlan,
    sentinel: &mut Sentinel,
) -> Res<Traced> {
    if bench.model.linear_count() != LINEAR_LAYERS {
        return Err("benchmark networks have three linear layers".into());
    }
    let mut tracer = Tracer::with_capacity(1 << 13);

    // 1. Solo sessions, untraced and traced in turn.
    let phase = solo_phase(bench, plan, &mut tracer, sentinel)?;
    let (mut metrics, solo_p50) = harness_metrics(&phase);
    let levels = phase.traced[0].levels.clone();
    let mut put = |name: String, value: f64| metrics.push((name, value));

    put("serve.prepare_ms".into(), median(&bench.prepare_ms));
    for (metric, span) in [
        ("serve.client_new_ms", "serve.client_new"),
        ("serve.server_new_ms", "serve.server_new"),
    ] {
        put(metric.into(), median(&tracer.durations_ms(span, None)));
    }
    for k in 0..LINEAR_LAYERS {
        for (metric, span) in [
            ("serve.next_upload_ms", "serve.next_upload"),
            ("serve.process_upload_ms", "serve.process_upload"),
            ("serve.absorb_download_ms", "serve.absorb_download"),
        ] {
            put(
                format!("{metric}.L{k}"),
                median(&tracer.durations_ms(span, Some(k))),
            );
        }
    }

    // 2. Fleets through the pool.
    let pool = bench.new_pool();
    let mut pool_ms = Vec::with_capacity(plan.pool_runs);
    for run in 0..plan.pool_runs.max(1) {
        let (drivers, inputs, setup_ms) = bench.build_fleet(POOL_INDEX_BASE + run)?;
        let step = bench.run_fleet(&pool, drivers, &inputs, setup_ms)?;
        if step.failed == 0 {
            pool_ms.push(step.inference_ms);
        }
    }
    if pool_ms.is_empty() {
        return Err("every fleet of the pool phase had a failed session".into());
    }
    let pool_p50 = median(&pool_ms);
    put("serve.pool_run_ms".into(), pool_p50);
    put(
        "serve.pool_speedup".into(),
        bench.workload.fleet as f64 * solo_p50 / pool_p50,
    );
    put("serve.scratch_idle".into(), pool.scratch_idle() as f64);

    // 3. Per-layer replay on cleartext activations.
    let input = bench
        .workload
        .input(&bench.net, bench.seed, POOL_INDEX_BASE - 1);
    let clear_start = Instant::now();
    let clear = infer(&bench.net, &bench.weights, &input);
    let mut infer_ms = vec![ms(clear_start.elapsed())];
    for _ in 1..plan.unit_reps {
        let start = Instant::now();
        black_box(infer(&bench.net, &bench.weights, &input));
        infer_ms.push(ms(start.elapsed()));
    }
    let nn_infer_ms = median(&infer_ms);
    put("nn.infer_ms".into(), nn_infer_ms);
    put("harness.he_over_plain".into(), solo_p50 / nn_infer_ms);

    let linear_at: Vec<usize> = bench
        .net
        .layers
        .iter()
        .enumerate()
        .filter(|(_, layer)| matches!(layer, Layer::Linear(_)))
        .map(|(position, _)| position)
        .collect();
    let mut harness = Harness::new(bench, plan.replay_reps)?;
    let mut replay_correct = true;
    let mut layer_ops = Vec::with_capacity(LINEAR_LAYERS);
    for (k, &position) in linear_at.iter().enumerate() {
        let entering = match position {
            0 => &input,
            p => &clear.activations[p - 1],
        };
        let leaving = &clear.activations[position];
        let mut ops = OpCounts::default();
        for rep in 0..plan.replay_reps.max(1) {
            let mask_seed = bench.seed ^ (((k * 64 + rep) as u64) << 8);
            let (rep_ops, ok) =
                harness.replay_layer(k, entering, leaving, mask_seed, &mut tracer)?;
            ops = rep_ops;
            replay_correct &= ok;
        }
        layer_ops.push(ops);
    }

    // 4. Unit costs at every level a layer ran at (and the reported ones).
    let top_level = levels
        .iter()
        .copied()
        .max()
        .unwrap_or(0)
        .max(REPORTED_LEVELS - 1);
    let mut units = Vec::with_capacity(top_level + 1);
    for level in 0..=top_level {
        units.push(harness.unit_costs(level, plan.unit_reps)?);
    }
    let boundary = harness.boundary_costs(plan.unit_reps)?;

    let layers = bench.model.layers();
    for k in 0..LINEAR_LAYERS {
        let stage = |name: &str| median(&tracer.durations_ms(name, Some(k)));
        let apply_ms = stage("core.apply");
        let pack_mask_ms = stage("protocol.pack_output_mask");
        let replayed_ms = stage("bfv.wire_decode_seeded")
            + stage("protocol.plan_level")
            + stage("bfv.mod_switch")
            + apply_ms
            + pack_mask_ms
            + stage("bfv.wire_encode");
        let ops = &layer_ops[k];
        let predicted_ms = units[levels[k]].predicted_ms(ops);
        put(
            format!("serve.process_upload_self_ms.L{k}"),
            stage("serve.process_upload") - replayed_ms,
        );
        put(format!("protocol.level.L{k}"), levels[k] as f64);
        put(
            format!("protocol.output_cts.L{k}"),
            layers.output_ciphertexts(k) as f64,
        );
        put(format!("protocol.pack_output_mask_ms.L{k}"), pack_mask_ms);
        put(format!("protocol.gc_ms.L{k}"), stage("protocol.gc"));
        put(format!("core.apply_ms.L{k}"), apply_ms);
        put(format!("core.rotate.L{k}"), ops.rotate as f64);
        put(format!("core.mul.L{k}"), ops.mul as f64);
        put(format!("core.add.L{k}"), ops.add as f64);
        put(format!("core.ntt.L{k}"), ops.ntt as f64);
        put(format!("core.poly_mul.L{k}"), ops.poly_mul as f64);
        put(format!("core.predicted_ms.L{k}"), predicted_ms);
        put(
            format!("core.residual_share.L{k}"),
            (apply_ms - predicted_ms) / apply_ms,
        );
    }
    for (level, unit) in units.iter().enumerate().take(REPORTED_LEVELS) {
        put(format!("bfv.add_us.lvl{level}"), unit.add_us);
        put(format!("bfv.mul_plain_us.lvl{level}"), unit.mul_plain_us);
        put(format!("bfv.rotate_us.lvl{level}"), unit.rotate_us);
        put(format!("bfv.hoist_us.lvl{level}"), unit.hoist_us);
        put(
            format!("bfv.rotate_hoisted_us.lvl{level}"),
            unit.rotate_hoisted_us,
        );
    }
    metrics.extend(boundary);

    Ok(Traced {
        metrics,
        tracer,
        replay_correct,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_ring_round_trips_and_stays_centered() {
        let a = Tensor::from_data(&[4], vec![3, -50, 47, 0]);
        let r = Tensor::from_data(&[4], vec![50, 50, -50, 1]);
        let masked = combine_mod_t(&a, &r, 1, 101);
        assert!(masked.data().iter().all(|v| v.abs() <= 50));
        assert_eq!(combine_mod_t(&masked, &r, -1, 101), a);
    }

    #[test]
    fn prediction_prices_decompositions_from_the_ntt_count() {
        let unit = UnitCosts {
            add_us: 1.0,
            mul_plain_us: 10.0,
            rotate_us: 0.0,
            hoist_us: 100.0,
            rotate_hoisted_us: 20.0,
            ntt_per_hoist: 6,
            ntt_per_replay: 2,
        };
        // 1 hoist + 4 replays + 2 direct rotations: 6 rotations,
        // 3 decompositions -> ntt = 3*6 + 6*2 = 30.
        let ops = OpCounts {
            add: 5,
            mul: 7,
            rotate: 6,
            ntt: 30,
            poly_mul: 0,
            mod_switch: 0,
        };
        let expected_us = 5.0 + 70.0 + 3.0 * 100.0 + 6.0 * 20.0;
        assert!((unit.predicted_ms(&ops) - expected_us / 1e3).abs() < 1e-12);
    }

    #[test]
    fn a_block_is_disturbed_when_either_sentinel_slows_by_a_tenth() {
        // Ten samples -> five blocks of two.
        let quiet = vec![10.0; 10];
        let mut alu = quiet.clone();
        alu[2] = 12.0;
        alu[3] = 12.0;
        let mut mem = quiet.clone();
        mem[8] = 11.5;
        mem[9] = 11.5;
        assert_eq!(disturbed_blocks(&quiet, &quiet), 0);
        assert_eq!(disturbed_blocks(&alu, &quiet), 1);
        assert_eq!(disturbed_blocks(&alu, &mem), 2);
        // 9 % slower is within the noise the ratio allows.
        assert_eq!(disturbed_blocks(&[10.0, 10.9], &[10.0, 10.0]), 0);
    }
}
