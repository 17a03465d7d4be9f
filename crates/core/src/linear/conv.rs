//! Homomorphic 2-D convolution with packed channels — Fig. 4 of the paper,
//! on the real BFV engine, under either schedule.
//!
//! Packing: the `c_i` input channels are laid out sequentially in row
//! slots, channel `c` occupying slots `[c·w², (c+1)·w²)` in row-major
//! spatial order. For each filter tap `(dy, dx)` a single rotation by
//! `dy·w + dx` aligns every contributing pixel with its output slot; zeros
//! in the weight plaintexts mask the positions where the rotation wrapped
//! across an image or channel boundary (the "selectively adding zeros"
//! of §V-B). A final rotate-and-add pass reduces across input channels.
//!
//! The implementation computes one output-channel ciphertext at a time
//! (output image in slots `[0, w²)` of each). This keeps the slot
//! bookkeeping auditable; the *cost* of the fully packed layout is what the
//! analytical Table IV model captures, and the two are reconciled (within a
//! small factor) by tests.
//!
//! Constraints: stride 1, odd filter with 'same' padding, and
//! `c_i·w² ≤ n/2` (all input channels in one ciphertext row).

use cheetah_bfv::{
    BatchEncoder, Ciphertext, Error, Evaluator, GaloisKeys, HoistedDecomposition, Plaintext,
    PreparedPlaintext, Result, Scratch,
};
use cheetah_nn::{ConvSpec, Tensor};

use crate::cost::HeCostParams;
use crate::linear::parallel::{map_chunks, merge_partial_vecs};
use crate::linear::{rotate_sum_noise, rotate_sum_reduce, ReducePlan};
use crate::schedule::Schedule;
use crate::sparse::ConvStructure;

/// How one output channel's cross-channel reduction runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChannelReduce {
    /// Classic rotate-and-sum over all `ci` blocks under the layer's
    /// shared [`ReducePlan`].
    Dense,
    /// Flat hoisted sum over the listed *live* channel blocks only (dead
    /// blocks are zero polynomials — the masks never wrote them). Chosen
    /// when the live set is small enough that one hoist plus a replay per
    /// live block beats the dense plan.
    SparseLive(Vec<usize>),
    /// No live channels: the output is a transparent zero and the whole
    /// tap/reduce pipeline is skipped.
    Zero,
}

/// A prepared homomorphic convolution layer.
#[derive(Debug)]
pub struct HomConv2d {
    spec: ConvSpec,
    schedule: Schedule,
    /// `masks[o][tap]`: prepared weight plaintexts per output channel/tap.
    masks: Vec<Vec<PreparedPlaintext>>,
    /// Per-tap rotation offsets `dy·w + dx`.
    offsets: Vec<i64>,
    /// How the cross-channel rotate-and-sum reduction runs, chosen from
    /// the parameter set's hoisted/direct rotation pricing: the doubling
    /// ladder is a dependent chain (one full rotation per level), the
    /// BSGS reshape turns it into two hoistable replay sets.
    reduce_plan: ReducePlan,
    /// Weight structure: which `(o, tap)` masks and `(o, c)` channels
    /// carry any weight. Dead taps are never rotated, dead masks never
    /// multiplied, dead channel blocks never summed.
    structure: ConvStructure,
    /// Per-output-channel reduction choice (indexed by `o`).
    reduces: Vec<ChannelReduce>,
}

impl HomConv2d {
    /// Prepares the layer: validates the spec, builds and NTT-transforms
    /// every weight mask.
    ///
    /// `weights` has shape `(co, ci, fw, fw)`.
    ///
    /// # Errors
    ///
    /// [`Error::Unsupported`] unless the spec has stride 1, an odd filter
    /// width and padding `f_w/2` and the weights are `(co, ci, fw, fw)`;
    /// [`Error::TooManyValues`] when `c_i·w²` exceeds the row capacity;
    /// propagates encoding errors.
    pub fn new(
        spec: &ConvSpec,
        weights: &Tensor,
        encoder: &BatchEncoder,
        eval: &Evaluator,
        schedule: Schedule,
    ) -> Result<Self> {
        Self::new_at_level(spec, weights, encoder, eval, schedule, 0)
    }

    /// [`HomConv2d::new`] with the level the layer is planned to run at:
    /// the reduce plan is priced over the limbs live there, so a deep
    /// chain position can pick a different rotate-and-sum shape than
    /// level 0.
    ///
    /// # Errors
    ///
    /// As [`HomConv2d::new`].
    pub fn new_at_level(
        spec: &ConvSpec,
        weights: &Tensor,
        encoder: &BatchEncoder,
        eval: &Evaluator,
        schedule: Schedule,
        level: usize,
    ) -> Result<Self> {
        if spec.stride != 1 {
            return Err(Error::Unsupported("HomConv2d needs stride 1"));
        }
        if spec.fw % 2 != 1 || spec.pad != spec.fw / 2 {
            return Err(Error::Unsupported(
                "HomConv2d needs an odd filter with 'same' padding",
            ));
        }
        if weights.shape() != [spec.co, spec.ci, spec.fw, spec.fw] {
            return Err(Error::Unsupported(
                "conv weight tensor shape does not match the spec",
            ));
        }
        let w2 = spec.w * spec.w;
        if spec.ci * w2 > encoder.row_size() {
            return Err(Error::TooManyValues {
                given: spec.ci * w2,
                slots: encoder.row_size(),
            });
        }
        let r = (spec.fw / 2) as i64;
        let w = spec.w as i64;
        let mut offsets = Vec::with_capacity(spec.fw * spec.fw);
        for dy in -r..=r {
            for dx in -r..=r {
                offsets.push(dy * w + dx);
            }
        }
        let mut masks = Vec::with_capacity(spec.co);
        for o in 0..spec.co {
            let mut per_tap = Vec::with_capacity(offsets.len());
            for (tap, _) in offsets.iter().enumerate() {
                let dy = tap as i64 / spec.fw as i64 - r;
                let dx = tap as i64 % spec.fw as i64 - r;
                let mask = build_mask(spec, weights, o, dy, dx, schedule, encoder.slots());
                let pt = encoder.encode_signed(&mask)?;
                per_tap.push(eval.prepare_plaintext(&pt)?);
            }
            masks.push(per_tap);
        }
        let cost = HeCostParams::for_bfv(eval.params(), level);
        let reduce_plan = ReducePlan::choose(spec.ci, &cost);
        let structure = ConvStructure::analyze_tensor(weights, spec);
        // Per output channel: dense reduce when every channel is live,
        // transparent zero when none is, and otherwise whichever of the
        // dense plan / flat hoisted live-block sum the cost model prices
        // cheaper.
        let dense_mults = cost.reduce_plan_mults(reduce_plan, spec.ci);
        let reduces = (0..spec.co)
            .map(|o| {
                let live: Vec<usize> = (0..spec.ci)
                    .filter(|&c| structure.channel_live(o, c))
                    .collect();
                if live.is_empty() {
                    ChannelReduce::Zero
                } else if live.len() == spec.ci {
                    ChannelReduce::Dense
                } else {
                    let rotations = live.iter().filter(|&&c| c > 0).count();
                    if cost.sparse_reduce_mults(rotations) < dense_mults {
                        ChannelReduce::SparseLive(live)
                    } else {
                        ChannelReduce::Dense
                    }
                }
            })
            .collect();
        Ok(Self {
            spec: spec.clone(),
            schedule,
            masks,
            offsets,
            reduce_plan,
            structure,
            reduces,
        })
    }

    /// The channel-reduction plan in use.
    pub fn reduce_plan(&self) -> ReducePlan {
        self.reduce_plan
    }

    /// The analyzed weight structure.
    pub fn structure(&self) -> &ConvStructure {
        &self.structure
    }

    /// Per-output-channel reduction choices (indexed by `o`).
    pub fn channel_reduces(&self) -> &[ChannelReduce] {
        &self.reduces
    }

    /// The layer spec.
    pub fn spec(&self) -> &ConvSpec {
        &self.spec
    }

    /// The schedule in use.
    pub fn schedule(&self) -> Schedule {
        self.schedule
    }

    /// Conservative Table-III prediction of the layer's output noise when
    /// evaluated at `level` on an input with the given estimate: every tap
    /// is charged the worst mask norm and (for IA) a rotation, then the
    /// channel reduction's rotate-and-add terms are added. Upper-bounds
    /// the estimate the engine tracks through [`HomConv2d::apply`], so a
    /// positive predicted budget at a level means the layer can safely run
    /// there — the planning query behind leveled sessions.
    pub fn noise_after(
        &self,
        input: &cheetah_bfv::NoiseEstimate,
        params: &cheetah_bfv::BfvParams,
        level: usize,
    ) -> cheetah_bfv::NoiseEstimate {
        if self.structure.all_zero() {
            return cheetah_bfv::NoiseEstimate::zero();
        }
        let max_norm = self
            .masks
            .iter()
            .flatten()
            .map(PreparedPlaintext::inf_norm)
            .max()
            .unwrap_or(1)
            .max(1);
        // Only live taps accumulate a schedule-ordered rotate-mul term;
        // dead ones are skipped outright.
        let acc = crate::linear::accumulated_term_noise(
            input,
            params,
            level,
            self.schedule,
            max_norm,
            self.structure.live_taps().max(1),
        );
        // Channel reduction: each output runs its own shape — the worst
        // one bounds the layer. A flat live-block sum prices like a
        // one-stage BSGS replay set (`g = 1` conservatively charges the
        // unused giant rotation).
        let mut worst = cheetah_bfv::NoiseEstimate::zero();
        for reduce in &self.reduces {
            let est = match reduce {
                ChannelReduce::Zero => continue,
                ChannelReduce::Dense => {
                    rotate_sum_noise(&acc, params, level, self.spec.ci, self.reduce_plan)
                }
                ChannelReduce::SparseLive(live) => rotate_sum_noise(
                    &acc,
                    params,
                    level,
                    live.len(),
                    ReducePlan::Bsgs {
                        s: live.len(),
                        g: 1,
                    },
                ),
            };
            if est.bound_log2 > worst.bound_log2 {
                worst = est;
            }
        }
        worst
    }

    /// Rotation steps the evaluation needs (generate Galois keys for
    /// these): all tap offsets plus the channel-reduction strides.
    pub fn required_steps(spec: &ConvSpec) -> Vec<i64> {
        let r = (spec.fw / 2) as i64;
        let w = spec.w as i64;
        let mut steps = Vec::new();
        for dy in -r..=r {
            for dx in -r..=r {
                let k = dy * w + dx;
                if k != 0 {
                    steps.push(k);
                }
            }
        }
        let w2 = (spec.w * spec.w) as i64;
        for c in 1..spec.ci as i64 {
            steps.push(c * w2);
        }
        steps
    }

    /// The exact rotation steps this prepared layer performs — the sparse
    /// counterpart of the static [`HomConv2d::required_steps`] superset:
    /// live tap offsets plus each output's actual reduction strides.
    /// Generate Galois keys for these and nothing more.
    pub fn rotation_steps(&self) -> Vec<i64> {
        let mut steps: Vec<i64> = self
            .offsets
            .iter()
            .enumerate()
            .filter(|&(tap, &k)| k != 0 && self.structure.tap_live(tap))
            .map(|(_, &k)| k)
            .collect();
        let w2 = (self.spec.w * self.spec.w) as i64;
        for reduce in &self.reduces {
            match reduce {
                ChannelReduce::Zero => {}
                ChannelReduce::Dense => {
                    if self.spec.ci > 1 {
                        steps.extend(self.reduce_plan.steps(self.spec.ci, w2));
                    }
                }
                ChannelReduce::SparseLive(live) => {
                    steps.extend(live.iter().filter(|&&c| c > 0).map(|&c| c as i64 * w2));
                }
            }
        }
        steps.sort_unstable();
        steps.dedup();
        steps
    }

    /// Packs an input tensor `(ci, w, w)` into a plaintext (channels
    /// sequential, row-major).
    ///
    /// # Errors
    ///
    /// [`Error::Unsupported`] when the tensor is not `(ci, w, w)`;
    /// propagates encoding errors.
    pub fn encode_input(
        spec: &ConvSpec,
        input: &Tensor,
        encoder: &BatchEncoder,
    ) -> Result<Plaintext> {
        if input.shape() != [spec.ci, spec.w, spec.w] {
            return Err(Error::Unsupported(
                "conv input shape does not match the spec",
            ));
        }
        encoder.encode_signed(input.data())
    }

    /// Applies the convolution: one output ciphertext per output channel,
    /// each holding its `w × w` output image in slots `[0, w²)`.
    ///
    /// The per-tap work — rotations in Sched-IA, multiply-then-rotate
    /// partials in Sched-PA — is split into contiguous tap chunks across
    /// `threads` workers (`threads <= 1` runs fully inline), one
    /// scratch-owning worker per chunk, and the per-chunk partial sums are
    /// merged in chunk order. Residues mod `q` are exact, so the decrypted
    /// result is identical for every thread count.
    ///
    /// # Errors
    ///
    /// Propagates BFV evaluation errors (missing Galois keys, parameter
    /// mismatches).
    pub fn apply(
        &self,
        input: &Ciphertext,
        eval: &Evaluator,
        keys: &GaloisKeys,
        threads: usize,
    ) -> Result<Vec<Ciphertext>> {
        // The scratch-reuse hot path copies the input into evaluator-owned
        // buffers, so foreign ciphertexts must be rejected up front.
        eval.params().check_same(input.params())?;
        match self.schedule {
            Schedule::InputAligned => self.apply_input_aligned(input, eval, keys, threads),
            Schedule::PartialAligned => self.apply_partial_aligned(input, eval, keys, threads),
        }
    }

    fn apply_input_aligned(
        &self,
        input: &Ciphertext,
        eval: &Evaluator,
        keys: &GaloisKeys,
        threads: usize,
    ) -> Result<Vec<Ciphertext>> {
        let co = self.spec.co;
        let level = input.level();
        // Every tap rotates the *same* input ciphertext, so the INTT +
        // digit decomposition is hoisted once for the whole tap set (the
        // read-only result is shared by all workers) and each tap pays
        // only permutations + key-switch multiply-accumulates. A 1×1
        // filter has only the zero-offset tap — and a pruned layer may
        // have no live off-center tap at all — and skips the hoist
        // entirely.
        let needs_hoist = self
            .offsets
            .iter()
            .enumerate()
            .any(|(tap, &k)| k != 0 && self.structure.tap_live(tap));
        let hoisted = match needs_hoist {
            true => Some(eval.hoist(input)?),
            false => None,
        };
        // One fork for the whole layer: each worker owns a tap chunk,
        // rotates the input once per tap (shared across output channels,
        // reusing a single rotation buffer + scratch), and fuse-
        // accumulates straight into its per-channel partial sums — the
        // rotated ciphertexts are never materialized as a batch.
        // Accumulators follow the input's level: a modulus-switched input
        // runs the whole layer over its live limbs only.
        let partials = map_chunks(self.offsets.len(), threads, |range| {
            let mut scratch = eval.new_scratch();
            let mut rot = Ciphertext::transparent_zero_at(eval.params(), level);
            let mut accs = vec![Ciphertext::transparent_zero_at(eval.params(), level); co];
            for (tap, &k) in range.clone().zip(&self.offsets[range]) {
                // A tap dead across every output channel never rotates.
                if !self.structure.tap_live(tap) {
                    continue;
                }
                let src: &Ciphertext = match (&hoisted, k != 0) {
                    (Some(h), true) => {
                        eval.rotate_hoisted_into(&mut rot, input, h, k, keys, &mut scratch)?;
                        &rot
                    }
                    // Zero-offset tap: accumulate straight from the
                    // unrotated input, no copy.
                    _ => input,
                };
                for (o, (acc, per_tap)) in accs.iter_mut().zip(&self.masks).enumerate() {
                    // An all-zero mask multiplies to a zero polynomial —
                    // skipping it is bit-identical.
                    if !self.structure.mask_live(o, tap) {
                        continue;
                    }
                    eval.mul_plain_accumulate(acc, src, &per_tap[tap])?;
                }
            }
            Ok(accs)
        })?;
        let merged = merge_partial_vecs(partials, eval)?;
        self.reduce_all_channels(merged, eval, keys)
    }

    fn apply_partial_aligned(
        &self,
        input: &Ciphertext,
        eval: &Evaluator,
        keys: &GaloisKeys,
        threads: usize,
    ) -> Result<Vec<Ciphertext>> {
        let co = self.spec.co;
        let level = input.level();
        // One fork for the whole layer; per-worker buffers are reused
        // across every (tap, channel) pair in the chunk, all at the
        // input's level.
        let partials = map_chunks(self.offsets.len(), threads, |range| {
            let mut scratch = eval.new_scratch();
            let mut prod = Ciphertext::transparent_zero_at(eval.params(), level);
            let mut aligned = Ciphertext::transparent_zero_at(eval.params(), level);
            let mut accs = vec![Ciphertext::transparent_zero_at(eval.params(), level); co];
            for (tap, &k) in range.clone().zip(&self.offsets[range]) {
                for (o, (acc, per_tap)) in accs.iter_mut().zip(&self.masks).enumerate() {
                    // A dead (o, tap) mask contributes a zero polynomial —
                    // skip its multiply and rotation outright.
                    if !self.structure.mask_live(o, tap) {
                        continue;
                    }
                    // Multiply the *fresh* input first…
                    prod.copy_from(input);
                    eval.mul_plain_assign(&mut prod, &per_tap[tap])?;
                    // …then rotate the partial into alignment.
                    eval.rotate_rows_into(&mut aligned, &prod, k, keys, &mut scratch)?;
                    eval.add_assign(acc, &aligned)?;
                }
            }
            Ok(accs)
        })?;
        let merged = merge_partial_vecs(partials, eval)?;
        self.reduce_all_channels(merged, eval, keys)
    }

    /// Sums the per-channel partial blocks of every output channel into
    /// block 0, on the scratch path (no allocating `rotate_rows`/`add`
    /// wrappers). One scratch pool, rotation buffer, and hoisted-digit
    /// store serve all `co` reductions, so the whole pass stays
    /// allocation-free after the first channel warms the buffers.
    fn reduce_all_channels(
        &self,
        accs: Vec<Ciphertext>,
        eval: &Evaluator,
        keys: &GaloisKeys,
    ) -> Result<Vec<Ciphertext>> {
        let ci = self.spec.ci;
        let mut scratch = eval.new_scratch();
        let mut rotated = Ciphertext::transparent_zero(eval.params());
        let mut hoisted = HoistedDecomposition::empty(eval.params());
        accs.into_iter()
            .zip(&self.reduces)
            .map(|(acc, reduce)| match reduce {
                // All-zero output: the accumulator never saw a multiply.
                ChannelReduce::Zero => Ok(acc),
                ChannelReduce::Dense => {
                    if ci == 1 {
                        return Ok(acc);
                    }
                    self.reduce_channels(acc, eval, keys, &mut scratch, &mut rotated, &mut hoisted)
                }
                ChannelReduce::SparseLive(live) => {
                    self.reduce_live_channels(acc, live, eval, keys, &mut scratch, &mut rotated)
                }
            })
            .collect()
    }

    /// Flat hoisted reduction over the live channel blocks only: hoist the
    /// accumulator once, replay one rotation per live block past block 0.
    /// Dead blocks are zero polynomials, so the sum landing in block 0 is
    /// bit-identical to the dense reduction's (slots outside block 0 —
    /// garbage in every plan — may differ).
    fn reduce_live_channels(
        &self,
        acc: Ciphertext,
        live: &[usize],
        eval: &Evaluator,
        keys: &GaloisKeys,
        scratch: &mut Scratch,
        rotated: &mut Ciphertext,
    ) -> Result<Ciphertext> {
        let w2 = (self.spec.w * self.spec.w) as i64;
        let rotations: Vec<i64> = live
            .iter()
            .filter(|&&c| c > 0)
            .map(|&c| c as i64 * w2)
            .collect();
        if rotations.is_empty() {
            // live ⊆ {0}: block 0 already holds the whole sum.
            return Ok(acc);
        }
        let h = eval.hoist(&acc)?;
        let mut out = Ciphertext::transparent_zero_at(eval.params(), acc.level());
        if live[0] == 0 {
            eval.add_assign(&mut out, &acc)?;
        }
        for &step in &rotations {
            eval.rotate_hoisted_into(rotated, &acc, &h, step, keys, scratch)?;
            eval.add_assign(&mut out, rotated)?;
        }
        Ok(out)
    }

    /// One output channel's reduction, under the layer's [`ReducePlan`]:
    /// the doubling ladder is a dependent chain and reuses the shared
    /// rotation buffer; a BSGS plan rotates the *same* base (then the same
    /// inner sum) repeatedly, so each stage's decomposition is hoisted
    /// once for its whole replay set (into the shared digit store). Every
    /// plan computes the identical sum, so the decrypted channel is the
    /// same whichever is chosen.
    fn reduce_channels(
        &self,
        acc: Ciphertext,
        eval: &Evaluator,
        keys: &GaloisKeys,
        scratch: &mut Scratch,
        rotated: &mut Ciphertext,
        hoisted: &mut HoistedDecomposition,
    ) -> Result<Ciphertext> {
        let w2 = (self.spec.w * self.spec.w) as i64;
        rotate_sum_reduce(
            acc,
            w2,
            self.spec.ci,
            self.reduce_plan,
            eval,
            keys,
            scratch,
            rotated,
            hoisted,
        )
    }

    /// Extracts the output image of channel `o` from a decrypted/decoded
    /// slot vector.
    pub fn decode_output(&self, slots: &[i64]) -> Tensor {
        let w = self.spec.w;
        Tensor::from_data(&[1, w, w], slots[..w * w].to_vec())
    }
}

/// Builds the slot mask for `(output channel o, tap (dy, dx))`.
///
/// * Sched-IA masks are aligned to *output* positions: slot
///   `c·w² + y·w + x` carries `f[o][c][dy][dx]` iff input pixel
///   `(y+dy, x+dx)` is inside the image.
/// * Sched-PA masks are aligned to *input* positions (pre-rotation): slot
///   `c·w² + y'·w + x'` carries the weight iff output pixel
///   `(y'−dy, x'−dx)` is inside the image.
fn build_mask(
    spec: &ConvSpec,
    weights: &Tensor,
    o: usize,
    dy: i64,
    dx: i64,
    schedule: Schedule,
    slots: usize,
) -> Vec<i64> {
    let w = spec.w as i64;
    let r = spec.fw / 2;
    let ky = (dy + r as i64) as usize;
    let kx = (dx + r as i64) as usize;
    let mut mask = vec![0i64; slots];
    for c in 0..spec.ci {
        let f = weights.data()[((o * spec.ci + c) * spec.fw + ky) * spec.fw + kx];
        if f == 0 {
            continue;
        }
        for y in 0..w {
            for x in 0..w {
                let (sy, sx) = match schedule {
                    // valid iff the *source* pixel exists
                    Schedule::InputAligned => (y + dy, x + dx),
                    // valid iff the *destination* pixel exists
                    Schedule::PartialAligned => (y - dy, x - dx),
                };
                if sy < 0 || sy >= w || sx < 0 || sx >= w {
                    continue;
                }
                let slot = c * (w * w) as usize + (y * w + x) as usize;
                mask[slot] = f;
            }
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheetah_bfv::{BfvParams, Decryptor, Encryptor, KeyGenerator};
    use cheetah_nn::inference::eval_linear;
    use cheetah_nn::LinearLayer;
    use rand::{Rng, SeedableRng};

    fn spec(w: usize, fw: usize, ci: usize, co: usize) -> ConvSpec {
        ConvSpec {
            name: "test".into(),
            w,
            fw,
            ci,
            co,
            stride: 1,
            pad: fw / 2,
        }
    }

    struct Ctx {
        encoder: BatchEncoder,
        enc: Encryptor,
        dec: Decryptor,
        eval: Evaluator,
        keys: GaloisKeys,
    }

    fn ctx(spec: &ConvSpec) -> Ctx {
        let params = BfvParams::builder()
            .degree(4096)
            .plain_bits(16)
            .cipher_bits(60)
            .a_dcmp(1 << 6)
            .build()
            .unwrap();
        let mut kg = KeyGenerator::from_seed(params.clone(), 41);
        let pk = kg.public_key().unwrap();
        let keys = kg
            .galois_keys_for_steps(&HomConv2d::required_steps(spec))
            .unwrap();
        Ctx {
            encoder: BatchEncoder::new(params.clone()),
            enc: Encryptor::from_public_key(pk, 42),
            dec: Decryptor::new(kg.secret_key().clone()),
            eval: Evaluator::new(params),
            keys,
        }
    }

    fn random_weights(spec: &ConvSpec, seed: u64) -> Tensor {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let len = spec.co * spec.ci * spec.fw * spec.fw;
        Tensor::from_data(
            &[spec.co, spec.ci, spec.fw, spec.fw],
            (0..len).map(|_| rng.random_range(-4..=4)).collect(),
        )
    }

    fn random_input(spec: &ConvSpec, seed: u64) -> Tensor {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Tensor::from_data(
            &[spec.ci, spec.w, spec.w],
            (0..spec.ci * spec.w * spec.w)
                .map(|_| rng.random_range(-8..=8))
                .collect(),
        )
    }

    fn check_conv(spec: &ConvSpec, schedule: Schedule) {
        let mut c = ctx(spec);
        let weights = random_weights(spec, 1);
        let input = random_input(spec, 2);
        let expect = eval_linear(&LinearLayer::Conv(spec.clone()), &weights, &input);

        let layer = HomConv2d::new(spec, &weights, &c.encoder, &c.eval, schedule).unwrap();
        let ct = c
            .enc
            .encrypt(&HomConv2d::encode_input(spec, &input, &c.encoder).unwrap())
            .unwrap();
        let threads = crate::linear::parallel::default_threads();
        let outputs = layer.apply(&ct, &c.eval, &c.keys, threads).unwrap();
        assert_eq!(outputs.len(), spec.co);
        for (o, out_ct) in outputs.iter().enumerate() {
            let budget = c.dec.invariant_noise_budget(out_ct).unwrap();
            assert!(budget > 0.0, "channel {o} budget exhausted ({budget:.1})");
            let slots = c.encoder.decode_signed(&c.dec.decrypt(out_ct).unwrap());
            let img = layer.decode_output(&slots);
            for y in 0..spec.w {
                for x in 0..spec.w {
                    assert_eq!(
                        img.at3(0, y, x),
                        expect.at3(o, y, x),
                        "{schedule} mismatch at (o={o}, y={y}, x={x})"
                    );
                }
            }
        }
    }

    #[test]
    fn conv_3x3_single_channel_both_schedules() {
        let s = spec(8, 3, 1, 1);
        check_conv(&s, Schedule::PartialAligned);
        check_conv(&s, Schedule::InputAligned);
    }

    #[test]
    fn conv_1x1_skips_the_hoist() {
        // A 1×1 filter has only the zero-offset tap: the IA path must not
        // pay a hoist (or any rotation) for the tap loop — only the
        // channel reduction rotates.
        let s = spec(8, 1, 2, 2);
        check_conv(&s, Schedule::InputAligned);
        let mut c = ctx(&s);
        let weights = random_weights(&s, 8);
        let input = random_input(&s, 9);
        let layer =
            HomConv2d::new(&s, &weights, &c.encoder, &c.eval, Schedule::InputAligned).unwrap();
        let ct = c
            .enc
            .encrypt(&HomConv2d::encode_input(&s, &input, &c.encoder).unwrap())
            .unwrap();
        c.eval.reset_op_counts();
        let _ = layer.apply(&ct, &c.eval, &c.keys, 1).unwrap();
        let counts = c.eval.op_counts();
        let params = c.eval.params();
        let planes = (params.l_ct() as u64 + 1) * params.limbs() as u64;
        // co · log2(ci) ladder rotations, nothing else.
        assert_eq!(counts.rotate, 2);
        assert_eq!(counts.ntt, 2 * planes, "no hoist for a 1×1 tap set");
    }

    #[test]
    fn conv_3x3_multi_channel_power_of_two() {
        let s = spec(8, 3, 4, 2);
        check_conv(&s, Schedule::PartialAligned);
        check_conv(&s, Schedule::InputAligned);
    }

    #[test]
    fn conv_3x3_non_power_of_two_channels() {
        let s = spec(6, 3, 3, 2);
        check_conv(&s, Schedule::PartialAligned);
    }

    #[test]
    fn conv_5x5_filter() {
        let s = spec(8, 5, 2, 1);
        check_conv(&s, Schedule::PartialAligned);
    }

    #[test]
    fn pa_leaves_more_noise_budget_than_ia() {
        let s = spec(8, 3, 2, 1);
        let mut c = ctx(&s);
        let weights = random_weights(&s, 3);
        let input = random_input(&s, 4);
        let ct = c
            .enc
            .encrypt(&HomConv2d::encode_input(&s, &input, &c.encoder).unwrap())
            .unwrap();

        let pa = HomConv2d::new(&s, &weights, &c.encoder, &c.eval, Schedule::PartialAligned)
            .unwrap()
            .apply(&ct, &c.eval, &c.keys, 1)
            .unwrap();
        let ia = HomConv2d::new(&s, &weights, &c.encoder, &c.eval, Schedule::InputAligned)
            .unwrap()
            .apply(&ct, &c.eval, &c.keys, 1)
            .unwrap();
        let pa_budget = c.dec.invariant_noise_budget(&pa[0]).unwrap();
        let ia_budget = c.dec.invariant_noise_budget(&ia[0]).unwrap();
        assert!(
            pa_budget >= ia_budget,
            "PA {pa_budget:.1} bits vs IA {ia_budget:.1} bits"
        );
    }

    #[test]
    fn op_counts_within_factor_of_table_iv_model() {
        // The functional layer computes one output channel per ciphertext;
        // Table IV models the fully packed layout. Counts must agree
        // within a small factor.
        let s = spec(8, 3, 4, 2);
        let mut c = ctx(&s);
        let weights = random_weights(&s, 5);
        let input = random_input(&s, 6);
        let layer =
            HomConv2d::new(&s, &weights, &c.encoder, &c.eval, Schedule::InputAligned).unwrap();
        let ct = c
            .enc
            .encrypt(&HomConv2d::encode_input(&s, &input, &c.encoder).unwrap())
            .unwrap();
        c.eval.reset_op_counts();
        let _ = layer.apply(&ct, &c.eval, &c.keys, 1).unwrap();
        let counts = c.eval.op_counts();

        // Compare at the *effective* slot count (slots the layer occupies):
        // Table IV amortizes over cn = n/w² packed channels, while the
        // functional layer packs exactly ci channels.
        let model = crate::ptune::perf::conv_ops(&s, s.ci * s.w * s.w, 1);
        let ratio_mult = counts.mul as f64 / model.he_mult;
        assert!(
            (0.2..5.0).contains(&ratio_mult),
            "functional mults {} vs model {:.1}",
            counts.mul,
            model.he_mult
        );

        // NTT reconciliation against the corrected plane-transform model.
        // Per-rotation the engine would do (l_ct + 1)·limbs transforms;
        // with the tap set hoisted the layer pays exactly one hoist for
        // all fw² taps plus, per output channel, the reduce plan's bill:
        // one full rotation per ladder level, or one hoist per BSGS stage.
        let params = c.eval.params();
        let planes = (params.l_ct() as u64 + 1) * params.limbs() as u64;
        let per_channel = match layer.reduce_plan() {
            crate::linear::ReducePlan::Ladder => s.ci.ilog2() as u64,
            crate::linear::ReducePlan::Bsgs { s: bs, g } => u64::from(bs > 1) + u64::from(g > 1),
        };
        assert_eq!(
            counts.ntt,
            planes * (1 + s.co as u64 * per_channel),
            "hoisted NTT structure under {:?}",
            layer.reduce_plan()
        );
        // The reduce plan must have left the dependent ladder behind for
        // ci = 4: strictly fewer reduction NTTs than the log2(ci) ladder.
        assert!(per_channel < s.ci.ilog2() as u64 + 1);
        // The uncorrected per-rotation accounting would have charged every
        // rotation a full decomposition; hoisting must beat it.
        assert!(
            counts.ntt < counts.rotate * planes,
            "hoisting saved nothing: {} NTT planes for {} rotations",
            counts.ntt,
            counts.rotate
        );
    }

    #[test]
    fn conv_runs_at_reduced_level_with_less_ntt_work() {
        // A modulus-switched input drives the whole layer over its live
        // limbs: same decrypted output, strictly fewer NTT plane
        // transforms than the full-level run — and within the noise bound
        // the per-level model predicts.
        // Three 36-bit limbs: level 1 leaves two live limbs — a 55-bit
        // ceiling, far above the layer's noise, while a single 36-bit limb
        // could not hold a conv layer (the planner knows; this test picks
        // the level by hand, so it picks the safe one).
        let s = spec(8, 3, 2, 2);
        let params = BfvParams::builder()
            .degree(4096)
            .plain_bits(16)
            .moduli_bits(&[36, 36, 36])
            .a_dcmp(1 << 6)
            .build()
            .unwrap();
        let mut kg = KeyGenerator::from_seed(params.clone(), 43);
        let pk = kg.public_key().unwrap();
        let keys = kg
            .galois_keys_for_steps(&HomConv2d::required_steps(&s))
            .unwrap();
        let encoder = BatchEncoder::new(params.clone());
        let mut enc = Encryptor::from_public_key(pk, 44);
        let dec = Decryptor::new(kg.secret_key().clone());
        let eval = Evaluator::new(params.clone());

        let weights = random_weights(&s, 10);
        let input = random_input(&s, 11);
        let expect = eval_linear(&LinearLayer::Conv(s.clone()), &weights, &input);
        let layer = HomConv2d::new(&s, &weights, &encoder, &eval, Schedule::InputAligned).unwrap();
        let ct = enc
            .encrypt(&HomConv2d::encode_input(&s, &input, &encoder).unwrap())
            .unwrap();

        eval.reset_op_counts();
        let full_out = layer.apply(&ct, &eval, &keys, 1).unwrap();
        let full_counts = eval.op_counts();

        let switched = eval.mod_switch_to_next(&ct).unwrap();
        assert_eq!(switched.level(), 1);
        eval.reset_op_counts();
        let low_out = layer.apply(&switched, &eval, &keys, 1).unwrap();
        let low_counts = eval.op_counts();
        assert!(
            low_counts.ntt < full_counts.ntt,
            "reduced level must do less NTT work: {} vs {}",
            low_counts.ntt,
            full_counts.ntt
        );

        let predicted = layer.noise_after(switched.noise(), &params, 1);
        for (o, (a, b)) in full_out.iter().zip(&low_out).enumerate() {
            assert_eq!(b.level(), 1, "outputs stay at the input's level");
            let da = encoder.decode_signed(&dec.decrypt_checked(a).unwrap());
            let db = encoder.decode_signed(&dec.decrypt_checked(b).unwrap());
            assert_eq!(
                layer.decode_output(&da).data(),
                layer.decode_output(&db).data(),
                "channel {o} diverged at the reduced level"
            );
            assert_eq!(
                layer.decode_output(&db).data(),
                (0..s.w * s.w)
                    .map(|i| expect.data()[o * s.w * s.w + i])
                    .collect::<Vec<_>>(),
                "channel {o} wrong"
            );
            // The engine-tracked noise stays under the planner's model.
            assert!(b.noise().bound_log2 <= predicted.bound_log2 + 1e-9);
        }
    }

    #[test]
    fn sparse_conv_skips_dead_taps_and_channels() {
        // Output 0: only the center tap of channels 0 and 2; output 1:
        // fully dead. Dense evaluation must agree on the output blocks
        // while the sparse layer rotates and multiplies far less.
        let s = spec(8, 3, 4, 2);
        let mut c = ctx(&s);
        let len = s.co * s.ci * s.fw * s.fw;
        let taps = s.fw * s.fw;
        let mut w = vec![0i64; len];
        w[4] = 3; // (o=0, c=0, center tap)
        w[2 * taps + 4] = -5; // (o=0, c=2, center tap)
        let weights = Tensor::from_data(&[s.co, s.ci, s.fw, s.fw], w);
        let input = random_input(&s, 12);
        let expect = eval_linear(&LinearLayer::Conv(s.clone()), &weights, &input);

        let layer =
            HomConv2d::new(&s, &weights, &c.encoder, &c.eval, Schedule::InputAligned).unwrap();
        assert_eq!(
            layer.structure().live_taps(),
            1,
            "only the center tap is live"
        );
        assert_eq!(layer.channel_reduces()[1], ChannelReduce::Zero);
        assert!(matches!(
            layer.channel_reduces()[0],
            ChannelReduce::SparseLive(_) | ChannelReduce::Dense
        ));

        let ct = c
            .enc
            .encrypt(&HomConv2d::encode_input(&s, &input, &c.encoder).unwrap())
            .unwrap();
        c.eval.reset_op_counts();
        let outputs = layer.apply(&ct, &c.eval, &c.keys, 1).unwrap();
        let counts = c.eval.op_counts();
        // Center tap only: no tap rotation, no hoist for the tap set; the
        // lone live output multiplies once per live channel mask — one
        // mask, two live channels inside it — i.e. exactly 1 mul.
        assert_eq!(counts.mul, 1, "one live (o, tap) mask");
        // Reduction: only output 0 reduces, over channels {0, 2}.
        assert!(
            counts.rotate <= 2,
            "live-channel reduce must beat the dense ladder ({} rotations)",
            counts.rotate
        );
        for (o, out_ct) in outputs.iter().enumerate() {
            let slots = c.encoder.decode_signed(&c.dec.decrypt(out_ct).unwrap());
            let img = layer.decode_output(&slots);
            for y in 0..s.w {
                for x in 0..s.w {
                    assert_eq!(
                        img.at3(0, y, x),
                        expect.at3(o, y, x),
                        "mismatch at (o={o}, y={y}, x={x})"
                    );
                }
            }
        }
        // The dead output decrypts to exact zeros without any work.
        assert_eq!(
            outputs[1].noise().bound_log2,
            f64::NEG_INFINITY,
            "dead output stays transparent"
        );

        // Keys for exactly the layer's sparse steps suffice.
        let params = c.eval.params().clone();
        let mut kg = KeyGenerator::from_seed(params, 41);
        let lean_keys = kg.galois_keys_for_steps(&layer.rotation_steps()).unwrap();
        let lean = layer.apply(&ct, &c.eval, &lean_keys, 1).unwrap();
        for (a, b) in outputs.iter().zip(&lean) {
            assert_eq!(
                layer
                    .decode_output(&c.encoder.decode_signed(&c.dec.decrypt(a).unwrap()))
                    .data(),
                layer
                    .decode_output(&c.encoder.decode_signed(&c.dec.decrypt(b).unwrap()))
                    .data(),
            );
        }
    }

    #[test]
    fn sparse_conv_matches_dense_evaluation_both_schedules() {
        // Prune channel 1 of each output and the corner taps; outputs must
        // stay bit-identical to the cleartext reference under both
        // schedules.
        let s = spec(6, 3, 3, 2);
        let taps = s.fw * s.fw;
        let mut weights = random_weights(&s, 14);
        {
            let data = weights.data_mut();
            for o in 0..s.co {
                for c in 0..s.ci {
                    for tap in 0..taps {
                        let dead_channel = c == 1;
                        let dead_tap = [0usize, 2, 6, 8].contains(&tap);
                        if dead_channel || dead_tap {
                            data[(o * s.ci + c) * taps + tap] = 0;
                        }
                    }
                }
            }
        }
        for schedule in [Schedule::InputAligned, Schedule::PartialAligned] {
            let mut c = ctx(&s);
            let input = random_input(&s, 15);
            let expect = eval_linear(&LinearLayer::Conv(s.clone()), &weights, &input);
            let layer = HomConv2d::new(&s, &weights, &c.encoder, &c.eval, schedule).unwrap();
            assert_eq!(layer.structure().live_taps(), 5, "corner taps pruned");
            let ct = c
                .enc
                .encrypt(&HomConv2d::encode_input(&s, &input, &c.encoder).unwrap())
                .unwrap();
            let outputs = layer.apply(&ct, &c.eval, &c.keys, 1).unwrap();
            for (o, out_ct) in outputs.iter().enumerate() {
                let slots = c.encoder.decode_signed(&c.dec.decrypt(out_ct).unwrap());
                let img = layer.decode_output(&slots);
                for y in 0..s.w {
                    for x in 0..s.w {
                        assert_eq!(
                            img.at3(0, y, x),
                            expect.at3(o, y, x),
                            "{schedule} mismatch at (o={o}, y={y}, x={x})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn oversized_layer_rejected() {
        let s = spec(64, 3, 2, 1); // 2*4096 slots > 2048-row
        let params = BfvParams::builder()
            .degree(4096)
            .plain_bits(20)
            .cipher_bits(60)
            .build()
            .unwrap();
        let encoder = BatchEncoder::new(params.clone());
        let eval = Evaluator::new(params);
        let weights = random_weights(&s, 7);
        assert!(matches!(
            HomConv2d::new(&s, &weights, &encoder, &eval, Schedule::PartialAligned),
            Err(Error::TooManyValues { .. })
        ));
    }
}
