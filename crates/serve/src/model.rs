//! The shared, immutable prepared model a server pool serves.
//!
//! Preparing a network for homomorphic evaluation is expensive: every
//! linear layer's weights are packed into prepared plaintexts, BSGS
//! plans are chosen, and the union of rotation steps the plans need is
//! computed. None of that depends on a client — so it is built
//! **once** into a [`PreparedModel`] and shared behind an `Arc` across
//! every concurrent session. Everything here is read-only after
//! construction: the struct owns no `RefCell`/`Mutex` and every method
//! takes `&self`, so sharing is lock-free by construction.
//!
//! Preparing also fixes each linear layer's round, one
//! `cheetah_core::solver::LayerPlan` record: its level comes from the one
//! level rule, `cheetah_core::linear::run_level`, which the chain solver
//! calls too, so a model prepared on a solved chain runs every layer where
//! the solver planned it.
//!
//! What stays *per client* lives in the session halves
//! ([`crate::session`]): secret/Galois keys, encryptors, mask RNG
//! streams, scratch space, and transcripts.

use std::collections::BTreeSet;
use std::sync::Arc;

use cheetah_bfv::{
    BatchEncoder, BfvParams, Ciphertext, Error, Evaluator, GaloisKeys, NoiseEstimate, Plaintext,
    Result, Scratch, SeededGaloisKeys,
};
use cheetah_core::linear::{run_level, HomConv2d, HomFc, PreparedKernel};
use cheetah_core::solver::LayerPlan;
use cheetah_core::Schedule;
use cheetah_nn::tensor::{max_pool, relu, sum_pool};
use cheetah_nn::{Layer, LinearLayer, Network, Tensor, Weights};
use rand::Rng;

use crate::masking::center;

/// A prepared homomorphic linear layer plus its packing rules.
pub(crate) enum HomLayer {
    Conv(HomConv2d),
    Fc(HomFc),
}

impl HomLayer {
    /// The rotate–multiply–accumulate kernel the layer prepared — its
    /// *instance* plan, masks and label, whichever layer laid it out: the
    /// round's record is built from it, and it evaluates the layer.
    fn kernel(&self) -> &PreparedKernel {
        match self {
            HomLayer::Conv(c) => c.kernel(),
            HomLayer::Fc(f) => f.kernel(),
        }
    }

    /// The layer's input layout — an FC layer's is its plan's tiling, so
    /// the client's uploads and the server's mask removal, which both pack
    /// through here, agree on it by construction.
    fn pack(&self, t: &Tensor, encoder: &BatchEncoder) -> Result<Plaintext> {
        match self {
            HomLayer::Conv(c) => HomConv2d::encode_input(c.spec(), t, encoder),
            HomLayer::Fc(f) => f.encode_input(t, encoder),
        }
    }

    /// Output tensor shape.
    fn output_shape(&self) -> Vec<usize> {
        match self {
            HomLayer::Conv(c) => vec![c.spec().co, c.spec().w, c.spec().w],
            HomLayer::Fc(f) => vec![f.spec().no],
        }
    }

    /// Where element `i` of the (row-major) output tensor lands: the
    /// ciphertext and, ascending, the slots whose sum mod `t` it is — one
    /// for a convolution, an FC layer's `fold` windows of partial sums
    /// ([`HomFc::output_slots`]).
    fn output_slot(&self, i: usize) -> (usize, Vec<usize>) {
        match self {
            HomLayer::Conv(c) => {
                let w2 = c.spec().w * c.spec().w;
                let (ct, slot) = c.output_slot(i / w2, i % w2);
                (ct, vec![slot])
            }
            HomLayer::Fc(f) => (0, f.output_slots(i).collect()),
        }
    }

    /// Extracts the output tensor from per-ciphertext decoded slots,
    /// adding up each element's [`HomLayer::output_slot`] windows mod `t`.
    fn unpack(&self, slot_vecs: &[Vec<i64>]) -> Tensor {
        match self {
            HomLayer::Conv(c) => c.decode_output(slot_vecs),
            HomLayer::Fc(f) => f.decode_output(&slot_vecs[0]),
        }
    }
}

/// Applies one nonlinear bundle (the simulated garbled-circuit body) to a
/// tensor. Linear layers never appear inside a bundle by construction;
/// the boundary still refuses rather than panicking.
fn apply_nonlinear(layers: &[Layer], input: &Tensor) -> Result<Tensor> {
    let mut t = input.clone();
    for layer in layers {
        t = match layer {
            Layer::Relu => relu(&t),
            Layer::MaxPool { k, stride } => max_pool(&t, *k, *stride),
            Layer::SumPool { k, stride } => sum_pool(&t, *k, *stride),
            Layer::Flatten => t.clone().into_flat(),
            Layer::ResidualAdd { .. } => {
                return Err(Error::Unsupported(
                    "residual networks need multi-branch sessions",
                ))
            }
            Layer::Linear(_) => {
                return Err(Error::Unsupported("linear layer inside a nonlinear bundle"))
            }
        };
    }
    Ok(t)
}

/// Everything about a model that is client-independent, prepared once:
/// packed weight plaintexts, one [`LayerPlan`] per linear layer — the
/// record of its round, which both session halves execute — the nonlinear
/// bundle structure and its output shapes. Immutable after construction —
/// shared behind an `Arc` across any number of concurrent sessions.
pub struct PreparedModel {
    params: BfvParams,
    encoder: BatchEncoder,
    evaluator: Evaluator,
    layers: Vec<HomLayer>,
    /// Nonlinear layers *before* the first linear layer (run client-side
    /// in the clear — the client owns the input).
    leading: Vec<Layer>,
    /// Nonlinear bundle *after* each linear layer, up to the next linear
    /// layer (or the end of the network).
    bundles: Vec<Vec<Layer>>,
    /// `bundle_shapes[k]`: output shape of linear layer `k`'s nonlinear
    /// bundle — the shape of the next round's client-side mask.
    bundle_shapes: Vec<Vec<usize>>,
    /// The parameter-chain fingerprint every client message must carry.
    fingerprint: u64,
    /// One round record per linear layer ([`PreparedModel::round`]).
    rounds: Vec<LayerPlan>,
    /// Sorted, deduplicated union of the records' Galois steps — the slice
    /// [`PreparedModel::required_steps`] lends out.
    key_steps: Vec<i64>,
}

impl PreparedModel {
    /// Prepares every linear layer of `net` under the plan its cost model
    /// picks, fixes each layer's round ([`PreparedModel::round`]), splits
    /// the network into leading / per-layer nonlinear bundles, and dry-runs
    /// each bundle on zeros to record its output shape. On a solved
    /// `ChainPlan`'s `params` the rounds run at the plan's levels, plans
    /// and shipping levels: both ask [`run_level`] the same question.
    ///
    /// # Errors
    ///
    /// Propagates BFV errors; fails when a layer does not fit the packing
    /// constraints of [`HomConv2d`] / [`HomFc`], and rejects residual
    /// networks here (at prepare time) rather than at the first session.
    pub fn new(net: &Network, weights: &Weights, params: BfvParams) -> Result<Arc<Self>> {
        let encoder = BatchEncoder::new(params.clone());
        let evaluator = Evaluator::new(params.clone());

        // Prepare every linear layer; its record then holds exactly the
        // rotation steps the prepared plan needs (a BSGS FC layer needs
        // O(√d) keys, not d − 1; sparse layers only their live steps).
        let mut layers = Vec::new();
        let mut names = Vec::new();
        let mut leading = Vec::new();
        let mut bundles: Vec<Vec<Layer>> = Vec::new();
        for layer in &net.layers {
            if let Layer::Linear(lin) = layer {
                let k = layers.len();
                let w = weights.layer(k);
                names.push(lin.name());
                layers.push(match lin {
                    LinearLayer::Conv(c) => {
                        HomLayer::Conv(HomConv2d::new(c, w, &encoder, &evaluator)?)
                    }
                    LinearLayer::Fc(f) => HomLayer::Fc(HomFc::new(f, w, &encoder, &evaluator)?),
                });
                bundles.push(Vec::new());
            } else if let Some(bundle) = bundles.last_mut() {
                bundle.push(layer.clone());
            } else {
                leading.push(layer.clone());
            }
        }
        let bundle_shapes = layers
            .iter()
            .zip(&bundles)
            .map(|(layer, bundle)| {
                let zeros = Tensor::zeros(&layer.output_shape());
                Ok(apply_nonlinear(bundle, &zeros)?.shape().to_vec())
            })
            .collect::<Result<Vec<_>>>()?;
        let fingerprint = cheetah_bfv::chain_fingerprint(&params);

        let mut model = Self {
            params,
            encoder,
            evaluator,
            layers,
            leading,
            bundles,
            bundle_shapes,
            fingerprint,
            rounds: Vec::new(),
            key_steps: Vec::new(),
        };
        // Layer 0's input is a fresh encryption; every later layer's is a
        // fresh encryption of a masked activation, from which the server
        // removes the previous mask — a plaintext of norm up to ⌊t/2⌋.
        let fresh = NoiseEstimate::fresh(&model.params);
        let unmasked = fresh.add_plain(model.params.plain_modulus().value() / 2);
        model.rounds = names
            .iter()
            .enumerate()
            .map(|(k, name)| {
                let input = if k == 0 { &fresh } else { &unmasked };
                let kernel = model.layers[k].kernel();
                let (plan, label, norm) = (kernel.plan(), kernel.label(), kernel.mask_norm());
                let level = run_level(plan, input, &model.params).unwrap_or(0);
                LayerPlan::new(name, plan, label, &model.params, level, input, norm)
            })
            .collect();
        let mut steps: Vec<i64> = model.rounds.iter().flat_map(|r| r.steps.clone()).collect();
        steps.sort_unstable();
        steps.dedup();
        model.key_steps = steps;
        Ok(Arc::new(model))
    }

    /// [`PreparedModel::new`] with an ignored `_schedule` — no layer has a
    /// schedule to choose. Kept only for `bench_e2e`, whose sources stay
    /// unchanged until the benchmark itself is revised.
    ///
    /// # Errors
    ///
    /// As [`PreparedModel::new`].
    pub fn prepare(
        net: &Network,
        weights: &Weights,
        params: BfvParams,
        _schedule: Schedule,
    ) -> Result<Arc<Self>> {
        Self::new(net, weights, params)
    }

    /// The model itself. Kept only for `bench_e2e`, which reaches the
    /// prepared layers through it and whose sources stay unchanged until
    /// the benchmark itself is revised.
    pub fn layers(&self) -> &Self {
        self
    }

    /// The record of linear layer `k`'s round, fixed when the model was
    /// prepared: [`LayerPlan::new`] of the prepared kernel at its
    /// [`run_level`] (level 0 when none clears the margin) on the layer's
    /// input — a fresh encryption for layer 0, one with a `⌊t/2⌋`-norm mask
    /// removed after — its noise charged the masks' measured norm.
    /// Part of the model description, like the layer shapes: it reveals no
    /// more than every message header already carries.
    pub fn round(&self, k: usize) -> &LayerPlan {
        &self.rounds[k]
    }

    /// The parameter set every client must match (see
    /// [`PreparedModel::fingerprint`]).
    pub fn params(&self) -> &BfvParams {
        &self.params
    }

    /// The shared batch encoder.
    pub fn encoder(&self) -> &BatchEncoder {
        &self.encoder
    }

    /// The shared evaluator (stateless over `&self`; safe to use from any
    /// number of threads).
    pub fn evaluator(&self) -> &Evaluator {
        &self.evaluator
    }

    /// Number of prepared (linear) layers.
    pub fn linear_count(&self) -> usize {
        self.layers.len()
    }

    /// The exact rotation steps clients must bring Galois keys for —
    /// sorted and deduplicated across every round's steps.
    pub fn required_steps(&self) -> &[i64] {
        &self.key_steps
    }

    /// FNV-1a fingerprint of the parameter chain
    /// ([`cheetah_bfv::chain_fingerprint`]); every wire message from a
    /// client is validated against it before any arithmetic.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Checks that a client's seeded Galois key set is exactly the one the
    /// prepared plans read: a key for every step they rotate by, and no
    /// key no step maps to — on the elements alone, before any key is
    /// expanded, so a server never holds a key it will not use.
    ///
    /// # Errors
    ///
    /// [`Error::MissingGaloisKey`] naming the first uncovered step;
    /// [`Error::Unsupported`] when the set holds a surplus key.
    pub fn check_key_coverage(&self, keys: &SeededGaloisKeys) -> Result<()> {
        let mut read = BTreeSet::new();
        for &step in &self.key_steps {
            read.insert(keys.get_for_step(self.params.degree(), step)?.element);
        }
        // `read` is a subset of the set's elements: anything more is surplus.
        if keys.len() > read.len() {
            return Err(Error::Unsupported("a Galois key no plan step reads"));
        }
        Ok(())
    }

    /// Runs the leading nonlinear layers (before the first linear layer)
    /// on a clear input — client-side work.
    ///
    /// # Errors
    ///
    /// [`Error::Unsupported`] for residual networks.
    pub fn apply_leading(&self, input: &Tensor) -> Result<Tensor> {
        apply_nonlinear(&self.leading, input)
    }

    /// Runs linear layer `k`'s nonlinear bundle (the simulated garbled
    /// circuit body: ReLU / pooling / flatten until the next linear
    /// layer).
    ///
    /// # Errors
    ///
    /// [`Error::Unsupported`] for residual networks.
    pub fn apply_bundle(&self, k: usize, input: &Tensor) -> Result<Tensor> {
        apply_nonlinear(&self.bundles[k], input)
    }

    /// Output shape of linear layer `k`'s nonlinear bundle — what the
    /// next round's masks must cover.
    pub fn bundle_shape(&self, k: usize) -> &[usize] {
        &self.bundle_shapes[k]
    }

    /// The level linear layer `k` runs at: its round's `level`.
    pub fn level(&self, k: usize) -> usize {
        self.rounds[k].level
    }

    /// Human-readable rotation-plan label of linear layer `k`: its
    /// round's `plan`.
    pub fn plan_label(&self, k: usize) -> String {
        self.rounds[k].plan.clone()
    }

    /// Number of ciphertexts linear layer `k` ships per masked download
    /// (one, unless a convolution's output channels overflow a row): its
    /// round's `outputs`.
    pub fn output_ciphertexts(&self, k: usize) -> usize {
        self.rounds[k].outputs
    }

    /// Output tensor shape of linear layer `k` (before its bundle).
    pub fn output_shape(&self, k: usize) -> Vec<usize> {
        self.layers[k].output_shape()
    }

    /// Packs a clear tensor into linear layer `k`'s input slot layout.
    ///
    /// # Errors
    ///
    /// Propagates encoding errors for out-of-range values.
    pub fn pack(&self, k: usize, t: &Tensor) -> Result<Plaintext> {
        self.layers[k].pack(t, &self.encoder)
    }

    /// Table-III noise prediction of linear layer `k` at its round's
    /// level, on an input other than the one its record assumed.
    pub(crate) fn noise_after(&self, k: usize, input: &NoiseEstimate) -> NoiseEstimate {
        let kernel = self.layers[k].kernel();
        kernel.noise_after(input, &self.params, self.rounds[k].level)
    }

    /// The level linear layer `k` runs at, its round's `level`, whatever
    /// `_input`. Kept only for `bench_e2e`, whose sources stay unchanged
    /// until the benchmark itself is revised; read
    /// [`PreparedModel::round`] instead.
    pub fn plan_level(&self, k: usize, _input: &NoiseEstimate) -> usize {
        self.rounds[k].level
    }

    /// Applies linear layer `k` homomorphically with a client's keys, out
    /// of a fresh `Scratch`: for a caller that holds none, such as the
    /// benchmark's frozen sources (`bench_e2e/layers.rs`). A session passes
    /// its own to [`PreparedModel::apply_with_scratch`].
    ///
    /// # Errors
    ///
    /// Propagates BFV errors ([`Error::MissingGaloisKey`] when `keys` does
    /// not cover the plan, noise/parameter errors otherwise).
    pub fn apply(&self, k: usize, ct: &Ciphertext, keys: &GaloisKeys) -> Result<Vec<Ciphertext>> {
        self.apply_with_scratch(k, ct, keys, &mut self.evaluator.new_scratch())
    }

    /// [`PreparedModel::apply`] with the layer's temporaries leased from
    /// the caller's `scratch` — the one a session already holds for its
    /// mask arithmetic — so they stay warm from layer to layer.
    ///
    /// # Errors
    ///
    /// As [`PreparedModel::apply`].
    pub fn apply_with_scratch(
        &self,
        k: usize,
        ct: &Ciphertext,
        keys: &GaloisKeys,
        scratch: &mut Scratch,
    ) -> Result<Vec<Ciphertext>> {
        let kernel = self.layers[k].kernel();
        kernel.apply_with_scratch(ct, &self.evaluator, keys, scratch)
    }

    /// Extracts linear layer `k`'s output tensor from per-ciphertext
    /// decoded slots: an FC element is the sum mod `t` of its windows of
    /// partial sums — of a masked download, a share of the sum.
    pub fn unpack(&self, k: usize, slot_vecs: &[Vec<i64>]) -> Tensor {
        self.layers[k].unpack(slot_vecs)
    }

    /// Packs a mask tensor to linear layer `k`'s output slot layout, one
    /// plaintext per output ciphertext: each element in the first of its
    /// windows, zero everywhere else, so
    /// `unpack(decrypt(out + pack_output_mask(m))) − m = y`. What a server
    /// ships is [`PreparedModel::draw_output_mask`]'s.
    ///
    /// # Errors
    ///
    /// Propagates encoding errors.
    pub fn pack_output_mask(&self, k: usize, mask: &Tensor) -> Result<Vec<Plaintext>> {
        self.pack_mask_with(k, mask, || 0)
    }

    /// One plaintext per output ciphertext of layer `k`, every slot but one
    /// per element — ciphertext by ciphertext, ascending — whatever `rest`
    /// yields: `mask[i]` goes out as additive shares mod `t` over element
    /// `i`'s windows, the later ones `rest`'s and the first the balancing
    /// share that makes them sum to `mask[i]`.
    fn pack_mask_with(
        &self,
        k: usize,
        mask: &Tensor,
        mut rest: impl FnMut() -> i64,
    ) -> Result<Vec<Plaintext>> {
        let layer = &self.layers[k];
        let mut balancing = vec![vec![false; self.encoder.slots()]; self.rounds[k].outputs];
        for i in 0..mask.len() {
            let (ct, windows) = layer.output_slot(i);
            if let Some(&first) = windows.first() {
                balancing[ct][first] = true;
            }
        }
        let mut values: Vec<Vec<i64>> = balancing
            .iter()
            .map(|slots| slots.iter().map(|&b| if b { 0 } else { rest() }).collect())
            .collect();
        let t = self.params.plain_modulus().value() as i64;
        for (i, &m) in mask.data().iter().enumerate() {
            let (ct, windows) = layer.output_slot(i);
            if let Some((&first, rest)) = windows.split_first() {
                let drawn: i64 = rest.iter().map(|&s| values[ct][s]).sum();
                values[ct][first] = center(m - drawn, t);
            }
        }
        values
            .iter()
            .map(|slots| self.encoder.encode_signed(slots))
            .collect()
    }

    /// Draws linear layer `k`'s download mask from the server's mask
    /// stream: the logical output mask `r` (uniform mod `t`; zeros on the
    /// final layer, whose prediction belongs to the client), shared over
    /// the download so that **every slot leaves under a fresh uniform draw
    /// or the balancing share of one**. An FC layer's rows are all partial
    /// pre-activation sums (both rows once it tiles), `fold` windows per
    /// output: `r_i` goes out as `fold − 1` uniform draws and the share that
    /// balances them to `r_i`, one per window; every other slot — the
    /// padding rows, the periods past the first, an untiled layer's empty
    /// second row, a convolution's gaps and spare blocks — takes a draw of
    /// its own, so no layout has to be trusted to be empty.
    ///
    /// What the client learns: the shares are independent and uniform, so
    /// all but one window of an output decrypt to uniform noise and the
    /// last is fixed by their sum — the client's view of an output is
    /// uniform conditioned on `y_i + r_i` (itself uniform) on a hidden
    /// layer, and on `y_i` (a uniform zero-sum sharing of nothing) on the
    /// final one. It sees the prediction and no individual partial sum.
    /// Returns `r` and the packed plaintexts to add, one per output
    /// ciphertext.
    ///
    /// # Errors
    ///
    /// Propagates encoding errors.
    pub fn draw_output_mask(
        &self,
        k: usize,
        rng: &mut impl Rng,
    ) -> Result<(Tensor, Vec<Plaintext>)> {
        let half_t = (self.params.plain_modulus().value() / 2) as i64;
        let shape = self.output_shape(k);
        let mask = if k + 1 == self.layers.len() {
            Tensor::zeros(&shape)
        } else {
            let len = shape.iter().product();
            let data = (0..len)
                .map(|_| rng.random_range(-half_t..=half_t))
                .collect();
            Tensor::from_data(&shape, data)
        };
        let packed = self.pack_mask_with(k, &mask, || rng.random_range(-half_t..=half_t))?;
        Ok((mask, packed))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A hidden and a final FC layer, their 6 and 3 outputs in `fold = 8`
    /// windows each, behind a convolution with two 36-pixel images in
    /// 64-slot blocks (one slot an element).
    fn shared_net() -> Network {
        Network {
            name: "shared".into(),
            input_shape: vec![2, 6, 6],
            layers: vec![
                Layer::conv("conv", 6, 3, 2, 2, 1, 1),
                Layer::Relu,
                Layer::MaxPool { k: 3, stride: 3 },
                Layer::Flatten,
                Layer::fc("fc1", 8, 6),
                Layer::Relu,
                Layer::fc("fc2", 6, 3),
            ],
        }
    }

    #[test]
    fn mask_shares_sum_to_the_element_and_draw_every_other_slot_once() {
        let net = shared_net();
        let params = BfvParams::preset_rns_3x36(4096).unwrap();
        let prepared = PreparedModel::new(&net, &Weights::random(&net, 2, 5), params).unwrap();
        let t = prepared.params.plain_modulus().value() as i64;
        let half_t = t / 2;
        let mut rng = StdRng::seed_from_u64(0x5a4e);
        for k in 0..prepared.linear_count() {
            let layer = &prepared.layers[k];
            let shape = prepared.output_shape(k);
            let len: usize = shape.iter().product();
            let windows = layer.output_slot(0).1.len();
            assert_eq!(windows > 1, k > 0, "{}", prepared.round(k).plan);
            // Random masks, and the ends of the centred range on every
            // element.
            for case in 0..4 {
                let data: Vec<i64> = match case {
                    0 => vec![half_t; len],
                    1 => vec![-half_t; len],
                    _ => (0..len)
                        .map(|_| rng.random_range(-half_t..=half_t))
                        .collect(),
                };
                let mask = Tensor::from_data(&shape, data);
                let mut draws = 0usize;
                let packed = prepared
                    .pack_mask_with(k, &mask, || {
                        draws += 1;
                        rng.random_range(-half_t..=half_t)
                    })
                    .unwrap();
                assert_eq!(packed.len(), prepared.round(k).outputs);
                let slots = prepared.encoder.slots();
                assert_eq!(draws, packed.len() * slots - len, "layer {k}");
                let decoded: Vec<Vec<i64>> = packed
                    .iter()
                    .map(|pt| prepared.encoder.decode_signed(pt))
                    .collect();
                // What the client adds up is the mask itself …
                assert_eq!(prepared.unpack(k, &decoded).data(), mask.data());
                // … share by share, each inside the centred range.
                for (i, &m) in mask.data().iter().enumerate() {
                    let (ct, shares) = layer.output_slot(i);
                    let sum: i64 = shares.iter().map(|&s| decoded[ct][s]).sum();
                    assert_eq!(center(sum, t), m, "layer {k} element {i}");
                }
                assert!(decoded.iter().flatten().all(|v| v.abs() <= half_t));
                // With nothing drawn the first window carries the element
                // and every other slot is zero: the replayable form.
                let bare = prepared.pack_output_mask(k, &mask).unwrap();
                let bare: Vec<Vec<i64>> = bare
                    .iter()
                    .map(|pt| prepared.encoder.decode_signed(pt))
                    .collect();
                assert_eq!(prepared.unpack(k, &bare).data(), mask.data());
                let nonzero = bare.iter().flatten().filter(|&&v| v != 0).count();
                assert_eq!(nonzero, mask.data().iter().filter(|&&m| m != 0).count());
            }
        }
    }
}
