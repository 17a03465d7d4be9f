//! Homomorphic 2-D convolution with input *and* output channels packed:
//! the layout that turns it into the shared Baby-Step-Giant-Step kernel
//! ([`super::PreparedKernel`]) — hoisted tap baby steps, channel
//! block-diagonal giant steps — writing every output channel into one
//! ciphertext (Fig. 4 of the paper, on the real BFV engine).
//!
//! # Layout
//!
//! A channel owns a **block** of `s = next_pow2(w²)` row slots, its `w × w`
//! image row-major in the first `w²` of them. The client packs the
//! `c_i' = next_pow2(c_i)` input blocks (zeros past `c_i`) and tiles that
//! `c_i'·s`-slot pattern across the whole row, so a row rotation by `d·s`
//! is a rotation of the channels mod `c_i'` in every block at once. Output
//! channel `o` lands in block `o` of a single ciphertext — `⌈c_o·s / row⌉`
//! ciphertexts when the outputs overflow a row, output `o` then in block
//! `o mod (row/s)` of ciphertext `o / (row/s)`.
//!
//! # The kernel
//!
//! Channel block-diagonal `d < c_i'` pairs output block `o` with input
//! channel `(o + d) mod c_i'`; tap `(dy, dx)` reads the input rotated by
//! `off = dy·w + dx`. With `M_{d,tap}` the plaintext that carries
//! `f[o][(o + d) mod c_i'][tap]` in output block `o` (zero where the tap
//! reads across the image border — the "selectively adding zeros" of §V-B
//! — and where the channel is padding):
//!
//! ```text
//! out = Σ_d rot( Σ_tap M_{d,tap} ⊙ rot(x, off_tap), d·s )
//! ```
//!
//! Writing `d = u·b + v` (`v < b` baby, `u < g` giant, `b·g ≥ c_i'`):
//!
//! ```text
//! out = Σ_u rot( Σ_{v,tap} M_{ub+v,tap} ⊙ rot(x, off_tap + v·s), u·b·s )
//! ```
//!
//! which is [`BsgsPlan`]'s sum with one chain per output ciphertext, baby
//! step `off_tap + v·s` for mask `(v, tap)` of a group, a giant index worth
//! `b·s` slots, and the giant steps accumulated by Horner over the live
//! groups (`acc ← rot(acc, (u − u′)·b·s) + inner_{u′}` from the last live
//! group down), so a chain with no dead group between live ones uses the
//! **one** Galois key `b·s`; [`super::PreparedKernel`] runs it. This file
//! only lays the masks out: each is pre-rotated by its group's `u·b·s` on
//! the plaintext at preparation time (free). Only live `(d, tap)` masks
//! are prepared ([`ConvStructure`]): a baby step no live mask reads is
//! never replayed, a group with no live mask adds nothing and is never
//! rotated through (the running sum jumps the gap in one rotation), and an
//! output ciphertext with no live mask is a transparent zero.
//! [`ConvPlan::choose`] picks the baby width from [`HeCostParams`] — the
//! one chooser the engine and the chain solver share; a layer takes no
//! schedule argument.
//!
//! # Which slots are garbage
//!
//! None: only the first `w²` slots of blocks `o < c_o` are the layer's
//! result, and every other slot is **zero**. A mask is nonzero only where
//! its group's giant rotation carries an output pixel from, so the
//! `s − w²` slots behind an image, the blocks past `c_o` and the second
//! row never receive a product (the FC kernel, whose diagonals fill the
//! row, leaves copies of its outputs there). `cheetah-serve` still adds
//! fresh uniform blinding to every slot that is not an output pixel before
//! a download leaves the server — a download's slots are all drawn from
//! the mask stream, whatever the layer wrote there.
//!
//! Constraints: stride 1, odd filter narrower than `2w` with 'same'
//! padding, and `c_i'·s ≤ n/2` (one input tile per row).

use std::ops::{Deref, Range};

use cheetah_bfv::{
    BatchEncoder, Ciphertext, Error, Evaluator, GaloisKeys, Plaintext, Result, Scratch,
};
use cheetah_nn::{ConvSpec, Tensor};

use crate::cost::HeCostParams;
use crate::linear::PreparedKernel;
use crate::sparse::{BsgsGroup, BsgsPlan, ConvStructure};

/// The whole plan of one convolution: the block layout and the BSGS kernel
/// over the `c_i'` channel block-diagonals — which masks of it are live,
/// per output ciphertext. [`HomConv2d`] executes exactly this and the chain
/// solver prices exactly this. Dereferences to its kernel plan: rotations,
/// Galois steps, integer-multiply counts and the noise prediction are
/// [`BsgsPlan`]'s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConvPlan {
    /// Slots per channel block, `s = next_pow2(w²)`.
    pub stride: usize,
    /// Channel block-diagonals `c_i' = next_pow2(c_i)`.
    pub diagonals: usize,
    /// Channel blocks per ciphertext row.
    pub per_ct: usize,
    /// Taps per filter, `fw²`.
    taps: usize,
    /// The kernel's baby/giant split (`b` diagonals per giant group,
    /// `g = ⌈c_i' / b⌉` groups) and which of its steps are live.
    pub kernel: BsgsPlan,
}

impl ConvPlan {
    /// The plan for a fixed baby width `b ≥ 1` over `s`, the structure of
    /// `spec`'s weights, on rows of `row` slots. A shape too wide for the
    /// row is planned as if the row held one input tile, so the chain
    /// solver can price any layer.
    pub fn for_structure(spec: &ConvSpec, row: usize, s: &ConvStructure, b: usize) -> Self {
        assert!(b >= 1, "degenerate baby width");
        let stride = (spec.w * spec.w).next_power_of_two();
        let diagonals = s.diagonals();
        let per_ct = (row / stride).max(diagonals);
        let wrap = (per_ct * stride) as i64;
        let (w, fw, r) = (spec.w as i64, spec.fw, (spec.fw / 2) as i64);
        let g = diagonals.div_ceil(b);
        let chains = (0..spec.co.div_ceil(per_ct)).map(|q| {
            let groups = (0..g).filter_map(|u| {
                let steps: Vec<i64> = live_cells(s, outputs_of(spec, per_ct, q), u, b)
                    .map(|(v, tap)| {
                        let off = ((tap / fw) as i64 - r) * w + (tap % fw) as i64 - r;
                        (off + (v * stride) as i64).rem_euclid(wrap)
                    })
                    .collect();
                (!steps.is_empty()).then_some(BsgsGroup { u, steps })
            });
            groups.collect()
        });
        Self {
            stride,
            diagonals,
            per_ct,
            taps: s.taps(),
            kernel: BsgsPlan::new(b, g, b * stride, chains.collect()),
        }
    }

    /// Picks the baby width under `cost`: minimizes the rotations' bill
    /// ([`BsgsPlan::rotation_mults`]) plus one direct rotation per Galois
    /// key the plan needs, over `b ∈ 1..=c_i'`, keeping the smaller width
    /// unless a wider one is a strict improvement. Both layer kinds meet
    /// their groups by Horner, but only this chooser charges keys: a
    /// convolution's baby steps `off_tap + v·s` are keys no other layer
    /// reads, so every one past the tap set is a key a client generates
    /// and uploads once per session at about a direct rotation's price,
    /// while an FC layer's steps `1..b` plus `b` are a prefix its model's
    /// narrower FC layers share, which a per-layer charge would count
    /// again for each of them. `b` stays 1 while `c_i'` is near `fw²` and
    /// grows past it.
    pub fn choose(spec: &ConvSpec, row: usize, s: &ConvStructure, cost: &HeCostParams) -> Self {
        let price = |plan: &Self| {
            plan.rotation_mults(cost) + plan.rotation_steps().len() as u64 * cost.he_rotate_mults()
        };
        let mut best = Self::for_structure(spec, row, s, 1);
        let mut best_price = price(&best);
        for b in 2..=s.diagonals() {
            let cand = Self::for_structure(spec, row, s, b);
            let p = price(&cand);
            if p < best_price {
                best_price = p;
                best = cand;
            }
        }
        best
    }

    /// Human-readable label for transcripts, reports and solver plans:
    /// `conv packed b=.. g=.. live=../.. out=..` — live masks over the
    /// `c_i'·fw²` per output ciphertext, then the output ciphertexts.
    pub fn label(&self) -> String {
        format!(
            "conv packed b={} g={} live={}/{} out={}",
            self.b,
            self.g,
            self.live_masks(),
            self.diagonals * self.taps * self.outputs(),
            self.outputs()
        )
    }
}

impl Deref for ConvPlan {
    type Target = BsgsPlan;

    fn deref(&self) -> &BsgsPlan {
        &self.kernel
    }
}

/// A prepared homomorphic convolution layer.
#[derive(Debug)]
pub struct HomConv2d {
    spec: ConvSpec,
    plan: ConvPlan,
    /// `plan.kernel` with one mask per live `(d, tap)`.
    kernel: PreparedKernel,
}

/// The output channels ciphertext `q` carries, `per_ct` to a ciphertext.
fn outputs_of(spec: &ConvSpec, per_ct: usize, q: usize) -> Range<usize> {
    q * per_ct..spec.co.min((q + 1) * per_ct)
}

/// The live `(v, tap)` masks of giant group `u` at baby width `b` for the
/// ciphertext carrying output channels `outputs`, ascending: mask `j` of
/// the group in the kernel plan and in the prepared kernel alike.
fn live_cells(
    s: &ConvStructure,
    outputs: Range<usize>,
    u: usize,
    b: usize,
) -> impl Iterator<Item = (usize, usize)> + '_ {
    let taps = s.taps();
    (0..b.min(s.diagonals() - u * b) * taps)
        .map(move |i| (i / taps, i % taps))
        .filter(move |&(v, tap)| s.mask_live(outputs.clone(), u * b + v, tap))
}

/// The typed refusals every constructor shares.
fn check_shape(spec: &ConvSpec, weights: &Tensor, encoder: &BatchEncoder) -> Result<()> {
    if spec.stride != 1 {
        return Err(Error::Unsupported("HomConv2d needs stride 1"));
    }
    if spec.fw % 2 != 1 || spec.pad != spec.fw / 2 || spec.fw / 2 >= spec.w {
        return Err(Error::Unsupported(
            "HomConv2d needs an odd filter narrower than 2w with 'same' padding",
        ));
    }
    if weights.shape() != [spec.co, spec.ci, spec.fw, spec.fw] {
        return Err(Error::Unsupported(
            "conv weight tensor shape does not match the spec",
        ));
    }
    check_fits(spec, encoder)
}

/// One input tile — `c_i'` blocks of `s` slots — must fit a row.
fn check_fits(spec: &ConvSpec, encoder: &BatchEncoder) -> Result<()> {
    let tile = spec.ci.next_power_of_two() * (spec.w * spec.w).next_power_of_two();
    if tile > encoder.row_size() {
        return Err(Error::TooManyValues {
            given: tile,
            slots: encoder.row_size(),
        });
    }
    Ok(())
}

/// Slot mask of `(d = shift + v, tap)` for output ciphertext `q`, laid out
/// to multiply the input rotated by the cell's baby step ahead of a
/// rotation by `shift·s`: the block that rotation carries into output
/// block `o` holds `f[o][(o + d) mod c_i'][tap]` at every pixel whose tap
/// source lies inside the image. `shift = u·b` for a member of giant group
/// `u`.
fn conv_mask(
    spec: &ConvSpec,
    weights: &Tensor,
    plan: &ConvPlan,
    q: usize,
    shift: usize,
    (v, tap): (usize, usize),
    slots: usize,
) -> Vec<i64> {
    let (w, r) = (spec.w as i64, (spec.fw / 2) as i64);
    let (dy, dx) = ((tap / spec.fw) as i64 - r, (tap % spec.fw) as i64 - r);
    let mut mask = vec![0i64; slots];
    for o in outputs_of(spec, plan.per_ct, q) {
        let c = (o + shift + v) % plan.diagonals;
        if c >= spec.ci {
            continue;
        }
        let f = weights.data()[(o * spec.ci + c) * plan.taps + tap];
        if f == 0 {
            continue;
        }
        let block = (o + shift) % plan.per_ct * plan.stride;
        for y in (-dy).max(0)..w.min(w - dy) {
            for x in (-dx).max(0)..w.min(w - dx) {
                mask[block + (y * w + x) as usize] = f;
            }
        }
    }
    mask
}

impl HomConv2d {
    /// Prepares the layer (encodes and NTT-transforms every live
    /// `(d, tap)` mask), choosing the baby width from the parameter set's
    /// cost model via [`ConvPlan::choose`].
    ///
    /// `weights` has shape `(co, ci, fw, fw)`.
    ///
    /// # Errors
    ///
    /// [`Error::Unsupported`] unless the spec has stride 1, an odd filter
    /// narrower than `2w` and padding `f_w/2` and the weights are
    /// `(co, ci, fw, fw)`; [`Error::TooManyValues`] when one input tile
    /// `next_pow2(c_i)·next_pow2(w²)` exceeds the row; propagates encoding
    /// errors.
    pub fn new(
        spec: &ConvSpec,
        weights: &Tensor,
        encoder: &BatchEncoder,
        eval: &Evaluator,
    ) -> Result<Self> {
        Self::new_at_level(spec, weights, encoder, eval, 0)
    }

    /// [`HomConv2d::new`] with the level the layer is planned to run at:
    /// the cost model prices rotations over the limbs live there.
    ///
    /// # Errors
    ///
    /// As [`HomConv2d::new`].
    pub fn new_at_level(
        spec: &ConvSpec,
        weights: &Tensor,
        encoder: &BatchEncoder,
        eval: &Evaluator,
        level: usize,
    ) -> Result<Self> {
        check_shape(spec, weights, encoder)?;
        let cost = HeCostParams::for_bfv(eval.params(), level);
        let structure = ConvStructure::analyze_tensor(weights, spec);
        let plan = ConvPlan::choose(spec, encoder.row_size(), &structure, &cost);
        Self::build(spec, weights, encoder, eval, &structure, plan)
    }

    /// Test/benchmark hook: prepares the layer under baby width `baby`
    /// (trimmed to the `c_i'` diagonals) instead of the cost model's
    /// choice.
    ///
    /// # Errors
    ///
    /// As [`HomConv2d::new`], plus [`Error::Unsupported`] for `baby = 0`.
    pub fn with_baby_width(
        spec: &ConvSpec,
        weights: &Tensor,
        encoder: &BatchEncoder,
        eval: &Evaluator,
        baby: usize,
    ) -> Result<Self> {
        check_shape(spec, weights, encoder)?;
        if baby == 0 {
            return Err(Error::Unsupported("forced conv baby width must be >= 1"));
        }
        let structure = ConvStructure::analyze_tensor(weights, spec);
        let b = baby.min(structure.diagonals());
        let plan = ConvPlan::for_structure(spec, encoder.row_size(), &structure, b);
        Self::build(spec, weights, encoder, eval, &structure, plan)
    }

    /// Encodes and prepares one plaintext per mask `plan` — planned over
    /// `structure` — calls live. The shape was checked by the caller.
    fn build(
        spec: &ConvSpec,
        weights: &Tensor,
        encoder: &BatchEncoder,
        eval: &Evaluator,
        structure: &ConvStructure,
        plan: ConvPlan,
    ) -> Result<Self> {
        let masks_of = |q, group: &BsgsGroup| {
            let outputs = outputs_of(spec, plan.per_ct, q);
            let cells = live_cells(structure, outputs, group.u, plan.b);
            let masks = cells.map(|cell| {
                let shift = group.u * plan.b;
                let mask = conv_mask(spec, weights, &plan, q, shift, cell, encoder.slots());
                encoder.encode_signed(&mask)
            });
            masks.collect()
        };
        let kernel = PreparedKernel::prepare(plan.kernel.clone(), plan.label(), eval, masks_of)?;
        Ok(Self {
            spec: spec.clone(),
            plan,
            kernel,
        })
    }

    /// The layer spec.
    pub fn spec(&self) -> &ConvSpec {
        &self.spec
    }

    /// The whole rotation plan this layer executes.
    pub fn conv_plan(&self) -> &ConvPlan {
        &self.plan
    }

    /// The prepared kernel [`HomConv2d::apply_with_scratch`] runs: the
    /// plan's kernel with this layer's masks.
    pub fn kernel(&self) -> &PreparedKernel {
        &self.kernel
    }

    /// The exact rotation steps this prepared layer performs
    /// ([`BsgsPlan::rotation_steps`]): generate Galois keys for these and
    /// nothing more.
    pub fn rotation_steps(&self) -> Vec<i64> {
        self.plan.rotation_steps()
    }

    /// Packs an input tensor `(ci, w, w)` into a plaintext: channel `c` in
    /// block `c` of a `c_i'`-block tile, the tile repeated across the
    /// whole first row.
    ///
    /// # Errors
    ///
    /// [`Error::Unsupported`] when the tensor is not `(ci, w, w)`;
    /// [`Error::TooManyValues`] when a tile exceeds the row; propagates
    /// encoding errors.
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
        check_fits(spec, encoder)?;
        let w2 = spec.w * spec.w;
        let stride = w2.next_power_of_two();
        let tile = spec.ci.next_power_of_two() * stride;
        let mut slots = vec![0i64; encoder.row_size()];
        for (i, slot) in slots.iter_mut().enumerate() {
            let (c, pixel) = (i % tile / stride, i % stride);
            if c < spec.ci && pixel < w2 {
                *slot = input.data()[c * w2 + pixel];
            }
        }
        encoder.encode_signed(&slots)
    }

    /// Applies the convolution: [`BsgsPlan::outputs`] ciphertexts, output
    /// channel `o` at [`HomConv2d::output_slot`], every other slot zero. An
    /// output ciphertext with no live mask is a transparent zero. Every
    /// temporary is leased from `scratch` and handed back
    /// ([`PreparedKernel::apply_with_scratch`]), so a session that keeps
    /// one `Scratch` across layers faults its workspace in once.
    ///
    /// # Errors
    ///
    /// Propagates BFV evaluation errors (missing Galois keys, parameter
    /// mismatches).
    pub fn apply_with_scratch(
        &self,
        input: &Ciphertext,
        eval: &Evaluator,
        keys: &GaloisKeys,
        scratch: &mut Scratch,
    ) -> Result<Vec<Ciphertext>> {
        self.kernel.apply_with_scratch(input, eval, keys, scratch)
    }

    /// Where output pixel `pixel` (row-major, `< w²`) of channel `o`
    /// lands: `(ciphertext, slot)`.
    pub fn output_slot(&self, o: usize, pixel: usize) -> (usize, usize) {
        let per_ct = self.plan.per_ct;
        (o / per_ct, o % per_ct * self.plan.stride + pixel)
    }

    /// Extracts the `(co, w, w)` output tensor from the decoded slots of
    /// every output ciphertext, in order.
    pub fn decode_output(&self, slot_vecs: &[Vec<i64>]) -> Tensor {
        let (co, w) = (self.spec.co, self.spec.w);
        let data = (0..co * w * w).map(|i| {
            let (ct, slot) = self.output_slot(i / (w * w), i % (w * w));
            slot_vecs[ct][slot]
        });
        Tensor::from_data(&[co, w, w], data.collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheetah_bfv::{BfvParams, Decryptor, Encryptor, KeyGenerator, OpCounts};
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
        kg: KeyGenerator,
    }

    fn ctx_for(params: BfvParams) -> Ctx {
        let mut kg = KeyGenerator::from_seed(params.clone(), 41);
        let pk = kg.public_key().unwrap();
        Ctx {
            encoder: BatchEncoder::new(params.clone()),
            enc: Encryptor::from_public_key(pk, 42),
            dec: Decryptor::new(kg.secret_key().clone()),
            eval: Evaluator::new(params),
            kg,
        }
    }

    fn ctx() -> Ctx {
        ctx_for(
            BfvParams::builder()
                .degree(4096)
                .plain_bits(16)
                .cipher_bits(60)
                .a_dcmp(1 << 6)
                .build()
                .unwrap(),
        )
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

    fn encrypt(c: &mut Ctx, spec: &ConvSpec, input: &Tensor) -> Ciphertext {
        c.enc
            .encrypt(&HomConv2d::encode_input(spec, input, &c.encoder).unwrap())
            .unwrap()
    }

    /// Applies `layer` under keys for exactly its own steps; returns the
    /// decoded output tensor, the output ciphertexts and the op counts.
    fn run(c: &mut Ctx, layer: &HomConv2d, ct: &Ciphertext) -> (Tensor, Vec<Ciphertext>, OpCounts) {
        let keys = c.kg.galois_keys_for_steps(&layer.rotation_steps()).unwrap();
        c.eval.reset_op_counts();
        let outputs = layer
            .apply_with_scratch(ct, &c.eval, &keys, &mut c.eval.new_scratch())
            .unwrap();
        let counts = c.eval.op_counts();
        assert_eq!(outputs.len(), layer.conv_plan().outputs());
        let slot_vecs: Vec<Vec<i64>> = outputs
            .iter()
            .map(|out| {
                let budget = c.dec.invariant_noise_budget(out).unwrap();
                assert!(budget > 0.0, "budget exhausted ({budget:.1})");
                c.encoder.decode_signed(&c.dec.decrypt(out).unwrap())
            })
            .collect();
        (layer.decode_output(&slot_vecs), outputs, counts)
    }

    /// Random weights and input through the auto plan and every forced
    /// baby width: all equal the cleartext convolution.
    fn check_conv(spec: &ConvSpec) {
        let mut c = ctx();
        let weights = random_weights(spec, 1);
        let input = random_input(spec, 2);
        let expect = eval_linear(&LinearLayer::Conv(spec.clone()), &weights, &input);
        let ct = encrypt(&mut c, spec, &input);
        let auto = HomConv2d::new(spec, &weights, &c.encoder, &c.eval).unwrap();
        assert_eq!(run(&mut c, &auto, &ct).0, expect, "{:?}", auto.conv_plan());
        for b in 1..=spec.ci.next_power_of_two() {
            let layer = HomConv2d::with_baby_width(spec, &weights, &c.encoder, &c.eval, b).unwrap();
            let (out, _, counts) = run(&mut c, &layer, &ct);
            assert_eq!(out, expect, "b={b}");
            let plan = layer.conv_plan();
            assert_eq!(counts.mul as usize, plan.live_masks(), "b={b}");
            assert_eq!(counts.rotate as usize, plan.rotations(), "b={b}");
        }
    }

    #[test]
    fn conv_3x3_single_channel() {
        check_conv(&spec(8, 3, 1, 1));
    }

    #[test]
    fn conv_1x1_skips_the_hoist() {
        // A 1×1 filter has only the zero-offset tap: at b = 1 nothing
        // reads a rotated input, so the layer pays no hoist — only the one
        // Horner rotation that brings channel diagonal 1 home.
        let s = spec(8, 1, 2, 2);
        check_conv(&s);
        let mut c = ctx();
        let weights = random_weights(&s, 8);
        let ct = encrypt(&mut c, &s, &random_input(&s, 9));
        let layer = HomConv2d::new(&s, &weights, &c.encoder, &c.eval).unwrap();
        let plan = layer.conv_plan();
        assert_eq!((plan.b, plan.g), (1, 2), "hoist + replay ties a rotation");
        assert!(plan.baby_steps().is_empty());
        let (_, outputs, counts) = run(&mut c, &layer, &ct);
        assert_eq!(outputs.len(), 1, "both output channels in one ciphertext");
        let params = c.eval.params();
        let planes = (params.l_ct_at(0) as u64 + 1) * params.limbs() as u64;
        assert_eq!((counts.mul, counts.rotate), (2, 1));
        assert_eq!(counts.ntt, planes, "no hoist for a 1×1 tap set");
    }

    #[test]
    fn conv_3x3_multi_channel_power_of_two() {
        check_conv(&spec(8, 3, 4, 2));
    }

    #[test]
    fn conv_3x3_non_power_of_two_channels() {
        // s = 64 > w² = 36 and c_i' = 4 > c_i = 3: gaps and a padding
        // channel; then c_o > c_i' too.
        check_conv(&spec(6, 3, 3, 2));
        check_conv(&spec(6, 3, 3, 7));
    }

    #[test]
    fn conv_5x5_filter() {
        check_conv(&spec(8, 5, 2, 1));
    }

    #[test]
    fn outputs_overflowing_a_row_split_across_ciphertexts() {
        // 16×16 images: 8 blocks a row, 12 outputs — 8 and 4.
        let s = spec(16, 3, 2, 12);
        let mut c = ctx();
        let weights = random_weights(&s, 21);
        let input = random_input(&s, 22);
        let expect = eval_linear(&LinearLayer::Conv(s.clone()), &weights, &input);
        let layer = HomConv2d::new(&s, &weights, &c.encoder, &c.eval).unwrap();
        let plan = layer.conv_plan();
        assert_eq!((plan.per_ct, plan.outputs()), (8, 2));
        assert_eq!(layer.output_slot(9, 5), (1, 256 + 5));
        assert_eq!(plan.label(), "conv packed b=1 g=2 live=36/36 out=2");
        let ct = encrypt(&mut c, &s, &input);
        let (out, outputs, counts) = run(&mut c, &layer, &ct);
        assert_eq!(out, expect);
        assert_eq!(outputs.len(), 2);
        // The tap replays are shared; each ciphertext runs its own chain.
        assert_eq!((counts.mul, counts.rotate), (36, 8 + 2));
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
        let mut c = ctx_for(params.clone());
        let weights = random_weights(&s, 10);
        let input = random_input(&s, 11);
        let expect = eval_linear(&LinearLayer::Conv(s.clone()), &weights, &input);
        let layer = HomConv2d::new(&s, &weights, &c.encoder, &c.eval).unwrap();
        let ct = encrypt(&mut c, &s, &input);

        let (full, _, full_counts) = run(&mut c, &layer, &ct);
        let mut switched = ct.clone();
        c.eval.mod_switch_to_next_assign(&mut switched).unwrap();
        assert_eq!(switched.level(), 1);
        let (low, low_cts, low_counts) = run(&mut c, &layer, &switched);
        assert!(
            low_counts.ntt < full_counts.ntt,
            "reduced level must do less NTT work: {} vs {}",
            low_counts.ntt,
            full_counts.ntt
        );
        assert_eq!(full, expect);
        assert_eq!(low, expect, "diverged at the reduced level");

        let predicted = layer.kernel().noise_after(switched.noise(), &params, 1);
        for out in &low_cts {
            assert_eq!(out.level(), 1, "outputs stay at the input's level");
            // The engine-tracked noise stays under the planner's model.
            assert!(out.noise().bound_log2 <= predicted.bound_log2 + 1e-9);
        }
    }

    #[test]
    fn sparse_conv_skips_dead_taps_and_channels() {
        // Output 0: only the center tap of channels 0 and 2 (diagonals 0
        // and 2); output 1: fully dead. Two masks, no tap rotation, and at
        // b = 1 the two live diagonals sit two giant steps apart: Horner
        // jumps the dead index between them in one rotation, by 2·s.
        let s = spec(8, 3, 4, 2);
        let mut c = ctx();
        let taps = s.fw * s.fw;
        let mut w = vec![0i64; s.co * s.ci * taps];
        w[4] = 3; // (o=0, c=0, center tap)
        w[2 * taps + 4] = -5; // (o=0, c=2, center tap)
        let weights = Tensor::from_data(&[s.co, s.ci, s.fw, s.fw], w);
        let input = random_input(&s, 12);
        let expect = eval_linear(&LinearLayer::Conv(s.clone()), &weights, &input);

        let layer = HomConv2d::new(&s, &weights, &c.encoder, &c.eval).unwrap();
        let plan = layer.conv_plan();
        assert_eq!(plan.label(), "conv packed b=1 g=4 live=2/36 out=1");
        assert!(plan.baby_steps().is_empty(), "only the center tap is live");
        assert_eq!(layer.rotation_steps(), vec![128], "the one giant key");
        let ct = encrypt(&mut c, &s, &input);
        let (out, _, counts) = run(&mut c, &layer, &ct);
        assert_eq!(out, expect);
        assert_eq!((counts.mul, counts.rotate), (2, 1));

        // Pairing the diagonals up (b = 2) puts the two live ones one giant
        // step of 2·s apart: the same rotation on the same key, so the
        // chooser keeps the smaller width.
        let layer = HomConv2d::with_baby_width(&s, &weights, &c.encoder, &c.eval, 2).unwrap();
        assert_eq!(
            layer.conv_plan().label(),
            "conv packed b=2 g=2 live=2/36 out=1"
        );
        assert_eq!(layer.rotation_steps(), vec![128]);
        let (out, _, counts) = run(&mut c, &layer, &ct);
        assert_eq!(out, expect);
        assert_eq!((counts.mul, counts.rotate), (2, 1));

        // An all-zero layer needs no key and does no work.
        let zero = Tensor::zeros(&[s.co, s.ci, s.fw, s.fw]);
        let layer = HomConv2d::new(&s, &zero, &c.encoder, &c.eval).unwrap();
        assert!(layer.conv_plan().is_empty() && layer.rotation_steps().is_empty());
        let (out, outputs, counts) = run(&mut c, &layer, &ct);
        assert!(out.data().iter().all(|&v| v == 0));
        assert_eq!((counts.mul, counts.rotate), (0, 0));
        assert_eq!(outputs[0].noise().bound_log2, f64::NEG_INFINITY);
    }

    #[test]
    fn sparse_conv_matches_cleartext_at_every_baby_width() {
        // Prune channel 1 of each output and the corner taps; outputs must
        // stay bit-identical to the cleartext reference, with the dead
        // corner taps never replayed.
        let s = spec(6, 3, 3, 2);
        let taps = s.fw * s.fw;
        let mut weights = random_weights(&s, 14);
        for (i, v) in weights.data_mut().iter_mut().enumerate() {
            let (ch, tap) = (i / taps % s.ci, i % taps);
            if ch == 1 || [0usize, 2, 6, 8].contains(&tap) {
                *v = 0;
            }
        }
        let input = random_input(&s, 15);
        let expect = eval_linear(&LinearLayer::Conv(s.clone()), &weights, &input);
        let mut c = ctx();
        let ct = encrypt(&mut c, &s, &input);
        for b in 1..=4 {
            let layer = HomConv2d::with_baby_width(&s, &weights, &c.encoder, &c.eval, b).unwrap();
            let plan = layer.conv_plan();
            let structure = ConvStructure::analyze_tensor(&weights, &s);
            let groups = plan.chains()[0].iter();
            let mut cells =
                groups.flat_map(|group| live_cells(&structure, 0..s.co, group.u, plan.b));
            assert!(cells.all(|(_, tap)| [1, 3, 4, 5, 7].contains(&tap)));
            let (out, _, counts) = run(&mut c, &layer, &ct);
            assert_eq!(out, expect, "b={b}");
            assert_eq!(counts.mul as usize, plan.live_masks());
            assert_eq!(counts.rotate as usize, plan.rotations());
        }
    }

    #[test]
    fn chooser_widens_the_baby_step_only_past_the_tap_set() {
        // b = 1 on the benchmark's layers (c_i' ≤ f_w²: a wider baby set
        // would cost f_w² more replays and keys per giant step saved); a
        // 3×3 layer over 32 channels, and a 1×1 over 8, split.
        let row = 2048;
        for params in [
            BfvParams::preset_rns_3x36(4096).unwrap(),
            BfvParams::preset_hybrid_2x36(4096).unwrap(),
        ] {
            for level in 0..2 {
                let cost = HeCostParams::for_bfv(&params, level);
                let choose = |s: &ConvSpec| {
                    ConvPlan::choose(s, row, &ConvStructure::dense(s.co, s.ci, s.fw), &cost)
                };
                let conv1 = choose(&spec(16, 3, 1, 8));
                assert_eq!((conv1.b, conv1.g, conv1.rotations()), (1, 1, 8));
                let conv2 = choose(&spec(8, 3, 8, 16));
                assert_eq!((conv2.b, conv2.g, conv2.rotations()), (1, 8, 15));
                assert_eq!(conv2.rotation_steps().len(), 9, "8 taps + the key 64");
                let wide = choose(&spec(8, 3, 32, 32));
                assert!(wide.b > 1, "32 diagonals over 9 taps: {}", wide.label());
                let pointwise = choose(&spec(8, 1, 8, 8));
                assert!(pointwise.b > 1, "{}", pointwise.label());
                // Whatever b, the giant steps share one key.
                for plan in [&wide, &pointwise] {
                    let giant = (plan.b * plan.stride) as i64;
                    let keys = plan.rotation_steps();
                    assert_eq!(keys.len(), plan.baby_steps().len() + 1);
                    assert_eq!(keys.last(), Some(&giant));
                }
            }
        }
    }

    #[test]
    fn oversized_layer_rejected() {
        let params = BfvParams::builder()
            .degree(4096)
            .plain_bits(20)
            .cipher_bits(60)
            .build()
            .unwrap();
        let encoder = BatchEncoder::new(params.clone());
        let eval = Evaluator::new(params);
        // 2·4096 slots against the 2048-slot row; and 40 channels of 6×6
        // are 1440 values but pad to 64 blocks of 64 slots.
        for s in [spec(64, 3, 2, 1), spec(6, 3, 40, 1)] {
            let weights = random_weights(&s, 7);
            assert!(matches!(
                HomConv2d::new(&s, &weights, &encoder, &eval),
                Err(Error::TooManyValues { .. })
            ));
            assert!(matches!(
                HomConv2d::encode_input(&s, &random_input(&s, 8), &encoder),
                Err(Error::TooManyValues { .. })
            ));
        }
    }

    #[test]
    fn malformed_layers_are_typed_errors_before_the_structure_scan() {
        // `ConvStructure::analyze` asserts on the weight length; the
        // constructors check the shape first, so it is never reached with
        // a mismatch.
        let c = ctx();
        let s = spec(8, 3, 2, 2);
        let good = random_weights(&s, 1);
        let unsupported = |spec: &ConvSpec, w: &Tensor| {
            matches!(
                HomConv2d::new(spec, w, &c.encoder, &c.eval),
                Err(Error::Unsupported(_))
            ) && matches!(
                HomConv2d::with_baby_width(spec, w, &c.encoder, &c.eval, 1),
                Err(Error::Unsupported(_))
            )
        };
        assert!(unsupported(&s, &Tensor::zeros(&[2, 2, 3])), "weight shape");
        assert!(unsupported(
            &ConvSpec {
                stride: 2,
                ..s.clone()
            },
            &good
        ));
        assert!(unsupported(
            &ConvSpec {
                pad: 0,
                ..s.clone()
            },
            &good
        ));
        assert!(unsupported(
            &spec(8, 2, 2, 2),
            &Tensor::zeros(&[2, 2, 2, 2])
        ));
        assert!(unsupported(
            &spec(2, 5, 1, 1),
            &Tensor::zeros(&[1, 1, 5, 5])
        ));
        assert!(matches!(
            HomConv2d::with_baby_width(&s, &good, &c.encoder, &c.eval, 0),
            Err(Error::Unsupported(_))
        ));
    }
}
