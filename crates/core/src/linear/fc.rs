//! Homomorphic fully connected layers: one Baby-Step-Giant-Step kernel
//! over the live **folded** diagonals, then one fold.
//!
//! # Layout
//!
//! The input is packed twice (`x ‖ x` in slots `[0, 2·n_i)`) so plain row
//! rotations act as rotations mod `n_i`. The weight matrix `W (n_o × n_i)`
//! is padded with zero rows to `n_o' = next_pow2(n_o)` (call it `W'`) and
//! split into its `n_o'` distinct generalized diagonals
//!
//! ```text
//! diag_k[j] = W'[j mod n_o'][(j + k) mod n_i]      k < n_o', j < n_i
//! ```
//!
//! (`diag_{k + m·n_o'}` is `diag_k` rotated by `m·n_o'`, so the other
//! `n_i − n_o'` carry nothing new). The kernel evaluates the partial
//! product over those only:
//!
//! ```text
//! y_part[j] = Σ_{k < n_o'} rot(x, k)[j] · diag_k[j]
//!           = Σ_{k < n_o'} W'[j mod n_o'][(j + k) mod n_i] · x[(j + k) mod n_i]
//! ```
//!
//! Slot `j` of `y_part` holds the part of row `j mod n_o'` over the `n_o'`
//! columns starting at `j`; the `n_i / n_o'` slots `j, j + n_o', …` of one
//! row tile all `n_i` columns between them.
//!
//! # The kernel
//!
//! Writing `k = u·b + v` (`v < b` baby, `u < g` giant, `b·g ≥ n_o'`):
//!
//! ```text
//! y_part = Σ_u rot( Σ_v rot(x, v) ⊙ rot⁻ᵘᵇ(diag_{ub+v}), u·b )
//! ```
//!
//! The baby rotations all read the *input*, so one hoist
//! ([`Evaluator::hoist_into`]) covers the whole set; the giant-step
//! pre-rotation of each diagonal happens on the plaintext mask at
//! preparation time (free); a group's inner sum `Σ_v` is one lazy pass
//! over its masks ([`Evaluator::mul_plain_accumulate_many`]: one Barrett
//! reduction per coefficient, not one per mask — same bits); only the
//! giant rotations of the group inner sums pay full NTT bills. Only
//! **live** diagonals carry a mask
//! ([`FcStructure`]): a baby step no live diagonal reads is never replayed,
//! a group with no live diagonal never summed or rotated, and the skipped
//! terms are zero polynomials, so the ciphertext is the one the all-live
//! evaluation of the same weights produces, bit for bit. When every live
//! weight is `±2^k` the shared factor is pulled out of the masks and
//! re-applied by one scalar multiply after the sum (exact mod `t`).
//!
//! That is the only kernel. A dense layer is its all-live case, and the
//! diagonal method of Fig. 5 is its two corners: `b = 1` multiplies the
//! fresh input by each pre-shifted diagonal and rotates the partial
//! product (Sched-PA's order), `b = n_o'` rotates the hoisted input once
//! per diagonal and rotates no sum (hoisted Sched-IA). The baby width is
//! chosen per layer from [`HeCostParams`] by [`FcPlan::choose`] — the one
//! chooser the engine and the chain solver share; a layer takes no
//! schedule argument.
//!
//! # The fold
//!
//! One rotate-and-sum under a [`ReducePlan`] gathers the partial copies:
//!
//! ```text
//! y = Σ_{m < n_i / n_o'} rot(y_part, m·n_o')        y[j] = (W·x)[j]  for j < n_o
//! ```
//!
//! For `j < n_o'` every term reads a slot below `n_i`, so nothing wraps. A
//! square layer (`n_o' = n_i`, fold 1) skips it and an `n_o'`-row layer
//! pays `n_o'` mask multiplies and `O(√n_o') + log2(n_i / n_o')`-ish
//! rotations, not `n_i` and `O(√n_i)`.
//!
//! # Which slots are garbage
//!
//! Only slots `[0, n_o)` of the output are the layer's result. Slots
//! `[n_o, n_o')` are zero (padding rows); slots `[n_o', n_i)` — and the
//! last `n_i − n_o'` slots of the row, where the fold's left rotations
//! wrap the head of `y_part` — hold **partial row sums**: some of a row's
//! `n_i / n_o'` pieces, short of the whole. They are linear functions of
//! the activations and the model. Nobody reads them, and the protocol
//! layer must not ship them in the clear: `cheetah-protocol` adds fresh
//! uniform blinding to every slot outside `[0, n_o)` before a download
//! leaves the server.
//!
//! Constraints: `n_i` a power of two, `1 ≤ n_o ≤ n_i`, `2·n_i ≤ n/2`.

use std::ops::Range;

use cheetah_bfv::{
    BatchEncoder, Ciphertext, Error, Evaluator, GaloisKeys, HoistedDecomposition, Plaintext,
    PreparedPlaintext, Result, Scratch,
};
use cheetah_nn::{FcSpec, Tensor};

use crate::cost::HeCostParams;
use crate::linear::parallel::{map_chunks, merge_partials, WorkerScratch};
use crate::linear::{rotate_sum_noise, rotate_sum_reduce, ReducePlan};
use crate::sparse::{BsgsPlan, FcStructure};

/// The whole rotation plan of one FC layer: the BSGS kernel over the `d`
/// folded diagonals plus the fold that gathers the `n_i / d` partial
/// copies. [`HomFc`] executes exactly this and the chain solver prices
/// exactly this — op counts, Galois steps and label all come from here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FcPlan {
    /// The kernel's baby/giant split and which of its steps are live.
    pub kernel: BsgsPlan,
    /// Folded diagonals `d = n_o'`: the fold's stride.
    pub diagonals: usize,
    /// Diagonals that carry a mask: the plaintext multiplies per
    /// evaluation.
    pub live: usize,
    /// Terms of the fold, `n_i / d` (1 on a square layer: no fold).
    pub fold: usize,
    /// How the fold's rotate-and-sum runs.
    pub fold_plan: ReducePlan,
}

impl FcPlan {
    /// Picks the cheapest plan under `cost`: the baby width minimizing the
    /// live rotations' bill ([`BsgsPlan::choose`]) and the cheapest
    /// [`ReducePlan`] for the fold.
    pub fn choose(s: &FcStructure, cost: &HeCostParams) -> Self {
        Self::with_kernel(s, BsgsPlan::choose(s, cost), cost)
    }

    /// The plan running `kernel` over `s`'s diagonals.
    fn with_kernel(s: &FcStructure, kernel: BsgsPlan, cost: &HeCostParams) -> Self {
        Self {
            kernel,
            diagonals: s.diagonals(),
            live: s.live_diagonals(),
            fold: s.fold(),
            fold_plan: ReducePlan::choose(s.fold(), cost),
        }
    }

    /// Rotations per evaluation — each step of
    /// [`FcPlan::rotation_steps`] exactly once.
    pub fn rotations(&self) -> usize {
        self.rotation_steps().len()
    }

    /// The exact rotation steps evaluation performs: the kernel's (all
    /// below `d`) then the fold's (multiples of `d`). An all-zero layer
    /// rotates by nothing.
    pub fn rotation_steps(&self) -> Vec<i64> {
        let mut steps = self.kernel.rotation_steps();
        if self.live > 0 && self.fold > 1 {
            steps.extend(self.fold_plan.steps(self.fold, self.diagonals as i64));
        }
        steps
    }

    /// Rotation-side integer multiplications under `cost`.
    pub fn rotation_mults(&self, cost: &HeCostParams) -> u64 {
        let kernel = self.kernel.rotation_mults(cost);
        if self.live == 0 {
            return kernel;
        }
        kernel + cost.reduce_plan_mults(self.fold_plan, self.fold)
    }

    /// All integer multiplications under `cost`: the mask multiplies plus
    /// the rotations.
    pub fn int_mults(&self, cost: &HeCostParams) -> u64 {
        self.live as u64 * cost.he_mult_mults() + self.rotation_mults(cost)
    }

    /// Human-readable label for transcripts, reports and solver plans:
    /// `fc bsgs b=.. g=.. live=../.. fold=..`.
    pub fn label(&self) -> String {
        format!(
            "fc bsgs b={} g={} live={}/{} fold={}",
            self.kernel.b, self.kernel.g, self.live, self.diagonals, self.fold
        )
    }
}

/// A prepared homomorphic FC layer.
#[derive(Debug)]
pub struct HomFc {
    spec: FcSpec,
    plan: FcPlan,
    /// `groups[i]` pairs with `plan.kernel.live_groups()[i]` and lists
    /// `(v, mask)` for the live diagonals `k = u·b + v` of that group;
    /// dead baby steps are never rotated, dead groups never touched.
    groups: Vec<Vec<(usize, PreparedPlaintext)>>,
    /// When positive, every live weight was `±2^k` and the shared factor
    /// `2^scale_log2` was pulled out of the masks, to be re-applied once
    /// after the merge.
    scale_log2: u32,
}

/// The typed refusals every constructor shares.
fn check_shape(spec: &FcSpec, weights: &Tensor, encoder: &BatchEncoder) -> Result<()> {
    if !spec.ni.is_power_of_two() {
        return Err(Error::Unsupported("HomFc needs a power-of-two n_i"));
    }
    if spec.no == 0 || spec.no > spec.ni {
        return Err(Error::Unsupported("HomFc needs 1 <= n_o <= n_i"));
    }
    if weights.shape() != [spec.no, spec.ni] {
        return Err(Error::Unsupported(
            "FC weight tensor shape does not match the spec",
        ));
    }
    if 2 * spec.ni > encoder.row_size() {
        return Err(Error::TooManyValues {
            given: 2 * spec.ni,
            slots: encoder.row_size(),
        });
    }
    Ok(())
}

/// Slot mask of folded diagonal `k = shift + v`, laid out to multiply the
/// input rotated by `v` ahead of a rotation by `shift`: support
/// `[shift, shift + n_i)`, so that after that rotation output position `j`
/// reads weight row `j mod n_o'` (zero past `n_o`) and input slot
/// `(j + k) mod n_i`. `shift = u·b` for the member of giant group `u`;
/// `v = 0` throughout at `b = 1`, `shift = 0` throughout at `b = d`.
/// Weights come divided by `2^scale_log2` (exact — the caller factored it
/// out of every one).
fn diagonal_mask(
    spec: &FcSpec,
    weights: &Tensor,
    shift: usize,
    v: usize,
    scale_log2: u32,
    slots: usize,
) -> Vec<i64> {
    let rows = spec.no.next_power_of_two();
    let mut mask = vec![0i64; slots];
    for (off, slot) in mask[shift..shift + spec.ni].iter_mut().enumerate() {
        let row = off % rows;
        if row < spec.no {
            *slot = weights.data()[row * spec.ni + (off + shift + v) % spec.ni] >> scale_log2;
        }
    }
    mask
}

impl HomFc {
    /// Prepares the layer (encodes and NTT-transforms every live folded
    /// diagonal), choosing the rotation plan from the parameter set's cost
    /// model via [`FcPlan::choose`].
    ///
    /// `weights` has shape `(no, ni)`.
    ///
    /// # Errors
    ///
    /// [`Error::Unsupported`] unless `n_i` is a power of two,
    /// `1 ≤ n_o ≤ n_i` and the weights are `(n_o, n_i)`;
    /// [`Error::TooManyValues`] when `2·n_i` exceeds the row size.
    pub fn new(
        spec: &FcSpec,
        weights: &Tensor,
        encoder: &BatchEncoder,
        eval: &Evaluator,
    ) -> Result<Self> {
        Self::new_at_level(spec, weights, encoder, eval, 0)
    }

    /// [`HomFc::new`] with the level the layer is planned to run at: the
    /// cost model prices rotations over the limbs actually live there, so
    /// a deep chain position can pick a different BSGS split than level 0.
    ///
    /// # Errors
    ///
    /// As [`HomFc::new`].
    pub fn new_at_level(
        spec: &FcSpec,
        weights: &Tensor,
        encoder: &BatchEncoder,
        eval: &Evaluator,
        level: usize,
    ) -> Result<Self> {
        check_shape(spec, weights, encoder)?;
        let cost = HeCostParams::for_bfv(eval.params(), level);
        let structure = FcStructure::analyze_tensor(weights, spec);
        let plan = FcPlan::choose(&structure, &cost);
        Self::build(spec, weights, encoder, eval, &structure, plan)
    }

    /// Test/benchmark hook: prepares the layer as if its weights had the
    /// structure `assume`, under baby width `baby` (trimmed to the `d`
    /// folded diagonals) instead of the cost model's choice.
    /// [`FcStructure::dense`] gives every diagonal a mask, dead or not;
    /// `baby = 1` is the diagonal method in Sched-PA's order, `baby = d`
    /// its hoisted Sched-IA form.
    ///
    /// # Errors
    ///
    /// As [`HomFc::new`], plus [`Error::Unsupported`] for `baby = 0` or an
    /// `assume` the weights do not fit: another shape, a live diagonal
    /// called dead, or a pow2 factor the weights do not share.
    pub fn with_forced_plan(
        spec: &FcSpec,
        weights: &Tensor,
        encoder: &BatchEncoder,
        eval: &Evaluator,
        assume: &FcStructure,
        baby: usize,
    ) -> Result<Self> {
        check_shape(spec, weights, encoder)?;
        let actual = FcStructure::analyze_tensor(weights, spec);
        let scale = assume.pow2_scale_log2().unwrap_or(0);
        let fits = (assume.no(), assume.ni()) == (spec.no, spec.ni)
            && (0..actual.diagonals()).all(|k| assume.is_live(k) || !actual.is_live(k))
            && (actual.all_zero() || actual.pow2_scale_log2().unwrap_or(0) >= scale);
        if baby == 0 || !fits {
            return Err(Error::Unsupported(
                "forced FC plan does not fit the weights",
            ));
        }
        let kernel = BsgsPlan::for_structure(assume, baby.min(assume.diagonals()));
        let cost = HeCostParams::for_bfv(eval.params(), 0);
        let plan = FcPlan::with_kernel(assume, kernel, &cost);
        Self::build(spec, weights, encoder, eval, assume, plan)
    }

    /// Encodes and prepares one mask per diagonal `structure` calls live,
    /// carrying `w / 2^m` when the structure factors a shared pow2 scale
    /// `m` out. The shape was checked by the caller.
    fn build(
        spec: &FcSpec,
        weights: &Tensor,
        encoder: &BatchEncoder,
        eval: &Evaluator,
        structure: &FcStructure,
        plan: FcPlan,
    ) -> Result<Self> {
        let (d, b) = (plan.diagonals, plan.kernel.b);
        let scale_log2 = structure.pow2_scale_log2().unwrap_or(0);
        let groups = plan
            .kernel
            .live_groups()
            .iter()
            .map(|&u| {
                let shift = u * b;
                (0..b.min(d - shift))
                    .filter(|&v| structure.is_live(shift + v))
                    .map(|v| {
                        let mask =
                            diagonal_mask(spec, weights, shift, v, scale_log2, encoder.slots());
                        let prepared = eval.prepare_plaintext(&encoder.encode_signed(&mask)?)?;
                        Ok((v, prepared))
                    })
                    .collect()
            })
            .collect::<Result<_>>()?;
        Ok(Self {
            spec: spec.clone(),
            plan,
            groups,
            scale_log2,
        })
    }

    /// The layer spec.
    pub fn spec(&self) -> &FcSpec {
        &self.spec
    }

    /// The whole rotation plan this layer executes: kernel, live
    /// diagonals, fold.
    pub fn fc_plan(&self) -> &FcPlan {
        &self.plan
    }

    /// The pow2 factor (as `log2`) pulled out of the masks, if any.
    pub fn pow2_scale_log2(&self) -> u32 {
        self.scale_log2
    }

    /// Conservative Table-III prediction of the layer's output noise at
    /// `level` (see `HomConv2d::noise_after`):
    /// [`cheetah_bfv::NoiseEstimate::bsgs_matvec_at`] over the live work —
    /// as many groups as are live, each as wide as the widest, every mask
    /// charged the worst norm — then the factored scale's multiply and the
    /// fold's rotate-and-sum transition on top. Upper-bounds the
    /// engine-tracked estimate of [`HomFc::apply`].
    pub fn noise_after(
        &self,
        input: &cheetah_bfv::NoiseEstimate,
        params: &cheetah_bfv::BfvParams,
        level: usize,
    ) -> cheetah_bfv::NoiseEstimate {
        if self.groups.is_empty() {
            return cheetah_bfv::NoiseEstimate::zero();
        }
        let masks = self.groups.iter().flatten().map(|(_, m)| m.inf_norm());
        let max_norm = masks.max().unwrap_or(1).max(1);
        let live_b = self.groups.iter().map(Vec::len).max().unwrap_or(1);
        let mut part = input.bsgs_matvec_at(params, level, live_b, self.groups.len(), 2 * max_norm);
        if self.scale_log2 > 0 {
            part = part.mul_plain_at(params, level, 1, 2 * (1u64 << self.scale_log2));
        }
        rotate_sum_noise(&part, params, level, self.plan.fold, self.plan.fold_plan)
    }

    /// Rotation steps an evaluation may need, whatever plan is chosen:
    /// kernel steps `1..d` over the `d = n_o'` folded diagonals plus the
    /// fold's multiples of `d` below `n_i`. Use [`HomFc::rotation_steps`]
    /// on a prepared layer for the exact plan-specific set.
    pub fn required_steps(spec: &FcSpec) -> Vec<i64> {
        let d = cheetah_nn::layer::folded_diagonals(spec.no, spec.ni);
        (1..d)
            .chain((d..spec.ni).step_by(d))
            .map(|s| s as i64)
            .collect()
    }

    /// The exact rotation steps this prepared layer performs
    /// ([`FcPlan::rotation_steps`]): generate Galois keys for these and
    /// nothing more.
    pub fn rotation_steps(&self) -> Vec<i64> {
        self.plan.rotation_steps()
    }

    /// Packs an input vector replicated twice (`x ‖ x`) so row rotations
    /// act as rotations mod `n_i`.
    ///
    /// # Errors
    ///
    /// [`Error::Unsupported`] when the input length is not `n_i`;
    /// propagates encoding errors.
    pub fn encode_input(
        spec: &FcSpec,
        input: &Tensor,
        encoder: &BatchEncoder,
    ) -> Result<Plaintext> {
        if input.len() != spec.ni {
            return Err(Error::Unsupported(
                "FC input length does not match the spec",
            ));
        }
        let mut doubled = Vec::with_capacity(2 * spec.ni);
        doubled.extend_from_slice(input.data());
        doubled.extend_from_slice(input.data());
        encoder.encode_signed(&doubled)
    }

    /// Applies the layer; the output vector lands in slots `[0, n_o)`
    /// (the module header says what the other slots hold).
    ///
    /// Hoists the input once and replays only the *live* baby steps, then
    /// fans the *live* giant groups across `threads` workers
    /// (`threads <= 1` runs fully inline), one scratch-owning worker per
    /// contiguous chunk of groups: each group forms its inner sum over the
    /// baby set in one lazy pass
    /// ([`Evaluator::mul_plain_accumulate_many`]) and pays exactly one
    /// direct rotation. Per-chunk partial sums merge in chunk order, and
    /// the scale and the fold run on the merged sum, so residues — and the
    /// decrypted output — are identical for every thread count. An
    /// all-zero layer returns a transparent zero without a single rotation
    /// or multiply.
    ///
    /// Works out of a fresh [`Scratch`]; a caller that evaluates layer
    /// after layer keeps one and calls [`HomFc::apply_with_scratch`].
    ///
    /// # Errors
    ///
    /// Propagates BFV evaluation errors.
    pub fn apply(
        &self,
        input: &Ciphertext,
        eval: &Evaluator,
        keys: &GaloisKeys,
        threads: usize,
    ) -> Result<Ciphertext> {
        self.apply_with_scratch(input, eval, keys, threads, &mut eval.new_scratch())
    }

    /// [`HomFc::apply`] with every temporary — the baby set, the hoist
    /// store, each worker's accumulators and key-switch digits — leased
    /// from `scratch` and handed back, so a session that keeps one
    /// `Scratch` across layers faults its workspace in once.
    ///
    /// # Errors
    ///
    /// Propagates BFV evaluation errors.
    pub fn apply_with_scratch(
        &self,
        input: &Ciphertext,
        eval: &Evaluator,
        keys: &GaloisKeys,
        threads: usize,
        scratch: &mut Scratch,
    ) -> Result<Ciphertext> {
        // The scratch-reuse hot path copies the input into evaluator-owned
        // buffers, so foreign ciphertexts must be rejected up front.
        eval.params().check_same(input.params())?;
        if self.groups.is_empty() {
            return Ok(Ciphertext::transparent_zero_at(
                eval.params(),
                input.level(),
            ));
        }
        // Leases outlive the evaluation so that an error path hands them
        // back too.
        let mut babies: Vec<Ciphertext> = Vec::new();
        let mut hoisted = scratch.take_hoisted(eval.params());
        let out = self.evaluate(
            input,
            eval,
            keys,
            threads,
            scratch,
            &mut babies,
            &mut hoisted,
        );
        babies.into_iter().for_each(|baby| scratch.put_ct(baby));
        scratch.put_hoisted(hoisted);
        out
    }

    /// The body of [`HomFc::apply_with_scratch`] over its leased baby set
    /// and hoist store.
    #[allow(clippy::too_many_arguments)] // the three trailing buffers are the shared scratch set
    fn evaluate(
        &self,
        input: &Ciphertext,
        eval: &Evaluator,
        keys: &GaloisKeys,
        threads: usize,
        scratch: &mut Scratch,
        babies: &mut Vec<Ciphertext>,
        hoisted: &mut HoistedDecomposition,
    ) -> Result<Ciphertext> {
        let level = input.level();
        let kernel = &self.plan.kernel;
        // Baby set, live steps only: baby_at[v] indexes into `babies` for
        // v in kernel.baby_steps(); v = 0 reads the unrotated input.
        let mut baby_at = vec![usize::MAX; kernel.b];
        if !kernel.baby_steps().is_empty() {
            let steps: Vec<i64> = kernel.baby_steps().iter().map(|&v| v as i64).collect();
            for (i, &v) in kernel.baby_steps().iter().enumerate() {
                baby_at[v] = i;
            }
            eval.rotate_set_hoisted_into(babies, input, &steps, keys, hoisted, scratch)?;
        }
        let babies = &*babies;
        let baby_at = &baby_at;
        let live_groups = kernel.live_groups();
        let workers = WorkerScratch::new(scratch);
        let sum_chunk = |range: Range<usize>, scratch: &mut Scratch| {
            let mut acc = Ciphertext::transparent_zero_at(eval.params(), level);
            let mut rotated = scratch.take_ct(eval.params(), level);
            let mut terms = Vec::new();
            for (i, masks) in range.clone().zip(&self.groups[range]) {
                let u = live_groups[i];
                // Group accumulator leased (zeroed) from the per-level
                // pool and returned after its sum folds into the partial,
                // so every group past the first recycles the same buffer.
                let mut inner = scratch.take_ct(eval.params(), level);
                terms.clear();
                terms.extend(masks.iter().map(|(v, mask)| {
                    let src = if *v == 0 { input } else { &babies[baby_at[*v]] };
                    (src, mask)
                }));
                eval.mul_plain_accumulate_many(&mut inner, &terms)?;
                if u == 0 {
                    eval.add_assign(&mut acc, &inner)?;
                } else {
                    eval.rotate_rows_into(
                        &mut rotated,
                        &inner,
                        (u * kernel.b) as i64,
                        keys,
                        scratch,
                    )?;
                    eval.add_assign(&mut acc, &rotated)?;
                }
                scratch.put_ct(inner);
            }
            scratch.put_ct(rotated);
            Ok(acc)
        };
        let partials = map_chunks(self.groups.len(), threads, |range| {
            workers.with(|scratch| sum_chunk(range, scratch))
        })?;
        drop(workers);
        let mut part = merge_partials(partials, eval)?;
        if self.scale_log2 > 0 {
            eval.mul_scalar_assign(&mut part, 1u64 << self.scale_log2)?;
        }
        if self.plan.fold == 1 {
            return Ok(part);
        }
        // The fold: y = Σ_m rot(y_part, m·d) gathers each row's partial
        // sums into slots [0, d).
        let mut rotated = scratch.take_ct(eval.params(), level);
        let folded = rotate_sum_reduce(
            part,
            self.plan.diagonals as i64,
            self.plan.fold,
            self.plan.fold_plan,
            eval,
            keys,
            scratch,
            &mut rotated,
            hoisted,
        );
        scratch.put_ct(rotated);
        folded
    }

    /// Extracts the output vector from decoded slots.
    pub fn decode_output(&self, slots: &[i64]) -> Tensor {
        Tensor::from_data(&[self.spec.no], slots[..self.spec.no].to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheetah_bfv::{BfvParams, Decryptor, Encryptor, KeyGenerator};
    use cheetah_nn::inference::eval_linear;
    use cheetah_nn::LinearLayer;
    use rand::{Rng, SeedableRng};

    fn spec(ni: usize, no: usize) -> FcSpec {
        FcSpec {
            name: "fc".into(),
            ni,
            no,
        }
    }

    struct Ctx {
        encoder: BatchEncoder,
        enc: Encryptor,
        dec: Decryptor,
        eval: Evaluator,
        keys: GaloisKeys,
    }

    fn ctx(spec: &FcSpec) -> Ctx {
        let params = BfvParams::builder()
            .degree(4096)
            .plain_bits(16)
            .cipher_bits(60)
            .a_dcmp(1 << 6)
            .build()
            .unwrap();
        let mut kg = KeyGenerator::from_seed(params.clone(), 51);
        let pk = kg.public_key().unwrap();
        let keys = kg
            .galois_keys_for_steps(&HomFc::required_steps(spec))
            .unwrap();
        Ctx {
            encoder: BatchEncoder::new(params.clone()),
            enc: Encryptor::from_public_key(pk, 52),
            dec: Decryptor::new(kg.secret_key().clone()),
            eval: Evaluator::new(params),
            keys,
        }
    }

    fn random_weights(s: &FcSpec, seed: u64) -> Tensor {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Tensor::from_data(
            &[s.no, s.ni],
            (0..s.no * s.ni).map(|_| rng.random_range(-5..=5)).collect(),
        )
    }

    fn encrypt(c: &mut Ctx, s: &FcSpec, input: &Tensor) -> Ciphertext {
        c.enc
            .encrypt(&HomFc::encode_input(s, input, &c.encoder).unwrap())
            .unwrap()
    }

    /// The layer forced to every diagonal live and baby width `baby`.
    fn forced(c: &Ctx, s: &FcSpec, w: &Tensor, baby: usize) -> HomFc {
        let dense = FcStructure::dense(s.no, s.ni);
        HomFc::with_forced_plan(s, w, &c.encoder, &c.eval, &dense, baby).unwrap()
    }

    fn decrypt_slots(c: &Ctx, ct: &Ciphertext) -> Vec<i64> {
        c.encoder.decode_signed(&c.dec.decrypt_checked(ct).unwrap())
    }

    /// The auto plan and both diagonal-method corners against cleartext.
    fn check_fc(spec: &FcSpec) {
        let mut c = ctx(spec);
        let weights = random_weights(spec, 9);
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let input = Tensor::from_data(
            &[spec.ni],
            (0..spec.ni).map(|_| rng.random_range(-9..=9)).collect(),
        );
        let expect = eval_linear(&LinearLayer::Fc(spec.clone()), &weights, &input);
        let ct = encrypt(&mut c, spec, &input);
        let d = spec.no.next_power_of_two();
        for (what, layer) in [
            (
                "auto",
                HomFc::new(spec, &weights, &c.encoder, &c.eval).unwrap(),
            ),
            ("b=1", forced(&c, spec, &weights, 1)),
            ("b=d", forced(&c, spec, &weights, d)),
        ] {
            let threads = crate::linear::parallel::default_threads();
            let out_ct = layer.apply(&ct, &c.eval, &c.keys, threads).unwrap();
            let budget = c.dec.invariant_noise_budget(&out_ct).unwrap();
            assert!(budget > 0.0, "{what}: budget exhausted");
            let slots = c.encoder.decode_signed(&c.dec.decrypt(&out_ct).unwrap());
            assert_eq!(
                layer.decode_output(&slots).data(),
                expect.data(),
                "{what} FC mismatch for ({}, {})",
                spec.ni,
                spec.no
            );
        }
    }

    #[test]
    fn fc_square_both_schedules() {
        check_fc(&spec(16, 16));
    }

    #[test]
    fn fc_rectangular() {
        check_fc(&spec(32, 10));
    }

    #[test]
    fn fc_single_output() {
        check_fc(&spec(8, 1));
    }

    #[test]
    fn bsgs_plan_is_chosen_and_reduces_rotation_ntts() {
        // d = 32 diagonals (square: no fold, the ops of the unfolded
        // engine): the auto-chosen plan must split, perform b + g − 2
        // rotations, and pay NTT planes for one hoist plus the g − 1 giant
        // steps only — the O(√d) plane-transform headline, pinned against
        // OpCounts.
        let s = spec(32, 32);
        let mut c = ctx(&s);
        let weights = random_weights(&s, 13);
        let input = Tensor::from_data(&[s.ni], (0..s.ni as i64).collect());
        let ct = encrypt(&mut c, &s, &input);

        let bsgs = HomFc::new(&s, &weights, &c.encoder, &c.eval).unwrap();
        let plan = bsgs.fc_plan().kernel.clone();
        assert!(plan.b > 1 && plan.g > 1, "√d split expected, got {plan:?}");

        let params = c.eval.params();
        let planes = (params.l_ct() as u64 + 1) * params.limbs() as u64;
        c.eval.reset_op_counts();
        let out = bsgs.apply(&ct, &c.eval, &c.keys, 1).unwrap();
        let counts = c.eval.op_counts();
        assert_eq!(counts.rotate as usize, plan.b + plan.g - 2);
        assert_eq!(
            counts.ntt,
            planes * plan.g as u64,
            "one hoist + (g−1) giant rotations worth of plane transforms"
        );

        // The diagonal method (b = 1) pays a full rotation per diagonal.
        let diag = forced(&c, &s, &weights, 1);
        c.eval.reset_op_counts();
        let out_diag = diag.apply(&ct, &c.eval, &c.keys, 1).unwrap();
        let diag_counts = c.eval.op_counts();
        assert_eq!(diag_counts.ntt, planes * (s.ni as u64 - 1));
        assert!(counts.ntt < diag_counts.ntt / 4, "BSGS must slash NTT work");

        // And both decrypt to identical slots.
        assert_eq!(
            decrypt_slots(&c, &out),
            decrypt_slots(&c, &out_diag),
            "BSGS and diagonal outputs diverged"
        );
    }

    #[test]
    fn forced_padding_plan_matches_diagonal_path() {
        // b = 3 over d = 8: the last of the ⌈8/3⌉ = 3 groups is short;
        // output must still match the b = 1 plan slot for slot.
        let s = spec(8, 8);
        let mut c = ctx(&s);
        let weights = random_weights(&s, 17);
        let input = Tensor::from_data(&[s.ni], (0..s.ni as i64).map(|i| i - 3).collect());
        let ct = encrypt(&mut c, &s, &input);
        let ragged = forced(&c, &s, &weights, 3);
        let a = ragged.apply(&ct, &c.eval, &c.keys, 1).unwrap();
        let b = forced(&c, &s, &weights, 1)
            .apply(&ct, &c.eval, &c.keys, 1)
            .unwrap();
        assert_eq!(decrypt_slots(&c, &a), decrypt_slots(&c, &b));
        let kernel = &ragged.fc_plan().kernel;
        assert_eq!((kernel.b, kernel.g), (3, 3));
        assert_eq!(ragged.rotation_steps(), vec![1, 2, 3, 6]);
        // A width past d is trimmed to d: one group, every step a replay.
        let wide = forced(&c, &s, &weights, 100);
        assert_eq!((wide.fc_plan().kernel.b, wide.fc_plan().kernel.g), (8, 1));
    }

    #[test]
    fn pa_noise_budget_at_least_ia() {
        // The diagonal method's two corners: b = 1 multiplies the fresh
        // input and rotates the partial (Sched-PA), b = d rotates first and
        // multiplies the noisier result (hoisted Sched-IA).
        let s = spec(32, 8);
        let mut c = ctx(&s);
        let weights = random_weights(&s, 10);
        let input = Tensor::from_data(&[s.ni], (0..s.ni as i64).collect());
        let ct = encrypt(&mut c, &s, &input);
        let pa = forced(&c, &s, &weights, 1)
            .apply(&ct, &c.eval, &c.keys, 1)
            .unwrap();
        let ia = forced(&c, &s, &weights, 8)
            .apply(&ct, &c.eval, &c.keys, 1)
            .unwrap();
        let pa_budget = c.dec.invariant_noise_budget(&pa).unwrap();
        let ia_budget = c.dec.invariant_noise_budget(&ia).unwrap();
        assert!(
            pa_budget >= ia_budget,
            "PA {pa_budget:.1} vs IA {ia_budget:.1}"
        );
    }

    /// Square weights (diagonals independent) with exactly `live`
    /// diagonals populated from `rng`.
    fn sparse_square_weights(ni: usize, live: &[usize], rng: &mut rand::rngs::StdRng) -> Tensor {
        let mut w = vec![0i64; ni * ni];
        for &k in live {
            for off in 0..ni {
                let mut v = 0;
                while v == 0 {
                    v = rng.random_range(-5..=5);
                }
                w[(off % ni) * ni + (off + k) % ni] = v;
            }
        }
        Tensor::from_data(&[ni, ni], w)
    }

    #[test]
    fn sparse_fc_matches_dense_and_skips_dead_rotations() {
        let s = spec(32, 32);
        let mut c = ctx(&s);
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let weights = sparse_square_weights(s.ni, &[0, 5, 11, 19, 30], &mut rng);
        let input = Tensor::from_data(&[s.ni], (0..s.ni as i64).map(|i| i - 16).collect());
        let ct = encrypt(&mut c, &s, &input);

        let sparse = HomFc::new(&s, &weights, &c.encoder, &c.eval).unwrap();
        assert_eq!(sparse.fc_plan().live, 5, "dead diagonals carry no mask");
        // The same weights with every diagonal given a mask, under the
        // width the cost model picks for a dense 32-diagonal layer.
        let dense_b = BsgsPlan::choose(
            &FcStructure::dense(s.no, s.ni),
            &HeCostParams::for_bfv(c.eval.params(), 0),
        )
        .b;
        let dense = forced(&c, &s, &weights, dense_b);

        c.eval.reset_op_counts();
        let out_sparse = sparse.apply(&ct, &c.eval, &c.keys, 1).unwrap();
        let sparse_counts = c.eval.op_counts();
        c.eval.reset_op_counts();
        let out_dense = dense.apply(&ct, &c.eval, &c.keys, 1).unwrap();
        let dense_counts = c.eval.op_counts();

        // Skipped terms are zero polynomials: every slot matches.
        assert_eq!(
            decrypt_slots(&c, &out_sparse),
            decrypt_slots(&c, &out_dense),
            "sparse and all-live outputs diverged"
        );
        assert_eq!(
            sparse_counts.rotate as usize,
            sparse.fc_plan().kernel.rotations()
        );
        assert!(
            sparse_counts.rotate < dense_counts.rotate,
            "sparse {} vs dense {} rotations",
            sparse_counts.rotate,
            dense_counts.rotate
        );
        assert_eq!((sparse_counts.mul, dense_counts.mul), (5, 32));
        assert!(sparse_counts.ntt < dense_counts.ntt);

        // Keys for exactly the sparse steps suffice.
        let params = c.eval.params().clone();
        let mut kg = KeyGenerator::from_seed(params, 51);
        let lean_keys = kg.galois_keys_for_steps(&sparse.rotation_steps()).unwrap();
        let out_lean = sparse.apply(&ct, &c.eval, &lean_keys, 1).unwrap();
        assert_eq!(decrypt_slots(&c, &out_lean), decrypt_slots(&c, &out_dense));
    }

    #[test]
    fn all_zero_fc_is_transparent_and_rotation_free() {
        let s = spec(16, 16);
        let mut c = ctx(&s);
        let weights = Tensor::zeros(&[s.ni, s.ni]);
        let input = Tensor::from_data(&[s.ni], (1..=s.ni as i64).collect());
        let ct = encrypt(&mut c, &s, &input);
        let layer = HomFc::new(&s, &weights, &c.encoder, &c.eval).unwrap();
        assert!(layer.fc_plan().kernel.is_empty());
        assert!(layer.rotation_steps().is_empty());
        c.eval.reset_op_counts();
        let out = layer.apply(&ct, &c.eval, &c.keys, 1).unwrap();
        let counts = c.eval.op_counts();
        assert_eq!(counts.rotate, 0, "all-zero layer must not rotate");
        assert_eq!(counts.mul, 0);
        assert_eq!(
            out.noise().bound_log2,
            f64::NEG_INFINITY,
            "all-zero layer outputs transparent zero"
        );
        let slots = c.encoder.decode_signed(&c.dec.decrypt(&out).unwrap());
        assert!(slots.iter().all(|&v| v == 0));
    }

    #[test]
    fn pow2_sparse_fc_factors_the_scale_and_stays_exact() {
        let s = spec(16, 16);
        // Live diagonals carry only ±4 and ±8: shared factor 2². Pruned
        // (four live) and fully live (all sixteen) factor alike.
        for live in [vec![0usize, 3, 7, 12], (0..16).collect()] {
            let mut c = ctx(&s);
            let mut w = vec![0i64; s.ni * s.ni];
            for (i, &k) in live.iter().enumerate() {
                for off in 0..s.ni {
                    let v = if (off + i) % 2 == 0 { 4 } else { -8 };
                    w[(off % s.ni) * s.ni + (off + k) % s.ni] = v;
                }
            }
            let weights = Tensor::from_data(&[s.ni, s.ni], w);
            let input = Tensor::from_data(&[s.ni], (0..s.ni as i64).map(|i| 7 - i).collect());
            let ct = encrypt(&mut c, &s, &input);
            let layer = HomFc::new(&s, &weights, &c.encoder, &c.eval).unwrap();
            assert_eq!(layer.pow2_scale_log2(), 2, "shared ±4/±8 factor is 2²");
            let out = layer.apply(&ct, &c.eval, &c.keys, 1).unwrap();
            let expect = eval_linear(&LinearLayer::Fc(s.clone()), &weights, &input);
            let slots = decrypt_slots(&c, &out);
            assert_eq!(layer.decode_output(&slots).data(), expect.data());
            // Forced all-live, nothing is factored; same slots.
            let plain = forced(&c, &s, &weights, layer.fc_plan().kernel.b);
            assert_eq!(plain.pow2_scale_log2(), 0);
            let out_plain = plain.apply(&ct, &c.eval, &c.keys, 1).unwrap();
            assert_eq!(slots, decrypt_slots(&c, &out_plain));
        }
    }

    #[test]
    fn unsupported_shapes_are_typed_errors() {
        let c = ctx(&spec(16, 16));
        let try_new = |s: &FcSpec, w: &Tensor| HomFc::new(s, w, &c.encoder, &c.eval).map(|_| ());
        // n_i not a power of two, n_o > n_i, n_o = 0, weights of another
        // shape.
        for (s, w) in [
            (spec(24, 8), Tensor::zeros(&[8, 24])),
            (spec(8, 16), Tensor::zeros(&[16, 8])),
            (spec(8, 0), Tensor::zeros(&[1, 8])),
            (spec(16, 4), Tensor::zeros(&[4, 8])),
        ] {
            assert!(
                matches!(try_new(&s, &w), Err(Error::Unsupported(_))),
                "({}, {}) with weights {:?}",
                s.ni,
                s.no,
                w.shape()
            );
        }
        // A wrong-length input is refused, not a panic.
        let short = Tensor::zeros(&[8]);
        assert!(matches!(
            HomFc::encode_input(&spec(16, 16), &short, &c.encoder),
            Err(Error::Unsupported(_))
        ));
    }

    #[test]
    fn forced_plans_that_do_not_fit_the_weights_are_refused() {
        let s = spec(16, 16);
        let c = ctx(&s);
        let mut rng = rand::rngs::StdRng::seed_from_u64(29);
        let weights = sparse_square_weights(s.ni, &[0, 5], &mut rng);
        let try_forced = |assume: &FcStructure, baby: usize| {
            HomFc::with_forced_plan(&s, &weights, &c.encoder, &c.eval, assume, baby).map(|_| ())
        };
        let actual = FcStructure::analyze_tensor(&weights, &s);
        assert!(try_forced(&actual, 4).is_ok());
        // Baby width 0, another layer's structure, a live diagonal called
        // dead, a pow2 factor these ±1..5 weights do not share.
        let other_live = sparse_square_weights(s.ni, &[0], &mut rng);
        let pow2 = Tensor::from_data(&[16, 16], vec![4; 256]);
        for (assume, baby) in [
            (actual.clone(), 0),
            (FcStructure::dense(8, 16), 4),
            (FcStructure::analyze_tensor(&other_live, &s), 4),
            (FcStructure::analyze_tensor(&pow2, &s), 4),
        ] {
            assert!(matches!(
                try_forced(&assume, baby),
                Err(Error::Unsupported(_))
            ));
        }
    }

    #[test]
    fn oversized_input_rejected() {
        let s = spec(1024, 10); // 2·1024 exceeds the 1024-slot row of n = 2048
        let params = BfvParams::builder()
            .degree(2048)
            .plain_bits(20)
            .cipher_bits(54)
            .build()
            .unwrap();
        let encoder = BatchEncoder::new(params.clone());
        let eval = Evaluator::new(params);
        let weights = Tensor::zeros(&[10, 1024]);
        assert!(matches!(
            HomFc::new(&s, &weights, &encoder, &eval),
            Err(Error::TooManyValues { .. })
        ));
    }
}
