//! Homomorphic fully connected layers via the **folded** diagonal method,
//! under either schedule — reshaped into Baby-Step-Giant-Step rotation
//! sets when the cost model says the split wins.
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
//! `n_i − n_o'` carry nothing new). The kernel — diagonal, BSGS or sparse
//! BSGS — evaluates the partial product over those only:
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
//! # The fold
//!
//! One rotate-and-sum, the same [`ReducePlan`] machinery the convolution's
//! channel reduction runs, gathers them:
//!
//! ```text
//! y = Σ_{m < n_i / n_o'} rot(y_part, m·n_o')        y[j] = (W·x)[j]  for j < n_o
//! ```
//!
//! For `j < n_o'` every term reads a slot below `n_i`, so nothing wraps.
//! The fold is one shared tail after the kernel dispatch: a square layer
//! (`n_o' = n_i`, fold 1) skips it and an `n_o'`-row layer pays `n_o'`
//! mask multiplies and `O(√n_o') + log2(n_i / n_o')`-ish rotations, not
//! `n_i` and `O(√n_i)`.
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
//! # The BSGS reshape
//!
//! Writing `k = u·b + v` (`v < b` baby, `u < g` giant, `b·g ≥ n_o'`):
//!
//! ```text
//! y_part = Σ_u rot( Σ_v rot(x, v) ⊙ rot⁻ᵘᵇ(diag_{ub+v}), u·b )
//! ```
//!
//! The `b − 1` baby rotations all read the *input*, so one hoist
//! ([`Evaluator::hoist_into`]) covers the whole set; the giant-step
//! pre-rotation of each diagonal happens on the plaintext mask at
//! preparation time (free); only the `g − 1` giant rotations of the group
//! inner sums pay full NTT bills. The plan is chosen per layer from
//! [`HeCostParams`] by [`FcPlan::choose`] — the one chooser the engine and
//! the chain solver share; tiny layers keep the plain diagonal path.
//!
//! Sched-IA rotates `x` then multiplies; Sched-PA multiplies the fresh `x`
//! by pre-shifted diagonals and rotates the partial products (Fig. 5).
//! The BSGS path subsumes both: `b = d` is hoisted Sched-IA, `b = 1` is
//! Sched-PA; its decrypted output is identical to either in every slot.
//!
//! Constraints: `n_i` a power of two, `1 ≤ n_o ≤ n_i`, `2·n_i ≤ n/2`.

use cheetah_bfv::{
    BatchEncoder, Ciphertext, Error, Evaluator, GaloisKeys, HoistedDecomposition, Plaintext,
    PreparedPlaintext, Result,
};
use cheetah_nn::{FcSpec, Tensor};

use crate::cost::HeCostParams;
use crate::linear::parallel::{default_threads, map_chunks, merge_partials};
use crate::linear::{rotate_sum_noise, rotate_sum_reduce, BsgsPlan, ReducePlan};
use crate::schedule::Schedule;
use crate::sparse::{FcStructure, SparseBsgsPlan};

/// Which kernel evaluates the folded diagonals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FcKernelPlan {
    /// One direct rotation per diagonal past the first, in schedule order.
    Diagonal,
    /// Dense BSGS over every diagonal.
    Bsgs(BsgsPlan),
    /// BSGS over the live diagonals only.
    Sparse(SparseBsgsPlan),
}

/// The whole rotation plan of one FC layer: the kernel over the `d`
/// folded diagonals plus the fold that gathers the `n_i / d` partial
/// copies. [`HomFc`] executes exactly this and the chain solver prices
/// exactly this — op counts, Galois steps and label all come from here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FcPlan {
    /// The kernel over the folded diagonals.
    pub kernel: FcKernelPlan,
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
    /// Picks the cheapest plan under `cost`: a sparse BSGS plan when some
    /// diagonal is dead, else the dense BSGS split where it beats the
    /// diagonal path, and the cheapest [`ReducePlan`] for the fold.
    pub fn choose(s: &FcStructure, cost: &HeCostParams) -> Self {
        let kernel = if s.fully_live() {
            BsgsPlan::choose(s.diagonals(), cost).map_or(FcKernelPlan::Diagonal, FcKernelPlan::Bsgs)
        } else {
            FcKernelPlan::Sparse(SparseBsgsPlan::choose(s, cost))
        };
        Self::with_kernel(s, kernel, cost)
    }

    /// The plan running `kernel` over `s`'s diagonals.
    fn with_kernel(s: &FcStructure, kernel: FcKernelPlan, cost: &HeCostParams) -> Self {
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
        let mut steps: Vec<i64> = match &self.kernel {
            FcKernelPlan::Diagonal => (1..self.diagonals as i64).collect(),
            FcKernelPlan::Bsgs(p) => (1..p.b as i64)
                .chain((1..p.g as i64).map(|u| u * p.b as i64))
                .collect(),
            FcKernelPlan::Sparse(p) => p.rotation_steps(),
        };
        if self.live > 0 && self.fold > 1 {
            steps.extend(self.fold_plan.steps(self.fold, self.diagonals as i64));
        }
        steps
    }

    /// Rotation-side integer multiplications under `cost`.
    pub fn rotation_mults(&self, cost: &HeCostParams) -> u64 {
        let kernel = match &self.kernel {
            FcKernelPlan::Diagonal => cost.bsgs_rotation_mults(1, self.diagonals),
            FcKernelPlan::Bsgs(p) => cost.bsgs_rotation_mults(p.b, p.g),
            FcKernelPlan::Sparse(p) => p.rotation_mults(cost),
        };
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

    /// Human-readable label for transcripts, reports and solver plans.
    pub fn label(&self) -> String {
        let kernel = match &self.kernel {
            FcKernelPlan::Diagonal => "fc diag".to_string(),
            FcKernelPlan::Bsgs(p) => format!("fc bsgs b={} g={}", p.b, p.g),
            FcKernelPlan::Sparse(p) => format!(
                "fc sparse b={} g={} live={}/{}",
                p.b, p.g, self.live, self.diagonals
            ),
        };
        format!("{kernel} fold={}", self.fold)
    }
}

/// The prepared weight material: either the legacy per-step diagonals or
/// the BSGS group layout with giant-step pre-rotated masks.
#[derive(Debug)]
enum FcKernel {
    /// Legacy diagonal method: `diagonals[k]` multiplies rotation step `k`
    /// in schedule order.
    Diagonal(Vec<PreparedPlaintext>),
    /// BSGS: `groups[u][v]` multiplies baby rotation `v` inside giant
    /// group `u` (diagonal `k = u·b + v`; the last group is short when
    /// `b·g > d`).
    Bsgs {
        plan: BsgsPlan,
        groups: Vec<Vec<PreparedPlaintext>>,
    },
    /// Sparsity-aware BSGS: only live diagonals carry masks. `groups[i]`
    /// pairs with `plan.live_groups()[i]` and lists `(v, mask)` for the
    /// live diagonals `k = u·b + v` of that group; dead baby steps are
    /// never rotated, dead groups never touched. When `scale_log2 > 0`
    /// every weight was `±2^k` with shared factor `2^scale_log2` pulled
    /// out of the masks and re-applied once after the merge.
    SparseBsgs {
        plan: SparseBsgsPlan,
        groups: Vec<Vec<(usize, PreparedPlaintext)>>,
        scale_log2: u32,
    },
}

/// A prepared homomorphic FC layer.
#[derive(Debug)]
pub struct HomFc {
    spec: FcSpec,
    schedule: Schedule,
    kernel: FcKernel,
    /// Terms of the fold after the kernel (`n_i / n_o'`).
    fold: usize,
    fold_plan: ReducePlan,
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
/// `(j + k) mod n_i`. `shift = 0` is the Sched-IA diagonal, `v = 0` the
/// Sched-PA one, `shift = u·b` a BSGS group member. Weights come divided
/// by `2^scale_log2` (exact — the caller factored it out of every one).
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
    /// Prepares the layer (encodes and NTT-transforms every folded
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
        schedule: Schedule,
    ) -> Result<Self> {
        Self::new_at_level(spec, weights, encoder, eval, schedule, 0)
    }

    /// [`HomFc::new`] with the level the layer is planned to run at: the
    /// cost model prices rotations over the limbs actually live there, so
    /// a deep chain position can pick a different BSGS split than level 0.
    ///
    /// When the weights have dead diagonals the layer is prepared under a
    /// [`SparseBsgsPlan`] covering only the live ones — skipped rotations,
    /// multiplies, and Galois steps, bit-identical output (the skipped
    /// terms are zero polynomials). Fully-live weights take the dense
    /// path.
    ///
    /// # Errors
    ///
    /// As [`HomFc::new`].
    pub fn new_at_level(
        spec: &FcSpec,
        weights: &Tensor,
        encoder: &BatchEncoder,
        eval: &Evaluator,
        schedule: Schedule,
        level: usize,
    ) -> Result<Self> {
        check_shape(spec, weights, encoder)?;
        let cost = HeCostParams::for_bfv(eval.params(), level);
        let structure = FcStructure::analyze_tensor(weights, spec);
        let plan = FcPlan::choose(&structure, &cost);
        Self::build(spec, weights, encoder, eval, schedule, &structure, plan)
    }

    /// Forces a sparse plan with baby width `baby` (liveness is always
    /// recomputed from the weights, so the plan and the prepared masks
    /// agree exactly). Test/benchmark hook; [`HomFc::new_at_level`] picks
    /// the width from the cost model.
    ///
    /// # Errors
    ///
    /// As [`HomFc::new`].
    ///
    /// # Panics
    ///
    /// Panics when `baby == 0`.
    pub fn with_sparse_plan(
        spec: &FcSpec,
        weights: &Tensor,
        encoder: &BatchEncoder,
        eval: &Evaluator,
        schedule: Schedule,
        baby: usize,
    ) -> Result<Self> {
        check_shape(spec, weights, encoder)?;
        let structure = FcStructure::analyze_tensor(weights, spec);
        let kernel = FcKernelPlan::Sparse(SparseBsgsPlan::for_structure(&structure, baby));
        let cost = HeCostParams::for_bfv(eval.params(), 0);
        let plan = FcPlan::with_kernel(&structure, kernel, &cost);
        Self::build(spec, weights, encoder, eval, schedule, &structure, plan)
    }

    /// [`HomFc::new`] with an explicit dense kernel: `Some(plan)` forces
    /// the BSGS split (`plan.b·plan.g ≥ d` over the `d = n_o'` folded
    /// diagonals; `b` is trimmed to `d` and `g` to the `⌈d / b⌉` groups
    /// that exist),
    /// `None` forces the legacy schedule-ordered diagonal path. Every
    /// diagonal gets a mask, dead or not.
    ///
    /// # Errors
    ///
    /// As [`HomFc::new`], plus [`Error::Unsupported`] for a plan that does
    /// not cover every diagonal (`b·g < d`) or has a zero dimension.
    pub fn with_plan(
        spec: &FcSpec,
        weights: &Tensor,
        encoder: &BatchEncoder,
        eval: &Evaluator,
        schedule: Schedule,
        plan: Option<BsgsPlan>,
    ) -> Result<Self> {
        check_shape(spec, weights, encoder)?;
        let structure = FcStructure::dense(spec.no, spec.ni);
        let d = structure.diagonals();
        let kernel = match plan {
            None => FcKernelPlan::Diagonal,
            Some(p) if p.b >= 1 && p.b * p.g >= d => {
                let b = p.b.min(d);
                FcKernelPlan::Bsgs(BsgsPlan {
                    b,
                    g: d.div_ceil(b),
                })
            }
            Some(_) => {
                return Err(Error::Unsupported(
                    "BSGS plan does not cover every FC diagonal",
                ))
            }
        };
        let cost = HeCostParams::for_bfv(eval.params(), 0);
        let plan = FcPlan::with_kernel(&structure, kernel, &cost);
        Self::build(spec, weights, encoder, eval, schedule, &structure, plan)
    }

    /// Encodes and prepares one mask per diagonal `plan` multiplies.
    /// `structure` says which are live (and what pow2 factor the sparse
    /// kernel pulls out); the shape was checked by the caller.
    fn build(
        spec: &FcSpec,
        weights: &Tensor,
        encoder: &BatchEncoder,
        eval: &Evaluator,
        schedule: Schedule,
        structure: &FcStructure,
        plan: FcPlan,
    ) -> Result<Self> {
        let d = plan.diagonals;
        let prepare = |shift: usize, v: usize, scale_log2: u32| {
            let mask = diagonal_mask(spec, weights, shift, v, scale_log2, encoder.slots());
            eval.prepare_plaintext(&encoder.encode_signed(&mask)?)
        };
        let kernel = match plan.kernel {
            FcKernelPlan::Diagonal => FcKernel::Diagonal(
                (0..d)
                    .map(|k| match schedule {
                        // Aligned to post-rotation positions j in [0, ni).
                        Schedule::InputAligned => prepare(0, k, 0),
                        // Aligned to pre-rotation positions [k, ni + k):
                        // after rotating left by k, position j reads j + k.
                        Schedule::PartialAligned => prepare(k, 0, 0),
                    })
                    .collect::<Result<_>>()?,
            ),
            FcKernelPlan::Bsgs(bsgs) => FcKernel::Bsgs {
                plan: bsgs,
                groups: (0..bsgs.g)
                    .map(|u| {
                        let shift = u * bsgs.b;
                        (0..bsgs.b.min(d - shift))
                            .map(|v| prepare(shift, v, 0))
                            .collect()
                    })
                    .collect::<Result<_>>()?,
            },
            FcKernelPlan::Sparse(sparse) => {
                // One mask per *live* diagonal, carrying `w / 2^m` when the
                // structure factors a shared pow2 scale `m` out (re-applied
                // once after the merge, exact mod `t`).
                let scale_log2 = structure.pow2_scale_log2().unwrap_or(0);
                let groups = sparse
                    .live_groups()
                    .iter()
                    .map(|&u| {
                        let shift = u * sparse.b;
                        (0..sparse.b.min(d - shift))
                            .filter(|&v| structure.is_live(shift + v))
                            .map(|v| Ok((v, prepare(shift, v, scale_log2)?)))
                            .collect()
                    })
                    .collect::<Result<_>>()?;
                FcKernel::SparseBsgs {
                    plan: sparse,
                    groups,
                    scale_log2,
                }
            }
        };
        Ok(Self {
            spec: spec.clone(),
            schedule,
            kernel,
            fold: plan.fold,
            fold_plan: plan.fold_plan,
        })
    }

    /// The layer spec.
    pub fn spec(&self) -> &FcSpec {
        &self.spec
    }

    /// The dense BSGS plan in use, or `None` on the legacy diagonal path
    /// and on the sparse path (see [`HomFc::sparse_plan`]).
    pub fn plan(&self) -> Option<BsgsPlan> {
        match &self.kernel {
            FcKernel::Diagonal(_) | FcKernel::SparseBsgs { .. } => None,
            FcKernel::Bsgs { plan, .. } => Some(*plan),
        }
    }

    /// The sparse plan in use, when the layer was prepared sparsity-aware.
    pub fn sparse_plan(&self) -> Option<&SparseBsgsPlan> {
        match &self.kernel {
            FcKernel::SparseBsgs { plan, .. } => Some(plan),
            _ => None,
        }
    }

    /// The whole rotation plan this layer executes: kernel, live
    /// diagonals, fold.
    pub fn fc_plan(&self) -> FcPlan {
        let (kernel, live) = match &self.kernel {
            FcKernel::Diagonal(d) => (FcKernelPlan::Diagonal, d.len()),
            FcKernel::Bsgs { plan, groups } => {
                (FcKernelPlan::Bsgs(*plan), groups.iter().map(Vec::len).sum())
            }
            FcKernel::SparseBsgs { plan, groups, .. } => (
                FcKernelPlan::Sparse(plan.clone()),
                groups.iter().map(Vec::len).sum(),
            ),
        };
        FcPlan {
            kernel,
            diagonals: self.spec.ni / self.fold,
            live,
            fold: self.fold,
            fold_plan: self.fold_plan,
        }
    }

    /// The pow2 factor (as `log2`) pulled out of the sparse masks, if any.
    pub fn pow2_scale_log2(&self) -> u32 {
        match &self.kernel {
            FcKernel::SparseBsgs { scale_log2, .. } => *scale_log2,
            _ => 0,
        }
    }

    /// Whether no diagonal is live: the output is a transparent zero and
    /// nothing rotates, the fold included.
    fn all_zero(&self) -> bool {
        matches!(&self.kernel, FcKernel::SparseBsgs { groups, .. } if groups.is_empty())
    }

    /// Worst prepared-mask infinity norm (drives the noise model).
    fn max_norm(&self) -> u64 {
        let it: Box<dyn Iterator<Item = &PreparedPlaintext>> = match &self.kernel {
            FcKernel::Diagonal(d) => Box::new(d.iter()),
            FcKernel::Bsgs { groups, .. } => Box::new(groups.iter().flatten()),
            FcKernel::SparseBsgs { groups, .. } => {
                Box::new(groups.iter().flatten().map(|(_, m)| m))
            }
        };
        it.map(PreparedPlaintext::inf_norm)
            .max()
            .unwrap_or(1)
            .max(1)
    }

    /// Conservative Table-III prediction of the layer's output noise at
    /// `level` (see `HomConv2d::noise_after`): the kernel's bound over the
    /// folded diagonals, then the fold's rotate-and-sum transition on top.
    /// On the diagonal path the kernel is `d` terms, each charged the
    /// worst diagonal norm and one rotation in schedule order; on the BSGS
    /// paths it is [`cheetah_bfv::NoiseEstimate::bsgs_matvec_at`] — `g`
    /// groups of `b` rotate-mul inner terms plus one giant rotation each.
    /// Upper-bounds the engine-tracked estimate of [`HomFc::apply`].
    pub fn noise_after(
        &self,
        input: &cheetah_bfv::NoiseEstimate,
        params: &cheetah_bfv::BfvParams,
        level: usize,
    ) -> cheetah_bfv::NoiseEstimate {
        if self.all_zero() {
            return cheetah_bfv::NoiseEstimate::zero();
        }
        let max_norm = self.max_norm();
        let part = match &self.kernel {
            FcKernel::Diagonal(diagonals) => crate::linear::accumulated_term_noise(
                input,
                params,
                level,
                self.schedule,
                max_norm,
                diagonals.len(),
            ),
            FcKernel::Bsgs { plan, .. } => {
                input.bsgs_matvec_at(params, level, plan.b, plan.g, 2 * max_norm)
            }
            FcKernel::SparseBsgs {
                groups, scale_log2, ..
            } => {
                // Only live work accumulates noise: the widest live group
                // bounds the inner terms, dead groups never rotate.
                let live_b = groups.iter().map(Vec::len).max().unwrap_or(1);
                let est = input.bsgs_matvec_at(params, level, live_b, groups.len(), 2 * max_norm);
                if *scale_log2 > 0 {
                    est.mul_plain_at(params, level, 1, 2 * (1u64 << scale_log2))
                } else {
                    est
                }
            }
        };
        rotate_sum_noise(&part, params, level, self.fold, self.fold_plan)
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
        self.fc_plan().rotation_steps()
    }

    /// Packs an input vector replicated twice (`x ‖ x`) so row rotations
    /// act as rotations mod `n_i`.
    ///
    /// # Errors
    ///
    /// Propagates encoding errors.
    ///
    /// # Panics
    ///
    /// Panics if the input length mismatches the spec.
    pub fn encode_input(
        spec: &FcSpec,
        input: &Tensor,
        encoder: &BatchEncoder,
    ) -> Result<Plaintext> {
        assert_eq!(input.len(), spec.ni, "input length mismatch");
        let mut doubled = Vec::with_capacity(2 * spec.ni);
        doubled.extend_from_slice(input.data());
        doubled.extend_from_slice(input.data());
        encoder.encode_signed(&doubled)
    }

    /// Applies the layer; the output vector lands in slots `[0, n_o)`
    /// (the module header says what the other slots hold).
    ///
    /// Runs the rotation + mul-accumulate loop across [`default_threads`]
    /// worker threads; see [`HomFc::apply_threaded`] for an explicit count.
    ///
    /// # Errors
    ///
    /// Propagates BFV evaluation errors.
    pub fn apply(
        &self,
        input: &Ciphertext,
        eval: &Evaluator,
        keys: &GaloisKeys,
    ) -> Result<Ciphertext> {
        self.apply_threaded(input, eval, keys, default_threads())
    }

    /// [`HomFc::apply`] with an explicit worker-thread count
    /// (`threads <= 1` runs fully inline). The kernel's work range —
    /// diagonal steps on the legacy path, giant-step groups under a BSGS
    /// plan — is split into contiguous chunks, one scratch-owning worker
    /// per chunk; per-chunk partial sums merge in chunk order, and the
    /// fold runs on the merged sum, so residues — and the decrypted
    /// output — are identical for every thread count.
    ///
    /// # Errors
    ///
    /// Propagates BFV evaluation errors.
    pub fn apply_threaded(
        &self,
        input: &Ciphertext,
        eval: &Evaluator,
        keys: &GaloisKeys,
        threads: usize,
    ) -> Result<Ciphertext> {
        // The scratch-reuse hot path copies the input into evaluator-owned
        // buffers, so foreign ciphertexts must be rejected up front.
        eval.params().check_same(input.params())?;
        let part = match &self.kernel {
            FcKernel::Diagonal(diagonals) => {
                self.apply_diagonal(diagonals, input, eval, keys, threads)
            }
            FcKernel::Bsgs { plan, groups } => {
                self.apply_bsgs(*plan, groups, input, eval, keys, threads)
            }
            FcKernel::SparseBsgs {
                plan,
                groups,
                scale_log2,
            } => self.apply_sparse(plan, groups, *scale_log2, input, eval, keys, threads),
        }?;
        if self.fold == 1 || self.all_zero() {
            return Ok(part);
        }
        // The fold: y = Σ_m rot(y_part, m·d) gathers each row's partial
        // sums into slots [0, d).
        let mut scratch = eval.new_scratch();
        let mut rotated = Ciphertext::transparent_zero_at(eval.params(), part.level());
        let mut hoisted = HoistedDecomposition::empty(eval.params());
        rotate_sum_reduce(
            part,
            (self.spec.ni / self.fold) as i64,
            self.fold,
            self.fold_plan,
            eval,
            keys,
            &mut scratch,
            &mut rotated,
            &mut hoisted,
        )
    }

    fn apply_diagonal(
        &self,
        diagonals: &[PreparedPlaintext],
        input: &Ciphertext,
        eval: &Evaluator,
        keys: &GaloisKeys,
        threads: usize,
    ) -> Result<Ciphertext> {
        let level = input.level();
        // Accumulators follow the input's level: a modulus-switched input
        // runs the whole layer over its live limbs only.
        let partials = map_chunks(diagonals.len(), threads, |range| {
            let mut scratch = eval.new_scratch();
            let mut acc = Ciphertext::transparent_zero_at(eval.params(), level);
            let mut tmp = Ciphertext::transparent_zero_at(eval.params(), level);
            match self.schedule {
                Schedule::InputAligned => {
                    for (k, diag) in range.clone().zip(&diagonals[range]) {
                        // Rotate the input into alignment, then fuse the
                        // multiply into the accumulator.
                        eval.rotate_rows_into(&mut tmp, input, k as i64, keys, &mut scratch)?;
                        eval.mul_plain_accumulate(&mut acc, &tmp, diag)?;
                    }
                }
                Schedule::PartialAligned => {
                    let mut prod = Ciphertext::transparent_zero_at(eval.params(), level);
                    for (k, diag) in range.clone().zip(&diagonals[range]) {
                        // Multiply the *fresh* input, then rotate the
                        // partial product into alignment.
                        prod.copy_from(input);
                        eval.mul_plain_assign(&mut prod, diag)?;
                        eval.rotate_rows_into(&mut tmp, &prod, k as i64, keys, &mut scratch)?;
                        eval.add_assign(&mut acc, &tmp)?;
                    }
                }
            }
            Ok(acc)
        })?;
        merge_partials(partials, eval)
    }

    /// The BSGS evaluation: hoist the input once, replay the `b − 1` baby
    /// rotations into a shared read-only set, then fan the giant-step
    /// groups across workers — each group fuses its inner sum from the
    /// baby set and pays exactly one direct rotation.
    fn apply_bsgs(
        &self,
        plan: BsgsPlan,
        groups: &[Vec<PreparedPlaintext>],
        input: &Ciphertext,
        eval: &Evaluator,
        keys: &GaloisKeys,
        threads: usize,
    ) -> Result<Ciphertext> {
        let level = input.level();
        // Baby set: babies[v] = rot(input, v). One hoist serves the whole
        // set; the step-0 replay degenerates to a copy of the input.
        let mut scratch = eval.new_scratch();
        let mut babies: Vec<Ciphertext> = Vec::new();
        if plan.b > 1 {
            let steps: Vec<i64> = (0..plan.b as i64).collect();
            let mut hoisted = HoistedDecomposition::empty(eval.params());
            eval.rotate_set_hoisted_into(
                &mut babies,
                input,
                &steps,
                keys,
                &mut hoisted,
                &mut scratch,
            )?;
        } else {
            babies.push(input.clone());
        }
        let babies = &babies;
        let partials = map_chunks(groups.len(), threads, |range| {
            let mut scratch = eval.new_scratch();
            let mut acc = Ciphertext::transparent_zero_at(eval.params(), level);
            let mut rotated = scratch.take_ct(eval.params(), level);
            for (u, masks) in range.clone().zip(&groups[range]) {
                // Group accumulator leased (zeroed) from the per-level
                // pool and returned after its sum folds into the partial,
                // so every group past the first recycles the same buffer.
                // (An early error drops the worker-local pool wholesale,
                // so the lease needs no cleanup on that path.)
                let mut inner = scratch.take_ct(eval.params(), level);
                for (baby, mask) in babies.iter().zip(masks) {
                    eval.mul_plain_accumulate(&mut inner, baby, mask)?;
                }
                if u == 0 {
                    eval.add_assign(&mut acc, &inner)?;
                } else {
                    eval.rotate_rows_into(
                        &mut rotated,
                        &inner,
                        (u * plan.b) as i64,
                        keys,
                        &mut scratch,
                    )?;
                    eval.add_assign(&mut acc, &rotated)?;
                }
                scratch.put_ct(inner);
            }
            scratch.put_ct(rotated);
            Ok(acc)
        })?;
        merge_partials(partials, eval)
    }

    /// The sparse BSGS evaluation: hoist the input once and replay only
    /// the *live* baby steps, fan only the *live* giant groups across
    /// workers. An all-zero layer returns a transparent zero without a
    /// single rotation or multiply. The pulled-out pow2 factor (if any)
    /// is re-applied with one scalar multiply after the merge.
    #[allow(clippy::too_many_arguments)]
    fn apply_sparse(
        &self,
        plan: &SparseBsgsPlan,
        groups: &[Vec<(usize, PreparedPlaintext)>],
        scale_log2: u32,
        input: &Ciphertext,
        eval: &Evaluator,
        keys: &GaloisKeys,
        threads: usize,
    ) -> Result<Ciphertext> {
        let level = input.level();
        if groups.is_empty() {
            return Ok(Ciphertext::transparent_zero_at(eval.params(), level));
        }
        // Baby set, live steps only: baby_at[v] indexes into `babies` for
        // v in plan.baby_steps(); v = 0 reads the unrotated input.
        let mut scratch = eval.new_scratch();
        let mut babies: Vec<Ciphertext> = Vec::new();
        let mut baby_at = vec![usize::MAX; plan.b];
        if !plan.baby_steps().is_empty() {
            let steps: Vec<i64> = plan.baby_steps().iter().map(|&v| v as i64).collect();
            for (i, &v) in plan.baby_steps().iter().enumerate() {
                baby_at[v] = i;
            }
            let mut hoisted = HoistedDecomposition::empty(eval.params());
            eval.rotate_set_hoisted_into(
                &mut babies,
                input,
                &steps,
                keys,
                &mut hoisted,
                &mut scratch,
            )?;
        }
        let babies = &babies;
        let baby_at = &baby_at;
        let live_groups = plan.live_groups();
        let partials = map_chunks(groups.len(), threads, |range| {
            let mut scratch = eval.new_scratch();
            let mut acc = Ciphertext::transparent_zero_at(eval.params(), level);
            let mut rotated = scratch.take_ct(eval.params(), level);
            for (i, masks) in range.clone().zip(&groups[range]) {
                let u = live_groups[i];
                let mut inner = scratch.take_ct(eval.params(), level);
                for (v, mask) in masks {
                    let src = if *v == 0 { input } else { &babies[baby_at[*v]] };
                    eval.mul_plain_accumulate(&mut inner, src, mask)?;
                }
                if u == 0 {
                    eval.add_assign(&mut acc, &inner)?;
                } else {
                    eval.rotate_rows_into(
                        &mut rotated,
                        &inner,
                        (u * plan.b) as i64,
                        keys,
                        &mut scratch,
                    )?;
                    eval.add_assign(&mut acc, &rotated)?;
                }
                scratch.put_ct(inner);
            }
            scratch.put_ct(rotated);
            Ok(acc)
        })?;
        let mut out = merge_partials(partials, eval)?;
        if scale_log2 > 0 {
            eval.mul_scalar_assign(&mut out, 1u64 << scale_log2)?;
        }
        Ok(out)
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

    fn check_fc(spec: &FcSpec, schedule: Schedule) {
        let mut c = ctx(spec);
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let weights = Tensor::from_data(
            &[spec.no, spec.ni],
            (0..spec.no * spec.ni)
                .map(|_| rng.random_range(-5..=5))
                .collect(),
        );
        let input = Tensor::from_data(
            &[spec.ni],
            (0..spec.ni).map(|_| rng.random_range(-9..=9)).collect(),
        );
        let expect = eval_linear(&LinearLayer::Fc(spec.clone()), &weights, &input);

        let layer = HomFc::new(spec, &weights, &c.encoder, &c.eval, schedule).unwrap();
        let ct = c
            .enc
            .encrypt(&HomFc::encode_input(spec, &input, &c.encoder).unwrap())
            .unwrap();
        let out_ct = layer.apply(&ct, &c.eval, &c.keys).unwrap();
        let budget = c.dec.invariant_noise_budget(&out_ct).unwrap();
        assert!(budget > 0.0, "{schedule}: budget exhausted");
        let slots = c.encoder.decode_signed(&c.dec.decrypt(&out_ct).unwrap());
        assert_eq!(
            layer.decode_output(&slots).data(),
            expect.data(),
            "{schedule} FC mismatch for ({}, {})",
            spec.ni,
            spec.no
        );
    }

    #[test]
    fn fc_square_both_schedules() {
        check_fc(&spec(16, 16), Schedule::PartialAligned);
        check_fc(&spec(16, 16), Schedule::InputAligned);
    }

    #[test]
    fn fc_rectangular() {
        check_fc(&spec(32, 10), Schedule::PartialAligned);
        check_fc(&spec(32, 10), Schedule::InputAligned);
    }

    #[test]
    fn fc_single_output() {
        check_fc(&spec(8, 1), Schedule::PartialAligned);
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
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let weights = Tensor::from_data(
            &[s.no, s.ni],
            (0..s.no * s.ni).map(|_| rng.random_range(-5..=5)).collect(),
        );
        let input = Tensor::from_data(&[s.ni], (0..s.ni as i64).collect());
        let ct = c
            .enc
            .encrypt(&HomFc::encode_input(&s, &input, &c.encoder).unwrap())
            .unwrap();

        let bsgs = HomFc::new(&s, &weights, &c.encoder, &c.eval, Schedule::PartialAligned).unwrap();
        let plan = bsgs.plan().expect("d = 32 must pick a BSGS plan");
        assert!(plan.b > 1 && plan.g > 1, "√d split expected, got {plan:?}");

        let params = c.eval.params();
        let planes = (params.l_ct() as u64 + 1) * params.limbs() as u64;
        c.eval.reset_op_counts();
        let out = bsgs.apply_threaded(&ct, &c.eval, &c.keys, 1).unwrap();
        let counts = c.eval.op_counts();
        assert_eq!(counts.rotate as usize, plan.rotations());
        assert_eq!(
            counts.ntt,
            planes * plan.g as u64,
            "one hoist + (g−1) giant rotations worth of plane transforms"
        );

        // The legacy diagonal path pays a full rotation per diagonal.
        let diag = HomFc::with_plan(
            &s,
            &weights,
            &c.encoder,
            &c.eval,
            Schedule::InputAligned,
            None,
        )
        .unwrap();
        c.eval.reset_op_counts();
        let out_diag = diag.apply_threaded(&ct, &c.eval, &c.keys, 1).unwrap();
        let diag_counts = c.eval.op_counts();
        assert_eq!(diag_counts.ntt, planes * (s.ni as u64 - 1));
        assert!(counts.ntt < diag_counts.ntt / 4, "BSGS must slash NTT work");

        // And both decrypt to identical slots.
        let a = c
            .encoder
            .decode_signed(&c.dec.decrypt_checked(&out).unwrap());
        let b = c
            .encoder
            .decode_signed(&c.dec.decrypt_checked(&out_diag).unwrap());
        assert_eq!(a, b, "BSGS and diagonal outputs diverged");
    }

    #[test]
    fn forced_padding_plan_matches_diagonal_path() {
        // b·g = 15 > d = 8: the padded tail groups are trimmed; output
        // must still match the legacy path slot for slot.
        let s = spec(8, 8);
        let mut c = ctx(&s);
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let weights = Tensor::from_data(
            &[s.no, s.ni],
            (0..s.no * s.ni).map(|_| rng.random_range(-5..=5)).collect(),
        );
        let input = Tensor::from_data(&[s.ni], (0..s.ni as i64).map(|i| i - 3).collect());
        let ct = c
            .enc
            .encrypt(&HomFc::encode_input(&s, &input, &c.encoder).unwrap())
            .unwrap();
        let forced = HomFc::with_plan(
            &s,
            &weights,
            &c.encoder,
            &c.eval,
            Schedule::PartialAligned,
            Some(BsgsPlan { b: 3, g: 5 }),
        )
        .unwrap();
        let legacy = HomFc::with_plan(
            &s,
            &weights,
            &c.encoder,
            &c.eval,
            Schedule::PartialAligned,
            None,
        )
        .unwrap();
        let a = forced.apply(&ct, &c.eval, &c.keys).unwrap();
        let b = legacy.apply(&ct, &c.eval, &c.keys).unwrap();
        assert_eq!(
            c.encoder.decode_signed(&c.dec.decrypt_checked(&a).unwrap()),
            c.encoder.decode_signed(&c.dec.decrypt_checked(&b).unwrap())
        );
        // The padded plan performs (b−1) + (groups−1) rotations with
        // groups = ceil(d/b) = 3 live groups.
        assert_eq!(forced.plan(), Some(BsgsPlan { b: 3, g: 3 }));
        assert_eq!(forced.rotation_steps(), vec![1, 2, 3, 6]);
    }

    #[test]
    fn pa_noise_budget_at_least_ia() {
        let s = spec(32, 8);
        let mut c = ctx(&s);
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let weights = Tensor::from_data(
            &[s.no, s.ni],
            (0..s.no * s.ni).map(|_| rng.random_range(-5..=5)).collect(),
        );
        let input = Tensor::from_data(&[s.ni], (0..s.ni as i64).collect());
        let ct = c
            .enc
            .encrypt(&HomFc::encode_input(&s, &input, &c.encoder).unwrap())
            .unwrap();
        let pa = HomFc::with_plan(
            &s,
            &weights,
            &c.encoder,
            &c.eval,
            Schedule::PartialAligned,
            None,
        )
        .unwrap()
        .apply(&ct, &c.eval, &c.keys)
        .unwrap();
        let ia = HomFc::with_plan(
            &s,
            &weights,
            &c.encoder,
            &c.eval,
            Schedule::InputAligned,
            None,
        )
        .unwrap()
        .apply(&ct, &c.eval, &c.keys)
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
        let ct = c
            .enc
            .encrypt(&HomFc::encode_input(&s, &input, &c.encoder).unwrap())
            .unwrap();

        let sparse =
            HomFc::new(&s, &weights, &c.encoder, &c.eval, Schedule::PartialAligned).unwrap();
        let plan = sparse
            .sparse_plan()
            .expect("dead diagonals force the sparse path");
        let dense = HomFc::with_plan(
            &s,
            &weights,
            &c.encoder,
            &c.eval,
            Schedule::PartialAligned,
            BsgsPlan::choose(s.ni, &HeCostParams::for_bfv(c.eval.params(), 0)),
        )
        .unwrap();

        c.eval.reset_op_counts();
        let out_sparse = sparse.apply_threaded(&ct, &c.eval, &c.keys, 1).unwrap();
        let sparse_counts = c.eval.op_counts();
        c.eval.reset_op_counts();
        let out_dense = dense.apply_threaded(&ct, &c.eval, &c.keys, 1).unwrap();
        let dense_counts = c.eval.op_counts();

        // Skipped terms are zero polynomials: the FULL ciphertext matches.
        assert_eq!(
            c.encoder
                .decode_signed(&c.dec.decrypt_checked(&out_sparse).unwrap()),
            c.encoder
                .decode_signed(&c.dec.decrypt_checked(&out_dense).unwrap()),
            "sparse and dense outputs diverged"
        );
        assert_eq!(sparse_counts.rotate as usize, plan.rotations());
        assert!(
            sparse_counts.rotate < dense_counts.rotate,
            "sparse {} vs dense {} rotations",
            sparse_counts.rotate,
            dense_counts.rotate
        );
        assert!(
            sparse_counts.mul < dense_counts.mul,
            "5 live of 32 diagonals"
        );
        assert!(sparse_counts.ntt < dense_counts.ntt);

        // Keys for exactly the sparse steps suffice.
        let params = c.eval.params().clone();
        let mut kg = KeyGenerator::from_seed(params, 51);
        let lean_keys = kg.galois_keys_for_steps(&sparse.rotation_steps()).unwrap();
        let out_lean = sparse.apply_threaded(&ct, &c.eval, &lean_keys, 1).unwrap();
        assert_eq!(
            c.encoder
                .decode_signed(&c.dec.decrypt_checked(&out_lean).unwrap()),
            c.encoder
                .decode_signed(&c.dec.decrypt_checked(&out_dense).unwrap())
        );
    }

    #[test]
    fn all_zero_fc_is_transparent_and_rotation_free() {
        let s = spec(16, 16);
        let mut c = ctx(&s);
        let weights = Tensor::zeros(&[s.ni, s.ni]);
        let input = Tensor::from_data(&[s.ni], (1..=s.ni as i64).collect());
        let ct = c
            .enc
            .encrypt(&HomFc::encode_input(&s, &input, &c.encoder).unwrap())
            .unwrap();
        let layer =
            HomFc::new(&s, &weights, &c.encoder, &c.eval, Schedule::PartialAligned).unwrap();
        assert!(layer.sparse_plan().unwrap().is_empty());
        assert!(layer.rotation_steps().is_empty());
        c.eval.reset_op_counts();
        let out = layer.apply_threaded(&ct, &c.eval, &c.keys, 1).unwrap();
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
        let mut c = ctx(&s);
        // Live diagonals carry only ±4 and ±8: shared factor 2².
        let mut w = vec![0i64; s.ni * s.ni];
        for (i, &k) in [0usize, 3, 7, 12].iter().enumerate() {
            for off in 0..s.ni {
                let v = if (off + i) % 2 == 0 { 4 } else { -8 };
                w[(off % s.ni) * s.ni + (off + k) % s.ni] = v;
            }
        }
        let weights = Tensor::from_data(&[s.ni, s.ni], w);
        let input = Tensor::from_data(&[s.ni], (0..s.ni as i64).map(|i| 7 - i).collect());
        let ct = c
            .enc
            .encrypt(&HomFc::encode_input(&s, &input, &c.encoder).unwrap())
            .unwrap();
        let layer =
            HomFc::new(&s, &weights, &c.encoder, &c.eval, Schedule::PartialAligned).unwrap();
        assert_eq!(layer.pow2_scale_log2(), 2, "shared ±4/±8 factor is 2²");
        let out = layer.apply(&ct, &c.eval, &c.keys).unwrap();
        let expect = eval_linear(&LinearLayer::Fc(s.clone()), &weights, &input);
        let slots = c
            .encoder
            .decode_signed(&c.dec.decrypt_checked(&out).unwrap());
        assert_eq!(layer.decode_output(&slots).data(), expect.data());
    }

    #[test]
    fn unsupported_shapes_are_typed_errors() {
        let c = ctx(&spec(16, 16));
        let try_new = |s: &FcSpec, w: &Tensor| {
            HomFc::new(s, w, &c.encoder, &c.eval, Schedule::PartialAligned).map(|_| ())
        };
        // n_i not a power of two, n_o > n_i, n_o = 0, weights of another
        // shape, a forced plan short of the diagonals.
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
        let short = HomFc::with_plan(
            &spec(16, 16),
            &Tensor::zeros(&[16, 16]),
            &c.encoder,
            &c.eval,
            Schedule::PartialAligned,
            Some(BsgsPlan { b: 3, g: 5 }),
        );
        assert!(matches!(short, Err(Error::Unsupported(_))));
    }

    #[test]
    fn oversized_input_rejected() {
        let s = spec(1024, 10); // 2*1024 = row size of n=2048? row=1024 -> too big
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
            HomFc::new(&s, &weights, &encoder, &eval, Schedule::PartialAligned),
            Err(Error::TooManyValues { .. })
        ));
    }
}
