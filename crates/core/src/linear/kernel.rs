//! The rotate–multiply–accumulate kernel under both linear layers: one
//! executor over a [`BsgsPlan`] and one prepared mask per live step.
//!
//! A linear layer *is* its rotations, mask multiplies and adds (§VI,
//! Fig. 7). [`super::HomFc`] and [`super::HomConv2d`] decide which slot
//! holds what — the input layout, what each mask carries, where an output
//! lands — and hand the plan and the masks to a [`PreparedKernel`], which
//! is the only code under `linear/` that hoists, multiplies or rotates:
//!
//! ```text
//! out_q = Σ_u rot( Σ_j mask_{q,u,j} ⊙ rot(x, step_{q,u,j}), u·unit )
//! ```
//!
//! # Evaluation order
//!
//! 1. **Baby set.** The distinct nonzero steps all read the *input*, so one
//!    hoist ([`Evaluator::rotate_set_hoisted_into`]) covers the whole set;
//!    a plan that reads only the unrotated input (a 1×1 filter at `b = 1`,
//!    a layer tiled down to one diagonal) skips the hoist.
//! 2. **Group sums**, in plan order: a group's inner sum `Σ_j` is one lazy
//!    pass over its masks ([`Evaluator::mul_plain_accumulate_many`]: one
//!    Barrett reduction per coefficient, not one per mask — same bits).
//! 3. **Combine**, per output ciphertext, in plan order, by Horner over the
//!    live groups: from the highest down, `acc ← rot(acc, (u − u′)·unit) +
//!    inner_{u′}`, then one rotation by `u_min·unit` when the lowest live
//!    group is not 0 — one direct rotation per live group above 0, on one
//!    Galois key per distinct gap. A chain with no live group is a
//!    transparent zero.
//!
//! A layer runs start to finish on the calling thread, out of the caller's
//! one [`Scratch`]: parallel work is whole sessions, one per thread of a
//! serving pool, never the groups of one layer.
//!
//! # Leases
//!
//! The baby set, the hoist store and the group sums are leased from the
//! caller's [`Scratch`] before the first evaluator call that can fail and
//! handed back after the last, on success and on error alike; a chain's
//! rotation spare is leased and returned inside the function that uses it.
//! Outputs are fresh ciphertexts, never leases, so a session that keeps one
//! `Scratch` across layers finds its pool the same size after every apply,
//! failed or not.

use cheetah_bfv::{
    BfvParams, Ciphertext, Error, Evaluator, GaloisKeys, HoistedDecomposition, NoiseEstimate,
    Plaintext, PreparedPlaintext, Result, Scratch,
};

use crate::sparse::{BsgsGroup, BsgsPlan};

/// A [`BsgsPlan`] with its masks prepared: what a linear layer evaluates.
#[derive(Debug)]
pub struct PreparedKernel {
    plan: BsgsPlan,
    /// `masks[q][i][j]` pairs with `plan.chains()[q][i].steps[j]`.
    masks: Vec<Vec<Vec<PreparedPlaintext>>>,
    label: String,
}

impl PreparedKernel {
    /// Prepares `plan`'s masks: `masks_of(q, group)` lays out, in step
    /// order, the plaintext each step of `group` — a live group of output
    /// ciphertext `q` — multiplies the rotated input by. `label` is what
    /// transcripts and reports print for the plan.
    ///
    /// # Errors
    ///
    /// [`Error::Unsupported`] unless a group gets exactly one mask per
    /// step; propagates `masks_of`'s and the evaluator's errors.
    pub fn prepare(
        plan: BsgsPlan,
        label: String,
        eval: &Evaluator,
        mut masks_of: impl FnMut(usize, &BsgsGroup) -> Result<Vec<Plaintext>>,
    ) -> Result<Self> {
        let mut masks = Vec::with_capacity(plan.outputs());
        for (q, chain) in plan.chains().iter().enumerate() {
            let mut prepared = Vec::with_capacity(chain.len());
            for group in chain {
                let plain = masks_of(q, group)?;
                if plain.len() != group.steps.len() {
                    return Err(Error::Unsupported("a group needs one mask per step"));
                }
                let group_masks = plain.iter().map(|pt| eval.prepare_plaintext_at(pt, 0));
                prepared.push(group_masks.collect::<Result<Vec<_>>>()?);
            }
            masks.push(prepared);
        }
        Ok(Self { plan, masks, label })
    }

    /// The plan this kernel executes.
    pub fn plan(&self) -> &BsgsPlan {
        &self.plan
    }

    /// Human-readable plan label for transcripts and reports — the label
    /// the chain solver's `LayerPlan` carries for the same plan.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The worst coefficient norm of this kernel's prepared masks (1 with
    /// none): the norm [`PreparedKernel::noise_after`] charges.
    pub fn mask_norm(&self) -> u64 {
        let masks = self.masks.iter().flatten().flatten();
        masks.map(PreparedPlaintext::inf_norm).max().unwrap_or(1)
    }

    /// [`BsgsPlan::noise_after`] under the worst norm of this kernel's
    /// prepared masks ([`PreparedKernel::mask_norm`]). Upper-bounds the
    /// estimate the engine tracks through
    /// [`PreparedKernel::apply_with_scratch`].
    pub fn noise_after(
        &self,
        input: &NoiseEstimate,
        params: &BfvParams,
        level: usize,
    ) -> NoiseEstimate {
        self.plan
            .noise_after(input, params, level, self.mask_norm())
    }

    /// Evaluates the plan on `input` (module header): one ciphertext per
    /// chain, at the input's level, with every temporary leased from
    /// `scratch` and handed back.
    ///
    /// # Errors
    ///
    /// Propagates BFV evaluation errors ([`Error::MissingGaloisKey`] when
    /// `keys` lacks one of [`BsgsPlan::rotation_steps`], parameter and
    /// level mismatches).
    pub fn apply_with_scratch(
        &self,
        input: &Ciphertext,
        eval: &Evaluator,
        keys: &GaloisKeys,
        scratch: &mut Scratch,
    ) -> Result<Vec<Ciphertext>> {
        // The scratch-reuse hot path copies the input into evaluator-owned
        // buffers, so foreign ciphertexts must be rejected up front.
        eval.params().check_same(input.params())?;
        let level = input.level();
        let mut hoisted = scratch.take_hoisted(eval.params());
        let mut babies: Vec<Ciphertext> = Vec::new();
        let groups = self.plan.groups();
        let mut sums: Vec<Ciphertext> = groups
            .map(|_| scratch.take_ct(eval.params(), level))
            .collect();
        let out = self.evaluate(
            input,
            eval,
            keys,
            scratch,
            &mut hoisted,
            &mut babies,
            &mut sums,
        );
        let leased = babies.into_iter().chain(sums);
        leased.for_each(|ct| scratch.put_ct(ct));
        scratch.put_hoisted(hoisted);
        out
    }

    /// The body of [`PreparedKernel::apply_with_scratch`] over its leases:
    /// the hoist store, the baby set it fills, and one zeroed accumulator
    /// per live group.
    #[allow(clippy::too_many_arguments)] // the three trailing buffers are the leased set
    fn evaluate(
        &self,
        input: &Ciphertext,
        eval: &Evaluator,
        keys: &GaloisKeys,
        scratch: &mut Scratch,
        hoisted: &mut HoistedDecomposition,
        babies: &mut Vec<Ciphertext>,
        sums: &mut [Ciphertext],
    ) -> Result<Vec<Ciphertext>> {
        let (plan, level) = (&self.plan, input.level());
        let steps = plan.baby_steps();
        if !steps.is_empty() {
            eval.rotate_set_hoisted_into(babies, input, steps, keys, hoisted, scratch)?;
        }
        let babies = &*babies;
        let mut terms = Vec::new();
        let groups = plan.groups().zip(self.masks.iter().flatten());
        groups
            .zip(sums.iter_mut())
            .try_for_each(|((group, masks), sum)| {
                terms.clear();
                terms.extend(group.steps.iter().zip(masks).map(|(step, mask)| {
                    let src = match steps.binary_search(step) {
                        Ok(i) => &babies[i],
                        Err(_) => input,
                    };
                    (src, mask)
                }));
                eval.mul_plain_accumulate_many(sum, &terms)
            })?;

        let mut sums = &*sums;
        let outputs = plan.chains().iter().map(|chain| {
            let (inners, rest) = sums.split_at(chain.len());
            sums = rest;
            horner(chain, inners, plan.unit(), level, eval, keys, scratch)
        });
        outputs.collect()
    }
}

/// Horner over a chain's live groups, from the highest down: rotate the
/// running sum by the gap to the next live group and add that group's
/// inner sum, then rotate the lowest live group home.
fn horner(
    chain: &[BsgsGroup],
    inners: &[Ciphertext],
    unit: usize,
    level: usize,
    eval: &Evaluator,
    keys: &GaloisKeys,
    scratch: &mut Scratch,
) -> Result<Ciphertext> {
    let mut pending = chain.iter().map(|group| group.u).zip(inners).rev();
    let Some((mut u, inner)) = pending.next() else {
        return Ok(Ciphertext::transparent_zero_at(eval.params(), level));
    };
    let mut acc = inner.clone();
    // What each rotation writes into, trading places with the running sum;
    // the last link has no inner sum and takes the running sum home.
    let mut spare = scratch.take_ct(eval.params(), level);
    let links = pending.map(|(low, inner)| (low, Some(inner)));
    let linked = links.chain([(0, None)]).try_for_each(|(low, inner)| {
        if u > low {
            let gap = ((u - low) * unit) as i64;
            eval.rotate_rows_into(&mut spare, &acc, gap, keys, scratch)?;
            std::mem::swap(&mut acc, &mut spare);
            u = low;
        }
        inner.map_or(Ok(()), |inner| eval.add_assign(&mut acc, inner))
    });
    scratch.put_ct(spare);
    linked.map(|()| acc)
}
