//! Functional homomorphic linear layers on the real BFV engine:
//! convolution (Fig. 4) as one packed kernel — hoisted tap baby steps,
//! Horner channel-diagonal giant steps, every output channel in one
//! ciphertext — FC as one Baby-Step-Giant-Step kernel over the live folded
//! diagonals (the diagonal method is its baby-width-1 and baby-width-`d`
//! corners; a dense layer its all-live case), and bare dot products under
//! both schedules (Fig. 5).

pub mod conv;
pub mod dot;
pub mod fc;
pub mod parallel;

pub use conv::{ConvPlan, HomConv2d};
pub use dot::{dot_input_aligned, dot_partial_aligned};
pub use fc::{FcPlan, HomFc};

use crate::cost::HeCostParams;
use cheetah_bfv::{
    BfvParams, Ciphertext, Evaluator, GaloisKeys, HoistedDecomposition, NoiseEstimate, Result,
    Scratch,
};

/// How a rotate-and-sum reduction `Σ_{c=0}^{count−1} rot(x, c·stride)`
/// is evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReducePlan {
    /// The power-of-two doubling ladder: `log2(count)` rotations, but each
    /// reads the freshly accumulated ciphertext — a dependent chain that
    /// cannot hoist (only valid for power-of-two `count`).
    Ladder,
    /// BSGS reshape with `s·g = count`: hoist `x` once for the `s − 1`
    /// baby replays, sum, hoist the inner sum once for the `g − 1` giant
    /// replays. `s + g − 2` rotations, every one a hoisted replay; the two
    /// hoists are the only NTT work. `s = count, g = 1` is the flat
    /// hoisted sum.
    Bsgs {
        /// Baby strides `0..s`.
        s: usize,
        /// Giant strides `0, s, 2s, …`.
        g: usize,
    },
}

impl ReducePlan {
    /// Picks the cheapest evaluation of a `count`-term rotate-and-sum
    /// under `cost`: the doubling ladder (power-of-two `count` only)
    /// versus every BSGS factorization `s·g = count`. Ties prefer the
    /// ladder (fewer total operations at equal multiplication cost).
    pub fn choose(count: usize, cost: &HeCostParams) -> ReducePlan {
        if count <= 1 {
            return ReducePlan::Ladder;
        }
        let replay = cost.he_rotate_hoisted_mults();
        let hoist = cost.hoist_mults();
        let bsgs_cost = |s: usize, g: usize| -> u64 {
            (if s > 1 { hoist } else { 0 })
                + (s as u64 - 1) * replay
                + (if g > 1 { hoist } else { 0 })
                + (g as u64 - 1) * replay
        };
        let mut best = None::<(u64, ReducePlan)>;
        if count.is_power_of_two() {
            let ladder = count.ilog2() as u64 * cost.he_rotate_mults();
            best = Some((ladder, ReducePlan::Ladder));
        }
        for s in (1..=count).filter(|&s| count.is_multiple_of(s)) {
            let g = count / s;
            if s == 1 && g > 1 {
                // g − 1 replays of an unhoisted source is not a real plan.
                continue;
            }
            let c = bsgs_cost(s, g);
            if best.is_none_or(|(bc, _)| c < bc) {
                best = Some((c, ReducePlan::Bsgs { s, g }));
            }
        }
        best.expect("count >= 2 always yields the flat plan").1
    }

    /// Rotations the plan performs for a `count`-term reduction.
    pub fn rotations(&self, count: usize) -> usize {
        match self {
            ReducePlan::Ladder => count.ilog2() as usize,
            ReducePlan::Bsgs { s, g } => s + g - 2,
        }
    }

    /// The exact rotation steps a `count`-term reduction with this plan
    /// performs at the given slot `stride` — generate Galois keys for
    /// these (and nothing more).
    pub fn steps(&self, count: usize, stride: i64) -> Vec<i64> {
        match self {
            ReducePlan::Ladder => {
                let mut steps = Vec::new();
                let mut half = count as i64 / 2;
                while half >= 1 {
                    steps.push(half * stride);
                    half /= 2;
                }
                steps
            }
            ReducePlan::Bsgs { s, g } => {
                let mut steps: Vec<i64> = (1..*s as i64).map(|v| v * stride).collect();
                steps.extend((1..*g as i64).map(|j| j * *s as i64 * stride));
                steps
            }
        }
    }
}

/// Evaluates `acc ← Σ_{c=0}^{count−1} rot(acc, c·stride)` under `plan` on
/// the scratch path. Every plan computes the same mathematical sum, so the
/// result decrypts identically whichever is chosen; only the
/// rotation/hoist structure (and therefore the NTT bill) differs.
///
/// # Errors
///
/// Propagates evaluator errors (missing Galois keys for the plan's
/// strides, parameter mismatches).
///
/// # Panics
///
/// Panics when `plan` is [`ReducePlan::Ladder`] and `count` is not a
/// power of two, or when a BSGS plan does not factor `count` exactly.
#[allow(clippy::too_many_arguments)] // the three trailing buffers are the shared scratch set
pub(crate) fn rotate_sum_reduce(
    mut acc: Ciphertext,
    stride: i64,
    count: usize,
    plan: ReducePlan,
    eval: &Evaluator,
    keys: &GaloisKeys,
    scratch: &mut Scratch,
    rotated: &mut Ciphertext,
    hoisted: &mut HoistedDecomposition,
) -> Result<Ciphertext> {
    if count <= 1 {
        return Ok(acc);
    }
    match plan {
        ReducePlan::Ladder => {
            assert!(count.is_power_of_two(), "ladder needs a power of two");
            let mut half = count as i64 / 2;
            while half >= 1 {
                eval.rotate_rows_into(rotated, &acc, half * stride, keys, scratch)?;
                eval.add_assign(&mut acc, rotated)?;
                half /= 2;
            }
        }
        ReducePlan::Bsgs { s, g } => {
            assert_eq!(s * g, count, "BSGS reduce plan must factor the count");
            if s > 1 {
                let base = acc.clone();
                eval.hoist_into(hoisted, &base, scratch)?;
                for v in 1..s as i64 {
                    eval.rotate_hoisted_into(rotated, &base, hoisted, v * stride, keys, scratch)?;
                    eval.add_assign(&mut acc, rotated)?;
                }
            }
            if g > 1 {
                let inner = acc.clone();
                eval.hoist_into(hoisted, &inner, scratch)?;
                for j in 1..g as i64 {
                    eval.rotate_hoisted_into(
                        rotated,
                        &inner,
                        hoisted,
                        j * s as i64 * stride,
                        keys,
                        scratch,
                    )?;
                    eval.add_assign(&mut acc, rotated)?;
                }
            }
        }
    }
    Ok(acc)
}

/// Noise model of [`rotate_sum_reduce`]: the plan's transition applied to
/// the accumulator estimate (unrotated terms are bounded by their rotated
/// counterparts, keeping the bound conservative).
pub(crate) fn rotate_sum_noise(
    acc: &NoiseEstimate,
    params: &BfvParams,
    level: usize,
    count: usize,
    plan: ReducePlan,
) -> NoiseEstimate {
    if count <= 1 {
        return *acc;
    }
    match plan {
        ReducePlan::Ladder => {
            let mut est = *acc;
            let mut half = count / 2;
            while half >= 1 {
                est = est.add(&est.rotate_at(params, level));
                half /= 2;
            }
            est
        }
        ReducePlan::Bsgs { s, g } => {
            let term = acc.rotate_at(params, level);
            let mut inner = term;
            for _ in 1..s {
                inner = inner.add(&term);
            }
            let group = inner.rotate_at(params, level);
            let mut est = group;
            for _ in 1..g {
                est = est.add(&group);
            }
            est
        }
    }
}

#[cfg(test)]
mod plan_tests {
    use super::*;
    use crate::sparse::{BsgsPlan, FcStructure};

    fn cost(l_ct: usize, limbs: usize) -> HeCostParams {
        HeCostParams {
            n: 4096,
            l_pt: 1,
            l_ct,
            limbs,
            hybrid: false,
        }
    }

    #[test]
    fn bsgs_plan_tiny_d_keeps_the_diagonal_path() {
        let c = cost(10, 1);
        for d in [1usize, 2] {
            let plan = BsgsPlan::choose(&FcStructure::dense(d, d), &c);
            assert_eq!((plan.b, plan.g), (1, d));
        }
    }

    #[test]
    fn bsgs_plan_scales_like_sqrt_d() {
        let c = cost(10, 1);
        for d in [16usize, 32, 64, 256, 1024] {
            let plan = BsgsPlan::choose(&FcStructure::dense(d, d), &c);
            assert!(plan.b * plan.g >= d, "b·g must cover every diagonal");
            assert!(
                plan.rotations() < d - 1,
                "d={d}: {} rotations must beat the {} diagonal rotations",
                plan.rotations(),
                d - 1
            );
            // The chosen split stays within a constant factor of √d on
            // both sides — the O(√d) headline.
            let sqrt = (d as f64).sqrt();
            assert!((plan.b as f64) <= 8.0 * sqrt && (plan.g as f64) <= 8.0 * sqrt);
        }
    }

    #[test]
    fn bsgs_plan_cost_is_minimal_over_candidates() {
        let c = cost(6, 3);
        let d = 64;
        let s = FcStructure::dense(d, d);
        let chosen = BsgsPlan::choose(&s, &c).rotation_mults(&c);
        for b in 1..=d {
            assert!(
                chosen <= BsgsPlan::for_structure(&s, b).rotation_mults(&c),
                "b={b} beats the chosen plan"
            );
        }
        // b = 1: every rotation direct, nothing hoisted (Sched-PA's order).
        let pa = BsgsPlan::for_structure(&s, 1);
        assert!(pa.baby_steps().is_empty());
        assert_eq!(pa.rotation_mults(&c), (d as u64 - 1) * c.he_rotate_mults());
        // b = d: one hoist, every rotation a replay (hoisted Sched-IA).
        let ia = BsgsPlan::for_structure(&s, d);
        assert_eq!((ia.g, ia.giant_rotations()), (1, 0));
        assert_eq!(
            ia.rotation_mults(&c),
            c.hoist_mults() + (d as u64 - 1) * c.he_rotate_hoisted_mults()
        );
    }

    #[test]
    fn reduce_plan_prefers_ladder_for_two_and_hoists_beyond() {
        let c = cost(10, 1);
        // count = 2: ladder (one direct rotation) ties the flat hoist and
        // wins the tie.
        assert_eq!(ReducePlan::choose(2, &c), ReducePlan::Ladder);
        // Mid-size power-of-two counts hoist; very large counts may fall
        // back to the O(log)-rotation ladder, which eventually beats the
        // O(√count) replay bill in the integer-mult model.
        for count in [4usize, 8, 16] {
            let plan = ReducePlan::choose(count, &c);
            assert!(
                matches!(plan, ReducePlan::Bsgs { s, g } if s * g == count),
                "count={count} chose {plan:?}"
            );
        }
        // Non-power-of-two counts always have the flat plan available.
        let plan = ReducePlan::choose(6, &c);
        assert!(matches!(plan, ReducePlan::Bsgs { s, g } if s * g == 6));
    }
}
