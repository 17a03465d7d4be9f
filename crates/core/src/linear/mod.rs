//! Functional homomorphic linear layers on the real BFV engine: one
//! Baby-Step-Giant-Step kernel ([`kernel`]: hoist and replay the baby set,
//! lazy group sums, Horner giant steps over the live groups) under two
//! layouts — convolution (Fig. 4) packed, hoisted tap baby steps and
//! channel-diagonal giant steps,
//! every output channel in one ciphertext ([`conv`]); FC over the live
//! folded diagonals ([`fc`]; the diagonal method is its baby-width-1 and
//! baby-width-`d` corners — Fig. 5's Sched-PA and hoisted Sched-IA; a dense
//! layer its all-live case).
//!
//! Beside them sit the two rules a round's record is built from, both held
//! against one margin, [`LEVEL_PLAN_MARGIN_BITS`]: [`run_level`], the level
//! a layer runs at, and [`shipping_level`], the level its download ships
//! at. A prepared layer has no level of its own; its record has one.

pub mod conv;
pub mod fc;
pub mod kernel;

use cheetah_bfv::{BfvParams, NoiseEstimate};

use crate::sparse::BsgsPlan;

pub use conv::{ConvPlan, HomConv2d};
pub use fc::{FcPlan, HomFc};
pub use kernel::PreparedKernel;

/// Statistical budget (bits) a layer's predicted output must keep for a
/// level to be planned — by [`run_level`] and [`shipping_level`] alike.
pub const LEVEL_PLAN_MARGIN_BITS: f64 = 2.0;

/// The one level rule: the deepest level at which `plan`, run on an input
/// of noise `input` with every weight mask charged `⌊t/2⌋` (no plaintext's
/// coefficients exceed it), keeps [`LEVEL_PLAN_MARGIN_BITS`] of
/// **statistical** (IBDG) budget — the §IV-B provisioning rule HE-PTune
/// uses (failure probability below 1e-10) — or `None` when no level does.
/// The chain solver and `cheetah-serve`'s `PreparedModel` both call it, on
/// the plan chosen once per layer and on the round's input: a fresh
/// encryption for the first layer, one with a `⌊t/2⌋` mask removed for
/// every later one. Fresh noise is absolute — the client encrypts each
/// upload over only the limbs its layer keeps — so the input is the same
/// at every level. The worst-case bound would pin every kernel at full
/// level: baby steps are rotate-then-multiply, so the Table-III bound pays
/// the key-switch additive inside the multiplication even though the
/// measured noise sits far below it.
pub fn run_level(plan: &BsgsPlan, input: &NoiseEstimate, params: &BfvParams) -> Option<usize> {
    let half_t = params.plain_modulus().value() / 2;
    (0..params.levels()).rev().find(|&level| {
        let out = plan.noise_after(input, params, level, half_t);
        out.budget_bits_statistical_at(params, level) >= LEVEL_PLAN_MARGIN_BITS
    })
}

/// The shipping rule, [`run_level`]'s other half: the deepest level,
/// `level` or past it, that a layer's `output` (an estimate at `level`)
/// can be modulus-switched to and still keep [`LEVEL_PLAN_MARGIN_BITS`] of
/// statistical budget once a mask of coefficient norm `mask_norm` is
/// added there — Gazelle's switch-before-send (§II-A), so a download
/// carries only the limbs its noise needs. Walks the switch transitions
/// and stops before the first level that misses the margin; returns
/// `level` itself when none clears it (or the chain has no limb to drop).
pub fn shipping_level(
    output: &NoiseEstimate,
    level: usize,
    mask_norm: u64,
    params: &BfvParams,
) -> usize {
    let mut est = *output;
    let mut shipped = level;
    while shipped < params.max_level() {
        let next = est.mod_switch(params, shipped);
        let masked = next.add_plain(mask_norm);
        if masked.budget_bits_statistical_at(params, shipped + 1) < LEVEL_PLAN_MARGIN_BITS {
            break;
        }
        est = next;
        shipped += 1;
    }
    shipped
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod shipping_tests {
    use super::*;

    /// Output estimates from a fresh ciphertext's up to `2^100` times its
    /// noise, ascending.
    fn outputs(params: &BfvParams) -> impl Iterator<Item = NoiseEstimate> {
        let fresh = NoiseEstimate::fresh(params);
        (0..=100).map(move |k| NoiseEstimate {
            bound_log2: fresh.bound_log2 + f64::from(k),
            variance_log2: fresh.variance_log2 + 2.0 * f64::from(k),
        })
    }

    #[test]
    fn shipped_levels_keep_the_margin_and_fall_with_noise() {
        for params in [
            // One limb: nothing to drop, every output ships where it ran.
            BfvParams::preset_hybrid_1x54(4096).unwrap(),
            BfvParams::preset_rns_3x36(4096).unwrap(),
            BfvParams::preset_hybrid_2x36(4096).unwrap(),
        ] {
            let t = params.plain_modulus().value();
            for level in 0..params.levels() {
                let mut previous = params.max_level();
                for out in outputs(&params) {
                    let shipped = shipping_level(&out, level, t, &params);
                    assert!(shipped >= level && shipped <= previous, "monotone");
                    previous = shipped;
                    let mut est = out;
                    for from in level..shipped {
                        est = est.mod_switch(&params, from);
                    }
                    if shipped > level {
                        let budget = est
                            .add_plain(t)
                            .budget_bits_statistical_at(&params, shipped);
                        assert!(budget >= LEVEL_PLAN_MARGIN_BITS, "{budget:.1} bits");
                    }
                }
                // The quietest output reaches the last limb, the loudest
                // stays where it ran.
                let mut all = outputs(&params);
                let quiet = all.next().unwrap();
                assert_eq!(
                    shipping_level(&quiet, level, t, &params),
                    params.max_level()
                );
                let loud = all.last().unwrap();
                assert_eq!(shipping_level(&loud, level, t, &params), level);
            }
        }
    }
}

#[cfg(test)]
mod plan_tests {
    use crate::cost::HeCostParams;
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
}
