//! Chain-aware HE-PTune v2: the [`ChainPlan`] solver.
//!
//! The per-layer tuner ([`crate::ptune::tuner`]) sweeps abstract
//! single-word `(n, q, A, W)` tuples — fine for the paper's Fig. 3
//! scatter, but the engine runs *RNS chains*: presets with congruent
//! limbs, a level per layer, a special prime for hybrid key switching,
//! and a rotation plan ([`FcPlan`] / [`ConvPlan`]) per layer whose
//! price depends on all of the above. This module closes that gap: it
//! sweeps **{chain, per-layer level, rotation plan}** jointly over a
//! network's linear layers, using the hybrid-aware cost model
//! ([`HeCostParams`]) and a chain-exact noise model
//! ([`layer_noise_on_chain`]), and emits a [`ChainPlan`] — concrete
//! [`BfvParams`] (exact moduli, `t`, special prime) plus a level and plan
//! label per layer — that `cheetah-protocol`'s `PreparedLayers` and
//! `cheetah-serve` consume directly. "Fast" becomes a solver output
//! instead of a hand pick.

use cheetah_bfv::BfvParams;
use cheetah_nn::LinearLayer;

use crate::cost::HeCostParams;
use crate::linear::{ConvPlan, FcPlan};
use crate::ptune::noise::{layer_noise_shape, LayerNoise, NoiseRegime, NoiseShape};
use crate::ptune::tuner::InfeasibleLayer;
use crate::quant::QuantSpec;
use crate::schedule::Schedule;
use crate::sparse::{ConvStructure, FcStructure, LayerStructure};

pub use cheetah_bfv::noise::FAILURE_SCALE;

/// Budget (bits) a level must clear to be planned — the same margin the
/// protocol layer's runtime planner keeps in hand.
const PLAN_MARGIN_BITS: f64 = 2.0;

/// Noise of one layer evaluated **on a concrete chain at a level**, from
/// the exact limb values rather than an abstract `q_bits`: the ceiling is
/// `Q_ℓ/2t` of the live limbs, the rotate additive is the hybrid
/// `live·(q_max/P)·n·B/2` term when the chain carries a special prime and
/// the digit `l_ct·A·B·n/2` term otherwise, and the input is a fresh
/// encryption mod-switched down `level` limbs (the Gazelle session
/// re-encrypts between layers, so every layer starts fresh).
pub fn layer_noise_on_chain(
    layer: &LinearLayer,
    params: &BfvParams,
    level: usize,
    schedule: Schedule,
    regime: NoiseRegime,
) -> LayerNoise {
    layer_noise_on_chain_structured(layer, None, params, level, schedule, regime)
}

/// The packed-convolution plan [`crate::linear::HomConv2d`] would execute
/// for `c` on this chain at this level — the engine's own chooser over the
/// measured structure, or the dense one without it.
fn conv_plan_on_chain(
    c: &cheetah_nn::ConvSpec,
    structure: Option<&LayerStructure>,
    params: &BfvParams,
    level: usize,
) -> ConvPlan {
    let cost = HeCostParams::for_bfv(params, level);
    let dense;
    let s = match structure {
        Some(LayerStructure::Conv(s)) => s,
        _ => {
            dense = ConvStructure::dense(c.co, c.ci, c.fw);
            &dense
        }
    };
    ConvPlan::choose(c, params.row_size(), s, &cost)
}

/// [`layer_noise_on_chain`] under a measured weight structure. FC layers
/// scale Table V's mult/rotate term counts by the live-diagonal fraction
/// (skipped diagonals contribute no rotate-mul term at all). Convolutions
/// count the terms of the plan the engine runs — the widest group's masks
/// times the longest Horner chain, one rotation per chain link — and
/// charge every multiply on `v0 + ηA` whatever `schedule` says: the packed
/// kernel's taps are hoisted rotations of the input, multiplied after.
/// Sparse layers clear the margin at levels their dense pricing could not
/// afford. `None` prices the dense (fully live) worst case.
pub fn layer_noise_on_chain_structured(
    layer: &LinearLayer,
    structure: Option<&LayerStructure>,
    params: &BfvParams,
    level: usize,
    schedule: Schedule,
    regime: NoiseRegime,
) -> LayerNoise {
    let n = params.degree() as f64;
    let sigma = params.sigma();
    let b = 6.0 * sigma;
    let t = params.plain_modulus().value() as f64;
    let l_pt = params.l_pt() as f64;
    let w = if params.l_pt() == 1 {
        t
    } else {
        params.w_dcmp() as f64
    };
    let live = params.live_limbs_at(level);
    // Product of the dropped tail limbs: each switch divides the
    // invariant noise by its dropped limb at the price of a small
    // additive rounding term.
    let dropped: f64 = (live..params.limbs())
        .map(|i| params.chain().modulus(i).value() as f64)
        .product();
    let (shape, schedule) = match layer {
        LinearLayer::Conv(c) => {
            let plan = conv_plan_on_chain(c, structure, params, level);
            let links = plan.longest_chain().max(1) as f64;
            let shape = NoiseShape {
                mult_terms: plan.widest_group().max(1) as f64 * links,
                rot_terms: links,
            };
            (shape, Schedule::InputAligned)
        }
        LinearLayer::Fc(_) => {
            let mut shape = layer_noise_shape(layer, params.degree());
            // A dead diagonal contributes no rotate-mul term: scale both
            // term counts by the live fraction (floored at one term so an
            // almost-empty layer still pays its single live accumulation).
            let live_frac = structure.map_or(1.0, LayerStructure::live_fraction);
            if live_frac < 1.0 {
                shape.mult_terms = (shape.mult_terms * live_frac).max(1.0);
                shape.rot_terms = (shape.rot_terms * live_frac).max(1.0);
            }
            (shape, schedule)
        }
    };
    let ceiling_bits = params.noise_ceiling_at(level).log2();

    let noise_log2 = match regime {
        NoiseRegime::WorstCase => {
            let v0 = 2.0 * n * b * b / dropped + level as f64 * (1.0 + (n + 1.0) / 2.0);
            let eta_m = n * l_pt * w / 2.0;
            let eta_a = match params.special() {
                Some(p) => {
                    let q_max = (0..live)
                        .map(|i| params.chain().modulus(i).value())
                        .max()
                        .unwrap_or(1) as f64;
                    live as f64 * (q_max / p.value() as f64) * n * b / 2.0 + 1.0 + (n + 1.0) / 2.0
                }
                None => params.l_ct_at(level) as f64 * params.a_dcmp() as f64 * b * n / 2.0,
            };
            let input = match schedule {
                Schedule::PartialAligned => v0,
                Schedule::InputAligned => v0 + eta_a,
            };
            (shape.mult_terms * eta_m * input + shape.rot_terms * eta_a).log2()
        }
        NoiseRegime::Statistical => {
            let round_var = (1.0 + 2.0 * n / 3.0) / 12.0;
            let v0 = sigma * sigma * (1.0 + 4.0 * n / 3.0) / (dropped * dropped)
                + level as f64 * round_var;
            let eta_m = if params.l_pt() == 1 {
                n * t * t / 12.0
            } else {
                n * l_pt * w * w / 3.0
            };
            let eta_a = match params.special() {
                Some(p) => {
                    let q_max = (0..live)
                        .map(|i| params.chain().modulus(i).value())
                        .max()
                        .unwrap_or(1) as f64;
                    let pv = p.value() as f64;
                    live as f64 * n * (q_max * q_max / 12.0) * sigma * sigma / (pv * pv) + round_var
                }
                None => {
                    let a = params.a_dcmp() as f64;
                    params.l_ct_at(level) as f64 * n * (a * a / 12.0) * sigma * sigma
                }
            };
            let input = match schedule {
                Schedule::PartialAligned => v0,
                Schedule::InputAligned => v0 + eta_a,
            };
            let variance = shape.mult_terms * eta_m * input + shape.rot_terms * eta_a;
            variance.log2() / 2.0 + FAILURE_SCALE.log2()
        }
    };
    LayerNoise {
        noise_log2,
        budget_bits: ceiling_bits - noise_log2,
    }
}

/// What [`layer_cost_on_chain_structured`] prices one layer at.
struct LayerCost {
    int_mults: f64,
    he_mult: f64,
    he_rotate: f64,
    label: String,
}

/// One layer's slot in a [`ChainPlan`]: the level it runs at, the rotation
/// plan the cost model picked at that level, and the modeled cost/budget.
#[derive(Debug, Clone)]
pub struct LayerPlan {
    /// Layer name.
    pub layer: String,
    /// Chain level (dropped limbs) the layer runs at.
    pub level: usize,
    /// Rotation-plan label (`fc bsgs tiles=.. b=.. g=.. live=../.. fold=..`,
    /// `conv packed b=.. g=.. live=../.. out=..`, `zero`) — the very label
    /// the prepared layer reports, priced under the same [`HeCostParams`].
    pub plan: String,
    /// Modeled integer multiplications for the layer at this level.
    pub int_mults: f64,
    /// Modeled plaintext multiplies: what `OpCounts` measures on the
    /// prepared layer.
    pub he_mult: f64,
    /// Modeled rotations, exact like `he_mult`.
    pub he_rotate: f64,
    /// Remaining modeled noise budget (bits) at this level.
    pub budget_bits: f64,
}

/// The solver's output: one concrete chain for the whole network plus a
/// level and rotation plan per linear layer. Everything a session needs —
/// exact moduli, `t`, the special prime, decomposition bases — is inside
/// `params`; `levels()` is what `PreparedLayers` consumes.
#[derive(Debug, Clone)]
pub struct ChainPlan {
    /// Candidate name (`4096/hybrid_2x36`, …) for reports.
    pub name: String,
    /// The chosen parameter set, special prime included when hybrid won.
    pub params: BfvParams,
    /// The dot-product schedule the plan was priced under. No prepared
    /// layer reads it any more — FC layers and convolutions both run one
    /// kernel — it is kept because the analytic Fig. 5/6 pricing and the
    /// frozen `bench_e2e` driver still pass one.
    pub schedule: Schedule,
    /// Per-linear-layer plans, in network order.
    pub layers: Vec<LayerPlan>,
    /// Total modeled integer multiplications across the network.
    pub total_int_mults: f64,
}

impl ChainPlan {
    /// Per-layer levels in network order — the `PreparedLayers` input.
    pub fn levels(&self) -> Vec<usize> {
        self.layers.iter().map(|l| l.level).collect()
    }
}

/// The chain candidates the solver sweeps at the given degrees: every
/// digit preset and every hybrid preset that exists (is secure and fits
/// the CRT range) at each degree.
pub fn chain_candidates(degrees: &[usize]) -> Vec<(String, BfvParams)> {
    let mut out = Vec::new();
    for &n in degrees {
        for presets in [BfvParams::presets(n), BfvParams::hybrid_presets(n)]
            .into_iter()
            .flatten()
        {
            for (name, p) in presets {
                out.push((format!("{n}/{name}"), p));
            }
        }
    }
    out
}

/// Prices one layer on a chain at a level, choosing the rotation plan
/// jointly. FC layers run [`FcPlan::choose`] and convolutions
/// [`ConvPlan::choose`] — the very choosers `HomFc` / `HomConv2d` run at
/// prepare time — so the multiplies, rotations and label are the ones the
/// prepared kernel will perform: one multiply per live mask, the hoisted
/// baby replays and the giant steps (an FC layer's fold is the client's).
///
/// `structure = None` prices dense; an all-zero layer costs nothing.
fn layer_cost_on_chain_structured(
    layer: &LinearLayer,
    structure: Option<&LayerStructure>,
    params: &BfvParams,
    level: usize,
) -> LayerCost {
    let cost = HeCostParams::for_bfv(params, level);
    if structure.is_some_and(LayerStructure::all_zero) {
        return LayerCost {
            int_mults: 0.0,
            he_mult: 0.0,
            he_rotate: 0.0,
            label: "zero".to_string(),
        };
    }
    match layer {
        LinearLayer::Fc(f) => {
            let row = params.row_size();
            let plan = match structure {
                Some(LayerStructure::Fc(s)) => FcPlan::choose(s, row, &cost),
                _ => FcPlan::choose(&FcStructure::dense(f.no, f.ni), row, &cost),
            };
            LayerCost {
                int_mults: plan.int_mults(&cost) as f64,
                he_mult: plan.live as f64,
                he_rotate: plan.rotations() as f64,
                label: plan.label(),
            }
        }
        LinearLayer::Conv(c) => {
            let plan = conv_plan_on_chain(c, structure, params, level);
            LayerCost {
                int_mults: plan.int_mults(&cost) as f64,
                he_mult: plan.live_masks() as f64,
                he_rotate: plan.rotations() as f64,
                label: plan.label(),
            }
        }
    }
}

/// Solves for one chain + per-layer levels/plans across a network's
/// linear layers: for every candidate chain, every layer picks its
/// cheapest feasible level (noise budget ≥ 2 bits under `regime` on the
/// exact chain); the candidate with the least network total wins.
///
/// # Errors
///
/// [`InfeasibleLayer`] when some layer is infeasible on **every**
/// candidate — its precision request cannot be met by any swept chain.
pub fn solve_chain_plan(
    layers: &[LinearLayer],
    quant: &QuantSpec,
    schedule: Schedule,
    regime: NoiseRegime,
    degrees: &[usize],
) -> Result<ChainPlan, InfeasibleLayer> {
    solve_chain_plan_structured(layers, None, quant, schedule, regime, degrees)
}

/// [`solve_chain_plan`] under measured weight structures (one per layer,
/// network order): every layer is priced — cost *and* noise — at its
/// post-sparsity op counts, so sparser layers can afford deeper levels
/// and the chain total reflects the rotations the prepared kernels will
/// actually perform. `None` (or a `structures` length mismatch, which
/// panics) reproduces the dense solve exactly.
///
/// # Errors
///
/// Same conditions as [`solve_chain_plan`].
///
/// # Panics
///
/// Panics when `structures` is `Some` with a length ≠ `layers.len()`.
pub fn solve_chain_plan_structured(
    layers: &[LinearLayer],
    structures: Option<&[LayerStructure]>,
    quant: &QuantSpec,
    schedule: Schedule,
    regime: NoiseRegime,
    degrees: &[usize],
) -> Result<ChainPlan, InfeasibleLayer> {
    if let Some(s) = structures {
        assert_eq!(s.len(), layers.len(), "one structure per linear layer");
    }
    let structure_of = |i: usize| structures.map(|s| &s[i]);
    let needed_bits: Vec<u32> = layers
        .iter()
        .map(|l| quant.statistical_plain_bits(l))
        .collect();
    let mut best: Option<ChainPlan> = None;
    let mut first_failure: Option<InfeasibleLayer> = None;
    'candidates: for (name, params) in chain_candidates(degrees) {
        let t_bits = 64 - params.plain_modulus().value().leading_zeros();
        let mut plan_layers = Vec::with_capacity(layers.len());
        let mut total = 0.0;
        for (i, (layer, &needed)) in layers.iter().zip(&needed_bits).enumerate() {
            if t_bits < needed {
                first_failure.get_or_insert_with(|| InfeasibleLayer {
                    layer: layer.name().to_owned(),
                    t_bits: needed,
                });
                continue 'candidates;
            }
            let mut chosen: Option<LayerPlan> = None;
            for level in 0..params.levels() {
                let noise = layer_noise_on_chain_structured(
                    layer,
                    structure_of(i),
                    &params,
                    level,
                    schedule,
                    regime,
                );
                if noise.budget_bits < PLAN_MARGIN_BITS {
                    continue;
                }
                let cost = layer_cost_on_chain_structured(layer, structure_of(i), &params, level);
                if chosen.as_ref().is_none_or(|c| cost.int_mults < c.int_mults) {
                    chosen = Some(LayerPlan {
                        layer: layer.name().to_owned(),
                        level,
                        plan: cost.label,
                        int_mults: cost.int_mults,
                        he_mult: cost.he_mult,
                        he_rotate: cost.he_rotate,
                        budget_bits: noise.budget_bits,
                    });
                }
            }
            let Some(plan) = chosen else {
                first_failure.get_or_insert_with(|| InfeasibleLayer {
                    layer: layer.name().to_owned(),
                    t_bits: needed,
                });
                continue 'candidates;
            };
            total += plan.int_mults;
            plan_layers.push(plan);
        }
        if best.as_ref().is_none_or(|b| total < b.total_int_mults) {
            best = Some(ChainPlan {
                name,
                params,
                schedule,
                layers: plan_layers,
                total_int_mults: total,
            });
        }
    }
    best.ok_or_else(|| {
        first_failure.unwrap_or_else(|| InfeasibleLayer {
            layer: layers
                .first()
                .map(|l| l.name().to_owned())
                .unwrap_or_default(),
            t_bits: 0,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheetah_nn::{ConvSpec, FcSpec};

    fn tiny_layers() -> Vec<LinearLayer> {
        vec![
            LinearLayer::Conv(ConvSpec {
                name: "c1".into(),
                w: 8,
                fw: 3,
                ci: 1,
                co: 4,
                stride: 1,
                pad: 1,
            }),
            LinearLayer::Fc(FcSpec {
                name: "fc1".into(),
                ni: 64,
                no: 10,
            }),
        ]
    }

    #[test]
    fn solver_produces_a_full_plan_for_the_tiny_cnn() {
        let plan = solve_chain_plan(
            &tiny_layers(),
            &QuantSpec::default(),
            Schedule::PartialAligned,
            NoiseRegime::Statistical,
            &[4096, 8192],
        )
        .expect("tiny CNN must be solvable");
        assert_eq!(plan.layers.len(), 2);
        assert_eq!(plan.levels().len(), 2);
        assert!(plan.total_int_mults > 0.0);
        for lp in &plan.layers {
            assert!(
                lp.level < plan.params.levels(),
                "{}: level in range",
                lp.layer
            );
            assert!(lp.budget_bits >= PLAN_MARGIN_BITS, "{}: margin", lp.layer);
            assert!(!lp.plan.is_empty());
        }
    }

    #[test]
    fn solver_prefers_a_hybrid_chain_when_rotation_noise_bites() {
        // Under Sched-IA every input slot already carries one key-switch
        // additive, so digit chains pay their `l_ct·A·B` rotate term
        // inside the multiplicative product while the hybrid term is
        // `P`-divided to nothing — the solver must notice and pick a
        // special-prime chain.
        let layers = vec![LinearLayer::Fc(FcSpec {
            name: "fc".into(),
            ni: 64,
            no: 32,
        })];
        let plan = solve_chain_plan(
            &layers,
            &QuantSpec::default(),
            Schedule::InputAligned,
            NoiseRegime::Statistical,
            &[4096],
        )
        .unwrap();
        assert!(
            plan.params.has_special(),
            "rotation-noise-bound nets should pick a hybrid chain, got {}",
            plan.name
        );
    }

    #[test]
    fn chain_noise_model_feasible_levels_shrink_with_depth() {
        // Budget at deeper levels of a congruent chain stays within a few
        // bits of level 0 (the modulus switch divides noise and ceiling
        // alike), while the cost strictly drops — which is why the solver
        // plans the deepest feasible level.
        let params = BfvParams::preset_hybrid_2x36(4096).unwrap();
        let layer = &tiny_layers()[0];
        let l0 = layer_noise_on_chain(
            layer,
            &params,
            0,
            Schedule::PartialAligned,
            NoiseRegime::Statistical,
        );
        let l1 = layer_noise_on_chain(
            layer,
            &params,
            1,
            Schedule::PartialAligned,
            NoiseRegime::Statistical,
        );
        assert!(l0.budget_bits > 0.0);
        let price = |level| layer_cost_on_chain_structured(layer, None, &params, level).int_mults;
        let (c0, c1) = (price(0), price(1));
        assert!(c1 < c0, "deeper level must be cheaper: {c1} vs {c0}");
        // The level-1 ceiling is one 36-bit limb; the budget moves but
        // the model must not explode (rotate noise is P-divided).
        assert!(
            l1.noise_log2 < l0.noise_log2 + 40.0,
            "hybrid rotate noise must not blow up at depth"
        );
    }

    #[test]
    fn candidates_cover_digit_and_hybrid_presets() {
        let cands = chain_candidates(&[4096]);
        assert!(cands.iter().any(|(_, p)| p.has_special()));
        assert!(cands.iter().any(|(_, p)| !p.has_special()));
        assert!(cands.iter().all(|(_, p)| p.degree() == 4096));
    }

    #[test]
    fn structured_solve_prices_sparsity_cheaper_never_costlier() {
        use crate::sparse::{FcStructure, LayerStructure};
        // An FC wide enough that the row cannot tile it down to one
        // diagonal (256 → 40: d = 64, at most 8 copies, δ = 8) — a layer
        // that is one mask multiply dense has nothing left to prune.
        let mut layers = tiny_layers();
        let (no, ni, d) = (40usize, 256usize, 64usize);
        layers[1] = LinearLayer::Fc(FcSpec {
            name: "fc1".into(),
            ni,
            no,
        });
        let quant = QuantSpec::default();
        let dense = solve_chain_plan(
            &layers,
            &quant,
            Schedule::PartialAligned,
            NoiseRegime::Statistical,
            &[4096],
        )
        .unwrap();
        // Sparse FC structure (2 of the 64 folded diagonals live, on two
        // of the 8 tiled ones), dense conv.
        let fc = &layers[1];
        let mut w = vec![0i64; no * ni];
        for k in [3usize, 12] {
            for j in (0..ni).filter(|j| j % d < no) {
                w[(j % d) * ni + (j + k) % ni] = 3;
            }
        }
        let fc_structure = FcStructure::analyze(&w, no, ni);
        assert_eq!(fc_structure.live_diagonals(), 2);
        let structures = vec![
            LayerStructure::dense(&layers[0]),
            LayerStructure::Fc(fc_structure.clone()),
        ];
        let sparse = solve_chain_plan_structured(
            &layers,
            Some(&structures),
            &quant,
            Schedule::PartialAligned,
            NoiseRegime::Statistical,
            &[4096],
        )
        .unwrap();
        assert!(
            sparse.total_int_mults < dense.total_int_mults,
            "post-sparsity pricing must shrink the chain total: {} vs {}",
            sparse.total_int_mults,
            dense.total_int_mults
        );
        // The FC layer is planned over its live diagonals: the label is
        // the engine's chooser's for that structure at the planned level,
        // with no more masks than the two live folded diagonals.
        let lp = &sparse.layers[1];
        let cost = HeCostParams::for_bfv(&sparse.params, lp.level);
        let fc_plan = FcPlan::choose(&fc_structure, sparse.params.row_size(), &cost);
        assert_eq!(lp.plan, fc_plan.label());
        assert!(
            lp.he_mult <= 2.0 && lp.he_mult == fc_plan.live as f64,
            "sparse FC must be planned over its live diagonals, got {}",
            lp.plan
        );
        assert_eq!(fc.name(), "fc1");
        // Dense structures reproduce the dense solve bit for bit.
        let dense_structs: Vec<LayerStructure> = layers.iter().map(LayerStructure::dense).collect();
        let redone = solve_chain_plan_structured(
            &layers,
            Some(&dense_structs),
            &quant,
            Schedule::PartialAligned,
            NoiseRegime::Statistical,
            &[4096],
        )
        .unwrap();
        assert_eq!(redone.total_int_mults, dense.total_int_mults);
        assert_eq!(redone.name, dense.name);
    }

    #[test]
    fn infeasible_precision_is_a_typed_error() {
        // A 40-bit-plus precision request exceeds every preset's t.
        let layers = vec![LinearLayer::Fc(FcSpec {
            name: "wide".into(),
            ni: 64,
            no: 8,
        })];
        let quant = QuantSpec {
            weight_bits: 20,
            activation_bits: 20,
            ..QuantSpec::default()
        };
        let err = solve_chain_plan(
            &layers,
            &quant,
            Schedule::PartialAligned,
            NoiseRegime::Statistical,
            &[4096],
        )
        .unwrap_err();
        assert_eq!(err.layer, "wide");
    }
}
