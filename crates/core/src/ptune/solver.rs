//! Chain-aware HE-PTune v2: the [`ChainPlan`] solver.
//!
//! The per-layer tuner ([`crate::ptune::tuner`]) sweeps abstract
//! single-word `(n, q, A, W)` tuples — fine for the paper's Fig. 3
//! scatter, but the engine runs *RNS chains*: presets with congruent
//! limbs, a level per layer, a special prime for hybrid key switching,
//! and a rotation plan ([`FcPlan`] / [`ConvPlan`]) per layer whose
//! price depends on all of the above. This module closes that gap: it
//! sweeps **{chain, per-layer level, rotation plan}** jointly over a
//! network's linear layers and emits a [`ChainPlan`] — concrete
//! [`BfvParams`] (exact moduli, `t`, special prime) plus a level and plan
//! label per layer — that `cheetah-serve`'s `PreparedModel` consumes
//! directly. "Fast" becomes a solver output instead of a hand pick.
//!
//! The solver models nothing of its own; it asks the engine. A layer's
//! plan comes from the choosers `HomFc` / `HomConv2d` run at prepare time,
//! its cost from that plan under the hybrid-aware [`HeCostParams`], its
//! noise from that plan's `noise_after` — the function a prepared layer
//! calls with its measured mask norm, here called with the largest norm a
//! plaintext can have on a fresh encryption — and its levels from
//! [`feasible_levels`], the rule the runtime level planner applies. A
//! solved level is therefore one the runtime accepts, and a solved budget
//! is never above the prepared layer's own.

use cheetah_bfv::{BfvParams, NoiseEstimate};
use cheetah_nn::{ConvSpec, LinearLayer};

use crate::cost::HeCostParams;
use crate::linear::{feasible_levels, ConvPlan, FcPlan};
use crate::ptune::tuner::InfeasibleLayer;
use crate::quant::QuantSpec;
use crate::sparse::{BsgsPlan, ConvStructure, FcStructure, LayerStructure};

/// One layer's slot in a [`ChainPlan`]: the level it runs at, the rotation
/// plan the cost model picked at that level, and the modeled cost/budget.
#[derive(Debug, Clone)]
pub struct LayerPlan {
    /// Layer name.
    pub layer: String,
    /// Chain level (dropped limbs) the layer runs at.
    pub level: usize,
    /// Rotation-plan label (`fc bsgs tiles=.. b=.. g=.. live=../.. fold=..`,
    /// `conv packed b=.. g=.. live=../.. out=..`) — the very label the
    /// prepared layer reports, priced under the same [`HeCostParams`].
    pub plan: String,
    /// Modeled integer multiplications for the layer at this level.
    pub int_mults: f64,
    /// Modeled plaintext multiplies: what `OpCounts` measures on the
    /// prepared layer.
    pub he_mult: f64,
    /// Modeled rotations, exact like `he_mult`.
    pub he_rotate: f64,
    /// Remaining statistical noise budget (bits) at this level: the
    /// plan's `noise_after` a fresh encryption switched down to it, every
    /// mask at norm `⌊t/2⌋`.
    pub budget_bits: f64,
}

/// The solver's output: one concrete chain for the whole network plus a
/// level and rotation plan per linear layer. Everything a session needs —
/// exact moduli, `t`, the special prime, decomposition bases — is inside
/// `params`; `levels()` is what `PreparedModel` consumes.
#[derive(Debug, Clone)]
pub struct ChainPlan {
    /// Candidate name (`4096/hybrid_2x36`, …) for reports.
    pub name: String,
    /// The chosen parameter set, special prime included when hybrid won.
    pub params: BfvParams,
    /// Per-linear-layer plans, in network order.
    pub layers: Vec<LayerPlan>,
    /// Total modeled integer multiplications across the network.
    pub total_int_mults: f64,
}

impl ChainPlan {
    /// Per-layer levels in network order — the `PreparedModel` input.
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

/// The plan the engine would prepare for one layer on a chain at a level:
/// the kernel plan both layer kinds carry, and the label the prepared layer
/// reports for it.
struct KernelPlan {
    kernel: BsgsPlan,
    label: String,
}

impl KernelPlan {
    /// Runs the chooser `HomFc` / `HomConv2d` runs at prepare time —
    /// [`FcPlan::choose`] / [`ConvPlan::choose`] under the chain's cost
    /// model at `level` — over the measured structure, or the dense
    /// (fully live) one without it.
    fn choose(
        layer: &LinearLayer,
        structure: Option<&LayerStructure>,
        params: &BfvParams,
        level: usize,
    ) -> Self {
        let cost = HeCostParams::for_bfv(params, level);
        let fc = |s: &FcStructure| {
            let plan = FcPlan::choose(s, params.slots(), &cost);
            (plan.label(), plan.kernel)
        };
        let conv = |c: &ConvSpec, s: &ConvStructure| {
            let plan = ConvPlan::choose(c, params.row_size(), s, &cost);
            (plan.label(), plan.kernel)
        };
        let (label, kernel) = match (layer, structure) {
            (LinearLayer::Fc(_), Some(LayerStructure::Fc(s))) => fc(s),
            (LinearLayer::Fc(f), _) => fc(&FcStructure::dense(f.no, f.ni)),
            (LinearLayer::Conv(c), Some(LayerStructure::Conv(s))) => conv(c, s),
            (LinearLayer::Conv(c), _) => conv(c, &ConvStructure::dense(c.co, c.ci, c.fw)),
        };
        Self { kernel, label }
    }

    /// The plan's own output-noise prediction with every mask at the
    /// largest norm a plaintext can have, `⌊t/2⌋`: a mask is batch-encoded,
    /// so the centred norm of its *coefficients* — what multiplication
    /// noise grows with, and what a prepared layer measures — has nothing
    /// to do with the size of the weights in its slots, and for weights
    /// without special structure sits within a hair of that bound.
    fn noise_after(
        &self,
        input: &NoiseEstimate,
        params: &BfvParams,
        level: usize,
    ) -> NoiseEstimate {
        let norm = params.plain_modulus().value() / 2;
        self.kernel.noise_after(input, params, level, norm)
    }

    /// The plan as a [`LayerPlan`]: the multiplies, rotations and label
    /// the prepared kernel will perform and report — one multiply per live
    /// mask, the hoisted baby replays and the giant steps (an FC layer's
    /// fold is the client's); an all-zero layer costs nothing.
    fn layer_plan(
        &self,
        layer: &LinearLayer,
        params: &BfvParams,
        level: usize,
        budget_bits: f64,
    ) -> LayerPlan {
        let cost = HeCostParams::for_bfv(params, level);
        LayerPlan {
            layer: layer.name().to_owned(),
            level,
            plan: self.label.clone(),
            int_mults: self.kernel.int_mults(&cost) as f64,
            he_mult: self.kernel.live_masks() as f64,
            he_rotate: self.kernel.rotations() as f64,
            budget_bits,
        }
    }
}

/// One layer on one chain: the cheapest of its [`feasible_levels`] (the
/// shallowest on a tie) under the plan the engine would prepare at each,
/// or `None` when no level clears the margin. The session re-encrypts
/// between layers, so every layer's input is a fresh encryption.
fn cheapest_level(
    layer: &LinearLayer,
    structure: Option<&LayerStructure>,
    params: &BfvParams,
) -> Option<LayerPlan> {
    let plans: Vec<KernelPlan> = (0..params.levels())
        .map(|level| KernelPlan::choose(layer, structure, params, level))
        .collect();
    let fresh = NoiseEstimate::fresh(params);
    feasible_levels(&fresh, params, |est, level| {
        plans[level].noise_after(est, params, level)
    })
    .map(|(level, budget)| plans[level].layer_plan(layer, params, level, budget))
    .min_by(|a, b| a.int_mults.total_cmp(&b.int_mults))
}

/// Solves for one chain + per-layer levels/plans across a network's
/// linear layers: for every candidate chain, every layer runs at its
/// cheapest feasible level; the candidate with the least network total
/// wins.
///
/// # Errors
///
/// [`InfeasibleLayer`] when some layer is infeasible on **every**
/// candidate — its precision request cannot be met by any swept chain.
pub fn solve_chain_plan(
    layers: &[LinearLayer],
    quant: &QuantSpec,
    degrees: &[usize],
) -> Result<ChainPlan, InfeasibleLayer> {
    solve_chain_plan_structured(layers, None, quant, degrees)
}

/// [`solve_chain_plan`] under measured weight structures (one per layer,
/// network order): every layer is priced — cost *and* noise — over the
/// plan its live masks leave, so sparser layers can afford deeper levels
/// and the chain total reflects the rotations the prepared kernels will
/// actually perform. `None` prices every layer dense (fully live), which
/// dense structures reproduce exactly.
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
    degrees: &[usize],
) -> Result<ChainPlan, InfeasibleLayer> {
    if let Some(s) = structures {
        assert_eq!(s.len(), layers.len(), "one structure per linear layer");
    }
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
            let chosen = if t_bits >= needed {
                cheapest_level(layer, structures.map(|s| &s[i]), &params)
            } else {
                None
            };
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
    use crate::linear::LEVEL_PLAN_MARGIN_BITS;
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
        let plan = solve_chain_plan(&tiny_layers(), &QuantSpec::default(), &[4096, 8192])
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
            assert!(
                lp.budget_bits >= LEVEL_PLAN_MARGIN_BITS,
                "{}: margin",
                lp.layer
            );
            assert!(!lp.plan.is_empty());
        }
    }

    #[test]
    fn chain_noise_model_feasible_levels_shrink_with_depth() {
        // On the digit chain the tiny FC layer clears the margin at level 0
        // and at level 1, with less budget in hand the deeper it runs, and
        // not on the last limb; the cost strictly drops with depth — which
        // is why the solver plans the deepest level the shared rule admits.
        let params = BfvParams::preset_rns_3x36(4096).unwrap();
        let layer = &tiny_layers()[1];
        let plans: Vec<KernelPlan> = (0..params.levels())
            .map(|level| KernelPlan::choose(layer, None, &params, level))
            .collect();
        let fresh = NoiseEstimate::fresh(&params);
        let feasible: Vec<(usize, f64)> = feasible_levels(&fresh, &params, |est, level| {
            plans[level].noise_after(est, &params, level)
        })
        .collect();
        let levels: Vec<usize> = feasible.iter().map(|&(level, _)| level).collect();
        assert_eq!(levels, [0, 1], "feasible levels");
        assert!(feasible[1].1 >= LEVEL_PLAN_MARGIN_BITS);
        assert!(feasible[1].1 < feasible[0].1, "budget shrinks with depth");
        let price = |level: usize| {
            plans[level]
                .layer_plan(layer, &params, level, 0.0)
                .int_mults
        };
        assert!(price(1) < price(0), "deeper level must be cheaper");
        let chosen = cheapest_level(layer, None, &params).unwrap();
        assert_eq!((chosen.level, chosen.budget_bits), feasible[1]);
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
        // An FC wide enough that the rows cannot tile it down to one
        // diagonal (256 → 40: d = 64, at most 16 copies, δ = 4) — a layer
        // that is one mask multiply dense has nothing left to prune.
        let mut layers = tiny_layers();
        let (no, ni, d) = (40usize, 256usize, 64usize);
        layers[1] = LinearLayer::Fc(FcSpec {
            name: "fc1".into(),
            ni,
            no,
        });
        let quant = QuantSpec::default();
        let dense = solve_chain_plan(&layers, &quant, &[4096]).unwrap();
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
        let sparse =
            solve_chain_plan_structured(&layers, Some(&structures), &quant, &[4096]).unwrap();
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
        let fc_plan = FcPlan::choose(&fc_structure, sparse.params.slots(), &cost);
        assert_eq!(lp.plan, fc_plan.label());
        assert!(
            lp.he_mult <= 2.0 && lp.he_mult == fc_plan.live as f64,
            "sparse FC must be planned over its live diagonals, got {}",
            lp.plan
        );
        assert_eq!(fc.name(), "fc1");
        // Dense structures reproduce the dense solve bit for bit.
        let dense_structs: Vec<LayerStructure> = layers.iter().map(LayerStructure::dense).collect();
        let redone =
            solve_chain_plan_structured(&layers, Some(&dense_structs), &quant, &[4096]).unwrap();
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
        let err = solve_chain_plan(&layers, &quant, &[4096]).unwrap_err();
        assert_eq!(err.layer, "wide");
    }
}
