//! The Gazelle baseline: one global HE parameter set + Sched-IA.
//!
//! "Gazelle uses the same sets of HE parameters for all layers" (§IV-C) and
//! aligns inputs before multiplying (Sched-IA, §V-A). Two baselines are
//! provided:
//!
//! * [`gazelle_config`] — the *legacy* fixed configuration Gazelle actually
//!   shipped (n = 2048, 60-bit q, 2⁸ windows), used for the Fig. 3/Fig. 6
//!   comparisons, exactly as the paper compares against Gazelle's own
//!   parameter choices;
//! * [`tune_global`] — a globally *optimized* single configuration (the
//!   best a one-size-fits-all Gazelle could possibly do), used as an
//!   ablation to separate "per-layer tuning" gains from "better global
//!   parameters" gains.

use cheetah_core::cost::HeCostParams;
use cheetah_core::Schedule;
use cheetah_nn::LinearLayer;

use crate::ptune::noise::NoiseRegime;
use crate::ptune::perf::layer_ops;
use crate::ptune::tuner::{evaluate_point, DesignPoint, TuneSpace};

/// The global configuration selected for a network, with per-layer costs.
#[derive(Debug, Clone)]
pub struct GlobalConfig {
    /// The chosen configuration (same for every layer).
    pub point: DesignPoint,
    /// Per-layer modeled cost (integer multiplications) under it.
    pub layer_costs: Vec<f64>,
    /// Per-layer remaining noise budget under it.
    pub layer_budgets: Vec<f64>,
}

impl GlobalConfig {
    /// Total network cost.
    pub fn total_cost(&self) -> f64 {
        self.layer_costs.iter().sum()
    }
}

/// Finds the cheapest single configuration feasible for *every* layer.
///
/// `t_bits` must be the network-wide worst-case requirement — a global
/// parameter set cannot vary the plaintext modulus per layer.
///
/// Returns `None` when the space contains no globally feasible point.
pub fn tune_global(
    layers: &[LinearLayer],
    t_bits: u32,
    schedule: Schedule,
    regime: NoiseRegime,
    space: &TuneSpace,
) -> Option<GlobalConfig> {
    let mut best: Option<GlobalConfig> = None;
    for &n in &space.degrees {
        let max_q = if space.enforce_security {
            cheetah_bfv::params::max_log_q_128(n).unwrap_or(0).min(62)
        } else {
            62
        };
        for &q_bits in &space.q_bits {
            if q_bits > max_q || q_bits < t_bits + 2 {
                continue;
            }
            for &a_log in &space.a_dcmp_log2 {
                'w: for &w_log in &space.w_dcmp_log2 {
                    let mut costs = Vec::with_capacity(layers.len());
                    let mut budgets = Vec::with_capacity(layers.len());
                    let mut probe = None;
                    for layer in layers {
                        let point = evaluate_point(
                            layer,
                            t_bits,
                            n,
                            q_bits,
                            a_log,
                            w_log,
                            space.sigma,
                            schedule,
                            regime,
                        );
                        if !point.feasible() {
                            continue 'w; // one bad layer sinks the config
                        }
                        costs.push(point.int_mults);
                        budgets.push(point.budget_bits);
                        probe = Some(point);
                    }
                    let Some(point) = probe else { continue };
                    let total: f64 = costs.iter().sum();
                    if best.as_ref().is_none_or(|b| total < b.total_cost()) {
                        best = Some(GlobalConfig {
                            point,
                            layer_costs: costs,
                            layer_budgets: budgets,
                        });
                    }
                }
            }
        }
    }
    best
}

/// The *legacy Gazelle* configuration: the fixed parameter set the actual
/// Gazelle implementation shipped with — `n = 2048`, 60-bit `q` (insecure
/// under the HE-standard table, as Gazelle's real choice was), ~20-bit `t`,
/// and conservative 2⁸ decomposition windows for both plaintext and
/// ciphertext — applied to *every* layer.
///
/// This is the red-star configuration of Fig. 3: feasible everywhere (with
/// slack on most layers) but never tuned. When a network's precision or
/// noise requirements exceed what `n = 2048` can carry, the ring is
/// escalated (4096, 8192, 16384) with the window bases kept fixed — the
/// provisioning *style* stays Gazelle's even when the size must grow.
///
/// Returns `None` only if no escalation level is feasible.
pub fn gazelle_config(layers: &[LinearLayer], t_bits: u32, sigma: f64) -> Option<GlobalConfig> {
    let t_bits = t_bits.max(20);
    for n in [2048usize, 4096, 8192, 16384] {
        let point = DesignPoint {
            n,
            t_bits,
            q_bits: 60,
            a_dcmp_log2: 8,
            w_dcmp_log2: 8,
            int_mults: 0.0,
            budget_bits: 0.0,
        };
        let mut costs = Vec::with_capacity(layers.len());
        let mut budgets = Vec::with_capacity(layers.len());
        let mut feasible = true;
        for layer in layers {
            let p = evaluate_point(
                layer,
                t_bits,
                n,
                60,
                8,
                8,
                sigma,
                Schedule::InputAligned,
                NoiseRegime::Statistical,
            );
            if !p.feasible() {
                feasible = false;
                break;
            }
            costs.push(p.int_mults);
            budgets.push(p.budget_bits);
        }
        if feasible {
            return Some(GlobalConfig {
                point,
                layer_costs: costs,
                layer_budgets: budgets,
            });
        }
    }
    None
}

/// Per-layer cost of running a network under a fixed global configuration
/// (used when running *other* models on a config chosen elsewhere).
pub fn layer_costs_under(layers: &[LinearLayer], point: &DesignPoint) -> Vec<f64> {
    let cost_params = HeCostParams {
        n: point.n,
        l_pt: point.l_pt(),
        l_ct: point.l_ct(),
        // DesignPoint sweeps single-word ciphertext moduli (q_bits ≤ 62).
        limbs: 1,
        hybrid: false,
    };
    layers
        .iter()
        .map(|l| {
            layer_ops(l, point.n, point.l_pt(), Schedule::PartialAligned).int_mults(&cost_params)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheetah_core::QuantSpec;
    use cheetah_nn::models;

    #[test]
    fn global_config_exists_for_lenet5() {
        let quant = QuantSpec::default();
        let layers = models::lenet5().linear_layers();
        let t_bits = quant.statistical_plain_bits_network(&layers);
        let cfg = tune_global(
            &layers,
            t_bits,
            Schedule::InputAligned,
            NoiseRegime::Statistical,
            &TuneSpace::default(),
        )
        .expect("baseline must be able to run LeNet5");
        assert_eq!(cfg.layer_costs.len(), 4);
        assert!(cfg.total_cost() > 0.0);
        assert!(cfg.layer_budgets.iter().all(|&b| b >= 0.0));
    }

    #[test]
    fn global_cost_at_least_per_layer_total() {
        // A single global config can never beat per-layer tuning.
        let quant = QuantSpec::default();
        let layers = models::alexnet().linear_layers();
        let t_global = quant.statistical_plain_bits_network(&layers);
        let space = TuneSpace::default();
        let global = tune_global(
            &layers,
            t_global,
            Schedule::InputAligned,
            NoiseRegime::Statistical,
            &space,
        )
        .unwrap();
        let t_bits: Vec<u32> = layers
            .iter()
            .map(|l| quant.statistical_plain_bits(l))
            .collect();
        let tuned = crate::ptune::tuner::tune_network(
            &layers,
            &t_bits,
            Schedule::InputAligned,
            NoiseRegime::Statistical,
            &space,
        )
        .unwrap();
        let tuned_total: f64 = tuned.iter().map(|(_, p)| p.int_mults).sum();
        assert!(
            tuned_total <= global.total_cost(),
            "per-layer {tuned_total:.3e} must not exceed global {:.3e}",
            global.total_cost()
        );
    }

    #[test]
    fn layer_costs_under_matches_direct_model() {
        let layers = models::lenet300().linear_layers();
        let point = DesignPoint {
            n: 4096,
            t_bits: 18,
            q_bits: 60,
            a_dcmp_log2: 10,
            w_dcmp_log2: 6,
            int_mults: 0.0,
            budget_bits: 0.0,
        };
        let costs = layer_costs_under(&layers, &point);
        assert_eq!(costs.len(), 3);
        assert!(costs.iter().all(|&c| c > 0.0));
        // FC1 (784x300) must cost more than FC3 (100x10).
        assert!(costs[0] > costs[2]);
    }
}
