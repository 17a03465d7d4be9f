//! The Fig. 6 evaluation pipeline: per-benchmark speedups of HE-PTune and
//! HE-PTune + Sched-PA over the Gazelle baseline.

use cheetah_core::{QuantSpec, Schedule};
use cheetah_nn::{LinearLayer, Network};

use crate::baseline::{gazelle_config, GlobalConfig};
use crate::ptune::noise::NoiseRegime;
use crate::ptune::tuner::{tune_network, DesignPoint, TuneSpace};

/// Per-model comparison of the three configurations in Fig. 6.
#[derive(Debug, Clone)]
pub struct ModelSpeedup {
    /// Model name.
    pub model: String,
    /// Gazelle baseline: global parameters + Sched-IA.
    pub gazelle: GlobalConfig,
    /// HE-PTune alone: per-layer parameters, still Sched-IA.
    pub ptune: Vec<(LinearLayer, DesignPoint)>,
    /// HE-PTune + Sched-PA: per-layer parameters, partial-aligned schedule.
    pub ptune_pa: Vec<(LinearLayer, DesignPoint)>,
}

impl ModelSpeedup {
    /// Total baseline cost (integer multiplications).
    pub fn gazelle_cost(&self) -> f64 {
        self.gazelle.total_cost()
    }

    /// Total cost with HE-PTune alone.
    pub fn ptune_cost(&self) -> f64 {
        self.ptune.iter().map(|(_, p)| p.int_mults).sum()
    }

    /// Total cost with HE-PTune + Sched-PA.
    pub fn ptune_pa_cost(&self) -> f64 {
        self.ptune_pa.iter().map(|(_, p)| p.int_mults).sum()
    }

    /// Speedup of HE-PTune over Gazelle.
    pub fn speedup_ptune(&self) -> f64 {
        self.gazelle_cost() / self.ptune_cost()
    }

    /// Speedup of HE-PTune + Sched-PA over Gazelle (the full Cheetah
    /// software stack).
    pub fn speedup_combined(&self) -> f64 {
        self.gazelle_cost() / self.ptune_pa_cost()
    }

    /// Per-layer speedups (combined vs baseline) — the Fig. 3(c) bars.
    pub fn per_layer_speedups(&self) -> Vec<(String, f64)> {
        self.gazelle
            .layer_costs
            .iter()
            .zip(&self.ptune_pa)
            .map(|(&g, (layer, p))| (layer.name().to_owned(), g / p.int_mults))
            .collect()
    }
}

/// Runs the full Fig. 6 comparison for one network.
///
/// # Panics
///
/// Panics if the space has no feasible configuration for some layer (the
/// default space always does for the paper's five benchmarks).
pub fn evaluate_model(net: &Network, quant: &QuantSpec, space: &TuneSpace) -> ModelSpeedup {
    let layers = net.linear_layers();
    let t_global = quant.statistical_plain_bits_network(&layers);
    let t_bits: Vec<u32> = layers
        .iter()
        .map(|l| quant.statistical_plain_bits(l))
        .collect();

    let gazelle = gazelle_config(&layers, t_global, space.sigma)
        .unwrap_or_else(|| panic!("no Gazelle baseline config for {}", net.name));

    let ptune = tune_network(
        &layers,
        &t_bits,
        Schedule::InputAligned,
        NoiseRegime::Statistical,
        space,
    )
    .unwrap_or_else(|e| panic!("{}: {e}", net.name));
    let ptune_pa = tune_network(
        &layers,
        &t_bits,
        Schedule::PartialAligned,
        NoiseRegime::Statistical,
        space,
    )
    .unwrap_or_else(|e| panic!("{}: {e}", net.name));
    ModelSpeedup {
        model: net.name.clone(),
        gazelle,
        ptune,
        ptune_pa,
    }
}

/// Harmonic mean (the paper's summary statistic for Fig. 6).
pub fn harmonic_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.len() as f64 / values.iter().map(|v| 1.0 / v).sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheetah_nn::models;

    #[test]
    fn harmonic_mean_known_values() {
        assert!((harmonic_mean(&[1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((harmonic_mean(&[2.0, 6.0]) - 3.0).abs() < 1e-12);
        assert_eq!(harmonic_mean(&[]), 0.0);
    }

    #[test]
    fn lenet5_speedups_exceed_one() {
        let s = evaluate_model(
            &models::lenet5(),
            &QuantSpec::default(),
            &TuneSpace::default(),
        );
        assert!(s.speedup_ptune() >= 1.0, "ptune {}", s.speedup_ptune());
        assert!(
            s.speedup_combined() >= s.speedup_ptune(),
            "combined {} vs ptune {}",
            s.speedup_combined(),
            s.speedup_ptune()
        );
    }

    #[test]
    fn alexnet_combined_speedup_is_large() {
        // The paper's ImageNet models see the biggest wins (Fig. 6 shows
        // 10-80x). Shape check: combined speedup well above 2x.
        let s = evaluate_model(
            &models::alexnet(),
            &QuantSpec::default(),
            &TuneSpace::default(),
        );
        assert!(
            s.speedup_combined() > 2.0,
            "combined speedup only {:.2}",
            s.speedup_combined()
        );
        let per_layer = s.per_layer_speedups();
        assert_eq!(per_layer.len(), 8);
        assert!(per_layer.iter().all(|(_, v)| *v >= 0.99));
    }
}
