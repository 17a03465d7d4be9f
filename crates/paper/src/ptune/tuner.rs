//! HE parameter space exploration (§IV-C).
//!
//! "Using a single set of HE parameters for all DNN layers results in poor
//! performance, as HE parameters are provisioned for the worst-case layer
//! noise. Using HE-PTune's models for noise and performance, parameters can
//! be readily tuned on a per-layer basis." The models are analytical, so
//! thousands of points per layer evaluate in microseconds.

use cheetah_bfv::params::max_log_q_128;
use cheetah_core::cost::HeCostParams;
use cheetah_core::solver::InfeasibleLayer;
use cheetah_core::Schedule;
use cheetah_nn::LinearLayer;

use crate::ptune::noise::{layer_noise, HeNoiseParams, NoiseRegime};
use crate::ptune::perf::layer_ops;

/// Sentinel `w_dcmp_log2` meaning "no plaintext decomposition".
pub const NO_WINDOW: u32 = 63;

/// The HE-parameter search space.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneSpace {
    /// Candidate polynomial degrees.
    pub degrees: Vec<usize>,
    /// Candidate ciphertext-modulus sizes (bits).
    pub q_bits: Vec<u32>,
    /// Candidate `log2(A_dcmp)` values.
    pub a_dcmp_log2: Vec<u32>,
    /// Candidate `log2(W_dcmp)` values ([`NO_WINDOW`] disables windowing).
    pub w_dcmp_log2: Vec<u32>,
    /// Encryption noise σ.
    pub sigma: f64,
    /// Enforce the 128-bit RLWE security table.
    pub enforce_security: bool,
}

impl Default for TuneSpace {
    fn default() -> Self {
        Self {
            degrees: vec![2048, 4096, 8192, 16384],
            q_bits: vec![30, 34, 38, 42, 46, 50, 54, 58, 60],
            a_dcmp_log2: vec![2, 4, 6, 8, 10, 12, 16, 20, 24, 30],
            w_dcmp_log2: vec![NO_WINDOW, 12, 10, 8, 6, 5, 4, 3, 2],
            sigma: 3.2,
            enforce_security: true,
        }
    }
}

impl TuneSpace {
    /// A reduced space for fast tests.
    pub fn small() -> Self {
        Self {
            degrees: vec![2048, 4096, 8192],
            q_bits: vec![40, 50, 60],
            a_dcmp_log2: vec![4, 10, 20],
            w_dcmp_log2: vec![NO_WINDOW, 6],
            sigma: 3.2,
            enforce_security: true,
        }
    }

    /// Total candidate count per layer.
    pub fn size(&self) -> usize {
        self.degrees.len() * self.q_bits.len() * self.a_dcmp_log2.len() * self.w_dcmp_log2.len()
    }
}

/// One evaluated HE configuration for a layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignPoint {
    /// Polynomial degree.
    pub n: usize,
    /// Plaintext modulus bits.
    pub t_bits: u32,
    /// Ciphertext modulus bits.
    pub q_bits: u32,
    /// `log2(A_dcmp)`.
    pub a_dcmp_log2: u32,
    /// `log2(W_dcmp)` ([`NO_WINDOW`] = none).
    pub w_dcmp_log2: u32,
    /// Modeled cost in integer multiplications ("Total MACs" in Fig. 3).
    pub int_mults: f64,
    /// Remaining noise budget in bits (negative = infeasible).
    pub budget_bits: f64,
}

impl DesignPoint {
    /// Whether the configuration decrypts correctly under the model.
    pub fn feasible(&self) -> bool {
        self.budget_bits >= 0.0
    }

    /// `l_pt` implied by the configuration.
    pub fn l_pt(&self) -> usize {
        if self.w_dcmp_log2 >= self.t_bits {
            1
        } else {
            self.t_bits.div_ceil(self.w_dcmp_log2) as usize
        }
    }

    /// `l_ct` implied by the configuration.
    pub fn l_ct(&self) -> usize {
        self.q_bits.div_ceil(self.a_dcmp_log2) as usize
    }
}

/// Result of tuning one layer.
#[derive(Debug, Clone)]
pub struct TuneOutcome {
    /// The minimum-cost feasible point, if any exists in the space.
    pub best: Option<DesignPoint>,
    /// Every evaluated point (the Fig. 3 scatter).
    pub points: Vec<DesignPoint>,
}

impl TuneOutcome {
    /// Fraction of evaluated points that are infeasible (the paper reports
    /// > 99 % for its space — finding parameters by hand is hard).
    pub fn infeasible_fraction(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        let bad = self.points.iter().filter(|p| !p.feasible()).count();
        bad as f64 / self.points.len() as f64
    }
}

/// Evaluates a single configuration of the space for a layer.
///
/// The argument list mirrors the paper's parameter tuple `(n, q, t, A, W)`
/// plus the evaluation context — a struct would only obscure the mapping.
#[allow(clippy::too_many_arguments)]
pub fn evaluate_point(
    layer: &LinearLayer,
    t_bits: u32,
    n: usize,
    q_bits: u32,
    a_dcmp_log2: u32,
    w_dcmp_log2: u32,
    sigma: f64,
    schedule: Schedule,
    regime: NoiseRegime,
) -> DesignPoint {
    let noise_params = HeNoiseParams {
        n,
        t_bits,
        q_bits,
        w_dcmp: 1u64 << w_dcmp_log2.min(62),
        a_dcmp: 1u64 << a_dcmp_log2.min(62),
        sigma,
    };
    let l_pt = noise_params.l_pt();
    let l_ct = noise_params.l_ct();
    let noise = layer_noise(layer, &noise_params, schedule, regime);
    // The tuner sweeps single-word ciphertext moduli (q_bits ≤ 62).
    let cost_params = HeCostParams {
        n,
        l_pt,
        l_ct,
        limbs: 1,
        hybrid: false,
    };
    let int_mults = layer_ops(layer, n, l_pt, schedule).int_mults(&cost_params);
    DesignPoint {
        n,
        t_bits,
        q_bits,
        a_dcmp_log2,
        w_dcmp_log2,
        int_mults,
        budget_bits: noise.budget_bits,
    }
}

/// Explores the space for one layer and returns the cheapest feasible
/// configuration plus the full scatter.
pub fn tune_layer(
    layer: &LinearLayer,
    t_bits: u32,
    schedule: Schedule,
    regime: NoiseRegime,
    space: &TuneSpace,
) -> TuneOutcome {
    let mut points = Vec::with_capacity(space.size());
    let mut best: Option<DesignPoint> = None;
    for &n in &space.degrees {
        let max_q = if space.enforce_security {
            max_log_q_128(n).unwrap_or(0).min(62)
        } else {
            62
        };
        for &q_bits in &space.q_bits {
            if q_bits > max_q || q_bits < t_bits + 2 {
                continue;
            }
            for &a_log in &space.a_dcmp_log2 {
                for &w_log in &space.w_dcmp_log2 {
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
                    if point.feasible() && best.is_none_or(|b| point.int_mults < b.int_mults) {
                        best = Some(point);
                    }
                    points.push(point);
                }
            }
        }
    }
    TuneOutcome { best, points }
}

/// Per-layer tuning for a whole network: returns `(layer, best point)` in
/// layer order.
///
/// # Errors
///
/// [`InfeasibleLayer`] naming the first layer with no feasible
/// configuration in the space (a caller widens the space; the paper's
/// space always contains one for its benchmarks).
///
/// # Panics
///
/// Panics when `layers` and `t_bits_per_layer` disagree in length — a
/// caller bug, not a data condition.
pub fn tune_network(
    layers: &[LinearLayer],
    t_bits_per_layer: &[u32],
    schedule: Schedule,
    regime: NoiseRegime,
    space: &TuneSpace,
) -> Result<Vec<(LinearLayer, DesignPoint)>, InfeasibleLayer> {
    assert_eq!(layers.len(), t_bits_per_layer.len());
    layers
        .iter()
        .zip(t_bits_per_layer)
        .map(|(layer, &t_bits)| {
            let outcome = tune_layer(layer, t_bits, schedule, regime, space);
            let best = outcome.best.ok_or_else(|| InfeasibleLayer {
                layer: layer.name().to_owned(),
                t_bits,
            })?;
            Ok((layer.clone(), best))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheetah_nn::{models, ConvSpec, FcSpec};

    fn mid_conv() -> LinearLayer {
        LinearLayer::Conv(ConvSpec {
            name: "c".into(),
            w: 28,
            fw: 3,
            ci: 64,
            co: 64,
            stride: 1,
            pad: 1,
        })
    }

    #[test]
    fn tuner_finds_feasible_config_for_mid_conv() {
        let out = tune_layer(
            &mid_conv(),
            18,
            Schedule::PartialAligned,
            NoiseRegime::Statistical,
            &TuneSpace::default(),
        );
        let best = out.best.expect("feasible point exists");
        assert!(best.feasible());
        assert!(best.int_mults > 0.0);
    }

    #[test]
    fn most_points_are_infeasible() {
        // §IV-C: "over 99% have a negative remaining noise budget".
        let out = tune_layer(
            &mid_conv(),
            18,
            Schedule::PartialAligned,
            NoiseRegime::Statistical,
            &TuneSpace::default(),
        );
        assert!(
            out.infeasible_fraction() > 0.5,
            "only {:.0}% infeasible",
            out.infeasible_fraction() * 100.0
        );
    }

    #[test]
    fn pa_config_no_costlier_than_ia() {
        // Sched-PA's noise headroom must buy a cheaper (or equal) config.
        let layer = mid_conv();
        let space = TuneSpace::default();
        let pa = tune_layer(
            &layer,
            18,
            Schedule::PartialAligned,
            NoiseRegime::Statistical,
            &space,
        )
        .best
        .unwrap();
        let ia = tune_layer(
            &layer,
            18,
            Schedule::InputAligned,
            NoiseRegime::Statistical,
            &space,
        )
        .best
        .unwrap();
        assert!(pa.int_mults <= ia.int_mults);
    }

    #[test]
    fn statistical_regime_beats_worst_case_cost() {
        let layer = mid_conv();
        let space = TuneSpace::default();
        let stat = tune_layer(
            &layer,
            18,
            Schedule::PartialAligned,
            NoiseRegime::Statistical,
            &space,
        )
        .best
        .unwrap();
        let worst = tune_layer(
            &layer,
            18,
            Schedule::PartialAligned,
            NoiseRegime::WorstCase,
            &space,
        )
        .best;
        // Worst-case may simply have no feasible point.
        if let Some(w) = worst {
            assert!(stat.int_mults <= w.int_mults);
        }
    }

    #[test]
    fn resnet50_all_layers_tunable() {
        let quant = cheetah_core::QuantSpec::default();
        let layers = models::resnet50().linear_layers();
        let t_bits: Vec<u32> = layers
            .iter()
            .map(|l| quant.statistical_plain_bits(l))
            .collect();
        let space = TuneSpace::default();
        let tuned = tune_network(
            &layers,
            &t_bits,
            Schedule::PartialAligned,
            NoiseRegime::Statistical,
            &space,
        )
        .unwrap();
        assert_eq!(tuned.len(), 54);
        // Per-layer configs should differ across the network (the whole
        // point of per-layer tuning).
        let distinct: std::collections::HashSet<(usize, u32, u32)> = tuned
            .iter()
            .map(|(_, p)| (p.n, p.q_bits, p.a_dcmp_log2))
            .collect();
        assert!(distinct.len() > 1, "tuning collapsed to one config");
    }

    #[test]
    fn fc_layer_tunable() {
        let layer = LinearLayer::Fc(FcSpec {
            name: "fc".into(),
            ni: 784,
            no: 300,
        });
        let out = tune_layer(
            &layer,
            16,
            Schedule::PartialAligned,
            NoiseRegime::Statistical,
            &TuneSpace::default(),
        );
        assert!(out.best.is_some());
    }

    #[test]
    fn security_restricts_small_degrees() {
        // With enforcement, n = 2048 cannot use q = 60.
        let mut space = TuneSpace::small();
        space.degrees = vec![2048];
        space.q_bits = vec![60];
        let out = tune_layer(
            &mid_conv(),
            18,
            Schedule::PartialAligned,
            NoiseRegime::Statistical,
            &space,
        );
        assert!(out.points.is_empty(), "insecure points must be skipped");
        let mut relaxed = space.clone();
        relaxed.enforce_security = false;
        let out2 = tune_layer(
            &mid_conv(),
            18,
            Schedule::PartialAligned,
            NoiseRegime::Statistical,
            &relaxed,
        );
        assert!(!out2.points.is_empty());
    }

    #[test]
    fn tune_network_names_the_first_infeasible_layer() {
        // 60 plaintext bits fit no swept `q`: the tuner reports the engine
        // solver's typed error, naming the layer and its request.
        let layers = vec![mid_conv()];
        let err = tune_network(
            &layers,
            &[60],
            Schedule::PartialAligned,
            NoiseRegime::Statistical,
            &TuneSpace::small(),
        )
        .unwrap_err();
        assert_eq!((err.layer.as_str(), err.t_bits), ("c", 60));
        assert_eq!(
            err.to_string(),
            "no feasible HE parameters for layer c (t = 60 bits)"
        );
    }

    #[test]
    fn design_point_level_accessors() {
        let p = DesignPoint {
            n: 4096,
            t_bits: 20,
            q_bits: 60,
            a_dcmp_log2: 20,
            w_dcmp_log2: NO_WINDOW,
            int_mults: 1.0,
            budget_bits: 1.0,
        };
        assert_eq!(p.l_pt(), 1);
        assert_eq!(p.l_ct(), 3);
        let p2 = DesignPoint {
            w_dcmp_log2: 6,
            a_dcmp_log2: 7,
            ..p
        };
        assert_eq!(p2.l_pt(), 4); // ceil(20/6)
        assert_eq!(p2.l_ct(), 9); // ceil(60/7)
    }
}
