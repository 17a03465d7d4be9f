//! HE-PTune noise model — Tables III and V of the paper, for both
//! dot-product schedules and both estimation regimes.
//!
//! The worst-case regime applies the Table III bounds verbatim. The
//! statistical regime is the paper's §IV-B contribution: encryption noise
//! is independent bounded discrete Gaussian (IBDG), every HE operator is a
//! linear map, so output noise is IBDG with an exactly propagated variance,
//! and provisioning `q/(2t) ≥ c·σ_Y` with `c = sqrt(ln(2·10^10)) ≈ 4.87`
//! bounds the decryption-failure rate below 10⁻¹⁰ — far below DNN
//! misclassification rates, and several bits cheaper than the worst case.

use cheetah_core::Schedule;
use cheetah_nn::{ConvSpec, FcSpec, LinearLayer};

pub use cheetah_bfv::noise::{FAILURE_SCALE, TARGET_FAILURE_RATE};

/// Which noise estimate drives parameter selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum NoiseRegime {
    /// Table III worst-case bounds (what prior work provisions for).
    WorstCase,
    /// Cheetah's statistical IBDG model with failure rate ≤ 1e-10.
    #[default]
    Statistical,
}

/// HE parameters the noise model reads (a superset of the cost params).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeNoiseParams {
    /// Polynomial degree / slot count `n`.
    pub n: usize,
    /// Plaintext modulus bits (the model only needs magnitude).
    pub t_bits: u32,
    /// Ciphertext modulus bits.
    pub q_bits: u32,
    /// Plaintext decomposition base `W_dcmp` (`>= 2^t_bits` disables).
    pub w_dcmp: u64,
    /// Ciphertext decomposition base `A_dcmp`.
    pub a_dcmp: u64,
    /// Encryption noise std-dev σ.
    pub sigma: f64,
}

impl HeNoiseParams {
    /// `l_pt` implied by `W_dcmp` and `t`.
    pub fn l_pt(&self) -> usize {
        let w_bits = 63 - self.w_dcmp.leading_zeros() as u64;
        if w_bits as u32 >= self.t_bits {
            1
        } else {
            self.t_bits.div_ceil(w_bits as u32) as usize
        }
    }

    /// `l_ct` implied by `A_dcmp` and `q`.
    pub fn l_ct(&self) -> usize {
        let a_bits = 63 - self.a_dcmp.leading_zeros() as u64;
        self.q_bits.div_ceil(a_bits as u32) as usize
    }

    /// Noise bound per fresh sample, `B = 6σ`.
    pub fn b(&self) -> f64 {
        6.0 * self.sigma
    }

    /// Fresh ciphertext noise `v0 = 2nB²` (Table III).
    pub fn v0_bound(&self) -> f64 {
        2.0 * self.n as f64 * self.b() * self.b()
    }

    /// Fresh ciphertext noise variance (IBDG model).
    pub fn v0_variance(&self) -> f64 {
        self.sigma * self.sigma * (1.0 + 4.0 * self.n as f64 / 3.0)
    }

    /// Multiplicative `HE_Mult` factor `ηM ≤ n·l_pt·W/2` (bound regime).
    ///
    /// With no decomposition, the effective digit magnitude is the full
    /// centered plaintext (`W/2 = t/2`), matching Table III with `W = t`.
    pub fn eta_m_bound(&self) -> f64 {
        let w = if self.l_pt() == 1 {
            (self.t_bits as f64).exp2()
        } else {
            self.w_dcmp as f64
        };
        self.n as f64 * self.l_pt() as f64 * w / 2.0
    }

    /// Variance multiplier for `HE_Mult`.
    ///
    /// Undecomposed plaintext coefficients are ~uniform centered mod `t`
    /// (`E[p²] = t²/12`); decomposition digits are uniform in `[0, W)`
    /// (`E[d²] = W²/3`).
    pub fn eta_m_variance(&self) -> f64 {
        if self.l_pt() == 1 {
            let t = (self.t_bits as f64).exp2();
            self.n as f64 * t * t / 12.0
        } else {
            let w = self.w_dcmp as f64;
            self.n as f64 * self.l_pt() as f64 * w * w / 3.0
        }
    }

    /// Additive `HE_Rotate` noise `ηA = l_ct·A·B·n/2` (Table III).
    pub fn eta_a_bound(&self) -> f64 {
        self.l_ct() as f64 * self.a_dcmp as f64 * self.b() * self.n as f64 / 2.0
    }

    /// Variance of the rotate key-switch noise.
    pub fn eta_a_variance(&self) -> f64 {
        let a = self.a_dcmp as f64;
        self.l_ct() as f64 * self.n as f64 * (a * a / 12.0) * self.sigma * self.sigma
    }

    /// The decryption ceiling `log2(q/2t)`.
    pub fn ceiling_bits(&self) -> f64 {
        self.q_bits as f64 - (self.t_bits as f64 + 1.0)
    }
}

/// Output noise of one layer in log2 magnitude, plus the remaining budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerNoise {
    /// log2 of the effective output-noise magnitude the regime provisions
    /// for (worst-case bound, or `c·σ_Y` statistically).
    pub noise_log2: f64,
    /// Remaining noise budget in bits (`ceiling − noise`); negative means
    /// decryption fails (worst case) or fails with probability > 1e-10
    /// (statistical).
    pub budget_bits: f64,
}

/// Noise-accumulation coefficients for a layer: output noise
/// `= mult_terms·ηM·v0 + rot_terms·ηA` (Sched-PA, Table V) or
/// `= mult_terms·ηM·(v0 + ηA·ia_pre_rot) + rot_terms·ηA` (Sched-IA, the
/// Fig. 5 rotate-then-multiply penalty).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseShape {
    /// Coefficient on the multiplied input noise (`f_w²·c_i`, `n_i`, …).
    pub mult_terms: f64,
    /// Coefficient on additive rotation noise.
    pub rot_terms: f64,
}

/// Table V coefficients for a CNN layer.
pub fn conv_noise_shape(c: &ConvSpec, n: usize) -> NoiseShape {
    let w2 = (c.w * c.w) as f64;
    let fw = c.fw as f64;
    let fw2 = fw * fw;
    let ci = c.ci as f64;
    let nf = n as f64;
    if nf >= w2 {
        let cn = (nf / w2).floor().max(1.0);
        NoiseShape {
            mult_terms: fw2 * ci,
            rot_terms: ci * (fw2 - 1.0 + (cn - 1.0) / cn),
        }
    } else {
        NoiseShape {
            mult_terms: (2.0 * fw - 1.0) * fw * ci,
            rot_terms: ci * (2.0 * fw + 1.0) * (fw - 1.0),
        }
    }
}

/// Table V coefficients for an FC layer.
pub fn fc_noise_shape(f: &FcSpec, n: usize) -> NoiseShape {
    let ni = f.ni as f64;
    let nf = n as f64;
    if nf >= ni {
        NoiseShape {
            mult_terms: ni,
            rot_terms: (ni - 1.0).max(0.0),
        }
    } else {
        NoiseShape {
            mult_terms: ni,
            rot_terms: ni * (nf - 1.0) / nf,
        }
    }
}

/// Dispatch on layer kind.
pub fn layer_noise_shape(layer: &LinearLayer, n: usize) -> NoiseShape {
    match layer {
        LinearLayer::Conv(c) => conv_noise_shape(c, n),
        LinearLayer::Fc(f) => fc_noise_shape(f, n),
    }
}

/// Evaluates layer output noise under the given schedule and regime.
pub fn layer_noise(
    layer: &LinearLayer,
    p: &HeNoiseParams,
    schedule: Schedule,
    regime: NoiseRegime,
) -> LayerNoise {
    let shape = layer_noise_shape(layer, p.n);
    let noise_log2 = match regime {
        NoiseRegime::WorstCase => {
            let v0 = p.v0_bound();
            let eta_m = p.eta_m_bound();
            let eta_a = p.eta_a_bound();
            let input = match schedule {
                Schedule::PartialAligned => v0,
                // Sched-IA multiplies post-rotation ciphertexts: Fig. 5.
                Schedule::InputAligned => v0 + eta_a,
            };
            (shape.mult_terms * eta_m * input + shape.rot_terms * eta_a).log2()
        }
        NoiseRegime::Statistical => {
            let v0 = p.v0_variance();
            let eta_m = p.eta_m_variance();
            let eta_a = p.eta_a_variance();
            let input = match schedule {
                Schedule::PartialAligned => v0,
                Schedule::InputAligned => v0 + eta_a,
            };
            let variance = shape.mult_terms * eta_m * input + shape.rot_terms * eta_a;
            // Provision for c·σ_Y.
            variance.log2() / 2.0 + FAILURE_SCALE.log2()
        }
    };
    LayerNoise {
        noise_log2,
        budget_bits: p.ceiling_bits() - noise_log2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> HeNoiseParams {
        HeNoiseParams {
            n: 4096,
            t_bits: 20,
            q_bits: 60,
            w_dcmp: 1 << 20, // no plaintext decomposition
            a_dcmp: 1 << 20,
            sigma: 3.2,
        }
    }

    fn conv() -> LinearLayer {
        LinearLayer::Conv(ConvSpec {
            name: "c".into(),
            w: 32,
            fw: 3,
            ci: 16,
            co: 32,
            stride: 1,
            pad: 1,
        })
    }

    #[test]
    fn l_pt_l_ct_derivation() {
        let p = params();
        assert_eq!(p.l_pt(), 1);
        assert_eq!(p.l_ct(), 3);
        let p2 = HeNoiseParams {
            w_dcmp: 1 << 7,
            ..params()
        };
        assert_eq!(p2.l_pt(), 3); // ceil(20/7)
    }

    #[test]
    fn sched_pa_strictly_beats_sched_ia() {
        let p = params();
        let layer = conv();
        for regime in [NoiseRegime::WorstCase, NoiseRegime::Statistical] {
            let pa = layer_noise(&layer, &p, Schedule::PartialAligned, regime);
            let ia = layer_noise(&layer, &p, Schedule::InputAligned, regime);
            assert!(
                ia.noise_log2 > pa.noise_log2,
                "{regime:?}: IA {} <= PA {}",
                ia.noise_log2,
                pa.noise_log2
            );
        }
    }

    #[test]
    fn statistical_regime_saves_bits() {
        let p = params();
        let layer = conv();
        let wc = layer_noise(&layer, &p, Schedule::PartialAligned, NoiseRegime::WorstCase);
        let st = layer_noise(
            &layer,
            &p,
            Schedule::PartialAligned,
            NoiseRegime::Statistical,
        );
        assert!(
            st.budget_bits > wc.budget_bits + 3.0,
            "statistical {} vs worst {}",
            st.budget_bits,
            wc.budget_bits
        );
    }

    #[test]
    fn smaller_a_dcmp_less_rotate_noise() {
        let coarse = params(); // A = 2^20, l_ct = 3
        let fine = HeNoiseParams {
            a_dcmp: 1 << 6, // l_ct = 10
            ..params()
        };
        assert!(fine.eta_a_bound() < coarse.eta_a_bound());
    }

    #[test]
    fn plaintext_windowing_cuts_mult_noise() {
        let plain = params();
        let windowed = HeNoiseParams {
            w_dcmp: 1 << 7,
            ..params()
        };
        // t/(l_pt·W) = 2^20/(3·2^7) ≈ 2^11.6 reduction factor.
        assert!(windowed.eta_m_bound() < plain.eta_m_bound() / 1000.0);
    }

    #[test]
    fn budget_moves_with_q() {
        let p = params();
        let layer = conv();
        let wide = layer_noise(
            &layer,
            &p,
            Schedule::PartialAligned,
            NoiseRegime::Statistical,
        );
        let narrow = layer_noise(
            &layer,
            &HeNoiseParams { q_bits: 40, ..p },
            Schedule::PartialAligned,
            NoiseRegime::Statistical,
        );
        // Note: l_ct changes too, but a 20-bit q cut dominates.
        assert!(wide.budget_bits > narrow.budget_bits + 15.0);
    }

    #[test]
    fn table_v_small_n_case_selected() {
        let big_image = LinearLayer::Conv(ConvSpec {
            name: "c".into(),
            w: 224,
            fw: 3,
            ci: 3,
            co: 64,
            stride: 1,
            pad: 1,
        });
        let shape = layer_noise_shape(&big_image, 4096);
        // (2fw-1)*fw*ci = 5*3*3 = 45
        assert!((shape.mult_terms - 45.0).abs() < 1e-9);
        // ci*(2fw+1)*(fw-1) = 3*7*2 = 42
        assert!((shape.rot_terms - 42.0).abs() < 1e-9);
    }

    #[test]
    fn fc_noise_shapes() {
        let f = FcSpec {
            name: "f".into(),
            ni: 2048,
            no: 100,
        };
        let s = fc_noise_shape(&f, 4096);
        assert!((s.mult_terms - 2048.0).abs() < 1e-9);
        assert!((s.rot_terms - 2047.0).abs() < 1e-9);
        let s2 = fc_noise_shape(&f, 1024);
        assert!((s2.rot_terms - 2048.0 * 1023.0 / 1024.0).abs() < 1e-9);
    }
}
