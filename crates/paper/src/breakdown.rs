//! Network-level kernel time breakdown — Fig. 7(a).
//!
//! Combines HE-PTune's per-layer operator counts (Table IV) with measured
//! per-kernel latencies ([`crate::kernels`]) to attribute total inference
//! time across NTT / Rotate / Mult / Add / Other, the way the paper's SEAL
//! profile does for ResNet50 (55.2 % / 31.8 % / 10.3 % / 2.2 % / 0.5 %).

use cheetah_bfv::BfvParams;
use cheetah_core::cost::HeCostParams;
use cheetah_core::solver::ChainPlan;
use cheetah_core::Schedule;
use cheetah_nn::LinearLayer;

use crate::kernels::{KernelConfig, KernelTimer, KernelTimes};
use crate::ptune::perf::layer_ops;
use crate::ptune::DesignPoint;

/// Seconds attributed to each hot kernel across a full inference.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Breakdown {
    /// NTT time (including NTTs inside rotations, as in Fig. 7).
    pub ntt_s: f64,
    /// `HE_Rotate` time excluding its NTTs.
    pub rotate_s: f64,
    /// `HE_Mult` time.
    pub mult_s: f64,
    /// `HE_Add` time.
    pub add_s: f64,
    /// Construction/destruction and other bookkeeping.
    pub other_s: f64,
}

impl Breakdown {
    /// Total seconds.
    pub fn total_s(&self) -> f64 {
        self.ntt_s + self.rotate_s + self.mult_s + self.add_s + self.other_s
    }

    /// Percentage shares in Fig. 7 order (NTT, Rotate, Mult, Add, Other).
    pub fn shares(&self) -> [f64; 5] {
        let t = self.total_s().max(f64::MIN_POSITIVE);
        [
            self.ntt_s / t * 100.0,
            self.rotate_s / t * 100.0,
            self.mult_s / t * 100.0,
            self.add_s / t * 100.0,
            self.other_s / t * 100.0,
        ]
    }

    /// Adds another breakdown (layer accumulation).
    pub fn accumulate(&mut self, other: &Breakdown) {
        self.ntt_s += other.ntt_s;
        self.rotate_s += other.rotate_s;
        self.mult_s += other.mult_s;
        self.add_s += other.add_s;
        self.other_s += other.other_s;
    }
}

/// Computes one layer's breakdown under its tuned configuration.
pub fn layer_breakdown(layer: &LinearLayer, point: &DesignPoint, times: &KernelTimes) -> Breakdown {
    let l_pt = point.l_pt();
    let ops = layer_ops(layer, point.n, l_pt, Schedule::PartialAligned);
    // Plane-transform count via the shared cost model (DesignPoint sweeps
    // single-word moduli, so limbs = 1 — but the formula stays in one
    // place instead of re-deriving `l_ct + 1` here).
    let cost = HeCostParams {
        n: point.n,
        l_pt,
        l_ct: point.l_ct(),
        limbs: 1,
        hybrid: false,
    };
    let ntts_per_rotate = cost.ntts_per_rotate() as f64;
    Breakdown {
        ntt_s: ops.he_rotate * ntts_per_rotate * times.ntt_s,
        rotate_s: ops.he_rotate * times.rotate_excl_ntt_s,
        mult_s: ops.he_mult * times.mult_s,
        add_s: ops.he_add * times.add_s,
        other_s: (ops.he_mult + ops.he_rotate + ops.he_add) * times.other_s,
    }
}

/// Computes one layer's breakdown on a **concrete chain at a level** —
/// the HE-PTune v2 path. Unlike [`layer_breakdown`] (which prices the
/// tuner's abstract single-word points with digit decomposition), this
/// uses [`HeCostParams::for_bfv`], so every chain is billed the key-switch
/// shape it runs ([`HeCostParams::ntts_per_rotate`]: `ks_digits` digits
/// over `ks_planes` planes, plus the `P`-rescale on a special-prime
/// chain) at the engine's `l_pt = 1`. `times` must be
/// measured at the chain's limb width — per-plane kernels, not a wide
/// single word.
pub fn layer_breakdown_on_chain(
    layer: &LinearLayer,
    params: &BfvParams,
    level: usize,
    times: &KernelTimes,
) -> Breakdown {
    let cost = HeCostParams::for_bfv(params, level);
    let ops = layer_ops(layer, params.degree(), cost.l_pt, Schedule::PartialAligned);
    // Per-plane kernel times: every transform and pointwise pass is
    // billed once per live plane (`+1` for the key-switch plane on hybrid
    // chains), which is exactly what `ntts_per_rotate` already counts.
    let planes = cost.ks_planes() as f64;
    let ntts_per_rotate = cost.ntts_per_rotate() as f64;
    Breakdown {
        ntt_s: ops.he_rotate * ntts_per_rotate * times.ntt_s,
        rotate_s: ops.he_rotate * planes * times.rotate_excl_ntt_s,
        mult_s: ops.he_mult * planes * times.mult_s,
        add_s: ops.he_add * planes * times.add_s,
        other_s: (ops.he_mult + ops.he_rotate + ops.he_add) * times.other_s,
    }
}

/// The kernel-timer configuration that matches a chain's per-plane
/// kernels: degree, the (uniform) limb width, and the chain's rotation
/// decomposition base.
pub fn chain_kernel_config(params: &BfvParams) -> KernelConfig {
    let limb_bits = 64 - params.chain().modulus(0).value().leading_zeros();
    KernelConfig {
        n: params.degree(),
        q_bits: limb_bits,
        a_dcmp_log2: params.a_dcmp().trailing_zeros(),
    }
}

/// Computes the full-network breakdown of a solver-produced
/// [`ChainPlan`]: every layer billed on the plan's chain at its planned
/// level, with kernels measured once at the chain's limb width.
pub fn chain_breakdown(
    layers: &[LinearLayer],
    plan: &ChainPlan,
    timer: &mut KernelTimer,
) -> Breakdown {
    let times = timer.measure(chain_kernel_config(&plan.params));
    let mut total = Breakdown::default();
    for (layer, lp) in layers.iter().zip(&plan.layers) {
        total.accumulate(&layer_breakdown_on_chain(
            layer,
            &plan.params,
            lp.level,
            &times,
        ));
    }
    total
}

/// Computes the full-network breakdown for per-layer tuned configurations.
pub fn network_breakdown(
    tuned: &[(LinearLayer, DesignPoint)],
    timer: &mut KernelTimer,
) -> Breakdown {
    let mut total = Breakdown::default();
    for (layer, point) in tuned {
        let times = timer.measure(KernelConfig {
            n: point.n,
            q_bits: point.q_bits,
            a_dcmp_log2: point.a_dcmp_log2,
        });
        total.accumulate(&layer_breakdown(layer, point, &times));
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ptune::{tune_network, NoiseRegime, TuneSpace};
    use cheetah_core::QuantSpec;
    use cheetah_nn::models;

    #[test]
    fn lenet5_breakdown_is_ntt_dominated() {
        // The Fig. 7 headline: NTT is the top kernel, adds are negligible.
        let quant = QuantSpec::default();
        let layers = models::lenet5().linear_layers();
        let t_bits: Vec<u32> = layers
            .iter()
            .map(|l| quant.statistical_plain_bits(l))
            .collect();
        let tuned = tune_network(
            &layers,
            &t_bits,
            Schedule::PartialAligned,
            NoiseRegime::Statistical,
            &TuneSpace::default(),
        )
        .unwrap();
        let mut timer = KernelTimer::new(3);
        let b = network_breakdown(&tuned, &mut timer);
        let shares = b.shares();
        assert!(b.total_s() > 0.0);
        assert!(
            shares[0] > shares[3],
            "NTT share {:.1}% should exceed Add share {:.1}%",
            shares[0],
            shares[3]
        );
        assert!(
            shares[0] + shares[1] > 50.0,
            "rotation machinery (NTT + rotate) should dominate: {shares:?}"
        );
        let sum: f64 = shares.iter().sum();
        assert!((sum - 100.0).abs() < 1e-6);
    }

    #[test]
    fn hybrid_chain_breakdown_beats_its_equal_plane_digit_twin() {
        // The Fig. 7 fix this PR lands: breakdowns must price the hybrid
        // key-switch path. At equal total plane count (2 data limbs + P
        // vs 3 data limbs), a rotation's transform bill is 18 vs 21, so
        // the hybrid chain's NTT seconds — same measured kernels — must
        // come out strictly lower.
        let hybrid = BfvParams::preset_hybrid_2x36(4096).unwrap();
        let digit = BfvParams::preset_rns_3x36(4096).unwrap();
        let layer = &models::lenet5().linear_layers()[0];
        let mut timer = KernelTimer::new(2);
        let times = timer.measure(chain_kernel_config(&hybrid));
        let bh = layer_breakdown_on_chain(layer, &hybrid, 0, &times);
        let bd = layer_breakdown_on_chain(layer, &digit, 0, &times);
        assert!(bh.total_s() > 0.0);
        assert!(
            bh.ntt_s < bd.ntt_s,
            "hybrid NTT seconds {:.3e} must beat the digit twin {:.3e}",
            bh.ntt_s,
            bd.ntt_s
        );
    }

    #[test]
    fn chain_breakdown_covers_every_planned_layer() {
        use cheetah_core::solver::solve_chain_plan;

        let net = models::tiny_cnn();
        let layers = net.linear_layers();
        let plan = solve_chain_plan(&layers, &QuantSpec::default(), &[4096]).unwrap();
        let mut timer = KernelTimer::new(2);
        let b = chain_breakdown(&layers, &plan, &mut timer);
        assert!(b.total_s() > 0.0);
        let shares = b.shares();
        assert!((shares.iter().sum::<f64>() - 100.0).abs() < 1e-6);
    }

    #[test]
    fn accumulate_adds_componentwise() {
        let a = Breakdown {
            ntt_s: 1.0,
            rotate_s: 2.0,
            mult_s: 3.0,
            add_s: 4.0,
            other_s: 5.0,
        };
        let mut b = a;
        b.accumulate(&a);
        assert_eq!(b.total_s(), 2.0 * a.total_s());
    }
}
