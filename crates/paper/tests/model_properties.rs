//! Property tests on the HE-PTune models: monotonicity and consistency
//! laws that must hold across the whole parameter space, not just the
//! points unit tests pin.

use cheetah_core::cost::HeCostParams;
use cheetah_core::Schedule;
use cheetah_nn::{ConvSpec, FcSpec, LinearLayer};
use cheetah_paper::ptune::noise::{layer_noise, HeNoiseParams, NoiseRegime};
use cheetah_paper::ptune::perf::{conv_ops, fc_ops, layer_ops};
use cheetah_paper::ptune::tuner::{evaluate_point, NO_WINDOW};
use proptest::prelude::*;

fn arb_conv() -> impl Strategy<Value = ConvSpec> {
    (
        prop_oneof![Just(8usize), Just(16), Just(28), Just(56), Just(224)],
        prop_oneof![Just(1usize), Just(3), Just(5), Just(7), Just(11)],
        1usize..=512,
        1usize..=512,
    )
        .prop_map(|(w, fw, ci, co)| ConvSpec {
            name: "prop".into(),
            w,
            fw,
            ci,
            co,
            stride: 1,
            pad: fw / 2,
        })
}

fn arb_fc() -> impl Strategy<Value = FcSpec> {
    (1usize..=30000, 1usize..=8192).prop_map(|(ni, no)| FcSpec {
        name: "prop".into(),
        ni,
        no,
    })
}

proptest! {
    #[test]
    fn conv_counts_are_positive_and_scale_with_l_pt(c in arb_conv(), l_pt in 1usize..6) {
        for n in [2048usize, 4096, 8192] {
            let m1 = conv_ops(&c, n, 1, Schedule::PartialAligned);
            let ml = conv_ops(&c, n, l_pt, Schedule::PartialAligned);
            prop_assert!(m1.he_mult > 0.0);
            prop_assert!(m1.he_rotate >= 0.0);
            // Mults scale exactly with l_pt; PA rotations do not.
            prop_assert!((ml.he_mult - l_pt as f64 * m1.he_mult).abs() < 1e-6 * ml.he_mult.max(1.0));
            prop_assert!((ml.he_rotate - m1.he_rotate).abs() < 1e-9);
            // IA rotations do scale with l_pt.
            let ia = conv_ops(&c, n, l_pt, Schedule::InputAligned);
            prop_assert!((ia.he_rotate - l_pt as f64 * m1.he_rotate).abs() < 1e-6 * ia.he_rotate.max(1.0));
        }
    }

    #[test]
    fn fc_mult_count_is_exactly_table_iv(f in arb_fc(), l_pt in 1usize..6) {
        for n in [2048usize, 4096, 16384] {
            let m = fc_ops(&f, n, l_pt, Schedule::PartialAligned);
            let expect = l_pt as f64 * (f.ni * f.no) as f64 / n as f64;
            prop_assert!((m.he_mult - expect).abs() < 1e-6 * expect.max(1.0));
            prop_assert!(m.he_rotate >= 0.0);
        }
    }

    #[test]
    fn int_mults_monotone_in_decomposition_levels(c in arb_conv()) {
        // More decomposition levels never make a layer cheaper.
        let layer = LinearLayer::Conv(c);
        let base = HeCostParams { n: 4096, l_pt: 1, l_ct: 3,
            limbs: 1, hybrid: false, };
        let deeper_ct = HeCostParams { l_ct: 8, ..base };
        let cost = |p: &HeCostParams, l_pt: usize| layer_ops(&layer, p.n, l_pt, Schedule::PartialAligned).int_mults(p);
        prop_assert!(cost(&deeper_ct, 1) >= cost(&base, 1));
        prop_assert!(cost(&base, 3) >= cost(&base, 1));
    }

    #[test]
    fn noise_budget_monotone_in_q(c in arb_conv(), q_lo in 30u32..45) {
        let layer = LinearLayer::Conv(c);
        let q_hi = q_lo + 10;
        let mk = |q_bits| HeNoiseParams {
            n: 4096,
            t_bits: 18,
            q_bits,
            w_dcmp: 1 << 18,
            a_dcmp: 1 << 10,
            sigma: 3.2,
        };
        // Same decomposition levels for both (fix l_ct by scaling A with q
        // would change levels; keep A fixed and only compare budgets when
        // l_ct is equal).
        let lo = mk(q_lo);
        let hi = mk(q_hi);
        if lo.l_ct() == hi.l_ct() {
            for regime in [NoiseRegime::WorstCase, NoiseRegime::Statistical] {
                let b_lo = layer_noise(&layer, &lo, Schedule::PartialAligned, regime).budget_bits;
                let b_hi = layer_noise(&layer, &hi, Schedule::PartialAligned, regime).budget_bits;
                prop_assert!(b_hi >= b_lo, "{regime:?}: q {q_hi} budget {b_hi} < q {q_lo} budget {b_lo}");
            }
        }
    }

    #[test]
    fn ia_never_beats_pa_in_noise(c in arb_conv()) {
        let layer = LinearLayer::Conv(c);
        let p = HeNoiseParams {
            n: 4096,
            t_bits: 18,
            q_bits: 60,
            w_dcmp: 1 << 6,
            a_dcmp: 1 << 8,
            sigma: 3.2,
        };
        for regime in [NoiseRegime::WorstCase, NoiseRegime::Statistical] {
            let pa = layer_noise(&layer, &p, Schedule::PartialAligned, regime);
            let ia = layer_noise(&layer, &p, Schedule::InputAligned, regime);
            prop_assert!(ia.noise_log2 >= pa.noise_log2);
        }
    }

    #[test]
    fn evaluate_point_is_deterministic(c in arb_conv(), a_log in 2u32..24, seed in 0u32..4) {
        let _ = seed; // determinism means seed must not matter (there is none)
        let layer = LinearLayer::Conv(c);
        let p1 = evaluate_point(
            &layer, 18, 4096, 60, a_log, NO_WINDOW, 3.2,
            Schedule::PartialAligned, NoiseRegime::Statistical,
        );
        let p2 = evaluate_point(
            &layer, 18, 4096, 60, a_log, NO_WINDOW, 3.2,
            Schedule::PartialAligned, NoiseRegime::Statistical,
        );
        prop_assert_eq!(p1, p2);
    }
}
