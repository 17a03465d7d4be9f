//! HE-PTune performance model — Table IV of the paper.
//!
//! Counts `HE_Mult` and `HE_Rotate` operators per CNN/FC layer as a
//! function of layer hyperparameters and HE parameters, then reduces them
//! to integer multiplications via [`cheetah_core::cost`]. Two CNN cases (ciphertext
//! holds ≥ 1 image, or an image spans > 1 ciphertext) and four FC cases
//! (each side of the matrix larger or smaller than `n`).

use cheetah_core::cost::{HeCostParams, KernelTally};
use cheetah_core::Schedule;
use cheetah_nn::{ConvSpec, FcSpec, LinearLayer};

/// HE-operator counts for one layer (may be fractional: the models are
/// asymptotic rates, exactly as the paper presents them).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpModel {
    /// `HE_Mult` invocations.
    pub he_mult: f64,
    /// `HE_Rotate` invocations.
    pub he_rotate: f64,
    /// `HE_Add` invocations (≈ one per partial; not in Table IV but needed
    /// for the Fig. 7 breakdown — adds contribute no multiplications).
    pub he_add: f64,
}

impl OpModel {
    /// Expands operator counts into a kernel tally (NTT count =
    /// `(l_ct + 1)` per rotation, per §IV-A).
    pub fn tally(&self, p: &HeCostParams) -> KernelTally {
        KernelTally {
            he_mult: self.he_mult,
            he_rotate: self.he_rotate,
            he_add: self.he_add,
            ntt: self.he_rotate * p.ntts_per_rotate() as f64,
        }
    }

    /// Total integer multiplications under `p`.
    pub fn int_mults(&self, p: &HeCostParams) -> f64 {
        self.tally(p).total_int_mults(p)
    }
}

/// Table IV, CNN rows. `n` is the slot count, `l_pt` the plaintext
/// decomposition level.
///
/// `c_n` is the number of image channels per ciphertext (`n/w²`) when the
/// ciphertext is at least an image, else the number of ciphertexts per
/// channel (`w²/n`).
///
/// Under Sched-IA the rotations act on the `l_pt` windowed *input*
/// ciphertexts (rotate-then-multiply), so the rotation count scales with
/// `l_pt`; under Sched-PA the windowed partial products are accumulated
/// *before* alignment, so it does not. This is the "substantial ciphertext
/// and plaintext decomposition" overhead §V-C attributes to Sched-IA.
pub fn conv_ops(c: &ConvSpec, n: usize, l_pt: usize, schedule: Schedule) -> OpModel {
    let w2 = (c.w * c.w) as f64;
    let fw2 = (c.fw * c.fw) as f64;
    let (ci, co) = (c.ci as f64, c.co as f64);
    let nf = n as f64;
    let l_pt = l_pt as f64;
    let rot_scale = match schedule {
        Schedule::InputAligned => l_pt,
        Schedule::PartialAligned => 1.0,
    };
    if nf >= w2 {
        let cn = (nf / w2).floor().max(1.0);
        let he_mult = l_pt * ci * co * fw2 / cn;
        let he_rotate = rot_scale * ci * co * fw2 / cn;
        OpModel {
            he_mult,
            he_rotate,
            he_add: he_mult.max(he_rotate),
        }
    } else {
        let cn = (w2 / nf).ceil().max(1.0);
        let he_mult = l_pt * (2.0 * cn - 1.0) * ci * co * fw2;
        let he_rotate = rot_scale * (2.0 * cn - 1.0) * ci * co * (fw2 - 1.0);
        OpModel {
            he_mult,
            he_rotate,
            he_add: he_mult,
        }
    }
}

/// Table IV, FC rows (all four size cases); `schedule` scales the
/// rotations as in [`conv_ops`].
pub fn fc_ops(f: &FcSpec, n: usize, l_pt: usize, schedule: Schedule) -> OpModel {
    let (ni, no) = (f.ni as f64, f.no as f64);
    let nf = n as f64;
    let l_pt = l_pt as f64;
    let rot_scale = match schedule {
        Schedule::InputAligned => l_pt,
        Schedule::PartialAligned => 1.0,
    };
    let he_mult = l_pt * ni * no / nf;
    let he_rotate = rot_scale
        * if nf >= ni && nf >= no {
            (ni * no / nf - 1.0).max(0.0) + (nf / no).max(1.0).log2()
        } else if nf >= ni {
            // n >= ni, n < no
            (ni - 1.0) * no / nf
        } else if nf >= no {
            // n < ni, n >= no
            (no + (nf / no).max(1.0).log2()) * ni / nf
        } else {
            // n < ni, n < no
            (nf - 1.0) * ni * no / (nf * nf)
        };
    OpModel {
        he_mult,
        he_rotate,
        he_add: he_mult.max(he_rotate),
    }
}

/// Dispatches on layer kind.
pub fn layer_ops(layer: &LinearLayer, n: usize, l_pt: usize, schedule: Schedule) -> OpModel {
    match layer {
        LinearLayer::Conv(c) => conv_ops(c, n, l_pt, schedule),
        LinearLayer::Fc(f) => fc_ops(f, n, l_pt, schedule),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv(w: usize, fw: usize, ci: usize, co: usize) -> ConvSpec {
        ConvSpec {
            name: "c".into(),
            w,
            fw,
            ci,
            co,
            stride: 1,
            pad: fw / 2,
        }
    }

    fn fc(ni: usize, no: usize) -> FcSpec {
        FcSpec {
            name: "f".into(),
            ni,
            no,
        }
    }

    #[test]
    fn conv_large_n_case() {
        // n = 4096, w = 32 (w² = 1024) -> cn = 4 channels per ct.
        let m = conv_ops(&conv(32, 3, 16, 32), 4096, 1, Schedule::PartialAligned);
        assert!((m.he_mult - 16.0 * 32.0 * 9.0 / 4.0).abs() < 1e-9);
        assert!((m.he_rotate - 16.0 * 32.0 * 9.0 / 4.0).abs() < 1e-9);
    }

    #[test]
    fn conv_small_n_case() {
        // n = 4096, w = 224 (w² = 50176) -> cn = ceil(50176/4096) = 13.
        let m = conv_ops(&conv(224, 3, 3, 64), 4096, 1, Schedule::PartialAligned);
        let cn = (50176.0f64 / 4096.0).ceil();
        assert!((m.he_mult - (2.0 * cn - 1.0) * 3.0 * 64.0 * 9.0).abs() < 1e-9);
        assert!((m.he_rotate - (2.0 * cn - 1.0) * 3.0 * 64.0 * 8.0).abs() < 1e-9);
    }

    #[test]
    fn plaintext_decomposition_multiplies_mults_only() {
        let m1 = conv_ops(&conv(32, 3, 16, 32), 4096, 1, Schedule::PartialAligned);
        let m3 = conv_ops(&conv(32, 3, 16, 32), 4096, 3, Schedule::PartialAligned);
        assert!((m3.he_mult - 3.0 * m1.he_mult).abs() < 1e-9);
        assert!((m3.he_rotate - m1.he_rotate).abs() < 1e-9);
    }

    #[test]
    fn fc_all_four_cases_positive() {
        for (ni, no, n) in [
            (512usize, 128usize, 4096usize), // n >= both
            (512, 8192, 4096),               // n >= ni, n < no
            (8192, 128, 4096),               // n < ni, n >= no
            (8192, 8192, 4096),              // n < both
        ] {
            let m = fc_ops(&fc(ni, no), n, 1, Schedule::PartialAligned);
            assert!(m.he_mult > 0.0, "mult for ({ni},{no})");
            assert!(m.he_rotate > 0.0, "rotate for ({ni},{no})");
            assert!(
                (m.he_mult - (ni * no) as f64 / n as f64).abs() < 1e-9,
                "mult count is ni*no/n in every case"
            );
        }
    }

    #[test]
    fn fc_square_case_matches_paper_formula() {
        // n >= ni, n >= no: rot = ni*no/n - 1 + log2(n/no).
        let m = fc_ops(&fc(2048, 512), 4096, 1, Schedule::PartialAligned);
        let expect = (2048.0 * 512.0 / 4096.0 - 1.0) + (4096.0f64 / 512.0).log2();
        assert!((m.he_rotate - expect).abs() < 1e-9);
    }

    #[test]
    fn bigger_n_fewer_ops_but_costlier_ops() {
        // Growing n cuts operator counts per Table IV but each op costs
        // more integer mults — the tension HE-PTune navigates.
        let c = conv(32, 3, 16, 32);
        let ops_small = conv_ops(&c, 2048, 1, Schedule::PartialAligned);
        let ops_big = conv_ops(&c, 8192, 1, Schedule::PartialAligned);
        assert!(ops_big.he_mult < ops_small.he_mult);
        let p_small = HeCostParams {
            n: 2048,
            l_pt: 1,
            l_ct: 3,
            limbs: 1,
            hybrid: false,
        };
        let p_big = HeCostParams {
            n: 8192,
            l_pt: 1,
            l_ct: 3,
            limbs: 1,
            hybrid: false,
        };
        assert!(p_big.he_rotate_mults() > p_small.he_rotate_mults());
    }

    #[test]
    fn layer_ops_dispatches_under_either_schedule() {
        // Sched-IA rotates each of the l_pt windowed inputs, Sched-PA one
        // accumulated partial: the rotations part ways, the multiplies
        // do not.
        let (c, f) = (conv(32, 3, 16, 32), fc(2048, 512));
        for s in [Schedule::PartialAligned, Schedule::InputAligned] {
            let conv_layer = LinearLayer::Conv(c.clone());
            let fc_layer = LinearLayer::Fc(f.clone());
            assert_eq!(layer_ops(&conv_layer, 4096, 3, s), conv_ops(&c, 4096, 3, s));
            assert_eq!(layer_ops(&fc_layer, 4096, 3, s), fc_ops(&f, 4096, 3, s));
        }
        let pa = fc_ops(&f, 4096, 3, Schedule::PartialAligned);
        let ia = fc_ops(&f, 4096, 3, Schedule::InputAligned);
        assert_eq!(ia.he_mult, pa.he_mult);
        assert!((ia.he_rotate - 3.0 * pa.he_rotate).abs() < 1e-9);
    }

    #[test]
    fn int_mults_consistent_with_tally() {
        let m = conv_ops(&conv(16, 3, 4, 8), 2048, 1, Schedule::PartialAligned);
        let p = HeCostParams {
            n: 2048,
            l_pt: 1,
            l_ct: 2,
            limbs: 1,
            hybrid: false,
        };
        let tally = m.tally(&p);
        assert_eq!(tally.ntt, m.he_rotate * 3.0);
        assert!((m.int_mults(&p) - tally.total_int_mults(&p)).abs() < 1e-9);
    }
}
