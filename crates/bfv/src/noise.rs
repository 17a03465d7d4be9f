//! Noise bookkeeping: the Table III operator noise model, carried live on
//! every ciphertext.
//!
//! Two parallel estimates are tracked:
//!
//! * **worst-case bound** — the Table III expressions
//!   (`v0 ≤ 2nB²`, add: `v0+v1`, pt-mult: `n·W·v/2`,
//!   rotate: `v + l_ct·A·B·n/2`);
//! * **variance** — the statistical (IBDG) model of §IV-B: encryption noise
//!   coefficients are independent bounded sub-Gaussians, and every HE
//!   operator is a linear map with known coefficients, so variances
//!   propagate exactly. The statistical estimate, scaled by
//!   [`FAILURE_SCALE`], is what HE-PTune uses to provision parameters with
//!   decryption-failure probability below 1e-10 instead of the (rare)
//!   worst case.
//!
//! The measured ground truth lives in
//! [`crate::encryptor::Decryptor::invariant_noise`], which computes the
//! actual noise polynomial against the secret key; tests reconcile the two.

use crate::params::{BfvParams, DEFAULT_SIGMA};

/// Scaling factor `c` such that `Pr(|Y| ≥ c·σ_Y) ≤ 1e-10` for sub-Gaussian
/// noise: from the paper's tail bound `Pr(|Y| ≥ q/2t) ≤ 2·exp(−q²/(4t²σ_Y²))`
/// we need `q/(2t) ≥ σ_Y·sqrt(ln(2·10^10))`, i.e. `c = sqrt(ln 2e10) ≈ 4.87`.
pub const FAILURE_SCALE: f64 = 4.870_215_406_991_81;

/// Decryption-failure probability the statistical model provisions for.
pub const TARGET_FAILURE_RATE: f64 = 1e-10;

/// Running noise estimate attached to a ciphertext.
///
/// All quantities are stored in log2 space to survive deep networks without
/// overflow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseEstimate {
    /// log2 of the worst-case noise magnitude bound (Table III).
    pub bound_log2: f64,
    /// log2 of the noise *variance* under the IBDG model.
    pub variance_log2: f64,
}

impl NoiseEstimate {
    /// Noise of a freshly encrypted ciphertext.
    ///
    /// Worst case (Table III): `v0 = 2nB²` with `B = 6σ`.
    /// Variance: `σ_v² = σ²·(2n·k_var + 1)`-ish; we use the dominant RLWE
    /// term `2n·σ⁴`-free form — encryption noise is
    /// `e1 + u·e0 + s·e2`-shaped, a sum of `2n+1` products of two
    /// independent samples with variances `σ²` and `2/3` (ternary), so
    /// `σ_v² ≈ σ²·(1 + 4n/3)`.
    pub fn fresh(params: &BfvParams) -> Self {
        let n = params.degree() as f64;
        let sigma2 = DEFAULT_SIGMA * DEFAULT_SIGMA;
        let bound = params.fresh_noise_bound();
        let variance = sigma2 * (1.0 + 4.0 * n / 3.0);
        Self {
            bound_log2: bound.log2(),
            variance_log2: variance.log2(),
        }
    }

    /// A ciphertext that is exactly zero (e.g. a transparent accumulator).
    pub fn zero() -> Self {
        Self {
            bound_log2: f64::NEG_INFINITY,
            variance_log2: f64::NEG_INFINITY,
        }
    }

    /// Noise after `HE_Add`: bounds add; variances add (independence).
    pub fn add(&self, other: &NoiseEstimate) -> Self {
        Self {
            bound_log2: log2_sum(self.bound_log2, other.bound_log2),
            variance_log2: log2_sum(self.variance_log2, other.variance_log2),
        }
    }

    /// Noise after adding a plaintext (absorbed into the message; adds the
    /// rounding term `||pt||·(q mod t)/t ≤ ||pt||`, negligible but tracked).
    pub fn add_plain(&self, pt_norm: u64) -> Self {
        let extra = (pt_norm.max(1)) as f64;
        Self {
            bound_log2: log2_sum(self.bound_log2, extra.log2()),
            variance_log2: self.variance_log2,
        }
    }

    /// Noise after plaintext multiplication at a level (Table III:
    /// `n·W·v/2` with `l_pt = 1` — the engine multiplies undecomposed
    /// plaintexts), plus the scaling-rounding term; `W = 2·||pt||`.
    ///
    /// Because `Δ_ℓ·t = Q_ℓ − (Q_ℓ mod t)`, multiplying `Δ_ℓ·m + v` by a
    /// lifted plaintext also injects `−(Q_ℓ mod t)·⌊mw/t⌋`: effectively
    /// the factor acts on `v + (Q_ℓ mod t)` rather than `v` alone. The
    /// congruent generators drive `Q_ℓ mod t` to 1 where a prime of the
    /// right shape exists; otherwise the model charges the live residue of
    /// the ciphertext's level (`r` below).
    pub fn mul_plain_at(&self, params: &BfvParams, level: usize, w_base: u64) -> Self {
        let n = params.degree() as f64;
        let r = params.q_mod_t_at(level).max(1) as f64;
        let factor = n * w_base as f64 / 2.0;
        // Variance: each output coefficient is a sum of n products of noise
        // with plaintext coefficients uniform in [0, W): E[w²] ≈ W²/3. The
        // rounding digits are ~uniform in [0, r): variance r²/12.
        let var_factor = n * (w_base as f64 * w_base as f64) / 3.0;
        Self {
            bound_log2: log2_sum(self.bound_log2, r.log2()) + factor.log2(),
            variance_log2: log2_sum(self.variance_log2, (r * r / 12.0).log2()) + var_factor.log2(),
        }
    }

    /// Noise after `HE_Rotate` at a level (Table III:
    /// `v + l_ct·A_dcmp·B·n/2` on a digit chain).
    ///
    /// Under the RNS-native key switch `l_ct(ℓ) = Σ_{live i} ceil(log_A q_i)`
    /// counts the *per-live-limb* digits: each digit `< A` multiplies one
    /// fresh key error polynomial, so the additive term is the live digit
    /// count times `A·B·n/2` exactly as in the composed-base analysis.
    /// Dropped limbs contribute neither digits nor error terms — rotation
    /// noise shrinks together with its cost. The same bound covers hoisted
    /// rotations: permuting digits after extraction leaves every
    /// `|digit| < A` and the per-digit error fresh. A special-prime
    /// parameter set takes the hybrid arm (`rotate_hybrid_at`).
    pub fn rotate_at(&self, params: &BfvParams, level: usize) -> Self {
        if let Some(p_special) = params.special() {
            return self.rotate_hybrid_at(params, level, p_special.value() as f64);
        }
        let n = params.degree() as f64;
        let b = 6.0 * DEFAULT_SIGMA;
        let l_ct = params.l_ct_at(level) as f64;
        let a = params.a_dcmp() as f64;
        let additive = l_ct * a * b * n / 2.0;
        // Variance of the key-switch term: l_ct·n digits, each a product of
        // a uniform digit (var A²/12) and fresh noise (var σ²).
        let add_var = l_ct * n * (a * a / 12.0) * DEFAULT_SIGMA * DEFAULT_SIGMA;
        Self {
            bound_log2: log2_sum(self.bound_log2, additive.log2()),
            variance_log2: log2_sum(self.variance_log2, add_var.log2()),
        }
    }

    /// Noise after a hybrid `P·Q_ℓ` `HE_Rotate` at a level (special-prime
    /// key switching).
    ///
    /// The hybrid arm of [`NoiseEstimate::rotate_at`]. The decomposition
    /// carries one *centered* digit per live limb
    /// (`|v_i| ≤ q_i/2`, no base split), each multiplying a fresh key
    /// error; the accumulated key-noise bill `Σ_i v_i·e_i` is then divided
    /// by `P` in the exact rescale, leaving
    /// `live·(q_max/P)·n·B/2` plus the rescale's own rounding term
    /// `(n + 1)/2` (ternary secret, same shape as
    /// [`NoiseEstimate::mod_switch`]'s coefficient rounding). With `P` as
    /// large as the largest data limb the key-switch term stays O(n·B) —
    /// the reason one digit per limb suffices where the digit path needs
    /// `ceil(log_A q_i)` of them.
    fn rotate_hybrid_at(&self, params: &BfvParams, level: usize, p: f64) -> Self {
        let n = params.degree() as f64;
        let b = 6.0 * DEFAULT_SIGMA;
        let live = params.live_limbs_at(level);
        let q_max = (0..live)
            .map(|i| params.chain().modulus(i).value())
            .max()
            .unwrap_or(1) as f64;
        let ks_term = live as f64 * (q_max / p) * n * b / 2.0;
        let rounding = 1.0 + (n + 1.0) / 2.0;
        let additive = ks_term + rounding;
        // Variance: live·n products of a centered ~uniform digit
        // (var q_max²/12) with fresh key noise (var σ²), divided by P²
        // after the rescale; plus the rescale rounding (e₀ + e₁·s with
        // ~2n/3 ternary terms of var 1/12 each).
        let sigma2 = DEFAULT_SIGMA * DEFAULT_SIGMA;
        let ks_var = live as f64 * n * (q_max * q_max / 12.0) * sigma2 / (p * p);
        let round_var = (1.0 + 2.0 * n / 3.0) / 12.0;
        let add_var = ks_var + round_var;
        Self {
            bound_log2: log2_sum(self.bound_log2, additive.log2()),
            variance_log2: log2_sum(self.variance_log2, add_var.log2()),
        }
    }

    /// Noise after a Baby-Step-Giant-Step matrix–vector product at a
    /// level: `groups` inner sums of `baby` rotate-then-multiply terms
    /// (every baby step reads the *input*, so each term is one rotation of
    /// `self` times a plaintext of norm `w_base/2`), each inner sum rotated
    /// once by its giant step, then the groups added.
    ///
    /// This replaces the `d`-term sequential rotate-add accumulation of the
    /// diagonal method (`d = baby·giant` diagonals): the transition is
    /// `g·rot(Σ_b rot(v)·W) `, not `Σ_d rot(·)` chained through the fresh
    /// accumulator. Unrotated terms (baby step 0, giant group 0) and padded
    /// short groups are bounded by their rotated/full-width counterparts,
    /// keeping the estimate a true upper bound on the engine-tracked noise
    /// of a BSGS layer evaluation.
    pub fn bsgs_matvec_at(
        &self,
        params: &BfvParams,
        level: usize,
        baby: usize,
        groups: usize,
        w_base: u64,
    ) -> Self {
        let term = self
            .rotate_at(params, level)
            .mul_plain_at(params, level, w_base);
        let mut inner = term;
        for _ in 1..baby.max(1) {
            inner = inner.add(&term);
        }
        let rotated_group = inner.rotate_at(params, level);
        let mut acc = rotated_group;
        for _ in 1..groups.max(1) {
            acc = acc.add(&rotated_group);
        }
        acc
    }

    /// Noise after modulus-switching from `from_level` to `from_level + 1`
    /// (dropping live limb `q_drop`).
    ///
    /// The switch divides the invariant noise by `q_drop` and injects two
    /// rounding terms:
    ///
    /// * coefficient rounding `e₀ + e₁·s` with `|·| ≤ (n + 1)/2` for a
    ///   ternary secret;
    /// * the Δ-drift `(ρ/q_drop)·m` with
    ///   `ρ = (q_drop·Δ' − Δ)·t/…`, bounded by `(Q' mod t) + 1`: switching
    ///   rescales `Δ_ℓ` to `q_drop·Δ_{ℓ+1} + ρ` and the remainder rides on
    ///   the message. Fully congruent chains (`Q_ℓ ≡ 1 (mod t)` at every
    ///   level) reduce the drift to ~1; incongruent ones pay up to the
    ///   live residue — which is why a 30-bit limb over a 16-bit `t`
    ///   cannot drop to one limb, while 36-bit limbs over a 17-bit `t`
    ///   can.
    ///
    /// The bound is `v/q_drop + (Q' mod t) + 1 + (n + 1)/2`; tests pin
    /// measured noise under it for every preset.
    pub fn mod_switch(&self, params: &BfvParams, from_level: usize) -> Self {
        let live = params.live_limbs_at(from_level);
        assert!(live >= 2, "no limb left to drop below level {from_level}");
        let q_drop = params.chain().modulus(live - 1).value() as f64;
        let n = params.degree() as f64;
        let drift = params.q_mod_t_at(from_level + 1).max(1) as f64;
        let additive = drift + 1.0 + (n + 1.0) / 2.0;
        // Variance: rounding errors are ~uniform(±1/2) per coefficient
        // (var 1/12), e₁·s sums ~2n/3 of them; the drift digit is
        // ~uniform in [0, drift) (var drift²/12).
        let add_var = drift * drift / 12.0 + (1.0 + 2.0 * n / 3.0) / 12.0;
        Self {
            bound_log2: log2_sum(self.bound_log2 - q_drop.log2(), additive.log2()),
            variance_log2: log2_sum(self.variance_log2 - 2.0 * q_drop.log2(), add_var.log2()),
        }
    }

    /// Remaining noise budget in bits under the worst-case model against a
    /// level's ceiling: `log2(Q_ℓ/2t) − log2(bound)`. Negative means
    /// decryption may fail. The bound must describe a ciphertext *at that
    /// level* for the comparison to mean anything.
    pub fn budget_bits_worst_at(&self, params: &BfvParams, level: usize) -> f64 {
        params.noise_ceiling_at(level).log2() - self.bound_log2
    }

    /// Remaining noise budget in bits under the statistical model with the
    /// 1e-10 failure target against a level's ceiling:
    /// `log2(Q_ℓ/2t) − log2(c·σ_Y)`.
    pub fn budget_bits_statistical_at(&self, params: &BfvParams, level: usize) -> f64 {
        let sigma_log2 = self.variance_log2 / 2.0;
        params.noise_ceiling_at(level).log2() - (sigma_log2 + FAILURE_SCALE.log2())
    }
}

/// `log2(2^a + 2^b)` computed stably.
fn log2_sum(a: f64, b: f64) -> f64 {
    if a == f64::NEG_INFINITY {
        return b;
    }
    if b == f64::NEG_INFINITY {
        return a;
    }
    let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
    hi + (1.0 + (lo - hi).exp2()).log2()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> BfvParams {
        BfvParams::builder()
            .degree(4096)
            .moduli_bits(&[60])
            .plain_bits(17)
            .build()
            .unwrap()
    }

    #[test]
    fn fresh_matches_table_iii() {
        let p = params();
        let e = NoiseEstimate::fresh(&p);
        let b = 6.0 * DEFAULT_SIGMA;
        let expect = (2.0 * 4096.0 * b * b).log2();
        assert!((e.bound_log2 - expect).abs() < 1e-9);
    }

    #[test]
    fn add_doubles_equal_noise() {
        let p = params();
        let e = NoiseEstimate::fresh(&p);
        let s = e.add(&e);
        assert!((s.bound_log2 - (e.bound_log2 + 1.0)).abs() < 1e-9);
        assert!((s.variance_log2 - (e.variance_log2 + 1.0)).abs() < 1e-9);
    }

    #[test]
    fn mul_is_multiplicative_rotate_is_additive() {
        let p = params();
        let fresh = NoiseEstimate::fresh(&p);
        let after_mul = fresh.mul_plain_at(&p, 0, p.plain_modulus().value());
        // Multiplicative growth: bound increases by log2(n*t/2) ≈ 12+17-1.
        assert!(after_mul.bound_log2 - fresh.bound_log2 > 25.0);
        let after_rot = fresh.rotate_at(&p, 0);
        // Additive growth: small compared to multiplication.
        assert!(after_rot.bound_log2 - fresh.bound_log2 < 25.0);
        assert!(after_rot.bound_log2 >= fresh.bound_log2);
    }

    #[test]
    fn sched_pa_beats_sched_ia_in_model() {
        // The §V insight: mult-then-rotate (PA) = ηM·v0 + ηA, while
        // rotate-then-mult (IA) = ηM·(v0 + ηA). IA must be strictly noisier.
        let p = params();
        let fresh = NoiseEstimate::fresh(&p);
        let w = p.plain_modulus().value();
        let pa = fresh.mul_plain_at(&p, 0, w).rotate_at(&p, 0);
        let ia = fresh.rotate_at(&p, 0).mul_plain_at(&p, 0, w);
        assert!(ia.bound_log2 > pa.bound_log2);
        assert!(ia.variance_log2 > pa.variance_log2);
    }

    #[test]
    fn bsgs_transition_beats_sequential_rotate_mul_chain() {
        // d = b·g diagonals: the BSGS transition (b inner rotate-mul terms
        // then ONE rotation per group) must bound strictly less noise than
        // the schedule-ordered d-term accumulation it replaces only when
        // the per-term costs compound — at minimum it must stay a valid
        // bound ≥ the per-term floor and scale with b·g like the flat sum.
        let p = params();
        let fresh = NoiseEstimate::fresh(&p);
        let w = 2 * 5;
        let bsgs = fresh.bsgs_matvec_at(&p, 0, 4, 4, w);
        // Flat IA model: 16 terms of rotate-then-mul.
        let term = fresh.rotate_at(&p, 0).mul_plain_at(&p, 0, w);
        let mut flat = term;
        for _ in 1..16 {
            flat = flat.add(&term);
        }
        // The BSGS bound adds one extra giant rotation per group on top of
        // the same 16 inner terms: within a bit of the flat model, never
        // materially below it (it must still bound the engine).
        assert!(bsgs.bound_log2 >= flat.bound_log2);
        assert!(bsgs.bound_log2 <= flat.bound_log2 + 1.0);
        // Degenerate shapes reduce to their flat equivalents.
        let all_baby = fresh.bsgs_matvec_at(&p, 0, 16, 1, w);
        assert!(all_baby.bound_log2 >= flat.bound_log2);
        assert!(all_baby.bound_log2 <= flat.bound_log2 + 1.0);
    }

    #[test]
    fn statistical_budget_exceeds_worst_case_budget() {
        let p = params();
        let e = NoiseEstimate::fresh(&p).mul_plain_at(&p, 0, p.plain_modulus().value());
        assert!(e.budget_bits_statistical_at(&p, 0) > e.budget_bits_worst_at(&p, 0));
    }

    #[test]
    fn zero_is_identity_for_add() {
        let p = params();
        let e = NoiseEstimate::fresh(&p);
        let z = NoiseEstimate::zero();
        let s = e.add(&z);
        assert!((s.bound_log2 - e.bound_log2).abs() < 1e-12);
    }

    #[test]
    fn failure_scale_value() {
        // c = sqrt(ln(2/1e-10))
        let c = (2.0f64 / TARGET_FAILURE_RATE).ln().sqrt();
        assert!((c - FAILURE_SCALE).abs() < 1e-9);
    }

    #[test]
    fn log2_sum_stability() {
        assert!((log2_sum(10.0, 10.0) - 11.0).abs() < 1e-12);
        assert!((log2_sum(100.0, 0.0) - 100.0).abs() < 1e-6);
        assert_eq!(log2_sum(f64::NEG_INFINITY, 5.0), 5.0);
    }
}
