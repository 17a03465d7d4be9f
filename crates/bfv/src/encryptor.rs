//! Encryption and decryption, including exact noise measurement.
//!
//! All ciphertext arithmetic is limb-parallel over the RNS chain;
//! decryption is the one place limbs are CRT-composed back into exact
//! `[0, Q)` values (per coefficient, via Garner composition) before the
//! `round(t·c/Q)` scaling — so a 1-limb chain reproduces the historical
//! single-modulus rounding bit-for-bit, and longer chains get exact
//! wide-modulus decryption without any big-integer polynomial arithmetic.
//! A one-limb phase (every download ships at the last limb) rounds in
//! `u64` with no compose and no division when `t·q + q/2 < 2^64`.

use crate::arith::Modulus;
use crate::ciphertext::Ciphertext;
use crate::encoder::Plaintext;
use crate::error::{Error, Result};
use crate::keys::{PublicKey, SecretKey};
use crate::noise::NoiseEstimate;
use crate::params::{BfvParams, DEFAULT_SIGMA};
use crate::rns::{Representation, RnsPoly};
use crate::sampling::BfvRng;

/// Encrypts plaintexts under a public key (asymmetric) or secret key
/// (symmetric; smaller noise, used by the client for re-encryption in the
/// Gazelle protocol).
#[derive(Debug)]
pub struct Encryptor {
    params: BfvParams,
    pk: Option<PublicKey>,
    sk: Option<SecretKey>,
    rng: BfvRng,
}

impl Encryptor {
    /// Public-key encryptor.
    pub fn from_public_key(pk: PublicKey, seed: u64) -> Self {
        let params = pk.params().clone();
        let rng = BfvRng::from_seed(seed, DEFAULT_SIGMA);
        Self {
            params,
            pk: Some(pk),
            sk: None,
            rng,
        }
    }

    /// Secret-key (symmetric) encryptor.
    pub fn from_secret_key(sk: SecretKey, seed: u64) -> Self {
        let params = sk.params().clone();
        let rng = BfvRng::from_seed(seed, DEFAULT_SIGMA);
        Self {
            params,
            pk: None,
            sk: Some(sk),
            rng,
        }
    }

    /// Parameter set.
    pub fn params(&self) -> &BfvParams {
        &self.params
    }

    /// Encrypts a plaintext.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ParameterMismatch`] if the plaintext was built for
    /// different parameters.
    pub fn encrypt(&mut self, pt: &Plaintext) -> Result<Ciphertext> {
        self.params.check_same(pt.params())?;
        let mut dm = RnsPoly::zero(self.params.chain(), Representation::Coeff);
        self.params.lift_scaled_into(pt.coeffs(), &mut dm);
        dm.to_eval(self.params.chain());
        if let Some(pk) = &self.pk {
            self.encrypt_with_pk(dm, pk.clone())
        } else {
            self.encrypt_with_sk(dm)
        }
    }

    fn encrypt_with_pk(&mut self, dm: RnsPoly, pk: PublicKey) -> Result<Ciphertext> {
        let chain = self.params.chain().clone();
        let mut u = self.rng.ternary_rns(&chain);
        u.to_eval(&chain);
        let mut e0 = self.rng.noise_rns(&chain);
        e0.to_eval(&chain);
        let mut e1 = self.rng.noise_rns(&chain);
        e1.to_eval(&chain);

        let mut c0 = pk.pk0().clone();
        c0.mul_assign_pointwise(&u, &chain)?;
        c0.add_assign(&e0, &chain)?;
        c0.add_assign(&dm, &chain)?;
        let mut c1 = pk.pk1().clone();
        c1.mul_assign_pointwise(&u, &chain)?;
        c1.add_assign(&e1, &chain)?;
        Ok(Ciphertext::new(
            c0,
            c1,
            self.params.clone(),
            NoiseEstimate::fresh(&self.params),
        ))
    }

    fn encrypt_with_sk(&mut self, dm: RnsPoly) -> Result<Ciphertext> {
        let chain = self.params.chain().clone();
        let a = self.rng.uniform_rns(&chain, Representation::Eval);
        self.assemble_sk_ciphertext(dm, a, &chain)
    }

    /// [`Encryptor::encrypt_seeded_at`] at level 0, over the full chain.
    /// The one level-0 twin the engine keeps besides [`BfvParams::chain`]:
    /// the benchmark's sources call it unchanged until the benchmark itself
    /// is revised; a session encrypts each upload at its layer's level.
    ///
    /// # Errors
    ///
    /// As [`Encryptor::encrypt_seeded_at`].
    pub fn encrypt_seeded(&mut self, pt: &Plaintext) -> Result<(Ciphertext, u64)> {
        self.encrypt_seeded_at(pt, 0)
    }

    /// Symmetric encryption at `level`, with a wire-compressible mask:
    /// `c0 = −a·s + e + Δ_ℓ·m` over the level's live limbs, and `c1 = a`
    /// is expanded from a fresh 64-bit seed over the level's chain (via
    /// [`crate::sampling::expand_uniform`]) instead of drawn from the main
    /// stream, so the ciphertext can ship as (seed, c0) — see
    /// [`crate::wire::encode_ciphertext_seeded`]. A fresh encryption's
    /// noise is absolute, the same at every level, so the ciphertext
    /// carries [`NoiseEstimate::fresh`] whatever its level; a client that
    /// knows the level a layer runs at encrypts there and never ships the
    /// limbs the server would drop. Returns the ciphertext together with
    /// the seed that regenerates its `c1`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Unsupported`] on a public-key encryptor (only the
    /// symmetric path has a uniform `c1`), [`Error::ParameterMismatch`]
    /// for foreign plaintexts, or [`Error::InvalidLevel`] for a level
    /// past the chain.
    pub fn encrypt_seeded_at(&mut self, pt: &Plaintext, level: usize) -> Result<(Ciphertext, u64)> {
        if self.sk.is_none() {
            return Err(Error::Unsupported(
                "seeded encryption requires a secret-key encryptor",
            ));
        }
        self.params.check_same(pt.params())?;
        if level > self.params.max_level() {
            return Err(Error::InvalidLevel {
                requested: level,
                current: 0,
                max: self.params.max_level(),
            });
        }
        let chain = self.params.chain_at(level).clone();
        let mut dm = RnsPoly::zero(&chain, Representation::Coeff);
        self.params.lift_scaled_into(pt.coeffs(), &mut dm);
        dm.to_eval(&chain);
        let seed = self.rng.next_seed();
        let a = crate::sampling::expand_uniform(seed, &chain);
        let ct = self.assemble_sk_ciphertext(dm, a, &chain)?;
        Ok((ct, seed))
    }

    fn assemble_sk_ciphertext(
        &mut self,
        dm: RnsPoly,
        a: RnsPoly,
        chain: &crate::rns::ModulusChain,
    ) -> Result<Ciphertext> {
        let sk = self.sk.as_ref().expect("sk encryptor");
        let mut e = self.rng.noise_rns(chain);
        e.to_eval(chain);
        // c0 = -(a*s) + e + Δm; c1 = a — over `chain`'s limbs, the secret
        // key's full-chain lift read as a live-plane prefix.
        let mut c0 = a.clone();
        c0.mul_assign_pointwise_prefix(sk.poly(), chain)?;
        c0.negate(chain);
        c0.add_assign(&e, chain)?;
        c0.add_assign(&dm, chain)?;
        Ok(Ciphertext::new(
            c0,
            a,
            self.params.clone(),
            NoiseEstimate::fresh(&self.params),
        ))
    }
}

/// Measured-noise gate (bits) under which [`Decryptor::decrypt_checked`]
/// refuses a ciphertext as [`Error::NoiseBudgetExhausted`]. The budget is
/// measured against the *nearest* plaintext multiple, so truly overflowed
/// noise collapses it to ≈ 0 while hovering slightly positive — a
/// strict-zero gate would wave garbage through. The max of `n`
/// near-uniform residuals keeps garbage within a few thousandths of a bit
/// of zero, while healthy-but-marginal ciphertexts measure well above half
/// a bit, so half a bit separates the two populations by orders of
/// magnitude.
pub const MIN_DECRYPT_BUDGET_BITS: f64 = 0.5;

/// Decrypts ciphertexts and measures true noise against the secret key.
#[derive(Debug, Clone)]
pub struct Decryptor {
    params: BfvParams,
    sk: SecretKey,
}

/// `round(t·c / q) mod t` for every residue `c` of a one-limb phase, when
/// `t·q + q/2 < 2^64`: the numerator's remainder by Barrett, then the
/// quotient by an exact division — a multiply by `q⁻¹ mod 2^64` (`q` is
/// odd) — so no `u128` compose or division runs. The quotient is at most
/// `t` (`c < q`), so `mod t` is one conditional subtraction. The same
/// integers as the composed path.
fn round_one_limb(phase: &[u64], t: u64, q: &Modulus) -> Vec<u64> {
    let qv = q.value();
    debug_assert!(qv % 2 == 1, "an NTT limb is odd");
    // Newton's iteration doubles the correct low bits of q⁻¹ mod 2^64 from
    // the three `q` itself holds (q·q ≡ 1 mod 8 for odd q).
    let mut q_inv = qv;
    for _ in 0..5 {
        q_inv = q_inv.wrapping_mul(2u64.wrapping_sub(qv.wrapping_mul(q_inv)));
    }
    let half_q = qv / 2;
    phase
        .iter()
        .map(|&c| {
            let num = t * c + half_q;
            let quo = (num - q.reduce(num)).wrapping_mul(q_inv);
            quo - t * u64::from(quo >= t)
        })
        .collect()
}

impl Decryptor {
    /// Creates a decryptor from the secret key.
    pub fn new(sk: SecretKey) -> Self {
        Self {
            params: sk.params().clone(),
            sk,
        }
    }

    /// Parameter set.
    pub fn params(&self) -> &BfvParams {
        &self.params
    }

    /// Decrypts to a plaintext: `m = round(t·(c0 + c1·s)/Q_ℓ) mod t`, with
    /// each coefficient CRT-composed across the ciphertext's **live**
    /// limbs before the exact integer rounding. Modulus-switched
    /// ciphertexts decrypt against their level's `Q_ℓ` and `Δ_ℓ` — dropped
    /// limbs never re-enter the computation.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ParameterMismatch`] for foreign ciphertexts.
    /// Decryption itself cannot detect noise overflow — use
    /// [`Decryptor::decrypt_checked`] to refuse it.
    pub fn decrypt(&self, ct: &Ciphertext) -> Result<Plaintext> {
        Ok(self.phase_and_message(ct)?.1)
    }

    /// The decryption phase `c0 + c1·s` in coefficient form, over the
    /// ciphertext's live limbs (the secret key's full-chain lift is read
    /// as a live-plane prefix), and the plaintext it rounds to — the one
    /// phase and the one compose-and-round under every decryption.
    fn phase_and_message(&self, ct: &Ciphertext) -> Result<(RnsPoly, Plaintext)> {
        self.params.check_same(ct.params())?;
        let chain = self.params.chain_at(ct.level());
        let mut phase = ct.c1().clone();
        phase.mul_assign_pointwise_prefix(self.sk.poly(), chain)?;
        phase.add_assign(ct.c0(), chain)?;
        phase.to_coeff(chain);
        let qv = chain.big_q();
        let tv = self.params.plain_modulus().value() as u128;
        let half_q = qv / 2;
        let coeffs: Vec<u64> = if chain.limbs() == 1 && tv * qv + half_q < 1 << 64 {
            round_one_limb(phase.limb(0), tv as u64, chain.modulus(0))
        } else {
            (0..self.params.degree())
                .map(|j| {
                    // round(t*c/Q_ℓ) mod t, in exact integer arithmetic (the
                    // chain builder guarantees t*Q + Q/2 fits u128, and every
                    // Q_ℓ divides Q).
                    let c = phase.compose_coeff(chain, j);
                    let num = tv * c + half_q;
                    ((num / qv) % tv) as u64
                })
                .collect()
        };
        let m = Plaintext::canonical(coeffs, self.params.clone());
        Ok((phase, m))
    }

    /// The plaintext and the exact invariant-noise magnitude
    /// `||c0 + c1·s − Δ_ℓ·m||_∞` (centered against the live `Q_ℓ`), from
    /// one phase.
    fn decrypt_with_noise(&self, ct: &Ciphertext) -> Result<(Plaintext, u128)> {
        let (mut v, m) = self.phase_and_message(ct)?;
        let level = ct.level();
        let chain = self.params.chain_at(level);
        let mut dm = RnsPoly::zero(chain, Representation::Coeff);
        self.params.lift_scaled_into(m.coeffs(), &mut dm);
        v.sub_assign(&dm, chain)?;
        let noise = v.inf_norm_centered(chain)?;
        Ok((m, noise))
    }

    /// `log2(Q_ℓ/(2t)) − log2(noise)` at `level`.
    fn budget_bits(&self, noise: u128, level: usize) -> f64 {
        let ceiling = self.params.noise_ceiling_at(level);
        ceiling.log2() - (noise as f64).max(1.0).log2()
    }

    /// The exact invariant-noise magnitude `||c0 + c1·s − Δ_ℓ·m||_∞`
    /// (centered against the live `Q_ℓ`), the ground truth the Table III
    /// model bounds.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ParameterMismatch`] for foreign ciphertexts.
    pub fn invariant_noise(&self, ct: &Ciphertext) -> Result<u128> {
        Ok(self.decrypt_with_noise(ct)?.1)
    }

    /// Remaining noise budget in bits: `log2(Q_ℓ/(2t)) − log2(noise)`,
    /// against the ciphertext's own level ceiling.
    ///
    /// The measurement is taken against the *nearest* plaintext multiple,
    /// so once noise truly overflows the budget collapses to ≈ 0 (it can
    /// hover slightly positive) rather than going deeply negative — which
    /// is why [`Decryptor::decrypt_checked`] refuses anything under
    /// [`MIN_DECRYPT_BUDGET_BITS`], not under zero.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ParameterMismatch`] for foreign ciphertexts.
    pub fn invariant_noise_budget(&self, ct: &Ciphertext) -> Result<f64> {
        let noise = self.invariant_noise(ct)?;
        Ok(self.budget_bits(noise, ct.level()))
    }

    /// Decrypts, returning [`Error::NoiseBudgetExhausted`] when the
    /// measured budget is under [`MIN_DECRYPT_BUDGET_BITS`]. (In that
    /// regime the "decrypted" value is garbage; the paper calls this
    /// decryption failure.) The phase is computed once for both the
    /// measurement and the plaintext.
    ///
    /// # Errors
    ///
    /// [`Error::NoiseBudgetExhausted`] or [`Error::ParameterMismatch`].
    pub fn decrypt_checked(&self, ct: &Ciphertext) -> Result<Plaintext> {
        let (m, noise) = self.decrypt_with_noise(ct)?;
        if self.budget_bits(noise, ct.level()) < MIN_DECRYPT_BUDGET_BITS {
            return Err(Error::NoiseBudgetExhausted);
        }
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::BatchEncoder;
    use crate::keys::KeyGenerator;

    fn setup(n: usize) -> (BfvParams, BatchEncoder, Encryptor, Decryptor) {
        let params = BfvParams::builder()
            .degree(n)
            .plain_bits(16)
            .moduli_bits(&[if n >= 4096 { 60 } else { 54 }])
            .build()
            .unwrap();
        setup_with(params)
    }

    fn setup_with(params: BfvParams) -> (BfvParams, BatchEncoder, Encryptor, Decryptor) {
        let mut kg = KeyGenerator::from_seed(params.clone(), 99);
        let pk = kg.public_key().unwrap();
        let enc = Encryptor::from_public_key(pk, 7);
        let dec = Decryptor::new(kg.secret_key().clone());
        let encoder = BatchEncoder::new(params.clone());
        (params, encoder, enc, dec)
    }

    #[test]
    fn one_limb_rounding_is_the_composed_formula() {
        // Every last limb the presets round on in u64, on the residues
        // where round(t·c/q) steps (c just below and at each
        // ⌈(k·q − q/2)/t⌉, k ≤ t, where the result wraps to 0 at k = t),
        // the edges 0, 1, q/2, q/2 + 1, q − 1, and a spread between:
        // round_one_limb gives what the u128 compose-and-divide gives.
        let mut checked = 0;
        let mut presets = BfvParams::presets(4096).unwrap();
        presets.extend(BfvParams::hybrid_presets(4096).unwrap());
        for (_, params) in presets {
            let t = params.plain_modulus().value();
            let chain = params.chain_at(params.max_level());
            let (q, qv) = (chain.modulus(0), chain.big_q() as u64);
            if chain.limbs() != 1 || t as u128 * qv as u128 + qv as u128 / 2 >= 1 << 64 {
                continue;
            }
            let mut phase = vec![0, 1, qv / 2, qv / 2 + 1, qv - 1];
            for k in 1..=t as u128 {
                let step = ((k * qv as u128).saturating_sub(qv as u128 / 2)).div_ceil(t as u128);
                phase.extend([step as u64 - 1, step as u64].map(|c| c.min(qv - 1)));
            }
            phase.extend((0..4096u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) % qv));
            let expect: Vec<u64> = phase
                .iter()
                .map(|&c| {
                    ((t as u128 * c as u128 + qv as u128 / 2) / qv as u128 % t as u128) as u64
                })
                .collect();
            assert_eq!(round_one_limb(&phase, t, q), expect, "q = {qv}, t = {t}");
            checked += 1;
        }
        assert_eq!(
            checked, 3,
            "the last limbs of rns_2x30, rns_3x36, hybrid_2x36"
        );
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let (_, encoder, mut enc, dec) = setup(2048);
        let values: Vec<u64> = (0..2048u64).map(|i| i * 31 % 65537).collect();
        let pt = encoder.encode(&values).unwrap();
        let ct = enc.encrypt(&pt).unwrap();
        let out = dec.decrypt_checked(&ct).unwrap();
        assert_eq!(encoder.decode(&out), encoder.decode(&pt));
    }

    #[test]
    fn multi_limb_encrypt_decrypt_roundtrip() {
        for params in [
            BfvParams::preset_rns_2x30(4096).unwrap(),
            BfvParams::preset_rns_3x36(4096).unwrap(),
        ] {
            let limbs = params.limbs();
            let (_, encoder, mut enc, dec) = setup_with(params);
            let values: Vec<u64> = (0..4096u64).map(|i| i * 31 % 65537).collect();
            let pt = encoder.encode(&values).unwrap();
            let ct = enc.encrypt(&pt).unwrap();
            assert_eq!(ct.limbs(), limbs);
            let out = dec.decrypt_checked(&ct).unwrap();
            assert_eq!(encoder.decode(&out), encoder.decode(&pt), "limbs={limbs}");
        }
    }

    #[test]
    fn deeper_chains_have_deeper_budgets() {
        let (_, enc1, mut e1, d1) = setup_with(BfvParams::preset_single_60(4096).unwrap());
        let (_, _, mut e3, d3) = setup_with(BfvParams::preset_rns_3x36(4096).unwrap());
        let pt1 = enc1.encode(&[1, 2, 3]).unwrap();
        let b1 = d1
            .invariant_noise_budget(&e1.encrypt(&pt1).unwrap())
            .unwrap();
        let enc3 = BatchEncoder::new(d3.params().clone());
        let pt3 = enc3.encode(&[1, 2, 3]).unwrap();
        let b3 = d3
            .invariant_noise_budget(&e3.encrypt(&pt3).unwrap())
            .unwrap();
        // 108-bit Q vs 60-bit Q: ~48 extra bits of budget.
        assert!(b3 > b1 + 40.0, "single {b1:.1} vs 3x36 {b3:.1}");
    }

    #[test]
    fn symmetric_encryption_roundtrip_with_less_noise() {
        let params = BfvParams::builder()
            .degree(2048)
            .plain_bits(16)
            .moduli_bits(&[54])
            .build()
            .unwrap();
        let mut kg = KeyGenerator::from_seed(params.clone(), 5);
        let pk = kg.public_key().unwrap();
        let dec = Decryptor::new(kg.secret_key().clone());
        let encoder = BatchEncoder::new(params.clone());
        let pt = encoder.encode(&[1, 2, 3]).unwrap();

        let mut enc_pk = Encryptor::from_public_key(pk, 8);
        let mut enc_sk = Encryptor::from_secret_key(kg.secret_key().clone(), 9);
        let ct_pk = enc_pk.encrypt(&pt).unwrap();
        let ct_sk = enc_sk.encrypt(&pt).unwrap();
        assert_eq!(
            encoder.decode(&dec.decrypt(&ct_sk).unwrap())[..3],
            [1, 2, 3]
        );
        let noise_pk = dec.invariant_noise(&ct_pk).unwrap();
        let noise_sk = dec.invariant_noise(&ct_sk).unwrap();
        assert!(noise_sk <= noise_pk, "sk {noise_sk} vs pk {noise_pk}");
    }

    #[test]
    fn seeded_encryption_roundtrips_and_seed_regenerates_c1() {
        for params in [
            BfvParams::preset_single_60(4096).unwrap(),
            BfvParams::preset_rns_3x36(4096).unwrap(),
        ] {
            let kg = KeyGenerator::from_seed(params.clone(), 13);
            let dec = Decryptor::new(kg.secret_key().clone());
            let encoder = BatchEncoder::new(params.clone());
            let pt = encoder.encode(&[9, 8, 7]).unwrap();
            let mut enc = Encryptor::from_secret_key(kg.secret_key().clone(), 14);
            let (ct, seed) = enc.encrypt_seeded(&pt).unwrap();
            // The seed is the c1: re-expansion must match bit-for-bit.
            let a = crate::sampling::expand_uniform(seed, params.chain());
            assert_eq!(ct.c1(), &a);
            assert_eq!(
                encoder.decode(&dec.decrypt_checked(&ct).unwrap())[..3],
                [9, 8, 7]
            );
            // Two seeded encryptions draw distinct seeds.
            let (_, seed2) = enc.encrypt_seeded(&pt).unwrap();
            assert_ne!(seed, seed2);
            // At every level: the level's limbs only, c1 the seed's
            // expansion over the level's chain, and the same plaintext
            // back wherever the fresh estimate promises it.
            for level in 0..params.levels() {
                let (ct, seed) = enc.encrypt_seeded_at(&pt, level).unwrap();
                assert_eq!(ct.level(), level);
                let a = crate::sampling::expand_uniform(seed, params.chain_at(level));
                assert_eq!(ct.c1(), &a);
                if ct.noise().bound_log2 < params.noise_ceiling_at(level).log2() {
                    assert_eq!(
                        encoder.decode(&dec.decrypt_checked(&ct).unwrap())[..3],
                        [9, 8, 7]
                    );
                }
            }
            assert!(matches!(
                enc.encrypt_seeded_at(&pt, params.levels()),
                Err(Error::InvalidLevel { .. })
            ));
        }
    }

    #[test]
    fn seeded_encryption_rejected_without_secret_key() {
        let (_, encoder, mut enc, _) = setup(2048);
        let pt = encoder.encode(&[1]).unwrap();
        assert!(matches!(
            enc.encrypt_seeded(&pt),
            Err(Error::Unsupported(_))
        ));
    }

    #[test]
    fn measured_noise_below_model_bound() {
        let (params, encoder, mut enc, dec) = setup(2048);
        let pt = encoder.encode(&[42; 100]).unwrap();
        let ct = enc.encrypt(&pt).unwrap();
        let measured = dec.invariant_noise(&ct).unwrap() as f64;
        let bound = ct.noise().bound_log2.exp2();
        assert!(measured > 0.0);
        assert!(measured <= bound, "measured {measured} > bound {bound}");
        // The budget should be large for a fresh ciphertext.
        let budget = dec.invariant_noise_budget(&ct).unwrap();
        assert!(budget > 20.0, "budget {budget}");
        assert!(budget <= params.noise_ceiling_at(0).log2());
    }

    #[test]
    fn mismatched_params_rejected() {
        let (_, encoder, _, _) = setup(2048);
        let (_, _, mut enc4096, dec4096) = setup(4096);
        let pt = encoder.encode(&[1]).unwrap();
        assert!(matches!(
            enc4096.encrypt(&pt),
            Err(Error::ParameterMismatch)
        ));
        let pt4096 = BatchEncoder::new(dec4096.params().clone())
            .encode(&[1])
            .unwrap();
        let ct = enc4096.encrypt(&pt4096).unwrap();
        let (_, _, _, dec2048) = setup(2048);
        assert!(matches!(
            dec2048.decrypt(&ct),
            Err(Error::ParameterMismatch)
        ));
    }
}
