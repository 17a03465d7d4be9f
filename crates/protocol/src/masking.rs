//! Client-side protocol arithmetic of the session halves in
//! `cheetah-serve`: the mod-`t` mask ring operations the simulated
//! garbled circuit computes, and the measured-noise decrypt gate every
//! client applies before trusting a download.

use cheetah_bfv::{BatchEncoder, Ciphertext, Decryptor, Error, Result};
use cheetah_nn::Tensor;

/// Measured-noise gate (bits) below which an incoming ciphertext is
/// rejected as [`Error::NoiseBudgetExhausted`]. The measurement is taken
/// against the *nearest* plaintext multiple, so truly-overflowed noise
/// collapses the budget to ≈ 0 while hovering slightly positive — a
/// strict-zero gate would wave garbage through (see
/// [`cheetah_bfv::Decryptor::invariant_noise_budget`]). The max of `n`
/// near-uniform residuals keeps garbage within ~0.001 bit of zero, while
/// healthy-but-marginal sessions measure well above half a bit, so half
/// a bit separates the two populations by orders of magnitude.
pub const MIN_DECRYPT_BUDGET_BITS: f64 = 0.5;

/// Decryption to signed slots, gated on the *measured* invariant noise
/// budget — the check that makes semantically corrupt but structurally
/// valid ciphertexts a typed [`Error::NoiseBudgetExhausted`] rather than
/// silent garbage.
///
/// # Errors
///
/// [`Error::NoiseBudgetExhausted`] when the measured budget is gone;
/// propagates BFV errors for mismatched parameters.
pub fn gated_decrypt_slots(
    decryptor: &Decryptor,
    encoder: &BatchEncoder,
    ct: &Ciphertext,
) -> Result<Vec<i64>> {
    if decryptor.invariant_noise_budget(ct)? < MIN_DECRYPT_BUDGET_BITS {
        return Err(Error::NoiseBudgetExhausted);
    }
    Ok(encoder.decode_signed(&decryptor.decrypt(ct)?))
}

/// `a - b` with wraparound mod `t`, re-centered. Exactly what the GC's
/// subtraction circuit computes on `t`-bit rings.
pub fn sub_mod_t(a: &Tensor, b: &Tensor, t: u64) -> Tensor {
    let t = t as i64;
    let data = a
        .data()
        .iter()
        .zip(b.data())
        .map(|(&x, &y)| center(x - y, t))
        .collect();
    Tensor::from_data(a.shape(), data)
}

/// `a + b` with wraparound mod `t`, re-centered.
pub fn add_mod_t(a: &Tensor, b: &Tensor, t: u64) -> Tensor {
    let t = t as i64;
    let data = a
        .data()
        .iter()
        .zip(b.data())
        .map(|(&x, &y)| center(x + y, t))
        .collect();
    Tensor::from_data(a.shape(), data)
}

/// Re-centers `v` into the symmetric interval around zero mod `t`.
pub fn center(v: i64, t: i64) -> i64 {
    let mut r = v.rem_euclid(t);
    if r > t / 2 {
        r -= t;
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_ring_round_trips() {
        let t = 101u64;
        let a = Tensor::from_data(&[4], vec![3, -50, 47, 0]);
        let r = Tensor::from_data(&[4], vec![50, 50, -50, 1]);
        let masked = add_mod_t(&a, &r, t);
        let back = sub_mod_t(&masked, &r, t);
        assert_eq!(back.data(), a.data());
        for &v in masked.data() {
            assert!(v.abs() <= 50, "masked value {v} left the centered ring");
        }
    }

    #[test]
    fn center_is_symmetric() {
        assert_eq!(center(51, 101), -50);
        assert_eq!(center(-51, 101), 50);
        assert_eq!(center(101, 101), 0);
        assert_eq!(center(50, 101), 50);
    }
}
