//! Polynomials in `Z_q[x]/(x^n + 1)` with explicit representation tracking.
//!
//! A [`Poly`] is always in one of two representations:
//!
//! * [`Representation::Coeff`] — the coefficient vector of the polynomial;
//! * [`Representation::Eval`] — pointwise evaluations in the NTT domain
//!   (bit-reversed order, see [`crate::ntt::NttTable`]).
//!
//! Cheetah keeps ciphertext polynomials in `Eval` form by default and drops
//! to `Coeff` only for decomposition and decryption (§III-B), so the type
//! tracks the representation and operations check it, turning latent domain
//! mix-ups into immediate errors.

use crate::arith::Modulus;
use crate::error::{Error, Result};
use crate::ntt::NttTable;
use crate::simd;

// ---------------------------------------------------------------------
// Slice-level kernels, shared by `Poly` (single modulus) and
// `crate::rns::RnsPoly` (invoked once per limb plane). These are the
// element-wise loops everything in the engine bottoms out in; the actual
// loop bodies live in `crate::simd`, which dispatches per thread between
// the pinned scalar reference and the lane backends (bit-identical by
// contract).
// ---------------------------------------------------------------------

pub(crate) fn add_assign_slice(a: &mut [u64], b: &[u64], q: &Modulus) {
    simd::add_assign(a, b, q);
}

pub(crate) fn sub_assign_slice(a: &mut [u64], b: &[u64], q: &Modulus) {
    simd::sub_assign(a, b, q);
}

pub(crate) fn negate_slice(a: &mut [u64], q: &Modulus) {
    simd::negate(a, q);
}

pub(crate) fn mul_pointwise_slice(a: &mut [u64], b: &[u64], q: &Modulus) {
    simd::mul_pointwise(a, b, q);
}

pub(crate) fn mul_scalar_slice(a: &mut [u64], c: u64, q: &Modulus) {
    simd::mul_scalar(a, c, q);
}

pub(crate) fn fma_pointwise_slice(r: &mut [u64], a: &[u64], b: &[u64], q: &Modulus) {
    simd::fma_pointwise(r, a, b, q);
}

pub(crate) fn permute_slice(dst: &mut [u64], src: &[u64], perm: &[u32]) {
    for (d, &i) in dst.iter_mut().zip(perm) {
        *d = src[i as usize];
    }
}

/// Which domain a [`Poly`]'s data lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Representation {
    /// Coefficient form.
    Coeff,
    /// NTT (evaluation) form, bit-reversed order.
    Eval,
}

impl Representation {
    fn name(self) -> &'static str {
        match self {
            Representation::Coeff => "coefficient",
            Representation::Eval => "evaluation",
        }
    }
}

/// A polynomial in `Z_q[x]/(x^n + 1)`.
///
/// All arithmetic requires both operands to share the modulus and the
/// representation; use [`Poly::to_eval`] / [`Poly::to_coeff`] to convert.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Poly {
    data: Vec<u64>,
    repr: Representation,
}

impl Poly {
    /// The zero polynomial of degree `n` in the given representation.
    pub fn zero(n: usize, repr: Representation) -> Self {
        Self {
            data: vec![0; n],
            repr,
        }
    }

    /// Wraps raw residues (must already be reduced mod `q`).
    pub fn from_data(data: Vec<u64>, repr: Representation) -> Self {
        Self { data, repr }
    }

    /// Builds a coefficient-form polynomial from signed coefficients.
    pub fn from_signed(coeffs: &[i64], q: &Modulus) -> Self {
        Self {
            data: coeffs.iter().map(|&c| q.from_signed(c)).collect(),
            repr: Representation::Coeff,
        }
    }

    /// Degree bound `n` (the ring dimension, not the mathematical degree).
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the polynomial has zero length (degenerate; normally false).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Current representation.
    #[inline]
    pub fn representation(&self) -> Representation {
        self.repr
    }

    /// Raw residues.
    #[inline]
    pub fn data(&self) -> &[u64] {
        &self.data
    }

    /// Mutable raw residues. Callers must keep values reduced.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [u64] {
        &mut self.data
    }

    /// Consumes the polynomial, returning its residues.
    pub fn into_data(self) -> Vec<u64> {
        self.data
    }

    /// Overwrites the representation tag without touching the residues.
    ///
    /// This is the escape hatch the scratch-reuse hot path needs to recycle
    /// a buffer across domains; callers must ensure the data actually is in
    /// the claimed representation, exactly as with [`Poly::from_data`].
    #[inline]
    pub fn set_representation(&mut self, repr: Representation) {
        self.repr = repr;
    }

    /// Copies residues and representation from `other` without reallocating
    /// (the derived `Clone` cannot reuse the destination buffer).
    ///
    /// # Panics
    ///
    /// Panics on a length mismatch.
    pub fn copy_from(&mut self, other: &Poly) {
        self.data.copy_from_slice(&other.data);
        self.repr = other.repr;
    }

    /// Fills `self` with the permutation `self[j] = src[perm[j]]` — the
    /// evaluation-domain Galois automorphism — reusing this buffer.
    ///
    /// # Panics
    ///
    /// Panics on a length mismatch.
    pub fn permute_from(&mut self, src: &Poly, perm: &[u32]) {
        assert_eq!(self.data.len(), src.data.len());
        assert_eq!(perm.len(), src.data.len());
        permute_slice(&mut self.data, &src.data, perm);
        self.repr = src.repr;
    }

    /// Zeroes every residue in place, keeping the representation.
    pub fn fill_zero(&mut self) {
        self.data.fill(0);
    }

    /// Checks the representation, erroring otherwise.
    pub fn expect_repr(&self, expected: Representation) -> Result<()> {
        if self.repr != expected {
            return Err(Error::WrongRepresentation {
                expected: expected.name(),
                found: self.repr.name(),
            });
        }
        Ok(())
    }

    /// Converts to evaluation form in place (no-op if already there).
    pub fn to_eval(&mut self, table: &NttTable) {
        if self.repr == Representation::Coeff {
            table.forward(&mut self.data);
            self.repr = Representation::Eval;
        }
    }

    /// Converts to coefficient form in place (no-op if already there).
    pub fn to_coeff(&mut self, table: &NttTable) {
        if self.repr == Representation::Eval {
            table.inverse(&mut self.data);
            self.repr = Representation::Coeff;
        }
    }

    /// `self += other` (element-wise mod `q`); representations must match.
    ///
    /// # Errors
    ///
    /// Returns [`Error::WrongRepresentation`] on a representation mismatch
    /// and [`Error::ParameterMismatch`] on a length mismatch.
    pub fn add_assign(&mut self, other: &Poly, q: &Modulus) -> Result<()> {
        other.expect_repr(self.repr)?;
        if self.len() != other.len() {
            return Err(Error::ParameterMismatch);
        }
        add_assign_slice(&mut self.data, &other.data, q);
        Ok(())
    }

    /// `self -= other` (element-wise mod `q`); representations must match.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Poly::add_assign`].
    pub fn sub_assign(&mut self, other: &Poly, q: &Modulus) -> Result<()> {
        other.expect_repr(self.repr)?;
        if self.len() != other.len() {
            return Err(Error::ParameterMismatch);
        }
        sub_assign_slice(&mut self.data, &other.data, q);
        Ok(())
    }

    /// Negates every residue in place.
    pub fn negate(&mut self, q: &Modulus) {
        negate_slice(&mut self.data, q);
    }

    /// `self *= other` pointwise; both must be in evaluation form.
    ///
    /// # Errors
    ///
    /// Returns [`Error::WrongRepresentation`] unless both operands are in
    /// evaluation form, or [`Error::ParameterMismatch`] on length mismatch.
    pub fn mul_assign_pointwise(&mut self, other: &Poly, q: &Modulus) -> Result<()> {
        self.expect_repr(Representation::Eval)?;
        other.expect_repr(Representation::Eval)?;
        if self.len() != other.len() {
            return Err(Error::ParameterMismatch);
        }
        mul_pointwise_slice(&mut self.data, &other.data, q);
        Ok(())
    }

    /// Multiplies every residue by the scalar `c` mod `q`.
    pub fn mul_scalar(&mut self, c: u64, q: &Modulus) {
        mul_scalar_slice(&mut self.data, c, q);
    }

    /// Fused multiply-accumulate: `self += a * b` pointwise, all in
    /// evaluation form. This is the inner loop of key switching.
    ///
    /// # Errors
    ///
    /// Returns [`Error::WrongRepresentation`] unless all three polynomials
    /// are in evaluation form.
    pub fn fma_pointwise(&mut self, a: &Poly, b: &Poly, q: &Modulus) -> Result<()> {
        self.expect_repr(Representation::Eval)?;
        a.expect_repr(Representation::Eval)?;
        b.expect_repr(Representation::Eval)?;
        if self.len() != a.len() || self.len() != b.len() {
            return Err(Error::ParameterMismatch);
        }
        fma_pointwise_slice(&mut self.data, &a.data, &b.data, q);
        Ok(())
    }

    /// Largest centered absolute value of any coefficient
    /// (coefficient-form only; used for noise measurement).
    ///
    /// # Errors
    ///
    /// Returns [`Error::WrongRepresentation`] if in evaluation form.
    pub fn inf_norm_centered(&self, q: &Modulus) -> Result<u64> {
        self.expect_repr(Representation::Coeff)?;
        Ok(self
            .data
            .iter()
            .map(|&c| q.center(c).unsigned_abs())
            .max()
            .unwrap_or(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arith::generate_ntt_prime;
    use rand::{Rng, SeedableRng};

    fn setup(n: usize, bits: u32) -> (Modulus, NttTable) {
        let q = Modulus::new(generate_ntt_prime(bits, n).unwrap()).unwrap();
        let table = NttTable::new(n, q).unwrap();
        (q, table)
    }

    fn random_poly(n: usize, q: &Modulus, seed: u64) -> Poly {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Poly::from_data(
            (0..n).map(|_| rng.random_range(0..q.value())).collect(),
            Representation::Coeff,
        )
    }

    #[test]
    fn representation_mismatch_is_an_error() {
        let (q, table) = setup(16, 30);
        let mut a = random_poly(16, &q, 1);
        let mut b = random_poly(16, &q, 2);
        b.to_eval(&table);
        assert!(matches!(
            a.add_assign(&b, &q),
            Err(Error::WrongRepresentation { .. })
        ));
        assert!(matches!(
            a.mul_assign_pointwise(&b, &q),
            Err(Error::WrongRepresentation { .. })
        ));
    }

    #[test]
    fn add_then_sub_roundtrips() {
        let (q, _) = setup(32, 30);
        let mut a = random_poly(32, &q, 3);
        let orig = a.clone();
        let b = random_poly(32, &q, 4);
        a.add_assign(&b, &q).unwrap();
        a.sub_assign(&b, &q).unwrap();
        assert_eq!(a, orig);
    }

    #[test]
    fn negate_twice_is_identity() {
        let (q, _) = setup(32, 30);
        let mut a = random_poly(32, &q, 5);
        let orig = a.clone();
        a.negate(&q);
        a.negate(&q);
        assert_eq!(a, orig);
    }

    #[test]
    fn fma_matches_manual() {
        let (q, table) = setup(32, 30);
        let mut a = random_poly(32, &q, 8);
        let mut b = random_poly(32, &q, 9);
        a.to_eval(&table);
        b.to_eval(&table);
        let mut acc = Poly::zero(32, Representation::Eval);
        acc.fma_pointwise(&a, &b, &q).unwrap();
        let mut expect = a.clone();
        expect.mul_assign_pointwise(&b, &q).unwrap();
        assert_eq!(acc, expect);
    }

    #[test]
    fn inf_norm_centered_sees_negative_side() {
        let (q, _) = setup(16, 30);
        let mut a = Poly::zero(16, Representation::Coeff);
        a.data_mut()[0] = q.value() - 5; // centered: -5
        a.data_mut()[1] = 3;
        assert_eq!(a.inf_norm_centered(&q).unwrap(), 5);
    }

    #[test]
    fn eval_coeff_conversions_are_inverse() {
        let (q, table) = setup(64, 40);
        let a = random_poly(64, &q, 10);
        let mut b = a.clone();
        b.to_eval(&table);
        assert_eq!(b.representation(), Representation::Eval);
        b.to_eval(&table); // idempotent
        b.to_coeff(&table);
        assert_eq!(b, a);
    }
}
