//! Negacyclic Number Theoretic Transform over `Z_q[x]/(x^n + 1)`.
//!
//! Implements the Longa–Naehrig formulation used by SEAL: a decimation-in-time
//! forward transform with bit-reverse-scrambled twiddle factors and a
//! Gentleman–Sande inverse, both built from Harvey's lazy butterfly
//! (three integer multiplications per butterfly — the constant the Cheetah
//! performance model charges per butterfly, §IV-A).
//!
//! The forward transform maps natural-order coefficients to *bit-reversed*
//! evaluation order: after `forward`, array index `j` holds the evaluation of
//! the polynomial at `ψ^(2·brv(j)+1)` where `ψ` is a primitive `2n`-th root of
//! unity. The inverse consumes that layout and returns natural-order
//! coefficients. Keeping this layout end-to-end means no explicit bit-reversal
//! pass is ever needed, and it is the layout assumed by
//! [`crate::encoder::BatchEncoder`] and the Galois slot permutations.
//!
//! The butterfly loops themselves live in [`crate::simd`] and are selected
//! per thread (scalar reference / portable lanes / AVX2 lanes / the
//! AVX-512 IFMA kernel — bit-identical by contract). Twiddles are stored
//! **struct-of-arrays** — separate `operand` and Shoup-`quotient` planes —
//! so vector kernels load each side contiguously instead of striding
//! through `(op, quo)` pairs.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use crate::arith::{bit_reverse, primitive_root_2n, Modulus, ShoupPrecomp, MAX_NTT_MODULUS_BITS};
use crate::error::{Error, Result};
use crate::simd;

/// Precomputed tables for the negacyclic NTT of a fixed degree and modulus.
///
/// # Examples
///
/// ```
/// use cheetah_bfv::arith::{generate_ntt_prime, Modulus};
/// use cheetah_bfv::ntt::NttTable;
///
/// # fn main() -> Result<(), cheetah_bfv::Error> {
/// let n = 1024;
/// let q = Modulus::new(generate_ntt_prime(30, n)?)?;
/// let table = NttTable::new(n, q)?;
/// let mut a = vec![0u64; n];
/// a[1] = 5; // the polynomial 5x
/// let original = a.clone();
/// table.forward(&mut a);
/// table.inverse(&mut a);
/// assert_eq!(a, original);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NttTable {
    n: usize,
    log_n: u32,
    q: Modulus,
    /// `psi_rev_op[i] = ψ^{brv(i, log n)}` (struct-of-arrays: operands and
    /// Shoup quotients in separate planes for contiguous lane loads).
    psi_rev_op: Vec<u64>,
    /// Shoup quotients `floor(psi_rev_op[i]·2^64 / q)`.
    psi_rev_quo: Vec<u64>,
    /// `psi_inv_rev_op[i] = ψ^{-brv(i, log n)}`.
    psi_inv_rev_op: Vec<u64>,
    /// Shoup quotients for the inverse twiddles.
    psi_inv_rev_quo: Vec<u64>,
    /// `n^{-1} mod q`, applied at the end of the inverse transform.
    n_inv: ShoupPrecomp,
    /// The primitive 2n-th root of unity used to build the tables.
    psi: u64,
}

impl NttTable {
    /// Builds NTT tables for degree `n` (a power of two ≥ 8) and prime
    /// modulus `q ≡ 1 (mod 2n)`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidDegree`] unless `n` is a power of two ≥ 8,
    /// [`Error::InvalidModulus`] if `q ≥ 2^61` (the lazy Harvey butterfly
    /// accumulates `x + 2q - u < 4q` in a `u64`; see
    /// [`MAX_NTT_MODULUS_BITS`]), and an error if `q` admits no primitive
    /// `2n`-th root of unity or if `n` is not invertible mod `q`.
    pub fn new(n: usize, q: Modulus) -> Result<Self> {
        if !n.is_power_of_two() || n < 8 {
            return Err(Error::InvalidDegree(n));
        }
        if q.value() >> MAX_NTT_MODULUS_BITS != 0 {
            return Err(Error::InvalidModulus(q.value()));
        }
        let log_n = n.trailing_zeros();
        let psi = primitive_root_2n(&q, n)?;
        let psi_inv = q.inv_mod(psi)?;

        let mut psi_rev_op = Vec::with_capacity(n);
        let mut psi_rev_quo = Vec::with_capacity(n);
        let mut psi_inv_rev_op = Vec::with_capacity(n);
        let mut psi_inv_rev_quo = Vec::with_capacity(n);
        // Powers in natural order first, then scramble.
        let mut pow = 1u64;
        let mut pow_inv = 1u64;
        let mut powers = vec![0u64; n];
        let mut powers_inv = vec![0u64; n];
        for i in 0..n {
            powers[i] = pow;
            powers_inv[i] = pow_inv;
            pow = q.mul_mod(pow, psi);
            pow_inv = q.mul_mod(pow_inv, psi_inv);
        }
        for i in 0..n {
            let r = bit_reverse(i, log_n);
            let fwd = ShoupPrecomp::new(powers[r], &q);
            psi_rev_op.push(fwd.operand);
            psi_rev_quo.push(fwd.quotient);
            let inv = ShoupPrecomp::new(powers_inv[r], &q);
            psi_inv_rev_op.push(inv.operand);
            psi_inv_rev_quo.push(inv.quotient);
        }
        let n_inv = ShoupPrecomp::new(q.inv_mod(n as u64)?, &q);
        Ok(Self {
            n,
            log_n,
            q,
            psi_rev_op,
            psi_rev_quo,
            psi_inv_rev_op,
            psi_inv_rev_quo,
            n_inv,
            psi,
        })
    }

    /// Memoized variant of [`NttTable::new`]: tables are cached per
    /// `(modulus, n)` process-wide, so multi-limb parameter sets (and
    /// repeated [`crate::params::BfvParams`] builds over the same primes)
    /// pay the `O(n)` root-power precompute once and share one allocation.
    ///
    /// # Errors
    ///
    /// Same conditions as [`NttTable::new`]; failures are not cached.
    pub fn cached(n: usize, q: Modulus) -> Result<Arc<Self>> {
        type TableCache = Mutex<HashMap<(u64, usize), Arc<NttTable>>>;
        static CACHE: OnceLock<TableCache> = OnceLock::new();
        let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
        if let Some(t) = cache.lock().expect("ntt cache").get(&(q.value(), n)) {
            return Ok(Arc::clone(t));
        }
        // Build outside the lock: construction is the expensive part.
        let table = Arc::new(Self::new(n, q)?);
        let mut guard = cache.lock().expect("ntt cache");
        let entry = guard
            .entry((q.value(), n))
            .or_insert_with(|| Arc::clone(&table));
        Ok(Arc::clone(entry))
    }

    /// Polynomial degree `n`.
    #[inline]
    pub fn degree(&self) -> usize {
        self.n
    }

    /// `log2(n)`.
    #[inline]
    pub fn log_degree(&self) -> u32 {
        self.log_n
    }

    /// The coefficient modulus.
    #[inline]
    pub fn modulus(&self) -> &Modulus {
        &self.q
    }

    /// The primitive `2n`-th root of unity backing the tables.
    #[inline]
    pub fn psi(&self) -> u64 {
        self.psi
    }

    /// Number of Harvey butterflies per transform: `(n/2)·log2(n)`.
    ///
    /// Each butterfly costs three integer multiplications in the paper's
    /// cost model (§IV-A).
    #[inline]
    pub fn butterflies(&self) -> u64 {
        (self.n as u64 / 2) * self.log_n as u64
    }

    /// In-place forward negacyclic NTT (natural → bit-reversed order).
    ///
    /// # Errors
    ///
    /// Returns [`Error::ParameterMismatch`] if `a.len() != n`.
    pub fn try_forward(&self, a: &mut [u64]) -> Result<()> {
        if a.len() != self.n {
            return Err(Error::ParameterMismatch);
        }
        simd::ntt_forward(a, &self.psi_rev_op, &self.psi_rev_quo, self.q.value());
        Ok(())
    }

    /// In-place forward negacyclic NTT (natural → bit-reversed order).
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n` — internal call sites guarantee the shape
    /// by construction; boundary code should use [`NttTable::try_forward`].
    pub fn forward(&self, a: &mut [u64]) {
        self.try_forward(a)
            .expect("input length must equal the degree");
    }

    /// In-place inverse negacyclic NTT (bit-reversed → natural order),
    /// including the `n^{-1}` scaling.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ParameterMismatch`] if `a.len() != n`.
    pub fn try_inverse(&self, a: &mut [u64]) -> Result<()> {
        if a.len() != self.n {
            return Err(Error::ParameterMismatch);
        }
        simd::ntt_inverse(
            a,
            &self.psi_inv_rev_op,
            &self.psi_inv_rev_quo,
            self.q.value(),
            self.n_inv.operand,
            self.n_inv.quotient,
        );
        Ok(())
    }

    /// In-place inverse negacyclic NTT (bit-reversed → natural order),
    /// including the `n^{-1}` scaling.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n` — internal call sites guarantee the shape
    /// by construction; boundary code should use [`NttTable::try_inverse`].
    pub fn inverse(&self, a: &mut [u64]) {
        self.try_inverse(a)
            .expect("input length must equal the degree");
    }

    /// Builds the slot permutation realizing the Galois automorphism
    /// `x -> x^g` directly on NTT-form (bit-reversed evaluation) data.
    ///
    /// `result[j] = source index whose value moves to position j`, i.e.
    /// `b_ntt[j] = a_ntt[perm[j]]`. Applying the automorphism in evaluation
    /// form is a pure permutation — no multiplications — which is why the
    /// paper's rotate cost model only charges the key-switch NTTs.
    ///
    /// # Panics
    ///
    /// Panics if `g` is even (automorphisms of `x^n + 1` need odd
    /// exponents); boundary code should use
    /// [`NttTable::try_galois_permutation`].
    pub fn galois_permutation(&self, g: u64) -> Vec<u32> {
        self.try_galois_permutation(g)
            .expect("Galois element must be odd")
    }

    /// [`NttTable::galois_permutation`] with the structural check as a
    /// typed error.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidGaloisElement`] if `g` is even.
    pub fn try_galois_permutation(&self, g: u64) -> Result<Vec<u32>> {
        if g.is_multiple_of(2) {
            return Err(Error::InvalidGaloisElement(g));
        }
        let n = self.n;
        // `m = 2n` is a power of two: reducing mod `m` keeps the low bits,
        // which a wrapping product has right whatever `g`.
        let mask = 2 * n as u64 - 1;
        let mut perm = vec![0u32; n];
        for (j, slot) in perm.iter_mut().enumerate() {
            let e = 2 * bit_reverse(j, self.log_n) as u64 + 1;
            let e_src = e.wrapping_mul(g) & mask;
            let j_src = bit_reverse(((e_src - 1) / 2) as usize, self.log_n);
            *slot = j_src as u32;
        }
        Ok(perm)
    }

    /// Applies the Galois automorphism `x -> x^g` to a polynomial in
    /// *coefficient* form: coefficient `a_i` moves to `x^{i·g mod 2n}` with a
    /// sign flip whenever the exponent wraps past `n`.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n` or `g` is even; boundary code should use
    /// [`NttTable::try_apply_galois_coeff`].
    pub fn apply_galois_coeff(&self, a: &[u64], g: u64) -> Vec<u64> {
        self.try_apply_galois_coeff(a, g)
            .expect("length must equal the degree and the Galois element must be odd")
    }

    /// [`NttTable::apply_galois_coeff`] with the structural checks as
    /// typed errors.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ParameterMismatch`] if `a.len() != n` and
    /// [`Error::InvalidGaloisElement`] if `g` is even.
    pub fn try_apply_galois_coeff(&self, a: &[u64], g: u64) -> Result<Vec<u64>> {
        if a.len() != self.n {
            return Err(Error::ParameterMismatch);
        }
        if g.is_multiple_of(2) {
            return Err(Error::InvalidGaloisElement(g));
        }
        let n = self.n as u64;
        let m = 2 * n;
        let mut out = vec![0u64; self.n];
        for (i, &coeff) in a.iter().enumerate() {
            let e = (i as u64 * g) % m;
            if e < n {
                out[e as usize] = coeff;
            } else {
                out[(e - n) as usize] = self.q.neg_mod(coeff);
            }
        }
        Ok(out)
    }
}

/// Schoolbook negacyclic multiplication, `O(n^2)` — reference for testing.
pub fn negacyclic_mul_naive(a: &[u64], b: &[u64], q: &Modulus) -> Vec<u64> {
    let n = a.len();
    assert_eq!(b.len(), n);
    let mut out = vec![0u64; n];
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        for (j, &bj) in b.iter().enumerate() {
            let p = q.mul_mod(ai, bj);
            let k = i + j;
            if k < n {
                out[k] = q.add_mod(out[k], p);
            } else {
                out[k - n] = q.sub_mod(out[k - n], p);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arith::generate_ntt_prime;
    use rand::{Rng, SeedableRng};

    fn table(n: usize, bits: u32) -> NttTable {
        let q = Modulus::new(generate_ntt_prime(bits, n).unwrap()).unwrap();
        NttTable::new(n, q).unwrap()
    }

    #[test]
    fn roundtrip_identity() {
        let t = table(64, 30);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let a: Vec<u64> = (0..64)
            .map(|_| rng.random_range(0..t.modulus().value()))
            .collect();
        let mut b = a.clone();
        t.forward(&mut b);
        t.inverse(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn roundtrip_large_degree_and_modulus() {
        let t = table(4096, 60);
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let a: Vec<u64> = (0..4096)
            .map(|_| rng.random_range(0..t.modulus().value()))
            .collect();
        let mut b = a.clone();
        t.forward(&mut b);
        assert_ne!(a, b, "transform should not be identity");
        t.inverse(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn pointwise_mult_is_negacyclic_convolution() {
        let t = table(32, 30);
        let q = *t.modulus();
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let a: Vec<u64> = (0..32).map(|_| rng.random_range(0..q.value())).collect();
        let b: Vec<u64> = (0..32).map(|_| rng.random_range(0..q.value())).collect();
        let expect = negacyclic_mul_naive(&a, &b, &q);

        let mut fa = a.clone();
        let mut fb = b.clone();
        t.forward(&mut fa);
        t.forward(&mut fb);
        let mut fc: Vec<u64> = fa.iter().zip(&fb).map(|(&x, &y)| q.mul_mod(x, y)).collect();
        t.inverse(&mut fc);
        assert_eq!(fc, expect);
    }

    #[test]
    fn x_times_x_wraps_negatively() {
        // (x^(n-1)) * x = x^n = -1 mod (x^n + 1).
        let t = table(16, 30);
        let q = *t.modulus();
        let mut a = vec![0u64; 16];
        a[15] = 1;
        let mut b = vec![0u64; 16];
        b[1] = 1;
        let c = negacyclic_mul_naive(&a, &b, &q);
        assert_eq!(c[0], q.value() - 1);

        let mut fa = a.clone();
        let mut fb = b.clone();
        t.forward(&mut fa);
        t.forward(&mut fb);
        let mut fc: Vec<u64> = fa.iter().zip(&fb).map(|(&x, &y)| q.mul_mod(x, y)).collect();
        t.inverse(&mut fc);
        assert_eq!(fc, c);
    }

    #[test]
    fn forward_evaluates_at_odd_root_powers() {
        // Check the documented layout: index j holds a(ψ^(2·brv(j)+1)).
        let t = table(16, 30);
        let q = *t.modulus();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let a: Vec<u64> = (0..16).map(|_| rng.random_range(0..q.value())).collect();
        let mut f = a.clone();
        t.forward(&mut f);
        for (j, &fj) in f.iter().enumerate() {
            let e = 2 * bit_reverse(j, t.log_degree()) as u64 + 1;
            let point = q.pow_mod(t.psi(), e);
            let mut eval = 0u64;
            for &c in a.iter().rev() {
                eval = q.add_mod(q.mul_mod(eval, point), c);
            }
            assert_eq!(fj, eval, "slot {j}");
        }
    }

    #[test]
    fn galois_coeff_vs_ntt_permutation_agree() {
        let t = table(32, 30);
        let q = *t.modulus();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let a: Vec<u64> = (0..32).map(|_| rng.random_range(0..q.value())).collect();
        for g in [3u64, 9, 63, 5] {
            // Path 1: automorphism in coefficient form, then NTT.
            let mut path1 = t.apply_galois_coeff(&a, g);
            t.forward(&mut path1);
            // Path 2: NTT, then permutation.
            let mut fa = a.clone();
            t.forward(&mut fa);
            let perm = t.galois_permutation(g);
            let path2: Vec<u64> = (0..32).map(|j| fa[perm[j] as usize]).collect();
            assert_eq!(path1, path2, "galois element {g}");
        }
    }

    #[test]
    fn galois_identity_element() {
        let t = table(16, 30);
        let perm = t.galois_permutation(1);
        for (j, &p) in perm.iter().enumerate() {
            assert_eq!(p as usize, j);
        }
    }

    #[test]
    fn butterfly_count_matches_formula() {
        let t = table(1024, 30);
        assert_eq!(t.butterflies(), 512 * 10);
    }

    #[test]
    fn cached_tables_are_shared_per_modulus_and_degree() {
        let q = Modulus::new(generate_ntt_prime(30, 512).unwrap()).unwrap();
        let a = NttTable::cached(512, q).unwrap();
        let b = NttTable::cached(512, q).unwrap();
        assert!(std::sync::Arc::ptr_eq(&a, &b), "same (q, n) must share");
        let q2 = Modulus::new(generate_ntt_prime(31, 512).unwrap()).unwrap();
        let c = NttTable::cached(512, q2).unwrap();
        assert!(!std::sync::Arc::ptr_eq(&a, &c), "different q must not");
    }

    #[test]
    fn rejects_overwide_modulus_with_typed_error() {
        // 0x3fff_ffff_e800_0001 is a valid 62-bit raw `Modulus` (Barrett
        // arithmetic is fine with it) but exceeds the 2^61 NTT-limb cap:
        // the Harvey butterfly's x + 2q - u accumulation needs headroom.
        let q = Modulus::new(0x3fff_ffff_e800_0001).unwrap();
        assert!(matches!(
            NttTable::new(4096, q),
            Err(crate::error::Error::InvalidModulus(0x3fff_ffff_e800_0001))
        ));
        // The widest admissible limb (61 bits) still builds.
        let p61 = crate::arith::generate_prime_congruent(61, 2 * 4096).unwrap();
        assert!(NttTable::new(4096, Modulus::new(p61).unwrap()).is_ok());
    }

    #[test]
    fn rejects_bad_degree_with_typed_error() {
        let q = Modulus::new(generate_ntt_prime(30, 8).unwrap()).unwrap();
        for n in [0usize, 4, 12, 100] {
            assert!(
                matches!(
                    NttTable::new(n, q),
                    Err(crate::error::Error::InvalidDegree(bad)) if bad == n
                ),
                "n = {n}"
            );
        }
    }

    #[test]
    fn wrong_length_input_is_a_typed_error() {
        let t = table(64, 30);
        let mut short = vec![0u64; 32];
        assert!(matches!(
            t.try_forward(&mut short),
            Err(crate::error::Error::ParameterMismatch)
        ));
        assert!(matches!(
            t.try_inverse(&mut short),
            Err(crate::error::Error::ParameterMismatch)
        ));
        let mut ok = vec![0u64; 64];
        assert!(t.try_forward(&mut ok).is_ok());
        assert!(t.try_inverse(&mut ok).is_ok());
    }

    #[test]
    fn even_galois_element_is_a_typed_error() {
        let t = table(32, 30);
        assert!(matches!(
            t.try_galois_permutation(6),
            Err(crate::error::Error::InvalidGaloisElement(6))
        ));
        let a = vec![0u64; 32];
        assert!(matches!(
            t.try_apply_galois_coeff(&a, 4),
            Err(crate::error::Error::InvalidGaloisElement(4))
        ));
        assert!(matches!(
            t.try_apply_galois_coeff(&a[..7], 3),
            Err(crate::error::Error::ParameterMismatch)
        ));
    }

    #[test]
    fn backends_transform_bit_identically() {
        use crate::simd::{current_backend, detect, force_backend, SimdBackend};
        // Forward and inverse on every backend this build can run must
        // equal the pinned scalar reference byte-for-byte. Degree 64 makes
        // the small-t butterfly stages (t < LANES; the IFMA kernel's
        // in-register ones) a large fraction of the work; 60-bit q
        // exercises the top of the headroom range, 49-bit the top of the
        // IFMA kernel's.
        for (n, bits) in [(64usize, 30u32), (256, 60), (4096, 59), (4096, 49)] {
            let t = table(n, bits);
            let mut rng = rand::rngs::StdRng::seed_from_u64(n as u64 ^ 0xD15);
            let a: Vec<u64> = (0..n)
                .map(|_| rng.random_range(0..t.modulus().value()))
                .collect();
            force_backend(Some(SimdBackend::Scalar));
            let mut fwd_ref = a.clone();
            t.forward(&mut fwd_ref);
            let mut inv_ref = fwd_ref.clone();
            t.inverse(&mut inv_ref);
            assert_eq!(inv_ref, a);
            for backend in [
                SimdBackend::Portable,
                SimdBackend::Avx2,
                SimdBackend::Avx512Ifma,
            ] {
                let eff = force_backend(Some(backend));
                if eff != backend {
                    continue; // not runnable in this build/CPU
                }
                let mut fwd = a.clone();
                t.forward(&mut fwd);
                assert_eq!(fwd, fwd_ref, "{} forward n={n}", backend.name());
                let mut inv = fwd.clone();
                t.inverse(&mut inv);
                assert_eq!(inv, a, "{} inverse n={n}", backend.name());
            }
            force_backend(None);
            assert_eq!(current_backend(), detect());
        }
    }
}
