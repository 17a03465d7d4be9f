//! Batch (SIMD) encoding of integer vectors into plaintext polynomials.
//!
//! With `t` prime and `t ≡ 1 (mod 2n)`, the plaintext ring
//! `R_t = Z_t[x]/(x^n + 1)` splits into `n` independent slots (§III-B,
//! "Encoding (Packing) Data to Polynomial"). Each `HE_Add`/`HE_Mult` then
//! acts as an `n`-way SIMD operation — the packing that makes HE inference
//! tractable at all.
//!
//! Slots are arranged as a `2 × (n/2)` matrix: the Galois group of
//! `x^n + 1` is generated by `x ↦ x^3` (rotating within a row) and
//! `x ↦ x^{-1}` (swapping the two rows). [`BatchEncoder`] hides the
//! index bookkeeping; [`crate::evaluator::Evaluator::rotate_rows_into`] gives the
//! cyclic slot rotation the dot-product schedules of §V are built from.
//!
//! A [`Plaintext`] is just its coefficient vector mod `t`: encoding writes
//! the slot values at their evaluation points and runs the inverse NTT of
//! [`BfvParams::t_table`], decoding the forward one. Plaintexts built from
//! chosen coefficients instead of slots enter through
//! [`Plaintext::from_coeffs`], which checks the length and every residue.

use crate::arith::bit_reverse;
use crate::error::{Error, Result};
use crate::params::BfvParams;

/// A plaintext polynomial in `R_t`: its `n` coefficients mod `t`, lowest
/// first.
///
/// Produced by [`BatchEncoder::encode`] and by decryption; consumed by the
/// encryptor and by plaintext-ciphertext multiplication.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plaintext {
    coeffs: Vec<u64>,
    params: BfvParams,
}

impl Plaintext {
    /// Wraps `n` chosen coefficients mod `t`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Malformed`] unless there are exactly `n`
    /// coefficients, each below `t`.
    pub fn from_coeffs(coeffs: Vec<u64>, params: BfvParams) -> Result<Self> {
        let (n, t) = (params.degree(), params.plain_modulus().value());
        let reason = if coeffs.len() != n {
            format!("{} coefficients, expected {n}", coeffs.len())
        } else if let Some(j) = coeffs.iter().position(|&c| c >= t) {
            format!("coefficient {j} is {} ≥ t = {t}", coeffs[j])
        } else {
            return Ok(Self::canonical(coeffs, params));
        };
        Err(Error::Malformed {
            what: "plaintext",
            reason,
        })
    }

    /// Wraps coefficients the caller produced canonical (`n` of them, each
    /// reduced mod `t`): the encoder's and the decryptor's outputs.
    pub(crate) fn canonical(coeffs: Vec<u64>, params: BfvParams) -> Self {
        debug_assert_eq!(coeffs.len(), params.degree());
        Self { coeffs, params }
    }

    /// The `n` coefficients mod `t`.
    pub fn coeffs(&self) -> &[u64] {
        &self.coeffs
    }

    /// The parameter set this plaintext belongs to.
    pub fn params(&self) -> &BfvParams {
        &self.params
    }

    /// Largest centered coefficient magnitude — the `||pt||_∞` term in
    /// multiplication noise growth.
    pub fn inf_norm(&self) -> u64 {
        let t = self.params.plain_modulus();
        self.coeffs
            .iter()
            .map(|&c| t.center(c).unsigned_abs())
            .max()
            .unwrap_or(0)
    }
}

/// Encoder between integer vectors and plaintext polynomials.
///
/// # Examples
///
/// ```
/// use cheetah_bfv::params::BfvParams;
/// use cheetah_bfv::encoder::BatchEncoder;
///
/// # fn main() -> Result<(), cheetah_bfv::Error> {
/// let params = BfvParams::builder().degree(4096).build()?;
/// let encoder = BatchEncoder::new(params);
/// let values: Vec<u64> = (0..10).collect();
/// let pt = encoder.encode(&values)?;
/// let decoded = encoder.decode(&pt);
/// assert_eq!(&decoded[..10], &values[..]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BatchEncoder {
    params: BfvParams,
    /// `slot_to_pos[i]` = NTT-array position of logical slot `i`.
    slot_to_pos: Vec<u32>,
}

impl BatchEncoder {
    /// Builds the encoder (computes the slot ↔ NTT-position map).
    pub fn new(params: BfvParams) -> Self {
        let n = params.degree();
        let log_n = n.trailing_zeros();
        let m = 2 * n as u64;
        let row_size = n / 2;
        let mut slot_to_pos = vec![0u32; n];
        let mut pos: u64 = 1;
        for i in 0..row_size {
            // Row 0 slot i sits at evaluation point ζ^(3^i mod 2n);
            // row 1 at ζ^(-(3^i) mod 2n).
            let idx1 = ((pos - 1) / 2) as usize;
            let idx2 = ((m - pos - 1) / 2) as usize;
            slot_to_pos[i] = bit_reverse(idx1, log_n) as u32;
            slot_to_pos[row_size + i] = bit_reverse(idx2, log_n) as u32;
            pos = pos * 3 % m;
        }
        Self {
            params,
            slot_to_pos,
        }
    }

    /// The parameter set in use.
    pub fn params(&self) -> &BfvParams {
        &self.params
    }

    /// Total slot count (`n`).
    pub fn slots(&self) -> usize {
        self.params.slots()
    }

    /// Slots per row (`n/2`) — the rotation period of
    /// [`crate::evaluator::Evaluator::rotate_rows_into`].
    pub fn row_size(&self) -> usize {
        self.params.row_size()
    }

    /// Encodes up to `n` unsigned values (reduced mod `t`) into a plaintext.
    /// Missing trailing slots are zero.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TooManyValues`] if more than `n` values are given.
    pub fn encode(&self, values: &[u64]) -> Result<Plaintext> {
        let t = self.params.plain_modulus();
        self.encode_residues(values, |v| t.reduce(v))
    }

    /// Encodes signed values; each is reduced into the centered range of `t`
    /// (`t.from_signed(v)`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::TooManyValues`] if more than `n` values are given.
    pub fn encode_signed(&self, values: &[i64]) -> Result<Plaintext> {
        let t = self.params.plain_modulus();
        self.encode_residues(values, |v| t.from_signed(v))
    }

    /// Writes each value's residue mod `t` straight to its slot's
    /// evaluation point; the inverse NTT turns them into the coefficients
    /// in place. Missing trailing slots are zero.
    fn encode_residues<T: Copy>(
        &self,
        values: &[T],
        residue: impl Fn(T) -> u64,
    ) -> Result<Plaintext> {
        let n = self.slots();
        if values.len() > n {
            return Err(Error::TooManyValues {
                given: values.len(),
                slots: n,
            });
        }
        let mut coeffs = vec![0u64; n];
        for (&pos, &v) in self.slot_to_pos.iter().zip(values) {
            coeffs[pos as usize] = residue(v);
        }
        self.params.t_table().inverse(&mut coeffs);
        Ok(Plaintext::canonical(coeffs, self.params.clone()))
    }

    /// Decodes all `n` slots as unsigned residues mod `t`.
    pub fn decode(&self, pt: &Plaintext) -> Vec<u64> {
        let mut data = pt.coeffs().to_vec();
        self.params.t_table().forward(&mut data);
        self.slot_to_pos.iter().map(|&p| data[p as usize]).collect()
    }

    /// Decodes all `n` slots as centered signed values.
    pub fn decode_signed(&self, pt: &Plaintext) -> Vec<i64> {
        let t = self.params.plain_modulus();
        self.decode(pt).into_iter().map(|v| t.center(v)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encoder(n: usize) -> BatchEncoder {
        let params = BfvParams::builder()
            .degree(n)
            .plain_bits(17)
            .moduli_bits(&[if n >= 4096 { 60 } else { 54 }])
            .build()
            .unwrap();
        BatchEncoder::new(params)
    }

    #[test]
    fn roundtrip_all_slots() {
        let enc = encoder(4096);
        let values: Vec<u64> = (0..4096u64).collect();
        let pt = enc.encode(&values).unwrap();
        assert_eq!(enc.decode(&pt), values);
    }

    #[test]
    fn roundtrip_signed() {
        let enc = encoder(2048);
        let values: Vec<i64> = (0..2048).map(|i| i - 1024).collect();
        let pt = enc.encode_signed(&values).unwrap();
        assert_eq!(enc.decode_signed(&pt), values);
    }

    #[test]
    fn partial_vector_pads_with_zero() {
        let enc = encoder(2048);
        let pt = enc.encode(&[7, 8, 9]).unwrap();
        let d = enc.decode(&pt);
        assert_eq!(&d[..3], &[7, 8, 9]);
        assert!(d[3..].iter().all(|&v| v == 0));
    }

    #[test]
    fn too_many_values_rejected() {
        let enc = encoder(2048);
        let err = enc.encode(&vec![1; 2049]).unwrap_err();
        assert!(matches!(
            err,
            Error::TooManyValues {
                given: 2049,
                slots: 2048
            }
        ));
    }

    #[test]
    fn values_reduced_mod_t() {
        let enc = encoder(2048);
        let t = enc.params().plain_modulus().value();
        let pt = enc.encode(&[t + 5]).unwrap();
        assert_eq!(enc.decode(&pt)[0], 5);
    }

    #[test]
    fn constant_encoding_is_constant_polynomial() {
        // A constant vector encodes to the constant polynomial c (slot
        // structure sanity check: NTT of a constant is constant).
        let enc = encoder(2048);
        let pt = enc.encode(&vec![9; enc.slots()]).unwrap();
        assert_eq!(pt.coeffs()[0], 9);
        assert!(pt.coeffs()[1..].iter().all(|&c| c == 0));
    }

    #[test]
    fn slotwise_product_matches_poly_product() {
        // Multiplying plaintext polynomials mod (x^n+1, t) multiplies slots.
        let enc = encoder(2048);
        let a: Vec<u64> = (1..=2048u64).collect();
        let b: Vec<u64> = (0..2048u64).map(|i| 2 * i + 1).collect();
        let pa = enc.encode(&a).unwrap();
        let pb = enc.encode(&b).unwrap();
        let t = *enc.params().plain_modulus();
        let prod = crate::ntt::negacyclic_mul_naive(pa.coeffs(), pb.coeffs(), &t);
        let pt_prod = Plaintext::from_coeffs(prod, enc.params().clone()).unwrap();
        let d = enc.decode(&pt_prod);
        for i in 0..2048 {
            assert_eq!(d[i], t.mul_mod(a[i], b[i]), "slot {i}");
        }
    }

    #[test]
    fn from_coeffs_refuses_wrong_length_and_unreduced_coefficients() {
        let enc = encoder(2048);
        let params = enc.params().clone();
        let t = params.plain_modulus().value();
        let malformed = |r: Result<Plaintext>| {
            matches!(
                r,
                Err(Error::Malformed {
                    what: "plaintext",
                    ..
                })
            )
        };
        assert!(malformed(Plaintext::from_coeffs(
            vec![0; 5],
            params.clone()
        )));
        let mut coeffs = vec![1u64; 2048];
        coeffs[7] = t;
        assert!(malformed(Plaintext::from_coeffs(
            coeffs.clone(),
            params.clone()
        )));

        // The largest residue is admitted and round-trips through decode.
        coeffs[7] = t - 1;
        let pt = Plaintext::from_coeffs(coeffs.clone(), params).unwrap();
        assert_eq!(pt.coeffs(), &coeffs[..]);
        assert_eq!(pt.inf_norm(), 1);
        let again = enc.encode(&enc.decode(&pt)).unwrap();
        assert_eq!(again, pt);
    }

    #[test]
    fn inf_norm_reports_centered_magnitude() {
        let enc = encoder(2048);
        let pt = enc.encode_signed(&[-3]).unwrap();
        assert!(pt.inf_norm() >= 1);
    }
}
