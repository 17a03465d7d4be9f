//! Modular arithmetic over word-sized prime moduli.
//!
//! Everything in the BFV engine bottoms out in arithmetic modulo a prime
//! `q < 2^62`. Two reduction strategies are provided, matching the cost
//! structure the Cheetah paper models in §IV-A:
//!
//! * [`Modulus::mul_mod`] — Barrett reduction for arbitrary operand pairs.
//!   The reduction itself costs five integer multiplications (four partial
//!   products inside [`mulhi_u128`] plus the `t·q` product), which is exactly
//!   the constant the paper's performance model charges per modular
//!   multiplication ("Cheetah uses Barrett reduction, which uses five
//!   integer-multiplications per reduction").
//! * [`ShoupPrecomp`] — Shoup multiplication for a *fixed* operand, the hot
//!   path inside NTT butterflies (Harvey's butterfly: three integer
//!   multiplications).

use crate::error::{Error, Result};

/// A word-sized modulus with precomputed Barrett constants.
///
/// # Examples
///
/// ```
/// use cheetah_bfv::arith::Modulus;
///
/// let q = Modulus::new(0x3fff_ffff_e800_0001).unwrap(); // a 62-bit value
/// assert_eq!(q.mul_mod(3, 5), 15);
/// assert!(Modulus::new(1 << 62).is_err()); // 63-bit values are too big
/// ```
///
/// Most callers obtain moduli from [`crate::params::BfvParams`] rather than
/// constructing them directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Modulus {
    value: u64,
    /// `floor(2^128 / value)`; exact because `value` never divides `2^128`.
    const_ratio: u128,
}

/// Maximum supported modulus: a single 62-bit limb keeps `a*b < 2^124` so the
/// Barrett quotient estimate fits in a `u64`.
pub const MAX_MODULUS_BITS: u32 = 62;

/// Maximum bit width of an **NTT limb** (`q < 2^61`), one bit stricter than
/// [`MAX_MODULUS_BITS`].
///
/// Harvey's lazy butterfly keeps values in `[0, 4q)` and forms `x + 2q - u`
/// in a `u64`, which needs `4q ≤ 2^64` — i.e. `q < 2^62` — to avoid silent
/// wraparound. The engine enforces one bit *more* headroom (`8q ≤ 2^64`) so
/// lane kernels can defer a reduction step without changing the tables.
/// [`crate::ntt::NttTable::new`] rejects wider moduli with a typed
/// [`Error::InvalidModulus`], and [`generate_prime_congruent`] (hence every
/// `BfvParamsBuilder` bit-width request) refuses to generate them. Raw
/// [`Modulus`] values up to 62 bits remain valid for Barrett-only
/// arithmetic that never enters a transform.
pub const MAX_NTT_MODULUS_BITS: u32 = 61;

/// [`Modulus::reduce_u128`] takes inputs below `2^LAZY_SUM_BITS`: twice
/// [`MAX_MODULUS_BITS`], the width of the widest single product.
pub(crate) const LAZY_SUM_BITS: u32 = 2 * MAX_MODULUS_BITS;

impl Modulus {
    /// Creates a new modulus with precomputed Barrett constants.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidModulus`] if `value < 2` or `value >= 2^62`.
    pub fn new(value: u64) -> Result<Self> {
        if value < 2 || value >> MAX_MODULUS_BITS != 0 {
            return Err(Error::InvalidModulus(value));
        }
        // floor(2^128 / value) == floor((2^128 - 1) / value) because value is
        // never a power of two here (value >= 2 and odd primes in practice);
        // even when it is, the difference only matters if value | 2^128,
        // i.e. value is a power of two, in which case we adjust.
        let mut const_ratio = u128::MAX / value as u128;
        if value.is_power_of_two() {
            const_ratio += 1;
        }
        Ok(Self { value, const_ratio })
    }

    /// The numeric value of the modulus.
    #[inline]
    pub const fn value(&self) -> u64 {
        self.value
    }

    /// Number of significant bits in the modulus.
    #[inline]
    pub const fn bits(&self) -> u32 {
        64 - self.value.leading_zeros()
    }

    /// The Barrett constant `floor(2^128 / value)` (for the branch-free
    /// lane kernels in [`crate::simd`], which replicate [`Modulus::mul_mod`]
    /// bit-for-bit; only they read it).
    #[inline]
    pub(crate) const fn const_ratio(&self) -> u128 {
        self.const_ratio
    }

    /// Reduces an arbitrary `u64` modulo `self`.
    #[inline]
    pub fn reduce(&self, x: u64) -> u64 {
        self.reduce_u128(x as u128)
    }

    /// Barrett-reduces a 128-bit value `x < 2^124` modulo `self`.
    ///
    /// This is the five-multiplication reduction the paper's cost model
    /// references (four partials in the 128×128 high product, one for `t·q`).
    /// A product of two residues is below `2^124` for every valid modulus;
    /// a lazy sum of products stays below it for
    /// [`Modulus::lazy_dot_terms`] terms.
    #[inline]
    pub fn reduce_u128(&self, x: u128) -> u64 {
        debug_assert!(x >> LAZY_SUM_BITS == 0, "reduce_u128 input exceeds 2^124");
        // Quotient estimate t = floor(x * const_ratio / 2^128) <= floor(x/q),
        // off by at most 2.
        let t = mulhi_u128(x, self.const_ratio);
        let mut r = (x - t * self.value as u128) as u64;
        while r >= self.value {
            r -= self.value;
        }
        r
    }

    /// How many products of two residues a lazy inner product may add to
    /// a `u128` accumulator that starts at a residue before it has to
    /// reduce: `K = ⌊(min(2^124, q·2^64) − q) / (q − 1)²⌋`, so that
    /// `(q − 1) + K·(q − 1)²` — the largest value `K` terms can reach —
    /// is still below [`Modulus::reduce_u128`]'s `2^124` input bound and
    /// its quotient `⌊x/q⌋` still fits one word. At least 1 for every
    /// valid modulus; 4 just under `2^61`, 16 just under `2^60`, `2^28`
    /// for 36-bit limbs (saturates at `usize::MAX` for tiny moduli).
    #[inline]
    pub fn lazy_dot_terms(&self) -> usize {
        let q = self.value as u128;
        let limit = (1u128 << LAZY_SUM_BITS).min(q << 64);
        let k = (limit - q) / ((q - 1) * (q - 1));
        usize::try_from(k).unwrap_or(usize::MAX)
    }

    /// Modular multiplication via Barrett reduction.
    #[inline]
    pub fn mul_mod(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.value && b < self.value);
        self.reduce_u128(a as u128 * b as u128)
    }

    /// Modular addition. Operands must already be reduced.
    #[inline]
    pub fn add_mod(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.value && b < self.value);
        let s = a + b;
        if s >= self.value {
            s - self.value
        } else {
            s
        }
    }

    /// Modular subtraction. Operands must already be reduced.
    #[inline]
    pub fn sub_mod(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.value && b < self.value);
        if a >= b {
            a - b
        } else {
            a + self.value - b
        }
    }

    /// Modular negation. The operand must already be reduced.
    #[inline]
    pub fn neg_mod(&self, a: u64) -> u64 {
        debug_assert!(a < self.value);
        if a == 0 {
            0
        } else {
            self.value - a
        }
    }

    /// Modular exponentiation by squaring.
    pub fn pow_mod(&self, mut base: u64, mut exp: u64) -> u64 {
        base = self.reduce(base);
        let mut acc: u64 = 1 % self.value;
        while exp > 0 {
            if exp & 1 == 1 {
                acc = self.mul_mod(acc, base);
            }
            base = self.mul_mod(base, base);
            exp >>= 1;
        }
        acc
    }

    /// Modular inverse, if it exists.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NotInvertible`] when `gcd(a, modulus) != 1`.
    pub fn inv_mod(&self, a: u64) -> Result<u64> {
        let a = self.reduce(a);
        let (g, x, _) = extended_gcd(a as i128, self.value as i128);
        if g != 1 {
            return Err(Error::NotInvertible {
                value: a,
                modulus: self.value,
            });
        }
        let q = self.value as i128;
        Ok((x.rem_euclid(q)) as u64)
    }

    /// Maps a reduced residue to its centered representative in
    /// `(-q/2, q/2]`.
    #[inline]
    pub fn center(&self, a: u64) -> i64 {
        debug_assert!(a < self.value);
        if a > self.value / 2 {
            a as i64 - self.value as i64
        } else {
            a as i64
        }
    }

    /// Reduces a signed integer into `[0, q)`.
    #[inline]
    pub fn from_signed(&self, a: i64) -> u64 {
        // The magnitude's residue, under the sign: no 128-bit division.
        let mag = a.unsigned_abs();
        let r = if mag < self.value {
            mag
        } else {
            self.reduce(mag)
        };
        if a < 0 && r != 0 {
            self.value - r
        } else {
            r
        }
    }
}

/// High 128 bits of the 256-bit product `a * b`.
///
/// Implemented with four 64×64→128 partial products; these are four of the
/// five integer multiplications the paper charges per Barrett reduction.
#[inline]
pub fn mulhi_u128(a: u128, b: u128) -> u128 {
    let a_lo = a as u64 as u128;
    let a_hi = a >> 64;
    let b_lo = b as u64 as u128;
    let b_hi = b >> 64;

    let lo_lo = a_lo * b_lo;
    let lo_hi = a_lo * b_hi;
    let hi_lo = a_hi * b_lo;
    let hi_hi = a_hi * b_hi;

    let mid = (lo_lo >> 64) + (lo_hi & ((1u128 << 64) - 1)) + (hi_lo & ((1u128 << 64) - 1));
    hi_hi + (lo_hi >> 64) + (hi_lo >> 64) + (mid >> 64)
}

/// Precomputed Shoup constant for multiplying by a fixed operand `w` mod `q`.
///
/// `mul_lazy` costs three integer multiplications (Harvey's butterfly count
/// in the paper's NTT model) and returns a value in `[0, 2q)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShoupPrecomp {
    /// The fixed operand `w`, reduced mod `q`.
    pub operand: u64,
    /// `floor(w * 2^64 / q)`.
    pub quotient: u64,
}

impl ShoupPrecomp {
    /// Precomputes the Shoup quotient for operand `w` modulo `q`.
    pub fn new(w: u64, q: &Modulus) -> Self {
        let w = q.reduce(w);
        let quotient = (((w as u128) << 64) / q.value() as u128) as u64;
        Self {
            operand: w,
            quotient,
        }
    }

    /// Computes `x * w mod q`, fully reduced.
    #[inline]
    pub fn mul(&self, x: u64, q: &Modulus) -> u64 {
        let r = self.mul_lazy(x, q);
        if r >= q.value() {
            r - q.value()
        } else {
            r
        }
    }

    /// Computes `x * w mod q`, lazily reduced to `[0, 2q)`.
    ///
    /// Three integer multiplications: `x*quotient` (high word), `x*operand`
    /// and `approx*q` (low words).
    ///
    /// The result is exact for **any** `x < 2^64` — the laziness is in the
    /// output range, not an input bound. Headroom is the *caller's*
    /// obligation: the NTT butterflies feed `x < 4q` back in and form
    /// `x + 2q - u < 4q` sums, which is why NTT limbs are capped at
    /// `q < 2^61` ([`MAX_NTT_MODULUS_BITS`]). The only `mul_lazy` callers
    /// are the butterfly kernels in [`crate::simd`] (via the tables in
    /// [`crate::ntt::NttTable`], which enforce that cap) and
    /// [`ShoupPrecomp::mul`] below, whose single conditional subtraction
    /// only needs `2q ≤ 2^63` — satisfied by every valid [`Modulus`].
    #[inline]
    pub fn mul_lazy(&self, x: u64, q: &Modulus) -> u64 {
        let approx = ((x as u128 * self.quotient as u128) >> 64) as u64;
        (x.wrapping_mul(self.operand)).wrapping_sub(approx.wrapping_mul(q.value()))
    }
}

/// Maximum number of RNS limbs a [`CrtBasis`] supports. The composed value
/// must fit `u128`, which already caps realistic chains at four ~30-bit or
/// two ~61-bit limbs; 8 leaves headroom for many-small-prime experiments.
pub const MAX_RNS_LIMBS: usize = 8;

/// A Chinese-remainder basis over pairwise-coprime word-sized primes, with
/// the Garner (mixed-radix) constants precomputed.
///
/// This is the arithmetic core of the RNS modulus chain: a big ciphertext
/// modulus `Q = q_0 · q_1 · … · q_{l-1}` is never materialized per
/// coefficient — residues live in machine words per limb — and only
/// decryption and digit decomposition cross limbs, via
/// [`CrtBasis::compose`]. Composition runs Garner's algorithm entirely in
/// single-word Barrett arithmetic ([`Modulus::mul_mod`] /
/// [`Modulus::sub_mod`]); the only 128-bit work is the final mixed-radix
/// Horner accumulation, which is exact because construction guarantees
/// `Q < 2^127`.
///
/// # Examples
///
/// ```
/// use cheetah_bfv::arith::{CrtBasis, Modulus};
///
/// # fn main() -> Result<(), cheetah_bfv::Error> {
/// let basis = CrtBasis::new(&[Modulus::new(17)?, Modulus::new(19)?])?;
/// let v = 200u128;
/// let residues = basis.decompose(v);
/// assert_eq!(residues, vec![200 % 17, 200 % 19]);
/// assert_eq!(basis.compose(&residues), v);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrtBasis {
    moduli: Vec<Modulus>,
    /// `inv[j][i] = q_i^{-1} mod q_j` for `i < j` (Garner constants).
    inv: Vec<Vec<u64>>,
    /// `qhat[i][k] = q̂_i mod q_k` with `q̂_i = Q / q_i` — the CRT
    /// interpolation weights, per limb plane (RNS key-switch constants).
    qhat: Vec<Vec<u64>>,
    /// `qhat_inv[i] = q̂_i^{-1} mod q_i` — the per-limb normalizer of the
    /// RNS decomposition `c ≡ Σ_i q̂_i·[q̂_i^{-1}·c]_{q_i} (mod Q)`.
    qhat_inv: Vec<u64>,
    big_q: u128,
    total_bits: u32,
}

impl CrtBasis {
    /// Builds the basis and precomputes the Garner inverses.
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidLimbCount`] for an empty or oversized limb list;
    /// * [`Error::ModulusChainTooLarge`] if `Π q_i >= 2^127`;
    /// * [`Error::NotInvertible`] if two limbs share a factor (e.g.
    ///   duplicate primes).
    pub fn new(moduli: &[Modulus]) -> Result<Self> {
        if moduli.is_empty() || moduli.len() > MAX_RNS_LIMBS {
            return Err(Error::InvalidLimbCount {
                limbs: moduli.len(),
            });
        }
        let mut big_q: u128 = 1;
        for q in moduli {
            big_q = big_q
                .checked_mul(q.value() as u128)
                .filter(|&p| p < 1u128 << 127)
                .ok_or(Error::ModulusChainTooLarge {
                    total_bits: 128,
                    max_bits: 127,
                })?;
        }
        let total_bits = 128 - big_q.leading_zeros();
        let mut inv = Vec::with_capacity(moduli.len());
        for (j, qj) in moduli.iter().enumerate() {
            let mut row = Vec::with_capacity(j);
            for qi in &moduli[..j] {
                row.push(qj.inv_mod(qi.value())?);
            }
            inv.push(row);
        }
        // q̂_i = Π_{m≠i} q_m, materialized only as residues per limb plane
        // (word arithmetic; never the big integer).
        let mut qhat = Vec::with_capacity(moduli.len());
        let mut qhat_inv = Vec::with_capacity(moduli.len());
        for i in 0..moduli.len() {
            let row: Vec<u64> = moduli
                .iter()
                .map(|qk| {
                    let mut acc = 1u64 % qk.value();
                    for (m, qm) in moduli.iter().enumerate() {
                        if m != i {
                            acc = qk.mul_mod(acc, qk.reduce(qm.value()));
                        }
                    }
                    acc
                })
                .collect();
            qhat_inv.push(moduli[i].inv_mod(row[i])?);
            qhat.push(row);
        }
        Ok(Self {
            moduli: moduli.to_vec(),
            inv,
            qhat,
            qhat_inv,
            big_q,
            total_bits,
        })
    }

    /// The limb moduli, in chain order.
    #[inline]
    pub fn moduli(&self) -> &[Modulus] {
        &self.moduli
    }

    /// Number of limbs `l`.
    #[inline]
    pub fn limbs(&self) -> usize {
        self.moduli.len()
    }

    /// The composed modulus `Q = Π q_i`.
    #[inline]
    pub fn big_q(&self) -> u128 {
        self.big_q
    }

    /// `ceil(log2(Q))`-ish: the bit width of `Q`.
    #[inline]
    pub fn total_bits(&self) -> u32 {
        self.total_bits
    }

    /// `q̂_i mod q_k` with `q̂_i = Q / q_i` — the CRT interpolation weight
    /// of limb `i` seen from limb plane `k`.
    #[inline]
    pub fn qhat_mod(&self, i: usize, k: usize) -> u64 {
        self.qhat[i][k]
    }

    /// `q̂_i^{-1} mod q_i` — normalizer for the per-limb RNS decomposition
    /// `c ≡ Σ_i q̂_i·[q̂_i^{-1}·c]_{q_i} (mod Q)`. Equals 1 for a
    /// single-limb basis.
    #[inline]
    pub fn qhat_inv(&self, i: usize) -> u64 {
        self.qhat_inv[i]
    }

    /// CRT composition: maps per-limb residues back to the unique value in
    /// `[0, Q)`. Garner's mixed-radix algorithm — `O(l²)` single-word
    /// Barrett multiplications per call, no 128-bit modular reduction.
    ///
    /// # Panics
    ///
    /// Panics if `residues.len()` differs from the limb count (callers pass
    /// buffers shaped by this basis).
    pub fn compose(&self, residues: &[u64]) -> u128 {
        let l = self.moduli.len();
        assert_eq!(residues.len(), l, "residue count != limb count");
        // Mixed-radix digits: y_j = (…((x_j − y_0)·q_0⁻¹ − y_1)·q_1⁻¹ …).
        let mut y = [0u64; MAX_RNS_LIMBS];
        y[0] = residues[0];
        for j in 1..l {
            let qj = &self.moduli[j];
            let mut t = residues[j];
            for (&yi, &inv) in y[..j].iter().zip(&self.inv[j]) {
                t = qj.mul_mod(qj.sub_mod(t, qj.reduce(yi)), inv);
            }
            y[j] = t;
        }
        // Horner over the mixed radix: v = y_0 + q_0·(y_1 + q_1·(y_2 + …)).
        let mut v: u128 = y[l - 1] as u128;
        for i in (0..l - 1).rev() {
            v = v * self.moduli[i].value() as u128 + y[i] as u128;
        }
        v
    }

    /// CRT decomposition of `v < Q` into per-limb residues, writing into
    /// `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from the limb count.
    pub fn decompose_into(&self, v: u128, out: &mut [u64]) {
        assert_eq!(out.len(), self.moduli.len(), "output count != limb count");
        debug_assert!(v < self.big_q);
        for (o, q) in out.iter_mut().zip(&self.moduli) {
            // `v < Q < 2^127` can exceed `reduce_u128`'s `2^124` bound.
            *o = (v % q.value() as u128) as u64;
        }
    }

    /// Allocating variant of [`CrtBasis::decompose_into`].
    pub fn decompose(&self, v: u128) -> Vec<u64> {
        let mut out = vec![0u64; self.moduli.len()];
        self.decompose_into(v, &mut out);
        out
    }
}

/// Extended Euclidean algorithm: returns `(g, x, y)` with `a*x + b*y = g`.
pub fn extended_gcd(a: i128, b: i128) -> (i128, i128, i128) {
    if b == 0 {
        (a, 1, 0)
    } else {
        let (g, x, y) = extended_gcd(b, a % b);
        (g, y, x - (a / b) * y)
    }
}

/// Deterministic Miller–Rabin primality test, exact for all `u64`.
pub fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for p in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n == p {
            return true;
        }
        if n.is_multiple_of(p) {
            return false;
        }
    }
    let modulus = match Modulus::new(n) {
        Ok(m) => m,
        // n >= 2^62: fall back to u128 arithmetic.
        Err(_) => return is_prime_u128(n),
    };
    let d = n - 1;
    let s = d.trailing_zeros();
    let d = d >> s;
    'witness: for a in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = modulus.pow_mod(a, d);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 0..s - 1 {
            x = modulus.mul_mod(x, x);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

fn is_prime_u128(n: u64) -> bool {
    let n128 = n as u128;
    let mul = |a: u128, b: u128| (a * b) % n128;
    let pow = |mut b: u128, mut e: u128| {
        let mut acc = 1u128;
        while e > 0 {
            if e & 1 == 1 {
                acc = mul(acc, b);
            }
            b = mul(b, b);
            e >>= 1;
        }
        acc
    };
    let d = n - 1;
    let s = d.trailing_zeros();
    let d = (d >> s) as u128;
    'witness: for a in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = pow(a as u128, d);
        if x == 1 || x == (n - 1) as u128 {
            continue;
        }
        for _ in 0..s - 1 {
            x = mul(x, x);
            if x == (n - 1) as u128 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Finds the largest prime `p < 2^bits` with `p ≡ 1 (mod 2n)`, as required
/// for negacyclic NTT over `Z_p[x]/(x^n + 1)`.
///
/// # Errors
///
/// Returns [`Error::InvalidModulus`] for a bit width outside
/// `2..=`[`MAX_NTT_MODULUS_BITS`], and [`Error::NoNttPrime`] if no such
/// prime exists below `2^bits` (possible only for tiny `bits`).
pub fn generate_ntt_prime(bits: u32, n: usize) -> Result<u64> {
    assert!(
        n.is_power_of_two(),
        "polynomial degree must be a power of 2"
    );
    generate_prime_congruent(bits, 2 * n as u64).map_err(|e| match e {
        // Keep the width rejection typed; only "no prime found" is
        // rephrased in terms of the NTT degree.
        Error::InvalidModulus(v) => Error::InvalidModulus(v),
        _ => Error::NoNttPrime { bits, n },
    })
}

/// Finds the largest prime `p < 2^bits` with `p ≡ 1 (mod step)`.
///
/// Used both for plain NTT primes (`step = 2n`) and for ciphertext moduli
/// with the Gazelle-style congruence `q ≡ 1 (mod 2n·t)`: with
/// `q mod t = 1`, the `(q mod t)·⌊m·p/t⌋` rounding term of BFV plaintext
/// multiplication collapses to a negligible additive, which is the regime
/// the paper's Table III noise model describes.
///
/// # Errors
///
/// Returns [`Error::InvalidModulus`] for a bit-width request outside
/// `2..=`[`MAX_NTT_MODULUS_BITS`] (generated primes feed NTT tables, which
/// cap limbs at `q < 2^61` for lazy-butterfly headroom), and
/// [`Error::NoNttPrime`] if no such prime exists below `2^bits`.
pub fn generate_prime_congruent(bits: u32, step: u64) -> Result<u64> {
    if !(2..=MAX_NTT_MODULUS_BITS).contains(&bits) {
        // Report the smallest value of the requested width, so the error
        // names a concrete out-of-range modulus rather than a bit count.
        let witness = if bits >= 64 {
            u64::MAX
        } else {
            1u64 << bits.saturating_sub(1)
        };
        return Err(Error::InvalidModulus(witness));
    }
    let n_hint = (step / 2).max(1) as usize;
    if step >= 1u64 << bits {
        return Err(Error::NoNttPrime { bits, n: n_hint });
    }
    // Largest candidate of the form k*step + 1 strictly below 2^bits.
    let top = (1u64 << bits) - 1;
    let mut candidate = top - ((top - 1) % step);
    while candidate > step {
        if candidate >> (bits - 1) == 1 && is_prime(candidate) {
            return Ok(candidate);
        }
        candidate -= step;
    }
    Err(Error::NoNttPrime { bits, n: n_hint })
}

/// Finds several distinct primes `p < 2^bits` with `p ≡ 1 (mod step)`,
/// largest first — the pool generator behind fully congruent multi-limb
/// chains (`step = 2n·t` keeps every chain prefix `≡ 1 (mod t)`).
///
/// # Errors
///
/// Returns [`Error::NoNttPrime`] if fewer than `count` such primes exist
/// at this size (congruent progressions get sparse fast; callers fall back
/// to plain NTT primes).
pub fn generate_primes_congruent(bits: u32, step: u64, count: usize) -> Result<Vec<u64>> {
    let n_hint = (step / 2).max(1) as usize;
    let mut primes = Vec::with_capacity(count);
    let mut candidate = generate_prime_congruent(bits, step)?;
    primes.push(candidate);
    while primes.len() < count {
        if candidate <= step {
            return Err(Error::NoNttPrime { bits, n: n_hint });
        }
        candidate -= step;
        if candidate >> (bits - 1) != 1 {
            // Left the size class: no further candidate can qualify.
            return Err(Error::NoNttPrime { bits, n: n_hint });
        }
        if is_prime(candidate) {
            primes.push(candidate);
        }
    }
    Ok(primes)
}

/// Finds several distinct NTT primes of the given size, largest first:
/// [`generate_primes_congruent`] with `step = 2n`.
///
/// # Errors
///
/// Returns [`Error::NoNttPrime`] if fewer than `count` primes exist.
pub fn generate_ntt_primes(bits: u32, n: usize, count: usize) -> Result<Vec<u64>> {
    assert!(
        n.is_power_of_two(),
        "polynomial degree must be a power of 2"
    );
    generate_primes_congruent(bits, 2 * n as u64, count)
}

/// Finds a primitive `2n`-th root of unity modulo the prime `q`
/// (requires `q ≡ 1 mod 2n` and `n` a power of two).
///
/// Because `n` is a power of two, `ψ` is a primitive `2n`-th root iff
/// `ψ^n ≡ -1`, which we test directly; candidates are drawn as
/// `x^((q-1)/2n)` for successive `x`.
///
/// # Errors
///
/// Returns [`Error::NoPrimitiveRoot`] if `q ≢ 1 (mod 2n)`.
pub fn primitive_root_2n(q: &Modulus, n: usize) -> Result<u64> {
    let m = 2 * n as u64;
    if !(q.value() - 1).is_multiple_of(m) {
        return Err(Error::NoPrimitiveRoot {
            modulus: q.value(),
            order: m,
        });
    }
    let exp = (q.value() - 1) / m;
    let minus_one = q.value() - 1;
    for x in 2..q.value() {
        let psi = q.pow_mod(x, exp);
        if q.pow_mod(psi, n as u64) == minus_one {
            return Ok(psi);
        }
    }
    Err(Error::NoPrimitiveRoot {
        modulus: q.value(),
        order: m,
    })
}

/// Reverses the low `bits` bits of `x` (used for NTT index scrambling).
#[inline]
pub fn bit_reverse(x: usize, bits: u32) -> usize {
    if bits == 0 {
        return 0;
    }
    x.reverse_bits() >> (usize::BITS - bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modulus_rejects_out_of_range() {
        assert!(Modulus::new(0).is_err());
        assert!(Modulus::new(1).is_err());
        assert!(Modulus::new(1 << 62).is_err());
        assert!(Modulus::new((1 << 62) - 1).is_ok());
    }

    #[test]
    fn barrett_matches_u128_remainder() {
        let q = Modulus::new(0x3fff_ffff_0000_0001).unwrap();
        let pairs = [
            (0u64, 0u64),
            (1, 1),
            (q.value() - 1, q.value() - 1),
            (123_456_789, 987_654_321),
            (q.value() / 2, q.value() / 3),
        ];
        for (a, b) in pairs {
            let expect = ((a as u128 * b as u128) % q.value() as u128) as u64;
            assert_eq!(q.mul_mod(a, b), expect, "a={a} b={b}");
        }
    }

    #[test]
    fn barrett_reduce_handles_max_product() {
        let q = Modulus::new((1u64 << 62) - 57).unwrap(); // 2^62 - 57 is prime-ish size
        let a = q.value() - 1;
        let x = a as u128 * a as u128;
        assert_eq!(q.reduce_u128(x), (x % q.value() as u128) as u64);
    }

    #[test]
    fn add_sub_neg_roundtrip() {
        let q = Modulus::new(65537).unwrap();
        for a in [0u64, 1, 2, 65535, 65536] {
            for b in [0u64, 1, 32768, 65536] {
                let s = q.add_mod(a, b);
                assert_eq!(q.sub_mod(s, b), a);
            }
            assert_eq!(q.add_mod(a, q.neg_mod(a)), 0);
        }
    }

    #[test]
    fn pow_and_inverse() {
        let q = Modulus::new(65537).unwrap();
        assert_eq!(q.pow_mod(3, 65536), 1); // Fermat
        let inv = q.inv_mod(12345).unwrap();
        assert_eq!(q.mul_mod(12345, inv), 1);
        let q2 = Modulus::new(15).unwrap();
        assert!(q2.inv_mod(5).is_err());
    }

    #[test]
    fn center_and_from_signed() {
        let q = Modulus::new(17).unwrap();
        assert_eq!(q.center(0), 0);
        assert_eq!(q.center(8), 8);
        assert_eq!(q.center(9), -8);
        assert_eq!(q.center(16), -1);
        assert_eq!(q.from_signed(-1), 16);
        assert_eq!(q.from_signed(-17), 0);
        assert_eq!(q.from_signed(35), 1);
    }

    #[test]
    fn shoup_matches_barrett() {
        let q = Modulus::new(0x0fff_ffff_ff00_0001).unwrap();
        let w = 0x0123_4567_89ab_cdef % q.value();
        let pre = ShoupPrecomp::new(w, &q);
        for x in [0u64, 1, 2, q.value() - 1, q.value() / 2, 42] {
            assert_eq!(pre.mul(x, &q), q.mul_mod(x, w));
            let lazy = pre.mul_lazy(x, &q);
            assert!(lazy < 2 * q.value());
            assert_eq!(lazy % q.value(), q.mul_mod(x, w));
        }
    }

    #[test]
    fn mulhi_u128_against_known_values() {
        assert_eq!(mulhi_u128(0, u128::MAX), 0);
        assert_eq!(mulhi_u128(u128::MAX, u128::MAX), u128::MAX - 1);
        assert_eq!(mulhi_u128(1 << 127, 2), 1);
        // (2^64)*(2^64) = 2^128 -> high half is exactly 1.
        assert_eq!(mulhi_u128(1 << 64, 1 << 64), 1);
    }

    #[test]
    fn miller_rabin_known_values() {
        assert!(is_prime(2));
        assert!(is_prime(65537));
        assert!(is_prime(0xffff_ffff_ffff_ffc5)); // largest prime < 2^64
        assert!(!is_prime(0));
        assert!(!is_prime(1));
        assert!(!is_prime(65536));
        assert!(!is_prime(3215031751)); // strong pseudoprime to bases 2,3,5,7
    }

    #[test]
    fn ntt_prime_generation() {
        for (bits, n) in [(20u32, 1024usize), (30, 4096), (54, 4096), (60, 8192)] {
            let p = generate_ntt_prime(bits, n).unwrap();
            assert!(is_prime(p));
            assert_eq!(p % (2 * n as u64), 1);
            assert_eq!(64 - p.leading_zeros(), bits);
        }
    }

    #[test]
    fn prime_generation_rejects_overwide_ntt_limbs() {
        // Requests past the 61-bit lazy-butterfly cap fail typed, not with
        // a panic (and not with a misleading "no prime found").
        for bits in [0u32, 1, 62, 63, 64, 100] {
            assert!(
                matches!(
                    generate_prime_congruent(bits, 8192),
                    Err(Error::InvalidModulus(_))
                ),
                "bits = {bits}"
            );
        }
        assert!(matches!(
            generate_ntt_prime(62, 4096),
            Err(Error::InvalidModulus(_))
        ));
        // 61 bits is the widest admissible NTT limb and still works.
        let p = generate_prime_congruent(61, 8192).unwrap();
        assert_eq!(64 - p.leading_zeros(), 61);
        assert!(is_prime(p));
    }

    #[test]
    fn multiple_ntt_primes_are_distinct() {
        let primes = generate_ntt_primes(40, 2048, 4).unwrap();
        assert_eq!(primes.len(), 4);
        let mut dedup = primes.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), 4);
    }

    #[test]
    fn primitive_root_has_order_2n() {
        let n = 1024usize;
        let p = generate_ntt_prime(30, n).unwrap();
        let q = Modulus::new(p).unwrap();
        let psi = primitive_root_2n(&q, n).unwrap();
        assert_eq!(q.pow_mod(psi, n as u64), p - 1);
        assert_eq!(q.pow_mod(psi, 2 * n as u64), 1);
    }

    #[test]
    fn crt_compose_decompose_roundtrip() {
        let moduli = [
            Modulus::new(generate_ntt_prime(30, 1024).unwrap()).unwrap(),
            Modulus::new(generate_ntt_prime(31, 1024).unwrap()).unwrap(),
            Modulus::new(generate_ntt_prime(36, 1024).unwrap()).unwrap(),
        ];
        let basis = CrtBasis::new(&moduli).unwrap();
        let q = basis.big_q();
        for v in [0u128, 1, 2, q / 2, q - 1, 0x1234_5678_9abc_def0] {
            let residues = basis.decompose(v);
            for (r, m) in residues.iter().zip(&moduli) {
                assert_eq!(*r as u128, v % m.value() as u128);
            }
            assert_eq!(basis.compose(&residues), v, "v = {v}");
        }
    }

    #[test]
    fn qhat_constants_interpolate_crt() {
        let moduli = [
            Modulus::new(generate_ntt_prime(30, 1024).unwrap()).unwrap(),
            Modulus::new(generate_ntt_prime(31, 1024).unwrap()).unwrap(),
            Modulus::new(generate_ntt_prime(36, 1024).unwrap()).unwrap(),
        ];
        let basis = CrtBasis::new(&moduli).unwrap();
        let v = basis.big_q() - 12345;
        let residues = basis.decompose(v);
        // v ≡ Σ_i q̂_i · [q̂_i^{-1}·v]_{q_i}  (mod q_k) for every plane k.
        for (k, qk) in moduli.iter().enumerate() {
            let mut acc = 0u64;
            for (i, qi) in moduli.iter().enumerate() {
                let norm = qi.mul_mod(residues[i], basis.qhat_inv(i));
                acc = qk.add_mod(acc, qk.mul_mod(qk.reduce(norm), basis.qhat_mod(i, k)));
            }
            assert_eq!(acc, residues[k], "plane {k}");
        }
        // q̂_i mod q_i is invertible and q̂_i·q̂_i^{-1} ≡ 1.
        for (i, qi) in moduli.iter().enumerate() {
            assert_eq!(qi.mul_mod(basis.qhat_mod(i, i), basis.qhat_inv(i)), 1);
        }
    }

    #[test]
    fn qhat_single_limb_is_trivial() {
        let q = Modulus::new(generate_ntt_prime(50, 2048).unwrap()).unwrap();
        let basis = CrtBasis::new(&[q]).unwrap();
        assert_eq!(basis.qhat_mod(0, 0), 1);
        assert_eq!(basis.qhat_inv(0), 1);
    }

    #[test]
    fn crt_single_limb_is_identity() {
        let q = Modulus::new(generate_ntt_prime(50, 2048).unwrap()).unwrap();
        let basis = CrtBasis::new(&[q]).unwrap();
        assert_eq!(basis.total_bits(), 50);
        assert_eq!(basis.compose(&[12345]), 12345);
        assert_eq!(basis.decompose(12345), vec![12345]);
    }

    #[test]
    fn crt_rejects_bad_bases() {
        assert!(matches!(
            CrtBasis::new(&[]),
            Err(Error::InvalidLimbCount { limbs: 0 })
        ));
        let q = Modulus::new(65537).unwrap();
        // Duplicate limbs share every factor: no Garner inverse exists.
        assert!(matches!(
            CrtBasis::new(&[q, q]),
            Err(Error::NotInvertible { .. })
        ));
        // Three 61-bit limbs overflow the u128 composition budget.
        let big = Modulus::new((1u64 << 61) - 1).unwrap();
        let big2 = Modulus::new((1u64 << 61) - 31).unwrap();
        let big3 = Modulus::new((1u64 << 61) - 129).unwrap();
        assert!(matches!(
            CrtBasis::new(&[big, big2, big3]),
            Err(Error::ModulusChainTooLarge { .. })
        ));
    }

    #[test]
    fn bit_reverse_is_involution() {
        for bits in [1u32, 3, 10] {
            for x in 0..(1usize << bits) {
                assert_eq!(bit_reverse(bit_reverse(x, bits), bits), x);
            }
        }
    }
}
