//! Key material: secret key, public key, and Galois (rotation) keys.
//!
//! Galois keys embed the ciphertext decomposition base `A_dcmp`
//! (Table II) and are indexed per **(limb, digit)** for the RNS-native
//! key switch: pair `(i, d)` is an RLWE sample of `A^d · q̂_i · s(x^g)`
//! (with `q̂_i = Q/q_i`), so the evaluator can pair it with the limb-local
//! digit `[A^{-d}-ish slice of q̂_i^{-1}·c1]_{q_i}` without ever
//! CRT-composing a coefficient. A key holds
//! `l_ct = Σ_i ceil(log_A q_i)` pairs (flat, limb-major); applying a
//! rotation costs `2·l_ct` polynomial multiplications and
//! `(l_ct + 1)·l_limbs` NTT plane transforms — the counts the corrected
//! Cheetah performance model charges per `HE_Rotate` (§IV-A). For a
//! single limb `q̂_0 = 1` and everything degenerates bit-for-bit to the
//! historical composed `A^d·s(x^g)` key shape.
//!
//! On a hybrid (special-prime) chain the same generator emits one pair
//! per limb over the `P`-extended key-switch chain, pair `i` a sample of
//! `P·q̂_i·s(x^g)`: a key is always `BfvParams::ks_digits_at(0)` pairs
//! over `BfvParams::ks_chain_at(0)`, and the two chains differ only in
//! the scale each pair puts on `s(x^g)`
//! ([`KeyGenerator::seeded_galois_key`]).
//!
//! **Keys are generated seeded.** A pair's `k1 = a` is uniform, so the
//! generator never draws it from its own stream: each key draws one
//! 64-bit seed, and pair `d`'s `a` is the `d`-th polynomial that seed
//! expands to ([`UniformStream`]). A client ships a
//! [`SeededGaloisKeys`] — elements, seeds and `k0`s, half the bytes of the
//! pairs — and the server rebuilds every `a` with
//! [`SeededGaloisKeys::expand`], the only place a `k1` is made. Every
//! entry point that returns full [`GaloisKeys`] generates seeded, then
//! expands.

use std::collections::{BTreeMap, HashMap};

use crate::error::{Error, Result};
use crate::params::{BfvParams, DEFAULT_SIGMA};
use crate::rns::{PackedPoly, Representation, RnsPoly};
use crate::sampling::{BfvRng, UniformStream};
use crate::simd;

/// The RLWE secret key: a ternary polynomial lifted into every limb plane,
/// stored in evaluation form.
#[derive(Debug, Clone)]
pub struct SecretKey {
    s: RnsPoly,
    params: BfvParams,
}

impl SecretKey {
    /// The secret polynomial in evaluation form.
    pub fn poly(&self) -> &RnsPoly {
        &self.s
    }

    /// Parameter set.
    pub fn params(&self) -> &BfvParams {
        &self.params
    }
}

/// The public encryption key `(pk0, pk1) = (−(a·s + e), a)`.
#[derive(Debug, Clone)]
pub struct PublicKey {
    pk0: RnsPoly,
    pk1: RnsPoly,
    params: BfvParams,
}

impl PublicKey {
    /// First component `−(a·s + e)`, evaluation form.
    pub fn pk0(&self) -> &RnsPoly {
        &self.pk0
    }

    /// Second component `a`, evaluation form.
    pub fn pk1(&self) -> &RnsPoly {
        &self.pk1
    }

    /// Parameter set.
    pub fn params(&self) -> &BfvParams {
        &self.params
    }

    /// Assembles a public key from validated parts (wire decoding).
    pub(crate) fn from_parts(pk0: RnsPoly, pk1: RnsPoly, params: BfvParams) -> Self {
        Self { pk0, pk1, params }
    }

    /// In-memory size in bytes: two full-width components of
    /// `l_limbs · n` 8-byte words. (The wire ships `pk0` alone, packed:
    /// [`crate::wire::seeded_public_key_wire_bytes`].)
    pub fn byte_size(&self) -> usize {
        2 * self.params.limbs() * self.params.degree() * 8
    }
}

/// One key-switching key: on a digit chain `l_ct = Σ_i ceil(log_A q_i)`
/// pairs `(−(a·s + e) + A^d·q̂_i·s(x^g), a)` in evaluation form — indexed
/// per (limb `i`, digit `d`), stored flat in limb-major order to match the
/// digit order [`RnsPoly::rns_decompose_into`] emits; on a hybrid chain
/// one pair `(−(a·s + e) + P·q̂_i·s(x^g), a)` per limb — plus the cached
/// slot permutation realizing `x ↦ x^g` on NTT-form data (the permutation
/// depends only on `n`, so one table serves every limb plane).
///
/// The pairs are kept packed at their limbs' widths ([`PackedPoly`], the
/// wire's layout): every key switch streams a key that no cache holds,
/// and the lazy dot unpacks it as it reads it.
#[derive(Debug, Clone)]
pub struct GaloisKey {
    /// The Galois element `g` (odd).
    pub element: u64,
    /// Key-switch pairs, one per (limb, digit), flat in limb-major order.
    pairs: Vec<(PackedPoly, PackedPoly)>,
    /// NTT-domain permutation for `x ↦ x^g`.
    perm: Vec<u32>,
}

impl GaloisKey {
    /// Key-switch pairs, packed: [`BfvParams::ks_digits_at`]`(0)` of them,
    /// one per digit in limb-major order (limb 0's digits first). For a
    /// single limb this is the historical per-digit shape.
    /// [`PackedPoly::unpack`] gives a component as an [`RnsPoly`].
    pub fn pairs(&self) -> &[(PackedPoly, PackedPoly)] {
        &self.pairs
    }

    /// The NTT-domain slot permutation.
    pub fn permutation(&self) -> &[u32] {
        &self.perm
    }
}

/// One Galois key as a client generates and ships it: the element, the
/// seed its pairs' uniform components expand from, and each pair's
/// `k0 = −(a·s + e) + scale·s(x^g)`. Pair `d`'s `a` is the `d`-th
/// polynomial of [`UniformStream`]`::new(seed, ks_chain_at(0))`. The type
/// holds no `a`: what a client registers is what crosses the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeededGaloisKey {
    /// The Galois element `g` (odd).
    pub element: u64,
    /// Expansion seed of the pairs' `a` components.
    pub seed: u64,
    /// `k0` per pair, flat in limb-major order, evaluation form.
    k0: Vec<RnsPoly>,
}

impl SeededGaloisKey {
    /// The pairs' `k0` components: [`BfvParams::ks_digits_at`]`(0)` of
    /// them over [`BfvParams::ks_chain_at`]`(0)`.
    pub fn k0(&self) -> &[RnsPoly] {
        &self.k0
    }

    /// Assembles a key from validated parts (wire decoding). The caller
    /// guarantees `element` is valid and `k0` is `ks_digits_at(0)`
    /// canonical `ks_chain_at(0)`-shaped polynomials.
    pub(crate) fn from_parts(element: u64, seed: u64, k0: Vec<RnsPoly>) -> Self {
        Self { element, seed, k0 }
    }

    /// The full key: each pair's `k0` packed, then its `a` expanded from
    /// the seed into the `k0`'s storage and packed beside it, and the
    /// element's slot permutation.
    fn expand(self, params: &BfvParams) -> GaloisKey {
        let ks = params.ks_chain_at(0);
        let mut stream = UniformStream::new(self.seed, ks);
        let pack = |p: &RnsPoly| PackedPoly::pack(p, ks).expect("keys are over ks_chain_at(0)");
        let pairs = self
            .k0
            .into_iter()
            .map(|mut k0| {
                let packed_k0 = pack(&k0);
                stream.next_into(&mut k0);
                (packed_k0, pack(&k0))
            })
            .collect();
        GaloisKey {
            element: self.element,
            pairs,
            perm: ks.table(0).galois_permutation(self.element),
        }
    }
}

/// A set of seeded Galois keys, ascending by element: what
/// [`KeyGenerator::seeded_galois_keys_for_steps`] returns, what a client
/// registers, and what [`crate::wire::encode_seeded_galois_keys`] ships.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SeededGaloisKeys {
    keys: BTreeMap<u64, SeededGaloisKey>,
}

impl SeededGaloisKeys {
    /// Looks up the key realizing a row rotation by `steps` at degree
    /// `n`, as [`GaloisKeys::get_for_step`] does.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidRotation`] for an identity step,
    /// [`Error::MissingGaloisKey`] (with `step` set) if absent.
    pub fn get_for_step(&self, n: usize, steps: i64) -> Result<&SeededGaloisKey> {
        key_for_step(n, steps, |g| self.keys.get(&g))
    }

    /// Whether a key for this element exists.
    pub fn contains(&self, element: u64) -> bool {
        self.keys.contains_key(&element)
    }

    /// Number of keys held.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The keys in ascending element order.
    pub fn iter(&self) -> impl Iterator<Item = &SeededGaloisKey> + '_ {
        self.keys.values()
    }

    /// The full key set: every pair's `a` expanded from its key's seed,
    /// beside its `k0`, and each element's slot permutation. The only
    /// place a `k1` is rebuilt.
    pub fn expand(self, params: &BfvParams) -> GaloisKeys {
        let mut out = GaloisKeys::default();
        for key in self.keys.into_values() {
            out.insert(key.expand(params));
        }
        out
    }

    pub(crate) fn insert(&mut self, key: SeededGaloisKey) {
        self.keys.insert(key.element, key);
    }
}

/// The key realizing a row rotation by `steps`, looked up by element.
fn key_for_step<'a, K>(
    n: usize,
    steps: i64,
    get: impl FnOnce(u64) -> Option<&'a K>,
) -> Result<&'a K> {
    let element = element_for_step(n, steps)?;
    get(element).ok_or(Error::MissingGaloisKey {
        element,
        step: Some(steps),
    })
}

/// A set of Galois keys indexed by Galois element.
#[derive(Debug, Clone, Default)]
pub struct GaloisKeys {
    keys: HashMap<u64, GaloisKey>,
}

impl GaloisKeys {
    /// Looks up the key for a Galois element.
    ///
    /// # Errors
    ///
    /// Returns [`Error::MissingGaloisKey`] if absent.
    pub fn get(&self, element: u64) -> Result<&GaloisKey> {
        self.keys.get(&element).ok_or(Error::MissingGaloisKey {
            element,
            step: None,
        })
    }

    /// Looks up the key realizing a row rotation by `steps` at degree `n`.
    ///
    /// The error carries the *step* alongside the Galois element, so a
    /// session asking for a rotation its plan-exact keygen never produced
    /// gets a diagnosable [`Error::MissingGaloisKey`] instead of a bare
    /// element number (or, historically, a panic deeper in the stack).
    ///
    /// # Errors
    ///
    /// [`Error::InvalidRotation`] for an identity step,
    /// [`Error::MissingGaloisKey`] (with `step` set) if absent.
    pub fn get_for_step(&self, n: usize, steps: i64) -> Result<&GaloisKey> {
        key_for_step(n, steps, |g| self.keys.get(&g))
    }

    /// Whether a key for this element exists.
    pub fn contains(&self, element: u64) -> bool {
        self.keys.contains_key(&element)
    }

    /// Number of keys held.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Iterates over the stored elements.
    pub fn elements(&self) -> impl Iterator<Item = u64> + '_ {
        self.keys.keys().copied()
    }

    /// Bytes of key material held in memory: per key, `ks_digits_at(0)`
    /// pairs of polynomials over the `ks_chain_at(0)` planes, each packed
    /// at its limb's width, `n·w_i/8` bytes a plane with no slack (the
    /// wire's [`crate::wire::poly_bytes`]). The seeded set a client ships
    /// carries the `k0` half of it in the same layout. The slot
    /// permutations (`4n` bytes a key) are not counted.
    pub fn byte_size(&self, params: &BfvParams) -> usize {
        let ks = params.ks_chain_at(0);
        let pair = 2 * crate::wire::poly_bytes(ks, ks.limbs());
        self.keys.len() * params.ks_digits_at(0) * pair
    }

    pub(crate) fn insert(&mut self, key: GaloisKey) {
        self.keys.insert(key.element, key);
    }
}

/// Generates all key material for a session.
///
/// # Examples
///
/// ```
/// use cheetah_bfv::params::BfvParams;
/// use cheetah_bfv::keys::KeyGenerator;
///
/// # fn main() -> Result<(), cheetah_bfv::Error> {
/// let params = BfvParams::builder().degree(4096).build()?;
/// let mut keygen = KeyGenerator::from_seed(params, 42);
/// let _sk = keygen.secret_key().clone();
/// let _pk = keygen.public_key()?;
/// let gks = keygen.galois_keys_for_steps(&[1, -1, 8])?;
/// assert_eq!(gks.len(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct KeyGenerator {
    params: BfvParams,
    rng: BfvRng,
    sk: SecretKey,
    /// On a hybrid chain, the secret over the key-switch chain: the same
    /// ternary polynomial extended to the special prime. `None` on a digit
    /// chain, whose key-switch chain is the data chain.
    ks_secret: Option<RnsPoly>,
}

impl KeyGenerator {
    /// Creates a generator with a reproducible seed.
    pub fn from_seed(params: BfvParams, seed: u64) -> Self {
        let rng = BfvRng::from_seed(seed, DEFAULT_SIGMA);
        Self::from_rng(params, rng)
    }

    /// Creates a generator seeded from OS entropy.
    pub fn from_entropy(params: BfvParams) -> Self {
        let rng = BfvRng::from_entropy(DEFAULT_SIGMA);
        Self::from_rng(params, rng)
    }

    /// Draws the secret — one trit per coefficient, lifted onto the
    /// key-switch chain and transformed once — and keeps its data planes
    /// as the secret key. A hybrid set sharing a data chain and seed with
    /// a digit twin thus has an identical secret, and every encryption
    /// under it too.
    fn from_rng(params: BfvParams, mut rng: BfvRng) -> Self {
        let ks = params.ks_chain_at(0);
        let mut s = rng.ternary_rns(ks);
        s.to_eval(ks);
        let (s, ks_secret) = if params.special().is_some() {
            let data = s.data()[..params.limbs() * params.degree()].to_vec();
            let on_data =
                RnsPoly::from_data(data, params.limbs(), params.degree(), Representation::Eval);
            (on_data, Some(s))
        } else {
            (s, None)
        };
        let sk = SecretKey {
            s,
            params: params.clone(),
        };
        Self {
            params,
            rng,
            sk,
            ks_secret,
        }
    }

    /// The secret key.
    pub fn secret_key(&self) -> &SecretKey {
        &self.sk
    }

    /// Parameter set.
    pub fn params(&self) -> &BfvParams {
        &self.params
    }

    /// Generates a fresh public key: [`KeyGenerator::public_key_seeded`]
    /// without the seed.
    ///
    /// # Errors
    ///
    /// Propagates polynomial arithmetic errors (cannot occur for matched
    /// parameters).
    pub fn public_key(&mut self) -> Result<PublicKey> {
        Ok(self.public_key_seeded()?.0)
    }

    /// Generates a public key whose uniform component `pk1 = a` is expanded
    /// from a fresh 64-bit seed (via [`crate::sampling::expand_uniform`]),
    /// so the key can ship over the wire as (seed, pk0) at half the bytes —
    /// see [`crate::wire::encode_public_key_seeded`]. Returns the key
    /// together with the seed that regenerates its `pk1`.
    ///
    /// # Errors
    ///
    /// Propagates arithmetic errors from the pk0 assembly.
    pub fn public_key_seeded(&mut self) -> Result<(PublicKey, u64)> {
        let seed = self.rng.next_seed();
        let a = crate::sampling::expand_uniform(seed, self.params.chain());
        let chain = self.params.chain();
        // pk0 = −(a·s + e), in e's storage.
        let mut pk0 = self.rng.noise_rns(chain);
        pk0.to_eval(chain);
        pk0.fma_pointwise(&a, self.sk.poly(), chain)?;
        pk0.negate(chain);
        let pk = PublicKey {
            pk0,
            pk1: a,
            params: self.params.clone(),
        };
        Ok((pk, seed))
    }

    /// Generates the seeded Galois key for element `g` — the one keygen
    /// body. One 64-bit seed is drawn for the key; pair `d`'s `a` is the
    /// `d`-th polynomial it expands to, drawn into one reused buffer and
    /// dropped, and each `k0 = scale·s(x^g) − a·s − e` is assembled in
    /// its fresh error's storage, one pass of kernels per plane. There is
    /// one RLWE pair per key-switch digit ([`BfvParams::ks_digits_at`]`(0)`),
    /// each over the key-switch chain ([`BfvParams::ks_chain_at`]`(0)`)
    /// and encrypting `s(x^g)` times the weight its digit carries in the
    /// reconstruction of `c1`:
    ///
    /// * on a digit chain, pair `(i, d)` — limb-major, one per base-`A`
    ///   digit of limb `i` — encrypts `A^d·q̂_i·s(x^g)` with the parameter
    ///   set's decomposition base. For one limb `q̂_0 = 1`, the historical
    ///   `A^d` progression;
    /// * on a hybrid chain, pair `i` encrypts `P·q̂_i·s(x^g)` over
    ///   `[q_0 … q_{l-1}, P]` — `[P·q̂_i]_{q_k}·s_g` on every data plane
    ///   and exactly `0` on the special plane (`P` divides the signal).
    ///
    /// Either weight is a multiple of every data limb but `q_i`, so a
    /// pair's signal lives on plane `i` alone: every other plane of its
    /// `k0` is `−(a·s + e)`.
    ///
    /// The full-chain `q̂_i` keeps the level-prefix property: a level-`ℓ`
    /// switch consumes the pairs of limbs `i < live` on the live planes
    /// (and the special one), so one level-0 key set serves every level.
    /// Both shapes draw the key's seed, then one `e` per pair in pair
    /// order, from the generator's stream.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidGaloisElement`] unless `g` is odd and lies
    /// in `1..2n` (the automorphism group `x ↦ x^g` of the 2n-th
    /// cyclotomic); propagates arithmetic errors otherwise.
    pub fn seeded_galois_key(&mut self, g: u64) -> Result<SeededGaloisKey> {
        check_galois_element(self.params.degree(), g)?;
        let data = self.params.chain();
        let ks = self.params.ks_chain_at(0);
        let s = self.ks_secret.as_ref().unwrap_or(self.sk.poly());

        // s(x^g) in evaluation form, via the NTT-domain permutation (one
        // permutation table drives every limb plane). Plane `i` is scaled
        // in place to the weight of limb `i`'s pair in turn.
        let perm = ks.table(0).galois_permutation(g);
        let mut s_g = RnsPoly::zero(ks, Representation::Eval);
        s_g.permute_from(s, &perm);

        let seed = self.rng.next_seed();
        let mut stream = UniformStream::new(seed, ks);
        let mut a = RnsPoly::zero(ks, Representation::Eval);
        let mut k0s = Vec::with_capacity(self.params.ks_digits_at(0));
        for i in 0..data.limbs() {
            let q = data.modulus(i);
            let qhat = data.crt().qhat_mod(i, i);
            // The first pair's weight on plane i, the step from one digit
            // to the next, and the digits.
            let (weight, step, digits) = match self.params.special() {
                Some(p) => (q.mul_mod(q.reduce(p.value()), qhat), 1, 1),
                None => {
                    let a_base = self.params.a_dcmp();
                    let digits = data.limb_decomposition_levels(a_base, i);
                    (qhat, q.reduce(a_base), digits)
                }
            };
            let signal = s_g.limb_mut(i);
            simd::mul_scalar(signal, weight, q);
            for d in 0..digits {
                if d > 0 {
                    simd::mul_scalar(signal, step, q);
                }
                stream.next_into(&mut a);
                // k0 = scale·s(x^g) − (a·s + e), in e's storage.
                let mut k0 = self.rng.noise_rns(ks);
                k0.to_eval(ks);
                for (k, plane) in k0.data_mut().chunks_exact_mut(ks.degree()).enumerate() {
                    let qk = ks.modulus(k);
                    simd::fma_pointwise(plane, a.limb(k), s.limb(k), qk);
                    if k == i {
                        simd::sub_assign(plane, signal, qk);
                    }
                    simd::negate(plane, qk);
                }
                k0s.push(k0);
            }
        }
        Ok(SeededGaloisKey {
            element: g,
            seed,
            k0: k0s,
        })
    }

    /// The full Galois key for element `g`: [`KeyGenerator::seeded_galois_key`],
    /// expanded.
    ///
    /// # Errors
    ///
    /// As [`KeyGenerator::seeded_galois_key`].
    pub fn galois_key(&mut self, g: u64) -> Result<GaloisKey> {
        Ok(self.seeded_galois_key(g)?.expand(&self.params))
    }

    /// Generates seeded keys for a set of row-rotation steps — what a
    /// client ships: one per distinct Galois element, generated in step
    /// order, held in element order.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidRotation`] for any invalid step.
    pub fn seeded_galois_keys_for_steps(&mut self, steps: &[i64]) -> Result<SeededGaloisKeys> {
        let mut out = SeededGaloisKeys::default();
        for &s in steps {
            let g = element_for_step(self.params.degree(), s)?;
            if !out.contains(g) {
                out.insert(self.seeded_galois_key(g)?);
            }
        }
        Ok(out)
    }

    /// Generates full keys for a set of row-rotation steps:
    /// [`KeyGenerator::seeded_galois_keys_for_steps`], expanded.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidRotation`] for any invalid step.
    pub fn galois_keys_for_steps(&mut self, steps: &[i64]) -> Result<GaloisKeys> {
        Ok(self
            .seeded_galois_keys_for_steps(steps)?
            .expand(&self.params))
    }
}

/// Errors unless `g` is a valid Galois element for degree `n`: odd and in
/// `1..2n`. Shared by key generation and wire decoding, so a malformed
/// element is rejected before any permutation table is built.
pub fn check_galois_element(n: usize, g: u64) -> Result<()> {
    if g % 2 == 1 && g >= 1 && g < 2 * n as u64 {
        Ok(())
    } else {
        Err(Error::InvalidGaloisElement(g))
    }
}

/// Computes the Galois element `3^k mod 2n` realizing a left row-rotation
/// by `steps` (negative steps rotate right).
///
/// Steps wrap around the row: any `steps` with the same
/// `steps mod (n/2)` maps to the same element, so `row + 1` rotates like
/// `1` — the semantics of [`crate::Evaluator::rotate_rows_into`]. Computed by
/// square-and-multiply (`O(log k)` word multiplications, not the `O(k)`
/// scan that used to cost up to `n/2 − 1` iterations per lookup).
///
/// # Errors
///
/// Returns [`Error::InvalidRotation`] if `steps ≡ 0 (mod n/2)` — the
/// identity rotation has no Galois element (callers special-case it).
pub fn element_for_step(n: usize, steps: i64) -> Result<u64> {
    let row = (n / 2) as i64;
    let k = steps.rem_euclid(row) as u64;
    if k == 0 {
        return Err(Error::InvalidRotation(steps));
    }
    let m = 2 * n as u64;
    // 3^k mod m by square-and-multiply; operands < 2n ≤ 2^63 so the
    // widening product fits u128.
    let mut g = 1u64;
    let mut base = 3u64 % m;
    let mut e = k;
    while e > 0 {
        if e & 1 == 1 {
            g = ((g as u128 * base as u128) % m as u128) as u64;
        }
        base = ((base as u128 * base as u128) % m as u128) as u64;
        e >>= 1;
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> BfvParams {
        BfvParams::builder()
            .degree(1024)
            .plain_bits(16)
            .moduli_bits(&[27])
            .build()
            .unwrap()
    }

    #[test]
    fn secret_key_is_ternary_in_coeff_form() {
        let p = params();
        let kg = KeyGenerator::from_seed(p.clone(), 1);
        let mut s = kg.secret_key().poly().clone();
        s.to_coeff(p.chain());
        for (i, q) in p.chain().moduli().iter().enumerate() {
            for &c in s.limb(i) {
                assert!(c == 0 || c == 1 || c == q.value() - 1);
            }
        }
    }

    #[test]
    fn public_key_is_rlwe_sample() {
        // pk0 + pk1*s should be small (= -e): verify by computing it.
        let p = params();
        let mut kg = KeyGenerator::from_seed(p.clone(), 2);
        let pk = kg.public_key().unwrap();
        let chain = p.chain();
        let mut check = pk.pk1().clone();
        check
            .mul_assign_pointwise(kg.secret_key().poly(), chain)
            .unwrap();
        check.add_assign(pk.pk0(), chain).unwrap();
        check.to_coeff(chain);
        let norm = check.inf_norm_centered(chain).unwrap();
        // |e| <= CBD bound = round(2*sigma^2) = 20 or so.
        assert!(norm <= 64, "pk residual too large: {norm}");
        assert!(norm > 0, "error should be nonzero");
    }

    #[test]
    fn multi_limb_public_key_is_rlwe_sample() {
        let p = BfvParams::preset_rns_2x30(4096).unwrap();
        let mut kg = KeyGenerator::from_seed(p.clone(), 8);
        let pk = kg.public_key().unwrap();
        let chain = p.chain();
        let mut check = pk.pk1().clone();
        check
            .mul_assign_pointwise(kg.secret_key().poly(), chain)
            .unwrap();
        check.add_assign(pk.pk0(), chain).unwrap();
        check.to_coeff(chain);
        let norm = check.inf_norm_centered(chain).unwrap();
        assert!(norm <= 64, "pk residual too large across limbs: {norm}");
        assert!(norm > 0);
    }

    #[test]
    fn element_for_step_values() {
        // n = 8 -> m = 16, row = 4.
        assert_eq!(element_for_step(8, 1).unwrap(), 3);
        assert_eq!(element_for_step(8, 2).unwrap(), 9);
        assert_eq!(element_for_step(8, 3).unwrap(), 27 % 16);
        // negative wraps: -1 == row-1 = 3 steps
        assert_eq!(
            element_for_step(8, -1).unwrap(),
            element_for_step(8, 3).unwrap()
        );
        // multiples of the row are the identity: no element.
        assert!(element_for_step(8, 0).is_err());
        assert!(element_for_step(8, 4).is_err());
        assert!(element_for_step(8, -4).is_err());
        assert!(element_for_step(8, 8).is_err());
        // everything else wraps around the row.
        assert_eq!(
            element_for_step(8, 5).unwrap(),
            element_for_step(8, 1).unwrap()
        );
        assert_eq!(
            element_for_step(8, -5).unwrap(),
            element_for_step(8, 3).unwrap()
        );
    }

    #[test]
    fn element_for_step_matches_iterative_form_across_full_range() {
        // Pin the square-and-multiply against the historical O(k) scan for
        // every step the row supports, at the largest supported degree.
        for n in [1024usize, 8192] {
            let row = n / 2;
            let m = 2 * n as u64;
            let mut g_iter = 1u64;
            for k in 1..row {
                g_iter = g_iter * 3 % m;
                assert_eq!(
                    element_for_step(n, k as i64).unwrap(),
                    g_iter,
                    "n={n} k={k}"
                );
            }
            // And through the wrap-around on a few offsets.
            for k in [1i64, 7, (row - 1) as i64] {
                assert_eq!(
                    element_for_step(n, k + row as i64).unwrap(),
                    element_for_step(n, k).unwrap(),
                    "n={n} wrapped k={k}"
                );
            }
        }
    }

    #[test]
    fn galois_key_count_matches_l_ct() {
        let p = params();
        let mut kg = KeyGenerator::from_seed(p.clone(), 3);
        let gk = kg.galois_key(3).unwrap();
        assert_eq!(gk.pairs().len(), p.l_ct_at(0));
        assert_eq!(gk.permutation().len(), p.degree());
    }

    #[test]
    fn galois_keys_for_steps_dedupes() {
        let p = params();
        let row = p.row_size() as i64;
        let mut kg = KeyGenerator::from_seed(p, 4);
        // steps 1 and 1-row alias to the same element.
        let keys = kg.galois_keys_for_steps(&[1, 1 - row]).unwrap();
        assert_eq!(keys.len(), 1);
    }

    #[test]
    fn expansion_pairs_each_k0_with_its_seed_stream() {
        // The full-key entry points generate seeded and expand: same
        // generator state, same keys; and pair d's `a` is the d-th
        // polynomial of the key's seed stream over the key-switch chain.
        for p in [
            BfvParams::preset_rns_3x36(4096).unwrap(),
            BfvParams::preset_hybrid_2x36(4096).unwrap(),
        ] {
            let steps = [1, -2, 1];
            let seeded = KeyGenerator::from_seed(p.clone(), 12)
                .seeded_galois_keys_for_steps(&steps)
                .unwrap();
            let full = KeyGenerator::from_seed(p.clone(), 12)
                .galois_keys_for_steps(&steps)
                .unwrap();
            assert_eq!((seeded.len(), full.len()), (2, 2));
            let elements: Vec<u64> = seeded.iter().map(|k| k.element).collect();
            assert!(elements.windows(2).all(|w| w[0] < w[1]), "ascending");
            let ks = p.ks_chain_at(0);
            for sk in seeded.iter() {
                let key = full.get(sk.element).unwrap();
                assert_eq!(sk.k0().len(), p.ks_digits_at(0));
                let mut stream = UniformStream::new(sk.seed, ks);
                for (k0, (f0, f1)) in sk.k0().iter().zip(key.pairs()) {
                    let (f0, f1) = (&f0.unpack(), &f1.unpack());
                    assert_eq!(k0, f0);
                    assert_eq!(f1, &stream.next_poly());
                }
            }
            assert_eq!(seeded.get_for_step(4096, 1).unwrap().element, 3);
            assert!(matches!(
                seeded.get_for_step(4096, 5),
                Err(Error::MissingGaloisKey { step: Some(5), .. })
            ));
        }
    }

    #[test]
    fn key_byte_size_scales_with_limbs_and_digits() {
        let p1 = BfvParams::preset_single_60(4096).unwrap();
        let p2 = BfvParams::preset_rns_2x30(4096).unwrap();
        let mut kg1 = KeyGenerator::from_seed(p1.clone(), 6);
        let mut kg2 = KeyGenerator::from_seed(p2.clone(), 6);
        let k1 = kg1.galois_keys_for_steps(&[1]).unwrap();
        let k2 = kg2.galois_keys_for_steps(&[1]).unwrap();
        // Per-limb decomposition: one 60-bit limb carries ceil(60/20) = 3
        // digits; two 30-bit limbs carry 2·ceil(30/20) = 4 digits, each
        // over twice the planes. Every plane is packed at its limb's width.
        assert_eq!(k1.byte_size(&p1), 3 * 2 * 4096 * 60 / 8);
        assert_eq!(k2.byte_size(&p2), 4 * 2 * 2 * 4096 * 30 / 8);
    }

    #[test]
    fn multi_limb_pairs_are_rlwe_samples_of_scaled_secret() {
        // Every pair (i, d) must satisfy k0 + k1·s = A^d·q̂_i·s(x^g) + e
        // with small e — the invariant the RNS-native key switch consumes.
        let p = BfvParams::preset_rns_2x30(4096).unwrap();
        let mut kg = KeyGenerator::from_seed(p.clone(), 10);
        let g = element_for_step(p.degree(), 1).unwrap();
        let key = kg.seeded_galois_key(g).unwrap().expand(&p);
        let chain = p.chain();
        assert_eq!(key.pairs().len(), p.l_ct_at(0));

        let mut s_g = RnsPoly::zero(chain, Representation::Eval);
        s_g.permute_from(kg.secret_key().poly(), key.permutation());

        let mut idx = 0;
        for i in 0..chain.limbs() {
            let levels_i = chain.limb_decomposition_levels(p.a_dcmp(), i);
            for d in 0..levels_i {
                let (k0, k1) = &key.pairs()[idx];
                let (k0, k1) = (&k0.unpack(), &k1.unpack());
                // residual = k0 + k1·s − A^d·q̂_i·s(x^g) must be small.
                let mut residual = k1.clone();
                residual
                    .mul_assign_pointwise(kg.secret_key().poly(), chain)
                    .unwrap();
                residual.add_assign(k0, chain).unwrap();
                let mut scaled = s_g.clone();
                for (k, q) in chain.moduli().iter().enumerate() {
                    let mut sc = chain.crt().qhat_mod(i, k);
                    for _ in 0..d {
                        sc = q.mul_mod(sc, q.reduce(p.a_dcmp()));
                    }
                    simd::mul_scalar(scaled.limb_mut(k), sc, q);
                }
                residual.sub_assign(&scaled, chain).unwrap();
                residual.to_coeff(chain);
                let norm = residual.inf_norm_centered(chain).unwrap();
                assert!(norm <= 64, "pair ({i},{d}) residual too large: {norm}");
                idx += 1;
            }
        }
        assert_eq!(idx, key.pairs().len());
    }

    #[test]
    fn hybrid_pairs_are_rlwe_samples_of_p_scaled_secret() {
        // Every hybrid pair i must satisfy k0 + k1·s = P·q̂_i·s(x^g) + e
        // over the extended chain [q_0, q_1, P], with the signal exactly
        // zero on the special plane.
        let p = BfvParams::preset_hybrid_2x36(4096).unwrap();
        let mut kg = KeyGenerator::from_seed(p.clone(), 10);
        let g = element_for_step(p.degree(), 1).unwrap();
        let key = kg.seeded_galois_key(g).unwrap().expand(&p);
        let data = p.chain();
        let ks = p.ks_chain_at(0);
        let limbs = data.limbs();
        let p_val = p.special().unwrap().value();
        assert_eq!(key.pairs().len(), limbs);

        let s_ks = kg.ks_secret.clone().unwrap();
        let mut s_g = RnsPoly::zero(ks, Representation::Eval);
        s_g.permute_from(&s_ks, key.permutation());

        for (i, (k0, k1)) in key.pairs().iter().enumerate() {
            let (k0, k1) = (&k0.unpack(), &k1.unpack());
            assert_eq!(k0.limbs(), limbs + 1);
            let mut residual = k1.clone();
            residual.mul_assign_pointwise(&s_ks, ks).unwrap();
            residual.add_assign(k0, ks).unwrap();
            let mut scaled = s_g.clone();
            for k in 0..=limbs {
                let q = ks.modulus(k);
                let sc = if k < limbs {
                    q.mul_mod(q.reduce(p_val), data.crt().qhat_mod(i, k))
                } else {
                    0
                };
                simd::mul_scalar(scaled.limb_mut(k), sc, q);
            }
            residual.sub_assign(&scaled, ks).unwrap();
            residual.to_coeff(ks);
            let norm = residual.inf_norm_centered(ks).unwrap();
            assert!(norm <= 64, "hybrid pair {i} residual too large: {norm}");
            assert!(norm > 0);
        }
        assert_eq!(GaloisKeys::default().byte_size(&p), 0,);
        let mut set = GaloisKeys::default();
        set.insert(key);
        assert_eq!(set.byte_size(&p), limbs * 2 * (limbs + 1) * 4096 * 36 / 8);
    }

    #[test]
    fn hybrid_secret_matches_digit_twin_secret() {
        // Same data chain, t, and seed: the hybrid params' secret (and
        // hence every encryption) is identical to the digit twin's — only
        // key material diverges.
        let hybrid = BfvParams::preset_hybrid_2x36(4096).unwrap();
        let digit = BfvParams::builder()
            .degree(4096)
            .plain_bits(hybrid.plain_modulus().bits())
            .moduli_bits(&[36, 36])
            .build()
            .unwrap();
        assert_eq!(digit.chain(), hybrid.chain());
        let kg_d = KeyGenerator::from_seed(digit, 77);
        let kg_h = KeyGenerator::from_seed(hybrid, 77);
        assert_eq!(
            kg_d.secret_key().poly().data(),
            kg_h.secret_key().poly().data()
        );
    }

    #[test]
    fn missing_key_error() {
        let keys = GaloisKeys::default();
        assert!(matches!(
            keys.get(3),
            Err(Error::MissingGaloisKey {
                element: 3,
                step: None
            })
        ));
        assert!(keys.is_empty());
    }

    #[test]
    fn missing_key_for_step_names_the_step() {
        let keys = GaloisKeys::default();
        let g = element_for_step(1024, 5).unwrap();
        match keys.get_for_step(1024, 5) {
            Err(Error::MissingGaloisKey { element, step }) => {
                assert_eq!(element, g);
                assert_eq!(step, Some(5));
            }
            other => panic!("expected MissingGaloisKey, got {other:?}"),
        }
        // Identity steps have no element at all.
        assert!(matches!(
            keys.get_for_step(1024, 0),
            Err(Error::InvalidRotation(0))
        ));
    }

    #[test]
    fn invalid_galois_elements_are_rejected() {
        let p = params();
        let mut kg = KeyGenerator::from_seed(p, 9);
        assert!(matches!(
            kg.galois_key(4),
            Err(Error::InvalidGaloisElement(4))
        ));
        assert!(matches!(
            kg.galois_key(2 * 1024 + 1),
            Err(Error::InvalidGaloisElement(_))
        ));
        assert!(kg.galois_key(3).is_ok());
    }
}
