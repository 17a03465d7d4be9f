//! Reusable scratch memory for the evaluator hot path.
//!
//! Every allocating seed-era evaluator operation cloned one or two full
//! ciphertext polynomials per call; at Cheetah parameters (`n = 4096`,
//! one 60-bit limb) that is 64 KiB of fresh heap per `HE_Add`, and the
//! cost scales with the limb count of the RNS chain. A [`Scratch`] owns a
//! small pool of [`RnsPoly`] buffers plus a persistent set of digit
//! polynomials for the key-switch decomposition, so the in-place
//! operation family (`Evaluator::add_assign`, `Evaluator::mul_plain_assign`,
//! `Evaluator::apply_galois_into`, …) performs **zero heap allocations
//! after warmup** — verified by the counting-allocator test in
//! `crates/bfv/tests/zero_alloc.rs`.
//!
//! The pool is **level-aware**: modulus-switched ciphertexts carry fewer
//! live limb planes, so buffers are pooled per live-limb count
//! ([`Scratch::take_poly_limbs`]) and the digit store reshapes when the
//! working level changes. Steady state within one level — the common case,
//! since a linear layer runs entirely at the level its input was switched
//! to — still never touches the allocator.
//!
//! Threading model: a `Scratch` is plain owned data, never shared. Whoever
//! steps a session holds one (the serving crate's pool hands each worker
//! thread its own for a sweep and keeps them warm in between), so sessions
//! in parallel never contend for memory. The [`crate::Evaluator`] also
//! keeps one internal pool behind a lock for `HE_ModSwitch`'s temporary
//! plane.

use crate::ciphertext::Ciphertext;
use crate::evaluator::HoistedDecomposition;
use crate::noise::NoiseEstimate;
use crate::params::BfvParams;
use crate::rns::{Representation, RnsPoly};

/// A pool of reusable polynomial buffers for degree-`n` chains of up to
/// `limbs` planes.
///
/// `take_poly`/`take_poly_limbs`/`put_poly` lease buffers in LIFO order
/// per live-limb count; the key switch leases a persistent digit store
/// and shapes it to its level. All buffers keep their capacity across
/// uses, so steady-state operation never touches the allocator.
#[derive(Debug)]
pub struct Scratch {
    n: usize,
    limbs: usize,
    /// `free[k-1]`: pooled buffers of `k · n` words (live-limb count `k`).
    free: Vec<Vec<Vec<u64>>>,
    /// The key-switch digit store: `ks_digits_at(level)` polynomials on
    /// `ks_chain_at(level)`, reshaped by the key switch when the level
    /// changes.
    digits: Vec<RnsPoly>,
    /// The hoist store between [`Scratch::take_hoisted`] leases.
    hoisted: Option<HoistedDecomposition>,
}

impl Scratch {
    /// Creates an empty pool for up-to-`limbs`-limb, degree-`n`
    /// polynomials. Buffers are allocated lazily on first use and reused
    /// afterwards.
    pub fn new(n: usize, limbs: usize) -> Self {
        assert!(limbs >= 1, "a chain has at least one limb");
        Self {
            n,
            limbs,
            free: vec![Vec::new(); limbs],
            digits: Vec::new(),
            hoisted: None,
        }
    }

    /// Polynomial degree this pool serves.
    #[inline]
    pub fn degree(&self) -> usize {
        self.n
    }

    /// Maximum limb count this pool serves (the chain's level-0 width).
    #[inline]
    pub fn limbs(&self) -> usize {
        self.limbs
    }

    /// Leases a full-width (level-0) polynomial with arbitrary (dirty)
    /// contents in the given representation. Return it with
    /// [`Scratch::put_poly`] when done.
    pub fn take_poly(&mut self, repr: Representation) -> RnsPoly {
        self.take_poly_limbs(self.limbs, repr)
    }

    /// Leases a polynomial with `limbs` live planes (a reduced level's
    /// shape), dirty contents, in the given representation.
    ///
    /// # Panics
    ///
    /// Panics when `limbs` is outside `1..=self.limbs()`.
    pub fn take_poly_limbs(&mut self, limbs: usize, repr: Representation) -> RnsPoly {
        assert!(
            limbs >= 1 && limbs <= self.limbs,
            "live limb count {limbs} outside this pool's 1..={}",
            self.limbs
        );
        let words = limbs * self.n;
        let buf = self.free[limbs - 1].pop().unwrap_or_else(|| vec![0; words]);
        debug_assert_eq!(buf.len(), words);
        RnsPoly::from_data(buf, limbs, self.n, repr)
    }

    /// Returns a leased polynomial's buffer to the pool (any live-limb
    /// count this pool serves).
    ///
    /// # Panics
    ///
    /// Panics if the polynomial's shape does not match the pool.
    pub fn put_poly(&mut self, poly: RnsPoly) {
        let limbs = poly.limbs();
        assert!(
            poly.degree() == self.n && limbs >= 1 && limbs <= self.limbs,
            "foreign buffer returned to scratch"
        );
        let buf = poly.into_data();
        debug_assert_eq!(buf.len(), limbs * self.n);
        self.free[limbs - 1].push(buf);
    }

    /// Leases the digit store itself, whatever its shape: a key switch
    /// shapes it to `BfvParams::ks_digits_at(level)` digits of
    /// `BfvParams::ks_chain_at(level)`'s planes (one allocation per level
    /// change, not per operation) and holds it across two halves that
    /// each lease buffers of their own. Return it with
    /// [`Scratch::put_digits`].
    pub(crate) fn take_digits(&mut self) -> Vec<RnsPoly> {
        std::mem::take(&mut self.digits)
    }

    /// Returns the leased digit store.
    pub(crate) fn put_digits(&mut self, digits: Vec<RnsPoly>) {
        self.digits = digits;
    }

    /// Leases a transparent-zero ciphertext at `level` (both components
    /// zeroed, evaluation form) — the group-accumulator shape of BSGS
    /// layers, drawn from the same per-live-limb-count pools as
    /// [`Scratch::take_poly_limbs`]. Return it with [`Scratch::put_ct`].
    ///
    /// # Panics
    ///
    /// Panics when the level's live-limb count is outside this pool's
    /// range, or for a foreign parameter degree.
    pub fn take_ct(&mut self, params: &BfvParams, level: usize) -> Ciphertext {
        assert_eq!(params.degree(), self.n, "foreign parameter set");
        let live = params.live_limbs_at(level);
        let mut c0 = self.take_poly_limbs(live, Representation::Eval);
        let mut c1 = self.take_poly_limbs(live, Representation::Eval);
        c0.fill_zero();
        c1.fill_zero();
        Ciphertext::new(c0, c1, params.clone(), NoiseEstimate::zero())
    }

    /// Returns a leased ciphertext's buffers to the pool.
    ///
    /// # Panics
    ///
    /// Panics if the ciphertext's shape does not match the pool.
    pub fn put_ct(&mut self, ct: Ciphertext) {
        let (c0, c1) = ct.into_parts();
        self.put_poly(c0);
        self.put_poly(c1);
    }

    /// Leases the pool's [`HoistedDecomposition`] — its digit storage
    /// (`ks_digits_at(level)` polynomials on the key-switch chain, the
    /// largest single buffer of a BSGS layer) warm from the previous
    /// layer — or an empty one on first use. Return it with
    /// [`Scratch::put_hoisted`].
    pub fn take_hoisted(&mut self, params: &BfvParams) -> HoistedDecomposition {
        self.hoisted
            .take()
            .unwrap_or_else(|| HoistedDecomposition::empty(params))
    }

    /// Returns a leased hoist store to the pool.
    pub fn put_hoisted(&mut self, hoisted: HoistedDecomposition) {
        self.hoisted = Some(hoisted);
    }

    /// Number of pooled free buffers across all sizes (diagnostic).
    pub fn pooled(&self) -> usize {
        self.free.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_and_return_reuses_buffers() {
        let mut s = Scratch::new(16, 2);
        let a = s.take_poly(Representation::Coeff);
        assert_eq!(a.limbs(), 2);
        assert_eq!(a.degree(), 16);
        let ptr = a.data().as_ptr();
        s.put_poly(a);
        assert_eq!(s.pooled(), 1);
        let b = s.take_poly(Representation::Eval);
        assert_eq!(b.data().as_ptr(), ptr, "buffer must be recycled");
        assert_eq!(b.representation(), Representation::Eval);
        assert_eq!(s.pooled(), 0);
    }

    #[test]
    fn pools_are_per_live_limb_count() {
        let mut s = Scratch::new(8, 3);
        let full = s.take_poly(Representation::Coeff);
        let reduced = s.take_poly_limbs(2, Representation::Coeff);
        assert_eq!(full.limbs(), 3);
        assert_eq!(reduced.limbs(), 2);
        let reduced_ptr = reduced.data().as_ptr();
        s.put_poly(full);
        s.put_poly(reduced);
        assert_eq!(s.pooled(), 2);
        // Re-leasing at 2 limbs must recycle the 2-limb buffer, not slice
        // the 3-limb one.
        let again = s.take_poly_limbs(2, Representation::Eval);
        assert_eq!(again.data().as_ptr(), reduced_ptr);
        assert_eq!(s.pooled(), 1);
    }

    /// Rotates `ct` by one step through `s`, then returns the digit
    /// store's `(count, planes, address of the first digit)`.
    fn rotate_and_inspect(
        eval: &crate::Evaluator,
        ct: &Ciphertext,
        keys: &crate::GaloisKeys,
        s: &mut Scratch,
    ) -> (usize, usize, *const u64) {
        let mut out = Ciphertext::transparent_zero_at(eval.params(), 0);
        eval.rotate_rows_into(&mut out, ct, 1, keys, s).unwrap();
        let digits = s.take_digits();
        let shape = (digits.len(), digits[0].limbs(), digits[0].data().as_ptr());
        s.put_digits(digits);
        shape
    }

    fn rotation_fixture(params: &BfvParams) -> (crate::Evaluator, Ciphertext, crate::GaloisKeys) {
        let mut kg = crate::KeyGenerator::from_seed(params.clone(), 3);
        let keys = kg.galois_keys_for_steps(&[1]).unwrap();
        let pt = crate::BatchEncoder::new(params.clone())
            .encode(&[1, 2])
            .unwrap();
        let ct = crate::Encryptor::from_secret_key(kg.secret_key().clone(), 4)
            .encrypt(&pt)
            .unwrap();
        (crate::Evaluator::new(params.clone()), ct, keys)
    }

    #[test]
    fn digits_grow_once_and_persist() {
        // The key switch's digit store is allocated by the first rotation
        // and recycled, same buffer, by every later one at that level.
        let params = BfvParams::preset_rns_2x30(4096).unwrap();
        let (eval, ct, keys) = rotation_fixture(&params);
        let mut s = Scratch::new(params.degree(), params.scratch_limbs());
        let first = rotate_and_inspect(&eval, &ct, &keys, &mut s);
        assert_eq!((first.0, first.1), (params.ks_digits_at(0), 2));
        let again = rotate_and_inspect(&eval, &ct, &keys, &mut s);
        assert_eq!(again, first, "digit storage persists");
    }

    #[test]
    fn digit_store_reshapes_on_level_change() {
        // One scratch, rotations at two levels: the key switch reshapes the
        // store to each level's ks_digits_at × ks_chain_at planes.
        for params in [
            BfvParams::preset_rns_3x36(4096).unwrap(),
            BfvParams::preset_hybrid_2x36(4096).unwrap(),
        ] {
            let (eval, ct, keys) = rotation_fixture(&params);
            let mut s = Scratch::new(params.degree(), params.scratch_limbs());
            for level in [0, 1, 0] {
                let mut at = ct.clone();
                eval.mod_switch_to_assign(&mut at, level).unwrap();
                let (count, planes, _) = rotate_and_inspect(&eval, &at, &keys, &mut s);
                assert_eq!(count, params.ks_digits_at(level), "level {level}");
                assert_eq!(
                    planes,
                    params.ks_chain_at(level).limbs(),
                    "digits reshape to the live level"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "foreign buffer")]
    fn rejects_foreign_buffer() {
        let mut s = Scratch::new(8, 2);
        s.put_poly(RnsPoly::zero_with(3, 8, Representation::Coeff));
    }

    #[test]
    fn ciphertext_lease_recycles_polynomial_buffers() {
        let params = BfvParams::builder()
            .degree(2048)
            .plain_bits(16)
            .moduli_bits(&[54])
            .build()
            .unwrap();
        let mut s = Scratch::new(params.degree(), params.limbs());
        let ct = s.take_ct(&params, 0);
        assert_eq!(ct.live_limbs(), params.limbs());
        assert!(ct.c0().data().iter().all(|&w| w == 0));
        let ptr = ct.c0().data().as_ptr();
        s.put_ct(ct);
        assert_eq!(s.pooled(), 2);
        let again = s.take_ct(&params, 0);
        // One of the two pooled buffers backs the new c0 (LIFO order).
        assert!(std::ptr::eq(again.c0().data().as_ptr(), ptr) || s.pooled() == 0);
        s.put_ct(again);
    }
}
