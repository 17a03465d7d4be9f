//! BFV ciphertexts.

use crate::noise::NoiseEstimate;
use crate::params::BfvParams;
use crate::rns::{Representation, RnsPoly};

/// A BFV ciphertext: a pair of RNS polynomials in evaluation (NTT) form.
///
/// Cheetah keeps ciphertexts in the evaluation domain by default and only
/// drops to coefficient form inside `HE_Rotate`'s decomposition and at
/// decryption (§III-B "Polynomial Representations") — this type enforces
/// that convention.
///
/// Each component stores one limb plane per **live** prime of the
/// parameter set's [`crate::rns::ModulusChain`]: a ciphertext carries a
/// [`Ciphertext::level`] counting how many limbs
/// [`crate::Evaluator::mod_switch_to_next_assign`] has dropped. Fresh encryptions
/// are level 0 (the full chain); every dropped limb shrinks the
/// ciphertext's storage, wire size, and the cost of every subsequent
/// operation. Operands of a binary operation must share a level — the
/// evaluator rejects mixed-level pairs with
/// [`crate::Error::LevelMismatch`].
///
/// Every ciphertext carries a live [`NoiseEstimate`] updated by each
/// operation, so the Table III model can be compared against measured noise
/// at any point.
#[derive(Debug, Clone, PartialEq)]
pub struct Ciphertext {
    c0: RnsPoly,
    c1: RnsPoly,
    params: BfvParams,
    noise: NoiseEstimate,
}

impl Ciphertext {
    /// Assembles a ciphertext from its components, returning typed errors
    /// instead of panicking — the constructor for attacker-reachable
    /// boundaries (wire decoding validates shapes through here before any
    /// arithmetic runs). Both polynomials must be in evaluation form;
    /// their (shared) limb count may be any live prefix of the chain —
    /// `params.limbs()` planes is level 0, fewer is a deeper level.
    ///
    /// # Errors
    ///
    /// [`crate::Error::WrongRepresentation`] for coefficient-form
    /// components, [`crate::Error::ParameterMismatch`] for a foreign
    /// degree or mismatched component shapes,
    /// [`crate::Error::InvalidLevel`] for a limb count outside the
    /// chain's `1..=limbs`.
    pub fn try_new(
        c0: RnsPoly,
        c1: RnsPoly,
        params: BfvParams,
        noise: NoiseEstimate,
    ) -> crate::error::Result<Self> {
        c0.expect_repr(Representation::Eval)?;
        c1.expect_repr(Representation::Eval)?;
        if c0.degree() != params.degree()
            || c1.degree() != params.degree()
            || c0.limbs() != c1.limbs()
        {
            return Err(crate::error::Error::ParameterMismatch);
        }
        if c0.limbs() < 1 || c0.limbs() > params.limbs() {
            // A limb count past the chain implies a (nonsensical) negative
            // level; report the out-of-range level the count maps to.
            return Err(crate::error::Error::InvalidLevel {
                requested: params.limbs().saturating_sub(c0.limbs()),
                current: 0,
                max: params.max_level(),
            });
        }
        Ok(Self {
            c0,
            c1,
            params,
            noise,
        })
    }

    /// [`Ciphertext::try_new`] for trusted internal callers.
    ///
    /// # Panics
    ///
    /// Panics if either polynomial is in coefficient form or its shape does
    /// not match a live prefix of the parameter set's chain.
    pub fn new(c0: RnsPoly, c1: RnsPoly, params: BfvParams, noise: NoiseEstimate) -> Self {
        assert_eq!(c0.representation(), Representation::Eval);
        assert_eq!(c1.representation(), Representation::Eval);
        assert_eq!(c0.degree(), params.degree());
        assert_eq!(c1.degree(), params.degree());
        assert_eq!(c0.limbs(), c1.limbs());
        assert!(
            c0.limbs() >= 1 && c0.limbs() <= params.limbs(),
            "component limb count {} outside the chain's 1..={}",
            c0.limbs(),
            params.limbs()
        );
        Self {
            c0,
            c1,
            params,
            noise,
        }
    }

    /// An encryption of zero with zero noise at `level` (additive
    /// identity; the accumulator or output seed matching operands at that
    /// level, since binary operations require equal levels). Marked
    /// transparent: it offers no security.
    ///
    /// # Panics
    ///
    /// Panics for a level past `params.max_level()`.
    pub fn transparent_zero_at(params: &BfvParams, level: usize) -> Self {
        Self {
            c0: RnsPoly::zero(params.chain_at(level), Representation::Eval),
            c1: RnsPoly::zero(params.chain_at(level), Representation::Eval),
            params: params.clone(),
            noise: NoiseEstimate::zero(),
        }
    }

    /// First component.
    pub fn c0(&self) -> &RnsPoly {
        &self.c0
    }

    /// Second component.
    pub fn c1(&self) -> &RnsPoly {
        &self.c1
    }

    /// Mutable components (for the evaluator).
    pub(crate) fn parts_mut(&mut self) -> (&mut RnsPoly, &mut RnsPoly) {
        (&mut self.c0, &mut self.c1)
    }

    /// Consumes into components.
    pub fn into_parts(self) -> (RnsPoly, RnsPoly) {
        (self.c0, self.c1)
    }

    /// Copies another ciphertext's polynomials and noise into this one,
    /// following its live-limb count (and so its level) with the buffers
    /// this one already has — the hot-path replacement for `clone` when a
    /// reusable destination exists. Allocation-free once this ciphertext
    /// has held `other`'s limb count.
    ///
    /// # Panics
    ///
    /// Panics if the degrees differ (parameter sets are checked by the
    /// evaluator entry points).
    pub fn copy_from(&mut self, other: &Ciphertext) {
        self.resize_live_limbs(other.live_limbs());
        self.c0.copy_from(&other.c0);
        self.c1.copy_from(&other.c1);
        self.noise = other.noise;
    }

    /// Parameter set.
    pub fn params(&self) -> &BfvParams {
        &self.params
    }

    /// Number of **live** RNS limbs per component (shrinks as limbs are
    /// dropped; alias of [`Ciphertext::live_limbs`]).
    pub fn limbs(&self) -> usize {
        self.c0.limbs()
    }

    /// Live limbs per component: `params.limbs() - level`.
    pub fn live_limbs(&self) -> usize {
        self.c0.limbs()
    }

    /// The ciphertext's level: how many limbs have been dropped from the
    /// chain (0 = fresh/full). Binary evaluator operations require equal
    /// levels; precomputations ([`crate::PreparedPlaintext`],
    /// [`crate::HoistedDecomposition`]) carry their own level alongside.
    pub fn level(&self) -> usize {
        self.params.limbs() - self.c0.limbs()
    }

    /// Resizes both components to `live` limb planes, reusing retained
    /// capacity (grown planes are zeroed, truncation keeps the live
    /// prefix). Evaluator plumbing for reusable output buffers whose level
    /// follows the operand's.
    pub(crate) fn resize_live_limbs(&mut self, live: usize) {
        self.c0.resize_limbs(live);
        self.c1.resize_limbs(live);
    }

    /// Current model-tracked noise estimate.
    pub fn noise(&self) -> &NoiseEstimate {
        &self.noise
    }

    /// Overwrites the tracked noise estimate (used by the evaluator).
    pub(crate) fn set_noise(&mut self, noise: NoiseEstimate) {
        self.noise = noise;
    }

    /// Remaining worst-case noise budget in bits (model, not measurement),
    /// against this ciphertext's own level ceiling `Q_ℓ/(2t)`.
    pub fn budget_bits(&self) -> f64 {
        self.noise.budget_bits_worst_at(&self.params, self.level())
    }

    /// In-memory size in bytes: two components of `live_limbs · n` 8-byte
    /// words each, so a modulus-switched ciphertext shrinks with its
    /// **live** limb count. The wire packs each limb plane at its limb's
    /// width instead ([`crate::wire::ciphertext_wire_bytes`]).
    pub fn byte_size(&self) -> usize {
        2 * self.live_limbs() * self.params.degree() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transparent_zero_has_no_noise() {
        let params = BfvParams::builder()
            .degree(1024)
            .cipher_bits(27)
            .plain_bits(16)
            .build()
            .unwrap();
        let z = Ciphertext::transparent_zero_at(&params, 0);
        assert_eq!(z.noise().bound_log2, f64::NEG_INFINITY);
        assert!(z.budget_bits().is_infinite());
        assert_eq!(z.byte_size(), 2 * 1024 * 8);
    }

    #[test]
    fn byte_size_scales_with_limb_count() {
        let p2 = BfvParams::preset_rns_2x30(4096).unwrap();
        let p3 = BfvParams::preset_rns_3x36(4096).unwrap();
        assert_eq!(
            Ciphertext::transparent_zero_at(&p2, 0).byte_size(),
            2 * 2 * 4096 * 8
        );
        assert_eq!(
            Ciphertext::transparent_zero_at(&p3, 0).byte_size(),
            2 * 3 * 4096 * 8
        );
    }
}
