//! Allocating conveniences for tests that read better with values than
//! with out-parameters.
//!
//! The engine has one form per operation: in place (`_assign`) or into a
//! caller-owned output (`_into`). [`Alloc`] gives tests back the value
//! form: each method clones its input, or starts from a transparent zero
//! at the operand's level, and runs that one in-place body with a fresh
//! `Scratch` — so residues, noise estimates and `OpCounts` are exactly
//! the in-place operation's. Test-only: no library crate exports it.
#![allow(dead_code)]

use cheetah_bfv::{
    Ciphertext, Evaluator, GaloisKeys, HoistedDecomposition, Plaintext, PreparedPlaintext, Result,
};

/// Value-returning forms of the in-place evaluator operations.
pub trait Alloc {
    /// `a + b`.
    fn add(&self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext>;
    /// `a + Δ_ℓ·pt`.
    fn add_plain(&self, a: &Ciphertext, pt: &Plaintext) -> Result<Ciphertext>;
    /// `a ⊙ pt`.
    fn mul_plain(&self, a: &Ciphertext, pt: &PreparedPlaintext) -> Result<Ciphertext>;
    /// `a` rotated left by `steps` row slots.
    fn rotate_rows(&self, a: &Ciphertext, steps: i64, keys: &GaloisKeys) -> Result<Ciphertext>;
    /// `a` with its last live limb dropped.
    fn mod_switch_to_next(&self, a: &Ciphertext) -> Result<Ciphertext>;
    /// `a` switched down to `level`.
    fn mod_switch_to(&self, a: &Ciphertext, level: usize) -> Result<Ciphertext>;
    /// The rotation-invariant decomposition of `a`.
    fn hoist(&self, a: &Ciphertext) -> Result<HoistedDecomposition>;
    /// A rotation of `a` replayed from its hoisted decomposition.
    fn rotate_hoisted(
        &self,
        a: &Ciphertext,
        hoisted: &HoistedDecomposition,
        steps: i64,
        keys: &GaloisKeys,
    ) -> Result<Ciphertext>;
}

/// A ciphertext for an `_into` operation to write, at `a`'s level.
fn output_for(a: &Ciphertext) -> Ciphertext {
    Ciphertext::transparent_zero_at(a.params(), a.level())
}

impl Alloc for Evaluator {
    fn add(&self, a: &Ciphertext, b: &Ciphertext) -> Result<Ciphertext> {
        let mut out = a.clone();
        self.add_assign(&mut out, b)?;
        Ok(out)
    }

    fn add_plain(&self, a: &Ciphertext, pt: &Plaintext) -> Result<Ciphertext> {
        let mut out = a.clone();
        self.add_plain_assign(&mut out, pt, &mut self.new_scratch())?;
        Ok(out)
    }

    fn mul_plain(&self, a: &Ciphertext, pt: &PreparedPlaintext) -> Result<Ciphertext> {
        let mut out = a.clone();
        self.mul_plain_assign(&mut out, pt)?;
        Ok(out)
    }

    fn rotate_rows(&self, a: &Ciphertext, steps: i64, keys: &GaloisKeys) -> Result<Ciphertext> {
        let mut out = output_for(a);
        self.rotate_rows_into(&mut out, a, steps, keys, &mut self.new_scratch())?;
        Ok(out)
    }

    fn mod_switch_to_next(&self, a: &Ciphertext) -> Result<Ciphertext> {
        let mut out = a.clone();
        self.mod_switch_to_next_assign(&mut out)?;
        Ok(out)
    }

    fn mod_switch_to(&self, a: &Ciphertext, level: usize) -> Result<Ciphertext> {
        let mut out = a.clone();
        self.mod_switch_to_assign(&mut out, level)?;
        Ok(out)
    }

    fn hoist(&self, a: &Ciphertext) -> Result<HoistedDecomposition> {
        let mut hoisted = HoistedDecomposition::empty(self.params());
        self.hoist_into(&mut hoisted, a, &mut self.new_scratch())?;
        Ok(hoisted)
    }

    fn rotate_hoisted(
        &self,
        a: &Ciphertext,
        hoisted: &HoistedDecomposition,
        steps: i64,
        keys: &GaloisKeys,
    ) -> Result<Ciphertext> {
        let mut out = output_for(a);
        self.rotate_hoisted_into(&mut out, a, hoisted, steps, keys, &mut self.new_scratch())?;
        Ok(out)
    }
}
