//! Packed dot products under both schedules — the Fig. 5 experiment on the
//! real BFV engine.
//!
//! * [`dot_partial_aligned`] (Sched-PA): one multiplication on the *fresh*
//!   input, then a rotate-and-sum reduction — the doubling ladder or its
//!   BSGS reshape, whichever the cost model prices cheaper (every plan
//!   computes the identical sum). Noise `≈ ηM·v0 + log(d)·ηA`.
//! * [`dot_input_aligned`] (Sched-IA): rotate the input to align each
//!   element with slot 0, then multiply — every multiplication sees a
//!   rotated (noisier) ciphertext. Noise `≈ d·ηM·(v0 + ηA)`.
//!
//! Both produce the exact dot product in slot 0; the noise gap is what
//! Sched-PA converts into cheaper HE parameters.

use cheetah_bfv::{BatchEncoder, Ciphertext, Evaluator, GaloisKeys, HoistedDecomposition, Result};

use crate::cost::HeCostParams;
use crate::linear::{rotate_sum_reduce, ReducePlan};

/// Shared scratch buffers for the dot-product loops: one rotation target
/// plus a per-call [`cheetah_bfv::Scratch`], so the reductions run on the
/// evaluator's zero-allocation path instead of the allocating wrappers.
struct RotateScratch {
    scratch: cheetah_bfv::Scratch,
    rotated: Ciphertext,
}

impl RotateScratch {
    fn new(eval: &Evaluator) -> Self {
        Self {
            scratch: eval.new_scratch(),
            rotated: Ciphertext::transparent_zero(eval.params()),
        }
    }
}

/// Rotation steps [`dot_partial_aligned`] may need for length-`d` inputs
/// when the parameter set is not known yet: `1..d`, a superset of every
/// reduction plan's steps (ladder strides are the powers of two below
/// `d`; BSGS baby and giant strides are arbitrary multiples below `d`).
/// With the parameter set in hand, [`pa_plan_steps`] returns the exact —
/// `O(log d)` or `O(√d)` — set the chosen plan performs.
pub fn pa_required_steps(d: usize) -> Vec<i64> {
    assert!(d.is_power_of_two(), "dot length must be a power of two");
    (1..d as i64).collect()
}

/// The exact rotation steps [`dot_partial_aligned`] performs for
/// length-`d` inputs under `params`: the reduction plan is chosen
/// deterministically from the parameter set's level-0 cost model, so keys
/// generated for these steps (and nothing more) always suffice.
pub fn pa_plan_steps(d: usize, params: &cheetah_bfv::BfvParams) -> Vec<i64> {
    assert!(d.is_power_of_two(), "dot length must be a power of two");
    ReducePlan::choose(d, &HeCostParams::for_bfv(params, 0)).steps(d, 1)
}

/// Rotation steps [`dot_input_aligned`] needs for length-`d` inputs.
pub fn ia_required_steps(d: usize) -> Vec<i64> {
    (1..d as i64).collect()
}

/// Sched-PA dot product: `multiply, then rotate partials into place`.
///
/// `ct` packs `x[0..d]` in the first `d` row slots (rest zero); `weights`
/// holds `w[0..d]`. The result lands in slot 0.
///
/// # Errors
///
/// Propagates BFV evaluation errors (missing keys, parameter mismatch).
pub fn dot_partial_aligned(
    ct: &Ciphertext,
    weights: &[i64],
    encoder: &BatchEncoder,
    eval: &Evaluator,
    keys: &GaloisKeys,
) -> Result<Ciphertext> {
    let d = weights.len();
    assert!(d.is_power_of_two(), "dot length must be a power of two");
    // One multiplication against the fresh input.
    let w_pt = encoder.encode_signed(weights)?;
    let prepared = eval.prepare_plaintext(&w_pt)?;
    let acc = eval.mul_plain(ct, &prepared)?;
    // Rotate-and-sum reduction on the scratch path, under the plan the
    // cost model picks for this parameter set: the doubling ladder is a
    // dependent chain (each rotation reads the fresh accumulator); the
    // BSGS reshape replaces it with two hoistable same-source replay
    // sets. Chosen from the level-0 cost so the step set is deterministic
    // per parameter set ([`pa_plan_steps`]) regardless of the input's
    // current level.
    let plan = ReducePlan::choose(d, &HeCostParams::for_bfv(eval.params(), 0));
    let mut rs = RotateScratch::new(eval);
    let mut hoisted = HoistedDecomposition::empty(eval.params());
    rotate_sum_reduce(
        acc,
        1,
        d,
        plan,
        eval,
        keys,
        &mut rs.scratch,
        &mut rs.rotated,
        &mut hoisted,
    )
}

/// Sched-IA dot product: `rotate the input first, then multiply`
/// (prior-art ordering, Fig. 5 left).
///
/// All `d − 1` rotations act on the same fresh input, so its INTT + digit
/// decomposition is hoisted once for the whole set and each alignment
/// pays only the key-switch sum; the `d` aligned copies then meet their
/// slot-0 weights in one lazy pass
/// ([`Evaluator::mul_plain_accumulate_many`]).
///
/// # Errors
///
/// Propagates BFV evaluation errors (missing keys, parameter mismatch).
pub fn dot_input_aligned(
    ct: &Ciphertext,
    weights: &[i64],
    encoder: &BatchEncoder,
    eval: &Evaluator,
    keys: &GaloisKeys,
) -> Result<Ciphertext> {
    // w placed at slot 0 only.
    let masks = weights
        .iter()
        .map(|&w| {
            let mut mask = vec![0i64; encoder.slots()];
            mask[0] = w;
            eval.prepare_plaintext(&encoder.encode_signed(&mask)?)
        })
        .collect::<Result<Vec<_>>>()?;
    // x[0] is already aligned: no rotation, and no hoist at all when the
    // dot product is a single term.
    let mut aligned: Vec<Ciphertext> = Vec::new();
    if weights.len() > 1 {
        let steps: Vec<i64> = (1..weights.len() as i64).collect();
        let mut hoisted = HoistedDecomposition::empty(eval.params());
        eval.rotate_set_hoisted_into(
            &mut aligned,
            ct,
            &steps,
            keys,
            &mut hoisted,
            &mut eval.new_scratch(),
        )?;
    }
    let terms: Vec<_> = std::iter::once(ct).chain(&aligned).zip(&masks).collect();
    // The accumulator follows the input's level (modulus-switched inputs
    // run the alignment set over their live limbs only).
    let mut acc = Ciphertext::transparent_zero_at(eval.params(), ct.level());
    eval.mul_plain_accumulate_many(&mut acc, &terms)?;
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheetah_bfv::{BfvParams, Decryptor, Encryptor, KeyGenerator};

    struct Ctx {
        encoder: BatchEncoder,
        enc: Encryptor,
        dec: Decryptor,
        eval: Evaluator,
        keys: GaloisKeys,
    }

    fn ctx(d: usize) -> Ctx {
        let params = BfvParams::builder()
            .degree(4096)
            .plain_bits(16)
            .cipher_bits(60)
            .a_dcmp(1 << 6)
            .build()
            .unwrap();
        let mut kg = KeyGenerator::from_seed(params.clone(), 31);
        let pk = kg.public_key().unwrap();
        let mut steps = pa_required_steps(d);
        steps.extend(ia_required_steps(d));
        let keys = kg.galois_keys_for_steps(&steps).unwrap();
        Ctx {
            encoder: BatchEncoder::new(params.clone()),
            enc: Encryptor::from_public_key(pk, 32),
            dec: Decryptor::new(kg.secret_key().clone()),
            eval: Evaluator::new(params),
            keys,
        }
    }

    #[test]
    fn both_schedules_compute_the_same_dot_product() {
        let d = 16;
        let mut c = ctx(d);
        let x: Vec<i64> = (0..d as i64).map(|i| i - 7).collect();
        let w: Vec<i64> = (0..d as i64).map(|i| 2 * i - 9).collect();
        let expect: i64 = x.iter().zip(&w).map(|(&a, &b)| a * b).sum();

        let ct = c
            .enc
            .encrypt(&c.encoder.encode_signed(&x).unwrap())
            .unwrap();
        let pa = dot_partial_aligned(&ct, &w, &c.encoder, &c.eval, &c.keys).unwrap();
        let ia = dot_input_aligned(&ct, &w, &c.encoder, &c.eval, &c.keys).unwrap();

        let pa_out = c
            .encoder
            .decode_signed(&c.dec.decrypt_checked(&pa).unwrap());
        let ia_out = c
            .encoder
            .decode_signed(&c.dec.decrypt_checked(&ia).unwrap());
        assert_eq!(pa_out[0], expect);
        assert_eq!(ia_out[0], expect);
    }

    #[test]
    fn pa_has_measurably_less_noise_than_ia() {
        // The §V-A claim, on real ciphertexts.
        let d = 16;
        let mut c = ctx(d);
        let x: Vec<i64> = (1..=d as i64).collect();
        let w: Vec<i64> = (1..=d as i64).collect();
        let ct = c
            .enc
            .encrypt(&c.encoder.encode_signed(&x).unwrap())
            .unwrap();
        let pa = dot_partial_aligned(&ct, &w, &c.encoder, &c.eval, &c.keys).unwrap();
        let ia = dot_input_aligned(&ct, &w, &c.encoder, &c.eval, &c.keys).unwrap();
        let pa_budget = c.dec.invariant_noise_budget(&pa).unwrap();
        let ia_budget = c.dec.invariant_noise_budget(&ia).unwrap();
        assert!(
            pa_budget > ia_budget + 1.0,
            "PA budget {pa_budget:.1} should beat IA budget {ia_budget:.1} by >1 bit"
        );
        // Model agrees with measurement on the ordering.
        assert!(pa.noise().bound_log2 < ia.noise().bound_log2);
    }

    #[test]
    fn pa_step_helper() {
        // The PA step set is now a plan superset: any ladder stride or
        // BSGS baby/giant stride the cost model may pick lives in [1, d).
        assert_eq!(pa_required_steps(8), vec![1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(ia_required_steps(4), vec![1, 2, 3]);
    }

    #[test]
    fn pa_plan_steps_suffice_and_beat_the_superset() {
        // Keys generated for exactly the plan's steps (no superset) must
        // carry a full PA dot product — and stay well below the d − 1
        // superset size.
        let d = 16usize;
        let params = cheetah_bfv::BfvParams::builder()
            .degree(4096)
            .plain_bits(16)
            .cipher_bits(60)
            .a_dcmp(1 << 6)
            .build()
            .unwrap();
        let steps = pa_plan_steps(d, &params);
        assert!(
            steps.len() < d - 1,
            "plan steps {steps:?} should undercut the 1..d superset"
        );
        let mut kg = cheetah_bfv::KeyGenerator::from_seed(params.clone(), 61);
        let pk = kg.public_key().unwrap();
        let keys = kg.galois_keys_for_steps(&steps).unwrap();
        let encoder = BatchEncoder::new(params.clone());
        let mut enc = cheetah_bfv::Encryptor::from_public_key(pk, 62);
        let dec = cheetah_bfv::Decryptor::new(kg.secret_key().clone());
        let eval = Evaluator::new(params);

        let x: Vec<i64> = (0..d as i64).map(|i| i - 5).collect();
        let w: Vec<i64> = (0..d as i64).map(|i| 2 * i - 3).collect();
        let ct = enc.encrypt(&encoder.encode_signed(&x).unwrap()).unwrap();
        let out = dot_partial_aligned(&ct, &w, &encoder, &eval, &keys).unwrap();
        let slots = encoder.decode_signed(&dec.decrypt_checked(&out).unwrap());
        let expect: i64 = x.iter().zip(&w).map(|(&a, &b)| a * b).sum();
        assert_eq!(slots[0], expect);
    }

    #[test]
    fn pa_reduction_plans_agree_with_ladder() {
        // The BSGS reshape of the rotate-and-sum must produce the exact
        // ladder result in every slot, not just slot 0.
        let d = 16;
        let mut c = ctx(d);
        let x: Vec<i64> = (0..d as i64).map(|i| 3 * i - 11).collect();
        let w: Vec<i64> = (0..d as i64).map(|i| i - 4).collect();
        let ct = c
            .enc
            .encrypt(&c.encoder.encode_signed(&x).unwrap())
            .unwrap();
        let prepared = c
            .eval
            .prepare_plaintext(&c.encoder.encode_signed(&w).unwrap())
            .unwrap();
        let prod = c.eval.mul_plain(&ct, &prepared).unwrap();

        let mut results = Vec::new();
        for plan in [
            ReducePlan::Ladder,
            ReducePlan::Bsgs { s: 4, g: 4 },
            ReducePlan::Bsgs { s: 16, g: 1 },
            ReducePlan::Bsgs { s: 2, g: 8 },
        ] {
            let mut rs = RotateScratch::new(&c.eval);
            let mut hoisted = HoistedDecomposition::empty(c.eval.params());
            let out = rotate_sum_reduce(
                prod.clone(),
                1,
                d,
                plan,
                &c.eval,
                &c.keys,
                &mut rs.scratch,
                &mut rs.rotated,
                &mut hoisted,
            )
            .unwrap();
            results.push(
                c.encoder
                    .decode_signed(&c.dec.decrypt_checked(&out).unwrap()),
            );
        }
        for r in &results[1..] {
            assert_eq!(r, &results[0], "reduction plans diverged");
        }
        let expect: i64 = x.iter().zip(&w).map(|(&a, &b)| a * b).sum();
        assert_eq!(results[0][0], expect);
    }
}
