//! Leveled-evaluation guarantees, pinned:
//!
//! * modulus switching preserves decryption: an encrypt → (ops) →
//!   `mod_switch` → decrypt pipeline produces the same plaintext as the
//!   unswitched ciphertext, for every preset, at every level the noise
//!   model allows — and specifically one `mod_switch_to_next` on the
//!   3-limb preset (proptest-pinned);
//! * the model's switch transition is honest about when switching is
//!   *unsafe*: the 2x30 preset's 30-bit limbs over a 16-bit `t` leave no
//!   room for the rounding drift, so one switch leaves a negative
//!   worst-case budget, while 36-bit limbs drop happily;
//! * a 1-limb chain is level-0-only (`InvalidLevel`, not a panic);
//! * byte accounting follows the live level: a switched ciphertext
//!   shrinks in memory (`2·live·n·8`) and on the wire (the live planes,
//!   packed at their limbs' widths).

mod support;

use cheetah_bfv::{
    BatchEncoder, BfvParams, Ciphertext, Decryptor, Encryptor, Error, Evaluator, GaloisKeys,
    KeyGenerator,
};
use proptest::prelude::*;
use support::Alloc;

struct Ctx {
    params: BfvParams,
    encoder: BatchEncoder,
    enc: Encryptor,
    dec: Decryptor,
    eval: Evaluator,
    keys: GaloisKeys,
}

fn ctx(params: BfvParams, seed: u64) -> Ctx {
    let mut kg = KeyGenerator::from_seed(params.clone(), seed);
    let pk = kg.public_key().unwrap();
    let keys = kg.galois_keys_for_steps(&[1]).unwrap();
    Ctx {
        params: params.clone(),
        encoder: BatchEncoder::new(params.clone()),
        enc: Encryptor::from_public_key(pk, seed ^ 0x5eed),
        dec: Decryptor::new(kg.secret_key().clone()),
        eval: Evaluator::new(params),
        keys,
    }
}

/// The deepest level `ct` can be switched to while keeping `margin_bits`
/// of worst-case budget: walks the model's switch transitions down the
/// chain and stops before the first level under the margin.
fn deepest_safe_level(ct: &Ciphertext, params: &BfvParams, margin_bits: f64) -> usize {
    let mut est = *ct.noise();
    let mut level = ct.level();
    while level < params.max_level() {
        let next = est.mod_switch(params, level);
        if next.budget_bits_worst_at(params, level + 1) < margin_bits {
            break;
        }
        est = next;
        level += 1;
    }
    level
}

/// A 2-limb chain that *can* drop to a single live limb: 36-bit limbs
/// leave ~19 bits of ceiling over a 16-bit `t`, clearing the worst-case
/// rounding drift whether or not the congruent generator found primes.
fn switchable_2_limb() -> BfvParams {
    BfvParams::builder()
        .degree(4096)
        .plain_bits(16)
        .moduli_bits(&[36, 36])
        .a_dcmp(1 << 16)
        .build()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// encrypt → mul_plain → rotate → switch to the deepest safe level →
    /// decrypt equals the unswitched decrypt, for all three presets (the
    /// preset whose model allows no switch trivially stays put — that
    /// honesty is part of the contract) plus the deep-switchable chain.
    #[test]
    fn switched_pipeline_decrypts_identically_for_all_presets(
        seed in any::<u64>(),
        vals in proptest::collection::vec(0u64..30000, 32),
        weights in proptest::collection::vec(1u64..40, 32),
    ) {
        let mut presets = BfvParams::presets(4096).unwrap();
        presets.push(("switchable_2x36", switchable_2_limb()));
        for (name, params) in presets {
            let mut c = ctx(params, seed);
            let ct = c.enc.encrypt(&c.encoder.encode(&vals).unwrap()).unwrap();
            let pw = c
                .eval
                .prepare_plaintext_at(&c.encoder.encode(&weights).unwrap(), 0)
                .unwrap();
            let prod = c.eval.mul_plain(&ct, &pw).unwrap();
            let worked = c.eval.rotate_rows(&prod, 1, &c.keys).unwrap();
            let reference = c.encoder.decode(&c.dec.decrypt_checked(&worked).unwrap());

            let target = deepest_safe_level(&worked, &c.params, 1.0);
            let switched = c.eval.mod_switch_to(&worked, target).unwrap();
            prop_assert_eq!(switched.level(), target, "{}", name);
            let out = c.encoder.decode(&c.dec.decrypt_checked(&switched).unwrap());
            prop_assert_eq!(&out, &reference, "{}: switched decrypt diverged", name);

            // Measured noise obeys the transition model at the final level.
            let measured = c.dec.invariant_noise(&switched).unwrap() as f64;
            prop_assert!(
                measured.max(1.0).log2() <= switched.noise().bound_log2 + 1e-9,
                "{}: measured 2^{:.1} above bound 2^{:.1}",
                name,
                measured.log2(),
                switched.noise().bound_log2
            );
            // Wire size follows the live level.
            prop_assert_eq!(
                switched.byte_size(),
                2 * (c.params.limbs() - target) * 4096 * 8,
                "{}", name
            );
        }
    }

    /// The acceptance pin: one `mod_switch_to_next` on a fresh
    /// `preset_rns_3x36` ciphertext preserves decryption, and the
    /// reduced-level rotation still lands on the right slots.
    #[test]
    fn rns_3x36_single_switch_preserves_decryption(
        seed in any::<u64>(),
        vals in proptest::collection::vec(0u64..100_000, 48),
    ) {
        let mut c = ctx(BfvParams::preset_rns_3x36(4096).unwrap(), seed);
        let ct = c.enc.encrypt(&c.encoder.encode(&vals).unwrap()).unwrap();
        let reference = c.encoder.decode(&c.dec.decrypt_checked(&ct).unwrap());

        let switched = c.eval.mod_switch_to_next(&ct).unwrap();
        prop_assert_eq!(switched.level(), 1);
        prop_assert_eq!(switched.live_limbs(), 2);
        let out = c.encoder.decode(&c.dec.decrypt_checked(&switched).unwrap());
        prop_assert_eq!(&out, &reference, "switched decrypt diverged");

        let rotated = c.eval.rotate_rows(&switched, 1, &c.keys).unwrap();
        let rot_out = c.encoder.decode(&c.dec.decrypt_checked(&rotated).unwrap());
        let row = c.params.row_size();
        for j in 0..47 {
            prop_assert_eq!(rot_out[j], reference[j + 1], "slot {}", j);
        }
        prop_assert_eq!(rot_out[row - 1], reference[0], "wrap-around");
    }
}

#[test]
fn one_limb_chain_is_level_zero_only() {
    let mut c = ctx(BfvParams::preset_single_60(4096).unwrap(), 17);
    let ct = c
        .enc
        .encrypt(&c.encoder.encode(&[1, 2, 3]).unwrap())
        .unwrap();
    assert_eq!(c.params.max_level(), 0);
    assert!(matches!(
        c.eval.mod_switch_to_next(&ct),
        Err(Error::InvalidLevel {
            requested: 1,
            current: 0,
            max: 0
        })
    ));
    // mod_switch_to(0) is the identity, not an error.
    let same = c.eval.mod_switch_to(&ct, 0).unwrap();
    assert_eq!(same.c0().data(), ct.c0().data());
}

#[test]
fn model_refuses_unswitchable_2x30_but_mechanics_stay_bounded() {
    // 30-bit limbs over a 16-bit t: Q' mod t is a generic ~2^15 residue
    // while the one-limb ceiling is ~2^13 — the drift alone can overflow,
    // so the model must keep the preset at level 0. The switch itself
    // still runs and its measured noise still obeys the transition bound;
    // the bound simply exceeds the ceiling (negative modeled budget).
    let mut c = ctx(BfvParams::preset_rns_2x30(4096).unwrap(), 23);
    let vals: Vec<u64> = (0..64).map(|i| i * 131 % 40000).collect();
    let ct = c.enc.encrypt(&c.encoder.encode(&vals).unwrap()).unwrap();
    assert!(
        ct.noise()
            .mod_switch(&c.params, 0)
            .budget_bits_worst_at(&c.params, 1)
            < 0.0,
        "2x30 must leave no worst-case budget after one switch"
    );
    let switched = c.eval.mod_switch_to_next(&ct).unwrap();
    let measured = c.dec.invariant_noise(&switched).unwrap() as f64;
    assert!(measured.max(1.0).log2() <= switched.noise().bound_log2 + 1e-9);
}

#[test]
fn switched_ciphertext_shrinks_on_the_wire() {
    // Satellite: byte accounting reflects the live level, end to end.
    let mut c = ctx(BfvParams::preset_rns_3x36(4096).unwrap(), 29);
    let ct = c
        .enc
        .encrypt(&c.encoder.encode(&[7, 8, 9]).unwrap())
        .unwrap();
    assert_eq!(ct.byte_size(), 2 * 3 * 4096 * 8);
    let l1 = c.eval.mod_switch_to_next(&ct).unwrap();
    assert_eq!(l1.byte_size(), 2 * 2 * 4096 * 8);
    let l2 = c.eval.mod_switch_to_next(&l1).unwrap();
    assert_eq!(l2.byte_size(), 2 * 4096 * 8);
    assert!(l2.byte_size() < l1.byte_size() && l1.byte_size() < ct.byte_size());
    // On the wire every level is its live planes, packed.
    let sizes: Vec<usize> = [&ct, &l1, &l2]
        .iter()
        .map(|x| cheetah_bfv::wire::encode_ciphertext(x).len())
        .collect();
    let expect: Vec<usize> = (0..3)
        .map(|level| cheetah_bfv::wire::ciphertext_wire_bytes(&c.params, level))
        .collect();
    assert_eq!(sizes, expect);
    assert!(sizes[2] < sizes[1] && sizes[1] < sizes[0]);
    // The transparent accumulator for a level matches its operands.
    let z = Ciphertext::transparent_zero_at(&c.params, 2);
    assert_eq!(z.byte_size(), l2.byte_size());
}
