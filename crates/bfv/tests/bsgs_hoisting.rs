//! The evaluator-level guarantees BSGS layers are built on, pinned:
//!
//! * a hoisted baby-step set ([`Evaluator::rotate_set_hoisted_into`])
//!   decrypts identically to direct rotations, for every preset and at
//!   every level — the hoisted-vs-direct giant-step identity;
//! * a BSGS-shaped rotate-and-sum (hoisted babies + direct giants) equals
//!   the all-direct dependent chain it replaces, slot for slot;
//! * every negative path of the new BSGS shapes fires its typed error:
//!   mixed-level group accumulators ([`Error::LevelMismatch`]), stale
//!   hoist reuse across a modulus switch ([`Error::LevelMismatch`]),
//!   foreign-fingerprint hoisted replay ([`Error::ParameterMismatch`]),
//!   and invalid switch targets ([`Error::InvalidLevel`]).

mod support;

use cheetah_bfv::{
    BatchEncoder, BfvParams, Ciphertext, Decryptor, Encryptor, Error, Evaluator, GaloisKeys,
    HoistedDecomposition, KeyGenerator,
};
use proptest::prelude::*;
use support::Alloc;

struct Ctx {
    encoder: BatchEncoder,
    enc: Encryptor,
    dec: Decryptor,
    eval: Evaluator,
    keys: GaloisKeys,
}

fn ctx(params: BfvParams, seed: u64) -> Ctx {
    let mut kg = KeyGenerator::from_seed(params.clone(), seed);
    let pk = kg.public_key().unwrap();
    let steps: Vec<i64> = (1..16).collect();
    let keys = kg.galois_keys_for_steps(&steps).unwrap();
    Ctx {
        encoder: BatchEncoder::new(params.clone()),
        enc: Encryptor::from_public_key(pk, seed ^ 0x5eed),
        dec: Decryptor::new(kg.secret_key().clone()),
        eval: Evaluator::new(params),
        keys,
    }
}

fn values(n: usize) -> Vec<u64> {
    (0..n as u64).map(|i| (i * 37 + 11) % 500).collect()
}

#[test]
fn hoisted_baby_set_matches_direct_rotations_per_preset_and_level() {
    for (name, params) in BfvParams::presets(4096).unwrap() {
        let mut c = ctx(params.clone(), 91);
        let fresh = c
            .enc
            .encrypt(&c.encoder.encode(&values(64)).unwrap())
            .unwrap();
        // Only levels the noise model recommends (the 2×30 chain cannot
        // drop its rounding drift; the deep chain's bottom limb cannot
        // hold a rotation) — the same gate leveled evaluation uses.
        let deepest = fresh.noise().recommended_level(&params, 0, 2.0);
        let mut checked = 0;
        for level in 0..=deepest {
            let ct = c.eval.mod_switch_to(&fresh, level).unwrap();
            if ct
                .noise()
                .rotate_at(&params, level)
                .budget_bits_worst_at(&params, level)
                < 2.0
            {
                continue;
            }
            checked += 1;
            let steps: Vec<i64> = (0..8).collect();
            let mut outs = Vec::new();
            let mut hoisted = HoistedDecomposition::empty(&params);
            let mut scratch = c.eval.new_scratch();
            c.eval
                .rotate_set_hoisted_into(
                    &mut outs,
                    &ct,
                    &steps,
                    &c.keys,
                    &mut hoisted,
                    &mut scratch,
                )
                .unwrap();
            assert_eq!(outs.len(), steps.len());
            for (out, &step) in outs.iter().zip(&steps) {
                let direct = c.eval.rotate_rows(&ct, step, &c.keys).unwrap();
                assert_eq!(
                    c.encoder.decode(&c.dec.decrypt_checked(out).unwrap()),
                    c.encoder.decode(&c.dec.decrypt_checked(&direct).unwrap()),
                    "{name} level {level} step {step}: hoisted replay diverged"
                );
            }
        }
        assert!(checked >= 1, "{name}: at least level 0 must be checked");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A BSGS-shaped rotate-and-sum — hoisted baby replays feeding
    /// direct giant-step rotations of the partial groups — decrypts
    /// identically to the all-direct dependent chain it replaces.
    #[test]
    fn bsgs_shaped_rotate_sum_matches_direct_chain(seed in any::<u64>()) {
        let params = BfvParams::preset_rns_2x30(4096).unwrap();
        let mut c = ctx(params.clone(), seed % 900 + 2);
        let ct = c.enc.encrypt(&c.encoder.encode(&values(12)).unwrap()).unwrap();

        // Direct dependent chain: Σ_{k=0}^{11} rot(ct, k), one full
        // rotation per term reading the fresh accumulator.
        let mut direct = ct.clone();
        for k in 1..12 {
            let r = c.eval.rotate_rows(&ct, k, &c.keys).unwrap();
            direct = c.eval.add(&direct, &r).unwrap();
        }

        // BSGS shape: babies rot(ct, 0..4) from one hoist, group sums,
        // direct giant rotations by 4 and 8.
        let mut babies = Vec::new();
        let mut hoisted = HoistedDecomposition::empty(&params);
        let mut scratch = c.eval.new_scratch();
        c.eval
            .rotate_set_hoisted_into(
                &mut babies, &ct, &[0, 1, 2, 3], &c.keys, &mut hoisted, &mut scratch,
            )
            .unwrap();
        let mut inner = babies[0].clone();
        for b in &babies[1..] {
            inner = c.eval.add(&inner, b).unwrap();
        }
        let mut bsgs = inner.clone();
        for giant in [4i64, 8] {
            let rotated = c.eval.rotate_rows(&inner, giant, &c.keys).unwrap();
            bsgs = c.eval.add(&bsgs, &rotated).unwrap();
        }

        prop_assert_eq!(
            c.encoder.decode(&c.dec.decrypt_checked(&bsgs).unwrap()),
            c.encoder.decode(&c.dec.decrypt_checked(&direct).unwrap())
        );
    }
}

#[test]
fn stale_hoist_across_mod_switch_is_rejected() {
    let params = BfvParams::preset_rns_3x36(4096).unwrap();
    let mut c = ctx(params.clone(), 17);
    let ct = c
        .enc
        .encrypt(&c.encoder.encode(&values(8)).unwrap())
        .unwrap();

    // Hoist at level 0, then switch the ciphertext down a level: the
    // cached digits cover the wrong live planes and must not replay.
    let hoisted = c.eval.hoist(&ct).unwrap();
    let switched = c.eval.mod_switch_to_next(&ct).unwrap();
    assert_eq!(switched.level(), 1);
    let mut out = Ciphertext::transparent_zero_at(&params, 0);
    let mut scratch = c.eval.new_scratch();
    assert!(matches!(
        c.eval
            .rotate_hoisted_into(&mut out, &switched, &hoisted, 1, &c.keys, &mut scratch),
        Err(Error::LevelMismatch {
            expected: 1,
            found: 0
        })
    ));
}

#[test]
fn foreign_fingerprint_hoisted_replay_is_rejected() {
    let params = BfvParams::preset_rns_2x30(4096).unwrap();
    let mut c = ctx(params.clone(), 19);
    let ct_a = c
        .enc
        .encrypt(&c.encoder.encode(&values(8)).unwrap())
        .unwrap();
    let ct_b = c
        .enc
        .encrypt(&c.encoder.encode(&values(9)).unwrap())
        .unwrap();

    // A hoist of A spliced onto B's c0 would decrypt to garbage while
    // carrying a valid-looking noise estimate — the fingerprint stops it.
    let hoisted = c.eval.hoist(&ct_a).unwrap();
    let mut out = Ciphertext::transparent_zero_at(&params, 0);
    let mut scratch = c.eval.new_scratch();
    assert!(matches!(
        c.eval
            .rotate_hoisted_into(&mut out, &ct_b, &hoisted, 1, &c.keys, &mut scratch),
        Err(Error::ParameterMismatch)
    ));
}

#[test]
fn mixed_level_group_accumulator_is_rejected() {
    let params = BfvParams::preset_rns_3x36(4096).unwrap();
    let mut c = ctx(params.clone(), 23);
    let ct = c
        .enc
        .encrypt(&c.encoder.encode(&values(8)).unwrap())
        .unwrap();
    let switched = c.eval.mod_switch_to_next(&ct).unwrap();
    let prepared = c
        .eval
        .prepare_plaintext_at(&c.encoder.encode(&values(8)).unwrap(), 0)
        .unwrap();

    // Group accumulator left at full level, baby ciphertext switched
    // down: the fused accumulate must fire LevelMismatch, not silently
    // mix live-plane widths.
    let mut acc = Ciphertext::transparent_zero_at(&params, 0);
    assert!(matches!(
        c.eval
            .mul_plain_accumulate_many(&mut acc, &[(&switched, &prepared)]),
        Err(Error::LevelMismatch {
            expected: 0,
            found: 1
        })
    ));
    // Same for the giant-step merge of mixed-level partials.
    let mut full = ct.clone();
    assert!(matches!(
        c.eval.add_assign(&mut full, &switched),
        Err(Error::LevelMismatch { .. })
    ));
}

#[test]
fn invalid_switch_targets_are_rejected() {
    let params = BfvParams::preset_rns_2x30(4096).unwrap();
    let mut c = ctx(params.clone(), 29);
    let ct = c
        .enc
        .encrypt(&c.encoder.encode(&values(8)).unwrap())
        .unwrap();
    let switched = c.eval.mod_switch_to_next(&ct).unwrap();

    // Levels cannot regrow…
    assert!(matches!(
        c.eval.mod_switch_to(&switched, 0),
        Err(Error::InvalidLevel {
            requested: 0,
            current: 1,
            ..
        })
    ));
    // …and cannot pass the deepest level.
    assert!(matches!(
        c.eval.mod_switch_to(&ct, 5),
        Err(Error::InvalidLevel { requested: 5, .. })
    ));
}
