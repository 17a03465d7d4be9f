//! Conformance: hybrid (special-prime `P·Q_ℓ`) key switching against the
//! digit-decomposition path.
//!
//! The twin construction is the load-bearing trick: a hybrid parameter
//! set and a digit set built from the *same* data chain, `t`, and keygen
//! seed produce bit-identical secrets and encryptions (the special prime
//! never touches the encryption RNG stream), so the two engines can be
//! run side by side on the same ciphertext bits and compared after
//! decryption — at every level of the chain.

mod support;

use cheetah_bfv::params::SecurityLevel;
use cheetah_bfv::{
    BatchEncoder, BfvParams, Ciphertext, Decryptor, Encryptor, Error, Evaluator, KeyGenerator,
};
use support::Alloc;

/// Builds the digit-decomposition twin of a hybrid parameter set from its
/// widths: same degree, `t` bits and data-limb widths — no special prime.
/// The draw meets the hybrid set's own `t` and data limbs, which is
/// asserted, so every comparison below runs on one data chain.
fn digit_twin(hybrid: &BfvParams) -> BfvParams {
    let widths: Vec<u32> = hybrid.chain().moduli().iter().map(|q| q.bits()).collect();
    let digit = BfvParams::builder()
        .degree(hybrid.degree())
        .plain_bits(hybrid.plain_modulus().bits())
        .moduli_bits(&widths)
        .build()
        .expect("digit twin of a valid hybrid set");
    assert_eq!(digit.chain(), hybrid.chain(), "twin data chain");
    assert_eq!(digit.plain_modulus(), hybrid.plain_modulus(), "twin t");
    digit
}

struct World {
    evaluator: Evaluator,
    keys: cheetah_bfv::GaloisKeys,
    decryptor: Decryptor,
    encoder: BatchEncoder,
}

impl World {
    fn new(params: BfvParams, seed: u64, steps: &[i64]) -> (Self, Ciphertext) {
        let mut keygen = KeyGenerator::from_seed(params.clone(), seed);
        let pk = keygen.public_key().unwrap();
        let keys = keygen.galois_keys_for_steps(steps).unwrap();
        let encoder = BatchEncoder::new(params.clone());
        let data: Vec<u64> = (0..params.degree() as u64).map(|i| i % 97).collect();
        let mut encryptor = Encryptor::from_public_key(pk, seed + 1);
        let ct = encryptor.encrypt(&encoder.encode(&data).unwrap()).unwrap();
        let decryptor = Decryptor::new(keygen.secret_key().clone());
        let evaluator = Evaluator::new(params);
        (
            Self {
                evaluator,
                keys,
                decryptor,
                encoder,
            },
            ct,
        )
    }

    fn decode(&self, ct: &Ciphertext) -> Vec<u64> {
        self.encoder.decode(&self.decryptor.decrypt(ct).unwrap())
    }
}

/// Reference row rotation of the decoded slot vector.
fn rotate_slots(slots: &[u64], steps: i64) -> Vec<u64> {
    let row = slots.len() / 2;
    let mut out = vec![0; slots.len()];
    for half in 0..2 {
        for j in 0..row {
            let src = (j as i64 + steps).rem_euclid(row as i64) as usize;
            out[half * row + j] = slots[half * row + src];
        }
    }
    out
}

#[test]
fn hybrid_rotations_decrypt_identically_to_the_digit_twin_at_every_level() {
    for (name, hybrid) in BfvParams::hybrid_presets(4096).unwrap() {
        let digit = digit_twin(&hybrid);
        let steps = [1i64, -3];
        let (hw, h_ct0) = World::new(hybrid.clone(), 7, &steps);
        let (dw, d_ct0) = World::new(digit, 7, &steps);
        // Twin construction: identical ciphertext bits going in.
        assert_eq!(h_ct0.c0().data(), d_ct0.c0().data(), "{name}: twin c0");
        assert_eq!(h_ct0.c1().data(), d_ct0.c1().data(), "{name}: twin c1");
        let reference = hw.decode(&h_ct0);
        for level in 0..=hybrid.max_level() {
            let h_ct = hw.evaluator.mod_switch_to(&h_ct0, level).unwrap();
            let d_ct = dw.evaluator.mod_switch_to(&d_ct0, level).unwrap();
            for &step in &steps {
                let h_rot = hw.evaluator.rotate_rows(&h_ct, step, &hw.keys).unwrap();
                let d_rot = dw.evaluator.rotate_rows(&d_ct, step, &dw.keys).unwrap();
                let expect = rotate_slots(&reference, step);
                // The hybrid path must decrypt correctly at *every* level —
                // its key-switch noise is divided by P.
                assert_eq!(
                    hw.decode(&h_rot),
                    expect,
                    "{name}: hybrid rotate by {step} at level {level}"
                );
                // The digit twin's additive term l_ct·A·B·n/2 is NOT
                // divided by anything; at deep levels of a wide-limb chain
                // it can exceed the ceiling (which is exactly what the
                // special prime buys). Only assert it where its own noise
                // model says decryption holds.
                if d_rot.noise().budget_bits_worst_at(d_ct.params(), level) > 0.0 {
                    assert_eq!(
                        dw.decode(&d_rot),
                        expect,
                        "{name}: digit rotate by {step} at level {level}"
                    );
                } else {
                    assert!(level > 0, "{name}: digit path must at least serve level 0");
                }
            }
        }
    }
}

#[test]
fn hybrid_rotations_hold_at_degree_8192() {
    for (name, hybrid) in BfvParams::hybrid_presets(8192).unwrap() {
        let (hw, ct0) = World::new(hybrid.clone(), 11, &[5]);
        let reference = hw.decode(&ct0);
        for level in 0..=hybrid.max_level() {
            let ct = hw.evaluator.mod_switch_to(&ct0, level).unwrap();
            let rot = hw.evaluator.rotate_rows(&ct, 5, &hw.keys).unwrap();
            assert_eq!(
                hw.decode(&rot),
                rotate_slots(&reference, 5),
                "{name}: hybrid rotate at level {level}, n = 8192"
            );
        }
    }
}

#[test]
fn hybrid_hoisted_replay_matches_direct_rotation_at_every_level() {
    let hybrid = BfvParams::preset_hybrid_2x36(4096).unwrap();
    let steps = [1i64, 2, -1];
    let (hw, ct0) = World::new(hybrid.clone(), 13, &steps);
    for level in 0..=hybrid.max_level() {
        let ct = hw.evaluator.mod_switch_to(&ct0, level).unwrap();
        let mut hoisted = cheetah_bfv::HoistedDecomposition::empty(&hybrid);
        let mut outs = Vec::new();
        let mut scratch = hw.evaluator.new_scratch();
        hw.evaluator
            .rotate_set_hoisted_into(&mut outs, &ct, &steps, &hw.keys, &mut hoisted, &mut scratch)
            .unwrap();
        for (out, &step) in outs.iter().zip(&steps) {
            let direct = hw.evaluator.rotate_rows(&ct, step, &hw.keys).unwrap();
            assert_eq!(
                hw.decode(out),
                hw.decode(&direct),
                "hoisted replay by {step} at level {level}"
            );
        }
    }
}

#[test]
fn hybrid_rotation_noise_stays_under_the_tracked_bound() {
    for (name, hybrid) in BfvParams::hybrid_presets(4096).unwrap() {
        let (hw, ct0) = World::new(hybrid.clone(), 17, &[1]);
        let mut ct = ct0;
        for _ in 0..4 {
            ct = hw.evaluator.rotate_rows(&ct, 1, &hw.keys).unwrap();
        }
        let measured = hw.decryptor.invariant_noise(&ct).unwrap() as f64;
        assert!(
            measured.log2() <= ct.noise().bound_log2,
            "{name}: measured {} bits over tracked bound {} bits",
            measured.log2(),
            ct.noise().bound_log2
        );
    }
}

#[test]
fn hybrid_rotate_transform_bill_beats_the_equal_width_digit_preset() {
    // The tentpole's arithmetic claim, pinned on the engine's own op
    // counters. The fair twin holds the *total plane count* (RLWE modulus
    // width, wire size, security budget) fixed: hybrid_1x54 spends its
    // second plane on P where rns_2x30 spends it on data, and hybrid_2x36
    // pits 3 planes against rns_3x36's 3. Per rotation the hybrid path
    // runs live² + 3·live + 2 plane transforms — its front skips each
    // digit's own plane, its P-rescale transforms only P and its lifts —
    // against the digit path's (l_ct + 1)·live: 12 against 21 on the
    // 36-bit twins.
    let pairs = [
        (
            BfvParams::preset_hybrid_1x54(4096).unwrap(),
            BfvParams::preset_rns_2x30(4096).unwrap(),
        ),
        (
            BfvParams::preset_hybrid_2x36(4096).unwrap(),
            BfvParams::preset_rns_3x36(4096).unwrap(),
        ),
    ];
    for (hybrid, digit) in pairs {
        let h_live = hybrid.limbs() as u64;
        let d_live = digit.limbs() as u64;
        assert_eq!(h_live + 1, d_live, "equal total plane count");
        let l_ct = digit.l_ct_at(0) as u64;
        let (hw, h_ct) = World::new(hybrid, 19, &[1]);
        let (dw, d_ct) = World::new(digit, 19, &[1]);
        hw.evaluator.reset_op_counts();
        dw.evaluator.reset_op_counts();
        hw.evaluator.rotate_rows(&h_ct, 1, &hw.keys).unwrap();
        dw.evaluator.rotate_rows(&d_ct, 1, &dw.keys).unwrap();
        let h_ntt = hw.evaluator.op_counts().ntt;
        let d_ntt = dw.evaluator.op_counts().ntt;
        assert_eq!(h_ntt, h_live * h_live + 3 * h_live + 2, "hybrid bill");
        assert_eq!(d_ntt, (l_ct + 1) * d_live, "digit bill");
        assert!(
            h_ntt < d_ntt,
            "hybrid must beat the equal-width digit preset ({h_ntt} vs {d_ntt})"
        );
    }
}

#[test]
fn chain_search_is_congruent_for_random_draws() {
    // Deterministic sweep over (n, t_bits, limb widths): every chain with a
    // generated special prime the builder returns must be congruent
    // (q ≡ 1 mod 2n·t) down to and including the special prime. Impossible
    // regimes must error, never silently fall back.
    for (n, t_bits) in [(2048usize, 14u32), (4096, 16), (8192, 17)] {
        for widths in [&[54u32][..], &[36, 36], &[40, 40]] {
            let special = widths[0];
            let built = BfvParams::builder()
                .degree(n)
                .plain_bits(t_bits)
                .moduli_bits(widths)
                .special_bits(special)
                .security(SecurityLevel::None)
                .build();
            let p = match built {
                Ok(p) => p,
                Err(e) => {
                    assert!(matches!(e, Error::NoNttPrime { .. }), "n={n}: {e:?}");
                    continue;
                }
            };
            let t = p.plain_modulus().value();
            let step = 2 * (n as u64) * t;
            let data = p.chain().moduli().iter().map(|q| q.value());
            for q in data.chain(p.special().map(|q| q.value())) {
                assert_eq!(q % step, 1, "n={n} t={t} q={q}");
            }
        }
    }
}
