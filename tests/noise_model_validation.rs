//! §IV-B validation, reproduced: the paper validates its noise model
//! against SEAL measurements across parameter settings ("worst-case errors
//! are within 1 bit in the low-remaining noise budget region"). Here the
//! Table III model is validated against the real engine's measured
//! invariant noise across a grid of parameter settings and operator
//! chains.

#[path = "../crates/bfv/tests/support/mod.rs"]
mod support;

use cheetah::bfv::{
    BatchEncoder, BfvParams, Decryptor, Encryptor, Evaluator, KeyGenerator, SecurityLevel,
};
use support::Alloc;

struct Session {
    params: BfvParams,
    encoder: BatchEncoder,
    enc: Encryptor,
    dec: Decryptor,
    eval: Evaluator,
    keys: cheetah::bfv::GaloisKeys,
}

fn session(n: usize, t_bits: u32, q_bits: u32, a_log: u32, seed: u64) -> Session {
    let params = BfvParams::builder()
        .degree(n)
        .plain_bits(t_bits)
        .cipher_bits(q_bits)
        .a_dcmp(1 << a_log)
        .security(SecurityLevel::None)
        .build()
        .unwrap();
    let mut kg = KeyGenerator::from_seed(params.clone(), seed);
    let pk = kg.public_key().unwrap();
    let keys = kg.galois_keys_for_steps(&[1, 2]).unwrap();
    Session {
        encoder: BatchEncoder::new(params.clone()),
        enc: Encryptor::from_public_key(pk, seed ^ 1),
        dec: Decryptor::new(kg.secret_key().clone()),
        eval: Evaluator::new(params.clone()),
        keys,
        params,
    }
}

/// The worst-case model must upper-bound measured noise for every operator
/// chain at every parameter point in the grid.
#[test]
fn model_bounds_measurement_across_parameter_grid() {
    let mut checked = 0;
    for (n, q_bits) in [(2048usize, 54u32), (4096, 60), (8192, 60)] {
        for t_bits in [17u32, 18, 20] {
            for a_log in [6u32, 12, 20] {
                let mut s = session(n, t_bits, q_bits, a_log, 7000 + checked);
                let values: Vec<u64> = (0..64).collect();
                let ct = s.enc.encrypt(&s.encoder.encode(&values).unwrap()).unwrap();
                let w = s
                    .eval
                    .prepare_plaintext_at(&s.encoder.encode(&[5; 64]).unwrap(), 0)
                    .unwrap();

                // Chain: mult -> rotate -> add(self) — all three operators.
                let m = s.eval.mul_plain(&ct, &w).unwrap();
                let r = s.eval.rotate_rows(&m, 1, &s.keys).unwrap();
                let a = s.eval.add(&r, &r).unwrap();

                for (label, c) in [("fresh", &ct), ("mult", &m), ("rotate", &r), ("add", &a)] {
                    let measured = s.dec.invariant_noise(c).unwrap() as f64;
                    let bound = c.noise().bound_log2;
                    assert!(
                        measured.max(1.0).log2() <= bound + 1e-9,
                        "n={n} t={t_bits} q={q_bits} A=2^{a_log} {label}: \
                         measured 2^{:.1} > bound 2^{:.1}",
                        measured.log2(),
                        bound
                    );
                }
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 27);
}

/// The statistical (IBDG) estimate should sit between the measured noise
/// and the worst-case bound: tighter than worst case, but still safe for
/// the measured reality (with the 1e-10 provisioning factor).
#[test]
fn statistical_estimate_is_tight_but_safe() {
    let mut s = session(4096, 17, 60, 12, 9001);
    let values: Vec<u64> = (0..128).map(|i| i * 7).collect();
    let ct = s.enc.encrypt(&s.encoder.encode(&values).unwrap()).unwrap();
    let w = s
        .eval
        .prepare_plaintext_at(&s.encoder.encode(&vec![9u64; 128]).unwrap(), 0)
        .unwrap();
    let m = s.eval.mul_plain(&ct, &w).unwrap();

    let measured_budget = s.dec.invariant_noise_budget(&m).unwrap();
    let worst_budget = m.noise().budget_bits_worst_at(&s.params, 0);
    let stat_budget = m.noise().budget_bits_statistical_at(&s.params, 0);

    assert!(
        stat_budget > worst_budget,
        "statistical {stat_budget:.1} must be less conservative than worst {worst_budget:.1}"
    );
    assert!(
        measured_budget >= stat_budget - 1.0,
        "measured {measured_budget:.1} must not be materially below statistical {stat_budget:.1}"
    );
}

/// The RNS-native key-switch noise term: the model now charges
/// `l_ct·A·B·n/2` with `l_ct = Σ_i ceil(log_A q_i)` per-limb digits. The
/// measured invariant noise must stay below the model bound for every
/// preset (1, 2, and 3 limbs), on both the direct and the hoisted rotation
/// paths, including a chain of rotations.
#[test]
fn rotate_noise_model_bounds_measurement_for_every_preset() {
    for (name, params) in BfvParams::presets(4096).unwrap() {
        let mut kg = KeyGenerator::from_seed(params.clone(), 4242);
        let pk = kg.public_key().unwrap();
        let keys = kg.galois_keys_for_steps(&[1, 2, 3]).unwrap();
        let encoder = BatchEncoder::new(params.clone());
        let mut enc = Encryptor::from_public_key(pk, 4243);
        let dec = Decryptor::new(kg.secret_key().clone());
        let eval = Evaluator::new(params.clone());

        let values: Vec<u64> = (0..256).map(|i| i * 3 % 500).collect();
        let ct = enc.encrypt(&encoder.encode(&values).unwrap()).unwrap();

        let check = |label: &str, c: &cheetah::bfv::Ciphertext| {
            let measured = dec.invariant_noise(c).unwrap() as f64;
            let bound = c.noise().bound_log2;
            assert!(
                measured.max(1.0).log2() <= bound + 1e-9,
                "{name} {label}: measured 2^{:.1} > bound 2^{:.1}",
                measured.log2(),
                bound
            );
        };

        let direct = eval.rotate_rows(&ct, 1, &keys).unwrap();
        check("rotate", &direct);

        let hoisted = eval.hoist(&ct).unwrap();
        for step in [1i64, 2, 3] {
            let h = eval.rotate_hoisted(&ct, &hoisted, step, &keys).unwrap();
            check("rotate_hoisted", &h);
            // Model charges the same per-rotation additive term on both
            // paths.
            assert_eq!(h.noise().bound_log2, direct.noise().bound_log2);
        }

        // A dependent chain keeps accumulating the additive term.
        let mut cur = direct;
        for _ in 0..3 {
            cur = eval.rotate_rows(&cur, 2, &keys).unwrap();
            check("rotate chain", &cur);
        }
    }
}

/// The `mod_switch` transition of the noise model: dropping a limb divides
/// the invariant noise by the dropped prime and adds the rounding terms
/// (`(Q' mod t) + 1 + (n+1)/2`). Measured noise must stay below the model
/// bound at *every* level of every multi-limb preset, through an operator
/// chain — and the bound must actually fall when a limb is dropped from a
/// worked ciphertext (the noise really does shrink with the modulus).
#[test]
fn mod_switch_noise_model_bounds_measurement_for_every_preset() {
    for (name, params) in BfvParams::presets(4096).unwrap() {
        if params.max_level() == 0 {
            continue; // single-limb: level-0-only
        }
        let mut kg = KeyGenerator::from_seed(params.clone(), 6060);
        let pk = kg.public_key().unwrap();
        let keys = kg.galois_keys_for_steps(&[1]).unwrap();
        let encoder = BatchEncoder::new(params.clone());
        let mut enc = Encryptor::from_public_key(pk, 6061);
        let dec = Decryptor::new(kg.secret_key().clone());
        let eval = Evaluator::new(params.clone());

        let vals: Vec<u64> = (0..128).map(|i| i * 17 % 4000).collect();
        let ct = enc.encrypt(&encoder.encode(&vals).unwrap()).unwrap();
        let w = enc_weights(&eval, &encoder);
        let worked = eval
            .rotate_rows(&eval.mul_plain(&ct, &w).unwrap(), 1, &keys)
            .unwrap();
        let before = dec.invariant_noise(&worked).unwrap() as f64;

        let mut cur = worked;
        for level in 1..params.levels() {
            cur = eval.mod_switch_to_next(&cur).unwrap();
            assert_eq!(cur.level(), level);
            let measured = dec.invariant_noise(&cur).unwrap() as f64;
            let bound = cur.noise().bound_log2;
            assert!(
                measured.max(1.0).log2() <= bound + 1e-9,
                "{name} level {level}: measured 2^{:.1} > bound 2^{:.1}",
                measured.log2(),
                bound
            );
            // The dropped limb really divides the noise: measured noise
            // falls well below the pre-switch measurement once the limb's
            // ~30+ bits are gone (rounding terms are orders smaller).
            assert!(
                measured < before,
                "{name} level {level}: switch did not shrink noise \
                 ({measured:.3e} vs {before:.3e})"
            );
        }
    }
}

fn enc_weights(eval: &Evaluator, encoder: &BatchEncoder) -> cheetah::bfv::PreparedPlaintext {
    eval.prepare_plaintext_at(&encoder.encode(&[7; 128]).unwrap(), 0)
        .unwrap()
}

/// Repeated rotations accumulate additive noise roughly linearly — the
/// Table III structure, observed on real ciphertexts.
#[test]
fn rotation_noise_accumulates_additively() {
    let mut s = session(4096, 17, 60, 8, 5150);
    let ct = s
        .enc
        .encrypt(&s.encoder.encode(&[1, 2, 3, 4]).unwrap())
        .unwrap();
    let mut noise = Vec::new();
    let mut cur = ct;
    for _ in 0..6 {
        cur = s.eval.rotate_rows(&cur, 1, &s.keys).unwrap();
        noise.push(s.dec.invariant_noise(&cur).unwrap() as f64);
    }
    // Linear-ish growth: noise after 6 rotations is within ~12x of the
    // first rotation's noise (multiplicative growth would be astronomical).
    assert!(noise[5] <= 12.0 * noise[0], "noise grew {noise:?}");
    // And it does grow.
    assert!(noise[5] >= noise[0]);
}

/// Budget loss per operator matches the paper's ordering: multiplication
/// consumes many bits, rotation few, addition ~one.
#[test]
fn per_operator_budget_consumption_ordering() {
    let mut s = session(4096, 17, 60, 12, 777);
    let ct = s.enc.encrypt(&s.encoder.encode(&[6; 32]).unwrap()).unwrap();
    let w = s
        .eval
        .prepare_plaintext_at(&s.encoder.encode(&[3; 32]).unwrap(), 0)
        .unwrap();
    let b0 = s.dec.invariant_noise_budget(&ct).unwrap();

    let after_add = s.eval.add(&ct, &ct).unwrap();
    let after_rot = s.eval.rotate_rows(&ct, 1, &s.keys).unwrap();
    let after_mul = s.eval.mul_plain(&ct, &w).unwrap();

    let add_cost = b0 - s.dec.invariant_noise_budget(&after_add).unwrap();
    let rot_cost = b0 - s.dec.invariant_noise_budget(&after_rot).unwrap();
    let mul_cost = b0 - s.dec.invariant_noise_budget(&after_mul).unwrap();

    assert!(add_cost <= 1.5, "add cost {add_cost:.2} bits");
    assert!(
        mul_cost > rot_cost,
        "mul {mul_cost:.1} vs rot {rot_cost:.1}"
    );
    assert!(
        mul_cost > 10.0,
        "mul should consume many bits: {mul_cost:.1}"
    );
}
