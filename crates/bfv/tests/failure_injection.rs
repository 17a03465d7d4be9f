//! Failure injection: the BFV engine must *detect* the failure modes the
//! paper's models exist to avoid — noise-budget exhaustion, wrong keys,
//! parameter mismatches — rather than silently returning garbage.
//!
//! The original six ad-hoc cases (below) predate the wire layer; the
//! [`wire_fault_harness`] module re-expresses the corruption-shaped ones
//! on the shared [`cheetah_bfv::wire::faults::FaultInjector`] corruption
//! classes and adds proptest-driven random-corruption coverage: any
//! mutation of a valid encoding yields a typed error or a bit-identical
//! decrypt — never a panic, never silent garbage.

use cheetah_bfv::{
    BatchEncoder, BfvParams, Ciphertext, Decryptor, Encryptor, Error, Evaluator, KeyGenerator,
    SecurityLevel,
};

fn params(plain_bits: u32, cipher_bits: u32) -> BfvParams {
    BfvParams::builder()
        .degree(2048)
        .plain_bits(plain_bits)
        .cipher_bits(cipher_bits)
        .a_dcmp(1 << 16)
        .security(SecurityLevel::None)
        .build()
        .unwrap()
}

/// Chains plaintext multiplications until the budget is exhausted and
/// checks that the decrypted value really goes wrong — the failure the
/// noise model guards against is real, not theoretical. Note the measured
/// budget is computed against the *nearest* plaintext multiple, so after
/// true overflow it collapses to ~0 rather than going deeply negative;
/// a collapsed budget (< 1 bit) is the failure signature, and
/// `decrypt_checked` must refuse the first wrong round.
#[test]
fn noise_exhaustion_is_detected_and_real() {
    // Full-range (non-constant) multiplier polynomials consume ~20 bits of
    // budget per multiplication; the chain dies after about two.
    let p = params(16, 54);
    let mut kg = KeyGenerator::from_seed(p.clone(), 1);
    let pk = kg.public_key().unwrap();
    let encoder = BatchEncoder::new(p.clone());
    let mut enc = Encryptor::from_public_key(pk, 2);
    let dec = Decryptor::new(kg.secret_key().clone());
    let eval = Evaluator::new(p.clone());

    let w_vals: Vec<u64> = (0..2048u64).map(|i| 3 + i % 97).collect();
    let w = eval
        .prepare_plaintext(&encoder.encode(&w_vals).unwrap())
        .unwrap();
    let mut ct = enc.encrypt(&encoder.encode(&[1]).unwrap()).unwrap();
    let mut failed = false;
    let mut expected: u64 = 1;
    let t = p.plain_modulus();
    for round in 0..8 {
        ct = eval.mul_plain(&ct, &w).unwrap();
        expected = t.mul_mod(expected, w_vals[0]);
        let budget = dec.invariant_noise_budget(&ct).unwrap();
        let out = encoder.decode(&dec.decrypt(&ct).unwrap());
        if budget >= 2.0 {
            assert_eq!(
                out[0], expected,
                "round {round}: budget {budget:.1}b but wrong value"
            );
        } else if out[0] != expected {
            failed = true;
            assert!(
                budget < 2.0,
                "round {round}: garbage with a healthy budget ({budget:.1}b)"
            );
            assert!(
                matches!(dec.decrypt_checked(&ct), Err(Error::NoiseBudgetExhausted)),
                "round {round}: decrypt_checked let garbage through at {budget:.4}b"
            );
            break;
        }
    }
    assert!(failed, "budget never exhausted — q too wide for this test");
}

#[test]
fn wrong_secret_key_decrypts_garbage() {
    let p = params(16, 54);
    let mut kg_a = KeyGenerator::from_seed(p.clone(), 10);
    let kg_b = KeyGenerator::from_seed(p.clone(), 11);
    let pk = kg_a.public_key().unwrap();
    let encoder = BatchEncoder::new(p.clone());
    let mut enc = Encryptor::from_public_key(pk, 12);
    let ct = enc.encrypt(&encoder.encode(&[42]).unwrap()).unwrap();

    let right = Decryptor::new(kg_a.secret_key().clone());
    let wrong = Decryptor::new(kg_b.secret_key().clone());
    assert_eq!(encoder.decode(&right.decrypt(&ct).unwrap())[0], 42);
    // Wrong key: the phase is uniform, so the residual against the nearest
    // plaintext multiple sits right at the decryption threshold (budget
    // ~0 bits, vs ~20 for the right key) and the value is garbage.
    let budget = wrong.invariant_noise_budget(&ct).unwrap();
    assert!(budget < 1.0, "wrong-key budget {budget:.2} should be ~0");
    assert!(right.invariant_noise_budget(&ct).unwrap() > 10.0);
    assert_ne!(encoder.decode(&wrong.decrypt(&ct).unwrap())[0], 42);
}

#[test]
fn transparent_zero_adds_nothing() {
    let p = params(16, 54);
    let mut kg = KeyGenerator::from_seed(p.clone(), 20);
    let pk = kg.public_key().unwrap();
    let encoder = BatchEncoder::new(p.clone());
    let mut enc = Encryptor::from_public_key(pk, 21);
    let dec = Decryptor::new(kg.secret_key().clone());
    let eval = Evaluator::new(p.clone());

    let ct = enc.encrypt(&encoder.encode(&[7, 8]).unwrap()).unwrap();
    let zero = Ciphertext::transparent_zero(&p);
    let sum = eval.add(&ct, &zero).unwrap();
    let out = encoder.decode(&dec.decrypt_checked(&sum).unwrap());
    assert_eq!(&out[..2], &[7, 8]);
    // Noise unchanged (zero contributes none).
    assert_eq!(
        dec.invariant_noise(&sum).unwrap(),
        dec.invariant_noise(&ct).unwrap()
    );
}

#[test]
fn security_enforcement_blocks_legacy_parameters() {
    // Gazelle's real n=2048/q=60 violates the 128-bit table.
    let err = BfvParams::builder()
        .degree(2048)
        .cipher_bits(60)
        .build()
        .unwrap_err();
    assert!(matches!(
        err,
        Error::InsecureParameters { max_log_q: 54, .. }
    ));
}

#[test]
fn rotation_with_borrowed_keyset_from_other_session_fails_cleanly() {
    // Galois keys from another secret key: decryption after such a rotate
    // must be garbage (detected via budget), never a silent wrong answer
    // accepted as valid.
    let p = params(16, 54);
    let mut kg_a = KeyGenerator::from_seed(p.clone(), 30);
    let mut kg_b = KeyGenerator::from_seed(p.clone(), 31);
    let pk = kg_a.public_key().unwrap();
    let foreign_keys = kg_b.galois_keys_for_steps(&[1]).unwrap();

    let encoder = BatchEncoder::new(p.clone());
    let mut enc = Encryptor::from_public_key(pk, 32);
    let dec = Decryptor::new(kg_a.secret_key().clone());
    let eval = Evaluator::new(p.clone());

    let ct = enc.encrypt(&encoder.encode(&[1, 2, 3]).unwrap()).unwrap();
    let rotated = eval.rotate_rows(&ct, 1, &foreign_keys).unwrap();
    // Key-switch against the wrong key injects uniform noise: the budget
    // collapses to ~0 and the decrypted slots are garbage.
    let budget = dec.invariant_noise_budget(&rotated).unwrap();
    assert!(
        budget < 1.0,
        "foreign-key rotation must destroy the ciphertext (budget {budget:.2})"
    );
    let out = encoder.decode(&dec.decrypt(&rotated).unwrap());
    assert_ne!(&out[..3], &[2, 3, 4], "rotation must not silently succeed");
}

#[test]
fn plaintext_overflow_wraps_mod_t() {
    // Not a crash — mod-t wraparound is the *correct* HE semantics; the
    // quantizer's job (cheetah-core) is to provision t so this never
    // happens on real layer ranges.
    let p = params(16, 54);
    let t = p.plain_modulus().value();
    let mut kg = KeyGenerator::from_seed(p.clone(), 40);
    let pk = kg.public_key().unwrap();
    let encoder = BatchEncoder::new(p.clone());
    let mut enc = Encryptor::from_public_key(pk, 41);
    let dec = Decryptor::new(kg.secret_key().clone());
    let eval = Evaluator::new(p.clone());

    let big = t - 1; // == -1 centered
    let ct = enc.encrypt(&encoder.encode(&[big]).unwrap()).unwrap();
    let doubled = eval.add(&ct, &ct).unwrap();
    let out = encoder.decode(&dec.decrypt_checked(&doubled).unwrap());
    assert_eq!(out[0], t - 2, "(-1) + (-1) = -2 mod t");
}

/// Wire-level failure injection on the shared fault harness: the
/// corruption classes of `cheetah_bfv::wire::faults` driven directly
/// against the engine's decode → `decrypt_checked` receive path.
mod wire_fault_harness {
    use super::*;
    use cheetah_bfv::wire;
    use cheetah_bfv::wire::faults::{Corruption, FaultInjector};
    use proptest::prelude::*;

    struct Rig {
        params: BfvParams,
        encoder: BatchEncoder,
        decryptor: Decryptor,
        clean: Vec<u8>,
        clean_slots: Vec<u64>,
    }

    fn rig(seed: u64) -> Rig {
        let params = params(16, 54);
        let mut kg = KeyGenerator::from_seed(params.clone(), seed);
        let pk = kg.public_key().unwrap();
        let encoder = BatchEncoder::new(params.clone());
        let mut enc = Encryptor::from_public_key(pk, seed ^ 0xfa11);
        let decryptor = Decryptor::new(kg.secret_key().clone());
        let values: Vec<u64> = (0..64).map(|i| i * 31 % 1000).collect();
        let ct = enc.encrypt(&encoder.encode(&values).unwrap()).unwrap();
        let clean = wire::encode_ciphertext(&ct);
        let clean_slots = encoder.decode(&decryptor.decrypt(&ct).unwrap());
        Rig {
            params,
            encoder,
            decryptor,
            clean,
            clean_slots,
        }
    }

    /// The two contractual outcomes; reaching neither panics the test.
    fn assert_detected_or_harmless(r: &Rig, mutant: &[u8], what: &str) -> bool {
        let ct = match wire::decode_ciphertext(mutant, &r.params) {
            Err(_) => return true, // detected structurally, typed
            Ok(ct) => ct,
        };
        let slots = match r.decryptor.decrypt_checked(&ct) {
            Err(Error::NoiseBudgetExhausted) => return true, // detected at the noise gate
            checked => r.encoder.decode(&checked.unwrap()),
        };
        assert_eq!(
            slots, r.clean_slots,
            "{what}: decoded+decrypted with healthy budget but different slots"
        );
        false // harmless
    }

    #[test]
    fn every_corruption_class_is_detected_or_harmless() {
        let r = rig(90);
        let len = r.clean.len();
        let battery = [
            Corruption::BitFlip {
                byte: wire::HEADER_BYTES + 3,
                bit: 5,
            },
            Corruption::BitFlip { byte: 2, bit: 0 },
            Corruption::Truncate { keep: len - 9 },
            Corruption::Truncate { keep: 3 },
            Corruption::Extend { extra: 24 },
            Corruption::LevelLie {
                level: 3,
                resize_payload: false,
            },
            Corruption::ForeignFingerprint,
            Corruption::NonCanonicalResidue { limb: 0 },
            Corruption::OverRange {
                limb: 0,
                coeff: 5,
                top: false,
            },
            Corruption::SwapComponents,
            Corruption::ReservedByte { value: 0x42 },
            Corruption::KindRelabel { kind: 5 },
            Corruption::KindRelabel { kind: 7 },
            Corruption::KindRelabel { kind: 3 },
        ];
        let mut detected = 0;
        let mut harmless = 0;
        for c in &battery {
            let mutant = FaultInjector::apply(&r.clean, c, &r.params);
            if assert_detected_or_harmless(&r, &mutant, &c.label()) {
                detected += 1;
            } else {
                harmless += 1;
            }
        }
        assert!(detected >= 12, "structural classes must all be detected");
        assert!(harmless >= 1, "the reserved byte is harmless by design");
    }

    /// The foreign-keyset legacy case, re-expressed on the wire: a key
    /// set serialized under one chain is rejected by fingerprint before
    /// any key material is trusted.
    #[test]
    fn foreign_chain_keys_are_rejected_at_decode() {
        let p_a = params(16, 54);
        let p_b = params(17, 54);
        let mut kg = KeyGenerator::from_seed(p_a.clone(), 91);
        let keys = kg.seeded_galois_keys_for_steps(&[1, 4]).unwrap();
        let bytes = wire::encode_seeded_galois_keys(&keys, &p_a);
        assert!(wire::decode_seeded_galois_keys(&bytes, &p_a).is_ok());
        assert!(matches!(
            wire::decode_seeded_galois_keys(&bytes, &p_b),
            Err(Error::ChainMismatch { .. })
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Random corruption of a valid encoding ⇒ typed error or
        /// bit-identical decrypt. Never a panic, never silent garbage.
        fn random_corruption_never_silently_corrupts(seed in any::<u64>()) {
            let r = rig(92);
            let mut injector = FaultInjector::new(seed);
            let c = injector.random_corruption(r.clean.len());
            let mutant = FaultInjector::apply(&r.clean, &c, &r.params);
            if mutant != r.clean {
                let _ = assert_detected_or_harmless(&r, &mutant, &c.label());
            }
        }
    }
}
