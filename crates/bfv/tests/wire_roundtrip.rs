//! Wire round-trip conformance: `encode → decode` must be bit-identical
//! for every serializable object, at every level of every preset chain,
//! and the encoded length must match the transcript accounting the
//! protocol layer pins (`2·live·n·8` per ciphertext, plus the fixed
//! 24-byte header).
//!
//! These pins are what make the transcript byte counts in
//! `tests/session_conformance.rs` *mean* something: a message's accounted
//! size plus [`wire::HEADER_BYTES`] is exactly what crosses the network.

use cheetah_bfv::{wire, BatchEncoder, BfvParams, Decryptor, Encryptor, Evaluator, KeyGenerator};

fn presets() -> Vec<(&'static str, BfvParams)> {
    vec![
        ("single_60", BfvParams::preset_single_60(4096).unwrap()),
        ("rns_2x30", BfvParams::preset_rns_2x30(4096).unwrap()),
        ("rns_3x36", BfvParams::preset_rns_3x36(4096).unwrap()),
        ("hybrid_1x54", BfvParams::preset_hybrid_1x54(4096).unwrap()),
        ("hybrid_2x36", BfvParams::preset_hybrid_2x36(4096).unwrap()),
    ]
}

#[test]
fn ciphertext_roundtrips_at_every_level_on_every_preset() {
    for (name, p) in presets() {
        let n = p.degree();
        let limbs = p.limbs();
        let mut kg = KeyGenerator::from_seed(p.clone(), 7);
        let pk = kg.public_key().unwrap();
        let encoder = BatchEncoder::new(p.clone());
        let mut enc = Encryptor::from_public_key(pk, 8);
        let dec = Decryptor::new(kg.secret_key().clone());
        let eval = Evaluator::new(p.clone());

        let values: Vec<u64> = (0..n as u64).map(|i| i % 251).collect();
        let fresh = enc.encrypt(&encoder.encode(&values).unwrap()).unwrap();

        for level in 0..p.levels() {
            let ct = eval.mod_switch_to(&fresh, level).unwrap();
            let bytes = wire::encode_ciphertext(&ct);

            // Size pin: header + 2 polys × live limb planes × n × 8 bytes,
            // and the payload part must agree with the object's own
            // accounting (what the transcript records).
            let live = limbs - level;
            assert_eq!(
                bytes.len(),
                wire::HEADER_BYTES + 2 * live * n * 8,
                "{name} lvl{level}: wire size formula"
            );
            assert_eq!(
                bytes.len(),
                ct.byte_size() + wire::HEADER_BYTES,
                "{name} lvl{level}: wire size vs transcript accounting"
            );
            assert_eq!(bytes.len(), wire::ciphertext_wire_bytes(&p, level));

            let back = wire::decode_ciphertext(&bytes, &p).unwrap();
            assert_eq!(back.level(), level);
            assert_eq!(
                wire::encode_ciphertext(&back),
                bytes,
                "{name} lvl{level}: re-encode must be bit-identical"
            );
            // Decode attaches a fresh (pessimistic) noise estimate; the
            // payload itself still decrypts to the original slots.
            assert_eq!(
                encoder.decode(&dec.decrypt(&back).unwrap()),
                values,
                "{name} lvl{level}: decrypt after round-trip"
            );
        }
    }
}

#[test]
fn public_key_roundtrip_and_size_pin() {
    for (name, p) in presets() {
        let mut kg = KeyGenerator::from_seed(p.clone(), 17);
        let (pk, seed) = kg.public_key_seeded().unwrap();
        let bytes = wire::encode_public_key_seeded(&pk, seed).unwrap();
        // Seed + pk0: the seed stands in for the uniform pk1.
        assert_eq!(
            bytes.len(),
            wire::HEADER_BYTES + wire::SEED_BYTES + pk.byte_size() / 2,
            "{name}: public key wire size"
        );
        assert_eq!(bytes.len(), wire::seeded_public_key_wire_bytes(&p));
        let back = wire::decode_public_key(&bytes, &p).unwrap();
        assert_eq!(
            wire::encode_public_key_seeded(&back, seed).unwrap(),
            bytes,
            "{name}: public key re-encode bit-identical"
        );
        // The decoded key is usable: encrypt with it, decrypt with the
        // matching secret key.
        let encoder = BatchEncoder::new(p.clone());
        let mut enc = Encryptor::from_public_key(back, 18);
        let dec = Decryptor::new(kg.secret_key().clone());
        let ct = enc.encrypt(&encoder.encode(&[5, 6, 7]).unwrap()).unwrap();
        assert_eq!(&encoder.decode(&dec.decrypt(&ct).unwrap())[..3], &[5, 6, 7]);
    }
}

#[test]
fn galois_keys_roundtrip_and_size_pin() {
    for (name, p) in presets() {
        let mut kg = KeyGenerator::from_seed(p.clone(), 27);
        let steps = [1, 2, 8, -1];
        let keys = kg.galois_keys_for_steps(&steps).unwrap();
        let bytes = wire::encode_galois_keys(&keys, &p);
        assert_eq!(
            bytes.len(),
            wire::galois_keys_wire_bytes(&p, keys.len()),
            "{name}: galois keys wire size formula"
        );
        assert_eq!(
            bytes.len(),
            wire::HEADER_BYTES + 4 + keys.len() * 8 + keys.byte_size(&p),
            "{name}: galois keys wire size vs key accounting"
        );
        let back = wire::decode_galois_keys(&bytes, &p).unwrap();
        assert_eq!(
            wire::encode_galois_keys(&back, &p),
            bytes,
            "{name}: galois keys re-encode bit-identical"
        );
        // The decoded keys still rotate correctly.
        let pk = kg.public_key().unwrap();
        let encoder = BatchEncoder::new(p.clone());
        let mut enc = Encryptor::from_public_key(pk, 28);
        let dec = Decryptor::new(kg.secret_key().clone());
        let eval = Evaluator::new(p.clone());
        let ct = enc
            .encrypt(&encoder.encode(&[1, 2, 3, 4]).unwrap())
            .unwrap();
        let rot = eval.rotate_rows(&ct, 1, &back).unwrap();
        assert_eq!(
            &encoder.decode(&dec.decrypt(&rot).unwrap())[..3],
            &[2, 3, 4]
        );
    }
}

/// One key set has one encoding: elements ascend strictly on the wire, so
/// a set that lists an element twice (`GaloisKeys::insert` would silently
/// keep one key of the two the count field sized the message by) or out
/// of order is refused — by the order check itself, before the offending
/// key's pair polynomials are read.
#[test]
fn galois_key_sets_with_repeated_or_unordered_elements_are_malformed() {
    for name in ["rns_3x36", "hybrid_2x36"] {
        let p = presets().into_iter().find(|(n, _)| *n == name).unwrap().1;
        let keys = KeyGenerator::from_seed(p.clone(), 27)
            .galois_keys_for_steps(&[1, 2])
            .unwrap();
        let clean = wire::encode_galois_keys(&keys, &p);
        assert_eq!(
            wire::decode_galois_keys(&clean, &p).unwrap().len(),
            2,
            "{name}"
        );
        // Key records are an element word followed by the pair material.
        let first = wire::HEADER_BYTES + 4;
        let second = first + 8 + keys.byte_size(&p) / 2;
        let element = |at: usize| clean[at..at + 8].to_vec();

        let mut repeated = clean.clone();
        repeated[second..second + 8].copy_from_slice(&element(first));
        let mut swapped = clean.clone();
        swapped[first..first + 8].copy_from_slice(&element(second));
        swapped[second..second + 8].copy_from_slice(&element(first));
        for (what, mut mutant) in [("repeated", repeated), ("swapped", swapped)] {
            // As is, then with a non-canonical residue in the offending
            // key's first pair: the order check must fire first.
            for poisoned in [false, true] {
                if poisoned {
                    mutant[second + 8..second + 16].copy_from_slice(&u64::MAX.to_le_bytes());
                }
                match wire::decode_galois_keys(&mutant, &p) {
                    Err(cheetah_bfv::Error::Malformed { reason, .. }) => assert!(
                        reason.contains("strictly ascending"),
                        "{name}, {what} element: rejected for the wrong reason: {reason}"
                    ),
                    other => panic!("{name}, {what} element: expected Malformed, got {other:?}"),
                }
            }
        }
    }
}

#[test]
fn hybrid_and_digit_chains_over_the_same_data_limbs_mutually_reject() {
    // The sharpest fingerprint case: a hybrid set and a digit set built
    // from the *same* data limbs and t produce bit-identical ciphertexts
    // (the special prime never touches encryption), so only the
    // fingerprint's special-prime term separates their key material on
    // the wire. Both directions must reject, for every message kind.
    let hybrid = BfvParams::preset_hybrid_2x36(4096).unwrap();
    let data: Vec<u64> = (0..hybrid.limbs())
        .map(|i| hybrid.chain().modulus(i).value())
        .collect();
    let digit = BfvParams::builder()
        .degree(hybrid.degree())
        .plain_modulus(hybrid.plain_modulus().value())
        .moduli(data)
        .build()
        .unwrap();
    assert_ne!(
        wire::chain_fingerprint(&hybrid),
        wire::chain_fingerprint(&digit),
        "special prime must reach the fingerprint"
    );
    let mut kg_h = KeyGenerator::from_seed(hybrid.clone(), 41);
    let mut kg_d = KeyGenerator::from_seed(digit.clone(), 41);
    let keys_h = kg_h.galois_keys_for_steps(&[1]).unwrap();
    let keys_d = kg_d.galois_keys_for_steps(&[1]).unwrap();
    let bytes_h = wire::encode_galois_keys(&keys_h, &hybrid);
    let bytes_d = wire::encode_galois_keys(&keys_d, &digit);
    assert!(
        wire::decode_galois_keys(&bytes_h, &digit).is_err(),
        "hybrid keys must not decode under the digit chain"
    );
    assert!(
        wire::decode_galois_keys(&bytes_d, &hybrid).is_err(),
        "digit keys must not decode under the hybrid chain"
    );
    // Ciphertexts are bit-identical across the twins, so the fingerprint
    // is the *only* thing keeping a transcript from silently mixing the
    // two worlds' key material.
    let pk_h = kg_h.public_key().unwrap();
    let encoder = BatchEncoder::new(hybrid.clone());
    let mut enc = Encryptor::from_public_key(pk_h, 42);
    let ct = enc.encrypt(&encoder.encode(&[9, 9, 9]).unwrap()).unwrap();
    let ct_bytes = wire::encode_ciphertext(&ct);
    assert!(
        wire::decode_ciphertext(&ct_bytes, &digit).is_err(),
        "hybrid ciphertext must not decode under the digit chain"
    );
    assert!(wire::decode_ciphertext(&ct_bytes, &hybrid).is_ok());
}

#[test]
fn presets_have_distinct_fingerprints_and_reject_each_other() {
    let ps = presets();
    for (i, (name_a, a)) in ps.iter().enumerate() {
        let mut kg = KeyGenerator::from_seed(a.clone(), 37);
        let (pk, seed) = kg.public_key_seeded().unwrap();
        let bytes = wire::encode_public_key_seeded(&pk, seed).unwrap();
        for (j, (name_b, b)) in ps.iter().enumerate() {
            if i == j {
                continue;
            }
            assert_ne!(
                wire::chain_fingerprint(a),
                wire::chain_fingerprint(b),
                "{name_a} vs {name_b}: fingerprints must differ"
            );
            assert!(
                wire::decode_public_key(&bytes, b).is_err(),
                "{name_a} key must not decode under {name_b}"
            );
        }
    }
}
