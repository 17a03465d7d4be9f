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

/// Bytes of one seeded key's `k0` polynomials: `ks_digits_at(0)` of them
/// over the `ks_chain_at(0)` planes.
fn key_k0_bytes(p: &BfvParams) -> usize {
    p.ks_digits_at(0) * p.ks_chain_at(0).limbs() * p.degree() * 8
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
        let keys = kg.seeded_galois_keys_for_steps(&steps).unwrap();
        let bytes = wire::encode_seeded_galois_keys(&keys, &p);
        assert_eq!(
            bytes.len(),
            wire::seeded_galois_keys_wire_bytes(&p, keys.len()),
            "{name}: galois keys wire size formula"
        );
        // Per key an element and a seed, and the k0 half of the pairs the
        // expanded set holds.
        let expanded = keys.clone().expand(&p);
        assert_eq!(
            bytes.len(),
            wire::HEADER_BYTES + 4 + keys.len() * 16 + expanded.byte_size(&p) / 2,
            "{name}: galois keys wire size vs key accounting"
        );
        let back = wire::decode_seeded_galois_keys(&bytes, &p).unwrap();
        assert_eq!(
            wire::encode_seeded_galois_keys(&back, &p),
            bytes,
            "{name}: galois keys re-encode bit-identical"
        );
        let back = back.expand(&p);
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
/// a set that lists an element twice (`SeededGaloisKeys` would silently
/// keep one key of the two the count field sized the message by) or out
/// of order is refused — by the order check itself, before the offending
/// key's `k0` polynomials are read.
#[test]
fn galois_key_sets_with_repeated_or_unordered_elements_are_malformed() {
    for name in ["rns_3x36", "hybrid_2x36"] {
        let p = presets().into_iter().find(|(n, _)| *n == name).unwrap().1;
        let keys = KeyGenerator::from_seed(p.clone(), 27)
            .seeded_galois_keys_for_steps(&[1, 2])
            .unwrap();
        let clean = wire::encode_seeded_galois_keys(&keys, &p);
        assert_eq!(
            wire::decode_seeded_galois_keys(&clean, &p).unwrap().len(),
            2,
            "{name}"
        );
        // Key records are an element word and a seed word followed by the
        // k0 material.
        let first = wire::HEADER_BYTES + 4;
        let second = first + 16 + key_k0_bytes(&p);
        let element = |at: usize| clean[at..at + 8].to_vec();

        let mut repeated = clean.clone();
        repeated[second..second + 8].copy_from_slice(&element(first));
        let mut swapped = clean.clone();
        swapped[first..first + 8].copy_from_slice(&element(second));
        swapped[second..second + 8].copy_from_slice(&element(first));
        for (what, mut mutant) in [("repeated", repeated), ("swapped", swapped)] {
            // As is, then with a non-canonical residue in the offending
            // key's first k0: the order check must fire first.
            for poisoned in [false, true] {
                if poisoned {
                    mutant[second + 16..second + 24].copy_from_slice(&u64::MAX.to_le_bytes());
                }
                match wire::decode_seeded_galois_keys(&mutant, &p) {
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

/// Kind 7's framing: the retired full kind is unknown, a relabelled key
/// set is no seeded ciphertext or public key, and the length is exact for
/// the declared count — one count or one word either way is refused.
#[test]
fn seeded_galois_key_sets_are_framed_exactly() {
    use cheetah_bfv::Error;
    const OFF_COUNT: usize = wire::HEADER_BYTES;
    fn malformed<T>(r: Result<T, Error>, what: &str) -> String {
        match r {
            Err(Error::Malformed { reason, .. }) => reason,
            Err(other) => panic!("{what}: expected Malformed, got {other:?}"),
            Ok(_) => panic!("{what}: accepted"),
        }
    }
    for name in ["rns_3x36", "hybrid_2x36"] {
        let p = presets().into_iter().find(|(n, _)| *n == name).unwrap().1;
        let keys = KeyGenerator::from_seed(p.clone(), 29)
            .seeded_galois_keys_for_steps(&[1, 4])
            .unwrap();
        let clean = wire::encode_seeded_galois_keys(&keys, &p);
        assert_eq!(clean[wire::OFF_KIND], 7, "{name}");
        assert_eq!(clean[wire::OFF_VERSION], 2, "{name}: kind 7 is a v2 kind");
        assert_eq!(wire::decode_seeded_galois_keys(&clean, &p).unwrap(), keys);

        let mut retired = clean.clone();
        retired[wire::OFF_KIND] = 3;
        let reason = malformed(wire::decode_seeded_galois_keys(&retired, &p), name);
        assert!(
            reason.contains("unknown message kind 3"),
            "{name}: {reason}"
        );

        for kind in [5u8, 6] {
            let mut relabelled = clean.clone();
            relabelled[wire::OFF_KIND] = kind;
            let what = format!("{name} as kind {kind}");
            malformed(wire::decode_seeded_galois_keys(&relabelled, &p), &what);
            malformed(wire::decode_ciphertext(&relabelled, &p), &what);
            malformed(wire::decode_public_key(&relabelled, &p), &what);
            // Framed as seeded ciphertexts, the key material misframes.
            assert!(
                wire::split_ciphertext_messages(&relabelled, &p).is_err(),
                "{what}"
            );
        }
        // And the key set itself is no ciphertext bundle.
        malformed(wire::split_ciphertext_messages(&clean, &p), name);

        for count in [1u32, 3] {
            let mut lie = clean.clone();
            lie[OFF_COUNT..OFF_COUNT + 4].copy_from_slice(&count.to_le_bytes());
            let reason = malformed(wire::decode_seeded_galois_keys(&lie, &p), name);
            assert!(
                reason.contains("need exactly"),
                "{name} count {count}: {reason}"
            );
        }
        let short = &clean[..clean.len() - 8];
        let mut long = clean.clone();
        long.extend_from_slice(&[0; 8]);
        for (what, bytes) in [("one word short", short), ("one word long", &long[..])] {
            let reason = malformed(wire::decode_seeded_galois_keys(bytes, &p), what);
            assert!(reason.contains("need exactly"), "{name} {what}: {reason}");
        }

        // A hybrid key's last k0 plane is canonical against P.
        if let Some(special) = p.special() {
            let at = wire::HEADER_BYTES + 4 + 16 + p.limbs() * p.degree() * 8;
            let word = |w: u64| {
                let mut mutant = clean.clone();
                mutant[at..at + 8].copy_from_slice(&w.to_le_bytes());
                wire::decode_seeded_galois_keys(&mutant, &p)
            };
            let reason = malformed(word(special.value()), name);
            assert!(reason.contains("non-canonical"), "{name}: {reason}");
            assert!(
                word(special.value() - 1).is_ok(),
                "{name}: P − 1 is canonical"
            );
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
    let keys_h = kg_h.seeded_galois_keys_for_steps(&[1]).unwrap();
    let keys_d = kg_d.seeded_galois_keys_for_steps(&[1]).unwrap();
    let bytes_h = wire::encode_seeded_galois_keys(&keys_h, &hybrid);
    let bytes_d = wire::encode_seeded_galois_keys(&keys_d, &digit);
    assert!(
        wire::decode_seeded_galois_keys(&bytes_h, &digit).is_err(),
        "hybrid keys must not decode under the digit chain"
    );
    assert!(
        wire::decode_seeded_galois_keys(&bytes_d, &hybrid).is_err(),
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
