//! Wire round-trip conformance: `encode → decode` must be bit-identical
//! for every serializable object, at every level of every preset chain;
//! the encoded length must match the wire module's size helpers exactly
//! (one byte either way is refused), and every packed field must decode
//! canonically — `q_i − 1` and 0 in, `q_i` and the all-ones field out, in
//! every plane including a hybrid key's `P` plane.
//!
//! These pins are what make the transcript byte counts in
//! `tests/session_conformance.rs` *mean* something: a message's accounted
//! size plus [`wire::HEADER_BYTES`] is exactly what crosses the network.

mod support;

use cheetah_bfv::{
    wire, BatchEncoder, BfvParams, Decryptor, Encryptor, Error, Evaluator, KeyGenerator,
    ModulusChain,
};
use support::Alloc;

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
    let ks = p.ks_chain_at(0);
    p.ks_digits_at(0) * wire::poly_bytes(ks, ks.limbs())
}

/// The error's reason, panicking unless it is `Malformed`.
fn malformed<T>(r: Result<T, Error>, what: &str) -> String {
    match r {
        Err(Error::Malformed { reason, .. }) => reason,
        Err(other) => panic!("{what}: expected Malformed, got {other:?}"),
        Ok(_) => panic!("{what}: accepted"),
    }
}

/// Both ends of the canonical range and both over-range values a
/// `w_i`-bit field can express, with whether each must decode.
fn boundary_values(q: u64) -> [(u64, bool); 4] {
    let top = u64::MAX >> (64 - wire::field_bits(q));
    [(0, true), (q - 1, true), (q, false), (top, false)]
}

/// Writes each boundary value into coefficients `0`, `3` and `n − 1` of
/// every plane of the packed polynomial over `live` planes of `chain`
/// starting at byte `at` of `clean`, and checks `decode` accepts exactly
/// the canonical ones — an over-range field is refused naming its plane
/// and coefficient.
fn check_plane_boundaries<T>(
    clean: &[u8],
    at: usize,
    chain: &ModulusChain,
    live: usize,
    decode: impl Fn(&[u8]) -> Result<T, Error>,
    what: &str,
) {
    let n = chain.degree();
    for i in 0..live {
        let q = chain.modulus(i).value();
        let plane_at = at + wire::poly_bytes(chain, i);
        for coeff in [0, 3, n - 1] {
            for (value, canonical) in boundary_values(q) {
                let mut mutant = clean.to_vec();
                wire::write_field(&mut mutant[plane_at..], wire::field_bits(q), coeff, value);
                let what = format!("{what} plane {i} coeff {coeff} value {value}");
                if canonical {
                    assert!(decode(&mutant).is_ok(), "{what}: refused");
                } else {
                    let reason = malformed(decode(&mutant), &what);
                    assert!(
                        reason.contains(&format!("plane {i} at coefficient {coeff}")),
                        "{what}: {reason}"
                    );
                }
            }
        }
    }
}

/// Exact framing: one byte short or one byte long is refused.
fn check_exact_length<T>(clean: &[u8], decode: impl Fn(&[u8]) -> Result<T, Error>, what: &str) {
    malformed(
        decode(&clean[..clean.len() - 1]),
        &format!("{what}: one byte short"),
    );
    let mut long = clean.to_vec();
    long.push(0);
    malformed(decode(&long), &format!("{what}: one byte long"));
}

/// The retired `u64` layout's versions decode as unsupported.
fn check_old_versions_refused<T>(
    clean: &[u8],
    decode: impl Fn(&[u8]) -> Result<T, Error>,
    what: &str,
) {
    assert_eq!(
        u16::from_le_bytes([clean[wire::OFF_VERSION], clean[wire::OFF_VERSION + 1]]),
        wire::VERSION,
        "{what}"
    );
    for version in [1u16, 2] {
        let mut old = clean.to_vec();
        old[wire::OFF_VERSION..wire::OFF_VERSION + 2].copy_from_slice(&version.to_le_bytes());
        let reason = malformed(decode(&old), &format!("{what} as v{version}"));
        assert!(
            reason.contains("unsupported format version"),
            "{what}: {reason}"
        );
    }
}

#[test]
fn planes_pack_at_their_limbs_width() {
    for (name, p) in presets() {
        let n = p.degree();
        for chain in [p.chain(), p.ks_chain_at(0)] {
            for i in 0..chain.limbs() {
                let q = chain.modulus(i).value();
                let bits = (64 - q.leading_zeros()) as usize;
                assert!(q < 1 << bits && q >= 1 << (bits - 1), "{name}");
                assert_eq!(wire::field_bits(q), bits, "{name} plane {i}");
                assert_eq!(wire::plane_bytes(chain, i), n * bits / 8, "{name}");
            }
        }
    }
    // The widths the presets are named for, `P` included.
    let width = |p: &BfvParams| {
        let ks = p.ks_chain_at(0);
        (0..ks.limbs())
            .map(|i| wire::field_bits(ks.modulus(i).value()))
            .collect::<Vec<_>>()
    };
    let ps = presets();
    let widths: Vec<_> = ps.iter().map(|(_, p)| width(p)).collect();
    assert_eq!(
        widths,
        [
            vec![60],
            vec![30, 30],
            vec![36, 36, 36],
            vec![54, 54],
            vec![36, 36, 36]
        ]
    );
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

            // Size pin: header + 2 packed polys over the live planes.
            let live = limbs - level;
            let poly = wire::poly_bytes(p.chain(), live);
            assert_eq!(
                bytes.len(),
                wire::HEADER_BYTES + 2 * poly,
                "{name} lvl{level}: wire size formula"
            );
            assert_eq!(bytes.len(), wire::ciphertext_wire_bytes(&p, level));
            let decode = |b: &[u8]| wire::decode_ciphertext(b, &p);
            let what = format!("{name} lvl{level}");
            check_exact_length(&bytes, decode, &what);
            check_old_versions_refused(&bytes, decode, &what);
            for (component, at) in [
                ("c0", wire::HEADER_BYTES),
                ("c1", wire::HEADER_BYTES + poly),
            ] {
                let what = format!("{what} {component}");
                check_plane_boundaries(&bytes, at, p.chain(), live, decode, &what);
            }

            let back = wire::decode_ciphertext(&bytes, &p).unwrap();
            assert_eq!(back.level(), level);
            assert_eq!(back.c0().data(), ct.c0().data(), "{name} lvl{level}");
            assert_eq!(back.c1().data(), ct.c1().data(), "{name} lvl{level}");
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
            wire::HEADER_BYTES + wire::SEED_BYTES + wire::poly_bytes(p.chain(), p.limbs()),
            "{name}: public key wire size"
        );
        assert_eq!(bytes.len(), wire::seeded_public_key_wire_bytes(&p));
        let decode = |b: &[u8]| wire::decode_public_key(b, &p);
        let what = format!("{name} public key");
        check_exact_length(&bytes, decode, &what);
        check_old_versions_refused(&bytes, decode, &what);
        let at = wire::HEADER_BYTES + wire::SEED_BYTES;
        check_plane_boundaries(&bytes, at, p.chain(), p.limbs(), decode, &what);
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

/// A seeded upload at every level of every preset: `8 + Σ_{i<live}
/// n·w_i/8` payload bytes exactly, bit-identical round trip (`c1`
/// re-expanded over the level's chain), every live plane — the last one
/// included — canonical-checked, and a header level past the chain
/// refused before the length is even looked at.
#[test]
fn seeded_ciphertext_roundtrip_size_and_canonical_fields() {
    for (name, p) in presets() {
        let kg = KeyGenerator::from_seed(p.clone(), 19);
        let encoder = BatchEncoder::new(p.clone());
        let dec = Decryptor::new(kg.secret_key().clone());
        let mut enc = Encryptor::from_secret_key(kg.secret_key().clone(), 20);
        for level in 0..p.levels() {
            let (ct, seed) = enc
                .encrypt_seeded_at(&encoder.encode(&[3, 1, 4]).unwrap(), level)
                .unwrap();
            assert_eq!(ct.level(), level, "{name}");
            let live = p.live_limbs_at(level);
            let bytes = wire::encode_ciphertext_seeded(&ct, seed).unwrap();
            assert_eq!(
                bytes.len(),
                wire::HEADER_BYTES + wire::SEED_BYTES + wire::poly_bytes(p.chain(), live),
                "{name} lvl{level}: seeded ciphertext wire size"
            );
            assert_eq!(bytes.len(), wire::seeded_ciphertext_wire_bytes(&p, level));
            let back = wire::decode_ciphertext(&bytes, &p).unwrap();
            assert_eq!(back.level(), level, "{name}");
            assert_eq!(back.c0().data(), ct.c0().data(), "{name} lvl{level}");
            assert_eq!(back.c1().data(), ct.c1().data(), "{name} lvl{level}");
            assert_eq!(wire::encode_ciphertext_seeded(&back, seed).unwrap(), bytes);
            // Wherever the fresh estimate the decoder attaches promises a
            // correct decryption, the plaintext comes back. (On
            // `rns_2x30`'s last limb it does not: `Q_1 < 2t²`, so even the
            // rounding of `Δ_1·m` overflows the ceiling.)
            if back.noise().bound_log2 < p.noise_ceiling_at(level).log2() {
                assert_eq!(
                    &encoder.decode(&dec.decrypt_checked(&back).unwrap())[..3],
                    &[3, 1, 4],
                    "{name} lvl{level}"
                );
            }
            let decode = |b: &[u8]| wire::decode_ciphertext(b, &p);
            let what = format!("{name} lvl{level} seeded ciphertext");
            check_exact_length(&bytes, decode, &what);
            check_old_versions_refused(&bytes, decode, &what);
            let at = wire::HEADER_BYTES + wire::SEED_BYTES;
            check_plane_boundaries(&bytes, at, p.chain(), live, decode, &what);

            let mut past = bytes.clone();
            let past_level = p.levels() as u32;
            past[wire::OFF_LEVEL..wire::OFF_LEVEL + 4].copy_from_slice(&past_level.to_le_bytes());
            assert!(
                matches!(
                    decode(&past),
                    Err(Error::InvalidLevel { requested, .. }) if requested == p.levels()
                ),
                "{what}: a level past the chain"
            );
        }
    }
}

/// An upload bundle may hold seeded ciphertexts at different levels, and
/// full ones among them: the splitter sizes each message by its own kind
/// and level, so they frame exactly and each decodes to what was encoded.
#[test]
fn bundles_of_seeded_ciphertexts_at_mixed_levels_split_exactly() {
    for (name, p) in presets().into_iter().filter(|(_, p)| p.levels() > 1) {
        let kg = KeyGenerator::from_seed(p.clone(), 25);
        let encoder = BatchEncoder::new(p.clone());
        let mut enc = Encryptor::from_secret_key(kg.secret_key().clone(), 26);
        let deepest = p.max_level();
        let mut cts = Vec::new();
        let mut messages = Vec::new();
        for (v, level) in [(1u64, deepest), (2, 0), (3, deepest), (4, 0)] {
            let (ct, seed) = enc
                .encrypt_seeded_at(&encoder.encode(&[v]).unwrap(), level)
                .unwrap();
            messages.push(wire::encode_ciphertext_seeded(&ct, seed).unwrap());
            cts.push(ct);
        }
        // A full ciphertext among them, at the deepest level.
        messages.push(wire::encode_ciphertext(&cts[0]));
        cts.push(cts[0].clone());
        let bundle = messages.concat();
        assert_eq!(
            bundle.len(),
            2 * wire::seeded_ciphertext_wire_bytes(&p, deepest)
                + 2 * wire::seeded_ciphertext_wire_bytes(&p, 0)
                + wire::ciphertext_wire_bytes(&p, deepest),
            "{name}"
        );
        let parts = wire::split_ciphertext_messages(&bundle, &p).unwrap();
        assert_eq!(parts.len(), messages.len(), "{name}");
        for ((part, message), ct) in parts.iter().zip(&messages).zip(&cts) {
            assert_eq!(*part, &message[..], "{name}");
            let back = wire::decode_ciphertext(part, &p).unwrap();
            assert_eq!(back.level(), ct.level(), "{name}");
            assert_eq!(back.c0().data(), ct.c0().data(), "{name}");
            assert_eq!(back.c1().data(), ct.c1().data(), "{name}");
        }
        // One byte short of the last message is a framing error, and a
        // level past the chain in any header is refused as one.
        malformed(
            wire::split_ciphertext_messages(&bundle[..bundle.len() - 1], &p),
            name,
        );
        let mut past = bundle.clone();
        let second = messages[0].len();
        let past_level = p.levels() as u32;
        past[second + wire::OFF_LEVEL..second + wire::OFF_LEVEL + 4]
            .copy_from_slice(&past_level.to_le_bytes());
        assert!(
            matches!(
                wire::split_ciphertext_messages(&past, &p),
                Err(Error::InvalidLevel { .. })
            ),
            "{name}: a level past the chain"
        );
    }
}

/// A download bundle may hold ciphertexts at different levels: the
/// splitter sizes each message by its own header, so level-1 and level-0
/// full ciphertexts back to back frame exactly and each decodes to what
/// was encoded.
#[test]
fn bundles_of_full_ciphertexts_at_mixed_levels_split_exactly() {
    for (name, p) in presets().into_iter().filter(|(_, p)| p.levels() > 1) {
        let mut kg = KeyGenerator::from_seed(p.clone(), 23);
        let pk = kg.public_key().unwrap();
        let encoder = BatchEncoder::new(p.clone());
        let mut enc = Encryptor::from_public_key(pk, 24);
        let eval = Evaluator::new(p.clone());
        let fresh: Vec<_> = (0..3u64)
            .map(|v| enc.encrypt(&encoder.encode(&[v, v + 1]).unwrap()).unwrap())
            .collect();
        let cts = [
            eval.mod_switch_to(&fresh[0], 1).unwrap(),
            fresh[1].clone(),
            eval.mod_switch_to(&fresh[2], 1).unwrap(),
        ];
        let messages: Vec<Vec<u8>> = cts.iter().map(wire::encode_ciphertext).collect();
        let bundle = messages.concat();
        assert_eq!(
            bundle.len(),
            2 * wire::ciphertext_wire_bytes(&p, 1) + wire::ciphertext_wire_bytes(&p, 0),
            "{name}"
        );
        let parts = wire::split_ciphertext_messages(&bundle, &p).unwrap();
        assert_eq!(parts.len(), 3, "{name}");
        for ((part, message), ct) in parts.iter().zip(&messages).zip(&cts) {
            assert_eq!(*part, &message[..], "{name}");
            let back = wire::decode_ciphertext(part, &p).unwrap();
            assert_eq!(back.level(), ct.level(), "{name}");
            assert_eq!(back.c0().data(), ct.c0().data(), "{name}");
            assert_eq!(back.c1().data(), ct.c1().data(), "{name}");
        }
        // One byte short of the last message is a framing error.
        malformed(
            wire::split_ciphertext_messages(&bundle[..bundle.len() - 1], &p),
            name,
        );
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
        // Per key an element and a seed, and its pairs' k0 polynomials,
        // packed — the expanded set's a halves never cross.
        assert_eq!(
            bytes.len(),
            wire::HEADER_BYTES + 4 + keys.len() * (16 + key_k0_bytes(&p)),
            "{name}: galois keys wire size vs key accounting"
        );
        let decode = |b: &[u8]| wire::decode_seeded_galois_keys(b, &p);
        let what = format!("{name} galois keys");
        check_exact_length(&bytes, decode, &what);
        check_old_versions_refused(&bytes, decode, &what);
        // Every plane of the first key's first k0 — on a hybrid chain the
        // last one at P's width — and of the last key's last k0.
        let ks = p.ks_chain_at(0);
        let k0 = wire::poly_bytes(ks, ks.limbs());
        for at in [wire::HEADER_BYTES + 4 + 16, bytes.len() - k0] {
            check_plane_boundaries(&bytes, at, ks, ks.limbs(), decode, &what);
        }
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
                    let q = p.ks_chain_at(0).modulus(0).value();
                    let bits = wire::field_bits(q);
                    wire::write_field(&mut mutant[second + 16..], bits, 0, u64::MAX >> (64 - bits));
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
/// the declared count — one count or one byte either way is refused.
#[test]
fn seeded_galois_key_sets_are_framed_exactly() {
    const OFF_COUNT: usize = wire::HEADER_BYTES;
    for name in ["rns_3x36", "hybrid_2x36"] {
        let p = presets().into_iter().find(|(n, _)| *n == name).unwrap().1;
        let keys = KeyGenerator::from_seed(p.clone(), 29)
            .seeded_galois_keys_for_steps(&[1, 4])
            .unwrap();
        let clean = wire::encode_seeded_galois_keys(&keys, &p);
        assert_eq!(clean[wire::OFF_KIND], 7, "{name}");
        assert_eq!(
            clean[wire::OFF_VERSION..wire::OFF_VERSION + 2],
            wire::VERSION.to_le_bytes(),
            "{name}: kind 7 speaks the one version"
        );
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
        let short = &clean[..clean.len() - 1];
        let mut long = clean.clone();
        long.push(0);
        for (what, bytes) in [("one byte short", short), ("one byte long", &long[..])] {
            let reason = malformed(wire::decode_seeded_galois_keys(bytes, &p), what);
            assert!(reason.contains("need exactly"), "{name} {what}: {reason}");
        }

        // A hybrid key's last k0 plane is canonical against P.
        if let Some(special) = p.special() {
            let at = wire::HEADER_BYTES + 4 + 16 + wire::poly_bytes(p.ks_chain_at(0), p.limbs());
            let word = |w: u64| {
                let mut mutant = clean.clone();
                wire::write_field(&mut mutant[at..], wire::field_bits(special.value()), 0, w);
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
    let digit = BfvParams::builder()
        .degree(hybrid.degree())
        .plain_bits(hybrid.plain_modulus().bits())
        .moduli_bits(&[36, 36])
        .build()
        .unwrap();
    assert_eq!(digit.chain(), hybrid.chain());
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
