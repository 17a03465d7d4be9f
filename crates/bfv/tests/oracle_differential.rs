//! The engine against an independent oracle: every ciphertext below is
//! decrypted twice — by `Decryptor` and by the wide-integer reference in
//! `oracle/` — with the same plaintext and the same noise, the noise
//! within the tracked `NoiseEstimate`; and wherever that estimate
//! promises a correct decryption, the plaintext is the one the oracle's
//! own coefficient algebra predicts.
//!
//! Covered on `rns_3x36` (digit key switching) and `hybrid_2x36` (`P·Q`
//! key switching) at every level: `mod_switch_to`, `add`, `mul_plain`, a
//! direct and a hoisted rotation. The rotation keys are generated seeded,
//! cross the wire as one kind-7 message and are expanded from their
//! seeds, and every pair of one key is checked by the oracle to be an
//! RLWE sample of its scaled `s(x^g)`. Switched *evaluated* ciphertexts
//! too: a masked layer output — `mul_plain`, a hoisted rotation and a
//! mask-sized `add_plain` — switched to the last limb, in either order of
//! mask and switch, the shape a session's download ships in.

mod oracle;
mod support;

use cheetah_bfv::{
    wire, BatchEncoder, BfvParams, Ciphertext, Decryptor, Encryptor, Evaluator, KeyGenerator,
    RnsPoly,
};
use oracle::{
    add_mod_t, automorphism_mod_t, automorphism_ternary, mul_mod_t, rotation_element, WideModulus,
};
use support::Alloc;

const STEPS: [i64; 2] = [1, -3];

/// Residues of a polynomial in coefficient form, limb-major — the one
/// engine routine (the inverse NTT) on the way into the oracle.
fn coeff_planes(poly: &RnsPoly, chain: &cheetah_bfv::ModulusChain) -> Vec<u64> {
    let mut p = poly.clone();
    p.to_coeff(chain);
    p.data().to_vec()
}

fn primes(chain: &cheetah_bfv::ModulusChain) -> Vec<u64> {
    chain.moduli().iter().map(|q| q.value()).collect()
}

struct Rig {
    params: BfvParams,
    /// The secret's ternary coefficients.
    s: Vec<i8>,
    decryptor: Decryptor,
}

impl Rig {
    /// Engine decrypt = oracle decrypt, and the oracle's noise = the
    /// engine's measured noise ≤ the tracked bound, always; oracle decrypt
    /// = `expected` wherever the tracked bound is under the level's
    /// ceiling `Q_ℓ/2t`, so the model promises a correct decryption.
    /// Returns whether it did — past the ceiling (a dense mask multiply or
    /// a digit rotation on one 36-bit limb) the noise really overflows,
    /// and the ciphertext decrypts to garbage both ways alike.
    fn check(&self, ct: &Ciphertext, expected: &[u64], what: &str) -> bool {
        let chain = self.params.chain_at(ct.level());
        let q = WideModulus::new(&primes(chain));
        let c0 = q.compose_planes(&coeff_planes(ct.c0(), chain));
        let c1 = q.compose_planes(&coeff_planes(ct.c1(), chain));
        let t = self.params.plain_modulus().value();
        let (m, noise) = q.decrypt(&q.phase(&c0, &c1, &self.s), t);

        let engine = self.decryptor.decrypt(ct).unwrap();
        assert_eq!(engine.coeffs(), &m[..], "{what}: engine vs oracle decrypt");
        assert_eq!(
            self.decryptor.invariant_noise(ct).unwrap(),
            noise,
            "{what}: engine vs oracle noise"
        );
        let tracked = ct.noise().bound_log2;
        assert!(
            (noise.max(1) as f64).log2() <= tracked,
            "{what}: oracle noise 2^{:.1} above the tracked bound 2^{tracked:.1}",
            (noise as f64).log2()
        );
        let promised = tracked < self.params.noise_ceiling_at(ct.level()).log2();
        if promised {
            assert_eq!(&m[..], expected, "{what}: oracle decrypt vs oracle algebra");
        }
        promised
    }
}

/// The secret's ternary coefficients, read off limb plane 0.
fn ternary_secret(kg: &KeyGenerator, params: &BfvParams) -> Vec<i8> {
    let q0 = params.chain().modulus(0).value();
    coeff_planes(kg.secret_key().poly(), params.chain())[..params.degree()]
        .iter()
        .map(|&c| match c {
            0 => 0,
            1 => 1,
            c => {
                assert_eq!(c, q0 - 1, "secret must be ternary");
                -1
            }
        })
        .collect()
}

/// Every pair of an expanded key is `(k0, a)` with `k0 + a·s = w·s(x^g) + e`
/// over the key-switch modulus and `e` a small error, where the weight
/// `w` is `A^d·Q/q_i` for digit `d` of limb `i` on a digit chain and
/// `P·Q/q_i` on a hybrid one.
fn check_key_pairs(params: &BfvParams, key: &cheetah_bfv::GaloisKey, s: &[i8]) {
    let ks = params.ks_chain_at(0);
    let m = WideModulus::new(&primes(ks));
    let data = params.chain();
    let big_q = WideModulus::new(&primes(data)).value();
    let weights: Vec<u128> = match params.special() {
        Some(p) => (0..data.limbs())
            .map(|i| p.value() as u128 * (big_q / data.modulus(i).value() as u128))
            .collect(),
        None => (0..data.limbs())
            .flat_map(|i| {
                let qhat = big_q / data.modulus(i).value() as u128;
                let levels = data.limb_decomposition_levels(params.a_dcmp(), i);
                (0..levels).map(move |d| params.a_dcmp().pow(d as u32) as u128 * qhat)
            })
            .collect(),
    };
    assert_eq!(weights.len(), key.pairs().len());
    let s_g = automorphism_ternary(s, key.element);
    let cbd_bound = (2.0 * params.sigma() * params.sigma()).round() as u128;
    for (d, ((k0, a), &w)) in key.pairs().iter().zip(&weights).enumerate() {
        let k0 = m.compose_planes(&coeff_planes(&k0.unpack(), ks));
        let a = m.compose_planes(&coeff_planes(&a.unpack(), ks));
        let e = m.sub_poly(&m.phase(&k0, &a, s), &m.scaled_ternary(w, &s_g));
        let norm = m.inf_norm(&e);
        assert!(
            norm > 0 && norm <= cbd_bound,
            "element {} pair {d}: |e| = {norm}, CBD bound {cbd_bound}",
            key.element
        );
    }
}

/// Runs the five operations at every level of `params`; `deepest` says
/// which of them (in the order mod-switch, add, `mul_plain`, direct,
/// hoisted) the tracked bound keeps under the ceiling on the last limb.
fn differential(name: &str, params: BfvParams, deepest: [bool; 5]) {
    let n = params.degree();
    let t = params.plain_modulus().value();
    let mut kg = KeyGenerator::from_seed(params.clone(), 2026);
    let pk = kg.public_key().unwrap();
    let seeded = kg.seeded_galois_keys_for_steps(&STEPS).unwrap();
    let bytes = wire::encode_seeded_galois_keys(&seeded, &params);
    let keys = wire::decode_seeded_galois_keys(&bytes, &params)
        .unwrap()
        .expand(&params);
    let rig = Rig {
        s: ternary_secret(&kg, &params),
        decryptor: Decryptor::new(kg.secret_key().clone()),
        params: params.clone(),
    };
    let g1 = rotation_element(n, STEPS[0]);
    check_key_pairs(&params, keys.get(g1).unwrap(), &rig.s);

    let encoder = BatchEncoder::new(params.clone());
    let slots = |seed: u64| -> Vec<u64> { (0..n as u64).map(|i| (i * 7919 + seed) % t).collect() };
    let pt0 = encoder.encode(&slots(11)).unwrap();
    let pt1 = encoder.encode(&slots(12)).unwrap();
    let mask = encoder.encode(&slots(13)).unwrap();
    let mut enc = Encryptor::from_public_key(pk, 2027);
    let ct0 = enc.encrypt(&pt0).unwrap();
    let ct1 = enc.encrypt(&pt1).unwrap();
    let eval = Evaluator::new(params.clone());
    let prepared = eval.prepare_plaintext_at(&mask, 0).unwrap();

    // The oracle's algebra on the coefficient polynomials; a modulus
    // switch leaves the plaintext alone, so one prediction serves every
    // level.
    let (m0, m1, p) = (pt0.coeffs(), pt1.coeffs(), mask.coeffs());
    let g2 = rotation_element(n, STEPS[1]);
    let sum = add_mod_t(m0, m1, t);
    let product = mul_mod_t(m0, p, t);
    let rot_direct = automorphism_mod_t(m0, g1, t);
    let rot_hoisted = automorphism_mod_t(m0, g2, t);

    for level in 0..params.levels() {
        let at = |what: &str| format!("{name} lvl{level} {what}");
        let a = eval.mod_switch_to(&ct0, level).unwrap();
        let b = eval.mod_switch_to(&ct1, level).unwrap();
        assert_eq!(a.level(), level);
        let hoisted = eval.hoist(&a).unwrap();
        let promised = [
            rig.check(&a, m0, &at("mod_switch_to")),
            rig.check(&eval.add(&a, &b).unwrap(), &sum, &at("add")),
            rig.check(
                &eval.mul_plain(&a, &prepared).unwrap(),
                &product,
                &at("mul_plain"),
            ),
            rig.check(
                &eval.rotate_rows(&a, STEPS[0], &keys).unwrap(),
                &rot_direct,
                &at("direct rotation"),
            ),
            rig.check(
                &eval.rotate_hoisted(&a, &hoisted, STEPS[1], &keys).unwrap(),
                &rot_hoisted,
                &at("hoisted rotation"),
            ),
        ];
        // Above one limb every operation fits the model's budget; on the
        // last limb, the ones the chain can still carry.
        let expect = if level < params.max_level() {
            [true; 5]
        } else {
            deepest
        };
        assert_eq!(promised, expect, "{name} lvl{level}: operations in budget");
    }
}

#[test]
fn digit_chain_matches_the_oracle_at_every_level() {
    // One 36-bit limb holds neither a dense mask multiply nor a digit
    // key switch's `A`-scaled noise.
    differential(
        "rns_3x36",
        BfvParams::preset_rns_3x36(4096).unwrap(),
        [true, true, false, false, false],
    );
}

#[test]
fn hybrid_chain_matches_the_oracle_at_every_level() {
    // The special prime divides the key-switch noise away: a hybrid
    // rotation still fits on the last limb.
    differential(
        "hybrid_2x36",
        BfvParams::preset_hybrid_2x36(4096).unwrap(),
        [true, true, false, true, true],
    );
}

/// A layer output's way to the wire from every level above the last limb:
/// `mul_plain` by a dense plaintext, a hoisted rotation, then a uniform
/// mask-sized plaintext added and the result switched to the last limb —
/// masked first or switched first. Every shipped ciphertext must decrypt
/// to the oracle's algebra (the tracked bound promises it) and to the
/// expected slots.
fn switched_download(name: &str, params: BfvParams) {
    let n = params.degree();
    let t = params.plain_modulus().value();
    let last = params.max_level();
    let mut kg = KeyGenerator::from_seed(params.clone(), 2028);
    let keys = kg.galois_keys_for_steps(&STEPS[1..]).unwrap();
    let rig = Rig {
        s: ternary_secret(&kg, &params),
        decryptor: Decryptor::new(kg.secret_key().clone()),
        params: params.clone(),
    };
    let encoder = BatchEncoder::new(params.clone());
    let slots = |seed: u64| -> Vec<u64> { (0..n as u64).map(|i| (i * 7919 + seed) % t).collect() };
    let (x, w, r) = (slots(21), slots(22), slots(23));
    let (pt_x, pt_w, pt_r) = (
        encoder.encode(&x).unwrap(),
        encoder.encode(&w).unwrap(),
        encoder.encode(&r).unwrap(),
    );
    let ct = Encryptor::from_secret_key(kg.secret_key().clone(), 2029)
        .encrypt(&pt_x)
        .unwrap();
    let eval = Evaluator::new(params.clone());
    let weights = eval.prepare_plaintext_at(&pt_w, 0).unwrap();

    // Slot `i` of a row after the rotation holds slot `i + step` of the
    // product; the mask lands slot-wise on top.
    let half = n / 2;
    let step = STEPS[1];
    let expected_slots: Vec<u64> = (0..n)
        .map(|i| {
            let (row, col) = (i / half, i % half);
            let src = row * half + (col as i64 + step).rem_euclid(half as i64) as usize;
            (x[src] * w[src] % t + r[i]) % t
        })
        .collect();
    let g = rotation_element(n, step);
    let (mx, mw, mr) = (pt_x.coeffs(), pt_w.coeffs(), pt_r.coeffs());
    let expected = add_mod_t(&automorphism_mod_t(&mul_mod_t(mx, mw, t), g, t), mr, t);

    for level in 0..last {
        let a = eval.mod_switch_to(&ct, level).unwrap();
        let product = eval.mul_plain(&a, &weights).unwrap();
        let hoisted = eval.hoist(&product).unwrap();
        let rotated = eval
            .rotate_hoisted(&product, &hoisted, step, &keys)
            .unwrap();
        let masked_then_switched = eval
            .mod_switch_to(&eval.add_plain(&rotated, &pt_r).unwrap(), last)
            .unwrap();
        let switched_then_masked = eval
            .add_plain(&eval.mod_switch_to(&rotated, last).unwrap(), &pt_r)
            .unwrap();
        for (order, shipped) in [
            ("masked, then switched", masked_then_switched),
            ("switched, then masked", switched_then_masked),
        ] {
            let what = format!("{name} lvl{level} → lvl{last} {order}");
            assert_eq!(shipped.level(), last, "{what}");
            assert!(
                rig.check(&shipped, &expected, &what),
                "{what}: out of budget"
            );
            let decrypted = rig.decryptor.decrypt(&shipped).unwrap();
            assert_eq!(encoder.decode(&decrypted), expected_slots, "{what}: slots");
        }
    }
}

#[test]
fn digit_chain_ships_switched_layer_outputs_the_oracle_agrees_with() {
    switched_download("rns_3x36", BfvParams::preset_rns_3x36(4096).unwrap());
}

#[test]
fn hybrid_chain_ships_switched_layer_outputs_the_oracle_agrees_with() {
    switched_download("hybrid_2x36", BfvParams::preset_hybrid_2x36(4096).unwrap());
}
