//! Pins of the pow2 shift-add `mul_plain` fast path:
//!
//! * a prepared plaintext that is a uniform `±2^e` scalar carries the
//!   [`cheetah_bfv::Pow2Scalar`] marker, and multiplying by it — plain,
//!   fused-accumulate or inside a many-term group sum (which reads the
//!   mask's evaluation form, marker or not) — produces **bit-identical**
//!   ciphertexts to the generic Barrett path on the same prepared
//!   polynomial, for every RNS and hybrid preset and at every recommended
//!   level;
//! * `mul_scalar_assign` by a small power of two lands on exactly the
//!   bits of a generic `mul_plain` by the same uniform constant;
//! * plaintexts that are not uniform power-of-two scalars (non-uniform
//!   vectors, non-pow2 constants, zero, oversized exponents) never set
//!   the marker and stay on the generic path.

use cheetah_bfv::{
    BatchEncoder, BfvParams, Ciphertext, Decryptor, Encryptor, Evaluator, KeyGenerator, Pow2Scalar,
};

struct Ctx {
    encoder: BatchEncoder,
    enc: Encryptor,
    dec: Decryptor,
    eval: Evaluator,
}

fn ctx(params: BfvParams, seed: u64) -> Ctx {
    let mut kg = KeyGenerator::from_seed(params.clone(), seed);
    let pk = kg.public_key().unwrap();
    Ctx {
        encoder: BatchEncoder::new(params.clone()),
        enc: Encryptor::from_public_key(pk, seed ^ 0x5eed),
        dec: Decryptor::new(kg.secret_key().clone()),
        eval: Evaluator::new(params),
    }
}

fn all_presets() -> Vec<(&'static str, BfvParams)> {
    let mut v = BfvParams::presets(4096).unwrap();
    v.extend(BfvParams::hybrid_presets(4096).unwrap());
    v
}

fn values(n: usize) -> Vec<u64> {
    (0..n as u64).map(|i| (i * 37 + 11) % 97).collect()
}

fn assert_same_bits(fast: &Ciphertext, generic: &Ciphertext, what: &str) {
    assert_eq!(fast.c0(), generic.c0(), "{what}: c0 diverged");
    assert_eq!(fast.c1(), generic.c1(), "{what}: c1 diverged");
}

#[test]
fn pow2_fast_path_is_bit_identical_across_presets_and_levels() {
    for (name, params) in all_presets() {
        let mut c = ctx(params.clone(), 17);
        let slots = c.encoder.slots();
        let fresh = c
            .enc
            .encrypt(&c.encoder.encode(&values(64)).unwrap())
            .unwrap();
        let deepest = fresh.noise().recommended_level(&params, 0, 2.0);
        for scalar in [1i64, -1, 4, -8, 16] {
            let pt = c.encoder.encode_signed(&vec![scalar; slots]).unwrap();
            for level in 0..=deepest {
                let ct = c.eval.mod_switch_to(&fresh, level).unwrap();
                let prep = c.eval.prepare_plaintext_at(&pt, level).unwrap();
                let expect = Pow2Scalar {
                    exp: scalar.unsigned_abs().trailing_zeros(),
                    negative: scalar < 0,
                };
                assert_eq!(
                    prep.pow2_scalar(),
                    Some(expect),
                    "{name}: uniform {scalar} must carry the pow2 marker"
                );
                let stripped = prep.clone().without_pow2();

                let fast = c.eval.mul_plain(&ct, &prep).unwrap();
                let generic = c.eval.mul_plain(&ct, &stripped).unwrap();
                assert_same_bits(&fast, &generic, &format!("{name} L{level} mul x{scalar}"));

                let mut acc_fast = ct.clone();
                let mut acc_generic = ct.clone();
                c.eval
                    .mul_plain_accumulate(&mut acc_fast, &ct, &prep)
                    .unwrap();
                c.eval
                    .mul_plain_accumulate(&mut acc_generic, &ct, &stripped)
                    .unwrap();
                assert_same_bits(
                    &acc_fast,
                    &acc_generic,
                    &format!("{name} L{level} fma x{scalar}"),
                );

                // The group sum reads a pow2 mask through its evaluation
                // form, not through the doubling chain `mul_plain` takes:
                // marked or stripped, it lands on multiply-then-add's bits.
                let mut many = ct.clone();
                c.eval
                    .mul_plain_accumulate_many(
                        &mut many,
                        &[(&ct, &prep), (&fast, &stripped), (&ct, &prep)],
                    )
                    .unwrap();
                let mut explicit = ct.clone();
                for a in [&ct, &fast, &ct] {
                    let product = c.eval.mul_plain(a, &prep).unwrap();
                    c.eval.add_assign(&mut explicit, &product).unwrap();
                }
                assert_same_bits(
                    &many,
                    &explicit,
                    &format!("{name} L{level} group sum x{scalar}"),
                );

                // And the product is the right one: inputs and scalars are
                // small enough that no slot wraps mod t.
                let got = c
                    .encoder
                    .decode_signed(&c.dec.decrypt_checked(&fast).unwrap());
                for (slot, &v) in values(64).iter().enumerate() {
                    assert_eq!(got[slot], v as i64 * scalar, "{name} L{level} slot {slot}");
                }
            }
        }
    }
}

#[test]
fn mul_scalar_by_pow2_matches_generic_mul_plain_bitwise() {
    for (name, params) in all_presets() {
        let mut c = ctx(params.clone(), 23);
        let slots = c.encoder.slots();
        let fresh = c
            .enc
            .encrypt(&c.encoder.encode(&values(48)).unwrap())
            .unwrap();
        for scalar in [1u64, 2, 8, 256] {
            let mut fast = fresh.clone();
            c.eval.mul_scalar_assign(&mut fast, scalar).unwrap();
            let prep = c
                .eval
                .prepare_plaintext_at(&c.encoder.encode(&vec![scalar; slots]).unwrap(), 0)
                .unwrap()
                .without_pow2();
            let generic = c.eval.mul_plain(&fresh, &prep).unwrap();
            assert_same_bits(&fast, &generic, &format!("{name} mul_scalar x{scalar}"));
        }
    }
}

#[test]
fn non_pow2_plaintexts_never_take_the_fast_path() {
    let (_, params) = all_presets().remove(0);
    let mut c = ctx(params, 31);
    let slots = c.encoder.slots();

    // Non-uniform vector (even of powers of two), non-pow2 constants,
    // zero, and a constant whose exponent exceeds the chain budget: all
    // stay generic.
    let mut non_uniform = vec![4u64; slots];
    non_uniform[7] = 8;
    for (what, vals) in [
        ("non-uniform", non_uniform),
        ("uniform 3", vec![3u64; slots]),
        ("uniform 6", vec![6u64; slots]),
        ("zero", vec![0u64; slots]),
        ("uniform 512 (exp > chain budget)", vec![512u64; slots]),
        ("short pow2 vector (zero-padded tail)", vec![4u64; 5]),
    ] {
        let prep = c
            .eval
            .prepare_plaintext_at(&c.encoder.encode(&vals).unwrap(), 0)
            .unwrap();
        assert!(
            prep.pow2_scalar().is_none(),
            "{what} must not be marked pow2"
        );
    }

    // Sanity: the generic path on one of those still multiplies correctly.
    let fresh = c
        .enc
        .encrypt(&c.encoder.encode(&values(16)).unwrap())
        .unwrap();
    let prep = c
        .eval
        .prepare_plaintext_at(&c.encoder.encode(&vec![3u64; slots]).unwrap(), 0)
        .unwrap();
    let out = c.eval.mul_plain(&fresh, &prep).unwrap();
    let got = c
        .encoder
        .decode_signed(&c.dec.decrypt_checked(&out).unwrap());
    for (slot, &v) in values(16).iter().enumerate() {
        assert_eq!(got[slot], v as i64 * 3);
    }
}

#[test]
fn chain_budget_boundary_is_exact() {
    // The shift-add chain accepts exponents up to and including
    // POW2_CHAIN_MAX_EXP; one past it falls back to generic Barrett. Both
    // sides of the boundary must be bit-identical to the generic path.
    use cheetah_bfv::evaluator::POW2_CHAIN_MAX_EXP;

    for (name, params) in all_presets() {
        let mut c = ctx(params, 41);
        let slots = c.encoder.slots();
        let fresh = c
            .enc
            .encrypt(&c.encoder.encode(&values(32)).unwrap())
            .unwrap();

        // Exactly at the limit: marked, fast path taken.
        let at = 1u64 << POW2_CHAIN_MAX_EXP;
        let prep = c
            .eval
            .prepare_plaintext_at(&c.encoder.encode(&vec![at; slots]).unwrap(), 0)
            .unwrap();
        assert_eq!(
            prep.pow2_scalar(),
            Some(Pow2Scalar {
                exp: POW2_CHAIN_MAX_EXP,
                negative: false,
            }),
            "{name}: 2^{POW2_CHAIN_MAX_EXP} must take the chain path"
        );
        let fast = c.eval.mul_plain(&fresh, &prep).unwrap();
        let generic = c
            .eval
            .mul_plain(&fresh, &prep.clone().without_pow2())
            .unwrap();
        assert_same_bits(
            &fast,
            &generic,
            &format!("{name} at-limit 2^{POW2_CHAIN_MAX_EXP}"),
        );

        // One past the limit: unmarked, generic Barrett — and a stripped
        // clone (a no-op here) still lands on exactly the same bits.
        let over = 1u64 << (POW2_CHAIN_MAX_EXP + 1);
        let prep = c
            .eval
            .prepare_plaintext_at(&c.encoder.encode(&vec![over; slots]).unwrap(), 0)
            .unwrap();
        assert!(
            prep.pow2_scalar().is_none(),
            "{name}: 2^{} must fall back to Barrett",
            POW2_CHAIN_MAX_EXP + 1
        );
        let fallback = c.eval.mul_plain(&fresh, &prep).unwrap();
        let generic = c
            .eval
            .mul_plain(&fresh, &prep.clone().without_pow2())
            .unwrap();
        assert_same_bits(
            &fallback,
            &generic,
            &format!("{name} over-limit 2^{}", POW2_CHAIN_MAX_EXP + 1),
        );
    }
}
