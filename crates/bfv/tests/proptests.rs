//! Property-based tests for the BFV substrate: algebraic laws that must
//! hold for arbitrary inputs, and homomorphism properties of the full
//! encrypt→evaluate→decrypt pipeline.

use cheetah_bfv::arith::{bit_reverse, generate_ntt_prime, Modulus, ShoupPrecomp};
use cheetah_bfv::ntt::{negacyclic_mul_naive, NttTable};
use cheetah_bfv::{BatchEncoder, BfvParams, Decryptor, Encryptor, Evaluator, KeyGenerator};
use proptest::prelude::*;

const Q30: u64 = 0; // placeholder replaced by lazy helpers below

fn modulus_30() -> Modulus {
    let _ = Q30;
    Modulus::new(generate_ntt_prime(30, 64).unwrap()).unwrap()
}

fn modulus_60() -> Modulus {
    Modulus::new(generate_ntt_prime(60, 64).unwrap()).unwrap()
}

proptest! {
    #[test]
    fn barrett_mul_matches_reference(a in any::<u64>(), b in any::<u64>()) {
        for q in [modulus_30(), modulus_60()] {
            let a = a % q.value();
            let b = b % q.value();
            let expect = ((a as u128 * b as u128) % q.value() as u128) as u64;
            prop_assert_eq!(q.mul_mod(a, b), expect);
        }
    }

    #[test]
    fn shoup_mul_matches_barrett(w in any::<u64>(), x in any::<u64>()) {
        let q = modulus_60();
        let w = w % q.value();
        let x = x % q.value();
        let pre = ShoupPrecomp::new(w, &q);
        prop_assert_eq!(pre.mul(x, &q), q.mul_mod(x, w));
    }

    #[test]
    fn modular_ring_laws(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        let q = modulus_30();
        let (a, b, c) = (a % q.value(), b % q.value(), c % q.value());
        // commutativity, associativity, distributivity
        prop_assert_eq!(q.add_mod(a, b), q.add_mod(b, a));
        prop_assert_eq!(q.mul_mod(a, b), q.mul_mod(b, a));
        prop_assert_eq!(q.mul_mod(q.mul_mod(a, b), c), q.mul_mod(a, q.mul_mod(b, c)));
        prop_assert_eq!(
            q.mul_mod(a, q.add_mod(b, c)),
            q.add_mod(q.mul_mod(a, b), q.mul_mod(a, c))
        );
    }

    #[test]
    fn inverse_is_two_sided(a in 1u64..u64::MAX) {
        let q = modulus_30();
        let a = a % q.value();
        prop_assume!(a != 0);
        let inv = q.inv_mod(a).unwrap();
        prop_assert_eq!(q.mul_mod(a, inv), 1);
        prop_assert_eq!(q.mul_mod(inv, a), 1);
    }

    #[test]
    fn center_roundtrips(a in any::<u64>()) {
        let q = modulus_30();
        let a = a % q.value();
        prop_assert_eq!(q.from_signed(q.center(a)), a);
    }

    /// `from_signed` (the magnitude's residue under the sign) is the
    /// Euclidean remainder for every `i64` and every 2–61-bit modulus,
    /// the sign and reduction boundaries included.
    #[test]
    fn from_signed_is_the_euclidean_remainder(
        a in any::<i64>(),
        q in any::<u64>(),
        bits in 2u32..=61,
    ) {
        let q = Modulus::new((q | 1 << 63) >> (64 - bits)).unwrap();
        let qv = q.value() as i64;
        for a in [a, i64::MIN, i64::MAX, 0, qv, -qv, qv - 1, 1 - qv, qv + 1, -qv - 1] {
            let expect = (a as i128).rem_euclid(qv as i128) as u64;
            prop_assert_eq!(q.from_signed(a), expect, "a = {}, q = {}", a, qv);
        }
    }

    #[test]
    fn bit_reverse_involution(x in 0usize..4096, bits in 1u32..13) {
        let x = x & ((1 << bits) - 1);
        prop_assert_eq!(bit_reverse(bit_reverse(x, bits), bits), x);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn ntt_roundtrip_random(seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let n = 128;
        let q = Modulus::new(generate_ntt_prime(40, n).unwrap()).unwrap();
        let table = NttTable::new(n, q).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a: Vec<u64> = (0..n).map(|_| rng.random_range(0..q.value())).collect();
        let mut b = a.clone();
        table.forward(&mut b);
        table.inverse(&mut b);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn ntt_mul_matches_schoolbook(seed in any::<u64>()) {
        use rand::{Rng, SeedableRng};
        let n = 64;
        let q = Modulus::new(generate_ntt_prime(40, n).unwrap()).unwrap();
        let table = NttTable::new(n, q).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a: Vec<u64> = (0..n).map(|_| rng.random_range(0..q.value())).collect();
        let b: Vec<u64> = (0..n).map(|_| rng.random_range(0..q.value())).collect();
        let expect = negacyclic_mul_naive(&a, &b, &q);
        let mut fa = a.clone();
        let mut fb = b;
        table.forward(&mut fa);
        table.forward(&mut fb);
        let mut fc: Vec<u64> = fa.iter().zip(&fb).map(|(&x, &y)| q.mul_mod(x, y)).collect();
        table.inverse(&mut fc);
        prop_assert_eq!(fc, expect);
    }
}

/// Shared fixture for the (expensive) end-to-end homomorphism properties.
struct HomCtx {
    encoder: BatchEncoder,
    enc: Encryptor,
    dec: Decryptor,
    eval: Evaluator,
    keys: cheetah_bfv::GaloisKeys,
    t: u64,
}

fn hom_ctx(seed: u64) -> HomCtx {
    let params = BfvParams::builder()
        .degree(2048)
        .plain_bits(16)
        .cipher_bits(54)
        .a_dcmp(1 << 16)
        .build()
        .unwrap();
    let mut kg = KeyGenerator::from_seed(params.clone(), seed);
    let pk = kg.public_key().unwrap();
    let keys = kg.galois_keys_for_steps(&[1, 2, 3, -1, -2]).unwrap();
    HomCtx {
        encoder: BatchEncoder::new(params.clone()),
        enc: Encryptor::from_public_key(pk, seed ^ 0xabcdef),
        dec: Decryptor::new(kg.secret_key().clone()),
        eval: Evaluator::new(params.clone()),
        keys,
        t: params.plain_modulus().value(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn homomorphic_affine_combination(
        seed in any::<u64>(),
        a in proptest::collection::vec(0u64..65536, 8),
        b in proptest::collection::vec(0u64..65536, 8),
        w in proptest::collection::vec(0u64..65536, 8),
    ) {
        let mut ctx = hom_ctx(seed);
        let ca = ctx.enc.encrypt(&ctx.encoder.encode(&a).unwrap()).unwrap();
        let cb = ctx.enc.encrypt(&ctx.encoder.encode(&b).unwrap()).unwrap();
        let pw = ctx.eval.prepare_plaintext(&ctx.encoder.encode(&w).unwrap()).unwrap();
        // (a + b) * w slot-wise
        let sum = ctx.eval.add(&ca, &cb).unwrap();
        let prod = ctx.eval.mul_plain(&sum, &pw).unwrap();
        let out = ctx.encoder.decode(&ctx.dec.decrypt_checked(&prod).unwrap());
        for i in 0..8 {
            let expect = ((a[i] + b[i]) as u128 * w[i] as u128 % ctx.t as u128) as u64;
            prop_assert_eq!(out[i], expect);
        }
    }

    #[test]
    fn rotation_is_cyclic_shift(seed in any::<u64>(), step in 1i64..4) {
        let mut ctx = hom_ctx(seed);
        let row = ctx.encoder.row_size();
        let vals: Vec<u64> = (0..row as u64).map(|i| i * 3 % 65536).collect();
        let ct = ctx.enc.encrypt(&ctx.encoder.encode(&vals).unwrap()).unwrap();
        let rot = ctx.eval.rotate_rows(&ct, step, &ctx.keys).unwrap();
        let out = ctx.encoder.decode(&ctx.dec.decrypt_checked(&rot).unwrap());
        for i in 0..16 {
            prop_assert_eq!(out[i], vals[(i + step as usize) % row]);
        }
    }

    #[test]
    fn rotate_then_unrotate_is_identity(seed in any::<u64>(), step in 1i64..3) {
        let mut ctx = hom_ctx(seed);
        let vals: Vec<u64> = (0..64u64).collect();
        let ct = ctx.enc.encrypt(&ctx.encoder.encode(&vals).unwrap()).unwrap();
        let there = ctx.eval.rotate_rows(&ct, step, &ctx.keys).unwrap();
        let back = ctx.eval.rotate_rows(&there, -step, &ctx.keys).unwrap();
        let out = ctx.encoder.decode(&ctx.dec.decrypt_checked(&back).unwrap());
        prop_assert_eq!(&out[..64], &vals[..]);
    }

    #[test]
    fn measured_noise_never_exceeds_model_bound(
        seed in any::<u64>(),
        w in proptest::collection::vec(0u64..65536, 4),
    ) {
        let mut ctx = hom_ctx(seed);
        let ct = ctx.enc.encrypt(&ctx.encoder.encode(&[1, 2, 3, 4]).unwrap()).unwrap();
        let pw = ctx.eval.prepare_plaintext(&ctx.encoder.encode(&w).unwrap()).unwrap();
        let after_mul = ctx.eval.mul_plain(&ct, &pw).unwrap();
        let after_rot = ctx.eval.rotate_rows(&after_mul, 1, &ctx.keys).unwrap();
        for c in [&ct, &after_mul, &after_rot] {
            let measured = ctx.dec.invariant_noise(c).unwrap() as f64;
            prop_assert!(measured.max(1.0).log2() <= c.noise().bound_log2 + 1e-9,
                "measured 2^{} vs bound 2^{}", measured.log2(), c.noise().bound_log2);
        }
    }
}

// ---------------------------------------------------------------------------
// HE-PTune v2 prime search: the congruence contract under random draws.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Whatever `(n, t_bits, limb widths)` the solver asks for, a chain
    /// the search *returns* is fully congruent: every data limb and the
    /// special prime satisfy `q ≡ 1 (mod 2n·t)`, all primes are pairwise
    /// distinct, and each lands in its requested size class. Regimes with
    /// no congruent primes error out (covered by the unit suite) — here
    /// they are skipped, never silently degraded.
    #[test]
    fn congruent_chain_search_holds_for_random_draws(
        n_pow in 10u32..13,
        t_bits in 14u32..17,
        extra in 0u32..6,
        limbs in 1usize..3,
    ) {
        let n = 1usize << n_pow;
        // Congruent primes must exceed 2n·t, so the width floor moves
        // with the draw: t_bits + log2(2n) + slack.
        let width = t_bits + n_pow + 3 + extra;
        prop_assume!(width <= 60);
        let data = vec![width; limbs];
        let Ok(c) = cheetah_bfv::search_congruent_chain(n, t_bits, &data, width) else {
            prop_assume!(false);
            unreachable!();
        };
        let step = 2 * (n as u64) * c.t;
        let mut all: Vec<u64> = c.data.clone();
        all.push(c.special);
        prop_assert_eq!(all.len(), limbs + 1);
        for &q in &all {
            prop_assert_eq!(q % step, 1, "q = {} not congruent (step {})", q, step);
            prop_assert_eq!(64 - q.leading_zeros(), width, "q = {} wrong size", q);
        }
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), all.len(), "limbs must be pairwise distinct");
        prop_assert_eq!(64 - c.t.leading_zeros(), t_bits);
    }
}

#[test]
fn every_hybrid_preset_chain_is_congruent_at_every_degree() {
    // The three shipped hybrid presets (1x54, 2x36, 2x40) across their
    // valid degrees: `q ≡ 1 (mod 2n·t)` down to and including `P`, so
    // `Q_ℓ ≡ 1 (mod t)` at every level and the `P`-rescale is
    // congruence-free.
    for n in [4096usize, 8192] {
        for (name, p) in BfvParams::hybrid_presets(n).unwrap() {
            let t = p.plain_modulus().value();
            let step = 2 * (n as u64) * t;
            let special = p.special().expect("hybrid preset must carry P");
            let limbs: Vec<u64> = (0..p.limbs())
                .map(|i| p.chain().modulus(i).value())
                .chain(std::iter::once(special.value()))
                .collect();
            for q in limbs {
                assert_eq!(q % step, 1, "{n}/{name}: q = {q} not congruent");
            }
        }
    }
}
