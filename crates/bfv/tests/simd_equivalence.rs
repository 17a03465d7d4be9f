//! Scalar-vs-SIMD bit-identity pins.
//!
//! The vector backends are only allowed to change *how fast* a kernel
//! runs, never a single output bit. These tests force the pinned scalar
//! reference, repeat the identical computation under every runnable
//! vector backend, and require byte-for-byte equality:
//!
//! * forward and inverse negacyclic NTT on random polynomials, per limb
//!   of every preset (RNS and hybrid, the special prime `P` included), and
//!   at the edges of the AVX-512 IFMA kernel's gate (`q < 2^50`, `n ≥ 16`);
//! * the pointwise Barrett kernels (`add`/`sub`/`negate`/`mul`/`fma`/
//!   `mul_scalar`) on random residue vectors;
//! * the **lazy dot kernel** under every mask sum and key switch, against
//!   sequential `fma_pointwise`, on random 20–61-bit NTT primes with term
//!   counts straddling [`Modulus::lazy_dot_terms`] and all-`q − 1`
//!   operands — the overflow bound as a test — plus one group sum wider
//!   than the bound on `preset_single_60`;
//! * a **full rotate** — keygen, encrypt, Galois key switch, decrypt —
//!   at every preset and every level of its chain;
//! * typed-error behaviour is backend-independent.

use cheetah_bfv::arith::{generate_ntt_prime, generate_ntt_primes, is_prime, Modulus};
use cheetah_bfv::ntt::NttTable;
use cheetah_bfv::poly::{Poly, Representation};
use cheetah_bfv::rns::{DotTerm, PlaneAlign};
use cheetah_bfv::simd::{self, SimdBackend};
use cheetah_bfv::{
    BatchEncoder, BfvParams, Ciphertext, Decryptor, Encryptor, Evaluator, KeyGenerator,
    ModulusChain, RnsPoly,
};
use proptest::prelude::*;

/// Restores automatic backend detection even if an assertion unwinds.
struct ForceGuard;

impl ForceGuard {
    /// Forces `backend` for the current thread; returns the guard and the
    /// backend that is actually in effect after clamping (the next one
    /// down when the CPU lacks the requested one).
    fn force(backend: SimdBackend) -> (Self, SimdBackend) {
        let effective = simd::force_backend(Some(backend));
        (ForceGuard, effective)
    }
}

impl Drop for ForceGuard {
    fn drop(&mut self) {
        simd::force_backend(None);
    }
}

/// The vector backends this machine can actually run (clamp fixpoints).
/// Scalar is the reference, so it is excluded.
fn runnable_vector_backends() -> Vec<SimdBackend> {
    [
        SimdBackend::Portable,
        SimdBackend::Avx2,
        SimdBackend::Avx512Ifma,
    ]
    .into_iter()
    .filter(|&b| {
        let (_guard, effective) = ForceGuard::force(b);
        effective == b
    })
    .collect()
}

fn all_presets() -> Vec<(&'static str, BfvParams)> {
    let mut v = BfvParams::presets(4096).unwrap();
    v.extend(BfvParams::hybrid_presets(4096).unwrap());
    v
}

fn residues(q: &Modulus, n: usize, seed: u64) -> Vec<u64> {
    // Splitmix-style mixing — cheap, deterministic, full-width; reduced
    // into [0, q) with the edge residues planted at the front.
    let mut out: Vec<u64> = (0..n as u64)
        .map(|i| {
            let mut z = seed ^ (i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % q.value()
        })
        .collect();
    out[0] = 0;
    out[1] = 1;
    out[2] = q.value() - 1;
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Forward and inverse NTT produce the same bits on every backend,
    /// for every limb of every preset — a hybrid preset's special prime
    /// `P` (the last limb of its key-switch chain) included.
    #[test]
    fn ntt_transforms_bit_identical_across_backends(seed in any::<u64>()) {
        let mut presets = all_presets();
        presets.push(("hybrid_2x40", BfvParams::preset_hybrid_2x40(8192).unwrap()));
        for (name, params) in presets {
            let chain = if params.has_special() {
                params.ks_chain_at(0)
            } else {
                params.chain()
            };
            for i in 0..chain.limbs() {
                let table = chain.table(i);
                let input = residues(chain.modulus(i), chain.degree(), seed);

                let mut fwd_ref = input.clone();
                let mut inv_ref = input.clone();
                {
                    let (_guard, eff) = ForceGuard::force(SimdBackend::Scalar);
                    prop_assert_eq!(eff, SimdBackend::Scalar);
                    table.forward(&mut fwd_ref);
                    inv_ref.copy_from_slice(&fwd_ref);
                    table.inverse(&mut inv_ref);
                }
                prop_assert_eq!(&inv_ref, &input, "{}: scalar NTT roundtrip", name);

                for backend in runnable_vector_backends() {
                    let (_guard, eff) = ForceGuard::force(backend);
                    prop_assert_eq!(eff, backend);
                    let mut fwd = input.clone();
                    table.forward(&mut fwd);
                    prop_assert_eq!(
                        &fwd, &fwd_ref,
                        "{} limb {} forward diverged on {}", name, i, backend.name()
                    );
                    let mut inv = fwd;
                    table.inverse(&mut inv);
                    prop_assert_eq!(
                        &inv, &input,
                        "{} limb {} inverse diverged on {}", name, i, backend.name()
                    );
                }
            }
        }
    }

    /// The pointwise residue kernels agree bit for bit on every backend,
    /// for every limb modulus of every preset.
    #[test]
    fn pointwise_kernels_bit_identical_across_backends(seed in any::<u64>(), c in any::<u64>()) {
        for (name, params) in all_presets() {
            let chain = params.chain();
            for i in 0..chain.limbs() {
                let q = chain.modulus(i);
                let n = chain.degree();
                let a = Poly::from_data(residues(q, n, seed), Representation::Eval);
                let b = Poly::from_data(residues(q, n, seed ^ 0xabcd), Representation::Eval);
                let c = c % q.value();

                let run = |backend: SimdBackend| -> Vec<Vec<u64>> {
                    let (_guard, eff) = ForceGuard::force(backend);
                    assert_eq!(eff, backend);
                    let mut add = a.clone();
                    add.add_assign(&b, q).unwrap();
                    let mut sub = a.clone();
                    sub.sub_assign(&b, q).unwrap();
                    let mut neg = a.clone();
                    neg.negate(q);
                    let mut mul = a.clone();
                    mul.mul_assign_pointwise(&b, q).unwrap();
                    let mut muls = a.clone();
                    muls.mul_scalar(c, q);
                    let mut fma = add.clone();
                    fma.fma_pointwise(&a, &b, q).unwrap();
                    [add, sub, neg, mul, muls, fma]
                        .into_iter()
                        .map(Poly::into_data)
                        .collect()
                };

                let reference = run(SimdBackend::Scalar);
                for backend in runnable_vector_backends() {
                    let got = run(backend);
                    prop_assert_eq!(
                        &got, &reference,
                        "{} limb {} pointwise kernels diverged on {}",
                        name, i, backend.name()
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The AVX-512 IFMA NTT at the edges of its gate (`q < 2^50`,
    /// `n ≥ 16`): a random NTT prime of 20–49 bits, the largest NTT prime
    /// below `2^50` (lazy values reach `4q` just under `2^52`) and the
    /// smallest above it (falls through to the lanes), at degrees where
    /// the in-register `t = 4, 2, 1` stages are most of the work (16, 32),
    /// below the kernel's minimum (8) and past L1 (8192), on random and
    /// extreme inputs — forward, inverse and round trip write the forced
    /// scalar reference's bytes on every runnable backend.
    #[test]
    fn ifma_ntt_matches_scalar_at_the_gate(bits in 20u32..=49, seed in any::<u64>()) {
        for n in [8usize, 16, 32, 64, 1024, 4096, 8192] {
            let random = *generate_ntt_primes(bits, n, 1 + (seed % 3) as usize)
                .unwrap()
                .last()
                .unwrap();
            let below = generate_ntt_prime(50, n).unwrap();
            let above = (0..)
                .map(|k| (1u64 << 50) + 1 + k * 2 * n as u64)
                .find(|&p| is_prime(p))
                .unwrap();
            for q in [random, below, above] {
                let table = NttTable::new(n, Modulus::new(q).unwrap()).unwrap();
                let inputs = [
                    residues(table.modulus(), n, seed),
                    vec![0; n],
                    vec![q - 1; n],
                    (0..n as u64).map(|i| (i % 2) * (q - 1)).collect(),
                ];
                for input in &inputs {
                    let transforms = |backend: SimdBackend| {
                        let (_guard, eff) = ForceGuard::force(backend);
                        assert_eq!(eff, backend);
                        let (mut fwd, mut inv) = (input.clone(), input.clone());
                        table.forward(&mut fwd);
                        table.inverse(&mut inv);
                        let mut round = fwd.clone();
                        table.inverse(&mut round);
                        (fwd, inv, round)
                    };
                    let reference = transforms(SimdBackend::Scalar);
                    prop_assert_eq!(&reference.2, input, "q = {}, n = {}: scalar round trip", q, n);
                    for backend in runnable_vector_backends() {
                        prop_assert_eq!(
                            &transforms(backend), &reference,
                            "q = {}, n = {} diverged on {}", q, n, backend.name()
                        );
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Overflow soundness of the lazy dot kernel, as a test: for random
    /// NTT primes up to the 61-bit cap, term counts on both sides of the
    /// flush bound `K`, worst-case all-`q − 1` operands, a nonzero
    /// starting accumulator, with and without the fused Galois gather,
    /// every backend writes the residues `terms` sequential
    /// `fma_pointwise` calls write.
    #[test]
    fn lazy_dot_matches_sequential_fma_across_the_flush_bound(
        bits in prop_oneof![57u32..=61, 20u32..=61],
        seed in any::<u64>(),
        gather in any::<bool>(),
        worst in any::<bool>(),
        two_blocks in any::<bool>(),
    ) {
        // 64 coefficients sit inside one accumulator block, 512 span two.
        let n = if two_blocks { 512 } else { 64 };
        let primes = generate_ntt_primes(bits, n, 1 + (seed % 3) as usize).unwrap();
        let chain = ModulusChain::new(n, &[*primes.last().unwrap()]).unwrap();
        let q = chain.modulus(0);
        let k = q.lazy_dot_terms();
        prop_assert!(k >= 1);
        let counts = if k <= 64 {
            vec![1, k - 1, k, k + 1, 3 * k + 2]
        } else {
            vec![1, 2, 19]
        };
        let poly = |salt: u64| {
            let data = if worst {
                vec![q.value() - 1; n]
            } else {
                residues(q, n, seed ^ salt)
            };
            RnsPoly::from_data(data, 1, n, Representation::Eval)
        };
        let perm = chain.table(0).galois_permutation(3);
        let (start0, start1) = (poly(1), poly(2));

        for terms in counts.into_iter().filter(|&t| t > 0) {
            let operands: Vec<[RnsPoly; 3]> = (0..terms as u64)
                .map(|t| [poly(3 * t + 3), poly(3 * t + 4), poly(3 * t + 5)])
                .collect();

            // Reference: one Barrett-reduced fma per term, on the pinned
            // scalar backend, over the explicitly permuted shared operand.
            let (mut ref0, mut ref1) = (start0.clone(), start1.clone());
            {
                let (_guard, _) = ForceGuard::force(SimdBackend::Scalar);
                let mut shared = RnsPoly::zero(&chain, Representation::Eval);
                for [x0, x1, s] in &operands {
                    if gather {
                        shared.permute_from(s, &perm);
                    } else {
                        shared.copy_from(s);
                    }
                    ref0.fma_pointwise(x0, &shared, &chain).unwrap();
                    ref1.fma_pointwise(x1, &shared, &chain).unwrap();
                }
            }

            let mut backends = vec![SimdBackend::Scalar];
            backends.extend(runnable_vector_backends());
            for backend in backends {
                let (_guard, eff) = ForceGuard::force(backend);
                prop_assert_eq!(eff, backend);
                let (mut r0, mut r1) = (start0.clone(), start1.clone());
                RnsPoly::dot_pair_prefix(
                    &mut r0,
                    &mut r1,
                    terms,
                    |t| {
                        let [x0, x1, shared] = &operands[t];
                        DotTerm { x0, x1, shared }
                    },
                    gather.then_some(&perm[..]),
                    PlaneAlign::Prefix,
                    &chain,
                )
                .unwrap();
                prop_assert_eq!(
                    (&r0, &r1), (&ref0, &ref1),
                    "{} bits, K = {}, {} terms, gather={}, worst={} diverged on {}",
                    bits, k, terms, gather, worst, backend.name()
                );
            }
        }
    }
}

/// A group sum wider than the flush bound, end to end: on
/// `preset_single_60` (`K = 16`) twenty masks accumulate in one pass to
/// the bits — and the slots — of twenty sequential accumulates, on every
/// backend.
#[test]
fn group_sum_wider_than_the_flush_bound_on_single_60() {
    const TERMS: usize = 20;
    let params = BfvParams::preset_single_60(4096).unwrap();
    assert!(params.chain().modulus(0).lazy_dot_terms() < TERMS);
    let mut kg = KeyGenerator::from_seed(params.clone(), 60);
    let pk = kg.public_key().unwrap();
    let encoder = BatchEncoder::new(params.clone());
    let mut enc = Encryptor::from_public_key(pk, 61);
    let dec = Decryptor::new(kg.secret_key().clone());
    let eval = Evaluator::new(params.clone());

    let values: Vec<i64> = (0..64).map(|i| i % 7 - 3).collect();
    let cts: Vec<Ciphertext> = (0..TERMS)
        .map(|_| {
            enc.encrypt(&encoder.encode_signed(&values).unwrap())
                .unwrap()
        })
        .collect();
    let weights = |k: usize| -> Vec<i64> { (0..64).map(|i| (i + k as i64) % 5 - 2).collect() };
    let masks: Vec<_> = (0..TERMS)
        .map(|k| {
            eval.prepare_plaintext(&encoder.encode_signed(&weights(k)).unwrap())
                .unwrap()
        })
        .collect();
    let terms: Vec<_> = cts.iter().zip(&masks).collect();

    let mut sequential = Ciphertext::transparent_zero(&params);
    {
        let (_guard, _) = ForceGuard::force(SimdBackend::Scalar);
        for (ct, mask) in &terms {
            eval.mul_plain_accumulate(&mut sequential, ct, mask)
                .unwrap();
        }
    }
    let mut backends = vec![SimdBackend::Scalar];
    backends.extend(runnable_vector_backends());
    for backend in backends {
        let (_guard, eff) = ForceGuard::force(backend);
        assert_eq!(eff, backend);
        let mut many = Ciphertext::transparent_zero(&params);
        eval.mul_plain_accumulate_many(&mut many, &terms).unwrap();
        assert_eq!(many.c0(), sequential.c0(), "c0 on {}", backend.name());
        assert_eq!(many.c1(), sequential.c1(), "c1 on {}", backend.name());
        assert_eq!(many.noise(), sequential.noise());
        let got = encoder.decode_signed(&dec.decrypt_checked(&many).unwrap());
        for (slot, &x) in values.iter().enumerate() {
            let expect: i64 = (0..TERMS).map(|k| x * weights(k)[slot]).sum();
            assert_eq!(got[slot], expect, "slot {slot} on {}", backend.name());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// A full rotate pipeline — seeded keygen, encrypt, Galois key switch
    /// at every level, noise-sound or not — produces bit-identical
    /// ciphertexts on every backend, for every preset including hybrid
    /// keyswitching (`hybrid_2x36` levels 0 and 1 put the special prime's
    /// plane through the IFMA NTT on both key-switch chains).
    #[test]
    fn full_rotate_bit_identical_across_backends(seed in any::<u64>(), step in 1i64..8) {
        for (name, params) in all_presets() {
            let run = |backend: SimdBackend| -> Vec<Ciphertext> {
                let (_guard, eff) = ForceGuard::force(backend);
                assert_eq!(eff, backend);
                let mut kg = KeyGenerator::from_seed(params.clone(), seed);
                let pk = kg.public_key().unwrap();
                let keys = kg.galois_keys_for_steps(&[step]).unwrap();
                let encoder = BatchEncoder::new(params.clone());
                let mut enc = Encryptor::from_public_key(pk, seed ^ 0x5eed);
                let dec = Decryptor::new(kg.secret_key().clone());
                let eval = Evaluator::new(params.clone());

                let values: Vec<u64> = (0..64u64).map(|i| (i * 37 + 11) % 97).collect();
                let fresh = enc.encrypt(&encoder.encode(&values).unwrap()).unwrap();
                let mut out = Vec::new();
                for level in 0..=params.max_level() {
                    let ct = eval.mod_switch_to(&fresh, level).unwrap();
                    let rotated = eval.rotate_rows(&ct, step, &keys).unwrap();
                    // Where the noise model says the rotation is sound
                    // (same gate as the BSGS suite), it must also still
                    // decrypt correctly — bit-identical garbage would be
                    // a hollow victory. Unsound levels stay in the
                    // cross-backend bit comparison regardless.
                    let sound = ct
                        .noise()
                        .rotate_at(&params, level)
                        .budget_bits_worst_at(&params, level)
                        >= 2.0;
                    if sound {
                        let decoded = encoder.decode(&dec.decrypt(&rotated).unwrap());
                        let expect_first = values[step as usize];
                        assert_eq!(
                            decoded[0], expect_first,
                            "{} L{} on {}: rotate decrypted wrong", name, level, backend.name()
                        );
                    }
                    out.push(rotated);
                }
                out
            };

            let reference = run(SimdBackend::Scalar);
            for backend in runnable_vector_backends() {
                let got = run(backend);
                prop_assert_eq!(got.len(), reference.len());
                for (level, (g, r)) in got.iter().zip(&reference).enumerate() {
                    prop_assert_eq!(
                        g.c0(), r.c0(),
                        "{} L{} c0 diverged on {}", name, level, backend.name()
                    );
                    prop_assert_eq!(
                        g.c1(), r.c1(),
                        "{} L{} c1 diverged on {}", name, level, backend.name()
                    );
                }
            }
        }
    }
}

/// Typed boundary errors fire identically on every backend: the checks
/// live in front of the dispatch, so no vector path can bypass them.
#[test]
fn typed_errors_are_backend_independent() {
    let q = Modulus::new(generate_ntt_prime(30, 64).unwrap()).unwrap();
    let table = NttTable::new(64, q).unwrap();
    let mut backends = vec![SimdBackend::Scalar];
    backends.extend(runnable_vector_backends());
    for backend in backends {
        let (_guard, eff) = ForceGuard::force(backend);
        assert_eq!(eff, backend);
        let mut short = vec![0u64; 32];
        assert!(matches!(
            table.try_forward(&mut short),
            Err(cheetah_bfv::Error::ParameterMismatch)
        ));
        assert!(matches!(
            table.try_inverse(&mut short),
            Err(cheetah_bfv::Error::ParameterMismatch)
        ));
        assert!(matches!(
            table.try_galois_permutation(4),
            Err(cheetah_bfv::Error::InvalidGaloisElement(4))
        ));
    }
}
