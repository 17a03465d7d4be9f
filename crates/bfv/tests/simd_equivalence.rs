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
//! * the pointwise Barrett kernels (`add`/`sub`/`negate`/`mul`/`fma`)
//!   on random residue vectors (`mul_scalar` is pinned by `simd.rs`'s
//!   unit tests, on the same preset limbs), and the IFMA bodies of `mul`
//!   and `fma` at both edges of the gate on random and boundary operands;
//! * the **lazy dot kernel** under every mask sum and key switch, against
//!   sequential `fma_pointwise`, on random 20–61-bit NTT primes with term
//!   counts straddling [`Modulus::lazy_dot_terms`] — and, under the IFMA
//!   gate, its 32-term group and 4095-term row bound — and all-`q − 1`
//!   operands — the overflow bounds as a test — at both edges of the gate,
//!   plus one group sum wider than the bound on `preset_single_60`;
//! * the **constant-multiply loops** of `rns.rs` (digit decompose, hybrid
//!   lift and own planes, rounded limb drop) at every level of every preset
//!   and at both edges of the IFMA gate, on random and boundary inputs;
//! * the evaluation-form **divide-and-round** against the coefficient-form
//!   formula it replaced, kept here as the reference, on every data and
//!   key-switch chain;
//! * a **full rotate** — keygen, encrypt, Galois key switch, decrypt —
//!   at every preset and every level of its chain;
//! * typed-error behaviour is backend-independent.

mod support;

use cheetah_bfv::arith::{generate_ntt_prime, generate_ntt_primes, is_prime, Modulus};
use cheetah_bfv::ntt::NttTable;
use cheetah_bfv::rns::{DotTerm, PlaneAlign, Representation};
use cheetah_bfv::simd::{self, SimdBackend};
use cheetah_bfv::{
    BatchEncoder, BfvParams, Ciphertext, Decryptor, Encryptor, Evaluator, KeyGenerator,
    ModulusChain, RnsPoly,
};
use proptest::prelude::*;
use support::Alloc;

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
    fn pointwise_kernels_bit_identical_across_backends(seed in any::<u64>()) {
        for (name, params) in all_presets() {
            let chain = params.chain();
            let n = chain.degree();
            let poly = |salt: u64| {
                let data = (0..chain.limbs())
                    .flat_map(|i| residues(chain.modulus(i), n, seed ^ salt))
                    .collect();
                RnsPoly::from_data(data, chain.limbs(), n, Representation::Eval)
            };
            let (a, b) = (poly(0), poly(0xabcd));

            let run = |backend: SimdBackend| -> Vec<RnsPoly> {
                let (_guard, eff) = ForceGuard::force(backend);
                assert_eq!(eff, backend);
                let mut add = a.clone();
                add.add_assign(&b, chain).unwrap();
                let mut sub = a.clone();
                sub.sub_assign(&b, chain).unwrap();
                let mut neg = a.clone();
                neg.negate(chain);
                let mut mul = a.clone();
                mul.mul_assign_pointwise(&b, chain).unwrap();
                let mut fma = add.clone();
                fma.fma_pointwise(&a, &b, chain).unwrap();
                vec![add, sub, neg, mul, fma]
            };

            let reference = run(SimdBackend::Scalar);
            for backend in runnable_vector_backends() {
                let got = run(backend);
                prop_assert_eq!(
                    &got, &reference,
                    "{} pointwise kernels diverged on {}",
                    name, backend.name()
                );
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
            let [below, above] = gate_primes(n);
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

/// The smallest NTT prime for degree `n` above `floor`, a multiple of `2n`.
fn ntt_prime_above(floor: u64, n: usize) -> u64 {
    (0..)
        .map(|k| floor + 1 + k * 2 * n as u64)
        .find(|&p| is_prime(p))
        .unwrap()
}

/// The largest NTT prime below `2^50` — the widest limb the IFMA kernels
/// take — and the smallest above it, which falls through, at degree `n`.
fn gate_primes(n: usize) -> [u64; 2] {
    [
        generate_ntt_prime(50, n).unwrap(),
        ntt_prime_above(1 << 50, n),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The IFMA `mul_pointwise` / `fma_pointwise` at the edges of the gate
    /// (`q < 2^50`, `n ≥ 16`): a random NTT prime of 20–49 bits, the
    /// largest NTT prime below `2^50`, one at `1.5·2^49` and the smallest
    /// above `2^50` (falls through to the lanes), at degrees below the
    /// kernels' minimum (8), at it (16) and past L1 (8192), on every pair
    /// of the random and extreme operand patterns, from every pattern of
    /// accumulator — the product and the sum write the forced scalar
    /// reference's bytes on every runnable backend.
    #[test]
    fn ifma_pointwise_products_match_scalar_at_the_gate(bits in 20u32..=49, seed in any::<u64>()) {
        for n in [8usize, 16, 8192] {
            let random = generate_ntt_prime(bits, n).unwrap();
            let [below, above] = gate_primes(n);
            for q in [random, below, ntt_prime_above(3 << 49, n), above] {
                let chain = ModulusChain::new(n, &[q]).unwrap();
                let modulus = chain.modulus(0);
                let poly = |kind: &str, salt: u64| {
                    let data = pattern(kind, modulus, n, seed ^ salt);
                    RnsPoly::from_data(data, 1, n, Representation::Eval)
                };
                let products = |backend: SimdBackend| {
                    let (_guard, eff) = ForceGuard::force(backend);
                    assert_eq!(eff, backend);
                    let mut out = Vec::new();
                    for x in PATTERNS {
                        for y in PATTERNS {
                            let (a, b) = (poly(x, 1), poly(y, 2));
                            let mut mul = a.clone();
                            mul.mul_assign_pointwise(&b, &chain).unwrap();
                            out.push(mul);
                            for r in PATTERNS {
                                let mut fma = poly(r, 3);
                                fma.fma_pointwise(&a, &b, &chain).unwrap();
                                out.push(fma);
                            }
                        }
                    }
                    out
                };
                let reference = products(SimdBackend::Scalar);
                for backend in runnable_vector_backends() {
                    prop_assert_eq!(
                        &products(backend), &reference,
                        "q = {}, n = {} diverged on {}", q, n, backend.name()
                    );
                }
            }
        }
    }
}

/// Term counts on both sides of what the IFMA dot kernel sums between
/// folds (32) and of what its `u64` rows can hold (4095).
const IFMA_DOT_COUNTS: [usize; 6] = [31, 32, 33, 4095, 4096, 4097];

/// For each term count, on every backend, `dot_pair_prefix` over one
/// `q`-limb plane of degree `n` writes the residues that many sequential
/// scalar `fma_pointwise` calls write — from a nonzero starting
/// accumulator, over random operands or all-`q − 1` ones (`worst`), with
/// or without the fused Galois gather.
fn assert_dot_matches_sequential_fma(
    q: u64,
    n: usize,
    counts: &[usize],
    worst: bool,
    gather: bool,
    seed: u64,
) {
    let chain = ModulusChain::new(n, &[q]).unwrap();
    let q = chain.modulus(0);
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

    for &terms in counts.iter().filter(|&&t| t > 0) {
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
            assert_eq!(eff, backend);
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
            assert_eq!(
                (&r0, &r1),
                (&ref0, &ref1),
                "q = {} ({} bits), n = {n}, {terms} terms, gather={gather}, worst={worst} \
                 diverged on {}",
                q.value(),
                q.bits(),
                backend.name()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Overflow soundness of the lazy dot kernel, as a test: for random
    /// NTT primes up to the 61-bit cap, term counts on both sides of the
    /// flush bound `K` — and, for primes the IFMA kernel takes, of its
    /// group and row bounds —, worst-case all-`q − 1` operands, a nonzero
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
        let q = Modulus::new(*primes.last().unwrap()).unwrap();
        let k = q.lazy_dot_terms();
        prop_assert!(k >= 1);
        let mut counts = if k <= 64 {
            vec![1, k - 1, k, k + 1, 3 * k + 2]
        } else {
            vec![1, 2, 19]
        };
        if q.value() >> 50 == 0 {
            // The long sums only at the small degree: 4097 operand triples.
            counts.extend(&IFMA_DOT_COUNTS[..if two_blocks { 3 } else { 6 }]);
        }
        assert_dot_matches_sequential_fma(q.value(), n, &counts, worst, gather, seed);
    }
}

/// The IFMA dot kernel's gate and bounds, pinned: the largest NTT prime
/// below `2^50` (takes the kernel: its rows and its fold see the widest
/// values they admit), the smallest above and one in the middle of the
/// next octave (fall through to the `u128` kernel — the fold's inner sum,
/// `< 2^51 + 2q`, would leave the 52-bit multiplier's range for them;
/// with `q` far from a power of two it does so on random operands), at
/// the kernel's smallest degree (16, one half-width chunk), inside one
/// block (64) and across two (512), all-`q − 1` operands from a `q − 1`
/// accumulator and random ones, gather on and off, term counts around
/// the 32-term group and — at `n = 64` — the 4095-term row bound.
#[test]
fn ifma_dot_matches_sequential_fma_at_the_gate() {
    for n in [16usize, 64, 512] {
        let counts = &IFMA_DOT_COUNTS[..if n == 64 { 6 } else { 3 }];
        let [below, above] = gate_primes(n);
        for q in [below, above, ntt_prime_above(3 << 49, n)] {
            for gather in [false, true] {
                assert_dot_matches_sequential_fma(q, n, counts, true, gather, 0);
                assert_dot_matches_sequential_fma(q, n, &[7, 33], false, gather, n as u64);
            }
        }
    }
}

/// A dot through `gather` = the identity with one entry pointing past the
/// plane, under `backend`.
fn dot_through_an_out_of_range_gather(backend: SimdBackend) {
    let n = 64;
    let q = generate_ntt_prime(36, n).unwrap();
    let chain = ModulusChain::new(n, &[q]).unwrap();
    let x = RnsPoly::from_data(residues(chain.modulus(0), n, 1), 1, n, Representation::Eval);
    let mut perm: Vec<u32> = (0..n as u32).collect();
    perm[n - 3] = n as u32;
    let (_guard, _) = ForceGuard::force(backend);
    let (mut r0, mut r1) = (x.clone(), x.clone());
    let term = |_| DotTerm {
        x0: &x,
        x1: &x,
        shared: &x,
    };
    let _ = RnsPoly::dot_pair_prefix(
        &mut r0,
        &mut r1,
        2,
        term,
        Some(&perm),
        PlaneAlign::Prefix,
        &chain,
    );
}

/// A `gather` entry `≥ n` panics in the reference (a slice index) …
#[test]
#[should_panic]
fn out_of_range_gather_index_panics_under_scalar() {
    dot_through_an_out_of_range_gather(SimdBackend::Scalar);
}

/// … and under `Avx512Ifma` (the vector bound check in front of the
/// hardware gather), never a read outside the plane.
#[test]
#[should_panic]
fn out_of_range_gather_index_panics_under_avx512ifma() {
    dot_through_an_out_of_range_gather(SimdBackend::Avx512Ifma);
}

/// The inputs of [`constant_multiply_outputs`]: per modulus, random
/// residues and the residues where a branch of the three loops flips —
/// all 0, all `q − 1`, and the centred lift's sign boundary `⌊q/2⌋`,
/// `⌊q/2⌋ + 1`.
const PATTERNS: [&str; 5] = ["random", "zero", "q-1", "q/2", "q/2+1"];

fn pattern(kind: &str, q: &Modulus, n: usize, seed: u64) -> Vec<u64> {
    match kind {
        "random" => residues(q, n, seed),
        "zero" => vec![0; n],
        "q-1" => vec![q.value() - 1; n],
        "q/2" => vec![q.value() / 2; n],
        _ => vec![q.value() / 2 + 1; n],
    }
}

/// Everything the constant-multiply loops of `rns.rs` write for one input
/// pattern on the current backend, at the level with `live` data planes of
/// `data`: the digits of `rns_decompose_into`, the digits of
/// `hybrid_decompose_into` onto `ks` (the `live`-plane prefix of `data`
/// plus a special prime) when there is one — their own planes written by
/// `hybrid_own_planes_into` from the same residues read as evaluation
/// form — and `divide_round_by_last` of the `live` data planes (when two
/// are live) and of `ks`'s `live + 1`, the pattern read as evaluation
/// form. The decompositions read `pattern · q̂_i`, so that the pattern
/// itself is the normalized residue `[q̂_i⁻¹·c]_{q_i}` they split and lift.
fn constant_multiply_outputs(
    data: &ModulusChain,
    live: usize,
    ks: Option<&ModulusChain>,
    base: u64,
    kind: &str,
    seed: u64,
) -> Vec<RnsPoly> {
    let n = data.degree();
    let planes = |chain: &ModulusChain, limbs: usize, normalized: bool, repr| {
        let mut data = Vec::with_capacity(limbs * n);
        for i in 0..limbs {
            let q = chain.modulus(i);
            let weight = if normalized {
                chain.crt().qhat_mod(i, i)
            } else {
                1
            };
            data.extend(
                pattern(kind, q, n, seed ^ i as u64)
                    .into_iter()
                    .map(|v| q.mul_mod(v, weight)),
            );
        }
        RnsPoly::from_data(data, limbs, n, repr)
    };
    let src = planes(data, live, true, Representation::Coeff);
    let mut out = Vec::new();

    let count = (0..live)
        .map(|i| data.limb_decomposition_levels(base, i))
        .sum();
    let mut digits = vec![RnsPoly::zero_with(live, n, Representation::Coeff); count];
    src.rns_decompose_into(base, data, &mut digits).unwrap();
    out.extend(digits);

    let mut tmp = vec![0; n];
    if let Some(ks) = ks {
        let mut digits = vec![RnsPoly::zero_with(live + 1, n, Representation::Coeff); live];
        let mut eval = src.clone();
        eval.set_representation(Representation::Eval);
        eval.hybrid_own_planes_into(data, &mut digits).unwrap();
        src.clone()
            .hybrid_decompose_into(data, ks, &mut digits)
            .unwrap();
        out.extend(digits);
        let mut raised = planes(ks, live + 1, false, Representation::Eval);
        ks.divide_round_by_last(&mut raised, &mut tmp).unwrap();
        out.push(raised);
    }
    if live >= 2 {
        let mut dropped = planes(data, live, false, Representation::Eval);
        data.divide_round_by_last(&mut dropped, &mut tmp).unwrap();
        out.push(dropped);
    }
    out
}

/// The coefficient-form divide-and-round the engine ran before its rescale
/// moved to evaluation form, kept as the reference
/// `ModulusChain::divide_round_by_last` is pinned to: with
/// `h = ⌊q_last/2⌋`, every surviving plane becomes
/// `(c_i + h − [c_last + h]_{q_last})·q_last⁻¹ mod q_i`, and the last
/// plane is dropped.
fn divide_round_reference(chain: &ModulusChain, p: &mut RnsPoly) {
    assert_eq!(p.representation(), Representation::Coeff);
    let live = p.limbs();
    let q_last = chain.modulus(live - 1);
    let half = q_last.value() >> 1;
    let last = p.limb(live - 1).to_vec();
    for i in 0..live - 1 {
        let q = chain.modulus(i);
        let inv = q.inv_mod(q_last.value()).unwrap();
        let half_i = q.reduce(half);
        for (x, &c_last) in p.limb_mut(i).iter_mut().zip(&last) {
            let b_last = q_last.add_mod(c_last, half);
            let b_i = q.add_mod(*x, half_i);
            *x = q.mul_mod(q.sub_mod(b_i, q.reduce(b_last)), inv);
        }
    }
    p.truncate_limbs(live - 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The evaluation-form divide-and-round writes the bits of the
    /// coefficient-form reference, transformed: for every preset's data
    /// chain at every level with a limb to drop, and every hybrid preset's
    /// key-switch chain at every level (`hybrid_2x40` at `n = 8192`
    /// included), on random polynomials and on the boundary patterns —
    /// which in coefficient form put the dropped plane on both sides of
    /// the centring cut `⌊q/2⌋` — `divide_round_by_last(to_eval(c))` is
    /// `to_eval(reference(c))` under the forced-scalar reference and every
    /// runnable backend.
    #[test]
    fn divide_round_matches_the_coefficient_reference(seed in any::<u64>()) {
        let mut presets = all_presets();
        presets.push(("hybrid_2x40", BfvParams::preset_hybrid_2x40(8192).unwrap()));
        let mut chains: Vec<(String, ModulusChain, usize)> = Vec::new();
        for (name, params) in &presets {
            for level in 0..=params.max_level() {
                let live = params.live_limbs_at(level);
                if live >= 2 {
                    chains.push((format!("{name} data L{level}"), params.chain().clone(), live));
                }
                if params.has_special() {
                    let ks = params.ks_chain_at(level).clone();
                    chains.push((format!("{name} ks L{level}"), ks, live + 1));
                }
            }
        }
        let mut backends = vec![SimdBackend::Scalar];
        backends.extend(runnable_vector_backends());
        for (name, chain, live) in &chains {
            let n = chain.degree();
            for kind in PATTERNS {
                let mut coeffs = Vec::with_capacity(live * n);
                for i in 0..*live {
                    coeffs.extend(pattern(kind, chain.modulus(i), n, seed ^ i as u64));
                }
                let coeffs = RnsPoly::from_data(coeffs, *live, n, Representation::Coeff);
                let (input, expect) = {
                    let (_guard, _) = ForceGuard::force(SimdBackend::Scalar);
                    let mut input = coeffs.clone();
                    input.to_eval(chain);
                    let mut expect = coeffs;
                    divide_round_reference(chain, &mut expect);
                    expect.to_eval(chain);
                    (input, expect)
                };
                for &backend in &backends {
                    let (_guard, eff) = ForceGuard::force(backend);
                    prop_assert_eq!(eff, backend);
                    let mut got = input.clone();
                    let mut tmp = vec![0; n];
                    chain.divide_round_by_last(&mut got, &mut tmp).unwrap();
                    prop_assert_eq!(
                        &got, &expect,
                        "{}, {} inputs: divide-and-round diverged on {}",
                        name, kind, backend.name()
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The digit split, the hybrid centred lift and the rounded limb drop
    /// write the forced-scalar reference's bytes on every backend: at
    /// every level of every preset (`hybrid_2x40` at `n = 8192` included;
    /// `hybrid_1x54` and `single_60` are past the IFMA gate and fall
    /// through), and on mixed-width chains at the gate — its widest limbs
    /// beside a narrow one, and straddling it, where only some planes of
    /// one call take the kernel — for random inputs and every boundary
    /// pattern.
    #[test]
    fn constant_multiply_loops_match_scalar(seed in any::<u64>()) {
        let mut presets = all_presets();
        presets.push(("hybrid_2x40", BfvParams::preset_hybrid_2x40(8192).unwrap()));
        let mut cases: Vec<(String, ModulusChain, usize, Option<ModulusChain>, u64)> = Vec::new();
        for (name, params) in &presets {
            for level in 0..=params.max_level() {
                let ks = params.has_special().then(|| params.ks_chain_at(level).clone());
                cases.push((
                    format!("{name} L{level}"),
                    params.chain().clone(),
                    params.live_limbs_at(level),
                    ks,
                    params.a_dcmp(),
                ));
            }
        }
        // The widest limbs the kernels take beside a narrow one — a lift or
        // a drop between them is a real reduction, which equal-width
        // presets never need — and chains that straddle the gate plane by
        // plane, with a 52-bit limb no 52-bit Shoup multiply is exact for
        // (`2q > 2^52`).
        let n = 64;
        let below = generate_ntt_primes(50, n, 2).unwrap();
        let wide = generate_ntt_prime(52, n).unwrap();
        let narrow = generate_ntt_prime(24, n).unwrap();
        for (name, limbs) in [
            ("50, 50 + 24 under the gate", [below[0], below[1], narrow]),
            ("24, 50 + 50 under the gate", [narrow, below[0], below[1]]),
            ("gate straddled, 52 bits second", [below[0], wide, narrow]),
            ("gate straddled, 52 bits first", [wide, below[0], narrow]),
            ("gate straddled, 52 bits last", [narrow, below[0], wide]),
        ] {
            let data = ModulusChain::new(n, &limbs[..2]).unwrap();
            let ks = ModulusChain::new(n, &limbs).unwrap();
            cases.push((name.to_string(), data, 2, Some(ks), 1 << 20));
        }

        for (name, data, live, ks, base) in &cases {
            for kind in PATTERNS {
                let run = |backend: SimdBackend| {
                    let (_guard, eff) = ForceGuard::force(backend);
                    assert_eq!(eff, backend);
                    constant_multiply_outputs(data, *live, ks.as_ref(), *base, kind, seed)
                };
                let reference = run(SimdBackend::Scalar);
                for backend in runnable_vector_backends() {
                    prop_assert_eq!(
                        &run(backend), &reference,
                        "{}, {} inputs: constant-multiply loops diverged on {}",
                        name, kind, backend.name()
                    );
                }
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
            eval.prepare_plaintext_at(&encoder.encode_signed(&weights(k)).unwrap(), 0)
                .unwrap()
        })
        .collect();
    let terms: Vec<_> = cts.iter().zip(&masks).collect();

    let mut sequential = Ciphertext::transparent_zero_at(&params, 0);
    {
        let (_guard, _) = ForceGuard::force(SimdBackend::Scalar);
        for (ct, mask) in &terms {
            eval.mul_plain_accumulate_many(&mut sequential, &[(ct, mask)])
                .unwrap();
        }
    }
    let mut backends = vec![SimdBackend::Scalar];
    backends.extend(runnable_vector_backends());
    for backend in backends {
        let (_guard, eff) = ForceGuard::force(backend);
        assert_eq!(eff, backend);
        let mut many = Ciphertext::transparent_zero_at(&params, 0);
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
