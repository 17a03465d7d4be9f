//! Sparse ↔ all-live equivalence, pinned:
//!
//! * a `HomFc` prepared from its weights' own structure (dead diagonals
//!   carry no mask) is **bit-identical** to the same weights forced
//!   all-live under the same tiling and baby width — across sparsity
//!   patterns over the **folded** diagonals of a 64→16 layer (fully live,
//!   50%, 90%, single diagonal) and at every reachable level of a deep
//!   chain (skipped terms are zero polynomials, so even the ciphertext
//!   bits agree, window by window);
//! * a sparse `HomConv2d` (dead taps, dead `(d, tap)` masks, dead trailing
//!   diagonals) decodes to exactly the cleartext reference at every
//!   reachable level and multiplies once per live mask;
//! * all-zero layers produce transparent-zero outputs with **zero**
//!   rotations and zero multiplies, at every level, for both layer kinds.

#[path = "../../bfv/tests/support/mod.rs"]
mod support;

use cheetah_bfv::{
    BatchEncoder, BfvParams, Decryptor, Encryptor, Evaluator, GaloisKeys, KeyGenerator,
};
use cheetah_core::linear::{HomConv2d, HomFc};
use cheetah_core::FcStructure;
use cheetah_nn::inference::eval_linear;
use cheetah_nn::{ConvSpec, FcSpec, LinearLayer, Tensor};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use support::Alloc;

struct Ctx {
    params: BfvParams,
    encoder: BatchEncoder,
    enc: Encryptor,
    dec: Decryptor,
    eval: Evaluator,
    kg: KeyGenerator,
    keys: GaloisKeys,
}

/// A context with no Galois keys yet: each case generates exactly the
/// ones its prepared layers list.
fn ctx(params: BfvParams, seed: u64) -> Ctx {
    let mut kg = KeyGenerator::from_seed(params.clone(), seed);
    let pk = kg.public_key().unwrap();
    let keys = kg.galois_keys_for_steps(&[]).unwrap();
    Ctx {
        params: params.clone(),
        encoder: BatchEncoder::new(params.clone()),
        enc: Encryptor::from_public_key(pk, seed ^ 0x5eed),
        dec: Decryptor::new(kg.secret_key().clone()),
        eval: Evaluator::new(params),
        kg,
        keys,
    }
}

/// A 3-limb chain with levels to reach.
fn deep_params() -> BfvParams {
    BfvParams::builder()
        .degree(4096)
        .plain_bits(17)
        .moduli_bits(&[36, 36, 36])
        .a_dcmp(1 << 6)
        .build()
        .unwrap()
}

const NI: usize = 64;
/// Rows, and so folded diagonals: the classes a pattern names. Untiled,
/// the layer leaves `NI / NO = 4` windows per output for the client to add.
const NO: usize = 16;

fn fc_spec() -> FcSpec {
    FcSpec {
        name: "fc-sparse".into(),
        ni: NI,
        no: NO,
    }
}

/// FC weights whose live folded diagonals are exactly `live`.
fn fc_weights_with_live(live: &[usize], seed: u64) -> Tensor {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut data = vec![0i64; NO * NI];
    for &k in live {
        for j in 0..NI {
            let v = loop {
                let v = rng.random_range(-4i64..=4);
                if v != 0 {
                    break v;
                }
            };
            data[(j % NO) * NI + (j + k) % NI] = v;
        }
    }
    Tensor::from_data(&[NO, NI], data)
}

/// The five sparsity patterns of the suite, by index.
fn fc_pattern(sel: usize) -> (&'static str, Vec<usize>) {
    match sel {
        0 => ("full", (0..NO).collect()),
        1 => ("half", (0..NO).step_by(2).collect()),
        2 => ("sparse90", vec![3, 11]),
        3 => ("single", vec![5]),
        _ => ("zero", vec![]),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Sparse FC bit-identity: for every pattern with live weight, the
    /// auto-chosen plan produces the same ciphertext as the same tiling
    /// and baby width with every diagonal forced live, at every reachable
    /// level — and never rotates more than it.
    #[test]
    fn sparse_fc_matches_dense_plan_across_patterns_and_levels(
        seed in any::<u64>(),
        sel in 0usize..4,
    ) {
        let (pattern, live) = fc_pattern(sel);
        let s = fc_spec();
        let mut c = ctx(deep_params(), seed % 911 + 1);
        let weights = fc_weights_with_live(&live, seed ^ 0xd1a6);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x1297);
        let input = Tensor::from_data(
            &[NI],
            (0..NI).map(|_| rng.random_range(-9i64..=9)).collect(),
        );
        let expect = eval_linear(&LinearLayer::Fc(s.clone()), &weights, &input);

        let sparse = HomFc::new(&s, &weights, &c.encoder, &c.eval).unwrap();
        let (b, tiles) = (sparse.fc_plan().kernel.b, sparse.fc_plan().tiles);
        let dense = HomFc::with_forced_plan(
            &s, &weights, &c.encoder, &c.eval, &FcStructure::dense(NO, NI), b, tiles,
        ).unwrap();
        prop_assert_eq!(
            dense.fc_plan().live, NO / tiles,
            "{}: every tiled diagonal forced live", pattern
        );
        // The kernel's steps, each rotated by exactly once.
        let sparse_rotations = sparse.rotation_steps().len();
        prop_assert!(
            sparse_rotations <= dense.rotation_steps().len(),
            "{}: sparse plan must not rotate more than dense", pattern
        );
        // A tiled diagonal is live iff one of the folded ones it reads is.
        let masks = FcStructure::analyze_tensor(&weights, &s).tiled(tiles).live_diagonals();
        prop_assert_eq!(sparse.fc_plan().live, masks);
        prop_assert!(masks <= live.len() && (tiles > 1 || masks == live.len()));
        c.keys = c.kg.galois_keys_for_steps(&dense.rotation_steps()).unwrap();

        let fresh = c.enc
            .encrypt(&sparse.encode_input(&input, &c.encoder).unwrap())
            .unwrap();
        let mut reached = 0;
        for level in 0..c.params.levels() {
            let ct = c.eval.mod_switch_to(&fresh, level).unwrap();
            let predicted = dense.kernel().noise_after(ct.noise(), &c.params, level);
            if predicted.budget_bits_statistical_at(&c.params, level) < 2.0 {
                continue;
            }
            reached += 1;

            c.eval.reset_op_counts();
            let a = sparse.apply(&ct, &c.eval, &c.keys, 1).unwrap();
            let counts = c.eval.op_counts();
            prop_assert_eq!(
                counts.rotate as usize, sparse_rotations,
                "{} level {}: rotation count off plan", pattern, level
            );
            prop_assert_eq!(counts.mul as usize, masks, "one multiply per live mask");
            let d = dense.apply(&ct, &c.eval, &c.keys, 1).unwrap();

            // Skipped terms are zero polynomials: the ciphertexts agree
            // bit for bit, not just after decryption.
            prop_assert_eq!(a.c0(), d.c0(), "{} level {}: c0 diverged", pattern, level);
            prop_assert_eq!(a.c1(), d.c1(), "{} level {}: c1 diverged", pattern, level);

            let slots = c.encoder.decode_signed(&c.dec.decrypt_checked(&a).unwrap());
            prop_assert_eq!(
                sparse.decode_output(&slots).data(), expect.data(),
                "{} level {}: diverged from cleartext", pattern, level
            );
        }
        prop_assert!(reached >= 2, "levels 0 and 1 must both be reachable");
    }

    /// Sparse conv correctness: dead taps and dead `(d, tap)` masks are
    /// skipped — one multiply per live mask, keys for the plan's own steps
    /// and no others — and the decoded outputs equal the cleartext
    /// reference at every reachable level.
    #[test]
    fn sparse_conv_matches_reference_across_patterns_and_levels(
        seed in any::<u64>(),
        sel in 0usize..4,
    ) {
        let s = ConvSpec {
            name: "conv-sparse".into(),
            w: 4,
            fw: 3,
            ci: 2,
            co: 2,
            stride: 1,
            pad: 1,
        };
        let taps = s.fw * s.fw;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xc0de);
        let mut data = vec![0i64; s.co * s.ci * taps];
        // Pattern: which (o, c, tap) cells stay live, and how many of the
        // 18 (d, tap) masks that leaves.
        let (live_cell, live_masks): (&dyn Fn(usize, usize, usize) -> bool, usize) = match sel {
            0 => (&|_, _, _| true, 18),                                  // full
            1 => (&|_, _, tap| ![0usize, 2, 6, 8].contains(&tap), 10),   // corners dead
            2 => (&|o, c, tap| o == 0 && c == 1 && tap == 4, 1),         // one cell
            3 => (&|o, _, tap| o == 1 && tap == 3, 2),                   // one tap of one output
            _ => unreachable!(),
        };
        for o in 0..s.co {
            for ch in 0..s.ci {
                for tap in 0..taps {
                    if live_cell(o, ch, tap) {
                        data[(o * s.ci + ch) * taps + tap] = loop {
                            let v = rng.random_range(-4i64..=4);
                            if v != 0 { break v; }
                        };
                    }
                }
            }
        }
        let weights = Tensor::from_data(&[s.co, s.ci, s.fw, s.fw], data);
        let input = Tensor::from_data(
            &[s.ci, s.w, s.w],
            (0..s.ci * s.w * s.w).map(|_| rng.random_range(-5i64..=5)).collect(),
        );
        let expect = eval_linear(&LinearLayer::Conv(s.clone()), &weights, &input);

        let mut c = ctx(deep_params(), seed % 907 + 1);
        let layer = HomConv2d::new(&s, &weights, &c.encoder, &c.eval).unwrap();
        prop_assert_eq!(layer.conv_plan().live_masks(), live_masks, "pattern {}", sel);
        let keys = c.kg.galois_keys_for_steps(&layer.rotation_steps()).unwrap();
        let fresh = c.enc
            .encrypt(&HomConv2d::encode_input(&s, &input, &c.encoder).unwrap())
            .unwrap();
        let mut reached = 0;
        for level in 0..c.params.levels() {
            let ct = c.eval.mod_switch_to(&fresh, level).unwrap();
            let predicted = layer.kernel().noise_after(ct.noise(), &c.params, level);
            if predicted.budget_bits_statistical_at(&c.params, level) < 2.0 {
                continue;
            }
            reached += 1;
            c.eval.reset_op_counts();
            let outputs = layer.apply(&ct, &c.eval, &keys, 1).unwrap();
            let counts = c.eval.op_counts();
            prop_assert_eq!(counts.mul as usize, live_masks);
            prop_assert_eq!(counts.rotate as usize, layer.conv_plan().rotations());
            let slot_vecs: Vec<Vec<i64>> = outputs
                .iter()
                .map(|out| c.encoder.decode_signed(&c.dec.decrypt_checked(out).unwrap()))
                .collect();
            prop_assert_eq!(
                layer.decode_output(&slot_vecs), expect.clone(),
                "pattern {} level {}", sel, level
            );
        }
        prop_assert!(reached >= 1, "level 0 must be reachable");
    }
}

/// All-zero layers cost nothing: transparent-zero outputs, zero rotations,
/// zero plaintext multiplies — at every level, both layer kinds.
#[test]
fn all_zero_layers_are_transparent_and_rotation_free_at_every_level() {
    let params = deep_params();

    // FC.
    let s = fc_spec();
    let mut c = ctx(params.clone(), 61);
    let weights = fc_weights_with_live(&[], 0);
    let fc = HomFc::new(&s, &weights, &c.encoder, &c.eval).unwrap();
    assert!(fc.rotation_steps().is_empty(), "no keys needed at all");
    let input = Tensor::from_data(&[NI], (0..NI as i64).collect());
    let fresh = c
        .enc
        .encrypt(&fc.encode_input(&input, &c.encoder).unwrap())
        .unwrap();
    for level in 0..params.levels() {
        let ct = c.eval.mod_switch_to(&fresh, level).unwrap();
        c.eval.reset_op_counts();
        let out = fc.apply(&ct, &c.eval, &c.keys, 1).unwrap();
        let counts = c.eval.op_counts();
        assert_eq!(counts.rotate, 0, "level {level}: all-zero FC rotated");
        assert_eq!(counts.mul, 0, "level {level}: all-zero FC multiplied");
        assert_eq!(out.level(), level);
        assert_eq!(
            out.noise().bound_log2,
            f64::NEG_INFINITY,
            "level {level}: output must be transparent zero"
        );
        let slots = c
            .encoder
            .decode_signed(&c.dec.decrypt_checked(&out).unwrap());
        assert!(slots.iter().all(|&v| v == 0));
    }

    // Conv.
    let cs = ConvSpec {
        name: "conv-zero".into(),
        w: 4,
        fw: 3,
        ci: 2,
        co: 2,
        stride: 1,
        pad: 1,
    };
    let zero_w = Tensor::zeros(&[cs.co, cs.ci, cs.fw, cs.fw]);
    let input = Tensor::from_data(&[cs.ci, cs.w, cs.w], (0..32i64).collect());
    let mut c = ctx(params.clone(), 62);
    let conv = HomConv2d::new(&cs, &zero_w, &c.encoder, &c.eval).unwrap();
    assert!(conv.conv_plan().is_empty());
    assert!(conv.rotation_steps().is_empty());
    let fresh = c
        .enc
        .encrypt(&HomConv2d::encode_input(&cs, &input, &c.encoder).unwrap())
        .unwrap();
    for level in 0..params.levels() {
        let ct = c.eval.mod_switch_to(&fresh, level).unwrap();
        c.eval.reset_op_counts();
        let outputs = conv.apply(&ct, &c.eval, &c.keys, 1).unwrap();
        let counts = c.eval.op_counts();
        assert_eq!(counts.rotate, 0, "level {level}: rotated");
        assert_eq!(counts.mul, 0, "level {level}: multiplied");
        assert_eq!(outputs.len(), 1);
        for out in &outputs {
            assert_eq!(out.level(), level);
            assert_eq!(out.noise().bound_log2, f64::NEG_INFINITY);
            let slots = c
                .encoder
                .decode_signed(&c.dec.decrypt_checked(out).unwrap());
            assert!(slots.iter().all(|&v| v == 0));
        }
    }
}
