//! The packed convolution, pinned from outside:
//!
//! * over `(w, f_w, c_i, c_o)` — `c_i = 1`, `c_o > c_i`, `c_o < c_i`,
//!   non-power-of-two `c_i` and `w`, 1×1 and 5×5 filters, a filter wide
//!   enough that tap offsets of neighbouring blocks coincide, and a shape
//!   whose outputs overflow one row — × random and 90 %-pruned weights ×
//!   the auto plan and a forced baby width × levels 0/1 × the digit and
//!   hybrid presets: the decoded output is the cleartext convolution,
//!   every slot that is not an output pixel decrypts to zero, measured ≤
//!   tracked ≤ predicted noise on every output ciphertext, one multiply
//!   per live `(d, tap)` mask, one hoisted replay per baby step plus one
//!   direct rotation per Horner link, and exactly the listed Galois keys
//!   are enough while any one fewer is not;
//! * the giant steps of any plan share a single key.

#[path = "../../bfv/tests/support/mod.rs"]
mod support;

use cheetah_bfv::{BatchEncoder, BfvParams, Decryptor, Encryptor, Error, Evaluator, KeyGenerator};
use cheetah_core::linear::HomConv2d;
use cheetah_nn::inference::eval_linear;
use cheetah_nn::layer::channel_diagonal;
use cheetah_nn::{ConvSpec, LinearLayer, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use support::Alloc;

struct Ctx {
    params: BfvParams,
    encoder: BatchEncoder,
    enc: Encryptor,
    dec: Decryptor,
    eval: Evaluator,
    kg: KeyGenerator,
}

fn ctx(hybrid: bool, seed: u64) -> Ctx {
    let params = if hybrid {
        BfvParams::preset_hybrid_2x36(4096).unwrap()
    } else {
        BfvParams::preset_rns_3x36(4096).unwrap()
    };
    let mut kg = KeyGenerator::from_seed(params.clone(), seed);
    let pk = kg.public_key().unwrap();
    Ctx {
        encoder: BatchEncoder::new(params.clone()),
        enc: Encryptor::from_public_key(pk, seed ^ 0x5eed),
        dec: Decryptor::new(kg.secret_key().clone()),
        eval: Evaluator::new(params.clone()),
        params,
        kg,
    }
}

fn spec(w: usize, fw: usize, ci: usize, co: usize) -> ConvSpec {
    ConvSpec {
        name: "conv-packed".into(),
        w,
        fw,
        ci,
        co,
        stride: 1,
        pad: fw / 2,
    }
}

/// Zero-free weights in ±3; with `pruned`, nine in ten `(d, tap)` units
/// zeroed whole (one always survives). Returns the live units too.
fn weights(s: &ConvSpec, pruned: bool, rng: &mut StdRng) -> (Tensor, usize) {
    let taps = s.fw * s.fw;
    let units = s.ci.next_power_of_two() * taps;
    let keep = rng.random_range(0..units);
    let dead: Vec<bool> = (0..units)
        .map(|u| pruned && u != keep && rng.random_range(0..10) < 9)
        .collect();
    let data: Vec<i64> = (0..s.co * s.ci * taps)
        .map(|i| {
            let (cell, tap) = (i / taps, i % taps);
            let d = channel_diagonal(cell / s.ci, cell % s.ci, s.ci);
            if dead[d * taps + tap] {
                0
            } else {
                [-3i64, -2, -1, 1, 2, 3][rng.random_range(0..6usize)]
            }
        })
        .collect();
    // A unit of a padded diagonal may have no cell at all (c_o small).
    let live = (0..units)
        .filter(|&u| {
            !dead[u] && (0..s.co).any(|o| (o + u / taps) % s.ci.next_power_of_two() < s.ci)
        })
        .count();
    (Tensor::from_data(&[s.co, s.ci, s.fw, s.fw], data), live)
}

/// Everything the header promises of one prepared layer on one input.
fn check_layer(
    c: &mut Ctx,
    s: &ConvSpec,
    w: &Tensor,
    layer: &HomConv2d,
    level: usize,
    rng: &mut StdRng,
) {
    let input = Tensor::from_data(
        &[s.ci, s.w, s.w],
        (0..s.ci * s.w * s.w)
            .map(|_| rng.random_range(-3i64..=3))
            .collect(),
    );
    let expect = eval_linear(&LinearLayer::Conv(s.clone()), w, &input);
    let fresh = c
        .enc
        .encrypt(&HomConv2d::encode_input(s, &input, &c.encoder).unwrap())
        .unwrap();
    // The deepest of `level` and 0 the planner would run the layer at.
    let switched = c.eval.mod_switch_to(&fresh, level).unwrap();
    let predicted = layer
        .kernel()
        .noise_after(switched.noise(), &c.params, level);
    let ct = if predicted.budget_bits_statistical_at(&c.params, level) >= 2.0 {
        switched
    } else {
        fresh
    };
    let level = ct.level();

    let plan = layer.conv_plan();
    let steps = layer.rotation_steps();
    let keys = c.kg.galois_keys_for_steps(&steps).unwrap();
    c.eval.reset_op_counts();
    let outputs = layer
        .apply_with_scratch(&ct, &c.eval, &keys, &mut c.eval.new_scratch())
        .unwrap();
    let counts = c.eval.op_counts();

    // The output tensor is the cleartext convolution (|y| ≤ 25·8·9 stays
    // far inside ±t/2) and nothing else is written anywhere.
    assert_eq!(
        outputs.len(),
        (s.co * plan.stride).div_ceil(c.params.row_size())
    );
    let mut slot_vecs: Vec<Vec<i64>> = outputs
        .iter()
        .map(|out| {
            c.encoder
                .decode_signed(&c.dec.decrypt_checked(out).unwrap())
        })
        .collect();
    assert_eq!(layer.decode_output(&slot_vecs), expect);
    for i in 0..expect.len() {
        let (q, slot) = layer.output_slot(i / (s.w * s.w), i % (s.w * s.w));
        slot_vecs[q][slot] = 0;
    }
    assert!(
        slot_vecs.iter().flatten().all(|&v| v == 0),
        "a slot that is no output pixel was written"
    );

    // measured ≤ tracked ≤ predicted, on every output ciphertext.
    let predicted = layer
        .kernel()
        .noise_after(ct.noise(), &c.params, level)
        .bound_log2;
    for out in &outputs {
        assert_eq!(out.level(), level);
        let tracked = out.noise().bound_log2;
        let measured = (c.dec.invariant_noise(out).unwrap().max(1) as f64).log2();
        assert!(
            tracked <= predicted + 1e-9,
            "tracked {tracked} > predicted {predicted}"
        );
        assert!(
            measured <= tracked,
            "measured {measured} > tracked {tracked}"
        );
    }

    // One multiply per live mask; one replay per baby step and one direct
    // rotation per Horner link — each chain rotates through every group
    // below its highest live one — all of the links on the one key b·s.
    assert_eq!(counts.mul as usize, plan.live_masks());
    let links: usize = plan
        .chains()
        .iter()
        .map(|chain| chain.last().map_or(0, |top| top.u))
        .sum();
    assert_eq!(plan.giant_rotations(), links);
    assert_eq!(counts.rotate as usize, plan.baby_steps().len() + links);
    let giant = (plan.b * plan.stride) as i64;
    let mut expect_steps = plan.baby_steps().to_vec();
    expect_steps.extend((links > 0).then_some(giant));
    assert_eq!(steps, expect_steps);
    let mut distinct = steps.clone();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(
        distinct.len(),
        steps.len(),
        "a step listed twice: {steps:?}"
    );
    assert_eq!(
        (plan.diagonals, plan.g),
        (
            s.ci.next_power_of_two(),
            s.ci.next_power_of_two().div_ceil(plan.b)
        )
    );
    // Every mask live and no two (tap, v) pairs on one offset: f_w²·b − 1
    // replays (step 0 reads the input as it is) and g − 1 links a chain.
    let taps = s.fw * s.fw;
    let r = s.fw / 2;
    if plan.live_masks() == plan.diagonals * taps * plan.outputs()
        && 2 * r * (s.w + 1) < plan.stride
        && plan.diagonals.is_multiple_of(plan.b)
    {
        assert_eq!(plan.baby_steps().len(), taps * plan.b - 1);
        assert_eq!(links, plan.outputs() * (plan.g - 1));
    }

    // Any one key fewer is a typed refusal: every step is really used.
    if !steps.is_empty() {
        let drop = rng.random_range(0..steps.len());
        let rest: Vec<i64> = (0..steps.len())
            .filter(|&i| i != drop)
            .map(|i| steps[i])
            .collect();
        let lean = c.kg.galois_keys_for_steps(&rest).unwrap();
        assert!(
            matches!(
                layer.apply_with_scratch(&ct, &c.eval, &lean, &mut c.eval.new_scratch()),
                Err(Error::MissingGaloisKey { .. })
            ),
            "step {} of {steps:?} was never rotated by",
            steps[drop]
        );
    }
}

/// The curated corners, then random small shapes.
fn shape(sel: usize, rng: &mut StdRng) -> ConvSpec {
    match sel {
        0 => spec(8, 3, 1, 4),   // c_i = 1
        1 => spec(8, 3, 2, 5),   // c_o > c_i
        2 => spec(8, 3, 4, 2),   // c_o < c_i
        3 => spec(6, 3, 3, 4),   // neither c_i nor w² a power of two
        4 => spec(5, 1, 3, 3),   // 1×1
        5 => spec(8, 5, 2, 2),   // 5×5
        6 => spec(3, 5, 2, 3),   // tap offsets of neighbouring blocks coincide
        7 => spec(16, 3, 2, 12), // 12 outputs, 8 blocks a row
        _ => {
            let fw = [1usize, 3, 3, 5][rng.random_range(0..4usize)];
            spec(
                rng.random_range(3..=8),
                fw,
                rng.random_range(1..=6),
                rng.random_range(1..=8),
            )
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn packed_conv_is_exact_sound_and_plan_exact(
        seed in any::<u64>(),
        shape_sel in 0usize..12,
        pruned in any::<bool>(),
        forced in any::<bool>(),
        level in 0usize..2,
        hybrid in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let s = shape(shape_sel, &mut rng);
        let mut c = ctx(hybrid, seed % 977 + 1);
        let (w, live) = weights(&s, pruned, &mut rng);
        let diagonals = s.ci.next_power_of_two();
        // A forced width past 1 where there is one, kept to a key set a
        // debug-build keygen can afford.
        let widest = diagonals.min((40 / (s.fw * s.fw)).max(1));
        let layer = if forced && widest > 1 {
            let b = rng.random_range(2..=widest);
            let layer = HomConv2d::with_baby_width(&s, &w, &c.encoder, &c.eval, b).unwrap();
            prop_assert_eq!(layer.conv_plan().b, b);
            layer
        } else {
            HomConv2d::new(&s, &w, &c.encoder, &c.eval).unwrap()
        };
        if layer.conv_plan().outputs() == 1 {
            prop_assert_eq!(layer.conv_plan().live_masks(), live);
        }
        check_layer(&mut c, &s, &w, &layer, level, &mut rng);
    }
}

/// Every corner shape, deterministically, under the auto plan and a wider
/// baby step, dense and pruned.
#[test]
fn corner_shapes_convolve_correctly() {
    let mut rng = StdRng::seed_from_u64(0xc04e);
    for sel in 0..8 {
        let s = shape(sel, &mut rng);
        for pruned in [false, true] {
            let mut c = ctx(false, 5);
            let (w, _) = weights(&s, pruned, &mut rng);
            let auto = HomConv2d::new(&s, &w, &c.encoder, &c.eval).unwrap();
            check_layer(&mut c, &s, &w, &auto, 0, &mut rng);
            if s.ci > 1 && s.fw < 5 {
                let wide = HomConv2d::with_baby_width(&s, &w, &c.encoder, &c.eval, 2).unwrap();
                check_layer(&mut c, &s, &w, &wide, 1, &mut rng);
            }
        }
    }
}

/// A multi-group layer needs every key it lists, the one giant key
/// included: drop each in turn.
#[test]
fn every_listed_step_is_rotated_by() {
    let mut rng = StdRng::seed_from_u64(0x57e9);
    let s = spec(8, 3, 4, 4);
    for pruned in [false, true] {
        let mut c = ctx(false, 9);
        let (w, _) = weights(&s, pruned, &mut rng);
        let layer = HomConv2d::new(&s, &w, &c.encoder, &c.eval).unwrap();
        let steps = layer.rotation_steps();
        let input = Tensor::from_data(&[4, 8, 8], (0..256i64).map(|i| i % 5 - 2).collect());
        let ct = c
            .enc
            .encrypt(&HomConv2d::encode_input(&s, &input, &c.encoder).unwrap())
            .unwrap();
        for drop in 0..steps.len() {
            let rest: Vec<i64> = (0..steps.len())
                .filter(|&i| i != drop)
                .map(|i| steps[i])
                .collect();
            let lean = c.kg.galois_keys_for_steps(&rest).unwrap();
            assert!(
                matches!(
                    layer.apply_with_scratch(&ct, &c.eval, &lean, &mut c.eval.new_scratch()),
                    Err(Error::MissingGaloisKey { .. })
                ),
                "pruned={pruned}: step {} of {steps:?} is never used",
                steps[drop]
            );
        }
    }
}
