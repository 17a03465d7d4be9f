//! The tiled FC layout and its client-side fold, pinned from outside:
//!
//! * over random `(n_i, n_o ≤ n_i)` — `n_o = 1`, `n_o = n_i`,
//!   non-power-of-two `n_o` and non-power-of-two `n_i` included — ×
//!   {forced `b = 1`, forced `b = δ`, forced random `b`, forced all-live
//!   over dead diagonals, forced over the weights' own sparse or pow2
//!   structure — each under a random admissible tiling — auto, sparse,
//!   pow2} plans × levels 0/1 × the digit and hybrid presets:
//!   `decode_output` of the decrypted slots is the cleartext `W·x` and the
//!   untiled `b = 1` all-live plan's, the `fold` windows from **any**
//!   slot of a row — half of them in each row once tiled — add up to its
//!   output row, the second row is zero untiled, measured ≤ tracked ≤
//!   predicted noise, one multiply per live tiled diagonal, one rotation
//!   per step of `rotation_steps()` — the kernel's, none reaching `δ` —
//!   and exactly those Galois keys are enough while any one fewer is not;
//!   every admissible tiling of one shape is walked deterministically
//!   besides, and of random shapes under both diagonal-method widths, and
//!   the two corners the second row opens on both presets;
//! * a square untiled layer (`fold = 1`) runs the unfolded engine's ops
//!   and keys, and `tiles = 1` on the benchmark shapes runs the plans —
//!   multiplies, step lists — the layout had before it tiled, its
//!   rotations short by exactly the server-side fold's;
//! * the chain solver's per-layer multiply and rotation counts (and its
//!   label) are the prepared layer's measured `OpCounts`, on the
//!   benchmark networks' FC shapes — tiled picks, all of them — and
//!   `bench_cnn`'s two convolutions.

#[path = "../../bfv/tests/support/mod.rs"]
mod support;

use cheetah_bfv::{
    BatchEncoder, BfvParams, Ciphertext, Decryptor, Encryptor, Error, Evaluator, KeyGenerator,
    OpCounts,
};
use cheetah_core::linear::{HomConv2d, HomFc};
use cheetah_core::solver::solve_chain_plan;
use cheetah_core::{BsgsPlan, FcStructure, HeCostParams, QuantSpec};
use cheetah_nn::inference::eval_linear;
use cheetah_nn::{ConvSpec, FcSpec, LinearLayer, Tensor};
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

fn ctx(params: BfvParams, seed: u64) -> Ctx {
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

fn preset(hybrid: bool) -> BfvParams {
    if hybrid {
        BfvParams::preset_hybrid_2x36(4096).unwrap()
    } else {
        BfvParams::preset_rns_3x36(4096).unwrap()
    }
}

fn spec(ni: usize, no: usize) -> FcSpec {
    FcSpec {
        name: "fc-fold".into(),
        ni,
        no,
    }
}

/// Which plan a case prepares, and from what weights.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    /// `with_forced_plan(dense, b, tiles)` on dense weights: `b = 1` and
    /// `b = δ` are the diagonal method's two corners.
    Forced(usize, usize),
    /// `with_forced_plan(dense, b, tiles)` on weights with dead folded
    /// diagonals: every tiled diagonal gets a mask, dead or not.
    ForcedAllLive(usize, usize),
    /// `with_forced_plan(the weights' own structure, b, tiles)` on weights
    /// with dead folded diagonals, every live one `±2` or `±4` when `pow2`.
    ForcedSparse { b: usize, tiles: usize, pow2: bool },
    /// `new` on dense weights.
    Auto,
    /// `new` on weights with dead folded diagonals.
    Sparse,
    /// [`Kind::Sparse`] with every live weight `±2` or `±4`.
    Pow2,
}

/// The folded diagonal cell `(r, c)` lies on, of `d = next_pow2(n_o)`.
fn folded(r: usize, c: usize, d: usize) -> usize {
    (c + d - r % d) % d
}

/// `(n_o, n_i)` weights nonzero (values from `draw`) exactly on the cells
/// of the folded diagonals in `live`.
fn weights_on(s: &FcSpec, live: &[usize], mut draw: impl FnMut() -> i64) -> Tensor {
    let d = s.no.next_power_of_two();
    let mut data = vec![0i64; s.no * s.ni];
    for (i, w) in data.iter_mut().enumerate() {
        if live.contains(&folded(i / s.ni, i % s.ni, d)) {
            *w = draw();
        }
    }
    Tensor::from_data(&[s.no, s.ni], data)
}

/// The tiled diagonals of `w` that carry a weight under `tiles` copies,
/// counted cell by cell: tiled diagonal `k` reads the folded diagonals
/// `≡ k (mod δ)`.
fn live_tiled(s: &FcSpec, w: &Tensor, tiles: usize) -> usize {
    let d = s.no.next_power_of_two();
    let delta = d / tiles;
    let mut live = vec![false; delta];
    for (i, &v) in w.data().iter().enumerate() {
        if v != 0 {
            live[folded(i / s.ni, i % s.ni, d) % delta] = true;
        }
    }
    live.iter().filter(|&&l| l).count()
}

fn nonzero(rng: &mut StdRng, bound: i64) -> i64 {
    loop {
        let v = rng.random_range(-bound..=bound);
        if v != 0 {
            return v;
        }
    }
}

/// The case's weights.
fn weights_for(s: &FcSpec, kind: Kind, rng: &mut StdRng) -> Tensor {
    let d = s.no.next_power_of_two();
    let all: Vec<usize> = (0..d).collect();
    let pow2 = matches!(kind, Kind::Pow2 | Kind::ForcedSparse { pow2: true, .. });
    match kind {
        Kind::Forced(..) | Kind::Auto => weights_on(s, &all, || nonzero(rng, 3)),
        _ => {
            // At least one live, at least one dead (d ≥ 2 is the caller's
            // business).
            let mut live: Vec<usize> = all
                .iter()
                .copied()
                .filter(|_| rng.random_range(0..10) < 4)
                .collect();
            if live.is_empty() {
                live.push(rng.random_range(0..d));
            }
            if live.len() == d {
                live.pop();
            }
            if pow2 {
                weights_on(s, &live, || [2i64, -2, 4, -4][rng.random_range(0..4usize)])
            } else {
                weights_on(s, &live, || nonzero(rng, 3))
            }
        }
    }
}

fn prepare(c: &Ctx, s: &FcSpec, w: &Tensor, kind: Kind) -> HomFc {
    let forced = |assume: &FcStructure, b, tiles| {
        HomFc::with_forced_plan(s, w, &c.encoder, &c.eval, assume, b, tiles)
    };
    match kind {
        Kind::Forced(b, tiles) | Kind::ForcedAllLive(b, tiles) => {
            forced(&FcStructure::dense(s.no, s.ni), b, tiles)
        }
        Kind::ForcedSparse { b, tiles, .. } => forced(&FcStructure::analyze_tensor(w, s), b, tiles),
        Kind::Auto | Kind::Sparse | Kind::Pow2 => HomFc::new(s, w, &c.encoder, &c.eval),
    }
    .unwrap()
}

/// Every admissible tiling of an `s`-shaped layer, ascending.
fn tilings(c: &Ctx, s: &FcSpec) -> Vec<usize> {
    let dense = FcStructure::dense(s.no, s.ni);
    dense.tilings(c.params.slots()).collect()
}

/// One evaluation under exactly the layer's own Galois keys, with its
/// `OpCounts`.
fn run(c: &mut Ctx, layer: &HomFc, ct: &Ciphertext) -> (Ciphertext, OpCounts) {
    let keys = c.kg.galois_keys_for_steps(&layer.rotation_steps()).unwrap();
    c.eval.reset_op_counts();
    let out = layer
        .apply_with_scratch(ct, &c.eval, &keys, &mut c.eval.new_scratch())
        .unwrap();
    (out, c.eval.op_counts())
}

/// The input, packed the way `layer` tiles it, at the deepest of `level`
/// and 0 the planner would run the layer at.
fn input_at(c: &mut Ctx, layer: &HomFc, input: &Tensor, level: usize) -> Ciphertext {
    let fresh = c
        .enc
        .encrypt(&layer.encode_input(input, &c.encoder).unwrap())
        .unwrap();
    let switched = c.eval.mod_switch_to(&fresh, level).unwrap();
    let predicted = layer
        .kernel()
        .noise_after(switched.noise(), &c.params, level);
    if predicted.budget_bits_statistical_at(&c.params, level) >= 2.0 {
        switched
    } else {
        fresh
    }
}

/// Everything the header promises of one prepared layer on one input.
/// `all_live`: the plan gives every tiled diagonal a mask, dead or not.
fn check_layer(
    c: &mut Ctx,
    s: &FcSpec,
    w: &Tensor,
    layer: &HomFc,
    all_live: bool,
    level: usize,
    rng: &mut StdRng,
) {
    let input = Tensor::from_data(
        &[s.ni],
        (0..s.ni).map(|_| rng.random_range(-3i64..=3)).collect(),
    );
    let expect = eval_linear(&LinearLayer::Fc(s.clone()), w, &input);
    let ct = input_at(c, layer, &input, level);
    let level = ct.level();
    let (out, counts) = run(c, layer, &ct);

    // The windows of outputs [0, n_o) add up to W·x (|y| ≤ 64·3·4 stays
    // far inside ±t/2), and so do the `fold` windows at stride d from any
    // other slot s of a row, half of them in each row once tiled — every
    // slot holds a partial sum of its row, the padding rows zero — while an
    // untiled layer leaves the second row empty. The untiled all-live
    // b = 1 plan of the same weights decodes to the same vector: the
    // output does not depend on the tiling.
    let plan = layer.fc_plan();
    let slots = c
        .encoder
        .decode_signed(&c.dec.decrypt_checked(&out).unwrap());
    assert_eq!(layer.decode_output(&slots).data(), expect.data());
    let d = s.no.next_power_of_two();
    let row = c.params.row_size();
    let per_row = plan.fold / plan.rows();
    for slot in 0..row {
        let windows =
            (0..plan.fold).map(|m| slots[m / per_row * row + (slot + m % per_row * d) % row]);
        let output = expect.data().get(slot % d).copied().unwrap_or(0);
        assert_eq!(windows.sum::<i64>(), output, "windows from slot {slot}");
    }
    if plan.tiles == 1 {
        assert!(slots[row..].iter().all(|&v| v == 0), "second row written");
    }
    let reference = prepare(c, s, w, Kind::Forced(1, 1));
    let ref_ct = input_at(c, &reference, &input, level);
    let (ref_out, ref_counts) = run(c, &reference, &ref_ct);
    assert_eq!(ref_counts.mul as usize, d);
    let ref_slots = c
        .encoder
        .decode_signed(&c.dec.decrypt_checked(&ref_out).unwrap());
    assert_eq!(
        layer.decode_output(&slots).data(),
        reference.decode_output(&ref_slots).data(),
        "an output differs from the untiled all-live b = 1 plan's"
    );

    // measured ≤ tracked ≤ predicted.
    let predicted = layer
        .kernel()
        .noise_after(ct.noise(), &c.params, level)
        .bound_log2;
    let tracked = out.noise().bound_log2;
    let measured = (c.dec.invariant_noise(&out).unwrap().max(1) as f64).log2();
    assert!(
        tracked <= predicted + 1e-9,
        "tracked {tracked} > predicted {predicted}"
    );
    assert!(
        measured <= tracked,
        "measured {measured} > tracked {tracked}"
    );

    // One multiply per live tiled diagonal, one rotation per baby step and
    // per live group above 0; each key listed once.
    let steps = layer.rotation_steps();
    let (tiles, delta) = (plan.tiles, d / plan.tiles);
    let masks = if all_live {
        delta
    } else {
        live_tiled(s, w, tiles)
    };
    assert_eq!(plan.live, masks);
    assert_eq!(counts.mul as usize, masks);
    assert_eq!(counts.rotate as usize, plan.rotations());
    let mut distinct = steps.clone();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(
        distinct.len(),
        steps.len(),
        "a step listed twice: {:?}",
        steps
    );
    assert_eq!(
        (plan.diagonals, plan.stride(), plan.fold),
        (delta, d, tiles * s.ni.next_power_of_two() / d)
    );

    // The kernel's keys — its baby steps and the gaps Horner jumps between
    // live groups, `1..b` plus `b` when every diagonal carries a mask —
    // and nothing else: no step reaches δ, let alone the windows' stride d.
    assert!(steps.len() <= plan.kernel.rotations(), "{steps:?}");
    assert!(steps.iter().all(|&st| (st as usize) < delta), "{steps:?}");
    if masks == delta {
        let (b, g) = (plan.kernel.b, plan.kernel.g);
        assert_eq!(plan.kernel.rotations(), b + g - 2);
        let dense: Vec<i64> = (1..b as i64).chain((g > 1).then_some(b as i64)).collect();
        assert_eq!(steps, dense);
    }

    // Any one key fewer is a typed refusal: every step is really used.
    if !steps.is_empty() {
        let drop = rng.random_range(0..steps.len());
        let rest: Vec<i64> = steps
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != drop)
            .map(|(_, &st)| st)
            .collect();
        let lean = c.kg.galois_keys_for_steps(&rest).unwrap();
        let refused = layer.apply_with_scratch(&ct, &c.eval, &lean, &mut c.eval.new_scratch());
        assert!(
            matches!(refused, Err(Error::MissingGaloisKey { .. })),
            "step {} of {:?} was never rotated by",
            steps[drop],
            steps
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn folded_fc_is_exact_sound_and_plan_exact(
        seed in any::<u64>(),
        ni_sel in 0usize..6,
        no_sel in 0usize..4,
        kind_sel in 0usize..9,
        level in 0usize..2,
        hybrid in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ni = match ni_sel {
            0..4 => [8usize, 16, 32, 64][ni_sel],
            // Not a power of two: the columns pad.
            _ => loop {
                let ni = rng.random_range(5..64usize);
                if !ni.is_power_of_two() {
                    break ni;
                }
            },
        };
        let no = match no_sel {
            0 => 1,
            1 => ni,
            2 => rng.random_range(1..=ni),
            // Not a power of two: the rows pad.
            _ => loop {
                let no = rng.random_range(3..=ni);
                if !no.is_power_of_two() {
                    break no;
                }
            },
        };
        let d = no.next_power_of_two();
        let s = spec(ni, no);
        let mut c = ctx(preset(hybrid), seed % 977 + 1);
        let all_tiles = tilings(&c, &s);
        let tiles = all_tiles[rng.random_range(0..all_tiles.len())];
        let delta = d / tiles;
        let kind = match kind_sel {
            0 => Kind::Forced(1, tiles),
            1 => Kind::Forced(delta, tiles),
            2 => Kind::Forced(rng.random_range(1..=delta), tiles),
            // A one-diagonal layer has nothing to prune.
            3 if d > 1 => Kind::ForcedAllLive(rng.random_range(1..=delta), tiles),
            4 | 5 if d > 1 => Kind::ForcedSparse {
                b: rng.random_range(1..=delta),
                tiles,
                pow2: kind_sel == 5,
            },
            6 if d > 1 => Kind::Sparse,
            7 if d > 1 => Kind::Pow2,
            _ => Kind::Auto,
        };
        let w = weights_for(&s, kind, &mut rng);
        let layer = prepare(&c, &s, &w, kind);
        let plan = layer.fc_plan();
        match kind {
            Kind::Forced(..) | Kind::ForcedAllLive(..) | Kind::ForcedSparse { .. } => {
                prop_assert_eq!(plan.tiles, tiles);
            }
            _ => prop_assert!(all_tiles.contains(&plan.tiles), "{}", plan.label()),
        }
        match kind {
            Kind::Sparse | Kind::Pow2 | Kind::ForcedSparse { .. } => {
                prop_assert!(live_tiled(&s, &w, 1) < d);
            }
            _ => prop_assert_eq!(plan.live, plan.diagonals),
        }
        let all_live = matches!(kind, Kind::Forced(..) | Kind::ForcedAllLive(..) | Kind::Auto);
        check_layer(&mut c, &s, &w, &layer, all_live, level, &mut rng);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random shapes under **every** admissible tiling and both
    /// diagonal-method widths: the decrypted windows decode to the
    /// cleartext product, and no rotation step reaches `d` — there is no
    /// fold left to ask for one.
    #[test]
    fn every_tiling_decodes_to_cleartext_without_a_fold_step(
        seed in any::<u64>(),
        hybrid in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ni = rng.random_range(2..=96usize);
        let no = rng.random_range(1..=ni);
        let (s, d) = (spec(ni, no), no.next_power_of_two());
        let mut c = ctx(preset(hybrid), seed % 983 + 1);
        let all: Vec<usize> = (0..d).collect();
        let w = weights_on(&s, &all, || nonzero(&mut rng, 3));
        let input = Tensor::from_data(
            &[ni],
            (0..ni).map(|_| rng.random_range(-3i64..=3)).collect(),
        );
        let expect = eval_linear(&LinearLayer::Fc(s.clone()), &w, &input);
        for tiles in tilings(&c, &s) {
            for b in [1, d / tiles] {
                let layer = prepare(&c, &s, &w, Kind::Forced(b, tiles));
                let steps = layer.rotation_steps();
                prop_assert!(steps.iter().all(|&st| (st as usize) < d), "{:?}", steps);
                let ct = input_at(&mut c, &layer, &input, 0);
                let (out, counts) = run(&mut c, &layer, &ct);
                prop_assert_eq!(counts.rotate as usize, layer.fc_plan().rotations());
                let slots = c.encoder.decode_signed(&c.dec.decrypt_checked(&out).unwrap());
                prop_assert_eq!(
                    layer.decode_output(&slots).data(),
                    expect.data(),
                    "({}, {}) {}", ni, no, layer.fc_plan().label()
                );
            }
        }
    }
}

/// The corners, deterministically: one output, a square layer, padded
/// rows, padded columns — under the auto-chosen plan and, for **every**
/// admissible tiling, both diagonal-method widths and a sparse pow2 plan.
#[test]
fn corner_shapes_fold_correctly() {
    let mut rng = StdRng::seed_from_u64(0xc04e);
    for (ni, no) in [(16usize, 1usize), (16, 16), (32, 10), (24, 5)] {
        let d = no.next_power_of_two();
        let s = spec(ni, no);
        let mut c = ctx(preset(false), 5);
        let mut kinds = vec![Kind::Auto];
        for tiles in tilings(&c, &s) {
            kinds.push(Kind::Forced(1, tiles));
            kinds.push(Kind::Forced(d / tiles, tiles));
            if d > 1 {
                kinds.push(Kind::ForcedSparse {
                    b: 2,
                    tiles,
                    pow2: true,
                });
            }
        }
        for kind in kinds {
            let w = weights_for(&s, kind, &mut rng);
            let layer = prepare(&c, &s, &w, kind);
            let all_live = !matches!(kind, Kind::ForcedSparse { .. });
            check_layer(&mut c, &s, &w, &layer, all_live, 0, &mut rng);
        }
    }
}

/// The two corners the second row opens, forced on both presets: an input
/// as wide as a row tiled twice (one copy in each row), and as many copies
/// as both rows hold with `δ > 1` diagonals left to rotate over.
#[test]
fn two_row_corners_fold_correctly() {
    let mut rng = StdRng::seed_from_u64(0x2e0c);
    for hybrid in [false, true] {
        let mut c = ctx(preset(hybrid), 13);
        let n = c.params.slots();
        for (ni, no, tiles) in [(n / 2, 10, 2), (256, 64, n / 256)] {
            let s = spec(ni, no);
            let delta = no.next_power_of_two() / tiles;
            assert!(delta > 1, "({ni}, {no})");
            assert_eq!(tilings(&c, &s).last(), Some(&tiles), "({ni}, {no})");
            for kind in [Kind::Forced(1, tiles), Kind::Forced(delta, tiles)] {
                let w = weights_for(&s, kind, &mut rng);
                let layer = prepare(&c, &s, &w, kind);
                assert_eq!(layer.fc_plan().rows(), 2);
                check_layer(&mut c, &s, &w, &layer, true, 0, &mut rng);
            }
        }
    }
}

/// A layer needs every key it lists — the kernel's, none of them a fold
/// step: drop each in turn. (512 → 16 fits eight copies in the two rows,
/// so even the widest tiling leaves the kernel δ = 2 diagonals to rotate
/// over.)
#[test]
fn every_listed_step_is_rotated_by() {
    let mut rng = StdRng::seed_from_u64(0x57e9);
    let s = spec(512, 16);
    for kind in [Kind::Auto, Kind::Sparse, Kind::Forced(3, 1)] {
        let mut c = ctx(preset(false), 9);
        let w = weights_for(&s, kind, &mut rng);
        let layer = prepare(&c, &s, &w, kind);
        let steps = layer.rotation_steps();
        assert!(
            !steps.is_empty() && steps.iter().all(|&st| st < 16),
            "kernel steps only: {steps:?}"
        );
        let input = Tensor::from_data(&[s.ni], (0..s.ni as i64).map(|i| i % 5 - 2).collect());
        let ct = input_at(&mut c, &layer, &input, 0);
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
                "{kind:?}: step {} of {steps:?} is never used",
                steps[drop]
            );
        }
    }
}

/// `fold = 1`: the plan, the key set and every op count of a square
/// untiled layer are the unfolded engine's — the chooser's split of the
/// `n_i` all-live diagonals, `n_i` multiplies, `b + g − 2` rotations, and
/// the plane transforms of one hoist, `b − 1` replays and `g − 1` direct
/// rotations — on the baby steps `1..b` plus the one giant step `b` that
/// Horner repeats (`b, 2b, …`, a key each, before the groups met by
/// Horner).
#[test]
fn square_layer_is_the_unfolded_engine_op_for_op() {
    let mut rng = StdRng::seed_from_u64(0x59a4e);
    for hybrid in [false, true] {
        for level in 0..2 {
            let s = spec(32, 32);
            let mut c = ctx(preset(hybrid), 21);
            let cost = HeCostParams::for_bfv(&c.params, level);
            let plan = BsgsPlan::choose(&FcStructure::dense(s.no, s.ni), &cost);
            assert!(plan.b > 1 && plan.g > 1, "32 diagonals split: {plan:?}");
            let kind = Kind::Forced(plan.b, 1);
            let w = weights_for(&s, kind, &mut rng);
            let layer = prepare(&c, &s, &w, kind);
            assert_eq!(layer.fc_plan().kernel, plan);
            assert_eq!(layer.fc_plan().fold, 1);
            let steps: Vec<i64> = (1..=plan.b as i64).collect();
            assert_eq!(layer.rotation_steps(), steps);

            let input = Tensor::from_data(&[s.ni], (0..s.ni as i64).map(|i| i % 7 - 3).collect());
            let fresh = c
                .enc
                .encrypt(&layer.encode_input(&input, &c.encoder).unwrap())
                .unwrap();
            let ct = c.eval.mod_switch_to(&fresh, level).unwrap();
            let (_, counts) = run(&mut c, &layer, &ct);
            assert_eq!(counts.mul as usize, s.ni);
            assert_eq!(counts.rotate as usize, plan.b + plan.g - 2);
            assert_eq!(
                counts.ntt,
                cost.ntts_per_hoist()
                    + (plan.b as u64 - 1) * cost.ntts_per_rotate_hoisted()
                    + (plan.g as u64 - 1) * cost.ntts_per_rotate(),
                "hybrid={hybrid} level {level}"
            );
        }
    }
}

/// `tiles = 1` is the layout before it tiled, as numbers: forced untiled
/// under the baby width the chooser picks there, the benchmark networks'
/// FC shapes run the labels and multiplies the untiled engine's traced
/// runs recorded at level 0 of the two benchmark chains (`mlp_digit` /
/// `cnn_digit.L2` on the digit chain, `mlp_hybrid` on its hybrid twin) —
/// and their rotation counts minus exactly the steps of the server-side
/// fold those runs still paid. Those runs keyed each giant step `u·b`
/// apart; Horner over the live groups repeats the one step `b`, so the
/// keys are the baby steps `1..b` plus `b`.
#[test]
fn untiled_plans_are_the_parents_op_for_op() {
    let mut rng = StdRng::seed_from_u64(0x7117);
    for (hybrid, ni, no, (b, g), fold_steps, rotate) in [
        (false, 1024, 256, (26, 10), vec![256, 512, 768], 37),
        (false, 256, 64, (13, 5), vec![64, 128, 192], 19),
        (false, 64, 16, (8, 2), vec![16, 32, 48], 11),
        (false, 256, 16, (8, 2), vec![16, 32, 48, 64, 128, 192], 14),
        (true, 1024, 256, (20, 13), vec![512, 256], 33),
        (true, 256, 64, (11, 6), vec![128, 64], 17),
        (true, 64, 16, (4, 4), vec![32, 16], 8),
        (true, 256, 16, (4, 4), vec![128, 64, 32, 16], 10),
    ] {
        let s = spec(ni, no);
        let mut c = ctx(preset(hybrid), 35);
        let cost = HeCostParams::for_bfv(&c.params, 0);
        let chosen = BsgsPlan::choose(&FcStructure::dense(no, ni), &cost);
        assert_eq!((chosen.b, chosen.g), (b, g), "({ni}, {no})");
        let all: Vec<usize> = (0..no).collect();
        let w = weights_on(&s, &all, || nonzero(&mut rng, 1));
        let layer = prepare(&c, &s, &w, Kind::Forced(b, 1));
        let label = format!(
            "fc bsgs tiles=1 b={b} g={g} live={no}/{no} fold={}",
            ni / no
        );
        assert_eq!(layer.fc_plan().label(), label);
        let steps: Vec<i64> = (1..=b as i64).collect();
        assert_eq!(layer.rotation_steps(), steps, "{label}");
        let input = Tensor::from_data(&[ni], (0..ni as i64).map(|i| i % 7 - 3).collect());
        let ct = input_at(&mut c, &layer, &input, 0);
        let (out, counts) = run(&mut c, &layer, &ct);
        assert_eq!(
            (counts.mul as usize, counts.rotate as usize),
            (no, rotate - fold_steps.len()),
            "{label}"
        );
        let slots = c
            .encoder
            .decode_signed(&c.dec.decrypt_checked(&out).unwrap());
        let expect = eval_linear(&LinearLayer::Fc(s.clone()), &w, &input);
        assert_eq!(layer.decode_output(&slots).data(), expect.data(), "{label}");
    }
}

/// The solver and the engine are one plan: for `bench_mlp`'s three FC
/// layers and `bench_cnn`'s FC layer and two convolutions, the
/// `ChainPlan`'s multiply and rotation counts are the `OpCounts` of the
/// layer prepared on the plan's chain at the plan's level, and its label
/// is the prepared layer's.
#[test]
fn solver_counts_are_the_engines_measured_counts() {
    let shapes = [(1024, 256), (256, 64), (64, 16), (256, 16)];
    let layers: Vec<LinearLayer> = shapes
        .iter()
        .map(|&(ni, no)| LinearLayer::Fc(spec(ni, no)))
        .collect();
    // The benchmark's value ranges: weights in ±1, activations in ±3.
    let quant = QuantSpec {
        weight_bits: 1,
        activation_bits: 2,
    };
    let plan = solve_chain_plan(&layers, &quant, &[4096])
        .expect("the benchmark's FC shapes are solvable at n = 4096");

    let mut rng = StdRng::seed_from_u64(0x501e);
    let mut c = ctx(plan.params.clone(), 33);
    for (&(ni, no), lp) in shapes.iter().zip(&plan.layers) {
        let s = spec(ni, no);
        let all: Vec<usize> = (0..no).collect();
        let w = weights_on(&s, &all, || nonzero(&mut rng, 1));
        let layer = HomFc::new(&s, &w, &c.encoder, &c.eval).unwrap();
        let fc = layer.fc_plan();
        assert_eq!(lp.plan, fc.label(), "({ni}, {no})");
        // Every one of these shapes leaves room in the row, and filling it
        // is cheaper: the solver priced a tiled plan.
        assert!(fc.tiles > 1, "({ni}, {no}) stayed untiled: {}", lp.plan);
        assert_eq!(fc.fold, fc.tiles * ni / no, "{}", lp.plan);

        let input = Tensor::from_data(&[ni], (0..ni as i64).map(|i| i % 7 - 3).collect());
        let fresh = c
            .enc
            .encrypt(&layer.encode_input(&input, &c.encoder).unwrap())
            .unwrap();
        let ct = c.eval.mod_switch_to(&fresh, lp.level).unwrap();
        let (_, counts) = run(&mut c, &layer, &ct);
        assert_eq!(lp.he_mult, counts.mul as f64, "({ni}, {no}) multiplies");
        assert_eq!(lp.he_rotate, counts.rotate as f64, "({ni}, {no}) rotations");
        assert_eq!(
            counts.mul as usize,
            no / fc.tiles,
            "one multiply serves `tiles` matrix rows' diagonals"
        );
    }

    // The tiled picks as numbers: what this layout's traced benchmark runs
    // record for these shapes at level 0 of the two benchmark chains — with
    // no fold in the price the chooser tiles as wide as both rows allow,
    // down to Table IV's `n_i·n_o / n` masks and to one mask multiply and no
    // rotation on the last layers.
    for (hybrid, ni, no, mul, rotate, label) in [
        (
            false,
            1024,
            256,
            64,
            16,
            "fc bsgs tiles=4 b=13 g=5 live=64/64 fold=16",
        ),
        (
            false,
            256,
            64,
            4,
            3,
            "fc bsgs tiles=16 b=4 g=1 live=4/4 fold=64",
        ),
        (
            false,
            64,
            16,
            1,
            0,
            "fc bsgs tiles=16 b=1 g=1 live=1/1 fold=64",
        ),
        (
            false,
            256,
            16,
            1,
            0,
            "fc bsgs tiles=16 b=1 g=1 live=1/1 fold=256",
        ),
        (
            true,
            1024,
            256,
            64,
            15,
            "fc bsgs tiles=4 b=11 g=6 live=64/64 fold=16",
        ),
        (
            true,
            256,
            64,
            4,
            2,
            "fc bsgs tiles=16 b=2 g=2 live=4/4 fold=64",
        ),
        (
            true,
            64,
            16,
            1,
            0,
            "fc bsgs tiles=16 b=1 g=1 live=1/1 fold=64",
        ),
    ] {
        let s = spec(ni, no);
        let mut c = ctx(preset(hybrid), 35);
        let all: Vec<usize> = (0..no).collect();
        let w = weights_on(&s, &all, || nonzero(&mut rng, 1));
        let layer = HomFc::new(&s, &w, &c.encoder, &c.eval).unwrap();
        assert_eq!(layer.fc_plan().label(), label);
        let input = Tensor::from_data(&[ni], (0..ni as i64).map(|i| i % 7 - 3).collect());
        let ct = c
            .enc
            .encrypt(&layer.encode_input(&input, &c.encoder).unwrap())
            .unwrap();
        let (_, counts) = run(&mut c, &layer, &ct);
        assert_eq!(
            (counts.mul as usize, counts.rotate as usize),
            (mul, rotate),
            "{label}"
        );
    }
    // `bench_cnn`'s convolutions: 1→8 channels on 16×16, 8→16 on 8×8.
    let convs: Vec<ConvSpec> = [(16, 1, 8), (8, 8, 16)]
        .iter()
        .map(|&(w, ci, co)| ConvSpec {
            name: format!("conv{ci}"),
            w,
            fw: 3,
            ci,
            co,
            stride: 1,
            pad: 1,
        })
        .collect();
    let layers: Vec<LinearLayer> = convs.iter().cloned().map(LinearLayer::Conv).collect();
    let plan = solve_chain_plan(&layers, &quant, &[4096])
        .expect("the benchmark's conv shapes are solvable at n = 4096");
    let mut c = ctx(plan.params.clone(), 37);
    let literal = [
        ("conv packed b=1 g=1 live=9/9 out=1", 9, 8),
        ("conv packed b=1 g=8 live=72/72 out=1", 72, 15),
    ];
    for ((s, lp), (label, mul, rotate)) in convs.iter().zip(&plan.layers).zip(literal) {
        let len = s.co * s.ci * 9;
        let w = Tensor::from_data(
            &[s.co, s.ci, 3, 3],
            (0..len).map(|_| nonzero(&mut rng, 1)).collect(),
        );
        let layer = HomConv2d::new(s, &w, &c.encoder, &c.eval).unwrap();
        assert_eq!(lp.plan, layer.conv_plan().label(), "{}", s.name);
        assert_eq!(lp.plan, label);

        let input = Tensor::from_data(
            &[s.ci, s.w, s.w],
            (0..s.ci * s.w * s.w).map(|i| i as i64 % 7 - 3).collect(),
        );
        let fresh = c
            .enc
            .encrypt(&HomConv2d::encode_input(s, &input, &c.encoder).unwrap())
            .unwrap();
        let ct = c.eval.mod_switch_to(&fresh, lp.level).unwrap();
        let keys = c.kg.galois_keys_for_steps(&layer.rotation_steps()).unwrap();
        c.eval.reset_op_counts();
        let outputs = layer
            .apply_with_scratch(&ct, &c.eval, &keys, &mut c.eval.new_scratch())
            .unwrap();
        let counts = c.eval.op_counts();
        assert_eq!(
            outputs.len(),
            1,
            "{label}: every output channel in one ciphertext"
        );
        assert_eq!(
            (lp.he_mult, lp.he_rotate),
            (mul as f64, rotate as f64),
            "{label}"
        );
        assert_eq!((counts.mul, counts.rotate), (mul, rotate), "{label}");
        // The level the solver planned is one the runtime planner's own
        // bound accepts.
        let predicted = layer.kernel().noise_after(ct.noise(), &c.params, lp.level);
        assert!(
            predicted.budget_bits_statistical_at(&c.params, lp.level) >= 2.0,
            "{label}: planned level {} is past the engine's bound",
            lp.level
        );
    }
}
