//! Solver closure: the chain solver and the engine are one model.
//!
//! The solver prices a layer by asking the plan the engine would prepare
//! (`FcPlan` / `ConvPlan::noise_after`) and picks its level by the one
//! level rule (`linear::run_level`) that `PreparedModel` applies too, so
//! everything it emits must hold on the prepared layer, not just on paper.
//! Over seeded random small networks — one to three linear layers mixing
//! convolutions and FC layers, dense and pruned, weights at and below the
//! requested bound, precision requests that steer the solve onto the
//! digit `rns_3x36`, the hybrid `hybrid_1x54` and (one wide layer)
//! `hybrid_2x36` — every emitted `ChainPlan`'s `params` prepare a
//! `PreparedModel` whose records are the plan's (level, label, steps,
//! shipped level, message bytes), which runs a `PrivateInferenceSession`
//! with the noise meter lent and decrypts to `cheetah_nn::infer`'s output,
//! and per layer: the solver's budget is, to the bit, the chosen plan's
//! `noise_after` at mask norm `⌊t/2⌋` on the round's input, at most the
//! prepared layer's own budget and within a twentieth of a bit of it past
//! what the prepared masks' own norm explains — at that norm the chosen
//! plan's budget is the prepared layer's, to the bit — predicted ≥ tracked
//! ≥ measured noise, the session ran the layer at the planned
//! level, the planned multiplies and rotations are the measured `OpCounts`
//! of the prepared layer, and the planned label is the prepared one.
//!
//! And the other direction: a chain or level the solver passes over on
//! noise is one the prepared layer's own prediction rejects too — the
//! solver's pick is the cheapest `(chain, level)` the engine accepts.

#[path = "../../bfv/tests/support/mod.rs"]
mod support;

use std::collections::BTreeSet;
use std::sync::Arc;
use support::Alloc;

use cheetah_bfv::{BatchEncoder, BfvParams, Encryptor, Evaluator, KeyGenerator, NoiseEstimate};
use cheetah_core::linear::{ConvPlan, FcPlan, HomFc, LEVEL_PLAN_MARGIN_BITS};
use cheetah_core::solver::{chain_candidates, solve_chain_plan_structured, ChainPlan};
use cheetah_core::{HeCostParams, LayerStructure, QuantSpec};
use cheetah_nn::inference::{infer, random_input};
use cheetah_nn::models::tiny_cnn;
use cheetah_nn::{Layer, LinearLayer, Network, Weights};
use cheetah_serve::{PreparedModel, PrivateInferenceSession};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random network of one to three linear layers at `n = 4096`: up to two
/// 'same' convolutions on a small image, then FC layers, ReLU between.
fn random_net(rng: &mut StdRng) -> Network {
    let linear = rng.random_range(1..=3usize);
    let convs = rng.random_range(0..=linear.min(2));
    let w = [4usize, 6, 8][rng.random_range(0..3usize)];
    let mut channels = rng.random_range(1..=3usize);
    let input_shape = if convs > 0 {
        vec![channels, w, w]
    } else {
        vec![[24usize, 64, 100][rng.random_range(0..3usize)]]
    };
    let mut width = input_shape.iter().product();
    let mut layers = Vec::new();
    for i in 0..linear {
        if i > 0 {
            layers.push(Layer::Relu);
        }
        if i < convs {
            let co = rng.random_range(1..=4usize);
            let fw = [1usize, 3][rng.random_range(0..2usize)];
            layers.push(Layer::conv(
                &format!("conv{i}"),
                w,
                fw,
                channels,
                co,
                1,
                fw / 2,
            ));
            (channels, width) = (co, co * w * w);
        } else {
            if i == convs && convs > 0 {
                layers.push(Layer::Flatten);
            }
            let no = rng.random_range(1..=width.min(24));
            layers.push(Layer::fc(&format!("fc{i}"), width, no));
            width = no;
        }
    }
    Network {
        name: "closure".into(),
        input_shape,
        layers,
    }
}

/// The precision request that makes the widest layer of `layers` need
/// exactly `t_bits` plaintext bits under `weight_bits`-bit weights.
fn quant_for(layers: &[LinearLayer], weight_bits: u32, t_bits: u32) -> QuantSpec {
    let probe = QuantSpec {
        weight_bits,
        activation_bits: 0,
    };
    QuantSpec {
        activation_bits: t_bits - probe.statistical_plain_bits_network(layers),
        ..probe
    }
}

fn structures(layers: &[LinearLayer], weights: &Weights) -> Vec<LayerStructure> {
    let analyze = |(i, l)| LayerStructure::analyze(l, weights.layer(i));
    layers.iter().enumerate().map(analyze).collect()
}

/// Layer `k`'s input, as the level rule prices it: a fresh encryption for
/// the first layer, one with the previous round's `⌊t/2⌋` mask removed for
/// every later one — at whatever level the layer runs (fresh noise is
/// absolute).
fn round_input(params: &BfvParams, k: usize) -> NoiseEstimate {
    let fresh = NoiseEstimate::fresh(params);
    match k {
        0 => fresh,
        _ => fresh.add_plain(params.plain_modulus().value() / 2),
    }
}

/// The budget at `level` of the plan the engine's chooser picks for
/// `structure` (at level 0, as both `HomFc` / `HomConv2d` and the solver
/// choose), asked for its own `noise_after` an input of noise `input`,
/// every mask at `norm` — on the round's input and at `⌊t/2⌋`, what the
/// solver must have computed, to the bit.
fn plan_budget(
    layer: &LinearLayer,
    structure: &LayerStructure,
    params: &BfvParams,
    level: usize,
    input: &NoiseEstimate,
    norm: u64,
) -> f64 {
    let cost = HeCostParams::for_bfv(params, 0);
    let out = match (layer, structure) {
        (LinearLayer::Fc(_), LayerStructure::Fc(s)) => {
            FcPlan::choose(s, params.slots(), &cost).noise_after(input, params, level, norm)
        }
        (LinearLayer::Conv(c), LayerStructure::Conv(s)) => {
            ConvPlan::choose(c, params.row_size(), s, &cost).noise_after(input, params, level, norm)
        }
        _ => unreachable!("structure of another layer kind"),
    };
    out.budget_bits_statistical_at(params, level)
}

/// One network solved on its weights' own structures.
struct Case {
    what: String,
    net: Network,
    weights: Weights,
    structures: Vec<LayerStructure>,
    plan: ChainPlan,
}

impl Case {
    fn solve(what: &str, net: Network, weights: Weights, quant: &QuantSpec) -> Self {
        let layers = net.linear_layers();
        let structures = structures(&layers, &weights);
        let plan = solve_chain_plan_structured(&layers, Some(&structures), quant, &[4096])
            .unwrap_or_else(|e| panic!("{what}: {e:?}"));
        Self {
            what: what.to_owned(),
            net,
            weights,
            structures,
            plan,
        }
    }
}

/// The random closure networks: twelve seeded random nets and one layer
/// wide enough (1024 tiled diagonals: 2048 outputs, a copy of the input in
/// each row) that the single 54-bit limb has no budget for it, so its
/// solve lands on `hybrid_2x36`.
fn closure_cases() -> Vec<Case> {
    let mut rng = StdRng::seed_from_u64(0x00c1_050e);
    let mut cases: Vec<Case> = (0..12u64)
        .map(|case| {
            let net = random_net(&mut rng);
            let layers = net.linear_layers();
            // Weights at the requested bound (±1 under one bit) and below
            // it (±2 under the two bits that admit ±3); every third case
            // pruned.
            let (weight_bits, bound) = [(1, 1), (2, 2)][(case % 2) as usize];
            let mut weights = Weights::random(&net, bound, 900 + case);
            if case % 3 == 2 {
                weights.prune_to_sparsity(0.5, 950 + case);
            }
            // 17 bits only the digit chains carry; 16 every chain does.
            let t_bits = if case % 4 < 2 { 17 } else { 16 };
            let quant = quant_for(&layers, weight_bits, t_bits);
            Case::solve(&format!("case {case}"), net, weights, &quant)
        })
        .collect();
    let net = Network {
        name: "wide".into(),
        input_shape: vec![2048],
        layers: vec![Layer::fc("wide", 2048, 2048)],
    };
    let weights = Weights::random(&net, 1, 990);
    let quant = quant_for(&net.linear_layers(), 1, 16);
    cases.push(Case::solve("wide", net, weights, &quant));
    cases
}

/// A 17-bit request on one FC layer: `single_60` and `rns_3x36` both carry
/// it, the single limb is the cheaper by far, and the solver passes it
/// over on noise alone.
fn rejected_case() -> Case {
    let net = Network {
        name: "rejected".into(),
        input_shape: vec![256],
        layers: vec![Layer::fc("fc", 256, 64)],
    };
    let weights = Weights::random(&net, 1, 31);
    let quant = quant_for(&net.linear_layers(), 1, 17);
    Case::solve("rejected", net, weights, &quant)
}

/// Every closure property of one solved plan on one set of weights.
fn check_closure(case: &Case, seed: u64) {
    let Case {
        what,
        net,
        weights,
        structures,
        plan,
    } = case;
    let params = plan.params.clone();
    let prepared = PreparedModel::new(net, weights, params.clone()).expect(what);
    let input = random_input(&net.input_shape, 2, seed ^ 0x1295);
    let trace = infer(net, weights, &input);
    let half_t = (params.plain_modulus().value() / 2) as i64;
    let peak = trace.linear_out_magnitudes.iter().max().unwrap();
    assert!(*peak < half_t, "{what}: cleartext overflows t ({peak})");

    let mut session = PrivateInferenceSession::with_prepared(Arc::clone(&prepared), seed).unwrap();
    session.enable_noise_measurement();
    let (output, _) = session.run(&input).expect(what);
    assert_eq!(
        output.data(),
        trace.output.data(),
        "{what} on {}",
        plan.name
    );

    // A second key set to replay each prepared layer alone and count its
    // multiplies and rotations.
    let mut kg = KeyGenerator::from_seed(params.clone(), seed ^ 0x6b);
    let keys = kg.galois_keys_for_steps(prepared.required_steps()).unwrap();
    let mut enc = Encryptor::from_secret_key(kg.secret_key().clone(), seed ^ 0xe4c);
    let layers = net.linear_layers();
    let linear_at: Vec<usize> = (0..net.layers.len())
        .filter(|&j| net.layers[j].as_linear().is_some())
        .collect();

    for (k, (lp, report)) in plan.layers.iter().zip(session.layer_reports()).enumerate() {
        let what = format!("{what} layer {k} ({}) on {}", lp.layer, plan.name);
        // The solver's record and the prepared model's: one type, the
        // same plan at the same level.
        let round = prepared.round(k);
        assert_eq!(report.level, lp.level, "{what}: level");
        assert_eq!(report.plan, lp.plan, "{what}: label");
        assert_eq!(round.plan, lp.plan, "{what}: prepared label");
        assert_eq!(round.level, lp.level, "{what}: prepared level");
        assert_eq!(
            (&round.steps, round.he_mult, round.he_rotate, round.outputs),
            (&lp.steps, lp.he_mult, lp.he_rotate, lp.outputs),
            "{what}: prepared steps, multiplies, rotations, outputs"
        );

        let (layer, structure) = (&layers[k], &structures[k]);
        let assumed = round_input(&params, k);
        assert!(lp.budget_bits >= LEVEL_PLAN_MARGIN_BITS, "{what}: margin");
        // Same function, same inputs: equal to the bit.
        assert_eq!(
            lp.budget_bits,
            plan_budget(layer, structure, &params, lp.level, &assumed, half_t as u64),
            "{what}: solver budget vs the plan's own at ⌊t/2⌋"
        );
        // The chosen plan at the prepared masks' own norm is the prepared
        // layer's prediction, to the bit, on the same round input: the
        // solver and the engine differ in the norm charged and nothing else.
        let norm = round.mask_norm;
        let own = plan_budget(layer, structure, &params, lp.level, &assumed, norm);
        assert_eq!(
            round.budget_bits, own,
            "{what}: the prepared layer vs the plan at its masks' norm {norm}"
        );
        assert!(
            lp.budget_bits <= own,
            "{what}: solver budget {} above the prepared layer's {own}",
            lp.budget_bits
        );
        // A batch-encoded mask's coefficient norm is all but ⌊t/2⌋, the
        // norm the solver charges, so the two budgets nearly coincide: within
        // a twentieth of a bit. A mask whose rows repeat every few slots has
        // few distinct coefficients and may fall further under ⌊t/2⌋; only
        // the mask term scales with the norm, so the solver gives up at most
        // that gap's bits and nothing past it.
        let norm_gap = (half_t as f64 / norm as f64).log2();
        assert!(
            own - lp.budget_bits < 0.05 || own - lp.budget_bits <= norm_gap + 1e-9,
            "{what}: solver {} far under the prepared layer's {own} (masks' norm {norm})",
            lp.budget_bits
        );

        let measured = report.measured_noise_log2.expect("noise meter lent");
        assert!(
            report.predicted_bound_log2 >= report.tracked_bound_log2,
            "{what}: predicted {} < tracked {}",
            report.predicted_bound_log2,
            report.tracked_bound_log2
        );
        assert!(
            report.tracked_bound_log2 >= measured,
            "{what}: tracked {} < measured {measured}",
            report.tracked_bound_log2
        );

        let layer_input = match linear_at[k] {
            0 => &input,
            j => &trace.activations[j - 1],
        };
        let packed = prepared.pack(k, layer_input).unwrap();
        let ct = prepared
            .evaluator()
            .mod_switch_to(&enc.encrypt(&packed).unwrap(), lp.level)
            .unwrap();
        prepared.evaluator().reset_op_counts();
        prepared.apply(k, &ct, &keys).unwrap();
        let counts = prepared.evaluator().op_counts();
        assert_eq!(
            (lp.he_mult, lp.he_rotate),
            (counts.mul as f64, counts.rotate as f64),
            "{what}: planned vs measured (multiplies, rotations)"
        );
    }
}

#[test]
fn every_solved_plan_holds_on_the_prepared_engine() {
    let mut chains = BTreeSet::new();
    for (i, case) in closure_cases().iter().enumerate() {
        chains.insert(case.plan.name.clone());
        check_closure(case, 7000 + i as u64);
    }
    let expect = ["4096/hybrid_1x54", "4096/hybrid_2x36", "4096/rns_3x36"];
    assert_eq!(
        chains.iter().map(String::as_str).collect::<Vec<_>>(),
        expect
    );
}

/// The one level rule, closed: on every network this suite and the
/// chain-plan session solve, each on its weights' own structures, a model
/// prepared on the plan's `params` alone fixes every round the solver
/// planned — level, label, steps, shipped level and message bytes.
#[test]
fn a_model_prepared_on_a_solved_chain_holds_the_solved_records() {
    let tiny = |seed| {
        let (net, quant) = (tiny_cnn(), QuantSpec::default());
        let weights = Weights::random(&net, 2, seed);
        Case::solve(&format!("tiny_cnn {seed}"), net, weights, &quant)
    };
    let mut cases = closure_cases();
    cases.push(rejected_case());
    cases.extend([811, 424].map(tiny));
    let mut deep = 0;
    for case in &cases {
        let prepared =
            PreparedModel::new(&case.net, &case.weights, case.plan.params.clone()).unwrap();
        for (k, lp) in case.plan.layers.iter().enumerate() {
            let round = prepared.round(k);
            assert_eq!(
                (
                    round.level,
                    &round.plan,
                    &round.steps,
                    round.shipped_level,
                    round.upload_bytes,
                    round.download_bytes
                ),
                (
                    lp.level,
                    &lp.plan,
                    &lp.steps,
                    lp.shipped_level,
                    lp.upload_bytes,
                    lp.download_bytes
                ),
                "{} layer {k} on {}",
                case.what,
                case.plan.name
            );
            deep += usize::from(lp.level > 0);
        }
    }
    assert!(deep > 0, "no solved layer runs below level 0");
}

#[test]
fn a_chain_or_level_passed_over_on_noise_is_one_the_prepared_layer_rejects() {
    // No request is refused outright on noise at n = 4096: level 0 of
    // `rns_3x36` keeps 30 bits and more for any layer that fits a row.
    let Case {
        net, weights, plan, ..
    } = rejected_case();
    let lp = &plan.layers[0];
    let Some(LinearLayer::Fc(spec)) = net.layers[0].as_linear() else {
        unreachable!("an FC layer")
    };

    // Brute force over what the engine itself accepts: prepare the layer on
    // every chain whose t fits, and read the prepared kernel's own
    // prediction at every level, on the first layer's fresh input.
    let mut accepted: Vec<(f64, String, usize)> = Vec::new();
    let mut refused_on_noise = Vec::new();
    for (name, params) in chain_candidates(&[4096]) {
        if 64 - params.plain_modulus().value().leading_zeros() < 17 {
            continue;
        }
        let encoder = BatchEncoder::new(params.clone());
        let eval = Evaluator::new(params.clone());
        let layer = HomFc::new(spec, weights.layer(0), &encoder, &eval).unwrap();
        let kernel = layer.kernel();
        let fresh = round_input(&params, 0);
        let before = accepted.len();
        for level in 0..params.levels() {
            let out = kernel.noise_after(&fresh, &params, level);
            if out.budget_bits_statistical_at(&params, level) >= LEVEL_PLAN_MARGIN_BITS {
                let cost = HeCostParams::for_bfv(&params, level);
                accepted.push((kernel.plan().int_mults(&cost) as f64, name.clone(), level));
            }
        }
        if accepted.len() == before {
            refused_on_noise.push(name);
        }
    }
    let cheapest = accepted.into_iter().min_by(|a, b| a.0.total_cmp(&b.0));
    assert_eq!(refused_on_noise, ["4096/single_60"]);
    assert_eq!(
        cheapest,
        Some((lp.int_mults, plan.name.clone(), lp.level)),
        "the solver's pick is the cheapest (chain, level) the prepared layer accepts"
    );
}
