//! Solver closure: the chain solver and the engine are one model.
//!
//! The solver prices a layer by asking the plan the engine would prepare
//! (`FcPlan` / `ConvPlan::noise_after`, `feasible_levels`), so everything
//! it emits must hold on the prepared layer, not just on paper. Over
//! seeded random small networks — one to three linear layers mixing
//! convolutions and FC layers, dense and pruned, weights at and below the
//! requested bound, precision requests that steer the solve onto the
//! digit `rns_3x36`, the hybrid `hybrid_1x54` and (one wide layer)
//! `hybrid_2x36` — every emitted `ChainPlan` prepares through
//! `PreparedModel::from_chain_plan`, runs a `PrivateInferenceSession`
//! with the noise meter lent and decrypts to `cheetah_nn::infer`'s output,
//! and per layer: the solver's budget is, to the bit, the chosen plan's
//! `noise_after` at mask norm `⌊t/2⌋`, at most the prepared layer's own
//! `noise_after` budget and within a twentieth of a bit of it past what
//! the prepared masks' own norm explains — at that norm the chosen plan's
//! budget is the prepared layer's, to the bit — predicted ≥ tracked
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

use cheetah_bfv::{BfvParams, Encryptor, KeyGenerator, NoiseEstimate};
use cheetah_core::linear::{ConvPlan, FcPlan, LEVEL_PLAN_MARGIN_BITS};
use cheetah_core::solver::{chain_candidates, solve_chain_plan_structured, ChainPlan, LayerPlan};
use cheetah_core::{HeCostParams, LayerStructure, QuantSpec};
use cheetah_nn::inference::{infer, random_input};
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

/// A layer's input at `level`, as the level rule prices it: a fresh
/// encryption made at that level, whose noise is the same at every level.
fn fresh_at(params: &BfvParams, _level: usize) -> NoiseEstimate {
    NoiseEstimate::fresh(params)
}

/// The budget of the plan the engine's chooser picks for `structure` at
/// `level`, asked for its own `noise_after` a fresh encryption made at
/// that level, every mask at `norm` — at `⌊t/2⌋`, what the solver must
/// have computed, to the bit.
fn plan_budget(
    layer: &LinearLayer,
    structure: &LayerStructure,
    params: &BfvParams,
    level: usize,
    norm: u64,
) -> f64 {
    let cost = HeCostParams::for_bfv(params, level);
    let input = fresh_at(params, level);
    let out = match (layer, structure) {
        (LinearLayer::Fc(_), LayerStructure::Fc(s)) => {
            FcPlan::choose(s, params.slots(), &cost).noise_after(&input, params, level, norm)
        }
        (LinearLayer::Conv(c), LayerStructure::Conv(s)) => {
            ConvPlan::choose(c, params.row_size(), s, &cost)
                .noise_after(&input, params, level, norm)
        }
        _ => unreachable!("structure of another layer kind"),
    };
    out.budget_bits_statistical_at(params, level)
}

/// The budget the prepared layer `k` itself predicts at `level`.
fn prepared_budget(prepared: &PreparedModel, k: usize, level: usize) -> f64 {
    let params = prepared.params();
    prepared
        .noise_after(k, &fresh_at(params, level), level)
        .budget_bits_statistical_at(params, level)
}

/// Every closure property of one solved plan on one set of weights.
fn check_closure(
    what: &str,
    net: &Network,
    weights: &Weights,
    structures: &[LayerStructure],
    plan: &ChainPlan,
    seed: u64,
) {
    let prepared = PreparedModel::from_chain_plan(net, weights, plan).expect(what);
    let params = plan.params.clone();
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
        assert_eq!(report.level, lp.level, "{what}: level");
        assert_eq!(report.plan, lp.plan, "{what}: label");
        assert_eq!(prepared.plan_label(k), lp.plan, "{what}: prepared label");

        let own = prepared_budget(&prepared, k, lp.level);
        let (layer, structure) = (&layers[k], &structures[k]);
        assert!(lp.budget_bits >= LEVEL_PLAN_MARGIN_BITS, "{what}: margin");
        // Same function, same inputs: equal to the bit.
        assert_eq!(
            lp.budget_bits,
            plan_budget(layer, structure, &params, lp.level, half_t as u64),
            "{what}: solver budget vs the plan's own at ⌊t/2⌋"
        );
        assert!(
            lp.budget_bits <= own,
            "{what}: solver budget {} above the prepared layer's {own}",
            lp.budget_bits
        );
        // The chosen plan at the prepared masks' own norm is the prepared
        // layer's prediction, to the bit: the solver and the engine differ
        // in the norm charged and nothing else.
        let norm = prepared.mask_norm(k);
        assert_eq!(
            own,
            plan_budget(layer, structure, &params, lp.level, norm),
            "{what}: the prepared layer vs the plan at its masks' norm {norm}"
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
    let mut rng = StdRng::seed_from_u64(0x00c1_050e);
    let mut chains = BTreeSet::new();
    for case in 0..12u64 {
        let net = random_net(&mut rng);
        let layers = net.linear_layers();
        // Weights at the requested bound (±1 under one bit) and below it
        // (±2 under the two bits that admit ±3); every third case pruned.
        let (weight_bits, bound) = [(1, 1), (2, 2)][(case % 2) as usize];
        let mut weights = Weights::random(&net, bound, 900 + case);
        if case % 3 == 2 {
            weights.prune_to_sparsity(0.5, 950 + case);
        }
        // 17 bits only the digit chains carry; 16 every chain does.
        let t_bits = if case % 4 < 2 { 17 } else { 16 };
        let quant = quant_for(&layers, weight_bits, t_bits);
        let structures = structures(&layers, &weights);
        let plan = solve_chain_plan_structured(&layers, Some(&structures), &quant, &[4096])
            .unwrap_or_else(|e| panic!("case {case}: {e:?}"));
        chains.insert(plan.name.clone());
        check_closure(
            &format!("case {case}"),
            &net,
            &weights,
            &structures,
            &plan,
            7000 + case,
        );
    }

    // One layer wide enough (1024 tiled diagonals: 2048 outputs, a copy of
    // the input in each row) that the single 54-bit limb has no budget for
    // it: the solve lands on hybrid_2x36.
    let net = Network {
        name: "wide".into(),
        input_shape: vec![2048],
        layers: vec![Layer::fc("wide", 2048, 2048)],
    };
    let layers = net.linear_layers();
    let weights = Weights::random(&net, 1, 990);
    let quant = quant_for(&layers, 1, 16);
    let structures = structures(&layers, &weights);
    let plan = solve_chain_plan_structured(&layers, Some(&structures), &quant, &[4096]).unwrap();
    chains.insert(plan.name.clone());
    check_closure("wide", &net, &weights, &structures, &plan, 7100);

    let expect = ["4096/hybrid_1x54", "4096/hybrid_2x36", "4096/rns_3x36"];
    assert_eq!(
        chains.iter().map(String::as_str).collect::<Vec<_>>(),
        expect
    );
}

#[test]
fn a_chain_or_level_passed_over_on_noise_is_one_the_prepared_layer_rejects() {
    // A 17-bit request: `single_60` and `rns_3x36` both carry it, the
    // single limb is the cheaper by far, and the solver passes it over on
    // noise alone. (No request is refused outright on noise at n = 4096:
    // level 0 of `rns_3x36` keeps 30 bits and more for any layer that
    // fits a row.)
    let net = Network {
        name: "rejected".into(),
        input_shape: vec![256],
        layers: vec![Layer::fc("fc", 256, 64)],
    };
    let layers = net.linear_layers();
    let weights = Weights::random(&net, 1, 31);
    let quant = quant_for(&layers, 1, 17);
    let structures = structures(&layers, &weights);
    let plan = solve_chain_plan_structured(&layers, Some(&structures), &quant, &[4096]).unwrap();
    let lp = &plan.layers[0];

    // Brute force over what the engine itself accepts: prepare the layer on
    // every chain whose t fits, at every level, and read its own budget.
    let LayerStructure::Fc(structure) = &structures[0] else {
        unreachable!("an FC layer")
    };
    let mut accepted: Vec<(f64, String, usize)> = Vec::new();
    let mut refused_on_noise = Vec::new();
    for (name, params) in chain_candidates(&[4096]) {
        if 64 - params.plain_modulus().value().leading_zeros() < 17 {
            continue;
        }
        let before = accepted.len();
        for level in 0..params.levels() {
            let at_level = ChainPlan {
                name: name.clone(),
                params: params.clone(),
                layers: vec![LayerPlan {
                    level,
                    ..lp.clone()
                }],
                total_int_mults: 0.0,
            };
            let prepared = PreparedModel::from_chain_plan(&net, &weights, &at_level).unwrap();
            if prepared_budget(&prepared, 0, level) >= LEVEL_PLAN_MARGIN_BITS {
                let cost = HeCostParams::for_bfv(&params, level);
                let plan = FcPlan::choose(structure, params.slots(), &cost);
                accepted.push((plan.int_mults(&cost) as f64, name.clone(), level));
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
