//! End-to-end HE-PTune v2: a solver-produced [`ChainPlan`] drives a
//! tiny-CNN private-inference session.
//!
//! The chain solver sweeps {chain, per-layer level, rotation plan} over
//! the network and emits concrete parameters plus per-layer levels;
//! [`PreparedModel::from_chain_plan`] turns that plan directly into a
//! servable model. These tests pin the whole path: the solved plan
//! prepares, runs, and decrypts bit-identically to the cleartext
//! reference, and the plan's levels genuinely cap the runtime level
//! planner.

use std::sync::Arc;

use cheetah_bfv::NoiseEstimate;
use cheetah_core::solver::{solve_chain_plan, ChainPlan};
use cheetah_core::QuantSpec;
use cheetah_nn::inference::{infer, random_input};
use cheetah_nn::models::tiny_cnn;
use cheetah_nn::Weights;
use cheetah_serve::{PreparedModel, PrivateInferenceSession};

fn tiny_cnn_plan() -> ChainPlan {
    let net = tiny_cnn();
    let layers = net.linear_layers();
    solve_chain_plan(&layers, &QuantSpec::default(), &[4096])
        .expect("tiny CNN must be solvable on the preset chains")
}

#[test]
fn solved_chain_plan_drives_a_session_end_to_end() {
    let net = tiny_cnn();
    let weights = Weights::random(&net, 2, 811);
    let input = random_input(&net.input_shape, 3, 812);
    let expect = infer(&net, &weights, &input).output;

    let plan = tiny_cnn_plan();
    assert_eq!(plan.layers.len(), net.linear_layers().len());

    let prepared = PreparedModel::from_chain_plan(&net, &weights, &plan).expect("prepare");
    for (k, lp) in plan.layers.iter().enumerate() {
        let round = prepared.round(k);
        assert_eq!(
            (&round.layer, round.level),
            (&lp.layer, lp.level),
            "the solver's levels must reach the prepared model"
        );
    }
    assert_eq!(prepared.params(), &plan.params);

    let mut session = PrivateInferenceSession::with_prepared(Arc::clone(&prepared), 77).unwrap();
    let (output, transcript) = session.run(&input).unwrap();
    assert_eq!(
        output.data(),
        expect.data(),
        "chain-plan session diverged from cleartext ({})",
        plan.name
    );
    assert!(transcript.total_bytes() > 0);

    // The solver priced the convolution as the engine runs it — hoisted
    // taps, multiplied after — so the level it planned is one the runtime
    // planner accepts as is, and the split it labelled is the prepared
    // one (the weights, which this dense solve never saw, drew one tap
    // zero in both filters).
    let conv = &session.layer_reports()[0];
    assert_eq!(conv.level, plan.layers[0].level, "planned conv level");
    assert_eq!(plan.layers[0].plan, "conv packed b=1 g=1 live=9/9 out=1");
    assert_eq!(conv.plan, "conv packed b=1 g=1 live=8/9 out=1");
}

#[test]
fn planned_levels_cap_the_runtime_level_planner() {
    let net = tiny_cnn();
    let weights = Weights::random(&net, 2, 831);
    let plan = tiny_cnn_plan();

    let capped = PreparedModel::from_chain_plan(&net, &weights, &plan).unwrap();
    let uncapped = PreparedModel::new(&net, &weights, plan.params.clone()).unwrap();

    let fresh = NoiseEstimate::fresh(&plan.params);
    let unmasked = fresh.add_plain(plan.params.plain_modulus().value() / 2);
    for (k, &planned) in plan.levels().iter().enumerate() {
        // Nothing caps a model prepared without a plan: each record runs
        // at its layer's own deepest safe level.
        let input = if k == 0 { &fresh } else { &unmasked };
        assert_eq!(uncapped.round(k).level, uncapped.plan_level(k, input));
        let runtime = uncapped.plan_level(k, &fresh);
        let got = capped.plan_level(k, &fresh);
        assert!(
            got <= planned,
            "layer {k}: capped level {got} exceeds plan {planned}"
        );
        assert_eq!(
            got,
            runtime.min(planned),
            "layer {k}: cap must be min(runtime {runtime}, planned {planned})"
        );
    }
}

#[test]
fn mismatched_plan_is_rejected_at_prepare_time() {
    // A plan solved for a different network must not silently prepare.
    let net = tiny_cnn();
    let weights = Weights::random(&net, 2, 841);
    let mut plan = tiny_cnn_plan();
    plan.layers.pop();
    let Err(err) = PreparedModel::from_chain_plan(&net, &weights, &plan) else {
        panic!("a plan with the wrong layer count must be rejected");
    };
    assert!(
        format!("{err}").contains("chain plan"),
        "unexpected error: {err}"
    );
}
