//! The engine against HE-PTune's Table IV operator model: the tests that
//! read both tiers, so they live in the tier that depends on both.
//!
//! * a packed convolution's measured multiplies are Table IV's count
//!   times the idle-block factor, its rotations under the same multiple;
//! * a dense FC layer's masks are Table IV's `n_i·n_o / n` multiplies, and
//!   one when that is below one.

use cheetah_bfv::{
    BatchEncoder, BfvParams, Ciphertext, Decryptor, Encryptor, Evaluator, KeyGenerator, OpCounts,
};
use cheetah_core::linear::{FcPlan, HomConv2d};
use cheetah_core::{FcStructure, HeCostParams, Schedule};
use cheetah_nn::{ConvSpec, FcSpec, Tensor};
use cheetah_paper::ptune::perf::{conv_ops, fc_ops};
use rand::{Rng, SeedableRng};

fn conv_spec(w: usize, fw: usize, ci: usize, co: usize) -> ConvSpec {
    ConvSpec {
        name: "test".into(),
        w,
        fw,
        ci,
        co,
        stride: 1,
        pad: fw / 2,
    }
}

struct Ctx {
    encoder: BatchEncoder,
    enc: Encryptor,
    dec: Decryptor,
    eval: Evaluator,
    kg: KeyGenerator,
}

fn ctx() -> Ctx {
    let params = BfvParams::builder()
        .degree(4096)
        .plain_bits(16)
        .moduli_bits(&[60])
        .a_dcmp(1 << 6)
        .build()
        .unwrap();
    let mut kg = KeyGenerator::from_seed(params.clone(), 41);
    let pk = kg.public_key().unwrap();
    Ctx {
        encoder: BatchEncoder::new(params.clone()),
        enc: Encryptor::from_public_key(pk, 42),
        dec: Decryptor::new(kg.secret_key().clone()),
        eval: Evaluator::new(params),
        kg,
    }
}

fn random_weights(spec: &ConvSpec, seed: u64) -> Tensor {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let len = spec.co * spec.ci * spec.fw * spec.fw;
    Tensor::from_data(
        &[spec.co, spec.ci, spec.fw, spec.fw],
        (0..len).map(|_| rng.random_range(-4..=4)).collect(),
    )
}

fn random_input(spec: &ConvSpec, seed: u64) -> Tensor {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Tensor::from_data(
        &[spec.ci, spec.w, spec.w],
        (0..spec.ci * spec.w * spec.w)
            .map(|_| rng.random_range(-8..=8))
            .collect(),
    )
}

fn encrypt(c: &mut Ctx, spec: &ConvSpec, input: &Tensor) -> Ciphertext {
    c.enc
        .encrypt(&HomConv2d::encode_input(spec, input, &c.encoder).unwrap())
        .unwrap()
}

/// Applies `layer` under keys for exactly its own steps and returns the
/// op counts; every output must still decrypt.
fn run(c: &mut Ctx, layer: &HomConv2d, ct: &Ciphertext) -> OpCounts {
    let keys = c.kg.galois_keys_for_steps(&layer.rotation_steps()).unwrap();
    c.eval.reset_op_counts();
    let outputs = layer
        .apply_with_scratch(ct, &c.eval, &keys, &mut c.eval.new_scratch())
        .unwrap();
    let counts = c.eval.op_counts();
    assert_eq!(outputs.len(), layer.conv_plan().outputs());
    for out in &outputs {
        let budget = c.dec.invariant_noise_budget(out).unwrap();
        assert!(budget > 0.0, "budget exhausted ({budget:.1})");
    }
    counts
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
        name: "fc".into(),
        ni,
        no,
    }
}

#[test]
fn op_counts_within_factor_of_table_iv_model() {
    // Table IV packs c_n = row/w² channels a ciphertext and bills
    // c_i·c_o·f_w²/c_n multiplies. The packed kernel multiplies once
    // per (d, tap) mask — c_i'·f_w² — which is Table IV's count at
    // c_o = c_n and above it by exactly the idle-block factor c_n/c_o
    // when the outputs leave blocks of the row empty (here 32 blocks,
    // 2 outputs: 16). Rotations come in under the same multiple of the
    // model: f_w² − 1 replays plus c_i' − 1 Horner steps, not one per
    // multiply.
    let s = conv_spec(8, 3, 4, 2);
    let mut c = ctx();
    let weights = random_weights(&s, 5);
    let ct = encrypt(&mut c, &s, &random_input(&s, 6));
    let layer = HomConv2d::new(&s, &weights, &c.encoder, &c.eval).unwrap();
    let plan = layer.conv_plan();
    assert_eq!((plan.b, plan.g, plan.per_ct), (1, 4, 32));
    let counts = run(&mut c, &layer, &ct);
    assert_eq!((counts.mul, counts.rotate), (36, 8 + 3));

    let cost = HeCostParams::for_bfv(c.eval.params(), 0);
    let model = conv_ops(&s, cost.n / 2, 1, Schedule::PartialAligned);
    let idle = (plan.per_ct / s.co) as f64;
    assert_eq!(counts.mul as f64, model.he_mult * idle, "multiplies");
    assert!((counts.rotate as f64) < model.he_rotate * idle);
    // One hoist for all f_w² taps, then one direct rotation per
    // Horner step — the uncorrected per-rotation accounting would
    // have charged every rotation a full decomposition.
    assert_eq!(counts.ntt, (1 + 3) * cost.ntts_per_rotate());
    assert!(counts.ntt < counts.rotate * cost.ntts_per_rotate());
}

/// The engine's dense FC plan against the paper tier: once the padded
/// layer fills a ciphertext (`n_i'·n_o' ≥ n`) the copies of the input
/// fill both batching rows, and the chooser's live masks are Table IV's
/// `n_i·n_o / n` multiplies (`ptune::perf::fc_ops`); below that
/// the layer tiles down to one mask. Every power-of-two shape that fits a
/// row at `n = 4096`, on both presets, with the benchmark's two big layers
/// as numbers.
#[test]
fn dense_masks_are_table_iv_multiplies() {
    for hybrid in [false, true] {
        let params = preset(hybrid);
        let n = params.slots();
        let cost = HeCostParams::for_bfv(&params, 0);
        let masks = |ni: usize, no: usize| {
            FcPlan::choose(&FcStructure::dense(no, ni), n, &cost).live_masks()
        };
        assert_eq!(masks(1024, 256), 64);
        assert_eq!(masks(256, 64), 4);
        for ni in (0..).map(|e| 1usize << e).take_while(|&ni| ni <= n / 2) {
            for no in (0..).map(|e| 1usize << e).take_while(|&no| no <= ni) {
                let table_iv = fc_ops(&spec(ni, no), n, 1, Schedule::PartialAligned);
                let engine = masks(ni, no);
                if ni * no >= n {
                    assert_eq!(engine as f64, table_iv.he_mult, "({ni}, {no})");
                } else {
                    assert_eq!(engine, 1, "({ni}, {no})");
                }
            }
        }
    }
}
