//! Leases come back on every path: an evaluation that fails half-way — a
//! Galois-key set missing one *giant* step, so the baby set, the hoist
//! store and the group sums are all out when the error surfaces — leaves
//! the caller's `Scratch` pool exactly as large as a successful one does,
//! and the next apply on that scratch is bit-equal to one on a fresh
//! scratch. Both layer kinds (both combine modes).
//!
//! The same entry point refuses a ciphertext of a foreign parameter set
//! before it leases anything.

use cheetah_bfv::{
    BatchEncoder, BfvParams, Ciphertext, Encryptor, Error, Evaluator, GaloisKeys, KeyGenerator,
    Result, Scratch,
};
use cheetah_core::linear::{HomConv2d, HomFc};
use cheetah_core::FcStructure;
use cheetah_nn::{ConvSpec, FcSpec, Tensor};

struct Ctx {
    encoder: BatchEncoder,
    enc: Encryptor,
    eval: Evaluator,
    kg: KeyGenerator,
}

fn ctx() -> Ctx {
    let params = BfvParams::preset_rns_3x36(4096).unwrap();
    let kg = KeyGenerator::from_seed(params.clone(), 5);
    Ctx {
        encoder: BatchEncoder::new(params.clone()),
        enc: Encryptor::from_secret_key(kg.secret_key().clone(), 6),
        eval: Evaluator::new(params),
        kg,
    }
}

/// `apply(keys, scratch)` under the layer's own `steps`, whose last entry
/// is a giant step.
fn check_leases(
    c: &mut Ctx,
    steps: &[i64],
    apply: impl Fn(&GaloisKeys, &mut Scratch) -> Result<Vec<Ciphertext>>,
) {
    let (giant, babies) = steps.split_last().expect("the layer rotates");
    let full = c.kg.galois_keys_for_steps(steps).unwrap();
    let lean = c.kg.galois_keys_for_steps(babies).unwrap();
    let reference = apply(&full, &mut c.eval.new_scratch()).unwrap();
    let mut scratch = c.eval.new_scratch();
    apply(&full, &mut scratch).unwrap();
    let pooled = scratch.pooled();
    assert!(pooled > 0, "the layer leases nothing");

    let refused = apply(&lean, &mut scratch);
    assert!(
        matches!(refused, Err(Error::MissingGaloisKey { step: Some(s), .. }) if s == *giant),
        "the missing giant step {giant} was not refused"
    );
    assert_eq!(scratch.pooled(), pooled, "a lease was dropped");

    let again = apply(&full, &mut scratch).unwrap();
    assert_eq!(scratch.pooled(), pooled);
    assert_eq!(again.len(), reference.len());
    for (a, b) in again.iter().zip(&reference) {
        assert_eq!(a.c0().data(), b.c0().data());
        assert_eq!(a.c1().data(), b.c1().data());
        assert_eq!(a.noise(), b.noise());
    }
}

/// 16 untiled diagonals in four giant groups of four: three Horner links
/// on the one giant key. The layer and its input.
fn fc_layer(c: &Ctx) -> (HomFc, Tensor) {
    let spec = FcSpec {
        name: "fc-leases".into(),
        ni: 64,
        no: 16,
    };
    let data = (0..spec.no * spec.ni).map(|i| (i % 7) as i64 - 3);
    let weights = Tensor::from_data(&[spec.no, spec.ni], data.collect());
    let dense = FcStructure::dense(spec.no, spec.ni);
    let layer =
        HomFc::with_forced_plan(&spec, &weights, &c.encoder, &c.eval, &dense, 4, 1).unwrap();
    assert_eq!(
        layer.fc_plan().giant_rotations(),
        3,
        "{}",
        layer.fc_plan().label()
    );
    let input = Tensor::from_data(&[spec.ni], (0..spec.ni as i64).map(|i| i % 5).collect());
    (layer, input)
}

/// Four channel diagonals at b = 1: three Horner links on the one giant
/// key, behind eight tap replays. The layer, its shape and its input.
fn conv_layer(c: &Ctx) -> (HomConv2d, ConvSpec, Tensor) {
    let spec = ConvSpec {
        name: "conv-leases".into(),
        w: 8,
        fw: 3,
        ci: 4,
        co: 2,
        stride: 1,
        pad: 1,
    };
    let len = spec.co * spec.ci * spec.fw * spec.fw;
    let weights = Tensor::from_data(
        &[spec.co, spec.ci, spec.fw, spec.fw],
        (0..len).map(|i| (i % 5) as i64 - 2).collect(),
    );
    let layer = HomConv2d::new(&spec, &weights, &c.encoder, &c.eval).unwrap();
    assert!(
        layer.conv_plan().giant_rotations() > 1,
        "{}",
        layer.conv_plan().label()
    );
    let pixels = spec.ci * spec.w * spec.w;
    let input = Tensor::from_data(
        &[spec.ci, spec.w, spec.w],
        (0..pixels).map(|i| (i % 7) as i64 - 3).collect(),
    );
    (layer, spec, input)
}

#[test]
fn a_failed_fc_apply_returns_every_lease() {
    let mut c = ctx();
    let (layer, input) = fc_layer(&c);
    let ct = c
        .enc
        .encrypt(&layer.encode_input(&input, &c.encoder).unwrap())
        .unwrap();
    let eval = Evaluator::new(c.eval.params().clone());
    check_leases(&mut c, &layer.rotation_steps(), |keys, scratch| {
        Ok(vec![layer.apply_with_scratch(&ct, &eval, keys, scratch)?])
    });
}

#[test]
fn a_failed_conv_apply_returns_every_lease() {
    let mut c = ctx();
    let (layer, spec, input) = conv_layer(&c);
    let ct = c
        .enc
        .encrypt(&HomConv2d::encode_input(&spec, &input, &c.encoder).unwrap())
        .unwrap();
    let eval = Evaluator::new(c.eval.params().clone());
    check_leases(&mut c, &layer.rotation_steps(), |keys, scratch| {
        layer.apply_with_scratch(&ct, &eval, keys, scratch)
    });
}

/// A ciphertext of another parameter set is refused before the kernel
/// leases anything: the hot path would otherwise read its residues mod
/// the wrong chain.
#[test]
fn foreign_parameter_input_is_rejected() {
    let mut c = ctx();
    // Same degree, another chain.
    let foreign = BfvParams::preset_hybrid_2x36(4096).unwrap();
    let fkg = KeyGenerator::from_seed(foreign.clone(), 14);
    let mut fenc = Encryptor::from_secret_key(fkg.secret_key().clone(), 15);
    let fencoder = BatchEncoder::new(foreign);
    let mut scratch = c.eval.new_scratch();

    let (fc, input) = fc_layer(&c);
    let keys = c.kg.galois_keys_for_steps(&fc.rotation_steps()).unwrap();
    let ct = fenc
        .encrypt(&fc.encode_input(&input, &fencoder).unwrap())
        .unwrap();
    let refused = fc.apply_with_scratch(&ct, &c.eval, &keys, &mut scratch);
    assert!(
        matches!(refused, Err(Error::ParameterMismatch)),
        "FC: {refused:?}"
    );

    let (conv, spec, input) = conv_layer(&c);
    let keys = c.kg.galois_keys_for_steps(&conv.rotation_steps()).unwrap();
    let ct = fenc
        .encrypt(&HomConv2d::encode_input(&spec, &input, &fencoder).unwrap())
        .unwrap();
    let refused = conv.apply_with_scratch(&ct, &c.eval, &keys, &mut scratch);
    assert!(
        matches!(refused, Err(Error::ParameterMismatch)),
        "conv: {refused:?}"
    );

    assert_eq!(scratch.pooled(), 0, "a refused input leased scratch");
}
