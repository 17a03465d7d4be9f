//! Parallel-vs-serial equivalence for the homomorphic linear layers:
//! `apply(…, N)` must decrypt to exactly the tensor that `apply(…, 1)`
//! (the serial path) produces — for the conv kernel's auto plan and a
//! wider baby step, and for the FC kernel's auto plan, both
//! diagonal-method corners and a tiled split.
//! Residue arithmetic mod `q` is exact, so the chunked accumulation order
//! cannot change the decrypted result — these tests pin that down on the
//! real engine.

use cheetah_bfv::{BatchEncoder, BfvParams, Decryptor, Encryptor, Evaluator, KeyGenerator};
use cheetah_core::linear::{HomConv2d, HomFc};
use cheetah_core::FcStructure;
use cheetah_nn::{ConvSpec, FcSpec, Tensor};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

struct Ctx {
    encoder: BatchEncoder,
    enc: Encryptor,
    dec: Decryptor,
    eval: Evaluator,
    kg: KeyGenerator,
}

fn ctx(seed: u64) -> Ctx {
    let params = BfvParams::builder()
        .degree(4096)
        .plain_bits(16)
        .cipher_bits(60)
        .a_dcmp(1 << 6)
        .build()
        .unwrap();
    let mut kg = KeyGenerator::from_seed(params.clone(), seed);
    let pk = kg.public_key().unwrap();
    Ctx {
        encoder: BatchEncoder::new(params.clone()),
        enc: Encryptor::from_public_key(pk, seed ^ 1),
        dec: Decryptor::new(kg.secret_key().clone()),
        eval: Evaluator::new(params),
        kg,
    }
}

fn conv_spec(w: usize, fw: usize, ci: usize, co: usize) -> ConvSpec {
    ConvSpec {
        name: "par-test".into(),
        w,
        fw,
        ci,
        co,
        stride: 1,
        pad: fw / 2,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn conv_parallel_decrypts_identically(seed in any::<u64>(), threads in 2usize..6) {
        // Four channel diagonals, two output ciphertexts: up to eight
        // giant groups for the workers to share.
        let spec = conv_spec(16, 3, 4, 10);
        let mut c = ctx(seed % 1000 + 1);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let weights = Tensor::from_data(
            &[spec.co, spec.ci, spec.fw, spec.fw],
            (0..spec.co * spec.ci * spec.fw * spec.fw)
                .map(|_| rng.random_range(-4..=4))
                .collect(),
        );
        let input = Tensor::from_data(
            &[spec.ci, spec.w, spec.w],
            (0..spec.ci * spec.w * spec.w)
                .map(|_| rng.random_range(-8..=8))
                .collect(),
        );

        for (what, layer) in [
            ("auto", HomConv2d::new(&spec, &weights, &c.encoder, &c.eval).unwrap()),
            ("b=2", HomConv2d::with_baby_width(&spec, &weights, &c.encoder, &c.eval, 2).unwrap()),
        ] {
            let keys = c.kg.galois_keys_for_steps(&layer.rotation_steps()).unwrap();
            let ct = c
                .enc
                .encrypt(&HomConv2d::encode_input(&spec, &input, &c.encoder).unwrap())
                .unwrap();
            c.eval.reset_op_counts();
            let serial = layer.apply(&ct, &c.eval, &keys, 1).unwrap();
            let serial_counts = c.eval.op_counts();
            c.eval.reset_op_counts();
            let parallel = layer.apply(&ct, &c.eval, &keys, threads).unwrap();
            // Each inner sum is one worker's, the Horner chains run after
            // the join: not even the add count depends on the chunking.
            prop_assert_eq!(serial_counts, c.eval.op_counts(), "{} at {} threads", what, threads);
            prop_assert_eq!(serial.len(), 2);
            prop_assert_eq!(serial.len(), parallel.len());
            for (q, (s, p)) in serial.iter().zip(&parallel).enumerate() {
                let ds = c.encoder.decode_signed(&c.dec.decrypt(s).unwrap());
                let dp = c.encoder.decode_signed(&c.dec.decrypt(p).unwrap());
                prop_assert_eq!(&ds, &dp, "{} ciphertext {} differs at {} threads", what, q, threads);
                // Residues themselves must match: chunked accumulation is
                // exact mod q, not just up to decryption.
                prop_assert_eq!(s.c0().data(), p.c0().data());
                prop_assert_eq!(s.c1().data(), p.c1().data());
            }
        }
    }

    #[test]
    fn fc_parallel_decrypts_identically(seed in any::<u64>(), threads in 2usize..6) {
        let spec = FcSpec { name: "fc-par".into(), ni: 16, no: 8 };
        let mut c = ctx(seed % 1000 + 1);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let weights = Tensor::from_data(
            &[spec.no, spec.ni],
            (0..spec.no * spec.ni).map(|_| rng.random_range(-5..=5)).collect(),
        );
        let input = Tensor::from_data(
            &[spec.ni],
            (0..spec.ni).map(|_| rng.random_range(-9..=9)).collect(),
        );

        let dense = FcStructure::dense(spec.no, spec.ni);
        let forced = |baby, tiles| {
            HomFc::with_forced_plan(&spec, &weights, &c.encoder, &c.eval, &dense, baby, tiles)
                .unwrap()
        };
        for (what, layer) in [
            ("auto", HomFc::new(&spec, &weights, &c.encoder, &c.eval).unwrap()),
            ("b=1", forced(1, 1)),
            ("b=d", forced(spec.no, 1)),
            // δ = 4 tiled diagonals in two groups: two workers' worth.
            ("tiles=2 b=2", forced(2, 2)),
        ] {
            let keys = c.kg.galois_keys_for_steps(&layer.rotation_steps()).unwrap();
            let ct = c
                .enc
                .encrypt(&layer.encode_input(&input, &c.encoder).unwrap())
                .unwrap();
            let serial = layer.apply(&ct, &c.eval, &keys, 1).unwrap();
            let parallel = layer.apply(&ct, &c.eval, &keys, threads).unwrap();
            let ds = c.encoder.decode_signed(&c.dec.decrypt(&serial).unwrap());
            let dp = c.encoder.decode_signed(&c.dec.decrypt(&parallel).unwrap());
            prop_assert_eq!(
                layer.decode_output(&ds).data(),
                layer.decode_output(&dp).data(),
                "{} differs", what
            );
            prop_assert_eq!(serial.c0().data(), parallel.c0().data());
            prop_assert_eq!(serial.c1().data(), parallel.c1().data());
        }
    }
}

/// Exact op-count accounting must survive multi-threaded evaluation: the
/// atomic counters see every kernel exactly once regardless of interleaving.
#[test]
fn op_counts_exact_across_threads() {
    // An input as wide as the row: nothing to tile, so the kernel keeps all
    // 16 diagonals and splits them into more than one giant group.
    let spec = FcSpec {
        name: "fc-counts".into(),
        ni: 2048,
        no: 16,
    };
    let mut c = ctx(77);
    let weights = Tensor::from_data(&[spec.no, spec.ni], vec![1; spec.no * spec.ni]);
    let input = Tensor::from_data(&[spec.ni], (0..spec.ni as i64).collect());
    let layer = HomFc::new(&spec, &weights, &c.encoder, &c.eval).unwrap();
    let keys = c.kg.galois_keys_for_steps(&layer.rotation_steps()).unwrap();
    let ct = c
        .enc
        .encrypt(&layer.encode_input(&input, &c.encoder).unwrap())
        .unwrap();

    c.eval.reset_op_counts();
    let _ = layer.apply(&ct, &c.eval, &keys, 1).unwrap();
    let serial = c.eval.op_counts();

    c.eval.reset_op_counts();
    let _ = layer.apply(&ct, &c.eval, &keys, 4).unwrap();
    let parallel = c.eval.op_counts();

    // The parallel work range is the plan's live giant-step groups; each
    // group sum (and its rotation home) is one worker's, and the sums are
    // added up after the join, in plan order: rotations, multiplications,
    // NTTs, pointwise products and — as for the convolution above — the add
    // count are all independent of the chunking.
    let work_items = layer.fc_plan().groups().count();
    assert!(
        work_items > 1,
        "{}: nothing to share out",
        layer.fc_plan().label()
    );
    assert_eq!(serial, parallel);
}

/// Foreign-parameter inputs must be rejected before the copy-based hot
/// path touches them (the copy would otherwise run arithmetic mod the
/// wrong `q` and return garbage with `Ok`).
#[test]
fn foreign_parameter_input_is_rejected() {
    let spec = FcSpec {
        name: "fc-foreign".into(),
        ni: 8,
        no: 4,
    };
    let mut c = ctx(13);
    let weights = Tensor::from_data(&[spec.no, spec.ni], vec![1; spec.no * spec.ni]);
    let layer = HomFc::new(&spec, &weights, &c.encoder, &c.eval).unwrap();
    let keys = c.kg.galois_keys_for_steps(&layer.rotation_steps()).unwrap();

    // Same degree, different cipher modulus -> foreign parameter set.
    let foreign = BfvParams::builder()
        .degree(4096)
        .plain_bits(16)
        .cipher_bits(59)
        .build()
        .unwrap();
    let mut fkg = KeyGenerator::from_seed(foreign.clone(), 14);
    let fpk = fkg.public_key().unwrap();
    let mut fenc = Encryptor::from_public_key(fpk, 15);
    let fencoder = BatchEncoder::new(foreign);
    let input = Tensor::from_data(&[spec.ni], (0..spec.ni as i64).collect());
    let foreign_ct = fenc
        .encrypt(&layer.encode_input(&input, &fencoder).unwrap())
        .unwrap();

    for threads in [1, 4] {
        assert!(
            layer.apply(&foreign_ct, &c.eval, &keys, threads).is_err(),
            "foreign ciphertext accepted at {threads} threads"
        );
    }
}
