//! BSGS ↔ diagonal-method equivalence, pinned on the one FC kernel:
//!
//! * any forced baby width decrypts identically to the kernel's two
//!   diagonal-method corners — `b = 1` (Sched-PA's order) and `b = d`
//!   (hoisted Sched-IA) — across random dims (non-square, ragged last
//!   group, widths past `d`) and to the cleartext `W·x`;
//! * the equivalence holds at **every reachable level** of a deep chain
//!   (every level the statistical planner would run the layer at);
//! * the BSGS rotation structure is what the plan promises: `b + g − 2`
//!   rotations, `g` hoist-priced NTT bills — `O(√d)` plane transforms
//!   against the diagonal method's `O(d)`.

use cheetah_bfv::{
    BatchEncoder, BfvParams, Decryptor, Encryptor, Evaluator, GaloisKeys, KeyGenerator,
};
use cheetah_core::linear::HomFc;
use cheetah_core::FcStructure;
use cheetah_nn::inference::eval_linear;
use cheetah_nn::{FcSpec, LinearLayer, Tensor};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

struct Ctx {
    params: BfvParams,
    encoder: BatchEncoder,
    enc: Encryptor,
    dec: Decryptor,
    eval: Evaluator,
    keys: GaloisKeys,
}

fn ctx(params: BfvParams, max_ni: usize, seed: u64) -> Ctx {
    let mut kg = KeyGenerator::from_seed(params.clone(), seed);
    let pk = kg.public_key().unwrap();
    let steps: Vec<i64> = (1..max_ni as i64).collect();
    let keys = kg.galois_keys_for_steps(&steps).unwrap();
    Ctx {
        params: params.clone(),
        encoder: BatchEncoder::new(params.clone()),
        enc: Encryptor::from_public_key(pk, seed ^ 0x5eed),
        dec: Decryptor::new(kg.secret_key().clone()),
        eval: Evaluator::new(params),
        keys,
    }
}

fn flat_params() -> BfvParams {
    BfvParams::builder()
        .degree(4096)
        .plain_bits(16)
        .cipher_bits(60)
        .a_dcmp(1 << 6)
        .build()
        .unwrap()
}

/// A 3-limb chain deep enough that FC layers are statistically safe at
/// level 1 (level 2's single 36-bit limb is not).
fn deep_params() -> BfvParams {
    BfvParams::builder()
        .degree(4096)
        .plain_bits(17)
        .moduli_bits(&[36, 36, 36])
        .a_dcmp(1 << 6)
        .build()
        .unwrap()
}

fn spec(ni: usize, no: usize) -> FcSpec {
    FcSpec {
        name: "fc-bsgs".into(),
        ni,
        no,
    }
}

fn random_layer(s: &FcSpec, seed: u64) -> (Tensor, Tensor) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let weights = Tensor::from_data(
        &[s.no, s.ni],
        (0..s.no * s.ni).map(|_| rng.random_range(-5..=5)).collect(),
    );
    let input = Tensor::from_data(
        &[s.ni],
        (0..s.ni).map(|_| rng.random_range(-9..=9)).collect(),
    );
    (weights, input)
}

/// The layer with every diagonal given a mask, under baby width `baby`.
fn forced(c: &Ctx, s: &FcSpec, weights: &Tensor, baby: usize) -> HomFc {
    let dense = FcStructure::dense(s.no, s.ni);
    HomFc::with_forced_plan(s, weights, &c.encoder, &c.eval, &dense, baby).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A forced BSGS split decrypts identically to both diagonal-method
    /// corners for random dims and arbitrary widths, including a ragged
    /// last group, a width past `d` and non-perfect-square `d`, and to the
    /// cleartext reference.
    #[test]
    fn bsgs_matches_diagonal_for_random_dims_and_plans(
        seed in any::<u64>(),
        dim_sel in 0usize..3,
    ) {
        let ni = [8usize, 16, 32][dim_sel];
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xb565);
        let no = rng.random_range(1..=ni);
        let b = rng.random_range(2..=ni);
        let s = spec(ni, no);
        let d = no.next_power_of_two();
        let mut c = ctx(flat_params(), ni, seed % 997 + 1);
        let (weights, input) = random_layer(&s, seed);
        let expect = eval_linear(&LinearLayer::Fc(s.clone()), &weights, &input);

        let ct = c.enc
            .encrypt(&HomFc::encode_input(&s, &input, &c.encoder).unwrap())
            .unwrap();

        let bsgs = forced(&c, &s, &weights, b);
        let kernel = &bsgs.fc_plan().kernel;
        prop_assert_eq!((kernel.b, kernel.g), (b.min(d), d.div_ceil(b.min(d))));
        let out_bsgs = bsgs.apply(&ct, &c.eval, &c.keys, 1).unwrap();
        let slots_bsgs = c.encoder.decode_signed(&c.dec.decrypt_checked(&out_bsgs).unwrap());

        for corner in [1, d] {
            let diag = forced(&c, &s, &weights, corner);
            let out_diag = diag.apply(&ct, &c.eval, &c.keys, 1).unwrap();
            let slots_diag = c.encoder.decode_signed(&c.dec.decrypt_checked(&out_diag).unwrap());
            prop_assert_eq!(
                &slots_bsgs, &slots_diag,
                "b={} vs the b={} diagonal method", b, corner
            );
        }
        prop_assert_eq!(bsgs.decode_output(&slots_bsgs).data(), expect.data());
    }

    /// The equivalence holds at every level the statistical planner deems
    /// reachable on a deep chain: the same masks (prepared at level 0)
    /// serve the modulus-switched input, and the auto plan and the `b = 1`
    /// diagonal method agree slot for slot at each such level.
    #[test]
    fn bsgs_matches_diagonal_at_every_reachable_level(seed in any::<u64>()) {
        let params = deep_params();
        let s = spec(16, 7);
        let mut c = ctx(params.clone(), s.ni, seed % 991 + 1);
        let (weights, input) = random_layer(&s, seed ^ 0x1eaf);

        let bsgs = HomFc::new(&s, &weights, &c.encoder, &c.eval).unwrap();
        prop_assert!(bsgs.fc_plan().kernel.b > 1, "d = 8 must pick a BSGS split");
        let diag = forced(&c, &s, &weights, 1);

        let fresh = c.enc
            .encrypt(&HomFc::encode_input(&s, &input, &c.encoder).unwrap())
            .unwrap();
        let mut reached = 0;
        for level in 0..c.params.levels() {
            let ct = c.eval.mod_switch_to(&fresh, level).unwrap();
            let predicted = bsgs.noise_after(ct.noise(), &c.params, level);
            if predicted.budget_bits_statistical_at(&c.params, level) < 2.0 {
                continue; // not reachable: the planner would never run here
            }
            reached += 1;
            let a = bsgs.apply(&ct, &c.eval, &c.keys, 1).unwrap();
            let b = diag.apply(&ct, &c.eval, &c.keys, 1).unwrap();
            prop_assert_eq!(a.level(), level, "output follows the input level");
            let sa = c.encoder.decode_signed(&c.dec.decrypt_checked(&a).unwrap());
            let sb = c.encoder.decode_signed(&c.dec.decrypt_checked(&b).unwrap());
            prop_assert_eq!(sa, sb, "level {} diverged", level);
        }
        prop_assert!(reached >= 2, "levels 0 and 1 must both be reachable");
    }
}

/// The O(√d) structure, pinned exactly: rotation count `b + g − 2` and
/// NTT plane bill `g·(l_ct + 1)·limbs` (one hoist + `g − 1` giant steps)
/// versus the `b = 1` diagonal method's `(d − 1)·(l_ct + 1)·limbs` — at
/// level 0 and at level 1 of the deep chain, where every live count
/// shrinks. A square layer: no fold, so these are the kernel's counts
/// alone.
#[test]
fn bsgs_ntt_structure_at_level_0_and_1() {
    let params = deep_params();
    let s = spec(32, 32);
    let c = ctx(params.clone(), s.ni, 3);
    let (weights, input) = random_layer(&s, 77);

    let bsgs = HomFc::new(&s, &weights, &c.encoder, &c.eval).unwrap();
    let plan = bsgs.fc_plan().kernel.clone();
    assert!(plan.b > 1 && plan.g > 1, "32 diagonals split: {plan:?}");
    let diag = forced(&c, &s, &weights, 1);

    let mut enc = c.enc;
    let fresh = enc
        .encrypt(&HomFc::encode_input(&s, &input, &c.encoder).unwrap())
        .unwrap();
    for level in 0..2 {
        let ct = c.eval.mod_switch_to(&fresh, level).unwrap();
        let planes = (params.l_ct_at(level) as u64 + 1) * params.live_limbs_at(level) as u64;

        c.eval.reset_op_counts();
        bsgs.apply(&ct, &c.eval, &c.keys, 1).unwrap();
        let counts = c.eval.op_counts();
        assert_eq!(counts.rotate as usize, plan.b + plan.g - 2, "level {level}");
        assert_eq!(counts.ntt, planes * plan.g as u64, "level {level}");

        c.eval.reset_op_counts();
        diag.apply(&ct, &c.eval, &c.keys, 1).unwrap();
        let diag_counts = c.eval.op_counts();
        assert_eq!(diag_counts.rotate as usize, s.ni - 1, "level {level}");
        assert_eq!(diag_counts.ntt, planes * (s.ni as u64 - 1), "level {level}");
        assert!(
            counts.ntt * 4 < diag_counts.ntt,
            "level {level}: BSGS {} planes vs diagonal {}",
            counts.ntt,
            diag_counts.ntt
        );
    }
}
