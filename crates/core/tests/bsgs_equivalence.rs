//! BSGS ↔ diagonal-method equivalence, pinned on the one FC kernel:
//!
//! * any forced tiling and baby width decrypts identically to the kernel's
//!   two diagonal-method corners, `b = 1` (Sched-PA's order) and `b = δ`
//!   (hoisted Sched-IA) — every slot against the corners tiled alike (the
//!   partial sums do not depend on the split), the decoded output against
//!   the untiled ones (the windows do depend on the tiling, their sums do
//!   not) — across random dims (non-square, ragged last group, widths past
//!   `δ`) and to the cleartext `W·x`;
//! * the equivalence holds at **every reachable level** of a deep chain
//!   (every level the statistical planner would run the layer at);
//! * the untiled BSGS rotation structure is what the plan promises:
//!   `b + g − 2` rotations, `g` hoist-priced NTT bills — `O(√d)` plane
//!   transforms against the diagonal method's `O(d)`.

#[path = "../../bfv/tests/support/mod.rs"]
mod support;

use cheetah_bfv::{
    BatchEncoder, BfvParams, Ciphertext, Decryptor, Encryptor, Evaluator, KeyGenerator, OpCounts,
};
use cheetah_core::linear::HomFc;
use cheetah_core::{BsgsPlan, FcStructure, HeCostParams};
use cheetah_nn::inference::eval_linear;
use cheetah_nn::{FcSpec, LinearLayer, Tensor};
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
}

fn ctx(params: BfvParams, seed: u64) -> Ctx {
    let mut kg = KeyGenerator::from_seed(params.clone(), seed);
    let pk = kg.public_key().unwrap();
    Ctx {
        params: params.clone(),
        encoder: BatchEncoder::new(params.clone()),
        enc: Encryptor::from_public_key(pk, seed ^ 0x5eed),
        dec: Decryptor::new(kg.secret_key().clone()),
        eval: Evaluator::new(params),
        kg,
    }
}

impl Ctx {
    /// `input` encrypted in the layout `layer`'s plan reads, at `level`.
    fn encrypt(&mut self, layer: &HomFc, input: &Tensor, level: usize) -> Ciphertext {
        let packed = layer.encode_input(input, &self.encoder).unwrap();
        let fresh = self.enc.encrypt(&packed).unwrap();
        self.eval.mod_switch_to(&fresh, level).unwrap()
    }

    /// One evaluation of `layer` under exactly its own keys: the decrypted
    /// slots and the `OpCounts`.
    fn apply(&mut self, layer: &HomFc, ct: &Ciphertext) -> (Vec<i64>, OpCounts) {
        let keys = self
            .kg
            .galois_keys_for_steps(&layer.rotation_steps())
            .unwrap();
        self.eval.reset_op_counts();
        let out = layer.apply(ct, &self.eval, &keys, 1).unwrap();
        let counts = self.eval.op_counts();
        assert_eq!(out.level(), ct.level(), "output follows the input level");
        let slots = self
            .encoder
            .decode_signed(&self.dec.decrypt_checked(&out).unwrap());
        (slots, counts)
    }

    /// [`Ctx::apply`] on `layer`'s own packing of `input` at `level`.
    fn run(&mut self, layer: &HomFc, input: &Tensor, level: usize) -> (Vec<i64>, OpCounts) {
        let ct = self.encrypt(layer, input, level);
        self.apply(layer, &ct)
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

/// The layer with every diagonal given a mask, tiled `tiles` times under
/// baby width `baby`.
fn forced(c: &Ctx, s: &FcSpec, weights: &Tensor, baby: usize, tiles: usize) -> HomFc {
    let dense = FcStructure::dense(s.no, s.ni);
    HomFc::with_forced_plan(s, weights, &c.encoder, &c.eval, &dense, baby, tiles).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A forced tiling and BSGS split decrypts identically to both
    /// diagonal-method corners, tiled alike and untiled, for random dims
    /// and arbitrary widths, including a ragged last group, a width past
    /// `δ` and non-perfect-square `δ`, and to the cleartext reference.
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
        let mut c = ctx(flat_params(), seed % 997 + 1);
        let tilings: Vec<usize> = FcStructure::dense(no, ni)
            .tilings(c.params.slots())
            .collect();
        let tiles = tilings[rng.random_range(0..tilings.len())];
        let delta = d / tiles;
        let (weights, input) = random_layer(&s, seed);
        let expect = eval_linear(&LinearLayer::Fc(s.clone()), &weights, &input);

        let bsgs = forced(&c, &s, &weights, b, tiles);
        let plan = bsgs.fc_plan();
        prop_assert_eq!(
            (plan.tiles, plan.kernel.b, plan.kernel.g),
            (tiles, b.min(delta), delta.div_ceil(b.min(delta)))
        );
        let (slots_bsgs, _) = c.run(&bsgs, &input, 0);
        let decoded = bsgs.decode_output(&slots_bsgs);

        for (corner, corner_tiles) in [(1, 1), (d, 1), (1, tiles), (delta, tiles)] {
            let diag = forced(&c, &s, &weights, corner, corner_tiles);
            let (slots_diag, _) = c.run(&diag, &input, 0);
            if corner_tiles == tiles {
                prop_assert_eq!(
                    &slots_bsgs, &slots_diag,
                    "tiles={} b={} vs the b={} diagonal method tiled alike", tiles, b, corner
                );
            }
            prop_assert_eq!(
                decoded.data(), diag.decode_output(&slots_diag).data(),
                "tiles={} b={} vs the tiles={} b={} diagonal method", tiles, b, corner_tiles, corner
            );
        }
        prop_assert_eq!(decoded.data(), expect.data());
    }

    /// The equivalence holds at every level the statistical planner deems
    /// reachable on a deep chain: the same masks (prepared at level 0)
    /// serve the modulus-switched input, and the auto plan and the untiled
    /// `b = 1` diagonal method decode to the same output at each such level.
    #[test]
    fn bsgs_matches_diagonal_at_every_reachable_level(seed in any::<u64>()) {
        let params = deep_params();
        let s = spec(16, 7);
        let mut c = ctx(params.clone(), seed % 991 + 1);
        let (weights, input) = random_layer(&s, seed ^ 0x1eaf);

        let bsgs = HomFc::new(&s, &weights, &c.encoder, &c.eval).unwrap();
        let diag = forced(&c, &s, &weights, 1, 1);
        prop_assert!(
            bsgs.fc_plan().rotations() < diag.fc_plan().rotations(),
            "d = 8 must pick a cheaper plan than 8 direct rotations: {}",
            bsgs.fc_plan().label()
        );

        let mut reached = 0;
        for level in 0..c.params.levels() {
            let ct = c.encrypt(&bsgs, &input, level);
            let predicted = bsgs.kernel().noise_after(ct.noise(), &c.params, level);
            if predicted.budget_bits_statistical_at(&c.params, level) < 2.0 {
                continue; // not reachable: the planner would never run here
            }
            reached += 1;
            let (sa, _) = c.apply(&bsgs, &ct);
            let (sb, _) = c.run(&diag, &input, level);
            prop_assert_eq!(
                bsgs.decode_output(&sa).data(),
                diag.decode_output(&sb).data(),
                "level {} diverged", level
            );
        }
        prop_assert!(reached >= 2, "levels 0 and 1 must both be reachable");
    }
}

/// The O(√d) structure, pinned exactly: rotation count `b + g − 2` and
/// NTT plane bill `g·(l_ct + 1)·limbs` (one hoist + `g − 1` giant steps)
/// versus the `b = 1` diagonal method's `(d − 1)·(l_ct + 1)·limbs` — at
/// level 0 and at level 1 of the deep chain, where every live count
/// shrinks.
#[test]
fn bsgs_ntt_structure_at_level_0_and_1() {
    let params = deep_params();
    let s = spec(32, 32);
    let mut c = ctx(params.clone(), 3);
    let (weights, input) = random_layer(&s, 77);

    let cost = HeCostParams::for_bfv(&params, 0);
    let b = BsgsPlan::choose(&FcStructure::dense(s.no, s.ni), &cost).b;
    let bsgs = forced(&c, &s, &weights, b, 1);
    let plan = bsgs.fc_plan().kernel.clone();
    assert!(plan.b > 1 && plan.g > 1, "32 diagonals split: {plan:?}");
    let diag = forced(&c, &s, &weights, 1, 1);

    for level in 0..2 {
        let planes = (params.l_ct_at(level) as u64 + 1) * params.live_limbs_at(level) as u64;

        let (_, counts) = c.run(&bsgs, &input, level);
        assert_eq!(counts.rotate as usize, plan.b + plan.g - 2, "level {level}");
        assert_eq!(counts.ntt, planes * plan.g as u64, "level {level}");

        let (_, diag_counts) = c.run(&diag, &input, level);
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
