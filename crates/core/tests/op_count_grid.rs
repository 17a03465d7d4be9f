//! The evaluator's counters are `cost.rs`'s closed forms — on the whole
//! grid. The evaluator bumps `OpCounts::{ntt, poly_mul}` stage by stage
//! (the planes each half of a key switch transforms, the pairs it sums)
//! and holds no count formula of its own; `HeCostParams` holds the closed
//! forms the planner prices with. This table is what ties the two: every
//! preset chain × every level × {direct rotation, hoist, hoisted replay,
//! mod-switch}.

use cheetah_bfv::{BatchEncoder, BfvParams, Encryptor, Evaluator, KeyGenerator, OpCounts};
use cheetah_core::HeCostParams;

/// `(ntt, poly_mul, rotate, mod_switch)` of a counter delta.
fn columns(c: &OpCounts) -> (u64, u64, u64, u64) {
    assert_eq!((c.add, c.mul), (0, 0), "no HE_Add / HE_Mult in this grid");
    (c.ntt, c.poly_mul, c.rotate, c.mod_switch)
}

#[test]
fn rotation_and_mod_switch_counts_are_the_cost_model_on_every_preset_and_level() {
    let mut grid = BfvParams::presets(4096).unwrap();
    grid.extend(BfvParams::hybrid_presets(4096).unwrap());
    grid.extend(
        BfvParams::hybrid_presets(8192)
            .unwrap()
            .into_iter()
            .filter(|(name, _)| *name == "hybrid_2x40"),
    );
    let names: Vec<&str> = grid.iter().map(|(name, _)| *name).collect();
    assert_eq!(
        names,
        [
            "single_60",
            "rns_2x30",
            "rns_3x36",
            "hybrid_1x54",
            "hybrid_2x36",
            "hybrid_2x40"
        ]
    );

    for (name, params) in grid {
        let mut keygen = KeyGenerator::from_seed(params.clone(), 3);
        let keys = keygen.galois_keys_for_steps(&[1]).unwrap();
        let encoder = BatchEncoder::new(params.clone());
        let mut ct = Encryptor::from_secret_key(keygen.secret_key().clone(), 4)
            .encrypt(&encoder.encode(&[1, 2, 3]).unwrap())
            .unwrap();
        let eval = Evaluator::new(params.clone());
        let measure = |op: &mut dyn FnMut()| {
            let before = eval.op_counts();
            op();
            columns(&eval.op_counts().since(&before))
        };

        for level in 0..=params.max_level() {
            let at = format!("{name} level {level}");
            let cost = HeCostParams::for_bfv(&params, level);
            let products = 2 * cost.ks_digits() as u64;

            let direct = measure(&mut || drop(eval.rotate_rows(&ct, 1, &keys).unwrap()));
            assert_eq!(
                direct,
                (cost.ntts_per_rotate(), products, 1, 0),
                "{at}: direct"
            );

            let mut hoisted = None;
            let hoist = measure(&mut || hoisted = Some(eval.hoist(&ct).unwrap()));
            assert_eq!(hoist, (cost.ntts_per_hoist(), 0, 0, 0), "{at}: hoist");

            let hoisted = hoisted.unwrap();
            let replay =
                measure(&mut || drop(eval.rotate_hoisted(&ct, &hoisted, 1, &keys).unwrap()));
            assert_eq!(
                replay,
                (cost.ntts_per_rotate_hoisted(), products, 1, 0),
                "{at}: hoisted replay"
            );

            // A direct rotation is a hoist of the permuted c1 plus a
            // replay without a gather: same work, column by column.
            assert_eq!(hoist.0 + replay.0, direct.0, "{at}: plane transforms");
            assert_eq!(hoist.1 + replay.1, direct.1, "{at}: pointwise products");

            if level < params.max_level() {
                let live = cost.limbs as u64;
                let switch = measure(&mut || eval.mod_switch_to_next_assign(&mut ct).unwrap());
                assert_eq!(switch, (2 * (2 * live - 1), 0, 0, 1), "{at}: mod-switch");
            }
        }
    }
}
