//! The evaluator's counters are `cost.rs`'s closed forms — on the whole
//! grid. The evaluator bumps `OpCounts::{ntt, poly_mul}` stage by stage
//! (the planes each half of a key switch transforms, the pairs it sums)
//! and holds no count formula of its own; `HeCostParams` holds the closed
//! forms the planner prices with. This table is what ties the two: every
//! preset chain × every level × {direct rotation, hoist, hoisted replay,
//! mod-switch}. The stage clock (`Evaluator::stage_times`) is tied to the
//! rows of `docs/PARAMS.md`'s stage table on the same grid.

#[path = "../../bfv/tests/support/mod.rs"]
mod support;

use cheetah_bfv::{
    BatchEncoder, BfvParams, Encryptor, Evaluator, KeyGenerator, KsStage, OpCounts, StageTimes,
};
use cheetah_core::HeCostParams;
use support::Alloc;

/// `(ntt, poly_mul, rotate, mod_switch)` of a counter delta.
fn columns(c: &OpCounts) -> (u64, u64, u64, u64) {
    assert_eq!((c.add, c.mul), (0, 0), "no HE_Add / HE_Mult in this grid");
    (c.ntt, c.poly_mul, c.rotate, c.mod_switch)
}

/// `(calls, transforms)` per stage of a stage-clock delta, in
/// [`KsStage::ALL`] order.
fn stage_columns(s: &StageTimes) -> [(u64, u64); 6] {
    KsStage::ALL.map(|stage| (s[stage].calls, s[stage].transforms))
}

/// The plane transforms of one key switch's stages at a level with `live`
/// live limbs and `l_ct` digit-chain digits, in [`KsStage::ALL`] order:
/// `docs/PARAMS.md`'s stage table, row by row (copy, INTT, decompose,
/// digit NTTs, key sum, rescale).
fn stage_table(hybrid: bool, live: u64, l_ct: u64) -> [u64; 6] {
    if hybrid {
        [0, live, 0, live * live, 0, 2 * (live + 1)]
    } else {
        [0, live, 0, l_ct * live, 0, 0]
    }
}

/// `(calls, transforms)` of one key switch whose stages `ran` (one call
/// each, at `table`'s transforms), the rest idle.
fn expect_stages(table: [u64; 6], ran: [bool; 6]) -> [(u64, u64); 6] {
    std::array::from_fn(|i| if ran[i] { (1, table[i]) } else { (0, 0) })
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
            let (before, stages) = (eval.op_counts(), eval.stage_times());
            op();
            (
                columns(&eval.op_counts().since(&before)),
                stage_columns(&eval.stage_times().since(&stages)),
            )
        };

        for level in 0..=params.max_level() {
            let at = format!("{name} level {level}");
            let cost = HeCostParams::for_bfv(&params, level);
            let products = 2 * cost.ks_digits() as u64;
            let live = cost.limbs as u64;
            let table = stage_table(cost.hybrid, live, cost.l_ct as u64);
            // Which stages run: the front four, the key sum, and the rescale
            // on a hybrid chain.
            let rescale = cost.hybrid;

            let (direct, stages) = measure(&mut || drop(eval.rotate_rows(&ct, 1, &keys).unwrap()));
            assert_eq!(
                direct,
                (cost.ntts_per_rotate(), products, 1, 0),
                "{at}: direct"
            );
            let ran = [true, true, true, true, true, rescale];
            assert_eq!(stages, expect_stages(table, ran), "{at}: direct stages");

            let mut hoisted = None;
            let (hoist, stages) = measure(&mut || hoisted = Some(eval.hoist(&ct).unwrap()));
            assert_eq!(hoist, (cost.ntts_per_hoist(), 0, 0, 0), "{at}: hoist");
            let ran = [true, true, true, true, false, false];
            assert_eq!(stages, expect_stages(table, ran), "{at}: hoist stages");

            let hoisted = hoisted.unwrap();
            let (replay, stages) =
                measure(&mut || drop(eval.rotate_hoisted(&ct, &hoisted, 1, &keys).unwrap()));
            assert_eq!(
                replay,
                (cost.ntts_per_rotate_hoisted(), products, 1, 0),
                "{at}: hoisted replay"
            );
            let ran = [false, false, false, false, true, rescale];
            assert_eq!(stages, expect_stages(table, ran), "{at}: replay stages");

            // A direct rotation is a hoist of the permuted c1 plus a
            // replay without a gather: same work, column by column.
            assert_eq!(hoist.0 + replay.0, direct.0, "{at}: plane transforms");
            assert_eq!(hoist.1 + replay.1, direct.1, "{at}: pointwise products");

            if level < params.max_level() {
                let (switch, stages) =
                    measure(&mut || eval.mod_switch_to_next_assign(&mut ct).unwrap());
                assert_eq!(switch, (2 * live, 0, 0, 1), "{at}: mod-switch");
                assert_eq!(stages, [(0, 0); 6], "{at}: a mod-switch is no key switch");
            }
        }
    }
}
