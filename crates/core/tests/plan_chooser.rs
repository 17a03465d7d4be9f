//! The counting chooser against the one it replaced: `FcPlan::choose` and
//! `BsgsPlan::choose` price every `(tiles, b)` from counts on the tiled
//! structure and build only the winner; the reference below builds every
//! candidate plan and prices it with the plan's own methods. Both must pick
//! the same plan — same tiling, same baby width, same tie-breaks — on
//! dense, randomly pruned (10–90 % of the folded diagonals dead),
//! single-live and all-zero structures, at every benchmark FC shape and at
//! `n ∈ {2048, 4096, 8192}` on every preset that builds there.

use cheetah_bfv::BfvParams;
use cheetah_core::linear::FcPlan;
use cheetah_core::{BsgsPlan, FcStructure, HeCostParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The baby-width chooser that built every candidate: the least
/// `rotation_mults` over `b ∈ 1..=d`, the smaller width on a tie.
fn reference_bsgs(s: &FcStructure, cost: &HeCostParams) -> BsgsPlan {
    let mut best = BsgsPlan::for_structure(s, 1);
    let mut best_cost = best.rotation_mults(cost);
    for b in 2..=s.diagonals() {
        let cand = BsgsPlan::for_structure(s, b);
        let c = cand.rotation_mults(cost);
        if c < best_cost {
            best_cost = c;
            best = cand;
        }
    }
    best
}

/// The plan over `s` tiled `tiles` times under the reference width.
fn reference_tiled(s: &FcStructure, tiles: usize, cost: &HeCostParams) -> FcPlan {
    let tiled = s.tiled(tiles);
    FcPlan {
        tiles,
        kernel: reference_bsgs(&tiled, cost),
        diagonals: tiled.diagonals(),
        live: tiled.live_diagonals(),
        fold: tiled.fold(),
    }
}

/// The tiling chooser that built every candidate: the untiled plan, then
/// each wider tiling when strictly cheaper, every rotation past the
/// untiled plan's charged one direct rotation more.
fn reference_choose(s: &FcStructure, slots: usize, cost: &HeCostParams) -> FcPlan {
    let mut best = reference_tiled(s, 1, cost);
    let untiled = best.rotations();
    let price = |plan: &FcPlan| {
        let extra = plan.rotations().saturating_sub(untiled) as u64;
        plan.int_mults(cost) + extra * cost.he_rotate_mults()
    };
    let mut best_price = price(&best);
    for tiles in s.tilings(slots).skip(1) {
        let cand = reference_tiled(s, tiles, cost);
        let p = price(&cand);
        if p < best_price {
            best_price = p;
            best = cand;
        }
    }
    best
}

/// Weights of an `no × ni` layer whose folded diagonal `k` (cells with
/// `(c − r) mod n_o' = k`) is nonzero exactly when `live(k)`.
fn weights_with(no: usize, ni: usize, live: impl Fn(usize) -> bool) -> Vec<i64> {
    let d = no.next_power_of_two();
    let cell = |j: usize| {
        let (r, c) = (j / ni, j % ni);
        i64::from(live((c + d - r % d) % d))
    };
    (0..no * ni).map(cell).collect()
}

/// The structures each shape is chosen on: dense, pruned at 10–90 %,
/// one live diagonal, all zero.
fn structures(no: usize, ni: usize, rng: &mut StdRng) -> Vec<(String, FcStructure)> {
    let d = no.next_power_of_two();
    let mut out = vec![("dense".to_string(), FcStructure::dense(no, ni))];
    for pct in [10, 30, 50, 70, 90] {
        let dead: Vec<bool> = (0..d).map(|_| rng.random_range(0..100) < pct).collect();
        let w = weights_with(no, ni, |k| !dead[k]);
        out.push((format!("{pct} % pruned"), FcStructure::analyze(&w, no, ni)));
    }
    let only = rng.random_range(0..d.min(ni));
    let w = weights_with(no, ni, |k| k == only);
    out.push((
        format!("only {only} live"),
        FcStructure::analyze(&w, no, ni),
    ));
    out.push((
        "all zero".to_string(),
        FcStructure::analyze(&vec![0; no * ni], no, ni),
    ));
    out
}

/// Every named preset that builds at degree `n`, and a one-limb 54-bit
/// chain (the `n = 2048` security ceiling, where no preset builds).
fn parameter_sets(n: usize) -> Vec<(&'static str, BfvParams)> {
    type Preset = fn(usize) -> cheetah_bfv::Result<BfvParams>;
    let presets: [(&'static str, Preset); 6] = [
        ("single_60", BfvParams::preset_single_60),
        ("rns_2x30", BfvParams::preset_rns_2x30),
        ("rns_3x36", BfvParams::preset_rns_3x36),
        ("hybrid_1x54", BfvParams::preset_hybrid_1x54),
        ("hybrid_2x36", BfvParams::preset_hybrid_2x36),
        ("hybrid_2x40", BfvParams::preset_hybrid_2x40),
    ];
    let mut out: Vec<_> = presets
        .into_iter()
        .filter_map(|(name, preset)| Some((name, preset(n).ok()?)))
        .collect();
    let one_limb = BfvParams::builder()
        .degree(n)
        .plain_bits(20)
        .moduli_bits(&[54])
        .build();
    out.push(("one limb 54", one_limb.unwrap()));
    out
}

#[test]
fn counting_chooser_picks_the_plan_every_candidate_built_would() {
    // bench_e2e's MLP and CNN heads, bench_he_ops' FC pair, LeNet-300-100,
    // and a row-wide input.
    let shapes = [
        (1024, 256),
        (256, 64),
        (64, 16),
        (256, 16),
        (512, 32),
        (784, 300),
        (300, 100),
        (100, 10),
        (2048, 10),
    ];
    let mut rng = StdRng::seed_from_u64(0xc0de);
    let mut checked = 0;
    for n in [2048, 4096, 8192] {
        for (preset, params) in parameter_sets(n) {
            let cost = HeCostParams::for_bfv(&params, 0);
            for (ni, no) in shapes {
                for (what, s) in structures(no, ni, &mut rng) {
                    let at = format!("{preset} n={n} {ni}→{no} {what}");
                    for tiles in s.tilings(n) {
                        let tiled = s.tiled(tiles);
                        assert_eq!(
                            BsgsPlan::choose(&tiled, &cost),
                            reference_bsgs(&tiled, &cost),
                            "{at} tiles={tiles}"
                        );
                    }
                    assert_eq!(
                        FcPlan::choose(&s, n, &cost),
                        reference_choose(&s, n, &cost),
                        "{at}"
                    );
                    checked += 1;
                }
            }
        }
    }
    assert!(checked >= 3 * 2 * 9 * 8, "{checked} cases");
}
