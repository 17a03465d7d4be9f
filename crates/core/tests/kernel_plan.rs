//! The one rotate–multiply–accumulate kernel, pinned without a layer on
//! top: random [`BsgsPlan`]s built directly — random distinct baby steps,
//! one to three chains (the first with a dead group in the middle and at
//! the top, and in half the cases a dead group 0), a giant unit that is
//! never the baby width — with random masks of three coefficient norms, at
//! levels 0 and 1 on the digit and hybrid 36-bit presets:
//!
//! * the decryption is the cleartext slot simulation of
//!   `Σ_u rot(Σ_j mask ⊙ rot(x, step_j), u·unit)`;
//! * measured `OpCounts` are the plan's baby replays plus its giant
//!   rotations (one per live group above 0), `live_masks()` and the adds
//!   its shape implies;
//! * `rotation_steps()` is the baby steps plus each giant step Horner over
//!   the live groups takes — every gap between two live groups of a chain
//!   and the way home from a lowest live group above 0 — each listed once;
//! * measured ≤ tracked ≤ `noise_after` at the masks' measured norm;
//! * keys for exactly `rotation_steps()` are enough and any one fewer is a
//!   typed refusal;
//! * a second run on the same, now warm, scratch gives identical residues,
//!   noise estimates and counts.

#[path = "../../bfv/tests/support/mod.rs"]
mod support;

use cheetah_bfv::{
    BatchEncoder, BfvParams, Decryptor, Encryptor, Error, Evaluator, KeyGenerator, Plaintext,
};
use cheetah_core::linear::PreparedKernel;
use cheetah_core::{BsgsGroup, BsgsPlan, FcStructure};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use support::Alloc;

/// Every slot's row rotated left by `k`: what `rotate_rows` does to a
/// decoded slot vector (two rows of `row` slots).
fn rot(slots: &[i64], k: usize, row: usize) -> Vec<i64> {
    let at = |s: usize| slots[s / row * row + (s % row + k) % row];
    (0..slots.len()).map(at).collect()
}

/// A random plan: `b`, `g`, a unit that is not `b`, and per chain a random
/// live set — chain 0 with group 1 and the top group dead, group 2 live
/// above the gap and group 0 dead iff `dead_zero`, later chains anything,
/// an empty chain included.
fn random_plan(dead_zero: bool, row: usize, rng: &mut StdRng) -> BsgsPlan {
    let (b, g) = (rng.random_range(1..=4usize), rng.random_range(4..=6usize));
    let units = [3usize, 5, 16, 64, 96].map(|unit| unit + (unit == b) as usize);
    let unit = units[rng.random_range(0..units.len())];
    let mut pool: Vec<i64> = (0..4).map(|_| rng.random_range(1..row as i64)).collect();
    pool.push(0);
    pool.sort_unstable();
    pool.dedup();
    let chains = (0..rng.random_range(1..=3usize)).map(|q| {
        let live: Vec<usize> = (0..g)
            .filter(|&u| match (q, u) {
                (0, 0) => !dead_zero,
                (0, 2) => true,
                (0, u) if u == 1 || u == g - 1 => false,
                _ => rng.random_range(0..10) < 6,
            })
            .collect();
        let groups = live.into_iter().map(|u| {
            // A partial shuffle: `width` distinct steps of the pool.
            let width = rng.random_range(1..=3usize.min(pool.len()));
            let mut steps = pool.clone();
            for i in 0..width {
                steps.swap(i, rng.random_range(i..pool.len()));
            }
            steps.truncate(width);
            BsgsGroup { u, steps }
        });
        groups.collect::<Vec<_>>()
    });
    BsgsPlan::new(b, g, unit, chains.collect())
}

/// The giant steps Horner over the live groups takes, with repeats: per
/// chain, walking from its top live group down to 0, each distance
/// between two stops.
fn giant_steps(plan: &BsgsPlan) -> Vec<i64> {
    let chains = plan.chains().iter().flat_map(|chain| {
        let mut stops: Vec<usize> = chain.iter().map(|group| group.u).collect();
        stops.insert(0, 0);
        stops.dedup();
        let gaps = stops.windows(2).map(|pair| pair[1] - pair[0]);
        gaps.collect::<Vec<_>>()
    });
    chains.map(|gap| (gap * plan.unit()) as i64).collect()
}

/// A plaintext with uniform coefficients in `[-bound, bound]`: the
/// coefficient norm is what multiplication noise grows with, so a case
/// picks it; the slots it decodes to are arbitrary mod `t`.
fn random_mask(params: &BfvParams, bound: i64, rng: &mut StdRng) -> Plaintext {
    let t = params.plain_modulus();
    let coeffs: Vec<u64> = (0..params.degree())
        .map(|_| t.from_signed(rng.random_range(-bound..=bound)))
        .collect();
    Plaintext::from_coeffs(coeffs, params.clone()).unwrap()
}

#[test]
fn random_plans_match_the_slot_simulation_on_both_presets() {
    let mut rng = StdRng::seed_from_u64(0x6b65_726e);
    let mut ran_at = std::collections::BTreeSet::new();
    for case in 0..24 {
        let (hybrid, level) = (case % 2 == 1, case / 2 % 2);
        let dead_zero = case / 4 % 2 == 0;
        let params = if hybrid {
            BfvParams::preset_hybrid_2x36(4096).unwrap()
        } else {
            BfvParams::preset_rns_3x36(4096).unwrap()
        };
        let (row, t) = (params.row_size(), params.plain_modulus().value() as i64);
        let center = |v: i64| (v.rem_euclid(t) + t / 2) % t - t / 2;
        let mut kg = KeyGenerator::from_seed(params.clone(), 900 + case as u64);
        let encoder = BatchEncoder::new(params.clone());
        let mut enc = Encryptor::from_secret_key(kg.secret_key().clone(), 7);
        let dec = Decryptor::new(kg.secret_key().clone());
        let eval = Evaluator::new(params.clone());

        let plan = random_plan(dead_zero, row, &mut rng);
        let what = format!("case {case} (hybrid={hybrid}): {plan:?}");
        let bound = [1, 8, t / 2][case / 8];
        let mut plain: Vec<Vec<Vec<Plaintext>>> = vec![Vec::new(); plan.outputs()];
        let masks_of = |q: usize, group: &BsgsGroup| {
            let mask = |_| random_mask(&params, bound, &mut rng);
            let masks: Vec<Plaintext> = group.steps.iter().map(mask).collect();
            plain[q].push(masks.clone());
            Ok(masks)
        };
        let kernel = PreparedKernel::prepare(plan.clone(), "test".into(), &eval, masks_of).unwrap();

        // The input, at the deepest of `level` and 0 the kernel's own
        // prediction admits.
        let x: Vec<i64> = (0..encoder.slots())
            .map(|_| rng.random_range(-5..=5))
            .collect();
        let fresh = enc.encrypt(&encoder.encode_signed(&x).unwrap()).unwrap();
        let switched = eval.mod_switch_to(&fresh, level).unwrap();
        let admits = kernel
            .noise_after(switched.noise(), &params, level)
            .budget_bits_statistical_at(&params, level)
            >= 2.0;
        let ct = if admits { switched } else { fresh };
        let level = ct.level();
        ran_at.insert((hybrid, level));

        // Keys for exactly the plan's steps; a fresh scratch, then the same
        // one again.
        let steps = plan.rotation_steps();
        let keys = kg.galois_keys_for_steps(&steps).unwrap();
        let mut scratch = eval.new_scratch();
        let mut run = || {
            eval.reset_op_counts();
            let outputs = kernel
                .apply_with_scratch(&ct, &eval, &keys, &mut scratch)
                .unwrap_or_else(|e| panic!("{what}: {e}"));
            (outputs, eval.op_counts())
        };
        let (outputs, counts) = run();
        let (again, again_counts) = run();
        assert_eq!(counts, again_counts, "{what} on a reused scratch");
        for (a, b) in outputs.iter().zip(&again) {
            assert_eq!(a.c0().data(), b.c0().data(), "{what} on a reused scratch");
            assert_eq!(a.c1().data(), b.c1().data(), "{what} on a reused scratch");
            assert_eq!(a.noise(), b.noise(), "{what} on a reused scratch");
        }

        // The cleartext simulation, chain by chain.
        assert_eq!(outputs.len(), plan.outputs(), "{what}");
        let chains = plan.chains().iter().zip(&plain).zip(&outputs);
        for (q, ((chain, masks), out)) in chains.enumerate() {
            assert_eq!(out.level(), level, "{what}");
            let mut expect = vec![0i64; x.len()];
            for (group, masks) in chain.iter().zip(masks) {
                let mut inner = vec![0i64; x.len()];
                for (&step, mask) in group.steps.iter().zip(masks) {
                    let baby = rot(&x, step as usize, row);
                    let mask = encoder.decode_signed(mask);
                    for (acc, (m, v)) in inner.iter_mut().zip(mask.iter().zip(baby)) {
                        *acc = center(*acc + m * v);
                    }
                }
                let home = rot(&inner, group.u * plan.unit() % row, row);
                expect
                    .iter_mut()
                    .zip(home)
                    .for_each(|(e, h)| *e = center(*e + h));
            }
            let slots = encoder.decode_signed(&dec.decrypt_checked(out).unwrap());
            assert_eq!(slots, expect, "{what}: chain {q}");

            // measured ≤ tracked ≤ predicted at the masks' measured norm.
            let tracked = out.noise().bound_log2;
            if chain.is_empty() {
                assert_eq!(
                    tracked,
                    f64::NEG_INFINITY,
                    "{what}: chain {q} is transparent"
                );
                continue;
            }
            let predicted = kernel.noise_after(ct.noise(), &params, level).bound_log2;
            let measured = (dec.invariant_noise(out).unwrap().max(1) as f64).log2();
            assert!(
                tracked <= predicted + 1e-9,
                "{what}: {tracked} > {predicted}"
            );
            assert!(measured <= tracked, "{what}: {measured} > {tracked}");
        }

        // One multiply per mask, one replay per baby step, one giant
        // rotation per live group above 0, and the adds of the shape: one
        // per mask into its group sum, then one per live group below a
        // chain's top.
        let lens = plan.chains().iter().map(Vec::len);
        let combine_adds: usize = lens.map(|len| len.saturating_sub(1)).sum();
        let live_above_0 = plan.groups().filter(|group| group.u > 0).count();
        assert_eq!(plan.giant_rotations(), live_above_0, "{what}");
        assert_eq!(counts.mul as usize, plan.live_masks(), "{what}");
        assert_eq!(
            counts.rotate as usize,
            plan.giant_rotations() + plan.baby_steps().len(),
            "{what}"
        );
        assert_eq!(
            counts.add as usize,
            plan.live_masks() + combine_adds,
            "{what}"
        );

        // Each step is listed once and really used: any one key fewer is a
        // typed refusal.
        let mut distinct = steps.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), steps.len(), "{what}: a step listed twice");
        let giant = giant_steps(&plan);
        // Chain 0 jumps its dead group 1 — or, with group 0 dead too, comes
        // home from group 2 — in one rotation by 2·unit.
        assert!(giant.contains(&(2 * plan.unit() as i64)), "{what}");
        assert_eq!(
            steps[..plan.baby_steps().len()],
            *plan.baby_steps(),
            "{what}"
        );
        for step in &giant {
            let listed = steps.iter().filter(|&s| s == step).count();
            assert_eq!(listed, 1, "{what}: giant step {step} listed {listed} times");
        }
        let covered = |s: &i64| plan.baby_steps().contains(s) || giant.contains(s);
        assert!(
            steps.iter().all(covered),
            "{what}: a step no rotation takes"
        );
        let drop = rng.random_range(0..steps.len());
        let rest: Vec<i64> = (0..steps.len())
            .filter(|&i| i != drop)
            .map(|i| steps[i])
            .collect();
        let lean = kg.galois_keys_for_steps(&rest).unwrap();
        let refused = kernel.apply_with_scratch(&ct, &eval, &lean, &mut eval.new_scratch());
        assert!(
            matches!(refused, Err(Error::MissingGaloisKey { step: Some(s), .. }) if s == steps[drop]),
            "{what}: dropped step {} not missed",
            steps[drop]
        );
    }
    // Both levels really ran on both presets.
    assert_eq!(ran_at.len(), 4, "{ran_at:?}");
}

#[test]
fn masks_that_do_not_fit_the_plan_are_refused() {
    let group = |u, steps: &[i64]| BsgsGroup {
        u,
        steps: steps.to_vec(),
    };
    let plan = BsgsPlan::new(
        2,
        3,
        7,
        vec![vec![group(0, &[0, 5]), group(2, &[5])], vec![]],
    );
    // The dead group 1 costs nothing: group 2's sum jumps the gap in one
    // rotation by 2·unit.
    assert_eq!(plan.baby_steps(), [5]);
    assert_eq!(plan.rotation_steps(), [5, 14]);
    assert_eq!((plan.giant_rotations(), plan.rotations()), (1, 2));
    let params = BfvParams::preset_rns_3x36(4096).unwrap();
    let eval = Evaluator::new(params.clone());
    let encoder = BatchEncoder::new(params);
    let prepare = |extra: usize| {
        let masks_of = |_, group: &BsgsGroup| {
            let masks = (0..group.steps.len() + extra).map(|_| encoder.encode_signed(&[1, 2, 3]));
            masks.collect()
        };
        PreparedKernel::prepare(plan.clone(), "fits?".into(), &eval, masks_of)
    };
    assert!(prepare(0).is_ok());
    assert!(matches!(prepare(1), Err(Error::Unsupported(_))));
}

/// A dense FC chain needs one giant key: the steps of a `(b, g > 1)` plan
/// are the baby steps `1..b` plus the one gap `b`, however many groups
/// rotate.
#[test]
fn a_dense_fc_plan_needs_one_giant_key() {
    for (no, ni, b) in [(32, 32, 6), (16, 64, 4), (64, 64, 8), (8, 8, 3)] {
        let plan = BsgsPlan::for_structure(&FcStructure::dense(no, ni), b);
        assert!(plan.g > 1, "({no}, {ni}) at b = {b}: {plan:?}");
        let steps: Vec<i64> = (1..=b as i64).collect();
        assert_eq!(plan.rotation_steps(), steps, "({no}, {ni}) at b = {b}");
        assert_eq!(
            plan.giant_rotations(),
            plan.g - 1,
            "({no}, {ni}) at b = {b}"
        );
    }
}
