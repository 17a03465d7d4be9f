//! Machine-readable hot-path benchmark: emits `BENCH_he_ops.json` with
//! ns/op for the three HE operators (into a fresh output vs in-place/scratch
//! variants) and a per-limb-count section (1/2/3-limb RNS chains) so the
//! cost of the modulus chain is trackable across PRs. Multi-limb presets also report
//! the leveled primitives — `l{2,3}_mod_switch` (dropping a limb) and
//! `l{2,3}_rotate_level1` (rotating after one drop) — demonstrating that
//! reduced-level rotations are measurably cheaper than full-level ones —
//! `l{1,2,3}_dot_plain_26` beside `l{1,2,3}_mul` (a 26-term
//! `mul_plain_accumulate_many` group sum against one `mul_plain_assign`:
//! `scripts/check.sh` fails a committed full run where the one-pass sum
//! costs more than 0.6 × 26 multiplies) —
//! and the FC-layer pair `l{2,3}_fc_bsgs` vs `l{2,3}_fc_diag` (plus
//! `_level1` variants): the auto-chosen plan — tiled input,
//! Baby-Step-Giant-Step split — against the same kernel forced untiled to
//! baby width 1 (the diagonal method) on the same weights, the headline
//! win of the hoistable-rotation-set work (`scripts/check.sh` fails a
//! committed full run where BSGS does not beat the diagonal method on the
//! 3-limb preset), and `l{2,3}_fc_bsgs_untiled`, the same layer forced to
//! `tiles = 1` under the baby width the chooser picks there, so tiled and
//! untiled read like for like (gated on the 3-limb preset too). Every FC
//! variant runs on an input packed by its own plan. `l{2,3}_conv_packed` is one
//! evaluation of the packed convolution on `bench_e2e`'s second layer
//! (8→16 channels, 8×8, 3×3): 8 hoisted tap replays, 72 mask multiplies, 7
//! Horner rotations, one output ciphertext.
//!
//! The special-prime hybrid key-switch path is benchmarked against its
//! **equal-total-plane-count** digit twin: `l2_rotate_hybrid`
//! (hybrid_1x54 — 1 data limb + `P`, two planes) pairs with `l2_rotate`
//! (rns_2x30 — two data limbs), and `l3_rotate_hybrid` (hybrid_2x36)
//! pairs with `l3_rotate` (rns_3x36). Same RLWE modulus width, same wire
//! size, same security budget; per rotation the hybrid path runs
//! `live² + 6·live + 2` plane transforms against the digit path's
//! `(l_ct + 1)·live`. `scripts/check.sh` fails a committed full run where
//! the hybrid rotation does not beat its digit twin. `hoist_hybrid` is
//! the one-time hoist on the hybrid chain (`ops_ns` section).
//!
//! The scalar-vs-vector pairs pin the SIMD work: `ntt` / `ntt_avx2` /
//! `ntt_simd` and `intt` / `intt_simd` (one 4096-point forward, resp.
//! inverse, transform of a 36-bit limb under the forced scalar reference,
//! the forced AVX2 lanes and the runtime-detected backend) and the
//! per-preset `l{1,2,3}_rotate` / `l{1,2,3}_rotate_simd` twins (`l1` is a
//! 60-bit limb, past the IFMA kernel's `2^50` gate: the fall-through
//! control). The unsuffixed keys are **pinned to the scalar backend** so
//! their history stays comparable across the SIMD work; the `_simd` twins
//! run whatever `cheetah_bfv::simd::detect()` picks — named in the header's
//! `simd_backend` — as does every other key without a suffix; an `_avx2`
//! twin is its key under the forced AVX2 lanes, the best backend below
//! the IFMA kernels. Those twins sit where an IFMA kernel *is* the op:
//! `l{1,2,3}_rotate_hoisted_avx2` (a digit-chain replay is transform-free —
//! it is the lazy inner product and nothing else; `l1`, a 60-bit limb,
//! falls through and reads the same on both) and the unit costs of the
//! three constant-multiply loops on the 36-bit presets, `decompose`
//! (`rns_decompose_into`, `rns_3x36`), `hybrid_decompose`
//! (`hybrid_decompose_into`, `hybrid_2x36`) and `rescale` (the `P`-rescale
//! of one accumulator: `divide_round_by_last` on `hybrid_2x36`'s
//! key-switch chain — the INTT of the `P` plane, the lift and NTT onto
//! each data plane — restoring the dropped plane, a 32 KiB copy,
//! included), each with its `_avx2` twin. `scripts/check.sh` gates three
//! of the pairs.
//!
//! The `setup_ns` section times a session's key setup piece by piece on
//! `rns_3x36` and `hybrid_2x36` (`{preset}_…`): one CBD noise polynomial
//! and one uniform one over the key-switch chain, one seeded Galois key,
//! its expansion on the server (a clone of the one-key set included), one
//! seeded level-0 encryption, and `mul_pointwise` / `fma_pointwise` over
//! the key-switch chain with their `_avx2` twins (`scripts/check.sh` gates
//! the pairs).
//!
//! Run: `cargo run --release -p cheetah-bench --bin bench_he_ops [out.json]`
//!
//! Set `BENCH_SMOKE=1` for CI smoke mode: the measurement budget drops to
//! milliseconds per op; numbers are noisy but the emitted JSON keys are
//! identical, which is what `scripts/check.sh` gates on.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use cheetah_bfv::rns::Representation;
use cheetah_bfv::sampling::BfvRng;
use cheetah_bfv::simd::{self, SimdBackend};
use cheetah_bfv::{
    BatchEncoder, BfvParams, Ciphertext, Encryptor, Evaluator, GaloisKeys, HoistedDecomposition,
    KeyGenerator, PreparedPlaintext, RnsPoly, Scratch, UniformStream,
};
use cheetah_core::linear::{HomConv2d, HomFc};
use cheetah_core::{BsgsPlan, FcStructure, HeCostParams};
use cheetah_nn::{ConvSpec, FcSpec, Tensor};

fn smoke() -> bool {
    std::env::var("BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Times `f` with an adaptive iteration count (~0.5 s budget after one
/// calibration call; ~5 ms in smoke mode) and returns mean ns/op.
fn time_ns(mut f: impl FnMut()) -> f64 {
    let budget: u128 = if smoke() { 5_000_000 } else { 500_000_000 };
    let start = Instant::now();
    f();
    let once = start.elapsed().as_nanos().max(1);
    let iters = (budget / once).clamp(3, 20_000) as u64;
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Runs `f` with the kernel backend forced to `b` (`None` = runtime
/// detection), restoring automatic detection afterwards.
fn with_backend<T>(b: Option<SimdBackend>, f: impl FnOnce() -> T) -> T {
    simd::force_backend(b);
    let out = f();
    simd::force_backend(None);
    out
}

/// `f` timed under the detected backend and under the forced AVX2 lanes.
fn detected_and_avx2(mut f: impl FnMut()) -> [f64; 2] {
    [None, Some(SimdBackend::Avx2)].map(|b| with_backend(b, || time_ns(&mut f)))
}

struct Ctx {
    eval: Evaluator,
    keys: GaloisKeys,
    ct: Ciphertext,
    ct2: Ciphertext,
    pt: PreparedPlaintext,
}

fn ctx_for(params: BfvParams) -> Ctx {
    let mut kg = KeyGenerator::from_seed(params.clone(), 11);
    let pk = kg.public_key().unwrap();
    let keys = kg.galois_keys_for_steps(&[1]).unwrap();
    let encoder = BatchEncoder::new(params.clone());
    let mut enc = Encryptor::from_public_key(pk, 12);
    let eval = Evaluator::new(params.clone());
    let t = params.plain_modulus().value();
    let values: Vec<u64> = (0..4096u64).map(|v| v % t).collect();
    let raw = encoder.encode(&values).unwrap();
    let ct = enc.encrypt(&raw).unwrap();
    let ct2 = enc.encrypt(&raw).unwrap();
    let pt = eval.prepare_plaintext_at(&raw, 0).unwrap();
    Ctx {
        eval,
        keys,
        ct,
        ct2,
        pt,
    }
}

fn ctx() -> Ctx {
    ctx_for(
        BfvParams::builder()
            .degree(4096)
            .plain_bits(17)
            .cipher_bits(60)
            .a_dcmp(1 << 20)
            .build()
            .unwrap(),
    )
}

/// Terms of the `l{1,2,3}_dot_plain_26` group sum: about one giant group
/// of a 256-diagonal FC layer (`bench_e2e`'s `mlp_digit` first layer runs
/// 256 masks in 37 rotations).
const DOT_TERMS: usize = 26;

/// Per-preset timings, using the in-place ops. `rotate_hoisted` is the
/// marginal cost of one extra rotation of an already-hoisted set —
/// permutations + key-switch multiply-accumulates, zero NTTs. Multi-limb
/// presets also time the leveled primitives: `mod_switch` (one dropped
/// limb, including the copy into the reusable output) and
/// `rotate_level1` (a rotation after one drop — fewer live planes, fewer
/// digits — the measurable payoff of leveled evaluation).
struct LimbPoint {
    limbs: usize,
    add: f64,
    mul: f64,
    /// One [`DOT_TERMS`]-term `mul_plain_accumulate_many`.
    dot_plain: f64,
    /// Rotation with the backend pinned to scalar — comparable across the
    /// SIMD work.
    rotate: f64,
    /// The same rotation under the runtime-detected backend.
    rotate_simd: f64,
    rotate_hoisted: f64,
    /// The same replay under the forced AVX2 lanes.
    rotate_hoisted_avx2: f64,
    /// `Some((mod_switch_ns, rotate_level1_ns))` for chains with a level
    /// to drop to.
    leveled: Option<(f64, f64)>,
}

fn per_limb_point(params: BfvParams) -> LimbPoint {
    let limbs = params.limbs();
    let c = ctx_for(params.clone());
    let mut work = c.ct.clone();
    let add = time_ns(|| {
        c.eval
            .add_assign(black_box(&mut work), black_box(&c.ct2))
            .unwrap();
    });
    let mut work = c.ct.clone();
    let mul = time_ns(|| {
        c.eval
            .mul_plain_assign(black_box(&mut work), &c.pt)
            .unwrap();
    });
    // One BSGS group's inner sum: 26 distinct masks against alternating
    // ciphertexts, accumulated in one lazy pass.
    let encoder = BatchEncoder::new(params.clone());
    let t = params.plain_modulus().value();
    let masks: Vec<PreparedPlaintext> = (0..DOT_TERMS as u64)
        .map(|k| {
            let values: Vec<u64> = (0..4096u64).map(|v| (v * (k + 2) + k) % t).collect();
            c.eval
                .prepare_plaintext_at(&encoder.encode(&values).unwrap(), 0)
                .unwrap()
        })
        .collect();
    let terms: Vec<(&Ciphertext, &PreparedPlaintext)> = masks
        .iter()
        .enumerate()
        .map(|(k, mask)| (if k % 2 == 0 { &c.ct } else { &c.ct2 }, mask))
        .collect();
    let mut work = c.ct.clone();
    let dot_plain = time_ns(|| {
        c.eval
            .mul_plain_accumulate_many(black_box(&mut work), black_box(&terms))
            .unwrap();
    });
    let mut scratch: Scratch = c.eval.new_scratch();
    let mut out = Ciphertext::transparent_zero_at(c.eval.params(), 0);
    let rotate = with_backend(Some(SimdBackend::Scalar), || {
        time_ns(|| {
            c.eval
                .rotate_rows_into(&mut out, black_box(&c.ct), 1, &c.keys, &mut scratch)
                .unwrap();
        })
    });
    let rotate_simd = time_ns(|| {
        c.eval
            .rotate_rows_into(&mut out, black_box(&c.ct), 1, &c.keys, &mut scratch)
            .unwrap();
    });
    let mut hoisted = HoistedDecomposition::empty(c.eval.params());
    c.eval
        .hoist_into(&mut hoisted, &c.ct, &mut scratch)
        .unwrap();
    let [rotate_hoisted, rotate_hoisted_avx2] = detected_and_avx2(|| {
        c.eval
            .rotate_hoisted_into(
                &mut out,
                black_box(&c.ct),
                &hoisted,
                1,
                &c.keys,
                &mut scratch,
            )
            .unwrap();
    });
    let leveled = (params.max_level() >= 1).then(|| {
        let mut switched = Ciphertext::transparent_zero_at(c.eval.params(), 0);
        let mod_switch = time_ns(|| {
            switched.copy_from(black_box(&c.ct));
            c.eval.mod_switch_to_next_assign(&mut switched).unwrap();
        });
        let mut low_out = Ciphertext::transparent_zero_at(c.eval.params(), 1);
        let rotate_level1 = time_ns(|| {
            c.eval
                .rotate_rows_into(&mut low_out, black_box(&switched), 1, &c.keys, &mut scratch)
                .unwrap();
        });
        (mod_switch, rotate_level1)
    });
    LimbPoint {
        limbs,
        add,
        mul,
        dot_plain,
        rotate,
        rotate_simd,
        rotate_hoisted,
        rotate_hoisted_avx2,
        leveled,
    }
}

/// Unit costs of the three constant-multiply stages on the 36-bit presets,
/// each as `[detected, forced AVX2 lanes]`: the digit decomposition of a
/// level-0 `rns_3x36` polynomial, the hybrid decomposition of a level-0
/// `hybrid_2x36` one, and the evaluation-form `P`-rescale of one
/// accumulator on its key-switch chain (with the 32 KiB copy that puts the
/// dropped plane back).
fn constant_multiply_points() -> [[f64; 2]; 3] {
    let residues = |chain: &cheetah_bfv::ModulusChain, limbs: usize| {
        let n = chain.degree() as u64;
        let data = (0..limbs as u64 * n)
            .map(|k| {
                let q = chain.modulus((k / n) as usize).value();
                k.wrapping_mul(0x9e37_79b9_7f4a_7c15) % q
            })
            .collect();
        RnsPoly::from_data(data, limbs, n as usize, Representation::Coeff)
    };
    let digit = BfvParams::preset_rns_3x36(4096).unwrap();
    let chain = digit.chain();
    let src = residues(chain, chain.limbs());
    let mut digits = vec![RnsPoly::zero(chain, Representation::Coeff); digit.l_ct_at(0)];
    let decompose = detected_and_avx2(|| {
        black_box(&src)
            .rns_decompose_into(digit.a_dcmp(), chain, &mut digits)
            .unwrap();
    });

    let hybrid = BfvParams::preset_hybrid_2x36(4096).unwrap();
    let (chain, ks) = (hybrid.chain(), hybrid.ks_chain_at(0));
    // The decomposition normalizes its input in place; residues stay
    // residues, so every pass does the same work.
    let mut src = residues(chain, chain.limbs());
    let mut digits = vec![RnsPoly::zero(ks, Representation::Coeff); hybrid.ks_digits_at(0)];
    let hybrid_decompose = detected_and_avx2(|| {
        black_box(&mut src)
            .hybrid_decompose_into(chain, ks, &mut digits)
            .unwrap();
    });

    let mut raised = residues(ks, ks.limbs());
    raised.set_representation(Representation::Eval);
    let special = ks.limbs() - 1;
    let mut acc = raised.clone();
    let mut tmp = vec![0; ks.degree()];
    let rescale = detected_and_avx2(|| {
        acc.resize_limbs(ks.limbs());
        acc.limb_mut(special).copy_from_slice(raised.limb(special));
        ks.divide_round_by_last(black_box(&mut acc), &mut tmp)
            .unwrap();
    });
    [decompose, hybrid_decompose, rescale]
}

/// A session's key setup on one preset, piece by piece: one CBD noise
/// polynomial and one uniform one (`UniformStream::next_poly`, the
/// expansion's draw) over the key-switch chain, one seeded Galois key, its
/// expansion by the server (a clone of the one-key set included), one
/// seeded level-0 encryption, and the pointwise product and
/// multiply-accumulate over the key-switch chain as `[detected, forced AVX2
/// lanes]`.
struct SetupPoint {
    preset: &'static str,
    noise_poly: f64,
    uniform_poly: f64,
    seeded_galois_key: f64,
    key_expand: f64,
    encrypt_seeded: f64,
    mul_pointwise: [f64; 2],
    fma_pointwise: [f64; 2],
}

fn setup_point(preset: &'static str, params: BfvParams) -> SetupPoint {
    let ks = params.ks_chain_at(0);
    let mut rng = BfvRng::from_seed(41, params.sigma());
    let noise_poly = time_ns(|| {
        black_box(rng.noise_rns(ks));
    });
    let mut stream = UniformStream::new(42, ks);
    let uniform_poly = time_ns(|| {
        black_box(stream.next_poly());
    });
    let mut kg = KeyGenerator::from_seed(params.clone(), 43);
    let g = cheetah_bfv::keys::element_for_step(params.degree(), 1).unwrap();
    let seeded_galois_key = time_ns(|| {
        black_box(kg.seeded_galois_key(black_box(g)).unwrap());
    });
    let keys = kg.seeded_galois_keys_for_steps(&[1]).unwrap();
    let key_expand = time_ns(|| {
        black_box(black_box(&keys).clone().expand(&params));
    });
    let encoder = BatchEncoder::new(params.clone());
    let t = params.plain_modulus().value();
    let values: Vec<u64> = (0..params.degree() as u64).map(|v| v % t).collect();
    let pt = encoder.encode(&values).unwrap();
    let mut enc = Encryptor::from_secret_key(kg.secret_key().clone(), 44);
    let encrypt_seeded = time_ns(|| {
        black_box(enc.encrypt_seeded_at(black_box(&pt), 0).unwrap());
    });
    let (a, b) = (stream.next_poly(), stream.next_poly());
    let mut r = stream.next_poly();
    let mul_pointwise = detected_and_avx2(|| {
        r.mul_assign_pointwise(black_box(&a), ks).unwrap();
    });
    let fma_pointwise = detected_and_avx2(|| {
        r.fma_pointwise(black_box(&a), black_box(&b), ks).unwrap();
    });
    SetupPoint {
        preset,
        noise_poly,
        uniform_poly,
        seeded_galois_key,
        key_expand,
        encrypt_seeded,
        mul_pointwise,
        fma_pointwise,
    }
}

/// FC-layer timings on one multi-limb preset: the auto plan vs the
/// forced untiled `b = 1` diagonal method, on the same weights and keys,
/// at level 0 and after one modulus switch. Decryption is not on the timed
/// path, so the preset's default decomposition base is fine — only the
/// rotation structure is under test.
struct FcPoint {
    limbs: usize,
    diag: f64,
    bsgs: f64,
    /// The auto plan's layer forced to `tiles = 1` (under the baby width
    /// the chooser picks for the untiled diagonals).
    bsgs_untiled: f64,
    diag_level1: f64,
    bsgs_level1: f64,
    /// The same layer with 90% of the folded diagonals pruned whole — the
    /// rotations and mask multiplies the structure analyzer lets the plan
    /// skip.
    bsgs_sparse90: f64,
}

/// Zeroes `dead_frac` of the folded diagonals of an FC weight tensor
/// (classes `1..=dead`; class 0 stays live), the structured unit
/// [`cheetah_core::sparse::FcStructure`] can skip whole.
fn prune_fc_classes(weights: &Tensor, no: usize, ni: usize, dead_frac: f64) -> Tensor {
    let g = cheetah_nn::layer::folded_diagonals(no, ni);
    let dead = ((g as f64) * dead_frac) as usize;
    let mut out = weights.clone();
    let data = out.data_mut();
    for r in 0..no {
        for c in 0..ni {
            let class = ((c % g) + g - (r % g)) % g;
            if (1..=dead).contains(&class) {
                data[r * ni + c] = 0;
            }
        }
    }
    out
}

fn fc_point(params: BfvParams) -> FcPoint {
    // 256 → 64 (`bench_e2e`'s second MLP layer): d = 64 folded diagonals,
    // tiled 16 times over both rows into δ = 4 — enough for a split. A
    // smoke run takes 512 → 32: eight copies fit the two rows, δ = 4. The
    // client adds the windows up, so every variant times the kernel alone.
    let (ni, no) = if smoke() { (512, 32) } else { (256, 64) };
    let spec = FcSpec {
        name: "bench-fc".into(),
        ni,
        no,
    };
    let mut kg = KeyGenerator::from_seed(params.clone(), 21);
    let pk = kg.public_key().unwrap();
    let encoder = BatchEncoder::new(params.clone());
    let mut enc = Encryptor::from_public_key(pk, 22);
    let eval = Evaluator::new(params.clone());
    let weights = Tensor::from_data(
        &[spec.no, spec.ni],
        (0..spec.no * spec.ni).map(|i| (i % 5) as i64 - 2).collect(),
    );

    // `fc_bsgs` is the auto plan; `fc_bsgs_untiled` the same layer at
    // `tiles = 1`; `fc_diag` the diagonal method — the untiled kernel forced
    // to baby width 1 (multiply the fresh input, rotate each partial
    // product directly).
    let bsgs = HomFc::new(&spec, &weights, &encoder, &eval).unwrap();
    assert!(
        bsgs.fc_plan().tiles > 1 && bsgs.fc_plan().kernel.b > 1,
        "d = {} must auto-select a tiled BSGS split, got {}",
        spec.no,
        bsgs.fc_plan().label()
    );
    let dense = FcStructure::dense(spec.no, spec.ni);
    let forced = |baby: usize| {
        HomFc::with_forced_plan(&spec, &weights, &encoder, &eval, &dense, baby, 1).unwrap()
    };
    let untiled = forced(BsgsPlan::choose(&dense, &HeCostParams::for_bfv(&params, 0)).b);
    let diag = forced(1);

    // Sparse variant: the same layer with 90% of the folded diagonals
    // pruned whole; the plan covers the live ones only.
    let pruned = prune_fc_classes(&weights, spec.no, spec.ni, 0.9);
    let sparse90 = HomFc::new(&spec, &pruned, &encoder, &eval).unwrap();
    assert!(
        sparse90.fc_plan().live < spec.no / 5,
        "a 90%-pruned layer must plan over its live diagonals only"
    );

    let layers = [&diag, &bsgs, &untiled, &sparse90];
    let steps: Vec<i64> = layers.iter().flat_map(|l| l.rotation_steps()).collect();
    let keys = kg.galois_keys_for_steps(&steps).unwrap();
    // Every variant reads the input packed the way its own plan tiles it.
    let input = Tensor::from_data(&[spec.ni], (0..spec.ni as i64).collect());
    let mut time_fc = |layer: &HomFc, level: usize| {
        let fresh = enc
            .encrypt(&layer.encode_input(&input, &encoder).unwrap())
            .unwrap();
        let mut ct = fresh;
        eval.mod_switch_to_assign(&mut ct, level).unwrap();
        time_ns(|| {
            let out =
                layer.apply_with_scratch(black_box(&ct), &eval, &keys, &mut eval.new_scratch());
            black_box(out.unwrap());
        })
    };

    FcPoint {
        limbs: params.limbs(),
        diag: time_fc(&diag, 0),
        bsgs: time_fc(&bsgs, 0),
        bsgs_untiled: time_fc(&untiled, 0),
        diag_level1: time_fc(&diag, 1),
        bsgs_level1: time_fc(&bsgs, 1),
        bsgs_sparse90: time_fc(&sparse90, 0),
    }
}

/// One evaluation of the packed convolution — 8→16 channels, 8×8, 3×3,
/// `bench_e2e`'s `cnn_digit` layer 1 — under its auto plan at level 0:
/// `(limbs, ns)`.
fn conv_point(params: BfvParams) -> (usize, f64) {
    let spec = ConvSpec {
        name: "bench-conv".into(),
        w: 8,
        fw: 3,
        ci: 8,
        co: 16,
        stride: 1,
        pad: 1,
    };
    let mut kg = KeyGenerator::from_seed(params.clone(), 31);
    let pk = kg.public_key().unwrap();
    let encoder = BatchEncoder::new(params.clone());
    let mut enc = Encryptor::from_public_key(pk, 32);
    let eval = Evaluator::new(params.clone());
    let len = spec.co * spec.ci * spec.fw * spec.fw;
    let weights = Tensor::from_data(
        &[spec.co, spec.ci, spec.fw, spec.fw],
        (0..len).map(|i| (i % 5) as i64 - 2).collect(),
    );
    let layer = HomConv2d::new(&spec, &weights, &encoder, &eval).unwrap();
    let plan = layer.conv_plan();
    assert_eq!(
        (plan.rotations(), plan.live_masks(), plan.outputs()),
        (15, 72, 1),
        "8 replays + 7 Horner steps, 72 masks, one output ciphertext"
    );
    let keys = kg.galois_keys_for_steps(&layer.rotation_steps()).unwrap();
    let input = Tensor::from_data(
        &[spec.ci, spec.w, spec.w],
        (0..spec.ci * spec.w * spec.w)
            .map(|i| (i % 7) as i64 - 3)
            .collect(),
    );
    let ct = enc
        .encrypt(&HomConv2d::encode_input(&spec, &input, &encoder).unwrap())
        .unwrap();
    let ns = time_ns(|| {
        let out = layer.apply_with_scratch(black_box(&ct), &eval, &keys, &mut eval.new_scratch());
        black_box(out.unwrap());
    });
    (params.limbs(), ns)
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_he_ops.json".to_string());
    let c = ctx();
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    // --- HE operators: into a fresh output vs the zero-alloc hot path ---
    let add_alloc = time_ns(|| {
        let mut out = black_box(&c.ct).clone();
        c.eval.add_assign(&mut out, black_box(&c.ct2)).unwrap();
    });
    let mut work = c.ct.clone();
    let add_assign = time_ns(|| {
        c.eval
            .add_assign(black_box(&mut work), black_box(&c.ct2))
            .unwrap();
    });

    let mul_alloc = time_ns(|| {
        let mut out = black_box(&c.ct).clone();
        c.eval.mul_plain_assign(&mut out, &c.pt).unwrap();
    });
    let mut work = c.ct.clone();
    let mul_assign = time_ns(|| {
        c.eval
            .mul_plain_assign(black_box(&mut work), &c.pt)
            .unwrap();
    });

    let mut scratch: Scratch = c.eval.new_scratch();
    let rotate_alloc = time_ns(|| {
        let mut out = Ciphertext::transparent_zero_at(c.eval.params(), 0);
        c.eval
            .rotate_rows_into(&mut out, black_box(&c.ct), 1, &c.keys, &mut scratch)
            .unwrap();
    });
    let mut rot_out = Ciphertext::transparent_zero_at(c.eval.params(), 0);
    let rotate_into = time_ns(|| {
        c.eval
            .rotate_rows_into(&mut rot_out, black_box(&c.ct), 1, &c.keys, &mut scratch)
            .unwrap();
    });

    // --- Hoisted rotation: the one-time hoist and the per-step replay ---
    let mut hoisted = HoistedDecomposition::empty(c.eval.params());
    let hoist = time_ns(|| {
        c.eval
            .hoist_into(&mut hoisted, black_box(&c.ct), &mut scratch)
            .unwrap();
    });
    let rotate_hoisted = time_ns(|| {
        c.eval
            .rotate_hoisted_into(
                &mut rot_out,
                black_box(&c.ct),
                &hoisted,
                1,
                &c.keys,
                &mut scratch,
            )
            .unwrap();
    });

    // --- Single-table NTT: forced scalar vs forced AVX2 lanes vs detected ---
    // One 4096-point transform of one 36-bit limb (the limb width of every
    // `bench_e2e` chain, under the IFMA kernel's 2^50 gate), forward and
    // inverse apart: the narrowest pin of the butterfly kernels themselves,
    // with no key-switch machinery around them.
    let [[ntt, ntt_avx2, ntt_simd], [intt, _, intt_simd]] = {
        let q = cheetah_bfv::arith::Modulus::new(
            cheetah_bfv::arith::generate_ntt_prime(36, 4096).unwrap(),
        )
        .unwrap();
        let table = cheetah_bfv::ntt::NttTable::new(4096, q).unwrap();
        let mut buf: Vec<u64> = (0..4096u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) % q.value())
            .collect();
        let transforms: [fn(&cheetah_bfv::ntt::NttTable, &mut [u64]); 2] =
            [|t, a| t.forward(a), |t, a| t.inverse(a)];
        transforms.map(|transform| {
            [Some(SimdBackend::Scalar), Some(SimdBackend::Avx2), None]
                .map(|b| with_backend(b, || time_ns(|| transform(&table, black_box(&mut buf)))))
        })
    };

    // --- The constant-multiply loops: detected backend vs forced AVX2 ---
    let [decompose, hybrid_decompose, rescale] = constant_multiply_points();

    // --- Modulus switching: one dropped limb on a 2-limb chain ---
    let mod_switch = {
        let c2 = ctx_for(BfvParams::preset_rns_2x30(4096).unwrap());
        let mut switched = Ciphertext::transparent_zero_at(c2.eval.params(), 0);
        time_ns(|| {
            switched.copy_from(black_box(&c2.ct));
            c2.eval.mod_switch_to_next_assign(&mut switched).unwrap();
        })
    };

    // --- Hybrid special-prime rotations vs their equal-plane digit twins ---
    // hybrid_1x54 (1 data limb + P = 2 planes) twins l2 (rns_2x30);
    // hybrid_2x36 (2 data limbs + P = 3 planes) twins l3 (rns_3x36).
    let hybrid_rotate = |params: BfvParams| -> (f64, f64) {
        let hc = ctx_for(params);
        let mut hs: Scratch = hc.eval.new_scratch();
        let mut hout = Ciphertext::transparent_zero_at(hc.eval.params(), 0);
        let rot = time_ns(|| {
            hc.eval
                .rotate_rows_into(&mut hout, black_box(&hc.ct), 1, &hc.keys, &mut hs)
                .unwrap();
        });
        let mut hd = HoistedDecomposition::empty(hc.eval.params());
        let hoist = time_ns(|| {
            hc.eval
                .hoist_into(&mut hd, black_box(&hc.ct), &mut hs)
                .unwrap();
        });
        (rot, hoist)
    };
    let (l2_rotate_hybrid, hoist_hybrid) =
        hybrid_rotate(BfvParams::preset_hybrid_1x54(4096).unwrap());
    let (l3_rotate_hybrid, _) = hybrid_rotate(BfvParams::preset_hybrid_2x36(4096).unwrap());

    // --- Per-limb-count RNS points: 1/2/3-limb chains at n = 4096 ---
    let limb_points: Vec<LimbPoint> = [
        BfvParams::preset_single_60(4096).unwrap(),
        BfvParams::preset_rns_2x30(4096).unwrap(),
        BfvParams::preset_rns_3x36(4096).unwrap(),
    ]
    .into_iter()
    .map(per_limb_point)
    .collect();

    // --- FC layers: BSGS vs diagonal on the multi-limb presets ---
    let fc_points: Vec<FcPoint> = [
        BfvParams::preset_rns_2x30(4096).unwrap(),
        BfvParams::preset_rns_3x36(4096).unwrap(),
    ]
    .into_iter()
    .map(fc_point)
    .collect();

    // --- A session's key setup, piece by piece, on the bench chains ---
    let setup_points = [
        ("rns_3x36", BfvParams::preset_rns_3x36(4096).unwrap()),
        ("hybrid_2x36", BfvParams::preset_hybrid_2x36(4096).unwrap()),
    ]
    .map(|(name, params)| setup_point(name, params));

    // --- Packed convolution on the multi-limb presets ---
    let conv_points = [
        BfvParams::preset_rns_2x30(4096).unwrap(),
        BfvParams::preset_rns_3x36(4096).unwrap(),
    ]
    .map(conv_point);

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"degree\": 4096,");
    let _ = writeln!(json, "  \"cores\": {cores},");
    let _ = writeln!(json, "  \"simd_backend\": \"{}\",", simd::detect().name());
    let _ = writeln!(json, "  \"ops_ns\": {{");
    let _ = writeln!(json, "    \"add\": {add_alloc:.1},");
    let _ = writeln!(json, "    \"add_assign\": {add_assign:.1},");
    let _ = writeln!(json, "    \"mul_plain\": {mul_alloc:.1},");
    let _ = writeln!(json, "    \"mul_plain_assign\": {mul_assign:.1},");
    let _ = writeln!(json, "    \"rotate\": {rotate_alloc:.1},");
    let _ = writeln!(json, "    \"rotate_into\": {rotate_into:.1},");
    let _ = writeln!(json, "    \"hoist\": {hoist:.1},");
    let _ = writeln!(json, "    \"hoist_hybrid\": {hoist_hybrid:.1},");
    let _ = writeln!(json, "    \"rotate_hoisted\": {rotate_hoisted:.1},");
    let _ = writeln!(json, "    \"mod_switch\": {mod_switch:.1},");
    for (name, [detected, avx2]) in [
        ("decompose", decompose),
        ("hybrid_decompose", hybrid_decompose),
        ("rescale", rescale),
    ] {
        let _ = writeln!(json, "    \"{name}\": {detected:.1},");
        let _ = writeln!(json, "    \"{name}_avx2\": {avx2:.1},");
    }
    let _ = writeln!(json, "    \"ntt\": {ntt:.1},");
    let _ = writeln!(json, "    \"ntt_avx2\": {ntt_avx2:.1},");
    let _ = writeln!(json, "    \"ntt_simd\": {ntt_simd:.1},");
    let _ = writeln!(json, "    \"intt\": {intt:.1},");
    let _ = writeln!(json, "    \"intt_simd\": {intt_simd:.1}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"per_limb_ns\": {{");
    for p in &limb_points {
        let limbs = p.limbs;
        let trail = ",";
        let _ = writeln!(json, "    \"l{limbs}_add\": {:.1},", p.add);
        let _ = writeln!(json, "    \"l{limbs}_mul\": {:.1},", p.mul);
        let _ = writeln!(
            json,
            "    \"l{limbs}_dot_plain_{DOT_TERMS}\": {:.1},",
            p.dot_plain
        );
        let _ = writeln!(json, "    \"l{limbs}_rotate\": {:.1},", p.rotate);
        let _ = writeln!(json, "    \"l{limbs}_rotate_simd\": {:.1},", p.rotate_simd);
        let _ = writeln!(
            json,
            "    \"l{limbs}_rotate_hoisted\": {:.1},",
            p.rotate_hoisted
        );
        let _ = writeln!(
            json,
            "    \"l{limbs}_rotate_hoisted_avx2\": {:.1}{trail}",
            p.rotate_hoisted_avx2
        );
        if let Some((ms, r1)) = p.leveled {
            let _ = writeln!(json, "    \"l{limbs}_mod_switch\": {ms:.1},");
            let _ = writeln!(json, "    \"l{limbs}_rotate_level1\": {r1:.1}{trail}");
        }
    }
    let _ = writeln!(json, "    \"l2_rotate_hybrid\": {l2_rotate_hybrid:.1},");
    let _ = writeln!(json, "    \"l3_rotate_hybrid\": {l3_rotate_hybrid:.1}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"fc_layer_ns\": {{");
    for (idx, p) in fc_points.iter().enumerate() {
        let limbs = p.limbs;
        let trail = if idx + 1 < fc_points.len() { "," } else { "" };
        let _ = writeln!(json, "    \"l{limbs}_fc_diag\": {:.1},", p.diag);
        let _ = writeln!(json, "    \"l{limbs}_fc_bsgs\": {:.1},", p.bsgs);
        let _ = writeln!(
            json,
            "    \"l{limbs}_fc_bsgs_untiled\": {:.1},",
            p.bsgs_untiled
        );
        let _ = writeln!(
            json,
            "    \"l{limbs}_fc_diag_level1\": {:.1},",
            p.diag_level1
        );
        let _ = writeln!(
            json,
            "    \"l{limbs}_fc_bsgs_level1\": {:.1},",
            p.bsgs_level1
        );
        let _ = writeln!(
            json,
            "    \"l{limbs}_fc_bsgs_sparse90\": {:.1}{trail}",
            p.bsgs_sparse90
        );
    }
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"conv_layer_ns\": {{");
    let [(la, a), (lb, b)] = conv_points;
    let _ = writeln!(json, "    \"l{la}_conv_packed\": {a:.1},");
    let _ = writeln!(json, "    \"l{lb}_conv_packed\": {b:.1}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"setup_ns\": {{");
    for (idx, p) in setup_points.iter().enumerate() {
        let name = p.preset;
        let trail = if idx + 1 < setup_points.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(json, "    \"{name}_noise_poly\": {:.1},", p.noise_poly);
        let _ = writeln!(json, "    \"{name}_uniform_poly\": {:.1},", p.uniform_poly);
        let _ = writeln!(
            json,
            "    \"{name}_seeded_galois_key\": {:.1},",
            p.seeded_galois_key
        );
        let _ = writeln!(json, "    \"{name}_key_expand\": {:.1},", p.key_expand);
        let _ = writeln!(
            json,
            "    \"{name}_encrypt_seeded\": {:.1},",
            p.encrypt_seeded
        );
        let [mul, mul_avx2] = p.mul_pointwise;
        let [fma, fma_avx2] = p.fma_pointwise;
        let _ = writeln!(json, "    \"{name}_mul_pointwise\": {mul:.1},");
        let _ = writeln!(json, "    \"{name}_mul_pointwise_avx2\": {mul_avx2:.1},");
        let _ = writeln!(json, "    \"{name}_fma_pointwise\": {fma:.1},");
        let _ = writeln!(
            json,
            "    \"{name}_fma_pointwise_avx2\": {fma_avx2:.1}{trail}"
        );
    }
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");

    std::fs::write(&out_path, &json).expect("write BENCH_he_ops.json");
    print!("{json}");
    eprintln!("wrote {out_path}");
}
