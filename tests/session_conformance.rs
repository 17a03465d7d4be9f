//! End-to-end conformance suite: the first whole-protocol correctness pin
//! (until now only per-op paths were pinned).
//!
//! The tiny-CNN [`PrivateInferenceSession`] runs on all three preset
//! modulus chains (single 60-bit / 2×30 / 3×36, with the session's
//! `A = 2^6` decomposition base), and for each run the suite asserts:
//!
//! * the decrypted prediction equals a cleartext reference network
//!   **bit-exactly**;
//! * every ciphertext message in the transcript matches the wire
//!   module's size at its recorded level, every limb plane packed at its
//!   limb's width: uploads are encrypted at the level their layer runs at
//!   and ship seeded (an 8-byte PRNG seed replaces the whole `c1`
//!   component), while masked
//!   downloads ship both components — one ciphertext a layer, the
//!   convolution's two output channels included — and shrink with the
//!   shipping level, the deepest the layer's output noise allows;
//! * every linear layer's *measured* invariant noise sits under the
//!   engine-tracked estimate, which sits under the layer's `noise_after`
//!   planning bound — `measured ≤ tracked ≤ predicted`, per layer, per
//!   preset chain.
//!
//! The benchmark's MLP and CNN shapes run the same noise chain on the two
//! 36-bit benchmark presets, with the level each layer reaches pinned: the
//! FC bound no longer carries a fold's rotate-and-sum, so the last layer
//! of both networks runs one level down on the digit chain. Every layer's
//! download ships on the last limb, and clears the client's decrypt gate
//! at sixteen key seeds; every upload arrives at its layer's level — its
//! header, the layer's report and the prepared model agree — and the
//! layers' reported upload and download bytes and the garbled circuits add
//! up to the online bytes.

use cheetah::bfv::{wire, BfvParams};
use cheetah::core::linear::FcPlan;
use cheetah::core::{FcStructure, HeCostParams};
use cheetah::nn::inference::{infer, random_input};
use cheetah::nn::models::tiny_cnn;
use cheetah::nn::{Layer, LinearLayer, Network, Weights};
use cheetah::serve::PrivateInferenceSession;

const N: usize = 4096;

/// The three preset chains, instantiated with the session's decomposition
/// base (`A = 2^6`; the named `BfvParams::preset_*` constructors keep the
/// builder default `A = 2^20`, whose key-switch additive would exhaust a
/// 32-diagonal FC layer on the 60-bit chains) and the plaintext moduli the
/// session tests established per chain.
fn preset_chains() -> Vec<(&'static str, BfvParams)> {
    let single_60 = BfvParams::builder()
        .degree(N)
        .plain_bits(18)
        .cipher_bits(60)
        .a_dcmp(1 << 6)
        .build()
        .unwrap();
    // 30-bit limbs cannot satisfy the Gazelle congruence, so the live
    // `(Q mod t)` rounding term needs the 16-bit t's headroom.
    let rns_2x30 = BfvParams::builder()
        .degree(N)
        .plain_bits(16)
        .moduli_bits(&[30, 30])
        .a_dcmp(1 << 6)
        .build()
        .unwrap();
    let rns_3x36 = BfvParams::builder()
        .degree(N)
        .plain_bits(17)
        .moduli_bits(&[36, 36, 36])
        .a_dcmp(1 << 6)
        .build()
        .unwrap();
    vec![
        ("single_60", single_60),
        ("rns_2x30", rns_2x30),
        ("rns_3x36", rns_3x36),
    ]
}

/// Parses the `lvlN` suffix of a masked-download label.
fn level_of(label: &str) -> usize {
    let idx = label.find("lvl").expect("download labels carry a level");
    label[idx + 3..].trim().parse().expect("level parses")
}

/// The level field of a wire message's header.
fn header_level(message: &[u8]) -> usize {
    let mut w = [0u8; 4];
    w.copy_from_slice(&message[wire::OFF_LEVEL..wire::OFF_LEVEL + 4]);
    u32::from_le_bytes(w) as usize
}

#[test]
fn tiny_cnn_conformance_on_all_preset_chains() {
    let net = tiny_cnn();
    let weights = Weights::random(&net, 2, 2024);
    let input = random_input(&net.input_shape, 3, 2025);
    let expect = infer(&net, &weights, &input).output;

    for (name, params) in preset_chains() {
        let limbs = params.limbs();
        let mut session = PrivateInferenceSession::new(&net, &weights, params.clone(), 7).unwrap();
        // Conformance instrumentation: measure true invariant noise per
        // layer (off by default — it costs a decryption per ciphertext).
        session.enable_noise_measurement();
        let (output, transcript) = session.run(&input).unwrap();

        // 1. Bit-exact against the cleartext reference network.
        assert_eq!(
            output.data(),
            expect.data(),
            "{name}: private inference diverged from cleartext reference"
        );

        // 2. Transcript byte totals match the wire accounting (seeded
        // uploads, full-format downloads).
        let mut uploads = 0;
        let mut downloads = 0;
        let mut accounted = 0usize;
        for m in transcript.messages() {
            if m.label.contains("enc activations") {
                // Clients encrypt fresh at the layer's level, seeded — one
                // c0 component over the live limbs plus the 8-byte seed
                // standing in for all of c1.
                let level = header_level(&m.payload);
                assert!(level < limbs, "{name}: level out of range in {}", m.label);
                assert_eq!(
                    m.bytes,
                    wire::seeded_ciphertext_wire_bytes(&params, level) - wire::HEADER_BYTES,
                    "{name}: upload accounting for {}",
                    m.label
                );
                uploads += 1;
                accounted += m.bytes;
            } else if m.label.contains("enc masked outputs") {
                let level = level_of(&m.label);
                assert!(level < limbs, "{name}: level out of range in {}", m.label);
                assert_eq!(
                    m.bytes,
                    wire::ciphertext_wire_bytes(&params, level) - wire::HEADER_BYTES,
                    "{name}: download accounting for {}",
                    m.label
                );
                downloads += 1;
                accounted += m.bytes;
            }
        }
        assert_eq!(uploads, 3, "{name}: one upload per linear layer");
        assert_eq!(downloads, 3, "{name}: one download per linear layer");
        assert!(
            accounted <= transcript.total_bytes(),
            "{name}: ciphertext bytes exceed the recorded total"
        );
        assert_eq!(transcript.rounds(), 4, "{name}: setup + 3 linear layers");

        // 3. Per-layer noise conformance: measured ≤ tracked ≤ predicted.
        let reports = session.layer_reports();
        assert_eq!(reports.len(), 3, "{name}: one report per linear layer");
        for r in reports {
            let measured = r
                .measured_noise_log2
                .expect("noise measurement was enabled");
            assert!(
                measured <= r.tracked_bound_log2 + 1e-9,
                "{name} L{}: measured 2^{measured:.1} above engine-tracked 2^{:.1}",
                r.layer,
                r.tracked_bound_log2
            );
            assert!(
                r.tracked_bound_log2 <= r.predicted_bound_log2 + 1e-9,
                "{name} L{} ({}): engine-tracked 2^{:.1} above planned 2^{:.1}",
                r.layer,
                r.plan,
                r.tracked_bound_log2,
                r.predicted_bound_log2
            );
            // FC layers must be running the BSGS reshape (d = 32 and 16).
            if r.layer > 0 {
                assert!(
                    r.plan.contains("bsgs"),
                    "{name} L{}: expected a BSGS plan, got {}",
                    r.layer,
                    r.plan
                );
            }
        }
    }
}

#[test]
fn pruned_tiny_cnn_runs_sparse_plans_with_fewer_keys_and_stays_exact() {
    // Structured pruning flows end to end: the prepared model plans over
    // the live diagonals / masks / channels only, the session generates Galois keys
    // for strictly fewer rotation steps than the dense model, and the
    // decrypted output still matches the cleartext reference on the same
    // pruned weights bit-exactly — on every preset chain.
    use std::sync::Arc;

    use cheetah::serve::PreparedModel;

    let net = tiny_cnn();
    let mut weights = Weights::random(&net, 2, 2024);
    weights.prune_to_sparsity(0.6, 31);
    let input = random_input(&net.input_shape, 3, 2025);
    let expect = infer(&net, &weights, &input).output;

    for (name, params) in preset_chains() {
        let dense_steps = {
            let dense = Weights::random(&net, 2, 2024);
            PreparedModel::new(&net, &dense, params.clone())
                .unwrap()
                .required_steps()
                .len()
        };
        let prepared = PreparedModel::new(&net, &weights, params.clone()).unwrap();
        assert!(
            prepared.required_steps().len() < dense_steps,
            "{name}: sparse keygen must shrink ({} vs dense {dense_steps})",
            prepared.required_steps().len()
        );
        // Labels count what is skipped in its own unit: the convolution's
        // 9 `(d, tap)` masks (5 pruned); the FC layers' tiled diagonals,
        // never more of them live than the folded diagonals pruning left
        // (7 of 16 and 2 of 4) — the label is the shared chooser's for
        // that structure. With the fold the client's, both layers tile as
        // wide as they have rows: one tiled diagonal reads every folded
        // one, live or pruned, in one mask multiply and no rotation — on
        // every chain, and there is nothing left for pruning to skip.
        let plans: Vec<String> = (0..3).map(|k| prepared.plan_label(k)).collect();
        assert_eq!(plans[0], "conv packed b=1 g=1 live=4/9 out=1", "{name}");
        let cost = HeCostParams::for_bfv(&params, 0);
        for (k, layer) in net.linear_layers().iter().enumerate().skip(1) {
            let LinearLayer::Fc(spec) = layer else {
                panic!("tiny_cnn ends in two FC layers");
            };
            let structure = FcStructure::analyze_tensor(weights.layer(k), spec);
            let pruned = (structure.live_diagonals(), structure.diagonals());
            assert_eq!(pruned, [(7, 16), (2, 4)][k - 1], "{name} L{k}");
            let plan = FcPlan::choose(&structure, params.slots(), &cost);
            assert_eq!(plans[k], plan.label(), "{name} L{k}");
            assert!(
                plan.live <= pruned.0 && plan.rotations() == 0,
                "{name}: pruned FC layers should plan over live diagonals, got {plans:?}"
            );
            let tiled = [
                "fc bsgs tiles=16 b=1 g=1 live=1/1 fold=32",
                "fc bsgs tiles=4 b=1 g=1 live=1/1 fold=16",
            ];
            assert_eq!(plans[k], tiled[k - 1], "{name} L{k}");
        }

        let mut session = PrivateInferenceSession::with_prepared(Arc::clone(&prepared), 7).unwrap();
        let (output, transcript) = session.run(&input).unwrap();
        assert_eq!(
            output.data(),
            expect.data(),
            "{name}: sparse session diverged from cleartext reference"
        );
        assert_eq!(transcript.rounds(), 4);
    }
}

#[test]
fn deep_chain_ships_reduced_levels_with_consistent_reports() {
    // On the 3×36 chain the statistical planner drops every layer at least
    // one level, and every download ships at the level its layer ran at or
    // deeper; the reports and the transcript must agree on that level.
    let net = tiny_cnn();
    let weights = Weights::random(&net, 2, 4048);
    let input = random_input(&net.input_shape, 3, 4049);
    let (_, params) = preset_chains().pop().unwrap();
    assert_eq!(params.limbs(), 3);

    let mut session = PrivateInferenceSession::new(&net, &weights, params, 11).unwrap();
    let (output, transcript) = session.run(&input).unwrap();
    assert_eq!(output.data(), infer(&net, &weights, &input).output.data());

    let download_levels: Vec<usize> = transcript
        .messages()
        .iter()
        .filter(|m| m.label.contains("enc masked outputs"))
        .map(|m| level_of(&m.label))
        .collect();
    let reports = session.layer_reports();
    let report_levels: Vec<usize> = reports.iter().map(|r| r.level).collect();
    let shipped_levels: Vec<usize> = reports.iter().map(|r| r.shipped_level).collect();
    assert_eq!(
        download_levels, shipped_levels,
        "transcript/report level skew"
    );
    assert!(
        reports.iter().all(|r| r.shipped_level >= r.level),
        "a download ships above its layer: ran {report_levels:?}, shipped {shipped_levels:?}"
    );
    assert!(
        report_levels.iter().all(|&l| l >= 1),
        "every tiny-CNN layer fits below full level on the 3×36 chain: {report_levels:?}"
    );
}

/// The benchmark's MLP (`bench_e2e`'s `mlp_digit` / `mlp_hybrid`).
fn bench_mlp() -> Network {
    Network {
        name: "bench_mlp".into(),
        input_shape: vec![1024],
        layers: vec![
            Layer::fc("fc1", 1024, 256),
            Layer::Relu,
            Layer::fc("fc2", 256, 64),
            Layer::Relu,
            Layer::fc("fc3", 64, 16),
        ],
    }
}

/// The benchmark's CNN (`bench_e2e`'s `cnn_digit`).
fn bench_cnn() -> Network {
    Network {
        name: "bench_cnn".into(),
        input_shape: vec![1, 16, 16],
        layers: vec![
            Layer::conv("conv1", 16, 3, 1, 8, 1, 1),
            Layer::Relu,
            Layer::MaxPool { k: 2, stride: 2 },
            Layer::conv("conv2", 8, 3, 8, 16, 1, 1),
            Layer::Relu,
            Layer::MaxPool { k: 2, stride: 2 },
            Layer::Flatten,
            Layer::fc("fc", 256, 16),
        ],
    }
}

/// One benchmark network on the two 36-bit benchmark presets: exact,
/// `measured ≤ tracked ≤ predicted` per layer, the planner's levels as
/// pinned, every download shipped on the last limb — and sixteen more key
/// seeds through the client's 0.5-bit measured decrypt gate (inside
/// `run`), which every shipped download crosses.
fn check_bench_net(net: &Network, digit_levels: [usize; 3], hybrid_levels: [usize; 3]) {
    let digit = BfvParams::preset_rns_3x36(N).unwrap();
    let hybrid = BfvParams::preset_hybrid_2x36(N).unwrap();
    // The benchmark's value ranges: weights in ±1, inputs in ±3.
    let weights = Weights::random(net, 1, 606);
    let input = random_input(&net.input_shape, 3, 607);
    let expect = infer(net, &weights, &input).output;
    for (chain, params, levels) in [
        ("rns_3x36", digit, digit_levels),
        ("hybrid_2x36", hybrid, hybrid_levels),
    ] {
        let name = format!("{} on {chain}", net.name);
        let mut session = PrivateInferenceSession::new(net, &weights, params.clone(), 7).unwrap();
        session.enable_noise_measurement();
        let (output, transcript) = session.run(&input).unwrap();
        assert_eq!(output.data(), expect.data(), "{name}");
        let reports = session.layer_reports();
        // What each round moved, plus the garbled circuits, is everything
        // after the setup record: the online bytes.
        let online = transcript.total_bytes() - transcript.messages()[0].bytes;
        let gc: usize = transcript
            .messages()
            .iter()
            .filter(|m| m.label.starts_with("garbled circuit"))
            .map(|m| m.bytes)
            .sum();
        let moved: usize = reports
            .iter()
            .map(|r| r.upload_bytes + r.download_bytes)
            .sum();
        assert_eq!(moved + gc, online, "{name}: online bytes");
        let download =
            wire::ciphertext_wire_bytes(&params, params.max_level()) - wire::HEADER_BYTES;
        let uploads = transcript
            .messages()
            .iter()
            .filter(|m| m.label.starts_with("enc activations"));
        assert_eq!(uploads.clone().count(), reports.len(), "{name}: uploads");
        for (r, m) in reports.iter().zip(uploads) {
            // The upload arrived at the level the layer ran at, the one
            // the prepared model fixed for it, and was charged its size.
            let level = session.prepared().level(r.layer);
            assert_eq!(header_level(&m.payload), level, "{name} L{}", r.layer);
            assert_eq!(r.level, level, "{name} L{}", r.layer);
            let upload = wire::seeded_ciphertext_wire_bytes(&params, level) - wire::HEADER_BYTES;
            assert_eq!(r.upload_bytes, upload, "{name} L{}", r.layer);
            assert!(
                r.download_bytes > 0 && r.download_bytes % download == 0,
                "{name} L{}: {} B is no whole number of last-limb ciphertexts",
                r.layer,
                r.download_bytes
            );
        }
        for r in reports {
            let measured = r.measured_noise_log2.expect("measurement is on");
            assert!(
                measured <= r.tracked_bound_log2 + 1e-9
                    && r.tracked_bound_log2 <= r.predicted_bound_log2 + 1e-9,
                "{name} L{} ({}): measured 2^{measured:.1}, tracked 2^{:.1}, predicted 2^{:.1}",
                r.layer,
                r.plan,
                r.tracked_bound_log2,
                r.predicted_bound_log2
            );
        }
        let reached: Vec<usize> = reports.iter().map(|r| r.level).collect();
        assert_eq!(reached, levels, "{name}: planned levels");
        let shipped: Vec<usize> = reports.iter().map(|r| r.shipped_level).collect();
        assert_eq!(shipped, [params.max_level(); 3], "{name}: shipped levels");
        for seed in 100..116 {
            let mut session =
                PrivateInferenceSession::new(net, &weights, params.clone(), seed).unwrap();
            let (output, _) = session
                .run(&input)
                .unwrap_or_else(|e| panic!("{name}, key seed {seed}: {e}"));
            assert_eq!(output.data(), expect.data(), "{name}, key seed {seed}");
        }
    }
}

#[test]
fn bench_mlp_stays_sound_and_reaches_the_planned_levels() {
    check_bench_net(&bench_mlp(), [0, 0, 1], [0, 0, 0]);
}

#[test]
fn bench_cnn_stays_sound_and_reaches_the_planned_levels() {
    check_bench_net(&bench_cnn(), [0, 0, 1], [0, 0, 0]);
}

/// The Galois keys a client of each `bench_e2e` workload uploads: the
/// kernels' steps and nothing for a fold (31 / 26 / 21 / 28 before it moved
/// to the client, 22 / 22 / 15 / 20 before the FC layers filled both
/// batching rows, 16 / 15 / 15 / 13 while an FC layer rotated each giant
/// group home under a key of its own). Every chain's live groups are
/// consecutive from 0, so Horner over them takes one giant key `b` per
/// layer: `fc1` at `b = 13` (digit) or 11 (hybrid) needs its baby steps
/// `1..b` plus `b`, and `fc2`'s steps are a subset of those. The sparse
/// `fc1`'s nine live baby steps plus 13 make `fleet_sparse`'s ten; the CNN
/// was always on one giant key per convolution.
#[test]
fn bench_models_need_keys_for_kernel_steps_only() {
    use cheetah::serve::PreparedModel;

    let digit = BfvParams::preset_rns_3x36(N).unwrap();
    let hybrid = BfvParams::preset_hybrid_2x36(N).unwrap();
    let (mlp, cnn) = (bench_mlp(), bench_cnn());
    // `fleet_sparse`: 90 % of the diagonals pruned, weights ±2^k.
    let mut sparse = Weights::random(&mlp, 2, 11);
    sparse.prune_to_sparsity(0.9, 0x5ba5_e11e);
    sparse.round_to_pow2(3);
    let dense = |net| Weights::random(net, 1, 11);
    for (name, net, weights, params, steps) in [
        ("mlp_digit", &mlp, dense(&mlp), &digit, 13),
        ("mlp_hybrid", &mlp, dense(&mlp), &hybrid, 11),
        ("cnn_digit", &cnn, dense(&cnn), &digit, 15),
        ("fleet_sparse", &mlp, sparse, &hybrid, 10),
    ] {
        let prepared = PreparedModel::new(net, &weights, params.clone()).unwrap();
        assert_eq!(prepared.required_steps().len(), steps, "{name}");
    }
}
