//! The session module's own pins: whole inferences through the one-party
//! façade on the 1-, 2- and 3-limb chains, the shared-preparation
//! contract, and the edges of the halves' state machines (a second
//! inference, an upload past the end, a network with no linear layer).

use super::*;
use crate::ServerPool;
use cheetah_nn::inference::{infer, random_input};
use cheetah_nn::models::tiny_cnn;
use cheetah_nn::Layer;

fn session_params() -> BfvParams {
    BfvParams::builder()
        .degree(4096)
        .plain_bits(18)
        .cipher_bits(60)
        .a_dcmp(1 << 6)
        .build()
        .unwrap()
}

/// Same degree/A as [`session_params`], but the 60-bit ciphertext
/// modulus is a genuine 2-limb RNS chain of distinct 30-bit primes.
/// `t` drops to 16 bits: 30-bit limbs cannot satisfy the Gazelle
/// congruence, so the live `(Q mod t)` multiplication rounding term
/// needs the extra headroom (tiny-CNN activations fit easily).
fn session_params_2_limb() -> BfvParams {
    BfvParams::builder()
        .degree(4096)
        .plain_bits(16)
        .moduli_bits(&[30, 30])
        .a_dcmp(1 << 6)
        .build()
        .unwrap()
}

#[test]
fn tiny_cnn_private_inference_matches_plaintext() {
    let net = tiny_cnn();
    let weights = Weights::random(&net, 2, 11);
    let input = random_input(&net.input_shape, 3, 12);
    let expect = infer(&net, &weights, &input).output;

    let mut session = PrivateInferenceSession::new(&net, &weights, session_params(), 77).unwrap();
    let (output, transcript) = session.run(&input).unwrap();
    assert_eq!(output.data(), expect.data(), "private != plaintext");
    assert!(transcript.total_bytes() > 0);
    assert_eq!(transcript.rounds(), 4); // setup + 3 linear layers
}

#[test]
fn two_limb_chain_private_inference_matches_plaintext() {
    // The RNS migration acceptance path: encrypt → conv → decrypt end
    // to end through the session on a genuine 2-limb chain, with
    // transcript bytes reflecting the limb count.
    let net = tiny_cnn();
    let weights = Weights::random(&net, 2, 51);
    let input = random_input(&net.input_shape, 3, 52);
    let expect = infer(&net, &weights, &input).output;

    let params = session_params_2_limb();
    assert_eq!(params.limbs(), 2);
    let mut session = PrivateInferenceSession::new(&net, &weights, params.clone(), 77).unwrap();
    let (output, transcript) = session.run(&input).unwrap();
    assert_eq!(output.data(), expect.data(), "2-limb private != plaintext");

    // Every upload ships seeded at its layer's level — seed + one c0
    // component packed at its live limbs' widths (`8 + Σ_{i<live} n·w_i/8`
    // bytes): two 30-bit limbs carry the same 60 bits a coefficient as the
    // single 60-bit limb, so a layer that keeps both uploads as much as
    // the single-limb chain does, and one that runs on the last limb half.
    let mut single = PrivateInferenceSession::new(&net, &weights, session_params(), 77).unwrap();
    let (_, transcript_1) = single.run(&input).unwrap();
    let act_bytes = |t: &Transcript| -> Vec<usize> {
        t.messages()
            .iter()
            .filter(|m| m.label.contains("enc activations"))
            .map(|m| m.bytes)
            .collect()
    };
    let up2 = act_bytes(&transcript);
    let up1 = act_bytes(&transcript_1);
    assert_eq!(up2.len(), up1.len());
    let upload = |level| wire::seeded_ciphertext_wire_bytes(&params, level) - wire::HEADER_BYTES;
    for ((b2, b1), r) in up2.iter().zip(&up1).zip(session.layer_reports()) {
        assert_eq!(*b2, upload(r.level));
        let coefficient_bits = if r.level == 0 { 60 } else { 30 };
        assert_eq!(
            (b2 - wire::SEED_BYTES) * 60,
            (b1 - wire::SEED_BYTES) * coefficient_bits,
            "2 × 30 bits and 1 × 60 bits ship alike"
        );
    }
}

/// A 3-limb chain with the session's low decomposition base: deep
/// enough that the planner can drop a limb before every layer.
fn session_params_3_limb() -> BfvParams {
    BfvParams::builder()
        .degree(4096)
        .plain_bits(17)
        .moduli_bits(&[36, 36, 36])
        .a_dcmp(1 << 6)
        .build()
        .unwrap()
}

#[test]
fn leveled_session_drops_limbs_and_matches_plaintext() {
    // The first feature where multi-limb chains are *faster*
    // mid-circuit rather than just roomier: a tiny CNN's noise never
    // needs the full 108-bit ceiling, so the cloud modulus-switches
    // each layer's input down and runs the layer over fewer live limbs,
    // then switches the outputs to the last limb before masking them.
    let net = tiny_cnn();
    let weights = Weights::random(&net, 2, 71);
    let input = random_input(&net.input_shape, 3, 72);
    let expect = infer(&net, &weights, &input).output;

    let params = session_params_3_limb();
    assert_eq!(params.limbs(), 3);
    let mut session = PrivateInferenceSession::new(&net, &weights, params.clone(), 77).unwrap();
    let (output, transcript) = session.run(&input).unwrap();
    assert_eq!(output.data(), expect.data(), "leveled private != plaintext");

    // Uploads are fresh and seeded, encrypted at the level their layer
    // runs at: one c0 over its live limbs plus the 8-byte seed…
    let uploads = transcript
        .messages()
        .iter()
        .filter(|m| m.label.contains("enc activations"));
    for (m, r) in uploads.zip(session.layer_reports()) {
        let upload = wire::seeded_ciphertext_wire_bytes(&params, r.level) - wire::HEADER_BYTES;
        assert_eq!(m.bytes, upload, "{}", m.label);
    }
    // …while every layer ran below level 0 and every masked download
    // shipped on the last limb: one live-limb pair per ciphertext.
    let downloads: Vec<_> = transcript
        .messages()
        .iter()
        .filter(|m| m.label.contains("enc masked outputs"))
        .collect();
    assert_eq!(downloads.len(), 3);
    for (m, r) in downloads.iter().zip(session.layer_reports()) {
        assert!(r.level >= 1, "layer stayed at full level: {}", r.plan);
        assert_eq!(r.shipped_level, 2, "{}", m.label);
        assert!(m.label.ends_with("lvl2"), "{}", m.label);
        let download = wire::ciphertext_wire_bytes(&params, 2) - wire::HEADER_BYTES;
        assert_eq!(m.bytes, download, "{}", m.label);
        let upload = wire::seeded_ciphertext_wire_bytes(&params, r.level) - wire::HEADER_BYTES;
        assert_eq!((r.upload_bytes, r.download_bytes), (upload, m.bytes));
        // The margin the client decrypts under is tracked, and left.
        assert!(
            r.shipped_budget_bits > 0.0,
            "{}: {:.1} bits",
            r.plan,
            r.shipped_budget_bits
        );
        assert!(r.fault.is_none());
    }
}

#[test]
fn a_spent_budget_stops_the_round_before_anything_ships() {
    // A 30-bit `t` under one 60-bit limb: the first layer's dense masks
    // spend the whole budget, no level can take the outputs, and the
    // abort reads the budget of the ciphertexts that would have shipped.
    let params = BfvParams::builder()
        .degree(4096)
        .plain_bits(30)
        .cipher_bits(60)
        .a_dcmp(1 << 6)
        .build()
        .unwrap();
    let net = tiny_cnn();
    let weights = Weights::random(&net, 2, 13);
    let input = random_input(&net.input_shape, 3, 14);
    let mut session = PrivateInferenceSession::new(&net, &weights, params, 15).unwrap();
    assert!(matches!(
        session.run(&input),
        Err(Error::NoiseBudgetExhausted)
    ));
    let reports = session.layer_reports();
    assert_eq!(
        reports.len(),
        1,
        "one report, the layer that spent the budget"
    );
    let report = &reports[0];
    assert_eq!(report.shipped_level, report.level);
    assert!(report.shipped_budget_bits <= 0.0);
    let fault = report.fault.as_deref().unwrap();
    assert!(fault.contains("tracked noise budget exhausted"), "{fault}");
    let downloads = session.server.transcript().messages().iter();
    assert_eq!(
        downloads
            .filter(|m| m.label.contains("enc masked outputs"))
            .count(),
        0
    );
}

#[test]
fn sessions_sharing_one_prepared_model_match_private_preparations() {
    // The serve-layer contract: N clients attached to one shared
    // Arc<PreparedModel> produce exactly the outputs and transcripts
    // they would with private preparations (preparation is
    // client-independent by construction).
    let net = tiny_cnn();
    let weights = Weights::random(&net, 2, 61);
    let input = random_input(&net.input_shape, 3, 62);

    let shared = PreparedModel::new(&net, &weights, session_params()).unwrap();
    // Client seeds this chain's decrypt gate clears: a single 60-bit
    // limb under an 18-bit `t` leaves fc1 about 0.4 bit of measured
    // budget (mask removal's `q mod t` wrap term dominates), so on any
    // layout roughly one seed in ten trips it.
    for seed in [4u64, 5, 6] {
        let mut shared_session =
            PrivateInferenceSession::with_prepared(Arc::clone(&shared), seed).unwrap();
        let mut private_session =
            PrivateInferenceSession::new(&net, &weights, session_params(), seed).unwrap();
        let (out_s, tr_s) = shared_session.run(&input).unwrap();
        let (out_p, tr_p) = private_session.run(&input).unwrap();
        assert_eq!(out_s.data(), out_p.data());
        let bytes = |t: &Transcript| t.messages().iter().map(|m| m.bytes).collect::<Vec<_>>();
        assert_eq!(bytes(&tr_s), bytes(&tr_p));
    }
}

#[test]
fn transcript_grows_with_network_depth() {
    let net = tiny_cnn();
    let weights = Weights::random(&net, 2, 31);
    let input = random_input(&net.input_shape, 3, 32);
    let mut session = PrivateInferenceSession::new(&net, &weights, session_params(), 3).unwrap();
    let (_, transcript) = session.run(&input).unwrap();
    // setup + (up, down, gc) per linear layer.
    assert!(transcript.messages().len() > 3 * 3);
    assert!(transcript.upload_bytes() > 0);
    assert!(transcript.download_bytes() > 0);
}

#[test]
fn masking_keeps_intermediate_values_uniformish() {
    // The activation the client sees between layers is masked: with a
    // fresh uniform mask the masked values should not equal the true
    // activations (probability of collision across a whole tensor is
    // negligible).
    let net = tiny_cnn();
    let weights = Weights::random(&net, 2, 41);
    let input = random_input(&net.input_shape, 3, 42);
    let trace = infer(&net, &weights, &input);
    // Run the protocol and capture the client's masked view indirectly:
    // the protocol is correct (previous test), and the mask rng is
    // seeded differently from the weights, so a sanity spot-check on
    // the final output sufficing here: outputs match but transcript
    // shows masked rounds happened.
    let mut session = PrivateInferenceSession::new(&net, &weights, session_params(), 99).unwrap();
    let (out, transcript) = session.run(&input).unwrap();
    assert_eq!(out.data(), trace.output.data());
    let gc_msgs = transcript
        .messages()
        .iter()
        .filter(|m| m.label.contains("garbled"))
        .count();
    assert_eq!(gc_msgs, 3);
}

/// `(label, accounted bytes)` of every message.
fn shape(t: &Transcript) -> Vec<(String, usize)> {
    t.messages()
        .iter()
        .map(|m| (m.label.clone(), m.bytes))
        .collect()
}

#[test]
fn one_session_runs_two_inputs_back_to_back() {
    // `run` begins both halves afresh — transcript, reports, layer index,
    // previous mask — while keys, encryption randomness and the mask
    // stream carry on: same conversation shape, fresh bytes.
    let net = tiny_cnn();
    let weights = Weights::random(&net, 2, 81);
    let mut session =
        PrivateInferenceSession::new(&net, &weights, session_params_3_limb(), 5).unwrap();

    let mut transcripts = Vec::new();
    for input_seed in [82, 83] {
        let input = random_input(&net.input_shape, 3, input_seed);
        let (output, transcript) = session.run(&input).unwrap();
        assert_eq!(output.data(), infer(&net, &weights, &input).output.data());
        assert_eq!(session.layer_reports().len(), 3, "reports of this run only");
        transcripts.push(transcript);
    }
    assert_eq!(shape(&transcripts[0]), shape(&transcripts[1]));
    let payloads = |t: &Transcript| -> Vec<Vec<u8>> {
        let sent = t.messages().iter().filter(|m| !m.payload.is_empty());
        sent.map(|m| m.payload.clone()).collect()
    };
    let (first, second) = (payloads(&transcripts[0]), payloads(&transcripts[1]));
    assert_eq!(first.len(), 6, "three uploads, three downloads");
    for (a, b) in first.iter().zip(&second) {
        assert_ne!(a, b, "a second inference must not replay the first's bytes");
    }
}

#[test]
fn a_round_past_the_final_layer_is_a_typed_error_on_both_halves() {
    // `process_upload` is public and a client decides how often it is
    // called: one upload too many must come back as a refusal with a
    // fault-bearing report — before it indexes a layer that does not
    // exist, and before anything is recorded.
    let net = tiny_cnn();
    let weights = Weights::random(&net, 2, 91);
    let input = random_input(&net.input_shape, 3, 92);
    let model = PreparedModel::new(&net, &weights, session_params_3_limb()).unwrap();
    let (mut client, setup) = ClientSession::new(Arc::clone(&model), 9, &input).unwrap();
    let mut server = ServerSession::new(Arc::clone(&model), setup, 9).unwrap();
    let mut scratch = model.evaluator().new_scratch();

    let (last_upload, last_download, prediction) = loop {
        let upload = client.next_upload().unwrap();
        let download = server.process_upload(&upload, &mut scratch).unwrap();
        if let Some(prediction) = client.absorb_download(&download).unwrap() {
            break (upload, download, prediction);
        }
    };
    assert_eq!(
        prediction.data(),
        infer(&net, &weights, &input).output.data()
    );
    assert_eq!(server.layer(), 3);

    let recorded = shape(server.transcript());
    let reports = server.reports().len();
    let resent = server.process_upload(&last_upload, &mut scratch);
    assert!(
        matches!(resent, Err(Error::Unsupported(why)) if why.contains("past the final")),
        "a fourth upload to a three-layer model must be refused"
    );
    assert_eq!(shape(server.transcript()), recorded, "nothing recorded");
    assert_eq!(server.reports().len(), reports + 1);
    let fault = server.reports()[reports].fault.as_deref().unwrap();
    assert!(fault.contains("past the final linear layer"), "{fault}");

    // The client holds its prediction: nothing left to send or absorb.
    assert!(matches!(client.next_upload(), Err(Error::Unsupported(_))));
    assert!(matches!(
        client.absorb_download(&last_download),
        Err(Error::Unsupported(_))
    ));
}

#[test]
fn an_upload_at_another_level_than_its_layers_is_refused() {
    // The level each layer runs at is fixed with the model; an upload
    // encrypted anywhere else — here over the full chain for a layer that
    // runs one limb down — is refused with one fault report, before any
    // arithmetic, and nothing is recorded after the upload itself.
    let net = tiny_cnn();
    let weights = Weights::random(&net, 2, 95);
    let input = random_input(&net.input_shape, 3, 96);
    let model = PreparedModel::new(&net, &weights, session_params_3_limb()).unwrap();
    let level = model.round(0).level;
    assert!(level >= 1, "the tiny CNN's first layer runs below level 0");
    let (mut client, setup) = ClientSession::new(Arc::clone(&model), 9, &input).unwrap();
    let mut server = ServerSession::new(Arc::clone(&model), setup, 9).unwrap();
    let mut scratch = model.evaluator().new_scratch();

    let packed = model.pack(0, client.pending().unwrap()).unwrap();
    let (ct, seed) = client.encryptor.encrypt_seeded_at(&packed, 0).unwrap();
    let upload = wire::encode_ciphertext_seeded(&ct, seed).unwrap();
    let refused = server.process_upload(&upload, &mut scratch);
    assert!(
        matches!(
            refused,
            Err(Error::LevelMismatch { expected, found: 0 }) if expected == level
        ),
        "a level-0 upload to a level-{level} layer must be refused"
    );
    assert_eq!(server.reports().len(), 1, "one fault report");
    let fault = server.reports()[0].fault.as_deref().unwrap();
    assert!(fault.contains("different levels"), "{fault}");
    let recorded = shape(server.transcript());
    assert_eq!(recorded.len(), 2, "the setup and the upload: {recorded:?}");
    assert_eq!(recorded[1].0, "enc activations L0");
    assert_eq!(server.layer(), 0);

    // The honest upload, at the layer's level, goes through.
    let honest = client.next_upload().unwrap();
    assert_eq!(
        honest.len(),
        wire::seeded_ciphertext_wire_bytes(model.params(), level)
    );
    server.process_upload(&honest, &mut scratch).unwrap();
    assert_eq!(server.reports()[1].level, level);
}

/// The benchmark's four workloads, `(name, network, weights, chain,
/// Galois keys)`: the nets, weights and chains `bench_e2e` builds for
/// `--seed 1`. Each layer's giant steps share one key (Horner over the
/// live groups), so an MLP needs its widest layer's baby steps `1..b` plus
/// `b` — 13 at `b = 13`, 11 at `b = 11`, and the sparse `fc1`'s nine live
/// baby steps plus 13 — where a key per giant group took 16 / 15 / 13.
/// The CNN's convolutions were always on one giant key each.
fn bench_shapes() -> Vec<(&'static str, Network, Weights, BfvParams, usize)> {
    let mlp = Network {
        name: "bench_mlp".into(),
        input_shape: vec![1024],
        layers: vec![
            Layer::fc("fc1", 1024, 256),
            Layer::Relu,
            Layer::fc("fc2", 256, 64),
            Layer::Relu,
            Layer::fc("fc3", 64, 16),
        ],
    };
    let cnn = Network {
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
    };
    // The bench's weight stream for --seed 1, and its fixed pruning
    // pattern.
    let weight_seed = 0x9e37_79b9_7f4a_7c15u64.wrapping_add(1 << 48);
    let mut sparse = Weights::random(&mlp, 2, weight_seed);
    sparse.prune_to_sparsity(0.9, 0x5ba5_e11e);
    sparse.round_to_pow2(3);
    let digit = BfvParams::preset_rns_3x36(4096).unwrap();
    let hybrid = BfvParams::preset_hybrid_2x36(4096).unwrap();
    vec![
        (
            "mlp_digit",
            mlp.clone(),
            Weights::random(&mlp, 1, weight_seed),
            digit.clone(),
            13,
        ),
        (
            "cnn_digit",
            cnn.clone(),
            Weights::random(&cnn, 1, weight_seed),
            digit,
            15,
        ),
        (
            "mlp_hybrid",
            mlp.clone(),
            Weights::random(&mlp, 1, weight_seed),
            hybrid.clone(),
            11,
        ),
        ("fleet_sparse", mlp, sparse, hybrid, 10),
    ]
}

#[test]
fn each_rounds_record_ships_where_the_runtime_rule_would() {
    // The level a download ships at is fixed in the round's record when
    // the model is prepared: the layer's *predicted* output noise under a
    // `⌊t/2⌋` mask. The rule it replaced decided per round, from the
    // outputs' *tracked* noise and the drawn mask plaintexts' norm. Replayed
    // on the server's own state in every round — tiny CNN and the bench
    // MLP, on both bench chains — the old rule picks the record's level,
    // and every report carries the record's message bytes.
    use cheetah_bfv::{NoiseEstimate, Plaintext};
    use cheetah_core::linear::shipping_level;

    let tiny = tiny_cnn();
    let mlp = bench_shapes().swap_remove(0).1;
    let digit = BfvParams::preset_rns_3x36(4096).unwrap();
    let hybrid = BfvParams::preset_hybrid_2x36(4096).unwrap();
    for params in [digit, hybrid] {
        for (net, bound) in [(&tiny, 2), (&mlp, 1)] {
            let weights = Weights::random(net, bound, 41);
            let input = random_input(&net.input_shape, 3, 42);
            let model = PreparedModel::new(net, &weights, params.clone()).unwrap();
            let (mut client, setup) = ClientSession::new(Arc::clone(&model), 43, &input).unwrap();
            let mut server = ServerSession::new(Arc::clone(&model), setup, 43).unwrap();
            let mut scratch = model.evaluator().new_scratch();
            for k in 0..model.linear_count() {
                let round = model.round(k);
                let what = format!("{} L{k} on {} limbs", net.name, params.limbs());
                let upload = client.next_upload().unwrap();

                // The session's former rule, on the outputs the server
                // computes and the mask plaintexts it adds: what the client
                // decrypts from the download, less the outputs unmasked.
                let mut ct = wire::decode_ciphertext(&upload, model.params()).unwrap();
                if let Some(r) = &server.cloud_mask {
                    let neg = r.data().iter().map(|&v| -v).collect();
                    let neg = model.pack(k, &Tensor::from_data(r.shape(), neg)).unwrap();
                    let eval = model.evaluator();
                    eval.add_plain_assign(&mut ct, &neg, &mut scratch).unwrap();
                }
                let outputs = model.apply(k, &ct, &server.keys).unwrap();
                let worst = outputs.iter().fold(NoiseEstimate::zero(), |w, out| {
                    let noise = out.noise();
                    NoiseEstimate {
                        bound_log2: w.bound_log2.max(noise.bound_log2),
                        variance_log2: w.variance_log2.max(noise.variance_log2),
                    }
                });
                let download = server.process_upload(&upload, &mut scratch).unwrap();
                let t = model.params().plain_modulus().value();
                let parts = wire::split_ciphertext_messages(&download.payload, model.params());
                let mut norm = 0;
                for (part, out) in parts.unwrap().iter().zip(&outputs) {
                    let shipped = wire::decode_ciphertext(part, model.params()).unwrap();
                    let masked = client.decryptor.decrypt(&shipped).unwrap();
                    let bare = client.decryptor.decrypt(out).unwrap();
                    let pairs = masked.coeffs().iter().zip(bare.coeffs());
                    let mask = pairs.map(|(&m, &b)| (m + t - b) % t).collect();
                    let mask = Plaintext::from_coeffs(mask, model.params().clone()).unwrap();
                    norm = norm.max(mask.inf_norm());
                }
                let runtime = shipping_level(&worst, round.level, norm, model.params());
                assert_eq!(runtime, round.shipped_level, "{what}: shipped level");

                let report = &server.reports()[k];
                assert_eq!(report.shipped_level, round.shipped_level, "{what}");
                assert_eq!(
                    (report.upload_bytes, report.download_bytes),
                    (round.upload_bytes, round.download_bytes),
                    "{what}: message bytes"
                );
                client.absorb_download(&download).unwrap();
            }
        }
    }
}

#[test]
fn a_download_off_its_records_length_is_refused_before_decryption() {
    // A bundle of well-formed messages at the record's shipping level, one
    // too many: the client refuses it on length alone, decrypts nothing and
    // keeps its round, so the honest download still goes through.
    let net = tiny_cnn();
    let weights = Weights::random(&net, 2, 97);
    let input = random_input(&net.input_shape, 3, 98);
    let model = PreparedModel::new(&net, &weights, session_params_3_limb()).unwrap();
    let (mut client, setup) = ClientSession::new(Arc::clone(&model), 9, &input).unwrap();
    let mut server = ServerSession::new(Arc::clone(&model), setup, 9).unwrap();
    let upload = client.next_upload().unwrap();
    let download = server
        .process_upload(&upload, &mut model.evaluator().new_scratch())
        .unwrap();
    let expected = model.round(0).download_bytes + wire::HEADER_BYTES * model.round(0).outputs;
    assert_eq!(download.payload.len(), expected);

    let padded = LayerDownload {
        payload: download.payload.repeat(2),
        mask: download.mask.clone(),
        next_mask: download.next_mask.clone(),
    };
    let refused = client.absorb_download(&padded);
    assert!(
        matches!(&refused, Err(Error::Malformed { reason, .. }) if reason.contains("record")),
        "{:?}",
        refused.err()
    );
    assert_eq!(client.layer(), 0);
    assert!(client.absorb_download(&download).unwrap().is_none());
    assert_eq!(client.layer(), 1);
}

#[test]
fn setup_bytes_account_the_seeded_key_set_at_its_wire_size() {
    // What a client registers is what the wire carries: the seeded key
    // set's encoding, net of its header, plus the seeded public key's
    // payload — the k0 half of the key material the server holds once it
    // expands, packed at 36 of every 64 bits.
    for (name, net, weights, params, key_count) in bench_shapes() {
        let setup_bytes = wire::seeded_galois_keys_wire_bytes(&params, key_count)
            + wire::seeded_public_key_wire_bytes(&params)
            - 2 * wire::HEADER_BYTES;
        let model = PreparedModel::new(&net, &weights, params.clone()).unwrap();
        let (_, setup) = ClientSession::keygen(Arc::clone(&model), 7).unwrap();
        let pk_payload = wire::seeded_public_key_wire_bytes(&params) - wire::HEADER_BYTES;
        let encoded = wire::encode_seeded_galois_keys(&setup.keys, &params);
        assert_eq!(
            encoded.len() - wire::HEADER_BYTES,
            setup.setup_bytes - pk_payload,
            "{name}: accounted key bytes vs wire payload"
        );
        assert_eq!(setup.keys.len(), key_count, "{name}: Galois keys");
        assert_eq!(setup.setup_bytes, setup_bytes, "{name}: setup bytes");

        let server = ServerSession::new(model, setup, 7).unwrap();
        assert_eq!(server.galois_keys().len(), key_count, "{name}: expanded");
        let held = server.galois_keys().byte_size(&params);
        // Every plane on both bench chains (`P` included) is 36 bits wide.
        assert_eq!(
            encoded.len() - wire::HEADER_BYTES,
            4 + key_count * 16 + held / 2 / 64 * 36,
            "{name}: the wire carries the k0 half, packed"
        );
        let record = &server.transcript().messages()[0];
        assert_eq!(record.bytes, setup_bytes, "{name}: transcript setup record");
    }
}

#[test]
fn registration_refuses_a_seeded_set_that_misses_a_plan_step() {
    // Coverage is checked on the seeded elements, before any expansion.
    let net = tiny_cnn();
    let weights = Weights::random(&net, 2, 93);
    let params = session_params_3_limb();
    let model = PreparedModel::new(&net, &weights, params.clone()).unwrap();
    let (_, mut setup) = ClientSession::keygen(Arc::clone(&model), 5).unwrap();
    let n = params.degree();
    let element = |s: i64| cheetah_bfv::keys::element_for_step(n, s).unwrap();
    let dropped = model.required_steps()[0];
    let rest: Vec<i64> = (model.required_steps().iter().copied())
        .filter(|&s| element(s) != element(dropped))
        .collect();
    setup.keys = KeyGenerator::from_seed(params, 5)
        .seeded_galois_keys_for_steps(&rest)
        .unwrap();
    let refused = ServerSession::new(model, setup, 5).err();
    assert!(
        matches!(
            refused,
            Some(Error::MissingGaloisKey { element: g, step: Some(s) })
                if g == element(dropped) && s == dropped
        ),
        "expected MissingGaloisKey for step {dropped}, got {refused:?}"
    );
}

#[test]
fn registration_accepts_the_exact_set_and_refuses_a_surplus_key() {
    // The server holds only the keys its plans read: the model's own step
    // set registers, the same set plus one key no plan step maps to is
    // refused on the elements, before any expansion.
    let net = tiny_cnn();
    let weights = Weights::random(&net, 2, 93);
    let params = session_params_3_limb();
    let model = PreparedModel::new(&net, &weights, params.clone()).unwrap();
    let n = params.degree();
    let element = |s: i64| cheetah_bfv::keys::element_for_step(n, s).unwrap();
    let read: Vec<u64> = model.required_steps().iter().map(|&s| element(s)).collect();
    let surplus = (1..).find(|&s| !read.contains(&element(s))).unwrap();
    let mut steps = model.required_steps().to_vec();
    let seeded = |steps: &[i64]| {
        KeyGenerator::from_seed(params.clone(), 5)
            .seeded_galois_keys_for_steps(steps)
            .unwrap()
    };

    let (_, mut setup) = ClientSession::keygen(Arc::clone(&model), 5).unwrap();
    setup.keys = seeded(&steps);
    let server = ServerSession::new(Arc::clone(&model), setup, 5).unwrap();
    assert_eq!(server.galois_keys().len(), steps.len());

    steps.push(surplus);
    let (_, mut setup) = ClientSession::keygen(Arc::clone(&model), 5).unwrap();
    setup.keys = seeded(&steps);
    assert_eq!(setup.keys.len(), model.required_steps().len() + 1);
    let refused = ServerSession::new(model, setup, 5).err();
    assert!(
        matches!(refused, Some(Error::Unsupported(_))),
        "expected a surplus key for step {surplus} refused, got {refused:?}"
    );
}

#[test]
fn a_network_without_linear_layers_keeps_its_setup_record_through_both_entry_points() {
    // The leading layers are the whole inference: no round runs, and the
    // transcript is the setup record alone — from the façade as from the
    // pool's driver.
    let net = Network {
        name: "pool-only".into(),
        input_shape: vec![2, 4, 4],
        layers: vec![
            Layer::Relu,
            Layer::MaxPool { k: 2, stride: 2 },
            Layer::Flatten,
        ],
    };
    let weights = Weights::random(&net, 2, 1);
    let input = random_input(&net.input_shape, 3, 2);
    let expect = infer(&net, &weights, &input).output;
    let model = PreparedModel::new(&net, &weights, session_params_3_limb()).unwrap();
    assert_eq!(model.linear_count(), 0);

    let mut session = PrivateInferenceSession::with_prepared(Arc::clone(&model), 3).unwrap();
    let (output, transcript) = session.run(&input).unwrap();
    assert_eq!(output.data(), expect.data());
    assert_eq!(transcript.messages().len(), 1);
    assert_eq!(transcript.messages()[0].label, "setup: pk + galois keys");
    assert!(transcript.messages()[0].bytes > 0);

    let driver = SessionDriver::new(&model, 0, 3, &input).unwrap();
    assert!(driver.is_done());
    let served = ServerPool::new(Arc::clone(&model), 1)
        .run(vec![driver])
        .remove(0);
    assert_eq!(served.result.unwrap().data(), expect.data());
    assert_eq!(shape(&served.transcript), shape(&transcript));

    // No layer to pack for: a typed refusal, not an index into nothing.
    let (mut client, _) = ClientSession::new(model, 3, &input).unwrap();
    assert!(matches!(client.next_upload(), Err(Error::Unsupported(_))));
}
