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
    let mut session = PrivateInferenceSession::new(&net, &weights, params, 77).unwrap();
    let (output, transcript) = session.run(&input).unwrap();
    assert_eq!(output.data(), expect.data(), "2-limb private != plaintext");

    // Every upload ships seeded — seed + one c0 component of `limbs`
    // live limbs (`limbs·n·8 + 8` bytes): the 2-limb payload is twice
    // the single-limb payload net of the fixed seed.
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
    for (b2, b1) in up2.iter().zip(&up1) {
        assert_eq!(
            *b2 - wire::SEED_BYTES,
            2 * (*b1 - wire::SEED_BYTES),
            "2-limb seeded upload payload must be twice 1-limb"
        );
        assert_eq!(*b2, wire::SEED_BYTES + 2 * 4096 * 8);
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
    // each layer's input down and runs the layer — and ships the
    // masked outputs — over fewer live limbs.
    let net = tiny_cnn();
    let weights = Weights::random(&net, 2, 71);
    let input = random_input(&net.input_shape, 3, 72);
    let expect = infer(&net, &weights, &input).output;

    let params = session_params_3_limb();
    assert_eq!(params.limbs(), 3);
    let mut session = PrivateInferenceSession::new(&net, &weights, params, 77).unwrap();
    let (output, transcript) = session.run(&input).unwrap();
    assert_eq!(output.data(), expect.data(), "leveled private != plaintext");

    // Uploads stay full-level (the client always encrypts fresh) and
    // seeded: one 3-limb c0 plus the 8-byte seed…
    for m in transcript
        .messages()
        .iter()
        .filter(|m| m.label.contains("enc activations"))
    {
        assert_eq!(m.bytes, wire::SEED_BYTES + 3 * 4096 * 8, "{}", m.label);
    }
    // …while every masked download left level 0: the layers ran — and
    // shipped — at a reduced level, each ciphertext a whole number of
    // live-limb pairs strictly below the full-level size.
    let downloads: Vec<_> = transcript
        .messages()
        .iter()
        .filter(|m| m.label.contains("enc masked outputs"))
        .collect();
    assert!(!downloads.is_empty());
    for m in &downloads {
        assert!(
            m.label.contains("lvl1") || m.label.contains("lvl2"),
            "layer stayed at full level: {}",
            m.label
        );
        // A whole number of live-limb ciphertexts (2 components ·
        // ≤2 live limbs · n · 8 bytes each).
        assert_eq!(m.bytes % (2 * 4096 * 8), 0);
    }
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

/// The benchmark's four workloads, `(name, network, weights, chain,
/// Galois keys, setup bytes)`: the nets, weights and chains `bench_e2e`
/// builds for `--seed 1`.
fn bench_shapes() -> Vec<(&'static str, Network, Weights, BfvParams, usize, usize)> {
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
            16,
            9_535_756,
        ),
        (
            "cnn_digit",
            cnn.clone(),
            Weights::random(&cnn, 1, weight_seed),
            digit,
            15,
            8_945_916,
        ),
        (
            "mlp_hybrid",
            mlp.clone(),
            Weights::random(&mlp, 1, weight_seed),
            hybrid.clone(),
            15,
            3_014_908,
        ),
        ("fleet_sparse", mlp, sparse, hybrid, 13, 2_621_660),
    ]
}

#[test]
fn setup_bytes_account_the_seeded_key_set_at_its_wire_size() {
    // What a client registers is what the wire carries: the seeded key
    // set's encoding, net of its header, plus the seeded public key's
    // payload — half the key material the server holds once it expands.
    for (name, net, weights, params, key_count, setup_bytes) in bench_shapes() {
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
        assert_eq!(
            encoded.len() - wire::HEADER_BYTES,
            4 + key_count * 16 + held / 2,
            "{name}: the wire carries the k0 half"
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
