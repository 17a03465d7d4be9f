//! What a client can read out of a masked download, beyond its output.
//!
//! A linear layer writes more slots than its output occupies: an FC layer
//! leaves partial row sums past its `n_o` outputs (what the fold gathers
//! from, short of the terms that would wrap), a convolution partial
//! channel sums past its `w²` pixels. The client decrypts whatever is
//! shipped, so every such slot must leave the server under fresh uniform
//! blinding — on the final layer too, whose *output* is deliberately
//! unmasked. Checked on the one-party session and on the served halves:
//! `decrypt(download) − decrypt(unblinded layer output)` is nonzero on
//! every slot the layer wrote outside its output, and differs between two
//! mask seeds.

use std::sync::Arc;

use cheetah::bfv::{wire, BfvParams};
use cheetah::core::Schedule;
use cheetah::nn::inference::{infer, random_input};
use cheetah::nn::{Layer, Network, Weights};
use cheetah::protocol::masking::center;
use cheetah::protocol::{PrivateInferenceSession, Transcript};
use cheetah::serve::{PreparedModel, ServerPool, SessionDriver};

fn params() -> BfvParams {
    BfvParams::preset_rns_3x36(4096).unwrap()
}

/// A 2-channel convolution feeding the (final) FC layer: the conv leaves
/// channel 1's partial sums in slots `[16, 32)` of every download.
fn conv_first() -> Network {
    Network {
        name: "conv-first".into(),
        input_shape: vec![2, 4, 4],
        layers: vec![
            Layer::conv("conv", 4, 3, 2, 2, 1, 1),
            Layer::Relu,
            Layer::Flatten,
            Layer::fc("fc", 32, 8),
        ],
    }
}

/// One FC layer, first and final: 8 folded diagonals, a fold of 4, and so
/// partial row sums in slots `[8, 32)` (and, wrapped, at the row's end).
fn fc_only() -> Network {
    Network {
        name: "fc-only".into(),
        input_shape: vec![32],
        layers: vec![Layer::fc("fc", 32, 8)],
    }
}

/// Layer 0's view from the client: per output ciphertext, the slots of the
/// unblinded layer output and what the shipped download adds to them
/// (centered mod `t`). `transcript` comes from a session seeded like
/// `keys`, which supplies the secret key and the Galois keys.
fn layer0_blinding(
    transcript: &Transcript,
    keys: &PrivateInferenceSession,
) -> Vec<(Vec<i64>, Vec<i64>)> {
    let prepared = keys.prepared();
    let params = prepared.params();
    let t = params.plain_modulus().value() as i64;
    let payload_of = |prefix: &str| {
        &transcript
            .messages()
            .iter()
            .find(|m| m.label.starts_with(prefix))
            .unwrap_or_else(|| panic!("no `{prefix}` message"))
            .payload
    };

    // The server's side of round 0, minus the mask: no previous mask to
    // remove, the planned level, the layer.
    let mut upload = wire::decode_ciphertext(payload_of("enc activations L0"), params).unwrap();
    let level = prepared.plan_level(0, upload.noise());
    prepared
        .evaluator()
        .mod_switch_to_assign(&mut upload, level)
        .unwrap();
    let unblinded = prepared.apply(0, &upload, keys.galois_keys()).unwrap();

    let download = payload_of("enc masked outputs L0");
    let shipped = wire::split_ciphertext_messages(download, params).unwrap();
    assert_eq!(shipped.len(), unblinded.len());
    unblinded
        .iter()
        .zip(shipped)
        .map(|(clear, part)| {
            let clear = keys.decrypt_slots(clear).unwrap();
            let part = wire::decode_ciphertext(part, params).unwrap();
            let added = keys
                .decrypt_slots(&part)
                .unwrap()
                .iter()
                .zip(&clear)
                .map(|(s, c)| center(s - c, t))
                .collect();
            (clear, added)
        })
        .collect()
}

/// Round 0 of `net` under `seed`, through the one-party session and
/// through the served halves: both transcripts' layer-0 blinding.
fn both_sessions(net: &Network, weights: &Weights, seed: u64) -> [Vec<(Vec<i64>, Vec<i64>)>; 2] {
    let input = random_input(&net.input_shape, 3, 40 + seed);
    let expect = infer(net, weights, &input).output;

    let mut one_party =
        PrivateInferenceSession::new(net, weights, params(), Schedule::PartialAligned, seed)
            .unwrap();
    let (out, one_party_transcript) = one_party.run(&input).unwrap();
    assert_eq!(out.data(), expect.data());

    let model = PreparedModel::prepare(net, weights, params(), Schedule::PartialAligned).unwrap();
    let driver = SessionDriver::new(&model, 0, seed, &input).unwrap();
    let served = ServerPool::new(Arc::clone(&model), 1)
        .run(vec![driver])
        .remove(0);
    assert_eq!(served.result.as_ref().unwrap().data(), expect.data());

    // Same seed, same secret key: the one-party session decrypts both.
    [
        layer0_blinding(&one_party_transcript, &one_party),
        layer0_blinding(&served.transcript, &one_party),
    ]
}

/// The checks on one network: `out_len` output slots per ciphertext, the
/// output itself masked or (final layer) not.
fn check(net: &Network, out_len: usize, output_masked: bool) {
    let weights = Weights::random(net, 2, 17);
    let by_seed = [1u64, 2].map(|seed| both_sessions(net, &weights, seed));
    for (seed, sessions) in by_seed.iter().enumerate() {
        for (which, cts) in sessions.iter().enumerate() {
            let mut exposed = 0;
            for (clear, added) in cts {
                if !output_masked {
                    assert!(
                        added[..out_len].iter().all(|&v| v == 0),
                        "the final layer's prediction ships unmasked"
                    );
                }
                for (slot, (&c, &a)) in clear.iter().zip(added).enumerate().skip(out_len) {
                    if c != 0 {
                        exposed += 1;
                        assert_ne!(
                            a, 0,
                            "{} seed {seed} session {which}: slot {slot} ships {c} in the clear",
                            net.name
                        );
                    }
                }
            }
            assert!(
                exposed > 0,
                "{}: the layer wrote nothing outside its output — the test is vacuous",
                net.name
            );
        }
        // The served halves draw the one-party session's mask stream.
        assert_eq!(sessions[0], sessions[1], "{} seed {seed}", net.name);
    }
    // Fresh per server seed: the same slots carry other values.
    for (a, b) in by_seed[0][0].iter().zip(&by_seed[1][0]) {
        let differing = a.1[out_len..]
            .iter()
            .zip(&b.1[out_len..])
            .filter(|(x, y)| x != y)
            .count();
        assert!(
            differing > (a.1.len() - out_len) * 9 / 10,
            "{}: blinding repeats across mask seeds ({differing} slots differ)",
            net.name
        );
    }
}

#[test]
fn conv_download_blinds_the_partial_channel_sums() {
    check(&conv_first(), 16, true);
}

#[test]
fn final_fc_download_blinds_the_partial_row_sums() {
    check(&fc_only(), 8, false);
}
