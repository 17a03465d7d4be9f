//! What a client can read out of a masked download, beyond its output.
//!
//! A linear layer writes more slots than its output occupies: an FC layer
//! leaves **every** slot `s` of its first row holding output
//! `s mod n_o'` — past its `n_o` outputs (and the zero padding rows up to
//! `n_o'`), `row / n_o' − 1` further copies of them, which on a hidden
//! layer are the unmasked pre-activations the output mask exists to hide.
//! The client decrypts whatever is shipped, so every such slot must leave
//! the server under fresh uniform blinding — on the final layer too, whose
//! *output* is deliberately unmasked. A packed convolution's masks are zero wherever
//! no output pixel lands — the `s − w²` gap behind each image when `w²` is
//! not a power of two, the blocks past `c_o`, the second row — so it
//! writes nothing there; that is pinned too, and the blinding covers those
//! slots all the same. Checked on the one-party session and on the served
//! halves: `decrypt(download) − decrypt(unblinded layer output)` is
//! nonzero on every slot the layer wrote outside its output, is a fresh
//! draw on (all but a stray few of) the slots it did not write, and
//! differs between two mask seeds.

use std::sync::Arc;

use cheetah::bfv::{wire, BfvParams};
use cheetah::core::Schedule;
use cheetah::nn::inference::{infer, random_input};
use cheetah::nn::{Layer, Network, Weights};
use cheetah::protocol::masking::center;
use cheetah::protocol::Transcript;
use cheetah::serve::{PreparedModel, PrivateInferenceSession, ServerPool, SessionDriver};

fn params() -> BfvParams {
    BfvParams::preset_rns_3x36(4096).unwrap()
}

/// A 2-channel 4×4 convolution feeding the (final) FC layer: 16-slot
/// blocks, the two outputs in blocks 0 and 1 of the row's 128.
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

/// A 6×6 convolution, not the final layer: 36 pixels in 64-slot blocks,
/// so every block trails a 28-slot gap.
fn conv_with_gaps() -> Network {
    Network {
        name: "conv-gaps".into(),
        input_shape: vec![2, 6, 6],
        layers: vec![
            Layer::conv("conv", 6, 3, 2, 2, 1, 1),
            Layer::Relu,
            Layer::MaxPool { k: 3, stride: 3 },
            Layer::Flatten,
            Layer::fc("fc", 8, 4),
        ],
    }
}

/// One FC layer, first and final: 6 outputs padded to 8 rows, so the row
/// holds 256 copies of them, two zero slots behind each.
fn fc_only() -> Network {
    Network {
        name: "fc-only".into(),
        input_shape: vec![32],
        layers: vec![Layer::fc("fc", 32, 6)],
    }
}

/// The same layer hidden behind a ReLU and a second FC layer: its copies
/// are pre-activations the client must never see unmasked.
fn fc_hidden() -> Network {
    Network {
        name: "fc-hidden".into(),
        input_shape: vec![32],
        layers: vec![Layer::fc("fc1", 32, 6), Layer::Relu, Layer::fc("fc2", 6, 3)],
    }
}

/// Slot `slot` of an FC layer's download ciphertext, `no` outputs padded
/// to `d` rows.
fn fc_region(no: usize, d: usize, slot: usize) -> &'static str {
    match slot % d {
        _ if slot >= 2048 => "second row",
        _ if slot < no => "output",
        row if row < no => "output copies",
        _ => "padding rows",
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

    let mut one_party = PrivateInferenceSession::new(net, weights, params(), seed).unwrap();
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

/// Slot `slot` of a `c_o`-channel `w × w` convolution's one download
/// ciphertext: `"output"`, or the kind of slot the blinding must cover.
fn conv_region(w: usize, co: usize, slot: usize) -> &'static str {
    let stride = (w * w).next_power_of_two();
    match (slot / stride, slot % stride) {
        _ if slot >= 2048 => "second row",
        (block, _) if block >= co => "spare block",
        (_, pixel) if pixel >= w * w => "gap",
        _ => "output",
    }
}

/// The checks on one network: `region` names each slot of a download
/// ciphertext (`"output"` for the layer's result, masked or — final layer
/// — not); `written` lists the other regions the layer writes into.
/// Returns seed 1's one-party view for further pins.
fn check(
    net: &Network,
    region: impl Fn(usize) -> &'static str,
    written: &[&str],
    masked: bool,
) -> Vec<(Vec<i64>, Vec<i64>)> {
    let weights = Weights::random(net, 2, 17);
    let by_seed = [1u64, 2].map(|seed| both_sessions(net, &weights, seed));
    let blind = |slot: &usize| region(*slot) != "output";
    for (seed, sessions) in by_seed.iter().enumerate() {
        for (which, cts) in sessions.iter().enumerate() {
            assert_eq!(cts.len(), 1, "{}: one download ciphertext", net.name);
            let (clear, added) = &cts[0];
            if !masked {
                let output = (0..clear.len()).filter(|s| !blind(s));
                assert!(
                    output.map(|s| added[s]).all(|v| v == 0),
                    "the final layer's prediction ships unmasked"
                );
            }
            let mut exposed: Vec<&str> = Vec::new();
            for slot in (0..clear.len()).filter(blind) {
                if clear[slot] != 0 {
                    if !exposed.contains(&region(slot)) {
                        exposed.push(region(slot));
                    }
                    assert_ne!(
                        added[slot],
                        0,
                        "{} seed {seed} session {which}: {} slot {slot} ships {} in the clear",
                        net.name,
                        region(slot),
                        clear[slot]
                    );
                }
            }
            assert_eq!(exposed, written, "{}: regions written", net.name);
            // Every slot outside the output draws from the mask stream,
            // written or not: a uniform draw mod t is zero once in 2^17.
            let undrawn = (0..clear.len()).filter(|s| blind(s) && added[*s] == 0);
            assert!(undrawn.count() <= 2, "{}: unblinded slots", net.name);
        }
        // The served halves draw the one-party session's mask stream.
        assert_eq!(sessions[0], sessions[1], "{} seed {seed}", net.name);
    }
    // Fresh per server seed: the same slots carry other values.
    let (a, b) = (&by_seed[0][0][0].1, &by_seed[1][0][0].1);
    let slots: Vec<usize> = (0..a.len()).filter(blind).collect();
    let differing = slots.iter().filter(|&&s| a[s] != b[s]).count();
    assert!(
        differing > slots.len() * 9 / 10,
        "{}: blinding repeats across mask seeds ({differing} slots differ)",
        net.name
    );
    let [[one_party, _], _] = by_seed;
    one_party
}

#[test]
fn conv_download_blinds_the_partial_channel_sums() {
    // c_o = 2 of the row's 128 blocks (w² = 16 is a power of two, so the
    // blocks have no gap): the 126 spare ones and the second row stay
    // zero under the layer and leave blinded.
    check(&conv_first(), |s| conv_region(4, 2, s), &[], true);
}

#[test]
fn conv_download_blinds_the_gaps_behind_each_image() {
    check(&conv_with_gaps(), |s| conv_region(6, 2, s), &[], true);
}

#[test]
fn final_fc_download_blinds_the_output_copies() {
    let blinding = check(
        &fc_only(),
        |s| fc_region(6, 8, s),
        &["output copies"],
        false,
    );
    // What the blinding hides is the prediction itself, 255 times over:
    // every slot of the first row holds output `s mod 8`.
    for (clear, _) in blinding {
        assert!(clear[..6].iter().any(|&v| v != 0));
        assert!((0..2048).all(|s| clear[s] == if s % 8 < 6 { clear[s % 8] } else { 0 }));
    }
}

#[test]
fn hidden_fc_download_blinds_the_pre_activation_copies() {
    // The output slots carry the mask r; a copy left in the clear beside
    // them would hand the client y itself (and r with it).
    check(
        &fc_hidden(),
        |s| fc_region(6, 8, s),
        &["output copies"],
        true,
    );
}
