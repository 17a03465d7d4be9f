//! What a client can read out of a masked download, beyond its output.
//!
//! A tiled FC download's two rows are **all** partial pre-activation sums:
//! the server stops before the fold, so slot `s` of either row holds a
//! partial sum of output row `s mod n_o'`, `fold` windows per output in the
//! first period of the two rows (half in each) and the same windows again
//! in every further period. The client decrypts whatever is shipped and
//! adds the windows up, so no slot of either row may leave the server
//! readable: each output's logical mask `m_i` (uniform on a hidden layer,
//! zero on the final one) goes out as `fold` additive shares — fresh
//! uniform draws and the one that balances them — and every other slot
//! (the further periods, the padding rows) under a draw of its own. A packed convolution's masks are zero
//! wherever no output pixel lands — the `s − w²` gap behind each image when
//! `w²` is not a power of two, the blocks past `c_o`, the second row — so
//! it writes nothing there; that is pinned too, and the blinding covers
//! those slots all the same. Checked on the one-party session and on the
//! served halves, hidden and final layers: per output the shares
//! `decrypt(download) − decrypt(unblinded layer output)` add up to `m_i`
//! (read off the server half's garbled-circuit handoff), every window of
//! every output carries a draw — nonzero, other under another mask seed,
//! pairwise distinct over 64 of them — so no window of the download ever
//! shows its cleartext partial sum, and every slot outside the windows is
//! blinded whether or not the layer wrote it.

use std::sync::Arc;

use cheetah::bfv::{wire, BfvParams};
use cheetah::nn::inference::{infer, random_input};
use cheetah::nn::{Layer, Network, Tensor, Weights};
use cheetah::serve::masking::center;
use cheetah::serve::{
    ClientSession, PreparedModel, PrivateInferenceSession, ServerPool, ServerSession,
    SessionDriver, Transcript,
};

const ROW: usize = 2048;

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

/// One FC layer, first and final: 6 outputs padded to `d = 8` rows, the
/// 32 inputs tiled 8 times, four copies in each row — one mask multiply,
/// no rotation, and `fold = 8·32 / 8 = 32` windows per output, 16 in each
/// row's 128-slot period that the row repeats 16 times.
fn fc_only() -> Network {
    Network {
        name: "fc-only".into(),
        input_shape: vec![32],
        layers: vec![Layer::fc("fc", 32, 6)],
    }
}

/// The same layer hidden behind a ReLU and a second FC layer: its windows
/// are partial pre-activations the client must never see unmasked.
fn fc_hidden() -> Network {
    Network {
        name: "fc-hidden".into(),
        input_shape: vec![32],
        layers: vec![Layer::fc("fc1", 32, 6), Layer::Relu, Layer::fc("fc2", 6, 3)],
    }
}

/// The plan both FC networks' first layer prepares to.
const FC_PLAN: &str = "fc bsgs tiles=8 b=1 g=1 live=1/1 fold=32";
const FC_NO: usize = 6;
const FC_D: usize = 8;
const FC_FOLD: usize = 32;
/// Windows per output in each row.
const FC_ROW_FOLD: usize = FC_FOLD / 2;

/// The windows of output `i` of the 32 → 6 layer: row 0's, then row 1's.
fn fc_windows(i: usize) -> Vec<usize> {
    (0..FC_FOLD)
        .map(|m| m / FC_ROW_FOLD * ROW + i + m % FC_ROW_FOLD * FC_D)
        .collect()
}

/// Slot `slot` of the 32 → 6 layer's download ciphertext: the two rows
/// are laid out alike.
fn fc_region(slot: usize) -> &'static str {
    match slot % FC_D {
        row if row >= FC_NO => "padding rows",
        _ if slot % ROW < FC_ROW_FOLD * FC_D => "output",
        _ => "further periods",
    }
}

/// Slot `slot` of a `c_o`-channel `w × w` convolution's one download
/// ciphertext: `"output"`, or the kind of slot the blinding must cover.
fn conv_region(w: usize, co: usize, slot: usize) -> &'static str {
    let stride = (w * w).next_power_of_two();
    match (slot / stride, slot % stride) {
        _ if slot >= ROW => "second row",
        (block, _) if block >= co => "spare block",
        (_, pixel) if pixel >= w * w => "gap",
        _ => "output",
    }
}

/// The one slot of element `i` of a `w × w` convolution's output.
fn conv_windows(w: usize, i: usize) -> Vec<usize> {
    vec![i / (w * w) * (w * w).next_power_of_two() + i % (w * w)]
}

/// One download ciphertext as the client sees it: the slots of the
/// unblinded layer output and what the shipped download adds to them
/// (centered mod `t`).
#[derive(Debug, PartialEq)]
struct View {
    clear: Vec<i64>,
    added: Vec<i64>,
}

/// The payload of `transcript`'s first message labelled `prefix…`.
fn payload_of<'a>(transcript: &'a Transcript, prefix: &str) -> &'a [u8] {
    let found = transcript
        .messages()
        .iter()
        .find(|m| m.label.starts_with(prefix));
    &found
        .unwrap_or_else(|| panic!("no `{prefix}` message"))
        .payload
}

/// Layer 0's view from the client, per output ciphertext. `transcript`
/// comes from a session seeded like `keys`, which supplies the secret key
/// and the Galois keys.
fn layer0_blinding(transcript: &Transcript, keys: &PrivateInferenceSession) -> Vec<View> {
    let prepared = keys.prepared();
    let params = prepared.params();
    let t = params.plain_modulus().value() as i64;

    // The server's side of round 0, minus the mask: no previous mask to
    // remove, the planned level, the layer.
    let mut upload =
        wire::decode_ciphertext(payload_of(transcript, "enc activations L0"), params).unwrap();
    let level = prepared.round(0).level;
    prepared
        .evaluator()
        .mod_switch_to_assign(&mut upload, level)
        .unwrap();
    let unblinded = prepared.apply(0, &upload, keys.galois_keys()).unwrap();

    let download = payload_of(transcript, "enc masked outputs L0");
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
            View { clear, added }
        })
        .collect()
}

/// Round 0 of `net` under `seed`, through the one-party session and
/// through the served halves: both transcripts' layer-0 blinding, and the
/// logical mask `m` the server half hands the garbled circuit for that
/// round (stepped by hand; same seed, same download bytes).
fn both_sessions(net: &Network, weights: &Weights, seed: u64) -> ([Vec<View>; 2], Tensor) {
    let input = random_input(&net.input_shape, 3, 40 + seed);
    let expect = infer(net, weights, &input).output;

    let mut one_party = PrivateInferenceSession::new(net, weights, params(), seed).unwrap();
    let (out, one_party_transcript) = one_party.run(&input).unwrap();
    assert_eq!(out.data(), expect.data());

    let model = PreparedModel::new(net, weights, params()).unwrap();
    let driver = SessionDriver::new(&model, 0, seed, &input).unwrap();
    let served = ServerPool::new(Arc::clone(&model), 1)
        .run(vec![driver])
        .remove(0);
    assert_eq!(served.result.as_ref().unwrap().data(), expect.data());

    let (mut client, setup) = ClientSession::keygen(Arc::clone(&model), seed).unwrap();
    let mut server = ServerSession::new(Arc::clone(&model), setup, seed).unwrap();
    assert!(client.begin(&input).unwrap().is_none());
    server.begin();
    let mut scratch = model.evaluator().new_scratch();
    let download = server
        .process_upload(&client.next_upload().unwrap(), &mut scratch)
        .unwrap();
    for transcript in [&one_party_transcript, &served.transcript] {
        let shipped = payload_of(transcript, "enc masked outputs L0");
        assert_eq!(download.payload, shipped);
    }

    // Same seed, same secret key: the one-party session decrypts both.
    let views = [
        layer0_blinding(&one_party_transcript, &one_party),
        layer0_blinding(&served.transcript, &one_party),
    ];
    (views, download.mask)
}

/// The checks on one network: `windows(i)` lists the slots element `i` of
/// layer 0's output is shared over, `region` names every other slot of the
/// download ciphertext (`"output"` on the windows), `written` lists the
/// regions outside the windows the layer writes into, `hidden` says
/// whether layer 0 is a hidden layer (`m` uniform) or the final one
/// (`m = 0`). Returns seed 1's one-party view for further pins.
fn check(
    net: &Network,
    windows: impl Fn(usize) -> Vec<usize>,
    region: impl Fn(usize) -> &'static str,
    written: &[&str],
    hidden: bool,
) -> Vec<View> {
    let weights = Weights::random(net, 2, 17);
    let t = params().plain_modulus().value() as i64;
    let by_seed = [1u64, 2].map(|seed| both_sessions(net, &weights, seed));
    let blind = |slot: &usize| region(*slot) != "output";
    for (seed, (sessions, mask)) in by_seed.iter().enumerate() {
        assert_eq!(
            mask.data().iter().any(|&m| m != 0),
            hidden,
            "{}: a hidden layer's mask is drawn, the final layer's is zero",
            net.name
        );
        for (which, cts) in sessions.iter().enumerate() {
            let what = format!("{} seed {seed} session {which}", net.name);
            assert_eq!(cts.len(), 1, "{what}: one download ciphertext");
            let View { clear, added } = &cts[0];
            // Per output the shares add up to the logical mask, and each
            // window carries one: no window of the download shows its
            // partial sum (a share is zero once in 2^17).
            let mut bare = 0;
            for (i, &m) in mask.data().iter().enumerate() {
                let shares = windows(i);
                assert!(shares.iter().all(|s| !blind(s)), "{what}: output {i}");
                let sum: i64 = shares.iter().map(|&s| added[s]).sum();
                assert_eq!(center(sum, t), m, "{what}: output {i}'s shares");
                bare += shares.iter().filter(|&&s| added[s] == 0).count();
            }
            assert!(bare <= 2, "{what}: {bare} windows ship their partial sum");
            let mut exposed: Vec<&str> = Vec::new();
            for slot in (0..clear.len()).filter(blind) {
                if clear[slot] != 0 {
                    if !exposed.contains(&region(slot)) {
                        exposed.push(region(slot));
                    }
                    assert_ne!(
                        added[slot],
                        0,
                        "{what}: {} slot {slot} ships {} in the clear",
                        region(slot),
                        clear[slot]
                    );
                }
            }
            assert_eq!(exposed, written, "{what}: regions written");
            // Every slot outside the windows draws from the mask stream,
            // written or not: a uniform draw mod t is zero once in 2^17.
            let undrawn = (0..clear.len()).filter(|s| blind(s) && added[*s] == 0);
            assert!(undrawn.count() <= 2, "{what}: unblinded slots");
        }
        // The served halves draw the one-party session's mask stream.
        assert_eq!(sessions[0], sessions[1], "{} seed {seed}", net.name);
    }
    // Fresh per server seed: the same slots — windows included, unless the
    // final layer's output has one window and nothing to share — carry
    // other values.
    let (a, b) = (&by_seed[0].0[0][0].added, &by_seed[1].0[0][0].added);
    let shared = hidden || windows(0).len() > 1;
    let slots: Vec<usize> = (0..a.len()).filter(|s| shared || blind(s)).collect();
    let differing = slots.iter().filter(|&&s| a[s] != b[s]).count();
    assert!(
        differing > slots.len() * 9 / 10,
        "{}: blinding repeats across mask seeds ({differing} slots differ)",
        net.name
    );
    let [([one_party, _], _), _] = by_seed;
    one_party
}

/// What the windows hide, and that they are windows: the `fold / 2` slots
/// at stride `d` from slot `s` of each row add up to output `s mod d`, and
/// the slot alone is not it; the second row holds partial sums too.
fn assert_partial_sums(view: &View, output: &[i64]) {
    let sum_from = |s: usize| -> i64 {
        (0..FC_FOLD)
            .map(|m| view.clear[m / FC_ROW_FOLD * ROW + (s + m % FC_ROW_FOLD * FC_D) % ROW])
            .sum()
    };
    for s in 0..ROW {
        let expect = output.get(s % FC_D).copied().unwrap_or(0);
        assert_eq!(sum_from(s), expect, "windows from slot {s}");
    }
    assert!(output.iter().any(|&v| v != 0));
    let partial = (0..2 * ROW).filter(|&s| s % FC_D < FC_NO && view.clear[s] != output[s % FC_D]);
    assert!(partial.count() > ROW, "the windows hold whole outputs");
    assert!(
        view.clear[ROW..].iter().any(|&v| v != 0),
        "the second row holds no partial sums"
    );
}

#[test]
fn conv_download_blinds_the_partial_channel_sums() {
    // c_o = 2 of the row's 128 blocks (w² = 16 is a power of two, so the
    // blocks have no gap): the 126 spare ones and the second row stay
    // zero under the layer and leave blinded.
    check(
        &conv_first(),
        |i| conv_windows(4, i),
        |s| conv_region(4, 2, s),
        &[],
        true,
    );
}

#[test]
fn conv_download_blinds_the_gaps_behind_each_image() {
    check(
        &conv_with_gaps(),
        |i| conv_windows(6, i),
        |s| conv_region(6, 2, s),
        &[],
        true,
    );
}

#[test]
fn final_fc_download_blinds_the_output_copies() {
    let net = fc_only();
    let views = check(&net, fc_windows, fc_region, &["further periods"], false);
    // What the sharing hides is the prediction in 32 pieces, 8 times over —
    // and the client still gets the prediction: the shares of each output
    // add up to zero.
    let weights = Weights::random(&net, 2, 17);
    let input = random_input(&net.input_shape, 3, 41);
    let expect = infer(&net, &weights, &input).output;
    assert_partial_sums(&views[0], expect.data());
}

#[test]
fn hidden_fc_download_blinds_the_pre_activation_copies() {
    // The windows carry shares of the mask r; one left in the clear would
    // hand the client a partial pre-activation, all of them y itself —
    // in the second row as much as in the first.
    let views = check(
        &fc_hidden(),
        fc_windows,
        fc_region,
        &["further periods"],
        true,
    );
    assert!(
        views[0].clear[ROW..].iter().any(|&v| v != 0),
        "the second row holds no partial sums"
    );
}

/// Over 64 mask seeds every window slot of a final and a hidden FC
/// download carries 64 different shares but for a stray few (two uniform
/// draws mod `t ≈ 2^17` meet once in 2^17: ≈ 3 pairs expected over the
/// 192 window slots' 2016 pairs each) — a window is a draw of the server's
/// stream, not a function of the layer or the slot.
#[test]
fn window_shares_are_fresh_over_64_mask_seeds() {
    for net in [fc_only(), fc_hidden()] {
        let weights = Weights::random(&net, 2, 17);
        let input = random_input(&net.input_shape, 3, 40);
        let added: Vec<Vec<i64>> = (100..164)
            .map(|seed| {
                let mut session =
                    PrivateInferenceSession::new(&net, &weights, params(), seed).unwrap();
                assert_eq!(session.prepared().plan_label(0), FC_PLAN);
                let (_, transcript) = session.run(&input).unwrap();
                layer0_blinding(&transcript, &session).remove(0).added
            })
            .collect();
        let mut repeats = 0;
        for slot in (0..FC_NO).flat_map(fc_windows) {
            let mut values: Vec<i64> = added.iter().map(|a| a[slot]).collect();
            values.sort_unstable();
            values.dedup();
            assert!(values.len() >= 60, "{}: slot {slot} repeats", net.name);
            repeats += added.len() - values.len();
        }
        assert!(repeats <= 16, "{}: {repeats} repeated shares", net.name);
    }
}
