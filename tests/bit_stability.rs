//! Cross-commit bit stability: golden digests of what the engine writes.
//!
//! Every other suite compares a run with itself (two paths, two thread
//! counts, two backends), so a refactor that claims "same bits" had
//! nothing in the tree to hold it to across commits. This one pins FNV-1a
//! digests of seeded Galois-key wire bytes and of the residues a receiver
//! decodes from them, of direct and hoisted rotation residues at every
//! level, of every payload of one seeded private-inference transcript (of
//! its uploads alone, and of the ciphertext words its messages decode
//! to), and of the seed expander's output, plus every preset's chain
//! fingerprint (the header word each of those messages carries). A wire
//! layout change moves the byte digests and leaves the residue digests
//! alone. The bit-identity
//! contract of `docs/SIMD.md` makes them machine- and backend-independent.
//!
//! A digest here changes only when the engine writes different bits for
//! the same seeds — a different RNG draw order, decomposition, key shape,
//! rounding or wire layout. A change that means to do that pastes the
//! digests the failure lists (every mismatch of a test is reported at
//! once) and says so; a change that claims "same bits" must leave them
//! alone.

use cheetah::bfv::{
    expand_uniform, wire, BatchEncoder, BfvParams, Encryptor, Evaluator, KeyGenerator,
};
use cheetah::nn::inference::random_input;
use cheetah::nn::models::tiny_cnn;
use cheetah::nn::Weights;
use cheetah::serve::transcript::Direction;
use cheetah::serve::PrivateInferenceSession;

const N: usize = 4096;
const STEPS: [i64; 3] = [1, -3, 64];

/// 64-bit FNV-1a over a byte stream, fed in pieces.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn words(&mut self, words: &[u64]) {
        for w in words {
            self.bytes(&w.to_le_bytes());
        }
    }
}

/// Digests that left their pins, reported together when dropped.
#[derive(Default)]
struct Pins(Vec<String>);

impl Pins {
    fn check(&mut self, what: String, got: u64, pinned: u64) {
        if got != pinned {
            self.0.push(format!("{what}: {got:#018x}"));
        }
    }

    fn finish(self) {
        assert!(
            self.0.is_empty(),
            "the engine writes different bits than the pinned commit:\n{}",
            self.0.join("\n")
        );
    }
}

fn preset(name: &str) -> BfvParams {
    preset_at(name, N)
}

fn preset_at(name: &str, n: usize) -> BfvParams {
    match name {
        "single_60" => BfvParams::preset_single_60(n),
        "rns_2x30" => BfvParams::preset_rns_2x30(n),
        "rns_3x36" => BfvParams::preset_rns_3x36(n),
        "hybrid_1x54" => BfvParams::preset_hybrid_1x54(n),
        "hybrid_2x36" => BfvParams::preset_hybrid_2x36(n),
        "hybrid_2x40" => BfvParams::preset_hybrid_2x40(n),
        other => panic!("unknown preset {other}"),
    }
    .unwrap()
}

/// `(preset, degree, chain fingerprint)` — every wire header's chain
/// word, including the retired plaintext-window slot it still mixes.
const FINGERPRINT_PINS: [(&str, usize, u64); 6] = [
    ("single_60", 4096, 0x44f6_931d_fcf0_c240),
    ("rns_2x30", 4096, 0x53bd_316f_5b16_584a),
    ("rns_3x36", 4096, 0xccfe_4c69_63ef_e45c),
    ("hybrid_1x54", 4096, 0x4048_d3a2_368c_03f3),
    ("hybrid_2x36", 4096, 0x3ab6_4bea_cbcc_99fd),
    ("hybrid_2x40", 8192, 0x420d_b8df_f505_a9fd),
];

#[test]
fn chain_fingerprints_keep_their_bits() {
    let mut pins = Pins::default();
    for (name, n, pin) in FINGERPRINT_PINS {
        let got = wire::chain_fingerprint(&preset_at(name, n));
        pins.check(format!("{name} n={n} fingerprint"), got, pin);
    }
    pins.finish();
}

/// Digest of `expand_uniform` over the data and key-switch chains of
/// three presets: the uniform component every seeded upload and public
/// key omits. Generated before Galois keys were seeded and unmoved by it.
const EXPAND_UNIFORM_PIN: u64 = 0x0326_4ce8_f8c6_9740;

#[test]
fn expand_uniform_keeps_its_bits() {
    let mut h = Fnv::new();
    for (name, seed) in [("single_60", 1), ("rns_3x36", 2), ("hybrid_2x36", 3)] {
        let params = preset(name);
        h.words(expand_uniform(seed, params.chain()).data());
        h.words(expand_uniform(seed, params.ks_chain_at(0)).data());
    }
    let mut pins = Pins::default();
    pins.check("expand_uniform".to_string(), h.0, EXPAND_UNIFORM_PIN);
    pins.finish();
}

/// `(preset, digest of the seeded key set's wire bytes, digest of every
/// rotation)`. The keys column was regenerated when every residue started
/// crossing the wire packed at its limb's width (format version 3): new
/// bytes for the same residues, which [`KEY_RESIDUE_PINS`] holds still.
const ENGINE_PINS: [(&str, u64, u64); 3] = [
    ("single_60", 0xd240_db61_2f40_b64c, 0xefcf_0348_b308_591e),
    ("rns_3x36", 0xed47_e63a_dabb_4f53, 0x3f64_292b_9377_2e43),
    ("hybrid_2x36", 0x8d22_9c73_2c93_b97b, 0x5f79_3ea9_2f35_49cd),
];

/// `(preset, digest of the decoded seeded key set's residues)`: per key
/// its element, its seed and every `k0` word, in wire order. Unlike the
/// keys column of [`ENGINE_PINS`] these do not see the wire layout, only
/// what a receiver gets back from it.
const KEY_RESIDUE_PINS: [(&str, u64); 3] = [
    ("single_60", 0x864d_1f61_e961_80c3),
    ("rns_3x36", 0x7b85_b7e4_593f_919f),
    ("hybrid_2x36", 0x8276_ed53_e123_57f4),
];

#[test]
fn galois_keys_and_rotations_keep_their_bits() {
    let mut pins = Pins::default();
    for ((name, keys_pin, rotations_pin), (_, residues_pin)) in
        ENGINE_PINS.into_iter().zip(KEY_RESIDUE_PINS)
    {
        let params = preset(name);
        let mut keygen = KeyGenerator::from_seed(params.clone(), 7);
        let pk = keygen.public_key().unwrap();
        let seeded = keygen.seeded_galois_keys_for_steps(&STEPS).unwrap();
        let bytes = wire::encode_seeded_galois_keys(&seeded, &params);
        let mut h = Fnv::new();
        h.bytes(&bytes);
        pins.check(format!("{name} galois keys"), h.0, keys_pin);
        let mut h = Fnv::new();
        for key in wire::decode_seeded_galois_keys(&bytes, &params)
            .unwrap()
            .iter()
        {
            h.words(&[key.element, key.seed]);
            for k0 in key.k0() {
                h.words(k0.data());
            }
        }
        pins.check(format!("{name} galois key residues"), h.0, residues_pin);
        let keys = seeded.expand(&params);

        let encoder = BatchEncoder::new(params.clone());
        let slots: Vec<u64> = (0..N as u64).map(|i| i % 97).collect();
        let ct0 = Encryptor::from_public_key(pk, 8)
            .encrypt(&encoder.encode(&slots).unwrap())
            .unwrap();
        let evaluator = Evaluator::new(params.clone());
        let mut h = Fnv::new();
        for level in 0..=params.max_level() {
            let ct = evaluator.mod_switch_to(&ct0, level).unwrap();
            let hoisted = evaluator.hoist(&ct).unwrap();
            for step in STEPS {
                let direct = evaluator.rotate_rows(&ct, step, &keys).unwrap();
                let replay = evaluator
                    .rotate_hoisted(&ct, &hoisted, step, &keys)
                    .unwrap();
                for out in [&direct, &replay] {
                    h.words(out.c0().data());
                    h.words(out.c1().data());
                }
            }
        }
        pins.check(format!("{name} rotations"), h.0, rotations_pin);
    }
    pins.finish();
}

/// `(preset, digest of every transcript label and payload in order,
/// digest of the uploads' labels and payloads alone)`. An upload depends
/// on the secret key, the encryptor's seed, the activations the client
/// decrypts and the layout of the layer it feeds, never on the rotation
/// keys. Both digests were regenerated when the FC layers' input copies
/// started filling both batching rows, which changes both FC uploads and
/// downloads. The whole-transcript digests alone moved again when every
/// download started shipping on the last limb: new download bytes and
/// labels, the same uploads. Both moved when every residue started
/// crossing the wire packed at its limb's width: new bytes for the same
/// ciphertexts, which [`SESSION_RESIDUE_PINS`] holds still. The
/// `rns_3x36` row — both digests — moved again when each upload started
/// being encrypted at the level its layer runs at: that chain runs
/// layers below level 0, so their uploads carry fewer limbs and every
/// later message changes with them; `hybrid_2x36` runs every layer at
/// level 0 and keeps its bits.
const SESSION_PINS: [(&str, u64, u64); 2] = [
    ("rns_3x36", 0xeb0d_43da_4959_6b57, 0x1ec5_fe78_eaa8_06d4),
    ("hybrid_2x36", 0x80a1_7a07_d07a_5f92, 0x78e0_426b_ecbe_a99b),
];

/// `(preset, digest of every transcript payload's decoded ciphertext
/// words)`: each payload split into its messages, each message decoded
/// (an upload's `c1` expanded from its seed) and its `c0`, `c1` words
/// digested in order. These see the residues a receiver gets, not the
/// wire layout that carried them; the `rns_3x36` one moved with
/// [`SESSION_PINS`]' row when uploads started arriving at their layer's
/// level.
const SESSION_RESIDUE_PINS: [(&str, u64); 2] = [
    ("rns_3x36", 0xf232_3f14_71fe_8e33),
    ("hybrid_2x36", 0xe221_6dd8_a76b_f93c),
];

#[test]
fn tiny_cnn_transcript_keeps_its_bits() {
    // The net, weights, input and seed of
    // `session_conformance.rs::tiny_cnn_conformance_on_all_preset_chains`.
    let net = tiny_cnn();
    let weights = Weights::random(&net, 2, 2024);
    let input = random_input(&net.input_shape, 3, 2025);
    let mut pins = Pins::default();
    for ((name, pin, uploads_pin), (_, residues_pin)) in
        SESSION_PINS.into_iter().zip(SESSION_RESIDUE_PINS)
    {
        let params = preset(name);
        let mut session = PrivateInferenceSession::new(&net, &weights, params.clone(), 7).unwrap();
        let (_, transcript) = session.run(&input).unwrap();
        let mut h = Fnv::new();
        let mut uploads = Fnv::new();
        let mut residues = Fnv::new();
        let mut payloads = 0;
        for m in transcript.messages() {
            payloads += usize::from(!m.payload.is_empty());
            h.bytes(m.label.as_bytes());
            h.bytes(&m.payload);
            for msg in wire::split_ciphertext_messages(&m.payload, &params).unwrap() {
                let ct = wire::decode_ciphertext(msg, &params).unwrap();
                residues.words(ct.c0().data());
                residues.words(ct.c1().data());
            }
            if m.direction == Direction::ClientToCloud && !m.payload.is_empty() {
                uploads.bytes(m.label.as_bytes());
                uploads.bytes(&m.payload);
            }
        }
        assert_eq!(
            payloads, 6,
            "{name}: 3 uploads and 3 downloads carry payloads"
        );
        pins.check(format!("{name} tiny_cnn transcript"), h.0, pin);
        pins.check(format!("{name} tiny_cnn uploads"), uploads.0, uploads_pin);
        pins.check(
            format!("{name} tiny_cnn ciphertext residues"),
            residues.0,
            residues_pin,
        );
    }
    pins.finish();
}
