//! Transcript fault-injection suite: the detected-or-harmless contract,
//! pinned end to end on all three preset chains.
//!
//! A clean tiny-CNN private-inference session is recorded with real wire
//! payloads; every ciphertext message is then replayed through every
//! [`Corruption`] class (plus seeded random draws) and classified by
//! [`classify_ciphertext_fault`]:
//!
//! * structural faults (truncation, extension, bad framing, kind
//!   confusion, foreign fingerprints, non-canonical residues,
//!   inconsistent level lies) must die in wire validation with a typed
//!   error;
//! * semantic faults (in-range bit flips, swapped components, consistent
//!   level lies) must die at the measured noise-budget gate — and a
//!   consistent level lie in flight already dies at the receiving half:
//!   the server expects each layer's upload at one level, the client each
//!   download at the level the round's record ships at;
//! * the header's reserved byte must be provably harmless — bit-identical
//!   decryption.
//!
//! There is no third outcome, and nothing panics. The seed comes from
//! `FAULT_SEED` (defaulting to a fixed value) so CI failures replay.

#[path = "../../bfv/tests/support/mod.rs"]
mod support;

use cheetah_bfv::wire;
use cheetah_bfv::wire::faults::{
    classify_ciphertext_fault, Corruption, FaultInjector, FaultOutcome,
};
use cheetah_bfv::{BfvParams, Error};
use cheetah_nn::inference::random_input;
use cheetah_nn::models::tiny_cnn;
use cheetah_nn::{Network, Weights};
use cheetah_serve::{
    ClientSession, LayerDownload, PreparedModel, PrivateInferenceSession, ServerSession,
};
use support::Alloc;

const N: usize = 4096;

fn fault_seed() -> u64 {
    std::env::var("FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FF_EE00)
}

/// The three preset chains with the session's decomposition base (as in
/// the root conformance suite).
fn preset_chains() -> Vec<(&'static str, BfvParams)> {
    let single_60 = BfvParams::builder()
        .degree(N)
        .plain_bits(18)
        .moduli_bits(&[60])
        .a_dcmp(1 << 6)
        .build()
        .unwrap();
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

fn recorded_session(
    net: &Network,
    params: &BfvParams,
) -> (PrivateInferenceSession, Vec<(String, Vec<u8>)>) {
    let weights = Weights::random(net, 2, 611);
    let input = random_input(&net.input_shape, 3, 612);
    let mut session = PrivateInferenceSession::new(net, &weights, params.clone(), 77).unwrap();
    let (_, transcript) = session.run(&input).unwrap();

    // Every recorded payload, split into individual wire messages (a
    // download bundle carries one message per output ciphertext).
    let mut messages = Vec::new();
    for m in transcript
        .messages()
        .iter()
        .filter(|m| !m.payload.is_empty())
    {
        for (i, part) in wire::split_ciphertext_messages(&m.payload, params)
            .unwrap()
            .iter()
            .enumerate()
        {
            messages.push((format!("{} #{i}", m.label), part.to_vec()));
        }
    }
    assert!(
        messages.len() >= 6,
        "expected uploads + downloads for 3 linear layers, got {}",
        messages.len()
    );
    (session, messages)
}

/// The fixed corruption battery run against every recorded message.
fn corruption_battery(params: &BfvParams, len: usize) -> Vec<Corruption> {
    let mut battery = vec![
        // Payload bit flips: structurally canonical, semantically fatal.
        Corruption::BitFlip {
            byte: wire::HEADER_BYTES + 5,
            bit: 0,
        },
        Corruption::BitFlip {
            byte: len.saturating_sub(3),
            bit: 6,
        },
        // Header bit flip (magic).
        Corruption::BitFlip { byte: 0, bit: 1 },
        // Truncation: inside the header and inside the payload.
        Corruption::Truncate { keep: 7 },
        Corruption::Truncate { keep: len / 2 },
        Corruption::Truncate { keep: 0 },
        // Extension past the declared payload.
        Corruption::Extend { extra: 1 },
        Corruption::Extend { extra: 64 },
        // Level lies: inconsistent (length check) and past-the-chain.
        Corruption::LevelLie {
            level: 7,
            resize_payload: false,
        },
        // Foreign chain fingerprint.
        Corruption::ForeignFingerprint,
        // Non-canonical residue in the first limb plane.
        Corruption::NonCanonicalResidue { limb: 0 },
        // Over-range packed fields: `q_0` itself, and the all-ones field
        // in the plane's last coefficient.
        Corruption::OverRange {
            limb: 0,
            coeff: 1,
            top: false,
        },
        Corruption::OverRange {
            limb: 0,
            coeff: params.degree() - 1,
            top: true,
        },
        // Swapped c0/c1: canonical residues, dead ciphertext.
        Corruption::SwapComponents,
        // The designed-harmless target.
        Corruption::ReservedByte { value: 0xff },
    ];
    // Kind confusion: seeded ↔ full ciphertext (a no-op on a message
    // already of that kind), the key kinds, the retired kinds.
    battery.extend((1..=7).map(|kind| Corruption::KindRelabel { kind }));
    if params.levels() > 1 {
        // Length-consistent level lies, one limb down and back to the
        // full chain (a no-op on a message already there): both survive
        // structural validation and must die at the noise gate.
        for level in [0, 1] {
            battery.push(Corruption::LevelLie {
                level,
                resize_payload: true,
            });
        }
        battery.push(Corruption::NonCanonicalResidue { limb: 1 });
    }
    battery
}

fn run_fault_matrix(name: &str, params: BfvParams) {
    let net = tiny_cnn();
    let (session, messages) = recorded_session(&net, &params);
    let mut injector = FaultInjector::new(fault_seed());

    let mut detected = 0usize;
    let mut harmless = 0usize;
    for (label, clean) in &messages {
        let mut battery = corruption_battery(&params, clean.len());
        for _ in 0..4 {
            battery.push(injector.random_corruption(clean.len()));
        }
        for corruption in battery {
            let mutant = FaultInjector::apply(clean, &corruption, &params);
            if mutant == *clean {
                // e.g. a random ReservedByte draw that wrote the value
                // already present — nothing was corrupted.
                continue;
            }
            match classify_ciphertext_fault(&params, |ct| session.decrypt_slots(ct), clean, &mutant)
                .unwrap()
            {
                FaultOutcome::Detected(_) => detected += 1,
                FaultOutcome::Harmless => harmless += 1,
                FaultOutcome::SilentCorruption => panic!(
                    "{name}: SILENT CORRUPTION — {} on '{label}' decrypted \
                     differently without an error (seed {})",
                    corruption.label(),
                    fault_seed()
                ),
            }
        }
    }
    assert!(
        detected > 0 && harmless > 0,
        "{name}: fault matrix should exercise both outcomes \
         (detected {detected}, harmless {harmless})"
    );
}

#[test]
fn fault_matrix_single_60() {
    let (name, params) = preset_chains().swap_remove(0);
    run_fault_matrix(name, params);
}

#[test]
fn fault_matrix_rns_2x30() {
    let (name, params) = preset_chains().swap_remove(1);
    run_fault_matrix(name, params);
}

#[test]
fn fault_matrix_rns_3x36() {
    let (name, params) = preset_chains().swap_remove(2);
    run_fault_matrix(name, params);
}

/// Specific typed-error pins for each structural corruption class — the
/// matrix above proves the two-outcome contract; this proves each class
/// lands on the *right* error.
#[test]
fn corruption_classes_map_to_expected_errors() {
    let (_, params) = preset_chains().swap_remove(2);
    let net = tiny_cnn();
    let (session, messages) = recorded_session(&net, &params);
    let (_, clean) = &messages[0];

    let case = |c: Corruption| {
        let mutant = FaultInjector::apply(clean, &c, &params);
        wire::decode_ciphertext(&mutant, &params)
    };

    assert!(matches!(
        case(Corruption::Truncate { keep: 10 }),
        Err(Error::Malformed { .. })
    ));
    assert!(matches!(
        case(Corruption::Extend { extra: 8 }),
        Err(Error::Malformed { .. })
    ));
    assert!(matches!(
        case(Corruption::ForeignFingerprint),
        Err(Error::ChainMismatch { .. })
    ));
    assert!(matches!(
        case(Corruption::LevelLie {
            level: 9,
            resize_payload: false
        }),
        Err(Error::InvalidLevel { requested: 9, .. })
    ));
    assert!(matches!(
        case(Corruption::NonCanonicalResidue { limb: 0 }),
        Err(Error::Malformed { .. })
    ));
    // An over-range field is refused by name: its plane and coefficient,
    // in every plane the upload carries at its layer's level.
    let live = wire::decode_ciphertext(clean, &params)
        .unwrap()
        .live_limbs();
    for limb in 0..live {
        for top in [false, true] {
            match case(Corruption::OverRange {
                limb,
                coeff: 7,
                top,
            }) {
                Err(Error::Malformed { reason, .. }) => assert!(
                    reason.contains(&format!("plane {limb} at coefficient 7")),
                    "{reason}"
                ),
                other => panic!("over-range plane {limb} (top {top}): got {other:?}"),
            }
        }
    }

    // A length-consistent level lie on an upload — a level-0 one cut to
    // the next level's planes, a deeper one padded back out to the full
    // chain with zero planes — keeps every field canonical: it decodes,
    // and dies at the noise gate (`Δ_ℓ` differs per level).
    let lied_level = |message: &[u8]| {
        let level = wire::decode_ciphertext(message, &params).unwrap().level();
        u32::from(level == 0)
    };
    let lie = |message: &[u8]| {
        let corruption = Corruption::LevelLie {
            level: lied_level(message),
            resize_payload: true,
        };
        FaultInjector::apply(message, &corruption, &params)
    };
    let ct = wire::decode_ciphertext(&lie(clean), &params)
        .unwrap_or_else(|e| panic!("a consistent level lie decodes, got {e}"));
    assert_eq!(ct.level() as u32, lied_level(clean));
    assert!(
        matches!(session.decrypt_slots(&ct), Err(Error::NoiseBudgetExhausted)),
        "consistent level lie must die at the noise gate"
    );
    // In flight, it never gets that far: the server expects the layer's
    // input at the level the prepared model fixed, and refuses the lie
    // before any arithmetic.
    let model = PreparedModel::new(&net, &Weights::random(&net, 2, 611), params.clone()).unwrap();
    let input = random_input(&net.input_shape, 3, 612);
    let (mut client, setup) = ClientSession::new(model.clone(), 77, &input).unwrap();
    let mut server = ServerSession::new(model.clone(), setup, 77).unwrap();
    let upload = client.next_upload().unwrap();
    let refused = server.process_upload(&lie(&upload), &mut model.evaluator().new_scratch());
    assert!(
        matches!(
            refused,
            Err(Error::LevelMismatch { expected, found })
                if expected == model.round(0).level && found as u32 == lied_level(&upload)
        ),
        "a consistent level lie must die at the server, got {:?}",
        refused.err()
    );
    let fault = server.reports()[0].fault.as_deref().unwrap();
    assert!(fault.contains("different levels"), "{fault}");

    // The same lie on the round's download: it decodes, and on its own
    // would die only at the noise gate — but the client checks every
    // message's level against the round's record first, and refuses it
    // before anything is decrypted. The honest download still goes
    // through afterwards: the refusal left the client's round untouched.
    let honest = client.next_upload().unwrap();
    let mut scratch = model.evaluator().new_scratch();
    let download = server.process_upload(&honest, &mut scratch).unwrap();
    let parts = wire::split_ciphertext_messages(&download.payload, &params).unwrap();
    let lied_ct = wire::decode_ciphertext(&lie(parts[0]), &params)
        .unwrap_or_else(|e| panic!("a consistent level lie decodes, got {e}"));
    assert!(
        matches!(
            client.decrypt_slots(&lied_ct),
            Err(Error::NoiseBudgetExhausted)
        ),
        "a lied download the client decrypted would die at the noise gate"
    );
    let lied = LayerDownload {
        payload: parts.iter().flat_map(|part| lie(part)).collect(),
        mask: download.mask.clone(),
        next_mask: download.next_mask.clone(),
    };
    let shipped = model.round(0).shipped_level;
    let refused = client.absorb_download(&lied);
    assert!(
        matches!(
            refused,
            Err(Error::LevelMismatch { expected, found })
                if expected == shipped && found as u32 == lied_level(parts[0])
        ),
        "a consistent level lie on a download must die before decryption, got {:?}",
        refused.err()
    );
    assert_eq!(client.layer(), 0);
    assert!(client.absorb_download(&download).unwrap().is_none());
    assert_eq!(client.layer(), 1);

    // Semantic classes decode fine but die at the noise gate. They are
    // pinned on a *download* message: uploads ship seeded with a single
    // c0 component, so swapping that component's halves crosses prime
    // planes and is (correctly) caught structurally instead — downloads
    // keep both components in the full format where the swap is exactly
    // c0 ↔ c1.
    let (_, dl_clean) = messages
        .iter()
        .find(|(label, _)| label.contains("enc masked outputs"))
        .expect("recorded session has download messages");
    for c in [
        Corruption::SwapComponents,
        Corruption::BitFlip {
            byte: wire::HEADER_BYTES + 11,
            bit: 2,
        },
    ] {
        let mutant = FaultInjector::apply(dl_clean, &c, &params);
        let ct = wire::decode_ciphertext(&mutant, &params)
            .unwrap_or_else(|e| panic!("{} should decode, got {e}", c.label()));
        assert!(
            matches!(session.decrypt_slots(&ct), Err(Error::NoiseBudgetExhausted)),
            "{} should exhaust the measured noise budget",
            c.label()
        );
    }

    // Kind confusion dies at the framing checks: an upload read as a full
    // ciphertext, a download as a seeded one, either as a key kind or a
    // retired one.
    for (message, kind) in [
        (clean, 1u8),
        (dl_clean, 5),
        (clean, 6),
        (dl_clean, 7),
        (clean, 2),
        (dl_clean, 3),
        (clean, 4),
    ] {
        let mutant = FaultInjector::apply(message, &Corruption::KindRelabel { kind }, &params);
        assert!(
            matches!(
                wire::decode_ciphertext(&mutant, &params),
                Err(Error::Malformed { .. })
            ),
            "kind {kind} must be refused by the framing checks"
        );
    }

    // The reserved byte is the designed harmless flip.
    let mutant = FaultInjector::apply(clean, &Corruption::ReservedByte { value: 0x7b }, &params);
    assert_ne!(mutant, *clean);
    let a = wire::decode_ciphertext(clean, &params).unwrap();
    let b = wire::decode_ciphertext(&mutant, &params).unwrap();
    assert_eq!(
        session.decrypt_slots(&a).unwrap(),
        session.decrypt_slots(&b).unwrap()
    );
}

/// A rejected message leaves a fault-bearing [`LayerReport`] behind: an
/// aborted session says which message killed it.
#[test]
fn rejected_boundary_message_notes_the_fault() {
    let (_, params) = preset_chains().swap_remove(0);
    let net = tiny_cnn();
    let (mut session, messages) = recorded_session(&net, &params);
    let (_, clean) = &messages[0];

    let mutant = FaultInjector::apply(clean, &Corruption::ForeignFingerprint, &params);
    let before = session.layer_reports().len();
    let err = session
        .decode_boundary("enc activations L0", &mutant)
        .unwrap_err();
    assert!(matches!(err, Error::ChainMismatch { .. }));
    let reports = session.layer_reports();
    assert_eq!(reports.len(), before + 1);
    let fault = reports.last().unwrap().fault.as_deref().unwrap();
    assert!(
        fault.contains("foreign parameter chain"),
        "fault note should render the typed error: {fault}"
    );
}

/// The Galois key set is plan-exact (`O(√d)` keys); an unplanned rotation
/// step must be a typed [`Error::MissingGaloisKey`] naming the step —
/// never a silent identity or a panic.
#[test]
fn unplanned_rotation_step_is_a_typed_missing_key() {
    let (_, params) = preset_chains().swap_remove(0);
    let net = tiny_cnn();
    let (session, messages) = recorded_session(&net, &params);
    let ct = wire::decode_ciphertext(&messages[0].1, &params).unwrap();

    // The tiny-CNN plan covers a sparse step set; scan for one it missed.
    let mut hit = None;
    for step in 2..64i64 {
        match session
            .evaluator()
            .rotate_rows(&ct, step, session.galois_keys())
        {
            Err(Error::MissingGaloisKey { element, step: s }) => {
                assert_eq!(s, Some(step), "missing-key error must name the step");
                assert!(element % 2 == 1, "galois elements are odd");
                hit = Some(step);
                break;
            }
            Ok(_) | Err(_) => continue,
        }
    }
    assert!(
        hit.is_some(),
        "expected at least one unplanned step in 2..64 for the O(sqrt d) key set"
    );
}

/// Hoisted decompositions replay only against their source ciphertext:
/// a stale replay against a different ciphertext is a typed error.
#[test]
fn stale_hoist_replay_is_rejected() {
    let (_, params) = preset_chains().swap_remove(0);
    let net = tiny_cnn();
    let (session, messages) = recorded_session(&net, &params);
    let ct_a = wire::decode_ciphertext(&messages[0].1, &params).unwrap();
    let ct_b = wire::decode_ciphertext(&messages[1].1, &params).unwrap();

    let eval = session.evaluator();
    let keys = session.galois_keys();
    // Find a step the session actually planned keys for.
    let mut planned = None;
    for s in 1..64i64 {
        if eval.rotate_rows(&ct_a, s, keys).is_ok() {
            planned = Some(s);
            break;
        }
    }
    let s = planned.expect("session plans at least one rotation step");

    let hoisted = eval.hoist(&ct_a).unwrap();
    // Replaying against the hoist's own source works…
    assert!(eval.rotate_hoisted(&ct_a, &hoisted, s, keys).is_ok());
    // …replaying it against a different ciphertext is rejected.
    assert!(matches!(
        eval.rotate_hoisted(&ct_b, &hoisted, s, keys),
        Err(Error::ParameterMismatch)
    ));
}
