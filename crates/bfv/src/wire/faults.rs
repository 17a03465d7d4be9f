//! Deterministic transcript fault injection.
//!
//! The wire layer's contract ([`crate::wire`]) is that every byte
//! crossing the protocol boundary is either *validated* before use or
//! provably irrelevant. This module is the adversary that contract is
//! tested against: a seedable [`FaultInjector`] that corrupts recorded
//! transcript messages through a fixed vocabulary of [`Corruption`]
//! classes, plus the [`classify_ciphertext_fault`] oracle that pins every
//! corruption to one of exactly two outcomes:
//!
//! * **Detected** — a typed error from wire decoding (structural faults:
//!   truncation, bad framing, kind confusion, foreign chains,
//!   non-canonical residues, over-range packed fields) or from the
//!   measured noise-budget gate at decryption (semantic faults: in-range
//!   bit flips, swapped components, consistent level lies — all of which
//!   turn into enormous invariant noise);
//! * **Harmless** — the decrypted slots are bit-identical to the clean
//!   run's (e.g. the header's reserved byte, ignored by design).
//!
//! [`FaultOutcome::SilentCorruption`] is the forbidden third outcome;
//! test suites assert it never occurs. All randomness flows from the
//! injector's seed, so any failing corruption is replayable.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use super::{
    decode_ciphertext, field_bits, plane_bytes, poly_bytes, seeded_ciphertext_wire_bytes,
    write_field, Kind, HEADER_BYTES, OFF_FINGERPRINT, OFF_KIND, OFF_LEVEL, OFF_LIVE_LIMBS,
    OFF_RESERVED, OFF_VERSION, SEED_BYTES, VERSION,
};
use crate::{BfvParams, Ciphertext, Error, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One corruption class. Every class is a pure function of the target
/// message and the session parameters — applying the same corruption to
/// the same bytes always produces the same mutant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Corruption {
    /// Flips bit `bit % 8` of byte `byte % len` — anywhere in the
    /// message: header, framing, or payload.
    BitFlip {
        /// Target byte (reduced modulo the message length).
        byte: usize,
        /// Target bit (reduced modulo 8).
        bit: u8,
    },
    /// Cuts the message down to its first `keep` bytes.
    Truncate {
        /// Bytes to keep.
        keep: usize,
    },
    /// Appends `extra` filler bytes past the declared payload.
    Extend {
        /// Bytes to append.
        extra: usize,
    },
    /// Overwrites the header's level field. With `resize_payload`, also
    /// rewrites the live-limb field and resizes the payload to the lied
    /// level's size for the message's kind, so the lie is
    /// length-consistent — structurally valid, semantically fatal.
    LevelLie {
        /// The claimed level.
        level: u32,
        /// Whether to make the lie length-consistent.
        resize_payload: bool,
    },
    /// Rewrites the chain fingerprint to a foreign value.
    ForeignFingerprint,
    /// Writes a `>= q_i` field (all ones) into the first coefficient of
    /// limb plane `limb % live` of the first component.
    NonCanonicalResidue {
        /// Target limb plane (reduced modulo the live count).
        limb: usize,
    },
    /// Writes `q_i` — or, with `top`, `2^{w_i} − 1` — into one packed
    /// field of the first component: a value the `w_i`-bit layout can
    /// express but the limb cannot hold.
    OverRange {
        /// Target limb plane (reduced modulo the live count).
        limb: usize,
        /// Target coefficient (reduced modulo the degree).
        coeff: usize,
        /// Write the field's largest value instead of `q_i`.
        top: bool,
    },
    /// Swaps the two component polynomials (`c0 ↔ c1`) — every residue
    /// stays canonical, only the semantics break.
    SwapComponents,
    /// Overwrites the header's reserved byte — the *designed harmless*
    /// target: decoders ignore it.
    ReservedByte {
        /// The value written.
        value: u8,
    },
    /// Rewrites the header's kind byte — and, for a defined kind, the
    /// version field to the one [`VERSION`] — so a message reaches the
    /// decoder framed as another kind: seeded ↔ full ciphertext (5 ↔ 1), a key
    /// kind (6, 7) or a retired one (2, 3, 4).
    KindRelabel {
        /// The kind byte written.
        kind: u8,
    },
}

impl Corruption {
    /// Short label for failure messages.
    pub fn label(&self) -> String {
        match self {
            Corruption::BitFlip { byte, bit } => format!("bitflip[{byte}.{bit}]"),
            Corruption::Truncate { keep } => format!("truncate[{keep}]"),
            Corruption::Extend { extra } => format!("extend[{extra}]"),
            Corruption::LevelLie {
                level,
                resize_payload,
            } => format!("level-lie[{level},resize={resize_payload}]"),
            Corruption::ForeignFingerprint => "foreign-fingerprint".to_string(),
            Corruption::NonCanonicalResidue { limb } => format!("non-canonical[{limb}]"),
            Corruption::OverRange { limb, coeff, top } => {
                format!("over-range[{limb}.{coeff},top={top}]")
            }
            Corruption::SwapComponents => "swap-components".to_string(),
            Corruption::ReservedByte { value } => format!("reserved[{value:#04x}]"),
            Corruption::KindRelabel { kind } => format!("kind-relabel[{kind}]"),
        }
    }
}

/// Seedable source of [`Corruption`]s and the machinery to apply them.
#[derive(Debug)]
pub struct FaultInjector {
    rng: StdRng,
}

impl FaultInjector {
    /// A deterministic injector: the same seed replays the same faults.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Draws a random corruption class sized for an `len`-byte message.
    pub fn random_corruption(&mut self, len: usize) -> Corruption {
        match self.rng.random_range(0..10u32) {
            0 => Corruption::BitFlip {
                byte: self.rng.random_range(0..len.max(1)),
                bit: self.rng.random_range(0..8u8),
            },
            1 => Corruption::Truncate {
                keep: self.rng.random_range(0..len.max(1)),
            },
            2 => Corruption::Extend {
                extra: self.rng.random_range(1..64usize),
            },
            3 => Corruption::LevelLie {
                level: self.rng.random_range(0..16u32),
                resize_payload: self.rng.random_range(0..2u32) == 1,
            },
            4 => Corruption::ForeignFingerprint,
            5 => Corruption::NonCanonicalResidue {
                limb: self.rng.random_range(0..8usize),
            },
            6 => Corruption::SwapComponents,
            7 => Corruption::ReservedByte {
                value: self.rng.random_range(0..=255u32) as u8,
            },
            8 => Corruption::OverRange {
                limb: self.rng.random_range(0..8usize),
                coeff: self.rng.random_range(0..len.max(1)),
                top: self.rng.random_range(0..2u32) == 1,
            },
            _ => Corruption::KindRelabel {
                kind: self.rng.random_range(1..=7u32) as u8,
            },
        }
    }

    /// Applies a corruption to an encoded wire message, returning the
    /// mutant. Deterministic: no randomness is consumed here. Corruptions
    /// that target fields a too-short message does not have degrade to
    /// the closest expressible mutation rather than panicking.
    ///
    /// Payload-relative classes ([`Corruption::NonCanonicalResidue`],
    /// [`Corruption::OverRange`], [`Corruption::SwapComponents`], the
    /// length-consistent [`Corruption::LevelLie`]) read the header's kind
    /// byte and level to aim at packed planes with the wire module's
    /// size helpers, in both ciphertext kinds: full payloads are
    /// `(c0, c1)`, seeded payloads are `(seed, c0)` — there the planes
    /// start [`SEED_BYTES`] later and the "components" swapped are the
    /// halves of `c0`.
    pub fn apply(message: &[u8], corruption: &Corruption, params: &BfvParams) -> Vec<u8> {
        let seeded = message.get(OFF_KIND) == Some(&(Kind::SeededCiphertext as u8));
        let chain = params.chain();
        let live = header_live(message, params);
        let payload_at = if seeded {
            HEADER_BYTES + SEED_BYTES
        } else {
            HEADER_BYTES
        };
        let mut out = message.to_vec();
        match corruption {
            Corruption::BitFlip { byte, bit } => {
                if !out.is_empty() {
                    let i = byte % out.len();
                    out[i] ^= 1 << (bit % 8);
                }
            }
            Corruption::Truncate { keep } => {
                out.truncate((*keep).min(out.len()));
            }
            Corruption::Extend { extra } => {
                let new_len = out.len() + extra;
                out.resize(new_len, 0x5a);
            }
            Corruption::LevelLie {
                level,
                resize_payload,
            } => {
                if out.len() >= HEADER_BYTES {
                    out[OFF_LEVEL..OFF_LEVEL + 4].copy_from_slice(&level.to_le_bytes());
                    let lvl = *level as usize;
                    if *resize_payload && lvl < params.levels() {
                        let claimed = params.live_limbs_at(lvl);
                        out[OFF_LIVE_LIMBS..OFF_LIVE_LIMBS + 4]
                            .copy_from_slice(&(claimed as u32).to_le_bytes());
                        // Zero filler, per component, keeps every residue
                        // canonical: in either kind the lie survives
                        // structural validation and must be caught by the
                        // noise gate — or in flight by the receiving half,
                        // which expects each message at its round's level.
                        if seeded {
                            out.resize(seeded_ciphertext_wire_bytes(params, lvl), 0);
                        } else {
                            let new = poly_bytes(chain, claimed);
                            let body = out.split_off(payload_at.min(out.len()));
                            let (c0, c1) = body.split_at(poly_bytes(chain, live).min(body.len()));
                            for component in [c0, c1] {
                                let kept = &component[..new.min(component.len())];
                                out.extend_from_slice(kept);
                                out.resize(out.len() + new - kept.len(), 0);
                            }
                        }
                    }
                }
            }
            Corruption::ForeignFingerprint => {
                if out.len() >= HEADER_BYTES {
                    for b in &mut out[OFF_FINGERPRINT..OFF_FINGERPRINT + 8] {
                        *b ^= 0xa5;
                    }
                }
            }
            Corruption::NonCanonicalResidue { limb } => {
                over_range(&mut out, payload_at, *limb % live, 0, true, params);
            }
            Corruption::OverRange { limb, coeff, top } => {
                let coeff = coeff % params.degree();
                over_range(&mut out, payload_at, *limb % live, coeff, *top, params);
            }
            Corruption::SwapComponents => {
                // Full format: swap c0 and c1. Seeded format has a single
                // shipped polynomial, so the halves of c0 are swapped
                // instead (the seed is left intact) — residues stay in
                // range per-plane only by accident, so the mutant dies
                // either structurally or at the noise gate.
                let poly = poly_bytes(chain, live);
                let (span, half) = if seeded {
                    (poly, poly / 2)
                } else {
                    (2 * poly, poly)
                };
                if let Some(payload) = out.get_mut(payload_at..payload_at + span) {
                    let (a, b) = payload.split_at_mut(half);
                    a.swap_with_slice(&mut b[..half]);
                }
            }
            Corruption::ReservedByte { value } => {
                if out.len() >= HEADER_BYTES {
                    out[OFF_RESERVED] = *value;
                }
            }
            Corruption::KindRelabel { kind } => {
                if out.len() >= HEADER_BYTES {
                    out[OFF_KIND] = *kind;
                    if Kind::from_u8(*kind).is_some() {
                        out[OFF_VERSION..OFF_VERSION + 2].copy_from_slice(&VERSION.to_le_bytes());
                    }
                }
            }
        }
        out
    }
}

/// Live planes per polynomial the header's level claims — what a decoder
/// frames the payload by; the whole chain when the level is past it (or
/// the header is cut short).
fn header_live(message: &[u8], params: &BfvParams) -> usize {
    let level = message
        .get(OFF_LEVEL..OFF_LEVEL + 4)
        .and_then(|b| <[u8; 4]>::try_from(b).ok())
        .map_or(0, |b| u32::from_le_bytes(b) as usize);
    if level < params.levels() {
        params.live_limbs_at(level)
    } else {
        params.limbs()
    }
}

/// Writes `q_plane` (or, with `top`, the all-ones field) into field
/// `coeff` of plane `plane` of the first polynomial after `payload_at`;
/// a message too short to hold that plane is left as it is.
fn over_range(
    out: &mut [u8],
    payload_at: usize,
    plane: usize,
    coeff: usize,
    top: bool,
    params: &BfvParams,
) {
    let chain = params.chain();
    let at = payload_at + poly_bytes(chain, plane);
    let q = chain.modulus(plane).value();
    let bits = field_bits(q);
    let value = if top { u64::MAX >> (64 - bits) } else { q };
    if let Some(bytes) = out.get_mut(at..at + plane_bytes(chain, plane)) {
        write_field(bytes, bits, coeff, value);
    }
}

/// The verdict on one injected fault. [`FaultOutcome::SilentCorruption`]
/// must never occur — suites assert its absence; the other two are the
/// only contractual outcomes.
#[derive(Debug)]
pub enum FaultOutcome {
    /// The corruption surfaced as a typed error — at wire decoding or at
    /// the measured noise-budget gate.
    Detected(Error),
    /// The mutant decodes and decrypts bit-identically to the clean
    /// message: the corrupted bytes were provably irrelevant.
    Harmless,
    /// The forbidden third outcome: the mutant decrypted *differently*
    /// without any error. A suite seeing this has found a real wire-layer
    /// hole.
    SilentCorruption,
}

/// Runs one corrupted ciphertext message through the full receive path —
/// wire validation against `params`, then `decrypt_slots`, the receiving
/// client's measured-noise-gated decryption — and classifies the outcome
/// against the clean message's decryption.
///
/// # Errors
///
/// Errors only on harness misuse: a `clean` reference that itself fails
/// to decode or decrypt.
pub fn classify_ciphertext_fault(
    params: &BfvParams,
    decrypt_slots: impl Fn(&Ciphertext) -> Result<Vec<i64>>,
    clean: &[u8],
    corrupted: &[u8],
) -> Result<FaultOutcome> {
    let reference = decode_ciphertext(clean, params)?;
    let reference_slots = decrypt_slots(&reference)?;
    let ct = match decode_ciphertext(corrupted, params) {
        Err(e) => return Ok(FaultOutcome::Detected(e)),
        Ok(ct) => ct,
    };
    match decrypt_slots(&ct) {
        Err(e) => Ok(FaultOutcome::Detected(e)),
        Ok(slots) if slots == reference_slots => Ok(FaultOutcome::Harmless),
        Ok(_) => Ok(FaultOutcome::SilentCorruption),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn injector_is_deterministic_per_seed() {
        let mut a = FaultInjector::new(42);
        let mut b = FaultInjector::new(42);
        for _ in 0..32 {
            assert_eq!(a.random_corruption(1000), b.random_corruption(1000));
        }
        let mut c = FaultInjector::new(43);
        let draws_a: Vec<_> = (0..8).map(|_| a.random_corruption(1000)).collect();
        let draws_c: Vec<_> = (0..8).map(|_| c.random_corruption(1000)).collect();
        assert_ne!(draws_a, draws_c, "different seeds should diverge");
    }

    #[test]
    fn apply_never_panics_on_tiny_messages() {
        let params = BfvParams::preset_rns_2x30(4096).unwrap();
        let mut inj = FaultInjector::new(7);
        for len in [0usize, 1, 7, 23, 24, 31] {
            let msg = vec![0u8; len];
            for _ in 0..16 {
                let c = inj.random_corruption(len);
                let _ = FaultInjector::apply(&msg, &c, &params);
            }
        }
    }

    #[test]
    fn a_resized_level_lie_keeps_each_component_canonical() {
        // Down the chain and back up, on a full ciphertext: each component
        // keeps its planes under the claimed level's live count (zeros past
        // the original's), so the lie decodes at the claimed level.
        let params = BfvParams::preset_rns_3x36(4096).unwrap();
        let keygen = crate::KeyGenerator::from_seed(params.clone(), 5);
        let mut enc = crate::Encryptor::from_secret_key(keygen.secret_key().clone(), 6);
        let pt = crate::Plaintext::from_coeffs(vec![1; 4096], params.clone()).unwrap();
        for (from, to) in [(2usize, 0u32), (0, 1), (1, 2)] {
            let (ct, _) = enc.encrypt_seeded_at(&pt, from).unwrap();
            let clean = super::super::encode_ciphertext(&ct);
            let lie = Corruption::LevelLie {
                level: to,
                resize_payload: true,
            };
            let mutant = FaultInjector::apply(&clean, &lie, &params);
            let sized = super::super::ciphertext_wire_bytes(&params, to as usize);
            assert_eq!(mutant.len(), sized);
            let lied = decode_ciphertext(&mutant, &params).unwrap();
            assert_eq!(lied.level(), to as usize);
            let shared = ct.live_limbs().min(lied.live_limbs());
            for i in 0..shared {
                assert_eq!(lied.c0().limb(i), ct.c0().limb(i), "{from} -> {to}");
                assert_eq!(lied.c1().limb(i), ct.c1().limb(i), "{from} -> {to}");
            }
        }
    }

    #[test]
    fn kind_relabel_writes_the_kind_and_a_defined_kinds_version() {
        let params = BfvParams::preset_rns_2x30(4096).unwrap();
        let msg = vec![0u8; HEADER_BYTES];
        for (kind, version) in [
            (1u8, VERSION),
            (5, VERSION),
            (6, VERSION),
            (7, VERSION),
            (3, 0),
        ] {
            let out = FaultInjector::apply(&msg, &Corruption::KindRelabel { kind }, &params);
            assert_eq!(out[OFF_KIND], kind);
            let written = u16::from_le_bytes([out[OFF_VERSION], out[OFF_VERSION + 1]]);
            assert_eq!(written, version, "kind {kind}");
        }
    }
}
