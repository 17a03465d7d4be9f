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
//!   non-canonical residues) or from the measured noise-budget gate at
//!   decryption (semantic faults: in-range bit flips, swapped components,
//!   consistent level lies — all of which turn into enormous invariant
//!   noise);
//! * **Harmless** — the decrypted slots are bit-identical to the clean
//!   run's (e.g. the header's reserved byte, ignored by design).
//!
//! [`FaultOutcome::SilentCorruption`] is the forbidden third outcome;
//! test suites assert it never occurs. All randomness flows from the
//! injector's seed, so any failing corruption is replayable.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use super::{
    ciphertext_wire_bytes, decode_ciphertext, Kind, HEADER_BYTES, OFF_FINGERPRINT, OFF_KIND,
    OFF_LEVEL, OFF_LIVE_LIMBS, OFF_RESERVED, OFF_VERSION, SEED_BYTES,
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
    /// rewrites the live-limb field and resizes the payload so the lie is
    /// length-consistent — structurally valid, semantically fatal.
    LevelLie {
        /// The claimed level.
        level: u32,
        /// Whether to make the lie length-consistent.
        resize_payload: bool,
    },
    /// Rewrites the chain fingerprint to a foreign value.
    ForeignFingerprint,
    /// Writes a `>= q_i` word into limb plane `limb % live` of the first
    /// component.
    NonCanonicalResidue {
        /// Target limb plane (reduced modulo the live count).
        limb: usize,
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
    /// version field to that kind's — so a message reaches the decoder
    /// framed as another kind: seeded ↔ full ciphertext (5 ↔ 1), a key
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
        match self.rng.random_range(0..9u32) {
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
    /// [`Corruption::SwapComponents`], the length-consistent
    /// [`Corruption::LevelLie`]) read the header's kind byte to aim at
    /// the right offsets in both wire formats: full v1 payloads are
    /// `(c0, c1)`, seeded v2 payloads are `(seed, c0)` — there the
    /// residue planes start [`SEED_BYTES`] later and the
    /// "components" swapped are the halves of `c0`.
    pub fn apply(message: &[u8], corruption: &Corruption, params: &BfvParams) -> Vec<u8> {
        let seeded = message.get(OFF_KIND) == Some(&(Kind::SeededCiphertext as u8));
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
                        let live = params.live_limbs_at(lvl) as u32;
                        out[OFF_LIVE_LIMBS..OFF_LIVE_LIMBS + 4]
                            .copy_from_slice(&live.to_le_bytes());
                        // Zero filler keeps every residue canonical: on
                        // the full format the lie survives structural
                        // validation and must be caught by the noise gate
                        // instead. (Seeded messages have one fixed size
                        // and a level-0-only decoder, so there the lie is
                        // always structural.)
                        if !seeded {
                            out.resize(ciphertext_wire_bytes(params, lvl), 0);
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
                let planes_at = if seeded {
                    HEADER_BYTES + SEED_BYTES
                } else {
                    HEADER_BYTES
                };
                if out.len() >= planes_at + 8 {
                    let n = params.degree();
                    let payload_words = (out.len() - planes_at) / 8;
                    let components = if seeded { 1 } else { 2 };
                    let live = (payload_words / components / n).max(1);
                    let plane = limb % live;
                    let at = planes_at + plane * n * 8;
                    if at + 8 <= out.len() {
                        // q < 2^62 everywhere in this engine, so MAX is
                        // never a canonical residue.
                        out[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
                    }
                }
            }
            Corruption::SwapComponents => {
                // Full format: swap c0 and c1. Seeded format has a single
                // shipped polynomial, so the halves of c0 are swapped
                // instead (the seed is left intact) — residues stay in
                // range per-plane only by accident, so the mutant dies
                // either structurally or at the noise gate.
                let payload_at = if seeded {
                    HEADER_BYTES + SEED_BYTES
                } else {
                    HEADER_BYTES
                };
                if out.len() > payload_at {
                    let payload = out.len() - payload_at;
                    let half = payload / 2;
                    let (a, b) = out.split_at_mut(payload_at + half);
                    let a = &mut a[payload_at..];
                    for (x, y) in a.iter_mut().zip(b.iter_mut()) {
                        std::mem::swap(x, y);
                    }
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
                    if let Some(defined) = Kind::from_u8(*kind) {
                        out[OFF_VERSION..OFF_VERSION + 2]
                            .copy_from_slice(&defined.version().to_le_bytes());
                    }
                }
            }
        }
        out
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
    fn kind_relabel_writes_the_kind_and_a_defined_kinds_version() {
        let params = BfvParams::preset_rns_2x30(4096).unwrap();
        let msg = vec![0u8; HEADER_BYTES];
        for (kind, version) in [(1u8, 1u16), (5, 2), (6, 2), (7, 2), (3, 0)] {
            let out = FaultInjector::apply(&msg, &Corruption::KindRelabel { kind }, &params);
            assert_eq!(out[OFF_KIND], kind);
            let written = u16::from_le_bytes([out[OFF_VERSION], out[OFF_VERSION + 1]]);
            assert_eq!(written, version, "kind {kind}");
        }
    }
}
