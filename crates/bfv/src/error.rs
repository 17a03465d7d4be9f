//! Error types for the BFV engine.

use std::fmt;

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by the BFV engine.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// The modulus is out of the supported range: raw Barrett arithmetic
    /// needs `2 <= q < 2^62`, and NTT limbs (everything a parameter chain
    /// admits, special prime included) need `q < 2^61` for lazy-butterfly
    /// headroom.
    InvalidModulus(u64),
    /// A value has no inverse modulo the given modulus.
    NotInvertible {
        /// The non-invertible value.
        value: u64,
        /// The modulus.
        modulus: u64,
    },
    /// No NTT-friendly prime of the requested size exists.
    NoNttPrime {
        /// Requested bit size.
        bits: u32,
        /// Polynomial degree.
        n: usize,
    },
    /// No primitive root of the requested order exists modulo the prime.
    NoPrimitiveRoot {
        /// The modulus.
        modulus: u64,
        /// The requested multiplicative order.
        order: u64,
    },
    /// The polynomial degree is invalid (must be a power of two ≥ 8).
    InvalidDegree(usize),
    /// Parameter combination violates the requested security level.
    InsecureParameters {
        /// Polynomial degree.
        n: usize,
        /// Bits of ciphertext modulus requested.
        log_q: u32,
        /// Maximum secure bits of ciphertext modulus for this degree.
        max_log_q: u32,
    },
    /// Two objects built from different encryption parameters were mixed.
    ParameterMismatch,
    /// A polynomial was used in the wrong representation (coeff vs eval).
    WrongRepresentation {
        /// What the operation required.
        expected: &'static str,
        /// What was found.
        found: &'static str,
    },
    /// The plaintext has more data than available slots.
    TooManyValues {
        /// Values supplied.
        given: usize,
        /// Slots available.
        slots: usize,
    },
    /// A rotation step is out of range for the slot geometry.
    InvalidRotation(i64),
    /// Two operands (or an operand and a precomputation) live at different
    /// levels of the modulus chain. Levels count *dropped* limbs, so the
    /// shallower operand must be modulus-switched down (or the deeper
    /// precomputation rebuilt) before they can meet.
    LevelMismatch {
        /// Level of the primary operand.
        expected: usize,
        /// Level of the offending operand.
        found: usize,
    },
    /// A modulus-switch target level is invalid: above the chain's deepest
    /// level, or shallower than the ciphertext already is (limbs cannot be
    /// re-grown).
    InvalidLevel {
        /// The requested level.
        requested: usize,
        /// The ciphertext's current level.
        current: usize,
        /// The deepest level the chain supports (`limbs - 1`).
        max: usize,
    },
    /// Required Galois key is missing from the provided key set.
    MissingGaloisKey {
        /// The Galois element whose key is absent.
        element: u64,
        /// The rotation step that needed the element, when the lookup came
        /// from a step-based rotation (`None` for raw element lookups).
        step: Option<i64>,
    },
    /// A Galois element is structurally invalid for this degree: it must
    /// be odd and lie in `1..2n`.
    InvalidGaloisElement(u64),
    /// Decryption noise exceeded the budget; plaintext unrecoverable.
    NoiseBudgetExhausted,
    /// The decomposition base must be a power of two ≥ 2.
    InvalidDecompositionBase(u64),
    /// A modulus chain must have between 1 and `MAX_RNS_LIMBS` limbs.
    InvalidLimbCount {
        /// Limb count supplied.
        limbs: usize,
    },
    /// The composed modulus chain exceeds what exact CRT arithmetic
    /// supports (`Q` itself, and `t·Q` during decryption rounding, must
    /// fit 128 bits).
    ModulusChainTooLarge {
        /// Bits of the composed modulus (with the plaintext margin).
        total_bits: u32,
        /// Maximum supported bits.
        max_bits: u32,
    },
    /// A wire-format message (length, magic, version, header fields, or
    /// canonical residues) or a plaintext's coefficient vector (length,
    /// residues mod `t`) failed structural validation before any
    /// arithmetic touched it.
    Malformed {
        /// What was being built (`"ciphertext"`, `"plaintext"`, …).
        what: &'static str,
        /// Which structural invariant failed.
        reason: String,
    },
    /// A wire message was produced under a different parameter chain than
    /// the session's (degree / plaintext modulus / modulus chain /
    /// decomposition bases fingerprint mismatch).
    ChainMismatch {
        /// Fingerprint of the session's parameter chain.
        expected: u64,
        /// Fingerprint carried by the message header.
        found: u64,
    },
    /// The operation reached a feature this engine does not implement
    /// (returned instead of panicking at the protocol boundary).
    Unsupported(&'static str),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidModulus(v) => write!(
                f,
                "modulus {v} unsupported: Barrett arithmetic needs 2 <= q < 2^62, NTT limbs need q < 2^61"
            ),
            Error::NotInvertible { value, modulus } => {
                write!(f, "{value} is not invertible modulo {modulus}")
            }
            Error::NoNttPrime { bits, n } => write!(
                f,
                "not enough {bits}-bit NTT primes for degree {n} \
                 (q ≡ 1 mod {}, or mod 2n·t on a congruent chain)",
                2 * n
            ),
            Error::NoPrimitiveRoot { modulus, order } => {
                write!(f, "no primitive root of order {order} modulo {modulus}")
            }
            Error::InvalidDegree(n) => {
                write!(f, "invalid polynomial degree {n}; need a power of two >= 8")
            }
            Error::InsecureParameters { n, log_q, max_log_q } => write!(
                f,
                "log2(q) = {log_q} exceeds the {max_log_q}-bit limit for degree {n} at 128-bit security"
            ),
            Error::ParameterMismatch => write!(f, "objects use different encryption parameters"),
            Error::WrongRepresentation { expected, found } => {
                write!(f, "expected polynomial in {expected} form, found {found}")
            }
            Error::TooManyValues { given, slots } => {
                write!(f, "{given} values exceed the {slots} available slots")
            }
            Error::InvalidRotation(k) => write!(f, "rotation step {k} out of range"),
            Error::LevelMismatch { expected, found } => write!(
                f,
                "operands live at different levels of the modulus chain \
                 (expected level {expected}, found level {found})"
            ),
            Error::InvalidLevel {
                requested,
                current,
                max,
            } => write!(
                f,
                "cannot modulus-switch to level {requested} from level {current} \
                 (chain supports levels 0..={max})"
            ),
            Error::MissingGaloisKey { element, step } => match step {
                Some(s) => write!(
                    f,
                    "no Galois key for rotation step {s} (element {element})"
                ),
                None => write!(f, "no Galois key generated for element {element}"),
            },
            Error::InvalidGaloisElement(g) => {
                write!(f, "Galois element {g} must be odd and lie in 1..2n")
            }
            Error::NoiseBudgetExhausted => {
                write!(f, "noise budget exhausted; decryption would fail")
            }
            Error::InvalidDecompositionBase(b) => {
                write!(f, "decomposition base {b} must be a power of two >= 2")
            }
            Error::InvalidLimbCount { limbs } => {
                write!(f, "modulus chain needs 1..=8 limbs, got {limbs}")
            }
            Error::ModulusChainTooLarge {
                total_bits,
                max_bits,
            } => write!(
                f,
                "modulus chain spans {total_bits} bits, exceeding the {max_bits}-bit exact-CRT limit"
            ),
            Error::Malformed { what, reason } => {
                write!(f, "malformed {what}: {reason}")
            }
            Error::ChainMismatch { expected, found } => write!(
                f,
                "wire message from a foreign parameter chain \
                 (fingerprint {found:#018x}, session expects {expected:#018x})"
            ),
            Error::Unsupported(what) => write!(f, "unsupported: {what}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_are_send_sync_and_display() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
        let e = Error::InvalidModulus(1);
        assert!(!e.to_string().is_empty());
        let e = Error::InsecureParameters {
            n: 2048,
            log_q: 60,
            max_log_q: 54,
        };
        assert!(e.to_string().contains("2048"));
    }
}
