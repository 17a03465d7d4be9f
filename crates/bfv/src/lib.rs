//! # cheetah-bfv — BFV leveled homomorphic encryption
//!
//! The HE substrate of the Cheetah reproduction (HPCA 2021,
//! arXiv:2006.00505). This crate is a from-scratch implementation of the
//! BFV scheme with the Table II knobs the engine runs: polynomial degree
//! `n`, plaintext modulus `t`, ciphertext modulus `q`, ciphertext
//! decomposition base `A_dcmp`, and noise σ. The sixth knob, the plaintext
//! decomposition base `W_dcmp`, is tuned only by HE-PTune (`ptune` in
//! the paper tier, `cheetah-paper`), which prices Gazelle-style windowing
//! analytically; the engine multiplies undecomposed plaintexts
//! (`l_pt = 1`, the Sched-PA point of §V-C).
//!
//! The three BFV operators of §III-B1 are provided by [`Evaluator`]:
//! `HE_Add`, pt-ct `HE_Mult`, and `HE_Rotate` (Galois automorphism + key
//! switching with ciphertext decomposition). Ciphertext polynomials are
//! [`RnsPoly`]s, the crate's one polynomial type, and default to the
//! evaluation (NTT) domain, as Cheetah does; a plaintext is its `n`
//! coefficients mod `t` ([`Plaintext::from_coeffs`] checks both). Every
//! ciphertext carries a live Table-III noise estimate that tests
//! reconcile against exact measured noise.
//!
//! ## Leveled evaluation
//!
//! The ciphertext modulus is an RNS chain `Q = q_0 ⋯ q_{l-1}`, and
//! ciphertexts carry a **level**: the number of limbs
//! [`Evaluator::mod_switch_to_next`] has dropped from the tail of the
//! chain. The lifecycle:
//!
//! * **Level 0** — fresh encryptions; all `l` limbs live. A 1-limb chain
//!   is level-0-only (there is nothing to drop;
//!   `mod_switch_to_next` returns [`Error::InvalidLevel`]).
//! * **Switching** — dropping limb `q_drop` divides the invariant noise by
//!   `q_drop` (exact `round(q_drop⁻¹·…)` per remaining residue) at the
//!   price of a small additive rounding term
//!   ([`NoiseEstimate::mod_switch`]). The ceiling `Q_ℓ/2t` shrinks by the
//!   same factor, so the *budget* is nearly preserved — what the switch
//!   buys is **cost**: every subsequent operation runs over the live
//!   planes only. A rotation at level `ℓ` performs
//!   `(l_ct(ℓ) + 1)·live` NTT plane transforms and `2·l_ct(ℓ)` pointwise
//!   multiplications instead of the level-0 `(l_ct + 1)·l` and `2·l_ct`,
//!   storage drops to `2·live·n·8` bytes (and the wire to the live
//!   planes, each packed at its limb's width), and existing Galois
//!   keys keep working (the limb-major key-pair list is consumed as a
//!   prefix — no key regeneration).
//! * **When to switch** — once enough budget has been burned that the
//!   remaining circuit fits under a smaller ceiling:
//!   [`NoiseEstimate::recommended_level`] walks the transition model and
//!   returns the deepest safe level for an
//!   [`Evaluator::mod_switch_to`] call. Chains whose limbs satisfy
//!   `q_i ≡ 1 (mod t)` (the builder prefers them when such primes exist)
//!   switch nearly free of rounding drift; incongruent chains pay up to
//!   `Q_ℓ mod t`, which is why a 30-bit limb over a 16-bit `t` cannot
//!   drop to a single limb while 36-bit limbs over a 17-bit `t` can.
//!
//! Operands of every binary operation must share a level (typed
//! [`Error::LevelMismatch`] otherwise); [`PreparedPlaintext`]s apply at
//! their preparation level or deeper, while [`HoistedDecomposition`]s
//! replay only at the exact level they were hoisted at.
//!
//! ## Kernels
//!
//! Every NTT butterfly, pointwise residue loop, inner product and
//! per-limb constant multiply dispatches at runtime through [`simd`] to
//! one of four backends — the scalar reference (forced only), portable
//! lanes, AVX2 lanes, or the AVX2 lanes plus explicit AVX-512 IFMA kernels
//! (NTT, lazy inner product, constant multiplier) for limbs under `2^50`
//! — which differ in speed and never in an output bit (`docs/SIMD.md`).
//!
//! ## Quick start
//!
//! ```
//! use cheetah_bfv::{BatchEncoder, BfvParams, Decryptor, Encryptor, Evaluator, KeyGenerator};
//!
//! # fn main() -> Result<(), cheetah_bfv::Error> {
//! // Parameters: n = 4096, 17-bit t, 60-bit q (128-bit secure).
//! let params = BfvParams::builder().degree(4096).build()?;
//!
//! let mut keygen = KeyGenerator::from_seed(params.clone(), 7);
//! let pk = keygen.public_key()?;
//! let keys = keygen.galois_keys_for_steps(&[1])?;
//!
//! let encoder = BatchEncoder::new(params.clone());
//! let mut encryptor = Encryptor::from_public_key(pk, 1);
//! let decryptor = Decryptor::new(keygen.secret_key().clone());
//! let evaluator = Evaluator::new(params);
//!
//! // SIMD: one ciphertext packs 4096 values.
//! let ct = encryptor.encrypt(&encoder.encode(&[1, 2, 3, 4])?)?;
//! let doubled = evaluator.add(&ct, &ct)?;
//! let rotated = evaluator.rotate_rows(&doubled, 1, &keys)?;
//!
//! let out = encoder.decode(&decryptor.decrypt_checked(&rotated)?);
//! assert_eq!(&out[..3], &[4, 6, 8]);
//! # Ok(())
//! # }
//! ```

pub mod arith;
pub mod ciphertext;
pub mod encoder;
pub mod encryptor;
pub mod error;
pub mod evaluator;
pub mod keys;
pub mod noise;
pub mod ntt;
pub mod params;
pub mod rns;
pub mod sampling;
pub mod scratch;
pub mod simd;
pub mod wire;

pub use ciphertext::Ciphertext;
pub use encoder::{BatchEncoder, Plaintext};
pub use encryptor::{Decryptor, Encryptor, MIN_DECRYPT_BUDGET_BITS};
pub use error::{Error, Result};
pub use evaluator::{
    Evaluator, HoistedDecomposition, KsStage, OpCounts, PreparedPlaintext, StageTime, StageTimes,
};
pub use keys::{
    GaloisKey, GaloisKeys, KeyGenerator, PublicKey, SecretKey, SeededGaloisKey, SeededGaloisKeys,
};
pub use noise::NoiseEstimate;
pub use params::{
    search_congruent_chain, BfvParams, BfvParamsBuilder, CongruentChain, SecurityLevel,
};
pub use rns::{ModulusChain, RnsPoly};
pub use sampling::{expand_uniform, UniformStream};
pub use scratch::{Scratch, ScratchLease, ScratchPool};
pub use simd::SimdBackend;
pub use wire::{
    chain_fingerprint, ciphertext_wire_bytes, decode_ciphertext, decode_public_key,
    decode_seeded_galois_keys, encode_ciphertext, encode_ciphertext_seeded,
    encode_public_key_seeded, encode_seeded_galois_keys, seeded_ciphertext_wire_bytes,
    seeded_galois_keys_wire_bytes, seeded_public_key_wire_bytes, split_ciphertext_messages,
    HEADER_BYTES, SEED_BYTES,
};
