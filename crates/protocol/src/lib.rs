//! # cheetah-protocol — Gazelle-style private inference
//!
//! The client/cloud protocol substrate the Cheetah paper builds on
//! (§II-A): linear layers run under BFV on the cloud, nonlinearities run
//! in a (functionally simulated) garbled circuit on the client, and
//! additive masks keep activations hidden from the client and the model
//! hidden from the cloud. Decryption between layers resets the HE noise
//! budget, which is why the hybrid structure needs no bootstrapping.
//!
//! This crate holds what a round is made of — the shared
//! [`PreparedLayers`], the mask arithmetic, the [`Transcript`] and the
//! per-layer [`LayerReport`]. The round itself is implemented once, by
//! the two session halves in `cheetah-serve` ([`session`] describes it).
//!
//! The threat model matches Gazelle: both parties are honest but curious
//! (§II-B). As in the paper, layer counts and shapes leak to the client;
//! weight *values* do not.
//!
//! Although the parties are honest but curious, the *transport* is not
//! assumed reliable: every ciphertext and key crosses the boundary
//! through `cheetah_bfv::wire`'s validated encoding, and the
//! [`faults`] module provides the deterministic corruption harness that
//! pins the detected-or-harmless contract on recorded transcripts.

pub mod faults;
pub mod masking;
pub mod prepared;
pub mod session;
pub mod transcript;

pub use faults::{classify_ciphertext_fault, Corruption, FaultInjector, FaultOutcome};
pub use prepared::PreparedLayers;
pub use session::LayerReport;
pub use transcript::{Direction, Transcript};
