//! # cheetah-serve — concurrent private-inference serving
//!
//! The one implementation of the private-inference round
//! (`cheetah_protocol::session` describes it), run at *throughput*: many
//! concurrent client sessions against **one** prepared model.
//! [`PrivateInferenceSession`] is the same two halves held by one caller
//! — the entry point for tests, examples and harnesses that play both
//! parties.
//!
//! The architecture follows three invariants (see `docs/SERVE.md`):
//!
//! * **Shared immutable preparation** — a [`PreparedModel`] wraps the
//!   protocol crate's `Arc<PreparedLayers>` (packed weight plaintexts,
//!   BSGS / level plans, the rotation-step union) plus
//!   precomputed nonlinear bundle output shapes. It is built once and
//!   shared lock-free: nothing in it is mutated after construction.
//! * **Per-client session halves** — [`ClientSession`] owns the secret
//!   key, encryptors, and activation state; [`ServerSession`] owns the
//!   client's Galois keys, the mask RNG stream, the transcript, and the
//!   per-layer reports. A [`SessionDriver`] steps the two halves through
//!   the wire-validated protocol boundary — every ciphertext crosses as
//!   validated bytes, never as a live object.
//! * **Batched sweeps over pooled scratch** — [`ServerPool`] coalesces
//!   same-layer work from different clients into one parallel sweep over
//!   `std::thread::scope` workers, each holding a leased
//!   [`cheetah_bfv::ScratchLease`] from a server-level
//!   [`cheetah_bfv::ScratchPool`] so warm buffers survive across
//!   sessions.
//!
//! Faults stay *contained*: a corrupted message kills its own session
//! with a typed error and a fault-bearing report, and must never perturb
//! a neighboring session's transcript (pinned by the concurrency
//! determinism suite).

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod model;
pub mod pool;
pub mod session;

pub use model::PreparedModel;
pub use pool::{ServerPool, SessionOutcome};
pub use session::{
    ClientSession, ClientSetup, LayerDownload, PrivateInferenceSession, ServerSession,
    SessionDriver,
};
