//! # cheetah-serve — private inference, served concurrently
//!
//! The Gazelle-style private-inference round and everything it is made
//! of ([`session`] describes the round), run at *throughput*: many
//! concurrent client sessions against **one** prepared model.
//! [`PrivateInferenceSession`] is the same two halves held by one caller
//! — the entry point for tests, examples and harnesses that play both
//! parties.
//!
//! The architecture follows three invariants (see `docs/SERVE.md`):
//!
//! * **Shared immutable preparation** — a [`PreparedModel`] holds the
//!   packed weight plaintexts, BSGS / level plans, the rotation-step
//!   union and the nonlinear bundle output shapes. It is built once and
//!   shared lock-free: nothing in it is mutated after construction.
//! * **Per-client session halves** — [`ClientSession`] owns the secret
//!   key, encryptors, and activation state; [`ServerSession`] owns the
//!   client's Galois keys, the mask RNG stream, the [`Transcript`], and
//!   the per-layer [`LayerReport`]s. A [`SessionDriver`] steps the two
//!   halves through the wire-validated protocol boundary — every
//!   ciphertext crosses as validated bytes, never as a live object.
//! * **Batched sweeps over the pool's own scratch** — [`ServerPool`]
//!   coalesces same-layer work from different clients into one parallel
//!   sweep over scoped worker threads. Each worker takes sessions off one
//!   queue and steps them out of one [`cheetah_bfv::Scratch`], which the
//!   pool keeps warm in its idle list between sweeps. The sessions are
//!   the only parallel work: a layer runs on the thread that steps its
//!   session.
//!
//! Faults stay *contained*: a corrupted message kills its own session
//! with a typed error and a fault-bearing report, and must never perturb
//! a neighboring session's transcript (pinned by the concurrency
//! determinism suite).

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod masking;
pub mod model;
pub mod pool;
pub mod session;
pub mod transcript;

pub use model::PreparedModel;
pub use pool::{ServerPool, SessionOutcome};
pub use session::{
    ClientSession, ClientSetup, LayerDownload, LayerReport, PrivateInferenceSession, ServerSession,
    SessionDriver,
};
pub use transcript::{Direction, Transcript};
