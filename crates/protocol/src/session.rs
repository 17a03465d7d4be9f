//! The Gazelle-style private-inference session (§II-A of the Cheetah
//! paper): HE for linear layers on the cloud, a (simulated) garbled
//! circuit for nonlinearities on the client, additive masking to keep
//! activations hidden from the client and the model hidden from the cloud.
//!
//! Per linear layer `L` with previous-round mask `r_prev`:
//!
//! 1. client packs + encrypts its masked activation `a + r_prev`, sends it;
//! 2. cloud homomorphically subtracts `r_prev` (it knows the mask), applies
//!    `L` under HE, and **shares a fresh output mask `r` over the windows**
//!    of the result: an FC layer leaves each output as `fold` partial sums
//!    — it rotates nothing together that the client can add after
//!    decryption — so `r_i` goes out as `fold` additive shares mod `t`, one
//!    per window, every other slot under a uniform draw of its own
//!    ([`crate::PreparedLayers::draw_output_mask`]), and the cloud sends
//!    `Enc(y_part + shares)`;
//! 3. client decrypts and adds each output's windows up: a sum of shares
//!    is a share of the sum, `y + r`;
//! 4. the garbled circuit (simulated functionally) removes `r`, applies
//!    the nonlinear bundle (ReLU / pooling / flatten), and re-masks with
//!    the cloud's fresh input mask for the next round.
//!
//! The final linear output belongs to the client (it owns the prediction):
//! its logical mask is zero, shared over the windows all the same — a
//! uniform zero-sum sharing, so the client learns the prediction and no
//! partial sum of it — and the slots around them are blinded like any
//! other layer's. Decryption after every layer resets HE noise — the
//! reason the Gazelle structure avoids bootstrapping entirely (§II-A).
//!
//! The garbled circuit itself is a *functional* simulation: it computes
//! exactly what Yao evaluation would and its cost is accounted with a
//! half-gates size model, but no cryptographic garbling happens. Cheetah's
//! claims are all about the server-side HE compute, which here is real.
//!
//! ## Where the round is implemented
//!
//! This module is the protocol's description and its per-layer record,
//! [`LayerReport`]. The round itself has one implementation, in
//! `cheetah-serve`: `ClientSession` (steps 1, 3, 4) and `ServerSession`
//! (step 2), which talk only through validated wire bytes, against an
//! immutable [`crate::PreparedLayers`] holding everything
//! client-independent — packed weight plaintexts, BSGS / level plans, the
//! rotation-step union. `cheetah_serve::PrivateInferenceSession`
//! is the one-party façade that holds both halves and runs them in one
//! call.
//!
//! ## Wire formats
//!
//! Uploads are *fresh* symmetric encryptions, so they ship in the seeded
//! wire format ([`cheetah_bfv::wire`] version 2): an 8-byte PRNG seed
//! regenerates `c1` and only `c0` travels, halving upload bytes to
//! `live·n·8 + 8`. Downloads have evaluated, non-seeded `c1` components
//! and stay in the full `2·live·n·8` version-1 format.

/// Per-linear-layer record of a session's current inference: the
/// rotation plan, the level the layer ran at, and the three noise
/// views that must nest — `measured ≤ tracked ≤ predicted` — for the
/// whole-protocol conformance pin.
#[derive(Debug, Clone)]
pub struct LayerReport {
    /// Linear-layer index.
    pub layer: usize,
    /// Rotation-plan label: `fc bsgs tiles=.. b=.. g=.. live=../.. fold=..`
    /// (input copies per period, baby width, giant groups, live of all
    /// tiled diagonals, windows per output the client adds) or
    /// `conv packed b=.. g=.. live=../.. out=..` (baby width, giant
    /// groups, live of all `(d, tap)` masks, output ciphertexts).
    pub plan: String,
    /// Level the layer ran (and shipped) at.
    pub level: usize,
    /// The planning model's output bound
    /// (`noise_after` of the switched input), log2.
    pub predicted_bound_log2: f64,
    /// Worst engine-tracked noise bound across the layer's output
    /// ciphertexts (before masking), log2.
    pub tracked_bound_log2: f64,
    /// Worst *measured* invariant noise across the layer's output
    /// ciphertexts (before masking), log2. `None` unless the server half
    /// was lent a decryptor
    /// (`cheetah_serve::PrivateInferenceSession::enable_noise_measurement`)
    /// — measuring costs one true decryption per output ciphertext, which
    /// does not belong on the production inference path.
    pub measured_noise_log2: Option<f64>,
    /// Why the session aborted at this point, when it did: the rendered
    /// typed error of a rejected wire message, an exhausted noise budget
    /// or an upload past the final layer. `None` on the healthy path — a
    /// run that returns `Err` also leaves the fault here, so the caller
    /// can see *which* message or layer killed the session.
    pub fault: Option<String>,
}
