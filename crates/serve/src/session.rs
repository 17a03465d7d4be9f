//! The private-inference round — the Gazelle-style protocol the Cheetah
//! paper builds on (§II-A) — and its **one** implementation: the two
//! halves of a session, the driver that steps them through the wire
//! boundary for a [`crate::ServerPool`], and the one-party façade that
//! holds both.
//!
//! HE runs the linear layers on the cloud, a (simulated) garbled circuit
//! runs the nonlinearities on the client, and additive masks keep
//! activations hidden from the client and the model hidden from the
//! cloud. Per linear layer `L` with previous-round mask `r_prev`:
//!
//! 1. the client packs and encrypts its masked activation `a + r_prev`
//!    and sends it;
//! 2. the cloud homomorphically subtracts `r_prev` (it knows the mask),
//!    applies `L` under HE, and **shares a fresh output mask `r` over the
//!    windows** of the result: an FC layer leaves each output as `fold`
//!    partial sums — it rotates nothing together that the client can add
//!    after decryption — so `r_i` goes out as `fold` additive shares mod
//!    `t`, one per window, every other slot under a uniform draw of its
//!    own ([`PreparedModel::draw_output_mask`]), and the cloud sends
//!    `Enc(y_part + shares)`;
//! 3. the client decrypts and adds each output's windows up: a sum of
//!    shares is a share of the sum, `y + r`;
//! 4. the garbled circuit (simulated functionally) removes `r`, applies
//!    the nonlinear bundle (ReLU / pooling / flatten), and re-masks with
//!    the cloud's fresh input mask for the next round.
//!
//! The final linear output belongs to the client (it owns the
//! prediction): its logical mask is zero, shared over the windows all the
//! same — a uniform zero-sum sharing, so the client learns the prediction
//! and no partial sum of it — and the slots around them are blinded like
//! any other layer's. Decryption after every layer resets HE noise — the
//! reason the Gazelle structure avoids bootstrapping entirely.
//!
//! The garbled circuit is a *functional* simulation: it computes exactly
//! what Yao evaluation would and its cost is accounted with a half-gates
//! size model ([`crate::transcript::garbled_circuit_bytes`]), but no
//! cryptographic garbling happens. Cheetah's claims are all about the
//! server-side HE compute, which here is real.
//!
//! The threat model matches Gazelle: both parties are honest but curious
//! (§II-B). As in the paper, layer counts and shapes leak to the client;
//! weight *values* do not. The *transport* is not assumed reliable: every
//! ciphertext and key crosses through `cheetah_bfv::wire`'s validated
//! encoding, and `cheetah_bfv::wire::faults` corrupts recorded
//! transcripts to pin the detected-or-harmless contract.
//!
//! ## The halves
//!
//! Both halves execute each layer's round record ([`PreparedModel::round`],
//! fixed when the model is prepared). [`ClientSession`] plays the owner
//! **of the data** (steps 1, 3, 4): it holds the secret key, encrypts each
//! activation upload at the record's level, and decrypts masked downloads
//! at the record's levels and length behind the measured-noise gate
//! ([`cheetah_bfv::Decryptor::decrypt_checked`]). [`ServerSession`] plays
//! the cloud (step 2): it holds the client's Galois keys, expanded from
//! the seeded set the client registers (handed over in-process, accounted
//! at its wire size), refuses an upload at any level but the record's,
//! removes the previous round's mask there, applies the prepared layer,
//! switches the result to the record's shipping level, re-masks, and
//! records the [`Transcript`] and one [`LayerReport`] per layer. Both run
//! against one immutable [`PreparedModel`] holding everything
//! client-independent.
//!
//! Everything that crosses between the halves is either validated wire
//! bytes or the functional garbled-circuit handoff
//! ([`LayerDownload`]): the mask pair the simulated GC would consume.
//! The driver's optional tamper hook corrupts upload bytes in flight,
//! which is how the fault-containment suite injects per-client faults.
//!
//! [`PrivateInferenceSession`] is both halves and a scratch in one value
//! for callers that play both parties — tests, examples, the fault and
//! conformance harnesses: `run(&input)` is the same round
//! [`SessionDriver::step`] runs, looped to the prediction.
//!
//! ## Wire formats
//!
//! Every residue crosses `cheetah_bfv::wire` packed at its limb's width:
//! limb plane `i` is `n·w_i/8` bytes, `w_i` the bit width of `q_i`
//! (36 bits a residue on the bench chains, not 64). Uploads are *fresh*
//! symmetric encryptions, so they ship seeded: an 8-byte PRNG seed
//! regenerates `c1` and only `c0` travels, `8 + Σ_{i<live} n·w_i/8` bytes,
//! `live` counted at the level the layer runs at — a fresh encryption's
//! noise is the same at every level, so the client encrypts there and the
//! server runs the layer on the upload as it arrives, with no switch
//! before it. Downloads have evaluated, non-seeded `c1` components
//! and ship both, `2·Σ_{i<live} n·w_i/8` bytes, `live` counted at the
//! *shipping* level: each layer's outputs are switched to the level its
//! record ships at before the mask goes on — Gazelle's switch before
//! sending, on the bench chains the last limb. Each half checks every
//! message against the record's byte count ([`Error::Malformed`]).

use std::sync::Arc;

use cheetah_bfv::{
    wire, BfvParams, Ciphertext, Decryptor, Encryptor, Error, Evaluator, GaloisKeys, KeyGenerator,
    Result, Scratch, SeededGaloisKeys,
};
use cheetah_nn::{Network, Tensor, Weights};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::masking::{add_mod_t, sub_mod_t};
use crate::model::PreparedModel;
use crate::transcript::{garbled_circuit_bytes, Direction, Transcript};

/// Per-linear-layer record of a session's current inference: the
/// rotation plan, the level the layer ran at and the one its download
/// shipped at, the budget the client decrypts under, and the three noise
/// views that must nest — `measured ≤ tracked ≤ predicted` — for the
/// whole-protocol conformance pin.
#[derive(Debug, Clone)]
pub struct LayerReport {
    /// Linear-layer index.
    pub layer: usize,
    /// Rotation-plan label: the round record's
    /// ([`cheetah_core::solver::LayerPlan::plan`]).
    pub plan: String,
    /// Level the layer ran at.
    pub level: usize,
    /// Level the masked download shipped at: the round record's, the
    /// deepest the layer's predicted output noise allows under a `⌊t/2⌋`
    /// mask ([`cheetah_core::solver::LayerPlan::shipped_level`]).
    pub shipped_level: usize,
    /// Tracked statistical budget (bits) of the worst shipped ciphertext:
    /// the margin the client decrypts under. The session aborts rather
    /// than ship when it is spent.
    pub shipped_budget_bits: f64,
    /// The planning model's output bound
    /// (`noise_after` of the switched input), log2. This and the two
    /// columns below describe the pre-mask outputs at the run level.
    pub predicted_bound_log2: f64,
    /// Worst engine-tracked noise bound across the layer's output
    /// ciphertexts (before masking), log2.
    pub tracked_bound_log2: f64,
    /// Worst *measured* invariant noise across the layer's output
    /// ciphertexts (before masking), log2. `None` unless the server half
    /// was lent a decryptor
    /// ([`PrivateInferenceSession::enable_noise_measurement`])
    /// — measuring costs one true decryption per output ciphertext, which
    /// does not belong on the production inference path.
    pub measured_noise_log2: Option<f64>,
    /// Why the session aborted at this point, when it did: the rendered
    /// typed error of a rejected wire message, an exhausted noise budget
    /// or an upload past the final layer. `None` on the healthy path — a
    /// run that returns `Err` also leaves the fault here, so the caller
    /// can see *which* message or layer killed the session.
    pub fault: Option<String>,
    /// Wire payload bytes of the layer's upload (its transcript record:
    /// encoded length net of the header). 0 on a fault report.
    pub upload_bytes: usize,
    /// Wire payload bytes of the layer's masked download bundle (its
    /// transcript record: every message net of its header). 0 until the
    /// download ships, so 0 on a fault report.
    pub download_bytes: usize,
}

/// What a client registers with the server: its seeded Galois keys —
/// elements, seeds and `k0`s, no `k1` — and the accounted setup bytes.
/// The set is handed over in-process but is exactly what the wire
/// carries ([`wire::encode_seeded_galois_keys`]), and the server expands
/// every `a` from its seed on registration.
pub struct ClientSetup {
    /// Plan-exact seeded Galois keys generated by the client.
    pub keys: SeededGaloisKeys,
    /// Accounted setup upload: the seeded key set's wire payload plus the
    /// seeded public key's.
    pub setup_bytes: usize,
}

/// The server→client payload of one round: the masked-output wire bundle
/// plus the functional garbled-circuit handoff (the output mask the GC
/// removes and the next round's input mask it re-applies). In a real
/// deployment the masks never leave the garbled circuit; here the GC is
/// simulated functionally, so the driver carries them alongside the
/// ciphertext bytes.
pub struct LayerDownload {
    /// Back-to-back full-format wire messages (one per output ciphertext).
    pub payload: Vec<u8>,
    /// The output mask `r` the GC subtracts after decryption.
    pub mask: Tensor,
    /// The next round's input mask, `None` after the final linear layer.
    pub next_mask: Option<Tensor>,
}

/// Refuses `what`, `found` bytes long, unless it is the `payload` bytes
/// the round's record sizes it at plus one header per message.
fn check_bytes(what: &'static str, found: usize, payload: usize, messages: usize) -> Result<()> {
    let expected = payload + messages * wire::HEADER_BYTES;
    (found == expected)
        .then_some(())
        .ok_or_else(|| Error::Malformed {
            what,
            reason: format!("{found} bytes where the round's record expects {expected}"),
        })
}

/// The client half: secret key, encryptors, and activation state.
pub struct ClientSession {
    model: Arc<PreparedModel>,
    encryptor: Encryptor,
    decryptor: Decryptor,
    /// Current (masked) activation — the next upload's plaintext. `None`
    /// while no round is pending: before [`ClientSession::begin`], once
    /// the prediction is out, and throughout on a network with no linear
    /// layer to upload to.
    act: Option<Tensor>,
    layer: usize,
}

impl ClientSession {
    /// Generates a client's keys for a shared model: the session half
    /// (no inference begun) plus the [`ClientSetup`] to register with a
    /// server.
    ///
    /// # Errors
    ///
    /// Propagates key-generation and wire errors.
    pub fn keygen(model: Arc<PreparedModel>, seed: u64) -> Result<(Self, ClientSetup)> {
        let params = model.params().clone();
        let mut keygen = KeyGenerator::from_seed(params.clone(), seed);
        // The public key ships seeded — (seed, pk0) instead of (pk0, pk1)
        // — like every other fresh encryption of this key holder.
        let (pk, pk_seed) = keygen.public_key_seeded()?;
        let pk_encoded = wire::encode_public_key_seeded(&pk, pk_seed)?;
        // So do the Galois keys: (element, seed, k0) per key.
        let keys = keygen.seeded_galois_keys_for_steps(model.required_steps())?;
        let setup_bytes = (wire::seeded_galois_keys_wire_bytes(&params, keys.len())
            - wire::HEADER_BYTES)
            + (pk_encoded.len() - wire::HEADER_BYTES);
        let client = Self {
            // Uploads are fresh *symmetric* encryptions (c1 = a is pure
            // PRNG output), which is what makes them seed-compressible.
            encryptor: Encryptor::from_secret_key(keygen.secret_key().clone(), seed ^ 0x5eed),
            decryptor: Decryptor::new(keygen.secret_key().clone()),
            model,
            act: None,
            layer: 0,
        };
        Ok((client, ClientSetup { keys, setup_bytes }))
    }

    /// Begins an inference: runs the leading nonlinear layers on the
    /// input — in the clear, the client owns it — and rewinds to linear
    /// layer 0. Returns the prediction when the network has no linear
    /// layer (the leading layers were the whole inference), `None`
    /// otherwise.
    ///
    /// # Errors
    ///
    /// Propagates leading-layer errors.
    pub fn begin(&mut self, input: &Tensor) -> Result<Option<Tensor>> {
        let act = self.model.apply_leading(input)?;
        self.layer = 0;
        if self.model.linear_count() == 0 {
            self.act = None;
            return Ok(Some(act));
        }
        self.act = Some(act);
        Ok(None)
    }

    /// [`ClientSession::keygen`], then [`ClientSession::begin`] on
    /// `input`.
    ///
    /// # Errors
    ///
    /// Propagates key-generation, wire, and leading-layer errors.
    pub fn new(
        model: Arc<PreparedModel>,
        seed: u64,
        input: &Tensor,
    ) -> Result<(Self, ClientSetup)> {
        let (mut client, setup) = Self::keygen(model, seed)?;
        client.begin(input)?;
        Ok((client, setup))
    }

    /// Linear-layer index of the next upload.
    pub fn layer(&self) -> usize {
        self.layer
    }

    /// Decryption to signed slots, gated on the *measured* invariant
    /// noise budget — the check that makes semantically corrupt but
    /// structurally valid ciphertexts a typed
    /// [`Error::NoiseBudgetExhausted`] rather than silent garbage.
    ///
    /// # Errors
    ///
    /// [`Error::NoiseBudgetExhausted`] when the measured budget is gone;
    /// propagates BFV errors for mismatched parameters.
    pub fn decrypt_slots(&self, ct: &Ciphertext) -> Result<Vec<i64>> {
        let pt = self.decryptor.decrypt_checked(ct)?;
        Ok(self.model.encoder().decode_signed(&pt))
    }

    /// The activation of the pending round.
    fn pending(&self) -> Result<&Tensor> {
        self.act.as_ref().ok_or(Error::Unsupported(
            "no round pending: the session has not begun or already holds its prediction",
        ))
    }

    /// Packs and encrypts the current activation for the next linear
    /// layer at the level that layer runs at, returning the seeded wire
    /// message.
    ///
    /// # Errors
    ///
    /// [`Error::Unsupported`] when no round is pending; propagates
    /// packing/encryption/encoding errors.
    pub fn next_upload(&mut self) -> Result<Vec<u8>> {
        let packed = self.model.pack(self.layer, self.pending()?)?;
        let round = self.model.round(self.layer);
        let (ct, seed) = self.encryptor.encrypt_seeded_at(&packed, round.level)?;
        let encoded = wire::encode_ciphertext_seeded(&ct, seed)?;
        check_bytes("ciphertext", encoded.len(), round.upload_bytes, 1)?;
        Ok(encoded)
    }

    /// Consumes one masked download: splits and validates the wire
    /// bundle, checks each message's level and the bundle's length against
    /// the round's record, decrypts behind the measured-noise gate, runs
    /// the simulated GC (unmask → nonlinear bundle → re-mask). Returns the
    /// prediction after the final linear layer, `None` otherwise.
    ///
    /// # Errors
    ///
    /// [`Error::Unsupported`] when no round is pending, wire validation
    /// errors, and — before anything is decrypted —
    /// [`Error::LevelMismatch`] off the record's shipping level and
    /// [`Error::Malformed`] off its length (so off its message count);
    /// [`Error::NoiseBudgetExhausted`] from the decrypt gate.
    pub fn absorb_download(&mut self, dl: &LayerDownload) -> Result<Option<Tensor>> {
        self.pending()?;
        let model = &self.model;
        let k = self.layer;
        let round = model.round(k);
        let t_mod = *model.params().plain_modulus();

        let parts = wire::split_ciphertext_messages(&dl.payload, model.params())?;
        let decode = |part: &&[u8]| wire::decode_ciphertext(part, model.params());
        let cts = parts.iter().map(decode).collect::<Result<Vec<_>>>()?;
        if let Some(ct) = cts.iter().find(|ct| ct.level() != round.shipped_level) {
            let (expected, found) = (round.shipped_level, ct.level());
            return Err(Error::LevelMismatch { expected, found });
        }
        let (bundle, payload) = (dl.payload.len(), round.download_bytes);
        check_bytes("ciphertext bundle", bundle, payload, round.outputs)?;
        let slot_vecs = cts.iter().map(|ct| self.decrypt_slots(ct));
        let slot_vecs = slot_vecs.collect::<Result<Vec<_>>>()?;
        let masked_out = model.unpack(k, &slot_vecs);

        // Simulated GC: unmask, nonlinear bundle, re-mask for the next
        // round (or hand the prediction to the client after the last
        // linear layer).
        let gc_in = sub_mod_t(&masked_out, &dl.mask, t_mod.value());
        let gc_out = model.apply_bundle(k, &gc_in)?;
        match &dl.next_mask {
            Some(next_mask) => {
                self.act = Some(add_mod_t(&gc_out, next_mask, t_mod.value()));
                self.layer += 1;
                Ok(None)
            }
            None => {
                self.act = None;
                Ok(Some(gc_out))
            }
        }
    }
}

/// The server half: the client's keys, the mask stream, the transcript.
pub struct ServerSession {
    model: Arc<PreparedModel>,
    keys: GaloisKeys,
    mask_rng: StdRng,
    /// Accounted setup upload — the record every transcript opens with.
    setup_bytes: usize,
    /// A decryptor lent by whoever plays both parties
    /// ([`ServerSession::measure_noise_with`]); `None` on a real server,
    /// which never sees a secret key.
    noise_meter: Option<Decryptor>,
    cloud_mask: Option<Tensor>,
    layer: usize,
    transcript: Transcript,
    reports: Vec<LayerReport>,
}

impl ServerSession {
    /// Registers a client: checks its seeded Galois keys are exactly the
    /// ones the prepared plans read (on the elements, before any work),
    /// expands them, and records the setup upload in the transcript.
    ///
    /// # Errors
    ///
    /// [`Error::MissingGaloisKey`] when the key set misses a plan step;
    /// [`Error::Unsupported`] when it holds a key no plan step reads.
    pub fn new(model: Arc<PreparedModel>, setup: ClientSetup, seed: u64) -> Result<Self> {
        model.check_key_coverage(&setup.keys)?;
        let keys = setup.keys.expand(model.params());
        let mut server = Self {
            model,
            keys,
            mask_rng: StdRng::seed_from_u64(seed ^ 0xa5a5),
            setup_bytes: setup.setup_bytes,
            noise_meter: None,
            cloud_mask: None,
            layer: 0,
            transcript: Transcript::new(),
            reports: Vec::new(),
        };
        server.begin();
        Ok(server)
    }

    /// Begins an inference for the registered client: the transcript goes
    /// back to its setup record, the reports are cleared, and linear
    /// layer 0 is expected next, unmasked. The mask stream is *not*
    /// rewound — a second inference draws fresh masks.
    pub fn begin(&mut self) {
        self.transcript = Transcript::new();
        self.transcript.record(
            Direction::ClientToCloud,
            "setup: pk + galois keys",
            self.setup_bytes,
        );
        self.reports.clear();
        self.cloud_mask = None;
        self.layer = 0;
    }

    /// Makes every later round measure its layer's true invariant noise
    /// into [`LayerReport::measured_noise_log2`], on the pre-mask outputs.
    /// Conformance instrumentation for a caller that plays both parties
    /// and so *has* a decryptor to lend; it costs one real decryption
    /// per output ciphertext per layer.
    pub fn measure_noise_with(&mut self, decryptor: Decryptor) {
        self.noise_meter = Some(decryptor);
    }

    /// Linear-layer index the next upload is expected for.
    pub fn layer(&self) -> usize {
        self.layer
    }

    /// The client's Galois key set — exactly the `O(√d)` plan-required
    /// steps, nothing more (the fault harness probes unplanned steps
    /// against it).
    pub fn galois_keys(&self) -> &GaloisKeys {
        &self.keys
    }

    /// The transcript recorded so far.
    pub fn transcript(&self) -> &Transcript {
        &self.transcript
    }

    /// Per-layer plan/noise/fault reports recorded so far.
    pub fn reports(&self) -> &[LayerReport] {
        &self.reports
    }

    /// Consumes the session into its transcript and reports.
    pub fn into_parts(self) -> (Transcript, Vec<LayerReport>) {
        (self.transcript, self.reports)
    }

    /// Records that the message `label` was refused with `error` — a
    /// fault-bearing report in the place its layer's would have taken —
    /// and hands the error back.
    fn reject(&mut self, label: &str, error: Error) -> Error {
        self.reports.push(LayerReport {
            layer: self.reports.len(),
            plan: label.to_string(),
            level: 0,
            shipped_level: 0,
            shipped_budget_bits: f64::NAN,
            predicted_bound_log2: f64::NAN,
            tracked_bound_log2: f64::NAN,
            measured_noise_log2: None,
            fault: Some(error.to_string()),
            upload_bytes: 0,
            download_bytes: 0,
        });
        error
    }

    /// Decodes and validates one incoming ciphertext message at the
    /// protocol boundary. A rejected message additionally leaves a
    /// fault-bearing [`LayerReport`] behind, so an aborted session says
    /// which message killed it.
    ///
    /// # Errors
    ///
    /// The wire layer's [`Error::Malformed`] / [`Error::ChainMismatch`] /
    /// [`Error::InvalidLevel`].
    pub fn decode_boundary(&mut self, label: &str, bytes: &[u8]) -> Result<Ciphertext> {
        wire::decode_ciphertext(bytes, self.model.params()).map_err(|e| self.reject(label, e))
    }

    /// Processes one upload: validates the wire message and its level
    /// against the layer's, removes the previous round's mask, applies the
    /// prepared layer, switches the outputs to their shipping level,
    /// re-masks, and serializes the download. The evaluator's
    /// temporaries come from the caller's (pooled, leased) `scratch`.
    ///
    /// # Errors
    ///
    /// [`Error::Unsupported`] for an upload past the final linear layer,
    /// wire validation errors for a corrupt one and
    /// [`Error::LevelMismatch`] for one at another level than its layer's
    /// (all three leave a fault-bearing report behind),
    /// [`Error::NoiseBudgetExhausted`] when the tracked budget of a
    /// shipped ciphertext is spent.
    pub fn process_upload(&mut self, bytes: &[u8], scratch: &mut Scratch) -> Result<LayerDownload> {
        let model = Arc::clone(&self.model);
        let params = model.params();
        let t_mod = *params.plain_modulus();
        let half_t = (t_mod.value() / 2) as i64;
        let k = self.layer;
        let label = format!("enc activations L{k}");
        // Client-supplied input decides how often this is called: refuse
        // before `k` indexes a layer, and before anything is recorded.
        if k >= model.linear_count() {
            let past_end = Error::Unsupported("upload past the final linear layer");
            return Err(self.reject(&label, past_end));
        }
        let is_last_linear = k + 1 == model.linear_count();

        // Record the upload at its accounted size (payload net of the
        // fixed header), then validate it — the seeded decoder re-expands
        // c1 from the seed and attaches the fresh-encryption estimate
        // (exactly right here: uploads *are* fresh, at any level) — and
        // refuse it unless it arrived at the level the layer runs at.
        let up_bytes = bytes.len().saturating_sub(wire::HEADER_BYTES);
        self.transcript.record_with_payload(
            Direction::ClientToCloud,
            label.clone(),
            up_bytes,
            bytes.to_vec(),
        );
        let mut ct = self.decode_boundary(&label, bytes)?;
        let round = model.round(k);
        let level = round.level;
        if ct.level() != level {
            let (expected, found) = (level, ct.level());
            return Err(self.reject(&label, Error::LevelMismatch { expected, found }));
        }

        // Remove the previous round's mask homomorphically at the layer's
        // level — in place, drawing the Δ_ℓ·mask temporary from the
        // leased scratch.
        if let Some(r) = &self.cloud_mask {
            let neg: Vec<i64> = r.data().iter().map(|&v| -v).collect();
            let neg_t = Tensor::from_data(r.shape(), neg);
            let neg_packed = model.pack(k, &neg_t)?;
            model
                .evaluator()
                .add_plain_assign(&mut ct, &neg_packed, scratch)?;
        }

        // The HE linear layer, with this client's keys, over the live
        // limbs the upload arrived with.
        let predicted = model.noise_after(k, ct.noise());
        let mut outputs = model.apply_with_scratch(k, &ct, &self.keys, scratch)?;

        // Conformance record, on the pre-mask outputs at the level the
        // layer ran at. Tracked/predicted bounds are free; the *measured*
        // invariant noise needs a real decryption per ciphertext, so it is
        // only taken with a lent decryptor.
        let mut tracked = f64::NEG_INFINITY;
        let mut measured = None;
        for out_ct in &outputs {
            tracked = tracked.max(out_ct.noise().bound_log2);
            if let Some(meter) = &self.noise_meter {
                let m = (meter.invariant_noise(out_ct)?.max(1) as f64).log2();
                measured = Some(measured.map_or(m, |prev: f64| prev.max(m)));
            }
        }

        // Fresh output mask r (zeros on the final layer — the prediction
        // belongs to the client) shared over each output's windows, with
        // uniform blinding on every slot outside them, then the next
        // round's input mask, drawn back-to-back from the one mask stream.
        let (mask, mask_pts) = model.draw_output_mask(k, &mut self.mask_rng)?;
        let out_len = mask.len();

        // Switch every output down to the level the round's record ships
        // at, then mask there: the client decodes and decrypts only the
        // limbs the noise needs, and the mask's lift covers only those.
        let shipped_level = round.shipped_level;
        let mut shipped_budget = f64::INFINITY;
        for (out_ct, m_pt) in outputs.iter_mut().zip(&mask_pts) {
            model
                .evaluator()
                .mod_switch_to_assign(out_ct, shipped_level)?;
            model.evaluator().add_plain_assign(out_ct, m_pt, scratch)?;
            shipped_budget = shipped_budget.min(
                out_ct
                    .noise()
                    .budget_bits_statistical_at(params, shipped_level),
            );
        }
        self.reports.push(LayerReport {
            layer: k,
            plan: round.plan.clone(),
            level,
            shipped_level,
            shipped_budget_bits: shipped_budget,
            predicted_bound_log2: predicted.bound_log2,
            tracked_bound_log2: tracked,
            measured_noise_log2: measured,
            fault: None,
            upload_bytes: up_bytes,
            download_bytes: 0,
        });

        // Abort before shipping anything whose tracked estimate already
        // spent the whole budget.
        if shipped_budget <= 0.0 {
            if let Some(r) = self.reports.last_mut() {
                r.fault = Some(format!(
                    "tracked noise budget exhausted: \
                     {shipped_budget:.1} bits left after layer {k}"
                ));
            }
            return Err(Error::NoiseBudgetExhausted);
        }

        // Serialize the masked outputs: downloads carry evaluated c1
        // components, so they ship in the full kind. One transcript
        // record per layer (the byte pin other suites rely on), its
        // payload the back-to-back wire messages, at the record's size.
        let dl_bytes = round.download_bytes;
        let mut dl_payload = Vec::with_capacity(dl_bytes + outputs.len() * wire::HEADER_BYTES);
        for mct in &outputs {
            dl_payload.extend_from_slice(&wire::encode_ciphertext(mct));
        }
        check_bytes(
            "ciphertext bundle",
            dl_payload.len(),
            dl_bytes,
            round.outputs,
        )?;
        if let Some(r) = self.reports.last_mut() {
            r.download_bytes = dl_bytes;
        }
        let dl_label = format!("enc masked outputs L{k} lvl{shipped_level}");
        self.transcript.record_with_payload(
            Direction::CloudToClient,
            dl_label,
            dl_bytes,
            dl_payload.clone(),
        );
        self.transcript.record(
            Direction::CloudToClient,
            format!("garbled circuit L{k}"),
            garbled_circuit_bytes(out_len, t_mod.bits()),
        );

        let next_mask = if is_last_linear {
            None
        } else {
            let shape = model.bundle_shape(k);
            let len: usize = shape.iter().product();
            let data: Vec<i64> = (0..len)
                .map(|_| self.mask_rng.random_range(-half_t..=half_t))
                .collect();
            Some(Tensor::from_data(shape, data))
        };
        self.cloud_mask = next_mask.clone();
        self.layer += 1;

        Ok(LayerDownload {
            payload: dl_payload,
            mask,
            next_mask,
        })
    }
}

/// Upload tamper hook: `(layer, &mut upload_bytes)`, applied between the
/// client and the server — the fault-containment suite's injection point.
pub type TamperFn = Box<dyn FnMut(usize, &mut Vec<u8>) + Send>;

/// One full round across the wire boundary (upload → server → download →
/// GC) — the one place the two halves meet, whoever holds them. Returns
/// the prediction after the final linear layer.
fn round(
    client: &mut ClientSession,
    server: &mut ServerSession,
    tamper: Option<&mut TamperFn>,
    scratch: &mut Scratch,
) -> Result<Option<Tensor>> {
    let layer = server.layer();
    let mut upload = client.next_upload()?;
    if let Some(tamper) = tamper {
        tamper(layer, &mut upload);
    }
    let download = server.process_upload(&upload, scratch)?;
    client.absorb_download(&download)
}

/// One session's two halves plus its terminal state, stepped round by
/// round by a [`crate::ServerPool`] worker.
pub struct SessionDriver {
    id: u64,
    client: ClientSession,
    server: ServerSession,
    tamper: Option<TamperFn>,
    result: Option<Result<Tensor>>,
}

impl SessionDriver {
    /// Builds both session halves for one client against a shared model
    /// and begins the inference on `input`.
    ///
    /// # Errors
    ///
    /// Propagates client key generation and server registration errors.
    pub fn new(model: &Arc<PreparedModel>, id: u64, seed: u64, input: &Tensor) -> Result<Self> {
        let (mut client, setup) = ClientSession::keygen(Arc::clone(model), seed)?;
        let server = ServerSession::new(Arc::clone(model), setup, seed)?;
        // An all-nonlinear network is finished by its leading layers.
        let result = client.begin(input)?.map(Ok);
        Ok(Self {
            id,
            client,
            server,
            tamper: None,
            result,
        })
    }

    /// Attaches an upload tamper hook (fault injection).
    #[must_use]
    pub fn with_tamper(mut self, tamper: TamperFn) -> Self {
        self.tamper = Some(tamper);
        self
    }

    /// Client id this driver serves.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Linear-layer index of the next round.
    pub fn layer(&self) -> usize {
        self.server.layer()
    }

    /// Whether the session reached a terminal state (prediction or typed
    /// error).
    pub fn is_done(&self) -> bool {
        self.result.is_some()
    }

    /// Runs one full round (upload → server → download → GC). A typed
    /// error anywhere terminates *this* session only.
    pub fn step(&mut self, scratch: &mut Scratch) {
        if self.result.is_some() {
            return;
        }
        self.result = round(
            &mut self.client,
            &mut self.server,
            self.tamper.as_mut(),
            scratch,
        )
        .transpose();
    }

    /// Marks a still-running session as failed (used by the pool when a
    /// sweep made no progress, e.g. after a worker-thread panic).
    pub(crate) fn fail_stalled(&mut self) {
        if self.result.is_none() {
            self.result = Some(Err(Error::Unsupported(
                "session stalled: sweep made no progress",
            )));
        }
    }

    /// Consumes the driver into its outcome.
    pub fn into_outcome(self) -> crate::pool::SessionOutcome {
        let result = self.result.unwrap_or(Err(Error::Unsupported(
            "session never reached a terminal state",
        )));
        let (transcript, reports) = self.server.into_parts();
        crate::pool::SessionOutcome {
            client_id: self.id,
            result,
            transcript,
            reports,
        }
    }
}

/// End-to-end private inference with both parties in one value: a
/// [`ClientSession`], the [`ServerSession`] it registered with, and the
/// scratch a pool worker would lease. A façade, not an implementation —
/// every round goes through the two halves and the wire between them,
/// so what a test pins here it pins for the served path.
///
/// # Examples
///
/// See `examples/private_inference.rs` at the repository root.
pub struct PrivateInferenceSession {
    client: ClientSession,
    server: ServerSession,
    scratch: Scratch,
}

impl PrivateInferenceSession {
    /// Prepares a private model for `net` and attaches one client to it.
    ///
    /// # Errors
    ///
    /// Propagates BFV errors; fails when a layer does not fit the packing
    /// constraints of `HomConv2d` / `HomFc`.
    pub fn new(net: &Network, weights: &Weights, params: BfvParams, seed: u64) -> Result<Self> {
        Self::with_prepared(PreparedModel::new(net, weights, params)?, seed)
    }

    /// Attaches a fresh client (keys, encryptors, mask stream, scratch)
    /// to an already-prepared model.
    ///
    /// # Errors
    ///
    /// Propagates BFV key-generation and wire errors.
    pub fn with_prepared(model: Arc<PreparedModel>, seed: u64) -> Result<Self> {
        let scratch = model.evaluator().new_scratch();
        let (client, setup) = ClientSession::keygen(Arc::clone(&model), seed)?;
        let server = ServerSession::new(model, setup, seed)?;
        Ok(Self {
            client,
            server,
            scratch,
        })
    }

    /// The prepared model this session runs against.
    pub fn prepared(&self) -> &Arc<PreparedModel> {
        &self.client.model
    }

    /// Per-layer plan and noise records of the most recent
    /// [`PrivateInferenceSession::run`] (empty before the first run). The
    /// conformance suite asserts `measured ≤ tracked ≤ predicted` for
    /// every layer.
    pub fn layer_reports(&self) -> &[LayerReport] {
        self.server.reports()
    }

    /// Makes subsequent runs measure each layer's true invariant noise
    /// into [`LayerReport::measured_noise_log2`]: lends the client's
    /// decryptor to the server half
    /// ([`ServerSession::measure_noise_with`]). Off by default.
    pub fn enable_noise_measurement(&mut self) {
        self.server
            .measure_noise_with(self.client.decryptor.clone());
    }

    /// The session's parameter set.
    pub fn params(&self) -> &BfvParams {
        self.prepared().params()
    }

    /// The session's Galois key set ([`ServerSession::galois_keys`]).
    pub fn galois_keys(&self) -> &GaloisKeys {
        self.server.galois_keys()
    }

    /// The session's evaluator.
    pub fn evaluator(&self) -> &Evaluator {
        self.prepared().evaluator()
    }

    /// Client-side gated decryption ([`ClientSession::decrypt_slots`]).
    ///
    /// # Errors
    ///
    /// As [`ClientSession::decrypt_slots`].
    pub fn decrypt_slots(&self, ct: &Ciphertext) -> Result<Vec<i64>> {
        self.client.decrypt_slots(ct)
    }

    /// Server-side boundary decoding ([`ServerSession::decode_boundary`]).
    ///
    /// # Errors
    ///
    /// As [`ServerSession::decode_boundary`].
    pub fn decode_boundary(&mut self, label: &str, bytes: &[u8]) -> Result<Ciphertext> {
        self.server.decode_boundary(label, bytes)
    }

    /// Runs a full private inference. Returns the prediction tensor and
    /// the communication transcript. A session runs any number of
    /// inputs, one after another, under the same keys.
    ///
    /// # Errors
    ///
    /// Propagates BFV errors, including [`Error::NoiseBudgetExhausted`] if
    /// a layer overflows its noise budget.
    pub fn run(&mut self, input: &Tensor) -> Result<(Tensor, Transcript)> {
        self.server.begin();
        let mut done = self.client.begin(input)?;
        loop {
            if let Some(prediction) = done {
                return Ok((prediction, self.server.transcript().clone()));
            }
            done = round(&mut self.client, &mut self.server, None, &mut self.scratch)?;
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests;
