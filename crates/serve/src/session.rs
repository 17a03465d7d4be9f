//! The two halves of one served inference session, and the driver that
//! steps them through the wire boundary.
//!
//! [`ClientSession`] plays the model owner **of the data**: it holds the
//! secret key, encrypts activation uploads (seeded wire format — fresh
//! symmetric ciphertexts ship as `(seed, c0)`), and decrypts + validates
//! masked downloads behind the measured-noise gate. [`ServerSession`]
//! plays the cloud: it holds the client's Galois keys (handed over
//! in-process but *accounted* at their wire size), removes the previous
//! round's mask, plans the level, applies the prepared layer, re-masks,
//! and records the transcript.
//!
//! Everything that crosses between the halves is either validated wire
//! bytes or the functional garbled-circuit handoff
//! ([`LayerDownload`]): the mask pair the simulated GC would consume.
//! The driver's optional tamper hook corrupts upload bytes in flight,
//! which is how the fault-containment suite injects per-client faults.

use std::sync::Arc;

use cheetah_bfv::{
    wire, BfvParams, Ciphertext, Decryptor, Encryptor, Error, GaloisKeys, KeyGenerator, Result,
    Scratch,
};
use cheetah_nn::Tensor;
use cheetah_protocol::masking::{add_mod_t, gated_decrypt_slots, sub_mod_t};
use cheetah_protocol::transcript::{garbled_circuit_bytes, Direction, Transcript};
use cheetah_protocol::LayerReport;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::model::PreparedModel;

/// What a client registers with the server: its Galois keys (handed over
/// in-process; wire-encoding a multi-limb key set costs hundreds of
/// megabytes for nothing in a simulation) and the accounted setup bytes
/// — keys at wire size plus the seeded public key.
pub struct ClientSetup {
    /// Plan-exact Galois keys generated by the client.
    pub keys: GaloisKeys,
    /// Accounted setup upload: `keys.byte_size + seeded-pk payload`.
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

/// The client half: secret key, encryptors, and activation state.
pub struct ClientSession {
    model: Arc<PreparedModel>,
    encryptor: Encryptor,
    decryptor: Decryptor,
    /// Current (masked) activation — the next upload's plaintext.
    act: Tensor,
    layer: usize,
}

impl ClientSession {
    /// Creates a client for a shared model: generates its keys, runs the
    /// leading nonlinear layers on the input, and returns the session
    /// half plus the [`ClientSetup`] to register with a server.
    ///
    /// # Errors
    ///
    /// Propagates key-generation, wire, and leading-layer errors.
    pub fn new(
        model: Arc<PreparedModel>,
        seed: u64,
        input: &Tensor,
    ) -> Result<(Self, ClientSetup)> {
        let params = model.params().clone();
        let mut keygen = KeyGenerator::from_seed(params.clone(), seed);
        let (pk, pk_seed) = keygen.public_key_seeded()?;
        let pk_encoded = wire::encode_public_key_seeded(&pk, pk_seed)?;
        let keys = keygen.galois_keys_for_steps(model.required_steps())?;
        let setup_bytes = keys.byte_size(&params) + (pk_encoded.len() - wire::HEADER_BYTES);
        let act = model.layers().apply_leading(input)?;
        let client = Self {
            encryptor: Encryptor::from_secret_key(keygen.secret_key().clone(), seed ^ 0x5eed),
            decryptor: Decryptor::new(keygen.secret_key().clone()),
            model,
            act,
            layer: 0,
        };
        Ok((client, ClientSetup { keys, setup_bytes }))
    }

    /// Linear-layer index of the next upload.
    pub fn layer(&self) -> usize {
        self.layer
    }

    /// Packs and encrypts the current activation for the next linear
    /// layer, returning the seeded wire message.
    ///
    /// # Errors
    ///
    /// Propagates packing/encryption/encoding errors.
    pub fn next_upload(&mut self) -> Result<Vec<u8>> {
        let packed = self.model.layers().pack(self.layer, &self.act)?;
        let (ct, seed) = self.encryptor.encrypt_seeded(&packed)?;
        wire::encode_ciphertext_seeded(&ct, seed)
    }

    /// Consumes one masked download: splits and validates the wire
    /// bundle, decrypts behind the measured-noise gate, runs the
    /// simulated GC (unmask → nonlinear bundle → re-mask). Returns the
    /// prediction after the final linear layer, `None` otherwise.
    ///
    /// # Errors
    ///
    /// Wire validation errors, [`Error::NoiseBudgetExhausted`] from the
    /// decrypt gate, [`Error::Malformed`] on a mis-framed bundle.
    pub fn absorb_download(&mut self, dl: &LayerDownload) -> Result<Option<Tensor>> {
        let layers = self.model.layers();
        let k = self.layer;
        let t_mod = *layers.params().plain_modulus();

        let parts = wire::split_ciphertext_messages(&dl.payload, layers.params())?;
        let expected = layers.output_ciphertexts(k);
        if parts.len() != expected {
            return Err(Error::Malformed {
                what: "ciphertext bundle",
                reason: format!(
                    "download framed {} messages where {expected} were expected",
                    parts.len()
                ),
            });
        }
        let mut slot_vecs = Vec::with_capacity(parts.len());
        for part in parts {
            let ct = wire::decode_ciphertext(part, layers.params())?;
            slot_vecs.push(gated_decrypt_slots(&self.decryptor, layers.encoder(), &ct)?);
        }
        let masked_out = layers.unpack(k, &slot_vecs);

        // Simulated GC: unmask, nonlinear bundle, re-mask for the next
        // round (or hand the prediction to the client after the last
        // linear layer).
        let gc_in = sub_mod_t(&masked_out, &dl.mask, t_mod.value());
        let gc_out = layers.apply_bundle(k, &gc_in)?;
        match &dl.next_mask {
            Some(next_mask) => {
                self.act = add_mod_t(&gc_out, next_mask, t_mod.value());
                self.layer += 1;
                Ok(None)
            }
            None => Ok(Some(gc_out)),
        }
    }
}

/// The server half: the client's keys, the mask stream, the transcript.
pub struct ServerSession {
    model: Arc<PreparedModel>,
    keys: GaloisKeys,
    mask_rng: StdRng,
    cloud_mask: Option<Tensor>,
    layer: usize,
    transcript: Transcript,
    reports: Vec<LayerReport>,
}

impl ServerSession {
    /// Registers a client: checks its Galois keys cover every prepared
    /// plan, and records the setup upload in the transcript.
    ///
    /// The mask RNG is seeded from the session seed exactly as the
    /// one-party [`cheetah_protocol::PrivateInferenceSession`] seeds its
    /// own, so a served session's transcript is bit-identical to the
    /// single-party reference for the same seed.
    ///
    /// # Errors
    ///
    /// [`Error::MissingGaloisKey`] when the key set misses a plan step.
    pub fn new(model: Arc<PreparedModel>, setup: ClientSetup, seed: u64) -> Result<Self> {
        model.layers().check_key_coverage(&setup.keys)?;
        let mut transcript = Transcript::new();
        transcript.record(
            Direction::ClientToCloud,
            "setup: pk + galois keys",
            setup.setup_bytes,
        );
        Ok(Self {
            model,
            keys: setup.keys,
            mask_rng: StdRng::seed_from_u64(seed ^ 0xa5a5),
            cloud_mask: None,
            layer: 0,
            transcript,
            reports: Vec::new(),
        })
    }

    /// Linear-layer index the next upload is expected for.
    pub fn layer(&self) -> usize {
        self.layer
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

    fn decode_at_boundary(
        params: &BfvParams,
        reports: &mut Vec<LayerReport>,
        label: &str,
        bytes: &[u8],
    ) -> Result<Ciphertext> {
        wire::decode_ciphertext(bytes, params).inspect_err(|e| {
            reports.push(LayerReport {
                layer: reports.len(),
                plan: label.to_string(),
                level: 0,
                predicted_bound_log2: f64::NAN,
                tracked_bound_log2: f64::NAN,
                measured_noise_log2: None,
                fault: Some(e.to_string()),
            });
        })
    }

    /// Processes one upload: validates the wire message, removes the
    /// previous round's mask, plans the level, applies the prepared
    /// layer, re-masks, and serializes the download. The evaluator's
    /// temporaries come from the caller's (pooled, leased) `scratch`.
    ///
    /// # Errors
    ///
    /// Wire validation errors for a corrupt upload (which also leave a
    /// fault-bearing report behind), [`Error::NoiseBudgetExhausted`] when
    /// the layer's tracked budget is spent.
    pub fn process_upload(&mut self, bytes: &[u8], scratch: &mut Scratch) -> Result<LayerDownload> {
        let model = Arc::clone(&self.model);
        let layers = model.layers();
        let params = layers.params();
        let t_mod = *params.plain_modulus();
        let half_t = (t_mod.value() / 2) as i64;
        let k = self.layer;
        let is_last_linear = k + 1 == layers.linear_count();

        // Record the upload at its accounted size (payload net of the
        // fixed header), then validate it — the seeded decoder re-expands
        // c1 from the seed and attaches the fresh-encryption estimate.
        let label = format!("enc activations L{k}");
        let up_bytes = bytes.len().saturating_sub(wire::HEADER_BYTES);
        self.transcript.record_with_payload(
            Direction::ClientToCloud,
            label.clone(),
            up_bytes,
            bytes.to_vec(),
        );
        let mut ct = Self::decode_at_boundary(params, &mut self.reports, &label, bytes)?;

        // Remove the previous round's mask homomorphically — in place,
        // drawing the Δ·mask temporary from the leased scratch.
        if let Some(r) = &self.cloud_mask {
            let neg: Vec<i64> = r.data().iter().map(|&v| -v).collect();
            let neg_t = Tensor::from_data(r.shape(), neg);
            let neg_packed = layers.pack(k, &neg_t)?;
            layers
                .evaluator()
                .add_plain_assign(&mut ct, &neg_packed, scratch)?;
        }

        // Drop the limbs this layer's noise no longer needs.
        let target = layers.plan_level(k, ct.noise());
        if target > ct.level() {
            layers.evaluator().mod_switch_to_assign(&mut ct, target)?;
        }

        // The HE linear layer, with this client's keys.
        let predicted = layers.noise_after(k, ct.noise(), ct.level());
        let outputs = layers.apply_with_scratch(k, &ct, &self.keys, scratch)?;

        let mut tracked = f64::NEG_INFINITY;
        let mut tracked_budget = f64::INFINITY;
        for out_ct in &outputs {
            tracked = tracked.max(out_ct.noise().bound_log2);
            tracked_budget = tracked_budget.min(
                out_ct
                    .noise()
                    .budget_bits_statistical_at(params, out_ct.level()),
            );
        }
        self.reports.push(LayerReport {
            layer: k,
            plan: layers.plan_label(k),
            level: ct.level(),
            predicted_bound_log2: predicted.bound_log2,
            tracked_bound_log2: tracked,
            measured_noise_log2: None,
            fault: None,
        });

        // Abort before shipping anything whose tracked estimate already
        // spent the whole budget.
        if tracked_budget <= 0.0 {
            if let Some(r) = self.reports.last_mut() {
                r.fault = Some(format!(
                    "tracked noise budget exhausted: \
                     {tracked_budget:.1} bits left after layer {k}"
                ));
            }
            return Err(Error::NoiseBudgetExhausted);
        }

        // Fresh output mask r (zeros on the final layer — the prediction
        // belongs to the client) with uniform blinding on every slot the
        // output does not occupy, then the next round's input mask. Drawn
        // back-to-back in the same order and counts as the one-party
        // session, so the mask streams match seed-for-seed.
        let (mask, mask_pts) = layers.draw_output_mask(k, &mut self.mask_rng)?;
        let out_len = mask.len();
        let mut masked_cts = outputs;
        for (out_ct, m_pt) in masked_cts.iter_mut().zip(&mask_pts) {
            layers.evaluator().add_plain_assign(out_ct, m_pt, scratch)?;
        }

        // Serialize the masked outputs: downloads carry evaluated c1
        // components, so they stay in the full v1 format.
        let dl_bytes: usize = masked_cts.iter().map(Ciphertext::byte_size).sum();
        let out_level = masked_cts.first().map_or(0, Ciphertext::level);
        let mut dl_payload = Vec::new();
        for mct in &masked_cts {
            dl_payload.extend_from_slice(&wire::encode_ciphertext(mct));
        }
        let dl_label = format!("enc masked outputs L{k} lvl{out_level}");
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
    /// Builds both session halves for one client against a shared model.
    ///
    /// # Errors
    ///
    /// Propagates client key generation and server registration errors.
    pub fn new(model: &Arc<PreparedModel>, id: u64, seed: u64, input: &Tensor) -> Result<Self> {
        let (client, setup) = ClientSession::new(Arc::clone(model), seed, input)?;
        let server = ServerSession::new(Arc::clone(model), setup, seed)?;
        let result = if model.linear_count() == 0 {
            // Degenerate all-nonlinear network: the leading layers were
            // the whole inference.
            Some(Ok(client.act.clone()))
        } else {
            None
        };
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
        match self.step_inner(scratch) {
            Ok(None) => {}
            Ok(Some(prediction)) => self.result = Some(Ok(prediction)),
            Err(e) => self.result = Some(Err(e)),
        }
    }

    fn step_inner(&mut self, scratch: &mut Scratch) -> Result<Option<Tensor>> {
        let layer = self.server.layer();
        let mut upload = self.client.next_upload()?;
        if let Some(tamper) = self.tamper.as_mut() {
            tamper(layer, &mut upload);
        }
        let download = self.server.process_upload(&upload, scratch)?;
        self.client.absorb_download(&download)
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
