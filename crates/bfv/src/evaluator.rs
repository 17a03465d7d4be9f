//! Homomorphic evaluation: the three BFV operators of §III-B1, plus
//! modulus switching.
//!
//! * [`Evaluator::add_assign`] — SIMD addition (noise adds);
//! * [`Evaluator::mul_plain_assign`] — SIMD plaintext-ciphertext
//!   multiplication by an undecomposed plaintext (noise multiplies by
//!   `≤ n·W/2`, `W = 2·||pt||`; plaintext windowing is priced by HE-PTune
//!   only);
//! * [`Evaluator::rotate_rows_into`] — packed slot rotation via Galois
//!   automorphism + key switching with ciphertext decomposition (noise
//!   adds `l_ct·A·B·n/2`);
//! * [`Evaluator::mod_switch_to_next_assign`] /
//!   [`Evaluator::mod_switch_to_assign`] —
//!   drops live limbs of the RNS chain once the noise budget allows,
//!   shrinking every subsequent operation (and the wire format) to the
//!   live-limb count. Every operator here is **level-aware**: it runs over
//!   the live planes of its operands, demands equal operand levels
//!   ([`Error::LevelMismatch`] otherwise), and reusable outputs follow
//!   their operand's level.
//!
//! # One key switch
//!
//! `HE_Rotate` is the paper's Lane datapath (Fig. 9c) — Swap → INTT →
//! decompose → NTT → multiply-accumulate — as two private halves, each
//! written once: `key_switch_front` (copy `c1` or read it through the
//! Galois permutation, INTT, decompose **per limb** with no CRT
//! composition, NTT every digit) and `key_switch_back` (the digit × key
//! inner product onto the permuted `c0`). A direct rotation runs the
//! front with the permutation and the back without; a hoisted set runs
//! the front once without it and the back once a step, gathering through
//! it. Whether the chain reserves a special prime picks the arms that are
//! arithmetic — base-`A` digits summed straight into the output, or
//! centred digits over `P·Q_ℓ` and a division by `P` — and the shape
//! ([`BfvParams::ks_digits_at`] digits on [`BfvParams::ks_chain_at`]).
//! [`OpCounts`] is bumped by what each half transforms and sums, and the
//! stage clock ([`Evaluator::stage_times`]) records each stage's calls,
//! wall time and transforms; the closed forms the corrected HE-PTune model
//! charges (§IV-A) live in `cheetah-core`'s `cost.rs`, the per-stage table
//! in `docs/PARAMS.md`. The NTT-bound stages of a hybrid switch stay in
//! evaluation form wherever the arithmetic allows: a digit's own plane is
//! scaled rather than transformed, and the `P`-rescale transforms only the
//! `P` plane and its lifts.
//!
//! # One inner product
//!
//! The `2·digits` key-switch multiplications are an inner product
//! `Σ_j d_j ⊙ (k0_j, k1_j)`, and so is a linear layer's group sum
//! `Σ_k (c0_k, c1_k) ⊙ m_k` ([`Evaluator::mul_plain_accumulate_many`]).
//! Both run as **one lazy pass** per limb plane
//! ([`RnsPoly::dot_pair_prefix`]): the products of all terms are added
//! unreduced — in `u128`, or on the AVX-512 IFMA multiplier in two `u64`
//! rows — and each coefficient is reduced once, the two
//! outputs sharing the pass over the common operand, instead of one
//! reduction and one modular add per term. The residues written are the
//! canonical ones the term-by-term path writes — no ciphertext bit, op
//! count or noise estimate depends on it (`docs/SIMD.md` has the overflow
//! bound).
//!
//! # Hoisting
//!
//! Rotating one ciphertext by many steps (conv tap sets, rotate-and-sum
//! reductions over a fixed input) shares all of the INTT + decompose + NTT
//! work: [`Evaluator::hoist_into`] performs it once, and
//! [`Evaluator::rotate_hoisted_into`] replays any number of rotations from
//! the cached evaluation-form digits — per extra rotation only the `c0`
//! slot permutation and the back half remain, the sum reading each digit
//! *through* the permutation rather than from a permuted copy.
//! Correctness:
//! `φ_g` is a ring automorphism, so
//! `Σ_j φ_g(D_j(c1))·A^j·q̂_i·φ_g(s) = φ_g(c1·s)` even though digit
//! extraction itself does not commute with `φ_g`; the hoisted result is
//! not bit-identical to the non-hoisted one but decrypts identically with
//! the same noise bound.
//!
//! # The zero-allocation hot path
//!
//! Every operator works **in place** or into a caller-owned output
//! (`add_assign`, `sub_assign`, `negate_assign`, `mul_plain_assign`,
//! `mul_plain_accumulate_many`, `add_plain_assign`, `apply_galois_into`,
//! `rotate_rows_into`, `hoist_into`, `rotate_hoisted_into`,
//! `mod_switch_to_assign`, …): it mutates caller-owned ciphertexts and draws
//! any temporaries from a caller-owned [`Scratch`] pool — zero heap
//! allocations at steady state (proved by the counting-allocator test in
//! `tests/zero_alloc.rs`). A caller that wants a new ciphertext clones its
//! input or starts from [`Ciphertext::transparent_zero_at`] the operand's
//! level. A `Scratch` belongs to whoever runs the operations: a linear
//! layer runs start to finish on one thread, out of the scratch of the
//! session it serves.
//!
//! Operation counters ([`OpCounts`]) record how many of each kernel ran —
//! atomically, because sessions on a serving pool's threads share one
//! evaluator — and the profiling harness and the Table IV count model can
//! be validated against the real engine.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::ciphertext::Ciphertext;
use crate::encoder::Plaintext;
use crate::error::{Error, Result};
use crate::keys::{element_for_step, GaloisKey, GaloisKeys};
use crate::noise::NoiseEstimate;
use crate::params::BfvParams;
use crate::rns::{DotTerm, ModulusChain, PackedPoly, PlaneAlign, Representation, RnsPoly};
use crate::scratch::Scratch;
use crate::simd;

/// Running kernel-invocation counters (per evaluator).
///
/// Sessions on a serving pool's threads share one evaluator, so the
/// counters are updated atomically and no invocation is lost between
/// them; a layer's own operations all run on its session's thread. `add`
/// reflects the accumulation *shape*: fused accumulators count one
/// `HE_Add` per term (including the first, onto a transparent zero).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// `HE_Add` invocations (ct+ct or ct+pt).
    pub add: u64,
    /// `HE_Mult` invocations (one per plaintext-ciphertext product; the
    /// engine multiplies undecomposed plaintexts, `l_pt = 1`).
    pub mul: u64,
    /// `HE_Rotate` invocations.
    pub rotate: u64,
    /// Forward + inverse NTT **plane transforms**: an RNS polynomial
    /// transform runs one `n`-point NTT per **live** limb plane and counts
    /// that many here, so multi-limb chains report their true NTT work
    /// (the seed-era structural count under-reported it by a factor of
    /// `l_limbs`) and modulus-switched ciphertexts report their reduced
    /// work. A key switch at level `ℓ` contributes `live` for the `c1`
    /// INTT plus `ks_digits_at(ℓ)` digits × the planes of `ks_chain_at(ℓ)`
    /// (less each hybrid digit's own plane, written in evaluation form) —
    /// once per direct rotation, once per hoisted set — and, on a hybrid
    /// chain, the `P`-rescale per rotation (per accumulator, the INTT of
    /// the `P` plane and one NTT per live plane). [`Evaluator::stage_times`]
    /// splits this share by stage.
    pub ntt: u64,
    /// Pointwise polynomial multiplications (2 per `HE_Mult`,
    /// `2·ks_digits_at(ℓ)` per rotate; each spans every plane of its
    /// chain).
    pub poly_mul: u64,
    /// `HE_ModSwitch` invocations (one per dropped limb, whichever entry
    /// point dropped it).
    pub mod_switch: u64,
}

impl OpCounts {
    /// Component-wise difference (for scoped measurements).
    pub fn since(&self, earlier: &OpCounts) -> OpCounts {
        OpCounts {
            add: self.add - earlier.add,
            mul: self.mul - earlier.mul,
            rotate: self.rotate - earlier.rotate,
            ntt: self.ntt - earlier.ntt,
            poly_mul: self.poly_mul - earlier.poly_mul,
            mod_switch: self.mod_switch - earlier.mod_switch,
        }
    }
}

/// The stages of one key switch, in datapath order (the rows of
/// `docs/PARAMS.md`'s stage table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KsStage {
    /// Front: copy `c1`, or read it through the Galois permutation; on a
    /// hybrid chain also the digits' own planes, scaled in evaluation form.
    Copy,
    /// Front: the inverse transform of `c1`'s live planes.
    Intt,
    /// Front: the digit decomposition.
    Decompose,
    /// Front: the forward transforms of the digits.
    DigitNtt,
    /// Back: the digit × key inner product.
    KeySum,
    /// Back, hybrid only: the division of both accumulators by `P` and
    /// the fold into the output.
    Rescale,
}

impl KsStage {
    /// Every stage, in datapath order.
    pub const ALL: [KsStage; 6] = [
        KsStage::Copy,
        KsStage::Intt,
        KsStage::Decompose,
        KsStage::DigitNtt,
        KsStage::KeySum,
        KsStage::Rescale,
    ];
}

/// One key-switch stage's running totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTime {
    /// Times the stage ran.
    pub calls: u64,
    /// Wall time inside it, in nanoseconds.
    pub ns: u64,
    /// NTT plane transforms it ran (its share of [`OpCounts::ntt`]).
    pub transforms: u64,
}

/// Per-stage totals of every key switch an evaluator ran since its last
/// [`Evaluator::reset_op_counts`] ([`Evaluator::stage_times`]), indexed by
/// [`KsStage`]. Calls and transforms are deterministic; the sum of the
/// transforms is the key switches' part of [`OpCounts::ntt`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimes([StageTime; KsStage::ALL.len()]);

impl StageTimes {
    /// Stage-wise difference (for scoped measurements).
    pub fn since(&self, earlier: &StageTimes) -> StageTimes {
        StageTimes(std::array::from_fn(|i| StageTime {
            calls: self.0[i].calls - earlier.0[i].calls,
            ns: self.0[i].ns - earlier.0[i].ns,
            transforms: self.0[i].transforms - earlier.0[i].transforms,
        }))
    }
}

impl std::ops::Index<KsStage> for StageTimes {
    type Output = StageTime;

    fn index(&self, stage: KsStage) -> &StageTime {
        &self.0[stage as usize]
    }
}

/// The atomics behind [`StageTimes`]: `(calls, ns, transforms)` per stage,
/// fixed-size and always on, like the [`OpCounts`] counters.
#[derive(Debug, Default)]
struct StageClock([[AtomicU64; 3]; KsStage::ALL.len()]);

impl StageClock {
    /// Closes `stage` at now: one call, the time since `since` and
    /// `transforms` plane transforms. `since` moves to now, where the next
    /// stage starts.
    fn lap(&self, stage: KsStage, since: &mut Instant, transforms: u64) {
        let now = Instant::now();
        let [calls, ns, planes] = &self.0[stage as usize];
        calls.fetch_add(1, Ordering::Relaxed);
        ns.fetch_add((now - *since).as_nanos() as u64, Ordering::Relaxed);
        planes.fetch_add(transforms, Ordering::Relaxed);
        *since = now;
    }

    fn snapshot(&self) -> StageTimes {
        StageTimes(std::array::from_fn(|i| {
            let [calls, ns, planes] = &self.0[i];
            StageTime {
                calls: calls.load(Ordering::Relaxed),
                ns: ns.load(Ordering::Relaxed),
                transforms: planes.load(Ordering::Relaxed),
            }
        }))
    }

    fn reset(&self) {
        for counter in self.0.iter().flatten() {
            counter.store(0, Ordering::Relaxed);
        }
    }
}

/// A plaintext pre-lifted to `R_Q` (one plane per live limb of its level)
/// and NTT-transformed, ready for repeated multiplication (exposes the
/// intermediate per C-INTERMEDIATE; weight polynomials are reused across
/// many ciphertexts in a conv layer).
///
/// Carries the level it was prepared at. Because limb planes are
/// independent, a preparation at level `ℓ` serves any ciphertext at level
/// `ℓ` **or deeper** — the evaluator reads the live-plane prefix and
/// ignores the surplus. A ciphertext *shallower* than the preparation is
/// rejected with [`Error::LevelMismatch`] (the dropped planes cannot be
/// regrown). Level-0 preparations (the default) therefore work everywhere.
///
/// The polynomial is kept packed at its limbs' widths ([`PackedPoly`], the
/// wire's layout): a model's masks are resident for every session, and a
/// group sum streams them.
#[derive(Debug, Clone)]
pub struct PreparedPlaintext {
    /// Evaluation-form RNS polynomial (centered lift of the mod-`t`
    /// coefficients into every live limb), packed.
    poly: PackedPoly,
    /// `||pt||_∞` of the centered coefficients (drives noise growth).
    inf_norm: u64,
    /// Level the plaintext was prepared at (0 = full chain).
    level: usize,
}

impl PreparedPlaintext {
    /// The evaluation-form polynomial, packed; [`PackedPoly::unpack`]
    /// gives it as an [`RnsPoly`].
    pub fn poly(&self) -> &PackedPoly {
        &self.poly
    }

    /// Centered infinity norm of the plaintext.
    pub fn inf_norm(&self) -> u64 {
        self.inf_norm
    }

    /// Level this plaintext was prepared at; usable for ciphertexts at
    /// this level or deeper.
    pub fn level(&self) -> usize {
        self.level
    }
}

/// The rotation-invariant precomputation of `HE_Rotate` for one
/// ciphertext: the evaluation-form per-limb digit decomposition of its
/// `c1` component (see [`Evaluator::hoist_into`]).
///
/// Read-only once built: every replay of a rotation set reads the same
/// instance.
#[derive(Debug, Clone)]
pub struct HoistedDecomposition {
    params: BfvParams,
    /// Evaluation-form digit polynomials, limb-major (matching
    /// [`crate::keys::GaloisKey::pairs`]).
    digits: Vec<RnsPoly>,
    /// Level of the source ciphertext: the digits cover its live limbs
    /// only, so a replay requires the exact same level.
    level: usize,
    /// Sampled fingerprint of the source `c1`, so a replay against the
    /// wrong (or since-mutated) ciphertext fails loudly instead of
    /// splicing foreign key-switch digits onto an unrelated `c0`.
    source_tag: u64,
}

impl HoistedDecomposition {
    /// An empty decomposition for the parameter set; fill it with
    /// [`Evaluator::hoist_into`]. Digit storage is allocated on first use
    /// and recycled afterwards.
    pub fn empty(params: &BfvParams) -> Self {
        Self {
            params: params.clone(),
            digits: Vec::new(),
            level: 0,
            source_tag: 0,
        }
    }

    /// Level of the ciphertext this decomposition was hoisted from;
    /// replays require an operand at exactly this level.
    pub fn level(&self) -> usize {
        self.level
    }
}

/// Strided FNV-1a sample of a polynomial's residues (~64 probes): cheap
/// enough for every hoisted replay, and ciphertext components are
/// uniform-looking, so any two distinct ones collide with negligible
/// probability.
fn source_fingerprint(p: &RnsPoly) -> u64 {
    let data = p.data();
    let stride = (data.len() / 64).max(1);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |w: u64| {
        h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    };
    mix(data.len() as u64);
    for &w in data.iter().step_by(stride) {
        mix(w);
    }
    mix(data.last().copied().unwrap_or(0));
    h
}

/// The homomorphic evaluator.
///
/// Shared-reference (`&Evaluator`) use is thread-safe: kernel counters are
/// atomic and the internal scratch pool is mutex-guarded. For contention-free
/// parallelism, give each worker thread its own [`Scratch`].
///
/// # Examples
///
/// ```
/// use cheetah_bfv::{BatchEncoder, BfvParams, Decryptor, Encryptor, Evaluator, KeyGenerator};
///
/// # fn main() -> Result<(), cheetah_bfv::Error> {
/// let params = BfvParams::builder().degree(4096).build()?;
/// let mut keygen = KeyGenerator::from_seed(params.clone(), 1);
/// let pk = keygen.public_key()?;
/// let keys = keygen.galois_keys_for_steps(&[1])?;
/// let encoder = BatchEncoder::new(params.clone());
/// let mut encryptor = Encryptor::from_public_key(pk, 2);
/// let decryptor = Decryptor::new(keygen.secret_key().clone());
/// let evaluator = Evaluator::new(params);
///
/// let mut scratch = evaluator.new_scratch();
/// let ct = encryptor.encrypt(&encoder.encode(&[10, 20, 30])?)?;
/// let mut rotated = ct.clone();
/// evaluator.rotate_rows_into(&mut rotated, &ct, 1, &keys, &mut scratch)?;
/// let out = encoder.decode(&decryptor.decrypt(&rotated)?);
/// assert_eq!(out[0], 20); // left rotation by 1
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Evaluator {
    params: BfvParams,
    add_count: AtomicU64,
    mul_count: AtomicU64,
    rotate_count: AtomicU64,
    ntt_count: AtomicU64,
    poly_mul_count: AtomicU64,
    mod_switch_count: AtomicU64,
    stages: StageClock,
    /// Backs `HE_ModSwitch`'s temporary plane; every other operation takes
    /// a caller scratch instead, so sessions on other threads sharing this
    /// evaluator never contend here.
    scratch: Mutex<Scratch>,
}

impl Evaluator {
    /// Creates an evaluator for the parameter set.
    pub fn new(params: BfvParams) -> Self {
        // Hybrid (special-prime) chains need one extra scratch plane: the
        // key-switch accumulators live on `P·Q_ℓ` (live + 1 planes).
        let (n, limbs) = (params.degree(), params.scratch_limbs());
        Self {
            params,
            add_count: AtomicU64::new(0),
            mul_count: AtomicU64::new(0),
            rotate_count: AtomicU64::new(0),
            ntt_count: AtomicU64::new(0),
            poly_mul_count: AtomicU64::new(0),
            mod_switch_count: AtomicU64::new(0),
            stages: StageClock::default(),
            scratch: Mutex::new(Scratch::new(n, limbs)),
        }
    }

    /// Parameter set.
    pub fn params(&self) -> &BfvParams {
        &self.params
    }

    /// A fresh scratch pool sized for this evaluator's parameters (one per
    /// worker thread is the intended pattern).
    pub fn new_scratch(&self) -> Scratch {
        Scratch::new(self.params.degree(), self.params.scratch_limbs())
    }

    /// Snapshot of the kernel counters.
    pub fn op_counts(&self) -> OpCounts {
        OpCounts {
            add: self.add_count.load(Ordering::Relaxed),
            mul: self.mul_count.load(Ordering::Relaxed),
            rotate: self.rotate_count.load(Ordering::Relaxed),
            ntt: self.ntt_count.load(Ordering::Relaxed),
            poly_mul: self.poly_mul_count.load(Ordering::Relaxed),
            mod_switch: self.mod_switch_count.load(Ordering::Relaxed),
        }
    }

    /// Snapshot of the key-switch stage clock: calls, wall time and plane
    /// transforms per [`KsStage`], over every key switch since the last
    /// [`Evaluator::reset_op_counts`].
    pub fn stage_times(&self) -> StageTimes {
        self.stages.snapshot()
    }

    /// Resets the kernel counters and the key-switch stage clock.
    pub fn reset_op_counts(&self) {
        self.add_count.store(0, Ordering::Relaxed);
        self.mul_count.store(0, Ordering::Relaxed);
        self.rotate_count.store(0, Ordering::Relaxed);
        self.ntt_count.store(0, Ordering::Relaxed);
        self.poly_mul_count.store(0, Ordering::Relaxed);
        self.mod_switch_count.store(0, Ordering::Relaxed);
        self.stages.reset();
    }

    #[inline]
    fn count(counter: &AtomicU64, by: u64) {
        counter.fetch_add(by, Ordering::Relaxed);
    }

    /// Closes a key-switch stage on the stage clock and counts its plane
    /// transforms in [`OpCounts::ntt`] — the one place a key switch bumps
    /// that counter.
    fn lap(&self, stage: KsStage, since: &mut Instant, transforms: u64) {
        self.stages.lap(stage, since, transforms);
        Self::count(&self.ntt_count, transforms);
    }

    /// Locks the internal scratch pool. A poisoned mutex only means some
    /// other thread panicked while holding the lease; pooled buffers carry
    /// no invariants beyond shape (contents are dirty by contract), so the
    /// lock is recovered rather than propagating the panic through every
    /// public entry point.
    fn scratch_guard(&self) -> std::sync::MutexGuard<'_, Scratch> {
        self.scratch
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Tags a [`Error::MissingGaloisKey`] from an element lookup with the
    /// rotation step that needed it, so protocol-level callers see the
    /// step they asked for rather than a bare Galois element.
    fn attach_step(e: Error, steps: i64) -> Error {
        match e {
            Error::MissingGaloisKey {
                element,
                step: None,
            } => Error::MissingGaloisKey {
                element,
                step: Some(steps),
            },
            other => other,
        }
    }

    /// Errors unless both operands live at the same level.
    #[inline]
    fn check_levels(expected: usize, found: usize) -> Result<()> {
        if expected == found {
            Ok(())
        } else {
            Err(Error::LevelMismatch { expected, found })
        }
    }

    /// Errors unless a prepared plaintext's level serves a ciphertext at
    /// `ct_level` (preparations apply at their own level or deeper).
    #[inline]
    fn check_prepared(pt: &PreparedPlaintext, ct_level: usize) -> Result<()> {
        if pt.level <= ct_level {
            Ok(())
        } else {
            Err(Error::LevelMismatch {
                expected: ct_level,
                found: pt.level,
            })
        }
    }

    // ------------------------------------------------------------------
    // In-place operations (the zero-allocation hot path)
    // ------------------------------------------------------------------

    /// `HE_Add` in place: `a += b` slot-wise. No allocation.
    ///
    /// # Errors
    ///
    /// [`Error::ParameterMismatch`] for foreign ciphertexts,
    /// [`Error::LevelMismatch`] when the operands' levels differ.
    pub fn add_assign(&self, a: &mut Ciphertext, b: &Ciphertext) -> Result<()> {
        self.params.check_same(a.params())?;
        self.params.check_same(b.params())?;
        Self::check_levels(a.level(), b.level())?;
        let chain = self.params.chain_at(a.level());
        let noise = a.noise().add(b.noise());
        {
            let (c0, c1) = a.parts_mut();
            c0.add_assign(b.c0(), chain)?;
            c1.add_assign(b.c1(), chain)?;
        }
        a.set_noise(noise);
        Self::count(&self.add_count, 1);
        Ok(())
    }

    /// `a -= b` slot-wise, in place. No allocation.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Evaluator::add_assign`].
    pub fn sub_assign(&self, a: &mut Ciphertext, b: &Ciphertext) -> Result<()> {
        self.params.check_same(a.params())?;
        self.params.check_same(b.params())?;
        Self::check_levels(a.level(), b.level())?;
        let chain = self.params.chain_at(a.level());
        let noise = a.noise().add(b.noise());
        {
            let (c0, c1) = a.parts_mut();
            c0.sub_assign(b.c0(), chain)?;
            c1.sub_assign(b.c1(), chain)?;
        }
        a.set_noise(noise);
        Self::count(&self.add_count, 1);
        Ok(())
    }

    /// Slot-wise negation in place. No allocation.
    ///
    /// # Errors
    ///
    /// [`Error::ParameterMismatch`] for foreign ciphertexts.
    pub fn negate_assign(&self, a: &mut Ciphertext) -> Result<()> {
        self.params.check_same(a.params())?;
        let chain = self.params.chain_at(a.level());
        let (c0, c1) = a.parts_mut();
        c0.negate(chain);
        c1.negate(chain);
        Ok(())
    }

    /// Adds a plaintext slot-wise in place: `a += Δ_ℓ·pt`, lifting the
    /// plaintext into `a`'s live planes through a scratch polynomial. No
    /// allocation at steady state.
    ///
    /// # Errors
    ///
    /// [`Error::ParameterMismatch`] for foreign operands.
    pub fn add_plain_assign(
        &self,
        a: &mut Ciphertext,
        pt: &Plaintext,
        scratch: &mut Scratch,
    ) -> Result<()> {
        self.params.check_same(a.params())?;
        self.params.check_same(pt.params())?;
        let level = a.level();
        let live = a.live_limbs();
        let chain = self.params.chain_at(level);
        let mut dm = scratch.take_poly_limbs(live, Representation::Coeff);
        self.params.lift_scaled_into(pt.coeffs(), &mut dm);
        dm.to_eval(chain);
        Self::count(&self.ntt_count, live as u64);
        let noise = a.noise().add_plain(pt.inf_norm());
        let r = a.parts_mut().0.add_assign(&dm, chain);
        scratch.put_poly(dm);
        r?;
        a.set_noise(noise);
        Self::count(&self.add_count, 1);
        Ok(())
    }

    /// `HE_Mult` (pt-ct) in place: `a ⊙= pt`, over `a`'s live planes. No
    /// allocation.
    ///
    /// # Errors
    ///
    /// [`Error::ParameterMismatch`] for foreign ciphertexts,
    /// [`Error::LevelMismatch`] when the plaintext was prepared deeper
    /// than the ciphertext.
    pub fn mul_plain_assign(&self, a: &mut Ciphertext, pt: &PreparedPlaintext) -> Result<()> {
        self.params.check_same(a.params())?;
        let level = a.level();
        Self::check_prepared(pt, level)?;
        let chain = self.params.chain_at(level);
        let noise = a.noise().mul_plain_at(&self.params, level, 2 * pt.inf_norm);
        {
            let (c0, c1) = a.parts_mut();
            c0.mul_assign_packed_prefix(&pt.poly, chain)?;
            c1.mul_assign_packed_prefix(&pt.poly, chain)?;
        }
        a.set_noise(noise);
        Self::count(&self.mul_count, 1);
        Self::count(&self.poly_mul_count, 2);
        Ok(())
    }

    /// The group sum of every rotate-mul-accumulate linear layer:
    /// `acc += Σ_k a_k ⊙ pt_k` in **one pass** over the limb planes. Each
    /// coefficient's products are summed unreduced in `u128` and reduced
    /// once ([`RnsPoly::dot_pair_prefix`]), with both components sharing
    /// the pass over each mask, instead of one Barrett reduction and one
    /// modular add per term. The ciphertext, the noise estimate (folded
    /// term by term, in order) and the [`OpCounts`] (`k` `HE_Mult`, `k`
    /// `HE_Add`, `2k` pointwise multiplications) are exactly those of
    /// multiplying a copy of each term in place (`mul_plain_assign`) and
    /// adding it onto `acc` (`add_assign`), in order — with no intermediate
    /// ciphertext. Every term is checked before `acc` is touched. No
    /// allocation.
    ///
    /// # Errors
    ///
    /// [`Error::ParameterMismatch`] for foreign ciphertexts,
    /// [`Error::LevelMismatch`] when a term's ciphertext and `acc` disagree
    /// on level or its plaintext was prepared deeper than the operands.
    pub fn mul_plain_accumulate_many(
        &self,
        acc: &mut Ciphertext,
        terms: &[(&Ciphertext, &PreparedPlaintext)],
    ) -> Result<()> {
        self.params.check_same(acc.params())?;
        let level = acc.level();
        let mut noise = *acc.noise();
        for (a, pt) in terms {
            self.params.check_same(a.params())?;
            Self::check_levels(level, a.level())?;
            Self::check_prepared(pt, level)?;
            let term = a.noise().mul_plain_at(&self.params, level, 2 * pt.inf_norm);
            noise = noise.add(&term);
        }
        let (c0, c1) = acc.parts_mut();
        RnsPoly::dot_pair_prefix(
            c0,
            c1,
            terms.len(),
            |k| {
                let (a, pt) = terms[k];
                DotTerm {
                    x0: a.c0().into(),
                    x1: a.c1().into(),
                    shared: (&pt.poly).into(),
                }
            },
            None,
            PlaneAlign::Prefix,
            self.params.chain_at(level),
        )?;
        acc.set_noise(noise);
        let k = terms.len() as u64;
        Self::count(&self.mul_count, k);
        Self::count(&self.add_count, k);
        Self::count(&self.poly_mul_count, 2 * k);
        Ok(())
    }

    /// Applies the Galois automorphism `x ↦ x^g` + key switching, writing
    /// into `out` and drawing all temporaries (the permuted `c1`, the
    /// decomposition digits) from `scratch`. `out` follows `a`'s level.
    /// Zero allocations at steady state (within one level).
    ///
    /// This is the full Lane datapath of Fig. 9c over the **live** limbs
    /// only: `c0` is permuted into the output (free), `c1` goes through
    /// the two halves of the key switch — permuted *before* it is
    /// decomposed (`key_switch_front`), then summed against the key
    /// (`key_switch_back`). At a reduced level every stage shrinks with
    /// the live-limb count.
    ///
    /// # Errors
    ///
    /// [`Error::MissingGaloisKey`] or [`Error::ParameterMismatch`].
    pub fn apply_galois_into(
        &self,
        out: &mut Ciphertext,
        a: &Ciphertext,
        g: u64,
        keys: &GaloisKeys,
        scratch: &mut Scratch,
    ) -> Result<()> {
        self.params.check_same(a.params())?;
        self.params.check_same(out.params())?;
        let key = keys.get(g)?;
        let level = a.level();
        out.resize_live_limbs(a.live_limbs());
        let perm = key.permutation();
        out.parts_mut().0.permute_from(a.c0(), perm);

        // The digit store is leased around both halves so every error
        // path returns it to the pool before propagating.
        let mut digits = scratch.take_digits();
        let switched = self
            .key_switch_front(a.c1(), Some(perm), level, &mut digits, scratch)
            .and_then(|()| self.key_switch_back(out, &digits, key, None, level, scratch));
        scratch.put_digits(digits);
        switched?;

        Self::count(&self.rotate_count, 1);
        out.set_noise(a.noise().rotate_at(&self.params, level));
        Ok(())
    }

    /// The front half of every key switch — the rotation-invariant part a
    /// hoist shares across a rotation set: copy `c1` (or, for a direct
    /// rotation, read it through the Galois permutation) into a leased
    /// buffer, INTT its live planes, decompose, and NTT every digit on the
    /// level's key-switch chain. `digits` comes out as
    /// [`BfvParams::ks_digits_at`]`(level)` polynomials shaped like
    /// [`BfvParams::ks_chain_at`]`(level)`; a store that already has that
    /// shape is recycled (zero allocations at steady state).
    ///
    /// The decomposition is the one stage where the two chains differ in
    /// arithmetic: a digit chain splits each normalised residue
    /// `[q̂_i⁻¹·c1]_{q_i}` in base `A` (`l_ct(ℓ)` digits over the live
    /// planes), a hybrid chain lifts it centred onto `[q_0 … q_{live-1}, P]`
    /// (one digit per live limb). Both normalise against the **full**
    /// chain's `q̂_i⁻¹`, which is what pairs level-`ℓ` digits with level-0
    /// keys. A hybrid digit's own plane `i` is that residue itself, so it is
    /// written in evaluation form before the INTT
    /// ([`RnsPoly::hybrid_own_planes_into`]) and never transformed: `live`
    /// fewer digit transforms than planes.
    fn key_switch_front(
        &self,
        c1: &RnsPoly,
        perm: Option<&[u32]>,
        level: usize,
        digits: &mut Vec<RnsPoly>,
        scratch: &mut Scratch,
    ) -> Result<()> {
        let chain = self.params.chain();
        let ks = self.params.ks_chain_at(level);
        let count = self.params.ks_digits_at(level);
        let hybrid = self.params.has_special();
        let live = c1.limbs();
        if digits.len() != count
            || digits
                .first()
                .is_some_and(|d| d.limbs() != ks.limbs() || d.degree() != ks.degree())
        {
            *digits = vec![RnsPoly::zero(ks, Representation::Coeff); count];
        }
        let mut clock = Instant::now();
        let mut c1x = scratch.take_poly_limbs(live, Representation::Eval);
        let mut body = || -> Result<()> {
            match perm {
                Some(perm) => c1x.permute_from(c1, perm),
                None => c1x.copy_from(c1),
            }
            if hybrid {
                c1x.hybrid_own_planes_into(chain, digits)?;
            }
            self.lap(KsStage::Copy, &mut clock, 0);
            c1x.to_coeff(chain);
            self.lap(KsStage::Intt, &mut clock, live as u64);
            if hybrid {
                c1x.hybrid_decompose_into(chain, ks, digits)?;
            } else {
                c1x.rns_decompose_into(self.params.a_dcmp(), chain, digits)?;
            }
            self.lap(KsStage::Decompose, &mut clock, 0);
            for (i, digit) in digits.iter_mut().enumerate() {
                digit.forward_except(ks, hybrid.then_some(i));
            }
            let own = if hybrid { count } else { 0 };
            self.lap(
                KsStage::DigitNtt,
                &mut clock,
                (count * ks.limbs() - own) as u64,
            );
            Ok(())
        };
        let done = body();
        scratch.put_poly(c1x);
        done
    }

    /// The back half of every key switch: `out.c1 = Σ_j d_j ⊙ k1_j` and
    /// `out.c0 += Σ_j d_j ⊙ k0_j` over the evaluation-form digits and the
    /// key's limb-major pair *prefix* (the caller has already permuted
    /// `c0` into `out`). A hoisted replay passes the Galois permutation as
    /// `gather` and the sum reads `φ_g(d_j)` straight out of the cached
    /// digits.
    ///
    /// A digit chain sums straight into the output. A hybrid chain sums
    /// over `P·Q_ℓ` into two leased accumulators (the special plane reads
    /// each key's *last* plane), divides both by `P` — the special prime
    /// is the key-switch chain's last limb, so the rounded limb drop is
    /// exactly `round(·/P)` onto the live data planes — and folds them
    /// into the output.
    fn key_switch_back(
        &self,
        out: &mut Ciphertext,
        digits: &[RnsPoly],
        key: &GaloisKey,
        gather: Option<&[u32]>,
        level: usize,
        scratch: &mut Scratch,
    ) -> Result<()> {
        let ks = self.params.ks_chain_at(level);
        let (oc0, oc1) = out.parts_mut();
        let mut clock = Instant::now();
        if self.params.has_special() {
            let mut acc0 = scratch.take_poly_limbs(ks.limbs(), Representation::Eval);
            let mut acc1 = scratch.take_poly_limbs(ks.limbs(), Representation::Eval);
            for acc in [&mut acc0, &mut acc1] {
                acc.fill_zero();
                acc.set_representation(Representation::Eval);
            }
            let mut body = || -> Result<()> {
                let align = PlaneAlign::SpecialLast;
                Self::key_switch_sum(&mut acc0, &mut acc1, digits, key, gather, align, ks)?;
                self.lap(KsStage::KeySum, &mut clock, 0);
                let transforms = Self::divide_round(&mut acc0, ks, scratch)?
                    + Self::divide_round(&mut acc1, ks, scratch)?;
                oc0.add_assign(&acc0, self.params.chain_at(level))?;
                oc1.copy_from(&acc1);
                self.lap(KsStage::Rescale, &mut clock, transforms);
                Ok(())
            };
            let done = body();
            // The rescale dropped each accumulator's special plane; they
            // go back at the width the pool files them under.
            for mut acc in [acc0, acc1] {
                acc.resize_limbs(ks.limbs());
                scratch.put_poly(acc);
            }
            done?;
        } else {
            oc1.fill_zero();
            oc1.set_representation(Representation::Eval);
            Self::key_switch_sum(oc0, oc1, digits, key, gather, PlaneAlign::Prefix, ks)?;
            self.lap(KsStage::KeySum, &mut clock, 0);
        }
        Self::count(&self.poly_mul_count, 2 * digits.len() as u64);
        Ok(())
    }

    /// The digit × key inner product of [`Evaluator::key_switch_back`]:
    /// both outputs share one lazy pass over each digit
    /// ([`RnsPoly::dot_pair_prefix`]).
    fn key_switch_sum(
        r0: &mut RnsPoly,
        r1: &mut RnsPoly,
        digits: &[RnsPoly],
        key: &GaloisKey,
        gather: Option<&[u32]>,
        align: PlaneAlign,
        chain: &ModulusChain,
    ) -> Result<()> {
        let pairs = key.pairs();
        RnsPoly::dot_pair_prefix(
            r0,
            r1,
            digits.len().min(pairs.len()),
            |j| DotTerm {
                x0: (&pairs[j].0).into(),
                x1: (&pairs[j].1).into(),
                shared: (&digits[j]).into(),
            },
            gather,
            align,
            chain,
        )
    }

    /// Divides an evaluation-form polynomial by the last of its live
    /// limbs on `chain`, exactly rounded, with the temporary plane leased
    /// from `scratch` ([`ModulusChain::divide_round_by_last`]); returns the
    /// plane transforms it ran, one per plane it had. Both divide-and-rounds
    /// of the engine are this — `HE_ModSwitch` (by `q_drop`, on the data
    /// chain) and the hybrid key switch's rescale (by `P`, on the
    /// key-switch chain, whose surviving prefix is the data chain's).
    fn divide_round(p: &mut RnsPoly, chain: &ModulusChain, scratch: &mut Scratch) -> Result<u64> {
        let planes = p.limbs() as u64;
        let mut tmp = scratch.take_poly_limbs(1, Representation::Coeff);
        let divided = chain.divide_round_by_last(p, tmp.data_mut());
        scratch.put_poly(tmp);
        divided.map(|()| planes)
    }

    /// `HE_Rotate` into a caller-owned output ciphertext. Steps wrap
    /// around the row (`steps ≡ 0 (mod n/2)` degenerates to a copy). Zero
    /// allocations at steady state.
    ///
    /// # Errors
    ///
    /// [`Error::MissingGaloisKey`] if the key set lacks the step's
    /// element, [`Error::ParameterMismatch`] for foreign ciphertexts.
    pub fn rotate_rows_into(
        &self,
        out: &mut Ciphertext,
        a: &Ciphertext,
        steps: i64,
        keys: &GaloisKeys,
        scratch: &mut Scratch,
    ) -> Result<()> {
        if steps.rem_euclid(self.params.row_size() as i64) == 0 {
            self.params.check_same(a.params())?;
            self.params.check_same(out.params())?;
            out.copy_from(a);
            return Ok(());
        }
        let g = element_for_step(self.params.degree(), steps)?;
        self.apply_galois_into(out, a, g, keys, scratch)
            .map_err(|e| Self::attach_step(e, steps))
    }

    // ------------------------------------------------------------------
    // Modulus switching: limb dropping as a first-class primitive
    // ------------------------------------------------------------------

    /// `HE_ModSwitch` in place: drops `a`'s last live limb, rescaling the
    /// ciphertext from `Q_ℓ` to `Q_{ℓ+1} = Q_ℓ/q_drop` with the exact
    /// `round(q_drop⁻¹·…)` correction per remaining residue
    /// ([`ModulusChain::divide_round_by_last`]). Noise divides
    /// by `q_drop` (plus a small rounding term —
    /// [`NoiseEstimate::mod_switch`]), the ceiling divides by the same
    /// factor, and **every subsequent operation gets cheaper**: rotations
    /// at the new level run `(l_ct(ℓ+1) + 1)·live` NTT plane transforms
    /// and `2·l_ct(ℓ+1)` pointwise multiplications, storage drops to
    /// `2·live·n·8` bytes and the wire to the live planes, packed
    /// ([`crate::wire::ciphertext_wire_bytes`]).
    ///
    /// Costs `2·live` NTT plane transforms (per component, the INTT of the
    /// dropped plane and one NTT of its lift onto each survivor). No
    /// allocation at steady state — the drop is a truncation of limb-major
    /// storage, and the temporary plane comes from the evaluator's own
    /// scratch pool.
    ///
    /// # Errors
    ///
    /// [`Error::ParameterMismatch`] for foreign ciphertexts,
    /// [`Error::InvalidLevel`] when `a` is already at the deepest level
    /// (one live limb).
    pub fn mod_switch_to_next_assign(&self, a: &mut Ciphertext) -> Result<()> {
        self.params.check_same(a.params())?;
        let level = a.level();
        if level >= self.params.max_level() {
            return Err(Error::InvalidLevel {
                requested: level + 1,
                current: level,
                max: self.params.max_level(),
            });
        }
        let chain = self.params.chain();
        let noise = a.noise().mod_switch(&self.params, level);
        let (c0, c1) = a.parts_mut();
        let mut scratch = self.scratch_guard();
        let transforms = Self::divide_round(c0, chain, &mut scratch)?
            + Self::divide_round(c1, chain, &mut scratch)?;
        drop(scratch);
        Self::count(&self.ntt_count, transforms);
        a.set_noise(noise);
        Self::count(&self.mod_switch_count, 1);
        Ok(())
    }

    /// Switches a ciphertext in place down to an exact target level
    /// (repeated [`Evaluator::mod_switch_to_next_assign`]; a no-op when
    /// already there). Which level to switch to is the caller's rule,
    /// priced by [`NoiseEstimate::mod_switch`] transitions.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidLevel`] when `level` is shallower than the
    /// ciphertext's current level (limbs cannot be re-grown) or past the
    /// chain's deepest level; [`Error::ParameterMismatch`] for foreign
    /// ciphertexts.
    pub fn mod_switch_to_assign(&self, a: &mut Ciphertext, level: usize) -> Result<()> {
        self.params.check_same(a.params())?;
        let current = a.level();
        if level < current || level > self.params.max_level() {
            return Err(Error::InvalidLevel {
                requested: level,
                current,
                max: self.params.max_level(),
            });
        }
        for _ in current..level {
            self.mod_switch_to_next_assign(a)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Hoisted rotation sets
    // ------------------------------------------------------------------

    /// Precomputes the rotation-invariant part of `HE_Rotate` for a
    /// ciphertext — the key switch's front half: INTT of `c1`, the
    /// per-limb digit decomposition, and the digit NTTs; on a digit chain
    /// the `(l_ct + 1)·l_limbs` plane transforms that otherwise repeat for
    /// every step of a rotation *set*.
    ///
    /// The result goes into a reusable [`HoistedDecomposition`] (its
    /// digit storage is recycled; zero allocations at steady state), with
    /// the INTT temporary leased from `scratch`. Pass it to
    /// [`Evaluator::rotate_hoisted_into`] (with the *same* source
    /// ciphertext) for each step; each rotation then costs only slot
    /// permutations and the back half (`2·l_ct` multiply-accumulates on a
    /// digit chain).
    ///
    /// # Errors
    ///
    /// [`Error::ParameterMismatch`] for a foreign ciphertext.
    pub fn hoist_into(
        &self,
        hoisted: &mut HoistedDecomposition,
        a: &Ciphertext,
        scratch: &mut Scratch,
    ) -> Result<()> {
        self.params.check_same(a.params())?;
        let level = a.level();
        hoisted.params = self.params.clone();
        hoisted.level = level;
        // Invalidate the tag up front: should the front half fail, the
        // stale digits must not pass the replay fingerprint check.
        hoisted.source_tag = 0;
        self.key_switch_front(a.c1(), None, level, &mut hoisted.digits, scratch)?;
        hoisted.source_tag = source_fingerprint(a.c1());
        Ok(())
    }

    /// `HE_Rotate` from a hoisted decomposition: sums the cached
    /// evaluation-form digits, read through the Galois slot permutation,
    /// against the key pairs in one lazy pass — **zero NTTs** on a digit
    /// chain (a hybrid chain still pays its `P`-rescale). `a`
    /// must be the ciphertext `hoisted` was built from (its `c0` and noise
    /// estimate are consumed here; enforced by a sampled fingerprint of
    /// its `c1`). Steps wrap around the row; a multiple
    /// of the row degenerates to a copy. Zero allocations at steady state.
    ///
    /// The result decrypts identically to [`Evaluator::rotate_rows_into`]
    /// (automorphisms commute with the reconstruction
    /// `Σ φ(D_j(c1))·A^j·q̂_i·φ(s) = φ(c1·s)`) but is not bit-identical to
    /// it: the key-switch digits are permuted after extraction instead of
    /// before.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidRotation`], [`Error::MissingGaloisKey`],
    /// [`Error::LevelMismatch`] when the decomposition was hoisted at a
    /// different level than `a` now lives at, or
    /// [`Error::ParameterMismatch`] (including a `hoisted` built for a
    /// foreign parameter set or ciphertext).
    pub fn rotate_hoisted_into(
        &self,
        out: &mut Ciphertext,
        a: &Ciphertext,
        hoisted: &HoistedDecomposition,
        steps: i64,
        keys: &GaloisKeys,
        scratch: &mut Scratch,
    ) -> Result<()> {
        self.params.check_same(a.params())?;
        self.params.check_same(out.params())?;
        self.params.check_same(&hoisted.params)?;
        let level = a.level();
        let live = a.live_limbs();
        Self::check_levels(level, hoisted.level)?;
        // The decomposition must have been built from *this* ciphertext's
        // c1 (and the ciphertext not mutated since): splicing a foreign
        // hoist onto `a.c0` would decrypt to garbage while carrying a
        // valid-looking noise estimate.
        if hoisted.digits.len() != self.params.ks_digits_at(level)
            || hoisted.source_tag != source_fingerprint(a.c1())
        {
            return Err(Error::ParameterMismatch);
        }
        if steps.rem_euclid(self.params.row_size() as i64) == 0 {
            out.copy_from(a);
            return Ok(());
        }
        out.resize_live_limbs(live);
        let g = element_for_step(self.params.degree(), steps)?;
        let key = keys.get(g).map_err(|e| Self::attach_step(e, steps))?;
        let perm = key.permutation();
        out.parts_mut().0.permute_from(a.c0(), perm);
        self.key_switch_back(out, &hoisted.digits, key, Some(perm), level, scratch)?;
        Self::count(&self.rotate_count, 1);
        out.set_noise(a.noise().rotate_at(&self.params, level));
        Ok(())
    }

    /// The baby-step primitive of BSGS layers: hoists `a` once (into the
    /// reusable `hoisted`) and replays the whole rotation `steps` set,
    /// writing `outs[i] = rot(a, steps[i])`. `outs` is resized to
    /// `steps.len()`: retained entries keep their capacity and missing
    /// ones are leased from `scratch` (hand them back with
    /// [`Scratch::put_ct`] to keep the pool warm), so a layer's baby set
    /// is allocation-free at steady state within one level; steps that
    /// are multiples of the row degenerate to copies of `a`.
    ///
    /// NTT bill on a digit chain: `(l_ct(ℓ) + 1)·live` plane transforms
    /// for the hoist — independent of the number of steps. A hybrid chain
    /// adds its `P`-rescale per step.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Evaluator::hoist_into`] and
    /// [`Evaluator::rotate_hoisted_into`]; on error `outs` may be
    /// partially written.
    pub fn rotate_set_hoisted_into(
        &self,
        outs: &mut Vec<Ciphertext>,
        a: &Ciphertext,
        steps: &[i64],
        keys: &GaloisKeys,
        hoisted: &mut HoistedDecomposition,
        scratch: &mut Scratch,
    ) -> Result<()> {
        self.hoist_into(hoisted, a, scratch)?;
        outs.truncate(steps.len());
        while outs.len() < steps.len() {
            outs.push(self.lease_dirty_ct(a.live_limbs(), scratch));
        }
        for (out, &step) in outs.iter_mut().zip(steps) {
            self.rotate_hoisted_into(out, a, hoisted, step, keys, scratch)?;
        }
        Ok(())
    }

    /// A ciphertext of `live` planes leased from `scratch` **unzeroed**
    /// (return it with [`Scratch::put_ct`]): for an output the next
    /// operation overwrites whole, where [`Scratch::take_ct`]'s zero-fill
    /// of both components would be a dead `memset`.
    fn lease_dirty_ct(&self, live: usize, scratch: &mut Scratch) -> Ciphertext {
        let c0 = scratch.take_poly_limbs(live, Representation::Eval);
        let c1 = scratch.take_poly_limbs(live, Representation::Eval);
        Ciphertext::new(c0, c1, self.params.clone(), NoiseEstimate::zero())
    }

    /// Lifts a plaintext (centered) into the live planes of `level` and
    /// NTT-transforms it for repeated `HE_Mult`s, paying `live` NTT plane
    /// transforms. Each plane is one dispatched `simd::lift_centered` from
    /// `t` onto its limb — `q_i.from_signed(t.center(c))` per coefficient,
    /// branch-free under the IFMA kernels — and the planes are then packed
    /// at their limbs' widths by the dispatched packer. The preparation serves
    /// ciphertexts at `level` or deeper (the evaluator reads the live-plane
    /// prefix), so level 0 suits weights reused across levels.
    ///
    /// # Errors
    ///
    /// [`Error::ParameterMismatch`] for foreign plaintexts.
    ///
    /// # Panics
    ///
    /// Panics for a level past `params.max_level()`.
    pub fn prepare_plaintext_at(&self, pt: &Plaintext, level: usize) -> Result<PreparedPlaintext> {
        self.params.check_same(pt.params())?;
        let t = self.params.plain_modulus();
        let chain = self.params.chain_at(level);
        let inf_norm = pt.inf_norm().max(1);
        let mut poly = RnsPoly::zero(chain, Representation::Coeff);
        for (i, q) in chain.moduli().iter().enumerate() {
            simd::lift_centered(poly.limb_mut(i), pt.coeffs(), t, q);
        }
        poly.to_eval(chain);
        Self::count(&self.ntt_count, chain.limbs() as u64);
        Ok(PreparedPlaintext {
            poly: PackedPoly::pack(&poly, chain)?,
            inf_norm,
            level,
        })
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::BatchEncoder;
    use crate::encryptor::{Decryptor, Encryptor};
    use crate::keys::KeyGenerator;

    struct Ctx {
        params: BfvParams,
        encoder: BatchEncoder,
        enc: Encryptor,
        dec: Decryptor,
        eval: Evaluator,
        keys: GaloisKeys,
    }

    fn ctx(n: usize, steps: &[i64]) -> Ctx {
        let params = BfvParams::builder()
            .degree(n)
            .plain_bits(16)
            .moduli_bits(&[if n >= 4096 { 60 } else { 54 }])
            .a_dcmp(1 << 16)
            .build()
            .unwrap();
        let mut kg = KeyGenerator::from_seed(params.clone(), 1234);
        let pk = kg.public_key().unwrap();
        let keys = kg.galois_keys_for_steps(steps).unwrap();
        Ctx {
            params: params.clone(),
            encoder: BatchEncoder::new(params.clone()),
            enc: Encryptor::from_public_key(pk, 55),
            dec: Decryptor::new(kg.secret_key().clone()),
            eval: Evaluator::new(params),
            keys,
        }
    }

    #[test]
    fn add_is_slotwise() {
        let mut c = ctx(2048, &[]);
        let a: Vec<u64> = (0..100).collect();
        let b: Vec<u64> = (0..100).map(|i| 1000 + i).collect();
        let ca = c.enc.encrypt(&c.encoder.encode(&a).unwrap()).unwrap();
        let cb = c.enc.encrypt(&c.encoder.encode(&b).unwrap()).unwrap();
        let mut sum = ca.clone();
        c.eval.add_assign(&mut sum, &cb).unwrap();
        let out = c.encoder.decode(&c.dec.decrypt_checked(&sum).unwrap());
        for i in 0..100 {
            assert_eq!(out[i], a[i] + b[i]);
        }
        assert_eq!(c.eval.op_counts().add, 1);
    }

    #[test]
    fn sub_and_negate() {
        let mut c = ctx(2048, &[]);
        let t = c.params.plain_modulus().value();
        let ca = c.enc.encrypt(&c.encoder.encode(&[10]).unwrap()).unwrap();
        let cb = c.enc.encrypt(&c.encoder.encode(&[3]).unwrap()).unwrap();
        let mut d = ca.clone();
        c.eval.sub_assign(&mut d, &cb).unwrap();
        assert_eq!(c.encoder.decode(&c.dec.decrypt(&d).unwrap())[0], 7);
        let mut neg = ca.clone();
        c.eval.negate_assign(&mut neg).unwrap();
        assert_eq!(c.encoder.decode(&c.dec.decrypt(&neg).unwrap())[0], t - 10);
    }

    #[test]
    fn add_plain_is_slotwise() {
        let mut c = ctx(2048, &[]);
        let ca = c.enc.encrypt(&c.encoder.encode(&[5, 6]).unwrap()).unwrap();
        let pb = c.encoder.encode(&[100, 200]).unwrap();
        let mut s = ca.clone();
        c.eval
            .add_plain_assign(&mut s, &pb, &mut c.eval.new_scratch())
            .unwrap();
        let out = c.encoder.decode(&c.dec.decrypt_checked(&s).unwrap());
        assert_eq!(&out[..2], &[105, 206]);
    }

    #[test]
    fn mul_plain_is_slotwise() {
        let mut c = ctx(2048, &[]);
        let a: Vec<u64> = (1..=50).collect();
        let w: Vec<u64> = (1..=50).map(|i| 2 * i).collect();
        let ca = c.enc.encrypt(&c.encoder.encode(&a).unwrap()).unwrap();
        let pw = c
            .eval
            .prepare_plaintext_at(&c.encoder.encode(&w).unwrap(), 0)
            .unwrap();
        let mut prod = ca.clone();
        c.eval.mul_plain_assign(&mut prod, &pw).unwrap();
        let out = c.encoder.decode(&c.dec.decrypt_checked(&prod).unwrap());
        for i in 0..50 {
            assert_eq!(out[i], a[i] * w[i], "slot {i}");
        }
        // Model noise must upper-bound measured noise.
        let measured = c.dec.invariant_noise(&prod).unwrap() as f64;
        assert!(measured.log2() <= prod.noise().bound_log2);
    }

    #[test]
    fn mul_plain_signed_weights() {
        let mut c = ctx(2048, &[]);
        let a: Vec<i64> = vec![3, -4, 5];
        let w: Vec<i64> = vec![-2, -3, 7];
        let ca = c
            .enc
            .encrypt(&c.encoder.encode_signed(&a).unwrap())
            .unwrap();
        let pw = c
            .eval
            .prepare_plaintext_at(&c.encoder.encode_signed(&w).unwrap(), 0)
            .unwrap();
        let mut prod = ca.clone();
        c.eval.mul_plain_assign(&mut prod, &pw).unwrap();
        let out = c
            .encoder
            .decode_signed(&c.dec.decrypt_checked(&prod).unwrap());
        assert_eq!(&out[..3], &[-6, 12, 35]);
    }

    #[test]
    fn rotate_rows_left_and_right() {
        let mut c = ctx(2048, &[1, -1, 5]);
        let row = c.params.row_size();
        let vals: Vec<u64> = (0..row as u64).collect();
        let ct = c.enc.encrypt(&c.encoder.encode(&vals).unwrap()).unwrap();
        let mut scratch = c.eval.new_scratch();
        let mut rotate = |steps| {
            let mut out = ct.clone();
            c.eval
                .rotate_rows_into(&mut out, &ct, steps, &c.keys, &mut scratch)
                .unwrap();
            out
        };

        let left1 = rotate(1);
        let out = c.encoder.decode(&c.dec.decrypt_checked(&left1).unwrap());
        assert_eq!(out[0], 1);
        assert_eq!(out[row - 1], 0); // wrapped around

        let right1 = rotate(-1);
        let out = c.encoder.decode(&c.dec.decrypt_checked(&right1).unwrap());
        assert_eq!(out[0], (row - 1) as u64);
        assert_eq!(out[1], 0);

        let left5 = rotate(5);
        let out = c.encoder.decode(&c.dec.decrypt_checked(&left5).unwrap());
        assert_eq!(out[0], 5);
    }

    #[test]
    fn rotate_affects_both_rows_independently() {
        let mut c = ctx(2048, &[1]);
        let row = c.params.row_size();
        let mut vals = vec![0u64; 2 * row];
        for (i, v) in vals.iter_mut().enumerate() {
            *v = i as u64;
        }
        let ct = c.enc.encrypt(&c.encoder.encode(&vals).unwrap()).unwrap();
        let mut rot = ct.clone();
        c.eval
            .rotate_rows_into(&mut rot, &ct, 1, &c.keys, &mut c.eval.new_scratch())
            .unwrap();
        let out = c.encoder.decode(&c.dec.decrypt_checked(&rot).unwrap());
        assert_eq!(out[0], 1);
        assert_eq!(out[row], row as u64 + 1); // row 1 also rotated left by 1
        assert_eq!(out[row - 1], 0);
        assert_eq!(out[2 * row - 1], row as u64);
    }

    #[test]
    fn missing_key_is_an_error() {
        let mut c = ctx(2048, &[1]);
        let ct = c.enc.encrypt(&c.encoder.encode(&[1]).unwrap()).unwrap();
        let mut out = ct.clone();
        assert!(matches!(
            c.eval
                .rotate_rows_into(&mut out, &ct, 7, &c.keys, &mut c.eval.new_scratch()),
            Err(Error::MissingGaloisKey { .. })
        ));
    }

    #[test]
    fn op_counts_track_rotate_internals() {
        let mut c = ctx(2048, &[1]);
        let ct = c.enc.encrypt(&c.encoder.encode(&[1]).unwrap()).unwrap();
        let mut out = ct.clone();
        let mut scratch = c.eval.new_scratch();
        c.eval.reset_op_counts();
        c.eval
            .rotate_rows_into(&mut out, &ct, 1, &c.keys, &mut scratch)
            .unwrap();
        let counts = c.eval.op_counts();
        let l_ct = c.params.l_ct_at(0) as u64;
        let limbs = c.params.limbs() as u64;
        assert_eq!(counts.rotate, 1);
        assert_eq!(
            counts.ntt,
            (l_ct + 1) * limbs,
            "(l_ct + 1)·limbs NTT plane transforms per rotate"
        );
        assert_eq!(counts.poly_mul, 2 * l_ct, "2 l_ct muls per rotate");
    }

    #[test]
    fn op_counts_scale_with_limb_planes() {
        // The seed-era counter charged l_ct + 1 per rotate regardless of
        // the chain length, under-reporting multi-limb NTT work by a
        // factor of `limbs`. Plane counting fixes that.
        let params = BfvParams::preset_rns_3x36(4096).unwrap();
        let mut kg = KeyGenerator::from_seed(params.clone(), 71);
        let pk = kg.public_key().unwrap();
        let keys = kg.galois_keys_for_steps(&[1]).unwrap();
        let encoder = BatchEncoder::new(params.clone());
        let mut enc = Encryptor::from_public_key(pk, 72);
        let eval = Evaluator::new(params.clone());
        let ct = enc.encrypt(&encoder.encode(&[1, 2, 3]).unwrap()).unwrap();

        let mut out = ct.clone();
        let mut scratch = eval.new_scratch();
        eval.reset_op_counts();
        eval.rotate_rows_into(&mut out, &ct, 1, &keys, &mut scratch)
            .unwrap();
        let counts = eval.op_counts();
        let l_ct = params.l_ct_at(0) as u64;
        assert_eq!(params.limbs(), 3);
        assert_eq!(counts.ntt, (l_ct + 1) * 3);
        assert_eq!(counts.poly_mul, 2 * l_ct);
    }

    #[test]
    fn hoisted_rotation_matches_direct_and_shares_one_decomposition() {
        for params in [
            BfvParams::preset_single_60(4096).unwrap(),
            BfvParams::preset_rns_2x30(4096).unwrap(),
            BfvParams::preset_rns_3x36(4096).unwrap(),
        ] {
            let mut kg = KeyGenerator::from_seed(params.clone(), 81);
            let pk = kg.public_key().unwrap();
            let steps = [1i64, 2, 5, -3];
            let keys = kg.galois_keys_for_steps(&steps).unwrap();
            let encoder = BatchEncoder::new(params.clone());
            let mut enc = Encryptor::from_public_key(pk, 82);
            let dec = Decryptor::new(kg.secret_key().clone());
            let eval = Evaluator::new(params.clone());
            let vals: Vec<u64> = (0..200).map(|i| i * 13 % 997).collect();
            let ct = enc.encrypt(&encoder.encode(&vals).unwrap()).unwrap();

            let mut scratch = eval.new_scratch();
            let mut hoisted = HoistedDecomposition::empty(&params);
            eval.reset_op_counts();
            eval.hoist_into(&mut hoisted, &ct, &mut scratch).unwrap();
            let after_hoist = eval.op_counts();
            let l_ct = params.l_ct_at(0) as u64;
            let limbs = params.limbs() as u64;
            assert_eq!(
                after_hoist.ntt,
                (l_ct + 1) * limbs,
                "hoist = one rotation's worth of plane transforms"
            );

            for &s in &steps {
                let mut direct = ct.clone();
                eval.rotate_rows_into(&mut direct, &ct, s, &keys, &mut scratch)
                    .unwrap();
                let mut via_hoist = ct.clone();
                eval.rotate_hoisted_into(&mut via_hoist, &ct, &hoisted, s, &keys, &mut scratch)
                    .unwrap();
                let d1 = encoder.decode(&dec.decrypt_checked(&direct).unwrap());
                let d2 = encoder.decode(&dec.decrypt_checked(&via_hoist).unwrap());
                assert_eq!(d1, d2, "step {s}, limbs {limbs}");
                assert_eq!(direct.noise().bound_log2, via_hoist.noise().bound_log2);
            }

            // The k-element set paid for exactly one INTT + decompose:
            // only the k direct rotations added NTT plane transforms.
            let total = eval.op_counts();
            let expected_direct = steps.len() as u64 * (l_ct + 1) * limbs;
            assert_eq!(
                total.ntt - after_hoist.ntt,
                expected_direct,
                "hoisted replays must add zero NTT work"
            );
            assert_eq!(total.rotate, 2 * steps.len() as u64);
        }
    }

    #[test]
    fn hoisted_replay_rejects_foreign_source_ciphertext() {
        let mut c = ctx(2048, &[1]);
        let ct_a = c.enc.encrypt(&c.encoder.encode(&[1, 2]).unwrap()).unwrap();
        let ct_b = c.enc.encrypt(&c.encoder.encode(&[3, 4]).unwrap()).unwrap();
        let mut scratch = c.eval.new_scratch();
        let mut hoisted = HoistedDecomposition::empty(&c.params);
        c.eval
            .hoist_into(&mut hoisted, &ct_a, &mut scratch)
            .unwrap();
        let mut out = ct_a.clone();
        let mut replay = |src: &Ciphertext| {
            c.eval
                .rotate_hoisted_into(&mut out, src, &hoisted, 1, &c.keys, &mut scratch)
        };
        // Replaying A's decomposition against B must fail loudly, not
        // splice A's key-switch digits onto B's c0.
        assert!(matches!(replay(&ct_b), Err(Error::ParameterMismatch)));
        // And mutating the source after hoisting invalidates the replay.
        let mut mutated = ct_a.clone();
        c.eval.add_assign(&mut mutated, &ct_b).unwrap();
        assert!(matches!(replay(&mutated), Err(Error::ParameterMismatch)));
        // The genuine source still works.
        assert!(replay(&ct_a).is_ok());
    }

    #[test]
    fn rotation_steps_wrap_around_the_row() {
        // steps = row + 1 must behave exactly like steps = 1 on the
        // direct, scratch, and hoisted paths.
        let mut c = ctx(2048, &[1, 2, 4, 8, 16, 32, 64, 128, 256, 512]);
        let row = c.params.row_size() as i64;
        let vals: Vec<u64> = (0..row as u64).collect();
        let ct = c.enc.encrypt(&c.encoder.encode(&vals).unwrap()).unwrap();

        let mut scratch = c.eval.new_scratch();
        let mut rotate = |steps| {
            let mut out = ct.clone();
            c.eval
                .rotate_rows_into(&mut out, &ct, steps, &c.keys, &mut scratch)
                .unwrap();
            out
        };
        let by_one = rotate(1);
        let wrapped = rotate(row + 1);
        assert_eq!(by_one.c0().data(), wrapped.c0().data());
        assert_eq!(by_one.c1().data(), wrapped.c1().data());

        let d1 = c.encoder.decode(&c.dec.decrypt_checked(&by_one).unwrap());

        // Multiples of the row are the identity.
        let ident = rotate(row);
        assert_eq!(ident.c0().data(), ct.c0().data());

        let mut hoisted = HoistedDecomposition::empty(&c.params);
        c.eval.hoist_into(&mut hoisted, &ct, &mut scratch).unwrap();
        let mut h1 = ct.clone();
        c.eval
            .rotate_hoisted_into(&mut h1, &ct, &hoisted, row + 1, &c.keys, &mut scratch)
            .unwrap();
        let dh = c.encoder.decode(&c.dec.decrypt_checked(&h1).unwrap());
        assert_eq!(d1, dh);
    }

    #[test]
    fn mod_switch_preserves_decryption_and_shrinks_rotation() {
        // The leveled-evaluation acceptance path on the 3x36 preset:
        // switch down one level, decryption is preserved, and a rotation
        // at level 1 runs (l_ct(1) + 1)·live plane transforms — strictly
        // fewer than at level 0.
        let params = BfvParams::preset_rns_3x36(4096).unwrap();
        let mut kg = KeyGenerator::from_seed(params.clone(), 61);
        let pk = kg.public_key().unwrap();
        let keys = kg.galois_keys_for_steps(&[1]).unwrap();
        let encoder = BatchEncoder::new(params.clone());
        let mut enc = Encryptor::from_public_key(pk, 62);
        let dec = Decryptor::new(kg.secret_key().clone());
        let eval = Evaluator::new(params.clone());

        let vals: Vec<u64> = (0..300).map(|i| i * 7 % 1000).collect();
        let ct = enc.encrypt(&encoder.encode(&vals).unwrap()).unwrap();
        assert_eq!(ct.level(), 0);
        let full_bytes = ct.byte_size();

        let mut switched = ct.clone();
        eval.mod_switch_to_next_assign(&mut switched).unwrap();
        assert_eq!(switched.level(), 1);
        assert_eq!(switched.live_limbs(), 2);
        assert_eq!(switched.byte_size(), 2 * 2 * 4096 * 8);
        assert!(switched.byte_size() < full_bytes, "must shrink on the wire");
        let out = encoder.decode(&dec.decrypt_checked(&switched).unwrap());
        assert_eq!(&out[..300], &vals[..], "decryption preserved");
        // Measured noise stays under the transition model's bound.
        let measured = dec.invariant_noise(&switched).unwrap() as f64;
        assert!(measured.max(1.0).log2() <= switched.noise().bound_log2 + 1e-9);

        // Rotation at the reduced level: strictly less NTT work.
        let mut scratch = eval.new_scratch();
        let mut rot_full = ct.clone();
        let mut rot_low = switched.clone();
        eval.reset_op_counts();
        eval.rotate_rows_into(&mut rot_full, &ct, 1, &keys, &mut scratch)
            .unwrap();
        let full_counts = eval.op_counts();
        eval.reset_op_counts();
        eval.rotate_rows_into(&mut rot_low, &switched, 1, &keys, &mut scratch)
            .unwrap();
        let low_counts = eval.op_counts();
        let l_ct_full = params.l_ct_at(0) as u64;
        let l_ct_low = params.l_ct_at(1) as u64;
        assert_eq!(full_counts.ntt, (l_ct_full + 1) * 3);
        assert_eq!(low_counts.ntt, (l_ct_low + 1) * 2);
        assert!(low_counts.ntt < full_counts.ntt);
        assert_eq!(low_counts.poly_mul, 2 * l_ct_low);
        assert!(l_ct_low < l_ct_full, "fewer digits at the reduced level");
        // Both rotations decrypt to the same (shifted) slots.
        let a = encoder.decode(&dec.decrypt_checked(&rot_full).unwrap());
        let b = encoder.decode(&dec.decrypt_checked(&rot_low).unwrap());
        assert_eq!(a, b);

        // Hoisted replays work at the reduced level too.
        let mut hoisted = HoistedDecomposition::empty(&params);
        eval.hoist_into(&mut hoisted, &switched, &mut scratch)
            .unwrap();
        assert_eq!(hoisted.level(), 1);
        let mut hr = switched.clone();
        eval.rotate_hoisted_into(&mut hr, &switched, &hoisted, 1, &keys, &mut scratch)
            .unwrap();
        assert_eq!(
            encoder.decode(&dec.decrypt_checked(&hr).unwrap()),
            b,
            "hoisted reduced-level rotate diverged"
        );

        // mod_switch_to_assign walks multiple levels; deepest level errors
        // out.
        let mut bottom = ct.clone();
        eval.mod_switch_to_assign(&mut bottom, params.max_level())
            .unwrap();
        assert_eq!(bottom.live_limbs(), 1);
        assert!(matches!(
            eval.mod_switch_to_next_assign(&mut bottom),
            Err(Error::InvalidLevel { .. })
        ));
        // Switching "up" is refused.
        assert!(matches!(
            eval.mod_switch_to_assign(&mut switched, 0),
            Err(Error::InvalidLevel { .. })
        ));
    }

    #[test]
    fn level_mismatch_is_a_typed_error_not_a_panic() {
        let params = BfvParams::preset_rns_2x30(4096).unwrap();
        let mut kg = KeyGenerator::from_seed(params.clone(), 63);
        let pk = kg.public_key().unwrap();
        let keys = kg.galois_keys_for_steps(&[1]).unwrap();
        let encoder = BatchEncoder::new(params.clone());
        let mut enc = Encryptor::from_public_key(pk, 64);
        let eval = Evaluator::new(params.clone());

        let ct = enc.encrypt(&encoder.encode(&[1, 2, 3]).unwrap()).unwrap();
        let mut low = ct.clone();
        eval.mod_switch_to_next_assign(&mut low).unwrap();

        // ct + low: mixed levels.
        let mut work = ct.clone();
        assert!(matches!(
            eval.add_assign(&mut work, &low),
            Err(Error::LevelMismatch {
                expected: 0,
                found: 1
            })
        ));
        assert!(matches!(
            eval.sub_assign(&mut work, &low),
            Err(Error::LevelMismatch { .. })
        ));
        // Accumulator at full level, operand switched.
        let pw = eval
            .prepare_plaintext_at(&encoder.encode(&[5]).unwrap(), 0)
            .unwrap();
        let mut acc = Ciphertext::transparent_zero_at(&params, 0);
        assert!(matches!(
            eval.mul_plain_accumulate_many(&mut acc, &[(&low, &pw)]),
            Err(Error::LevelMismatch { .. })
        ));
        // A plaintext prepared at level 1 cannot serve a level-0 operand…
        let deep_pw = eval
            .prepare_plaintext_at(&encoder.encode(&[5]).unwrap(), 1)
            .unwrap();
        assert_eq!(deep_pw.level(), 1);
        let mut full = ct.clone();
        assert!(matches!(
            eval.mul_plain_assign(&mut full, &deep_pw),
            Err(Error::LevelMismatch { .. })
        ));
        // …but serves a switched one, identically to the level-0 prep.
        let mut a = low.clone();
        eval.mul_plain_assign(&mut a, &deep_pw).unwrap();
        let mut b = low.clone();
        eval.mul_plain_assign(&mut b, &pw).unwrap();
        assert_eq!(a.c0().data(), b.c0().data());
        assert_eq!(a.c1().data(), b.c1().data());
        // A hoist taken at level 0 cannot replay against the switched ct.
        let mut scratch = eval.new_scratch();
        let mut hoisted = HoistedDecomposition::empty(&params);
        eval.hoist_into(&mut hoisted, &ct, &mut scratch).unwrap();
        let mut out = low.clone();
        assert!(matches!(
            eval.rotate_hoisted_into(&mut out, &low, &hoisted, 1, &keys, &mut scratch),
            Err(Error::LevelMismatch { .. })
        ));
    }
}
