//! BFV encryption parameters over an RNS modulus chain.
//!
//! | Parameter | Meaning |
//! |-----------|---------|
//! | `n`       | polynomial degree (slot vector length) |
//! | `t`       | plaintext modulus |
//! | `q_0…q_{l-1}` | the ciphertext modulus chain, `Q = Π q_i` |
//! | `A_dcmp`  | ciphertext (activation) decomposition base |
//! | `σ`       | std-dev of the encryption noise (fixed) |
//!
//! The ciphertext modulus is a [`ModulusChain`] of word-sized CRT primes:
//! every ciphertext polynomial stores one residue plane per limb
//! ([`crate::rns::RnsPoly`]) and all hot kernels run limb-parallel in
//! machine words. A chain of length 1 reproduces the historical
//! single-modulus engine bit-for-bit; longer chains unlock `log2(Q)` far
//! past one word (the paper's deep-network noise budgets) while keeping
//! every multiplication a 64-bit Barrett op.
//!
//! Parameters are built with [`BfvParamsBuilder`]:
//!
//! ```
//! use cheetah_bfv::params::BfvParams;
//!
//! # fn main() -> Result<(), cheetah_bfv::Error> {
//! // Single limb (the classic Cheetah point): one generated 60-bit prime.
//! let single = BfvParams::builder().degree(4096).cipher_bits(60).build()?;
//! assert_eq!(single.limbs(), 1);
//!
//! // Multi-limb: exact primes via `.moduli([...])`, or generated sizes
//! // via `.moduli_bits(&[30, 30])`.
//! let two = BfvParams::builder()
//!     .degree(4096)
//!     .plain_bits(17)
//!     .moduli_bits(&[30, 30])
//!     .build()?;
//! assert_eq!(two.limbs(), 2);
//! assert_eq!(two.chain().total_bits(), 60);
//!
//! let explicit = BfvParams::builder()
//!     .degree(4096)
//!     .moduli(two.chain().moduli().iter().map(|m| m.value()).collect::<Vec<_>>())
//!     .build()?;
//! assert_eq!(explicit.chain(), two.chain());
//! # Ok(())
//! # }
//! ```
//!
//! The builder generates matching NTT-friendly primes, checks the 128-bit
//! RLWE security table against the *total* `log2(Q)`, and shares memoized
//! NTT tables per `(prime, n)` across every parameter set in the process.
//!
//! Ready-made presets for the limb counts the benches track:
//! [`BfvParams::preset_single_60`], [`BfvParams::preset_rns_2x30`],
//! [`BfvParams::preset_rns_3x36`] (see [`BfvParams::presets`]).

use std::fmt;
use std::sync::Arc;

use crate::arith::{
    generate_ntt_prime, generate_ntt_primes, generate_primes_congruent, Modulus,
    MAX_NTT_MODULUS_BITS,
};
use crate::error::{Error, Result};
use crate::ntt::NttTable;
use crate::rns::{ModulusChain, Representation, RnsPoly};

/// Default encryption-noise standard deviation (SEAL's default).
pub const DEFAULT_SIGMA: f64 = 3.2;

/// Maximum `log2(q)` for 128-bit classical security with ternary secrets,
/// per the Homomorphic Encryption Standard. Returns `None` for unsupported
/// degrees.
pub fn max_log_q_128(n: usize) -> Option<u32> {
    match n {
        1024 => Some(27),
        2048 => Some(54),
        4096 => Some(109),
        8192 => Some(218),
        16384 => Some(438),
        32768 => Some(881),
        _ => None,
    }
}

/// Security enforcement policy for parameter construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SecurityLevel {
    /// Enforce the 128-bit table; construction fails otherwise.
    #[default]
    Bits128,
    /// Skip the check (used for model sweeps over insecure corners, which
    /// HE-PTune must still be able to *cost*, and for legacy baselines).
    None,
}

/// Immutable, validated BFV parameter set plus precomputed NTT tables.
///
/// Cheap to clone (internally reference-counted); every ciphertext, key and
/// evaluator in a session shares one instance.
///
/// # Examples
///
/// ```
/// use cheetah_bfv::params::BfvParams;
///
/// # fn main() -> Result<(), cheetah_bfv::Error> {
/// let params = BfvParams::builder()
///     .degree(4096)
///     .plain_bits(17)
///     .cipher_bits(60)
///     .build()?;
/// assert_eq!(params.degree(), 4096);
/// assert!(params.plain_modulus().value() % (2 * 4096) == 1);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct BfvParams {
    inner: Arc<ParamsInner>,
}

struct ParamsInner {
    n: usize,
    t: Modulus,
    /// Per-level scaling data, indexed by *level* (= dropped-limb count):
    /// `levels[0]` is the full chain, `levels[l]` the prefix with the last
    /// `l` limbs dropped. A chain of `k` limbs has `k` levels, `0..=k-1`.
    levels: Vec<LevelData>,
    /// The special key-switch prime `P` (hybrid `P·Q` key switching).
    /// Never live for ciphertext data: the data chain above excludes it.
    special: Option<Modulus>,
    a_dcmp: u64,
    sigma: f64,
    t_table: Arc<NttTable>,
    security: SecurityLevel,
}

/// The per-level view of the modulus chain: the live prefix
/// `Q_ℓ = q_0 ⋯ q_{k-1-ℓ}` with its plaintext-scaling constants. Everything
/// a ciphertext at level `ℓ` (with `ℓ` limbs dropped) operates against.
struct LevelData {
    /// The live prefix as a chain of its own (tables shared with the full
    /// chain through the process-wide cache).
    chain: ModulusChain,
    /// `Δ_ℓ = floor(Q_ℓ / t)`, exact.
    delta: u128,
    /// `Δ_ℓ mod q_i` per live limb — the per-plane scaling factor.
    delta_mod: Vec<u64>,
    /// `Q_ℓ mod t` — the plaintext-multiplication rounding residue at this
    /// level, and (for level `ℓ+1`) the dominant modulus-switch rounding
    /// drift. The congruent generator drives it to 1 whenever a prime of
    /// the right shape exists.
    q_mod_t: u64,
    /// The chain key-switch digits and sums live on: `chain` itself on a
    /// digit chain, `[q_0 … q_{live-1}, P]` on a hybrid one. The special
    /// prime is always the *last* limb, so the exact rescale by `P` is the
    /// ordinary drop-last-limb modulus switch on this chain.
    ks_chain: ModulusChain,
    /// Digits one key switch decomposes `c1` into at this level.
    ks_digits: usize,
}

impl fmt::Debug for BfvParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BfvParams")
            .field("n", &self.inner.n)
            .field("t", &self.inner.t.value())
            .field(
                "moduli",
                &self
                    .chain()
                    .moduli()
                    .iter()
                    .map(Modulus::value)
                    .collect::<Vec<_>>(),
            )
            .field("special", &self.inner.special.as_ref().map(Modulus::value))
            .field("a_dcmp", &self.inner.a_dcmp)
            .field("sigma", &self.inner.sigma)
            .finish()
    }
}

impl PartialEq for BfvParams {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
            || (self.inner.n == other.inner.n
                && self.inner.t.value() == other.inner.t.value()
                && self.chain() == other.chain()
                && self.inner.special.as_ref().map(Modulus::value)
                    == other.inner.special.as_ref().map(Modulus::value)
                && self.inner.a_dcmp == other.inner.a_dcmp)
    }
}
impl Eq for BfvParams {}

impl BfvParams {
    /// Starts building a parameter set.
    pub fn builder() -> BfvParamsBuilder {
        BfvParamsBuilder::new()
    }

    /// The classic single-limb Cheetah point: one 60-bit prime, 17-bit `t`.
    ///
    /// # Errors
    ///
    /// Propagates builder errors (e.g. insecure degree).
    pub fn preset_single_60(n: usize) -> Result<BfvParams> {
        Self::builder()
            .degree(n)
            .plain_bits(17)
            .cipher_bits(60)
            .build()
    }

    /// Two-limb chain of distinct 30-bit primes (`log2 Q = 60`) — the
    /// single-60 noise ceiling exercised through genuine multi-limb CRT
    /// arithmetic. Uses a 16-bit `t`: a 30-bit limb cannot satisfy the
    /// Gazelle congruence `q ≡ 1 (mod 2n·t)`, so the multiplication
    /// rounding term `(Q mod t)·⌊mw/t⌋` is live and the smaller plaintext
    /// modulus keeps its headroom.
    ///
    /// # Errors
    ///
    /// Propagates builder errors.
    pub fn preset_rns_2x30(n: usize) -> Result<BfvParams> {
        // Smallest t with an NTT prime for the degree: 16 bits up to
        // n = 4096; n = 8192 needs t ≡ 1 (mod 16384), first hit 65537.
        let plain_bits = if n >= 8192 { 17 } else { 16 };
        Self::builder()
            .degree(n)
            .plain_bits(plain_bits)
            .moduli_bits(&[30, 30])
            .build()
    }

    /// Three-limb chain of distinct 36-bit primes (`log2 Q = 108`) — a
    /// deep noise budget out of reach of any single machine word, still
    /// 128-bit secure at `n = 4096`.
    ///
    /// # Errors
    ///
    /// Propagates builder errors.
    pub fn preset_rns_3x36(n: usize) -> Result<BfvParams> {
        Self::builder()
            .degree(n)
            .plain_bits(17)
            .moduli_bits(&[36, 36, 36])
            .build()
    }

    /// All named presets at degree `n`, as `(name, params)` pairs — the
    /// grid the per-limb benches and CRT proptests iterate.
    ///
    /// # Errors
    ///
    /// Propagates builder errors from any preset.
    pub fn presets(n: usize) -> Result<Vec<(&'static str, BfvParams)>> {
        Ok(vec![
            ("single_60", Self::preset_single_60(n)?),
            ("rns_2x30", Self::preset_rns_2x30(n)?),
            ("rns_3x36", Self::preset_rns_3x36(n)?),
        ])
    }

    /// Hybrid preset: one 54-bit data limb plus a congruent 54-bit special
    /// prime `P` (108 bits of RLWE modulus — the `n = 4096` security
    /// ceiling). Every limb including `P` satisfies `q ≡ 1 (mod 2n·t)`,
    /// so `Q_ℓ ≡ 1 (mod t)` at every level *and* the `P`-rescale drift is
    /// congruence-free. The search comes from
    /// [`search_congruent_chain`] — solver output, not a hand pick.
    ///
    /// # Errors
    ///
    /// Propagates search/builder errors.
    pub fn preset_hybrid_1x54(n: usize) -> Result<BfvParams> {
        let plain_bits = if n >= 8192 { 17 } else { 16 };
        let c = search_congruent_chain(n, plain_bits, &[54], 54)?;
        Self::builder()
            .degree(n)
            .plain_modulus(c.t)
            .moduli(c.data)
            .special_modulus(c.special)
            .build()
    }

    /// Hybrid preset: two 36-bit data limbs plus a congruent 36-bit `P`
    /// (108-bit RLWE modulus, two usable levels). The digit-decomposition
    /// twin is [`BfvParams::preset_rns_3x36`]: same total plane count, but
    /// rotations here pay one digit per live limb instead of
    /// `Σ ceil(log_A q_i)`.
    ///
    /// # Errors
    ///
    /// Propagates search/builder errors.
    pub fn preset_hybrid_2x36(n: usize) -> Result<BfvParams> {
        let plain_bits = if n >= 8192 { 17 } else { 16 };
        let c = search_congruent_chain(n, plain_bits, &[36, 36], 36)?;
        Self::builder()
            .degree(n)
            .plain_modulus(c.t)
            .moduli(c.data)
            .special_modulus(c.special)
            .build()
    }

    /// Hybrid preset for `n = 8192`: two 40-bit data limbs plus a
    /// congruent 40-bit `P`. Deeper degrees need wider congruent primes
    /// (`q ≡ 1 (mod 2n·t)` forces `q > 2n·t ≈ 2^31` at `n = 8192`), and
    /// the composed key-switch chain must stay under the exact-CRT 127-bit
    /// cap — 3×40 is the sweet spot the search lands on.
    ///
    /// # Errors
    ///
    /// Propagates search/builder errors.
    pub fn preset_hybrid_2x40(n: usize) -> Result<BfvParams> {
        let plain_bits = if n >= 8192 { 17 } else { 16 };
        let c = search_congruent_chain(n, plain_bits, &[40, 40], 40)?;
        Self::builder()
            .degree(n)
            .plain_modulus(c.t)
            .moduli(c.data)
            .special_modulus(c.special)
            .build()
    }

    /// All hybrid (special-prime) presets valid at degree `n`, as
    /// `(name, params)` pairs — the grid the hybrid benches and congruence
    /// proptests iterate. `2x36` needs the dense `n = 4096` congruent
    /// progression; `2x40` needs the `n = 8192` security budget.
    ///
    /// # Errors
    ///
    /// Propagates builder errors from any preset.
    pub fn hybrid_presets(n: usize) -> Result<Vec<(&'static str, BfvParams)>> {
        let mut out = vec![("hybrid_1x54", Self::preset_hybrid_1x54(n)?)];
        if n == 4096 {
            out.push(("hybrid_2x36", Self::preset_hybrid_2x36(n)?));
        }
        if n >= 8192 {
            out.push(("hybrid_2x40", Self::preset_hybrid_2x40(n)?));
        }
        Ok(out)
    }

    /// Polynomial degree `n`.
    #[inline]
    pub fn degree(&self) -> usize {
        self.inner.n
    }

    /// Plaintext modulus `t`.
    #[inline]
    pub fn plain_modulus(&self) -> &Modulus {
        &self.inner.t
    }

    /// The full (level-0) ciphertext modulus chain.
    #[inline]
    pub fn chain(&self) -> &ModulusChain {
        &self.inner.levels[0].chain
    }

    /// Number of RNS limbs `l` in the full ciphertext modulus.
    #[inline]
    pub fn limbs(&self) -> usize {
        self.chain().limbs()
    }

    /// Number of levels the chain supports (= its limb count): a
    /// ciphertext can live at levels `0..levels()`, level `ℓ` having
    /// dropped the last `ℓ` limbs.
    #[inline]
    pub fn levels(&self) -> usize {
        self.inner.levels.len()
    }

    /// The deepest level (`limbs - 1`): one live limb. A 1-limb chain is
    /// level-0-only.
    #[inline]
    pub fn max_level(&self) -> usize {
        self.inner.levels.len() - 1
    }

    /// Live limbs at a level: `limbs - level`.
    ///
    /// # Panics
    ///
    /// Panics for a level past [`BfvParams::max_level`].
    #[inline]
    pub fn live_limbs_at(&self, level: usize) -> usize {
        assert!(level < self.levels(), "level {level} out of range");
        self.limbs() - level
    }

    /// The live prefix chain at a level (`chain_at(0)` is the full chain).
    ///
    /// # Panics
    ///
    /// Panics for a level past [`BfvParams::max_level`].
    #[inline]
    pub fn chain_at(&self, level: usize) -> &ModulusChain {
        &self.inner.levels[level].chain
    }

    /// The composed live modulus `Q_ℓ` at a level.
    #[inline]
    pub fn big_q_at(&self, level: usize) -> u128 {
        self.inner.levels[level].chain.big_q()
    }

    /// Whether the chain reserves a special key-switch prime `P` (hybrid
    /// `P·Q` key switching). Hybrid parameter sets take the special-prime
    /// arms of [`crate::Evaluator`]'s key switch: one digit per live limb
    /// instead of `Σ ceil(log_A q_i)`, and a rescale by `P` after the sum.
    #[inline]
    pub fn has_special(&self) -> bool {
        self.inner.special.is_some()
    }

    /// The special key-switch prime `P`, if the chain reserves one. `P`
    /// never carries ciphertext data — it exists only inside key-switch
    /// accumulators, which are exact-rescaled by `P` before they rejoin
    /// the data chain.
    #[inline]
    pub fn special(&self) -> Option<&Modulus> {
        self.inner.special.as_ref()
    }

    /// The chain a key switch runs on at a level — where its digits are
    /// NTT'd and summed against the key: [`BfvParams::chain_at`] on a
    /// digit chain, the live data prefix extended by the special prime,
    /// `[q_0 … q_{live-1}, P]`, on a hybrid one (dropping that last limb
    /// is the exact rescale back to `Q_ℓ`). A Galois key holds
    /// [`BfvParams::ks_digits_at`]`(0)` pairs over `ks_chain_at(0)`.
    #[inline]
    pub fn ks_chain_at(&self, level: usize) -> &ModulusChain {
        &self.inner.levels[level].ks_chain
    }

    /// Limb planes scratch buffers must hold: the widest key-switch chain
    /// (the data limbs, plus the special prime's plane on a hybrid chain).
    #[inline]
    pub fn scratch_limbs(&self) -> usize {
        self.ks_chain_at(0).limbs()
    }

    /// Digit count of a key switch at a level: [`BfvParams::l_ct_at`] on
    /// a digit chain; exactly one digit per live limb on a hybrid one
    /// (`q̂_i`-CRT decomposition, no base-`A` splitting — the special
    /// prime absorbs the noise the base split used to control).
    #[inline]
    pub fn ks_digits_at(&self, level: usize) -> usize {
        self.inner.levels[level].ks_digits
    }

    /// Ciphertext (activation) decomposition base `A_dcmp`.
    #[inline]
    pub fn a_dcmp(&self) -> u64 {
        self.inner.a_dcmp
    }

    /// Encryption-noise standard deviation `σ`.
    #[inline]
    pub fn sigma(&self) -> f64 {
        self.inner.sigma
    }

    /// `Δ = floor(Q / t)`, the level-0 plaintext scaling factor (exact).
    #[inline]
    pub fn delta(&self) -> u128 {
        self.inner.levels[0].delta
    }

    /// `Δ mod q_i` — the per-limb image of the level-0 scaling factor.
    #[inline]
    pub fn delta_mod(&self, limb: usize) -> u64 {
        self.inner.levels[0].delta_mod[limb]
    }

    /// `Δ_ℓ mod q_i` for a live limb at a level.
    #[inline]
    pub fn delta_mod_at(&self, level: usize, limb: usize) -> u64 {
        self.inner.levels[level].delta_mod[limb]
    }

    /// `Q mod t` — the residue driving the plaintext-multiplication
    /// rounding term `(Q mod t)·⌊mw/t⌋`. Equals 1 whenever the chain
    /// satisfies the Gazelle congruence `Q ≡ 1 (mod t)` (always true for
    /// the default generated single limb; multi-limb generated chains get
    /// it when congruent primes of the requested sizes exist).
    #[inline]
    pub fn q_mod_t(&self) -> u64 {
        self.inner.levels[0].q_mod_t
    }

    /// `Q_ℓ mod t` at a level: the multiplication rounding residue there,
    /// and the dominant rounding drift a switch *onto* level `ℓ` injects
    /// (the `(ρ/q_drop)·m` term with `|ρ/q_drop| ≲ (Q_ℓ mod t)/t`).
    #[inline]
    pub fn q_mod_t_at(&self, level: usize) -> u64 {
        self.inner.levels[level].q_mod_t
    }

    /// Writes `Δ_ℓ·m` lifted into every *live* limb plane of `out`
    /// (coefficient form): `out[i][j] = (Δ_ℓ mod q_i)·m_j mod q_i`, exact
    /// because `Δ_ℓ·m < Q_ℓ`. The level is inferred from `out`'s limb
    /// count, so one implementation serves encryption (level 0), plaintext
    /// addition at any level, and noise measurement.
    ///
    /// # Panics
    ///
    /// Panics if `msg.len() != n` or `out` has a foreign shape (wrong
    /// degree, or more limbs than the chain).
    pub fn lift_scaled_into(&self, msg: &[u64], out: &mut RnsPoly) {
        assert_eq!(msg.len(), self.inner.n);
        assert_eq!(out.degree(), self.inner.n);
        let live = out.limbs();
        assert!(
            live >= 1 && live <= self.limbs(),
            "foreign limb count {live}"
        );
        let level = self.limbs() - live;
        out.set_representation(Representation::Coeff);
        for i in 0..live {
            let q_i = *self.chain().modulus(i);
            let delta_i = self.delta_mod_at(level, i);
            for (dst, &m) in out.limb_mut(i).iter_mut().zip(msg) {
                *dst = q_i.mul_mod(delta_i, m);
            }
        }
    }

    /// Allocating variant of [`BfvParams::lift_scaled_into`] (level 0).
    pub fn lift_scaled(&self, msg: &[u64]) -> RnsPoly {
        self.lift_scaled_at(msg, 0)
    }

    /// Allocating [`BfvParams::lift_scaled_into`] at an explicit level.
    pub fn lift_scaled_at(&self, msg: &[u64], level: usize) -> RnsPoly {
        let mut out = RnsPoly::zero(self.chain_at(level), Representation::Coeff);
        self.lift_scaled_into(msg, &mut out);
        out
    }

    /// NTT tables for the plaintext modulus (used by the batch encoder).
    #[inline]
    pub fn t_table(&self) -> &NttTable {
        &self.inner.t_table
    }

    /// Security policy the parameters were validated under.
    #[inline]
    pub fn security(&self) -> SecurityLevel {
        self.inner.security
    }

    /// `l_ct = Σ_i ceil(log_{A_dcmp}(q_i))` — ciphertext decomposition
    /// digits of the RNS-native (per-limb `q̂_i`) key switch: the number of
    /// key-switch pairs each Galois key carries and of digit polynomials
    /// one level-0 `HE_Rotate` processes. For a single limb this equals
    /// the historical composed `ceil(log_A Q)`.
    pub fn l_ct(&self) -> usize {
        self.l_ct_at(0)
    }

    /// Digit count of a key switch at a level: the sum over *live* limbs
    /// only, `Σ_{i<limbs-ℓ} ceil(log_A q_i)`. Dropped limbs contribute no
    /// digits, which is why rotations get cheaper as the circuit burns
    /// budget — the Galois key's limb-major pair list is simply consumed
    /// as a prefix.
    pub fn l_ct_at(&self, level: usize) -> usize {
        self.chain_at(level)
            .rns_decomposition_levels(self.inner.a_dcmp)
    }

    /// Number of plaintext slots (equals the degree `n`; arranged as a
    /// `2 × n/2` matrix for rotation purposes).
    #[inline]
    pub fn slots(&self) -> usize {
        self.inner.n
    }

    /// Slots per rotation row (`n / 2`).
    #[inline]
    pub fn row_size(&self) -> usize {
        self.inner.n / 2
    }

    /// Fresh-ciphertext noise bound `2nB²` with `B = 6σ` (Table III).
    pub fn fresh_noise_bound(&self) -> f64 {
        let b = 6.0 * self.inner.sigma;
        2.0 * self.inner.n as f64 * b * b
    }

    /// The level-0 noise ceiling `Q / (2t)`: decryption succeeds while the
    /// noise magnitude stays below this.
    pub fn noise_ceiling(&self) -> f64 {
        self.noise_ceiling_at(0)
    }

    /// The noise ceiling `Q_ℓ / (2t)` at a level. Switching divides noise
    /// by the dropped limb but also lowers this ceiling by the same
    /// factor, so the budget is (nearly) preserved — what shrinks is every
    /// subsequent operation's cost.
    pub fn noise_ceiling_at(&self, level: usize) -> f64 {
        self.big_q_at(level) as f64 / (2.0 * self.inner.t.value() as f64)
    }

    /// Errors unless `other` is the same parameter set (degree, plaintext
    /// modulus, modulus chain, special prime and decomposition base all
    /// match) —
    /// ciphertexts from a foreign chain are rejected here.
    pub fn check_same(&self, other: &BfvParams) -> Result<()> {
        if self == other {
            Ok(())
        } else {
            Err(Error::ParameterMismatch)
        }
    }
}

/// A fully congruent chain found by [`search_congruent_chain`]: a
/// plaintext prime `t` and pairwise-distinct limb primes — data limbs and
/// the special key-switch prime — every one satisfying
/// `q ≡ 1 (mod 2n·t)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CongruentChain {
    /// Polynomial degree the chain was searched for.
    pub n: usize,
    /// The plaintext modulus (an NTT prime for `n`).
    pub t: u64,
    /// Data limb primes, in request order.
    pub data: Vec<u64>,
    /// The special key-switch prime `P`.
    pub special: u64,
}

/// Co-optimizes `t` and the whole limb chain: finds an NTT-friendly
/// plaintext prime `t` of `t_bits` bits, then draws pairwise-distinct
/// primes `≡ 1 (mod 2n·t)` for every requested data-limb size *and* the
/// special prime — so `Q_ℓ ≡ 1 (mod t)` holds at every level, the
/// multiplication rounding term `(Q mod t)·⌊mw/t⌋` vanishes, and the
/// modulus-switch / `P`-rescale drift is congruence-free down the whole
/// chain. This is the prime search behind the `hybrid_*` presets and the
/// [`crate`]-external chain solver (HE-PTune v2).
///
/// Congruent primes must exceed `2n·t`, so small limb sizes at deep
/// degrees have no solution — the search reports that as a typed error
/// instead of silently degrading to non-congruent primes (the builder's
/// fallback behavior, which presets deliberately avoid).
///
/// # Errors
///
/// * [`Error::InvalidDegree`] for a bad `n`;
/// * [`Error::InvalidLimbCount`] for an empty data request;
/// * [`Error::NoNttPrime`] when a size class has too few congruent
///   primes (or no `t_bits` NTT prime exists).
pub fn search_congruent_chain(
    n: usize,
    t_bits: u32,
    data_bits: &[u32],
    special_bits: u32,
) -> Result<CongruentChain> {
    if !n.is_power_of_two() || n < 8 {
        return Err(Error::InvalidDegree(n));
    }
    if data_bits.is_empty() {
        return Err(Error::InvalidLimbCount { limbs: 0 });
    }
    let t = generate_ntt_prime(t_bits, n)?;
    let step = (2 * n as u64)
        .checked_mul(t)
        .ok_or(Error::NoNttPrime { bits: t_bits, n })?;
    // One pooled draw per distinct size class (special included) keeps
    // equal-sized limbs distinct; distinct sizes cannot collide.
    let mut all: Vec<u32> = data_bits.to_vec();
    all.push(special_bits);
    let mut sizes = all.clone();
    sizes.sort_unstable();
    sizes.dedup();
    let mut values = vec![0u64; all.len()];
    for b in sizes {
        let count = all.iter().filter(|&&x| x == b).count();
        let mut pool = generate_primes_congruent(b, step, count)?.into_iter();
        for (slot, &bit) in values.iter_mut().zip(all.iter()) {
            if bit == b {
                *slot = pool.next().unwrap_or(0);
            }
        }
    }
    let special = values.pop().unwrap_or(0);
    debug_assert!(values.iter().all(|&v| v != 0) && special != 0);
    Ok(CongruentChain {
        n,
        t,
        data: values,
        special,
    })
}

/// Builder for [`BfvParams`].
///
/// The ciphertext modulus chain comes from, in order of precedence:
/// exact limb values ([`BfvParamsBuilder::moduli`], one value for a
/// single exact modulus), generated per-limb bit sizes
/// ([`BfvParamsBuilder::moduli_bits`]), or a generated single prime of
/// [`BfvParamsBuilder::cipher_bits`] bits (the default, preferring the
/// Gazelle congruence `q ≡ 1 (mod 2n·t)`).
#[derive(Debug, Clone)]
pub struct BfvParamsBuilder {
    n: usize,
    plain_bits: u32,
    cipher_bits: u32,
    plain_modulus: Option<u64>,
    moduli: Option<Vec<u64>>,
    moduli_bits: Option<Vec<u32>>,
    special_modulus: Option<u64>,
    special_bits: Option<u32>,
    a_dcmp: u64,
    sigma: f64,
    security: SecurityLevel,
}

impl Default for BfvParamsBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl BfvParamsBuilder {
    /// Creates a builder with Cheetah-flavored defaults
    /// (`n = 4096`, 17-bit `t`, one 60-bit limb, `A_dcmp = 2^20`,
    /// `σ = 3.2`).
    pub fn new() -> Self {
        Self {
            n: 4096,
            plain_bits: 17,
            cipher_bits: 60,
            plain_modulus: None,
            moduli: None,
            moduli_bits: None,
            special_modulus: None,
            special_bits: None,
            a_dcmp: 1 << 20,
            sigma: DEFAULT_SIGMA,
            security: SecurityLevel::default(),
        }
    }

    /// Sets the polynomial degree `n` (power of two ≥ 8).
    pub fn degree(&mut self, n: usize) -> &mut Self {
        self.n = n;
        self
    }

    /// Sets the plaintext modulus size in bits (a matching NTT prime is
    /// generated).
    pub fn plain_bits(&mut self, bits: u32) -> &mut Self {
        self.plain_bits = bits;
        self.plain_modulus = None;
        self
    }

    /// Single-limb chain of a generated prime with this many bits
    /// (clears any previously set multi-limb configuration).
    pub fn cipher_bits(&mut self, bits: u32) -> &mut Self {
        self.cipher_bits = bits;
        self.moduli = None;
        self.moduli_bits = None;
        self
    }

    /// Uses an exact plaintext modulus (must be an NTT prime for `n`).
    pub fn plain_modulus(&mut self, t: u64) -> &mut Self {
        self.plain_modulus = Some(t);
        self
    }

    /// Exact modulus chain: pairwise-distinct NTT primes for `n`, in
    /// order.
    pub fn moduli(&mut self, values: impl Into<Vec<u64>>) -> &mut Self {
        self.moduli = Some(values.into());
        self.moduli_bits = None;
        self
    }

    /// Generated modulus chain: one distinct NTT prime per requested bit
    /// size (equal sizes yield distinct primes).
    pub fn moduli_bits(&mut self, bits: &[u32]) -> &mut Self {
        self.moduli_bits = Some(bits.to_vec());
        self.moduli = None;
        self
    }

    /// Reserves an exact special key-switch prime `P` (must be an NTT
    /// prime for `n`, distinct from every data limb). Parameter sets with
    /// a special prime key-switch hybrid: digits are raised to `P·Q_ℓ`,
    /// switched, then exact-rescaled by `P`.
    pub fn special_modulus(&mut self, p: u64) -> &mut Self {
        self.special_modulus = Some(p);
        self.special_bits = None;
        self
    }

    /// Reserves a generated special key-switch prime of this many bits
    /// (preferring the Gazelle congruence `P ≡ 1 (mod 2n·t)`, falling
    /// back to a plain NTT prime; always distinct from the data limbs).
    pub fn special_bits(&mut self, bits: u32) -> &mut Self {
        self.special_bits = Some(bits);
        self.special_modulus = None;
        self
    }

    /// Sets the ciphertext decomposition base `A_dcmp`.
    pub fn a_dcmp(&mut self, base: u64) -> &mut Self {
        self.a_dcmp = base;
        self
    }

    /// Sets the encryption-noise standard deviation.
    pub fn sigma(&mut self, sigma: f64) -> &mut Self {
        self.sigma = sigma;
        self
    }

    /// Sets the security enforcement policy.
    pub fn security(&mut self, level: SecurityLevel) -> &mut Self {
        self.security = level;
        self
    }

    /// Resolves the limb values for the chain.
    fn resolve_moduli(&self, t_val: u64) -> Result<Vec<u64>> {
        if let Some(values) = &self.moduli {
            // Enforce the lazy-butterfly headroom bound (q < 2^61) here
            // rather than deep in chain construction, so an explicit
            // overwide limb fails with clear builder provenance. Generated
            // limbs inherit the same bound from the prime generators.
            if let Some(&bad) = values.iter().find(|v| *v >> MAX_NTT_MODULUS_BITS != 0) {
                return Err(Error::InvalidModulus(bad));
            }
            return Ok(values.clone());
        }
        // Without an explicit chain shape the builder generates one limb
        // of `cipher_bits`.
        let single = [self.cipher_bits];
        let bits = self.moduli_bits.as_deref().unwrap_or(&single);
        if bits.is_empty() {
            return Err(Error::InvalidLimbCount { limbs: 0 });
        }
        // Equal bit sizes must still yield distinct primes: generate a
        // pool per distinct size and hand primes out in request order.
        // Each size class prefers primes ≡ 1 (mod 2n·t): with
        // q mod t = 1 the BFV plaintext-multiplication rounding term
        // (q mod t)·⌊mp/t⌋ vanishes (Gazelle's modulus structure, which
        // Table III's noise model assumes), and a fully congruent chain
        // keeps Q_ℓ ≡ 1 (mod t) at *every* level, which also kills the
        // dominant modulus-switch drift. Sizes whose congruent progression
        // is too sparse fall back to plain NTT primes (e.g. 30-bit limbs
        // at n = 4096 — the 2x30 preset's documented regime).
        let mut values = vec![0u64; bits.len()];
        let mut sizes = bits.to_vec();
        sizes.sort_unstable();
        sizes.dedup();
        let congruent_step = (2 * self.n as u64).checked_mul(t_val);
        for b in sizes {
            let count = bits.iter().filter(|&&x| x == b).count();
            let congruent = congruent_step
                .map(|s| generate_primes_congruent(b, s, count))
                .and_then(std::result::Result::ok);
            let pool = match congruent {
                Some(pool) => pool,
                None => generate_ntt_primes(b, self.n, count)?,
            };
            let mut pool = pool.into_iter();
            for (slot, &bit) in values.iter_mut().zip(bits.iter()) {
                if bit == b {
                    *slot = pool.next().expect("pool sized to request count");
                }
            }
        }
        Ok(values)
    }

    /// Resolves the special key-switch prime, if one was requested.
    fn resolve_special(&self, t_val: u64, limb_values: &[u64]) -> Result<Option<u64>> {
        if let Some(p) = self.special_modulus {
            // The special prime rides the same NTT tables as the data
            // limbs, so it gets the same q < 2^61 headroom bound.
            if p >> MAX_NTT_MODULUS_BITS != 0 || limb_values.contains(&p) || p <= t_val {
                return Err(Error::InvalidModulus(p));
            }
            return Ok(Some(p));
        }
        let Some(bits) = self.special_bits else {
            return Ok(None);
        };
        // Draw one more candidate than there are data limbs so at least
        // one survives the distinctness filter; prefer the congruent
        // progression like the data limbs do, with the same fallback.
        let pool_len = limb_values.len() + 1;
        let step = (2 * self.n as u64).checked_mul(t_val);
        let pick = |pool: Vec<u64>| {
            pool.into_iter()
                .find(|p| !limb_values.contains(p) && *p > t_val)
        };
        let congruent = step
            .map(|s| generate_primes_congruent(bits, s, pool_len))
            .and_then(std::result::Result::ok)
            .and_then(&pick);
        let p = match congruent {
            Some(p) => p,
            None => pick(generate_ntt_primes(bits, self.n, pool_len)?)
                .ok_or(Error::NoNttPrime { bits, n: self.n })?,
        };
        Ok(Some(p))
    }

    /// Validates everything and builds the parameter set.
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidDegree`] for a bad `n`;
    /// * [`Error::InsecureParameters`] when the 128-bit check fails for the
    ///   total `log2(Q)`;
    /// * [`Error::NoNttPrime`] when prime generation fails;
    /// * [`Error::InvalidDecompositionBase`] for bad bases (including an
    ///   `A_dcmp` at least as large as a limb);
    /// * [`Error::InvalidLimbCount`] / [`Error::ModulusChainTooLarge`] /
    ///   [`Error::NotInvertible`] for malformed chains.
    pub fn build(&self) -> Result<BfvParams> {
        if !self.n.is_power_of_two() || self.n < 8 {
            return Err(Error::InvalidDegree(self.n));
        }
        let t_val = match self.plain_modulus {
            Some(t) => t,
            None => generate_ntt_prime(self.plain_bits, self.n)?,
        };
        let t = Modulus::new(t_val)?;
        let limb_values = self.resolve_moduli(t_val)?;
        let chain = ModulusChain::new(self.n, &limb_values)?;
        let special_val = self.resolve_special(t_val, &limb_values)?;
        // The plaintext modulus must fit inside every limb (plaintexts and
        // digits are lifted limb-wise), and exact CRT decryption needs
        // t·Q + Q/2 to fit u128.
        if chain.moduli().iter().any(|q| q.value() <= t_val) {
            return Err(Error::InvalidModulus(t_val));
        }
        if chain.total_bits() + t.bits() + 1 > 127 {
            return Err(Error::ModulusChainTooLarge {
                total_bits: chain.total_bits() + t.bits() + 1,
                max_bits: 127,
            });
        }
        if self.security == SecurityLevel::Bits128 {
            let max = max_log_q_128(self.n).ok_or(Error::InvalidDegree(self.n))?;
            // The RLWE samples in hybrid key-switch keys live mod P·Q, so
            // security is judged on the *total* modulus including the
            // special prime — P is free noise headroom, not free security.
            let special_bits = special_val.map_or(0, |p| 64 - p.leading_zeros());
            if chain.total_bits() + special_bits > max {
                return Err(Error::InsecureParameters {
                    n: self.n,
                    log_q: chain.total_bits() + special_bits,
                    max_log_q: max,
                });
            }
        }
        chain.check_decomposition_base(self.a_dcmp)?;
        let t_table = NttTable::cached(self.n, t)?;
        // One LevelData per level: level ℓ keeps the first `limbs - ℓ`
        // limbs. Level 0 reuses the already-built full chain; the prefix
        // chains share NTT tables through the process-wide cache, so the
        // extra cost is the (tiny) per-prefix CRT constant set.
        let mut levels = Vec::with_capacity(chain.limbs());
        for level in 0..chain.limbs() {
            let live = chain.limbs() - level;
            let sub = if level == 0 {
                chain.clone()
            } else {
                ModulusChain::new(self.n, &limb_values[..live])?
            };
            // The shape of a key switch at this level. Extending the live
            // prefix by the special prime also validates P (an NTT prime
            // for n, distinct from every live limb — a duplicate fails the
            // CRT inverse) and precomputes the P-rescale drop constants.
            let (ks_chain, ks_digits) = match special_val {
                Some(p) => {
                    let mut ks_values = limb_values[..live].to_vec();
                    ks_values.push(p);
                    (ModulusChain::new(self.n, &ks_values)?, live)
                }
                None => (sub.clone(), sub.rns_decomposition_levels(self.a_dcmp)),
            };
            let delta = sub.big_q() / t_val as u128;
            let delta_mod = sub
                .moduli()
                .iter()
                .map(|q| (delta % q.value() as u128) as u64)
                .collect();
            let q_mod_t = (sub.big_q() % t_val as u128) as u64;
            levels.push(LevelData {
                chain: sub,
                delta,
                delta_mod,
                q_mod_t,
                ks_chain,
                ks_digits,
            });
        }
        let special = match special_val {
            Some(p) => Some(Modulus::new(p)?),
            None => None,
        };
        Ok(BfvParams {
            inner: Arc::new(ParamsInner {
                n: self.n,
                t,
                levels,
                special,
                a_dcmp: self.a_dcmp,
                sigma: self.sigma,
                t_table,
                security: self.security,
            }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_produce_valid_params() {
        let p = BfvParams::builder().build().unwrap();
        assert_eq!(p.degree(), 4096);
        assert_eq!(p.limbs(), 1);
        assert_eq!(p.chain().total_bits(), 60);
        assert_eq!(p.plain_modulus().bits(), 17);
        assert_eq!(p.plain_modulus().value() % (2 * 4096), 1);
        assert_eq!(p.chain().modulus(0).value() % (2 * 4096), 1);
        assert_eq!(
            p.delta(),
            p.chain().big_q() / p.plain_modulus().value() as u128
        );
        assert_eq!(
            p.delta_mod(0),
            (p.delta() % p.chain().modulus(0).value() as u128) as u64
        );
    }

    #[test]
    fn builder_rejects_overwide_limbs_typed() {
        // Per-limb width is capped at 61 bits (q < 2^61): Harvey's lazy
        // butterfly accumulates x + 2q - u < 4q in a u64 and the lane
        // kernels keep one extra headroom bit. Every request path — bit
        // widths, explicit values, and the special prime — must fail with
        // a typed InvalidModulus, never a panic or a silent overflow.
        for bits in [62u32, 63, 64] {
            let err = BfvParams::builder()
                .degree(4096)
                .security(SecurityLevel::None)
                .moduli_bits(&[bits])
                .build()
                .unwrap_err();
            assert!(
                matches!(err, Error::InvalidModulus(_)),
                "moduli_bits {bits}"
            );
            let err = BfvParams::builder()
                .degree(4096)
                .security(SecurityLevel::None)
                .cipher_bits(bits)
                .build()
                .unwrap_err();
            assert!(
                matches!(err, Error::InvalidModulus(_)),
                "cipher_bits {bits}"
            );
            let err = BfvParams::builder()
                .degree(4096)
                .security(SecurityLevel::None)
                .moduli_bits(&[36])
                .special_bits(bits)
                .build()
                .unwrap_err();
            assert!(
                matches!(err, Error::InvalidModulus(_)),
                "special_bits {bits}"
            );
        }
        // Explicit values: a 62-bit number is a valid raw Barrett modulus
        // but not a valid NTT limb.
        let wide = 0x3fff_ffff_e800_0001u64;
        assert!(Modulus::new(wide).is_ok());
        let err = BfvParams::builder()
            .degree(4096)
            .security(SecurityLevel::None)
            .moduli(vec![wide])
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::InvalidModulus(v) if v == wide));
        let err = BfvParams::builder()
            .degree(4096)
            .security(SecurityLevel::None)
            .moduli_bits(&[36])
            .special_modulus(wide)
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::InvalidModulus(v) if v == wide));
        // One bit narrower is accepted end-to-end (61-bit limb, no security
        // cap so the width itself is what's under test).
        let p = BfvParams::builder()
            .degree(4096)
            .security(SecurityLevel::None)
            .moduli_bits(&[61])
            .build()
            .unwrap();
        assert_eq!(p.chain().modulus(0).bits(), 61);
    }

    #[test]
    fn security_check_enforced_on_total_bits() {
        // 60-bit q at n=2048 exceeds the 54-bit limit.
        let err = BfvParams::builder()
            .degree(2048)
            .cipher_bits(60)
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::InsecureParameters { .. }));
        // Two 30-bit limbs also total 60 bits: same rejection.
        let err = BfvParams::builder()
            .degree(2048)
            .plain_bits(16)
            .moduli_bits(&[30, 30])
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::InsecureParameters { .. }));
        // …but is allowed with enforcement off.
        let p = BfvParams::builder()
            .degree(2048)
            .cipher_bits(60)
            .security(SecurityLevel::None)
            .build()
            .unwrap();
        assert_eq!(p.chain().total_bits(), 60);
    }

    #[test]
    fn multi_limb_chains_build_with_distinct_primes() {
        for n in [4096usize, 8192] {
            let p = BfvParams::preset_rns_2x30(n).unwrap();
            assert_eq!(p.limbs(), 2);
            let q0 = p.chain().modulus(0).value();
            let q1 = p.chain().modulus(1).value();
            assert_ne!(q0, q1);
            assert_eq!(q0 % (2 * n as u64), 1);
            assert_eq!(q1 % (2 * n as u64), 1);
            assert_eq!(p.chain().total_bits(), 60);

            let p3 = BfvParams::preset_rns_3x36(n).unwrap();
            assert_eq!(p3.limbs(), 3);
            assert_eq!(p3.chain().total_bits(), 108);
            let values: Vec<u64> = p3.chain().moduli().iter().map(Modulus::value).collect();
            let mut dedup = values.clone();
            dedup.dedup();
            assert_eq!(dedup.len(), 3, "limbs must be distinct: {values:?}");
        }
    }

    #[test]
    fn presets_enumerate_limb_counts() {
        let presets = BfvParams::presets(4096).unwrap();
        let limb_counts: Vec<usize> = presets.iter().map(|(_, p)| p.limbs()).collect();
        assert_eq!(limb_counts, vec![1, 2, 3]);
    }

    #[test]
    fn decomposition_levels_exposed() {
        let p = BfvParams::builder()
            .degree(4096)
            .cipher_bits(60)
            .a_dcmp(1 << 20)
            .build()
            .unwrap();
        assert_eq!(p.l_ct(), 3);

        // Multi-limb: l_ct sums the per-limb digit counts of the
        // RNS-native decomposition (3 limbs × ceil(36/20) digits).
        let p3 = BfvParams::preset_rns_3x36(4096).unwrap();
        assert_eq!(p3.l_ct(), 3 * 36usize.div_ceil(20));
        let p2 = BfvParams::preset_rns_2x30(4096).unwrap();
        assert_eq!(p2.l_ct(), 2 * 30usize.div_ceil(20));
    }

    #[test]
    fn invalid_degree_rejected() {
        assert!(matches!(
            BfvParams::builder().degree(100).build(),
            Err(Error::InvalidDegree(100))
        ));
        assert!(matches!(
            BfvParams::builder().degree(4).build(),
            Err(Error::InvalidDegree(4))
        ));
    }

    #[test]
    fn invalid_bases_rejected() {
        assert!(matches!(
            BfvParams::builder().a_dcmp(3).build(),
            Err(Error::InvalidDecompositionBase(3))
        ));
        // A_dcmp must stay below every limb: 2^20 >= a 30-bit limb is fine,
        // but 2^30 is not.
        assert!(matches!(
            BfvParams::builder()
                .degree(4096)
                .plain_bits(17)
                .moduli_bits(&[30, 30])
                .a_dcmp(1 << 30)
                .build(),
            Err(Error::InvalidDecompositionBase(_))
        ));
    }

    #[test]
    fn equality_is_structural_and_chain_aware() {
        let a = BfvParams::builder().build().unwrap();
        let b = BfvParams::builder().build().unwrap();
        assert_eq!(a, b);
        let c = BfvParams::builder()
            .degree(8192)
            .cipher_bits(60)
            .build()
            .unwrap();
        assert_ne!(a, c);
        assert!(a.check_same(&b).is_ok());
        assert!(a.check_same(&c).is_err());
        // Same total bits, different limb structure: still foreign.
        let d = BfvParams::preset_rns_2x30(4096).unwrap();
        let e = BfvParams::preset_single_60(4096).unwrap();
        assert_ne!(d, e);
        assert!(d.check_same(&e).is_err());
    }

    #[test]
    fn fresh_noise_and_ceiling_formulas() {
        let p = BfvParams::builder().build().unwrap();
        let b = 6.0 * p.sigma();
        assert!((p.fresh_noise_bound() - 2.0 * 4096.0 * b * b).abs() < 1e-6);
        assert!(p.noise_ceiling() > 0.0);
        // Multi-limb ceiling reflects the composed modulus.
        let p3 = BfvParams::preset_rns_3x36(4096).unwrap();
        assert!(p3.noise_ceiling().log2() > 85.0);
    }

    #[test]
    fn ntt_tables_are_memoized_across_builds() {
        let a = BfvParams::preset_rns_2x30(4096).unwrap();
        let b = BfvParams::preset_rns_2x30(4096).unwrap();
        for i in 0..2 {
            assert!(
                Arc::ptr_eq(&a.chain().tables()[i], &b.chain().tables()[i]),
                "limb {i} table must come from the process-wide cache"
            );
        }
    }

    #[test]
    fn hybrid_presets_are_congruent_down_the_whole_chain() {
        for (n, presets) in [
            (4096usize, BfvParams::hybrid_presets(4096).unwrap()),
            (8192, BfvParams::hybrid_presets(8192).unwrap()),
        ] {
            assert!(!presets.is_empty());
            for (name, p) in presets {
                assert!(p.has_special(), "{name}");
                let t = p.plain_modulus().value();
                let step = 2 * n as u64 * t;
                let special = p.special().unwrap().value();
                let mut all: Vec<u64> = p.chain().moduli().iter().map(Modulus::value).collect();
                all.push(special);
                let mut dedup = all.clone();
                dedup.sort_unstable();
                dedup.dedup();
                assert_eq!(dedup.len(), all.len(), "{name}: limbs must be distinct");
                for q in all {
                    assert_eq!(q % step, 1, "{name}: {q} not ≡ 1 mod 2n·t");
                }
                // Congruence collapses the rounding residue at every level.
                for level in 0..p.levels() {
                    assert_eq!(p.q_mod_t_at(level), 1, "{name} level {level}");
                }
            }
        }
    }

    #[test]
    fn ks_chains_extend_each_live_prefix_by_the_special_prime() {
        let p = BfvParams::preset_hybrid_2x36(4096).unwrap();
        assert_eq!(p.limbs(), 2);
        assert_eq!(p.scratch_limbs(), 3);
        let special = p.special().unwrap().value();
        for level in 0..p.levels() {
            let live = p.live_limbs_at(level);
            let ks = p.ks_chain_at(level);
            assert_eq!(ks.limbs(), live + 1);
            for i in 0..live {
                assert_eq!(
                    ks.modulus(i).value(),
                    p.chain().modulus(i).value(),
                    "level {level} limb {i}"
                );
            }
            assert_eq!(ks.modulus(live).value(), special);
            assert_eq!(p.ks_digits_at(level), live);
        }
        // A digit chain switches keys on the data chain itself.
        let d = BfvParams::preset_rns_2x30(4096).unwrap();
        assert!(!d.has_special());
        assert_eq!(d.scratch_limbs(), d.limbs());
        for level in 0..d.levels() {
            assert_eq!(d.ks_chain_at(level), d.chain_at(level));
            assert_eq!(d.ks_digits_at(level), d.l_ct_at(level));
        }
    }

    #[test]
    fn special_prime_separates_equality_and_counts_toward_security() {
        // Same data chain with and without a special prime: foreign.
        let c = search_congruent_chain(4096, 16, &[36, 36], 36).unwrap();
        let digit = BfvParams::builder()
            .degree(4096)
            .plain_modulus(c.t)
            .moduli(c.data.clone())
            .build()
            .unwrap();
        let hybrid = BfvParams::builder()
            .degree(4096)
            .plain_modulus(c.t)
            .moduli(c.data.clone())
            .special_modulus(c.special)
            .build()
            .unwrap();
        assert_eq!(digit.chain(), hybrid.chain());
        assert_ne!(digit, hybrid);
        assert!(digit.check_same(&hybrid).is_err());

        // P counts toward the 128-bit budget: 3x36 data + 36-bit P = 144
        // bits at n = 4096 is rejected.
        let err = BfvParams::builder()
            .degree(4096)
            .plain_bits(17)
            .moduli_bits(&[36, 36, 36])
            .special_bits(36)
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::InsecureParameters { log_q: 144, .. }));

        // A special prime duplicating a data limb is rejected.
        let err = BfvParams::builder()
            .degree(4096)
            .plain_modulus(c.t)
            .moduli(c.data.clone())
            .special_modulus(c.data[0])
            .build()
            .unwrap_err();
        assert!(matches!(err, Error::InvalidModulus(_)));
    }

    #[test]
    fn search_congruent_chain_reports_impossible_regimes() {
        // 30-bit congruent limbs cannot exist at n = 4096 with a 16-bit t
        // (the progression step 2n·t already exceeds 2^30).
        assert!(search_congruent_chain(4096, 16, &[30, 30], 30).is_err());
        assert!(search_congruent_chain(100, 16, &[36], 36).is_err());
        assert!(search_congruent_chain(4096, 16, &[], 36).is_err());
    }

    #[test]
    fn max_log_q_table() {
        assert_eq!(max_log_q_128(2048), Some(54));
        assert_eq!(max_log_q_128(4096), Some(109));
        assert_eq!(max_log_q_128(1000), None);
    }
}
